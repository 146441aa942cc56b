"""The gcd and lcm tables read by mask ownership, against the original
candidate scan in lattice_reference, on the bundled structures and on
seeded random presentations."""

import random
from collections import Counter
from functools import lru_cache

import pytest

from garside import bundled, monoid
from garside.errors import AxiomViolation, GarsideError
from garside.monoid import build_garside, verify_presentation
from garside.presentation import Presentation, parse_presentation
from garside.typeb import typeb_presentation
from lattice_reference import bound_table


def _four_tables(left_masks, right_masks):
    """(kind, masks, lower) for the gcd and lcm tables on both sides."""
    (left_div, left_mult), (right_div, right_mult) = left_masks, right_masks
    return [
        ("left", left_div, True),
        ("left", left_mult, False),
        ("right", right_div, True),
        ("right", right_mult, False),
    ]


def _outcome(table, g, masks, kind, lower):
    try:
        return table(g, masks, kind, lower)
    except AxiomViolation as exc:
        return exc.kind, exc.witnesses


@pytest.mark.parametrize("source", ["g12", "g13", "typeb2", "typeb3", 1, 2, 3])
def test_tables_match_reference(source):
    if isinstance(source, int):
        g = build_garside(typeb_presentation(source))
    else:
        g = bundled.get_structure(source)
    _, *left = monoid._build_residuals(g, left=True)
    _, *right = monoid._build_residuals(g, left=False)
    for kind, masks, lower in _four_tables(left, right):
        assert monoid._bound_table(g, masks, kind, lower) == bound_table(
            g, masks, kind, lower
        ), (kind, lower)


def _random_presentation(rng: random.Random) -> Presentation:
    # Each relation starts its two sides with different letters, which keeps
    # most residuals unique, so many presentations reach the lattice tables.
    k = rng.randint(2, 3)
    relations = []
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(2, 3)
        firsts = rng.sample(range(k), 2)
        relations.append(
            tuple(
                (s,) + tuple(rng.randrange(k) for _ in range(length - 1))
                for s in firsts
            )
        )
    delta = tuple(rng.randrange(k) for _ in range(rng.randint(2, 5)))
    return Presentation(tuple("abc"[:k]), tuple(relations), delta)


@lru_cache(maxsize=None)
def _random_presentations() -> tuple[Presentation, ...]:
    rng = random.Random(20221)
    return tuple(_random_presentation(rng) for _ in range(2000))


def test_random_reports_match_reference(monkeypatch):
    presentations = _random_presentations()
    reports = [verify_presentation(p) for p in presentations]
    monkeypatch.setattr(monoid, "_bound_table", bound_table)
    assert [verify_presentation(p) for p in presentations] == reports
    witnesses = Counter(
        r["witnesses"][0].split(" of ")[0]
        for r in reports
        if r["axioms"]["lattice"] is False
    )
    assert witnesses["gcd (left)"] >= 20
    assert witnesses["left residual"] >= 20
    assert sum(r["axioms"]["phi"] is True for r in reports) >= 20


def test_random_tables_match_reference(monkeypatch):
    # Every build whose residuals are unique hands its masks to the lattice
    # stage; all four tables of each are compared, failing ones included,
    # though the build itself stops at the first failure.
    builds: dict[int, list] = {}
    build_residuals = monoid._build_residuals

    def recording(g, left):
        out = build_residuals(g, left)
        builds.setdefault(id(g), [g]).append(out[1:])
        return out

    monkeypatch.setattr(monoid, "_build_residuals", recording)
    for p in _random_presentations():
        try:
            build_garside(p)
        except GarsideError:
            pass
    failed = Counter()
    for g, *sides in builds.values():
        if len(sides) < 2:
            continue
        for kind, masks, lower in _four_tables(*sides):
            outcome = _outcome(monoid._bound_table, g, masks, kind, lower)
            assert outcome == _outcome(bound_table, g, masks, kind, lower)
            failed[kind, lower] += outcome[0] == "lattice"
    assert len(failed) == 4 and min(failed.values()) >= 10, failed


GCD_FAILURE = "gens: a b\nrel: a b = b a\nrel: a a = b b\ndelta: b a b a\n"


def test_gcd_witness_is_pinned():
    report = verify_presentation(parse_presentation(GCD_FAILURE))
    assert report == {
        "schema": 1,
        "axioms": {"balanced": True, "lattice": False, "phi": None},
        "simple_count": None,
        "phi_order": None,
        "witnesses": ["gcd (left) of a a and a b has 0 candidates"],
    }
