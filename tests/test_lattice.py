"""The build against the reference build in build_reference, and the gcd
and lcm tables read by mask ownership against the original candidate scan
in lattice_reference, on the bundled structures and on seeded random
presentations."""

import random
from collections import Counter
from functools import lru_cache

import pytest

import build_reference
from garside import bundled, monoid
from garside.errors import AxiomViolation, GarsideError
from garside.monoid import build_garside, verify_presentation
from garside.presentation import Presentation, parse_presentation
from garside.typeb import typeb_presentation
from lattice_reference import bound_table

SOURCES = ["g12", "g13", "typeb2", "typeb3", 1, 2, 3]


def _presentation(source) -> Presentation:
    if isinstance(source, int):
        return typeb_presentation(source)
    return bundled.load_presentation(source)


def _four_tables(left_masks, right_masks):
    """(kind, masks, lower) for the gcd and lcm tables on both sides."""
    (left_div, left_mult), (right_div, right_mult) = left_masks, right_masks
    return [
        ("left", left_div, True),
        ("left", left_mult, False),
        ("right", right_div, True),
        ("right", right_mult, False),
    ]


def _outcome(table, *args):
    try:
        return table(*args)
    except AxiomViolation as exc:
        return exc.kind, exc.witnesses


@pytest.mark.parametrize("source", SOURCES)
def test_tables_match_reference(source):
    g = build_garside(_presentation(source))
    _, left_div = monoid._build_residuals(g)
    assert monoid._bound_table(g, left_div) == bound_table(g, left_div, "left", True)
    _, *left = build_reference._build_residuals(g, left=True)
    _, *right = build_reference._build_residuals(g, left=False)
    assert left[0] == left_div
    for kind, masks, lower in _four_tables(left, right):
        assert build_reference._bound_table(g, masks, kind, lower) == bound_table(
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


def _build_outcome(build, p: Presentation):
    """The witnesses of a failing build, or the tables of a passing one."""
    try:
        g = build(p)
    except AxiomViolation as exc:
        return exc.kind, exc.witnesses
    # product_table is not compared: the derived pairs cover the entries of
    # it that the split reads.
    n = len(g.simples)
    return (
        g.residual_left,
        g.left_div_mask,
        g.left_complement,
        g._phi_powers,
        g.split,
        [[g.product_decomp(a, b) for b in range(n)] for a in range(n)],
        g._atom_nf,
    )


def _reports_and_outcomes(monkeypatch, presentations):
    # Each report is taken with verify_presentation's own build patched in.
    out = []
    for build in (build_garside, build_reference.build_garside):
        monkeypatch.setattr(monoid, "build_garside", build)
        out.append(
            [(verify_presentation(p), _build_outcome(build, p)) for p in presentations]
        )
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("source", SOURCES)
def test_build_matches_reference_build(monkeypatch, source):
    new, reference = _reports_and_outcomes(monkeypatch, [_presentation(source)])
    assert new == reference
    assert new[0][0]["axioms"] == {"balanced": True, "lattice": True, "phi": True}


def test_random_builds_match_reference_build(monkeypatch):
    # The reference build runs every check the build dropped; none of them
    # may change a report or a table.
    new, reference = _reports_and_outcomes(monkeypatch, _random_presentations())
    assert new == reference
    passed = sum(report["axioms"]["phi"] is True for report, _ in new)
    assert passed >= 20


def test_random_reports_match_reference(monkeypatch):
    presentations = _random_presentations()
    reports = [verify_presentation(p) for p in presentations]
    monkeypatch.setattr(
        monoid, "_bound_table", lambda g, masks: bound_table(g, masks, "left", True)
    )
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
    # Every reference build whose left residuals are unique is recorded.
    # On each, the right residuals are unique too (a bijective complement
    # gives right cancellation), and the four lattice tables all pass or
    # all fail (the complement reverses divisibility, and a finite
    # meet-semilattice with a top is a lattice).  Failing tables are
    # compared with the scan as well, though the build stops at the first.
    builds = []
    build_residuals = build_reference._build_residuals

    def recording(g, left):
        out = build_residuals(g, left)
        if left:
            builds.append(g)
        return out

    monkeypatch.setattr(build_reference, "_build_residuals", recording)
    for p in _random_presentations():
        try:
            build_reference.build_garside(p)
        except GarsideError:
            pass
    failed = Counter()
    for g in builds:
        left, right = (build_residuals(g, side)[1:] for side in (True, False))
        assert monoid._build_residuals(g)[1] == left[0]
        outcomes = {}
        for kind, masks, lower in _four_tables(left, right):
            outcome = _outcome(build_reference._bound_table, g, masks, kind, lower)
            assert outcome == _outcome(bound_table, g, masks, kind, lower)
            outcomes[kind, lower] = outcome
        assert _outcome(monoid._bound_table, g, left[0]) == outcomes["left", True]
        fails = {key for key, outcome in outcomes.items() if outcome[0] == "lattice"}
        assert fails in (set(), set(outcomes)), fails
        failed.update(fails)
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
