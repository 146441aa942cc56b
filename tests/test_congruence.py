"""The lazy congruence oracle and the tables built on it, against the
eager reference on every word up to the length of Delta."""

import itertools
from functools import lru_cache

import pytest

import build_reference
from congruence_reference import ReferenceTable, residuals, strata
from garside import bundled, monoid
from garside.divided import divided_set
from garside.monoid import build_garside
from garside.presentation import congruence_classes

NAMES = ("g12", "g13", "typeb2", "typeb3")


@lru_cache(maxsize=None)
def reference(name: str) -> ReferenceTable:
    p = bundled.load_presentation(name)
    return ReferenceTable(p, len(p.delta_word))


def words_up_to(n: int, length: int):
    for k in range(length + 1):
        yield from itertools.product(range(n), repeat=k)


@pytest.mark.parametrize("name", NAMES)
def test_lazy_table_matches_reference(name):
    p = bundled.load_presentation(name)
    ref = reference(name)
    table = congruence_classes(p, len(p.delta_word))
    for w in words_up_to(len(p.generators), len(p.delta_word)):
        assert table.rep(w) == ref.rep(w)
        assert table.class_members(w) == ref.class_members(w)
    for length in range(len(p.delta_word) + 1):
        assert strata(table, length) == ref.classes(length)
    # Strata closed by enumeration alone agree as well.
    fresh = congruence_classes(p, len(p.delta_word))
    assert strata(fresh, len(p.delta_word)) == ref.classes(len(p.delta_word))


@pytest.mark.parametrize("name", NAMES)
def test_simple_of_word_matches_reference(name):
    # Fold each word through the atom columns of the product table: a word is
    # simple iff every prefix is, and the fold then ends at its simple.
    g = bundled.get_structure(name)
    ref = reference(name)

    def simple_of_word(word):
        s = g.identity
        for gi in word:
            s = g.product_table[s][g.generator_atoms[gi]]
            if s is None:
                break
        return s

    simple_index = {w: i for i, w in enumerate(g.simples)}
    n = len(g.presentation.generators)
    for w in words_up_to(n, g.delta_length):
        assert simple_of_word(w) == simple_index.get(ref.rep(w))
    assert simple_of_word(g.presentation.delta_word + (0,)) is None


@pytest.mark.parametrize("name", NAMES)
def test_residuals_match_reference_scan(name):
    g = bundled.get_structure(name)
    ref = reference(name)
    assert g.residual_left == residuals(g, ref, left=True)
    table, _, _ = build_reference._build_residuals(g, left=False)
    assert table == residuals(g, ref, left=False)


@pytest.mark.parametrize(
    "name, closed, divided",
    [("g13", 192, [(3, 4), (2, 1), (3, 0)]), ("typeb3", 209, [(3, 1), (2, 1), (6, 2)])],
)
def test_build_closes_only_simple_classes(monkeypatch, name, closed, divided):
    # Every word the oracle closed belongs to a simple: the build never falls
    # back to closing whole strata, and divided_set asks the oracle nothing.
    oracles = []

    def capture(*args):
        oracles.append(congruence_classes(*args))
        return oracles[-1]

    monkeypatch.setattr(monoid, "congruence_classes", capture)
    g = build_garside(bundled.load_presentation(name))
    [oracle] = oracles
    assert len(oracle.reps) == closed
    assert set(oracle.reps.values()) == set(g.simples)
    for m, n in divided:
        divided_set(g, m, n)
    assert len(oracle.reps) == closed
