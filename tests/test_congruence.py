"""The lazy congruence oracle and the tables built on it, against the
eager reference on every word up to the length of Delta."""

import itertools
from functools import lru_cache

import pytest

import build_reference
from congruence_reference import ReferenceTable, residuals
from garside import bundled
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
        assert table.classes(length) == ref.classes(length)
    # Strata closed by classes() alone agree as well.
    fresh = congruence_classes(p, len(p.delta_word))
    assert fresh.classes(len(p.delta_word)) == ref.classes(len(p.delta_word))


@pytest.mark.parametrize("name", NAMES)
def test_simple_of_word_matches_reference(name):
    g = bundled.get_structure(name)
    ref = reference(name)
    simple_index = {w: i for i, w in enumerate(g.simples)}
    n = len(g.presentation.generators)
    for w in words_up_to(n, g.delta_length):
        assert g.simple_of_word(w) == simple_index.get(ref.rep(w))
    assert g.simple_of_word(g.presentation.delta_word + (0,)) is None


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
def test_build_closes_only_simple_classes(name, closed, divided):
    # Every word the oracle closed belongs to a simple: the build never falls
    # back to closing whole strata, and divided_set asks the oracle nothing.
    g = build_garside(bundled.load_presentation(name))
    assert len(g.oracle.reps) == len(g.word_simple) == closed
    for m, n in divided:
        divided_set(g, m, n)
    assert len(g.oracle.reps) == closed
