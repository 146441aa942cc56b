import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside.bundled import load_presentation
from garside.errors import GarsideError
from garside.monoid import build_garside
from garside.typeb import (
    check_epsilon,
    epsilon_word,
    is_member,
    typeb_presentation,
    winding,
)


def test_presentation_shape():
    p = typeb_presentation(3)
    assert p.generators == ("b1", "b2", "b3")
    assert p.render(p.delta_word) == "b1 b2 b3 b1 b2 b3 b1 b2 b3"
    assert len(p.relations) == 3


@pytest.mark.parametrize(
    "n, expected",
    # One length-four relation, n-2 braid relations, and (n-1)(n-2)/2
    # commutations for the distant pairs.
    [(1, 0), (2, 1), (3, 3), (4, 6), (5, 10)],
)
def test_relation_counts(n, expected):
    assert len(typeb_presentation(n).relations) == expected


def test_rank_one_degenerates():
    p = typeb_presentation(1)
    assert p.generators == ("b1",)
    assert p.relations == ()
    assert p.delta_word == (0,)
    with pytest.raises(GarsideError):
        typeb_presentation(0)


def test_bundled_files_match_generated():
    for n in (2, 3):
        assert load_presentation(f"typeb{n}") == typeb_presentation(n)


def test_simple_counts(b2, b3):
    assert len(b2.simples) == 8
    assert len(b3.simples) == 48


def test_epsilon_word():
    assert epsilon_word(3) == (2, 1, 0)
    assert epsilon_word(1) == (0,)


def test_check_epsilon_b2(b2):
    report = check_epsilon(b2, 2)
    assert report["epsilon"] == "b2 b1"
    assert report["epsilon_power_is_delta"] is True
    assert report["delta_central"] is True
    assert report["phi_order"] == 1
    assert report["syntactic_b1"] is True


def test_check_epsilon_b3(b3):
    report = check_epsilon(b3, 3)
    assert report["epsilon"] == "b3 b2 b1"
    assert report["epsilon_power_is_delta"] is True
    assert report["delta_central"] is True
    assert report["syntactic_b1"] is None


def test_check_epsilon_rank_one():
    g = build_garside(typeb_presentation(1))
    report = check_epsilon(g, 1)
    assert report["epsilon_power_is_delta"] is True
    assert report["delta_central"] is True


def test_check_epsilon_rejects_wrong_structure(g12):
    with pytest.raises(GarsideError):
        check_epsilon(g12, 3)


def test_winding_counts_first_generator():
    assert winding([(0, 1), (1, 1), (0, 1)]) == 2
    assert winding([(0, 1), (0, -1)]) == 0
    assert winding([(1, 1), (2, -1)]) == 0
    assert winding([]) == 0


def test_membership():
    assert is_member([(0, 1), (0, 1)], 2)
    assert not is_member([(0, 1)], 2)
    assert is_member([(0, 1)], 1)
    assert is_member([(0, -1), (0, -1), (0, -1)], 3)
    with pytest.raises(GarsideError):
        is_member([], 0)


letters = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from((1, -1))),
    max_size=12,
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(letters, letters)
def test_winding_is_additive(u, v):
    assert winding(u + v) == winding(u) + winding(v)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(letters)
def test_winding_negates_inverses(u):
    inverse = [(i, -s) for i, s in reversed(u)]
    assert winding(inverse) == -winding(u)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(letters, letters)
def test_membership_is_a_subgroup(u, v):
    if is_member(u, 2) and is_member(v, 2):
        assert is_member(u + v, 2)


def test_winding_is_relation_invariant(b3):
    # Both sides of every defining relation wind identically, so the count
    # really is a function on the quotient.
    p = b3.presentation
    for lhs, rhs in p.relations:
        assert winding([(i, 1) for i in lhs]) == winding([(i, 1) for i in rhs])
