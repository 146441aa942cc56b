from pathlib import Path

import pytest
from congruence_reference import strata

import garside
from garside.bundled import load_presentation
from garside.errors import BudgetExceeded, InhomogeneousPresentation, ParseError
from garside.presentation import (
    Presentation,
    congruence_classes,
    homogeneity_violations,
    parse_presentation,
    require_homogeneous,
)

G12_TEXT = (Path(garside.__file__).parent / "data" / "g12.gar").read_text(encoding="utf-8")


def test_parse_g12():
    p = parse_presentation(G12_TEXT)
    assert p.generators == ("s", "t", "u")
    assert len(p.relations) == 2
    assert p.render(p.delta_word) == "s t u s"


def test_parse_skips_comments_and_blank_lines():
    p = parse_presentation("# leading comment\n\ngens: a\n\n# mid\ndelta: a\n")
    assert p.generators == ("a",)
    assert p.relations == ()
    assert p.delta_word == (0,)


def test_parse_round_trip():
    p = parse_presentation(G12_TEXT)
    for lhs, rhs in p.relations:
        assert p.word_from_tokens(p.render(lhs).split()) == lhs
        assert p.word_from_tokens(p.render(rhs).split()) == rhs


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("delta: a\n", "missing gens"),
        ("gens: a\n", "missing delta"),
        ("gens: a\ngens: a\ndelta: a\n", "line 2: duplicate gens"),
        ("gens: a a\ndelta: a\n", "duplicate generator name"),
        ("gens: a\nrel: a a\ndelta: a\n", "needs '='"),
        ("gens: a\nfoo: bar\ndelta: a\n", "unknown key"),
        ("gens: a\nnot a key line\ndelta: a\n", "expected 'key: value'"),
        ("gens: a\nrel: a b = a a\ndelta: a\n", "undeclared generator"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_presentation(text)


def test_homogeneity_violations():
    p = parse_presentation("gens: a b\nrel: a b = b\ndelta: a b\n")
    assert homogeneity_violations(p) == [0]
    with pytest.raises(InhomogeneousPresentation) as exc:
        require_homogeneous(p)
    assert exc.value.indices == [0]


def test_homogeneous_passes():
    require_homogeneous(load_presentation("g12"))


def test_congruence_delta_class(g12):
    p = g12.presentation
    table = congruence_classes(p, 4)
    delta = p.word_from_tokens("s t u s".split())
    members = {p.render(w) for w in table.class_members(delta)}
    assert members == {"s t u s", "t u s t", "u s t u"}


def test_congruence_reps_are_lex_least(g12):
    p = g12.presentation
    table = congruence_classes(p, 4)
    tust = p.word_from_tokens("t u s t".split())
    assert p.render(table.rep(tust)) == "s t u s"
    # The table closes classes on demand; materialise every stratum so the
    # loop below sees every word.
    for k in range(5):
        strata(table, k)
    assert len(table.reps) == sum(3**k for k in range(5))
    for w, r in table.reps.items():
        assert r <= w


def test_congruence_short_strata(g12):
    p = g12.presentation
    table = congruence_classes(p, 2)
    st = p.word_from_tokens(["s", "t"])
    ts = p.word_from_tokens(["t", "s"])
    assert table.rep(st) != table.rep(ts)
    # No relation is shorter than four letters, so lengths 1 and 2 are free.
    assert len(strata(table, 1)) == 3
    assert len(strata(table, 2)) == 9
    assert table.rep(()) == ()


def test_congruence_budget():
    p = parse_presentation("gens: a b c\ndelta: a b c\n")
    with pytest.raises(BudgetExceeded) as exc:
        congruence_classes(p, 4, budget=10)
    assert exc.value.budget == 10
    assert str(exc.value) == "stratum of length 3 has 27 words, over the budget of 10"


def test_word_from_tokens_reports_all_missing():
    p = Presentation(("a",), (), (0,))
    with pytest.raises(ParseError, match="x y"):
        p.word_from_tokens(["a", "x", "y"])


def test_presentation_is_a_value_but_not_a_tuple():
    # A tuple would be read as a table row by the structure's layout checks.
    p, again = parse_presentation(G12_TEXT), parse_presentation(G12_TEXT)
    assert not isinstance(p, tuple)
    assert p == again and hash(p) == hash(again)
    assert p != Presentation(p.generators, p.relations[:1], p.delta_word)
    assert p != (p.generators, p.relations, p.delta_word)


def test_congruence_table_is_not_a_tuple():
    assert not isinstance(congruence_classes(parse_presentation(G12_TEXT), 2), tuple)
