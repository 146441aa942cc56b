import math

import pytest
import reflgroups_reference

from garside.errors import GarsideError, UnknownGroup
from garside.reflgroups import (
    GroupData,
    _regular_numbers,
    _regular_reports,
    _regularity_classes,
    _series_universe,
    center_order,
    exceptional_table,
    group_data,
    group_order,
    isodiscriminantal_pairs,
    regular_numbers,
    regularity,
    series_data,
)


def test_table_covers_exceptional_range():
    table = exceptional_table()
    assert sorted(table) == sorted(f"G{k}" for k in range(4, 38))
    for data in table.values():
        assert len(data.degrees) == len(data.codegrees) == data.rank
        assert data.codegrees[0] == 0


def test_table_anchors():
    g12 = group_data("G12")
    assert g12.degrees == (6, 8)
    assert g12.codegrees == (0, 10)
    g13 = group_data("G13")
    assert g13.degrees == (8, 12)
    assert g13.codegrees == (0, 16)


def test_orders():
    assert group_order(group_data("G12")) == 48
    assert center_order(group_data("G12")) == 2
    assert group_order(group_data("G13")) == 96
    assert center_order(group_data("G13")) == 4
    assert group_order(group_data("G(1,1,5)")) == math.factorial(5)


def test_group_data_is_a_value_keying_the_regular_numbers_cache():
    first, second = group_data("G(12,12,2)"), group_data("G(12,12,2)")
    assert first is not second
    assert first == second and hash(first) == hash(second)
    numbers = regular_numbers(first)
    hits = _regular_numbers.cache_info().hits
    assert regular_numbers(second) == numbers
    assert _regular_numbers.cache_info().hits == hits + 1


def test_group_data_rejects_a_rank_that_does_not_match():
    message = "^X: rank 3 does not match 2 degrees / 2 codegrees$"
    with pytest.raises(GarsideError, match=message):
        GroupData("X", (6, 8), (0, 10), 3)


def test_series_symmetric():
    s4 = series_data(1, 1, 4)
    assert s4.degrees == (2, 3, 4)
    assert s4.codegrees == (0, 1, 2)
    assert s4.rank == 3


def test_series_formulas():
    b2 = series_data(4, 2, 2)  # G(4,2,2)
    assert b2.degrees == (4, 4)
    assert b2.codegrees == (0, 4)
    d2 = series_data(4, 4, 2)  # G(4,4,2), a dihedral group
    assert d2.degrees == (2, 4)
    assert d2.codegrees == (0, 2)
    c3 = series_data(5, 1, 1)  # cyclic of order five
    assert c3.degrees == (5,)
    assert c3.codegrees == (0,)


def test_group_data_parses_series_names():
    assert group_data("G(12, 12, 2)").degrees == (2, 12)
    assert group_data("G(2,1,2)") == series_data(2, 1, 2)


@pytest.mark.parametrize(
    "name",
    ["G3", "G38", "X5", "G(5,3,2)", "G(1,1,1)", "G(2,2,1)", "G(0,1,2)", "G()"],
)
def test_unknown_groups(name):
    with pytest.raises(UnknownGroup):
        group_data(name)


def test_regular_numbers():
    assert regular_numbers(group_data("G12")) == (1, 2, 3, 4, 6, 8)
    assert regular_numbers(group_data("G13")) == (1, 2, 3, 4, 6, 12)


def test_regularity_g12_d4():
    rep = regularity(group_data("G12"), 4)
    assert rep.regular
    assert rep.a == (8,)
    assert rep.b == (0,)
    assert rep.fundamental == 8
    assert rep.r_class == (4, 8)
    assert rep.class_minimum == 4


def test_regularity_nonregular():
    rep = regularity(group_data("G12"), 5)
    assert not rep.regular
    assert rep.a == ()
    assert rep.b == (0, 10)
    assert rep.r_class is None
    assert rep.class_minimum is None


def test_regularity_rejects_bad_d():
    with pytest.raises(GarsideError):
        regularity(group_data("G12"), 0)


def test_g13_classes():
    data = group_data("G13")
    expected = {
        1: ((1, 2, 4), 1),
        2: ((1, 2, 4), 1),
        3: ((3, 6, 12), 3),
        4: ((1, 2, 4), 1),
        6: ((3, 6, 12), 3),
        12: ((3, 6, 12), 3),
    }
    for d, (cls, minimum) in expected.items():
        rep = regularity(data, d)
        assert rep.r_class == cls
        assert rep.class_minimum == minimum


def test_class_of_one_is_center_divisors():
    for name in ("G12", "G13", "G23", "G30"):
        data = group_data(name)
        rep = regularity(data, 1)
        center = center_order(data)
        assert rep.r_class == tuple(e for e in range(1, center + 1) if center % e == 0)


def test_dihedral_class_without_minimum():
    rep = regularity(group_data("G(12,12,2)"), 3)
    assert rep.regular
    assert rep.r_class == (3, 4, 6, 12)
    assert rep.class_minimum is None


def test_fundamental_stays_regular():
    for name in ("G12", "G13", "G24", "G27"):
        data = group_data(name)
        for d in regular_numbers(data):
            rep = regularity(data, d)
            again = regularity(data, rep.fundamental)
            assert again.regular
            assert again.a == rep.a and again.b == rep.b


PAIRS = [
    ("G(1,1,3)", "G(3,3,2)"),
    ("G(1,1,4)", "G(2,2,3)"),
    ("G(2,1,2)", "G(4,4,2)"),
    ("G5", "G(6,1,2)"),
    ("G26", "G(6,1,3)"),
    ("G7", "G(12,2,2)"),
    ("G10", "G(12,1,2)"),
    ("G15", "G(24,4,2)"),
    ("G11", "G(24,2,2)"),
    ("G18", "G(30,1,2)"),
    ("G19", "G(60,2,2)"),
]


def test_isodiscriminantal_pairs():
    pairs = isodiscriminantal_pairs()
    assert [(p.first, p.second) for p in pairs] == PAIRS
    for p in pairs:
        first = group_data(p.first)
        second = group_data(p.second)
        assert first.degrees == second.degrees == p.degrees
        assert first.codegrees == second.codegrees == p.codegrees


def test_isodiscriminantal_pairs_smaller_universe():
    pairs = isodiscriminantal_pairs(max_de=30, max_n=10)
    assert [(p.first, p.second) for p in pairs] == PAIRS[:10]
    pairs = isodiscriminantal_pairs(max_de=6, max_n=4)
    assert [(p.first, p.second) for p in pairs] == PAIRS[:5]


@pytest.mark.parametrize("max_de, max_n", [(6, 4), (30, 10), (120, 10), (300, 12)])
def test_isodiscriminantal_pairs_match_reference(max_de, max_n):
    # The reference names every group of the universe; the search names
    # only the members of a group of two or more.
    expected = reflgroups_reference.isodiscriminantal_pairs(max_de, max_n)
    assert isodiscriminantal_pairs(max_de, max_n) == expected


def test_series_universe_matches_reference():
    # Divisors listed from their multiples, then sorted, give the universe
    # of the divisor scan in the same order, so the pairs keep first/second.
    for max_n in range(2, 6):
        for max_de in range(201):
            expected = reflgroups_reference.series_universe(max_de, max_n)
            assert _series_universe(max_de, max_n) == expected, (max_de, max_n)


@pytest.mark.parametrize("name", ["G12", "G37", "G(24,4,3)"])
def test_regularity_classes_are_listed_once_per_group(name):
    data = group_data(name)
    _regularity_classes.cache_clear()
    reports = _regular_reports(data)
    info = _regularity_classes.cache_info()
    assert (info.misses, info.hits) == (1, len(reports) - 1)
    assert all(report.d in report.r_class for report in reports)


def test_regularity_matches_reference():
    # Every exceptional group and every G(de, e, n) with de <= 24 and n <= 5,
    # rank one included; G(1,1,1) and G(e,e,1) have no reflections.
    groups = list(exceptional_table().values()) + [
        series_data(de, e, n)
        for de in range(1, 25)
        for e in range(1, de + 1)
        for n in range(1, 6)
        if de % e == 0 and (n > 1 or de != e)
    ]
    assert len(groups) == 430
    for data in groups:
        expected = reflgroups_reference.regular_numbers(data)
        assert regular_numbers(data) == expected, data.name
        for d in range(1, max(data.degrees + data.codegrees) + 3):
            expected = reflgroups_reference.regularity(data, d)
            assert regularity(data, d) == expected, (data.name, d)
