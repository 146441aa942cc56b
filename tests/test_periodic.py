import math

import pytest

from garside.errors import PeriodicityError
from garside.monoid import NormalForm
from garside.periodic import (
    bezout_pair,
    bezout_root,
    candidate_root_orders,
    reduce_exponents,
    roots_report,
)


def stu(g12):
    return g12.normal_form(g12.presentation.word_from_tokens("s t u".split()))


def test_reduce_exponents():
    assert reduce_exponents(8, 6) == (4, 3)
    assert reduce_exponents(12, 4) == (3, 1)
    assert reduce_exponents(5, 7) == (5, 7)
    with pytest.raises(PeriodicityError):
        reduce_exponents(0, 3)


def test_bezout_pair():
    assert bezout_pair(4, 3) == (1, -1)
    assert bezout_pair(3, 4) == (3, -2)
    assert bezout_pair(1, 1) == (1, 0)
    for p, q in [(4, 3), (3, 4), (5, 8), (1, 1)]:
        u, v = bezout_pair(p, q)
        assert p * u + q * v == 1
        assert u >= 0 and v <= 0


def test_bezout_pair_needs_coprime():
    with pytest.raises(PeriodicityError):
        bezout_pair(4, 2)


def test_bezout_root_recovers_delta(g12):
    # rho = Delta^2 is a cube root and delta = Delta^3 a square root of
    # Delta^6; their Bezout combination must be Delta itself.
    root = bezout_root(g12, NormalForm(2, ()), NormalForm(3, ()), 3, 2, 6)
    assert root == NormalForm(1, ())


def test_bezout_root_recovers_eighth_root(g12):
    rho = stu(g12)
    root = bezout_root(g12, rho, NormalForm(3, ()), 8, 2, 6)
    assert root == rho


def test_bezout_root_g13(g13):
    rho = g13.normal_form(g13.presentation.word_from_tokens("a b c".split()))
    root = bezout_root(g13, rho, NormalForm(1, ()), 12, 4, 4)
    assert root == rho


def test_bezout_root_checks_powers(g12):
    with pytest.raises(PeriodicityError, match="rho"):
        bezout_root(g12, stu(g12), NormalForm(3, ()), 7, 2, 6)
    with pytest.raises(PeriodicityError, match="delta"):
        bezout_root(g12, stu(g12), NormalForm(3, ()), 8, 3, 6)


def test_bezout_root_checks_commutation(g12):
    rho = stu(g12)
    other = g12.normal_form(g12.presentation.word_from_tokens("u s t".split()))
    assert g12.power(other, 8) == NormalForm(6, ())
    assert g12.multiply(rho, other) != g12.multiply(other, rho)
    with pytest.raises(PeriodicityError, match="commute"):
        bezout_root(g12, rho, other, 8, 8, 6)


def test_candidate_root_orders(g12, g13):
    assert candidate_root_orders(g12, 6) == [1, 2, 3, 4, 6, 8, 12, 24]
    assert candidate_root_orders(g13, 4) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


def test_roots_report_requires_central_power(g12):
    with pytest.raises(PeriodicityError, match="not central"):
        roots_report(g12, 1, 2)


G12_EXISTS = {1: True, 2: True, 3: True, 4: True, 6: True, 8: True, 12: False, 24: False}
G13_EXISTS = {
    1: True, 2: True, 3: True, 4: True, 6: True, 9: False, 12: True, 18: False, 36: False,
}


def test_roots_existence_g12(g12):
    actual = {d: roots_report(g12, 6, d).exists for d in candidate_root_orders(g12, 6)}
    assert actual == G12_EXISTS


def test_roots_existence_g13(g13):
    actual = {d: roots_report(g13, 4, d).exists for d in candidate_root_orders(g13, 4)}
    assert actual == G13_EXISTS


def test_roots_conjugacy_g12(g12):
    report = roots_report(g12, 6, 8, with_centralizer=True)
    assert report.p_reduced == 4 and report.q_reduced == 3
    assert report.object_count == 3
    assert report.component_count == 1
    c = report.centralizer
    assert c is not None and c.cyclic and not c.inconclusive
    assert c.generator_count == 1 and c.relator_count == 0
    assert g12.format_normal_form(c.generator_collapse) == "s t u"


def test_roots_conjugacy_g13(g13):
    report = roots_report(g13, 4, 12, with_centralizer=True)
    assert report.p_reduced == 3 and report.q_reduced == 1
    assert report.component_count == 1
    c = report.centralizer
    assert c is not None and c.cyclic
    assert g13.format_normal_form(c.generator_collapse) == "a b c"


def test_roots_report_empty_case(g12):
    report = roots_report(g12, 6, 24, with_centralizer=True)
    assert not report.exists
    assert report.object_count == 0
    assert report.centralizer is None


def _searched_bezout_pair(p: int, q: int) -> tuple[int, int]:
    # The search bezout_pair replaced: smallest u >= 0 with v <= 0.
    for u in range(q + 1):
        v, rem = divmod(1 - p * u, q)
        if rem == 0 and v <= 0:
            return u, v
    raise AssertionError(f"no Bezout pair for ({p}, {q})")


def test_bezout_pair_matches_search():
    pairs = [
        (p, q) for p in range(1, 61) for q in range(1, 61) if math.gcd(p, q) == 1
    ]
    assert len(pairs) == 2203
    for p, q in pairs:
        assert bezout_pair(p, q) == _searched_bezout_pair(p, q), (p, q)


@pytest.mark.parametrize("p, q", [(1, 0), (0, 1), (2, -1), (-1, 2), (0, 0)])
def test_bezout_pair_needs_positive_exponents(p, q):
    message = rf"^exponents must be positive, got \({p}, {q}\)$"
    with pytest.raises(PeriodicityError, match=message):
        bezout_pair(p, q)


@pytest.mark.parametrize("source, zp_power", [("g12", 6), ("g13", 4), ("typeb3", 2)])
def test_roots_exist_from_the_divided_set(source, zp_power):
    # The scenario rows read D_p^q alone; roots_report builds C_p^q.
    from garside import bundled, scenarios

    g = bundled.get_structure(source)
    exists = scenarios._roots_exist(g.budget, source, zp_power)
    assert list(exists) == [str(d) for d in candidate_root_orders(g, zp_power)]
    for d, found in exists.items():
        assert found is roots_report(g, zp_power, int(d)).exists, d
