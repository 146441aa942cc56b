import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import build_reference
from congruence_reference import word_lookup
from garside import bundled
from garside.errors import AxiomViolation
from garside.monoid import (
    IDENTITY_NF,
    NormalForm,
    _bound_table,
    build_garside,
    verify_presentation,
)
from garside.presentation import (
    CongruenceTable,
    congruence_classes,
    parse_presentation,
)
from garside.typeb import typeb_presentation
from lattice_reference import bound_table


def test_verify_g12(g12):
    report = verify_presentation(g12.presentation)
    assert report["axioms"] == {"balanced": True, "lattice": True, "phi": True}
    assert report["simple_count"] == 11
    assert report["phi_order"] == 3
    assert report["witnesses"] == []


def test_verify_unbalanced():
    p = parse_presentation("gens: s t\ndelta: s t\n")
    report = verify_presentation(p)
    assert report["axioms"]["balanced"] is False
    assert report["axioms"]["lattice"] is None
    assert report["witnesses"]
    with pytest.raises(AxiomViolation) as exc:
        build_garside(p)
    assert exc.value.kind == "balanced"


def test_simple_counts(g12, g13, b2, b3):
    assert len(g12.simples) == 11
    assert len(g13.simples) == 90
    assert len(b2.simples) == 8
    assert len(b3.simples) == 48


def test_g13_length_profile(g13):
    profile = [0] * (g13.delta_length + 1)
    for i in range(len(g13.simples)):
        profile[g13.simple_length(i)] += 1
    assert profile == [1, 3, 8, 14, 19, 19, 14, 8, 3, 1]
    assert profile == profile[::-1]


def test_simples_divide_delta(g12):
    for a in range(len(g12.simples)):
        assert g12.left_divides(a, g12.delta)
        assert any(g12.simple_product(c, a) == g12.delta for c in range(len(g12.simples)))


def test_phi_cycles_atoms(g12):
    names = [g12.render_simple(g12.phi_simple(a)) for a in g12.atoms]
    assert names == ["t", "u", "s"]
    assert g12.phi_order == 3
    assert g12.phi_simple(g12.delta) == g12.delta


def test_phi_order_trivial(g13, b2, b3):
    assert g13.phi_order == 1
    assert b2.phi_order == 1
    assert b3.phi_order == 1


def test_phi_twist_matches_oracle(g12):
    # phi is the defining symmetry: x delta and delta phi(x) name the same
    # element.  Check this against the raw congruence, not the tables that
    # were built from it, for every simple.
    p = g12.presentation
    table = congruence_classes(p, 2 * g12.delta_length)
    delta_word = p.delta_word
    for i, word in enumerate(g12.simples):
        twisted = g12.simples[g12.phi_simple(i)]
        assert table.rep(word + delta_word) == table.rep(delta_word + twisted)


def test_phi_twist_matches_oracle_typeb(b2):
    p = b2.presentation
    table = congruence_classes(p, 2 * b2.delta_length)
    for i, word in enumerate(b2.simples):
        twisted = b2.simples[b2.phi_simple(i)]
        assert table.rep(word + p.delta_word) == table.rep(p.delta_word + twisted)


def test_lattice_operations(g12, g13, b2, b3):
    # On both sides, the meet is the greatest common divisor (every common
    # divisor divides it) and the join the least common multiple (it divides
    # every common multiple).  Divisibility is read from the product table,
    # not from the masks the build derives.  The build makes only the left
    # gcd table; the other three come from the reference build.
    typeb = [build_garside(typeb_presentation(rank)) for rank in (1, 2, 3)]
    for g in [g12, g13, b2, b3, *typeb]:
        n = len(g.simples)
        for kind in ("left", "right"):
            divisors = [0] * n  # bit x of divisors[y]: x divides y
            multiples = [0] * n  # bit y of multiples[x]: x divides y
            for x in range(n):
                for c in range(n):
                    y = g.simple_product(*((x, c) if kind == "left" else (c, x)))
                    if y is not None:
                        divisors[y] |= 1 << x
                        multiples[x] |= 1 << y
            if kind == "left":
                gcd = _bound_table(g, divisors)
            else:
                gcd = build_reference._bound_table(g, divisors, kind, lower=True)
            lcm = build_reference._bound_table(g, multiples, kind, lower=False)
            for a in range(n):
                for b in range(n):
                    common = divisors[a] & divisors[b]
                    meet = gcd[a][b]
                    assert common >> meet & 1 and common & ~divisors[meet] == 0
                    common = multiples[a] & multiples[b]
                    join = lcm[a][b]
                    assert common >> join & 1 and common & ~multiples[join] == 0
                assert gcd[a][g.delta] == a
                assert lcm[a][g.identity] == a


def test_product_decomp_is_left_weighted(g12):
    for a in range(len(g12.simples)):
        for b in range(len(g12.simples)):
            c, d = g12.product_decomp(a, b)
            assert g12.left_weighted(c, d)
            assert g12.simple_length(c) + g12.simple_length(d) == (
                g12.simple_length(a) + g12.simple_length(b)
            )


@pytest.fixture(scope="module", params=["g12", "g13", "b2", "b3", 1, 2, 3])
def any_structure(request):
    if isinstance(request.param, int):
        return build_garside(typeb_presentation(request.param))
    return request.getfixturevalue(request.param)


def test_product_table_matches_word_lookup(any_structure):
    g = any_structure
    lookup = word_lookup(g)
    n = len(g.simples)
    for a in range(n):
        for b in range(n):
            assert g.simple_product(a, b) == lookup(g.simples[a] + g.simples[b]), (a, b)


@pytest.mark.parametrize("name", ("g12", "g13", "typeb2", "typeb3"))
def test_structure_keeps_no_words(name):
    # The oracle and the word -> simple map are locals of the build; the
    # structure keeps one word per simple and its tables.
    # Nor does it keep a table whose rows hold tuples: a pair per entry of an
    # n x n table is derived when read.
    for value in vars(bundled.get_structure(name)).values():
        assert not isinstance(value, CongruenceTable)
        if isinstance(value, dict):
            assert not any(isinstance(key, tuple) for key in value)
        if isinstance(value, (list, tuple)):
            for row in value:
                if isinstance(row, (list, tuple)):
                    assert not any(isinstance(x, tuple) for x in row)


@pytest.mark.parametrize("name, limit_kib", [("g13", 400), ("typeb3", 130)])
def test_built_structure_holds_small_tables(name, limit_kib):
    # What a built structure holds once the oracle and the word map of its
    # build are collected: n x n tables of small ints.  The bounds sit
    # between what those tables take (about 225 and 75 KiB) and what one
    # stored pair per entry would add to them.
    p = bundled.load_presentation(name)
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = build_garside(p)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert g.simples
    assert held < limit_kib * 1024, held // 1024


@pytest.mark.parametrize("name", ("g12", "g13", "typeb2", "typeb3"))
def test_split_is_gcd_of_complement(name):
    # split[a][b] = gcd(comp(a), b), against the candidate-scan gcd table.
    g = bundled.get_structure(name)
    gcd = bound_table(g, g.left_div_mask, "left", True)
    n = len(g.simples)
    for a in range(n):
        comp = g.left_complement[a]
        for b in range(n):
            assert g.split[a][b] == gcd[comp][b], (a, b)


def test_left_weighted_mask_matches_atom_loop(any_structure):
    g = any_structure
    n = len(g.simples)
    for a in range(n):
        comp = g.left_complement[a]
        for b in range(n):
            expected = not any(
                g.left_divides(x, comp) and g.left_divides(x, b) for x in g.atoms
            )
            assert g.left_weighted(a, b) == expected, (a, b)


def test_normal_form_examples(g12):
    p = g12.presentation
    nf = g12.normal_form(p.delta_word)
    assert nf == NormalForm(1, ())
    assert g12.format_normal_form(nf) == "delta"

    nf = g12.normal_form(p.word_from_tokens("s t".split()))
    assert nf.delta_power == 0
    assert g12.format_normal_form(nf) == "s t"

    nf = g12.normal_form(p.word_from_tokens("s t u s t u s t u s t u".split()))
    assert g12.format_normal_form(nf) == "delta^3"

    assert g12.format_normal_form(IDENTITY_NF) == "1"


def test_normal_form_factors_are_left_weighted(g12):
    p = g12.presentation
    nf = g12.normal_form(p.word_from_tokens("u u t s s t u u".split()))
    factors = (g12.delta,) + nf.factors
    for a, b in zip(factors, factors[1:]):
        assert g12.left_weighted(a, b)


def test_normal_form_signed_cancellation(g12):
    letters = [(0, 1), (0, -1), (1, 1)]
    nf = g12.normal_form_signed(letters)
    assert g12.format_normal_form(nf) == "t"


def test_invert_and_multiply(g12):
    p = g12.presentation
    x = g12.normal_form(p.word_from_tokens("s t u".split()))
    inv = g12.invert(x)
    assert g12.multiply(x, inv) == IDENTITY_NF
    assert g12.multiply(inv, x) == IDENTITY_NF
    assert g12.invert(IDENTITY_NF) == IDENTITY_NF


def test_power(g12):
    p = g12.presentation
    x = g12.normal_form(p.word_from_tokens("s t u".split()))
    assert g12.power(x, 0) == IDENTITY_NF
    assert g12.power(x, 4) == NormalForm(3, ())
    assert g12.power(x, 8) == NormalForm(6, ())
    assert g12.power(x, -4) == NormalForm(-3, ())
    assert g12.power(x, -1) == g12.invert(x)


def test_is_central(g12, g13):
    assert g12.is_central(NormalForm(3, ()))
    assert not g12.is_central(NormalForm(1, ()))
    assert not g12.is_central(NormalForm(2, ()))
    assert g13.is_central(NormalForm(1, ()))


def test_nf_length_is_letter_count(g12):
    p = g12.presentation
    word = p.word_from_tokens("s t u s t".split())
    assert g12.nf_length(g12.normal_form(word)) == 5
    assert g12.nf_length(NormalForm(-1, ())) == -4


words = st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=6)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(words, words)
def test_normal_form_is_multiplicative(g12, u, v):
    lhs = g12.normal_form(tuple(u) + tuple(v))
    rhs = g12.multiply(g12.normal_form(tuple(u)), g12.normal_form(tuple(v)))
    assert lhs == rhs


@settings(max_examples=40, derandomize=True, deadline=None)
@given(words, words, words)
def test_multiply_is_associative(g12, u, v, w):
    def nf(letters):
        # Alternate signs so negative delta powers get exercised too.
        signed = [(x, -1 if k % 3 == 2 else 1) for k, x in enumerate(letters)]
        return g12.normal_form_signed(signed)

    a, b, c = nf(u), nf(v), nf(w)
    assert g12.multiply(g12.multiply(a, b), c) == g12.multiply(a, g12.multiply(b, c))


@pytest.mark.parametrize(
    "text, witness",
    [
        (
            "gens: a b c\nrel: a b = a c\nrel: b a = c c\nrel: b a = a b\ndelta: c a b\n",
            "left residual of a in a b is not unique: b vs c",
        ),
        (
            "gens: a b c\nrel: c c = c b\nrel: a b = c b\nrel: c c = b a\ndelta: c c c c\n",
            "left residual of a in a a b is not unique: a b vs b b",
        ),
    ],
)
def test_verify_residual_clash_witness(text, witness):
    report = verify_presentation(parse_presentation(text))
    assert report["axioms"] == {"balanced": True, "lattice": False, "phi": None}
    assert report["witnesses"] == [witness]
