import copy
import random

import nf_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside import bundled
from garside.errors import GarsideError
from garside.monoid import IDENTITY_NF, NormalForm

STRUCTURES = ("g12", "g13", "typeb2", "typeb3")

# Generator and simple ids are reduced modulo the structure's counts.  The
# length is drawn first: plain st.lists keeps most examples under 16 letters.
letters = st.tuples(st.integers(min_value=0, max_value=1 << 16), st.sampled_from((1, -1)))


def _words(max_len):
    return st.integers(0, max_len).flatmap(
        lambda n: st.lists(letters, min_size=n, max_size=n)
    )


signed_words = _words(120)
short_signed_words = _words(24)


def _signed(g, raw):
    n = len(g.presentation.generators)
    return [(gi % n, sign) for gi, sign in raw]


def _random_signed(g, rng, length):
    n = len(g.presentation.generators)
    return [(rng.randrange(n), rng.choice((1, -1))) for _ in range(length)]


@pytest.mark.parametrize("gi", [3, 99, -1])
def test_out_of_range_generator_index_raises(g12, gi):
    # The range is checked once per word; the error still names the first
    # bad index, and a negative one is refused rather than read from the end.
    message = f"generator index {gi} is out of range"
    valid = [i % 3 for i in range(1000)]
    for word in ([gi], valid + [gi], valid + [gi, 7], valid + [gi, -5]):
        with pytest.raises(GarsideError, match=message):
            g12.normal_form(tuple(word))
        with pytest.raises(GarsideError, match=message):
            g12.normal_form_signed([(i, 1 - 2 * (i % 2)) for i in word])


@pytest.mark.parametrize("name", STRUCTURES)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(raw=signed_words)
def test_normal_forms_match_reference(name, raw):
    g = bundled.get_structure(name)
    letters = _signed(g, raw)
    assert g.normal_form_signed(letters) == ref.normal_form_signed(g, letters)
    word = [gi for gi, _ in letters]
    assert g.normal_form(word) == ref.normal_form(g, word)


@pytest.mark.parametrize("name", STRUCTURES)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(raw=short_signed_words)
def test_simple_products_match_reference(name, raw):
    # Arbitrary simples, the identity and Delta included, as collapse sends.
    g = bundled.get_structure(name)
    letters = [(s % len(g.simples), sign) for s, sign in raw]
    assert g.normal_form_simples(letters) == ref.normal_form_simples(g, letters)


@pytest.mark.parametrize("name", STRUCTURES)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(u=signed_words, v=signed_words)
def test_arithmetic_matches_reference(name, u, v):
    g = bundled.get_structure(name)
    x = g.normal_form_signed(_signed(g, u))
    y = g.normal_form_signed(_signed(g, v))
    assert g.multiply(x, y) == ref.multiply(g, x, y)
    assert g.invert(x) == ref.invert(g, x)
    assert g.power(x, -1) == ref.power(g, x, -1)
    assert g.power(y, 3) == ref.power(g, y, 3)


@pytest.mark.parametrize("name", STRUCTURES)
def test_long_signed_words_are_normal(name):
    g = bundled.get_structure(name)
    rng = random.Random(f"long:{name}")
    words = [_random_signed(g, rng, 1600) for _ in range(3)]
    a, b, c = (g.normal_form_signed(w) for w in words)
    for x, w in zip((a, b, c), words):
        assert not any(f in (g.identity, g.delta) for f in x.factors)
        assert all(g.left_weighted(f, h) for f, h in zip(x.factors, x.factors[1:]))
        assert g.nf_length(x) == sum(sign for _, sign in w)
        assert g.multiply(x, g.invert(x)) == IDENTITY_NF
        assert g.multiply(g.invert(x), x) == IDENTITY_NF
    assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))


def _random_positive(g, rng, length):
    n = len(g.presentation.generators)
    return [(rng.randrange(n), 1) for _ in range(length)]


def _inverse_word(letters):
    return [(s, -sign) for s, sign in reversed(letters)]


@pytest.mark.parametrize("name", STRUCTURES)
@pytest.mark.parametrize("length", [800, 3200])
def test_long_words_match_sweep_reference(name, length):
    # g12 is the one structure with phi of order > 1, so the only one where
    # a Delta carry relabels the factors the sweep passed.
    g = bundled.get_structure(name)
    rng = random.Random(f"sweep:{name}:{length}")
    signed = _random_signed(g, rng, length)
    positive = _random_positive(g, rng, length)
    x = g.normal_form_signed(signed)
    y = g.normal_form_signed(positive)
    atoms = [(g.generator_atoms[gi], sign) for gi, sign in signed]
    assert x == ref.sweep_normal_form_simples(g, atoms)
    assert y == ref.sweep_normal_form_simples(
        g, [(g.generator_atoms[gi], 1) for gi, _ in positive]
    )
    assert g.normal_form([gi for gi, _ in positive]) == y
    assert g.invert(x) == ref.sweep_normal_form_simples(g, _inverse_word(atoms))
    assert g.multiply(x, y) == ref.sweep_multiply(g, x, y)
    assert g.multiply(y, x) == ref.sweep_multiply(g, y, x)
    assert g.power(x, 3) == ref.sweep_multiply(g, ref.sweep_multiply(g, x, x), x)
    y_inv = g.invert(y)
    assert g.power(y, -2) == ref.sweep_multiply(g, y_inv, y_inv)
    # x . Delta^(phi order) . x^-1 is central; x and y are not.
    z = g.multiply(g.multiply(x, NormalForm(g.phi_order, ())), g.invert(x))
    assert z == NormalForm(g.phi_order, ())
    for w in (x, y, z):
        assert g.is_central(w) == ref.sweep_is_central(g, w)
    assert g.is_central(z) and not g.is_central(y)


@pytest.mark.parametrize("name", STRUCTURES)
def test_simple_letters_match_sweep_reference(name):
    # Arbitrary simples, the identity and positive Deltas among them, and
    # runs of atoms that fold into Delta: a word of Delta read forwards, or
    # backwards with every letter inverted, which is Delta^-1.
    g = bundled.get_structure(name)
    rng = random.Random(f"simples:{name}")
    delta_atoms = [g.generator_atoms[gi] for gi in g.presentation.delta_word]
    pieces = [
        [(g.delta, 1)],
        [(g.identity, rng.choice((1, -1)))],
        [(a, 1) for a in delta_atoms],
        [(a, -1) for a in reversed(delta_atoms)],
    ]
    for _ in range(40):
        letters = []
        while len(letters) < 800:
            if rng.random() < 0.3:
                letters += rng.choice(pieces)
            else:
                letters.append((rng.randrange(len(g.simples)), rng.choice((1, -1))))
        x = g.normal_form_simples(letters)
        assert x == ref.sweep_normal_form_simples(g, letters)
        assert g.invert(x) == ref.sweep_normal_form_simples(g, _inverse_word(letters))
    assert g.normal_form_simples([(a, 1) for a in delta_atoms]) == NormalForm(1, ())
    assert g.normal_form_simples(pieces[3] * 3) == NormalForm(-3, ())


@pytest.mark.parametrize("name", STRUCTURES)
def test_short_and_edge_words_match_reference(name):
    # The empty word, every single letter, words whose last run is inverse,
    # and products of simples among which the identity and Delta are common.
    g = bundled.get_structure(name)
    n, count = len(g.presentation.generators), len(g.simples)
    assert g.normal_form(()) == g.normal_form_signed([]) == IDENTITY_NF
    assert g.normal_form_simples([]) == IDENTITY_NF
    for gi in range(n):
        assert g.normal_form((gi,)) == ref.normal_form(g, (gi,))
        for sign in (1, -1):
            assert g.normal_form_signed([(gi, sign)]) == ref.normal_form_signed(g, [(gi, sign)])
    for s in range(count):
        for sign in (1, -1):
            assert g.normal_form_simples([(s, sign)]) == ref.normal_form_simples(g, [(s, sign)])
    rng = random.Random(f"edges:{name}")
    for _ in range(30):
        tail = [(rng.randrange(n), -1) for _ in range(rng.randrange(1, 6))]
        word = _random_signed(g, rng, rng.randrange(30)) + tail
        assert g.normal_form_signed(word) == ref.normal_form_signed(g, word)
        letters = [
            (rng.choice((g.identity, g.delta, rng.randrange(count))), rng.choice((1, -1)))
            for _ in range(rng.randrange(1, 20))
        ]
        assert g.normal_form_simples(letters) == ref.normal_form_simples(g, letters)


def test_long_g12_words_take_every_twist():
    # phi has order 3 on g12, so the untwist at the end of a sweep is
    # phi^(p mod 3); words with Delta runs of either sign, each ending in an
    # inverse run, reach every residue.
    g = bundled.get_structure("g12")
    rng = random.Random("twist-words:g12")
    delta_word = g.presentation.delta_word
    twists = set()
    for k in range(9):
        letters = []
        while len(letters) < 1500:
            if rng.random() < 0.2:
                sign = rng.choice((1, -1))
                letters += [(gi, sign) for gi in (delta_word if sign > 0 else delta_word[::-1])]
            else:
                letters.append((rng.randrange(3), rng.choice((1, -1))))
        letters += [(rng.randrange(3), -1) for _ in range(k % 3 + 1)]
        x = g.normal_form_signed(letters)
        atoms = [(g.generator_atoms[gi], sign) for gi, sign in letters]
        assert x == ref.sweep_normal_form_simples(g, atoms)
        assert g.normal_form_simples(atoms) == x
        twists.add(x.delta_power % g.phi_order)
    assert g.phi_order == 3 and twists == {0, 1, 2}


class _CountingRow(list):
    """A row of the splitting table that counts its lookups."""

    lookups = 0

    def __getitem__(self, b):
        _CountingRow.lookups += 1
        return list.__getitem__(self, b)


def _split_lookups(g, letters):
    counted = copy.copy(g)
    counted.split = [_CountingRow(row) for row in g.split]
    _CountingRow.lookups = 0
    counted.normal_form_signed(letters)
    return _CountingRow.lookups


@pytest.mark.parametrize("name", ["g12", "g13", "typeb3"])
def test_signed_words_cost_linear_splitting_lookups(name):
    # A quadratic sweep costs 160-210 lookups a letter at 3,200 letters, and
    # 17 times its count at 800 letters.
    g = bundled.get_structure(name)
    counts = {
        length: _split_lookups(
            g, _random_signed(g, random.Random(f"work:{name}:{length}"), length)
        )
        for length in (800, 3200)
    }
    assert counts[3200] <= 4 * 3200
    assert counts[3200] <= 5 * counts[800]


def test_normal_form_hashes_as_its_fields():
    nf = NormalForm(2, (1, 3))
    assert hash(nf) == hash((2, (1, 3)))
    assert nf == NormalForm(2, (1, 3)) != NormalForm(2, (3, 1))
    assert (nf.delta_power, nf.factors) == (2, (1, 3))
    assert IDENTITY_NF == NormalForm(0, ())


@pytest.mark.parametrize("name", STRUCTURES)
def test_power_squares_only_below_the_top_bit(name):
    g = bundled.get_structure(name)
    counted, calls = copy.copy(g), []  # True for a squaring

    def multiply(x, y):
        calls.append(x is y)
        return g.multiply(x, y)

    counted.multiply = multiply
    x = g.normal_form_signed(_random_signed(g, random.Random(f"power:{name}"), 40))
    for k in range(1, 41):
        calls.clear()
        assert counted.power(x, k) == g.power(x, k)
        squarings = calls.count(True)
        assert (squarings, len(calls) - squarings) == (
            k.bit_length() - 1,
            bin(k).count("1") - 1,
        )
    calls.clear()
    assert counted.power(x, 0) == IDENTITY_NF and calls == []


@pytest.mark.parametrize("name", STRUCTURES)
def test_powers_match_reference(name):
    g = bundled.get_structure(name)
    rng = random.Random(f"powers:{name}")
    for _ in range(3):
        x = g.normal_form_signed(_random_signed(g, rng, 12))
        for k in range(-8, 9):
            assert g.power(x, k) == ref.power(g, x, k)


@pytest.mark.parametrize("name", ["g12", "g13"])
def test_products_with_twisting_delta_powers_match_references(name):
    # y's Delta power q twists x's factors by phi^q; on g12 (phi of order 3)
    # q = 1, 2, 4, -1, -2, -4 are the powers that move them.
    g = bundled.get_structure(name)
    rng = random.Random(f"twist:{name}")
    for length, reference in ((12, ref.multiply), (600, ref.sweep_multiply)):
        x = g.normal_form_signed(_random_signed(g, rng, length))
        y = g.normal_form_signed(_random_signed(g, rng, length))
        for q in range(-4, 5):
            y_q = NormalForm(q, y.factors)
            assert g.multiply(x, y_q) == reference(g, x, y_q)
            assert g.multiply(y_q, x) == reference(g, y_q, x)


@pytest.mark.parametrize("name", STRUCTURES)
def test_delta_carried_in_the_middle_matches_references(name):
    # Appending a simple s with comp(f_n) <= s makes Delta at once at the
    # last place of a long factor list, passing the suffix d = comp(f_n)\s;
    # appending e with f_n . e = lcm(f_n, comp(f_n-1)) != Delta makes it one
    # place further left.  Either way the prefix is left as it is, and the
    # result is Delta . phi(prefix) . d.
    g = bundled.get_structure(name)
    rng = random.Random(f"middle:{name}")
    comp, mask = g.left_complement, g.left_div_mask
    inverse_comp = {c: s for s, c in enumerate(comp)}
    cases = deep = 0
    for _ in range(6):
        n = len(g.presentation.generators)
        fs = g.normal_form([rng.randrange(n) for _ in range(300)]).factors
        x = NormalForm(0, fs)
        appends = [
            (s, len(fs) - 1) for s in range(len(g.simples))
            if s != g.delta and mask[s] >> comp[fs[-1]] & 1
        ]
        common = [
            c for c in range(len(g.simples))
            if mask[c] >> fs[-1] & 1 and mask[c] >> comp[fs[-2]] & 1
        ]
        lcm = min(common, key=g.simple_length)
        if lcm != g.delta:
            appends.append((g.residual_left[fs[-1]][lcm], len(fs) - 2))
            deep += 1
        for s, place in appends:
            b = s if place == len(fs) - 1 else g.product_table[fs[-1]][s]
            d = g.residual_left[comp[fs[place]]][b]
            prefix = tuple(g.phi_simple(f) for f in fs[:place])
            expected = NormalForm(1, prefix + ((d,) if d else ()))
            y = NormalForm(0, (s,))
            assert g.multiply(x, y) == ref.sweep_multiply(g, x, y) == expected
            letters = [(f, 1) for f in fs]
            tail = [(rng.randrange(len(g.simples)), rng.choice((1, -1))) for _ in range(200)]
            for run in ([(s, 1)], [(inverse_comp[s], -1)]):
                for rest in ([], tail):
                    word = letters + run + rest
                    assert g.normal_form_simples(word) == ref.sweep_normal_form_simples(g, word)
            cases += 1
    assert cases >= 6
    assert deep > 0 or name in ("g12", "typeb2")
