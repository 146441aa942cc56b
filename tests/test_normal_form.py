import random

import nf_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside import bundled
from garside.errors import GarsideError
from garside.monoid import IDENTITY_NF, NormalForm

STRUCTURES = ("g12", "g13", "typeb3")

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
    with pytest.raises(GarsideError, match="out of range"):
        g12.normal_form((gi,))
    with pytest.raises(GarsideError, match="out of range"):
        g12.normal_form_signed([(gi, 1)])


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


def test_normal_form_hashes_as_its_fields():
    nf = NormalForm(2, (1, 3))
    assert hash(nf) == hash((2, (1, 3)))
    assert nf == NormalForm(2, (1, 3)) != NormalForm(2, (3, 1))
    assert (nf.delta_power, nf.factors) == (2, (1, 3))
    assert IDENTITY_NF == NormalForm(0, ())
