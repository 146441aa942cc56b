"""Reference normal-form arithmetic for differential tests.

The original implementation: bubble passes over adjacent pairs until none
changes, a signed word multiplied letter by letter with each inverse built
as a product of twisted complements.  It is cubic in the word length, so
tests run it on short words only.
"""

from garside.monoid import IDENTITY_NF, GarsideStructure, NormalForm


def normalize_simple_seq(g: GarsideStructure, seq: list[int]) -> tuple[int, tuple[int, ...]]:
    """Left-weight a sequence of simples; return (delta count, proper rest)."""
    factors = [f for f in seq if f != g.identity]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            c, d = g.product_decomp_table[factors[i]][factors[i + 1]]
            if (c, d) != (factors[i], factors[i + 1]):
                factors[i], factors[i + 1] = c, d
                changed = True
        if changed:
            factors = [f for f in factors if f != g.identity]
    k = 0
    while k < len(factors) and factors[k] == g.delta:
        k += 1
    return k, tuple(factors[k:])


def multiply(g: GarsideStructure, x: NormalForm, y: NormalForm) -> NormalForm:
    perm = g.phi_power_perm(y.delta_power)
    seq = [perm[f] for f in x.factors] + list(y.factors)
    k, factors = normalize_simple_seq(g, seq)
    return NormalForm(x.delta_power + y.delta_power + k, factors)


def invert(g: GarsideStructure, x: NormalForm) -> NormalForm:
    inv_phi = g.phi_power_perm(-1)
    out = IDENTITY_NF
    for f in reversed(x.factors):
        out = multiply(g, out, NormalForm(-1, (inv_phi[g.left_complement[f]],)))
    return multiply(g, out, NormalForm(-x.delta_power, ()))


def power(g: GarsideStructure, x: NormalForm, k: int) -> NormalForm:
    if k < 0:
        return power(g, invert(g, x), -k)
    out = IDENTITY_NF
    for _ in range(k):
        out = multiply(g, out, x)
    return out


def simple_nf(g: GarsideStructure, s: int) -> NormalForm:
    if s == g.delta:
        return NormalForm(1, ())
    return NormalForm(0, (s,) if s != g.identity else ())


def normal_form_simples(g: GarsideStructure, letters: list[tuple[int, int]]) -> NormalForm:
    """Signed product of simples, one multiply (and invert) per letter."""
    out = IDENTITY_NF
    for s, sign in letters:
        nf = simple_nf(g, s)
        out = multiply(g, out, nf if sign > 0 else invert(g, nf))
    return out


def atom(g: GarsideStructure, gi: int) -> int:
    return g.generator_atoms[gi]


def normal_form(g: GarsideStructure, word) -> NormalForm:
    k, factors = normalize_simple_seq(g, [atom(g, gi) for gi in word])
    return NormalForm(k, factors)


def normal_form_signed(g: GarsideStructure, letters: list[tuple[int, int]]) -> NormalForm:
    return normal_form_simples(g, [(atom(g, gi), sign) for gi, sign in letters])
