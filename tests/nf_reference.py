"""Reference normal-form arithmetic for differential tests.

The original implementation: bubble passes over adjacent pairs until none
changes, a signed word multiplied letter by letter with each inverse built
as a product of twisted complements.  It is cubic in the word length, so
tests run it on short words only.

The sweep_* functions are the linear-sweep normal forms that replaced it:
one right-to-left sweep per letter, with no folding of letter runs and a
Delta carried all the way to the front of the factors.  They are quadratic
in the word length, fast enough for words of a few thousand letters.
"""

from garside.monoid import IDENTITY_NF, GarsideStructure, NormalForm


def product_decomp(g: GarsideStructure, a: int, b: int) -> tuple[int, int]:
    """The left-weighted pair (c, d) with c * d = a * b."""
    e = g.split[a][b]
    return g.product_table[a][e], g.residual_left[e][b]


def normalize_simple_seq(g: GarsideStructure, seq: list[int]) -> tuple[int, tuple[int, ...]]:
    """Left-weight a sequence of simples; return (delta count, proper rest)."""
    factors = [f for f in seq if f != g.identity]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            c, d = product_decomp(g, factors[i], factors[i + 1])
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


def sweep_right_multiply(g: GarsideStructure, factors: list[int], s: int) -> int:
    """Right-multiply left-weighted proper factors by the simple s in place.

    One right-to-left sweep re-splits each pair (f_i, f_i+1) into
    (f_i . e, d) with e = gcd(comp(f_i), f_i+1) and e . d = f_i+1, and
    stops at the first pair with e = 1, already left-weighted; the result
    is left-weighted, with any Deltas at the front and identities at the
    back.  Those identities are dropped and the Deltas removed; returns
    their count.
    """
    split = g.split
    product = g.product_table
    residual = g.residual_left
    i = len(factors)
    factors.append(s)
    b = s  # the right member of the pair at i, carried from the last step
    while i:
        i -= 1
        a = factors[i]
        e = split[a][b]
        if not e:  # e = 1 (simple 0): the pair is left-weighted
            break
        factors[i + 1] = residual[e][b]
        b = factors[i] = product[a][e]
    while factors and not factors[-1]:
        factors.pop()
    k = 0
    while k < len(factors) and factors[k] == g.delta:
        k += 1
    if k:
        del factors[:k]
    return k


def sweep_normal_form_simples(g: GarsideStructure, letters: list[tuple[int, int]]) -> NormalForm:
    """Normal form of a product of simples given as (simple id, +-1) pairs.

    The running value is Delta^p . phi^t(factors).  A positive letter s
    appends phi^-t(s); a negative one appends phi^-t of its complement
    and lowers p and t by one, since y . s^-1 = Delta^-1 . phi^-1(y . ds).
    """
    comp = g.left_complement
    order = g.phi_order
    factors: list[int] = []
    p = t = 0
    perm = g.phi_power_perm(0)  # phi^-t
    for s, sign in letters:
        if sign > 0:
            p += sweep_right_multiply(g, factors, perm[s])
        else:
            p += sweep_right_multiply(g, factors, perm[comp[s]]) - 1
            t = (t - 1) % order
            perm = g.phi_power_perm(-t)
    perm = g.phi_power_perm(t)
    return NormalForm(p, tuple(perm[f] for f in factors))


def sweep_multiply(g: GarsideStructure, x: NormalForm, y: NormalForm) -> NormalForm:
    """x . y = Delta^(p+q) . phi^q(x's factors) . y's factors, q = y's power."""
    perm = g.phi_power_perm(y.delta_power)
    factors = [perm[f] for f in x.factors]
    k = x.delta_power + y.delta_power
    for f in y.factors:
        k += sweep_right_multiply(g, factors, f)
    return NormalForm(k, tuple(factors))


def sweep_is_central(g: GarsideStructure, x: NormalForm) -> bool:
    for a in g.atoms:
        nf = sweep_normal_form_simples(g, [(a, 1)])
        if sweep_multiply(g, x, nf) != sweep_multiply(g, nf, x):
            return False
    return True
