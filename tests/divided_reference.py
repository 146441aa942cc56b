"""Reference divided-set enumerations for differential tests.

`divided_set` is the original filter: every combination of entry lengths
that splits length(Delta)*gcd(m, n)/m over the gcd(m, n) free entries,
every choice of phi^(n/gcd)-fixed simples of those lengths, the other
entries filled in along the index-shift orbits, and the product looked up
as a word.  Its cost grows with the number of length combinations, so tests
run it where gcd(m, n) is small.

`decompositions` is the original recursion over left divisors of the
running residual, and `sigma_fixed` filters its output by applying the
twisted shift n times: the definition of D_m^n, with no orbit reasoning.
"""

import itertools
import math

from garside.divided import twisted_shift
from garside.monoid import GarsideStructure


def decompositions(g: GarsideStructure, m: int) -> list[tuple[int, ...]]:
    """All m-tuples of simples with ordered product Delta, in lex id order."""
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def rec(x: int, remaining: int) -> None:
        if remaining == 1:
            out.append(tuple(prefix) + (x,))
            return
        mask = g.left_div_mask[x]
        while mask:
            low = mask & -mask
            a = low.bit_length() - 1
            mask ^= low
            prefix.append(a)
            rec(g.residual_left[a][x], remaining - 1)
            prefix.pop()

    rec(g.delta, m)
    return out


def sigma_fixed(g: GarsideStructure, m: int, n: int) -> list[tuple[int, ...]]:
    """Decompositions of Delta into m simples fixed by the n-th twisted shift."""
    out = []
    for t in decompositions(g, m):
        cur = t
        for _ in range(n):
            cur = twisted_shift(g, cur)
        if cur == t:
            out.append(t)
    return out


def divided_set(g: GarsideStructure, m: int, n: int) -> list[tuple[int, ...]]:
    """D_m^n for n >= 1 by filtering length combinations of free entries."""
    cycles = math.gcd(m, n)
    free_length, rem = divmod(g.delta_length * cycles, m)
    if rem:
        return []
    twist = n // cycles
    fixed = g.phi_fixed_simples(twist)
    by_len: dict[int, list[int]] = {}
    for a in fixed:
        by_len.setdefault(g.simple_length(a), []).append(a)

    out: list[tuple[int, ...]] = []
    lengths = sorted(by_len)
    for combo in itertools.product(lengths, repeat=cycles):
        if sum(combo) != free_length:
            continue
        for reps in itertools.product(*(by_len[le] for le in combo)):
            entries = [0] * m
            for base in range(cycles):
                entries[base] = reps[base]
                i = base
                while True:
                    j = (i + n) % m
                    if j == base:
                        break
                    # t_i = phi^{e_i}(t_j) with e_i = (i+n) // m
                    entries[j] = g.phi_simple(entries[i], -((i + n) // m))
                    i = j
            word = sum((g.simples[a] for a in entries), ())
            if g.simple_of_word(word) == g.delta:
                out.append(tuple(entries))
    out.sort()
    return out
