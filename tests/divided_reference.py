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

`build_category` is the original assembly of C_p^q over the package's
divided sets: each two-simple product is looked up as a word of the first
simple followed by a word of the second, and each part of a triple is
tested for being an identity after it is built.
"""

import itertools
import math

from garside.divided import (
    DividedCategory,
    Morphism,
    divided_set as _divided_set,
)
from congruence_reference import word_lookup
from garside.monoid import GarsideStructure


def twisted_shift(g: GarsideStructure, t: tuple[int, ...]) -> tuple[int, ...]:
    """sigma(a_1, ..., a_m) = (a_2, ..., a_m, phi(a_1))."""
    return t[1:] + (g.phi_simple(t[0]),)


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
            if word_lookup(g)(word) == g.delta:
                out.append(tuple(entries))
    out.sort()
    return out


def _word_product(g: GarsideStructure, a: int, b: int) -> int | None:
    return word_lookup(g)(g.simples[a] + g.simples[b])


def _is_identity_tuple(t: tuple[int, ...]) -> bool:
    return all(t[i] == 0 for i in range(0, len(t), 2))


def _endpoints(
    g: GarsideStructure, t: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    p = len(t) // 2
    source = []
    target = []
    for k in range(p):
        source.append(_word_product(g, t[2 * k], t[2 * k + 1]))
        right = t[2 * k + 2] if k < p - 1 else g.phi_simple(t[0])
        target.append(_word_product(g, t[2 * k + 1], right))
    assert None not in source and None not in target, "non-simple endpoint block"
    return tuple(source), tuple(target)


def _triple_parts(
    g: GarsideStructure, u: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    p = len(u) // 3
    f: list[int] = []
    h: list[int] = []
    gg: list[int] = []
    for k in range(p):
        f += [u[3 * k], _word_product(g, u[3 * k + 1], u[3 * k + 2])]
        nxt = u[3 * k + 3] if k < p - 1 else g.phi_simple(u[0])
        gg += [u[3 * k + 1], _word_product(g, u[3 * k + 2], nxt)]
        h += [_word_product(g, u[3 * k], u[3 * k + 1]), u[3 * k + 2]]
    parts = (tuple(f), tuple(gg), tuple(h))
    assert all(None not in part for part in parts), "non-simple relation block"
    return parts


def build_category(g: GarsideStructure, p: int, q: int) -> DividedCategory:
    """Assemble C_p^q: objects, generating morphisms, induced relations."""
    if p < 1 or q < 0:
        raise ValueError("need p >= 1 and q >= 0")
    objects = _divided_set(g, p, q)
    obj_index = {t: i for i, t in enumerate(objects)}

    raw = _divided_set(g, 2 * p, 2 * q)
    morphisms: list[Morphism] = []
    mor_index: dict[tuple[int, ...], int] = {}
    identity_tuples: dict[int, tuple[int, ...]] = {}
    for t in raw:
        src_t, tgt_t = _endpoints(g, t)
        assert src_t in obj_index and tgt_t in obj_index, "dangling endpoint"
        if _is_identity_tuple(t):
            oid = obj_index[src_t]
            assert src_t == tgt_t and t[1::2] == objects[oid]
            identity_tuples[oid] = t
        else:
            mor_index[t] = len(morphisms)
            morphisms.append(Morphism(t, obj_index[src_t], obj_index[tgt_t]))
    assert set(identity_tuples) == set(range(len(objects)))

    triples: list[tuple[int, int, int]] = []
    for u in _divided_set(g, 3 * p, 3 * q):
        f_t, g_t, h_t = _triple_parts(g, u)
        ids = [_is_identity_tuple(t) for t in (f_t, g_t, h_t)]
        if any(ids):
            # Identity-involving relations carry no content; prove it.
            if ids[2]:
                assert ids[0] and ids[1] and f_t == g_t == h_t
            elif ids[0]:
                assert g_t == h_t
            else:
                assert f_t == h_t
            continue
        fid, gid, hid = (mor_index[t] for t in (f_t, g_t, h_t))
        assert morphisms[fid].target == morphisms[gid].source
        assert morphisms[fid].source == morphisms[hid].source
        assert morphisms[gid].target == morphisms[hid].target
        triples.append((fid, gid, hid))

    eliminated: dict[int, tuple[int, int]] = {}
    for fid, gid, hid in triples:
        if (
            morphisms[hid].is_endo()
            and hid not in eliminated
            and not morphisms[fid].is_endo()
            and not morphisms[gid].is_endo()
        ):
            eliminated[hid] = (fid, gid)

    def expand(mid: int) -> list[int]:
        return list(eliminated[mid]) if mid in eliminated else [mid]

    relations: list[tuple[list[int], list[int]]] = []
    for fid, gid, hid in triples:
        if eliminated.get(hid) == (fid, gid):
            continue
        relations.append((expand(fid) + expand(gid), expand(hid)))

    return DividedCategory(
        g, p, q, objects, morphisms, identity_tuples, triples, eliminated, relations
    )
