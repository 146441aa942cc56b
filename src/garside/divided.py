"""Divided sets D_m^n, the categories C_p^q, and vertex-group extraction.

D_m^n is the set of m-tuples of simples with ordered product Delta, fixed by
the n-th power of the twisted shift sigma(a_1,...,a_m) = (a_2,...,a_m,
phi(a_1)).  With c = gcd(m,n), the index shift i -> (i+n) mod m moves blocks
of c entries whole, as c divides m and n: block j of a fixed tuple is
phi^(e_j) of block 0, the e_j read off the orbit of index 0.  So block 0
multiplies to an end b, a phi^(n/c)-fixed simple of length length(Delta)*c/m
with b phi^(e_1)(b) ... phi^(e_(m/c-1))(b) = Delta, and its entries are
phi^(n/c)-fixed.  One depth-first walk enumerates D_m^n: for each end in
ascending id it picks each entry of block 0, in ascending id, among the
phi^(n/c)-fixed left divisors of the part of the end still left (the running
residual), and the last entry is the residual itself.  The choices (a, a \\ x)
at a residual x are split from its bitmask once per walk, and the walk emits
the last two entries for all of x's choices at once.  Its work follows the
tuples kept and the prefixes cut.  Each kept block 0 is expanded by the
phi-powers of the other blocks, and runs of several ends are merged into lex
order by one sort.  The walk raises BudgetExceeded once it has kept more
tuples than the budget the structure was built under.  With n = 0 the only
end is Delta, and the walk lists all decompositions of Delta.

C_p^q has objects D_p^q, generating morphisms D_2p^2q, and relations induced
by D_3p^3q: each u = (a_1, b_1, c_1, ..., a_p, b_p, c_p) in D_3p^3q yields a
composable triple f;g = h with f = (a_k, b_k c_k)_k, g = (b_k, c_k a_k+1)_k
and h = (a_k b_k, c_k)_k, a_p+1 = phi(a_1).  D_3p^3q is never listed.
D_p^q, D_2p^2q and D_3p^3q share their ends, their block exponents and
their fixed simples, and a member of D_2p^2q is fixed by its block 0, so
one walk of u's block 0 (its 3c entries, c = gcd(p, q)), on the same setup
as the walk above, reads the ids of f, g and h as it goes: each part has a
cursor into one trie of the blocks 0 of D_2p^2q, and at each entry of u two
cursors step, f's on a_k and on b_k c_k, g's on b_k and on c_k a_k+1, h's
on a_k b_k and on c_k, each product read once per node of the walk.  The
entry after block 0 is phi^e(a_1), e the exponent of block 1.  The walk
handles a_c, b_c and the residual c_c in one node, where f's id is read
once per a_c.  Runs of several ends are merged into the lex order of u by
one sort on its block 0, read back from the three parts.  Tuples of the
interleaved form (1, x_1, 1, x_2, ...) are the object identities; they take
the ids after the morphisms', so a triple through an identity is recognised
by its ids and proved trivial.  Those triples are where the endpoints are
read, by the identity law: a member t = (b_k, c_k)_k of D_2p^2q is g and h
of exactly one triple whose f is an identity, u = (1, b_k, c_k)_k, and that
f is the identity of t's source (b_k c_k)_k; it is f and h of exactly one
triple whose g is an identity, u = (b_k, 1, c_k)_k, and that g is the
identity of t's target.  Then the triples through an identity are
dropped.  Every check (simple blocks, parts in D_2p^2q, the identity
equations, each endpoint named exactly once, each identity a loop at its
object, composability) compares whole id lists.  An endomorphism generator
defined by some triple (f, g, endo) with f, g proper non-endos is eliminated
and rewritten as that path, matching how such composites are usually named
rather than listed as generators; the first such triple in lex order
defines it.  Triples and relations keep the lex order of their 3p-tuples.
The assembly runs with the cycle collector paused: its many new lists,
tuples and trie nodes form no reference cycles, so reference counting frees
every one it drops, and the collections their count would set off could
free nothing.

Vertex groups come from the standard groupoid contraction: spanning tree,
one loop generator per non-tree edge, one relator per presented relation,
plus a Tietze pass whose stored images stay in the surviving generators, and
the collapse map to the Garside group (a path maps to the signed product of
first entries).
"""

from __future__ import annotations

import gc
import heapq
import math
import sys
from collections import deque, namedtuple
from itertools import compress, count
from operator import eq, not_, or_

from .errors import BudgetExceeded, GarsideError, NonComposablePath
from .monoid import GarsideStructure, NormalForm

Path = list[tuple[int, int]]  # (morphism id, +1 forward / -1 backward)
_TOO_MANY = "D_{}^{} has at least {} tuples"
_TOO_DEEP = "D_{}^{} is out of reach: its {} free entries nest past the recursion limit"


def decompositions(g: GarsideStructure, m: int) -> list[tuple[int, ...]]:
    """All m-tuples of simples with ordered product Delta, in lex id order."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return _walk(g, m, 0)


def divided_set(g: GarsideStructure, m: int, n: int) -> list[tuple[int, ...]]:
    """D_m^n: decompositions of Delta fixed by the n-th twisted shift, in lex order.

    Block 0, the first gcd(m, n) entries, decomposes an end of Delta into
    phi^(n/gcd)-fixed simples, and every other block is a phi-power of it.
    D_m^0 is decompositions(g, m).  A set with more tuples than g.budget
    raises BudgetExceeded, naming budget + 1, and one whose gcd(m, n) nested
    choices pass the recursion limit raises GarsideError.
    """
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    return _walk(g, m, n)


def _blocks(g: GarsideStructure, m: int, n: int) -> tuple:
    """What every walk of D_m^n shares: (cycles, perms, ends, choices, split).

    Block j of a member is perms[j - 1] of block 0, and the ends, in
    ascending id, are the products of block 0: none when no block length
    fits Delta.  choices[x] lists the choices (a, a \\ x) at a residual x
    once split(x) has split them from x's fixed left divisors; the identity
    is always one.  Raises GarsideError when the cycles free entries nest
    past the recursion limit.
    """
    cycles = math.gcd(m, n)
    blocks = m // cycles
    length, rem = divmod(g.delta_length, blocks)
    if rem:
        return cycles, [], [], None, None
    if cycles > sys.getrecursionlimit():
        # The identity fits every free entry, so a walk would nest that
        # deep; checked before anything of length m is allocated.
        raise GarsideError(_TOO_DEEP.format(m, n, cycles))
    # Block j is phi^exponent[j] of block 0.  sigma^n-fixedness reads
    # t_k = phi^(-((i+n)//m))(t_i) for k = (i+n) mod m; as cycles divides m
    # and n, a step moves blocks whole, and the orbit of 0 meets block j
    # once, at t*n mod m after t steps and floor(t*n/m) wraps.
    exponent = [0] * blocks
    for t in range(1, blocks):
        exponent[t * n % m // cycles] = -(t * n // m)
    perms = list(map(g.phi_power_perm, exponent[1:]))
    fixed = g.phi_fixed_simples(n // cycles)
    # An end b, the product of block 0, has b phi^e_1(b) ... = Delta.
    ends = []
    for b in fixed:
        if len(g.simples[b]) == length:
            y = b
            for perm in perms:
                y = g.product_table[y][perm[b]]
                if y is None:
                    break
            else:
                if y == g.delta:
                    ends.append(b)
    fixed_mask = sum(1 << a for a in fixed)
    choices: list[list[tuple[int, int]] | None] = [None] * len(g.simples)

    def split(x: int) -> list[tuple[int, int]]:
        kids = choices[x] = []
        mask = g.left_div_mask[x] & fixed_mask
        while mask:
            low = mask & -mask
            a = low.bit_length() - 1
            mask ^= low
            kids.append((a, g.residual_left[a][x]))
        return kids

    return cycles, perms, ends, choices, split


def _walk(g: GarsideStructure, m: int, n: int) -> list[tuple[int, ...]]:
    """Depth-first walk of D_m^n: block 0 under each end, then its phi-powers."""
    cycles, perms, ends, choices, split = _blocks(g, m, n)
    last = cycles - 1
    # The walk recurses down to `stop`, where each child (a, a \ x) of x is
    # the block's last two entries, or x its only entry when cycles = 1.
    # Nothing follows the last entry, so it is the residual itself;
    # phi^(n/cycles) fixes it, as it fixes the end and the others.
    stop = max(last - 1, 0)
    out: list[tuple[int, ...]] = []
    entries: list[int] = []

    def step(i: int, x: int) -> None:
        if i == last:
            out.append((x,))
        else:
            kids = choices[x] or split(x)
            if i < stop:
                for a, y in kids:
                    entries.append(a)
                    step(i + 1, y)
                    entries.pop()
                return
            prefix = tuple(entries)
            for kid in kids:
                out.append(prefix + kid)
        if len(out) > g.budget:
            raise BudgetExceeded(_TOO_MANY.format(m, n, g.budget + 1), g.budget)

    try:
        for end in ends:
            step(0, end)
    except RecursionError:
        raise GarsideError(_TOO_DEEP.format(m, n, cycles)) from None
    finally:
        # step refers to itself through its closure; clearing the name breaks
        # that cycle, so out is freed with its last caller, not by the
        # cycle collector.  build_category pauses the collector on the
        # premise that it makes no cycles, so it relies on this too.
        del step
    if len(ends) > 1:
        # Block 0 leads and fixes the rest; each end's run is in lex order.
        out.sort()
    if perms:
        cols = list(zip(*out))
        images = [map(perm.__getitem__, col) for perm in perms for col in cols]
        out = list(zip(*cols, *images))
    return out


class Morphism(namedtuple("Morphism", ["entries", "source", "target"])):
    __slots__ = ()

    def is_endo(self) -> bool:
        return self.source == self.target


class DividedCategory(
    namedtuple(
        "DividedCategory",
        [
            "g",
            "p",
            "q",
            "objects",  # D_p^q, in lex order
            "morphisms",  # every non-identity member of D_2p^2q, as Morphisms
            "identity_tuples",  # object id -> identity tuple
            "triples",  # composable f;g = h, morphism ids
            "eliminated",  # endo id -> defining path (f, g)
            "relations",  # presented path equations (lhs ids, rhs ids)
        ],
    )
):
    __slots__ = ()

    def generator_ids(self) -> list[int]:
        return [i for i in range(len(self.morphisms)) if i not in self.eliminated]

    def object_label(self, oid: int) -> str:
        return "(" + ", ".join(self.g.render_simple(a) for a in self.objects[oid]) + ")"

    def morphism_label(self, mid: int) -> str:
        e = self.morphisms[mid].entries
        return f"({self.g.render_simple(e[0])}, {self.g.render_simple(e[1])})"

    def path_label(self, path: list[int]) -> str:
        return " ".join(self.morphism_label(m) for m in path)

    def relation_label(self, rel: tuple[list[int], list[int]]) -> str:
        return f"{self.path_label(rel[0])} = {self.path_label(rel[1])}"


def build_category(g: GarsideStructure, p: int, q: int) -> DividedCategory:
    """Assemble C_p^q: objects, generating morphisms, induced relations.

    The cycle collector is paused while the category is assembled, and
    switched back on afterwards, on success or error, only if it was on at
    entry.  On typeb3's C_2^2 the assembly makes over 100,000 lists and
    tuples, enough to set off about 250 collections, yet none of them is part
    of a reference cycle: reference counting frees each one the assembly
    drops, so those collections would only scan what is still in use.
    """
    if p < 1 or q < 0:
        raise ValueError("need p >= 1 and q >= 0")
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _assemble(g, p, q)
    finally:
        if enabled:
            gc.enable()


def _triples(g: GarsideStructure, m: int, n: int, members: list, span: int) -> tuple:
    """The ids of f, g and h for each u in D_m^n = D_3p^3q, along one walk.

    u = (a_1, b_1, c_1, ..., a_p, b_p, c_p) composes f = (a_k, b_k c_k)_k
    and g = (b_k, c_k a_k+1)_k into h = (a_k b_k, c_k)_k, a_p+1 = phi(a_1).
    Each part is a member of D_2p^2q, members in id order, fixed by its
    block 0 of span entries.  The walk of u's block 0 carries a cursor for
    each part into the trie of those blocks; a part outside D_2p^2q reads
    None.  Each end's run is in lex order of u; the last value returned
    says whether there are several runs.
    """
    cycles, perms, ends, choices, split = _blocks(g, m, n)
    product = g.product_table
    # a_c+1, the entry after block 0, is phi^e(a_1) for block 1's exponent
    # e, or phi(a_1) when u is a single block.
    after = perms[0] if perms else g.phi_power_perm(1)
    # A cursor that has left the trie: it stays here, and its id reads None.
    none: dict = {}
    f_ids, g_ids, h_ids = [], [], []

    def step(i: int, x: int, prev: int, on: dict, by: dict, idle: dict, lead: int):
        # Entry i of block 0 is picked under the residual x, after prev.  At
        # a_k, f's cursor steps on it and g's on c_k-1 a_k; at b_k, g's and
        # h's, on b_k and a_k b_k; at c_k, h's and f's, on c_k and b_k c_k.
        # So the three cursors take the three roles (on the entry, by the
        # product with prev, idle) in turn.  lead is a_1.
        row = product[prev]
        kids = choices[x] or split(x)
        if i < cycles - 3:
            for a, y in kids:
                lead = a if i == 0 else lead
                step(i + 1, y, a, by.get(row[a], none), idle, on.get(a, none), lead)
            return
        # i is a_c's: a_c, b_c and the residual c_c end f with (a_c, b_c c_c
        # = y), g with (c_c-1 a_c, b_c, c_c a_c+1) and h with (a_c b_c, c_c).
        for a, y in kids:
            f = on.get(a, none).get(y)
            g_at = by.get(row[a], none)
            h_row = product[a]
            a_next = after[a if i == 0 else lead]
            for b, c in choices[y] or split(y):
                f_ids.append(f)
                g_ids.append(g_at.get(b, none).get(product[c][a_next]))
                h_ids.append(idle.get(h_row[b], none).get(c))
        if len(h_ids) > g.budget:
            raise BudgetExceeded(_TOO_MANY.format(m, n, g.budget + 1), g.budget)

    # The trie of D_2p^2q's blocks 0 names each member by its id.
    trie: dict = {}
    for mid, t in enumerate(members):
        node = trie
        for a in t[: span - 1]:
            node = node.get(a) or node.setdefault(a, {})
        node[t[span - 1]] = mid
    # g has no entry before b_1: a cursor one level above its root, which
    # 1 a_1 = a_1 leads into, lets a_1 step g's cursor like any a_k.
    above = dict.fromkeys(range(len(g.simples)), trie)
    try:
        for end in ends:
            step(0, end, g.identity, trie, above, trie, 0)
    except RecursionError:
        raise GarsideError(_TOO_DEEP.format(m, n, cycles)) from None
    finally:
        del step  # as in _walk: step's closure refers to step
    return f_ids, g_ids, h_ids, len(ends) > 1


def _assemble(g: GarsideStructure, p: int, q: int) -> DividedCategory:
    """C_p^q from D_p^q, D_2p^2q and one walk of D_3p^3q.

    The walk's triples through an identity give every endpoint: t's source
    is f in the one triple 1;t = t, and its target g in the one t;1 = t.
    """
    objects = divided_set(g, p, q)
    # (1, x_1, ..., 1, x_p) is the identity of the object (x_1, ..., x_p);
    # in lex order the identities come in the objects' order.
    ones = (g.identity,) * len(objects)
    identities = list(zip(*[c for col in zip(*objects) for c in (ones, col)]))
    identity_tuples = dict(enumerate(identities))
    # Each list of tuples or ids is dropped as soon as it is read, so the
    # peak stays near what the finished category holds.
    raw = divided_set(g, 2 * p, 2 * q)
    is_identity = list(map(set(identities).__contains__, raw))
    assert list(compress(raw, is_identity)) == identities
    members = list(compress(raw, map(not_, is_identity)))
    del raw, is_identity
    # Every member of D_2p^2q has an id, the identities' after the
    # morphisms', so a part of a triple is an identity iff its id >= n_mor,
    # and the identity of object x has id n_mor + x.
    n_mor = len(members)
    members += identities
    span = 2 * math.gcd(p, q)
    # A relation names a morphism by its id, or an eliminated endo by the
    # pair that defines it; the ids are the ints the triples hold.
    expansion = [[mid] for mid in range(n_mor)]

    f_ids, g_ids, h_ids, merge = _triples(g, 3 * p, 3 * q, members, span)
    # Each part is a member of D_2p^2q, so each of its blocks is a simple.
    assert None not in f_ids and None not in g_ids and None not in h_ids, (
        "relation part outside D_2p^2q"
    )
    if merge:
        # Merge the runs by u's block 0, read back from its parts: a_k and
        # b_k lead f's and g's k-th pair of entries, and c_k ends h's.
        parts = sorted(zip(f_ids, g_ids, h_ids), key=lambda t: list(zip(
            members[t[0]][:span:2], members[t[1]][:span:2], members[t[2]][1:span:2]
        )))
        f_ids, g_ids, h_ids = map(list, zip(*parts))
    # Prove 1;t = t and t;1 = t, and read t's source off the first identity
    # and its target off the second.
    f_one = [i >= n_mor for i in f_ids]
    g_one = [i >= n_mor for i in g_ids]
    after_one = list(compress(g_ids, f_one))
    before_one = list(compress(f_ids, g_one))
    assert after_one == list(compress(h_ids, f_one))
    assert before_one == list(compress(h_ids, g_one))
    source = dict(zip(after_one, map(n_mor.__rsub__, compress(f_ids, f_one))))
    target = dict(zip(before_one, map(n_mor.__rsub__, compress(g_ids, g_one))))
    assert (
        len(source) == len(after_one) == len(members) == len(target) == len(before_one)
    ), "endpoint not named exactly once"
    sources = list(map(source.__getitem__, range(len(members))))
    targets = list(map(target.__getitem__, range(len(members))))
    # Each identity is a loop at its own object.
    assert sources[n_mor:] == targets[n_mor:] == list(range(len(objects)))
    del sources[n_mor:], targets[n_mor:], source, target, after_one, before_one
    morphisms = list(map(Morphism, members, sources, targets))
    del members
    keep = list(map(not_, map(or_, f_one, g_one)))
    fs = list(compress(f_ids, keep))
    gs = list(compress(g_ids, keep))
    hs = list(compress(h_ids, keep))
    del f_ids, g_ids, h_ids, f_one, g_one, keep
    assert max(hs, default=-1) < n_mor, "identity as a composite"
    assert [targets[i] for i in fs] == [sources[i] for i in gs]
    assert [sources[i] for i in fs] == [sources[i] for i in hs]
    assert [targets[i] for i in gs] == [targets[i] for i in hs]
    triples = list(zip(fs, gs, hs))

    # The first triple (f, g, endo) with f and g non-endos defines its endo;
    # it is not presented as a relation.
    endo = list(map(eq, sources, targets))
    eliminated: dict[int, tuple[int, int]] = {}
    presented = bytearray(b"\x01") * len(triples)
    for i in compress(count(), map(endo.__getitem__, hs)):
        fid, gid, hid = triples[i]
        if hid not in eliminated and not endo[fid] and not endo[gid]:
            eliminated[hid] = (fid, gid)
            expansion[hid] = [fid, gid]
            presented[i] = 0
    del fs, gs, hs

    relations = [
        (expansion[fid] + expansion[gid], expansion[hid][:])
        for fid, gid, hid in compress(triples, presented)
    ]

    return DividedCategory(
        g, p, q, objects, morphisms, identity_tuples, triples, eliminated, relations
    )


def _find(parent: list[int], i: int) -> int:
    """Root of i in a union-find forest, halving the path on the way."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def components(c: DividedCategory) -> list[list[int]]:
    """Undirected connected components of the objects, sorted by least member."""
    parent = list(range(len(c.objects)))

    for m in c.morphisms:
        ra, rb = _find(parent, m.source), _find(parent, m.target)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for i in range(len(c.objects)):
        groups.setdefault(_find(parent, i), []).append(i)
    return [sorted(groups[r]) for r in sorted(groups)]


def collapse(c: DividedCategory, path: Path) -> NormalForm:
    """Signed product of first entries along a composable path."""
    letters = []
    position: int | None = None
    for mid, sign in path:
        m = c.morphisms[mid]
        start, end = (m.source, m.target) if sign > 0 else (m.target, m.source)
        if position is not None and position != start:
            raise NonComposablePath(f"path breaks at morphism {mid}")
        position = end
        letters.append((m.entries[0], sign))
    return c.g.normal_form_simples(letters)


class VertexGroupPresentation(
    namedtuple(
        "VertexGroupPresentation",
        [
            "tree_edges",  # morphism ids of the spanning tree
            "loop_edges",  # non-tree morphism ids, one loop generator each
            "loop_paths",  # base -> base conjugated loops
            "relators",  # words in signed 1-based loop references
        ],
    )
):
    __slots__ = ()


def _free_reduce(word: list[int]) -> list[int]:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return out


def _letter_counts(word: list[int]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for y in word:
        counts[abs(y)] = counts.get(abs(y), 0) + 1
    return counts


def vertex_group(c: DividedCategory, base: int) -> VertexGroupPresentation:
    """Contract the component of base to a one-object group presentation.

    The loop paths are kept as paths: collapse maps one to the Garside
    group, and a report collapses only the generators it prints.  The
    relators are left as they are read off the relations, not free-reduced:
    simplify_presentation reduces what it is given.
    """
    gens = c.generator_ids()
    parent = list(range(len(c.objects)))

    tree: list[int] = []
    adjacency: dict[int, list[tuple[int, int, int]]] = {}
    for mid in gens:
        m = c.morphisms[mid]
        rs, rt = _find(parent, m.source), _find(parent, m.target)
        if rs != rt:
            parent[rs] = rt
            tree.append(mid)
            adjacency.setdefault(m.source, []).append((m.target, mid, 1))
            adjacency.setdefault(m.target, []).append((m.source, mid, -1))

    paths: dict[int, Path] = {base: []}
    frontier = deque([base])
    while frontier:
        node = frontier.popleft()
        for nxt, mid, sign in adjacency.get(node, ()):
            if nxt not in paths:
                paths[nxt] = paths[node] + [(mid, sign)]
                frontier.append(nxt)

    def inverse(path: Path) -> Path:
        return [(mid, -sign) for mid, sign in reversed(path)]

    component = set(paths)
    loop_edges = [
        mid
        for mid in gens
        if mid not in tree and c.morphisms[mid].source in component
    ]
    loop_paths = [
        paths[c.morphisms[mid].source]
        + [(mid, 1)]
        + inverse(paths[c.morphisms[mid].target])
        for mid in loop_edges
    ]
    loop_of = {mid: i for i, mid in enumerate(loop_edges)}

    def letters(path: list[int]) -> list[int]:
        return [loop_of[mid] + 1 for mid in path if mid in loop_of]

    relators = []
    for lhs, rhs in c.relations:
        if c.morphisms[lhs[0]].source not in component:
            continue
        word = letters(lhs) + [-x for x in reversed(letters(rhs))]
        relators.append(word)
    return VertexGroupPresentation(tree, loop_edges, loop_paths, relators)


class SimplifiedPresentation(
    # generators: the surviving loop indices (into loop_edges)
    namedtuple("SimplifiedPresentation", ["generators", "relators"])
):
    __slots__ = ()


def simplify_presentation(v: VertexGroupPresentation) -> SimplifiedPresentation:
    """Lazy indexed Tietze pass: free-reduce, then eliminate generators occurring once.

    Each step takes the first relator, in list order, that has a generator x
    occurring once, drops it, and eliminates x, the largest such generator of
    that relator, by its image in the other generators.  Relators keep their
    list index, a min-heap holds the indices of relators that may have such a
    generator, and each generator lists the relators it was put into, so a
    step touches only the relators that hold x.  It does not rewrite them: it
    marks them pending and pushes them.  A pending relator takes every
    substitution made since its last rewrite in one pass when the heap next
    pops it, and is then free-reduced, recounted, and dropped if empty; the
    heap ends empty, so no relator is left pending.  Every stored image is a
    word in the surviving generators, free-reduced each time a substitution
    changes it: x's image is cut from a relator rewritten just before, so it
    holds only survivors other than x, and each generator lists the eliminated
    generators whose image has held it, so the step substitutes x's image into
    exactly the images that hold x.  Substitution is a free-group homomorphism
    and free reduction is confluent, so one pass with the current images gives
    a pending relator the word that substituting one generator at a time
    gives, and since every pending relator is on the heap, each step picks the
    same relator and generator as rewriting every holder at once would.  The
    image of x does not contain x, so every step removes a generator for good
    and the pass always ends.
    """
    relators: list[list[int] | None] = [
        r for r in (_free_reduce(list(r)) for r in v.relators) if r
    ]
    counts: list[dict[int, int] | None] = [_letter_counts(r) for r in relators]
    # generator -> every relator that has held it; stale entries are skipped
    holders: dict[int, list[int]] = {}
    for i, c in enumerate(counts):
        for y in c:
            holders.setdefault(y, []).append(i)
    heap = [i for i, c in enumerate(counts) if 1 in c.values()]
    gens = set(range(1, len(v.loop_edges) + 1))
    pending: set[int] = set()
    # Eliminated generator x (and -x) -> its image (the inverse image), and
    # generator -> every eliminated generator whose image has held it.
    images: dict[int, list[int]] = {}
    holds: dict[int, list[int]] = {}

    def expand(word: list[int]) -> list[int]:
        out: list[int] = []
        for y in word:
            image = images.get(y)
            if image is None:
                out.append(y)
            else:
                out.extend(image)
        return _free_reduce(out)

    def store(x: int, image: list[int], old: set[int]) -> None:
        images[x] = image
        images[-x] = [-y for y in reversed(image)]
        for y in {abs(y) for y in image} - old:
            holds.setdefault(y, []).append(x)

    def rewrite(j: int) -> None:
        word = expand(relators[j])
        if not word:
            relators[j] = counts[j] = None
            return
        old = counts[j]
        relators[j] = word
        counts[j] = new = _letter_counts(word)
        for y in new:
            if y not in old:
                holders[y].append(j)

    while heap:
        ri = heapq.heappop(heap)
        if ri in pending:
            pending.remove(ri)
            rewrite(ri)
        c = counts[ri]
        if c is None or 1 not in c.values():
            continue
        x = max(y for y, k in c.items() if k == 1)
        rel = relators[ri]
        relators[ri] = counts[ri] = None
        pos = next(i for i, y in enumerate(rel) if abs(y) == x)
        before, after = rel[:pos], rel[pos + 1 :]
        # u x v = 1  =>  x = u^-1 v^-1 ; u x^-1 v = 1  =>  x = v u
        if rel[pos] > 0:
            image = [-y for y in reversed(before)] + [-y for y in reversed(after)]
        else:
            image = after + before
        store(x, image, set())
        for z in holds.pop(x, ()):
            old = {abs(y) for y in images[z]}
            if x in old:  # else x was already substituted into z's image
                store(z, expand(images[z]), old)
        for j in holders.pop(x):
            if j in pending or counts[j] is None or x not in counts[j]:
                continue  # already pending, dropped, or x already substituted
            pending.add(j)
            heapq.heappush(heap, j)
        gens.discard(x)
    return SimplifiedPresentation(
        [x - 1 for x in sorted(gens)], [r for r in relators if r is not None]
    )
