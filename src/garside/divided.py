"""Divided sets D_m^n, the categories C_p^q, and vertex-group extraction.

D_m^n is the set of m-tuples of simples with ordered product Delta, fixed by
the n-th power of the twisted shift sigma(a_1,...,a_m) = (a_2,...,a_m,
phi(a_1)).  The index shift i -> (i+n) mod m has c = gcd(m,n) orbits, the
classes of i mod c, so a tuple fixed by sigma^n is determined by its first c
entries: entry i is a fixed phi-power of entry i mod c, and the free entries
are fixed by phi^(n/c) and split length(Delta)*c/m between them.  One
depth-first walk enumerates D_m^n: it picks each free entry, in ascending
id, among the phi^(n/c)-fixed left divisors of the part of Delta still left
(the running residual) whose length fits the free length still left, then
checks the determined entries against the residual one at a time and keeps
the tuple when the residual reaches 1.  Its work follows the tuples kept and
the prefixes cut, not the number of length combinations.  It raises
BudgetExceeded once it has kept more tuples than the budget the structure
was built under.  With n = 0 every entry is free and the walk lists all
decompositions of Delta.

C_p^q has objects D_p^q, generating morphisms D_2p^2q, and relations induced
by D_3p^3q (each 3p-tuple yields a composable triple f;g = h).  A morphism's
endpoints and a triple's three parts are built from the tuple's entries and
its twisted products t_i t_i+1 (phi(t_1) following t_m), each one read from
the structure's two-simple product table.  Tuples of the interleaved form
(1, x_1, 1, x_2, ...) are the object identities; f or g is one exactly when
the entries it takes from the 3p-tuple are all 1, so relations through them
are recognised from the 3p-tuple itself, proved trivial, then dropped.  An
endomorphism generator defined by some triple (f, g, endo) with f, g proper
non-endos is eliminated and rewritten as that path, matching how such
composites are usually named rather than listed as generators.

Vertex groups come from the standard groupoid contraction: spanning tree,
one loop generator per non-tree edge, one relator per presented relation,
plus an indexed Tietze pass and the collapse map to the Garside group
(a path maps to the signed product of first entries).
"""

from __future__ import annotations

import heapq
import math
from collections import deque, namedtuple
from operator import itemgetter

from .errors import BudgetExceeded, GarsideError, NonComposablePath
from .monoid import GarsideStructure, NormalForm

Path = list[tuple[int, int]]  # (morphism id, +1 forward / -1 backward)


def decompositions(g: GarsideStructure, m: int) -> list[tuple[int, ...]]:
    """All m-tuples of simples with ordered product Delta, in lex id order."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return _walk(g, m, 0)


def twisted_shift(g: GarsideStructure, t: tuple[int, ...]) -> tuple[int, ...]:
    return t[1:] + (g.phi_simple(t[0]),)


def divided_set(g: GarsideStructure, m: int, n: int) -> list[tuple[int, ...]]:
    """D_m^n: decompositions of Delta fixed by the n-th twisted shift, in lex order.

    The walk chooses the first gcd(m, n) entries among phi^(n/gcd)-fixed left
    divisors of the running residual of Delta, then checks the entries they
    determine.  D_m^0 is decompositions(g, m).  A set with more tuples than
    g.budget raises BudgetExceeded, and one whose gcd(m, n) nested choices
    pass the recursion limit raises GarsideError.
    """
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    return _walk(g, m, n)


def _walk(g: GarsideStructure, m: int, n: int) -> list[tuple[int, ...]]:
    """Depth-first walk of D_m^n; ascending ids at the free entries give lex order."""
    cycles = math.gcd(m, n)
    free_length, rem = divmod(g.delta_length * cycles, m)
    if rem:
        return []
    # Entry i is phi^exponent[i] of entry i mod cycles: sigma^n-fixedness
    # reads t_j = phi^(-((i+n)//m))(t_i) for j = (i+n) mod m.
    exponent = [0] * m
    for base in range(cycles):
        i = base
        while (j := (i + n) % m) != base:
            exponent[j] = exponent[i] - (i + n) // m
            i = j
    determined = [
        (g.phi_power_perm(exponent[i]), i % cycles) for i in range(cycles, m)
    ]
    fixed = sum(1 << a for a in g.phi_fixed_simples(n // cycles))
    exactly = [0] * (g.delta_length + 1)
    for a, word in enumerate(g.simples):
        exactly[len(word)] |= 1 << a
    at_most = exactly[:]
    for k in range(1, len(at_most)):
        at_most[k] |= at_most[k - 1]
    # The free entries come first, so while they are chosen the residual x
    # still holds the determined entries' share of Delta, and the free length
    # left is len(x) - reserved.  A free entry is a phi^(n/cycles)-fixed left
    # divisor of x that fits in it; the last one fills it exactly.
    reserved = g.delta_length - free_length
    room = [len(word) - reserved for word in g.simples]
    fits = [
        d & fixed & at_most[k] if k >= 0 else 0 for d, k in zip(g.left_div_mask, room)
    ]
    fills = [
        d & fixed & exactly[k] if k >= 0 else 0 for d, k in zip(g.left_div_mask, room)
    ]
    residual = g.residual_left
    last = cycles - 1
    out: list[tuple[int, ...]] = []
    entries: list[int] = []

    def close(x: int) -> None:
        # The last free entry fills what is left of the free length; the
        # entries after it have no choice left, only a check.
        mask = fills[x]
        while mask:
            low = mask & -mask
            a = low.bit_length() - 1
            mask ^= low
            entries.append(a)
            tail: list[int] = []
            y = residual[a][x]
            for perm, base in determined:
                b = perm[entries[base]]
                if not g.left_div_mask[y] >> b & 1:
                    break
                tail.append(b)
                y = residual[b][y]
            else:
                if y == g.identity:
                    out.append(tuple(entries + tail))
            entries.pop()

    def step(i: int, x: int) -> None:
        if i == last:
            if determined:
                close(x)
            else:
                # Nothing follows, so the last entry is the residual itself;
                # phi^(n/cycles) fixes it, as it fixes Delta and the others.
                out.append(tuple(entries) + (x,))
            if len(out) > g.budget:
                raise BudgetExceeded(
                    f"D_{m}^{n} has at least {len(out)} tuples", g.budget
                )
            return
        mask = fits[x]
        while mask:
            low = mask & -mask
            a = low.bit_length() - 1
            mask ^= low
            entries.append(a)
            step(i + 1, residual[a][x])
            entries.pop()

    try:
        step(0, g.delta)
    except RecursionError:
        raise GarsideError(
            f"D_{m}^{n} is out of reach: its {cycles} free entries nest past "
            "the recursion limit"
        ) from None
    finally:
        # step refers to itself through its closure; clearing the name breaks
        # that cycle, so out is freed with its last caller, not by the
        # cycle collector.
        del step
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


def _is_identity_tuple(t: tuple[int, ...]) -> bool:
    return not any(t[::2])


def _twisted_products(
    product: list[list[int | None]], phi: tuple[int, ...], t: tuple[int, ...]
) -> tuple[int | None, ...]:
    """(t_1 t_2, t_2 t_3, ..., t_m phi(t_1)) read from the product table."""
    # product[t_i][t_i+1] with the row and the column lookups mapped in C.
    rows = map(product.__getitem__, t)
    return tuple(map(list.__getitem__, rows, t[1:] + (phi[t[0]],)))


def build_category(g: GarsideStructure, p: int, q: int) -> DividedCategory:
    """Assemble C_p^q: objects, generating morphisms, induced relations."""
    if p < 1 or q < 0:
        raise ValueError("need p >= 1 and q >= 0")
    objects = divided_set(g, p, q)
    obj_index = {t: i for i, t in enumerate(objects)}
    product = g.product_table
    phi = g.phi_power_perm(1)

    # t = (a_1, b_1, ..., a_p, b_p) runs from (a_k b_k)_k to (b_k a_k+1)_k,
    # with a_p+1 = phi(a_1): its twisted products, alternately.
    raw = divided_set(g, 2 * p, 2 * q)
    morphisms: list[Morphism] = []
    mor_index: dict[tuple[int, ...], int] = {}
    identity_tuples: dict[int, tuple[int, ...]] = {}
    for t in raw:
        blocks = _twisted_products(product, phi, t)
        assert None not in blocks, "non-simple endpoint block"
        src_t, tgt_t = blocks[0::2], blocks[1::2]
        assert src_t in obj_index and tgt_t in obj_index, "dangling endpoint"
        if _is_identity_tuple(t):
            oid = obj_index[src_t]
            assert src_t == tgt_t and t[1::2] == objects[oid]
            identity_tuples[oid] = t
        else:
            mor_index[t] = len(morphisms)
            morphisms.append(Morphism(t, obj_index[src_t], obj_index[tgt_t]))
    assert set(identity_tuples) == set(range(len(objects)))

    # u = (a_1, b_1, c_1, ..., a_p, b_p, c_p) composes f = (a_k, b_k c_k)_k
    # and g = (b_k, c_k a_k+1)_k into h = (a_k b_k, c_k)_k, a_p+1 = phi(a_1).
    # In w = u + u's twisted products, each part is a fixed pick of entries.
    m = 3 * p
    ks = range(0, m, 3)
    pick_f = itemgetter(*[i for k in ks for i in (k, m + k + 1)])
    pick_g = itemgetter(*[i for k in ks for i in (k + 1, m + k + 2)])
    pick_h = itemgetter(*[i for k in ks for i in (m + k, k + 2)])
    sources = [mor.source for mor in morphisms]
    targets = [mor.target for mor in morphisms]
    triples: list[tuple[int, int, int]] = []
    for u in divided_set(g, m, 3 * q):
        blocks = _twisted_products(product, phi, u)
        assert None not in blocks, "non-simple relation block"
        w = u + blocks
        f_t, g_t, h_t = pick_f(w), pick_g(w), pick_h(w)
        f_is_id = not any(u[0::3])
        g_is_id = not any(u[1::3])
        if f_is_id or g_is_id:
            # Identity-involving relations carry no content; prove it.
            if f_is_id and g_is_id:
                assert f_t == g_t == h_t
            elif f_is_id:
                assert g_t == h_t
            else:
                assert f_t == h_t
            continue
        fid, gid, hid = mor_index[f_t], mor_index[g_t], mor_index[h_t]
        assert targets[fid] == sources[gid]
        assert sources[fid] == sources[hid]
        assert targets[gid] == targets[hid]
        triples.append((fid, gid, hid))

    endo = [s == t for s, t in zip(sources, targets)]
    eliminated: dict[int, tuple[int, int]] = {}
    for fid, gid, hid in triples:
        if endo[hid] and hid not in eliminated and not endo[fid] and not endo[gid]:
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
            "collapse_images",  # NormalForm of each loop path
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
    """Contract the component of base to a one-object group presentation."""
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
        relators.append(_free_reduce(word))
    images = [collapse(c, path) for path in loop_paths]
    return VertexGroupPresentation(tree, loop_edges, loop_paths, relators, images)


class SimplifiedPresentation(
    namedtuple(
        "SimplifiedPresentation",
        [
            "generators",  # surviving loop indices (into loop_edges)
            "relators",
            # always False, as the pass always ends; reports keep the key
            "inconclusive",
        ],
    )
):
    __slots__ = ()


def simplify_presentation(v: VertexGroupPresentation) -> SimplifiedPresentation:
    """Indexed Tietze pass: free-reduce, then eliminate generators occurring once.

    Each step takes the first relator, in list order, that has a generator x
    occurring once, drops it, and substitutes x's image into the relators that
    hold x, free-reducing them and dropping any that become empty; x is the
    largest such generator of that relator.  Relators keep their list index,
    a min-heap holds the indices of relators that may have such a generator,
    and each generator lists the relators it was put into, so a step touches
    only the relators that hold x.  The image of x does not contain x, so
    every step removes a generator for good and the pass always ends.
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
    while heap:
        ri = heapq.heappop(heap)
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
        inverse = [-y for y in reversed(image)]
        for j in holders.pop(x):
            old = counts[j]
            if old is None or x not in old:
                continue  # dropped, or x already substituted
            word: list[int] = []
            for y in relators[j]:
                if y == x:
                    word.extend(image)
                elif y == -x:
                    word.extend(inverse)
                else:
                    word.append(y)
            word = _free_reduce(word)
            if not word:
                relators[j] = counts[j] = None
                continue
            relators[j] = word
            counts[j] = new = _letter_counts(word)
            for y in new:
                if y not in old:
                    holders[y].append(j)
            if 1 in new.values():
                heapq.heappush(heap, j)
        gens.discard(x)
    return SimplifiedPresentation(
        [x - 1 for x in sorted(gens)], [r for r in relators if r is not None], False
    )
