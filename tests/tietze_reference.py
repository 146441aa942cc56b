"""Reference Tietze simplifiers for differential tests.

`simplify_presentation` is the original bounded loop: every step recounts
every generator in every relator to find the first relator with a generator
occurring once, and re-reduces every relator after the substitution.  It stops after
10 * (generators + relators) steps and then reports itself inconclusive,
which it also does on the empty presentation, where that bound is 0.  The
package's pass always ends and has no such flag, so the reference returns
its own record with the flag as a third field.  Its cost is quadratic in
the presentation size, so the largest vertex groups are checked against
frozen literals and against `simplify_indexed` instead.

`simplify_indexed` is the indexed pass that the package's lazy pass
replaced: each step rewrites every relator holding the eliminated generator
at once.  Both references reduce words with their own `free_reduce`, so they
share no code with the pass they check.
"""

import heapq
from collections import namedtuple

from garside.divided import SimplifiedPresentation, VertexGroupPresentation

BoundedResult = namedtuple("BoundedResult", ["generators", "relators", "inconclusive"])


def free_reduce(word: list[int]) -> list[int]:
    """Cancel adjacent inverse letters until none are left."""
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return out


def letter_counts(word: list[int]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for y in word:
        counts[abs(y)] = counts.get(abs(y), 0) + 1
    return counts


def simplify_presentation(v: VertexGroupPresentation) -> BoundedResult:
    """Bounded Tietze reduction: free-reduce and eliminate isolated generators."""
    gens = set(range(1, len(v.loop_edges) + 1))
    relators = [r for r in (free_reduce(list(r)) for r in v.relators) if r]
    bound = 10 * (len(gens) + len(relators))
    steps = 0
    while steps < bound:
        steps += 1
        target = None
        for ri, rel in enumerate(relators):
            once = [x for x in gens if sum(1 for y in rel if abs(y) == x) == 1]
            if once:
                target = (ri, max(once))
                break
        if target is None:
            return BoundedResult([x - 1 for x in sorted(gens)], relators, False)
        ri, x = target
        rel = relators.pop(ri)
        pos = next(i for i, y in enumerate(rel) if abs(y) == x)
        before, after = rel[:pos], rel[pos + 1 :]
        # u x v = 1  =>  x = u^-1 v^-1 ; u x^-1 v = 1  =>  x = v u
        if rel[pos] > 0:
            image = [-y for y in reversed(before)] + [-y for y in reversed(after)]
        else:
            image = after + before
        replaced = []
        for other in relators:
            word: list[int] = []
            for y in other:
                if abs(y) != x:
                    word.append(y)
                elif y > 0:
                    word.extend(image)
                else:
                    word.extend(-z for z in reversed(image))
            word = free_reduce(word)
            if word:
                replaced.append(word)
        relators = replaced
        gens.discard(x)
    return BoundedResult([x - 1 for x in sorted(gens)], relators, True)


def simplify_indexed(v: VertexGroupPresentation) -> SimplifiedPresentation:
    """Indexed Tietze pass that substitutes into every holder at each step.

    Each step takes the first relator, in list order, that has a generator x
    occurring once, drops it, and substitutes x's image into the relators that
    hold x, free-reducing them and dropping any that become empty; x is the
    largest such generator of that relator.  A min-heap holds the indices of
    relators that may have such a generator, and each generator lists the
    relators it was put into.
    """
    relators: list[list[int] | None] = [
        r for r in (free_reduce(list(r)) for r in v.relators) if r
    ]
    counts: list[dict[int, int] | None] = [letter_counts(r) for r in relators]
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
        if rel[pos] > 0:
            image = [-y for y in reversed(before)] + [-y for y in reversed(after)]
        else:
            image = after + before
        inverse = [-y for y in reversed(image)]
        for j in holders.pop(x):
            old = counts[j]
            if old is None or x not in old:
                continue
            word: list[int] = []
            for y in relators[j]:
                if y == x:
                    word.extend(image)
                elif y == -x:
                    word.extend(inverse)
                else:
                    word.append(y)
            word = free_reduce(word)
            if not word:
                relators[j] = counts[j] = None
                continue
            relators[j] = word
            counts[j] = new = letter_counts(word)
            for y in new:
                if y not in old:
                    holders[y].append(j)
            if 1 in new.values():
                heapq.heappush(heap, j)
        gens.discard(x)
    return SimplifiedPresentation(
        [x - 1 for x in sorted(gens)], [r for r in relators if r is not None]
    )
