"""Reference Tietze simplifier for differential tests.

The original bounded loop: every step recounts every generator in every
relator to find the first relator with a generator occurring once, and
re-reduces every relator after the substitution.  It stops after
10 * (generators + relators) steps and then reports itself inconclusive,
which it also does on the empty presentation, where that bound is 0.  The
package's pass always ends and has no such flag, so the reference returns
its own record with the flag as a third field.  Its cost is quadratic in
the presentation size, so the largest vertex groups are checked against
frozen literals instead.
"""

from collections import namedtuple

from garside.divided import VertexGroupPresentation, _free_reduce

BoundedResult = namedtuple("BoundedResult", ["generators", "relators", "inconclusive"])


def simplify_presentation(v: VertexGroupPresentation) -> BoundedResult:
    """Bounded Tietze reduction: free-reduce and eliminate isolated generators."""
    gens = set(range(1, len(v.loop_edges) + 1))
    relators = [r for r in (_free_reduce(list(r)) for r in v.relators) if r]
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
            word = _free_reduce(word)
            if word:
                replaced.append(word)
        relators = replaced
        gens.discard(x)
    return BoundedResult([x - 1 for x in sorted(gens)], relators, True)
