"""Reference congruence oracle for differential tests.

The original eager implementation: every word of every length up to the
bound is enumerated, and words connected by a single-relation rewrite are
merged with a union-find rooted at the lexicographically least member.
The original residual tables scanned the oracle for every (a, b, c).

`strata` closes whole strata of a lazy oracle by enumerating every word,
and `word_lookup` maps a word to the simple of a built structure through a
fresh lazy oracle: the structure itself keeps no words beyond its simples.
"""

import itertools
from collections.abc import Callable
from functools import lru_cache

from garside.monoid import GarsideStructure
from garside.presentation import CongruenceTable, Presentation, Word


class ReferenceTable:
    """Representatives and sorted members of every class up to max_length."""

    def __init__(self, p: Presentation, max_length: int):
        self.reps = reference_reps(p, max_length)
        self.members: dict[Word, list[Word]] = {}
        for w in sorted(self.reps):
            self.members.setdefault(self.reps[w], []).append(w)

    def rep(self, word: Word) -> Word:
        return self.reps[word]

    def class_members(self, word: Word) -> list[Word]:
        return self.members[self.reps[word]]

    def classes(self, length: int) -> list[list[Word]]:
        return [self.members[r] for r in sorted(self.members) if len(r) == length]


def reference_reps(p: Presentation, max_length: int) -> dict[Word, Word]:
    n = len(p.generators)
    rules = [(lhs, rhs) for lhs, rhs in p.relations]
    rules += [(rhs, lhs) for lhs, rhs in p.relations]

    reps: dict[Word, Word] = {(): ()}
    for length in range(1, max_length + 1):
        words = list(itertools.product(range(n), repeat=length))
        index = {w: i for i, w in enumerate(words)}
        parent = list(range(len(words)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for w in words:
            for lhs, rhs in rules:
                span = len(lhs)
                for at in range(length - span + 1):
                    if w[at : at + span] == lhs:
                        other = index[w[:at] + rhs + w[at + span :]]
                        ra, rb = find(index[w]), find(other)
                        if ra != rb:
                            # Words are enumerated in lexicographic order, so
                            # rooting at the smaller index keeps the least word.
                            parent[max(ra, rb)] = min(ra, rb)
        for w in words:
            reps[w] = words[find(index[w])]
    return reps


def residuals(
    g: GarsideStructure, table: ReferenceTable, left: bool
) -> list[list[int | None]]:
    """Residual table by scanning every candidate c of the right length."""
    n = len(g.simples)
    by_length: dict[int, list[int]] = {}
    for i, w in enumerate(g.simples):
        by_length.setdefault(len(w), []).append(i)
    out: list[list[int | None]] = [[None] * n for _ in range(n)]
    for a in range(n):
        wa = g.simples[a]
        for b in range(n):
            wb = g.simples[b]
            matches = [
                c
                for c in by_length.get(len(wb) - len(wa), ())
                if table.rep(wa + g.simples[c] if left else g.simples[c] + wa) == wb
            ]
            assert len(matches) <= 1, (a, b, matches)
            if matches:
                out[a][b] = matches[0]
    return out


def strata(table: CongruenceTable, generators: int, length: int) -> list[list[Word]]:
    """All classes of one length over that many generators, sorted by
    representative, closed by enumerating every word of that length."""
    words = itertools.product(range(generators), repeat=length)
    reps = {table.rep(w) for w in words}
    return [table.class_members(r) for r in sorted(reps)]


@lru_cache(maxsize=8)
def word_lookup(g: GarsideStructure) -> Callable[[Word], int | None]:
    """Simple id of a positive word in g, or None when it is not simple.

    Each simple is stored as its lex-least word, which is the oracle's
    representative of its class.
    """
    oracle = CongruenceTable(g.presentation)
    simple_id = {w: i for i, w in enumerate(g.simples)}

    def lookup(word: Word) -> int | None:
        if len(word) > g.delta_length:
            return None
        return simple_id.get(oracle.rep(word))

    return lookup
