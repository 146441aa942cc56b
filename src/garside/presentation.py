"""Finitely presented homogeneous monoids and a lazy congruence oracle.

A word is a tuple of generator indices; the empty tuple is the monoid
identity.  Presentations come from `.gar` documents:

    # comment
    gens: s t u
    rel: s t u s = t u s t
    rel: t u s t = u s t u
    delta: s t u s

Exactly one `gens:` and one `delta:` line; words are whitespace-separated
generator names matching ``[A-Za-z][A-Za-z0-9_]*``; `rel:` order is kept.

The oracle closes congruence classes on demand.  Relations preserve
length, so a class lies inside one stratum and is the connected component
of a word under single-relation rewrites applied in either direction; the
first lookup of a word finds that component by a depth-first search and
memoises it for every member.  The canonical representative of a class is
its lexicographically least word (in declared generator order), which makes
every downstream table deterministic.  The per-stratum budget is checked
up front, by check_strata, against every stratum up to the length the
build is given.
"""

from __future__ import annotations

import re

from .errors import DEFAULT_BUDGET, BudgetExceeded, InhomogeneousPresentation, ParseError

Word = tuple[int, ...]

TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class Presentation:
    """Generators, homogeneous relations, and the designated Garside word.

    Equal and hashed by its three fields, so it must be treated as immutable.
    """

    __slots__ = ("generators", "relations", "delta_word")

    def __init__(
        self,
        generators: tuple[str, ...],
        relations: tuple[tuple[Word, Word], ...],
        delta_word: Word,
    ) -> None:
        self.generators = generators
        self.relations = relations
        self.delta_word = delta_word

    def _key(self) -> tuple:
        return self.generators, self.relations, self.delta_word

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "Presentation(generators={!r}, relations={!r}, delta_word={!r})".format(
            *self._key()
        )

    def word_from_tokens(self, tokens: list[str]) -> Word:
        index = {name: i for i, name in enumerate(self.generators)}
        missing = [t for t in tokens if t not in index]
        if missing:
            raise ParseError(f"undeclared generator token(s): {' '.join(missing)}")
        return tuple(index[t] for t in tokens)

    def render(self, word: Word) -> str:
        return " ".join(self.generators[i] for i in word)


def parse_presentation(text: str) -> Presentation:
    """Parse a `.gar` document.  Homogeneity is validated separately."""
    gens: tuple[str, ...] | None = None
    raw_relations: list[tuple[list[str], list[str]]] = []
    raw_delta: list[str] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"line {lineno}: expected 'key: value', got {line!r}")
        key = key.strip()
        if key == "gens":
            if gens is not None:
                raise ParseError(f"line {lineno}: duplicate gens: line")
            names = value.split()
            if not names:
                raise ParseError(f"line {lineno}: gens: line declares no generators")
            for name in names:
                if not TOKEN_RE.match(name):
                    raise ParseError(f"line {lineno}: invalid generator name {name!r}")
            if len(set(names)) != len(names):
                raise ParseError(f"line {lineno}: duplicate generator name")
            gens = tuple(names)
        elif key == "rel":
            lhs, eq, rhs = value.partition("=")
            if not eq:
                raise ParseError(f"line {lineno}: rel: line needs '='")
            raw_relations.append((lhs.split(), rhs.split()))
        elif key == "delta":
            if raw_delta is not None:
                raise ParseError(f"line {lineno}: duplicate delta: line")
            raw_delta = value.split()
        else:
            raise ParseError(f"line {lineno}: unknown key {key!r}")

    if gens is None:
        raise ParseError("missing gens: line")
    if raw_delta is None:
        raise ParseError("missing delta: line")

    scaffold = Presentation(gens, (), ())
    relations = tuple(
        (scaffold.word_from_tokens(lhs), scaffold.word_from_tokens(rhs))
        for lhs, rhs in raw_relations
    )
    return Presentation(gens, relations, scaffold.word_from_tokens(raw_delta))


def _parse_signed_word(p: Presentation, text: str) -> list[tuple[int, int]]:
    letters = []
    for token in text.split():
        name, caret, exponent = token.partition("^")
        if caret and exponent != "-1":
            raise ParseError(f"unsupported exponent in {token!r} (only ^-1)")
        letters.append((p.word_from_tokens([name])[0], -1 if caret else 1))
    return letters


def homogeneity_violations(p: Presentation) -> list[int]:
    """Indices of relations that change word length (empty list means ok)."""
    return [i for i, (lhs, rhs) in enumerate(p.relations) if len(lhs) != len(rhs)]


def require_homogeneous(p: Presentation) -> None:
    bad = homogeneity_violations(p)
    if bad:
        raise InhomogeneousPresentation(bad)


class CongruenceTable:
    """Canonical representatives of positive words.

    Two words are congruent iff they share a representative.  Classes are
    closed on first use; reps maps every word closed so far to the
    lexicographically least member of its class.
    """

    def __init__(self, presentation: Presentation) -> None:
        self.presentation = presentation
        self.reps: dict[Word, Word] = {}
        self._members: dict[Word, tuple[Word, ...]] = {}
        relations = presentation.relations
        self._rules = relations + tuple((rhs, lhs) for lhs, rhs in relations)

    def rep(self, word: Word) -> Word:
        found = self.reps.get(word)
        return self._close(word) if found is None else found

    def _close(self, word: Word) -> Word:
        seen = {word}
        stack = [word]
        while stack:
            w = stack.pop()
            for lhs, rhs in self._rules:
                span = len(lhs)
                for at in range(len(w) - span + 1):
                    if w[at : at + span] == lhs:
                        other = w[:at] + rhs + w[at + span :]
                        if other not in seen:
                            seen.add(other)
                            stack.append(other)
        members = tuple(sorted(seen))
        least = members[0]
        for w in members:
            self.reps[w] = least
        self._members[least] = members
        return least

    def class_members(self, word: Word) -> list[Word]:
        return list(self._members[self.rep(word)])


def check_strata(generators: int, max_length: int, budget: int) -> None:
    """Refuse a build on `generators` letters up to words of max_length.

    Raises BudgetExceeded for the first stratum up to max_length with more
    than budget words.  It reads only the two counts, so a generated
    presentation can be refused before it is generated.
    """
    for length in range(1, max_length + 1):
        count = generators**length
        if count > budget:
            raise BudgetExceeded(
                f"stratum of length {length} has {count} words", budget
            )


def congruence_classes(
    p: Presentation, max_length: int, budget: int = DEFAULT_BUDGET
) -> CongruenceTable:
    """Congruence oracle, closed lazily, for a build on words up to max_length.

    Raises BudgetExceeded for the first stratum up to max_length with more
    than budget words.
    """
    require_homogeneous(p)
    check_strata(len(p.generators), max_length, budget)
    return CongruenceTable(p)
