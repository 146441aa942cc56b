"""Numerical data for irreducible complex reflection groups.

A group is known here only through its multiset of degrees and multiset of
codegrees.  The exceptional groups G4 through G37 are loaded from a bundled
table; the three-parameter series G(de, e, n) is generated from the standard
closed formulas.  Everything downstream (regular numbers, regularity classes,
isodiscriminantal pairs) is arithmetic on those two multisets.

Names are accepted in two spellings: ``G12`` for an exceptional group and
``G(12,12,2)`` for a member of the series.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from collections import namedtuple
from functools import lru_cache

from .errors import GarsideError, UnknownGroup

# Sanity anchors for the bundled table: these two rows are used so often in
# tests and scenarios that a corrupted data file should fail at load time,
# not in whatever computation happens to read it first.
_TABLE_ANCHORS = {
    "G12": ((6, 8), (0, 10)),
    "G13": ((8, 12), (0, 16)),
}

_EXCEPTIONAL_NAME_RE = re.compile(r"G(\d+)\Z")
_SERIES_NAME_RE = re.compile(r"G\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\Z")


class GroupData(
    namedtuple(
        "GroupData",
        [
            # Canonical display name, e.g. "G13" or "G(12,12,2)".
            "name",
            # Degrees d_1 <= ... <= d_r, as a sorted tuple (multiset).
            "degrees",
            # Codegrees d_1^* <= ... <= d_r^*, same length as degrees.
            "codegrees",
            # Rank of the reflection representation.
            "rank",
        ],
    )
):
    __slots__ = ()

    def __new__(
        cls, name: str, degrees: tuple[int, ...], codegrees: tuple[int, ...], rank: int
    ) -> GroupData:
        if len(degrees) != rank or len(codegrees) != rank:
            raise GarsideError(
                f"{name}: rank {rank} does not match "
                f"{len(degrees)} degrees / {len(codegrees)} codegrees"
            )
        return super().__new__(cls, name, degrees, codegrees, rank)


class RegularityReport(
    namedtuple(
        "RegularityReport",
        [
            # The integer whose regularity was tested.
            "d",
            # Degrees divisible by d, in sorted order.
            "a",
            # Codegrees divisible by d (0 counts as divisible by everything).
            "b",
            # True when len(a) == len(b).
            "regular",
            # gcd of a + b when regular, else None.
            "fundamental",
            # All regular e with the same (a, b) filters, else None.
            "r_class",
            # The member of r_class dividing every other member, if one exists.
            "class_minimum",
        ],
    )
):
    __slots__ = ()


class IsoPair(
    namedtuple(
        "IsoPair",
        [
            # Names of the two groups, in universe enumeration order.
            "first",
            "second",
            # The shared invariants.
            "degrees",
            "codegrees",
        ],
    )
):
    __slots__ = ()


def _parse_int_list(text: str, where: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise GarsideError(f"bad integer list in {where}: {text!r}") from exc
    return tuple(sorted(values))


@lru_cache(maxsize=1)
def exceptional_table() -> dict[str, GroupData]:
    """The bundled degrees/codegrees table for G4 through G37."""
    path = os.path.join(os.path.dirname(__file__), "data", "exceptional_groups.txt")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    table: dict[str, GroupData] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = re.match(
            r"(G\d+):\s*degrees=([\d,]+)\s+codegrees=([\d,]+)\Z", line
        )
        if match is None:
            raise GarsideError(f"unreadable table line: {line!r}")
        name = match.group(1)
        degrees = _parse_int_list(match.group(2), name)
        codegrees = _parse_int_list(match.group(3), name)
        table[name] = GroupData(name, degrees, codegrees, len(degrees))
    for name, (degrees, codegrees) in _TABLE_ANCHORS.items():
        data = table.get(name)
        if data is None or data.degrees != degrees or data.codegrees != codegrees:
            raise GarsideError(f"bundled table anchor mismatch for {name}")
    return table


def series_data(de: int, e: int, n: int) -> GroupData:
    """Degrees and codegrees of G(de, e, n) from the closed formulas.

    The parameters follow the usual convention: e divides de, d = de / e,
    and the group acts on n coordinates.  G(1, 1, n) is the symmetric group
    in its (n - 1)-dimensional reflection representation, so its rank is
    n - 1, not n.  The trivial cases G(1, 1, 1) and G(e, e, 1) are rejected
    because they contain no reflections at all.
    """
    if de < 1 or e < 1 or n < 1:
        raise UnknownGroup(f"G({de},{e},{n}): parameters must be positive")
    if de % e != 0:
        raise UnknownGroup(f"G({de},{e},{n}): e must divide de")
    d = de // e
    name = f"G({de},{e},{n})"
    if n == 1:
        if d == 1:
            raise UnknownGroup(f"{name}: trivial group, no reflections")
        return GroupData(name, (d,), (0,), 1)
    if de == 1:
        # Symmetric group on n letters, rank n - 1.
        degrees = tuple(range(2, n + 1))
        codegrees = tuple(range(0, n - 1))
        return GroupData(name, degrees, codegrees, n - 1)
    degrees = sorted(de * k for k in range(1, n)) + [d * n]
    if d > 1:
        codegrees = [de * k for k in range(0, n)]
    else:
        codegrees = [e * k for k in range(0, n - 1)] + [e * (n - 1) - n]
    return GroupData(
        name, tuple(sorted(degrees)), tuple(sorted(codegrees)), n
    )


def group_data(name: str) -> GroupData:
    """Look up a group by name, in either spelling.

    ``G4`` .. ``G37`` select exceptional groups; ``G(de,e,n)`` selects a
    series member.  Anything else raises UnknownGroup.
    """
    text = name.strip()
    match = _EXCEPTIONAL_NAME_RE.match(text)
    if match is not None:
        data = exceptional_table().get(f"G{int(match.group(1))}")
        if data is None:
            raise UnknownGroup(f"no exceptional group named {text}")
        return data
    match = _SERIES_NAME_RE.match(text)
    if match is not None:
        de, e, n = (int(match.group(i)) for i in (1, 2, 3))
        return series_data(de, e, n)
    raise UnknownGroup(f"cannot parse group name {text!r}")


def group_order(data: GroupData) -> int:
    """Order of the group: the product of its degrees."""
    return math.prod(data.degrees)


def center_order(data: GroupData) -> int:
    """Order of the center: the gcd of the degrees."""
    return math.gcd(*data.degrees)


def _divisible(data: GroupData, d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The degrees and the codegrees divisible by d, in sorted order."""
    return (
        tuple(x for x in data.degrees if x % d == 0),
        tuple(x for x in data.codegrees if x % d == 0),
    )


def regularity(data: GroupData, d: int) -> RegularityReport:
    """Decide whether d is a regular number for the group.

    d is regular exactly when it divides as many degrees as codegrees
    (0 is divisible by everything, so the smallest codegree always passes).
    For regular d the report also carries the regularity class: all regular
    e cutting out the same divisible degrees and codegrees as d, together
    with the class member dividing all others when such a member exists.
    """
    if d < 1:
        raise GarsideError(f"regularity is defined for positive d, got {d}")
    a, b = _divisible(data, d)
    if len(a) != len(b):
        return RegularityReport(d, a, b, False, None, None, None)
    members = tuple(e for e in regular_numbers(data) if _divisible(data, e) == (a, b))
    minimum = next(
        (e for e in members if all(other % e == 0 for other in members)), None
    )
    return RegularityReport(d, a, b, True, math.gcd(*(a + b)), members, minimum)


def regular_numbers(data: GroupData) -> tuple[int, ...]:
    """All regular d, in ascending order.

    The codegree 0 is divisible by every d, so a regular d divides at least
    one degree: the candidates are the divisors of the degrees.
    """
    return _regular_numbers(data)


# `regularity` reads the regular numbers once per regular d, so a report of
# every regular number would otherwise rescan the divisors of the degrees
# for each.  The cache sits on a private function: the public one stays a
# plain function, which tools that wrap a module's functions recognise.
@lru_cache(maxsize=64)
def _regular_numbers(data: GroupData) -> tuple[int, ...]:
    candidates = set()
    for degree in set(data.degrees):
        for k in range(1, math.isqrt(degree) + 1):
            if degree % k == 0:
                candidates.update((k, degree // k))
    filters = ((d, *_divisible(data, d)) for d in sorted(candidates))
    return tuple(d for d, a, b in filters if len(a) == len(b))


def _regular_reports(data: GroupData) -> list[RegularityReport]:
    return [regularity(data, d) for d in regular_numbers(data)]


def _regularity_payload(report: RegularityReport) -> dict:
    return {
        "d": report.d,
        "regular": report.regular,
        "degrees_divisible": list(report.a),
        "codegrees_divisible": list(report.b),
        "fundamental": report.fundamental,
        "class": None if report.r_class is None else list(report.r_class),
        "class_minimum": report.class_minimum,
    }


def _series_universe(max_de: int, max_n: int) -> list[tuple[int, int, int]]:
    """Series parameters entering the pair search.

    Rank-one members (n = 1) are excluded: the cyclic group of order d
    appears as G(de, e, 1) for every e, so keeping them would report each
    cyclic group as isodiscriminantal with its own reparametrizations.
    G(2,2,2) is excluded as reducible.  Each e is listed with its multiples
    de <= max_de, so the loop grows as max_de log max_de, and the sort
    restores the order by (de, e, n).
    """
    params = [
        (de, e, n)
        for e in range(1, max_de + 1)
        for de in range(e, max_de + 1, e)
        for n in range(2, max_n + 1)
        if (de, e, n) != (2, 2, 2)
    ]
    params.sort()
    return params


def isodiscriminantal_pairs(
    max_de: int = 120, max_n: int = 10
) -> list[IsoPair]:
    """Unordered pairs of distinct groups sharing degrees and codegrees.

    The universe is every exceptional group plus every series member with
    2 <= n <= max_n and de <= max_de.  Two groups are paired when their
    degree multisets and codegree multisets both coincide.
    """
    universe: list[GroupData] = list(exceptional_table().values())
    for de, e, n in _series_universe(max_de, max_n):
        universe.append(series_data(de, e, n))
    by_key: dict[tuple[tuple[int, ...], tuple[int, ...]], list[GroupData]] = {}
    for data in universe:
        by_key.setdefault((data.degrees, data.codegrees), []).append(data)
    pairs = []
    for (degrees, codegrees), members in by_key.items():
        for left, right in itertools.combinations(members, 2):
            pairs.append(IsoPair(left.name, right.name, degrees, codegrees))
    pairs.sort(key=lambda p: (p.degrees, p.codegrees, p.first, p.second))
    return pairs
