"""Reference regularity arithmetic for differential tests.

The original per-candidate version: `regular_numbers` builds the full
regularity report of every d up to the bound and keeps the regular ones,
and each regular report rescans every e up to the bound for its class.
`series_universe` is the original pair-search universe, which tries every
e <= de for every de, and `isodiscriminantal_pairs` the original search,
which builds the named GroupData of every member of it.
"""

import itertools
import math

from garside.errors import GarsideError
from garside.reflgroups import (
    GroupData,
    IsoPair,
    RegularityReport,
    exceptional_table,
    series_data,
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
    a = tuple(x for x in data.degrees if x % d == 0)
    b = tuple(x for x in data.codegrees if x % d == 0)
    regular = len(a) == len(b)
    if not regular:
        return RegularityReport(d, a, b, False, None, None, None)
    fundamental = math.gcd(*(a + b))
    bound = max(data.degrees + data.codegrees)
    members = []
    for e in range(1, bound + 1):
        ea = tuple(x for x in data.degrees if x % e == 0)
        eb = tuple(x for x in data.codegrees if x % e == 0)
        if ea == a and eb == b and len(ea) == len(eb):
            members.append(e)
    minimum = None
    for e in members:
        if all(other % e == 0 for other in members):
            minimum = e
            break
    return RegularityReport(
        d, a, b, True, fundamental, tuple(members), minimum
    )


def regular_numbers(data: GroupData) -> tuple[int, ...]:
    """All regular d up to the largest degree or codegree."""
    bound = max(data.degrees + data.codegrees)
    return tuple(
        d for d in range(1, bound + 1) if regularity(data, d).regular
    )


def series_universe(max_de: int, max_n: int) -> list[tuple[int, int, int]]:
    """Series parameters (de, e, n) entering the pair search, in order."""
    params = []
    for de in range(1, max_de + 1):
        for e in range(1, de + 1):
            if de % e != 0:
                continue
            for n in range(2, max_n + 1):
                if (de, e, n) == (2, 2, 2):
                    continue
                params.append((de, e, n))
    return params


def isodiscriminantal_pairs(max_de: int, max_n: int) -> list[IsoPair]:
    """Pairs of distinct groups sharing degrees and codegrees."""
    universe = list(exceptional_table().values())
    universe += [series_data(*params) for params in series_universe(max_de, max_n)]
    by_key: dict = {}
    for data in universe:
        by_key.setdefault((data.degrees, data.codegrees), []).append(data)
    pairs = [
        IsoPair(left.name, right.name, *key)
        for key, members in by_key.items()
        for left, right in itertools.combinations(members, 2)
    ]
    pairs.sort(key=lambda p: (p.degrees, p.codegrees, p.first, p.second))
    return pairs
