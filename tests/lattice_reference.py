"""Reference lattice tables for differential tests.

`bound_table` is the original candidate scan: for each pair a <= b it lists
every common divisor (multiple) w in masks[a] & masks[b], keeps those that
every other one divides (is divided by), and requires exactly one.
"""

from garside.errors import AxiomViolation
from garside.monoid import GarsideStructure


def left_divides(g: GarsideStructure, a: int, b: int) -> bool:
    return bool(g.left_div_mask[b] >> a & 1)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bound_table(
    g: GarsideStructure, masks: list[int], kind: str, lower: bool
) -> list[list[int]]:
    """gcd table when lower (masks = divisor masks), lcm table otherwise."""
    n = len(g.simples)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            common = masks[a] & masks[b]
            winners = [w for w in _bits(common) if common & ~masks[w] == 0]
            if len(winners) != 1:
                what = ("gcd" if lower else "lcm") + f" ({kind})"
                raise AxiomViolation(
                    "lattice",
                    [
                        f"{what} of {g.render_simple(a)} and {g.render_simple(b)} "
                        f"has {len(winners)} candidates"
                    ],
                )
            table[a][b] = table[b][a] = winners[0]
    return table
