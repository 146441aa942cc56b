"""Exception types shared across the package, and the default budget.

The split mirrors the CLI exit-code contract: input problems (bad files,
unknown groups, enumeration budgets) are user-facing and map to exit code 2,
while axiom violations found in otherwise well-formed data map to exit code 1.
Engine bugs raise plain AssertionError and are never caught.
"""

from __future__ import annotations

import sys

# Default per-stratum word cap.  Desk-scale inputs (three generators, Delta
# of length at most nine) stay under it with room to spare.
DEFAULT_BUDGET = 3**10


def int_digit_limit() -> int:
    """The interpreter's limit on the digits int() reads and str() writes.

    0, or an interpreter without such a limit, means none.
    """
    return getattr(sys, "get_int_max_str_digits", int)()


def number_text(n: int, unit: str = "") -> str:
    """n in decimal, followed by unit; past 30 digits, its digit count.

    number_text(5, "words") is "5 words", and number_text(10**40, "words")
    is "a 41-digit number of words", so an error message stays one short
    line.  A negative n is a minus sign followed by the text of -n.  str()
    refuses ints of more digits than int_digit_limit(), so the count starts
    from a lower bound read off the bit length.
    """
    if n < 0:
        return "-" + number_text(-n, unit)
    if n < 10**30:
        return f"{n} {unit}" if unit else str(n)
    digits = max(1, int((n.bit_length() - 1) * 0.3010299956639812))
    while 10**digits <= n:
        digits += 1
    return f"a {digits}-digit number" + (f" of {unit}" if unit else "")


class GarsideError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GarsideError):
    """Malformed `.gar` document or word syntax."""


class InhomogeneousPresentation(GarsideError):
    """A relation changes word length, so no length morphism exists."""

    def __init__(self, indices: list[int]) -> None:
        self.indices = indices
        super().__init__(f"relations at indices {indices} are not length-preserving")


class BudgetExceeded(GarsideError):
    """An enumeration went past the budget; `what` says how far it got."""

    def __init__(self, what: str, budget: int) -> None:
        self.budget = budget
        super().__init__(f"{what}, over the budget of {number_text(budget)}")


class AxiomViolation(GarsideError):
    """A Garside axiom failed on the input presentation.

    `kind` is one of "balanced", "lattice", "phi"; `witnesses` is a list of
    human-readable strings pinpointing the failure.  The build raises only
    "balanced" and "lattice": the phi stage holds whenever the lattice stage
    does (see garside.monoid), so a report never shows it false, and shows
    it null only after an earlier stage failed.
    """

    def __init__(self, kind: str, witnesses: list[str]) -> None:
        self.kind = kind
        self.witnesses = witnesses
        super().__init__(f"{kind} axiom failed: {'; '.join(witnesses[:3])}")


class PeriodicityError(GarsideError):
    """A root/periodicity precondition failed; the message is the witness identity."""


class UnknownGroup(GarsideError):
    """Group name not in the exceptional table and not valid series parameters."""


class NonComposablePath(GarsideError):
    """A morphism path whose consecutive endpoints do not match."""
