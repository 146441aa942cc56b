"""Where a presentation comes from, and the cache of built structures.

A source resolves in order: an existing file path; ``g12`` or ``g13``, read
from the data files beside this module; ``typeb<n>`` for n >= 1, generated by
``typeb_presentation(n)``.  Either name may end in ``.gar``.  A named
presentation is read or generated once, a file on every call.  Built
structures are cached per presentation and budget.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache

from .errors import GarsideError, int_digit_limit
from .monoid import GarsideStructure, build_garside
from .presentation import DEFAULT_BUDGET, Presentation, check_strata, parse_presentation

_DATA = os.path.join(os.path.dirname(__file__), "data")
_TYPEB_RE = re.compile(r"typeb([1-9][0-9]*)\Z")


def load_presentation(source: str, budget: int = DEFAULT_BUDGET) -> Presentation:
    """The presentation a path, shipped name or generated name stands for.

    A path is read on every call; a shipped or generated name is read or
    generated once (see _named).  Raises FileNotFoundError when the source
    is none of these, and BudgetExceeded, before generating anything, for a
    generated presentation whose build the budget refuses (GarsideError
    when its rank has more digits than the interpreter reads as an int).
    """
    name = source.removesuffix(".gar")
    if os.path.isfile(source):
        with open(source, encoding="utf-8") as f:
            return parse_presentation(f.read())
    if name in ("g12", "g13"):
        return _named(name)
    if match := _TYPEB_RE.match(name):
        # int() refuses more digits than the interpreter's limit, so such an
        # n is refused by its length.
        limit = int_digit_limit()
        if limit and len(match[1]) > limit:
            raise GarsideError(
                f"typeb<n>: n has more than {limit} digits, the interpreter's "
                "limit for reading an integer"
            )
        n = int(match[1])
        check_strata(n, n * n, budget)
        return _named(name)
    raise FileNotFoundError(
        f"{source!r} is not a file or a bundled presentation "
        "(bundled: g12, g13, typeb<n> for n >= 1)"
    )


@lru_cache(maxsize=8)
def _named(name: str) -> Presentation:
    """The presentation of a shipped name or a typeb<n>, made once per name."""
    if name.startswith("typeb"):
        from .typeb import typeb_presentation

        return typeb_presentation(int(name[5:]))
    with open(os.path.join(_DATA, f"{name}.gar"), encoding="utf-8") as f:
        return parse_presentation(f.read())


@lru_cache(maxsize=8)
def _structure(p: Presentation, budget: int) -> GarsideStructure:
    return build_garside(p, budget)


def get_structure(
    source: str, budget: int = DEFAULT_BUDGET
) -> GarsideStructure:
    """Build (or fetch from cache) the verified structure for a source."""
    return _structure(load_presentation(source, budget), budget)
