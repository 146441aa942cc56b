"""Where a presentation comes from, and the cache of built structures.

A source resolves in order: an existing file path; ``g12`` or ``g13``, read
from the data files beside this module; ``typeb<n>`` for n >= 1, generated by
``typeb_presentation(n)``.  Either name may end in ``.gar``.  Built
structures are cached per presentation and budget.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache

from .monoid import GarsideStructure, build_garside
from .presentation import DEFAULT_BUDGET, Presentation, check_strata, parse_presentation

_DATA = os.path.join(os.path.dirname(__file__), "data")
_TYPEB_RE = re.compile(r"typeb([1-9][0-9]*)\Z")


def load_presentation(source: str, budget: int = DEFAULT_BUDGET) -> Presentation:
    """The presentation a path, shipped name or generated name stands for.

    Raises FileNotFoundError when the source is none of these, and
    BudgetExceeded, before generating anything, for a generated
    presentation whose build the budget refuses.
    """
    name = source.removesuffix(".gar")
    if os.path.isfile(source):
        path = source
    elif name in ("g12", "g13"):
        path = os.path.join(_DATA, f"{name}.gar")
    elif match := _TYPEB_RE.match(name):
        from .typeb import typeb_presentation

        n = int(match[1])
        check_strata(n, n * n, budget)
        return typeb_presentation(n)
    else:
        raise FileNotFoundError(
            f"{source!r} is not a file or a bundled presentation "
            "(bundled: g12, g13, typeb<n> for n >= 1)"
        )
    with open(path, encoding="utf-8") as f:
        return parse_presentation(f.read())


@lru_cache(maxsize=8)
def _structure(p: Presentation, budget: int) -> GarsideStructure:
    return build_garside(p, budget)


def get_structure(
    source: str, budget: int = DEFAULT_BUDGET
) -> GarsideStructure:
    """Build (or fetch from cache) the verified structure for a source."""
    return _structure(load_presentation(source, budget), budget)
