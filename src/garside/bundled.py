"""Access to the presentations shipped with the package.

Sources given to the CLI (and to tests) resolve in two steps: an existing
filesystem path wins, otherwise the source is treated as a bundled name
(``g12``, ``g13``, ``typeb2``, ``typeb3``, with or without the ``.gar``
suffix).  Built structures are cached per presentation text and budget, so
repeated lookups do not rebuild the simples and their tables.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from pathlib import Path

from .monoid import GarsideStructure, build_garside
from .presentation import DEFAULT_BUDGET, Presentation, parse_presentation

BUNDLED_NAMES = ("g12", "g13", "typeb2", "typeb3")


def read_source(source: str) -> str:
    """Presentation text for a path or bundled name.

    Raises FileNotFoundError when the source is neither an existing file
    nor a bundled name.
    """
    path = Path(source)
    if path.is_file():
        return path.read_text(encoding="utf-8")
    name = source.removesuffix(".gar")
    if name in BUNDLED_NAMES:
        return (
            resources.files("garside")
            .joinpath(f"data/{name}.gar")
            .read_text(encoding="utf-8")
        )
    raise FileNotFoundError(
        f"{source!r} is not a file or a bundled presentation "
        f"(bundled: {', '.join(BUNDLED_NAMES)})"
    )


def load_presentation(source: str) -> Presentation:
    return parse_presentation(read_source(source))


@lru_cache(maxsize=8)
def _structure_for_text(text: str, budget: int) -> GarsideStructure:
    return build_garside(parse_presentation(text), budget)


def get_structure(
    source: str, budget: int = DEFAULT_BUDGET
) -> GarsideStructure:
    """Build (or fetch from cache) the verified structure for a source."""
    return _structure_for_text(read_source(source), budget)
