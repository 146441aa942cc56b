"""Periodic-element arithmetic: exponent reduction, Bezout roots, root reports.

An element gamma is (p,q)-periodic when gamma^p = Delta^q.  Exponents reduce
by their gcd; commuting roots rho (a d-th root of the central z_P) and delta
(an r-th root) combine through a Bezout pair d'u + r'v = 1 into the common
root q(rho) = rho^v delta^u, whose defining identities are re-verified by
normal-form computation rather than trusted.  Existence and conjugacy of
d-th roots of z_P are read off the divided category C_{p'}^{q'} where
(p', q') = reduce_exponents(d, zp_power).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .divided import (
    DividedCategory,
    build_category,
    collapse,
    components,
    simplify_presentation,
    vertex_group,
)
from .errors import PeriodicityError
from .monoid import GarsideStructure, NormalForm


def reduce_exponents(p: int, q: int) -> tuple[int, int]:
    """Divide out the gcd: gamma^p = Delta^q iff a power identity in coprime form."""
    if p < 1 or q < 1:
        raise PeriodicityError(f"exponents must be positive, got ({p}, {q})")
    g = math.gcd(p, q)
    return p // g, q // g


def bezout_pair(p: int, q: int) -> tuple[int, int]:
    """Smallest u >= 0 with v <= 0 and p*u + q*v = 1.

    That u is p^-1 mod q, except for q = 1, where u = 0 gives v = 1 and the
    next u = 1 gives v = 1 - p <= 0.
    """
    if p < 1 or q < 1:
        raise PeriodicityError(f"exponents must be positive, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise PeriodicityError(f"({p}, {q}) are not coprime")
    u = pow(p, -1, q) or q
    return u, (1 - p * u) // q


def bezout_root(
    g: GarsideStructure,
    rho: NormalForm,
    delta: NormalForm,
    d: int,
    r: int,
    zp_power: int,
) -> NormalForm:
    """Common root q = rho^v delta^u of commuting roots of z_P = Delta^zp_power.

    Verifies the preconditions (rho^d = delta^r = z_P, commutation), the
    output identities q^d' = delta, q^r' = rho, q^lcm(d,r) = z_P, and
    independence of the Bezout pair; any failure raises with a witness.
    """
    z = NormalForm(zp_power, ())
    if g.power(rho, d) != z:
        raise PeriodicityError(f"rho^{d} != Delta^{zp_power}")
    if g.power(delta, r) != z:
        raise PeriodicityError(f"delta^{r} != Delta^{zp_power}")
    if g.multiply(rho, delta) != g.multiply(delta, rho):
        raise PeriodicityError("rho and delta do not commute")
    g0 = math.gcd(d, r)
    dd, rr = d // g0, r // g0
    u, v = bezout_pair(dd, rr)
    root = g.multiply(g.power(rho, v), g.power(delta, u))
    second = g.multiply(g.power(rho, v - dd), g.power(delta, u + rr))
    if second != root:
        raise PeriodicityError("root depends on the Bezout pair")
    checks = [
        (g.power(root, math.lcm(d, r)), z, f"q^lcm({d},{r}) != z_P"),
        (g.power(root, dd), delta, f"q^{dd} != delta"),
        (g.power(root, rr), rho, f"q^{rr} != rho"),
    ]
    for actual, expected, message in checks:
        if actual != expected:
            raise PeriodicityError(message)
    return root


def candidate_root_orders(g: GarsideStructure, zp_power: int) -> list[int]:
    """Divisors of the length of z_P = Delta^zp_power."""
    total = zp_power * g.delta_length
    return [d for d in range(1, total + 1) if total % d == 0]


class CentralizerSummary(
    namedtuple(
        "CentralizerSummary",
        [
            "generator_count",
            "relator_count",
            "cyclic",
            "generator_collapse",  # NormalForm of the one generator, else None
        ],
    )
):
    __slots__ = ()
    # The Tietze pass always ends, so no summary is inconclusive; reports
    # keep the key.
    inconclusive = False


class RootReport(
    namedtuple(
        "RootReport",
        [
            "d",
            "p_reduced",
            "q_reduced",
            "object_count",
            "morphism_count",
            "component_count",
            "exists",
            "centralizer",  # CentralizerSummary, or None when not asked for
        ],
    )
):
    __slots__ = ()


def _centralizer_payload(
    g: GarsideStructure, summary: CentralizerSummary | None
) -> dict | None:
    if summary is None:
        return None
    collapse = summary.generator_collapse
    return {
        "generators": summary.generator_count,
        "relators": summary.relator_count,
        "cyclic": summary.cyclic,
        "collapse": None if collapse is None else g.format_normal_form(collapse),
        "inconclusive": summary.inconclusive,
    }


def roots_report(
    g: GarsideStructure,
    zp_power: int,
    d: int,
    with_centralizer: bool = False,
) -> RootReport:
    """Existence/conjugacy of d-th roots of z_P via the divided category."""
    if not g.is_central(NormalForm(zp_power, ())):
        raise PeriodicityError(f"Delta^{zp_power} is not central")
    p, q = reduce_exponents(d, zp_power)
    cat = build_category(g, p, q)
    parts = components(cat)
    summary = None
    if with_centralizer and cat.objects:
        summary = centralizer_summary(cat, base=0)
    return RootReport(
        d=d,
        p_reduced=p,
        q_reduced=q,
        object_count=len(cat.objects),
        morphism_count=len(cat.generator_ids()),
        component_count=len(parts),
        exists=bool(cat.objects),
        centralizer=summary,
    )


def centralizer_summary(cat: DividedCategory, base: int) -> CentralizerSummary:
    """The vertex group at base, simplified, as the roots report gives it.

    It is cyclic when at most one generator and no relator survive the
    Tietze pass.  Only a single surviving generator is collapsed to the
    Garside group, through its loop path.
    """
    v = vertex_group(cat, base)
    simplified = simplify_presentation(v)
    image = None
    if len(simplified.generators) == 1:
        image = collapse(cat, v.loop_paths[simplified.generators[0]])
    return CentralizerSummary(
        generator_count=len(simplified.generators),
        relator_count=len(simplified.relators),
        cyclic=len(simplified.generators) <= 1 and not simplified.relators,
        generator_collapse=image,
    )
