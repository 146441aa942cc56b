"""Command-line verification driver.

Subcommands
-----------
verify      axiom report for a presentation
nf          normal form of a (possibly signed) word
divided     the divided category C_p^q as JSON or DOT
roots       existence and conjugacy of d-th roots of a central delta power
regular     regular-number arithmetic for a reflection group
pairs       isodiscriminantal pair search over the group catalogue
typeb       type B family: presentation, epsilon check, winding
scenario    bundled end-to-end verification suites

Reports are JSON on stdout with a ``schema`` field and deterministic
ordering; diagnostics go to stderr.  Exit status: 0 when every check
passes, 1 when a verification claim fails, 2 for input or environment
problems (unreadable source, bad arguments, enumeration budget).  The
enumeration budget is set by ``--budget`` alone; it caps each word stratum
of a structure's build, each divided set enumerated over it, the length
of the Delta a ``typeb`` listing writes, and the trial divisions that list
a group's regular numbers.

Word arguments use the ``.gar`` token syntax, whitespace-separated, with
an optional ``^-1`` suffix per letter for inverses.

Each run executes one subcommand in a fresh process, so this module loads
only ``argparse``, ``json``, ``sys``, ``time`` and ``garside.errors`` at the
top.  Each ``_cmd_*`` imports the package modules it runs in its own body,
and only ``run_scenario`` loads the suites in ``garside.scenarios``.  No
module of the package imports this one: under ``python -m garside.cli`` it
is ``__main__``, and an import would execute it a second time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import (
    DEFAULT_BUDGET,
    AxiomViolation,
    BudgetExceeded,
    GarsideError,
    NonComposablePath,
    PeriodicityError,
    int_digit_limit,
    number_text,
)

# The suites of `scenario`; a test checks this against scenarios._SCENARIOS.
SCENARIO_NAMES = (
    "verify-g12",
    "verify-g13",
    "verify-typeb",
    "verify-regular",
    "verify-pairs",
)


def _emit(payload: dict) -> None:
    # Serialise before writing, so a report that fails to serialise leaves
    # nothing on stdout.
    text = json.dumps(payload, indent=2)
    sys.stdout.write(text + "\n")


# -- ad-hoc subcommands ------------------------------------------------------


def _cmd_verify(args: argparse.Namespace, budget: int) -> int:
    from . import bundled
    from .monoid import verify_presentation

    report = verify_presentation(bundled.load_presentation(args.source, budget), budget)
    _emit({"schema": 1, "source": args.source, **report})
    return 0 if all(report["axioms"].values()) else 1


def _cmd_nf(args: argparse.Namespace, budget: int) -> int:
    from . import bundled
    from .presentation import _parse_signed_word

    g = bundled.get_structure(args.source, budget)
    text = " ".join(args.word)
    nf = g.normal_form_signed(_parse_signed_word(g.presentation, text))
    _emit(
        {
            "schema": 1,
            "source": args.source,
            "word": text,
            "delta_power": nf.delta_power,
            "factors": [g.render_simple(f) for f in nf.factors],
            "rendered": g.format_normal_form(nf),
            "canonical_length": g.nf_length(nf),
        }
    )
    return 0


def _render_dot(cat: divided.DividedCategory) -> str:
    lines = [f'digraph "C_{cat.p}^{cat.q}" {{']
    for oid in range(len(cat.objects)):
        lines.append(f'  o{oid} [label="{cat.object_label(oid)}"];')
    for mid, m in enumerate(cat.morphisms):
        style = ", style=dashed" if mid in cat.eliminated else ""
        lines.append(
            f'  o{m.source} -> o{m.target} [label="{cat.morphism_label(mid)}"{style}];'
        )
    lines.append("}")
    return "\n".join(lines)


def _cmd_divided(args: argparse.Namespace, budget: int) -> int:
    if args.p < 1 or args.q < 0:
        raise GarsideError("need p >= 1 and q >= 0")
    from . import bundled, divided

    g = bundled.get_structure(args.source, budget)
    cat = divided.build_category(g, args.p, args.q)
    if args.dot:
        sys.stdout.write(_render_dot(cat) + "\n")
        return 0
    _emit(
        {
            "schema": 1,
            "source": args.source,
            "p": args.p,
            "q": args.q,
            "objects": [
                {"id": oid, "label": cat.object_label(oid)}
                for oid in range(len(cat.objects))
            ],
            "morphisms": [
                {
                    "id": mid,
                    "label": cat.morphism_label(mid),
                    "src": m.source,
                    "tgt": m.target,
                    "endo": m.is_endo(),
                    "eliminated": mid in cat.eliminated,
                }
                for mid, m in enumerate(cat.morphisms)
            ],
            "relations": [
                {"lhs": lhs, "rhs": rhs, "label": cat.relation_label((lhs, rhs))}
                for lhs, rhs in cat.relations
            ],
            "component_count": len(divided.components(cat)),
        }
    )
    return 0


def _cmd_roots(args: argparse.Namespace, budget: int) -> int:
    if args.d < 1 or args.zp < 1:
        raise GarsideError(f"exponents must be positive, got ({args.d}, {args.zp})")
    from . import bundled, periodic
    from .periodic import _centralizer_payload

    g = bundled.get_structure(args.source, budget)
    report = periodic.roots_report(g, args.zp, args.d, with_centralizer=args.centralizer)
    _emit(
        {
            "schema": 1,
            "source": args.source,
            "zp_power": args.zp,
            **report._asdict(),
            "centralizer": _centralizer_payload(g, report.centralizer),
        }
    )
    return 0


def _cmd_regular(args: argparse.Namespace, budget: int) -> int:
    from . import reflgroups
    from .reflgroups import _regular_reports, _regularity_payload

    data = reflgroups.group_data(args.group)
    order = reflgroups.group_order(data)
    # json.dumps cannot print an int past the interpreter's int-to-str
    # digit limit, so such an order is refused up front.
    limit = int_digit_limit()
    if limit and order >= 10**limit:
        raise GarsideError(
            f"{data.name}: the group order has more than {limit} digits, "
            "the interpreter's limit for printing an integer"
        )
    payload = {
        "schema": 1,
        "group": data.name,
        "degrees": list(data.degrees),
        "codegrees": list(data.codegrees),
        "rank": data.rank,
        "order": order,
        "center_order": reflgroups.center_order(data),
    }
    if args.d is not None:
        report = reflgroups.regularity(data, args.d, budget)
        payload["report"] = _regularity_payload(report)
    else:
        reports = _regular_reports(data, budget)
        payload["regular_numbers"] = [rep.d for rep in reports]
        payload["reports"] = [_regularity_payload(rep) for rep in reports]
    _emit(payload)
    return 0


def _cmd_pairs(args: argparse.Namespace, budget: int) -> int:
    from . import reflgroups

    pairs = reflgroups.isodiscriminantal_pairs(args.max_de, args.max_n)
    _emit(
        {
            "schema": 1,
            "max_de": args.max_de,
            "max_n": args.max_n,
            "count": len(pairs),
            "pairs": [p._asdict() for p in pairs],
        }
    )
    return 0


def _cmd_typeb(args: argparse.Namespace, budget: int) -> int:
    from . import typeb
    from .monoid import build_garside
    from .presentation import _parse_signed_word, check_strata

    if args.n >= 1:
        # Refuse an over-budget rank before generating its n(n-1)/2
        # relations: the strata need only n and |delta| = n^2, and the
        # listing alone holds delta's n^2 letters.  A rank below 1 is left
        # to typeb_presentation's own error.
        if args.check_epsilon:
            check_strata(args.n, args.n * args.n, budget)
        if args.n * args.n > budget:
            raise BudgetExceeded(
                f"the delta of {number_text(args.n, 'generators')} has "
                f"{number_text(args.n * args.n, 'letters')}",
                budget,
            )
    p = typeb.typeb_presentation(args.n)
    payload: dict = {
        "schema": 1,
        "n": args.n,
        "generators": list(p.generators),
        "relations": [f"{p.render(lhs)} = {p.render(rhs)}" for lhs, rhs in p.relations],
        "delta": p.render(p.delta_word),
    }
    failed = False
    if args.check_epsilon:
        g = build_garside(p, budget)
        report = typeb.check_epsilon(g, args.n)
        payload["simple_count"] = len(g.simples)
        payload["epsilon_check"] = report
        failed = not (
            report["epsilon_power_is_delta"] and report["delta_central"]
        )
    if args.wd is not None:
        letters = _parse_signed_word(p, args.wd)
        payload["winding"] = {"word": args.wd, "value": typeb.winding(letters)}
    if args.member is not None:
        if args.e is None:
            raise GarsideError("--member requires -e to name the subgroup index")
        letters = _parse_signed_word(p, args.member)
        payload["membership"] = {
            "word": args.member,
            "e": args.e,
            "member": typeb.is_member(letters, args.e),
        }
    _emit(payload)
    return 1 if failed else 0


# -- scenario suites ---------------------------------------------------------


def run_scenario(name: str, budget: int = DEFAULT_BUDGET, timings: bool = False) -> dict:
    """Execute a bundled suite and return its report dict.

    Math-level failures become failed checks inside the report; missing
    sources and budget overruns propagate so the caller can abort without
    emitting a partial report.
    """
    from .scenarios import _SCENARIOS

    results = []
    for cid, description, expected, probe, *args in _SCENARIOS[name]:
        start = time.perf_counter()
        try:
            actual = probe(budget, *args)
        except BudgetExceeded:
            raise
        except GarsideError as exc:
            actual = f"error: {exc}"
        elapsed = (time.perf_counter() - start) * 1000.0
        results.append(
            {
                "id": cid,
                "description": description,
                "expected": expected,
                "actual": actual,
                "pass": actual == expected,
                "elapsed_ms": round(elapsed, 3) if timings else None,
            }
        )
    return {
        "schema": 1,
        "scenario": name,
        "pass": all(item["pass"] for item in results),
        "checks": results,
    }


def _cmd_scenario(args: argparse.Namespace, budget: int) -> int:
    report = run_scenario(args.name, budget, timings=args.timings)
    _emit(report)
    return 0 if report["pass"] else 1


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garside",
        description="Garside structure computations and verification suites.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="cap on the words of each stratum of a build, the tuples of each "
        f"divided set and the trial divisions of regular (default {DEFAULT_BUDGET})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", parents=[shared], help="check the Garside axioms for a presentation"
    )
    p_verify.add_argument("source", help="presentation file or bundled name")
    p_verify.set_defaults(handler=_cmd_verify)

    p_nf = sub.add_parser(
        "nf", parents=[shared], help="normal form of a word in the enveloping group"
    )
    p_nf.add_argument("source", help="presentation file or bundled name")
    p_nf.add_argument("word", nargs="+", help="letters, each optionally with ^-1")
    p_nf.set_defaults(handler=_cmd_nf)

    p_div = sub.add_parser(
        "divided", parents=[shared], help="divided category C_p^q"
    )
    p_div.add_argument("source", help="presentation file or bundled name")
    p_div.add_argument("-p", type=int, required=True, help="tuple length")
    p_div.add_argument("-q", type=int, required=True, help="twisted-shift power")
    p_div.add_argument("--dot", action="store_true", help="emit a DOT graph instead of JSON")
    p_div.set_defaults(handler=_cmd_divided)

    p_roots = sub.add_parser(
        "roots", parents=[shared], help="d-th roots of the central power delta^k"
    )
    p_roots.add_argument("source", help="presentation file or bundled name")
    p_roots.add_argument("--zp", type=int, required=True, help="central delta power k")
    p_roots.add_argument("-d", type=int, required=True, help="root order")
    p_roots.add_argument(
        "--centralizer",
        action="store_true",
        help="summarize the vertex group at the first object",
    )
    p_roots.set_defaults(handler=_cmd_roots)

    p_reg = sub.add_parser(
        "regular", parents=[shared], help="regular numbers of a reflection group"
    )
    p_reg.add_argument("group", help='group name, e.g. "G12" or "G(12,12,2)"')
    p_reg.add_argument("-d", type=int, default=None, help="report a single candidate")
    p_reg.set_defaults(handler=_cmd_regular)

    p_pairs = sub.add_parser(
        "pairs", parents=[shared], help="groups sharing degrees and codegrees"
    )
    p_pairs.add_argument("--max-de", type=int, default=120, help="series cap on de")
    p_pairs.add_argument("--max-n", type=int, default=10, help="series cap on n")
    p_pairs.set_defaults(handler=_cmd_pairs)

    p_typeb = sub.add_parser(
        "typeb", parents=[shared], help="type B family presentation and checks"
    )
    p_typeb.add_argument("-n", type=int, required=True, help="number of generators")
    p_typeb.add_argument(
        "--check-epsilon",
        action="store_true",
        help="verify epsilon^n = delta (builds the structure; n <= 3 at the "
        "default budget)",
    )
    p_typeb.add_argument("--wd", metavar="WORD", help="winding number of a signed word")
    p_typeb.add_argument(
        "--member", metavar="WORD", help="test membership in the winding kernel mod e"
    )
    p_typeb.add_argument("-e", type=int, default=None, help="subgroup index for --member")
    p_typeb.set_defaults(handler=_cmd_typeb)

    p_scen = sub.add_parser(
        "scenario", parents=[shared], help="run a bundled verification suite"
    )
    p_scen.add_argument("name", choices=SCENARIO_NAMES)
    p_scen.add_argument(
        "--timings", action="store_true", help="record per-check elapsed milliseconds"
    )
    p_scen.set_defaults(handler=_cmd_scenario)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.budget < 1:
            raise GarsideError(
                f"budget must be positive, got {number_text(args.budget)}"
            )
        return args.handler(args, args.budget)
    except (AxiomViolation, PeriodicityError, NonComposablePath) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GarsideError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
