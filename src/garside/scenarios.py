"""The bundled verification suites that `garside scenario` runs.

Only `garside.cli.run_scenario` loads this module, so the other
subcommands neither import nor compile the suites.
"""

from __future__ import annotations

from functools import lru_cache

from . import bundled, divided, periodic, reflgroups, typeb
from .monoid import NormalForm, verify_presentation
from .periodic import _centralizer_payload
from .presentation import _parse_signed_word
from .reflgroups import _regular_reports

# A suite is a list of rows (id, description, frozen expected value, probe,
# *args); run_scenario compares probe(budget, *args) with the expected value.
# The expected values are literals so a regression shows up as a reported
# mismatch, never as a silently recomputed baseline.

_AXIOMS_OK = {"balanced": True, "lattice": True, "phi": True}
_CUBE_ROOTS = [["a b c"] * 3, ["b c a"] * 3, ["c a b"] * 3]


def _axioms(budget: int, source: str) -> dict:
    return verify_presentation(bundled.load_presentation(source, budget), budget)["axioms"]


def _simple_count(budget: int, source: str) -> int:
    return len(bundled.get_structure(source, budget).simples)


def _phi_order(budget: int, source: str) -> int:
    return bundled.get_structure(source, budget).phi_order


def _phi_atoms(budget: int, source: str) -> list[str]:
    g = bundled.get_structure(source, budget)
    return [g.render_simple(g.phi_simple(a)) for a in g.atoms]


def _power(budget: int, source: str, text: str, k: int) -> str:
    g = bundled.get_structure(source, budget)
    x = g.normal_form(g.presentation.word_from_tokens(text.split()))
    return g.format_normal_form(g.power(x, k))


def _signed_nf(budget: int, source: str, text: str) -> str:
    g = bundled.get_structure(source, budget)
    letters = _parse_signed_word(g.presentation, text)
    return g.format_normal_form(g.normal_form_signed(letters))


def _delta_central(budget: int, source: str, k: int) -> bool:
    return bundled.get_structure(source, budget).is_central(NormalForm(k, ()))


def _divided(budget: int, source: str, p: int, q: int) -> list[list[str]]:
    g = bundled.get_structure(source, budget)
    return [[g.render_simple(a) for a in t] for t in divided.divided_set(g, p, q)]


def _category(budget: int, source: str, p: int, q: int) -> divided.DividedCategory:
    return divided.build_category(bundled.get_structure(source, budget), p, q)


def _category_shape(budget: int, source: str, p: int, q: int) -> dict:
    cat = _category(budget, source, p, q)
    return {
        "objects": len(cat.objects),
        "morphisms": len(cat.generator_ids()),
        "relations": len(cat.relations),
        "components": len(divided.components(cat)),
    }


def _category_generators(budget: int, source: str, p: int, q: int) -> list[dict]:
    cat = _category(budget, source, p, q)
    return [
        {
            "label": cat.morphism_label(mid),
            "src": cat.morphisms[mid].source,
            "tgt": cat.morphisms[mid].target,
        }
        for mid in cat.generator_ids()
    ]


def _category_relations(budget: int, source: str, p: int, q: int) -> list[str]:
    cat = _category(budget, source, p, q)
    return [cat.relation_label(rel) for rel in cat.relations]


def _vertex_summary(budget: int, source: str, p: int, q: int) -> dict:
    cat = _category(budget, source, p, q)
    payload = _centralizer_payload(cat.g, periodic.centralizer_summary(cat, base=0))
    keys = ("generators", "relators", "inconclusive", "collapse")
    return {key: payload[key] for key in keys}


def _collapse_power(budget: int, source: str, p: int, q: int, k: int) -> str:
    cat = _category(budget, source, p, q)
    image = periodic.centralizer_summary(cat, base=0).generator_collapse
    return cat.g.format_normal_form(cat.g.power(image, k))


def _root_orders(budget: int, source: str, zp_power: int) -> list[int]:
    g = bundled.get_structure(source, budget)
    return periodic.candidate_root_orders(g, zp_power)


def _roots_exist(budget: int, source: str, zp_power: int) -> dict[str, bool]:
    g = bundled.get_structure(source, budget)
    return {
        str(d): periodic.roots_report(g, zp_power, d).exists
        for d in periodic.candidate_root_orders(g, zp_power)
    }


def _root_centralizer(budget: int, source: str, zp_power: int, d: int) -> dict:
    g = bundled.get_structure(source, budget)
    report = periodic.roots_report(g, zp_power, d, with_centralizer=True)
    payload = _centralizer_payload(g, report.centralizer)
    assert payload is not None
    keys = ("cyclic", "generators", "relators", "collapse")
    return {key: payload[key] for key in keys}


def _roots_vs_regular(budget: int, source: str, zp_power: int, group: str) -> dict:
    exists = _roots_exist(budget, source, zp_power)
    return {
        "roots": [int(d) for d, found in exists.items() if found],
        "regular": _regular_numbers(budget, group),
    }


def _epsilon(budget: int, n: int) -> dict:
    report = typeb.check_epsilon(bundled.get_structure(f"typeb{n}", budget), n)
    keys = ("epsilon", "epsilon_power_is_delta", "delta_central", "syntactic_b1")
    return {key: report[key] for key in keys}


def _winding(budget: int, n: int, text: str) -> int:
    return typeb.winding(_parse_signed_word(typeb.typeb_presentation(n), text))


def _member(budget: int, n: int, text: str, e: int) -> bool:
    return typeb.is_member(_parse_signed_word(typeb.typeb_presentation(n), text), e)


def _regular_numbers(budget: int, group: str) -> list[int]:
    return list(reflgroups.regular_numbers(reflgroups.group_data(group)))


def _regular_classes(budget: int, group: str) -> dict:
    return {
        str(rep.d): {"class": list(rep.r_class or ()), "minimum": rep.class_minimum}
        for rep in _regular_reports(reflgroups.group_data(group))
    }


def _fundamentals(budget: int, group: str) -> dict:
    return {
        str(rep.d): rep.fundamental
        for rep in _regular_reports(reflgroups.group_data(group))
    }


def _center_anchor(budget: int, *groups: str) -> dict:
    out = {}
    for group in groups:
        data = reflgroups.group_data(group)
        center = reflgroups.center_order(data)
        div = [e for e in range(1, center + 1) if center % e == 0]
        out[group] = list(reflgroups.regularity(data, 1).r_class or ()) == div
    return out


def _regularity(budget: int, group: str, d: int) -> dict:
    rep = reflgroups.regularity(reflgroups.group_data(group), d)
    return {
        "regular": rep.regular,
        "class": list(rep.r_class or ()),
        "minimum": rep.class_minimum,
    }


def _exceptional_minima(budget: int) -> bool:
    return all(
        rep.class_minimum is not None
        for data in reflgroups.exceptional_table().values()
        for rep in _regular_reports(data)
    )


def _fundamental_invariance(budget: int) -> bool:
    for data in reflgroups.exceptional_table().values():
        for rep in _regular_reports(data):
            frep = reflgroups.regularity(data, rep.fundamental)
            if not (frep.regular and frep.a == rep.a and frep.b == rep.b):
                return False
    return True


# verify-pairs counts the default pairs and then lists them: one search
# serves both rows.
@lru_cache(maxsize=1)
def _default_pairs() -> tuple[reflgroups.IsoPair, ...]:
    return tuple(reflgroups.isodiscriminantal_pairs())


def _pair_count(budget: int) -> int:
    return len(_default_pairs())


def _pair_names(budget: int) -> list[list[str]]:
    return [[p.first, p.second] for p in _default_pairs()]


_SCENARIOS: dict[str, list[tuple]] = {
    "verify-g12": [
        ("c01-axioms", "balanced, lattice, and phi axioms hold",
         _AXIOMS_OK, _axioms, "g12"),
        ("c02-simple-count", "eleven simple elements",
         11, _simple_count, "g12"),
        ("c03-phi-order", "phi has order three",
         3, _phi_order, "g12"),
        ("c04-phi-atoms", "phi cycles the atoms s -> t -> u -> s",
         ["t", "u", "s"], _phi_atoms, "g12"),
        ("c05-power-stu-4", "(s t u)^4 = delta^3",
         "delta^3", _power, "g12", "s t u", 4),
        ("c06-power-stu-8", "(s t u)^8 = delta^6",
         "delta^6", _power, "g12", "s t u", 8),
        ("c07-delta3-central", "delta^3 is central",
         True, _delta_central, "g12", 3),
        ("c08-delta-not-central", "delta itself is not central",
         False, _delta_central, "g12", 1),
        ("c09-divided-2-1", "D_2^1 is empty",
         [], _divided, "g12", 2, 1),
        ("c10-divided-4-3", "D_4^3 is the three cyclic atom tuples",
         [["s", "t", "u", "s"], ["t", "u", "s", "t"], ["u", "s", "t", "u"]],
         _divided, "g12", 4, 3),
        ("c11-divided-2-3", "D_2^3 pairs each length-two simple with its complement",
         [["s t", "u s"], ["t u", "s t"], ["u s", "t u"]], _divided, "g12", 2, 3),
        ("c12-divided-4-1", "D_4^1 is empty",
         [], _divided, "g12", 4, 1),
        ("c13-category-1-1", "C_1^1 is a single object with one endomorphism",
         {"objects": 1, "morphisms": 1, "relations": 0, "components": 1},
         _category_shape, "g12", 1, 1),
        ("c14-category-1-3",
         "C_1^3 is connected with all proper simples as endomorphisms",
         {"objects": 1, "morphisms": 10, "relations": 18, "components": 1},
         _category_shape, "g12", 1, 3),
        ("c15-category-4-3", "C_4^3 is a connected three-cycle",
         {"objects": 3, "morphisms": 3, "relations": 0, "components": 1},
         _category_shape, "g12", 4, 3),
        ("c16-category-1-2-vertex",
         "C_1^2 vertex group is infinite cyclic, generated by delta",
         {"generators": 1, "relators": 0, "inconclusive": False, "collapse": "delta"},
         _vertex_summary, "g12", 1, 2),
        ("c17-category-2-3-shape",
         "C_2^3 has three objects, six morphisms, three relations",
         {"objects": 3, "morphisms": 6, "relations": 3, "components": 1},
         _category_shape, "g12", 2, 3),
        ("c18-category-2-3-generators",
         "C_2^3 generating morphisms and their endpoints",
         [
             {"label": "(s, t)", "src": 0, "tgt": 1},
             {"label": "(t, u)", "src": 1, "tgt": 2},
             {"label": "(u, s)", "src": 2, "tgt": 0},
             {"label": "(s t, 1)", "src": 0, "tgt": 2},
             {"label": "(t u, 1)", "src": 1, "tgt": 0},
             {"label": "(u s, 1)", "src": 2, "tgt": 1},
         ],
         _category_generators, "g12", 2, 3),
        ("c19-category-2-3-relations",
         "C_2^3 relations compose consecutive atom morphisms",
         [
             "(s, t) (t, u) = (s t, 1)",
             "(t, u) (u, s) = (t u, 1)",
             "(u, s) (s, t) = (u s, 1)",
         ],
         _category_relations, "g12", 2, 3),
        ("c20-category-2-3-vertex",
         "C_2^3 vertex group simplifies to one free generator",
         {"generators": 1, "relators": 0, "inconclusive": False, "collapse": "s t u"},
         _vertex_summary, "g12", 2, 3),
        ("c21-collapse-root", "the surviving generator is an eighth root of delta^6",
         "delta^6", _collapse_power, "g12", 2, 3, 8),
        ("c22-roots-candidates", "candidate root orders are the divisors of 24",
         [1, 2, 3, 4, 6, 8, 12, 24], _root_orders, "g12", 6),
        ("c23-roots-exist",
         "d-th roots of delta^6 exist exactly for d in {1,2,3,4,6,8}",
         {
             "1": True,
             "2": True,
             "3": True,
             "4": True,
             "6": True,
             "8": True,
             "12": False,
             "24": False,
         },
         _roots_exist, "g12", 6),
        ("c24-roots-8-centralizer",
         "the eighth root has infinite cyclic centralizer on s t u",
         {"cyclic": True, "generators": 1, "relators": 0, "collapse": "s t u"},
         _root_centralizer, "g12", 6, 8),
        ("c25-regular-match",
         "root existence coincides with the regular numbers of G12",
         {"roots": [1, 2, 3, 4, 6, 8], "regular": [1, 2, 3, 4, 6, 8]},
         _roots_vs_regular, "g12", 6, "G12"),
    ],
    "verify-g13": [
        ("c01-axioms", "balanced, lattice, and phi axioms hold",
         _AXIOMS_OK, _axioms, "g13"),
        ("c02-simple-count", "ninety simple elements",
         90, _simple_count, "g13"),
        ("c03-phi-order", "phi is the identity",
         1, _phi_order, "g13"),
        ("c04-power-abc-3", "(a b c)^3 = delta",
         "delta", _power, "g13", "a b c", 3),
        ("c05-power-abc-12", "(a b c)^12 = delta^4",
         "delta^4", _power, "g13", "a b c", 12),
        ("c06-delta-central", "delta is central",
         True, _delta_central, "g13", 1),
        ("c07-divided-3-2", "D_3^2 is the three constant cube-root tuples",
         _CUBE_ROOTS, _divided, "g13", 3, 2),
        ("c08-divided-3-1", "D_3^1 equals D_3^2",
         _CUBE_ROOTS, _divided, "g13", 3, 1),
        ("c09-divided-9-4", "D_9^4 is empty",
         [], _divided, "g13", 9, 4),
        ("c10-category-3-2", "C_3^2 is connected",
         {"objects": 3, "morphisms": 6, "relations": 6, "components": 1},
         _category_shape, "g13", 3, 2),
        ("c11-category-3-1", "C_3^1 is connected",
         {"objects": 3, "morphisms": 6, "relations": 6, "components": 1},
         _category_shape, "g13", 3, 1),
        ("c12-category-3-4-shape",
         "C_3^4 has three objects, six morphisms, six relations",
         {"objects": 3, "morphisms": 6, "relations": 6, "components": 1},
         _category_shape, "g13", 3, 4),
        ("c13-category-3-4-generators",
         "C_3^4 generating morphisms and their endpoints",
         [
             {"label": "(a, b c)", "src": 0, "tgt": 1},
             {"label": "(b, c a)", "src": 1, "tgt": 2},
             {"label": "(c, a b)", "src": 2, "tgt": 0},
             {"label": "(a b, c)", "src": 0, "tgt": 2},
             {"label": "(b c, a)", "src": 1, "tgt": 0},
             {"label": "(c a, b)", "src": 2, "tgt": 1},
         ],
         _category_generators, "g13", 3, 4),
        ("c14-category-3-4-relations",
         "C_3^4 presents six relations after endomorphism elimination",
         [
             "(a, b c) (b, c a) = (a b, c)",
             "(b, c a) (c, a b) = (b c, a)",
             "(c, a b) (a, b c) = (c a, b)",
             "(a b, c) (c, a b) = (a, b c) (b c, a)",
             "(b c, a) (a, b c) = (b, c a) (c a, b)",
             "(c a, b) (b, c a) = (c, a b) (a b, c)",
         ],
         _category_relations, "g13", 3, 4),
        ("c15-category-3-4-vertex",
         "C_3^4 vertex group simplifies to one free generator",
         {"generators": 1, "relators": 0, "inconclusive": False, "collapse": "a b c"},
         _vertex_summary, "g13", 3, 4),
        ("c16-collapse-root", "the surviving generator is a twelfth root of delta^4",
         "delta^4", _collapse_power, "g13", 3, 4, 12),
        ("c17-roots-candidates", "candidate root orders are the divisors of 36",
         [1, 2, 3, 4, 6, 9, 12, 18, 36], _root_orders, "g13", 4),
        ("c18-roots-exist",
         "d-th roots of delta^4 exist exactly for d in {1,2,3,4,6,12}",
         {
             "1": True,
             "2": True,
             "3": True,
             "4": True,
             "6": True,
             "9": False,
             "12": True,
             "18": False,
             "36": False,
         },
         _roots_exist, "g13", 4),
        ("c19-roots-12-centralizer",
         "the twelfth root has infinite cyclic centralizer on a b c",
         {"cyclic": True, "generators": 1, "relators": 0, "collapse": "a b c"},
         _root_centralizer, "g13", 4, 12),
        ("c20-regular-match",
         "root existence coincides with the regular numbers of G13",
         {"roots": [1, 2, 3, 4, 6, 12], "regular": [1, 2, 3, 4, 6, 12]},
         _roots_vs_regular, "g13", 4, "G13"),
    ],
    "verify-typeb": [
        ("c01-b2-axioms", "rank two: balanced, lattice, and phi axioms hold",
         _AXIOMS_OK, _axioms, "typeb2"),
        ("c02-b2-simple-count", "rank two has eight simples",
         8, _simple_count, "typeb2"),
        ("c03-b2-phi-order", "rank two: phi is the identity",
         1, _phi_order, "typeb2"),
        ("c04-b2-epsilon",
         "rank two: epsilon^2 = delta, syntactically a defining relation",
         {
             "epsilon": "b2 b1",
             "epsilon_power_is_delta": True,
             "delta_central": True,
             "syntactic_b1": True,
         },
         _epsilon, 2),
        ("c05-b3-axioms", "rank three: balanced, lattice, and phi axioms hold",
         _AXIOMS_OK, _axioms, "typeb3"),
        ("c06-b3-simple-count", "rank three has forty-eight simples",
         48, _simple_count, "typeb3"),
        ("c07-b3-phi-order", "rank three: phi is the identity",
         1, _phi_order, "typeb3"),
        ("c08-b3-epsilon", "rank three: epsilon^3 = delta",
         {
             "epsilon": "b3 b2 b1",
             "epsilon_power_is_delta": True,
             "delta_central": True,
             "syntactic_b1": None,
         },
         _epsilon, 3),
        ("c09-winding-positive", "winding counts b1 letters",
         2, _winding, 2, "b1 b2 b1 b2"),
        ("c10-winding-signed", "winding is signed",
         1, _winding, 3, "b1 b2^-1 b1 b2 b1^-1"),
        ("c11-member-even", "winding 2 lies in the index-2 kernel",
         True, _member, 2, "b1 b2 b1 b2", 2),
        ("c12-member-odd", "winding 1 is outside the index-2 kernel",
         False, _member, 2, "b1 b2", 2),
        ("c13-signed-cancel", "b1 b1^-1 b2 reduces to b2",
         "b2", _signed_nf, "typeb3", "b1 b1^-1 b2"),
    ],
    "verify-regular": [
        ("c01-g12-regular-numbers", "regular numbers of G12",
         [1, 2, 3, 4, 6, 8], _regular_numbers, "G12"),
        ("c02-g12-classes", "regularity classes of G12 with divisibility minima",
         {
             "1": {"class": [1, 2], "minimum": 1},
             "2": {"class": [1, 2], "minimum": 1},
             "3": {"class": [3, 6], "minimum": 3},
             "4": {"class": [4, 8], "minimum": 4},
             "6": {"class": [3, 6], "minimum": 3},
             "8": {"class": [4, 8], "minimum": 4},
         },
         _regular_classes, "G12"),
        ("c03-g12-fundamentals", "fundamental regular numbers of G12",
         {"1": 2, "2": 2, "3": 6, "4": 8, "6": 6, "8": 8}, _fundamentals, "G12"),
        ("c04-g13-regular-numbers", "regular numbers of G13",
         [1, 2, 3, 4, 6, 12], _regular_numbers, "G13"),
        ("c05-g13-classes", "regularity classes of G13 with divisibility minima",
         {
             "1": {"class": [1, 2, 4], "minimum": 1},
             "2": {"class": [1, 2, 4], "minimum": 1},
             "3": {"class": [3, 6, 12], "minimum": 3},
             "4": {"class": [1, 2, 4], "minimum": 1},
             "6": {"class": [3, 6, 12], "minimum": 3},
             "12": {"class": [3, 6, 12], "minimum": 3},
         },
         _regular_classes, "G13"),
        ("c06-g13-fundamentals", "fundamental regular numbers of G13",
         {"1": 4, "2": 4, "3": 12, "4": 4, "6": 12, "12": 12}, _fundamentals, "G13"),
        ("c07-center-anchor",
         "the class of 1 is exactly the divisors of the center order",
         {"G12": True, "G13": True}, _center_anchor, "G12", "G13"),
        ("c08-dihedral-no-minimum",
         "G(12,12,2) at d=3 is regular but has no class minimum",
         {"regular": True, "class": [3, 4, 6, 12], "minimum": None},
         _regularity, "G(12,12,2)", 3),
        ("c09-exceptional-minima",
         "every exceptional regular number has a unique class minimum",
         True, _exceptional_minima),
        ("c10-fundamental-invariance",
         "fundamental regular numbers keep the divisibility filters",
         True, _fundamental_invariance),
    ],
    "verify-pairs": [
        ("c01-pair-count", "exactly eleven isodiscriminantal pairs",
         11, _pair_count),
        ("c02-pair-list", "the eleven pairs, ordered by shared invariants",
         [
             ["G(1,1,3)", "G(3,3,2)"],
             ["G(1,1,4)", "G(2,2,3)"],
             ["G(2,1,2)", "G(4,4,2)"],
             ["G5", "G(6,1,2)"],
             ["G26", "G(6,1,3)"],
             ["G7", "G(12,2,2)"],
             ["G10", "G(12,1,2)"],
             ["G15", "G(24,4,2)"],
             ["G11", "G(24,2,2)"],
             ["G18", "G(30,1,2)"],
             ["G19", "G(60,2,2)"],
         ],
         _pair_names),
    ],
}
