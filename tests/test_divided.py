import copy
import gc
import hashlib
import math
import re
import sys
import tracemalloc

import divided_reference
import pytest
from congruence_reference import word_lookup
from divided_reference import twisted_shift

from garside import divided
from garside.bundled import get_structure
from garside.divided import (
    build_category,
    collapse,
    components,
    decompositions,
    divided_set,
    simplify_presentation,
    vertex_group,
)
from garside.errors import BudgetExceeded, GarsideError, NonComposablePath
from garside.monoid import IDENTITY_NF
from garside.periodic import centralizer_summary


def rendered(g, tuples):
    return [[g.render_simple(a) for a in t] for t in tuples]


def test_decompositions_pair_count(g12):
    # Each left divisor of delta pairs with exactly one complement.
    assert len(decompositions(g12, 2)) == len(g12.simples)
    assert decompositions(g12, 1) == [(g12.delta,)]


def test_walk_stops_past_the_budget():
    # D_4^0 of g12 has 97 tuples: a structure built under a budget of 97
    # lists them all, one built under 96 stops there.
    assert len(decompositions(get_structure("g12", 97), 4)) == 97
    small = get_structure("g12", 96)
    with pytest.raises(
        BudgetExceeded, match=r"^D_4\^0 has at least 97 tuples, over the budget of 96$"
    ):
        decompositions(small, 4)
    with pytest.raises(BudgetExceeded):
        divided_set(small, 4, 0)


def test_divided_g12_goldens(g12):
    assert divided_set(g12, 2, 1) == []
    assert divided_set(g12, 4, 1) == []
    assert rendered(g12, divided_set(g12, 4, 3)) == [
        ["s", "t", "u", "s"],
        ["t", "u", "s", "t"],
        ["u", "s", "t", "u"],
    ]
    assert rendered(g12, divided_set(g12, 2, 3)) == [
        ["s t", "u s"],
        ["t u", "s t"],
        ["u s", "t u"],
    ]


def test_divided_g13_goldens(g13):
    cube_roots = [["a b c"] * 3, ["b c a"] * 3, ["c a b"] * 3]
    assert rendered(g13, divided_set(g13, 3, 2)) == cube_roots
    assert rendered(g13, divided_set(g13, 3, 1)) == cube_roots
    assert divided_set(g13, 9, 4) == []


def test_divided_trivial_tuple(g12):
    assert divided_set(g12, 1, 5) == [(g12.delta,)]


@pytest.mark.parametrize("m, n", [(2, 3), (4, 3), (4, 6), (1, 2)])
def test_divided_is_shift_closed(g12, m, n):
    d = divided_set(g12, m, n)
    as_set = set(d)
    for t in d:
        # Fixed by sigma^n, permuted by sigma itself.
        cur = t
        for _ in range(n):
            cur = twisted_shift(g12, cur)
        assert cur == t
        assert twisted_shift(g12, t) in as_set


@pytest.mark.parametrize("m, n", [(2, 3), (4, 3), (2, 1)])
def test_divided_products_are_delta(g12, m, n):
    lookup = word_lookup(g12)
    for t in divided_set(g12, m, n):
        word = sum((g12.simples[a] for a in t), ())
        assert lookup(word) == g12.delta


def test_shift_power_m_is_phi(g12):
    for t in divided_set(g12, 2, 3):
        cur = t
        for _ in range(2):
            cur = twisted_shift(g12, cur)
        assert cur == tuple(g12.phi_simple(a) for a in t)


def test_category_g12_2_3(g12):
    cat = build_category(g12, 2, 3)
    assert [cat.object_label(i) for i in range(len(cat.objects))] == [
        "(s t, u s)",
        "(t u, s t)",
        "(u s, t u)",
    ]
    assert cat.generator_ids() == [0, 1, 2, 3, 4, 5]
    assert not cat.eliminated
    labels = [cat.morphism_label(m) for m in cat.generator_ids()]
    assert labels == ["(s, t)", "(t, u)", "(u, s)", "(s t, 1)", "(t u, 1)", "(u s, 1)"]
    ends = [(cat.morphisms[m].source, cat.morphisms[m].target) for m in cat.generator_ids()]
    assert ends == [(0, 1), (1, 2), (2, 0), (0, 2), (1, 0), (2, 1)]
    assert cat.triples == [(0, 1, 3), (1, 2, 4), (2, 0, 5)]
    assert [cat.relation_label(r) for r in cat.relations] == [
        "(s, t) (t, u) = (s t, 1)",
        "(t, u) (u, s) = (t u, 1)",
        "(u, s) (s, t) = (u s, 1)",
    ]
    assert components(cat) == [[0, 1, 2]]


def test_category_g13_3_4(g13):
    cat = build_category(g13, 3, 4)
    assert len(cat.objects) == 3
    assert len(cat.morphisms) == 9
    assert cat.generator_ids() == [0, 1, 2, 3, 4, 5]
    # The three endomorphisms are eliminated in favour of two-step paths.
    assert sorted(cat.eliminated) == [6, 7, 8]
    assert all(cat.morphisms[m].is_endo() for m in cat.eliminated)
    assert [cat.relation_label(r) for r in cat.relations] == [
        "(a, b c) (b, c a) = (a b, c)",
        "(b, c a) (c, a b) = (b c, a)",
        "(c, a b) (a, b c) = (c a, b)",
        "(a b, c) (c, a b) = (a, b c) (b c, a)",
        "(b c, a) (a, b c) = (b, c a) (c a, b)",
        "(c a, b) (b, c a) = (c, a b) (a b, c)",
    ]


def test_category_endo_only(g12):
    cat = build_category(g12, 1, 3)
    assert len(cat.objects) == 1
    assert len(cat.generator_ids()) == 10
    assert all(m.is_endo() for m in cat.morphisms)


def test_relations_hold_under_collapse(g12, g13):
    for g, p, q in ((g12, 2, 3), (g13, 3, 4), (g12, 1, 2)):
        cat = build_category(g, p, q)
        for lhs, rhs in cat.relations:
            left = collapse(cat, [(m, 1) for m in lhs])
            right = collapse(cat, [(m, 1) for m in rhs])
            assert left == right


def test_collapse_rejects_noncomposable(g12):
    cat = build_category(g12, 2, 3)
    # Morphism 0 ends at object 1, morphism 2 starts at object 2.
    with pytest.raises(NonComposablePath):
        collapse(cat, [(0, 1), (2, 1)])


def test_vertex_group_g12(g12):
    cat = build_category(g12, 2, 3)
    v = vertex_group(cat, 0)
    assert v.tree_edges == [0, 1]
    assert v.loop_edges == [2, 3, 4, 5]
    assert v.relators == [[-2], [1, -3], [1, -4]]
    simp = simplify_presentation(v)
    assert not centralizer_summary(cat, 0).inconclusive
    assert len(simp.generators) == 1
    assert simp.relators == []
    image = collapse(cat, v.loop_paths[simp.generators[0]])
    assert g12.format_normal_form(image) == "s t u"
    assert g12.format_normal_form(g12.power(image, 8)) == "delta^6"


def test_vertex_group_g13(g13):
    cat = build_category(g13, 3, 4)
    v = vertex_group(cat, 0)
    assert v.relators == [[-2], [1, -3], [1, -4], [2, 1, -3], [3, -4], [4, -2, -1]]
    simp = simplify_presentation(v)
    assert not centralizer_summary(cat, 0).inconclusive
    assert len(simp.generators) == 1
    assert simp.relators == []
    image = collapse(cat, v.loop_paths[simp.generators[0]])
    assert g13.format_normal_form(image) == "a b c"
    assert g13.format_normal_form(g13.power(image, 12)) == "delta^4"


def test_vertex_relators_collapse_to_identity(g12, g13):
    for g, p, q in ((g12, 2, 3), (g13, 3, 4)):
        cat = build_category(g, p, q)
        v = vertex_group(cat, 0)
        images = [collapse(cat, path) for path in v.loop_paths]
        for relator in v.relators:
            acc = IDENTITY_NF
            for ref in relator:
                img = images[abs(ref) - 1]
                acc = g.multiply(acc, img if ref > 0 else g.invert(img))
            assert acc == IDENTITY_NF


def test_loop_paths_close_at_base(g12):
    cat = build_category(g12, 2, 3)
    v = vertex_group(cat, 0)
    for path in v.loop_paths:
        # Every loop generator is a genuine base-to-base path.
        src = cat.morphisms[path[0][0]].source if path[0][1] > 0 else cat.morphisms[path[0][0]].target
        last, sign = path[-1]
        tgt = cat.morphisms[last].target if sign > 0 else cat.morphisms[last].source
        assert src == 0 and tgt == 0
        collapse(cat, path)


STRUCTURES = ("g12", "g13", "b2", "b3")


@pytest.mark.parametrize("name", STRUCTURES)
def test_divided_set_matches_reference_filter(request, name):
    # The reference filter's cost grows like (entry lengths)^gcd(m, n);
    # gcd <= 3 keeps all four structures well under a second.
    g = request.getfixturevalue(name)
    kept = 0
    for m in range(1, 13):
        for n in range(1, 25):
            if math.gcd(m, n) <= 3:
                expected = divided_reference.divided_set(g, m, n)
                assert divided_set(g, m, n) == expected, (m, n)
                kept += bool(expected)
    assert kept > 0


@pytest.mark.parametrize("name", STRUCTURES)
def test_divided_set_matches_sigma_filter(request, name):
    g = request.getfixturevalue(name)
    for m in range(1, 5):
        for n in range(0, 13):
            assert divided_set(g, m, n) == divided_reference.sigma_fixed(g, m, n), (m, n)


@pytest.mark.parametrize("name", STRUCTURES)
def test_decompositions_match_reference(request, name):
    g = request.getfixturevalue(name)
    for m in range(1, 6):
        assert decompositions(g, m) == divided_reference.decompositions(g, m), m


def test_divided_g12_long_closed_form(g12):
    # 1 and Delta are the only phi-fixed simples of g12, so each tuple of
    # D_600^600 is Delta at one position and 1 elsewhere; the old filter
    # tried 2^600 length combinations.
    assert g12.phi_fixed_simples(1) == sorted([g12.identity, g12.delta])
    expected = sorted(
        tuple(g12.delta if i == k else g12.identity for i in range(600))
        for k in range(600)
    )
    assert divided_set(g12, 600, 600) == expected


def test_divided_g13_6_6_literal(g13):
    # Recorded with the length-combination filter, which took about 20 s.
    d = divided_set(g13, 6, 6)
    assert len(d) == 46662
    assert (
        hashlib.sha256(repr(d).encode()).hexdigest()
        == "a774fd19b3bd3f3fb3985092424b193b88b7835521c384ace29227752614a507"
    )


def test_category_typeb2_4_4(b2):
    # Past the reach of the length-combination filter; the figures are
    # confirmed on the sets the category is built from by the shift filter.
    for k in (1, 2, 3):
        assert divided_set(b2, 4 * k, 4 * k) == divided_reference.sigma_fixed(b2, 4 * k, 4 * k)
    cat = build_category(b2, 4, 4)
    assert len(cat.objects) == 66
    assert len(cat.morphisms) == 586
    assert len(cat.triples) == 1480


# (p, q) beyond the diagonal: q = 0, q < p, q > p and p = 1 on every
# structure, with a category of objects and morphisms but no triples (g12
# C_1^1 and C_2^2) and empty ones (g12 C_2^1, g13 C_2^1, typeb2 C_3^1,
# typeb3 C_2^3).  Each reference run takes about a second at most.
OFF_DIAGONAL = [
    ("g12", 1, 0), ("g12", 3, 0), ("g12", 1, 1), ("g12", 1, 3), ("g12", 2, 1),
    ("g12", 3, 1),
    ("g13", 1, 0), ("g13", 2, 0), ("g13", 1, 3), ("g13", 3, 1), ("g13", 3, 5),
    ("g13", 2, 1),
    ("b2", 2, 0), ("b2", 3, 0), ("b2", 1, 2), ("b2", 2, 1), ("b2", 4, 2),
    ("b2", 2, 5), ("b2", 3, 1),
    ("b3", 2, 0), ("b3", 1, 3), ("b3", 3, 1), ("b3", 3, 5), ("b3", 2, 3),
]


@pytest.mark.parametrize(
    "name, p, q",
    [("g12", k, k) for k in range(2, 8)]
    + [("g12", 2, 3), ("g13", 3, 4), ("g13", 1, 2), ("b2", 4, 4), ("b3", 2, 2)]
    # Several ends, with proper triples of different ends that tie on every
    # (a_k, b_k): the merge must order them by c_k.
    + [("g13", 6, 2), ("b3", 6, 2)]
    + OFF_DIAGONAL,
)
def test_category_matches_word_product_reference(request, name, p, q):
    g = request.getfixturevalue(name)
    cat = build_category(g, p, q)
    ref = divided_reference.build_category(g, p, q)
    assert cat.objects == ref.objects
    assert cat.morphisms == ref.morphisms
    assert cat.identity_tuples == ref.identity_tuples
    assert cat.triples == ref.triples
    assert cat.eliminated == ref.eliminated
    assert cat.relations == ref.relations


def test_divided_set_result_is_freed_with_its_caller(g13):
    # A walk whose closure keeps referring to itself would hold each result
    # until the cycle collector runs, which raised a worker's peak memory.
    gc.disable()
    try:
        d = divided_set(g13, 3, 3)
        assert sys.getrefcount(d) == 2
    finally:
        gc.enable()


def test_off_diagonal_cases_cover_the_edge_shapes(g12, g13, b2, b3):
    # The cases above include categories with no triples and with nothing.
    shapes = {
        (name, p, q): build_category(g, p, q)
        for name, g in (("g12", g12), ("g13", g13), ("b2", b2), ("b3", b3))
        for n, p, q in OFF_DIAGONAL
        if n == name
    }
    c11 = shapes["g12", 1, 1]
    assert (len(c11.objects), len(c11.morphisms), c11.triples) == (1, 1, [])
    assert build_category(g12, 2, 2).triples == []
    for key in (("g12", 2, 1), ("g13", 2, 1), ("b2", 3, 1), ("b3", 2, 3)):
        c = shapes[key]
        assert (c.objects, c.morphisms, c.identity_tuples, c.triples) == ([], [], {}, [])
    assert len(shapes["b2", 4, 2].triples) == 8
    assert len(shapes["b3", 3, 1].triples) == 16


def test_category_holds_no_transient_columns(b3):
    # D_3p^3q is never listed: one walk reads the ids of its triples' parts,
    # and one pass over them reads the endpoints off the triples through an
    # identity and keeps the others, so no product column of D_2p^2q is
    # made.  The assembly frees the trie and the id lists as it goes, so the
    # peak stays within 1 MiB of what the category holds (7.706 against 7.457
    # MiB; 7.707 with endpoint maps and compressed id lists after the walk,
    # 7.73 when D_2p^2q's product columns gave the endpoints, 7.83 against
    # 7.55 when D_3p^3q and its columns were listed, and 15.1 MiB with every
    # column kept).
    gc.collect()
    tracemalloc.start()
    try:
        cat = build_category(b3, 2, 2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cat.triples) == 26782
    assert peak - held < 2**20


G13_4_4_REFUSAL = "D_8^8 has at least 59050 tuples, over the budget of 59049"
# typeb3's D_4^4 has 2,476 tuples and its D_6^6 31,686: under a budget
# between the two, C_2^2 is refused in the walk of D_6^6.
B3_2_2_REFUSAL = "D_6^6 has at least 30001 tuples, over the budget of 30000"


def budgeted(name, budget):
    g = copy.copy(get_structure(name))
    if budget is not None:
        g.budget = budget
    return g


def frame_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("where", ["before-the-walk", "in-the-walk"])
def test_build_category_refuses_a_d_3p_3q_past_the_recursion_limit(g12, where):
    # g12's only fixed simples are 1 and Delta, so the identity fills every
    # free entry but one, and each walk of C_k^k's sets nests about as deep
    # as its tuples are long.
    depth = frame_depth()
    if where == "before-the-walk":
        # D_k^k and D_2k^2k fit, and D_3k^3k's 3k free entries are past the
        # limit, so it is refused before anything of length 3k is made.
        k, limit = depth + 40, 3 * depth + 100
        refusal = (
            f"D_{3 * k}^{3 * k} is out of reach: its {3 * k} free entries "
            "nest past the recursion limit"
        )
    else:
        # 60 is within the limit, but the walk of D_60^60 nests past it,
        # while those of D_20^20 and D_40^40 fit.
        k, limit = 20, depth + 52
        refusal = (
            "D_60^60 is out of reach: its 60 free entries nest past the "
            "recursion limit"
        )
    default = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        with pytest.raises(GarsideError) as refused:
            build_category(g12, k, k)
    finally:
        sys.setrecursionlimit(default)
    assert str(refused.value) == refusal
    assert len(build_category(g12, k, k).objects) == k


@pytest.mark.parametrize("name, p, q", [("g12", 3, 3), ("typeb3", 2, 2), ("g13", 3, 4)])
def test_build_category_lists_only_d_p_q_and_d_2p_2q(monkeypatch, name, p, q):
    # The relations come from one walk of D_3p^3q's block 0, which lists
    # nothing of length 3p.
    walked = []
    walk = divided._walk

    def spy(g, m, n):
        walked.append((m, n))
        return walk(g, m, n)

    monkeypatch.setattr(divided, "_walk", spy)
    build_category(get_structure(name), p, q)
    assert walked == [(p, q), (2 * p, 2 * q)]


@pytest.mark.parametrize("fault", ["drop", "duplicate"])
def test_build_category_names_each_endpoint_exactly_once(monkeypatch, g12, fault):
    # Each member t of D_2p^2q is g of exactly one triple 1_x;t = t, and x
    # is its source.  A walk that loses such a triple, or repeats one under
    # another object's identity, leaves t with no source or with two; the
    # repeat comes first, so the first source read would be the right one.
    n_obj = len(divided_set(g12, 2, 3))
    assert n_obj == 3
    triples = divided._triples

    def faulty(g, m, n, members, span):
        f_ids, g_ids, h_ids, merge = triples(g, m, n, members, span)
        n_mor = len(members) - n_obj
        i = next(i for i, (f, t) in enumerate(zip(f_ids, g_ids)) if f >= n_mor > t)
        if fault == "drop":
            del f_ids[i], g_ids[i], h_ids[i]
        else:
            other = n_mor + (f_ids[i] - n_mor + 1) % n_obj
            f_ids.insert(i, other)
            g_ids.insert(i, g_ids[i])
            h_ids.insert(i, h_ids[i])
        return f_ids, g_ids, h_ids, merge

    monkeypatch.setattr(divided, "_triples", faulty)
    with pytest.raises(AssertionError, match="exactly once"):
        build_category(g12, 2, 3)


TRIPLE_FAULTS = {
    "part-outside": "relation part outside D_2p^2q",
    "left-identity-law": "identity law broken: 1;t is not t",
    "right-identity-law": "identity law broken: t;1 is not t",
    "not-composable": "triple not composable",
    "identity-composite": "identity as a composite",
}


@pytest.mark.parametrize("fault", TRIPLE_FAULTS)
def test_build_category_checks_each_triple(monkeypatch, g12, fault):
    # g12's C_2^3 has 3 objects, 6 morphisms and the proper triples
    # (0, 1, 3), (1, 2, 4) and (2, 0, 5).  Each fault changes one part of one
    # triple the walk returns, and its own check refuses it.
    n_obj = 3
    triples = divided._triples

    def faulty(g, m, n, members, span):
        f_ids, g_ids, h_ids, merge = triples(g, m, n, members, span)
        n_mor = len(members) - n_obj
        if fault == "part-outside":
            g_ids[0] = None
        elif fault == "left-identity-law":
            i = next(i for i, (f, t) in enumerate(zip(f_ids, g_ids)) if f >= n_mor > t)
            h_ids[i] = (g_ids[i] + 1) % n_mor
        elif fault == "right-identity-law":
            i = next(i for i, (f, t) in enumerate(zip(f_ids, g_ids)) if t >= n_mor > f)
            h_ids[i] = (f_ids[i] + 1) % n_mor
        else:
            i = next(i for i, (f, t) in enumerate(zip(f_ids, g_ids)) if f < n_mor > t)
            if fault == "not-composable":
                # In each of the three, morphism g + 1 does not start where f ends.
                g_ids[i] = (g_ids[i] + 1) % n_mor
            else:
                h_ids[i] = n_mor
        return f_ids, g_ids, h_ids, merge

    monkeypatch.setattr(divided, "_triples", faulty)
    with pytest.raises(AssertionError, match=re.escape(TRIPLE_FAULTS[fault])):
        build_category(g12, 2, 3)


def test_build_category_finds_each_identity_in_d_2p_2q(monkeypatch, g12):
    # (1, x_1, 1, x_2) is in D_4^6 for each object (x_1, x_2) of g12's
    # C_2^3; a walk of D_4^6 that loses its tuples led by 1 is refused.
    walk = divided._walk

    def faulty(g, m, n):
        out = walk(g, m, n)
        return [t for t in out if t[0] != g.identity] if m == 4 else out

    monkeypatch.setattr(divided, "_walk", faulty)
    with pytest.raises(AssertionError, match=re.escape("identity missing from D_2p^2q")):
        build_category(g12, 2, 3)


def test_build_category_runs_no_collection(b3):
    # typeb3's C_2^2 makes enough new containers to set off about 250
    # collections with the collector on; the assembly pauses it.
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count)
    try:
        cat = build_category(b3, 2, 2)
    finally:
        gc.callbacks.remove(count)
        if not enabled:
            gc.disable()
    assert len(cat.triples) == 26782
    assert collections == []


@pytest.mark.parametrize("on", [True, False])
def test_build_category_restores_the_collector(b3, g13, on):
    enabled = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        build_category(b3, 2, 2)
        after_build = gc.isenabled()
        with pytest.raises(BudgetExceeded) as refused:
            build_category(g13, 4, 4)
        after_refusal = gc.isenabled()
        with pytest.raises(BudgetExceeded) as refused_late:
            build_category(budgeted("typeb3", 30000), 2, 2)
        after_late_refusal = gc.isenabled()
    finally:
        (gc.enable if enabled else gc.disable)()
    assert str(refused.value) == G13_4_4_REFUSAL
    assert str(refused_late.value) == B3_2_2_REFUSAL
    assert after_build is on
    assert after_refusal is on
    assert after_late_refusal is on


@pytest.mark.parametrize(
    "name, p, q, budget, refusal",
    [
        pytest.param("typeb3", 2, 2, None, None, id="typeb3-2-2"),
        pytest.param("g13", 3, 4, None, None, id="g13-3-4"),
        pytest.param("g13", 4, 4, None, G13_4_4_REFUSAL, id="g13-4-4"),
        pytest.param("typeb3", 2, 2, 30000, B3_2_2_REFUSAL, id="typeb3-2-2-budget-30000"),
    ],
)
def test_build_category_makes_no_cycles(name, p, q, budget, refusal):
    # build_category pauses the collector because the assembly, its walks
    # and their budget refusals leave nothing that only the collector can
    # free.
    g = budgeted(name, budget)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        try:
            build_category(g, p, q)
            outcome = None
        except BudgetExceeded as exc:
            outcome = str(exc)
        unreachable = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert outcome == refusal
    assert unreachable == 0


BUDGET_CASES = ((2, 0), (3, 0), (4, 4), (2, 3), (3, 1), (4, 2), (6, 3), (4, 6))

# The size of D_m^n for each of BUDGET_CASES, or the message that refuses
# it, for a structure whose budget is set low.  Every walk stops at the
# first count past the budget, so each message counts budget + 1 tuples,
# whether the set has only free entries (D_m^0, D_4^4) or blocks that are
# phi-powers of block 0.
BUDGET_OUTCOMES = {
    ("g12", 1): (
        "D_2^0 has at least 2 tuples, over the budget of 1",
        "D_3^0 has at least 2 tuples, over the budget of 1",
        "D_4^4 has at least 2 tuples, over the budget of 1",
        "D_2^3 has at least 2 tuples, over the budget of 1",
        0,
        0,
        0,
        "D_4^6 has at least 2 tuples, over the budget of 1",
    ),
    ("g12", 7): (
        "D_2^0 has at least 8 tuples, over the budget of 7",
        "D_3^0 has at least 8 tuples, over the budget of 7",
        4,
        3,
        0,
        0,
        0,
        "D_4^6 has at least 8 tuples, over the budget of 7",
    ),
    ("g12", 40): (11, 39, 4, 3, 0, 0, 0, 9),
    ("g13", 1): (
        "D_2^0 has at least 2 tuples, over the budget of 1",
        "D_3^0 has at least 2 tuples, over the budget of 1",
        "D_4^4 has at least 2 tuples, over the budget of 1",
        0,
        "D_3^1 has at least 2 tuples, over the budget of 1",
        0,
        0,
        0,
    ),
    ("g13", 7): (
        "D_2^0 has at least 8 tuples, over the budget of 7",
        "D_3^0 has at least 8 tuples, over the budget of 7",
        "D_4^4 has at least 8 tuples, over the budget of 7",
        0,
        3,
        0,
        0,
        0,
    ),
    ("g13", 40): (
        "D_2^0 has at least 41 tuples, over the budget of 40",
        "D_3^0 has at least 41 tuples, over the budget of 40",
        "D_4^4 has at least 41 tuples, over the budget of 40",
        0,
        3,
        0,
        0,
        0,
    ),
    ("typeb2", 1): (
        "D_2^0 has at least 2 tuples, over the budget of 1",
        "D_3^0 has at least 2 tuples, over the budget of 1",
        "D_4^4 has at least 2 tuples, over the budget of 1",
        "D_2^3 has at least 2 tuples, over the budget of 1",
        0,
        "D_4^2 has at least 2 tuples, over the budget of 1",
        "D_6^3 has at least 2 tuples, over the budget of 1",
        "D_4^6 has at least 2 tuples, over the budget of 1",
    ),
    ("typeb2", 7): (
        "D_2^0 has at least 8 tuples, over the budget of 7",
        "D_3^0 has at least 8 tuples, over the budget of 7",
        "D_4^4 has at least 8 tuples, over the budget of 7",
        2,
        0,
        6,
        "D_6^3 has at least 8 tuples, over the budget of 7",
        6,
    ),
    ("typeb2", 40): (
        8,
        27,
        "D_4^4 has at least 41 tuples, over the budget of 40",
        2,
        0,
        6,
        12,
        6,
    ),
    ("typeb3", 1): (
        "D_2^0 has at least 2 tuples, over the budget of 1",
        "D_3^0 has at least 2 tuples, over the budget of 1",
        "D_4^4 has at least 2 tuples, over the budget of 1",
        0,
        "D_3^1 has at least 2 tuples, over the budget of 1",
        0,
        0,
        0,
    ),
    ("typeb3", 7): (
        "D_2^0 has at least 8 tuples, over the budget of 7",
        "D_3^0 has at least 8 tuples, over the budget of 7",
        "D_4^4 has at least 8 tuples, over the budget of 7",
        0,
        4,
        0,
        0,
        0,
    ),
    ("typeb3", 40): (
        "D_2^0 has at least 41 tuples, over the budget of 40",
        "D_3^0 has at least 41 tuples, over the budget of 40",
        "D_4^4 has at least 41 tuples, over the budget of 40",
        0,
        4,
        0,
        0,
        0,
    ),
}


@pytest.mark.parametrize("name, budget", list(BUDGET_OUTCOMES))
def test_budget_messages_are_pinned(name, budget):
    g = copy.copy(get_structure(name))
    g.budget = budget
    outcomes = []
    for m, n in BUDGET_CASES:
        try:
            outcomes.append(len(divided_set(g, m, n)))
        except BudgetExceeded as exc:
            outcomes.append(str(exc))
    assert tuple(outcomes) == BUDGET_OUTCOMES[name, budget]
    for outcome in outcomes:
        if isinstance(outcome, str):
            assert f"has at least {budget + 1} tuples," in outcome
