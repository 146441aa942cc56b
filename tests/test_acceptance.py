"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single summary line through the capture barrier so a
full run shows twelve "[acceptance] criterion N: ..." lines regardless of
verbosity.  Expected values are frozen literals; the stated time bounds
are asserted alongside the mathematical content.
"""

import itertools
import random
import time
from collections import defaultdict

from divided_reference import twisted_shift
from garside.bundled import load_presentation
from garside.divided import (
    build_category,
    collapse,
    components,
    decompositions,
    divided_set,
    simplify_presentation,
    vertex_group,
)
from garside.monoid import IDENTITY_NF, NormalForm, verify_presentation
from garside.periodic import (
    CentralizerSummary,
    bezout_root,
    candidate_root_orders,
    roots_report,
)
from garside.presentation import congruence_classes
from garside.reflgroups import (
    exceptional_table,
    group_data,
    isodiscriminantal_pairs,
    regular_numbers,
    regularity,
)
from garside.typeb import check_epsilon, epsilon_word, typeb_presentation, winding


def announce(capsys, n, failures, detail):
    status = "FAIL" if failures else "PASS"
    message = "; ".join(failures) if failures else detail
    with capsys.disabled():
        print(f"[acceptance] criterion {n}: {status} — {message}")
    assert not failures, "; ".join(failures)


def nf_of(g, text):
    return g.normal_form(g.presentation.word_from_tokens(text.split()))


def test_criterion_01_garside_axioms(capsys):
    failures = []
    expected_phi = {"g12": 3, "g13": 1, "typeb2": 1, "typeb3": 1}
    for name, order in expected_phi.items():
        start = time.perf_counter()
        report = verify_presentation(load_presentation(name))
        elapsed = time.perf_counter() - start
        if report["axioms"] != {"balanced": True, "lattice": True, "phi": True}:
            failures.append(f"{name} axioms {report['axioms']}")
        if report["phi_order"] != order:
            failures.append(f"{name} phi order {report['phi_order']} != {order}")
        if elapsed >= 30:
            failures.append(f"{name} took {elapsed:.1f}s")
    announce(capsys, 1, failures, "axioms exhaustive for g12, g13, typeb2, typeb3")


def test_criterion_02_central_powers(capsys, g12, g13):
    start = time.perf_counter()
    failures = []
    stu = nf_of(g12, "s t u")
    abc = nf_of(g13, "a b c")
    cases = [
        ("(stu)^4 = delta^3", g12.power(stu, 4), NormalForm(3, ())),
        ("(stu)^8 = delta^6", g12.power(stu, 8), NormalForm(6, ())),
        ("(abc)^3 = delta", g13.power(abc, 3), NormalForm(1, ())),
        ("(abc)^12 = delta^4", g13.power(abc, 12), NormalForm(4, ())),
        ("delta^3 central in M", g12.is_central(NormalForm(3, ())), True),
        ("delta central in N", g13.is_central(NormalForm(1, ())), True),
        ("delta not central in M", g12.is_central(NormalForm(1, ())), False),
    ]
    for label, actual, expected in cases:
        if actual != expected:
            failures.append(label)
    if time.perf_counter() - start >= 5:
        failures.append("over 5s")
    announce(capsys, 2, failures, "central power identities hold exactly")


def test_criterion_03_oracle_equivalence(capsys, g12, g13):
    start = time.perf_counter()
    failures = []
    total = 0
    for tag, g in (("M", g12), ("N", g13)):
        table = congruence_classes(g.presentation, 8)
        n = len(g.presentation.generators)
        by_rep = defaultdict(set)
        by_nf = defaultdict(set)
        for length in range(9):
            for w in itertools.product(range(n), repeat=length):
                by_rep[length, table.rep(w)].add(w)
                by_nf[g.normal_form(w)].add(w)
                total += 1
        # Equal partitions mean the two equivalences agree on every pair.
        if {frozenset(v) for v in by_rep.values()} != {
            frozenset(v) for v in by_nf.values()
        }:
            failures.append(f"partition mismatch in {tag}")
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        failures.append(f"took {elapsed:.1f}s")
    announce(capsys, 3, failures, f"normal forms match the oracle on {total} words")


def test_criterion_04_g12_divided_sets(capsys, g12):
    start = time.perf_counter()
    failures = []
    if divided_set(g12, 2, 1) != []:
        failures.append("D_2^1 not empty")
    if divided_set(g12, 4, 1) != []:
        failures.append("D_4^1 not empty")
    firsts = {g12.render_simple(t[0]) for t in divided_set(g12, 4, 3)}
    if firsts != {"s", "t", "u"}:
        failures.append(f"D_4^3 firsts {firsts}")
    firsts = {g12.render_simple(t[0]) for t in divided_set(g12, 2, 3)}
    if firsts != {"s t", "t u", "u s"}:
        failures.append(f"D_2^3 firsts {firsts}")
    for p, q in ((1, 3), (1, 1), (4, 3)):
        if len(components(build_category(g12, p, q))) != 1:
            failures.append(f"C_{p}^{q} disconnected")
    cat = build_category(g12, 1, 2)
    v = vertex_group(cat, 0)
    simp = simplify_presentation(v)
    image = collapse(cat, v.loop_paths[simp.generators[0]])
    if (
        len(simp.generators) != 1
        or simp.relators
        or CentralizerSummary.inconclusive
        or g12.format_normal_form(image) != "delta"
    ):
        failures.append("C_1^2 vertex group not infinite cyclic on delta")
    if time.perf_counter() - start >= 60:
        failures.append("over 60s")
    announce(capsys, 4, failures, "divided sets and small categories as predicted")


def test_criterion_05_g12_centralizer(capsys, g12):
    start = time.perf_counter()
    failures = []
    cat = build_category(g12, 2, 3)
    if len(cat.objects) != 3 or len(cat.generator_ids()) != 6:
        failures.append("C_2^3 shape wrong")
    labels = [cat.relation_label(r) for r in cat.relations]
    if labels != [
        "(s, t) (t, u) = (s t, 1)",
        "(t, u) (u, s) = (t u, 1)",
        "(u, s) (s, t) = (u s, 1)",
    ]:
        failures.append(f"relations {labels}")
    v = vertex_group(cat, 0)
    simp = simplify_presentation(v)
    if len(simp.generators) != 1 or simp.relators or CentralizerSummary.inconclusive:
        failures.append("vertex group did not simplify to one free generator")
    else:
        image = collapse(cat, v.loop_paths[simp.generators[0]])
        if g12.format_normal_form(image) != "s t u":
            failures.append("collapse image is not s t u")
        if g12.power(image, 8) != NormalForm(6, ()):
            failures.append("(s t u)^8 != delta^6")
    if time.perf_counter() - start >= 60:
        failures.append("over 60s")
    announce(capsys, 5, failures, "C_2^3 centralizer is infinite cyclic on s t u")


def test_criterion_06_g13_divided_sets(capsys, g13):
    start = time.perf_counter()
    failures = []
    cube_roots = {"a b c", "b c a", "c a b"}
    for n in (2, 1):
        firsts = {g13.render_simple(t[0]) for t in divided_set(g13, 3, n)}
        if firsts != cube_roots:
            failures.append(f"D_3^{n} firsts {firsts}")
    if divided_set(g13, 9, 4) != []:
        failures.append("D_9^4 not empty")
    for q in (2, 1):
        if len(components(build_category(g13, 3, q))) != 1:
            failures.append(f"C_3^{q} disconnected")
    cat = build_category(g13, 3, 4)
    if len(cat.objects) != 3 or len(cat.generator_ids()) != 6 or len(cat.relations) != 6:
        failures.append("C_3^4 shape wrong")
    labels = [cat.relation_label(r) for r in cat.relations]
    if labels != [
        "(a, b c) (b, c a) = (a b, c)",
        "(b, c a) (c, a b) = (b c, a)",
        "(c, a b) (a, b c) = (c a, b)",
        "(a b, c) (c, a b) = (a, b c) (b c, a)",
        "(b c, a) (a, b c) = (b, c a) (c a, b)",
        "(c a, b) (b, c a) = (c, a b) (a b, c)",
    ]:
        failures.append(f"relations {labels}")
    v = vertex_group(cat, 0)
    simp = simplify_presentation(v)
    if len(simp.generators) != 1 or simp.relators or CentralizerSummary.inconclusive:
        failures.append("vertex group did not simplify to one free generator")
    else:
        image = collapse(cat, v.loop_paths[simp.generators[0]])
        if g13.format_normal_form(image) != "a b c":
            failures.append("collapse image is not a b c")
        if g13.power(image, 12) != NormalForm(4, ()):
            failures.append("(a b c)^12 != delta^4")
    elapsed = time.perf_counter() - start
    if elapsed >= 300:
        failures.append(f"took {elapsed:.1f}s")
    announce(capsys, 6, failures, "9th roots excluded, 12th root centralizer cyclic")


def test_criterion_07_roots_match_regular_numbers(capsys, g12, g13):
    start = time.perf_counter()
    failures = []
    cases = [
        ("G12", g12, 6, {1, 2, 3, 4, 6, 8}),
        ("G13", g13, 4, {1, 2, 3, 4, 6, 12}),
    ]
    for name, g, zp, expected in cases:
        exists = {
            d
            for d in candidate_root_orders(g, zp)
            if roots_report(g, zp, d).exists
        }
        if exists != expected:
            failures.append(f"{name} roots {sorted(exists)}")
        regular = set(regular_numbers(group_data(name)))
        if exists != regular:
            failures.append(f"{name} roots differ from regular numbers {sorted(regular)}")
    elapsed = time.perf_counter() - start
    if elapsed >= 300:
        failures.append(f"took {elapsed:.1f}s")
    announce(capsys, 7, failures, "root orders equal the regular numbers for both groups")


def test_criterion_08_regular_number_arithmetic(capsys):
    start = time.perf_counter()
    failures = []
    g12 = group_data("G12")
    if {regularity(g12, d).fundamental for d in regular_numbers(g12)} != {2, 6, 8}:
        failures.append("G12 fundamentals")
    if {regularity(g12, d).r_class for d in regular_numbers(g12)} != {
        (1, 2),
        (3, 6),
        (4, 8),
    }:
        failures.append("G12 classes")
    g13 = group_data("G13")
    if {regularity(g13, d).fundamental for d in regular_numbers(g13)} != {4, 12}:
        failures.append("G13 fundamentals")
    if regularity(g13, 1).r_class != (1, 2, 4):
        failures.append("G13 R_1")
    if regularity(g13, 3).r_class != (3, 6, 12):
        failures.append("G13 R_3")
    dihedral = group_data("G(12,12,2)")
    r3, r4 = regularity(dihedral, 3), regularity(dihedral, 4)
    if not (r3.regular and r4.regular):
        failures.append("G(12,12,2): 3 or 4 not regular")
    if r3.fundamental != 12 or r4.fundamental != 12:
        failures.append("G(12,12,2) fundamentals not 12")
    if r3.class_minimum is not None:
        failures.append("G(12,12,2) class unexpectedly has a minimum")
    for data in exceptional_table().values():
        for d in regular_numbers(data):
            if regularity(data, d).class_minimum is None:
                failures.append(f"{data.name} d={d} lacks a class minimum")
    if time.perf_counter() - start >= 5:
        failures.append("over 5s")
    announce(capsys, 8, failures, "fundamentals and classes match, minima unique")


def test_criterion_09_bezout_roots(capsys, g12):
    start = time.perf_counter()
    failures = []
    stu = nf_of(g12, "s t u")
    # bezout_root itself re-verifies q^4 = delta^3, q^8 = z_P, and
    # independence of the Bezout pair, raising on any mismatch.
    root = bezout_root(g12, stu, NormalForm(3, ()), 8, 2, 6)
    if root != stu:
        failures.append("common root of (stu, delta^3) is not stu")
    if g12.power(root, 4) != NormalForm(3, ()):
        failures.append("q^4 != delta^3")
    if g12.power(root, 8) != NormalForm(6, ()):
        failures.append("q^8 != z_P")
    root = bezout_root(g12, NormalForm(3, ()), NormalForm(2, ()), 2, 3, 6)
    if root != NormalForm(1, ()):
        failures.append("common root of (delta^3, delta^2) is not delta")
    if g12.power(root, 2) != NormalForm(2, ()) or g12.power(root, 3) != NormalForm(3, ()):
        failures.append("delta-power identities failed")
    if time.perf_counter() - start >= 5:
        failures.append("over 5s")
    announce(capsys, 9, failures, "Bezout combinations return stu and delta")


def test_criterion_10_isodiscriminantal_pairs(capsys):
    start = time.perf_counter()
    failures = []
    pairs = [(p.first, p.second) for p in isodiscriminantal_pairs()]
    expected = [
        ("G(1,1,3)", "G(3,3,2)"),
        ("G(1,1,4)", "G(2,2,3)"),
        ("G(2,1,2)", "G(4,4,2)"),
        ("G5", "G(6,1,2)"),
        ("G26", "G(6,1,3)"),
        ("G7", "G(12,2,2)"),
        ("G10", "G(12,1,2)"),
        ("G15", "G(24,4,2)"),
        ("G11", "G(24,2,2)"),
        ("G18", "G(30,1,2)"),
        ("G19", "G(60,2,2)"),
    ]
    if pairs != expected:
        failures.append(f"got {len(pairs)} pairs: {pairs}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30:
        failures.append(f"took {elapsed:.1f}s")
    announce(capsys, 10, failures, "exactly the eleven expected pairs, in order")


def test_criterion_11_winding_and_epsilon(capsys, b2, b3):
    start = time.perf_counter()
    failures = []
    for n, e in ((2, 2), (3, 2), (3, 3), (4, 3)):
        eps = [(i, 1) for i in epsilon_word(n)]
        if winding(eps) != 1:
            failures.append(f"wd(epsilon) != 1 for n={n}")
        lam = eps * e
        if winding(lam) != e:
            failures.append(f"wd(epsilon^{e}) != {e} for n={n}")
        if winding(lam) % e != 0:
            failures.append(f"epsilon^{e} not in the mod-{e} kernel for n={n}")
        for i in range(1, n):
            if winding([(i, 1)]) != 0:
                failures.append(f"wd(b{i + 1}) != 0")
    if check_epsilon(b2, 2)["syntactic_b1"] is not True:
        failures.append("epsilon^2 = delta is not the n=2 defining relation")
    report = check_epsilon(b3, 3)
    if not (report["epsilon_power_is_delta"] and report["delta_central"]):
        failures.append("epsilon^3 != delta in the rank-three structure")
    if len(b3.simples) != 48:
        failures.append(f"rank-three structure has {len(b3.simples)} simples")
    if time.perf_counter() - start >= 60:
        failures.append("over 60s")
    announce(capsys, 11, failures, "winding values and epsilon powers as stated")


def test_criterion_12_property_suites(capsys, g12, g13, b2):
    start = time.perf_counter()
    failures = []

    for g, label in ((g12, "g12"), (b2, "typeb2")):
        for m in (2, 3):
            decs = set(decompositions(g, m))
            if any(twisted_shift(g, t) not in decs for t in decs):
                failures.append(f"{label} decompositions of size {m} not shift-closed")

    for g, p, q in ((g12, 2, 3), (g12, 1, 3), (g13, 3, 4)):
        cat = build_category(g, p, q)
        for lhs, rhs in cat.relations:
            if collapse(cat, [(m, 1) for m in lhs]) != collapse(
                cat, [(m, 1) for m in rhs]
            ):
                failures.append(f"relation unsound in C_{p}^{q}")

    rng = random.Random(90120)

    def sample():
        letters = [
            (rng.randrange(3), rng.choice((1, -1)))
            for _ in range(rng.randrange(6))
        ]
        return g12.normal_form_signed(letters)

    for _ in range(1000):
        a, b, c = sample(), sample(), sample()
        if g12.multiply(g12.multiply(a, b), c) != g12.multiply(a, g12.multiply(b, c)):
            failures.append(f"associativity violated for {a}, {b}, {c}")
            break

    for _ in range(1000):
        u = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(8))]
        v = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(8))]
        if winding(u + v) != winding(u) + winding(v):
            failures.append("winding not additive")
            break
        if winding([(i, -s) for i, s in reversed(u)]) != -winding(u):
            failures.append("winding does not negate inverses")
            break

    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        failures.append(f"took {elapsed:.1f}s")
    announce(capsys, 12, failures, "shift closure, collapse soundness, associativity, winding laws")
