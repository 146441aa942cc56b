import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import tietze_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

import garside
from garside import bundled, divided, periodic
from garside.divided import (
    SimplifiedPresentation,
    VertexGroupPresentation,
    build_category,
    collapse,
    simplify_presentation,
    vertex_group,
)
from garside.periodic import candidate_root_orders, reduce_exponents


def presentation(generators: int, relators: list[list[int]]) -> VertexGroupPresentation:
    return VertexGroupPresentation([], list(range(generators)), [], relators)


def same(ours: SimplifiedPresentation, theirs: ref.BoundedResult) -> bool:
    """ours equals the reference's result, which ended within its step bound."""
    return (*ours, False) == theirs


# The root categories C_p'^q' of the benchmark's categories pool and of the
# scenario suites, plus the categories of the vertex-group tests.
@pytest.mark.parametrize(
    "name, powers, extra, count",
    [
        ("g12", (6, 12), {(2, 3), (7, 7)}, 9),
        ("g13", (2, 4, 8), {(3, 4)}, 8),
        ("typeb3", (1, 2, 4), set(), 6),
    ],
)
def test_vertex_groups_match_reference(monkeypatch, name, powers, extra, count):
    g = bundled.get_structure(name)
    cases = set(extra)
    for zp in powers:
        for d in candidate_root_orders(g, zp):
            cases.add(reduce_exponents(d, zp))
    collapsed = []

    def counting(cat, path):
        collapsed.append(path)
        return collapse(cat, path)

    monkeypatch.setattr(periodic, "collapse", counting)
    checked = 0
    for p, q in sorted(cases):
        cat = build_category(g, p, q)
        if cat.objects:
            v = vertex_group(cat, 0)
            simplified = simplify_presentation(v)
            assert same(simplified, ref.simplify_presentation(v)), (p, q)
            # The summary collapses the one surviving generator, and only it.
            collapsed.clear()
            summary = periodic.centralizer_summary(cat, 0)
            paths = [v.loop_paths[x] for x in simplified.generators]
            assert collapsed == (paths if len(paths) == 1 else []), (p, q)
            assert summary == (
                len(simplified.generators),
                len(simplified.relators),
                len(paths) <= 1 and not simplified.relators,
                collapse(cat, paths[0]) if len(paths) == 1 else None,
            ), (p, q)
            checked += 1
    assert checked == count


def test_summary_collapses_the_generator_that_survives(monkeypatch):
    # Every single survivor above is loop 0; in g12's C_2^3, loop 1 collapses
    # to 1 and loop 0 to s t u, so a summary of loop 1 tells them apart.
    cat = build_category(bundled.get_structure("g12"), 2, 3)
    v = vertex_group(cat, 0)
    monkeypatch.setattr(
        periodic, "simplify_presentation", lambda v: SimplifiedPresentation([1], [])
    )
    summary = periodic.centralizer_summary(cat, 0)
    assert summary.generator_collapse == collapse(cat, v.loop_paths[1])
    assert summary.generator_collapse != collapse(cat, v.loop_paths[0])


def _relator_lists(generators):
    letters = st.integers(1, generators).flatmap(lambda x: st.sampled_from((x, -x)))
    return st.lists(st.lists(letters, max_size=20), max_size=12)


presentations = st.integers(1, 12).flatmap(
    lambda k: st.tuples(st.just(k), _relator_lists(k))
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(presentations)
def test_random_presentations_match_reference(case):
    generators, relators = case
    v = presentation(generators, relators)
    assert same(simplify_presentation(v), ref.simplify_presentation(v))


def _triangles(generators, relators):
    gen = st.integers(1, generators)
    return st.lists(st.tuples(gen, gen, gen), min_size=relators, max_size=relators)


triangle_presentations = st.tuples(st.integers(3, 60), st.integers(0, 120)).flatmap(
    lambda km: st.tuples(st.just(km[0]), _triangles(*km))
)


# Relators f g h^-1 chain eliminations through many images, at sizes where the
# quadratic reference is too slow, so the indexed reference checks them.
@settings(max_examples=200, derandomize=True, deadline=None)
@given(triangle_presentations)
def test_triangle_presentations_match_indexed_reference(case):
    generators, triangles = case
    v = presentation(generators, [[f, g, -h] for f, g, h in triangles])
    assert simplify_presentation(v) == ref.simplify_indexed(v)


@pytest.mark.parametrize("name, p, q", [("typeb2", 4, 4), ("typeb3", 2, 2)])
def test_large_vertex_groups_match_indexed_reference(name, p, q):
    v = vertex_group(build_category(bundled.get_structure(name), p, q), 0)
    assert simplify_presentation(v) == ref.simplify_indexed(v)


def test_deep_image_chain_resolves_without_recursion():
    # Relator k eliminates N+2-k by N+1-k, so the last relator's N+1 resolves
    # to 1 only through a chain of N images, deeper than the recursion limit.
    n = 3000
    chain = [[n + 2 - k, -(n + 1 - k)] for k in range(1, n + 1)]
    v = presentation(n + 1, chain + [[n + 1, n + 1, 1, 1]])
    assert simplify_presentation(v) == SimplifiedPresentation([0], [[1, 1, 1, 1]])


def test_relators_are_rewritten_once_per_pop(monkeypatch):
    # g13 C_1^2: 89 loops, 631 relators and 86 eliminations.  Rewriting every
    # holder at each elimination free-reduces 3,565 words; rewriting a relator
    # only when the heap pops it free-reduces 1,279.  vertex_group leaves its
    # relators to the pass, which reduces each once on the way in.
    cat = build_category(bundled.get_structure("g13"), 1, 2)
    calls = []
    reduce = divided._free_reduce

    def counting(word):
        calls.append(None)
        return reduce(word)

    monkeypatch.setattr(divided, "_free_reduce", counting)
    simplified = simplify_presentation(vertex_group(cat, 0))
    assert (len(simplified.generators), len(simplified.relators)) == (3, 340)
    assert len(calls) <= 1300


def test_empty_presentation_is_conclusive(monkeypatch):
    empty = presentation(0, [])
    assert simplify_presentation(empty) == SimplifiedPresentation([], [])
    # The reference's step bound 10 * (generators + relators) is 0 here.
    assert ref.simplify_presentation(empty).inconclusive
    monkeypatch.setattr(periodic, "vertex_group", lambda cat, base: empty)
    summary = periodic.centralizer_summary(None, 0)
    assert summary.cyclic and not summary.inconclusive
    assert (summary.generator_count, summary.relator_count) == (0, 0)


def test_step_rewrites_only_the_relators_holding_the_generator():
    # The second relator is the first with a generator occurring once, and 3
    # is the largest; 3 = 2 1^-1 goes into the third relator only.
    v = presentation(3, [[1, 2, 1, 2], [3, 1, -2], [3, 3, 2]])
    expected = SimplifiedPresentation([0, 1], [[1, 2, 1, 2], [2, -1, 2, -1, 2]])
    assert simplify_presentation(v) == expected
    assert same(expected, ref.simplify_presentation(v))


# typeb3 C_2^2: 2,355 loop generators and 26,756 relators.  The literals were
# recorded with the reference loop, which takes about 75 s on this input.
TYPEB3_C22_GENERATORS = [362, 541, 720]
TYPEB3_C22_RELATORS = 4204
TYPEB3_C22_SHA256 = "e878a461d342c07dafdff1948827e212328ce32f3902191488f41200dd86f8cf"

_C22_SCRIPT = """
import hashlib, json
from garside import bundled
from garside.divided import build_category, simplify_presentation, vertex_group
from garside.periodic import CentralizerSummary
v = vertex_group(build_category(bundled.get_structure("typeb3"), 2, 2), 0)
s = simplify_presentation(v)
digest = hashlib.sha256(json.dumps(s.relators).encode()).hexdigest()
flag = CentralizerSummary.inconclusive
print(json.dumps([len(v.loop_edges), s.generators, len(s.relators), digest, flag]))
"""


def test_typeb3_c22_centralizer_is_pinned():
    env = dict(os.environ, PYTHONPATH=str(Path(garside.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _C22_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        2355,
        TYPEB3_C22_GENERATORS,
        TYPEB3_C22_RELATORS,
        TYPEB3_C22_SHA256,
        False,
    ]
