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
from garside import bundled, periodic
from garside.divided import (
    SimplifiedPresentation,
    VertexGroupPresentation,
    build_category,
    simplify_presentation,
    vertex_group,
)
from garside.periodic import candidate_root_orders, reduce_exponents


def presentation(generators: int, relators: list[list[int]]) -> VertexGroupPresentation:
    return VertexGroupPresentation([], list(range(generators)), [], relators, [])


def same(a: SimplifiedPresentation, b: SimplifiedPresentation) -> bool:
    return (a.generators, a.relators, a.inconclusive) == (
        b.generators,
        b.relators,
        b.inconclusive,
    )


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
def test_vertex_groups_match_reference(name, powers, extra, count):
    g = bundled.get_structure(name)
    cases = set(extra)
    for zp in powers:
        for d in candidate_root_orders(g, zp):
            cases.add(reduce_exponents(d, zp))
    checked = 0
    for p, q in sorted(cases):
        cat = build_category(g, p, q)
        if cat.objects:
            v = vertex_group(cat, 0)
            assert same(simplify_presentation(v), ref.simplify_presentation(v)), (p, q)
            checked += 1
    assert checked == count


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


def test_empty_presentation_is_conclusive(monkeypatch):
    empty = presentation(0, [])
    assert same(simplify_presentation(empty), SimplifiedPresentation([], [], False))
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
    expected = SimplifiedPresentation([0, 1], [[1, 2, 1, 2], [2, -1, 2, -1, 2]], False)
    assert same(simplify_presentation(v), expected)
    assert same(ref.simplify_presentation(v), expected)


# typeb3 C_2^2: 2,355 loop generators and 26,756 relators.  The literals were
# recorded with the reference loop, which takes about 75 s on this input.
TYPEB3_C22_GENERATORS = [362, 541, 720]
TYPEB3_C22_RELATORS = 4204
TYPEB3_C22_SHA256 = "e878a461d342c07dafdff1948827e212328ce32f3902191488f41200dd86f8cf"

_C22_SCRIPT = """
import hashlib, json
from garside import bundled
from garside.divided import build_category, simplify_presentation, vertex_group
v = vertex_group(build_category(bundled.get_structure("typeb3"), 2, 2), 0)
s = simplify_presentation(v)
digest = hashlib.sha256(json.dumps(s.relators).encode()).hexdigest()
print(json.dumps([len(v.loop_edges), s.generators, len(s.relators), digest, s.inconclusive]))
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
