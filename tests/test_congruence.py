"""The lazy congruence oracle and the tables built on it, against the
eager reference on every word up to the length of Delta, on the bundled
structures and on seeded random presentations; typeb4's tables by digest."""

import hashlib
import itertools
import pickle
import random
from functools import lru_cache

import pytest

import build_reference
from congruence_reference import ReferenceTable, residuals, strata
from garside import bundled, monoid
from garside.divided import divided_set
from garside.monoid import build_garside
from garside.presentation import congruence_classes, parse_presentation

NAMES = ("g12", "g13", "typeb2", "typeb3")


@lru_cache(maxsize=None)
def reference(name: str) -> ReferenceTable:
    p = bundled.load_presentation(name)
    return ReferenceTable(p, len(p.delta_word))


def words_up_to(n: int, length: int):
    for k in range(length + 1):
        yield from itertools.product(range(n), repeat=k)


@pytest.mark.parametrize("name", NAMES)
def test_lazy_table_matches_reference(name):
    p = bundled.load_presentation(name)
    ref = reference(name)
    table = congruence_classes(p, len(p.delta_word))
    for w in words_up_to(len(p.generators), len(p.delta_word)):
        assert table.rep(w) == ref.rep(w)
    # class_members closes its class again on every call, so strata closes
    # each class once, from its least word; the random presentations below
    # close every class from each of its members.
    n, top = len(p.generators), len(p.delta_word)
    for length in range(top + 1):
        assert strata(table, n, length) == ref.classes(length)
    # Strata closed by enumeration alone agree as well.
    fresh = congruence_classes(p, top)
    assert strata(fresh, n, top) == ref.classes(top)


def random_presentation(seed: int) -> str:
    """A homogeneous `.gar` document on 2-4 generators with sides of length
    0-4; by seed it also has an empty relation, a trivial one u = u, a side
    shared by two relations, or a repeated relation."""
    rng = random.Random(seed)
    names = "abcd"[: rng.randint(2, 4)]

    def side(length):
        return " ".join(rng.choice(names) for _ in range(length))

    relations = []
    for _ in range(rng.randint(1, 4)):
        length = rng.randint(0, 4)
        relations.append((side(length), side(length)))
    lhs, rhs = relations[0]
    extra = seed % 5
    if extra == 1:
        relations.append(("", ""))
    elif extra == 2:
        relations.append((lhs, lhs))
    elif extra == 3:
        relations.append((side(len(lhs.split())), lhs))
    elif extra == 4:
        relations.append((lhs, rhs))
    rng.shuffle(relations)
    lines = [f"gens: {' '.join(names)}", f"delta: {names[0]}"]
    lines += [f"rel: {u} = {v}" for u, v in relations]
    return "\n".join(lines) + "\n"


def test_indexed_closure_matches_reference_on_random_presentations():
    for seed in range(200):
        p = parse_presentation(random_presentation(seed))
        n = len(p.generators)
        # 63, 121 or 85 words; class_members closes a class once per member.
        top = 7 - n
        ref = ReferenceTable(p, top)
        table = congruence_classes(p, top)
        for w in words_up_to(n, top):
            assert table.rep(w) == ref.rep(w), (seed, w)
            assert table.class_members(w) == ref.class_members(w), (seed, w)


@pytest.mark.parametrize("name", NAMES)
def test_simple_of_word_matches_reference(name):
    # Fold each word through the atom columns of the product table: a word is
    # simple iff every prefix is, and the fold then ends at its simple.
    g = bundled.get_structure(name)
    ref = reference(name)

    def simple_of_word(word):
        s = g.identity
        for gi in word:
            s = g.product_table[s][g.generator_atoms[gi]]
            if s is None:
                break
        return s

    simple_index = {w: i for i, w in enumerate(g.simples)}
    n = len(g.presentation.generators)
    for w in words_up_to(n, g.delta_length):
        assert simple_of_word(w) == simple_index.get(ref.rep(w))
    assert simple_of_word(g.presentation.delta_word + (0,)) is None


@pytest.mark.parametrize("name", NAMES)
def test_residuals_match_reference_scan(name):
    g = bundled.get_structure(name)
    ref = reference(name)
    assert g.residual_left == residuals(g, ref, left=True)
    table, _, _ = build_reference._build_residuals(g, left=False)
    assert table == residuals(g, ref, left=False)


@pytest.fixture
def oracles(monkeypatch):
    """Every congruence oracle build_garside makes, in order."""
    made = []

    def capture(*args):
        made.append(congruence_classes(*args))
        return made[-1]

    monkeypatch.setattr(monoid, "congruence_classes", capture)
    return made


@pytest.mark.parametrize(
    "name, closed, divided",
    [("g13", 192, [(3, 4), (2, 1), (3, 0)]), ("typeb3", 209, [(3, 1), (2, 1), (6, 2)])],
)
def test_build_closes_only_simple_classes(oracles, name, closed, divided):
    # Every word the oracle closed belongs to a simple: the build never falls
    # back to closing whole strata, and divided_set asks the oracle nothing.
    g = build_garside(bundled.load_presentation(name))
    [oracle] = oracles
    assert len(oracle.reps) == closed
    assert set(oracle.reps.values()) == set(g.simples)
    for m, n in divided:
        divided_set(g, m, n)
    assert len(oracle.reps) == closed


def test_typeb4_tables_are_pinned(oracles):
    # The largest class the repo closes: Delta's, 24,024 words.  The digest
    # was recorded with the closure that tried every rule at every position.
    g = build_garside(bundled.load_presentation("typeb4", 4**16), 4**16)
    [oracle] = oracles
    assert len(oracle.reps) == 103_484
    assert len(g.simples) == 384
    assert g.phi_order == 1
    phi_powers = [g.phi_power_perm(k) for k in range(g.phi_order)]
    tables = (g.simples, g.product_table, g.residual_left, g.split, phi_powers)
    digest = hashlib.sha256(pickle.dumps(tables, protocol=4)).hexdigest()
    assert digest == "ca5e8d0e7293450d901034aa4add21031371e38126cbe4fe76405ef1719f44d1"
