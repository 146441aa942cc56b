"""Mutants the tests must kill, one row each; run_mutants.py runs them.

A row names a file under src/garside, an exact old text in it, the new text
that replaces it, and the pytest node ids that must fail on the mutant.  The
old text must occur exactly once in its file, so a change that moves or
rewrites it updates the row on purpose.  A mutant the tests stop killing is
a defect of the tests, not a row to delete.
"""

from collections import namedtuple

Mutant = namedtuple("Mutant", ["name", "file", "old", "new", "tests"])

DIVIDED = "tests/test_divided.py::"
TIETZE = "tests/test_tietze.py::"

MUTANTS = [
    Mutant(
        "merge key reads a_k b_k in place of c_k",
        "divided.py",
        "members[t[2]][1:span:2]",
        "members[t[2]][:span:2]",
        [
            DIVIDED + "test_category_matches_word_product_reference[g13-6-2]",
            DIVIDED + "test_category_matches_word_product_reference[b3-6-2]",
        ],
    ),
    Mutant(
        "identities missing from D_2p^2q go unnoticed",
        "divided.py",
        '    assert list(compress(raw, is_identity)) == identities, '
        '"identity missing from D_2p^2q"\n',
        "",
        [DIVIDED + "test_build_category_finds_each_identity_in_d_2p_2q"],
    ),
    Mutant(
        "a part outside D_2p^2q goes unnoticed",
        "divided.py",
        "    assert None not in f_ids and None not in g_ids and None not in h_ids, (\n"
        '        "relation part outside D_2p^2q"\n'
        "    )\n",
        "",
        [DIVIDED + "test_build_category_checks_each_triple[part-outside]"],
    ),
    Mutant(
        "left identity law unchecked",
        "divided.py",
        '            assert gid == hid, "identity law broken: 1;t is not t"\n',
        "",
        [DIVIDED + "test_build_category_checks_each_triple[left-identity-law]"],
    ),
    Mutant(
        "right identity law unchecked",
        "divided.py",
        '            assert fid == hid, "identity law broken: t;1 is not t"\n',
        "",
        [DIVIDED + "test_build_category_checks_each_triple[right-identity-law]"],
    ),
    Mutant(
        "a source named twice goes unnoticed",
        "divided.py",
        '            assert sources[gid] is None, "endpoint not named exactly once"\n',
        "",
        [DIVIDED + "test_build_category_names_each_endpoint_exactly_once[duplicate]"],
    ),
    Mutant(
        "a source never named goes unnoticed",
        "divided.py",
        '    assert None not in sources and None not in targets, '
        '"endpoint not named exactly once"\n',
        "",
        [DIVIDED + "test_build_category_names_each_endpoint_exactly_once[drop]"],
    ),
    Mutant(
        "identity accepted as a composite",
        "divided.py",
        '            assert hid < n_mor, "identity as a composite"\n',
        "",
        [DIVIDED + "test_build_category_checks_each_triple[identity-composite]"],
    ),
    Mutant(
        "composability unchecked",
        "divided.py",
        '        assert sources[fid] == x and targets[gid] == y, "triple not composable"\n'
        '        assert targets[fid] == sources[gid], "triple not composable"\n',
        "",
        [DIVIDED + "test_build_category_checks_each_triple[not-composable]"],
    ),
    Mutant(
        "collector switched on even when it was off",
        "divided.py",
        "        if enabled:\n            gc.enable()\n",
        "        gc.enable()\n",
        [DIVIDED + "test_build_category_restores_the_collector[False]"],
    ),
    Mutant(
        "collector restored only on success",
        "divided.py",
        "    try:\n        return _assemble(g, p, q)\n    finally:\n"
        "        if enabled:\n            gc.enable()\n",
        "    category = _assemble(g, p, q)\n"
        "    if enabled:\n        gc.enable()\n    return category\n",
        [DIVIDED + "test_build_category_restores_the_collector[True]"],
    ),
    Mutant(
        "the walk's closure keeps its result alive",
        "divided.py",
        "        # premise that it makes no cycles, so it relies on this too.\n"
        "        del step\n",
        "        # premise that it makes no cycles, so it relies on this too.\n"
        "        pass\n",
        [DIVIDED + "test_divided_set_result_is_freed_with_its_caller"],
    ),
    Mutant(
        "images holding an eliminated generator keep it",
        "divided.py",
        "        for z in holds.pop(x, ()):\n"
        "            old = {abs(y) for y in images[z]}\n"
        "            if x in old:  # else x was already substituted into z's image\n"
        "                store(z, expand(images[z]), old)\n",
        "",
        [
            TIETZE + "test_relators_are_rewritten_once_per_pop",
            TIETZE + "test_vertex_groups_match_reference[g12-powers0-extra0-9]",
        ],
    ),
]
