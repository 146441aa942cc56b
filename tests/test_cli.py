import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import garside
from garside import bundled
from garside.cli import _emit, main
from garside.typeb import typeb_presentation


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_scenario_verify_pairs(capsys):
    rc, out, err = run(capsys, "scenario", "verify-pairs")
    assert rc == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["scenario"] == "verify-pairs"
    assert report["pass"] is True
    assert [c["id"] for c in report["checks"]] == ["c01-pair-count", "c02-pair-list"]
    assert all(c["pass"] for c in report["checks"])


def test_scenario_verify_pairs_searches_once(capsys, monkeypatch):
    from garside import reflgroups, scenarios

    search, calls = reflgroups.isodiscriminantal_pairs, []

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(reflgroups, "isodiscriminantal_pairs", counted)
    scenarios._default_pairs.cache_clear()
    rc, out, _ = run(capsys, "scenario", "verify-pairs")
    assert rc == 0 and json.loads(out)["pass"] is True
    assert calls == [()]


def test_scenario_output_is_byte_stable(capsys):
    rc1, out1, _ = run(capsys, "scenario", "verify-regular")
    rc2, out2, _ = run(capsys, "scenario", "verify-regular")
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "name, digest",
    [
        ("verify-g12", "ac2354ded9ccdda60d1eed52d2b879b28a25984073f8ffb1029bd15c72640633"),
        ("verify-g13", "eb72c5cefcc35e144d372e6cacd3a4dab8f841ffb043a2116b693623194bf93d"),
        ("verify-typeb", "3a1f76e2eb13b3e34f328a3ca5efdbadb847beb7d841df772e3333b0c0f3ebc1"),
        ("verify-regular", "37da8bdacb787fc11f8e3b5b76c6ac40007e993d50d4fa0c02b4e13d58a7b46e"),
        ("verify-pairs", "78a3dc8a6547fc2758bf3a9a7ff0b8edd0b5edcd5670c69923db1ef927c202b8"),
    ],
)
def test_scenario_report_is_byte_identical(capsys, name, digest):
    # Digests of the reports written by the per-suite check factories.
    rc, out, err = run(capsys, "scenario", name)
    assert rc == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_scenario_budget_overrun_emits_no_report(capsys):
    rc, out, err = run(capsys, "scenario", "verify-g13", "--budget", "19682")
    assert rc == 2
    assert out == ""
    assert err == "error: stratum of length 9 has 19683 words, over the budget of 19682\n"


def test_scenario_timings_flag(capsys):
    _, out, _ = run(capsys, "scenario", "verify-pairs", "--timings")
    report = json.loads(out)
    assert all(isinstance(c["elapsed_ms"], float) for c in report["checks"])
    _, out, _ = run(capsys, "scenario", "verify-pairs")
    report = json.loads(out)
    assert all(c["elapsed_ms"] is None for c in report["checks"])


def test_scenario_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scenario", "verify-nothing"])
    assert exc.value.code == 2


def test_verify_bundled(capsys):
    rc, out, _ = run(capsys, "verify", "g12")
    assert rc == 0
    report = json.loads(out)
    assert report["axioms"] == {"balanced": True, "lattice": True, "phi": True}
    assert report["simple_count"] == 11


def test_verify_failure_exits_1(capsys, tmp_path):
    bad = tmp_path / "free.gar"
    bad.write_text("gens: s t\ndelta: s t\n")
    rc, out, _ = run(capsys, "verify", str(bad))
    assert rc == 1
    report = json.loads(out)
    assert report["axioms"]["balanced"] is False
    assert report["witnesses"]


def test_missing_source_exits_2_without_report(capsys):
    rc, out, err = run(capsys, "verify", "/no/such/file.gar")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_nf(capsys):
    rc, out, _ = run(capsys, "nf", "g12", "s", "t", "u", "s")
    assert rc == 0
    report = json.loads(out)
    assert report["delta_power"] == 1
    assert report["factors"] == []
    assert report["rendered"] == "delta"
    assert report["canonical_length"] == 4


def test_nf_signed(capsys):
    rc, out, _ = run(capsys, "nf", "g12", "s", "s^-1", "t")
    assert rc == 0
    assert json.loads(out)["rendered"] == "t"


def test_nf_empty_word_is_identity(capsys):
    rc, out, _ = run(capsys, "nf", "g12", "")
    assert rc == 0
    report = json.loads(out)
    assert report["rendered"] == "1"
    assert report["delta_power"] == 0
    assert report["canonical_length"] == 0


def test_nf_long_signed_word_finishes():
    # A quadratic-or-worse normaliser takes minutes here; the limit is generous.
    rng = random.Random(4000)
    tokens = [rng.choice("stu") + rng.choice(("", "^-1")) for _ in range(4000)]
    env = dict(os.environ, PYTHONPATH=str(Path(garside.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "garside.cli", "nf", "g12", *tokens],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert done.returncode == 0, done.stderr
    exponent_sum = sum(-1 if t.endswith("^-1") else 1 for t in tokens)
    assert json.loads(done.stdout)["canonical_length"] == exponent_sum


def test_emit_writes_nothing_when_serialisation_fails(capsys):
    # CPython (3.10.7 and later) caps int-to-str conversion at 4300 digits.
    with pytest.raises(ValueError):
        _emit({"x": 10**5000})
    assert capsys.readouterr().out == ""


def test_regular_with_an_unprintable_order_emits_no_report(capsys):
    # The order of G(2,1,1500) has 4567 digits, past the default limit of
    # 4300 digits for printing an int; the CLI names the group and the limit.
    rc, out, err = run(capsys, "regular", "G(2,1,1500)")
    assert rc == 2
    assert out == ""
    assert err == (
        "error: G(2,1,1500): the group order has more than 4300 digits, "
        "the interpreter's limit for printing an integer\n"
    )


@pytest.mark.parametrize(
    "p, q, name",
    [
        # 1200 nested choices in decompositions: a raw RecursionError before.
        ("1200", "0", "D_1200^0"),
        # D_400^400 and D_800^800 fit, D_1200^1200 does not; the old filter
        # tried 2^400 length combinations and never got there.
        ("400", "400", "D_1200^1200"),
    ],
)
def test_divided_past_recursion_limit_is_a_clean_error(p, q, name):
    env = dict(os.environ, PYTHONPATH=str(Path(garside.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "garside.cli", "divided", "g12", "-p", p, "-q", q],
        capture_output=True,
        text=True,
        env=env,
        timeout=20,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"error: {name} ")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "source, p, q, digest",
    [
        ("g12", "2", "3", "0bd8e191d3e07ab5b4822b6898f2999dde95a2edfe57dfbc25f835d12d3aa3a2"),
        ("g13", "3", "4", "e12b398a6ade411b8697e63697ff2b78e04e411b185676546cc6f7e14c68a9aa"),
        ("g12", "7", "7", "b50f57ab92645ad579bb4aaf8b5728b8c6fd638535c3e9f1f051c98bb02d001d"),
        ("typeb3", "2", "2", "1df1329536a103f86a6de823e1ed64cefc1ea545b1025f332f46e55c352c5a48"),
    ],
)
def test_divided_json_is_byte_identical(capsys, source, p, q, digest):
    # Digests of the JSON recorded with the length-combination filter.
    rc, out, _ = run(capsys, "divided", source, "-p", p, "-q", q)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bundled_names_accept_gar_suffix(capsys):
    rc, out, _ = run(capsys, "nf", "g12.gar", "s", "t", "u", "s")
    assert rc == 0
    assert json.loads(out)["rendered"] == "delta"


@pytest.mark.parametrize("source", ["typeb4", "typeb4.gar"])
def test_typeb_names_resolve_to_the_generated_presentation(source):
    assert bundled.load_presentation(source, 4**16) == typeb_presentation(4)


def test_a_file_wins_over_a_generated_name(capsys, monkeypatch, tmp_path):
    (tmp_path / "typeb2").write_text("gens: a b\nrel: a b a = b a b\ndelta: a b a\n")
    monkeypatch.chdir(tmp_path)
    assert bundled.load_presentation("typeb2").generators == ("a", "b")
    rc, out, _ = run(capsys, "verify", "typeb2")
    assert rc == 0
    assert json.loads(out)["simple_count"] == 6


@pytest.mark.parametrize("source", ["typeb0", "typeb02", "typebx"])
def test_malformed_generated_names_are_unknown_sources(capsys, source):
    rc, out, err = run(capsys, "verify", source)
    assert rc == 2
    assert out == ""
    assert err == (
        f"error: {source!r} is not a file or a bundled presentation "
        "(bundled: g12, g13, typeb<n> for n >= 1)\n"
    )


def test_verify_typeb1(capsys):
    rc, out, _ = run(capsys, "verify", "typeb1")
    assert rc == 0
    assert json.loads(out)["simple_count"] == 2


def test_verify_typeb4_is_over_the_default_budget(capsys):
    rc, out, err = run(capsys, "verify", "typeb4")
    assert rc == 2
    assert out == ""
    assert err == "error: stratum of length 8 has 65536 words, over the budget of 59049\n"


@pytest.mark.parametrize(
    "n, stratum",
    [
        (3000, "stratum of length 2 has 9000000 words"),
        (100000, "stratum of length 1 has 100000 words"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [("verify", "typeb{n}"), ("typeb", "-n", "{n}", "--check-epsilon")],
    ids=lambda argv: argv[0],
)
def test_large_typeb_rank_is_refused_before_it_is_generated(argv, n, stratum):
    # n(n-1)/2 relations take seconds to generate at n = 2000; the budget
    # needs only n and |delta| = n^2, so the refusal comes first.
    env = dict(os.environ, PYTHONPATH=str(Path(garside.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "garside.cli", *(a.format(n=n) for a in argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: {stratum}, over the budget of 59049\n"


def test_nf_rejects_general_exponents(capsys):
    rc, out, err = run(capsys, "nf", "g12", "s^2")
    assert rc == 2
    assert out == ""
    assert "^-1" in err


def test_divided_json(capsys):
    rc, out, _ = run(capsys, "divided", "g12", "-p", "2", "-q", "3")
    assert rc == 0
    report = json.loads(out)
    assert [o["label"] for o in report["objects"]] == [
        "(s t, u s)",
        "(t u, s t)",
        "(u s, t u)",
    ]
    assert len(report["morphisms"]) == 6
    assert report["component_count"] == 1


def test_divided_dot(capsys):
    rc, out, _ = run(capsys, "divided", "g13", "-p", "3", "-q", "4", "--dot")
    assert rc == 0
    assert out.startswith('digraph "C_3^4"')
    assert out.count("->") == 9
    assert out.count("style=dashed") == 3


def test_roots(capsys):
    rc, out, _ = run(capsys, "roots", "g12", "--zp", "6", "-d", "12")
    assert rc == 0
    report = json.loads(out)
    assert report["exists"] is False
    assert report["object_count"] == 0
    assert report["centralizer"] is None


def test_roots_noncentral_power_exits_1(capsys):
    rc, out, err = run(capsys, "roots", "g12", "--zp", "1", "-d", "2")
    assert rc == 1
    assert out == ""
    assert "central" in err


def test_regular_single_report(capsys):
    rc, out, _ = run(capsys, "regular", "G(12,12,2)", "-d", "3")
    assert rc == 0
    report = json.loads(out)["report"]
    assert report["regular"] is True
    assert report["class"] == [3, 4, 6, 12]
    assert report["class_minimum"] is None


def test_regular_unknown_group(capsys):
    rc, out, err = run(capsys, "regular", "G99")
    assert rc == 2
    assert out == ""


def test_pairs_with_caps(capsys):
    rc, out, _ = run(capsys, "pairs", "--max-de", "6", "--max-n", "4")
    assert rc == 0
    report = json.loads(out)
    assert report["count"] == 5
    assert report["pairs"][0]["first"] == "G(1,1,3)"


def test_typeb_member_requires_e(capsys):
    rc, out, err = run(capsys, "typeb", "-n", "2", "--member", "b1")
    assert rc == 2
    assert "-e" in err


def test_typeb_winding(capsys):
    rc, out, _ = run(capsys, "typeb", "-n", "3", "--wd", "b1 b2^-1 b1 b2 b1^-1")
    assert rc == 0
    assert json.loads(out)["winding"]["value"] == 1


def test_budget_flag_too_small(capsys):
    rc, out, err = run(capsys, "verify", "g12", "--budget", "5")
    assert rc == 2
    assert out == ""
    assert "budget" in err


def test_budget_env_var_is_ignored(capsys, monkeypatch):
    # The budget is set by --budget alone.
    monkeypatch.setenv("GARSIDE_ENUM_BUDGET", "5")
    rc, out, _ = run(capsys, "verify", "g12")
    assert rc == 0
    assert json.loads(out)["simple_count"] == 11


def test_budget_error_names_the_stratum(capsys):
    rc, out, err = run(capsys, "verify", "g13", "--budget", "19682")
    assert rc == 2
    assert out == ""
    assert err == "error: stratum of length 9 has 19683 words, over the budget of 19682\n"


def test_budget_caps_divided_sets(capsys):
    # C_2^0 walks D_2^0, D_4^0 and D_6^0; the last has 366 tuples.
    rc, out, _ = run(capsys, "divided", "g12", "-p", "2", "-q", "0", "--budget", "366")
    assert rc == 0
    assert len(json.loads(out)["objects"]) == 11
    rc, out, err = run(capsys, "divided", "g12", "-p", "2", "-q", "0", "--budget", "365")
    assert rc == 2
    assert out == ""
    assert err == "error: D_6^0 has at least 366 tuples, over the budget of 365\n"


def test_typeb_rank_one_check_epsilon_passes(capsys):
    rc, out, _ = run(capsys, "typeb", "-n", "1", "--check-epsilon")
    assert rc == 0
    assert json.loads(out)["epsilon_check"]["delta_central"] is True


def test_typeb_rank_four_is_over_the_default_budget(capsys):
    rc, out, err = run(capsys, "typeb", "-n", "4", "--check-epsilon")
    assert rc == 2
    assert out == ""
    assert err == "error: stratum of length 8 has 65536 words, over the budget of 59049\n"


@pytest.mark.parametrize(
    "text, witnesses",
    [
        ("gens: a b c\nrel: a a = a b\ndelta: a a\n", ["b (right divisor only)"]),
        ("gens: s t\ndelta: s t\n", ["s (left divisor only)", "t (right divisor only)"]),
        (
            "gens: a b c\nrel: a b = b a\ndelta: a b\n",
            ["generator c does not divide delta"],
        ),
    ],
)
def test_verify_unbalanced_report(capsys, tmp_path, text, witnesses):
    path = tmp_path / "unbalanced.gar"
    path.write_text(text)
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 1
    expected = {
        "schema": 1,
        "source": str(path),
        "axioms": {"balanced": False, "lattice": None, "phi": None},
        "simple_count": None,
        "phi_order": None,
        "witnesses": witnesses,
    }
    assert out == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize(
    "text, witness",
    [
        (
            "gens: a b\nrel: a b = b a\nrel: a a = b b\ndelta: b a b a\n",
            "gcd (left) of a a and a b has 0 candidates",
        ),
        (
            "gens: a b\nrel: a b = b a\nrel: a b = b b\ndelta: a b\n",
            "left residual of b in a b is not unique: a vs b",
        ),
    ],
    ids=["gcd", "residual"],
)
def test_verify_gcd_witness_report(capsys, tmp_path, text, witness):
    # The two lattice checks the build runs, each with its own witness.
    path = tmp_path / "no_lattice.gar"
    path.write_text(text)
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 1
    assert err == ""
    assert out == (
        "{\n"
        '  "schema": 1,\n'
        f'  "source": {json.dumps(str(path))},\n'
        '  "axioms": {\n'
        '    "balanced": true,\n'
        '    "lattice": false,\n'
        '    "phi": null\n'
        "  },\n"
        '  "simple_count": null,\n'
        '  "phi_order": null,\n'
        '  "witnesses": [\n'
        f"    {json.dumps(witness)}\n"
        "  ]\n"
        "}\n"
    )


@pytest.mark.parametrize(
    "argv, files, code, message",
    [
        (
            ["nf", "{unbalanced}", "a"],
            {"unbalanced": "gens: a b c\nrel: a a = a b\ndelta: a a\n"},
            1,
            "balanced axiom failed: b (right divisor only)",
        ),
        (["divided", "g12", "-p", "0", "-q", "1"], {}, 2, "need p >= 1 and q >= 0"),
        (["verify", "g12", "--budget", "0"], {}, 2, "budget must be positive, got 0"),
        (
            ["verify", "{inhomogeneous}"],
            {"inhomogeneous": "gens: a b\nrel: a b = a\ndelta: a b\n"},
            2,
            "relations at indices [0] are not length-preserving",
        ),
        (
            ["roots", "g12", "--zp", "0", "-d", "2"],
            {},
            2,
            "exponents must be positive, got (2, 0)",
        ),
        # The arguments are checked before a budget too small to build g12.
        (
            ["divided", "g12", "-p", "0", "-q", "1", "--budget", "1"],
            {},
            2,
            "need p >= 1 and q >= 0",
        ),
        (
            ["roots", "g12", "--zp", "0", "-d", "2", "--budget", "1"],
            {},
            2,
            "exponents must be positive, got (2, 0)",
        ),
    ],
)
def test_error_exit_codes(capsys, tmp_path, argv, files, code, message):
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.gar"
        paths[name].write_text(text)
    rc, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert rc == code
    assert out == ""
    assert err == f"error: {message}\n"
