import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import garside
from garside import bundled
from garside.cli import _emit, main
from garside.errors import BudgetExceeded
from garside.presentation import DEFAULT_BUDGET, parse_presentation
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


@pytest.mark.parametrize("suite", ["verify-g12", "verify-g13"])
def test_scenario_builds_a_roots_category_once(capsys, monkeypatch, suite):
    # The roots-exist and roots-vs-regular rows read D_p^q alone; only the
    # centralizer row asks for a roots report, and so for a category.
    from garside import periodic

    report, seen = periodic.roots_report, []

    def counted(*args, **kwargs):
        seen.append(kwargs)
        return report(*args, **kwargs)

    monkeypatch.setattr(periodic, "roots_report", counted)
    rc, out, _ = run(capsys, "scenario", suite)
    assert rc == 0 and json.loads(out)["pass"] is True
    assert seen == [{"with_centralizer": True}]


@pytest.mark.parametrize(
    "suite, names",
    [("verify-g12", ["g12"]), ("verify-g13", ["g13"]), ("verify-typeb", ["typeb2", "typeb3"])],
)
def test_scenario_builds_each_structure_once(capsys, monkeypatch, suite, names):
    # The axioms row reads the cached structure that the suite's later rows
    # read, rather than building its own.
    from garside import monoid

    build, built = monoid.build_garside, []

    def counted(p, budget):
        built.append(p)
        return build(p, budget)

    monkeypatch.setattr(monoid, "build_garside", counted)
    monkeypatch.setattr(bundled, "build_garside", counted)
    bundled._structure.cache_clear()
    try:
        rc, out, _ = run(capsys, "scenario", suite)
    finally:
        bundled._structure.cache_clear()
    assert rc == 0 and json.loads(out)["pass"] is True
    assert built == [bundled.load_presentation(name) for name in names]


@pytest.mark.parametrize(
    "text",
    [
        "gens: a b c\nrel: a b = b a\ndelta: a b\n",
        "gens: a b\nrel: a b = b a\nrel: a a = b b\ndelta: b a b a\n",
        "gens: a b\nrel: a b a = b a b\ndelta: a b a\n",
    ],
)
def test_scenario_axioms_row_matches_verify(tmp_path, text):
    # A failed build (balanced, then lattice) and a passing one.
    from garside import scenarios
    from garside.monoid import verify_presentation

    path = tmp_path / "p.gar"
    path.write_text(text)
    report = verify_presentation(bundled.load_presentation(str(path)))
    assert scenarios._axioms(DEFAULT_BUDGET, str(path)) == report["axioms"]


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


def test_scenario_budget_at_the_first_stratum(capsys):
    # g12's three generators make 81 words of length 4: budget 80 refuses
    # the build, and 81 runs every row, the roots rows included, as by default.
    rc, out, err = run(capsys, "scenario", "verify-g12", "--budget", "80")
    assert (rc, out) == (2, "")
    assert err == "error: stratum of length 4 has 81 words, over the budget of 80\n"
    rc, out, err = run(capsys, "scenario", "verify-g12", "--budget", "81")
    assert (rc, err) == (0, "")
    digest = "ac2354ded9ccdda60d1eed52d2b879b28a25984073f8ffb1029bd15c72640633"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    # A cubic normaliser takes minutes here; the limit is generous.  The work
    # per letter is bounded in test_normal_form.py.
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


def test_regular_numbers_past_the_budget_are_refused_before_any_division():
    # Listing the divisors of the degree 2 * 10^20 by trial division up to
    # its square root ran for more than 10 s; the budget reads only that root.
    env = dict(os.environ, PYTHONPATH=str(Path(garside.__file__).parents[1]))
    group = "G(100000000000000000000,1,2)"
    done = subprocess.run(
        [sys.executable, "-m", "garside.cli", "regular", group],
        capture_output=True,
        text=True,
        env=env,
        timeout=5,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        "error: G(100000000000000000000,1,2): the divisors of the degree "
        "200000000000000000000 take 14142135623 trial divisions, over the "
        "budget of 59049\n"
    )


def test_regular_numbers_budget_is_the_square_root_of_the_largest_degree(capsys):
    # G(12,12,2) has degrees 2 and 12, and isqrt(12) = 3.
    rc, out, _ = run(capsys, "regular", "G(12,12,2)", "--budget", "3")
    assert rc == 0
    assert json.loads(out)["regular_numbers"] == [1, 2, 3, 4, 6, 12]
    refusal = (
        "error: G(12,12,2): the divisors of the degree 12 take 3 trial "
        "divisions, over the budget of 2\n"
    )
    for argv in ([], ["-d", "3"]):
        rc, out, err = run(capsys, "regular", "G(12,12,2)", *argv, "--budget", "2")
        assert (rc, out, err) == (2, "", refusal)
    # A d that is not regular lists no regularity class, so nothing is refused.
    rc, out, _ = run(capsys, "regular", "G(12,12,2)", "-d", "5", "--budget", "2")
    assert rc == 0
    assert json.loads(out)["report"]["regular"] is False


def _cap_address_space():
    # A walk that allocates per entry before it checks its reach asks for
    # about 800 GB on -p 100000000000 -q 100000000000; under the cap it
    # fails at once instead of pressing on the host's memory.
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _divided_g12(p, q):
    return subprocess.run(
        [sys.executable, "-m", "garside.cli", "divided", "g12", "-p", p, "-q", q],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(garside.__file__).parents[1])),
        timeout=10,
        preexec_fn=_cap_address_space,
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
    done = _divided_g12(p, q)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"error: {name} ")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "p, q, m, n, cycles",
    [
        # A MemoryError and an OverflowError before the reach check.
        ("100000000000", "100000000000", 10**11, 10**11, 10**11),
        ("100000000000", "0", 10**11, 0, 10**11),
        ("1" + "0" * 20, "1" + "0" * 20, 10**20, 10**20, 10**20),
        # 993 entries pass the check and still hit the limit while walking.
        ("331", "331", 993, 993, 993),
    ],
)
def test_divided_far_past_recursion_limit_is_refused_up_front(p, q, m, n, cycles):
    done = _divided_g12(p, q)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        f"error: D_{m}^{n} is out of reach: its {cycles} free entries nest past "
        "the recursion limit\n"
    )


def test_divided_just_inside_recursion_limit_still_runs():
    done = _divided_g12("330", "330")
    assert done.returncode == 0
    assert json.loads(done.stdout)["p"] == 330


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


@pytest.mark.parametrize("n", [3000, 100000])
def test_typeb_listing_past_the_budget_is_refused_before_it_is_generated(n):
    # Without --check-epsilon the listing holds n(n-1)/2 relations and a
    # delta of n^2 letters; -n 3000 ran for more than 20 s when unbounded.
    env = dict(os.environ, PYTHONPATH=str(Path(garside.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "garside.cli", "typeb", "-n", str(n)],
        capture_output=True,
        text=True,
        env=env,
        timeout=5,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        f"error: the delta of {n} generators has {n * n} letters, over the "
        "budget of 59049\n"
    )


def test_typeb_listing_is_capped_at_delta_length(capsys):
    rc, out, _ = run(capsys, "typeb", "-n", "3", "--budget", "9")
    assert rc == 0
    assert json.loads(out)["delta"] == "b1 b2 b3 b1 b2 b3 b1 b2 b3"
    rc, out, err = run(capsys, "typeb", "-n", "3", "--budget", "8")
    assert (rc, out) == (2, "")
    assert err == (
        "error: the delta of 3 generators has 9 letters, over the budget of 8\n"
    )


def test_typeb_rank_past_the_int_digit_limit_is_refused_by_name(capsys):
    # int() of more digits than the interpreter's limit fails with Python's
    # own message; the resolver refuses such an n before reading it.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        pytest.skip("this interpreter reads integers of any length")
    rc, out, err = run(capsys, "verify", "typeb" + "1" * (limit + 100))
    assert rc == 2
    assert out == ""
    assert err == (
        f"error: typeb<n>: n has more than {limit} digits, the interpreter's "
        "limit for reading an integer\n"
    )


def test_typeb_rank_of_many_digits_is_refused_in_one_short_line(capsys):
    rc, out, err = run(capsys, "verify", "typeb" + "1" * 4300)
    assert rc == 2
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert len(err) < 200


def test_budget_of_many_digits_is_refused_in_one_short_line(capsys):
    rc, out, err = run(
        capsys, "verify", "typeb" + "1" * 4300, "--budget", "9" * 4300
    )
    assert rc == 2
    assert out == ""
    assert err == (
        "error: stratum of length 2 has a 8599-digit number of words, over the "
        "budget of a 4300-digit number\n"
    )
    assert len(err) < 200


@pytest.mark.parametrize(
    "budget, text",
    [
        ("0", "0"),
        ("-5", "-5"),
        ("-" + "9" * 30, "-" + "9" * 30),
        ("-1" + "0" * 30, "-a 31-digit number"),
        ("-" + "9" * 4300, "-a 4300-digit number"),
    ],
    ids=["0", "-5", "-30-digits", "-31-digits", "-4300-digits"],
)
def test_non_positive_budget_is_refused_in_one_short_line(capsys, budget, text):
    rc, out, err = run(capsys, "verify", "g12", "--budget", budget)
    assert rc == 2
    assert out == ""
    assert err == f"error: budget must be positive, got {text}\n"
    assert len(err) < 200


@pytest.mark.parametrize(
    "budget, text",
    [
        (59049, "59049"),
        (10**30 - 1, "9" * 30),
        (10**30, "a 31-digit number"),
        (10**4299, "a 4300-digit number"),
    ],
)
def test_budget_past_30_digits_is_given_by_its_digits(budget, text):
    assert str(BudgetExceeded("D_6^0 has at least 2 tuples", budget)) == (
        f"D_6^0 has at least 2 tuples, over the budget of {text}"
    )


@pytest.mark.parametrize(
    "generators, budget, stratum, words",
    [
        (10**30 - 1, 1, 1, f"{10**30 - 1} words"),
        (10**30, 1, 1, "a 31-digit number of words"),
        (10**15, 10**15, 2, "a 31-digit number of words"),
        (2, 2**99, 100, "a 31-digit number of words"),
        # A count of 8,599 digits, more than str() converts.
        (10**4299, 10**4299, 2, "a 8599-digit number of words"),
    ],
)
def test_budget_gives_counts_past_30_digits_by_their_digits(
    generators, budget, stratum, words
):
    from garside.presentation import check_strata

    with pytest.raises(BudgetExceeded) as caught:
        check_strata(generators, stratum, budget)
    # A budget of more than 30 digits is given by its digits too.
    budget_text = {10**4299: "a 4300-digit number"}.get(budget, budget)
    assert str(caught.value) == (
        f"stratum of length {stratum} has {words}, over the budget of {budget_text}"
    )


def test_named_presentations_are_made_once(monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return parse_presentation(text)

    monkeypatch.setattr(bundled, "parse_presentation", counting)
    bundled._named.cache_clear()
    bundled._structure.cache_clear()
    try:
        first = bundled.get_structure("g12")
        assert bundled.get_structure("g12") is first
        assert bundled.load_presentation("g12.gar") is bundled.load_presentation("g12")
        assert len(calls) == 1
    finally:
        bundled._named.cache_clear()
        bundled._structure.cache_clear()


def test_files_are_read_on_every_call(tmp_path):
    path = tmp_path / "braid.gar"
    path.write_text("gens: a b\nrel: a b a = b a b\ndelta: a b a\n")
    assert bundled.load_presentation(str(path)).generators == ("a", "b")
    path.write_text("gens: x y\nrel: x y x = y x y\ndelta: x y x\n")
    assert bundled.load_presentation(str(path)).generators == ("x", "y")


def test_a_generated_name_made_once_is_still_checked_against_the_budget():
    assert bundled.load_presentation("typeb4", 4**16) == typeb_presentation(4)
    with pytest.raises(BudgetExceeded, match="^stratum of length 8 has 65536 words"):
        bundled.load_presentation("typeb4")
    with pytest.raises(BudgetExceeded, match="^stratum of length 2 has 9000000 words"):
        bundled.load_presentation("typeb3000")


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
