"""Tests of the benchmark's own code: inputs, statistics, spans, tracing."""

from __future__ import annotations

import json
import sys
from math import gcd
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
if str(BENCH_DIR.parent / "src") not in sys.path:
    sys.path.append(str(BENCH_DIR.parent / "src"))

import bench_jobs as jobs  # noqa: E402
from bench_stats import percentile, tail  # noqa: E402
from bench_trace import Tracer, self_times  # noqa: E402


def test_same_seed_gives_same_inputs():
    assert jobs.nf_pass(7, 2) == jobs.nf_pass(7, 2)
    assert jobs.categories_pass(7, 2) == jobs.categories_pass(7, 2)
    assert jobs.scenario_pass(7, 2) == jobs.scenario_pass(7, 2)


def test_other_seed_gives_other_inputs_with_same_mix():
    (words_a, order_a), (words_b, order_b) = jobs.nf_pass(7, 0), jobs.nf_pass(8, 0)
    assert [w["letters"] for w in words_a] != [w["letters"] for w in words_b]
    assert order_a != order_b
    assert sorted(order_a) == sorted(order_b)
    mix = lambda ws: [(w["structure"], len(w["letters"])) for w in ws]
    assert mix(words_a) == mix(words_b)
    assert max(len(w["letters"]) for w in words_a) == 800
    assert jobs.categories_pass(7, 0) != jobs.categories_pass(8, 0)
    assert sorted(jobs.categories_pass(7, 0)) == sorted(jobs.categories_pass(8, 0))
    assert sorted(jobs.scenario_pass(7, 0)) == sorted(jobs.scenario_pass(8, 0))
    assert set(jobs.scenario_pass(7, 0)) == set(jobs.SCENARIO_JOBS)
    assert len(jobs.scenario_pass(7, 0)) == len(jobs.SCENARIO_JOBS) + (jobs.SCENARIO_HEAVY_COPIES - 1) * len(jobs.SCENARIO_HEAVY)


def test_category_pool_never_repeats_a_structure_and_exponents():
    seen = set()
    for job in jobs.category_pool():
        if job[0] == "roots":
            g = gcd(job[3], job[2])
            key = (job[1], job[3] // g, job[2] // g)
        else:
            key = job
        assert key not in seen
        seen.add(key)


def test_nearest_rank_percentile():
    samples = [float(x) for x in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 90) == 90.0
    assert percentile([3.0], 99) == 3.0


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail([float(x) for x in range(1, 101)]) == (90.0, 90.0, 10)
    assert tail([float(x) for x in range(1, 1001)]) == (99.0, 990.0, 10)
    # 199 samples: p95 would leave only 9 beyond, so p90 it is.
    assert tail([float(x) for x in range(1, 200)]) == (90.0, 180.0, 19)
    assert tail([float(x) for x in range(1, 41)]) == (75.0, 30.0, 10)
    # Too few samples for any rung: the median, with what lies beyond it.
    assert tail([5.0, 1.0, 4.0, 2.0, 3.0]) == (50.0, 3.0, 2)


def test_tail_basis_fixes_the_percentile_whatever_the_sample_count():
    # Chosen on 120 samples, the tail stays p90 with 200 samples (where p95
    # would qualify) and with 90 (where only p75 would).
    assert tail([float(x) for x in range(1, 201)], basis=120) == (90.0, 180.0, 20)
    assert tail([float(x) for x in range(1, 91)], basis=120) == (90.0, 81.0, 9)


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 5.0, 9.0, 0, None],
        ["a", 6.0, 7.0, 2, None],
        ["other", 11.0, 12.0, -1, None],
    ]
    assert self_times(spans) == {
        "root": (3.0, 1),
        "a": (4.0, 2),
        "b": (3.0, 1),
        "other": (1.0, 1),
    }


def test_traced_and_untraced_outputs_agree():
    import garside.cli as cli
    from garside import bundled, divided, periodic

    expected = jobs.load_expected()
    words, order = jobs.nf_pass(3, 0)
    # Arithmetic jobs run on the longest words; keep the test quick by
    # normalising only words of at most 96 letters.
    order = [job for job in order if len(job) == 2 and len(words[job[1]]["letters"]) <= 96]
    argv = jobs.COLD_START_JOB
    cat_jobs = [("category", "g12", 3, 3), ("roots", "g12", 6, 4)]

    def outputs():
        structures = {name: bundled.get_structure(name) for name in ("g12", "g13", "typeb3")}
        got = {}
        for job in order:
            got[job] = jobs.nf_call(structures, words, got, job)()
            assert jobs.nf_problems(structures, words, got, job) == []
        rendered = [[jobs.job_key(k), jobs.nf_output(v)] for k, v in sorted(got.items())]
        for job in cat_jobs:
            result = jobs.category_call(structures, divided, periodic, job)()
            summary = jobs.category_summary(structures, job, result)
            assert jobs.category_problems(structures, job, result, summary, expected) == []
            rendered.append([jobs.job_key(job), summary])
        code, out = jobs.cli_in_process(cli, bundled, argv)
        assert jobs.cli_problem(argv, code, out, expected) is None
        rendered.append([jobs.job_key(argv), jobs.digest(out)])
        return json.dumps(rendered)

    plain = outputs()
    tracer = Tracer()
    bindings = tracer.install()
    try:
        # Names imported into other modules are bound to the wrappers too.
        assert periodic.build_category is divided.build_category
        assert hasattr(periodic.build_category, "span_name")
        assert hasattr(bundled.build_garside, "span_name")
        from garside import monoid

        assert hasattr(monoid.congruence_classes, "span_name")
        assert bindings["divided.build_category"] == 2
        traced = outputs()
    finally:
        tracer.uninstall()
    assert not hasattr(periodic.build_category, "span_name")
    assert traced == plain
    calls = tracer.summary()["calls"]
    for name in ("monoid.normal_form_signed", "divided.build_category", "periodic.roots_report", "cli.main"):
        assert calls.get(name, 0) > 0, name


def test_benchmark_json_lists_the_metrics_run_reports():
    import run

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tuple_check_rejects_a_broken_tuple():
    from garside import bundled, divided

    g = bundled.get_structure("g12")
    fixed = divided.divided_set(g, 2, 3)
    assert all(jobs.tuple_problem(g, t, 3) is None for t in fixed)
    assert jobs.tuple_problem(g, (g.identity, g.identity), 3) is not None
    unfixed = [t for t in divided.decompositions(g, 2) if t not in fixed]
    assert unfixed and jobs.tuple_problem(g, unfixed[0], 3) is not None
