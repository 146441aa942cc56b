"""Benchmark of the garside package in the enclosing checkout.

Usage (from the checkout root):

    python3 perfbench/run.py --workload {scenarios,nf-words,categories}
        --seed N --seconds S --trace {0,1}

Load is one client in a closed loop: the next job starts when the previous
one ends.  A run repeats whole passes of the workload's fixed job mix until
S seconds have gone, so every run measures the same mix.  `scenarios` runs
each job as a `python -m garside.cli` child; `nf-words` and `categories`
run each pass in a fresh worker process (see worker.py) that builds its
structures in set-up.  Every output is checked.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 each pass runs twice, untraced then traced, and the last line
carries per-layer self times and counters (means per traced pass) and the
tracing overhead.  Earlier lines are a human-readable account.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import bench_jobs as jobs
from bench_stats import percentile, tail
from bench_trace import TRACED_MODULES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("scenarios", "nf-words", "categories")
JOB_LIMIT_S = 20.0
# No new pass starts after this many seconds, so a run ends well within the
# 180 s a run may take even when the program is slow.
LAST_PASS_START_S = 100.0
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 5
# The tail percentile is chosen as if the run had this many passes, so it is
# the same percentile however many passes a run completes in its time.
TAIL_BASIS_PASSES = 3

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("cold_start_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_TIMED = {
    "presentation": ("congruence_classes",),
    "monoid": ("build_garside", "normal_form", "normal_form_signed", "multiply", "invert", "power", "is_central"),
    "divided": ("decompositions", "divided_set", "build_category", "vertex_group", "collapse", "simplify_presentation"),
    "periodic": ("roots_report", "centralizer_summary"),
    "reflgroups": ("regularity", "regular_numbers", "isodiscriminantal_pairs"),
}
# (name, unit, better).  Times and counts are means per traced pass.
PER_LAYER = (
    *(
        (f"{layer}.{fn}.{stat}", unit, "lower")
        for layer, fns in _TIMED.items()
        for fn in fns
        for stat, unit in (("self_s", "s"), ("calls", "count"))
    ),
    ("presentation.parse_presentation.self_s", "s", "lower"),
    ("presentation.words_closed", "count", "lower"),
    ("monoid.simples", "count", "lower"),
    ("monoid.letters_in", "count", "lower"),
    ("monoid.factors_out", "count", "lower"),
    ("divided.tuples_out", "count", "lower"),
    ("divided.morphisms_out", "count", "lower"),
    ("divided.triples_out", "count", "lower"),
    ("divided.tietze_generators_in", "count", "lower"),
    ("divided.tietze_generators_out", "count", "lower"),
    ("divided.build_category.distinct_ratio", "ratio", "higher"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.run_scenario.self_s", "s", "lower"),
    ("bundled.get_structure.calls", "count", "lower"),
    ("bundled.cache_hit_ratio", "ratio", "higher"),
    *((f"{layer}.errors", "count", "lower") for layer in TRACED_MODULES),
    ("trace_overhead_ratio", "ratio", "lower"),
)

# Spans that must record calls on each workload; zero calls means a binding
# was missed or the workload no longer exercises the layer it is meant to.
_SETUP_SPANS = (
    "presentation.parse_presentation",
    "presentation.congruence_classes",
    "monoid.build_garside",
    "bundled.get_structure",
)
EXPECTED_SPANS = {
    "scenarios": _SETUP_SPANS
    + (
        "cli.main",
        "cli.run_scenario",
        "reflgroups.regularity",
        "reflgroups.regular_numbers",
        "reflgroups.isodiscriminantal_pairs",
        "divided.build_category",
    ),
    "nf-words": _SETUP_SPANS
    + tuple(f"monoid.{m}" for m in ("normal_form", "normal_form_signed", "multiply", "invert", "power", "is_central")),
    "categories": _SETUP_SPANS
    + tuple(f"divided.{f}" for f in _TIMED["divided"])
    + ("periodic.roots_report", "periodic.centralizer_summary"),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "GARSIDE_ENUM_BUDGET")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _under(path: str, directory: Path) -> bool:
    return Path(path).resolve().is_relative_to(directory.resolve())


def guard(env: dict) -> dict:
    """Check that children import garside from this checkout; describe the run."""
    if not (SRC / "garside" / "__init__.py").is_file():
        raise BenchError(f"no garside package under {SRC}")
    probe = subprocess.run(
        [sys.executable, "-c", "import garside; print(garside.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    found = probe.stdout.strip()
    if probe.returncode != 0 or not _under(found, SRC / "garside"):
        raise BenchError(f"garside resolves to {found or probe.stderr.strip()!r}, not {SRC}")
    commit = None
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = head.stdout.strip() or None
    return {
        "garside_file": found,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def run_worker(spec: dict, env: dict, deadline: float) -> dict:
    spec = {"job_limit_s": JOB_LIMIT_S, "setup_only": False, "traced": False, **spec}
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(5.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired:
        return {"error": "worker over the run's time limit", "jobs": []}
    if done.returncode != 0:
        return {"error": f"worker exit {done.returncode}: {done.stderr.strip()[-2000:]}", "jobs": []}
    try:
        report = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "worker printed no report", "jobs": []}
    if not _under(report["garside_file"], SRC / "garside"):
        report["error"] = f"worker imported garside from {report['garside_file']}"
    return report


class Run:
    """Samples and failures gathered over one benchmark run."""

    def __init__(self, env: dict, expected: dict) -> None:
        self.env = env
        self.expected = expected
        self.probe = jobs.ColdStartProbe(JOB_LIMIT_S, expected, env, ROOT)
        self.attempted = 0
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.setup: list[float] = []
        self.rss_kb: list[int] = []
        self.pass_rates: list[float] = []
        self.passes = 0

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failures.append(what)

    def job(self, key: str, seconds: float, problem: str | None) -> None:
        self.latencies.append(seconds)
        if problem:
            self.failures.append(f"{key}: {problem}")
        self.attempted += 1

    def cli(self, argv) -> float:
        seconds, problem = jobs.run_cli_child(argv, JOB_LIMIT_S, self.expected, self.env, ROOT)
        if problem:
            self.failures.append(f"{jobs.job_key(argv)}: {problem}")
        self.attempted += 1
        return seconds

    def worker(self, spec: dict, deadline: float) -> dict:
        report = run_worker(spec, self.env, deadline)
        if "error" in report:
            self.fail(report["error"])
        for key, seconds, problem in report["jobs"]:
            self.job(key, seconds, problem)
        if "setup_s" in report:
            self.setup.append(report["setup_s"])
        if "maxrss_kb" in report:
            self.rss_kb.append(report["maxrss_kb"])
        self.probe.samples += report.get("cold_start", [])
        self.probe.problems += report.get("cold_start_problems", [])
        return report


def end_to_end(workload: str, seed: int, seconds: float, run: Run) -> dict:
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    jobs.run_cli_child(jobs.COLD_START_JOB, JOB_LIMIT_S, run.expected, run.env, ROOT)  # fills the bytecode cache
    run.probe.due()
    loop_start = perf_counter()
    while run.passes == 0 or (
        perf_counter() - loop_start < seconds and perf_counter() - start < LAST_PASS_START_S
    ):
        first = len(run.latencies)
        if workload == "scenarios":
            for argv in jobs.scenario_pass(seed, run.passes):
                run.latencies.append(run.cli(argv))
                run.probe.due()
        else:
            spec = {"workload": workload, "seed": seed, "pass": run.passes, "probe": True}
            run.worker(spec, deadline)
        done = run.latencies[first:]
        if done:
            run.pass_rates.append(len(done) / sum(done))
        run.passes += 1
        run.probe.due()
    run.attempted += len(run.probe.samples)
    run.failures += run.probe.problems
    if workload == "scenarios":
        # Only CLI children have been waited for so far, so this is the
        # largest resident set among them.
        run.rss_kb.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    while len(run.setup) < SETUP_SAMPLES:
        report = run.worker({"workload": workload, "seed": seed, "pass": 0, "setup_only": True}, deadline)
        if "error" in report:
            break
    if not run.latencies:
        return {}

    q, tail_value, beyond = tail(run.latencies, TAIL_BASIS_PASSES * jobs.pass_size(workload))
    print(f"# {run.passes} passes, {len(run.latencies)} jobs; latency tail is p{q:g} with {beyond} samples beyond it")
    print(f"# setup samples (s): {[round(s, 4) for s in run.setup]}")
    print(f"# cold start: median of {len(run.probe.samples)} probes")
    return {
        "jobs_per_s": statistics.median(run.pass_rates),
        "latency_p50_ms": percentile(run.latencies, 50.0) * 1000.0,
        "latency_tail_ms": tail_value * 1000.0,
        "setup_s": statistics.median(run.setup) if run.setup else float("nan"),
        "cold_start_ms": statistics.median(run.probe.samples) * 1000.0,
        "peak_rss_mb": max(run.rss_kb) / 1024.0 if run.rss_kb else float("nan"),
    }


def traced(workload: str, seed: int, seconds: float, run: Run) -> dict:
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    plain_s = traced_s = 0.0
    summaries, imports, bindings = [], [], {}
    while run.passes == 0 or (
        perf_counter() - start < seconds and perf_counter() - start < LAST_PASS_START_S
    ):
        spec = {"workload": workload, "seed": seed, "pass": run.passes}
        plain = run.worker(spec, deadline)
        trace = run.worker({**spec, "traced": True}, deadline)
        run.passes += 1
        if "error" in plain or "error" in trace:
            continue
        if plain["digest"] != trace["digest"]:
            run.fail(f"pass {run.passes - 1}: traced outputs differ from untraced")
        plain_s += sum(j[1] for j in plain["jobs"])
        traced_s += sum(j[1] for j in trace["jobs"])
        summaries.append(trace["trace"])
        imports += [plain["import_s"], trace["import_s"]]
        bindings = trace["bindings"]
    if not summaries:
        return {}

    n = len(summaries)

    def mean(section: str, key: str) -> float:
        return sum(s[section].get(key, 0) for s in summaries) / n

    def ratio(num: tuple[str, str], den: tuple[str, str]) -> float:
        parts = [
            s[num[0]].get(num[1], 0) / s[den[0]][den[1]]
            for s in summaries
            if s[den[0]].get(den[1])
        ]
        return sum(parts) / len(parts) if parts else 0.0

    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat in ("self_s", "calls"):
            values[name] = mean(stat, span)
        elif stat == "errors":
            values[name] = mean("errors", span)
        elif name not in values:
            values[name] = mean("counters", name)
    values["divided.build_category.distinct_ratio"] = ratio(
        ("counters", "divided.build_category.distinct"), ("calls", "divided.build_category")
    )
    values["bundled.cache_hit_ratio"] = ratio(
        ("counters", "bundled.cache_hits"), ("calls", "bundled.get_structure")
    )
    values["cli.import_ms"] = statistics.median(imports) * 1000.0
    values["trace_overhead_ratio"] = traced_s / plain_s if plain_s else float("nan")

    for span in EXPECTED_SPANS[workload]:
        if not any(s["calls"].get(span) for s in summaries):
            run.fail(f"span {span} recorded no calls on {workload}")
    print(f"# {run.passes} pass pairs; bindings patched per span: {json.dumps(bindings, sort_keys=True)}")
    spans = {k for s in summaries for k in s["self_s"]}
    for value, key in sorted(((mean("self_s", k), k) for k in spans), reverse=True)[:8]:
        print(f"# self time {key}: {value:.4f} s per pass")
    return values


def _finite(value: float | None) -> float | None:
    return value if value is not None and math.isfinite(value) else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = child_env()
    try:
        info = guard(env)
        run = Run(env, jobs.load_expected())
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info["seed"] = args.seed
    print(f"# garside benchmark: workload={args.workload} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(info, sort_keys=True)}")

    if args.trace:
        values = traced(args.workload, args.seed, args.seconds, run)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = end_to_end(args.workload, args.seed, args.seconds, run)
        units = dict(END_TO_END)

    attempted = run.attempted
    for failure in run.failures[:20]:
        print(f"# FAILED {failure}")
    print(f"# error_rate {len(run.failures)}/{attempted} = {len(run.failures) / max(attempted, 1):.4f}")
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    correct = not run.failures and set(values) == set(units)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": len(run.failures),
                "metrics": {
                    name: {"value": _finite(values.get(name)), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
