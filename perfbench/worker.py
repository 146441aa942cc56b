"""One pass of an in-process workload, run in a fresh interpreter.

Usage: python3 worker.py '<json spec>'

The spec names the workload, seed, pass index, whether to trace, and
whether to stop after set-up.  The worker imports the package (timed),
builds the workload's structures through the bundled cache (timed; this
is set-up), runs the pass's jobs one at a time with a per-job time limit,
checks every output outside the timed region, and prints one JSON object.

A fresh process per pass means a per-process memo inside the package can
only help where a pass itself repeats work.
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import signal
import sys
import traceback
from time import perf_counter

import bench_jobs as jobs

STRUCTURES = {
    "scenarios": jobs.SCENARIO_STRUCTURES,
    "nf-words": tuple(jobs.NF_STRUCTURES),
    "categories": tuple(jobs.CATEGORY_STRUCTURES),
}


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout()


def timed(call, limit: float):
    """(result, seconds, error) of call() under a wall-clock limit."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = perf_counter()
    try:
        result = call()
        return result, perf_counter() - start, None
    except JobTimeout:
        return None, perf_counter() - start, f"over the {limit:g} s job limit"
    except Exception as exc:  # a failed job is counted, the pass goes on
        return None, perf_counter() - start, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_pass(spec: dict) -> dict:
    start = perf_counter()
    import garside
    import garside.cli as cli
    from garside import bundled, divided, periodic

    import_s = perf_counter() - start

    tracer = None
    bindings: dict = {}
    if spec["traced"]:
        from bench_trace import Tracer

        tracer = Tracer()
        bindings = tracer.install()

    workload = spec["workload"]
    start = perf_counter()
    structures = {name: bundled.get_structure(name) for name in STRUCTURES[workload]}
    build_s = perf_counter() - start
    report = {
        "garside_file": garside.__file__,
        "python": platform.python_version(),
        "import_s": import_s,
        "setup_s": import_s + build_s,
        "bindings": bindings,
        "jobs": [],
    }
    if spec["setup_only"]:
        return report
    if tracer is not None:
        tracer.enabled = False

    expected = jobs.load_expected()
    limit = spec["job_limit_s"]
    seed, index = spec["seed"], spec["pass"]
    outputs: dict = {}
    records = report["jobs"]
    probe = jobs.ColdStartProbe(limit, expected) if spec.get("probe") else None

    def run(key, call):
        if tracer is not None:
            tracer.job = key
            tracer.enabled = True
        result, seconds, error = timed(call, limit)
        if tracer is not None:
            tracer.enabled = False
        records.append([key, seconds, error])
        if probe is not None:
            probe.due()
        return result, error

    if workload == "nf-words":
        for name, (ngens, _) in jobs.NF_STRUCTURES.items():
            if len(structures[name].presentation.generators) != ngens:
                raise SystemExit(f"{name}: generator count changed")
        words, order = jobs.nf_pass(seed, index)
        for job in order:
            key = jobs.job_key(job)
            try:
                call = jobs.nf_call(structures, words, outputs, job)
            except KeyError:
                records.append([key, 0.0, "input job failed"])
                continue
            result, error = run(key, call)
            if error is None:
                outputs[job] = result
                problems = jobs.nf_problems(structures, words, outputs, job)
                if problems:
                    records[-1][2] = "; ".join(problems)
        rendered = [[jobs.job_key(k), jobs.nf_output(v)] for k, v in sorted(outputs.items())]
    elif workload == "categories":
        for name, length in jobs.CATEGORY_STRUCTURES.items():
            if structures[name].delta_length != length:
                raise SystemExit(f"{name}: Delta length changed")
        for job in jobs.categories_pass(seed, index):
            key = jobs.job_key(job)
            result, error = run(key, jobs.category_call(structures, divided, periodic, job))
            if error is None:
                summary = jobs.category_summary(structures, job, result)
                outputs[key] = summary
                problems = jobs.category_problems(structures, job, result, summary, expected)
                if problems:
                    records[-1][2] = "; ".join(problems)
        rendered = sorted(outputs.items())
    elif workload == "scenarios":
        for argv in jobs.scenario_pass(seed, index):
            key = jobs.job_key(argv)
            result, error = run(key, lambda: jobs.cli_in_process(cli, bundled, argv))
            if error is None:
                outputs[key] = jobs.digest(result[1])
                records[-1][2] = jobs.cli_problem(argv, result[0], result[1], expected)
        rendered = sorted(outputs.items())
    else:
        raise SystemExit(f"unknown workload {workload!r}")

    report["digest"] = hashlib.sha256(json.dumps(rendered).encode()).hexdigest()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if probe is not None:
        report["cold_start"] = probe.samples
        report["cold_start_problems"] = probe.problems
    if tracer is not None:
        report["trace"] = tracer.summary()
    return report


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    spec = json.loads(sys.argv[1])
    try:
        report = run_pass(spec)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
