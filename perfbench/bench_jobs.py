"""Workload inputs, job execution and output checks.

Inputs depend only on (workload, seed, pass index); the same seed gives the
same inputs on every machine.  Every pass of a workload has the same job
mix, so passes are interchangeable samples; the seed chooses the random
letters of the words and the order in which jobs run.

A job is prepared into a zero-argument call (the timed part) and checked
afterwards against invariants or frozen literals (the untimed part).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# -- scenarios ---------------------------------------------------------------

# The five bundled suites and the README's ad-hoc commands on the bundled
# inputs.  Each runs as a fresh `python -m garside.cli` process, so cold
# start and per-process structure builds count as users pay them.
SCENARIO_JOBS: tuple[tuple[str, ...], ...] = (
    ("scenario", "verify-g12"),
    ("scenario", "verify-g13"),
    ("scenario", "verify-typeb"),
    ("scenario", "verify-regular"),
    ("scenario", "verify-pairs"),
    ("verify", "g12"),
    ("verify", "g13"),
    ("verify", "typeb3"),
    ("nf", "g12", "s", "t", "u", "s^-1"),
    ("nf", "typeb3", "b1", "b2", "b3^-1", "b1"),
    ("divided", "g12", "-p", "2", "-q", "3"),
    ("divided", "g13", "-p", "3", "-q", "4", "--dot"),
    ("roots", "g12", "--zp", "6", "-d", "8", "--centralizer"),
    ("regular", "G(12,12,2)", "-d", "3"),
    ("pairs", "--max-de", "120", "--max-n", "10"),
    ("typeb", "-n", "3", "--check-epsilon", "--wd", "b1 b2^-1 b1"),
)
# Nearest-rank percentiles of a fixed mix are steady only where they fall
# inside a group of jobs of about the same latency.  Sorted by latency, a
# pass is 6 jobs of 110-160 ms, 3 of 190-260 ms, the two g13 jobs (430-450
# ms), the three typeb3 jobs (570-650 ms) and the two suites that are almost
# all structure building (1.0-1.1 s).  Those two suites run three times a
# pass, giving 20 jobs: the median (rank 10) is then the middle of the g13
# group and the p75 tail (rank 15) lies one job into the suites, away from
# the edges between groups, where runs flip from one group to the next.
SCENARIO_HEAVY = (("scenario", "verify-g13"), ("scenario", "verify-typeb"))
SCENARIO_HEAVY_COPIES = 3
# The CLI job with the least work: no structure build, a few divisibility
# tests.  Its wall time is process start plus import.  Process start on a
# shared host is slow in bursts of a few seconds, so the probe runs at most
# every COLD_START_INTERVAL_S throughout a run rather than in one batch.
COLD_START_JOB = ("regular", "G(12,12,2)", "-d", "3")
COLD_START_INTERVAL_S = 2.0
SCENARIO_STRUCTURES = ("g12", "g13", "typeb2", "typeb3")

# -- nf-words ----------------------------------------------------------------

# Structure name -> (generator count, longest word).  Signed normal forms
# cost about cubically in length; the longest lengths make the longest
# words cost about the same on each structure (1.1-1.3 s at the seed
# commit), so the latency tail is one cluster rather than three.
NF_STRUCTURES = {"g12": (3, 600), "g13": (3, 750), "typeb3": (3, 800)}
NF_SHORT_LENGTHS = (24, 48, 96, 192, 384)
# Signed words of the longest length per structure: enough that they are
# more than 5% of the jobs, so the p95 tail falls among them.
NF_LONG_WORDS = 3
# Extra signed words of a typical request size per structure, about 40% of
# the jobs: the median is then the latency of a typical word, not of
# whichever job happens to rank in the middle of a spread-out mix.
NF_TYPICAL_LENGTH = 96
NF_TYPICAL_WORDS = 20
# Arithmetic runs on the signed and positive normal forms of these lengths
# (None: the longest), with the power exponent for each.  Sub-millisecond
# jobs time unsteadily on a shared host; keeping them under half the pass
# keeps the median on jobs of a millisecond or more.
NF_ARITHMETIC = ((96, -2), (384, 2), (None, 3))
NF_ARITHMETIC_KINDS = ("multiply", "invert", "power", "central")

# -- categories --------------------------------------------------------------

# Structure name -> length of Delta.  Checked against the built structure.
CATEGORY_STRUCTURES = {"g12": 4, "g13": 9, "typeb3": 9}
ROOT_POWERS = {"g12": (6, 12), "g13": (2, 4, 8), "typeb3": (1, 2, 4)}
# D_m^0, the untwisted decompositions of Delta.  Mid-sized cases keep
# `decompositions` measured without flooding the pass with microsecond jobs,
# which would put the median on a job too small to time steadily.  The two
# cases of m = 3 (0.4-0.6 ms) put 20 jobs below and 20 above the pair of
# `roots g12 ... 1` jobs (1.6-1.7 ms), so the median lies between those
# two rather than on the edge with the 2 ms job above them.
DECOMPOSITIONS = (("g12", 4), ("g13", 4), ("g13", 3), ("typeb3", 3))

# Inputs past the current reach of the engine, with single-run times on a
# 2-core x86-64 container (Python 3.11).  They are not run; they are the
# next workloads once the corresponding algorithms improve.
KNOWN_LIMITS = (
    ("build_category typeb2 C_4^4", "over 40 s (no result)"),
    ("divided_set g13 D_6^6", "17.7 s"),
    ("vertex_group + simplify_presentation typeb3 C_2^2", "60.4 s"),
    ("normal_form_signed, 1600 random letters", "9.5 s typeb3, 11.2 s g13, 22.6 s g12"),
)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def scenario_pass(seed: int, index: int) -> list[tuple[str, ...]]:
    jobs = list(SCENARIO_JOBS) + list(SCENARIO_HEAVY) * (SCENARIO_HEAVY_COPIES - 1)
    _rng("scenarios", seed, index).shuffle(jobs)
    return jobs


def nf_pass(seed: int, index: int) -> tuple[list[dict], list[tuple]]:
    """Words for one pass and its jobs in run order.

    A job is ("signed" | "positive", word index) or (arithmetic kind, signed
    word index, positive word index, exponent).  Word jobs run first in
    seeded order; arithmetic on the signed and positive normal forms of the
    NF_ARITHMETIC lengths follows in seeded order.
    """
    rng = _rng("nf-words", seed, index)
    words: list[dict] = []
    first: list[tuple] = []
    second: list[tuple] = []
    for name, (ngens, longest) in NF_STRUCTURES.items():
        lengths = NF_SHORT_LENGTHS + (longest,)
        signed = []
        extra = (longest,) * (NF_LONG_WORDS - 1) + (NF_TYPICAL_LENGTH,) * NF_TYPICAL_WORDS
        for length in lengths + extra:
            signed.append(len(words))
            letters = [(rng.randrange(ngens), rng.choice((1, -1))) for _ in range(length)]
            words.append({"structure": name, "letters": letters})
        positive = []
        for length in lengths:
            positive.append(len(words))
            words.append({"structure": name, "letters": tuple(rng.randrange(ngens) for _ in range(length))})
        first += [("signed", i) for i in signed] + [("positive", i) for i in positive]
        for length, exponent in NF_ARITHMETIC:
            k = lengths.index(length or longest)
            second += [(kind, signed[k], positive[k], exponent) for kind in NF_ARITHMETIC_KINDS]
    rng.shuffle(first)
    rng.shuffle(second)
    return words, first + second


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def category_pool() -> list[tuple]:
    """Every categories job once; no (structure, p, q) appears twice."""
    pool: list[tuple] = [("category", "g12", p, p) for p in range(2, 8)]
    pool.append(("category", "typeb3", 2, 2))
    pool += [("decompositions", s, m) for s, m in DECOMPOSITIONS]
    seen = set()
    for name, powers in ROOT_POWERS.items():
        for zp in powers:
            for d in _divisors(zp * CATEGORY_STRUCTURES[name]):
                g = math.gcd(d, zp)
                if (name, d // g, zp // g) not in seen:
                    seen.add((name, d // g, zp // g))
                    pool.append(("roots", name, zp, d))
    return pool


def categories_pass(seed: int, index: int) -> list[tuple]:
    pool = category_pool()
    _rng("categories", seed, index).shuffle(pool)
    return pool


def pass_size(workload: str) -> int:
    """Jobs in one pass of the workload; the same for every seed and pass."""
    if workload == "scenarios":
        return len(scenario_pass(0, 0))
    if workload == "nf-words":
        return len(nf_pass(0, 0)[1])
    return len(category_pool())


def job_key(job) -> str:
    return " ".join(str(part) for part in job)


# -- CLI jobs ----------------------------------------------------------------


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_problem(argv, returncode: int, stdout: bytes, expected: dict) -> str | None:
    """Why a CLI job's output is wrong, or None when it is right."""
    if returncode != 0:
        return f"exit status {returncode}"
    if digest(stdout) != expected["cli"][job_key(argv)]:
        return "stdout differs from the recorded digest"
    if argv[0] == "scenario" and json.loads(stdout).get("pass") is not True:
        return "scenario report does not pass"
    return None


def run_cli_child(argv, limit: float, expected: dict, env=None, cwd=None) -> tuple[float, str | None]:
    """Wall seconds and problem (None when correct) of one CLI process."""
    start = perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "garside.cli", *argv],
            env=env, cwd=cwd, capture_output=True, timeout=limit,
        )
    except subprocess.TimeoutExpired:
        return perf_counter() - start, f"over the {limit:g} s job limit"
    return perf_counter() - start, cli_problem(argv, done.returncode, done.stdout, expected)


class ColdStartProbe:
    """Samples of COLD_START_JOB, taken when `due` is polled between jobs."""

    def __init__(self, limit: float, expected: dict, env=None, cwd=None) -> None:
        self.args = (limit, expected, env, cwd)
        self.samples: list[float] = []
        self.problems: list[str] = []
        self._last = -math.inf

    def due(self) -> None:
        if perf_counter() - self._last < COLD_START_INTERVAL_S:
            return
        seconds, problem = run_cli_child(COLD_START_JOB, *self.args)
        self._last = perf_counter()
        self.samples.append(seconds)
        if problem:
            self.problems.append(f"cold start: {problem}")


def clear_structure_cache(bundled) -> None:
    for value in vars(bundled).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


def cli_in_process(cli, bundled, argv) -> tuple[int, bytes]:
    """Run `garside <argv>` inside this process with a cold structure cache."""
    clear_structure_cache(bundled)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue().encode("utf-8")


# -- nf-words jobs -----------------------------------------------------------


def nf_call(structures, words, outputs, job):
    kind, i = job[0], job[1]
    g = structures[words[i]["structure"]]
    letters = words[i]["letters"]
    if kind == "signed":
        return lambda: g.normal_form_signed(letters)
    if kind == "positive":
        return lambda: g.normal_form(letters)
    x, y = outputs[("signed", i)], outputs[("positive", job[2])]
    if kind == "multiply":
        return lambda: g.multiply(x, y)
    if kind == "invert":
        return lambda: g.invert(x)
    if kind == "power":
        return lambda: g.power(y, job[3])
    if kind == "central":
        return lambda: g.is_central(y)
    raise ValueError(kind)


def _nf_problems(g, x, length: int) -> list[str]:
    """Invariants that do not rely on the normaliser being right."""
    out = []
    if any(f in (g.identity, g.delta) for f in x.factors):
        out.append("a factor is the identity or Delta")
    if not all(g.left_weighted(a, b) for a, b in zip(x.factors, x.factors[1:])):
        out.append("adjacent factors are not left-weighted")
    if g.nf_length(x) != length:
        out.append(f"length {g.nf_length(x)} != {length}")
    return out


def nf_problems(structures, words, outputs, job) -> list[str]:
    kind, i = job[0], job[1]
    g = structures[words[i]["structure"]]
    letters = words[i]["letters"]
    out = outputs[job]
    if kind == "signed":
        problems = _nf_problems(g, out, sum(sign for _, sign in letters))
        back = g.multiply(out, g.invert(out))
        if (back.delta_power, back.factors) != (0, ()):
            problems.append("w * w^-1 is not the identity")
        return problems
    if kind == "positive":
        return _nf_problems(g, out, len(letters))
    x, y = outputs[("signed", i)], outputs[("positive", job[2])]
    if kind == "multiply":
        return _nf_problems(g, out, g.nf_length(x) + g.nf_length(y))
    if kind == "invert":
        return _nf_problems(g, out, -g.nf_length(x))
    if kind == "power":
        return _nf_problems(g, out, job[3] * g.nf_length(y))
    # A central element is a power of Delta, so its normal form has no factors.
    return ["central element with simple factors"] if out and y.factors else []


def nf_output(value) -> object:
    return value if isinstance(value, bool) else [value.delta_power, list(value.factors)]


# -- categories jobs ---------------------------------------------------------


def category_call(structures, divided, periodic, job):
    kind, name = job[0], job[1]
    g = structures[name]
    if kind == "category":
        return lambda: divided.build_category(g, job[2], job[3])
    if kind == "decompositions":
        return lambda: divided.decompositions(g, job[2])
    if kind == "roots":
        return lambda: periodic.roots_report(g, job[2], job[3], with_centralizer=True)
    raise ValueError(kind)


def category_summary(structures, job, result) -> dict:
    g = structures[job[1]]
    if job[0] == "category":
        return {
            "objects": len(result.objects),
            "morphisms": len(result.morphisms),
            "generators": len(result.generator_ids()),
            "triples": len(result.triples),
            "relations": len(result.relations),
        }
    if job[0] == "decompositions":
        return {"tuples": len(result)}
    c = result.centralizer
    return {
        "objects": result.object_count,
        "morphisms": result.morphism_count,
        "components": result.component_count,
        "exists": result.exists,
        "centralizer": None
        if c is None
        else {
            "generators": c.generator_count,
            "relators": c.relator_count,
            "cyclic": c.cyclic,
            "inconclusive": c.inconclusive,
            "collapse": None
            if c.generator_collapse is None
            else g.format_normal_form(c.generator_collapse),
        },
    }


def tuple_problem(g, t: tuple[int, ...], n: int) -> str | None:
    """A D_m^n tuple must fold to Delta and be fixed by the n-th twisted shift."""
    acc = g.identity
    for a in t:
        acc = g.simple_product(acc, a)
        if acc is None:
            return f"{t} does not fold to a simple"
    if acc != g.delta:
        return f"{t} folds to {g.render_simple(acc)}, not Delta"
    shifted = t
    for _ in range(n):
        shifted = shifted[1:] + (g.phi_simple(shifted[0]),)
    if shifted != t:
        return f"{t} is not fixed by sigma^{n}"
    return None


def category_problems(structures, job, result, summary: dict, expected: dict) -> list[str]:
    problems = []
    want = expected["categories"].get(job_key(job))
    if summary != want:
        problems.append(f"summary {summary} != frozen {want}")
    g = structures[job[1]]
    if job[0] == "category":
        q = job[3]
        tuples = [(t, q) for t in result.objects]
        tuples += [(m.entries, 2 * q) for m in result.morphisms]
        tuples += [(t, 2 * q) for t in result.identity_tuples.values()]
    elif job[0] == "decompositions":
        tuples = [(t, 0) for t in result]
    else:
        tuples = []
    for t, n in tuples:
        problem = tuple_problem(g, t, n)
        if problem:
            problems.append(problem)
            break
    return problems
