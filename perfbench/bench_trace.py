"""In-memory span tracing of the garside package, applied from outside it.

`Tracer.install` replaces the public functions of the traced modules (and
the normal-form methods of `GarsideStructure`) with wrappers that record a
span per call: name, start, end, index of the enclosing span, and the job
that caused it.  Every module that imported a wrapped function by name gets
the wrapper too, so `periodic.build_category` or `cli.build_garside` cannot
bypass the trace.  Nothing under the package's source tree changes.

Counters are taken at layer boundaries, that is on calls whose enclosing
span belongs to another layer, so work a layer does for itself (a signed
normal form calling multiply per letter) is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

TRACED_MODULES = (
    "presentation",
    "monoid",
    "divided",
    "periodic",
    "reflgroups",
    "bundled",
    "cli",
)

# Normal-form entry points on GarsideStructure.  Per-lookup helpers such as
# simple_product, left_divides and phi_simple stay unwrapped: a Python
# wrapper costs more than they do.
TRACED_METHODS = (
    "normal_form",
    "normal_form_signed",
    "multiply",
    "invert",
    "power",
    "is_central",
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list) -> dict[str, tuple[float, int]]:
    """Per span name: (self seconds, calls).

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because every traced layer is
    single-threaded.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[float, int]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - child[i], calls + 1)
    return out


class Tracer:
    """Span recorder.  Spans are [name, start, end, parent, job] lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.category_keys: set = set()
        self.enabled = True
        self.job: object = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn):
        tracer = self
        layer = layer_of(name)
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            span = [name, perf_counter(), 0.0, parent, tracer.job]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer, tracer.spans[parent][0] if parent >= 0 else "", args, result)
            return result

        wrapper.span_name = name
        wrapper.original = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> dict[str, int]:
        """Wrap every traced function; return bindings patched per span name."""
        modules = {m: importlib.import_module(f"garside.{m}") for m in TRACED_MODULES}
        originals: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    originals[id(value)] = self.wrap(f"{short}.{attr}", value)
        structure = modules["monoid"].GarsideStructure
        for attr in TRACED_METHODS:
            fn = vars(structure)[attr]
            wrapped = self.wrap(f"monoid.{attr}", fn)
            self._restore.append((structure, attr, fn))
            setattr(structure, attr, wrapped)

        bindings: Counter[str] = Counter()
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "garside" or mod_name.startswith("garside.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None and value is wrapped.original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped)
                    bindings[wrapped.span_name] += 1
        return dict(bindings)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- summaries -----------------------------------------------------------

    def summary(self) -> dict:
        """Self time, calls, counters and errors for the spans recorded so far."""
        times = self_times(self.spans)
        built = {s[3] for s in self.spans if s[0] == "monoid.build_garside"}
        lookups = [i for i, s in enumerate(self.spans) if s[0] == "bundled.get_structure"]
        counters = dict(self.counters)
        counters["bundled.cache_hits"] = sum(1 for i in lookups if i not in built)
        counters["divided.build_category.distinct"] = len(self.category_keys)
        return {
            "self_s": {k: v[0] for k, v in times.items()},
            "calls": {k: v[1] for k, v in times.items()},
            "counters": counters,
            "errors": dict(self.errors),
        }


# -- boundary counters -------------------------------------------------------
# Each observer sees the tracer, the enclosing span's name ("" at top level),
# the call's positional arguments and its result.


def _words_closed(t: Tracer, parent: str, args, result) -> None:
    n = len(args[0].generators)
    t.counters["presentation.words_closed"] += sum(n**k for k in range(1, args[1] + 1))


def _simples(t: Tracer, parent: str, args, result) -> None:
    t.counters["monoid.simples"] += len(result.simples)


def _nf_in(t: Tracer, parent: str, args, result) -> None:
    if layer_of(parent) != "monoid":
        t.counters["monoid.letters_in"] += len(args[1])
        t.counters["monoid.factors_out"] += len(result.factors)


def _nf_out(t: Tracer, parent: str, args, result) -> None:
    if layer_of(parent) != "monoid":
        t.counters["monoid.factors_out"] += len(result.factors)


def _tuples(t: Tracer, parent: str, args, result) -> None:
    if parent not in ("divided.divided_set", "divided.decompositions"):
        t.counters["divided.tuples_out"] += len(result)


def _category(t: Tracer, parent: str, args, result) -> None:
    t.counters["divided.morphisms_out"] += len(result.morphisms)
    t.counters["divided.triples_out"] += len(result.triples)
    t.category_keys.add((args[0].presentation, args[1], args[2]))


def _tietze(t: Tracer, parent: str, args, result) -> None:
    t.counters["divided.tietze_generators_in"] += len(args[0].loop_edges)
    t.counters["divided.tietze_generators_out"] += len(result.generators)


_OBSERVERS = {
    "presentation.congruence_classes": _words_closed,
    "monoid.build_garside": _simples,
    "monoid.normal_form": _nf_in,
    "monoid.normal_form_signed": _nf_in,
    "monoid.multiply": _nf_out,
    "monoid.invert": _nf_out,
    "monoid.power": _nf_out,
    "divided.divided_set": _tuples,
    "divided.decompositions": _tuples,
    "divided.build_category": _category,
    "divided.simplify_presentation": _tietze,
}
