"""Span tracing for the traced benchmark run.

The traced run swaps public savesolve functions, at the module attributes
through which their callers reach them, for wrappers that record one span per
call: name, start, end, parent span and the solve the call belongs to.  The
package itself is not changed.  Spans stay in memory; `Tracer.summarize`
turns one pass's spans into per-layer metrics and `Tracer.dump` writes the
spans of the last traced pass out when the run ends.

A span's self time is its duration minus the time covered by its child
spans.  Layers are the package modules; a span belongs to the layer named
before the dot in its span name.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import time
from collections import Counter, defaultdict


def _ev_objective_span(args, kwargs):
    mu = args[2] if len(args) > 2 else kwargs["mu"]
    return "ev.raw" if mu == 0 else "ev.obj"


# (module, attribute, span name); a callable picks the name from the call.
TARGETS = (
    ("savesolve.solver", "smoothed_objective", "core.obj"),
    ("savesolve.solver", "smoothed_gradient", "core.grad"),
    ("savesolve.solver", "erm_objective", "core.raw"),
    ("savesolve.solver", "armijo_backtrack", "solver.armijo"),
    ("savesolve.ev", "ev_objective", _ev_objective_span),
    ("savesolve.ev", "ev_gradient", "ev.grad"),
    ("savesolve.bench", "generate", "sampling.generate"),
    ("savesolve.bench", "solve", "solver.solve"),
    ("savesolve.bench", "ev_solve", "solver.ev_solve"),
    ("savesolve.bench", "expected_instance", "ev.setup"),
    ("savesolve.bench", "run_experiment", "bench.run_experiment"),
    ("savesolve.bench", "emit_table", "bench.emit"),
    ("savesolve.bench", "emit_trace", "bench.emit"),
    ("savesolve.cli", "main", "cli.main"),
    ("savesolve.cli", "run_experiment", "bench.run_experiment"),
    ("savesolve.cli", "emit_table", "bench.emit"),
    ("savesolve.cli", "emit_trace", "bench.emit"),
    ("savesolve.cli", "generate", "sampling.generate"),
    ("savesolve.cli", "erm_objective", "core.raw"),
    ("savesolve.cli", "exact_objective", "analytic.exact"),
    ("savesolve.cli", "builtin_example", "problems.build"),
    ("savesolve.cli", "load_case2_file", "problems.build"),
    ("savesolve.problems", "builtin_example", "problems.build"),
    ("savesolve.problems", "problem_from_dict", "problems.build"),
)

LAYERS = ("sampling", "core", "solver", "ev", "analytic", "bench", "cli", "problems")

# spans that start a solve; every span nested in one carries its id
SOLVE_SPANS = frozenset({"solver.solve", "solver.ev_solve"})

# sample counts of the ROADMAP's N sweep, for the per-call objective cost series
N_SERIES = (10, 50, 100, 200, 500)


def _samples_count(args, kwargs, result):
    samples = args[1] if len(args) > 1 else kwargs["samples"]
    return samples.N


def _report_counts(args, kwargs, result):
    shrinks = sum(b.mu < a.mu for a, b in zip(result.trace, result.trace[1:]))
    return result.iterations, shrinks, result.status.value == "line_search_failure"


NOTES = {
    "sampling.generate": lambda args, kwargs, result: result.N,
    "core.obj": _samples_count,
    "solver.solve": _report_counts,
    "solver.ev_solve": _report_counts,
}

# span record fields
ID, PARENT, SOLVE, NAME, START, END, CHILD, NOTE, RAISED = range(9)


class Tracer:
    """Records spans while `installed`; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.last_pass: list[list] = []
        self._stack: list[list] = []
        self._ids = itertools.count()

    def _wrap(self, fn, name, note):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else None
            sid = next(ids)
            solve = sid if span_name in SOLVE_SPANS else (parent[SOLVE] if parent else None)
            rec = [sid, parent[ID] if parent else None, solve, span_name, 0.0, 0.0, 0.0, None, False]
            stack.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
                if parent is not None:
                    parent[CHILD] += rec[END] - rec[START]
                spans.append(rec)
            if note is not None:
                rec[NOTE] = note(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its wrapper; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                note = NOTES.get(name) if isinstance(name, str) else None
                setattr(module, attr, self._wrap(fn, name, note))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def summarize(self, wall: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the spans recorded since the last call.

        wall is the pass's wall time, the base of the self-time shares.
        """
        spans = list(self.spans)
        self.spans.clear()
        self.last_pass = spans
        return layer_metrics(spans, wall)

    def dump(self, path) -> None:
        """Write the last traced pass's spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.last_pass:
                handle.write(json.dumps({
                    "id": rec[ID], "parent": rec[PARENT], "solve": rec[SOLVE],
                    "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "self": rec[END] - rec[START] - rec[CHILD],
                }) + "\n")


def layer_metrics(spans, wall: float) -> dict[str, tuple[float, str]]:
    """(value, unit) of every per-layer metric of one pass's spans; a
    layer the pass did not call reads 0."""
    count: Counter = Counter()
    dur: defaultdict = defaultdict(float)
    self_time: defaultdict = defaultdict(float)
    obj_by_n: defaultdict = defaultdict(lambda: [0, 0.0])
    points = iterations = mu_shrinks = ls_failures = 0
    searches = set()
    accepted = 0
    top_level = 0.0
    for rec in spans:
        name, d = rec[NAME], rec[END] - rec[START]
        count[name] += 1
        dur[name] += d
        self_time[name] += d - rec[CHILD]
        if rec[PARENT] is None:
            top_level += d
        if name == "solver.armijo":
            searches.add(rec[ID])
            accepted += not rec[RAISED]
        if rec[RAISED]:
            continue
        if name == "sampling.generate":
            points += rec[NOTE]
        elif name == "core.obj":
            bucket = obj_by_n[rec[NOTE]]
            bucket[0] += 1
            bucket[1] += d
        elif name in SOLVE_SPANS:
            its, shrinks, ls_failed = rec[NOTE]
            iterations += its
            mu_shrinks += shrinks
            ls_failures += ls_failed
    ls_trials = sum(
        1 for rec in spans if rec[PARENT] in searches and rec[NAME] in ("core.obj", "ev.obj")
    )
    evals = sum(count[n] for n in ("core.obj", "core.raw", "core.grad", "ev.obj", "ev.raw", "ev.grad"))

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call_us(name):
        return ratio(dur[name] * 1e6, count[name])

    def layer_self(layer):
        return sum(t for n, t in self_time.items() if n.split(".")[0] == layer)

    m = {
        "sampling.calls": (count["sampling.generate"], "count"),
        "sampling.points": (points, "count"),
        "sampling.s": (dur["sampling.generate"], "s"),
        "sampling.us_per_point": (ratio(dur["sampling.generate"] * 1e6, points), "us"),
        "core.obj_calls": (count["core.obj"], "count"),
        "core.obj_us": (per_call_us("core.obj"), "us"),
        "core.grad_calls": (count["core.grad"], "count"),
        "core.grad_us": (per_call_us("core.grad"), "us"),
        "core.raw_calls": (count["core.raw"], "count"),
        "core.raw_us": (per_call_us("core.raw"), "us"),
        "core.s": (layer_self("core"), "s"),
    }
    for n in N_SERIES:
        calls, seconds = obj_by_n.get(n, (0, 0.0))
        m[f"core.obj_us.N{n}"] = (ratio(seconds * 1e6, calls), "us")
    m.update({
        "solver.ls_trials": (ls_trials, "count"),
        "solver.backtracks_per_iter": (ratio(ls_trials - accepted, iterations), "count/iter"),
        "solver.accept_ratio": (ratio(accepted, ls_trials), "ratio"),
        "solver.evals_per_iter": (ratio(evals, iterations), "count/iter"),
        "solver.mu_shrinks": (mu_shrinks, "count"),
        "solver.ls_failures": (ls_failures, "count"),
        "solver.self_s": (layer_self("solver"), "s"),
        "ev.setup_s": (dur["ev.setup"], "s"),
        "ev.obj_calls": (count["ev.obj"], "count"),
        "ev.obj_us": (per_call_us("ev.obj"), "us"),
        "ev.grad_calls": (count["ev.grad"], "count"),
        "ev.grad_us": (per_call_us("ev.grad"), "us"),
        "ev.raw_calls": (count["ev.raw"], "count"),
        "ev.s": (layer_self("ev"), "s"),
        "analytic.exact_calls": (count["analytic.exact"], "count"),
        "analytic.exact_us": (per_call_us("analytic.exact"), "us"),
        "bench.emit_s": (dur["bench.emit"], "s"),
        "bench.self_s": (self_time["bench.run_experiment"], "s"),
        "cli.self_s": (self_time["cli.main"], "s"),
        "problems.build_s": (dur["problems.build"], "s"),
    })
    for layer in LAYERS:
        m[f"share.{layer}"] = (ratio(layer_self(layer), wall), "ratio")
    m["share.outside"] = (ratio(wall - top_level, wall), "ratio")
    return m
