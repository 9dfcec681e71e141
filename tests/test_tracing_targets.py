"""The traced benchmark run wraps savesolve functions at the module
attributes their callers use; a refactor that drops one of those names
breaks only the traced run, so check here that every target resolves, and
that a solve of each route still reaches its kernels through them."""

import importlib
import importlib.util
from pathlib import Path

from savesolve import GivenStart, SamplerSpec, SolverConfig, builtin_example
from savesolve.bench import run_experiment

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_target_resolves():
    tracing = load_tracing()
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.TARGETS and missing == []


def test_both_routes_call_the_traced_kernels():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    cfg = SolverConfig(max_iter=3)
    with tracer.installed():
        run_experiment(builtin_example("ex4_1"), SamplerSpec("halton", count=10, dim=1),
                       cfg, GivenStart((0.5, 2.0)), "erm")
        run_experiment(builtin_example("ex2_1"), SamplerSpec("scenarios", dim=1),
                       cfg, GivenStart((0.0, 0.0, 0.0, 0.0)), "ev")
    called = {rec[tracing.NAME] for rec in tracer.spans}
    expected = {"core.obj", "core.grad", "core.raw", "solver.armijo",
                "ev.obj", "ev.grad", "ev.raw"}
    assert expected - called == set()


def test_line_search_trials_bypass_the_public_kernels():
    # trials and the per-iterate raw value are evaluated along the ray, so
    # no objective span nests in a line search, and each solve's one raw
    # span is its start row
    tracing = load_tracing()
    tracer = tracing.Tracer()
    cfg = SolverConfig(max_iter=5)
    with tracer.installed():
        run_experiment(builtin_example("ex4_1"), SamplerSpec("halton", count=10, dim=1),
                       cfg, GivenStart((0.5, 2.0)), "erm")
        run_experiment(builtin_example("ex2_1"), SamplerSpec("scenarios", dim=1),
                       cfg, GivenStart((0.0, 0.0, 0.0, 0.0)), "ev")
    names = {rec[tracing.ID]: rec[tracing.NAME] for rec in tracer.spans}
    assert "solver.armijo" in names.values()
    nested = [rec[tracing.NAME] for rec in tracer.spans
              if rec[tracing.NAME] in ("core.obj", "ev.obj")
              and names.get(rec[tracing.PARENT]) == "solver.armijo"]
    assert nested == []
    raw = sorted((names[rec[tracing.SOLVE]], rec[tracing.NAME])
                 for rec in tracer.spans if rec[tracing.NAME] in ("core.raw", "ev.raw"))
    assert raw == [("solver.ev_solve", "ev.raw"), ("solver.solve", "core.raw")]
