"""The traced benchmark run wraps savesolve functions at the module
attributes their callers use; a refactor that drops one of those names
breaks only the traced run, so check here that every target resolves."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.TARGETS and missing == []
