#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Checks that
  * every end-to-end and per-layer metric of README.md is emitted with a
    unit, and the last line carries exactly the metrics of BENCHMARK.json
    with their declared units, on every workload in both modes;
  * a deliberately wrong reference solution makes the checks fail, so the
    failed ratio rises above 0, on every workload;
  * without the package next to it the benchmark exits nonzero and prints
    no result.
Exits nonzero on the first failed check.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = (
    "setup_s", "wall_s", "ms_per_iter", "iterations", "solve_ms_p50", "solve_ms_p95",
    "failed_ratio", "peak_rss_mb",
)
PER_LAYER = (
    "sampling.calls", "sampling.points", "sampling.s", "sampling.us_per_point",
    "core.obj_calls", "core.obj_us", "core.grad_calls", "core.grad_us",
    "core.raw_calls", "core.raw_us", "core.s",
    "core.obj_us.N10", "core.obj_us.N50", "core.obj_us.N100", "core.obj_us.N200", "core.obj_us.N500",
    "solver.ls_trials", "solver.backtracks_per_iter", "solver.accept_ratio",
    "solver.evals_per_iter", "solver.mu_shrinks", "solver.ls_failures", "solver.self_s",
    "ev.setup_s", "ev.obj_calls", "ev.obj_us", "ev.grad_calls", "ev.grad_us", "ev.raw_calls", "ev.s",
    "analytic.exact_calls", "analytic.exact_us",
    "bench.emit_s", "bench.self_s", "cli.self_s", "problems.build_s",
    "trace.overhead", "check.x_err_max", "check.oracle_gap",
)

# a wrong reference solution for each workload
WRONG_REFERENCE = {
    "tridiag_sweep": lambda ref: ref + 1.0,
    "small_grid": lambda ref: {k: v + 1.0 for k, v in ref.items()},
    "ev_scenarios": lambda ref: ref + 1.0,
    "qmc_oracle": lambda ref: (ref[0] + 1.0, *ref[1:]),
}


def expect(condition, *detail) -> None:
    if not condition:
        raise AssertionError(detail)


def _run(argv, cwd=ROOT):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=170, cwd=cwd)


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names, declared in ((0, END_TO_END, "end_to_end"), (1, PER_LAYER, "per_layer")):
            proc = _run(["perfbench/run.py", "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace), "--tiny"])
            expect(proc.returncode == 0, (workload, trace, proc.stdout, proc.stderr))
            lines = proc.stdout.splitlines()
            record = json.loads(next(l for l in lines if l.startswith("record "))[len("record "):])
            for name in names:
                metric = record["metrics"][name]
                expect(isinstance(metric["value"], (int, float)) and metric["unit"], (workload, name))
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result)
            want = {m["name"]: m["unit"] for m in spec[declared]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, (workload, trace, got, want))
            print(f"ok  metrics emitted with units: {workload} trace={trace}")


def check_wrong_reference() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # noqa: PLC0415

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        for name, cls in workloads.WORKLOADS.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            workload = cls(3, workdir, tiny=True)
            good = workload.run_pass().outcomes
            expect(all(o.ok for o in good), [o.label for o in good if not o.ok])
            workload.reference = WRONG_REFERENCE[name](workload.reference)
            bad = workload.run_pass().outcomes
            failed_ratio = sum(not o.ok for o in bad) / len(bad)
            expect(failed_ratio > 0, name)
            print(f"ok  wrong reference gives failed_ratio={failed_ratio:.2f}: {name}")


def check_fails_without_package() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["perfbench/run.py", "--workload", "small_grid", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=tmp)
        expect(proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout))
        print("ok  exits nonzero without a result when the package is missing")


if __name__ == "__main__":
    check_fails_without_package()
    check_wrong_reference()
    check_metrics(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")))
    print("smoke check passed")
