#!/usr/bin/env python3
"""Benchmark of the savesolve package in this checkout.

    python3 perfbench/run.py --workload tridiag_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1      # every workload, each in its own process

One caller drives the program in a closed loop: passes of the chosen
workload run back to back for --seconds, with every output checked.  With
--trace 0 the last stdout line reports the end-to-end metrics named in
BENCHMARK.json; with --trace 1 passes alternate between untraced and traced
and it reports the per-layer metrics.  The lines before it give every metric
of perfbench/README.md with its unit, the run metadata and the SHA-256 of
the results.  The exit code is 0 only when every check passed.

The package is imported from src/ of the checkout this script lives in; the
run fails when that is missing.  The BLAS pool is pinned to one thread.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy is first imported, here or in a child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("tridiag_sweep", "small_grid", "ev_scenarios", "qmc_oracle")
SETUP_RUNS = 9  # set-ups per run, all but one in fresh processes; the median is reported
CHILD_TIMEOUT_S = 170


def _fail(message: str) -> None:
    print(f"perfbench: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")


def _require_package() -> None:
    if not (SRC / "savesolve" / "__init__.py").is_file():
        _fail(f"no savesolve package under {SRC}")


def _import_workloads():
    """Import the package from this checkout's src/, never an installed copy."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads  # noqa: PLC0415  (imports numpy and savesolve)
    import savesolve  # noqa: PLC0415

    if Path(savesolve.__file__).resolve().parent != SRC / "savesolve":
        _fail(f"savesolve was imported from {savesolve.__file__}, not {SRC}")
    return workloads


def _set_up(name: str, seed: int, workdir: Path, tiny: bool):
    """Import, input generation and a warm-up pass at tiny sizes."""
    start = time.perf_counter()
    workloads = _import_workloads()
    cls = workloads.WORKLOADS[name]
    warm = workdir / "warm-up"
    warm.mkdir()
    cls(seed, warm, tiny=True).run_pass()
    workload = cls(seed, workdir, tiny=tiny)
    return workload, time.perf_counter() - start


def _child_setup_seconds(args) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        _fail(f"set-up child failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _measure(workload, seconds: float, tracer):
    """Run passes back to back for about `seconds`: no pass starts that would
    end more than half a pass past the deadline.  With a tracer, alternate
    untraced and traced passes and stop after a traced one."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        trace_this = tracer is not None and len(untraced) > len(traced)
        start = time.perf_counter()
        if trace_this:
            with tracer.installed():
                result = workload.run_pass()
        else:
            result = workload.run_pass()
        result.wall = time.perf_counter() - start
        if trace_this:
            result.layers = tracer.summarize(result.wall)
            traced.append(result)
        else:
            untraced.append(result)
        done = time.perf_counter() + 0.5 * result.wall >= deadline
        if done and (tracer is None or traced):
            return untraced, traced


def _percentile(values, q: int) -> float:
    """Nearest-rank percentile: always an observed latency, never a blend of
    two, which matters where a pass mixes calls of very different cost."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)), 1) - 1]


def _end_to_end(passes, setup_s: float, failed: int, attempted: int) -> dict:
    walls = [p.wall for p in passes]
    iterations = passes[0].iterations
    latencies_ms = [s * 1e3 for p in passes for s in p.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ms_per_iter": (statistics.median(p.wall * 1e3 / max(p.iterations, 1) for p in passes), "ms"),
        "iterations": (iterations, "count"),
        "solve_ms_p50": (_percentile(latencies_ms, 50), "ms"),
        "solve_ms_p95": (_percentile(latencies_ms, 95), "ms"),
        "failed_ratio": (failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _per_layer(untraced, traced, outcomes) -> dict:
    metrics = {
        key: ((statistics.median_low if unit == "count" else statistics.median)(
            p.layers[key][0] for p in traced), unit)
        for key, (_, unit) in traced[0].layers.items()
    }
    overhead = statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in untraced)
    metrics["trace.overhead"] = (overhead - 1.0, "ratio")
    errs = [o.x_err for o in outcomes if not math.isnan(o.x_err)]
    gaps = [o.oracle_gap for o in outcomes if not math.isnan(o.oracle_gap)]
    metrics["check.x_err_max"] = (max(errs, default=0.0), "abs")
    metrics["check.oracle_gap"] = (max(gaps, default=0.0), "ratio")
    return metrics


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _metadata(seed: int) -> dict:
    import numpy  # noqa: PLC0415

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
    }


def _digests(passes) -> tuple[dict, bool]:
    tables = {hashlib.sha256(p.table).hexdigest() for p in passes}
    iterates = {hashlib.sha256(p.iterates).hexdigest() for p in passes}
    digest = {"table_sha256": sorted(tables)[0], "iterates_sha256": sorted(iterates)[0]}
    return digest, len(tables) == 1 and len(iterates) == 1


def run_one(args, spec: dict) -> int:
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    setups = [_child_setup_seconds(args) for _ in range(SETUP_RUNS - 1)]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        workload, own_setup = _set_up(args.workload, args.seed, Path(tmp), args.tiny)
        setups.append(own_setup)
        tracer = None
        if args.trace:
            from tracing import Tracer  # noqa: PLC0415

            tracer = Tracer()
        untraced, traced = _measure(workload, args.seconds, tracer)
    passes = untraced + traced
    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(not o.ok for o in outcomes)
    digest, deterministic = _digests(passes)
    correct = failed == 0 and deterministic
    if args.trace:
        metrics = _per_layer(untraced, traced, outcomes)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = _end_to_end(untraced, statistics.median(setups), failed, len(outcomes))
        names = [m["name"] for m in spec["end_to_end"]]

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)} untraced, {len(traced)} traced; attempted={len(outcomes)} failed={failed} "
          f"latency_samples={sum(len(p.latencies) for p in untraced)} "
          f"setup_samples={len(setups)}")
    for o in outcomes:
        if not o.ok:
            print(f"FAILED CHECK: {o.label} x_err={o.x_err:.3e}")
    if not deterministic:
        print("FAILED CHECK: passes with identical inputs gave different results")
    record = {
        "meta": _metadata(args.seed),
        "digest": digest,
        "pass_walls_s": [p.wall for p in passes],
        "setup_samples_s": setups,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        shares = {k: v for k, (v, _) in metrics.items() if k.startswith("share.")}
        record["dominant_layer"] = max(shares, key=shares.get)[len("share."):]
    print("record " + json.dumps(record))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.jsonl")
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so no peak memory leaks across."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            _fail(f"workload {name} exited with code {proc.returncode}")
        status = max(status, proc.returncode)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    spec = _load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke check")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_package()
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
            _, seconds = _set_up(args.workload, args.seed, Path(tmp), args.tiny)
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
