#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 1,2,3 --trace 0 --out summary.json
    python3 perfbench/collect.py --workloads qmc_oracle --seeds 1,2 --trace 1

Runs `run.py` once per workload and seed, one run at a time, and writes, per
workload and metric, the values, their median, their quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread: the distance
between the quartiles as a share of the median.  Each run's outcome and
result digests are kept under "runs", the run metadata under "meta".
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    summary = {"values": values, "median": median}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="tridiag_sweep,small_grid,ev_scenarios,qmc_oracle")
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)
    summary, status = {"trace": args.trace, "workloads": {}, "runs": []}, 0
    for workload in args.workloads.split(","):
        values: dict[str, list] = {}
        units: dict[str, str] = {}
        for seed in args.seeds.split(","):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", seed, "--trace", str(args.trace)]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=HERE.parent)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                status = 1
            if proc.returncode not in (0, 1) or not lines:
                continue  # no result: the run did not get to measure
            result = json.loads(lines[-1])
            record = json.loads(next(l for l in lines if l.startswith("record "))[len("record "):])
            summary["meta"] = {k: v for k, v in record["meta"].items() if k != "seed"}
            summary["runs"].append({
                "workload": workload, "seed": int(seed), "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                **record["digest"],
                **({"dominant_layer": record["dominant_layer"]} if "dominant_layer" in record else {}),
            })
            for name, metric in record["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed={seed} correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary["workloads"][workload] = {
            name: {"unit": units[name], **summarize(v)} for name, v in values.items()
        }
    for workload, metrics in summary["workloads"].items():
        for name, s in metrics.items():
            if s.get("spread") is not None:
                print(f"  {workload} {name}: median={s['median']:.6g} {s['unit']} spread={s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
