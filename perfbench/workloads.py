"""The four seeded workloads of the savesolve benchmark.

Each workload draws every random input from the benchmark seed when it is
built (starts, sampler seeds, Halton offset, scenario points and
probabilities, the oracle case and its points) and hands the program only
those generated inputs.  `run_pass` makes the workload's calls into the
program back to back, as one caller in a closed loop, and checks every
output against a known answer at the acceptance tolerances below.

The program is always reached through module attributes (`cli.main`,
`bench.run_experiment`, ...) looked up at call time, so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from savesolve import bench, cli, problems
from savesolve.bench import GivenStart
from savesolve.sampling import SamplerSpec
from savesolve.solver import SolveStatus, SolverConfig

X_TOL = 1e-3  # infinity-norm error to a known solution
EV_F_TOL = 1e-8  # ev objective at the solution
EX4_3_F_TOL = 0.012  # ex4_3 has a positive residual floor
EX4_3_LEADING = (1.089, 1.073)
EX4_3_LEADING_TOL = 0.03


def qmc_gap_tol(count: int) -> float:
    """Bound on |Halton estimate - exact| / exact: the plain Monte Carlo
    rate 1/sqrt(N), which a low-discrepancy estimate must beat."""
    return 1.0 / math.sqrt(count)


@dataclass
class Outcome:
    """One checked operation: a solve, or one oracle evaluation."""

    label: str
    ok: bool
    x_err: float = math.nan
    oracle_gap: float = math.nan


@dataclass
class PassResult:
    outcomes: list[Outcome] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # seconds per call
    iterations: int = 0
    table: bytes = b""  # the program's result table
    iterates: bytes = b""  # final iterates as the program reported them
    wall: float = 0.0  # seconds for the whole pass
    layers: dict = field(default_factory=dict)  # per-layer metrics of a traced pass


def _call_cli(argv, result: PassResult) -> tuple[int, str]:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    result.latencies.append(time.perf_counter() - start)
    return code, out.getvalue()


def _call_run_experiment(result: PassResult, *args, **kwargs):
    start = time.perf_counter()
    record, _ = bench.run_experiment(*args, **kwargs)
    result.latencies.append(time.perf_counter() - start)
    result.iterations += record.iterations
    return record


def _inf_err(x, reference) -> float:
    return float(np.max(np.abs(np.asarray(x, dtype=float) - reference)))


def _parse_vector(text: str) -> list[float]:
    return [float(c) for c in text.strip("()").split(",")]


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class TridiagSweep:
    """CLI `run` on ex4_4 over an N sweep, every N solved from scratch.

    A pass runs the sweep from several seeded starts and Halton offsets, so
    one run averages over more than one draw of the inputs.
    """

    name = "tridiag_sweep"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = np.random.default_rng([seed, 1])
        n, counts, sweeps = (20, "10,50", 1) if tiny else (300, "10,50,100,200,500", 2)
        self.solves = len(counts.split(","))
        self.table_path = workdir / "tridiag_table.csv"
        self.argvs = [
            [
                "run", "--example", "ex4_4", "--n", str(n), "--N", counts,
                "--sampler", "halton",
                "--offset", str(int(rng.integers(0, 10_000))),
                "--x0-seed", str(int(rng.integers(0, 2**31))),
                "--out", str(self.table_path),
            ]
            for _ in range(sweeps)
        ]
        self.reference = np.ones(n)

    def run_pass(self) -> PassResult:
        result = PassResult()
        for argv in self.argvs:
            self.table_path.unlink(missing_ok=True)
            code, out = _call_cli(argv, result)
            status_lines = re.findall(r"^status=(\S+) iterations=(\d+)", out, re.M)
            rows = []
            if self.table_path.exists():
                table = self.table_path.read_bytes()
                result.table += table
                rows = list(csv.reader(io.StringIO(table.decode())))[1:]
            result.iterates += "\n".join(row[2] for row in rows).encode() + b"\n"
            for i in range(self.solves):
                if i >= len(status_lines) or i >= len(rows):
                    result.outcomes.append(Outcome(f"N sweep row {i}: missing", False))
                    continue
                status, iterations = status_lines[i]
                result.iterations += int(iterations)
                err = _inf_err(_parse_vector(rows[i][2]), self.reference)
                ok = code == 0 and status == "converged" and err <= X_TOL
                result.outcomes.append(Outcome(f"N={rows[i][0]} exit={code} {status}", ok, err))
        return result


class SmallGrid:
    """Library `run_experiment` calls on the small built-in instances."""

    name = "small_grid"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = np.random.default_rng([seed, 2])
        reps, counts, starts = (1, (10, 50), 2) if tiny else (6, (10, 50, 100, 200, 500), 5)
        self.cfg = SolverConfig()
        self.reference = {
            "ex4_1": np.array([1.0, 3.0]),
            "ex4_2": np.ones(4),
            "ex2_1": np.ones(4),
        }
        # (example, route, sampler, start)
        self.jobs: list[tuple[str, str, SamplerSpec, tuple]] = []
        for _ in range(reps):
            for example, n in (("ex4_1", 2), ("ex4_2", 4)):
                for count in counts:
                    sampler = SamplerSpec("pseudorandom", count, 1, int(rng.integers(2**63)))
                    for _ in range(starts):
                        self.jobs.append((example, "erm", sampler, tuple(rng.uniform(0, 2, n))))
            sampler = SamplerSpec("pseudorandom", 100, 1, int(rng.integers(2**63)))
            self.jobs.append(("ex4_3", "erm", sampler, tuple(rng.uniform(0, 2, 10))))
            for _ in range(starts):
                # the ev route ignores the sampler
                self.jobs.append(("ex2_1", "ev", SamplerSpec("scenarios"), tuple(rng.uniform(-5, 5, 4))))

    def _check(self, example: str, route: str, record) -> Outcome:
        label = f"{example} {route} N={record.N} {record.status.value}"
        ok = record.status is SolveStatus.CONVERGED
        if example == "ex4_3":
            lead = record.x_star[:2]
            ok &= record.f_star <= EX4_3_F_TOL and all(
                abs(v - t) <= EX4_3_LEADING_TOL for v, t in zip(lead, EX4_3_LEADING)
            )
            return Outcome(label, bool(ok))
        err = _inf_err(record.x_star, self.reference[example])
        ok &= err <= X_TOL
        if route == "ev":
            ok &= record.f_star <= EV_F_TOL
        return Outcome(label, bool(ok), err)

    def run_pass(self) -> PassResult:
        result = PassResult()
        instances = {ex: problems.builtin_example(ex) for ex in ("ex4_1", "ex4_2", "ex4_3", "ex2_1")}
        records = []
        for example, route, sampler, start in self.jobs:
            record = _call_run_experiment(
                result, instances[example], sampler, self.cfg, GivenStart(start), route,
                example_id=example,
            )
            records.append(record)
            result.outcomes.append(self._check(example, route, record))
        result.table = bench.emit_table(records, "csv").encode()
        result.iterates = np.concatenate([r.x_star for r in records]).tobytes()
        return result


def _scenario_document(rng, n: int, k: int) -> dict:
    """A finite-scenario tridiagonal problem solved by all-ones in every
    scenario, as a problem document."""
    lower, upper = rng.uniform(0.5, 1.5, n - 1), rng.uniform(0.5, 1.5, n - 1)
    A0 = np.diag(upper, 1) + np.diag(lower, -1)
    A0 += np.diag(2.0 + np.abs(A0).sum(axis=1))  # strictly diagonally dominant
    A1 = np.diag(rng.uniform(0.5, 1.5, n))
    ones = np.ones(n)
    omegas = rng.uniform(0.0, 2.0, k)
    weights = rng.uniform(0.5, 1.5, k)
    return {
        "n": n, "m": 1,
        "A_base": A0.tolist(), "A_terms": [A1.tolist()],
        # all-ones solves A(w) x - |x| = b(w) for every w
        "b_base": (A0 @ ones - ones).tolist(), "b_terms": [(A1 @ ones).tolist()],
        "distribution": {
            "kind": "finite_scenarios",
            "scenarios": [
                {"omega": [float(w)], "p": float(p)}
                for w, p in zip(omegas, weights / weights.sum())
            ],
        },
    }


class EvScenarios:
    """Generated finite-scenario tridiagonal instances, each solved through
    the ev route and then the erm route from the same start.

    A pass covers several seeded instances, so one run averages over more
    than one draw of the inputs.
    """

    name = "ev_scenarios"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = np.random.default_rng([seed, 3])
        n, k, instances = (12, 4, 1) if tiny else (250, 40, 3)
        # (problem document, start)
        self.instances = [
            (_scenario_document(rng, n, k), tuple(rng.uniform(0.0, 2.0, n)))
            for _ in range(instances)
        ]
        self.sampler = SamplerSpec("scenarios", count=k, dim=1)
        self.cfg = SolverConfig()
        self.reference = np.ones(n)

    def run_pass(self) -> PassResult:
        result = PassResult()
        records = []
        for document, start in self.instances:
            problem = problems.problem_from_dict(document)
            for route in ("ev", "erm"):
                record = _call_run_experiment(
                    result, problem, self.sampler, self.cfg, GivenStart(start), route,
                    example_id="ev_scenarios",
                )
                records.append(record)
                err = _inf_err(record.x_star, self.reference)
                ok = record.status is SolveStatus.CONVERGED and err <= X_TOL
                if route == "ev":
                    ok &= record.f_star <= EV_F_TOL
                result.outcomes.append(Outcome(f"{route} {record.status.value}", bool(ok), err))
        result.table = bench.emit_table(records, "csv").encode()
        result.iterates = np.concatenate([r.x_star for r in records]).tobytes()
        return result


class QmcOracle:
    """CLI `oracle`: closed-form expected objective against a Halton
    estimate, at several points of a generated case.

    There are no solver iterations here; the pass's `iterations` counts the
    quasi-Monte Carlo points evaluated, the oracle's inner loop.
    """

    name = "qmc_oracle"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = np.random.default_rng([seed, 4])
        n, m = 6, 3
        self.count, n_points = (512, 2) if tiny else (131072, 4)
        A = rng.uniform(-1.0, 1.0, (n, n)) + 3.0 * np.eye(n)
        b_tilde = rng.uniform(-1.0, 1.0, n)
        T = np.zeros((n, m))
        T[np.arange(n), rng.integers(0, m, n)] = rng.uniform(0.5, 2.0, n)
        case_path = workdir / "case2.json"
        case_path.write_text(json.dumps({"A": A.tolist(), "b_tilde": b_tilde.tolist(), "T": T.tolist()}))
        self.points = rng.uniform(-2.0, 2.0, (n_points, n))
        self.argvs = [
            ["oracle", "--case2-file", str(case_path), f"--x={_fmt(x)}", "--qmc", str(self.count)]
            for x in self.points
        ]
        # (A, b_tilde, per-row noise scale) of the closed form the program must print
        self.reference = (A, b_tilde, T.max(axis=1))

    def _closed_form(self, x) -> float:
        A, b_tilde, t = self.reference
        r = A @ x - np.abs(x) - b_tilde
        return float(np.sum(r * r + t * t / 3.0 - r * t))

    def run_pass(self) -> PassResult:
        result = PassResult()
        estimates = []
        for x, argv in zip(self.points, self.argvs):
            code, out = _call_cli(argv, result)
            result.table += out.encode()
            exact = re.search(r"^exact objective: (\S+)$", out, re.M)
            estimate = re.search(r"^halton estimate \(N=(\d+)\): (\S+)$", out, re.M)
            if code != 0 or exact is None or estimate is None:
                result.outcomes.append(Outcome(f"oracle exit={code}: unparsed output", False))
                continue
            exact_v, estimate_v = float(exact.group(1)), float(estimate.group(2))
            expected = self._closed_form(x)
            gap = abs(estimate_v - exact_v) / abs(exact_v)
            ok = (
                int(estimate.group(1)) == self.count
                and abs(exact_v - expected) <= 1e-9 * abs(expected)
                and gap <= qmc_gap_tol(self.count)
            )
            result.iterations += int(estimate.group(1))
            estimates.append(estimate_v)
            result.outcomes.append(Outcome(f"oracle exit={code} gap={gap:.3e}", ok, oracle_gap=gap))
        result.iterates = np.array(estimates).tobytes()
        return result


WORKLOADS = {w.name: w for w in (TridiagSweep, SmallGrid, EvScenarios, QmcOracle)}
