"""Experiment runner and table/trace emitters.

A run takes a problem, a sampler, a solver configuration, a starting-point
policy and a route (sample-average minimization or the expected-value
reduction) and produces one RunRecord plus the solve's report, whose trace
keeps each iterate's scalars but not its point, so a run holds O(n).
Tables print one row per record: the start and the solution to four decimals
per coordinate (in .4e scientific notation from magnitude 1e6 on) and the
objective in four-significant-digit scientific notation; traces are CSV with
one row per iterate at full precision.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from .core import StochasticProblem, UniformBox, _check_vector
from .ev import ev_solve, expected_instance
from .sampling import SamplerSpec, generate
from .solver import SolveReport, SolveStatus, SolverConfig, solve

__all__ = [
    "GivenStart",
    "UniformRandomStart",
    "RunRecord",
    "run_experiment",
    "emit_table",
    "emit_trace",
]

ROUTES = ("erm", "ev")

_TABLE_HEADER = ["N", "x0", "x*", "f(x*)"]


@dataclass(frozen=True)
class GivenStart:
    """Start the solver from an explicit point."""

    x: tuple

    def resolve(self, n: int) -> np.ndarray:
        return _check_vector(self.x, n, "x0")


@dataclass(frozen=True)
class UniformRandomStart:
    """Seeded uniform start on the box [lo, hi]^n."""

    lo: float = 0.0
    hi: float = 2.0
    seed: int = 0

    def resolve(self, n: int) -> np.ndarray:
        if not self.hi > self.lo:
            raise ValueError("x0 box needs hi > lo")
        rng = np.random.default_rng(self.seed)
        return self.lo + (self.hi - self.lo) * rng.random(n)


@dataclass(eq=False)
class RunRecord:
    """One experiment outcome; the table emitters print N, x0, x* and f(x*)."""

    example_id: str
    N: int
    x0: np.ndarray
    x_star: np.ndarray
    f_star: float
    grad_norm: float
    iterations: int
    mu_final: float
    status: SolveStatus
    wall_time: float
    ev_on_uniform: bool


def run_experiment(
    problem: StochasticProblem,
    sampler: SamplerSpec,
    cfg: SolverConfig,
    x0_policy: GivenStart | UniformRandomStart,
    route: str,
    example_id: str = "custom",
) -> tuple[RunRecord, SolveReport]:
    """Run one solve and package the outcome.

    The erm route draws the observation set from the sampler and minimizes
    the sample-average objective; the ev route ignores the sampler and solves
    the expected-value reduction (on a uniform-box problem that reduction is
    an extension with no scenario constraints, flagged on the record).
    Deterministic given the sampler and starting-point seeds.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; use one of {ROUTES}")
    x0 = x0_policy.resolve(problem.n)
    start = time.perf_counter()
    if route == "erm":
        samples = generate(sampler, problem)
        report = solve(problem, samples, x0, cfg)
        count = samples.N
        ev_on_uniform = False
    else:
        inst = expected_instance(problem)
        report = ev_solve(inst, x0, cfg)
        count = inst.count
        ev_on_uniform = isinstance(problem.distribution, UniformBox)
    wall = time.perf_counter() - start
    record = RunRecord(
        example_id=example_id,
        N=count,
        x0=x0,
        x_star=report.x_final,
        f_star=report.f_final,
        grad_norm=report.grad_norm_final,
        iterations=report.iterations,
        mu_final=report.mu_final,
        status=report.status,
        wall_time=wall,
        ev_on_uniform=ev_on_uniform,
    )
    return record, report


def _fmt_vector(v: np.ndarray) -> str:
    return "(" + ",".join(f"{c:.4e}" if abs(c) >= 1e6 else f"{c:.4f}" for c in v) + ")"


def _fmt_objective(v: float) -> str:
    return f"{v:.3e}"


def _table_rows(records) -> list[list[str]]:
    return [
        [str(r.N), _fmt_vector(r.x0), _fmt_vector(r.x_star), _fmt_objective(r.f_star)]
        for r in records
    ]


def emit_table(records, fmt: str = "aligned") -> str:
    """Render records as an aligned text table or CSV (RFC quoting)."""
    records = list(records)
    if not records:
        raise ValueError("no records to emit")
    rows = _table_rows(records)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_TABLE_HEADER)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt != "aligned":
        raise ValueError(f"unknown table format {fmt!r}; use aligned or csv")
    widths = [
        max(len(_TABLE_HEADER[c]), *(len(row[c]) for row in rows))
        for c in range(len(_TABLE_HEADER))
    ]
    lines = []
    for row in [_TABLE_HEADER] + rows:
        cells = [row[0].rjust(widths[0])]
        cells += [row[c].ljust(widths[c]) for c in range(1, len(row))]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def emit_trace(report: SolveReport) -> str:
    """CSV of the iterate trace: k, f, f_smoothed, grad_norm, mu, alpha."""
    lines = ["k,f,f_smoothed,grad_norm,mu,alpha"]
    for it in report.trace:
        lines.append(
            f"{it.k},{it.objective_raw:.17g},{it.objective:.17g},"
            f"{it.grad_norm:.17g},{it.mu:.17g},{it.step:.17g}"
        )
    return "\n".join(lines) + "\n"
