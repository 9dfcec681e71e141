"""Smoothing gradient descent with Armijo backtracking and a shrinking
smoothing parameter.

The driver minimizes a family f(x, mu) of smooth surrogates of a nonsmooth
objective.  One outer iteration:

  1. stop if ||grad f(x_k, mu_k)|| <= epsilon;
  2. take the steepest-descent direction d_k = -grad f(x_k, mu_k);
  3. accept the largest step alpha = rho^j, j = 0, 1, ..., with
         f(x_k + alpha d_k, mu_k) - f(x_k, mu_k)
             <= delta * alpha * grad f(x_k, mu_k)^T d_k;
  4. shrink mu_{k+1} = sigma * mu_k when ||grad f(x_{k+1}, mu_k)|| falls
     below gamma_bar * mu_k, otherwise keep mu_{k+1} = mu_k.

The shrink test is evaluated at the fresh iterate x_{k+1}, which is the
argument the method's stationarity guarantee is stated for.

The solve ends with status non_finite once f(x_k, mu_k) or its gradient norm
is not finite, as when a finite start overflows the sum of squares; a
non-finite trial value just fails the Armijo test.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    SampleSet,
    StochasticProblem,
    _check_int,
    erm_objective,
    smoothed_gradient,
    smoothed_objective,
)

__all__ = [
    "SolveStatus",
    "SolverConfig",
    "Iterate",
    "SolveReport",
    "LineSearchError",
    "armijo_backtrack",
    "minimize_smoothed",
    "solve",
]


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    ITERATION_CAP = "iteration_cap"
    LINE_SEARCH_FAILURE = "line_search_failure"
    NON_FINITE = "non_finite"


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the smoothing gradient method.

    rho_backtrack shrinks the trial step, sigma shrinks mu, delta is the
    sufficient-decrease fraction, gamma_bar scales the mu-shrink test and
    epsilon is the gradient-norm stopping tolerance.
    """

    rho_backtrack: float = 0.5
    sigma: float = 0.5
    delta: float = 0.5
    mu0: float = 0.01
    gamma_bar: float = 0.5
    epsilon: float = 1e-5
    max_iter: int = 10000
    max_backtracks: int = 60

    def __post_init__(self):
        for name in ("rho_backtrack", "sigma", "delta", "gamma_bar", "mu0", "epsilon"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        for name in ("rho_backtrack", "sigma", "delta", "gamma_bar"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
        for name in ("mu0", "epsilon"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        _check_int(self.max_iter, "max_iter", 1)
        _check_int(self.max_backtracks, "max_backtracks", 1)


@dataclass(frozen=True)
class Iterate:
    """One trace row: objective is the smoothed value at this iterate's mu,
    objective_raw the mu = 0 value at the same point, step the accepted alpha
    (0 for the starting row)."""

    k: int
    x: np.ndarray
    objective: float
    objective_raw: float
    grad_norm: float
    mu: float
    step: float


@dataclass(eq=False)
class SolveReport:
    x_final: np.ndarray
    f_final: float
    f_smoothed_final: float
    grad_norm_final: float
    mu_final: float
    iterations: int
    status: SolveStatus
    trace: list[Iterate]


class LineSearchError(RuntimeError):
    """No backtracking step satisfied the sufficient-decrease condition."""


def armijo_backtrack(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    d: np.ndarray,
    f0: float,
    slope: float,
    cfg: SolverConfig,
) -> tuple[float, np.ndarray, float]:
    """Largest alpha = rho^j, j <= max_backtracks, with sufficient decrease.

    slope is grad^T d at x and must be negative (d a descent direction).
    Returns (alpha, accepted point, objective there); raises LineSearchError
    when every trial fails.
    """
    if not slope < 0.0:
        raise ValueError(f"d is not a descent direction (grad^T d = {slope!r})")
    for j in range(cfg.max_backtracks + 1):
        alpha = cfg.rho_backtrack**j
        x_new = x + alpha * d
        f_new = f(x_new)
        if f_new - f0 <= cfg.delta * alpha * slope:
            return alpha, x_new, f_new
    raise LineSearchError(
        f"no sufficient decrease within {cfg.max_backtracks} backtracks"
    )


# the non_finite status reports what numpy's overflow warnings would
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def minimize_smoothed(
    objective: Callable[[np.ndarray, float], float],
    gradient: Callable[[np.ndarray, float], np.ndarray],
    x0,
    cfg: SolverConfig | None = None,
    raw_objective: Callable[[np.ndarray], float] | None = None,
) -> SolveReport:
    """Run the smoothing gradient method on an objective family f(x, mu).

    raw_objective(x), defaulting to objective(x, 0), is the unsmoothed value
    reported alongside the smoothed one in the trace and the final report.
    A non-finite x0 is a ValueError.
    """
    cfg = cfg or SolverConfig()
    x = np.asarray(x0, dtype=float).ravel().copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("starting point must be finite")
    if raw_objective is None:
        raw_objective = lambda z: objective(z, 0.0)

    mu = cfg.mu0
    f_cur = objective(x, mu)
    g = gradient(x, mu)
    gn = float(np.linalg.norm(g))

    trace = [Iterate(0, x, f_cur, raw_objective(x), gn, mu, 0.0)]
    k = 0
    while True:
        if not (np.isfinite(f_cur) and np.isfinite(gn)):
            status = SolveStatus.NON_FINITE
            break
        if gn <= cfg.epsilon:
            status = SolveStatus.CONVERGED
            break
        if k == cfg.max_iter:
            status = SolveStatus.ITERATION_CAP
            break
        d = -g
        try:
            alpha, x_new, f_new = armijo_backtrack(
                lambda z: objective(z, mu), x, d, f_cur, float(g @ d), cfg
            )
        except LineSearchError:
            status = SolveStatus.LINE_SEARCH_FAILURE
            break
        g_new = gradient(x_new, mu)
        gn_new = float(np.linalg.norm(g_new))
        x = x_new
        k += 1
        if gn_new >= cfg.gamma_bar * mu:
            f_cur, g, gn = f_new, g_new, gn_new
        else:
            mu = cfg.sigma * mu
            f_cur = objective(x, mu)
            g = gradient(x, mu)
            gn = float(np.linalg.norm(g))
        trace.append(Iterate(k, x, f_cur, raw_objective(x), gn, mu, alpha))

    return SolveReport(
        x_final=x,
        f_final=trace[-1].objective_raw,
        f_smoothed_final=f_cur,
        grad_norm_final=gn,
        mu_final=mu,
        iterations=k,
        status=status,
        trace=trace,
    )


def solve(
    problem: StochasticProblem,
    samples: SampleSet,
    x0,
    cfg: SolverConfig | None = None,
) -> SolveReport:
    """Minimize the smoothed sample-average objective of a problem instance.

    Stops when the smoothed gradient norm reaches cfg.epsilon (converged),
    the iteration cap is hit, the line search fails, or the objective or
    gradient stops being finite; the full iterate trace is recorded either
    way.  f_final is the unsmoothed objective at the final point,
    f_smoothed_final the smoothed value at the final mu.
    """
    return minimize_smoothed(
        lambda z, mu: smoothed_objective(problem, samples, z, mu),
        lambda z, mu: smoothed_gradient(problem, samples, z, mu),
        x0,
        cfg,
        raw_objective=lambda z: erm_objective(problem, samples, z),
    )
