"""Smoothing gradient descent with Armijo backtracking and a shrinking
smoothing parameter.

The driver minimizes a family f(x, mu) of smooth surrogates of a nonsmooth
objective.  One outer iteration:

  1. stop if ||grad f(x_k, mu_k)|| <= epsilon;
  2. take the steepest-descent direction d_k = -grad f(x_k, mu_k);
  3. accept the largest step alpha = rho^j, j = 0, 1, ..., with
         f(x_k + alpha d_k, mu_k) - f(x_k, mu_k)
             <= delta * alpha * grad f(x_k, mu_k)^T d_k < 0,
     each trial evaluated along the ray alpha -> x_k + alpha d_k, whose
     shared affine rows the model forms once (no n x n product per trial).
     The trials come in blocks of consecutive steps, each block one set of
     numpy calls, and a block is evaluated only when the search reaches it;
     the ray is handed the test, so a ray that bounds its trials from below
     (ev's, by 0.5 * ||Phi_mu||^2) can reject a block whose every bound
     fails unevaluated; the new iterate's unsmoothed value is read off the
     accepted trial's row of its block at mu = 0;
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
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    SampleSet,
    StochasticProblem,
    _check_int,
    _dot,
    _erm_value,
    _Ray,
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
    "SmoothedModel",
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
    (0 for the starting row).  A row keeps no copy of the point, so a trace
    is O(iterations) and a solve holds O(n + iterations)."""

    k: int
    objective: float
    objective_raw: float
    grad_norm: float
    mu: float
    step: float


@dataclass(eq=False)
class SolveReport:
    """A solve's outcome, its iterate trace and its call counts.

    value_calls and gradient_calls count the model's value and gradient
    calls, trials the trials the line searches consumed (a failed search's
    included; rows of a block evaluated past the accepted trial are not
    trials), screened those of them rejected on a lower bound alone,
    backtracks[k - 1] the rejected trials of iteration k, and mu_shrinks
    the iterations k that ended with mu shrunk.
    """

    x_final: np.ndarray
    f_final: float
    grad_norm_final: float
    mu_final: float
    iterations: int
    status: SolveStatus
    trace: list[Iterate]
    value_calls: int
    gradient_calls: int
    trials: int
    screened: int
    backtracks: list[int]
    mu_shrinks: list[int]


class LineSearchError(RuntimeError):
    """No backtracking step satisfied the sufficient-decrease condition;
    trials is the number of trials the search consumed."""

    def __init__(self, message: str, trials: int):
        super().__init__(message)
        self.trials = trials


class SmoothedModel(NamedTuple):
    """An objective family f(x, mu) as minimize_smoothed sees it.

    value(x, mu) is f, gradient(x, mu) its gradient in x and raw(x) the
    unsmoothed f(x, 0).  ray(x, d) returns a ray along d, as core._Ray: its
    block(alphas, mu, accepts) is the list of f(x + alpha d, mu) over the
    steps alphas, at most ray.size of them, where accepts(alpha, f) is the
    search's Armijo test, and raw(i) is f(x + alphas[i] d, 0) for a row of
    the last block that the test accepted.  A ray may fix once whatever its
    trials share.  A block whose every row the test rejects on a lower
    bound may also return those bounds in place of the values, unevaluated,
    and count its rows in ray.screened, as ev._EvRay does.
    """

    value: Callable[[np.ndarray, float], float]
    gradient: Callable[[np.ndarray, float], np.ndarray]
    raw: Callable[[np.ndarray], float]
    ray: Callable[[np.ndarray, np.ndarray], _Ray]


def armijo_backtrack(
    ray: _Ray,
    mu: float,
    f0: float,
    slope: float,
    cfg: SolverConfig,
) -> tuple[int, float, float, float]:
    """Largest alpha = rho^j, j <= max_backtracks, with sufficient decrease
    along a ray (SmoothedModel's protocol) at mu.

    f0 is the value at the ray's start and slope the directional derivative
    there, which must be negative.  Only steps whose bound delta * alpha *
    slope is negative reach the test f - f0 <= delta * alpha * slope, so a
    step too small to decrease f is never accepted.  The bound only shrinks
    toward zero as j grows, so the search ends at the first step whose
    bound is not negative, with no trial evaluated there or past it.  The
    steps go to ray.block at most ray.size at a time, and the next block
    only when the search runs past the last.  Returns (j, alpha, f there,
    raw f there); raises LineSearchError when every trial fails.
    """
    if not slope < 0.0:
        raise ValueError(f"d is not a descent direction (grad^T d = {slope!r})")
    rho, delta, stop = cfg.rho_backtrack, cfg.delta, cfg.max_backtracks + 1

    def accepts(alpha, f):
        return f - f0 <= delta * alpha * slope

    for first in range(0, stop, ray.size):
        alphas = [rho**j for j in range(first, min(first + ray.size, stop))]
        steps = len(alphas)
        while alphas and not delta * alphas[-1] * slope < 0.0:
            alphas.pop()
        if alphas:
            for i, f in enumerate(ray.block(alphas, mu, accepts)):
                if accepts(alphas[i], f):
                    return first + i, alphas[i], f, ray.raw(i)
        if len(alphas) < steps:
            j = first + len(alphas)
            raise LineSearchError(
                f"no sufficient decrease: the Armijo bound rounds to zero "
                f"from backtrack {j} on", j,
            )
    raise LineSearchError(
        f"no sufficient decrease within {cfg.max_backtracks} backtracks", stop
    )


# the non_finite status reports what numpy's overflow warnings would
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def minimize_smoothed(
    model: SmoothedModel,
    x0,
    cfg: SolverConfig | None = None,
) -> SolveReport:
    """Run the smoothing gradient method on a model's family f(x, mu).

    Each iteration's line search is one armijo_backtrack call along
    model.ray.  The unsmoothed value, reported alongside the smoothed one in
    the trace and the final report, is model.raw at the start and after it
    the ray's raw value of the accepted trial's row.  A non-finite x0 is a
    ValueError.
    """
    cfg = cfg or SolverConfig()
    x = np.asarray(x0, dtype=float).ravel().copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("starting point must be finite")

    def gradient(z, mu):
        """g = model.gradient(z, mu), its one inner product gg = g^T g and ||g||."""
        g = model.gradient(z, mu)
        gg = float(_dot(g[None], g[None])[0])
        return g, gg, math.sqrt(gg)

    mu = cfg.mu0
    f_cur = model.value(x, mu)
    g, gg, gn = gradient(x, mu)
    value_calls = gradient_calls = 1
    trials = screened = 0
    backtracks, mu_shrinks = [], []

    trace = [Iterate(0, f_cur, model.raw(x), gn, mu, 0.0)]
    k = 0
    while True:
        if not (math.isfinite(f_cur) and math.isfinite(gn)):
            status = SolveStatus.NON_FINITE
            break
        if gn <= cfg.epsilon:
            status = SolveStatus.CONVERGED
            break
        if k == cfg.max_iter:
            status = SolveStatus.ITERATION_CAP
            break
        d = -g
        slope = -gg
        ray = model.ray(x, d)
        try:
            j, alpha, f_new, raw = armijo_backtrack(ray, mu, f_cur, slope, cfg)
        except LineSearchError as exc:
            trials += exc.trials
            screened += ray.screened
            status = SolveStatus.LINE_SEARCH_FAILURE
            break
        trials += j + 1
        screened += ray.screened
        backtracks.append(j)
        x = x + alpha * d
        g_new, gg_new, gn_new = gradient(x, mu)
        gradient_calls += 1
        k += 1
        if gn_new >= cfg.gamma_bar * mu:
            f_cur, g, gg, gn = f_new, g_new, gg_new, gn_new
        else:
            mu = cfg.sigma * mu
            mu_shrinks.append(k)
            f_cur = model.value(x, mu)
            g, gg, gn = gradient(x, mu)
            value_calls += 1
            gradient_calls += 1
        trace.append(Iterate(k, f_cur, raw, gn, mu, alpha))

    return SolveReport(
        x_final=x,
        f_final=trace[-1].objective_raw,
        grad_norm_final=gn,
        mu_final=mu,
        iterations=k,
        status=status,
        trace=trace,
        value_calls=value_calls,
        gradient_calls=gradient_calls,
        trials=trials,
        screened=screened,
        backtracks=backtracks,
        mu_shrinks=mu_shrinks,
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
    gradient stops being finite; the iterate trace is recorded either way.
    f_final is the unsmoothed objective at the final point.
    """
    F = samples._factor
    value = functools.partial(_erm_value, F[:, :1])
    model = SmoothedModel(
        lambda z, mu: smoothed_objective(problem, samples, z, mu),
        lambda z, mu: smoothed_gradient(problem, samples, z, mu),
        lambda z: erm_objective(problem, samples, z),
        lambda z, d: _Ray(problem, F, value, z, d),
    )
    return minimize_smoothed(model, x0, cfg)
