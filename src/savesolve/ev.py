"""Expected-value route for stochastic absolute value equations.

The equation A x - |x| = b is equivalent to the complementarity system

    (A + I) x - b >= 0,   (A - I) x - b >= 0,
    ((A + I) x - b)^T ((A - I) x - b) = 0.

Taking expectations of the coefficients gives a deterministic system in the
expected matrices; for a finite-scenario distribution the per-scenario
nonnegativity constraints are kept alongside it.  The componentwise residual

    phi(a, b) = sqrt(a^2 + b^2) - a - b

vanishes exactly on the complementarity set, so the whole system becomes a
square constrained root-finding problem.  It is smoothed with core's one
rule and kink check: sqrt(a^2 + b^2 + mu) is smooth_abs(hypot(a, b), mu).
Its slack variables enter linearly with nonnegativity bounds, and minimizing
them out analytically leaves an unconstrained least-squares objective in x
that the smoothing gradient machinery can handle directly.

The expected coefficients and every scenario block are the affine family
evaluated at one row each of a points array (the mean of w, then the
scenario points), so both come from core's affine residual rows and no
per-scenario matrix is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FiniteScenarios,
    StochasticProblem,
    _affine_adjoint,
    _check_kink,
    _check_vector,
    _points_array,
    _residual_matrix,
    eval_A,
    eval_b,
    residual,
    smooth_abs,
)
from .solver import SolveReport, SolverConfig, minimize_smoothed

__all__ = [
    "EvInstance",
    "fb",
    "smoothed_fb",
    "expected_instance",
    "ev_objective",
    "ev_gradient",
    "ev_residual",
    "ev_solve",
    "verify_glcp",
    "verify_save",
]


@dataclass(eq=False)
class EvInstance:
    """A problem plus the points its expected-value system is evaluated at.

    Row 0 of points is the mean of w, which gives the expected coefficients;
    each further row is one scenario point, which gives one constraint block.
    """

    problem: StochasticProblem
    points: np.ndarray

    def __post_init__(self):
        self.points = _points_array(self.points, "points")
        if self.points.shape[1] != self.problem.m:
            raise ValueError(
                f"points have dimension {self.points.shape[1]}, "
                f"expected {self.problem.m}"
            )

    @property
    def n(self) -> int:
        return self.problem.n

    @property
    def count(self) -> int:
        """Number of scenario constraint blocks."""
        return self.points.shape[0] - 1

    @property
    def A_bar(self) -> np.ndarray:
        return eval_A(self.problem, self.points[0])

    @property
    def b_bar(self) -> np.ndarray:
        return eval_b(self.problem, self.points[0])


def fb(a, b):
    """sqrt(a^2 + b^2) - a - b; zero exactly when a, b >= 0 and a b = 0."""
    return smoothed_fb(a, b, 0.0)


def smoothed_fb(a, b, mu: float):
    """sqrt(a^2 + b^2 + mu) - a - b, a smooth perturbation of fb."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = smooth_abs(np.hypot(a, b), mu) - a - b
    return float(out) if np.ndim(out) == 0 else out


def expected_instance(problem: StochasticProblem) -> EvInstance:
    """Expected coefficients of a problem, with scenario constraint blocks.

    The coefficients are affine in w, so their expectation is the family
    evaluated at the mean of w: the probability-weighted mean of the
    scenario points for a finite distribution, each of which also
    contributes a constraint block, and 1/2 in every coordinate for the
    uniform box, which emits no constraint blocks.
    """
    dist = problem.distribution
    if isinstance(dist, FiniteScenarios):
        points = np.vstack([dist.probs @ dist.omegas, dist.omegas])
    else:
        points = np.full((1, problem.m), 0.5)
    return EvInstance(problem, points)


def _constraint_rows(inst: EvInstance, x: np.ndarray):
    """(A(w_i) + I) x - b(w_i) and (A(w_i) - I) x - b(w_i), one row per point.

    Row 0 is the complementarity pair of the expected coefficients, the
    other rows are the scenario constraint rows.
    """
    R = _residual_matrix(inst.problem, inst.points, x, 0.0)
    return R + x, R - x


def ev_objective(inst: EvInstance, x, mu: float) -> float:
    """Half the squared norm of the reduced expected-value system.

    Equals 0.5 ||Phi_mu(x)||^2 + 0.5 * sum of squared negative parts of the
    scenario constraint rows, where Phi_mu applies smoothed_fb to the
    componentwise pairs of (A_bar + I) x - b_bar and (A_bar - I) x - b_bar.
    This is the exact minimum over the nonnegative slack variables of half
    the squared constrained-system residual.
    """
    x = _check_vector(x, inst.n, "x")
    G, H = _constraint_rows(inst, x)
    phi = smoothed_fb(G[0], H[0], mu)
    slack_G = np.minimum(0.0, G[1:])
    slack_H = np.minimum(0.0, H[1:])
    return 0.5 * (float(phi @ phi) + float(np.vdot(slack_G, slack_G))
                  + float(np.vdot(slack_H, slack_H)))


def ev_gradient(inst: EvInstance, x, mu: float) -> np.ndarray:
    """Exact gradient of ev_objective in x (mu > 0, or mu = 0 away from
    points where both complementarity arguments vanish)."""
    x = _check_vector(x, inst.n, "x")
    G, H = _constraint_rows(inst, x)
    s = _check_kink(smooth_abs(np.hypot(G[0], H[0]), mu))
    phi = s - G[0] - H[0]
    # dG and dH weight the rows of A(w_i) + I and A(w_i) - I.  Row 0 holds
    # d phi_k / dx = (G_k/s_k - 1) row_k(A_bar + I) + (H_k/s_k - 1) row_k(A_bar - I);
    # the scenario rows hold their negative parts.
    dG = np.minimum(0.0, G)
    dH = np.minimum(0.0, H)
    dG[0] = (G[0] / s - 1.0) * phi
    dH[0] = (H[0] / s - 1.0) * phi
    Z = dG + dH
    S = np.vstack([Z.sum(axis=0), inst.points.T @ Z])
    return _affine_adjoint(inst.problem, S, (dH - dG).sum(axis=0))


def ev_residual(inst: EvInstance, x, y) -> np.ndarray:
    """Stacked residual of the constrained system at (x, y).

    The first block is the unsmoothed complementarity residual; then, per
    scenario, the rows (A_i + I) x - b_i - y_{2i} and (A_i - I) x - b_i -
    y_{2i+1}.  y holds one length-n slack block per constraint row group and
    may be passed flat or as a (2 * scenarios, n) array.
    """
    x = _check_vector(x, inst.n, "x")
    G, H = _constraint_rows(inst, x)
    # interleave each scenario's (A_i + I) and (A_i - I) rows
    rows = np.stack([G[1:], H[1:]], axis=1).reshape(2 * inst.count, inst.n)
    y = np.asarray(y, dtype=float).reshape(rows.shape)
    return np.concatenate([fb(G[0], H[0]), (rows - y).ravel()])


def ev_solve(inst: EvInstance, x0, cfg: SolverConfig | None = None) -> SolveReport:
    """Minimize ev_objective with the smoothing gradient machinery.

    The reported f_final is half the squared constrained-system residual
    reconstructed with the optimal slacks y = max(0, constraint rows), which
    is exactly ev_objective at mu = 0.
    """
    return minimize_smoothed(
        lambda z, mu: ev_objective(inst, z, mu),
        lambda z, mu: ev_gradient(inst, z, mu),
        x0,
        cfg,
    )


def _check_tol(tol) -> float:
    tol = float(tol)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    return tol


def verify_glcp(A, b, x, tol: float) -> bool:
    """Check (A+I)x - b >= 0, (A-I)x - b >= 0 and orthogonality, within tol."""
    tol = _check_tol(tol)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    Ax = A @ x
    u = Ax + x - b
    v = Ax - x - b
    return bool(u.min() >= -tol and v.min() >= -tol and abs(float(u @ v)) <= tol)


def verify_save(problem: StochasticProblem, x, omega, tol: float) -> bool:
    """Check that the equation residual at (x, omega) has norm at most tol."""
    tol = _check_tol(tol)
    return bool(np.linalg.norm(residual(problem, x, omega)) <= tol)
