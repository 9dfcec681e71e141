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
scenario points), so with U = [1, points] both are U @ R over core's affine
residual rows R, and no per-scenario matrix is ever formed.  U is this
route's lift of the rows: _ev_value reads the whole objective off U L(x),
and core's one ray evaluates each line-search trial from U L(x) and
U (_A d), formed once per iteration.

The value is 0.5 * (head + tail_G + tail_H), summed in _ev_sum alone.  The
head, the squared phi of the expected row 0, is the only part that depends
on mu; the tails, the squared negative parts of the scenario rows, are
nonnegative.  So 0.5 * head bounds the computed value from below, and ev's
ray, _EvRay, reads it off row 0 alone.  A block of any size whose every
bound already fails the search's Armijo test is rejected without summing
the scenario rows; otherwise the block keeps its tails, and the raw value
of the accepted trial adds its head at mu = 0 to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FiniteScenarios,
    StochasticProblem,
    _affine_rows,
    _apply_adjoint,
    _check_dim,
    _check_kink,
    _check_vector,
    _dot,
    _lift,
    _points_array,
    _Ray,
    eval_A,
    eval_b,
    smooth_abs,
)
from .solver import SmoothedModel, SolveReport, SolverConfig, minimize_smoothed

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
    Construction fixes U = [1, points], the lifted points u = [1; w].
    """

    problem: StochasticProblem
    points: np.ndarray

    def __post_init__(self):
        self.points = _points_array(self.points, "points")
        _check_dim(self.points, self.problem.m, "points")
        self._U = _lift(self.points)

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
    out = _fb_parts(np.asarray(a, dtype=float), np.asarray(b, dtype=float), mu)[1]
    return float(out) if np.ndim(out) == 0 else out


def _fb_parts(a, b, mu):
    """(s, phi) with s = smooth_abs(hypot(a, b), mu) and phi = s - a - b.

    The larger argument is taken off first, so a badly scaled pair such as
    (1, 1e200) keeps its small part, and phi is symmetric in a and b.
    """
    s = smooth_abs(np.hypot(a, b), mu)
    return s, s - np.maximum(a, b) - np.minimum(a, b)


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
    R = inst._U @ _affine_rows(inst.problem, x, 0.0)
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
    Y = inst._U @ _affine_rows(inst.problem, x, 0.0)
    return float(_ev_value(Y[None], x[None], mu)[0])


def _ev_value(Y, z, mu):
    """ev_objective at each trial point z[t] over its lifted rows Y[t] =
    U L(z[t]), whose constraint rows are Y[t] + z[t] and Y[t] - z[t]: the
    head over row 0 and the tails over the scenario rows, summed by _ev_sum."""
    return _ev_sum(_ev_head(Y[:, 0], z, mu), *_ev_tails(Y[:, 1:], z))


def _ev_sum(head, tail_G, tail_H):
    """ev's value from its parts, 0.5 * (head + tail_G + tail_H)."""
    return 0.5 * (head + tail_G + tail_H)


def _ev_head(Y0, z, mu):
    """vdot(phi, phi) of the expected row at each trial point z[t], over its
    lifted row Y0[t]: the only part of ev's value that depends on mu."""
    phi = _fb_parts(Y0 + z, Y0 - z, mu)[1]
    return _dot(phi, phi)


def _ev_tails(Ys, z):
    """(tail_G, tail_H) per trial t, the vdot of min(0, .) of the scenario
    constraint rows Ys[t] + z[t] and Ys[t] - z[t]: nonnegative, or NaN."""
    G, H = np.minimum(0.0, Ys + z[:, None]), np.minimum(0.0, Ys - z[:, None])
    return _dot(G, G), _dot(H, H)


class _EvRay(_Ray):
    """core's ray over ev's lift U, with ev's value split into its parts.

    The tails are nonnegative and rounding is monotone, so 0.5 * head, read
    off row 0 of the lift alone in O(n) where the trial is O(k n), is a
    lower bound on the computed trial value.  A block computes its heads
    first; when the search's test rejects every row's bound, it returns
    those bounds, counted in screened, and sums no scenario row.  Otherwise
    it sums the tails and keeps them, and raw adds the head at mu = 0 to a
    row's tails, so every value is bitwise _ev_value's at the trial.
    """

    def __init__(self, inst, x, d):
        super().__init__(inst.problem, inst._U, _ev_value, x, d)

    def block(self, alphas, mu, accepts):
        a = np.array(alphas)[:, None]
        self.points = self.x + a * self.d
        self.row0 = self.Y[0] + a * self.Q[0]
        head = _ev_head(self.row0, self.points, mu)
        bounds = (0.5 * head).tolist()
        if not any(map(accepts, alphas, bounds)):
            self.screened += len(alphas)
            return bounds
        # in place, sparing a temporary the size of the scenario rows
        Ys = a[:, None] * self.Q[1:]
        Ys += self.Y[1:]
        self.tails = _ev_tails(Ys, self.points)
        return _ev_sum(head, *self.tails).tolist()

    def raw(self, i):
        head = _ev_head(self.row0[i:i + 1], self.points[i:i + 1], 0.0)
        tail_G, tail_H = self.tails
        return float(_ev_sum(head[0], tail_G[i], tail_H[i]))


def ev_gradient(inst: EvInstance, x, mu: float) -> np.ndarray:
    """Exact gradient of ev_objective in x (mu > 0, or mu = 0 away from
    points where both complementarity arguments vanish)."""
    x = _check_vector(x, inst.n, "x")
    G, H = _constraint_rows(inst, x)
    s, phi = _fb_parts(G[0], H[0], mu)
    _check_kink(s)
    # dG and dH weight the rows of A(w_i) + I and A(w_i) - I.  Row 0 holds
    # d phi_k / dx = (G_k/s_k - 1) row_k(A_bar + I) + (H_k/s_k - 1) row_k(A_bar - I);
    # the scenario rows hold their negative parts.
    dG = np.minimum(0.0, G)
    dH = np.minimum(0.0, H)
    dG[0] = (G[0] / s - 1.0) * phi
    dH[0] = (H[0] / s - 1.0) * phi
    return _apply_adjoint(inst.problem, inst._U.T @ (dG + dH)) - (dH - dG).sum(axis=0)


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
    reconstructed with the optimal slacks y = max(0, constraint rows): that
    is ev_objective at mu = 0, after a step taken on that step's ray.
    """
    model = SmoothedModel(
        lambda z, mu: ev_objective(inst, z, mu),
        lambda z, mu: ev_gradient(inst, z, mu),
        lambda z: ev_objective(inst, z, 0.0),
        lambda z, d: _EvRay(inst, z, d),
    )
    return minimize_smoothed(model, x0, cfg)


def _check_tol(tol) -> float:
    tol = float(tol)
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    return tol


def _glcp_ok(r, x, tol: float) -> bool:
    """The complementarity test for r = A x - b: its rows r + x = (A + I) x - b
    and r - x = (A - I) x - b are >= -tol and orthogonal within tol."""
    u, v = r + x, r - x
    return bool(u.min() >= -tol and v.min() >= -tol
                and abs(_dot(u[None], v[None])[0]) <= tol)


def _verdicts(problem: StochasticProblem, x, points, tol: float) -> list:
    """[(residual norm, save, glcp)] at each point w of points, read off one
    lift of core's affine rows: r = A(w) x - b(w) is a row of _lift(points) @
    _affine_rows(x), the residual is r - |x|, and save tests its norm <= tol.
    No n x n matrix is formed, so a banded problem is checked in O(n)."""
    x = _check_vector(x, problem.n, "x")
    points = np.array([_check_vector(w, problem.m, "omega") for w in points])
    tol = _check_tol(tol)
    R = _lift(points) @ _affine_rows(problem, x, 0.0)
    D = R - np.abs(x)
    norms = np.sqrt(_dot(D, D)).tolist()
    return [(norm, norm <= tol, _glcp_ok(r, x, tol)) for norm, r in zip(norms, R)]


def verify_glcp(A, b, x, tol: float) -> bool:
    """Check (A+I)x - b >= 0, (A-I)x - b >= 0 and orthogonality, within tol."""
    tol = _check_tol(tol)
    x = np.asarray(x, dtype=float).ravel()
    r = np.asarray(A, dtype=float) @ x - np.asarray(b, dtype=float).ravel()
    return _glcp_ok(r, x, tol)


def verify_save(problem: StochasticProblem, x, omega, tol: float) -> bool:
    """Check that the equation residual at (x, omega) has norm at most tol."""
    return _verdicts(problem, x, [omega], tol)[0][1]
