"""Stochastic absolute value equation instances and their residual calculus.

An instance is the equation family A(w) x - |x| = b(w), with both coefficient
families affine in the random vector w:

    A(w) = A_base + sum_j w_j * A_terms[j]
    b(w) = b_base + sum_j w_j * b_terms[j]

w is either uniform on [0,1]^m (unit density) or supported on finitely many
weighted scenarios.  The module evaluates residuals, the weighted
sample-average squared-residual objective, and the smoothed objective obtained
by replacing |x| with smooth_abs(x, mu) = sqrt(x^2 + mu), together with the
exact Jacobian and gradient of the smoothed residual.  smooth_abs is the one
home of that rule for both routes, and _check_kink the one test for its kink.

The residual at w is [1; w]^T R with R the (m + 1) x n affine rows at x, so
the sample average is evaluated as tr(R^T M R) through the weighted moments M
of [1; w], fixed once per sample set: objective and gradient calls cost
O(m n^2 + m^2 n) whatever the sample count.

All operations are pure functions of their inputs; problem and sample objects
are treated as read-only after construction, so they are safe to share across
concurrent solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NonsmoothPointError",
    "UniformBox",
    "FiniteScenarios",
    "StochasticProblem",
    "SampleSet",
    "eval_A",
    "eval_b",
    "residual",
    "smooth_abs",
    "erm_objective",
    "smoothed_objective",
    "smoothed_jacobian",
    "smoothed_gradient",
]

# absolute tolerance for scenario probabilities summing to one
PROBABILITY_TOL = 1e-12


class NonsmoothPointError(ValueError):
    """Derivative of |.| requested at a kink (mu = 0 with a zero argument)."""


def _finite_array(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _points_array(points, what: str) -> np.ndarray:
    """A finite (count, dim) array with at least one row; a 1-D input of
    count scalars is read as count points in R^1."""
    arr = _finite_array(points, what)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(
            f"{what} must form a (count, dim) array with at least one row, "
            f"got shape {arr.shape}"
        )
    return arr


def _positive_weights(w, count: int, what: str) -> np.ndarray:
    """One finite, strictly positive weight for each of count points."""
    w = np.asarray(w, dtype=float).ravel()
    if w.size != count:
        raise ValueError(f"{count} points but {w.size} {what}")
    if not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError(f"{what} must be finite and strictly positive")
    return w


def _check_int(value, name: str, minimum: int) -> None:
    """Reject anything but an int or numpy integer >= minimum; a bool or a
    float with an integral value is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")


@dataclass(frozen=True)
class UniformBox:
    """w uniform on [0,1]^m with density identically one."""


@dataclass(eq=False)
class FiniteScenarios:
    """Discrete distribution: point omegas[i] occurs with probability probs[i].

    omegas is (k, m); a 1-D input of k scalars is treated as k points in R^1.
    Points and probabilities must be finite; probabilities must be strictly
    positive and sum to one.
    """

    omegas: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        self.omegas = _points_array(self.omegas, "scenario points")
        self.probs = _positive_weights(
            self.probs, self.omegas.shape[0], "scenario probabilities"
        )
        total = self.probs.sum()
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"scenario probabilities sum to {total!r}, not 1")

    @property
    def count(self) -> int:
        return self.probs.size


@dataclass(eq=False)
class StochasticProblem:
    """Affine-in-w coefficient family plus the distribution of w.

    A_terms and b_terms must each have m entries; m = 0 gives a deterministic
    equation.  Shapes and finiteness are validated on construction.
    """

    A_base: np.ndarray
    A_terms: list[np.ndarray]
    b_base: np.ndarray
    b_terms: list[np.ndarray]
    distribution: UniformBox | FiniteScenarios = field(default_factory=UniformBox)

    def __post_init__(self):
        A_base = _finite_array(self.A_base, "A_base")
        if A_base.ndim != 2 or A_base.shape[0] != A_base.shape[1]:
            raise ValueError(f"A_base must be square, got shape {A_base.shape}")
        n = A_base.shape[0]
        b_base = _check_vector(_finite_array(self.b_base, "b_base"), n, "b_base")
        A_terms = [
            _finite_array(t, f"A_terms[{j}]") for j, t in enumerate(self.A_terms)
        ]
        for j, term in enumerate(A_terms):
            if term.shape != (n, n):
                raise ValueError(
                    f"A_terms[{j}] has shape {term.shape}, expected ({n}, {n})"
                )
        b_terms = [
            _check_vector(_finite_array(t, f"b_terms[{j}]"), n, f"b_terms[{j}]")
            for j, t in enumerate(self.b_terms)
        ]
        if len(A_terms) != len(b_terms):
            raise ValueError(
                f"{len(A_terms)} A_terms but {len(b_terms)} b_terms"
            )
        m = len(A_terms)
        if isinstance(self.distribution, FiniteScenarios):
            if self.distribution.omegas.shape[1] != m:
                raise ValueError(
                    f"scenario points have dimension "
                    f"{self.distribution.omegas.shape[1]}, expected {m}"
                )
        elif not isinstance(self.distribution, UniformBox):
            raise ValueError("distribution must be UniformBox or FiniteScenarios")
        self.A_base = A_base
        self.b_base = b_base
        # the stacks serve vectorized evaluation over many samples; the term
        # lists are views of their rows, so each term is stored once
        self._A_stack = np.stack(A_terms) if m else np.zeros((0, n, n))
        self._b_stack = np.stack(b_terms) if m else np.zeros((0, n))
        self.A_terms = list(self._A_stack)
        self.b_terms = list(self._b_stack)

    @property
    def n(self) -> int:
        return self.A_base.shape[0]

    @property
    def m(self) -> int:
        return len(self.A_terms)


@dataclass(eq=False)
class SampleSet:
    """Weighted observation points: points is (N, m), weights is (N,).

    Weights are the density values carried through the sample average: 1 for
    uniform-box draws, count * p_i for finite scenarios so the weighted mean
    reproduces the exact expectation.

    Construction fixes the moments M = (1/N) sum_i weights[i] u_i u_i^T of
    u_i = [1; points[i]] and a factor F with F^T F = M.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = _points_array(self.points, "sample points")
        self.weights = _positive_weights(
            self.weights, self.points.shape[0], "sample weights"
        )
        U = np.column_stack([np.ones(self.N), self.points])
        self._moments = (U.T * self.weights) @ U / self.N
        # M is singular when N <= m, and rounding can leave its zero
        # eigenvalues slightly negative
        lam, V = np.linalg.eigh(self._moments)
        self._factor = np.sqrt(np.maximum(lam, 0.0))[:, None] * V.T

    @property
    def N(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _check_vector(v, size: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).ravel()
    if arr.size != size:
        raise ValueError(f"{name} has length {arr.size}, expected {size}")
    return arr


def _check_samples(problem: StochasticProblem, samples: SampleSet) -> None:
    if samples.dim != problem.m:
        raise ValueError(
            f"sample points have dimension {samples.dim}, "
            f"expected {problem.m}"
        )


def eval_A(problem: StochasticProblem, omega) -> np.ndarray:
    """Coefficient matrix A_base + sum_j omega_j * A_terms[j]."""
    omega = _check_vector(omega, problem.m, "omega")
    if problem.m == 0:
        return problem.A_base.copy()
    return problem.A_base + np.tensordot(omega, problem._A_stack, axes=1)


def eval_b(problem: StochasticProblem, omega) -> np.ndarray:
    """Right-hand side b_base + sum_j omega_j * b_terms[j]."""
    omega = _check_vector(omega, problem.m, "omega")
    if problem.m == 0:
        return problem.b_base.copy()
    return problem.b_base + omega @ problem._b_stack


def residual(problem: StochasticProblem, x, omega) -> np.ndarray:
    """A(w) x - |x| - b(w) with the absolute value taken componentwise."""
    x = _check_vector(x, problem.n, "x")
    return eval_A(problem, omega) @ x - np.abs(x) - eval_b(problem, omega)


def smooth_abs(t, mu: float):
    """sqrt(t^2 + mu), the smooth stand-in for |t|, as hypot(t, sqrt(mu)):
    exactly |t| at mu = 0, and finite for every finite t.

    Accepts a scalar or an array and matches the input shape.
    """
    mu = float(mu)
    if not mu >= 0.0:
        raise ValueError(f"mu must be nonnegative, got {mu!r}")
    out = np.hypot(np.asarray(t, dtype=float), math.sqrt(mu))
    return float(out) if out.ndim == 0 else out


def _check_kink(psi: np.ndarray) -> np.ndarray:
    """psi unchanged; a NonsmoothPointError where this smooth_abs value is 0."""
    if not psi.all():  # psi >= 0, so all() fails exactly where some psi is 0
        raise NonsmoothPointError(
            "not differentiable at a kink of |.|: mu = 0 with a zero argument"
        )
    return psi


def _affine_rows(problem, x, psi):
    """[A_base x - psi - b_base; A_j x - b_j for each j], shape (m + 1, n):
    the residual at w is [1; w]^T times these rows."""
    return np.vstack([
        problem.A_base @ x - psi - problem.b_base,
        problem._A_stack @ x - problem._b_stack,
    ])


def _residual_matrix(problem, points, x, psi):
    """Row i is A(w_i) x - psi - b(w_i) for the i-th row w_i of points."""
    R = _affine_rows(problem, x, psi)
    return R[0] + points @ R[1:]


def _affine_adjoint(problem, S, local):
    """sum_j A_j^T S_j - local over the moment rows S, shape (m + 1, n),
    with A_0 = A_base: the transpose of _affine_rows in x.

    For points w_i and rows z_i, S = [1, points]^T Z gives
    sum_i A(w_i)^T z_i - local, with no per-point matrix formed.
    """
    g = problem.A_base.T @ S[0] - local
    if problem.m:
        g += S[1:].ravel() @ problem._A_stack.reshape(-1, problem.n)
    return g


def _mean_square(samples, R):
    """(1/N) sum_i w_i ||[1; w_i]^T R||^2 = ||F R||_F^2, a sum of squares."""
    FR = samples._factor @ R
    return float(np.vdot(FR, FR))


def erm_objective(problem: StochasticProblem, samples: SampleSet, x) -> float:
    """Weighted sample average of ||A(w_i) x - |x| - b(w_i)||^2.

    The value is (1/N) * sum_i w_i ||r_i||^2; with the count * p_i weight
    convention for finite scenarios this equals the exact expectation
    sum_i p_i ||r_i||^2.  It is smoothed_objective at mu = 0.
    """
    return smoothed_objective(problem, samples, x, 0.0)


def smoothed_objective(
    problem: StochasticProblem, samples: SampleSet, x, mu: float
) -> float:
    """erm_objective with |x| replaced by smooth_abs(x, mu); equal at mu = 0."""
    _check_samples(problem, samples)
    x = _check_vector(x, problem.n, "x")
    return _mean_square(samples, _affine_rows(problem, x, smooth_abs(x, mu)))


def smoothed_jacobian(problem: StochasticProblem, x, omega, mu: float) -> np.ndarray:
    """Jacobian of the smoothed residual: A(w) - diag(x_j / smooth_abs(x_j, mu)).

    mu = 0 is accepted only when no component of x vanishes; otherwise the
    point is a kink of |.| and a NonsmoothPointError is raised.
    """
    x = _check_vector(x, problem.n, "x")
    psi = _check_kink(smooth_abs(x, mu))
    J = eval_A(problem, omega)
    J[np.diag_indices_from(J)] -= x / psi
    return J


def smoothed_gradient(
    problem: StochasticProblem, samples: SampleSet, x, mu: float
) -> np.ndarray:
    """Exact gradient of smoothed_objective in x.

    Equals (2/N) * sum_i w_i J_i^T r_i with J_i the smoothed-residual Jacobian
    at w_i; evaluated as 2 (sum_j A_j^T (M R)_j - (x / psi) (M R)_0) through
    the sample moments M, so no per-sample row or matrix is materialized.
    """
    _check_samples(problem, samples)
    x = _check_vector(x, problem.n, "x")
    psi = _check_kink(smooth_abs(x, mu))
    S = samples._moments @ _affine_rows(problem, x, psi)
    return 2.0 * _affine_adjoint(problem, S, (x / psi) * S[0])
