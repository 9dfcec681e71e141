"""Helpers shared by the test modules, and the dense, central-difference and
lattice references that the package's kernels are checked against."""

from typing import Callable, Sequence

import numpy as np

from savesolve import EvInstance, StochasticProblem, core
from savesolve.core import _check_kink, _check_vector, _lift, smooth_abs
from savesolve.ev import _constraint_rows, _ev_head, _fb_parts


def scalar_trial(ray, alpha, mu):
    """f(x + alpha d, mu) along a line-search ray, one trial on its own: the
    route's value formula over a block of one, at the lifted rows
    Y + alpha Q and the point x + alpha d, the oracle a block's rows are
    checked against."""
    return ray.value((ray.Y + alpha * ray.Q)[None], (ray.x + alpha * ray.d)[None], mu)[0]


def half_head(ray, alpha, mu):
    """0.5 * head of ev's value at one step of an ev ray, read off the
    expected row of the lift alone: the lower bound the ray may return for
    a trial in place of its value."""
    row0, z = (ray.Y[0] + alpha * ray.Q[0])[None], (ray.x + alpha * ray.d)[None]
    return 0.5 * _ev_head(row0, z, mu)[0]


def scenario_document(rng, n, k):
    """A tridiagonal base and a diagonal term over k finite scenarios, the
    shape of the benchmark's generated ev_scenarios problems."""
    A0 = np.diag(rng.uniform(3.0, 5.0, n)) + np.diag(rng.uniform(0.5, 1.5, n - 1), 1)
    A0 += np.diag(rng.uniform(0.5, 1.5, n - 1), -1)
    probs = rng.uniform(0.5, 1.5, k)
    return {
        "n": n, "m": 1,
        "A_base": A0.tolist(), "A_terms": [np.diag(rng.uniform(0.5, 1.5, n)).tolist()],
        "b_base": rng.uniform(-1.0, 1.0, n).tolist(), "b_terms": [np.ones(n).tolist()],
        "distribution": {
            "kind": "finite_scenarios",
            "scenarios": [{"omega": [float(w)], "p": float(p)}
                          for w, p in zip(rng.uniform(0.0, 2.0, k), probs / probs.sum())],
        },
    }


def counted_stack_builds(monkeypatch):
    """The shapes of the dense stacks core._stack_of builds from here on,
    appended to the returned list as they are built."""
    shapes = []
    build = core._stack_of

    def counted(count, n, diagonals):
        shapes.append((count, n, n))
        return build(count, n, diagonals)

    monkeypatch.setattr(core, "_stack_of", counted)
    return shapes


def eval_A(problem: StochasticProblem, omega) -> np.ndarray:
    """Coefficient matrix A_base + sum_j omega_j * A_terms[j]."""
    omega = _check_vector(omega, problem.m, "omega")
    return np.tensordot(_lift(omega), problem._A, axes=1)


def eval_b(problem: StochasticProblem, omega) -> np.ndarray:
    """Right-hand side b_base + sum_j omega_j * b_terms[j]."""
    omega = _check_vector(omega, problem.m, "omega")
    return _lift(omega) @ problem._b


def residual(problem: StochasticProblem, x, omega) -> np.ndarray:
    """A(w) x - |x| - b(w) with the absolute value taken componentwise."""
    x = _check_vector(x, problem.n, "x")
    return eval_A(problem, omega) @ x - np.abs(x) - eval_b(problem, omega)


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


def A_bar(inst: EvInstance) -> np.ndarray:
    """The expected coefficient matrix: A(w) at the mean of w, row 0 of inst.points."""
    return eval_A(inst.problem, inst.points[0])


def b_bar(inst: EvInstance) -> np.ndarray:
    """The expected right-hand side: b(w) at the mean of w, row 0 of inst.points."""
    return eval_b(inst.problem, inst.points[0])


def fb(a, b):
    """sqrt(a^2 + b^2) - a - b; zero exactly when a, b >= 0 and a b = 0."""
    return smoothed_fb(a, b, 0.0)


def smoothed_fb(a, b, mu: float):
    """sqrt(a^2 + b^2 + mu) - a - b, a smooth perturbation of fb."""
    out = _fb_parts(np.asarray(a, dtype=float), np.asarray(b, dtype=float), mu)[1]
    return float(out) if np.ndim(out) == 0 else out


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


class UnsupportedDimensionError(ValueError):
    """Brute-force search requested above the supported dimension."""


def fd_gradient(objective: Callable[[np.ndarray], float], x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient (f(x + h e_j) - f(x - h e_j)) / (2 h)."""
    h = float(h)
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h!r}")
    x = np.asarray(x, dtype=float).ravel()
    grad = np.empty(x.size)
    for j in range(x.size):
        step = np.zeros(x.size)
        step[j] = h
        grad[j] = (objective(x + step) - objective(x - step)) / (2.0 * h)
    return grad


def grid_search(
    objective: Callable[[np.ndarray], float],
    box: Sequence[tuple[float, float]],
    steps_per_dim: int,
) -> tuple[np.ndarray, float]:
    """Exhaustive minimization over a regular lattice on a box.

    Ties go to the lexicographically first lattice index.  Limited to three
    dimensions; the lattice size explodes beyond that.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) > 3:
        raise UnsupportedDimensionError(
            f"grid search supports up to 3 dimensions, got {len(box)}"
        )
    if steps_per_dim < 2:
        raise ValueError("steps_per_dim must be at least 2")
    axes = [np.linspace(lo, hi, steps_per_dim) for lo, hi in box]
    x_best = None
    f_best = np.inf
    for idx in np.ndindex(*(steps_per_dim,) * len(box)):
        x = np.array([axes[d][i] for d, i in enumerate(idx)])
        f = objective(x)
        if f < f_best:
            x_best, f_best = x, f
    return x_best, float(f_best)
