"""Exact oracles used to cross-check the sampled machinery.

Covers the closed-form expected objective for instances with a constant
coefficient matrix and one uniform noise term per residual row, plain
central-difference gradients, and brute-force lattice minimization for
dimensions up to three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import StochasticProblem, UniformBox, _check_vector, _finite_array

__all__ = [
    "UnsupportedDimensionError",
    "ClosedFormInstance",
    "exact_objective",
    "as_save_problem",
    "fd_gradient",
    "grid_search",
]


class UnsupportedDimensionError(ValueError):
    """Brute-force search requested above the supported dimension."""


@dataclass(eq=False)
class ClosedFormInstance:
    """Constant matrix A, rhs b_tilde + T w with w uniform on [0,1]^m.

    Each row of T must have exactly one strictly positive entry (the noise
    scale of that residual row) and zeros elsewhere; under that structure the
    expected squared residual integrates in closed form.
    """

    A: np.ndarray
    b_tilde: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        A = _finite_array(self.A, "A")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        b_tilde = _check_vector(_finite_array(self.b_tilde, "b_tilde"), n, "b_tilde")
        T = _finite_array(self.T, "T")
        if T.ndim == 1:
            T = T[:, None]
        if T.ndim != 2 or T.shape[0] != n:
            raise ValueError(f"T must have {n} rows, got shape {T.shape}")
        for i, row in enumerate(T):
            if np.sum(row > 0.0) != 1 or np.sum(row != 0.0) != 1:
                raise ValueError(
                    f"row {i} of T must have exactly one positive entry "
                    "and zeros elsewhere"
                )
        self.A = A
        self.b_tilde = b_tilde
        self.T = T
        self.noise_scales = T.max(axis=1)  # the positive entry of each row

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.T.shape[1]


def exact_objective(inst: ClosedFormInstance, x) -> float:
    """Exact expected squared residual, no sampling.

    With r = A x - |x| - b_tilde and t the per-row noise scales this is
    sum_i (r_i^2 + t_i^2 / 3 - r_i t_i), the closed-form integral of
    (r_i - t_i w)^2 over w uniform on [0, 1].
    """
    x = _check_vector(x, inst.n, "x")
    r = inst.A @ x - np.abs(x) - inst.b_tilde
    t = inst.noise_scales
    return float(np.sum(r * r + t * t / 3.0 - r * t))


def as_save_problem(inst: ClosedFormInstance) -> StochasticProblem:
    """The same instance as a stochastic problem, for the sampled machinery."""
    n, m = inst.n, inst.m
    return StochasticProblem(
        A_base=inst.A,
        A_terms=[np.zeros((n, n)) for _ in range(m)],
        b_base=inst.b_tilde,
        b_terms=[inst.T[:, j] for j in range(m)],
        distribution=UniformBox(),
    )


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
