"""The closed-form expected objective, an exact oracle for the sampled
machinery on instances with a constant coefficient matrix and one uniform
noise term per residual row; as_save_problem gives the sampled machinery the
same instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import StochasticProblem, UniformBox, _check_vector, _finite_array

__all__ = [
    "ClosedFormInstance",
    "exact_objective",
    "as_save_problem",
]


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
