import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savesolve import (
    ClosedFormInstance,
    SampleSet,
    SamplerSpec,
    UnsupportedDimensionError,
    as_save_problem,
    builtin_example,
    erm_objective,
    exact_objective,
    fd_gradient,
    generate,
    grid_search,
)


def small_instance():
    return ClosedFormInstance(
        A=np.array([[2.0, 1.0], [0.0, 2.0]]),
        b_tilde=np.array([0.5, -0.5]),
        T=np.array([[0.3], [0.3]]),
    )


class TestClosedFormInstance:
    def test_scalar_value(self):
        inst = ClosedFormInstance([[2.0]], [1.0], [[1.0]])
        # r = 2 - 1 - 1 = 0, leaving only the t^2/3 noise floor
        assert exact_objective(inst, [1.0]) == pytest.approx(1 / 3, rel=1e-15)

    def test_zero_residual_leaves_noise_floor(self):
        inst = ClosedFormInstance(
            np.eye(2) * 3.0, [2.0, 2.0], [[0.6, 0.0], [0.0, 0.9]]
        )
        # x = 1 gives r = 0; the value is sum t_i^2 / 3
        assert exact_objective(inst, [1.0, 1.0]) == pytest.approx(
            (0.36 + 0.81) / 3.0, rel=1e-14
        )

    def test_tiny_noise_approaches_plain_square(self):
        eps = 1e-12
        inst = ClosedFormInstance([[2.0]], [0.5], [[eps]])
        x = [2.0]
        r = 2.0 * 2.0 - 2.0 - 0.5
        assert exact_objective(inst, x) == pytest.approx(r * r, abs=1e-9)

    def test_one_dimensional_T_is_one_column(self):
        flat = ClosedFormInstance([[2.0]], [1.0], [0.5])
        assert flat.T.shape == (1, 1)
        column = ClosedFormInstance([[2.0]], [1.0], [[0.5]])
        assert exact_objective(flat, [1.5]) == exact_objective(column, [1.5])

    def test_row_structure_validated(self):
        with pytest.raises(ValueError, match="row"):
            ClosedFormInstance(np.eye(2), [0.0, 0.0], [[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="row"):
            ClosedFormInstance(np.eye(2), [0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="row"):
            ClosedFormInstance(np.eye(2), [0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]])

    def test_as_save_problem_matches_pointwise(self):
        inst = small_instance()
        problem = as_save_problem(inst)
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            w = rng.uniform(0, 1, size=1)
            direct = inst.A @ x - np.abs(x) - inst.b_tilde - inst.T @ w
            from savesolve import residual

            np.testing.assert_allclose(residual(problem, x, w), direct, atol=1e-14)


class TestFdGradient:
    def test_linear_function(self):
        c = np.array([2.0, -3.0, 0.5])
        grad = fd_gradient(lambda z: float(c @ z), np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(grad, c, atol=1e-9)

    def test_squared_norm(self):
        grad = fd_gradient(lambda z: float(z @ z), np.array([1.0, 2.0]), h=1e-6)
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-6)

    def test_constant_function(self):
        grad = fd_gradient(lambda z: 7.5, np.array([0.3, -0.2]))
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_step_validated(self):
        with pytest.raises(ValueError, match="h"):
            fd_gradient(lambda z: 0.0, np.zeros(1), h=0.0)


class TestGridSearch:
    def test_quadratic_bowl(self):
        x_best, f_best = grid_search(
            lambda z: float((z[0] - 1.0) ** 2 + (z[1] - 3.0) ** 2),
            [(0.0, 4.0), (0.0, 4.0)],
            41,
        )
        np.testing.assert_array_equal(x_best, [1.0, 3.0])
        assert f_best == 0.0

    def test_sampled_objective_on_benchmark(self):
        problem = builtin_example("ex4_1")
        samples = generate(SamplerSpec("halton", count=500, dim=1), problem)
        x_best, f_best = grid_search(
            lambda z: erm_objective(problem, samples, z), [(0.0, 4.0), (0.0, 4.0)], 81
        )
        np.testing.assert_array_equal(x_best, [1.0, 3.0])
        assert f_best <= 1e-28

    def test_constant_ties_break_lexicographically(self):
        x_best, _ = grid_search(lambda z: 1.0, [(0.0, 1.0), (2.0, 3.0)], 3)
        np.testing.assert_array_equal(x_best, [0.0, 2.0])

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimensionError):
            grid_search(lambda z: 0.0, [(0.0, 1.0)] * 4, 3)

    def test_steps_validated(self):
        with pytest.raises(ValueError, match="steps"):
            grid_search(lambda z: 0.0, [(0.0, 1.0)], 1)


class TestOracleAgainstSampling:
    def test_halton_average_converges_to_exact_value(self):
        inst = small_instance()
        problem = as_save_problem(inst)
        rng = np.random.default_rng(42)
        improved = 0
        for _ in range(20):
            x = rng.uniform(-0.8, 0.8, size=2)
            exact = exact_objective(inst, x)
            errs = {}
            for N in (64, 4096):
                samples = generate(SamplerSpec("halton", count=N, dim=1), problem)
                errs[N] = abs(erm_objective(problem, samples, x) - exact)
            assert errs[4096] <= 1e-3
            improved += errs[4096] < errs[64]
        assert improved >= 18

    def test_sampled_argmin_converges_to_exact_argmin(self):
        inst = small_instance()
        problem = as_save_problem(inst)
        box = [(-1.0, 1.0), (-1.0, 1.0)]
        steps = 41
        spacing = 2.0 / (steps - 1)
        x_exact, _ = grid_search(lambda z: exact_objective(inst, z), box, steps)
        distances = {}
        for N in (16, 256, 4096):
            samples = generate(SamplerSpec("halton", count=N, dim=1), problem)
            x_N, _ = grid_search(
                lambda z: erm_objective(problem, samples, z), box, steps
            )
            distances[N] = np.max(np.abs(x_N - x_exact))
        # the finest sample level must land within one lattice spacing
        assert distances[4096] <= spacing + 1e-12

    def test_sampled_objective_splits_per_component(self):
        # the sampled objective is the sum of the per-component sampled
        # averages; loop-based per-component sums are the oracle here
        inst = ClosedFormInstance(
            np.array([[2.0, 0.0], [0.0, 3.0]]),
            [0.5, 1.0],
            np.array([[0.4, 0.0], [0.0, 0.7]]),
        )
        problem = as_save_problem(inst)
        samples = generate(SamplerSpec("halton", count=128, dim=2), problem)
        rng = np.random.default_rng(15)
        from savesolve import residual

        for _ in range(10):
            x = rng.uniform(-1, 1, size=2)
            per_component = np.zeros(2)
            for point, weight in zip(samples.points, samples.weights):
                per_component += weight * residual(problem, x, point) ** 2
            per_component /= samples.N
            assert erm_objective(problem, samples, x) == pytest.approx(
                float(per_component.sum()), rel=1e-12
            )


def gauss_legendre_box(m):
    """The tensor 2-point Gauss-Legendre rule on [0,1]^m with equal weights:
    its average integrates every polynomial of degree 3 in each coordinate
    exactly, so the sampled objective of a closed-form instance is exact."""
    nodes = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)
    points = np.array(list(itertools.product(nodes, repeat=m)))
    return SampleSet(points, np.ones(len(points)))


class TestExactObjectiveOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 3)
    )
    def test_gauss_legendre_average_is_exact(self, seed, n, m):
        rng = np.random.default_rng(seed)
        T = np.zeros((n, m))
        T[np.arange(n), rng.integers(0, m, n)] = rng.uniform(0.1, 2.0, n)
        inst = ClosedFormInstance(
            rng.uniform(-2.0, 2.0, (n, n)), rng.uniform(-2.0, 2.0, n), T
        )
        x = rng.uniform(-3.0, 3.0, n)
        assert erm_objective(
            as_save_problem(inst), gauss_legendre_box(m), x
        ) == pytest.approx(exact_objective(inst, x), rel=1e-12)
