import math

import numpy as np
import pytest

from savesolve import (
    LineSearchError,
    SampleSet,
    SamplerSpec,
    SolveStatus,
    SolverConfig,
    StochasticProblem,
    armijo_backtrack,
    builtin_example,
    generate,
    minimize_smoothed,
    smoothed_gradient,
    smoothed_objective,
    solve,
)


def quadratic_1d_problem():
    # A = 0, b = 0 makes the smoothed objective x^2 + mu, so at mu = 0 the
    # line search sees exactly f(x) = x^2
    problem = StochasticProblem([[0.0]], [], [0.0], [])
    samples = SampleSet(np.zeros((1, 0)), np.ones(1))
    return problem, samples


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert (cfg.rho_backtrack, cfg.sigma, cfg.delta) == (0.5, 0.5, 0.5)
        assert (cfg.mu0, cfg.gamma_bar, cfg.epsilon) == (0.01, 0.5, 1e-5)
        assert cfg.max_iter == 10000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rho_backtrack": 0.0},
            {"rho_backtrack": 1.0},
            {"sigma": 1.5},
            {"delta": -0.1},
            {"gamma_bar": 1.0},
            {"mu0": 0.0},
            {"epsilon": 0.0},
            {"max_iter": 0},
            {"max_backtracks": 0},
            {"mu0": math.inf},
            {"epsilon": math.nan},
            {"max_iter": 7.5},
            {"max_iter": 100.0},
            {"max_backtracks": True},
            {"mu0": True},
            {"mu0": "0.1"},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = SolverConfig(max_iter=np.int64(5), max_backtracks=np.int32(3))
        assert (cfg.max_iter, cfg.max_backtracks) == (5, 3)


class TestArmijo:
    def test_quadratic_halves_once(self):
        # f = x^2 from x = 1 along d = -2: alpha = 1 fails the decrease test,
        # alpha = 1/2 lands on the minimizer and satisfies it with equality
        problem, samples = quadratic_1d_problem()
        f = lambda z: smoothed_objective(problem, samples, z, 0.0)
        x, d = np.array([1.0]), np.array([-2.0])
        slope = float(smoothed_gradient(problem, samples, x, 0.0) @ d)
        alpha, x_new, _ = armijo_backtrack(f, x, d, f(x), slope, SolverConfig())
        assert alpha == 0.5
        np.testing.assert_array_equal(x_new, [0.0])

    def test_first_trial_accepted(self):
        problem, samples = quadratic_1d_problem()
        f = lambda z: smoothed_objective(problem, samples, z, 0.0)
        x, d = np.array([1.0]), np.array([-0.5])
        slope = float(smoothed_gradient(problem, samples, x, 0.0) @ d)
        alpha, x_new, _ = armijo_backtrack(f, x, d, f(x), slope, SolverConfig())
        assert alpha == 1.0
        np.testing.assert_array_equal(x_new, [0.5])

    def test_accepted_step_decreases_objective(self):
        problem = builtin_example("ex4_1")
        samples = generate(SamplerSpec("halton", count=16, dim=1), problem)
        cfg = SolverConfig()
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=2)
            mu = 0.01
            g = smoothed_gradient(problem, samples, x, mu)
            f = lambda z: smoothed_objective(problem, samples, z, mu)
            alpha, x_new, _ = armijo_backtrack(f, x, -g, f(x), float(g @ -g), cfg)
            assert smoothed_objective(problem, samples, x_new, mu) < (
                smoothed_objective(problem, samples, x, mu)
            )
            assert alpha == cfg.rho_backtrack ** round(
                math.log(alpha) / math.log(cfg.rho_backtrack)
            )

    def test_ascent_direction_rejected(self):
        with pytest.raises(ValueError, match="descent"):
            armijo_backtrack(
                lambda z: float(z @ z), np.ones(1), np.ones(1), 1.0, 1.0,
                SolverConfig(),
            )

    def test_exhausted_backtracks_raise(self):
        # a fake negative slope at a minimizer: no step can decrease f
        with pytest.raises(LineSearchError):
            armijo_backtrack(
                lambda z: float(z @ z),
                np.zeros(1),
                np.ones(1),
                0.0,
                -1.0,
                SolverConfig(max_backtracks=10),
            )


class TestSolve:
    def test_stationary_start_returns_immediately(self):
        # pick b so the smoothed residual vanishes at x0 for the initial mu
        x0 = np.array([0.8, -0.4])
        cfg = SolverConfig()
        A = np.array([[4.0, 0.5], [1.0, 3.0]])
        b = A @ x0 - np.sqrt(x0 * x0 + cfg.mu0)
        problem = StochasticProblem(A, [], b, [])
        samples = SampleSet(np.zeros((1, 0)), np.ones(1))
        report = solve(problem, samples, x0, cfg)
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations == 0
        np.testing.assert_array_equal(report.x_final, x0)
        assert len(report.trace) == 1

    def test_converges_on_small_instance(self):
        problem = builtin_example("ex4_1")
        samples = generate(
            SamplerSpec("pseudorandom", count=10, dim=1, seed=10), problem
        )
        report = solve(problem, samples, [0.9415, 1.7138], SolverConfig())
        assert report.status is SolveStatus.CONVERGED
        assert np.max(np.abs(report.x_final - [1.0, 3.0])) <= 1e-4
        assert report.f_final <= 1e-6
        assert report.grad_norm_final <= 1e-5

    def test_trace_structure(self):
        problem = builtin_example("ex4_1")
        samples = generate(SamplerSpec("halton", count=20, dim=1), problem)
        cfg = SolverConfig()
        report = solve(problem, samples, [1.8, 0.4], cfg)
        trace = report.trace
        assert trace[0].k == 0 and trace[0].step == 0.0
        assert [it.k for it in trace] == list(range(len(trace)))
        assert report.iterations == trace[-1].k

        mus = [it.mu for it in trace]
        assert all(m2 <= m1 for m1, m2 in zip(mus, mus[1:]))

        # strict descent of the smoothed value while mu is unchanged
        for prev, cur in zip(trace, trace[1:]):
            if prev.mu == cur.mu:
                assert cur.objective < prev.objective
            # every accepted step is a power of the backtracking factor
            j = round(math.log(cur.step) / math.log(cfg.rho_backtrack))
            assert cur.step == cfg.rho_backtrack**j

        # mu shrinks exactly when the fresh-iterate gradient test fails
        for prev, cur in zip(trace, trace[1:]):
            gn = np.linalg.norm(
                smoothed_gradient(problem, samples, cur.x, prev.mu)
            )
            if gn >= cfg.gamma_bar * prev.mu:
                assert cur.mu == prev.mu
            else:
                assert cur.mu == cfg.sigma * prev.mu

    def test_stationarity_at_convergence(self):
        problem = builtin_example("ex4_2")
        samples = generate(SamplerSpec("halton", count=25, dim=1), problem)
        cfg = SolverConfig()
        report = solve(problem, samples, [1.3, 0.4, 1.9, 0.2], cfg)
        assert report.status is SolveStatus.CONVERGED
        gn = np.linalg.norm(
            smoothed_gradient(problem, samples, report.x_final, report.mu_final)
        )
        assert gn <= cfg.epsilon

    def test_iteration_cap(self):
        problem = builtin_example("ex4_1")
        samples = generate(SamplerSpec("halton", count=10, dim=1), problem)
        report = solve(problem, samples, [-4.0, 4.0], SolverConfig(max_iter=3))
        assert report.status is SolveStatus.ITERATION_CAP
        assert report.iterations == 3

    def test_line_search_failure_reported(self):
        # a stiff scalar instance: the needed step is far below rho^2
        problem = StochasticProblem([[100.0]], [], [0.0], [])
        samples = SampleSet(np.zeros((1, 0)), np.ones(1))
        report = solve(problem, samples, [1.0], SolverConfig(max_backtracks=2))
        assert report.status is SolveStatus.LINE_SEARCH_FAILURE

    def test_non_finite_start_rejected(self):
        problem = builtin_example("ex4_1")
        samples = generate(SamplerSpec("halton", count=4, dim=1), problem)
        with pytest.raises(ValueError, match="finite"):
            solve(problem, samples, [np.nan, 1.0], SolverConfig())

    def test_overflowing_finite_start_ends_non_finite(self):
        problem = builtin_example("ex4_1")
        samples = generate(SamplerSpec("halton", count=4, dim=1), problem)
        report = solve(problem, samples, [1e200, 1e200], SolverConfig())
        assert report.status is SolveStatus.NON_FINITE
        assert report.iterations == 0

    def test_gradient_turning_nan_ends_non_finite(self):
        # f = x^2 with its exact gradient at the start only: after one step
        # the gradient is NaN, and the solve stops at that iterate
        report = minimize_smoothed(
            lambda z, mu: float(z @ z),
            lambda z, mu: 2.0 * z if z[0] == 1.0 else np.full_like(z, np.nan),
            [1.0],
        )
        assert report.status is SolveStatus.NON_FINITE
        assert report.iterations == 1
        assert [it.k for it in report.trace] == [0, 1]
        assert report.x_final.tolist() == [0.0]

    def test_deterministic(self):
        problem = builtin_example("ex4_1")
        samples = generate(
            SamplerSpec("pseudorandom", count=30, dim=1, seed=6), problem
        )
        a = solve(problem, samples, [0.2, 1.9], SolverConfig())
        b = solve(problem, samples, [0.2, 1.9], SolverConfig())
        np.testing.assert_array_equal(a.x_final, b.x_final)
        assert a.iterations == b.iterations
        assert a.f_final == b.f_final
