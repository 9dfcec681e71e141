import collections
import dataclasses
import functools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savesolve import (
    LineSearchError,
    SampleSet,
    SamplerSpec,
    SmoothedModel,
    SolveStatus,
    SolverConfig,
    StochasticProblem,
    UniformRandomStart,
    armijo_backtrack,
    builtin_example,
    generate,
    minimize_smoothed,
    smoothed_gradient,
    smoothed_objective,
    solve,
)
from savesolve import ev
from savesolve.core import FiniteScenarios, _erm_value, _Ray
from savesolve.ev import _EvRay, ev_gradient, ev_objective, ev_solve, expected_instance

from helpers import half_head, scalar_trial


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
        f = lambda z, mu: smoothed_objective(problem, samples, z, mu)
        x, d = np.array([1.0]), np.array([-2.0])
        slope = float(smoothed_gradient(problem, samples, x, 0.0) @ d)
        j, alpha, f_new, raw = armijo_backtrack(
            PlainRay(f, x, d), 0.0, f(x, 0.0), slope, SolverConfig()
        )
        assert (j, alpha, f_new, raw) == (1, 0.5, 0.0, 0.0)
        np.testing.assert_array_equal(x + alpha * d, [0.0])

    def test_first_trial_accepted(self):
        problem, samples = quadratic_1d_problem()
        f = lambda z, mu: smoothed_objective(problem, samples, z, mu)
        x, d = np.array([1.0]), np.array([-0.5])
        slope = float(smoothed_gradient(problem, samples, x, 0.0) @ d)
        j, alpha, f_new, _ = armijo_backtrack(
            PlainRay(f, x, d), 0.0, f(x, 0.0), slope, SolverConfig()
        )
        assert (j, alpha, f_new) == (0, 1.0, 0.25)

    def test_accepted_step_decreases_objective(self):
        problem = builtin_example("ex4_1")
        samples = generate(SamplerSpec("halton", count=16, dim=1), problem)
        f = lambda z, mu: smoothed_objective(problem, samples, z, mu)
        cfg = SolverConfig()
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=2)
            mu = 0.01
            g = smoothed_gradient(problem, samples, x, mu)
            j, alpha, f_new, raw = armijo_backtrack(
                PlainRay(f, x, -g), mu, f(x, mu), float(g @ -g), cfg
            )
            x_new = x - alpha * g
            assert f_new == f(x_new, mu) < f(x, mu)
            assert raw == f(x_new, 0.0)
            assert alpha == cfg.rho_backtrack**j

    def test_blocks_of_several_trials(self):
        # f = z^2 from z = 1 along d = -2**6: trial j is accepted exactly
        # when j >= 6, the second row of the second block of five
        f = lambda z, mu: float(z @ z)
        x, d = np.ones(1), np.array([-(2.0**6)])
        ray = PlainRay(f, x, d)
        ray.size = 5
        j, alpha, f_new, raw = armijo_backtrack(ray, 0.0, 1.0, -(2.0**7), SolverConfig())
        assert (j, alpha, f_new, raw) == (6, 2.0**-6, 0.0, 0.0)
        assert ray.blocks == [[2.0**-i for i in range(5)], [2.0**-i for i in range(5, 10)]]

    def test_ascent_direction_rejected(self):
        f = lambda z, mu: float(z @ z)
        with pytest.raises(ValueError, match="descent"):
            armijo_backtrack(PlainRay(f, np.ones(1), np.ones(1)), 0.0, 1.0, 1.0, SolverConfig())

    def test_exhausted_backtracks_raise(self):
        # a fake negative slope at a minimizer: no step can decrease f
        ray = PlainRay(lambda z, mu: float(z @ z), np.zeros(1), np.ones(1))
        with pytest.raises(LineSearchError):
            armijo_backtrack(ray, 0.0, 0.0, -1.0, SolverConfig(max_backtracks=10))
        assert len(ray.blocks) == 11

    def test_underflowed_bound_accepts_no_step(self):
        # a flat f: no step decreases it, but past j = 1073 the bound
        # delta * alpha * slope rounds to -0.0, which f_new - f0 = 0 meets;
        # the search ends there, with trials 0 to 1073 evaluated
        ray = PlainRay(lambda z, mu: 0.0, np.zeros(1), np.ones(1))
        cfg = SolverConfig(max_backtracks=1100)
        assert cfg.delta * cfg.rho_backtrack**1074 * -1.0 == 0.0
        with pytest.raises(LineSearchError) as failed:
            armijo_backtrack(ray, 0.0, 0.0, -1.0, cfg)
        assert len(ray.blocks) == failed.value.trials == 1074


    @pytest.mark.parametrize("slope", [-1.7976931348623157e308, -1e300, -1.0, -1e-300,
                                       -1e-320, -5e-324])
    def test_bound_is_monotone_in_j(self, slope):
        # the search stops at the first j whose bound is not negative: no
        # later bound may be negative again
        cfg = SolverConfig()
        bounds = [cfg.delta * cfg.rho_backtrack**j * slope for j in range(2200)]
        assert all(a <= b <= 0.0 for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1] == 0.0

    def test_search_stops_at_the_first_zero_bound(self):
        # blocks of five from j = 0: the bound 0.5 * 2**-j * -2**-1000 is
        # negative up to j = 73, so the block from j = 70 is cut to four
        # rows and no later block is formed
        ray = PlainRay(lambda z, mu: 0.0, np.zeros(1), np.ones(1))
        ray.size = 5
        cfg = SolverConfig(max_backtracks=200)
        with pytest.raises(LineSearchError, match="from backtrack 74") as failed:
            armijo_backtrack(ray, 0.0, 0.0, -(2.0**-1000), cfg)
        assert failed.value.trials == 74
        assert [len(b) for b in ray.blocks] == [5] * 14 + [4]


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
        model, points = with_points(erm_model(problem, samples))
        assert minimize_smoothed(model, [1.8, 0.4], cfg).trace == report.trace
        points.append(report.x_final)
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
                smoothed_gradient(problem, samples, points[cur.k], prev.mu)
            )
            if gn >= cfg.gamma_bar * prev.mu:
                assert cur.mu == prev.mu
            else:
                assert cur.mu == cfg.sigma * prev.mu

    def test_accepted_point_is_x_plus_alpha_d(self):
        # the ray only evaluates trials: each iterate is bitwise the previous
        # one plus the accepted step along the negative gradient there
        problem = builtin_example("ex4_2")
        samples = generate(SamplerSpec("halton", count=25, dim=1), problem)
        model, points = with_points(erm_model(problem, samples))
        report = minimize_smoothed(model, [1.3, 0.4, 1.9, 0.2], SolverConfig())
        assert report.iterations > 10 and len(points) == report.iterations
        points.append(report.x_final)
        for prev, cur in zip(report.trace, report.trace[1:]):
            x = points[prev.k]
            d = -smoothed_gradient(problem, samples, x, prev.mu)
            assert points[cur.k].tobytes() == (x + cur.step * d).tobytes()

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
        f = lambda z, mu: float(z @ z)
        report = minimize_smoothed(
            SmoothedModel(
                f,
                lambda z, mu: 2.0 * z if z[0] == 1.0 else np.full_like(z, np.nan),
                lambda z: f(z, 0.0),
                lambda z, d: PlainRay(f, z, d),
            ),
            [1.0],
        )
        assert report.status is SolveStatus.NON_FINITE
        assert report.iterations == 1
        assert [it.k for it in report.trace] == [0, 1]
        assert report.x_final.tolist() == [0.0]

    def test_flat_model_ends_line_search_failure(self):
        # the underflowed Armijo bound of TestArmijo in a solve: the first
        # search fails at the bound's underflow, with no step of 5e-324 taken
        f = lambda z, mu: 0.0
        model = SmoothedModel(f, lambda z, mu: np.ones_like(z), lambda z: f(z, 0.0),
                              lambda z, d: PlainRay(f, z, d))
        report = minimize_smoothed(model, [1.0, 2.0], SolverConfig(max_backtracks=1100, max_iter=5))
        assert report.status is SolveStatus.LINE_SEARCH_FAILURE
        assert (report.iterations, report.trials, report.backtracks) == (0, 1074, [])

    def test_large_max_backtracks_costs_nothing_up_front(self):
        # steps are formed per block, not tabled up to max_backtracks
        problem = builtin_example("ex4_1")
        samples = generate(SamplerSpec("halton", count=100, dim=1), problem)
        reference = solve(problem, samples, [0.5, 2.0])
        tracemalloc.start()
        try:
            report = solve(problem, samples, [0.5, 2.0], SolverConfig(max_backtracks=10**6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.status is SolveStatus.CONVERGED
        assert report.x_final.tobytes() == reference.x_final.tobytes()
        assert report.trials == reference.trials
        # a table of 10**6 + 1 steps alone would take 32 MB
        assert peak < 1_000_000

    def test_solve_holds_o_of_n(self):
        # ex4_4 at n = 10000 over Halton N = 10, capped at 200 iterations,
        # peaks at 1.7 MB; a copy of x in every trace row took it to 17.7 MB
        problem = builtin_example("ex4_4", 10000)
        samples = generate(SamplerSpec("halton", count=10, dim=1), problem)
        x0 = UniformRandomStart(seed=1).resolve(problem.n)
        tracemalloc.start()
        try:
            report = solve(problem, samples, x0, SolverConfig(max_iter=200))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.status is SolveStatus.ITERATION_CAP and report.iterations == 200
        assert peak < 8_000_000

    def test_floor_stall_stops_at_the_bound_underflow(self):
        # the ex4_1 stall at the floating-point floor: the last search's
        # bound rounds to zero near j = 990, so any larger cap consumes
        # the same trials and ends the same way
        problem = builtin_example("ex4_1")
        samples = generate(SamplerSpec("halton", count=100, dim=1), problem)
        reports = [
            solve(problem, samples, [0.5, 2.0],
                  SolverConfig(epsilon=1e-14, max_backtracks=max_backtracks))
            for max_backtracks in (60, 2000, 10**6)
        ]
        assert all(r.status is SolveStatus.LINE_SEARCH_FAILURE for r in reports)
        assert len({r.x_final.tobytes() for r in reports}) == 1
        assert reports[1].trials == reports[2].trials
        # the failed search's trials: all 61 at the default cap
        last = [r.trials - sum(r.backtracks) - r.iterations for r in reports]
        assert last[0] == 61 and 900 < last[1] < 1075

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


class PlainRay:
    """The ray protocol over a plain f(z, mu), one trial per block unless
    size is set; blocks records the steps of each block."""

    size = 1
    screened = 0

    def __init__(self, f, x, d):
        self.f, self.x, self.d = f, x, d
        self.blocks = []

    def block(self, alphas, mu, accepts):
        self.blocks.append(alphas)
        self.points = [self.x + a * self.d for a in alphas]
        return [self.f(z, mu) for z in self.points]

    def raw(self, i):
        return self.f(self.points[i], 0.0)


def erm_model(problem, samples):
    F = samples._factor
    return SmoothedModel(
        lambda z, mu: smoothed_objective(problem, samples, z, mu),
        lambda z, mu: smoothed_gradient(problem, samples, z, mu),
        lambda z: smoothed_objective(problem, samples, z, 0.0),
        lambda z, d: _Ray(problem, F, functools.partial(_erm_value, F[:, :1]), z, d),
    )


def ev_model(inst):
    return SmoothedModel(
        lambda z, mu: ev_objective(inst, z, mu),
        lambda z, mu: ev_gradient(inst, z, mu),
        lambda z: ev_objective(inst, z, 0.0),
        lambda z, d: _EvRay(inst, z, d),
    )


def with_points(model):
    """model with its rays' starts recorded: after a solve, points[k] is
    iterate k for every k below the report's iterations."""
    points = []

    def ray(z, d):
        points.append(z)
        return model.ray(z, d)

    return model._replace(ray=ray), points


def scenario_instance(n, k, seed):
    """A diagonally dominant tridiagonal ev instance with k scenarios, all
    solved by all-ones, and a start: its lift has (k + 1) x n entries."""
    rng = np.random.default_rng(seed)
    A0 = np.diag(rng.uniform(0.5, 1.5, n - 1), 1) + np.diag(rng.uniform(0.5, 1.5, n - 1), -1)
    A0 += np.diag(2.0 + np.abs(A0).sum(axis=1))
    A1 = np.diag(rng.uniform(0.5, 1.5, n))
    ones = np.ones(n)
    probs = rng.uniform(0.5, 1.5, k)
    scenarios = FiniteScenarios(rng.uniform(0.0, 2.0, k), probs / probs.sum())
    problem = StochasticProblem(A0, [A1], A0 @ ones - ones, [A1 @ ones], scenarios)
    return expected_instance(problem), rng.uniform(0.0, 2.0, n)


def counted(model):
    """model with its calls tallied: value and gradient calls, the rows of
    the blocks the rays evaluated, the trials the searches consumed (a
    block's rows up to the first that the search's test accepts) and the
    rays' raw reads, one per iterate.  Also returns the rays, whose
    screened counts sum to the solve's."""
    calls = collections.Counter()
    rays = []

    def tally(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    def ray(z, d):
        r = model.ray(z, d)
        block = r.block

        def rows(alphas, mu, accepts):
            values = block(alphas, mu, accepts)
            passed = [accepts(a, f) for a, f in zip(alphas, values)]
            calls["row"] += len(values)
            calls["trial"] += passed.index(True) + 1 if True in passed else len(values)
            return values

        r.block, r.raw = rows, tally("ray_raw", r.raw)
        rays.append(r)
        return r

    return model._replace(value=tally("value", model.value),
                          gradient=tally("gradient", model.gradient), ray=ray), calls, rays


class TestSolveCounts:
    @pytest.mark.parametrize("route", ["erm", "ev"])
    def test_counts_match_the_model_calls(self, route):
        if route == "erm":
            problem = builtin_example("ex4_1")
            samples = generate(SamplerSpec("halton", count=20, dim=1), problem)
            x0 = [1.8, 0.4]
            solved = solve(problem, samples, x0)
            model, calls, rays = counted(erm_model(problem, samples))
        else:
            inst = expected_instance(builtin_example("ex2_1"))
            x0 = [0.5, -1.0, 2.0, 0.0]
            solved = ev_solve(inst, x0)
            model, calls, rays = counted(ev_model(inst))
        cfg = SolverConfig()
        report = minimize_smoothed(model, x0, cfg)
        assert (solved.trials, solved.backtracks) == (report.trials, report.backtracks)
        assert report.status is SolveStatus.CONVERGED
        assert solved.screened == report.screened == sum(r.screened for r in rays)
        # erm's ray screens nothing; ev's screens each trial whose bound
        # fails the test
        assert (report.screened > 0) == (route == "ev")
        assert report.value_calls == calls["value"]
        assert report.gradient_calls == calls["gradient"]
        assert report.trials == calls["trial"]
        # block rows evaluated past the accepted trial are not trials: erm's
        # blocks evaluate every row, ev's stop at the accepted one
        if route == "erm":
            assert report.trials < calls["row"]
        else:
            assert report.trials == calls["row"]
        assert calls["ray_raw"] == report.iterations
        trace = report.trace
        assert len(report.backtracks) == report.iterations
        assert sum(report.backtracks) + report.iterations == report.trials
        assert max(report.backtracks) > 0
        assert [it.step for it in trace[1:]] == [
            cfg.rho_backtrack**b for b in report.backtracks
        ]
        shrinks = [cur.k for prev, cur in zip(trace, trace[1:]) if cur.mu < prev.mu]
        assert shrinks and report.mu_shrinks == shrinks
        assert report.value_calls == 1 + len(shrinks)
        assert report.gradient_calls == 1 + report.iterations + len(shrinks)

    def test_single_trial_ev_rays_screen_trials(self, monkeypatch):
        # a lift of 41 x 60 entries, whose blocks of 12 heads screen each
        # trial on its head before its scenario rows are summed
        inst, x0 = scenario_instance(60, 40, 7)
        solved = ev_solve(inst, x0)
        model, calls, rays = counted(ev_model(inst))
        tails = ev._ev_tails
        monkeypatch.setattr(ev, "_ev_tails", lambda *args: calls.update(["tails"]) or tails(*args))
        report = minimize_smoothed(model, x0)
        assert report.status is SolveStatus.CONVERGED
        assert (solved.trials, solved.screened, solved.backtracks) == (
            report.trials, report.screened, report.backtracks)
        assert report.trials == calls["trial"] == calls["row"]
        assert 0 < report.screened == sum(r.screened for r in rays) < report.trials
        # a screened trial sums no scenario row, and the raw read reuses
        # the accepted trial's sums; each value call and the start's raw
        # value sum them once
        assert calls["tails"] == report.trials - report.screened + report.value_calls + 1
        assert calls["ray_raw"] == report.iterations
        assert sum(report.backtracks) + report.iterations == report.trials

    def test_failed_line_search_trials_are_counted(self):
        # the stiff scalar instance of test_line_search_failure_reported
        problem = StochasticProblem([[100.0]], [], [0.0], [])
        samples = SampleSet(np.zeros((1, 0)), np.ones(1))
        model, calls, rays = counted(erm_model(problem, samples))
        report = minimize_smoothed(model, [1.0], SolverConfig(max_backtracks=2))
        assert report.status is SolveStatus.LINE_SEARCH_FAILURE
        # the one block stops at the search's last step
        assert report.trials == calls["trial"] == calls["row"] == 3
        assert report.screened == 0
        assert report.backtracks == [] and report.mu_shrinks == []
        assert (report.value_calls, report.gradient_calls) == (1, 1)


def random_model(route, rng, n, m, k=None):
    """A dense random instance of either route: erm over a few uniform
    samples, ev over k weighted scenarios, a few unless given."""
    A = [rng.uniform(-2.0, 2.0, (n, n)) for _ in range(m + 1)]
    b = [rng.uniform(-2.0, 2.0, n) for _ in range(m + 1)]
    if route == "erm":
        N = int(rng.integers(1, 20))
        samples = SampleSet(rng.uniform(0.0, 1.0, (N, m)), np.ones(N))
        return erm_model(StochasticProblem(A[0], A[1:], b[0], b[1:]), samples)
    k = int(rng.integers(1, 6)) if k is None else k
    probs = rng.uniform(0.1, 1.0, k)
    scenarios = FiniteScenarios(rng.uniform(-1.0, 2.0, (k, m)), probs / probs.sum())
    return ev_model(expected_instance(StochasticProblem(A[0], A[1:], b[0], b[1:], scenarios)))


def bits(value):
    return struct.pack("<d", value)


class OracleRay:
    """A route's ray as the scalar oracle: one trial per block, each the
    ray called with one step, and none screened; steps records them."""

    size = 1
    screened = 0

    def __init__(self, ray):
        self.ray, self.steps = ray, []

    def block(self, alphas, mu, accepts):
        self.steps += alphas
        return [scalar_trial(self.ray, alphas[0], mu)]

    def raw(self, i):
        return scalar_trial(self.ray, self.steps[-1], 0.0)


def compare_searches(model, x, d, mu, f0, slope, cfg, size):
    """armijo_backtrack over the oracle ray, and over the route's ray in
    blocks of size rows, screened where the ray screens: both must accept
    the same step with bitwise equal point, value and raw value after the
    same trials, or both fail after every trial.  Returns the route's ray,
    the sizes of the blocks it evaluated and the trials consumed."""
    oracle = OracleRay(model.ray(x, d))
    ray = model.ray(x, d)
    ray.size = size  # any block size, whatever the cost rule picks
    blocks, block = [], ray.block

    def sized(alphas, mu, accepts):
        blocks.append(len(alphas))
        return block(alphas, mu, accepts)

    ray.block = sized
    outcomes = []
    for r in (oracle, ray):
        try:
            j, alpha, f_new, raw = armijo_backtrack(r, mu, f0, slope, cfg)
            outcomes.append((j, alpha, (x + alpha * d).tobytes(), bits(f_new), bits(raw)))
        except LineSearchError:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]
    trials = len(oracle.steps)
    assert oracle.steps == [cfg.rho_backtrack**j for j in range(trials)]
    assert trials == (cfg.max_backtracks if outcomes[0] is None else outcomes[0][0]) + 1
    # full blocks hold the trials, and the next is evaluated only past the last
    assert blocks[:-1] == [size] * (len(blocks) - 1)
    assert sum(blocks[:-1]) < trials <= sum(blocks) <= cfg.max_backtracks + 1
    assert ray.screened <= trials - (outcomes[0] is not None)
    if isinstance(ray, _EvRay):  # exactly the trials whose bound fails
        assert ray.screened == sum(not half_head(ray, a, mu) - f0 <= cfg.delta * a * slope
                                   for a in oracle.steps)
    return ray, blocks, trials


class TestBlockSearch:
    """armijo_backtrack over blocks of the ray against armijo_backtrack
    over the scalar ray, its oracle."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 64), m=st.integers(0, 2),
           extra=st.integers(0, 8), shift=st.one_of(st.integers(-24, 12), st.integers(600, 700)),
           max_backtracks=st.integers(1, 60))
    def test_screened_head_sized_rays(self, seed, n, m, extra, shift, max_backtracks):
        # ev lifts of more than 2048 entries take blocks of 12 rows, sized
        # by the head, and screen each trial whose bound fails the test;
        # about half of these searches fail, all past 2**600
        rng = np.random.default_rng(seed)
        model = random_model("ev", rng, n, m, k=2048 // n + extra)
        x = rng.uniform(-2.0, 2.0, n)
        mu = 10.0 ** rng.uniform(-6, -1)
        g = model.gradient(x, mu)
        d = -(2.0**shift) * g
        cfg = SolverConfig(max_backtracks=max_backtracks)
        assert model.ray(x, d).size == 12
        with np.errstate(over="ignore", invalid="ignore"):
            compare_searches(model, x, d, mu, model.value(x, mu), float(g @ d), cfg, 12)

    def test_scenario_solve_is_the_oracle_search_bitwise(self):
        # the benchmark's shape, a 41 x 250 lift: the solve over ev's
        # screened blocks and the one over the scalar oracle ray take the
        # same trials to the same iterates
        inst, x0 = scenario_instance(250, 40, 1)
        report = ev_solve(inst, x0)
        model = ev_model(inst)
        oracle = minimize_smoothed(model._replace(ray=lambda z, d: OracleRay(model.ray(z, d))),
                                   x0)
        assert report.status is oracle.status is SolveStatus.CONVERGED
        assert report.iterations == oracle.iterations
        assert report.x_final.tobytes() == oracle.x_final.tobytes()
        assert [tuple(map(bits, dataclasses.astuple(it))) for it in report.trace] == [
            tuple(map(bits, dataclasses.astuple(it))) for it in oracle.trace]
        assert (report.trials, report.backtracks) == (oracle.trials, oracle.backtracks)
        assert 0 < report.screened < report.trials

    @settings(max_examples=200, deadline=None)
    @given(route=st.sampled_from(["erm", "ev"]), seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 6), m=st.integers(0, 2), size=st.integers(1, 12),
           shift=st.one_of(st.integers(-4, 40), st.integers(600, 700)),
           max_backtracks=st.integers(1, 40))
    def test_random_instances(self, route, seed, n, m, size, shift, max_backtracks):
        # 2**shift scales the direction: the search accepts later, or never
        # and past every finite trial
        rng = np.random.default_rng(seed)
        model = random_model(route, rng, n, m)
        x = rng.uniform(-2.0, 2.0, n)
        mu = 10.0 ** rng.uniform(-6, -1)
        g = model.gradient(x, mu)
        d = -(2.0**shift) * g
        cfg = SolverConfig(max_backtracks=max_backtracks)
        with np.errstate(over="ignore", invalid="ignore"):
            ray, _, _ = compare_searches(model, x, d, mu, model.value(x, mu), float(g @ d),
                                         cfg, size)
        assert route == "ev" or ray.screened == 0

    # f = z^2 at mu = 0 on either route.  From z = 1 along d = -2**(s + 1),
    # trial j is accepted exactly when j >= s + 1, so the search accepts
    # trial s + 1 and no earlier one
    @pytest.mark.parametrize("route", ["erm", "ev"])
    @pytest.mark.parametrize("size, s, max_backtracks, accepted", [
        (5, 3, 60, 4),  # the last row of the first block, J - 1
        (5, 4, 60, 5),  # the first row of the second block, J
        (5, 20, 7, None),  # fails after 8 trials, blocks of 5 and 3
        (5, 600, 700, 601),  # the first 90 trials overflow to inf
    ])
    def test_quadratic(self, route, size, s, max_backtracks, accepted):
        problem, samples = quadratic_1d_problem()
        model = (erm_model(problem, samples) if route == "erm"
                 else ev_model(expected_instance(problem)))
        x, d = np.ones(1), np.array([-(2.0 ** (s + 1))])
        cfg = SolverConfig(max_backtracks=max_backtracks)
        slope = float(model.gradient(x, 0.0) @ d)
        with np.errstate(over="ignore"):
            assert math.isfinite(scalar_trial(model.ray(x, d), 1.0, 0.0)) == (s != 600)
            _, got, trials = compare_searches(model, x, d, 0.0, model.value(x, 0.0), slope,
                                              cfg, size)
        if accepted is None:
            assert trials == max_backtracks + 1
            assert got[-1] == (max_backtracks + 1) % size
        else:
            assert trials == accepted + 1
