import collections
import functools
import math
import struct

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
    armijo_backtrack,
    builtin_example,
    generate,
    minimize_smoothed,
    smoothed_gradient,
    smoothed_objective,
    solve,
)
from savesolve import solver
from savesolve.core import FiniteScenarios, _erm_value, _Ray
from savesolve.ev import _EvRay, ev_gradient, ev_objective, ev_solve, expected_instance
from savesolve.solver import _BlockSearch


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
        alpha, x_new, _ = armijo_backtrack(
            lambda a: f(x + a * d), x, d, f(x), slope, SolverConfig()
        )
        assert alpha == 0.5
        np.testing.assert_array_equal(x_new, [0.0])

    def test_first_trial_accepted(self):
        problem, samples = quadratic_1d_problem()
        f = lambda z: smoothed_objective(problem, samples, z, 0.0)
        x, d = np.array([1.0]), np.array([-0.5])
        slope = float(smoothed_gradient(problem, samples, x, 0.0) @ d)
        alpha, x_new, _ = armijo_backtrack(
            lambda a: f(x + a * d), x, d, f(x), slope, SolverConfig()
        )
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
            alpha, x_new, _ = armijo_backtrack(
                lambda a: f(x - a * g), x, -g, f(x), float(g @ -g), cfg
            )
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
        f = lambda z: float(z @ z)
        x, d = np.zeros(1), np.ones(1)
        with pytest.raises(LineSearchError):
            armijo_backtrack(
                lambda a: f(x + a * d),
                x,
                d,
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

    def test_accepted_point_is_x_plus_alpha_d(self):
        # the ray only evaluates trials: each iterate is bitwise the previous
        # one plus the accepted step along the negative gradient there
        problem = builtin_example("ex4_2")
        samples = generate(SamplerSpec("halton", count=25, dim=1), problem)
        report = solve(problem, samples, [1.3, 0.4, 1.9, 0.2], SolverConfig())
        assert report.iterations > 10
        for prev, cur in zip(report.trace, report.trace[1:]):
            d = -smoothed_gradient(problem, samples, prev.x, prev.mu)
            assert cur.x.tobytes() == (prev.x + cur.step * d).tobytes()

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
    """The ray protocol over a plain f(z, mu), one trial per block."""

    size = 1

    def __init__(self, f, x, d):
        self.f, self.x, self.d = f, x, d

    def block(self, alphas, mu):
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


def counted(model, monkeypatch):
    """model with its calls tallied: the trials the line searches consumed,
    as solver's armijo_backtrack calls them, the rows of the blocks the rays
    evaluated, the rays' raw reads, one per iterate, and their floors."""
    calls = collections.Counter()

    def tally(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    search = solver.armijo_backtrack
    monkeypatch.setattr(solver, "armijo_backtrack",
                        lambda phi, *args: search(tally("trial", phi), *args))

    def ray(z, d):
        r = model.ray(z, d)
        block = r.block

        def rows(alphas, mu):
            calls["row"] += len(alphas)
            return block(alphas, mu)

        r.block, r.raw = rows, tally("ray_raw", r.raw)
        if r.floor is not None:
            r.floor = tally("floor", r.floor)
        return r

    return model._replace(value=tally("value", model.value),
                          gradient=tally("gradient", model.gradient), ray=ray), calls


class TestSolveCounts:
    @pytest.mark.parametrize("route", ["erm", "ev"])
    def test_counts_match_the_model_calls(self, route, monkeypatch):
        if route == "erm":
            problem = builtin_example("ex4_1")
            samples = generate(SamplerSpec("halton", count=20, dim=1), problem)
            x0 = [1.8, 0.4]
            solved = solve(problem, samples, x0)
            model, calls = counted(erm_model(problem, samples), monkeypatch)
        else:
            inst = expected_instance(builtin_example("ex2_1"))
            x0 = [0.5, -1.0, 2.0, 0.0]
            solved = ev_solve(inst, x0)
            model, calls = counted(ev_model(inst), monkeypatch)
        cfg = SolverConfig()
        report = minimize_smoothed(model, x0, cfg)
        assert (solved.trials, solved.backtracks) == (report.trials, report.backtracks)
        assert report.status is SolveStatus.CONVERGED
        # blocks of several rows: no trial is screened
        assert solved.screened == report.screened == calls["floor"] == 0
        assert report.value_calls == calls["value"]
        assert report.gradient_calls == calls["gradient"]
        assert report.trials == calls["trial"]
        # block rows evaluated past the accepted trial are not trials
        assert report.trials < calls["row"]
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
        # a lift of 41 x 60 entries: one trial per block, each screened by
        # the ray's floor before its scenario rows are summed
        inst, x0 = scenario_instance(60, 40, 7)
        solved = ev_solve(inst, x0)
        model, calls = counted(ev_model(inst), monkeypatch)
        report = minimize_smoothed(model, x0)
        assert report.status is SolveStatus.CONVERGED
        assert (solved.trials, solved.screened, solved.backtracks) == (
            report.trials, report.screened, report.backtracks)
        assert report.trials == calls["trial"] == calls["floor"]
        # a screened trial evaluates no block row, and no row is wasted
        assert 0 < report.screened < report.trials
        assert calls["row"] == report.trials - report.screened
        assert calls["ray_raw"] == report.iterations
        assert sum(report.backtracks) + report.iterations == report.trials

    def test_failed_line_search_trials_are_counted(self, monkeypatch):
        # the stiff scalar instance of test_line_search_failure_reported
        problem = StochasticProblem([[100.0]], [], [0.0], [])
        samples = SampleSet(np.zeros((1, 0)), np.ones(1))
        model, calls = counted(erm_model(problem, samples), monkeypatch)
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


def compare_searches(model, x, d, mu, f0, slope, cfg, size):
    """armijo_backtrack fed one trial at a time by the scalar ray, and fed
    from blocks of size rows, screened when size is 1 and the ray has a
    floor: both must accept the same step with a bitwise equal value and
    consume the same trials, or both fail after the same trials.  Returns
    the block search."""
    oracle = model.ray(x, d)
    scalar_trials = []

    def scalar(alpha):
        scalar_trials.append(alpha)
        return oracle(alpha, mu)

    ray = model.ray(x, d)
    ray.size = size  # any block size, whatever the cost rule picks
    steps = [cfg.rho_backtrack**j for j in range(cfg.max_backtracks + 1)]
    search = _BlockSearch(ray, steps, mu, f0, slope, cfg.delta)
    outcomes = []
    for phi in (scalar, search):
        try:
            alpha, x_new, f_new = armijo_backtrack(phi, x, d, f0, slope, cfg)
            outcomes.append((alpha, x_new.tobytes(), bits(f_new)))
        except LineSearchError:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]
    assert search.trials == len(scalar_trials)
    if outcomes[0] is not None:
        # the raw value read off the accepted row is the scalar ray's
        assert bits(search.raw()) == bits(oracle(outcomes[0][0], 0.0))
    return search


class TestBlockSearch:
    """armijo_backtrack fed from blocks of the ray against armijo_backtrack
    over the scalar ray, its oracle."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 64), m=st.integers(0, 2),
           extra=st.integers(0, 8), shift=st.one_of(st.integers(-24, 12), st.integers(600, 700)),
           max_backtracks=st.integers(1, 60))
    def test_screened_single_trial_rays(self, seed, n, m, extra, shift, max_backtracks):
        # ev lifts of more than 2048 entries take one trial per block, and
        # the search screens each by the ray's floor; about half of these
        # searches fail, all past 2**600
        rng = np.random.default_rng(seed)
        model = random_model("ev", rng, n, m, k=2048 // n + extra)
        x = rng.uniform(-2.0, 2.0, n)
        mu = 10.0 ** rng.uniform(-6, -1)
        g = model.gradient(x, mu)
        d = -(2.0**shift) * g
        cfg = SolverConfig(max_backtracks=max_backtracks)
        with np.errstate(over="ignore", invalid="ignore"):
            search = compare_searches(model, x, d, mu, model.value(x, mu), float(g @ d), cfg, 1)
        assert search.screens and model.ray(x, d).size == 1

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
            compare_searches(model, x, d, mu, model.value(x, mu), float(g @ d), cfg, size)

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
            assert math.isfinite(model.ray(x, d)(1.0, 0.0)) == (s != 600)
            search = compare_searches(model, x, d, 0.0, model.value(x, 0.0), slope, cfg, size)
        if accepted is None:
            assert search.trials == max_backtracks + 1
            assert len(search.values) == (max_backtracks + 1) % size
        else:
            assert search.trials == accepted + 1
