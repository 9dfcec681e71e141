import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savesolve import (
    FiniteScenarios,
    NonsmoothPointError,
    SampleSet,
    SamplerSpec,
    StochasticProblem,
    builtin_example,
    erm_objective,
    eval_A,
    eval_b,
    fd_gradient,
    generate,
    residual,
    smooth_abs,
    smoothed_gradient,
    smoothed_jacobian,
    smoothed_objective,
    solve,
)


@pytest.fixture
def ex4_1():
    return builtin_example("ex4_1")


@pytest.fixture
def ex2_1():
    return builtin_example("ex2_1")


def one_sample(*omega):
    return SampleSet(np.array([omega], dtype=float), np.ones(1))


def random_sampled_problem(rng, n, m, N, near):
    """A dense affine instance on the box with N weighted points in
    [-1, 2]^m.  When near is set, every residual vanishes at some x_star and
    the returned x is a small perturbation of it, so the rows cancel."""
    A_base = rng.uniform(-2.0, 2.0, (n, n))
    A_terms = rng.uniform(-2.0, 2.0, (m, n, n))
    if near:
        x_star = rng.uniform(-3.0, 3.0, n)
        b_base = A_base @ x_star - np.abs(x_star)
        b_terms = A_terms @ x_star
        x = x_star + 10.0 ** rng.uniform(-9, -3) * rng.uniform(-1.0, 1.0, n)
    else:
        b_base = rng.uniform(-2.0, 2.0, n)
        b_terms = rng.uniform(-2.0, 2.0, (m, n))
        x = rng.uniform(-3.0, 3.0, n)
    problem = StochasticProblem(A_base, list(A_terms), b_base, list(b_terms))
    samples = SampleSet(rng.uniform(-1.0, 2.0, (N, m)), rng.uniform(0.5, 1.5, N))
    return problem, samples, x


def direct_erm(problem, samples, x, mu):
    """The smoothed objective and its gradient by an explicit loop over the
    samples, each with the same sum taken over the absolute values of its
    terms: the scale that rounding errors are relative to when terms cancel.
    """
    psi = np.sqrt(x * x + mu)
    A_abs = [np.abs(problem.A_base)] + [np.abs(t) for t in problem.A_terms]
    b_abs = [np.abs(problem.b_base)] + [np.abs(t) for t in problem.b_terms]
    value = value_scale = 0.0
    grad = np.zeros(problem.n)
    grad_scale = np.zeros(problem.n)
    for w, weight in zip(samples.points, samples.weights):
        r = eval_A(problem, w) @ x - psi - eval_b(problem, w)
        u = np.abs(np.concatenate([[1.0], w]))
        # every term of r, and every matrix entry of J, by absolute value
        r_abs = psi + sum(c * (a @ np.abs(x) + b) for c, a, b in zip(u, A_abs, b_abs))
        J_abs = sum(c * a for c, a in zip(u, A_abs)) + np.diag(np.abs(x) / psi)
        value += weight * float(r @ r)
        value_scale += weight * float(r_abs @ r_abs)
        grad += 2.0 * weight * smoothed_jacobian(problem, x, w, mu).T @ r
        grad_scale += 2.0 * weight * J_abs.T @ r_abs
    N = samples.N
    return value / N, value_scale / N, grad / N, float(np.linalg.norm(grad_scale)) / N


sampled_shapes = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    m=st.integers(0, 3),
    N=st.integers(1, 12),
    near=st.booleans(),
)


class TestEvalCoefficients:
    def test_matrix_at_zero(self, ex4_1):
        np.testing.assert_array_equal(
            eval_A(ex4_1, [0.0]), np.array([[2.0, 1.0], [5.0, 1.0]])
        )

    def test_matrix_at_one(self, ex4_1):
        np.testing.assert_array_equal(
            eval_A(ex4_1, [1.0]), np.array([[3.0, 1.0], [5.0, 2.0]])
        )

    def test_rhs_at_zero_and_one(self, ex4_1):
        np.testing.assert_array_equal(eval_b(ex4_1, [0.0]), [4.0, 5.0])
        np.testing.assert_array_equal(eval_b(ex4_1, [1.0]), [5.0, 8.0])

    def test_deterministic_problem_returns_base(self):
        p = StochasticProblem(np.eye(2), [], [1.0, 2.0], [])
        np.testing.assert_array_equal(eval_A(p, []), np.eye(2))
        np.testing.assert_array_equal(eval_b(p, []), [1.0, 2.0])

    def test_dimension_mismatch(self, ex4_1):
        with pytest.raises(ValueError, match="omega"):
            eval_A(ex4_1, [0.0, 1.0])
        with pytest.raises(ValueError, match="omega"):
            eval_b(ex4_1, [])

    def test_affine_terms_recovered_at_basis_vectors(self, ex2_1):
        # evaluating at the canonical basis vectors reconstructs each term
        base = eval_A(ex2_1, np.zeros(ex2_1.m))
        for j in range(ex2_1.m):
            e = np.zeros(ex2_1.m)
            e[j] = 1.0
            np.testing.assert_array_equal(eval_A(ex2_1, e) - base, ex2_1.A_terms[j])


class TestProblemValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"A_terms\[0\]"):
            StochasticProblem(np.eye(2), [np.eye(3)], np.zeros(2), [np.zeros(2)])
        with pytest.raises(ValueError, match="b_base"):
            StochasticProblem(np.eye(2), [], np.zeros(3), [])

    def test_term_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="b_terms"):
            StochasticProblem(np.eye(2), [np.eye(2)], np.zeros(2), [])

    def test_scenario_probabilities_validated(self):
        with pytest.raises(ValueError, match="positive"):
            FiniteScenarios([[0.0], [1.0]], [1.0, 0.0])
        with pytest.raises(ValueError, match="sum"):
            FiniteScenarios([[0.0], [1.0]], [0.5, 0.4])
        # a 1e-13 defect is inside the tolerance
        FiniteScenarios([[0.0], [1.0]], [0.5, 0.5 - 1e-13])

    def test_non_finite_probabilities_and_weights_rejected(self):
        with pytest.raises(ValueError, match="probabilities"):
            FiniteScenarios([[0.0], [1.0]], [np.nan, 0.5])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="weights"):
                SampleSet([[0.0], [1.0]], [1.0, bad])

    def test_non_finite_coefficients_rejected(self):
        inf_matrix = np.array([[np.inf, 0.0], [0.0, 1.0]])
        nan_vector = np.array([np.nan, 0.0])
        cases = {
            "A_base": (inf_matrix, [np.eye(2)], np.zeros(2), [np.ones(2)]),
            r"A_terms\[0\]": (np.eye(2), [inf_matrix], np.zeros(2), [np.ones(2)]),
            "b_base": (np.eye(2), [np.eye(2)], nan_vector, [np.ones(2)]),
            r"b_terms\[0\]": (np.eye(2), [np.eye(2)], np.zeros(2), [nan_vector]),
        }
        for field, args in cases.items():
            with pytest.raises(ValueError, match=field):
                StochasticProblem(*args)


class TestResidual:
    def test_exact_solution_ex4_1(self, ex4_1):
        r = residual(ex4_1, [1.0, 3.0], [0.0])
        np.testing.assert_allclose(r, 0.0, atol=1e-14)

    def test_zero_point_gives_minus_rhs(self, ex4_1):
        np.testing.assert_array_equal(residual(ex4_1, [0.0, 0.0], [0.7]),
                                      -eval_b(ex4_1, [0.7]))

    def test_exact_solution_ex2_1(self, ex2_1):
        r = residual(ex2_1, np.ones(4), [0.0])
        np.testing.assert_allclose(r, 0.0, atol=1e-14)


class TestSmoothAbs:
    def test_at_zero(self):
        assert smooth_abs(0.0, 0.25) == 0.5

    def test_mu_zero_is_abs(self):
        assert smooth_abs(3.0, 0.0) == 3.0
        assert smooth_abs(-3.0, 0.0) == 3.0

    def test_point_value(self):
        assert smooth_abs(1.0, 0.01) == pytest.approx(np.sqrt(1.01), rel=1e-15)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError, match="mu"):
            smooth_abs(1.0, -1e-12)

    def test_uniform_gap_bound(self):
        # |sqrt(t^2 + mu) - |t|| <= sqrt(mu) everywhere
        rng = np.random.default_rng(5)
        t = rng.uniform(-10, 10, size=500)
        for mu in (1e-8, 1e-4, 0.01, 1.0):
            gap = np.abs(smooth_abs(t, mu) - np.abs(t))
            assert np.all(gap <= np.sqrt(mu) + 1e-15)

    def test_array_input(self):
        out = smooth_abs(np.array([0.0, 3.0]), 0.0)
        np.testing.assert_array_equal(out, [0.0, 3.0])

    @settings(max_examples=500, deadline=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(0.0, allow_nan=False, allow_infinity=False),
    )
    def test_exact_at_mu_zero_and_finite_for_finite_t(self, t, mu):
        # subnormal and huge t included: t * t would underflow or overflow
        exact = np.float64(smooth_abs(t, 0.0))
        assert exact.tobytes() == np.float64(abs(t)).tobytes()
        assert np.isfinite(smooth_abs(t, mu))
        assert smooth_abs(t, mu) >= abs(t)


class TestErmObjective:
    def test_zero_at_exact_solution(self, ex4_1):
        samples = generate(SamplerSpec("halton", count=32, dim=1), ex4_1)
        assert erm_objective(ex4_1, samples, [1.0, 3.0]) <= 1e-28

    def test_single_sample_value(self, ex4_1):
        # residual at x = 0, w = 0 is (-4, -5), so the value is 16 + 25
        assert erm_objective(ex4_1, one_sample(0.0), [0.0, 0.0]) == 41.0

    def test_nonnegative(self, ex4_1):
        rng = np.random.default_rng(11)
        samples = generate(SamplerSpec("pseudorandom", count=20, dim=1, seed=2), ex4_1)
        for _ in range(25):
            x = rng.uniform(-5, 5, size=2)
            assert erm_objective(ex4_1, samples, x) >= 0.0

    def test_scenario_weight_convention(self, ex2_1):
        # the weighted mean must equal the exact probability-weighted sum
        samples = generate(SamplerSpec("scenarios", count=1, dim=1), ex2_1)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.uniform(-3, 3, size=4)
            expected = sum(
                p * float(np.dot(residual(ex2_1, x, w), residual(ex2_1, x, w)))
                for w, p in zip(ex2_1.distribution.omegas, ex2_1.distribution.probs)
            )
            assert erm_objective(ex2_1, samples, x) == pytest.approx(
                expected, rel=1e-12
            )

    def test_sample_dimension_checked(self, ex4_1):
        bad = SampleSet(np.zeros((3, 2)), np.ones(3))
        with pytest.raises(ValueError, match="dimension"):
            erm_objective(ex4_1, bad, [1.0, 3.0])

    def test_empty_sample_set_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SampleSet(np.zeros((0, 1)), np.ones(0))


class TestSmoothedObjective:
    def test_mu_zero_matches_erm(self, ex4_1):
        samples = generate(SamplerSpec("pseudorandom", count=15, dim=1, seed=9), ex4_1)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.uniform(-4, 4, size=2)
            assert smoothed_objective(ex4_1, samples, x, 0.0) == erm_objective(
                ex4_1, samples, x
            )

    def test_single_sample_value(self, ex4_1):
        # direct substitution: A(0) x - sqrt(x^2 + mu) - b(0) at x = (1, 3)
        x = np.array([1.0, 3.0])
        r = np.array([[2.0, 1.0], [5.0, 1.0]]) @ x - np.sqrt(x * x + 0.01) - [4.0, 5.0]
        expected = float(r @ r)
        assert expected == pytest.approx(2.7652011460688737e-05, rel=1e-12)
        got = smoothed_objective(ex4_1, one_sample(0.0), x, 0.01)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_and_continuous_in_mu(self, ex4_1):
        samples = one_sample(0.5)
        x = np.array([0.3, -1.2])
        values = [smoothed_objective(ex4_1, samples, x, mu) for mu in
                  (0.0, 1e-10, 1e-6, 1e-3, 0.1)]
        assert all(v >= 0.0 for v in values)
        assert values[1] == pytest.approx(values[0], abs=1e-8)


class TestSmoothedJacobian:
    def test_zero_point_gives_A(self, ex4_1):
        np.testing.assert_array_equal(
            smoothed_jacobian(ex4_1, [0.0, 0.0], [0.3], 0.5), eval_A(ex4_1, [0.3])
        )

    def test_scalar_case_at_mu_zero(self):
        p = StochasticProblem([[2.0]], [], [0.0], [])
        assert smoothed_jacobian(p, [1.0], [], 0.0) == np.array([[1.0]])

    def test_kink_rejected(self, ex4_1):
        with pytest.raises(NonsmoothPointError):
            smoothed_jacobian(ex4_1, [0.0, 1.0], [0.1], 0.0)

    def test_tiny_component_at_mu_zero(self, ex4_1):
        # x_j^2 underflows to 0 at 1e-170, but x_j is not a kink
        J = smoothed_jacobian(ex4_1, [1e-170, 1.0], [0.1], 0.0)
        assert np.all(np.isfinite(J))
        np.testing.assert_allclose(
            J, smoothed_jacobian(ex4_1, [1e-100, 1.0], [0.1], 0.0), rtol=1e-12
        )

    def test_large_mu_kills_diagonal_correction(self, ex4_1):
        J = smoothed_jacobian(ex4_1, [1.0, 3.0], [0.2], 1e12)
        np.testing.assert_allclose(J, eval_A(ex4_1, [0.2]), atol=1e-5)


class TestSmoothedGradient:
    def test_zero_where_all_residuals_vanish(self):
        # choose b so the smoothed residual is exactly zero at x
        x = np.array([0.7, -1.3])
        mu = 0.05
        A = np.array([[3.0, 1.0], [0.0, 2.0]])
        b = A @ x - np.sqrt(x * x + mu)
        p = StochasticProblem(A, [], b, [])
        g = smoothed_gradient(p, SampleSet(np.zeros((1, 0)), np.ones(1)), x, mu)
        np.testing.assert_array_equal(g, np.zeros(2))

    def test_scalar_case(self):
        p = StochasticProblem([[2.0]], [], [0.0], [])
        samples = SampleSet(np.zeros((1, 0)), np.ones(1))
        g = smoothed_gradient(p, samples, [1.0], 0.0)
        np.testing.assert_array_equal(g, [2.0])

    def test_kink_rejected(self, ex4_1):
        samples = one_sample(0.5)
        with pytest.raises(NonsmoothPointError):
            smoothed_gradient(ex4_1, samples, [1.0, 0.0], 0.0)

    def test_tiny_component_at_mu_zero(self, ex4_1):
        samples = generate(SamplerSpec("halton", count=20, dim=1), ex4_1)
        g = smoothed_gradient(ex4_1, samples, [1e-170, 1.0], 0.0)
        assert np.all(np.isfinite(g))
        np.testing.assert_allclose(
            g, smoothed_gradient(ex4_1, samples, [1e-100, 1.0], 0.0), rtol=1e-12
        )

    @pytest.mark.parametrize("example_id", ["ex4_1", "ex4_2"])
    def test_matches_central_differences(self, example_id):
        problem = builtin_example(example_id)
        samples = generate(
            SamplerSpec("pseudorandom", count=12, dim=1, seed=8), problem
        )
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=problem.n)
            mu = 10.0 ** rng.uniform(-6, -1)
            analytic = smoothed_gradient(problem, samples, x, mu)
            numeric = fd_gradient(
                lambda z: smoothed_objective(problem, samples, z, mu), x, h=1e-6
            )
            err = np.linalg.norm(analytic - numeric)
            assert err <= 1e-5 * np.linalg.norm(numeric) + 1e-8

    @settings(max_examples=100, deadline=None)
    @given(**sampled_shapes)
    def test_random_instances_match_central_differences(self, seed, n, m, N, near):
        rng = np.random.default_rng(seed)
        problem, samples, x = random_sampled_problem(rng, n, m, N, near)
        mu = 10.0 ** rng.uniform(-6, -1)
        analytic = smoothed_gradient(problem, samples, x, mu)
        numeric = fd_gradient(
            lambda z: smoothed_objective(problem, samples, z, mu), x, h=1e-6
        )
        err = np.linalg.norm(analytic - numeric)
        assert err <= 1e-5 * np.linalg.norm(numeric) + 1e-8


class TestSampleMoments:
    """The moment evaluation against explicit per-sample summation, and its
    cost: nothing of size N is formed per call."""

    @settings(max_examples=300, deadline=None)
    @given(**sampled_shapes)
    def test_matches_direct_summation(self, seed, n, m, N, near):
        # N <= m leaves the moment matrix singular
        rng = np.random.default_rng(seed)
        problem, samples, x = random_sampled_problem(rng, n, m, N, near)
        mu = 10.0 ** rng.uniform(-6, -1)
        value, value_scale, grad, grad_scale = direct_erm(problem, samples, x, mu)
        got = smoothed_objective(problem, samples, x, mu)
        assert abs(got - value) <= 1e-12 * value_scale
        got = smoothed_gradient(problem, samples, x, mu)
        assert np.linalg.norm(got - grad) <= 1e-12 * grad_scale
        value, value_scale, _, _ = direct_erm(problem, samples, x, 0.0)
        assert abs(erm_objective(problem, samples, x) - value) <= 1e-12 * value_scale

    def test_per_call_memory_is_independent_of_sample_count(self):
        problem = builtin_example("ex4_4", 50)
        N = 200_000
        samples = SampleSet(np.linspace(0.0, 1.0, N)[:, None], np.ones(N))
        x = np.linspace(0.5, 1.5, 50)
        calls = (
            lambda: smoothed_objective(problem, samples, x, 1e-3),
            lambda: smoothed_gradient(problem, samples, x, 1e-3),
            lambda: erm_objective(problem, samples, x),
        )
        for call in calls:
            call()
        tracemalloc.start()
        try:
            for call in calls:
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one N x n residual matrix alone would be 80 MB
        assert peak < 1_000_000

    def test_factorised_once_per_solve(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        problem = builtin_example("ex4_4", 20)
        samples = generate(SamplerSpec("halton", count=100, dim=1), problem)
        report = solve(problem, samples, np.zeros(20))
        assert report.iterations > 10
        assert calls == [(2, 2)]
