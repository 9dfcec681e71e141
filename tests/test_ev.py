import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savesolve import (
    EvInstance,
    FiniteScenarios,
    NonsmoothPointError,
    SolveStatus,
    SolverConfig,
    StochasticProblem,
    builtin_example,
    ev_gradient,
    ev_objective,
    ev_solve,
    expected_instance,
    verify_glcp,
    verify_save,
)
from savesolve import ev
from savesolve.ev import _EvRay, _verdicts

from helpers import (
    A_bar,
    b_bar,
    ev_residual,
    eval_A,
    eval_b,
    fb,
    fd_gradient,
    half_head,
    residual,
    scalar_trial,
    smoothed_fb,
)

EX2_1_STARTS = [
    (2.5127, -2.4490, 0.0596, 1.9908),
    (-1.4834, 3.3083, 0.8526, 0.4972),
    (-3.3782, 2.9428, -1.8878, 0.2853),
    (-3.9335, 4.6190, -4.9537, 2.7491),
    (3.5303, 1.2206, -1.4905, 0.1325),
]


def accept_all(alpha, f):
    return True


def reject_all(alpha, f):
    return False


def random_finite_problem(rng, n, m, k, feasible=False):
    """A dense affine instance with k weighted scenarios of dimension m.  A
    feasible one has b_base lowered by 1e5, so every scenario row is
    positive near x: its tails are exactly zero, and the value is the
    complementarity head alone."""
    omegas = rng.uniform(-1.0, 2.0, (k, m))
    probs = rng.uniform(0.1, 1.0, k)
    return StochasticProblem(
        rng.uniform(-2.0, 2.0, (n, n)),
        list(rng.uniform(-2.0, 2.0, (m, n, n))),
        rng.uniform(-2.0, 2.0, n) - (1e5 if feasible else 0.0),
        list(rng.uniform(-2.0, 2.0, (m, n))),
        FiniteScenarios(omegas, probs / probs.sum()),
    )


def checked_block(ray, alphas, mu, accepts):
    """ray.block(alphas, mu, accepts), checked against the scalar ray under
    the per-row rule: the rows up to the first accepted one, each the
    row's bound when the test rejects it (counted in screened, with no
    scenario row summed) and else its value, bitwise, after one _ev_tails
    call on that row alone; raw of an accepted row is its value at mu = 0.
    Returns the rows and whether one was accepted."""
    oracle = [(half_head(ray, alpha, mu), scalar_trial(ray, alpha, mu)) for alpha in alphas]
    summed, screened, tails = [], ray.screened, ev._ev_tails

    def counted(Ys, z):
        summed.append(z.tobytes())
        return tails(Ys, z)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ev, "_ev_tails", counted)
        rows = ray.block(alphas, mu, accepts)
    expected, evaluated, accepted = [], [], False
    for alpha, (floor, value) in zip(alphas, oracle):
        assert floor <= value or math.isnan(value)
        assert math.isnan(value) or not math.isnan(floor)
        if not accepts(alpha, floor):
            expected.append(floor)
            continue
        expected.append(value)
        evaluated.append((ray.x + alpha * ray.d)[None].tobytes())
        if accepts(alpha, value):
            accepted = True
            break
    assert np.array(rows).tobytes() == np.array(expected).tobytes()
    assert ray.screened - screened == len(expected) - len(evaluated)
    assert summed == evaluated
    if accepted:
        assert np.float64(ray.raw(len(rows) - 1)).tobytes() == np.float64(
            scalar_trial(ray, alphas[len(rows) - 1], 0.0)).tobytes()
    return rows, accepted


def direct_ev(problem, x, mu):
    """ev_objective and ev_gradient by explicit summation over scenarios:
    the expected matrices as probability-weighted sums of the scenario
    matrices, then one constraint block per scenario matrix.

    Each result comes with the same sum taken over the absolute values of
    its terms: the scale that rounding errors are relative to when the
    terms cancel.
    """
    dist = problem.distribution
    blocks = [(eval_A(problem, w), eval_b(problem, w)) for w in dist.omegas]
    A_bar = sum(p * A_i for (A_i, _), p in zip(blocks, dist.probs))
    b_bar = sum(p * b_i for (_, b_i), p in zip(blocks, dist.probs))
    A_abs = sum(p * np.abs(A_i) for (A_i, _), p in zip(blocks, dist.probs))
    G = A_bar @ x + x - b_bar
    H = A_bar @ x - x - b_bar
    s = np.sqrt(G * G + H * H + mu)
    phi = s - G - H
    value = 0.5 * float(phi @ phi)
    value_scale = 0.5 * float(np.sum((s + np.abs(G) + np.abs(H)) ** 2))
    cg = (G / s - 1.0) * phi
    ch = (H / s - 1.0) * phi
    grad = A_bar.T @ (cg + ch) + (cg - ch)
    scale = A_abs.T @ np.abs(cg + ch) + np.abs(cg - ch)
    for A_i, b_i in blocks:
        u = np.minimum(0.0, A_i @ x + x - b_i)
        v = np.minimum(0.0, A_i @ x - x - b_i)
        value += 0.5 * float(u @ u + v @ v)
        value_scale += 0.5 * float(u @ u + v @ v)
        grad += A_i.T @ (u + v) + (u - v)
        scale += np.abs(A_i.T) @ np.abs(u + v) + np.abs(u - v)
    return value, value_scale, grad, float(np.linalg.norm(scale))


instance_shapes = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    m=st.integers(0, 3),
    k=st.integers(1, 6),
)


@pytest.fixture
def ex2_1():
    return builtin_example("ex2_1")


@pytest.fixture
def ev2_1(ex2_1):
    return expected_instance(ex2_1)


magnitude = st.one_of(st.just(0.0), st.floats(1e-150, 1e150))
signed = st.tuples(magnitude, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@st.composite
def fb_pairs(draw):
    if draw(st.integers(0, 2)) == 0:  # a third on the complementarity set
        c = draw(magnitude)
        return (c, 0.0) if draw(st.booleans()) else (0.0, c)
    return draw(signed), draw(signed)


class TestFb:
    def test_origin(self):
        assert fb(0.0, 0.0) == 0.0

    def test_point_value(self):
        assert fb(3.0, 4.0) == -2.0  # 5 - 3 - 4

    def test_large_arguments_do_not_overflow(self):
        assert fb(1e200, 1.0) == -1.0
        assert np.isfinite(smoothed_fb(-1e200, 1e200, 0.01))

    def test_badly_scaled_pairs_keep_the_small_argument(self):
        # the larger argument comes off first, so the smaller one survives
        assert fb(1.0, 1e200) == fb(1e200, 1.0) == -1.0
        assert fb(1e-9, 1.0) == fb(1.0, 1e-9) == -1e-9

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_symmetric_bitwise(self, a, b):
        with np.errstate(over="ignore"):  # hypot of two huge values is inf
            ab, ba = fb(a, b), fb(b, a)
        assert np.float64(ab).tobytes() == np.float64(ba).tobytes()

    def test_zero_on_nonnegative_axis(self):
        for a in (0.0, 0.5, 2.0, 100.0):
            assert fb(a, 0.0) == 0.0
            assert fb(0.0, a) == 0.0

    def test_zero_set_is_the_complementarity_set(self):
        # mixture of generic pairs (both predicates false) and exactly
        # complementary pairs (both true)
        rng = np.random.default_rng(21)
        pairs = [rng.uniform(-5, 5, size=2) for _ in range(5000)]
        pairs += [(a, 0.0) for a in rng.uniform(0, 5, size=2500)]
        pairs += [(0.0, b) for b in rng.uniform(0, 5, size=2500)]
        for a, b in pairs:
            lhs = abs(fb(a, b)) <= 1e-10
            rhs = a >= -1e-8 and b >= -1e-8 and abs(a * b) <= 1e-8
            assert lhs == rhs


    @settings(max_examples=500, deadline=None)
    @given(fb_pairs())
    def test_growth_bound(self, pair):
        # (2 - sqrt 2) |min(a, b)| <= |fb(a, b)| <= (2 + sqrt 2) |min(a, b)|
        a, b = pair
        value, low = abs(fb(a, b)), abs(min(a, b))
        slack = 4 * np.finfo(float).eps * max(abs(a), abs(b))
        assert (2 - np.sqrt(2)) * low - slack <= value
        assert value <= (2 + np.sqrt(2)) * low + slack
        if min(a, b) == 0.0:
            assert value == 0.0


class TestSmoothedFb:
    def test_origin(self):
        assert smoothed_fb(0.0, 0.0, 0.04) == 0.2
        assert type(smoothed_fb(0.0, 0.0, 0.04)) is float

    def test_mu_zero_matches_fb(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.uniform(-3, 3, size=2)
            assert smoothed_fb(a, b, 0.0) == fb(a, b)

    def test_point_value(self):
        assert smoothed_fb(1.0, 1.0, 0.01) == pytest.approx(
            np.sqrt(2.01) - 2.0, rel=1e-15
        )

    def test_uniform_gap_bound(self):
        rng = np.random.default_rng(2)
        for mu in (1e-8, 1e-4, 0.01, 1.0):
            for _ in range(100):
                a, b = rng.uniform(-10, 10, size=2)
                assert abs(smoothed_fb(a, b, mu) - fb(a, b)) <= np.sqrt(mu) + 1e-15


class TestExpectedInstance:
    def test_ex2_1_expectations(self, ev2_1):
        expected_A = np.array(
            [[11, 1, 2, 0], [1, 12, 3, 1], [0, 2, 13, 1], [1, 7, 0, 14]], dtype=float
        )
        np.testing.assert_array_equal(A_bar(ev2_1), expected_A)
        np.testing.assert_array_equal(b_bar(ev2_1), [13.0, 16.0, 15.0, 21.0])
        assert ev2_1.count == 2

    def test_expectation_matches_probability_weighted_sum(self, ex2_1, ev2_1):
        dist = ex2_1.distribution
        A_sum = sum(p * eval_A(ex2_1, w) for w, p in zip(dist.omegas, dist.probs))
        b_sum = sum(p * eval_b(ex2_1, w) for w, p in zip(dist.omegas, dist.probs))
        np.testing.assert_allclose(A_bar(ev2_1), A_sum, atol=1e-12)
        np.testing.assert_allclose(b_bar(ev2_1), b_sum, atol=1e-12)

    def test_single_scenario(self):
        problem = StochasticProblem(
            [[2.0]], [[[1.0]]], [1.0], [[0.5]],
            distribution=FiniteScenarios([[0.25]], [1.0]),
        )
        inst = expected_instance(problem)
        np.testing.assert_array_equal(A_bar(inst), [[2.25]])
        np.testing.assert_array_equal(b_bar(inst), [1.125])

    def test_uniform_box_uses_mean_half(self):
        problem = builtin_example("ex4_1")
        inst = expected_instance(problem)
        np.testing.assert_array_equal(
            A_bar(inst), np.array([[2.5, 1.0], [5.0, 1.5]])
        )
        np.testing.assert_array_equal(b_bar(inst), [4.5, 6.5])
        assert inst.count == 0

    def test_points_shape_validated(self, ex2_1):
        with pytest.raises(ValueError, match="points"):
            EvInstance(ex2_1, np.zeros((3, 2)))


class TestEvObjective:
    def test_zero_at_solution(self, ev2_1):
        assert ev_objective(ev2_1, np.ones(4), 0.0) == 0.0

    def test_positive_off_solution(self, ev2_1):
        assert ev_objective(ev2_1, np.array([-1.0, 2.0, 0.3, -4.0]), 0.0) > 0.0

    def test_zero_scenarios_reduces_to_fb_norm(self):
        inst = expected_instance(
            StochasticProblem(np.array([[2.0, 0.0], [0.0, 3.0]]), [], [1.0, 1.0], [])
        )
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=2)
            G = A_bar(inst) @ x + x - b_bar(inst)
            H = A_bar(inst) @ x - x - b_bar(inst)
            phi = np.array([fb(G[i], H[i]) for i in range(2)])
            assert ev_objective(inst, x, 0.0) == pytest.approx(
                0.5 * float(phi @ phi), rel=1e-14
            )

    def test_negative_mu_rejected(self, ev2_1):
        with pytest.raises(ValueError, match="mu"):
            ev_objective(ev2_1, np.ones(4), -1e-9)


class TestEvGradient:
    def test_matches_central_differences(self, ev2_1):
        rng = np.random.default_rng(7)
        for _ in range(30):
            x = rng.uniform(-3, 3, size=4)
            mu = 10.0 ** rng.uniform(-6, -1)
            analytic = ev_gradient(ev2_1, x, mu)
            numeric = fd_gradient(lambda z: ev_objective(ev2_1, z, mu), x)
            err = np.linalg.norm(analytic - numeric)
            assert err <= 1e-5 * np.linalg.norm(numeric) + 1e-8


    def test_kink_rejected(self):
        # G = H = 0 at x = 0: both complementarity arguments vanish
        inst = expected_instance(StochasticProblem([[1.0]], [], [0.0], []))
        with pytest.raises(NonsmoothPointError, match="kink"):
            ev_gradient(inst, [0.0], 0.0)
        assert np.all(np.isfinite(ev_gradient(inst, [0.0], 1e-12)))

    def test_wrong_length_x_rejected(self, ev2_1):
        with pytest.raises(ValueError, match="x has length"):
            ev_gradient(ev2_1, np.ones(3), 0.01)
        with pytest.raises(ValueError, match="x has length"):
            ev_residual(ev2_1, np.ones(3), np.zeros((4, 4)))


class TestAffineRows:
    """The affine-row evaluation against explicit per-scenario summation,
    over random finite-scenario instances with m > 1 as well."""

    @settings(max_examples=200, deadline=None)
    @given(**instance_shapes)
    def test_matches_direct_summation(self, seed, n, m, k):
        rng = np.random.default_rng(seed)
        problem = random_finite_problem(rng, n, m, k)
        inst = expected_instance(problem)
        x = rng.uniform(-3, 3, size=n)
        mu = 10.0 ** rng.uniform(-6, -1)
        value, value_scale, grad, grad_scale = direct_ev(problem, x, mu)
        assert abs(ev_objective(inst, x, mu) - value) <= 1e-12 * value_scale
        assert np.linalg.norm(ev_gradient(inst, x, mu) - grad) <= 1e-12 * grad_scale

    @settings(max_examples=100, deadline=None)
    @given(**instance_shapes)
    def test_gradient_matches_central_differences(self, seed, n, m, k):
        rng = np.random.default_rng(seed)
        inst = expected_instance(random_finite_problem(rng, n, m, k))
        x = rng.uniform(-3, 3, size=n)
        mu = 10.0 ** rng.uniform(-6, -1)
        analytic = ev_gradient(inst, x, mu)
        numeric = fd_gradient(lambda z: ev_objective(inst, z, mu), x)
        err = np.linalg.norm(analytic - numeric)
        assert err <= 1e-5 * np.linalg.norm(numeric) + 1e-8


class TestEvRay:
    """The line search's ray against ev_objective at x + alpha d and against
    explicit per-scenario summation."""

    @settings(max_examples=300, deadline=None)
    @given(**instance_shapes, j=st.integers(0, 60), d_exp=st.floats(-6.0, 3.0),
           raw=st.booleans())
    def test_matches_objective_and_direct_summation(self, seed, n, m, k, j, d_exp, raw):
        rng = np.random.default_rng(seed)
        inst = expected_instance(random_finite_problem(rng, n, m, k))
        x = rng.uniform(-3, 3, size=n)
        d = 10.0**d_exp * rng.uniform(-1.0, 1.0, n)
        alpha = 0.5**j
        mu = 0.0 if raw else 10.0 ** rng.uniform(-6, -1)
        ray = _EvRay(inst, x, d)
        got = scalar_trial(ray, alpha, mu)
        z = x + alpha * d
        value, value_scale, _, _ = direct_ev(inst.problem, z, mu)
        assert abs(got - value) <= 1e-12 * value_scale
        assert abs(got - ev_objective(inst, z, mu)) <= 1e-12 * value_scale
        # one value formula: the ray's start is the objective, bit for bit
        assert scalar_trial(ray, 0.0, mu) == ev_objective(inst, x, mu)

    @settings(max_examples=300, deadline=None)
    @given(**instance_shapes, feasible=st.booleans(), raw=st.booleans(),
           shift=st.one_of(st.integers(-20, 40), st.integers(600, 700)),
           j=st.integers(0, 60), size=st.integers(1, 12),
           verdicts=st.lists(st.sampled_from(["reject", "bound", "accept"]),
                             min_size=12, max_size=12))
    def test_block_rows_are_the_scalar_ray(
        self, seed, n, m, k, feasible, raw, shift, j, size, verdicts
    ):
        # each row's test rejects every value, accepts its own bound and
        # below (so the row sums its tails, and is accepted only when they
        # are zero, as on a feasible instance), or accepts every value
        # but NaN; 2**shift up to 2**700 scales the direction until trials
        # overflow to inf or NaN
        rng = np.random.default_rng(seed)
        inst = expected_instance(random_finite_problem(rng, n, m, k, feasible))
        x = rng.uniform(-3, 3, size=n)
        d = 2.0**shift * rng.uniform(-1.0, 1.0, n)
        mu = 0.0 if raw else 10.0 ** rng.uniform(-6, -1)
        ray = _EvRay(inst, x, d)
        alphas = [0.5**i for i in range(j, j + size)]
        with np.errstate(over="ignore", invalid="ignore"):
            limits = {alpha: {"reject": -np.inf, "bound": half_head(ray, alpha, mu),
                              "accept": np.inf}[verdict]
                      for alpha, verdict in zip(alphas, verdicts)}
            checked_block(ray, alphas, mu, lambda alpha, f: f <= limits[alpha])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 64), m=st.integers(0, 2),
           extra=st.integers(0, 8), feasible=st.booleans(), raw=st.booleans(),
           shift=st.one_of(st.integers(-20, 40), st.integers(600, 700)))
    def test_floor_is_a_lower_bound(self, seed, n, m, extra, feasible, raw, shift):
        # lifts of more than 2048 entries, whose blocks still hold 12 rows,
        # sized by the n-entry head every row evaluates; the instances and
        # directions of test_block_rows_are_the_scalar_ray
        rng = np.random.default_rng(seed)
        inst = expected_instance(random_finite_problem(rng, n, m, 2048 // n + extra, feasible))
        x = rng.uniform(-3, 3, size=n)
        d = 2.0**shift * rng.uniform(-1.0, 1.0, n)
        mu = 0.0 if raw else 10.0 ** rng.uniform(-6, -1)
        ray = _EvRay(inst, x, d)
        assert ray.size == 12
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(0, 61, 3):
                alphas = [0.5**i for i in range(j, j + ray.size)]
                # a test that rejects every value gets every row's floor
                # back, all screened, and no scenario row is summed
                rows, accepted = checked_block(ray, alphas, mu, reject_all)
                assert len(rows) == ray.size and not accepted
                # one that accepts every value stops at the first row, its
                # value and raw value bitwise the scalar ray's
                rows, accepted = checked_block(ray, alphas, mu, accept_all)
                assert len(rows) == 1 and accepted

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64), m=st.integers(0, 2),
           k=st.integers(1, 31), feasible=st.booleans(), raw=st.booleans(),
           shift=st.one_of(st.integers(-20, 40), st.integers(600, 700)),
           j=st.integers(0, 60), passing=st.integers(0, 11))
    def test_multi_row_blocks_screen_when_every_bound_fails(
        self, seed, n, m, k, feasible, raw, shift, j, passing
    ):
        # lifts of at most 32 x 64 = 2048 entries, whose rays take blocks of
        # 12 rows; the instances and directions of test_floor_is_a_lower_bound
        rng = np.random.default_rng(seed)
        inst = expected_instance(random_finite_problem(rng, n, m, k, feasible))
        x = rng.uniform(-3, 3, size=n)
        d = 2.0**shift * rng.uniform(-1.0, 1.0, n)
        mu = 0.0 if raw else 10.0 ** rng.uniform(-6, -1)
        ray = _EvRay(inst, x, d)
        assert ray.size == 12
        alphas = [0.5**i for i in range(j, j + ray.size)]
        with np.errstate(over="ignore", invalid="ignore"):
            floors = np.array([half_head(ray, a, mu) for a in alphas])
            # a test that rejects every row's bound gets the bounds back,
            # every row of the block is screened and no tails are summed
            screened = ray.screened
            rows, accepted = checked_block(ray, alphas, mu, reject_all)
            assert np.array(rows).tobytes() == floors.tobytes() and not accepted
            assert ray.screened - screened == len(alphas)
            # one that passes a single row gets the bounds of the rows
            # before it, screened, and that row's value, bitwise the scalar
            # ray's, after which the block stops
            p = passing % len(alphas)
            screened = ray.screened
            rows, accepted = checked_block(ray, alphas, mu, lambda alpha, f: alpha == alphas[p])
            assert accepted and len(rows) == p + 1
            assert np.array(rows[:p]).tobytes() == floors[:p].tobytes()
            assert np.float64(rows[p]).tobytes() == np.float64(scalar_trial(ray, alphas[p], mu)).tobytes()
            assert ray.screened - screened == p

    @pytest.mark.parametrize("n, size", [
        (2, 12), (250, 12), (341, 12), (342, 11), (2048, 2), (4096, 1), (5000, 1),
    ])
    def test_block_size_rule(self, n, size):
        # a block's heads hold n entries a row, whatever the scenario count
        inst = expected_instance(builtin_example("ex4_4", n=n))
        assert _EvRay(inst, np.zeros(n), np.ones(n)).size == size
        if n == 250:  # the benchmark's 41 x 250 lift
            inst = expected_instance(random_finite_problem(np.random.default_rng(0), n, 1, 40))
            assert _EvRay(inst, np.zeros(n), np.ones(n)).size == size


class TestSlackElimination:
    def test_partial_minimum_over_slacks(self, ex2_1, ev2_1):
        # half the squared full residual is minimized over y >= 0 exactly at
        # the positive parts of the constraint rows
        rng = np.random.default_rng(11)
        k = ev2_1.count
        for _ in range(1000):
            x = rng.uniform(-3, 3, size=4)
            y = rng.uniform(0, 3, size=(2 * k, 4))
            h = ev_residual(ev2_1, x, y)
            value = 0.5 * float(h @ h)
            floor = ev_objective(ev2_1, x, 0.0)
            assert value >= floor - 1e-10

            y_best = []
            for w in ex2_1.distribution.omegas:
                A_i, b_i = eval_A(ex2_1, w), eval_b(ex2_1, w)
                y_best.append(np.maximum(0.0, A_i @ x + x - b_i))
                y_best.append(np.maximum(0.0, A_i @ x - x - b_i))
            h_best = ev_residual(ev2_1, x, np.array(y_best))
            assert 0.5 * float(h_best @ h_best) == pytest.approx(
                floor, rel=1e-12, abs=1e-12
            )


class TestEvSolve:
    def test_first_listed_start(self, ev2_1):
        report = ev_solve(ev2_1, np.array(EX2_1_STARTS[0]), SolverConfig())
        assert report.status is SolveStatus.CONVERGED
        assert np.max(np.abs(report.x_final - 1.0)) <= 1e-4
        assert report.f_final <= 1e-8

    def test_all_listed_starts(self, ev2_1):
        for x0 in EX2_1_STARTS:
            report = ev_solve(ev2_1, np.array(x0), SolverConfig())
            assert np.max(np.abs(report.x_final - 1.0)) <= 1e-4

    def test_near_stationary_start_returns_immediately(self):
        # complementarity holds strictly at x0, so for a loose tolerance the
        # initial gradient already passes the stopping test
        inst = expected_instance(StochasticProblem(2.0 * np.eye(2), [], [1.0, 1.0], []))
        x0 = np.ones(2)
        assert ev_objective(inst, x0, 0.0) == 0.0
        report = ev_solve(inst, x0, SolverConfig(epsilon=0.05))
        assert report.iterations == 0
        np.testing.assert_array_equal(report.x_final, x0)


def verify_problem(rng, n, m, banded, x, noise):
    """A random affine family, dense or built from three diagonals per
    slice; with noise None b is random, else b(w) is A(w) x - |x| with b_base
    off by up to noise in each entry, so x solves each equation up to it."""
    offsets = (-1, 0, 1)
    diagonals = [[rng.uniform(-2.0, 2.0, n - abs(off)) for off in offsets]
                 for _ in range(m + 1)]
    A = np.array([sum(np.diag(d, off) for off, d in zip(offsets, slice_diagonals))
                  for slice_diagonals in diagonals])
    if not banded:
        A = rng.uniform(-2.0, 2.0, (m + 1, n, n))
    if noise is None:
        b = rng.uniform(-2.0, 2.0, (m + 1, n))
    else:
        b = A @ x
        b[0] += rng.uniform(-noise, noise, n) - np.abs(x)
    if banded:
        return StochasticProblem.from_diagonals(offsets, diagonals, b[0], list(b[1:]))
    return StochasticProblem(A[0], list(A[1:]), b[0], list(b[1:]))


class TestVerification:
    def test_glcp_at_expected_solution(self, ev2_1):
        assert verify_glcp(A_bar(ev2_1), b_bar(ev2_1), np.ones(4), 1e-8)

    def test_glcp_all_zero_case(self):
        assert verify_glcp(np.eye(3), np.zeros(3), np.zeros(3), 1e-8)

    def test_glcp_at_pointwise_solution(self):
        problem = builtin_example("ex4_1")
        w = np.zeros(1)
        assert verify_glcp(eval_A(problem, w), eval_b(problem, w), [1.0, 3.0], 1e-8)

    def test_glcp_rejects_violations(self, ev2_1):
        assert not verify_glcp(A_bar(ev2_1), b_bar(ev2_1), np.zeros(4), 1e-8)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_path_matches_the_dense_oracles(self, data):
        # random dense problems, banded ones past the cost rule's n and m = 0
        # ones, at random points or near solutions; tol is drawn near one of
        # the tested quantities, or fixed
        banded = data.draw(st.booleans(), label="banded")
        m = data.draw(st.integers(0, 2), label="m")
        n = data.draw(st.integers(151 if m else 211, 400) if banded else st.integers(1, 8),
                      label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.uniform(-3.0, 3.0, n)
        noise = data.draw(st.sampled_from([None, 0.0, 1e-12, 1e-9, 1e-6, 1e-3]), label="noise")
        problem = verify_problem(rng, n, m, banded, x, noise)
        assert (problem._band is not None) == banded
        points = rng.uniform(-1.0, 2.0, (data.draw(st.integers(1, 3), label="k"), m))
        target = data.draw(st.sampled_from(["fixed", 0, 1, 2, 3]), label="target")
        factor = data.draw(st.floats(0.25, 4.0), label="factor")
        oracle = []
        for w in points:
            A, b = eval_A(problem, w), eval_b(problem, w)
            u, v = A @ x + x - b, A @ x - x - b
            scale = np.abs(A) @ np.abs(x) + np.abs(x) + np.abs(b)
            quantities = [float(np.linalg.norm(residual(problem, x, w))),
                          -float(u.min()), -float(v.min()), abs(float(u @ v))]
            # rounding floors: the rows path sums A(w) x - b(w) in another order
            floors = [1e-12 * float(np.linalg.norm(scale)), 1e-12 * float(scale.max()),
                      1e-12 * float(scale.max()), 1e-12 * float(scale @ scale)]
            oracle.append((A, b, quantities, floors))
        q = abs(oracle[0][2][target]) if target != "fixed" else 0.0
        tol = q * factor if q > 0.0 else 1e-8
        verdicts = _verdicts(problem, x, points, tol)
        assert len(verdicts) == len(points)
        for w, (A, b, quantities, floors), (norm, ok_save, ok_glcp) in zip(
                points, oracle, verdicts):
            assert abs(norm - quantities[0]) <= 1e-12 * quantities[0] + floors[0]
            near = [abs(tol - q) <= 1e-9 * abs(q) + f for q, f in zip(quantities, floors)]
            if not near[0]:
                assert ok_save == (quantities[0] <= tol) == verify_save(problem, x, w, tol)
            if not any(near[1:]):
                expected = all(q <= tol for q in quantities[1:])
                assert ok_glcp == verify_glcp(A, b, x, tol) == expected

    def test_save_accepts_exact_solution(self):
        problem = builtin_example("ex4_1")
        for w in np.linspace(0.0, 1.0, 11):
            assert verify_save(problem, [1.0, 3.0], [w], 1e-8)

    def test_save_rejects_nonsolution(self):
        problem = builtin_example("ex4_1")
        assert not verify_save(problem, [0.0, 0.0], [0.0], 1e-6)

    def test_save_rejects_residual_minimizer_without_solution(self):
        # the 10x10 instance has a positive residual floor, so even a good
        # candidate fails a tight residual check
        problem = builtin_example("ex4_3")
        x = np.full(10, 1.05)
        x[0], x[1] = 1.089, 1.073
        assert not verify_save(problem, x, [0.0], 1e-6)

    def test_tolerance_validated(self):
        problem = builtin_example("ex4_1")
        with pytest.raises(ValueError, match="tol"):
            verify_save(problem, [1.0, 3.0], [0.0], 0.0)
        with pytest.raises(ValueError, match="tol"):
            verify_glcp(np.eye(2), np.zeros(2), np.zeros(2), -1.0)

    @pytest.mark.parametrize("example_id,x_star", [
        ("ex4_1", [1.0, 3.0]),
        ("ex4_2", [1.0, 1.0, 1.0, 1.0]),
    ])
    def test_residual_and_complementarity_agree(self, example_id, x_star):
        from savesolve import halton_points

        problem = builtin_example(example_id)
        rng = np.random.default_rng(13)
        for w in halton_points(50, 1):
            A = eval_A(problem, w)
            b = eval_b(problem, w)
            # at an exact solution both predicates hold
            assert np.linalg.norm(residual(problem, x_star, w)) <= 1e-10
            assert verify_save(problem, x_star, w, 1e-8)
            assert verify_glcp(A, b, x_star, 1e-8)
            # at generic points they agree by both failing
            x = rng.uniform(-5, 5, size=problem.n)
            assert verify_save(problem, x, w, 1e-8) == verify_glcp(A, b, x, 1e-8)
