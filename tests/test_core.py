import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from savesolve.core import (
    _CHUNK_ROWS,
    _affine_rows,
    _apply,
    _apply_adjoint,
    _bandwidths,
    _dot,
    _erm_value,
    _max_band_width,
    _Ray,
)
from savesolve.ev import _EvRay, ev_gradient, ev_objective, expected_instance
from savesolve.problems import problem_from_dict

from helpers import scalar_trial, scenario_document


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


def random_stacks(rng, n, m):
    """A problem on random coefficients, plus a caller copy of A_base."""
    A_base = rng.uniform(-2.0, 2.0, (n, n))
    problem = StochasticProblem(
        A_base,
        list(rng.uniform(-2.0, 2.0, (m, n, n))),
        rng.uniform(-2.0, 2.0, n),
        list(rng.uniform(-2.0, 2.0, (m, n))),
    )
    return problem, A_base


class TestAffineStack:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), m=st.integers(0, 3))
    def test_coefficients_match_explicit_sum(self, seed, n, m):
        rng = np.random.default_rng(seed)
        problem, _ = random_stacks(rng, n, m)
        omega = rng.uniform(-1.0, 2.0, m)
        A, b = problem.A_base.copy(), problem.b_base.copy()
        A_scale, b_scale = np.abs(A), np.abs(b)
        for w, A_j, b_j in zip(omega, problem.A_terms, problem.b_terms):
            A += w * A_j
            b += w * b_j
            A_scale += abs(w) * np.abs(A_j)
            b_scale += abs(w) * np.abs(b_j)
        assert np.all(np.abs(eval_A(problem, omega) - A) <= 1e-14 * A_scale)
        assert np.all(np.abs(eval_b(problem, omega) - b) <= 1e-14 * b_scale)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), m=st.integers(0, 3))
    def test_adjoint_is_the_transpose_of_the_rows(self, seed, n, m):
        # rows(x, d x) - rows(0, 0) = [A_j x] - e_0 (d x)^T is linear in x,
        # and _apply_adjoint(S) - d S_0 is its transpose applied to S
        rng = np.random.default_rng(seed)
        problem, _ = random_stacks(rng, n, m)
        x, d = rng.uniform(-3.0, 3.0, n), rng.uniform(-1.0, 1.0, n)
        S = rng.uniform(-2.0, 2.0, (m + 1, n))
        rows = _affine_rows(problem, x, d * x) - _affine_rows(problem, np.zeros(n), 0.0)
        lhs = float(np.vdot(S, rows))
        rhs = float((_apply_adjoint(problem, S) - d * S[0]) @ x)
        terms = np.abs(problem._A) @ np.abs(x) + 2.0 * np.abs(problem._b)
        terms[0] += np.abs(d * x)
        assert abs(lhs - rhs) <= 1e-12 * float(np.vdot(np.abs(S), terms))

    @pytest.mark.parametrize("m", [0, 2])
    def test_public_fields_are_views_of_the_stacks(self, m):
        problem, _ = random_stacks(np.random.default_rng(m), 3, m)
        fields = [problem.A_base, *problem.A_terms]
        assert all(np.shares_memory(f, problem._A) for f in fields)
        fields = [problem.b_base, *problem.b_terms]
        assert all(np.shares_memory(f, problem._b) for f in fields)

    @pytest.mark.parametrize("m", [0, 2])
    def test_caller_array_is_not_aliased(self, m):
        problem, A_base = random_stacks(np.random.default_rng(m), 3, m)
        before = problem.A_base.copy()
        A_base[...] = 99.0
        np.testing.assert_array_equal(problem.A_base, before)

    @pytest.mark.parametrize("m", [0, 2])
    def test_stacks_are_read_only(self, m):
        # a write would reach the dense stack and miss its band copy
        problem, _ = random_stacks(np.random.default_rng(m), 3, m)
        fields = [problem.A_base, problem.b_base, *problem.A_terms, *problem.b_terms]
        for arr in [problem._A, problem._b, *fields]:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    @pytest.mark.parametrize("m", [0, 2])
    def test_results_do_not_write_through(self, m):
        problem, _ = random_stacks(np.random.default_rng(m), 3, m)
        A, b = problem._A.copy(), problem._b.copy()
        omega = np.full(m, 0.5)
        eval_A(problem, omega)[...] = 7.0
        eval_b(problem, omega)[...] = 7.0
        smoothed_jacobian(problem, np.ones(3), omega, 0.1)
        np.testing.assert_array_equal(problem._A, A)
        np.testing.assert_array_equal(problem._b, b)


def banded_stacks(rng, n, m, lower, upper, zero_term):
    """A problem whose slices have every diagonal from -lower to upper
    nonzero and no other; with zero_term the last A_term is all zero, as
    analytic.as_save_problem builds them."""
    A = np.zeros((m + 1, n, n))
    for off in range(-lower, upper + 1):
        size = n - abs(off)
        i = np.arange(max(0, -off), max(0, -off) + size)
        signs = rng.choice([-1.0, 1.0], (m + 1, size))
        A[:, i, i + off] = signs * rng.uniform(0.5, 2.0, (m + 1, size))
    if zero_term and m:
        A[m] = 0.0
    return StochasticProblem(A[0], list(A[1:]), rng.uniform(-2.0, 2.0, n),
                             list(rng.uniform(-2.0, 2.0, (m, n))))


class TestBandStorage:
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_diagonal_stack_gives_the_dense_bits(self, m):
        # one nonzero per row and column: every other term is an exact zero
        rng = np.random.default_rng(m)
        n = 300
        problem = banded_stacks(rng, n, m, 0, 0, zero_term=False)
        assert problem._band.rows.shape[1] == 1
        for _ in range(20):
            x, S = rng.standard_normal(n), rng.standard_normal((m + 1, n))
            np.testing.assert_array_equal(_apply(problem, x), problem._A @ x)
            np.testing.assert_array_equal(
                _apply_adjoint(problem, S), S.ravel() @ problem._A.reshape(-1, n)
            )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(250, 320),
        m=st.integers(0, 3),
        lower=st.integers(0, 5),
        upper=st.integers(0, 5),
        zero=st.sampled_from(["none", "term", "stack"]),
    )
    @example(seed=0, n=250, m=0, lower=0, upper=0, zero="stack")
    @example(seed=1, n=300, m=3, lower=1, upper=4, zero="term")
    def test_band_rows_and_adjoint_match_the_dense_stack(self, seed, n, m, lower, upper, zero):
        rng = np.random.default_rng(seed)
        problem = banded_stacks(rng, n, m, lower, upper, zero_term=zero == "term")
        if zero == "stack":
            problem = StochasticProblem(np.zeros((n, n)), [np.zeros((n, n))] * m,
                                        problem.b_base, problem.b_terms)
            lower = upper = 0
        assert problem._band.rows.shape[1] == lower + upper + 1
        x, psi = rng.uniform(-3.0, 3.0, n), rng.uniform(0.0, 3.0, n)
        S = rng.uniform(-2.0, 2.0, (m + 1, n))
        local = rng.uniform(-1.0, 1.0, n)
        A = problem._A
        rows = A @ x
        rows[0] -= psi
        rows -= problem._b
        rows_scale = np.abs(A) @ np.abs(x)
        adjoint = S.ravel() @ A.reshape(-1, n) - local
        adjoint_scale = np.abs(S).ravel() @ np.abs(A).reshape(-1, n)
        assert np.all(np.abs(_affine_rows(problem, x, psi) - rows) <= 1e-14 * rows_scale)
        assert np.all(
            np.abs((_apply_adjoint(problem, S) - local) - adjoint) <= 1e-14 * adjoint_scale
        )

    def test_classification(self):
        banded = [
            builtin_example("ex4_4", n=300),
            problem_from_dict(scenario_document(np.random.default_rng(0), 250, 4)),
        ]
        rng = np.random.default_rng(1)
        dense = [
            StochasticProblem(rng.uniform(-1.0, 1.0, (300, 300)), [np.eye(300)],
                              np.zeros(300), [np.ones(300)]),
            *(builtin_example(e) for e in ("ex2_1", "ex4_1", "ex4_2", "ex4_3")),
            *(builtin_example("ex4_4", n=n) for n in range(2, 11)),
        ]
        assert all(p._band is not None for p in banded)
        assert all(p._band is None for p in dense)
        assert banded[0]._band.rows.shape == (2, 3, 300)
        # the scan reads every row: here the widest diagonal shows only in the last
        A = builtin_example("ex4_4", n=300).A_base.copy()
        A[-1, -5] = 1.0
        assert StochasticProblem(A, [], np.zeros(300), [])._band.rows.shape == (1, 6, 300)

    def test_scan_reads_the_last_row_of_the_last_term(self):
        base = builtin_example("ex4_4", n=300).A_base
        last = np.eye(300)
        last[-1, -5] = -1.0
        problem = StochasticProblem(base, [np.eye(300), last], np.zeros(300),
                                    [np.ones(300)] * 2)
        assert problem._band.rows.shape == (3, 6, 300)
        assert problem._A.tobytes() == np.stack([base, np.eye(300), last]).tobytes()

    def test_dense_input_that_ends_the_scan_at_once_is_stacked_as_given(self):
        # the first row is full, so the first chunk already spans the matrix
        rng = np.random.default_rng(5)
        A_base, A_term = rng.uniform(-1.0, 1.0, (2, 300, 300))
        A_term[0, -1] = -0.0
        assert _bandwidths([A_base, A_term]) is None
        problem = StochasticProblem(A_base, [A_term], np.zeros(300), [np.ones(300)])
        assert problem._band is None
        assert problem._dense.tobytes() == np.stack([A_base, A_term]).tobytes()
        assert not np.shares_memory(problem._dense, A_base)

    def test_in_band_negative_zero_of_a_term_keeps_its_sign(self):
        rng = np.random.default_rng(6)
        problem = banded_stacks(rng, 300, 2, 1, 2, zero_term=False)
        terms = [t.copy() for t in problem.A_terms]
        terms[1][10, 12] = terms[0][7, 6] = -0.0
        rebuilt = StochasticProblem(problem.A_base, terms, problem.b_base, problem.b_terms)
        assert rebuilt._band is not None
        assert np.signbit(rebuilt.A_terms[1][10, 12]) and np.signbit(rebuilt.A_terms[0][7, 6])
        assert rebuilt._A.tobytes() == np.stack([problem.A_base, *terms]).tobytes()


def random_diagonals(rng, n, m):
    """Distinct offsets in [-4, 4] and one diagonal per slice and offset,
    as from_diagonals takes them; an offset is zero in every slice with
    probability 1/3, which narrows the band when it is an outer one."""
    offsets = [int(o) for o in rng.choice(np.arange(-4, 5), int(rng.integers(0, 6)), replace=False)]
    kept = rng.random(len(offsets)) > 1 / 3
    diagonals = [
        [rng.uniform(-2.0, 2.0, n - abs(o)) if keep else np.zeros(n - abs(o))
         for o, keep in zip(offsets, kept)]
        for _ in range(m + 1)
    ]
    return offsets, diagonals


def dense_of(n, offsets, slice_diagonals):
    A = np.zeros((n, n))
    for off, diag in zip(offsets, slice_diagonals):
        A += np.diag(diag, off)
    return A


def trial_values(problem, samples, inst, x, d, mu):
    """The values a solve reads off both routes at x along d: objectives,
    gradients, and a block of ray trials of each route."""
    F = samples._factor
    alphas = [1.0, 0.5, 0.25]
    accepts = lambda alpha, f: False
    erm_ray = _Ray(problem, F, functools.partial(_erm_value, F[:, :1]), x, d)
    ev_ray = _EvRay(inst, x, d)
    return [
        smoothed_objective(problem, samples, x, mu),
        smoothed_gradient(problem, samples, x, mu),
        ev_objective(inst, x, mu),
        ev_gradient(inst, x, mu),
        erm_ray.block(alphas, mu, accepts),
        erm_ray.raw(1),
        ev_ray.block(alphas, mu, accepts),
        ev_ray.block([0.5], mu, accepts),
    ]


class TestDiagonalInput:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 300), m=st.integers(0, 3))
    @example(seed=0, n=150, m=1)
    @example(seed=0, n=151, m=1)
    @example(seed=3, n=300, m=0)
    def test_same_bits_as_dense_input(self, seed, n, m):
        # on both sides of the cost rule: from n = 151 at m = 1 with three
        # diagonals, from about n = 250 for four slices of nine
        rng = np.random.default_rng(seed)
        offsets, diagonals = random_diagonals(rng, n, m)
        b = rng.uniform(-2.0, 2.0, (m + 1, n))
        k = 3
        probs = rng.uniform(0.5, 1.5, k)
        dist = FiniteScenarios(rng.uniform(0.0, 1.0, (k, m)), probs / probs.sum())
        native = StochasticProblem.from_diagonals(offsets, diagonals, b[0], list(b[1:]), dist)
        dense = StochasticProblem(dense_of(n, offsets, diagonals[0]),
                                  [dense_of(n, offsets, d) for d in diagonals[1:]],
                                  b[0], list(b[1:]), dist)
        assert (native.n, native.m) == (dense.n, dense.m) == (n, m)
        assert native._b.tobytes() == dense._b.tobytes()
        if dense._band is None:
            assert native._band is None
        else:
            assert native._dense is None
            for name in ("rows", "cols", "row_index", "col_index"):
                assert getattr(native._band, name).tobytes() == getattr(dense._band, name).tobytes()
        assert native._A.tobytes() == dense._A.tobytes()
        # both may be built from equal bands: pin them to the inputs too
        reference = np.stack([dense_of(n, offsets, d) for d in diagonals])
        assert dense._A.tobytes() == reference.tobytes()
        assert native._A.tobytes() == reference.tobytes()
        assert native.A_base.tobytes() == dense.A_base.tobytes()
        assert [t.tobytes() for t in native.A_terms] == [t.tobytes() for t in dense.A_terms]
        samples = SampleSet(rng.uniform(0.0, 1.0, (7, m)), rng.uniform(0.5, 1.5, 7))
        x, d = rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0, n)
        mu = 10.0 ** rng.uniform(-6, -1)
        got, want = (trial_values(p, samples, expected_instance(p), x, d, mu)
                     for p in (native, dense))
        assert [np.array(g).tobytes() for g in got] == [np.array(w).tobytes() for w in want]

    def test_band_is_the_only_coefficient_storage(self):
        problem = builtin_example("ex4_4", n=300)
        assert problem._dense is None and problem._band is not None
        A, again = problem.A_base, problem.A_base
        # built on each read, never cached, and read-only
        assert not np.shares_memory(A, again)
        with pytest.raises(ValueError, match="read-only"):
            A[0, 0] = 1.0
        np.testing.assert_array_equal(problem.A_terms[0], np.eye(300))
        assert (A[0, :2] == [2.0, 1.0]).all() and (A[-1, -2:] == [1.0, 2.0]).all()

    def test_below_the_cost_rule_the_dense_stack_is_stored(self):
        problem = builtin_example("ex4_4", n=150)
        assert problem._band is None
        assert problem.A_base.base is problem._dense

    def test_building_ex4_4_takes_linear_memory(self):
        # the dense stack at n = 10**5 would take 160 GB
        n = 10**5
        tracemalloc.start()
        try:
            problem = builtin_example("ex4_4", n=n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert problem._band.rows.shape == (2, 3, n)
        assert peak < 400 * n

    @pytest.mark.parametrize("args, match", [
        (([0, 0], [[np.ones(3), np.ones(3)]], np.ones(3), []), "distinct"),
        (([3], [[np.ones(0)]], np.ones(3), []), "below 3"),
        (([-3], [[np.ones(0)]], np.ones(3), []), "at least -2"),
        (([1.0], [[np.ones(2)]], np.ones(3), []), "integer"),
        (([1], [[np.ones(3)]], np.ones(3), []), r"diagonals\[0\]\[0\] has length 3, expected 2"),
        (([0], [[[1.0, np.inf, 1.0]]], np.ones(3), []), r"diagonals\[0\]\[0\] must be finite"),
        (([0, 1], [[np.ones(3)]], np.ones(3), []), "1 diagonals for 2 offsets"),
        (([0], [[np.ones(3)], [np.ones(3)]], np.ones(3), []), "1 A_terms but 0 b_terms"),
        (([0], [], np.ones(3), []), "at least the base slice"),
        (([], [[]], np.ones(0), []), "at least one entry"),
        (([0], [[np.ones(3)]], [1.0, np.nan, 1.0], []), "b_base must be finite"),
    ])
    def test_validation(self, args, match):
        with pytest.raises(ValueError, match=match):
            StochasticProblem.from_diagonals(*args)


def band_span(A):
    """lower + upper + 1 over the nonzeros of the stack A, offset 0 included."""
    _, i, j = np.nonzero(A)
    return max([0, *(i - j)]) + max([0, *(j - i)]) + 1


def check_one_store(problem):
    """Exactly one of the band and the dense stack is stored; the dense
    views are the stored stack, or built read-only on each read."""
    assert (problem._band is None) != (problem._dense is None)
    A = problem._A
    assert not A.flags.writeable
    if problem._band is None:
        assert A is problem._dense
    else:
        assert not np.shares_memory(A, problem._A)
        assert not np.shares_memory(problem.A_base, problem.A_base)
    return A


class TestOneStore:
    """Whichever constructor built it, a problem keeps the band where the
    cost rule picks it, else the dense stack, never both."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 320), m=st.integers(0, 3),
           lower=st.integers(0, 4), upper=st.integers(0, 4), zero_term=st.booleans())
    @example(seed=0, n=150, m=1, lower=1, upper=1, zero_term=False)
    @example(seed=0, n=151, m=1, lower=1, upper=1, zero_term=False)
    def test_random_inputs(self, seed, n, m, lower, upper, zero_term):
        rng = np.random.default_rng(seed)
        offsets, diagonals = random_diagonals(rng, n, m)
        b = rng.uniform(-2.0, 2.0, (m + 1, n))
        problems = [
            banded_stacks(rng, n, m, lower, upper, zero_term),
            StochasticProblem.from_diagonals(offsets, diagonals, b[0], list(b[1:])),
            StochasticProblem(dense_of(n, offsets, diagonals[0]),
                              [dense_of(n, offsets, d) for d in diagonals[1:]],
                              b[0], list(b[1:])),
        ]
        for problem in problems:
            A = check_one_store(problem)
            picked = band_span(A) < _max_band_width(m + 1, n)
            assert (problem._band is not None) == picked

    @pytest.mark.parametrize("n, banded", [
        *((n, False) for n in range(2, 11)), (150, False), (151, True), (300, True),
    ])
    def test_ex4_4(self, n, banded):
        problem = builtin_example("ex4_4", n=n)
        check_one_store(problem)
        assert (problem._band is not None) == banded

    @pytest.mark.parametrize("example_id", ["ex2_1", "ex4_1", "ex4_2", "ex4_3"])
    def test_builtins_are_dense(self, example_id):
        problem = builtin_example(example_id)
        check_one_store(problem)
        assert problem._band is None

    def test_dense_input_keeps_only_its_band(self):
        # the stacked input is dropped once its band is picked: a dense
        # tridiagonal n = 1000 problem keeps O(n), not its 16 MB stack
        problem = problem_from_dict(scenario_document(np.random.default_rng(2), 1000, 3))
        tracemalloc.start()
        try:
            rebuilt = StochasticProblem(problem.A_base, problem.A_terms, problem.b_base,
                                        problem.b_terms, problem.distribution)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert rebuilt._dense is None
        assert kept < 1_000_000

    def test_dense_input_is_not_stacked_before_the_rule(self):
        # the slices are scanned in place: building from 16 MB of dense
        # tridiagonal input peaks at the n x n finiteness mask, not at a
        # second 16 MB stack
        problem = problem_from_dict(scenario_document(np.random.default_rng(3), 1000, 3))
        A_base, A_terms = problem.A_base, problem.A_terms
        tracemalloc.start()
        try:
            rebuilt = StochasticProblem(A_base, A_terms, problem.b_base,
                                        problem.b_terms, problem.distribution)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rebuilt._dense is None
        assert peak < 4_000_000

    def test_off_band_negative_zero_reads_back_as_zero(self):
        # the band holds the nonzero diagonals only, so an off-band -0.0 of
        # dense input is not kept; inside the band its bits are
        A = builtin_example("ex4_4", n=300).A_base.copy()
        A[0, 5] = A[1, 1] = -0.0
        problem = StochasticProblem(A, [], np.zeros(300), [])
        assert problem._band is not None
        assert np.signbit(problem.A_base[1, 1]) and not np.signbit(problem.A_base[0, 5])


class TestProblemValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"A_terms\[0\]"):
            StochasticProblem(np.eye(2), [np.eye(3)], np.zeros(2), [np.zeros(2)])
        with pytest.raises(ValueError, match="b_base"):
            StochasticProblem(np.eye(2), [], np.zeros(3), [])
        with pytest.raises(ValueError, match="A_base must be square"):
            StochasticProblem(np.ones((2, 3)), [], np.zeros(2), [])

    def test_empty_problem_rejected(self):
        with pytest.raises(ValueError, match="A_base must be at least 1 x 1"):
            StochasticProblem(np.zeros((0, 0)), [], np.zeros(0), [])

    def test_distribution_validated(self):
        args = (np.eye(2), [np.eye(2)], np.zeros(2), [np.ones(2)])
        with pytest.raises(ValueError, match="dimension 2, expected 1"):
            StochasticProblem(*args, FiniteScenarios([[0.0, 1.0]], [1.0]))
        with pytest.raises(ValueError, match="UniformBox or FiniteScenarios"):
            StochasticProblem(*args, "uniform_box")

    def test_one_dimensional_scenarios_are_points_on_the_line(self):
        dist = FiniteScenarios([0.0, 2.0], [0.5, 0.5])
        assert dist.omegas.shape == (2, 1)
        np.testing.assert_array_equal(dist.omegas, [[0.0], [2.0]])

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

    def test_one_weight_too_few_rejected(self):
        with pytest.raises(ValueError, match="3 points but 2 sample weights"):
            SampleSet([[0.0], [1.0], [2.0]], [1.0, 1.0])
        with pytest.raises(ValueError, match="3 points but 2 scenario probabilities"):
            FiniteScenarios([[0.0], [1.0], [2.0]], [0.5, 0.5])

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


# a line-search ray: the trial step rho^j, the direction's magnitude, and
# whether the trial is the unsmoothed (mu = 0) value
ray_steps = dict(
    j=st.integers(0, 60),
    d_exp=st.floats(-6.0, 3.0),
    raw=st.booleans(),
)


class TestErmRay:
    """The line search's ray against the objective at x + alpha d and
    against explicit per-sample summation, m = 0 included."""

    @settings(max_examples=300, deadline=None)
    @given(**sampled_shapes, **ray_steps)
    @example(seed=1, n=3, m=0, N=2, near=False, j=60, d_exp=3.0, raw=True)
    def test_matches_objective_and_direct_summation(
        self, seed, n, m, N, near, j, d_exp, raw
    ):
        rng = np.random.default_rng(seed)
        problem, samples, x = random_sampled_problem(rng, n, m, N, near)
        d = 10.0**d_exp * rng.uniform(-1.0, 1.0, n)
        alpha = 0.5**j
        mu = 0.0 if raw else 10.0 ** rng.uniform(-6, -1)
        F = samples._factor
        ray = _Ray(problem, F, functools.partial(_erm_value, F[:, :1]), x, d)
        got = scalar_trial(ray, alpha, mu)
        z = x + alpha * d
        value, value_scale, _, _ = direct_erm(problem, samples, z, mu)
        assert abs(got - value) <= 1e-12 * value_scale
        assert abs(got - smoothed_objective(problem, samples, z, mu)) <= 1e-12 * value_scale
        # one value formula: the ray's start is the objective, bit for bit
        assert scalar_trial(ray, 0.0, mu) == smoothed_objective(problem, samples, x, mu)

    @settings(max_examples=200, deadline=None)
    @given(**sampled_shapes, **ray_steps, size=st.integers(1, 12))
    @example(seed=1, n=3, m=1, N=4, near=False, j=0, d_exp=0.0, raw=False, size=1)
    def test_block_rows_are_the_scalar_ray(self, seed, n, m, N, near, j, d_exp, raw, size):
        rng = np.random.default_rng(seed)
        problem, samples, x = random_sampled_problem(rng, n, m, N, near)
        d = 10.0**d_exp * rng.uniform(-1.0, 1.0, n)
        mu = 0.0 if raw else 10.0 ** rng.uniform(-6, -1)
        F = samples._factor
        ray = _Ray(problem, F, functools.partial(_erm_value, F[:, :1]), x, d)
        alphas = [0.5**i for i in range(j, j + size)]
        values = ray.block(alphas, mu, lambda alpha, f: True)
        assert np.array(values).tobytes() == np.array([scalar_trial(ray, a, mu) for a in alphas]).tobytes()
        for i, alpha in enumerate(alphas):
            assert ray.raw(i) == scalar_trial(ray, alpha, 0.0)

    def test_block_size_rule(self):
        # at most 12 trials and 4096 lifted entries in a block; a lift of
        # more than 2048 entries (2 x 1025 here) is evaluated one trial at a time
        for n, size in [(2, 12), (300, 6), (1024, 2), (1025, 1)]:
            problem = builtin_example("ex4_4", n) if n > 2 else builtin_example("ex4_1")
            samples = generate(SamplerSpec("halton", count=10, dim=1), problem)
            F = samples._factor
            x = np.ones(problem.n)
            ray = _Ray(problem, F, functools.partial(_erm_value, F[:, :1]), x, x)
            assert ray.size == size


def chunked_vdot(u, v, chunk=10_000):
    """np.vdot of u and v for up to chunk entries, else the left-to-right
    sum of the np.vdot of their consecutive chunk-entry pieces."""
    total = np.vdot(u[:chunk], v[:chunk])
    for s in range(chunk, u.size, chunk):
        total = total + np.vdot(u[s:s + chunk], v[s:s + chunk])
    return total


class TestBlockSums:
    """The value formulas' per-row inner products, _dot, against np.vdot on
    the installed numpy: one vdot for a row of up to 10000 entries, the
    left-to-right sum of the vdots of its 10000-entry chunks past that, so
    that no row is ever handed to BLAS in a piece its threads would split.
    Every value, a block of one included, is such a sum."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), J=st.integers(1, 12),
           shape=st.one_of(st.tuples(st.integers(0, 3000)),
                           st.tuples(st.integers(1, 50), st.integers(0, 300))))
    # the tails of ev_scenarios' 41 x 250 lift, ex4_4's erm lift at n = 5000
    # (one whole chunk), and at n = 100000 (twenty chunks), each in a block
    # of one and in a full block
    @example(seed=1, J=1, shape=(40, 250))
    @example(seed=2, J=12, shape=(40, 250))
    @example(seed=5, J=1, shape=(2, 5000))
    @example(seed=6, J=12, shape=(2, 5000))
    @example(seed=3, J=1, shape=(2, 100_000))
    @example(seed=4, J=12, shape=(2, 100_000))
    def test_rows_are_vdot_bitwise(self, seed, J, shape):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, 3, (J,) + (1,) * len(shape))
        V = rng.standard_normal((J, *shape)) * scale
        W = rng.standard_normal((J, *shape)) * scale
        for U in (V, W):
            got = _dot(V, U)
            want = np.array([chunked_vdot(v.ravel(), u.ravel()) for v, u in zip(V, U)])
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10_000))
    @example(seed=7, n=10_000)
    def test_gradient_product_is_numpy_slope_and_norm_bitwise(self, seed, n):
        # minimize_smoothed's one inner product per gradient, gg = g^T g: its
        # slope -gg was g @ -g and its sqrt np.linalg.norm(g), so at up to
        # 10000 entries every iterate is the one those two dots gave
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        gg = float(_dot(g[None], g[None])[0])
        assert (-gg).hex() == float(g @ -g).hex()
        assert math.sqrt(gg).hex() == float(np.linalg.norm(g)).hex()


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

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.one_of(st.integers(1, 64), st.sampled_from([_CHUNK_ROWS - 1, _CHUNK_ROWS]),
                    st.integers(1, _CHUNK_ROWS)),
        m=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        scenario_like=st.booleans(),
    )
    def test_one_chunk_is_one_gemm_bitwise(self, N, m, seed, scenario_like):
        rng = np.random.default_rng(seed)
        if scenario_like:
            # scenario points: negative, zero and signed-zero coordinates,
            # weights count * p_i
            points = rng.choice([-2.0, -0.5, -0.0, 0.0, 1.0, 3.0], (N, m))
            p = rng.uniform(0.1, 1.0, N)
            weights = N * (p / p.sum())
        else:
            points, weights = rng.random((N, m)), np.ones(N)
        U = np.concatenate([np.ones((N, 1)), points], axis=1)
        expected = (U.T * weights) @ U / N
        assert SampleSet(points, weights)._moments.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("N", [_CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 5, 3 * _CHUNK_ROWS])
    def test_chunked_moments_match_exact_sums(self, N):
        # Halton-like points in [0, 1) and positive weights: no cancellation,
        # so each entry is within a few roundings of its exact sum
        rng = np.random.default_rng(N)
        points, weights = rng.random((N, 3)), rng.uniform(0.5, 1.5, N)
        U = np.concatenate([np.ones((N, 1)), points], axis=1)
        moments = SampleSet(points, weights)._moments
        for i in range(4):
            for j in range(4):
                exact = math.fsum(weights * U[:, i] * U[:, j]) / N
                assert abs(moments[i, j] - exact) <= 1e-14 * exact
