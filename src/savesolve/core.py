"""Stochastic absolute value equation instances and their residual calculus.

An instance is the equation family A(w) x - |x| = b(w), with both coefficient
families affine in the random vector w:

    A(w) = A_base + sum_j w_j * A_terms[j]
    b(w) = b_base + sum_j w_j * b_terms[j]

w is either uniform on [0,1]^m (unit density) or supported on finitely many
weighted scenarios.  The module evaluates the weighted sample-average
squared-residual objective and the smoothed objective obtained by replacing
|x| with smooth_abs(x, mu) = sqrt(x^2 + mu), together with its exact
gradient.  smooth_abs is the one home of that rule for both routes, and
_check_kink the one test for its kink.

A problem holds the family as two read-only stacks over u = [1; w]: A(w) is
sum_j u_j _A[j] and b(w) is sum_j u_j _b[j], with row 0 the base.  Every
affine quantity is one contraction with u.  The residual at w is u^T R, where
R = _A x - _b with psi taken off row 0 holds the (m + 1) x n affine rows at x,
so the sample average is evaluated as tr(R^T M R) through the weighted
moments M of u, fixed once per sample set.  The products with the stack,
_apply (the rows A_j x) and _apply_adjoint (sum_j A_j^T s_j), run over a
_Band, the union of the slices' nonzero diagonals, when a fixed cost rule
says that is cheaper than the dense stack, as on the tridiagonal ex4_4 with
n >= 151; a diagonal stack is a band of width one.  So objective and
gradient calls cost O(m w n + m^2 n) for band width w, O(m n^2 + m^2 n)
dense, whatever the sample count.

Whichever constructor built it, a problem stores A once, as the band where
the rule picks it, else as the dense stack; dense input is scanned in place
for its nonzero diagonals and stacked only where the rule keeps it dense.
A banded problem builds the dense _A, A_base and A_terms read-only on each
read, uncached: nothing in the package reads them but problem_to_dict.

Each route values a lift W L(x) of the rows L(x) = _A x - _b: erm lifts with
the moment factor F (F^T F = M) and ev with its points U = [1, points].  L is
linear in x, so one line-search ray, _Ray, serves both routes: it forms
W L(x) and W (_A d) once, and each trial at x + alpha d is their combination
passed to the route's one value formula, with no n x n product.  Every
value formula takes a leading axis of trials and sums each row's squares
with _dot, so a row is bitwise the trial alone, and a lone value, the
objective at x or a step's mu = 0 value read off its stored block row, is a
block of one.  _dot owns the order of every inner product, the solver's
too: one BLAS dot per row of up to 10000 entries, past which OpenBLAS was
measured to split a dot over its threads, else a fixed sum of its chunks.
The ray evaluates a block of several steps alpha in one set of numpy
calls, as many as _block_size allows, under the block protocol that
solver.SmoothedModel states; ev's ray screens rows on a lower bound, as
ev._EvRay states.

All operations are pure functions of their inputs; problem and sample objects
are treated as read-only after construction, so they are safe to share across
concurrent solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonsmoothPointError",
    "UniformBox",
    "FiniteScenarios",
    "StochasticProblem",
    "SampleSet",
    "smooth_abs",
    "erm_objective",
    "smoothed_objective",
    "smoothed_gradient",
]

# absolute tolerance for scenario probabilities summing to one
PROBABILITY_TOL = 1e-12
# sample sets are built this many rows at a time: at N = 131072, m = 3 generate's
# peak fell from 12.1 to 5.1 MiB against full-length temporaries, no slower
_CHUNK_ROWS = 16384


class NonsmoothPointError(ValueError):
    """Derivative of |.| requested at a kink (mu = 0 with a zero argument)."""


def _finite_array(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.size and not np.isfinite([arr.min(), arr.max()]).all():  # no full-size mask
        raise ValueError(f"{name} must be finite")
    return arr


def _points_array(points, what: str) -> np.ndarray:
    """A finite (count, dim) array with at least one row; a 1-D input of
    count scalars is read as count points in R^1."""
    arr = _finite_array(points, what)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(
            f"{what} must form a (count, dim) array with at least one row, "
            f"got shape {arr.shape}"
        )
    return arr


def _positive_weights(w, count: int, what: str) -> np.ndarray:
    """One finite, strictly positive weight for each of count points."""
    w = np.asarray(w, dtype=float).ravel()
    if w.size != count:
        raise ValueError(f"{count} points but {w.size} {what}")
    if not (w.min() > 0 and np.isfinite(w.max())):  # NaN fails both
        raise ValueError(f"{what} must be finite and strictly positive")
    return w


def _check_dim(points: np.ndarray, m: int, what: str) -> None:
    """Refuse a (count, dim) points array whose dim is not m."""
    if points.shape[1] != m:
        raise ValueError(f"{what} have dimension {points.shape[1]}, expected {m}")


def _check_int(value, name: str, minimum: int) -> None:
    """Reject anything but an int or numpy integer >= minimum; a bool or a
    float with an integral value is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")


@dataclass(frozen=True)
class UniformBox:
    """w uniform on [0,1]^m with density identically one."""


@dataclass(eq=False)
class FiniteScenarios:
    """Discrete distribution: point omegas[i] occurs with probability probs[i].

    omegas is (k, m); a 1-D input of k scalars is treated as k points in R^1.
    Points and probabilities must be finite; probabilities must be strictly
    positive and sum to one.
    """

    omegas: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        self.omegas = _points_array(self.omegas, "scenario points")
        self.probs = _positive_weights(
            self.probs, self.omegas.shape[0], "scenario probabilities"
        )
        total = self.probs.sum()
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"scenario probabilities sum to {total!r}, not 1")

    @property
    def count(self) -> int:
        return self.probs.size


class StochasticProblem:
    """Affine-in-w coefficient family plus the distribution of w.

    A_terms and b_terms must each have m entries; m = 0 gives a deterministic
    equation.  Shapes and finiteness are validated on construction.
    from_diagonals builds the family from its slices' diagonals instead.

    The coefficients are stored once, read-only, never in the caller's
    arrays: b as the stack _b, A by the one rule of _store_A, which stacks
    dense input only where it stays dense.  A_base and A_terms are views of
    the dense stack, which a banded problem builds on each read, O(m n^2),
    uncached, so it stays read-only after construction.
    """

    def __init__(self, A_base, A_terms, b_base, b_terms, distribution=UniformBox()):
        A_base = _finite_array(A_base, "A_base")
        if A_base.ndim != 2 or A_base.shape[0] != A_base.shape[1]:
            raise ValueError(f"A_base must be square, got shape {A_base.shape}")
        if A_base.shape[0] < 1:
            raise ValueError(f"A_base must be at least 1 x 1, got shape {A_base.shape}")
        n = A_base.shape[0]
        b_base = _check_vector(_finite_array(b_base, "b_base"), n, "b_base")
        A_terms = [_finite_array(t, f"A_terms[{j}]") for j, t in enumerate(A_terms)]
        for j, term in enumerate(A_terms):
            if term.shape != (n, n):
                raise ValueError(
                    f"A_terms[{j}] has shape {term.shape}, expected ({n}, {n})"
                )
        self._store_rhs(b_base, b_terms, len(A_terms), distribution)
        slices = [A_base, *A_terms]
        self._store_A(len(slices), n, _bandwidths(slices), lambda: np.stack(slices))

    @classmethod
    def from_diagonals(cls, offsets, diagonals, b_base, b_terms,
                       distribution=UniformBox()) -> StochasticProblem:
        """The problem whose slice j (A_base, then the A_terms) is zero but
        for its diagonals diagonals[j][t], the entries (i, i + offsets[t]),
        each of length n - |offsets[t]|, with n the length of b_base.

        Offsets are distinct integers in (-n, n).  When the cost rule picks
        the band, no n x n array is formed; otherwise the dense stack is,
        bitwise the one the same matrices give the dense constructor.
        """
        b_base = _finite_array(b_base, "b_base").ravel()
        n = b_base.size
        if n < 1:
            raise ValueError("b_base must have at least one entry")
        offsets = list(offsets)
        for off in offsets:
            _check_int(off, "a diagonal offset", 1 - n)
            if off >= n:
                raise ValueError(f"a diagonal offset must be below {n}, got {off!r}")
        offsets = [int(off) for off in offsets]
        if len(set(offsets)) != len(offsets):
            raise ValueError(f"diagonal offsets must be distinct, got {offsets}")
        if len(diagonals) < 1:
            raise ValueError("diagonals must hold at least the base slice")
        for j, slice_diagonals in enumerate(diagonals):
            if len(slice_diagonals) != len(offsets):
                raise ValueError(
                    f"diagonals[{j}] has {len(slice_diagonals)} diagonals "
                    f"for {len(offsets)} offsets"
                )
        diags = {
            off: np.stack([
                _check_vector(_finite_array(d[t], f"diagonals[{j}][{t}]"),
                              n - abs(off), f"diagonals[{j}][{t}]")
                for j, d in enumerate(diagonals)
            ])
            for t, off in enumerate(offsets)
        }
        problem = cls.__new__(cls)
        problem._store_rhs(b_base, b_terms, len(diagonals) - 1, distribution)
        count = len(diagonals)
        problem._store_A(count, n, diags, lambda: _stack_of(count, n, diags))
        return problem

    def _store_A(self, count, n, diagonals, dense):
        """The one storage rule for A: the band of the diagonals {offset:
        (count, n - |offset|) array} where the cost rule picks it, else the
        read-only stack that dense() builds; diagonals None means no band."""
        self._band = None if diagonals is None else _Band.of_diagonals(count, n, diagonals)
        self._dense = dense() if self._band is None else None
        if self._dense is not None:
            self._dense.flags.writeable = False  # problems are shared across solves

    def _store_rhs(self, b_base, b_terms, m, distribution):
        """Validate b_terms and the distribution against m terms of A, then
        store the b stack and the distribution."""
        n = b_base.size
        b_terms = [
            _check_vector(_finite_array(t, f"b_terms[{j}]"), n, f"b_terms[{j}]")
            for j, t in enumerate(b_terms)
        ]
        if m != len(b_terms):
            raise ValueError(f"{m} A_terms but {len(b_terms)} b_terms")
        if isinstance(distribution, FiniteScenarios):
            _check_dim(distribution.omegas, m, "scenario points")
        elif not isinstance(distribution, UniformBox):
            raise ValueError("distribution must be UniformBox or FiniteScenarios")
        self.distribution = distribution
        self._b = np.stack([b_base, *b_terms])
        self._b.flags.writeable = False
        self.b_base, self.b_terms = self._b[0], list(self._b[1:])

    @property
    def _A(self) -> np.ndarray:
        """The read-only dense (m + 1) x n x n stack: the stored one, or, for
        a banded problem, one built from the band on this read."""
        if self._dense is not None:
            return self._dense
        return _stack_of(self.m + 1, self.n, self._band.diagonals())

    @property
    def A_base(self) -> np.ndarray:
        return self._A[0]

    @property
    def A_terms(self) -> list[np.ndarray]:
        return list(self._A[1:])

    @property
    def n(self) -> int:
        return self._b.shape[1]

    @property
    def m(self) -> int:
        return self._b.shape[0] - 1


@dataclass(eq=False)
class SampleSet:
    """Weighted observation points: points is (N, m), weights is (N,).

    Weights are the density values carried through the sample average: 1 for
    uniform-box draws, count * p_i for finite scenarios so the weighted mean
    reproduces the exact expectation.

    Construction fixes the moments M = (1/N) sum_i weights[i] u_i u_i^T of
    u_i = [1; points[i]] and a factor F with F^T F = M, summing the chunks'
    (U_c^T w_c) U_c left to right over _CHUNK_ROWS rows at a time: one chunk
    is one gemm, and a larger set has one order at any BLAS thread count.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = _points_array(self.points, "sample points")
        self.weights = _positive_weights(
            self.weights, self.points.shape[0], "sample weights"
        )
        for s in range(0, self.N, _CHUNK_ROWS):
            U = _lift(self.points[s:s + _CHUNK_ROWS])
            S = (U.T * self.weights[s:s + _CHUNK_ROWS]) @ U
            M = M + S if s else S  # no 0.0 start: 0.0 + -0.0 would give +0.0
        self._moments = M / self.N
        # M is singular when N <= m, and rounding can leave its zero
        # eigenvalues slightly negative
        lam, V = np.linalg.eigh(self._moments)
        self._factor = np.sqrt(np.maximum(lam, 0.0))[:, None] * V.T

    @property
    def N(self) -> int:
        return self.points.shape[0]


# A band product costs about as much as a dense one over _BAND_FIXED
# entries, plus _BAND_ENTRY dense entries per band entry: measured on one
# core of a 2-vCPU Xeon, numpy's einsum took about 7 us + 1.1 ns per band
# entry and OpenBLAS gemv about 0.2 ns per dense entry, so ex4_4 (m = 1,
# three diagonals) takes the band from n = 151 on
_BAND_FIXED = 40_000
_BAND_ENTRY = 6
# _bandwidths reads each dense slice this many rows at a time
_SCAN_ROWS = 64


@dataclass(frozen=True)
class _Band:
    """The stack over the union of its nonzero diagonals, offsets -lower
    through upper: for offset o_t = t - lower, rows[j, t, i] = A_j[i, i + o_t]
    and cols[j, t, k] = A_j[k - o_t, k], zero outside the matrix.  The gather
    indices i + o_t and k - o_t are clipped into range, where the entry they
    meet is zero."""

    rows: np.ndarray
    cols: np.ndarray
    row_index: np.ndarray
    col_index: np.ndarray
    lower: int

    @classmethod
    def of_diagonals(cls, count: int, n: int, diagonals: dict) -> _Band | None:
        """The band of the stack of count n x n slices that is zero but for
        its diagonals {offset: (count, n - |offset|) array}, or None when
        dense products are cheaper.  The band spans the nonzero diagonals
        and offset 0."""
        nonzero = [off for off, diag in diagonals.items() if diag.any()]
        lower = max([0] + [-off for off in nonzero])
        upper = max([0] + nonzero)
        width = lower + upper + 1
        if width >= _max_band_width(count, n):
            return None
        rows, cols = np.zeros((2, count, width, n))
        for off, diag in diagonals.items():
            if -lower <= off <= upper:
                # entry (i, i + off) of each slice, for i from first to first + size
                t, first, size = off + lower, max(0, -off), n - abs(off)
                rows[:, t, first:first + size] = diag
                cols[:, t, first + off:first + off + size] = diag
        offsets = np.arange(-lower, upper + 1)[:, None]
        i = np.arange(n)
        return cls(rows, cols, np.clip(i + offsets, 0, n - 1),
                   np.clip(i - offsets, 0, n - 1), lower)

    def diagonals(self) -> dict:
        """{offset: (count, n - |offset|) array} over the band's offsets."""
        n = self.rows.shape[2]
        return {
            t - self.lower: self.rows[:, t, max(0, self.lower - t):n - max(0, t - self.lower)]
            for t in range(self.rows.shape[1])
        }


def _max_band_width(count: int, n: int) -> float:
    """The cost rule: a band product of a stack of count n x n slices beats
    the dense one below this width."""
    return (count * n * n - _BAND_FIXED) / (_BAND_ENTRY * count * n)


def _stack_of(count: int, n: int, diagonals: dict) -> np.ndarray:
    """The read-only dense stack of count n x n slices that is zero but for
    its diagonals {offset: (count, n - |offset|) array}."""
    A = np.zeros((count, n, n))
    for off, diag in diagonals.items():
        i = np.arange(max(0, -off), n - max(0, off))
        A[:, i, i + off] = diag
    A.flags.writeable = False
    return A


def _bandwidths(slices) -> dict | None:
    """The diagonals {offset: (count, n - |offset|) array} of the count n x n
    slices from offset -lower to upper, the largest i - j and j - i over the
    nonzeros A_s[i, j]; None, with nothing gathered, once lower + upper + 1
    reaches the cost rule's width.  Each slice is read in place _SCAN_ROWS
    rows at a time, so the nonzero pattern takes O(n) memory, not O(n^2)."""
    n = slices[0].shape[0]
    stop = _max_band_width(len(slices), n)
    lower = upper = 0
    for A in slices:
        for start in range(0, n, _SCAN_ROWS):
            nz = A[start:start + _SCAN_ROWS] != 0
            i = np.arange(start, start + nz.shape[0])
            found = nz.any(axis=1)
            first = nz.argmax(axis=1)
            last = n - 1 - nz[:, ::-1].argmax(axis=1)
            lower = max(lower, int(np.max(i - first, where=found, initial=0)))
            upper = max(upper, int(np.max(last - i, where=found, initial=0)))
            if lower + upper + 1 >= stop:
                return None
    return {off: np.stack([np.diagonal(A, off) for A in slices])
            for off in range(-lower, upper + 1)}


def _apply(problem, x):
    """The rows A_j x of the stack for each j, shape (m + 1, n): _A @ x."""
    band = problem._band
    if band is None:
        return problem._dense @ x
    return np.einsum("jti,ti->ji", band.rows, x.take(band.row_index))


def _apply_adjoint(problem, S):
    """sum_j A_j^T S_j over the rows S, shape (m + 1, n), the transpose of _apply:
    S = U^T Z with U = _lift(points) gives sum_i A(w_i)^T z_i, no A(w_i) formed."""
    band = problem._band
    if band is None:
        return S.ravel() @ problem._dense.reshape(-1, problem.n)
    return np.einsum("jtk,jtk->k", band.cols, S.take(band.col_index, axis=1))


def _check_vector(v, size: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).ravel()
    if arr.size != size:
        raise ValueError(f"{name} has length {arr.size}, expected {size}")
    return arr


def _lift(points) -> np.ndarray:
    """u = [1; w] for a point w, or one row [1, w_i] per row w_i of points."""
    points = np.asarray(points, dtype=float)
    return np.concatenate([np.ones(points.shape[:-1] + (1,)), points], axis=-1)


def smooth_abs(t, mu: float):
    """sqrt(t^2 + mu), the smooth stand-in for |t|, as hypot(t, sqrt(mu)):
    exactly |t| at mu = 0, and finite for every finite t.

    Accepts a scalar or an array and matches the input shape.
    """
    mu = float(mu)
    if not mu >= 0.0:
        raise ValueError(f"mu must be nonnegative, got {mu!r}")
    out = np.hypot(np.asarray(t, dtype=float), math.sqrt(mu))
    return float(out) if out.ndim == 0 else out


def _check_kink(psi: np.ndarray) -> np.ndarray:
    """psi unchanged; a NonsmoothPointError where this smooth_abs value is 0."""
    if not psi.all():  # psi >= 0, so all() fails exactly where some psi is 0
        raise NonsmoothPointError(
            "not differentiable at a kink of |.|: mu = 0 with a zero argument"
        )
    return psi


def _affine_rows(problem, x, psi):
    """[A_base x - psi - b_base; A_j x - b_j for each j], shape (m + 1, n):
    the residual at w is [1; w]^T times these rows.  psi comes off row 0
    before b_base, in the order of that formula."""
    R = _apply(problem, x)
    R[0] -= psi
    R -= problem._b
    return R


# OpenBLAS splits a dot of more than 10000 entries over its threads, in an
# order that follows their count: measured with OpenBLAS 0.3.31, np.vdot of
# random rows is bitwise equal at 1 and 2 threads at 10000 entries, not 10001
_DOT_ENTRIES = 10_000


def _dot(U, V):
    """The inner product of each row U[j] with V[j] over the leading axis, in
    one order at any thread count: bitwise np.vdot(U[j], V[j]) up to
    _DOT_ENTRIES entries, else the left-to-right sum of the vdots of its
    _DOT_ENTRIES-entry chunks (sum's start 0 is exact: no vdot is -0.0)."""
    U, V = U.reshape(len(U), 1, -1), V.reshape(len(V), -1, 1)
    if U.shape[2] <= _DOT_ENTRIES:  # a single chunk: one BLAS dot per row
        return (U @ V).ravel()
    return sum(_dot(U[..., s:s + _DOT_ENTRIES], V[:, s:s + _DOT_ENTRIES])
               for s in range(0, U.shape[2], _DOT_ENTRIES))


def _erm_value(F0, Y, z, mu):
    """smoothed_objective at each trial point z[t] over its lifted rows Y[t]
    = F L(z[t]): ||Y[t] - F0 smooth_abs(z[t], mu)||_F^2, as psi enters row 0
    of L and F0 = F[:, :1]."""
    E = Y - F0 * smooth_abs(z, mu)[:, None, :]
    return _dot(E, E)


# A block of trials pays numpy's per-call overhead once for all its rows,
# but its rows past the accepted trial are wasted work, which grows with the
# lift.  So a block holds at most _BLOCK_TRIALS rows and _BLOCK_ENTRIES
# lifted entries.  Measured on one core of a shared 2-vCPU Xeon: at n <= 10,
# solves with blocks of 8 to 16 rows took about 0.65 of their time with
# single trials; on ex4_4 at n = 300 (600 lifted entries) six rows beat one
# by 14% and twelve lost by 8%; an ev lift of 41 x 250 entries was fastest
# one trial at a time when every row summed its scenario rows (four rows:
# +20%), but ev's ray sums them only for a row whose head passes, so it
# sizes its blocks by the head.
_BLOCK_TRIALS = 12
_BLOCK_ENTRIES = 4096


def _block_size(entries: int) -> int:
    """The most rows of a ray's block when its block call reads entries per row."""
    return max(1, min(_BLOCK_TRIALS, _BLOCK_ENTRIES // entries))


class _Ray:
    """A route's line search at x along d: the trials f(x + alpha d, mu)
    over the route's lift W of the affine rows L(z) = _A z - _b, passed to
    its one value formula, with no n x n product per trial.  L is linear in
    z, so W L at x + alpha d is Y + alpha Q, with Y = W L(x) formed fresh at
    x and Q = W (_A d).

    block keeps solver.SmoothedModel's protocol: it evaluates every trial,
    whatever the test, over a leading block axis and keeps their rows, so
    raw reads the mu = 0 value of any of them, a block of one, with no
    second pass; ev's ray screens rows instead, as ev._EvRay states.
    """

    screened = 0

    def __init__(self, problem, W, value, x, d):
        self.Y = W @ _affine_rows(problem, x, 0.0)
        self.Q = W @ _apply(problem, d)
        self.x, self.d, self.value = x, d, value
        self.size = _block_size(self.Y.size)

    def block(self, alphas, mu, accepts):
        """[f(x + alpha d, mu) for alpha in alphas], each row bitwise its trial alone."""
        a = np.array(alphas)
        self.rows = self.Y + a[:, None, None] * self.Q
        self.points = self.x + a[:, None] * self.d
        return self.value(self.rows, self.points, mu).tolist()

    def raw(self, i):
        """f(x + alpha d, 0) at the step alphas[i] of the last block."""
        return float(self.value(self.rows[i:i + 1], self.points[i:i + 1], 0.0)[0])


def erm_objective(problem: StochasticProblem, samples: SampleSet, x) -> float:
    """Weighted sample average of ||A(w_i) x - |x| - b(w_i)||^2.

    The value is (1/N) * sum_i w_i ||r_i||^2; with the count * p_i weight
    convention for finite scenarios this equals the exact expectation
    sum_i p_i ||r_i||^2.  It is smoothed_objective at mu = 0.
    """
    return smoothed_objective(problem, samples, x, 0.0)


def smoothed_objective(
    problem: StochasticProblem, samples: SampleSet, x, mu: float
) -> float:
    """erm_objective with |x| replaced by smooth_abs(x, mu); equal at mu = 0."""
    _check_dim(samples.points, problem.m, "sample points")
    x = _check_vector(x, problem.n, "x")
    F = samples._factor
    Y = F @ _affine_rows(problem, x, 0.0)
    return float(_erm_value(F[:, :1], Y[None], x[None], mu)[0])


def smoothed_gradient(
    problem: StochasticProblem, samples: SampleSet, x, mu: float
) -> np.ndarray:
    """Exact gradient of smoothed_objective in x.

    Equals (2/N) * sum_i w_i J_i^T r_i with J_i the smoothed-residual Jacobian
    at w_i; evaluated as 2 (sum_j A_j^T (M R)_j - (x / psi) (M R)_0) through
    the sample moments M, so no per-sample row or matrix is materialized.
    """
    _check_dim(samples.points, problem.m, "sample points")
    x = _check_vector(x, problem.n, "x")
    psi = _check_kink(smooth_abs(x, mu))
    S = samples._moments @ _affine_rows(problem, x, psi)
    return 2.0 * (_apply_adjoint(problem, S) - (x / psi) * S[0])
