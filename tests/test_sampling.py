import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savesolve import (
    SamplerSpec,
    StochasticProblem,
    builtin_example,
    generate,
    halton_points,
)
from savesolve.core import _CHUNK_ROWS
from savesolve.sampling import _TABLE_ENTRIES


def scalar_radical_inverse(index, base):
    """The scalar float loop the vectorised digit reversal must reproduce
    bit for bit, with a sum that rounds up to 1.0 clamped below 1."""
    f, r = 1.0, 0.0
    while index > 0:
        index, digit = divmod(index, base)
        f /= base
        r += f * digit
    return min(r, math.nextafter(1.0, 0.0))


def vector_radical_inverse(index, base):
    """The per-digit pass over the whole index array, a fast oracle for large
    index arrays: one divmod, multiply and add per digit."""
    idx = np.asarray(index).astype(np.int64)
    f = 1.0
    r = np.zeros(idx.shape)
    while idx.any():
        idx, digit = np.divmod(idx, base)
        f /= base
        r += f * digit
    return np.minimum(r, np.nextafter(1.0, 0.0))


def vector_halton(count, dim, offset):
    index = np.arange(count) + offset + 1
    bases = [2, 3, 5, 7, 11, 13, 17, 19][:dim]
    return np.stack([vector_radical_inverse(index, b) for b in bases], axis=1)


def scalar_halton(count, dim, offset):
    bases = [2, 3, 5, 7, 11, 13, 17, 19][:dim]
    rows = [
        [scalar_radical_inverse(offset + 1 + i, b) for b in bases] for i in range(count)
    ]
    return np.array(rows, dtype=float).reshape(count, dim)


@st.composite
def halton_args(draw):
    count = draw(st.integers(0, 300))
    dim = draw(st.integers(0, 8))
    low = st.integers(0, 2**62)
    # offsets whose last index offset + count lies within count of 2**63 - 1
    top = st.integers(0, count).map(lambda back: 2**63 - 1 - count - back)
    return count, dim, draw(st.one_of(low, top))


def halton_reversal(index, base):
    """The digit reversal of index in a prime base, read off the Halton point
    at that index: its column for base, among the first primes."""
    dim = sum(all(p % d for d in range(2, p)) for p in range(2, base + 1))
    return halton_points(1, dim, index - 1)[0, -1]


class TestRadicalInverse:
    """The digit reversal behind every Halton coordinate, pinned through
    halton_points; the point at index i is the one at offset i - 1."""

    def test_base_two_values(self):
        assert halton_reversal(1, 2) == 0.5
        # 6 = 110 in base 2, reversed digits give 0.011 = 3/8
        assert halton_reversal(6, 2) == 0.375

    def test_base_three_first_index(self):
        assert halton_reversal(1, 3) == pytest.approx(1 / 3, rel=1e-15)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="offset"):
            halton_points(1, 1, offset=-2)

    def test_array_matches_scalar_calls(self):
        # a block of consecutive indices equals one call per index
        for first in (1, 12345, 2**40 + 7, 2**63 - 3):
            block = halton_points(3, 4, first - 1)
            single = [halton_points(1, 4, i - 1)[0] for i in range(first, first + 3)]
            assert block.tobytes() == np.array(single).tobytes()

    @pytest.mark.parametrize("index", [2.5, 2.0, True, 2**63])
    def test_non_int64_index_rejected(self, index):
        # the offset is the index origin, so it must be an int64 too
        with pytest.raises(ValueError, match="offset"):
            halton_points(1, 1, index)

    @pytest.mark.parametrize("base", [2, 3, 97])
    def test_extreme_indices_match_both_oracles(self, base):
        index = np.array([1, 2, 2**62, 2**63 - 1])
        values = np.array([halton_reversal(int(i), base) for i in index])
        assert values.tobytes() == vector_radical_inverse(index, base).tobytes()
        expected = [scalar_radical_inverse(int(i), base) for i in index]
        assert values.tobytes() == np.array(expected).tobytes()

    def test_index_magnitude_never_sizes_the_table(self):
        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the bound means something only if numpy buffers are traced
        assert peak(lambda: np.zeros(2**14)) >= 2**17
        assert peak(lambda: halton_points(1, 1, 2**63 - 2)) < 64 * 1024
        assert peak(lambda: halton_points(1, 8, 2**63 - 2)) < 64 * 1024
        # nor does the base: at dim 1000 the bases reach 7919, and a table of
        # 7919 digit slots would take 63 KB
        assert peak(lambda: halton_points(1, 1000, 2**63 - 2)) < 64 * 1024


class TestHalton:
    def test_one_dimensional_prefix(self):
        np.testing.assert_array_equal(
            halton_points(4, 1).ravel(), [0.5, 0.25, 0.75, 0.125]
        )

    def test_two_dimensional_first_point(self):
        first = halton_points(1, 2)[0]
        assert first[0] == 0.5
        assert first[1] == pytest.approx(1 / 3, rel=1e-15)

    def test_offset_shifts_indices(self):
        shifted = halton_points(2, 1, offset=2).ravel()
        np.testing.assert_array_equal(shifted, [0.75, 0.125])

    def test_prefix_nesting(self):
        small = halton_points(16, 2)
        large = halton_points(64, 2)
        np.testing.assert_array_equal(small, large[:16])

    def test_coordinates_in_unit_interval(self):
        pts = halton_points(200, 3)
        assert np.all(pts >= 0.0) and np.all(pts < 1.0)

    @pytest.mark.parametrize("N", [16, 64, 256])
    def test_star_discrepancy_bound(self, N):
        pts = np.sort(halton_points(N, 1).ravel())
        i = np.arange(1, N + 1)
        dstar = max(np.max(np.abs(i / N - pts)), np.max(np.abs((i - 1) / N - pts)))
        assert dstar <= 2.0 / N

    @settings(max_examples=60, deadline=None)
    @given(halton_args())
    def test_matches_scalar_reference_bitwise(self, args):
        points = halton_points(*args)
        expected = scalar_halton(*args)
        assert points.shape == expected.shape
        assert points.tobytes() == expected.tobytes()
        assert np.all((points >= 0.0) & (points < 1.0))

    def test_large_set_matches_per_digit_loop_bitwise(self):
        assert halton_points(131072, 3).tobytes() == vector_halton(131072, 3, 0).tobytes()

    @pytest.mark.parametrize("period", [2**17, 3**11, 5**7])
    @pytest.mark.parametrize("past", [-1, 0, 1])
    def test_last_index_at_table_period(self, period, past):
        # 2 * count reaches the period but not the next one, so the table ends
        # at exactly this period and the last index sits just below, on or past it
        count = (period + 1) // 2
        offset = period + past - count
        points = halton_points(count, 3, offset)
        assert points.tobytes() == vector_halton(count, 3, offset).tobytes()

    @pytest.mark.parametrize("offset", [0, 12345, 2**62])
    @pytest.mark.parametrize("count", [
        _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 5,
    ])
    def test_chunk_boundaries_match_per_digit_loop_bitwise(self, count, offset):
        points = halton_points(count, 3, offset)
        assert points.tobytes() == vector_halton(count, 3, offset).tobytes()

    @pytest.mark.parametrize("base", [2, 3, 5])
    @pytest.mark.parametrize("past", [-1, 0, 1])
    def test_last_index_at_capped_table_period(self, base, past):
        # 2 * count passes _TABLE_ENTRIES, so the cap ends each column's table
        # at its largest period within the cap, and the last index sits just
        # below, on or past base times that period
        count = _TABLE_ENTRIES // 2 + 1
        period = base ** int(math.log(_TABLE_ENTRIES + 0.5, base))
        offset = base * period + past - count
        points = halton_points(count, 3, offset)
        assert points.tobytes() == vector_halton(count, 3, offset).tobytes()

    def test_numpy_unsigned_offset(self):
        np.testing.assert_array_equal(halton_points(3, 2, np.uint64(5)), halton_points(3, 2, 5))

    def test_last_index_bound(self):
        assert halton_points(3, 1, 2**63 - 4).shape == (3, 1)
        assert halton_points(3, 2, 2**63 - 4).max() < 1.0
        with pytest.raises(ValueError, match="offset"):
            halton_points(3, 1, 2**63 - 3)

    def test_negative_offset_rejected(self):
        # the first index is offset + 1, so -1 would emit index 0, the point 0.0
        with pytest.raises(ValueError, match="offset"):
            halton_points(2, 1, offset=-1)

    @pytest.mark.parametrize("count, dim, name", [
        (-1, 1, "count"), (2.0, 1, "count"), ("2", 1, "count"),
        (2, -1, "dim"), (2, 2.0, "dim"), (2, True, "dim"),
    ])
    def test_bad_count_or_dim_rejected(self, count, dim, name):
        with pytest.raises(ValueError, match=name):
            halton_points(count, dim)

    @pytest.mark.parametrize("N", [16, 256])
    def test_mean_close_to_half(self, N):
        pts = halton_points(N, 1)
        assert abs(pts.mean() - 0.5) <= 1.0 / N + 1e-12


class TestGenerate:
    def test_pseudorandom_reproducible(self):
        problem = builtin_example("ex4_1")
        spec = SamplerSpec("pseudorandom", count=40, dim=1, seed=123)
        a = generate(spec, problem)
        b = generate(spec, problem)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_pseudorandom_seed_changes_stream(self):
        problem = builtin_example("ex4_1")
        a = generate(SamplerSpec("pseudorandom", count=40, dim=1, seed=1), problem)
        b = generate(SamplerSpec("pseudorandom", count=40, dim=1, seed=2), problem)
        assert not np.array_equal(a.points, b.points)

    def test_points_in_unit_box(self):
        problem = builtin_example("ex4_2")
        for kind in ("pseudorandom", "halton"):
            s = generate(SamplerSpec(kind, count=100, dim=1, seed=4), problem)
            assert np.all(s.points >= 0.0) and np.all(s.points < 1.0)
            np.testing.assert_array_equal(s.weights, np.ones(100))

    def test_scenarios_passthrough(self):
        problem = builtin_example("ex2_1")
        s = generate(SamplerSpec("scenarios", count=99, dim=1), problem)
        np.testing.assert_array_equal(s.points, [[0.0], [2.0]])
        np.testing.assert_array_equal(s.weights, [1.0, 1.0])  # 2 * (1/2)

    def test_scenarios_need_finite_distribution(self):
        problem = builtin_example("ex4_1")
        with pytest.raises(ValueError, match="finite"):
            generate(SamplerSpec("scenarios", count=1, dim=1), problem)

    def test_box_samplers_need_uniform_distribution(self):
        problem = builtin_example("ex2_1")
        with pytest.raises(ValueError, match="uniform"):
            generate(SamplerSpec("halton", count=8, dim=1), problem)

    def test_dimension_mismatch(self):
        problem = builtin_example("ex4_1")
        with pytest.raises(ValueError, match="dimension"):
            generate(SamplerSpec("halton", count=8, dim=2), problem)

    def test_building_a_set_holds_its_points_plus_a_chunk(self):
        problem = StochasticProblem(np.eye(2), [np.eye(2)] * 3, np.ones(2), [np.ones(2)] * 3)
        spec = SamplerSpec("halton", 131072, 3)
        tracemalloc.start()
        try:
            generate(spec, problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the points and weights take 4 MiB; full-length index, lift and
        # weighted-lift arrays would take the peak to 12.1 MiB
        assert peak < 6 * 2**20

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            SamplerSpec("sobol", count=8, dim=1)
        with pytest.raises(ValueError, match="count"):
            SamplerSpec("halton", count=0, dim=1)
        with pytest.raises(ValueError, match="offset"):
            SamplerSpec("halton", count=1, dim=1, offset=-1)

    @pytest.mark.parametrize("field", ["count", "dim", "seed", "offset"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_spec_integer_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            SamplerSpec("halton", **{"count": 3, "dim": 1, field: value})

    def test_spec_accepts_numpy_integers(self):
        spec = SamplerSpec("halton", np.int64(3), np.int32(1), np.uint64(5), np.int8(2))
        assert (spec.count, spec.dim, spec.seed, spec.offset) == (3, 1, 5, 2)
