import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savesolve import (
    SamplerSpec,
    builtin_example,
    generate,
    halton_points,
    radical_inverse,
)


def scalar_radical_inverse(index, base):
    """The scalar float loop the vectorised digit reversal must reproduce
    bit for bit, with a sum that rounds up to 1.0 clamped below 1."""
    f, r = 1.0, 0.0
    while index > 0:
        index, digit = divmod(index, base)
        f /= base
        r += f * digit
    return min(r, math.nextafter(1.0, 0.0))


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


class TestRadicalInverse:
    def test_base_two_values(self):
        assert radical_inverse(0, 2) == 0.0
        assert radical_inverse(1, 2) == 0.5
        # 6 = 110 in base 2, reversed digits give 0.011 = 3/8
        assert radical_inverse(6, 2) == 0.375

    def test_base_three_first_index(self):
        assert radical_inverse(1, 3) == pytest.approx(1 / 3, rel=1e-15)

    def test_composite_base_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            radical_inverse(3, 4)
        with pytest.raises(ValueError, match="prime"):
            radical_inverse(3, 1)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="index"):
            radical_inverse(-1, 2)

    def test_array_matches_scalar_calls(self):
        index = np.array([[0, 1, 6], [12345, 2**40 + 7, 2**63 - 1]])
        for base in (2, 3, 7):
            values = radical_inverse(index, base)
            assert values.shape == index.shape
            expected = [[radical_inverse(int(i), base) for i in row] for row in index]
            assert values.tobytes() == np.array(expected).tobytes()

    def test_scalar_call_returns_float(self):
        assert type(radical_inverse(6, 2)) is float
        assert type(radical_inverse(np.int64(6), 3)) is float

    @pytest.mark.parametrize("index", [2.5, 2.0, True, 2**63])
    def test_non_int64_index_rejected(self, index):
        with pytest.raises(ValueError, match="index"):
            radical_inverse(index, 2)


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

    def test_last_index_bound(self):
        assert halton_points(3, 1, 2**63 - 4).shape == (3, 1)
        assert halton_points(3, 2, 2**63 - 4).max() < 1.0
        with pytest.raises(ValueError, match="offset"):
            halton_points(3, 1, 2**63 - 3)

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
