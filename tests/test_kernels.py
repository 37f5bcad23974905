"""Acceptance kernels: tolerance intervals and indicator weights."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alivetwist import AbcKernel, DiscreteBallKernel


def dyadic(lo, hi):
    """Multiples of 2**-10 in [lo, hi]: for |values| below 2**42 their sums are exact."""
    return st.integers(lo * 1024, hi * 1024).map(lambda i: i / 1024)


class TestAbcKernelValidation:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            AbcKernel(epsilon=0.0)
        with pytest.raises(ValueError):
            AbcKernel(epsilon=-1.0)

    def test_mode_must_be_known(self):
        with pytest.raises(ValueError):
            AbcKernel(epsilon=1.0, mode="fuzzy")

    def test_relative_floor_must_be_positive(self):
        with pytest.raises(ValueError):
            AbcKernel(epsilon=1.0, relative_floor=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_sizes_rejected(self, value):
        with pytest.raises(ValueError, match="epsilon"):
            AbcKernel(epsilon=value)
        with pytest.raises(ValueError, match="relative_floor"):
            AbcKernel(epsilon=1.0, relative_floor=value)


class TestAbcKernelInterval:
    def test_absolute_interval_is_symmetric(self):
        kernel = AbcKernel(epsilon=0.75, mode="absolute")
        lo, hi = kernel.interval(2.0)
        assert lo == pytest.approx(1.25)
        assert hi == pytest.approx(2.75)

    def test_relative_interval_scales_with_magnitude(self):
        kernel = AbcKernel(epsilon=0.1, mode="relative")
        lo, hi = kernel.interval(-20.0)
        assert lo == pytest.approx(-22.0)
        assert hi == pytest.approx(-18.0)

    def test_relative_floor_bounds_width_near_zero(self):
        kernel = AbcKernel(epsilon=0.5, mode="relative", relative_floor=1e-8)
        lo, hi = kernel.interval(0.0)
        assert hi - lo == pytest.approx(1e-8, rel=1e-12)
        assert lo == -hi

    def test_weights_match_interval_exactly(self):
        kernel = AbcKernel(epsilon=0.3, mode="relative")
        observed = 1.7
        lo, hi = kernel.interval(observed)
        simulated = np.array([lo - 1e-9, lo, (lo + hi) / 2, hi, hi + 1e-9])
        np.testing.assert_array_equal(
            kernel.weights(simulated, observed), np.array([0, 1, 1, 1, 0], dtype=np.int64)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        observed=st.floats(-1e6, 1e6),
        eps_small=st.floats(1e-3, 1.0),
        growth=st.floats(1.001, 10.0),
        simulated=st.floats(-1e6, 1e6),
    )
    def test_acceptance_monotone_in_epsilon(self, observed, eps_small, growth, simulated):
        tight = AbcKernel(epsilon=eps_small, mode="absolute")
        loose = AbcKernel(epsilon=eps_small * growth, mode="absolute")
        value = np.array([simulated])
        assert loose.weights(value, observed)[0] >= tight.weights(value, observed)[0]

    @settings(max_examples=60, deadline=None)
    @given(
        # On a dyadic grid observed +- offset is exact, so the pair is symmetric.
        observed=dyadic(-10_000, 10_000),
        epsilon=st.floats(1e-3, 1e2),
        offset=dyadic(0, 10_000),
    )
    @example(observed=29.0, epsilon=99.99999999999999, offset=100.0)
    def test_absolute_mode_symmetric_around_observation(self, observed, epsilon, offset):
        kernel = AbcKernel(epsilon=epsilon, mode="absolute")
        above = kernel.weights(np.array([observed + offset]), observed)[0]
        below = kernel.weights(np.array([observed - offset]), observed)[0]
        assert above == below

    @settings(max_examples=200, deadline=None)
    @given(
        mode=st.sampled_from(["absolute", "relative"]),
        observed=st.one_of(dyadic(-10**6, 10**6), st.floats(-1e6, 1e6)),
        epsilon=st.floats(1e-3, 1e2),
        simulated=st.floats(-1e6, 1e6),
    )
    @example(mode="absolute", observed=29.0, epsilon=99.99999999999999, simulated=129.0)
    def test_weights_follow_the_documented_rule_exactly(
        self, mode, observed, epsilon, simulated
    ):
        kernel = AbcKernel(epsilon=epsilon, mode=mode)
        half = epsilon
        if mode == "relative":
            half *= max(abs(observed), kernel.relative_floor)
        points = [simulated]
        for edge in (*kernel.interval(observed), observed - half, observed + half):
            points += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
        got = kernel.weights(np.array(points), observed)
        want = [int(abs(Fraction(u) - Fraction(observed)) <= Fraction(half)) for u in points]
        np.testing.assert_array_equal(got, np.array(want, dtype=np.int64))


class TestWeightsAreBooleanMasks:
    @pytest.mark.parametrize("mode", ["absolute", "relative"])
    @pytest.mark.parametrize("observed", [1.7, -20.0, 0.0])
    def test_abc_weights_are_the_interval_mask(self, mode, observed):
        kernel = AbcKernel(epsilon=0.3, mode=mode)
        lo, hi = kernel.interval(observed)
        simulated = np.array([math.nextafter(lo, -math.inf), lo, hi, math.nextafter(hi, math.inf)])
        got = kernel.weights(simulated, observed)
        assert got.dtype == np.bool_
        np.testing.assert_array_equal(got, (lo <= simulated) & (simulated <= hi))
        np.testing.assert_array_equal(got, [False, True, True, False])

    def test_discrete_weights_are_bool(self):
        kernel = DiscreteBallKernel(np.array([[1, 0], [1, 1]], dtype=bool))
        got = kernel.weights(np.array([0, 1, 1, 0]), 0)
        assert got.dtype == np.bool_
        np.testing.assert_array_equal(got, [True, False, False, True])


class TestDiscreteBallKernel:
    def test_requires_square_table(self):
        with pytest.raises(ValueError):
            DiscreteBallKernel(np.ones((2, 3), dtype=bool))

    def test_weights_index_observed_row_simulated_column(self):
        acceptance = np.array(
            [[True, False, False], [False, True, True], [True, False, True]]
        )
        kernel = DiscreteBallKernel(acceptance)
        simulated = np.array([0, 1, 2])
        np.testing.assert_array_equal(kernel.weights(simulated, 1), np.array([0, 1, 1]))
        np.testing.assert_array_equal(kernel.weights(simulated, 2), np.array([1, 0, 1]))

    def test_identity_table_is_exact_matching(self):
        kernel = DiscreteBallKernel(np.eye(3, dtype=bool))
        simulated = np.array([0, 1, 2, 1, 0])
        np.testing.assert_array_equal(
            kernel.weights(simulated, 1), (simulated == 1).astype(np.int64)
        )
