"""Seeded stream derivation and categorical draw helpers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alivetwist.rng import (
    SeedSpec,
    categorical_many,
    derive_stream,
    gaussian,
)
from alivetwist.smc import ParticleDeathError, _logsumexp1d, _pool_weights, _resample

from helpers import ScriptedStream, assert_same_bits, stream_for


class TestSeedSpec:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            SeedSpec(-1, 0)
        with pytest.raises(ValueError):
            SeedSpec(0, -3)

    def test_rejects_values_at_or_above_two_to_the_64(self):
        with pytest.raises(ValueError):
            SeedSpec(2**64, 0)
        SeedSpec(2**64 - 1, 2**64 - 1)  # boundary is inclusive

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            SeedSpec(1.5, 0)
        with pytest.raises(TypeError):
            SeedSpec("7", 0)

    def test_child_shifts_stream_id_only(self):
        spec = SeedSpec(11, 40)
        child = spec.child(2)
        assert child == SeedSpec(11, 42)
        assert spec.stream_id == 40  # frozen original untouched


class TestDeriveStream:
    def test_same_spec_gives_identical_sequences(self):
        a = derive_stream(SeedSpec(123, 7)).random(32)
        b = derive_stream(SeedSpec(123, 7)).random(32)
        np.testing.assert_array_equal(a, b)

    def test_different_stream_ids_differ(self):
        a = derive_stream(SeedSpec(123, 0)).random(32)
        b = derive_stream(SeedSpec(123, 1)).random(32)
        assert not np.array_equal(a, b)

    def test_different_master_seeds_differ(self):
        a = derive_stream(SeedSpec(1, 0)).random(32)
        b = derive_stream(SeedSpec(2, 0)).random(32)
        assert not np.array_equal(a, b)

    def test_bit_generator_is_sfc64(self):
        assert isinstance(derive_stream(SeedSpec(0, 0)).bit_generator, np.random.SFC64)

    def test_swapped_pair_differs(self):
        a = derive_stream(SeedSpec(1, 2)).random(32)
        b = derive_stream(SeedSpec(2, 1)).random(32)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("spec, first", [
        (SeedSpec(0, 0), 0.5484188289858579),
        (SeedSpec(2**64 - 1, 2**64 - 1), 0.6726186706996027),
    ])
    def test_first_draw_is_pinned(self, spec, first):
        """Every seed's output rests on numpy's SeedSequence and SFC64; a
        numpy release that changes either shows up here first."""
        assert derive_stream(spec).random() == first

    def test_adjacent_stream_ids_are_uncorrelated(self):
        """Smoke check: the first draws of streams i and i + 1 show no lag-1
        correlation beyond four standard errors."""
        first = np.array([derive_stream(SeedSpec(5, i)).random() for i in range(2000)])
        r = np.corrcoef(first[:-1], first[1:])[0, 1]
        assert abs(r) < 4 / np.sqrt(first.size - 1)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), sid=st.integers(0, 2**64 - 1))
    def test_reproducible_for_any_valid_spec(self, seed, sid):
        first = derive_stream(SeedSpec(seed, sid)).random(4)
        second = derive_stream(SeedSpec(seed, sid)).random(4)
        np.testing.assert_array_equal(first, second)


class TestGaussian:
    def test_zero_variance_is_exact(self):
        stream = derive_stream(SeedSpec(5, 0))
        assert gaussian(stream, 3.25, 0.0) == 3.25

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian(derive_stream(SeedSpec(5, 0)), 0.0, -1e-9)

    def test_moments(self):
        stream = derive_stream(SeedSpec(6, 0))
        draws = np.array([gaussian(stream, 2.0, 9.0) for _ in range(200_000)])
        assert abs(draws.mean() - 2.0) < 3 * 3.0 / np.sqrt(draws.size)
        assert abs(draws.var() - 9.0) < 0.15

    def test_scalar_return_type(self):
        value = gaussian(derive_stream(SeedSpec(7, 0)), 0.0, 1.0)
        assert isinstance(value, float)


class TestCategorical:
    """Single draws: the twisted filters' guided pick from log weights
    (``_pool_weights`` then a one-draw ``_resample``), and
    ``categorical_many``'s weight checks."""

    @pytest.mark.parametrize(
        "weights",
        [[], [1.0, -0.5], [1.0, np.nan], [np.inf, 1.0], [0.0, 0.0], [[1.0, 2.0]]],
    )
    def test_invalid_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="invalid categorical weights"):
            categorical_many(derive_stream(SeedSpec(9, 1)), weights, 1)

    def test_overflowing_total_rejected(self):
        """Finite weights whose sum overflows used to draw the last index every
        time; the total is the cdf's last entry, so it fails the check."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy may warn as the sum overflows
            with pytest.raises(ValueError, match="invalid categorical weights"):
                categorical_many(derive_stream(SeedSpec(9, 1)), [1e308, 1e308], 1000)

    @pytest.mark.parametrize("log_weights", [
        [-np.inf, -np.inf], [0.0, np.nan], [np.inf, 0.0], [np.nan, np.nan],
    ])
    def test_log_categorical_refuses_degenerate_weights(self, log_weights):
        """All -inf, a NaN or a +inf have no finite largest weight, so the pick
        raises ParticleDeathError at its step before any draw."""
        with pytest.raises(ParticleDeathError) as info:
            _pool_weights(np.array(log_weights), 4)
        assert info.value.step == 4

    @pytest.mark.parametrize("size", [1, 7, 2000])
    def test_matches_categorical_and_logsumexp(self, size):
        """The guided pick's index equals a one-draw ``categorical_many`` on the
        same stream, and its total equals a log-sum-exp, with floored (the
        twists' score floor) and -inf entries."""
        for seed in range(20):
            log_weights = 30.0 * stream_for(250 + size, seed).standard_normal(size)
            log_weights[::3] = np.log(1e-300)
            log_weights[1::5] = -np.inf
            cdf, log_total = _pool_weights(log_weights, 0)
            index = _resample(stream_for(251, seed), cdf, 1)[0]
            weights = np.exp(log_weights - log_weights.max())
            assert index == categorical_many(stream_for(251, seed), weights, 1)[0]
            assert log_total == pytest.approx(_logsumexp1d(log_weights), rel=0, abs=1e-12)


WEIGHT_PATTERNS = [
    [0.0, 0.0, 1.0, 2.0, 3.0],  # zeros at the start
    [1.0, 0.0, 0.0, 2.0, 0.5],  # zeros in the middle
    [2.0, 1.0, 3.0, 0.0, 0.0],  # zeros at the end
    [1.0, 1.0, 0.25, 1.0, 1.0, 0.25],  # ties
    list(np.random.default_rng(7).exponential(size=2000)),
]


class TestCategoricalMany:
    def test_empty_draw(self):
        out = categorical_many(derive_stream(SeedSpec(10, 0)), [1.0, 1.0], 0)
        assert out.shape == (0,) and out.dtype == np.int64

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            categorical_many(derive_stream(SeedSpec(10, 0)), [1.0], -1)

    @pytest.mark.parametrize("size", [0, 1, 7, 2000])
    @pytest.mark.parametrize("weights", WEIGHT_PATTERNS)
    def test_equals_unsorted_search(self, weights, size):
        """The indices are those of one search of the scaled uniforms in draw
        order, from the same stream."""
        weights = np.asarray(weights)
        cdf = np.cumsum(weights)
        stream = derive_stream(SeedSpec(11, size))
        want = np.minimum(
            np.searchsorted(cdf, stream.random(size) * cdf[-1], side="right"), weights.size - 1
        )
        got = categorical_many(derive_stream(SeedSpec(11, size)), weights, size)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_matches_weights(self):
        stream = derive_stream(SeedSpec(10, 1))
        weights = np.array([0.5, 0.25, 0.125, 0.125])
        draws = categorical_many(stream, 8 * weights, 40_000)
        for index, p in enumerate(weights):
            observed = (draws == index).mean()
            se = np.sqrt(p * (1 - p) / draws.size)
            assert abs(observed - p) < 4 * se

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8),
        size=st.integers(0, 64),
        seed=st.integers(0, 2**32),
    )
    def test_indices_always_in_range(self, weights, size, seed):
        draws = categorical_many(derive_stream(SeedSpec(seed, 0)), weights, size)
        assert draws.shape == (size,)
        if size:
            assert draws.min() >= 0
            assert draws.max() < len(weights)


class TestResample:
    """``smc._resample``, the bootstrap filters' sorted multinomial draw."""

    @pytest.mark.parametrize("weights", WEIGHT_PATTERNS)
    def test_equals_sorted_categorical_many(self, weights):
        """The same indices as ``categorical_many`` from the same stream, sorted."""
        weights = np.asarray(weights)
        for size in (0, 1, weights.size):
            got = _resample(derive_stream(SeedSpec(12, size)), np.cumsum(weights), size)
            want = np.sort(categorical_many(derive_stream(SeedSpec(12, size)), weights, size))
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(st.sampled_from([0.0, 1e-3, 0.5, 1.0, 7.0, 1e3]), min_size=1, max_size=8)
        .filter(lambda w: max(w) > 0),
        size=st.integers(0, 64),
        seed=st.integers(0, 2**32),
    )
    def test_sorted_int64_and_in_range(self, weights, size, seed):
        draws = _resample(derive_stream(SeedSpec(seed, 0)), np.cumsum(weights), size)
        assert draws.dtype == np.int64 and draws.shape == (size,)
        assert np.all(np.diff(draws) >= 0)
        if size:
            assert draws.min() >= 0
            assert draws.max() < len(weights)

    def test_matches_weights(self):
        weights = np.array([0.5, 0.25, 0.125, 0.125])
        draws = _resample(derive_stream(SeedSpec(12, 1)), np.cumsum(8 * weights), 40_000)
        for index, p in enumerate(weights):
            observed = (draws == index).mean()
            se = np.sqrt(p * (1 - p) / draws.size)
            assert abs(observed - p) < 4 * se

    TOP = 1.0 - 2.0**-53  # the largest value ``random`` returns

    @staticmethod
    def _clamped(stream, cdf, size):
        """``_resample`` as it was with its clamp on the index past the end."""
        u = stream.random(size)
        u.sort()
        u *= cdf[-1]
        return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)

    @pytest.mark.parametrize("exponent", [0, 1, 2, 9, 52, 53, 200, 1000])
    def test_top_uniform_needs_no_clamp(self, exponent):
        """At the largest uniform, totals at and just above a power of two
        (the two rounding cases of the docstring's proof) give the clamped
        indices, and the top one is the last particle with weight."""
        uniforms = [self.TOP, 0.0, 0.5, self.TOP]
        for total in (2.0**exponent, np.nextafter(2.0**exponent, np.inf),
                      3.0 * 2.0**exponent, np.nextafter(2.0**(exponent + 1), 0.0)):
            for cdf in (np.array([total]), np.array([0.25, 1.0, 1.0]) * total,
                        np.array([1e-300, 0.5, 1.0 - 2.0**-52, 1.0]) * total):
                cdf[-1] = total
                got = _resample(ScriptedStream(uniforms=uniforms), cdf, len(uniforms))
                want = self._clamped(ScriptedStream(uniforms=uniforms), cdf, len(uniforms))
                assert_same_bits(got, want)
                assert got[-1] == np.flatnonzero(np.diff(cdf, prepend=0.0))[-1]

    def test_pool_draws_equal_the_clamped_draws(self):
        for seed in range(20):
            log_weights = 5.0 * stream_for(253, seed).standard_normal(1 + 37 * seed)
            cdf, _ = _pool_weights(log_weights, 0)
            assert_same_bits(_resample(stream_for(254, seed), cdf, 500),
                             self._clamped(stream_for(254, seed), cdf, 500))

    @settings(max_examples=500, deadline=None)
    @given(total=st.floats(min_value=1.0, allow_nan=False, allow_infinity=False))
    def test_the_top_uniform_scales_below_every_total(self, total):
        """The clamp proof: (1 - 2^-53) T rounds below T for every float T >= 1."""
        assert self.TOP * total < total

    def test_pool_weights_equal_the_allocating_expressions(self):
        """``_pool_weights`` and ``_logsumexp1d`` exponentiate in place; their
        bits are those of the expressions they replaced."""
        stream = stream_for(255)
        for n in (1, 2, 199, 2000):
            log_weights = 40.0 * stream.standard_normal(n)
            log_weights[::5] = -np.inf
            log_weights[-1] = 3.0
            shift = float(log_weights.max())
            cdf, log_total = _pool_weights(log_weights, 0)
            want = np.exp(log_weights - shift)
            np.cumsum(want, out=want)
            assert_same_bits(cdf, want)
            assert log_total == shift + math.log(float(want[-1]))
            assert _logsumexp1d(log_weights) == shift + math.log(
                float(np.exp(log_weights - shift).sum()))

    def test_pool_weights_are_the_shifted_cdf_and_its_log_total(self):
        """``_pool_weights`` hands ``_resample`` the cdf of exp(log_weights -
        max) and reads the log-sum-exp off its last entry."""
        log_weights = 30.0 * stream_for(252).standard_normal(2000)
        log_weights[::7] = -np.inf
        cdf, log_total = _pool_weights(log_weights, 0)
        np.testing.assert_array_equal(cdf, np.cumsum(np.exp(log_weights - log_weights.max())))
        assert log_total == pytest.approx(_logsumexp1d(log_weights), rel=0, abs=1e-12)
