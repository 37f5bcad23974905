"""Accept/reject filtering core: stopping times, pools, and estimates."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from alivetwist import (
    DEFAULT_TRIAL_CAP,
    AbcKernel,
    EarlyRejection,
    LinearGaussianParams,
    NormConstEstimate,
    ParticleDeathError,
    ParticleGeneration,
    StochasticVolatilityParams,
    StoppingTimeCapError,
    alive_filter,
    alive_twisted_filter,
    bootstrap_filter,
    kalman_log_marginal,
    lg_model,
    lg_twist,
    rejection_floor,
    sample_until_alive,
    simulate,
    sv_model,
    sv_twist,
)
from alivetwist.configs import FILTERS
from alivetwist.models import HmmModel
from alivetwist.selftest import synthetic_sv_record
from alivetwist.smc import (
    _MAX_BATCH,
    _SPECULATION,
    NOISE_BLOCK,
    _floor_cap,
    alive_proposer,
    pseudo_observer,
)

from helpers import (
    ScriptedStream,
    lg_abc_grid_log_marginal,
    monte_carlo_z,
    stream_for,
    validate_generation,
)


class BinaryKernel:
    """Treats the proposed pseudo-observations themselves as 0/1 weights."""

    def weights(self, simulated, observed):
        return np.asarray(simulated, dtype=np.int64)


def scripted_proposer(pattern):
    """propose(stream, count) feeding a fixed global acceptance pattern.

    Each proposal's state is its position in the pattern (its tag).  The
    requested counts are recorded, in order, in ``propose.sizes``.
    """
    pattern = np.asarray(pattern, dtype=np.int64)
    cursor = [0]

    def propose(stream, count):
        propose.sizes.append(count)
        start = cursor[0]
        cursor[0] = start + count
        taken = pattern[start : start + count]
        if taken.size < count:  # pattern exhausted: everything else rejects
            taken = np.concatenate([taken, np.zeros(count - taken.size, dtype=np.int64)])
        return {"pseudo_obs": taken, "states": np.arange(start, start + count)}

    propose.sizes = []
    return propose


class TestErrors:
    def test_cap_error_carries_context(self):
        err = StoppingTimeCapError(step=3, drawn=100, accepted=2, target=5, cap=100)
        assert (err.step, err.drawn, err.accepted, err.target, err.cap) == (3, 100, 2, 5, 100)
        assert "step 3" in str(err) and "2/5" in str(err)

    def test_particle_death_carries_step(self):
        err = ParticleDeathError(step=7)
        assert err.step == 7 and "step 7" in str(err)

    @staticmethod
    def _inputs():
        """(model, kernel, twist) for any of the four filters."""
        params = LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0)
        return lg_model(params), AbcKernel(epsilon=1.0, mode="absolute"), lg_twist(params, 2)

    @pytest.mark.parametrize("algo, n_particles, refused", [
        ("alive", 1, "need at least 2 particles"),
        ("alive-twisted", 1, "need at least 2 particles"),
        ("bootstrap", 0, "need at least 1 particle"),
        ("twisted-bootstrap", 1, "need at least 2 particles"),
    ])
    def test_filters_refuse_a_missing_stream_or_too_few_particles(self, algo, n_particles, refused):
        inputs = (*self._inputs(), [0.0])
        run = FILTERS[algo].run
        with pytest.raises(ValueError, match="^an explicit random stream is required$"):
            run(*inputs, 10, DEFAULT_TRIAL_CAP, None)
        with pytest.raises(ValueError, match=f"^{refused}, got {n_particles}$"):
            run(*inputs, n_particles, DEFAULT_TRIAL_CAP, stream_for(0))

    @pytest.mark.parametrize("algo", sorted(FILTERS))
    @pytest.mark.parametrize("record, refused", [
        ([], "need at least one observation"),
        ([0.0, np.nan], "observations must be finite"),
        ([np.inf], "observations must be finite"),
        (np.zeros(()), "observations must be a 1-d record"),
        (np.zeros((5, 1)), "observations must be a 1-d record"),
        (np.zeros((5, 2)), "observations must be a 1-d record"),
    ], ids=["empty", "nan", "inf", "0-d", "column", "two-column"])
    def test_filters_refuse_an_empty_or_non_finite_record(self, algo, record, refused):
        with pytest.raises(ValueError, match=f"^{refused}$"):
            FILTERS[algo].run(*self._inputs(), record, 10, DEFAULT_TRIAL_CAP, stream_for(0))


class TestNormConstEstimate:
    def test_total_is_sum_of_factors(self):
        est = NormConstEstimate.from_log_factors([0.5, -1.25, 2.0])
        assert est.log_total == pytest.approx(0.5 - 1.25 + 2.0, abs=1e-15)
        assert est.log_factors == [0.5, -1.25, 2.0]

    def test_total_adds_left_to_right(self):
        """A compensated sum (the builtin's from Python 3.12 on) gives 1.0 here."""
        assert NormConstEstimate.from_log_factors([1e16, 1.0, -1e16]).log_total == 0.0

    @pytest.mark.parametrize("algo", sorted(FILTERS))
    def test_total_is_the_last_running_sum(self, algo):
        """The total equals the last ``cumulative_log_z`` the CLI writes.  On
        these runs the builtin ``sum`` of Python 3.12 differs from it for all
        four filters."""
        params = LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0)
        model = lg_model(params)
        _, observations = simulate(model, 50, stream_for(6))
        kernel = AbcKernel(epsilon=1.0, mode="absolute")
        _, estimate = FILTERS[algo].run(model, kernel, lg_twist(params, 2),
                                        observations, 20, DEFAULT_TRIAL_CAP, stream_for(7))
        assert estimate.log_total == float(np.cumsum(estimate.log_factors)[-1])


class TestBatchSchedule:
    """Batch sizes requested by sample_until_alive, read off a scripted proposer."""

    @staticmethod
    def _sizes(pattern, target, cap, batch_hint=None):
        propose = scripted_proposer(pattern)
        try:
            sample_until_alive(propose, BinaryKernel(), 0, target, cap, stream_for(0),
                               batch_hint=batch_hint)
        except StoppingTimeCapError:
            pass
        return propose.sizes

    def test_hint_then_doubling(self):
        """Sizes double while nothing has been accepted."""
        assert self._sizes([], target=10, cap=375, batch_hint=25) == [25, 50, 100, 200]

    def test_no_hint_starts_at_twice_target_or_64(self):
        assert self._sizes(np.ones(300), 10, 1000) == [64]
        assert self._sizes(np.ones(300), 100, 1000) == [200]

    def test_top_up_follows_acceptance_rate(self):
        """After a short batch the next size is ceil(1.2 (target - accepted) drawn / accepted)."""
        pattern = np.zeros(400, dtype=int)
        pattern[3:36:4] = 1  # 9 acceptances in the first 40
        pattern[43:99:8] = 1  # 7 more in the next 59
        pattern[99:] = 1
        sizes = self._sizes(pattern, target=20, cap=1000, batch_hint=40)
        first = math.ceil(1.2 * (20 - 9) * 40 / 9)
        second = math.ceil(1.2 * (20 - 16) * (40 + first) / 16)
        assert (first, second) == (59, 30)
        assert sizes == [40, first, second]

    def test_first_batch_speculates_at_most_past_target(self):
        """Before any acceptance the step is known to need ``target`` proposals;
        the first batch goes at most ``_SPECULATION`` past that."""
        assert self._sizes(np.ones(2000), 10, 10_000, batch_hint=1000) == [10 + _SPECULATION]
        assert self._sizes(np.ones(2000), 1000, 10_000) == [1000 + _SPECULATION]

    def test_top_up_speculates_at_most_past_the_need(self):
        """A top-up is ceil(need) + _SPECULATION once 20% of the need exceeds _SPECULATION."""
        pattern = np.zeros(20_000, dtype=int)
        pattern[9:1000:10] = 1  # 100 acceptances in the first 1000
        pattern[1000:] = 1
        sizes = self._sizes(pattern, target=1000, cap=20_000, batch_hint=1000)
        need = (1000 - 100) * 1000 / 100
        assert math.ceil(1.2 * need) > math.ceil(need) + _SPECULATION
        assert sizes == [1000, math.ceil(need) + _SPECULATION]

    def test_top_up_clipped_to_remaining_cap(self):
        pattern = np.zeros(100, dtype=int)
        pattern[0] = 1  # rate 1/10 asks for 108 more, but only 20 remain
        propose = scripted_proposer(pattern)
        with pytest.raises(StoppingTimeCapError) as info:
            sample_until_alive(propose, BinaryKernel(), 0, 10, 30, stream_for(0), batch_hint=10)
        assert propose.sizes == [10, 20]
        assert info.value.drawn == 30 and info.value.accepted == 1

    def test_sizes_never_exceed_max_batch(self):
        """Doubling with no acceptance stops growing at _MAX_BATCH and the
        batches still spend the whole cap."""
        sizes = self._sizes([], 10, 3 * _MAX_BATCH, batch_hint=_MAX_BATCH // 2)
        assert max(sizes) == _MAX_BATCH
        assert sum(sizes) == 3 * _MAX_BATCH


class TestSampleUntilAlive:
    def test_validates_target_and_cap(self):
        with pytest.raises(ValueError):
            sample_until_alive(scripted_proposer([1]), BinaryKernel(), 0, 0, 10, stream_for(0))
        with pytest.raises(ValueError):
            sample_until_alive(scripted_proposer([1]), BinaryKernel(), 0, 5, 4, stream_for(0))

    def test_stops_exactly_at_target_acceptance(self):
        pattern = [0, 1, 0, 0, 1, 1, 0, 1, 1, 1]
        pool = sample_until_alive(
            scripted_proposer(pattern), BinaryKernel(), 0, 3, 100, stream_for(0)
        )
        assert isinstance(pool, ParticleGeneration)
        assert pool.stopping_time == 6  # third acceptance sits at position 6 (1-based)
        np.testing.assert_array_equal(pool.weights, [0, 1, 0, 0, 1, 1])
        np.testing.assert_array_equal(pool.states, np.arange(6))
        assert pool.weights[-1] == 1

    def test_result_independent_of_batching(self):
        """A proposer that reads no stream gives the same pool under any
        schedule, including hints above target + _SPECULATION and (period 50)
        top-ups capped at the need plus _SPECULATION."""
        for period, target in ((7, 20), (50, 40)):
            pattern = (np.arange(100 * period) % period == 3).astype(int)
            reference = None
            for hint in (None, 2, 3, 64, 399, 5000):
                pool = sample_until_alive(
                    scripted_proposer(pattern), BinaryKernel(), 0, target, 10_000, stream_for(0),
                    batch_hint=hint,
                )
                if reference is None:
                    reference = pool
                else:
                    assert pool.stopping_time == reference.stopping_time
                    np.testing.assert_array_equal(pool.weights, reference.weights)
                    np.testing.assert_array_equal(pool.states, reference.states)

    def test_cap_exhaustion_raises_with_counts(self):
        with pytest.raises(StoppingTimeCapError) as info:
            sample_until_alive(
                scripted_proposer(np.zeros(500, dtype=int)), BinaryKernel(), 0, 3, 200,
                stream_for(0), step=11,
            )
        assert info.value.step == 11
        assert info.value.drawn == 200
        assert info.value.accepted == 0
        assert info.value.cap == 200

    def test_never_draws_beyond_cap(self):
        drawn = []

        def propose(stream, count):
            drawn.append(count)
            return dict.fromkeys(("states", "pseudo_obs"), np.zeros(count, dtype=np.int64))

        with pytest.raises(StoppingTimeCapError):
            sample_until_alive(propose, BinaryKernel(), 0, 2, 137, stream_for(0))
        assert sum(drawn) == 137

    @staticmethod
    def _stops(rate, target, reps, seed, batch_hint=None):
        """Stopping times of ``reps`` steps with stream-driven Bernoulli(rate) proposals."""
        stream = stream_for(seed)

        class ThresholdKernel:
            def weights(self, simulated, observed):
                return (np.asarray(simulated) < rate).astype(np.int64)

        def propose(stream, count):
            return dict.fromkeys(("states", "pseudo_obs"), stream.random(count))

        return np.array([
            sample_until_alive(propose, ThresholdKernel(), 0.0, target, 10**6, stream,
                               batch_hint=batch_hint).stopping_time
            for _ in range(reps)
        ])

    @staticmethod
    def _assert_negative_binomial(stops, target, rate):
        """Chi-square GoF of T - target against the failures before the target-th success."""
        law = stats.nbinom(target, rate)
        last = target + int(law.ppf(0.999))
        edges = np.arange(target, last + 1)
        expected = np.array(
            [law.pmf(t - target) for t in edges[:-1]] + [law.sf(last - target - 1)]
        ) * stops.size
        observed = np.array(
            [np.sum(stops == t) for t in edges[:-1]] + [np.sum(stops >= last)]
        )
        keep = expected >= 5
        chi2 = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
        dof = int(keep.sum()) - 1
        assert chi2 < stats.chi2(dof).ppf(0.999)

    def test_stopping_time_law_is_negative_binomial(self):
        """T - target counts failures before the target-th success, so T
        follows a shifted negative binomial; chi-square GoF against scipy."""
        rate, target = 0.3, 5
        self._assert_negative_binomial(self._stops(rate, target, 20_000, 210), target, rate)

    @pytest.mark.parametrize("rate, seed", [(0.3, 220), (0.05, 221)])
    def test_stopping_time_law_survives_top_ups(self, rate, seed):
        """A first batch of exactly ``target`` makes nearly every step top up
        by the observed rate; the law of T must not move."""
        target = 5
        stops = self._stops(rate, target, 10_000, seed, batch_hint=target)
        self._assert_negative_binomial(stops, target, rate)

    def test_stopping_time_law_when_the_first_batch_is_capped(self):
        """At target 400 and rate 0.3 the first batch is capped at
        target + _SPECULATION, well short of the ~1333 a step needs, so every
        step tops up; the law of T must not move."""
        rate, target = 0.3, 400
        self._assert_negative_binomial(self._stops(rate, target, 10_000, 222), target, rate)


class BoolKernel:
    """Accepts the nonzero pseudo-observations, as a boolean mask."""

    def weights(self, simulated, observed):
        return np.asarray(simulated) != 0


def cumsum_reference(pattern, target, cap):
    """(stop, accepted) for the first ``cap`` entries of a 0/1 ``pattern``
    (rejections past its end): the stop is the 1-based position where the
    running sum first reaches ``target``, None if it never does."""
    weights = np.zeros(cap, dtype=np.int64)
    head = np.asarray(pattern, dtype=np.int64)[:cap]
    weights[: head.size] = head
    cumulative = np.cumsum(weights)
    if cumulative[-1] < target:
        return None, int(cumulative[-1])
    return int(np.searchsorted(cumulative, target, side="left")) + 1, target


class TestStopAgainstCumsumReference:
    """The pool and stop of sample_until_alive against a cumsum + searchsorted
    reference, on scripted 0/1 patterns scored by an int64 and a bool kernel."""

    @staticmethod
    def _hits(positions, length=200):
        pattern = np.zeros(length, dtype=np.int64)
        pattern[list(positions)] = 1
        return pattern

    @pytest.mark.parametrize("kernel, dtype", [(BinaryKernel(), np.int64), (BoolKernel(), np.bool_)])
    @pytest.mark.parametrize("hits, target, hint, where", [
        ((0,), 1, None, "first"),  # first position of the first batch
        ((0, 5, 10), 3, 10, "first"),  # first position of the top-up
        ((0, 5, 9), 3, 10, "last"),  # last position of the first batch
        ((0, 5, 15), 3, 10, "last"),  # last position of the top-up
        ((3, 20, 50, 90), 4, 4, "spread"),  # acceptances in three of four batches
    ])
    def test_pool_and_stop_match(self, kernel, dtype, hits, target, hint, where):
        pattern = self._hits(hits)
        scripted = scripted_proposer(pattern)

        def propose(stream, count):
            batch = scripted(stream, count)  # states: the tag, then a second column
            batch["states"] = np.column_stack((batch["states"], -0.5 * batch["states"]))
            return batch

        pool = sample_until_alive(propose, kernel, 0, target, 10_000, stream_for(0),
                                  batch_hint=hint)
        stop = pool.stopping_time
        want, _ = cumsum_reference(pattern, target, 10_000)
        assert stop == want
        assert pool.weights.dtype == dtype
        np.testing.assert_array_equal(pool.weights, pattern[:stop])
        np.testing.assert_array_equal(pool.states[:, 0], np.arange(stop))
        np.testing.assert_array_equal(pool.states[:, 1], -0.5 * np.arange(stop))
        head = pattern[: stop - 1] != 0
        np.testing.assert_array_equal(pool.survivors(), pool.states[: stop - 1][head])
        assert len(pool.survivors()) == target - 1

        ends = np.cumsum(scripted.sizes)
        if where == "first":
            assert stop - 1 == (ends[-2] if ends.size > 1 else 0)
        elif where == "last":
            assert stop == ends[-1]
        else:
            batch_of_hit = np.searchsorted(ends, np.flatnonzero(pattern[:stop]), side="right")
            assert np.unique(batch_of_hit).size >= 3

    @pytest.mark.parametrize("kernel", [BinaryKernel(), BoolKernel()])
    @pytest.mark.parametrize("hits", [(), (1, 7), (39,)])
    def test_exhaustion_counts_match(self, kernel, hits):
        pattern = self._hits(hits)
        want_stop, want_accepted = cumsum_reference(pattern, 3, 40)
        assert want_stop is None
        with pytest.raises(StoppingTimeCapError) as info:
            sample_until_alive(scripted_proposer(pattern), kernel, 0, 3, 40, stream_for(0),
                               batch_hint=5)
        assert info.value.drawn == 40
        assert info.value.accepted == want_accepted


class TestAliveFilter:
    def _lg(self):
        return lg_model(LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0))

    def test_requires_stream_particles_and_data(self):
        model = self._lg()
        kernel = AbcKernel(epsilon=1.0, mode="absolute")
        with pytest.raises(ValueError):
            alive_filter(model, kernel, [0.0], 10)
        with pytest.raises(ValueError):
            alive_filter(model, kernel, [0.0], 1, stream=stream_for(0))
        with pytest.raises(ValueError):
            alive_filter(model, kernel, [], 10, stream=stream_for(0))

    def test_accept_everything_gives_exactly_zero_log_total(self):
        """With an accept-all tolerance every step stops at exactly N
        proposals and every factor is log((N-1)/(N-1)) = 0; no drift over a
        long run means the estimate accumulates exactly."""
        model = self._lg()
        kernel = AbcKernel(epsilon=1e12, mode="absolute")
        _, observations = simulate(model, 300, stream_for(211))
        generations, estimate = alive_filter(model, kernel, observations, 10, stream=stream_for(212))
        assert estimate.log_total == 0.0
        assert all(g.stopping_time == 10 for g in generations)

    def test_stopping_time_is_read_off_the_pool(self):
        model = self._lg()
        kernel = AbcKernel(epsilon=1.0, mode="absolute")
        _, observations = simulate(model, 20, stream_for(215))
        generations, _ = alive_filter(model, kernel, observations, 10, stream=stream_for(216))
        assert "stopping_time" not in {f.name for f in dataclasses.fields(generations[0])}
        assert [g.stopping_time for g in generations] == [len(g.states) for g in generations]
        assert any(g.stopping_time > 10 for g in generations)

    def test_structural_invariants_every_step(self):
        model = self._lg()
        kernel = AbcKernel(epsilon=1.2, mode="absolute")
        _, observations = simulate(model, 30, stream_for(213))
        generations, estimate = alive_filter(model, kernel, observations, 15, stream=stream_for(214))
        for generation in generations:
            validate_generation(generation, 15)
        assert estimate.log_total == pytest.approx(sum(estimate.log_factors), abs=1e-12)
        assert math.isclose(
            estimate.log_factors[3],
            math.log(14) - math.log(generations[3].stopping_time - 1),
        )

    def test_deterministic_given_seed(self):
        model = self._lg()
        kernel = AbcKernel(epsilon=1.5, mode="absolute")
        _, observations = simulate(model, 10, stream_for(215))
        gen_a, est_a = alive_filter(model, kernel, observations, 12, stream=stream_for(216))
        gen_b, est_b = alive_filter(model, kernel, observations, 12, stream=stream_for(216))
        assert est_a.log_total == est_b.log_total
        for a, b in zip(gen_a, gen_b):
            np.testing.assert_array_equal(a.states, b.states)
            np.testing.assert_array_equal(a.weights, b.weights)

    def test_tight_tolerance_raises_cap_error(self):
        model = self._lg()
        kernel = AbcKernel(epsilon=1e-9, mode="absolute")
        with pytest.raises(StoppingTimeCapError):
            alive_filter(model, kernel, [100.0], 10, cap=500, stream=stream_for(217))

    def test_unbiased_against_grid_oracle(self):
        """Mean of the estimate over replicates matches the absolute truth
        computed by deterministic grid integration (no filter code shared)."""
        params = LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0)
        model = lg_model(params)
        kernel = AbcKernel(epsilon=1.0, mode="absolute")
        _, observations = simulate(model, 5, stream_for(218))
        truth = lg_abc_grid_log_marginal(params, observations, kernel)
        estimates = np.array([
            math.exp(alive_filter(model, kernel, observations, 20, stream=stream_for(219, rep))[1].log_total)
            for rep in range(2000)
        ])
        assert monte_carlo_z(estimates, math.exp(truth)) < 3.0

    @pytest.mark.parametrize("steps, n_particles, records", [(50, 200, 20), (100, 2000, 3)])
    def test_speculative_waste_is_bounded(self, steps, n_particles, records):
        """Proposals drawn per stored proposal stay below 1.8 on the benchmark's
        linear-Gaussian setting (relative ball 1.5, floor 0.1).  A count, not a
        timing: the same seeds give the same ratio on every machine.  A
        schedule that doubles every top-up draws over 2 per stored proposal here."""
        model = self._lg()

        class CountingKernel:
            def __init__(self, kernel):
                self.kernel = kernel
                self.scored = 0

            def weights(self, simulated, observed):
                self.scored += len(simulated)
                return self.kernel.weights(simulated, observed)

        kernel = CountingKernel(AbcKernel(epsilon=1.5, mode="relative", relative_floor=0.1))
        stored = 0
        for r in range(records):
            _, observations = simulate(model, steps, stream_for(900, r))
            generations, _ = alive_filter(
                model, kernel, observations, n_particles, stream=stream_for(901, r)
            )
            stored += sum(g.stopping_time for g in generations)
        assert kernel.scored / stored <= 1.8


def scripted_model(patterns):
    """A model whose step-t proposals accept or reject as ``patterns[t]`` says.

    Latent states count steps (the initial draw is 0 and each transition adds
    1), so the observation sampler reads the step off the states and feeds
    it from that step's own ``scripted_proposer``: a step sees the same
    proposals in the same order however its batches are sized.  Returns the
    model and the per-step proposers, whose ``sizes`` record every batch.
    """
    proposers = [scripted_proposer(pattern) for pattern in patterns]

    def observe(states, stream):
        return proposers[int(states[0]) - 1](stream, states.size)["pseudo_obs"]

    model = HmmModel(lambda stream, count: np.zeros(count), lambda k, stream: k + 1, observe)
    return model, proposers


def _stopping_pattern(stop, target=5):
    """Acceptances at the first target - 1 proposals and at position ``stop``."""
    pattern = np.zeros(stop, dtype=np.int64)
    pattern[: target - 1] = 1
    pattern[-1] = 1
    return pattern


class TestEarlyRejection:
    """Under a rejection floor the plain alive filter stops only where the full
    run ends at or below the floor, and otherwise returns the full run itself.

    Each case runs the same scripted proposals with and without the floor.
    """

    N = 5

    def _both(self, patterns, log_floor, cap=1000):
        """(full run's estimate, floored run's estimate or EarlyRejection, floored proposers)."""
        observations = np.zeros(len(patterns))
        model, _ = scripted_model(patterns)
        generations, full = alive_filter(model, BinaryKernel(), observations, self.N, cap,
                                         stream_for(0))
        model, proposers = scripted_model(patterns)
        with rejection_floor(log_floor):
            try:
                _, floored = alive_filter(model, BinaryKernel(), observations, self.N, cap,
                                          stream_for(0))
            except EarlyRejection as stop:
                floored = stop
        return generations, full, floored, proposers

    def test_floor_above_zero_rejects_before_drawing(self):
        """Every factor is at most 1, so no run can end above a positive floor."""
        patterns = [np.ones(self.N, dtype=np.int64)] * 3
        _, full, floored, proposers = self._both(patterns, log_floor=0.5)
        assert full.log_total <= 0.5
        assert isinstance(floored, EarlyRejection) and floored.step == 0
        assert all(p.sizes == [] for p in proposers)

    def test_stop_at_a_mid_record_cap(self):
        """After factors 1 and 4/8, a floor of -2 caps step 2 at
        floor(1 + 4 exp(log(1/2) + 2)) = 15 proposals; its stopping time is 40."""
        patterns = [_stopping_pattern(5), _stopping_pattern(9), _stopping_pattern(40),
                    _stopping_pattern(5)]
        generations, full, floored, proposers = self._both(patterns, log_floor=-2.0)
        assert [g.stopping_time for g in generations] == [5, 9, 40, 5]
        assert full.log_total <= -2.0
        assert isinstance(floored, EarlyRejection) and floored.step == 2
        assert sum(proposers[2].sizes) == 15
        assert proposers[3].sizes == []

    @pytest.mark.parametrize("stop, stopped", [(9, False), (10, True)])
    def test_stopping_time_at_the_boundary(self, stop, stopped):
        """A floor of -log 2 puts step 0's bound at 1 + 4 * 2 = 9.  T = 9 ties
        with the floor in exact arithmetic and runs on to the full run's
        estimate, whose rounding decides the test; T = 10 stops."""
        patterns = [_stopping_pattern(stop), _stopping_pattern(5)]
        _, full, floored, proposers = self._both(patterns, log_floor=-math.log(2))
        if stopped:
            assert full.log_total <= -math.log(2)
            assert isinstance(floored, EarlyRejection) and floored.step == 0
            assert sum(proposers[0].sizes) == 9
        else:
            assert floored.log_factors == full.log_factors
            assert floored.log_total == full.log_total

    def test_completed_run_is_the_full_run(self):
        patterns = [_stopping_pattern(5), _stopping_pattern(9), _stopping_pattern(12)]
        _, full, floored, _ = self._both(patterns, log_floor=-3.0)
        assert full.log_total > -3.0
        assert floored.log_factors == full.log_factors

    def test_floor_cap_above_the_hard_cap_changes_nothing(self):
        """A floor far below the estimate leaves the hard cap in charge: the
        same batches, and the same StoppingTimeCapError, as without a floor."""
        patterns = [_stopping_pattern(9), _stopping_pattern(300)]
        observations = np.zeros(2)
        outcomes = []
        for log_floor in (None, -50.0):
            model, proposers = scripted_model(patterns)
            with rejection_floor(log_floor), pytest.raises(StoppingTimeCapError) as info:
                alive_filter(model, BinaryKernel(), observations, self.N, 100, stream_for(0))
            outcomes.append(([p.sizes for p in proposers], info.value.step, info.value.drawn,
                             info.value.accepted))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1:] == (1, 100, 4)

    def test_floor_is_scoped_to_its_block(self):
        patterns = [np.ones(self.N, dtype=np.int64)]
        with rejection_floor(0.5):
            with rejection_floor(None):
                alive_filter(scripted_model(patterns)[0], BinaryKernel(), [0.0], self.N,
                             stream=stream_for(0))
            with pytest.raises(EarlyRejection):
                alive_filter(scripted_model(patterns)[0], BinaryKernel(), [0.0], self.N,
                             stream=stream_for(0))
        alive_filter(scripted_model(patterns)[0], BinaryKernel(), [0.0], self.N,
                     stream=stream_for(0))

    def test_twisted_filter_ignores_the_floor(self):
        """The twisted factor is not bounded by 1, so its estimate is not
        monotone and the floor must not stop it."""
        params = LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0)
        model = lg_model(params)
        _, observations = simulate(model, 10, stream_for(230))
        kernel = AbcKernel(epsilon=1.2, mode="absolute")
        estimates = []
        for log_floor in (None, 0.5):
            with rejection_floor(log_floor):
                _, estimate = alive_twisted_filter(model, kernel, lg_twist(params, 3),
                                                   observations, 20, stream=stream_for(231))
            estimates.append(estimate.log_total)
        assert estimates[0] == estimates[1]


def _block_model():
    """A model with the noise hook whose observation is its noise; every
    block the hook draws is kept, in order, in the returned list."""
    blocks = []

    def observation_noise(stream, size):
        blocks.append(stream.random(size))
        return blocks[-1]

    def observe(k, noise):
        return k + noise

    model = HmmModel(lambda stream, count: np.zeros(count), lambda k, stream: k,
                     lambda k, stream: observe(k, observation_noise(stream, k.shape)),
                     observation_noise=observation_noise, observe=observe)
    return model, blocks


class TestPseudoObserver:
    """A run's observer serves the noise hook's blocks in order, whole."""

    @pytest.mark.parametrize("requests", [
        [1, 99, 500],  # below the block
        [NOISE_BLOCK, NOISE_BLOCK],  # equal to it
        [100, NOISE_BLOCK - 100, 1],  # exactly what is left, then a fresh block
        [NOISE_BLOCK + 1, 3],  # above it
        [700, 700, 2 * NOISE_BLOCK + 5, 10],  # above what is left: the rest plus a fresh draw
        [5, DEFAULT_TRIAL_CAP, 7],  # a cap-sized request
    ])
    def test_served_noise_is_the_prefix_of_the_drawn_blocks(self, requests):
        model, blocks = _block_model()
        observe = pseudo_observer(model)
        assert blocks == []  # nothing is drawn before the first request
        served = [observe(np.zeros(count), stream_for(240)) for count in requests]
        assert [s.size for s in served] == requests
        drawn = np.concatenate(blocks)
        np.testing.assert_array_equal(np.concatenate(served), drawn[: sum(requests)])
        assert all(block.size >= NOISE_BLOCK for block in blocks)
        # a fresh draw comes only when a request exceeds what is left
        assert drawn.size - sum(requests) < blocks[-1].size

    def test_states_enter_through_observe(self):
        model, blocks = _block_model()
        states = np.arange(5.0)
        np.testing.assert_array_equal(pseudo_observer(model)(states, stream_for(241)),
                                      states + blocks[0][:5])

    def test_a_model_without_the_hook_uses_its_sampler(self):
        model = lg_model(LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0))
        assert pseudo_observer(model) is model.observation_sampler

    @pytest.mark.parametrize("twisted", [False, True])
    def test_nothing_outlives_a_run(self, twisted):
        """Two runs of one model on equal streams agree: each run draws its
        own blocks and drops what it leaves."""
        params = StochasticVolatilityParams(F=0.5, nu2=0.01, alpha=1.95, beta=0.05, gamma=0.5)
        model = sv_model(params)
        observations = synthetic_sv_record(242, 10)
        kernel = AbcKernel(epsilon=3.5, mode="relative")
        if twisted:
            run = lambda s: alive_twisted_filter(model, kernel, sv_twist(params, 3),
                                                 observations, 20, stream=s)
        else:
            run = lambda s: alive_filter(model, kernel, observations, 20, stream=s)
        assert (run(stream_for(243))[1].log_factors == run(stream_for(243))[1].log_factors)


class _LoggedStream(ScriptedStream):
    """A ScriptedStream that also records which kind of draw came when."""

    def __init__(self, **queues):
        super().__init__(**queues)
        self.calls = []

    def random(self, size=None):
        self.calls.append("random")
        return super().random(size)

    def standard_normal(self, size=None):
        self.calls.append("standard_normal")
        return super().standard_normal(size)


class TestAliveProposer:
    """The plain proposal: ancestor pick, transition, pseudo-observation."""

    def test_hand_traced_batch(self):
        """Ancestors are floor(n U): the largest uniform below 1 picks index
        n - 1, and draws come as pick, transition, observation."""
        model = lg_model(LinearGaussianParams(phi=0.5, nu2=4.0, tau2=1.0))
        accepted = np.array([10.0, 20.0, 30.0])
        stream = _LoggedStream(
            uniforms=[0.0, 0.5, np.nextafter(1.0, 0.0), 0.34],  # picks 0, 1, 2, 1
            normals=[1.0, -1.0, 0.5, 0.0] + [0.25, 0.0, -1.0, 2.0],  # transition, then observation
        )
        batch = alive_proposer(model, pseudo_observer(model), accepted)(stream, 4)
        # state = 0.5 * ancestor + 2 * z; observation = state + z'
        np.testing.assert_array_equal(batch["states"], [7.0, 8.0, 16.0, 10.0])
        np.testing.assert_array_equal(batch["pseudo_obs"], [7.25, 8.0, 15.0, 12.0])
        assert stream.calls == ["random", "standard_normal", "standard_normal"]
        assert stream.exhausted()

    @pytest.mark.parametrize("n", [2, 3, 7, 199, 1999])
    def test_picks_are_uniform(self, n):
        """Chi-square goodness of fit of 10^5 picks among n accepted states."""
        identity = HmmModel(None, lambda k, stream: k, None)
        propose = alive_proposer(identity, lambda states, stream: states, np.arange(n, dtype=float))
        picks = propose(stream_for(250, n), 100_000)["states"].astype(np.int64)
        assert 0 <= picks.min() and picks.max() < n
        counts = np.bincount(picks, minlength=n)
        assert stats.chisquare(counts).pvalue > 1e-3


class _RecordingKernel:
    """An ``AbcKernel`` that keeps (observed, a copy of the batch, its weights)
    for every batch it scores."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.calls = []

    def weights(self, simulated, observed):
        weights = self.kernel.weights(simulated, observed)
        self.calls.append((float(observed), np.array(simulated), weights))
        return weights


def _calls_before(calls, observed):
    """The batches scored before the first one for ``observed``."""
    return calls[: next((i for i, call in enumerate(calls) if call[0] == observed), len(calls))]


class TestEarlyRejectionWithNoiseBlocks:
    """On the volatility model, whose noise comes in blocks, a floored run
    sees exactly the full run's batches until it stops."""

    N = 20
    PARAMS = StochasticVolatilityParams(F=0.5, nu2=0.01, alpha=1.95, beta=0.05, gamma=0.5)

    def _run(self, log_floor, observations):
        kernel = _RecordingKernel(AbcKernel(epsilon=3.5, mode="relative"))
        with rejection_floor(log_floor):
            try:
                generations, estimate = alive_filter(sv_model(self.PARAMS), kernel, observations,
                                                     self.N, stream=stream_for(245))
            except EarlyRejection as stop:
                generations, estimate = None, stop
        return generations, estimate, kernel.calls

    def _factors(self, calls, observations):
        """Each step's log factor, read off the scored batches."""
        factors = []
        for y in observations:
            weights = np.concatenate([w for obs, _, w in calls if obs == y])
            stop = int(np.searchsorted(np.cumsum(weights), self.N)) + 1
            factors.append(math.log(self.N - 1) - math.log(stop - 1))
        return factors

    def test_floored_run_stops_where_the_full_run_says(self):
        observations = synthetic_sv_record(244, 30)
        generations, full, full_calls = self._run(None, observations)
        log_floor = full.log_total + 0.5  # certain rejection: the full run ends below it
        stop_step, log_partial = None, 0.0
        for t, generation in enumerate(generations):
            try:
                step_cap = _floor_cap(log_partial, log_floor, self.N, DEFAULT_TRIAL_CAP, t)
            except EarlyRejection:
                stop_step = t
                break
            if generation.stopping_time > step_cap:
                stop_step = t
                break
            log_partial += full.log_factors[t]
        assert 0 < stop_step < observations.size - 1

        _, floored, floored_calls = self._run(log_floor, observations)
        assert isinstance(floored, EarlyRejection) and floored.step == stop_step
        y_stop = float(observations[stop_step])
        before, full_before = (_calls_before(floored_calls, y_stop),
                               _calls_before(full_calls, y_stop))
        assert len(before) == len(full_before)
        for (y_a, a, _), (y_b, b, _) in zip(before, full_before):
            assert y_a == y_b
            np.testing.assert_array_equal(a, b)
        assert (self._factors(before, observations[:stop_step])
                == full.log_factors[:stop_step])

    def test_completed_run_is_the_full_run(self):
        observations = synthetic_sv_record(244, 30)
        _, full, _ = self._run(None, observations)
        _, floored, _ = self._run(full.log_total - 5.0, observations)
        assert floored.log_factors == full.log_factors


class _ScriptedGuidance:
    """A constant twist for ``scripted_model``: its guided candidates are
    step-0 states, fed from step 0's own pattern, and the size of every
    ``propose_guided_states`` call is recorded in ``sizes``."""

    def __init__(self):
        self.sizes = []

    def log_h(self, y_window, k):
        return np.zeros(np.shape(k))

    def log_qh_alive(self, y_window, k, kernel):
        return np.zeros(np.shape(k))  # 0-d for the initial law (k None)

    def propose_guided_states(self, k_anc, y_window, stream, count):
        self.sizes.append(count)
        return np.ones(count)


class TestTwistedStepBudget:
    """An alive twisted step draws its guided pair on what the plain pool
    left of the cap, and charges the whole step to a cap error."""

    @pytest.mark.parametrize("stop, guided_sizes", [(20, []), (19, [1])])
    def test_pool_ending_at_the_cap(self, stop, guided_sizes):
        """The pool's 4th (n - 1) acceptance comes at proposal ``stop`` of a
        cap of 20.  At the cap, the step fails without drawing a guided
        candidate; one short, the guided call gets exactly one candidate,
        which the exhausted pattern rejects.  Either way the error charges
        the whole cap and the pool's 4 acceptances."""
        model, proposers = scripted_model([_stopping_pattern(stop, target=4)])
        twist = _ScriptedGuidance()
        with pytest.raises(StoppingTimeCapError) as info:
            alive_twisted_filter(model, BinaryKernel(), twist, [0.0], 5, cap=20,
                                 stream=stream_for(0))
        err = info.value
        assert (err.step, err.drawn, err.accepted, err.target, err.cap) == (0, 20, 4, 5, 20)
        assert twist.sizes == guided_sizes
        assert proposers[0].sizes == [20] + guided_sizes


class TestBootstrapFilter:
    def _lg(self):
        return lg_model(LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0))

    def test_requires_density_stream_and_data(self):
        model = self._lg()
        with pytest.raises(ValueError):
            bootstrap_filter(model, [0.0], 10)
        with pytest.raises(ValueError):
            bootstrap_filter(model, [], 10, stream=stream_for(0))
        silent = HmmModel(
            model.init_state_sampler, model.transition_sampler, model.observation_sampler
        )
        with pytest.raises(ValueError):
            bootstrap_filter(silent, [0.0], 10, stream=stream_for(0))

    def test_particle_death_raises(self):
        model = self._lg()
        dead = HmmModel(
            model.init_state_sampler,
            model.transition_sampler,
            model.observation_sampler,
            log_observation_density=lambda y, k: np.full(np.shape(k), -np.inf),
        )
        with pytest.raises(ParticleDeathError) as info:
            bootstrap_filter(dead, [0.0, 1.0], 10, stream=stream_for(220))
        assert info.value.step == 0

    def test_unbiased_against_kalman(self):
        params = LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0)
        model = lg_model(params)
        _, observations = simulate(model, 10, stream_for(221))
        truth = kalman_log_marginal(params, observations)
        estimates = np.array([
            math.exp(bootstrap_filter(model, observations, 800, stream=stream_for(222, rep))[1].log_total - truth)
            for rep in range(300)
        ])
        assert monte_carlo_z(estimates, 1.0) < 3.0
