"""Accept/reject filtering core: stopping times, pools, and estimates."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from alivetwist import (
    AbcKernel,
    LinearGaussianParams,
    NormConstEstimate,
    ParticleDeathError,
    ParticleGeneration,
    StoppingTimeCapError,
    alive_filter,
    bootstrap_filter,
    kalman_log_marginal,
    lg_model,
    sample_until_alive,
    simulate,
)
from alivetwist.models import HmmModel
from alivetwist.smc import _batch_schedule

from helpers import lg_abc_grid_log_marginal, monte_carlo_z, stream_for

SRC = Path(__file__).resolve().parents[1] / "src"


class BinaryKernel:
    """Treats the proposed pseudo-observations themselves as 0/1 weights."""

    def weights(self, simulated, observed):
        return np.asarray(simulated, dtype=np.int64)


def scripted_proposer(pattern):
    """propose(stream, count) feeding a fixed global acceptance pattern."""
    pattern = np.asarray(pattern, dtype=np.int64)
    cursor = [0]

    def propose(stream, count):
        start = cursor[0]
        cursor[0] = start + count
        taken = pattern[start : start + count]
        if taken.size < count:  # pattern exhausted: everything else rejects
            taken = np.concatenate([taken, np.zeros(count - taken.size, dtype=np.int64)])
        return {"pseudo_obs": taken, "tag": np.arange(start, start + count)}

    return propose


class TestErrors:
    def test_cap_error_carries_context(self):
        err = StoppingTimeCapError(step=3, drawn=100, accepted=2, target=5, cap=100)
        assert (err.step, err.drawn, err.accepted, err.target, err.cap) == (3, 100, 2, 5, 100)
        assert "step 3" in str(err) and "2/5" in str(err)

    def test_particle_death_carries_step(self):
        err = ParticleDeathError(step=7)
        assert err.step == 7 and "step 7" in str(err)

    def test_generation_validation_survives_optimisation(self):
        """validate raises ValueError on a broken pool even under python -O,
        which strips assert statements."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        script = (
            "import numpy as np; from alivetwist import ParticleGeneration\n"
            "pool = ParticleGeneration(np.zeros(3), np.zeros(3), np.array([0, 2, 1]), 3)\n"
            "try:\n    pool.validate(3)\nexcept ValueError as err:\n    print(err)"
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "weights must be binary"


class TestNormConstEstimate:
    def test_total_is_sum_of_factors(self):
        est = NormConstEstimate.from_log_factors([0.5, -1.25, 2.0])
        assert est.log_total == pytest.approx(0.5 - 1.25 + 2.0, abs=1e-15)
        assert est.log_factors == [0.5, -1.25, 2.0]


class TestBatchSchedule:
    def test_hint_then_doubling(self):
        schedule = _batch_schedule(target=10, batch_hint=25)
        assert [next(schedule) for _ in range(4)] == [25, 50, 100, 200]

    def test_no_hint_starts_at_twice_target_or_64(self):
        assert next(_batch_schedule(10, None)) == 64
        assert next(_batch_schedule(100, None)) == 200

    def test_sizes_never_exceed_max_batch(self):
        schedule = _batch_schedule(10, 1 << 17)
        sizes = [next(schedule) for _ in range(6)]
        assert max(sizes) == 1 << 18


class TestSampleUntilAlive:
    def test_validates_target_and_cap(self):
        with pytest.raises(ValueError):
            sample_until_alive(scripted_proposer([1]), BinaryKernel(), 0, 0, 10, stream_for(0))
        with pytest.raises(ValueError):
            sample_until_alive(scripted_proposer([1]), BinaryKernel(), 0, 5, 4, stream_for(0))

    def test_stops_exactly_at_target_acceptance(self):
        pattern = [0, 1, 0, 0, 1, 1, 0, 1, 1, 1]
        pool, stop = sample_until_alive(
            scripted_proposer(pattern), BinaryKernel(), 0, 3, 100, stream_for(0)
        )
        assert stop == 6  # third acceptance sits at position 6 (1-based)
        np.testing.assert_array_equal(pool["weights"], [0, 1, 0, 0, 1, 1])
        np.testing.assert_array_equal(pool["tag"], np.arange(6))
        assert pool["weights"][-1] == 1

    def test_result_independent_of_batching(self):
        pattern = (np.arange(400) % 7 == 3).astype(int)
        reference = None
        for hint in (None, 2, 3, 64, 399):
            pool, stop = sample_until_alive(
                scripted_proposer(pattern), BinaryKernel(), 0, 20, 1000, stream_for(0),
                batch_hint=hint,
            )
            if reference is None:
                reference = (pool, stop)
            else:
                assert stop == reference[1]
                for name in ("pseudo_obs", "weights", "tag"):
                    np.testing.assert_array_equal(pool[name], reference[0][name])

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
            return {"pseudo_obs": np.zeros(count, dtype=np.int64)}

        with pytest.raises(StoppingTimeCapError):
            sample_until_alive(propose, BinaryKernel(), 0, 2, 137, stream_for(0))
        assert sum(drawn) == 137

    def test_stopping_time_law_is_negative_binomial(self):
        """T - target counts failures before the target-th success, so T
        follows a shifted negative binomial; chi-square GoF against scipy."""
        rate, target, reps = 0.3, 5, 20_000
        stream = stream_for(210)

        class ThresholdKernel:
            def weights(self, simulated, observed):
                return (np.asarray(simulated) < rate).astype(np.int64)

        def propose(stream, count):
            return {"pseudo_obs": stream.random(count)}

        stops = np.array([
            sample_until_alive(propose, ThresholdKernel(), 0.0, target, 10**6, stream)[1]
            for _ in range(reps)
        ])
        law = stats.nbinom(target, rate)
        edges = np.arange(target, 61)
        expected = np.array(
            [law.pmf(t - target) * reps for t in edges[:-1]] + [law.sf(60 - target - 1) * reps]
        )
        observed = np.array(
            [np.sum(stops == t) for t in edges[:-1]] + [np.sum(stops >= 60)]
        )
        keep = expected >= 5
        chi2 = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
        dof = int(keep.sum()) - 1
        assert chi2 < stats.chi2(dof).ppf(0.999)


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

    def test_structural_invariants_every_step(self):
        model = self._lg()
        kernel = AbcKernel(epsilon=1.2, mode="absolute")
        _, observations = simulate(model, 30, stream_for(213))
        generations, estimate = alive_filter(model, kernel, observations, 15, stream=stream_for(214))
        prev_stop = None
        for generation in generations:
            generation.validate(15, prev_stop)
            prev_stop = generation.stopping_time
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
