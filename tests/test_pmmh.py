"""Pseudo-marginal chain: diagnostics, priors, proposals, and the kernel law."""

import math

import numpy as np
import pytest
from scipy import stats

from alivetwist.pmmh import (
    ChainRecord,
    PmmhState,
    SvPriorSpec,
    SvProposalSpec,
    SvTheta,
    acf,
    pmmh_step,
    run_chain,
    sv_log_prior,
    sv_propose,
    sv_sample_prior,
)
from alivetwist import smc
from alivetwist.configs import PmmhConfig
from alivetwist.experiments import sv_filter_runner
from alivetwist.rng import gaussian
from alivetwist.selftest import synthetic_sv_record
from alivetwist.smc import (
    BootstrapGeneration,
    EarlyRejection,
    NormConstEstimate,
    StoppingTimeCapError,
    rejection_floor,
)

from helpers import ScriptedStream, stream_for


class TestAcf:
    def test_validation(self):
        with pytest.raises(ValueError):
            acf(np.zeros((3, 3)), 1)
        with pytest.raises(ValueError):
            acf([1.0, 2.0, 3.0], -1)
        with pytest.raises(ValueError):
            acf([1.0, 2.0, 3.0], 3)
        with pytest.raises(ValueError):
            acf([2.0, 2.0, 2.0, 2.0], 1)

    def test_lag_zero_is_one(self):
        values = stream_for(300).standard_normal(50)
        assert acf(values, 0)[0] == 1.0

    def test_matches_correlate_route(self):
        """Same quantity via numpy's correlation kernel instead of per-lag dots."""
        values = stream_for(301).standard_normal(200)
        centred = values - values.mean()
        full = np.correlate(centred, centred, mode="full")[len(values) - 1 :]
        want = full / full[0]
        np.testing.assert_allclose(acf(values, 20), want[:21], atol=1e-12)

    def test_white_noise_decorrelated(self):
        values = stream_for(302).standard_normal(4000)
        assert np.abs(acf(values, 20)[1:]).max() < 0.08

    def test_ar1_geometric_decay(self):
        stream = stream_for(303)
        phi = 0.7
        n = 50_000
        noise = stream.standard_normal(n)
        values = np.empty(n)
        values[0] = noise[0]
        for t in range(1, n):
            values[t] = phi * values[t - 1] + noise[t]
        got = acf(values, 5)
        assert abs(got[1] - phi) < 0.02
        assert abs(got[5] - phi**5) < 0.03


class TestSvPrior:
    def test_impossible_regions(self):
        spec = SvPriorSpec()
        assert sv_log_prior(spec, SvTheta(0.5, -1.0, 0.5)) == float("-inf")
        assert sv_log_prior(spec, SvTheta(0.5, 0.01, 0.0)) == float("-inf")
        assert sv_log_prior(spec, SvTheta(float("nan"), 0.01, 0.5)) == float("-inf")

    @pytest.mark.parametrize(
        "spec",
        [
            SvPriorSpec(),
            SvPriorSpec(f_mean=0.2, f_var=0.4, inv_nu2_shape=3.0, inv_nu2_scale=7.0,
                        inv_gamma_shape=1.5, inv_gamma_scale=2.5),
        ],
    )
    def test_density_against_scipy(self, spec):
        """A Gamma prior on 1/x is an inverse-gamma density on x itself."""
        for theta in (SvTheta(0.5, 0.01, 0.5), SvTheta(-0.3, 0.2, 1.7)):
            want = (
                stats.norm.logpdf(theta.F, spec.f_mean, math.sqrt(spec.f_var))
                + stats.invgamma.logpdf(theta.nu2, spec.inv_nu2_shape, scale=1.0 / spec.inv_nu2_scale)
                + stats.invgamma.logpdf(theta.gamma, spec.inv_gamma_shape, scale=1.0 / spec.inv_gamma_scale)
            )
            assert sv_log_prior(spec, theta) == pytest.approx(want, rel=1e-12)

    def test_sampler_matches_density(self):
        spec = SvPriorSpec()
        stream = stream_for(304)
        draws = [sv_sample_prior(spec, stream) for _ in range(4000)]
        f = np.array([d.F for d in draws])
        inv_nu2 = np.array([1.0 / d.nu2 for d in draws])
        inv_gamma = np.array([1.0 / d.gamma for d in draws])
        assert stats.kstest(f, "norm", args=(spec.f_mean, math.sqrt(spec.f_var))).pvalue > 1e-3
        assert stats.kstest(inv_nu2, "gamma", args=(spec.inv_nu2_shape, 0, spec.inv_nu2_scale)).pvalue > 1e-3
        assert stats.kstest(inv_gamma, "gamma", args=(spec.inv_gamma_shape, 0, spec.inv_gamma_scale)).pvalue > 1e-3


class TestSvProposal:
    def test_hand_traced_candidate_and_correction(self):
        spec = SvProposalSpec(f_step_var=4.0, log_step_var=0.25)
        theta = SvTheta(0.5, 0.01, 0.5)
        z1, z2, z3 = 0.3, -1.2, 0.8
        stream = ScriptedStream(normals=[z1, z2, z3])
        candidate, correction = sv_propose(spec, theta, stream)
        assert stream.exhausted()
        assert candidate.F == pytest.approx(0.5 + 2.0 * z1, rel=1e-15)
        assert candidate.nu2 == pytest.approx(0.01 * math.exp(0.5 * z2), rel=1e-12)
        assert candidate.gamma == pytest.approx(0.5 * math.exp(0.5 * z3), rel=1e-12)
        assert correction == pytest.approx(0.5 * z2 + 0.5 * z3, rel=1e-12)

    def test_correction_is_the_density_asymmetry(self):
        """The returned correction equals log q(old|new) - log q(new|old) for
        the log-normal legs (the Gaussian leg on F is symmetric)."""
        spec = SvProposalSpec(f_step_var=1.0, log_step_var=0.5)
        theta = SvTheta(0.1, 0.02, 0.8)
        candidate, correction = sv_propose(spec, theta, stream_for(305))

        def log_q(frm, to):
            sd = math.sqrt(spec.log_step_var)
            total = stats.norm.logpdf(to.F, frm.F, 1.0)
            for a, b in ((frm.nu2, to.nu2), (frm.gamma, to.gamma)):
                total += stats.norm.logpdf(math.log(b), math.log(a), sd) - math.log(b)
            return total

        want = log_q(candidate, theta) - log_q(theta, candidate)
        assert correction == pytest.approx(want, rel=1e-10)


def _bootstrap_gen(states, log_weights):
    return BootstrapGeneration(
        states=np.asarray(states, dtype=float),
        log_weights=np.asarray(log_weights, dtype=float),
    )


def _stub_filter(log_total):
    def run(theta, stream):
        generation = _bootstrap_gen([5.0], [0.0])
        return [generation], NormConstEstimate.from_log_factors([log_total])

    return run


class TestPmmhStep:
    def _state(self):
        return PmmhState(theta=0, log_prior=0.0, log_zhat=0.0)

    def test_accept_branch(self):
        stream = ScriptedStream(uniforms=[0.5])
        state, info = pmmh_step(
            self._state(), _stub_filter(2.0), lambda t: 0.0, lambda t, s: (1, 0.0), stream
        )
        assert stream.exhausted()
        assert info.accepted and not info.cap_exceeded
        assert info.log_ratio == pytest.approx(2.0)
        assert state.theta == 1 and state.log_zhat == 2.0

    def test_reject_branch_keeps_the_state(self):
        stream = ScriptedStream(uniforms=[0.5])
        before = self._state()
        state, info = pmmh_step(
            before, _stub_filter(-5.0), lambda t: 0.0, lambda t, s: (1, 0.0), stream
        )
        assert stream.exhausted()
        assert not info.accepted
        assert info.log_ratio == pytest.approx(-5.0)
        assert state is before

    def test_a_zero_uniform_accepts_without_a_floor_stop(self):
        """u = 0 (probability 2**-53 a draw) reads as log u = -inf: the filter
        runs under a floor of -inf, which stops nothing, and any finite
        estimate clears it, where log(0) would have raised."""
        floors = []

        def run(theta, stream):
            floors.append(smc._REJECTION_FLOOR.get())
            return _stub_filter(-50.0)(theta, stream)

        stream = ScriptedStream(uniforms=[0.0])
        state, info = pmmh_step(self._state(), run, lambda t: 0.0, lambda t, s: (1, 0.0), stream)
        assert stream.exhausted()
        assert floors == [float("-inf")]
        assert info.accepted and state.theta == 1 and state.log_zhat == -50.0

    def test_cap_counts_as_rejection(self):
        def run(theta, stream):
            raise StoppingTimeCapError(3, 10, 0, 5, 10)

        stream = ScriptedStream(uniforms=[0.5])
        state, info = pmmh_step(self._state(), run, lambda t: 0.0, lambda t, s: (1, 0.0), stream)
        assert stream.exhausted()
        assert info.cap_exceeded and not info.accepted
        assert state.theta == 0

    def test_impossible_prior_skips_the_filter(self):
        calls = []

        def run(theta, stream):
            calls.append(theta)
            raise AssertionError("filter must not run for a zero-prior candidate")

        stream = ScriptedStream()
        state, info = pmmh_step(
            self._state(), run, lambda t: float("-inf"), lambda t, s: (1, 0.0), stream
        )
        assert stream.exhausted()
        assert not calls
        assert not info.accepted and not info.cap_exceeded
        assert info.log_ratio == float("-inf")
        assert state.theta == 0

    def test_overflowing_twist_candidate_is_rejected_not_raised(self):
        """F**59 squared overflows a float: the twisted filter runs those steps
        untwisted, so the chain rejects the candidate instead of aborting."""
        config = PmmhConfig(
            iterations=1, n_particles=20, epsilon=3.5, lag=59, cap=2000, alpha=1.95,
            beta=0.05, delta=0.0, burn_in_fraction=0.0, acf_max_lag=1, mode="relative",
        )
        run_filter = sv_filter_runner(synthetic_sv_record(3, 60), config, "alive-twisted")
        before = PmmhState(SvTheta(0.5, 0.01, 0.5), 0.0, -50.0)
        with np.errstate(over="ignore"):
            state, info = pmmh_step(before, run_filter, lambda t: 0.0,
                                    lambda t, s: (SvTheta(1e3, 0.01, 0.5), 0.0), stream_for(316))
        assert not info.accepted
        assert state is before


class TestEarlyRejectionStep:
    def _state(self):
        return PmmhState(theta=0, log_prior=0.0, log_zhat=-1.0)

    def test_filter_runs_under_the_needed_floor(self):
        """needed = log u - (prior ratio + correction) + current log estimate,
        drawn after the candidate and before the filter's own draws."""
        floors = []

        def run(theta, stream):
            floors.append(smc._REJECTION_FLOOR.get())
            return _stub_filter(-1.5)(theta, stream)

        stream = ScriptedStream(uniforms=[0.5])
        state, info = pmmh_step(self._state(), run, lambda t: 0.25 * t, lambda t, s: (1, 0.5),
                                stream)
        assert stream.exhausted()
        assert floors == [pytest.approx(math.log(0.5) - 0.75 - 1.0)]
        assert info.accepted and state.log_zhat == -1.5
        assert smc._REJECTION_FLOOR.get() is None

    def test_early_rejection_is_not_a_cap_event(self):
        def run(theta, stream):
            raise EarlyRejection(4)

        stream = ScriptedStream(uniforms=[0.5])
        before = self._state()
        state, info = pmmh_step(before, run, lambda t: 0.0, lambda t, s: (1, 0.0), stream)
        assert stream.exhausted()
        assert info.early_rejected and not info.cap_exceeded and not info.accepted
        assert state is before

    def test_chain_counts_early_rejections_apart_from_cap_events(self):
        outcomes = iter([EarlyRejection(0), StoppingTimeCapError(0, 10, 0, 5, 10),
                         EarlyRejection(1)])
        floors = []

        def run(theta, stream):
            floors.append(smc._REJECTION_FLOOR.get())
            if len(floors) == 1:  # the initial state
                return _stub_filter(0.0)(theta, stream)
            raise next(outcomes)

        record = run_chain(run, lambda t: 0.0, lambda t, s: (1 - t, 0.0), lambda s: 0, 3,
                           stream_for(315))
        assert floors[0] is None and None not in floors[1:]
        assert (record.early_rejected, record.cap_exceeded) == (2, 1)
        assert record.thetas == [0, 0, 0, 0]

    def test_acceptance_probability_matches_the_full_run(self):
        """For one fixed (state, candidate) on a short volatility record, the
        acceptance rate with the floor and without it agree within 3 SE."""
        config = PmmhConfig(
            iterations=1, n_particles=20, epsilon=3.5, lag=5, cap=1_000_000, alpha=1.95,
            beta=0.05, delta=0.0, burn_in_fraction=0.0, acf_max_lag=1, mode="relative",
        )
        run_filter = sv_filter_runner(synthetic_sv_record(906, 20), config, "alive")
        prior = SvPriorSpec()
        current, candidate = SvTheta(0.5, 0.01, 0.5), SvTheta(0.5, 0.01, 0.55)

        def unfloored(theta, stream):
            with rejection_floor(None):
                return run_filter(theta, stream)

        # The state's log Ẑ is a typical full run at the current theta, so the
        # candidate is accepted about half the time whatever the record drew.
        runs = [unfloored(current, stream_for(909, rep))[1] for rep in range(9)]
        log_z = np.median([estimate.log_total for estimate in runs])
        state = PmmhState(current, sv_log_prior(prior, current), float(log_z))

        reps = 500
        rates, early = [], []
        for arm, runner in enumerate((run_filter, unfloored)):
            infos = [
                pmmh_step(state, runner, lambda t: sv_log_prior(prior, t),
                          lambda t, s: (candidate, 0.0), stream_for(907 + arm, rep))[1]
                for rep in range(reps)
            ]
            rates.append(np.mean([info.accepted for info in infos]))
            early.append(sum(info.early_rejected for info in infos))
        assert early[0] > reps // 4 and early[1] == 0
        pooled = np.mean(rates)
        se = math.sqrt(2 * pooled * (1 - pooled) / reps)
        assert 0.2 < pooled < 0.8
        assert abs(rates[0] - rates[1]) <= 3 * se


class TestRunChain:
    def test_validation(self):
        with pytest.raises(ValueError):
            run_chain(_stub_filter(0.0), lambda t: 0.0, lambda t, s: (t, 0.0),
                      lambda s: 0, -1, stream_for(308))

    def test_zero_iterations(self):
        record = run_chain(_stub_filter(0.0), lambda t: 0.0, lambda t, s: (t, 0.0),
                           lambda s: 7, 0, stream_for(309))
        assert record.thetas == [7]
        assert record.acceptance_rate == 0.0
        np.testing.assert_array_equal(record.accepted, [1])

    def test_initialisation_redraws_on_cap(self):
        draws = iter([1, 2, 3, 4])
        calls = []

        def run(theta, stream):
            calls.append(theta)
            if theta < 4:
                raise StoppingTimeCapError(0, 10, 0, 5, 10)
            return _stub_filter(0.0)(theta, stream)

        record = run_chain(run, lambda t: 0.0, lambda t, s: (t, 0.0),
                           lambda s: next(draws), 0, stream_for(310))
        assert calls == [1, 2, 3, 4]
        assert record.thetas[0] == 4

    def test_initialisation_exhaustion(self):
        def run(theta, stream):
            raise StoppingTimeCapError(0, 10, 0, 5, 10)

        with pytest.raises(RuntimeError):
            run_chain(run, lambda t: 0.0, lambda t, s: (t, 0.0), lambda s: 1,
                      0, stream_for(311))

    def test_impossible_prior_never_runs_the_filter(self):
        def run(theta, stream):
            raise AssertionError("unreachable")

        with pytest.raises(RuntimeError):
            run_chain(run, lambda t: float("-inf"), lambda t, s: (t, 0.0),
                      lambda s: 1, 0, stream_for(312))

    def test_theta_field(self):
        thetas = [SvTheta(0.1, 0.2, 0.3), SvTheta(0.4, 0.5, 0.6)]
        record = ChainRecord(
            thetas=thetas, log_zhats=np.zeros(2), accepted=np.ones(2, dtype=np.int64),
            acceptance_rate=1.0, cap_exceeded=0, iterations=1,
            final_state=PmmhState(thetas[-1], 0.0, 0.0),
        )
        np.testing.assert_allclose(record.theta_field("F"), [0.1, 0.4])
        np.testing.assert_allclose(record.theta_field("gamma"), [0.3, 0.6])


class TestChainLaw:
    """Two-point parameter space with known normalising constants: the chain's
    occupancy must match the posterior, with and without estimator noise."""

    LOG_Z = {0: 0.0, 1: 1.0}

    def _grid_chain(self, seed, noise_var):
        def run(theta, stream):
            noise = gaussian(stream, -0.5 * noise_var, noise_var) if noise_var else 0.0
            generation = _bootstrap_gen([float(theta)], [0.0])
            return [generation], NormConstEstimate.from_log_factors([self.LOG_Z[theta] + noise])

        return run_chain(
            run,
            lambda t: 0.0,
            lambda t, s: (1 - t, 0.0),
            lambda s: int(s.integers(2)),
            20_000,
            stream_for(seed),
        )

    @pytest.mark.parametrize("noise_var", [0.0, 0.5])
    def test_occupancy(self, noise_var):
        record = self._grid_chain(313, noise_var)
        occupancy = np.mean(np.array(record.thetas[500:], dtype=float))
        target = math.exp(1.0) / (1.0 + math.exp(1.0))
        assert abs(occupancy - target) < 0.03
        assert 0.2 < record.acceptance_rate <= 1.0

    def test_deterministic_given_seed(self):
        a = self._grid_chain(314, 0.5)
        b = self._grid_chain(314, 0.5)
        assert a.thetas == b.thetas
        np.testing.assert_array_equal(a.log_zhats, b.log_zhats)
