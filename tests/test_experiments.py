"""Experiment drivers: log-scale variance, grid sweeps, data loading, chains."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alivetwist import experiments
from alivetwist.configs import GridConfig, PmmhConfig
from alivetwist.experiments import (
    load_observations,
    load_returns,
    log_sample_variance,
    run_sv_pmmh,
    sv_filter_runner,
    variance_grid,
)
from alivetwist.kernels import AbcKernel
from alivetwist.models import (
    LinearGaussianParams,
    StochasticVolatilityParams,
    lg_model,
    simulate,
    sv_model,
)
from alivetwist.pmmh import SvTheta
from alivetwist.rng import SeedSpec, derive_stream
from alivetwist.smc import alive_filter, alive_twisted_filter
from alivetwist.twist import lg_twist, sv_twist

from helpers import stream_for


class TestLogSampleVariance:
    def test_matches_direct_computation_at_safe_scale(self):
        values = stream_for(320).normal(0.0, 0.5, size=40)
        want = math.log(np.var(np.exp(values), ddof=1))
        assert log_sample_variance(values) == pytest.approx(want, rel=1e-10)

    @given(
        shift=st.floats(min_value=-800, max_value=800),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_shift_property(self, shift, seed):
        """Scaling every value by e^c scales the variance by e^{2c}."""
        values = stream_for(321, seed).normal(0.0, 1.0, size=12)
        base = log_sample_variance(values)
        shifted = log_sample_variance(values + shift)
        assert shifted == pytest.approx(base + 2.0 * shift, rel=1e-9, abs=1e-9)

    def test_extreme_scales_stay_finite(self):
        values = stream_for(322).normal(0.0, 1.0, size=20)
        for shift in (-5000.0, 5000.0):
            got = log_sample_variance(values + shift)
            assert got is not None and math.isfinite(got)

    def test_undefined_cases_return_none(self):
        assert log_sample_variance([]) is None
        assert log_sample_variance([1.0]) is None
        assert log_sample_variance([1.0, float("nan")]) is None
        assert log_sample_variance([1.0, float("-inf")]) is None
        assert log_sample_variance([2.5, 2.5, 2.5]) is None


def _grid_config(**overrides):
    base = dict(
        phi=0.9,
        nu2_values=[1.0],
        tau2_values=[1.0, 2.0],
        replicates=3,
        steps=4,
        n_particles=10,
        epsilon=2.0,
        lag=2,
        cap=100_000,
        mode="absolute",
    )
    base.update(overrides)
    return GridConfig(**base)


class TestVarianceGrid:
    def test_row_layout_and_stream_assignment(self):
        """Each cell's replicate estimates are reproducible from the documented
        (master_seed, stream_id) layout: data stream at index*stride, then
        alternating alive/twisted replicate streams."""
        config = _grid_config()
        master = 7040
        rows = variance_grid(config, master)
        assert [(r["nu2"], r["tau2"]) for r in rows] == [(1.0, 1.0), (1.0, 2.0)]
        stride = 2 * config.replicates + 1
        for index, row in enumerate(rows):
            assert row["status"] == "ok"
            params = LinearGaussianParams(config.phi, row["nu2"], row["tau2"])
            model = lg_model(params)
            kernel = AbcKernel(config.epsilon, config.mode)
            _, observations = simulate(
                model, config.steps, derive_stream(SeedSpec(master, index * stride))
            )
            alive_logs, twisted_logs = [], []
            for replicate in range(config.replicates):
                base = index * stride + 1 + 2 * replicate
                _, est = alive_filter(
                    model, kernel, observations, config.n_particles, config.cap,
                    derive_stream(SeedSpec(master, base)),
                )
                alive_logs.append(est.log_total)
                _, est = alive_twisted_filter(
                    model, kernel, lg_twist(params, config.lag), observations,
                    config.n_particles, config.cap, derive_stream(SeedSpec(master, base + 1)),
                )
                twisted_logs.append(est.log_total)
            assert row["log_var_alive"] == log_sample_variance(alive_logs)
            assert row["log_var_twisted"] == log_sample_variance(twisted_logs)
            assert row["log_var_diff"] == row["log_var_alive"] - row["log_var_twisted"]

    def test_worker_pool_reproduces_serial_rows(self):
        config = _grid_config(replicates=2, tau2_values=[1.0])
        serial = variance_grid(config, 7041, workers=1)
        pooled = variance_grid(config, 7041, workers=2)
        assert serial == pooled

    @pytest.mark.parametrize("workers, tasks, want", [(64, 2, 2), (2, 5, 2)])
    def test_parallel_map_starts_no_more_workers_than_tasks(self, monkeypatch, workers,
                                                             tasks, want):
        """Under fork the executor starts all ``max_workers`` processes at once,
        so the pool is sized to the tasks; a recording executor stands in for
        the real one, so no process starts."""
        started = []

        class SerialExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialExecutor)
        assert experiments.parallel_map(abs, range(-tasks, 0), workers) == list(range(tasks, 0, -1))
        assert started == [want]

    def test_cap_exhaustion_is_reported_not_raised(self):
        config = _grid_config(epsilon=1e-9, cap=50)
        rows = variance_grid(config, 7042)
        for row in rows:
            assert row["status"] == "cap_exceeded"
            assert "cap" in row["reason"]
            assert row["log_var_alive"] is None and row["log_var_diff"] is None

    def test_constant_estimator_is_reported_degenerate(self):
        """An accept-everything tolerance makes the plain alive estimate exactly
        1 in every replicate; the cell must say so instead of dividing by zero."""
        config = _grid_config(epsilon=1e12, lag=0)
        rows = variance_grid(config, 7043)
        for row in rows:
            assert row["status"] == "degenerate"
            assert row["log_var_alive"] is None


class TestLoadReturns:
    def _write(self, tmp_path, text, name="prices.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_round_trip(self, tmp_path):
        prices = [100.0, 101.5, 99.75, 103.2]
        lines = ["date,close"] + [
            f"2024-01-{2 + i:02d},{p}" for i, p in enumerate(prices)
        ]
        path = self._write(tmp_path, "\n".join(lines) + "\n")
        got = load_returns(path)
        np.testing.assert_allclose(got, np.diff(np.log(prices)), rtol=1e-12)

    def test_headerless_and_blank_lines(self, tmp_path):
        path = self._write(tmp_path, "2024-01-02,10.0\n\n2024-01-03,20.0\n")
        np.testing.assert_allclose(load_returns(path), [math.log(2.0)], rtol=1e-12)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """Excel's "CSV UTF-8" starts the file with a BOM; the first date is still ISO."""
        path = self._write(tmp_path, "\ufeff2020-01-01,10.0\n2020-01-02,20.0\n")
        np.testing.assert_allclose(load_returns(path), [math.log(2.0)], rtol=1e-12)

    @pytest.mark.parametrize(
        "text",
        [
            "2024-01-02,10.0\n2024-01-03,-1.0\n",  # non-positive price
            "2024-01-03,10.0\n2024-01-02,11.0\n",  # dates not ascending
            "2024-01-02,10.0\n2024-01-02,11.0\n",  # duplicate date
            "not-a-date,10.0\n2024-01-03,11.0\n",  # bad date below the header slot
            "2024-01-02,10.0\n2024-01-03,abc\n",  # bad price past the header
            "2024-01-02,10.0\n",  # only one price
            "2024-01-02\n2024-01-03,10.0\n",  # missing price column
        ],
    )
    def test_malformed_inputs(self, tmp_path, text):
        path = self._write(tmp_path, text)
        with pytest.raises(ValueError):
            load_returns(path)

    @pytest.mark.parametrize("price", ["nan", "inf", "1e400"])
    def test_non_finite_price(self, tmp_path, price):
        path = self._write(tmp_path, f"2024-01-02,10.0\n2024-01-03,{price}\n")
        with pytest.raises(ValueError, match="finite"):
            load_returns(path)


class TestLoadObservations:
    def _write(self, tmp_path, text):
        path = tmp_path / "obs.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_picks_named_column(self, tmp_path):
        path = self._write(tmp_path, "step,observation,extra\n0,1.5,9\n1,-2.25,9\n")
        np.testing.assert_allclose(load_observations(path), [1.5, -2.25])

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """Excel's "CSV UTF-8" starts the file with a BOM before the header."""
        path = self._write(tmp_path, "\ufeffobservation\n1.5\n-2.25\n")
        np.testing.assert_array_equal(load_observations(path), [1.5, -2.25])

    def test_custom_column_and_truncation(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
        np.testing.assert_allclose(load_observations(path, column="b"), [2.0, 4.0, 6.0])

    @pytest.mark.parametrize(
        "text",
        [
            "",  # empty file
            "a,b\n",  # no data rows
            "a,b\n1\n",  # short row
            "a,b\n1,x\n",  # non-numeric cell
            "a,b\n1,2\n",  # requested column missing (loaded with default name)
        ],
    )
    def test_malformed_inputs(self, tmp_path, text):
        path = self._write(tmp_path, text)
        with pytest.raises(ValueError):
            load_observations(path)

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e400"])
    def test_non_finite_value(self, tmp_path, value):
        path = self._write(tmp_path, f"observation\n1.0\n{value}\n")
        with pytest.raises(ValueError, match=":3: observation .* is not finite"):
            load_observations(path)


def _pmmh_config(**overrides):
    base = dict(
        iterations=5,
        n_particles=10,
        epsilon=3.5,
        lag=5,
        cap=100_000,
        alpha=1.95,
        beta=0.05,
        delta=0.0,
        burn_in_fraction=0.1,
        acf_max_lag=50,
        mode="relative",
    )
    base.update(overrides)
    return PmmhConfig(**base)


class TestSvRunners:
    def _observations(self):
        params = StochasticVolatilityParams(F=0.5, nu2=0.01, alpha=1.95, beta=0.05, gamma=0.5)
        _, observations = simulate(sv_model(params), 10, stream_for(323))
        return observations

    def test_unknown_algo(self):
        """An unknown name fails when the runner is built, before any draw."""
        with pytest.raises(KeyError, match="smoother"):
            sv_filter_runner(self._observations(), _pmmh_config(), "smoother")

    @pytest.mark.parametrize("algo", ["alive", "alive-twisted"])
    def test_hook_matches_direct_filter_call(self, algo):
        observations = self._observations()
        config = _pmmh_config()
        theta = SvTheta(0.4, 0.02, 0.6)
        _, got = sv_filter_runner(observations, config, algo)(theta, stream_for(325))
        params = StochasticVolatilityParams(
            F=theta.F, nu2=theta.nu2, alpha=config.alpha, beta=config.beta,
            gamma=theta.gamma, delta=config.delta,
        )
        model = sv_model(params)
        kernel = AbcKernel(config.epsilon, config.mode)
        if algo == "alive":
            _, want = alive_filter(
                model, kernel, observations, config.n_particles, config.cap, stream_for(325)
            )
        else:
            _, want = alive_twisted_filter(
                model, kernel, sv_twist(params, config.lag), observations,
                config.n_particles, config.cap, stream_for(325),
            )
        assert got.log_total == want.log_total

    def test_chain_run_records_and_reproduces(self):
        observations = self._observations()
        config = _pmmh_config()
        record = run_sv_pmmh(observations, config, "alive-twisted", 326, stream_id=3)
        assert len(record.thetas) == config.iterations + 1
        again = run_sv_pmmh(observations, config, "alive-twisted", 326, stream_id=3)
        np.testing.assert_array_equal(record.theta_field("F"), again.theta_field("F"))
        np.testing.assert_array_equal(record.log_zhats, again.log_zhats)
        other = run_sv_pmmh(observations, config, "alive-twisted", 326, stream_id=4)
        assert not np.array_equal(record.theta_field("F"), other.theta_field("F"))
