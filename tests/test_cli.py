"""Command-line interface: exit codes, output formats, and reproducibility."""

import csv
import dataclasses
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from alivetwist import cli, selftest
from alivetwist.configs import parse_model
from alivetwist.models import simulate
from alivetwist.rng import SeedSpec, derive_stream
from alivetwist.selftest import CheckResult

from helpers import src_env

REPO_ROOT = Path(__file__).resolve().parents[1]


LG_CONFIG = {
    "model": {"kind": "linear_gaussian", "phi": 0.9, "nu2": 1.0, "tau2": 1.0},
    "kernel": {"epsilon": 1.5, "mode": "absolute"},
    "filter": {"n_particles": 10, "lag": 3},
    "simulate": {"steps": 6},
}

SV_CONFIG = {
    "model": {
        "kind": "stochastic_volatility",
        "F": 0.5, "nu2": 0.01, "alpha": 1.95, "beta": 0.05, "gamma": 0.5,
    },
    "kernel": {"epsilon": 3.5, "mode": "relative"},
    "filter": {"n_particles": 10, "lag": 5},
    "simulate": {"steps": 6},
}


def _write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _never_called(*args, **kwargs):
    raise AssertionError("a run started despite a bad configuration")


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


@pytest.fixture
def lg_config(tmp_path):
    return _write_json(tmp_path, "lg.json", LG_CONFIG)


@pytest.fixture
def sv_config(tmp_path):
    return _write_json(tmp_path, "sv.json", SV_CONFIG)


@pytest.fixture
def far_record(tmp_path):
    """A finite record whose 1e200 row no particle can reach, and a config
    with an absolute kernel, 10 particles and a proposal cap of 10000."""
    data = tmp_path / "far.csv"
    data.write_text("observation\n0.5\n1e200\n1.0\n", encoding="utf-8")
    config = dict(LG_CONFIG, filter={"n_particles": 10, "lag": 3, "cap": 10000})
    return _write_json(tmp_path, "far.json", config), str(data)


@pytest.fixture
def lg_data(tmp_path, lg_config):
    out = str(tmp_path / "record.csv")
    assert cli.main(["simulate", "--config", lg_config, "--seed", "11", "--out", out]) == 0
    return out


class TestSimulate:
    def test_reproduces_the_library_draw_exactly(self, tmp_path, lg_config):
        out = str(tmp_path / "sim.csv")
        assert cli.main(["simulate", "--config", lg_config, "--steps", "5",
                         "--seed", "42", "--out", out]) == 0
        header, rows = _read_csv(out)
        assert header == ["step", "latent", "observation"]
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]
        from alivetwist.configs import build_model

        model = build_model(parse_model(LG_CONFIG))
        latents, observations = simulate(model, 5, derive_stream(SeedSpec(42, 0)))
        # repr round-trip: parsing the CSV gives back the doubles bit-for-bit
        np.testing.assert_array_equal([float(r[1]) for r in rows], latents)
        np.testing.assert_array_equal([float(r[2]) for r in rows], observations)

    def test_steps_fall_back_to_config(self, tmp_path, lg_config):
        out = str(tmp_path / "sim.csv")
        assert cli.main(["simulate", "--config", lg_config, "--out", out]) == 0
        _, rows = _read_csv(out)
        assert len(rows) == LG_CONFIG["simulate"]["steps"]

    def test_missing_steps_is_a_usage_error(self, tmp_path, capsys):
        config = _write_json(tmp_path, "nosteps.json",
                             {"model": LG_CONFIG["model"]})
        out = str(tmp_path / "sim.csv")
        assert cli.main(["simulate", "--config", config, "--out", out]) == 1
        assert "alivetwist: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section", [5, {"steps": True}])
    def test_malformed_simulate_section_exits_1(self, tmp_path, section, capsys):
        config = _write_json(tmp_path, "sim.json", dict(LG_CONFIG, simulate=section))
        assert cli.main(["simulate", "--config", config, "--out", str(tmp_path / "x.csv")]) == 1
        assert "alivetwist: error:" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        assert cli.main(["simulate", "--config", str(bad), "--steps", "3",
                         "--out", str(tmp_path / "x.csv")]) == 1
        assert "alivetwist: error:" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path, lg_config):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert cli.main(["simulate", "--config", lg_config, "--steps", "8",
                             "--seed", "7", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFilter:
    @pytest.mark.parametrize("algo", ["alive", "bootstrap", "twisted-bootstrap", "alive-twisted"])
    def test_csv_shape_and_internal_consistency(self, tmp_path, lg_config, lg_data, algo):
        out = str(tmp_path / f"{algo}.csv")
        assert cli.main(["filter", "--algo", algo, "--config", lg_config,
                         "--data", lg_data, "--seed", "3", "--out", out]) == 0
        header, rows = _read_csv(out)
        twisted = algo in ("twisted-bootstrap", "alive-twisted")
        want = ["step", "stopping_time", "log_factor", "cumulative_log_z"]
        if twisted:
            want += ["qh_sum", "wh_sum"]
        assert header == want
        assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
        factors = np.array([float(r[2]) for r in rows])
        cumulative = np.array([float(r[3]) for r in rows])
        np.testing.assert_allclose(cumulative, np.cumsum(factors), atol=1e-12)
        stopping = np.array([int(r[1]) for r in rows])
        if algo.startswith("alive"):
            assert (stopping >= LG_CONFIG["filter"]["n_particles"]).all()
        else:
            assert (stopping == LG_CONFIG["filter"]["n_particles"]).all()
        if twisted:
            qh = np.array([float(r[4]) for r in rows])
            wh = np.array([float(r[5]) for r in rows])
            assert (qh > 0).all() and (wh > 0).all()
            if algo == "alive-twisted":
                # this filter's factor is exactly the guidance-sum ratio; the
                # twisted bootstrap's factor carries the pool likelihood too
                np.testing.assert_allclose(np.log(qh) - np.log(wh), factors, rtol=1e-9, atol=1e-9)

    def test_sv_model_routes_to_the_volatility_twist(self, tmp_path, sv_config):
        record = str(tmp_path / "svrecord.csv")
        assert cli.main(["simulate", "--config", sv_config, "--seed", "5",
                         "--out", record]) == 0
        out = str(tmp_path / "svfilter.csv")
        assert cli.main(["filter", "--algo", "alive-twisted", "--config", sv_config,
                         "--data", record, "--seed", "6", "--out", out]) == 0
        _, rows = _read_csv(out)
        assert len(rows) == SV_CONFIG["simulate"]["steps"]
        assert all(math.isfinite(float(r[2])) for r in rows)

    def test_cap_exhaustion_exits_3(self, tmp_path, lg_data, capsys):
        config = dict(LG_CONFIG)
        config["kernel"] = {"epsilon": 1e-9, "mode": "absolute"}
        config["filter"] = {"n_particles": 10, "cap": 50}
        path = _write_json(tmp_path, "tight.json", config)
        out = str(tmp_path / "never.csv")
        assert cli.main(["filter", "--algo", "alive", "--config", path,
                         "--data", lg_data, "--out", out]) == 3
        assert "aborted" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["alive", "bootstrap", "twisted-bootstrap", "alive-twisted"])
    def test_non_finite_observation_exits_1(self, tmp_path, lg_config, algo, capsys):
        data = tmp_path / "nan.csv"
        data.write_text("observation\n0.5\nnan\n1.0\n", encoding="utf-8")
        assert cli.main(["filter", "--algo", algo, "--config", lg_config,
                         "--data", str(data), "--out", str(tmp_path / "x.csv")]) == 1
        assert "not finite" in capsys.readouterr().err

    def test_particle_death_exits_3(self, tmp_path, lg_config, capsys):
        data = tmp_path / "far.csv"
        data.write_text("observation\n0.5\n1e200\n1.0\n", encoding="utf-8")
        with np.errstate(over="ignore"):
            code = cli.main(["filter", "--algo", "bootstrap", "--config", lg_config,
                             "--data", str(data), "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "aborted: particle death at step 1" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["alive", "bootstrap", "twisted-bootstrap", "alive-twisted"])
    def test_extreme_finite_observation_aborts_quietly(self, tmp_path, far_record, algo, capsys):
        config, data = far_record
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            code = cli.main(["filter", "--algo", algo, "--config", config,
                             "--data", data, "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert capsys.readouterr().err.startswith("alivetwist: aborted:")

    @pytest.mark.parametrize("model_config", [LG_CONFIG, SV_CONFIG], ids=["lg", "sv"])
    @pytest.mark.parametrize("algo", ["alive", "alive-twisted"])
    def test_infinite_acceptance_interval_runs(self, tmp_path, model_config, algo):
        """At relative epsilon 3.5 the 1e308 row's half-width overflows, so its
        acceptance interval is the whole line: both alive filters accept every
        proposal there, the twisted one through a mass of 1."""
        data = tmp_path / "huge.csv"
        data.write_text("observation\n0.5\n1e308\n1.0\n", encoding="utf-8")
        config = _write_json(tmp_path, "huge.json", dict(
            model_config, kernel={"epsilon": 3.5, "mode": "relative"},
            filter={"n_particles": 10, "lag": 2, "cap": 10000}))
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["filter", "--algo", algo, "--config", config,
                             "--data", str(data), "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert len(rows) == 3
        assert int(rows[1][1]) == 10  # stopping time: every proposal accepted
        assert all(math.isfinite(float(row[3])) for row in rows)

    @pytest.mark.parametrize("plain, twisted, abort", [
        ("alive", "alive-twisted", "stopping-time cap exceeded at step 0"),
        ("bootstrap", "twisted-bootstrap", "particle death at step 1"),
    ], ids=["alive-twisted", "twisted-bootstrap"])
    def test_lookahead_overflow_runs_untwisted(self, tmp_path, lg_data, plain, twisted, abort,
                                               capsys):
        """phi**lag overflowing a float leaves those steps untwisted: the
        twisted filter then fails exactly where its plain counterpart does."""
        model = dict(LG_CONFIG["model"], phi=1e100)
        config = _write_json(tmp_path, "steep.json", dict(
            LG_CONFIG, model=model, filter={"n_particles": 10, "lag": 5, "cap": 10000}))
        errs = []
        for algo in (plain, twisted):
            assert cli.main(["filter", "--algo", algo, "--config", config,
                             "--data", lg_data, "--out", str(tmp_path / "x.csv")]) == 3
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith(f"alivetwist: aborted: {abort}")

    def test_both_alive_filters_report_the_step_on_cap_errors(self, tmp_path, far_record, capsys):
        config, data = far_record
        messages = []
        for algo in ("alive", "alive-twisted"):
            assert cli.main(["filter", "--algo", algo, "--config", config,
                             "--data", data, "--out", str(tmp_path / "x.csv")]) == 3
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1]
        assert "0/10 acceptances after 10000 of at most 10000 proposals" in messages[0]

    @pytest.mark.parametrize("command, section, key, value", [
        ("simulate", "model", "nu2", float("nan")),
        ("filter", "kernel", "epsilon", float("nan")),
        ("filter", "filter", "n_particles", float("inf")),
    ])
    def test_non_finite_config_number_exits_1(self, tmp_path, lg_data, command, section, key,
                                              value, capsys):
        """json reads NaN and Infinity; they are config errors, not a NaN
        record, a cap abort or an overflow traceback."""
        config = _write_json(tmp_path, "bad.json",
                             dict(LG_CONFIG, **{section: dict(LG_CONFIG[section], **{key: value})}))
        out = str(tmp_path / "out.csv")
        args = ["--config", config, "--out", out]
        if command == "filter":
            args += ["--algo", "alive", "--data", lg_data]
        assert cli.main([command, *args]) == 1
        assert f"key '{key}' must be a finite number" in capsys.readouterr().err
        assert not Path(out).exists()

    def test_missing_data_file_exits_1(self, tmp_path, lg_config, capsys):
        assert cli.main(["filter", "--algo", "alive", "--config", lg_config,
                         "--data", str(tmp_path / "absent.csv"),
                         "--out", str(tmp_path / "x.csv")]) == 1
        assert "alivetwist: error:" in capsys.readouterr().err

    def test_unknown_column_exits_1(self, tmp_path, lg_config, lg_data, capsys):
        assert cli.main(["filter", "--algo", "alive", "--config", lg_config,
                         "--data", lg_data, "--column", "price",
                         "--out", str(tmp_path / "x.csv")]) == 1
        capsys.readouterr()

    def test_unknown_algo_is_a_usage_error(self, tmp_path, lg_config, lg_data, capsys):
        assert cli.main(["filter", "--algo", "smoother", "--config", lg_config,
                         "--data", lg_data, "--out", str(tmp_path / "x.csv")]) == 1
        capsys.readouterr()


class TestVarianceGrid:
    def _config(self, tmp_path, **overrides):
        section = {
            "phi": 0.9,
            "nu2_values": [1.0],
            "tau2_values": [1.0],
            "replicates": 3,
            "steps": 4,
            "n_particles": 10,
            "epsilon": 2.0,
            "lag": 2,
            "mode": "absolute",
        }
        section.update(overrides)
        return _write_json(tmp_path, "grid.json", {"grid": section})

    def test_rows_and_diff_column(self, tmp_path):
        out = str(tmp_path / "grid.csv")
        assert cli.main(["variance-grid", "--config", self._config(tmp_path),
                         "--seed", "9", "--out", out]) == 0
        header, rows = _read_csv(out)
        assert header == ["nu2", "tau2", "status", "log_var_alive",
                          "log_var_twisted", "log_var_diff", "reason"]
        assert len(rows) == 1
        assert rows[0][2] == "ok"
        assert float(rows[0][5]) == float(rows[0][3]) - float(rows[0][4])

    def test_worker_fanout_is_byte_identical(self, tmp_path):
        config = self._config(tmp_path)
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        assert cli.main(["variance-grid", "--config", config, "--seed", "9",
                         "--out", str(serial)]) == 0
        assert cli.main(["variance-grid", "--config", config, "--seed", "9",
                         "--workers", "2", "--out", str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    def test_bad_worker_count_exits_1(self, tmp_path, capsys):
        assert cli.main(["variance-grid", "--config", self._config(tmp_path),
                         "--workers", "0", "--out", str(tmp_path / "x.csv")]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("overrides, message", [
        ({"n_particles": 1}, "n_particles must be at least 2"),
        ({"cap": 9}, "cap must be at least n_particles"),
        ({"lag": -1}, "lag must be nonnegative"),
        ({"epsilon": -1}, "epsilon must be positive and finite, got -1.0"),
        ({"mode": "fuzzy"}, "mode must be 'relative' or 'absolute', got 'fuzzy'"),
    ])
    def test_bad_filter_sizes_exit_1_before_any_run(self, tmp_path, monkeypatch, capsys,
                                                     overrides, message):
        monkeypatch.setattr(cli, "variance_grid", _never_called)
        assert cli.main(["variance-grid", "--config", self._config(tmp_path, **overrides),
                         "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"alivetwist: error: {message}")


class TestPmmh:
    def _config(self, tmp_path, **overrides):
        section = {
            "iterations": 6,
            "n_particles": 8,
            "epsilon": 3.5,
            "lag": 5,
            "alpha": 1.95,
            "beta": 0.05,
            "burn_in_fraction": 0.0,
            "acf_max_lag": 3,
        }
        section.update(overrides)
        return _write_json(tmp_path, "pmmh.json", {"pmmh": section})

    def _data(self, tmp_path, sv_config):
        record = str(tmp_path / "svdata.csv")
        assert cli.main(["simulate", "--config", sv_config, "--steps", "8",
                         "--seed", "21", "--out", record]) == 0
        return record

    def test_outputs_and_summary(self, tmp_path, sv_config):
        data = self._data(tmp_path, sv_config)
        out_dir = tmp_path / "chainout"
        assert cli.main(["pmmh", "--algo", "alive-twisted",
                         "--config", self._config(tmp_path), "--data", data,
                         "--seed", "13", "--out-dir", str(out_dir)]) == 0
        header, rows = _read_csv(out_dir / "chain.csv")
        assert header == ["iteration", "F", "nu2", "gamma", "log_zhat", "accepted"]
        assert len(rows) == 7  # initial state plus six transitions
        assert int(rows[0][5]) == 1
        acf_header, acf_rows = _read_csv(out_dir / "acf.csv")
        assert acf_header == ["lag", "F", "nu2", "gamma"]
        assert [int(r[0]) for r in acf_rows] == [0, 1, 2, 3]
        assert float(acf_rows[0][1]) == 1.0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["algo"] == "alive-twisted"
        assert summary["steps"] == 8
        assert "twist" in summary
        assert 0.0 <= summary["acceptance_rate"] <= 1.0

    def test_plain_algo_has_no_twist_note(self, tmp_path, sv_config):
        data = self._data(tmp_path, sv_config)
        out_dir = tmp_path / "plain"
        assert cli.main(["pmmh", "--algo", "alive",
                         "--config", self._config(tmp_path), "--data", data,
                         "--seed", "13", "--out-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert "twist" not in summary

    def test_summary_counts_early_rejections_apart_from_cap_events(self, tmp_path, sv_config):
        data = self._data(tmp_path, sv_config)
        out_dir = tmp_path / "early"
        assert cli.main(["pmmh", "--algo", "alive",
                         "--config", self._config(tmp_path, iterations=30), "--data", data,
                         "--seed", "13", "--out-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        rejected = round(30 * (1 - summary["acceptance_rate"]))
        assert 0 < summary["early_rejected"] <= rejected - summary["cap_exceeded"]
        header, _ = _read_csv(out_dir / "chain.csv")
        assert header == ["iteration", "F", "nu2", "gamma", "log_zhat", "accepted"]

    def test_short_chain_acf_is_nan_not_an_error(self, tmp_path, sv_config):
        data = self._data(tmp_path, sv_config)
        out_dir = tmp_path / "shortacf"
        assert cli.main(["pmmh", "--algo", "alive",
                         "--config", self._config(tmp_path, acf_max_lag=50),
                         "--data", data, "--seed", "13", "--out-dir", str(out_dir)]) == 0
        _, acf_rows = _read_csv(out_dir / "acf.csv")
        assert len(acf_rows) == 51
        assert math.isnan(float(acf_rows[1][1]))

    def test_acf_of_a_theta_that_never_moves_is_nan(self, tmp_path, sv_config, monkeypatch):
        """A chain whose F sits at 0.1 after burn-in: its mean rounds off 0.1,
        and the centred residue used to read as autocorrelations near 1."""
        run = cli.run_sv_pmmh

        def stuck_f(*args):
            record = run(*args)
            record.thetas = [dataclasses.replace(theta, F=0.1) for theta in record.thetas]
            return record

        monkeypatch.setattr(cli, "run_sv_pmmh", stuck_f)
        data = self._data(tmp_path, sv_config)
        out_dir = tmp_path / "stuck"
        assert cli.main(["pmmh", "--algo", "alive", "--config", self._config(tmp_path),
                         "--data", data, "--seed", "13", "--out-dir", str(out_dir)]) == 0
        _, acf_rows = _read_csv(out_dir / "acf.csv")
        assert all(math.isnan(float(row[1])) for row in acf_rows)

    def test_prices_data_kind(self, tmp_path, sv_config):
        prices = tmp_path / "prices.csv"
        lines = ["date,close"] + [
            f"2024-01-{2 + i:02d},{100.0 * math.exp(0.01 * i)}" for i in range(10)
        ]
        prices.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_dir = tmp_path / "fromprices"
        assert cli.main(["pmmh", "--algo", "alive", "--config", self._config(tmp_path),
                         "--data", str(prices), "--data-kind", "prices",
                         "--seed", "13", "--out-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["steps"] == 9
        # 'steps' below the record's 9 returns keeps the first ones
        assert cli.main(["pmmh", "--algo", "alive", "--config", self._config(tmp_path, steps=5),
                         "--data", str(prices), "--data-kind", "prices",
                         "--seed", "13", "--out-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["steps"] == 5

    @pytest.mark.parametrize("algo, overrides, message", [
        pytest.param(algo, overrides, message, id=algo + suffix)
        for algo in ("alive", "alive-twisted")
        for overrides, message, suffix in [
            ({"n_particles": 20, "cap": 15}, "cap must be at least n_particles", ""),
            ({"epsilon": -1}, "epsilon must be positive and finite, got -1.0", "-epsilon"),
            ({"mode": "fuzzy"}, "mode must be 'relative' or 'absolute', got 'fuzzy'", "-mode"),
        ]
    ])
    def test_cap_below_n_particles_exits_1_before_any_run(self, tmp_path, sv_config, monkeypatch,
                                                          capsys, algo, overrides, message):
        """A bad filter size or kernel is refused before the chain starts."""
        data = self._data(tmp_path, sv_config)
        monkeypatch.setattr(cli, "run_sv_pmmh", _never_called)
        config = self._config(tmp_path, **overrides)
        assert cli.main(["pmmh", "--algo", algo, "--config", config, "--data", data,
                         "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"alivetwist: error: {message}\n"

    def test_chain_that_cannot_start_aborts_with_exit_3(self, tmp_path, sv_config, capsys):
        """Every prior draw caps out at an unreachable tolerance: the chain
        cannot start, and the CLI says so without a traceback."""
        record = str(tmp_path / "sv30.csv")
        assert cli.main(["simulate", "--config", sv_config, "--steps", "30",
                         "--seed", "21", "--out", record]) == 0
        config = self._config(tmp_path, epsilon=1e-12, mode="absolute", cap=2000)
        assert cli.main(["pmmh", "--algo", "alive", "--config", config, "--data", record,
                         "--out-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("alivetwist: aborted: no viable initial parameter")
        assert "Traceback" not in err

    def test_rerun_is_byte_identical(self, tmp_path, sv_config):
        data = self._data(tmp_path, sv_config)
        config = self._config(tmp_path)
        dirs = [tmp_path / "runa", tmp_path / "runb"]
        for out_dir in dirs:
            assert cli.main(["pmmh", "--algo", "alive-twisted", "--config", config,
                             "--data", data, "--seed", "13",
                             "--out-dir", str(out_dir)]) == 0
        for name in ("chain.csv", "acf.csv", "summary.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


class TestSelftestWiring:
    def test_failure_exits_2(self, monkeypatch, capsys):
        results = [CheckResult("alpha", True, "fine"), CheckResult("beta", False, "broken")]
        monkeypatch.setattr(cli, "run_selftest", lambda **kwargs: results)
        assert cli.main(["selftest"]) == 2
        captured = capsys.readouterr()
        assert "PASS — alpha" in captured.out
        assert "FAIL — beta" in captured.out
        assert "selftest failed" in captured.err

    def test_success_exits_0(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "run_selftest", lambda **kwargs: [CheckResult("alpha", True, "fine")]
        )
        assert cli.main(["selftest", "--level", "quick"]) == 0
        assert "selftest passed (1 checks)" in capsys.readouterr().out

    def test_arguments_reach_the_runner(self, monkeypatch):
        seen = {}

        def fake(**kwargs):
            seen.update(kwargs)
            return [CheckResult("alpha", True, "fine")]

        monkeypatch.setattr(cli, "run_selftest", fake)
        assert cli.main(["selftest", "--level", "full", "--seed", "99",
                         "--workers", "2"]) == 0
        assert seen == {"level": "full", "master_seed": 99, "workers": 2}

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_1(self, monkeypatch, capsys, workers):
        monkeypatch.setattr(cli, "run_selftest", lambda **kwargs: pytest.fail("checks ran"))
        assert cli.main(["selftest", "--workers", workers]) == 1
        assert "--workers must be at least 1" in capsys.readouterr().err

    def test_workers_reach_the_variance_check(self, monkeypatch):
        seen = []

        def fake_grid(config, master_seed, workers=1):
            seen.append(workers)
            return [{"status": "ok", "log_var_diff": 1.0}]

        monkeypatch.setattr(selftest, "variance_grid", fake_grid)
        for name in ("check_stopping_time_mean", "check_discrete_unbiasedness",
                     "check_lg_unbiasedness", "check_grid_posterior",
                     "check_sv_posterior_sampling"):
            monkeypatch.setattr(selftest, name,
                                lambda *args, name=name, **kwargs: CheckResult(name, True, ""))
        assert cli.main(["selftest", "--workers", "3"]) == 0
        assert seen == [3, 3, 3]  # one variance grid per quick-level repetition


class TestEntryPoint:
    def test_console_script_help(self):
        # Run the declared [project.scripts] target the way the installed wrapper
        # does, so the check holds from a source checkout as well.
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["alivetwist"]
        module, func = target.split(":")
        wrapper = (
            f"import sys; from {module} import {func}; "
            f"sys.argv[0] = 'alivetwist'; sys.exit({func}())"
        )
        done = subprocess.run(
            [sys.executable, "-c", wrapper, "--help"], env=src_env(), capture_output=True, text=True
        )
        assert done.returncode == 0
        assert "simulate" in done.stdout and "selftest" in done.stdout

    def test_package_import_does_not_load_scipy_stats(self):
        """scipy.stats takes over a second to import, and every run pays for
        the package import; no other scipy module loads with it either."""
        script = ("import sys, alivetwist; "
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run(
            [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"

    def test_module_requires_a_subcommand(self):
        done = subprocess.run(
            [sys.executable, "-m", "alivetwist.cli"], env=src_env(), capture_output=True, text=True
        )
        assert done.returncode == 1
        assert "No module named" not in done.stderr
