"""JSON configuration parsing and validation."""

import json

import numpy as np
import pytest

from alivetwist.configs import (
    FILTERS,
    ConfigError,
    FilterConfig,
    GridConfig,
    PmmhConfig,
    build_model,
    build_twist,
    load_config,
    parse_filter,
    parse_grid,
    parse_kernel,
    parse_model,
    parse_pmmh,
)
from alivetwist.kernels import AbcKernel
from alivetwist.models import LinearGaussianParams, StochasticVolatilityParams, lg_model
from alivetwist.rng import SeedSpec, derive_stream


class TestLoadConfig:
    def test_reads_json_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": {"kind": "linear_gaussian"}}))
        assert load_config(str(path)) == {"model": {"kind": "linear_gaussian"}}

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_rejects_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestParseModel:
    def test_linear_gaussian(self):
        config = {"model": {"kind": "linear_gaussian", "phi": 0.9, "nu2": 1, "tau2": 2}}
        params = parse_model(config)
        assert params == LinearGaussianParams(0.9, 1.0, 2.0)
        assert isinstance(params.nu2, float)

    def test_stochastic_volatility_defaults(self):
        config = {
            "model": {
                "kind": "stochastic_volatility",
                "F": 0.5, "nu2": 0.01, "alpha": 1.95, "gamma": 0.5,
            }
        }
        params = parse_model(config)
        assert params == StochasticVolatilityParams(0.5, 0.01, 1.95, 0.0, 0.5, 0.0)

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="model"):
            parse_model({})

    def test_missing_required_key(self):
        config = {"model": {"kind": "linear_gaussian", "phi": 0.9, "nu2": 1}}
        with pytest.raises(ConfigError, match="tau2"):
            parse_model(config)

    def test_boolean_is_not_a_number(self):
        config = {"model": {"kind": "linear_gaussian", "phi": True, "nu2": 1, "tau2": 1}}
        with pytest.raises(ConfigError, match="phi"):
            parse_model(config)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_is_not_a_number(self, value):
        config = {"model": {"kind": "linear_gaussian", "phi": 0.9, "nu2": value, "tau2": 1}}
        with pytest.raises(ConfigError, match="nu2"):
            parse_model(config)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_model({"model": {"kind": "poisson"}})

    def test_build_model(self):
        lg = build_model(LinearGaussianParams(0.9, 1.0, 1.0))
        assert lg.log_observation_density is not None
        sv = build_model(StochasticVolatilityParams(0.5, 0.01, 1.95, 0.05, 0.5))
        assert sv.log_observation_density is None

    def test_build_twist(self):
        lg = build_twist(LinearGaussianParams(0.9, 1.0, 1.0), 3)
        assert (lg.obs_var, lg.lag) == (1.0, 3)
        sv = build_twist(StochasticVolatilityParams(0.5, 0.01, 1.95, 0.05, 0.5), 2)
        assert sv.obs_var == 2 * 0.5**2


class TestFilterTable:
    @pytest.mark.parametrize("algo", sorted(FILTERS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_every_filter_rejects_non_finite_observations(self, algo, bad):
        params = LinearGaussianParams(0.9, 1.0, 1.0)
        runner = FILTERS[algo]
        twist = build_twist(params, 2) if runner.twisted else None
        with pytest.raises(ValueError, match="finite"):
            runner.run(
                lg_model(params), AbcKernel(1.0, "absolute"), twist, [0.0, bad], 10, 1000,
                derive_stream(SeedSpec(0, 0)),
            )


class TestParseKernel:
    def test_defaults(self):
        kernel = parse_kernel({"kernel": {"epsilon": 1.5}})
        assert kernel.epsilon == 1.5
        assert kernel.mode == "relative"
        assert kernel.relative_floor == 1e-8

    def test_explicit_values(self):
        kernel = parse_kernel({"kernel": {"epsilon": 2.0, "mode": "absolute"}})
        assert kernel.mode == "absolute"

    def test_invalid_epsilon_becomes_config_error(self):
        with pytest.raises(ConfigError):
            parse_kernel({"kernel": {"epsilon": -1.0}})

    def test_invalid_mode_becomes_config_error(self):
        with pytest.raises(ConfigError):
            parse_kernel({"kernel": {"epsilon": 1.0, "mode": "fuzzy"}})


class TestParseFilter:
    def test_defaults(self):
        config = parse_filter({"filter": {"n_particles": 50}})
        assert config.n_particles == 50
        assert config.cap == 1_000_000
        assert config.lag == 0

    def test_non_integer_count(self):
        with pytest.raises(ConfigError, match="n_particles"):
            parse_filter({"filter": {"n_particles": 10.5}})

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_particles=1, cap=100, lag=0),
            dict(n_particles=10, cap=5, lag=0),
            dict(n_particles=10, cap=100, lag=-1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            FilterConfig(**kwargs)


class TestParseGrid:
    def _section(self, **overrides):
        section = {
            "phi": 0.9,
            "nu2_values": [0.5, 1.0],
            "tau2_values": [1.0],
            "replicates": 5,
            "steps": 10,
            "n_particles": 20,
            "epsilon": 1.5,
        }
        section.update(overrides)
        return {"grid": section}

    def test_defaults(self):
        config = parse_grid(self._section())
        assert config.lag == 5
        assert config.cap == 1_000_000
        assert config.mode == "relative"
        assert config.nu2_values == [0.5, 1.0]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"nu2_values": "not a list"},
            {"nu2_values": [1.0, -2.0]},
            {"tau2_values": [True]},
            {"tau2_values": []},
            {"replicates": 1},
            {"steps": 0},
            {"n_particles": 7.3},
            {"n_particles": 1},
            {"cap": 19},
            {"lag": -1},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ConfigError):
            parse_grid(self._section(**overrides))


class TestParsePmmh:
    def _section(self, **overrides):
        section = {
            "iterations": 100,
            "n_particles": 50,
            "epsilon": 3.5,
            "alpha": 1.95,
        }
        section.update(overrides)
        return {"pmmh": section}

    def test_defaults(self):
        config = parse_pmmh(self._section())
        assert config.lag == 5
        assert config.beta == 0.0
        assert config.burn_in_fraction == 0.1
        assert config.acf_max_lag == 50
        assert config.mode == "relative"
        assert config.steps is None

    def test_burn_in_property(self):
        config = parse_pmmh(self._section(iterations=250, burn_in_fraction=0.2))
        assert config.burn_in == 50
        assert parse_pmmh(self._section(burn_in_fraction=0.0)).burn_in == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"iterations": 0},
            {"burn_in_fraction": 1.0},
            {"burn_in_fraction": -0.1},
            {"acf_max_lag": 0},
            {"steps": 0},
            {"steps": -1},
            {"n_particles": 1},
            {"cap": 49},
            {"lag": -1},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ConfigError):
            parse_pmmh(self._section(**overrides))

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_pmmh({"pmmh": {"iterations": 10, "n_particles": 5, "epsilon": 1.0}})
