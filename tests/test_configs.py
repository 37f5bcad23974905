"""JSON configuration parsing and validation."""

import json
import pickle
import re
from dataclasses import MISSING, fields, replace

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
from alivetwist.models import LinearGaussianParams, StochasticVolatilityParams, lg_model, simulate
from alivetwist.rng import SeedSpec, derive_stream

from helpers import SRC, assert_same_bits

# Each section's dataclass: (section name, fixed keys, parser, a valid
# non-default value for every field).
SCHEMAS = {
    LinearGaussianParams: ("model", {"kind": "linear_gaussian"}, parse_model,
                           dict(phi=0.7, nu2=2.0, tau2=0.5)),
    StochasticVolatilityParams: ("model", {"kind": "stochastic_volatility"}, parse_model,
                                 dict(F=0.8, nu2=0.02, alpha=1.7, beta=0.3, gamma=0.4, delta=0.1)),
    AbcKernel: ("kernel", {}, parse_kernel,
                dict(epsilon=0.7, mode="absolute", relative_floor=1e-3)),
    FilterConfig: ("filter", {}, parse_filter, dict(n_particles=8, cap=80, lag=3)),
    GridConfig: ("grid", {}, parse_grid, dict(
        n_particles=30, cap=500, lag=3, phi=0.8, nu2_values=[0.5, 2.0], tau2_values=[1.5],
        replicates=4, steps=12, epsilon=2.5, mode="absolute")),
    PmmhConfig: ("pmmh", {}, parse_pmmh, dict(
        n_particles=40, cap=4000, lag=2, iterations=20, epsilon=1.5, alpha=1.8, beta=0.2,
        delta=0.1, burn_in_fraction=0.25, acf_max_lag=7, mode="absolute", steps=30)),
}
# a default a config section has that its dataclass does not
CONFIG_DEFAULTS = {(StochasticVolatilityParams, "beta"): 0.0}


def _default(cls, field):
    return CONFIG_DEFAULTS.get((cls, field.name), field.default)


FIELDS = [pytest.param(cls, field, id=f"{cls.__name__}.{field.name}")
          for cls in SCHEMAS for field in fields(cls)]
DEFAULTED = [param for param in FIELDS if _default(*param.values) is not MISSING]
REQUIRED = [param for param in FIELDS if _default(*param.values) is MISSING]


def _parse(cls, values: dict):
    name, fixed, parse, _ = SCHEMAS[cls]
    return parse({name: {**fixed, **values}})


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

    @pytest.mark.parametrize("algo, params", [
        *((algo, LinearGaussianParams(0.9, 1.0, 1.0)) for algo in sorted(FILTERS)),
        *((algo, StochasticVolatilityParams(0.5, 0.01, 1.95, 0.05, 0.5))
          for algo in ("alive", "alive-twisted")),
    ], ids=lambda value: value if isinstance(value, str) else type(value).__name__)
    def test_run_params_runs_the_model_and_twist_built_from_the_params(self, algo, params):
        """``run_params`` gives the bits of ``run`` on ``build_model(params)``
        and, for a twisted filter, ``build_twist(params, run.lag)``."""
        runner, run = FILTERS[algo], FilterConfig(n_particles=12, cap=10_000, lag=2)
        kernel = AbcKernel(1.5, "relative")
        _, observations = simulate(build_model(params), 6, derive_stream(SeedSpec(5, 0)))
        got_pools, got = runner.run_params(params, kernel, observations, run,
                                           derive_stream(SeedSpec(5, 1)))
        twist = build_twist(params, 2) if runner.twisted else None
        want_pools, want = runner.run(build_model(params), kernel, twist, observations, 12,
                                      10_000, derive_stream(SeedSpec(5, 1)))
        assert_same_bits(got.log_factors, want.log_factors)
        for got_pool, want_pool in zip(got_pools, want_pools, strict=True):
            assert_same_bits(got_pool.states, want_pool.states)


class TestDriverKernel:
    """``GridConfig`` and ``PmmhConfig`` keep the kernel they validate."""

    @pytest.mark.parametrize("cls", [GridConfig, PmmhConfig], ids=lambda cls: cls.__name__)
    def test_kernel_is_built_from_epsilon_and_mode_and_is_not_a_field(self, cls):
        config = cls(**SCHEMAS[cls][3])
        assert config.kernel == AbcKernel(config.epsilon, config.mode)
        assert "kernel" not in {field.name for field in fields(cls)}
        assert pickle.loads(pickle.dumps(config)).kernel == config.kernel  # sent to workers
        assert replace(config, epsilon=0.25).kernel == AbcKernel(0.25, config.mode)


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


class TestReadRoundTrip:
    """Every section is read off its dataclass's fields."""

    @pytest.mark.parametrize("cls", SCHEMAS, ids=lambda cls: cls.__name__)
    def test_every_field_set_parses_to_an_equal_object(self, cls):
        values = SCHEMAS[cls][3]
        assert sorted(values) == sorted(field.name for field in fields(cls))
        assert all(values[field.name] != _default(cls, field) for field in fields(cls))
        parsed = _parse(cls, values)
        assert parsed == cls(**values)
        assert all(type(getattr(parsed, k)) is type(v) for k, v in values.items())

    @pytest.mark.parametrize("cls, field", DEFAULTED)
    def test_left_out_key_takes_the_default(self, cls, field):
        values = {k: v for k, v in SCHEMAS[cls][3].items() if k != field.name}
        assert getattr(_parse(cls, values), field.name) == _default(cls, field)

    @pytest.mark.parametrize("cls, field", REQUIRED)
    def test_left_out_required_key_is_named(self, cls, field):
        values = {k: v for k, v in SCHEMAS[cls][3].items() if k != field.name}
        with pytest.raises(ConfigError, match=f"'{field.name}'"):
            _parse(cls, values)


def _readme_keys() -> dict:
    """README's "Sections and their keys" bullets as one line each, keyed by
    the dataclass each bullet describes."""
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("Sections and their keys:\n\n", 1)[1].split("\n\n", 1)[0]
    bullets = {}
    for bullet in re.split(r"^- ", block, flags=re.M)[1:]:
        name, _, keys = " ".join(bullet.split()).partition(": ")
        bullets[name.strip("`")] = keys
    linear, _, volatility = bullets["model"].partition("`stochastic_volatility`")
    return {LinearGaussianParams: linear, StochasticVolatilityParams: volatility,
            AbcKernel: bullets["kernel"], FilterConfig: bullets["filter"],
            GridConfig: bullets["grid"], PmmhConfig: bullets["pmmh"]}


class TestReadmeKeys:
    """README's key lists name each field and show each default."""

    @pytest.mark.parametrize("cls, field", FIELDS)
    def test_field_is_listed_with_its_default(self, cls, field):
        keys = _readme_keys()[cls]
        assert f"`{field.name}`" in keys
        shown = re.search(
            rf"`{field.name}` = (`[^`]+`|the whole record|[-+.\deE]+?)(?=[,;) ]|\.?$)", keys
        )
        default = _default(cls, field)
        if default is MISSING:
            assert shown is None
        elif default is None:
            assert shown is not None and shown[1] == "the whole record"
        else:
            assert shown is not None
            text = shown[1]
            assert (json.loads(text.strip("`")) if text.startswith("`") else float(text)) == default
