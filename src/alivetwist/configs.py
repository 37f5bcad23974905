"""JSON run-configuration parsing for the command-line tools.

Configurations are plain JSON objects with named sections; every parser here
validates eagerly and raises ConfigError with the offending key so the CLI
can fail with a usage error instead of a traceback.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional

from .kernels import AbcKernel
from .models import (
    HmmModel,
    LinearGaussianParams,
    StochasticVolatilityParams,
    lg_model,
    sv_model,
)
from .smc import (
    DEFAULT_TRIAL_CAP,
    alive_filter,
    alive_twisted_filter,
    bootstrap_filter,
    twisted_bootstrap_filter,
)
from .twist import lg_twist, sv_twist


class ConfigError(ValueError):
    """A configuration file is missing or malformed."""


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(config, dict):
        raise ConfigError(f"{path} must contain a JSON object at the top level")
    return config


def _section(config: dict, name: str) -> dict:
    section = config.get(name)
    if not isinstance(section, dict):
        raise ConfigError(f"missing or malformed '{name}' section")
    return section


def _number(section: dict, key: str, default=None, required: bool = False) -> Optional[float]:
    if key not in section:
        if required:
            raise ConfigError(f"missing required key '{key}'")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"key '{key}' must be a finite number, got {value!r}")
    return float(value)


def _integer(section: dict, key: str, default=None, required: bool = False) -> Optional[int]:
    value = _number(section, key, default, required)
    if value is None:
        return None
    if value != int(value):
        raise ConfigError(f"key '{key}' must be an integer, got {value!r}")
    return int(value)


def parse_simulate_steps(config: dict) -> Optional[int]:
    """'simulate.steps', or None when the config has no 'simulate' section."""
    if "simulate" not in config:
        return None
    return _integer(_section(config, "simulate"), "steps")


def parse_model(config: dict):
    """The parameter object described by the 'model' section."""
    section = _section(config, "model")
    kind = section.get("kind")
    if kind == "linear_gaussian":
        return LinearGaussianParams(
            phi=_number(section, "phi", required=True),
            nu2=_number(section, "nu2", required=True),
            tau2=_number(section, "tau2", required=True),
        )
    if kind == "stochastic_volatility":
        return StochasticVolatilityParams(
            F=_number(section, "F", required=True),
            nu2=_number(section, "nu2", required=True),
            alpha=_number(section, "alpha", required=True),
            beta=_number(section, "beta", 0.0),
            gamma=_number(section, "gamma", required=True),
            delta=_number(section, "delta", 0.0),
        )
    raise ConfigError(f"unknown model kind {kind!r}")


_BUILDERS = {  # params class: (model builder, twist builder)
    LinearGaussianParams: (lg_model, lg_twist),
    StochasticVolatilityParams: (sv_model, sv_twist),
}


def build_model(params) -> HmmModel:
    """The model for a parameter object from :func:`parse_model`."""
    return _BUILDERS[type(params)][0](params)


def build_twist(params, lag: int):
    """The lookahead twist for ``build_model(params)``."""
    return _BUILDERS[type(params)][1](params, lag)


@dataclass(frozen=True)
class FilterAlgo:
    """One named filter and which optional inputs it uses.

    ``run(model, kernel, twist, observations, n_particles, cap, stream)``
    returns (generations, estimate); the filter ignores what it does not use.
    """

    run: Callable
    uses_kernel: bool
    twisted: bool


FILTERS = {  # CLI name: (runner, uses_kernel, twisted)
    "alive": FilterAlgo(lambda m, k, h, y, n, cap, s: alive_filter(m, k, y, n, cap, s), True, False),
    "bootstrap": FilterAlgo(lambda m, k, h, y, n, cap, s: bootstrap_filter(m, y, n, s), False, False),
    "twisted-bootstrap": FilterAlgo(
        lambda m, k, h, y, n, cap, s: twisted_bootstrap_filter(m, h, y, n, s), False, True
    ),
    "alive-twisted": FilterAlgo(alive_twisted_filter, True, True),
}


def parse_kernel(config: dict) -> AbcKernel:
    section = _section(config, "kernel")
    try:
        return AbcKernel(
            epsilon=_number(section, "epsilon", required=True),
            mode=section.get("mode", "relative"),
            relative_floor=_number(section, "relative_floor", 1e-8),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err


@dataclass(frozen=True)
class FilterConfig:
    """The sizes every filter run needs; the base of the driver configs."""

    n_particles: int
    cap: int
    lag: int

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise ConfigError(f"n_particles must be at least 2, got {self.n_particles}")
        if self.cap < self.n_particles:
            raise ConfigError("cap must be at least n_particles")
        if self.lag < 0:
            raise ConfigError(f"lag must be nonnegative, got {self.lag}")


def _filter_sizes(section: dict, default_lag: int) -> dict:
    """The FilterConfig keys of ``section``, with the command's lag default."""
    return dict(
        n_particles=_integer(section, "n_particles", required=True),
        cap=_integer(section, "cap", DEFAULT_TRIAL_CAP),
        lag=_integer(section, "lag", default_lag),
    )


def parse_filter(config: dict) -> FilterConfig:
    return FilterConfig(**_filter_sizes(_section(config, "filter"), default_lag=0))


@dataclass(frozen=True)
class GridConfig(FilterConfig):
    """Variance-comparison sweep over latent/observation noise scales."""

    phi: float
    nu2_values: List[float]
    tau2_values: List[float]
    replicates: int
    steps: int
    epsilon: float
    mode: str

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.replicates < 2:
            raise ConfigError(f"replicates must be at least 2, got {self.replicates}")
        if not self.nu2_values or not self.tau2_values:
            raise ConfigError("nu2_values and tau2_values must be nonempty")
        if self.steps < 1:
            raise ConfigError("steps must be positive")


def parse_grid(config: dict) -> GridConfig:
    section = _section(config, "grid")
    for key in ("nu2_values", "tau2_values"):
        values = section.get(key)
        if not isinstance(values, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v < math.inf for v in values
        ):
            raise ConfigError(f"key '{key}' must be a list of positive finite numbers")
    return GridConfig(
        **_filter_sizes(section, default_lag=5),
        phi=_number(section, "phi", required=True),
        nu2_values=[float(v) for v in section["nu2_values"]],
        tau2_values=[float(v) for v in section["tau2_values"]],
        replicates=_integer(section, "replicates", required=True),
        steps=_integer(section, "steps", required=True),
        epsilon=_number(section, "epsilon", required=True),
        mode=section.get("mode", "relative"),
    )


@dataclass(frozen=True)
class PmmhConfig(FilterConfig):
    """One posterior-sampling run for the volatility model."""

    iterations: int
    epsilon: float
    alpha: float
    beta: float
    delta: float
    burn_in_fraction: float
    acf_max_lag: int
    mode: str
    steps: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.iterations < 1:
            raise ConfigError("iterations must be positive")
        if not 0 <= self.burn_in_fraction < 1:
            raise ConfigError("burn_in_fraction must be in [0, 1)")
        if self.acf_max_lag < 1:
            raise ConfigError("acf_max_lag must be positive")
        if self.steps is not None and self.steps < 1:
            raise ConfigError("steps must be positive when given")

    @property
    def burn_in(self) -> int:
        return int(self.burn_in_fraction * self.iterations)


def parse_pmmh(config: dict) -> PmmhConfig:
    section = _section(config, "pmmh")
    return PmmhConfig(
        **_filter_sizes(section, default_lag=5),
        iterations=_integer(section, "iterations", required=True),
        epsilon=_number(section, "epsilon", required=True),
        alpha=_number(section, "alpha", required=True),
        beta=_number(section, "beta", 0.0),
        delta=_number(section, "delta", 0.0),
        burn_in_fraction=_number(section, "burn_in_fraction", 0.1),
        acf_max_lag=_integer(section, "acf_max_lag", 50),
        mode=section.get("mode", "relative"),
        steps=_integer(section, "steps"),
    )
