"""JSON run-configuration parsing for the command-line tools.

Configurations are plain JSON objects with named sections.  Each section is
read off the fields of one dataclass: a field's annotated type says how its
key is read, and its default, if any, makes the key optional.  Every parser
validates eagerly and raises ConfigError with the offending key so the CLI
can fail with a usage error instead of a traceback.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Callable, List, Optional, get_type_hints

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


def _value(section: dict, key: str):
    if key not in section:
        raise ConfigError(f"missing required key '{key}'")
    return section[key]


def _number(section: dict, key: str) -> float:
    value = _value(section, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"key '{key}' must be a finite number, got {value!r}")
    return float(value)


def _integer(section: dict, key: str) -> int:
    value = _number(section, key)
    if value != int(value):
        raise ConfigError(f"key '{key}' must be an integer, got {value!r}")
    return int(value)


def _positive_list(section: dict, key: str) -> List[float]:
    values = section.get(key)
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v < math.inf for v in values
    ):
        raise ConfigError(f"key '{key}' must be a list of positive finite numbers")
    return [float(v) for v in values]


# annotated field type: reader of the field's key
_READERS = {float: _number, int: _integer, Optional[int]: _integer, str: _value,
            List[float]: _positive_list}


def _read(cls, section: dict):
    """The dataclass ``cls`` built from ``section``, one key per field.

    Each key is read by its field's annotated type; a key left out takes the
    field's default, and a field without one is required.
    """
    types = get_type_hints(cls)
    return cls(**{
        field.name: _READERS[types[field.name]](section, field.name)
        for field in fields(cls)
        if field.name in section or field.default is MISSING
    })


def parse_simulate_steps(config: dict) -> Optional[int]:
    """'simulate.steps', or None when the config has no 'simulate' section."""
    if "simulate" not in config:
        return None
    section = _section(config, "simulate")
    return _integer(section, "steps") if "steps" in section else None


def parse_model(config: dict):
    """The parameter object described by the 'model' section."""
    section = _section(config, "model")
    kind = section.get("kind")
    if kind == "linear_gaussian":
        return _read(LinearGaussianParams, section)
    if kind == "stochastic_volatility":
        # beta is a required argument of the parameter class, optional in a config
        return _read(StochasticVolatilityParams, {"beta": 0.0, **section})
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
    :meth:`run_params` is the same run on one parameter set, which supplies
    the model and, for a twisted filter, the twist.
    """

    run: Callable
    uses_kernel: bool
    twisted: bool

    def run_params(self, params, kernel, observations, run: FilterConfig, stream):
        """``run`` on ``build_model(params)``, with ``build_twist(params, run.lag)``
        when the filter is twisted, at ``run``'s particle count and cap."""
        twist = build_twist(params, run.lag) if self.twisted else None
        return self.run(build_model(params), kernel, twist, observations, run.n_particles,
                        run.cap, stream)


FILTERS = {  # CLI name: (runner, uses_kernel, twisted)
    "alive": FilterAlgo(lambda m, k, h, y, n, cap, s: alive_filter(m, k, y, n, cap, s), True, False),
    "bootstrap": FilterAlgo(lambda m, k, h, y, n, cap, s: bootstrap_filter(m, y, n, s), False, False),
    "twisted-bootstrap": FilterAlgo(
        lambda m, k, h, y, n, cap, s: twisted_bootstrap_filter(m, h, y, n, s), False, True
    ),
    "alive-twisted": FilterAlgo(alive_twisted_filter, True, True),
}


def _as_config_error(build, *args):
    """``build(*args)``, with a kernel's ValueError raised as a ConfigError."""
    try:
        return build(*args)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def parse_kernel(config: dict) -> AbcKernel:
    return _as_config_error(_read, AbcKernel, _section(config, "kernel"))


@dataclass(frozen=True, kw_only=True)
class FilterConfig:
    """The sizes every filter run needs; the base of the driver configs."""

    n_particles: int
    cap: int = DEFAULT_TRIAL_CAP
    lag: int = 0

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise ConfigError(f"n_particles must be at least 2, got {self.n_particles}")
        if self.cap < self.n_particles:
            raise ConfigError("cap must be at least n_particles")
        if self.lag < 0:
            raise ConfigError(f"lag must be nonnegative, got {self.lag}")


def parse_filter(config: dict) -> FilterConfig:
    return _read(FilterConfig, _section(config, "filter"))


@dataclass(frozen=True, kw_only=True)
class GridConfig(FilterConfig):
    """Variance-comparison sweep over latent/observation noise scales; ``kernel``
    (set here, not a field) is the ``AbcKernel(epsilon, mode)`` of every run."""

    lag: int = 5
    phi: float
    nu2_values: List[float]
    tau2_values: List[float]
    replicates: int
    steps: int
    epsilon: float
    mode: str = "relative"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.replicates < 2:
            raise ConfigError(f"replicates must be at least 2, got {self.replicates}")
        if not self.nu2_values or not self.tau2_values:
            raise ConfigError("nu2_values and tau2_values must be nonempty")
        if self.steps < 1:
            raise ConfigError("steps must be positive")
        object.__setattr__(self, "kernel", _as_config_error(AbcKernel, self.epsilon, self.mode))


def parse_grid(config: dict) -> GridConfig:
    return _read(GridConfig, _section(config, "grid"))


@dataclass(frozen=True, kw_only=True)
class PmmhConfig(FilterConfig):
    """One posterior-sampling run for the volatility model; ``kernel`` (set
    here, not a field) is the ``AbcKernel(epsilon, mode)`` of every run."""

    lag: int = 5
    iterations: int
    epsilon: float
    alpha: float
    beta: float = 0.0
    delta: float = 0.0
    burn_in_fraction: float = 0.1
    acf_max_lag: int = 50
    mode: str = "relative"
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
        object.__setattr__(self, "kernel", _as_config_error(AbcKernel, self.epsilon, self.mode))

    @property
    def burn_in(self) -> int:
        return int(self.burn_in_fraction * self.iterations)


def parse_pmmh(config: dict) -> PmmhConfig:
    return _read(PmmhConfig, _section(config, "pmmh"))
