"""Run configuration: a documented YAML schema with road-unit keys.

The schema is key-value with nested sections; every dimensional key
carries its unit as a suffix (rho_max_per_km, u_max_kph, sim_time_s).
Unknown keys are rejected with their full path, and a key that matches a
known one up to the unit suffix gets a dedicated mismatch error. A key
takes the type of its default (a null default means a derived number),
and run_simulation caps frames x (n_cells + 1) at MAX_FRAME_VALUES. An
empty document yields the full reference configuration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import yaml

from .params import params_from_paper_units, require_positive
from .riccati import DEFAULT_B_CLAMP
from .scenario import (
    REFERENCE_BC_OSC_AMPLITUDE,
    REFERENCE_BC_OSC_PERIOD,
    REFERENCE_CADENCE,
    REFERENCE_CFL,
    REFERENCE_IC_AMPLITUDE,
    REFERENCE_N_CELLS,
    REFERENCE_PARAMS,
    REFERENCE_Q0,
    REFERENCE_R0,
    Scenario,
    boundary_ramp,
)

FORMATS = ("csv", "json", "svg")


class ConfigError(ValueError):
    """Raised for malformed, unknown, or out-of-range configuration."""


@dataclass(frozen=True)
class RunConfig:
    """A parsed configuration: the scenario plus run and output policy."""

    scenario: Scenario
    cfl: float
    output_dir: str
    output_cadence: float
    formats: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        require_positive("output_cadence", self.output_cadence)
        if len(self.formats) == 0 or any(f not in FORMATS for f in self.formats):
            raise ValueError(f"formats must be a non-empty subset of {FORMATS}")


_SCHEMA: dict[str, dict[str, object]] = {
    "params": dict(REFERENCE_PARAMS),
    "scenario": {
        "model": "linear",
        "ic_amplitude_per_km": REFERENCE_IC_AMPLITUDE,
        "bc_osc_amplitude_per_km": REFERENCE_BC_OSC_AMPLITUDE,
        "bc_osc_period_s": REFERENCE_BC_OSC_PERIOD,
        "bc_decay_rate_per_s": None,
        "bc_growth_rate_per_km_s": None,
    },
    "control": {
        "enabled": True,
        "q0": REFERENCE_Q0,
        "r0": REFERENCE_R0,
        "b_min": DEFAULT_B_CLAMP[0],
        "b_max": DEFAULT_B_CLAMP[1],
    },
    "numerics": {
        "n_cells": REFERENCE_N_CELLS,
        "cfl": REFERENCE_CFL,
    },
    "output": {
        "dir": "out",
        "cadence_s": REFERENCE_CADENCE,
        "formats": list(FORMATS),
    },
}


def _typed(path: str, default: object, value: object) -> object:
    """value checked against, and converted to, the type of its schema default."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path} must be true or false, got {value!r}")
        return value
    if isinstance(default, str):
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{path} must be a non-empty string, got {value!r}")
        return value
    if isinstance(default, list):
        value = [value] if isinstance(value, str) else value
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        return value
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        raise ConfigError(f"{path} must be a finite number") from None
    if not isinstance(default, int):
        return number
    if not number.is_integer():  # also false for nan and inf
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return int(number)


def _merge_section(section: str, given: dict) -> dict:
    schema = _SCHEMA[section]
    merged = dict(schema)
    for key, value in given.items():
        if key not in schema:
            related = sorted(
                known
                for known in schema
                if known.startswith(str(key)) or str(key).startswith(known)
            )
            if related:
                raise ConfigError(
                    f"unit-suffix mismatch at {section}.{key}: did you mean "
                    f"{', '.join(repr(k) for k in related)}?"
                )
            raise ConfigError(f"unknown config key: {section}.{key}")
        merged[key] = _typed(f"{section}.{key}", schema[key], value)
    return merged


class _Loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """PyYAML's safe loader, reading 5e-5 and 1e3 as YAML 1.2 floats.

    The libyaml loader where PyYAML was built with libyaml, else the
    pure-Python one: both read the same values, but word their syntax
    errors differently (libyaml without the pure-Python source excerpt).
    """


# the YAML 1.1 resolver takes a float only with a '.' and a signed exponent
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def parse_config(text: str) -> RunConfig:
    """Parse a YAML document into a RunConfig, applying defaults.

    Keys, and each value against its default's type, are checked here,
    all before any range. Each value's range is checked once, by what it
    is passed to (TrafficParams, Scenario and the make_grid it calls,
    RunConfig), and their ValueError is raised as ConfigError. The ramp
    rates left unset default to boundary_ramp's.
    """
    try:
        document = yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: int literal over 4,300 digits
        raise ConfigError(f"malformed config: {exc}") from None
    if document is None:
        document = {}
    if not isinstance(document, dict):
        raise ConfigError("config root must be a mapping of sections")
    for section in document:
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section: {section}")
        if not isinstance(document[section], dict):
            raise ConfigError(f"config section {section} must be a mapping")
    sections = [_merge_section(section, document.get(section, {})) for section in _SCHEMA]
    try:
        return _run_config(*sections)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None


def _run_config(par: dict, scn: dict, ctl: dict, num: dict, out: dict) -> RunConfig:
    params = params_from_paper_units(**par)
    bc_decay_rate, bc_growth_rate = boundary_ramp(params.road_length)
    if scn["bc_decay_rate_per_s"] is not None:
        bc_decay_rate = scn["bc_decay_rate_per_s"]
    if scn["bc_growth_rate_per_km_s"] is not None:
        bc_growth_rate = scn["bc_growth_rate_per_km_s"]
    scenario = Scenario(
        params=params,
        n_cells=num["n_cells"],
        q0=ctl["q0"],
        bc_decay_rate=bc_decay_rate,
        bc_growth_rate=bc_growth_rate,
        ic_amplitude=scn["ic_amplitude_per_km"],
        bc_osc_amplitude=scn["bc_osc_amplitude_per_km"],
        bc_osc_period=scn["bc_osc_period_s"],
        r0=ctl["r0"],
        control_enabled=ctl["enabled"],
        model=scn["model"],
        clamp=(ctl["b_min"], ctl["b_max"]),
    )
    formats = out["formats"]
    return RunConfig(
        scenario=scenario,
        cfl=num["cfl"],
        output_dir=out["dir"],
        output_cadence=out["cadence_s"],
        formats=tuple(f for i, f in enumerate(formats) if f not in formats[:i]),
    )
