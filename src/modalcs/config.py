"""Experiment configuration: JSON schema, semantic validation, and presets.

A configuration is a flat JSON object; the schema rejects unknown fields so
typos fail loudly.  Semantic requirements vary per experiment and are
checked in Python with field-level messages.  Presets reproduce the five
synthetic experiments and the real-data comparison; the real-data preset
deliberately omits the sample rate and file path, which depend on the
dataset and must be supplied by the caller.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, InvalidArgument, NonPositiveEigenvalue, _checked_type
from .mdof import MdofSystem, ModalBasis, solve_modes

EXPERIMENTS = ("exp1", "exp2", "exp3", "exp4", "exp5", "realdata")

# The benchmark 4-DOF structure: unit masses, symmetric tridiagonal-ish
# stiffness with one weak off-diagonal coupling.
PAPER_4DOF_STIFFNESS = (
    (2.0, -0.5, 0.0, 0.0),
    (-0.5, 2.0, -1.0, 0.0),
    (0.0, -1.0, 2.0, -1.0),
    (0.0, 0.0, -1.0, 2.0),
)

# Ceilings on config-driven work, so that no config can ask for an unbounded
# allocation.  The presets stay two or more orders of magnitude below each:
# at most 250 sweep points, trials or Phi seeds (exp3's 5 x 50 trials) and
# 1616 samples per schedule (exp5's 202 samples padded 8 times).
MAX_POINTS = 100_000
MAX_SAMPLES = 1_000_000

# A count past 2**53 is no float64 index, and the caps below compare floats.
_COUNT = {"type": "integer", "minimum": 1, "maximum": 2**53}

_MATRIX_SCHEMA = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
}

_SAMPLING_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "t_s": {"type": "number", "exclusiveMinimum": 0},
        "t_max": {"type": "number", "exclusiveMinimum": 0},
        "t_max_start": {"type": "number", "minimum": 0},
        "t_max_step": {"type": "number", "exclusiveMinimum": 0},
        "t_max_stop": {"type": "number", "exclusiveMinimum": 0},
        "m_values": {
            "type": "array",
            "minItems": 1,
            "items": _COUNT,
        },
        "extension": {"type": "number", "exclusiveMinimum": 0},
        "t_s_sub": {"type": "number", "exclusiveMinimum": 0},
        "t_s_super": {"type": "number", "exclusiveMinimum": 0},
        "m_prime": _COUNT,
        "zero_pad_factor": _COUNT,
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment", "seed"],
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "seed": {"type": "integer", "minimum": 0},
        "system": {
            "oneOf": [
                {"const": "paper-4dof"},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["mass", "stiffness"],
                    "properties": {
                        "mass": _MATRIX_SCHEMA,
                        "stiffness": _MATRIX_SCHEMA,
                    },
                },
            ]
        },
        "frequencies": {
            "type": "array",
            "minItems": 2,
            "items": {"type": "number", "exclusiveMinimum": 0},
        },
        "magnitudes": {
            "type": "array",
            "minItems": 2,
            "items": {"type": "number", "exclusiveMinimum": 0},
        },
        "sampling": _SAMPLING_SCHEMA,
        "n_trials": _COUNT,
        "n_phi_seeds": _COUNT,
        "data_path": {"type": "string"},
        "header": {"type": "boolean"},
        "n_benchmark_modes": _COUNT,
    },
}


def _error(path: str, reason: str) -> ConfigError:
    return ConfigError(f"{path or '<top level>'}: {reason}")


def _checked(value, schema, path=""):
    """value with every "integer" field as an int, or ConfigError naming the first bad field.

    Reads CONFIG_SCHEMA's keywords as jsonschema's Draft 2020-12 does, with
    one rule for values a library caller may pass: a number is an int or
    float (np.float64 is one) but no bool, and a "number" field must fit a
    finite float64; a string is a str and compares with ==.  So it accepts no
    value jsonschema refuses, and of the values jsonschema accepts refuses
    only numbers no float64 holds and non-JSON numbers (numpy integers,
    np.float32).
    """
    kind = schema.get("type")
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind and not {
        "object": isinstance(value, dict), "array": isinstance(value, list),
        "string": isinstance(value, str), "boolean": isinstance(value, bool),
        "number": number, "integer": number and (isinstance(value, int) or value.is_integer()),
    }[kind]:
        raise _error(path, f"expected {kind}, got {type(value).__name__}")
    options = schema.get("enum", [schema["const"]] if "const" in schema else None)
    if options is not None and not (isinstance(value, str) and value in options):
        raise _error(path, f"expected one of {options}")
    if "oneOf" in schema:  # its branches differ in type (a test checks), so one fits at most
        errors = []
        for branch in schema["oneOf"]:
            try:
                return _checked(value, branch, path)
            except ConfigError as exc:
                errors.append(str(exc))
        # An error below path comes from the branch that fits the value's type.
        where = f"{path or '<top level>'}: "
        deep = [e for e in errors if not e.startswith(where)]
        raise ConfigError(deep[0] if deep else where + " or ".join(e[len(where):] for e in errors))
    if kind in ("number", "integer"):
        # JSON parsers read NaN, Infinity and ints that overflow a float.
        if kind == "number" and not abs(value) <= sys.float_info.max:
            raise _error(path, "must be a finite number within float64 range")
        if value < schema.get("minimum", -math.inf):
            raise _error(path, f"expected >= {schema['minimum']}, got {value}")
        if value > schema.get("maximum", math.inf):
            raise _error(path, f"expected <= {schema['maximum']}")  # value may print 4,300+ digits
        if value <= schema.get("exclusiveMinimum", -math.inf):
            raise _error(path, f"expected > {schema['exclusiveMinimum']}, got {value}")
        return int(value) if kind == "integer" else value
    if kind == "array":
        if len(value) < schema.get("minItems", 0):
            raise _error(path, f"expected at least {schema['minItems']} items, got {len(value)}")
        items = schema["items"]
        return [_checked(v, items, f"{path}.{i}" if path else str(i)) for i, v in enumerate(value)]
    if kind == "object":  # every object schema sets additionalProperties false (a test checks)
        props = schema["properties"]
        for key in schema.get("required", ()):
            if key not in value:
                raise _error(path, f"missing required field {key!r}")
        for key in value:
            if key not in props:
                raise _error(path, f"unknown field {key!r}")
        return {k: _checked(v, props[k], f"{path}.{k}" if path else k) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, resolved experiment description.

    ``frequencies`` are listed in ascending order and pair index-wise with
    the system's modes sorted by ascending natural frequency; ``magnitudes``
    give |A_n| in the same listed order.
    """

    experiment: str
    seed: int
    system: object = "paper-4dof"
    frequencies: tuple[float, ...] | None = None
    magnitudes: tuple[float, ...] | None = None
    sampling: dict = field(default_factory=dict)
    n_trials: int | None = None
    n_phi_seeds: int | None = None
    data_path: str | None = None
    header: bool = False
    n_benchmark_modes: int | None = None

    def __post_init__(self):
        """Validate as from_dict does; frequencies and magnitudes become tuples of floats."""
        for key, value in _checked(self.as_dict(), CONFIG_SCHEMA).items():
            object.__setattr__(self, key, tuple(map(float, value)) if key in _MODAL else value)
        _validate_semantics(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        # CONFIG_SCHEMA's properties are the dataclass fields (a test checks).
        return cls(**_checked(raw, CONFIG_SCHEMA))

    def as_dict(self) -> dict:
        """JSON-serializable echo of the configuration, without the optional fields left None."""
        return {
            f.name: list(v) if isinstance(v, tuple) else dict(v) if isinstance(v, dict) else v
            for f in fields(self)
            if (v := getattr(self, f.name)) is not None or f.default is not None
        }


def _cap(name: str, count: float, limit: int, what: str):
    if count > limit:
        raise ConfigError(f"{name}: asks for {count:.3g} {what}; the limit is {limit}")


# The fields and "sampling.<key>" entries each experiment needs; exp2 runs exp1's protocol.
_MODAL = ("frequencies", "magnitudes")
_REQUIRED = {
    "exp1": _MODAL + ("sampling.t_s", "sampling.t_max_step", "sampling.t_max_stop"),
    "exp3": _MODAL + ("sampling.t_s", "sampling.m_values", "n_trials"),
    "exp4": _MODAL + ("sampling.t_s_sub", "sampling.t_s_super", "sampling.t_max",
                      "sampling.m_prime", "n_phi_seeds"),
    "exp5": _MODAL + ("sampling.t_s", "sampling.t_max"),
    "realdata": ("data_path", "n_benchmark_modes", "sampling.t_s", "sampling.m_prime"),
}
_REQUIRED["exp2"] = _REQUIRED["exp1"]


def _need(cfg: ExperimentConfig, *names: str):
    """ConfigError naming the first missing one of names, a field or "sampling.<key>"."""
    for name in names:
        key = name.removeprefix("sampling.")
        if key == name and getattr(cfg, name) is None:
            raise ConfigError(f"{cfg.experiment}: field {name!r} is required")
        if key != name and key not in cfg.sampling:
            raise ConfigError(f"{cfg.experiment}: {name} is required")


def _samples_for(t_max: float, t_s: float) -> int:
    """Uniform samples at spacing t_s in [0, t_max], the endpoint included."""
    return int(math.floor(t_max / t_s + 1e-9)) + 1


def _need_modes(cfg: ExperimentConfig, t_s_key: str):
    """Require sampling.t_max at spacing sampling.<t_s_key> to give N samples."""
    n = len(cfg.frequencies)
    m = _samples_for(cfg.sampling["t_max"], cfg.sampling[t_s_key])
    if m < n:
        raise ConfigError(
            f"sampling.t_max: gives M={m} samples at {t_s_key} = "
            f"{cfg.sampling[t_s_key]}, fewer than the N={n} modes"
        )


def _validate_semantics(cfg: ExperimentConfig):
    _need(cfg, *_REQUIRED[cfg.experiment])
    if cfg.experiment == "realdata":
        return
    freqs, n = cfg.frequencies, len(cfg.frequencies)
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise ConfigError("frequencies: must be strictly ascending")
    if len(cfg.magnitudes) != n:
        raise ConfigError(
            f"magnitudes: expected {n} entries to match frequencies, "
            f"got {len(cfg.magnitudes)}"
        )
    if cfg.experiment in ("exp1", "exp2"):
        start = cfg.sampling.get("t_max_start", 0.0)
        stop = cfg.sampling["t_max_stop"]
        if stop < start:
            raise ConfigError("sampling.t_max_stop: must be >= t_max_start")
        points = (stop - start) / cfg.sampling["t_max_step"] + 1
        _cap("sampling.t_max_step", points, MAX_POINTS, "sweep points")
        _cap("sampling.t_s", stop / cfg.sampling["t_s"], MAX_SAMPLES, "samples")
    elif cfg.experiment == "exp3":
        bad = [m for m in cfg.sampling["m_values"] if m < n]
        if bad:
            raise ConfigError(
                f"sampling.m_values: every entry must be >= {n} modes, got {bad}"
            )
        trials = cfg.n_trials * len(cfg.sampling["m_values"])
        _cap("n_trials", trials, MAX_POINTS, "trials over all m_values")
        _cap("sampling.m_values", max(cfg.sampling["m_values"]), MAX_SAMPLES, "samples")
    elif cfg.experiment == "exp4":
        _cap("n_phi_seeds", cfg.n_phi_seeds, MAX_POINTS, "Phi seeds")
        for key in ("t_s_sub", "t_s_super"):
            samples = cfg.sampling["t_max"] / cfg.sampling[key]
            _cap(f"sampling.{key}", samples, MAX_SAMPLES, "samples")
        m_super = _samples_for(cfg.sampling["t_max"], cfg.sampling["t_s_super"])
        m_prime = cfg.sampling["m_prime"]
        if not n <= m_prime <= m_super:
            raise ConfigError(
                f"sampling.m_prime: need {n} modes <= M' <= M = {m_super} "
                f"super-Nyquist samples, got M'={m_prime}"
            )
        _need_modes(cfg, "t_s_sub")
    elif cfg.experiment == "exp5":
        samples = cfg.sampling["t_max"] / cfg.sampling["t_s"]
        padded = cfg.sampling.get("zero_pad_factor", 8) * samples
        _cap("sampling.t_s", padded, MAX_SAMPLES, "padded FFT bins")
        _need_modes(cfg, "t_s")


def build_system(cfg: ExperimentConfig) -> MdofSystem:
    if cfg.system == "paper-4dof":
        return MdofSystem(np.eye(4), PAPER_4DOF_STIFFNESS)
    return MdofSystem(cfg.system["mass"], cfg.system["stiffness"])


def build_basis(cfg: ExperimentConfig) -> ModalBasis:
    """Modal basis for a synthetic experiment.

    Mode shapes come from the configured system; the experiment's listed
    frequencies and magnitudes override the system's natural frequencies
    index-wise (listed ascending order against ascending natural order).
    """
    _checked_type(cfg, ExperimentConfig, "config")
    try:
        modes = solve_modes(build_system(cfg))
    except (InvalidArgument, NonPositiveEigenvalue) as exc:
        # The system comes from the config, so a fault MdofSystem or the solve finds names it.
        raise ConfigError(f"system: {exc}") from exc
    n = modes.n_dof
    _need(cfg, *_MODAL)
    if len(cfg.frequencies) != n:
        raise ConfigError(
            f"frequencies: system has {n} modes, got {len(cfg.frequencies)} entries"
        )
    # solve_modes sorts descending, so reverse the ascending listed values.
    return ModalBasis(modes.mode_shapes, cfg.frequencies[::-1], cfg.magnitudes[::-1])


def _pi_multiples(*values: float) -> list[float]:
    return [v * math.pi for v in values]


# Preset seeds are arbitrary but pinned: the random-schedule realizations in
# the shipped tables (and the regression tests built on them) depend on them.
_SWEEP_SEED = 20260654
_EXP3_SEED = 310
_EXP4_SEED = 1789
_EXP5_SEED = 5


def preset(name: str) -> dict:
    """Raw configuration dict for a named experiment preset."""
    _checked(name, CONFIG_SCHEMA["properties"]["experiment"], "experiment")
    gamma = [1.0, 0.45, 0.15, 0.01]
    if name == "exp1":
        return {
            "experiment": "exp1",
            "system": "paper-4dof",
            "frequencies": _pi_multiples(2.1, 4.28, 6.02, 8.24),
            "magnitudes": list(gamma),
            "sampling": {"t_s": 0.1, "t_max_start": 0.0, "t_max_step": 0.1, "t_max_stop": 2.0},
            "seed": _SWEEP_SEED,
        }
    if name == "exp2":
        cfg = preset("exp1")
        # Same protocol and seed (seed-matched schedules); only the third
        # frequency moves, shrinking the minimum separation to 0.32 pi.
        cfg["experiment"] = "exp2"
        cfg["frequencies"] = _pi_multiples(2.1, 4.28, 4.6, 8.24)
        return cfg
    if name == "exp3":
        return {
            "experiment": "exp3",
            "system": "paper-4dof",
            "frequencies": _pi_multiples(2.1, 4.28, 4.6, 8.24),
            "magnitudes": list(gamma),
            "sampling": {"t_s": 0.1, "m_values": [6, 10, 14, 18, 21], "extension": 2.0},
            "n_trials": 50,
            "seed": _EXP3_SEED,
        }
    if name == "exp4":
        return {
            "experiment": "exp4",
            "system": "paper-4dof",
            "frequencies": _pi_multiples(10.6, 106.2, 200.8, 360.0),
            "magnitudes": list(gamma),
            "sampling": {"t_s_sub": 0.0629, "t_s_super": 0.002, "t_max": 2.0, "m_prime": 32},
            "n_phi_seeds": 20,
            "seed": _EXP4_SEED,
        }
    if name == "exp5":
        return {
            "experiment": "exp5",
            "system": "paper-4dof",
            "frequencies": _pi_multiples(6.24, 20.50, 30.06, 40.22),
            "magnitudes": list(gamma),
            "sampling": {"t_s": 0.03, "t_max": 6.03, "zero_pad_factor": 8},
            "seed": _EXP5_SEED,
        }
    return {
        "experiment": "realdata",
        # data_path and sampling.t_s depend on the dataset; supply them in a
        # config file on top of this preset.
        "sampling": {"m_prime": 50},
        "n_benchmark_modes": 3,
        "header": False,
        "seed": 424242,
    }


def preset_config(name: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(preset(name))
