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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidArgument, NonPositiveEigenvalue
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
            "items": {"type": "integer", "minimum": 1},
        },
        "extension": {"type": "number", "exclusiveMinimum": 0},
        "t_s_sub": {"type": "number", "exclusiveMinimum": 0},
        "t_s_super": {"type": "number", "exclusiveMinimum": 0},
        "m_prime": {"type": "integer", "minimum": 1},
        "zero_pad_factor": {"type": "integer", "minimum": 1},
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
        "n_trials": {"type": "integer", "minimum": 1},
        "n_phi_seeds": {"type": "integer", "minimum": 1},
        "data_path": {"type": "string"},
        "header": {"type": "boolean"},
        "n_benchmark_modes": {"type": "integer", "minimum": 1},
    },
}


_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "number": (int, float), "integer": int}


def _conforms(value, schema) -> bool:
    """False unless jsonschema accepts value under schema, for CONFIG_SCHEMA's keywords.

    It may turn down what jsonschema accepts (numpy integers, a str subclass),
    never the reverse; from_dict then asks jsonschema, which words rejections.
    """
    kind = schema.get("type")
    # A bool is an int but no JSON number; an integral float is an integer.
    if kind and not (
        isinstance(value, _JSON_TYPES[kind]) and isinstance(value, bool) == (kind == "boolean")
        or kind == "integer" and isinstance(value, float) and value.is_integer()
    ):
        return False
    options = schema.get("enum", [schema["const"]] if "const" in schema else None)
    if options is not None and not any(type(value) is type(o) and value == o for o in options):
        return False
    # CONFIG_SCHEMA's oneOf branches differ in type, so no value passes two.
    if "oneOf" in schema and sum(_conforms(value, s) for s in schema["oneOf"]) != 1:
        return False
    if kind in ("number", "integer"):
        return value >= schema.get("minimum", -math.inf) and value > schema.get("exclusiveMinimum", -math.inf)
    if kind == "array":
        return len(value) >= schema.get("minItems", 0) and all(_conforms(v, schema["items"]) for v in value)
    if kind == "object":
        props = schema["properties"]
        return (
            all(key in value for key in schema.get("required", ())) and all(key in props for key in value)
            and all(_conforms(value[key], s) for key, s in props.items() if key in value)
        )
    return True


def _as_ints(value, schema):
    """value with every field that schema types "integer" as an int (_conforms passes 3.0)."""
    kind = schema.get("type")
    if kind == "integer":
        return int(value)
    if kind == "array":
        return [_as_ints(v, schema["items"]) for v in value]
    if kind == "object":
        return {key: _as_ints(v, schema["properties"][key]) for key, v in value.items()}
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

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        bad = _non_finite_field(raw)
        if bad is not None:
            # JSON parsers accept NaN and Infinity, and every schema bound
            # lets NaN through.
            raise ConfigError(f"{bad}: must be a finite number")
        if not _conforms(raw, CONFIG_SCHEMA):  # importing jsonschema outlasts a preset run
            from jsonschema.exceptions import best_match
            from jsonschema.validators import validator_for

            # Not jsonschema.validate: it checks the constant schema against
            # the metaschema on each call (about 20 ms); the tests do that once.
            error = best_match(validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA).iter_errors(raw))
            if error is not None:
                where = ".".join(str(p) for p in error.absolute_path) or "<top level>"
                raise ConfigError(f"{where}: {error.message}") from error
        raw = _as_ints(raw, CONFIG_SCHEMA)
        cfg = cls(
            experiment=raw["experiment"],
            seed=raw["seed"],
            system=raw.get("system", "paper-4dof"),
            frequencies=_opt_tuple(raw.get("frequencies")),
            magnitudes=_opt_tuple(raw.get("magnitudes")),
            sampling=dict(raw.get("sampling", {})),
            n_trials=raw.get("n_trials"),
            n_phi_seeds=raw.get("n_phi_seeds"),
            data_path=raw.get("data_path"),
            header=raw.get("header", False),
            n_benchmark_modes=raw.get("n_benchmark_modes"),
        )
        _validate_semantics(cfg)
        return cfg

    def as_dict(self) -> dict:
        """JSON-serializable echo of the resolved configuration."""
        out = {
            "experiment": self.experiment,
            "seed": self.seed,
            "system": self.system,
            "sampling": dict(self.sampling),
            "header": self.header,
        }
        for key in ("frequencies", "magnitudes"):
            value = getattr(self, key)
            if value is not None:
                out[key] = list(value)
        for key in ("n_trials", "n_phi_seeds", "data_path", "n_benchmark_modes"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


def _non_finite_field(value, path=()):
    """Dotted path of the first NaN or infinite number in a JSON value, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else ".".join(path) or "<top level>"
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        found = _non_finite_field(item, path + (str(key),))
        if found is not None:
            return found
    return None


def _cap(name: str, count: float, limit: int, what: str):
    if count > limit:
        raise ConfigError(f"{name}: asks for {count:.3g} {what}; the limit is {limit}")


def _opt_tuple(values):
    return None if values is None else tuple(float(v) for v in values)


def _need(cfg: ExperimentConfig, *fields: str):
    for name in fields:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{cfg.experiment}: field {name!r} is required")


def _need_sampling(cfg: ExperimentConfig, *keys: str):
    for key in keys:
        if key not in cfg.sampling:
            raise ConfigError(f"{cfg.experiment}: sampling.{key} is required")


def _validate_modal_lists(cfg: ExperimentConfig):
    _need(cfg, "frequencies", "magnitudes")
    freqs = cfg.frequencies
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise ConfigError("frequencies: must be strictly ascending")
    if len(cfg.magnitudes) != len(freqs):
        raise ConfigError(
            f"magnitudes: expected {len(freqs)} entries to match frequencies, "
            f"got {len(cfg.magnitudes)}"
        )


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
    if cfg.experiment in ("exp1", "exp2"):
        _validate_modal_lists(cfg)
        _need_sampling(cfg, "t_s", "t_max_step", "t_max_stop")
        start = cfg.sampling.get("t_max_start", 0.0)
        stop = cfg.sampling["t_max_stop"]
        if stop < start:
            raise ConfigError("sampling.t_max_stop: must be >= t_max_start")
        points = (stop - start) / cfg.sampling["t_max_step"] + 1
        _cap("sampling.t_max_step", points, MAX_POINTS, "sweep points")
        _cap("sampling.t_s", stop / cfg.sampling["t_s"], MAX_SAMPLES, "samples")
    elif cfg.experiment == "exp3":
        _validate_modal_lists(cfg)
        _need_sampling(cfg, "t_s", "m_values")
        n = len(cfg.frequencies)
        bad = [m for m in cfg.sampling["m_values"] if m < n]
        if bad:
            raise ConfigError(
                f"sampling.m_values: every entry must be >= {n} modes, got {bad}"
            )
        _need(cfg, "n_trials")
        trials = cfg.n_trials * len(cfg.sampling["m_values"])
        _cap("n_trials", trials, MAX_POINTS, "trials over all m_values")
        _cap("sampling.m_values", max(cfg.sampling["m_values"]), MAX_SAMPLES, "samples")
    elif cfg.experiment == "exp4":
        _validate_modal_lists(cfg)
        _need_sampling(cfg, "t_s_sub", "t_s_super", "t_max", "m_prime")
        _need(cfg, "n_phi_seeds")
        _cap("n_phi_seeds", cfg.n_phi_seeds, MAX_POINTS, "Phi seeds")
        for key in ("t_s_sub", "t_s_super"):
            samples = cfg.sampling["t_max"] / cfg.sampling[key]
            _cap(f"sampling.{key}", samples, MAX_SAMPLES, "samples")
        n = len(cfg.frequencies)
        m_super = _samples_for(cfg.sampling["t_max"], cfg.sampling["t_s_super"])
        m_prime = cfg.sampling["m_prime"]
        if not n <= m_prime <= m_super:
            raise ConfigError(
                f"sampling.m_prime: need {n} modes <= M' <= M = {m_super} "
                f"super-Nyquist samples, got M'={m_prime}"
            )
        _need_modes(cfg, "t_s_sub")
    elif cfg.experiment == "exp5":
        _validate_modal_lists(cfg)
        _need_sampling(cfg, "t_s", "t_max")
        samples = cfg.sampling["t_max"] / cfg.sampling["t_s"]
        padded = cfg.sampling.get("zero_pad_factor", 8) * samples
        _cap("sampling.t_s", padded, MAX_SAMPLES, "padded FFT bins")
        _need_modes(cfg, "t_s")
    elif cfg.experiment == "realdata":
        _need(cfg, "data_path", "n_benchmark_modes")
        _need_sampling(cfg, "t_s", "m_prime")


def build_system(cfg: ExperimentConfig) -> MdofSystem:
    if cfg.system == "paper-4dof":
        return MdofSystem(np.eye(4), np.array(PAPER_4DOF_STIFFNESS))
    try:
        return MdofSystem(np.array(cfg.system["mass"]), np.array(cfg.system["stiffness"]))
    except ValueError as exc:
        # Ragged rows (from np.array) and every MdofSystem rejection.
        raise ConfigError(f"system: {exc}") from exc


def build_basis(cfg: ExperimentConfig) -> ModalBasis:
    """Modal basis for a synthetic experiment.

    Mode shapes come from the configured system; the experiment's listed
    frequencies and magnitudes override the system's natural frequencies
    index-wise (listed ascending order against ascending natural order).
    """
    system = build_system(cfg)
    try:
        modes = solve_modes(system)
    except (InvalidArgument, NonPositiveEigenvalue) as exc:
        # The system comes from the config, so a fault the solve finds names it.
        raise ConfigError(f"system: {exc}") from exc
    n = modes.n_dof
    _need(cfg, "frequencies")
    if len(cfg.frequencies) != n:
        raise ConfigError(
            f"frequencies: system has {n} modes, got {len(cfg.frequencies)} entries"
        )
    # solve_modes sorts descending, so reverse the ascending listed values.
    freqs = np.asarray(cfg.frequencies, dtype=float)[::-1]
    amps = np.asarray(cfg.magnitudes, dtype=float)[::-1]
    return ModalBasis(modes.mode_shapes, freqs, amps)


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
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; expected one of {EXPERIMENTS}")
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
