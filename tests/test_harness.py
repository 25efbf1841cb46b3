"""Configuration, result serialization, experiment runner, and CLI."""

import csv
import dataclasses
import importlib.util
import io
import itertools
import json
import math
import os
import re
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for

from modalcs import (
    EXPERIMENTS,
    ConfigError,
    DomainError,
    ExperimentConfig,
    InvalidArgument,
    IoError,
    JlMatrix,
    ParseError,
    RaggedRows,
    ResultTable,
    build_basis,
    build_data_matrix,
    build_steering,
    emit_plot_data,
    gram_deviation,
    load_sensor_csv,
    preset,
    preset_config,
    random_schedule,
    run_experiment,
    save_sensor_csv,
    uniform_schedule,
    welch_csd,
    write_result_csv,
)
from conftest import table_column
from modalcs import config as config_module
from modalcs import results as results_module
from modalcs import runner as runner_module
from modalcs import sampling as sampling_module
from modalcs.cli import run as cli_run
from modalcs.config import CONFIG_SCHEMA, build_system
from modalcs.estimator import _gram_modes, _mode_errors
from modalcs.results import Panel, _csv_text, _repr_column
from modalcs.sampling import _ModalData, rng_from_seed, spawn_seeds
from test_acceptance import synthetic_sensors

PRESETS_REFERENCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "reference", "presets.json"
)


def small_sweep_config(seed=None, stop=0.5):
    raw = preset("exp1")
    raw["sampling"]["t_max_stop"] = stop
    if seed is not None:
        raw["seed"] = seed
    return ExperimentConfig.from_dict(raw)


# Finite JSON values only: NaN and infinities are rejected before the schema.
_json_leaf = (
    st.none()
    | st.booleans()
    | st.integers(-2, 3000)
    | st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    | st.text(max_size=3)
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_positive = st.floats(1e-3, 10.0) | st.integers(1, 50)
_positive_list = st.lists(_positive, max_size=5)
_matrix = st.lists(
    st.lists(st.integers(-2, 4) | st.floats(-2.0, 4.0), min_size=1, max_size=3),
    min_size=1,
    max_size=3,
)
_SAMPLING_FIELDS = {
    key: st.floats(1e-3, 10.0)
    for key in ("t_s", "t_max", "t_max_start", "t_max_step", "t_max_stop", "extension", "t_s_sub", "t_s_super")
}
_SAMPLING_FIELDS.update(
    m_values=st.lists(st.integers(1, 30), min_size=1, max_size=5),
    m_prime=st.integers(1, 3000),
    zero_pad_factor=st.integers(1, 16),
    t_stop=_positive,  # not in the schema
)
# Field values near the schema: plausible ones, plus an arbitrary JSON value
# in a fifth of the draws.
_TOP_FIELDS = {
    "experiment": st.sampled_from(EXPERIMENTS + ("exp9",)),
    "seed": st.integers(-1, 2**40),
    "system": st.sampled_from(["paper-4dof", "paper-5dof"])
    | st.fixed_dictionaries(
        {}, optional={"mass": _matrix | _json_value, "stiffness": _matrix | _json_value, "damping": _json_leaf}
    ),
    "frequencies": _positive_list,
    "magnitudes": _positive_list,
    "sampling": st.fixed_dictionaries({}, optional=_SAMPLING_FIELDS),
    "n_trials": st.integers(-1, 60),
    "n_phi_seeds": st.integers(-1, 30),
    "data_path": st.text(max_size=5),
    "header": st.booleans(),
    "n_benchmark_modes": st.integers(-1, 5),
    "out_dir": st.none() | st.text(max_size=5),
    "n_bootstrap": _json_value,  # not in the schema
}


@st.composite
def raw_configs(draw):
    """A preset with a few top-level and sampling fields replaced or removed."""
    raw = preset(draw(st.sampled_from(EXPERIMENTS)))

    def value(strategy):
        return draw(_json_value if draw(st.integers(0, 4)) == 0 else strategy)

    for key in draw(st.lists(st.sampled_from(sorted(_TOP_FIELDS)), max_size=2, unique=True)):
        raw[key] = value(_TOP_FIELDS[key])
    if isinstance(raw.get("sampling"), dict):
        for key in draw(st.lists(st.sampled_from(sorted(_SAMPLING_FIELDS)), max_size=3, unique=True)):
            raw["sampling"][key] = value(_SAMPLING_FIELDS[key])
    if draw(st.integers(0, 4)) == 0:
        del raw[draw(st.sampled_from(sorted(raw)))]
    return raw


class _Name(str):
    """A str subclass, as a JSON decoder's object hook might hand over."""


# Values on the edges of jsonschema's type rules: integral floats, ints past
# float range, numpy scalars and bools where numbers go; tuples for arrays.
_EDGE_NUMBERS = [
    3.0, 2.5, 1e300, 2**63, 2**1100, np.float64(3.0), np.float64(0.25), np.int64(3),
    1, 0, -1, -0.0, True, False, np.bool_(True), math.nan, math.inf,
]
_EDGE_LEAVES = _EDGE_NUMBERS + [None, "", "exp1", _Name("exp1"), "paper-4dof", _Name("paper-4dof")]
_edge_value = st.recursive(
    st.sampled_from(_EDGE_LEAVES),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.sampled_from(["mass", "stiffness", "damping", "t_s"]), inner, max_size=3),
    max_leaves=6,
)
_EDGE_PATHS = (
    [(key,) for key in CONFIG_SCHEMA["properties"]]
    + [("sampling", key) for key in CONFIG_SCHEMA["properties"]["sampling"]["properties"]]
    + [("system", "mass"), ("system", "stiffness"), ("system", "damping"), ("frequencies", 0), ("magnitudes", 1)]
)


def _edge_values(schema):
    """Edge values of the JSON type schema asks for; bare leaves for the rest."""
    if schema.get("type") == "array":
        items = _edge_values(schema["items"])
        return st.lists(items, max_size=4) | st.lists(items, max_size=4).map(tuple)
    if schema.get("type") in ("number", "integer"):
        return st.sampled_from(_EDGE_NUMBERS) | st.integers(1, 2**80)
    return st.sampled_from(_EDGE_LEAVES)


def _set_edge(raw, path, value):
    """Set raw at path to value where the path exists; a list index must be in range."""
    parent, key = raw if len(path) == 1 else raw.get(path[0]), path[-1]
    if isinstance(parent, dict) or isinstance(parent, list) and isinstance(key, int) and key < len(parent):
        parent[key] = value


@st.composite
def edge_configs(draw):
    """A preset, sometimes with a custom system, with a few values set to type edges."""
    raw = preset(draw(st.sampled_from(EXPERIMENTS)))
    if draw(st.booleans()):
        raw["system"] = {"mass": [[1.0]], "stiffness": [[2.0]]}
    for path in draw(st.lists(st.sampled_from(_EDGE_PATHS), min_size=1, max_size=2, unique=True)):
        schema = CONFIG_SCHEMA
        for key in path:
            schema = schema.get("oneOf", [schema])[-1]  # system: the custom-matrix branch
            schema = schema["items"] if isinstance(key, int) else schema["properties"].get(key, {})
        _set_edge(raw, path, draw(_edge_value if draw(st.integers(0, 4)) == 0 else _edge_values(schema)))
    return raw


# jsonschema is the reference the walker is checked against; no run loads it.
VALIDATOR = validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def jsonschema_error_paths(raw) -> set[str]:
    """Dotted paths of every error in jsonschema's error tree for raw, oneOf branches included."""
    paths, errors = set(), list(VALIDATOR.iter_errors(raw))
    while errors:
        error = errors.pop()
        paths.add(".".join(str(p) for p in error.absolute_path) or "<top level>")
        errors.extend(error.context)
    return paths


def schema_error(raw) -> str | None:
    """The walker's ConfigError text for raw, or None if it accepts raw."""
    try:
        config_module._checked(raw, CONFIG_SCHEMA)
    except ConfigError as exc:
        return str(exc)
    return None


def is_json_typed(value) -> bool:
    """True if value holds only plain JSON types and numbers a float64 holds,
    where the walker must agree with jsonschema; numpy scalars, str subclasses,
    nan, infinities and ints past 1.8e308 are not."""
    if type(value) in (list, tuple):
        return all(map(is_json_typed, value))
    if type(value) is dict:
        return all(type(k) is str and is_json_typed(v) for k, v in value.items())
    if type(value) in (int, float):
        return abs(value) <= sys.float_info.max
    return value is None or type(value) in (bool, str)


def assert_walker_agrees(raw):
    """Accepted implies valid always; valid implies accepted on JSON-typed values."""
    accepted, valid = schema_error(raw) is None, VALIDATOR.is_valid(raw)
    assert valid if accepted else not (valid and is_json_typed(raw)), (accepted, raw)
    return accepted


class TestConfigValidation:
    def test_presets_resolve(self):
        for name in EXPERIMENTS:
            if name == "realdata":
                continue
            cfg = preset_config(name)
            assert cfg.experiment == name

    def test_realdata_preset_needs_data_path(self):
        with pytest.raises(ConfigError, match="data_path"):
            preset_config("realdata")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("exp9")

    def test_sweep_stop_below_start(self):
        raw = preset("exp1")
        raw["sampling"].update(t_max_start=1.0, t_max_stop=0.5)
        with pytest.raises(ConfigError, match="^sampling.t_max_stop: must be >= t_max_start$"):
            ExperimentConfig.from_dict(raw)

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig.from_dict({"seed": 1})

    def test_unknown_field_rejected(self):
        raw = preset("exp1")
        raw["n_bootstrap"] = 10
        with pytest.raises(ConfigError, match="n_bootstrap"):
            ExperimentConfig.from_dict(raw)

    def test_wrong_type_reported_with_path(self):
        raw = preset("exp1")
        raw["sampling"]["t_s"] = "fast"
        with pytest.raises(ConfigError, match="sampling.t_s"):
            ExperimentConfig.from_dict(raw)

    def test_unsorted_frequencies(self):
        raw = preset("exp1")
        raw["frequencies"] = list(reversed(raw["frequencies"]))
        with pytest.raises(ConfigError, match="frequencies"):
            ExperimentConfig.from_dict(raw)

    def test_exp3_sample_counts_cover_modes(self):
        raw = preset("exp3")
        raw["sampling"]["m_values"] = [2, 6]
        with pytest.raises(ConfigError, match="m_values"):
            ExperimentConfig.from_dict(raw)

    # 2**1100 used to leak an OverflowError from float().
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2**1100])
    @pytest.mark.parametrize(
        "path", [("sampling", "t_s"), ("sampling", "t_max_stop"), ("frequencies", 2)]
    )
    def test_non_finite_number_names_field(self, path, value):
        raw = preset("exp1")
        raw[path[0]][path[1]] = value
        with pytest.raises(ConfigError, match=rf"^{path[0]}\.{path[1]}: must be a finite"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "name, field, value",
        [
            ("exp1", ("sampling", "t_max_step"), 1e-9),
            ("exp2", ("sampling", "t_s"), 1e-9),
            ("exp3", ("n_trials",), 10**6),
            ("exp3", ("sampling", "m_values"), [6, 10**12]),
            ("exp4", ("n_phi_seeds",), 10**9),
            ("exp4", ("sampling", "t_s_super"), 1e-12),
            ("exp5", ("sampling", "t_s"), 1e-6),
        ],
    )
    def test_allocation_caps_name_field(self, name, field, value):
        # Each of these would ask for gigabytes of seeds or samples.
        raw = preset(name)
        target = raw
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
        with pytest.raises(ConfigError, match=rf"^{'.'.join(field)}: asks for .* limit is"):
            ExperimentConfig.from_dict(raw)

    # Each leaked an OverflowError from the caps' float formatting.
    @pytest.mark.parametrize("name, overlay, field", [
        ("exp3", {"n_trials": 2**1100}, "n_trials"),
        ("exp4", {"n_phi_seeds": 2**1100}, "n_phi_seeds"),
        ("exp3", {"sampling": {"m_values": [6, 2**1100]}}, "sampling.m_values.1"),
        ("exp5", {"sampling": {"zero_pad_factor": 2**1100}}, "sampling.zero_pad_factor"),
    ])
    def test_counts_past_2_53_exit_2(self, tmp_path, capsys, name, overlay, field):
        (tmp_path / "overlay.json").write_text(json.dumps(overlay))
        argv = ["run", "--experiment", name, "--config", str(tmp_path / "overlay.json"),
                "--out", str(tmp_path / "o")]
        assert cli_run(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: expected <= {2**53}")

    def test_integral_floats_become_ints(self):
        raw = {**preset("realdata"), "seed": 7.0, "n_benchmark_modes": 2.0, "data_path": "x.csv"}
        raw["sampling"] = {"t_s": 0.01, "m_prime": 50.0}
        cfg = ExperimentConfig.from_dict(raw)
        assert [type(v) for v in (cfg.seed, cfg.n_benchmark_modes, cfg.sampling["m_prime"])] == [int] * 3
        assert type(cfg.sampling["t_s"]) is float

    def test_round_trip_through_as_dict(self):
        cfg = preset_config("exp4")
        assert ExperimentConfig.from_dict(cfg.as_dict()) == cfg

    def test_as_dict_is_json_serializable(self):
        for name in ("exp1", "exp3", "exp5"):
            json.dumps(preset_config(name).as_dict())

    def test_config_schema_is_valid(self):
        # No run checks the constant schema against its metaschema.
        validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)

    def test_presets_pass_the_acceptor(self):
        for name in EXPERIMENTS:
            assert config_module._checked(preset(name), CONFIG_SCHEMA) == preset(name)

    def test_acceptor_knows_every_schema_keyword(self):
        # The walker reads bounds and structure only beside their type,
        # ignores keywords it does not know, treats every object as closed,
        # compares enums as strings and takes the first oneOf branch that
        # fits: each assumption, broken, would make it looser than jsonschema.
        beside = {
            "minimum": ("number", "integer"), "exclusiveMinimum": ("number", "integer"),
            "maximum": ("number", "integer"),
            "items": ("array",), "minItems": ("array",),
            "properties": ("object",), "required": ("object",), "additionalProperties": ("object",),
        }

        def walk(schema):
            assert set(schema) <= set(beside) | {"type", "enum", "const", "oneOf"}
            for key in set(beside) & set(schema):
                assert schema.get("type") in beside[key], key
            if schema.get("type") == "array":
                assert "items" in schema
            if schema.get("type") == "object":
                assert "properties" in schema and schema["additionalProperties"] is False
            assert all(isinstance(o, str) for o in schema.get("enum", [schema.get("const", "")]))
            # Branches of distinct JSON types: no value fits two.
            kinds = [b.get("type", "string" if "const" in b else None) for b in schema.get("oneOf", [])]
            assert None not in kinds and len(set(kinds)) == len(kinds)
            subschemas = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
            for sub in subschemas + ([schema["items"]] if "items" in schema else []):
                walk(sub)

        walk(CONFIG_SCHEMA)
        # from_dict builds the dataclass from the walked dict's keys.
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert list(CONFIG_SCHEMA["properties"]) == names

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(raw=edge_configs())
    def test_acceptor_never_looser_than_jsonschema(self, raw):
        assert_walker_agrees(raw)

    def test_acceptor_never_looser_on_any_single_edge(self):
        # Every edge value at every field of every preset, one at a time.
        shapes = [[], (), [3.0, 2.5], (3.0, 2.5), [[1.0]], [[]], {}, {"mass": [[1.0]]}]
        accepted = 0
        for name, path, value in itertools.product(EXPERIMENTS, _EDGE_PATHS, _EDGE_LEAVES + shapes):
            raw = preset(name)
            if path[0] == "system" and len(path) == 2:
                raw["system"] = {"mass": [[1.0]], "stiffness": [[2.0]]}
            _set_edge(raw, path, value)
            accepted += assert_walker_agrees(raw)
        assert accepted > 500  # of 5,022 edits

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(raw=raw_configs())
    def test_from_dict_matches_reference_validation(self, raw):
        # raw_configs draws JSON values only: from_dict refuses at schema level
        # exactly when jsonschema does, naming a field jsonschema names.
        expected = schema_error(raw)
        assert (expected is None) == VALIDATOR.is_valid(raw)
        try:
            ExperimentConfig.from_dict(raw)
        except ConfigError as exc:
            if expected is not None:
                assert str(exc) == expected
                assert expected.split(": ")[0] in jsonschema_error_paths(raw)
        else:
            assert expected is None

    @pytest.mark.parametrize(
        "path, value, accepted",
        [
            (("sampling", "t_max"), np.int64(6), False),
            (("sampling", "t_max"), np.float32(6.03), False),
            (("seed",), np.int64(5), False),
            (("sampling", "t_max"), np.float64(6.03), True),
            (("experiment",), _Name("exp5"), True),
        ],
    )
    def test_library_scalars_write_files_or_raise_config_error(self, tmp_path, path, value, accepted):
        # A number is an int or float (np.float64 is one), never a numpy
        # integer or np.float32, which json.dumps cannot write to the manifest.
        raw = preset("exp5")
        (raw[path[0]] if len(path) == 2 else raw)[path[-1]] = value
        if not accepted:
            with pytest.raises(ConfigError, match=rf"^{'.'.join(path)}: expected"):
                ExperimentConfig.from_dict(raw)
            return
        written = emit_plot_data(run_experiment(ExperimentConfig.from_dict(raw)), str(tmp_path))
        with open(written[0], encoding="utf-8") as fh:
            assert json.load(fh)["config"]["sampling"]["t_max"] == 6.03
        assert all(os.path.getsize(p) > 0 for p in written)


class TestSystemAndBasis:
    def test_default_system_is_symmetric_4dof(self):
        system = build_system(preset_config("exp1"))
        assert system.mass.shape == (4, 4)
        npt.assert_array_equal(system.stiffness, system.stiffness.T)

    def test_custom_system(self):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "exp1",
                "seed": 1,
                "system": {"mass": [[1.0, 0.0], [0.0, 1.0]], "stiffness": [[2.0, -1.0], [-1.0, 2.0]]},
                "frequencies": [1.0, 2.0],
                "magnitudes": [1.0, 0.5],
                "sampling": {"t_s": 0.1, "t_max_start": 0.0, "t_max_step": 0.1, "t_max_stop": 0.5},
            }
        )
        basis = build_basis(cfg)
        assert basis.mode_shapes.shape == (2, 2)
        npt.assert_allclose(np.sort(basis.frequencies), [1.0, 2.0])

    def test_listed_order_pairs_with_ascending_modes(self):
        cfg = preset_config("exp1")
        basis = build_basis(cfg)
        # Basis columns are sorted by descending natural frequency, so the
        # ascending listed values appear reversed.
        npt.assert_allclose(basis.frequencies[::-1], cfg.frequencies)
        npt.assert_allclose(basis.amplitudes[::-1].real, cfg.magnitudes)
        assert abs(basis.amplitudes[0]) == pytest.approx(0.01)

    def test_wrong_frequency_count(self):
        raw = preset("exp1")
        raw["frequencies"] = raw["frequencies"][:3]
        raw["magnitudes"] = raw["magnitudes"][:3]
        with pytest.raises(ConfigError, match="frequencies"):
            build_basis(ExperimentConfig.from_dict(raw))


def _is_csv_cell(value) -> bool:
    """None, str, int or float: what csv.writer prints as the tables need."""
    return value is None or (isinstance(value, (str, int, float)) and not isinstance(value, bool))


class TestResultTable:
    def table(self):
        return ResultTable(
            "exp1",
            ["t_max", "scheme", "err", "gap", "m"],
            [(0.5, "uniform", 0.25, None, 3), (0.5, "random", 1.0 / 3.0, 0.1, 3)],
            {"experiment": "exp1"},
        )

    def test_row_width_enforced(self):
        with pytest.raises(InvalidArgument):
            ResultTable("exp1", ["a", "b"], [(1.0,)], {})

    def test_csv_formatting(self):
        text = self.table().to_csv()
        lines = text.split("\r\n")
        assert lines[0] == "t_max,scheme,err,gap,m"
        assert lines[1] == "0.5,uniform,0.25,,3"
        assert text.endswith("\r\n")

    def test_floats_round_trip_exactly(self):
        values = [0.1, 1.0 / 3.0, 1e-17, -2.5e300, 4.9e-324]
        table = ResultTable("exp1", ["v"], [(v,) for v in values], {})
        rows = list(csv.reader(io.StringIO(table.to_csv())))
        assert [float(r[0]) for r in rows[1:]] == values

    def test_cell_type_check_rejects_what_csv_writer_misprints(self):
        assert all(_is_csv_cell(v) for v in (None, "a", 3, 0.5, np.float64(0.1)))
        # csv.writer prints True, not 1, and float32 with its own short repr.
        assert not any(_is_csv_cell(v) for v in (True, np.float32(0.1), np.int64(3), 1 + 2j))

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_runner_cells_are_csv_writer_types(self, tmp_path, experiment):
        # to_csv and emit_plot_data print cells as csv.writer does: numeric
        # columns through repr(), everything else through csv.writer itself.
        raw = preset(experiment)
        if experiment == "realdata":
            raw["data_path"] = str(tmp_path / "sensors.csv")
            raw["sampling"]["t_s"] = 0.01
            save_sensor_csv(synthetic_sensors(), raw["data_path"])
        table = run_experiment(ExperimentConfig.from_dict(raw))
        cells = [v for row in table.rows for v in row]
        cells += [v for panel in table.panels for column in panel.data for v in column]
        assert table.rows and table.panels
        assert [v for v in cells if not _is_csv_cell(v)] == []

    @staticmethod
    def writer_text(header, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()

    special_floats = st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5])
    floats = st.one_of(special_floats, st.floats())
    csv_cells = {
        "float": floats,
        "float64": floats.map(np.float64),
        "int": st.integers(-(2**70), 2**70),
        "any": st.one_of(
            floats, floats.map(np.float64), st.integers(), st.none(), st.booleans(),
            st.text(alphabet="a,\"\r\n 1."), st.sampled_from(["", "a,b", 'say "hi"', "x\r\ny"]),
        ),
    }

    @st.composite
    def csv_tables(draw, cells=csv_cells):
        """(header or None, rows, the same cells as one list per column)."""
        kinds = draw(st.lists(st.sampled_from(sorted(cells)), min_size=1, max_size=5))
        rows = draw(st.lists(st.tuples(*(cells[k] for k in kinds)), max_size=12))
        columns = [[row[j] for row in rows] for j in range(len(kinds))]
        return draw(st.none() | st.just([f"c{i}" for i in range(len(kinds))])), rows, columns

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(csv_tables())
    def test_csv_text_is_csv_writer_text(self, table):
        # _csv_text takes columns; csv.writer writes the rows they make, the
        # same when each column's text comes from emit_plot_data's map.
        header, rows, columns = table
        assert _csv_text(header, columns) == self.writer_text(header, rows)
        shown = {id(column): _repr_column(column) for column in columns}
        assert _csv_text(header, columns, shown) == self.writer_text(header, rows)

    def test_shared_column_writes_the_bytes_of_equal_copies(self, tmp_path):
        x = [0.1, -0.0, 1e16, 5e-324]
        shared = tuple(
            Panel(f"p{k}.csv", ("x", "y"), (x, [k * v for v in x]), ("y",), f"p{k}")
            for k in range(3)
        )
        copies = tuple(p._replace(data=(list(x), p.data[1])) for p in shared)
        for name, panels in (("shared", shared), ("copies", copies)):
            emit_plot_data(ResultTable("x", ["a"], [], {}, {}, panels), str(tmp_path / name))
        for k in range(3):
            text = (tmp_path / "shared" / f"p{k}.csv").read_bytes()
            assert text == (tmp_path / "copies" / f"p{k}.csv").read_bytes()
            assert text.startswith(b"x,y\r\n0.1,")

    def test_equal_columns_are_formatted_by_identity(self, tmp_path):
        # 0.0 == -0.0 and 1 == 1.0 == True, but each prints its own text: a
        # format cache keyed on equal values would write one text for all.
        columns = [[0.0], [-0.0], [1], [1.0], [True]]
        assert columns[0] == columns[1] and columns[2] == columns[3] == columns[4]
        panels = tuple(
            Panel(f"c{k}.csv", ("v",), (column,), (), "c") for k, column in enumerate(columns)
        )
        emit_plot_data(ResultTable("x", ["a"], [], {}, {}, panels), str(tmp_path))
        texts = [(tmp_path / f"c{k}.csv").read_bytes() for k in range(len(columns))]
        assert texts == [b"v\r\n0.0\r\n", b"v\r\n-0.0\r\n", b"v\r\n1\r\n", b"v\r\n1.0\r\n",
                         b"v\r\nTrue\r\n"]

    def test_sensor_csv_bytes_are_csv_writer_bytes(self, tmp_path):
        data = np.array([[-0.0, 5e-324, 1e16], [1e-5, 1.0 / 3.0, -2.5e300]])
        path = tmp_path / "u.csv"
        save_sensor_csv(data, str(path), header=["a", "b,c", "d"])
        assert path.read_bytes() == self.writer_text(["a", "b,c", "d"], data).encode()

    def test_write_result_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_result_csv(self.table(), str(path))
        assert path.read_bytes() == self.table().to_csv().encode()

    def test_write_to_bad_path(self, tmp_path):
        with pytest.raises(IoError):
            write_result_csv(self.table(), str(tmp_path / "missing" / "out.csv"))


class TestRewriteInPlace:
    """Each output file is rewritten in place, not truncated first, and trimmed to its new
    length: on ext4 with discard, truncating a 20-67 KB file to zero took about 100 us in
    open() where the in-place rewrite took about 10 us."""

    @pytest.mark.parametrize("experiment", ["exp1", "exp5"])
    @pytest.mark.parametrize("size", [lambda n: 2 * n + 7, lambda n: n // 2],
                             ids=["longer_old_files", "shorter_old_files"])
    def test_rerun_over_old_files_writes_a_fresh_run_bytes(self, tmp_path, experiment, size):
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        assert cli_run(["run", "--experiment", experiment, "--out", str(fresh)]) == 0
        names = sorted(os.listdir(fresh))
        old.mkdir()
        for name in names:
            (old / name).write_bytes(b"\xff" * size((fresh / name).stat().st_size))
        inodes = {name: (old / name).stat().st_ino for name in names}
        assert cli_run(["run", "--experiment", experiment, "--out", str(old)]) == 0
        assert sorted(os.listdir(old)) == names
        for name in names:
            assert (old / name).read_bytes() == (fresh / name).read_bytes(), name
            assert (old / name).stat().st_ino == inodes[name], name

    def test_output_is_opened_without_o_trunc(self, tmp_path, monkeypatch):
        # The bytes cannot show this property; only a benchmark run would otherwise.
        flags, real_open = [], os.open

        def recording_open(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        write_result_csv(TestResultTable().table(), str(tmp_path / "t.csv"))
        assert len(flags) == 1
        assert flags[0] & os.O_CREAT and flags[0] & os.O_WRONLY and not flags[0] & os.O_TRUNC

    def test_new_files_get_open_w_mode(self, tmp_path):
        (tmp_path / "reference").write_text("")  # 0o666 less the umask, as open(path, "w") makes
        write_result_csv(TestResultTable().table(), str(tmp_path / "t.csv"))
        assert (tmp_path / "t.csv").stat().st_mode == (tmp_path / "reference").stat().st_mode

    def test_read_only_file_exits_4(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        target = out / "manifest.json"
        target.write_bytes(b"old")
        target.chmod(0o444)
        if os.access(target, os.W_OK):  # root ignores mode bits: refuse as the kernel would
            real_open = os.open

            def refusing_open(path, flag, *args, **kwargs):
                if os.fspath(path) == str(target) and flag & (os.O_WRONLY | os.O_RDWR):
                    raise PermissionError(13, "Permission denied", str(path))
                return real_open(path, flag, *args, **kwargs)

            monkeypatch.setattr(os, "open", refusing_open)
        assert cli_run(["run", "--experiment", "exp1", "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")
        assert target.read_bytes() == b"old"

    def test_directory_path_is_an_io_error(self, tmp_path):
        with pytest.raises(IoError, match="^cannot write "):
            write_result_csv(TestResultTable().table(), str(tmp_path))

    def test_unencodable_text_leaves_the_old_bytes(self, tmp_path):
        # open(path, "w") truncated the file before the encoder failed, and left it empty.
        table = ResultTable("x", ["a"], [("\ud800",)], {})  # a lone surrogate
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_bytes(b"old bytes\r\n")
        for path in (old, new):
            with pytest.raises(IoError, match="^cannot write .*surrogate"):
                write_result_csv(table, str(path))
        assert old.read_bytes() == b"old bytes\r\n"
        assert not new.exists()


class TestSensorCsv:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "u.csv")
        data = np.array([[0.1, -2.0, 3.5e-7], [1.0 / 3.0, 0.0, -1e222]])
        save_sensor_csv(data, path)
        npt.assert_array_equal(load_sensor_csv(path), data)

    def test_round_trip_large_random(self, tmp_path):
        path = str(tmp_path / "big.csv")
        data = rng_from_seed(40).normal(size=(18, 300))
        save_sensor_csv(data, path)
        npt.assert_array_equal(load_sensor_csv(path), data)

    def test_header_skipped_when_declared(self, tmp_path):
        path = str(tmp_path / "h.csv")
        save_sensor_csv(np.eye(2), path, header=["s1", "s2"])
        npt.assert_array_equal(load_sensor_csv(path, header=True), np.eye(2))

    # Flagged or not, a header cell over csv.field_size_limit() fails.
    @pytest.mark.parametrize(
        "header, flag, column",
        [("s1", False, 1), ("x" * 140_000, False, None), ("x" * 140_000, True, None)],
    )
    def test_header_without_flag_is_parse_error(self, tmp_path, header, flag, column):
        path = str(tmp_path / "h.csv")
        save_sensor_csv(np.eye(2), path, header=[header, "s2"])
        with pytest.raises(ParseError) as info:
            load_sensor_csv(path, header=flag)
        assert info.value.line == 1
        assert info.value.column == column

    # A cell over csv.field_size_limit() used to leak csv.Error, header or not.
    @pytest.mark.parametrize(
        "text, header, column, words",
        [
            ("1,2\r\n3,oops\r\n", False, 2, "oops"),
            ("1,2\r\n3," + "x" * 140_000 + "\r\n", False, None, "field larger than field limit"),
            ("1,2\r\n3," + "x" * 140_000 + "\r\n", True, None, "field larger than field limit"),
            ("1,2\r\n3," + "9" * 140_000 + "\r\n", False, None, "field larger than field limit"),
        ],
    )
    def test_invalid_cell_position(self, tmp_path, text, header, column, words):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            load_sensor_csv(str(path), header=header)
        assert info.value.line == 2
        assert info.value.column == column
        assert words in str(info.value)

    @pytest.mark.parametrize("cell", ["nan", " inf", "-Infinity", "1e400"])
    def test_non_finite_cell_position(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"1,2,3\r\n4,5,{cell}\r\n")
        with pytest.raises(ParseError) as info:
            load_sensor_csv(str(path))
        assert (info.value.line, info.value.column) == (2, 3)

    def test_cells_parse_as_float_does(self, tmp_path):
        cells = [" 1.5", "1_000", "+1", "1e5", "-0.0", "2.5e-320 ", "0.1"]
        path = tmp_path / "cells.csv"
        path.write_text(",".join(cells) + "\r\n")
        parsed = load_sensor_csv(str(path))
        expected = np.array([[float(cell) for cell in cells]])
        assert parsed.dtype == np.float64
        assert parsed.tobytes() == expected.tobytes()

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\r\n4,5\r\n")
        with pytest.raises(RaggedRows) as info:
            load_sensor_csv(str(path))
        assert info.value.line == 2
        assert "expected 3" in str(info.value)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("1,2\r\n\r\n3,4\r\n")
        npt.assert_array_equal(load_sensor_csv(str(path)), [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_sensor_csv(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_sensor_csv(str(tmp_path / "nope.csv"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected_before_writing(self, tmp_path, bad):
        # These used to be written, and load_sensor_csv then refused the file.
        path = tmp_path / "bad.csv"
        with pytest.raises(InvalidArgument, match="finite"):
            save_sensor_csv([[1.0, 2.0], [3.0, bad]], str(path))
        assert not path.exists()

    def test_non_matrix_rejected(self, tmp_path):
        with pytest.raises(InvalidArgument):
            save_sensor_csv(np.zeros(3), str(tmp_path / "v.csv"))


def reference_parse_row(row: list[str], line_no: int) -> np.ndarray:
    """One CSV row as float64, each cell read as float() reads it."""
    try:  # numpy converts each str with float(), without a Python float per cell
        parsed = np.array(row, dtype=float)
        if np.isfinite(parsed).all():
            return parsed
    except ValueError:
        pass
    for j, cell in enumerate(row):  # the failing row only: name its bad cell
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        # float() also accepts "nan" and "inf", which no sensor records.
        if not math.isfinite(value):
            raise ParseError(f"invalid number {cell.strip()!r}", line=line_no, column=j + 1)
    return np.array([float(cell) for cell in row])


def reference_load_sensor_csv(path: str, header: bool = False) -> np.ndarray:
    """load_sensor_csv as the csv module alone read every file, kept verbatim:
    the reference for the values the numpy pass returns and the errors raised."""
    values = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for line_no, row in enumerate(csv.reader(fh), start=1):
                if line_no <= header or not row:
                    continue
                if values and len(row) != values[0].size:
                    raise RaggedRows(f"expected {values[0].size} columns, "
                                     f"found {len(row)}", line=line_no)
                values.append(reference_parse_row(row, line_no))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    if not values:
        raise ParseError(f"no data rows in {path}")
    return np.array(values)


def _digits(script: str) -> dict:
    return str.maketrans("0123456789", "".join(chr(ord(script) + d) for d in range(10)))


# Cells float() and the csv module accept but numpy's reader declines, or the
# reverse ("\x1c".."\x1f" padding), or that neither accepts; padding that
# str.splitlines() splits at but csv does not ("\x0b", "\x85", "\u2028").
_ODD_CELLS = {
    "underscored": lambda cell: re.sub(r"(\d)(\d)", r"\1_\2", cell, count=1),
    "fullwidth": lambda cell: cell.translate(_digits("０")),
    "arabic_indic": lambda cell: cell.translate(_digits("٠")),
    "quoted": lambda cell: f'"{cell}"',
    "quoted_lines": lambda cell: f'"{cell}\n"',
}
_PADS = [" ", "\t", "\x0b", "\x0c", "\xa0", "\x85", "\u2028", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f", "\x00"]
_BAD_CELLS = ["nan", "-inf", "Infinity", "1e400", "", "abc", "1 2", "0x1p3", ".", "+-1", "#1", "1,2"]
_HEADERS = ["s1,s2,s3", '"sensor\r\nA",b', '"a,b",c', "", "1,2,3", '"unclosed\n1,2']


@st.composite
def sensor_files(draw):
    """(file text, header flag): a float matrix written with repr or %.17g,
    then a few cells swapped for odd ones, rows made ragged, blank or
    whitespace-only lines inserted, an optional header row, mixed line ends."""
    fmt = draw(st.sampled_from([repr, "%.17g".__mod__]))
    n_cols = draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(finite.map(fmt), min_size=n_cols, max_size=n_cols), max_size=4))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        j = draw(st.integers(0, n_cols - 1))
        kind = draw(st.sampled_from(["pad", "bad"] + sorted(_ODD_CELLS)))
        if kind == "pad":  # before, inside or after the number
            k = draw(st.sampled_from([0, len(row[j])]) | st.integers(0, len(row[j])))
            row[j] = row[j][:k] + draw(st.sampled_from(_PADS)) + row[j][k:]
        elif kind == "bad":
            row[j] = draw(st.sampled_from(_BAD_CELLS))
        else:
            row[j] = _ODD_CELLS[kind](row[j])
    if rows and draw(st.integers(0, 4)) == 0:  # ragged: one row loses or gains a cell
        row = draw(st.sampled_from(rows))
        row.append("1.5") if draw(st.booleans()) or len(row) == 1 else row.pop()
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(_HEADERS)))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline after the last row
    return text, draw(st.booleans())


def _outcome(reader, path, header):
    """The array's dtype, shape and bytes, or the error's class, position and message."""
    try:
        values = reader(path, header)
    except Exception as exc:
        return type(exc), getattr(exc, "line", None), getattr(exc, "column", None), str(exc)
    return values.dtype, values.shape, values.tobytes()


class TestSensorCsvMatchesCsvModule:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(drawn=sensor_files())
    def test_same_values_or_same_error(self, tmp_path_factory, drawn):
        text, header = drawn
        path = str(tmp_path_factory.getbasetemp() / "differential.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        expected = _outcome(reference_load_sensor_csv, path, header)
        assert _outcome(load_sensor_csv, path, header) == expected

    @pytest.mark.parametrize("text, header", [
        ("1,2\n3,4\n", False),  # numpy's pass
        ("s1,s2\r\n1,2\r\n", True),  # numpy's pass after the csv header row
        ('"sensor\nA",b\n1,2\n', True),  # a quoted two-line header
        ("1_0,2\n", False),  # float() accepts underscores, numpy does not
        ('"1",2\n', False),  # quoted cell
        ("１,٢\n", False),  # full-width and Arabic-Indic digits
        ("1\x1c,2\n", False),  # numpy strips "\x1c" as whitespace, float() refuses it
        ("1,2\n3,nan\n", False),  # numpy reads nan, the sensor reader refuses it
        ("1,2\r\r3,4\r", False),  # lone-CR endings and a blank line
        ("1,2\n \n3,4\n", False),  # a whitespace-only line is a row with a bad cell
        ("1,2,3\n4,5\n", False),  # ragged
        ("\n\n", False),  # no data rows
        ("a,b\n", True),  # a header alone: no data rows
    ])
    def test_named_cases(self, tmp_path, text, header):
        path = tmp_path / "case.csv"
        path.write_bytes(text.encode())
        expected = _outcome(reference_load_sensor_csv, str(path), header)
        assert _outcome(load_sensor_csv, str(path), header) == expected

    # Inside a number, str.splitlines() ends a line at each of these but "\x1f";
    # next to one, numpy strips each as whitespace, float() only "\x0b", "\x0c",
    # "\x85", "\u2028" and "\u2029".
    @pytest.mark.parametrize("char", list("\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029"))
    @pytest.mark.parametrize("template", ["1{}2\n", "1{},2\n"])
    def test_characters_numpy_or_splitlines_read_otherwise(self, tmp_path, char, template):
        path = tmp_path / "case.csv"
        path.write_bytes(template.format(char).encode())
        expected = _outcome(reference_load_sensor_csv, str(path), False)
        assert _outcome(load_sensor_csv, str(path), False) == expected


def run_cli(tmp_path, experiment, overlay=None):
    """Run one experiment through the CLI; returns (out dir, parsed manifest)."""
    out = tmp_path / experiment
    argv = ["run", "--experiment", experiment, "--out", str(out)]
    if overlay is not None:
        path = tmp_path / f"{experiment}.json"
        path.write_text(json.dumps(overlay))
        argv += ["--config", str(path)]
    assert cli_run(argv) == 0
    return out, json.loads((out / "manifest.json").read_text())


def read_rows(path):
    return list(csv.reader(io.StringIO(path.read_text())))


def assert_layout(manifest, axes, files, x, series, labels):
    assert manifest["axes"] == axes
    assert manifest["files"] == files
    assert manifest["curves"] == [
        {"file": f, "x": x, "series": series, "label": label} for f, label in zip(files, labels)
    ]


class TestEmitPlotData:
    def test_sweep_layout(self, tmp_path, capsys):
        for name in ("exp1", "exp2"):
            out, manifest = run_cli(tmp_path, name, {"sampling": {"t_max_stop": 0.5}})
            files = [f"mode{k}.csv" for k in range(1, 5)]
            assert_layout(
                manifest,
                {"x": "t_max [s]", "y": "aligned mode-shape error"},
                files,
                "t_max",
                ["err_uniform", "err_random"],
                [f"mode {k}" for k in range(1, 5)],
            )
            table = read_rows(out / f"{name}_results.csv")
            header = table[0]
            for k, file in enumerate(files, start=1):
                rows = read_rows(out / file)
                assert rows[0] == ["t_max", "err_uniform", "err_random"]
                e_idx = header.index(f"err_mode{k}")
                # Table rows alternate uniform, random at each t_max.
                expected = [
                    [u[0], u[e_idx], r[e_idx]] for u, r in zip(table[1::2], table[2::2])
                ]
                assert rows[1:] == expected
                assert [r[0] for r in rows[1:]] == ["0.3", "0.4", "0.5"]

    def test_empty_table_writes_manifest_only(self, tmp_path):
        table = ResultTable("exp2", ["t_max", "scheme", "err_mode1"], [], {})
        paths = emit_plot_data(table, str(tmp_path))
        assert len(paths) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["curves"] == []
        assert manifest["files"] == []

    def test_exp3_layout(self, tmp_path, capsys):
        out, manifest = run_cli(tmp_path, "exp3", {"n_trials": 2, "sampling": {"m_values": [10, 6]}})
        series = ["err_uniform_max", "err_random_matched_mean_max", "err_random_extended_mean_max"]
        assert_layout(
            manifest,
            {"x": "number of samples M", "y": "max aligned error"},
            ["max_error_vs_m.csv"],
            "m",
            series,
            ["max error vs M"],
        )
        table = read_rows(out / "exp3_results.csv")
        idx = [table[0].index(c) for c in ["m"] + series]
        rows = read_rows(out / "max_error_vs_m.csv")
        assert rows[0] == ["m"] + series
        assert rows[1:] == [[row[i] for i in idx] for row in table[1:]]
        assert [r[0] for r in rows[1:]] == ["6", "10"]

    def test_exp4_layout_selects_summary_rows(self, tmp_path, capsys):
        out, manifest = run_cli(tmp_path, "exp4", {"n_phi_seeds": 3})
        series = ["err_uniform_sub", "err_compressed_mean"]
        assert_layout(
            manifest,
            {"x": "mode", "y": "aligned mode-shape error"},
            ["errors_by_mode.csv"],
            "mode",
            series,
            ["per-mode errors"],
        )
        table = read_rows(out / "exp4_results.csv")
        by_variant = {row[0]: row for row in table[1:]}
        rows = read_rows(out / "errors_by_mode.csv")
        assert rows[0] == ["mode"] + series
        assert len(rows) == 1 + 4
        for k, row in enumerate(rows[1:], start=1):
            e_idx = table[0].index(f"err_mode{k}")
            assert row == [
                str(k), by_variant["uniform_sub"][e_idx], by_variant["compressed_mean"][e_idx]
            ]

    def test_exp5_marks_one_peak_per_mode(self, tmp_path, capsys):
        out, manifest = run_cli(tmp_path, "exp5")
        files = [f"spectrum_mode{k}.csv" for k in range(1, 5)]
        assert_layout(
            manifest,
            {"x": "omega [rad/s]", "y": "row FFT magnitude"},
            files,
            "omega",
            ["magnitude"],
            [f"mode {k} spectrum" for k in range(1, 5)],
        )
        table = read_rows(out / "exp5_results.csv")
        est_idx = table[0].index("omega_est")
        for file, result in zip(files, table[1:]):
            rows = read_rows(out / file)
            assert rows[0] == ["omega", "magnitude", "is_peak"]
            assert len(rows) == 1 + 8 * 202
            peaks = [r for r in rows[1:] if r[2] == "1"]
            assert len(peaks) == 1
            assert sum(r[2] == "0" for r in rows[1:]) == 8 * 202 - 1
            assert peaks[0][0] == result[est_idx]

    def test_realdata_layout(self, tmp_path, capsys):
        # The acceptance-10 sensor set and config, through the CLI.
        data_path = str(tmp_path / "sensors.csv")
        save_sensor_csv(synthetic_sensors(), data_path)
        out, manifest = run_cli(
            tmp_path, "realdata", {"data_path": data_path, "sampling": {"t_s": 0.01}}
        )
        files = [f"shapes_mode{k}.csv" for k in range(1, 4)]
        assert_layout(
            manifest,
            {"x": "sensor index", "y": "mode-shape component"},
            files,
            "sensor",
            ["benchmark", "svd_y", "cs_fdd"],
            [f"mode {k} shapes" for k in range(1, 4)],
        )
        for file in files:
            rows = read_rows(out / file)
            assert rows[0] == ["sensor", "benchmark", "svd_y", "cs_fdd"]
            assert [r[0] for r in rows[1:]] == [str(j) for j in range(1, 19)]
            shapes = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
            # Real parts of unit-norm shapes, both estimates phase-aligned to
            # the benchmark.
            assert np.all(np.linalg.norm(shapes, axis=0) <= 1.0 + 1e-12)
            assert np.linalg.norm(shapes[:, 0]) > 0.99
            assert np.all(shapes[:, 0] @ shapes[:, 1:] > 0.0)

    def test_unknown_layout(self, tmp_path):
        # emit_plot_data knows no experiment names: any table's panels are
        # written exactly as given.
        panel = Panel("custom.csv", ("x", "y"), ([1, 2], [0.5, None]), ("y",), "custom")
        table = ResultTable("exp9", ["x"], [(1.0,)], {"seed": 3}, {"x": "a", "y": "b"}, (panel,))
        paths = emit_plot_data(table, str(tmp_path))
        assert paths == [str(tmp_path / "manifest.json"), str(tmp_path / "custom.csv")]
        assert (tmp_path / "custom.csv").read_bytes() == b"x,y\r\n1,0.5\r\n2,\r\n"
        assert json.loads((tmp_path / "manifest.json").read_text()) == {
            "experiment": "exp9",
            "config": {"seed": 3},
            "axes": {"x": "a", "y": "b"},
            "curves": [{"file": "custom.csv", "x": "x", "series": ["y"], "label": "custom"}],
            "files": ["custom.csv"],
        }

    @pytest.mark.parametrize("columns, data", [
        ((), ()),  # no x column for the manifest to name
        (("a", "b"), ([1, 2],)),  # wrote a,b over one-cell rows
        (("a",), ([1], [2])),
    ], ids=["empty", "fewer_data", "more_data"])
    def test_panel_needs_one_data_column_per_header_name(self, columns, data):
        with pytest.raises(InvalidArgument, match="^panel p.csv: "):
            ResultTable("x", ["a"], [], {}, {}, (Panel("p.csv", columns, data, (), "p"),))

    @pytest.mark.parametrize("data, message", [
        (([1, 2], [1]), "^panel p.csv: need one equal-length"),  # zip(strict=True)'s ValueError
        ((5, [1]), "^panel p.csv column must be a Sequence, not int"),  # _repr_column's TypeError
        (5, "^panel p.csv data must be a Sequence, not int"),  # len(p.data)'s TypeError
    ], ids=["ragged", "not_a_sequence", "data_not_a_sequence"])
    def test_panel_columns_are_sequences_of_one_length(self, tmp_path, data, message):
        # Both panels used to pass ResultTable and leak a Python error from emit_plot_data.
        with warnings.catch_warnings(), pytest.raises(InvalidArgument, match=message):
            warnings.simplefilter("error")
            panel = Panel("p.csv", ("a", "b"), data, ("b",), "p")
            emit_plot_data(ResultTable("x", ["a"], [], {}, {}, (panel,)), str(tmp_path))

    def test_panels_must_be_panels(self):
        with pytest.raises(InvalidArgument, match="^panel must be a"):
            ResultTable("x", ["a"], [], {}, {}, (("p.csv", ("a",), ([1],), (), "p"),))

    def test_byte_determinism(self, tmp_path):
        config = small_sweep_config()
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            table = run_experiment(config)
            paths = emit_plot_data(table, str(out))
            blobs.append(b"".join(open(p, "rb").read() for p in paths) + table.to_csv().encode())
        assert blobs[0] == blobs[1]


class TestRunExperiment:
    def test_realdata_draws_phi_once(self, tmp_path, monkeypatch):
        # compress multiplies the sensor rows by the dense Phi, which
        # sparse_reconstruct then reads from the cache: one 3000-row fill.
        data_path = str(tmp_path / "sensors.csv")
        save_sensor_csv(synthetic_sensors(), data_path)
        filled = []
        fill = JlMatrix._fill

        def counting_fill(self, rng, out):
            filled.append(out.shape[0])
            return fill(self, rng, out)

        monkeypatch.setattr(JlMatrix, "_fill", counting_fill)
        sampling = {"t_s": 0.01, "m_prime": 50}
        overlay = {"experiment": "realdata", "data_path": data_path, "sampling": sampling}
        run_experiment(ExperimentConfig.from_dict({**preset("realdata"), **overlay}))
        assert filled == [3000]

    def test_sweep_skips_underdetermined_points(self):
        table = run_experiment(small_sweep_config())
        t_max = table_column(table, "t_max")
        assert min(t_max) == pytest.approx(0.3)
        assert max(t_max) == pytest.approx(0.5)
        assert len(table.rows) == 6  # three grid points, two schemes each

    def test_schemes_share_sample_budget(self):
        table = run_experiment(small_sweep_config())
        by_tmax = {}
        for row in table.rows:
            by_tmax.setdefault(row[0], []).append(row)
        for rows in by_tmax.values():
            schemes = {r[2] for r in rows}
            assert schemes == {"uniform", "random"}
            assert len({r[1] for r in rows}) == 1

    def test_gershgorin_only_for_uniform(self):
        table = run_experiment(small_sweep_config())
        g_idx = table.columns.index("gershgorin")
        s_idx = table.columns.index("scheme")
        for row in table.rows:
            if row[s_idx] == "uniform":
                assert row[g_idx] is not None
            else:
                assert row[g_idx] is None

    def test_seed_changes_random_rows_only(self):
        base = run_experiment(small_sweep_config(seed=1))
        other = run_experiment(small_sweep_config(seed=2))
        s_idx = base.columns.index("scheme")
        e_idx = base.columns.index("err_mode1")
        for a, b in zip(base.rows, other.rows):
            if a[s_idx] == "uniform":
                assert a[e_idx] == b[e_idx]
        randoms = [(a[e_idx], b[e_idx]) for a, b in zip(base.rows, other.rows) if a[s_idx] == "random"]
        assert any(x != y for x, y in randoms)

    @staticmethod
    def _sweep_config(name, sampling=None):
        raw = preset(name)
        raw["sampling"].update(sampling or {})
        return ExperimentConfig.from_dict(raw)

    # exp2 from t_max 0.1: the grid points at 0.1 and 0.2 have fewer samples than
    # modes and are skipped, and the stack pads schedules of 4 to 15 samples.
    SWEEPS = [("exp1", None), ("exp2", None), ("exp2", {"t_max_start": 0.1, "t_max_stop": 1.4})]

    @pytest.mark.parametrize("name, sampling", SWEEPS, ids=["exp1", "exp2", "exp2_start_0.1"])
    def test_sweep_rows_are_the_per_point_pipeline(self, name, sampling):
        # The stacked, zero-padded Gram factors give each schedule's errors the bits of
        # its own data matrix's, and the deviation agrees with one steering matrix per
        # schedule to roundoff.
        config = self._sweep_config(name, sampling)
        basis, t_s = build_basis(config), config.sampling["t_s"]
        start, step = config.sampling.get("t_max_start", 0.0), config.sampling["t_max_step"]
        seeds = spawn_seeds(config.seed, round((config.sampling["t_max_stop"] - start) / step) + 1)
        table = run_experiment(config)
        assert table_column(table, "scheme") == ["uniform", "random"] * (len(table.rows) // 2)
        for t_max, m, scheme, seed, *numbers, bound in table.rows:
            assert m == math.floor(t_max / t_s + 1e-9) + 1 >= basis.n_dof
            if scheme == "uniform":
                assert seed is None and bound is not None
                schedule = uniform_schedule(t_s, m)
            else:
                assert seed == int(seeds[round((t_max - start) / step)]) and bound is None
                schedule = random_schedule(t_max, m, seed)
            errors = _mode_errors(_gram_modes(build_data_matrix(basis, schedule).entries), basis)
            deviation = gram_deviation(build_steering(basis.frequencies, schedule))
            assert numbers[:-1] == [*errors.tolist(), float(errors.max())]
            npt.assert_allclose(numbers[-1], deviation, rtol=1e-12, atol=0)
        if sampling:
            assert min(table_column(table, "t_max")) == pytest.approx(0.3)

    def test_sweep_rows_do_not_depend_on_the_chunk_size(self, monkeypatch):
        # Five schedules per chunk split the 36-schedule stack into 8 _gram_modes calls,
        # some between a t_max's uniform and random schedule.
        config = self._sweep_config("exp1")
        whole = run_experiment(config)
        calls = []
        gram_modes = runner_module._gram_modes
        monkeypatch.setattr(runner_module, "_gram_modes",
                            lambda v: calls.append(v.shape) or gram_modes(v))
        monkeypatch.setattr(runner_module, "_BLOCK_BYTES", 5 * 16 * 4 * 21)
        split = run_experiment(config)
        assert [shape[0] for shape in calls] == [5] * 7 + [1]
        assert len(whole.rows) == len(split.rows) == 36
        for a, b in zip(whole.rows, split.rows):
            assert a[:4] == b[:4] and a[-1] == b[-1]
            npt.assert_allclose(a[4:-1], b[4:-1], rtol=1e-12, atol=0)
        for p, q in zip(whole.panels, split.panels, strict=True):
            assert p._replace(data=None) == q._replace(data=None)
            npt.assert_allclose(p.data, q.data, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("block_bytes", [None, 5 * 16 * 4 * 21])
    def test_sweep_draws_each_chunks_random_schedules_at_once(self, monkeypatch, block_bytes):
        # One _random_times call per stacked factor, not one random_schedule per point.
        draws, chunks = [], []
        random_times, gram_modes = runner_module._random_times, runner_module._gram_modes
        monkeypatch.setattr(runner_module, "_random_times",
                            lambda *args: draws.append(len(args[2])) or random_times(*args))
        monkeypatch.setattr(runner_module, "_gram_modes", lambda v: chunks.append(v) or gram_modes(v))
        if block_bytes:
            monkeypatch.setattr(runner_module, "_BLOCK_BYTES", block_bytes)
        table = run_experiment(self._sweep_config("exp1"))
        assert len(draws) == len(chunks) == (8 if block_bytes else 1)
        assert sum(draws) == table_column(table, "scheme").count("random") == 18

    @pytest.mark.parametrize("name", ["exp1", "exp2"])
    def test_sweep_bound_is_one_call_of_the_scalar_bounds(self, monkeypatch, name):
        # One vector call gives each uniform row the bits of its own scalar call,
        # and that bound dominates the row's measured Gram deviation.
        calls, bound = [], runner_module.gershgorin_uniform_bound
        monkeypatch.setattr(runner_module, "gershgorin_uniform_bound",
                            lambda *args: calls.append(args) or bound(*args))
        config = self._sweep_config(name)
        table = run_experiment(config)
        freqs, t_s = build_basis(config).frequencies, config.sampling["t_s"]
        uniform = [row for row in table.rows if row[2] == "uniform"]
        assert len(calls) == 1 and len(uniform) == 18
        for row in uniform:
            assert row[-1] == bound(freqs, t_s, row[1]) and row[-2] <= row[-1]

    @pytest.mark.parametrize("block_bytes", [None, 40 * 16 * 4 * 21])
    def test_exp3_draws_and_factors_each_chunk_once(self, monkeypatch, block_bytes):
        # All five M share one stack of 5 x (1 + 2 n_trials) = 505 schedules, each M's
        # uniform one first: one _random_times call and one _gram_modes call per chunk,
        # padded to the chunk's largest M.
        draws, chunks = [], []
        random_times, gram_modes = runner_module._random_times, runner_module._gram_modes
        monkeypatch.setattr(runner_module, "_random_times",
                            lambda *args: draws.append(len(args[2])) or random_times(*args))
        monkeypatch.setattr(runner_module, "_gram_modes",
                            lambda v: chunks.append(v.shape) or gram_modes(v))
        if block_bytes:
            monkeypatch.setattr(runner_module, "_BLOCK_BYTES", block_bytes)
        table = run_experiment(preset_config("exp3"))
        assert table_column(table, "m") == [6, 10, 14, 18, 21]
        m = np.repeat(table_column(table, "m"), 101)
        seeded, size = np.arange(505) % 101 != 0, 40 if block_bytes else 505
        assert len(chunks) == (13 if block_bytes else 1)
        assert chunks == [(m[i : i + size].size, 4, m[i : i + size].max()) for i in range(0, 505, size)]
        assert draws == [seeded[i : i + size].sum() for i in range(0, 505, size)]

    def test_exp4_factors_one_stack_per_chunk(self, monkeypatch):
        # The sub-Nyquist row is a one-point 4 x 32 stack; then three 4 x 32 compressed
        # matrices per chunk: the 20 seeds take 7 factors, each seed still one compress.
        whole = run_experiment(preset_config("exp4"))
        calls = {"gram": [], "compress": 0, "estimate": 0}
        gram_modes, compress, estimate = (runner_module._gram_modes, runner_module.compress,
                                          runner_module.estimate_modes)

        def count(key, func):
            def counted(*args):
                calls[key] += 1
                return func(*args)
            return counted

        monkeypatch.setattr(runner_module, "_gram_modes",
                            lambda v: calls["gram"].append(v.shape) or gram_modes(v))
        monkeypatch.setattr(runner_module, "compress", count("compress", compress))
        monkeypatch.setattr(runner_module, "estimate_modes", count("estimate", estimate))
        monkeypatch.setattr(runner_module, "_BLOCK_BYTES", 3 * 16 * 4 * 32)
        split = run_experiment(preset_config("exp4"))
        assert calls == {"gram": [(1, 4, 32)] + [(3, 4, 32)] * 6 + [(2, 4, 32)], "compress": 20,
                         "estimate": 0}
        assert split.rows == whole.rows

    def test_exp5_plot_columns_are_formatted_once_each(self, monkeypatch, tmp_path):
        # The four spectrum panels share one omega column: 1 + 4 magnitude + 4 is_peak.
        table = run_experiment(preset_config("exp5"))
        formatted, repr_column = [], results_module._repr_column
        monkeypatch.setattr(results_module, "_repr_column",
                            lambda cells: formatted.append(id(cells)) or repr_column(cells))
        emit_plot_data(table, str(tmp_path))
        assert len(table.panels) == 4
        assert sorted(formatted) == sorted({id(c) for p in table.panels for c in p.data})
        assert len(formatted) == 9

    def test_exp5_emit_drops_each_column_text_after_its_last_panel(self, tmp_path):
        # The shared omega column's text lives through all four panels; each
        # magnitude and is_peak text goes with its panel, so the peak stays below
        # the text of all nine columns held at once.
        table = run_experiment(preset_config("exp5"))
        emit_plot_data(table, str(tmp_path))  # the directory exists before tracing
        tracemalloc.start()
        try:
            emit_plot_data(table, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            texts = [_repr_column(col) for col in {id(c): c for p in table.panels for c in p.data}.values()]
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(texts) == 9 and peak < held

    def test_exp5_estimates_within_tolerance(self):
        table = run_experiment(preset_config("exp5"))
        assert len(table.rows) == 4
        tol = table.columns.index("tolerance")
        err = table.columns.index("abs_error")
        for row in table.rows:
            assert row[err] <= row[tol]
        assert table.rows[0][tol] == pytest.approx(2 * math.pi / 6.03, rel=1e-9)

    def test_realdata_missing_file(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "realdata",
                "seed": 7,
                "data_path": str(tmp_path / "absent.csv"),
                "n_benchmark_modes": 3,
                "sampling": {"t_s": 0.01, "m_prime": 50},
            }
        )
        with pytest.raises(IoError):
            run_experiment(cfg)


class TestSharedMap:
    """exp4's fan-out: sampling._shared_map, one interleaved share per usable CPU."""

    @pytest.mark.parametrize("n_items", [0, 1, 2, 3, 7])  # none, fewer than, exactly, more than k
    def test_keeps_item_order(self, cpus, n_items):
        cpus(3)
        names = []
        squares = sampling_module._shared_map(
            lambda x: names.append(threading.current_thread().name) or x * x, list(range(n_items)))
        assert squares == [x * x for x in range(n_items)]
        assert len(set(names)) == min(n_items, 3)
        assert n_items == 0 or threading.main_thread().name in names  # the caller takes share 0

    def test_shares_lose_no_result_under_fast_thread_switching(self, cpus):
        cpus(8)  # more shares than cores, each switched out after about a microsecond
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = sampling_module._shared_map(lambda x: sum(range(x % 50)) + x, list(range(2000)))
        finally:
            sys.setswitchinterval(interval)
        assert results == [sum(range(x % 50)) + x for x in range(2000)]

    @pytest.mark.parametrize("failing", [0, 1])  # item 0 is the caller's share, item 1 a worker's
    def test_exception_reaches_the_caller_and_every_thread_ends(self, cpus, failing):
        cpus(3)
        raised_on = []

        def f(x):
            if x == failing:
                raised_on.append(threading.current_thread() is threading.main_thread())
                raise DomainError(f"item {x}")
            time.sleep(0.01)  # the other shares are still running when it raises
            return x

        before = threading.active_count()
        with pytest.raises(DomainError, match=f"^item {failing}$"):
            sampling_module._shared_map(f, list(range(6)))
        assert raised_on == [failing == 0]
        assert threading.active_count() == before

    def test_a_thread_that_fails_to_start_raises_its_error_and_frees_the_budget(self, cpus,
                                                                                monkeypatch):
        # The second of three starts raises: the two threads that started are joined, the one
        # that did not is not, and no thread stays charged to the CPU budget.
        cpus(4)
        starts, start = [], threading.Thread.start

        def failing(thread):
            starts.append(thread)
            if len(starts) == 2:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^can't start new thread$"):
            sampling_module._shared_map(lambda x: x * x, list(range(8)))
        assert threading.active_count() == before and len(starts) == 3
        assert not sampling_module._HELPERS and sampling_module._usable_cpus() == 4

    def test_exp4_bytes_do_not_depend_on_the_share_count(self, tmp_path, monkeypatch, cpus):
        compress, threads = runner_module.compress, []
        monkeypatch.setattr(runner_module, "compress", lambda data, phi: threads.append(
            threading.current_thread().name) or compress(data, phi))
        trees = []
        for n in (1, 2):
            cpus(n)
            threads.clear()
            out, _ = run_cli(tmp_path / str(n), "exp4")
            assert len(threads) == 20 and len(set(threads)) == n
            trees.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert {"exp4_results.csv", "errors_by_mode.csv", "manifest.json"} <= set(trees[0])
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("cpu_count", [None, 1, 2])
    def test_exp4_runs_where_the_os_has_no_affinity_call(self, tmp_path, monkeypatch, cpu_count):
        # os.sched_getaffinity is Linux-only; elsewhere the share count is os.cpu_count(), or 1
        # when that is unknown.
        reference, _ = run_cli(tmp_path / "affinity", "exp4")
        compress, threads = runner_module.compress, []
        monkeypatch.setattr(runner_module, "compress", lambda data, phi: threads.append(
            threading.current_thread().name) or compress(data, phi))
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        out, _ = run_cli(tmp_path / "cpu_count", "exp4")
        assert len(threads) == 20 and len(set(threads)) == (cpu_count or 1)
        assert ({path.name: path.read_bytes() for path in out.iterdir()}
                == {path.name: path.read_bytes() for path in reference.iterdir()})

    def test_exp4_preset_starts_no_producer(self, monkeypatch, cpus):
        # Each preset Phi, 1001 x 32, is one row block, so its compress draws it on
        # the calling share and starts no helper: the share thread is the run's only thread.
        cpus(2)
        fills, started, fill, start = [], [], JlMatrix._fill, threading.Thread.start
        monkeypatch.setattr(JlMatrix, "_fill", lambda phi, rng, out: fills.append(
            threading.current_thread().name) or fill(phi, rng, out))
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(
            thread.name) or start(thread))
        run_experiment(preset_config("exp4"))
        assert len(fills) == 20 and len(started) == 1
        assert set(fills) == {threading.main_thread().name, started[0]}

    def test_exp4_fills_the_first_steering_block_at_most_once_per_share(self, tmp_path,
                                                                         monkeypatch, cpus):
        # Whichever share comes first fills the cache; a share that finds it empty fills it
        # too, with the same bits.
        cpus(1)
        reference, _ = run_cli(tmp_path / "reference", "exp4")
        cpus(2)
        calls, steering = [], _ModalData._steering

        def traced(self, start, rows):
            before = self.__dict__.get("_first")
            block = steering(self, start, rows)
            calls.append((threading.current_thread().name, self.__dict__["_first"] is not before))
            return block

        monkeypatch.setattr(_ModalData, "_steering", traced)
        out, _ = run_cli(tmp_path / "shared", "exp4")
        filled_on = [name for name, filled in calls if filled]
        assert len(calls) == 20 and len({name for name, _ in calls}) == 2
        assert 1 <= len(filled_on) == len(set(filled_on))  # at most once per share thread
        assert ({path.name: path.read_bytes() for path in out.iterdir()}
                == {path.name: path.read_bytes() for path in reference.iterdir()})

    def test_a_share_starts_no_producer(self, tmp_path, monkeypatch, cpus):
        # Five Phi row blocks per seed: at 2 CPUs the share thread is the run's only thread,
        # because inside a share no CPU is left over for a second Phi-drawing thread.
        overlay = {"sampling": {"t_s_super": 0.0002, "m_prime": 64}, "n_phi_seeds": 4}
        for side in ("one", "two"):
            (tmp_path / side).mkdir()
        cpus(1)
        reference, _ = run_cli(tmp_path / "one", "exp4", overlay)
        cpus(2)
        fills, started, fill, start = [], [], JlMatrix._fill, threading.Thread.start
        monkeypatch.setattr(JlMatrix, "_fill", lambda phi, rng, out: fills.append(
            threading.current_thread().name) or fill(phi, rng, out))
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(
            thread.name) or start(thread))
        out, _ = run_cli(tmp_path / "two", "exp4", overlay)
        assert len(fills) == 4 * 5 and len(started) == 1
        assert set(fills) == {threading.main_thread().name, started[0]}
        assert ({path.name: path.read_bytes() for path in out.iterdir()}
                == {path.name: path.read_bytes() for path in reference.iterdir()})

    def test_a_share_sees_one_usable_cpu(self, cpus):
        cpus(2)
        both_live = threading.Barrier(2, timeout=30)

        def usable(_):  # read while both shares are live
            both_live.wait()
            count = sampling_module._usable_cpus()
            both_live.wait()
            return count

        assert sampling_module._usable_cpus() == 2
        assert sampling_module._shared_map(usable, [0, 1]) == [1, 1]

    def test_an_idle_thread_it_did_not_start_costs_no_cpu(self, tmp_path, monkeypatch, cpus,
                                                          set1_basis):
        # The budget charges only the threads _fan_out started: with another thread blocked on
        # an event, exp4 still runs two shares at two CPUs and a scale-sized compress (M 10^5,
        # M' 256: 196 Phi blocks) still starts its helper.
        cpus(2)
        release = threading.Event()
        idle = threading.Thread(target=release.wait)
        idle.start()
        try:
            compress, threads = runner_module.compress, []
            monkeypatch.setattr(runner_module, "compress", lambda data, phi: threads.append(
                threading.current_thread().name) or compress(data, phi))
            run_cli(tmp_path, "exp4")
            assert len(threads) == 20 and len(set(threads)) == 2
            started, start = [], threading.Thread.start
            monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(
                thread.name) or start(thread))
            data = build_data_matrix(set1_basis, uniform_schedule(1e-3, 100_000))
            sampling_module.compress(data, sampling_module.draw_jl_matrix(100_000, 256, seed=3))
            assert len(started) == 1
        finally:
            release.set()
            idle.join(timeout=30)
        assert not idle.is_alive()


class TestCli:
    def overlay(self, tmp_path, extra=None):
        raw = {"sampling": {"t_max_stop": 0.5}}
        if extra:
            raw.update(extra)
        path = tmp_path / "overlay.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_run_preset_with_overlay(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_run(
            ["run", "--experiment", "exp1", "--config", self.overlay(tmp_path), "--out", str(out)]
        )
        assert code == 0
        assert (out / "exp1_results.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "mode4.csv").exists()
        assert "exp1" in capsys.readouterr().out

    def test_parser_keeps_no_state_between_runs(self, tmp_path):
        # build_parser is built once per process; the second run's config must
        # not inherit the first run's --seed or --header.
        configs = []
        for extra in (["--seed", "123", "--header"], []):
            out = tmp_path / f"out{len(configs)}"
            argv = ["run", "--experiment", "exp1", "--config", self.overlay(tmp_path), "--out", str(out)]
            assert cli_run(argv + extra) == 0
            configs.append(json.loads((out / "manifest.json").read_text())["config"])
        assert (configs[0]["seed"], configs[0]["header"]) == (123, True)
        assert (configs[1]["seed"], configs[1]["header"]) == (preset("exp1")["seed"], False)

    def test_requires_some_source(self, tmp_path, capsys):
        assert cli_run(["run", "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        # A directory: open() raises IsADirectoryError, an OSError that run() exits 4 on.
        assert cli_run(["run", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config {tmp_path}: ")

    @pytest.mark.parametrize("content", ["[]", "5", '"exp1"', "null"])
    def test_non_object_config_exits_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        assert cli_run(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: top level must be a JSON object\n"

    def test_a_broken_stdout_exits_4(self, tmp_path, capsys, monkeypatch):
        class BrokenPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        assert cli_run(["run", "--experiment", "exp5", "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    def test_bad_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_run(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("content", [
        b'{"experiment": "exp1", "seed": "\xff\xfe"}',  # not UTF-8: was a UnicodeDecodeError
        b'{"a": ' + b"[" * 10**5 + b"]" * 10**5 + b"}",  # was a RecursionError
        b'{"seed": 1' + b"0" * 5000 + b"}",  # past int's 4,300 digits: was a bare ValueError
    ], ids=["non_utf8", "nested_1e5_deep", "int_5001_digits"])
    def test_unparsable_json_config(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert cli_run(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "invalid JSON" in err

    def test_non_object_sampling_overlay(self, tmp_path, capsys):
        # Merging it into the preset's sampling block was a TypeError.
        overlay = self.overlay(tmp_path, {"sampling": 5})
        code = cli_run(["run", "--experiment", "exp1", "--config", overlay, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: sampling:")

    def test_experiment_mismatch(self, tmp_path, capsys):
        overlay = self.overlay(tmp_path, {"experiment": "exp2"})
        code = cli_run(["run", "--experiment", "exp1", "--config", overlay, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_unknown_schema_field_exit_code(self, tmp_path, capsys):
        overlay = self.overlay(tmp_path, {"n_bootstrap": 5})
        code = cli_run(["run", "--experiment", "exp1", "--config", overlay, "--out", str(tmp_path / "o")])
        assert code == 2

    def test_out_dir_field_rejected(self, tmp_path, capsys):
        # --out is the one output directory; a config field would be ignored.
        overlay = self.overlay(tmp_path, {"out_dir": str(tmp_path / "never")})
        out = tmp_path / "o"
        code = cli_run(["run", "--experiment", "exp5", "--config", overlay, "--out", str(out)])
        assert code == 2
        assert "<top level>: unknown field 'out_dir'" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "never").exists()

    def test_uncreatable_out_exit_code(self, tmp_path, capsys):
        # emit_plot_data creates --out; a path below a regular file fails.
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "o"
        assert cli_run(["run", "--experiment", "exp5", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot create {out}: ")
        assert captured.out == ""

    def test_constant_sensor_csv_exit_code(self, tmp_path, capsys):
        # A sensor record without motion has only window-leakage ripples,
        # some 1e-33 of its spectrum's maximum, and they are no modes.
        data_path = str(tmp_path / "sensors.csv")
        save_sensor_csv(np.ones((4, 400)), data_path)
        cfg = tmp_path / "rd.json"
        cfg.write_text(json.dumps({"data_path": data_path, "sampling": {"t_s": 0.01}}))
        out = tmp_path / "o"
        code = cli_run(["run", "--experiment", "realdata", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert "spectral peaks" in capsys.readouterr().err
        assert not out.exists()

    def test_presets_match_stored_reference(self, tmp_path, capsys):
        # The benchmark's presets check, in tier 1: every cell of the five
        # tables within the stored reference's own rtol and atol.
        with open(PRESETS_REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
        rtol, atol = ref["rtol"], ref["atol"]
        for name in ("exp1", "exp2", "exp3", "exp4", "exp5"):
            assert cli_run(["run", "--experiment", name, "--out", str(tmp_path / name)]) == 0
            got = list(csv.reader(io.StringIO((tmp_path / name / f"{name}_results.csv").read_text())))
            want = list(csv.reader(io.StringIO(ref["tables"][name])))
            assert len(got) == len(want) and got[0] == want[0], name
            for row, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
                assert len(g_row) == len(w_row), (name, row)
                for g, w in zip(g_row, w_row):
                    if g != w:
                        assert abs(float(g) - float(w)) <= atol + rtol * abs(float(w)), (name, row, g, w)

    def test_missing_data_file_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "rd.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "realdata",
                    "seed": 7,
                    "data_path": str(tmp_path / "absent.csv"),
                    "n_benchmark_modes": 3,
                    "sampling": {"t_s": 0.01, "m_prime": 50},
                }
            )
        )
        assert cli_run(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4

    def test_non_utf8_sensor_csv_exit_code(self, tmp_path, capsys):
        # A UTF-16 byte-order mark used to leak a UnicodeDecodeError.
        data_path = tmp_path / "sensors.csv"
        data_path.write_bytes(b"\xff\xfe" + "1.0,2.0\r\n3.0,4.0\r\n".encode("utf-16-le"))
        cfg = tmp_path / "rd.json"
        cfg.write_text(json.dumps({"data_path": str(data_path), "sampling": {"t_s": 0.01}}))
        code = cli_run(
            ["run", "--experiment", "realdata", "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(data_path) in err

    def test_non_finite_sensor_data_exit_code(self, tmp_path, capsys):
        data = rng_from_seed(41).normal(size=(4, 200))
        data[2, 17] = np.nan
        data_path = str(tmp_path / "sensors.csv")
        # Written by hand: save_sensor_csv refuses to write a nan.
        with open(data_path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\r\n").writerows(data)
        cfg = tmp_path / "rd.json"
        cfg.write_text(json.dumps({"data_path": data_path, "sampling": {"t_s": 0.01}}))
        code = cli_run(
            ["run", "--experiment", "realdata", "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert code == 4
        assert "line 3, column 18" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shape, extra, field",
        [
            ((1, 400), {"n_benchmark_modes": 2}, "n_benchmark_modes"),  # was an IndexError
            ((4, 600), {"sampling": {"t_s": 0.01, "m_prime": 601}}, "sampling.m_prime"),  # M' > M
            ((4, 600), {"sampling": {"t_s": 0.01, "m_prime": 3}}, "sampling.m_prime"),  # M' < N
        ],
    )
    def test_sensor_data_config_mismatch_exit_code(self, tmp_path, capsys, shape, extra, field):
        # Each of these used to escape or exit 3 without naming the field.
        data_path = str(tmp_path / "sensors.csv")
        save_sensor_csv(rng_from_seed(43).normal(size=shape), data_path)
        cfg = tmp_path / "rd.json"
        cfg.write_text(json.dumps({"data_path": data_path, "sampling": {"t_s": 0.01}, **extra}))
        out = tmp_path / "o"
        code = cli_run(["run", "--experiment", "realdata", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert f"error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "n_samples, m_prime, field",
        [
            (config_module.MAX_SAMPLES + 1, 1000, "data_path"),
            (25_601, 1000, "sampling.m_prime"),  # M M' = 25,601,000 > 100,000 x 256
        ],
    )
    def test_realdata_size_caps_exit_code(self, tmp_path, capsys, monkeypatch, n_samples, m_prime, field):
        # The CSV sets M, so these caps apply once it is read and before the
        # dense M x M' Phi (205 MB or more here) is drawn.  Tracing starts
        # after the read: traced, the million-cell parse takes seconds.
        data_path = tmp_path / "sensors.csv"
        data_path.write_text("0," * (n_samples - 1) + "1\n")
        cfg = tmp_path / "rd.json"
        cfg.write_text(json.dumps({"data_path": str(data_path),
                                   "sampling": {"t_s": 0.01, "m_prime": m_prime}}))

        def read_then_trace(*args, **kwargs):
            samples = load_sensor_csv(*args, **kwargs)
            tracemalloc.start()
            return samples

        monkeypatch.setattr(runner_module, "load_sensor_csv", read_then_trace)
        out = tmp_path / "o"
        try:
            code = cli_run(["run", "--experiment", "realdata", "--config", str(cfg), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"error: {field}: " in capsys.readouterr().err
        assert not out.exists()
        assert 0 < peak < 8 * n_samples * m_prime / 100

    @pytest.mark.parametrize(
        "n_sensors, m_prime, field",
        [
            (223, 200, "sampling.m_prime"),  # M' < N
        ],
    )
    def test_realdata_welch_cube_cap_exit_code(self, tmp_path, capsys, n_sensors, m_prime, field):
        # At M = 4104 the default Welch segment is 1024 samples, so F = 513
        # bins.  Realdata forms no (F, N, N) cube (412 MB at N = 224), so a
        # wide CSV has no Welch cap and meets only the M' rule.
        m = 4104
        assert welch_csd(np.zeros((1, m)), 0.01).frequencies.size == 513
        data_path = tmp_path / "sensors.csv"
        data_path.write_text(("0," * (m - 1) + "1\n") * n_sensors)
        cfg = tmp_path / "rd.json"
        cfg.write_text(json.dumps({"data_path": str(data_path),
                                   "sampling": {"t_s": 0.01, "m_prime": m_prime}}))
        out = tmp_path / "o"
        code = cli_run(["run", "--experiment", "realdata", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {field}: " in err
        assert "Welch" not in err
        assert not out.exists()

    @pytest.mark.parametrize("t_s", [math.nan, math.inf])
    def test_non_finite_config_exit_code(self, tmp_path, capsys, t_s):
        # NaN used to escape as a ValueError; Infinity wrote a 0-row table.
        overlay = self.overlay(tmp_path, {"sampling": {"t_s": t_s, "t_max_stop": 0.5}})
        out = tmp_path / "o"
        code = cli_run(["run", "--experiment", "exp1", "--config", overlay, "--out", str(out)])
        assert code == 2
        assert "sampling.t_s: must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mass, stiffness",
        [
            ([[1, 0], [0]], [[2, -1], [-1, 2]]),  # ragged rows
            ([[1, 0], [0, 1]], [[2, -1], [0, 2]]),  # non-symmetric stiffness
            ([[1, 0], [0, 0]], [[2, -1], [-1, 2]]),  # non-positive mass diagonal
            ([[1, 0], [0, 4]], [[2, -1], [-1, 2]]),  # diagonal but not scalar mass
            ([[1, 0], [0, 1]], [[-1, 0], [0, 1]]),  # indefinite stiffness
            ([[1, 0], [0, 1]], [[2, 0], [0, 2]]),  # repeated natural frequencies
        ],
    )
    def test_bad_system_matrices_exit_code(self, tmp_path, capsys, mass, stiffness):
        system = {"mass": mass, "stiffness": stiffness}
        overlay = self.overlay(
            tmp_path, {"system": system, "frequencies": [1.0, 2.0], "magnitudes": [1.0, 0.5]}
        )
        code = cli_run(["run", "--experiment", "exp1", "--config", overlay, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error: system: " in capsys.readouterr().err

    def test_sweep_without_feasible_point_exit_code(self, tmp_path, capsys):
        # No t_max up to 0.01 s gives 4 samples at t_s = 0.1 s.
        overlay = self.overlay(tmp_path, {"sampling": {"t_max_step": 0.001, "t_max_stop": 0.01}})
        out = tmp_path / "o"
        code = cli_run(["run", "--experiment", "exp1", "--config", overlay, "--out", str(out)])
        assert code == 2
        assert "sampling.t_max_stop" in capsys.readouterr().err
        assert not (out / "exp1_results.csv").exists()

    @pytest.mark.parametrize(
        "experiment, sampling, field",
        [
            ("exp4", {"m_prime": 2000}, "sampling.m_prime"),  # M' > M = 1001
            ("exp4", {"m_prime": 2}, "sampling.m_prime"),  # M' < N = 4
            ("exp4", {"t_max": 0.1}, "sampling.t_max"),  # 2 sub-Nyquist samples
            ("exp5", {"t_max": 0.05}, "sampling.t_max"),  # 2 samples
        ],
    )
    def test_derived_sample_counts_exit_code(self, tmp_path, capsys, experiment, sampling, field):
        # Each of these used to pass validation and exit 3 from the estimator.
        overlay = self.overlay(tmp_path, {"sampling": sampling})
        out = tmp_path / "o"
        code = cli_run(["run", "--experiment", experiment, "--config", overlay, "--out", str(out)])
        assert code == 2
        assert f"error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    def test_unbounded_sweep_exit_code(self, tmp_path, capsys):
        overlay = self.overlay(tmp_path, {"sampling": {"t_max_step": 1e-9}})
        code = cli_run(["run", "--experiment", "exp1", "--config", overlay, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "sampling.t_max_step" in capsys.readouterr().err

    def test_seed_flag_controls_output_bytes(self, tmp_path, capsys):
        overlay = self.overlay(tmp_path)
        blobs = []
        for sub, seed in [("s1", "11"), ("s2", "11"), ("s3", "12")]:
            out = tmp_path / sub
            code = cli_run(
                ["run", "--experiment", "exp1", "--config", overlay, "--out", str(out), "--seed", seed]
            )
            assert code == 0
            blobs.append((out / "exp1_results.csv").read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0] != blobs[2]

    @pytest.mark.parametrize("experiment, given, want", [
        ("exp4", {"seed": 3.0}, {"seed": 3}),
        ("exp4", {"seed": 1e300}, {"seed": int(1e300)}),
        ("exp4", {"n_phi_seeds": 2.0}, {"n_phi_seeds": 2}),
        ("exp4", {"sampling": {"m_prime": 32.0}}, {"sampling": {"m_prime": 32}}),
        ("exp3", {"n_trials": 2.0}, {"n_trials": 2}),
        ("exp3", {"sampling": {"m_values": [6.0, 10]}}, {"sampling": {"m_values": [6, 10]}}),
        ("exp5", {"sampling": {"zero_pad_factor": 8.0}}, {"sampling": {"zero_pad_factor": 8}}),
    ])
    def test_integral_float_for_integer_field(self, tmp_path, capsys, experiment, given, want):
        # JSON Schema counts 3.0 as an integer, so the run must treat it as 3.
        written = []
        for label, overlay in (("given", given), ("want", want)):
            config, out = tmp_path / f"{label}.json", tmp_path / label
            config.write_text(json.dumps(overlay))
            assert cli_run(["run", "--experiment", experiment, "--config", str(config), "--out", str(out)]) == 0
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert written[0] == written[1]

    def test_traced_run_records_layer_spans(self, tmp_path, capsys):
        # perfbench's --trace wraps package functions by name; an API change
        # that drops one would leave traced runs without its layer.
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "spans.py")
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        data = tmp_path / "sensors.csv"
        save_sensor_csv(synthetic_sensors()[:, :1000], str(data))
        realdata = tmp_path / "realdata.json"
        realdata.write_text(json.dumps({"data_path": str(data), "sampling": {"t_s": 0.01}}))
        tracer = spans.Tracer()
        tracer.install()
        try:
            for experiment, config in [("exp1", self.overlay(tmp_path)), ("exp4", None), ("realdata", str(realdata))]:
                argv = ["run", "--experiment", experiment, "--out", str(tmp_path / experiment)]
                assert cli_run(argv + (["--config", config] if config else [])) == 0
        finally:
            tracer.uninstall()
        names = {span[3] for span in tracer.spans}
        for layer in ("sampling.compress", "estimator.estimate_modes", "bounds.gram_deviation",
                      "baselines.sparse_reconstruct"):
            assert layer in names

    def test_unknown_experiment_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_run(["run", "--experiment", "exp9", "--out", str(tmp_path)])
