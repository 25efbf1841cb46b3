"""Package surface: what ``import modalcs`` exports and what it loads."""

import ast
import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import modalcs
from modalcs import (
    CsdCube,
    DataMatrix,
    DomainError,
    InvalidArgument,
    JlMatrix,
    MdofSystem,
    ModalBasis,
    ModalcsError,
    ModeEstimate,
    ResultTable,
    SampleSchedule,
    ShapeError,
    align_and_error,
    build_data_matrix,
    build_steering,
    compress,
    draw_jl_matrix,
    emit_plot_data,
    estimate_modes,
    fdd_peaks,
    frequency_spectra,
    gershgorin_uniform_bound,
    gram_deviation,
    jl_tail_rate,
    mode_error_bound,
    random_requirements,
    random_schedule,
    run_experiment,
    save_sensor_csv,
    solve_modes,
    sparse_reconstruct,
    uniform_requirements,
    uniform_schedule,
    welch_csd,
    write_result_csv,
)
from modalcs.bounds import harmonic_number_bounds, kl_div, psinc
from modalcs.cli import run as cli_run
from modalcs.mdof import canonical_sign
from modalcs.config import MAX_SAMPLES
from modalcs.sampling import _MAX_PHI_ENTRIES, spawn_seeds
from test_acceptance import synthetic_sensors


def test_all_lists_every_reexported_name():
    with open(modalcs.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert "sparse_reconstruct" in imported
    assert sorted(modalcs.__all__) == sorted(imported)


def test_import_leaves_scipy_signal_unloaded():
    # scipy is a test-only dependency: it takes most of a second to import.
    src = os.path.dirname(os.path.dirname(os.path.abspath(modalcs.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, modalcs; print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_import_loads_numpy_fft():
    # numpy loads np.fft lazily on first attribute access, and that loader
    # recurses until RecursionError if a signal handler (a sampling
    # profiler, say) touches np.fft while the main thread is inside it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(modalcs.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, modalcs; print('numpy.fft' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.strip() == "True"


def test_first_sensor_csv_read_loads_no_module(tmp_path):
    # np.loadtxt on a path imports gzip, and a numpy submodule loaded lazily
    # inside an op is where a signal handler can hit numpy's loader recursion.
    save_sensor_csv(synthetic_sensors()[:, :100], str(tmp_path / "sensors.csv"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(modalcs.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, modalcs; before = set(sys.modules); "
        "shape = modalcs.load_sensor_csv('sensors.csv').shape; "
        "print(shape, sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert proc.stdout.strip() == "(18, 100) []"


def test_realdata_run_loads_no_scipy(tmp_path):
    # realdata runs the Welch/FDD baselines, the one stage that used scipy.
    save_sensor_csv(synthetic_sensors()[:, :1000], str(tmp_path / "sensors.csv"))
    (tmp_path / "realdata.json").write_text(
        json.dumps({"data_path": "sensors.csv", "sampling": {"t_s": 0.01}})
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(modalcs.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys; from modalcs.cli import run; "
        "code = run(['run', '--experiment', 'realdata', '--config', 'realdata.json', '--out', 'o']); "
        "print(code, sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "o" / "realdata_results.csv").exists()


def test_valid_run_leaves_jsonschema_unloaded(tmp_path):
    # jsonschema is a test-only dependency: no run, valid or rejected, loads it.
    (tmp_path / "bad.json").write_text(json.dumps({"sampling": {"t_s": "fast"}}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(modalcs.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, modalcs; from modalcs.cli import run; "
        "code = run(['run', '--experiment', 'exp5', '--out', 'o']); "
        "print(code, 'jsonschema' in sys.modules); "
        "code = run(['run', '--experiment', 'exp5', '--config', 'bad.json', '--out', 'o']); "
        "print(code, 'jsonschema' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert proc.stdout.splitlines()[-2:] == ["0 False", "2 False"]


def test_exp4_run_loads_no_pool_module(tmp_path):
    # exp4's fan-out uses threading, which numpy loads already; a thread or
    # process pool module would add to every fresh interpreter's import.
    src = os.path.dirname(os.path.dirname(os.path.abspath(modalcs.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, modalcs; from modalcs.cli import run; "
        "code = run(['run', '--experiment', 'exp4', '--out', 'o']); "
        "print(code, sorted(k for k in sys.modules if k.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_exp4_bytes_do_not_depend_on_usable_cpus(tmp_path):
    # exp4 compresses its Phi seeds on one share per usable CPU: a child pinned
    # to one CPU computes every seed on its calling thread.
    src = os.path.dirname(os.path.dirname(os.path.abspath(modalcs.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import os, sys; from modalcs.cli import run; "
        "cpus = sorted(os.sched_getaffinity(0)); "
        "os.sched_setaffinity(0, cpus[:1]) if sys.argv[1] == 'pinned' else None; "
        "print(len(os.sched_getaffinity(0))); "
        "sys.exit(run(['run', '--experiment', 'exp4', '--out', sys.argv[1]]))"
    )
    usable = {}
    for side in ("pinned", "all"):
        proc = subprocess.run(
            [sys.executable, "-c", code, side], cwd=tmp_path, env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        usable[side] = int(proc.stdout.splitlines()[0])
    assert usable == {"pinned": 1, "all": len(os.sched_getaffinity(0))}
    names = sorted(os.listdir(tmp_path / "pinned"))
    assert names == sorted(os.listdir(tmp_path / "all")) and "exp4_results.csv" in names
    for name in names:
        assert (tmp_path / "pinned" / name).read_bytes() == (tmp_path / "all" / name).read_bytes(), name


def test_rejected_config_names_its_field(tmp_path, capsys):
    (tmp_path / "bad.json").write_text(json.dumps({"sampling": {"t_s": "fast"}}))
    argv = ["run", "--experiment", "exp1", "--config", str(tmp_path / "bad.json"), "--out", str(tmp_path)]
    assert cli_run(argv) == 2
    assert capsys.readouterr().err.startswith("error: sampling.t_s: ")


_SENSORS = np.ones((2, 64))
_PHI = draw_jl_matrix(16, 8, seed=0)
_BASIS = ModalBasis(np.eye(2), [2.0, 1.0], [1.0, 0.5])
_DATA = build_data_matrix(_BASIS, uniform_schedule(0.1, 16))


# Each scalar call leaked a TypeError or ValueError from a chained comparison or
# an int(). Each array call leaked numpy's TypeError, ValueError, LinAlgError or
# IndexError, or accepted nan or text without a word.
@pytest.mark.parametrize("call", [
    lambda: welch_csd(_SENSORS, "a"),
    lambda: welch_csd(_SENSORS, None),
    lambda: uniform_schedule("a", 3),
    lambda: random_schedule("a", 3, 1),
    lambda: random_schedule(1.0, 3, "a"),
    lambda: jl_tail_rate("a"),
    lambda: gershgorin_uniform_bound([1, 2], "a", 3),
    lambda: gershgorin_uniform_bound([1, 2], 0.1, "a"),
    lambda: uniform_requirements(4, "a", 2, 0.5),
    lambda: random_requirements(4, 1, 0.5, "a"),
    lambda: mode_error_bound([1, 2], "a", 0),
    lambda: mode_error_bound([1.0, 0.5], 0.3, n="a"),
    lambda: kl_div("a", 0.5),
    lambda: gram_deviation([["a"]]),
    lambda: gram_deviation([[math.nan, 1.0]]),
    lambda: SampleSchedule(["a"], "random", 1.0),
    lambda: SampleSchedule([0.0, math.nan], "random", 1.0),
    lambda: ModalBasis([["a"]], [1.0]),
    lambda: ModalBasis([[math.nan, 0.0], [0.0, 1.0]], [2.0, 1.0]),
    lambda: MdofSystem([["a"]], [[1.0]]),
    lambda: psinc("a", 3),
    lambda: psinc(math.nan, 3),
    lambda: canonical_sign([["a"]]),
    lambda: build_steering(["a"], uniform_schedule(0.1, 3)),
    lambda: ModalBasis(_BASIS.mode_shapes, _BASIS.frequencies, ["a"] * 2),
    lambda: ModeEstimate([["a"]], [1.0], [[1.0]]),
    lambda: ModeEstimate([[math.nan]], [1.0], [[1.0]]),
    lambda: ModeEstimate(1.0, [1.0], [[1.0]]),
    lambda: CsdCube(["a"], np.ones((1, 2, 2))),
    lambda: CsdCube([0.0], np.full((1, 2, 2), math.nan)),
    lambda: sparse_reconstruct(np.ones(8), np.where(np.arange(8) == 0, math.nan, _PHI.entries)),
    lambda: DataMatrix([["1.5"]], "raw"),
    lambda: welch_csd(_SENSORS * 1j, 0.1),
    lambda: JlMatrix("a", 2, "gaussian", 0),
    lambda: JlMatrix(4.7, 2, "gaussian", 0),
    lambda: spawn_seeds(1, "a"),
    lambda: harmonic_number_bounds("a"),
    lambda: estimate_modes(_SENSORS),
    lambda: compress(_SENSORS, _PHI),
    lambda: compress(_DATA, _PHI.entries),
    lambda: align_and_error(_SENSORS, _BASIS),
    lambda: align_and_error(estimate_modes(_DATA), _SENSORS),
    lambda: frequency_spectra(_SENSORS),
    lambda: fdd_peaks(_SENSORS, 1),
    lambda: ResultTable("exp1", ("a",), (5,), {}),
    lambda: build_data_matrix(_SENSORS, _DATA.schedule),
    lambda: build_data_matrix(_BASIS, _SENSORS),
], ids=[
    "welch_t_s_str", "welch_t_s_none", "uniform_t_s", "random_t_max", "random_seed", "jl_epsilon",
    "gershgorin_t_s", "gershgorin_m", "uniform_delta_min", "random_tau",
    "error_bound_epsilon", "error_bound_n", "kl_div_a",
    "gram_str", "gram_nan", "schedule_str", "schedule_nan", "basis_str", "basis_nan", "mdof_str",
    "psinc_str", "psinc_nan", "canonical_sign_str", "steering_str",
    "amplitudes_str", "estimate_str", "estimate_nan", "estimate_0d", "csd_str", "csd_nan",
    "sparse_nan_phi", "data_matrix_text", "welch_complex", "jl_str", "jl_fraction", "spawn_str",
    "harmonic_str", "estimate_array", "compress_array", "compress_phi_array", "align_array",
    "align_truth_array", "spectra_array", "fdd_array", "result_row_int", "build_basis_array",
    "build_schedule_array",
])
def test_non_numbers_raise_modalcs_errors(call):
    with warnings.catch_warnings(), pytest.raises(ModalcsError):
        warnings.simplefilter("error")
        call()


# Each count sized an allocation and leaked numpy's MemoryError.
@pytest.mark.parametrize("call, name", [
    (lambda: harmonic_number_bounds(10**12), "n"),
    (lambda: frequency_spectra(estimate_modes(_DATA), 10**12), "zero_pad_factor"),
], ids=["harmonic_n", "zero_pad_factor"])
def test_counts_past_their_ceiling_are_refused(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be an integer in \\[1, "):
        call()


def test_count_ceilings_admit_the_largest_runs():
    # One ceiling covers a schedule's samples and a dense Phi's entries: config's
    # MAX_SAMPLES and the scale workload's 10^5 x 256 Phi fit under it.
    assert _MAX_PHI_ENTRIES >= max(MAX_SAMPLES, 10**5 * 256)
    assert uniform_schedule(1e-3, MAX_SAMPLES).n_samples == MAX_SAMPLES
    assert random_schedule(1.0, MAX_SAMPLES, 0).n_samples == MAX_SAMPLES
    for call in (lambda: uniform_schedule(1.0, _MAX_PHI_ENTRIES + 1),
                 lambda: draw_jl_matrix(_MAX_PHI_ENTRIES + 1, 1).entries):
        with pytest.raises(DomainError, match=f"in \\[1, {_MAX_PHI_ENTRIES}\\], got "):
            call()


def test_nan_t_max_schedule_is_refused():
    # A nan t_max made the range check compare false and pass.
    with pytest.raises(ModalcsError, match="t_max must be finite"):
        SampleSchedule(np.array([0.0, 0.5]), "random", t_max=math.nan)


def test_fractional_jl_size_is_refused():
    # int() used to turn M = 4.7 into 4 rows without a word.
    with pytest.raises(ModalcsError, match="M must be an integer"):
        draw_jl_matrix(4.7, 2)


def test_save_sensor_csv_refuses_text_before_writing(tmp_path):
    path = tmp_path / "text.csv"
    with warnings.catch_warnings(), pytest.raises(ModalcsError):
        warnings.simplefilter("error")
        save_sensor_csv([["a"]], str(path))
    assert not path.exists()


def test_an_int_past_4300_digits_is_named_by_its_digit_count():
    # The message used to format the value, which Python refuses past 4,300 digits.
    with pytest.raises(ModalcsError, match="t_s must be a float64, got an int of ~5001 digits"):
        welch_csd(_SENSORS, 10**5000)


def _estimate_with_schedule(schedule):
    estimate = estimate_modes(_DATA)
    return ModeEstimate(estimate.mode_shapes_hat, estimate.singular_values,
                        estimate.right_factors_hat, schedule=schedule)


# Each call leaked a ValueError (a count past 4,300 digits, an empty basis), an
# AttributeError (an array for a package object), an IndexError, a TypeError, a
# ZeroDivisionError (no samples) or a MemoryError (a count sizing an allocation), or
# returned a result for a bool count.
@pytest.mark.parametrize("call, error, match", [
    (lambda: psinc(1.0, True), DomainError, "^m must be an integer"),
    (lambda: psinc(1.0, np.True_), DomainError, "^m must be an integer"),
    (lambda: frequency_spectra(estimate_modes(_DATA), True), DomainError, "^zero_pad_factor "),
    (lambda: harmonic_number_bounds(10**5000), DomainError, "got an int of ~5001 digits$"),
    (lambda: spawn_seeds(1, 10**5000), DomainError, "got an int of ~5001 digits$"),
    (lambda: write_result_csv(_SENSORS, os.devnull), InvalidArgument, "^table must be a"),
    (lambda: run_experiment(_SENSORS), InvalidArgument, "^config must be an? "),
    (lambda: solve_modes(_SENSORS), InvalidArgument, "^system must be a"),
    (lambda: build_steering([1.0], _SENSORS), InvalidArgument, "^schedule must be a"),
    (lambda: DataMatrix(_SENSORS, "raw", schedule=_SENSORS), InvalidArgument, "^schedule must"),
    (lambda: ResultTable("x", None, ((1,),), {}), InvalidArgument, "^columns must be a"),
    (lambda: frequency_spectra(_estimate_with_schedule(_SENSORS)), InvalidArgument,
     "^schedule must be a"),
    (lambda: DataMatrix(_SENSORS, "compressed", schedule=_SENSORS), InvalidArgument,
     "^schedule must be a"),
    (lambda: uniform_schedule(0.1, 10**12), DomainError, "^m must be an integer in \\[1, "),
    (lambda: random_schedule(1.0, 10**12, 0), DomainError, "^m must be an integer in \\[1, "),
    (lambda: draw_jl_matrix(10**12, 10**6).entries, DomainError,
     "^M x M' must be an integer in \\[1, "),
    (lambda: welch_csd(np.ones((2, 0)), 0.1), ShapeError, "^samples must be "),
    (lambda: ModalBasis(np.ones((0, 0)), np.ones(0)), InvalidArgument,
     "^mode_shapes must be square and non-empty"),
], ids=["psinc_bool", "psinc_np_bool", "spectra_bool", "harmonic_digits", "spawn_digits",
        "write_array", "run_array", "solve_array", "steering_array", "data_schedule_array",
        "table_columns_none", "estimate_schedule_array",
        "compressed_schedule_array", "uniform_m", "random_m", "jl_entries", "welch_no_samples",
        "basis_empty"])
def test_wrong_counts_objects_and_shapes_are_refused(call, error, match):
    with warnings.catch_warnings(), pytest.raises(error, match=match):
        warnings.simplefilter("error")
        call()


def test_emit_plot_data_refuses_an_array_before_making_its_directory(tmp_path):
    with warnings.catch_warnings(), pytest.raises(InvalidArgument, match="^table must be a"):
        warnings.simplefilter("error")
        emit_plot_data(_SENSORS, str(tmp_path / "plots"))
    assert not (tmp_path / "plots").exists()


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_save_sensor_csv_refuses_an_empty_matrix(tmp_path, shape):
    # It wrote a file that load_sensor_csv then refuses, breaking the round trip.
    path = tmp_path / "empty.csv"
    with warnings.catch_warnings(), pytest.raises(InvalidArgument, match="non-empty 2-d matrix"):
        warnings.simplefilter("error")
        save_sensor_csv(np.ones(shape), str(path))
    assert not path.exists()


def _cells(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _numbers(cells):
    """(numeric values, the other cells with numbers blanked) of a CSV's cells."""
    values, layout = [], []
    for row in cells:
        layout.append([])
        for cell in row:
            try:
                values.append(float(cell))
                layout[-1].append(None)
            except ValueError:
                layout[-1].append(cell)
    return np.array(values), layout


def test_output_does_not_depend_on_blas_threads(tmp_path):
    # Presets must write the same bytes at 1 and 2 OpenBLAS threads; realdata's
    # compress and sparse-solve GEMMs may round differently, within 1e-12.
    save_sensor_csv(synthetic_sensors(), str(tmp_path / "sensors.csv"))
    (tmp_path / "realdata.json").write_text(
        json.dumps({"data_path": "sensors.csv", "sampling": {"t_s": 0.01}})
    )
    experiments = ("exp1", "exp2", "exp3", "exp4", "exp5", "realdata")
    src = os.path.dirname(os.path.dirname(os.path.abspath(modalcs.__file__)))
    procs = {}
    for threads in ("1", "2"):
        runs = [["run", "--experiment", e, "--out", os.path.join(threads, e)]
                + (["--config", "realdata.json"] if e == "realdata" else []) for e in experiments]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import json, sys; from modalcs.cli import run; sys.exit(max(map(run, json.loads(sys.argv[1]))))"
        procs[threads] = subprocess.Popen(
            [sys.executable, "-c", code, json.dumps(runs)], cwd=tmp_path, env=env,
        )
    assert [proc.wait(timeout=120) for proc in procs.values()] == [0, 0]
    for experiment in experiments:
        one, two = tmp_path / "1" / experiment, tmp_path / "2" / experiment
        names = sorted(os.listdir(one))
        assert names == sorted(os.listdir(two)) and names
        for name in names:
            if experiment != "realdata" or not name.endswith(".csv"):
                assert (one / name).read_bytes() == (two / name).read_bytes(), (experiment, name)
                continue
            (a, layout_a), (b, layout_b) = _numbers(_cells(one / name)), _numbers(_cells(two / name))
            assert layout_a == layout_b, name
            npt.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(a).max(initial=0.0))
