"""Package surface: what ``import modalcs`` exports and what it loads."""

import ast
import json
import os
import subprocess
import sys

import modalcs
from modalcs import save_sensor_csv
from modalcs.cli import run as cli_run
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


def test_rejected_config_names_its_field(tmp_path, capsys):
    (tmp_path / "bad.json").write_text(json.dumps({"sampling": {"t_s": "fast"}}))
    argv = ["run", "--experiment", "exp1", "--config", str(tmp_path / "bad.json"), "--out", str(tmp_path)]
    assert cli_run(argv) == 2
    assert capsys.readouterr().err.startswith("error: sampling.t_s: ")
