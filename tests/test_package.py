"""Package surface: what ``import modalcs`` exports and what it loads."""

import ast
import os
import subprocess
import sys

import modalcs


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
    # scipy takes most of a second to import and only welch_csd needs it
    # (scipy.signal), so importing the package must load no scipy module.
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
