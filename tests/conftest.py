import os
import sys

import numpy as np
import pytest

from modalcs import MdofSystem, preset_config, build_basis, solve_modes
from modalcs.config import PAPER_4DOF_STIFFNESS


def reference_aligned_distance(est, truth):
    """min over |c| = 1 of || truth - c * est ||_2 for two unit vectors, in [0, sqrt(2)]: the
    one distance every test takes, and the one-vector alignment that the stacked helpers must
    reproduce bit for bit.  An explicit difference norm, since sqrt(2 - 2 |<est, truth>|)
    cancels below sqrt(eps)."""
    est, truth = np.asarray(est, dtype=complex), np.asarray(truth, dtype=complex)
    inner = np.vdot(est, truth)
    phase = inner / np.abs(inner) if np.abs(inner) > 0.0 else 1.0
    return np.linalg.norm(truth - phase * est)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance verdict lines after the run, capture or not."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "REPORT_LINES", ())
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def cpus(monkeypatch):
    """Sets the number of CPUs the affinity read reports."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture(scope="session")
def chain4_system():
    return MdofSystem(np.eye(4), np.array(PAPER_4DOF_STIFFNESS))


@pytest.fixture(scope="session")
def chain4_modes(chain4_system):
    return solve_modes(chain4_system)


@pytest.fixture(scope="session")
def set1_basis():
    """4-DOF basis with the first synthetic frequency set and its amplitudes."""
    return build_basis(preset_config("exp1"))


@pytest.fixture(scope="session")
def set2_basis():
    """Same system, second frequency set (two closely spaced modes)."""
    return build_basis(preset_config("exp2"))
