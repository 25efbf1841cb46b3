"""Run tier-1 on one-line mutants of src/ and report the ones it does not catch.

Usage (from the repository root):

    python3 tools/mutants.py [--only NAME ...]

Copies the working tree's ``src/``, ``tests/``, ``tools/``, ``perfbench/``
(without its run outputs) and ``pyproject.toml`` to a temporary directory.
For each mutant in MUTANTS it replaces the mutant's ``old`` text, which must
occur exactly once in its file, by ``new``; runs tier-1 there with ``-x``,
acceptance 6 (the one known failure) deselected; and restores the file.  A
mutant is caught if a test fails with it applied (pytest exit status 1) and
survives if tier-1 passes.  The unmutated copy runs first and must pass, and
any other pytest status (an import or collection error, say) stops the run.
Prints one line per mutant, then the survivors.  Exit status: 0 if every
mutant was caught, 1 if any survived.  Each run takes up to one tier-1 wall
time (about 50 s on 2 CPUs); caught mutants stop at their first failure.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KNOWN_FAILURE = "tests/test_acceptance.py::test_06_compression_beats_subnyquist"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/modalcs
    old: str
    new: str


MUTANTS = (
    Mutant("mode_error_bound x1.5", "bounds.py",
           "    factor = epsilon * math.sqrt(1.0 + epsilon)",
           "    factor = 1.5 * epsilon * math.sqrt(1.0 + epsilon)"),
    Mutant("jl_tail_rate x0.8", "bounds.py",
           "    return epsilon**2 / 4.0 - epsilon**3 / 6.0",
           "    return 0.8 * (epsilon**2 / 4.0 - epsilon**3 / 6.0)"),
    Mutant("sep_values sqrt(2) -> 2", "bounds.py",
           "            num = ROOT2 * mags[l] * mags[i]",
           "            num = 2.0 * mags[l] * mags[i]"),
    Mutant("uniform_requirements m_min + 2", "bounds.py",
           "    return SamplingPlan(\"uniform\", n, t_max_min, m_min, epsilon, t_s=t_s)",
           "    return SamplingPlan(\"uniform\", n, t_max_min, m_min + 2, epsilon, t_s=t_s)"),
    Mutant("sparse stages 30 -> 24", "baselines.py",
           "_N_STAGES = 30", "_N_STAGES = 24"),
    Mutant("sparse threshold ratio 0.7 -> 0.75", "baselines.py",
           "_THRESHOLD_RATIO = 0.7", "_THRESHOLD_RATIO = 0.75"),
    Mutant("Welch overlap 1/2 -> 1/4", "baselines.py",
           "    hop = nperseg - nperseg // 2", "    hop = nperseg - nperseg // 4"),
    Mutant("_BLOCK_BYTES 2**20 -> 2**19", "sampling.py",
           "_BLOCK_BYTES = 1 << 20", "_BLOCK_BYTES = 1 << 19"),
    Mutant("_SLACK 384 -> 0", "sampling.py",
           "_NORMAL_WORDS, _SLACK, _MARGIN = 1.022, 384, 1024",
           "_NORMAL_WORDS, _SLACK, _MARGIN = 1.022, 0, 1024"),
    Mutant("_PEAK_FLOOR 1e-10 -> 1e-6", "baselines.py",
           "_PEAK_FLOOR = 1e-10", "_PEAK_FLOOR = 1e-6"),
    Mutant("_checked_choice takes any value", "errors.py",
           "    if not (isinstance(value, str) and value in options):",
           "    if not (value in options):"),
    Mutant("_checked_real takes complex values", "errors.py",
           "        if np.ndim(x) == 0 and not np.iscomplexobj(x) and lo < x < hi:",
           "        if np.ndim(x) == 0 and lo < x < hi:"),
    Mutant("_write_text without its trim", "results.py",
           "fh.truncate(fh.write(data))", "fh.write(data)"),
    Mutant("_write_text with O_TRUNC", "results.py",
           "flags & ~os.O_TRUNC", "flags"),
    Mutant("ResultTable without its file-name collision check", "results.py",
           'p.file in ("", ".", "..", *taken)', 'p.file in ("", ".", "..")'),
    Mutant("sparse_reconstruct keeps its loop state through synthesis", "baselines.py",
           "    del spectrum, a_op, pinv_op, mags, step, resid", "    pass"),
)


def source(tree: str, mutant: Mutant) -> str:
    with open(os.path.join(tree, "src", "modalcs", mutant.file), encoding="utf-8") as fh:
        return fh.read()


def tier1_failed(tree: str, label: str) -> bool:
    """Whether tier-1 failed a test in tree.  Any other outcome than pass or fail (a
    collection or import error, an internal error, no tests) ends the run: it would
    otherwise read as a caught mutant."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--deselect", KNOWN_FAILURE]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # pytest: 0 all passed, 1 some test failed
        raise SystemExit(f"{label}: pytest exited {proc.returncode}:\n{(proc.stdout + proc.stderr)[-2000:]}")
    return proc.returncode == 1


def caught(tree: str, mutant: Mutant) -> tuple[bool, float]:
    """(whether tier-1 failed with the mutant applied, seconds taken); restores the file."""
    path = os.path.join(tree, "src", "modalcs", mutant.file)
    text = source(tree, mutant)
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))
    start = time.monotonic()
    try:
        failed = tier1_failed(tree, mutant.name)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return failed, time.monotonic() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if not args.only or m.name in args.only]
    survivors = []
    with tempfile.TemporaryDirectory() as tree:
        for part in ("src", "tests", "tools", "perfbench"):  # tests read tools/ and perfbench/
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tree, part),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", "out"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tree)
        if tier1_failed(tree, "unmutated tree"):  # else every mutant would read as caught
            raise SystemExit("unmutated tree: tier-1 fails; fix that before judging mutants")
        for mutant in mutants:
            failed, seconds = caught(tree, mutant)
            print(f"{'caught  ' if failed else 'SURVIVED'} {seconds:6.1f} s  {mutant.name}",
                  flush=True)
            if not failed:
                survivors.append(mutant.name)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} caught; survivors: "
          + (", ".join(survivors) or "none"))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
