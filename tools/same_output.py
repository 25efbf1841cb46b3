"""Check that the working tree writes the same output files as a parent commit.

Usage (from the repository root):

    python3 tools/same_output.py --parent REV

Exports REV with ``git archive`` (as ``tools/bench_json.py`` does) and, in
that export and in the working tree, runs ``modalcs.cli.run`` for exp1-exp5,
for exp4 under two overlays whose Phi streams in five row blocks per seed
(``compress``'s multi-block path, which no preset takes): three seeds, drawn
inside exp4's fan-out shares, and one seed, drawn at top level, where with
two or more CPUs the blocks are split over one share per CPU; then both
overlays again in a child process pinned to one CPU
(``os.sched_setaffinity`` on its own process), so that the change's
one-share draw is compared with the parent's on a single CPU; and for realdata
on perfbench's ``synthetic_sensors(1)`` and ``(2)`` CSVs, plus two variants
of ``(1)``: one behind a header row (``"header": true``) and one with every
cell quoted, which load_sensor_csv reads through its csv-module path. Each
side runs in fresh interpreters on its own ``src/`` with
``OPENBLAS_NUM_THREADS=1``, since realdata's bytes depend on the BLAS
thread count; both read the same sensor files. It prints the
thread count, compares the two output trees file by file, as ``diff -r``
would, and prints "identical" with the file count, or every file that
differs: for a CSV in both trees, the
largest relative difference |a - b| / max(|a|, |b|) between numeric cells
in the same place, and whether any other cell or the row layout differs.
Exit status: 0 identical, 1 different, 2 a run failed.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

from bench_json import ROOT, _export

sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]  # perfbench.workloads imports modalcs
from perfbench.workloads import synthetic_sensors  # noqa: E402

PRESETS = ("exp1", "exp2", "exp3", "exp4", "exp5")
# Preset run name: (preset, config overlay).  exp4 at M 10,001 and M' 64 streams each
# seed's Phi in five 2,048-row blocks.  With three seeds each is drawn inside a _shared_map
# share, where the budget leaves one CPU and compress draws on one share; one seed is drawn at
# top level, where on two or more CPUs the blocks are split over one share per CPU.
OVERLAYS = {
    "exp4_blocks": ("exp4", {"sampling": {"t_s_super": 0.0002, "m_prime": 64}, "n_phi_seeds": 3}),
    "exp4_blocks_top": ("exp4", {"sampling": {"t_s_super": 0.0002, "m_prime": 64},
                                 "n_phi_seeds": 1}),
}
# realdata run name: (synthetic_sensors seed, header row, every cell quoted)
SENSOR_FILES = {
    "realdata1": (1, False, False),
    "realdata2": (2, False, False),
    "realdata1_header": (1, True, False),
    "realdata1_quoted": (1, False, True),
}
# Output bytes are fixed only for a fixed numpy, BLAS build and BLAS thread count.
BLAS_THREADS = "1"
# Runs each argument list in turn and exits with the largest exit code.
RUN_ALL = ("import json, sys; from modalcs.cli import run; "
           "sys.exit(max(run(argv) for argv in json.loads(sys.argv[1])))")
# The same, in a process that first pins itself to one of its CPUs.
PINNED = "import os; os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1]); " + RUN_ALL


def _runs(inputs: str, out: str) -> dict[str, list[list[str]]]:
    """The cli.run argument lists by child program: every preset, each overlay, then
    realdata on each sensor file; and for the pinned child each overlay again."""
    runs = [["run", "--experiment", e, "--out", os.path.join(out, e)] for e in PRESETS]
    pinned = []
    for name, (experiment, _) in OVERLAYS.items():
        for suffix, argvs in (("", runs), ("_1cpu", pinned)):
            argvs.append(["run", "--experiment", experiment, "--config",
                          os.path.join(inputs, f"{name}.json"), "--out",
                          os.path.join(out, name + suffix)])
    for name in SENSOR_FILES:
        config = os.path.join(inputs, f"{name}.json")
        runs.append(["run", "--experiment", "realdata", "--config", config,
                     "--out", os.path.join(out, name)])
    return {RUN_ALL: runs, PINNED: pinned}


def _write_inputs(inputs: str):
    """Each overlay's config file; sensor CSVs as perfbench's sensor workload
    writes them (the variants add a header row or quotes), and a realdata
    config for each."""
    for name, (_, overlay) in OVERLAYS.items():
        with open(os.path.join(inputs, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(overlay, fh)
    for name, (seed, header, quoted) in SENSOR_FILES.items():
        data = synthetic_sensors(seed)
        data_path = os.path.join(inputs, f"{name}.csv")
        np.savetxt(data_path, data, fmt='"%.17g"' if quoted else "%.17g", delimiter=",",
                   header=",".join(f"t{j}" for j in range(data.shape[1])) if header else "",
                   comments="")
        config = {"data_path": data_path, "sampling": {"t_s": 0.01}, "header": header}
        with open(os.path.join(inputs, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh)


def _files(top: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), top) for d, _, names in os.walk(top) for f in names}


def _rows(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _number(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def csv_difference(pa: str, pb: str) -> str:
    """How two CSVs differ: the largest relative difference between numeric
    cells in the same place, and whether any other cell or the layout differs.
    """
    rows_a, rows_b = _rows(pa), _rows(pb)
    largest, other = 0.0, [len(r) for r in rows_a] != [len(r) for r in rows_b]
    for ca, cb in zip(itertools.chain(*rows_a), itertools.chain(*rows_b)):
        if ca == cb:
            continue
        x, y = _number(ca), _number(cb)
        if x is None or y is None:
            other = True
        elif x != y:  # 0.0 and -0.0 differ in text only: a change of route can flip a zero's sign
            largest = max(largest, abs(x - y) / max(abs(x), abs(y)))
    text = f"largest relative difference {largest:.3g} between numeric cells"
    return text + ("; other cells or the row layout differ too" if other else "")


def differences(a: str, b: str) -> list[str]:
    """One line (sorted by path) per file present in only one tree or with different bytes."""
    lines = []
    for rel in sorted(_files(a) | _files(b)):
        pa, pb = os.path.join(a, rel), os.path.join(b, rel)
        if not (os.path.isfile(pa) and os.path.isfile(pb)):
            lines.append(f"{rel}: only in {'parent' if os.path.isfile(pa) else 'change'}")
        elif not filecmp.cmp(pa, pb, shallow=False):
            lines.append(f"{rel}: " + (csv_difference(pa, pb) if rel.endswith(".csv")
                                       else "bytes differ"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = os.path.join(tmp, "inputs")
        os.makedirs(inputs)
        _write_inputs(inputs)
        trees = {"parent": _export(args.parent, tmp), "change": ROOT}
        print(f"OPENBLAS_NUM_THREADS={BLAS_THREADS} on both sides")
        for side, tree in trees.items():
            env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
                       OPENBLAS_NUM_THREADS=BLAS_THREADS)
            for program, argvs in _runs(inputs, os.path.join(tmp, "out", side)).items():
                proc = subprocess.run([sys.executable, "-c", program, json.dumps(argvs)],
                                      cwd=tmp, env=env, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(f"{side}: a run exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
                    return 2
        outs = [os.path.join(tmp, "out", side) for side in trees]
        diffs, count = differences(*outs), len(_files(outs[0]))
    print(f"differs: {len(diffs)} of {count} files" if diffs else f"identical ({count} files)")
    for line in diffs:
        print(f"  {line}")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
