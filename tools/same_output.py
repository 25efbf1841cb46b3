"""Check that the working tree writes the same output files as a parent commit.

Usage (from the repository root):

    python3 tools/same_output.py --parent REV

Exports REV with ``git archive`` (as ``tools/bench_json.py`` does) and, in
that export and in the working tree, runs ``modalcs.cli.run`` for exp1-exp5
and for realdata on perfbench's ``synthetic_sensors(1)`` and ``(2)`` CSVs.
Each side runs in a fresh interpreter on its own ``src/``; both read the
same sensor files. It then compares the two output trees file by file, as
``diff -r`` would, and prints "identical" with the file count, or the first
file that differs.
Exit status: 0 identical, 1 different, 2 a run failed.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

from bench_json import ROOT, _export

sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]  # perfbench.workloads imports modalcs
from perfbench.workloads import synthetic_sensors  # noqa: E402

PRESETS = ("exp1", "exp2", "exp3", "exp4", "exp5")
SENSOR_SEEDS = (1, 2)
# Runs each argument list in turn and exits with the largest exit code.
RUN_ALL = ("import json, sys; from modalcs.cli import run; "
           "sys.exit(max(run(argv) for argv in json.loads(sys.argv[1])))")


def _runs(inputs: str, out: str) -> list[list[str]]:
    """The cli.run argument lists: every preset, then realdata on each sensor file."""
    runs = [["run", "--experiment", e, "--out", os.path.join(out, e)] for e in PRESETS]
    for seed in SENSOR_SEEDS:
        config = os.path.join(inputs, f"realdata{seed}.json")
        runs.append(["run", "--experiment", "realdata", "--config", config,
                     "--out", os.path.join(out, f"realdata{seed}")])
    return runs


def _write_inputs(inputs: str):
    """Sensor CSVs and realdata configs as perfbench's sensor workload writes them."""
    for seed in SENSOR_SEEDS:
        data_path = os.path.join(inputs, f"sensors{seed}.csv")
        np.savetxt(data_path, synthetic_sensors(seed), fmt="%.17g", delimiter=",")
        with open(os.path.join(inputs, f"realdata{seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({"data_path": data_path, "sampling": {"t_s": 0.01}}, fh)


def _files(top: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), top) for d, _, names in os.walk(top) for f in names}


def first_difference(a: str, b: str) -> str | None:
    """The first path (sorted) present in only one tree or with different bytes, else None."""
    for rel in sorted(_files(a) | _files(b)):
        pa, pb = os.path.join(a, rel), os.path.join(b, rel)
        if not (os.path.isfile(pa) and os.path.isfile(pb) and filecmp.cmp(pa, pb, shallow=False)):
            return rel
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = os.path.join(tmp, "inputs")
        os.makedirs(inputs)
        _write_inputs(inputs)
        trees = {"parent": _export(args.parent, tmp), "change": ROOT}
        for side, tree in trees.items():
            env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
            argvs = json.dumps(_runs(inputs, os.path.join(tmp, "out", side)))
            proc = subprocess.run([sys.executable, "-c", RUN_ALL, argvs], cwd=tmp, env=env,
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{side}: a run exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
                return 2
        outs = [os.path.join(tmp, "out", side) for side in trees]
        diff, count = first_difference(*outs), len(_files(outs[0]))
    print(f"identical ({count} files)" if diff is None else f"differs: {diff}")
    return 0 if diff is None else 1


if __name__ == "__main__":
    raise SystemExit(main())
