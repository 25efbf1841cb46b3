"""Paired benchmark runs of a parent commit and the working tree, as one JSON file.

Usage (from the repository root):

    python3 tools/bench_json.py --parent REV

For every seed in 1..10 and every workload in ``BENCHMARK.json`` this runs
``perfbench/run.py --trace 0`` twice, once in an export of REV (``git
archive``, so the repository gets no extra worktree) and once in the
working tree, alternating which side goes first. Run length is the
benchmark's own ``run_seconds``. Each side uses its own ``perfbench/`` and
``src/``, as the benchmark itself does.

The output, ``BENCH_<HEAD sha>.json`` in the repository root, holds both
commit SHAs, every run's end-to-end metrics, each side's per-metric median
and quartiles, how many pairs the change won per metric, the same for the
raw (unscaled) figures perfbench prints beside its reference-second ones
(``raw`` in each run and each metric), the environment
lines perfbench printed, whether bytecode writing was off, each side's
tier-1 wall time with its pass/fail counts, and each side's ``src_lines``.
A full run of three workloads over ten seeds takes about half an hour on
two cores; nothing else should load the machine meanwhile.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = tuple(range(1, 11))
TIER1 = ("-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors")
# A metric line: "  ops_per_s    98.59 1/s  (n = 250 timed ops, raw 87.07 1/s)".
_RAW_FIGURE = re.compile(r"\s+(\S+)\s+\S+ \S+\s+\(n = [^)]*\braw (?:median )?(\S+) [^)]*\)$")


def _git(*args) -> str:
    return subprocess.run(("git",) + args, cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(rev: str, dest: str):
    archive = os.path.join(dest, "tree.tar")
    with open(archive, "wb") as fh:
        subprocess.run(("git", "archive", rev), cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(os.path.join(dest, "tree"), filter="data")
    os.remove(archive)
    return os.path.join(dest, "tree")


def parse_run(stdout: str) -> dict:
    """A ``--trace 0`` run's env line, counts, metric values and the raw (unscaled)
    figures its metric lines print as ``raw X`` or ``raw median X``."""
    lines = stdout.strip().splitlines()
    last = json.loads(lines[-1])
    return {
        "env": next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {}),
        "correct": last["correct"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
        "raw": {m[1]: float(m[2]) for m in map(_RAW_FIGURE.match, lines) if m},
    }


def _perfbench(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One ``--trace 0`` run, parsed by ``parse_run``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"seed": seed, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return {"seed": seed, **parse_run(proc.stdout)}


def src_lines(tree: str) -> int:
    """Lines in the tree's src/modalcs/*.py as ``wc -l`` counts them: newline bytes."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "modalcs", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def _tier1(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    start = time.monotonic()
    proc = subprocess.run((sys.executable,) + TIER1, cwd=tree, env=env,
                          capture_output=True, text=True)
    wall = time.monotonic() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    return {"wall_s": round(wall, 2), "summary": summary, **counts}


def _stats(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _side_by_side(runs: dict, better: str, value) -> dict:
    """Both sides' median and quartiles of value(run), and the change's wins over the pairs."""
    wins = pairs = 0
    for p, c in zip(runs["parent"], runs["change"]):
        if "error" in p or "error" in c:
            continue
        pairs += 1
        a, b = value(p), value(c)
        wins += (b < a) if better == "lower" else (b > a)
    return {
        **{side: _stats([value(r) for r in runs[side] if "error" not in r]) for side in runs},
        "change_wins": wins,
        "pairs": pairs,
    }


def _summarize(runs: dict, metric_specs: list) -> dict:
    """Per metric: both sides' median and quartiles and the change's wins, in reference
    seconds and, under ``raw``, in the raw figures when every run printed one."""
    ok = [r for side in runs.values() for r in side if "error" not in r]
    out = {}
    for spec in metric_specs:
        name, better = spec["name"], spec["better"]
        out[name] = {"unit": spec["unit"], "better": better, "bound": spec["bound"],
                     **_side_by_side(runs, better, lambda r: r["metrics"][name])}
        if ok and all(name in r.get("raw", {}) for r in ok):
            out[name]["raw"] = _side_by_side(runs, better, lambda r: r["raw"][name])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    head = _git("rev-parse", "HEAD")
    result = {
        "command": "perfbench/run.py --trace 0",
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "parent": {"rev": args.parent, "sha": _git("rev-parse", args.parent)},
        "change": {"sha": head,
                   "dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))},
    }
    runs = {w: {"parent": [], "change": []} for w in workloads}
    envs = {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": _export(args.parent, tmp), "change": ROOT}
        for i, seed in enumerate(SEEDS):
            for j, workload in enumerate(workloads):
                order = ("parent", "change") if (i + j) % 2 == 0 else ("change", "parent")
                for side in order:
                    run = _perfbench(trees[side], workload, seed, seconds)
                    env = run.pop("env", None)
                    if env:
                        env.pop("seed", None)
                        envs.setdefault(side, env)
                    run["first"] = side == order[0]
                    runs[workload][side].append(run)
                    status = run.get("error") or f"{run['failed']} of {run['attempted']} ops failed"
                    print(f"{workload} seed {seed} {side}: {status}", flush=True)
        result["tier1"] = {side: _tier1(tree) for side, tree in trees.items()}
        result["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
    # With bytecode writing off, every fresh process compiles src/modalcs
    # again, which shows in setup_s; the runs inherit this environment.
    result["env"] = {**envs, "dont_write_bytecode": {
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "sys.flags.dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
    }}
    result["workloads"] = {
        w: {"metrics": _summarize(runs[w], bench["end_to_end"]), "runs": runs[w]}
        for w in workloads
    }
    out = os.path.join(ROOT, f"BENCH_{head}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
