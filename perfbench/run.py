"""modalcs benchmark: one command, three workloads, every output checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload presets|sensor|scale --seed N \
        --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Either way the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment and the sample count
behind each number.  Workload definitions, their rationale and the
layer-to-end-to-end predictions are in ``workloads.py``.

Every process this script starts runs with one BLAS/OpenMP thread: with the
default two OpenBLAS threads, fresh processes sometimes stall for about a
second on their first BLAS call, which would swamp ``first_op_s``.

Times are in reference seconds: raw wall time scaled by a machine-speed
probe run beside it in the same process (see ``calibrate.py``).  The raw
figures are printed next to each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("presets", "sensor", "scale")
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Fresh interpreters timed per untraced run for setup_s (the workload
# process itself is one more); the median is reported.
SETUP_REPEATS = 6
IMPORT_REPEATS = 3
# Every run must end within 180 s; the workload process gets what is left.
RUN_LIMIT_S = 175.0

# (metric, unit, better) of an untraced run.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("first_op_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_p90_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("shape_err_max", "1", "lower"),
    ("baseline_err_max", "1", "lower"),
    ("ok_ratio", "1", "higher"),
)

_QUANTITY_UNITS = {
    "self_s": ("s/op", "lower"),
    "calls": ("calls/op", "lower"),
    "flops_computed": ("flop/op", "lower"),
    "bytes_computed": ("B/op", "lower"),
    "bytes": ("B/op", "lower"),
    "files": ("files/op", "lower"),
    "iters": ("iters/op", "lower"),
    "useful_iter_ratio": ("1", "higher"),
}

# Per-layer metrics of a traced run: <module>.<function>.<quantity>, each a
# mean over the traced ops.  ``useful_iter_ratio`` is useful / all inner
# sparse-reconstruction iterations (threshold in spans.USEFUL_ITER_RTOL).
_LAYER_QUANTITIES = (
    ("estimator.estimate_modes", ("self_s", "calls", "flops_computed")),
    ("estimator.align_and_error", ("self_s",)),
    ("estimator.frequency_spectra", ("self_s",)),
    ("config.from_dict", ("self_s", "calls")),
    ("config.build_basis", ("self_s",)),
    ("mdof.solve_modes", ("self_s", "calls")),
    ("sampling.random_schedule", ("self_s", "calls")),
    ("sampling.build_data_matrix", ("self_s", "calls")),
    ("sampling.build_steering", ("self_s",)),
    ("sampling.compress", ("self_s", "calls", "bytes_computed", "flops_computed")),
    ("sampling.draw_jl_matrix", ("self_s", "calls", "bytes_computed")),
    ("bounds.gram_deviation", ("self_s", "calls")),
    ("bounds.gershgorin_uniform_bound", ("self_s",)),
    ("baselines.sparse_reconstruct", ("self_s", "calls", "iters", "useful_iter_ratio")),
    ("baselines.welch_csd", ("self_s",)),
    ("baselines.fdd_peaks", ("self_s",)),
    ("results.load_sensor_csv", ("self_s", "bytes")),
    ("results.write_result_csv", ("self_s", "bytes")),
    ("results.emit_plot_data", ("self_s", "files", "bytes")),
    ("runner.run_experiment", ("self_s",)),
    ("cli.run", ("self_s",)),
)
PER_LAYER = tuple(
    (f"{layer}.{q}",) + _QUANTITY_UNITS[q] for layer, qs in _LAYER_QUANTITIES for q in qs
) + (
    ("import.modalcs_s", "s", "lower"),
    ("import.scipy_signal_s", "s", "lower"),
    ("trace.op_mean_s", "s/op", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class BenchError(RuntimeError):
    """A run that cannot produce a result: no program, a crashed or hung worker."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    return env


def _run(cmd, deadline) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(cmd[1:3]))
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env=_child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd[1:])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd[1:])}\n{proc.stderr[-2000:]}")
    return proc


def _worker(args, workdir, deadline, setup_only=False) -> tuple[float, dict]:
    """Start one fresh workload process; returns (raw set-up seconds, its result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
    proc = _run(cmd, deadline)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"no result from worker: {proc.stdout[-500:]}") from exc
    return result["ready"] - start, result


def _import_times(deadline) -> dict:
    """Cumulative import times of modalcs and scipy.signal from ``-X importtime``."""
    samples = {"modalcs": [], "scipy.signal": []}
    for _ in range(IMPORT_REPEATS):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import modalcs"], deadline)
        found = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S.*)$", line)
            if m and m.group(2).strip() in samples:
                found[m.group(2).strip()] = int(m.group(1)) * 1e-6
        for name in samples:
            samples[name].append(found.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def _quantile(values, q) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _environment(seed, blas_threads) -> dict:
    from importlib import metadata

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                caches[f"L{level}"] = fh.read().strip()
        except OSError:
            continue
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "jsonschema")},
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2": caches.get("L2", "?"),
        "l3": caches.get("L3", "?"),
        "blas_threads": blas_threads,
        "seed": seed,
    }


def _end_to_end(result, setups, first_ops) -> tuple[dict, dict]:
    """``setups`` holds (raw seconds, calibration seconds) per fresh process,
    ``first_ops`` (raw seconds, speed factor) per process that ran the first op."""
    ops = [d * f for d, f in zip(result["op_s"], result["op_factors"])]
    values = {
        "setup_s": statistics.median(raw * calibrate.REFERENCE_WARM_S / cal for raw, cal in setups),
        "first_op_s": statistics.median(raw * f for raw, f in first_ops),
        "op_p50_s": statistics.median(ops),
        "op_p90_s": _quantile(ops, 0.9),
        "ops_per_s": len(ops) / sum(ops),
        "peak_rss_mb": result["peak_rss_mb"],
        "shape_err_max": result["shape_err_max"],
        "baseline_err_max": result["baseline_err_max"],
        "ok_ratio": 1.0 - result["failed"] / result["attempted"],
    }
    raw = result["op_s"]
    counts = {
        "setup_s": f"{len(setups)} fresh processes, raw median {statistics.median(r for r, _ in setups):.4g} s",
        "first_op_s": f"{len(first_ops)} fresh processes, raw median {statistics.median(r for r, _ in first_ops):.4g} s",
        "op_p50_s": f"{len(ops)} timed ops, raw {statistics.median(raw):.4g} s",
        "op_p90_s": f"{len(ops)} timed ops, raw {_quantile(raw, 0.9):.4g} s",
        "ops_per_s": f"{len(ops)} timed ops, raw {len(raw) / sum(raw):.4g} 1/s",
        "ok_ratio": f"{result['attempted']} ops attempted",
    }
    return values, counts


def _per_layer(result, imports) -> tuple[dict, dict]:
    layers = result["layers"]
    values = {}
    for layer, quantities in _LAYER_QUANTITIES:
        entry = layers.get(layer, {})
        for q in quantities:
            if q == "useful_iter_ratio":
                iters = entry.get("iters", 0)
                values[f"{layer}.{q}"] = entry.get("useful_iters", 0) / iters if iters else 0.0
            else:
                values[f"{layer}.{q}"] = entry.get(q, 0)
    values["import.modalcs_s"] = imports["modalcs"]
    values["import.scipy_signal_s"] = imports["scipy.signal"]
    ops = [d * f for d, f in zip(result["op_s"], result["op_factors"])]
    on = [d for d, t in zip(ops, result["traced"]) if t]
    off = [d for d, t in zip(ops, result["traced"]) if not t]
    values["trace.op_mean_s"] = sum(on) / len(on)
    values["trace.overhead_s"] = statistics.median(on) - statistics.median(off)
    n = f"{result['n_traced_ops']} traced ops"
    counts = {name: n for name in values}
    counts["trace.overhead_s"] = f"{len(on)} traced vs {len(off)} untraced ops"
    counts["import.modalcs_s"] = counts["import.scipy_signal_s"] = f"{IMPORT_REPEATS} processes, raw"
    return values, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "modalcs", "__init__.py")):
        print(f"error: no modalcs sources under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    try:
        probes = []
        if not args.trace:
            probes = [_worker(args, os.path.join(workdir, f"setup{i}"), deadline, True)
                      for i in range(SETUP_REPEATS)]
        raw, result = _worker(args, workdir, deadline)
        processes = probes + [(raw, result)]
        for _, r in probes:
            for key in ("attempted", "failed", "probes"):
                result[key] += r[key]
            result["messages"] += r["messages"]
        if args.trace:
            values, counts = _per_layer(result, _import_times(deadline))
            table = PER_LAYER
        else:
            setups = [(raw, r["cal"]) for raw, r in processes]
            first_ops = [(r["first_op_s"], r["first_op_factor"]) for _, r in processes if "first_op_s" in r]
            values, counts = _end_to_end(result, setups, first_ops)
            table = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = _environment(args.seed, result["blas_threads"])
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {result['attempted']} ops attempted, {result['failed']} failed, "
          f"fail_ratio {result['failed'] / result['attempted']:.4f}, {result['probes']} speed probes")
    for message in result["messages"]:
        print(f"  check failed: {message}")
    metrics = {}
    for name, unit, _ in table:
        metrics[name] = {"value": values[name], "unit": unit}
        note = f"  (n = {counts[name]})" if name in counts else ""
        print(f"  {name:48s} {values[name]:.6g} {unit}{note}")
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": metrics, "counts": counts, "worker": result}, fh)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
