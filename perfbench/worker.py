"""One workload process: set-up, first op, then timed ops in a closed loop.

Started in a fresh interpreter by ``run.py``, which puts ``src`` on
``PYTHONPATH``; prints one JSON object as its
last stdout line.  ``--setup-only`` skips the timed ops (and the first op,
unless the workload sets ``first_op_in_probes``), which ``run.py`` uses to
time set-up, and a short first op, in several fresh processes per run.

From the first op on, ``calibrate.Sampler`` probes machine speed every
0.1 s; each op is reported as its raw time less the probes inside it, plus
the speed factor around it.  In a traced run, timed rounds alternate
between traced and untraced (the first op is never traced), so per-layer
numbers and the tracing overhead come from the same process and the same
mix of ops.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

import calibrate

# Failure messages kept in the result; the counts are always complete.
_MAX_MESSAGES = 10
# Kernel runs (about 2 ms each) behind one set-up correction.
_SETUP_CAL_REPS = 15


def _run_op(work, arg, fails, tracer=None):
    """Run one op (traced if a tracer is given), then check it; returns its (start, end)."""
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        output, error = work.run(arg), None
    except Exception as exc:  # an op that raises counts as failed
        output, error = None, f"{arg}: {type(exc).__name__}: {exc}"
    span = (start, time.perf_counter())
    if tracer is not None:
        tracer.uninstall()
    fails.append([error] if error else work.check(arg, output))
    return span


def _timed_loop(work, seconds, traced_rounds, tracer, fails):
    """Run whole rounds until ``seconds`` have passed; returns (op spans, traced flags)."""
    spans, traced = [], []
    deadline = time.perf_counter() + seconds
    for index, batch in enumerate(work.rounds()):
        use_trace = traced_rounds and index % 2 == 0
        for arg in batch:
            if use_trace:
                tracer.op_id = len(spans)
            spans.append(_run_op(work, arg, fails, tracer if use_trace else None))
            traced.append(use_trace)
        # In a traced run keep going until both halves have at least one round.
        if time.perf_counter() >= deadline and (not traced_rounds or index >= 1):
            break
    return spans, traced


def _layer_stats(tracer, factors, traced):
    traced_ids = [i for i, t in enumerate(traced) if t]
    totals = tracer.layer_totals({i: factors[i] for i in traced_ids})
    n = len(traced_ids)
    return {
        "n_traced_ops": n,
        "layers": {name: {k: v / n for k, v in entry.items()} for name, entry in totals.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    work = WORKLOADS[args.workload](args.workdir, args.seed)
    ready = time.perf_counter()
    sampler = calibrate.Sampler()
    fails = []
    result = {"ready": ready}
    tracer = None
    first_span = None
    spans, traced = [], []
    try:
        if not args.setup_only or work.first_op_in_probes:
            # The first probe fires 0.1 s into the first op: a shorter op
            # meets every cold numpy/LAPACK path before the kernel warms any,
            # and in a longer one the paths it warms are a negligible share.
            sampler.start()
            first_span = _run_op(work, work.first_op, fails)
        if not args.setup_only:
            if args.trace:
                from spans import Tracer

                tracer = Tracer()
            spans, traced = _timed_loop(work, args.seconds, bool(args.trace), tracer, fails)
        elif work.first_op_in_probes:
            # Ops (checked, not timed) so that probes land around the first op.
            _timed_loop(work, sampler.pad, False, None, fails)
    finally:
        sampler.stop()
    if first_span is not None:
        result["first_op_s"] = first_span[1] - first_span[0] - sampler.probe_time(*first_span)
        result["first_op_factor"] = sampler.factor(*first_span)
    # Set-up is corrected by the warm kernel timed in a tight loop, after
    # the ops so that it warms nothing they use.
    calibrate.measure(1)
    result["cal"] = calibrate.measure(_SETUP_CAL_REPS)

    factors = [sampler.factor(*s) for s in spans]
    messages = [m for op_fails in fails for m in op_fails]
    result.update({
        "op_s": [s[1] - s[0] - sampler.probe_time(*s) for s in spans],
        "op_factors": factors,
        "traced": traced,
        "attempted": len(fails),
        "failed": sum(1 for f in fails if f),
        "messages": messages[:_MAX_MESSAGES],
        "shape_err_max": work.shape_err,
        "baseline_err_max": work.baseline_err,
        "probes": len(sampler.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    })
    if tracer is not None:
        result.update(_layer_stats(tracer, factors, traced))
        tracer.dump(os.path.join(args.workdir, "spans.json"), {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
