"""Span tracing around the public functions of each modalcs layer.

The benchmark measures layers from outside: it wraps each traced function
and records one span per call (name, start, end, parent span, op id) plus a
few counts taken from the call's arguments and result.  Nothing inside the
package changes.

``runner``, ``cli`` and ``config`` bind their callees with
``from .x import f``, so replacing ``sampling.compress`` alone would leave
``runner.compress`` untraced.  ``Tracer.install`` therefore replaces every
module attribute in the package that is the original function object.
"""

from __future__ import annotations

import json
import os
import sys
import time

PACKAGE = "modalcs"

# Relative change below which an inner sparse-reconstruction iteration is
# counted as wasted: its l1 norm moved by at most this share of the previous
# iterate's l1 norm.  1e-4 is the inner-loop tolerance (xtol) that Hale, Yin
# & Zhang's fixed-point continuation stops at by default.
USEFUL_ITER_RTOL = 1e-4


def _svd_flops(shape) -> int:
    # Thin complex SVD of an n x m matrix (n <= m) with U, s and Vh:
    # Golub & Van Loan's R-SVD count 6 m n^2 + 20 n^3 real flops, times 4
    # for complex arithmetic.  Computed from the shape; ignores caches.
    n, m = sorted(shape)
    return 4 * (6 * m * n * n + 20 * n ** 3)


def _estimate_counts(args, kwargs, result):
    return {"flops_computed": _svd_flops(args[0].entries.shape)}


def _compress_counts(args, kwargs, result):
    n, m = args[0].entries.shape
    m_prime = args[1].entries.shape[1]
    # Complex data times real Phi: 2 multiplies and 2 adds per term.  Bytes
    # are one read of V and Phi and one write of Y, ignoring caches.
    return {
        "flops_computed": 4 * n * m * m_prime,
        "bytes_computed": 16 * n * m + 8 * m * m_prime + 16 * n * m_prime,
    }


def _draw_counts(args, kwargs, result):
    return {"bytes_computed": result.entries.nbytes}


def _sparse_counts(args, kwargs, result):
    l1 = [v for stage in result.l1_history for v in stage]
    useful = min(len(l1), 1)  # the first iterate leaves the min-norm start
    for prev, cur in zip(l1, l1[1:]):
        if abs(cur - prev) > USEFUL_ITER_RTOL * abs(prev):
            useful += 1
    return {"iters": len(l1), "useful_iters": useful}


def _load_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _write_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _emit_counts(args, kwargs, result):
    return {"files": len(result), "bytes": sum(os.path.getsize(p) for p in result)}


# (module, function) -> count extractor.  The table in workloads.py says
# which end-to-end metric each of these layers should move, on which workload.
TRACED = {
    ("estimator", "estimate_modes"): _estimate_counts,
    ("estimator", "align_and_error"): None,
    ("estimator", "frequency_spectra"): None,
    ("config", "ExperimentConfig.from_dict"): None,
    ("config", "build_basis"): None,
    ("mdof", "solve_modes"): None,
    ("sampling", "random_schedule"): None,
    ("sampling", "build_data_matrix"): None,
    ("sampling", "build_steering"): None,
    ("sampling", "compress"): _compress_counts,
    ("sampling", "draw_jl_matrix"): _draw_counts,
    ("bounds", "gram_deviation"): None,
    ("bounds", "gershgorin_uniform_bound"): None,
    ("baselines", "sparse_reconstruct"): _sparse_counts,
    ("baselines", "welch_csd"): None,
    ("baselines", "fdd_peaks"): None,
    ("results", "load_sensor_csv"): _load_counts,
    ("results", "write_result_csv"): _write_counts,
    ("results", "emit_plot_data"): _emit_counts,
    ("runner", "run_experiment"): None,
    ("cli", "run"): None,
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers.

    A span is ``[id, parent_id, op_id, name, start, end, counts]``; times
    come from ``time.perf_counter``.  Spans stay in memory until ``dump``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    def _wrap(self, name, func, counter):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            span = [span_id, stack[-1] if stack else None, self.op_id, name, clock(), None, None]
            spans.append(span)
            stack.append(span_id)
            try:
                result = func(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        return traced

    def _build_patches(self):
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for (module, function), counter in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{module}"]
            # Metric prefix: ``config.from_dict``, not the class path.
            name = f"{module}.{function.rsplit('.', 1)[-1]}"
            if "." in function:  # a classmethod: patch the class attribute
                cls_name, meth = function.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                bound = original.__get__(None, cls)
                wrapped = staticmethod(self._wrap(name, bound, counter))
                self._patches.append((cls, meth, original, wrapped))
                continue
            original = getattr(home, function)
            wrapped = self._wrap(name, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original, wrapped))

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def layer_totals(self, op_factors: dict) -> dict:
        """Per-layer sums over the given ops: self time, calls and counts.

        Self time is a span's duration minus the durations of its direct
        child spans (calls are single-threaded, so children never overlap),
        multiplied by the speed factor of the op it belongs to.
        """
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span[1] is not None:
                child_time[span[1]] = child_time.get(span[1], 0.0) + span[5] - span[4]
        totals: dict[str, dict] = {}
        for span in self.spans:
            factor = op_factors.get(span[2])
            if factor is None:
                continue
            entry = totals.setdefault(span[3], {"self_s": 0.0, "calls": 0})
            entry["self_s"] += (span[5] - span[4] - child_time.get(span[0], 0.0)) * factor
            entry["calls"] += 1
            for key, value in (span[6] or {}).items():
                entry[key] = entry.get(key, 0) + value
        return totals

    def dump(self, path: str, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "op", "name", "start", "end", "counts"],
                 "meta": meta, "spans": self.spans},
                fh,
            )

