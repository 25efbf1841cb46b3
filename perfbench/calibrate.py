"""Machine-speed probe that puts every timing on one reference scale.

On a shared machine the same op can run 30-40 % slower for tens of seconds
at a time when a neighbour gets busy, which no number of repeats inside one
20-second run averages away.  The benchmark therefore times this fixed
kernel in the same process while the ops run and reports each time as

    raw seconds * REFERENCE_S / mean kernel seconds around the op,

i.e. the time the op would take on the machine at its reference speed.
``Sampler`` runs the kernel from a SIGALRM handler every ``interval``
seconds, so a 10-second op is probed about a hundred times while it runs;
the handler's own time is taken out of the op's duration.  Set-up, which
ends before any op runs, is scaled by the kernel run back to back
(``measure``) against REFERENCE_WARM_S instead.  The kernel uses
numpy only, never modalcs, so no change to the program can change it; a
change that leaves CPU work running between ops would slow the kernel and
flatter the program, so the raw times are printed too.

The kernel mixes what the workloads spend their time on: small complex
SVDs behind Python-level loops (presets), a length-3000 FFT with a
mixed-type matrix-vector product (sensor's sparse solver) and a freshly
allocated array (scale's large temporaries).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Typical kernel times on a shared 2-vCPU Intel Xeon VM (OpenBLAS 0.3.31,
# one thread) the benchmark was tuned on: from the SIGALRM handler, right
# after program work, and warm in a tight loop (``measure``).  They set the
# unit only, close to raw seconds there; every run uses the same values.
REFERENCE_S = 0.0025
REFERENCE_WARM_S = 0.002

_rng = np.random.Generator(np.random.Philox(7))
_SVD_INPUTS = [np.exp(1j * np.outer(_rng.uniform(1.0, 30.0, 4), np.arange(m) * 0.01)) for m in (20, 60, 200)]
_PHI = _rng.normal(size=(3000, 50))
_SIGNAL = np.exp(1j * np.arange(3000) * 0.37)


def kernel() -> float:
    acc = 0.0
    for _ in range(4):
        for a in _SVD_INPUTS:
            u, s, _ = np.linalg.svd(a, full_matrices=False)
            acc += float(s[0]) + sum(abs(x) for x in u[:, 0])
    for _ in range(3):
        acc += abs(complex((_PHI.T @ np.fft.ifft(_SIGNAL))[0]))
    block = np.empty(1 << 16, dtype=complex)  # 1 MB, small beside peak RSS
    block.fill(1.0)
    return acc + block.real.sum()


def measure(reps: int) -> float:
    """Median kernel time over ``reps`` back-to-back runs; compare with REFERENCE_WARM_S."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Runs ``kernel`` every ``interval`` seconds of wall time from SIGALRM.

    Python runs the handler between bytecodes of the main thread, so it
    never interrupts a numpy or LAPACK call, only delays until it returns.
    """

    def __init__(self, interval: float = 0.1, pad: float = 0.5):
        self.interval = interval
        self.pad = pad
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _probe(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe_time(self, t0: float, t1: float) -> float:
        """Seconds the handler spent inside [t0, t1]."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean probe time within ``pad`` of [t0, t1]."""
        near = [d for s, d in self.samples if t0 - self.pad <= s <= t1 + self.pad]
        if not near:
            raise RuntimeError(f"no speed probe within {self.pad} s of an op")
        return REFERENCE_S / statistics.fmean(near)
