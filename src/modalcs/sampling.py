"""Sampling schedules, steering/data matrices, and random compression.

The analytic response sampled at times t_1 < ... < t_M forms the N x M data
matrix [V] whose factorization [V] = [Psi] (sqrt(M) diag(A)) [S] drives the
whole estimation pipeline.  [S] is the steering matrix of unit-norm rows
e^{i w_n t_m} / sqrt(M); its Gram deviation from the identity is what the
sampling theorems control.  Compression multiplies [V] on the right by a
random M x M' matrix with the distributional Johnson-Lindenstrauss property.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (DimensionMismatch, InvalidArgument, ShapeError, _checked_array,
                     _checked_choice, _checked_count, _checked_real, _checked_seed, _checked_type)
from .mdof import ModalBasis

# Working-set size of one streamed block: Phi rows in compress, V columns in build_data_matrix,
# the runners' stacked schedules.  About one L2 cache; 512 Phi rows at M' = 256.
_BLOCK_BYTES = 1 << 20
# Split Phi draws (JlMatrix._in_order): raw Philox words per normal (the ziggurat redraws ~2 %),
# words a guessed block start sits early (131,072 normals take 67 words more or less, 1 sd),
# and values each block draws past its rows.
_NORMAL_WORDS, _SLACK, _MARGIN = 1.022, 384, 1024
_HELPERS = set()  # live threads _fan_out started, process-wide, which the CPU budget charges
_MAX_PHI_ENTRIES = 100_000 * 256  # samples in a schedule, entries in a dense Phi: 205 MB at most
# SeedSequence's running hash multipliers c * k**i mod 2**32: 16 mixing calls, then 4 output ones.
_MIX_CONSTS, _OUT_CONSTS = (
    np.array([c * pow(k, i, 2**32) % 2**32 for i in range(n)], np.uint32)
    for c, k, n in ((0x43B0D7E5, 0x931E8875, 17), (0x8B51F9DD, 0x58F38DED, 5)))


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator used for every stochastic operation."""
    return np.random.Generator(np.random.Philox(_checked_seed(seed)))


def spawn_seeds(seed: int, n: int) -> np.ndarray:
    """Derive n independent 64-bit child seeds from a master seed."""
    n = _checked_count(n, "n")
    return np.random.SeedSequence(_checked_seed(seed)).generate_state(n, dtype=np.uint64)


def _usable_cpus() -> int:
    """Fan-out budget: affinity CPUs (else os.cpu_count() or 1) less live _fan_out threads, >= 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, cpus - len(_HELPERS))


def _fan_out(share, n, stop=lambda: None):
    """share(i, k) for i < k = max(1, min(n, _usable_cpus())), share 0 on the calling thread and
    each other on a thread of its own.  A share or thread start that fails calls stop(); the
    threads that started are joined and the first error is raised on the calling thread."""
    k, errors = 1 if n < 2 else min(n, _usable_cpus()), []

    def guarded(job, *args):
        try:
            job(*args)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)
            stop()

    threads = [threading.Thread(target=guarded, args=(share, i, k)) for i in range(1, k)]
    _HELPERS.update(threads)  # before any starts, so that every share sees the same budget
    try:
        for thread in threads:
            guarded(thread.start)
        guarded(share, 0, k)
        for thread in threads:
            if thread.ident is not None:  # it started
                thread.join()
    finally:
        _HELPERS.difference_update(threads)
    if errors:
        raise errors[0]


def _shared_map(f, items):
    """[f(x) for x in items] over _fan_out's shares: share i takes items i, i + k, ..."""
    out = [None] * len(items)

    def share(i, k):
        out[i::k] = [f(x) for x in items[i::k]]

    _fan_out(share, len(items))
    return out


@dataclass(frozen=True)
class SampleSchedule:
    """Strictly increasing sample times on [0, t_max].

    ``scheme`` is "uniform" (t_m = (m-1) t_s, t_max = (M-1) t_s) or "random"
    (i.i.d. uniform draws over [0, t_max], sorted).
    """

    times: np.ndarray
    scheme: str
    t_max: float
    t_s: float | None = None

    def __post_init__(self):
        times = _checked_array(self.times, "times", float)
        if times.ndim != 1 or times.size < 1:
            raise InvalidArgument("times must be a non-empty 1-d array")
        _checked_choice(self.scheme, ("uniform", "random"), "scheme")
        if np.any(np.diff(times) <= 0.0):
            raise InvalidArgument("times must be strictly increasing")
        t_max = _checked_real(self.t_max, "t_max", lo=-np.inf)  # a negative one fails below
        if times[0] < 0.0 or times[-1] > t_max + 1e-12 * max(1.0, t_max):
            raise InvalidArgument("times must lie within [0, t_max]")
        if self.scheme == "uniform":
            t_s = _checked_real(self.t_s, "t_s")
            with np.errstate(over="ignore"):  # (m-1)*t_s past float64 is inf, which no time equals
                if times.size > 1 and np.any(times != np.arange(times.size) * t_s):
                    raise InvalidArgument("uniform times must equal (m-1)*t_s exactly")
        object.__setattr__(self, "times", times)

    @property
    def n_samples(self) -> int:
        return self.times.size


def uniform_schedule(t_s: float, m: int) -> SampleSchedule:
    """M samples at t_m = (m-1) t_s for m = 1..M."""
    t_s = _checked_real(t_s, "t_s")
    m = _checked_count(m, hi=_MAX_PHI_ENTRIES)
    t_max = _checked_real((m - 1) * t_s, "(m - 1) * t_s", lo=-np.inf)  # floats overflow to inf
    return SampleSchedule(np.arange(m) * t_s, "uniform", t_max=t_max, t_s=t_s)


def random_schedule(t_max: float, m: int, seed: int) -> SampleSchedule:
    """M i.i.d. uniform draws over [0, t_max], sorted ascending: _random_times for one seed."""
    t_max, m = _checked_real(t_max, "t_max"), _checked_count(m, hi=_MAX_PHI_ENTRIES)
    return SampleSchedule(_random_times(t_max, m, [seed])[0], "random", t_max=t_max)


def _philox_keys(seeds: np.ndarray) -> np.ndarray:
    """Row i = SeedSequence(seeds[i]).generate_state(2, np.uint64) for uint64 seeds: numpy's
    stream-stable hash in uint32 arithmetic.  A seed below 2**32 hashes as [seed, 0] would.
    """
    def hashmix(words, consts):  # row i hashed with consts[i], then multiplied by consts[i + 1]
        words = (words ^ consts[:-1, None]) * consts[1:, None]
        return words ^ (words >> np.uint32(16))

    words = seeds.astype("<u8").view("<u4").reshape(-1, 2).T
    pool = hashmix(np.concatenate([words, 0 * words]), _MIX_CONSTS[:5])
    # pool[src]'s three hashes, one per other word, are independent: one (3, n) operation.
    for src, dst in enumerate(([1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2])):
        hashed = hashmix(pool[src], _MIX_CONSTS[3 * src + 4 : 3 * src + 8])
        mixed = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * hashed
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    return hashmix(pool, _OUT_CONSTS).T.astype("<u4", order="C").view("<u8").astype(np.uint64)


def _random_times(t_max, m, seeds) -> np.ndarray:
    """(len(seeds), max M) times; row i is m[i] i.i.d. uniform draws over [0, t_max[i]] from
    rng_from_seed(seeds[i]), sorted, then zeros (one t_max or m serves every row; each m must
    be a count, as random_schedule checks).  A row with a repeated time is redrawn from its
    own stream, so it stays a function of its seed; 64 colliding draws mean t_max is too
    small to hold M distinct floats.  Philox is counter-based, so all rows share the first
    row's generator: a row's key (from _philox_keys) and a zeroed counter restart its stream.
    """
    t_max, m = (np.broadcast_to(np.atleast_1d(v), len(seeds)) for v in (t_max, m))
    for bound in (t_max.min(), t_max.max()):  # a t_max <= 0 fails here, not after 64 draws
        _checked_real(bound, "t_max")  # so does a nan anywhere: min and max propagate it
    rest = [int(_checked_seed(seed)) for seed in seeds[1:]]
    if rest and max(rest) >> 64:
        raise InvalidArgument("a batch of seeds must lie in [0, 2**64)")
    rng = rng_from_seed(seeds[0])
    state = rng.bit_generator.state
    keys = [state["state"]["key"]]
    if rest:
        keys += list(_philox_keys(np.array(rest, dtype=np.uint64)))

    def draw(i, count):  # the first `count` U[0, 1) draws of row i's stream
        state["state"]["key"] = keys[i]
        rng.bit_generator.state = state
        return rng.random(count)

    # t_max * U[0, 1) is uniform(0, t_max)'s own arithmetic, done for all rows at once;
    # a row's nan padding sorts past its draws, never collides, and is zeroed at the end.
    times = np.full((len(seeds), m.max()), np.nan)
    for i, row in enumerate(times):
        row[: m[i]] = draw(i, m[i])
    times = np.sort(t_max[:, None] * times)
    for draws in range(2, 66):  # a row colliding now has drawn (draws - 1) * M values
        collided = np.flatnonzero((np.diff(times) <= 0.0).any(axis=-1))
        if not collided.size:
            return np.nan_to_num(times, copy=False, nan=0.0)
        for i in collided:
            times[i, : m[i]] = np.sort(t_max[i] * draw(i, draws * m[i])[-m[i] :])
    raise InvalidArgument(f"t_max = {t_max[i]} cannot hold M = {m[i]} distinct sample times")


def build_steering(frequencies, schedule: SampleSchedule) -> np.ndarray:
    """N x M steering matrix e^{i w_n t_m} / sqrt(M) for the given frequencies and schedule.

    Rows have unit Euclidean norm by construction.  Frequencies must be
    finite and strictly positive; ordering is the caller's business.
    """
    freqs = _checked_array(frequencies, "frequencies", float)
    if freqs.ndim != 1 or not np.all(freqs > 0.0):
        raise InvalidArgument("frequencies must be a 1-d array of finite positive values")
    times = _checked_type(schedule, SampleSchedule, "schedule").times
    return np.exp(1j * np.outer(freqs, times)) / np.sqrt(times.size)


@dataclass(frozen=True)
class DataMatrix:
    """Sampled (or compressed) analytic response with its provenance.

    ``kind`` is "raw" for N x M sampled responses or "compressed" for
    N x M' products with a compression matrix.  Entries must be finite;
    real ones stay float64 and complex ones become complex128.  The schedule
    rides along so downstream frequency estimation can refuse non-uniform
    inputs.
    """

    entries: np.ndarray = field(repr=False)  # a lazy one is built only when read
    kind: str
    schedule: SampleSchedule | None = None

    def __post_init__(self):
        entries = _checked_array(self.entries, "entries")
        if entries.ndim != 2:
            raise ShapeError("data matrix must be 2-d")
        _checked_choice(self.kind, ("raw", "compressed"), "data-matrix kind")
        schedule = _checked_type(self.schedule, (SampleSchedule, type(None)), "schedule")
        if self.kind == "raw" and schedule is not None and entries.shape[1] != schedule.n_samples:
            raise DimensionMismatch("column count disagrees with the schedule")
        object.__setattr__(self, "entries", entries)

    @property
    def shape(self):
        return self.entries.shape


class _ModalData(DataMatrix):
    """Raw [V] = [Psi] diag(A) [E], E = e^{i w t}, kept as its factors until ``entries`` is read."""

    def __init__(self, basis: ModalBasis, schedule: SampleSchedule):
        for name, value in (("basis", basis), ("kind", "raw"), ("schedule", schedule)):
            object.__setattr__(self, name, value)

    @property
    def shape(self):
        return (self.basis.n_dof, self.schedule.n_samples)

    @cached_property
    def entries(self) -> np.ndarray:
        coef, times = self.basis.mode_shapes * self.basis.amplitudes, self.schedule.times
        v, cols = np.empty(self.shape, dtype=complex), max(1, _BLOCK_BYTES // (16 * self.shape[0]))
        for start in range(0, times.size, cols):
            phases = self.basis.frequencies[:, None] * times[start : start + cols]
            v[:, start : start + cols] = coef @ np.exp(1j * phases)
        return _checked_array(v, "entries")

    def _steering(self, start: int, rows: int) -> np.ndarray:
        """Columns start..start+rows of [E].  Uniform ones rotate a cached first block; any
        thread may fill the cache, as every fill stores the same bits in one assignment."""
        freqs, times = self.basis.frequencies[:, None], self.schedule.times
        if self.schedule.scheme != "uniform":
            return np.exp(1j * (freqs * times[start : start + rows]))
        first = self.__dict__.get("_first")
        if first is None or first.shape[1] < rows:
            first = self.__dict__["_first"] = np.exp(1j * (freqs * times[:rows]))
        return first[:, :rows] * np.exp(1j * (freqs * times[start])) if start else first[:, :rows]


def build_data_matrix(basis: ModalBasis, schedule: SampleSchedule) -> DataMatrix:
    """[V] with columns v(t_m) = sum_n psi_n A_n e^{i w_n t_m}, kept as its factors.

    Equals [Psi] (sqrt(M) diag(A)) [S] for the steering matrix of the same
    frequencies and schedule.  Reading ``entries`` evaluates [V] directly,
    one ~1 MB column block of e^{i w t} at a time.  compress never builds [V].
    """
    if _checked_type(basis, ModalBasis, "basis").amplitudes is None:
        raise InvalidArgument("basis has no amplitudes; give ModalBasis its amplitudes")
    return _ModalData(basis, _checked_type(schedule, SampleSchedule, "schedule"))


@dataclass(frozen=True)
class JlMatrix:
    """Seeded description of a random M x M' compression matrix, M' <= M.

    Entry scaling gives E ||Phi* x||^2 = ||x||^2 for any fixed x: Gaussian
    entries are N(0, 1/M'), Bernoulli entries are +/- 1/sqrt(M').  The rows
    are one stream of ``rng_from_seed(seed)`` in row-major order, so they can
    be drawn block by block as samples arrive; ``entries`` draws the whole
    matrix on first access and keeps it.
    """

    m: int
    m_prime: int
    kind: str
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "m", _checked_count(self.m, "M"))
        object.__setattr__(self, "m_prime", _checked_count(self.m_prime, "M'"))
        if self.m_prime > self.m:
            raise InvalidArgument(f"need 1 <= M' <= M, got M'={self.m_prime}, M={self.m}")
        _checked_choice(self.kind, ("gaussian", "bernoulli"), "compression kind")
        _checked_seed(self.seed)

    @property
    def shape(self):
        return (self.m, self.m_prime)

    def _fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        # Draws the next out.size values of the stream into out, with the
        # same arithmetic as rng.normal(0, 1/sqrt(M')) and (2 b - 1)/sqrt(M').
        if self.kind == "gaussian":
            rng.standard_normal(out=out)
            out *= 1.0 / np.sqrt(self.m_prime)
        else:
            np.multiply(rng.integers(0, 2, size=out.shape), 2.0, out=out)
            out -= 1.0
            out /= np.sqrt(self.m_prime)
        return out

    @property
    def _block_rows(self) -> int:  # rows in one ~_BLOCK_BYTES row block, at most M
        return min(self.m, max(1, _BLOCK_BYTES // (8 * self.m_prime)))

    def _in_order(self, use):
        """use(start, block) for each _block_rows row block in block order, one call at a time.

        _fan_out's share i of k draws blocks i, i + k, ...: with k = 1 each from the previous
        block's generator; with k > 1 each after the first, plus _MARGIN values (its overflow),
        from a Philox started _SLACK raw words before where the words per value so far put it,
        joined where the previous block's overflow reappears, else drawn from that overflow on.
        """
        rows, mp, turn = self._block_rows, self.m_prime, threading.Condition()
        # The last block used (None once a share failed), its overflow and its generator.
        done, tail, prev = -1, np.empty(0), rng_from_seed(self.seed)
        rate = 0.5 if self.kind == "bernoulli" else _NORMAL_WORDS  # raw words per value so far

        def stop():  # wakes every waiting share, which then returns
            nonlocal done
            with turn:
                done = None
                turn.notify_all()

        def draw(first, k):
            nonlocal done, tail, prev, rate
            margin = _MARGIN if k > 1 else 0
            buf = np.empty(rows * mp + margin)
            for b in range(first, -(-self.m // rows), k):
                value, count = b * rows * mp, min(rows, self.m - b * rows) * mp
                if b and k > 1:
                    at = max(0, int(value * rate) - _SLACK) // 4  # 4 words a counter step
                    gen = np.random.Generator(np.random.Philox(self.seed).advance(at))
                    self._fill(gen, buf[: count + margin])
                with turn:
                    turn.wait_for(lambda: done in (b - 1, None))
                    if done is None:
                        return  # another share failed
                    # A join: 64 values or more (no chance match of Bernoulli signs) that fit.
                    hay = buf[: min(count, tail.size) + margin].tobytes()
                    at = hay.find(tail.tobytes()) if b and tail.size >= 64 else -1
                    if at % 8:  # -1 % 8 is 7
                        buf[: tail.size], gen, at = tail, prev, 0
                        self._fill(gen, buf[tail.size : count + margin])
                    use(b * rows, buf[at // 8 : at // 8 + count].reshape(-1, mp))
                    done, tail, prev = b, buf[at // 8 + count : count + margin].copy(), gen
                    if k > 1:  # the next guesses' rate: gen's words drawn, a half-used one too
                        end = gen.bit_generator.state
                        rate = (4 * int(end["state"]["counter"][0]) - 4 + end["buffer_pos"]) / (
                            value + count + tail.size)
                    turn.notify_all()

        _fan_out(draw, -(-self.m // rows), stop)

    @cached_property
    def entries(self) -> np.ndarray:
        _checked_count(self.m * self.m_prime, "M x M'", hi=_MAX_PHI_ENTRIES)
        return self._fill(rng_from_seed(self.seed), np.empty(self.shape))


def draw_jl_matrix(m: int, m_prime: int, kind: str = "gaussian", seed: int = 0) -> JlMatrix:
    """Describe an M x M' compression matrix of the given kind; nothing is drawn yet."""
    return JlMatrix(m, m_prime, kind, seed)


def compress(data: DataMatrix, phi: JlMatrix) -> DataMatrix:
    """[Y] = [V] [Phi]; each row of [V] is compressed by the same [Phi].

    Measured data is one product with the cached dense [Phi], real and
    imaginary parts as two real products, so complex data with a zero
    imaginary part gives real data's [Y] exactly.  Data from build_data_matrix
    is never built: [Y] = [Psi] diag(A) ([E] [Phi]), where each row block of [Phi],
    drawn over _fan_out's shares, meets its steering columns [E] = e^{i w t} in one
    real GEMM as [Re E; Im E], one block at a time in block order (JlMatrix._in_order).
    """
    if _checked_type(data, DataMatrix, "data").kind != "raw":
        raise InvalidArgument("only raw data matrices can be compressed")
    n, m = data.shape
    if m != _checked_type(phi, JlMatrix, "phi").m:
        raise DimensionMismatch(f"data has {m} columns but Phi has {phi.m} rows")
    if not isinstance(data, _ModalData):
        v, dense = data.entries, phi.entries
        y = v @ dense if v.dtype == float else v.real @ dense + 1j * (v.imag @ dense)
        return DataMatrix(y, "compressed", schedule=data.schedule)
    acc, product = np.zeros((2, 2 * n, phi.m_prime))  # product: scratch for one block
    stack = np.empty(2 * n * phi._block_rows)

    def add(start, block):
        e = data._steering(start, block.shape[0])
        lhs = np.concatenate((e.real, e.imag), out=stack[: 2 * e.size].reshape(2 * n, -1))
        np.add(acc, np.matmul(lhs, block, out=product), out=acc)

    phi._in_order(add)
    y = (data.basis.mode_shapes * data.basis.amplitudes) @ (acc[:n] + 1j * acc[n:])
    return DataMatrix(y, "compressed", schedule=data.schedule)
