"""Sampling schedules, steering/data matrices, and random compression.

The analytic response sampled at times t_1 < ... < t_M forms the N x M data
matrix [V] whose factorization [V] = [Psi] (sqrt(M) diag(A)) [S] drives the
whole estimation pipeline.  [S] is the steering matrix of unit-norm rows
e^{i w_n t_m} / sqrt(M); its Gram deviation from the identity is what the
sampling theorems control.  Compression multiplies [V] on the right by a
random M x M' matrix with the distributional Johnson-Lindenstrauss property.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DimensionMismatch, InvalidArgument, ShapeError, _checked_array,
                     _checked_count, _checked_real, _checked_seed, _checked_type)
from .mdof import ModalBasis

_UNIFORM_KINDS = ("uniform", "random")
_JL_KINDS = ("gaussian", "bernoulli")
# Working-set size of one streamed block: Phi rows in compress, V columns in
# build_data_matrix, exp3's stacked trials.  About one L2 cache; 512 Phi rows at M' = 256.
_BLOCK_BYTES = 1 << 20


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator used for every stochastic operation."""
    return np.random.Generator(np.random.Philox(_checked_seed(seed)))


def spawn_seeds(seed: int, n: int) -> np.ndarray:
    """Derive n independent 64-bit child seeds from a master seed."""
    n = _checked_count(n, "n")
    return np.random.SeedSequence(_checked_seed(seed)).generate_state(n, dtype=np.uint64)


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
        if self.scheme not in _UNIFORM_KINDS:
            raise InvalidArgument(f"unknown scheme {self.scheme!r}")
        if np.any(np.diff(times) <= 0.0):
            raise InvalidArgument("times must be strictly increasing")
        t_max = _checked_real(self.t_max, "t_max", lo=-np.inf)  # a negative one fails below
        if times[0] < 0.0 or times[-1] > t_max + 1e-12 * max(1.0, t_max):
            raise InvalidArgument("times must lie within [0, t_max]")
        if self.scheme == "uniform":
            t_s = _checked_real(self.t_s, "t_s")
            if times.size > 1 and np.any(times != np.arange(times.size) * t_s):
                raise InvalidArgument("uniform times must equal (m-1)*t_s exactly")
        object.__setattr__(self, "times", times)

    @property
    def n_samples(self) -> int:
        return self.times.size


def uniform_schedule(t_s: float, m: int) -> SampleSchedule:
    """M samples at t_m = (m-1) t_s for m = 1..M."""
    t_s = _checked_real(t_s, "t_s")
    m = _checked_count(m)
    t_max = _checked_real((m - 1) * t_s, "(m - 1) * t_s", lo=-np.inf)  # floats overflow to inf
    return SampleSchedule(np.arange(m) * t_s, "uniform", t_max=t_max, t_s=t_s)


def random_schedule(t_max: float, m: int, seed: int) -> SampleSchedule:
    """M i.i.d. uniform draws over [0, t_max], sorted ascending: _random_times for one seed."""
    return SampleSchedule(_random_times(t_max, m, [seed])[0], "random", t_max=float(t_max))


def _philox_keys(seeds: np.ndarray) -> np.ndarray:
    """Row i = SeedSequence(seeds[i]).generate_state(2, np.uint64) for uint64 seeds: numpy's
    stream-stable hash in uint32 arithmetic.  A seed below 2**32 hashes as [seed, 0] would.
    """
    const = 0x43B0D7E5  # the hash's running multiplier

    def hashmix(value, mult=0x931E8875):
        nonlocal const
        value = (value ^ np.uint32(const)) * np.uint32(const := const * mult & 0xFFFFFFFF)
        return value ^ (value >> np.uint32(16))

    low, high = seeds.astype("<u8").view("<u4").reshape(-1, 2).T
    pool = [hashmix(word) for word in (low, high, 0 * low, 0 * low)]
    for src, dst in itertools.permutations(range(4), 2):
        mixed = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * hashmix(pool[src])
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    const = 0x8B51F9DD
    state = np.stack([hashmix(word, 0x58F38DED) for word in pool], axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _random_times(t_max: float, m: int, seeds) -> np.ndarray:
    """(len(seeds), M) times; row i is M i.i.d. uniform draws over [0, t_max]
    from rng_from_seed(seeds[i]), sorted.  A row with a repeated time (possible
    in floats) is redrawn from its own stream, so it stays a function of its
    seed; 64 colliding draws mean t_max is too small to hold M distinct floats.
    Philox is counter-based, so all rows share the first row's generator: a
    row's key (from _philox_keys) and a zeroed counter restart its stream.
    """
    t_max = _checked_real(t_max, "t_max")
    m = _checked_count(m)
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

    # t_max * U[0, 1) is uniform(0, t_max)'s own arithmetic, done for all rows at once.
    times = np.sort(t_max * np.array([draw(i, m) for i in range(len(seeds))]))
    for draws in range(2, 66):  # a row colliding now has drawn (draws - 1) * M values
        collided = np.flatnonzero((np.diff(times) <= 0.0).any(axis=-1))
        if not collided.size:
            return times
        for i in collided:
            times[i] = np.sort(t_max * draw(i, draws * m)[-m:])
    raise InvalidArgument(f"t_max = {t_max} cannot hold M = {m} distinct sample times")


def build_steering(frequencies, schedule: SampleSchedule) -> np.ndarray:
    """N x M steering matrix e^{i w_n t_m} / sqrt(M) for the given frequencies and schedule.

    Rows have unit Euclidean norm by construction.  Frequencies must be
    finite and strictly positive; ordering is the caller's business.
    """
    freqs = _checked_array(frequencies, "frequencies", float)
    if freqs.ndim != 1 or not np.all(freqs > 0.0):
        raise InvalidArgument("frequencies must be a 1-d array of finite positive values")
    return np.exp(1j * np.outer(freqs, schedule.times)) / np.sqrt(schedule.n_samples)


@dataclass(frozen=True)
class DataMatrix:
    """Sampled (or compressed) analytic response with its provenance.

    ``kind`` is "raw" for N x M sampled responses or "compressed" for
    N x M' products with a compression matrix.  Entries must be finite;
    real ones stay float64 and complex ones become complex128.  The schedule
    rides along so downstream frequency estimation can refuse non-uniform
    inputs.
    """

    entries: np.ndarray
    kind: str
    schedule: SampleSchedule | None = None

    def __post_init__(self):
        entries = _checked_array(self.entries, "entries")
        if entries.ndim != 2:
            raise ShapeError("data matrix must be 2-d")
        if self.kind not in ("raw", "compressed"):
            raise InvalidArgument(f"unknown data-matrix kind {self.kind!r}")
        if self.kind == "raw" and self.schedule is not None:
            if entries.shape[1] != self.schedule.n_samples:
                raise DimensionMismatch("column count disagrees with the schedule")
        object.__setattr__(self, "entries", entries)

    @property
    def shape(self):
        return self.entries.shape


def _response(basis: ModalBasis, times: np.ndarray) -> np.ndarray:
    """v(t) = sum_n psi_n A_n e^{i w_n t} for (..., M) times, as (..., N, M).

    Filled one column block at a time; the phase array is never held whole.
    """
    coef, m = basis.mode_shapes * basis.amplitudes, times.shape[-1]
    v = np.empty(times.shape[:-1] + (coef.shape[0], m), dtype=complex)
    cols = max(1, _BLOCK_BYTES // (16 * coef.shape[1] * (times.size // m)))
    for start in range(0, m, cols):
        block = times[..., None, start : start + cols]
        v[..., start : start + cols] = coef @ np.exp(1j * (basis.frequencies[:, None] * block))
    return v


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
        return _checked_array(_response(self.basis, self.schedule.times), "entries")

    def _steering(self, start: int, rows: int) -> np.ndarray:
        """Columns start..start+rows of [E]; uniform ones rotate a cached first block."""
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
    one ~1 MB column block of e^{i w t} at a time, as _response does.
    compress never builds [V].
    """
    if _checked_type(basis, ModalBasis, "basis").amplitudes is None:
        raise InvalidArgument("basis has no amplitudes; use with_amplitudes() first")
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
        if self.kind not in _JL_KINDS:
            raise InvalidArgument(f"unknown compression kind {self.kind!r}")
        _checked_seed(self.seed)

    @property
    def shape(self):
        return (self.m, self.m_prime)

    def _fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        # Draws the next out.shape[0] rows of the stream into out, with the
        # same arithmetic as rng.normal(0, 1/sqrt(M')) and (2 b - 1)/sqrt(M').
        if self.kind == "gaussian":
            rng.standard_normal(out=out)
            out *= 1.0 / np.sqrt(self.m_prime)
        else:
            np.multiply(rng.integers(0, 2, size=out.shape), 2.0, out=out)
            out -= 1.0
            out /= np.sqrt(self.m_prime)
        return out

    def row_blocks(self):
        """Yield (start, block) for consecutive row blocks of about 1 MB.

        Each call draws the rows from the seed; ``block`` is one buffer
        reused from block to block: copy it to keep it.
        """
        rows = max(1, _BLOCK_BYTES // (8 * self.m_prime))
        rng = rng_from_seed(self.seed)
        buf = np.empty((min(rows, self.m), self.m_prime))
        for start in range(0, self.m, rows):
            yield start, self._fill(rng, buf[: min(rows, self.m - start)])

    @cached_property
    def entries(self) -> np.ndarray:
        return self._fill(rng_from_seed(self.seed), np.empty(self.shape))


def draw_jl_matrix(m: int, m_prime: int, kind: str = "gaussian", seed: int = 0) -> JlMatrix:
    """Describe an M x M' compression matrix of the given kind; nothing is drawn yet."""
    return JlMatrix(m, m_prime, kind, seed)


def compress(data: DataMatrix, phi: JlMatrix) -> DataMatrix:
    """[Y] = [V] [Phi]; each row of [V] is compressed by the same [Phi].

    Measured data is one product with the cached dense [Phi], real and
    imaginary parts as two real products, so complex data with a zero
    imaginary part gives real data's [Y] exactly.  Data from
    build_data_matrix is never built: [Phi] streams one row block at a time
    (JlMatrix.row_blocks), each block's steering columns [E] = e^{i w t} go
    through one real GEMM as [Re E; Im E], and [Y] = [Psi] diag(A) ([E] [Phi]).
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
    acc = np.zeros((2 * n, phi.m_prime))
    for start, block in phi.row_blocks():
        e = data._steering(start, block.shape[0])
        acc += np.concatenate((e.real, e.imag)) @ block
    y = (data.basis.mode_shapes * data.basis.amplitudes) @ (acc[:n] + 1j * acc[n:])
    return DataMatrix(y, "compressed", schedule=data.schedule)
