"""Mode-shape and frequency estimation from the data matrix SVD.

The rank-N truncated SVD of the N x M data matrix (or its compressed N x M'
counterpart) estimates the mode shapes as left singular vectors.  When rows
of the right factor are sampled on a uniform grid, each approximates a
complex exponential at one modal frequency, so the peak of its zero-padded
FFT (frequency_spectra) recovers the frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.fft  # eager: np.fft's lazy loader recurses if a signal handler re-enters it

from .errors import (InvalidArgument, NonUniformSchedule, ShapeError, _checked_array,
                     _checked_count, _checked_type)
from .mdof import ModalBasis, _pivot_phases, _unit_phase, canonical_sign
from .sampling import DataMatrix, SampleSchedule

_MAX_FFT_BINS = 1 << 24  # frequency_spectra's padded length K at most: 256 MB per mode
_GAP = 1e-7  # _gram_modes takes the SVD below this eigen-gap of V V* over its largest eigenvalue


@dataclass(frozen=True)
class ModeEstimate:
    """Truncated-SVD factors of a data matrix.

    ``mode_shapes_hat`` holds the N left singular vectors (columns), phase-
    normalized so each column's largest-magnitude entry is real positive.
    ``right_factors_hat`` holds the N leading right singular vectors as rows.
    ``reliable`` flags singular values above the numerical-rank floor;
    estimates for trailing zero singular values are returned but flagged
    rather than raised on.
    """

    mode_shapes_hat: np.ndarray
    singular_values: np.ndarray
    right_factors_hat: np.ndarray
    schedule: SampleSchedule | None = None
    kind: str = "raw"

    def __post_init__(self):
        u = _checked_array(self.mode_shapes_hat, "mode_shapes_hat", complex)
        s = _checked_array(self.singular_values, "singular_values", float)
        vh = _checked_array(self.right_factors_hat, "right_factors_hat", complex)
        n = s.size
        if u.shape != (n, n) or s.shape != (n,) or vh.shape[0] != n:
            raise ShapeError("inconsistent factor shapes")
        if np.any(s < 0.0) or np.any(np.diff(s) > 0.0):
            raise InvalidArgument("singular values must be non-negative and descending")
        if self.schedule is not None:
            _checked_type(self.schedule, SampleSchedule, "schedule")
        object.__setattr__(self, "mode_shapes_hat", u)
        object.__setattr__(self, "singular_values", s)
        object.__setattr__(self, "right_factors_hat", vh)

    @property
    def n_modes(self) -> int:
        return self.mode_shapes_hat.shape[0]

    @property
    def reliable(self) -> np.ndarray:
        s = self.singular_values
        floor = max(self.right_factors_hat.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
        return s > floor


def _svd_modes(entries: np.ndarray):
    """Thin SVD (U, s, Vh) of each matrix of a (..., N, M) stack, each left
    vector rotated to a real positive largest entry and its Vh row back.
    """
    u, s, vh = np.linalg.svd(entries, full_matrices=False)
    phases = _pivot_phases(u)
    return u * np.conj(phases)[..., None, :], s, vh * phases[..., :, None]


def _gram_modes(v: np.ndarray) -> np.ndarray:
    """_svd_modes(v)[0] of a (..., N, M) stack by eigh(V V*), which squares V's conditioning:
    a matrix whose smallest eigen-gap is under _GAP times its largest eigenvalue takes the SVD."""
    lam, u = np.linalg.eigh(v @ np.conj(np.swapaxes(v, -1, -2)))
    u = canonical_sign(u[..., ::-1])
    bad = np.diff(lam).min(-1) < _GAP * lam[..., -1]
    u[bad] = _svd_modes(v[bad])[0]
    return u


def estimate_modes(data: DataMatrix) -> ModeEstimate:
    """Rank-N truncated SVD of the data matrix.

    Requires N <= M (more samples than degrees of freedom).  The truncation
    rank is always N; a data matrix of lower numerical rank yields trailing
    zero singular values whose mode estimates the ``reliable`` mask flags.
    """
    entries = _checked_type(data, DataMatrix, "data").entries
    n, m = entries.shape
    if not 0 < n <= m:
        raise ShapeError(f"need at least one mode and as many samples as modes, got N={n}, M={m}")
    u, s, vh = _svd_modes(entries)
    return ModeEstimate(u, s, vh, schedule=data.schedule, kind=data.kind)


def _phase_aligned(estimate, truth) -> np.ndarray:
    """c * estimate for the unit c that minimizes || truth - c * estimate ||_2.

    Row by row on (..., n) stacks; the minimum is at the phase of <est, truth>
    (c = 1 if that is 0).  A stacked (..., 1, n) @ (..., n, 1) product runs the
    BLAS dot that np.vdot runs on each row, with the same strides (np.conj keeps
    a stack's layout); einsum or sum(axis) round otherwise.
    """
    est = np.asarray(estimate, dtype=complex)
    truth = np.asarray(truth, dtype=complex)
    inner = (np.conj(est)[..., None, :] @ truth[..., :, None])[..., 0, 0]
    return _unit_phase(inner)[..., None] * est


def _amplitude_rank(basis: ModalBasis) -> np.ndarray:
    """Mode indices by descending amplitude magnitude, ties in basis order: estimate k's truth."""
    return np.argsort(-np.abs(basis.amplitudes), kind="stable")


def _mode_errors(shapes_hat: np.ndarray, truth: ModalBasis) -> np.ndarray:
    """align_and_error for a (..., N, N) stack of estimated mode shapes."""
    rows = truth.mode_shapes.T[_amplitude_rank(truth)].astype(complex)
    diff = rows - _phase_aligned(np.swapaxes(shapes_hat, -1, -2), rows)
    # Each row's np.linalg.norm, by its BLAS dots; norm(axis=-1) or einsum round otherwise.
    re, im = diff.real, diff.imag
    squares = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return np.sqrt(squares[..., 0, 0])


def align_and_error(estimate: ModeEstimate, truth: ModalBasis) -> np.ndarray:
    """Per-mode aligned errors between estimated and true mode shapes.

    Estimated mode k (descending singular value) is paired with the true
    mode of k-th largest amplitude magnitude; ties keep the basis order.
    The returned vector is indexed by that rank, which matches the modal
    numbering used by the experiment tables (largest amplitude first).
    Phase alignment is optimal per mode, so values land in [0, sqrt(2)].
    """
    if _checked_type(truth, ModalBasis, "truth").amplitudes is None:
        raise InvalidArgument("truth basis needs amplitudes to rank modes")
    if _checked_type(estimate, ModeEstimate, "estimate").n_modes != truth.n_dof:
        raise ShapeError("estimate and truth disagree on the number of modes")
    return _mode_errors(estimate.mode_shapes_hat, truth)


def frequency_spectra(estimate: ModeEstimate, zero_pad_factor: int = 8):
    """Zero-padded FFT magnitude of each right-factor row.

    Returns (omega, magnitudes) with omega the length-K grid 2 pi k / (K t_s)
    for K = zero_pad_factor * M (at most max(M, _MAX_FFT_BINS), else DomainError),
    t_s the estimate's schedule spacing, and magnitudes of shape (N, K).
    Only valid for estimates from raw, uniformly sampled data.
    """
    if _checked_type(estimate, ModeEstimate, "estimate").kind != "raw":
        raise NonUniformSchedule(
            "frequency estimation needs the raw data matrix; compressed right "
            "factors live in the projected domain"
        )
    sched = estimate.schedule
    if sched is None or sched.scheme != "uniform":
        raise NonUniformSchedule("frequency estimation requires a uniform schedule")
    m = estimate.right_factors_hat.shape[1]
    k = _checked_count(zero_pad_factor, "zero_pad_factor", hi=max(1, _MAX_FFT_BINS // m)) * m
    omega = 2.0 * np.pi * np.arange(k) / (k * sched.t_s)
    mags = np.abs(np.fft.fft(estimate.right_factors_hat, n=k, axis=1))
    return omega, mags

