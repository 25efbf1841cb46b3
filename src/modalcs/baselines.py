"""Reference methods the subspace estimator is benchmarked against.

Two baselines: frequency-domain decomposition (Welch cross-spectra plus
peak picking) for operational modal analysis, and a basis-pursuit style
sparse reconstruction that recovers a frequency-sparse signal from its
compressed samples before any modal processing.  The reconstruction takes
the DFT of the compression matrix once; each iteration is then two products
with precomputed matrices and runs no FFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientPeaks,
    InvalidArgument,
    ShapeError,
)
from .mdof import canonical_sign

# A local maximum of the top eigenvalue curve counts as a spectral peak only
# above this share of the curve's maximum: a constant or silent record still
# has window-leakage ripples, some 1e-33 of the DC value, that are no modes.
_PEAK_FLOOR = 1e-10


@dataclass(frozen=True)
class CsdCube:
    """Cross-spectral density matrices, one per frequency bin.

    ``matrices`` has shape (F, N, N), one matrix per angular frequency
    ``frequencies[i]`` (rad/s, ascending).  Construction checks only shapes
    and order; welch_csd's matrices are Hermitian positive semidefinite.
    """

    frequencies: np.ndarray
    matrices: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        mats = np.asarray(self.matrices, dtype=complex)
        if freqs.ndim != 1 or mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ShapeError("expected (F,) frequencies and (F, N, N) matrices")
        if mats.shape[0] != freqs.size:
            raise DimensionMismatch("one matrix per frequency bin required")
        if np.any(np.diff(freqs) <= 0.0):
            raise InvalidArgument("frequencies must be strictly increasing")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "matrices", mats)


def welch_csd(samples, t_s: float, nperseg: int | None = None) -> CsdCube:
    """Welch estimate of the full cross-spectral matrix from (N, M) samples.

    Hann window, half-overlap, no detrending; frequencies are returned in
    rad/s.  The default segment length is the smallest power of two at or
    above M/8, which keeps enough averages for the matrices to be well
    conditioned without washing out closely spaced peaks.
    """
    u = np.asarray(samples, dtype=float)
    if u.ndim != 2:
        raise ShapeError("samples must be (n_channels, n_samples)")
    if t_s <= 0.0:
        raise InvalidArgument("t_s must be > 0")
    m = u.shape[1]
    if nperseg is None:
        nperseg = min(m, 1 << max(3, int(np.ceil(np.log2(max(m // 8, 1))))))
    if not 1 <= nperseg <= m:
        raise InvalidArgument("nperseg must lie in [1, n_samples]")
    import scipy.signal  # about 1 s; most runs never need it

    freqs_hz, pxy = scipy.signal.csd(
        u[:, None, :],
        u[None, :, :],
        fs=1.0 / t_s,
        window="hann",
        nperseg=nperseg,
        noverlap=nperseg // 2,
        detrend=False,
    )
    return CsdCube(2.0 * np.pi * freqs_hz, np.moveaxis(pxy, -1, 0))


def fdd_peaks(cube: CsdCube, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Frequency-domain decomposition: peaks of the top spectral eigenvalue.

    Returns (peak_frequencies, shapes) with shapes of size (N, n_modes),
    ordered by descending peak height.  Peaks are strict interior local
    maxima of the largest eigenvalue curve that rise above 1e-10 of its
    maximum; the mode shape at a peak is the corresponding eigenvector,
    phase-aligned so its largest entry is real positive.  Raises
    InsufficientPeaks when fewer peaks than requested pass.
    """
    if n_modes < 1:
        raise InvalidArgument("n_modes must be >= 1")
    evals, evecs = np.linalg.eigh(cube.matrices)
    top = evals[:, -1]
    interior = np.arange(1, top.size - 1)
    mask = (top[interior] > top[interior - 1]) & (top[interior] > top[interior + 1])
    mask &= top[interior] > _PEAK_FLOOR * top.max(initial=0.0)
    peak_idx = interior[mask]
    if peak_idx.size < n_modes:
        raise InsufficientPeaks(
            f"found {peak_idx.size} spectral peaks, need {n_modes}"
        )
    order = peak_idx[np.argsort(-top[peak_idx], kind="stable")][:n_modes]
    # C order: numpy's dot and multiply loops round contiguous and strided
    # columns differently, so the layout reaches the last digits of the
    # errors that callers compute from these shapes.
    shapes = canonical_sign(np.ascontiguousarray(evecs[order, :, -1].T))
    return cube.frequencies[order], shapes


@dataclass(frozen=True)
class SparseRecovery:
    """Result of a compressed-domain sparse reconstruction.

    ``coefficients`` live in the unitary DFT basis; ``signal`` is their time
    domain synthesis; both keep the leading shape of the measurements.
    ``l1_history`` records the coefficient l1 norm, summed over rows, after
    every inner iteration, grouped by threshold stage; within each stage the
    norm never increases (up to roundoff).
    """

    coefficients: np.ndarray
    signal: np.ndarray
    l1_history: tuple[tuple[float, ...], ...]


def sparse_reconstruct(measurements, phi, n_stages: int = 30,
                       iters_per_stage: int = 10,
                       threshold_ratio: float = 0.7) -> SparseRecovery:
    """Recover frequency-sparse length-M signals u from y = Phi^T u.

    ``measurements`` is one (M',) vector or a (K, M') batch of finite
    values; rows are independent problems that share Phi and are solved
    together.  Works in the unitary DFT basis u = W alpha and drives each
    row of alpha toward the minimum-l1 feasible point by alternating complex
    soft thresholding with reprojection onto the affine constraint set
    {alpha : A alpha = y}, A = Phi^T W.  A row's threshold starts at
    0.9 max|A^+ y| and decays geometrically by ``threshold_ratio`` per
    stage, a standard fixed-point continuation schedule.  Every iterate
    after a projection is feasible up to roundoff.  Real measurements
    (imaginary part exactly zero) keep every spectrum conjugate-symmetric
    and are solved on the rfft half spectrum with real products;
    ``coefficients`` are still the full length-M spectrum.
    """
    y = np.asarray(measurements, dtype=complex)
    entries = np.asarray(getattr(phi, "entries", phi), dtype=float)
    if y.ndim not in (1, 2) or entries.ndim != 2:
        raise ShapeError("measurements must be (M',) or (K, M'), phi must be (M, M')")
    m, m_prime = entries.shape
    if y.shape[-1] != m_prime:
        raise DimensionMismatch(
            f"measurement length {y.shape[-1]} does not match phi columns {m_prime}"
        )
    if not np.isfinite(y).all():
        raise InvalidArgument("measurements must be finite")
    if not (n_stages >= 1 and iters_per_stage >= 1 and 0.0 < threshold_ratio < 1.0):
        raise InvalidArgument("need n_stages, iters_per_stage >= 1 and ratio in (0, 1)")

    rows = y.reshape(-1, m_prime)
    out_shape = y.shape[:-1] + (m,)
    real = not rows.imag.any()
    if real:
        rows = rows.real

    gram = entries.T @ entries
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise InvalidArgument("compression matrix is rank deficient") from exc
    if not rows.any():
        zeros = np.zeros(out_shape, dtype=complex)
        return SparseRecovery(zeros, zeros.copy(), ())

    # Both maps are fixed linear operators on the spectrum, built from one
    # DFT of Phi, F = DFT(Phi^T) (M' x bins), so no iteration runs an FFT.
    # A A* = Phi^T Phi = G since the DFT factor is unitary, so the minimum-norm
    # solution of A alpha = r is A*(G^-1 r) = r G^-1 F; A alpha = alpha conj(F)^T.
    # The real path views alpha and F as interleaved (Re, Im) pairs; there
    # A alpha = irfft(alpha) Phi counts each paired bin 1 .. paired - 1 twice,
    # and irfft drops the imaginary parts at DC and Nyquist, which F has zero.
    paired = (m + 1) // 2
    transform = np.fft.rfft if real else np.fft.fft
    # C order keeps each spectrum row contiguous, as the views need.
    spectrum = transform(np.ascontiguousarray(entries.T), axis=1, norm="ortho")
    pinv_op = np.linalg.solve(gram, spectrum.view(float) if real else spectrum)
    if real:
        spectrum[:, 1:paired] *= 2.0
        a_op = spectrum.view(float).T
    else:
        a_op = np.conjugate(spectrum, out=spectrum).T
    doubled = slice(1, paired) if real else slice(0)

    def apply_pinv(r):
        return (r @ pinv_op).view(complex)

    alpha = apply_pinv(rows)  # min-norm feasible start
    mags = np.abs(alpha)
    # All-zero rows get theta = 0 and stay exactly zero: nothing exceeds it.
    theta = 0.9 * mags.max(axis=1, keepdims=True)
    history = []
    for _ in range(n_stages):
        stage = []
        for _ in range(iters_per_stage):
            with np.errstate(divide="ignore", invalid="ignore"):
                shrink = np.where(mags > theta, 1.0 - theta / mags, 0.0)
            alpha *= shrink
            alpha += apply_pinv(rows - alpha.view(a_op.dtype) @ a_op)
            mags = np.abs(alpha)
            stage.append(float(mags.sum() + mags[:, doubled].sum()))
        history.append(tuple(stage))
        theta *= threshold_ratio

    if real:
        signal = np.fft.irfft(alpha, n=m, axis=1, norm="ortho").astype(complex)
        alpha = np.concatenate([alpha, alpha[:, paired - 1:0:-1].conj()], axis=1)
    else:
        signal = np.fft.ifft(alpha, axis=1, norm="ortho")
    return SparseRecovery(alpha.reshape(out_shape), signal.reshape(out_shape), tuple(history))
