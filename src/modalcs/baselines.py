"""Reference methods the subspace estimator is benchmarked against.

Two baselines: frequency-domain decomposition (Welch cross-spectra plus
peak picking) for operational modal analysis, and a basis-pursuit style
sparse reconstruction that recovers a frequency-sparse signal from its
compressed samples before any modal processing.  Both run on numpy alone.
The reconstruction takes the DFT of the compression matrix once; each
iteration is then two products with precomputed matrices, runs no FFT and
reuses buffers allocated before the first iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientPeaks,
    InvalidArgument,
    ShapeError,
    _checked_array,
    _checked_count,
    _checked_real,
    _checked_type,
)
from .mdof import canonical_sign

# A local maximum of the top eigenvalue curve counts as a spectral peak only
# above this share of the curve's maximum: a constant or silent record still
# has window-leakage ripples, some 1e-33 of the DC value, that are no modes.
_PEAK_FLOOR = 1e-10
# sparse_reconstruct's continuation schedule: threshold stages, inner iterations
# per stage, and the factor the threshold decays by from one stage to the next.
_N_STAGES = 30
_ITERS_PER_STAGE = 10
_THRESHOLD_RATIO = 0.7


@dataclass(frozen=True)
class CsdCube:
    """Cross-spectral density as scaled segment spectra, one stack per frequency bin.

    ``spectra`` has shape (F, S, N): S segment spectra of N channels at each
    angular frequency ``frequencies[i]`` (rad/s, ascending), scaled so that
    ``conj(spectra[i]).T @ spectra[i]`` is that bin's N x N cross-spectral
    matrix.  Construction checks only shapes and order.
    """

    frequencies: np.ndarray
    spectra: np.ndarray

    def __post_init__(self):
        freqs = _checked_array(self.frequencies, "frequencies", float)
        spectra = _checked_array(self.spectra, "spectra", complex)
        if freqs.ndim != 1 or spectra.ndim != 3:
            raise ShapeError("expected (F,) frequencies and (F, S, N) spectra")
        if spectra.shape[0] != freqs.size:
            raise DimensionMismatch("one spectrum stack per frequency bin required")
        if np.any(np.diff(freqs) <= 0.0):
            raise InvalidArgument("frequencies must be strictly increasing")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "spectra", spectra)


def welch_csd(samples, t_s: float) -> CsdCube:
    """Welch cross-spectral density of (N, M) samples, kept as its segment spectra.

    Periodic Hann window, half-overlap segments from sample 0, no detrending,
    one-sided density scaling, rad/s: the product of each bin's spectra is
    scipy.signal.csd of every channel pair, from one rfft per sensor segment.
    The segment length L is the smallest power of two at or above M/8, at
    least 8 and at most M: enough averages (S <= 16 segments) for well
    conditioned matrices without washing out closely spaced peaks.
    """
    u = _checked_array(samples, "samples", float)
    if u.ndim != 2 or not u.shape[1]:
        raise ShapeError(f"samples must be (n_channels, n_samples > 0), got shape {u.shape}")
    t_s = _checked_real(t_s, "t_s")
    m = u.shape[1]
    nperseg = min(m, 1 << max(3, int(np.ceil(np.log2(max(m // 8, 1))))))
    hop = nperseg - nperseg // 2
    n_segments = (m - nperseg // 2) // hop
    # Periodic Hann, written as scipy's get_window writes it (ones at length 1).
    window = np.ones(1) if nperseg == 1 else (
        0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)[:-1]))
    # (L, segments, N): the rfft along axis 0 is then C-ordered and BLAS-ready.
    segments = u.T[np.arange(nperseg)[:, None] + hop * np.arange(n_segments)]
    segments *= window[:, None, None]
    spectra = np.fft.rfft(segments, axis=0)
    # Each bin takes the square root of its density weight; the product takes it whole.
    spectra *= np.sqrt(t_s / (window @ window) / n_segments)
    spectra[1:(nperseg + 1) // 2] *= np.sqrt(2.0)  # paired bins; DC and an even L's Nyquist are not
    return CsdCube(2.0 * np.pi * np.fft.rfftfreq(nperseg, t_s), spectra)


def fdd_peaks(cube: CsdCube, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Frequency-domain decomposition: peaks of the top spectral eigenvalue.

    Returns (peak_frequencies, shapes) with shapes of size (N, n_modes),
    ordered by descending peak height.  Peaks are strict interior local
    maxima of the largest eigenvalue curve that rise above 1e-10 of its
    maximum; the mode shape at a peak is the corresponding eigenvector,
    phase-aligned so its largest entry is real positive.  Each bin's
    cross-spectral matrix X^H X, X its S x N spectra, is never formed: the
    S x S Gram X X^H has the same nonzero eigenvalues, and its eigenvector
    w maps to the shape X^H w.  Raises InsufficientPeaks when fewer peaks
    than requested pass.
    """
    n_modes = _checked_count(n_modes, "n_modes")
    spectra = _checked_type(cube, CsdCube, "cube").spectra
    if (excess := np.frexp(np.abs(spectra).max(initial=0.0))[1] - 500) > 0:  # X X^H overflows
        spectra = spectra * 2.0**-excess  # exact; shapes and relative peak heights stay the same
    gram = spectra @ np.conj(spectra).transpose(0, 2, 1)
    top = np.linalg.eigvalsh(gram)[:, -1]
    interior = np.arange(1, top.size - 1)
    mask = (top[interior] > top[interior - 1]) & (top[interior] > top[interior + 1])
    mask &= top[interior] > _PEAK_FLOOR * top.max(initial=0.0)
    peak_idx = interior[mask]
    if peak_idx.size < n_modes:
        raise InsufficientPeaks(f"found {peak_idx.size} spectral peaks, need {n_modes}")
    order = peak_idx[np.argsort(-top[peak_idx], kind="stable")][:n_modes]
    w = np.linalg.eigh(gram[order])[1][:, :, -1:]  # vectors at the peaks only
    shapes = (np.conj(spectra[order]).transpose(0, 2, 1) @ w)[:, :, 0].T
    shapes /= np.linalg.norm(shapes, axis=0)
    # C order: numpy's dot and multiply loops round contiguous and strided
    # columns differently, so the layout reaches the last digits of the
    # errors that callers compute from these shapes.
    return cube.frequencies[order], canonical_sign(np.ascontiguousarray(shapes))


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


def sparse_reconstruct(measurements, phi) -> SparseRecovery:
    """Recover frequency-sparse length-M signals u from y = Phi^T u.

    ``measurements`` is one (M',) vector or a (K, M') batch of finite
    values; rows are independent problems that share Phi and are solved
    together.  Works in the unitary DFT basis u = W alpha and drives each
    row of alpha toward the minimum-l1 feasible point by alternating complex
    soft thresholding with reprojection onto the affine constraint set
    {alpha : A alpha = y}, A = Phi^T W.  A row's threshold starts at
    0.9 max|A^+ y| and decays geometrically by 0.7 per stage of ten
    iterations over 30 stages, a standard fixed-point continuation schedule.  Every
    iterate after a projection is feasible up to roundoff.  Real-dtype
    measurements keep every spectrum conjugate-symmetric and are solved on
    the rfft half spectrum with real products; their ``signal`` is real and
    ``coefficients`` are still the full length-M spectrum.  Complex-dtype
    measurements take the full-spectrum path.
    """
    y = _checked_array(measurements, "measurements")
    real = y.dtype == float
    entries = _checked_array(getattr(phi, "entries", phi), "phi", float)
    if y.ndim not in (1, 2) or entries.ndim != 2:
        raise ShapeError("measurements must be (M',) or (K, M'), phi must be (M, M')")
    m, m_prime = entries.shape
    if y.shape[-1] != m_prime:
        raise DimensionMismatch(
            f"measurement length {y.shape[-1]} does not match phi columns {m_prime}"
        )

    rows = y.reshape(-1, m_prime)
    out_shape = y.shape[:-1] + (m,)

    gram = entries.T @ entries
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise InvalidArgument("compression matrix is rank deficient") from exc
    if not rows.any():
        zeros = np.zeros(out_shape, dtype=y.dtype)
        return SparseRecovery(zeros.astype(complex), zeros, ())

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
    # inv, not solve: solve copies its M' x M right-hand side; G passed Cholesky.
    pinv_op = np.linalg.inv(gram) @ (spectrum.view(float) if real else spectrum)
    if real:
        spectrum[:, 1:paired] *= 2.0
        a_op = spectrum.view(float).T
    else:
        a_op = np.conjugate(spectrum, out=spectrum).T
    doubled = slice(1, paired) if real else slice(0)

    alpha = (rows @ pinv_op).view(complex)  # min-norm feasible start
    mags = np.abs(alpha)
    # All-zero rows get theta = 0 and stay exactly zero: nothing exceeds it.
    theta = 0.9 * mags.max(axis=1, keepdims=True)
    # Every iteration writes into these buffers and allocates no large array.
    shrink, step = np.empty_like(mags), np.empty_like(alpha)
    resid = np.empty(rows.shape, rows.dtype)
    history = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_N_STAGES):
            stage = []
            for _ in range(_ITERS_PER_STAGE):
                # max(1 - theta/|alpha|, 0): fmax turns a zero row's 0/0 = nan into 0.
                np.divide(theta, mags, out=shrink)
                np.subtract(1.0, shrink, out=shrink)
                np.fmax(shrink, 0.0, out=shrink)
                alpha *= shrink
                np.matmul(alpha.view(a_op.dtype), a_op, out=resid)
                np.subtract(rows, resid, out=resid)
                np.matmul(resid, pinv_op, out=step.view(pinv_op.dtype))
                alpha += step
                np.abs(alpha, out=mags)
                stage.append(float(mags.sum() + mags[:, doubled].sum()))
            history.append(tuple(stage))
            theta *= _THRESHOLD_RATIO

    if real:
        signal = np.fft.irfft(alpha, n=m, axis=1, norm="ortho")
        alpha = np.concatenate([alpha, alpha[:, paired - 1:0:-1].conj()], axis=1)
    else:
        signal = np.fft.ifft(alpha, axis=1, norm="ortho")
    return SparseRecovery(alpha.reshape(out_shape), signal.reshape(out_shape), tuple(history))
