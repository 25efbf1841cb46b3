"""Frequency-domain decomposition and sparse-recovery baselines."""

import functools
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modalcs import (
    CsdCube,
    DimensionMismatch,
    InsufficientPeaks,
    InvalidArgument,
    ShapeError,
    aligned_distance,
    draw_jl_matrix,
    fdd_peaks,
    sparse_reconstruct,
    welch_csd,
)
from modalcs.mdof import canonical_sign
from test_acceptance import synthetic_sensors


def two_tone_array(n_channels=2):
    """Deterministic multichannel signal with two well separated tones."""
    rng = np.random.Generator(np.random.Philox(11))
    q, _ = np.linalg.qr(rng.normal(size=(n_channels, n_channels)))
    psi = canonical_sign(q)[:, :2]
    omega = 2 * np.pi * np.array([1.3, 3.7])
    rho = np.array([1.0, 0.6])
    theta = np.array([0.4, 1.1])
    t_s, m = 0.05, 2048
    t = np.arange(m) * t_s
    u = (psi * rho) @ np.sin(omega[:, None] * t[None, :] + theta[:, None])
    return u, t_s, omega, psi


def csd_matrices(cube):
    """The (F, N, N) cross-spectral matrices conj(X)^T X, X each bin's S x N spectra."""
    return np.conj(cube.spectra).transpose(0, 2, 1) @ cube.spectra


class TestCsdCube:
    def build(self, f=4, s=2, n=3):
        freqs = np.linspace(0.0, 10.0, f)
        rng = np.random.Generator(np.random.Philox(3))
        return freqs, rng.normal(size=(f, s, n)) + 1j * rng.normal(size=(f, s, n))

    def test_accepts_valid_cube(self):
        freqs, spectra = self.build()
        cube = CsdCube(freqs, spectra)
        assert cube.spectra.dtype == complex

    def test_rejects_bad_shapes(self):
        freqs, spectra = self.build()
        with pytest.raises(ShapeError):
            CsdCube(freqs.reshape(2, 2), spectra)
        with pytest.raises(ShapeError):
            CsdCube(freqs, spectra[:, 0])
        with pytest.raises(DimensionMismatch):
            CsdCube(freqs[:-1], spectra)

    def test_rejects_unsorted_frequencies(self):
        freqs, spectra = self.build()
        freqs = freqs[::-1].copy()
        with pytest.raises(InvalidArgument):
            CsdCube(freqs, spectra)


def default_nperseg(m):
    """Welch's segment length: the smallest power of two >= M//8, at least 8, at most M."""
    return min(m, 1 << max(3, math.ceil(math.log2(max(m // 8, 1)))))


class TestWelchCsd:
    # A nan t_s used to return nan frequencies.
    @pytest.mark.parametrize("t_s", [0.0, -0.1, math.nan, math.inf])
    def test_validation(self, t_s):
        with pytest.raises(ShapeError):
            welch_csd(np.zeros(16), 0.1)
        with pytest.raises(InvalidArgument):
            welch_csd(np.zeros((2, 16)), t_s)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        # An all-nan record used to come back as a CsdCube of nan, and an
        # inf row warned "invalid value encountered in multiply".
        with pytest.raises(InvalidArgument, match="finite"):
            welch_csd(np.full((2, 64), bad), 0.1)
        u = np.zeros((2, 64))
        u[1] = bad
        with pytest.raises(InvalidArgument, match="finite"):
            welch_csd(u, 0.1)

    def test_frequency_axis(self):
        u = np.random.Generator(np.random.Philox(7)).normal(size=(2, 512))
        cube = welch_csd(u, 0.05)
        assert cube.frequencies[0] == 0.0
        assert cube.frequencies[-1] == pytest.approx(math.pi / 0.05, rel=1e-12)
        assert np.all(np.diff(cube.frequencies) > 0)

    @pytest.mark.parametrize("m_values", [range(1, 2049), [10**5 - 1, 10**5, 2**17 + 7]])
    def test_at_most_16_segments(self, m_values):
        # The segment length grows with M, so the segment count never passes 16
        # (only M = 68 .. 71 reach it) and the bin count never falls.
        bins = 0
        for m in m_values:
            cube = welch_csd(np.zeros((1, m)), 0.1)
            assert cube.spectra.shape[0] == default_nperseg(m) // 2 + 1 >= bins
            assert 1 <= cube.spectra.shape[1] <= 16
            bins = cube.spectra.shape[0]

    def test_tone_lands_in_correct_bin(self):
        t_s, m, w0 = 0.02, 4096, 2 * math.pi * 4.0
        t = np.arange(m) * t_s
        u = np.cos(w0 * t)[None, :]
        cube = welch_csd(u, t_s)
        top = int(np.argmax(csd_matrices(cube)[:, 0, 0].real))
        bin_width = cube.frequencies[1] - cube.frequencies[0]
        assert abs(cube.frequencies[top] - w0) <= bin_width / 2 + 1e-9

    def test_proportional_channels_give_rank_one_matrices(self):
        t_s, m = 0.02, 2048
        t = np.arange(m) * t_s
        base = np.sin(2 * math.pi * 3.0 * t + 0.3)
        u = np.vstack([base, -0.5 * base])
        mats = csd_matrices(welch_csd(u, t_s))
        idx = int(np.argmax(np.linalg.eigvalsh(mats)[:, -1]))
        evals = np.linalg.eigvalsh(mats[idx])
        assert evals[0] <= 1e-8 * evals[-1]

    @staticmethod
    def still_sensor_cube(samples, constant):
        samples = samples.copy()
        samples[0] = constant  # a sensor that never moves
        return csd_matrices(welch_csd(samples, 0.01))

    # CsdCube checks only shapes and order; these guarantees are welch_csd's.
    still_sensor_inputs = given(
        samples=arrays(float, st.tuples(st.integers(1, 4), st.integers(8, 200)),
                       elements=st.floats(-1e3, 1e3)),
        constant=st.floats(-1e3, 1e3),
    )

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @still_sensor_inputs
    def test_matrices_are_hermitian(self, samples, constant):
        mats = self.still_sensor_cube(samples, constant)
        scale = max(1.0, float(np.abs(mats).max()))
        assert np.abs(mats - mats.conj().transpose(0, 2, 1)).max() <= 1e-9 * scale

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @still_sensor_inputs
    def test_matrices_are_psd(self, samples, constant):
        evals = np.linalg.eigvalsh(self.still_sensor_cube(samples, constant))
        assert evals.min() >= -1e-9 * max(1.0, float(evals.max()))

    @st.composite
    def csd_inputs(draw):
        n, m = draw(st.integers(1, 5)), draw(st.integers(1, 300))
        u = draw(arrays(float, (n, m), elements=st.floats(-1e3, 1e3)))
        return u, draw(st.sampled_from([0.01, 0.3, 2.0]))

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(csd_inputs())
    def test_matches_scipy_csd(self, inputs):
        u, t_s = inputs
        nperseg = default_nperseg(u.shape[1])
        freqs_hz, pxy = scipy.signal.csd(
            u[:, None], u[None], fs=1.0 / t_s, window="hann", nperseg=nperseg,
            noverlap=nperseg // 2, detrend=False,
        )
        cube = welch_csd(u, t_s)
        npt.assert_allclose(cube.frequencies, 2.0 * np.pi * freqs_hz, rtol=1e-12, atol=0.0)
        expected = np.moveaxis(pxy, -1, 0)
        mats = csd_matrices(cube)
        assert mats.shape == expected.shape
        assert np.abs(mats - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_peak_memory_near_output_size(self):
        # Pair by pair, scipy.signal.csd peaked at 21 times these spectra here.
        u = np.random.Generator(np.random.Philox(9)).normal(size=(18, 200_000))
        tracemalloc.start()
        try:
            cube = welch_csd(u, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * cube.spectra.nbytes


class TestFddPeaks:
    def synthetic_cube(self, heights):
        # Spectra whose product h I has the given curve as its top eigenvalue.
        f = len(heights)
        freqs = np.linspace(1.0, 2.0, f)
        spectra = np.array([math.sqrt(h) * np.eye(2) for h in heights], dtype=complex)
        return CsdCube(freqs, spectra)

    def test_two_tone_recovery(self):
        u, t_s, omega, psi = two_tone_array()
        cube = welch_csd(u, t_s)
        freqs, shapes = fdd_peaks(cube, 2)
        bin_width = cube.frequencies[1] - cube.frequencies[0]
        for n in range(2):
            j = int(np.argmin(np.abs(freqs - omega[n])))
            assert abs(freqs[j] - omega[n]) <= bin_width
            assert aligned_distance(shapes[:, j], psi[:, n].astype(complex)) <= 1e-3

    def test_orders_by_descending_height(self):
        cube = self.synthetic_cube([1.0, 5.0, 1.0, 3.0, 1.0])
        freqs, _ = fdd_peaks(cube, 2)
        heights = [5.0, 3.0]
        expected = [cube.frequencies[1], cube.frequencies[3]]
        npt.assert_allclose(freqs, expected)
        assert heights == sorted(heights, reverse=True)

    def test_shapes_phase_canonical(self):
        u, t_s, _, _ = two_tone_array()
        _, shapes = fdd_peaks(welch_csd(u, t_s), 2)
        for j in range(shapes.shape[1]):
            pivot = shapes[int(np.argmax(np.abs(shapes[:, j]))), j]
            assert pivot.imag == pytest.approx(0.0, abs=1e-12)
            assert pivot.real > 0

    def test_insufficient_peaks(self):
        cube = self.synthetic_cube([1.0, 5.0, 1.0])
        with pytest.raises(InsufficientPeaks):
            fdd_peaks(cube, 2)

    def test_plateau_is_not_a_peak(self):
        # Strict maxima only: a flat top never qualifies.
        cube = self.synthetic_cube([1.0, 5.0, 5.0, 1.0, 2.0])
        with pytest.raises(InsufficientPeaks):
            fdd_peaks(cube, 2)

    # nan and 1.5 used to leak a TypeError from the peak slice.
    @pytest.mark.parametrize("n_modes", [0, math.nan, 1.5])
    def test_invalid_mode_count(self, n_modes):
        cube = self.synthetic_cube([1.0, 5.0, 1.0])
        with pytest.raises(InvalidArgument, match="n_modes must be an integer"):
            fdd_peaks(cube, n_modes)

    @pytest.mark.parametrize("case", ["sensors", "reconstruction", "two_tone"])
    def test_matches_cube_reference(self, case):
        cube = welch_csd(*fdd_reference_inputs()[case])
        ref_top, ref_freqs, ref_shapes = fdd_peaks_cube_reference(cube, 3)
        freqs, shapes = fdd_peaks(cube, ref_freqs.size)  # the two-tone array has 2 peaks
        gram = cube.spectra @ np.conj(cube.spectra).transpose(0, 2, 1)
        top = np.linalg.eigvalsh(gram)[:, -1]
        assert np.abs(top - ref_top).max() <= 1e-12 * ref_top.max()
        npt.assert_array_equal(freqs, ref_freqs)
        assert shapes.shape == ref_shapes.shape == (cube.spectra.shape[2], ref_freqs.size)
        npt.assert_allclose(shapes, ref_shapes, rtol=0.0, atol=1e-12)

    def test_peak_memory_without_the_cube(self):
        # N 224 and M 4104: the (F, N, N) cube would take 412 MB, the spectra 13 MB.
        u = np.random.Generator(np.random.Philox(10)).normal(size=(224, 4104))
        tracemalloc.start()
        try:
            spectra_bytes = welch_csd(u, 0.01).spectra.nbytes
            fdd_peaks(welch_csd(u, 0.01), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * spectra_bytes


@functools.cache
def fdd_reference_inputs():
    """(samples, t_s) for fdd_peaks: sensor data, its sparse reconstruction, two tones."""
    u = synthetic_sensors()  # N 18 > S 10
    phi = draw_jl_matrix(u.shape[1], 50, "gaussian", seed=0)
    return {
        "sensors": (u, 0.01),
        "reconstruction": (sparse_reconstruct(u @ phi.entries, phi).signal, 0.01),
        "two_tone": two_tone_array()[:2],  # N 2 < S 15
    }


def fdd_peaks_cube_reference(cube, n_modes):
    """fdd_peaks on the (F, N, N) matrices, as it was written before the Gram.

    Returns (top eigenvalue curve, peak frequencies, shapes).
    """
    mats = csd_matrices(cube)
    top = np.linalg.eigvalsh(mats)[:, -1]
    interior = np.arange(1, top.size - 1)
    mask = (top[interior] > top[interior - 1]) & (top[interior] > top[interior + 1])
    mask &= top[interior] > 1e-10 * top.max(initial=0.0)
    peak_idx = interior[mask]
    order = peak_idx[np.argsort(-top[peak_idx], kind="stable")][:n_modes]
    evecs = np.linalg.eigh(mats[order])[1]
    return top, cube.frequencies[order], canonical_sign(np.ascontiguousarray(evecs[:, :, -1].T))


def full_spectrum_reference(rows, entries):
    """The sparse baseline on the full complex spectrum with a Cholesky solve.

    Returns (coefficients, signal, l1_history) for a (K, M') batch.
    """
    rows = np.asarray(rows, dtype=complex)
    gram = scipy.linalg.cho_factor(entries.T @ entries)

    def apply_a(alpha):
        return np.fft.ifft(alpha, axis=1, norm="ortho") @ entries

    def apply_pinv(r):
        return np.fft.fft(scipy.linalg.cho_solve(gram, r.T).T @ entries.T, axis=1, norm="ortho")

    alpha = apply_pinv(rows)
    mags = np.abs(alpha)
    theta = 0.9 * mags.max(axis=1, keepdims=True)
    history = []
    for _ in range(30):
        stage = []
        for _ in range(10):
            with np.errstate(divide="ignore", invalid="ignore"):
                shrink = np.where(mags > theta, 1.0 - theta / mags, 0.0)
            alpha = alpha * shrink
            alpha = alpha + apply_pinv(rows - apply_a(alpha))
            mags = np.abs(alpha)
            stage.append(float(mags.sum()))
        history.append(tuple(stage))
        theta *= 0.7
    return alpha, np.fft.ifft(alpha, axis=1, norm="ortho"), tuple(history)


def allocating_reference(rows, entries):
    """The sparse baseline's loop as first written, with fresh arrays every iteration.

    Same operators, schedule and l1 formula as sparse_reconstruct, but each
    iteration builds its shrink factor with np.where under its own errstate
    and allocates every product.  Takes a (K, M') float or complex batch
    with a nonzero row; returns (coefficients, signal, l1_history).
    """
    real = rows.dtype == float
    m = entries.shape[0]
    gram = entries.T @ entries
    paired = (m + 1) // 2
    transform = np.fft.rfft if real else np.fft.fft
    spectrum = transform(np.ascontiguousarray(entries.T), axis=1, norm="ortho")
    pinv_op = np.linalg.inv(gram) @ (spectrum.view(float) if real else spectrum)
    if real:
        spectrum[:, 1:paired] *= 2.0
        a_op = spectrum.view(float).T
    else:
        a_op = np.conjugate(spectrum, out=spectrum).T
    doubled = slice(1, paired) if real else slice(0)

    def apply_pinv(r):
        return (r @ pinv_op).view(complex)

    alpha = apply_pinv(rows)
    mags = np.abs(alpha)
    theta = 0.9 * mags.max(axis=1, keepdims=True)
    history = []
    for _ in range(30):
        stage = []
        for _ in range(10):
            with np.errstate(divide="ignore", invalid="ignore"):
                shrink = np.where(mags > theta, 1.0 - theta / mags, 0.0)
            alpha *= shrink
            alpha += apply_pinv(rows - alpha.view(a_op.dtype) @ a_op)
            mags = np.abs(alpha)
            stage.append(float(mags.sum() + mags[:, doubled].sum()))
        history.append(tuple(stage))
        theta *= 0.7
    if real:
        signal = np.fft.irfft(alpha, n=m, axis=1, norm="ortho")
        alpha = np.concatenate([alpha, alpha[:, paired - 1:0:-1].conj()], axis=1)
    else:
        signal = np.fft.ifft(alpha, axis=1, norm="ortho")
    return alpha, signal, tuple(history)


def relative_residuals(signal, y, phi):
    """Per-row ||Phi^T signal - y|| / ||y|| of a signal recovered from y."""
    y = np.atleast_2d(y)
    misfit = np.atleast_2d(signal) @ phi.entries - y
    return np.linalg.norm(misfit, axis=1) / np.linalg.norm(y, axis=1)


class TestSparseReconstruct:
    M, M_PRIME = 256, 32

    def phi(self, seed=303):
        return draw_jl_matrix(self.M, self.M_PRIME, "gaussian", seed=seed)

    def test_planted_single_tone(self):
        alpha0 = np.zeros(self.M, dtype=complex)
        alpha0[7] = 3.0 * np.exp(1j * 0.8)
        signal = math.sqrt(self.M) * np.fft.ifft(alpha0)
        phi = self.phi()
        y = phi.entries.T @ signal
        result = sparse_reconstruct(y, phi)
        assert relative_residuals(result.signal, y, phi).max() <= 1e-10
        assert np.abs(result.coefficients - alpha0).max() <= 1e-3
        assert np.abs(result.signal - signal).max() <= 1e-3

    @pytest.mark.parametrize("case", ["planted_tone", "real_zero_row", "odd_m", "complex"])
    def test_matches_allocating_loop_bit_for_bit(self, case):
        # The preallocated loop must not move one bit of the output, the
        # zero row's 0/0 (theta = 0) included.
        m = 255 if case == "odd_m" else self.M
        phi = draw_jl_matrix(m, self.M_PRIME, "gaussian", seed=303)
        rng = np.random.Generator(np.random.Philox(27))
        t = np.arange(m)
        tones = np.cos(2 * np.pi * 9 * t / m + 0.3) + 0.5 * np.sin(2 * np.pi * 31 * t / m)
        if case == "planted_tone":  # acceptance 10's input
            alpha0 = np.zeros(m, dtype=complex)
            alpha0[7] = 3.0 * np.exp(1j * 0.8)
            y = phi.entries.T @ (math.sqrt(m) * np.fft.ifft(alpha0))
        elif case == "complex":
            y = np.vstack([(tones + 1j * np.roll(tones, 5)) @ phi.entries,
                           rng.normal(size=self.M_PRIME) + 1j * rng.normal(size=self.M_PRIME)])
        else:
            y = np.vstack([tones @ phi.entries, np.zeros(self.M_PRIME),
                           rng.normal(size=self.M_PRIME)])
        got = sparse_reconstruct(y, phi)
        coefficients, signal, history = allocating_reference(np.atleast_2d(y), phi.entries)
        npt.assert_array_equal(got.coefficients, coefficients.reshape(got.coefficients.shape))
        npt.assert_array_equal(got.signal, signal.reshape(got.signal.shape))
        assert got.l1_history == history
        # assert_array_equal lets -0.0 equal +0.0; the bytes do not.
        assert got.coefficients.tobytes() == coefficients.tobytes()
        assert got.signal.tobytes() == signal.tobytes()

    def test_real_two_tone_support(self):
        # Conjugate-symmetric spectrum (4 active bins) from a real signal.
        alpha0 = np.zeros(self.M, dtype=complex)
        for b, c in [(12, 1.5 * np.exp(0.3j)), (40, 0.8 * np.exp(-1.1j))]:
            alpha0[b] = c
            alpha0[self.M - b] = np.conj(c)
        signal = math.sqrt(self.M) * np.fft.ifft(alpha0)
        assert np.abs(signal.imag).max() <= 1e-12
        phi = self.phi()
        y = phi.entries.T @ signal.real
        result = sparse_reconstruct(y, phi)
        assert result.signal.dtype == np.float64
        assert relative_residuals(result.signal, y, phi).max() <= 1e-10
        support = set(np.argsort(-np.abs(result.coefficients))[:4].tolist())
        assert support == {12, 40, self.M - 12, self.M - 40}
        assert np.abs(result.coefficients - alpha0).max() <= 0.1

    def test_zero_measurements(self):
        phi = self.phi()
        result = sparse_reconstruct(np.zeros(self.M_PRIME), phi)
        npt.assert_array_equal(result.signal @ phi.entries, np.zeros(self.M_PRIME))
        npt.assert_array_equal(result.coefficients, np.zeros(self.M))
        assert result.l1_history == ()

    def test_iterates_stay_feasible(self):
        rng = np.random.Generator(np.random.Philox(21))
        y = rng.normal(size=self.M_PRIME) + 1j * rng.normal(size=self.M_PRIME)
        phi = self.phi()
        result = sparse_reconstruct(y, phi)
        assert relative_residuals(result.signal, y, phi).max() <= 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_measurements(self, bad):
        # nan used to leak numpy's ValueError; inf was accepted silently.
        y = np.ones(self.M_PRIME)
        y[5] = bad
        with pytest.raises(InvalidArgument, match="finite"):
            sparse_reconstruct(y, self.phi())

    @pytest.mark.parametrize("imag", [0.0, 1.0])
    def test_fft_count_does_not_grow_with_iterations(self, monkeypatch, imag):
        # Phi's DFT is taken once; the 300 iterations are products with fixed
        # operators and add no FFT: one transform of Phi, one synthesis.
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            def counted(*args, _fn=getattr(np.fft, name), **kwargs):
                calls.append(_fn.__name__)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        rng = np.random.Generator(np.random.Philox(25))
        y = rng.normal(size=self.M_PRIME)
        if imag:  # complex dtype: the full-spectrum path
            y = y + 1j * imag * rng.normal(size=self.M_PRIME)
        sparse_reconstruct(y, self.phi())
        assert len(calls) == 2

    def assert_l1_never_rises(self, rows):
        result = sparse_reconstruct(rows, self.phi())
        for stage in result.l1_history:
            arr = np.asarray(stage)
            assert np.diff(arr).max() <= 1e-8 * max(1.0, arr[0])

    def test_l1_never_rises_within_stage(self):
        # Real-dtype rows take the half-spectrum path, whose l1 counts each
        # paired bin twice.
        y = np.random.Generator(np.random.Philox(22)).normal(size=self.M_PRIME)
        self.assert_l1_never_rises(y)

    def test_complex_l1_never_rises_within_stage(self):
        # Complex rows take the full spectrum.
        rng = np.random.Generator(np.random.Philox(22))
        y = rng.normal(size=self.M_PRIME)
        self.assert_l1_never_rises(y + 1j * rng.normal(size=self.M_PRIME))

    def test_rank_deficient_phi(self):
        entries = np.ones((self.M, 4))
        with pytest.raises(InvalidArgument):
            sparse_reconstruct(np.ones(4, dtype=complex), entries)

    def test_accepts_plain_arrays(self):
        phi = self.phi()
        y = np.ones(self.M_PRIME, dtype=complex)
        a = sparse_reconstruct(y, phi)
        b = sparse_reconstruct(y, phi.entries)
        npt.assert_allclose(a.coefficients, b.coefficients)
        # An object array may hold complex numbers, so it takes the complex path.
        c = sparse_reconstruct(y.astype(object), phi)
        npt.assert_array_equal(c.coefficients, a.coefficients)

    def test_shape_validation(self):
        phi = self.phi()
        with pytest.raises(DimensionMismatch):
            sparse_reconstruct(np.ones(self.M_PRIME + 1), phi)
        with pytest.raises(ShapeError):
            sparse_reconstruct(np.ones((2, 2, self.M_PRIME)), phi)

    def test_batch_rows_match_single_calls(self):
        rng = np.random.Generator(np.random.Philox(23))
        alpha0 = np.zeros(self.M, dtype=complex)
        alpha0[7] = 3.0 * np.exp(1j * 0.8)
        phi = self.phi()
        batch_y = np.vstack([
            phi.entries.T @ (math.sqrt(self.M) * np.fft.ifft(alpha0)),
            np.zeros(self.M_PRIME),
            rng.normal(size=self.M_PRIME) + 1j * rng.normal(size=self.M_PRIME),
        ])
        batch = sparse_reconstruct(batch_y, phi)
        assert batch.coefficients.shape == batch.signal.shape == (3, self.M)
        nonzero = [0, 2]
        assert relative_residuals(batch.signal[nonzero], batch_y[nonzero], phi).max() <= 1e-10
        npt.assert_array_equal(batch.signal[1] @ phi.entries, np.zeros(self.M_PRIME))
        assert np.isfinite(batch.coefficients).all()
        npt.assert_array_equal(batch.coefficients[1], np.zeros(self.M))
        singles = [sparse_reconstruct(row, phi) for row in batch_y]
        for k, single in enumerate(singles):
            for got, want in [(batch.coefficients[k], single.coefficients),
                              (batch.signal[k], single.signal)]:
                assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        summed = np.sum([single.l1_history for single in singles if single.l1_history], axis=0)
        npt.assert_allclose(batch.l1_history, summed, rtol=1e-12)

    @pytest.mark.parametrize("m", [256, 255])
    @pytest.mark.parametrize("as_complex", [False, True])
    def test_real_batch_matches_full_spectrum(self, monkeypatch, m, as_complex):
        # The dtype picks the path: real measurements take the half spectrum
        # and come back real, the same values cast to complex take the full
        # spectrum.  Both reproduce the full complex algorithm to roundoff,
        # zero row included.
        phi = draw_jl_matrix(m, self.M_PRIME, "gaussian", seed=304)
        rng = np.random.Generator(np.random.Philox(24))
        t = np.arange(m)
        tones = np.cos(2 * np.pi * 9 * t / m + 0.3) + 0.5 * np.sin(2 * np.pi * 31 * t / m)
        y = np.vstack([tones @ phi.entries, np.zeros(self.M_PRIME),
                       rng.normal(size=self.M_PRIME)])
        if as_complex:
            y = y.astype(complex)
        transforms = []
        with monkeypatch.context() as patch:
            for name in ("fft", "rfft"):
                def counted(*args, _fn=getattr(np.fft, name), **kwargs):
                    transforms.append(_fn.__name__)
                    return _fn(*args, **kwargs)
                patch.setattr(np.fft, name, counted)
            sparse_reconstruct(y, phi)
        assert transforms == ["fft" if as_complex else "rfft"]
        got = self.assert_matches_full_spectrum(y, phi)
        assert got.signal.dtype == (np.complex128 if as_complex else np.float64)
        npt.assert_array_equal(got.coefficients[1], 0.0)
        if not as_complex:
            mirror = got.coefficients[:, (-np.arange(m)) % m]
            npt.assert_array_equal(mirror, got.coefficients.conj())

    @pytest.mark.parametrize("m", [256, 255])
    def test_complex_batch_matches_full_spectrum(self, m):
        # Rows with a nonzero imaginary part take the full-spectrum path.
        phi = draw_jl_matrix(m, self.M_PRIME, "gaussian", seed=304)
        rng = np.random.Generator(np.random.Philox(26))
        t = np.arange(m)
        tones = np.exp(2j * np.pi * 9 * t / m + 0.3) + 0.5 * np.exp(-2j * np.pi * 31 * t / m)
        y = np.vstack([tones @ phi.entries, np.zeros(self.M_PRIME),
                       rng.normal(size=self.M_PRIME) + 1j * rng.normal(size=self.M_PRIME)])
        got = self.assert_matches_full_spectrum(y, phi)
        assert np.abs(got.signal[0].imag).max() > 0.1
        npt.assert_array_equal(got.coefficients[1], 0.0)

    @staticmethod
    def assert_matches_full_spectrum(y, phi):
        got = sparse_reconstruct(y, phi)
        want = full_spectrum_reference(y, phi.entries)
        for a, b in [(got.coefficients, want[0]), (got.signal, want[1])]:
            assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()
        npt.assert_allclose(got.l1_history, want[2], rtol=1e-10)
        return got
