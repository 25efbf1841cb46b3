"""Truncated-SVD mode estimation, alignment, and frequency readout."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalcs import (
    DataMatrix,
    DomainError,
    ExperimentConfig,
    InvalidArgument,
    ModalBasis,
    ModeEstimate,
    NonUniformSchedule,
    ShapeError,
    align_and_error,
    build_basis,
    build_data_matrix,
    compress,
    draw_jl_matrix,
    estimate_modes,
    frequency_spectra,
    preset,
    preset_config,
    random_schedule,
    run_experiment,
    uniform_schedule,
)
from conftest import reference_aligned_distance, table_column
from modalcs.config import _samples_for
from modalcs import estimator as estimator_module
from modalcs import runner as runner_module
from modalcs.estimator import _gram_modes, _mode_errors, _phase_aligned, _svd_modes
from modalcs.mdof import _pivot_phases, canonical_sign
from modalcs.runner import _run_exp3, _run_exp4
from modalcs.sampling import rng_from_seed, spawn_seeds

ROOT2 = np.sqrt(2.0)


def on_grid_basis(rng, n, m, t_s, amp_scale=None):
    """Random orthonormal shapes with frequencies on distinct DFT bins."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    bins = rng.choice(np.arange(1, m // 2), size=n, replace=False)
    freqs = 2 * np.pi * np.sort(bins)[::-1].astype(float) / (m * t_s)
    if amp_scale is None:
        amp_scale = 2.0 ** np.arange(n)
    amps = amp_scale * np.exp(2j * np.pi * rng.uniform(size=n))
    return ModalBasis(canonical_sign(q), freqs, amps)


class TestEstimateModes:
    @pytest.mark.parametrize("shape", [(0, 0), (0, 5)])
    def test_no_modes_is_shape_error(self, shape):
        # An empty data matrix used to leak ValueError from the pivot argmax.
        with pytest.raises(ShapeError, match="at least one mode"):
            estimate_modes(DataMatrix(np.zeros(shape), "raw"))

    def test_on_grid_exact_recovery(self):
        rng = rng_from_seed(100)
        m, t_s = 64, 0.1
        basis = on_grid_basis(rng, 4, m, t_s)
        data = build_data_matrix(basis, uniform_schedule(t_s, m))
        errors = align_and_error(estimate_modes(data), basis)
        assert errors.max() <= 1e-8

    def test_rank_one_input(self):
        q, _ = np.linalg.qr(rng_from_seed(101).normal(size=(3, 3)))
        basis = ModalBasis(canonical_sign(q), np.array([3.0, 2.0, 1.0]), np.array([0.0, 1.0, 0.0]))
        m, t_s = 32, 0.125
        data = build_data_matrix(basis, uniform_schedule(t_s, m))
        estimate = estimate_modes(data)
        npt.assert_array_equal(estimate.reliable, [True, False, False])
        # The single active mode (largest amplitude) is recovered.
        assert align_and_error(estimate, basis)[0] <= 1e-8

    def test_more_modes_than_samples_rejected(self, set1_basis):
        data = build_data_matrix(set1_basis, uniform_schedule(0.1, 3))
        with pytest.raises(ShapeError):
            estimate_modes(data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf])
    def test_non_finite_entries_rejected(self, set1_basis, bad):
        data = build_data_matrix(set1_basis, uniform_schedule(0.1, 21))
        entries = data.entries.copy()
        entries[2, 5] = bad
        with pytest.raises(InvalidArgument):
            estimate_modes(DataMatrix(entries, "raw", schedule=data.schedule))

    def test_real_data_matches_complex_cast(self):
        rows = rng_from_seed(104).normal(size=(5, 40))
        real = estimate_modes(DataMatrix(rows, "raw"))
        cast = estimate_modes(DataMatrix(rows.astype(complex), "raw"))
        npt.assert_array_equal(real.mode_shapes_hat.imag, 0.0)
        npt.assert_allclose(real.singular_values, cast.singular_values, rtol=1e-13)
        npt.assert_allclose(real.mode_shapes_hat, cast.mode_shapes_hat, atol=1e-12)

    def test_estimate_carries_kind_and_schedule(self, set1_basis):
        schedule = uniform_schedule(0.1, 21)
        data = build_data_matrix(set1_basis, schedule)
        estimate = estimate_modes(data)
        assert estimate.kind == "raw"
        assert estimate.schedule is schedule
        compressed = compress(data, draw_jl_matrix(21, 8, seed=1))
        assert estimate_modes(compressed).kind == "compressed"

    @pytest.mark.parametrize("variant", ["raw", "compressed", "rank_deficient"])
    def test_factors_reconstruct_data(self, set1_basis, variant):
        # U diag(s) Vh equals the data to 1e-8 s[0] in the spectral norm: the
        # rank-N truncation is exact because the data has rank <= N.
        basis = set1_basis
        if variant == "rank_deficient":
            basis = ModalBasis(basis.mode_shapes, basis.frequencies, [1.0, 0.0, 0.5, 0.0])
        data = build_data_matrix(basis, uniform_schedule(0.1, 21))
        if variant == "compressed":
            data = compress(data, draw_jl_matrix(21, 8, seed=3))
        estimate = estimate_modes(data)
        u, s, vh = estimate.mode_shapes_hat, estimate.singular_values, estimate.right_factors_hat
        err = np.linalg.norm(data.entries - (u * s) @ vh, 2)
        assert err <= 1e-8 * s[0]

    def test_left_vectors_orthonormal(self, set1_basis):
        data = build_data_matrix(set1_basis, random_schedule(2.0, 25, seed=3))
        u = estimate_modes(data).mode_shapes_hat
        npt.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-9)


@st.composite
def complex_data(draw):
    """Complex N x M data of rank 0..N over six decades of scale."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n, 40))
    rank = draw(st.integers(0, n))
    rng = rng_from_seed(draw(st.integers(0, 2**32)))
    scale = 10.0 ** draw(st.integers(-3, 3))

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return scale * gaussian(n, rank) @ gaussian(rank, m)


class TestModeEstimateValidation:
    # ModeEstimate does not re-check LAPACK's orthonormality on every call;
    # this is where that guarantee is checked.
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(entries=complex_data())
    def test_estimates_have_orthonormal_factors(self, entries):
        n = entries.shape[0]
        estimate = estimate_modes(DataMatrix(entries, "raw"))
        u, s, vh = estimate.mode_shapes_hat, estimate.singular_values, estimate.right_factors_hat
        assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-9
        assert np.abs(vh @ vh.conj().T - np.eye(n)).max() <= 1e-9
        assert np.all(s >= 0.0) and np.all(np.diff(s) <= 0.0)
        pivots = u[np.argmax(np.abs(u), axis=0), np.arange(n)]
        assert np.all(pivots.real > 0.0)
        assert np.abs(pivots.imag).max() <= 1e-12

    def test_rejects_ascending_singular_values(self):
        with pytest.raises(InvalidArgument):
            ModeEstimate(np.eye(2, dtype=complex), np.array([1.0, 2.0]), np.eye(2, dtype=complex))


class TestAlignedDistance:
    def test_reference_values(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        assert reference_aligned_distance(e1, e1) == 0.0
        assert reference_aligned_distance(-e1, e1) == pytest.approx(0.0, abs=1e-12)
        assert reference_aligned_distance(e2, e1) == pytest.approx(ROOT2)

    def test_phase_invariance(self):
        rng = rng_from_seed(7)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        v /= np.linalg.norm(v)
        assert reference_aligned_distance(np.exp(0.7j) * v, v) == pytest.approx(0.0, abs=1e-12)

    def test_range(self):
        rng = rng_from_seed(8)
        for _ in range(100):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            b = rng.normal(size=4) + 1j * rng.normal(size=4)
            d = reference_aligned_distance(a / np.linalg.norm(a), b / np.linalg.norm(b))
            assert 0.0 <= d <= ROOT2 + 1e-12


class TestAlignAndError:
    def test_amplitude_rank_pairing(self):
        # Mode 2 has the larger amplitude, so it owns the top singular value;
        # naive index pairing would report sqrt(2) errors here.
        rng = rng_from_seed(110)
        m, t_s = 64, 0.1
        basis = on_grid_basis(rng, 2, m, t_s, amp_scale=np.array([0.3, 1.0]))
        data = build_data_matrix(basis, uniform_schedule(t_s, m))
        errors = align_and_error(estimate_modes(data), basis)
        assert errors.max() <= 1e-8

    def test_requires_amplitudes(self, set1_basis):
        data = build_data_matrix(set1_basis, uniform_schedule(0.1, 21))
        estimate = estimate_modes(data)
        stripped = ModalBasis(set1_basis.mode_shapes, set1_basis.frequencies)
        with pytest.raises(InvalidArgument):
            align_and_error(estimate, stripped)

    def test_mode_count_mismatch_rejected(self, set1_basis):
        estimate = estimate_modes(build_data_matrix(set1_basis, uniform_schedule(0.1, 21)))
        two = ModalBasis(np.eye(2), [2.0, 1.0], [1.0, 0.5])
        with pytest.raises(ShapeError, match="^estimate and truth disagree on the number of modes"):
            align_and_error(estimate, two)

    def test_greedy_match_agrees_on_easy_case(self):
        # On well-separated on-grid tones, pairing each estimated mode with the
        # true mode it correlates with most gives the amplitude-rank pairing
        # that align_and_error uses.
        rng = rng_from_seed(111)
        m, t_s = 128, 0.05
        basis = on_grid_basis(rng, 3, m, t_s)
        data = build_data_matrix(basis, uniform_schedule(t_s, m))
        estimate = estimate_modes(data)
        corr = np.abs(basis.mode_shapes.conj().T @ estimate.mode_shapes_hat)
        match = np.argmax(corr, axis=0)
        rank = np.argsort(-np.abs(basis.amplitudes), kind="stable")
        npt.assert_array_equal(match, rank)
        assert align_and_error(estimate, basis).max() <= 1e-8


def peak_frequencies(estimate):
    """Padded-FFT peak of each right-factor row, as exp5 reads it out."""
    omega, mags = frequency_spectra(estimate)
    return omega[np.argmax(mags, axis=1)]


class TestFrequencyReadout:
    def test_on_grid_tone_exact(self):
        rng = rng_from_seed(120)
        m, t_s = 64, 0.2
        basis = on_grid_basis(rng, 3, m, t_s)
        data = build_data_matrix(basis, uniform_schedule(t_s, m))
        estimate = estimate_modes(data)
        rank = np.argsort(-np.abs(basis.amplitudes), kind="stable")
        npt.assert_allclose(
            peak_frequencies(estimate),
            basis.frequencies[rank],
            rtol=1e-12,
        )

    def test_reports_singular_value_order(self):
        # Amplitudes swap the energy order, so the first reported frequency
        # belongs to the stronger (not the faster) mode.
        rng = rng_from_seed(121)
        m, t_s = 64, 0.1
        basis = on_grid_basis(rng, 2, m, t_s, amp_scale=np.array([0.2, 1.0]))
        data = build_data_matrix(basis, uniform_schedule(t_s, m))
        freqs = peak_frequencies(estimate_modes(data))
        assert freqs[0] == pytest.approx(basis.frequencies[1], rel=1e-12)
        assert freqs[1] == pytest.approx(basis.frequencies[0], rel=1e-12)

    def test_spectra_shapes_and_grid(self, set1_basis):
        m, t_s, zpf = 21, 0.1, 8
        data = build_data_matrix(set1_basis, uniform_schedule(t_s, m))
        omega, mags = frequency_spectra(estimate_modes(data), zpf)
        assert omega.shape == (zpf * m,)
        assert mags.shape == (4, zpf * m)
        assert omega[0] == 0.0
        assert omega[-1] < 2 * np.pi / t_s

    @pytest.mark.parametrize("t_s", [0.1, 0.2, 0.03])
    def test_grid_spacing_from_schedule(self, set1_basis, t_s):
        m, zpf = 21, 4
        data = build_data_matrix(set1_basis, uniform_schedule(t_s, m))
        omega, _ = frequency_spectra(estimate_modes(data), zpf)
        npt.assert_array_equal(omega, 2.0 * np.pi * np.arange(zpf * m) / (zpf * m * t_s))

    def test_random_schedule_rejected(self, set1_basis):
        data = build_data_matrix(set1_basis, random_schedule(2.0, 25, seed=4))
        with pytest.raises(NonUniformSchedule):
            frequency_spectra(estimate_modes(data))

    def test_compressed_data_rejected(self, set1_basis):
        data = build_data_matrix(set1_basis, uniform_schedule(0.1, 21))
        compressed = compress(data, draw_jl_matrix(21, 8, seed=2))
        with pytest.raises(NonUniformSchedule):
            frequency_spectra(estimate_modes(compressed))

    def test_invalid_padding(self, set1_basis):
        data = build_data_matrix(set1_basis, uniform_schedule(0.1, 21))
        with pytest.raises(InvalidArgument):
            frequency_spectra(estimate_modes(data), zero_pad_factor=0)

    @pytest.mark.parametrize("factor", [2.5, "8", 10**12])
    def test_non_integer_padding(self, set1_basis, factor):
        # 2.5 used to leak TypeError from np.arange, 10**12 a MemoryError.
        data = build_data_matrix(set1_basis, uniform_schedule(0.1, 21))
        with pytest.raises(DomainError, match="zero_pad_factor must be an integer"):
            frequency_spectra(estimate_modes(data), zero_pad_factor=factor)

    def test_integral_float_padding(self, set1_basis):
        # Like every other count, 2.0 counts as 2.
        estimate = estimate_modes(build_data_matrix(set1_basis, uniform_schedule(0.1, 21)))
        for got, want in zip(frequency_spectra(estimate, 2.0), frequency_spectra(estimate, 2)):
            npt.assert_array_equal(got, want)


def gram_chain_errors(basis, data):
    """One data matrix's aligned errors by the runners' route: _gram_modes, then _mode_errors."""
    return _mode_errors(_gram_modes(data.entries), basis)


def reference_mean_max(basis, t_max, m, seeds):
    """exp3's trial mean, one schedule, data matrix, Gram factor and alignment at a time."""
    maxima = []
    for seed in seeds:
        data = build_data_matrix(basis, random_schedule(t_max, m, int(seed)))
        maxima.append(gram_chain_errors(basis, data).max())
    return float(np.mean(maxima))


class TestStackedTrials:
    """The runners factor stacks of schedules through _gram_modes; every byte must match the
    same route taken one matrix at a time.  The public SVD chain (estimate_modes, then
    align_and_error) agrees to roundoff only: test_gram_route_matches_the_svd_route bounds it."""

    def test_exp3_rows_match_trial_by_trial_reference(self):
        raw = preset("exp3")
        raw["n_trials"] = 7
        raw["sampling"]["m_values"] = [4, 9, 300]  # 4 is the N = M edge
        config = ExperimentConfig.from_dict(raw)
        basis = build_basis(config)
        t_s, extension = raw["sampling"]["t_s"], raw["sampling"]["extension"]
        expected = []
        for m, point_seed in zip([4, 9, 300], spawn_seeds(config.seed, 3)):
            seeds = spawn_seeds(int(point_seed), 14)
            t_max_u = round((m - 1) * t_s, 10)
            t_max_e = round(t_max_u + extension, 10)
            data = build_data_matrix(basis, uniform_schedule(t_s, m))
            expected.append(
                (
                    m,
                    t_max_u,
                    t_max_e,
                    float(gram_chain_errors(basis, data).max()),
                    reference_mean_max(basis, t_max_u, m, seeds[:7]),
                    reference_mean_max(basis, t_max_e, m, seeds[7:]),
                    7,
                )
            )
        assert _run_exp3(config).rows == tuple(expected)

    def test_exp3_uniform_column_is_the_one_matrix_chain(self):
        config = preset_config("exp3")
        basis, t_s = build_basis(config), config.sampling["t_s"]
        expected = [
            float(gram_chain_errors(basis, build_data_matrix(basis, uniform_schedule(t_s, m))).max())
            for m in sorted(config.sampling["m_values"])
        ]
        assert table_column(_run_exp3(config), "err_uniform_max") == expected

    def test_exp4_seed_rows_match_seed_by_seed_reference(self):
        config = preset_config("exp4")
        basis, sampling = build_basis(config), config.sampling
        m_super = _samples_for(sampling["t_max"], sampling["t_s_super"])
        data = build_data_matrix(basis, uniform_schedule(sampling["t_s_super"], m_super))
        per_seed = []
        for seed in spawn_seeds(config.seed, config.n_phi_seeds):
            phi = draw_jl_matrix(m_super, sampling["m_prime"], "gaussian", int(seed))
            errors = gram_chain_errors(basis, compress(data, phi))
            per_seed.append(("compressed", int(seed), sampling["t_s_super"], m_super,
                             sampling["m_prime"], *errors.tolist(), float(errors.max())))
        rows = _run_exp4(config).rows
        assert rows[1:-1] == tuple(per_seed)
        stacked = np.array([row[5:-1] for row in per_seed])
        assert rows[-1][5:] == (*stacked.mean(axis=0).tolist(), float(stacked.max(axis=1).mean()))

    @pytest.fixture
    def data_stack(self, set1_basis):
        """12 random-schedule 4 x 30 data matrices, stacked."""
        data = [build_data_matrix(set1_basis, random_schedule(3.0, 30, s)).entries for s in range(12)]
        return np.stack(data)

    @pytest.fixture
    def shape_stack(self, data_stack):
        return np.linalg.svd(data_stack, full_matrices=False)[0]

    def test_pivot_phases_stack_matches_slices(self, shape_stack):
        stack = shape_stack.copy()
        stack[3, :, 1] = 0.0  # a zero column keeps phase 1
        sliced = np.stack([_pivot_phases(u) for u in stack])
        assert _pivot_phases(stack).tobytes() == sliced.tobytes()
        real = stack.real.copy()
        assert _pivot_phases(real).tobytes() == np.stack([_pivot_phases(u) for u in real]).tobytes()

    def test_svd_modes_stack_matches_slices(self, data_stack):
        per_matrix = zip(*[_svd_modes(d) for d in data_stack])
        for stacked, sliced in zip(_svd_modes(data_stack), per_matrix):
            assert stacked.tobytes() == np.stack(sliced).tobytes()

    def test_gram_modes_stack_matches_slices(self, data_stack):
        sliced = np.stack([_gram_modes(d) for d in data_stack])
        assert _gram_modes(data_stack).tobytes() == sliced.tobytes()

    def test_repeated_eigenvalue_takes_the_svd(self, monkeypatch):
        # Equal amplitudes on DFT-bin frequencies: the steering rows are orthogonal, so
        # V V* = M I, whose eigenvectors are any basis.  That matrix takes _svd_modes and
        # returns its bits; the separated one beside it keeps the Gram route.
        rng, m, t_s = rng_from_seed(7), 32, 0.1
        stack = np.stack([
            build_data_matrix(on_grid_basis(rng, 4, m, t_s, amp_scale), uniform_schedule(t_s, m)).entries
            for amp_scale in (np.ones(4), 2.0 ** np.arange(4))
        ])
        calls, svd_modes = [], estimator_module._svd_modes
        monkeypatch.setattr(estimator_module, "_svd_modes",
                            lambda v: calls.append(v.shape) or svd_modes(v))
        shapes = _gram_modes(stack)
        assert calls == [(1, 4, m)]
        assert shapes[0].tobytes() == svd_modes(stack[0])[0].tobytes()
        npt.assert_allclose(shapes[1], svd_modes(stack[1])[0], rtol=0, atol=1e-12)

    SPREADS = [[1, .45, .15, .01], [1, .1, .01, .001], [1, 1e-2, 1e-3, 1e-4],
               [1, 1e-3, 1e-4, 1e-5], [1, 1e-4, 1e-6, 1e-8]]

    @staticmethod
    def _float_cells(table):
        return [x for row in table.rows for x in row if isinstance(x, float)]

    @pytest.mark.parametrize("magnitudes", SPREADS, ids=lambda mags: f"min{mags[-1]:g}")
    @pytest.mark.parametrize("name", ["exp1", "exp2", "exp3", "exp4"])
    def test_gram_route_matches_the_svd_route(self, monkeypatch, name, magnitudes):
        # V V* squares V's conditioning.  The gap guard hands each point whose eigenvectors
        # V V* would blur to the SVD, so every float cell stays within 1e-9 of the SVD route.
        raw = preset(name)
        raw["magnitudes"] = magnitudes
        config = ExperimentConfig.from_dict(raw)
        gram = run_experiment(config)
        monkeypatch.setattr(runner_module, "_gram_modes", lambda v: _svd_modes(v)[0])
        svd = run_experiment(config)
        assert [[x for x in row if not isinstance(x, float)] for row in gram.rows] == [
            [x for x in row if not isinstance(x, float)] for row in svd.rows]
        npt.assert_allclose(self._float_cells(gram), self._float_cells(svd), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("name", ["exp1", "exp2", "exp3", "exp4"])
    def test_unguarded_gram_route_is_wrong_on_the_widest_spread(self, monkeypatch, name):
        # With no guard, eigh(V V*) at |A| down to 1e-8 moves error cells by 1e-4 (exp4)
        # to 0.57 (exp2): the guard is what the test above relies on.
        raw = preset(name)
        raw["magnitudes"] = self.SPREADS[-1]
        config = ExperimentConfig.from_dict(raw)
        guarded = self._float_cells(run_experiment(config))
        monkeypatch.setattr(estimator_module, "_GAP", 0.0)
        unguarded = self._float_cells(run_experiment(config))
        assert np.abs(np.subtract(guarded, unguarded)).max() > 1e-6

    def test_mode_errors_stack_matches_reference_loop(self, shape_stack, set1_basis):
        order = np.argsort(-np.abs(set1_basis.amplitudes), kind="stable")
        truth = set1_basis.mode_shapes
        expected = np.array(
            [
                [reference_aligned_distance(u[:, k], truth[:, i]) for k, i in enumerate(order)]
                for u in shape_stack
            ]
        )
        assert _mode_errors(shape_stack, set1_basis).tobytes() == expected.tobytes()


def reference_phase_aligned(est, truth):
    """_phase_aligned one row at a time: np.vdot on the row as it lies, then its phase."""
    out = np.empty(est.shape, dtype=complex)
    rows = np.broadcast_to(truth, est.shape)
    for idx in np.ndindex(est.shape[:-1]):
        inner = np.vdot(est[idx], rows[idx])
        out[idx] = (inner / np.abs(inner) if np.abs(inner) > 0.0 else 1.0) * est[idx]
    return out


@st.composite
def stacked(draw, square=False):
    """(rng, (..., N, n) complex stack): 0-2 leading axes, C-ordered or a swapaxes view.

    The vectors are the rows, or the columns of a square stack of mode shapes.
    """
    n_rows = draw(st.integers(1, 8))
    n = n_rows if square else draw(st.integers(1, 64))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    rng = rng_from_seed(draw(st.integers(0, 2**32)))
    swap = draw(st.booleans())
    shape = lead + ((n, n_rows) if swap else (n_rows, n))
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    stack = np.swapaxes(stack, -1, -2) if swap else stack
    if draw(st.booleans()):  # a zero vector: np.vdot gives 0, and the phase is 1
        (np.swapaxes(stack, -1, -2) if square else stack)[..., 0, :] = 0.0
    return rng, stack


class TestStackedAlignment:
    """The stacked matmul alignment reproduces the per-vector np.vdot and
    np.linalg.norm loops byte for byte; einsum or norm(axis=-1) would not."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(drawn=stacked())
    def test_phase_aligned_matches_vdot_loop(self, drawn):
        rng, est = drawn
        truth = rng.normal(size=est.shape[-2:]) + 1j * rng.normal(size=est.shape[-2:])
        expected = reference_phase_aligned(est, truth)
        assert _phase_aligned(est, truth).tobytes() == expected.tobytes()

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(drawn=stacked(square=True))
    def test_mode_errors_match_norm_loop(self, drawn):
        rng, shapes = drawn
        n = shapes.shape[-1]
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        basis = ModalBasis(q, np.arange(n, 0, -1.0), amps)
        order = np.argsort(-np.abs(amps), kind="stable")
        expected = np.empty(shapes.shape[:-1])
        for idx in np.ndindex(shapes.shape[:-2]):
            u = shapes[idx]
            expected[idx] = [reference_aligned_distance(u[:, k], q[:, i])
                             for k, i in enumerate(order)]
        assert _mode_errors(shapes, basis).tobytes() == expected.tobytes()

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(n=st.integers(1, 64), seed=st.integers(0, 2**32), columns=st.booleans())
    def test_one_vector_matches_vdot_and_norm(self, n, seed, columns):
        # realdata aligns columns of C-ordered shape matrices, so both operands are strided.
        rng = rng_from_seed(seed)
        pair = rng.normal(size=(2, n, 3)) + 1j * rng.normal(size=(2, n, 3))
        est, truth = (pair[:, :, 1] if columns else np.ascontiguousarray(pair[:, :, 1]))
        expected = reference_phase_aligned(est, truth)
        assert _phase_aligned(est, truth).tobytes() == expected.tobytes()
        distance = np.linalg.norm(truth - _phase_aligned(est, truth))
        assert distance.tobytes() == reference_aligned_distance(est, truth).tobytes()
