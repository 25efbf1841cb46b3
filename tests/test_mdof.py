"""Modal decomposition, SDOF response parameters, and response evaluation."""

import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from modalcs import (
    InvalidArgument,
    MdofSystem,
    ModalBasis,
    NonPositiveEigenvalue,
    NonUniformInput,
    NotSymmetric,
    SdofParams,
    analytic_from_real,
    build_system,
    canonical_sign,
    evaluate_analytic,
    evaluate_displacement,
    preset_config,
    rng_from_seed,
    sdof_response_params,
    solve_modes,
    uniform_schedule,
)

ROOT2 = math.sqrt(2.0)


def random_basis(rng, n, complex_amps=True):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    freqs = np.sort(rng.uniform(1.0, 20.0, size=n))[::-1]
    amps = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_amps else 0.0)
    return ModalBasis(canonical_sign(q), freqs, amps)


class TestSolveModes:
    def test_decoupled_system(self):
        modes = solve_modes(MdofSystem(np.eye(2), np.diag([4.0, 1.0])))
        npt.assert_allclose(modes.frequencies, [2.0, 1.0])
        npt.assert_allclose(modes.mode_shapes, np.eye(2), atol=1e-14)

    def test_coupled_two_dof(self):
        modes = solve_modes(MdofSystem(np.eye(2), np.array([[2.0, -1.0], [-1.0, 2.0]])))
        npt.assert_allclose(modes.frequencies, [math.sqrt(3.0), 1.0], rtol=1e-14)
        npt.assert_allclose(modes.mode_shapes[:, 0], [1 / ROOT2, -1 / ROOT2], atol=1e-14)
        npt.assert_allclose(modes.mode_shapes[:, 1], [1 / ROOT2, 1 / ROOT2], atol=1e-14)

    def test_benchmark_four_dof_spectrum(self, chain4_modes):
        # Squared frequencies of the benchmark structure, descending.
        npt.assert_allclose(
            chain4_modes.frequencies**2,
            [3.4604, 2.3424, 1.6576, 0.5396],
            atol=5e-5,
        )

    def test_residual_invariant(self):
        rng = rng_from_seed(7)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(n, n))
            k = a.T @ a + n * np.eye(n)
            mass = float(rng.uniform(0.5, 2.0)) * np.eye(n)
            system = MdofSystem(mass, k)
            modes = solve_modes(system)
            for j in range(n):
                psi = modes.mode_shapes[:, j]
                resid = k @ psi - modes.frequencies[j] ** 2 * (mass @ psi)
                assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(k, 2)

    def test_matches_generalized_eigh(self):
        # Reference: the generalized symmetric solver on the same pencil.
        systems = [build_system(preset_config(name))
                   for name in ("exp1", "exp2", "exp3", "exp4", "exp5")]
        rng = rng_from_seed(8)
        for n in (2, 5, 9):
            a = rng.normal(size=(n, n))
            mass = float(rng.uniform(0.5, 2.0)) * np.eye(n)
            systems.append(MdofSystem(mass, a.T @ a + n * np.eye(n)))
        for system in systems:
            evals, vecs = scipy.linalg.eigh(system.stiffness, system.mass)
            order = np.argsort(-evals, kind="stable")
            vecs = vecs[:, order] / np.linalg.norm(vecs[:, order], axis=0)
            modes = solve_modes(system)
            npt.assert_allclose(modes.frequencies, np.sqrt(evals[order]), rtol=1e-12, atol=0)
            npt.assert_allclose(modes.mode_shapes, canonical_sign(vecs), rtol=0, atol=1e-10)

    def test_nonscalar_mass_rejected(self):
        # Pencil eigenvectors are mass-orthogonal, not Euclidean-orthonormal,
        # when the diagonal mass is not scalar; the basis invariant refuses
        # them rather than silently breaking either property.
        system = MdofSystem(np.diag([1.0, 4.0]), np.array([[2.0, -1.0], [-1.0, 2.0]]))
        with pytest.raises(InvalidArgument):
            solve_modes(system)

    def test_asymmetric_stiffness_rejected(self):
        with pytest.raises(NotSymmetric):
            MdofSystem(np.eye(2), np.array([[2.0, -1.0], [0.0, 2.0]]))

    def test_indefinite_stiffness_rejected(self):
        with pytest.raises(NonPositiveEigenvalue):
            solve_modes(MdofSystem(np.eye(2), np.diag([-1.0, 1.0])))

    def test_nondiagonal_mass_rejected(self):
        with pytest.raises(InvalidArgument):
            MdofSystem(np.array([[1.0, 0.1], [0.1, 1.0]]), np.eye(2))

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(InvalidArgument):
            solve_modes(MdofSystem(np.eye(2), np.eye(2)))


class TestCanonicalSign:
    def test_flips_negative_pivot(self):
        m = np.array([[-0.8, 0.6], [0.6, 0.8]])
        fixed = canonical_sign(m)
        npt.assert_allclose(fixed[:, 0], [0.8, -0.6])
        npt.assert_allclose(fixed[:, 1], [0.6, 0.8])

    def test_idempotent(self):
        rng = rng_from_seed(3)
        m = rng.normal(size=(5, 5))
        once = canonical_sign(m)
        npt.assert_array_equal(once, canonical_sign(once))


class TestModalBasis:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidArgument):
            ModalBasis(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([2.0, 1.0]))

    def test_rejects_ascending_frequencies(self):
        with pytest.raises(InvalidArgument):
            ModalBasis(np.eye(2), np.array([1.0, 2.0]))

    def test_ordered_sorts_descending(self):
        basis = ModalBasis.ordered(np.eye(3), [1.0, 3.0, 2.0], [0.1, 0.2, 0.3])
        npt.assert_allclose(basis.frequencies, [3.0, 2.0, 1.0])
        npt.assert_allclose(basis.mode_shapes[:, 0], [0.0, 1.0, 0.0])
        npt.assert_allclose(basis.amplitudes, [0.2, 0.3, 0.1])

    def test_with_amplitudes(self):
        basis = ModalBasis(np.eye(2), np.array([2.0, 1.0]))
        assert basis.amplitudes is None
        assert basis.with_amplitudes([1.0, 2.0]).amplitudes.shape == (2,)


class TestSdofResponseParams:
    @pytest.mark.parametrize(
        "a, b, rho, theta",
        [
            (1.0, 0.0, 2.0, math.pi / 2),
            (0.0, -1.0, 2.0, 0.0),
            (1.0, 1.0, 2.0 * ROOT2, 3.0 * math.pi / 4),
            (0.0, 0.0, 0.0, 0.0),
        ],
    )
    def test_reference_values(self, a, b, rho, theta):
        got_rho, got_theta = sdof_response_params(a, b)
        assert got_rho == pytest.approx(rho, abs=1e-14)
        assert got_theta == pytest.approx(theta, abs=1e-14)

    def test_matches_cosine_sum(self):
        # 2a cos(w t) - 2b sin(w t) must equal rho sin(w t + theta).
        rng = rng_from_seed(11)
        t = np.linspace(0.0, 5.0, 64)
        for _ in range(50):
            a, b = rng.normal(size=2)
            rho, theta = sdof_response_params(a, b)
            direct = 2 * a * np.cos(1.7 * t) - 2 * b * np.sin(1.7 * t)
            npt.assert_allclose(rho * np.sin(1.7 * t + theta), direct, atol=1e-12)

    def test_theta_range(self):
        rng = rng_from_seed(13)
        for _ in range(200):
            _, theta = sdof_response_params(*rng.normal(size=2))
            assert -math.pi / 2 < theta <= 3 * math.pi / 2


class TestSdofParams:
    def test_from_amplitude_roundtrip(self):
        params = SdofParams.from_amplitude(2.0, 1.0, 0.0)
        assert params.rho == pytest.approx(2.0)
        assert params.theta == pytest.approx(math.pi / 2)

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            SdofParams(0.0, 0.0, 1.0, 0.0)
        with pytest.raises(InvalidArgument):
            SdofParams(1.0, -0.1, 1.0, 0.0)
        with pytest.raises(InvalidArgument):
            SdofParams(1.0, 0.0, 1.0, 2 * math.pi)

    def test_undamped_roots_are_imaginary(self):
        roots = SdofParams(3.0, 0.0, 1.0, 0.0).characteristic_roots()
        npt.assert_allclose(sorted(r.imag for r in roots), [-3.0, 3.0])
        assert all(abs(r.real) < 1e-12 for r in roots)

    def test_critical_damping_double_root(self):
        roots = SdofParams(3.0, 1.0, 1.0, 0.0).characteristic_roots()
        npt.assert_allclose([r.real for r in roots], [-3.0, -3.0], atol=1e-12)

    def test_undamped_displacement(self):
        params = SdofParams(2.0, 0.0, 1.5, 0.3)
        t = np.linspace(0.0, 3.0, 7)
        npt.assert_allclose(params.undamped_displacement(t), 1.5 * np.sin(2.0 * t + 0.3))


class TestResponseEvaluation:
    def test_zero_amplitudes_give_zero_response(self):
        basis = ModalBasis(np.eye(3), np.array([3.0, 2.0, 1.0]), np.zeros(3))
        npt.assert_array_equal(evaluate_displacement(basis, np.linspace(0, 5, 11)), 0.0)

    def test_single_mode_cosine(self):
        # A = 1/2 (a=1/2, b=0) with unit shape gives u(t) = cos(w t).
        basis = ModalBasis(np.eye(1), np.array([2.0]), np.array([0.5]))
        t = np.linspace(0.0, 4.0, 33)
        npt.assert_allclose(evaluate_displacement(basis, t)[0], np.cos(2.0 * t), atol=1e-12)

    def test_analytic_half_turn_negates_shape(self):
        basis = ModalBasis(np.eye(1), np.array([np.pi]), np.array([1.0]))
        npt.assert_allclose(evaluate_analytic(basis, 1.0), [-1.0 + 0.0j], atol=1e-12)

    def test_analytic_at_zero_is_shape_amplitude_product(self):
        rng = rng_from_seed(17)
        basis = random_basis(rng, 4)
        npt.assert_allclose(
            evaluate_analytic(basis, 0.0),
            basis.mode_shapes @ basis.amplitudes,
            atol=1e-12,
        )

    def test_analytic_real_part_identity(self):
        # u(t) = 2 Re v(t) at random times, for random bases and amplitudes.
        rng = rng_from_seed(21)
        for _ in range(10):
            basis = random_basis(rng, int(rng.integers(2, 6)))
            t = rng.uniform(0.0, 10.0, size=100)
            u = evaluate_displacement(basis, t)
            v = evaluate_analytic(basis, t)
            npt.assert_allclose(2.0 * v.real, u, atol=1e-10)

    def test_scalar_and_array_shapes(self):
        basis = random_basis(rng_from_seed(5), 3)
        assert evaluate_analytic(basis, 0.5).shape == (3,)
        assert evaluate_analytic(basis, np.zeros(9)).shape == (3, 9)
        assert evaluate_displacement(basis, 0.5).shape == (3,)

    def test_missing_amplitudes_rejected(self):
        basis = ModalBasis(np.eye(2), np.array([2.0, 1.0]))
        with pytest.raises(InvalidArgument):
            evaluate_analytic(basis, 0.0)


class TestAnalyticFromReal:
    def test_real_part_projection(self):
        rng = rng_from_seed(31)
        for m in (16, 17, 400):
            x = rng.normal(size=m)
            npt.assert_allclose(analytic_from_real(x).real, x, atol=1e-12)

    def test_recovers_modal_analytic_signal_on_grid(self):
        # In-band on-grid tones: the analytic signal is exactly 2 v(t).
        m, t_s = 64, 0.25
        schedule = uniform_schedule(t_s, m)
        freqs = 2 * np.pi * np.array([9.0, 3.0]) / (m * t_s)
        basis = ModalBasis(np.eye(2), freqs, np.array([0.4 - 0.2j, 1.0 + 0.5j]))
        v = evaluate_analytic(basis, schedule.times)
        for row in range(2):
            recovered = analytic_from_real(2.0 * v[row].real, schedule)
            npt.assert_allclose(recovered, 2.0 * v[row], atol=1e-10)

    def test_constant_input_preserved(self):
        npt.assert_allclose(analytic_from_real(3.0 * np.ones(10)), 3.0 * np.ones(10), atol=1e-12)

    def test_on_grid_cosine_becomes_exponential(self):
        m, k = 32, 5
        t = np.arange(m)
        x = np.cos(2 * np.pi * k * t / m)
        npt.assert_allclose(analytic_from_real(x), np.exp(2j * np.pi * k * t / m), atol=1e-9)

    def test_two_tone_linearity(self):
        m = 64
        t = np.arange(m)
        x1 = np.cos(2 * np.pi * 3 * t / m)
        x2 = np.sin(2 * np.pi * 11 * t / m)
        npt.assert_allclose(
            analytic_from_real(x1 + x2),
            analytic_from_real(x1) + analytic_from_real(x2),
            atol=1e-12,
        )

    def test_rejects_random_schedule(self):
        from modalcs import random_schedule

        schedule = random_schedule(2.0, 16, seed=0)
        with pytest.raises(NonUniformInput):
            analytic_from_real(np.zeros(16), schedule)

    def test_rejects_short_input(self):
        with pytest.raises(InvalidArgument):
            analytic_from_real(np.array([1.0]))
