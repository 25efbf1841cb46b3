"""Modal decomposition, the pivot-phase convention, and response evaluation."""

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
    NotSymmetric,
    ShapeError,
    build_data_matrix,
    preset_config,
    random_schedule,
    solve_modes,
    uniform_schedule,
)
from modalcs.config import build_system
from modalcs.mdof import canonical_sign
from modalcs.sampling import rng_from_seed

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
            # solve_modes trusts eigh for this; the test does not.
            shapes = modes.mode_shapes
            resid = system.stiffness @ shapes - system.mass @ shapes * modes.frequencies**2
            assert np.linalg.norm(resid, axis=0).max() <= 1e-8 * np.linalg.norm(system.stiffness, 2)

    def test_nonscalar_mass_rejected(self):
        # Pencil eigenvectors are mass-orthogonal, not Euclidean-orthonormal,
        # when the diagonal mass is not scalar.  A diagonal stiffness gives
        # orthonormal unit vectors anyway, so only the mass check catches it.
        for stiffness in ([[2.0, -1.0], [-1.0, 2.0]], [[1.0, 0.0], [0.0, 2.0]]):
            with pytest.raises(InvalidArgument, match="positive multiple of the identity"):
                MdofSystem(np.diag([1.0, 4.0]), np.array(stiffness))

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(InvalidArgument, match=r"^mass \(2, 2\) and stiffness \(3, 3\) differ"):
            MdofSystem(np.eye(2), 2.0 * np.eye(3))

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


def sign_flip_loop(matrix):
    """Column-by-column sign convention, the reference for canonical_sign."""
    out = np.array(matrix, dtype=float)
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0.0:
            out[:, j] = -out[:, j]
    return out


class TestCanonicalSign:
    @pytest.mark.parametrize("shape", [(3,), (), (0, 2)])
    def test_no_columns_is_shape_error(self, shape):
        # A 1-d vector used to leak numpy's AxisError.
        with pytest.raises(ShapeError, match="columns of at least one entry"):
            canonical_sign(np.ones(shape))

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

    def test_complex_pivots_become_real_positive(self):
        rng = rng_from_seed(4)
        for n, k in [(3, 3), (6, 2), (18, 5)]:
            m = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
            fixed = canonical_sign(m)
            pivots = fixed[np.argmax(np.abs(m), axis=0), np.arange(k)]
            # Real to roundoff: p * conj(p / |p|) is |p| up to a few ulps.
            assert np.all(np.abs(pivots.imag) <= 2 * np.finfo(float).eps * pivots.real)
            assert np.all(pivots.real > 0.0)
            # A unit rotation per column: magnitudes are unchanged.
            npt.assert_allclose(np.abs(fixed), np.abs(m), rtol=1e-15)

    def test_real_input_matches_column_loop(self):
        rng = rng_from_seed(5)
        for n, k in [(1, 1), (4, 4), (7, 3), (18, 18)]:
            m = rng.normal(size=(n, k))
            fixed = canonical_sign(m)
            assert fixed.dtype == np.float64
            assert fixed.tobytes() == sign_flip_loop(m).tobytes()
        # Ties resolve to the first occurrence, and integer input becomes float.
        ties = np.array([[-2, 1], [2, -1]])
        assert canonical_sign(ties).tobytes() == sign_flip_loop(ties).tobytes()

    @pytest.mark.parametrize("shape", [(3, 3, 3), (2, 4, 3), (2, 1, 5, 2)])
    def test_stack_matches_slices(self, shape):
        # Each matrix of a stack is rotated by its own pivots; the phases used to broadcast
        # against the wrong axis (a wrong answer at (3, 3, 3), numpy's ValueError at (2, 4, 3)).
        rng = rng_from_seed(6)
        stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        sliced = np.stack([canonical_sign(m) for m in stack.reshape(-1, *shape[-2:])])
        assert canonical_sign(stack).tobytes() == sliced.tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_column_unchanged(self, dtype):
        m = np.array([[0.0, -0.8], [0.0, 0.6]], dtype=dtype)
        fixed = canonical_sign(m)
        assert fixed.dtype == m.dtype
        npt.assert_array_equal(fixed, [[0.0, 0.8], [0.0, -0.6]])


class TestModalBasis:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidArgument):
            ModalBasis(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([2.0, 1.0]))

    def test_rejects_ascending_frequencies(self):
        with pytest.raises(InvalidArgument):
            ModalBasis(np.eye(2), np.array([1.0, 2.0]))

    def test_ordered_sorts_descending(self):
        # solve_modes is where bases get their descending order.
        basis = solve_modes(MdofSystem(np.eye(3), np.diag([1.0, 9.0, 4.0])))
        npt.assert_allclose(basis.frequencies, [3.0, 2.0, 1.0])
        npt.assert_allclose(basis.mode_shapes[:, 0], [0.0, 1.0, 0.0], atol=1e-14)
        npt.assert_allclose(basis.mode_shapes[:, 2], [1.0, 0.0, 0.0], atol=1e-14)

    def test_amplitudes_are_optional(self):
        assert ModalBasis(np.eye(2), np.array([2.0, 1.0])).amplitudes is None
        assert ModalBasis(np.eye(2), np.array([2.0, 1.0]), [1.0, 2.0]).amplitudes.shape == (2,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
    def test_amplitudes_reject_non_finite(self, bad):
        with pytest.raises(InvalidArgument):
            ModalBasis(np.eye(2), np.array([2.0, 1.0]), [1.0, bad])


class TestResponseEvaluation:
    """The analytic response v(t) = sum_n psi_n A_n e^{i w_n t} as sampled by
    build_data_matrix; the displacement is u(t) = 2 Re v(t)."""

    def test_zero_amplitudes_give_zero_response(self):
        basis = ModalBasis(np.eye(3), np.array([3.0, 2.0, 1.0]), np.zeros(3))
        data = build_data_matrix(basis, uniform_schedule(0.5, 11))
        npt.assert_array_equal(data.entries, 0.0)

    def test_single_mode_cosine(self):
        # A = 1/2 (a=1/2, b=0) with unit shape gives u(t) = cos(w t).
        basis = ModalBasis(np.eye(1), np.array([2.0]), np.array([0.5]))
        schedule = uniform_schedule(0.125, 33)
        u = 2.0 * build_data_matrix(basis, schedule).entries.real
        npt.assert_allclose(u[0], np.cos(2.0 * schedule.times), atol=1e-12)

    def test_analytic_half_turn_negates_shape(self):
        basis = ModalBasis(np.eye(1), np.array([np.pi]), np.array([1.0]))
        data = build_data_matrix(basis, uniform_schedule(1.0, 2))
        npt.assert_allclose(data.entries[:, 1], [-1.0 + 0.0j], atol=1e-12)

    def test_analytic_at_zero_is_shape_amplitude_product(self):
        rng = rng_from_seed(17)
        basis = random_basis(rng, 4)
        data = build_data_matrix(basis, uniform_schedule(0.5, 3))
        npt.assert_allclose(
            data.entries[:, 0],
            basis.mode_shapes @ basis.amplitudes,
            atol=1e-12,
        )

    def test_analytic_real_part_identity(self):
        # 2 Re v(t) = sum_n psi_n 2|A_n| cos(w_n t + arg A_n) at random times,
        # for random bases and amplitudes.
        rng = rng_from_seed(21)
        for trial in range(10):
            basis = random_basis(rng, int(rng.integers(2, 6)))
            schedule = random_schedule(10.0, 100, seed=trial)
            v = build_data_matrix(basis, schedule).entries
            amps = basis.amplitudes
            phase = np.outer(basis.frequencies, schedule.times) + np.angle(amps)[:, None]
            u = basis.mode_shapes @ (2.0 * np.abs(amps)[:, None] * np.cos(phase))
            npt.assert_allclose(2.0 * v.real, u, atol=1e-10)

    def test_scalar_and_array_shapes(self):
        basis = random_basis(rng_from_seed(5), 3)
        assert build_data_matrix(basis, uniform_schedule(0.5, 1)).shape == (3, 1)
        assert build_data_matrix(basis, uniform_schedule(0.5, 9)).shape == (3, 9)
        assert build_data_matrix(basis, random_schedule(4.0, 9, seed=0)).shape == (3, 9)

    def test_missing_amplitudes_rejected(self):
        basis = ModalBasis(np.eye(2), np.array([2.0, 1.0]))
        with pytest.raises(InvalidArgument):
            build_data_matrix(basis, uniform_schedule(0.5, 4))
