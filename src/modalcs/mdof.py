"""Undamped multi-degree-of-freedom models and their modal bases.

The model is [M]{u''} + [K]{u} = {0} with a mass matrix that is a positive
multiple of the identity and a symmetric stiffness matrix.  Free vibration
decomposes into modes: unit-norm shape vectors at distinct modal
frequencies, each carrying a complex amplitude A_n set by the initial
conditions.  solve_modes returns the shapes and frequencies; the sampling
module turns a basis with amplitudes into data.  canonical_sign fixes the
phase of any set of shape columns so that results do not depend on the
eigen- or SVD solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidArgument, NonPositiveEigenvalue, NotSymmetric, ShapeError,
                     _checked_array, _checked_type)

# Tolerances are part of the public contract: constructors reject anything
# worse, so downstream code can rely on the invariants without re-checking.
_SYMMETRY_RTOL = 1e-12
_ORTHONORMALITY_TOL = 1e-10
_FREQUENCY_GAP_RTOL = 1e-9


def _as_square(a, name):
    a = _checked_array(a, name, float)
    if a.ndim != 2 or not a.shape[0] == a.shape[1] > 0:
        raise InvalidArgument(f"{name} must be a non-empty square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class MdofSystem:
    """Lumped mass/stiffness model.

    Parameters
    ----------
    mass : (N, N) array_like
        Positive multiple of the identity: only then are the pencil's
        eigenvectors mutually orthogonal, as a ModalBasis needs.
    stiffness : (N, N) array_like
        Symmetric matrix (relative asymmetry at most 1e-12).
    """

    mass: np.ndarray
    stiffness: np.ndarray

    def __post_init__(self):
        mass = _as_square(self.mass, "mass")
        stiffness = _as_square(self.stiffness, "stiffness")
        if mass.shape != stiffness.shape:
            raise InvalidArgument(
                f"mass {mass.shape} and stiffness {stiffness.shape} differ in size"
            )
        if mass[0, 0] <= 0.0 or np.any(mass != mass[0, 0] * np.eye(len(mass))):
            raise InvalidArgument("mass matrix must be a positive multiple of the identity")
        scale = max(1.0, np.abs(stiffness).max())
        if np.abs(stiffness - stiffness.T).max() > _SYMMETRY_RTOL * scale:
            raise NotSymmetric("stiffness matrix is not symmetric to 1e-12 relative")
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "stiffness", stiffness)

    @property
    def n_dof(self) -> int:
        return self.mass.shape[0]


@dataclass(frozen=True)
class ModalBasis:
    """Orthonormal mode shapes with their frequencies and optional amplitudes.

    Invariants enforced at construction: columns of ``mode_shapes`` are
    orthonormal (max deviation 1e-10), ``frequencies`` are strictly positive
    and sorted in descending order, and ``amplitudes`` (when present) has one
    finite complex entry per mode.
    """

    mode_shapes: np.ndarray
    frequencies: np.ndarray
    amplitudes: np.ndarray | None = None

    def __post_init__(self):
        shapes = _checked_array(self.mode_shapes, "mode_shapes", float)
        freqs = _checked_array(self.frequencies, "frequencies", float)
        if shapes.ndim != 2 or shapes.shape[0] != shapes.shape[1] or not shapes.size:
            raise InvalidArgument(f"mode_shapes must be square and non-empty, got {shapes.shape}")
        n = shapes.shape[0]
        if freqs.shape != (n,):
            raise InvalidArgument(f"expected {n} frequencies, got shape {freqs.shape}")
        gram = shapes.T @ shapes
        dev = np.abs(gram - np.eye(n)).max()
        if dev > _ORTHONORMALITY_TOL:
            raise InvalidArgument(
                f"mode shapes are not orthonormal (max Gram deviation {dev:.3e})"
            )
        if np.any(freqs <= 0.0):
            raise InvalidArgument("frequencies must be finite and strictly positive")
        if np.any(np.diff(freqs) > 0.0):
            raise InvalidArgument("frequencies must be sorted in descending order")
        object.__setattr__(self, "mode_shapes", shapes)
        object.__setattr__(self, "frequencies", freqs)
        if self.amplitudes is not None:
            amps = _checked_array(self.amplitudes, "amplitudes", complex)
            if amps.shape != (n,):
                raise InvalidArgument(f"expected {n} amplitudes, got shape {amps.shape}")
            object.__setattr__(self, "amplitudes", amps)

    @property
    def n_dof(self) -> int:
        return self.mode_shapes.shape[0]

    def with_amplitudes(self, amplitudes) -> "ModalBasis":
        return ModalBasis(self.mode_shapes, self.frequencies, amplitudes)


def _unit_phase(values: np.ndarray) -> np.ndarray:
    """values / |values| elementwise, and 1 where |values| is 0."""
    mags = np.abs(values)
    return np.where(mags > 0.0, values / np.where(mags > 0.0, mags, 1.0), 1.0)


def _pivot_phases(columns: np.ndarray) -> np.ndarray:
    """Unit phase p / |p| of the largest-magnitude entry p of each column of (..., N, K).

    Ties resolve to the first occurrence (np.argmax); a zero column gets
    phase 1.  Real columns give real phases, that is, signs.
    """
    rows = np.argmax(np.abs(columns), axis=-2)[..., None, :]
    return _unit_phase(np.take_along_axis(columns, rows, axis=-2)[..., 0, :])


def canonical_sign(matrix: np.ndarray) -> np.ndarray:
    """Rotate each column of a matrix, or of each matrix of an (..., N, K) stack, so its
    largest-magnitude entry is real positive.

    Real columns have their sign flipped where needed and stay float64;
    complex columns are multiplied by the conjugate pivot phase.  Ties
    resolve to the first occurrence (np.argmax), and a zero column comes
    back unchanged.  Returns a new array.
    """
    out = _checked_array(matrix, "matrix")
    if out.ndim < 2 or out.shape[-2] == 0:
        raise ShapeError(f"need columns of at least one entry, got shape {out.shape}")
    return out * np.conj(_pivot_phases(out))[..., None, :]


def solve_modes(system: MdofSystem) -> ModalBasis:
    """Solve ([K] - w^2 [M]) {psi} = {0} for all modes of the system.

    Parameters
    ----------
    system : MdofSystem

    Returns
    -------
    ModalBasis
        Unit-norm mode shapes (columns), frequencies sorted in descending
        order, amplitudes unset.  Each column's largest-magnitude entry is
        made positive so results are reproducible across LAPACK builds.

    Raises
    ------
    NonPositiveEigenvalue
        If the pencil has an eigenvalue <= 0 (the model is then not a
        free-vibrating structure).
    InvalidArgument
        If two modal frequencies coincide to within 1e-9 relative; repeated
        frequencies make individual mode shapes non-identifiable.
    """
    system = _checked_type(system, MdofSystem, "system")
    evals, vecs = np.linalg.eigh(system.stiffness / system.mass[0, 0])
    if evals[0] <= 0.0:
        raise NonPositiveEigenvalue(
            f"smallest pencil eigenvalue is {evals[0]:.6e}; expected > 0"
        )
    freqs = np.sqrt(evals)
    order = np.argsort(-freqs, kind="stable")
    freqs = freqs[order]
    vecs = vecs[:, order]
    gaps = -np.diff(freqs)
    if np.any(gaps < _FREQUENCY_GAP_RTOL * freqs[0]):
        raise InvalidArgument(
            "repeated modal frequencies (relative gap below 1e-9); "
            "mode shapes are not individually identifiable"
        )
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    vecs = canonical_sign(vecs)
    return ModalBasis(vecs, freqs)
