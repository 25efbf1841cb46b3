"""Undamped multi-degree-of-freedom models and their modal responses.

The model is [M]{u''} + [K]{u} = {0} with a diagonal positive mass matrix
and a symmetric stiffness matrix.  Free vibration decomposes into modes:
unit-norm shape vectors at distinct modal frequencies, each carrying a
complex amplitude A_n = a_n + i b_n set by the initial conditions.  The
displacement response and its analytic (positive-frequency) counterpart

    u(t) = sum_n psi_n rho_n sin(w_n t + theta_n)
    v(t) = sum_n psi_n A_n exp(i w_n t),      u(t) = 2 Re v(t)

are evaluated here, along with the closed-form (rho, theta) map for a
single mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgument,
    NonPositiveEigenvalue,
    NonUniformInput,
    NotSymmetric,
)

# Tolerances are part of the public contract: constructors reject anything
# worse, so downstream code can rely on the invariants without re-checking.
_SYMMETRY_RTOL = 1e-12
_ORTHONORMALITY_TOL = 1e-10
_RESIDUAL_RTOL = 1e-8
_FREQUENCY_GAP_RTOL = 1e-9


def _as_square(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgument(f"{name} must be a square 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidArgument(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class MdofSystem:
    """Lumped mass/stiffness model.

    Parameters
    ----------
    mass : (N, N) array_like
        Diagonal matrix with strictly positive diagonal entries.
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
        off = mass - np.diag(np.diag(mass))
        if np.any(off != 0.0):
            raise InvalidArgument("mass matrix must be diagonal")
        if np.any(np.diag(mass) <= 0.0):
            raise InvalidArgument("mass matrix diagonal must be strictly positive")
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
    complex entry per mode.
    """

    mode_shapes: np.ndarray
    frequencies: np.ndarray
    amplitudes: np.ndarray | None = None

    def __post_init__(self):
        shapes = np.asarray(self.mode_shapes, dtype=float)
        freqs = np.asarray(self.frequencies, dtype=float)
        if shapes.ndim != 2 or shapes.shape[0] != shapes.shape[1]:
            raise InvalidArgument(f"mode_shapes must be square, got {shapes.shape}")
        n = shapes.shape[0]
        if freqs.shape != (n,):
            raise InvalidArgument(f"expected {n} frequencies, got shape {freqs.shape}")
        gram = shapes.T @ shapes
        dev = np.abs(gram - np.eye(n)).max()
        if dev > _ORTHONORMALITY_TOL:
            raise InvalidArgument(
                f"mode shapes are not orthonormal (max Gram deviation {dev:.3e})"
            )
        if np.any(freqs <= 0.0) or not np.all(np.isfinite(freqs)):
            raise InvalidArgument("frequencies must be finite and strictly positive")
        if np.any(np.diff(freqs) > 0.0):
            raise InvalidArgument("frequencies must be sorted in descending order")
        object.__setattr__(self, "mode_shapes", shapes)
        object.__setattr__(self, "frequencies", freqs)
        if self.amplitudes is not None:
            amps = np.asarray(self.amplitudes, dtype=complex)
            if amps.shape != (n,):
                raise InvalidArgument(f"expected {n} amplitudes, got shape {amps.shape}")
            object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def ordered(cls, mode_shapes, frequencies, amplitudes=None) -> "ModalBasis":
        """Build a basis from modes in any order, sorting by descending frequency.

        Columns of ``mode_shapes`` and entries of ``amplitudes`` ride along
        with their frequency.
        """
        shapes = np.asarray(mode_shapes, dtype=float)
        freqs = np.asarray(frequencies, dtype=float)
        order = np.argsort(-freqs, kind="stable")
        amps = None
        if amplitudes is not None:
            amps = np.asarray(amplitudes, dtype=complex)[order]
        return cls(shapes[:, order], freqs[order], amps)

    @property
    def n_dof(self) -> int:
        return self.mode_shapes.shape[0]

    def with_amplitudes(self, amplitudes) -> "ModalBasis":
        return ModalBasis(self.mode_shapes, self.frequencies, amplitudes)


def canonical_sign(matrix: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is positive.

    Ties resolve to the first occurrence (np.argmax).  Returns a copy.
    """
    out = np.array(matrix, dtype=float)
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0.0:
            out[:, j] = -out[:, j]
    return out


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
        frequencies make individual mode shapes non-identifiable.  Also if
        the mass matrix is diagonal but not scalar: pencil eigenvectors are
        then mass-orthogonal rather than mutually orthogonal, and no scaling
        can satisfy the orthonormal-basis contract.
    """
    # The mass is diagonal and positive: with D = M^-1/2 the pencil becomes
    # the symmetric problem (D K D) z = w^2 z, and psi = D z.
    d = 1.0 / np.sqrt(np.diag(system.mass))
    evals, z = np.linalg.eigh(d[:, None] * system.stiffness * d)
    vecs = d[:, None] * z
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
    # Post-condition of the solve, independent of the eigensolver used.
    k_norm = np.linalg.norm(system.stiffness, 2)
    residual = system.stiffness @ vecs - system.mass @ vecs * (freqs**2)
    worst = np.linalg.norm(residual, axis=0).max()
    if worst > _RESIDUAL_RTOL * k_norm:
        raise NonPositiveEigenvalue(
            f"eigen-residual {worst:.3e} exceeds {_RESIDUAL_RTOL:.0e} * ||K||"
        )
    return ModalBasis(vecs, freqs)


def sdof_response_params(a: float, b: float) -> tuple[float, float]:
    """Amplitude and phase of a single undamped mode from A = a + i b.

    The real response 2a cos(w0 t) - 2b sin(w0 t) equals rho sin(w0 t + theta)
    with rho = 2 sqrt(a^2 + b^2) and

        theta = arcsin(a / sqrt(a^2 + b^2))        if b <= 0
        theta = pi - arcsin(a / sqrt(a^2 + b^2))   if b > 0

    Returns (rho, theta) with theta in (-pi/2, 3*pi/2]; the zero amplitude
    maps to (0.0, 0.0).
    """
    r = math.hypot(a, b)
    if r == 0.0:
        return 0.0, 0.0
    s = math.asin(a / r)
    theta = s if b <= 0.0 else math.pi - s
    if theta <= -math.pi / 2:
        # arcsin hits -pi/2 only for a = -r, b = 0; wrap into the range.
        theta += 2.0 * math.pi
    return 2.0 * r, theta


@dataclass(frozen=True)
class SdofParams:
    """Single-degree-of-freedom response parameters.

    ``natural_frequency`` w0 > 0 and ``damping_ratio`` xi >= 0 describe the
    oscillator; ``rho`` >= 0 and ``theta`` in (-pi/2, 3*pi/2] describe the
    undamped response rho sin(w0 t + theta).
    """

    natural_frequency: float
    damping_ratio: float
    rho: float
    theta: float

    def __post_init__(self):
        if not self.natural_frequency > 0.0:
            raise InvalidArgument("natural_frequency must be > 0")
        if self.damping_ratio < 0.0:
            raise InvalidArgument("damping_ratio must be >= 0")
        if self.rho < 0.0:
            raise InvalidArgument("rho must be >= 0")
        if not (-math.pi / 2 < self.theta <= 3 * math.pi / 2):
            raise InvalidArgument("theta must lie in (-pi/2, 3*pi/2]")

    @classmethod
    def from_amplitude(cls, natural_frequency, a, b, damping_ratio=0.0) -> "SdofParams":
        rho, theta = sdof_response_params(a, b)
        return cls(natural_frequency, damping_ratio, rho, theta)

    def characteristic_roots(self) -> tuple[complex, complex]:
        """Roots s = -xi w0 +/- w0 sqrt(xi^2 - 1) of the SDOF polynomial."""
        w0, xi = self.natural_frequency, self.damping_ratio
        root = w0 * complex(xi**2 - 1.0) ** 0.5
        return (-xi * w0 + root, -xi * w0 - root)

    def undamped_displacement(self, t):
        """rho sin(w0 t + theta); only meaningful when damping_ratio == 0."""
        return self.rho * np.sin(self.natural_frequency * np.asarray(t) + self.theta)


def _amplitudes_or_raise(basis: ModalBasis) -> np.ndarray:
    if basis.amplitudes is None:
        raise InvalidArgument("basis has no amplitudes; use with_amplitudes() first")
    return basis.amplitudes


def evaluate_displacement(basis: ModalBasis, t):
    """Real displacement u(t) = sum_n psi_n rho_n sin(w_n t + theta_n).

    ``t`` may be a scalar (returns shape (N,)) or a 1-d array of times
    (returns shape (N, len(t))).
    """
    amps = _amplitudes_or_raise(basis)
    rho = np.empty(basis.n_dof)
    theta = np.empty(basis.n_dof)
    for n, a_n in enumerate(amps):
        rho[n], theta[n] = sdof_response_params(a_n.real, a_n.imag)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    modal = rho[:, None] * np.sin(np.outer(basis.frequencies, t_arr) + theta[:, None])
    u = basis.mode_shapes @ modal
    return u[:, 0] if np.ndim(t) == 0 else u


def evaluate_analytic(basis: ModalBasis, t):
    """Analytic response v(t) = sum_n psi_n A_n exp(i w_n t).

    Shapes follow evaluate_displacement.  2 Re v(t) equals u(t).
    """
    amps = _amplitudes_or_raise(basis)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    modal = amps[:, None] * np.exp(1j * np.outer(basis.frequencies, t_arr))
    v = basis.mode_shapes @ modal
    return v[:, 0] if np.ndim(t) == 0 else v


def analytic_from_real(samples, schedule=None):
    """Analytic signal of a uniformly sampled real sequence via the FFT.

    Negative-frequency bins are zeroed, strictly positive bins doubled, and
    the DC (and Nyquist, for even length) bins kept as-is, so the real part
    of the output reproduces the input.

    Parameters
    ----------
    samples : (M,) array_like of float
        Uniformly sampled real signal, M >= 2.
    schedule : SampleSchedule, optional
        When given, its scheme is checked; a non-uniform schedule raises
        NonUniformInput since this construction is undefined off the grid.

    Returns
    -------
    (M,) complex ndarray
    """
    if schedule is not None and getattr(schedule, "scheme", None) != "uniform":
        raise NonUniformInput("analytic extraction requires a uniform schedule")
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise InvalidArgument("samples must be a 1-d real sequence with M >= 2")
    m = x.size
    spec = np.fft.fft(x)
    gain = np.zeros(m)
    gain[0] = 1.0
    if m % 2 == 0:
        gain[m // 2] = 1.0
        gain[1 : m // 2] = 2.0
    else:
        gain[1 : (m + 1) // 2] = 2.0
    return np.fft.ifft(spec * gain)
