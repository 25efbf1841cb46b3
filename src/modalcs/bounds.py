"""Sampling requirements and mode-shape error bounds.

Three sampling regimes are covered: uniform grids (Dirichlet-kernel Gram
analysis), i.i.d. random times (a Chernoff eigenvalue sandwich), and random
compression (a distributional Johnson-Lindenstrauss tail).  The uniform and
random regimes have requirements calculators that turn (N, frequency
separations, tolerance) into a sampling plan; compression has its tail-rate
exponent.  Diagnostics measure how far an actual steering matrix deviates
from orthonormal rows.

All logarithms are natural.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, InvalidArgument, ShapeError, _checked_array, _checked_count,
                     _checked_real)

EULER_GAMMA = float(np.euler_gamma)
ROOT2 = math.sqrt(2.0)

# ln(floor(N/2)) + 1.01 upper-bounds the harmonic number H_{floor(N/2)}
# (see harmonic_number_bounds); the 1.01 absorbs gamma + the bracket slack.
_HARMONIC_PAD = 1.01
_MAX_HARMONIC_N = 10**7  # harmonic_number_bounds sums n terms: 80 MB of them at most


def psinc(x, m):
    """Periodic sinc (Dirichlet kernel) sin(m x / 2) / (m sin(x / 2)).

    At the removable singularities x = 2 pi k the value is (-1)^(k (m - 1)).
    Accepts scalars or arrays; m is the number of samples in the kernel, or
    an array of them that broadcasts against x.
    """
    m, x = _checked_counts(m), _checked_array(x, "x", float)
    # Reduce to r = x - 2 pi k, which is exact up to rounding of 2 pi k and
    # keeps sin(r/2) well away from catastrophic cancellation at multiples.
    k = np.round(x / (2.0 * math.pi))
    r = x - 2.0 * math.pi * k
    sign = np.where(np.fmod(k, 2.0) * (m - 1) % 2.0 == 0.0, 1.0, -1.0)  # k's parity, exact
    with np.errstate(invalid="ignore"):
        core = np.where(r == 0.0, 1.0, np.sin(m * r / 2.0) / (m * np.sin(r / 2.0)))
    out = sign * core
    return float(out) if out.ndim == 0 else out


def _checked_counts(m):
    """m as an int if it is a scalar, else as an int array of the counts it holds."""
    counts = np.asarray(m, dtype=object)  # a ragged sequence holds lists, which fail below
    checked = np.array(list(map(_checked_count, counts.flat)), int).reshape(counts.shape)
    return checked if counts.ndim else int(checked)


def kl_div(a: float, b: float) -> float:
    """Binary KL divergence D(a || b) in nats, with 0 log 0 taken as 0."""
    a = _checked_real(a, "a", lo=-np.inf)  # a number; the closed range is checked below
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"a must lie in [0, 1], got {a}")
    b = _checked_real(b, "b", hi=1.0)
    total = 0.0
    if a > 0.0:
        total += a * math.log(a / b)
    if a < 1.0:
        total += (1.0 - a) * math.log((1.0 - a) / (1.0 - b))
    return total


def harmonic_number_bounds(n: int) -> tuple[float, float, float]:
    """Harmonic number H_n with analytic brackets on H_n - ln n - gamma.

    Returns (lower, h_n, upper) where

        lower = 1 / (2n + 1/(1 - gamma) - 2) <= H_n - ln n - gamma
              < upper = 1 / (2n + 1/3)

    and the lower bound is attained only at n = 1.  The bracket is proven,
    not computed: h_n - ln(n) - gamma in doubles is too noisy to resolve the
    upper margin beyond n ~ 1e4, so the tests check it against a
    cancellation-free evaluation of the difference.  n > _MAX_HARMONIC_N raises DomainError.
    """
    n = _checked_count(n, "n", hi=_MAX_HARMONIC_N)
    h_n = float(np.sum(1.0 / np.arange(1, n + 1, dtype=float)))
    lower = 1.0 / (2.0 * n + 1.0 / (1.0 - EULER_GAMMA) - 2.0)
    upper = 1.0 / (2.0 * n + 1.0 / 3.0)
    return lower, h_n, upper


@dataclass(frozen=True)
class SamplingPlan:
    """Sampling parameters sufficient for a target Gram deviation epsilon.

    ``t_s`` is None for the random scheme (no grid); ``tau`` is None for the
    uniform scheme (no failure probability).
    """

    scheme: str
    n_modes: int
    t_max_min: float
    m_min: int
    epsilon: float
    t_s: float | None = None
    tau: float | None = None


def _check_common(n: int, epsilon: float) -> tuple[int, float, float]:
    n = _checked_count(n, "n", lo=2)
    return n, _checked_real(epsilon, "epsilon", hi=1.0), math.log(n // 2) + _HARMONIC_PAD


def uniform_requirements(n: int, delta_min: float, delta_max: float, epsilon: float) -> SamplingPlan:
    """Uniform-grid plan: T_s = pi / delta_max and

        t_max >= 2 pi (ln floor(N/2) + 1.01) / (epsilon delta_min)
        M     >= max(2 (ln floor(N/2) + 1.01) / epsilon * delta_max/delta_min + 1, N)

    guaranteeing gram_deviation(S) <= epsilon for any N frequencies whose
    pairwise separations lie in [delta_min, delta_max].
    """
    n, epsilon, log_term = _check_common(n, epsilon)
    delta_min = _checked_real(delta_min, "delta_min")
    delta_max = _checked_real(delta_max, "delta_max")
    if not delta_min <= delta_max:
        raise DomainError("need 0 < delta_min <= delta_max")
    t_s = math.pi / delta_max
    t_max_min = 2.0 * math.pi * log_term / (epsilon * delta_min)
    m_raw = 2.0 * log_term / epsilon * (delta_max / delta_min) + 1.0
    m_min = max(math.ceil(_checked_real(m_raw, "the M bound")), n)  # ceil(inf) would overflow
    return SamplingPlan("uniform", n, t_max_min, m_min, epsilon, t_s=t_s)


def random_requirements(n: int, delta_min: float, epsilon: float, tau: float) -> SamplingPlan:
    """Random-time plan: with probability at least 1 - tau,

        t_max >= 40 (ln floor(N/2) + 1.01) / (epsilon delta_min)
        M     >  max((ln N + ln(2/tau)) / min(D1, D2), N)

    puts every eigenvalue of [S][S]* inside (1 - epsilon, 1 + epsilon).
    D1, D2 are binary KL divergences comparing the target deviation
    (1 +/- epsilon)/N against the expected one (1 +/- epsilon/10)/N.
    """
    n, epsilon, log_term = _check_common(n, epsilon)
    delta_min, tau = _checked_real(delta_min, "delta_min"), _checked_real(tau, "tau", hi=1.0)
    t_max_min = 40.0 * log_term / (epsilon * delta_min)
    d1 = kl_div((1.0 + epsilon) / n, (1.0 + epsilon / 10.0) / n)
    d2 = kl_div((1.0 - epsilon) / n, (1.0 - epsilon / 10.0) / n)
    m_bound = max((math.log(n) + math.log(2.0 / tau)) / min(d1, d2), float(n))
    m_min = int(math.floor(m_bound)) + 1  # strict inequality
    return SamplingPlan("random", n, t_max_min, m_min, epsilon, tau=tau)


def jl_tail_rate(epsilon: float) -> float:
    """Exponent rate f(eps) = eps^2/4 - eps^3/6 of the compression tail bound.

    A matrix with the distributional JL property satisfies, for fixed x,
    Pr[| ||Phi* x||^2 - ||x||^2 | > eps ||x||^2] <= 4 exp(-M' f(eps)).
    """
    epsilon = _checked_real(epsilon, "epsilon", hi=1.0)
    return epsilon**2 / 4.0 - epsilon**3 / 6.0


def sep_values(magnitudes, epsilon: float) -> np.ndarray:
    """Amplitude-separation factors sep_n(epsilon) for every mode.

        sep_n = max_{l != n} sqrt(2) |A_l| |A_n|
                / min_{c in [-1, 1]} | |A_l|^2 - |A_n|^2 (1 + c epsilon) |

    The inner minimum of the affine-in-c expression is zero when the sign
    changes over [-1, 1] (then sep_n = inf) and otherwise sits at one of the
    endpoints.  Modes with identical magnitudes also give inf.
    """
    epsilon = _checked_real(epsilon, "epsilon", hi=1.0)
    mags = np.abs(_checked_array(magnitudes, "magnitudes", float))
    if mags.ndim != 1 or mags.size < 2:
        raise InvalidArgument("need at least two magnitudes")
    if np.any(mags == 0.0):
        raise InvalidArgument("magnitudes must be finite and nonzero")
    n = mags.size
    out = np.empty(n)
    for i in range(n):
        best = 0.0
        for l in range(n):
            if l == i:
                continue
            g_lo = mags[l] ** 2 - mags[i] ** 2 * (1.0 - epsilon)
            g_hi = mags[l] ** 2 - mags[i] ** 2 * (1.0 + epsilon)
            denom = 0.0 if g_lo * g_hi <= 0.0 else min(abs(g_lo), abs(g_hi))
            num = ROOT2 * mags[l] * mags[i]
            best = max(best, math.inf if denom == 0.0 else num / denom)
        out[i] = best
    return out


def mode_error_bound(magnitudes, epsilon: float, n: int) -> float:
    """Per-mode aligned error bound min{sqrt(2), eps sqrt(1+eps)/sqrt(1-eps) sep_n(eps)}.

    ``magnitudes`` are |A_n| for uniform and random sampling and the singular
    values of the uncompressed data matrix for compressed sampling; the
    formula is the same, only the inputs differ.  ``n`` indexes magnitudes.
    """
    epsilon, n = _checked_real(epsilon, "epsilon", hi=1.0), _checked_count(n, "n", lo=0)
    seps = sep_values(magnitudes, epsilon)
    if n >= seps.size:
        raise InvalidArgument(f"mode index {n} out of range")
    factor = epsilon * math.sqrt(1.0 + epsilon) / math.sqrt(1.0 - epsilon)
    return min(ROOT2, factor * seps[n])


def gram_deviation(steering):
    """Spectral norm of [S][S]* - [I] for N x M [S], the perturbation the bounds control;
    an array of one per matrix for an (..., N, M) stack."""
    s = _checked_array(steering, "steering")
    if s.ndim < 2:
        raise ShapeError(f"steering matrix must be 2-d or a stack of them, got shape {s.shape}")
    gram = s @ np.swapaxes(s.conj(), -1, -2)
    deviation = np.linalg.norm(gram - np.eye(s.shape[-2]), 2, axis=(-2, -1))
    return float(deviation) if s.ndim == 2 else deviation


def gershgorin_uniform_bound(frequencies, t_s: float, m):
    """Gershgorin radius of the uniform-schedule Gram perturbation:

        max_l sum_{n != l} | psinc(|w_l - w_n| T_s, M) |

    This dominates gram_deviation for any T_s because the off-diagonal Gram
    entries have exactly these magnitudes.  A warning is issued when
    T_s > pi / delta_max, outside the region the sampling theorem addresses.
    For a 1-d sequence of counts M the result is an array of one bound per count.
    """
    freqs = _checked_array(frequencies, "frequencies", float)
    if freqs.ndim != 1 or freqs.size < 2:
        raise InvalidArgument("need at least two finite frequencies")
    t_s, m = _checked_real(t_s, "t_s"), _checked_counts(m)
    diffs = np.abs(freqs[:, None] - freqs[None, :])
    delta_max = diffs.max()
    # Relative slack keeps the exact theorem rate T_s = pi/delta_max from
    # warning through rounding in the recomputed gap.
    if t_s > math.pi / delta_max * (1.0 + 1e-9):
        warnings.warn(
            "T_s exceeds pi/delta_max; the bound is still valid as a Gershgorin "
            "radius but the sampling theorem does not apply",
            stacklevel=2,
        )
    kernel = np.abs(psinc(diffs * t_s, m if np.ndim(m) == 0 else m[..., None, None]))
    kernel[..., range(freqs.size), range(freqs.size)] = 0.0
    radii = kernel.sum(axis=-1).max(axis=-1)
    return float(radii) if radii.ndim == 0 else radii
