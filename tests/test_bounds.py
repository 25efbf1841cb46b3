"""Sampling requirements, error bounds, and Gram-deviation oracles."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalcs import (
    DomainError,
    InvalidArgument,
    ShapeError,
    align_and_error,
    build_data_matrix,
    build_steering,
    estimate_modes,
    gershgorin_uniform_bound,
    gram_deviation,
    jl_tail_rate,
    mode_error_bound,
    random_requirements,
    random_schedule,
    uniform_requirements,
    uniform_schedule,
)
from modalcs.bounds import harmonic_number_bounds, kl_div, psinc, sep_values
from modalcs.sampling import rng_from_seed
from test_acceptance import euler_diff

ROOT2 = math.sqrt(2.0)
GAMMA_DIAG = np.array([1.0, 0.45, 0.15, 0.01])
SET1 = np.pi * np.array([2.1, 4.28, 6.02, 8.24])
SET2 = np.pi * np.array([2.1, 4.28, 4.6, 8.24])


class TestPsinc:
    @pytest.mark.parametrize("m", [1, 2, 5, 64])
    def test_unity_at_zero(self, m):
        assert psinc(0.0, m) == 1.0

    def test_removable_singularity_sign(self):
        # At x = 2 pi k the limit is (-1)^(k(M-1)).
        assert psinc(2 * math.pi, 4) == -1.0
        assert psinc(2 * math.pi, 3) == 1.0
        assert psinc(4 * math.pi, 4) == 1.0

    def test_interior_zero(self):
        assert abs(psinc(math.pi, 2)) < 1e-15

    def test_matches_ratio_off_singularity(self):
        x = np.linspace(0.1, 6.0, 57)
        for m in (2, 7, 30):
            direct = np.sin(m * x / 2) / (m * np.sin(x / 2))
            npt.assert_allclose(psinc(x, m), direct, atol=1e-13)

    def test_bounded_by_one(self):
        rng = rng_from_seed(1)
        x = rng.uniform(-50.0, 50.0, size=2000)
        assert np.all(np.abs(psinc(x, 9)) <= 1.0 + 1e-12)

    def test_huge_argument_stays_bounded(self):
        # x / 2 pi beyond int64 used to warn from the integer cast of k.
        assert abs(psinc(1e300, 4)) <= 1.0
        assert psinc(2.0**80 * math.pi, 4) == 1.0  # k = 2**79 is even

    def test_period_shift_sign(self):
        x = np.linspace(0.2, 1.0, 5)
        npt.assert_allclose(psinc(x + 2 * math.pi, 4), -psinc(x, 4), atol=1e-12)
        npt.assert_allclose(psinc(x + 2 * math.pi, 3), psinc(x, 3), atol=1e-12)


class TestKlDiv:
    def test_zero_iff_equal(self):
        assert kl_div(0.5, 0.5) == 0.0
        assert kl_div(0.3, 0.3) == 0.0

    def test_reference_values(self):
        expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        assert kl_div(0.25, 0.5) == pytest.approx(expected, rel=1e-14)
        assert kl_div(0.0, 0.3) == pytest.approx(-math.log(0.7), rel=1e-14)
        assert kl_div(1.0, 0.3) == pytest.approx(-math.log(0.3), rel=1e-14)

    def test_positive_on_grid(self):
        a = np.linspace(0.0, 1.0, 100)
        b = np.linspace(0.01, 0.99, 100)
        for ai in a:
            for bj in b:
                d = kl_div(float(ai), float(bj))
                assert d >= 0.0
                if abs(ai - bj) > 1e-12:
                    assert d > 0.0

    @pytest.mark.parametrize(
        "a, b", [(-0.1, 0.5), (1.1, 0.5), (math.nan, 0.5), (0.5, 0.0), (0.5, 1.0)]
    )
    def test_domain(self, a, b):
        with pytest.raises(DomainError):
            kl_div(a, b)


class TestHarmonicNumberBounds:
    def test_first_value_hits_lower_bound(self):
        lower, h, upper = harmonic_number_bounds(1)
        assert h == 1.0
        diff = h - math.log(1.0) - 0.5772156649015329
        assert diff == pytest.approx(lower, abs=1e-12)
        assert diff < upper

    def test_second_value_strictly_inside(self):
        lower, h, upper = harmonic_number_bounds(2)
        assert h == 1.5
        diff = h - math.log(2.0) - 0.5772156649015329
        assert lower < diff < upper

    def test_thousand_terms(self):
        _, h, _ = harmonic_number_bounds(1000)
        diff = h - math.log(1000.0) - 0.5772156649015329
        assert 2000.333 < 1.0 / diff < 2000.365

    @pytest.mark.parametrize("n", [3, 17, 100, 1000])
    def test_brackets_hold(self, n):
        # Direct float subtraction resolves the bracket only while the
        # margin 1/(72 n^3) dwarfs the ~1e-15 cancellation noise.
        lower, h, upper = harmonic_number_bounds(n)
        diff = h - math.log(n) - 0.5772156649015329
        assert lower <= diff + 1e-14
        assert diff < upper

    @pytest.mark.parametrize("n", [10_000, 10**5, 10**6])
    def test_large_n_self_check(self, n):
        # At these sizes only the cancellation-free evaluation is precise
        # enough to resolve the upper margin 1/(72 n^3).
        lower, _, upper = harmonic_number_bounds(n)
        assert lower - 1e-14 <= euler_diff(n) < upper

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            harmonic_number_bounds(0)


class TestUniformRequirements:
    def test_first_frequency_set(self):
        plan = uniform_requirements(4, 1.74 * math.pi, 6.14 * math.pi, 0.5)
        assert plan.scheme == "uniform"
        assert plan.t_s == pytest.approx(1.0 / 6.14, rel=1e-12)
        assert plan.t_max_min == pytest.approx(3.9153, abs=5e-4)
        assert plan.m_min == 26

    def test_smaller_gap_needs_more_samples(self):
        m_wide = uniform_requirements(4, 1.74 * math.pi, 6.14 * math.pi, 0.5).m_min
        m_tight = uniform_requirements(4, 0.32 * math.pi, 6.14 * math.pi, 0.5).m_min
        assert m_wide == 26
        assert m_tight == 132
        assert 5.0 < m_tight / m_wide < 5.5

    def test_limiting_case(self):
        plan = uniform_requirements(2, 2.0, 2.0, 0.999999)
        assert plan.m_min == 4

    @pytest.mark.parametrize(
        "args",
        [
            (1, 1.0, 2.0, 0.5),
            (0, 1.0, 2.0, 0.5),
            (2.5, 1.0, 2.0, 0.5),
            (4, 0.0, 2.0, 0.5),
            (4, 3.0, 2.0, 0.5),
            (4, 1.0, 2.0, 0.0),
            (4, 1.0, 2.0, 1.0),
        ],
    )
    def test_domain(self, args):
        with pytest.raises(DomainError):
            uniform_requirements(*args)

    # SamplingPlan does not check itself: both factories must build valid plans.
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(n=st.integers(2, 200), delta_min=st.floats(1e-3, 1e3), spread=st.floats(1.0, 1e3),
           epsilon=st.floats(1e-3, 0.999), tau=st.floats(1e-9, 0.999))
    def test_factories_build_valid_plans(self, n, delta_min, spread, epsilon, tau):
        uniform = uniform_requirements(n, delta_min, delta_min * spread, epsilon)
        random = random_requirements(n, delta_min, epsilon, tau)
        for plan, scheme in ((uniform, "uniform"), (random, "random")):
            assert plan.scheme == scheme and plan.n_modes == n and plan.epsilon == epsilon
            assert 0.0 < plan.t_max_min < math.inf and plan.m_min >= n
        assert uniform.t_s == math.pi / (delta_min * spread) and uniform.tau is None
        assert random.t_s is None and random.tau == tau


class TestRandomRequirements:
    def test_first_frequency_set(self):
        plan = random_requirements(4, 1.74 * math.pi, 0.5, 0.05)
        assert plan.scheme == "random"
        assert plan.t_max_min == pytest.approx(24.926, abs=1e-3)
        assert plan.m_min == 168
        assert plan.tau == 0.05

    def test_m_strictly_exceeds_bound(self):
        # Eq. requires strict M > bound, covered by kl_div round-trip.
        plan = random_requirements(4, 1.74 * math.pi, 0.5, 0.1)
        assert plan.m_min == 145
        d1 = kl_div(1.5 / 4, 1.05 / 4)
        d2 = kl_div(0.5 / 4, 0.95 / 4)
        bound = (math.log(4) + math.log(2 / 0.1)) / min(d1, d2)
        assert plan.m_min > bound

    def test_tau_monotonicity(self):
        loose = random_requirements(4, 1.74 * math.pi, 0.5, 0.05).m_min
        tight = random_requirements(4, 1.74 * math.pi, 0.5, 0.025).m_min
        assert tight > loose

    def test_doubling_n_scales_superlinearly(self):
        m4 = random_requirements(4, 1.74 * math.pi, 0.5, 0.05).m_min
        m8 = random_requirements(8, 1.74 * math.pi, 0.5, 0.05).m_min
        assert 2.0 < m8 / m4 < 4.0

    @pytest.mark.parametrize("args", [
        (1, 1.0, 0.5, 0.1), (0, 1.0, 0.5, 0.1), (2**1100, 1.0, 0.5, 0.1),
        (4, 1.0, 0.5, 0.0), (4, 1.0, 1.0, 0.1),
    ])
    def test_domain(self, args):
        with pytest.raises(DomainError):
            random_requirements(*args)


class TestJlRequirements:
    def test_tail_rate(self):
        assert jl_tail_rate(0.5) == pytest.approx(0.25 / 4 - 0.125 / 6, rel=1e-14)


class TestSepAndErrorBound:
    def test_reference_magnitudes(self):
        seps = sep_values(GAMMA_DIAG, 0.1)
        assert seps[0] == pytest.approx(0.9124, abs=2e-4)
        bound = mode_error_bound(GAMMA_DIAG, 0.1, 0)
        assert bound == pytest.approx(0.1009, abs=2e-4)

    def test_grid_search_oracle(self):
        rng = rng_from_seed(5)
        c_grid = np.linspace(-1.0, 1.0, 10_001)
        for _ in range(20):
            mags = np.sort(rng.uniform(0.05, 2.0, size=4))[::-1]
            eps = float(rng.uniform(0.05, 0.9))
            seps = sep_values(mags, eps)
            for n in range(4):
                best = 0.0
                for l in range(4):
                    if l == n:
                        continue
                    signed = mags[l] ** 2 - mags[n] ** 2 * (1 + c_grid * eps)
                    # Affine in c with both endpoints on the grid, so a sign
                    # change in the samples is exactly a zero crossing.
                    if signed.min() <= 0.0 <= signed.max():
                        best = math.inf
                        break
                    best = max(best, ROOT2 * mags[l] * mags[n] / np.abs(signed).min())
                if math.isinf(best):
                    assert math.isinf(seps[n])
                else:
                    assert seps[n] == pytest.approx(best, rel=1e-9)

    def test_saturates_at_root2(self):
        # |A_1|^2 (1 + c eps) sweeps across |A_2|^2, so the bound caps.
        assert mode_error_bound(np.array([1.0, 0.98]), 0.3, 0) == ROOT2

    def test_linear_in_small_epsilon(self):
        slope4 = mode_error_bound(GAMMA_DIAG, 1e-4, 1) / 1e-4
        slope5 = mode_error_bound(GAMMA_DIAG, 1e-5, 1) / 1e-5
        assert slope4 == pytest.approx(slope5, rel=1e-2)

    def test_never_exceeds_root2(self):
        rng = rng_from_seed(6)
        for _ in range(200):
            mags = rng.uniform(0.01, 3.0, size=int(rng.integers(2, 6)))
            eps = float(rng.uniform(0.01, 0.99))
            n = int(rng.integers(0, mags.size))
            assert mode_error_bound(mags, eps, n) <= ROOT2

    def test_epsilon_domain(self):
        with pytest.raises(DomainError):
            mode_error_bound(GAMMA_DIAG, 0.0, 0)
        with pytest.raises(DomainError):
            mode_error_bound(GAMMA_DIAG, 1.0, 0)

    @pytest.mark.parametrize("n", [-1, 0.5, len(GAMMA_DIAG)])
    def test_mode_index_domain(self, n):
        with pytest.raises(InvalidArgument):
            mode_error_bound(GAMMA_DIAG, 0.1, n)

    def test_integral_float_index(self):
        assert mode_error_bound(GAMMA_DIAG, 0.1, 1.0) == mode_error_bound(GAMMA_DIAG, 0.1, 1)


class TestGramDeviation:
    def test_on_grid_zero(self):
        m, t_s = 64, 0.2
        freqs = 2 * math.pi * np.array([3.0, 11.0, 27.0]) / (m * t_s)
        steering = build_steering(freqs, uniform_schedule(t_s, m))
        assert gram_deviation(steering) <= 1e-10

    def test_single_sample_two_modes(self):
        # S = [1, 1]^T: Delta = [[0,1],[1,0]], spectral norm 1.
        steering = build_steering([1.0, 2.0], uniform_schedule(0.5, 1))
        assert gram_deviation(steering) == pytest.approx(1.0, abs=1e-12)

    def test_theorem_plan_meets_epsilon(self):
        plan = uniform_requirements(4, 1.74 * math.pi, 6.14 * math.pi, 0.5)
        schedule = uniform_schedule(plan.t_s, plan.m_min)
        assert gram_deviation(build_steering(SET1, schedule)) <= 0.5

    def test_uniform_plans_dominate_over_draws(self):
        # Any frequency set with gaps in [delta_min, delta_max], sampled per
        # the uniform plan, keeps the Gram deviation at or below epsilon.
        rng = rng_from_seed(77)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            eps = float(rng.uniform(0.2, 0.9))
            gaps = rng.uniform(0.5, 3.0, size=n - 1)
            freqs = float(rng.uniform(0.5, 2.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
            # delta_min / delta_max must cover every pairwise gap, not just
            # the consecutive ones, so read them off the realized set.
            delta_min = float(np.diff(freqs).min())
            delta_max = float(freqs[-1] - freqs[0])
            plan = uniform_requirements(n, delta_min, delta_max, eps)
            schedule = uniform_schedule(plan.t_s, plan.m_min)
            assert gram_deviation(build_steering(freqs, schedule)) <= eps

    def test_eigenvalue_sandwich_identity(self):
        schedule = random_schedule(3.0, 40, seed=12)
        steering = build_steering(SET2, schedule)
        gram = steering @ steering.conj().T
        via_eigs = np.abs(np.linalg.eigvalsh(gram) - 1.0).max()
        assert via_eigs == pytest.approx(gram_deviation(steering), abs=1e-12)

    @pytest.mark.parametrize("shape", [(4,), (), (2, 3, 4)])
    def test_rejects_non_matrix(self, shape):
        with pytest.raises(ShapeError):
            gram_deviation(np.ones(shape, dtype=complex))


class TestModeErrorBoundEndToEnd:
    def test_bound_dominates_measured_errors(self, set1_basis):
        # Whenever the Gram deviation is below some eps < 1, per-mode errors
        # sit under the eps bound evaluated at amplitude-ranked magnitudes.
        rng = rng_from_seed(88)
        mags = np.abs(set1_basis.amplitudes)
        rank = np.argsort(-mags, kind="stable")
        ranked = mags[rank]
        for _ in range(25):
            m = int(rng.integers(8, 80))
            schedule = random_schedule(float(rng.uniform(1.0, 8.0)), m, seed=int(rng.integers(1 << 31)))
            steering = build_steering(set1_basis.frequencies, schedule)
            eps = gram_deviation(steering) * 1.000001
            if eps >= 1.0:
                continue
            errors = align_and_error(estimate_modes(build_data_matrix(set1_basis, schedule)), set1_basis)
            for k in range(4):
                assert errors[k] <= mode_error_bound(ranked, eps, k)


class TestGershgorin:
    def test_on_grid_two_modes(self):
        m, t_s = 32, 0.25
        freqs = 2 * math.pi * np.array([3.0, 10.0]) / (m * t_s)
        assert gershgorin_uniform_bound(freqs, t_s, m) <= 1e-13

    def test_dominates_gram_deviation(self):
        rng = rng_from_seed(9)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            freqs = np.sort(rng.uniform(1.0, 30.0, size=n))
            if np.min(np.diff(freqs)) < 1e-3:
                continue
            t_s = float(rng.uniform(0.01, 0.2))
            m = int(rng.integers(n, 80))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                bound = gershgorin_uniform_bound(freqs, t_s, m)
            steering = build_steering(freqs, uniform_schedule(t_s, m))
            assert bound >= gram_deviation(steering) - 1e-12

    def test_decreases_with_more_samples(self):
        values = [gershgorin_uniform_bound(SET1, 0.1, m) for m in (21, 51, 101, 210)]
        assert values[0] == pytest.approx(0.2419, abs=2e-4)
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("freqs, t_s", [
        ([1.0, math.nan], 0.1), ([math.inf, 2.0], 0.1), ([1.0, 2.0], math.inf), ([1.0, 2.0], math.nan),
    ])
    def test_rejects_non_finite_inputs(self, freqs, t_s):
        # [1, nan] used to return a float after a RuntimeWarning from psinc.
        with pytest.raises(InvalidArgument):
            gershgorin_uniform_bound(freqs, t_s, 10)

    def test_warns_outside_validity_region(self):
        delta_max = np.max(SET1) - np.min(SET1)
        with pytest.warns(UserWarning):
            gershgorin_uniform_bound(SET1, 1.2 * math.pi / delta_max, 21)


class TestExpectedGramRandom:
    def test_monte_carlo_agrees_with_expectation(self):
        # Mean Gram over 200 random schedules vs. the closed-form expected
        # off-diagonal; also the Jensen direction for the mean deviation.
        t_max, m, trials = 4.0, 100, 200
        grams = []
        devs = []
        for s in range(trials):
            steering = build_steering(SET2, random_schedule(t_max, m, seed=1000 + s))
            gram = steering @ steering.conj().T
            grams.append(gram)
            devs.append(np.abs(np.linalg.eigvalsh(gram) - 1.0).max())
        grams = np.array(grams)
        devs = np.array(devs)
        x = (SET2[:, None] - SET2[None, :]) * t_max / 2.0
        expected_delta = np.exp(1j * x) * np.where(x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0, 1.0, x))
        np.fill_diagonal(expected_delta, 0.0)
        resid = np.linalg.norm(grams.mean(axis=0) - np.eye(4) - expected_delta, 2)
        matrix_se = np.linalg.norm(grams.std(axis=0), "fro") / math.sqrt(trials)
        assert resid <= 3.0 * matrix_se
        expected_norm = np.linalg.norm(expected_delta, 2)
        assert devs.mean() >= expected_norm - 3.0 * devs.std() / math.sqrt(trials)

