"""Sample schedules, steering matrices, data matrices, and compression."""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from modalcs import (
    DataMatrix,
    DimensionMismatch,
    InvalidArgument,
    JlMatrix,
    ModalBasis,
    SampleSchedule,
    build_data_matrix,
    build_steering,
    compress,
    draw_jl_matrix,
    jl_tail_rate,
    random_schedule,
    uniform_schedule,
)
from conftest import table_column
from modalcs.config import ExperimentConfig, build_basis, preset
from modalcs.estimator import _gram_modes, _mode_errors
from modalcs import sampling as sampling_module
from modalcs.runner import run_experiment
from modalcs.sampling import (
    _BLOCK_BYTES,
    _philox_keys,
    _random_times,
    _shared_map,
    rng_from_seed,
    spawn_seeds,
)


class TestRngPlumbing:
    def test_rng_reproducible(self):
        a = rng_from_seed(99).normal(size=8)
        b = rng_from_seed(99).normal(size=8)
        npt.assert_array_equal(a, b)

    def test_spawn_seeds_deterministic_and_distinct(self):
        seeds = spawn_seeds(123, 64)
        npt.assert_array_equal(seeds, spawn_seeds(123, 64))
        assert seeds.dtype == np.uint64
        assert len(set(int(s) for s in seeds)) == 64

    def test_spawned_streams_differ_from_parent(self):
        child = spawn_seeds(5, 3)
        assert not np.array_equal(
            rng_from_seed(int(child[0])).normal(size=4),
            rng_from_seed(5).normal(size=4),
        )

    @pytest.mark.parametrize(
        "call",
        [
            lambda: rng_from_seed(-1),
            lambda: spawn_seeds(-1, 3),
            lambda: random_schedule(2.0, 5, -1),
            lambda: draw_jl_matrix(4, 4, seed=-1),
        ],
        ids=["rng_from_seed", "spawn_seeds", "random_schedule", "draw_jl_matrix"],
    )
    def test_negative_seed_is_invalid_argument(self, call):
        # numpy raises a bare ValueError for these; the package names the seed.
        with pytest.raises(InvalidArgument, match="seed must be >= 0, got -1"):
            call()


class TestUniformSchedule:
    def test_three_samples(self):
        schedule = uniform_schedule(0.1, 3)
        npt.assert_allclose(schedule.times, [0.0, 0.1, 0.2], rtol=1e-15)
        assert schedule.scheme == "uniform"
        assert schedule.n_samples == 3

    @pytest.mark.parametrize("t_s, m, t_max", [(0.1, 21, 2.0), (0.03, 202, 6.03)])
    def test_t_max(self, t_s, m, t_max):
        assert uniform_schedule(t_s, m).t_max == pytest.approx(t_max, rel=1e-12)

    def test_single_sample_allowed(self):
        schedule = uniform_schedule(0.5, 1)
        assert schedule.t_max == 0.0
        npt.assert_array_equal(schedule.times, [0.0])

    # A nan M used to leak numpy's ValueError; an infinite t_s warned before it raised.
    @pytest.mark.parametrize(
        "t_s, m", [(0.0, 3), (-0.1, 3), (0.1, 0), (0.01, math.nan), (math.inf, 3), (math.nan, 3)]
    )
    def test_invalid_arguments(self, t_s, m):
        with pytest.raises(InvalidArgument):
            uniform_schedule(t_s, m)

    # (m - 1) * t_s overflowing used to warn from numpy; 1e19 samples leaked
    # numpy's "Maximum allowed size exceeded"; 2.5 samples made 3 times.
    @pytest.mark.parametrize("t_s, m", [(1e308, 3), (0.1, 1e19), (0.1, 2.5), (0.1, 2**53 + 1)])
    def test_counts_and_spans_numpy_cannot_hold(self, t_s, m):
        with pytest.raises(InvalidArgument):
            uniform_schedule(t_s, m)

    def test_integral_float_count(self):
        npt.assert_array_equal(uniform_schedule(0.1, 21.0).times, uniform_schedule(0.1, 21).times)


class TestRandomSchedule:
    def test_sorted_within_range(self):
        schedule = random_schedule(2.0, 50, seed=4)
        assert schedule.scheme == "random"
        assert np.all(np.diff(schedule.times) > 0)
        assert schedule.times[0] >= 0.0 and schedule.times[-1] <= 2.0

    def test_deterministic_per_seed(self):
        a = random_schedule(3.0, 20, seed=8)
        b = random_schedule(3.0, 20, seed=8)
        npt.assert_array_equal(a.times, b.times)
        assert not np.array_equal(a.times, random_schedule(3.0, 20, seed=9).times)

    @pytest.mark.parametrize("t_max", [math.inf, math.nan, 0.0, -1.0])
    def test_t_max_must_be_finite_and_positive(self, t_max):
        # An infinite t_max overflowed inside numpy's uniform draw.
        with pytest.raises(InvalidArgument, match="t_max must be finite and > 0"):
            random_schedule(t_max, 5, 1)

    # Each used to leak a TypeError from the generator's draw.
    @pytest.mark.parametrize("m", [math.nan, 1e19, 2.5, 0, "5", None])
    def test_invalid_counts(self, m):
        with pytest.raises(InvalidArgument, match="m must be an integer"):
            random_schedule(1.0, m, 1)

    def test_integral_float_count(self):
        npt.assert_array_equal(random_schedule(2.0, 5.0, 4).times, random_schedule(2.0, 5, 4).times)

    def test_draws_are_uniform_on_average(self):
        # Mean of M = 1e5 i.i.d. U(0, t_max) draws: t_max/2 +/- 3 sigma/sqrt(M).
        t_max, m = 4.0, 100_000
        schedule = random_schedule(t_max, m, seed=2)
        tol = 3.0 * t_max / math.sqrt(12.0 * m)
        assert abs(schedule.times.mean() - t_max / 2.0) < tol

    @pytest.mark.parametrize("m", [1, 2, 60, 1001])
    def test_stacked_rows_are_each_seeds_own_draw(self, m):
        seeds = spawn_seeds(5, 200)
        expected = [np.sort(rng_from_seed(int(s)).uniform(0.0, 2.5, size=m)) for s in seeds]
        times = _random_times(2.5, m, seeds)
        assert times.shape == (200, m)
        assert times.tobytes() == np.stack(expected).tobytes()
        assert random_schedule(2.5, m, int(seeds[7])).times.tobytes() == times[7].tobytes()

    def test_colliding_row_is_redrawn_from_its_own_stream(self):
        # On [0, 5e-324] a draw is 0 or 5e-324, so two times collide about
        # half the time; only the colliding rows draw again.
        def sequential(seed):
            rng = rng_from_seed(seed)
            while True:
                times = np.sort(rng.uniform(0.0, 5e-324, size=2))
                if times[1] > times[0]:
                    return times

        seeds = list(range(40))
        first = [np.sort(rng_from_seed(s).uniform(0.0, 5e-324, size=2)) for s in seeds]
        assert any(t[0] == t[1] for t in first) and any(t[0] < t[1] for t in first)
        expected = np.stack([sequential(s) for s in seeds])
        assert _random_times(5e-324, 2, seeds).tobytes() == expected.tobytes()

    def test_rows_with_their_own_t_max_and_m_are_each_seeds_schedule(self):
        # Each row keeps the bits of its own one-seed draw, collision redraws
        # included (on [0, 5e-324] two times collide about half the time), and
        # is zero past its M.
        def sequential(t_max, m, seed):
            rng = rng_from_seed(seed)
            while True:
                times = np.sort(rng.uniform(0.0, t_max, size=m))
                if np.all(np.diff(times) > 0.0):
                    return times

        seeds = list(range(40))
        t_max = [5e-324 if s % 3 == 0 else 0.5 + s / 7 for s in seeds]
        m = [2 if s % 3 == 0 else 1 + s % 11 for s in seeds]
        times = _random_times(t_max, m, seeds)
        assert times.shape == (40, 11)
        for row, t, k, s in zip(times, t_max, m, seeds):
            assert row[:k].tobytes() == sequential(t, k, s).tobytes()
            assert row[:k].tobytes() == random_schedule(t, k, s).times.tobytes()
            assert row[k:].tobytes() == bytes(8 * (11 - k))
        # One t_max or one m serves every row.
        assert _random_times(2.0, m, seeds).tobytes() == _random_times([2.0] * 40, m, seeds).tobytes()
        assert _random_times(t_max, 2, seeds).tobytes() == _random_times(t_max, [2] * 40, seeds).tobytes()

    def test_philox_keys_are_seed_sequence_states(self):
        edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        seeds = np.concatenate([
            np.array(edges, dtype=np.uint64),
            rng_from_seed(12).integers(0, 2**64, size=10_000, dtype=np.uint64),
        ])
        expected = [np.random.SeedSequence(int(s)).generate_state(2, np.uint64) for s in seeds]
        keys = _philox_keys(seeds)
        assert keys.dtype == np.uint64
        npt.assert_array_equal(keys, expected)

    def test_batch_builds_one_philox(self, monkeypatch):
        built, philox = [], np.random.Philox

        def counting(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        seeds = spawn_seeds(8, 500)
        expected = np.stack([np.sort(rng_from_seed(int(s)).uniform(0.0, 3.0, size=9)) for s in seeds])
        monkeypatch.setattr(np.random, "Philox", counting)
        times = _random_times(3.0, 9, seeds)
        assert len(built) <= 1
        assert times.tobytes() == expected.tobytes()

    def test_batch_seed_range(self):
        # Batched keys come from uint64 words: a seed at 2**64 or below 0 is
        # refused as an argument, never leaked as numpy's OverflowError.
        top = [np.sort(rng_from_seed(s).uniform(0.0, 1.0, size=3)) for s in (1, 2**64 - 1)]
        assert _random_times(1.0, 3, [1, 2**64 - 1]).tobytes() == np.stack(top).tobytes()
        for seeds in ([1, 2**64], [1, 2, 2**70]):
            with pytest.raises(InvalidArgument, match="seeds must lie in"):
                _random_times(1.0, 3, seeds)
        # Each batch seed is checked as the first one is: 2.5 was truncated to 2.
        for seeds, match in (([1, -1], "got -1"), ([1, 2.5], "got 2.5"), ([1, "3"], "got '3'")):
            with pytest.raises(InvalidArgument, match=f"seed must be >= 0, {match}; seeds are integers"):
                _random_times(1.0, 3, seeds)

    def test_no_room_for_distinct_times_raises(self):
        # Three distinct floats do not fit in [0, 5e-324]; this draw used to loop forever.
        with pytest.raises(InvalidArgument, match="cannot hold M = 3 distinct"):
            random_schedule(5e-324, 3, 0)


class TestSampleScheduleValidation:
    def test_rejects_unsorted_times(self):
        with pytest.raises(InvalidArgument):
            SampleSchedule(np.array([0.0, 0.5, 0.4]), "random", 1.0)

    def test_rejects_times_outside_range(self):
        with pytest.raises(InvalidArgument):
            SampleSchedule(np.array([0.0, 1.5]), "random", 1.0)

    def test_rejects_off_grid_uniform_times(self):
        with pytest.raises(InvalidArgument):
            SampleSchedule(np.array([0.0, 0.1, 0.21]), "uniform", 0.2, t_s=0.1)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(InvalidArgument):
            SampleSchedule(np.array([0.0]), "jittered", 0.0)


class TestBuildSteering:
    def test_single_sample_constant_rows(self):
        schedule = uniform_schedule(1.0, 1)
        steering = build_steering([1.0, 2.0], schedule)
        npt.assert_allclose(steering, np.ones((2, 1)))
        npt.assert_allclose(np.linalg.norm(steering, axis=1), 1.0)

    def test_on_grid_rows_orthonormal(self):
        m, t_s = 64, 0.2
        schedule = uniform_schedule(t_s, m)
        freqs = 2 * np.pi * np.array([3.0, 11.0, 27.0]) / (m * t_s)
        steering = build_steering(freqs, schedule)
        gram = steering @ steering.conj().T
        npt.assert_allclose(gram, np.eye(3), atol=1e-10)

    def test_first_set_off_grid_leakage_bounded(self, set1_basis):
        schedule = uniform_schedule(0.1, 21)
        steering = build_steering(set1_basis.frequencies, schedule)
        gram = steering @ steering.conj().T
        assert np.linalg.norm(gram - np.eye(4), 2) < 1.0

    def test_rejects_nonpositive_frequencies(self):
        with pytest.raises(InvalidArgument):
            build_steering([1.0, -2.0], uniform_schedule(0.1, 4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_frequencies(self, bad):
        with pytest.raises(InvalidArgument):
            build_steering([1.0, bad], uniform_schedule(0.1, 4))

    def test_entry_modulus_enforced(self):
        # Every entry has modulus 1/sqrt(M), on uniform and random schedules.
        rng = rng_from_seed(31)
        for m in (1, 7, 500):
            freqs = rng.uniform(0.1, 400.0, size=5)
            for schedule in (uniform_schedule(0.013, m), random_schedule(9.0, m, seed=m)):
                steering = build_steering(freqs, schedule)
                assert steering.shape == (5, m)
                npt.assert_allclose(np.abs(steering), 1.0 / math.sqrt(m), rtol=1e-13)


class TestBuildDataMatrix:
    def test_single_mode_two_samples(self):
        basis = ModalBasis(np.eye(1), np.array([np.pi]), np.array([1.0]))
        data = build_data_matrix(basis, uniform_schedule(1.0, 2))
        npt.assert_allclose(data.entries, [[1.0, -1.0]], atol=1e-12)
        assert data.kind == "raw"

    def test_factorization_identity(self, set1_basis):
        # V = Psi (sqrt(M) diag A) S for the steering matrix of the same inputs.
        schedule = random_schedule(2.0, 17, seed=6)
        data = build_data_matrix(set1_basis, schedule)
        steering = build_steering(set1_basis.frequencies, schedule)
        m = schedule.n_samples
        via_steering = (
            set1_basis.mode_shapes
            @ (math.sqrt(m) * np.diag(set1_basis.amplitudes))
            @ steering
        )
        npt.assert_allclose(data.entries, via_steering, atol=1e-12)

    def test_requires_amplitudes(self):
        basis = ModalBasis(np.eye(2), np.array([2.0, 1.0]))
        with pytest.raises(InvalidArgument):
            build_data_matrix(basis, uniform_schedule(0.1, 4))

    def test_kind_validation(self):
        with pytest.raises(InvalidArgument):
            DataMatrix(np.zeros((2, 3)), "folded")

    # These leaked numpy's ValueError and TypeError.
    @pytest.mark.parametrize("entries", [
        np.array([["a", "b"]]), np.array([[None, 1.0]], dtype=object), [[1.0], [1.0, 2.0]],
    ], ids=["str", "object", "ragged"])
    def test_non_numeric_entries_rejected(self, entries):
        with pytest.raises(InvalidArgument):
            DataMatrix(entries, "raw")

    @pytest.mark.parametrize("scheme", ["uniform", "random"])
    def test_entries_are_the_eager_build(self, scheme):
        # Over several column blocks, lazy entries are the direct build bit for bit.
        basis = _wide_basis(TestRotatedBuild.N, seed=13)
        m = 3 * TestRotatedBuild.COLS + 5
        schedule = uniform_schedule(0.01, m) if scheme == "uniform" else random_schedule(50.0, m, 9)
        eager = _direct(basis, schedule.times)
        data = build_data_matrix(basis, schedule)
        assert data.shape == (basis.n_dof, m) and "kind='raw'" in repr(data)
        assert "entries" not in vars(data)  # neither shape nor repr builds V
        assert np.array_equal(data.entries, eager)
        assert data.entries is data.entries

    @pytest.mark.parametrize("given, kept", [
        (np.int64, np.float64), (np.float32, np.float64), (np.float64, np.float64),
        (np.complex64, np.complex128), (np.complex128, np.complex128), (object, np.complex128),
    ])
    def test_dtype_keeps_realness(self, given, kept):
        assert DataMatrix(np.ones((2, 3), dtype=given), "raw").entries.dtype == kept


class TestJlMatrices:
    def test_bernoulli_entries(self):
        phi = draw_jl_matrix(4, 4, "bernoulli", seed=1)
        npt.assert_array_equal(np.abs(phi.entries), 0.5)

    def test_gaussian_scale(self):
        phi = draw_jl_matrix(2000, 100, "gaussian", seed=2)
        assert phi.entries.std() == pytest.approx(0.1, rel=0.05)

    def test_shape_constraint(self):
        with pytest.raises(InvalidArgument):
            draw_jl_matrix(4, 5)
        with pytest.raises(InvalidArgument):
            JlMatrix(2, 3, "gaussian", 0)

    def test_unknown_kind_and_negative_seed(self):
        with pytest.raises(InvalidArgument):
            JlMatrix(4, 4, "identity", 0)
        with pytest.raises(InvalidArgument):
            draw_jl_matrix(4, 4, seed=-1)

    # int() of these raised ValueError or OverflowError through draw_jl_matrix.
    @pytest.mark.parametrize("args", [(math.nan, 5), (100, 5, "gaussian", "a"), (math.inf, 5)])
    def test_non_integer_arguments(self, args):
        with pytest.raises(InvalidArgument):
            draw_jl_matrix(*args)

    @pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
    def test_one_share_blocks_equal_entries(self, cpus, kind):
        # Odd M' = 37 gives 3542-row blocks, so M = 10007 ends in a short one.  On one CPU,
        # _in_order draws each block from the previous block's generator.
        cpus(1)
        phi = draw_jl_matrix(10_007, 37, kind, seed=8)
        starts, blocks = [], []

        def use(start, block):
            starts.append(start)
            blocks.append(block.copy())

        phi._in_order(use)
        assert len(blocks) >= 3 and starts[0] == 0
        assert [b.shape[0] for b in blocks[:-1]] == [starts[1]] * (len(blocks) - 1)
        npt.assert_array_equal(np.concatenate(blocks), phi.entries)
        assert phi.entries.shape == phi.shape == (10_007, 37)

    def test_draw_matches_one_shot_generator_calls(self):
        gauss = draw_jl_matrix(50, 7, "gaussian", seed=3).entries
        npt.assert_array_equal(gauss, rng_from_seed(3).normal(0.0, 1.0 / math.sqrt(7), (50, 7)))
        bern = draw_jl_matrix(50, 7, "bernoulli", seed=3).entries
        want = (2.0 * rng_from_seed(3).integers(0, 2, size=(50, 7)) - 1.0) / math.sqrt(7)
        npt.assert_array_equal(bern, want)

    @pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
    def test_norm_preserved_in_expectation(self, kind):
        # E || Phi* x ||^2 = ||x||^2 for a fixed unit vector.
        rng = rng_from_seed(44)
        x = rng.normal(size=12) + 1j * rng.normal(size=12)
        x /= np.linalg.norm(x)
        norms = [
            np.linalg.norm(draw_jl_matrix(12, 6, kind, seed=s).entries.T @ x) ** 2
            for s in range(1000)
        ]
        assert np.mean(norms) == pytest.approx(1.0, abs=0.05)

    def test_gaussian_tail_bound(self):
        # P(| ||Phi* x||^2 - 1 | >= eps) <= 4 exp(-M' f(eps)) at eps = 0.5.
        m_prime, eps, trials = 200, 0.5, 2000
        rng = rng_from_seed(7)
        x = rng.normal(size=m_prime) + 1j * rng.normal(size=m_prime)
        x /= np.linalg.norm(x)
        hits = 0
        for s in range(trials):
            phi = draw_jl_matrix(m_prime, m_prime, "gaussian", seed=10_000 + s)
            hits += abs(np.linalg.norm(phi.entries.T @ x) ** 2 - 1.0) >= eps
        bound = 4.0 * math.exp(-m_prime * jl_tail_rate(eps))
        se = math.sqrt(max(bound, 1.0 / trials) / trials)
        assert hits / trials <= bound + 3.0 * se


class TestCompress:
    def test_matches_rowwise_application(self, set1_basis):
        data = build_data_matrix(set1_basis, uniform_schedule(0.002, 1001))
        phi = draw_jl_matrix(1001, 32, "gaussian", seed=3)
        compressed = compress(data, phi)
        assert compressed.shape == (4, 32)
        for row in range(4):
            npt.assert_allclose(
                compressed.entries[row], phi.entries.T @ data.entries[row], atol=1e-10
            )

    def test_matches_complex_product(self, set1_basis):
        data = build_data_matrix(set1_basis, uniform_schedule(0.002, 1001))
        phi = draw_jl_matrix(1001, 32, "gaussian", seed=4)
        want = data.entries @ phi.entries.astype(complex)
        npt.assert_allclose(
            compress(data, phi).entries, want, rtol=0, atol=1e-12 * np.abs(want).max()
        )

    def test_many_blocks_match_complex_product(self, set1_basis):
        # M' = 256 gives 512-row blocks, so M = 10000 spans 20 of them.
        data = build_data_matrix(set1_basis, uniform_schedule(0.0002, 10_000))
        phi = draw_jl_matrix(10_000, 256, "gaussian", seed=6)
        want = data.entries @ phi.entries.astype(complex)
        npt.assert_allclose(
            compress(data, phi).entries, want, rtol=0, atol=1e-12 * np.abs(want).max()
        )

    def test_single_row_linearity(self):
        basis = ModalBasis(np.eye(1), np.array([2.0]), np.array([1.5]))
        data = build_data_matrix(basis, uniform_schedule(0.1, 16))
        phi = draw_jl_matrix(16, 4, "bernoulli", seed=5)
        doubled = DataMatrix(2.0 * data.entries, "raw", schedule=data.schedule)
        npt.assert_allclose(
            compress(doubled, phi).entries, 2.0 * compress(data, phi).entries, atol=1e-12
        )

    def test_compressed_input_rejected(self, set1_basis):
        data = build_data_matrix(set1_basis, uniform_schedule(0.1, 8))
        compressed = compress(data, draw_jl_matrix(8, 4, seed=0))
        assert compressed.kind == "compressed"
        with pytest.raises(InvalidArgument):
            compress(compressed, draw_jl_matrix(4, 4, seed=0))

    def test_dimension_mismatch(self, set1_basis):
        data = build_data_matrix(set1_basis, uniform_schedule(0.1, 8))
        with pytest.raises(DimensionMismatch):
            compress(data, draw_jl_matrix(9, 3, seed=0))

    @pytest.mark.parametrize("scheme", ["uniform", "random"])
    @pytest.mark.parametrize("m_prime", [5, 37, 256])
    def test_modal_data_matches_dense_product(self, scheme, m_prime):
        # M = 20011 is no multiple of the 26214-, 3542- or 512-row Phi blocks
        # and spans one, six or 40 of them.
        basis, m = _wide_basis(8, seed=14), 20_011
        schedule = uniform_schedule(0.01, m) if scheme == "uniform" else random_schedule(200.0, m, 3)
        data = build_data_matrix(basis, schedule)
        phi = draw_jl_matrix(m, m_prime, "gaussian", seed=m_prime)
        y = compress(data, phi).entries
        assert "entries" not in vars(data)
        want = data.entries @ phi.entries
        assert np.abs(y - want).max() <= 1e-12 * np.abs(want).max()

    def test_non_finite_raw_data_rejected(self):
        # A raw matrix holding inf used to compress to a nan Y without a word.
        rows = np.ones((2, 8))
        rows[1, 3] = np.inf
        with pytest.raises(InvalidArgument, match="finite"):
            compress(DataMatrix(rows, "raw"), draw_jl_matrix(8, 4, seed=0))

    @pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
    def test_measured_data_is_one_product_with_phi(self, kind):
        # Measured data is not streamed: one product with the dense Phi, bit for bit.
        rows = rng_from_seed(40).normal(size=(18, 3000))
        phi = draw_jl_matrix(3000, 50, kind, seed=8)
        y = compress(DataMatrix(rows, "raw"), phi).entries
        assert np.array_equal(y, rows @ phi.entries)

    def test_real_rows_stay_real(self):
        # M = 3000 at M' = 256 spans six 512-row blocks of Phi.
        rows = rng_from_seed(41).normal(size=(5, 3000))
        phi = draw_jl_matrix(3000, 256, "gaussian", seed=8)
        real = compress(DataMatrix(rows, "raw"), phi).entries
        cast = compress(DataMatrix(rows.astype(complex), "raw"), phi).entries
        assert real.dtype == np.float64 and cast.dtype == np.complex128
        assert np.array_equal(real, cast.real)
        assert not cast.imag.any()


def _serial_compress(data, phi):
    """compress's modal path as a plain loop: every block drawn on the calling thread."""
    rng, rows, n = rng_from_seed(phi.seed), phi._block_rows, data.shape[0]
    acc = np.zeros((2 * n, phi.m_prime))
    for start in range(0, phi.m, rows):
        block = phi._fill(rng, np.empty((min(rows, phi.m - start), phi.m_prime)))
        e = data._steering(start, block.shape[0])
        acc += np.concatenate((e.real, e.imag)) @ block
    return (data.basis.mode_shapes * data.basis.amplitudes) @ (acc[:n] + 1j * acc[n:])


class _Injected(Exception):
    """A failure that a test injects into a fill or a thread start."""


_START = threading.Thread.start


def _in_time(f, *args):
    """(f(*args), the name of the thread it ran on): f runs on a daemon thread of its own,
    joined with a timeout, so that a share left waiting fails the test instead of hanging it."""
    outcome = {}

    def run():
        try:
            outcome["value"] = f(*args)
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    _START(thread)  # not recorded by _record_draws: this thread is share 0's
    thread.join(60)
    assert not thread.is_alive(), "a share never woke"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"], thread.name


def _record_draws(monkeypatch, fail_share=None, fail_start=None):
    """(names of the threads that run each JlMatrix._fill, names of the threads started from
    now on).  Share 0 runs on the calling thread and share i on the i-th thread started; the
    second fill of share fail_share raises _Injected, and so does start call fail_start."""
    fills, started, calls, fill, start = [], [], [], JlMatrix._fill, threading.Thread.start

    def recorded_fill(phi, rng, out):
        name = threading.current_thread().name
        fills.append(name)
        share = started.index(name) + 1 if name in started else 0
        if share == fail_share and fills.count(name) == 2:
            raise _Injected(f"share {share}")
        return fill(phi, rng, out)

    def recorded_start(thread):
        calls.append(thread)
        if len(calls) == fail_start:
            raise _Injected(f"start {fail_start}")
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(JlMatrix, "_fill", recorded_fill)
    monkeypatch.setattr(threading.Thread, "start", recorded_start)
    return fills, started


class TestSplitDraw:
    """JlMatrix._in_order: with k = min(usable CPUs, blocks) shares, share i draws Phi blocks
    i, i + k, ...; each block after the first comes from a guessed stream position, joined to
    the true parse where the previous block's overflow reappears."""

    @pytest.mark.parametrize("n_cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
    # M' = 37: 3542-row blocks; M' = 256: 512-row blocks; M' = 64: 2048-row blocks.  One
    # block, several ending short, several full ones, and twenty.
    @pytest.mark.parametrize("m_prime, m", [(37, 3000), (37, 10_007), (37, 14_168),
                                            (256, 500), (256, 5000), (256, 5120), (64, 40_000)])
    def test_y_is_the_serial_loop_bit_for_bit(self, set1_basis, cpus, monkeypatch, n_cpus, kind,
                                              m_prime, m):
        cpus(n_cpus)
        data = build_data_matrix(set1_basis, uniform_schedule(1e-3, m))
        phi = draw_jl_matrix(m, m_prime, kind, seed=21)
        want = _serial_compress(data, phi)
        fills, started = _record_draws(monkeypatch)
        before = threading.active_count()
        compressed, caller = _in_time(compress, data, phi)
        assert threading.active_count() == before
        blocks = -(-m // phi._block_rows)
        # One fill per block: every join after block 0 is found, and no block falls back.
        assert len(started) == min(n_cpus, blocks) - 1 and len(fills) == blocks
        assert set(fills) == {caller, *started}
        assert np.array_equal(compressed.entries, want)

    @pytest.mark.parametrize("n_cpus", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
    def test_blocks_come_in_order_one_at_a_time(self, cpus, monkeypatch, n_cpus, kind):
        cpus(n_cpus)
        phi, calls, busy = draw_jl_matrix(5000, 256, kind, seed=8), [], threading.Lock()
        _, started = _record_draws(monkeypatch)

        def use(start, block):
            assert busy.acquire(blocking=False)  # no other call is running
            calls.append((start, block.copy(), threading.current_thread().name))
            time.sleep(0.001)
            busy.release()

        _, caller = _in_time(phi._in_order, use)
        assert [start for start, _, _ in calls] == list(range(0, 5000, 512))  # ten blocks
        shares = [caller, *started]  # share i draws blocks i, i + k, ...
        assert len(shares) == n_cpus
        assert [name for _, _, name in calls] == [shares[b % n_cpus] for b in range(10)]
        assert np.array_equal(np.concatenate([block for _, block, _ in calls]), phi.entries)

    @pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
    def test_every_join_falls_back_when_the_guesses_overshoot(self, set1_basis, cpus,
                                                              monkeypatch, kind):
        # Each guessed start lies 4096 raw words past the estimate, so no block finds the
        # previous block's overflow: it takes that overflow and the previous generator.
        cpus(2)
        data = build_data_matrix(set1_basis, uniform_schedule(1e-3, 5000))  # ten 512-row blocks
        phi = draw_jl_matrix(5000, 256, kind, seed=24)
        want = _serial_compress(data, phi)
        monkeypatch.setattr(sampling_module, "_SLACK", -4096)
        fills, _ = _record_draws(monkeypatch)
        compressed, _ = _in_time(compress, data, phi)
        assert len(fills) == 1 + 2 * 9  # block 0 from word 0, then a guess and a fallback each
        assert np.array_equal(compressed.entries, want)

    @pytest.mark.parametrize("n_cpus, fail_share", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 2),
                                                    (4, 0), (4, 1), (4, 3)])
    def test_a_failed_fill_reaches_the_caller(self, set1_basis, cpus, monkeypatch, n_cpus,
                                              fail_share):
        # M' = 256: 512-row blocks, so M 5000 spans ten; the failing share's second fill
        # raises while the other shares may be waiting for their turns.
        cpus(n_cpus)
        data = build_data_matrix(set1_basis, uniform_schedule(1e-3, 5000))
        before = threading.active_count()
        fills, started = _record_draws(monkeypatch, fail_share=fail_share)
        with pytest.raises(_Injected, match=f"^share {fail_share}$"):
            _in_time(compress, data, draw_jl_matrix(5000, 256, "gaussian", seed=22))
        assert threading.active_count() == before and len(started) == n_cpus - 1
        assert len(fills) >= 2 and not sampling_module._HELPERS

    @pytest.mark.parametrize("n_cpus, fail_start", [(2, 1), (3, 2), (4, 2), (4, 3)])
    def test_a_thread_that_fails_to_start_stops_the_draw(self, set1_basis, cpus, monkeypatch,
                                                         n_cpus, fail_start):
        # The shares that started wait for blocks that the missing share never draws, until
        # the failure wakes them; the start error reaches the caller and the budget is whole.
        cpus(n_cpus)
        data = build_data_matrix(set1_basis, uniform_schedule(1e-3, 5000))
        before = threading.active_count()
        _, started = _record_draws(monkeypatch, fail_start=fail_start)
        with pytest.raises(_Injected, match=f"^start {fail_start}$"):
            _in_time(compress, data, draw_jl_matrix(5000, 256, "gaussian", seed=22))
        assert threading.active_count() == before and len(started) == n_cpus - 2
        assert not sampling_module._HELPERS and sampling_module._usable_cpus() == n_cpus

    def test_one_share_starts_no_thread(self, cpus, monkeypatch):
        # On one CPU the ten blocks are drawn on the calling thread.
        cpus(1)
        phi = draw_jl_matrix(5000, 256, "gaussian", seed=23)
        fills, started = _record_draws(monkeypatch)
        _, caller = _in_time(phi._in_order, lambda start, block: None)
        assert not started and fills == [caller] * 10

    def test_split_draw_under_fast_thread_switching(self, set1_basis, cpus, monkeypatch):
        # Switched out after about a microsecond, the two shares still use every block in
        # order: Y is the serial loop's.
        cpus(2)
        data = build_data_matrix(set1_basis, uniform_schedule(1e-3, 10_000))
        phi = draw_jl_matrix(10_000, 256, "gaussian", seed=5)
        (_, started), interval = _record_draws(monkeypatch), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            compressed, _ = _in_time(compress, data, phi)
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == 1
        assert np.array_equal(compressed.entries, _serial_compress(data, phi))

    def test_shares_under_fast_thread_switching_start_no_helper(self, set1_basis, cpus,
                                                                 monkeypatch):
        # Four shares on four CPUs leave each a budget of one, so each draws its Phi
        # serially, switched out after about a microsecond: every Y is its serial loop's.
        cpus(4)
        data = build_data_matrix(set1_basis, uniform_schedule(1e-3, 10_000))
        phis = [draw_jl_matrix(10_000, 256, "gaussian", seed) for seed in range(4)]
        (_, started), interval = _record_draws(monkeypatch), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ys, _ = _in_time(_shared_map, lambda phi: compress(data, phi).entries, phis)
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == 3  # the three share threads, and no helper
        for y, phi in zip(ys, phis):
            assert np.array_equal(y, _serial_compress(data, phi))


def _wide_basis(n, seed):
    """n orthonormal modes, frequencies in (1, 60) rad/s, complex amplitudes."""
    rng = rng_from_seed(seed)
    shapes = np.linalg.qr(rng.normal(size=(n, n)))[0]
    freqs = np.sort(rng.uniform(1.0, 60.0, size=n))[::-1]
    return ModalBasis(shapes, freqs, rng.normal(size=n) + 1j * rng.normal(size=n))


def _direct(basis, times):
    """[V] by the direct formula in one block: the reference for the blocked builds."""
    return (basis.mode_shapes * basis.amplitudes) @ np.exp(1j * np.outer(basis.frequencies, times))


def _rotated_entries(data, cols):
    """[V] from the steering blocks of `cols` columns that compress multiplies by Phi."""
    m = data.shape[1]
    e = np.concatenate([data._steering(s, min(cols, m - s)) for s in range(0, m, cols)], axis=1)
    return (data.basis.mode_shapes * data.basis.amplitudes) @ e


class TestRotatedBuild:
    """compress's uniform steering blocks rotate the first column block."""

    N = 64  # one block is then _BLOCK_BYTES // (16 N) = 1024 columns
    COLS = _BLOCK_BYTES // (16 * N)

    def test_single_block_is_bit_equal(self, set1_basis):
        schedule = uniform_schedule(0.01, 5000)
        assert schedule.n_samples <= _BLOCK_BYTES // (16 * set1_basis.n_dof)
        data = build_data_matrix(set1_basis, schedule)
        assert np.array_equal(_rotated_entries(data, 5000), _direct(set1_basis, schedule.times))

    @pytest.mark.parametrize("extra", [0, 1, COLS + 3])
    def test_multi_block_matches_direct_formula(self, extra):
        basis = _wide_basis(self.N, seed=11)
        schedule = uniform_schedule(0.01, self.COLS + extra)
        rotated = _rotated_entries(build_data_matrix(basis, schedule), self.COLS)
        direct = _direct(basis, schedule.times)
        assert np.abs(rotated - direct).max() <= 1e-12 * np.abs(direct).max()

    def test_as_close_to_extended_precision_as_direct_formula(self):
        # Against e^{i w (m-1) t_s} evaluated in long double, both builds round
        # one phase of size w t per entry (the direct formula in w * t_m, the
        # rotation in w * t at its block start), so their distances agree up to
        # sampling noise: the RMS ratio rotated/direct measured 0.81-1.10 over
        # 36 random bases at M = 8e3-1e5, 0.96 here.
        basis = _wide_basis(self.N, seed=12)
        m, t_s = 20 * self.COLS + 7, 0.01
        schedule = uniform_schedule(t_s, m)
        cols = np.arange(0, m, 5)
        exact_t = np.arange(m, dtype=np.longdouble)[cols] * np.longdouble(t_s)
        coef = (basis.mode_shapes * basis.amplitudes).astype(np.clongdouble)
        ref = coef @ np.exp(1j * (basis.frequencies.astype(np.longdouble)[:, None] * exact_t))

        def rms(v):
            return float(np.sqrt(np.mean(np.abs(v[:, cols] - ref) ** 2)))

        rotated = rms(_rotated_entries(build_data_matrix(basis, schedule), self.COLS))
        direct = rms(_direct(basis, schedule.times))
        assert 0.0 < rotated <= 1.25 * direct

    def test_single_sample(self, set1_basis):
        data = build_data_matrix(set1_basis, uniform_schedule(0.1, 1))
        coef = set1_basis.mode_shapes * set1_basis.amplitudes
        assert data.shape == (4, 1)
        npt.assert_allclose(data.entries[:, 0], coef.sum(axis=1), rtol=1e-15)


def _traced_peak(func, *args):
    """Peak traced allocation during func(*args) beyond what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = func(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestStreamingMemory:
    """numpy reports its buffers to tracemalloc, so these catch a dense Phi."""

    M = 200_000
    MB = 1 << 20

    def test_compress_never_holds_phi(self, set1_basis):
        # The dense 200000 x 64 Phi alone would be 102 MB.
        data = build_data_matrix(set1_basis, uniform_schedule(1e-4, self.M))
        compressed, peak = _traced_peak(
            lambda: compress(data, draw_jl_matrix(self.M, 64, "gaussian", seed=1))
        )
        assert compressed.shape == (4, 64)
        assert peak < 16 * self.MB

    def test_build_data_matrix_holds_one_block_of_phases(self, set1_basis):
        # The build itself allocates nothing: [V] is made when entries is read.
        data = build_data_matrix(set1_basis, uniform_schedule(1e-4, self.M))
        entries, peak = _traced_peak(lambda: data.entries)
        assert peak < 1.5 * entries.nbytes

    @pytest.mark.parametrize("scheme", ["uniform", "random"])
    def test_modal_compress_never_builds_v(self, set1_basis, scheme):
        # [V] would be 4 x 200000 complex, 12.8 MB; one Phi block is 1 MB.
        uniform = scheme == "uniform"
        schedule = uniform_schedule(1e-4, self.M) if uniform else random_schedule(20.0, self.M, 2)

        def build_and_compress():
            data = build_data_matrix(set1_basis, schedule)
            return data, compress(data, draw_jl_matrix(self.M, 64, "gaussian", seed=1))

        (data, compressed), peak = _traced_peak(build_and_compress)
        assert compressed.shape == (4, 64) and "entries" not in vars(data)
        assert peak < 16 * 4 * self.M / 4

    def test_exp3_trials_stack_in_bounded_chunks(self):
        # One trial's V is 4 x 50000 complex, 3.2 MB; an unchunked stack of
        # the 16 trials would hold 16 of them before the SVD started.
        m, raw = 50_000, preset("exp3")
        raw["n_trials"], raw["sampling"]["m_values"] = 8, [m]
        config = ExperimentConfig.from_dict(raw)
        table, peak = _traced_peak(run_experiment, config)
        assert peak < 6 * 16 * 4 * m
        basis, seeds = build_basis(config), spawn_seeds(int(spawn_seeds(config.seed, 1)[0]), 16)
        (_, t_max_u, t_max_e, _, matched, extended, _), = table.rows
        for mean, t_max, trial_seeds in ((matched, t_max_u, seeds[:8]), (extended, t_max_e, seeds[8:])):
            maxima = [
                _mode_errors(_gram_modes(
                    build_data_matrix(basis, random_schedule(t_max, m, int(s))).entries), basis).max()
                for s in trial_seeds
            ]
            assert mean == float(np.mean(maxima))

    def test_exp4_seed_stack_holds_about_one_chunk(self):
        # 1,100 compressed 4 x 128 matrices are 9.0 MB as one Y stack; a chunk
        # of 128 of them is 1 MB.
        raw = preset("exp4")
        raw["n_phi_seeds"] = 1100
        raw["sampling"].update({"m_prime": 128, "t_s_super": 0.015})
        table, peak = _traced_peak(run_experiment, ExperimentConfig.from_dict(raw))
        assert len(table.rows) == 1102 and 1100 * 16 * 4 * 128 > 8 * self.MB
        assert peak < 8 * self.MB

    def test_sweep_stack_holds_no_more_than_one_schedule_build(self):
        # At M 40,001 and 50,001 one schedule's V is 3.2 MB, so each chunk holds
        # one schedule. E is released before the SVD, so the peak stays below the
        # 4.5 V that building each schedule's V and steering matrix on its own took.
        raw = preset("exp1")
        raw["sampling"].update({"t_s": 1e-4, "t_max_start": 4.0, "t_max_step": 1.0, "t_max_stop": 5.0})
        table, peak = _traced_peak(run_experiment, ExperimentConfig.from_dict(raw))
        assert table_column(table, "m") == [40_001, 40_001, 50_001, 50_001]
        assert peak < 4 * 16 * 4 * 50_001
