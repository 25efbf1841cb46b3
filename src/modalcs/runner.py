"""Experiment runners: five synthetic protocols plus the real-data comparison.

Each runner is a pure function of its validated config: all randomness flows
through per-point child seeds spawned from the config seed, so repeated runs
produce byte-identical tables.
"""

from __future__ import annotations

import numpy as np

from .baselines import fdd_peaks, sparse_reconstruct, welch_csd
from .bounds import gershgorin_uniform_bound, gram_deviation
from .config import MAX_SAMPLES, ExperimentConfig, _cap, _samples_for, build_basis
from .errors import ConfigError
from .estimator import (
    _mode_errors,
    _phase_aligned,
    _svd_modes,
    align_and_error,
    aligned_distance,
    estimate_modes,
    frequency_spectra,
)
from .results import Panel, ResultTable, load_sensor_csv
from .sampling import (
    _BLOCK_BYTES,
    DataMatrix,
    _random_times,
    _response,
    build_data_matrix,
    build_steering,
    compress,
    draw_jl_matrix,
    random_schedule,
    spawn_seeds,
    uniform_schedule,
)

def run_experiment(config: ExperimentConfig) -> ResultTable:
    try:
        runner = _RUNNERS[config.experiment]
    except KeyError:
        raise ConfigError(f"unknown experiment {config.experiment!r}") from None
    return runner(config)


def _point_errors(basis, schedule) -> np.ndarray:
    data = build_data_matrix(basis, schedule)
    return align_and_error(estimate_modes(data), basis)


def _run_sweep(config: ExperimentConfig) -> ResultTable:
    """exp1/exp2: sweep t_max with uniform and seed-matched random schedules.

    Both schemes use the same M at each t_max.  Grid points with fewer
    samples than modes are skipped (the estimator needs M >= N), so the
    emitted sweep starts at the first feasible nonzero t_max; a grid with
    no feasible point is a config error.  Each grid position owns one child
    seed whether or not it is skipped, keeping the random draws at a given
    t_max independent of the grid's lower edge.  One plot panel per mode
    holds that mode's uniform and random error against t_max.
    """
    basis = build_basis(config)
    n = basis.n_dof
    t_s = config.sampling["t_s"]
    start = config.sampling.get("t_max_start", 0.0)
    step = config.sampling["t_max_step"]
    stop = config.sampling["t_max_stop"]
    n_points = int(round((stop - start) / step)) + 1
    seeds = spawn_seeds(config.seed, n_points)

    rows = []
    curves = [[] for _ in range(n)]
    for i in range(n_points):
        t_max = round(start + i * step, 10)
        m = _samples_for(t_max, t_s)
        if m < n or t_max <= 0.0:
            continue
        gersh = gershgorin_uniform_bound(basis.frequencies, t_s, m)
        schedules = (
            ("uniform", None, uniform_schedule(t_s, m), gersh),
            ("random", int(seeds[i]), random_schedule(t_max, m, int(seeds[i])), None),
        )
        point = []
        for scheme, seed, schedule, bound in schedules:
            errors = _point_errors(basis, schedule)
            point.append(errors)
            steering = build_steering(basis.frequencies, schedule)
            row = (*errors.tolist(), float(errors.max()), gram_deviation(steering), bound)
            rows.append((t_max, m, scheme, seed) + row)
        for curve, err_uniform, err_random in zip(curves, *point):
            curve.append((t_max, float(err_uniform), float(err_random)))
    if not rows:
        raise ConfigError(
            f"sampling.t_max_stop: no t_max up to {stop} gives the {n} samples "
            f"at t_s = {t_s} that the estimator needs"
        )
    columns = ("t_max", "m", "scheme", "seed") + tuple(
        f"err_mode{k}" for k in range(1, n + 1)
    ) + ("max_err", "gram_deviation", "gershgorin")
    series = ("err_uniform", "err_random")
    panels = tuple(
        Panel(f"mode{k}.csv", ("t_max",) + series, curve, "t_max", series, f"mode {k}")
        for k, curve in enumerate(curves, start=1)
    )
    axes = {"x": "t_max [s]", "y": "aligned mode-shape error"}
    return ResultTable(config.experiment, columns, tuple(rows), config.as_dict(), axes, panels)


def _mean_max_error(basis, t_max: float, m: int, seeds) -> float:
    """Mean over seeds of the max aligned error, one stacked SVD per block of trials."""
    chunk = max(1, _BLOCK_BYTES // (16 * basis.n_dof * m))
    maxima = []
    for start in range(0, len(seeds), chunk):
        times = _random_times(t_max, m, seeds[start : start + chunk])
        shapes = _svd_modes(_response(basis, times))[0]
        maxima.extend(_mode_errors(shapes, basis).max(axis=-1))
    return float(np.mean(maxima))


def _run_exp3(config: ExperimentConfig) -> ResultTable:
    """Sweep M; compare random schedules at matched vs. extended t_max.

    For each M the uniform reference uses t_max = (M-1) t_s.  Random
    schedules are drawn n_trials times at the matched t_max and n_trials
    times at t_max + extension; the table reports the mean over trials of
    the max aligned error.
    """
    basis = build_basis(config)
    t_s = config.sampling["t_s"]
    extension = config.sampling.get("extension", 2.0)
    m_values = sorted(config.sampling["m_values"])
    n_trials = config.n_trials
    point_seeds = spawn_seeds(config.seed, len(m_values))

    rows = []
    for i, m in enumerate(m_values):
        t_max_u = round((m - 1) * t_s, 10)
        t_max_e = round(t_max_u + extension, 10)
        err_uniform = _point_errors(basis, uniform_schedule(t_s, m)).max()
        trial_seeds = spawn_seeds(int(point_seeds[i]), 2 * n_trials)
        rows.append(
            (
                m,
                t_max_u,
                t_max_e,
                float(err_uniform),
                _mean_max_error(basis, t_max_u, m, trial_seeds[:n_trials]),
                _mean_max_error(basis, t_max_e, m, trial_seeds[n_trials:]),
                n_trials,
            )
        )
    columns = (
        "m",
        "t_max_uniform",
        "t_max_extended",
        "err_uniform_max",
        "err_random_matched_mean_max",
        "err_random_extended_mean_max",
        "n_trials",
    )
    series = columns[3:6]  # the three error columns
    panel = Panel(
        "max_error_vs_m.csv",
        ("m",) + series,
        [row[:1] + row[3:6] for row in rows],
        "m",
        series,
        "max error vs M",
    )
    axes = {"x": "number of samples M", "y": "max aligned error"}
    return ResultTable("exp3", columns, tuple(rows), config.as_dict(), axes, (panel,))


def _run_exp4(config: ExperimentConfig) -> ResultTable:
    """Sub-Nyquist uniform sampling vs. super-Nyquist sampling + compression.

    The compressed branch draws n_phi_seeds Gaussian matrices; per-seed rows
    are followed by a mean row whose err_mode columns average per mode and
    whose max_err averages the per-seed maxima.  The plot panel sets the
    sub-Nyquist errors beside the seed-mean errors, mode by mode.
    """
    basis = build_basis(config)
    n = basis.n_dof
    t_max = config.sampling["t_max"]
    t_s_sub = config.sampling["t_s_sub"]
    t_s_super = config.sampling["t_s_super"]
    m_prime = config.sampling["m_prime"]

    m_sub = _samples_for(t_max, t_s_sub)
    errors_sub = _point_errors(basis, uniform_schedule(t_s_sub, m_sub))

    m_super = _samples_for(t_max, t_s_super)
    data_super = build_data_matrix(basis, uniform_schedule(t_s_super, m_super))
    phi_seeds = spawn_seeds(config.seed, config.n_phi_seeds)
    per_seed = []
    for seed in phi_seeds:
        phi = draw_jl_matrix(m_super, m_prime, "gaussian", int(seed))
        errors = align_and_error(estimate_modes(compress(data_super, phi)), basis)
        per_seed.append((int(seed), errors))

    def _row(variant, seed, t_s, m, m_pr, errors, max_err):
        return (variant, seed, t_s, m, m_pr, *errors.tolist(), float(max_err))

    rows = [_row("uniform_sub", None, t_s_sub, m_sub, None, errors_sub, errors_sub.max())]
    for seed, errors in per_seed:
        rows.append(_row("compressed", seed, t_s_super, m_super, m_prime, errors, errors.max()))
    stacked = np.array([e for _, e in per_seed])
    errors_mean = stacked.mean(axis=0)
    rows.append(
        _row(
            "compressed_mean",
            None,
            t_s_super,
            m_super,
            m_prime,
            errors_mean,
            stacked.max(axis=1).mean(),
        )
    )
    columns = ("variant", "seed", "t_s", "m", "m_prime") + tuple(
        f"err_mode{k}" for k in range(1, n + 1)
    ) + ("max_err",)
    series = ("err_uniform_sub", "err_compressed_mean")
    panel = Panel(
        "errors_by_mode.csv",
        ("mode",) + series,
        [
            (k, float(sub), float(mean))
            for k, (sub, mean) in enumerate(zip(errors_sub, errors_mean), start=1)
        ],
        "mode",
        series,
        "per-mode errors",
    )
    axes = {"x": "mode", "y": "aligned mode-shape error"}
    return ResultTable("exp4", columns, tuple(rows), config.as_dict(), axes, (panel,))


def _run_exp5(config: ExperimentConfig) -> ResultTable:
    """Frequency estimation from the right singular vectors' padded FFTs.

    Estimated mode k (singular-value order) is paired with the true mode of
    k-th largest amplitude; the tolerance column is the unpadded FFT
    resolution 2 pi / t_max.  Each mode's plot panel is its padded spectrum
    with the picked bin marked.
    """
    basis = build_basis(config)
    t_s = config.sampling["t_s"]
    m = _samples_for(config.sampling["t_max"], t_s)
    zpf = config.sampling.get("zero_pad_factor", 8)

    data = build_data_matrix(basis, uniform_schedule(t_s, m))
    estimate = estimate_modes(data)
    omega, mags = frequency_spectra(estimate, zpf)
    peak_bins = np.argmax(mags, axis=1)
    omega_est = omega[peak_bins]

    t_max_u = (m - 1) * t_s
    tolerance = 2.0 * np.pi / t_max_u
    rank = np.argsort(-np.abs(basis.amplitudes), kind="stable")
    pairs = zip(basis.frequencies[rank].tolist(), omega_est.tolist())
    rows = [(k, true, est, abs(est - true), tolerance) for k, (true, est) in enumerate(pairs, 1)]
    columns = ("mode", "omega_true", "omega_est", "abs_error", "tolerance")
    is_peak = (np.arange(omega.size) == peak_bins[:, None]).astype(int)
    panels = tuple(
        Panel(
            f"spectrum_mode{k + 1}.csv",
            ("omega", "magnitude", "is_peak"),
            list(zip(omega.tolist(), mags[k].tolist(), is_peak[k].tolist())),
            "omega",
            ("magnitude",),
            f"mode {k + 1} spectrum",
        )
        for k in range(len(mags))
    )
    axes = {"x": "omega [rad/s]", "y": "row FFT magnitude"}
    return ResultTable("exp5", columns, tuple(rows), config.as_dict(), axes, panels)


# Realdata's dense M x M' Phi (the sparse baseline's operators are its size)
# may have the scale benchmark's 10^5 x 256 entries.
_MAX_PHI_ENTRIES = 100_000 * 256


def _run_realdata(config: ExperimentConfig) -> ResultTable:
    """Compressed-domain SVD vs. sparse reconstruction + FDD on sensor data.

    The benchmark is the dominant-peak FDD modes of the uncompressed data.
    Both compressed methods see the same Gaussian matrix.  Estimated modes
    pair with benchmark modes by rank: k-th singular value against k-th
    highest spectral peak.  Each mode's plot panel overlays the benchmark
    shape with both estimates, phase-aligned to it, sensor by sensor.
    """
    samples = load_sensor_csv(config.data_path, header=config.header)
    n, m = samples.shape
    t_s = config.sampling["t_s"]
    m_prime = config.sampling["m_prime"]
    # The CSV sets M, which config validation never sees.
    _cap("data_path", m, MAX_SAMPLES, "samples per sensor")
    _cap("sampling.m_prime", m * m_prime, _MAX_PHI_ENTRIES, "dense Phi entries (M x M')")
    n_bench = config.n_benchmark_modes
    if n_bench > n:
        raise ConfigError(f"n_benchmark_modes: asks for {n_bench} modes from {n} sensors")
    if not n <= m_prime <= m:
        raise ConfigError(f"sampling.m_prime: need N={n} sensors <= M' <= M={m}, got {m_prime}")

    bench_freqs, bench_shapes = fdd_peaks(welch_csd(samples, t_s), n_bench)

    phi = draw_jl_matrix(m, m_prime, "gaussian", config.seed)
    schedule = uniform_schedule(t_s, m)
    raw = DataMatrix(samples, "raw", schedule=schedule)
    compressed = compress(raw, phi)

    estimate = estimate_modes(compressed)
    svd_shapes = estimate.mode_shapes_hat[:, :n_bench]

    reconstructed = sparse_reconstruct(compressed.entries, phi).signal
    _, csfdd_shapes = fdd_peaks(welch_csd(reconstructed, t_s), n_bench)

    rows = []
    panels = []
    series = ("benchmark", "svd_y", "cs_fdd")
    for k in range(n_bench):
        bench = bench_shapes[:, k]
        err_svd = aligned_distance(svd_shapes[:, k], bench)
        err_csfdd = aligned_distance(csfdd_shapes[:, k], bench)
        rows.append((k + 1, float(bench_freqs[k]), float(err_svd), float(err_csfdd)))
        overlay = zip(
            np.real(bench),
            np.real(_phase_aligned(svd_shapes[:, k], bench)),
            np.real(_phase_aligned(csfdd_shapes[:, k], bench)),
        )
        panels.append(
            Panel(
                f"shapes_mode{k + 1}.csv",
                ("sensor",) + series,
                [(j, float(b), float(s), float(c)) for j, (b, s, c) in enumerate(overlay, start=1)],
                "sensor",
                series,
                f"mode {k + 1} shapes",
            )
        )
    columns = ("mode", "benchmark_freq", "err_svd", "err_csfdd")
    axes = {"x": "sensor index", "y": "mode-shape component"}
    return ResultTable("realdata", columns, tuple(rows), config.as_dict(), axes, tuple(panels))


_RUNNERS = {
    "exp1": _run_sweep,
    "exp2": _run_sweep,
    "exp3": _run_exp3,
    "exp4": _run_exp4,
    "exp5": _run_exp5,
    "realdata": _run_realdata,
}
