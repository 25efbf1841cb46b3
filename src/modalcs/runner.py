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
from .errors import ConfigError, _checked_type
from .estimator import (
    _amplitude_rank,
    _gram_modes,
    _mode_errors,
    _phase_aligned,
    estimate_modes,
    frequency_spectra,
)
from .results import Panel, ResultTable, load_sensor_csv
from .sampling import (
    _BLOCK_BYTES,
    _MAX_PHI_ENTRIES,
    DataMatrix,
    _random_times,
    _shared_map,
    build_data_matrix,
    compress,
    draw_jl_matrix,
    spawn_seeds,
    uniform_schedule,
)

def run_experiment(config: ExperimentConfig) -> ResultTable:
    return _RUNNERS[_checked_type(config, ExperimentConfig, "config").experiment](config)


def _stacked_errors(basis, points, t_s, gram=False):
    """Per-mode aligned errors of (t_max, m, scheme, seed) schedules, ~1 MB per _gram_modes
    call, and if gram each S's deviation.  Seedless points are uniform_schedule(t_s, m)'s times,
    the rest one _random_times draw per chunk.  Times past a schedule's m are padding, zeroed in
    E = e^{i w t}: V = Psi diag(A) E and S = E / sqrt(m) keep V V* and S S*, so U and the
    deviation.  E is released before V is factored.
    """
    coef = basis.mode_shapes * basis.amplitudes
    chunk = max(1, _BLOCK_BYTES // (16 * basis.n_dof * max(point[1] for point in points)))
    errors, deviations = [], []
    for start in range(0, len(points), chunk):
        rows = points[start : start + chunk]
        m = np.array([point[1] for point in rows])[:, None]
        times = np.arange(m.max()) * t_s * (np.arange(m.max()) < m)
        drawn = [i for i, point in enumerate(rows) if point[3] is not None]
        if drawn:
            t_max, counts, _, seeds = zip(*(rows[i] for i in drawn))
            times[drawn, : max(counts)] = _random_times(t_max, counts, seeds)
        e = np.exp(1j * (basis.frequencies[:, None] * times[:, None, :]))
        e *= np.arange(times.shape[-1]) < m[:, None]
        v = coef @ e
        if gram:
            deviations.append(gram_deviation(np.divide(e, np.sqrt(m[:, None]), out=e)))
        del e
        errors.append(_mode_errors(_gram_modes(v), basis))
    return np.concatenate(errors), deviations and np.concatenate(deviations)


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

    points = []  # (t_max, m, scheme, seed): uniform, then random, per t_max
    for i in range(n_points):
        t_max = round(start + i * step, 10)
        m = _samples_for(t_max, t_s)
        if m < n or t_max <= 0.0:
            continue
        points += [(t_max, m, "uniform", None), (t_max, m, "random", int(seeds[i]))]
    if not points:
        raise ConfigError(
            f"sampling.t_max_stop: no t_max up to {stop} gives the {n} samples "
            f"at t_s = {t_s} that the estimator needs"
        )

    errors, deviations = _stacked_errors(basis, points, t_s, gram=True)
    gersh = gershgorin_uniform_bound(basis.frequencies, t_s, [p[1] for p in points[::2]])
    bounds = [bound for uniform in gersh.tolist() for bound in (uniform, None)]  # random: None
    rows = [(*point, *err.tolist(), float(err.max()), float(dev), bound)
            for point, err, dev, bound in zip(points, errors, deviations, bounds)]
    columns = ("t_max", "m", "scheme", "seed") + tuple(
        f"err_mode{k}" for k in range(1, n + 1)
    ) + ("max_err", "gram_deviation", "gershgorin")
    series = ("err_uniform", "err_random")
    t_maxes = [point[0] for point in points[::2]]  # one column object for every panel
    panels = tuple(
        Panel(f"mode{k}.csv", ("t_max",) + series, (t_maxes, *pair.tolist()), series, f"mode {k}")
        for k, pair in enumerate(errors.reshape(-1, 2, n).T, start=1)
    )
    axes = {"x": "t_max [s]", "y": "aligned mode-shape error"}
    return ResultTable(config.experiment, columns, tuple(rows), config.as_dict(), axes, panels)


def _run_exp3(config: ExperimentConfig) -> ResultTable:
    """Sweep M; compare random schedules at matched vs. extended t_max.

    For each M the uniform reference uses t_max = (M-1) t_s.  Random
    schedules are drawn n_trials times at the matched t_max and n_trials
    times at t_max + extension; the table reports the mean over trials of
    the max aligned error.  Every M's schedules go through one _stacked_errors call.
    """
    basis = build_basis(config)
    t_s = config.sampling["t_s"]
    extension = config.sampling.get("extension", 2.0)
    m_values = sorted(config.sampling["m_values"])
    n_trials = config.n_trials
    point_seeds = spawn_seeds(config.seed, len(m_values))

    rows, points = [], []
    for i, m in enumerate(m_values):
        t_max_u = round((m - 1) * t_s, 10)
        t_max_e = round(t_max_u + extension, 10)
        trial_seeds = spawn_seeds(int(point_seeds[i]), 2 * n_trials).tolist()
        rows.append((m, t_max_u, t_max_e))
        points += [(t_max_u, m, "uniform", None)] + [
            (t_max, m, "random", seed)
            for t_max, seed in zip([t_max_u] * n_trials + [t_max_e] * n_trials, trial_seeds)
        ]
    maxima = _stacked_errors(basis, points, t_s)[0].max(axis=-1).reshape(len(rows), -1)
    for i, top in enumerate(maxima):  # each M's uniform point, then its 2 n_trials random ones
        matched, extended = top[1:].reshape(2, n_trials)
        rows[i] += (float(top[0]), float(np.mean(matched)), float(np.mean(extended)), n_trials)
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
    cells = list(zip(*rows))
    panel = Panel("max_error_vs_m.csv", ("m",) + series, (cells[0], *cells[3:6]), series,
                  "max error vs M")
    axes = {"x": "number of samples M", "y": "max aligned error"}
    return ResultTable(config.experiment, columns, tuple(rows), config.as_dict(), axes, (panel,))


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
    errors_sub = _stacked_errors(basis, [(t_max, m_sub, "uniform", None)], t_s_sub)[0][0]

    m_super = _samples_for(t_max, t_s_super)
    data_super = build_data_matrix(basis, uniform_schedule(t_s_super, m_super))
    phi_seeds = spawn_seeds(config.seed, config.n_phi_seeds).tolist()
    chunk = max(1, _BLOCK_BYTES // (16 * n * m_prime))

    def compressed(seed):
        return compress(data_super, draw_jl_matrix(m_super, m_prime, "gaussian", seed)).entries

    stacked = np.concatenate([
        _mode_errors(_gram_modes(np.array(_shared_map(compressed, phi_seeds[start : start + chunk]))),
                     basis)
        for start in range(0, len(phi_seeds), chunk)
    ])
    errors_mean = stacked.mean(axis=0)
    rows = [("uniform_sub", None, t_s_sub, m_sub, None, *errors_sub.tolist(),
             float(errors_sub.max()))]
    rows += [("compressed", seed, t_s_super, m_super, m_prime, *errors.tolist(),
              float(errors.max())) for seed, errors in zip(phi_seeds, stacked)]
    rows.append(("compressed_mean", None, t_s_super, m_super, m_prime, *errors_mean.tolist(),
                 float(stacked.max(axis=1).mean())))
    columns = ("variant", "seed", "t_s", "m", "m_prime") + tuple(
        f"err_mode{k}" for k in range(1, n + 1)
    ) + ("max_err",)
    series = ("err_uniform_sub", "err_compressed_mean")
    panel = Panel(
        "errors_by_mode.csv",
        ("mode",) + series,
        (list(range(1, n + 1)), errors_sub.tolist(), errors_mean.tolist()),
        series,
        "per-mode errors",
    )
    axes = {"x": "mode", "y": "aligned mode-shape error"}
    return ResultTable(config.experiment, columns, tuple(rows), config.as_dict(), axes, (panel,))


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

    tolerance = 2.0 * np.pi / data.schedule.t_max
    pairs = zip(basis.frequencies[_amplitude_rank(basis)].tolist(), omega_est.tolist())
    rows = [(k, true, est, abs(est - true), tolerance) for k, (true, est) in enumerate(pairs, 1)]
    columns = ("mode", "omega_true", "omega_est", "abs_error", "tolerance")
    is_peak = (np.arange(omega.size) == peak_bins[:, None]).astype(int)
    omega_cells = omega.tolist()  # one column object: emit_plot_data formats it once
    panels = tuple(
        Panel(
            f"spectrum_mode{k + 1}.csv",
            ("omega", "magnitude", "is_peak"),
            (omega_cells, mags[k].tolist(), is_peak[k].tolist()),
            ("magnitude",),
            f"mode {k + 1} spectrum",
        )
        for k in range(len(mags))
    )
    axes = {"x": "omega [rad/s]", "y": "row FFT magnitude"}
    return ResultTable(config.experiment, columns, tuple(rows), config.as_dict(), axes, panels)


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
        overlay = [bench, _phase_aligned(svd_shapes[:, k], bench),
                   _phase_aligned(csfdd_shapes[:, k], bench)]
        rows.append((k + 1, float(bench_freqs[k]),
                     *(float(np.linalg.norm(bench - shape)) for shape in overlay[1:])))
        panels.append(
            Panel(
                f"shapes_mode{k + 1}.csv",
                ("sensor",) + series,
                (list(range(1, n + 1)), *np.real(overlay).tolist()),
                series,
                f"mode {k + 1} shapes",
            )
        )
    columns = ("mode", "benchmark_freq", "err_svd", "err_csfdd")
    axes = {"x": "sensor index", "y": "mode-shape component"}
    return ResultTable(config.experiment, columns, tuple(rows), config.as_dict(), axes, tuple(panels))


_RUNNERS = {
    "exp1": _run_sweep,
    "exp2": _run_sweep,
    "exp3": _run_exp3,
    "exp4": _run_exp4,
    "exp5": _run_exp5,
    "realdata": _run_realdata,
}
