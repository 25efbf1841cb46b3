"""Acceptance 6's compressed protocol over many Phi seeds.

Usage (from the repository root):

    python3 tools/acc6_scan.py [--seed 1789] [--seeds 2000]

Runs exp4's preset (Gaussian Phi, M' 32, M 1,001, N 4) through ``run_experiment``
with the given master seed and ``n_phi_seeds`` K, and prints:

- the mean and standard deviation of the per-seed worst-mode error (``max_err``);
- how many disjoint 20-seed blocks have a mean below acceptance 6's 0.1, beside the
  normal approximation of that probability, Phi((0.1 - mean) / (sd / sqrt(20)));
- for the first 20 seeds, which are acceptance 6's (``spawn_seeds`` is prefix-stable):
  each seed's eps = ||W^H Phi Phi^T W - I||_2, with W the right singular vectors of the
  uncompressed data matrix V, its worst error, the per-mode ``mode_error_bound(sigma(V),
  eps, k)`` (sqrt(2) when eps >= 1), and corr(eps, worst error).

The first block's mean is the ``compressed_mean`` ``max_err`` cell of the exp4 table.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from modalcs import (ExperimentConfig, ModalcsError, build_basis, build_data_matrix,  # noqa: E402
                     draw_jl_matrix, gram_deviation, mode_error_bound, preset, run_experiment,
                     uniform_schedule)

BLOCK, THRESHOLD = 20, 0.1  # acceptance 6: the mean over 20 Phi seeds must be below 0.1


def scan(seed: int = 1789, seeds: int = 2000) -> dict:
    """exp4's compressed rows for `seeds` Phi seeds under master seed `seed`, and the block
    means and first-block diagnostics the module docstring lists."""
    raw = preset("exp4")
    raw.update(seed=seed, n_phi_seeds=seeds)
    config = ExperimentConfig.from_dict(raw)
    table = run_experiment(config)
    rows = [dict(zip(table.columns, row)) for row in table.rows if row[0] == "compressed"]
    n = len(config.frequencies)
    errors = np.array([[row[f"err_mode{k}"] for k in range(1, n + 1)] for row in rows])
    worst = np.array([row["max_err"] for row in rows])
    first = rows[:BLOCK]
    v = build_data_matrix(build_basis(config), uniform_schedule(first[0]["t_s"], first[0]["m"]))
    _, sigma, vh = np.linalg.svd(v.entries, full_matrices=False)
    eps = np.array([gram_deviation(vh @ draw_jl_matrix(row["m"], row["m_prime"], "gaussian",
                                                      row["seed"]).entries) for row in first])
    bounds = np.array([[mode_error_bound(sigma, e, k) if e < 1.0 else math.sqrt(2.0)
                        for k in range(n)] for e in eps])
    blocks = len(worst) // BLOCK
    return {
        "worst": worst,
        "block_means": [float(worst[b * BLOCK : (b + 1) * BLOCK].mean()) for b in range(blocks)],
        "eps": eps,
        "bounds": bounds,
        "first_errors": errors[:BLOCK],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1789, help="exp4's master seed")
    parser.add_argument("--seeds", type=int, default=2000, help="Phi seeds K, at least 20")
    args = parser.parse_args(argv)
    if args.seeds < BLOCK:
        parser.error(f"--seeds must be at least {BLOCK}")
    try:
        result = scan(args.seed, args.seeds)
    except ModalcsError as exc:
        parser.error(str(exc))
    worst, means, eps = result["worst"], np.array(result["block_means"]), result["eps"]
    mean, sd = float(worst.mean()), float(worst.std(ddof=1))
    z = (THRESHOLD - mean) / (sd / math.sqrt(BLOCK))
    print(f"exp4, master seed {args.seed}, {worst.size} Phi seeds")
    print(f"per-seed worst-mode error: mean {mean:.4f}, sd {sd:.4f}")
    print(f"{BLOCK}-seed blocks with mean < {THRESHOLD}: {int((means < THRESHOLD).sum())} of "
          f"{means.size}; normal approximation {0.5 * (1.0 + math.erf(z / math.sqrt(2.0))):.3f}")
    print(f"first block mean {float(means[0])!r}")
    n = result["bounds"].shape[1]
    print(f"first {BLOCK} seeds: eps, worst error, bound per mode")
    for e, w, bound in zip(eps, worst, result["bounds"]):
        print(f"  eps {e:.3f}  worst {w:.4f}  bounds " + " ".join(f"{b:.4f}" for b in bound))
    held = int((result["first_errors"] <= result["bounds"]).sum())
    print(f"eps median {np.median(eps):.3f} (range {eps.min():.3f}-{eps.max():.3f}); "
          f"corr(eps, worst) {np.corrcoef(eps, worst[:BLOCK])[0, 1]:.3f}; "
          f"errors within their bound {held} of {BLOCK * n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
