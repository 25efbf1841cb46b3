"""Command-line driver.

Usage:
    modal-cs run --experiment exp1 --out results/
    modal-cs run --config my_config.json --out results/ [--seed N] [--header]

With both --experiment and --config, the config file overlays the named
preset (its sampling block merges key-by-key); with --config alone the file
must be a complete configuration.  Exit codes: 0 success, 2 config error,
3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .config import EXPERIMENTS, ExperimentConfig, preset
from .errors import ConfigError, ModalcsError
from .results import emit_plot_data, write_result_csv
from .runner import run_experiment


@functools.cache  # built once per process; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modal-cs",
        description="Mode-shape recovery experiments from compressed vibration samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment and write its tables")
    run_p.add_argument("--experiment", choices=EXPERIMENTS, help="preset experiment id")
    run_p.add_argument("--config", help="JSON config file (overlays the preset if --experiment is also given)")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--header", action="store_true", help="sensor CSV has a header row")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (ValueError, RecursionError) as exc:
        # Bad JSON, not UTF-8, a 4,301-digit int, or nesting past the recursion limit.
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def _resolve_config(args) -> ExperimentConfig:
    if args.experiment is None and args.config is None:
        raise ConfigError("one of --experiment or --config is required")
    if args.experiment is not None:
        raw = preset(args.experiment)
        if args.config is not None:
            overlay = _load_config_file(args.config)
            declared = overlay.get("experiment")
            if declared is not None and declared != args.experiment:
                raise ConfigError(
                    f"--experiment {args.experiment} conflicts with config file "
                    f"experiment {declared!r}"
                )
            sampling = overlay.get("sampling", {})
            if isinstance(sampling, dict):  # anything else is left for validation to refuse
                sampling = {**raw.get("sampling", {}), **sampling}
            raw.update(overlay)
            raw["sampling"] = sampling
            raw["experiment"] = args.experiment
    else:
        raw = _load_config_file(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.header:
        raw["header"] = True
    return ExperimentConfig.from_dict(raw)


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        table = run_experiment(config)
        written = emit_plot_data(table, args.out)  # creates args.out
        csv_path = os.path.join(args.out, table.results_file)
        write_result_csv(table, csv_path)
        print(f"{config.experiment}: {len(table.rows)} rows -> {csv_path}")
        for path in written:
            print(f"  wrote {path}")
        return 0
    except ModalcsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    raise SystemExit(run())
