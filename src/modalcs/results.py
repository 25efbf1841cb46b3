"""Result tables, sensor CSV input, and plot-data emission.

Tables serialize to RFC-4180 CSV with CRLF line endings and '.' decimal
separators regardless of locale.  Float cells are written with repr(), whose
shortest round-trip representation makes the serialization lossless and the
bytes deterministic for identical inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, IoError, ParseError, RaggedRows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    raise InvalidArgument(f"unsupported cell type {type(value).__name__}")


@dataclass(frozen=True)
class ResultTable:
    """One experiment's output rows plus the resolved config that made them.

    ``extras`` carries non-tabular payloads (spectra, mode shapes) consumed
    by emit_plot_data; it is not serialized into the CSV.
    """

    experiment: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    config: dict
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise InvalidArgument(
                    f"row {i} has {len(row)} cells, expected {len(self.columns)}"
                )

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_format_cell(v) for v in row])
        return buf.getvalue()


def write_result_csv(table: ResultTable, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(table.to_csv())
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_sensor_csv(path: str, header: bool = False) -> np.ndarray:
    """Read a rectangular numeric CSV, one sensor per row, into an (N, M) array.

    Every cell must be a finite number.  Line and column numbers in errors
    are 1-based and count the header row.  Blank lines are ignored.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            raw_rows = list(csv.reader(fh))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    start = 1 if header else 0
    values = []
    width = None
    for i, row in enumerate(raw_rows):
        if i < start or not row:
            continue
        line_no = i + 1
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise RaggedRows(
                f"expected {width} columns, found {len(row)}", line=line_no
            )
        parsed = []
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            # float() also accepts "nan" and "inf", which no sensor records.
            if not math.isfinite(value):
                raise ParseError(
                    f"invalid number {cell.strip()!r}", line=line_no, column=j + 1
                )
            parsed.append(value)
        values.append(parsed)
    if not values:
        raise ParseError(f"no data rows in {path}")
    return np.array(values, dtype=float)


def save_sensor_csv(matrix, path: str, header: list[str] | None = None) -> None:
    """Write a real matrix as CSV; load_sensor_csv round-trips it bit-exactly."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise InvalidArgument(f"expected a 2-d matrix, got shape {arr.shape}")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            if header is not None:
                writer.writerow(header)
            for row in arr:
                writer.writerow([repr(float(v)) for v in row])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_plot_csv(path: str, columns: list[str], rows: list[tuple]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_format_cell(v) for v in row])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _sweep_curves(table: ResultTable):
    """Group exp1/exp2 rows into per-mode (t_max, uniform, random) triples."""
    n_modes = len([c for c in table.columns if c.startswith("err_mode")])
    t_idx = table.columns.index("t_max")
    s_idx = table.columns.index("scheme")
    by_tmax: dict[float, dict[str, tuple]] = {}
    for row in table.rows:
        by_tmax.setdefault(row[t_idx], {})[row[s_idx]] = row
    curves = []
    for k in range(1, n_modes + 1):
        e_idx = table.columns.index(f"err_mode{k}")
        rows = []
        for t_max in sorted(by_tmax):
            pair = by_tmax[t_max]
            rows.append(
                (
                    t_max,
                    pair["uniform"][e_idx] if "uniform" in pair else None,
                    pair["random"][e_idx] if "random" in pair else None,
                )
            )
        curves.append((k, rows))
    return curves


def emit_plot_data(table: ResultTable, out_dir: str) -> list[str]:
    """Write one CSV per sub-figure plus a JSON manifest; returns paths written.

    Output bytes are a pure function of the table.  An empty table produces
    a manifest with zero curves and no CSVs.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc

    curves: list[dict] = []
    written: list[str] = []
    axes = {"x": "t_max [s]", "y": "aligned mode-shape error"}

    if not table.rows:
        pass
    elif table.experiment in ("exp1", "exp2"):
        for k, rows in _sweep_curves(table):
            name = f"mode{k}.csv"
            _write_plot_csv(
                os.path.join(out_dir, name),
                ["t_max", "err_uniform", "err_random"],
                rows,
            )
            written.append(name)
            curves.append(
                {"file": name, "x": "t_max", "series": ["err_uniform", "err_random"], "label": f"mode {k}"}
            )
    elif table.experiment == "exp3":
        axes = {"x": "number of samples M", "y": "max aligned error"}
        name = "max_error_vs_m.csv"
        cols = [
            "m",
            "err_uniform_max",
            "err_random_matched_mean_max",
            "err_random_extended_mean_max",
        ]
        idx = [table.columns.index(c) for c in cols]
        _write_plot_csv(
            os.path.join(out_dir, name),
            cols,
            [tuple(row[i] for i in idx) for row in table.rows],
        )
        written.append(name)
        curves.append({"file": name, "x": "m", "series": cols[1:], "label": "max error vs M"})
    elif table.experiment == "exp4":
        axes = {"x": "mode", "y": "aligned mode-shape error"}
        name = "errors_by_mode.csv"
        variant_idx = table.columns.index("variant")
        uniform_row = next(r for r in table.rows if r[variant_idx] == "uniform_sub")
        mean_row = next(r for r in table.rows if r[variant_idx] == "compressed_mean")
        n_modes = len([c for c in table.columns if c.startswith("err_mode")])
        rows = []
        for k in range(1, n_modes + 1):
            e_idx = table.columns.index(f"err_mode{k}")
            rows.append((k, uniform_row[e_idx], mean_row[e_idx]))
        _write_plot_csv(
            os.path.join(out_dir, name),
            ["mode", "err_uniform_sub", "err_compressed_mean"],
            rows,
        )
        written.append(name)
        curves.append(
            {"file": name, "x": "mode", "series": ["err_uniform_sub", "err_compressed_mean"], "label": "per-mode errors"}
        )
    elif table.experiment == "exp5":
        axes = {"x": "omega [rad/s]", "y": "row FFT magnitude"}
        omega = table.extras["spectrum_omega"]
        mags = table.extras["spectrum_magnitudes"]
        peak_bins = table.extras["spectrum_peak_bins"]
        for k in range(len(mags)):
            name = f"spectrum_mode{k + 1}.csv"
            rows = [
                (float(w), float(m), 1 if j == peak_bins[k] else 0)
                for j, (w, m) in enumerate(zip(omega, mags[k]))
            ]
            _write_plot_csv(os.path.join(out_dir, name), ["omega", "magnitude", "is_peak"], rows)
            written.append(name)
            curves.append(
                {"file": name, "x": "omega", "series": ["magnitude"], "label": f"mode {k + 1} spectrum"}
            )
    elif table.experiment == "realdata":
        axes = {"x": "sensor index", "y": "mode-shape component"}
        shapes = table.extras["shapes"]
        n_modes = len(shapes["benchmark"])
        for k in range(n_modes):
            name = f"shapes_mode{k + 1}.csv"
            rows = [
                (j + 1, float(b), float(s), float(c))
                for j, (b, s, c) in enumerate(
                    zip(shapes["benchmark"][k], shapes["svd_y"][k], shapes["cs_fdd"][k])
                )
            ]
            _write_plot_csv(
                os.path.join(out_dir, name),
                ["sensor", "benchmark", "svd_y", "cs_fdd"],
                rows,
            )
            written.append(name)
            curves.append(
                {"file": name, "x": "sensor", "series": ["benchmark", "svd_y", "cs_fdd"], "label": f"mode {k + 1} shapes"}
            )
    else:
        raise InvalidArgument(f"no plot layout for experiment {table.experiment!r}")

    manifest = {
        "experiment": table.experiment,
        "config": table.config,
        "axes": axes,
        "curves": curves,
        "files": written,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    try:
        with open(manifest_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {manifest_path}: {exc}") from exc
    return [manifest_path] + [os.path.join(out_dir, n) for n in written]
