"""Result tables, sensor CSV input, and plot-data emission.

Tables serialize to RFC-4180 CSV with CRLF line endings and '.' decimal
separators regardless of locale.  Cells are None, str, int or float; floats,
np.float64 included, are written with repr(), whose shortest round-trip form
makes the serialization lossless and the bytes deterministic.  Tables whose
columns are all float or all int are formatted column by column with repr()
and joined without csv.writer; the bytes are the ones csv.writer writes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgument, IoError, ParseError, RaggedRows, _checked_array, _checked_type


def _repr_column(cells):
    """cells as csv.writer prints them if all are float (np.float64 too) or all int, else None."""
    kinds = set(map(type, cells))
    if kinds <= {float, np.float64}:
        return list(map(float.__repr__, cells))
    if kinds == {int}:
        return list(map(int.__repr__, cells))
    return None


def _csv_text(header, columns, shown=None) -> str:
    """CRLF CSV text: the header row (when not None), then the rows of equal-length columns,
    formatted by _repr_column or, when given, taken from shown[id(column)]."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    if header is not None:
        writer.writerow(_checked_type(header, Sequence, "header"))  # csv.Error otherwise
    texts = [shown[id(col)] for col in columns] if shown else list(map(_repr_column, columns))
    if None not in texts:
        buf.write("\r\n".join([*map(",".join, zip(*texts, strict=True)), ""]))
    else:
        writer.writerows(zip(*columns, strict=True))
    return buf.getvalue()


def _write_text(path: str, text: str) -> None:
    _checked_type(path, (str, os.PathLike), "path")  # open() takes an int as a file descriptor
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise IoError(f"cannot write {path}: {exc}") from exc


class Panel(NamedTuple):
    """One plot CSV (file name, header, one cell column per header name) and its curve, x first."""

    file: str
    columns: tuple[str, ...]
    data: tuple[Sequence, ...]
    series: tuple[str, ...]
    label: str


@dataclass(frozen=True)
class ResultTable:
    """One experiment's output rows plus the resolved config that made them.

    ``axes`` names the plot axes and ``panels`` describes the plot CSVs in
    the order emit_plot_data writes them; each runner fills both from the
    values it computed.  Neither is serialized into the results CSV.
    """

    experiment: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    config: dict
    axes: dict = field(default_factory=dict)
    panels: tuple[Panel, ...] = ()

    def __post_init__(self):
        _checked_type(self.columns, Sequence, "columns")
        for i, row in enumerate(_checked_type(self.rows, Sequence, "rows")):
            if len(_checked_type(row, Sequence, f"row {i}")) != len(self.columns):
                raise InvalidArgument(
                    f"row {i} has {len(row)} cells, expected {len(self.columns)}"
                )
        for p in _checked_type(self.panels, Sequence, "panels"):
            data = _checked_type(_checked_type(p, Panel, "panel").data, Sequence, f"panel {p.file} data")
            if not p.columns or len(data) != len(p.columns) or len(
                    {len(_checked_type(col, Sequence, f"panel {p.file} column")) for col in data}) > 1:
                raise InvalidArgument(f"panel {p.file}: need one equal-length data column per name")

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_csv(self) -> str:
        return _csv_text(self.columns, list(zip(*self.rows)))


def write_result_csv(table: ResultTable, path: str) -> None:
    _write_text(path, _checked_type(table, ResultTable, "table").to_csv())


def _parse_row(row: list[str], line_no: int) -> np.ndarray:
    """One CSV row as float64, each cell read as float() reads it."""
    values = []
    for j, cell in enumerate(row):
        try:
            values.append(float(cell))
        except ValueError:
            values.append(math.nan)
        # float() also accepts "nan" and "inf", which no sensor records.
        if not math.isfinite(values[-1]):
            raise ParseError(f"invalid number {cell.strip()!r}", line=line_no, column=j + 1)
    return np.array(values)


def load_sensor_csv(path: str, header: bool = False) -> np.ndarray:
    """Read a rectangular numeric CSV, one sensor per row, into an (N, M) array.

    Every cell must be a finite number.  Line and column numbers in errors
    are 1-based and count the header row.  Blank lines are ignored.
    """
    _checked_type(header, bool, "header")  # both readers below skip `header` rows
    _checked_type(path, (str, os.PathLike), "path")  # open() takes an int as a file descriptor
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise IoError(f"cannot read {path}: {exc}") from exc
    # numpy strips "\x1c".."\x1f" and splitlines() splits at "\x0b" etc.; csv and float() do neither.
    if not any(map(text.__contains__, "\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029")):
        lines = iter(text.splitlines(keepends=True))
        with contextlib.suppress(ValueError, csv.Error), warnings.catch_warnings():
            if header:  # the loop below names a csv.Error's line
                next(csv.reader(lines), None)
            warnings.simplefilter("ignore", UserWarning)  # numpy's "input contained no data"
            parsed = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
            if parsed.size and np.isfinite(parsed).all():
                return parsed
    values, line_no = [], 0
    try:
        for line_no, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
            if line_no <= header or not row:
                continue
            if values and len(row) != values[0].size:
                raise RaggedRows(f"expected {values[0].size} columns, found {len(row)}",
                                 line=line_no)
            values.append(_parse_row(row, line_no))
    except csv.Error as exc:  # a cell longer than csv.field_size_limit(), say
        raise ParseError(str(exc), line=line_no + 1) from None
    if not values:
        raise ParseError(f"no data rows in {path}")
    return np.array(values)


def save_sensor_csv(matrix, path: str, header: list[str] | None = None) -> None:
    """Write a real matrix as CSV; load_sensor_csv round-trips it bit-exactly."""
    arr = _checked_array(matrix, "matrix", float)  # load_sensor_csv refuses nan and inf
    if arr.ndim != 2 or 0 in arr.shape:  # load_sensor_csv refuses a file without cells
        raise InvalidArgument(f"expected a non-empty 2-d matrix, got shape {arr.shape}")
    _write_text(path, _csv_text(header, arr.T.tolist()))


def emit_plot_data(table: ResultTable, out_dir: str) -> list[str]:
    """Write the table's panel CSVs and a JSON manifest; returns paths written.

    The manifest path comes first, then one path per panel in table order.
    Output bytes are a pure function of the table.  A table without panels
    produces a manifest with zero curves and no CSVs.
    """
    _checked_type(table, ResultTable, "table")
    _checked_type(out_dir, (str, os.PathLike), "out_dir")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise IoError(f"cannot create {out_dir}: {exc}") from exc
    # Each column object once, by id ([0.0] == [-0.0] prints otherwise); the panels keep them
    # alive.  A column's text is made for the first panel that holds it, dropped after the last.
    last = {id(col): i for i, panel in enumerate(table.panels) for col in panel.data}
    shown, written = {}, []
    for i, panel in enumerate(table.panels):
        shown.update((id(col), _repr_column(col)) for col in panel.data if id(col) not in shown)
        written.append(os.path.join(out_dir, panel.file))
        _write_text(written[-1], _csv_text(panel.columns, panel.data, shown))
        shown = {key: text for key, text in shown.items() if last[key] > i}
    manifest = {
        "experiment": table.experiment,
        "config": table.config,
        "axes": table.axes,
        "curves": [
            {"file": p.file, "x": p.columns[0], "series": list(p.series), "label": p.label}
            for p in table.panels
        ],
        "files": [p.file for p in table.panels],
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    _write_text(manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return [manifest_path] + written
