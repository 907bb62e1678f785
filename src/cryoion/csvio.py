"""CSV ingest and deterministic report output.

Dialect: comma separator, ``.`` decimal point, ``#`` comment lines, mandatory
header row.  Numbers are written with ``%.12g`` so identical inputs produce
byte-identical files; provenance comments carry the tool version and a sha256
of each input instead of timestamps.

numpy is imported inside the functions that build arrays, so a command
that needs only scalars starts without it.
"""
from __future__ import annotations

import csv
import io
import math
import os
from collections.abc import Mapping, Sequence

from .errors import CsvFormatError, InsufficientDataError, NonUniformTimeError

NUMBER_FORMAT = "%.12g"

_REL_DT_TOL = 1e-6


def fmt(value: float) -> str:
    return NUMBER_FORMAT % float(value)


def sha256_of(path) -> str:
    import hashlib  # only calls that hash an input pay for the import

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def provenance_lines(version: str, input_paths: Sequence = ()) -> list[str]:
    """Comment lines identifying the tool version and hashed inputs."""
    lines = [f"cryoion {version}"]
    for path in input_paths:
        lines.append(f"input {os.path.basename(str(path))} sha256={sha256_of(path)}")
    return lines


def read_table(path, columns: Sequence[str]) -> dict[str, np.ndarray]:
    """Read a CSV file with exactly the expected header into named float arrays."""
    import numpy as np

    try:
        handle = open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise FileNotFoundError(f"cannot open {path}: {exc}") from exc
    with handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    # Lines end at \n, \r or \r\n only: str.splitlines would also split at
    # \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029 and move the line numbers.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = [(lineno, raw) for lineno, raw in enumerate(text.split("\n"), start=1)
             if (stripped := raw.strip()) and not stripped.startswith("#")]
    if not lines:
        raise CsvFormatError(f"{path}: missing header row")
    header = _fields(lines[0][1])
    if header != list(columns):
        raise CsvFormatError(f"{path}: header {header} does not match expected {list(columns)}")
    data = [raw for _, raw in lines[1:]]
    if not data:
        raise InsufficientDataError(f"{path}: no data rows")
    # One conversion for the whole table, once every line has width - 1
    # commas.  The fields need no strip: float() skips the whitespace
    # str.strip() removes, except \x1c-\x1f, which fail here, as do quoted
    # fields.  On any such failure the row-by-row parse decides and names
    # the bad line.
    width = len(header)
    arr = None
    if all(raw.count(",") == width - 1 for raw in data):
        try:
            arr = np.array(list(map(float, ",".join(data).split(","))))
        except ValueError:
            pass
    if arr is None or not np.isfinite(arr).all():
        arr = np.array([_row(path, lineno, raw, width) for lineno, raw in lines[1:]])
    # one transposed copy: each column is a contiguous row of it
    columns_first = arr.reshape(len(data), width).T.copy()
    return dict(zip(columns, columns_first))


def _fields(raw: str) -> list[str]:
    return [f.strip() for f in next(csv.reader([raw]))]


def _row(path, lineno: int, raw: str, width: int) -> list[float]:
    """One data line parsed on its own; raises CsvFormatError naming the line."""
    fields = _fields(raw)
    if len(fields) != width:
        raise CsvFormatError(f"{path}: line {lineno}: expected {width} fields, got {len(fields)}")
    try:
        row = [float(f) for f in fields]
    except ValueError as exc:
        raise CsvFormatError(f"{path}: line {lineno}: {exc}") from exc
    if not all(math.isfinite(v) for v in row):
        raise CsvFormatError(f"{path}: line {lineno}: non-finite value")
    return row


def read_timeseries(path, time_column: str, value_column: str) -> TimeSeries:
    """Read a two-column record and require a uniform time base.

    The sample interval is taken from the median of the time differences;
    any step deviating by more than 1e-6 relative is rejected.
    """
    import numpy as np

    from .series import TimeSeries

    table = read_table(path, [time_column, value_column])
    t = table[time_column]
    v = table[value_column]
    if t.size < 2:
        raise InsufficientDataError(f"{path}: need at least 2 samples")
    steps = np.diff(t)
    lo, hi = (steps.size - 1) // 2, steps.size // 2  # np.median's middle, without numpy.ma
    dt = float(np.partition(steps, (lo, hi))[lo:hi + 1].mean())
    if dt <= 0:
        raise NonUniformTimeError(f"{path}: time column is not increasing")
    if np.max(np.abs(steps - dt)) > _REL_DT_TOL * dt:
        raise NonUniformTimeError(
            f"{path}: non-uniform sampling (worst step deviates by more than "
            f"{_REL_DT_TOL:g} relative)")
    return TimeSeries(t0=float(t[0]), dt=dt, samples=v)


def render_table(columns: Mapping[str, np.ndarray], comments: Sequence[str] = ()) -> str:
    """Render named columns to CSV text with leading ``#`` comment lines."""
    import numpy as np

    names = list(columns)
    arrays = [np.atleast_1d(np.asarray(columns[n], dtype=float)) for n in names]
    length = arrays[0].size
    if any(a.size != length for a in arrays):
        raise CsvFormatError("all columns must have the same length")
    out = io.StringIO()
    for line in comments:
        out.write(f"# {line}\n")
    out.write(",".join(names) + "\n")
    for i in range(length):
        out.write(",".join(fmt(a[i]) for a in arrays) + "\n")
    return out.getvalue()


def write_table(path, columns: Mapping[str, np.ndarray], comments: Sequence[str] = ()) -> None:
    text = render_table(columns, comments)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(text)
