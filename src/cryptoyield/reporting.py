"""Report assembly and deterministic emission.

A report is a summary dict plus named CSV series. A series is a table of
named, equal-length columns (`core.Columns`), each a list or a 1-D numpy
array; its CSV holds every column, in the table's order. Emission is
strictly reproducible: CSV floats render as repr writes them (the shortest
text that reads back as the same double), computed with integer arithmetic
only so that every CPU gives the same bytes; JSON keys are sorted, newlines
are fixed, and provenance carries the config hash, tool version, seed and
input-file digests instead of timestamps. Identical config and inputs
therefore produce byte-identical files.

All series are computed before anything is written. `Report.write` then
renders every file into a staging directory, refusing a non-finite cell as
it renders, and moves the files into the report directory only once all of
them have rendered. A report directory that does not exist yet is staged
whole (with any missing parents) and renamed into place in one step, so a
write that fails leaves no report directory. Into a report directory that
already exists the files move one at a time, once all of them have
rendered and no target is a directory: a write that fails while rendering
leaves its other files as they were, but an OS error among the moves (a
permission, a full disk) can leave the files moved before it. The staging
directory is removed on return and on any exception, but a process killed
mid-write leaves it behind as a hidden `.report-*` directory.

Series render in chunks of rows. Each column of a chunk becomes a uint8
matrix, one row of UTF-8 bytes per cell padded with `shortest.PAD`; the
matrices are laid side by side with the separators, and the chunk is
written with the padding deleted, so no Python object is made per cell of
a number column. The float columns of a chunk render together through
`shortest.float_cells`, each distinct bit pattern once; an int64 array
renders each distinct value once through `shortest.int_cells`; text cells
are quoted by csv.writer, once per distinct text. A list of floats renders
as a float64 array, and a list of mixed cells renders numpy scalars as the
Python values they hold, None as "", booleans as "true" and "false", floats
through the same kernel and anything else by str. The bytes are those of
csv.writer writing each cell's text.
"""

from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__, shortest
from .errors import CryptoYieldError, InputError

# Rows and cells of a series rendered and written at a time. The float
# columns of a chunk render in one kernel call, so even narrow tables hand
# the kernel thousands of values, and the cell bound keeps the write of a
# wide table within ~3 MB of tracemalloc peak (2.8 MB for the seed-1 basis
# table's 7 float columns). Measured on the seed-1 benchmark series: halving
# either bound slows the 4-column positions table by 20-30%; doubling the
# cells raises the daily-reports jobs' tracemalloc peak by ~1 MB.
_CHUNK_ROWS = 4096
_CHUNK_CELLS = 1 << 14

# A text cell that csv.writer might quote: one holding its delimiter, its
# quote character or a line break. Any other text it writes as it is.
_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search

_PAD = bytes([shortest.PAD])


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def file_digest(path) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                h.update(chunk)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return h.hexdigest()


@dataclass
class Series:
    """One CSV, `name`.csv: every column of the table `rows`, in the table's order.

    `rows` is a `core.Columns`; its len() is the row count.
    """

    name: str
    rows: object


@dataclass
class Report:
    command: str
    summary: dict
    series: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def finalize_provenance(self, config: dict, input_paths=(), seed=None):
        # The config itself is embedded so a report can be reproduced from
        # the report directory alone; the hash is for quick comparison.
        self.provenance = {
            "version": __version__,
            "config": config,
            "config_hash": config_hash(config),
            "seed": seed,
            "inputs": {str(p): file_digest(p) for p in sorted(str(x) for x in input_paths)},
        }

    def write(self, out_dir) -> list:
        """Write report.json plus one CSV per series; returns written paths.

        report.json is strict JSON and every CSV float cell is finite: a
        non-finite number raises CryptoYieldError, and out_dir gains nothing.
        Files render into a staging directory, made in out_dir or its
        nearest existing ancestor and removed on return. A new out_dir is
        then renamed into place whole; into an existing one the files move
        once all of them have rendered and no target is a directory.
        Every file is UTF-8, whatever the locale.
        """
        payload = {
            "command": self.command,
            "summary": self.summary,
            "series_files": [f"{s.name}.csv" for s in self.series],
            "provenance": self.provenance,
        }
        try:
            text = json.dumps(payload, sort_keys=True, indent=2, default=str, allow_nan=False)
        except ValueError as exc:
            raise CryptoYieldError(f"report for {self.command!r} holds a non-finite number: {exc}") from exc
        home, top = os.path.abspath(out_dir), None
        while not os.path.isdir(home):  # os.replace needs the stage on out_dir's file system
            home, top = os.path.dirname(home), home  # top: the outermost directory still missing
        stage = tempfile.mkdtemp(prefix=".report-", dir=home)
        try:
            # A new out_dir is staged as the tree from `top` down, made by
            # os.makedirs (so with its modes, not mkdtemp's 0o700), and
            # renamed into place whole.
            tree = os.path.join(stage, "tree")
            files = stage if top is None else os.path.normpath(os.path.join(tree, os.path.relpath(out_dir, top)))
            os.makedirs(files, exist_ok=True)
            for series in self.series:
                with open(os.path.join(files, f"{series.name}.csv"), "wb") as fh:
                    _write_series(fh, series)
            with open(os.path.join(files, "report.json"), "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            written = [os.path.join(out_dir, name) for name in payload["series_files"] + ["report.json"]]
            if top is not None:
                os.rename(tree, top)
            else:
                for path in written:  # os.replace cannot put a file over a directory
                    if os.path.isdir(path):
                        raise IsADirectoryError(errno.EISDIR, "is a directory", path)
                for path in written:
                    os.replace(os.path.join(stage, os.path.basename(path)), path)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
        return written


def _write_series(fh, series):
    """Header plus rows of one series, as bytes; a non-finite float cell raises CryptoYieldError.

    Each chunk of rows renders column by column into rows of bytes padded
    with shortest.PAD, which are laid side by side with the separators and
    written with the padding deleted. csv.writer writes the header and quotes each distinct
    text cell that needs it, so its rules are the only quoting rules.
    """
    columns, rows = series.rows.columns, len(series.rows)
    for column, values in columns.items():
        if len(values) != rows:
            raise ValueError(f"{series.name}.csv: column {column!r} has {len(values)} rows, not {rows}")
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(columns)
    fh.write(header.getvalue().encode())
    names, lone = list(columns), len(columns) == 1  # csv.writer quotes a row's lone empty field
    step = max(1, min(_CHUNK_ROWS, _CHUNK_CELLS // max(1, len(columns))))
    for start in range(0, rows, step):
        chunk, bad = zip(*(_column(values[start:start + step]) for values in columns.values()))
        if any(row is not None for row in bad):  # the earliest bad row, then its first bad column
            _, column = min((row, column) for column, row in enumerate(bad) if row is not None)
            raise CryptoYieldError(f"{series.name}.csv: column {names[column]!r} holds a non-finite number")
        # The float columns render in one kernel call, so that tables with few
        # rows pay numpy's per-call cost once, and each distinct bit pattern
        # (-0.0 apart from 0.0) renders once.
        floats = [values for values in chunk if _is_float(values)]
        if floats:
            bits, where = np.unique(np.concatenate(floats).view(np.int64), return_inverse=True)
            table, where = shortest.float_cells(bits.view(np.float64)), iter(np.split(where, len(floats)))
        blocks = [(table, next(where)) if _is_float(values) else (_cells(values, lone), None) for values in chunk]
        matrix = np.empty((len(chunk[0]), sum(cells.shape[1] + 1 for cells, _ in blocks)), dtype=np.uint8)
        at = 0
        for cells, picks in blocks:
            matrix[:, at:at + cells.shape[1]] = cells if picks is None else cells[picks]
            at += cells.shape[1] + 1
            matrix[:, at - 1] = ord(",")
        matrix[:, -1] = ord("\n")
        fh.write(matrix[matrix != shortest.PAD])


def _column(values):
    """(cells, first non-finite row or None) of a chunk of a column.

    The cells are a float64 or int64 array, or the cells' texts.
    """
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64:
            finite = np.isfinite(values)
            return values, (None if finite.all() else int(np.argmin(finite)))
        if values.dtype == np.int64:
            return values, None
        values = values.tolist()
    types = set(map(type, values))
    if types == {float}:
        return _column(np.array(values, dtype=np.float64))
    if types == {int}:
        return list(map(str, values)), None
    if types <= {str}:
        return values, None
    # Mixed cells: numpy scalars as their Python values, None as "", booleans
    # in lower case, floats through the float kernel and anything else by str.
    values = [value.item() if isinstance(value, np.generic) else value for value in values]
    at = [i for i, value in enumerate(values) if isinstance(value, float)]
    floats = np.array([values[i] for i in at], dtype=np.float64)
    finite = np.isfinite(floats)
    if not finite.all():
        return None, at[int(np.argmin(finite))]
    texts = ["" if value is None else str(value).lower() if isinstance(value, bool) else str(value)
             for value in values]
    for i, cell in zip(at, shortest.float_cells(floats)):
        texts[i] = cell.tobytes().rstrip(_PAD).decode()
    return texts, None


def _is_float(values):
    return isinstance(values, np.ndarray) and values.dtype == np.float64


def _cells(values, lone):
    """The cells of a chunk of an int64 or text column as rows of UTF-8 bytes, padded with shortest.PAD.

    Each distinct integer renders once; each distinct text is quoted by
    csv.writer once.
    """
    if isinstance(values, np.ndarray):
        distinct, where = np.unique(values, return_inverse=True)
        return shortest.int_cells(distinct)[where]
    codes = dict.fromkeys(values)
    for code, text in enumerate(codes):
        codes[text] = code
    encoded = [(_quoted(text) if _NEEDS_QUOTES(text) or (lone and not text) else text).encode() for text in codes]
    width = max(map(len, encoded), default=0)
    table = np.frombuffer(b"".join(text.ljust(width, _PAD) for text in encoded), dtype=np.uint8)
    return table.reshape(len(encoded), width)[np.fromiter(map(codes.__getitem__, values), np.intp, len(values))]


def _quoted(text):
    """`text` as csv.writer writes it as the only field of a row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text])
    return buffer.getvalue()[:-1]
