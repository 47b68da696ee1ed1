"""Report assembly and deterministic emission.

A report is a summary dict plus named CSV series. A series is a table of
named, equal-length columns (`core.Columns`), each a list or a 1-D numpy
array; its CSV holds every column, in the table's order. Emission is
strictly reproducible: floats render via repr (shortest round-trip), JSON
keys are sorted, newlines are fixed, and provenance carries the config
hash, tool version, seed and input-file digests instead of timestamps.
Identical config and inputs therefore produce byte-identical files.

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

Series render in chunks of rows, column by column: each column of a chunk
becomes a list of cell texts, the texts of a row are joined with "," and the
chunk is written as one string, so the write holds at most one chunk of
texts besides the columns themselves. A float array column renders each
distinct value of the chunk once; text cells are quoted by csv.writer, once
per distinct text. The bytes are those of csv.writer writing every cell
through `render_value`.
"""

from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import math
import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import CryptoYieldError, InputError

# Rows of a series rendered and written at a time. Rendering the seed-1
# benchmark series takes the same time at 512 to 4096 rows, and the peak RSS
# of its pool and swap replays reads 71.8-72.0 MB at 256, 1024 and 4096 rows
# alike: the replay's own tables set it.
_CHUNK_ROWS = 1024

# A text cell that csv.writer might quote: one holding its delimiter, its
# quote character or a line break. Any other text it writes as it is.
_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search


def render_value(value):
    """Canonical cell rendering: repr for floats, str otherwise.

    A numpy scalar renders as the Python value it holds.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool) or value is None:
        return "" if value is None else str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
                with open(os.path.join(files, f"{series.name}.csv"), "w", newline="", encoding="utf-8") as fh:
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
    """Header plus rows of one series; a non-finite float cell raises CryptoYieldError.

    Each chunk of rows renders column by column into cell texts (`_texts`),
    which are joined with "," into rows and written as one string.
    csv.writer writes the header and quotes each distinct text cell that
    needs it, so its rules are the only quoting rules.
    """
    columns, rows = series.rows.columns, len(series.rows)
    for column, values in columns.items():
        if len(values) != rows:
            raise ValueError(f"{series.name}.csv: column {column!r} has {len(values)} rows, not {rows}")
    csv.writer(fh, lineterminator="\n").writerow(columns)
    lone = len(columns) == 1  # csv.writer quotes a row's lone empty field
    for start in range(0, rows, _CHUNK_ROWS):
        cells = [_texts(values[start:start + _CHUNK_ROWS], lone, series.name, column)
                 for column, values in columns.items()]
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _texts(values, lone, name, column):
    """The cells of one chunk of a column as csv.writer writes render_value's texts."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64:  # each distinct bit pattern, -0.0 apart from 0.0, renders once
            if not np.isfinite(values).all():
                raise _non_finite(name, column)
            bits, where = np.unique(values.view(np.int64), return_inverse=True)
            return np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)[where].tolist()
        values = values.tolist()
    types = set(map(type, values))
    if types == {float}:
        if not all(map(math.isfinite, values)):
            raise _non_finite(name, column)
        return list(map(repr, values))
    if types == {int}:
        return list(map(str, values))
    if types != {str} and not all(math.isfinite(v) for v in values if isinstance(v, (float, np.floating))):
        raise _non_finite(name, column)
    texts = values if types == {str} else list(map(render_value, values))
    quoted = {text: _quoted(text) for text in set(texts) if _NEEDS_QUOTES(text) or (lone and not text)}
    return [quoted.get(text, text) for text in texts] if quoted else texts


def _quoted(text):
    """`text` as csv.writer writes it as the only field of a row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text])
    return buffer.getvalue()[:-1]


def _non_finite(name, column):
    return CryptoYieldError(f"{name}.csv: column {column!r} holds a non-finite number")
