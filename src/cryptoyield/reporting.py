"""Report assembly and deterministic emission.

A report is a summary dict plus named CSV series. Emission is strictly
reproducible: floats render via repr (shortest round-trip), JSON keys are
sorted, newlines are fixed, and provenance carries the config hash, tool
version, seed and input-file digests instead of timestamps. Identical
config and inputs therefore produce byte-identical files.

All series are computed before anything is written; if writing itself
fails, the partial outputs and the directories the write created are
removed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

from . import __version__
from .errors import CryptoYieldError, InputError


def render_value(value):
    """Canonical cell rendering: repr for floats, str otherwise."""
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
    name: str
    columns: tuple
    rows: list


@dataclass
class Report:
    command: str
    summary: dict
    series: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def add_series(self, name, columns, rows):
        self.series.append(Series(name=name, columns=tuple(columns), rows=rows))

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
        non-finite number raises CryptoYieldError before anything is created.
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
        for series in self.series:  # a missing cell is the writer's error to raise
            for column in series.columns:
                if not all(math.isfinite(v) for row in series.rows if isinstance(v := row.get(column), float)):
                    raise CryptoYieldError(f"{series.name}.csv: column {column!r} holds a non-finite number")
        created = []  # directories this call makes, deepest first
        parent = os.path.abspath(out_dir)
        while not os.path.exists(parent):
            created.append(parent)
            parent = os.path.dirname(parent)
        os.makedirs(out_dir, exist_ok=True)
        written = []
        try:
            for series in self.series:
                path = os.path.join(out_dir, f"{series.name}.csv")
                written.append(path)  # track before opening so cleanup covers it
                with open(path, "w", newline="") as fh:
                    writer = csv.writer(fh, lineterminator="\n")
                    writer.writerow(series.columns)
                    for row in series.rows:
                        writer.writerow([render_value(row[c]) for c in series.columns])
            report_path = os.path.join(out_dir, "report.json")
            written.append(report_path)
            with open(report_path, "w") as fh:
                fh.write(text + "\n")
        except BaseException:
            for path in written:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            for path in created:
                try:
                    os.rmdir(path)
                except OSError:
                    pass
            raise
        return written
