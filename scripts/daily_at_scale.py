#!/usr/bin/env python3
"""Time the four daily commands in-process at the north star's sizes.

Usage (from anywhere in a checkout):

    python3 scripts/daily_at_scale.py [--repeats 5] [--seed 1]

Loads `perfbench/generate.py` and changes its size constants in this process
only: 1000 validators, and 5 tenors x 20 strikes, which is 100 option quotes a
day. It writes one market year of `daily-reports` inputs into a temporary
directory, runs each job (`stake`, `implied-rate`, `perp funding`,
`perp basis`) through `cryptoyield.cli.main` `--repeats` times, and prints
one line per command with the minimum and median wall seconds, the rows of
its input CSV and the sha256 of each CSV file it wrote, so that two checkouts
can be compared for byte identity at these sizes (`report.json` is left out:
it names the temporary input paths). The package is imported from this
checkout's `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cryptoyield import cli  # noqa: E402

VALIDATORS = 1000
CHAIN_TENORS_DAYS = (7, 14, 30, 60, 90)
CHAIN_MONEYNESS = tuple(round(0.8 + 0.02 * i, 2) for i in range(20))


def generator():
    """perfbench/generate.py as a module of its own, resized to the north star's sizes."""
    path = os.path.join(ROOT, "perfbench", "generate.py")
    spec = importlib.util.spec_from_file_location("daily_at_scale_generate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.VALIDATORS = VALIDATORS
    module.CHAIN_TENORS_DAYS = CHAIN_TENORS_DAYS
    module.CHAIN_MONEYNESS = CHAIN_MONEYNESS
    return module


def time_job(config, out, repeats):
    """Wall seconds of each of `repeats` runs of one job config."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", config, "--out", out])
        walls.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"{config}: exit {code}")
    return walls


def csv_digests(out):
    """`name sha256 <hex>` of each CSV file in the report directory `out`, in name order."""
    digests = []
    for name in sorted(n for n in os.listdir(out) if n.endswith(".csv")):
        with open(os.path.join(out, name), "rb") as fh:
            digests.append(f"{name} sha256 {hashlib.sha256(fh.read()).hexdigest()}")
    return ", ".join(digests)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="daily-at-scale-") as work:
        inputs = os.path.join(work, "inputs")
        os.makedirs(inputs)
        jobs, _, _, _ = generator().daily_reports(inputs, args.seed)
        for name, config in jobs:
            with open(config) as fh:
                table = next(value for key, value in json.load(fh).items() if str(value).endswith(".csv"))
            with open(os.path.join(inputs, table)) as fh:
                rows = sum(1 for _ in fh) - 1
            out = os.path.join(work, "out", name)
            walls = time_job(config, out, args.repeats)
            print(f"{name}: min {min(walls):.4f} s, median {statistics.median(walls):.4f} s "
                  f"over {len(walls)} runs; {rows} input rows; {csv_digests(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
