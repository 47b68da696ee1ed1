"""Run one workload's job list through the CLI, in this fresh process, and time it.

Usage: python3 perfbench/worker.py PLAN_JSON

The plan names the jobs (config files), the output root, the measuring time
and whether to trace. Each pass runs every job the way a user would,
`cli.main(["run", "--config", ..., "--out", ...])`, with stdout discarded.
Pass 0 warms the process up and its reports are kept for the output checks;
the timed passes that follow must reproduce its bytes. Prints one JSON object.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from cryptoyield import cli
from generate import digest

import tracing


def run_pass(jobs, out_root):
    """Run every job once; returns (pass wall, {job: wall}, {job: exit code})."""
    walls, codes = {}, {}
    start = time.perf_counter()
    with open(os.devnull, "w") as sink:
        for name, config in jobs:
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    codes[name] = cli.main(["run", "--config", config, "--out", os.path.join(out_root, name)])
            except Exception:  # a crash is a failed job, not a failed benchmark
                traceback.print_exc()
                codes[name] = 1
            walls[name] = time.perf_counter() - t
    return time.perf_counter() - start, walls, codes


def report_digests(jobs, out_root, inputs):
    """Digest of each job's report directory, with the input location masked."""
    out = {}
    for name, _ in jobs:
        path = os.path.join(out_root, name)
        out[name] = digest(path, mask=inputs) if os.path.isdir(path) else None
    return out


def timed_passes(plan, budget, min_passes, reference, tracer=None):
    """Repeat passes until the next one would overrun ``budget`` seconds."""
    jobs, scratch = plan["jobs"], os.path.join(plan["out"], "timed")
    passes = []
    began = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        wall, walls, codes = run_pass(jobs, scratch)
        digests = report_digests(jobs, scratch, plan["inputs"])
        shutil.rmtree(scratch, ignore_errors=True)
        passes.append({
            "wall": wall,
            "jobs": walls,
            "failed": sorted(n for n, _ in jobs if codes[n] != 0 or digests[n] != reference[n]),
            "layers": tracer.summary() if tracer is not None else None,
        })
        elapsed = time.perf_counter() - began
        if len(passes) >= min_passes and elapsed + wall > budget:
            return passes


def normals_seconds(config_path, repeats=3):
    """Time drawing the one-touch job's normals: same Philox keys and block shapes."""
    with open(config_path) as fh:
        spec = json.load(fh)["spec"]
    steps, seed = spec["steps"], spec["seed"]
    pairs = spec["paths"] // 2
    block_pairs = max(1, (1 << 21) // steps)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for block, first in enumerate(range(0, pairs, block_pairs)):
            key = (seed % (1 << 64)) * (1 << 64) + block
            np.random.Generator(np.random.Philox(key=key)).standard_normal((min(block_pairs, pairs - first), steps))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(plan_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    jobs, seconds = plan["jobs"], plan["seconds"]
    first = os.path.join(plan["out"], "pass0")
    _, _, codes = run_pass(jobs, first)
    reference = report_digests(jobs, first, plan["inputs"])
    result = {"codes": codes, "digests": reference}
    if not plan["trace"]:
        result["passes"] = timed_passes(plan, seconds, 3, reference)
    else:
        result["passes"] = timed_passes(plan, seconds / 2, 2, reference)
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            result["traced"] = timed_passes(plan, seconds / 2, 2, reference, tracer)
        finally:
            uninstall()
        tracer.dump(plan["spans"])
        one_touch = [config for name, config in jobs if name == "oracle-one-touch"]
        result["rng_s"] = normals_seconds(one_touch[0]) if one_touch else 0.0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
