#!/usr/bin/env python3
"""cryptoyield benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload daily-reports --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, times a fresh interpreter's
`import cryptoyield.cli` plus `build_parser()` (set-up), then runs the job list
through the CLI in a fresh single-threaded worker process for the given number
of seconds and checks every report against the generator's ground truth.
Prints each metric by name with its unit, then, as the last line, one JSON
object: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import generate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
COLD_STARTS = 7
WORKER_TIMEOUT_S = 150
TARGET_SE = 1e-4

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metric -> unit. Timings are per pass, medians over the traced passes.
PER_LAYER_UNITS = {
    "cli.main.self_s": "s", "cli.ops": "count", "cli.failed": "count",
    "core.read_csv_rows.s": "s", "core.read_csv_rows.rows": "count", "core.input_bytes": "bytes",
    "staking.load_validators.self_s": "s", "staking.available_days.s": "s",
    "staking.percentile_bands.s": "s", "staking.percentile_bands.calls": "count",
    "staking.eligible_share": "ratio",
    "optrates.load_chain_csv.self_s": "s", "optrates.chain_points.s": "s", "optrates.daily_series.s": "s",
    "optrates.rolling_average.s": "s", "optrates.valid_share": "ratio",
    "perps.load_mark_index_csv.self_s": "s", "perps.load_basis_csv.self_s": "s",
    "perps.events_from_quotes.s": "s", "perps.basis_rows.s": "s",
    "reporting.write.s": "s", "reporting.rows_out": "count", "reporting.bytes_out": "bytes",
    "reporting.finalize_provenance.s": "s",
    "scenarios.run_pool_scenario.self_s": "s", "scenarios.run_swap_scenario.self_s": "s",
    "amm.Pool.s": "s", "amm.Pool.calls": "count", "amm.arbitrage_trade_share": "ratio",
    "xccy.check_and_terminate.s": "s", "xccy.check_and_terminate.calls": "count",
    "xccy.accrue_legs.s": "s", "xccy.accrue_legs.calls": "count", "xccy.ledger_entries": "count",
    "mc.first_passage_value.s": "s", "mc.price_payoff.s": "s", "mc.path_steps": "count",
    "mc.std_error": "value", "mc.rng_s": "s", "mc.kernel_over_rng": "ratio", "mc.time_to_target_se_s": "s",
    "lending.one_touch_value.s": "s", "lending.margrabe_details.s": "s", "lending.err_over_se": "ratio",
    "trace.overhead_s": "s", "trace.attributed_share": "ratio",
    "share.staking_optrates": "ratio", "share.mc": "ratio", "share.reporting_write": "ratio",
}
STAKING_OPTRATES = ("staking.load_validators.s", "staking.available_days.s", "staking.percentile_bands.s",
                    "optrates.load_chain_csv.s", "optrates.chain_points.s", "optrates.daily_series.s",
                    "optrates.rolling_average.s")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env):
    """Median wall of fresh interpreters importing the CLI and building its parser."""
    probe = [sys.executable, "-c", "import cryptoyield.cli as c; c.build_parser()"]
    times = []
    for i in range(COLD_STARTS + 1):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run(probe, env=env, cwd=ROOT, check=True)
        if i:  # the first start also writes bytecode caches
            times.append(time.perf_counter() - start)
    return statistics.median(times), times


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}..{q3:.4f}"


def median_layers(passes):
    keys = set().union(*(p["layers"] for p in passes))
    return {k: statistics.median(p["layers"].get(k, 0.0) for p in passes) for k in keys}


def layer_metrics(result, counts, facts):
    layers = median_layers(result["traced"])
    m = {name: layers.get(name, 0.0) for name in PER_LAYER_UNITS}
    m.update({k: v for k, v in facts.items() if k in PER_LAYER_UNITS})
    tried = counts.get("validator_days_tried", 0)
    m["staking.eligible_share"] = counts["validator_days_eligible"] / tried if tried else 0.0
    calls = layers.get("amm.arbitrage_calls", 0.0)
    m["amm.arbitrage_trade_share"] = layers.get("amm.arbitrage_trades", 0.0) / calls if calls else 0.0
    m["mc.rng_s"] = result["rng_s"]
    if result["rng_s"]:
        m["mc.kernel_over_rng"] = m["mc.first_passage_value.s"] / result["rng_s"]
        one_touch = statistics.median(p["jobs"]["oracle-one-touch"] for p in result["passes"])
        m["mc.time_to_target_se_s"] = one_touch * (m["mc.std_error"] / TARGET_SE) ** 2
    untraced = statistics.median(p["wall"] for p in result["passes"])
    traced = statistics.median(p["wall"] for p in result["traced"])
    m["trace.overhead_s"] = traced - untraced
    busy = layers.get("cli.main.s", 0.0)
    if busy:
        m["trace.attributed_share"] = 1.0 - m["cli.main.self_s"] / busy
        m["share.staking_optrates"] = sum(layers.get(k, 0.0) for k in STAKING_OPTRATES) / busy
        m["share.mc"] = (m["mc.first_passage_value.s"] + m["mc.price_payoff.s"]) / busy
        m["share.reporting_write"] = m["reporting.write.s"] / busy
    return {k: {"value": float(v), "unit": PER_LAYER_UNITS[k]} for k, v in m.items()}


def check_reports(jobs, truth, out_root):
    """Run every job's output check on the pass-0 reports; returns (problems, facts)."""
    problems, facts = {}, {}
    for name, _ in jobs:
        try:
            found = checks.CHECKS[name](os.path.join(out_root, name), truth[name], facts)
        except Exception as exc:  # a missing or malformed report fails the job
            found = [f"{name}: {type(exc).__name__}: {exc}"]
        if found:
            problems[name] = found
    return problems, facts


def run(args):
    if not os.path.isfile(os.path.join(SRC, "cryptoyield", "cli.py")):
        print(f"no cryptoyield sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the checks call the package's closed forms
    work = os.path.join(WORK, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    inputs, out = os.path.join(work, "inputs"), os.path.join(work, "out")
    try:
        jobs, truth, counts, work_units = generate.generate(args.workload, inputs, args.seed)
        input_digest = generate.digest(inputs)
        env = child_env()
        plan = {"jobs": jobs, "inputs": inputs, "out": out, "seconds": args.seconds, "trace": args.trace,
                "spans": os.path.join(WORK, f"spans-{args.workload}.json")}
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        setup = setup_seconds(env) if not args.trace else None
        worker = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path], env=env,
                                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
        if worker.returncode != 0:
            print(f"worker exited with code {worker.returncode}", file=sys.stderr)
            return 1
        result = json.loads(worker.stdout.strip().splitlines()[-1])
        problems, facts = check_reports(jobs, truth, os.path.join(out, "pass0"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bad = {n for n, code in result["codes"].items() if code != 0} | set(problems)
    runs = result["passes"] + result.get("traced", [])
    attempted = len(jobs) * (1 + len(runs))
    failed = len(bad) + sum(len(bad | set(p["failed"])) for p in runs)

    print(f"workload {args.workload}, seed {args.seed}: inputs sha256 {input_digest}")
    print("input counts: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    print("report sha256: " + ", ".join(f"{n}={d}" for n, d in result["digests"].items()))
    for problem in (p for found in problems.values() for p in found):
        print(f"CHECK FAILED {problem}")
    walls = [p["wall"] for p in result["passes"]]
    job_walls = {n: statistics.median(p["jobs"][n] for p in result["passes"]) for n, _ in jobs}
    print(f"jobs failed {failed} of {attempted} attempted")
    print("untraced pass walls: " + ", ".join(f"{w:.4f}" for w in walls) + " s")
    print("job wall medians: " + ", ".join(f"{n}={w:.4f} s" for n, w in job_walls.items()))

    notes = {}
    if args.trace:
        metrics = layer_metrics(result, counts, facts)
    else:
        wall = statistics.median(walls)
        values = {"setup_s": setup[0], "wall_s": wall, "work_per_s": work_units / wall,
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        notes = {"setup_s": f"median of {len(setup[1])} cold starts; quartiles {quartiles(setup[1])}",
                 "wall_s": f"median of {len(walls)} passes; quartiles {quartiles(walls)}",
                 "work_per_s": f"{work_units} {generate.WORK_UNITS[args.workload]} per pass",
                 "peak_rss_mb": "worker process"}
    for name, metric in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(generate.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
