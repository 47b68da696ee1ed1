#!/usr/bin/env python3
"""Benchmark a parent commit against the working tree and write BENCH_<workload>.json or --out.

Usage (from anywhere in a checkout):

    python3 scripts/bench_compare.py --parent REV --workload mc-oracle --pairs 10 --seconds 36

Exports REV with `git archive` into `.perfbench_work/`, then runs
`perfbench/run.py` once per seed on each side: the exported tree with its
own harness, and the working tree with its harness. Pair k uses seed
FIRST_SEED + k, and the parent runs first on even pairs, the change on odd
ones. For each end-to-end metric that BENCHMARK.json declares, the values
of every run, their medians and quartiles (`statistics.quantiles(n=4)`, as
`perfbench/run.py` reports them), the ratio of the medians, the pairs in
which the change did better, the median gap over the parent's interquartile
range, whether a gain may be claimed (`claim_met`), whether the change's
median is worse than the metric's `bound` allows, and the quartiles of the
per-pair change/parent ratio with a no-change verdict go to BENCH_<workload>.json
at the root of the checkout, or to the file that --out names (so that a
check which should not replace the committed record writes elsewhere). The
record's machine line names the cores, Python, numpy and the SIMD extensions
numpy found, because numpy picks its kernels by them. The exported tree is
removed at the end.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
# The end-to-end metrics that BENCHMARK.json declares, each with its name, unit, better and bound.
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    END_TO_END = json.load(fh)["end_to_end"]


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout


def export(rev: str) -> tuple[str, str]:
    """(short sha, directory) of ``rev`` exported with git archive."""
    sha = git("rev-parse", "--short", rev).decode().strip()
    target = os.path.join(WORK, f"parent-{sha}")
    shutil.rmtree(target, ignore_errors=True)
    os.makedirs(target)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(target, filter="data")
    return sha, target


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one perfbench run in ``tree``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: perfbench/run.py exited {done.returncode} on seed {seed}")
    return json.loads(lines[-1])


def quartiles(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(pairs) -> dict:
    """Per end-to-end metric: quartiles of each side, better pairs, gap over IQR, claim and bound.

    A gain may be claimed (`claim_met`) when the change did better in at
    least nine tenths of the pairs, ties counting for neither, and its
    median is better than the parent's by more than the parent's
    interquartile range. A metric is beyond its bound when the change's
    median is worse than the parent's by more than `bound` times the
    parent's median.

    Pairing cancels the host's drift between pairs, so each pair's
    change/parent ratio spreads less than either side's runs. A metric reads
    "unchanged" when that ratio's q1-q3 lies inside 1 +- bound, and
    "unresolved" otherwise.
    """
    summary = {}
    for metric in END_TO_END:
        name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        before, after = quartiles(parent), quartiles(change)
        iqr = before["q3"] - before["q1"]
        worse_by = (after["median"] - before["median"]) * (1 if lower else -1)
        better_pairs = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ratio = quartiles([c / p for p, c in zip(parent, change)])
        summary[name] = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "better": metric["better"],
            "parent": before,
            "change": after,
            "ratio_of_medians": after["median"] / before["median"],
            "change_better_pairs": better_pairs,
            "pairs": len(pairs),
            "median_gap_over_parent_iqr": abs(after["median"] - before["median"]) / iqr if iqr else None,
            "claim_met": 10 * better_pairs >= 9 * len(pairs) and -worse_by > iqr,
            "bound": bound,
            "beyond_bound": worse_by > bound * abs(before["median"]),
            "pair_ratio": ratio,
            "no_change": "unchanged" if 1 - bound <= ratio["q1"] and ratio["q3"] <= 1 + bound else "unresolved",
        }
    return summary


def describe_pair(pair) -> str:
    """Every end-to-end metric of one pair, parent then change, so that a check stopped early keeps them all."""
    values = []
    for metric in END_TO_END:
        parent, change = (pair[side]["metrics"][metric["name"]] for side in ("parent", "change"))
        values.append(f"{metric['name']} parent {parent['value']:.6g}, change {change['value']:.6g} {change['unit']}")
    return "; ".join(values)


def describe_change() -> str:
    head = git("rev-parse", "--short", "HEAD").decode().strip()
    dirty = git("status", "--porcelain", "--", "src", "perfbench").strip()
    return f"working tree on top of {head}" + (" (src/ or perfbench/ modified)" if dirty else "")


def simd_extensions() -> str:
    """The SIMD extensions numpy found on this CPU, which pick its kernels (and so some float bits)."""
    import numpy as np
    try:
        found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])  # absent when all are disabled
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        return "SIMD unknown"
    return "SIMD " + (" ".join(found) or "none beyond baseline")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1001)
    parser.add_argument("--machine-note", default="one benchmark worker at a time",
                        help="appended to the machine line, e.g. the threads a run starts")
    parser.add_argument("--out", help="file to write the record to (default: BENCH_<workload>.json at the root)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2 for quartiles")

    sha, parent_tree = export(args.parent)
    change = describe_change()
    pairs = []
    try:
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"pair": k, "seed": seed, "first": order[0]}
            for side in order:
                tree = parent_tree if side == "parent" else ROOT
                pair[side] = run_once(tree, args.workload, seed, args.seconds)
            pairs.append(pair)
            print(f"pair {k} seed {seed}: {describe_pair(pair)}", file=sys.stderr)
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)

    record = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED --seconds {args.seconds:g}",
        "machine": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}, "
                   f"numpy {importlib.metadata.version('numpy')} ({simd_extensions()}); {args.machine_note}",
        "parent": sha,
        "change": change,
        "method": f"{args.pairs} interleaved pairs on seeds {args.first_seed}-{args.first_seed + args.pairs - 1}, "
                  "parent first on even pairs and change first on odd pairs; quartiles as "
                  "statistics.quantiles(n=4), as perfbench/run.py reports them",
        "summary": summarise(pairs),
        "failed": {side: [p[side]["failed"] for p in pairs] for side in ("parent", "change")},
        "pairs": pairs,
    }
    out = args.out or os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for name, s in record["summary"].items():
        print(f"{name}: parent {s['parent']['median']:.6g} -> change {s['change']['median']:.6g} "
              f"({s['ratio_of_medians']:.3f}x, pair ratio {s['pair_ratio']['median']:.3f} "
              f"({s['pair_ratio']['q1']:.3f}-{s['pair_ratio']['q3']:.3f}), {s['no_change']}, "
              f"better in {s['change_better_pairs']}/{s['pairs']}, "
              f"claim {'met' if s['claim_met'] else 'not met'}, "
              f"{'beyond' if s['beyond_bound'] else 'within'} the {s['bound']:g} bound)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
