import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)


def result(wall, rss, work):
    units = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
    values = {"setup_s": 0.3, "wall_s": wall, "work_per_s": work, "peak_rss_mb": rss}
    return {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def test_summary_counts_better_pairs_in_each_metric_direction():
    walls = [(1.0, 0.6), (1.2, 0.7), (1.1, 1.3), (1.3, 0.65), (1.05, 0.62)]
    pairs = [{"parent": result(p, 60.0, 10 / p), "change": result(c, 59.0, 10 / c)} for p, c in walls]
    summary = bench_compare.summarise(pairs)
    wall = summary["wall_s"]
    assert wall["parent"]["median"] == 1.1 and wall["change"]["median"] == 0.65
    assert wall["change_better_pairs"] == 4 and summary["work_per_s"]["change_better_pairs"] == 4
    assert summary["peak_rss_mb"]["change_better_pairs"] == 5
    assert wall["median_gap_over_parent_iqr"] == pytest.approx(0.45 / (wall["parent"]["q3"] - wall["parent"]["q1"]))
    # Equal runs leave the gap undefined rather than infinite.
    assert summary["setup_s"]["median_gap_over_parent_iqr"] is None
    assert summary["setup_s"]["change_better_pairs"] == 0


def test_out_writes_the_record_there_and_leaves_the_committed_file(tmp_path, monkeypatch):
    committed = SCRIPT.parent.parent / "BENCH_mc-oracle.json"
    before = committed.read_bytes()
    parent_tree = tmp_path / "parent"
    parent_tree.mkdir()
    monkeypatch.setattr(bench_compare, "export", lambda rev: ("abc1234", str(parent_tree)))
    monkeypatch.setattr(bench_compare, "describe_change", lambda: "working tree")
    walls = iter([1.0, 0.5, 0.6, 1.1, 1.2, 0.7])
    monkeypatch.setattr(bench_compare, "run_once", lambda *args: result(next(walls), 60.0, 1.0))
    out = tmp_path / "record.json"
    argv = ["--parent", "HEAD", "--workload", "mc-oracle", "--pairs", "3", "--seconds", "1", "--out", str(out)]
    assert bench_compare.main(argv) == 0
    record = json.loads(out.read_text())
    assert record["parent"] == "abc1234" and [p["first"] for p in record["pairs"]] == ["parent", "change", "parent"]
    assert record["summary"]["wall_s"]["change_better_pairs"] == 3
    assert committed.read_bytes() == before
    assert not parent_tree.exists()


def test_each_pair_prints_every_end_to_end_metric(tmp_path, monkeypatch, capsys):
    declared = [m["name"] for m in json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]]
    parent_tree = tmp_path / "parent"
    parent_tree.mkdir()
    monkeypatch.setattr(bench_compare, "export", lambda rev: ("abc1234", str(parent_tree)))
    monkeypatch.setattr(bench_compare, "describe_change", lambda: "working tree")
    # Parent first in pair 0, change first in pair 1.
    runs = iter([result(1.0, 60.25, 10.0), result(0.5, 48.5, 20.0), result(0.6, 48.75, 16.5), result(1.1, 59.5, 9.0)])
    monkeypatch.setattr(bench_compare, "run_once", lambda *args: next(runs))
    argv = ["--parent", "HEAD", "--workload", "daily-reports", "--pairs", "2", "--seconds", "1",
            "--out", str(tmp_path / "record.json")]
    assert bench_compare.main(argv) == 0
    printed = capsys.readouterr().err.splitlines()
    assert printed == [
        "pair 0 seed 1001: setup_s parent 0.3, change 0.3 s; wall_s parent 1, change 0.5 s; "
        "work_per_s parent 10, change 20 1/s; peak_rss_mb parent 60.25, change 48.5 MB",
        "pair 1 seed 1002: setup_s parent 0.3, change 0.3 s; wall_s parent 1.1, change 0.6 s; "
        "work_per_s parent 9, change 16.5 1/s; peak_rss_mb parent 59.5, change 48.75 MB",
    ]
    for line in printed:
        assert [part.split(" parent ")[0] for part in line.split(": ", 1)[1].split("; ")] == declared



def test_metrics_and_bounds_come_from_the_benchmark_file(tmp_path, monkeypatch, capsys):
    declared = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]
    parent_tree = tmp_path / "parent"
    parent_tree.mkdir()
    monkeypatch.setattr(bench_compare, "export", lambda rev: ("abc1234", str(parent_tree)))
    monkeypatch.setattr(bench_compare, "describe_change", lambda: "working tree")
    # Parent first, then change, then change first: a 30% slower setup (0.236 -> 0.307 s) is past
    # the 0.25 bound, a 10% slower wall time within it, and work_per_s falls by exactly its bound.
    runs = iter([(0.236, 1.0, 60.0, 10.0), (0.307, 1.1, 60.0, 7.4), (0.307, 1.1, 66.1, 7.6), (0.236, 1.0, 60.0, 10.0)])

    def run_once(*args):
        setup, wall, rss, work = next(runs)
        run = result(wall, rss, work)
        run["metrics"]["setup_s"]["value"] = setup
        return run

    monkeypatch.setattr(bench_compare, "run_once", run_once)
    out = tmp_path / "record.json"
    argv = ["--parent", "HEAD", "--workload", "daily-reports", "--pairs", "2", "--seconds", "1", "--out", str(out)]
    assert bench_compare.main(argv) == 0
    summary = json.loads(out.read_text())["summary"]
    assert [(name, s["better"], s["bound"]) for name, s in summary.items()] == [
        (m["name"], m["better"], m["bound"]) for m in declared
    ]
    assert {name: s["beyond_bound"] for name, s in summary.items()} == {
        "setup_s": True, "wall_s": False, "work_per_s": False, "peak_rss_mb": False,
    }
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("setup_s: ") and printed[0].endswith(", beyond the 0.25 bound)")
    assert ", claim not met, " in printed[0]
    assert printed[3].startswith("peak_rss_mb: ") and printed[3].endswith(", within the 0.1 bound)")

    # A higher-is-better metric that falls past its bound, and a lower-is-better one that rises past it.
    pairs = [{"parent": result(1.0, 60.0, 10.0), "change": result(0.1, 66.1, 7.4)} for _ in range(2)]
    summary = bench_compare.summarise(pairs)
    assert summary["work_per_s"]["beyond_bound"] and summary["peak_rss_mb"]["beyond_bound"]
    assert summary["wall_s"]["beyond_bound"] is False  # an improvement, however large


PARENT_RSS = [70.1, 70.3, 70.4, 70.5, 70.6, 70.2, 70.5, 70.4, 70.7, 70.5]


@pytest.mark.parametrize("parent, change, better, met", [
    # Lower in 10 of 10 pairs, median 59.25 against 70.45 with a parent IQR of 0.25.
    (PARENT_RSS, [59.1, 59.2, 59.3, 59.4, 59.2, 59.3, 59.1, 59.3, 59.2, 59.4], 10, True),
    # The same medians, but two pairs tie: lower in 8 of 10.
    (PARENT_RSS, [59.1, 59.2, 59.3, 59.4, 59.2, 59.3, 59.1, 59.3, 70.7, 70.5], 8, False),
    # Lower in every pair, by 1 MB, which sits inside the parent's 9 MB IQR.
    ([60.0, 62.0, 64.0, 66.0, 68.0, 70.0, 72.0, 74.0, 76.0, 78.0],
     [59.0, 61.0, 63.0, 65.0, 67.0, 69.0, 71.0, 73.0, 75.0, 77.0], 10, False),
], ids=["met", "8-of-10-pairs", "gap-inside-iqr"])
def test_claim_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_parent_iqr(parent, change, better, met):
    pairs = [{"parent": result(1.0, p, 10.0), "change": result(1.0, c, 10.0)} for p, c in zip(parent, change)]
    summary = bench_compare.summarise(pairs)["peak_rss_mb"]
    assert summary["change_better_pairs"] == better and summary["pairs"] == 10
    assert summary["change"]["median"] < summary["parent"]["median"]
    assert summary["claim_met"] is met


def test_claim_is_never_met_by_a_change_for_the_worse():
    # Twice the wall time, half the work rate: a wide gap, in the wrong direction.
    summary = bench_compare.summarise([{"parent": result(1.0, 60.0, 10.0), "change": result(2.0, 60.0, 5.0)}] * 10)
    assert not summary["wall_s"]["claim_met"] and not summary["work_per_s"]["claim_met"]
    assert not summary["peak_rss_mb"]["claim_met"]  # equal runs


# Parent wall times that drift 2.5x across the pairs, or hold steady.
DRIFTING = [0.6, 0.9, 1.5, 0.7, 1.2, 0.65, 1.4, 0.8, 1.1, 1.0]
STEADY = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]


@pytest.mark.parametrize("parent, ratios, verdict", [
    # Every pair 5% slower: the ratio holds through the drift that hides it from the unpaired medians.
    (DRIFTING, [1.05] * 10, "unchanged"),
    (DRIFTING, [0.9, 1.1, 1.0, 0.95, 1.05, 1.2, 0.8, 1.0, 1.1, 0.9], "unchanged"),
    # Steady parents, but the change scatters by +-40% from pair to pair.
    (STEADY, [0.6, 1.4, 0.7, 1.3, 0.6, 1.4, 0.7, 1.3, 1.0, 1.0], "unresolved"),
    # Every pair 30% slower, past the 0.25 bound.
    (STEADY, [1.3] * 10, "unresolved"),
], ids=["steady-ratio", "ratio-iqr-inside-bound", "scattered-ratio", "steady-ratio-past-bound"])
def test_no_change_verdict_reads_the_per_pair_ratio(parent, ratios, verdict):
    pairs = [{"parent": result(p, 60.0, 10.0), "change": result(p * r, 60.0, 10.0)} for p, r in zip(parent, ratios)]
    wall = bench_compare.summarise(pairs)["wall_s"]
    assert wall["pair_ratio"]["median"] == pytest.approx(sorted(ratios)[4] / 2 + sorted(ratios)[5] / 2)
    assert wall["pair_ratio"]["q1"] <= wall["pair_ratio"]["median"] <= wall["pair_ratio"]["q3"]
    assert wall["no_change"] == verdict
    if parent is DRIFTING:  # unpaired, the parent's own spread is past the bound
        assert wall["parent"]["q3"] - wall["parent"]["q1"] > wall["bound"] * wall["parent"]["median"]
