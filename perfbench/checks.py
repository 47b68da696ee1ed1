"""Output checks: each job's report directory against the generator's ground truth.

Every check returns a list of problems; an empty list means the job's output
is correct. References are computed here from the generated inputs with numpy
or exact rationals, not by calling the code under test, except the Monte Carlo
estimates, which are checked against the package's closed forms in `lending`
(that comparison is what the oracle exists for). Numbers the checks measure on
the way, such as |MC - closed form| / SE, go into ``facts``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from datetime import datetime, timezone

import numpy as np

from generate import EXCHANGE, ONE_TOUCH, SECONDS_PER_DAY, YEAR_START

FIGURE_PERCENTILES = (1, 5, 25, 50, 75, 95, 99)  # the stake command's default bands
DEADBAND = 0.0005  # deribit funding band, the CLI default
TOL = 1e-12
MC_SE_LIMIT = 4.0


def _csv(report_dir, name):
    with open(os.path.join(report_dir, f"{name}.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _summary(report_dir):
    with open(os.path.join(report_dir, "report.json")) as fh:
        return json.load(fh)["summary"]


def _column(header, rows, name, kind=float):
    i = header.index(name)
    return np.array([kind(r[i]) for r in rows]) if kind is float else [kind(r[i]) for r in rows]


def _mismatch(label, got, want, tol=TOL):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: {got.shape[0]} values, expected {want.shape[0]}"]
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    if not np.all(err <= tol):
        i = int(np.argmax(err))
        return [f"{label}: value {i} is {float(got[i])!r}, expected {float(want[i])!r}"]
    return []


def _day(index):
    return datetime.fromtimestamp(YEAR_START + int(index) * SECONDS_PER_DAY, tz=timezone.utc).date().isoformat()


def stake(report_dir, truth, facts):
    """Bands equal a brute-force percentile over the eligible validators of each day."""
    balances, eligible = truth["balances"], truth["eligible"]
    days, want = [], []
    for d in truth["window_days"]:
        cohort = eligible[:, d - 1]
        if not cohort.any():
            continue
        returns = 365.0 * (balances[cohort, d] / balances[cohort, d - 1] - 1.0)
        days.extend([_day(d)] * len(FIGURE_PERCENTILES))
        want.extend(100.0 * np.percentile(returns, p) for p in FIGURE_PERCENTILES)
    header, rows = _csv(report_dir, "bands")
    problems = _mismatch("stake bands", _column(header, rows, "return_pct"), want)
    if _column(header, rows, "day", str) != days:
        problems.append("stake: band days differ from the days with an eligible cohort")
    return problems


def implied_rate(report_dir, truth, facts):
    """Daily means equal a per-day mean of B = (S - C + P) / K rates; violators are excluded."""
    qt, expiry, strike, call, put, spot = truth["chain"].T
    b = (spot - call + put) / strike
    valid = b > 0
    rates = -np.log(b[valid]) / ((expiry - qt)[valid] / (SECONDS_PER_DAY * 365.0))
    day = ((qt[valid] - YEAR_START) // SECONDS_PER_DAY).astype(int)
    counts = np.bincount(day)
    present = np.flatnonzero(counts)
    means = np.bincount(day, weights=rates)[present] / counts[present]
    rolling = [means[max(0, i - 6): i + 1].mean() for i in range(len(means))]

    problems = []
    excluded = _summary(report_dir)["excluded_points"]
    if excluded != truth["violators"] or int((~valid).sum()) != truth["violators"]:
        problems.append(f"implied-rate: excluded_points {excluded}, generated violators {truth['violators']}")
    header, rows = _csv(report_dir, "daily")
    problems += _mismatch("implied-rate daily means", _column(header, rows, "mean_rate"), means)
    if _column(header, rows, "points", int) != counts[present].tolist():
        problems.append("implied-rate: per-day point counts differ")
    header, rows = _csv(report_dir, "rolling")
    problems += _mismatch("implied-rate rolling", _column(header, rows, "rolling_rate_pct"), 100.0 * np.array(rolling))
    facts["optrates.valid_share"] = float(valid.mean())
    return problems


def perp_funding(report_dir, truth, facts):
    """Deadband funding max(band, p) + min(-band, p) on every quote."""
    premium = (truth["mark"] - truth["index"]) / truth["index"]
    want = np.maximum(DEADBAND, premium) + np.minimum(-DEADBAND, premium)
    header, rows = _csv(report_dir, "funding")
    return _mismatch("perp funding rates", _column(header, rows, "funding_rate"), want)


def perp_basis(report_dir, truth, facts):
    """Basis (F - P) / P and its continuous rate over the tenor to expiry."""
    basis = (truth["future"] - truth["perp"]) / truth["perp"]
    tenor = (truth["expiry"] - truth["times"]) / (SECONDS_PER_DAY * 365.0)
    header, rows = _csv(report_dir, "basis")
    problems = _mismatch("perp basis", _column(header, rows, "basis"), basis)
    return problems + _mismatch("perp basis rate", _column(header, rows, "implied_rate_pct"),
                                100.0 * np.log1p(basis) / tenor)


def _within_se(label, report_dir, closed_form, facts):
    summary = _summary(report_dir)
    estimate, se = summary["estimate"], summary["std_error"]
    ratio = abs(estimate - closed_form) / se if se > 0 else math.inf
    facts["lending.err_over_se"] = max(facts.get("lending.err_over_se", 0.0), ratio)
    if not ratio <= MC_SE_LIMIT:
        return [f"{label}: estimate {estimate!r} is {ratio:.2f} SE from the closed form {closed_form!r}"]
    return []


def oracle_one_touch(report_dir, truth, facts):
    """Bridged first-passage estimate within 4 SE of the reflection-principle value."""
    from cryptoyield import lending

    ot = ONE_TOUCH
    start = time.perf_counter()
    value = lending.one_touch_value(ot["s0"], ot["barrier"], ot["payout"], ot["sigma"], 0.0, 1.0, drift=0.0)
    facts["lending.one_touch_value.s"] = time.perf_counter() - start
    facts["mc.std_error"] = _summary(report_dir)["std_error"]
    return _within_se("one-touch", report_dir, value, facts)


def oracle_exchange(report_dir, truth, facts):
    """Exchange-option estimate within 4 SE of the Margrabe value."""
    from cryptoyield import lending

    ex = EXCHANGE
    terms = lending.LoanTerms(ex["s0_a"], ex["s0_b"], ex["sigma_a"], ex["sigma_b"], rho=ex["rho"])
    start = time.perf_counter()
    value = lending.margrabe_details(terms)["exchange_option_value"]
    facts["lending.margrabe_details.s"] = time.perf_counter() - start
    return _within_se("exchange", report_dir, value, facts)


def amm(report_dir, truth, facts):
    """Pool invariants on every row, and final reserves equal to the generator's replica."""
    header, rows = _csv(report_dir, "pool")
    action = _column(header, rows, "action", str)
    x, y = _column(header, rows, "reserve_x"), _column(header, rows, "reserve_y")
    spot, shares = _column(header, rows, "spot_price"), _column(header, rows, "total_shares")
    product = _column(header, rows, "product")
    problems = []
    if len(rows) != truth["events"] + 1:
        problems.append(f"amm: {len(rows)} pool rows for {truth['events']} events")
        return problems
    if not (np.all(x > 0) and np.all(y > 0) and np.all(shares > 0)):
        problems.append("amm: a reserve or the share supply reached zero")
    problems += _mismatch("amm spot = y/x", spot, y / x)
    kind = np.array(action[1:])
    trade = (kind == "swap_x_for_y") | (kind == "swap_y_for_x") | (kind == "external_price")
    step = product[1:] / product[:-1]
    if not np.all(step[trade] >= 1.0 - TOL):
        problems.append("amm: the reserve product fell on a trade")
    if not np.all(shares[1:][trade] == shares[:-1][trade]):
        problems.append("amm: a trade changed the share supply")
    lp = (kind == "add") | (kind == "remove")
    if not np.all(np.abs(spot[1:][lp] / spot[:-1][lp] - 1.0) <= 1e-9):
        problems.append("amm: adding or removing liquidity moved the price")
    arbitrage = kind == "external_price"
    traded = int(np.sum((x[1:] != x[:-1])[arbitrage]))
    if traded != truth["arbitrage_trades"]:
        problems.append(f"amm: {traded} arbitrage trades, the replica made {truth['arbitrage_trades']}")
    summary = _summary(report_dir)
    got = [summary["final_reserve_x"], summary["final_reserve_y"]]
    return problems + _mismatch("amm final reserves vs replica", got,
                                [truth["final_reserve_x"], truth["final_reserve_y"]], 1e-9)


def xccy(report_dir, truth, facts):
    """The swap matures, every token is conserved exactly and balances match the legs."""
    summary = _summary(report_dir)
    problems = []
    if summary["state"] != truth["state"]:
        problems.append(f"xccy: state {summary['state']}, expected {truth['state']}")
    if summary["token_totals"] != truth["token_totals"]:
        problems.append(f"xccy: token totals {summary['token_totals']}, expected {truth['token_totals']}")
    balances = {k: v["exact"] for k, v in summary["balances"].items()}
    if balances != truth["balances"]:
        problems.append(f"xccy: final balances {balances}, expected {truth['balances']}")
    _, rows = _csv(report_dir, "audit")
    if len(rows) != truth["ledger_entries"]:
        problems.append(f"xccy: {len(rows)} ledger entries, expected {truth['ledger_entries']}")
    if summary["skipped_events"]:
        problems.append(f"xccy: {summary['skipped_events']} events skipped")
    facts["xccy.ledger_entries"] = len(rows)
    return problems


CHECKS = {
    "stake": stake,
    "implied-rate": implied_rate,
    "perp-funding": perp_funding,
    "perp-basis": perp_basis,
    "oracle-one-touch": oracle_one_touch,
    "oracle-exchange": oracle_exchange,
    "amm": amm,
    "xccy": xccy,
}
