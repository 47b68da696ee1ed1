"""The four daily commands on columns against their per-row code, and the seed-1 report digests.

Each daily command computes on tables from its loader to the columns it
writes; `tests.oracles` keeps the per-row code that it replaced. On the demo
CSVs, on 200 mutated demo CSVs drawn by `cli_fuzz.csv_files()`, on the
benchmark's generated market year and on hand-made edge cases, both must give
the same cells bit for bit (compared by repr, so that -0.0 and 0.0 differ), or
fail with the same error. The reference loaders are those of
`tests/test_loaders.py`.

The golden test runs the seed-1 `daily-reports` jobs of `perfbench/generate.py`
through `cli.main` and compares each report directory's digest, with the input
location masked as the benchmark masks it, with the sha256 that the per-row
code wrote.
"""

import contextlib
import io
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings

from cryptoyield import core, optrates, perps, staking
from cryptoyield.cli import main as cli_main
from cryptoyield.core import Columns
from cryptoyield.errors import CryptoYieldError
from tests import cli_fuzz, oracles
from tests.oracles import rows as table_rows
from tests.test_loaders import (
    BLOCK_CHARS,
    DEMO,
    _generator,
    reference_available_days,
    reference_load_basis_csv,
    reference_load_chain_csv,
    reference_load_mark_index_csv,
    reference_load_validators,
)

WINDOW = 7
EDGE_INTEREST = 0.0004090000000000477
SPECS = (
    perps.FundingSpec("deribit_deadband"),
    perps.FundingSpec("bitmex_clamp", interest_rate=0.0001),
    # |I - P| == band exactly for premia 0.25 and 0.75, both powers of two apart.
    perps.FundingSpec("bitmex_clamp", interval_hours=1.0, band=0.25, interest_rate=0.5),
    # |I - P| rounds to the band for the premium of mark 0.999909 over index 1, though P + band != I.
    perps.FundingSpec("bitmex_clamp", interest_rate=EDGE_INTEREST),
)
LEVELS = (0, 1, 5, 25, 50, 75, 95, 99, 100, 33.3)


def implied_rate(path):
    points, excluded = optrates.chain_points(optrates.load_chain_csv(path))
    daily = optrates.daily_series(points)
    rolling = optrates.rolling_average(daily["mean_rate"], WINDOW)
    return table_rows(points), excluded, table_rows(daily), rolling.tolist()


def reference_implied_rate(path):
    points, excluded = oracles.chain_points(reference_load_chain_csv(path))
    daily = oracles.daily_series(points)
    cells = [(p.quote_time, p.expiry, p.strike, p.discount_factor, p.rate) for p in points]
    return cells, excluded, daily, oracles.rolling_average([mean for _, mean, _ in daily], WINDOW)


def perp_funding(path):
    quotes = perps.load_mark_index_csv(path)
    out = []
    for spec in SPECS:
        events = perps.events_from_quotes(quotes, spec)
        out.append((table_rows(events), perps.cash_flow_per_notional(events).tolist(),
                    perps.payer(events["funding_rate"]).tolist()))
    return out


def reference_perp_funding(path):
    quotes = reference_load_mark_index_csv(path)
    out = []
    for spec in SPECS:
        events = oracles.events_from_quotes(quotes, spec)
        premia = [oracles.premium_rate(oracles.MarkIndexPair(mark, index)) for _, mark, index in quotes]
        out.append((
            [(e.time, p, e.funding_rate, e.time_fraction) for e, p in zip(events, premia)],
            [e.cash_flow_per_notional for e in events],
            [e.payer or "" for e in events],
        ))
    return out


def perp_basis(path):
    rows = perps.basis_rows(perps.load_basis_csv(path))
    return table_rows(rows), optrates.rolling_average(rows["implied_rate"], WINDOW).tolist()


def reference_perp_basis(path):
    rows = oracles.basis_rows(reference_load_basis_csv(path))
    rolling = oracles.rolling_average([r["implied_rate"] for r in rows], WINDOW)
    return [(r["time"], r["basis"], r["tenor_years"], r["implied_rate"]) for r in rows], rolling


def window_days(days):
    """The days with a snapshot pair, and one day either side of them."""
    if not days:
        return []
    return sorted({*days, days[0] - timedelta(days=1), days[-1] + timedelta(days=1)})


def stake(path):
    cohort = staking.load_validators(path)
    days = window_days(staking.available_days(cohort))
    reasons, rates = staking._windows(cohort, [staking.midnight_utc(d) for d in days])
    sizes, bands = staking.daily_bands(cohort, days, LEVELS)
    return cohort.ids, days, reasons.tolist(), rates.tolist(), sizes.tolist(), bands.tolist()


def reference_stake(path):
    records = reference_load_validators(path)
    days = window_days(reference_available_days(records.values()))
    t1s = [staking.midnight_utc(d) for d in days]
    windows = [oracles.window_returns(v, t1s) for v in records.values()]
    reasons = [r.tolist() for r, _ in windows]
    rates = [x.tolist() for _, x in windows]
    sizes, bands = [], []
    for j in range(len(days)):
        cohort = [row[j] for row, why in zip(rates, reasons) if why[j] == oracles.ELIGIBLE]
        sizes.append(len(cohort))
        bands.append([float(np.percentile(np.asarray(cohort), p)) if cohort else float("nan") for p in LEVELS])
    return list(records), days, reasons, rates, sizes, bands


# command -> (the columnar computation, its per-row reference)
PIPELINES = {
    "implied-rate": (implied_rate, reference_implied_rate),
    "perp-funding": (perp_funding, reference_perp_funding),
    "perp-basis": (perp_basis, reference_perp_basis),
    "stake": (stake, reference_stake),
}


def outcome(compute, path):
    """("ok", repr of the cells) or ("error", type, message)."""
    try:
        return "ok", repr(compute(path))
    except (CryptoYieldError, ValueError) as exc:
        return "error", type(exc).__name__, str(exc)


def assert_computes_like_reference(command, path):
    compute, reference = PIPELINES[command]
    got = outcome(compute, path)
    assert got == outcome(reference, path)
    return got[0]


@pytest.mark.parametrize("command", sorted(PIPELINES))
def test_demo_csvs_compute_like_reference(command):
    assert assert_computes_like_reference(command, DEMO / cli_fuzz.CSV_INPUTS[command][1]) == "ok"


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(cli_fuzz.csv_files())
def test_mutated_csvs_compute_like_reference(tmp_path_factory, case):
    command, text = case
    path = tmp_path_factory.mktemp("fuzz") / "input.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert_computes_like_reference(command, path)


CHAIN = "quote_time,expiry,strike,call,put,underlying\n"
MARKS = "timestamp,mark,index\n"
BALANCES = "validator_id,timestamp,balance,state\n"
HAND_CASES = {
    # fromtimestamp rounds to the microsecond: 86399.9999996 is the next day and
    # -0.0000004 the same day, where floor(t / 86400) would say otherwise.
    "quotes-within-a-microsecond-of-midnight": ("implied-rate", CHAIN + "".join(
        f"{t},2592000,40000,1500,1400,40000\n"
        for t in ("86399.9999996", "86399.9999994", "86400.0000004", "-0.0000004", "-0.0000006", "0.0",
                  "172799.9999996")
    )),
    "day-with-one-point": ("implied-rate", CHAIN + "0,2592000,40000,1500,1400,40000\n"
                           "86400,2592000,40000,1500,1390,40000\n86400,2592000,42000,700,2500,40000\n"
                           "172800,2592000,40000,1500,1380,40000\n"),
    "crossed-quote-on-its-own-day": ("implied-rate", CHAIN + "0,2592000,40000,1500,1400,40000\n"
                                     "86400,2592000,40000,41000,0,40000\n"),
    "bitmex-band-edge": ("perp-funding", MARKS + "0,1.25,1\n3600,1.75,1\n7200,1,1\n10800,2,1\n14400,0.999909,1\n"),
    "validator-without-active-interval": ("stake", BALANCES + "v1,0,40,Active\nv1,86400,40.1,Active\n"
                                          "v2,0,40,Pending\nv2,86400,40.2,Pending\nv3,0,40,Exited\n"),
    "sub-32-snapshot": ("stake", BALANCES + "v1,0,40,Active\nv1,43200,31.9,Active\nv1,86400,40.1,Active\n"
                        "v2,0,33,Active\nv2,86400,32,Active\nv2,172800,31.99,Active\n"),
    "one-snapshot-validators": ("stake", BALANCES + "v1,0,40,Active\nv2,86400,40,Active\nv3,86400,40,Active\n"
                                "v3,172800,41,Active\n"),
}


@pytest.mark.parametrize("case", sorted(HAND_CASES))
def test_hand_cases_compute_like_reference(tmp_path, case):
    command, text = HAND_CASES[case]
    path = tmp_path / "input.csv"
    path.write_text(text)
    assert assert_computes_like_reference(command, path) == "ok"


def test_hand_cases_reach_their_edges(tmp_path):
    path = tmp_path / "input.csv"
    path.write_text(HAND_CASES["bitmex-band-edge"][1])
    quotes = perps.load_mark_index_csv(path)
    events = perps.events_from_quotes(quotes, SPECS[2])
    premium = 0.999909 - 1.0
    assert events["premium"].tolist() == [0.25, 0.75, 0.0, 1.0, premium]
    # I on the band's edge, clamped beyond it
    assert events["funding_rate"].tolist() == [0.5, 0.5, 0.25, 0.75, premium + 0.25]
    edge = perps.events_from_quotes(quotes, SPECS[3])["funding_rate"][-1]
    assert abs(EDGE_INTEREST - premium) == perps.DEFAULT_BAND and premium + perps.DEFAULT_BAND != EDGE_INTEREST
    assert edge == EDGE_INTEREST
    path.write_text(HAND_CASES["quotes-within-a-microsecond-of-midnight"][1])
    daily = optrates.daily_series(optrates.chain_points(optrates.load_chain_csv(path))[0])
    assert [d.isoformat() for d in daily["day"]] == ["1969-12-31", "1970-01-01", "1970-01-02", "1970-01-03"]
    assert daily["points"].tolist() == [1, 3, 2, 1]
    path.write_text(HAND_CASES["validator-without-active-interval"][1])
    reasons, _ = staking._windows(staking.load_validators(path), [86400.0])
    assert reasons.ravel().tolist() == [staking.ELIGIBLE, staking.NOT_ACTIVE, staking.NOT_ACTIVE]
    path.write_text(HAND_CASES["sub-32-snapshot"][1])
    reasons, _ = staking._windows(staking.load_validators(path), [86400.0, 172800.0])
    assert reasons.tolist() == [[staking.BELOW_MINIMUM, staking.NOT_ACTIVE],
                                [staking.ELIGIBLE, staking.BELOW_MINIMUM]]


def test_unusable_quotes_follow_the_per_quote_rule():
    # B <= 0 is excluded; a NaN B (only a hand-built table holds a NaN price) is kept, as a quote's point was.
    quotes = [(0.0, 86400.0, 100.0, call, 1.0, 100.0) for call in (1.0, 200.0, float("nan"))]
    chain = Columns({name: np.array(column) for name, column in zip(optrates.CHAIN_CSV, zip(*quotes))})
    points, excluded = optrates.chain_points(chain)
    want, want_excluded = oracles.chain_points([oracles.OptionQuote(*q) for q in quotes])
    assert (repr(table_rows(points)), excluded) == (repr([tuple(vars(p).values()) for p in want]), want_excluded)
    assert excluded == 1 and len(points) == 2


@pytest.fixture(scope="module")
def seed_one(tmp_path_factory):
    """The benchmark's seed-1 market year: (input directory, [(job, config path)])."""
    path = tmp_path_factory.mktemp("seed-1")
    jobs, _, _, _ = _generator().daily_reports(str(path), 1)
    return path, jobs


@pytest.mark.parametrize("command", sorted(PIPELINES))
def test_benchmark_market_year_computes_like_reference(seed_one, command):
    inputs, _ = seed_one
    assert assert_computes_like_reference(command, inputs / cli_fuzz.CSV_INPUTS[command][1]) == "ok"


SCHEMAS = {"stake": staking.VALIDATOR_CSV, "implied-rate": optrates.CHAIN_CSV,
           "perp-funding": perps.MARK_INDEX_CSV, "perp-basis": perps.BASIS_CSV}


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_clean_csvs_are_read_as_columns(seed_one, command):
    # A clean file that falls back to the row scan reads the same, only
    # slower, so only this shows it.
    name = cli_fuzz.CSV_INPUTS[command][1]
    for path in (DEMO / name, seed_one[0] / name):
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
        for block_chars in (core._BLOCK_CHARS, *BLOCK_CHARS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(core, "_BLOCK_CHARS", block_chars)
                assert core._clean_columns(text, SCHEMAS[command]) is not None, (str(path), block_chars)


# The seed-1 report digests that the per-row code wrote.
SEED_ONE_DIGESTS = {
    "stake": "0bae8795ed9e777592d3ee12b0e0e08b49fe02ed3c74ce3ebdd400066c3eaa3f",
    "implied-rate": "9453e317dd83a64ca4a45b0ed1580916b4a5c4b25285a8a6762356ee8944600e",
    "perp-funding": "16b32048260e5d22ebd8b6f1046c187d4f8163ea3b9b3c907ee9fe7e0a6dbb7f",
    "perp-basis": "654d0d2a53bbefea882956aa0fe647a957e18758435880c060dfaca3f47a7fe5",
}


def test_seed_one_daily_reports_golden_digests(seed_one, tmp_path):
    inputs, jobs = seed_one
    digests = {}
    for name, config in jobs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["run", "--config", config, "--out", str(tmp_path / name)]) == 0
        digests[name] = _generator().digest(str(tmp_path / name), mask=str(inputs))
    assert digests == SEED_ONE_DIGESTS
