"""The columnar CSV reader against the row-by-row loaders it replaced.

The reference functions below are the `csv.DictReader` loaders as they stood
before `core.read_csv_rows` read columns: one dict per row, a per-row scan for
empty cells, then a per-cell parse that stops at the first bad cell, with
`ValidatorRecord`'s per-snapshot checks as they stood, plus the positive-price
rules of the funding and basis quotes. The loaders now return tables; read
back as rows (a cohort as its records), every loader must give what its
reference returns, or raise an `InputError` with the same message, on the
demo CSVs, on mutated demo CSVs drawn by `cli_fuzz.csv_files()`, and on one
benchmark-sized generated market year, both at the reader's default block
size and at blocks of a few characters.
"""

import csv
import gc
import importlib.util
import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings

from cryptoyield import core, optrates, perps, staking
from cryptoyield.core import cell_number, parse_timestamp
from cryptoyield.errors import DomainError, InputError
from cryptoyield.staking import StateInterval, ValidatorRecord
from tests import cli_fuzz
from tests.oracles import OptionQuote, records_of
from tests.oracles import rows as table_rows

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO = ROOT / "scenarios" / "demo"


# -- the row-by-row loaders, kept as the oracle ---------------------------------


def reference_read_csv_rows(path, required_columns):
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames
            if header is None:
                raise InputError(f"{path}: empty file, expected header {','.join(required_columns)}")
            missing = [c for c in required_columns if c not in header]
            if missing:
                raise InputError(
                    f"{path}:1: missing column(s) {', '.join(missing)}; got header {','.join(header)}"
                )
            rows = []
            for row in reader:
                lineno = reader.line_num
                if any(row.get(c) in (None, "") for c in required_columns):
                    bad = [c for c in required_columns if row.get(c) in (None, "")]
                    raise InputError(f"{path}:{lineno}: empty value for column(s) {', '.join(bad)}")
                rows.append((lineno, row))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise InputError(f"{path}: unreadable CSV: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no data rows")
    return rows


def reference_load_validators(path):
    rows = reference_read_csv_rows(path, ["validator_id", "timestamp", "balance", "state"])
    per_validator = {}
    for lineno, row in rows:
        try:
            ts = parse_timestamp(row["timestamp"])
            balance = cell_number(row, "balance")
        except (ValueError, DomainError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        per_validator.setdefault(row["validator_id"], []).append((ts, balance, row["state"]))
    records = {}
    for vid, entries in per_validator.items():
        entries.sort(key=lambda e: e[0])
        for i, (ts, balance, _) in enumerate(entries):  # ValidatorRecord's checks as they stood
            if balance < 0:
                raise InputError(f"{path}: validator {vid}: balance at index {i} is negative")
            if i > 0 and not ts > entries[i - 1][0]:
                raise InputError(f"{path}: validator {vid}: timestamps must be strictly increasing")
        intervals = []
        for ts, _, state in entries:
            if intervals and intervals[-1][2] == state:
                intervals[-1][1] = ts
            else:
                intervals.append([ts, ts, state])
        records[vid] = ValidatorRecord(
            id=vid,
            balances=tuple((ts, b) for ts, b, _ in entries),
            state_intervals=tuple(StateInterval(a, b, s) for a, b, s in intervals),
        )
    return records


def reference_available_days(validators):
    days = set()
    for validator in validators:
        stamps = {ts for ts, _ in validator.balances}
        for ts in stamps:
            if ts - core.SECONDS_PER_DAY in stamps:
                days.add(staking.datetime.fromtimestamp(ts, tz=staking.timezone.utc).date())
    return sorted(days)


def reference_load_chain_csv(path):
    rows = reference_read_csv_rows(path, ["quote_time", "expiry", "strike", "call", "put", "underlying"])
    quotes = []
    for lineno, row in rows:
        try:
            quotes.append(
                OptionQuote(
                    quote_time=parse_timestamp(row["quote_time"]),
                    expiry=parse_timestamp(row["expiry"]),
                    strike=cell_number(row, "strike"),
                    call=cell_number(row, "call"),
                    put=cell_number(row, "put"),
                    underlying=cell_number(row, "underlying"),
                )
            )
        except (ValueError, DomainError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    return quotes


def reference_load_mark_index_csv(path):
    rows = reference_read_csv_rows(path, ["timestamp", "mark", "index"])
    out = []
    for lineno, row in rows:
        try:
            t = parse_timestamp(row["timestamp"])
            out.append((t, cell_number(row, "mark"), cell_number(row, "index")))
        except (ValueError, DomainError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        if len(out) > 1 and t <= out[-2][0]:
            raise InputError(f"{path}:{lineno}: quote time {t} is not after the previous quote's {out[-2][0]}")
        if out[-1][1] <= 0 or out[-1][2] <= 0:
            raise InputError(f"{path}:{lineno}: mark and index prices must be > 0")
    return out


def reference_load_basis_csv(path):
    rows = reference_read_csv_rows(path, ["timestamp", "perp", "future", "expiry"])
    out = []
    for lineno, row in rows:
        try:
            t = parse_timestamp(row["timestamp"])
            expiry = parse_timestamp(row["expiry"])
            out.append((t, cell_number(row, "perp"), cell_number(row, "future"), expiry))
        except (ValueError, DomainError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        if expiry <= t:
            raise InputError(f"{path}:{lineno}: expiry must be after the quote time")
        if out[-1][1] <= 0 or out[-1][2] <= 0:
            raise InputError(f"{path}:{lineno}: perp and future prices must be > 0")
    return out


# command -> (loader read back in its reference's shape, its reference)
LOADERS = {
    "stake": (lambda path: records_of(staking.load_validators(path)), reference_load_validators),
    "implied-rate": (lambda path: [OptionQuote(*row) for row in table_rows(optrates.load_chain_csv(path))],
                     reference_load_chain_csv),
    "perp-funding": (lambda path: table_rows(perps.load_mark_index_csv(path)), reference_load_mark_index_csv),
    "perp-basis": (lambda path: table_rows(perps.load_basis_csv(path)), reference_load_basis_csv),
}


def outcome(load, path):
    """("ok", value) or ("error", InputError message); any other exception escapes."""
    try:
        return "ok", load(path)
    except InputError as exc:
        return "error", str(exc)


# Block sizes, in characters, beside the reader's default: one line a block, and blocks that end mid-row.
BLOCK_CHARS = (1, 7, 64)


def assert_loads_like_reference(command, path):
    """The loader's outcome equals its reference's at the default block size and at each of BLOCK_CHARS."""
    load, reference = LOADERS[command]
    want = outcome(reference, path)
    for block_chars in (core._BLOCK_CHARS, *BLOCK_CHARS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_BLOCK_CHARS", block_chars)
            got = outcome(load, path)
        assert got == want, f"blocks of {block_chars} characters"
        if command == "stake" and got[0] == "ok":
            assert staking.available_days(got[1].values()) == reference_available_days(want[1].values())
            assert staking.available_days(staking.load_validators(path)) == reference_available_days(want[1].values())
    return got[0]


@pytest.mark.parametrize("command", sorted(cli_fuzz.CSV_INPUTS))
def test_demo_csvs_load_like_reference(command):
    assert assert_loads_like_reference(command, DEMO / cli_fuzz.CSV_INPUTS[command][1]) == "ok"


# Files where the order of the checks decides which error is named first.
CHAIN = "quote_time,expiry,strike,call,put,underlying\n"
MARKS = "timestamp,mark,index\n"
BASIS = "timestamp,perp,future,expiry\n"
BALANCES = "validator_id,timestamp,balance,state\n"
EDGE_CASES = {
    "model-row-before-bad-cell": ("implied-rate", CHAIN + "0,100,0,1,1,100\n0,100,100,x,1,100\n"),
    "bad-cell-before-model-row": ("implied-rate", CHAIN + "0,100,100,x,1,100\n0,100,0,1,1,100\n"),
    "rules-in-quote-order": ("implied-rate", CHAIN + "0,100,100,1,1,100\n100,100,100,-1,1,-5\n"),
    "crossed-expiry": ("implied-rate", CHAIN + "0,100,100,1,1,100\n100,100,100,1,1,100\n"),
    "order-before-bad-cell": ("perp-funding", MARKS + "10,1,1\n5,1,1\n20,nan,1\n"),
    "bad-cell-before-order": ("perp-funding", MARKS + "10,1,1\n20,nan,1\n5,1,1\n"),
    "repeated-time": ("perp-funding", MARKS + "10,1,1\n10,1,1\n"),
    "bad-order-row-cell": ("perp-funding", MARKS + "10,1,1\n5,x,1\n"),
    "empty-cell-beats-earlier-rows": ("perp-basis", BASIS + "100,1,1,50\n0,x,1,100\n0,1,,100\n"),
    "expiry-parsed-before-perp": ("perp-basis", BASIS + "0,x,1,never\n"),
    "expiry-before-quote": ("perp-basis", BASIS + "0,1,1,100\n100,1,1,50\n"),
    "empty-before-unreadable": ("perp-basis", BASIS + "0,1,,100\n0,1,1," + "9" * 200_000 + "\n"),
    "unreadable-before-empty": ("perp-basis", BASIS + "0,1,1," + "9" * 200_000 + "\n0,1,,100\n"),
    "blank-lines-count": ("perp-basis", BASIS + "\n0,1,1,100\n\n\n5,1,1,x\n"),
    "blank-lines-before-model-row": ("perp-basis", BASIS + "0,1,1,100\n\n\n5,1,1,1\n"),
    "crlf-lines": ("perp-basis", BASIS.replace("\n", "\r\n") + "0,1,1,100\r\n5,1,1,1\r\n"),
    "cr-lines": ("perp-basis", BASIS.replace("\n", "\r") + "0,1,1,100\r\r5,1,1,1\r"),
    "cr-inside-line": ("stake", BALANCES + "v1,10,40,Active\rv2,20,41,Active\n"),
    "quoted-text-cells": ("stake", BALANCES + '"v1",10,40,Active\nv1,20,41,"Active"\n'),
    "quoted-number-cell": ("stake", BALANCES + 'v1,10,40,Active\nv1,"20",41,Active\n'),
    "empty-text-cell": ("stake", BALANCES + "v1,10,40,Active\nv1,20,41,\n"),
    "oversized-text-field": ("stake", BALANCES + "v" * 200_000 + ",10,40,Active\n"),
    "oversized-text-field-in-later-row": ("stake", BALANCES + "v1,10,40,Active\n" + "v" * 200_000 + ",20,40,Active\n"),
    "nul-in-later-row": ("stake", BALANCES + "v1,10,40,Active\nv1,20,41,Act\0ive\n"),
    "wider-later-row": ("perp-basis", BASIS + "0,1,1,100\n5,1,1,100,7\n"),
    "narrower-later-row": ("perp-basis", BASIS + "0,1,1,100\n5,1,1\n"),
    "padded-timestamps": ("perp-funding", MARKS + " 10 ,1,1\n\x1c20\x1c,1,1\n\t30\u2003,1,1\n"),
    "iso-and-epoch-timestamps": ("perp-funding", MARKS + "10,1,1\n1970-01-01T00:00:20Z,1,1\n1e308,1,1\n"),
    "timestamp-past-calendar": ("perp-funding", MARKS + "10,1,1\n1e308,1,1\n"),
    "duplicate-header-last-wins": ("perp-basis", "timestamp,perp,future,expiry,perp\n0,1,1,100,2\n"),
    "duplicate-header-short-row": ("perp-basis", "timestamp,perp,future,expiry,perp\n0,1,1,100\n"),
    "extra-fields": ("perp-basis", BASIS + "0,1,1,100,7,8\n"),
    "short-row": ("perp-basis", BASIS + "0,1\n"),
    "embedded-newline": ("perp-basis", BASIS + '0,1,"1\n2",100\n'),
    "blank-header": ("perp-basis", "\n" + BASIS + "0,1,1,100\n"),
    "header-only": ("perp-basis", BASIS),
    "missing-columns-in-required-order": ("perp-basis", "timestamp,future\n0,1\n"),
    "negative-balance-index": ("stake", BALANCES + "v2,10,40,Active\nv1,20,-1,Active\nv1,5,33,Active\n"),
    "duplicate-time-first-validator": ("stake", BALANCES + "v2,10,40,Active\nv1,5,-1,Active\nv2,10,41,Active\n"),
    "tied-times-keep-file-order": ("stake", BALANCES + "v1,10,40,Active\nv1,10,-1,Exited\n"),
    "state-runs": ("stake", BALANCES + "v1,30,40,Active\nv1,10,40,Active\nv1,20,40,Exited\nv2,0,40,Pending\n"),
    "negative-zero-time": ("stake", BALANCES + "v1,-0.0,40,Active\nv1,0,40,Active\n"),
    "day-edge-rounding": ("stake", BALANCES + "v1,86399.9999999,40,Active\nv1,172799.9999999,40,Active\n"),
    "mark-not-positive": ("perp-funding", MARKS + "10,1,1\n20,0,1\n"),
    "index-not-positive": ("perp-funding", MARKS + "10,1,1\n20,1,-5\n"),
    "order-before-price-in-a-row": ("perp-funding", MARKS + "10,1,1\n5,0,1\n"),
    "price-before-later-order": ("perp-funding", MARKS + "10,1,1\n20,-1,1\n15,1,1\n"),
    "future-not-positive": ("perp-basis", BASIS + "0,1,1,100\n5,1,0,100\n"),
    "perp-underflows-to-zero": ("perp-basis", BASIS + "0,1e-999,1,100\n"),
    "expiry-before-price-in-a-row": ("perp-basis", BASIS + "0,0,1,-5\n"),
    "price-row-before-bad-cell": ("perp-basis", BASIS + "0,-1,1,100\n5,x,1,100\n"),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases_load_like_reference(tmp_path, case):
    command, text = EDGE_CASES[case]
    path = tmp_path / "input.csv"
    path.write_text(text)
    assert_loads_like_reference(command, path)


# What makes a file unclean, or takes a second parse, each with an edge case whose
# text holds it past the first data row: in a later block than the row that sets
# the width, once blocks are one line.
LATER_BLOCK_FEATURES = {
    "blank line": ("blank-lines-before-model-row", "\n\n"),
    "CRLF pair": ("crlf-lines", "\r\n"),
    "width change": ("wider-later-row", ",7\n"),
    "empty cell": ("empty-cell-beats-earlier-rows", ",,"),
    "quote": ("quoted-number-cell", '"'),
    "NUL": ("nul-in-later-row", "\0"),
    "oversized field": ("oversized-text-field-in-later-row", "v" * 200_000),
    "ISO timestamp": ("iso-and-epoch-timestamps", "T00:00:20Z"),
    "non-finite number": ("order-before-bad-cell", "nan"),
}


@pytest.mark.parametrize("feature", sorted(LATER_BLOCK_FEATURES))
def test_edge_cases_hold_each_feature_in_a_later_block(feature):
    case, marker = LATER_BLOCK_FEATURES[feature]
    assert marker in EDGE_CASES[case][1].split("\n", 2)[2]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(cli_fuzz.csv_files())
def test_mutated_csvs_load_like_reference(tmp_path_factory, case):
    command, text = case
    path = tmp_path_factory.mktemp("fuzz") / "input.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert_loads_like_reference(command, path)


def _generator():
    spec = importlib.util.spec_from_file_location("perfbench_generate", ROOT / "perfbench" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def market_year(tmp_path_factory):
    """The benchmark's generated market year at seed 3, in its own directory."""
    path = tmp_path_factory.mktemp("market-year")
    _generator().daily_reports(str(path), 3)
    return path


def test_benchmark_market_year_loads_like_reference(market_year):
    for command, (_, name) in cli_fuzz.CSV_INPUTS.items():
        assert assert_loads_like_reference(command, market_year / name) == "ok"


def test_benchmark_validators_read_within_five_times_the_file(market_year):
    # The text, one block of lines and cells, and the columns: the whole file read
    # as lines and as cells at once took about twelve times its size.
    path = market_year / "validators.csv"
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        columns = core.read_csv_rows(path, staking.VALIDATOR_CSV)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(columns) > 10_000
    assert peak <= 5 * path.stat().st_size
    assert not hasattr(columns, "lines")  # only the row scan, on an error, maps rows to lines
    for name, kind in staking.VALIDATOR_CSV.items():
        if kind is core.TEXT:  # one shared str per distinct cell
            assert len(set(map(id, columns[name]))) == len(set(columns[name]))
