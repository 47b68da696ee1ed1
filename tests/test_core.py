import copy
import csv
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cryptoyield.core import (
    NUMBER,
    TIMESTAMP,
    Key,
    RateConvention,
    ReturnStats,
    kelly_weights,
    parse_timestamp,
    percentile,
    read_csv_rows,
    sharpe_ratio,
    _check_keys,
    _check_list,
    _check_object,
    _integer,
    _one_of,
)
from cryptoyield import core, scenarios
from cryptoyield.errors import (
    DomainError,
    IllConditionedError,
    InputError,
    UndefinedRatioError,
)
from cryptoyield.staking import VALIDATOR_CSV
from tests.oracles import rows as table_rows
from tests.test_loaders import BLOCK_CHARS

DAY = 86_400.0
DEMO = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "demo"

class TestSharpe:
    def test_documented_case(self):
        stats = ReturnStats(mean=0.10, vol=0.20, periods_per_year=1.0)
        assert sharpe_ratio(stats, 0.0) == 0.5

    def test_mean_equal_riskless(self):
        stats = ReturnStats(mean=0.07, vol=0.20, periods_per_year=1.0)
        assert sharpe_ratio(stats, 0.07) == 0.0

    def test_zero_vol_undefined(self):
        stats = ReturnStats(mean=0.10, vol=0.0, periods_per_year=1.0)
        with pytest.raises(UndefinedRatioError):
            sharpe_ratio(stats, 0.0)

    def test_annualization(self):
        daily = ReturnStats(mean=0.001, vol=0.02, periods_per_year=365.0)
        assert_allclose(daily.annualized_mean, 0.365)
        assert_allclose(daily.annualized_vol, 0.02 * math.sqrt(365))


class TestKelly:
    def test_single_asset_scalar_formula(self):
        w = kelly_weights([0.10], 0.0, [[0.04]])
        assert_allclose(w, [2.5], rtol=1e-14)

    def test_mu_equal_r_gives_zero(self):
        w = kelly_weights([0.03, 0.03], 0.03, np.diag([0.04, 0.09]))
        assert_allclose(w, [0.0, 0.0])

    def test_independent_identical_assets_equal_weights(self):
        w = kelly_weights([0.08, 0.08], 0.0, np.diag([0.04, 0.04]))
        assert w[0] == w[1]

    def test_linearity_in_excess_returns(self):
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        mu = np.array([0.06, 0.11])
        w1 = kelly_weights(mu, 0.0, cov)
        w2 = kelly_weights(1.7 * mu, 0.0, cov)
        assert_allclose(w2, 1.7 * w1, rtol=1e-12)

    def test_singular_covariance_rejected(self):
        cov = [[0.04, 0.04], [0.04, 0.04]]
        with pytest.raises(IllConditionedError):
            kelly_weights([0.05, 0.06], 0.0, cov)

    def test_ill_conditioned_rejected(self):
        cov = np.diag([1.0, 1e-13])
        with pytest.raises(IllConditionedError):
            kelly_weights([0.05, 0.06], 0.0, cov)

    def test_ragged_covariance_rejected(self):
        with pytest.raises(DomainError, match=r"covariance row lengths \[2, 1\] do not match 2 assets"):
            kelly_weights([0.1, 0.2], 0.0, [[0.04, 0.01], [0.01]])

    def test_asymmetric_rejected(self):
        cov = [[0.04, 0.02], [0.01, 0.09]]
        with pytest.raises(DomainError):
            kelly_weights([0.05, 0.06], 0.0, cov)

    def test_known_two_asset_solution(self):
        # Hand-solved 2x2 system: C w = mu - r.
        cov = np.array([[0.04, 0.00], [0.00, 0.16]])
        w = kelly_weights([0.08, 0.04], 0.0, cov)
        assert_allclose(w, [2.0, 0.25], rtol=1e-14)


class TestPercentile:
    def test_median_odd(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_p0_is_minimum(self):
        assert percentile([5, 3, 9], 0) == 3.0

    def test_p100_is_maximum(self):
        assert percentile([5, 3, 9], 100) == 9.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            percentile([1, 2], 101)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=30),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
    )
    def test_monotone_in_level(self, values, p1, p2):
        lo, hi = sorted([p1, p2])
        assert percentile(values, lo) <= percentile(values, hi) + 1e-12


class TestConvention:
    def test_year_fraction(self):
        conv = RateConvention()
        assert conv.year_fraction(365 * DAY) == 1.0

    def test_bad_convention(self):
        with pytest.raises(DomainError):
            RateConvention(days_per_year=0)
        with pytest.raises(DomainError):
            RateConvention(compounding="quarterly")


class TestParseTimestamp:
    def test_epoch_seconds(self):
        assert parse_timestamp("1622592000") == 1622592000.0

    def test_iso_utc(self):
        assert parse_timestamp("2021-06-02T00:00:00Z") == 1622592000.0

    def test_iso_naive_assumed_utc(self):
        assert parse_timestamp("2021-06-02T00:00:00") == 1622592000.0

    def test_garbage_rejected(self):
        with pytest.raises(DomainError):
            parse_timestamp("yesterday")

    @pytest.mark.parametrize(
        "text", ["1e308", "-1e308", "1" + "0" * 400, "nan", "0001-01-01T00:00:00Z", "9999-12-31T00:00:01Z"]
    )
    def test_no_calendar_day_rejected(self, text):
        # Each of these used to reach datetime.fromtimestamp (or float()) and
        # escape the loaders as an OverflowError.
        with pytest.raises(ValueError, match="timestamp"):
            parse_timestamp(text)

    def test_calendar_edges_accepted(self):
        assert parse_timestamp("0001-01-02T00:00:00Z") == -62135510400.0
        assert parse_timestamp("9999-12-31T00:00:00Z") == 253402214400.0


# A two-column schema for the reader's own tests.
PRICES = {"timestamp": TIMESTAMP, "price": NUMBER}


@pytest.mark.parametrize("cell", [b"1\xff", b"1" * 200_000], ids=["not-utf8", "oversized-field"])
def test_unreadable_csv_is_input_error(tmp_path, cell):
    path = tmp_path / "prices.csv"
    path.write_bytes(b"timestamp,price\n0,1\n86400," + cell + b"\n")
    with pytest.raises(InputError, match=r"prices\.csv: unreadable CSV"):
        read_csv_rows(path, PRICES)


def test_csv_behind_byte_order_mark_reads_like_plain(tmp_path):
    # Spreadsheet exports often begin with a UTF-8 byte-order mark.
    plain = DEMO / "validators.csv"
    marked = tmp_path / "validators.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    got, want = (read_csv_rows(path, VALIDATOR_CSV) for path in (marked, plain))
    assert got == want


def not_negative(columns):
    """A row rule for PRICES: the first row whose price is below zero."""
    return core.first_broken([(columns["price"] < 0, "price must not be negative")])


def read_outcome(path, schema=PRICES, check=None):
    """("ok", columns) or ("error", InputError message) of `read_csv_rows`."""
    try:
        return "ok", read_csv_rows(path, schema, check)
    except InputError as exc:
        return "error", str(exc)


def scanned_outcome(path, schema=PRICES, check=None):
    """`read_outcome` with the clean path turned off, so that every file is read row by row."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_clean_columns", lambda text, schema: None)
        return read_outcome(path, schema, check)


def read_clean(text, schema=PRICES):
    """Whether `_clean_columns` reads `text` as columns (a parse error sends it to the row scan)."""
    try:
        return core._clean_columns(text, schema) is not None
    except ValueError:
        return False


def clean_outcomes(path, text, schema=PRICES, check=None):
    """`read_outcome` and `read_clean`, at each of BLOCK_CHARS and the default block size."""
    for block_chars in (core._BLOCK_CHARS, *BLOCK_CHARS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_BLOCK_CHARS", block_chars)
            yield block_chars, read_outcome(path, schema, check), read_clean(text, schema)


# Rows of a two-column CSV after its header, "" for a blank line: blank lines
# right after the header, between rows, in runs and at the end, and (in the
# sweeps) before every row, so that at each block size some fall at a block's
# start and some at its end. REFUSED breaks `not_negative`, after one blank
# line and after a run of them, so that its message names the row's line.
REFUSED = "259200,-1"
SWEEP = [f"{86_400 * k},{k}.{'5' * k}" for k in range(12)]
LINE_CASES = {
    "consecutive": ["0,1", "86400,2"],
    "blank-line": ["0,1", "", "86400,2"],
    "after-header": ["", "", "0,1", "86400,2"],
    "runs": ["0,1", "", "", "86400,2", "", "", "", "172800,3"],
    "trailing": ["0,1", "86400,2", "", "", ""],
    "no-rows": ["", ""],
    "bad-cell-after-blanks": ["0,1", "", "", "x,2", "172800,3"],
    "non-ascii-digits": ["0,\u0661", "", "86400,\u0662.\u0665", "172800,3"],
    **{f"blank-at-{k}": [*SWEEP[:k], "", *SWEEP[k:]] for k in range(len(SWEEP) + 1)},
    **{f"run-at-{k}": [*SWEEP[:k], "", "", "", *SWEEP[k:]] for k in range(len(SWEEP) + 1)},
    "refused-after-blanks": ["0,1", "", "", REFUSED, "", "-86400,-2"],
    **{f"refused-after-blank-at-{k}": [*SWEEP[:k], "", REFUSED, *SWEEP[k:]] for k in range(len(SWEEP) + 1)},
    **{f"refused-after-run-at-{k}": [*SWEEP[:k], "", "", "", REFUSED, *SWEEP[k:]] for k in range(len(SWEEP) + 1)},
}


@pytest.mark.parametrize("rows", LINE_CASES.values(), ids=LINE_CASES.keys())
def test_clean_and_scanned_reads_hold_equal_lines(tmp_path, rows):
    path = tmp_path / "p.csv"
    refused = REFUSED in rows
    for newline, ending in (("\n", "\n"), ("\r\n", "\r\n"), ("\n", "")):
        text = newline.join(["timestamp,price", *rows]) + ending
        path.write_bytes(text.encode())
        scanned = scanned_outcome(path, check=not_negative)
        for block_chars, got, clean in clean_outcomes(path, text, check=not_negative):
            assert got == scanned, f"blocks of {block_chars} characters"
            assert clean == (got[0] == "ok" or refused), f"blocks of {block_chars} characters"
        if refused:
            assert scanned == ("error", f"{path}:{rows.index(REFUSED) + 2}: price must not be negative")
        elif scanned[0] == "ok":
            assert len(scanned[1]) == sum(map(bool, rows))


# A row one field short, one field long or twice as long at each position of
# the sweep: the clean path leaves the file to the row scan, which names the
# short row's empty cell and ignores the long rows' extra fields.
RAGGED_CASES = {
    **{f"short-at-{k}": [*SWEEP[:k], "259200", *SWEEP[k:]] for k in range(len(SWEEP) + 1)},
    **{f"long-at-{k}": [*SWEEP[:k], "259200,1,2", *SWEEP[k:]] for k in range(len(SWEEP) + 1)},
    **{f"double-at-{k}": [*SWEEP[:k], "259200,1,345600,2", *SWEEP[k:]] for k in range(len(SWEEP) + 1)},
}


@pytest.mark.parametrize("rows", RAGGED_CASES.values(), ids=RAGGED_CASES.keys())
def test_ragged_rows_leave_the_clean_path(tmp_path, rows):
    path = tmp_path / "p.csv"
    text = "\n".join(["timestamp,price", *rows, ""])
    path.write_text(text)
    scanned = scanned_outcome(path)
    for block_chars, got, clean in clean_outcomes(path, text):
        assert (got, clean) == (scanned, False), f"blocks of {block_chars} characters"


ONE_COLUMN_CASES = {
    "consecutive": ["1", "2", "3"],
    "blank-lines": ["", "1", "", "", "2", "3", ""],
    "refused-after-blank-lines": ["", "1", "", "", "-2", "3", ""],
}


@pytest.mark.parametrize("rows", ONE_COLUMN_CASES.values(), ids=ONE_COLUMN_CASES.keys())
def test_one_column_file_reads_like_the_row_scan(tmp_path, rows):
    # A one-field row has no comma, so only its line tells a blank line from a row.
    schema = {"price": NUMBER}
    path = tmp_path / "p.csv"
    text = "\n".join(["price", *rows])
    path.write_text(text)
    scanned = scanned_outcome(path, schema, not_negative)
    for block_chars, got, clean in clean_outcomes(path, text, schema, not_negative):
        assert (got, clean) == (scanned, True), f"blocks of {block_chars} characters"
    if scanned[0] == "ok":
        assert len(scanned[1]) == sum(map(bool, rows))
    else:
        assert scanned[1] == f"{path}:6: price must not be negative"


# A field-size limit below some lines of the files that follow, each beside
# whether the clean path reads it. Each is read in blocks shorter than the limit
# (one or two lines) and in blocks longer than it.
FIELD_LIMIT = 24
LIMIT_CASES = {
    "lines-within-limit": (["0,1", "86400,2.5", "", "172800,1" + "0" * 14, "259200,4"], True),
    "line-over-limit": (["0,1", "86400," + "1" * 20, "172800,3"], False),
    "field-over-limit": (["0,1", "86400," + "1" * 30, "172800,3"], False),
}


@pytest.fixture
def lowered_field_limit():
    old = csv.field_size_limit(FIELD_LIMIT)
    yield
    csv.field_size_limit(old)


@pytest.mark.parametrize("rows, clean", LIMIT_CASES.values(), ids=LIMIT_CASES.keys())
def test_clean_and_scanned_reads_agree_under_a_lowered_field_limit(tmp_path, lowered_field_limit, rows, clean):
    path = tmp_path / "p.csv"
    text = "\n".join(["timestamp,price", *rows, ""])
    path.write_text(text)
    assert max(map(len, text.split("\n"))) > FIELD_LIMIT or clean
    scanned = scanned_outcome(path)
    for block_chars, got, took_clean_path in clean_outcomes(path, text):
        assert (got, took_clean_path) == (scanned, clean), f"blocks of {block_chars} characters"


class TestCsvRowSemantics:
    """How a CSV's rows map to cells, pinned through `read_csv_rows` with a two-column schema."""

    def load(self, tmp_path, text):
        path = tmp_path / "p.csv"
        path.write_text(text)
        return read_csv_rows(path, PRICES)

    def test_iso_and_epoch_timestamps_read_as_epoch_seconds(self, tmp_path):
        columns = self.load(tmp_path, "timestamp,price\n2021-06-01T00:00:00Z,100\n1622592000,110\n")
        assert table_rows(columns) == [(1622505600.0, 100.0), (1622592000.0, 110.0)]

    def test_missing_column_is_named(self, tmp_path):
        with pytest.raises(InputError, match="timestamp"):
            self.load(tmp_path, "time,price\n0,100\n")

    def test_bad_cell_names_its_line(self, tmp_path):
        with pytest.raises(InputError, match=r"p\.csv:3"):
            self.load(tmp_path, "timestamp,price\n0,100\nnot-a-time,110\n")

    @pytest.mark.parametrize("row", ["86400,nan", "86400,inf", "86400,-Infinity", "nan,110", "inf,110"])
    def test_non_finite_cell_is_refused(self, tmp_path, row):
        with pytest.raises(InputError, match=r"p\.csv:3: .*non-finite"):
            self.load(tmp_path, f"timestamp,price\n0,100\n{row}\n")

    def test_blank_line_is_skipped_but_counted(self, tmp_path):
        assert self.load(tmp_path, "timestamp,price\n0,100\n\n86400,110\n")["price"].tolist() == [100.0, 110.0]
        with pytest.raises(InputError, match=r"p\.csv:4: "):
            self.load(tmp_path, "timestamp,price\n0,100\n\nx,110\n")

    def test_extra_trailing_field_is_ignored(self, tmp_path):
        columns = self.load(tmp_path, "timestamp,price\n0,100,extra\n86400,110,1,2\n")
        assert table_rows(columns) == [(0.0, 100.0), (86400.0, 110.0)]

    def test_short_row_is_an_empty_value(self, tmp_path):
        with pytest.raises(InputError, match=r"p\.csv:3: empty value for column\(s\) price$"):
            self.load(tmp_path, "timestamp,price\n0,100\n86400\n")

    def test_duplicated_header_name_takes_the_last_column(self, tmp_path):
        assert self.load(tmp_path, "price,timestamp,price\n1,0,100\n")["price"].tolist() == [100.0]
        with pytest.raises(InputError, match=r"p\.csv:2: empty value for column\(s\) price$"):
            self.load(tmp_path, "price,timestamp,price\n1,0\n")

    def test_embedded_newline_names_the_record_last_line(self, tmp_path):
        with pytest.raises(InputError, match=r"p\.csv:4: could not convert string to float"):
            self.load(tmp_path, 'timestamp,price\n0,100\n86400,"1\n2"\n')


class TestKeys:
    """The config key check: integers, unknown names and tagged lists."""

    TABLE = (
        Key("n", _integer, 1),
        Key("events", tag="kind", items={"a": (Key("x", _integer, required=True),)}),
    )

    def check(self, config, known=()):
        problems = []
        values = _check_keys(self.TABLE, config, "", problems, known)
        return values, problems

    @pytest.mark.parametrize("value, want", [(3, 3), (3.0, 3), ("3", 3), (-2e3, -2000)])
    def test_integral_numbers_pass(self, value, want):
        values, problems = self.check({"n": value})
        assert (values["n"], problems) == (want, [])
        assert type(values["n"]) is int

    @pytest.mark.parametrize("value", [2000.7, 3.9, "2.5", float("nan"), True])
    def test_fractional_or_non_numbers_refused(self, value):
        _, problems = self.check({"n": value})
        assert len(problems) == 1 and problems[0].startswith("n: ")

    def test_unknown_names_at_each_level(self):
        config = {"n": 1, "m": 2, "events": [{"kind": "a", "x": 1, "y": 0}], "command": "c"}
        _, problems = self.check(config, known=("command",))
        assert problems == ["events[0].y: unknown key", "m: unknown key"]

    def test_explicit_null_is_not_unknown(self):
        _, problems = self.check({"n": None, "events": [{"kind": "a", "x": 1}]})
        assert problems == []

    def test_item_without_a_variant_checks_its_tag_alone(self):
        # With no variant to check against, only the names that no variant lists are known to be wrong.
        _, problems = self.check({"events": [{"kind": "b", "x": 1, "y": 0}]})
        assert problems == ["events[0].kind: expected one of a, got 'b'", "events[0].y: unknown key"]
        _, problems = self.check({"events": [{"Kind": "a", "x": 1, "y": 0}]})
        assert problems == ["events[0].kind: required", "events[0].Kind: unknown key", "events[0].y: unknown key"]


# -- tagged lists: the columnar check against the item-by-item walk -------------------


def walked_list(key, value, path, problems):
    """`core._check_list` on a tagged list as it stood before the columnar check: every item on its own."""
    tag = Key(key.tag, _one_of(*key.items), required=True)
    variants = {name: (tag, *keys) for name, keys in key.items.items()}
    listed = {k.name for keys in key.items.values() for k in keys}
    checked = []
    for i, item in enumerate(value):
        name = item.get(key.tag) if isinstance(item, dict) else None
        if isinstance(name, str) and name in variants:
            keys = variants[name]
        else:
            keys = (tag,)
            item = {k: v for k, v in item.items() if k not in listed} if isinstance(item, dict) else item
        checked.append(_check_object(keys, item, f"{path}[{i}]", problems))
    return checked


def typed(values):
    """Checked items with each value's type beside it, so 1 and 1.0 or "1/3" and Fraction(1, 3) differ."""
    return [{k: (type(v), v) for k, v in item.items()} if isinstance(item, dict) else item for item in values]


EVENT_LISTS = {
    kind: (next(key for key in table if key.name == "events"),
           json.loads((DEMO / f"{kind}_scenario.json").read_text())["events"])
    for kind, table in (("pool", scenarios.POOL_SCENARIO), ("swap", scenarios.SWAP_SCENARIO))
}


def mutated(kind, index, mutation):
    key, events = EVENT_LISTS[kind]
    events = copy.deepcopy(events * 3)
    item = events[index]
    field = next(name for name in item if name not in (key.tag, "position", "party"))
    if mutation == "non-dict":
        events[index] = [item]
    elif mutation == "missing-key":
        del item[field]
    elif mutation == "extra-key":
        item["extra"] = 1
    elif mutation == "missing-tag":
        del item[key.tag]
    elif mutation == "unknown-tag":
        item[key.tag] = "bogus"
    elif mutation == "int-position":
        item["position" if "position" in item else "party"] = 7
    elif mutation == "all-shares":  # a clean item of another variant, for swaps one without "all"
        other = {"pool": {"action": "remove", "position": "alice", "shares": "all"},
                 "swap": {"type": "terminate", "time": 500, "party": "A"}}
        events[index] = other[kind]
    else:
        item[field] = mutation
    return key, events


MUTATIONS = ["non-dict", "missing-key", "extra-key", "missing-tag", "unknown-tag", "int-position", "all-shares",
             True, False, 10**400, -(10**400), 10**300, "nan", "inf", "1/3", "0.5", "", None, math.nan, math.inf,
             -0.0, 7, np.float64(1.5), [1.0]]


@pytest.mark.parametrize("kind", sorted(EVENT_LISTS))
@pytest.mark.parametrize("index", [0, 4, 17])
@pytest.mark.parametrize("mutation", MUTATIONS, ids=map(repr, MUTATIONS))
def test_columnar_list_check_matches_item_walk(kind, index, mutation):
    key, events = mutated(kind, index, mutation)
    problems, walked_problems = [], []
    checked = _check_list(key, events, "events", problems)
    walked = walked_list(key, events, "events", walked_problems)
    assert (typed(checked), problems) == (typed(walked), walked_problems)


def test_columnar_list_check_matches_item_walk_with_every_mutation_at_once():
    for kind, (key, events) in EVENT_LISTS.items():
        events = [item for mutation in MUTATIONS for item in mutated(kind, 3, mutation)[1][:6]]
        problems, walked_problems = [], []
        checked = _check_list(key, events, "events", problems)
        assert (typed(checked), problems) == (typed(walked_list(key, events, "events", walked_problems)),
                                              walked_problems)
        assert len(problems) > 10
