import math
import random
import tracemalloc
from datetime import date, datetime, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cryptoyield.core import Columns
from cryptoyield.errors import DomainError, EmptyDayError, InputError
from cryptoyield.optrates import (
    aggregate_daily,
    chain_points,
    daily_series,
    implied_discount_factor,
    implied_rate,
    load_chain_csv,
    rolling_average,
)
from tests import oracles
from tests.oracles import rows as table_rows

YEAR_SECONDS = 365 * 86_400.0

# e^(-0.025) evaluated with mpmath and frozen.
DF_HALF_YEAR_5PCT = 0.9753099120283327


def parity_quote(rate, tenor_years, strike, underlying=40_000.0, quote_time=0.0, pad_frac=0.05):
    """Synthetic quote satisfying put-call parity exactly at the given rate, as a dict of its fields."""
    expiry = quote_time + tenor_years * YEAR_SECONDS
    forward_gap = underlying - strike * math.exp(-rate * tenor_years)
    call = max(forward_gap, 0.0) + pad_frac * underlying
    put = call - forward_gap
    return quote(quote_time, expiry, strike, call, put, underlying)


def quote(quote_time, expiry, strike, call, put, underlying):
    return {"quote_time": quote_time, "expiry": expiry, "strike": strike, "call": call, "put": put,
            "underlying": underlying}


def as_chain(quotes):
    """Quote dicts as a chain table, the shape `load_chain_csv` returns."""
    return Columns({name: np.array([q[name] for q in quotes], dtype=float) for name in quotes[0]})


def rate_of(q):
    """The rate point of one quote, or None when parity is violated."""
    points, _ = chain_points(as_chain([q]))
    return points["rate"][0] if len(points) else None


class TestDiscountFactor:
    def test_zero_rate_parity(self):
        q = parity_quote(0.0, 0.5, 40_000.0)
        assert_allclose(implied_discount_factor(q), 1.0, rtol=1e-14)

    def test_synthetic_five_percent(self):
        q = parity_quote(0.05, 0.5, 40_000.0)
        assert_allclose(implied_discount_factor(q), DF_HALF_YEAR_5PCT, rtol=1e-12)

    def test_arbitrage_crossed_quote_filtered(self):
        q = quote(0.0, YEAR_SECONDS, 40_000.0, call=41_000.0, put=0.0, underlying=40_000.0)
        assert implied_discount_factor(q) < 0
        assert rate_of(q) is None

    def test_validation(self, tmp_path):
        f = tmp_path / "chain.csv"
        for row, rule in (("0,1,0,1,1,100", "strike and underlying must be > 0"),
                          ("10,5,100,1,1,100", "expiry must be after the quote time")):
            f.write_text(f"quote_time,expiry,strike,call,put,underlying\n{row}\n")
            with pytest.raises(InputError, match=rf"chain\.csv:2: {rule}"):
                load_chain_csv(f)


class TestImpliedRate:
    def test_unit_discount_zero_rate(self):
        assert implied_rate(1.0, 0.0, YEAR_SECONDS) == 0.0

    def test_round_trip_five_percent(self):
        assert_allclose(implied_rate(DF_HALF_YEAR_5PCT, 0.0, 0.5 * YEAR_SECONDS), 0.05, rtol=1e-12)

    def test_discount_above_one_gives_negative_rate(self):
        assert implied_rate(1.01, 0.0, YEAR_SECONDS) < 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            implied_rate(0.0, 0.0, YEAR_SECONDS)
        with pytest.raises(DomainError):
            implied_rate(0.99, YEAR_SECONDS, YEAR_SECONDS)


class TestChainRoundTrip:
    @pytest.mark.parametrize("rate", [-0.02, 0.0, 0.05, 0.25])
    def test_recovers_rate_at_every_strike_and_expiry(self, rate):
        quotes = [
            parity_quote(rate, tenor, strike)
            for tenor in (1 / 52, 0.1, 0.25, 0.5, 1.0)
            for strike in range(30_000, 50_000, 2_000)
        ]
        points, excluded = chain_points(as_chain(quotes))
        assert excluded == 0
        assert len(points) == 50
        for r in points["rate"].tolist():
            assert abs(r - rate) < 1e-9

    def test_strike_invariance_of_discount_factor(self):
        quotes = [parity_quote(0.07, 0.25, k) for k in (20_000.0, 40_000.0, 60_000.0)]
        factors = [implied_discount_factor(q) for q in quotes]
        assert max(factors) - min(factors) < 1e-12

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_scale_consistency(self, c):
        base = parity_quote(0.05, 0.5, 38_000.0)
        scaled = {**base, **{name: c * base[name] for name in ("strike", "call", "put", "underlying")}}
        assert_allclose(rate_of(scaled), rate_of(base), rtol=1e-9, atol=1e-12)


class TestAggregation:
    def test_single_point(self):
        points, _ = chain_points(as_chain([parity_quote(0.03, 0.5, 40_000.0)]))
        assert_allclose(aggregate_daily(points, date(1970, 1, 1)), 0.03, rtol=1e-9)

    def test_mean_of_two(self):
        quotes = [parity_quote(0.01, 0.5, 40_000.0), parity_quote(0.03, 0.25, 42_000.0)]
        points, _ = chain_points(as_chain(quotes))
        assert_allclose(aggregate_daily(points, date(1970, 1, 1)), 0.02, rtol=1e-9)

    def test_permutation_invariance(self):
        rng = random.Random(3)
        quotes = [parity_quote(rng.uniform(-0.02, 0.2), 0.5, 30_000.0 + 1000 * i) for i in range(20)]
        day = date(1970, 1, 1)
        mean = aggregate_daily(chain_points(as_chain(quotes))[0], day)
        rng.shuffle(quotes)
        assert aggregate_daily(chain_points(as_chain(quotes))[0], day) == mean

    def test_invalid_points_counted_and_excluded(self):
        good = parity_quote(0.05, 0.5, 40_000.0)
        bad = quote(0.0, YEAR_SECONDS, 40_000.0, call=41_000.0, put=0.0, underlying=40_000.0)
        points, excluded = chain_points(as_chain([good, bad]))
        assert excluded == 1
        assert_allclose(aggregate_daily(points, date(1970, 1, 1)), 0.05, rtol=1e-9)

    def test_empty_day(self):
        points, _ = chain_points(as_chain([parity_quote(0.05, 0.5, 40_000.0)]))
        with pytest.raises(EmptyDayError):
            aggregate_daily(points, date(1999, 1, 1))

    def test_daily_series_spans_days(self):
        quotes = [
            parity_quote(0.04, 0.5, 40_000.0, quote_time=0.0),
            parity_quote(0.06, 0.5, 40_000.0, quote_time=86_400.0),
        ]
        points, _ = chain_points(as_chain(quotes))
        series = daily_series(points)
        assert series["day"] == [date(1970, 1, 1), date(1970, 1, 2)]
        assert_allclose(series["mean_rate"], [0.04, 0.06], rtol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_daily_series_matches_per_day_rescan(self, seed):
        def reference_daily_series(points):
            days = [datetime.fromtimestamp(t, tz=timezone.utc).date() for t in points["quote_time"].tolist()]
            rates = points["rate"].tolist()
            by_day = {d: [r for e, r in zip(days, rates) if e == d] for d in sorted(set(days))}
            return [(d, math.fsum(day_rates) / len(day_rates), len(day_rates)) for d, day_rates in by_day.items()]

        rng = random.Random(seed)
        quotes = [
            parity_quote(
                rng.uniform(-0.02, 0.2),
                rng.choice([0.1, 0.25, 0.5]),
                rng.uniform(30_000.0, 50_000.0),
                quote_time=rng.randrange(40) * 86_400.0 + rng.choice([0.0, 1.0, 43_200.0, 86_399.0]),
            )
            for _ in range(400)
        ]
        rng.shuffle(quotes)
        points, _ = chain_points(as_chain(quotes))
        series = daily_series(points)
        assert table_rows(series) == reference_daily_series(points)
        assert sum(series["points"].tolist()) == len(points) and len(series) > 30


class TestRollingAverage:
    def test_window_one_is_identity(self):
        values = [1.0, 2.0, 3.0]
        assert rolling_average(values, 1).tolist() == values

    def test_constant_series(self):
        assert rolling_average([0.5] * 10, 7).tolist() == [0.5] * 10

    def test_step_becomes_ramp(self):
        values = [0.0] * 7 + [1.0] * 7
        smoothed = rolling_average(values, 7)
        expected_tail = [1 / 7, 2 / 7, 3 / 7, 4 / 7, 5 / 7, 6 / 7, 1.0]
        assert_allclose(smoothed[7:], expected_tail, rtol=1e-12)

    def test_partial_start_window(self):
        assert rolling_average([4.0, 0.0], 7).tolist() == [4.0, 2.0]

    def test_bad_window(self):
        with pytest.raises(DomainError):
            rolling_average([1.0], 0)

    @pytest.mark.parametrize("window", [2, 7, 999, 2000, 3999, 4000, 4001, 6000])
    def test_equals_the_per_row_oracle_bit_for_bit(self, window):
        values = np.random.default_rng(window).lognormal(size=4000).tolist()
        assert rolling_average(values, window).tolist() == oracles.rolling_average(values, window)

    def test_a_wide_window_holds_one_window_at_a_time(self):
        # The full windows come from `window` staggered iterators, not `window`
        # copies of the series: 2000 copies of 2001 floats would take ~32 MB.
        values = np.random.default_rng(3).lognormal(size=4000)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rolling_average(values, len(values) // 2)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestCsv:
    def test_round_trip(self, tmp_path):
        q = parity_quote(0.05, 0.5, 40_000.0)
        f = tmp_path / "chain.csv"
        f.write_text("quote_time,expiry,strike,call,put,underlying\n" + ",".join(map(repr, q.values())) + "\n")
        chain = load_chain_csv(f)
        assert table_rows(chain) == [tuple(q.values())]
        assert_allclose(chain_points(chain)[0]["rate"], [0.05], rtol=1e-9)

    @pytest.mark.parametrize("row", ["0,100,nan,1,1,100", "0,100,100,inf,1,100", "0,100,100,1,-inf,100", "0,100,100,1,1,NaN"])
    def test_non_finite_cell_names_line(self, tmp_path, row):
        f = tmp_path / "chain.csv"
        f.write_text(f"quote_time,expiry,strike,call,put,underlying\n{row}\n")
        with pytest.raises(InputError, match=r"chain\.csv:2: column '\w+' holds a non-finite"):
            load_chain_csv(f)

    def test_bad_row_diagnostic(self, tmp_path):
        f = tmp_path / "chain.csv"
        f.write_text("quote_time,expiry,strike,call,put,underlying\n0,100,x,1,1,100\n")
        with pytest.raises(InputError, match=r"chain\.csv:2"):
            load_chain_csv(f)
