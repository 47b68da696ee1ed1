import math
import random
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cryptoyield.errors import DomainError, EmptyDayError, InputError
from cryptoyield.optrates import (
    OptionQuote,
    aggregate_daily,
    chain_points,
    daily_series,
    implied_discount_factor,
    implied_rate,
    load_chain_csv,
    point_from_quote,
    rolling_average,
)

YEAR_SECONDS = 365 * 86_400.0

# e^(-0.025) evaluated with mpmath and frozen.
DF_HALF_YEAR_5PCT = 0.9753099120283327


def parity_quote(rate, tenor_years, strike, underlying=40_000.0, quote_time=0.0, pad_frac=0.05):
    """Synthetic quote satisfying put-call parity exactly at the given rate."""
    expiry = quote_time + tenor_years * YEAR_SECONDS
    forward_gap = underlying - strike * math.exp(-rate * tenor_years)
    call = max(forward_gap, 0.0) + pad_frac * underlying
    put = call - forward_gap
    return OptionQuote(
        quote_time=quote_time,
        expiry=expiry,
        strike=strike,
        call=call,
        put=put,
        underlying=underlying,
    )


class TestDiscountFactor:
    def test_zero_rate_parity(self):
        q = parity_quote(0.0, 0.5, 40_000.0)
        assert_allclose(implied_discount_factor(q), 1.0, rtol=1e-14)

    def test_synthetic_five_percent(self):
        q = parity_quote(0.05, 0.5, 40_000.0)
        assert_allclose(implied_discount_factor(q), DF_HALF_YEAR_5PCT, rtol=1e-12)

    def test_arbitrage_crossed_quote_filtered(self):
        q = OptionQuote(0.0, YEAR_SECONDS, 40_000.0, call=41_000.0, put=0.0, underlying=40_000.0)
        assert implied_discount_factor(q) < 0
        assert point_from_quote(q) is None

    def test_validation(self):
        with pytest.raises(DomainError):
            OptionQuote(0.0, 1.0, 0.0, 1.0, 1.0, 100.0)
        with pytest.raises(DomainError):
            OptionQuote(10.0, 5.0, 100.0, 1.0, 1.0, 100.0)


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
        points, excluded = chain_points(quotes)
        assert excluded == 0
        assert len(points) == 50
        for p in points:
            assert abs(p.rate - rate) < 1e-9

    def test_strike_invariance_of_discount_factor(self):
        quotes = [parity_quote(0.07, 0.25, k) for k in (20_000.0, 40_000.0, 60_000.0)]
        factors = [implied_discount_factor(q) for q in quotes]
        assert max(factors) - min(factors) < 1e-12

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_scale_consistency(self, c):
        base = parity_quote(0.05, 0.5, 38_000.0)
        scaled = OptionQuote(
            base.quote_time,
            base.expiry,
            c * base.strike,
            c * base.call,
            c * base.put,
            c * base.underlying,
        )
        assert_allclose(
            point_from_quote(scaled).rate, point_from_quote(base).rate, rtol=1e-9, atol=1e-12
        )


class TestAggregation:
    def test_single_point(self):
        points, _ = chain_points([parity_quote(0.03, 0.5, 40_000.0)])
        assert_allclose(aggregate_daily(points, points[0].day), 0.03, rtol=1e-9)

    def test_mean_of_two(self):
        quotes = [parity_quote(0.01, 0.5, 40_000.0), parity_quote(0.03, 0.25, 42_000.0)]
        points, _ = chain_points(quotes)
        assert_allclose(aggregate_daily(points, points[0].day), 0.02, rtol=1e-9)

    def test_permutation_invariance(self):
        rng = random.Random(3)
        quotes = [parity_quote(rng.uniform(-0.02, 0.2), 0.5, 30_000.0 + 1000 * i) for i in range(20)]
        points, _ = chain_points(quotes)
        day = points[0].day
        shuffled = points[:]
        rng.shuffle(shuffled)
        assert aggregate_daily(points, day) == aggregate_daily(shuffled, day)

    def test_invalid_points_counted_and_excluded(self):
        good = parity_quote(0.05, 0.5, 40_000.0)
        bad = OptionQuote(0.0, YEAR_SECONDS, 40_000.0, call=41_000.0, put=0.0, underlying=40_000.0)
        points, excluded = chain_points([good, bad])
        assert excluded == 1
        assert_allclose(aggregate_daily(points, good.day), 0.05, rtol=1e-9)

    def test_empty_day(self):
        points, _ = chain_points([parity_quote(0.05, 0.5, 40_000.0)])
        with pytest.raises(EmptyDayError):
            aggregate_daily(points, date(1999, 1, 1))

    def test_daily_series_spans_days(self):
        quotes = [
            parity_quote(0.04, 0.5, 40_000.0, quote_time=0.0),
            parity_quote(0.06, 0.5, 40_000.0, quote_time=86_400.0),
        ]
        points, _ = chain_points(quotes)
        series = daily_series(points)
        assert [d for d, _, _ in series] == [date(1970, 1, 1), date(1970, 1, 2)]
        assert_allclose([r for _, r, _ in series], [0.04, 0.06], rtol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_daily_series_matches_per_day_rescan(self, seed):
        def reference_daily_series(points):
            days = sorted({p.day for p in points})
            return [(d, aggregate_daily(points, d), sum(1 for p in points if p.day == d)) for d in days]

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
        points, _ = chain_points(quotes)
        rng.shuffle(points)
        series = daily_series(points)
        assert series == reference_daily_series(points)
        assert sum(n for _, _, n in series) == len(points) and len(series) > 30


class TestRollingAverage:
    def test_window_one_is_identity(self):
        values = [1.0, 2.0, 3.0]
        assert rolling_average(values, 1) == values

    def test_constant_series(self):
        assert rolling_average([0.5] * 10, 7) == [0.5] * 10

    def test_step_becomes_ramp(self):
        values = [0.0] * 7 + [1.0] * 7
        smoothed = rolling_average(values, 7)
        expected_tail = [1 / 7, 2 / 7, 3 / 7, 4 / 7, 5 / 7, 6 / 7, 1.0]
        assert_allclose(smoothed[7:], expected_tail, rtol=1e-12)

    def test_partial_start_window(self):
        assert rolling_average([4.0, 0.0], 7) == [4.0, 2.0]

    def test_bad_window(self):
        with pytest.raises(DomainError):
            rolling_average([1.0], 0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        q = parity_quote(0.05, 0.5, 40_000.0)
        f = tmp_path / "chain.csv"
        f.write_text(
            "quote_time,expiry,strike,call,put,underlying\n"
            f"{q.quote_time},{q.expiry},{q.strike},{q.call},{q.put},{q.underlying}\n"
        )
        quotes = load_chain_csv(f)
        assert_allclose(point_from_quote(quotes[0]).rate, 0.05, rtol=1e-9)

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
