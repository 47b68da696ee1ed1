import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cryptoyield.core import Columns, RateConvention
from cryptoyield.errors import DomainError, InputError
from cryptoyield.perps import (
    FundingSpec,
    basis_rows,
    bitmex_funding,
    cash_flow_per_notional,
    deribit_funding,
    events_from_quotes,
    funding_accrual,
    futures_basis,
    implied_rate_from_basis,
    load_basis_csv,
    load_mark_index_csv,
    payer,
    premium_rate,
    shiller_anchor,
)
from tests.oracles import rows as table_rows

# ln(1.02)/0.25 evaluated with mpmath and frozen.
IMPLIED_RATE_Q = 0.07921050918471885


class TestShillerAnchor:
    def test_no_dividend_no_rate(self):
        assert shiller_anchor(0.0, 0.0, 5000.0) == 0.0

    def test_documented_case(self):
        assert_allclose(shiller_anchor(1.0, 0.0001, 5000.0), 0.5, rtol=1e-15)

    def test_zero_rate_returns_dividend(self):
        assert shiller_anchor(2.5, 0.0, 41000.0) == 2.5

    def test_domain(self):
        with pytest.raises(DomainError):
            shiller_anchor(1.0, 0.0, 0.0)


class TestPremiumRate:
    def test_at_index(self):
        assert premium_rate(40000.0, 40000.0) == 0.0

    def test_premium(self):
        assert_allclose(premium_rate(40100.0, 40000.0), 0.0025, rtol=1e-12)

    def test_discount(self):
        assert_allclose(premium_rate(39800.0, 40000.0), -0.005, rtol=1e-12)

    def test_nonpositive_rejected(self, tmp_path):
        f = tmp_path / "quotes.csv"
        for row in ("40000,0", "0,40000", "-1,40000"):
            f.write_text(f"timestamp,mark,index\n0,40000,40000\n28800,{row}\n")
            with pytest.raises(InputError, match=r"quotes\.csv:3: mark and index prices must be > 0"):
                load_mark_index_csv(f)


class TestDeribitFunding:
    def test_deadband_zero(self):
        assert deribit_funding(0.0) == 0.0
        assert deribit_funding(0.0005) == 0.0
        assert deribit_funding(-0.0005) == 0.0

    def test_positive_premium(self):
        assert_allclose(deribit_funding(0.0020), 0.0015, rtol=1e-12)

    def test_negative_premium(self):
        assert_allclose(deribit_funding(-0.0030), -0.0025, rtol=1e-12)

    @given(st.floats(min_value=-0.0005, max_value=0.0005))
    def test_identically_zero_inside_band(self, p):
        assert deribit_funding(p) == 0.0

    @given(st.floats(min_value=0.0005, max_value=0.05))
    def test_odd_outside_band(self, p):
        assert_allclose(deribit_funding(p), -deribit_funding(-p), atol=1e-18)


class TestBitmexFunding:
    def test_premium_equal_interest(self):
        assert bitmex_funding(0.0001, 0.0001) == 0.0001

    def test_strong_premium_clamps(self):
        assert_allclose(bitmex_funding(0.0030, 0.0001), 0.0025, rtol=1e-12)

    def test_inside_band_returns_interest(self):
        assert_allclose(bitmex_funding(0.0003, 0.0001), 0.0001, rtol=1e-12)

    @given(
        st.floats(min_value=-0.05, max_value=0.05),
        st.floats(min_value=-0.002, max_value=0.002),
    )
    def test_funding_never_strays_from_premium_by_more_than_band(self, p, i):
        f = bitmex_funding(p, i)
        assert abs(f - p) <= 0.0005 + 1e-18
        if abs(i - p) <= 0.0005:
            assert f == i


def events(rates, times=None, fractions=None):
    """A table of funding events, the shape `events_from_quotes` returns."""
    n = len(rates)
    return Columns({
        "time": np.arange(n, dtype=float) if times is None else np.array(times, dtype=float),
        "funding_rate": np.array(rates, dtype=float),
        "time_fraction": np.ones(n) if fractions is None else np.array(fractions, dtype=float),
    })


def quotes(*rows):
    """(time, mark, index) rows as a table, the shape `load_mark_index_csv` returns."""
    columns = zip(*rows)
    return Columns({name: np.array(next(columns), dtype=float) for name in ("timestamp", "mark", "index")})


class TestFundingAccrual:
    def test_no_events(self):
        assert funding_accrual(10_000.0, events([])) == 0.0

    def test_single_event_long_pays(self):
        one = events([0.0001])
        assert_allclose(funding_accrual(10_000.0, one), 1.0, rtol=1e-12)
        assert payer(one["funding_rate"]).tolist() == ["long"]

    def test_payer_by_sign(self):
        assert payer(np.array([0.1, -0.1, 0.0, -0.0])).tolist() == ["long", "short", "", ""]

    def test_opposite_rates_cancel(self):
        assert funding_accrual(5000.0, events([0.0002, -0.0002])) == 0.0

    def test_unordered_rejected(self):
        with pytest.raises(DomainError, match="out of order at t=0.0"):
            funding_accrual(1.0, events([0.1, 0.1], times=[1.0, 0.0]))

    @given(st.lists(st.floats(min_value=-0.001, max_value=0.001), min_size=0, max_size=20))
    def test_additive_over_concatenation(self, rates):
        k = len(rates) // 2
        total = funding_accrual(1000.0, events(rates))
        later = events(rates[k:], times=range(k, len(rates)))
        split = funding_accrual(1000.0, events(rates[:k])) + funding_accrual(1000.0, later)
        assert_allclose(total, split, atol=1e-12)

    def test_time_fraction_scales_flow(self):
        half = events([0.0008], fractions=[0.5])
        assert cash_flow_per_notional(half).tolist() == [0.0004]
        assert_allclose(funding_accrual(1000.0, half), 0.4, rtol=1e-12)


class TestEventsFromQuotes:
    def test_deribit_engine(self):
        spec = FundingSpec(variant="deribit_deadband")
        out = events_from_quotes(quotes((0.0, 40080.0, 40000.0), (8 * 3600.0, 40000.0, 40000.0)), spec)
        assert_allclose(out["funding_rate"][0], 0.0015, rtol=1e-12)
        assert out["funding_rate"][1] == 0.0
        assert out["time_fraction"].tolist() == [1.0, 1.0]

    def test_bitmex_engine(self):
        spec = FundingSpec(variant="bitmex_clamp", interest_rate=0.0001)
        out = events_from_quotes(quotes((0.0, 40120.0, 40000.0)), spec)
        assert_allclose(out["funding_rate"], [0.0025], rtol=1e-12)

    def test_shiller_variant_rejected_for_quotes(self):
        with pytest.raises(DomainError):
            events_from_quotes(quotes((0.0, 1.0, 1.0)), FundingSpec(variant="shiller"))

    def test_partial_interval_fraction(self):
        spec = FundingSpec(variant="deribit_deadband", interval_hours=8.0)
        out = events_from_quotes(quotes((0.0, 40100.0, 40000.0), (4 * 3600.0, 40100.0, 40000.0)), spec)
        assert out["time_fraction"][1] == 0.5

    def test_fraction_that_rounds_to_zero_is_out_of_order(self):
        spec = FundingSpec(variant="deribit_deadband", interval_hours=1e300)
        with pytest.raises(DomainError, match="quotes out of order at t=1e-30"):
            events_from_quotes(quotes((0.0, 1.0, 1.0), (1e-30, 1.0, 1.0)), spec)


class TestBasis:
    def test_flat(self):
        assert futures_basis(50_000.0, 50_000.0) == 0.0

    def test_contango(self):
        assert_allclose(futures_basis(51_000.0, 50_000.0), 0.02, rtol=1e-12)

    def test_backwardation_sign(self):
        assert futures_basis(49_000.0, 50_000.0) < 0.0

    def test_implied_rate_documented(self):
        assert_allclose(implied_rate_from_basis(0.02, 0.25), IMPLIED_RATE_Q, rtol=1e-12)

    def test_zero_basis_zero_rate(self):
        assert implied_rate_from_basis(0.0, 0.5) == 0.0

    def test_small_basis_first_order(self):
        assert_allclose(implied_rate_from_basis(1e-6, 0.5), 2e-6, rtol=1e-4)

    def test_basis_below_minus_one_rejected(self):
        with pytest.raises(DomainError):
            implied_rate_from_basis(-1.0, 0.5)

    @given(st.floats(min_value=-0.5, max_value=0.5))
    def test_sign_consistency(self, b):
        r = implied_rate_from_basis(b, 0.25)
        assert (b > 0) == (r > 0) or b == 0

    def test_simple_compounding_convention(self):
        conv = RateConvention(compounding="simple")
        assert_allclose(implied_rate_from_basis(0.02, 0.25, conv), 0.08, rtol=1e-12)


class TestCsv:
    def test_mark_index_roundtrip(self, tmp_path):
        f = tmp_path / "quotes.csv"
        f.write_text("timestamp,mark,index\n0,40100,40000\n28800,40000,40000\n")
        assert table_rows(load_mark_index_csv(f)) == [(0.0, 40100.0, 40000.0), (28800.0, 40000.0, 40000.0)]

    def test_basis_rows(self, tmp_path):
        f = tmp_path / "basis.csv"
        days = 91.25 * 86400  # 0.25 years under the 365-day convention
        f.write_text(f"timestamp,perp,future,expiry\n0,50000,51000,{int(days)}\n")
        rows = basis_rows(load_basis_csv(f))
        assert_allclose(rows["basis"], [0.02], rtol=1e-12)
        assert_allclose(rows["tenor_years"], [0.25], rtol=1e-12)
        assert_allclose(rows["implied_rate"], [IMPLIED_RATE_Q], rtol=1e-12)

    def test_expiry_before_quote_rejected(self, tmp_path):
        f = tmp_path / "basis.csv"
        f.write_text("timestamp,perp,future,expiry\n100,50000,51000,50\n")
        with pytest.raises(InputError, match="expiry"):
            load_basis_csv(f)

    @pytest.mark.parametrize("row", ["100,0,51000,200", "100,50000,-5,200", "100,-1e-300,1,200"])
    def test_nonpositive_price_rejected(self, tmp_path, row):
        f = tmp_path / "basis.csv"
        f.write_text(f"timestamp,perp,future,expiry\n0,50000,51000,100\n{row}\n")
        with pytest.raises(InputError, match=r"basis\.csv:3: perp and future prices must be > 0"):
            load_basis_csv(f)

    def test_expiry_rule_comes_first_in_a_row(self, tmp_path):
        f = tmp_path / "basis.csv"
        f.write_text("timestamp,perp,future,expiry\n100,0,51000,50\n")
        with pytest.raises(InputError, match=r"basis\.csv:2: expiry must be after the quote time"):
            load_basis_csv(f)

    @pytest.mark.parametrize("row", ["28800,nan,40000", "28800,40000,inf"])
    def test_mark_index_non_finite_cell_names_line(self, tmp_path, row):
        f = tmp_path / "quotes.csv"
        f.write_text(f"timestamp,mark,index\n0,40100,40000\n{row}\n")
        with pytest.raises(InputError, match=r"quotes\.csv:3: column '\w+' holds a non-finite"):
            load_mark_index_csv(f)

    @pytest.mark.parametrize("row", ["0,nan,51000,7884000", "0,50000,-inf,7884000", "0,50000,51000,inf"])
    def test_basis_non_finite_cell_names_line(self, tmp_path, row):
        f = tmp_path / "basis.csv"
        f.write_text(f"timestamp,perp,future,expiry\n{row}\n")
        with pytest.raises(InputError, match=r"basis\.csv:2: .*non-finite"):
            load_basis_csv(f)

    def test_missing_column_diagnostic(self, tmp_path):
        f = tmp_path / "quotes.csv"
        f.write_text("timestamp,mark\n0,40100\n")
        with pytest.raises(InputError, match="index"):
            load_mark_index_csv(f)
