import random
from datetime import date, timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cryptoyield.errors import (
    DomainError,
    EligibilityError,
    EmptyCohortError,
    InputError,
    MissingDataError,
)
from cryptoyield.staking import (
    StateInterval,
    ValidatorRecord,
    available_days,
    daily_return,
    load_validators,
    midnight_utc,
    percentile_bands,
    slash_cost,
)

DAY = 86_400.0
D0 = date(2021, 6, 1)
D1 = date(2021, 6, 2)
T0 = midnight_utc(D0)
T1 = midnight_utc(D1)

# 365 * (32.0035068/32 - 1), evaluated with mpmath and frozen: 4.00 %/yr.
KNOWN_DAILY_RETURN = 0.0399994375


def validator(balances, states=None, vid="v1"):
    if states is None:
        states = [(balances[0][0], balances[-1][0], "Active")]
    return ValidatorRecord(id=vid, balances=balances, state_intervals=states)


class TestDailyReturn:
    def test_flat_balance_zero_return(self):
        v = validator([(T0, 32.0), (T1, 32.0)])
        assert daily_return(v, D1).annualized_return == 0.0

    def test_documented_four_percent_case(self):
        v = validator([(T0, 32.0), (T1, 32.0035068)])
        assert_allclose(daily_return(v, D1).annualized_return, KNOWN_DAILY_RETURN, rtol=1e-12)

    def test_negative_return_allowed(self):
        v = validator([(T0, 33.0), (T1, 32.9)])
        assert daily_return(v, D1).annualized_return < 0.0

    def test_intra_period_dip_breaks_eligibility(self):
        v = validator([(T0, 32.0), (T0 + DAY / 2, 31.9), (T1, 32.5)])
        with pytest.raises(EligibilityError):
            daily_return(v, D1)

    def test_inactive_state_breaks_eligibility(self):
        v = validator(
            [(T0, 33.0), (T1, 33.1)],
            states=[(T0, T0, "Active"), (T1, T1, "Active")],  # gap in coverage
        )
        with pytest.raises(EligibilityError):
            daily_return(v, D1)

    def test_missing_state_data_means_ineligible(self):
        v = ValidatorRecord(id="v", balances=[(T0, 33.0), (T1, 33.1)], state_intervals=())
        with pytest.raises(EligibilityError):
            daily_return(v, D1)

    def test_missing_snapshot(self):
        v = validator([(T0, 33.0), (T1 + DAY, 33.1)], states=[(T0, T1 + DAY, "Active")])
        with pytest.raises(MissingDataError):
            daily_return(v, D1)

    @given(st.floats(min_value=1.0, max_value=50.0))
    def test_invariant_under_balance_scaling(self, c):
        v1 = validator([(T0, 32.0), (T1, 32.02)])
        v2 = validator([(T0, 32.0 * c), (T1, 32.02 * c)])
        r1 = daily_return(v1, D1).annualized_return
        r2 = daily_return(v2, D1).annualized_return
        assert_allclose(r1, r2, rtol=1e-12)

    def test_record_validation(self):
        with pytest.raises(DomainError):
            ValidatorRecord(id="v", balances=[(T1, 32.0), (T0, 32.0)])
        with pytest.raises(DomainError):
            ValidatorRecord(id="v", balances=[(T0, -1.0)])


class TestSlashCost:
    def test_one_third_of_network_loses_everything(self):
        assert slash_cost(100.0 / 3.0) == 100.0

    def test_no_failure_no_loss(self):
        assert slash_cost(0.0) == 0.0

    def test_ten_percent(self):
        assert slash_cost(10.0) == 30.0

    def test_domain(self):
        with pytest.raises(DomainError):
            slash_cost(-1.0)
        with pytest.raises(DomainError):
            slash_cost(101.0)

    @given(st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100))
    def test_monotone_and_saturating(self, a, b):
        lo, hi = sorted([a, b])
        assert slash_cost(lo) <= slash_cost(hi) <= 100.0


class TestPercentileBands:
    def make_cohort(self, returns_pct, base=40.0):
        # base > 32 keeps mildly negative returns eligible.
        cohort = []
        for i, r in enumerate(returns_pct):
            v1 = base * (1.0 + r / 365.0)
            cohort.append(validator([(T0, base), (T1, v1)], vid=f"v{i}"))
        return cohort

    def test_single_validator_all_levels_equal(self):
        cohort = self.make_cohort([0.04])
        bands = percentile_bands(cohort, D1, [1, 50, 99])
        assert len(set(bands.values())) == 1

    def test_three_validator_median(self):
        cohort = self.make_cohort([0.01, 0.02, 0.03])
        bands = percentile_bands(cohort, D1, [50])
        assert_allclose(bands[50], 0.02, rtol=1e-9)

    def test_synthetic_cohort_matches_sort_oracle(self):
        rng = random.Random(5)
        returns = [rng.uniform(-0.05, 0.25) for _ in range(1000)]
        cohort = self.make_cohort(returns)
        levels = [1, 5, 25, 50, 75, 95, 99]
        bands = percentile_bands(cohort, D1, levels)
        # Brute-force oracle: sort, then linear interpolation between ranks.
        actual = sorted(daily_return(v, D1).annualized_return for v in cohort)
        for p in levels:
            pos = (len(actual) - 1) * p / 100.0
            lo, hi = int(pos), min(int(pos) + 1, len(actual) - 1)
            expected = actual[lo] + (pos - lo) * (actual[hi] - actual[lo])
            assert_allclose(bands[p], expected, rtol=1e-9)

    def test_bands_monotone_across_levels(self):
        rng = random.Random(11)
        cohort = self.make_cohort([rng.gauss(0.05, 0.03) for _ in range(200)])
        levels = [1, 5, 25, 50, 75, 95, 99]
        bands = percentile_bands(cohort, D1, levels)
        values = [bands[p] for p in levels]
        assert values == sorted(values)

    def test_ineligible_validators_skipped(self):
        good = validator([(T0, 32.0), (T1, 32.01)], vid="good")
        bad = validator([(T0, 31.0), (T1, 32.01)], vid="bad")
        bands = percentile_bands([good, bad], D1, [50])
        assert_allclose(bands[50], 365.0 * (32.01 / 32.0 - 1.0), rtol=1e-12)

    def test_empty_cohort(self):
        bad = validator([(T0, 31.0), (T1, 32.01)])
        with pytest.raises(EmptyCohortError):
            percentile_bands([bad], D1, [50])


class TestCsvLoading:
    CSV = (
        "validator_id,timestamp,balance,state\n"
        "v1,2021-06-01T00:00:00Z,32.0,Active\n"
        "v1,2021-06-02T00:00:00Z,32.0035068,Active\n"
        "v1,2021-06-03T00:00:00Z,32.007,Exited\n"
        "v2,2021-06-01T00:00:00Z,33.0,Active\n"
        "v2,2021-06-02T00:00:00Z,33.001,Active\n"
    )

    def test_load_and_compute(self, tmp_path):
        f = tmp_path / "validators.csv"
        f.write_text(self.CSV)
        records = load_validators(f)
        assert set(records) == {"v1", "v2"}
        r = daily_return(records["v1"], D1)
        assert_allclose(r.annualized_return, KNOWN_DAILY_RETURN, rtol=1e-12)

    def test_state_runs_merge_into_intervals(self, tmp_path):
        f = tmp_path / "validators.csv"
        f.write_text(self.CSV)
        v1 = load_validators(f)["v1"]
        assert v1.state_intervals == (
            StateInterval(T0, T1, "Active"),
            StateInterval(T1 + DAY, T1 + DAY, "Exited"),
        )
        # The Exited day must not count as eligible.
        with pytest.raises(EligibilityError):
            daily_return(v1, D1 + timedelta(days=1))

    def test_available_days(self, tmp_path):
        f = tmp_path / "validators.csv"
        f.write_text(self.CSV)
        days = available_days(load_validators(f).values())
        assert days == [D1, D1 + timedelta(days=1)]

    def test_bad_header(self, tmp_path):
        f = tmp_path / "validators.csv"
        f.write_text("id,timestamp,balance,state\nv1,0,32,Active\n")
        with pytest.raises(InputError, match="validator_id"):
            load_validators(f)

    @pytest.mark.parametrize("balance", ["nan", "inf", "-inf"])
    def test_non_finite_balance_names_line(self, tmp_path, balance):
        f = tmp_path / "validators.csv"
        f.write_text(f"validator_id,timestamp,balance,state\nv1,2021-06-01,{balance},Active\n")
        with pytest.raises(InputError, match=r"validators\.csv:2: column 'balance' holds a non-finite"):
            load_validators(f)

    def test_bad_balance_names_line(self, tmp_path):
        f = tmp_path / "validators.csv"
        f.write_text("validator_id,timestamp,balance,state\nv1,2021-06-01,abc,Active\n")
        with pytest.raises(InputError, match=r"validators\.csv:2"):
            load_validators(f)
