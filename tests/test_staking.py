import random
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cryptoyield import staking
from cryptoyield.errors import (
    DomainError,
    EligibilityError,
    EmptyCohortError,
    InputError,
    MissingDataError,
)
from cryptoyield.staking import (
    BELOW_MINIMUM,
    ELIGIBLE,
    MISSING_SNAPSHOT,
    NOT_ACTIVE,
    StateInterval,
    ValidatorRecord,
    available_days,
    daily_bands,
    daily_return,
    load_validators,
    midnight_utc,
    percentile_bands,
    slash_cost,
    window_returns,
)
from tests import oracles
from tests.oracles import records_of


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
        with pytest.raises(DomainError):  # NaN compares false, so it used to slip through
            ValidatorRecord(id="v", balances=[(T0, 32.0), (float("nan"), 32.0)])


class TestRecordStorage:
    SNAPSHOTS = [(T0, 32.0), (T1, 32.5)]

    def record(self, balances, vid="v"):
        return ValidatorRecord(id=vid, balances=balances, state_intervals=[(T0, T1, "Active")])

    def test_list_tuple_and_array_records_are_equal(self):
        records = [self.record(form(self.SNAPSHOTS)) for form in (list, tuple, np.array)]
        assert records[0] == records[1] == records[2]
        assert len({hash(r) for r in records}) == 1

    def test_balances_are_read_only_and_copied(self):
        source = np.array(self.SNAPSHOTS)
        v = self.record(source)
        with pytest.raises(ValueError):
            v.balances[1, 1] = 40.0
        source[1, 1] = 40.0
        assert v == self.record(self.SNAPSHOTS)

    def test_different_records_are_unequal(self):
        v = self.record(self.SNAPSHOTS)
        assert v != self.record([(T0, 32.0), (T1, 32.6)])
        assert v != self.record([(T0, 32.0)])
        assert v != self.record(self.SNAPSHOTS, vid="w")
        assert v != self.SNAPSHOTS

    def test_rows_iterate_as_pairs(self):
        assert [(ts, b) for ts, b in self.record(self.SNAPSHOTS).balances] == self.SNAPSHOTS


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


# -- the per-validator-day scans the array engine replaced, kept as its oracle --


def reference_daily_return(v, day):
    """The scalar rule, one linear scan per lookup: (reason, rate or None)."""
    t1 = midnight_utc(day)
    t0 = t1 - DAY
    if not any(iv.state == "Active" and iv.start <= t0 and t1 <= iv.end for iv in v.state_intervals):
        return NOT_ACTIVE, None
    if any(b < 32.0 for ts, b in v.balances if t0 <= ts <= t1):
        return BELOW_MINIMUM, None
    v0 = next((b for ts, b in v.balances if ts == t0), None)
    v1 = next((b for ts, b in v.balances if ts == t1), None)
    if v0 is None or v1 is None:
        return MISSING_SNAPSHOT, None
    return ELIGIBLE, 365.0 * (v1 / v0 - 1.0)


def reference_percentile_bands(validators, day, percentiles):
    """One scalar np.percentile per level over the day's eligible rates, or None."""
    rates = [rate for reason, rate in (reference_daily_return(v, day) for v in validators) if reason == ELIGIBLE]
    if not rates:
        return None
    return {p: float(np.percentile(np.asarray(rates), p)) for p in percentiles}


def band_dicts(levels, sizes, bands):
    """daily_bands' matrix as one {level: value} per day, or None for a day without a cohort."""
    return [dict(zip(levels, row)) if size else None for size, row in zip(sizes.tolist(), bands.tolist())]


ERRORS = {NOT_ACTIVE: EligibilityError, BELOW_MINIMUM: EligibilityError, MISSING_SNAPSHOT: MissingDataError}


def random_validator(rng, vid, days=12):
    """Daily midnights with gaps, intraday snapshots and dips, and state runs
    that start or end mid-window, are zero-length or are not Active."""
    stamps = set()
    for k in range(days):
        if rng.random() < 0.85:
            stamps.add(T0 + k * DAY)
        if rng.random() < 0.2:
            stamps.add(T0 + k * DAY + rng.choice([1.0, DAY / 3, DAY / 2, DAY - 1.0]))
    if rng.random() < 0.05:
        stamps = set()
    balances = []
    for ts in sorted(stamps):
        b = rng.choice([rng.uniform(32.0, 40.0), rng.uniform(32.0, 40.0), rng.uniform(31.0, 32.5), 32.0])
        balances.append((ts, b))
    intervals, t = [], T0 - rng.choice([0.0, DAY])
    while t < T0 + days * DAY and rng.random() < 0.9:
        length = rng.choice([0.0, DAY / 2, DAY, 2 * DAY, 5 * DAY, 15 * DAY])
        state = rng.choice(["Active", "Active", "Active", "Exited", "Pending"])
        intervals.append((t, t + length, state))
        t += length + rng.choice([0.0, 0.0, DAY / 4, DAY])
    return ValidatorRecord(id=vid, balances=balances, state_intervals=intervals)


def cohort_validator(rates, vid):
    """Daily midnight snapshots from T0, starting at 40 tokens and earning
    rates[k] over the window that ends k + 1 days after D0; Active over
    exactly the windows whose rate is not None."""
    balances = [40.0]
    for rate in rates:
        balances.append(balances[-1] * (1.0 + (rate or 0.0) / 365.0))
    stamps = [T0 + k * DAY for k in range(len(balances))]
    intervals = [(stamps[k], stamps[k + 1], "Active") for k, rate in enumerate(rates) if rate is not None]
    return ValidatorRecord(id=vid, balances=list(zip(stamps, balances)), state_intervals=intervals)


def random_cohort(seed, size):
    rng = random.Random(seed)
    return [random_validator(rng, f"v{i}") for i in range(size)]


# Days before, inside and after the generated data.
ORACLE_DAYS = [D0 + timedelta(days=k) for k in range(-2, 15)]


class TestEngineAgainstScans:
    @pytest.mark.parametrize("seed", range(8))
    def test_window_returns_match_scalar_rule(self, seed):
        cohort = random_cohort(seed, 50)
        t1s = [midnight_utc(d) for d in ORACLE_DAYS]
        outcomes = set()
        for v in cohort:
            reasons, rates = window_returns(v, t1s)
            for day, reason, rate in zip(ORACLE_DAYS, reasons, rates):
                want_reason, want = reference_daily_return(v, day)
                assert reason == want_reason, (v, day)
                outcomes.add(want_reason)
                if want_reason == ELIGIBLE:
                    assert rate == want
                    assert daily_return(v, day).annualized_return == want
                else:
                    assert np.isnan(rate)
                    with pytest.raises(ERRORS[want_reason]):
                        daily_return(v, day)
        assert outcomes == {ELIGIBLE, NOT_ACTIVE, BELOW_MINIMUM, MISSING_SNAPSHOT}

    def test_empty_balance_list_is_missing(self):
        v = ValidatorRecord(id="v", balances=[], state_intervals=[(T0, T1 + DAY, "Active")])
        reasons, rates = window_returns(v, [T1, T1 + DAY])
        assert reasons.tolist() == [MISSING_SNAPSHOT] * 2 and np.isnan(rates).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_one_pass_matches_per_validator_search(self, seed):
        cohort = random_cohort(seed, 50)
        t1s = [midnight_utc(d) for d in ORACLE_DAYS]
        reasons, rates = staking._windows(staking.cohort(cohort), t1s)
        for row, v in enumerate(cohort):
            want_reasons, want_rates = oracles.window_returns(v, t1s)
            assert reasons[row].tolist() == want_reasons.tolist()
            assert repr(rates[row].tolist()) == repr(want_rates.tolist())

    def test_nan_and_reversed_intervals_cover_nothing(self):
        nan = float("nan")
        balances = [(T0, 40.0), (T1, 40.1)]
        cohort = [
            validator(balances, states=states, vid=f"v{i}")
            for i, states in enumerate([[(T0, nan, "Active")], [(nan, T1, "Active")], [(T1, T0, "Active")],
                                        [(T0, T1, "Active")]])
        ]
        reasons, _ = staking._windows(staking.cohort(cohort), [T1])
        assert reasons.ravel().tolist() == [NOT_ACTIVE] * 3 + [ELIGIBLE]
        assert [oracles.window_returns(v, [T1])[0].tolist() for v in cohort] == reasons.tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_daily_bands_match_per_day_bands(self, seed):
        cohort = random_cohort(100 + seed, 60)
        levels = [0, 1, 5, 25, 50, 50, 75, 95, 99, 100, 33.3]
        bands = band_dicts(levels, *daily_bands(cohort, ORACLE_DAYS, levels))
        assert len(bands) == len(ORACLE_DAYS)
        assert any(b is None for b in bands) and any(b is not None for b in bands)
        for day, got in zip(ORACLE_DAYS, bands):
            assert got == reference_percentile_bands(cohort, day, levels)
            if got is None:
                with pytest.raises(EmptyCohortError):
                    percentile_bands(cohort, day, levels)
            else:
                assert percentile_bands(cohort, day, levels) == got

    @pytest.mark.parametrize("level", [150, -1, float("nan")])
    def test_level_outside_range_is_domain_error(self, level):
        cohort = TestPercentileBands().make_cohort([0.01, 0.02])
        with pytest.raises(DomainError, match="percentile level"):
            percentile_bands(cohort, D1, [50, level])
        with pytest.raises(DomainError, match="percentile level"):
            daily_bands(cohort, [D0, D1], [level])

    def test_daily_bands_on_chosen_cohorts(self):
        # Day 1: tied rates; days 2 and 3: exactly 1 and 2 eligible; day 4: 240 validators.
        rng = random.Random(21)
        rates = [[rng.gauss(0.05, 0.02) for _ in range(4)] for _ in range(240)]
        ties = [0.05] * 5 + [0.02] * 3 + [0.08] * 2
        for i, row in enumerate(rates):
            row[0] = ties[i] if i < len(ties) else None
            row[1] = row[1] if i < 1 else None
            row[2] = row[2] if i < 2 else None
        cohort = [cohort_validator(row, f"v{i}") for i, row in enumerate(rates)]
        days = [D0 + timedelta(days=k) for k in range(1, 5)]
        # 12.5 of 10 ranks falls between ranks 1 and 2, 33.3 just below rank 3;
        # 66.7 and 80.1 take numpy's second lerp form, whose bits differ here.
        levels = [0, 100, 33.3, 50, 50, 12.5, 99.9, 66.7, 80.1]
        sizes = [sum(reference_daily_return(v, day)[0] == ELIGIBLE for v in cohort) for day in days]
        assert sizes == [10, 1, 2, 240]
        for day, got in zip(days, band_dicts(levels, *daily_bands(cohort, days, levels))):
            assert got == reference_percentile_bands(cohort, day, levels)

    def test_bad_level_without_cohort_is_domain_error(self):
        # The level is checked before any window is judged: no day here has a cohort.
        below = [validator([(T0, 31.0), (T1, 31.5)])]
        sizes, bands = daily_bands(below, [D1], [50])
        assert sizes.tolist() == [0] and np.isnan(bands).all() and bands.shape == (1, 1)
        with pytest.raises(DomainError, match="percentile level must be in \\[0, 100\\], got 150"):
            daily_bands(below, [D1], [50, 150])
        with pytest.raises(DomainError, match="percentile level"):
            daily_bands([], [], [150])
        with pytest.raises(DomainError, match="percentile level"):
            percentile_bands(below, D1, [150])


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
        records = records_of(load_validators(f))
        assert set(records) == {"v1", "v2"}
        r = daily_return(records["v1"], D1)
        assert_allclose(r.annualized_return, KNOWN_DAILY_RETURN, rtol=1e-12)

    def test_state_runs_merge_into_intervals(self, tmp_path):
        f = tmp_path / "validators.csv"
        f.write_text(self.CSV)
        v1 = records_of(load_validators(f))["v1"]
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
        days = available_days(load_validators(f))
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
