"""Proof-of-stake validator returns, slashing and cross-validator bands.

The annualized staking return between two daily balance snapshots (taken at
00:00 UTC) is 365 * (V_t / V_{t-1} - 1). A validator is eligible for the
(t-1, t] window only if it stayed continuously Active and never dipped below
the 32 token minimum on any available snapshot in the window; missing state
coverage counts as ineligible, not Active.

A `Cohort` holds validators as columns: every snapshot in one table sorted
by validator and then by time, and every declared state interval in
another. `load_validators` reads one from a CSV, and `cohort` builds one
from `ValidatorRecord`s. `_windows` is the one place the rules live. It
judges every validator's window ending at every requested midnight in one
pass over the snapshot table: each (validator, time) pair is a complex
number, which numpy orders by validator and then by time, so one binary
search finds the snapshots inside every validator's every window, a prefix
count over the table finds the sub-minimum ones, and a difference array
over the windows in time order finds the Active coverage. `window_returns`,
`daily_return` and `percentile_bands` ask it about one validator or one
day. `daily_bands` sorts its validators x days matrix of rates once
(ineligible cells are NaN and sort last) and evaluates numpy's `linear`
percentile for every day at once, with the bits of one `np.percentile`
call per day.

Coordinated failure is penalized jointly: slashing costs 3x the failing
network percentage, so a third of the network can lose everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import NamedTuple

import numpy as np

from . import core
from .core import SECONDS_PER_DAY
from .errors import (
    DomainError,
    EligibilityError,
    EmptyCohortError,
    InputError,
    MissingDataError,
)

MIN_VALIDATOR_BALANCE = 32.0


@dataclass(frozen=True)
class StateInterval:
    start: float
    end: float
    state: str


@dataclass(frozen=True)
class ValidatorRecord:
    """Balance snapshots plus declared state intervals for one validator.

    `balances` is stored as a read-only float array of (timestamp, balance)
    rows, one per snapshot; any sequence of pairs is accepted. Records
    compare by value.
    """

    id: str
    balances: np.ndarray
    state_intervals: tuple = ()

    def __post_init__(self):
        obs = np.array(self.balances, dtype=float).reshape(len(self.balances), 2)
        broken = _refused_snapshot(np.zeros(len(obs), dtype=np.intp), *obs.T)
        if broken:
            raise DomainError(f"validator {self.id}: {broken[1]}")
        obs.flags.writeable = False
        object.__setattr__(self, "balances", obs)
        object.__setattr__(
            self,
            "state_intervals",
            tuple(
                iv if isinstance(iv, StateInterval) else StateInterval(*iv)
                for iv in self.state_intervals
            ),
        )

    def __eq__(self, other):
        if not isinstance(other, ValidatorRecord):
            return NotImplemented
        return (
            (self.id, self.state_intervals) == (other.id, other.state_intervals)
            and np.array_equal(self.balances, other.balances)
        )

    def __hash__(self):
        # -0.0 == 0.0, so the snapshot bytes would break hash/eq agreement.
        return hash((self.id, self.balances.shape, self.state_intervals))


def _refused_snapshot(validator, t, b):
    """(validator, problem) for the first snapshot in table order that breaks a rule, else None.

    A balance must not be negative, and each time must be after the one
    before it of the same validator.
    """
    unordered = np.zeros(len(t), dtype=bool)
    unordered[1:] = (validator[1:] == validator[:-1]) & ~(t[1:] > t[:-1])
    bad = np.flatnonzero((b < 0) | unordered)
    if not bad.size:
        return None
    row = int(bad[0])
    if b[row] < 0:
        return validator[row], f"balance at index {row - np.searchsorted(validator, validator[row])} is negative"
    return validator[row], "timestamps must be strictly increasing"


class Cohort(NamedTuple):
    """Validators as columns; cohorts compare by value.

    `snapshots` is a table of validator (an index into `ids`), timestamp and
    balance, sorted by validator and then by time; `intervals` is a table of
    validator, start, end and state (a `core.Coded` column), one row per
    declared state interval.
    """

    ids: list
    snapshots: core.Columns
    intervals: core.Columns


def cohort(records) -> Cohort:
    """The cohort of ValidatorRecords, in the order given."""
    records = list(records)
    snapshots = np.concatenate([r.balances for r in records] or [np.empty((0, 2))])
    intervals = [(k, iv) for k, r in enumerate(records) for iv in r.state_intervals]
    return Cohort(
        [r.id for r in records],
        core.Columns({
            "validator": np.repeat(np.arange(len(records)), [len(r.balances) for r in records]),
            "timestamp": snapshots[:, 0],
            "balance": snapshots[:, 1],
        }),
        core.Columns({
            "validator": np.array([k for k, _ in intervals], dtype=np.intp),
            "start": np.array([iv.start for _, iv in intervals], dtype=float),
            "end": np.array([iv.end for _, iv in intervals], dtype=float),
            "state": core.Coded.of([iv.state for _, iv in intervals]),
        }),
    )


def _as_cohort(validators) -> Cohort:
    return validators if isinstance(validators, Cohort) else cohort(validators)


@dataclass(frozen=True)
class StakingReturn:
    """Annualized return earned over the 24h window ending on `day`."""

    date: date
    annualized_return: float


def midnight_utc(day: date) -> float:
    return datetime(day.year, day.month, day.day, tzinfo=timezone.utc).timestamp()


# Outcome of one window, in the order the rules are checked: the first rule a
# window breaks is its reason.
ELIGIBLE, NOT_ACTIVE, BELOW_MINIMUM, MISSING_SNAPSHOT = range(4)


def _pairs(validator, times):
    """(validator, time) pairs as complex numbers, which numpy compares, sorts and searches by validator, then time."""
    pairs = np.empty(np.broadcast_shapes(np.shape(validator), np.shape(times)), dtype=complex)
    pairs.real, pairs.imag = validator, times
    return pairs


def _active(cohort, t0, t1):
    """Per validator (rows) and window (columns), whether one Active interval covers all of [t0, t1].

    In time order, the windows an interval covers run on from the first
    whose t0 is not before its start to the last whose t1 is not after its
    end, so each interval adds one run to a difference array.
    """
    iv = cohort.intervals
    state, start, end = iv["state"], iv["start"], iv["end"]
    order = np.argsort(t1, kind="stable")
    first = np.searchsorted(t0[order], start, "left")
    stop = np.searchsorted(t1[order], end, "right")
    # NaN bounds cover nothing; t0 < t1, so neither does an interval with end < start.
    on = np.array([text == "Active" for text in state.texts], dtype=bool)[state.codes] & (start <= end) & (first < stop)
    runs = np.zeros((len(cohort.ids), len(t1) + 1), dtype=np.intp)
    np.add.at(runs, (iv["validator"][on], first[on]), 1)
    np.add.at(runs, (iv["validator"][on], stop[on]), -1)
    active = np.empty((len(cohort.ids), len(t1)), dtype=bool)
    active[:, order] = np.cumsum(runs[:, :-1], axis=1) > 0
    return active


def _windows(cohort, t1s):
    """(reasons, rates), validators x windows, for the 24h windows ending at each midnight in `t1s`.

    A window [t0, t1] is NOT_ACTIVE unless one Active interval covers all of
    it, BELOW_MINIMUM if any snapshot inside it is under the 32 token
    minimum, and MISSING_SNAPSHOT without snapshots at both t0 and t1. An
    ELIGIBLE window's rate is 365 * (V_t1 / V_t0 - 1); every other rate is NaN.
    """
    t1 = np.asarray(t1s, dtype=float)
    t0 = t1 - SECONDS_PER_DAY
    snapshots = cohort.snapshots
    balances = snapshots["balance"]
    # A NaN sentinel past the last snapshot matches no window bound, so an
    # index one past the end (or -1) reads as a missing snapshot.
    keys = np.append(_pairs(snapshots["validator"], snapshots["timestamp"]), np.nan)
    validators = np.arange(len(cohort.ids))[:, None]
    lower, upper = _pairs(validators, t0), _pairs(validators, t1)
    first = np.searchsorted(keys[:-1], lower, "left")  # a validator's first snapshot at or after t0
    last = np.searchsorted(keys[:-1], upper, "right") - 1  # its last snapshot at or before t1
    below = np.concatenate(([0], np.cumsum(balances < MIN_VALIDATOR_BALANCE)))
    reasons = np.select(
        [~_active(cohort, t0, t1), below[last + 1] > below[first], (keys[first] != lower) | (keys[last] != upper)],
        [NOT_ACTIVE, BELOW_MINIMUM, MISSING_SNAPSHOT],
        ELIGIBLE,
    )
    rates = np.full(reasons.shape, np.nan)
    ok = reasons == ELIGIBLE
    rates[ok] = core.RateConvention().days_per_year * (balances[last[ok]] / balances[first[ok]] - 1.0)
    return reasons, rates


def window_returns(validator: ValidatorRecord, t1s):
    """(reasons, rates) for one validator's 24h windows ending at each midnight in `t1s` (see `_windows`)."""
    reasons, rates = _windows(cohort([validator]), t1s)
    return reasons[0], rates[0]


def daily_return(validator: ValidatorRecord, day: date) -> StakingReturn:
    """365 * (V_t/V_{t-1} - 1) for an eligible validator; may be negative."""
    (reason,), (rate,) = window_returns(validator, [midnight_utc(day)])
    if reason == NOT_ACTIVE:
        raise EligibilityError(
            f"validator {validator.id} not continuously Active over {day - timedelta(days=1)}..{day}"
        )
    if reason == BELOW_MINIMUM:
        raise EligibilityError(
            f"validator {validator.id} dipped below {MIN_VALIDATOR_BALANCE} in the window ending {day}"
        )
    if reason == MISSING_SNAPSHOT:
        raise MissingDataError(
            f"validator {validator.id} lacks a balance snapshot at 00:00 UTC on "
            f"{day - timedelta(days=1)} or {day}"
        )
    return StakingReturn(date=day, annualized_return=float(rate))


def slash_cost(network_fraction_pct: float) -> float:
    """Loss percentage for a joint failure of network_fraction_pct of validators.

    3x the failing percentage, capped at total loss.
    """
    if not 0.0 <= network_fraction_pct <= 100.0:
        raise DomainError(f"network fraction must be in [0, 100], got {network_fraction_pct}")
    return min(3.0 * network_fraction_pct, 100.0)


def daily_bands(validators, days, percentiles):
    """(eligible validators per day, bands): each day's percentile levels across its eligible cohort.

    `validators` is a Cohort or ValidatorRecords. `bands` holds one row per
    day in `days` and one column per level, NaN on a day without a cohort.
    A percentile level outside [0, 100] is a DomainError, whether or not any
    day has a cohort. Each level is numpy's `linear` percentile of the day's
    eligible rates, with the bits of calling `np.percentile` on them.
    """
    bad = [p for p in percentiles if not 0.0 <= p <= 100.0]
    if bad:
        raise DomainError(f"percentile level must be in [0, 100], got {bad[0]}")
    reasons, rates = _windows(_as_cohort(validators), [midnight_utc(d) for d in days])
    sizes = np.count_nonzero(reasons == ELIGIBLE, axis=0)
    bands = np.full((len(days), len(percentiles)), np.nan)
    cols = np.flatnonzero(sizes)
    if not cols.size:
        return sizes, bands
    # Ineligible rates are NaN and eligible ones never are (both balances are
    # at least the minimum), so after one sort, which puts NaN last, each
    # day's first sizes[j] rows are its eligible rates in order.
    rates.sort(axis=0)
    n = sizes[cols]
    # np.percentile's `linear` method, every day at once: the same virtual
    # index, neighbours (its out-of-range index picks the same last value)
    # and the two-sided lerp of numpy's _lerp.
    virtual = (n - 1) * np.true_divide(percentiles, 100)[:, None]
    lo = np.floor(virtual).astype(np.intp)
    gamma = virtual - lo
    below = rates[lo, cols]
    above = rates[np.minimum(lo + 1, n - 1), cols]
    step = above - below
    values = below + step * gamma
    np.subtract(above, step * (1 - gamma), out=values, where=gamma >= 0.5)
    bands[cols] = values.T
    return sizes, bands


def percentile_bands(validators, day: date, percentiles) -> dict:
    """Per-percentile annualized return across the eligible cohort for a day.

    Ineligible validators and ones with missing snapshots are skipped; an
    empty cohort is an error.
    """
    (size,), (bands,) = daily_bands(validators, [day], percentiles)
    if not size:
        raise EmptyCohortError(f"no eligible validators on {day}")
    return dict(zip(percentiles, bands.tolist()))


def available_days(validators) -> list:
    """Days with at least one consecutive-midnight snapshot pair; `validators` as for `daily_bands`."""
    snapshots = _as_cohort(validators).snapshots
    v, t = snapshots["validator"], snapshots["timestamp"]
    keys, prev = _pairs(v, t), _pairs(v, t - SECONDS_PER_DAY)
    # Each pair a day back sorts at or before its own row: in range.
    ends = t[keys[np.searchsorted(keys, prev)] == prev]
    # Dates of the distinct pair ends only; fromtimestamp rounds to the microsecond.
    days = {datetime.fromtimestamp(ts, tz=timezone.utc).date() for ts in np.unique(ends).tolist()}
    return sorted(days)


VALIDATOR_CSV = {"validator_id": core.TEXT, "timestamp": core.TIMESTAMP, "balance": core.NUMBER, "state": core.TEXT}


def load_validators(path) -> Cohort:
    """Read `validator_id,timestamp,balance,state` daily-snapshot CSV as a Cohort.

    Validators are in order of first appearance, and each one's snapshots
    sort by time, ties in file order. Consecutive snapshots with the same
    state merge into one state interval. The first validator with a
    negative balance or a repeated time is named.
    """
    columns = core.read_csv_rows(path, VALIDATOR_CSV)
    ids, states = core.Coded.of(columns["validator_id"]), core.Coded.of(columns["state"])
    order = np.lexsort((columns["timestamp"], ids.codes))
    vid, state = ids.codes[order], states.codes[order]
    t, b = columns["timestamp"][order], columns["balance"][order]
    broken = _refused_snapshot(vid, t, b)
    if broken:
        raise InputError(f"{path}: validator {ids.texts[broken[0]]}: {broken[1]}")
    # Row where each state run starts (a validator's first row starts one), then the end.
    runs = np.append(np.flatnonzero((np.diff(vid, prepend=-1) != 0) | (np.diff(state, prepend=-1) != 0)), len(t))
    starts = runs[:-1]
    return Cohort(
        ids.texts,
        core.Columns({"validator": vid, "timestamp": t, "balance": b}),
        core.Columns({"validator": vid[starts], "start": t[starts], "end": t[runs[1:] - 1],
                      "state": core.Coded(states.texts, state[starts])}),
    )
