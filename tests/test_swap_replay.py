"""The swap replay against the exact replay it replaced.

`reference_run_swap_scenario` below is `scenarios.run_swap_scenario` as it
stood before the float prefilters: a schedule sorted on exact
`(to_fraction(time), priority, index)` keys, and an `OracleTick` built for
every tick, which an agreement without the float prefilter takes through the
full mark. The replay must give the same audit cells (by `repr`) and final
state, or raise the same exception type with the same message, on random
scenarios whose times and rates are floats, ints and text, and on the edge
cases below: ticks on the quiet band's float edges and one ulp either side,
ticks that share a time with accruals and replenishments, repeated tick
times, a tick at time 0, rates <= 0, and events out of order.
"""

import copy
import math
import random
import re
from fractions import Fraction

import pytest

from cryptoyield.core import Columns
from cryptoyield.errors import DomainError, StaleTickError
from cryptoyield.scenarios import _PRIORITY, SWAP_SCENARIO, _check, run_swap_scenario
from cryptoyield.xccy import ALPHA, BETA, Leg, OracleTick, SwapAgreement, to_fraction
from tests.oracles import rows as table_rows


# -- the exact replay, kept as the oracle ------------------------------------------


def reference_schedule(agreement, events):
    events = list(events)
    if agreement.maturity_time is not None:
        for i, leg in enumerate(agreement.legs):
            if leg.frequency_days is None:
                continue
            start = Fraction(0)
            while start < agreement.maturity_time:
                end = min(start + leg.frequency_days, agreement.maturity_time)
                events.append({"type": "accrue", "time": end, "start": start, "end": end, "leg": i})
                start = end
        events.append({"type": "mature", "time": agreement.maturity_time})
    keyed = sorted((to_fraction(e["time"]), _PRIORITY[e["type"]], i, e) for i, e in enumerate(events))
    return [(time, event) for time, _, _, event in keyed]


class ExactAgreement(SwapAgreement):
    """A SwapAgreement without the float prefilter: every tick takes the full mark."""

    def _quiet_band(self):
        band = super()._quiet_band()
        self._band_floats = (math.inf, -math.inf)  # no float lies strictly between these
        return band


def agreement_of(values, kind=SwapAgreement):
    spec = {name: value for name, value in values["agreement"].items() if value is not None}
    legs = [Leg(**{key: value for key, value in leg.items() if value is not None}) for leg in spec.pop("legs", ())]
    return kind(**spec, legs=legs)


def reference_run_swap_scenario(config) -> dict:
    values = _check(SWAP_SCENARIO, config, "swap")[0]
    agreement = agreement_of(values, ExactAgreement)
    fixings = values["fixings"]
    agreement.initiate(time=0)
    settlement = None
    skipped = 0
    accrued = {}
    for time, event in reference_schedule(agreement, values["events"]):
        if agreement.state != "active":
            skipped += 1
            continue
        etype = event["type"]
        if etype == "tick":
            result = agreement.check_and_terminate(OracleTick(time, event["rate"]))
            if result is not None:
                settlement = result
        elif etype == "replenish":
            agreement.replenish(event["party"], event["amount"], time=time)
        elif etype == "accrue":
            i = event["leg"]
            agreement.accrue_legs(event["start"], event["end"], fixings=fixings or None, only=i)
            accrued[i] = accrued.get(i, 0) + 1
        elif etype == "terminate":
            settlement = agreement.voluntary_terminate(event["party"], time)
        else:
            settlement = agreement.mature(time)

    entries = agreement.ledger.entries
    try:
        audit_rows = Columns({
            "seq": [e.seq for e in entries],
            "time": [float(e.time) for e in entries],
            "event": [e.event for e in entries],
            "token": [e.token for e in entries],
            "source": [e.source for e in entries],
            "destination": [e.destination for e in entries],
            "amount": [str(e.amount) for e in entries],
            "amount_float": [float(e.amount) for e in entries],
            "note": [e.note for e in entries],
        })
        final_state = {
            "state": agreement.state,
            "breaching_party": agreement.breaching_party,
            "balances": {
                f"{holder}_{token}": {
                    "exact": str(agreement.ledger.balance(holder, token)),
                    "value": float(agreement.ledger.balance(holder, token)),
                }
                for holder in ("A", "B", "contract")
                for token in (ALPHA, BETA)
            },
            "token_totals": {ALPHA: str(agreement.ledger.total(ALPHA)), BETA: str(agreement.ledger.total(BETA))},
            "skipped_events": skipped,
            "accrual_periods": accrued,
        }
        if settlement is not None:
            final_state["settlement"] = {
                "time": float(settlement.time),
                "kind": settlement.kind,
                "party": settlement.party,
                "rate": float(settlement.rate),
                "transfer_token": settlement.transfer_token,
                "transfer_amount": str(settlement.transfer_amount),
                "uncollateralized_loss": str(settlement.uncollateralized_loss),
                "fee_amount": str(settlement.fee_amount),
            }
    except OverflowError as exc:
        raise DomainError(f"swap report: {exc}") from exc
    return {"audit_rows": audit_rows, "final_state": final_state}


# -- comparison -------------------------------------------------------------------


def outcome(run, scenario):
    try:
        result = run(copy.deepcopy(scenario))
    except Exception as exc:
        return type(exc), str(exc)
    return [tuple(map(repr, row)) for row in table_rows(result["audit_rows"])], repr(result["final_state"])


def assert_same_outcome(scenario):
    got = outcome(run_swap_scenario, scenario)
    assert got == outcome(reference_run_swap_scenario, scenario)
    return got


def initial_band(scenario):
    """The quiet band (low, high) of the scenario's agreement before any event, or None."""
    agreement = agreement_of(_check(SWAP_SCENARIO, scenario, "swap")[0])
    return agreement.initiate(time=0)._quiet_band()


def ulps(value: float):
    """`value` and its float neighbours."""
    return [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]


def swap(events, maturity=None, legs=(), margin=5, threshold=0.2):
    agreement = {"notional_a": 100, "notional_b": 100, "x0": 1.0, "margin_a": margin, "margin_b": margin,
                 "threshold": threshold, "maturity_time": maturity, "legs": list(legs)}
    return {"agreement": agreement, "fixings": {"1": 0.03}, "events": events}


LEGS = [
    {"payer": "A", "token": "beta", "notional": 100, "rate_type": "fixed", "rate": 0.04, "frequency_days": 1},
    {"payer": "B", "token": "alpha", "notional": 100, "rate_type": "floating", "spread": 0.001,
     "frequency_days": "7/3"},
]


def tick(time, rate):
    return {"time": time, "type": "tick", "rate": rate}


# -- random scenarios ---------------------------------------------------------------


def as_given(rng, value: Fraction):
    """`value` as a scenario may give it: an int where integral, a float, or text."""
    forms = [float(value), str(value)] + ([int(value)] if value.denominator == 1 else [])
    return rng.choice(forms)


def random_scenario(rng):
    scenario = {
        "agreement": {
            "notional_a": rng.choice([100, 250.5, "1000/3"]), "notional_b": rng.choice([100, 80.25, "300/7"]),
            "x0": rng.choice([1.0, 0.7, "4/3", 2]),
            "margin_a": rng.choice([5, 12.5, "40/3"]), "margin_b": rng.choice([5, 9.75, "50/7"]),
            "threshold": rng.choice([0, 0.1, 0.25, "1/3"]),
            "termination_fee": rng.choice([0, 0.5]),
            "maturity_time": rng.choice([None, 6, 7.5, "20/3"]),
            "legs": rng.sample(LEGS, rng.randint(0, 2)),
        },
        "fixings": {"1": 0.03},
        "events": [],
    }
    band = initial_band(scenario)
    low, high = band if band else (Fraction(1, 2), Fraction(2))
    edges = [*ulps(float(low)), *ulps(float(high)), str(low), str(high)]
    events = scenario["events"]
    for _ in range(rng.randint(1, 20)):
        time = as_given(rng, Fraction(rng.randint(0 if rng.random() < 0.02 else 1, 80), rng.choice([3, 4, 10])))
        kind = rng.random()
        if kind < 0.75:
            roll = rng.random()
            if roll < 0.3:
                rate = rng.choice(edges)
            elif roll < 0.9:
                rate = as_given(rng, low + (high - low) * Fraction(rng.randint(0, 1000), 1000))
            elif roll < 0.97:
                rate = as_given(rng, high * Fraction(rng.randint(1001, 1500), 1000))
            else:
                rate = rng.choice([0, 0.0, -1.5, "0", "-1/3"])
            events.append(tick(time, rate))
        elif kind < 0.95:
            amount = as_given(rng, Fraction(rng.randint(1, 40), rng.choice([1, 4, 3])))
            events.append({"time": time, "type": "replenish", "party": rng.choice("AB"), "amount": amount})
        else:
            events.append({"time": time, "type": "terminate", "party": rng.choice("AB")})
    if rng.random() < 0.7:  # mostly in time order, as a feed delivers them
        events.sort(key=lambda e: to_fraction(e["time"]))
    return scenario


@pytest.mark.parametrize("block", range(4))
def test_random_scenarios(block):
    rng = random.Random(f"swap-replay-{block}")
    seen = {"active": 0, "matured": 0, "terminated_breach": 0, "terminated_voluntary": 0, "error": 0}
    for _ in range(150):
        got = assert_same_outcome(random_scenario(rng))
        seen[re.search(r"'state': '(\w+)'", got[1])[1] if isinstance(got[0], list) else "error"] += 1
    # The comparisons are only as strong as the paths they reach.
    assert min(seen.values()) >= 5, seen


# -- edge cases ---------------------------------------------------------------------


# With margins of 11/3 each, the floats nearest the band's edges read (by
# their repr) just outside it, so a tick at either float must breach.
EDGE_MARGIN = "11/3"


def edge_ticks(margin):
    """Ticks at t = 1..3, the second on the initial band's float edges, one ulp either side, or the exact edges as text."""
    low, high = initial_band(swap([], margin=margin))
    rates = [*ulps(float(low)), *ulps(float(high)), str(low), str(high)]
    ids = ["low-", "low", "low+", "high-", "high", "high+", "low-text", "high-text"]
    return [pytest.param(margin, [tick(1, 1.0), tick(2, rate), tick(3, 1.0)], id=f"{margin}-{name}")
            for rate, name in zip(rates, ids)]


@pytest.mark.parametrize("margin, events", edge_ticks(5) + edge_ticks(EDGE_MARGIN))
def test_ticks_on_the_band_edges(margin, events):
    assert_same_outcome(swap(events, margin=margin))


def test_float_edges_lie_outside_the_band():
    low, high = initial_band(swap([], margin=EDGE_MARGIN))
    assert to_fraction(float(low)) < low and to_fraction(float(high)) > high
    for rate in (float(low), float(high)):
        state = outcome(run_swap_scenario, swap([tick(1, rate)], margin=EDGE_MARGIN))[1]
        assert "'terminated_breach'" in state


ONE_THIRD = 1 / 3  # 0.3333333333333333: below 1/3, with the same float


@pytest.mark.parametrize("events", [
    # A tick just outside the band with a replenishment at a time of the same
    # float: exactly, the tick comes first and breaches.
    [tick(ONE_THIRD, 1.06), {"time": "1/3", "type": "replenish", "party": "B", "amount": 5}],
    [{"time": "1/3", "type": "replenish", "party": "B", "amount": 5}, tick(ONE_THIRD, 1.06)],
    # The same at the same exact time: the replenishment comes first.
    [tick("1/3", 1.06), {"time": "2/6", "type": "replenish", "party": "B", "amount": 5}],
    # Ticks on the accrual days of both legs, and a replenishment with them.
    [tick(t, 1.01) for t in (1, 2.0, "7/3", 3, "14/3", 5.0)]
    + [{"time": 2, "type": "replenish", "party": "A", "amount": 1}],
    [tick(0, 1.0)],
    [tick(0.0, 1.0), tick(1, 1.0)],
    [tick(1, 1.0), tick(1.0, 1.01)],
    [tick(1, 1.0), tick("1", 1.0)],
    [tick(ONE_THIRD, 1.0), tick("1/3", 1.0), tick("1/3", 1.0)],
    [tick(1, 0)], [tick(1, 0.0)], [tick(1, -1.0)], [tick(1, "0")], [tick(1, "-1/3")],
    [tick(1, 1.0), tick(2, -1.0)],
    [tick(3, 1.0), tick(1, 1.02), tick(2, 0.99), {"time": 2, "type": "terminate", "party": "A"}],
    [tick(2, 1.0), {"time": 1, "type": "terminate", "party": "B"}, tick(3, 1.5)],
], ids=["same-float-tick-first", "same-float-replenish-listed-first", "same-time-replenish-first",
        "accrual-days", "tick-at-zero", "float-tick-at-zero", "repeated-float-time", "repeated-text-time",
        "repeated-one-third", "rate-0", "rate-0.0", "rate-negative", "rate-text-0", "rate-text-negative",
        "rate-negative-later", "unsorted", "unsorted-terminate"])
def test_edge_scenarios(events):
    assert_same_outcome(swap(events, maturity=6, legs=LEGS))


def test_edge_scenarios_reach_their_paths():
    first = outcome(run_swap_scenario, swap([tick(ONE_THIRD, 1.06),
                                             {"time": "1/3", "type": "replenish", "party": "B", "amount": 5}]))
    assert "'terminated_breach'" in first[1]
    later = outcome(run_swap_scenario, swap([tick("1/3", 1.06), {"time": "2/6", "type": "replenish", "party": "B",
                                                                  "amount": 5}]))
    assert "'active'" in later[1]
    assert outcome(run_swap_scenario, swap([tick(0, 1.0)])) == (StaleTickError, "tick at 0 is not after 0")
    assert outcome(run_swap_scenario, swap([tick(1, "-1/3")])) == (DomainError, "oracle rate must be > 0, got -1/3")


def test_quiet_ticks_build_no_oracle_tick(monkeypatch):
    # Ticks strictly inside the band's float edges are decided on floats alone.
    built = []
    monkeypatch.setattr("cryptoyield.xccy.OracleTick", lambda *args: built.append(args) or OracleTick(*args))
    events = [tick(k / 50, 1.0 + (k % 7) / 1000) for k in range(1, 301)]
    result = run_swap_scenario(swap(events, maturity=6, legs=LEGS))
    assert result["final_state"]["state"] == "matured" and built == []
