"""Scenario replay for the pool and swap state machines.

Scenario files are JSON. Pool scenarios drive one CPMM through an ordered
event list; swap scenarios replay an agreement against oracle ticks and
party actions. Both runners are deterministic: the same config always
produces the same rows (acceptance requires byte-identical reruns).

The `Key` tables `POOL_SCENARIO` and `SWAP_SCENARIO` are the one description
of both files: the validators report what their check finds, by key path
(`events[3].amount`), and the runners replay only the values it returns.
A key that a table lacks is refused as `path: unknown key`.
Model ranges (fee, margins, threshold) are left to `amm` and `xccy`.

Pool scenario schema::

    {"pool": {"reserve_x": 1000, "reserve_y": 1000, "fee": 0.003,
              "gas_cost": 0.0, "exact": false},
     "events": [
        {"action": "add", "dx": 100, "dy": 100, "position": "alice"},
        {"action": "remove", "position": "alice", "shares": 50},   # or "all"
        {"action": "swap_x_for_y", "amount": 10},
        {"action": "swap_y_for_x", "amount": 10},
        {"action": "external_price", "price": 1.05}]}

`exact` is a JSON boolean: true replays in exact rationals, each row must
still fit a float, and each reserve's numerator and denominator must fit in
`MAX_EXACT_BITS` bits. An external_price event arbitrages the pool to the
quoted price and sets the numeraire price of token x for PnL rows (token y
is the numeraire, price 1). A remove of "all" by the last open position
withdraws the whole share supply, so float rounding leaves no shares that
nobody holds. A failing event, or a failing position row (shares above a
live pool's supply, an exact value past float range), raises at its own
event as `event N (action): ...`. The replay records each event's pool
state as one row of an array sized for every event up front, and fills the
position rows' shares and PnL in blocks of a few thousand rows, so its
memory is its input, its output columns and one block. Swap scenario schema::

    {"agreement": {"notional_a": 100, "notional_b": 100, "x0": 1.0,
                   "margin_a": 5, "margin_b": 5, "threshold": 0.2,
                   "termination_fee": 0, "maturity_time": 365,
                   "threshold_base": "initial_margin",
                   "min_margin_fraction": null,
                   "legs": [{"payer": "A", "token": "beta", "notional": 100,
                             "rate_type": "fixed", "rate": 0.04,
                             "spread": 0.0, "frequency_days": 73}]},
     "fixings": {"0": 0.03},
     "events": [{"time": 10, "type": "tick", "rate": 1.02},
                {"time": 20, "type": "replenish", "party": "B", "amount": 2},
                {"time": 30, "type": "terminate", "party": "A"}]}

Leg accruals are generated from frequency_days up to maturity; maturity
fires automatically when maturity_time is set. Events replay in order of
their exact time (text such as "1/3" is exact, a float is the decimal of its
repr), whatever their order in the file. Same-time events apply as
replenish, then accruals, then the tick (so a same-step top-up prevents
termination), then terminations, then maturity; events of one kind at one
time keep their order in the file. `_schedule` sorts on float times and
sorts again, on exact times, only the runs of events whose float times tie.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

import numpy as np

from .amm import SHARES_EXCEED_SUPPLY, LpPosition, claim_pnl, create_pool, genesis_position
from .core import Coded, Columns, Key, _boolean, _check_keys, _one_of, _rational, _text
from .errors import CryptoYieldError, DomainError, InputError
from .xccy import ALPHA, BETA, PARTIES, Leg, SwapAgreement, to_fraction

# Refused at validation: legs whose schedules to maturity would together hold
# more accrual periods than this (replay costs ~40 us a period).
MAX_ACCRUAL_PERIODS = 100_000

# An exact pool replay fails at the event whose reserves need more bits than
# this in a numerator or denominator. A swap sets y' = x*y / (x + dx), so the
# bit lengths grow like a Fibonacci sequence and each event costs more than
# the last: float amounts reach the budget within ~20 events (hundredths of a
# second), where five more events would take seconds.
MAX_EXACT_BITS = 16_384

_PRIORITY = {"replenish": 0, "accrue": 1, "tick": 2, "terminate": 3, "mature": 4}


def _shares(value):
    return value if value == "all" else _rational(value)


def _fixings(value):
    """Floating-leg index -> fixing rate."""
    if not isinstance(value, dict):
        raise ValueError(f"expected an object, got {value!r}")
    return {int(index): _rational(rate) for index, rate in value.items()}


def _required(*names, kind=_rational):
    return tuple(Key(name, kind, required=True) for name in names)


POOL_SCENARIO = (
    Key("pool", required=True, keys=(
        *_required("reserve_x", "reserve_y", "fee"),
        Key("gas_cost", _rational, 0),
        Key("exact", _boolean, False),
    )),
    Key("events", required=True, tag="action", items={
        "add": (*_required("dx", "dy"), *_required("position", kind=_text)),
        "remove": (*_required("position", kind=_text), *_required("shares", kind=_shares)),
        "swap_x_for_y": _required("amount"),
        "swap_y_for_x": _required("amount"),
        "external_price": _required("price"),
    }),
)

# Optional agreement and leg keys default to None, which leaves them to
# SwapAgreement's and Leg's own defaults; rate_type reads Leg's, since it
# decides whether a leg needs a rate.
SWAP_SCENARIO = (
    Key("agreement", required=True, keys=(
        *_required("notional_a", "notional_b", "margin_a", "margin_b", "threshold"),
        *(Key(name, _rational) for name in ("x0", "termination_fee", "maturity_time", "min_margin_fraction")),
        Key("threshold_base", _one_of("initial_margin", "notional")),
        Key("legs", items=(
            *_required("payer", kind=_one_of(*PARTIES)),
            *_required("token", kind=_one_of(ALPHA, BETA)),
            *_required("notional"),
            Key("rate_type", _one_of("fixed", "floating"), Leg.rate_type),
            Key("rate", _rational, required=("rate_type", "fixed")),
            *(Key(name, _rational) for name in ("spread", "frequency_days")),
        )),
    )),
    Key("fixings", _fixings),
    Key("events", required=True, tag="type", items={
        "tick": _required("time", "rate"),
        "replenish": (*_required("time"), *_required("party", kind=_one_of(*PARTIES)), *_required("amount")),
        "terminate": (*_required("time"), *_required("party", kind=_one_of(*PARTIES))),
    }),
)


def _check(keys, config, name=None) -> tuple:
    """(checked values, problems naming each key path) of a scenario.

    A swap scenario's legs together may schedule at most MAX_ACCRUAL_PERIODS
    accruals. With `name`, problems raise one InputError instead.
    """
    problems = []
    values = _check_keys(keys, config, "", problems) if isinstance(config, dict) else {}
    if not isinstance(config, dict):
        problems.append("scenario must be a JSON object")
    agreement = values.get("agreement") or {}  # only swap scenarios have one
    maturity, periods = agreement.get("maturity_time"), 0
    for i, leg in enumerate(agreement.get("legs") or ()):
        frequency = leg and leg["frequency_days"]
        if maturity is None or frequency is None or frequency <= 0:
            continue  # no schedule, or one that Leg refuses
        periods += math.ceil(to_fraction(maturity) / to_fraction(frequency))
        if periods > MAX_ACCRUAL_PERIODS:
            problems.append(
                f"agreement.legs[{i}].frequency_days: legs[0..{i}] schedule {periods} accrual "
                f"periods to maturity, more than the limit of {MAX_ACCRUAL_PERIODS}"
            )
            break
    if name and problems:
        raise InputError(f"invalid {name} scenario: " + "; ".join(problems))
    return values, problems


# ---------------------------------------------------------------------------
# pool scenarios
# ---------------------------------------------------------------------------


def validate_pool_scenario(config) -> list:
    """Schema problems of a pool scenario, each naming its key path; empty means valid."""
    return _check(POOL_SCENARIO, config)[1]


# The pool state each event records, in the column order of the pool rows.
_POOL_STATE = (
    "reserve_x", "reserve_y", "spot_price", "total_shares", "product",
    "cumulative_fees_x", "cumulative_fees_y", "price_x",
)


def run_pool_scenario(config) -> dict:
    """Replay a pool scenario; returns pool rows, position PnL rows and summary.

    `pool_rows` and `position_rows` are `core.Columns`: one pool row per
    event (the create step is event 0), and one position row per open
    position after each event, in name order; the position names are a
    `core.Coded` column.
    """
    values = _check(POOL_SCENARIO, config, "pool")[0]
    spec = values["pool"]
    exact = spec["exact"]
    conv = to_fraction if exact else float
    # Row n of `states` is the pool state after event n (exact values in
    # exact mode), row n of `recorded` its (live, index into holders).
    # Holders change only at create, add and remove, so only those take a
    # sorted snapshot of the open positions.
    states = np.empty((len(values["events"]) + 1, len(_POOL_STATE)), object if exact else float)
    recorded = np.empty((len(states), 2), int)
    actions, holders = [], []
    dead_claim = tuple(map(conv, (0, 0, 1, 0)))  # a withdrawn pool leaves a claim of nothing

    def record(action):
        live = pool.live
        state = (
            pool.reserve_x, pool.reserve_y, pool.reserve_y / pool.reserve_x if live else 0.0, pool.total_shares,
            pool.product, pool.cumulative_fees_x, pool.cumulative_fees_y, price_x,
        )
        if exact:
            reserves = (pool.reserve_x, pool.reserve_y)
            bits = max(max(r.numerator.bit_length(), r.denominator.bit_length()) for r in reserves)
            if bits > MAX_EXACT_BITS:
                raise DomainError(f"exact reserves need {bits} bits, past the {MAX_EXACT_BITS}-bit budget")
            tuple(map(float, state))  # a value past float range fails at its own event
        moved = action in ("create", "add", "remove")  # the only events that move shares, supply or liveness
        if moved:
            holders.append(sorted(positions.items()))
        for _, held in holders[-1] if moved or exact else ():  # exact PnL moves with every event
            if live and held.shares > pool.total_shares:
                raise DomainError(SHARES_EXCEED_SUPPLY)
            if exact:  # shares and PnL past float range fail at their own event
                claim = (pool.reserve_x, pool.reserve_y, pool.total_shares, held.shares) if live else dead_claim
                float(held.shares), float(claim_pnl(*claim, *held.entry_reserves, price_x, 1))
        row = len(actions)
        states[row] = state
        recorded[row] = live, len(holders) - 1
        actions.append(action)

    try:
        pool = create_pool(
            conv(spec["reserve_x"]), conv(spec["reserve_y"]), conv(spec["fee"]), gas_cost=conv(spec["gas_cost"])
        )
        price_x = pool.reserve_y / pool.reserve_x  # numeraire = token y
        positions = {"genesis": genesis_position(pool, pool.reserve_x, pool.reserve_y)}
        record("create")
    except ArithmeticError as exc:  # exact reserves past float range
        raise DomainError(f"pool: {exc}") from exc
    try:
        for index, event in enumerate(values["events"], start=1):
            action = event["action"]
            if action == "add":
                added = pool.add_liquidity(conv(event["dx"]), conv(event["dy"]))
                held = positions.get(event["position"], LpPosition(0, (0, 0)))
                positions[event["position"]] = LpPosition(
                    held.shares + added.shares,
                    tuple(h + a for h, a in zip(held.entry_reserves, added.entry_reserves)),
                )
            elif action == "remove":
                name = event["position"]
                if name not in positions:
                    raise InputError(f"unknown position {name!r}")
                held = positions[name]
                if event["shares"] == "all":
                    # The last holder's "all" also takes the rounding dust that
                    # float shares leave between its holding and the supply.
                    pool.remove_liquidity(pool.total_shares if len(positions) == 1 else held.shares)
                    del positions[name]
                else:
                    shares = conv(event["shares"])
                    if shares > held.shares:
                        raise InputError(f"position {name!r} holds only {held.shares} shares")
                    taken_fraction = shares / held.shares if held.shares else 0
                    pool.remove_liquidity(shares)
                    positions[name] = LpPosition(
                        held.shares - shares, tuple(e - e * taken_fraction for e in held.entry_reserves)
                    )
                    if positions[name].shares == 0:
                        del positions[name]
                # Float rounding can leave a holder an ulp above the supply once others exit.
                for holder, kept in positions.items():
                    if kept.shares > pool.total_shares:
                        positions[holder] = LpPosition(pool.total_shares, kept.entry_reserves)
            elif action == "swap_x_for_y":
                pool.swap_x_for_y(conv(event["amount"]))
            elif action == "swap_y_for_x":
                pool.swap_y_for_x(conv(event["amount"]))
            else:  # external_price
                price_x = conv(event["price"])
                pool.arbitrage_to_price(price_x)
            record(action)
    except CryptoYieldError as exc:
        raise type(exc)(f"event {index} ({action}): {exc}") from exc
    except ArithmeticError as exc:  # float reserves driven to zero, exact ones past float range
        raise DomainError(f"event {index} ({action}): {exc}") from exc
    pool_rows, position_rows = _pool_tables(actions, states, recorded, holders, conv)

    summary = {
        "events": len(values["events"]),
        "final_reserve_x": float(pool.reserve_x),
        "final_reserve_y": float(pool.reserve_y),
        "final_total_shares": float(pool.total_shares),
        "final_spot_price": float(pool.reserve_y / pool.reserve_x) if pool.live else 0.0,
        "cumulative_fees_x": float(pool.cumulative_fees_x),
        "cumulative_fees_y": float(pool.cumulative_fees_y),
        "open_positions": len(positions),
    }
    return {"pool_rows": pool_rows, "position_rows": position_rows, "summary": summary}


# Position rows per block of `_pool_tables`: its gathers and `claim_pnl`
# temporaries hold this many rows whatever the scenario's length (~0.5 MB in
# float mode), and a block's ~25 numpy calls stay a small share of its time.
_BLOCK_ROWS = 1 << 12


def _pool_tables(actions, states, recorded, holders, conv):
    """Pool and position columns of the recorded events.

    `states` holds one row of pool state per event, in float mode the pool
    columns themselves; `recorded` holds each event's (live, holder
    snapshot). An event's position rows are its holder snapshot, laid out
    by indexing. Their shares and PnL fill preallocated float columns in
    blocks of `_BLOCK_ROWS` rows, each block gathering its own reserves,
    entries and liveness for one array evaluation of `claim_pnl`, so the
    peak is the output columns and one block.
    """
    floats = states if conv is float else states.astype(float)  # exact values were checked as recorded
    pool_rows = Columns({"event": np.arange(len(states)), "action": actions, **dict(zip(_POOL_STATE, floats.T))})

    live, snapshot = recorded.T
    sizes = np.array([len(h) for h in holders])
    counts = sizes[snapshot]
    event = np.repeat(np.arange(len(states)), counts)
    first = (np.cumsum(sizes) - sizes)[snapshot] - (np.cumsum(counts) - counts)  # snapshot start less row start
    flat = [holder for snapshot_holders in holders for holder in snapshot_holders]
    flat_names = Coded.of([name for name, _ in flat])
    held = np.fromiter(chain.from_iterable((p.shares, *p.entry_reserves) for _, p in flat), states.dtype, 3 * len(flat))
    held = held.reshape(len(flat), 3)
    state = [states[:, _POOL_STATE.index(c)] for c in ("reserve_x", "reserve_y", "total_shares", "price_x")]
    names, shares, pnl = np.empty(len(event), np.intp), np.empty(len(event)), np.empty(len(event))
    with np.errstate(all="ignore"):  # inf and nan stay in the cells, for the writer to refuse
        for start in range(0, len(event), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            rows = event[block]
            take = np.arange(start, start + len(rows)) + first[rows]
            names[block] = flat_names.codes[take]
            held_shares, entry_x, entry_y = (held[take, i] for i in range(3))
            reserve_x, reserve_y, total_shares, price_x = (column[rows] for column in state)
            # A withdrawn pool leaves no claim, so its rows value a claim of nothing.
            dead = live[rows] == 0
            reserve_x[dead], reserve_y[dead], total_shares[dead] = conv(0), conv(0), conv(1)
            claimed = np.where(dead, conv(0), held_shares)
            pnl[block] = claim_pnl(reserve_x, reserve_y, total_shares, claimed, entry_x, entry_y, price_x, 1)
            shares[block] = held_shares
    position_rows = Columns({"event": event, "position": Coded(flat_names.texts, names), "shares": shares, "pnl": pnl})
    return pool_rows, position_rows


# ---------------------------------------------------------------------------
# swap scenarios
# ---------------------------------------------------------------------------


def validate_swap_scenario(config) -> list:
    """Schema problems of a swap scenario, each naming its key path; empty means valid."""
    return _check(SWAP_SCENARIO, config)[1]


def _schedule(agreement: SwapAgreement, events) -> list:
    """The checked scenario events merged with generated accruals and
    maturity, in replay order: by exact time, then `_PRIORITY`, then position.

    The events sort on float times first. A checked time converts to the
    nearest float, and that rounding is monotone (x < y gives float(x) <=
    float(y)), so events whose float times differ are already in exact
    order; only each run of equal float times sorts again on exact times.
    """
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
    times = np.fromiter((float(e["time"]) for e in events), float, len(events))
    order = np.lexsort((np.fromiter((_PRIORITY[e["type"]] for e in events), int, len(events)), times))
    times = times[order]
    order = order.tolist()
    # Each maximal run of equal float times: its first and last position.
    edges = np.flatnonzero(np.diff(np.concatenate(([0], times[1:] == times[:-1], [0])))).tolist()
    for first, last in zip(edges[::2], edges[1::2]):
        order[first:last + 1] = sorted(
            order[first:last + 1], key=lambda i: (to_fraction(events[i]["time"]), _PRIORITY[events[i]["type"]], i)
        )
    return [events[i] for i in order]


def run_swap_scenario(config) -> dict:
    """Replay a swap scenario; returns the audit trail and the final state.

    `audit_rows` is a `core.Columns` with one row per ledger entry.
    """
    values = _check(SWAP_SCENARIO, config, "swap")[0]
    spec = {name: value for name, value in values["agreement"].items() if value is not None}
    legs = [Leg(**{key: value for key, value in leg.items() if value is not None}) for leg in spec.pop("legs", ())]
    agreement = SwapAgreement(**spec, legs=legs)
    fixings = values["fixings"]
    agreement.initiate(time=0)

    settlement = None
    skipped = 0
    accrued = {}  # leg index -> periods already paid (merged multi-leg accrual)
    for event in _schedule(agreement, values["events"]):
        if agreement.state != "active":
            skipped += 1
            continue
        etype, time = event["type"], event["time"]
        if etype == "tick":
            result = agreement.check_and_terminate((time, event["rate"]))
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
        else:  # mature
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
            "token_totals": {
                ALPHA: str(agreement.ledger.total(ALPHA)),
                BETA: str(agreement.ledger.total(BETA)),
            },
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
    except OverflowError as exc:  # an exact amount past float range
        raise DomainError(f"swap report: {exc}") from exc
    return {"audit_rows": audit_rows, "final_state": final_state}


