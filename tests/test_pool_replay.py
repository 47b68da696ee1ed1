"""The columnar pool replay against the row-by-row replay it replaced.

`reference_run_pool_scenario` below is `scenarios.run_pool_scenario` as it
stood before the replay recorded columns: one pool-row dict per event and one
position-row dict per open holder, each with its own
`absolute_impermanent_pnl` call. The replay must give the same cells (by
`repr`) and summary, or raise the same exception type with the same message,
on the demo scenario, on mutated demo scenarios drawn by
`cli_fuzz.scenarios()`, in exact mode, and on the edge cases below, with the
default block of position rows and with blocks of a few rows. A long
scenario checks the replay's peak memory against the tables it returns.
"""

import copy
import math
import random
import tracemalloc
import warnings
from unittest import mock

import pytest
from hypothesis import assume, given, settings

from cryptoyield import scenarios
from cryptoyield.amm import LpPosition, absolute_impermanent_pnl, create_pool, genesis_position
from cryptoyield.errors import CryptoYieldError, DomainError, InputError
from cryptoyield.scenarios import POOL_SCENARIO, _check, run_pool_scenario
from cryptoyield.xccy import to_fraction
from tests import cli_fuzz
from tests.oracles import rows as table_rows

DEMO = cli_fuzz.BASES["amm"]


# -- the row-by-row replay, kept as the oracle -----------------------------------


def reference_run_pool_scenario(config) -> dict:
    values = _check(POOL_SCENARIO, config, "pool")[0]
    spec = values["pool"]
    conv = to_fraction if spec["exact"] else float
    pool_rows, position_rows = [], []

    def record(index, action):
        pool_rows.append(
            {
                "event": index,
                "action": action,
                "reserve_x": float(pool.reserve_x),
                "reserve_y": float(pool.reserve_y),
                "spot_price": float(pool.reserve_y / pool.reserve_x) if pool.live else 0.0,
                "total_shares": float(pool.total_shares),
                "product": float(pool.product),
                "cumulative_fees_x": float(pool.cumulative_fees_x),
                "cumulative_fees_y": float(pool.cumulative_fees_y),
                "price_x": float(price_x),
            }
        )
        for name in sorted(positions):
            position = positions[name]
            if pool.live:
                pnl = absolute_impermanent_pnl(position, pool, (price_x, 1))
            else:  # a withdrawn pool leaves no claim
                entry_x, entry_y = position.entry_reserves
                pnl = 0 * price_x - (entry_x * price_x + entry_y)
            position_rows.append(
                {"event": index, "position": name, "shares": float(position.shares), "pnl": float(pnl)}
            )

    try:
        pool = create_pool(
            conv(spec["reserve_x"]), conv(spec["reserve_y"]), conv(spec["fee"]), gas_cost=conv(spec["gas_cost"])
        )
        price_x = pool.reserve_y / pool.reserve_x
        positions = {"genesis": genesis_position(pool, pool.reserve_x, pool.reserve_y)}
        record(0, "create")
    except ArithmeticError as exc:
        raise DomainError(f"pool: {exc}") from exc
    for index, event in enumerate(values["events"], start=1):
        action = event["action"]
        try:
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
                for holder, kept in positions.items():
                    if kept.shares > pool.total_shares:
                        positions[holder] = LpPosition(pool.total_shares, kept.entry_reserves)
            elif action == "swap_x_for_y":
                pool.swap_x_for_y(conv(event["amount"]))
            elif action == "swap_y_for_x":
                pool.swap_y_for_x(conv(event["amount"]))
            else:
                price_x = conv(event["price"])
                pool.arbitrage_to_price(price_x)
            record(index, action)
        except CryptoYieldError as exc:
            raise type(exc)(f"event {index} ({action}): {exc}") from exc
        except ArithmeticError as exc:
            raise DomainError(f"event {index} ({action}): {exc}") from exc

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


# -- comparison -------------------------------------------------------------------


def reference_outcome(scenario):
    try:
        result = reference_run_pool_scenario(copy.deepcopy(scenario))
    except Exception as exc:
        return type(exc), str(exc)
    tables = {}
    for key in ("pool_rows", "position_rows"):
        rows = result[key]
        columns = tuple(rows[0]) if rows else ()
        tables[key] = columns, [tuple(repr(row[c]) for c in columns) for row in rows]
    return tables, repr(result["summary"])


def outcome(scenario):
    try:
        result = run_pool_scenario(copy.deepcopy(scenario))
    except Exception as exc:
        return type(exc), str(exc)
    tables = {}
    for key in ("pool_rows", "position_rows"):
        table = result[key]
        columns = tuple(table.columns) if len(table) else ()
        tables[key] = columns, [tuple(map(repr, row)) for row in table_rows(table)]
    return tables, repr(result["summary"])


def assert_same_outcome(scenario):
    assert outcome(scenario) == reference_outcome(scenario)


def pool(events, exact=False, reserves=(1000.0, 1000.0), fee=0.003):
    return {"pool": {"reserve_x": reserves[0], "reserve_y": reserves[1], "fee": fee, "exact": exact}, "events": events}


def test_demo_scenario():
    assert outcome(DEMO)[0]["position_rows"][1]  # rows, not an exception
    assert_same_outcome(DEMO)


def test_demo_scenario_exact():
    scenario = copy.deepcopy(DEMO)
    scenario["pool"]["exact"] = True
    assert_same_outcome(scenario)


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(cli_fuzz.scenarios())
def test_fuzzed_pool_scenarios(drawn):
    command, scenario = drawn
    assume(command == "amm")
    assert_same_outcome(scenario)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(cli_fuzz.scenarios())
def test_fuzzed_pool_scenarios_exact(drawn):
    command, scenario = drawn
    assume(command == "amm" and isinstance(scenario.get("pool"), dict))
    scenario["pool"]["exact"] = True
    assert_same_outcome(scenario)


GENESIS_EXIT = [
    {"action": "add", "dx": 381.89, "dy": 381.89, "position": "alice"},
    {"action": "remove", "position": "genesis", "shares": "all"},
    {"action": "swap_x_for_y", "amount": 1.0},
    {"action": "remove", "position": "alice", "shares": "all"},
]
DUST_EXIT = [
    {"action": "add", "dx": 333.30199735547484, "dy": 433.80735429028044, "position": "alice"},
    {"action": "swap_x_for_y", "amount": 39.14517900076349},
    {"action": "remove", "position": "genesis", "shares": "all"},
    {"action": "swap_y_for_x", "amount": 70.02078114839313},
    {"action": "remove", "position": "alice", "shares": "all"},
]


WITHDRAWN = [
    # Alice's 1e-14 shares vanish in the supply's rounding, so genesis's "all"
    # withdraws the whole pool and leaves her holding a claim on nothing.
    {"action": "add", "dx": 1e-14, "dy": 1e-14, "position": "alice"},
    {"action": "remove", "position": "genesis", "shares": "all"},
]

PNL_THEN_UNKNOWN = [
    {"action": "external_price", "price": 1e300},
    {"action": "remove", "position": "carol", "shares": 1.0},
]


EDGE_SCENARIOS = [
    pool(GENESIS_EXIT),
    pool(DUST_EXIT, reserves=(1261.722901903465, 1642.1884005046647)),
    pool(WITHDRAWN),
    pool([{"action": "remove", "position": "genesis", "shares": "all"}]),
    pool([{"action": "remove", "position": "genesis", "shares": "all"},
          {"action": "swap_x_for_y", "amount": 1.0}]),
    pool([{"action": "add", "dx": 0.0, "dy": 0.0, "position": "zero"},
          {"action": "remove", "position": "zero", "shares": 0.0}]),
    pool([{"action": "add", "dx": 10.0, "dy": 10.0, "position": "bob"},
          {"action": "remove", "position": "bob", "shares": 4.0},
          {"action": "remove", "position": "carol", "shares": 1.0}]),
    # The 1e308 swap: float reserves overflow to inf, exact ones pass float range.
    pool([{"action": "add", "dx": 10.0, "dy": 10.0, "position": "bob"},
          {"action": "swap_x_for_y", "amount": 1e308}]),
    pool([{"action": "swap_y_for_x", "amount": 1e308}, {"action": "swap_y_for_x", "amount": 1e308}]),
    # Exact reserves past float range at event 2, after a row that still fits.
    pool([{"action": "swap_x_for_y", "amount": 1e308}, {"action": "swap_x_for_y", "amount": 1e308}],
         reserves=(1e308, 1e-300)),
    pool([], reserves=(1e308, 1e308)),
    # The pool row fits, but the PnL of a claim valued at 1e300 is past float range (exact)
    # or the arbitrage leaves no x reserve (float).
    pool([{"action": "external_price", "price": 1e300}], reserves=(1e300, 1e-300)),
    # Event 1's PnL past float range (exact) comes before event 2's unknown position.
    pool(PNL_THEN_UNKNOWN, reserves=(1e300, 1e-300)),
    # Reserves of inf and nan, then a withdrawal: the withdrawn pool's rows must not read them.
    pool([{"action": "add", "dx": 1e-14, "dy": 1e-14, "position": "alice"},
          {"action": "swap_x_for_y", "amount": 1e308}, {"action": "swap_x_for_y", "amount": 1e308},
          {"action": "remove", "position": "genesis", "shares": "all"}]),
]
EDGE_IDS = ["genesis-exit", "dust-exit", "withdrawn-pool", "genesis-all", "swap-on-withdrawn", "zero-add",
            "unknown-position", "swap-1e308", "two-swaps-1e308", "reserve-past-range", "create-past-range",
            "pnl-past-range", "pnl-past-range-then-unknown", "withdrawn-after-overflow"]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("scenario", EDGE_SCENARIOS, ids=EDGE_IDS)
def test_edge_scenarios(scenario, exact):
    scenario = copy.deepcopy(scenario)
    scenario["pool"]["exact"] = exact
    assert_same_outcome(scenario)



# -- position rows across block edges -----------------------------------------------

# A block of one row, and one of three that ends inside an event's rows.
SMALL_BLOCKS = [1, 3]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("block_rows", SMALL_BLOCKS)
def test_demo_scenario_in_small_blocks(block_rows, exact):
    scenario = copy.deepcopy(DEMO)
    scenario["pool"]["exact"] = exact
    with mock.patch.object(scenarios, "_BLOCK_ROWS", block_rows):
        assert len(outcome(scenario)[0]["position_rows"][1]) > 3 * block_rows
        assert_same_outcome(scenario)


@pytest.mark.parametrize("block_rows", SMALL_BLOCKS)
@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(cli_fuzz.scenarios())
def test_fuzzed_pool_scenarios_in_small_blocks(block_rows, drawn):
    command, scenario = drawn
    assume(command == "amm")
    with mock.patch.object(scenarios, "_BLOCK_ROWS", block_rows):
        assert_same_outcome(scenario)


@pytest.mark.parametrize("block_rows", SMALL_BLOCKS)
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(cli_fuzz.scenarios())
def test_fuzzed_pool_scenarios_exact_in_small_blocks(block_rows, drawn):
    command, scenario = drawn
    assume(command == "amm" and isinstance(scenario.get("pool"), dict))
    scenario["pool"]["exact"] = True
    with mock.patch.object(scenarios, "_BLOCK_ROWS", block_rows):
        assert_same_outcome(scenario)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("scenario", EDGE_SCENARIOS, ids=EDGE_IDS)
@pytest.mark.parametrize("block_rows", SMALL_BLOCKS)
def test_edge_scenarios_in_small_blocks(block_rows, scenario, exact):
    scenario = copy.deepcopy(scenario)
    scenario["pool"]["exact"] = exact
    with mock.patch.object(scenarios, "_BLOCK_ROWS", block_rows):
        assert_same_outcome(scenario)


# -- peak memory ----------------------------------------------------------------------


def long_scenario(events=8000, holders=8, seed=7):
    """Swaps, arbitrages, adds and whole removes by `holders` LPs beside genesis."""
    rng = random.Random(seed)
    model = create_pool(1e6, 1e6, 0.003)  # the ratio each add must match
    held, drawn = {}, []
    for _ in range(events):
        u = rng.random()
        if u < 0.3:
            amount = model.reserve_x * rng.uniform(5e-4, 5e-3)
            drawn.append({"action": "swap_x_for_y", "amount": amount})
            model.swap_x_for_y(amount)
        elif u < 0.6:
            amount = model.reserve_y * rng.uniform(5e-4, 5e-3)
            drawn.append({"action": "swap_y_for_x", "amount": amount})
            model.swap_y_for_x(amount)
        elif u < 0.85:
            price = model.spot_price() * math.exp(rng.uniform(-0.02, 0.02))
            drawn.append({"action": "external_price", "price": price})
            model.arbitrage_to_price(price)
        elif u < 0.97 or not held:
            name = f"lp{rng.randrange(holders)}"
            dx = model.reserve_x * rng.uniform(1e-3, 1e-2)
            dy = dx * model.reserve_y / model.reserve_x
            drawn.append({"action": "add", "dx": dx, "dy": dy, "position": name})
            held[name] = held.get(name, 0.0) + model.add_liquidity(dx, dy).shares
        else:
            name = rng.choice(sorted(held))
            drawn.append({"action": "remove", "position": name, "shares": "all"})
            model.remove_liquidity(held.pop(name))
    return pool(drawn, reserves=(1e6, 1e6))


def test_peak_memory_is_bounded_by_the_returned_tables():
    # Beside its input the replay holds its output columns, the state rows and
    # one block of position rows: the peak above the input stays within 2.5x
    # what the returned tables retain. Lists of per-event state tuples and
    # full-length PnL temporaries read 4.4-4.7x.
    scenario = long_scenario()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run_pool_scenario(scenario)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result["position_rows"]) > 2 * scenarios._BLOCK_ROWS
    assert result["summary"]["open_positions"] > 3
    assert peak - before <= 2.5 * (retained - before)

def test_edge_scenarios_reach_their_paths():
    # The comparisons are only as strong as the paths they reach.
    past_range = pool([{"action": "swap_x_for_y", "amount": 1e308}] * 2, exact=True, reserves=(1e308, 1e-300))
    assert outcome(past_range) == (DomainError, "event 1 (swap_x_for_y): integer division result too large for a float")
    pnl_first = pool(PNL_THEN_UNKNOWN, exact=True, reserves=(1e300, 1e-300))
    message = "event 1 (external_price): integer division result too large for a float"
    assert outcome(pnl_first) == (DomainError, message)
    created = pool([], exact=True, reserves=(1e308, 1e308))
    assert outcome(created) == (DomainError, "pool: integer division result too large for a float")
    result = run_pool_scenario(pool(WITHDRAWN))  # exact shares keep alice's dust in the supply
    assert result["pool_rows"]["total_shares"][-1] == 0.0
    assert table_rows(result["position_rows"])[-1][:2] == (2, "alice")


def test_withdrawn_pool_pnl_is_positive_zero():
    # 0 * price - (0 * price + 0) is 0.0; a plain negation of the held value would write -0.0.
    scenario = pool([{"action": "add", "dx": 0.0, "dy": 0.0, "position": "a"},
                     {"action": "remove", "position": "genesis", "shares": "all"}])
    last = table_rows(run_pool_scenario(scenario)["position_rows"])[-1]
    assert last[:2] == (2, "a") and repr(last[3]) == "0.0"
    assert_same_outcome(scenario)


def test_shares_above_supply_is_domain_error(monkeypatch):
    # The replay keeps holders within the supply, so only an inflated holding reaches this check.
    def inflated(shares, entry_reserves, *rest):
        return LpPosition(shares * 1000 if entry_reserves == (10.0, 10.0) else shares, entry_reserves, *rest)

    monkeypatch.setattr(scenarios, "LpPosition", inflated)
    events = [{"action": "add", "dx": 10.0, "dy": 10.0, "position": "bob"}, {"action": "swap_x_for_y", "amount": 1.0}]
    assert outcome(pool(events)) == (DomainError, "event 1 (add): position shares exceed pool share supply")


def test_no_warning_reaches_stderr(capfd):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning from numpy would raise here
        run_pool_scenario(pool(WITHDRAWN))
        run_pool_scenario(pool([{"action": "swap_x_for_y", "amount": 1e308}] * 2))
    assert capfd.readouterr().err == ""
