import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cryptoyield.amm import (
    Pool,
    absolute_impermanent_pnl,
    create_pool,
    genesis_position,
    impermanent_loss_relative,
    lp_longrun_yield,
)
from cryptoyield.errors import DomainError, LifecycleError, RatioError
from cryptoyield.scenarios import run_pool_scenario
from tests.amm_fuzz import run_fuzz
from tests.oracles import rows as table_rows

# Worked swap on (1000, 1000) at 0.3% fee, dx = 100: exact value is
# 1000 - 10^6/1099.7 = 997000/10997, frozen from Fraction arithmetic.
WORKED_SWAP_OUT = 90.66108938801491

# 2 sqrt(2)/3 - 1 evaluated with mpmath and frozen.
IL_AT_RATIO_2 = -0.05719095841793663


class TestCreatePool:
    def test_sqrt_minting(self):
        assert create_pool(1000.0, 1000.0, 0.003).total_shares == 1000.0

    def test_sqrt_rule_asymmetric(self):
        assert create_pool(4.0, 1.0, 0.0).total_shares == 2.0

    def test_rejects_empty_reserve(self):
        with pytest.raises(DomainError):
            create_pool(0.0, 1.0, 0.003)

    def test_rejects_bad_fee(self):
        with pytest.raises(DomainError):
            create_pool(1.0, 1.0, 1.0)

    def test_exact_mode_keeps_fractions(self):
        pool = create_pool(Fraction(1000), Fraction(1000), Fraction(3, 1000))
        assert isinstance(pool.total_shares, (Fraction, int))
        assert pool.total_shares == 1000

    @pytest.mark.parametrize("reserve, minted", [(1e-200, "0.0"), (1e-300, "0.0"), (1e300, "inf")])
    def test_rejects_supply_outside_float_range(self, reserve, minted):
        # The reserve product underflows to 0.0 or overflows to inf, and so does its square root.
        message = f"initial reserves {reserve} and {reserve} mint {minted} shares"
        with pytest.raises(DomainError, match=re.escape(message)):
            create_pool(reserve, reserve, 0.003)


class TestLiquidity:
    def test_pro_rata_minting(self):
        pool = create_pool(1000.0, 1000.0, 0.003)
        position = pool.add_liquidity(100.0, 100.0)
        assert_allclose(position.shares, 100.0, rtol=1e-12)
        assert_allclose(pool.total_shares, 1100.0, rtol=1e-12)

    def test_spot_price_unchanged_by_deposit(self):
        pool = create_pool(Fraction(3000), Fraction(1000), Fraction(0))
        before = pool.spot_price()
        pool.add_liquidity(Fraction(300), Fraction(100))
        assert pool.spot_price() == before

    def test_zero_deposit_is_noop(self):
        pool = create_pool(1000.0, 1000.0, 0.003)
        position = pool.add_liquidity(0.0, 0.0)
        assert position.shares == 0.0
        assert (pool.reserve_x, pool.reserve_y) == (1000.0, 1000.0)

    def test_off_ratio_rejected(self):
        pool = create_pool(1000.0, 2000.0, 0.003)
        with pytest.raises(RatioError):
            pool.add_liquidity(100.0, 100.0)

    def test_remove_all_kills_pool(self):
        pool = create_pool(1000.0, 1000.0, 0.0)
        dx, dy = pool.remove_liquidity(pool.total_shares)
        assert (dx, dy) == (1000.0, 1000.0)
        assert not pool.live
        with pytest.raises(LifecycleError):
            pool.swap_x_for_y(1.0)

    def test_remove_ten_percent(self):
        pool = Pool(1100.0, 1100.0, 0.003, total_shares=1000.0)
        dx, dy = pool.remove_liquidity(100.0)
        assert_allclose([dx, dy], [110.0, 110.0], rtol=1e-12)

    def test_remove_zero(self):
        pool = create_pool(1000.0, 1000.0, 0.003)
        assert pool.remove_liquidity(0.0) == (0.0, 0.0)

    def test_remove_more_than_supply_rejected(self):
        pool = create_pool(1000.0, 1000.0, 0.003)
        with pytest.raises(DomainError):
            pool.remove_liquidity(pool.total_shares * 2)

    def test_add_remove_round_trip_exact(self):
        pool = create_pool(Fraction(987), Fraction(1234), Fraction(3, 1000))
        dx, dy = pool.reserve_x * Fraction(1, 7), pool.reserve_y * Fraction(1, 7)
        position = pool.add_liquidity(dx, dy)
        assert pool.remove_liquidity(position.shares) == (dx, dy)


class TestSwaps:
    def test_worked_example_with_fee(self):
        pool = create_pool(1000.0, 1000.0, 0.003)
        receipt = pool.swap_x_for_y(100.0)
        assert_allclose(receipt.amount_out, WORKED_SWAP_OUT, atol=1e-9)
        assert_allclose(receipt.fee_paid, 0.3, rtol=1e-12)

    def test_worked_example_exact(self):
        pool = create_pool(Fraction(1000), Fraction(1000), Fraction(3, 1000))
        receipt = pool.swap_x_for_y(Fraction(100))
        assert receipt.amount_out == Fraction(997000, 10997)

    def test_receipt_is_immutable(self):
        receipt = create_pool(1000.0, 1000.0, 0.003).swap_x_for_y(100.0)
        with pytest.raises(AttributeError):
            receipt.amount_out = 0.0

    def test_fee_free_swap_preserves_product_exactly(self):
        pool = create_pool(Fraction(1000), Fraction(1000), Fraction(0))
        receipt = pool.swap_x_for_y(Fraction(100))
        assert receipt.amount_out == Fraction(1000, 11)
        assert pool.product == Fraction(10**6)

    def test_fee_swap_grows_product(self):
        pool = create_pool(Fraction(1000), Fraction(1000), Fraction(3, 1000))
        pool.swap_x_for_y(Fraction(100))
        assert pool.product > 10**6

    def test_small_trade_executes_near_spot(self):
        # Exact arithmetic so the dx -> 0 limit is not masked by cancellation.
        pool = create_pool(Fraction(1000), Fraction(2000), Fraction(0))
        receipt = pool.swap_x_for_y(Fraction(1, 10**9))
        assert abs(receipt.execution_price - 2) < Fraction(1, 10**10)

    def test_symmetric_pool_symmetric_output(self):
        pool_a = create_pool(1000.0, 1000.0, 0.003)
        pool_b = create_pool(1000.0, 1000.0, 0.003)
        out_y = pool_a.swap_x_for_y(50.0).amount_out
        out_x = pool_b.swap_y_for_x(50.0).amount_out
        assert_allclose(out_y, out_x, rtol=1e-15)

    def test_round_trip_fee_free_is_exact(self):
        pool = create_pool(Fraction(1000), Fraction(1000), Fraction(0))
        dy = pool.swap_x_for_y(Fraction(100)).amount_out
        dx_back = pool.swap_y_for_x(dy).amount_out
        assert dx_back == Fraction(100)

    def test_round_trip_with_fee_loses(self):
        pool = create_pool(Fraction(1000), Fraction(1000), Fraction(3, 1000))
        dy = pool.swap_x_for_y(Fraction(100)).amount_out
        dx_back = pool.swap_y_for_x(dy).amount_out
        assert dx_back < 100

    def test_zero_amount_rejected(self):
        pool = create_pool(1000.0, 1000.0, 0.003)
        with pytest.raises(DomainError):
            pool.swap_x_for_y(0.0)
        with pytest.raises(DomainError):
            pool.swap_y_for_x(-1.0)

    @pytest.mark.parametrize("fee", [0.0, 0.0005, 0.003, 0.01])
    @pytest.mark.parametrize("size", [0.5, 50.0, 5000.0])
    def test_execution_price_between_spots(self, fee, size):
        pool = create_pool(1000.0, 1500.0, fee)
        receipt = pool.swap_x_for_y(size)
        lo, hi = sorted([receipt.spot_price_before, receipt.spot_price_after])
        assert lo <= receipt.execution_price <= hi
        pool2 = create_pool(1000.0, 1500.0, fee)
        receipt2 = pool2.swap_y_for_x(size)
        lo2, hi2 = sorted([receipt2.spot_price_before, receipt2.spot_price_after])
        assert lo2 <= receipt2.execution_price <= hi2

    def test_slippage_worsens_with_size(self):
        prices = []
        for size in (1.0, 10.0, 100.0, 1000.0):
            pool = create_pool(1000.0, 1000.0, 0.003)
            prices.append(pool.swap_x_for_y(size).execution_price)
        assert all(a > b for a, b in zip(prices, prices[1:]))

    def test_larger_pool_reduces_impact(self):
        small = create_pool(1000.0, 1000.0, 0.003).swap_x_for_y(100.0).amount_out
        large = create_pool(10_000.0, 10_000.0, 0.003).swap_x_for_y(100.0).amount_out
        assert large > small


class TestArbitrage:
    def test_at_spot_no_trade(self):
        pool = create_pool(1000.0, 1000.0, 0.003)
        assert pool.arbitrage_to_price(1.0) is None

    def test_fee_free_alignment_to_external_price(self):
        pool = create_pool(1000.0, 1000.0, 0.0)
        receipt = pool.arbitrage_to_price(4.0)
        assert receipt is not None
        assert_allclose([pool.reserve_x, pool.reserve_y], [500.0, 2000.0], rtol=1e-12)
        assert_allclose(pool.spot_price(), 4.0, rtol=1e-12)

    def test_fee_free_alignment_downwards(self):
        pool = create_pool(1000.0, 1000.0, 0.0)
        pool.arbitrage_to_price(0.25)
        assert_allclose([pool.reserve_x, pool.reserve_y], [2000.0, 500.0], rtol=1e-12)

    def test_inside_band_no_trade(self):
        pool = create_pool(1000.0, 1000.0, 0.003)
        assert pool.arbitrage_to_price(1.0029) is None
        assert pool.arbitrage_to_price(0.9971) is None

    @pytest.mark.parametrize("price", [1.2, 0.8, 3.7, 0.11])
    def test_post_trade_band_contains_external(self, price):
        pool = create_pool(1000.0, 1000.0, 0.003)
        receipt = pool.arbitrage_to_price(price)
        assert receipt is not None
        spot = pool.spot_price()
        band = (spot * (1 - 0.003) * (1 - 1e-9), spot / (1 - 0.003) * (1 + 1e-9))
        assert band[0] <= price <= band[1]

    def test_trade_direction_profits(self):
        # The aligning trade must be profitable at the external price.
        pool = create_pool(1000.0, 1000.0, 0.003)
        receipt = pool.arbitrage_to_price(1.5)
        assert receipt.direction == "y_for_x"
        assert receipt.amount_out * 1.5 > receipt.amount_in

    def test_gas_cost_blocks_marginal_arbitrage(self):
        cheap = create_pool(1000.0, 1000.0, 0.0)
        assert cheap.arbitrage_to_price(1.001) is not None
        costly = create_pool(1000.0, 1000.0, 0.0, gas_cost=10.0)
        assert costly.arbitrage_to_price(1.001) is None

    def test_bad_price_rejected(self):
        pool = create_pool(1000.0, 1000.0, 0.003)
        with pytest.raises(DomainError):
            pool.arbitrage_to_price(0.0)

    def test_exact_mode_pool_stays_rational(self):
        # The trade size is solved in floats but bookkeeping stays exact.
        pool = create_pool(Fraction(1000), Fraction(1000), Fraction(3, 1000))
        before = pool.product
        receipt = pool.arbitrage_to_price(2.0)
        assert receipt is not None
        assert isinstance(pool.reserve_x, Fraction)
        assert isinstance(pool.reserve_y, Fraction)
        assert pool.product > before


class TestImpermanentLoss:
    def test_no_move_no_loss(self):
        assert impermanent_loss_relative(1.0) == 0.0

    def test_doubling_ratio(self):
        assert_allclose(impermanent_loss_relative(2.0), IL_AT_RATIO_2, atol=1e-15)
        assert_allclose(impermanent_loss_relative(2.0), 2 * math.sqrt(2) / 3 - 1, atol=1e-15)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_symmetry_in_inverse_ratio(self, r):
        assert_allclose(
            impermanent_loss_relative(r), impermanent_loss_relative(1.0 / r), atol=1e-12
        )

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_never_positive(self, r):
        il = impermanent_loss_relative(r)
        assert il <= 0.0
        if abs(r - 1.0) > 1e-3:
            assert il < 0.0

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(DomainError):
            impermanent_loss_relative(0.0)

    @given(st.floats(min_value=0.05, max_value=20.0))
    def test_formula_matches_pool_repricing(self, r):
        # Independent oracle: rebalance a fee-free pool to the new rate via
        # arbitrage and compare the LP claim against holding.
        pool = create_pool(1.0, 1.0, 0.0)
        position = genesis_position(pool, 1.0, 1.0, entry_prices=(1.0, 1.0))
        if abs(r - 1.0) > 1e-12:
            pool.arbitrage_to_price(r)
        pnl = absolute_impermanent_pnl(position, pool, exit_prices=(r, 1.0))
        hold_value = 1.0 * r + 1.0
        assert_allclose(pnl / hold_value, impermanent_loss_relative(r), atol=1e-12)


class TestAbsolutePnl:
    def test_flat_pool_zero(self):
        pool = create_pool(1000.0, 1000.0, 0.003)
        position = genesis_position(pool, 1000.0, 1000.0, entry_prices=(1.0, 1.0))
        assert absolute_impermanent_pnl(position, pool, (1.0, 1.0)) == 0.0

    def test_price_move_equals_relative_il_times_hold(self):
        pool = create_pool(1000.0, 1000.0, 0.0)
        position = genesis_position(pool, 1000.0, 1000.0, entry_prices=(1.0, 1.0))
        pool.arbitrage_to_price(2.0)
        pnl = absolute_impermanent_pnl(position, pool, (2.0, 1.0))
        hold = 1000.0 * 2.0 + 1000.0
        assert_allclose(pnl, impermanent_loss_relative(2.0) * hold, rtol=1e-12)

    def test_two_way_volume_at_entry_price_is_fee_income(self):
        pool = create_pool(1000.0, 1000.0, 0.003)
        position = genesis_position(pool, 1000.0, 1000.0, entry_prices=(1.0, 1.0))
        for _ in range(25):
            dy = pool.swap_x_for_y(50.0).amount_out
            pool.swap_y_for_x(dy)
        pool.arbitrage_to_price(1.0)
        pnl = absolute_impermanent_pnl(position, pool, (1.0, 1.0))
        assert pnl > 0.0

    def test_dead_pool_rejected(self):
        pool = create_pool(1000.0, 1000.0, 0.0)
        position = genesis_position(pool, 1000.0, 1000.0)
        pool.remove_liquidity(pool.total_shares)
        with pytest.raises(LifecycleError):
            absolute_impermanent_pnl(position, pool, (1.0, 1.0))

    def test_replay_after_genesis_exit(self):
        # Once genesis exits, float rounding would leave alice's 381.89 shares an
        # ulp above the pool's supply; she holds the whole supply instead, so her
        # claim is the whole pool and her "all" withdraws it.
        scenario = {
            "pool": {"reserve_x": 1000.0, "reserve_y": 1000.0, "fee": 0.003},
            "events": [
                {"action": "add", "dx": 381.89, "dy": 381.89, "position": "alice"},
                {"action": "remove", "position": "genesis", "shares": "all"},
                {"action": "swap_x_for_y", "amount": 1.0},
                {"action": "remove", "position": "alice", "shares": "all"},
            ],
        }
        result = run_pool_scenario(scenario)
        rows, pool_rows = (
            [dict(zip(table.columns, row)) for row in table_rows(table)]
            for table in (result["position_rows"], result["pool_rows"])
        )
        alice = [r for r in rows if r["position"] == "alice"]
        assert [r["event"] for r in alice] == [1, 2, 3]
        assert alice[1]["shares"] == pool_rows[2]["total_shares"] and alice[1]["pnl"] == 0.0
        assert_allclose(alice[2]["pnl"], pool_rows[3]["reserve_x"] + pool_rows[3]["reserve_y"] - 2 * 381.89, rtol=1e-9)
        assert pool_rows[4]["total_shares"] == 0.0 and result["summary"]["open_positions"] == 0

    @pytest.mark.parametrize(
        "reserves, added, swaps",
        [
            # Float rounding leaves alice an ulp below the supply: her "all" used
            # to leave dust shares and reserves that no position held ...
            ((4237.6670724727355, 6936.771159900146), (210.86521883459164, 345.17194098126953),
             (26.632758279003372, 51.616197415492245)),
            # ... or a dust reserve of 0 beside dust shares, which divided by zero.
            ((1261.722901903465, 1642.1884005046647), (333.30199735547484, 433.80735429028044),
             (39.14517900076349, 70.02078114839313)),
        ],
    )
    def test_last_holder_all_withdraws_whole_pool(self, reserves, added, swaps):
        scenario = {
            "pool": {"reserve_x": reserves[0], "reserve_y": reserves[1], "fee": 0.003},
            "events": [
                {"action": "add", "dx": added[0], "dy": added[1], "position": "alice"},
                {"action": "swap_x_for_y", "amount": swaps[0]},
                {"action": "remove", "position": "genesis", "shares": "all"},
                {"action": "swap_y_for_x", "amount": swaps[1]},
                {"action": "remove", "position": "alice", "shares": "all"},
            ],
        }
        summary = run_pool_scenario(scenario)["summary"]
        assert summary["open_positions"] == 0
        assert summary["final_total_shares"] == summary["final_reserve_x"] == summary["final_reserve_y"] == 0.0


class TestLongRunYield:
    def test_no_risk_returns_fee_rate(self):
        for t in (0.1, 1.0, 100.0):
            assert lp_longrun_yield(0.07, 0.0, t) == 0.07

    def test_documented_point(self):
        assert_allclose(lp_longrun_yield(0.1, 0.8, 10_000.0), 0.092, rtol=1e-12)

    def test_limit_is_fee_rate(self):
        assert abs(lp_longrun_yield(0.1, 0.8, 1e6) - 0.1) < 1e-3

    @given(st.floats(min_value=0.01, max_value=1e5), st.floats(min_value=0.01, max_value=1e5))
    def test_monotone_in_horizon(self, t1, t2):
        lo, hi = sorted([t1, t2])
        if hi - lo < 1e-9:
            return
        assert lp_longrun_yield(0.1, 0.8, lo) <= lp_longrun_yield(0.1, 0.8, hi)

    def test_domain(self):
        with pytest.raises(DomainError):
            lp_longrun_yield(0.1, 0.8, 0.0)


class TestFuzzInvariants:
    def test_randomized_sequences_hold_invariants(self):
        totals = run_fuzz(sequences=300, ops_per_sequence=8, seed=7)
        assert totals["swap"] > 0 and totals["roundtrip"] > 0
