import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cryptoyield.errors import (
    DomainError,
    LifecycleError,
    MissingFixingError,
    StaleTickError,
)
from cryptoyield.scenarios import run_swap_scenario, validate_swap_scenario
from cryptoyield.xccy import (
    ALPHA,
    BETA,
    Leg,
    LeverageBound,
    OracleTick,
    SwapAgreement,
    buffer_size,
    max_leverage,
    to_fraction,
)
from tests.xccy_fuzz import run_fuzz

# 0.8 * sqrt(1/12) evaluated with mpmath and frozen.
BUFFER_ONE_MONTH = 0.23094010767585033


def symmetric_agreement(threshold=0.5, fee=0, legs=(), maturity=None, min_margin=None):
    return SwapAgreement(
        notional_a=100,
        notional_b=100,
        margin_a=5,
        margin_b=5,
        threshold=threshold,
        x0=1,
        termination_fee=fee,
        maturity_time=maturity,
        legs=legs,
        min_margin_fraction=min_margin,
    )


def wealth(agreement, party, rate):
    ledger = agreement.ledger
    return ledger.balance(party, ALPHA) * Fraction(rate) + ledger.balance(party, BETA)


def totals(agreement):
    return agreement.ledger.total(ALPHA), agreement.ledger.total(BETA)


class TestToFraction:
    """to_fraction reads a float as Fraction(str(v)), the shortest decimal repr, also for numpy scalars."""

    EDGES = (
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
        0.1, 1 / 3, 1e-7, 1e16, 1e22, 1e23, 2.0**53 + 2, 123456789.123, np.float64(0.1),
    )

    @pytest.mark.parametrize("value", EDGES, ids=repr)
    def test_edge_floats_equal_str_route(self, value):
        got = to_fraction(value)
        assert type(got) is Fraction and got == Fraction(str(value))

    @settings(max_examples=1000, derandomize=True, database=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_floats_equal_str_route(self, value):
        assert to_fraction(value) == Fraction(str(value))

    @pytest.mark.parametrize("value, text", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
    def test_non_finite_raises_fractions_error(self, value, text):
        with pytest.raises(ValueError) as want:
            Fraction(str(value))
        with pytest.raises(ValueError, match=f"^Invalid literal for Fraction: '{text}'$") as got:
            to_fraction(value)
        assert str(got.value) == str(want.value)


class TestInitiate:
    def test_notional_and_margin_flows(self):
        agreement = symmetric_agreement().initiate()
        ledger = agreement.ledger
        assert ledger.balance("A", BETA) == 100  # A received B's notional
        assert ledger.balance("B", ALPHA) == 100
        assert ledger.balance("contract", ALPHA) == 5
        assert ledger.balance("contract", BETA) == 5
        assert ledger.balance("A", ALPHA) == 0
        assert agreement.state == "active"

    def test_conservation_after_initiate(self):
        agreement = symmetric_agreement().initiate()
        assert totals(agreement) == (Fraction(105), Fraction(105))

    def test_undersized_margin_rejected(self):
        with pytest.raises(DomainError, match="sizing"):
            symmetric_agreement(min_margin=0.10).initiate()

    def test_sufficient_margin_accepted(self):
        symmetric_agreement(min_margin=0.05).initiate()

    def test_double_initiate_rejected(self):
        agreement = symmetric_agreement().initiate()
        with pytest.raises(LifecycleError):
            agreement.initiate()

    def test_validation(self):
        with pytest.raises(DomainError):
            SwapAgreement(0, 100, 5, 5, 0.2)
        with pytest.raises(DomainError):
            SwapAgreement(100, 100, 5, 5, 1.0)


class TestMark:
    def test_zero_exposure_at_initial_rate(self):
        agreement = symmetric_agreement().initiate()
        view = agreement.mark(OracleTick(1, 1.0))
        assert view.exposure_a == 0 and view.exposure_b == 0
        assert view.breaching_party is None

    def test_linear_mark_to_market(self):
        agreement = symmetric_agreement().initiate()
        view = agreement.mark(OracleTick(1, 1.03))
        assert view.exposure_a == 3  # exact: 100 * (103/100 - 1)
        assert view.exposure_b == 0
        assert view.residual_fraction_b == Fraction(2, 5)

    def test_exposure_zero_sum_between_parties(self):
        agreement = symmetric_agreement().initiate()
        view = agreement.mark(OracleTick(1, 0.9))
        # B's claim in alpha, converted back at the tick, mirrors A's move.
        assert view.exposure_a == 0
        assert view.exposure_b * Fraction("0.9") == 100 * (1 - Fraction("0.9"))

    def test_stale_tick_rejected(self):
        agreement = symmetric_agreement().initiate()
        agreement.mark(OracleTick(5, 1.0))
        with pytest.raises(StaleTickError):
            agreement.mark(OracleTick(5, 1.01))
        with pytest.raises(StaleTickError):
            agreement.mark(OracleTick(4, 1.01))


class TestBreach:
    def test_no_breach_keeps_state(self):
        agreement = symmetric_agreement(threshold=0.5).initiate()
        assert agreement.check_and_terminate(OracleTick(1, 1.02)) is None
        assert agreement.state == "active"

    def test_breach_settlement_exact(self):
        agreement = symmetric_agreement(threshold=0.5).initiate()
        settlement = agreement.check_and_terminate(OracleTick(1, 1.03))
        assert settlement is not None
        assert agreement.state == "terminated_breach"
        assert settlement.party == "B"
        assert settlement.transfer_amount == 3
        assert settlement.uncollateralized_loss == 0
        ledger = agreement.ledger
        assert ledger.balance("A", BETA) == 103  # notional + exposure
        assert ledger.balance("A", ALPHA) == 5  # margin returned
        assert ledger.balance("B", BETA) == 2  # margin remainder
        assert ledger.balance("B", ALPHA) == 100  # keeps the exchanged notional

    def test_non_breacher_made_whole_exactly(self):
        agreement = symmetric_agreement(threshold=0.5).initiate()
        rate = Fraction("1.03")
        initial_a = (100 + 5) * rate
        agreement.check_and_terminate(OracleTick(1, rate))
        assert wealth(agreement, "A", rate) == initial_a

    def test_breacher_also_whole_at_market(self):
        # The breacher pays its margin but keeps the appreciated notional.
        agreement = symmetric_agreement(threshold=0.5).initiate()
        rate = Fraction("1.03")
        initial_b = Fraction(105)
        agreement.check_and_terminate(OracleTick(1, rate))
        assert wealth(agreement, "B", rate) == initial_b

    def test_gap_move_caps_transfer_and_reports_shortfall(self):
        agreement = symmetric_agreement(threshold=0.0).initiate()
        settlement = agreement.check_and_terminate(OracleTick(1, 1.08))
        assert settlement.transfer_amount == 5  # the whole posted margin
        assert settlement.uncollateralized_loss == 3
        rate = Fraction("1.08")
        assert wealth(agreement, "A", rate) == (100 + 5) * rate - 3

    def test_conservation_through_breach(self):
        agreement = symmetric_agreement(threshold=0.5).initiate()
        agreement.check_and_terminate(OracleTick(1, 1.4))
        assert totals(agreement) == (Fraction(105), Fraction(105))

    def test_downside_breach_hits_party_a(self):
        agreement = symmetric_agreement(threshold=0.5).initiate()
        settlement = agreement.check_and_terminate(OracleTick(1, 0.96))
        assert settlement.party == "A"
        assert settlement.transfer_token == ALPHA
        # exposure in alpha at the tick: 100 * (1 - 0.96) / 0.96
        assert settlement.transfer_amount == Fraction(100) * Fraction(4, 100) / Fraction("0.96")


def random_fraction(rng, low, high):
    """A random rational in [low, high] with a denominator up to 997."""
    denominator = rng.randint(1, 997)
    return Fraction(rng.randint(int(low * denominator), int(high * denominator)), denominator)


def random_terms(rng, threshold_base):
    return dict(
        notional_a=random_fraction(rng, 1, 500),
        notional_b=random_fraction(rng, 1, 500),
        margin_a=random_fraction(rng, 1, 60),
        margin_b=random_fraction(rng, 1, 60),
        threshold=random_fraction(rng, 0, 0.95),
        x0=random_fraction(rng, 0.05, 20),
        threshold_base=threshold_base,
    )


def twins(terms, drain=None):
    """Two identical active agreements; the second never uses the quiet band.

    ``drain`` = (party, fraction) takes that fraction of the party's margin
    out of the contract, as a gap settlement would, to reach negative slack.
    """
    pair = SwapAgreement(**terms).initiate(), SwapAgreement(**terms).initiate()
    pair[1]._quiet_band = lambda: None
    if drain is not None:
        party, fraction = drain
        for agreement in pair:
            token = ALPHA if party == "A" else BETA
            agreement.ledger.transfer(0, "test", token, "contract", party, agreement.margin(party) * fraction)
    return pair


def assert_same_tick(banded, full, tick):
    """Both agreements take the tick alike, and as the full view says; returns the settlement."""
    breaching = full._view(tick.time, tick.rate).breaching_party
    settlement = banded.check_and_terminate(tick)
    assert settlement == full.check_and_terminate(tick)
    assert (settlement and settlement.party) == breaching
    assert banded.ledger.entries == full.ledger.entries
    assert banded.ledger.balances == full.ledger.balances
    for name in ("state", "breaching_party", "last_time", "last_rate"):
        assert getattr(banded, name) == getattr(full, name)
    assert banded.last_rate == tick.rate
    return settlement


class TestQuietBand:
    """The cached breach band against the full mark, on random rational terms."""

    @pytest.mark.parametrize("threshold_base", ["initial_margin", "notional"])
    def test_band_edges_agree_with_full_view(self, threshold_base):
        rng = random.Random(f"band-{threshold_base}")
        seen = {"band": 0, "none": 0}
        for _ in range(150):
            terms = random_terms(rng, threshold_base)
            drain = (rng.choice("AB"), random_fraction(rng, 0, 1)) if rng.random() < 0.3 else None
            agreement = twins(terms, drain)[0]
            band = agreement._quiet_band()
            if band is None:  # a negative slack: no rate is safe
                seen["none"] += 1
                base_a, base_b = agreement._threshold_bases()
                slack_a = agreement.margin("A") - agreement.threshold * base_a
                slack_b = agreement.margin("B") - agreement.threshold * base_b
                assert min(slack_a, slack_b) < 0
                rates = [agreement.x0, agreement.x0 * random_fraction(rng, 0.5, 2)]
            else:
                seen["band"] += 1
                low, high = band
                assert 0 < low <= agreement.x0 <= high
                step = min(low, (high - low) or low) / rng.randint(2, 10**6)
                rates = [low - step, low, low + step, high - step, high, high + step]
            for rate in rates:  # a fresh pair per rate: one tick can terminate
                settlement = assert_same_tick(*twins(terms, drain), OracleTick(1, rate))
                # The band is exact: every rate inside it is quiet, every rate outside breaches.
                assert (settlement is None) == (band is not None and band[0] <= rate <= band[1])
        assert seen["band"] > 0 and seen["none"] > 0

    def test_band_follows_margin_changes(self):
        rng = random.Random("band-margins")
        for _ in range(40):
            banded, full = twins(random_terms(rng, "initial_margin"))
            for time in range(1, 13):
                band = banded._quiet_band()
                if band is None:
                    break
                low, high = band
                rate = rng.choice([low, high, low + random_fraction(rng, 0, 1) * (high - low)])
                assert assert_same_tick(banded, full, OracleTick(time, rate)) is None
                party, amount = rng.choice("AB"), random_fraction(rng, 1, 100) / 10
                if rng.random() < 0.5:
                    for agreement in (banded, full):
                        agreement.replenish(party, amount, time=time)
                else:  # shrink a margin directly, so a stale band would be too wide
                    token, amount = (ALPHA if party == "A" else BETA), min(amount, banded.margin(party))
                    for agreement in (banded, full):
                        agreement.ledger.transfer(time, "test", token, "contract", party, amount)
            band = banded._quiet_band()
            if band is not None and banded.state == "active":
                rate = rng.choice([band[0] / 2, band[1] * 2])
                assert assert_same_tick(banded, full, OracleTick(100, rate)) is not None


class TestReplenish:
    def test_same_step_top_up_prevents_termination(self):
        agreement = symmetric_agreement(threshold=0.5).initiate()
        agreement.replenish("B", 3, time=1)
        assert agreement.check_and_terminate(OracleTick(1, 1.03)) is None
        assert agreement.state == "active"

    def test_without_top_up_the_same_tick_terminates(self):
        agreement = symmetric_agreement(threshold=0.5).initiate()
        assert agreement.check_and_terminate(OracleTick(1, 1.03)) is not None

    def test_zero_amount_rejected(self):
        agreement = symmetric_agreement().initiate()
        with pytest.raises(DomainError):
            agreement.replenish("B", 0)

    def test_after_termination_rejected(self):
        agreement = symmetric_agreement(threshold=0.5).initiate()
        agreement.check_and_terminate(OracleTick(1, 1.5))
        with pytest.raises(LifecycleError):
            agreement.replenish("B", 1)


class TestVoluntaryTermination:
    def test_fee_flows_to_counterparty(self):
        agreement = symmetric_agreement(fee=0.5).initiate()
        settlement = agreement.voluntary_terminate("A", time=1)
        assert agreement.state == "terminated_voluntary"
        assert settlement.fee_amount == Fraction(1, 2)
        ledger = agreement.ledger
        assert ledger.balance("A", BETA) == Fraction("99.5")
        assert ledger.balance("B", BETA) == Fraction("5.5")

    def test_zero_exposure_only_fee_moves(self):
        agreement = symmetric_agreement(fee=0.5).initiate()
        settlement = agreement.voluntary_terminate("A", time=1)
        assert settlement.transfer_amount == 0
        assert agreement.ledger.balance("A", ALPHA) == 5  # margin home intact

    def test_exposure_settled_like_breach(self):
        agreement = symmetric_agreement(fee=0).initiate()
        agreement.mark(OracleTick(1, 1.02))
        settlement = agreement.voluntary_terminate("B", time=2)
        assert settlement.transfer_amount == 2
        assert agreement.ledger.balance("A", BETA) == 102

    def test_conservation(self):
        agreement = symmetric_agreement(fee=0.5).initiate()
        agreement.voluntary_terminate("B", time=1, rate=1.01)
        assert totals(agreement) == (Fraction(105), Fraction(105))


class TestMaturity:
    def test_zero_rate_legs_restore_initial_ledger(self):
        agreement = symmetric_agreement(maturity=365).initiate()
        agreement.mature(365)
        ledger = agreement.ledger
        assert ledger.balance("A", ALPHA) == 105
        assert ledger.balance("A", BETA) == 0
        assert ledger.balance("B", BETA) == 105
        assert ledger.balance("B", ALPHA) == 0
        assert agreement.state == "matured"

    def test_round_trip_net_equals_leg_payments(self):
        leg = Leg(payer="A", token=BETA, notional=100, rate=Fraction("0.04"), frequency_days=73)
        agreement = symmetric_agreement(maturity=365, legs=(leg,)).initiate()
        for k in range(5):
            agreement.accrue_legs(73 * k, 73 * (k + 1))
        agreement.mature(365)
        ledger = agreement.ledger
        assert ledger.balance("A", BETA) == -4  # paid 5 * 0.8 in legs
        assert ledger.balance("B", BETA) == 109
        assert totals(agreement) == (Fraction(105), Fraction(105))

    def test_early_maturity_rejected(self):
        agreement = symmetric_agreement(maturity=365).initiate()
        with pytest.raises(LifecycleError):
            agreement.mature(100)

    def test_non_active_rejected(self):
        agreement = symmetric_agreement(maturity=10)
        with pytest.raises(LifecycleError):
            agreement.mature(10)


class TestLegs:
    def test_73_day_accrual(self):
        leg = Leg(payer="A", token=BETA, notional=100, rate=Fraction("0.04"))
        agreement = symmetric_agreement(legs=(leg,)).initiate()
        flows = agreement.accrue_legs(0, 73)
        assert flows[0]["amount"] == Fraction(4, 5)  # 0.8 exactly

    def test_zero_rate_legs_no_flows(self):
        leg = Leg(payer="A", token=BETA, notional=100, rate=0)
        agreement = symmetric_agreement(legs=(leg,)).initiate()
        flows = agreement.accrue_legs(0, 73)
        assert flows[0]["amount"] == 0
        assert agreement.ledger.balance("A", BETA) == 100

    def test_asymmetric_spreads_net_to_differential(self):
        legs = (
            Leg(payer="A", token=BETA, notional=100, rate=Fraction("0.04"),
                spread=Fraction("0.002")),
            Leg(payer="B", token=BETA, notional=100, rate=Fraction("0.04"),
                spread=Fraction("0.001")),
        )
        agreement = symmetric_agreement(legs=legs).initiate()
        before = agreement.ledger.balance("A", BETA)
        agreement.accrue_legs(0, 365)
        net_paid = before - agreement.ledger.balance("A", BETA)
        assert net_paid == Fraction("0.001") * 100  # spread differential

    def test_floating_leg_needs_fixing(self):
        leg = Leg(payer="B", token=ALPHA, notional=100, rate_type="floating")
        agreement = symmetric_agreement(legs=(leg,)).initiate()
        with pytest.raises(MissingFixingError):
            agreement.accrue_legs(0, 73)
        flows = agreement.accrue_legs(0, 73, fixings={0: Fraction("0.05")})
        assert flows[0]["amount"] == Fraction(1)


class TestBufferAndLeverage:
    def test_zero_vol_zero_buffer(self):
        assert buffer_size(0.0, 1.0) == 0.0

    def test_sqrt_scaling(self):
        assert_allclose(buffer_size(0.3, 4.0), 2 * buffer_size(0.3, 1.0), rtol=1e-12)

    def test_one_month_point(self):
        assert_allclose(buffer_size(0.8, 1 / 12), BUFFER_ONE_MONTH, rtol=1e-12)

    def test_capped_at_one(self):
        assert buffer_size(5.0, 4.0) == 1.0

    def test_leverage_bound(self):
        bound = max_leverage(0.05)
        assert bound == LeverageBound(bound=20.0, achievable=None)

    def test_achievable_two_links(self):
        assert max_leverage(0.5, 2).achievable == 1.5

    def test_achievable_single_link(self):
        assert max_leverage(0.5, 1).achievable == 1.0

    def test_achievable_below_bound(self):
        result = max_leverage(0.05, 200)
        assert result.achievable < result.bound

    def test_domain(self):
        with pytest.raises(DomainError):
            max_leverage(0.0)
        with pytest.raises(DomainError):
            buffer_size(0.3, 0.0)


class TestScenarioRunner:
    BASE = {
        "agreement": {
            "notional_a": 100,
            "notional_b": 100,
            "x0": 1.0,
            "margin_a": 5,
            "margin_b": 5,
            "threshold": 0.5,
            "termination_fee": 0.5,
            "maturity_time": 365,
            "legs": [
                {
                    "payer": "A",
                    "token": "beta",
                    "notional": 100,
                    "rate_type": "fixed",
                    "rate": 0.04,
                    "frequency_days": 73,
                }
            ],
        },
        "events": [
            {"time": 10, "type": "tick", "rate": 1.01},
            {"time": 20, "type": "tick", "rate": 1.02},
        ],
    }

    def test_matures_with_accruals(self):
        result = run_swap_scenario(self.BASE)
        state = result["final_state"]
        assert state["state"] == "matured"
        assert state["accrual_periods"] == {0: 5}
        assert state["balances"]["A_beta"]["exact"] == "-4"
        assert state["token_totals"] == {"alpha": "105", "beta": "105"}

    def test_breach_scenario(self):
        config = {
            "agreement": dict(self.BASE["agreement"], legs=[]),
            "events": [{"time": 10, "type": "tick", "rate": 1.03}],
        }
        result = run_swap_scenario(config)
        state = result["final_state"]
        assert state["state"] == "terminated_breach"
        assert state["settlement"]["party"] == "B"
        assert state["settlement"]["transfer_amount"] == "3"

    def test_same_step_replenish_prevents_breach(self):
        config = {
            "agreement": dict(self.BASE["agreement"], legs=[]),
            "events": [
                {"time": 10, "type": "tick", "rate": 1.03},
                {"time": 10, "type": "replenish", "party": "B", "amount": 3},
            ],
        }
        state = run_swap_scenario(config)["final_state"]
        assert state["state"] == "matured"

    def test_replay_determinism(self):
        first = run_swap_scenario(self.BASE)
        second = run_swap_scenario(self.BASE)
        assert first == second

    def test_validation_diagnostics(self):
        problems = validate_swap_scenario({})
        assert any("agreement" in p for p in problems)
        assert any("events" in p for p in problems)
        assert validate_swap_scenario(self.BASE) == []

    def test_floating_leg_with_scenario_fixing(self):
        config = {
            "agreement": dict(
                self.BASE["agreement"],
                legs=[
                    {
                        "payer": "B",
                        "token": "alpha",
                        "notional": 100,
                        "rate_type": "floating",
                        "frequency_days": 365,
                    }
                ],
            ),
            "fixings": {"0": 0.05},
            "events": [],
        }
        state = run_swap_scenario(config)["final_state"]
        assert state["state"] == "matured"
        # Notional (100) + margin (5) home, plus B's year-long 5% coupon (5).
        assert state["balances"]["A_alpha"]["exact"] == "110"

    def test_events_after_termination_skipped(self):
        config = {
            "agreement": dict(self.BASE["agreement"], legs=[]),
            "events": [
                {"time": 10, "type": "tick", "rate": 1.5},
                {"time": 20, "type": "tick", "rate": 1.0},
            ],
        }
        state = run_swap_scenario(config)["final_state"]
        assert state["state"] == "terminated_breach"
        assert state["skipped_events"] >= 1


class TestLifecycleFuzz:
    def test_random_lifecycles_hold_invariants(self):
        totals = run_fuzz(runs=400, seed=11, replay_every=100)
        assert totals["breach"] > 0
        assert totals["voluntary"] > 0
        assert totals["matured"] > 0
