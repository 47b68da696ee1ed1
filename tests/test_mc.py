import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cryptoyield.errors import DomainError
from cryptoyield.mc import GbmSpec, first_passage_value, price_payoff, simulate_terminal

# Continuous one-touch hit value for S=1.5, H=1.2, sigma=0.8, zero drift and
# rate, T=1, unit payout; reflection-principle formula evaluated with mpmath.
ONE_TOUCH_REFERENCE = 0.8589215338768365


def exchange_payoff(a, b):
    return np.maximum(a - b, 0.0)


class TestTerminalSampling:
    def test_zero_vol_is_deterministic(self):
        spec = GbmSpec(s0_a=2.0, s0_b=3.0, drift_a=0.1, drift_b=-0.2, T=2.0, paths=64)
        a, b = simulate_terminal(spec)
        assert_allclose(a, 2.0 * math.exp(0.2), rtol=1e-14)
        assert_allclose(b, 3.0 * math.exp(-0.4), rtol=1e-14)

    def test_perfect_correlation_pairs_identical(self):
        spec = GbmSpec(
            s0_a=1.0, s0_b=1.0, sigma_a=0.5, sigma_b=0.5, rho=1.0, paths=1000, seed=7
        )
        a, b = simulate_terminal(spec)
        assert_allclose(a, b, rtol=1e-12)

    def test_terminal_mean_matches_forward(self):
        # E[A_T] = s0 * exp(drift * T); checked within 4 standard errors.
        spec = GbmSpec(s0_a=1.0, sigma_a=0.8, drift_a=0.05, T=1.0, paths=1_000_000, seed=11)
        est = price_payoff(spec, lambda a, b: a)
        assert est.within(math.exp(0.05), n_se=4.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            GbmSpec(s0_a=0.0)
        with pytest.raises(DomainError):
            GbmSpec(s0_a=1.0, rho=1.5)
        with pytest.raises(DomainError):
            GbmSpec(s0_a=1.0, paths=101, antithetic=True)


class TestPricePayoff:
    def test_constant_payoff_exact(self):
        spec = GbmSpec(s0_a=1.0, sigma_a=0.9, paths=1000, seed=3)
        est = price_payoff(spec, lambda a, b: np.ones_like(a))
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_discounting(self):
        spec = GbmSpec(s0_a=1.0, paths=100, T=2.0)
        est = price_payoff(spec, lambda a, b: np.ones_like(a), discount_rate=0.25)
        assert_allclose(est.mean, math.exp(-0.5), rtol=1e-14)

    def test_max_plus_min_equals_forward_sum(self):
        # Pathwise max + min == a + b, so the two estimates must agree.
        spec = GbmSpec(
            s0_a=1.2, s0_b=0.9, sigma_a=0.7, sigma_b=0.4, rho=-0.3, paths=20_000, seed=5
        )
        vmax = price_payoff(spec, lambda a, b: np.maximum(a, b))
        vmin = price_payoff(spec, lambda a, b: np.minimum(a, b))
        vsum = price_payoff(spec, lambda a, b: a + b)
        assert_allclose(vmax.mean + vmin.mean, vsum.mean, rtol=1e-12)

    def test_seed_determinism_bit_identical(self):
        spec = GbmSpec(s0_a=1.0, s0_b=1.0, sigma_a=0.6, sigma_b=0.3, rho=0.2, paths=50_000, seed=42)
        e1 = price_payoff(spec, exchange_payoff)
        e2 = price_payoff(spec, exchange_payoff)
        assert e1.mean == e2.mean
        assert e1.std_error == e2.std_error

    def test_different_seeds_differ(self):
        s1 = GbmSpec(s0_a=1.0, sigma_a=0.6, paths=10_000, seed=1)
        s2 = GbmSpec(s0_a=1.0, sigma_a=0.6, paths=10_000, seed=2)
        assert price_payoff(s1, lambda a, b: a).mean != price_payoff(s2, lambda a, b: a).mean

    def test_std_error_scaling(self):
        # Quadrupling paths should halve the standard error within 20%.
        base = GbmSpec(s0_a=1.0, s0_b=1.0, sigma_a=0.8, sigma_b=0.5, rho=0.1, paths=40_000, seed=9)
        e1 = price_payoff(base, exchange_payoff)
        e2 = price_payoff(replace(base, paths=160_000), exchange_payoff)
        ratio = e1.std_error / e2.std_error
        assert 1.6 <= ratio <= 2.4

    def test_antithetic_reduces_variance_on_monotone_payoff(self):
        plain = GbmSpec(s0_a=1.0, sigma_a=0.8, paths=40_000, seed=21, antithetic=False)
        anti = GbmSpec(s0_a=1.0, sigma_a=0.8, paths=40_000, seed=21, antithetic=True)
        se_plain = price_payoff(plain, lambda a, b: a).std_error
        se_anti = price_payoff(anti, lambda a, b: a).std_error
        assert se_anti < se_plain


class TestFirstPassage:
    def test_barrier_at_spot_pays_immediately(self):
        spec = GbmSpec(s0_a=1.2, sigma_a=0.8, paths=100)
        est = first_passage_value(spec, barrier=1.2, payout=0.08)
        assert est.mean == 0.08
        assert est.std_error == 0.0

    def test_unreachable_barrier_vanishes(self):
        spec = GbmSpec(s0_a=1.5, sigma_a=1e-9, drift_a=0.1, steps=64, paths=1000, seed=4)
        est = first_passage_value(spec, barrier=1.2, payout=1.0)
        assert est.mean == 0.0

    def test_bridge_matches_continuous_reference(self):
        spec = GbmSpec(s0_a=1.5, sigma_a=0.8, steps=512, paths=100_000, seed=17)
        est = first_passage_value(spec, barrier=1.2, payout=1.0, bridge=True)
        assert est.within(ONE_TOUCH_REFERENCE, n_se=3.0)

    def test_naive_underestimates_and_bridge_corrects(self):
        spec = GbmSpec(s0_a=1.5, sigma_a=0.8, steps=64, paths=100_000, seed=17)
        naive = first_passage_value(spec, barrier=1.2, payout=1.0, bridge=False)
        bridged = first_passage_value(spec, barrier=1.2, payout=1.0, bridge=True)
        assert naive.mean < ONE_TOUCH_REFERENCE - 5 * naive.std_error
        assert abs(bridged.mean - ONE_TOUCH_REFERENCE) < abs(naive.mean - ONE_TOUCH_REFERENCE) / 5

    def test_seed_determinism(self):
        spec = GbmSpec(s0_a=1.5, sigma_a=0.8, steps=32, paths=20_000, seed=23)
        e1 = first_passage_value(spec, barrier=1.2, payout=0.08)
        e2 = first_passage_value(spec, barrier=1.2, payout=0.08)
        assert (e1.mean, e1.std_error) == (e2.mean, e2.std_error)

    def test_value_bounded_by_payout(self):
        spec = GbmSpec(s0_a=1.3, sigma_a=1.2, steps=64, paths=20_000, seed=29)
        est = first_passage_value(spec, barrier=1.2, payout=0.08)
        assert 0.0 <= est.mean <= 0.08

    def test_bad_barrier(self):
        spec = GbmSpec(s0_a=1.5, sigma_a=0.8, paths=100)
        with pytest.raises(DomainError):
            first_passage_value(spec, barrier=0.0, payout=1.0)
