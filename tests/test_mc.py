import gc
import math
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cryptoyield import cli, mc
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

    @pytest.mark.parametrize("field", ["s0_a", "s0_b", "sigma_a", "sigma_b", "drift_a", "drift_b", "T"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_refused(self, field, value):
        with pytest.raises(DomainError, match="finite"):
            GbmSpec(**{"s0_a": 1.0, field: value})

    def test_steps_limited_to_half_the_block_budget(self):
        assert 2 * mc.MAX_STEPS == mc._PATH_BLOCK_BUDGET
        GbmSpec(s0_a=1.0, steps=mc.MAX_STEPS)
        with pytest.raises(DomainError, match="steps must be <= 1048576"):
            GbmSpec(s0_a=1.0, steps=mc.MAX_STEPS + 1)


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


def reference_hit_contributions(spec, barrier, discount_rate, bridge, z):
    """The first-passage kernel as a plain loop over every path and step.

    Kept as the oracle for ``mc._hit_contributions``, which must return the
    same bits while stepping only the live paths.
    """
    m, steps = z.shape
    dt = spec.T / steps
    sigma = spec.sigma_a
    nu = spec.drift_a - 0.5 * sigma**2
    b_log = math.log(barrier / spec.s0_a)
    vol_step = sigma * math.sqrt(dt)

    x = np.zeros(m)
    survival = np.ones(m)
    contrib = np.zeros(m)
    for i in range(steps):
        x_next = x + nu * dt + vol_step * z[:, i]
        hit = x_next <= b_log
        if bridge and sigma > 0.0:
            with np.errstate(over="ignore"):
                p_cross = np.exp(-2.0 * (x - b_log) * (x_next - b_log) / (sigma**2 * dt))
            p_cross = np.where(hit, 1.0, np.minimum(p_cross, 1.0))
            frac = np.where(
                hit,
                np.clip((x - b_log) / np.maximum(x - x_next, 1e-300), 0.0, 1.0),
                0.5,
            )
        else:
            p_cross = hit.astype(float)
            frac = 1.0
        t_hit = (i + frac) * dt
        contrib += survival * p_cross * np.exp(-discount_rate * t_hit)
        survival *= 1.0 - p_cross
        x = x_next
    return contrib


def reference_first_passage(spec, barrier, payout, discount_rate, bridge):
    """first_passage_value with one reference kernel call per antithetic leg."""
    block_pairs = max(1, mc._PATH_BLOCK_BUDGET // spec.steps)
    values = []
    total = spec.paths // 2 if spec.antithetic else spec.paths
    for block, m in mc._pair_blocks(total, block_pairs):
        z = mc._block_generator(spec.seed, block).standard_normal((m, spec.steps))
        c = reference_hit_contributions(spec, barrier, discount_rate, bridge, z)
        if spec.antithetic:
            c = 0.5 * (c + reference_hit_contributions(spec, barrier, discount_rate, bridge, -z))
        values.append(c)
    mean, se = reference_estimate(values)
    return payout * mean, abs(payout) * se


def reference_estimate(values):
    """(mean, standard error) over the concatenated values, by np.mean and np.std."""
    v = np.concatenate(values)
    return float(np.mean(v)), float(np.std(v, ddof=1)) / math.sqrt(v.size) if v.size > 1 else 0.0


def reference_price_payoff(spec, payoff, discount_rate):
    """price_payoff as a list of per-block values joined at the end, each block's two legs in one array."""
    values = []
    total = spec.paths // 2 if spec.antithetic else spec.paths
    for block, m in mc._pair_blocks(total, mc._TERMINAL_BLOCK):
        z = mc._block_generator(spec.seed, block).standard_normal((m, 2))
        z = np.concatenate([z, -z]) if spec.antithetic else z
        t, za = spec.T, z[:, 0]
        zb = spec.rho * z[:, 0] + math.sqrt(1.0 - spec.rho**2) * z[:, 1]
        a = spec.s0_a * np.exp((spec.drift_a - 0.5 * spec.sigma_a**2) * t + spec.sigma_a * math.sqrt(t) * za)
        b = spec.s0_b * np.exp((spec.drift_b - 0.5 * spec.sigma_b**2) * t + spec.sigma_b * math.sqrt(t) * zb)
        p = np.asarray(payoff(a, b), dtype=float)
        values.append(0.5 * (p[:m] + p[m:]) if spec.antithetic else p)
    mean, se = reference_estimate(values)
    discount = math.exp(-discount_rate * spec.T)
    return discount * mean, discount * se


# (spec, barrier): odd and single step counts, drift of either sign, zero
# volatility, no antithetic leg, slabs of normals shorter than the path, and
# a barrier just under spot where every path breaches within a few steps.
KERNEL_CASES = {
    "base": (GbmSpec(s0_a=1.5, sigma_a=0.8, steps=33, paths=64), 1.2),
    "up-drift-plain": (GbmSpec(s0_a=1.5, sigma_a=0.6, drift_a=0.3, steps=16, paths=41, antithetic=False), 1.2),
    "down-drift-one-step": (GbmSpec(s0_a=1.3, sigma_a=1.1, drift_a=-0.4, steps=1, paths=200), 1.2),
    "zero-vol": (GbmSpec(s0_a=1.5, drift_a=-0.5, T=2.0, steps=20, paths=10), 1.2),
    "slabs": (GbmSpec(s0_a=1.5, sigma_a=0.8, drift_a=0.05, steps=301, paths=1200), 1.2),
    "at-spot": (GbmSpec(s0_a=1.5, sigma_a=0.8, drift_a=-1.0, steps=64, paths=16), 1.5 * (1 - 1e-9)),
}


@pytest.mark.parametrize("discount_rate", [0.0, 0.05, -0.02])
@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_kernel_matches_reference_loop_bit_for_bit(case, bridge, discount_rate):
    spec, barrier = KERNEL_CASES[case]
    m = spec.paths // 2 if spec.antithetic else spec.paths
    z = np.random.default_rng(31).standard_normal((m, spec.steps))
    want = reference_hit_contributions(spec, barrier, discount_rate, bridge, z)
    if spec.antithetic:
        want = np.concatenate([want, reference_hit_contributions(spec, barrier, discount_rate, bridge, -z)])
    got = mc._hit_contributions(spec, barrier, discount_rate, bridge, z)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("discount_rate", [0.0, 0.05])
def test_kernel_with_subnormal_variance_step_warns_nothing(discount_rate):
    # sigma^2 dt is subnormal, so the bridge exponents overflow to -inf.
    spec = GbmSpec(s0_a=1.5, sigma_a=1e-160, drift_a=-1.0, steps=40, paths=32)
    barrier = 1.2
    z = np.random.default_rng(41).standard_normal((spec.paths // 2, spec.steps))
    want = np.concatenate([
        reference_hit_contributions(spec, barrier, discount_rate, True, z),
        reference_hit_contributions(spec, barrier, discount_rate, True, -z),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mc._hit_contributions(spec, barrier, discount_rate, True, z)
    assert got.tobytes() == want.tobytes()
    assert (want > 0).any()


def test_kernel_stops_once_every_path_breached():
    spec, barrier = KERNEL_CASES["at-spot"]
    z = np.random.default_rng(31).standard_normal((spec.paths // 2, spec.steps))
    assert (mc._hit_contributions(spec, barrier, 0.0, False, z) == 1.0).all()


# Slab sizes that make the kernel walk one step at a time, a few steps that
# do not divide the path (5 at first, more as paths breach), or all at once.
@pytest.mark.parametrize("slab", ["one-step", "five-steps", "whole-path"])
@pytest.mark.parametrize("discount_rate", [0.0, 0.05])
@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("case", ["base", "up-drift-plain", "slabs", "at-spot"])
def test_kernel_chunk_widths_match_reference_bit_for_bit(case, bridge, discount_rate, slab, monkeypatch):
    spec, barrier = KERNEL_CASES[case]
    m = spec.paths // 2 if spec.antithetic else spec.paths
    doubles = {"one-step": 1, "five-steps": 5 * spec.paths + 4, "whole-path": spec.paths * spec.steps}[slab]
    monkeypatch.setattr(mc, "_SLAB_DOUBLES", doubles)
    z = np.random.default_rng(37).standard_normal((m, spec.steps))
    want = reference_hit_contributions(spec, barrier, discount_rate, bridge, z)
    if spec.antithetic:
        want = np.concatenate([want, reference_hit_contributions(spec, barrier, discount_rate, bridge, -z)])
    got = mc._hit_contributions(spec, barrier, discount_rate, bridge, z)
    assert got.tobytes() == want.tobytes()


def test_exp_helper_matches_numpy_bit_for_bit():
    e = np.concatenate([
        np.linspace(-1e4, 0.0, 200_001),
        np.linspace(-760.0, -690.0, 200_001),  # the slow band and the underflow to zero
        [-0.0, mc._EXP_FAST, mc._EXP_ZERO, -745.1332191019411, -745.1332191019412, -708.3964185322641],
    ])
    assert mc._exp_nonpositive(e).tobytes() == np.exp(e).tobytes()
    square = e[: 400 * 1000].reshape(400, 1000)  # the kernel passes (steps, paths) matrices
    assert mc._exp_nonpositive(square).tobytes() == np.exp(square).tobytes()
    assert (mc._exp_nonpositive(np.array([1e-300, 0.5, 700.0])) == 1.0).all()


def test_row_chunks_hold_the_bits_of_whole_blocks():
    # 365 steps: a block is 5745 pairs and a chunk 1436 rows, so each block
    # ends on a 1-row chunk; the second block is a partial one.
    steps, block_pairs, total = 365, mc._PATH_BLOCK_BUDGET // 365, 5745 + 10
    got = np.concatenate([c.copy() for c in mc._normal_chunks(7, total, block_pairs, steps)])
    want = np.concatenate([
        mc._block_generator(7, block).standard_normal((m, steps)) for block, m in mc._pair_blocks(total, block_pairs)
    ])
    assert got.tobytes() == want.tobytes()


def test_kernel_failure_on_second_chunk_propagates_and_stops_the_helper(monkeypatch):
    spec = GbmSpec(s0_a=1.5, sigma_a=0.8, steps=512, paths=2 * 3000, seed=3)  # three 1024-row chunks
    kernel, calls = mc._hit_contributions, []

    def fail_second(*args):
        calls.append(args[-1].shape)
        if len(calls) == 2:
            raise RuntimeError("kernel failed")
        return kernel(*args)

    monkeypatch.setattr(mc, "_hit_contributions", fail_second)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="kernel failed"):
        first_passage_value(spec, 1.2, 0.08)
    assert threading.active_count() == threads
    assert calls == [(1024, 512), (1024, 512)]


def fail_second_draw(monkeypatch):
    """Make the second draw fail: the helper draws it while the caller works on the first chunk."""
    make, draws = mc._block_generator, []

    class Failing:
        def __init__(self, seed, block):
            self.inner = make(seed, block)

        def standard_normal(self, out):
            draws.append(out.shape)
            if len(draws) == 2:
                raise MemoryError("draw failed")
            return self.inner.standard_normal(out=out)

    monkeypatch.setattr(mc, "_block_generator", Failing)


def test_draw_failure_in_the_helper_is_raised_on_the_main_thread(monkeypatch):
    fail_second_draw(monkeypatch)  # the draw of the second 1024-row chunk
    threads = threading.active_count()
    spec = GbmSpec(s0_a=1.5, sigma_a=0.8, steps=512, paths=2 * 3000, seed=3)
    with pytest.raises(MemoryError, match="draw failed"):
        first_passage_value(spec, 1.2, 0.08)
    assert threading.active_count() == threads


def test_payoff_failure_on_second_block_propagates_and_stops_the_helper():
    # Three blocks, each one chunk of normals; the plain leg of the second block fails.
    spec = GbmSpec(s0_a=1.1, s0_b=0.9, sigma_a=0.7, sigma_b=0.3, paths=2 * 3 * mc._TERMINAL_BLOCK, seed=3)
    calls = []

    def fail_second_block(a, b):
        calls.append(a.shape)
        if len(calls) == 3:
            raise RuntimeError("payoff failed")
        return exchange_payoff(a, b)

    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="payoff failed"):
        price_payoff(spec, fail_second_block)
    assert threading.active_count() == threads
    assert calls == [(mc._TERMINAL_BLOCK,)] * 3


def test_exchange_draw_failure_in_the_helper_is_raised_on_the_main_thread(monkeypatch):
    fail_second_draw(monkeypatch)  # the draw of the second block
    threads = threading.active_count()
    spec = GbmSpec(s0_a=1.1, s0_b=0.9, sigma_a=0.7, sigma_b=0.3, paths=2 * 3 * mc._TERMINAL_BLOCK, seed=3)
    with pytest.raises(MemoryError, match="draw failed"):
        price_payoff(spec, exchange_payoff)
    assert threading.active_count() == threads


# 1025 steps make a block 2046 pairs, drawn as chunks of 511 rows with a
# 2-row chunk last, so each spec ends on a partial block.
@pytest.mark.parametrize(
    "antithetic, bridge, discount_rate",
    [(True, True, 0.0), (True, False, 0.03), (False, True, -0.02)],
)
def test_first_passage_matches_reference_bit_for_bit(antithetic, bridge, discount_rate):
    paths = 2 * 2049 if antithetic else 2051
    spec = GbmSpec(s0_a=1.5, sigma_a=0.8, drift_a=0.1, steps=1025, paths=paths, seed=5, antithetic=antithetic)
    est = first_passage_value(spec, 1.2, 0.08, discount_rate=discount_rate, bridge=bridge)
    want = reference_first_passage(spec, 1.2, 0.08, discount_rate, bridge)
    assert np.array([est.mean, est.std_error]).tobytes() == np.array(want).tobytes()


# 365 steps make a block 5745 pairs, drawn as chunks of 1436 rows with a
# 1-row chunk last; the second block is a partial one of 3 pairs.
@pytest.mark.parametrize("antithetic, bridge, discount_rate", [(True, True, 0.04), (False, False, 0.0)])
def test_first_passage_over_uneven_row_chunks_matches_reference(antithetic, bridge, discount_rate):
    pairs = mc._PATH_BLOCK_BUDGET // 365 + 3
    spec = GbmSpec(
        s0_a=1.5, sigma_a=0.8, drift_a=0.1, steps=365, paths=2 * pairs if antithetic else pairs, seed=9,
        antithetic=antithetic,
    )
    est = first_passage_value(spec, 1.2, 0.08, discount_rate=discount_rate, bridge=bridge)
    want = reference_first_passage(spec, 1.2, 0.08, discount_rate, bridge)
    assert np.array([est.mean, est.std_error]).tobytes() == np.array(want).tobytes()


# Path counts that end on a partial block, with and without the antithetic leg.
@pytest.mark.parametrize("paths, antithetic", [(2 * (mc._TERMINAL_BLOCK + 5), True), (mc._TERMINAL_BLOCK + 7, False),
                                               (6, True), (3, False)])
@pytest.mark.parametrize("payoff", sorted(cli._PAYOFFS))
def test_price_payoff_matches_reference_bit_for_bit(payoff, paths, antithetic):
    spec = GbmSpec(s0_a=1.1, s0_b=0.9, sigma_a=0.7, sigma_b=0.3, rho=-0.4, drift_a=0.05, drift_b=-0.02, T=1.5,
                   paths=paths, seed=13, antithetic=antithetic)
    est = price_payoff(spec, cli._PAYOFFS[payoff], discount_rate=0.03)
    want = reference_price_payoff(spec, cli._PAYOFFS[payoff], 0.03)
    assert np.array([est.mean, est.std_error]).tobytes() == np.array(want).tobytes()


def test_estimate_matches_numpy_mean_and_std_bit_for_bit():
    rng = np.random.default_rng(17)
    for size in (2, 3, 1000, 123_457, 500_000):
        v = rng.lognormal(0.0, 2.0, size)
        want = reference_estimate([v])
        est = mc._estimate_from_values(v.copy(), 1.0, size)
        assert np.array([est.mean, est.std_error]).tobytes() == np.array(want).tobytes()


def test_price_payoff_holds_its_pair_means_in_one_array():
    # A million paths: 500 000 pair means (4 MB). Concatenating per-block parts
    # and np.std's temporaries peaked at about 3.2 times that.
    spec = GbmSpec(s0_a=1.0, s0_b=1.0, sigma_a=0.8, sigma_b=0.4, rho=0.3, paths=1_000_000, seed=2)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        price_payoff(spec, exchange_payoff)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * (spec.paths // 2)
