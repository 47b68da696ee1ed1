"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line
per criterion (pytest's own PASSED/FAILED plus the printed summary line).
Monte Carlo criteria use fixed seeds, so the whole suite is deterministic.
"""

import filecmp
import hashlib
import json
import math
import os
import random
import time
from datetime import date

import numpy as np
from cryptoyield import amm, core, lending, mc, perps, staking
from cryptoyield.cli import main as cli_main
from cryptoyield.optrates import aggregate_daily, chain_points
from cryptoyield.xccy import max_leverage
from tests import amm_fuzz, xccy_fuzz
from tests.test_cli import DEMO
from tests.test_optrates import as_chain, parity_quote


def report_line(number, message):
    print(f"\n[criterion {number:02d}] PASS - {message}")


MARGRABE_GRID = [
    (a, sigma, rho)
    for a in (0.5, 1.0, 2.0)
    for sigma in (0.2, 0.8, 1.5)
    for rho in (-0.5, 0.0, 0.5)
]


def grid_terms(a, sigma, rho):
    return lending.LoanTerms(
        collateral_amount=a,
        repayment_amount=1.0,
        sigma_alpha=sigma,
        sigma_beta=sigma,
        rho=rho,
        T=1.0,
    )


def test_criterion_01_margrabe_matches_monte_carlo_grid():
    """Closed-form exchange value vs the 10^6-path oracle on 27 parameter sets."""
    started = time.monotonic()
    worst = 0.0
    for index, (a, sigma, rho) in enumerate(MARGRABE_GRID):
        terms = grid_terms(a, sigma, rho)
        closed = lending.margrabe_exchange_value(terms)
        spec = mc.GbmSpec(
            s0_a=a,
            s0_b=1.0,
            sigma_a=sigma,
            sigma_b=sigma,
            rho=rho,
            T=1.0,
            paths=1_000_000,
            seed=1000 + index,
        )
        estimate = mc.price_payoff(spec, lambda x, y: np.maximum(x - y, 0.0))
        gap_se = abs(estimate.mean - closed) / estimate.std_error
        worst = max(worst, gap_se)
        assert estimate.within(closed, n_se=3.0), (
            f"grid point A={a} sigma={sigma} rho={rho}: closed {closed} vs "
            f"mc {estimate.mean} +- {estimate.std_error} ({gap_se:.2f} SE)"
        )
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"grid took {elapsed:.1f}s, budget is 2 minutes"
    report_line(1, f"27-point Margrabe grid within 3 SE (worst {worst:.2f} SE, {elapsed:.1f}s)")


def test_criterion_02_parity_identity_on_grid():
    """borrower + lender == discounted A + discounted B to 1e-12, plus rates."""
    rate_variants = [(0.0, 0.0, 1.0), (0.05, 0.12, 0.75)]
    for a, sigma, rho in MARGRABE_GRID:
        for r_alpha, r_beta, t in rate_variants:
            terms = lending.LoanTerms(a, 1.0, sigma, sigma, rho, r_alpha, r_beta, t)
            v = lending.loan_values(terms)
            lhs = v.borrower_value + v.lender_value
            rhs = math.exp(-r_alpha * t) * a + math.exp(-r_beta * t) * 1.0
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    report_line(2, "Max/Min payoff parity holds to 1e-12 across the grid")


ONE_TOUCH_SETS = [
    # (spot, barrier, sigma, drift, discount rate, T, payout)
    (1.5, 1.2, 0.8, 0.0, 0.0, 1.0, 0.08),
    (1.5, 1.2, 0.4, 0.0, 0.0, 1.0, 1.0),
    (2.0, 1.2, 0.8, 0.0, 0.0, 2.0, 1.0),
    (1.5, 1.2, 0.6, -0.03, 0.04, 2.0, 1.0),
    (1.25, 1.1, 1.2, 0.05, 0.02, 0.5, 0.5),
]


def test_criterion_03_one_touch_matches_first_passage_monte_carlo():
    """Closed form vs bridge-corrected first-passage MC, plus bias study."""
    for index, (spot, barrier, sigma, drift, r, t, payout) in enumerate(ONE_TOUCH_SETS):
        closed = lending.one_touch_value(spot, barrier, payout, sigma, r, t, drift=drift)
        spec = mc.GbmSpec(
            s0_a=spot, sigma_a=sigma, drift_a=drift, T=t,
            steps=512, paths=100_000, seed=2000 + index,
        )
        estimate = mc.first_passage_value(spec, barrier, payout, discount_rate=r, bridge=True)
        assert estimate.within(closed, n_se=3.0), (
            f"one-touch set {index}: closed {closed} vs mc {estimate.mean} "
            f"+- {estimate.std_error}"
        )

    # Discretization-bias study on the base case: naive (grid-monitored)
    # estimates converge monotonically from below; the bridge correction cuts
    # the remaining bias by at least an order of magnitude.
    spot, barrier, sigma, drift, r, t, payout = ONE_TOUCH_SETS[0]
    closed = lending.one_touch_value(spot, barrier, payout, sigma, r, t, drift=drift)
    naive_bias = []
    for steps in (8, 32, 128):
        spec = mc.GbmSpec(
            s0_a=spot, sigma_a=sigma, drift_a=drift, T=t,
            steps=steps, paths=200_000, seed=2100,
        )
        value = mc.first_passage_value(spec, barrier, payout, discount_rate=r, bridge=False)
        naive_bias.append(closed - value.mean)
    assert all(b > 0 for b in naive_bias), "grid monitoring must underestimate the touch value"
    assert naive_bias[0] > naive_bias[1] > naive_bias[2], f"bias not monotone: {naive_bias}"
    spec = mc.GbmSpec(
        s0_a=spot, sigma_a=sigma, drift_a=drift, T=t, steps=128, paths=200_000, seed=2100
    )
    bridged = mc.first_passage_value(spec, barrier, payout, discount_rate=r, bridge=True)
    assert abs(closed - bridged.mean) < naive_bias[2] / 10.0
    report_line(
        3,
        "one-touch closed form within 3 SE on 5 sets; naive bias "
        f"{[round(b, 5) for b in naive_bias]} monotone, bridge cuts it >10x",
    )


def test_criterion_04_cpmm_invariants_bulk_fuzz():
    """1e5 randomized exact-rational operation sequences, zero violations."""
    totals = amm_fuzz.run_fuzz(sequences=100_000, ops_per_sequence=6, seed=404)
    assert totals["sequences"] == 100_000

    pool = amm.create_pool(1000.0, 1000.0, 0.003)
    receipt = pool.swap_x_for_y(100.0)
    assert abs(receipt.amount_out - 90.66108938801491) < 1e-9
    report_line(
        4,
        f"CPMM fuzz clean over 100k sequences ({totals['swap']} swaps, "
        f"{totals['roundtrip']} round trips); worked swap matches to 1e-9",
    )


def test_criterion_05_impermanent_loss_formula_and_repricing():
    """IL(2) to 1e-12 and formula == fee-free pool repricing on 100 ratios."""
    assert abs(amm.impermanent_loss_relative(2.0) - (2 * math.sqrt(2) / 3 - 1)) < 1e-12

    rng = random.Random(505)
    for _ in range(100):
        ratio = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        pool = amm.create_pool(1.0, 1.0, 0.0)
        position = amm.genesis_position(pool, 1.0, 1.0, entry_prices=(1.0, 1.0))
        pool.arbitrage_to_price(ratio)
        pnl = amm.absolute_impermanent_pnl(position, pool, exit_prices=(ratio, 1.0))
        hold = ratio + 1.0
        assert abs(pnl / hold - amm.impermanent_loss_relative(ratio)) < 1e-12
    report_line(5, "IL(2) = 2*sqrt(2)/3 - 1 to 1e-12; matches repricing on 100 random ratios")


def test_criterion_06_funding_formula_properties():
    """Deribit deadband exact zero; BitMex clamp bounds, on 1e4 samples each."""
    rng = np.random.Generator(np.random.Philox(key=606))
    inside = rng.uniform(-0.0005, 0.0005, size=10_000)
    assert all(perps.deribit_funding(float(p)) == 0.0 for p in inside)

    premia = rng.uniform(-0.01, 0.01, size=10_000)
    interests = rng.uniform(-0.001, 0.001, size=10_000)
    for p, i in zip(premia, interests):
        f = perps.bitmex_funding(float(p), float(i))
        assert abs(f - p) <= 0.0005 + 1e-18
        if abs(i - p) <= 0.0005:
            assert f == i
    report_line(6, "deadband exactly zero and clamp bounds hold on 10k sampled premia")


def test_criterion_07_implied_rate_round_trip():
    """Chains built at known rates recover them to 1e-9 pointwise and in the mean."""
    for rate in (-0.02, 0.0, 0.05, 0.25):
        quotes = [
            parity_quote(rate, tenor, strike)
            for tenor in (1 / 52, 0.1, 0.25, 0.5, 1.0)
            for strike in np.linspace(30_000, 52_000, 10)
        ]
        points, excluded = chain_points(as_chain(quotes))
        assert excluded == 0
        for point_rate in points["rate"].tolist():
            assert abs(point_rate - rate) < 1e-9
        day_mean = aggregate_daily(points, date(1970, 1, 1))  # every quote is at t = 0
        assert abs(day_mean - rate) < 1e-9
    report_line(7, "implied rate recovered to 1e-9 at every strike/expiry for 4 rates")


def test_criterion_08_staking_formula_and_bands():
    """Slash cap, 1e3-validator brute-force oracle, monotone percentile bands."""
    assert staking.slash_cost(100.0 / 3.0) == 100.0

    day = date(2021, 6, 2)
    t1 = staking.midnight_utc(day)
    t0 = t1 - 86_400.0
    rng = random.Random(808)
    cohort, expected = [], []
    for i in range(1000):
        v0 = rng.uniform(33.0, 64.0)
        v1 = v0 * (1.0 + rng.uniform(-0.0002, 0.0006))
        cohort.append(
            staking.ValidatorRecord(
                id=f"v{i}",
                balances=[(t0, v0), (t1, v1)],
                state_intervals=[(t0, t1, "Active")],
            )
        )
        expected.append(365.0 * (v1 / v0 - 1.0))
    for validator, want in zip(cohort, expected):
        got = staking.daily_return(validator, day).annualized_return
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    levels = [1, 5, 25, 50, 75, 95, 99]
    bands = staking.percentile_bands(cohort, day, levels)
    values = [bands[p] for p in levels]
    assert values == sorted(values)
    ranked = sorted(expected)
    for p in levels:
        pos = (len(ranked) - 1) * p / 100.0
        lo = int(pos)
        hi = min(lo + 1, len(ranked) - 1)
        oracle = ranked[lo] + (pos - lo) * (ranked[hi] - ranked[lo])
        assert abs(bands[p] - oracle) <= 1e-9
    report_line(8, "slash(1/3) = 100%; 1000-validator oracle match; bands monotone")


def test_criterion_09_xccy_fuzz_and_leverage():
    """1e4 random lifecycles: conservation, bounded loss, made whole; leverage cap."""
    totals = xccy_fuzz.run_fuzz(runs=10_000, seed=909)
    assert totals["breach"] > 1000
    assert totals["voluntary"] > 500
    assert totals["matured"] > 500
    assert totals["shortfall"] > 100

    bound = max_leverage(0.05)
    assert bound.bound == 20.0
    for n in (1, 5, 50, 500):
        assert max_leverage(0.05, n).achievable < 20.0
    report_line(
        9,
        f"10k swap lifecycles clean ({totals['breach']} breaches, "
        f"{totals['shortfall']} gap shortfalls); leverage bound 20 approached from below",
    )


def test_criterion_10_longrun_lp_yield_limit():
    """(alpha T - sigma sqrt(T))/T approaches alpha: deviation < 1e-3 at T = 1e6."""
    value = amm.lp_longrun_yield(0.1, 0.8, 1e6)
    assert abs(value - 0.1) < 1e-3
    report_line(10, f"long-run LP yield {value} within 1e-3 of the fee rate 0.1")


def test_criterion_11_kelly_and_sharpe():
    """Single-asset Kelly mu/sigma^2, documented Sharpe 0.5, linearity to 1e-12."""
    weight = core.kelly_weights([0.10], 0.0, [[0.04]])[0]
    assert weight == 0.10 / 0.04

    stats = core.ReturnStats(mean=0.10, vol=0.20, periods_per_year=1.0)
    assert core.sharpe_ratio(stats, 0.0) == 0.5

    cov = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, -0.02], [0.0, -0.02, 0.16]])
    mu = np.array([0.06, 0.11, 0.04])
    w1 = core.kelly_weights(mu, 0.0, cov)
    w2 = core.kelly_weights(1.7 * mu, 0.0, cov)
    assert np.max(np.abs(w2 - 1.7 * w1)) <= 1e-12 * max(1.0, float(np.max(np.abs(w2))))
    report_line(11, "Kelly scalar weight exact, Sharpe 0.5 exact, linearity to 1e-12")


DEMO_CONFIGS = sorted(p.stem for p in DEMO.glob("*.json") if "command" in json.loads(p.read_text()))


def run_demo_pack(out_root):
    for name in DEMO_CONFIGS:
        code = cli_main(
            ["run", "--config", str(DEMO / f"{name}.json"), "--out", str(out_root / name)]
        )
        assert code == 0, f"demo config {name} failed"


def test_criterion_12_cli_replay_determinism(tmp_path, capsys):
    """Two full demo-pack runs produce byte-identical series outputs."""
    first, second = tmp_path / "first", tmp_path / "second"
    run_demo_pack(first)
    run_demo_pack(second)
    capsys.readouterr()  # swallow CLI stdout

    compared = 0
    for name in DEMO_CONFIGS:
        files = sorted(p.name for p in (first / name).iterdir())
        assert files, f"no outputs for {name}"
        for fname in files:
            a, b = first / name / fname, second / name / fname
            assert filecmp.cmp(a, b, shallow=False), f"{name}/{fname} differs between runs"
            compared += 1
    report_line(12, f"demo pack replay byte-identical across {compared} output files")


# sha256 of every demo output file: the byte contract of the demo pack across
# changes to the code. In report.json, provenance.inputs is keyed relative to
# the demo directory first, since the report records absolute input paths.
DEMO_DIGESTS = {
    "amm/pool.csv": "e469bb9348ff4271d86671a2d33a7890222af7e397036c597b40d804de744ee5",
    "amm/positions.csv": "72c22c31bea47a1005505f6a01d5e7bf4ce6bbc201d1cba5a14ac1a4c71dbcda",
    "amm/report.json": "a946ba16ff379d34018343dc249127f6a0eaccfdd87f5cd26d426039e5d71f03",
    "implied_rate/daily.csv": "a00ea5efe26997dcd1e07073db380565bf3959b28790361f0ca45ac7aeabf35c",
    "implied_rate/report.json": "0911d2532d248a7e3d1a60da53c17fae31b5daa5be84fd5f852ca6b886a8a6e7",
    "implied_rate/rolling.csv": "5a6d9a536ff92f23a4539a45579015a22b6c9b203984f6c6c00c8d7068264def",
    "kelly/report.json": "9ce7d1b03ae783473ca4fa44d21efa416ec3a1f52d84aa65a0ea38655421a0d1",
    "kelly/weights.csv": "eaf702e592e72648389d2d6a1e33295e6655c7323e1032061537b42297e139ae",
    "loan/report.json": "28ab81b3de499a10ca58e12ae84bed908167098019fa066ae79afd6de16c162e",
    "oracle/report.json": "56c5ac27b77f91ac3aeb37b1cb9320b35538cdea92030a19843a17a0f58e89f4",
    "perp_basis/basis.csv": "066843856e3c2839ee96345526b434bf45835fce87074acce7919bfeea027e30",
    "perp_basis/report.json": "46d9cdc8a2cd23a221be21097fe5df772d1de1d6f0a03309477d6a31f8021a07",
    "perp_funding/funding.csv": "c24a1faf6f829dab893e716cea0dd1ceb60d7dc35e3d1864e929a260a4710337",
    "perp_funding/report.json": "2f84d992f8288c3a4edd2ecca6c15e9bd487b7b73d16c75cf4dd67e38ed6ce7a",
    "stake/bands.csv": "f77b04a310140bfd2427af0fdd76ea40a2216ae7e59a588503c2a046a8ea836e",
    "stake/report.json": "560db55e24f784d9e5486d06e86d12d697ad47d16127cbc0f5ba1612583db6b7",
    "xccy/audit.csv": "a5a5096da869e9aa65dfe602e59fe48312150c64ebb4f749ea306ac71516ebd1",
    "xccy/report.json": "9c7699bc867deca5d7614cbdb91c1fab9cb2cd772c181e7e9f8d7651b7639b12",
}


def demo_digests(out_root):
    digests = {}
    for path in sorted(p for p in out_root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            inputs = report["provenance"]["inputs"]
            report["provenance"]["inputs"] = {os.path.relpath(k, DEMO): v for k, v in inputs.items()}
            data = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
        digests[path.relative_to(out_root).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def test_demo_pack_golden_bytes(tmp_path, capsys):
    """The demo pack writes the same bytes as the recorded run, file for file."""
    run_demo_pack(tmp_path)
    capsys.readouterr()  # swallow CLI stdout
    assert demo_digests(tmp_path) == DEMO_DIGESTS
