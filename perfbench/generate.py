"""Seeded input generator for the benchmark workloads.

Every input is a pure function of the workload seed: the same seed writes the
same bytes. Alongside the files, the generator returns the ground truth the
output checks compare against and a count of each input property it controls.
It never imports the package under test; the AMM replica below is an
independent constant-product model so that `add` events can be written at the
pool ratio and the final reserves checked.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

import numpy as np

SECONDS_PER_DAY = 86_400
YEAR_START = 1_622_505_600  # 2021-06-01T00:00:00Z

# daily-reports sizes: one market year.
VALIDATORS = 100
DAYS = 365
EXIT_SHARE = 0.05
MISSING_SHARE = 0.01
CHAIN_TENORS_DAYS = (7, 30, 90)
CHAIN_MONEYNESS = (0.9, 1.1)
PARITY_VIOLATION_SHARE = 0.02
FUNDING_INTERVAL_S = 8 * 3600
BASIS_INTERVAL_S = 3600

# mc-oracle: the demo loan's liquidation leg, plus an exchange option.
ONE_TOUCH = {"s0": 1.5, "barrier": 1.2, "sigma": 0.8, "payout": 0.08, "steps": 512, "paths": 100_000}
EXCHANGE = {"s0_a": 1.5, "s0_b": 1.0, "sigma_a": 0.8, "sigma_b": 0.3, "rho": 0.25, "paths": 1_000_000}

# scenario-replay sizes.
POOL_EVENTS = 20_000
POOL_LPS = 7
POOL_FEE = 0.003
SWAP_MATURITY_DAYS = 365
SWAP_TICKS_PER_DAY = 50


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_json(path, obj):
    _write(path, json.dumps(obj, indent=1) + "\n")


def _config(directory, name, config):
    path = os.path.join(directory, f"{name}.json")
    _write_json(path, config)
    return path


# ---------------------------------------------------------------------------
# daily-reports
# ---------------------------------------------------------------------------


def _validators(directory, seed):
    rng = _rng(seed, 1)
    days = np.arange(DAYS)
    start = 32.5 + 2.0 * rng.random(VALIDATORS)
    apr = rng.normal(0.05, 0.01, VALIDATORS)
    noise = rng.normal(0.0, 0.002, (VALIDATORS, DAYS))
    growth = 1.0 + apr[:, None] / 365.0 + noise / 365.0
    growth[:, 0] = 1.0
    balance = start[:, None] * np.cumprod(growth, axis=1)

    exits = rng.choice(VALIDATORS, size=round(EXIT_SHARE * VALIDATORS), replace=False)
    exit_day = np.full(VALIDATORS, DAYS)
    exit_day[exits] = rng.integers(60, 300, size=exits.size)
    active = days[None, :] < exit_day[:, None]
    # An exited validator's balance no longer earns.
    frozen = np.take_along_axis(balance, np.minimum(exit_day, DAYS - 1)[:, None] - 1, axis=1)
    balance = np.where(active, balance, frozen)

    present = rng.random((VALIDATORS, DAYS)) >= MISSING_SHARE

    lines = ["validator_id,timestamp,balance,state"]
    parsed = np.full((VALIDATORS, DAYS), np.nan)
    for d in days:
        ts = YEAR_START + int(d) * SECONDS_PER_DAY
        for v in range(VALIDATORS):
            if not present[v, d]:
                continue
            text = f"{balance[v, d]:.9f}"
            parsed[v, d] = float(text)
            state = "Active" if active[v, d] else "Exited"
            lines.append(f"v{v:04d},{ts},{text},{state}")
    _write(os.path.join(directory, "validators.csv"), "\n".join(lines) + "\n")

    # Window (d-1, d] is eligible when both midnight snapshots exist, both are
    # Active and neither balance is under the 32-token floor.
    ok = present & active & (parsed >= 32.0)
    eligible = ok[:, :-1] & ok[:, 1:]
    paired = present[:, :-1] & present[:, 1:]
    window_days = np.flatnonzero(paired.any(axis=0)) + 1
    tried = VALIDATORS * window_days.size
    truth = {
        "balances": parsed,
        "eligible": eligible,
        "window_days": window_days,
    }
    counts = {
        "validators": VALIDATORS,
        "validator_days": int(present.sum()),
        "exited_validators": int(exits.size),
        "missing_snapshots": int((~present).sum()),
        "validator_days_tried": int(tried),
        "validator_days_eligible": int(eligible[:, window_days - 1].sum()),
    }
    return truth, counts, len(lines) - 1


def _spot_path(rng, steps, dt_years, s0=40_000.0, sigma=0.6):
    z = rng.standard_normal(steps)
    return s0 * np.exp(np.cumsum(sigma * math.sqrt(dt_years) * z - 0.5 * sigma**2 * dt_years))


def _option_chain(directory, seed):
    rng = _rng(seed, 2)
    spot = _spot_path(rng, DAYS, 1 / 365)
    rate = 0.03 + np.cumsum(rng.normal(0.0, 0.0005, DAYS))
    lines = ["quote_time,expiry,strike,call,put,underlying"]
    rows = []
    violators = 0
    for d in range(DAYS):
        qt = YEAR_START + d * SECONDS_PER_DAY + 8 * 3600
        s = round(float(spot[d]), 2)
        for tenor_days in CHAIN_TENORS_DAYS:
            expiry = qt + tenor_days * SECONDS_PER_DAY
            tenor = tenor_days / 365.0
            df = math.exp(-rate[d] * tenor)
            for m in CHAIN_MONEYNESS:
                k = float(round(s * m, -2))
                put = max(k * df - s, 0.0) + s * 0.05 * math.sqrt(tenor) * rng.uniform(0.5, 1.5)
                call = put + s - k * df
                if rng.random() < PARITY_VIOLATION_SHARE:
                    # A crossed call: S - C + P < 0, so the discount factor is negative.
                    call = s + put + s * rng.uniform(0.001, 0.01)
                    violators += 1
                row = (qt, expiry, k, round(call, 6), round(put, 6), s)
                lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
                rows.append(row)
    _write(os.path.join(directory, "option_chain.csv"), "\n".join(lines) + "\n")
    chain = np.array(rows, dtype=float)
    return {"chain": chain, "violators": violators}, {"quotes": len(rows), "parity_violations": violators}


def _funding_quotes(directory, seed):
    rng = _rng(seed, 3)
    n = DAYS * SECONDS_PER_DAY // FUNDING_INTERVAL_S
    index = np.round(_spot_path(rng, n, FUNDING_INTERVAL_S / (365 * SECONDS_PER_DAY)), 2)
    mark = np.round(index * (1.0 + rng.normal(0.0, 0.0008, n)), 2)
    lines = ["timestamp,mark,index"]
    for i in range(n):
        lines.append(f"{YEAR_START + i * FUNDING_INTERVAL_S},{float(mark[i])!r},{float(index[i])!r}")
    _write(os.path.join(directory, "funding_quotes.csv"), "\n".join(lines) + "\n")
    return {"mark": mark, "index": index}, n


def _basis_quotes(directory, seed):
    rng = _rng(seed, 4)
    n = DAYS * SECONDS_PER_DAY // BASIS_INTERVAL_S
    perp = np.round(_spot_path(rng, n, BASIS_INTERVAL_S / (365 * SECONDS_PER_DAY)), 2)
    quarter = 91 * SECONDS_PER_DAY
    times = YEAR_START + np.arange(n) * BASIS_INTERVAL_S
    # Roll to the next quarterly expiry a day before the current one.
    expiry = YEAR_START + (((times - YEAR_START) // quarter) + 1) * quarter
    expiry = np.where(expiry - times < SECONDS_PER_DAY, expiry + quarter, expiry)
    tenor = (expiry - times) / (365.0 * SECONDS_PER_DAY)
    future = np.round(perp * np.exp(rng.normal(0.06, 0.01, n) * tenor), 2)
    lines = ["timestamp,perp,future,expiry"]
    for i in range(n):
        lines.append(f"{times[i]},{float(perp[i])!r},{float(future[i])!r},{expiry[i]}")
    _write(os.path.join(directory, "basis_quotes.csv"), "\n".join(lines) + "\n")
    return {"times": times.astype(float), "perp": perp, "future": future, "expiry": expiry.astype(float)}, n


def daily_reports(directory, seed):
    stake, stake_counts, stake_rows = _validators(directory, seed)
    chain, chain_counts = _option_chain(directory, seed)
    funding, funding_rows = _funding_quotes(directory, seed)
    basis, basis_rows = _basis_quotes(directory, seed)
    jobs = [
        ("stake", _config(directory, "stake", {"command": "stake", "balances": "validators.csv"})),
        ("implied-rate", _config(directory, "implied_rate",
                                 {"command": "implied-rate", "chain": "option_chain.csv", "window": 7})),
        ("perp-funding", _config(directory, "perp_funding",
                                 {"command": "perp-funding", "quotes": "funding_quotes.csv", "variant": "deribit"})),
        ("perp-basis", _config(directory, "perp_basis",
                               {"command": "perp-basis", "quotes": "basis_quotes.csv", "window": 7})),
    ]
    counts = {**stake_counts, **chain_counts, "funding_quotes": funding_rows, "basis_quotes": basis_rows}
    rows = stake_rows + counts["quotes"] + funding_rows + basis_rows
    truth = {"stake": stake, "implied-rate": chain, "perp-funding": funding, "perp-basis": basis}
    return jobs, truth, counts, rows


# ---------------------------------------------------------------------------
# mc-oracle
# ---------------------------------------------------------------------------


def mc_oracle(directory, seed):
    ot, ex = ONE_TOUCH, EXCHANGE
    one_touch = {
        "command": "oracle",
        "payoff": "one_touch",
        "barrier": ot["barrier"],
        "payout": ot["payout"],
        "discount_rate": 0.0,
        "bridge": True,
        "spec": {"s0_a": ot["s0"], "sigma_a": ot["sigma"], "tenor": 1.0, "steps": ot["steps"],
                 "paths": ot["paths"], "seed": 2 * seed + 1},
    }
    exchange = {
        "command": "oracle",
        "payoff": "exchange",
        "discount_rate": 0.0,
        "spec": {"s0_a": ex["s0_a"], "s0_b": ex["s0_b"], "sigma_a": ex["sigma_a"], "sigma_b": ex["sigma_b"],
                 "rho": ex["rho"], "tenor": 1.0, "steps": 1, "paths": ex["paths"], "seed": 2 * seed + 2},
    }
    jobs = [
        ("oracle-one-touch", _config(directory, "oracle_one_touch", one_touch)),
        ("oracle-exchange", _config(directory, "oracle_exchange", exchange)),
    ]
    path_steps = ot["paths"] * ot["steps"] + ex["paths"]
    truth = {"oracle-one-touch": one_touch, "oracle-exchange": exchange}
    counts = {"mc_jobs": 2, "path_steps": path_steps}
    return jobs, truth, counts, path_steps


# ---------------------------------------------------------------------------
# scenario-replay
# ---------------------------------------------------------------------------


class ReplicaPool:
    """Float constant-product pool: fee kept in reserves, shares minted pro rata."""

    def __init__(self, x, y, fee):
        self.x, self.y, self.fee = x, y, fee
        self.shares = math.sqrt(x * y)

    def sell_x(self, dx):
        self.x, self.y = self.x + dx, self.x * self.y / (self.x + dx * (1 - self.fee))

    def sell_y(self, dy):
        self.x, self.y = self.x * self.y / (self.y + dy * (1 - self.fee)), self.y + dy

    def align(self, price):
        """Trade until (1 - fee) times the post-trade spot meets ``price``.

        Selling dx moves the pool to u = x + (1-f) dx on the curve with
        x' = (u - f x) / (1-f); the target (1-f) k / u = p x' gives
        u^2 - f x u - (1-f)^2 k / p = 0. Buying x is the mirror image in y.
        Returns True when a trade happened.
        """
        g = 1.0 - self.fee
        spot = self.y / self.x
        k = self.x * self.y
        if price < g * spot:
            u = (self.fee * self.x + math.sqrt((self.fee * self.x) ** 2 + 4 * g * g * k / price)) / 2
            self.sell_x((u - self.x) / g)
            return True
        if price > spot / g:
            w = (self.fee * self.y + math.sqrt((self.fee * self.y) ** 2 + 4 * g * g * k * price)) / 2
            self.sell_y((w - self.y) / g)
            return True
        return False

    def add(self, dx, dy):
        self.shares += self.shares * dx / self.x
        self.x += dx
        self.y += dy

    def remove(self, shares):
        frac = shares / self.shares
        self.x -= self.x * frac
        self.y -= self.y * frac
        self.shares -= shares


def _pool_scenario(rng):
    pool = ReplicaPool(1_000_000.0, 1_000_000.0, POOL_FEE)
    holdings = {}  # position -> shares held, as the replica sees them
    events = []
    actions = {a: 0 for a in ("add", "remove", "swap_x_for_y", "swap_y_for_x", "external_price")}
    arbitrage_trades = 0
    names = [f"lp{i}" for i in range(1, POOL_LPS + 1)]
    for _ in range(POOL_EVENTS):
        u = rng.random()
        if u < 0.6:
            if rng.random() < 0.5:
                amount = float(round(pool.x * rng.uniform(0.0005, 0.005), 6))
                events.append({"action": "swap_x_for_y", "amount": amount})
                pool.sell_x(amount)
            else:
                amount = float(round(pool.y * rng.uniform(0.0005, 0.005), 6))
                events.append({"action": "swap_y_for_x", "amount": amount})
                pool.sell_y(amount)
        elif u < 0.85:
            # Either well inside the no-trade band or well outside it, so the
            # trade decision never hinges on rounding.
            spot = pool.y / pool.x
            if rng.random() < 0.3:
                move = rng.uniform(-0.001, 0.001)
            else:
                move = rng.choice((-1.0, 1.0)) * rng.uniform(0.008, 0.02)
            price = float(spot * math.exp(move))
            events.append({"action": "external_price", "price": price})
            arbitrage_trades += pool.align(price)
        elif u < 0.95 or not holdings:
            name = names[int(rng.integers(len(names)))]
            dx = pool.x * rng.uniform(0.001, 0.01)
            dy = dx * (pool.y / pool.x)
            events.append({"action": "add", "dx": dx, "dy": dy, "position": name})
            before = pool.shares
            pool.add(dx, dy)
            holdings[name] = holdings.get(name, 0.0) + (pool.shares - before)
        else:
            name = sorted(holdings)[int(rng.integers(len(holdings)))]
            if rng.random() < 0.5:
                events.append({"action": "remove", "position": name, "shares": "all"})
                pool.remove(holdings.pop(name))
            else:
                shares = 0.5 * holdings[name]
                events.append({"action": "remove", "position": name, "shares": shares})
                pool.remove(shares)
                holdings[name] -= shares
        actions[events[-1]["action"]] += 1
    scenario = {"pool": {"reserve_x": 1_000_000.0, "reserve_y": 1_000_000.0, "fee": POOL_FEE}, "events": events}
    truth = {
        "events": len(events),
        "final_reserve_x": pool.x,
        "final_reserve_y": pool.y,
        "arbitrage_calls": actions["external_price"],
        "arbitrage_trades": arbitrage_trades,
    }
    counts = {f"pool_{a}": n for a, n in actions.items()}
    counts["pool_arbitrage_trades"] = arbitrage_trades
    return scenario, truth, counts


def _swap_scenario(rng):
    notional, margin = 1000, 200
    fixed_rate, floating_fixing, spread = 0.04, 0.03, 0.001
    ticks = SWAP_MATURITY_DAYS * SWAP_TICKS_PER_DAY
    # A reflected walk within +-5% of x0 never erodes a 20% margin to the
    # 25% threshold, so the swap runs to maturity.
    steps = rng.normal(0.0, 0.002, ticks)
    rate, events = 1.0, []
    for k in range(1, ticks + 1):
        rate = rate + steps[k - 1]
        if rate > 1.05:
            rate = 2.1 - rate
        elif rate < 0.95:
            rate = 1.9 - rate
        events.append({"time": round(k / SWAP_TICKS_PER_DAY, 2), "type": "tick", "rate": round(float(rate), 6)})
    legs = [
        {"payer": "A", "token": "beta", "notional": notional, "rate_type": "fixed",
         "rate": fixed_rate, "frequency_days": 1},
        {"payer": "B", "token": "alpha", "notional": notional, "rate_type": "floating",
         "spread": spread, "frequency_days": 7},
    ]
    scenario = {
        "agreement": {"notional_a": notional, "notional_b": notional, "x0": 1.0, "margin_a": margin,
                      "margin_b": margin, "threshold": 0.25, "maturity_time": SWAP_MATURITY_DAYS,
                      "legs": legs},
        "fixings": {"1": floating_fixing},
        "events": events,
    }

    def accruals(freq):
        ends = list(range(freq, SWAP_MATURITY_DAYS, freq)) + [SWAP_MATURITY_DAYS]
        starts = [0] + ends[:-1]
        return [Fraction(e - s, 365) for s, e in zip(starts, ends)]

    fixed = accruals(1)
    floating = accruals(7)
    fixed_paid = sum(notional * Fraction(str(fixed_rate)) * yf for yf in fixed)
    floating_paid = sum(notional * (Fraction(str(floating_fixing)) + Fraction(str(spread))) * yf
                        for yf in floating)
    truth = {
        "state": "matured",
        "token_totals": {"alpha": str(Fraction(notional + margin)), "beta": str(Fraction(notional + margin))},
        "balances": {
            "A_alpha": str(notional + margin + floating_paid),
            "B_alpha": str(-floating_paid),
            "contract_alpha": "0",
            "A_beta": str(-fixed_paid),
            "B_beta": str(notional + margin + fixed_paid),
            "contract_beta": "0",
        },
        # initiation (4) + one payment per accrual + reversal (2) + margin returns (2)
        "ledger_entries": 4 + len(fixed) + len(floating) + 4,
    }
    counts = {"swap_ticks": ticks, "swap_accruals": len(fixed) + len(floating)}
    return scenario, truth, counts


def scenario_replay(directory, seed):
    pool, pool_truth, pool_counts = _pool_scenario(_rng(seed, 5))
    swap, swap_truth, swap_counts = _swap_scenario(_rng(seed, 6))
    _write_json(os.path.join(directory, "pool_scenario.json"), pool)
    _write_json(os.path.join(directory, "swap_scenario.json"), swap)
    jobs = [
        ("amm", _config(directory, "amm", {"command": "amm", "scenario": "pool_scenario.json"})),
        ("xccy", _config(directory, "xccy", {"command": "xccy", "scenario": "swap_scenario.json"})),
    ]
    counts = {**pool_counts, **swap_counts}
    events = POOL_EVENTS + swap_counts["swap_ticks"] + swap_counts["swap_accruals"]
    return jobs, {"amm": pool_truth, "xccy": swap_truth}, counts, events


GENERATORS = {"daily-reports": daily_reports, "mc-oracle": mc_oracle, "scenario-replay": scenario_replay}
# What one unit of a workload's `work` count is, for work_per_s.
WORK_UNITS = {"daily-reports": "input CSV rows", "mc-oracle": "path-steps", "scenario-replay": "events"}


def digest(directory, mask=None) -> str:
    """sha256 over the sorted (name, bytes) of every file in ``directory``.

    Occurrences of ``mask`` (a directory path written into report provenance)
    are replaced first, so the digest does not depend on where inputs live.
    """
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        if mask:
            data = data.replace(os.fsencode(mask), b"$INPUTS")
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def generate(workload, directory, seed):
    """Write the workload's inputs into ``directory``.

    Returns (jobs, truth, counts, work) where jobs is a list of
    (job name, config path), truth holds the per-job ground truth, counts the
    controlled input properties and work the workload's unit count per pass.
    """
    os.makedirs(directory, exist_ok=True)
    return GENERATORS[workload](directory, seed)
