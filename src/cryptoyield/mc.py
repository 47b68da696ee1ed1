"""Monte Carlo pricing oracle for correlated two-asset geometric Brownian motion.

Used to validate the closed-form loan prices independently: terminal values
are sampled from the exact lognormal transition (no Euler bias), and barrier
hits use per-step simulation with a Brownian-bridge crossing correction.

Reproducibility: normals come from numpy's counter-based Philox4x64-10
generator (``numpy.random.Philox``), keyed per (seed, block). Paths are
generated in fixed-size blocks, each from its own stream, and block partials
combine in block order, so estimates are bit-identical for a given spec and
seed no matter how blocks would be scheduled across workers. numpy pins the
Philox bit stream across releases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Pairs per RNG block: terminal sampling uses a flat block, path simulation
# shrinks the block so block_pairs * steps stays within ~2M doubles.
_TERMINAL_BLOCK = 1 << 16
_PATH_BLOCK_BUDGET = 1 << 21
# Most doubles in the slab of upcoming normals that the first-passage kernel
# copies out for its live paths. A block is path-major, so reading one step
# for every path touches a cache line per path; a slab reads each line once
# for several steps (32 steps for 512-step paths) and fits a 2 MB cache.
_SLAB_DOUBLES = 1 << 18


@dataclass(frozen=True)
class GbmSpec:
    """Two correlated geometric Brownian motions plus simulation controls.

    drift_a/drift_b are the annualized drifts under the pricing measure;
    antithetic variates are on by default (paths must then be even).
    """

    s0_a: float
    s0_b: float = 1.0
    sigma_a: float = 0.0
    sigma_b: float = 0.0
    rho: float = 0.0
    drift_a: float = 0.0
    drift_b: float = 0.0
    T: float = 1.0
    steps: int = 1
    paths: int = 100_000
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        if self.s0_a <= 0 or self.s0_b <= 0:
            raise DomainError("initial values must be > 0")
        if self.sigma_a < 0 or self.sigma_b < 0:
            raise DomainError("volatilities must be >= 0")
        if not -1.0 <= self.rho <= 1.0:
            raise DomainError(f"correlation must be in [-1, 1], got {self.rho}")
        if self.T <= 0:
            raise DomainError(f"horizon must be > 0, got {self.T}")
        if self.steps < 1 or self.paths < 1:
            raise DomainError("steps and paths must be >= 1")
        if self.antithetic and self.paths % 2 != 0:
            raise DomainError("antithetic sampling needs an even path count")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error."""

    mean: float
    std_error: float
    paths: int

    def within(self, reference: float, n_se: float = 3.0) -> bool:
        """True if ``reference`` lies within n_se standard errors of the mean."""
        return abs(self.mean - reference) <= n_se * max(self.std_error, 1e-300)


def _block_generator(seed: int, block: int) -> np.random.Generator:
    key = (int(seed) % (1 << 64)) * (1 << 64) + block
    return np.random.Generator(np.random.Philox(key=key))


def _pair_blocks(total_pairs: int, block_pairs: int):
    start = 0
    block = 0
    while start < total_pairs:
        yield block, min(block_pairs, total_pairs - start)
        start += block_pairs
        block += 1


def _terminal_from_normals(spec: GbmSpec, z: np.ndarray):
    """Exact lognormal terminal values from (m, 2) standard normals."""
    t = spec.T
    za = z[:, 0]
    zb = spec.rho * z[:, 0] + math.sqrt(1.0 - spec.rho**2) * z[:, 1]
    a = spec.s0_a * np.exp(
        (spec.drift_a - 0.5 * spec.sigma_a**2) * t + spec.sigma_a * math.sqrt(t) * za
    )
    b = spec.s0_b * np.exp(
        (spec.drift_b - 0.5 * spec.sigma_b**2) * t + spec.sigma_b * math.sqrt(t) * zb
    )
    return a, b


def _terminal_batches(spec: GbmSpec):
    """Yield (a, b) terminal arrays per RNG block; antithetic pairs adjacent halves."""
    if spec.antithetic:
        total_pairs = spec.paths // 2
        for block, m in _pair_blocks(total_pairs, _TERMINAL_BLOCK):
            z = _block_generator(spec.seed, block).standard_normal((m, 2))
            a_pos, b_pos = _terminal_from_normals(spec, z)
            a_neg, b_neg = _terminal_from_normals(spec, -z)
            yield np.concatenate([a_pos, a_neg]), np.concatenate([b_pos, b_neg])
    else:
        for block, m in _pair_blocks(spec.paths, _TERMINAL_BLOCK):
            z = _block_generator(spec.seed, block).standard_normal((m, 2))
            yield _terminal_from_normals(spec, z)


def simulate_terminal(spec: GbmSpec):
    """Sample paired terminal values (a, b) for every path.

    With antithetic sampling each block lays out the mirrored paths after the
    plain ones; the layout is deterministic given the spec.
    """
    parts_a, parts_b = [], []
    for a, b in _terminal_batches(spec):
        parts_a.append(a)
        parts_b.append(b)
    return np.concatenate(parts_a), np.concatenate(parts_b)


def _estimate_from_values(values: list, discount: float, paths: int) -> McEstimate:
    v = np.concatenate(values)
    mean = float(np.mean(v))
    if v.size > 1:
        se = float(np.std(v, ddof=1)) / math.sqrt(v.size)
    else:
        se = 0.0
    return McEstimate(mean=discount * mean, std_error=discount * se, paths=paths)


def price_payoff(spec: GbmSpec, payoff, discount_rate: float = 0.0) -> McEstimate:
    """Discounted expectation of payoff(a_T, b_T) with standard error.

    payoff must be vectorized over numpy arrays and of finite variance on
    the sampled support. With antithetic sampling the standard error is
    computed over pair means, never over raw paths.
    """
    discount = math.exp(-discount_rate * spec.T)
    values = []
    for a, b in _terminal_batches(spec):
        p = np.asarray(payoff(a, b), dtype=float)
        if spec.antithetic:
            m = p.size // 2
            p = 0.5 * (p[:m] + p[m:])
        values.append(p)
    return _estimate_from_values(values, discount, spec.paths)


def _hit_contributions(spec: GbmSpec, barrier: float, discount_rate: float, bridge: bool, z):
    """Per-path discounted first-hit weights for one block of normals.

    Walks the log of the a-leg on the time grid keeping, per path, the
    survival probability and the accumulated discounted crossing weight.
    Between grid points the Brownian-bridge crossing probability
    exp(-2 (x_i - b)(x_{i+1} - b) / (sigma^2 dt)) is added (hit time taken
    at mid-step); without the correction only grid-point breaches count,
    paid at the grid time.

    With antithetic sampling the mirrored paths (normals -z) are walked in
    the same arrays as the plain ones; the result holds the plain paths'
    weights, then the mirrored ones'. Each step does arithmetic only on the
    live paths, those not yet at or below the barrier on the grid. Stepping
    every path to maturity, a breach pays the path's remaining survival and
    sets it to zero, so every later term of its sum is +0.0; dropping the
    path changes no bit as long as the discount factor exp(-r t) is finite.
    """
    m, steps = z.shape
    dt = spec.T / steps
    sigma = spec.sigma_a
    nu = spec.drift_a - 0.5 * sigma**2
    b_log = math.log(barrier / spec.s0_a)
    vol_step = sigma * math.sqrt(dt)
    bridged = bridge and sigma > 0.0
    discounted = discount_rate != 0.0
    if discounted:
        mid_discount = np.exp(-discount_rate * ((np.arange(steps) + 0.5) * dt))

    paths = 2 * m if spec.antithetic else m
    contrib = np.zeros(paths)
    # Slot j holds live path pos[j], in no particular order; its normals are
    # row pos[j] % m of z, and vol[j] carries the antithetic sign.
    pos = np.arange(paths)
    vol = np.where(pos < m, vol_step, -vol_step)
    x = np.zeros(paths)
    survival = np.ones(paths)
    acc = np.zeros(paths)
    width = max(1, _SLAB_DOUBLES // paths)
    with np.errstate(over="ignore"):
        for i in range(steps):
            k = i % width
            if k == 0:
                slab = z[pos % m, i : i + width]
            x_next = x + nu * dt
            x_next += slab[:, k] * vol
            hit = x_next <= b_log
            dead = hit.nonzero()[0]
            if bridged:
                p_cross = np.exp(-2.0 * (x - b_log) * (x_next - b_log) / (sigma**2 * dt))
                # A live path starts the step above the barrier, so unless it
                # breaches its exponent is <= 0 and no cap at 1 is needed.
                p_cross[dead] = 1.0
                weight = survival * p_cross
                if discounted:
                    weight *= mid_discount[i]
                    if dead.size:
                        x_hit = x[dead]
                        frac = np.clip(
                            (x_hit - b_log) / np.maximum(x_hit - x_next[dead], 1e-300), 0.0, 1.0
                        )
                        weight[dead] = survival[dead] * np.exp(-discount_rate * ((i + frac) * dt))
                acc += weight
                survival *= 1.0 - p_cross
            else:
                # Survival stays exactly 1 until the grid breach, which pays in full.
                acc[dead] += np.exp(-discount_rate * ((i + 1.0) * dt))
            x = x_next
            if dead.size:
                contrib[pos[dead]] = acc[dead]
                live = x.size - dead.size
                if not live:
                    return contrib
                # Move the live paths beyond the new end into the freed slots.
                fill = dead[dead < live]
                src = live + (~hit[live:]).nonzero()[0]
                for a in (x, survival, acc, pos, vol, slab):
                    a[fill] = a[src]
                x, survival, acc = x[:live], survival[:live], acc[:live]
                pos, vol, slab = pos[:live], vol[:live], slab[:live]
    contrib[pos] = acc
    return contrib


def first_passage_value(
    spec: GbmSpec,
    barrier: float,
    payout: float,
    discount_rate: float = 0.0,
    bridge: bool = True,
) -> McEstimate:
    """Value of a payout paid when the a-leg first touches ``barrier`` from above.

    The a-leg of the spec (s0_a, sigma_a, drift_a) is the monitored process;
    the b-leg is ignored. An at-or-below start pays immediately.
    """
    if barrier <= 0:
        raise DomainError(f"barrier must be > 0, got {barrier}")
    if spec.s0_a <= barrier:
        return McEstimate(mean=payout, std_error=0.0, paths=spec.paths)

    block_pairs = max(1, _PATH_BLOCK_BUDGET // spec.steps)
    total = spec.paths // 2 if spec.antithetic else spec.paths
    values = []
    for block, m in _pair_blocks(total, block_pairs):
        z = _block_generator(spec.seed, block).standard_normal((m, spec.steps))
        c = _hit_contributions(spec, barrier, discount_rate, bridge, z)
        # Free this block's normals before the next block draws its own, so
        # one block's worth is resident at a time, not two.
        del z
        values.append(0.5 * (c[:m] + c[m:]) if spec.antithetic else c)
    est = _estimate_from_values(values, 1.0, spec.paths)
    return McEstimate(mean=payout * est.mean, std_error=abs(payout) * est.std_error, paths=spec.paths)
