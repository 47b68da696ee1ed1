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

Both oracles draw each block in row chunks from the block's one generator,
which yields the same bits as drawing the block at once; a terminal-value
chunk is its whole block. One helper thread draws the next chunk into a
second buffer while the caller works on the current one, so drawing and
computing overlap on two cores; values still combine in block and row order.
The first-passage kernel evaluates the bridge exponentials without numpy's
slow path for tiny results (``_exp_nonpositive``) and returns the same bits
as ``np.exp``.

Both oracles write each block's values (pair means with antithetic
sampling) into one preallocated array, and the standard error repeats
``np.std``'s steps in place in it: the bits of ``np.std`` over the joined
blocks, holding one double per pair beside the current block.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from itertools import starmap

import numpy as np

from .errors import DomainError

# Pairs per RNG block: terminal sampling uses a flat block, path simulation
# shrinks the block so block_pairs * steps stays within ~2M doubles.
_TERMINAL_BLOCK = 1 << 16
_PATH_BLOCK_BUDGET = 1 << 21
# Longest path: one row of normals fits half the block budget, so the two
# draw buffers never exceed one block plus one row.
MAX_STEPS = 1 << 20
# Most paths: one double per pair is then 1 PiB, so no larger count could be
# allocated, and numpy refuses a far larger one with a bare ValueError.
MAX_PATHS = 1 << 48
# Most doubles in one row chunk of normals (1024 rows of 512 steps). An
# oracle holds two chunks, the one it works on and the one being drawn, in
# place of a whole block; a terminal-value block (2 x 2**16) fits one chunk.
_DRAW_DOUBLES = 1 << 19
# Most doubles in one (steps x live paths) matrix of the first-passage
# kernel. A chunk of normals is path-major, so the kernel copies each live
# path's next few steps out once (a slab) and walks them step-major; the
# matrices of one kernel chunk stay within a 2 MB cache.
_SLAB_DOUBLES = 1 << 15
# np.exp takes a slow path once its result leaves the normal range
# (arguments below about -708), and returns +0.0 below about -745.13.
_EXP_FAST = -700.0
_EXP_ZERO = -746.0


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
        values = (self.s0_a, self.s0_b, self.sigma_a, self.sigma_b, self.drift_a, self.drift_b, self.T)
        if not all(math.isfinite(v) for v in values):
            raise DomainError("initial values, volatilities, drifts and horizon must be finite")
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
        if self.steps > MAX_STEPS:
            raise DomainError(f"steps must be <= {MAX_STEPS}, got {self.steps}")
        if self.paths > MAX_PATHS:
            raise DomainError(f"paths must be <= {MAX_PATHS}, got {self.paths}")
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


def _row_chunks(seed: int, total: int, block_pairs: int, rows: int):
    """(block generator, row count) of every row chunk, in block and row order."""
    for block, m in _pair_blocks(total, block_pairs):
        generator = _block_generator(seed, block)
        for start in range(0, m, rows):
            yield generator, min(rows, m - start)


def _normal_chunks(seed: int, total: int, block_pairs: int, width: int):
    """Yield every block's normals as (rows, width) chunks, in block and row order.

    A block's chunks come from the block's one generator, so together they
    hold the bits of drawing the block at once. A chunk is a view of one of
    two buffers and is valid until the next one is asked for: while the
    caller works on it, one helper thread draws the next chunk into the
    other buffer. The helper allocates nothing, a failed draw is raised
    here, and closing the generator waits for the helper to end.
    """
    from concurrent.futures import ThreadPoolExecutor  # here, as every command imports mc and only the oracles draw

    rows = min(block_pairs, max(1, _DRAW_DOUBLES // width))
    buffers = (np.empty((rows, width)), np.empty((rows, width)))
    with ThreadPoolExecutor(1) as helper:
        drawn = None
        for k, (generator, r) in enumerate(_row_chunks(seed, total, block_pairs, rows)):
            drawing = helper.submit(generator.standard_normal, out=buffers[k % 2][:r])
            if drawn is not None:
                yield drawn.result()
            drawn = drawing
        yield drawn.result()


def _pairs(spec: GbmSpec) -> int:
    """The number of path pairs, or of paths without antithetic sampling."""
    return spec.paths // 2 if spec.antithetic else spec.paths


def _values(spec: GbmSpec, block_pairs: int, width: int, legs):
    """Per-pair values of the spec's paths, one chunk of normals at a time.

    ``legs(z)`` gives the values of the paths whose normals are the rows of
    the chunk ``z``, then with antithetic sampling those of their mirrors;
    a pair's value is the mean of its two paths'.
    """
    values = np.empty(_pairs(spec))
    start = 0
    with closing(_normal_chunks(spec.seed, values.size, block_pairs, width)) as chunks:
        for z in chunks:
            out = values[start : start + z.shape[0]]
            start += z.shape[0]
            plain, *mirrored = legs(z)
            out[...] = plain
            if mirrored:
                out += mirrored[0]
                out *= 0.5
    return values


def _terminal_from_normals(spec: GbmSpec, z: np.ndarray):
    """Exact lognormal terminal values from (m, 2) standard normals, each leg computed in place."""
    t = spec.T
    a = np.multiply(z[:, 0], spec.sigma_a * math.sqrt(t))
    a += (spec.drift_a - 0.5 * spec.sigma_a**2) * t
    np.exp(a, out=a)
    a *= spec.s0_a
    b = np.multiply(z[:, 1], math.sqrt(1.0 - spec.rho**2))
    b += spec.rho * z[:, 0]
    b *= spec.sigma_b * math.sqrt(t)
    b += (spec.drift_b - 0.5 * spec.sigma_b**2) * t
    np.exp(b, out=b)
    b *= spec.s0_b
    return a, b


def _terminal_legs(spec: GbmSpec, z: np.ndarray):
    """Yield the (a, b) terminal values of the paths with normals ``z``, then with antithetic sampling those of their mirrors.

    The mirrored legs come from ``z`` negated in place.
    """
    yield _terminal_from_normals(spec, z)
    if spec.antithetic:
        yield _terminal_from_normals(spec, np.negative(z, out=z))


def simulate_terminal(spec: GbmSpec):
    """Sample paired terminal values (a, b) for every path.

    With antithetic sampling each block lays out the mirrored paths after the
    plain ones; the layout is deterministic given the spec.
    """
    legs = []
    with closing(_normal_chunks(spec.seed, _pairs(spec), _TERMINAL_BLOCK, 2)) as chunks:
        for z in chunks:
            legs.extend(_terminal_legs(spec, z))
    a, b = zip(*legs)
    return np.concatenate(a), np.concatenate(b)


def _estimate_from_values(v: np.ndarray, discount: float, paths: int) -> McEstimate:
    """Mean and standard error of the values ``v``, which it overwrites.

    The mean is np.mean's; the standard error takes np.std(ddof=1)'s own
    steps in place in ``v``, so it has np.std's bits and no temporaries.
    """
    mean = float(np.mean(v))
    se = 0.0
    if v.size > 1:
        centre = np.sum(v, keepdims=True)
        np.true_divide(centre, v.size, out=centre)
        np.subtract(v, centre, out=v)
        np.square(v, out=v)
        se = math.sqrt(np.sum(v) / (v.size - 1)) / math.sqrt(v.size)
    return McEstimate(mean=discount * mean, std_error=discount * se, paths=paths)


def price_payoff(spec: GbmSpec, payoff, discount_rate: float = 0.0) -> McEstimate:
    """Discounted expectation of payoff(a_T, b_T) with standard error.

    payoff must be vectorized over numpy arrays and of finite variance on
    the sampled support. With antithetic sampling the standard error is
    computed over pair means, never over raw paths.
    """
    values = _values(spec, _TERMINAL_BLOCK, 2, lambda z: starmap(payoff, _terminal_legs(spec, z)))
    return _estimate_from_values(values, math.exp(-discount_rate * spec.T), spec.paths)


def _exp_nonpositive(e):
    """np.exp(min(e, 0)) bit for bit, for a contiguous array ``e``.

    np.exp costs ~1-3 ns an element on [_EXP_FAST, 0] but ~20-170 ns on
    arguments from about -708 down past the underflow to +0.0. So every
    argument is clipped into [_EXP_FAST, 0] first; then the results below
    _EXP_ZERO are set to +0.0, and np.exp itself redoes the few in the band
    between. np.exp gives an element the same bits wherever it sits in the
    array, so this is exact.
    """
    out = np.exp(np.clip(e, _EXP_FAST, 0.0))
    nonzero = e >= _EXP_ZERO
    out *= nonzero
    band = np.flatnonzero(nonzero & (e < _EXP_FAST))
    if band.size:
        out.reshape(-1)[band] = np.exp(e.reshape(-1)[band])
    return out


def _hit_contributions(spec: GbmSpec, barrier: float, discount_rate: float, bridge: bool, z):
    """Per-path discounted first-hit weights for one chunk of normals.

    Walks the log of the a-leg on the time grid keeping, per path, the
    survival probability and the accumulated discounted crossing weight.
    Between grid points the Brownian-bridge crossing probability
    exp(-2 (x_i - b)(x_{i+1} - b) / (sigma^2 dt)) is added (hit time taken
    at mid-step); without the correction only grid-point breaches count,
    paid at the grid time.

    With antithetic sampling the mirrored paths (normals -z) are walked in
    the same arrays as the plain ones; the result holds the plain paths'
    weights, then the mirrored ones'. The walk goes a few steps at a time:
    for the paths live at the start of those steps it builds the
    (steps + 1, live) matrix of log-prices, finds each path's first grid
    breach, and sums survival and weights row by row in step order. The
    exponentials are capped at 1, which is what a breach step gets. A breach
    pays the path's remaining survival and sets it to zero, so every later
    term of its sum is +0.0; the path is dropped at the end of the steps,
    which changes no bit as long as the discount factor exp(-r t) is finite.
    """
    m, steps = z.shape
    dt = spec.T / steps
    sigma = spec.sigma_a
    nu_dt = (spec.drift_a - 0.5 * sigma**2) * dt
    b_log = math.log(barrier / spec.s0_a)
    vol_step = sigma * math.sqrt(dt)
    bridged = bridge and sigma > 0.0
    discounted = discount_rate != 0.0
    if discounted:
        mid_discount = np.exp(-discount_rate * ((np.arange(steps) + 0.5) * dt))

    paths = 2 * m if spec.antithetic else m
    contrib = np.zeros(paths)
    # Lane j holds live path pos[j]; its normals are row pos[j] % m of z,
    # and vol[j] carries the antithetic sign.
    pos = np.arange(paths)
    row = pos % m
    vol = np.where(pos < m, vol_step, -vol_step)
    x = np.zeros(paths)
    survival = np.ones(paths)
    acc = np.zeros(paths)
    i = 0
    with np.errstate(over="ignore"):
        while i < steps:
            live = pos.size
            w = min(steps - i, max(1, _SLAB_DOUBLES // live))
            slab = np.take(z[:, i : i + w], row, axis=0)
            step = np.multiply(slab.T, vol, out=np.empty((w, live)))
            xs = np.empty((w + 1, live))
            xs[0] = x
            for j in range(w):
                np.add(xs[j], nu_dt, out=xs[j + 1])
                xs[j + 1] += step[j]
            d = np.subtract(xs, b_log)
            hit = d[1:] <= 0.0
            breached = hit.any(axis=0)
            dead = breached.nonzero()[0]
            at = hit[:, dead].argmax(axis=0)  # each breached path's first breach
            if bridged:
                p_cross = np.multiply(d[:-1], -2.0)
                p_cross *= d[1:]
                p_cross /= sigma**2 * dt
                # A breach starts above the barrier and ends at or below it, so
                # its exponent is >= 0 and its crossing probability exactly 1.
                p_cross = _exp_nonpositive(p_cross)
                s = np.empty((w + 1, live))
                s[0] = survival
                keep = np.subtract(1.0, p_cross)
                for j in range(w):
                    np.multiply(s[j], keep[j], out=s[j + 1])
                weight = np.multiply(s[:-1], p_cross, out=keep)
                if discounted:
                    weight *= mid_discount[i : i + w, None]
                    if dead.size:
                        frac = np.clip(d[at, dead] / np.maximum(xs[at, dead] - xs[at + 1, dead], 1e-300), 0.0, 1.0)
                        weight[at, dead] = s[at, dead] * np.exp(-discount_rate * ((i + at + frac) * dt))
                for j in range(w):
                    acc += weight[j]
                survival = s[w]
            else:
                # Survival stays exactly 1 until the grid breach, which pays in full.
                acc[dead] += np.exp(-discount_rate * ((i + at + 1.0) * dt))
            x = xs[w]
            i += w
            if dead.size:
                contrib[pos[dead]] = acc[dead]
                alive = ~breached
                if not alive.any():
                    return contrib
                x, survival, acc = x[alive], survival[alive], acc[alive]
                pos, row, vol = pos[alive], row[alive], vol[alive]
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

    def legs(z):  # the kernel walks the mirrored paths after the plain ones
        c = _hit_contributions(spec, barrier, discount_rate, bridge, z)
        return np.split(c, 2) if spec.antithetic else (c,)

    values = _values(spec, max(1, _PATH_BLOCK_BUDGET // spec.steps), spec.steps, legs)
    est = _estimate_from_values(values, 1.0, spec.paths)
    return McEstimate(mean=payout * est.mean, std_error=abs(payout) * est.std_error, paths=spec.paths)
