"""Constant-product market maker pool with LP accounting and impermanent loss.

The pool quotes from xy = k: a swap of dx (after the fee) moves the reserves
along the hyperbola, so the output is dy = y - k/(x + dx_eff). Fees stay in
the pool, which is why the reserve product never decreases and LP exits pay
"the pool share plus accrued fees" in one withdrawal.

Numeric modes: reserves, fee and trade amounts may be floats (production) or
``fractions.Fraction`` (exact test mode). All pool mutations use only field
arithmetic, so in Fraction mode the invariants (product monotonicity, pro
rata exactness, conservation) hold exactly, not just to rounding.

Prices are always quoted as token-y units per token-x. A pool is a mutable
single-writer state machine; distinct pools are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, LifecycleError, RatioError

FEE_TIERS = (0.0005, 0.003, 0.01)

# Relative tolerance for the add-liquidity ratio match; off-ratio
# submissions are rejected, not partially filled.
RATIO_TOLERANCE = 1e-9


def _sqrt(value):
    """Square root preserving exact arithmetic when the input allows it."""
    if isinstance(value, Fraction) or isinstance(value, int):
        frac = Fraction(value)
        rn = math.isqrt(frac.numerator)
        rd = math.isqrt(frac.denominator)
        if rn * rn == frac.numerator and rd * rd == frac.denominator:
            root = Fraction(rn, rd)
            return root if isinstance(value, Fraction) else int(root) if root.denominator == 1 else root
        if isinstance(value, Fraction):
            return Fraction(math.sqrt(float(value)))
    return math.sqrt(value)


class SwapReceipt(NamedTuple):
    """Execution record of a single swap (immutable).

    execution_price is the pre-fee average rate (y per x) actually obtained
    on the curve; the fee is reported separately in fee_paid (in the input
    token). It always lies between the spot prices before and after.
    """

    direction: str
    amount_in: object
    amount_out: object
    fee_paid: object
    execution_price: object
    spot_price_before: object
    spot_price_after: object


@dataclass(frozen=True)
class LpPosition:
    """An LP's claim: shares held plus what was deposited at entry.

    entry_reserves are the token amounts the LP contributed (its claim on
    the reserves at entry); entry_prices are the numeraire prices of the two
    tokens then, used for absolute PnL accounting.
    """

    shares: object
    entry_reserves: tuple
    entry_prices: tuple = (None, None)


class Pool:
    """Mutable CPMM pool state. Use create_pool() to open one."""

    def __init__(self, reserve_x, reserve_y, fee, total_shares, gas_cost=0):
        self.reserve_x = reserve_x
        self.reserve_y = reserve_y
        self.fee = fee
        self.total_shares = total_shares
        self.cumulative_fees_x = 0 * reserve_x
        self.cumulative_fees_y = 0 * reserve_y
        self.gas_cost = gas_cost

    @property
    def live(self) -> bool:
        return self.total_shares > 0

    def _require_live(self):
        if not self.live:
            raise LifecycleError("pool has been fully withdrawn")

    @property
    def product(self):
        return self.reserve_x * self.reserve_y

    def spot_price(self):
        """Marginal exchange rate, y per x."""
        self._require_live()
        return self.reserve_y / self.reserve_x

    # -- liquidity provision ------------------------------------------------

    def add_liquidity(self, dx, dy, entry_prices=(None, None)) -> LpPosition:
        """Deposit at the pool ratio; mints shares pro rata.

        Off-ratio submissions (beyond 1e-9 relative) are rejected. The spot
        price is unchanged by construction.
        """
        self._require_live()
        if dx < 0 or dy < 0:
            raise DomainError("deposit amounts must be >= 0")
        if dx == 0 and dy == 0:
            return LpPosition(shares=0 * self.total_shares, entry_reserves=(dx, dy), entry_prices=entry_prices)
        mismatch = abs(dx * self.reserve_y - dy * self.reserve_x)
        if mismatch > RATIO_TOLERANCE * dx * self.reserve_y:
            raise RatioError(
                f"deposit ratio {dx}:{dy} does not match pool ratio "
                f"{self.reserve_x}:{self.reserve_y}"
            )
        minted = self.total_shares * dx / self.reserve_x
        self.reserve_x = self.reserve_x + dx
        self.reserve_y = self.reserve_y + dy
        self.total_shares = self.total_shares + minted
        return LpPosition(shares=minted, entry_reserves=(dx, dy), entry_prices=entry_prices)

    def remove_liquidity(self, shares):
        """Burn shares for the pro rata slice of both reserves (fees included)."""
        self._require_live()
        if shares < 0 or shares > self.total_shares:
            raise DomainError(f"shares {shares} outside [0, {self.total_shares}]")
        if shares == 0:
            return (0 * self.reserve_x, 0 * self.reserve_y)
        if shares == self.total_shares:
            # Full withdrawal returns the reserves verbatim; the pro rata
            # expression would leave one-ulp dust in float mode.
            dx, dy = self.reserve_x, self.reserve_y
            self.reserve_x = 0 * dx
            self.reserve_y = 0 * dy
            self.total_shares = 0 * shares
            return (dx, dy)
        dx = self.reserve_x * shares / self.total_shares
        dy = self.reserve_y * shares / self.total_shares
        self.reserve_x = self.reserve_x - dx
        self.reserve_y = self.reserve_y - dy
        self.total_shares = self.total_shares - shares
        return (dx, dy)

    # -- swaps ---------------------------------------------------------------

    def swap_x_for_y(self, dx) -> SwapReceipt:
        """Send dx of token x, receive y along the curve; fee stays in the pool."""
        self._require_live()
        if dx <= 0:
            raise DomainError(f"swap amount must be > 0, got {dx}")
        spot_before = self.reserve_y / self.reserve_x
        dx_eff = dx * (1 - self.fee)
        fee_paid = dx - dx_eff
        k = self.reserve_x * self.reserve_y
        dy_out = self.reserve_y - k / (self.reserve_x + dx_eff)
        self.reserve_x = self.reserve_x + dx
        self.reserve_y = self.reserve_y - dy_out
        self.cumulative_fees_x = self.cumulative_fees_x + fee_paid
        return SwapReceipt(
            direction="x_for_y",
            amount_in=dx,
            amount_out=dy_out,
            fee_paid=fee_paid,
            execution_price=dy_out / dx_eff,
            spot_price_before=spot_before,
            spot_price_after=self.reserve_y / self.reserve_x,
        )

    def swap_y_for_x(self, dy) -> SwapReceipt:
        """Mirror swap: send dy of token y, receive x."""
        self._require_live()
        if dy <= 0:
            raise DomainError(f"swap amount must be > 0, got {dy}")
        spot_before = self.reserve_y / self.reserve_x
        dy_eff = dy * (1 - self.fee)
        fee_paid = dy - dy_eff
        k = self.reserve_x * self.reserve_y
        dx_out = self.reserve_x - k / (self.reserve_y + dy_eff)
        self.reserve_y = self.reserve_y + dy
        self.reserve_x = self.reserve_x - dx_out
        self.cumulative_fees_y = self.cumulative_fees_y + fee_paid
        return SwapReceipt(
            direction="y_for_x",
            amount_in=dy,
            amount_out=dx_out,
            fee_paid=fee_paid,
            execution_price=dy_eff / dx_out,
            spot_price_before=spot_before,
            spot_price_after=self.reserve_y / self.reserve_x,
        )

    # -- arbitrage -----------------------------------------------------------

    def arbitrage_to_price(self, external_price):
        """Profit-maximizing swap aligning the post-fee marginal price to external.

        Returns the receipt, or None when the external price sits inside the
        fee band [(1-f) s, s/(1-f)] around spot (no profitable trade) or the
        arbitrage profit does not cover gas_cost (profit measured in token y,
        the numeraire leg).
        """
        self._require_live()
        if external_price <= 0:
            raise DomainError(f"external price must be > 0, got {external_price}")
        p = float(external_price)
        rx, ry, f = float(self.reserve_x), float(self.reserve_y), float(self.fee)
        spot = ry / rx
        if (1.0 - f) * spot <= p <= spot / (1.0 - f):
            return None
        k = rx * ry
        exact = isinstance(self.reserve_x, Fraction)
        if p < (1.0 - f) * spot:
            # Sell x into the pool until (1-f) * marginal price = p.
            u = 0.5 * (f * rx + math.sqrt(f * f * rx * rx + 4.0 * (1.0 - f) ** 2 * k / p))
            dx = (u - rx) / (1.0 - f)
            if dx <= 0:
                return None
            dx = Fraction(dx) if exact else dx
            preview_out = self.reserve_y - self.product / (self.reserve_x + dx * (1 - self.fee))
            profit = preview_out - dx * external_price
            if profit <= self.gas_cost:
                return None
            return self.swap_x_for_y(dx)
        # Buy x from the pool until marginal price / (1-f) = p.
        v = 0.5 * (f * ry + math.sqrt(f * f * ry * ry + 4.0 * (1.0 - f) ** 2 * k * p))
        dy = (v - ry) / (1.0 - f)
        if dy <= 0:
            return None
        dy = Fraction(dy) if exact else dy
        preview_out = self.reserve_x - self.product / (self.reserve_y + dy * (1 - self.fee))
        profit = preview_out * external_price - dy
        if profit <= self.gas_cost:
            return None
        return self.swap_y_for_x(dy)


def create_pool(x0, y0, fee, gas_cost=0) -> Pool:
    """Open a pool; the genesis LP receives sqrt(x0 * y0) shares.

    The square-root minting rule makes the share value scale-free. Pass
    Fraction reserves/fee for the exact-arithmetic test mode.
    """
    if x0 <= 0 or y0 <= 0:
        raise DomainError("initial reserves must be > 0")
    if not 0 <= fee < 1:
        raise DomainError(f"fee must be in [0, 1), got {fee}")
    shares = _sqrt(x0 * y0)
    if not 0 < shares < math.inf:  # a float product past float range mints 0 or inf
        raise DomainError(f"initial reserves {x0} and {y0} mint {shares} shares; the supply must be finite and > 0")
    return Pool(x0, y0, fee, total_shares=shares, gas_cost=gas_cost)


def genesis_position(pool: Pool, x0, y0, entry_prices=(None, None)) -> LpPosition:
    """Position held by the pool creator right after create_pool."""
    return LpPosition(shares=pool.total_shares, entry_reserves=(x0, y0), entry_prices=entry_prices)


def impermanent_loss_relative(price_ratio) -> float:
    """LP value relative to holding, fees excluded: 2 sqrt(r)/(1+r) - 1 <= 0.

    r is the exit exchange rate over the entry exchange rate. The expression
    follows from rebalancing along xy = k to the new rate; it is symmetric
    under r -> 1/r and zero only at r = 1.
    """
    if price_ratio <= 0:
        raise DomainError(f"price ratio must be > 0, got {price_ratio}")
    return 2.0 * math.sqrt(price_ratio) / (1.0 + price_ratio) - 1.0


SHARES_EXCEED_SUPPLY = "position shares exceed pool share supply"


def absolute_impermanent_pnl(position: LpPosition, pool: Pool, exit_prices) -> float:
    """Numeraire PnL of the LP claim vs passively holding the entry tokens.

    Values the pro rata reserve claim at the exit prices and subtracts the
    exit value of the deposited amounts. Fees live inside the reserves, so
    the result is net of fee income (it can be a gain).
    """
    if not pool.live:
        raise LifecycleError("pool has been fully withdrawn")
    if position.shares > pool.total_shares:
        raise DomainError(SHARES_EXCEED_SUPPLY)
    return claim_pnl(
        pool.reserve_x, pool.reserve_y, pool.total_shares, position.shares, *position.entry_reserves, *exit_prices
    )


def claim_pnl(reserve_x, reserve_y, total_shares, shares, entry_x, entry_y, px, py):
    """The formula of absolute_impermanent_pnl, without its checks.

    `shares` of `total_shares` claim that slice of the reserves; the PnL is
    the claim's value at prices (px, py) less the value of (entry_x, entry_y)
    held instead. Elementwise on numpy arrays (float, or object arrays of
    Fraction) as on numbers, with the same operations in the same order.
    """
    claim_x = reserve_x * shares / total_shares
    claim_y = reserve_y * shares / total_shares
    return (claim_x * px + claim_y * py) - (entry_x * px + entry_y * py)


def lp_longrun_yield(alpha: float, sigma: float, T: float) -> float:
    """Per-unit-time LP gain (alpha T - sigma sqrt(T)) / T.

    Fee income accrues linearly while the exchange-rate risk term grows like
    sqrt(T), so the value approaches the fee rate alpha for large T.
    """
    if alpha < 0 or sigma < 0:
        raise DomainError("alpha and sigma must be >= 0")
    if T <= 0:
        raise DomainError(f"horizon must be > 0, got {T}")
    return (alpha * T - sigma * math.sqrt(T)) / T
