"""Pricing of over-collateralised token loans.

A loan of B (repayment due at T, token beta) against collateral A (token
alpha) splits into two claims: the borrower holds Max[A, B] at maturity, the
lender Min[A, B], and Max + Min = A + B. The borrower claim is the repayment
leg plus an option to exchange one risky asset for another,

    exchange = e^(-r_a T) A N(d1) - e^(-r_b T) B N(d2),
    d1 = [ln(A/B) + (r_b - r_a + sigma^2/2) T] / (sigma sqrt(T)),
    d2 = d1 - sigma sqrt(T),
    sigma^2 = sigma_a^2 - 2 rho sigma_a sigma_b + sigma_b^2,

with r_a, r_b the token interest rates against the numeraire. Some published
statements of this result print the second term with a plus sign; that
variant fails the sigma -> 0 sanity limit (the claim must degenerate to
max of discounted forwards) and disagrees with simulation, so the subtracted
form is used throughout and confirmed against the Monte Carlo oracle in the
test suite. The same convention applies to the simplified formula used when
one leg is the numeraire itself.

Liquidation penalties are priced as a one-touch option on the
collateralization ratio, paying a fixed fraction of the notional at the
first barrier touch (penalties are collected at liquidation time, so the
pay-at-hit form is used). The ratio follows a GBM with pricing-measure
drift r_b - r_a, the usual FX-style argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


def norm_cdf(x: float) -> float:
    """Standard normal CDF via the error function (abs error ~1e-16)."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class LoanTerms:
    """Economic terms of a collateralised loan, all values in the numeraire.

    collateral_amount is the time-0 value of the posted alpha tokens,
    repayment_amount the time-0 scale of the beta leg due at T (its time-0
    value is the discounted amount). Around 150% initial collateralization
    is market practice; it is an input here, never assumed.
    """

    collateral_amount: float
    repayment_amount: float
    sigma_alpha: float
    sigma_beta: float
    rho: float = 0.0
    r_alpha: float = 0.0
    r_beta: float = 0.0
    T: float = 1.0

    def __post_init__(self):
        if self.collateral_amount <= 0 or self.repayment_amount <= 0:
            raise DomainError("loan amounts must be > 0")
        if self.sigma_alpha < 0 or self.sigma_beta < 0:
            raise DomainError("volatilities must be >= 0")
        if not -1.0 <= self.rho <= 1.0:
            raise DomainError(f"correlation must be in [-1, 1], got {self.rho}")
        if self.T <= 0:
            raise DomainError(f"maturity must be > 0, got {self.T}")

    @property
    def combined_vol(self) -> float:
        var = self.sigma_alpha**2 - 2 * self.rho * self.sigma_alpha * self.sigma_beta + self.sigma_beta**2
        return math.sqrt(max(var, 0.0))

    @property
    def collateralization_ratio(self) -> float:
        return self.collateral_amount / self.repayment_amount


@dataclass(frozen=True)
class LoanValuation:
    """Time-0 values of the two loan claims and the embedded exchange option.

    borrower_value + lender_value always equals the sum of the discounted
    legs (the Max + Min = A + B payoff identity).
    """

    borrower_value: float
    lender_value: float
    exchange_option_value: float


@dataclass(frozen=True)
class LiquidationSpec:
    """Continuous barrier liquidation: penalty fraction of notional at touch.

    barrier is the collateralization ratio that triggers liquidation; it
    exceeds 1 (fires while still over-collateralised). Typical penalties:
    8% on Compound, 5-15% on Aave.
    """

    barrier: float
    penalty: float

    def __post_init__(self):
        if self.barrier <= 1.0:
            raise DomainError(f"liquidation barrier must be > 1, got {self.barrier}")
        if not 0.0 <= self.penalty <= 1.0:
            raise DomainError(f"penalty must be in [0, 1], got {self.penalty}")


@dataclass(frozen=True)
class UtilizationCurve:
    """Hockey-stick borrow rate: slow below the kink, steep above it."""

    kink: float = 0.80
    base_rate: float = 0.0
    slope_low: float = 0.0
    slope_high: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.kink < 1.0:
            raise DomainError(f"kink must be in (0, 1), got {self.kink}")
        if self.slope_low < 0 or self.slope_high < 0:
            raise DomainError("slopes must be >= 0")
        if self.slope_high < self.slope_low:
            raise DomainError("slope_high must be >= slope_low (convexity)")


def margrabe_details(terms: LoanTerms) -> dict:
    """Exchange-option value plus every intermediate quantity, for audit output."""
    a, b = terms.collateral_amount, terms.repayment_amount
    t = terms.T
    sigma = terms.combined_vol
    df_alpha = math.exp(-terms.r_alpha * t)
    df_beta = math.exp(-terms.r_beta * t)
    if sigma == 0.0:
        value = max(df_alpha * a - df_beta * b, 0.0)
        d1 = d2 = math.inf if df_alpha * a > df_beta * b else -math.inf
    else:
        srt = sigma * math.sqrt(t)
        d1 = (math.log(a / b) + (terms.r_beta - terms.r_alpha + 0.5 * sigma**2) * t) / srt
        d2 = d1 - srt
        value = df_alpha * a * norm_cdf(d1) - df_beta * b * norm_cdf(d2)
    return {
        "sigma_combined": sigma,
        "d1": d1,
        "d2": d2,
        "discount_factor_alpha": df_alpha,
        "discount_factor_beta": df_beta,
        "exchange_option_value": value,
    }


def margrabe_exchange_value(terms: LoanTerms) -> float:
    """Value of the option to exchange the repayment leg for the collateral.

    The claim pays Max[0, A - B] at T under two correlated GBMs; sigma = 0
    degenerates to the positive part of the discounted forward difference.
    """
    return margrabe_details(terms)["exchange_option_value"]


def loan_values(terms: LoanTerms) -> LoanValuation:
    """Split the loan into the borrower (Max) and lender (Min) claims.

    Max[A,B] = B + Max[0, A-B], so the borrower holds the discounted
    repayment leg plus the exchange option and the lender holds the rest.
    """
    exchange = margrabe_exchange_value(terms)
    df_alpha = math.exp(-terms.r_alpha * terms.T)
    df_beta = math.exp(-terms.r_beta * terms.T)
    borrower = df_beta * terms.repayment_amount + exchange
    lender = df_alpha * terms.collateral_amount + df_beta * terms.repayment_amount - borrower
    return LoanValuation(
        borrower_value=borrower, lender_value=lender, exchange_option_value=exchange
    )


def numeraire_loan_value(
    collateral_amount: float,
    repayment_amount: float,
    sigma_beta: float,
    r_beta: float = 0.0,
    T: float = 1.0,
) -> float:
    """Borrower value when the collateral leg is the numeraire itself.

    With sigma_alpha = 0 and r_alpha = 0 the general formula collapses to

        e^(-r_b T) B + A N(d) - e^(-r_b T) B N(d - sigma_b sqrt(T)),
        d = [ln(A/B) + (r_b + sigma_b^2/2) T] / (sigma_b sqrt(T)).

    Must agree with the general route to 1e-12; sigma_beta = 0 degenerates
    to max(A, e^(-r_b T) B).
    """
    a, b = collateral_amount, repayment_amount
    if a <= 0 or b <= 0:
        raise DomainError("loan amounts must be > 0")
    if sigma_beta < 0:
        raise DomainError("volatility must be >= 0")
    if T <= 0:
        raise DomainError(f"maturity must be > 0, got {T}")
    df_beta = math.exp(-r_beta * T)
    if sigma_beta == 0.0:
        return max(a, df_beta * b)
    srt = sigma_beta * math.sqrt(T)
    d = (math.log(a / b) + (r_beta + 0.5 * sigma_beta**2) * T) / srt
    return df_beta * b + a * norm_cdf(d) - df_beta * b * norm_cdf(d - srt)


def one_touch_value(
    spot_ratio: float,
    barrier: float,
    payout: float,
    sigma: float,
    r: float,
    T: float,
    drift: float | None = None,
) -> float:
    """Pay-at-hit one-touch: discounted payout at first passage to the barrier.

    The monitored ratio follows a GBM with volatility sigma and
    pricing-measure drift ``drift`` (defaults to r); cash flows discount at
    r. Reflection-principle closed form, for a barrier below spot:

        value = payout [ e^(b(nu+g)/sigma^2) N((b + gT)/(sigma sqrt(T)))
                       + e^(b(nu-g)/sigma^2) N((b - gT)/(sigma sqrt(T))) ],

    b = ln(barrier/spot) < 0, nu = drift - sigma^2/2, g = sqrt(nu^2 + 2 r sigma^2).

    An already-breached input (spot <= barrier) pays out immediately.
    """
    if barrier <= 0:
        raise DomainError(f"barrier must be > 0, got {barrier}")
    if payout < 0:
        raise DomainError(f"payout must be >= 0, got {payout}")
    if T <= 0:
        raise DomainError(f"horizon must be > 0, got {T}")
    if spot_ratio <= barrier:
        return payout
    if sigma <= 0:
        raise DomainError("one-touch value needs sigma > 0 away from the barrier")
    mu = r if drift is None else drift
    b = math.log(barrier / spot_ratio)
    nu = mu - 0.5 * sigma**2
    disc = nu**2 + 2.0 * r * sigma**2
    if disc < 0:
        raise DomainError("discount rate too negative for the first-passage transform")
    gamma = math.sqrt(disc)
    srt = sigma * math.sqrt(T)
    value = payout * (
        math.exp(b * (nu + gamma) / sigma**2) * norm_cdf((b + gamma * T) / srt)
        + math.exp(b * (nu - gamma) / sigma**2) * norm_cdf((b - gamma * T) / srt)
    )
    return min(max(value, 0.0), payout)


def loan_value_with_liquidation(terms: LoanTerms, liq: LiquidationSpec) -> LoanValuation:
    """Loan split including the liquidation penalty leg.

    The lender additionally holds a one-touch on the collateralization ratio
    paying penalty * notional at the first barrier touch; the borrower claim
    is reduced by the same amount. This is the simplest penalty case, where
    margins cannot be replenished after the trigger; post-trigger top-ups
    and auction mechanics are deliberately not modeled.
    """
    plain = loan_values(terms)
    if liq.penalty == 0.0:
        return plain
    penalty_value = one_touch_value(
        spot_ratio=terms.collateralization_ratio,
        barrier=liq.barrier,
        payout=liq.penalty * terms.repayment_amount,
        sigma=terms.combined_vol,
        r=terms.r_beta,
        T=terms.T,
        drift=terms.r_beta - terms.r_alpha,
    )
    return LoanValuation(
        borrower_value=plain.borrower_value - penalty_value,
        lender_value=plain.lender_value + penalty_value,
        exchange_option_value=plain.exchange_option_value,
    )


def utilization_rate(curve: UtilizationCurve, utilization: float) -> float:
    """Annualized borrow rate at the given pool utilization (hockey stick)."""
    if not 0.0 <= utilization <= 1.0:
        raise DomainError(f"utilization must be in [0, 1], got {utilization}")
    if utilization <= curve.kink:
        return curve.base_rate + curve.slope_low * utilization
    return (
        curve.base_rate
        + curve.slope_low * curve.kink
        + curve.slope_high * (utilization - curve.kink)
    )


def recycling_leverage(haircut: float, chain_length: int) -> float:
    """Total exposure from re-lending collateral n times with haircut x.

    sum_{i=0}^{n-1} (1-x)^i, converging to 1/x from below as the chain grows.
    """
    if not 0.0 < haircut < 1.0:
        raise DomainError(f"haircut must be in (0, 1), got {haircut}")
    if chain_length < 1:
        raise DomainError(f"chain length must be >= 1, got {chain_length}")
    # fsum keeps the partial sums correctly rounded so the 1/x bound and the
    # strict growth in n survive floating point.
    return math.fsum((1.0 - haircut) ** i for i in range(chain_length))
