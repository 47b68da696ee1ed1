"""Margined cross-currency swap as a deterministic state machine.

Two parties exchange notionals in tokens alpha and beta at rate X0 (beta per
alpha), post margins in the token they contributed, and re-exchange at the
same X0 at maturity. An oracle feed marks the contract: when the rate moves,
the party on the losing side sees its margin eroded by the counterparty's
exposure, and if the residual margin fraction drops below the threshold
without same-step replenishment the contract terminates. The non-breaching
party takes exactly its exposure out of the breacher's margin (capped by the
posted margin; any shortfall from a gap move is reported, never socialized
into negative balances), everyone keeps the exchanged notionals, and
remaining margins return home.

Exposure convention: when X_t > X0 token alpha appreciated, so the party
that must return it (B, who received notional_a) owes the move; A's
exposure is notional_a * (X_t - X0) in beta units, which is exactly the
token B's margin is posted in. Symmetrically for X_t < X0 after converting
at the tick rate.

All token amounts are exact rationals internally (floats convert via their
shortest decimal repr), so conservation checks are exact equalities. Each
agreement is single-writer; independent agreements are independent.

Between margin changes the breach test is two bounds on the tick rate, so
`check_and_terminate` caches that quiet band per pair of contract margins.
Its edges are exact rationals, the rates at which a residual margin fraction
equals the threshold (not a breach), so the band holds exactly the rates
that the full mark calls quiet. The band also keeps its edges as floats, and
a tick whose float rate lies strictly between them, at a float time strictly
after the float of the last time, is quiet with no Fraction built. This is
exact: every number here converts to its correctly rounded float (a float
converts to itself, and its exact value is its repr, which rounds back to
it), and rounding is monotone, x < y gives float(x) <= float(y). So
float(low) < float(rate) < float(high) gives low < rate < high, and
float(last) < float(time) gives last < time. Every other tick (on an edge's
float, at the last time's float, outside the band, at a rate <= 0) takes the
full mark, with its messages, A's priority and the settlement. A quiet tick
keeps its time and rate as given; `last_time` and `last_rate` make them
exact when read.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, LifecycleError, MissingFixingError, StaleTickError
from .lending import recycling_leverage

ALPHA = "alpha"
BETA = "beta"
PARTIES = ("A", "B")
HOLDERS = ("A", "B", "contract")

DAYS_PER_YEAR = 365

CREATED = "created"
ACTIVE = "active"
MATURED = "matured"
TERMINATED_BREACH = "terminated_breach"
TERMINATED_VOLUNTARY = "terminated_voluntary"
TERMINAL_STATES = (MATURED, TERMINATED_BREACH, TERMINATED_VOLUNTARY)

# Ledger keys of the margins the contract holds for A and for B.
_MARGIN_A, _MARGIN_B = ("contract", ALPHA), ("contract", BETA)


def to_fraction(value) -> Fraction:
    """Exact rational from int/str/Fraction; floats via their shortest decimal repr.

    A float reads as `str(value)`, not `repr`, which for a numpy scalar
    names its type; nan and inf raise Fraction's own ValueError.
    """
    if type(value) is Fraction:  # an exact type test skips the ABC machinery of isinstance
        return value
    return Fraction(str(value) if isinstance(value, float) else value)


@dataclass(frozen=True)
class OracleTick:
    time: Fraction
    rate: Fraction

    def __post_init__(self):
        object.__setattr__(self, "time", to_fraction(self.time))
        object.__setattr__(self, "rate", to_fraction(self.rate))
        if self.rate <= 0:
            raise DomainError(f"oracle rate must be > 0, got {self.rate}")


@dataclass(frozen=True)
class Leg:
    """One periodic payment stream: (rate + spread) on a notional in a token."""

    payer: str
    token: str
    notional: Fraction
    rate_type: str = "fixed"
    rate: Fraction | None = None
    spread: Fraction = Fraction(0)
    frequency_days: Fraction | None = None

    def __post_init__(self):
        if self.payer not in PARTIES:
            raise DomainError(f"leg payer must be one of {PARTIES}")
        if self.token not in (ALPHA, BETA):
            raise DomainError("leg token must be alpha or beta")
        if self.rate_type not in ("fixed", "floating"):
            raise DomainError("leg rate_type must be fixed or floating")
        object.__setattr__(self, "notional", to_fraction(self.notional))
        object.__setattr__(self, "spread", to_fraction(self.spread))
        if self.rate is not None:
            object.__setattr__(self, "rate", to_fraction(self.rate))
        elif self.rate_type == "fixed":
            raise DomainError("fixed legs need a rate")
        if self.frequency_days is not None:
            object.__setattr__(self, "frequency_days", to_fraction(self.frequency_days))
            if self.frequency_days <= 0:
                raise DomainError("leg frequency must be > 0 days")
        if self.notional <= 0:
            raise DomainError("leg notional must be > 0")


@dataclass(frozen=True)
class LedgerEntry:
    seq: int
    time: Fraction
    event: str
    token: str
    source: str
    destination: str
    amount: Fraction
    note: str = ""


class Ledger:
    """Balances per (holder, token) plus an append-only audit trail.

    Margin accounts (holder "contract") never go negative; party balances
    are net positions against the outside world and may, e.g. while funding
    leg payments.
    """

    def __init__(self):
        self.balances = {(h, t): Fraction(0) for h in HOLDERS for t in (ALPHA, BETA)}
        self.entries = []

    def deposit(self, holder, token, amount):
        self.balances[(holder, token)] += to_fraction(amount)

    def balance(self, holder, token) -> Fraction:
        return self.balances[(holder, token)]

    def total(self, token) -> Fraction:
        return sum(self.balances[(h, token)] for h in HOLDERS)

    def transfer(self, time, event, token, source, destination, amount, note=""):
        amount = to_fraction(amount)
        if amount < 0:
            raise DomainError(f"ledger transfer must be >= 0, got {amount}")
        if source == "contract" and self.balances[(source, token)] < amount:
            raise DomainError("margin account cannot go negative")
        self.balances[(source, token)] -= amount
        self.balances[(destination, token)] += amount
        self.entries.append(
            LedgerEntry(
                seq=len(self.entries),
                time=to_fraction(time),
                event=event,
                token=token,
                source=source,
                destination=destination,
                amount=amount,
                note=note,
            )
        )


@dataclass(frozen=True)
class MarkView:
    """Mark-to-market snapshot at one oracle tick."""

    time: Fraction
    rate: Fraction
    exposure_a: Fraction  # A's claim on B, in beta (B's margin token)
    exposure_b: Fraction  # B's claim on A, in alpha (A's margin token)
    residual_fraction_a: Fraction
    residual_fraction_b: Fraction
    breaching_party: str | None


@dataclass(frozen=True)
class Settlement:
    """Outcome of a termination or maturity."""

    time: Fraction
    kind: str
    party: str | None
    rate: Fraction
    transfer_token: str | None
    transfer_amount: Fraction
    uncollateralized_loss: Fraction
    fee_amount: Fraction


class SwapAgreement:
    """Lifecycle: created -> active -> matured | terminated_*; single writer."""

    def __init__(
        self,
        notional_a,
        notional_b,
        margin_a,
        margin_b,
        threshold,
        x0=None,
        termination_fee=0,
        maturity_time=None,
        legs=(),
        threshold_base="initial_margin",
        min_margin_fraction=None,
    ):
        self.notional_a = to_fraction(notional_a)
        self.notional_b = to_fraction(notional_b)
        if self.notional_a <= 0 or self.notional_b <= 0:
            raise DomainError("notionals must be > 0")
        self.margin_a_initial = to_fraction(margin_a)
        self.margin_b_initial = to_fraction(margin_b)
        self.threshold = to_fraction(threshold)
        self.x0 = to_fraction(x0) if x0 is not None else self.notional_b / self.notional_a
        self.termination_fee = to_fraction(termination_fee)
        self.maturity_time = to_fraction(maturity_time) if maturity_time is not None else None
        self.legs = tuple(legs)
        self.threshold_base = threshold_base
        self.min_margin_fraction = (
            to_fraction(min_margin_fraction) if min_margin_fraction is not None else None
        )

        if self.margin_a_initial <= 0 or self.margin_b_initial <= 0:
            raise DomainError("margins must be > 0")
        if not 0 <= self.threshold < 1:
            raise DomainError(f"threshold must be in [0, 1), got {self.threshold}")
        if self.termination_fee < 0:
            raise DomainError("termination fee must be >= 0")
        if self.x0 <= 0:
            raise DomainError("initial exchange rate must be > 0")
        if threshold_base not in ("initial_margin", "notional"):
            raise DomainError("threshold_base must be initial_margin or notional")

        self.state = CREATED
        self.breaching_party = None
        self.last_time = None
        self.last_rate = self.x0
        self._band_margins = None  # contract margins the cached quiet band was computed for
        self._band = self._band_floats = None
        self.ledger = Ledger()
        self.ledger.deposit("A", ALPHA, self.notional_a + self.margin_a_initial)
        self.ledger.deposit("B", BETA, self.notional_b + self.margin_b_initial)

    # -- helpers -------------------------------------------------------------

    # A quiet tick stores its time and rate as given; they become exact on
    # the first read.
    @property
    def last_time(self) -> Fraction | None:
        """Time of the latest tick, termination or maturity (initiation before any)."""
        if self._last_time is not None and type(self._last_time) is not Fraction:
            self._last_time = to_fraction(self._last_time)
        return self._last_time

    @last_time.setter
    def last_time(self, time):
        self._last_time = time

    @property
    def last_rate(self) -> Fraction:
        """Rate of the latest tick (x0 before any): what a termination without a rate, or maturity, settles at."""
        if type(self._last_rate) is not Fraction:
            self._last_rate = to_fraction(self._last_rate)
        return self._last_rate

    @last_rate.setter
    def last_rate(self, rate):
        self._last_rate = rate

    def _require_state(self, state):
        if self.state != state:
            raise LifecycleError(f"operation requires state {state!r}, agreement is {self.state!r}")

    def margin(self, party) -> Fraction:
        """Current margin held by the contract for a party (its own token)."""
        return self.ledger.balance("contract", ALPHA if party == "A" else BETA)

    def _advance_clock(self, time, strict=True) -> Fraction:
        # Oracle ticks must be strictly increasing; terminations and maturity
        # may share the latest tick's timestamp.
        time = to_fraction(time)
        if self.last_time is not None:
            if strict and time <= self.last_time:
                raise StaleTickError(f"tick at {time} is not after {self.last_time}")
            if not strict and time < self.last_time:
                raise StaleTickError(f"event at {time} is before {self.last_time}")
        self.last_time = time
        return time

    # -- lifecycle -----------------------------------------------------------

    def initiate(self, time=0):
        """Exchange notionals and lock margins; created -> active."""
        self._require_state(CREATED)
        if self.min_margin_fraction is not None:
            if (
                self.margin_a_initial < self.min_margin_fraction * self.notional_a
                or self.margin_b_initial < self.min_margin_fraction * self.notional_b
            ):
                raise DomainError(
                    f"margins below the sizing rule fraction {self.min_margin_fraction}"
                )
        t = to_fraction(time)
        self.ledger.transfer(t, "margin_post", ALPHA, "A", "contract", self.margin_a_initial)
        self.ledger.transfer(t, "margin_post", BETA, "B", "contract", self.margin_b_initial)
        self.ledger.transfer(t, "notional_exchange", ALPHA, "A", "B", self.notional_a)
        self.ledger.transfer(t, "notional_exchange", BETA, "B", "A", self.notional_b)
        self.state = ACTIVE
        self.last_time = t
        return self

    def mark(self, tick: OracleTick) -> MarkView:
        """Exposures and residual margin fractions at an oracle tick."""
        self._require_state(ACTIVE)
        time = self._advance_clock(tick.time)
        self.last_rate = tick.rate
        return self._view(time, tick.rate)

    def _threshold_bases(self) -> tuple:
        """What each party's residual margin is measured against: (A's, B's)."""
        if self.threshold_base == "initial_margin":
            return self.margin_a_initial, self.margin_b_initial
        return self.notional_a, self.notional_b

    def _view(self, time, rate) -> MarkView:
        move = self.notional_a * (rate - self.x0)  # beta units, >0 favours A
        exposure_a = move if move > 0 else Fraction(0)
        exposure_b_beta = -move if move < 0 else Fraction(0)
        exposure_b = exposure_b_beta / rate  # converted to alpha at the tick

        residual_a = self.margin("A") - exposure_b
        residual_b = self.margin("B") - exposure_a
        base_a, base_b = self._threshold_bases()
        frac_a = residual_a / base_a
        frac_b = residual_b / base_b

        breaching = None
        if frac_a < self.threshold:
            breaching = "A"
        elif frac_b < self.threshold:
            breaching = "B"
        return MarkView(
            time=time,
            rate=rate,
            exposure_a=exposure_a,
            exposure_b=exposure_b,
            residual_fraction_a=frac_a,
            residual_fraction_b=frac_b,
            breaching_party=breaching,
        )

    def _settle_exposures(self, time, rate, event) -> tuple:
        """Move each party's positive exposure out of the other's margin, capped."""
        view = self._view(time, rate)
        transfer_token, transfer_amount = None, Fraction(0)
        shortfall = Fraction(0)
        if view.exposure_a > 0:
            transfer_token = BETA
            transfer_amount = min(view.exposure_a, self.margin("B"))
            shortfall = view.exposure_a - transfer_amount
            self.ledger.transfer(time, event, BETA, "contract", "A", transfer_amount,
                                 note="exposure from B margin")
        elif view.exposure_b > 0:
            transfer_token = ALPHA
            transfer_amount = min(view.exposure_b, self.margin("A"))
            shortfall = view.exposure_b - transfer_amount
            self.ledger.transfer(time, event, ALPHA, "contract", "B", transfer_amount,
                                 note="exposure from A margin")
        return transfer_token, transfer_amount, shortfall

    def _return_margins(self, time, event):
        if self.margin("A") > 0:
            self.ledger.transfer(time, event, ALPHA, "contract", "A", self.margin("A"),
                                 note="margin returned")
        if self.margin("B") > 0:
            self.ledger.transfer(time, event, BETA, "contract", "B", self.margin("B"),
                                 note="margin returned")

    def _quiet_band(self) -> tuple | None:
        """Rates (low, high) at which no tick can breach under today's margins.

        With slack_P = margin(P) - threshold * base_P and N = notional_a, A
        breaches exactly when slack_A < exposure_b, which is slack_A < 0 or
        rate < N * x0 / (slack_A + N); B exactly when slack_B < exposure_a,
        which is slack_B < 0 or rate > x0 + slack_B / N. Both edges are exact
        rationals, so low <= rate <= high is the same test as `_view`'s. None
        when a slack is negative. Cached, with the edges as floats in
        `_band_floats`, per pair of contract margins: a margin changes only
        by a new Fraction in the ledger, so the cache compares identities.
        """
        margins = (self.ledger.balances[_MARGIN_A], self.ledger.balances[_MARGIN_B])
        cached = self._band_margins
        if cached is None or margins[0] is not cached[0] or margins[1] is not cached[1]:
            base_a, base_b = self._threshold_bases()
            slack_a = margins[0] - self.threshold * base_a
            slack_b = margins[1] - self.threshold * base_b
            n = self.notional_a
            self._band = self._band_floats = None
            if slack_a >= 0 and slack_b >= 0:
                self._band = (n * self.x0 / (slack_a + n), self.x0 + slack_b / n)
                # An edge past float range reads as inf, which no float rate reaches.
                self._band_floats = tuple(float(e) if e < sys.float_info.max else math.inf for e in self._band)
            self._band_margins = margins
        return self._band

    def check_and_terminate(self, tick) -> Settlement | None:
        """Mark at the tick; terminate on breach not replenished this step.

        `tick` is an OracleTick or a (time, rate) pair of numbers, which
        converts to one only if the tick is not quiet. Replenishment
        semantics: a top-up must land before this call within the same
        tick-step (the scenario runner orders replenish events first); once
        called, a breach terminates immediately. A tick strictly inside the
        quiet band's float edges and strictly after the float of the last
        time only advances the clock (see the module docstring); any other
        takes the full mark.
        """
        self._require_state(ACTIVE)
        time, rate = tick if type(tick) is tuple else (tick.time, tick.rate)
        band = self._quiet_band()
        if band is not None:
            low, high = self._band_floats
            try:
                quiet = low < float(rate) < high and float(self._last_time) < float(time) < math.inf
            except (TypeError, ValueError, ArithmeticError):  # text such as "1/3", no last time, past float range
                quiet = False
            if quiet:
                self._last_time, self._last_rate = time, rate
                return None
        if type(tick) is tuple:
            tick = OracleTick(time, rate)
        view = self.mark(tick)
        if view.breaching_party is None:
            return None
        token, amount, shortfall = self._settle_exposures(tick.time, tick.rate, "breach_settlement")
        self._return_margins(tick.time, "breach_settlement")
        self.state = TERMINATED_BREACH
        self.breaching_party = view.breaching_party
        return Settlement(
            time=view.time,
            kind=TERMINATED_BREACH,
            party=view.breaching_party,
            rate=tick.rate,
            transfer_token=token,
            transfer_amount=amount,
            uncollateralized_loss=shortfall,
            fee_amount=Fraction(0),
        )

    def replenish(self, party, amount, time=None):
        """Top up a party's margin (own token); re-arms the breach check."""
        self._require_state(ACTIVE)
        amount = to_fraction(amount)
        if party not in PARTIES:
            raise DomainError(f"party must be one of {PARTIES}")
        if amount <= 0:
            raise DomainError(f"replenishment must be > 0, got {amount}")
        t = to_fraction(time) if time is not None else (self.last_time or Fraction(0))
        token = ALPHA if party == "A" else BETA
        self.ledger.transfer(t, "margin_top_up", token, party, "contract", amount)
        return self.margin(party)

    def voluntary_terminate(self, party, time, rate=None) -> Settlement:
        """Early exit for a fixed fee; exposures settle like a breach."""
        self._require_state(ACTIVE)
        if party not in PARTIES:
            raise DomainError(f"party must be one of {PARTIES}")
        t = self._advance_clock(time, strict=False)
        r = to_fraction(rate) if rate is not None else self.last_rate
        token, amount, shortfall = self._settle_exposures(t, r, "voluntary_settlement")
        self._return_margins(t, "voluntary_settlement")
        counterparty = "B" if party == "A" else "A"
        if self.termination_fee > 0:
            self.ledger.transfer(t, "termination_fee", BETA, party, counterparty,
                                 self.termination_fee)
        self.state = TERMINATED_VOLUNTARY
        self.breaching_party = None
        return Settlement(
            time=t,
            kind=TERMINATED_VOLUNTARY,
            party=party,
            rate=r,
            transfer_token=token,
            transfer_amount=amount,
            uncollateralized_loss=shortfall,
            fee_amount=self.termination_fee,
        )

    def mature(self, time) -> Settlement:
        """Reverse the notional exchange at X0 and return all margins."""
        self._require_state(ACTIVE)
        if self.maturity_time is not None and to_fraction(time) < self.maturity_time:
            raise LifecycleError(f"maturity is at {self.maturity_time}, not {time}")
        t = self._advance_clock(time, strict=False)
        self.ledger.transfer(t, "notional_reversal", ALPHA, "B", "A", self.notional_a)
        self.ledger.transfer(t, "notional_reversal", BETA, "A", "B", self.notional_b)
        self._return_margins(t, "maturity")
        self.state = MATURED
        return Settlement(
            time=t,
            kind=MATURED,
            party=None,
            rate=self.last_rate,
            transfer_token=None,
            transfer_amount=Fraction(0),
            uncollateralized_loss=Fraction(0),
            fee_amount=Fraction(0),
        )

    def accrue_legs(self, period_start, period_end, fixings=None, only=None) -> list:
        """Pay each leg's (rate + spread) accrual for the period, 365-day count.

        Floating legs read their fixing from ``fixings[leg_index]``; a
        missing fixing is an error. ``only`` restricts the accrual to a
        single leg index (scenario replay stages legs one at a time).
        """
        self._require_state(ACTIVE)
        start, end = to_fraction(period_start), to_fraction(period_end)
        if end <= start:
            raise DomainError("accrual period must have positive length")
        year_fraction = (end - start) / DAYS_PER_YEAR
        flows = []
        indices = range(len(self.legs)) if only is None else (only,)
        for i in indices:
            leg = self.legs[i]
            if leg.rate_type == "fixed":
                rate = leg.rate
            else:
                if fixings is None or i not in fixings:
                    raise MissingFixingError(f"no fixing supplied for floating leg {i}")
                rate = to_fraction(fixings[i])
            amount = leg.notional * (rate + leg.spread) * year_fraction
            counterparty = "B" if leg.payer == "A" else "A"
            if amount < 0:
                raise DomainError(f"leg {i} accrual is negative; flip payer instead")
            if amount > 0:
                self.ledger.transfer(end, "leg_payment", leg.token, leg.payer, counterparty,
                                     amount, note=f"leg {i}")
            flows.append({"leg": i, "token": leg.token, "payer": leg.payer, "amount": amount})
        return flows


def buffer_size(sigma: float, duration_years: float, multiplier: float = 1.0) -> float:
    """Margin fraction c * sigma * sqrt(T), capped at full collateralization."""
    if sigma < 0:
        raise DomainError(f"volatility must be >= 0, got {sigma}")
    if duration_years <= 0:
        raise DomainError(f"duration must be > 0, got {duration_years}")
    if multiplier <= 0:
        raise DomainError(f"multiplier must be > 0, got {multiplier}")
    return min(multiplier * sigma * math.sqrt(duration_years), 1.0)


@dataclass(frozen=True)
class LeverageBound:
    bound: float
    achievable: float | None = None


def max_leverage(margin_fraction: float, chain_length: int | None = None) -> LeverageBound:
    """Leverage from recycling the notional: supremum 1/x, approached from below.

    With a finite recycling chain the achievable multiple is the geometric
    sum shared with the loan module.
    """
    if not 0.0 < margin_fraction < 1.0:
        raise DomainError(f"margin fraction must be in (0, 1), got {margin_fraction}")
    achievable = (
        recycling_leverage(margin_fraction, chain_length) if chain_length is not None else None
    )
    return LeverageBound(bound=1.0 / margin_fraction, achievable=achievable)
