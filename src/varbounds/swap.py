"""Swap-rate bounds, quote classification, and market-unit reporting.

A weighted variance swap is price-equivalent to a European option with the
convex payoff generated by its weight: the swap rate equals twice the
normalized option value minus twice the payoff at the forward level.  This
module maps the European-payoff bounds through that relation, classifies
quoted rates against the band, and renders everything in currency and
volatility-point units.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

from . import lower as lower_mod
from . import upper as upper_mod
from .chain import ChainVerdict, NormalizedChain, validate_puts
from .lower import AtomicMeasure, DualSolution, HedgePortfolio
from .payoff import ConvexPayoff, DualExistence, WeightSpec, dual_existence_lb, make_payoff
from .serialize import round_floats

BOUNDARY_TOL = 1e-6  # quotes are finite precision; exact boundary hits need a band
_NOTES = ("swap-quote classification assumes the equivalent European payoff trades alongside the swap",)


class VerdictStatus(enum.Enum):
    CONSISTENT = "consistent"
    BOUNDARY = "boundary_requires_dual_existence"
    MODEL_INDEPENDENT_ARBITRAGE = "model_independent_arbitrage"
    WEAK_ARBITRAGE = "weak_arbitrage"


@dataclass(frozen=True)
class PriceVerdict:
    """Classification of a quoted price against the no-arbitrage band."""

    status: VerdictStatus
    side: str | None = None  # "below"/"above" for arbitrage, "lower"/"upper" for boundary
    existence: DualExistence | None = None
    reason: str = ""

    @property
    def is_consistent(self) -> bool:
        return self.status is VerdictStatus.CONSISTENT

    @property
    def consistent_at_boundary(self) -> bool:
        return (
            self.status is VerdictStatus.BOUNDARY
            and self.existence is not None
            and self.existence.is_guaranteed
        )

    @property
    def is_arbitrage(self) -> bool:
        if self.status in (VerdictStatus.MODEL_INDEPENDENT_ARBITRAGE, VerdictStatus.WEAK_ARBITRAGE):
            return True
        if self.status is VerdictStatus.BOUNDARY:
            return self.existence is not None and self.existence.verdict == "fails"
        return False

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "side": self.side,
            "existence": self.existence.to_dict() if self.existence else None,
            "reason": self.reason,
        }


def vol_points(rate: float) -> float:
    """Variance units to volatility percentage points: 100 * sqrt(rate)."""
    if rate < 0.0:
        raise ValueError(f"variance rate must be nonnegative, got {rate}")
    return 100.0 * math.sqrt(rate)


def rate_from_vol_points(points: float) -> float:
    """Volatility percentage points to variance units: (points / 100)**2."""
    if not 0.0 <= points < math.inf:
        raise ValueError(f"volatility points must be finite and nonnegative, got {points}")
    return (points / 100.0) ** 2


def rate_from_european(value_norm: float, payoff: ConvexPayoff) -> float:
    """Swap rate implied by a normalized European value: 2 v - 2 payoff(1)."""
    return 2.0 * value_norm - 2.0 * payoff.at_one()


def european_from_rate(rate: float, payoff: ConvexPayoff) -> float:
    """Inverse of :func:`rate_from_european`."""
    return 0.5 * rate + payoff.at_one()


@dataclass(frozen=True)
class BoundsReport:
    """Lower/upper values, portfolios, dual measures, swap-rate bounds, verdicts."""

    weight: str
    chain_verdict: ChainVerdict
    forward: float
    discount_factor: float
    maturity: float
    n_puts: int
    n_min: int
    n_max: float
    lower_value: float
    upper_value: float
    lower_price: float
    upper_price: float
    swap_lower: float
    swap_upper: float
    vol_lower: float | None
    vol_upper: float | None
    subhedge: HedgePortfolio | None
    superhedge: HedgePortfolio | None
    subhedge_currency: HedgePortfolio | None
    superhedge_currency: HedgePortfolio | None
    lower_measure: AtomicMeasure | None
    lower_existence: DualExistence | None
    upper_existence: DualExistence | None
    quoted_rate: float | None = None
    quote_verdict: PriceVerdict | None = None
    grid: int = lower_mod.DEFAULT_GRID

    def to_dict(self) -> dict:
        def num(x):
            if x is None:
                return None
            return "inf" if math.isinf(x) else float(x)

        return {
            "weight": self.weight,
            "chain_verdict": self.chain_verdict.to_dict(),
            "market": {
                "forward": self.forward,
                "discount_factor": self.discount_factor,
                "maturity": self.maturity,
                "n_puts": self.n_puts,
                "n_min": self.n_min,
                "n_max": num(self.n_max),
            },
            "european": {
                "lower_value_normalized": num(self.lower_value),
                "upper_value_normalized": num(self.upper_value),
                "lower_price": num(self.lower_price),
                "upper_price": num(self.upper_price),
            },
            "swap_rate": {
                "lower": num(self.swap_lower),
                "upper": num(self.swap_upper),
                "vol_points_lower": num(self.vol_lower),
                "vol_points_upper": num(self.vol_upper),
            },
            "subhedge": self.subhedge.to_dict() if self.subhedge else None,
            "superhedge": self.superhedge.to_dict() if self.superhedge else None,
            "subhedge_currency": self.subhedge_currency.to_dict() if self.subhedge_currency else None,
            "superhedge_currency": self.superhedge_currency.to_dict() if self.superhedge_currency else None,
            "lower_measure": self.lower_measure.to_dict() if self.lower_measure else None,
            "lower_existence": self.lower_existence.to_dict() if self.lower_existence else None,
            "upper_existence": self.upper_existence.to_dict() if self.upper_existence else None,
            "quote": {
                "rate": num(self.quoted_rate),
                "verdict": self.quote_verdict.to_dict() if self.quote_verdict else None,
            },
            "grid": self.grid,
            "notes": list(_NOTES),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(round_floats(self.to_dict()), **kwargs)


def upper_dual_existence(nchain: NormalizedChain, payoff: ConvexPayoff) -> DualExistence:
    """The upper dual attains its supremum iff the support is capped or the payoff tail is affine."""
    if math.isfinite(nchain.n_max):
        return DualExistence("guaranteed", "support capped at k_nmax")
    if payoff.affine_tail_threshold <= nchain.k[-1] + 1e-12:
        return DualExistence("guaranteed", "payoff affine beyond k_n")
    return DualExistence("fails")


def compute_lower(
    nchain: NormalizedChain, payoff: ConvexPayoff, grid: int = lower_mod.DEFAULT_GRID
) -> tuple[DualSolution, HedgePortfolio, DualExistence]:
    """Lower bound, sub-replicating portfolio, and the dual-existence verdict.

    ``lp_lower_bound`` serves every chain: the policy recursion and the
    tangent subhedge on the chain trimmed to where its mass lies.  Without
    guaranteed dual existence ``tighten_tail`` lifts the tail in one solve.
    """
    value, portfolio, measure = lower_mod.lp_lower_bound(nchain, payoff, grid=grid)
    solution = DualSolution(value=value, measure=measure)
    existence = dual_existence_lb(nchain, payoff)
    if not existence.is_guaranteed:
        # The portfolio-dependent existence conditions presume the optimal
        # subhedge, whose tail is lifted as far toward the asymptotic slope
        # as domination allows; apply the lift before consulting them.
        portfolio = lower_mod.tighten_tail(nchain, payoff, portfolio)
        existence = dual_existence_lb(nchain, payoff, portfolio)
    return solution, portfolio, existence


def classify_european(
    nchain: NormalizedChain, payoff: ConvexPayoff, quoted_price: float, *, normalized: bool = False
) -> PriceVerdict:
    """Classify a quoted European price against the sub/super-replication band.

    Strictly inside the open band is consistent; strictly outside is a
    model-independent arbitrage on the named side; on the band edge the
    verdict defers to dual existence on that side; the origin-cap failure is
    a weak arbitrage regardless of the quote.
    """
    if not validate_puts(nchain).is_consistent:
        raise ValueError("classification requires a consistent put chain")
    p_norm = quoted_price if normalized else quoted_price / (nchain.discount_factor * nchain.forward)
    try:
        solution, _, existence = compute_lower(nchain, payoff)
    except lower_mod.C1Violation as exc:
        return PriceVerdict(VerdictStatus.WEAK_ARBITRAGE, reason=str(exc))
    ub = upper_mod.superhedge(nchain, payoff)
    return classify_rate_against_bounds(
        p_norm, solution.value, ub.value,
        lower_existence=existence, upper_existence=upper_dual_existence(nchain, payoff),
    )


def classify_swap_quote(nchain: NormalizedChain, weight: WeightSpec, quoted_rate: float) -> PriceVerdict:
    """Map a quoted swap rate (variance units) to the equivalent European price and classify."""
    payoff = make_payoff(weight)
    p_equiv = european_from_rate(quoted_rate, payoff)
    return classify_european(nchain, payoff, p_equiv, normalized=True)


def classify_rate_against_bounds(
    quoted: float,
    lower: float,
    upper: float = math.inf,
    *,
    lower_existence: DualExistence | None = None,
    upper_existence: DualExistence | None = None,
) -> PriceVerdict:
    """Classify a quote against a band given in the same units: swap rates or normalized prices.

    Used when only published bound values are available (no raw chain), and
    for every band this module computes.  A quote within ``BOUNDARY_TOL`` of
    an edge defers to dual existence on that side.
    """
    if not math.isfinite(quoted):
        raise ValueError(f"quote must be finite, got {quoted}")
    if abs(quoted - lower) <= BOUNDARY_TOL:
        return PriceVerdict(VerdictStatus.BOUNDARY, side="lower", existence=lower_existence)
    if math.isfinite(upper) and abs(quoted - upper) <= BOUNDARY_TOL:
        return PriceVerdict(VerdictStatus.BOUNDARY, side="upper", existence=upper_existence)
    if quoted < lower:
        return PriceVerdict(VerdictStatus.MODEL_INDEPENDENT_ARBITRAGE, side="below")
    if quoted > upper:
        return PriceVerdict(VerdictStatus.MODEL_INDEPENDENT_ARBITRAGE, side="above")
    return PriceVerdict(VerdictStatus.CONSISTENT)


def swap_rate_bounds(
    nchain: NormalizedChain,
    weight: WeightSpec,
    *,
    grid: int = lower_mod.DEFAULT_GRID,
    quoted_rate: float | None = None,
) -> BoundsReport:
    """Full pipeline: payoff bounds, portfolios, measures, swap-rate band, verdicts."""
    verdict = validate_puts(nchain)
    if not verdict.is_consistent:
        raise ValueError(f"chain is not consistent: {verdict.status.value} ({verdict.witness})")
    payoff = make_payoff(weight)
    solution, sub_portfolio, lower_existence = compute_lower(nchain, payoff, grid=grid)
    ub = upper_mod.superhedge(nchain, payoff)
    lower_value = solution.value
    upper_value = ub.value
    df = nchain.discount_factor * nchain.forward
    swap_lower = rate_from_european(lower_value, payoff)
    swap_upper = rate_from_european(upper_value, payoff) if math.isfinite(upper_value) else math.inf

    upper_existence = upper_dual_existence(nchain, payoff)
    quote_verdict = None
    if quoted_rate is not None:
        p_equiv = european_from_rate(quoted_rate, payoff)
        quote_verdict = classify_rate_against_bounds(
            p_equiv, lower_value, upper_value, lower_existence=lower_existence, upper_existence=upper_existence
        )
    return BoundsReport(
        weight=weight.label(),
        chain_verdict=verdict,
        forward=nchain.forward,
        discount_factor=nchain.discount_factor,
        maturity=nchain.maturity,
        n_puts=nchain.n,
        n_min=nchain.n_min,
        n_max=nchain.n_max,
        lower_value=lower_value,
        upper_value=upper_value,
        lower_price=df * lower_value,
        upper_price=df * upper_value if math.isfinite(upper_value) else math.inf,
        swap_lower=swap_lower,
        swap_upper=swap_upper,
        vol_lower=vol_points(max(swap_lower, 0.0)),
        vol_upper=vol_points(max(swap_upper, 0.0)),  # inf when the band is unbounded above
        subhedge=sub_portfolio,
        superhedge=ub.portfolio,
        subhedge_currency=sub_portfolio.denormalize(nchain) if sub_portfolio else None,
        superhedge_currency=ub.portfolio.denormalize(nchain) if ub.portfolio else None,
        lower_measure=solution.measure,
        lower_existence=lower_existence,
        upper_existence=upper_existence,
        quoted_rate=quoted_rate,
        quote_verdict=quote_verdict,
        grid=max(int(grid), lower_mod.MIN_GRID),
    )
