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
from .chain import ChainVerdict, NormalizedChain, _real, validate_puts
from .lower import AtomicMeasure, DualSolution, HedgePortfolio
from .payoff import ConvexPayoff, DualExistence, WeightSpec, dual_existence_lb, make_payoff, parse_weight
from .serialize import round_floats

BOUNDARY_TOL = 2e-6  # swap-rate band: quotes are finite precision; exact boundary hits need a band
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
    return 100.0 * math.sqrt(_real("variance rate", rate, nonnegative=True, finite=False))  # +inf: no upper bound


def rate_from_vol_points(points: float) -> float:
    """Volatility percentage points to variance units: (points / 100)**2, a finite rate."""
    try:
        return (_real("volatility points", points, nonnegative=True) / 100.0) ** 2
    except OverflowError:
        raise ValueError(f"volatility points must give a finite variance rate, got {points}") from None


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
    tangent subhedge on ``nchain.window``, where its mass lies, with its tail
    lifted where mass escapes (``reconstruct_subhedge``).  The existence
    conditions presume that optimal subhedge; they are read once, from it.
    """
    value, portfolio, measure = lower_mod.lp_lower_bound(nchain, payoff, grid=grid)
    return DualSolution(value=value, measure=measure), portfolio, dual_existence_lb(nchain, payoff, portfolio)


def classify_european(
    nchain: NormalizedChain, payoff: ConvexPayoff, quoted_price: float, *, normalized: bool = False
) -> PriceVerdict:
    """Classify a quoted European price against the sub/super-replication band.

    The price maps to its swap rate, classified as ``swap_rate_bounds`` does:
    strictly inside the open band is consistent; strictly outside is a
    model-independent arbitrage on the named side; on the band edge, within
    ``BOUNDARY_TOL`` in swap rate, the verdict defers to dual existence on
    that side; the origin-cap failure is a weak arbitrage regardless of the quote.
    """
    quoted_price = _real("quoted price", quoted_price)
    p_norm = quoted_price if normalized else quoted_price / (nchain.discount_factor * nchain.forward)
    return _quote_verdict(nchain, payoff, rate_from_european(p_norm, payoff))


def classify_swap_quote(nchain: NormalizedChain, weight: WeightSpec, quoted_rate: float) -> PriceVerdict:
    """Classify a quoted swap rate (variance units) against the band itself, as ``classify_european`` does."""
    return _quote_verdict(nchain, make_payoff(weight), quoted_rate)


def _quote_verdict(nchain: NormalizedChain, payoff: ConvexPayoff, quoted_rate: float) -> PriceVerdict:
    """The report's quote verdict, or a weak arbitrage where the C1 condition fails."""
    try:
        return _report(nchain, payoff, payoff.kind, quoted_rate=quoted_rate).quote_verdict
    except lower_mod.C1Violation as exc:
        return _c1_verdict(exc)


def _c1_verdict(exc: lower_mod.C1Violation) -> PriceVerdict:
    return PriceVerdict(VerdictStatus.WEAK_ARBITRAGE, reason=str(exc))  # an infinite lower bound, whatever the quote


def bounds_payload(nchain: NormalizedChain, weight: str, *, grid: int = lower_mod.DEFAULT_GRID,
                   quoted_rate: float | None = None) -> tuple[dict, bool]:
    """The report of ``varbounds bounds`` and ``classify`` as a dict, and whether it names an arbitrage.

    An inconsistent chain gives its verdict alone, one failing C1 adds the weak-arbitrage quote verdict, and any
    other gives ``swap_rate_bounds(...).to_dict()``.  ``weight`` is parsed by ``parse_weight``, after the chain check.
    """
    verdict = validate_puts(nchain)
    if not verdict.is_consistent:
        return {"chain_verdict": verdict.to_dict()}, True
    try:
        report = swap_rate_bounds(nchain, parse_weight(weight), grid=grid, quoted_rate=quoted_rate)
    except lower_mod.C1Violation as exc:
        return {"chain_verdict": verdict.to_dict(), "quote": {"verdict": _c1_verdict(exc).to_dict()}}, True
    return report.to_dict(), report.quote_verdict is not None and report.quote_verdict.is_arbitrage


def classify_rate_against_bounds(
    quoted: float,
    lower: float,
    upper: float = math.inf,
    *,
    lower_existence: DualExistence | None = None,
    upper_existence: DualExistence | None = None,
) -> PriceVerdict:
    """Classify a quoted swap rate against a swap-rate band (variance units).

    Used when only published bound values are available (no raw chain), and
    for every band this module computes.  A quote within ``BOUNDARY_TOL`` of
    an edge defers to dual existence on that side; an inverted band raises.
    """
    quoted = _real("quote", quoted)
    lower, upper = (_real("band edges", edge, finite=False) for edge in (lower, upper))
    _check_band(lower, upper)
    if abs(quoted - lower) <= BOUNDARY_TOL:
        return PriceVerdict(VerdictStatus.BOUNDARY, side="lower", existence=lower_existence)
    if math.isfinite(upper) and abs(quoted - upper) <= BOUNDARY_TOL:
        return PriceVerdict(VerdictStatus.BOUNDARY, side="upper", existence=upper_existence)
    if quoted < lower:
        return PriceVerdict(VerdictStatus.MODEL_INDEPENDENT_ARBITRAGE, side="below")
    if quoted > upper:
        return PriceVerdict(VerdictStatus.MODEL_INDEPENDENT_ARBITRAGE, side="above")
    return PriceVerdict(VerdictStatus.CONSISTENT)


def _check_band(lower: float, upper: float) -> None:
    """Refuse a band inverted past ``BOUNDARY_TOL``: by weak duality only a fault can invert a computed band."""
    if lower > upper + BOUNDARY_TOL:
        raise ValueError(f"the swap-rate band is inverted: lower {lower:.6g} above upper {upper:.6g}")


def swap_rate_bounds(
    nchain: NormalizedChain,
    weight: WeightSpec,
    *,
    grid: int = lower_mod.DEFAULT_GRID,
    quoted_rate: float | None = None,
) -> BoundsReport:
    """Full pipeline: payoff bounds, portfolios, measures, swap-rate band, verdicts."""
    return _report(nchain, make_payoff(weight), weight.label(), grid, quoted_rate)


def _report(nchain, payoff, label, grid=lower_mod.DEFAULT_GRID, quoted_rate=None) -> BoundsReport:
    """The one band pipeline of ``swap_rate_bounds`` and both classifiers; its band passes ``_check_band``."""
    grid = lower_mod._effective_grid(grid)
    quoted_rate = None if quoted_rate is None else _real("quote", quoted_rate)
    verdict = validate_puts(nchain)
    if not verdict.is_consistent:
        raise ValueError(f"chain is not consistent: {verdict.status.value} ({verdict.witness})")
    solution, sub_portfolio, lower_existence = compute_lower(nchain, payoff, grid=grid)
    ub = upper_mod.superhedge(nchain, payoff)
    swap_lower, swap_upper = rate_from_european(solution.value, payoff), rate_from_european(ub.value, payoff)
    _check_band(swap_lower, swap_upper)
    upper_existence = upper_dual_existence(nchain, payoff)
    quote_verdict = None
    if quoted_rate is not None:
        quote_verdict = classify_rate_against_bounds(
            quoted_rate, swap_lower, swap_upper, lower_existence=lower_existence, upper_existence=upper_existence
        )
    df = nchain.discount_factor * nchain.forward
    return BoundsReport(
        weight=label,
        chain_verdict=verdict,
        forward=nchain.forward,
        discount_factor=nchain.discount_factor,
        maturity=nchain.maturity,
        n_puts=nchain.n,
        n_min=nchain.n_min,
        n_max=nchain.n_max,
        lower_value=solution.value,
        upper_value=ub.value,
        lower_price=df * solution.value,
        upper_price=df * ub.value,
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
        grid=grid,
    )
