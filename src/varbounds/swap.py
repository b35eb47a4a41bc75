"""Swap-rate bounds, quote classification, and market-unit reporting.

A weighted variance swap is price-equivalent to a European option with the
convex payoff generated by its weight: the swap rate equals twice the
normalized option value minus twice the payoff at the forward level.  This
module maps the European-payoff bounds through that relation and classifies
quoted rates against the band.  Results stay in the normalized units they
were solved in; ``BoundsReport.to_dict`` alone renders them in currency and
volatility-point units.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import lower as lower_mod
from . import upper as upper_mod
from .chain import NormalizedChain, _real, validate_puts
from .lower import AtomicMeasure, DualSolution, HedgePortfolio
from .payoff import ConvexPayoff, DualExistence, WeightSpec, dual_existence_lb, make_payoff, parse_weight
from .serialize import _dumps

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


@dataclass(frozen=True)
class BoundsReport:
    """What the band pipeline found on ``chain``, in the normalized units it solved in.

    ``to_dict`` alone renders market units: the chain verdict and market block, prices D F v, vol points
    and both ``*_currency`` hedges.
    """

    weight: str
    chain: NormalizedChain
    lower_value: float
    upper_value: float
    swap_lower: float
    swap_upper: float
    subhedge: HedgePortfolio | None
    superhedge: HedgePortfolio | None
    lower_measure: AtomicMeasure | None
    lower_existence: DualExistence | None
    upper_existence: DualExistence | None
    quoted_rate: float | None = None
    quote_verdict: PriceVerdict | None = None
    grid: int = lower_mod.DEFAULT_GRID

    @property
    def vol_lower(self) -> float:
        return vol_points(max(self.swap_lower, 0.0))

    @property
    def vol_upper(self) -> float:
        return vol_points(max(self.swap_upper, 0.0))  # inf when the band is unbounded above

    def to_dict(self) -> dict:
        def num(x):
            if x is None:
                return None
            return "inf" if math.isinf(x) else float(x)

        nc = self.chain
        df = nc.discount_factor * nc.forward
        return {
            "weight": self.weight,
            "chain_verdict": validate_puts(nc).to_dict(),
            "market": {
                "forward": nc.forward,
                "discount_factor": nc.discount_factor,
                "maturity": nc.maturity,
                "n_puts": nc.n,
                "n_min": nc.n_min,
                "n_max": num(nc.n_max),
            },
            "european": {
                "lower_value_normalized": num(self.lower_value),
                "upper_value_normalized": num(self.upper_value),
                "lower_price": num(df * self.lower_value),
                "upper_price": num(df * self.upper_value),
            },
            "swap_rate": {
                "lower": num(self.swap_lower),
                "upper": num(self.swap_upper),
                "vol_points_lower": num(self.vol_lower),
                "vol_points_upper": num(self.vol_upper),
            },
            "subhedge": self.subhedge.to_dict() if self.subhedge else None,
            "superhedge": self.superhedge.to_dict() if self.superhedge else None,
            "subhedge_currency": _currency_hedge(self.subhedge, nc),
            "superhedge_currency": _currency_hedge(self.superhedge, nc),
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

    def to_json(self) -> str:
        """The report as ``varbounds bounds`` writes it: ``to_dict`` in JSON, numbers at 12 significant digits."""
        return _dumps(self.to_dict())


def _currency_hedge(portfolio: HedgePortfolio | None, nchain: NormalizedChain) -> dict | None:
    """A normalized hedge's dict in currency units, no-dividend convention: cash x F x D, strikes x F."""
    if portfolio is None:
        return None
    f, d = nchain.forward, nchain.discount_factor
    return {**portfolio.to_dict(), "cash": portfolio.cash * f * d, "strikes": (portfolio.strikes * f).tolist(),
            "normalized": False}


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


def classify_european(nchain: NormalizedChain, payoff: ConvexPayoff, quoted_price: float) -> PriceVerdict:
    """Classify a quoted European price in currency, D F v, against the sub/super-replication band.

    The price maps to its swap rate, classified as ``swap_rate_bounds`` does:
    strictly inside the open band is consistent; strictly outside is a
    model-independent arbitrage on the named side; on the band edge, within
    ``BOUNDARY_TOL`` in swap rate, the verdict defers to dual existence on
    that side; the origin-cap failure is a weak arbitrage regardless of the quote.
    """
    p_norm = _real("quoted price", quoted_price) / (nchain.discount_factor * nchain.forward)
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
    lower, upper = _check_band(lower, upper)
    if abs(quoted - lower) <= BOUNDARY_TOL:
        return PriceVerdict(VerdictStatus.BOUNDARY, side="lower", existence=lower_existence)
    if math.isfinite(upper) and abs(quoted - upper) <= BOUNDARY_TOL:
        return PriceVerdict(VerdictStatus.BOUNDARY, side="upper", existence=upper_existence)
    if quoted < lower:
        return PriceVerdict(VerdictStatus.MODEL_INDEPENDENT_ARBITRAGE, side="below")
    if quoted > upper:
        return PriceVerdict(VerdictStatus.MODEL_INDEPENDENT_ARBITRAGE, side="above")
    return PriceVerdict(VerdictStatus.CONSISTENT)


def _check_band(lower: float, upper: float) -> tuple[float, float]:
    """Both edges as floats; a NaN edge or inversion past ``BOUNDARY_TOL`` raises: either is a fault (weak duality)."""
    lower, upper = _real("lower band edge", lower, finite=False), _real("upper band edge", upper, finite=False)
    if lower > upper + BOUNDARY_TOL:
        raise ValueError(f"the swap-rate band is inverted: lower {lower:.6g} above upper {upper:.6g}")
    return lower, upper


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
    swap_lower, swap_upper = _check_band(*(rate_from_european(v, payoff) for v in (solution.value, ub.value)))
    upper_existence = upper_dual_existence(nchain, payoff)
    quote_verdict = None
    if quoted_rate is not None:
        quote_verdict = classify_rate_against_bounds(
            quoted_rate, swap_lower, swap_upper, lower_existence=lower_existence, upper_existence=upper_existence
        )
    return BoundsReport(
        weight=label,
        chain=nchain,
        lower_value=solution.value,
        upper_value=ub.value,
        swap_lower=swap_lower,
        swap_upper=swap_upper,
        subhedge=sub_portfolio,
        superhedge=ub.portfolio,
        lower_measure=solution.measure,
        lower_existence=lower_existence,
        upper_existence=upper_existence,
        quoted_rate=quoted_rate,
        quote_verdict=quote_verdict,
        grid=grid,
    )
