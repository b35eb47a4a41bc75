"""Cheapest super-replicating portfolio and the upper price bound.

The optimal superhedge is explicit: the linear interpolation of the payoff
through the informative strikes, extended to the right with the payoff's
asymptotic slope.  It exists iff both payoff tails are tame (finite value at
the origin, finite asymptotic slope), with each condition waived when the
chain itself confines the support on that side.  Infeasibility is an
expected, informative outcome (plain variance swaps have no finite upper
bound), so it is a typed result rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import NormalizedChain, _real, validate_puts
from .lower import AtomicMeasure, HedgePortfolio, _forward_tangent, _portfolio_from_nodes
from .payoff import ConvexPayoff


class NegativeWeight(ValueError):
    """Extremal-measure construction hit a negative weight: z too small."""


@dataclass(frozen=True)
class UpperBound:
    """The cheapest superhedge and its cost; no portfolio and an infinite value where none exists."""

    value: float
    portfolio: HedgePortfolio | None

    @property
    def feasible(self) -> bool:
        return self.portfolio is not None


def _tame_tails(nchain: NormalizedChain, payoff: ConvexPayoff) -> bool:
    left_ok = nchain.n_min > 0 or math.isfinite(payoff.origin_value)
    right_ok = math.isfinite(nchain.n_max) or math.isfinite(payoff.asymptotic_slope)
    return left_ok and right_ok


def superhedge(nchain: NormalizedChain, payoff: ConvexPayoff) -> UpperBound:
    """Interpolation portfolio through (k_i, payoff(k_i)) on the strikes of ``nchain.window``.

    Forward weight equals the asymptotic slope (the last chord's when
    capped); put weights are the second divided differences of the payoff at
    the strikes.  The first chord continues below the window and the tail
    slope above it, so no weight falls on redundant options.  Domination
    holds on all of (0, oo) when the payoff has tame tails, and on
    [k_{n_min}, oo) in the relaxed cases.  A capped window of one strike, the
    cap at or below the free puts, pins the support at the forward: payoff(1)
    and the payoff's tangent there.  An inconsistent chain raises ``ValueError``.
    """
    if not validate_puts(nchain).is_consistent:
        raise ValueError("a superhedge needs a consistent chain")
    if not _tame_tails(nchain, payoff):
        return UpperBound(math.inf, None)
    capped = math.isfinite(nchain.n_max)
    if capped and nchain.window.n < 1:  # uncapped, one free strike keeps slope gamma: mass may escape
        value, portfolio = _forward_tangent(nchain, payoff)
        return UpperBound(value, portfolio)
    xs = nchain.window.k
    vs = np.atleast_1d(np.asarray(payoff.value(xs), dtype=float))
    phi = float((vs[-1] - vs[-2]) / (xs[-1] - xs[-2])) if capped else float(payoff.asymptotic_slope)
    portfolio = _portfolio_from_nodes(nchain, vs, phi)
    return UpperBound(portfolio.setup_cost(nchain), portfolio)


def extremal_upper_measure(nchain: NormalizedChain, z: float) -> AtomicMeasure:
    """Measure with atoms on the informative strikes plus z, maximizing put values.

    Its put-value curve is the chain interpolant on the strikes, straight to
    (z, z - 1) and slope one beyond, so every quoted put reprices exactly and
    the mean is one.  Weights are the slope changes at the nodes; z below the
    admissibility threshold makes the weight at the last strike negative.  A
    cap at or below the free puts pins the support at the forward: z must be
    the cap strike, which consistency puts within 2 EQ_TOL of 1.  An
    inconsistent chain raises ``ValueError``, whatever z.
    """
    if not validate_puts(nchain).is_consistent:
        raise ValueError("the extremal upper measure needs a consistent chain")
    z = _real("support cap z", z)
    xs, vs = list(nchain.window.k), list(nchain.window.p)
    if math.isfinite(nchain.n_max):
        if abs(z - xs[-1]) > 1e-9:
            raise ValueError(f"with a finite n_max the support cap must be {xs[-1]:.12g}")
    else:
        if z <= xs[-1] + 1e-12:
            raise ValueError("support cap z must exceed the last strike")
        xs.append(float(z))
        vs.append(float(z - 1.0))
    xs_arr = np.asarray(xs)
    vs_arr = np.asarray(vs)
    inner = np.diff(vs_arr) / np.diff(xs_arr)
    slopes = np.concatenate(([0.0], inner, [1.0]))
    weights = np.diff(slopes)
    if np.any(weights < -1e-12):
        raise NegativeWeight(f"support cap z = {z:.6g} too small: negative weight in the moment system")
    keep = weights > 1e-14
    return AtomicMeasure(xs_arr[keep], np.clip(weights[keep], 0.0, None))


def dominates_above(
    portfolio: HedgePortfolio,
    payoff: ConvexPayoff,
    nchain: NormalizedChain,
    grid: np.ndarray | None = None,
    tol: float = 1e-10,
) -> bool:
    """Exact domination to ``tol`` on ``nchain.window``, past k_top unless capped; ``grid`` is not read.

    Payoff minus a line is convex, so it peaks at the window's ends and strikes, and past an uncapped
    window it does not rise iff the portfolio's tail slope is at least the payoff's asymptotic slope.
    A pinned support is checked at its one point, the cap strike.
    """
    k = nchain.window.k
    if not math.isfinite(nchain.n_max) and portfolio.forward < payoff.asymptotic_slope:
        return False
    pts = np.clip(np.append(portfolio.strikes, (k[0], k[-1])), k[0], k[-1])
    with np.errstate(all="ignore"):
        h = portfolio.payoff(pts)
        lam = payoff.value(pts)
    return bool(np.all(h >= lam - tol))
