"""Convex payoffs generated by variance-swap weight functions.

Each weight ``w`` induces a convex payoff with curvature density
``w(x) / x**2``.  The built-in weights and their payoffs:

* ``vanilla``        w(x) = 1            ->  -ln x
* ``corridor-down``  w(x) = 1 on (0, a)  ->  -ln(x/c) + x/c - 1 below a, c = min(a, 1)
* ``corridor-up``    w(x) = 1 on (a, oo) ->  -ln(x/c) + x/c - 1 above a, c = max(a, 1)
* ``gamma``          w(x) = x            ->  x ln x - x
* ``inverse``        demo payoff 1/x (w(x) = 2/x), used by the CLI fixture

Every corridor vanishes with its slope at the forward 1: c is the corridor
point nearest it, and outside the corridor the payoff is its tangent at a, 0
when c = a.  With the forward inside (a < 1 up, a > 1 down), c = 1 and the
payoff is -ln(x/a) + x/a - 1 less ln a + (1/a - 1) x: the swap rate is the
same, European values are ln a + 1/a - 1 lower, and hedges hold 1/a - 1 less
forward and ln a less cash.

A custom payoff, ``WeightSpec.custom``, states its value, its slope, its four
limits and, if it likes, its weight; without one, its curvature density is a
central difference of its slope.  ``make_payoff`` never estimates a
limit: it checks each stated one against facts that convexity makes exact at
sample points, and refuses the payoff where one fails.  Payoffs are
represented analytically, never tabulated: the lower-bound search evaluates
them at adaptively chosen points including very large arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .chain import EQ_TOL, NormalizedChain, _scale

_SPOT_LO, _SPOT_HI, _SPOT_SAMPLES = 1e-3, 1e3, 400  # log grid of a custom payoff's checks
_EPS = np.finfo(float).eps  # a value checked may be off by this much of its size
_DIFF_STEP = _EPS ** (1 / 3)  # relative step of the slope's central difference


class InvalidPayoff(ValueError):
    """Raised for an unknown weight, a bad barrier, or a custom payoff that fails a check."""


def _vectorized(fn: Callable[[np.ndarray], np.ndarray]):
    def wrapped(x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        with np.errstate(all="ignore"):
            out = np.asarray(fn(np.atleast_1d(arr)), dtype=float)
        return float(out[0]) if scalar else out

    return wrapped


@dataclass(frozen=True)
class WeightSpec:
    """Selection of the curvature weight; only a corridor takes a ``barrier``, only ``custom`` a ``payoff``."""

    kind: str
    barrier: float | None = None
    payoff: ConvexPayoff | None = None

    def __post_init__(self):
        if self.kind in ("corridor-down", "corridor-up"):
            _scale("the finite barrier of a corridor weight", self.barrier, error=InvalidPayoff)
        elif self.kind not in ("vanilla", "gamma", "inverse", "custom"):
            raise InvalidPayoff(f"unknown weight kind {self.kind!r}")
        elif self.barrier is not None:
            raise InvalidPayoff(f"only a corridor weight takes a barrier, not {self.kind} (got {self.barrier!r})")
        if self.kind == "custom" and not isinstance(self.payoff, ConvexPayoff):
            raise InvalidPayoff("a custom weight needs a ConvexPayoff stating its limits")
        if self.kind != "custom" and self.payoff is not None:
            raise InvalidPayoff(f"only a custom weight takes a payoff, not {self.kind}")

    @classmethod
    def vanilla(cls) -> "WeightSpec":
        return cls("vanilla")

    @classmethod
    def gamma(cls) -> "WeightSpec":
        return cls("gamma")

    @classmethod
    def corridor_down(cls, barrier: float) -> "WeightSpec":
        return cls("corridor-down", barrier=barrier)

    @classmethod
    def corridor_up(cls, barrier: float) -> "WeightSpec":
        return cls("corridor-up", barrier=barrier)

    @classmethod
    def inverse(cls) -> "WeightSpec":
        return cls("inverse")

    @classmethod
    def custom(cls, value: Callable, slope: Callable, weight: Callable | None = None, *, origin_value: float,
               asymptotic_slope: float, tail_curvature_divergent: bool,
               affine_tail_threshold: float = math.inf) -> "WeightSpec":
        """A user payoff: its value, its right slope and its four limits, as stated.

        ``origin_value`` (the value at 0+), ``asymptotic_slope`` (the slope's
        limit at infinity), ``tail_curvature_divergent`` (whether the integral
        of x d slope diverges at infinity) and ``affine_tail_threshold`` (the
        least z with the payoff affine on [z, oo)) set the superhedge, its tail
        and both existence verdicts.  Without a ``weight``, the curvature
        density is a central difference of the slope.  ``make_payoff`` raises
        :class:`InvalidPayoff` where a check on its log grid refutes the
        payoff: a convexity spot-check, a slope above the stated asymptotic
        slope, an origin value below a tangent's intercept, a slope that
        changes past a finite affine threshold, or an infinite asymptotic slope
        with a convergent tail curvature moment.  The checks can refute a
        stated limit, never supply one.
        """
        if weight is None:
            def weight(x):  # x^2 times the slope's central difference; NaN (0/0) at x = 0
                up, down = x * (1.0 + _DIFF_STEP), x * (1.0 - _DIFF_STEP)
                return np.square(x) * (slope(up) - slope(down)) / (up - down)

        payoff = ConvexPayoff("custom", value, slope, weight, origin_value, asymptotic_slope, affine_tail_threshold,
                              tail_curvature_divergent)
        return cls("custom", payoff=payoff)

    def label(self) -> str:
        if self.barrier is not None:
            return f"{self.kind}:{self.barrier:g}"
        return self.kind


def parse_weight(text: str) -> WeightSpec:
    """Parse the CLI weight grammar: vanilla | gamma | corridor-down:<a> | corridor-up:<a> | inverse.

    The barrier ``<a>`` is positive and finite, with a finite reciprocal.
    ``inverse`` is the demo payoff 1/x; ``custom`` is accepted as an alias for
    it (user payoffs go through ``WeightSpec.custom`` instead).
    """
    token = text.strip().lower()
    if token == "vanilla":
        return WeightSpec.vanilla()
    if token == "gamma":
        return WeightSpec.gamma()
    if token in ("inverse", "custom"):
        return WeightSpec.inverse()
    for kind in ("corridor-down", "corridor-up"):
        if token.startswith(kind + ":"):
            try:
                barrier = float(token[len(kind) + 1 :])
            except ValueError as exc:
                raise InvalidPayoff(f"bad corridor barrier in {text!r}") from exc
            return WeightSpec(kind, barrier=barrier)
    raise InvalidPayoff(f"cannot parse weight spec {text!r}")


@dataclass(frozen=True)
class ConvexPayoff:
    """A convex payoff with the analytic predicates the bound solvers need.

    ``slope`` is the right derivative.  ``weight(x) / x**2`` is the curvature
    density.  ``origin_value`` is the limit at 0+, and ``value(0)`` returns
    it for every payoff, custom ones included; ``asymptotic_slope`` is the
    limit of the right derivative at infinity, ``affine_tail_threshold`` the
    least z with the payoff affine on [z, oo) (inf when never affine).
    ``tail_curvature_divergent`` records whether the first moment of the
    curvature measure diverges at infinity.  ``slope_inverse`` is the
    generalized inverse m -> inf{x > 0 : slope(x) >= m} (0 or inf where m
    lies outside the slope's range) in closed form, to within rounding; where
    it is None, as for every custom payoff, tangency points are root-found.
    """

    kind: str
    value: Callable
    slope: Callable
    weight: Callable
    origin_value: float
    asymptotic_slope: float
    affine_tail_threshold: float
    tail_curvature_divergent: bool
    barrier: float | None = None
    slope_inverse: Callable | None = None

    def at_one(self) -> float:
        return float(self.value(1.0))

    def curvature(self, x):
        """Second-derivative density weight(x) / x**2."""
        arr = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            out = self.weight(arr) / np.square(arr)
        return out

    def shift_affine(self, alpha: float, beta: float) -> "ConvexPayoff":
        """The payoff plus ``alpha * x + beta``; bounds shift by exactly alpha + beta."""
        base_value, base_slope, base_inverse = self.value, self.slope, self.slope_inverse
        return replace(
            self,
            kind=f"{self.kind}+affine",
            value=_vectorized(lambda x: base_value(x) + alpha * x + beta),
            slope=_vectorized(lambda x: base_slope(x) + alpha),
            origin_value=self.origin_value + beta,
            asymptotic_slope=self.asymptotic_slope + alpha,
            slope_inverse=None if base_inverse is None else _vectorized(lambda m: base_inverse(m - alpha)),
        )


def _check_custom(value, slope, stated: ConvexPayoff) -> None:
    """Refute a custom payoff or its stated limits at the points of a log grid.

    Each test is one-sided and exact for a convex payoff, up to the rounding
    of the numbers it compares (each may be off by ``_EPS`` of its size): the
    difference quotients of the values rise; the right slope rises to its
    limit gamma, so no slope exceeds it, and where the payoff is affine on
    [z, oo) every slope there is gamma; every tangent lies below the payoff,
    so its intercept is at most the value at 0+; and a slope rising to inf
    makes the tail curvature moment, the integral of x d slope, diverge.
    """
    x = np.geomspace(_SPOT_LO, _SPOT_HI, _SPOT_SAMPLES)
    v, s = value(x), slope(x)
    finite = np.isfinite(v)
    if np.count_nonzero(finite) < 3:
        raise InvalidPayoff("custom payoff not finite anywhere on the check grid")
    xf, vf = x[finite], v[finite]
    dx = np.diff(xf)
    quotients = np.diff(vf) / dx
    rounding = _EPS * ((np.abs(vf[:-1]) + np.abs(vf[1:])) / dx + np.abs(quotients))
    if np.any(np.diff(quotients) < -(rounding[:-1] + rounding[1:])):
        raise InvalidPayoff("custom payoff fails the convexity spot-check")
    gamma, z = stated.asymptotic_slope, stated.affine_tail_threshold
    live = np.isfinite(s)
    if not np.all(s[live] <= gamma + _EPS * np.abs(s[live])):
        raise InvalidPayoff(f"a slope of the custom payoff exceeds its stated asymptotic slope {gamma!r}")
    ok = finite & live
    intercept, slack = v[ok] - x[ok] * s[ok], _EPS * (np.abs(v[ok]) + np.abs(x[ok] * s[ok]))
    if not np.all(stated.origin_value >= intercept - slack):
        raise InvalidPayoff(f"the stated origin value {stated.origin_value!r} lies below a tangent's intercept")
    if z != math.inf:
        past = slope(np.append(z, x[x > z]))
        if not (z >= 0.0 and np.all(np.abs(past - gamma) <= _EPS * np.abs(past))):
            raise InvalidPayoff(f"the slope of the custom payoff is not {gamma!r} past its affine threshold {z!r}")
    if gamma == math.inf and not stated.tail_curvature_divergent:
        raise InvalidPayoff("an infinite asymptotic slope needs a divergent tail curvature moment")


def make_payoff(spec: WeightSpec) -> ConvexPayoff:
    """Build the analytic payoff for a weight selection."""
    if spec.kind == "vanilla":
        return ConvexPayoff(
            kind="vanilla",
            value=_vectorized(lambda x: np.where(x > 0.0, -np.log(x), np.inf)),
            slope=_vectorized(lambda x: -1.0 / x),
            weight=_vectorized(lambda x: np.ones_like(x)),
            origin_value=math.inf,
            asymptotic_slope=0.0,
            affine_tail_threshold=math.inf,
            tail_curvature_divergent=True,
            slope_inverse=_vectorized(lambda m: np.where(m < 0.0, -1.0 / m, np.inf)),
        )
    if spec.kind == "gamma":
        return ConvexPayoff(
            kind="gamma",
            value=_vectorized(lambda x: np.where(x > 0.0, x * np.log(x) - x, 0.0)),
            slope=_vectorized(lambda x: np.where(x > 0.0, np.log(x), -np.inf)),
            weight=_vectorized(lambda x: x),
            origin_value=0.0,
            asymptotic_slope=math.inf,
            affine_tail_threshold=math.inf,
            tail_curvature_divergent=True,
            slope_inverse=_vectorized(np.exp),
        )
    if spec.kind in ("corridor-down", "corridor-up"):
        a, up = float(spec.barrier), spec.kind == "corridor-up"
        c, inside = (max(a, 1.0), np.greater) if up else (min(a, 1.0), np.less)  # c: nearest the forward
        s, v = 1.0 / c - 1.0 / a, -math.log(a / c) + a / c - 1.0  # slope and value at a: both 0.0 when c = a

        def value(x):  # the tangent at a outside the corridor, the scalar 0.0 when c = a
            out = np.where(inside(x, a), -np.log(x / c) + x / c - 1.0, 0.0 if c == a else v + s * (x - a))
            return out if up else np.where(x <= 0.0, np.inf, out)

        def slope_inverse(m):  # the inside slope 1/c - 1/x runs over (s, 1/c) for corridor-up, (-oo, s] for down
            x = 1.0 / (1.0 / c - m)
            return np.where(m <= s, 0.0, np.where(m < 1.0 / c, x, np.inf)) if up else np.where(m <= s, x, np.inf)

        return ConvexPayoff(
            kind=spec.kind,
            value=_vectorized(value),
            slope=_vectorized(lambda x: np.where(inside(x, a), 1.0 / c - 1.0 / x, s)),
            weight=_vectorized(lambda x: inside(x, a) if up else (x < a) & (x > 0.0)),
            origin_value=v - s * a if up else math.inf,
            asymptotic_slope=1.0 / c if up else s,
            affine_tail_threshold=math.inf if up else a,
            tail_curvature_divergent=up,
            barrier=a,
            slope_inverse=_vectorized(slope_inverse),
        )
    if spec.kind == "inverse":
        return ConvexPayoff(
            kind="inverse",
            value=_vectorized(lambda x: np.where(x > 0.0, 1.0 / x, np.inf)),
            slope=_vectorized(lambda x: -1.0 / np.square(x)),
            weight=_vectorized(lambda x: 2.0 / x),
            origin_value=math.inf,
            asymptotic_slope=0.0,
            affine_tail_threshold=math.inf,
            tail_curvature_divergent=False,
            slope_inverse=_vectorized(lambda m: np.where(m < 0.0, 1.0 / np.sqrt(-m), np.inf)),
        )
    # custom, the one kind left (WeightSpec refuses others): the stated value, slope, weight and limits
    stated = spec.payoff
    slope, base_value, origin = _vectorized(stated.slope), stated.value, stated.origin_value
    value = _vectorized(lambda x: np.where(x == 0.0, origin, base_value(x)))  # value(0) is the stated limit
    _check_custom(value, slope, stated)
    return ConvexPayoff("custom", value, slope, _vectorized(stated.weight), origin, stated.asymptotic_slope,
                        stated.affine_tail_threshold, stated.tail_curvature_divergent)


def check_c1(nchain: NormalizedChain, payoff: ConvexPayoff) -> bool:
    """Cheapest-to-deliver cap near the origin for payoffs unbounded at 0.

    False only when n_min = 0, the payoff blows up at the origin, and the
    first two quotes satisfy p_2 <= (k_2 / k_1) p_1, i.e. the chain permits
    all mass below k_1 to sit at zero.  With a single quote the check is
    vacuous: p_1 > 0 already forbids a unit mass at zero from repricing it;
    so it is when the chain starts above the origin (k_0 > 0), out of reach.
    """
    if math.isfinite(payoff.origin_value):
        return True
    if nchain.n_min != 0 or nchain.k[0] > 0.0:
        return True
    if nchain.n < 2:
        return True
    k, p = nchain.k, nchain.p
    return bool(p[2] > (k[2] / k[1]) * p[1] + EQ_TOL)


@dataclass(frozen=True)
class DualExistence:
    """Whether the lower-bound infimum is attained by a proper measure."""

    verdict: str  # "guaranteed" | "fails" | "undetermined"
    condition: str | None = None

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "condition": self.condition}


def dual_existence_lb(nchain: NormalizedChain, payoff: ConvexPayoff, subhedge) -> DualExistence:
    """Sufficient conditions for a minimizing measure in the lower-bound dual, given the optimal subhedge.

    Checked in order: (i) a finite n_max confines all mass to a compact set;
    (iv) a divergent tail curvature moment forces the tail atom to stay
    finite; (ii) a strict gap of the subhedge at the last strike and an
    asymptotic slope above the hedge's forward position phi, so that the
    convex payoff - phi x grows without bound.  Past those, a gap over 1e-9
    at k_n is failure, exactly, for a payoff affine on no half-line: its
    slope stays below gamma <= phi, so the gap falls on all of [k_n, oo) and
    never closes; the infimum lies at infinity.  Else: undetermined.
    """
    if math.isfinite(nchain.n_max):
        return DualExistence("guaranteed", "i")
    if payoff.tail_curvature_divergent:
        return DualExistence("guaranteed", "iv")
    kn = float(nchain.k[-1])
    gapped = float(payoff.value(kn)) - float(subhedge.payoff(kn)) > 1e-9  # a strict gap at k_n
    if gapped and payoff.asymptotic_slope > float(subhedge.forward):
        return DualExistence("guaranteed", "ii")
    if math.isfinite(payoff.affine_tail_threshold) or not gapped:
        return DualExistence("undetermined")
    return DualExistence("fails")
