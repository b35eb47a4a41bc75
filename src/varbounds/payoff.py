"""Convex payoffs generated by variance-swap weight functions.

Each weight ``w`` induces a convex payoff with curvature density
``w(x) / x**2``.  The built-in weights and their payoffs:

* ``vanilla``        w(x) = 1            ->  -ln x
* ``corridor-down``  w(x) = 1 on (0, a)  ->  (-ln(x/a) + x/a - 1) below a, 0 above
* ``corridor-up``    w(x) = 1 on (a, oo) ->  0 below a, (-ln(x/a) + x/a - 1) above
* ``gamma``          w(x) = x            ->  x ln x - x
* ``inverse``        demo payoff 1/x (w(x) = 2/x), used by the CLI fixture

A custom payoff supplies its value and slope, and may supply its weight;
without one, its curvature density is a central difference of its slope.
Payoffs are represented analytically, never tabulated: the lower-bound
search evaluates them at adaptively chosen points including very large
arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .chain import NormalizedChain

_PROBE_LO = 1e6
_PROBE_HI = 1e7
_SPOT_LO, _SPOT_HI, _SPOT_SAMPLES = 1e-3, 1e3, 400  # log grid of a custom payoff's convexity spot-check
_DIFF_STEP = np.finfo(float).eps ** (1 / 3)  # relative step of the slope's central difference


class InvalidPayoff(ValueError):
    """Raised when a custom payoff fails the convexity spot-check."""


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
    """Selection of the curvature weight; ``barrier`` applies to corridors only."""

    kind: str
    barrier: float | None = None
    value_fn: Callable | None = None
    slope_fn: Callable | None = None
    weight_fn: Callable | None = None

    def __post_init__(self):
        if self.kind in ("corridor-down", "corridor-up"):
            if self.barrier is None or not (self.barrier > 0.0):
                raise InvalidPayoff("corridor weights need a positive barrier")
        elif self.kind in ("vanilla", "gamma", "inverse"):
            pass
        elif self.kind == "custom":
            if self.value_fn is None or self.slope_fn is None:
                raise InvalidPayoff("custom weights need value and slope callables")
        else:
            raise InvalidPayoff(f"unknown weight kind {self.kind!r}")

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
    def custom(cls, value_fn, slope_fn, weight_fn=None) -> "WeightSpec":
        """A user payoff; without ``weight_fn`` the weight is x^2 times a central difference of the slope."""
        return cls("custom", value_fn=value_fn, slope_fn=slope_fn, weight_fn=weight_fn)

    def label(self) -> str:
        if self.barrier is not None:
            return f"{self.kind}:{self.barrier:g}"
        return self.kind


def parse_weight(text: str) -> WeightSpec:
    """Parse the CLI weight grammar: vanilla | gamma | corridor-down:<a> | corridor-up:<a> | inverse.

    ``inverse`` is the demo payoff 1/x; ``custom`` is accepted as an alias for
    it (user-supplied callables go through ``WeightSpec.custom`` instead).
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
    density.  ``origin_value`` is the limit at 0+, ``asymptotic_slope`` the
    limit of the right derivative at infinity, ``affine_tail_threshold`` the
    least z with the payoff affine on [z, oo) (inf when never affine).
    ``tail_curvature_divergent`` records whether the first moment of the
    curvature measure diverges at infinity.
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

    def __call__(self, x):
        return self.value(x)

    @property
    def unbounded_at_origin(self) -> bool:
        return not math.isfinite(self.origin_value)

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
        base_value, base_slope = self.value, self.slope
        origin = self.origin_value if not math.isfinite(self.origin_value) else self.origin_value + beta
        gamma = self.asymptotic_slope if not math.isfinite(self.asymptotic_slope) else self.asymptotic_slope + alpha
        return replace(
            self,
            kind=f"{self.kind}+affine",
            value=_vectorized(lambda x: base_value(x) + alpha * x + beta),
            slope=_vectorized(lambda x: base_slope(x) + alpha),
            origin_value=origin,
            asymptotic_slope=gamma,
        )


def _convexity_spot_check(value) -> None:
    x = np.geomspace(_SPOT_LO, _SPOT_HI, _SPOT_SAMPLES)
    v = value(x)
    finite = np.isfinite(v)
    x, v = x[finite], v[finite]
    if x.size < 3:
        raise InvalidPayoff("custom payoff not finite anywhere on the probe grid")
    slopes = np.diff(v) / np.diff(x)
    if np.any(np.diff(slopes) < -1e-10):
        raise InvalidPayoff("custom payoff fails the convexity spot-check")


def _probe_tail_divergence(value, slope) -> bool:
    # x * slope(x) - value(x) is nondecreasing; it diverges iff the tail
    # first moment of the curvature measure does.  Divergence (even
    # logarithmic) keeps the increments from decaying; convergence shrinks
    # them geometrically across decades.
    g = lambda x: x * slope(x) - value(x)
    d1 = g(1e6) - g(1e4)
    d2 = g(1e8) - g(1e6)
    return bool(d2 > 1e-10 and d2 > 0.5 * d1)


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
        )
    if spec.kind == "corridor-down":
        a = float(spec.barrier)

        def value(x):
            core = -np.log(x / a) + x / a - 1.0
            return np.where(x <= 0.0, np.inf, np.where(x < a, core, 0.0))

        return ConvexPayoff(
            kind="corridor-down",
            value=_vectorized(value),
            slope=_vectorized(lambda x: np.where(x < a, 1.0 / a - 1.0 / x, 0.0)),
            weight=_vectorized(lambda x: (x < a).astype(float) * (x > 0.0)),
            origin_value=math.inf,
            asymptotic_slope=0.0,
            affine_tail_threshold=a,
            tail_curvature_divergent=False,
            barrier=a,
        )
    if spec.kind == "corridor-up":
        a = float(spec.barrier)

        def value(x):
            core = -np.log(x / a) + x / a - 1.0
            return np.where(x > a, core, 0.0)

        return ConvexPayoff(
            kind="corridor-up",
            value=_vectorized(value),
            slope=_vectorized(lambda x: np.where(x > a, 1.0 / a - 1.0 / x, 0.0)),
            weight=_vectorized(lambda x: (x > a).astype(float)),
            origin_value=0.0,
            asymptotic_slope=1.0 / a,
            affine_tail_threshold=math.inf,
            tail_curvature_divergent=True,
            barrier=a,
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
        )
    if spec.kind == "custom":
        value = _vectorized(spec.value_fn)
        slope = _vectorized(spec.slope_fn)

        def difference_weight(x):  # x^2 times the slope's central difference; NaN (0/0) at x = 0
            up, down = x * (1.0 + _DIFF_STEP), x * (1.0 - _DIFF_STEP)
            return np.square(x) * (slope(up) - slope(down)) / (up - down)

        weight = _vectorized(spec.weight_fn if spec.weight_fn is not None else difference_weight)
        _convexity_spot_check(value)
        v_near, v_nearer = value(1e-9), value(1e-12)
        if not math.isfinite(v_near) or not math.isfinite(v_nearer) or v_nearer > v_near + 1e-6:
            origin = math.inf
        else:
            origin = float(value(1e-14))
        # The slope rises to gamma, typically as gamma - b / x, and extrapolated
        # so from the probes gets it exactly; the slope at 1e9 falls short and
        # would make a vanishing tail a spurious optimum of the lower bound.
        s_hi, s_hi2 = slope(1e7), slope(1e9)
        gamma = math.inf
        if abs(s_hi2 - s_hi) <= 1e-6 * max(1.0, abs(s_hi2)):
            gamma = float(s_hi2 + (s_hi2 - s_hi) / 99.0)  # 99 = (1e9 - 1e7) / 1e7
        divergent = _probe_tail_divergence(value, slope)
        # Affine tail detection: the slope is constant beyond z iff the
        # curvature vanishes there; probe a coarse grid for the last change
        # (exact constancy up to rounding, so a merely flattening slope does
        # not masquerade as an affine tail).
        xs = np.geomspace(1e-2, 1e6, 200)
        sl = slope(xs)
        local_scale = 1e-14 * (1.0 + np.abs(sl[:-1]))
        changing = np.flatnonzero(np.abs(np.diff(sl)) > local_scale)
        if changing.size == 0:
            tail = 0.0
        elif changing[-1] < xs.size - 2:
            tail = float(xs[changing[-1] + 1])
        else:
            tail = math.inf
        return ConvexPayoff(
            kind="custom",
            value=value,
            slope=slope,
            weight=weight,
            origin_value=origin,
            asymptotic_slope=gamma,
            affine_tail_threshold=tail,
            tail_curvature_divergent=divergent,
        )
    raise InvalidPayoff(f"unknown weight kind {spec.kind!r}")


def check_c1(nchain: NormalizedChain, payoff: ConvexPayoff) -> bool:
    """Cheapest-to-deliver cap near the origin for payoffs unbounded at 0.

    False only when n_min = 0, the payoff blows up at the origin, and the
    first two quotes satisfy p_2 <= (k_2 / k_1) p_1, i.e. the chain permits
    all mass below k_1 to sit at zero.  With a single quote the check is
    vacuous: p_1 > 0 already forbids a unit mass at zero from repricing it;
    so it is when the chain starts above the origin (k_0 > 0), out of reach.
    """
    if not payoff.unbounded_at_origin:
        return True
    if nchain.n_min != 0 or nchain.k[0] > 0.0:
        return True
    if nchain.n < 2:
        return True
    k, p = nchain.k, nchain.p
    return bool(p[2] > (k[2] / k[1]) * p[1] + 1e-12)


@dataclass(frozen=True)
class DualExistence:
    """Whether the lower-bound infimum is attained by a proper measure."""

    verdict: str  # "guaranteed" | "fails" | "undetermined"
    condition: str | None = None

    @property
    def is_guaranteed(self) -> bool:
        return self.verdict == "guaranteed"

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "condition": self.condition}


def dual_existence_lb(nchain: NormalizedChain, payoff: ConvexPayoff, subhedge=None) -> DualExistence:
    """Sufficient conditions for a minimizing measure in the lower-bound dual.

    Checked in order: (i) a finite n_max confines all mass to a compact set;
    (iv) a divergent tail curvature moment forces the tail atom to stay
    finite; (ii), with a supplied optimal subhedge, a strict gap at the last
    strike together with superlinear escape of the payoff over the hedge
    line.  With an optimal subhedge, a strict gap on the whole tail ray
    certifies failure (payoffs affine on a half-line are left undetermined).
    """
    if math.isfinite(nchain.n_max):
        return DualExistence("guaranteed", "i")
    if payoff.tail_curvature_divergent:
        return DualExistence("guaranteed", "iv")
    if subhedge is None:
        return DualExistence("undetermined")

    kn = float(nchain.k[-1])
    lam_kn = float(payoff.value(kn))
    hedge_kn = float(subhedge.payoff(kn))
    phi = float(subhedge.forward)
    gap_at_kn = lam_kn - hedge_kn

    if gap_at_kn > 1e-9:
        excess = lambda x: float(payoff.value(x)) - phi * x
        if excess(_PROBE_HI) - excess(_PROBE_LO) > 1e-6:
            return DualExistence("guaranteed", "ii")

    if math.isfinite(payoff.affine_tail_threshold):
        return DualExistence("undetermined")

    xs = np.geomspace(kn, max(1e8, 100.0 * kn), 400)
    gaps = payoff.value(xs) - subhedge.payoff(xs)
    if np.all(gaps > 1e-9):
        return DualExistence("fails")
    return DualExistence("undetermined")
