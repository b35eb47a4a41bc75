import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from varbounds import (
    DualExistence,
    HedgePortfolio,
    InvalidPayoff,
    WeightSpec,
    check_c1,
    dual_existence_lb,
    make_payoff,
    normalize,
    parse_weight,
    superhedge,
    swap_rate_bounds,
)
from varbounds import OptionChain, VerdictStatus
from varbounds.lower import dominates_below
from varbounds.swap import compute_lower
from conftest import random_consistent_chain, single_put_chain, twin_weight

ALL_SPECS = [
    WeightSpec.vanilla(),
    WeightSpec.gamma(),
    WeightSpec.corridor_down(0.8),
    WeightSpec.corridor_up(1.0),
    WeightSpec.inverse(),
    WeightSpec.corridor_down(1.5),  # the forward inside the corridor: c = 1
    WeightSpec.corridor_up(0.5),
]


def chain_of(strikes, prices):
    return normalize(
        OptionChain(
            maturity=1.0,
            discount_factor=1.0,
            forward=1.0,
            strikes=np.asarray(strikes, dtype=float),
            put_prices=np.asarray(prices, dtype=float),
        )
    )


class TestBuiltins:
    def test_vanilla(self):
        lam = make_payoff(WeightSpec.vanilla())
        assert lam.value(1.0) == pytest.approx(0.0, abs=1e-15)
        assert lam.asymptotic_slope == 0.0
        assert math.isinf(lam.origin_value)

    def test_gamma(self):
        lam = make_payoff(WeightSpec.gamma())
        assert lam.value(1.0) == pytest.approx(-1.0, abs=1e-15)
        assert math.isinf(lam.asymptotic_slope)
        assert lam.origin_value == 0.0

    def test_corridor_up(self):
        lam = make_payoff(WeightSpec.corridor_up(1.0))
        assert lam.value(0.5) == 0.0
        assert lam.value(math.e) == pytest.approx(math.e - 2.0, abs=1e-14)
        assert lam.asymptotic_slope == pytest.approx(1.0)
        assert lam.origin_value == 0.0

    def test_corridor_down(self):
        a = 0.8
        lam = make_payoff(WeightSpec.corridor_down(a))
        assert lam.value(a) == pytest.approx(0.0, abs=1e-14)
        assert lam.value(2.0) == 0.0
        assert lam.value(0.4) == pytest.approx(-math.log(0.5) + 0.5 - 1.0, abs=1e-14)
        assert math.isinf(lam.origin_value)
        assert lam.affine_tail_threshold == a

    @pytest.mark.parametrize("kind", ["corridor-down", "corridor-up"])
    @pytest.mark.parametrize("barrier", [-1.0, 0.0, math.nan, math.inf, 1e-320])  # 1 / 1e-320 is inf
    def test_corridor_needs_positive_barrier(self, kind, barrier):
        with pytest.raises(InvalidPayoff, match="finite barrier"):
            WeightSpec(kind, barrier=barrier)
        with pytest.raises(InvalidPayoff, match="finite barrier"):
            parse_weight(f"{kind}:{barrier!r}")

    @pytest.mark.parametrize("kind", ["vanilla", "gamma", "inverse", "custom"])
    def test_only_a_corridor_takes_a_barrier(self, kind):
        payoff = make_payoff(WeightSpec.vanilla()) if kind == "custom" else None
        with pytest.raises(InvalidPayoff, match="only a corridor weight takes a barrier"):
            WeightSpec(kind, barrier=2.0, payoff=payoff)

    @pytest.mark.parametrize("kind,barrier", [("vanilla", None), ("gamma", None), ("inverse", None),
                                              ("corridor-up", 1.0), ("corridor-down", 0.9)])
    def test_only_a_custom_weight_takes_a_payoff(self, kind, barrier):
        with pytest.raises(InvalidPayoff, match="only a custom weight takes a payoff"):
            WeightSpec(kind, barrier=barrier, payoff=make_payoff(WeightSpec.vanilla()))

    def test_custom_convexity_rejected(self):
        with pytest.raises(InvalidPayoff, match="convexity"):
            make_payoff(WeightSpec.custom(lambda x: -np.square(x - 1.0), lambda x: -2.0 * (x - 1.0),
                                          origin_value=math.inf, asymptotic_slope=math.inf,
                                          tail_curvature_divergent=True))


def old_corridor(kind, a):
    """The barrier-anchored forms, -ln(x/a) + x/a - 1 in the corridor and 0 outside, as closed forms."""
    up = kind == "corridor-up"

    def value(x):
        core = -np.log(x / a) + x / a - 1.0
        return np.where(x > a, core, 0.0) if up else np.where(x <= 0.0, np.inf, np.where(x < a, core, 0.0))

    def slope(x):
        return np.where(x > a, 1.0 / a - 1.0 / x, 0.0) if up else np.where(x < a, 1.0 / a - 1.0 / x, 0.0)

    def weight(x):
        return (x > a).astype(float) if up else (x < a).astype(float) * (x > 0.0)

    def slope_inverse(m):
        if up:
            return np.where(m <= 0.0, 0.0, np.where(m < 1.0 / a, 1.0 / (1.0 / a - m), np.inf))
        return np.where(m <= 0.0, 1.0 / (1.0 / a - m), np.inf)

    return value, slope, weight, slope_inverse


class TestCorridorAnchor:
    """Every corridor is -ln(x/c) + x/c - 1 in the corridor, c the corridor point nearest the forward,
    and the tangent at the barrier outside it."""

    BARRIERS = [("corridor-up", a) for a in (1e-300, 1e-6, 0.5, 0.9, 1.0, 1.5, 2.0)] + [
        ("corridor-down", a) for a in (0.5, 0.8, 0.9, 1.0, 1.1, 1.3, 2.0, 1e300)]
    OUTSIDE = [("corridor-up", a) for a in (1.0, 1.5, 2.0)] + [("corridor-down", a) for a in (0.8, 0.9, 1.0)]

    @pytest.mark.parametrize("kind, a", BARRIERS, ids=lambda v: str(v))
    def test_vanishes_with_its_slope_at_the_forward(self, kind, a):
        payoff = make_payoff(WeightSpec(kind, barrier=a))
        assert payoff.value(1.0) == payoff.slope(1.0) == payoff.at_one() == 0.0
        assert payoff.value(0.0) == payoff.origin_value

    @pytest.mark.parametrize("kind, a", OUTSIDE, ids=lambda v: str(v))
    def test_outside_barriers_keep_the_old_closed_forms_bit_for_bit(self, kind, a):
        payoff = make_payoff(WeightSpec(kind, barrier=a))
        value, slope, weight, slope_inverse = old_corridor(kind, a)
        below, above = np.nextafter(a, 0.0), np.nextafter(a, math.inf)
        xs = np.array([0.0, 1e-300, 0.5 * a, below, a, above, 2.0 * a, 1.0, 1e300, math.inf])
        ms = np.concatenate(([-math.inf, -1.0, -0.0, 0.0, 1e-300, 1.0 / a, math.inf], payoff.slope(xs[1:-1])))
        with np.errstate(all="ignore"):
            for new, old, points in ((payoff.value, value, xs), (payoff.slope, slope, xs),
                                     (payoff.weight, weight, xs), (payoff.slope_inverse, slope_inverse, ms)):
                assert new(points).tobytes() == old(points).tobytes()
        assert payoff.origin_value == (0.0 if kind == "corridor-up" else math.inf)
        assert payoff.asymptotic_slope == (1.0 / a if kind == "corridor-up" else 0.0)

    @pytest.mark.parametrize("kind, a", [("corridor-up", 0.5), ("corridor-up", 1e-3), ("corridor-down", 1.5),
                                         ("corridor-down", 40.0)], ids=lambda v: str(v))
    def test_inside_barriers_drop_the_tangent_at_one(self, kind, a):
        # the barrier-anchored form less ln a + (1/a - 1) x, its tangent at the forward
        payoff = make_payoff(WeightSpec(kind, barrier=a))
        value, slope, _, _ = old_corridor(kind, a)
        xs = np.geomspace(a / 50.0, 50.0 * a, 201)
        tangent = math.log(a) + (1.0 / a - 1.0) * xs
        scale = 1.0 + np.abs(value(xs)) + np.abs(tangent)
        assert np.all(np.abs(payoff.value(xs) - (value(xs) - tangent)) <= 1e-13 * scale)
        assert np.all(np.abs(payoff.slope(xs) - (slope(xs) - (1.0 / a - 1.0))) <= 1e-13 * (1.0 + 1.0 / a))


class TestAnalyticConsistency:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_slope_matches_finite_differences(self, spec):
        lam = make_payoff(spec)
        rng = np.random.default_rng(5)
        xs = rng.uniform(0.01, 100.0, size=100)
        if lam.barrier is not None:
            xs = xs[np.abs(xs - lam.barrier) > 1e-4]
        h = 1e-7
        fd = (lam.value(xs + h) - lam.value(xs - h)) / (2.0 * h)
        np.testing.assert_allclose(fd, lam.slope(xs), rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_slope_increment_integrates_curvature(self, spec):
        lam = make_payoff(spec)
        intervals = [(0.1, 0.5), (1.3, 2.0), (2.5, 9.0)]
        for a, b in intervals:
            if lam.barrier is not None and a <= lam.barrier <= b:
                continue
            integral, _ = quad(lambda x: lam.weight(x) / x**2, a, b, limit=200)
            assert lam.slope(b) - lam.slope(a) == pytest.approx(integral, abs=1e-8)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from(range(len(ALL_SPECS))),
        st.floats(min_value=0.02, max_value=50.0),
        st.floats(min_value=0.02, max_value=50.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_convexity(self, spec_idx, x, y, t):
        lam = make_payoff(ALL_SPECS[spec_idx])
        mid = lam.value(t * x + (1.0 - t) * y)
        assert mid <= t * lam.value(x) + (1.0 - t) * lam.value(y) + 1e-12

    @pytest.mark.parametrize("spec", ALL_SPECS + [
        twin_weight("gamma", lambda x: x * np.log(x) - x, np.log),  # NaN at 0
        twin_weight("vanilla", lambda x: -np.log(x), lambda x: -1.0 / x),  # inf at 0
        WeightSpec.custom(lambda x: np.exp(-x), lambda x: -np.exp(-x), origin_value=1.0, asymptotic_slope=0.0,
                          tail_curvature_divergent=False),
    ], ids=lambda s: s.label())
    def test_value_at_the_origin_is_the_origin_value(self, spec):
        lam = make_payoff(spec)
        for payoff in (lam, lam.shift_affine(0.5, -2.0)):
            assert payoff.value(0.0) == payoff.origin_value
            assert payoff.value(np.zeros(2)).tolist() == [payoff.origin_value] * 2

    def test_shift_affine(self):
        lam = make_payoff(WeightSpec.corridor_up(1.0))
        shifted = lam.shift_affine(0.5, -2.0)
        xs = np.array([0.3, 1.7, 8.0])
        np.testing.assert_allclose(shifted.value(xs), lam.value(xs) + 0.5 * xs - 2.0)
        np.testing.assert_allclose(shifted.slope(xs), lam.slope(xs) + 0.5)
        assert shifted.asymptotic_slope == pytest.approx(lam.asymptotic_slope + 0.5)
        assert shifted.origin_value == pytest.approx(lam.origin_value - 2.0)


def exact_slope(spec, alpha, x):
    """The slope of ``spec``'s payoff plus ``alpha * x`` at the float ``x``, to 80 digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        X = Decimal(x)
        if spec.kind == "vanilla":
            s = -1 / X
        elif spec.kind == "gamma":
            s = X.ln()
        elif spec.kind == "inverse":
            s = -1 / (X * X)
        else:
            a, up = Decimal(spec.barrier), spec.kind == "corridor-up"
            c = max(a, Decimal(1)) if up else min(a, Decimal(1))
            s = 1 / c - 1 / (X if (X > a if up else X < a) else a)
        return s + Decimal(alpha)


def two_floats(x, direction):
    return np.nextafter(np.nextafter(x, direction), direction)


def rising(x):
    """1/(1+x) + x - 1e30 ln(1 + x/1e30): convex, slope -1/(1+x)^2 + x/(1e30 + x), rising to 1 only past 1e30."""
    return 1.0 / (1.0 + x) + x - 1e30 * np.log1p(x / 1e30)


def rising_slope(x):
    return -1.0 / np.square(1.0 + x) + x / (1e30 + x)


CHAIN_CSV = ([0.8, 1.0, 1.2], [0.075, 0.125, 0.275])  # the CI's chain.csv


class TestCustomLimits:
    """A custom payoff's limits are taken as stated; checks exact under convexity refute wrong ones."""

    @pytest.mark.parametrize("value, slope, origin, gamma, divergent, tail", [
        (lambda x: 1.0 / x, lambda x: -1.0 / np.square(x), math.inf, 0.0, False, math.inf),
        (lambda x: -np.log(x), lambda x: -1.0 / x, math.inf, 0.0, True, math.inf),
        (lambda x: x * np.log(x) - x, np.log, 0.0, math.inf, True, math.inf),
        (lambda x: np.exp(-x), lambda x: -np.exp(-x), 1.0, 0.0, False, math.inf),
        (lambda x: -4.0 * np.sqrt(x), lambda x: -2.0 / np.sqrt(x), 0.0, 0.0, True, math.inf),
        (lambda x: 1.0 / x + 0.25 * x, lambda x: -1.0 / np.square(x) + 0.25, math.inf, 0.25, False, math.inf),
        (lambda x: 100.0 * (x * np.log(x) - x), lambda x: 100.0 * np.log(x), 0.0, math.inf, True, math.inf),
        (lambda x: -np.power(x, 0.7) / 0.7 - np.power(x, 0.8) / 8.0,
         lambda x: -np.power(x, -0.3) - 0.1 * np.power(x, -0.2), 0.0, 0.0, True, math.inf),
        (lambda x: -np.power(x, 0.3) - 0.1 * np.power(x, 0.2),
         lambda x: -0.3 * np.power(x, -0.7) - 0.02 * np.power(x, -0.8), 0.0, 0.0, True, math.inf),
        (rising, rising_slope, 1.0, 1.0, False, math.inf),
        (lambda x: x - 1.0, np.ones_like, -1.0, 1.0, False, 0.0),
        (lambda x: np.maximum(1.0 - x, 0.0), lambda x: np.where(x < 1.0, -1.0, 0.0), 1.0, 0.0, False, 1.0),
    ], ids=["1/x", "-ln x", "x ln x - x", "exp(-x)", "-4 sqrt x", "1/x + x/4", "100 (x ln x - x)", "slow slope",
         "slow origin", "rising", "x - 1", "(1 - x)+"])
    def test_limits(self, value, slope, origin, gamma, divergent, tail):
        payoff = make_payoff(WeightSpec.custom(value, slope, origin_value=origin, asymptotic_slope=gamma,
                                               tail_curvature_divergent=divergent, affine_tail_threshold=tail))
        assert (payoff.origin_value, payoff.asymptotic_slope) == (origin, gamma)
        assert (payoff.tail_curvature_divergent, payoff.affine_tail_threshold) == (divergent, tail)
        assert payoff.value(0.0) == origin

    @pytest.mark.parametrize("value, slope, origin, gamma, divergent, tail, refusal", [
        # the slope -1/x^2 + 1/4 reaches 0.2499990 at x = 1e3
        (lambda x: 1.0 / x + 0.25 * x, lambda x: -1.0 / np.square(x) + 0.25, math.inf, 0.0, False, math.inf,
         "exceeds its stated asymptotic slope"),
        (lambda x: -np.log(x), lambda x: -1.0 / x, math.inf, -0.01, True, math.inf,
         "exceeds its stated asymptotic slope"),
        (lambda x: -np.log(x), lambda x: -1.0 / x, math.inf, math.nan, True, math.inf,
         "exceeds its stated asymptotic slope"),
        # the tangent of exp(-x) at 1e-3 meets the axis at 0.9999999995
        (lambda x: np.exp(-x), lambda x: -np.exp(-x), 0.999999, 0.0, False, math.inf, "below a tangent's intercept"),
        (lambda x: -4.0 * np.sqrt(x), lambda x: -2.0 / np.sqrt(x), -0.1, 0.0, True, math.inf,
         "below a tangent's intercept"),
        # the slope of 1/x + x/4 still rises past 100, that of (1 - x)+ turns at 1
        (lambda x: 1.0 / x + 0.25 * x, lambda x: -1.0 / np.square(x) + 0.25, math.inf, 0.25, False, 100.0,
         "past its affine threshold"),
        (lambda x: np.maximum(1.0 - x, 0.0), lambda x: np.where(x < 1.0, -1.0, 0.0), 1.0, 0.0, False, 0.5,
         "past its affine threshold"),
        (lambda x: np.maximum(1.0 - x, 0.0), lambda x: np.where(x < 1.0, -1.0, 0.0), 1.0, 0.0, False, math.nan,
         "past its affine threshold"),
        (lambda x: x * np.log(x) - x, np.log, 0.0, math.inf, False, math.inf, "divergent tail curvature moment"),
    ], ids=["1/x + x/4 at gamma 0", "-ln x at gamma -0.01", "-ln x at gamma nan", "exp(-x) at origin 0.999999",
         "-4 sqrt x at origin -0.1", "1/x + x/4 affine past 100", "(1 - x)+ affine past 0.5",
         "(1 - x)+ affine past nan", "x ln x - x convergent"])
    def test_a_refuted_limit_is_refused(self, value, slope, origin, gamma, divergent, tail, refusal):
        with pytest.raises(InvalidPayoff, match=refusal):
            make_payoff(WeightSpec.custom(value, slope, origin_value=origin, asymptotic_slope=gamma,
                                          tail_curvature_divergent=divergent, affine_tail_threshold=tail))

    def test_a_limit_wrong_only_past_the_grid_is_taken_as_stated(self):
        # the rising payoff's slope is below 1e-21 on the check grid and reaches 1 only past 1e30,
        # so a gamma stated as 1e-21 is not refuted, and the band it gives is too narrow
        weight = WeightSpec.custom(rising, rising_slope, origin_value=1.0, asymptotic_slope=1e-21,
                                   tail_curvature_divergent=False)
        assert make_payoff(weight).asymptotic_slope == 1e-21

    @pytest.mark.parametrize("value, slope, origin", [
        (lambda x: 100.0 + x, np.ones_like, 100.0),
        (lambda x: 1e8 + x, np.ones_like, 1e8),
    ], ids=["100 + x", "1e8 + x"])
    def test_the_convexity_check_scales_with_the_values(self, value, slope, origin):
        # the rounding of 1e8 + x moves its difference quotients by up to 3e-4 at x = 1e-3
        payoff = make_payoff(WeightSpec.custom(value, slope, origin_value=origin, asymptotic_slope=1.0,
                                               tail_curvature_divergent=False, affine_tail_threshold=0.0))
        assert payoff.value(2.0) == origin + 2.0

    @pytest.mark.parametrize("value, slope", [
        (lambda x: -1e-12 * np.square(x - 1.0), lambda x: -2e-12 * (x - 1.0)),
        (lambda x: 1e-10 * np.sqrt(x), lambda x: 0.5e-10 / np.sqrt(x)),
    ], ids=["-1e-12 (x - 1)^2", "1e-10 sqrt x"])
    def test_a_slightly_concave_payoff_is_refused(self, value, slope):
        with pytest.raises(InvalidPayoff, match="convexity"):
            make_payoff(WeightSpec.custom(value, slope, origin_value=math.inf, asymptotic_slope=math.inf,
                                          tail_curvature_divergent=True))

    def test_a_slowly_settling_payoff_has_a_finite_superhedge(self):
        # -4 sqrt x: value 0 at the origin, slope rising to 0 as x^(-1/2)
        payoff = make_payoff(WeightSpec.custom(lambda x: -4.0 * np.sqrt(x), lambda x: -2.0 / np.sqrt(x),
                                               origin_value=0.0, asymptotic_slope=0.0, tail_curvature_divergent=True))
        upper = superhedge(single_put_chain(0.4), payoff)
        assert upper.feasible and upper.value == pytest.approx(-2.921, abs=1e-3)

    def test_the_slow_slope_has_a_finite_upper_edge(self):
        # the slope -x^-0.3 - x^-0.2/10 rises to 0, so the superhedge is finite
        weight = WeightSpec.custom(lambda x: -np.power(x, 0.7) / 0.7 - np.power(x, 0.8) / 8.0,
                                   lambda x: -np.power(x, -0.3) - 0.1 * np.power(x, -0.2),
                                   origin_value=0.0, asymptotic_slope=0.0, tail_curvature_divergent=True)
        report = swap_rate_bounds(chain_of(*CHAIN_CSV), weight)
        assert report.swap_upper == pytest.approx(0.25519, abs=1e-5)

    def test_the_rising_payoff_has_the_upper_edge_of_its_stated_slope(self):
        weight = WeightSpec.custom(rising, rising_slope, origin_value=1.0, asymptotic_slope=1.0,
                                   tail_curvature_divergent=False)
        report = swap_rate_bounds(chain_of(*CHAIN_CSV), weight, quoted_rate=0.163)
        assert report.swap_upper == pytest.approx(0.238383838384, abs=1e-12)
        assert report.quote_verdict.status is VerdictStatus.CONSISTENT

    @pytest.mark.parametrize("name, value, slope", [
        ("inverse", lambda x: 1.0 / x, lambda x: -1.0 / np.square(x)),
        ("vanilla", lambda x: -np.log(x), lambda x: -1.0 / x),
        ("gamma", lambda x: x * np.log(x) - x, np.log),
    ], ids=["inverse", "vanilla", "gamma"])
    def test_twin_has_the_builtin_existence_verdict(self, name, value, slope):
        # on draws 72 and 79 a slope limit of 1e-16 for the 1/x twin would
        # pass condition (ii) where inverse fails
        builtin, twin = make_payoff(WeightSpec(name)), make_payoff(twin_weight(name, value, slope))
        rng = np.random.default_rng(29)
        for draw in range(100):
            nc = random_consistent_chain(rng)
            assert compute_lower(nc, twin)[2] == compute_lower(nc, builtin)[2], draw


class TestSlopeInverse:
    # inf{x > 0 : slope(x) >= m}, checked against the slope in exact
    # arithmetic: the exact crossing lies within two floats of the answer, up
    # to a slack of a few ulps of the numbers the slope is made of.  The
    # float check slope(x) >= m > slope(prev(x)) cannot hold exactly: the
    # rounded slope of corridor-up is flat over many floats far above the
    # barrier, and a shift by alpha rounds m - alpha.
    @staticmethod
    def assert_inverts(payoff, spec, alpha, m):
        x = float(payoff.slope_inverse(m))
        scale = max(abs(m), abs(alpha), 1.0 / spec.barrier if spec.barrier else 0.0)
        slack = Decimal(4.0 * np.finfo(float).eps * scale) if math.isfinite(m) else Decimal(0)
        if x == 0.0:  # every positive float is past the crossing
            assert exact_slope(spec, alpha, 5e-324) >= Decimal(m) - slack, m
        elif x == math.inf:  # no float reaches it
            assert exact_slope(spec, alpha, np.finfo(float).max) < Decimal(m) + slack, m
        else:
            assert exact_slope(spec, alpha, two_floats(x, math.inf)) >= Decimal(m) - slack, (m, x)
            assert exact_slope(spec, alpha, two_floats(x, 0.0)) < Decimal(m) + slack, (m, x)

    @staticmethod
    def slopes_to_invert(payoff, rng):
        xs = np.exp(rng.uniform(-20.0, 20.0, size=300))
        with np.errstate(all="ignore"):
            ms = np.concatenate((payoff.slope(xs), rng.normal(scale=3.0, size=100)))
        if math.isfinite(payoff.asymptotic_slope):  # just below the slope's supremum
            ms = np.append(ms, payoff.asymptotic_slope * (1.0 - 10.0 ** -rng.uniform(1.0, 15.0, size=50)))
        return np.append(ms, [-math.inf, math.inf, 0.0, -0.0])

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_inverts_the_slope(self, spec):
        payoff = make_payoff(spec)
        for m in self.slopes_to_invert(payoff, np.random.default_rng(3)):
            self.assert_inverts(payoff, spec, 0.0, float(m))
        # as an array, element by element
        ms = np.array([-2.0, -0.5, 0.25])
        assert list(payoff.slope_inverse(ms)) == [payoff.slope_inverse(float(m)) for m in ms]

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_inverts_the_shifted_slope(self, spec):
        alpha = 0.37
        shifted = make_payoff(spec).shift_affine(alpha, -2.0)
        for m in self.slopes_to_invert(shifted, np.random.default_rng(4)):
            self.assert_inverts(shifted, spec, alpha, float(m))
            assert shifted.slope_inverse(m) == make_payoff(spec).slope_inverse(m - alpha)

    def test_outside_the_slope_range(self):
        vanilla, gamma = make_payoff(WeightSpec.vanilla()), make_payoff(WeightSpec.gamma())
        up, down = make_payoff(WeightSpec.corridor_up(1.5)), make_payoff(WeightSpec.corridor_down(0.8))
        inverse = make_payoff(WeightSpec.inverse())
        for m in (0.0, 1e-300, 1.0, math.inf):  # the slope -1/x stays below 0
            assert vanilla.slope_inverse(m) == math.inf
            assert inverse.slope_inverse(m) == math.inf
        assert vanilla.slope_inverse(-math.inf) == 0.0
        assert gamma.slope_inverse(-math.inf) == 0.0 and gamma.slope_inverse(math.inf) == math.inf
        assert gamma.slope_inverse(-800.0) == 0.0  # below the least positive float
        for m in (-math.inf, -1.0, -0.0, 0.0):  # slope 0 on (0, a]
            assert up.slope_inverse(m) == 0.0
        for m in (1.25, 2.0, math.inf):  # the slope stays below 1/a
            assert up.slope_inverse(m) == math.inf
        assert down.slope_inverse(1e-300) == math.inf and down.slope_inverse(-math.inf) == 0.0
        assert down.slope_inverse(0.0) == pytest.approx(0.8, rel=1e-15)

    def test_outside_the_slope_range_with_the_forward_in_the_corridor(self):
        up, down = make_payoff(WeightSpec.corridor_up(0.8)), make_payoff(WeightSpec.corridor_down(1.5))
        for m in (-math.inf, -1.0, 1.0 - 1.0 / 0.8):  # slope 1 - 1/a on (0, a]
            assert up.slope_inverse(m) == 0.0
        for m in (1.0, 2.0, math.inf):  # the slope stays below 1/c = 1
            assert up.slope_inverse(m) == math.inf
        for m in (0.5, 1.0, math.inf):  # slope 1 - 1/a on [a, oo)
            assert down.slope_inverse(m) == math.inf
        assert down.slope_inverse(-math.inf) == 0.0
        assert up.slope_inverse(0.0) == down.slope_inverse(0.0) == 1.0  # both vanish with their slope at 1

    def test_custom_payoffs_have_none(self):
        custom = make_payoff(twin_weight("inverse", lambda x: 1.0 / x, lambda x: -1.0 / np.square(x)))
        assert custom.slope_inverse is None
        assert custom.shift_affine(0.5, 1.0).slope_inverse is None

    def test_a_stated_inverse_or_barrier_is_dropped(self):
        # an inverse that always answers 1e6 would clip every tangency to a
        # piece's right end and miss the excess 1e-3 of this line at x = 1
        stated = WeightSpec.custom(lambda x: -np.log(x), lambda x: -1.0 / x, origin_value=math.inf,
                                   asymptotic_slope=0.0, tail_curvature_divergent=True).payoff
        wrong = replace(stated, kind="vanilla", barrier=0.5, slope_inverse=lambda m: np.full_like(m, 1e6))
        payoff = make_payoff(WeightSpec("custom", payoff=wrong))
        assert (payoff.kind, payoff.barrier, payoff.slope_inverse) == ("custom", None, None)
        line = HedgePortfolio(cash=1.001, forward=-1.0, puts=np.array([]), strikes=np.array([]))
        assert not dominates_below(line, payoff)


class TestC1:
    def test_strict_margin_true(self):
        nc = chain_of([1.0, 1.2], [0.1, 0.2])
        assert check_c1(nc, make_payoff(WeightSpec.vanilla())) is True

    def test_equality_false(self):
        nc = chain_of([1.0, 1.2], [0.1, 0.12])
        assert check_c1(nc, make_payoff(WeightSpec.vanilla())) is False

    def test_bounded_origin_vacuous(self):
        nc = chain_of([1.0, 1.2], [0.1, 0.12])
        assert check_c1(nc, make_payoff(WeightSpec.gamma())) is True

    def test_single_put_true(self):
        assert check_c1(single_put_chain(0.4), make_payoff(WeightSpec.vanilla())) is True


class TestSuperhedgeFeasible:
    # a single put confines neither tail, so feasibility rests on the payoff's tails alone
    def test_vanilla(self):
        assert superhedge(single_put_chain(0.4), make_payoff(WeightSpec.vanilla())).feasible is False

    def test_gamma(self):
        assert superhedge(single_put_chain(0.4), make_payoff(WeightSpec.gamma())).feasible is False

    def test_corridor_up(self):
        assert superhedge(single_put_chain(0.4), make_payoff(WeightSpec.corridor_up(2.0))).feasible is True


def sampled_dual_existence(nchain, payoff, subhedge) -> DualExistence:
    """The reference: ``dual_existence_lb`` with ``fails`` read off 400 points of the tail ray, as it once was."""
    if math.isfinite(nchain.n_max):
        return DualExistence("guaranteed", "i")
    if payoff.tail_curvature_divergent:
        return DualExistence("guaranteed", "iv")
    kn = float(nchain.k[-1])
    gap_at_kn = float(payoff.value(kn)) - float(subhedge.payoff(kn))
    if gap_at_kn > 1e-9 and payoff.asymptotic_slope > float(subhedge.forward):
        return DualExistence("guaranteed", "ii")
    if math.isfinite(payoff.affine_tail_threshold):
        return DualExistence("undetermined")
    xs = np.geomspace(kn, max(1e8, 100.0 * kn), 400)
    gaps = payoff.value(xs) - subhedge.payoff(xs)
    return DualExistence("fails" if np.all(gaps > 1e-9) else "undetermined")


# The built-ins, and the custom twins of inverse (1/x) and vanilla (-ln x).
EXISTENCE_SPECS = {
    **{spec.label(): spec for spec in ALL_SPECS},
    "custom-1/x": twin_weight("inverse", lambda x: 1.0 / x, lambda x: -1.0 / np.square(x)),
    "custom--ln": twin_weight("vanilla", lambda x: -np.log(x), lambda x: -1.0 / x),
}


class TestDualExistence:
    @pytest.mark.parametrize("name", EXISTENCE_SPECS)
    def test_exact_rule_agrees_with_the_tail_sample(self, name):
        payoff = make_payoff(EXISTENCE_SPECS[name])
        rng = np.random.default_rng(29)
        for _ in range(100):  # draws 72 and 79 give "fails" for inverse
            nc = random_consistent_chain(rng)
            _, portfolio, existence = compute_lower(nc, payoff)
            assert existence == sampled_dual_existence(nc, payoff, portfolio)

    def test_contact_at_the_last_strike_is_undetermined(self):
        # The tangent of 1/x at k_n: no gap there, and a tail slope below gamma = 0.
        nc, payoff = single_put_chain(0.4), make_payoff(WeightSpec.inverse())
        kn = float(nc.k[-1])
        tangent = HedgePortfolio(2.0 / kn, -1.0 / kn**2, np.zeros(1), nc.k[1:])
        assert abs(float(payoff.value(kn)) - tangent.payoff(kn)) <= 1e-9
        assert dual_existence_lb(nc, payoff, tangent) == DualExistence("undetermined")

    def test_gap_at_the_last_strike_with_a_tail_at_gamma_fails(self):
        # The zero hedge under 1/x: a gap of 1/k_n, and a tail slope phi = gamma = 0.
        nc, payoff = single_put_chain(0.4), make_payoff(WeightSpec.inverse())
        flat = HedgePortfolio(0.0, 0.0, np.zeros(1), nc.k[1:])
        assert payoff.asymptotic_slope == flat.forward == 0.0
        assert dual_existence_lb(nc, payoff, flat) == DualExistence("fails")

    @pytest.mark.parametrize("phi,past", [(0.0, DualExistence("fails")), (-0.5, DualExistence("guaranteed", "ii"))])
    def test_the_gap_at_the_last_strike_counts_past_1e_9_only(self, phi, past):
        # Under 1/x (gamma = 0), a tail slope phi = gamma reaches the fails branch and phi < gamma condition (ii);
        # either needs a gap above 1e-9 at k_n, and a gap 1e-13 short of it leaves the verdict undetermined.
        nc, payoff = single_put_chain(0.4), make_payoff(WeightSpec.inverse())
        kn, lam_kn = float(nc.k[-1]), float(payoff.value(float(nc.k[-1])))
        for gap, verdict in ((1e-9 + 1e-13, past), (1e-9 - 1e-13, DualExistence("undetermined"))):
            hedge = HedgePortfolio(lam_kn - gap - phi * kn, phi, np.zeros(1), nc.k[1:])
            assert (lam_kn - hedge.payoff(kn) > 1e-9) == (gap > 1e-9)
            assert dual_existence_lb(nc, payoff, hedge) == verdict

    def test_vanilla_tail_divergence(self):
        nc, payoff = single_put_chain(0.4), make_payoff(WeightSpec.vanilla())
        verdict = dual_existence_lb(nc, payoff, compute_lower(nc, payoff)[1])
        assert verdict.verdict == "guaranteed" and verdict.condition == "iv"

    def test_finite_n_max(self):
        nc, payoff = chain_of([2.0], [1.0]), make_payoff(WeightSpec.corridor_down(1.0))
        verdict = dual_existence_lb(nc, payoff, compute_lower(nc, payoff)[1])
        assert verdict.verdict == "guaranteed" and verdict.condition == "i"


class TestParseWeight:
    def test_grammar(self):
        assert parse_weight("vanilla").kind == "vanilla"
        assert parse_weight("gamma").kind == "gamma"
        spec = parse_weight("corridor-down:0.8")
        assert spec.kind == "corridor-down" and spec.barrier == pytest.approx(0.8)
        spec = parse_weight("corridor-up:1.5")
        assert spec.kind == "corridor-up" and spec.barrier == pytest.approx(1.5)
        assert parse_weight("inverse").kind == "inverse"
        assert parse_weight("custom").kind == "inverse"

    def test_bad_tokens(self):
        with pytest.raises(InvalidPayoff):
            parse_weight("corridor-down:abc")
        with pytest.raises(InvalidPayoff):
            parse_weight("quadratic")
