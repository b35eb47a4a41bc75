import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from varbounds import (
    InvalidPayoff,
    WeightSpec,
    check_c1,
    dual_existence_lb,
    make_payoff,
    normalize,
    parse_weight,
    superhedge,
)
from varbounds import OptionChain
from conftest import single_put_chain

ALL_SPECS = [
    WeightSpec.vanilla(),
    WeightSpec.gamma(),
    WeightSpec.corridor_down(0.8),
    WeightSpec.corridor_up(1.0),
    WeightSpec.inverse(),
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

    def test_corridor_needs_positive_barrier(self):
        with pytest.raises(InvalidPayoff):
            WeightSpec.corridor_down(-1.0)

    def test_custom_convexity_rejected(self):
        with pytest.raises(InvalidPayoff):
            make_payoff(WeightSpec.custom(lambda x: -np.square(x - 1.0), lambda x: -2.0 * (x - 1.0)))


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

    def test_shift_affine(self):
        lam = make_payoff(WeightSpec.corridor_up(1.0))
        shifted = lam.shift_affine(0.5, -2.0)
        xs = np.array([0.3, 1.7, 8.0])
        np.testing.assert_allclose(shifted.value(xs), lam.value(xs) + 0.5 * xs - 2.0)
        np.testing.assert_allclose(shifted.slope(xs), lam.slope(xs) + 0.5)
        assert shifted.asymptotic_slope == pytest.approx(lam.asymptotic_slope + 0.5)
        assert shifted.origin_value == pytest.approx(lam.origin_value - 2.0)


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


class TestDualExistence:
    def test_vanilla_tail_divergence(self):
        nc = single_put_chain(0.4)
        verdict = dual_existence_lb(nc, make_payoff(WeightSpec.vanilla()))
        assert verdict.verdict == "guaranteed" and verdict.condition == "iv"

    def test_finite_n_max(self):
        nc = chain_of([2.0], [1.0])
        verdict = dual_existence_lb(nc, make_payoff(WeightSpec.corridor_down(1.0)))
        assert verdict.verdict == "guaranteed" and verdict.condition == "i"

    def test_corridor_down_without_hedge_undetermined(self):
        nc = single_put_chain(0.4)
        verdict = dual_existence_lb(nc, make_payoff(WeightSpec.corridor_down(1.0)))
        assert verdict.verdict == "undetermined"


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
