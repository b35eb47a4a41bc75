import math
import re
from dataclasses import replace

import numpy as np
import pytest

from varbounds import (
    AtomicMeasure,
    NegativeWeight,
    OptionChain,
    WeightSpec,
    dp_lower_bound,
    extremal_upper_measure,
    make_payoff,
    normalize,
    parse_weight,
    superhedge,
)
from varbounds.lower import HedgePortfolio, _portfolio_from_nodes
from varbounds.upper import dominates_above
from conftest import random_consistent_chain, single_put_chain, trimmed_route_chain, verification_grid

VANILLA = make_payoff(WeightSpec.vanilla())
GAMMA = make_payoff(WeightSpec.gamma())
CORRIDOR_UP = make_payoff(WeightSpec.corridor_up(1.0))
# The put at 1.0 sits below the chord of its neighbours: not convex, a model-independent arbitrage.
NONCONVEX = ([0.8, 1.0, 1.2], [0.075, 0.08, 0.275])


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


class TestSuperhedge:
    def test_vanilla_infeasible(self):
        ub = superhedge(single_put_chain(0.4), VANILLA)
        assert not ub.feasible and math.isinf(ub.value)

    def test_gamma_infeasible(self):
        ub = superhedge(single_put_chain(0.4), GAMMA)
        assert not ub.feasible and math.isinf(ub.value)

    def test_affine_payoff_replicates_at_zero_cost(self):
        payoff = make_payoff(WeightSpec.custom(lambda x: x - 1.0, np.ones_like, origin_value=-1.0, asymptotic_slope=1.0,
                                               tail_curvature_divergent=False, affine_tail_threshold=0.0))
        nc = single_put_chain(0.4)
        ub = superhedge(nc, payoff)
        assert ub.feasible
        assert ub.value == pytest.approx(0.0, abs=1e-12)
        xs = np.array([0.2, 0.9, 1.2, 7.0])
        np.testing.assert_allclose(ub.portfolio.payoff(xs), xs - 1.0, atol=1e-12)

    def test_corridor_up_components(self):
        nc = single_put_chain(0.4)
        ub = superhedge(nc, CORRIDOR_UP)
        lam12 = CORRIDOR_UP.value(1.2)
        assert ub.portfolio.forward == pytest.approx(1.0)
        assert ub.portfolio.cash == pytest.approx(lam12 - 1.2)
        assert ub.portfolio.puts[0] == pytest.approx(1.0 - lam12 / 1.2)
        expected = (lam12 - 1.2) + 1.0 + (1.0 - lam12 / 1.2) * 0.4
        assert ub.value == pytest.approx(expected, abs=1e-12)

    def test_domination_everywhere_when_tails_tame(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            nc = random_consistent_chain(rng)
            ub = superhedge(nc, CORRIDOR_UP)
            assert ub.feasible
            grid = verification_grid(nc, CORRIDOR_UP)
            assert dominates_above(ub.portfolio, CORRIDOR_UP, nc, grid)

    def test_a_cap_below_the_free_puts_is_checked_at_the_cap_strike(self):
        # The put at 1 caps the support below the free put at 1 + 5e-13, so the
        # window is the cap strike alone, and domination is checked there.
        nc = chain_of([1.0, 1.0 + 5e-13], [0.0, 0.0])
        assert nc.window.k.tolist() == [1.0]
        for weight in ("vanilla", "gamma", "corridor-up:1.0", "corridor-down:0.9", "inverse"):
            payoff = make_payoff(parse_weight(weight))
            ub = superhedge(nc, payoff)
            assert ub.value == payoff.at_one()
            assert dominates_above(ub.portfolio, payoff, nc)
            cash = HedgePortfolio(payoff.at_one() - 1.0, 0.0, np.zeros(nc.n), nc.k[1:])
            assert not dominates_above(cash, payoff, nc)

    def test_relaxed_origin_with_free_put(self):
        nc = chain_of([0.5, 1.2], [0.0, 0.4])
        assert nc.n_min == 1
        ub = superhedge(nc, VANILLA)
        assert ub.feasible
        grid = verification_grid(nc, VANILLA)
        assert dominates_above(ub.portfolio, VANILLA, nc, grid)

    def test_relaxed_tail_with_capped_support(self):
        nc = chain_of([0.8, 2.0], [0.1, 1.0])
        assert nc.n_max == 2
        ub = superhedge(nc, GAMMA)
        assert ub.feasible
        mu = extremal_upper_measure(nc, 2.0)
        assert ub.value == pytest.approx(mu.integrate(GAMMA), abs=1e-8)
        # past the cap at 2.0 no mass lies, so the check stops there
        assert dominates_above(ub.portfolio, GAMMA, nc, np.geomspace(1e-3, 50, 4000))

    def test_domination_is_exact_between_grid_points(self):
        # The grid of test_relaxed_tail_with_capped_support misses every strike,
        # so a node lowered by 1e-6 passes on it; the exact check reads the node.
        nc = chain_of([0.8, 2.0], [0.1, 1.0])
        ub = superhedge(nc, GAMMA)
        nodes = GAMMA.value(nc.window.k) - 1e-6 * (nc.window.k == 0.8)
        low = _portfolio_from_nodes(nc, nodes, ub.portfolio.forward)
        grid = np.geomspace(1e-3, 50, 4000)
        on_window = grid[grid <= 2.0]
        assert np.all(low.payoff(on_window) >= GAMMA.value(on_window) - 1e-10)
        assert not dominates_above(low, GAMMA, nc, grid)

    def test_a_tail_below_the_asymptotic_slope_fails(self):
        # The forward 1e-7 short of gamma, with the value at k_n kept: the
        # shortfall, about 1e-7 (x - k_n) - ln(x / k_n), appears only far past
        # the 1000 k_n end of the verification grid.
        nc = random_consistent_chain(np.random.default_rng(6))
        ub = superhedge(nc, CORRIDOR_UP)
        kn = nc.k[-1]
        short = replace(ub.portfolio, forward=ub.portfolio.forward - 1e-7, cash=ub.portfolio.cash + 1e-7 * kn)
        assert short.payoff(kn) == pytest.approx(ub.portfolio.payoff(kn), abs=1e-14)
        grid = verification_grid(nc, CORRIDOR_UP)
        assert np.all(short.payoff(grid) >= CORRIDOR_UP.value(grid) - 1e-10)
        assert dominates_above(ub.portfolio, CORRIDOR_UP, nc)
        assert not dominates_above(short, CORRIDOR_UP, nc, grid)

    def test_lower_below_upper(self):
        rng = np.random.default_rng(16)
        for _ in range(8):
            nc = random_consistent_chain(rng)
            lower = dp_lower_bound(nc, CORRIDOR_UP).value
            upper = superhedge(nc, CORRIDOR_UP).value
            assert lower <= upper + 1e-6


class TestInconsistentChains:
    def test_superhedge_refuses(self):
        # it once priced a feasible superhedge at 0.0754 on this chain
        with pytest.raises(ValueError, match="consistent chain"):
            superhedge(chain_of(*NONCONVEX), CORRIDOR_UP)

    @pytest.mark.parametrize("z", [5.0, 1e6])
    def test_extremal_measure_refuses_without_blaming_z(self, z):
        # it once raised NegativeWeight("support cap z = 5 too small") for the chain's own arbitrage
        with pytest.raises(ValueError, match="consistent chain") as error:
            extremal_upper_measure(chain_of(*NONCONVEX), z)
        assert not isinstance(error.value, NegativeWeight)


def list_extremal_measure(nchain, z: float) -> AtomicMeasure:
    """The reference: ``extremal_upper_measure`` past its input checks, its slopes rebuilt from Python lists."""
    xs, vs = list(nchain.window.k), list(nchain.window.p)
    if math.isfinite(nchain.n_max):
        if abs(z - xs[-1]) > 1e-9:
            raise ValueError(f"with a finite n_max the support cap must be {xs[-1]:.12g}")
    else:
        if z <= xs[-1] + 1e-12:
            raise ValueError("support cap z must exceed the last strike")
        xs.append(float(z))
        vs.append(float(z - 1.0))
    xs_arr, vs_arr = np.asarray(xs), np.asarray(vs)
    slopes = np.concatenate(([0.0], np.diff(vs_arr) / np.diff(xs_arr), [1.0]))
    weights = np.diff(slopes)
    if np.any(weights < -1e-12):
        raise NegativeWeight(f"support cap z = {z:.6g} too small: negative weight in the moment system")
    keep = weights > 1e-14
    return AtomicMeasure(xs_arr[keep], np.clip(weights[keep], 0.0, None))


def assert_matches_the_list_reference(nc, z):
    """The same atom and weight bytes as the reference, or the same error with the same message."""
    try:
        expected = list_extremal_measure(nc, z)
    except ValueError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            extremal_upper_measure(nc, z)
        return
    mu = extremal_upper_measure(nc, z)
    assert mu.atoms.tobytes() == expected.atoms.tobytes(), (nc.k, z)
    assert mu.weights.tobytes() == expected.weights.tobytes(), (nc.k, z)


class TestExtremalMeasureReference:
    def test_uncapped_chains_at_several_z(self):
        rng = np.random.default_rng(45)
        chains = [random_consistent_chain(rng) for _ in range(60)]
        chains += [trimmed_route_chain(rng, int(rng.integers(1, 9)), True, False) for _ in range(20)]
        for nc in chains:
            kn = float(nc.k[-1])
            for z in (0.5 * kn, kn, kn + 1e-13, 1.0001 * kn, 1.05 * kn, 1.5 * kn, 3.0 * kn, 1e3 * kn):
                assert_matches_the_list_reference(nc, z)

    def test_capped_chains_at_their_cap(self):
        rng = np.random.default_rng(46)
        for free in (False, True):
            for _ in range(20):
                nc = trimmed_route_chain(rng, int(rng.integers(1, 9)), free, True)
                cap = float(nc.window.k[-1])
                for z in (cap, cap + 5e-10, cap + 1e-6):
                    assert_matches_the_list_reference(nc, z)

    def test_pinned_window(self):
        nc = chain_of([1.0, 1.0000000000005], [0.0, 0.0])
        assert nc.window.n == 0
        for z in (1.0, 1.0000000000005, 1.0 + 5e-10, 1.5):
            assert_matches_the_list_reference(nc, z)


class TestExtremalMeasure:
    def test_three_atom_system(self):
        nc = single_put_chain(0.4)
        mu = extremal_upper_measure(nc, 3.0)
        np.testing.assert_allclose(mu.atoms, [0.0, 1.2, 3.0])
        np.testing.assert_allclose(mu.weights, [1.0 / 3.0, 5.0 / 9.0, 1.0 / 9.0], atol=1e-12)
        assert mu.mean() == pytest.approx(1.0, abs=1e-12)
        assert mu.put_value(1.2) == pytest.approx(0.4, abs=1e-12)
        assert mu.check(nc) == []

    def test_capped_chain_supported_on_strikes(self):
        nc = chain_of([0.8, 2.0], [0.1, 1.0])
        mu = extremal_upper_measure(nc, 2.0)
        assert np.all(np.isin(np.round(mu.atoms, 12), np.round(nc.k, 12)))
        assert mu.check(nc) == []
        with pytest.raises(ValueError):
            extremal_upper_measure(nc, 3.0)

    def test_invariants_on_random_chains(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            nc = random_consistent_chain(rng)
            mu = extremal_upper_measure(nc, 5.0 * nc.k[-1])
            assert mu.check(nc) == []

    def test_negative_weight_when_z_small(self):
        nc = single_put_chain(0.4)
        with pytest.raises(NegativeWeight):
            extremal_upper_measure(nc, 1.2001)

    def test_integral_monotone_in_z_and_converges(self):
        nc = single_put_chain(0.4)
        ub = superhedge(nc, CORRIDOR_UP)
        kn = nc.k[-1]
        vals = [extremal_upper_measure(nc, z * kn).integrate(CORRIDOR_UP) for z in (2, 10, 100)]
        assert vals[0] <= vals[1] + 1e-10 and vals[1] <= vals[2] + 1e-10
        assert ub.value - vals[-1] < 1e-2
        assert vals[-1] <= ub.value + 1e-10

    def test_z_requirement_for_open_chains(self):
        nc = single_put_chain(0.4)
        with pytest.raises(ValueError):
            extremal_upper_measure(nc, 1.0)

    # A one-strike cap at the forward, and a cap below the free puts (the window is the cap strike alone).
    PINNED_CHAINS = [([1.0], [0.0]), ([1.0, 1.0 + 5e-13], [0.0, 0.0])]

    @pytest.mark.parametrize("strikes,puts", PINNED_CHAINS, ids=["one-strike", "empty-window"])
    def test_pinned_support_is_the_dirac_at_the_forward(self, strikes, puts):
        nc = chain_of(strikes, puts)
        mu = extremal_upper_measure(nc, 1.0 + 5e-10)
        np.testing.assert_array_equal(mu.atoms, [1.0])
        np.testing.assert_array_equal(mu.weights, [1.0])
        assert mu.check(nc) == []

    @pytest.mark.parametrize("strikes,puts", PINNED_CHAINS, ids=["one-strike", "empty-window"])
    def test_pinned_support_names_the_forward(self, strikes, puts):
        nc = chain_of(strikes, puts)
        with pytest.raises(ValueError, match=r"must be 1$"):
            extremal_upper_measure(nc, 1.5)
