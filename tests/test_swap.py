import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbounds import (
    OptionChain,
    VerdictStatus,
    WeightSpec,
    classify_european,
    classify_rate_against_bounds,
    classify_swap_quote,
    make_payoff,
    normalize,
    parse_weight,
    swap_rate_bounds,
    vol_points,
)
from varbounds import lower as lower_mod
from varbounds import swap as swap_mod
from varbounds import upper as upper_mod
from varbounds.cli import parse_report, round_floats
from varbounds.lower import C1Violation, build_lp_grid, grid_lp_oracle
from varbounds.swap import BOUNDARY_TOL, european_from_rate, rate_from_european, rate_from_vol_points
from conftest import (lognormal_chain, random_consistent_chain, single_put_chain, trimmed_route_chain, twin_weight,
                      window_excess)

INVERSE = make_payoff(WeightSpec.inverse())
# The five built-in weights, plus a custom payoff without a curvature density.
SPECS = {
    "vanilla": WeightSpec.vanilla(),
    "gamma": WeightSpec.gamma(),
    "corridor-up:1.0": WeightSpec.corridor_up(1.0),
    "corridor-down:0.9": WeightSpec.corridor_down(0.9),
    "inverse": WeightSpec.inverse(),
    "custom": WeightSpec.custom(lambda x: 1.0 / x + 0.1 * x, lambda x: -1.0 / np.square(x) + 0.1,
                                origin_value=math.inf, asymptotic_slope=0.1, tail_curvature_divergent=False),
}


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


class TestVolPoints:
    def test_reference_values(self):
        assert vol_points(0.04) == pytest.approx(20.0)
        assert vol_points(0.0) == 0.0
        assert vol_points(0.0451) == pytest.approx(21.237, abs=1e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            vol_points(-0.01)

    def test_nan_rejected_and_inf_kept(self):
        # +inf is the band with no upper bound; NaN would slip past a test for rate < 0
        with pytest.raises(ValueError, match="nonnegative"):
            vol_points(math.nan)
        assert vol_points(math.inf) == math.inf

    @pytest.mark.parametrize("points", [-60.0, -0.0001, math.nan, math.inf])
    def test_negative_or_non_finite_points_rejected(self, points):
        # squaring would read -60 as 60
        with pytest.raises(ValueError, match="volatility points"):
            rate_from_vol_points(points)


class TestRateMapping:
    def test_vanilla_rate_is_twice_value(self):
        payoff = make_payoff(WeightSpec.vanilla())
        assert rate_from_european(0.02, payoff) == pytest.approx(0.04)

    def test_gamma_rate_shifts_by_two(self):
        payoff = make_payoff(WeightSpec.gamma())
        assert rate_from_european(0.5, payoff) == pytest.approx(2.0 * 0.5 + 2.0)

    def test_inversion(self):
        payoff = make_payoff(WeightSpec.corridor_up(0.9))
        for rate in (0.0, 0.05, 0.3):
            assert rate_from_european(european_from_rate(rate, payoff), payoff) == pytest.approx(rate)


class TestClassifyEuropean:
    def setup_method(self):
        self.nc = single_put_chain(0.4)

    def test_inside_band(self):
        v = classify_european(self.nc, INVERSE, 1.5, normalized=True)
        assert v.status is VerdictStatus.CONSISTENT

    def test_below_band(self):
        v = classify_european(self.nc, INVERSE, 1.0, normalized=True)
        assert v.status is VerdictStatus.MODEL_INDEPENDENT_ARBITRAGE
        assert v.side == "below"

    def test_boundary_with_existence(self):
        v = classify_european(self.nc, INVERSE, 11.0 / 9.0, normalized=True)
        assert v.status is VerdictStatus.BOUNDARY
        assert v.side == "lower"
        assert v.existence is not None and v.existence.is_guaranteed
        assert v.consistent_at_boundary

    def test_boundary_without_existence_is_arbitrage(self):
        nc = single_put_chain(0.6)
        v = classify_european(nc, INVERSE, 5.0 / 3.0, normalized=True)
        assert v.status is VerdictStatus.BOUNDARY
        assert v.existence is not None and v.existence.verdict == "fails"
        assert v.is_arbitrage

    def test_weak_arbitrage_from_origin_cap(self):
        nc = chain_of([0.5, 0.6], [0.05, 0.06])
        v = classify_european(nc, make_payoff(WeightSpec.vanilla()), 0.5, normalized=True)
        assert v.status is VerdictStatus.WEAK_ARBITRAGE

    def test_currency_units(self):
        chain = OptionChain(
            maturity=0.5,
            discount_factor=0.9,
            forward=50.0,
            strikes=np.array([60.0]),
            put_prices=np.array([0.4 * 0.9 * 50.0]),
        )
        nc = normalize(chain)
        quote = 1.5 * 0.9 * 50.0
        v = classify_european(nc, INVERSE, quote)
        assert v.status is VerdictStatus.CONSISTENT


class TestClassifySwapQuote:
    def test_published_pairs(self):
        consistent = classify_rate_against_bounds((21.24 / 100) ** 2, (20.10 / 100) ** 2)
        assert consistent.status is VerdictStatus.CONSISTENT
        arb = classify_rate_against_bounds((45.93 / 100) ** 2, (65.81 / 100) ** 2)
        assert arb.status is VerdictStatus.MODEL_INDEPENDENT_ARBITRAGE and arb.side == "below"

    def test_boundary_branch(self):
        v = classify_rate_against_bounds(0.04, 0.04)
        assert v.status is VerdictStatus.BOUNDARY and v.side == "lower"

    @pytest.mark.parametrize("quote", [math.nan, math.inf, -math.inf])
    def test_non_finite_quote_rejected(self, quote):
        # NaN fails every comparison, so it would fall through to "consistent"
        with pytest.raises(ValueError, match="finite"):
            classify_rate_against_bounds(quote, 0.04, 0.09)

    @pytest.mark.parametrize("lower, upper", [(math.nan, 0.09), (0.04, math.nan)], ids=["lower", "upper"])
    def test_nan_band_edge_rejected(self, lower, upper):
        # NaN fails every comparison, so 0.1 against [0.04, nan] would read "consistent"
        side = "lower" if math.isnan(lower) else "upper"
        with pytest.raises(ValueError, match=f"^{side} band edge must be a number, got nan$"):
            classify_rate_against_bounds(0.1, lower, upper)

    def test_an_inverted_band_is_refused(self):
        # it once called 0.06 against [0.09, 0.04] a model-independent arbitrage below the band
        with pytest.raises(ValueError, match="^the swap-rate band is inverted: lower 0.09 above upper 0.04$"):
            classify_rate_against_bounds(0.06, 0.09, 0.04)
        # inverted by rounding alone, within BOUNDARY_TOL, a band still classifies
        v = classify_rate_against_bounds(0.04, 0.04 + 0.5 * BOUNDARY_TOL, 0.04)
        assert v.status is VerdictStatus.BOUNDARY and v.side == "lower"

    @pytest.mark.parametrize("weight", ["vanilla", "gamma", "corridor-up:1.0", "corridor-down:0.9", "custom"])
    def test_one_verdict_from_every_entry_point(self, weight):
        # rates on, just inside and just outside each finite edge's boundary
        # band, and at exactly BOUNDARY_TOL from the edge and its float neighbours
        at_tol = (BOUNDARY_TOL, np.nextafter(BOUNDARY_TOL, 0.0), np.nextafter(BOUNDARY_TOL, 1.0))
        offsets = (0.0, 1e-6, -1e-6, 1.5e-6, -1.5e-6, 4e-6, -4e-6) + at_tol + tuple(-t for t in at_tol)
        spec = parse_weight(weight)
        payoff = make_payoff(spec)
        rng = np.random.default_rng(15)
        for _ in range(4):
            nc = random_consistent_chain(rng)
            report = swap_rate_bounds(nc, spec)
            edges = [e for e in (report.swap_lower, report.swap_upper) if math.isfinite(e)]
            for edge in edges:
                for offset in offsets:
                    # the rate of the quoted price, so that every entry point sees one rate
                    price = european_from_rate(edge + offset, payoff)
                    rate = rate_from_european(price, payoff)
                    via_report = swap_rate_bounds(nc, spec, quoted_rate=rate).quote_verdict
                    via_band = classify_rate_against_bounds(
                        rate, report.swap_lower, report.swap_upper,
                        lower_existence=report.lower_existence, upper_existence=report.upper_existence)
                    via_price = classify_european(nc, payoff, price, normalized=True)
                    assert via_report == classify_swap_quote(nc, spec, rate) == via_band == via_price, (
                        weight, edge, offset)

    def test_every_entry_point_rejects_an_inconsistent_chain(self):
        nc, spec = single_put_chain(0.1), WeightSpec.vanilla()
        messages = set()
        for call in (lambda: swap_rate_bounds(nc, spec, quoted_rate=0.04),
                     lambda: classify_european(nc, make_payoff(spec), 1.0, normalized=True),
                     lambda: classify_swap_quote(nc, spec, 0.04)):
            with pytest.raises(ValueError, match="^chain is not consistent") as error:
                call()
            messages.add(str(error.value))
        assert len(messages) == 1

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.8, max_value=3.0))
    def test_round_trip_matches_european(self, p_quote):
        nc = single_put_chain(0.4)
        rate = rate_from_european(p_quote, INVERSE)
        via_swap = classify_swap_quote(nc, WeightSpec.inverse(), rate)
        direct = classify_european(nc, INVERSE, p_quote, normalized=True)
        assert via_swap.status is direct.status
        assert via_swap.side == direct.side

    def test_verdict_monotone_in_quote(self):
        nc = single_put_chain(0.4)
        seen = []
        for rate in np.linspace(0.3, 1.2, 60):
            v = classify_swap_quote(nc, WeightSpec.inverse(), rate)
            seen.append(v.status)
        order = [VerdictStatus.MODEL_INDEPENDENT_ARBITRAGE, VerdictStatus.BOUNDARY, VerdictStatus.CONSISTENT]
        ranks = [order.index(s) for s in seen]
        assert ranks[0] == 0 and ranks[-1] == 2
        assert all(b - a >= 0 for a, b in zip(ranks, ranks[1:]))
        assert VerdictStatus.WEAK_ARBITRAGE not in seen


class TestCorridorBarriers:
    """Every corridor payoff vanishes with its slope at the forward, so no barrier puts a number of size 1/a into
    the solver or the rate map (a corridor-up barrier of 1e-300 once inverted the band, 1e-12 raised, and 1e-4
    already moved the lower edge)."""

    TEST_CHAIN = ([0.8, 1.0, 1.2], [0.075, 0.125, 0.275])

    # Every strike lies above each corridor-up barrier.  The worst-case law of vanilla on this chain has its top
    # atom at 1.5, so corridor-down barriers from there keep all of its mass in the corridor (at 1.3 the
    # corridor-down edge is rightly 0.0095 lower).
    @pytest.mark.parametrize("kind, barriers", [("corridor-up", np.geomspace(1e-300, 0.5, 120)),
                                                ("corridor-down", np.geomspace(1.5, 1e300, 120))])
    def test_barrier_scans_give_vanillas_lower_edge(self, kind, barriers):
        nc = chain_of(*self.TEST_CHAIN)
        vanilla = swap_rate_bounds(nc, WeightSpec.vanilla()).swap_lower
        for a in barriers:
            report = swap_rate_bounds(nc, WeightSpec(kind, barrier=float(a)))
            assert abs(report.swap_lower - vanilla) <= 1e-12, a
            assert report.swap_lower <= report.swap_upper

    @pytest.mark.parametrize("kind, a", [("corridor-up", 0.5), ("corridor-up", 0.9), ("corridor-down", 1.1),
                                         ("corridor-down", 2.0)])
    def test_the_forward_anchor_moves_no_band(self, kind, a):
        # With the forward in the corridor, the barrier-anchored form -ln(x/a) + x/a - 1 differs by
        # ln a + (1/a - 1) x: the same band and verdicts, European values ln a + 1/a - 1 apart.
        rng = np.random.default_rng(32)
        payoff = make_payoff(WeightSpec(kind, barrier=a))
        anchored = payoff.shift_affine(1.0 / a - 1.0, math.log(a))
        for _ in range(30):
            nc = random_consistent_chain(rng)
            report, other = swap_rate_bounds(nc, WeightSpec(kind, barrier=a)), swap_mod._report(nc, anchored, "")
            for mine, theirs in ((report.swap_lower, other.swap_lower), (report.swap_upper, other.swap_upper)):
                assert math.isclose(mine, theirs, rel_tol=0.0, abs_tol=1e-11)  # +inf matches +inf
            assert abs(other.lower_value - report.lower_value - (math.log(a) + 1.0 / a - 1.0)) <= 1e-11
            assert (report.lower_existence, report.upper_existence) == (other.lower_existence, other.upper_existence)

    @pytest.mark.parametrize("n", [250, 1000])
    def test_dense_chains_at_a_tiny_barrier(self, n):
        # both raised ReconstructionFailure under corridor-up:1e-6 (contact missed by 1.7e-6 at n = 250)
        nc = lognormal_chain(n, sigma=0.2)
        report = swap_rate_bounds(nc, WeightSpec.corridor_up(1e-6), grid=32)
        vanilla = swap_rate_bounds(nc, WeightSpec.vanilla(), grid=32)
        assert abs(report.swap_lower - vanilla.swap_lower) <= 1e-12


class TestSwapRateBounds:
    def test_an_inverted_band_is_an_error(self, monkeypatch):
        # No known input inverts the band (a corridor-up barrier of 1e-300 once did), so a
        # superhedge patched to report a value of -1 stands in for a fault that would.
        real = upper_mod.superhedge
        monkeypatch.setattr(upper_mod, "superhedge", lambda nc, payoff: replace(real(nc, payoff), value=-1.0))
        nc = chain_of([0.8, 1.0, 1.2], [0.075, 0.125, 0.275])
        with pytest.raises(ValueError, match="band is inverted"):
            swap_rate_bounds(nc, WeightSpec.corridor_up(1.0))

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_a_nan_band_edge_is_an_error(self, monkeypatch, side):
        # No known input leaves an edge NaN, so a bound patched to report NaN stands in for a fault that would.
        if side == "upper":
            real = upper_mod.superhedge
            monkeypatch.setattr(upper_mod, "superhedge", lambda nc, payoff: replace(real(nc, payoff), value=math.nan))
        else:
            real = lower_mod.lp_lower_bound
            monkeypatch.setattr(lower_mod, "lp_lower_bound", lambda *a, **k: (math.nan, *real(*a, **k)[1:]))
        nc = chain_of([0.8, 1.0, 1.2], [0.075, 0.125, 0.275])
        with pytest.raises(ValueError, match=f"^{side} band edge must be a number, got nan$"):
            swap_rate_bounds(nc, WeightSpec.corridor_up(1.0))

    @pytest.mark.parametrize("weight", ["vanilla", "corridor-up:1.0"])
    def test_currency_hedges_match_the_chain(self, weight):
        # The rendered currency hedges hold the chain's own strikes and cost D F times the normalized hedges.
        chain = OptionChain(maturity=0.5, discount_factor=0.95, forward=120.0, strikes=np.array([100.0, 144.0]),
                            put_prices=np.array([0.02 * 0.95 * 120.0, 0.25 * 0.95 * 120.0]))
        nc = normalize(chain)
        report = swap_rate_bounds(nc, parse_weight(weight))
        rendered = report.to_dict()
        scale = nc.discount_factor * nc.forward
        assert rendered["european"]["lower_price"] == scale * report.lower_value
        assert (rendered["superhedge_currency"] is None) == (weight == "vanilla")
        for side in ("subhedge", "superhedge"):
            hedge, currency = getattr(report, side), rendered[f"{side}_currency"]
            if hedge is None:
                continue
            assert (rendered[side]["normalized"], currency["normalized"]) == (True, False)
            assert (currency["forward"], currency["puts"]) == (hedge.forward, hedge.puts.tolist())
            np.testing.assert_allclose(currency["strikes"], chain.strikes, rtol=1e-15)
            cost = np.dot(currency["puts"], chain.put_prices) + currency["forward"] * scale + currency["cash"]
            assert cost == pytest.approx(scale * hedge.setup_cost(nc), rel=1e-12)

    def test_vanilla_report(self):
        rng = np.random.default_rng(2)
        nc = random_consistent_chain(rng, max_strikes=5)
        rep = swap_rate_bounds(nc, WeightSpec.vanilla())
        assert rep.swap_lower == pytest.approx(2.0 * rep.lower_value)
        assert math.isinf(rep.swap_upper)
        assert rep.vol_lower == pytest.approx(100.0 * math.sqrt(max(rep.swap_lower, 0.0)))
        assert rep.lower_value <= rep.upper_value

    def test_gamma_shift(self):
        rng = np.random.default_rng(12)
        nc = random_consistent_chain(rng, max_strikes=4)
        rep = swap_rate_bounds(nc, WeightSpec.gamma())
        assert rep.swap_lower == pytest.approx(2.0 * rep.lower_value + 2.0)

    def test_affine_shift_moves_swap_bounds_linearly(self):
        nc = single_put_chain(0.4)
        base = swap_rate_bounds(nc, WeightSpec.corridor_up(1.0))
        payoff = make_payoff(WeightSpec.corridor_up(1.0))
        alpha, beta = 0.3, -0.1
        shifted = payoff.shift_affine(alpha, beta)
        from varbounds.swap import compute_lower
        from varbounds.upper import superhedge as sh

        sol, _, _ = compute_lower(nc, shifted)
        ub = sh(nc, shifted)
        lo_rate = 2.0 * sol.value - 2.0 * shifted.at_one()
        hi_rate = 2.0 * ub.value - 2.0 * shifted.at_one()
        # the affine shift cancels in the rate: 2(v + a + b) - 2(lam(1) + a + b)
        assert lo_rate == pytest.approx(base.swap_lower, abs=1e-9)
        assert hi_rate == pytest.approx(base.swap_upper, abs=1e-9)

    @pytest.mark.parametrize("name, twin", [
        ("gamma", twin_weight("gamma", lambda x: x * np.log(x) - x, np.log, lambda x: x)),
        ("vanilla", twin_weight("vanilla", lambda x: -np.log(x), lambda x: -1.0 / x, np.ones_like)),
        ("gamma", twin_weight("gamma", lambda x: x * np.log(x) - x, np.log)),
        ("vanilla", twin_weight("vanilla", lambda x: -np.log(x), lambda x: -1.0 / x)),
        ("inverse", twin_weight("inverse", lambda x: 1.0 / x, lambda x: -1.0 / np.square(x))),
    ], ids=["gamma", "vanilla", "gamma-difference", "vanilla-difference", "inverse-difference"])
    def test_custom_twin_gives_the_builtin_band(self, name, twin):
        # Unguarded twins: x ln x - x is NaN at 0, where its payoff takes the
        # stated limit, so the twin solves wherever the built-in does.
        rng = np.random.default_rng(27)
        chains = [chain_of([0.8, 1.0, 1.2], [0.075, 0.125, 0.275]), lognormal_chain(50)]
        for nc in chains + [random_consistent_chain(rng) for _ in range(20)]:
            got, want = swap_rate_bounds(nc, twin), swap_rate_bounds(nc, WeightSpec(name))
            assert got.swap_lower == pytest.approx(want.swap_lower, rel=0.0, abs=1e-12)
            assert got.swap_upper == pytest.approx(want.swap_upper, rel=0.0, abs=1e-12)

    def test_quote_verdict_embedded(self):
        nc = single_put_chain(0.4)
        rep = swap_rate_bounds(nc, WeightSpec.corridor_up(1.0), quoted_rate=1.0)
        assert rep.quote_verdict is not None
        assert rep.quote_verdict.status is VerdictStatus.MODEL_INDEPENDENT_ARBITRAGE
        assert rep.quote_verdict.side == "above"

    def test_c1_violation_propagates(self):
        nc = chain_of([0.5, 0.6], [0.05, 0.06])
        with pytest.raises(C1Violation):
            swap_rate_bounds(nc, WeightSpec.vanilla())

    def test_inconsistent_chain_rejected(self):
        with pytest.raises(ValueError):
            swap_rate_bounds(single_put_chain(0.1), WeightSpec.vanilla())

    def test_report_serialization_round_trip(self):
        nc = single_put_chain(0.4)
        rep = swap_rate_bounds(nc, WeightSpec.corridor_up(1.0), quoted_rate=0.2)
        text = rep.to_json()
        parsed = parse_report(text)
        again = json.dumps(round_floats(parsed))
        assert json.loads(again) == json.loads(text)
        assert parsed["swap_rate"]["lower"] == pytest.approx(rep.swap_lower, rel=1e-11)

    def test_serialization_does_not_import_cli(self):
        script = (
            "import sys\n"
            "from varbounds import OptionChain, WeightSpec, normalize, swap_rate_bounds\n"
            "chain = normalize(OptionChain(1.0, 1.0, 1.0, [1.2], [0.4]))\n"
            "swap_rate_bounds(chain, WeightSpec.vanilla()).to_json()\n"
            "assert 'varbounds.cli' not in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True)

    def test_no_route_loads_scipy(self, tmp_path):
        csv = tmp_path / "chain.csv"
        csv.write_text("strike,put_price\n0.9,0.05\n1.2,0.3\n")
        script = (
            "import contextlib, io, sys\n"
            "def scipy_loaded():\n"
            "    return [m for m in sys.modules if m.startswith('scipy')]\n"
            "import varbounds\n"
            "assert scipy_loaded() == [], scipy_loaded()\n"
            "from varbounds import OptionChain, WeightSpec, cli, normalize, swap_rate_bounds\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['pathcheck', '--seed', '1', '--depth', '3']) == 0\n"
            "assert scipy_loaded() == [], scipy_loaded()\n"
            "flags = ['--input', sys.argv[1], '--forward', '1', '--discount', '1', '--maturity', '1']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['bounds', *flags, '--weight', 'gamma']) == 0\n"
            "    assert cli.main(['classify', *flags, '--quote-volpts', '20']) in (0, 2)\n"
            "assert scipy_loaded() == [], scipy_loaded()\n"
            "free_put = normalize(OptionChain(1.0, 1.0, 1.0, [0.5, 1.2], [0.0, 0.4]))\n"
            "capped = normalize(OptionChain(1.0, 1.0, 1.0, [0.8, 2.0], [0.1, 1.0]))\n"
            "assert free_put.n_min > 0 and capped.n_max == 2\n"
            "print(swap_rate_bounds(free_put, WeightSpec.gamma()).to_json())\n"
            "swap_rate_bounds(capped, WeightSpec.vanilla())\n"
            "assert scipy_loaded() == [], scipy_loaded()\n"
        )
        out = subprocess.run([sys.executable, "-c", script, str(csv)], check=True, capture_output=True, text=True)
        in_process = swap_rate_bounds(normalize(OptionChain(1.0, 1.0, 1.0, [0.5, 1.2], [0.0, 0.4])), WeightSpec.gamma())
        assert json.loads(out.stdout) == json.loads(in_process.to_json())

    @pytest.mark.parametrize("free,capped", [(True, False), (False, True), (True, True)],
                             ids=["free", "capped", "free-capped"])
    @pytest.mark.parametrize("weight", list(SPECS))
    def test_trimmed_route_reports(self, weight, free, capped):
        # Free puts below and capped supports: the reported measure reprices
        # the full chain, and the reported subhedge (tail lifted where dual
        # existence needs it) dominates exactly on the window, touches every
        # atom and costs at most the bound, exactly the measure integral when
        # no mass escapes.
        rng = np.random.default_rng(62)
        payoff = make_payoff(SPECS[weight])
        for n in range(1, 6):
            nc = trimmed_route_chain(rng, n, free, capped)
            rep = swap_rate_bounds(nc, SPECS[weight])
            measure, port = rep.lower_measure, rep.subhedge
            assert measure.check(nc) == []
            assert window_excess(nc, payoff, port) <= 1e-8
            live = measure.weights > 1e-11
            assert np.max(np.abs(port.payoff(measure.atoms[live]) - payoff.value(measure.atoms[live]))) <= 1e-8
            cost = port.setup_cost(nc)
            assert cost <= rep.lower_value + 1e-8
            if measure.mean_at_infinity == 0.0:
                assert cost == pytest.approx(measure.integrate(payoff), abs=1e-8)
            if capped:
                assert rep.lower_existence.condition == "i"
            oracle = grid_lp_oracle(nc, payoff, build_lp_grid(nc, payoff, extra=measure.atoms))
            assert rep.lower_value <= oracle + 1e-10  # the oracle's feasibility tolerance

    def test_infinity_serialized_as_string(self):
        nc = single_put_chain(0.4)
        rep = swap_rate_bounds(nc, WeightSpec.vanilla())
        payload = json.loads(rep.to_json())
        assert payload["european"]["upper_value_normalized"] == "inf"
        assert payload["swap_rate"]["vol_points_upper"] == "inf"
