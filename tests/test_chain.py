import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbounds import (
    ChainError,
    ChainStatus,
    NormalizedChain,
    OptionChain,
    WeightSpec,
    load_chain,
    normalize,
    swap_rate_bounds,
    validate_puts,
)
from varbounds.pathwise import read_path_csv
from conftest import price_puts, random_consistent_chain, single_put_chain, trimmed_route_chain


def make_chain(strikes, prices, forward=1.0, discount=1.0):
    return OptionChain(
        maturity=1.0,
        discount_factor=discount,
        forward=forward,
        strikes=np.asarray(strikes, dtype=float),
        put_prices=np.asarray(prices, dtype=float),
    )


class TestNormalize:
    def test_single_put(self):
        nc = normalize(make_chain([1.2], [0.4]))
        np.testing.assert_allclose(nc.k, [0.0, 1.2])
        np.testing.assert_allclose(nc.p, [0.0, 0.4])

    def test_strikes_that_meet_once_divided_are_rejected(self):
        # 1.5 + 2^-52 and 1.5 + 2^-51 are distinct, but divided by 3 both round to one float
        with pytest.raises(ChainError, match="K/F distinct"):
            normalize(make_chain([1.5000000000000002, 1.5000000000000004], [0.1, 0.2], forward=3.0))

    def test_discount_and_forward_scaling(self):
        nc = normalize(make_chain([100.0], [5.0], forward=100.0, discount=0.5))
        np.testing.assert_allclose(nc.k, [0.0, 1.0])
        np.testing.assert_allclose(nc.p, [0.0, 0.1])

    def test_two_puts(self):
        nc = normalize(make_chain([80.0, 120.0], [2.0, 14.0], forward=100.0))
        np.testing.assert_allclose(nc.k, [0.0, 0.8, 1.2])
        np.testing.assert_allclose(nc.p, [0.0, 0.02, 0.14])

    def test_rejects_bad_market_params(self):
        with pytest.raises(ChainError):
            make_chain([1.0], [0.1], forward=-1.0)
        with pytest.raises(ChainError):
            OptionChain(maturity=1.0, discount_factor=0.0, forward=1.0,
                        strikes=np.array([1.0]), put_prices=np.array([0.1]))
        with pytest.raises(ChainError):
            make_chain([1.0, 1.0], [0.1, 0.1])
        with pytest.raises(ChainError):
            make_chain([2.0, 1.0], [0.1, 0.1])
        with pytest.raises(ChainError):
            make_chain([1.0], [-0.1])

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            nc = random_consistent_chain(rng, forward=87.5, discount=0.97)
            chain = make_chain(nc.k[1:] * 87.5, nc.p[1:] * (0.97 * 87.5), forward=87.5, discount=0.97)
            back = normalize(chain)
            # normalize divides exactly and prepends (0, 0)
            np.testing.assert_array_equal(back.k, np.concatenate(([0.0], chain.strikes / 87.5)))
            np.testing.assert_array_equal(back.p, np.concatenate(([0.0], chain.put_prices / (0.97 * 87.5))))
            np.testing.assert_allclose(back.k, nc.k, rtol=1e-14)
            np.testing.assert_allclose(back.p, nc.p, rtol=1e-14, atol=1e-16)


class TestValidate:
    def test_consistent(self):
        assert validate_puts(single_put_chain(0.4)).status is ChainStatus.CONSISTENT

    def test_below_intrinsic_is_model_independent(self):
        verdict = validate_puts(single_put_chain(0.1))
        assert verdict.status is ChainStatus.MODEL_INDEPENDENT_ARBITRAGE
        assert "intrinsic" in verdict.witness

    def test_unit_slope_is_weak(self):
        verdict = validate_puts(single_put_chain(1.2))
        assert verdict.status is ChainStatus.WEAK_ARBITRAGE

    def test_nonconvex_is_model_independent(self):
        nc = normalize(make_chain([0.8, 1.0, 1.2], [0.10, 0.30, 0.35]))
        assert validate_puts(nc).status is ChainStatus.MODEL_INDEPENDENT_ARBITRAGE

    def test_negative_put_price_is_model_independent(self):
        # Only a NormalizedChain built directly holds one: OptionChain refuses negative prices.
        nc = NormalizedChain(np.array([0.0, 0.8, 1.2]), np.array([0.0, -0.01, 0.25]), 1.0, 1.0, 1.0)
        verdict = validate_puts(nc)
        assert verdict.status is ChainStatus.MODEL_INDEPENDENT_ARBITRAGE
        assert verdict.witness.startswith("negative put price; ")

    def test_decreasing_prices_rejected(self):
        nc = normalize(make_chain([0.8, 1.2], [0.30, 0.20]))
        assert validate_puts(nc).status is ChainStatus.MODEL_INDEPENDENT_ARBITRAGE

    def test_capped_support_consistent(self):
        nc = normalize(make_chain([2.0], [1.0]))
        assert validate_puts(nc).is_consistent

    # The put at 1.5 sits at intrinsic value and caps the support; the put at 2.0 lies past the cap.
    @pytest.mark.parametrize("last,consistent", [(5.0, False), (1.2, False), (1.0, True)])
    def test_puts_past_the_cap_sit_at_intrinsic_value(self, last, consistent):
        nc = normalize(make_chain([0.5, 1.0, 1.5, 2.0], [0.05, 0.2, 0.5, last]))
        assert nc.n_max == 3
        verdict = validate_puts(nc)
        if consistent:
            assert verdict.is_consistent
            return
        # Short the put at 2.0, long the put at 1.5 and 0.5 cash: cost 1.0 - last < 0, payoff >= 0.
        assert verdict.status is ChainStatus.MODEL_INDEPENDENT_ARBITRAGE
        assert verdict.witness == "put past the cap priced above intrinsic value k - 1 (put spread against the cap strike)"
        with pytest.raises(ValueError, match="model_independent_arbitrage"):
            swap_rate_bounds(nc, WeightSpec.gamma())

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_priced_chains_always_consistent(self, seed):
        rng = np.random.default_rng(seed)
        nc = random_consistent_chain(rng)
        assert validate_puts(nc).is_consistent

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_consistent_chain_slopes_in_unit_band(self, seed):
        rng = np.random.default_rng(seed)
        nc = random_consistent_chain(rng)
        s = nc.slopes
        assert np.all(np.diff(s) >= -1e-12)
        assert np.all(s >= -1e-12)
        assert np.all(s < 1.0)


class TestBoundaryIndices:
    def test_plain(self):
        nc = single_put_chain(0.4)
        assert (nc.n_min, nc.n_max) == (0, math.inf)

    def test_zero_price_raises_n_min(self):
        nc = normalize(make_chain([0.5, 1.2], [0.0, 0.4]))
        assert (nc.n_min, nc.n_max) == (1, math.inf)

    def test_intrinsic_price_caps_n_max(self):
        nc = normalize(make_chain([2.0], [1.0]))
        assert (nc.n_min, nc.n_max) == (0, 1)

    def test_a_one_strike_window_at_intrinsic_is_capped_at_its_strike(self):
        # The put at 1 + 5e-13 is both free and at intrinsic value (n_min = n_max = 1):
        # its window's one strike is its first, index 0, and caps it there.
        nc = normalize(make_chain([1.0 + 5e-13], [0.0]))
        assert (nc.n_min, nc.n_max) == (1, 1)
        window = nc.window
        assert (window.n, window.n_min, window.n_max) == (0, 0, 0)
        assert window.window is window


class TestWindow:
    @pytest.mark.parametrize("free,capped", [(False, False), (True, False), (False, True), (True, True)])
    def test_the_informative_strikes_at_their_quoted_prices(self, free, capped):
        rng = np.random.default_rng(18)
        for n in range(1, 9):
            nc = trimmed_route_chain(rng, n, free, capped)
            window = nc.window
            keep = slice(nc.n_min, nc.top_index + 1)
            np.testing.assert_array_equal(window.k, nc.k[keep])
            np.testing.assert_array_equal(window.p, nc.p[keep])
            assert (window.n_min, window.top_index) == (0, window.n)
            assert window.n_max == (window.n if capped else math.inf)
            assert nc.window is window and window.window is window
            assert (window is nc) == (not free)
            if validate_puts(nc).is_consistent:
                assert validate_puts(window).is_consistent

    def test_keeps_a_free_put_price_above_zero(self):
        # The put at 0.5 costs 1e-12 (n_min = 1).  At 0 it would lift the
        # window's first slope 1e-8 above the next, past EQ_TOL.
        nc = normalize(make_chain([0.5, 0.5001, 0.5002, 1.0, 1.6], [1e-12, 1.01e-10, 2.01e-10, 0.125, 0.665]))
        assert (nc.n_min, nc.n_max) == (1, math.inf)
        assert nc.window.p[0] == 1e-12
        assert validate_puts(nc).is_consistent and validate_puts(nc.window).is_consistent

    def test_a_cap_below_the_free_puts_leaves_the_cap_strike_alone(self):
        nc = normalize(make_chain([1.0, 1.0 + 5e-13], [0.0, 0.0]))
        assert nc.top_index < nc.n_min and (nc.n_min, nc.n_max) == (2, 1)
        window = nc.window
        assert window.k.tolist() == [1.0] and window.p.tolist() == [0.0]
        assert window.window is window and (window.n_min, window.n_max) == (0, 0)


class TestCsv:
    def test_load_sorts_rows(self, tmp_path):
        f = tmp_path / "chain.csv"
        f.write_text("strike,put_price\n1.2,0.14\n0.8,0.02\n")
        chain = load_chain(f, forward=1.0, discount_factor=1.0, maturity=1.0)
        np.testing.assert_allclose(chain.strikes, [0.8, 1.2])
        np.testing.assert_allclose(chain.put_prices, [0.02, 0.14])

    def test_duplicate_strikes_rejected(self, tmp_path):
        f = tmp_path / "chain.csv"
        f.write_text("strike,put_price\n1.2,0.14\n1.2,0.15\n")
        with pytest.raises(ChainError, match="duplicate"):
            load_chain(f, forward=1.0, discount_factor=1.0, maturity=1.0)

    def test_quote_errors_name_the_file(self, tmp_path):
        f = tmp_path / "chain.csv"
        f.write_text("strike,put_price\n1.2,-0.1\n")
        with pytest.raises(ChainError) as info:
            load_chain(f, forward=1.0, discount_factor=1.0, maturity=1.0)
        assert str(info.value) == f"{f}: put prices must be nonnegative"

    def test_path_errors_name_the_file(self, tmp_path):
        f = tmp_path / "path.csv"
        f.write_text("time,value\n0.0,1.0\n1.0,inf\n")
        with pytest.raises(ValueError) as info:
            read_path_csv(f)
        assert type(info.value) is ValueError
        assert str(info.value) == f"{f}: path values must be finite"

    def test_parse_error_reports_line(self, tmp_path):
        f = tmp_path / "chain.csv"
        f.write_text("strike,put_price\n1.2,0.14\nbad,0.2\n")
        with pytest.raises(ChainError, match=":3"):
            load_chain(f, forward=1.0, discount_factor=1.0, maturity=1.0)

    def test_bad_header(self, tmp_path):
        f = tmp_path / "chain.csv"
        f.write_text("k,v\n1.2,0.14\n")
        with pytest.raises(ChainError, match="header"):
            load_chain(f, forward=1.0, discount_factor=1.0, maturity=1.0)


# Chain and path CSV files go through one reader: the same rules, the same
# messages, each in its own error class (ChainError subclasses ValueError).
CSV_READERS = {
    "chain": ("strike,put_price", lambda f: load_chain(f, 1.0, 1.0, 1.0).strikes, ChainError),
    "path": ("time,value", lambda f: read_path_csv(f).times, ValueError),
}


@pytest.mark.parametrize("kind", CSV_READERS)
class TestTwoColumnCsv:
    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "{f}: empty file"),
            ("k,v\n0.5,0.01\n1.0,0.02\n", "{f}:1: expected header '{header}', got ['k', 'v']"),
            ("{header}\n0.5,0.01\n1.0\n", "{f}:3: expected two columns, got 1"),
            ("{header}\n0.5,0.01\nbad,0.02\n", "{f}:3: could not convert string to float: 'bad'"),
            ("{header}\n\n , \n", "{f}: no data rows"),
        ],
        ids=["empty", "bad-header", "one-column", "not-a-float", "no-data-rows"],
    )
    def test_rejects_with_the_same_message(self, tmp_path, kind, text, message):
        header, read, error = CSV_READERS[kind]
        f = tmp_path / "data.csv"
        f.write_text(text.format(header=header))
        with pytest.raises(ValueError) as info:
            read(f)
        assert type(info.value) is error
        assert str(info.value) == message.format(f=f, header=header)

    def test_blank_rows_are_skipped(self, tmp_path, kind):
        header, read, _ = CSV_READERS[kind]
        f = tmp_path / "data.csv"
        f.write_text(f"{header}\n\n0.5,0.01\n , \n1.0,0.02\n\n")
        np.testing.assert_array_equal(read(f), [0.5, 1.0])


def test_priced_puts_match_law_examples():
    atoms = np.array([0.5, 1.5])
    weights = np.array([0.5, 0.5])
    strikes = np.array([0.8, 1.2])
    np.testing.assert_allclose(price_puts(atoms, weights, strikes), [0.15, 0.35])
