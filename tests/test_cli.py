import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import varbounds
from varbounds import OptionChain, cli, load_chain, lower, make_payoff, normalize, parse_weight, superhedge
from varbounds.cli import main, parse_report, round_floats
from varbounds.lower import lp_lower_bound
from varbounds.swap import classify_european

DATA = Path(__file__).parent / "data"
PATHCHECK_GOLDENS = json.loads((DATA / "pathcheck_goldens.json").read_text(encoding="utf-8"))["cases"]
# `bounds` on two chains that fail C1 for the vanilla weight (the second put
# on or below the ray from the origin through the first), in both formats.
C1_GOLDENS = json.loads((DATA / "c1_goldens.json").read_text(encoding="utf-8"))["cases"]
# `bounds` away from F = D = 1: the CI chain scaled by D F = 114 (F = 120, D = 0.95), in both formats.
MARKET_UNIT_GOLDENS = json.loads((DATA / "market_units_goldens.json").read_text(encoding="utf-8"))["cases"]
# "cap-below-free": the put at 1 + 5e-13 is priced 0, below intrinsic value by
# less than EQ_TOL, so the cap (top = 1) lies below the free puts (n_min = 2).
# "cap-at-free": that put alone is both free and capped (top = n_min = 1).
PINNED_CHAINS = {"one-put": "1.0,0\n", "three-puts": "0.5,0\n1.0,0\n1.5,0.5\n",
                 "cap-below-free": "1.0,0\n1.0000000000005,0\n", "cap-at-free": "1.0000000000005,0\n"}
# Free puts up to a strike at or below the forward, none above: no interval is left either.
FREE_CHAINS = {"free-0.9": "0.9,0\n", "free-0.5-0.9": "0.5,0\n0.9,0\n"}
WEIGHTS = ("vanilla", "gamma", "corridor-up:1.0", "corridor-down:0.9", "inverse")
MARKET_ERRORS = {"--forward": "forward must be positive, got 0.0",
                 "--discount": "discount factor must lie in (0, 1], got 0.0",
                 "--maturity": "maturity must be positive, got 0.0"}


@pytest.fixture
def chain_csv(tmp_path):
    f = tmp_path / "chain.csv"
    f.write_text("strike,put_price\n1.2,0.4\n")
    return str(f)


@pytest.fixture
def market_flags(chain_csv):
    return ["--input", chain_csv, "--forward", "1", "--discount", "1", "--maturity", "1"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBounds:
    def test_golden_lower_value(self, capsys, market_flags):
        code, out, _ = run(capsys, ["bounds", *market_flags, "--weight", "custom"])
        assert code == 0
        report = parse_report(out)
        assert report["european"]["lower_value_normalized"] == pytest.approx(1.2222, abs=1e-3)
        assert report["european"]["upper_value_normalized"] == float("inf")
        assert report["chain_verdict"]["status"] == "consistent"

    def test_reports_the_grid_the_recursion_used(self, capsys, market_flags):
        _, out, _ = run(capsys, ["bounds", *market_flags, "--grid", "3"])
        assert parse_report(out)["grid"] == 8
        _, out, _ = run(capsys, ["bounds", *market_flags])
        assert parse_report(out)["grid"] == 32

    def test_custom_is_an_alias_of_inverse(self, capsys, market_flags):
        _, inverse, _ = run(capsys, ["bounds", *market_flags, "--weight", "inverse"])
        _, custom, _ = run(capsys, ["bounds", *market_flags, "--weight", "custom"])
        assert inverse == custom

    def test_quote_below_bound_exits_2(self, capsys, market_flags):
        code, out, _ = run(
            capsys, ["bounds", *market_flags, "--weight", "custom", "--quote-volpts", "45.93"]
        )
        # fixture lower bound is 66.67 vol points, the quote sits far below it
        assert code == 2
        report = parse_report(out)
        assert report["quote"]["verdict"]["status"] == "model_independent_arbitrage"
        assert report["quote"]["verdict"]["side"] == "below"

    def test_quote_inside_band_exits_0(self, capsys, market_flags):
        code, out, _ = run(
            capsys, ["bounds", *market_flags, "--weight", "corridor-up:1.0", "--quote-var", "0.2"]
        )
        assert code == 0
        report = parse_report(out)
        assert report["quote"]["verdict"]["status"] == "consistent"

    def test_missing_discount_is_input_error(self, capsys, chain_csv):
        code, _, err = run(
            capsys, ["bounds", "--input", chain_csv, "--forward", "1", "--maturity", "1"]
        )
        assert code == 1
        assert "discount" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(
            capsys,
            ["bounds", "--input", "/nonexistent.csv", "--forward", "1", "--discount", "1", "--maturity", "1"],
        )
        assert code == 1

    def test_bad_weight_is_input_error(self, capsys, market_flags):
        for weight in ("cubic", "corridor-down:inf", "corridor-up:inf", "corridor-up:1e-320"):
            code, _, err = run(capsys, ["bounds", *market_flags, "--weight", weight])
            assert code == 1
            assert err.startswith("varbounds: error:") and err.count("\n") == 1

    def test_inverted_band_is_input_error(self, capsys, monkeypatch, tmp_path):
        # corridor-up:1e-300 once reported a lower swap rate of 2.97e284 over an upper of 0, exit 0;
        # no known input inverts the band now, so a superhedge patched to report -1 stands in
        real = varbounds.upper.superhedge
        monkeypatch.setattr(varbounds.upper, "superhedge", lambda nc, payoff: replace(real(nc, payoff), value=-1.0))
        f = tmp_path / "chain.csv"
        f.write_text("strike,put_price\n0.8,0.075\n1.0,0.125\n1.2,0.275\n")
        flags = ["--input", str(f), "--forward", "1", "--discount", "1", "--maturity", "1"]
        code, out, err = run(capsys, ["bounds", *flags, "--weight", "corridor-up:1.0"])
        assert code == 1 and out == ""
        assert err.startswith("varbounds: error: the swap-rate band is inverted") and err.count("\n") == 1

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_nan_band_edge_is_input_error(self, capsys, monkeypatch, tmp_path, side):
        # no known input leaves a band edge NaN, so a bound patched to report NaN stands in
        if side == "upper":
            real = varbounds.upper.superhedge
            monkeypatch.setattr(varbounds.upper, "superhedge",
                                lambda nc, payoff: replace(real(nc, payoff), value=math.nan))
        else:
            real = varbounds.lower.lp_lower_bound
            monkeypatch.setattr(varbounds.lower, "lp_lower_bound", lambda *a, **k: (math.nan, *real(*a, **k)[1:]))
        f = tmp_path / "chain.csv"
        f.write_text("strike,put_price\n0.8,0.075\n1.0,0.125\n1.2,0.275\n")
        flags = ["--input", str(f), "--forward", "1", "--discount", "1", "--maturity", "1"]
        code, out, err = run(capsys, ["bounds", *flags, "--weight", "corridor-up:1.0"])
        assert (code, out, err) == (1, "", f"varbounds: error: {side} band edge must be a number, got nan\n")

    def test_arbitrage_chain_exits_2(self, capsys, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("strike,put_price\n1.2,0.1\n")  # below intrinsic
        code, out, _ = run(
            capsys,
            ["bounds", "--input", str(f), "--forward", "1", "--discount", "1", "--maturity", "1"],
        )
        assert code == 2
        report = parse_report(out)
        assert report["chain_verdict"]["status"] == "model_independent_arbitrage"

    @pytest.mark.parametrize("last,code", [("5.0", 2), ("1.2", 2), ("1.0", 0)])
    def test_put_past_the_cap_above_intrinsic_is_an_arbitrage(self, capsys, tmp_path, last, code):
        f = tmp_path / "past.csv"
        f.write_text(f"strike,put_price\n0.5,0.05\n1.0,0.2\n1.5,0.5\n2.0,{last}\n")  # capped at 1.5
        got, out, _ = run(
            capsys,
            ["bounds", "--input", str(f), "--forward", "1", "--discount", "1", "--maturity", "1"],
        )
        assert got == code
        status = parse_report(out)["chain_verdict"]["status"]
        assert status == ("model_independent_arbitrage" if code == 2 else "consistent")

    def test_origin_cap_weak_arbitrage(self, capsys, tmp_path):
        f = tmp_path / "cap.csv"
        f.write_text("strike,put_price\n0.5,0.05\n0.6,0.06\n")
        code, out, _ = run(
            capsys,
            ["bounds", "--input", str(f), "--forward", "1", "--discount", "1", "--maturity", "1",
             "--weight", "vanilla"],
        )
        assert code == 2
        report = parse_report(out)
        assert report["quote"]["verdict"]["status"] == "weak_arbitrage"

    def test_c1_is_checked_on_the_full_chain(self, capsys, tmp_path):
        # The first put prices at intrinsic value, so the window has
        # one interval and nothing for C1 to check; the full chain's second
        # put lies on the ray from the origin through the first.
        f = tmp_path / "c1.csv"
        f.write_text("strike,put_price\n1.2,0.2\n1.2000000000001,0.2000000000001\n")
        code, out, _ = run(
            capsys,
            ["bounds", "--input", str(f), "--forward", "1", "--discount", "1", "--maturity", "1",
             "--weight", "vanilla"],
        )
        assert code == 2
        assert parse_report(out)["quote"]["verdict"]["status"] == "weak_arbitrage"

    @pytest.mark.parametrize("case", C1_GOLDENS, ids=lambda c: f"{' '.join(c['rows'].split())} {c['format']}")
    def test_c1_payload_golden(self, capsys, tmp_path, case):
        f = tmp_path / "c1.csv"
        f.write_text("strike,put_price\n" + case["rows"])
        argv = ["bounds", "--input", str(f), "--forward", "1", "--discount", "1", "--maturity", "1",
                "--format", case["format"]]
        code, out, _ = run(capsys, argv)
        assert (code, out) == (case["exit_code"], case["stdout"])

    @pytest.mark.parametrize("case", MARKET_UNIT_GOLDENS, ids=lambda c: c["format"])
    def test_market_units_golden(self, capsys, tmp_path, case):
        # Prices, vol points and the currency hedges, rendered from the normalized solve
        f = tmp_path / "chain.csv"
        f.write_text("strike,put_price\n" + case["rows"])
        code, out, _ = run(capsys, ["bounds", "--input", str(f), *case["args"], "--format", case["format"]])
        assert (code, out) == (case["exit_code"], case["stdout"])

    @pytest.mark.parametrize("case", [c for c in C1_GOLDENS if c["format"] == "json"],
                             ids=lambda c: " ".join(c["rows"].split()))
    def test_classify_european_gives_the_cli_c1_verdict(self, tmp_path, case):
        f = tmp_path / "c1.csv"
        f.write_text("strike,put_price\n" + case["rows"])
        nc = normalize(load_chain(str(f), 1.0, 1.0, 1.0))
        verdict = classify_european(nc, make_payoff(parse_weight("vanilla")), 1.0)
        assert verdict.to_dict() == parse_report(case["stdout"])["quote"]["verdict"]

    @pytest.mark.parametrize("flag", ["--forward", "--discount", "--maturity"])
    def test_nonpositive_market_input_is_named(self, capsys, market_flags, flag):
        # the message names the parameter, not the chain file
        argv = list(market_flags)
        argv[argv.index(flag) + 1] = "0"
        code, _, err = run(capsys, ["bounds", *argv])
        assert (code, err) == (1, f"varbounds: error: {MARKET_ERRORS[flag]}\n")

    def test_repeated_strike_names_the_file(self, capsys, tmp_path):
        f = tmp_path / "chain.csv"
        f.write_text("strike,put_price\n0.9,0.05\n1.1,0.15\n0.9,0.05\n")
        argv = ["bounds", "--input", str(f), "--forward", "1", "--discount", "1", "--maturity", "1"]
        assert run(capsys, argv) == (1, "", f"varbounds: error: {f}: duplicate strikes are rejected\n")

    @pytest.mark.parametrize("error", [lower.ReconstructionFailure, lower.DegeneratePolicy,
                                       lower.ForwardViolation])
    def test_solver_error_is_one_line(self, capsys, monkeypatch, market_flags, error):
        def fail(*args, **kwargs):
            raise error("the solve failed")

        # The solve inside bounds_payload, the CLI's one library call: only C1Violation becomes a verdict there.
        monkeypatch.setattr(varbounds.swap, "swap_rate_bounds", fail)
        assert run(capsys, ["bounds", *market_flags]) == (1, "", "varbounds: error: the solve failed\n")

    def test_one_verdict_per_run(self, capsys, monkeypatch, market_flags):
        # bounds_payload, swap_rate_bounds and the policy boxes each ask for the verdict of a chain
        # with n_min = 0 and no cap, whose window is the chain itself: one classification.
        calls = []
        classify = varbounds.chain._classify_puts
        monkeypatch.setattr(varbounds.chain, "_classify_puts", lambda nchain: calls.append(1) or classify(nchain))
        assert run(capsys, ["bounds", *market_flags])[0] == 0
        assert len(calls) == 1

    def test_text_format(self, capsys, market_flags):
        code, out, _ = run(capsys, ["bounds", *market_flags, "--weight", "custom", "--format", "text"])
        assert code == 0
        assert "lower_value_normalized" in out


class TestClassify:
    def test_requires_quote(self, capsys, market_flags):
        code, _, err = run(capsys, ["classify", *market_flags, "--weight", "custom"])
        assert code == 1
        assert "quote" in err

    def test_classifies(self, capsys, market_flags):
        code, out, _ = run(
            capsys, ["classify", *market_flags, "--weight", "custom", "--quote-var", "3.0"]
        )
        assert code == 0
        report = parse_report(out)
        assert report["quote"]["verdict"]["status"] == "consistent"

    @pytest.mark.parametrize("quote", ["--quote-var=nan", "--quote-var=inf", "--quote-volpts=-60",
                                       "--quote-volpts=inf"])
    def test_non_finite_or_negative_quote_is_input_error(self, capsys, market_flags, quote):
        code, out, err = run(capsys, ["classify", *market_flags, "--weight", "custom", quote])
        assert (code, out) == (1, "")
        assert err.startswith("varbounds: error: ") and err.count("\n") == 1

    def test_negative_variance_quote_is_below_the_band(self, capsys, market_flags):
        code, out, _ = run(capsys, ["classify", *market_flags, "--weight", "custom", "--quote-var=-0.01"])
        verdict = parse_report(out)["quote"]["verdict"]
        assert (code, verdict["status"], verdict["side"]) == (2, "model_independent_arbitrage", "below")


class TestPathcheck:
    def test_default_walk_passes(self, capsys):
        code, out, _ = run(capsys, ["pathcheck", "--seed", "42", "--depth", "6"])
        assert code == 0
        report = parse_report(out)
        assert all(report["checks"].values())
        assert max(report["residuals"]["square"]) <= 1e-12

    @pytest.mark.parametrize("step", [1000, 257])
    def test_late_partition_times(self, capsys, tmp_path, step):
        # Last times 64000 and 16448: there t + 1e-12 rounds to t.
        f = tmp_path / "path.csv"
        f.write_text("time,value\n" + "".join(f"{t * step},{100 + t}\n" for t in range(65)))
        code, _, err = run(capsys, ["pathcheck", "--input", str(f), "--depth", "3"])
        assert (code, err) == (0, "")

    def test_depth_one_rejected(self, capsys):
        code, _, err = run(capsys, ["pathcheck", "--seed", "42", "--depth", "1"])
        assert (code, err) == (1, "varbounds: error: depth must be at least 2, got 1\n")

    def test_constant_path_csv(self, capsys, tmp_path):
        f = tmp_path / "path.csv"
        rows = ["time,value"] + [f"{t / 64},5.0" for t in range(65)]
        f.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, ["pathcheck", "--input", str(f), "--depth", "3"])
        assert code == 0
        report = parse_report(out)
        assert max(report["residuals"]["square"]) == 0.0
        assert report["occupation"]["relative_gap"] == 0.0

    def test_indivisible_path_is_input_error(self, capsys, tmp_path):
        f = tmp_path / "path.csv"
        rows = ["time,value"] + [f"{t / 63},5.0" for t in range(64)]
        f.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, ["pathcheck", "--input", str(f), "--depth", "6"])
        assert (code, err) == (1, "varbounds: error: path with 63 steps does not support a depth-6 dyadic ladder\n")

    def test_one_column_row_is_input_error(self, capsys, tmp_path):
        f = tmp_path / "path.csv"
        f.write_text("time,value\n0.0,1.0\n0.5\n1.0,1.0\n")
        code, out, err = run(capsys, ["pathcheck", "--input", str(f), "--depth", "2"])
        assert (code, out, err) == (1, "", f"varbounds: error: {f}:3: expected two columns, got 1\n")

    @pytest.mark.parametrize("rows, message", [
        ("0.0,1.0\n", "need matching 1-d times and values with at least two samples"),
        ("0.0,1.0\n0.5,1.0\n0.5,1.1\n1.0,1.0\n", "times must be strictly increasing"),
        ("0.0,1.0\n0.5,1.0\n0.75,1.1\ninf,1.2\n", "path times must be finite"),
    ], ids=["one-row", "repeated-time", "inf-time"])
    def test_path_error_names_the_file(self, capsys, tmp_path, rows, message):
        f = tmp_path / "path.csv"
        f.write_text("time,value\n" + rows)
        code, out, err = run(capsys, ["pathcheck", "--input", str(f), "--depth", "2"])
        assert (code, out, err) == (1, "", f"varbounds: error: {f}: {message}\n")

    def test_a_path_of_a_million_steps_passes(self, capsys):
        # 64 * 2^14 = 2^20 steps: the pathwise checks hold at 10^6 steps
        code, out, _ = run(capsys, ["pathcheck", "--depth", "15"])
        report = parse_report(out)
        assert (code, report["n_steps"]) == (0, 2**20)
        assert all(report["checks"].values())

    @pytest.mark.parametrize("case", PATHCHECK_GOLDENS, ids=lambda c: " ".join(c["args"][1:]))
    def test_goldens(self, capsys, case):
        # Output of the per-partition level search, byte for byte; the CSV
        # walk is not strictly positive, so its log checks are skipped.
        argv = [str(DATA / a) if a.endswith(".csv") else a for a in case["args"]]
        code, out, _ = run(capsys, argv)
        assert (code, out) == (case["exit_code"], case["stdout"])

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="neg_log_decreasing asks the last three residuals to fall; this walk's do not")
    def test_a_valid_walk_whose_residuals_do_not_fall_passes(self, capsys):
        # bench pathcheck seed 31, op 1: a geometric walk that the trend rule fails
        code, out, _ = run(capsys, ["pathcheck", "--seed", "1939546695", "--depth", "11"])
        report = parse_report(out)
        assert report["residuals"]["neg_log"][-4:] == [1.05000528696e-06, 4.7527837533e-07, 6.9685860675e-07,
                                                       4.81600455529e-07]
        assert {k for k, ok in report["checks"].items() if not ok} <= {"neg_log_decreasing"}
        assert code == 0


@pytest.mark.parametrize("weight", WEIGHTS)
@pytest.mark.parametrize("rows", [*PINNED_CHAINS.values(), *FREE_CHAINS.values()],
                         ids=[*PINNED_CHAINS.keys(), *FREE_CHAINS.keys()])
def test_no_interval_left_gives_the_dirac_at_the_forward(capsys, tmp_path, rows, weight):
    # top <= n_min: by Jensen the lower bound is payoff(1), under the tangent
    # there; when the support is pinned to the forward the band collapses.
    f = tmp_path / "chain.csv"
    f.write_text("strike,put_price\n" + rows)
    code, out, _ = run(capsys, ["bounds", "--input", str(f), "--forward", "1", "--discount", "1",
                                "--maturity", "1", "--weight", weight])
    assert code == 0
    band = parse_report(out)["european"]
    nc = normalize(load_chain(str(f), 1.0, 1.0, 1.0))
    payoff = make_payoff(parse_weight(weight))
    value, hedge, measure = lp_lower_bound(nc, payoff)
    assert value == float(payoff.value(1.0))
    assert abs(band["lower_value_normalized"] - value) <= 1e-12
    upper = superhedge(nc, payoff).value
    if rows in PINNED_CHAINS.values():
        assert value == upper
        assert abs(band["lower_value_normalized"] - band["upper_value_normalized"]) <= 1e-12
    else:
        # No cap: mass above the free puts may run off to infinity, so the
        # upper bound is payoff(k_{n_min}) plus gamma for the rest of the mean.
        k, gamma = float(nc.k[nc.n_min]), payoff.asymptotic_slope
        expected = float(payoff.value(k)) + gamma * (1.0 - k) if math.isfinite(gamma) else math.inf
        assert upper == pytest.approx(expected, abs=1e-15)
    assert measure.check(nc) == []
    assert np.all(hedge.puts == 0.0)
    assert lower._worst_excess(hedge, payoff)[0] <= 1e-12  # the tangent: under the payoff on all of (0, oo)
    assert abs(hedge.payoff(1.0) - value) <= 1e-12
    assert abs(hedge.setup_cost(nc) - value) <= 1e-12


@pytest.mark.parametrize("weight", WEIGHTS)
def test_free_put_priced_above_zero(capsys, tmp_path, weight):
    # Consistent, with n_min = 1: the put at 0.5 costs 1e-12.  Zeroed, that
    # price would lift the first slope above [0.5, 1.6] 1e-8 past the next one.
    f = tmp_path / "chain.csv"
    f.write_text("strike,put_price\n0.5,1e-12\n0.5001,1.01e-10\n0.5002,2.01e-10\n1.0,0.125\n1.6,0.665\n")
    code, out, err = run(capsys, ["bounds", "--input", str(f), "--forward", "1", "--discount", "1",
                                  "--maturity", "1", "--weight", weight])
    assert (code, err) == (0, "")
    report = parse_report(out)
    assert report["market"]["n_min"] == 1
    assert report["european"]["lower_value_normalized"] <= report["european"]["upper_value_normalized"]


@pytest.mark.parametrize("weight", WEIGHTS)
def test_cap_quoted_just_above_intrinsic(capsys, tmp_path, weight):
    # The put at 150 is 1e-10 above intrinsic value 50 at F = 100: within
    # EQ_TOL normalized, so the support is capped there (n_max = 3) and no
    # mass escapes past it.  gamma exited 1 on an atom past the cap.
    f = tmp_path / "chain.csv"
    f.write_text("strike,put_price\n60,2\n100,12\n150,50.0000000001\n")
    code, out, err = run(capsys, ["bounds", "--input", str(f), "--forward", "100", "--discount", "1",
                                  "--maturity", "1", "--weight", weight])
    assert (code, err) == (0, "")
    report = parse_report(out)
    assert report["market"]["n_max"] == 3
    assert report["lower_measure"]["mean_at_infinity"] == 0.0


def test_free_put_past_the_forward_within_tolerance():
    # The put at 1 + 5e-13 is priced 0, below intrinsic value by less than
    # EQ_TOL: n_min = 2 > top = 1, and the trim would leave no strike at all.
    nc = normalize(OptionChain(1.0, 1.0, 1.0, np.array([1.0, 1.0 + 5e-13]), np.zeros(2)))
    assert nc.top_index < nc.n_min
    for weight in WEIGHTS:
        payoff = make_payoff(parse_weight(weight))
        value, hedge, measure = lp_lower_bound(nc, payoff)
        assert value == float(payoff.value(1.0))
        assert measure.check(nc) == []
        assert lower._worst_excess(hedge, payoff)[0] <= 1e-12
        assert abs(hedge.setup_cost(nc) - value) <= 1e-12


def test_main_repeats_as_a_fresh_process(capsys, monkeypatch, market_flags):
    # One parser serves every call of main in a process; each call must
    # print and exit as the command does in a process of its own.
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width in both
    cases = [
        ["bounds", *market_flags, "--weight", "custom"],
        ["pathcheck", "--seed", "7", "--depth", "4"],
        ["bounds", "--input", market_flags[1], "--forward", "1"],  # usage error: exit 1
        ["bounds", "--help"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(varbounds.__file__).parents[1])}
    script = "import sys; from varbounds.cli import main; sys.exit(main(sys.argv[1:]))"
    fresh = [subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env)
             for argv in cases]
    assert [p.returncode for p in fresh] == [0, 0, 1, 0]
    for _ in range(2):
        for argv, p in zip(cases, fresh):
            assert run(capsys, argv) == (p.returncode, p.stdout, p.stderr)


class TestLibraryAgreement:
    """The CLI prints what the library decides: same reports, and exit 2 exactly on a failed check or an arbitrage."""

    @pytest.mark.parametrize("argv", [c["args"] for c in PATHCHECK_GOLDENS]
                             + [["pathcheck", "--seed", str(s), "--depth", "6"] for s in range(20)],
                             ids=lambda a: " ".join(a[1:]))
    def test_pathcheck(self, capsys, argv):
        argv = [str(DATA / a) if a.endswith(".csv") else a for a in argv]
        depth = int(argv[argv.index("--depth") + 1])
        if "--input" in argv:
            path = varbounds.pathwise.read_path_csv(argv[argv.index("--input") + 1])
        else:
            path = varbounds.geometric_walk(int(argv[argv.index("--seed") + 1]), n_steps=64 * 2 ** (depth - 1))
        report = varbounds.ladder_checks(path, varbounds.build_dyadic_ladder(path, depth))
        code, out, _ = run(capsys, argv)
        assert round_floats(report) == parse_report(out)
        assert code == (0 if all(report["checks"].values()) else 2)

    @pytest.mark.parametrize("rows, quote", [
        *(pytest.param(c["rows"], None, id=" ".join(c["rows"].split())) for c in C1_GOLDENS if c["format"] == "json"),
        pytest.param("1.2,0.1\n", None, id="inconsistent"),  # below intrinsic value
        pytest.param("1.2,0.4\n", 0.01, id="arbitrage-quote"),  # far below this chain's band
    ])
    def test_bounds(self, capsys, tmp_path, rows, quote):
        f = tmp_path / "chain.csv"
        f.write_text("strike,put_price\n" + rows)
        nc = normalize(load_chain(str(f), 1.0, 1.0, 1.0))
        payload, arbitrage = varbounds.bounds_payload(nc, "vanilla", quoted_rate=quote)
        argv = ["bounds", "--input", str(f), "--forward", "1", "--discount", "1", "--maturity", "1"]
        code, out, _ = run(capsys, argv + ([] if quote is None else ["--quote-var", str(quote)]))
        assert json.dumps(round_floats(payload), indent=2) + "\n" == out
        assert (code, arbitrage) == (2, True)

    def test_consistent_quote_is_no_arbitrage(self, capsys, market_flags):
        nc = normalize(load_chain(market_flags[1], 1.0, 1.0, 1.0))
        payload, arbitrage = varbounds.bounds_payload(nc, "corridor-up:1.0", quoted_rate=0.2)
        code, out, _ = run(capsys, ["bounds", *market_flags, "--weight", "corridor-up:1.0", "--quote-var", "0.2"])
        assert (round_floats(payload), code, arbitrage) == (json.loads(out), 0, False)


class TestSquareIdentityScale:
    """The x**2 residual is rounding alone, so its bound scales with the path's level."""

    @pytest.mark.parametrize("start", [1e-3, 1.0, 100.0, 1000.0, 1e4])
    def test_walk_at_price_level_passes(self, capsys, tmp_path, start):
        walk, f = varbounds.geometric_walk(42, 2048, start=start), tmp_path / "walk.csv"
        rows = zip(walk.times.tolist(), walk.values.tolist())
        f.write_text("time,value\n" + "".join(f"{t!r},{x!r}\n" for t, x in rows))
        code, out, _ = run(capsys, ["pathcheck", "--input", str(f), "--depth", "6"])
        assert code == 0 and all(parse_report(out)["checks"].values())

    @pytest.mark.parametrize("start", [1.0, 100.0, 1000.0])
    def test_right_point_ito_sum_fails(self, monkeypatch, start):
        # The right-point sum of 2 x dx counts the quadratic variation twice: a residual
        # of 2 sum dx^2, far above the rounding of the sums.
        verify_ito = varbounds.pathwise.verify_ito

        def right_point(path, f, ladder):
            if f is not varbounds.pathwise._SQUARE:
                return verify_ito(path, f, ladder)
            x = [path.values[part] for part in ladder.partitions]
            return np.array([abs(v[-1] ** 2 - v[0] ** 2 - np.sum(2.0 * v[1:] * np.diff(v)) - np.sum(np.diff(v) ** 2))
                             for v in x])

        monkeypatch.setattr(varbounds.pathwise, "verify_ito", right_point)
        path = varbounds.geometric_walk(42, 2048, start=start)
        report = varbounds.ladder_checks(path, varbounds.build_dyadic_ladder(path, 6))
        assert report["checks"]["square_identity"] is False
        assert min(report["residuals"]["square"]) > 1e-6 * start**2

    def test_overflowing_square_fails(self):
        path = varbounds.SampledPath(np.linspace(0.0, 1.0, 5), [1e200, 2e200, 1e200, 3e200, 1e200])
        with np.errstate(all="ignore"):
            report = varbounds.ladder_checks(path, varbounds.build_dyadic_ladder(path, 2))
        assert report["checks"]["square_identity"] is False


class TestSerialization:
    def test_round_floats_significant_digits(self):
        assert round_floats(1.23456789012345678) == 1.23456789012
        assert round_floats(float("inf")) == "inf"
        assert round_floats({"a": [float("-inf"), 2.0]}) == {"a": ["-inf", 2.0]}

    def test_parse_report_inverse(self):
        payload = {"x": "inf", "y": [1.5, "-inf"], "z": "keep"}
        parsed = parse_report(json.dumps(payload))
        assert parsed["x"] == float("inf")
        assert parsed["y"][1] == float("-inf")
        assert parsed["z"] == "keep"
