import json

import numpy as np
import pytest

from varbounds.cli import main, parse_report, round_floats


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
        code, _, err = run(capsys, ["bounds", *market_flags, "--weight", "cubic"])
        assert code == 1

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


class TestPathcheck:
    def test_default_walk_passes(self, capsys):
        code, out, _ = run(capsys, ["pathcheck", "--seed", "42", "--depth", "6"])
        assert code == 0
        report = parse_report(out)
        assert all(report["checks"].values())
        assert max(report["residuals"]["square"]) <= 1e-12

    def test_depth_one_rejected(self, capsys):
        code, _, err = run(capsys, ["pathcheck", "--seed", "42", "--depth", "1"])
        assert code == 1
        assert "shallow" in err

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
        assert code == 1


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
