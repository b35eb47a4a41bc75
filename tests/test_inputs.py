"""Seeded, table-driven fuzz of every numeric input: an input error or a finite answer, never a warning.

Each value of ``BAD``, and a few seeded draws from the whole float range, goes into one
numeric input at a time while the others stay valid.  A library call either raises a
``ValueError`` subclass or returns only finite numbers (and +inf where an unbounded band
is documented).  A CLI run either exits 1 with one ``varbounds: error:`` line, the last
on stderr, or prints a report of finite numbers and "inf".  The suite turns warnings into
errors, so a warning fails a case, and so does any other exception.
"""

import json
import math

import numpy as np
import pytest

from varbounds import (ChainError, InvalidPayoff, OptionChain, WeightSpec, arithmetic_walk, build_dyadic_ladder,
                       classify_european, classify_rate_against_bounds, classify_swap_quote, cli, discrete_local_time,
                       dp_lower_bound, extremal_upper_measure, geometric_walk, make_payoff, normalize,
                       occupation_density_check, swap_rate_bounds, vol_points)
from varbounds import pathwise as pw
from varbounds.lower import build_lp_grid
from varbounds.serialize import round_floats
from varbounds.swap import rate_from_vol_points

BAD = (math.nan, math.inf, -math.inf, 0, -1, 5e-324, 1e308, "x", True, np.array([1.0, 2.0]))
_RNG = np.random.default_rng(28)
DRAWS = tuple(float(s * 10.0 ** e) for s, e in zip(_RNG.choice([-1.0, 1.0], 4), _RNG.uniform(-324.0, 308.25, 4)))
VALUES = BAD + DRAWS

# The CI test chain: strikes 0.8, 1.0 and 1.2, puts 0.075, 0.125 and 0.275.
STRIKES, PUTS = [0.8, 1.0, 1.2], [0.075, 0.125, 0.275]
MARKET = dict(maturity=1.0, discount_factor=1.0, forward=1.0, strikes=STRIKES, put_prices=PUTS)
CHAIN = normalize(OptionChain(**MARKET))
VANILLA = WeightSpec.vanilla()
WALK = geometric_walk(3, n_steps=64)
LADDER = build_dyadic_ladder(WALK, 3)


def _bounds(nchain=CHAIN, weight=VANILLA, **kwargs):
    return swap_rate_bounds(nchain, weight, **kwargs).to_dict()


def _chain(**field):
    return _bounds(normalize(OptionChain(**{**MARKET, **field})))


def _profile(**kwargs):
    profile = discrete_local_time(WALK, np.arange(WALK.n_steps + 1), **kwargs)
    return profile.levels, profile.values, profile.time


LIBRARY = {
    "OptionChain.maturity": lambda v: _chain(maturity=v),
    "OptionChain.discount_factor": lambda v: _chain(discount_factor=v),
    "OptionChain.forward": lambda v: _chain(forward=v),
    "OptionChain.strikes": lambda v: _chain(strikes=[0.8, v, 1.2]),
    "OptionChain.put_prices": lambda v: _chain(put_prices=[0.075, v, 0.275]),
    "WeightSpec.corridor_down": lambda v: _bounds(weight=WeightSpec.corridor_down(v)),
    "WeightSpec.corridor_up": lambda v: _bounds(weight=WeightSpec.corridor_up(v)),
    "swap_rate_bounds.grid": lambda v: _bounds(grid=v),
    "swap_rate_bounds.quoted_rate": lambda v: _bounds(quoted_rate=v),
    "dp_lower_bound.grid": lambda v: dp_lower_bound(CHAIN, make_payoff(VANILLA), grid=v).measure.to_dict(),
    "build_lp_grid.extra": lambda v: build_lp_grid(CHAIN, make_payoff(VANILLA), extra=[v]),
    "classify_european": lambda v: classify_european(CHAIN, make_payoff(VANILLA), v).to_dict(),
    "classify_swap_quote": lambda v: classify_swap_quote(CHAIN, VANILLA, v).to_dict(),
    "classify_rate_against_bounds": lambda v: classify_rate_against_bounds(v, 0.04, 0.09).to_dict(),
    "vol_points": vol_points,
    "rate_from_vol_points": rate_from_vol_points,
    **{f"geometric_walk.{name}": (lambda name: lambda v: geometric_walk(1, **{"n_steps": 64, name: v}).values)(name)
       for name in ("n_steps", "maturity", "sigma", "drift", "start")},
    **{f"arithmetic_walk.{name}": (lambda name: lambda v: arithmetic_walk(1, **{"n_steps": 64, name: v}).values)(name)
       for name in ("n_steps", "maturity", "scale", "start")},
    "build_dyadic_ladder.depth": lambda v: build_dyadic_ladder(WALK, v).meshes,
    "discrete_local_time.t": lambda v: _profile(t=v),
    "discrete_local_time.n_levels": lambda v: _profile(n_levels=v),
    "occupation_density_check.a": lambda v: occupation_density_check(WALK, LADDER, (v, 1.2)),
    "occupation_density_check.b": lambda v: occupation_density_check(WALK, LADDER, (1.0, v)),
    "extremal_upper_measure.z": lambda v: extremal_upper_measure(CHAIN, v).to_dict(),
}

MARKET_FLAGS = ["--forward=1", "--discount=1", "--maturity=1"]
CLI_VALUES = ("nan", "inf", "-inf", "0", "-1", "5e-324", "1e308", "x", *map(repr, DRAWS))
CLI_FLAGS = {  # flag -> (subcommand, extra values); the extras are the memory findings
    "--forward": ("bounds", ()),
    "--discount": ("bounds", ()),
    "--maturity": ("bounds", ()),
    "--grid": ("bounds", ("257", "100000")),
    "--quote-volpts": ("classify", ()),
    "--quote-var": ("classify", ()),
    "--seed": ("pathcheck", ()),
    "--depth": ("pathcheck", ("16", "30")),
}
CLI_CASES = [(flag, value) for flag, (_, extra) in CLI_FLAGS.items() for value in CLI_VALUES + extra]


def assert_finite(result):
    """Every number in ``result`` is finite or the documented +inf; NaN and -inf never are."""
    if isinstance(result, dict):
        result = list(result.values())
    if isinstance(result, (list, tuple)):
        for item in result:
            assert_finite(item)
    elif isinstance(result, np.ndarray):
        assert np.all(np.isfinite(result)), result
    elif isinstance(result, str):
        assert result not in ("nan", "-inf"), result
    elif isinstance(result, (int, float)):
        assert not math.isnan(result) and result != -math.inf, result


LIBRARY_CASES = [pytest.param(entry, value, id=f"{entry}-{value!r}") for entry in LIBRARY for value in VALUES]


@pytest.mark.parametrize("entry, value", LIBRARY_CASES)
def test_library_input(entry, value):
    try:
        result = LIBRARY[entry](value)
    except ValueError:
        return
    assert_finite(result)


@pytest.fixture(scope="module")
def chain_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs") / "chain.csv"
    path.write_text("strike,put_price\n" + "".join(f"{k},{p}\n" for k, p in zip(STRIKES, PUTS)))
    return str(path)


def assert_cli_outcome(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    lines = err.splitlines()
    if code == 1:
        assert out == "" and "Traceback" not in err
        assert [line for line in lines if line.startswith("varbounds: error:")] == lines[-1:], err
        assert len(lines) == 1 or lines[0].startswith("usage:"), err  # argparse shows its usage first
        return
    assert code in (0, 2) and err == "", (code, err)
    assert_finite(json.loads(out))


@pytest.mark.parametrize("flag, value", CLI_CASES, ids=[f"{f}={v}" for f, v in CLI_CASES])
def test_cli_input(capsys, chain_csv, flag, value):
    command = CLI_FLAGS[flag][0]
    argv = [command] if command == "pathcheck" else [command, "--input", chain_csv, *MARKET_FLAGS]
    assert_cli_outcome(capsys, [*argv, f"{flag}={value}"])  # the last value of a flag wins


FINDINGS = [["bounds", "--forward=inf"], ["bounds", "--forward=5e-324"], ["bounds", "--discount=5e-324"],
            ["bounds", "--forward=1e308"], ["bounds", "--maturity=inf"], ["bounds", "--grid=100000"],
            ["pathcheck", "--depth=30"]]


@pytest.mark.parametrize("argv", FINDINGS, ids=" ".join)
def test_finding_is_one_error_line(capsys, chain_csv, argv):
    # Before the rules these gave a false arbitrage verdict after a warning, a silent
    # exit 0, or a MemoryError traceback.
    command, flag = argv
    market = [] if command == "pathcheck" else ["--input", chain_csv, *MARKET_FLAGS]
    assert cli.main([command, *market, flag]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("varbounds: error: ") and err.count("\n") == 1


def test_grid_cap():
    # one block of the recursion holds a whole interval's grid pairs: 256 * 256 = _GRID_BLOCK
    assert swap_rate_bounds(CHAIN, VANILLA, grid=256).grid == 256
    with pytest.raises(ValueError, match="grid must be at most 256, got 257"):
        swap_rate_bounds(CHAIN, VANILLA, grid=257)


def test_depth_cap(monkeypatch):
    # Depth 15 reaches the walk (2**20 steps), depth 16 stops at the rule; neither walk is built.
    class Reached(Exception):
        pass

    def walk(seed, n_steps):
        raise Reached(n_steps)

    monkeypatch.setattr(pw, "geometric_walk", walk)
    with pytest.raises(Reached, match=str(2**20)):
        cli.run_pathcheck(None, 0, 15)
    with pytest.raises(ValueError, match="depth must be at most 15, got 16"):
        cli.run_pathcheck(None, 0, 16)


RULES = {  # rule: (call, error, message)
    "no strikes": (lambda: OptionChain(**{**MARKET, "strikes": [], "put_prices": []}), ChainError,
                   "need at least one strike"),
    "mismatched shapes": (lambda: OptionChain(**{**MARKET, "put_prices": PUTS[:2]}), ChainError,
                          "strikes and put_prices must have matching shapes"),
    "first strike at 0": (lambda: OptionChain(**{**MARKET, "strikes": [0.0, 1.0, 1.2]}), ChainError,
                          "strikes must be positive"),
    "unknown weight kind": (lambda: WeightSpec("cubic"), InvalidPayoff, "unknown weight kind 'cubic'"),
    "custom without a ConvexPayoff": (lambda: WeightSpec("custom", payoff=np.log), InvalidPayoff,
                                      "a custom weight needs a ConvexPayoff"),
    "custom finite nowhere": (lambda: make_payoff(WeightSpec.custom(
        lambda x: np.full_like(x, np.inf), np.zeros_like, origin_value=0.0, asymptotic_slope=0.0,
        tail_curvature_divergent=False)), InvalidPayoff, "custom payoff not finite anywhere on the check grid"),
    "test function of another type": (lambda: pw.verify_ito(WALK, np.square, LADDER), TypeError,
                                      "f must be a ConvexPayoff or a C2Function"),
}


@pytest.mark.parametrize("rule", RULES)
def test_input_rule(rule):
    call, error, message = RULES[rule]
    with pytest.raises(error, match=message):
        call()


def test_nan_renders_as_a_string():
    assert round_floats({"x": [math.nan, 0.1 + 0.2]}) == {"x": ["nan", 0.3]}


def test_text_lines_indent_a_nested_list():
    report = {"a": [[1.0, 2.0], {"b": 3.0}, 4.0]}
    assert list(cli._text_lines(report, prefix="")) == ["a:", "    - 1.0", "    - 2.0", "    b: 3.0", "  - 4.0"]
