"""Command-line front end: chain bounds, quote classification, path checks.

Exit codes: 0 for consistent outcomes (all checks pass), 2 for any arbitrage
verdict or failed path check, 1 for input or usage errors.  JSON output
serializes numbers at 12 significant digits so reports are stable golden
files; infinities appear as the string "inf".
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import pathwise as pw
from .chain import ChainError, load_chain, normalize, validate_puts
from .lower import (C1Violation, DEFAULT_GRID, DegeneratePolicy, ForwardViolation, ReconstructionFailure,
                    UnsupportedChain)
from .payoff import InvalidPayoff, parse_weight
from .serialize import round_floats
from .swap import PriceVerdict, VerdictStatus, rate_from_vol_points, swap_rate_bounds
from .pathwise import C2Function


def parse_report(text: str) -> dict:
    """Inverse of the JSON emitter: floats stay rounded, "inf" strings become floats."""

    def revive(obj):
        if isinstance(obj, str) and obj in ("inf", "-inf", "nan"):
            return float(obj)
        if isinstance(obj, dict):
            return {k: revive(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [revive(v) for v in obj]
        return obj

    return revive(json.loads(text))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors: exit 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@functools.cache  # parsing leaves the parser as it was; one build serves every call of main
def _build_parser() -> _Parser:
    parser = _Parser(prog="varbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_market_flags(p):
        p.add_argument("--input", required=True, help="chain CSV with header strike,put_price")
        p.add_argument("--forward", type=float, required=True)
        p.add_argument("--discount", type=float, required=True)
        p.add_argument("--maturity", type=float, required=True)
        p.add_argument(
            "--weight",
            default="vanilla",
            help="vanilla | gamma | corridor-down:<a> | corridor-up:<a> | inverse (alias: custom)",
        )
        p.add_argument(
            "--grid",
            type=int,
            default=DEFAULT_GRID,
            help="points per interval of the warm-start policy recursion (at least 8); "
            "the Newton solve then takes the warm start to the optimum",
        )
        p.add_argument("--format", choices=("json", "text"), default="json")
        quote = p.add_mutually_exclusive_group()
        quote.add_argument("--quote-volpts", type=float, help="quoted swap rate in volatility points")
        quote.add_argument("--quote-var", type=float, help="quoted swap rate in variance units")

    b = sub.add_parser("bounds", help="compute price bounds and hedges")
    add_market_flags(b)
    c = sub.add_parser("classify", help="classify a quoted swap rate")
    add_market_flags(c)

    p = sub.add_parser("pathcheck", help="pathwise calculus checks on a ladder")
    p.add_argument("--input", help="path CSV with header time,value (default: built-in walk)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(round_floats(report), indent=2))
        return
    for line in _text_lines(report, prefix=""):
        print(line)


def _text_lines(obj, prefix: str):
    if isinstance(obj, dict):
        for key, val in obj.items():
            if isinstance(val, (dict, list)):
                yield f"{prefix}{key}:"
                yield from _text_lines(val, prefix + "  ")
            else:
                yield f"{prefix}{key}: {round_floats(val)}"
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                yield from _text_lines(val, prefix + "  ")
            else:
                yield f"{prefix}- {round_floats(val)}"


def run_bounds(ns: argparse.Namespace) -> tuple[dict, int]:
    """Bounds and classify pipeline on the parsed arguments; returns the report dict and the exit code."""
    quote = ns.quote_var if ns.quote_volpts is None else rate_from_vol_points(ns.quote_volpts)
    if ns.command == "classify" and quote is None:
        raise ValueError("classify requires --quote-volpts or --quote-var")
    nchain = normalize(load_chain(ns.input, ns.forward, ns.discount, ns.maturity))
    verdict = validate_puts(nchain)
    if not verdict.is_consistent:
        return {"chain_verdict": verdict.to_dict()}, 2
    weight = parse_weight(ns.weight)
    try:
        report = swap_rate_bounds(nchain, weight, grid=ns.grid, quoted_rate=quote)
    except C1Violation as exc:
        quote_verdict = PriceVerdict(VerdictStatus.WEAK_ARBITRAGE, reason=str(exc))
        return {"chain_verdict": verdict.to_dict(), "quote": {"verdict": quote_verdict.to_dict()}}, 2
    payload = report.to_dict()
    code = 0
    if report.quote_verdict is not None and report.quote_verdict.is_arbitrage:
        code = 2
    return payload, code


def run_pathcheck(input_path: str | None, seed: int, depth: int) -> tuple[dict, int]:
    """Ladder checks: Itô residuals, occupation density, local-time transform."""
    if depth < 2:
        raise ValueError("ladder too shallow: depth must be at least 2")
    if input_path:
        path = pw.read_path_csv(input_path)
    else:
        path = pw.geometric_walk(seed, n_steps=64 * 2 ** (depth - 1))
    ladder = pw.build_dyadic_ladder(path, depth)
    floor = 1e-14

    def final_three_decreasing(vals) -> bool:
        tail = np.asarray(vals[-3:] if len(vals) >= 3 else vals)
        if np.all(tail <= floor):
            return True
        return bool(np.all(np.diff(tail) < 0.0))

    square = C2Function(lambda x: x**2, lambda x: 2.0 * x, lambda x: np.full_like(np.asarray(x, float), 2.0))
    res_square = pw.verify_ito(path, square, ladder)
    checks = {}
    residuals = {"square": res_square.tolist()}
    checks["square_identity"] = bool(np.all(res_square <= 1e-12))

    positive = path.strictly_positive
    if positive:
        neg_log = C2Function(
            lambda x: -np.log(x), lambda x: -1.0 / x, lambda x: 1.0 / np.square(x)
        )
        res_log = pw.verify_ito(path, neg_log, ladder)
        residuals["neg_log"] = res_log.tolist()
        checks["neg_log_decreasing"] = final_three_decreasing(res_log)
        transform = pw.transform_local_times(path, np.log, lambda x: 1.0 / x, np.exp, ladder.partitions)
        residuals["log_transform"] = transform
        checks["log_transform_decreasing"] = final_three_decreasing(transform)
    else:
        checks["neg_log_decreasing"] = True
        checks["log_transform_decreasing"] = True
        residuals["note"] = "path not strictly positive: log checks skipped"

    lo, hi = float(path.values.min()), float(path.values.max())
    if hi - lo > 1e-12:
        third = (hi - lo) / 3.0
        interval = (lo + third, hi - third)
    else:
        interval = (lo - 1.0, lo + 1.0)
    lhs, rhs = pw.occupation_density_check(path, ladder, interval)
    if max(abs(lhs), abs(rhs)) <= floor:
        gap = 0.0
    else:
        gap = abs(lhs - rhs) / max(abs(rhs), floor)
    checks["occupation_density"] = bool(gap < 0.05)

    report = {
        "n_steps": path.n_steps,
        "depth": depth,
        "meshes": ladder.meshes.tolist(),
        "residuals": residuals,
        "occupation": {"lhs": lhs, "rhs": rhs, "relative_gap": gap},
        "checks": checks,
    }
    return report, 0 if all(checks.values()) else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if ns.command == "pathcheck":
            report, code = run_pathcheck(ns.input, ns.seed, ns.depth)
        else:
            report, code = run_bounds(ns)
        _emit(report, ns.format)
        return code
    except (ChainError, InvalidPayoff, ValueError, OSError,
            ReconstructionFailure, DegeneratePolicy, ForwardViolation, UnsupportedChain) as exc:
        sys.stderr.write(f"varbounds: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
