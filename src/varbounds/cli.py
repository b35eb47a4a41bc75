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

from . import pathwise as pw
from .chain import _count, load_chain, normalize
from .lower import DEFAULT_GRID, MIN_GRID, DegeneratePolicy, ForwardViolation, ReconstructionFailure, _MAX_GRID
from .serialize import round_floats
from .swap import bounds_payload, rate_from_vol_points


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


_MAX_DEPTH = 15  # the built-in walk then has at most 64 * 2**14 = 2**20 steps


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors: exit 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"varbounds: error: {message}\n")  # a subcommand's too: one prefix for every input error
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
            help="vanilla | gamma | corridor-down:<a> | corridor-up:<a> | inverse (alias: custom); a > 0 finite",
        )
        p.add_argument(
            "--grid",
            type=int,
            default=DEFAULT_GRID,
            help=f"points per interval of the warm-start policy recursion, {MIN_GRID} to {_MAX_GRID} (smaller values "
            f"are raised to {MIN_GRID}); the Newton solve then takes the warm start to the optimum",
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
    p.add_argument("--depth", type=int, default=6,
                   help=f"ladder depth, 2 to {_MAX_DEPTH}; the built-in walk has 64 * 2**(depth - 1) steps")
    p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _emit(report: dict, fmt: str) -> None:
    print(json.dumps(round_floats(report), indent=2) if fmt == "json" else "\n".join(_text_lines(report, prefix="")))


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
    payload, arbitrage = bounds_payload(nchain, ns.weight, grid=ns.grid, quoted_rate=quote)
    return payload, 2 if arbitrage else 0


def run_pathcheck(input_path: str | None, seed: int, depth: int) -> tuple[dict, int]:
    """``pathwise.ladder_checks`` on the CSV path or the built-in walk; exit 2 when a check fails."""
    depth = _count("depth", depth, 2, _MAX_DEPTH)
    path = pw.read_path_csv(input_path) if input_path else pw.geometric_walk(seed, n_steps=64 * 2 ** (depth - 1))
    report = pw.ladder_checks(path, pw.build_dyadic_ladder(path, depth))
    return report, 0 if all(report["checks"].values()) else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, code = run_pathcheck(ns.input, ns.seed, ns.depth) if ns.command == "pathcheck" else run_bounds(ns)
        _emit(report, ns.format)
        return code
    except (ValueError, OSError, ReconstructionFailure, DegeneratePolicy, ForwardViolation) as exc:
        sys.stderr.write(f"varbounds: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
