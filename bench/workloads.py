"""The three benchmark workloads: inputs made from a seed, the timed op, and its check.

Each workload is a fixed list of ops (one "cycle") built from the seed before
timing starts.  An op is one call into the package's public entry points;
its check runs after the timed phase and returns the list of problems found
(empty when the output is correct).  Inputs are generated here rather than
imported from the test suite, so the benchmark's inputs stay fixed while the
tests evolve.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.stats import norm

from varbounds import cli
from varbounds import lower as lower_mod
from varbounds import swap as swap_mod
from varbounds.chain import OptionChain, normalize
from varbounds.payoff import make_payoff, parse_weight

CHAIN_WEIGHTS = ("vanilla", "gamma", "corridor-up:1.0", "corridor-down:0.9")
BATCH_WEIGHTS = CHAIN_WEIGHTS + ("custom",)
SIGMA = 0.2
ORACLE_TOL = 5e-3  # criterion-2 duality-gap tolerance
BAND_TOL = 1e-9  # the lognormal model value may sit this far outside the band
VANILLA_RATE = SIGMA**2  # complete-market variance swap rate of the lognormal law


@dataclass
class Workload:
    """A cycle of ops; ``run(i)`` is timed, ``check(i, out)`` is not."""

    name: str
    labels: list[str]
    run: Callable[[int], object]
    check: Callable[[int, object], list[str]]
    signature: Callable[[object], object]  # equal for equal outputs of one input
    cycle_s: float = 1.0  # nominal reference seconds of one cycle; sets the cycle count


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``varbounds.cli.main`` in-process, capturing what it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# dense-chain: the CLI on lognormal chains


def lognormal_prices(ks: np.ndarray, sigma: float = SIGMA) -> np.ndarray:
    """Put prices under the mean-1 lognormal law with volatility sigma."""
    d1 = (np.log(1.0 / ks) + 0.5 * sigma**2) / sigma
    d2 = d1 - sigma
    return ks * norm.cdf(-d2) - norm.cdf(-d1)


def lognormal_expectation(weight: str, sigma: float = SIGMA) -> float:
    """E[payoff(X)] for the mean-1 lognormal X, by quadrature in the normal variable."""
    payoff = make_payoff(parse_weight(weight))

    def integrand(z):
        x = math.exp(sigma * z - 0.5 * sigma**2)
        return float(payoff.value(x)) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    points = None
    if payoff.barrier is not None:
        points = [(math.log(payoff.barrier) + 0.5 * sigma**2) / sigma]
    value, _ = integrate.quad(integrand, -15.0, 15.0, points=points, limit=200, epsabs=1e-13, epsrel=1e-12)
    return value


def dense_chain(seed: int, out_dir: Path, sizes: tuple[int, ...], cycle_s: float) -> Workload:
    """``varbounds bounds`` for each weight on each chain size; the seed sets the op order."""
    csvs = {}
    for n in sizes:
        ks = np.geomspace(0.5, 2.0, n)
        path = out_dir / f"lognormal-{n}.csv"
        rows = "".join(f"{float(k)!r},{float(p)!r}\n" for k, p in zip(ks, lognormal_prices(ks)))
        path.write_text("strike,put_price\n" + rows, encoding="utf-8")
        csvs[n] = str(path)
    cases = [(n, w) for n in sizes for w in CHAIN_WEIGHTS]
    order = np.random.default_rng(seed).permutation(len(cases))
    cases = [cases[j] for j in order]
    reference = {w: lognormal_expectation(w) for w in CHAIN_WEIGHTS}

    def run(i):
        n, w = cases[i]
        argv = ["bounds", "--input", csvs[n], "--forward", "1", "--discount", "1", "--maturity", "1", "--weight", w]
        return run_cli(argv)

    def check(i, out):
        n, w = cases[i]
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        report = cli.parse_report(text)
        lower = report["european"]["lower_value_normalized"]
        upper = report["european"]["upper_value_normalized"]
        problems = []
        if not lower - BAND_TOL <= reference[w] <= upper + BAND_TOL:
            problems.append(f"model value {reference[w]:.12g} outside [{lower:.12g}, {upper:.12g}]")
        if w == "vanilla" and n == 50:
            gap = VANILLA_RATE - report["swap_rate"]["lower"]
            if abs(gap) > 0.05 * VANILLA_RATE:
                problems.append(f"vanilla swap-rate gap {gap:.3g} above 5% of {VANILLA_RATE}")
        return problems

    labels = [f"n={n} {w}" for n, w in cases]
    return Workload("dense-chain", labels, run, check, signature=lambda out: out, cycle_s=cycle_s)


# ---------------------------------------------------------------------------
# chain-batch: swap_rate_bounds on small chains


def atomic_law(rng):
    """Mean-1 law on a few atoms, one well below 0.3 and one above 2.4."""
    m = int(rng.integers(3, 9))
    atoms = np.sort(rng.uniform(0.05, 3.0, size=m))
    atoms[0] = rng.uniform(0.02, 0.25)
    atoms[-1] = rng.uniform(2.4, 3.5)
    weights = rng.dirichlet(np.ones(m))
    return atoms / np.dot(weights, atoms), weights


def small_chain(rng, route: str, n: int):
    """A chain priced under a random atomic law, so it is consistent by construction.

    ``route`` "dp" draws the chain as the test suite's
    ``random_consistent_chain`` does: ``n`` strikes strictly inside the atom
    range, so the policy recursion runs.  "top" adds a strike above the top
    atom, priced at intrinsic value (finite n_max), and "free" adds a strike
    below the lowest atom, priced at zero (n_min > 0); both take the grid-LP
    route, with ``n + 1`` strikes in all.
    """
    atoms, weights = atomic_law(rng)
    lo, hi = atoms[0] * 1.10, atoms[-1] * 0.90
    ks = np.sort(rng.uniform(lo, hi, size=n))
    while np.any(np.diff(ks) < 1e-3 * (hi - lo)):
        ks = np.sort(rng.uniform(lo, hi, size=n))
    if route == "top":
        ks = np.append(ks, atoms[-1] * rng.uniform(1.05, 1.3))
    elif route == "free":
        ks = np.insert(ks, 0, atoms[0] * rng.uniform(0.3, 0.9))
    ps = np.array([np.dot(weights, np.maximum(k - atoms, 0.0)) for k in ks])
    chain = OptionChain(maturity=1.0, discount_factor=1.0, forward=1.0, strikes=ks, put_prices=ps)
    return normalize(chain)


def batch_mix(rng, n_ops: int) -> list[tuple[str, str, int]]:
    """(weight, route, strike count) of each op, in an order drawn from ``rng``.

    Each block of 50 ops gives every weight one DP chain of each size 1-8
    (as ``random_consistent_chain`` draws its size uniformly) and one chain
    of each LP route.  Fixing the mix per block keeps the share of slow ops
    the same from seed to seed: the LP fallback, which sets the tail, grows
    with the strike count and depends on the weight.
    """
    mix = []
    while len(mix) < n_ops:
        for w in BATCH_WEIGHTS:
            mix += [(w, "dp", n) for n in range(1, 9)]
            mix += [(w, "top", int(rng.integers(1, 8))), (w, "free", int(rng.integers(1, 8)))]
    return [mix[j] for j in rng.permutation(len(mix))][:n_ops]


def chain_batch(seed: int, n_ops: int, cycle_s: float) -> Workload:
    """A stream of small chains over all five weights, each with a quoted rate."""
    rng = np.random.default_rng(seed)
    cases = []
    for weight, route, n in batch_mix(rng, n_ops):
        nchain = small_chain(rng, route, n)
        quote = (rng.uniform(5.0, 60.0) / 100.0) ** 2
        cases.append((nchain, weight, route, quote))
    specs = {w: parse_weight(w) for w in BATCH_WEIGHTS}
    payoffs = {w: make_payoff(spec) for w, spec in specs.items()}

    def run(i):
        nchain, w, _, quote = cases[i]
        return swap_mod.swap_rate_bounds(nchain, specs[w], quoted_rate=quote)

    def check(i, report):
        nchain, w, _, quote = cases[i]
        problems = list(report.lower_measure.check(nchain))
        if not report.lower_value <= report.upper_value + BAND_TOL:
            problems.append(f"lower {report.lower_value:.12g} above upper {report.upper_value:.12g}")
        payoff = payoffs[w]
        grid = lower_mod.build_lp_grid(nchain, payoff, extra=report.lower_measure.atoms)
        oracle = lower_mod.grid_lp_oracle(nchain, payoff, grid)
        if abs(oracle - report.lower_value) > ORACLE_TOL:
            problems.append(f"LP oracle {oracle:.12g} vs lower {report.lower_value:.12g}")
        expected = swap_mod.classify_rate_against_bounds(
            quote,
            report.swap_lower,
            report.swap_upper,
            lower_existence=report.lower_existence,
            upper_existence=report.upper_existence,
        )
        got = report.quote_verdict
        if (got.status, got.side) != (expected.status, expected.side):
            problems.append(f"quote verdict {got.status.value}/{got.side}, band says {expected.status.value}/{expected.side}")
        return problems

    def signature(report):
        verdict = report.quote_verdict
        return (report.lower_value, report.upper_value, report.swap_lower, report.swap_upper, verdict.status, verdict.side)

    labels = [f"{route} n={nchain.n} {w}" for nchain, w, route, _ in cases]
    return Workload("chain-batch", labels, run, check, signature, cycle_s=cycle_s)


# ---------------------------------------------------------------------------
# pathcheck: the CLI's pathwise checks on long walks


def pathcheck(seed: int, depths: tuple[int, ...], cycle_s: float) -> Workload:
    """``varbounds pathcheck`` on one walk per op; each op has its own walk seed."""
    walk_seeds = np.random.default_rng(seed).integers(0, 2**31, size=len(depths))
    cases = [(int(s), d) for s, d in zip(walk_seeds, depths)]

    def run(i):
        s, d = cases[i]
        return run_cli(["pathcheck", "--seed", str(s), "--depth", str(d)])

    def check(i, out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        checks = json.loads(text)["checks"]
        return [f"check {name} false" for name, ok in checks.items() if not ok]

    labels = [f"walk {s} depth {d}" for s, d in cases]
    return Workload("pathcheck", labels, run, check, signature=lambda out: out, cycle_s=cycle_s)


def build(name: str, seed: int, out_dir: Path, toy: bool = False) -> Workload:
    """The named workload; ``toy`` shrinks every input for the smoke test.

    The last argument of each is the cycle's nominal time in reference
    seconds (see ``calibrate.py``), measured at the commit that defined the
    benchmark; it only turns ``--seconds`` into a cycle count.
    """
    if name == "dense-chain":
        return dense_chain(seed, out_dir, (6, 10) if toy else (50, 100), cycle_s=1.0 if toy else 20.0)
    if name == "chain-batch":
        return chain_batch(seed, 10 if toy else 500, cycle_s=1.0 if toy else 20.0)
    if name == "pathcheck":
        return pathcheck(seed, (3, 4) if toy else (10, 11, 11, 11, 11), cycle_s=1.0 if toy else 10.0)
    raise ValueError(f"unknown workload {name!r}")
