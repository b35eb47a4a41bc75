"""Relations between answers: refinement and bracket, on chains priced by atomic laws.

Each draw is a mean-1 atomic law with 2-8 strikes on [0.7 a_min, 1.3 a_max],
priced under it, so free puts (below the lowest atom) and caps (above the
highest) occur; one strike is then dropped at random.

- Refinement: a chain with one more quote, priced by the same law, cannot
  lower L or raise U.
- Bracket: the law reprices the quotes, so its own price lies in [L, U].
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest

from varbounds import OptionChain, make_payoff, normalize, parse_weight, swap
from conftest import atomic_law, price_puts

WEIGHTS = ("vanilla", "gamma", "corridor-up:1.0", "corridor-down:0.9", "inverse")
DRAWS = 120
REFINE_TOL = 1e-12
BRACKET_TOL = 1e-9


def law_chains(rng):
    """A law, the chain it prices on 2-8 strikes, and that chain with one strike dropped."""
    atoms, weights = atomic_law(rng)
    lo, hi = 0.7 * atoms.min(), 1.3 * atoms.max()
    n = int(rng.integers(2, 9))
    ks = np.sort(rng.uniform(lo, hi, size=n))
    while np.any(np.diff(ks) < 1e-3 * (hi - lo)):
        ks = np.sort(rng.uniform(lo, hi, size=n))
    ps = price_puts(atoms, weights, ks)
    keep = np.delete(np.arange(n), rng.integers(n))
    full, coarse = (normalize(OptionChain(1.0, 1.0, 1.0, ks[j], ps[j])) for j in (slice(None), keep))
    return atoms, weights, full, coarse


@lru_cache(maxsize=None)
def pairs(weight):
    """(law price, full report, coarse report) for each draw, the same draws for every weight."""
    payoff = make_payoff(parse_weight(weight))
    rng = np.random.default_rng(11)
    out = []
    for _ in range(DRAWS):
        atoms, weights, full, coarse = law_chains(rng)
        price = float(np.dot(weights, payoff.value(atoms)))
        out.append((price, swap._report(full, payoff, weight), swap._report(coarse, payoff, weight)))
    return out


def test_draws_reach_caps_and_free_puts():
    chains = [full.chain for _, full, _ in pairs("vanilla")]
    assert sum(math.isfinite(nc.n_max) for nc in chains) >= 10
    assert sum(nc.n_min > 0 for nc in chains) >= 1


@pytest.mark.parametrize("weight", WEIGHTS)
def test_refinement(weight):
    # Every law that reprices the full chain reprices the coarse one.
    for _, full, coarse in pairs(weight):
        assert full.lower_value >= coarse.lower_value - REFINE_TOL
        assert full.upper_value <= coarse.upper_value + REFINE_TOL


@pytest.mark.parametrize("weight", WEIGHTS)
def test_bracket(weight):
    for price, full, coarse in pairs(weight):
        for report in (full, coarse):
            assert report.lower_value - BRACKET_TOL <= price <= report.upper_value + BRACKET_TOL
