"""Shared generators: random consistent chains from atomic laws, lognormal chains, custom weights."""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import norm

from varbounds import ConvexPayoff, NormalizedChain, OptionChain, WeightSpec, make_payoff, normalize, parse_weight
from varbounds import lower


def twin_weight(name, value, slope, weight=None) -> WeightSpec:
    """A custom weight with the four limits of the built-in weight ``name``."""
    builtin = make_payoff(parse_weight(name))
    return WeightSpec.custom(value, slope, weight, origin_value=builtin.origin_value,
                             asymptotic_slope=builtin.asymptotic_slope,
                             tail_curvature_divergent=builtin.tail_curvature_divergent,
                             affine_tail_threshold=builtin.affine_tail_threshold)


def atomic_law(rng, m_lo=3, m_hi=9):
    """Finitely supported law on (0, oo) with mean exactly 1.

    One atom sits well below 0.3 and one above 2.4, so strikes drawn inside
    the atom range always see mass on both sides (n_min = 0, unbounded n_max,
    and a strict cheapest-to-deliver margin near the origin).
    """
    m = int(rng.integers(m_lo, m_hi))
    atoms = np.sort(rng.uniform(0.05, 3.0, size=m))
    atoms[0] = rng.uniform(0.02, 0.25)
    atoms[-1] = rng.uniform(2.4, 3.5)
    weights = rng.dirichlet(np.ones(m))
    atoms = atoms / np.dot(weights, atoms)
    return atoms, weights


def price_puts(atoms, weights, strikes):
    return np.array([np.dot(weights, np.maximum(k - atoms, 0.0)) for k in strikes])


def random_consistent_chain(
    rng, max_strikes=8, forward=1.0, discount=1.0, maturity=1.0
) -> NormalizedChain:
    """Chain priced under a random atomic law: consistent by construction,
    with n_min = 0 and no strike at intrinsic value."""
    atoms, weights = atomic_law(rng)
    lo, hi = atoms[0] * 1.10, atoms[-1] * 0.90
    n = int(rng.integers(1, max_strikes + 1))
    ks = np.sort(rng.uniform(lo, hi, size=n))
    while np.any(np.diff(ks) < 1e-3 * (hi - lo)):
        ks = np.sort(rng.uniform(lo, hi, size=n))
    ps = price_puts(atoms, weights, ks)
    chain = OptionChain(
        maturity=maturity,
        discount_factor=discount,
        forward=forward,
        strikes=ks * forward,
        put_prices=ps * discount * forward,
    )
    return normalize(chain)


def trimmed_route_chain(rng, n: int, free: bool, capped: bool) -> NormalizedChain:
    """``n`` strikes inside the atom range of a random law, plus a put below its
    lowest atom (priced at 0: n_min = 1) and/or a strike above its highest
    (priced at intrinsic value: finite n_max)."""
    atoms, weights = atomic_law(rng)
    lo, hi = atoms.min() * 1.10, atoms.max() * 0.90
    ks = np.sort(rng.uniform(lo, hi, size=n))
    while np.any(np.diff(ks) < 1e-3 * (hi - lo)):
        ks = np.sort(rng.uniform(lo, hi, size=n))
    if free:
        ks = np.insert(ks, 0, atoms.min() * rng.uniform(0.3, 0.9))
    if capped:
        ks = np.append(ks, atoms.max() * rng.uniform(1.05, 1.3))
    nchain = normalize(OptionChain(1.0, 1.0, 1.0, ks, price_puts(atoms, weights, ks)))
    assert nchain.n_min == int(free) and math.isfinite(nchain.n_max) == capped
    return nchain


def scale_chains() -> list[NormalizedChain]:
    """The scale chains: 150 random chains, then 25 each with a free put, a cap, and both."""
    rng = np.random.default_rng(5)
    chains = [random_consistent_chain(rng) for _ in range(150)]
    chains += [trimmed_route_chain(rng, int(rng.integers(1, 9)), free, capped)
               for free, capped in ((True, False), (False, True), (True, True)) for _ in range(25)]
    return chains


def window_excess(nchain: NormalizedChain, payoff: ConvexPayoff, portfolio) -> float:
    """Exact worst excess of a hedge over the payoff on [k_{n_min}, k_top], or [k_{n_min}, oo) uncapped."""
    hi = float(nchain.k[nchain.top_index]) if math.isfinite(nchain.n_max) else math.inf
    return lower._worst_excess(portfolio, payoff, float(nchain.k[nchain.n_min]), hi)[0]


def lognormal_chain(n, sigma=0.2, lo=0.5, hi=2.0) -> NormalizedChain:
    """Log-spaced strikes priced under the mean-1 lognormal with volatility sigma."""
    ks = np.geomspace(lo, hi, n)
    d1 = (np.log(1.0 / ks) + 0.5 * sigma**2) / sigma
    d2 = d1 - sigma
    ps = ks * norm.cdf(-d2) - norm.cdf(-d1)
    chain = OptionChain(
        maturity=1.0, discount_factor=1.0, forward=1.0, strikes=ks, put_prices=ps
    )
    return normalize(chain)


def single_put_chain(price, strike=1.2, forward=1.0, discount=1.0) -> NormalizedChain:
    chain = OptionChain(
        maturity=1.0,
        discount_factor=discount,
        forward=forward,
        strikes=np.array([strike * forward]),
        put_prices=np.array([price * discount * forward]),
    )
    return normalize(chain)


def verification_grid(
    nchain: NormalizedChain, payoff: ConvexPayoff | None = None, n_points: int = 10_000, span: float = 1000.0
) -> np.ndarray:
    """Log-spaced domination-check grid including strikes and the corridor barrier."""
    pts = np.geomspace(min(nchain.k[1], 1.0) * 1e-4, span * nchain.k[-1], n_points)
    barrier = [] if payoff is None or payoff.barrier is None else [payoff.barrier]
    return np.union1d(pts, np.concatenate((nchain.k[1:], barrier)))
