"""Put-option chain ingestion, normalization, and no-arbitrage validation.

Raw quotes arrive as strike/price pairs in currency units together with the
forward, discount factor and maturity.  Everything downstream works in
normalized units: strikes divided by the forward, prices divided by the
discounted forward.  The normalized chain reads off its quotes the two
boundary indices that delimit the strikes carrying information (below
``n_min`` puts are free, from ``n_max`` on calls are free).
"""

from __future__ import annotations

import csv
import enum
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

# Equality tolerance on normalized quantities.  Quotes arrive at fixed
# decimal precision, exact float equality is meaningless.
EQ_TOL = 1e-12


class ChainError(ValueError):
    """Raised when chain input violates basic sanity requirements."""


class ChainStatus(enum.Enum):
    CONSISTENT = "consistent"
    WEAK_ARBITRAGE = "weak_arbitrage"
    MODEL_INDEPENDENT_ARBITRAGE = "model_independent_arbitrage"


@dataclass(frozen=True)
class ChainVerdict:
    """Outcome of the put-chain validation, with a witness naming the violated condition."""

    status: ChainStatus
    witness: str = ""

    @property
    def is_consistent(self) -> bool:
        return self.status is ChainStatus.CONSISTENT

    def to_dict(self) -> dict:
        return {"status": self.status.value, "witness": self.witness}


# Input rules, one per kind of number; each is called where the caller's value enters.
def _real(name: str, value, *, nonnegative: bool = False, finite: bool = True, error=ValueError) -> float:
    """``value`` as a float: a real number, not a bool or NaN, and nonnegative or finite where asked."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    x = float(value)
    if math.isnan(x) or (nonnegative and x < 0.0) or (finite and math.isinf(x)):
        need = " and ".join(w for w, on in (("finite", finite), ("nonnegative", nonnegative)) if on)
        raise error(f"{name} must be {need or 'a number'}, got {x}")
    return x


def _scale(name: str, value, top: float = math.inf, error=ValueError) -> float:
    """``value`` as a float if it is a scale: positive, at most ``top``, finite, with a finite reciprocal."""
    x = _real(name, value, finite=False, error=error)
    if not 0.0 < x <= top:
        raise error(f"{name} must " + ("be positive" if top == math.inf else f"lie in (0, {top:g}]") + f", got {x}")
    if not (x < math.inf and 1.0 / x < math.inf):
        raise error(f"{name} must be finite, with a finite reciprocal, got {x}")
    return x


def _count(name: str, value, low: float = -math.inf, high: float = math.inf) -> int:
    """``value`` as an int if it is an integer (not a bool) from ``low`` to ``high``; else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if value > high:
        raise ValueError(f"{name} must be at most {high}, got {value}")
    return int(value)


def _normalized_quotes(k: np.ndarray, p: np.ndarray) -> None:
    """Raise :class:`ChainError` unless k = K/F and every nonzero p = P/(DF) are finite normal floats, k increasing."""
    x = np.concatenate((k, p[p != 0.0]))
    if not (np.all((x >= np.finfo(float).tiny) & (x < math.inf)) and np.all(np.diff(k) > 0.0)):
        raise ChainError("normalized quotes K/F and P/(DF) must be finite normal floats, with K/F distinct; "
                         f"K/F spans [{k[0]:g}, {k[-1]:g}], P/(DF) [{p.min():g}, {p.max():g}]")


def _check_quotes(strikes: np.ndarray, prices: np.ndarray) -> None:
    """Raise :class:`ChainError` unless the quotes form a valid chain (see :class:`OptionChain`)."""
    if strikes.ndim != 1 or strikes.size < 1:
        raise ChainError("need at least one strike")
    if prices.shape != strikes.shape:
        raise ChainError("strikes and put_prices must have matching shapes")
    if not np.all(np.isfinite(strikes)) or not np.all(np.isfinite(prices)):
        raise ChainError("strikes and prices must be finite")
    if strikes[0] <= 0.0:
        raise ChainError("strikes must be positive")
    dk = np.diff(strikes)
    if np.any(dk == 0.0):
        raise ChainError("duplicate strikes are rejected")
    if np.any(dk < 0.0):
        raise ChainError("strikes must be strictly increasing")
    if np.any(prices < 0.0):
        raise ChainError("put prices must be nonnegative")


@dataclass(frozen=True)
class OptionChain:
    """Co-maturing put quotes in currency units.

    Strikes must be strictly increasing and positive; two quotes at one
    strike are either redundant or an arbitrage and are rejected outright.
    """

    maturity: float
    discount_factor: float
    forward: float
    strikes: np.ndarray
    put_prices: np.ndarray

    def __post_init__(self):
        strikes = np.asarray(self.strikes, dtype=float)
        prices = np.asarray(self.put_prices, dtype=float)
        object.__setattr__(self, "strikes", strikes)
        object.__setattr__(self, "put_prices", prices)
        _scale("maturity", self.maturity, error=ChainError)
        discount = _scale("discount factor", self.discount_factor, 1.0, ChainError)
        forward = _scale("forward", self.forward, error=ChainError)
        _scale("discounted forward", discount * forward, error=ChainError)
        _check_quotes(strikes, prices)


@dataclass(frozen=True)
class NormalizedChain:
    """Normalized put chain with the artificial (0, 0) point prepended.

    ``k[i] = K_i / F`` and ``p[i] = P_i / (D F)`` exactly; ``k[0] = p[0] = 0``.
    ``n_min`` and ``n_max`` are read off the quotes, so none can contradict them.
    """

    k: np.ndarray
    p: np.ndarray
    forward: float
    discount_factor: float
    maturity: float

    def __post_init__(self):
        object.__setattr__(self, "k", np.asarray(self.k, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))

    @property
    def n(self) -> int:
        return int(self.k.size - 1)

    @cached_property
    def n_min(self) -> int:
        """Last index whose put is free (priced within EQ_TOL of 0); 0 when none is."""
        zero = np.flatnonzero(self.p <= EQ_TOL)
        return int(zero.max()) if zero.size else 0

    @cached_property
    def n_max(self) -> float:
        """First index whose put prices at intrinsic value k_i - 1 (the origin never does); ``math.inf`` if none."""
        intrinsic = np.flatnonzero(np.abs(self.p - (self.k - 1.0)) <= EQ_TOL)
        return float(intrinsic.min()) if intrinsic.size else math.inf

    @cached_property
    def slopes(self) -> np.ndarray:
        """Divided differences (p_i - p_{i-1}) / (k_i - k_{i-1}), i = 1..n; computed once, read-only."""
        with np.errstate(over="ignore"):  # a chord steeper than the float range is vertical: an arbitrage
            slopes = np.diff(self.p) / np.diff(self.k)
        slopes.flags.writeable = False  # every caller shares this array
        return slopes

    @cached_property
    def _verdict(self) -> ChainVerdict:
        """The chain's :func:`validate_puts` verdict; computed once."""
        return _classify_puts(self)

    @property
    def top_index(self) -> int:
        """Last informative strike index, n ∧ n_max."""
        return int(self.n_max) if math.isfinite(self.n_max) else self.n

    @cached_property
    def window(self) -> "NormalizedChain":
        """The chain on k[n_min..top] at its quoted prices, where every consistent model puts its mass.

        Both bounds are taken on it.  Its ``n_min`` is 0 and its cap, if any, its last strike, so
        ``window.window is window``.  It is never empty: a cap at or below the free puts leaves the cap
        strike alone, which consistency puts within 2 EQ_TOL of the forward.
        """
        if self.n_min == 0 and self.top_index == self.n:
            return self
        keep = slice(min(self.n_min, self.top_index), self.top_index + 1)
        return replace(self, k=self.k[keep], p=self.p[keep])


def normalize(chain: OptionChain) -> NormalizedChain:
    """Move a raw chain to normalized units, the (0, 0) point prepended."""
    with np.errstate(over="ignore"):  # a quote out of range comes out inf, which the rule rejects
        k, p = chain.strikes / chain.forward, chain.put_prices / (chain.discount_factor * chain.forward)
    _normalized_quotes(k, p)
    return NormalizedChain(np.concatenate(([0.0], k)), np.concatenate(([0.0], p)), chain.forward,
                           chain.discount_factor, chain.maturity)


def validate_puts(nchain: NormalizedChain) -> ChainVerdict:
    """Classify the chain as consistent, weak arbitrage, or model-independent arbitrage.

    A market model exists iff the interpolant is nonnegative, nondecreasing,
    convex, dominates the intrinsic value (k - 1)^+, meets it past the cap
    and has left slope < 1 at the last informative strike.  The single
    borderline failure -- slope exactly 1 at k_n while no put prices at
    intrinsic value -- admits no model yet no model-free arbitrage either.
    Computed once per chain.
    """
    return nchain._verdict


def _classify_puts(nchain: NormalizedChain) -> ChainVerdict:
    k, p = nchain.k, nchain.p
    s = nchain.slopes
    failures: list[str] = []

    if np.any(p < -EQ_TOL):
        failures.append("negative put price")
    if np.any(s < -EQ_TOL):
        failures.append("price interpolant decreasing (calendar of strikes mispriced)")
    with np.errstate(invalid="ignore"):  # two vertical chords in a row: inf - inf, neither a dip
        if np.any(np.diff(s) < -EQ_TOL):
            failures.append("price interpolant not convex")
    intrinsic = np.maximum(k - 1.0, 0.0)
    if np.any(p < intrinsic - EQ_TOL):
        failures.append("price below intrinsic value (k - 1)^+")

    top = nchain.top_index
    # The put at intrinsic value makes the call free there: puts past it are worth k - 1 in every model.
    if np.any(p[top + 1 :] - (k[top + 1 :] - 1.0) > EQ_TOL):
        failures.append("put past the cap priced above intrinsic value k - 1 (put spread against the cap strike)")

    slope_at_top = float(s[top - 1]) if top >= 1 else 0.0
    slope_ok = slope_at_top < 1.0 - EQ_TOL

    if not failures and slope_ok:
        return ChainVerdict(ChainStatus.CONSISTENT)

    if (
        not failures
        and not math.isfinite(nchain.n_max)
        and abs(slope_at_top - 1.0) <= EQ_TOL
    ):
        return ChainVerdict(
            ChainStatus.WEAK_ARBITRAGE,
            witness="left slope at k_n equals 1 while no put prices at intrinsic value",
        )

    if not slope_ok:
        failures.append(f"left slope {slope_at_top:.6g} at last informative strike not below 1")
    return ChainVerdict(ChainStatus.MODEL_INDEPENDENT_ARBITRAGE, witness="; ".join(failures))


def _read_two_columns(
    path, names: tuple[str, str], error: type[Exception]
) -> tuple[list[float], list[float]]:
    """The two float columns under the header ``names``, in file order; blank rows are skipped.

    Raises ``error`` naming the file, and the line where there is one.
    """
    first: list[float] = []
    second: list[float] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise error(f"{path}: empty file")
        if [c.strip().lower() for c in header[:2]] != list(names):
            raise error(f"{path}:1: expected header '{','.join(names)}', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise error(f"{path}:{lineno}: expected two columns, got {len(row)}")
            try:
                first.append(float(row[0]))
                second.append(float(row[1]))
            except ValueError as exc:
                raise error(f"{path}:{lineno}: {exc}") from exc
    if not first:
        raise error(f"{path}: no data rows")
    return first, second


def read_chain_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read ``strike,put_price`` rows; rows may arrive in any order.

    Raises :class:`ChainError` with the offending line number on parse errors.
    """
    strikes, prices = _read_two_columns(path, ("strike", "put_price"), ChainError)
    order = np.argsort(strikes)
    return np.asarray(strikes)[order], np.asarray(prices)[order]


def load_chain(path, forward: float, discount_factor: float, maturity: float) -> OptionChain:
    """Convenience wrapper: CSV quotes plus market parameters into an OptionChain.

    Errors in the quotes name the file; errors in the market parameters do not.
    """
    strikes, prices = read_chain_csv(path)
    try:
        _check_quotes(strikes, prices)
    except ChainError as exc:
        raise ChainError(f"{path}: {exc}") from exc
    return OptionChain(
        maturity=maturity,
        discount_factor=discount_factor,
        forward=forward,
        strikes=strikes,
        put_prices=prices,
    )
