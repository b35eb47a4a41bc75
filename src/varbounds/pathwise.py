"""Pathwise calculus on sampled paths: quadratic variation, discrete local
time, the pathwise (Föllmer) integral, and Itô-formula residuals.

All limit statements are realized as monotone-decrease checks across a
ladder of nested dyadic partitions: paths are finite samples, so
"convergence" is only ever observed, never proved.  The discrete local time
of a partition interval spreads twice the distance to the right endpoint
over the swept range; integrating it against a curvature density gives the
second-order term of the Itô formula for payoffs whose curvature is merely
locally integrable (corridor payoffs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .chain import _read_two_columns
from .payoff import ConvexPayoff

DEFAULT_LEVELS = 512


class NonMonotone(ValueError):
    """Transform map is not monotone on the path range."""


@dataclass(frozen=True)
class SampledPath:
    """A finitely sampled path with strictly increasing times."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", x)
        if t.ndim != 1 or t.size < 2 or x.shape != t.shape:
            raise ValueError("need matching 1-d times and values with at least two samples")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(x)):
            raise ValueError("path values must be finite")

    @property
    def n_steps(self) -> int:
        return int(self.times.size - 1)

    @property
    def maturity(self) -> float:
        return float(self.times[-1])

    @property
    def strictly_positive(self) -> bool:
        return bool(np.all(self.values > 0.0))

    def transformed(self, fn: Callable) -> "SampledPath":
        return SampledPath(self.times, np.asarray(fn(self.values), dtype=float))


@dataclass(frozen=True)
class PartitionLadder:
    """Nested partitions of a path's time grid, coarsest first.

    Each partition is an index array into the path grid; the finest must be
    the full grid and mesh sizes must strictly decrease.
    """

    path: SampledPath
    partitions: list

    def __post_init__(self):
        parts = [np.asarray(p, dtype=int) for p in self.partitions]
        object.__setattr__(self, "partitions", parts)
        if len(parts) < 1:
            raise ValueError("ladder needs at least one partition")
        full = self.path.times.size - 1
        if parts[-1].size != full + 1 or parts[-1][0] != 0 or parts[-1][-1] != full:
            raise ValueError("finest partition must equal the full grid")
        if np.any(np.diff(self.meshes) >= 0.0):
            raise ValueError("mesh sizes must strictly decrease")
        for coarse, fine in zip(parts, parts[1:]):  # ``meshes`` checked every index: small tables
            if not np.all(np.isin(coarse, fine, kind="table")):
                raise ValueError("partitions must be nested")

    @property
    def depth(self) -> int:
        return len(self.partitions)

    @cached_property
    def meshes(self) -> np.ndarray:
        t = self.path.times
        return np.asarray([np.max(np.diff(t[p])) for p in self.partitions])


def build_dyadic_ladder(path: SampledPath, depth: int) -> PartitionLadder:
    """Ladder whose level j keeps every 2**(depth-j)-th sample; finest keeps all."""
    if depth < 2:
        raise ValueError("ladder too shallow: need depth >= 2")
    n = path.n_steps
    if n % (2 ** (depth - 1)) != 0:
        raise ValueError(f"path with {n} steps does not support a depth-{depth} dyadic ladder")
    parts = [np.arange(0, n + 1, 2 ** (depth - j)) for j in range(1, depth + 1)]
    return PartitionLadder(path=path, partitions=parts)


@dataclass(frozen=True)
class LocalTimeProfile:
    """Discrete local time evaluated on a level grid; zero outside the path range."""

    levels: np.ndarray
    values: np.ndarray
    time: float

    def integrate_against(self, density: Callable) -> float:
        """Trapezoidal integral of local time times a pointwise density."""
        with np.errstate(all="ignore"):
            g = np.asarray(density(self.levels), dtype=float)
        g = np.where(np.isfinite(g), g, 0.0)
        return float(np.trapezoid(self.values * g, self.levels))

    def l2_distance(self, other: "LocalTimeProfile") -> float:
        if self.levels.shape != other.levels.shape:
            raise ValueError("level grids must match")
        return float(np.sqrt(np.trapezoid((self.values - other.values) ** 2, self.levels)))


# ---------------------------------------------------------------------------
# path generators and IO


def geometric_walk(
    seed: int,
    n_steps: int = 4096,
    maturity: float = 1.0,
    sigma: float = 0.2,
    drift: float = 1.0,
    start: float = 1.0,
) -> SampledPath:
    """Strictly positive walk with log-increments drift*h +- sigma*sqrt(h).

    The drift keeps the third-order Itô-remainder bias dominant over its
    sign fluctuations, so residual ladders decrease monotonically run by run.
    """
    rng = np.random.default_rng(seed)
    h = maturity / n_steps
    signs = rng.integers(0, 2, size=n_steps) * 2 - 1
    log_steps = drift * h + sigma * math.sqrt(h) * signs
    values = start * np.exp(np.concatenate(([0.0], np.cumsum(log_steps))))
    times = np.linspace(0.0, maturity, n_steps + 1)
    return SampledPath(times, values)


def arithmetic_walk(
    seed: int, n_steps: int = 4096, maturity: float = 1.0, scale: float = 1.0, start: float = 0.0
) -> SampledPath:
    """Symmetric walk with steps +-scale*sqrt(h); quadratic variation is scale**2 * T exactly."""
    rng = np.random.default_rng(seed)
    h = maturity / n_steps
    signs = rng.integers(0, 2, size=n_steps) * 2 - 1
    values = start + np.concatenate(([0.0], np.cumsum(scale * math.sqrt(h) * signs)))
    times = np.linspace(0.0, maturity, n_steps + 1)
    return SampledPath(times, values)


def read_path_csv(path) -> SampledPath:
    """Read ``time,value`` rows into a path; errors raise ``ValueError`` naming the file (and line)."""
    times, values = _read_two_columns(path, ("time", "value"), ValueError)
    try:
        return SampledPath(times, values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# core operations


def quadratic_variation(path: SampledPath, partition: np.ndarray) -> np.ndarray:
    """Cumulative sum of squared increments along the partition times."""
    x = path.values[np.asarray(partition, dtype=int)]
    return np.concatenate(([0.0], np.cumsum(np.square(np.diff(x)))))


def _default_levels(path: SampledPath, n_levels: int) -> np.ndarray:
    lo, hi = float(path.values.min()), float(path.values.max())
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    cell = (hi - lo) / n_levels
    return np.linspace(lo - cell, hi + cell, n_levels)


def _local_times(x: np.ndarray, partitions: list, levels: np.ndarray) -> list[np.ndarray]:
    """Local time of the samples ``x`` at ``levels`` along each partition, in level order.

    Each visited sample is binned into the sorted distinct levels once; by monotonicity
    a step covers the levels from the lower bin of its ends to the upper bin of its ends.
    """
    u, back = np.unique(levels, return_inverse=True)
    if len(partitions) == 1:
        visited = partitions[0]
    else:  # a mask of every sample some partition visits: no sort, no index array
        visited = np.zeros(x.size, dtype=bool)
        for part in partitions:
            visited[part] = True
    xv = x[visited]
    lower = np.searchsorted(u, xv, side="left")  # first level >= the sample
    on_level = np.empty(x.size, dtype=bool)  # equal to that level: the first level > it is one further
    on_level[visited] = np.append(u, np.nan)[lower] == xv
    edges = np.empty(x.size, dtype=np.min_scalar_type(u.size))  # bin numbers: 2 bytes for 512 levels
    edges[visited] = lower
    del visited, xv, lower  # the sweeps need neither: keep their peak memory down
    out = []
    for part in partitions:
        edge = edges[part]
        first = edge.min()  # levels outside the path range (NaN included) meet no step: 0.0
        start = np.minimum(edge[:-1], edge[1:]) - first
        edge += on_level[part]  # in place: now the first level > the sample
        last = edge.max()
        stop = np.maximum(edge[:-1], edge[1:]) - first
        w = u[first:last]
        xp = x[part]
        left, right = xp[:-1], xp[1:]
        sgn = np.sign(right - left)
        at = np.append(w, 0.0)  # level of each bin; the last bin (past every level) is dropped
        gap = np.empty(sgn.size)  # one buffer for each step's signed distance to its first, then last, level
        enter = np.bincount(start, np.multiply(sgn, np.subtract(right, at[start], out=gap), out=gap), at.size)
        leave = np.bincount(stop, np.multiply(sgn, np.subtract(right, at[stop], out=gap), out=gap), at.size)
        del edge, xp, left, right, gap  # likewise
        net = np.cumsum(np.bincount(start, sgn, at.size) - np.bincount(stop, sgn, at.size))
        drift = np.zeros(w.size)
        drift[1:] = net[:-2] * np.diff(w)  # steps still open, carried across each level gap
        values = np.zeros(u.size)
        values[first:last] = 2.0 * np.cumsum(enter[:-1] - leave[:-1] - drift)
        out.append(values[back])
    return out


def discrete_local_time(
    path: SampledPath,
    partition: np.ndarray,
    t: float | None = None,
    levels: np.ndarray | None = None,
    n_levels: int = DEFAULT_LEVELS,
) -> LocalTimeProfile:
    """Local time at horizon t: twice the sum over partition steps straddling a
    level of the distance from the step's right endpoint to that level.

    One sweep over the sorted levels: at level u the sum is
    ``A(u) = sum sgn * (right - u)`` over the steps whose closed range
    ``[lo, hi]`` holds u, and from one level to the next A changes by the
    steps that enter and leave there, minus the net sign of the steps still
    open times the level gap.  Every term is the distance from a step's end
    to a nearby level, so rounding stays close to that of the direct sum.
    Each sample is binned into the distinct levels once, a lookup that a ladder
    shares.  Cost O((N + L) log L) time and O(N + L) memory for N steps and L levels,
    plus a flag and a bin number (2 bytes for 512 levels) per path sample.  Levels may
    come in any order, values come back in that order; outside the path range, exactly 0.0.
    """
    idx = np.asarray(partition, dtype=int)
    if t is None:
        t = float(path.times[idx[-1]])
    tol = 1e-9 * max(1.0, abs(t))  # one tolerance both finds the partition time and accepts it
    pos = np.searchsorted(path.times[idx], t + tol)
    if pos == 0 or abs(path.times[idx[pos - 1]] - t) > tol:
        raise ValueError(f"t = {t} is not a partition time")
    if levels is None:
        levels = _default_levels(path, n_levels)
    levels = np.asarray(levels, dtype=float)
    (values,) = _local_times(path.values, [idx[:pos]], levels)
    return LocalTimeProfile(levels=levels, values=values, time=float(t))


def follmer_integral(path: SampledPath, integrand: Callable, partition: np.ndarray) -> float:
    """Left-endpoint Riemann sum of integrand(X) against the path increments."""
    x = path.values[np.asarray(partition, dtype=int)]
    return float(np.sum(np.asarray(integrand(x[:-1])) * np.diff(x)))


@dataclass(frozen=True)
class C2Function:
    """Twice-differentiable test function for the Itô residual checks."""

    value: Callable
    deriv: Callable
    second: Callable


def _as_test_function(f) -> tuple[Callable, Callable, Callable, str]:
    if isinstance(f, ConvexPayoff):
        curvature_mode = "local_time" if f.barrier is not None else "riemann"
        return f.value, f.slope, f.curvature, curvature_mode
    if isinstance(f, C2Function):
        return f.value, f.deriv, f.second, "riemann"
    raise TypeError("f must be a ConvexPayoff or a C2Function")


def verify_ito(path: SampledPath, f, ladder: PartitionLadder) -> np.ndarray:
    """Itô-formula residual per ladder level.

    residual = |f(X_T) - f(X_0) - sum f'(X_j) dX_j - 0.5 * curvature term|.
    The curvature term is the Riemann sum of f'' against squared increments,
    or the local-time integral of f'' for payoffs with discontinuous
    curvature (corridors), per level of the ladder.
    """
    value, deriv, second, mode = _as_test_function(f)
    x0, xT = path.values[0], path.values[-1]
    total = float(value(xT)) - float(value(x0))
    if mode == "local_time":  # one level lookup for the whole ladder
        levels = _default_levels(path, DEFAULT_LEVELS)
        profiles = _local_times(path.values, ladder.partitions, levels)
    residuals = []
    for i, part in enumerate(ladder.partitions):
        riemann = follmer_integral(path, deriv, part)
        if mode == "riemann":
            x = path.values[np.asarray(part, dtype=int)]
            curv = float(np.sum(np.asarray(second(x[:-1])) * np.square(np.diff(x))))
        else:
            curv = LocalTimeProfile(levels, profiles[i], float(path.times[part[-1]])).integrate_against(second)
        residuals.append(abs(total - riemann - 0.5 * curv))
    return np.asarray(residuals)


def occupation_density_check(
    path: SampledPath, ladder: PartitionLadder, interval: tuple[float, float]
) -> tuple[float, float]:
    """Occupation identity on an interval A at the finest partition.

    Left side: trapezoidal integral of the local time over A.  Right side:
    squared increments accumulated while the path's left endpoint sits in A.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    part = ladder.partitions[-1]
    profile = discrete_local_time(path, part)
    indicator = lambda u: ((u >= a) & (u <= b)).astype(float)
    lhs = profile.integrate_against(indicator)
    x = path.values[np.asarray(part, dtype=int)]
    left = x[:-1]
    rhs = float(np.sum(np.square(np.diff(x)) * ((left >= a) & (left <= b))))
    return lhs, rhs


def transform_local_times(path: SampledPath, f: Callable, f_prime: Callable, f_inverse: Callable,
                          partitions: list) -> list[float]:
    """L2 gap between the local time of f(X) and the transformed local time of X, per partition.

    For monotone smooth f the two agree in the limit:
    L^{f(X)}(u) = |f'(f^{-1}(u))| L^X(f^{-1}(u)).  Each path is binned into
    its levels once for all partitions.
    """
    probe = np.linspace(float(path.values.min()), float(path.values.max()), 64)
    dprobe = np.asarray(f_prime(probe), dtype=float)
    if np.any(dprobe == 0.0) or (np.any(dprobe > 0.0) and np.any(dprobe < 0.0)):
        raise NonMonotone("transform map must have one-signed, nonvanishing derivative on the range")
    parts = [np.asarray(p, dtype=int) for p in partitions]
    ypath = path.transformed(f)
    vgrid = _default_levels(ypath, DEFAULT_LEVELS)
    xlv = np.asarray(f_inverse(vgrid), dtype=float)
    scale = np.abs(np.asarray(f_prime(xlv)))
    ends = path.times[[p[-1] for p in parts]]
    lts = zip(_local_times(ypath.values, parts, vgrid), _local_times(path.values, parts, xlv), ends)
    return [LocalTimeProfile(vgrid, d, t).l2_distance(LocalTimeProfile(vgrid, scale * b, t))
            for d, b, t in lts]


def transform_local_time(path: SampledPath, f: Callable, f_prime: Callable, f_inverse: Callable,
                         partition: np.ndarray) -> float:
    """``transform_local_times`` on one partition."""
    return transform_local_times(path, f, f_prime, f_inverse, [partition])[0]
