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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .chain import _count, _read_two_columns, _real, _scale
from .payoff import ConvexPayoff, WeightSpec, make_payoff

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
        if not np.all(np.isfinite(t)):
            raise ValueError("path times must be finite")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(x)):
            raise ValueError("path values must be finite")

    @property
    def n_steps(self) -> int:
        return int(self.times.size - 1)

    @property
    def strictly_positive(self) -> bool:
        return bool(np.all(self.values > 0.0))


@dataclass(frozen=True)
class PartitionLadder:
    """Nested partitions of a path's time grid, coarsest first.

    Each partition is a strictly increasing index array into the path grid; the
    finest must be the full grid and mesh sizes must strictly decrease.
    """

    path: SampledPath
    partitions: list
    meshes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = [_partition_indices(self.path, p) for p in self.partitions]
        object.__setattr__(self, "partitions", parts)
        if len(parts) < 1:
            raise ValueError("ladder needs at least one partition")
        if parts[-1].size != self.path.times.size:  # increasing indices in range: all of them
            raise ValueError("finest partition must equal the full grid")
        object.__setattr__(self, "meshes", np.asarray([np.diff(self.path.times[p]).max() for p in parts]))
        if np.any(np.diff(self.meshes) >= 0.0):
            raise ValueError("mesh sizes must strictly decrease")
        rank = np.empty(self.path.times.size, dtype=np.intp)  # each sample's coarsest level
        for level in range(len(parts) - 1, -1, -1):
            rank[parts[level]] = level
        # each level holds the samples of all coarser ones iff it is as large as their union
        if np.any(np.cumsum(np.bincount(rank, minlength=len(parts))) != [p.size for p in parts]):
            raise ValueError("partitions must be nested")

    @property
    def depth(self) -> int:
        return len(self.partitions)


def build_dyadic_ladder(path: SampledPath, depth: int) -> PartitionLadder:
    """Ladder whose level j keeps every 2**(depth-j)-th sample; finest keeps all."""
    depth = _count("depth", depth, 2)
    n = path.n_steps
    if depth > n.bit_length() or n % (2 ** (depth - 1)) != 0:  # no power is built past n's bit length
        raise ValueError(f"path with {n} steps does not support a depth-{depth} dyadic ladder")
    parts = [np.arange(0, n + 1, 2 ** (depth - j)) for j in range(1, depth + 1)]
    return PartitionLadder(path=path, partitions=parts)


@dataclass(frozen=True)
class LocalTimeProfile:
    """Discrete local time evaluated on a level grid; zero outside the path range."""

    levels: np.ndarray
    values: np.ndarray
    time: float

    def _trapezoid(self, y: np.ndarray) -> float:
        """Trapezoidal integral of ``y``, given at the levels, taken in level order."""
        order = np.argsort(self.levels, kind="stable")
        return float(np.trapezoid(y[order], self.levels[order]))

    def integrate_against(self, density: Callable) -> float:
        """Trapezoidal integral of local time times a pointwise density."""
        with np.errstate(all="ignore"):
            g = np.asarray(density(self.levels), dtype=float)
        return self._trapezoid(self.values * np.where(np.isfinite(g), g, 0.0))

    def l2_distance(self, other: "LocalTimeProfile") -> float:
        if not np.array_equal(self.levels, other.levels):
            raise ValueError("level grids must match")
        return float(np.sqrt(self._trapezoid((self.values - other.values) ** 2)))


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
    sign fluctuations, so residual ladders mostly fall as the mesh refines,
    but not at every level: walk seed 1939546695 at depth 11 ends 1.05e-6,
    4.75e-7, 6.97e-7, 4.82e-7 (ROADMAP.md, item 7).
    """
    n_steps = _count("n_steps", n_steps, 1)
    h = _scale("maturity", maturity) / n_steps
    sigma, drift, start = (_real(name, v) for name, v in (("sigma", sigma), ("drift", drift), ("start", start)))
    signs = np.random.default_rng(seed).integers(0, 2, size=n_steps) * 2 - 1
    with np.errstate(over="ignore", invalid="ignore"):  # values past the float range: SampledPath rejects them
        log_steps = drift * h + sigma * math.sqrt(h) * signs
        values = start * np.exp(np.concatenate(([0.0], np.cumsum(log_steps))))
    times = np.linspace(0.0, maturity, n_steps + 1)
    return SampledPath(times, values)


def arithmetic_walk(
    seed: int, n_steps: int = 4096, maturity: float = 1.0, scale: float = 1.0, start: float = 0.0
) -> SampledPath:
    """Symmetric walk with steps +-scale*sqrt(h); quadratic variation is scale**2 * T exactly."""
    n_steps = _count("n_steps", n_steps, 1)
    h = _scale("maturity", maturity) / n_steps
    scale, start = _real("scale", scale), _real("start", start)
    signs = np.random.default_rng(seed).integers(0, 2, size=n_steps) * 2 - 1
    with np.errstate(over="ignore", invalid="ignore"):  # values past the float range: SampledPath rejects them
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


def _partition_indices(path: SampledPath, partition) -> np.ndarray:
    """A partition's sample indices: a 1-d integer array of at least two, strictly increasing,
    from 0 up to at most ``path.n_steps``.  Every entry point that takes a partition checks it here."""
    idx = np.asarray(partition)
    if idx.ndim != 1 or idx.size < 2 or idx.dtype.kind not in "iu":
        raise ValueError(f"partition must be a 1-d integer array of at least two indices: {idx.dtype} {idx.shape}")
    if idx[0] < 0 or idx[-1] > path.n_steps or np.any(idx[1:] <= idx[:-1]):
        raise ValueError(f"partition indices must be strictly increasing within 0..{path.n_steps}")
    return idx


def _ladder_partitions(path: SampledPath, ladder: PartitionLadder) -> list:
    """``ladder.partitions`` if the ladder is on ``path``'s time grid: built on it, or on equal times."""
    if ladder.path is not path and not np.array_equal(ladder.path.times, path.times):
        raise ValueError("ladder must be built on the path's time grid")
    return ladder.partitions


def quadratic_variation(path: SampledPath, partition: np.ndarray) -> np.ndarray:
    """Cumulative sum of squared increments along the partition times."""
    x = path.values[_partition_indices(path, partition)]
    return np.concatenate(([0.0], np.cumsum(np.square(np.diff(x)))))


def _default_levels(x: np.ndarray, n_levels: int) -> np.ndarray:
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    cell = (hi - lo) / n_levels
    return np.linspace(lo - cell, hi + cell, n_levels)


def _level_bins(u: np.ndarray, x: np.ndarray, idx=None, at=None) -> np.ndarray:
    """Positions of the finite samples ``x`` among the sorted distinct levels ``u`` (NaN last),
    counted in halves: ``np.searchsorted(u, x, side="left") + np.searchsorted(u, x, side="right")``.

    The position is even between levels and odd on one; halved it gives the first level
    ``>= x``, halved after adding one the first level ``> x``.  A uniform table of one cell
    per finite level brackets each sample: the cell map is monotone, so the levels of lower
    cells lie below the sample and those of higher cells above it.  One branch-free binary
    search, as wide as the fullest cell, then finds the first level ``>= x`` in every bracket
    at once; with at most one level in each cell it is a single step up.  Each halving of
    the fullest cell costs a pass over the samples, so the table is faster than a binary
    search only for near-uniform levels, such as even or log-even grids.  ``idx`` (integer)
    and ``at`` (float) are optional work buffers of at least ``x.size`` entries.
    """
    n = x.size
    idx = np.empty(n, dtype=np.intp) if idx is None else idx[:n]
    at = np.empty(n) if at is None else at[:n]
    finite = u[np.isfinite(u)]
    cells = max(finite.size, 1)
    lo, scale = 0.0, 0.0  # one cell for every sample, and (x - 0) * 0 stays finite
    if finite.size > 1:
        with np.errstate(over="ignore"):
            span = cells / (finite[-1] - finite[0])
        if 0.0 < span < np.inf:
            lo, scale = finite[0], span

    def cell(v, c, out):  # subtract, scale, clip, truncate: each step is monotone in v
        with np.errstate(over="ignore"):  # a far sample's overflow to inf clips like any other
            np.multiply(np.subtract(v, lo, out=c), scale, out=c)
        np.copyto(out, np.clip(c, 0, cells - 1, out=c), casting="unsafe")
        return out

    level_cells = cell(finite, np.empty(finite.size), np.empty(finite.size, dtype=np.intp))
    # edges[c]: the first level of cell c or above; -inf lies below every cell
    edges = np.count_nonzero(u == -np.inf) + np.searchsorted(level_cells, np.arange(cells + 1))
    width = max(int(np.max(np.diff(edges))), 1)  # levels in the fullest cell
    top = np.append(u, np.full(width, np.inf))  # a bracket may run past the last level
    pos = edges.take(cell(x, at, idx))  # the first level of the sample's cell
    step = np.empty(n, dtype=bool)
    while width > 1:  # the first level >= x lies in [pos, pos + width]
        half = width // 2
        np.take(top, np.add(pos, half, out=idx), out=at, mode="clip")  # in range: clip skips a copy
        np.add(pos, half, out=pos, where=np.less(at, x, out=step))
        width -= half
    np.take(top, pos, out=at, mode="clip")
    pos += np.less(at, x, out=step)
    np.take(top, pos, out=at, mode="clip")
    pos += pos
    pos += np.equal(at, x, out=step)
    return pos


def _sweep(u: np.ndarray, x: np.ndarray, pos: np.ndarray, idx: np.ndarray, gap: np.ndarray,
           sgn: np.ndarray) -> np.ndarray:
    """Local time at the sorted levels ``u`` of the samples ``x`` at half-level positions ``pos``.

    By monotonicity a step covers the levels from the first at or above its lower end up
    to, not including, the first above its upper end: level i iff its half-position
    v = 2i + 1 lies in the closed range of the step's end positions h_t, h_{t+1}.  The
    signed count of the steps covering level i telescopes: with I(h) = 1, 1/2 or 0 as h
    lies above, at or below v, a step's sign times its cover is
    I(h_{t+1}) - I(h_t) + (sgn_t / 2) ([h_t = v] + [h_{t+1} = v]), so the count is
    I(h_N) - I(h_0) plus half the sum of sgn_{t-1} + sgn_t over the samples on level i, a
    step outside the walk counting 0.  Only the samples on a level, those of odd
    position, need a scatter; every term is a small multiple of 1/2, so the count is
    exact.  Bins are level indices, so the bins below the lowest sample are empty.
    ``idx`` is a work buffer of at least one entry per sample, ``gap`` and ``sgn`` of at
    least one per step, shared by a ladder's partitions.
    """
    m = x.size - 1
    gap, sgn = gap[:m], sgn[:m]
    first, last = int(pos.min()) // 2, (int(pos.max()) + 1) // 2  # levels outside meet no step: 0.0
    left, right = x[:-1], x[1:]
    np.sign(np.subtract(right, left, out=gap), out=sgn)
    w = u[first:last]
    net = np.zeros(max(w.size - 1, 0))  # signed count of the steps covering each level below the top one
    on = np.flatnonzero(np.bitwise_and(pos, 1, out=idx[:m + 1]))  # samples on a level
    if on.size:
        before = np.where(on > 0, sgn.take(on - 1, mode="clip"), 0.0)
        after = np.where(on < m, sgn.take(on, mode="clip"), 0.0)
        net += np.bincount(pos[on] // 2 - first, 0.5 * (before + after), net.size + 1)[:-1]
    for h, side in ((int(pos[-1]), 1.0), (int(pos[0]), -1.0)):  # I(h_N) - I(h_0)
        k = h // 2 - first  # the levels below h; h sits on the next one when odd
        net[:k] += side
        if h % 2 and k < net.size:
            net[k] += 0.5 * side
    idx = idx[:m]
    at = np.append(u[:last], 0.0)  # level of each bin; the last bin (past the top level) is dropped
    np.minimum(pos[:-1], pos[1:], out=idx)
    idx >>= 1  # the first level a step covers
    np.take(at, idx, out=gap, mode="clip")  # each step's signed distance to its first, then last, level
    enter = np.bincount(idx, np.multiply(sgn, np.subtract(right, gap, out=gap), out=gap), at.size)
    np.maximum(pos[:-1], pos[1:], out=idx)
    idx += 1
    idx >>= 1  # the first level past a step
    np.take(at, idx, out=gap, mode="clip")
    leave = np.bincount(idx, np.multiply(sgn, np.subtract(right, gap, out=gap), out=gap), at.size)
    drift = np.zeros(w.size)
    drift[1:] = net * np.diff(w)  # steps still open, carried across each level gap
    values = np.zeros(u.size)
    values[first:last] = 2.0 * np.cumsum(enter[first:last] - leave[first:last] - drift)
    return values


def _samples(a: np.ndarray, part) -> np.ndarray:
    """``a`` at a checked partition's indices; ``a`` itself, read in place, for the full grid, whose
    indices are the only strictly increasing ones as many as ``a``'s entries."""
    return a if len(part) == a.size else a[part]


def _local_times(x: np.ndarray, partitions: list, levels: np.ndarray) -> list[np.ndarray]:
    """Local time of the samples ``x`` at ``levels`` along each partition, in level order.

    Every sample is binned into the sorted distinct levels once, and each partition reads its own bins.
    """
    u, back = np.unique(levels, return_inverse=True)
    idx, gap, sgn = np.empty(x.size, dtype=np.intp), np.empty(x.size), np.empty(x.size - 1)
    pos = _level_bins(u, x, idx, gap)
    return [_sweep(u, _samples(x, part), _samples(pos, part), idx, gap, sgn)[back] for part in partitions]


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
    The net sign of the open steps telescopes along the walk: the side of the
    last sample minus that of the first (1 above the level, 1/2 on it, 0 below),
    plus half the signs of the steps into and out of each sample on the level,
    since a step that starts or ends on a level counts only half in that
    difference.  So beside the entering and leaving steps, only the samples on
    a level are scattered.  Every path sample, on the partition or not, is binned
    into the distinct levels once, through a table of one cell per level, a lookup
    that a ladder shares.  Cost O(P log c + L log L) time and O(P + L) memory for P
    path samples, L levels and at most c levels in one cell (c = 1 for evenly
    spaced levels: linear binning).  Levels, a 1-d array, may come in any order;
    values come back in that order; outside the path range, exactly 0.0.
    """
    idx = _partition_indices(path, partition)
    times = _samples(path.times, idx)
    t = float(times[-1]) if t is None else _real("t", t)
    tol = 1e-9 * max(1.0, abs(t))  # one tolerance both finds the partition time and accepts it
    pos = np.searchsorted(times, t + tol)
    if pos == 0 or abs(times[pos - 1] - t) > tol:
        raise ValueError(f"t = {t} is not a partition time")
    if levels is None:
        levels = _default_levels(path.values, _count("n_levels", n_levels, 1))
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1:
        raise ValueError(f"levels must be 1-d, got shape {levels.shape}")
    (values,) = _local_times(path.values, [idx[:pos]], levels)
    return LocalTimeProfile(levels=levels, values=values, time=float(t))


def follmer_integral(path: SampledPath, integrand: Callable, partition: np.ndarray) -> float:
    """Left-endpoint Riemann sum of integrand(X) against the path increments."""
    x = path.values[_partition_indices(path, partition)]
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
    parts = _ladder_partitions(path, ladder)
    total = float(value(path.values[-1])) - float(value(path.values[0]))
    if mode == "local_time":  # one level lookup for the whole ladder
        levels = _default_levels(path.values, DEFAULT_LEVELS)
        profiles = _local_times(path.values, parts, levels)
    dx, term = np.empty(path.n_steps), np.empty(path.n_steps)  # sized for the finest level, the full grid
    residuals = []
    for i, part in enumerate(parts):
        x = _samples(path.values, part)  # each level's samples and increments serve both sums
        m = x.size - 1
        left, step, summand = x[:-1], np.subtract(x[1:], x[:-1], out=dx[:m]), term[:m]
        riemann = float(np.sum(np.multiply(deriv(left), step, out=summand)))
        if mode == "riemann":
            curv = float(np.sum(np.multiply(second(left), np.square(step, out=summand), out=summand)))
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
    a, b = (_real("interval end", end, finite=False) for end in interval)
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    part = _ladder_partitions(path, ladder)[-1]
    profile = discrete_local_time(path, part)
    indicator = lambda u: ((u >= a) & (u <= b)).astype(float)
    lhs = profile.integrate_against(indicator)
    x = _samples(path.values, part)
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
    parts = [_partition_indices(path, p) for p in partitions]
    y = np.asarray(f(path.values), dtype=float)
    if y.shape != path.values.shape or not np.all(np.isfinite(y)):
        raise ValueError("transform map must give finite values of the path's shape")
    vgrid = _default_levels(y, DEFAULT_LEVELS)
    xlv = np.asarray(f_inverse(vgrid), dtype=float)
    scale = np.abs(np.asarray(f_prime(xlv)))
    ends = [path.times[p[-1]] for p in parts]
    lts = zip(_local_times(y, parts, vgrid), _local_times(path.values, parts, xlv), ends)
    return [LocalTimeProfile(vgrid, d, t).l2_distance(LocalTimeProfile(vgrid, scale * b, t))
            for d, b, t in lts]


def transform_local_time(path: SampledPath, f: Callable, f_prime: Callable, f_inverse: Callable,
                         partition: np.ndarray) -> float:
    """``transform_local_times`` on one partition."""
    return transform_local_times(path, f, f_prime, f_inverse, [partition])[0]


_SQUARE = C2Function(lambda x: x**2, lambda x: 2.0 * x, lambda x: np.full_like(np.asarray(x, float), 2.0))
_FLOOR = 1e-14  # residuals, and occupation sides, at or below this count as zero


def _square_rounding(path: SampledPath, ladder: PartitionLadder) -> np.ndarray:
    """Per level, a bound on the rounding in ``verify_ito``'s residual for x**2, whose identity telescopes.

    Summed in any order over m steps, the residual is at most gamma_{m+4} S, with gamma_k = k u / (1 - k u)
    and S = x_T^2 + x_0^2 + sum |2 x dx| + sum dx^2.  S as computed is within a factor 1 + gamma_{m+4}
    of S, so gamma_{2m+8} times it bounds the residual.
    """
    u, bounds = np.finfo(float).eps / 2.0, []
    for x in (_samples(path.values, part) for part in ladder.partitions):
        dx, k = np.diff(x), 2 * x.size + 6  # 2m + 8 for m = x.size - 1 steps
        s = x[-1] ** 2 + x[0] ** 2 + np.sum(np.abs(2.0 * x[:-1] * dx)) + np.sum(dx * dx)
        bounds.append(k * u / (1.0 - k * u) * s)
    return np.asarray(bounds)


def ladder_checks(path: SampledPath, ladder: PartitionLadder) -> dict:
    """The report of ``varbounds pathcheck`` as a dict; the README states the rules of its four ``checks``.

    ``neg_log_decreasing`` and ``log_transform_decreasing`` are trend rules, not remainder bounds:
    the last three values strictly decrease or all lie at or below 1e-14.  A path that is not
    strictly positive skips both, which then read true.
    """
    def final_three_decreasing(values) -> bool:
        tail = np.asarray(values[-3:])
        return bool(np.all(tail <= _FLOOR) or np.all(np.diff(tail) < 0.0))

    res_square, bound = verify_ito(path, _SQUARE, ladder), _square_rounding(path, ladder)
    residuals = {"square": res_square.tolist()}
    checks = {"square_identity": bool(np.all(res_square <= bound) and np.all(np.isfinite(bound)))}
    if path.strictly_positive:
        res_log = verify_ito(path, make_payoff(WeightSpec.vanilla()), ladder)  # -ln x
        transform = transform_local_times(path, np.log, lambda x: 1.0 / x, np.exp, ladder.partitions)
        residuals.update(neg_log=res_log.tolist(), log_transform=transform)
        checks["neg_log_decreasing"] = final_three_decreasing(res_log)
        checks["log_transform_decreasing"] = final_three_decreasing(transform)
    else:
        checks["neg_log_decreasing"] = checks["log_transform_decreasing"] = True
        residuals["note"] = "path not strictly positive: log checks skipped"
    lo, hi = float(path.values.min()), float(path.values.max())
    interval = (lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0) if hi - lo > 1e-12 else (lo - 1.0, lo + 1.0)
    lhs, rhs = occupation_density_check(path, ladder, interval)
    gap = 0.0 if max(abs(lhs), abs(rhs)) <= _FLOOR else abs(lhs - rhs) / max(abs(rhs), _FLOOR)
    checks["occupation_density"] = bool(gap < 0.05)
    return {"n_steps": path.n_steps, "depth": ladder.depth, "meshes": ladder.meshes.tolist(), "residuals": residuals,
            "occupation": {"lhs": lhs, "rhs": rhs, "relative_gap": gap}, "checks": checks}
