"""Most expensive sub-replicating portfolio and the lower price bound.

The dual search runs over finitely supported candidate laws: at most one
atom per inter-strike interval plus one beyond the last strike.  Such a
measure is parametrized by the cumulative weights ``zeta_i`` on [0, k_i);
consistency with the quoted puts confines ``zeta_i`` to an interval ``A_i``
of divided differences, and the atom positions follow from repricing the
puts.  Each interval's term w * lambda(chi) is the perspective of the
convex payoff applied to an affine map of (zeta_{i-1}, zeta_i), so the
objective is convex with a tridiagonal Hessian.  One backwards recursion
over a coarse policy grid (32 points per interval by default) gives the
warm start, and a projected Newton solve over the same intervals takes it
to machine precision; each Newton step is one O(n) LDL^T solve of the
tridiagonal system on Python floats, and each trial point one evaluation of
the payoff, its slope and its curvature at all atoms.  Weights within
rounding of a bound are snapped onto it, dust atoms between two such
weights are closed, and a step within rounding of the objective is judged
by the first-order residual of the weights it moved.  A Newton step whose
first-order gain sum |g_i d_i| is within rounding is tried in full only,
not halved: by convexity no shorter step gains more (away from the tail
term's switch at ``_MIN_ATOM_WEIGHT``, which the full step still meets).
Where the solve reaches the optimum its value agrees across warm-start
grids to about 1e-12, but the optimal measure, and so the hedge, need not:
on some dense chains the hedge built from one grid's solve fails its checks
where another grid's passes.

The subhedge is built from the optimal measure alone: tangent to the payoff
at every atom, as in Davis, Obloj & Raval (arXiv:1001.2678), and checked
exactly, piece by piece (Hettich & Kortanek, SIAM Review 35(3), 1993).
Every chain puts its mass on [k_{n_min}, k_top]: nothing lies below a free
put (n_min > 0) or above a strike priced at intrinsic value (finite n_max).  The tail's
price, the call value c at the window's last strike, is 0 exactly when n_max is finite.
``dp_lower_bound`` solves every chain on that window, ``NormalizedChain.window``,
and both hedges, this one and ``upper.superhedge``, come from their values at
its strikes (``_portfolio_from_nodes``).  A dense-grid linear program over the
same node-value hedges is the independent primal oracle; only it samples a
grid, and only it loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import EQ_TOL, NormalizedChain, _count, validate_puts
from .payoff import ConvexPayoff, check_c1

_MIN_ATOM_WEIGHT = 1e-11  # a weight of at most this carries no atom, in the solve and in the measure
_WEIGHT_SUM_TOL = 1e-10  # AtomicMeasure.check: weights sum to one to within this
_MOMENT_TOL = 1e-8  # AtomicMeasure.check: forward and put prices repriced to within this
_DOMINATION_TOL = 1e-8
_CONTACT_TOL = 1e-8
_ON_STRIKE = 1e-9  # an atom this close to a strike, relative to its interval, sits on it
_NOISE = 64 * np.finfo(float).eps  # relative rounding level of the policy objective
_SNAP = 1e-12  # a weight this close to a bound of its interval sits on it; an interval this wide is a point
DEFAULT_GRID = 32
MIN_GRID = 8  # the recursion raises smaller grids to this many points per interval
_GRID_BLOCK = 1 << 16  # grid pairs whose segment terms the recursion evaluates at once
_MAX_GRID = math.isqrt(_GRID_BLOCK)  # 256: one block then holds a whole interval's grid pairs
_FAR = 1e7  # hedges are checked out to this multiple of the last strike; beyond, by tail slope
_TAIL_MARGIN = 1e-12  # a tail slope that touches the payoff backs off by this much
_LP_POINTS = 2048  # log-spaced points of the oracle's constraint grid, before strikes and atoms


class C1Violation(RuntimeError):
    """Payoff unbounded at the origin while the chain permits all near-zero mass at 0."""


class ReconstructionFailure(RuntimeError):
    """The policy solve did not converge, or its subhedge failed domination, contact or cost; the message says which."""


class Unbounded(RuntimeError):
    """The grid LP is unbounded; the price bound is infinite."""


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported candidate law.

    ``mean_at_infinity`` is the mean mass carried off by the vanishing tail
    atom of a boundary policy (cumulative weight exactly 1): the weights then
    sum to one but the finite atoms alone under-shoot the unit forward by
    exactly this amount.  Zero for proper measures.
    """

    atoms: np.ndarray
    weights: np.ndarray
    mean_at_infinity: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "atoms", np.asarray(self.atoms, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.atoms.shape != self.weights.shape or self.atoms.ndim != 1:
            raise ValueError(f"atoms and weights must be 1-d of one shape, got {self.atoms.shape} {self.weights.shape}")

    def integrate(self, payoff: ConvexPayoff) -> float:
        """Sum of weight * payoff(atom); the escaped mean carries no payoff here."""
        vals = payoff.value(self.atoms)
        return float(np.dot(self.weights, vals))

    def mean(self) -> float:
        return float(np.dot(self.weights, self.atoms))

    def put_value(self, strike: float) -> float:
        return float(np.dot(self.weights, np.maximum(strike - self.atoms, 0.0)))

    def check(self, nchain: NormalizedChain) -> list[str]:
        """Return the list of violated invariants (empty when valid)."""
        problems = []
        if np.any(self.atoms < -1e-14):
            problems.append("negative atom position")
        if np.any(self.weights < -1e-12):
            problems.append("negative weight")
        if abs(self.weights.sum() - 1.0) > _WEIGHT_SUM_TOL:
            problems.append(f"weights sum to {self.weights.sum():.12g}")
        if abs(self.mean() + self.mean_at_infinity - 1.0) > _MOMENT_TOL:
            problems.append(f"forward constraint off by {self.mean() + self.mean_at_infinity - 1.0:.3g}")
        errs = [self.put_value(k) - p for k, p in zip(nchain.k[1:], nchain.p[1:])]
        problems += [f"put {i} repriced off by {e:.3g}" for i, e in enumerate(errs, 1) if abs(e) > _MOMENT_TOL]
        # One atom per inter-strike interval; atoms sitting exactly on a
        # strike occupy the boundary and do not crowd either side.
        if self.atoms.size:
            off_strike = np.min(np.abs(self.atoms[:, None] - nchain.k[None, :]), axis=1) > 1e-12
            intervals = np.searchsorted(nchain.k, self.atoms[off_strike], side="right")
            if np.unique(intervals).size != intervals.size:
                problems.append("more than one atom in an inter-strike interval")
        return problems

    def to_dict(self) -> dict:
        return {
            "atoms": self.atoms.tolist(),
            "weights": self.weights.tolist(),
            "mean_at_infinity": self.mean_at_infinity,
        }


@dataclass(frozen=True)
class HedgePortfolio:
    """Static cash / forward / put position, evaluable as a piecewise-linear payoff.

    Always in normalized units: strikes over the forward, cash over the discounted forward.  Only
    ``BoundsReport.to_dict`` renders a hedge in currency.
    """

    cash: float
    forward: float
    puts: np.ndarray
    strikes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "puts", np.asarray(self.puts, dtype=float))
        object.__setattr__(self, "strikes", np.asarray(self.strikes, dtype=float))
        if self.puts.shape != self.strikes.shape or self.strikes.ndim != 1:
            raise ValueError(f"puts and strikes must be 1-d of one shape, got {self.puts.shape} {self.strikes.shape}")
        if not np.all(np.diff(self.strikes) > 0.0):
            raise ValueError("hedge strikes must be strictly increasing")

    def payoff(self, x):
        """Terminal value as a function of the (normalized) asset level.

        The puts pay a piecewise-linear function with nodes at the ascending
        strikes, linear below k_1 and zero above k_n.  Node values come from
        cumulative sums, and each point extends the node at the first strike
        at or above it; no grid x strikes matrix is formed.
        """
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = self.cash + self.forward * arr
        k, q = self.strikes, self.puts
        if q.size:
            # live[j] puts are struck at or above k_j; their value at k_j sums
            # live * dk over the intervals above it.
            live = np.cumsum(q[::-1])[::-1]
            nodes = np.append(np.cumsum((np.diff(k) * live[1:])[::-1])[::-1], 0.0)
            j = np.minimum(np.searchsorted(k, arr), q.size - 1)
            out = out + nodes[j] + live[j] * np.maximum(k[j] - arr, 0.0)
        return float(out[0]) if np.ndim(x) == 0 else out

    def setup_cost(self, nchain: NormalizedChain) -> float:
        return float(self.cash + self.forward + np.dot(self.puts, nchain.p[1:]))

    def to_dict(self) -> dict:
        return {
            "cash": self.cash,
            "forward": self.forward,
            "puts": self.puts.tolist(),
            "strikes": self.strikes.tolist(),
            "normalized": True,
        }


@dataclass(frozen=True)
class DualSolution:
    value: float
    measure: AtomicMeasure
    policy: np.ndarray = field(default_factory=lambda: np.empty(0))


def feasible_policy_sets(nchain: NormalizedChain) -> np.ndarray:
    """Closed intervals A_i for the cumulative weights, as an (n, 2) array.

    A_i runs from the chain slope into strike i to the slope out of it; the
    final interval is capped at total mass 1.  Neighbours share their edge,
    one float: the edges are the running maximum of the slopes (convexity to
    ``EQ_TOL`` lets a slope dip), then 1, and an interval at most ``_SNAP``
    wide (collinear quotes) collapses onto its right edge, lifting the one
    before it, so no rounding-wide gap is left to hold a dust atom.  Takes any
    consistent chain; the intervals are those of ``nchain.window``, one per
    strike past its first (none when the window is one strike).
    """
    if not validate_puts(nchain).is_consistent:
        raise ValueError("feasible policy sets need a consistent chain")
    edges = np.append(np.maximum.accumulate(nchain.window.slopes), 1.0).tolist()
    for j in range(len(edges) - 2, -1, -1):
        if edges[j + 1] - edges[j] <= _SNAP:
            edges[j] = edges[j + 1]
    return np.column_stack([edges[:-1], edges[1:]])


def _atoms_from_policy(nchain: NormalizedChain, state: _PolicyState) -> AtomicMeasure:
    """Measure of the state that ``_projected_newton`` returned: its live atoms, merged one to an interval.

    With no tail atom on an uncapped chain, the finite atoms under-price the forward by the call
    value at k_n, up to rounding, which the measure records as ``mean_at_infinity``.
    """
    atoms, weights = state.atoms[state.live], state.weights[state.live]
    escape = 0.0 if state.live[-1] or _tail_constant(nchain) == 0.0 else 1.0 - float(np.dot(weights, atoms))
    merged = _merge_atoms(nchain, atoms, weights)
    return AtomicMeasure(merged.atoms, merged.weights, mean_at_infinity=escape)


# ---------------------------------------------------------------------------
# policy objective


def _tail_constant(nchain: NormalizedChain) -> float:
    """Call value 1 + p_n - k_n at the last strike; exactly 0 when ``n_max`` is finite, the one cap rule."""
    return 0.0 if math.isfinite(nchain.n_max) else float(1.0 + nchain.p[-1] - nchain.k[-1])


def _atom(nchain, i, a, b):
    """Atom of segment(s) ``i`` for cumulative weights (a, b), clipped into [k_{i-1}, k_i].

    chi = k_i + dk (a - s_i) / w = k_{i-1} + dk (b - s_i) / w, w = b - a; only the
    form anchored at the nearer strike, exact when a weight sits at s_i, is computed.
    The boxes follow the running maximum of the slopes and chi the slope itself, so where
    a slope dips (by at most EQ_TOL) the formula can put the atom dk dip / w past its strike.
    """
    lo = np.asarray(i) - 1  # indexed once: the kernel runs on every Newton trial
    with np.errstate(all="ignore"):
        k_lo, k_hi, s, w = nchain.k[lo], nchain.k[lo + 1], nchain.slopes[lo], b - a
        dk, c = k_hi - k_lo, s - a <= b - s
        return np.clip(np.where(c, k_hi, k_lo) + np.where(c, dk * (a - s), dk * (b - s)) / w, k_lo, k_hi)


def _has_atom(w):
    """The no-atom rule: a segment or tail weight has an atom when it exceeds ``_MIN_ATOM_WEIGHT`` (NaN does not)."""
    return w > _MIN_ATOM_WEIGHT


def _segment_terms(w, lam, live):
    """Terms w lambda(chi), ``lam`` at the atoms; a weight with no atom (not ``live``) gives 0, inf below -1e-12."""
    out = w * lam
    dead = ~live
    out[dead] = np.where(w[dead] >= -1e-12, 0.0, np.inf)
    return out


def _segment_value(nchain, payoff, i, a, b):
    """Term w * lambda(chi) of segment(s) ``i``; ``i``, ``a`` and ``b`` broadcast."""
    w = b - a
    with np.errstate(all="ignore"):
        return _segment_terms(w, payoff.value(_atom(nchain, i, a, b)), _has_atom(w))


def _tail_term(nchain, payoff, w, lam, live):
    """Tail term w lambda(chi_t), ``lam`` the payoff at the tail atom; with no atom (not ``live``) the
    limit gamma c as w vanishes (c > 0: inf where gamma is), 0 on a capped chain (c = 0), to which the
    objective jumps."""
    c, gamma = _tail_constant(nchain), payoff.asymptotic_slope
    limit = 0.0 if c == 0.0 else gamma * c
    return np.where(live, w * lam, limit)


def _tail_value(nchain, payoff, z):
    """Tail term (1 - z) lambda(k_n + c / (1 - z)), with its analytic limit (``_tail_term``) at z = 1."""
    w = 1.0 - z
    live = _has_atom(w)
    with np.errstate(all="ignore"):
        lam = payoff.value(nchain.k[-1] + _tail_constant(nchain) / np.where(live, w, 1.0))
        return _tail_term(nchain, payoff, w, lam, live)


def policy_objective(nchain: NormalizedChain, payoff: ConvexPayoff, zeta) -> float:
    """Exact objective of a policy, with the analytic boundary limit for the tail."""
    zeta = np.asarray(zeta, dtype=float)
    prev = np.concatenate(([0.0], zeta[:-1]))
    segments = _segment_value(nchain, payoff, np.arange(1, nchain.n + 1), prev, zeta)
    return float(np.sum(segments) + _tail_value(nchain, payoff, zeta[-1]))


def _solve_on_grids(nchain, payoff, grids: np.ndarray) -> np.ndarray:
    """Backwards recursion over a policy grid per interval (a row of ``grids``); the best grid policy.

    The segment terms of a block of intervals come from one kernel call, about
    ``_GRID_BLOCK`` grid pairs at a time, and each interval's step sums into one (g, g) buffer.
    """
    n, g = grids.shape
    V = _tail_value(nchain, payoff, grids[n - 1])
    choices, M, rows = np.zeros((n, g), dtype=int), np.empty((g, g)), np.arange(g)
    block = _GRID_BLOCK // (g * g)  # at least one interval, as g <= _MAX_GRID
    for stop in range(n - 1, 0, -block):
        j = np.arange(max(stop - block, 0) + 1, stop + 1)
        terms = _segment_value(nchain, payoff, j[:, None, None] + 1, grids[j - 1][:, :, None], grids[j][:, None, :])
        for jj, term in zip(range(stop, 0, -1), terms[::-1]):  # intervals stop, stop - 1, ..., j[0]
            np.add(term, V, out=M)
            choices[jj] = M.argmin(axis=1)
            V = M[rows, choices[jj]]
    i = int(np.argmin(_segment_value(nchain, payoff, 1, 0.0, grids[0]) + V))
    policy = np.empty(n)
    policy[0] = grids[0][i]
    for j in range(1, n):
        i = int(choices[j][i])
        policy[j] = grids[j][i]
    return policy


def _bracket_root(fn, target, lo, hi, tol: float = -math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Narrow brackets [lo, hi] of the point where a nondecreasing ``fn`` reaches ``target``.

    fn(lo) < target <= fn(hi) holds throughout (where fn stays below target
    the bracket closes on hi; where it starts at or above, on lo).  Vectorized
    regula falsi, Illinois-weighted, with the midpoint for a step outside the
    bracket.  A bracket stops once its newest end x has |fn(x) - target|
    (hi - lo) <= ``tol``, else at adjacent floats, ``lo`` then being the last
    float before the crossing whatever the steps.  The steps run on the open
    brackets alone, compacted; a bracket goes back into ``lo, hi`` when it stops.

    Two phases share one cap of 100 steps.  While two or more brackets are
    open they step as arrays; the last open one (or one alone from the start)
    steps on Python floats in ``_step_alone``, which skips the per-step array
    calls.  Both apply the same update: IEEE + - * / round alike on floats and
    float64 arrays, halving and scaling by 1.0 are exact, and math.nextafter
    is np.nextafter, so a bracket ends on the same bits in either phase.
    Given no bracket, ``fn`` is not called.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    target = np.broadcast_to(np.asarray(target, dtype=float), lo.shape)
    if lo.size == 0:
        return lo, hi
    with np.errstate(all="ignore"):
        f_lo, f_hi = fn(lo) - target, fn(hi) - target
        lo, hi = np.where(f_hi < 0.0, hi, lo), np.where(f_lo >= 0.0, lo, hi)
        i = np.flatnonzero(lo < hi)
        a, b, fa, fb, t, kept = lo[i], hi[i], f_lo[i], f_hi[i], target[i], np.zeros(i.size)
        steps = 100  # a cap only
        while i.size > 1 and steps > 0:
            steps -= 1
            x = (fb * a - fa * b) / (fb - fa)
            x = np.where((x > a) & (x < b), x, a + 0.5 * (b - a))
            f = fn(x) - t
            up = f >= 0.0
            # Illinois: an end kept twice running (kept: +1 for b, -1 for a) has its value halved.
            fa = np.where(up, np.where(kept < 0, 0.5, 1.0) * fa, f)
            fb = np.where(up, f, np.where(kept > 0, 0.5, 1.0) * fb)
            a, b, kept = np.where(up, a, x), np.where(up, x, b), np.where(up, -1.0, 1.0)
            go = (np.nextafter(a, b) < b) & ~(np.abs(f) * (b - a) <= tol)
            if not go.all():
                lo[i[~go]], hi[i[~go]] = a[~go], b[~go]
                i, a, b, fa, fb, t, kept = i[go], a[go], b[go], fa[go], fb[go], t[go], kept[go]
        if i.size == 1:
            a, b = _step_alone(fn, float(a[0]), float(b[0]), float(fa[0]), float(fb[0]), float(t[0]),
                               float(kept[0]), tol, steps)
        lo[i], hi[i] = a, b
    return lo, hi


def _step_alone(fn, a, b, fa, fb, t, kept, tol, steps) -> tuple[float, float]:
    """``_bracket_root``'s update on one open bracket held in floats, for at most ``steps`` steps."""
    for _ in range(steps):
        den = fb - fa  # 0 where numpy's x/0 or 0/0 sent the step to the midpoint
        x = (fb * a - fa * b) / den if den != 0.0 else math.nan
        if not a < x < b:
            x = a + 0.5 * (b - a)
        f = float(fn(np.array([x]))[0]) - t
        if f >= 0.0:
            fa, fb, b, kept = (0.5 if kept < 0 else 1.0) * fa, f, x, -1.0
        else:
            fa, fb, a, kept = f, (0.5 if kept > 0 else 1.0) * fb, x, 1.0
        if not math.nextafter(a, b) < b or abs(f) * (b - a) <= tol:
            break
    return a, b


@dataclass(frozen=True)
class _PolicyState:
    """Policy objective at ``zeta`` with its gradient and tridiagonal Hessian (diag, off), and its measure:
    the atoms and weights of the n segments and the tail, and which of them carry an atom (``live``)."""

    zeta: np.ndarray
    value: float
    grad: np.ndarray
    diag: np.ndarray
    off: np.ndarray
    atoms: np.ndarray
    weights: np.ndarray
    live: np.ndarray

    @property
    def noise(self) -> float:
        """Rounding level of the objective here: no change or slope within it is real."""
        return _NOISE * (1.0 + abs(self.value))


def _policy_state(nchain, payoff, zeta) -> _PolicyState:
    """The segment kernel on every segment and the tail at once.

    Segment i (weight w, atom chi, tangent T_i at chi) adds w lambda(chi), T_i(k_i)
    to grad[i-1], -T_i(k_{i-1}) to grad[i-2] and lambda''(chi) / w [[A^2, AB],
    [AB, B^2]] to the Hessian, A = chi - k_{i-1}, B = k_i - chi; the tail adds
    its term, -T_{n+1}(k_n) and lambda''(chi_t) (chi_t - k_n)^2 / w_t.  A
    vanishing atom (no atom by ``_has_atom``) takes its one-sided limits,
    chi = k_i as zeta_i rises and chi = k_{i-1} as zeta_{i-1} falls, and adds no
    curvature; a vanishing tail is read at weight ``_MIN_ATOM_WEIGHT``.  One call of
    each payoff function serves all points; the value is ``policy_objective``'s.
    """
    k, n = nchain.k, zeta.size
    prev = np.concatenate(([0.0], zeta[:-1]))
    weights = np.append(zeta - prev, 1.0 - float(zeta[-1]))
    live = _has_atom(weights)
    w, on = weights[:n], live[:n]
    chi = np.where(on, _atom(nchain, np.arange(1, n + 1), prev, zeta), k[1:])
    w_read = max(weights[-1], _MIN_ATOM_WEIGHT)
    atoms = np.append(chi, k[-1] + _tail_constant(nchain) / w_read)
    # Tangent points: the atoms (right ends), the atoms or vanishing limits
    # k_{i-1} (left ends of segments 2..n), the tail atom (its left end k_n).
    x = np.concatenate((chi, np.where(on[1:], chi[1:], k[1:-1]), atoms[-1:]))
    with np.errstate(all="ignore"):
        lam = payoff.value(x)
        tangent = lam + payoff.slope(x) * (np.concatenate((k[1:], k[1:-1], k[-1:])) - x)
        curvature = payoff.curvature(atoms)
        tail = _tail_term(nchain, payoff, weights[-1], lam[-1], live[-1])
        value = float(np.sum(_segment_terms(w, lam[:n], on)) + tail)
        h = np.where(on, curvature[:n] / np.where(on, w, 1.0), 0.0)
        A, B = chi - k[:-1], k[1:] - chi
        diag = h * B * B
        diag[:-1] += (h * A * A)[1:]
        diag[-1] += curvature[-1] * (atoms[-1] - k[-1]) ** 2 / w_read
        off = (h * A * B)[1:]
    return _PolicyState(zeta, value, tangent[:n] - tangent[n:], diag, off, atoms, weights, live)


def _kkt_residual(state: _PolicyState, lo, hi, among=slice(None)) -> float:
    """Largest first-order violation among the weights ``among`` (default all).

    A weight at a bound counts only if pushed inward.
    """
    g, z = state.grad, state.zeta
    viol = np.where(z <= lo, np.minimum(g, 0.0), np.where(z >= hi, np.maximum(g, 0.0), g))
    # An infinite slope is never stationary; _inward_push handles those weights.
    viol = np.where((lo >= hi) | ~np.isfinite(g), 0.0, viol)[among]
    return float(np.max(np.abs(viol), initial=0.0))


def _project(z, lo, hi) -> np.ndarray:
    """Clip onto the boxes, then snap weights within rounding of a bound onto it.

    Rounding leaves weights a few ulps off a bound; unsnapped, the exact
    bound tests in the Newton direction, the first-order residual and the
    atom release do not see them as on it, and the solve can stall short of
    the optimum.  A weight within ``_SNAP`` of a bound moves onto it, save
    the last weight's cap at total mass 1: the tail term has its own limit
    there.  Two weights that straddle their shared bound with no atom
    between them (``_MIN_ATOM_WEIGHT``) both move onto it; a dust atom's
    curvature would grow as 1 / weight, so Newton steps could not close it.
    """
    z = np.clip(z, lo, hi)
    up = hi - z <= _SNAP
    up[-1] = False
    z = np.where(z - lo <= _SNAP, lo, np.where(up, hi, z))
    dust = np.flatnonzero(~_has_atom(np.diff(z)))
    z[dust], z[dust + 1] = hi[dust], lo[dust + 1]
    return z


def _solve_tridiagonal(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric tridiagonal system by LDL^T elimination, O(n).

    Raises ``np.linalg.LinAlgError`` at a pivot that is not positive, as a
    banded Cholesky does: the matrix is then not positive definite.
    """
    d, e, x = diag.tolist(), off.tolist(), rhs.tolist()
    for i in range(len(d)):
        if i:
            ratio = e[i - 1] / d[i - 1]
            d[i] -= ratio * e[i - 1]
            x[i] -= ratio * x[i - 1]
            e[i - 1] = ratio
        if not d[i] > 0.0:
            raise np.linalg.LinAlgError(f"tridiagonal system not positive definite at row {i}")
    x[-1] /= d[-1]
    for i in range(len(d) - 2, -1, -1):
        x[i] = x[i] / d[i] - e[i] * x[i + 1]
    return np.array(x)


def _newton_direction(nchain, payoff, state: _PolicyState, lo, hi) -> np.ndarray:
    """Pinned weights stay; free ones take a Newton step from one tridiagonal solve.

    A weight is pinned at a bound its gradient pushes against.  Diagonal
    entries of at least |g_i| / width_i keep the system positive definite;
    free weights that are not adjacent are uncoupled.  The LDL^T solve takes
    O(n) steps on Python floats.
    """
    g, z = state.grad, state.zeta
    # An affine stretch (no curvature, a slope of rounding): the floor below would throw the weight across its box.
    flat = (state.diag == 0.0) & (np.abs(g) <= state.noise)
    pinned = flat | (lo >= hi) | ((z <= lo) & (g >= 0.0)) | ((z >= hi) & (g <= 0.0))
    idx = np.flatnonzero(~pinned & np.isfinite(g) & (state.diag != np.inf))
    d = np.zeros_like(z)
    if idx.size == 0:
        return d
    # fmax: a curvature of 0/0 (an atom at the origin under a weight that
    # vanishes there, as corridor-up's does) leaves the |g_i| / width_i floor.
    diag = np.fmax(state.diag[idx], np.abs(g[idx]) / (hi[idx] - lo[idx])) * (1.0 + 1e-12) + 1e-300
    off = np.where(np.diff(idx) == 1, state.off[np.minimum(idx[:-1], state.off.size - 1)], 0.0)
    try:
        d[idx] = -_solve_tridiagonal(diag, np.where(np.isfinite(off), off, 0.0), g[idx])
    except np.linalg.LinAlgError:
        # Rounding left the Hessian indefinite; a diagonally scaled gradient
        # step still descends.
        d[idx] = -g[idx] / diag
    return d


def _inward_push(nchain, payoff, state: _PolicyState, lo, hi) -> np.ndarray:
    """Halfway to the far bound for each weight whose slope is infinite (gamma's at 0).

    Never stationarity, but it may hold over a stretch below rounding only,
    so it is tried apart from the Newton step of the other weights.
    """
    g, z = state.grad, state.zeta
    return np.where(g == -np.inf, 0.5 * (hi - z), np.where(g == np.inf, 0.5 * (lo - z), 0.0))


def _vanishing_atom_release(nchain, payoff, state: _PolicyState, lo, hi) -> np.ndarray | None:
    """Joint descent direction that reopens vanishing atoms, or None.

    At zeta_{i-1} = zeta_i = s_i the objective has a kink.  Along
    (-theta, 1 - theta) its slope is lambda(chi) - theta r_a + (1 - theta) r_b,
    chi = k_i - theta dk, with r_a, r_b the gradients of the other terms; the
    coordinate-wise test sees theta = 0 and 1 only.  The slope is convex in
    theta, least where lambda'(chi) = -(r_a + r_b) / dk.
    """
    k, z, g = nchain.k, state.zeta, state.grad
    i = 1 + np.flatnonzero((z[:-1] >= hi[:-1]) & (z[1:] <= lo[1:])
                           & (lo[:-1] < hi[:-1]) & (lo[1:] < hi[1:]))  # zeta_i, 0-based
    if i.size == 0:
        return None
    left, right = k[i], k[i + 1]
    r_a = g[i - 1] + payoff.value(left)
    r_b = g[i] - payoff.value(right)
    target = -(r_a + r_b) / (right - left)
    a = _bracket_root(payoff.slope, target, left, right)[0]
    theta = (right - a) / (right - left)
    slope = payoff.value(a) - theta * r_a + (1.0 - theta) * r_b
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.minimum((z[i - 1] - lo[i - 1]) / theta, (hi[i] - z[i]) / (1.0 - theta))
    opens = (slope < 0.0) & (reach > 0.0)
    if not np.any(opens):
        return None
    d = np.zeros_like(z)
    d[i[opens] - 1] = -(theta * reach)[opens]
    d[i[opens]] = ((1.0 - theta) * reach)[opens]
    return d


def _line_search(nchain, payoff, state: _PolicyState, d, lo, hi, newton=False) -> _PolicyState | None:
    """Armijo backtracking along the projection arc; None when no step helps.

    Only a decrease beyond rounding counts, else steps could trade rounding
    errors forever; a full step within rounding that lowers the first-order
    residual of the weights it moved is accepted too, since the gradient
    still shrinks there.  Weights the step leaves in place (a step below one
    ulp) would otherwise hold the residual up and stall the solve.

    A ``newton`` direction whose full step fails stops there when
    sum |g_i d_i| over the finite slopes is within rounding: the projection
    moves no weight further than alpha |d_i|, so by convexity no shorter
    step lowers the objective by more than that sum.  The bound needs a
    convex objective, which the jump of ``_tail_term`` at
    ``_MIN_ATOM_WEIGHT`` breaks, so the full step is still tried.  It does
    not hold for the other directions: an inward push moves only weights of
    infinite slope, and a release gains from a kink the gradient misses.
    """
    finite = np.isfinite(state.grad)
    noise = state.noise
    at_floor = newton and float(np.sum(np.abs(state.grad[finite] * d[finite]))) <= noise
    alpha = 1.0
    for _ in range(60):
        trial = _project(state.zeta + alpha * d, lo, hi)
        moved = trial - state.zeta
        if not np.any(moved):
            return None
        new = _policy_state(nchain, payoff, trial)
        armijo = state.value + 1e-4 * min(float(np.dot(state.grad[finite], moved[finite])), 0.0)
        if new.value < state.value - noise and new.value <= armijo:
            return new
        if alpha == 1.0 and new.value <= state.value + noise:
            among = moved != 0.0
            if _kkt_residual(new, lo, hi, among) < _kkt_residual(state, lo, hi, among):
                return new
        if at_floor:
            return None
        alpha *= 0.5
    return None


def _projected_newton(nchain, payoff, sets, policy) -> _PolicyState:
    """Minimize the convex policy objective over the boxes A_i; the state at the optimum.

    Projected Newton with active-set release (Bertsekas, SIAM J. Control
    Optim. 20(2), 1982); when no Newton step helps, weights with an infinite
    slope are pushed inward and vanishing atoms reopened before the point is
    accepted as optimal.  At the optimum the Newton step is rounding-wide,
    and its line search does not halve a step whose first-order gain is
    within rounding (``_line_search``): no shorter step can beat rounding.
    The last state evaluated is returned, its measure included.  Solves take a
    few dozen steps at most; one that takes 200 raises :class:`ReconstructionFailure`.
    """
    lo, hi = sets[:, 0], sets[:, 1]
    state = _policy_state(nchain, payoff, _project(policy, lo, hi))
    for _ in range(200):
        for direction in (_newton_direction, _inward_push, _vanishing_atom_release):
            d = direction(nchain, payoff, state, lo, hi)
            newton = direction is _newton_direction
            new = None if d is None else _line_search(nchain, payoff, state, d, lo, hi, newton)
            if new is not None:
                break
        else:
            return state
        state = new
    raise ReconstructionFailure("the policy solve did not converge in 200 Newton steps")


def _effective_grid(grid) -> int:
    """Points per interval of the recursion: the integer ``grid``, at most ``_MAX_GRID``, raised to ``MIN_GRID``."""
    return max(_count("grid", grid, high=_MAX_GRID), MIN_GRID)


def dp_lower_bound(
    nchain: NormalizedChain, payoff: ConvexPayoff, grid: int = DEFAULT_GRID
) -> DualSolution:
    """Lower price bound: the minimum of the convex policy objective over the boxes A_i.

    One backwards recursion over ``grid`` points per interval (at least
    ``MIN_GRID``) gives the warm start; a projected Newton solve on the
    tridiagonal Hessian takes it toward the optimum.  Where it reaches the
    optimum the value does not depend on ``grid`` beyond rounding, but the
    measure can (see the module docstring).  The recursion makes O(n grid^2)
    payoff evaluations.  The value is read off the measure, as the subhedge's cost check
    reads it: its integral plus gamma times any escaped forward mass ``mean_at_infinity``.
    Any consistent chain is solved on its window, where all its mass lies; the
    C1 condition is checked on the chain as given, since on the window it can
    be vacuous.  A window with no interval leaves payoff(1) by Jensen, the
    Dirac at the forward.  Raises :class:`C1Violation` when the bound is
    infinite, and :class:`ReconstructionFailure` when the Newton solve reaches
    its cap of 200 steps.
    """
    sets = feasible_policy_sets(nchain)
    if not check_c1(nchain, payoff):
        raise C1Violation("payoff unbounded at the origin and p_2 <= (k_2/k_1) p_1: the lower bound is infinite")
    g = _effective_grid(grid)
    window = nchain.window
    if window.n < 1:
        return DualSolution(value=payoff.at_one(), measure=AtomicMeasure([1.0], [1.0]))
    grids = np.linspace(sets[:, 0], sets[:, 1], g, axis=1)
    state = _projected_newton(window, payoff, sets, _solve_on_grids(window, payoff, grids))
    measure = _atoms_from_policy(window, state)
    gamma = payoff.asymptotic_slope
    tail_term = gamma * measure.mean_at_infinity if measure.mean_at_infinity > 0.0 else 0.0
    exact = measure.integrate(payoff) + tail_term
    return DualSolution(value=float(exact), measure=measure, policy=state.zeta)


# ---------------------------------------------------------------------------
# verification helpers


def _piece_excess(payoff, a, b, ya, yb) -> tuple[np.ndarray, np.ndarray]:
    """Largest excess of each line from (a, ya) to (b, yb) over the payoff on [a, b], and where.

    Line minus payoff is concave, so its maximum lies at an end or where
    ``payoff.slope`` equals the line's slope: the clipped ``slope_inverse``
    of a built-in payoff, else one root-find for all pieces, from ``value``
    and ``slope`` alone, to within 1e-15 of each maximum.  NaN excess counts
    as infinite.
    """
    with np.errstate(all="ignore"):  # a piece with a == b has no slope and no interior
        m = (yb - ya) / (b - a)
        inner = np.flatnonzero(~(payoff.slope(a) >= m) & (payoff.slope(b) > m))
        x, line = np.column_stack([a, b, a, b]), np.column_stack([ya, yb, ya, yb])
        if payoff.slope_inverse is None:
            x[inner, 2:] = np.column_stack(_bracket_root(payoff.slope, m[inner], a[inner], b[inner], tol=1e-15))
        else:
            x[inner, 2:] = np.clip(payoff.slope_inverse(m[inner]), a[inner], b[inner])[:, None]
        line[inner, 2:] = ya[inner, None] + m[inner, None] * (x[inner, 2:] - a[inner, None])
        excess = np.nan_to_num(line - payoff.value(x), nan=np.inf)
    rows, j = np.arange(m.size), np.argmax(excess, axis=1)
    return excess[rows, j], x[rows, j]


def _worst_excess(portfolio: HedgePortfolio, payoff: ConvexPayoff, lo=0.0, hi=math.inf) -> tuple[float, float]:
    """Largest excess of the portfolio over the payoff on [lo, hi], and where it occurs.

    Exact on each linear piece; with no ``hi``, out to the far-field point
    _FAR k_n, beyond which a tail slope above the asymptotic slope counts as
    infinite excess.
    """
    k = portfolio.strikes
    far = _FAR * (float(k[-1]) if k.size else 1.0)
    if hi == math.inf and portfolio.forward > payoff.asymptotic_slope + 1e-12:
        return math.inf, far
    nodes = np.concatenate(([lo], k[(k > lo) & (k < hi)], [far if hi == math.inf else hi]))
    y = portfolio.payoff(nodes)
    excess, x = _piece_excess(payoff, nodes[:-1], nodes[1:], y[:-1], y[1:])
    j = int(np.argmax(excess))
    return float(excess[j]), float(x[j])


def dominates_below(portfolio: HedgePortfolio, payoff: ConvexPayoff) -> bool:
    """True when the portfolio payoff stays under the target payoff, tail included (exact: ``_worst_excess``)."""
    return _worst_excess(portfolio, payoff)[0] <= _DOMINATION_TOL


# ---------------------------------------------------------------------------
# subhedge reconstruction


def _tail_slope(payoff, kn: float, y: float, cap: float) -> float:
    """Steepest slope, at most ``cap``, of a ray from (k_n, y) that stays under the payoff on [k_n, oo).

    The ray touches where N(x) = payoff'(x)(x - k_n) - payoff(x) + y, which is
    nondecreasing, changes sign; a root-find on [k_n, _FAR k_n] brackets that,
    and the slope at its left end (at most the touching one) less ``_TAIL_MARGIN``
    is returned, or the cap exactly when reached or when, with no touch, its
    ray is under the payoff at the far-field point.
    """

    def touch(x):  # called under the root-find's errstate
        return payoff.slope(x) * (x - kn) - payoff.value(x) + y

    x = float(_bracket_root(touch, 0.0, np.array([kn]), np.array([_FAR * kn]))[0][0])
    slope = float(payoff.slope(x))
    return cap if slope >= cap or y + cap * (x - kn) < payoff.value(x) else slope - _TAIL_MARGIN


def _portfolio_from_nodes(nchain, node_values: np.ndarray, phi: float) -> HedgePortfolio:
    """The hedge through ``node_values`` at the strikes of ``nchain.window``, of slope ``phi`` beyond.

    Its put weights, the slope changes at those strikes, go on the full strike list.
    """
    k = nchain.window.k
    slopes = np.append(np.diff(node_values) / np.diff(k), phi)
    puts = np.zeros(nchain.n)
    puts[nchain.n_min : nchain.n_min + k.size - 1] = slopes[1:] - slopes[:-1]
    cash = node_values[-1] - phi * k[-1]
    return HedgePortfolio(cash=float(cash), forward=float(phi), puts=puts, strikes=nchain.k[1:].copy())


def _tangent_construction(nchain, payoff, measure) -> HedgePortfolio:
    """Strike-node values of the subhedge from the tangents at the measure's atoms.

    A node is forced when an adjacent interval holds an interior atom (that
    atom's tangent there) or an atom sits on it (the payoff there).  A run of
    free nodes keeps the chord between its forced ends where that stays under
    the payoff, checked exactly on its pieces; else each takes the lower
    tangent of the nearest atoms on either side (the tail atom counts), which
    keeps its segments under one tangent line and away from every atom.  A
    segment between forced nodes stays under the payoff at the optimum: for
    a vanishing atom that is the reopening test of ``_vanishing_atom_release``.
    """
    k = nchain.window.k
    atoms = np.sort(measure.atoms[_has_atom(measure.weights)])
    if atoms.size == 0:
        raise ReconstructionFailure("the measure has no atoms")
    touch = atoms.copy()
    with np.errstate(all="ignore"):
        if not np.isfinite(payoff.slope(atoms[0])):
            # An atom at the origin where the slope is infinite (gamma) touches
            # through the tangent at the largest c in (0, k_1] passing within a tenth
            # of the contact tolerance of the payoff at 0: that gap rises from 0 at 0.
            gap = lambda c: np.where(c > 0.0, payoff.value(0.0) - payoff.value(c) + c * payoff.slope(c), 0.0)
            touch[0] = _bracket_root(gap, 0.1 * _CONTACT_TOL, np.array([0.0]), k[1:2])[0][0]
        lam, slope = payoff.value(touch), payoff.slope(touch)

    def tangent(i, j):
        return lam[i] + slope[i] * (k[j] - touch[i])

    # Atom i lies in (k[iv-1], k[iv]]; the tail (iv = n + 1) has the single
    # end k_n, and its NaN width keeps that end forced.  An atom forces both
    # ends, or only the one it sits on to rounding: collinear quotes leave
    # atoms a few ulps off their strike.
    iv = np.clip(np.searchsorted(k, atoms), 1, k.size)
    lo_end, hi_end = iv - 1, np.minimum(iv, k.size - 1)
    width = np.append(np.diff(k), np.nan)[iv - 1]
    by_lo, by_hi = ~(k[hi_end] - atoms <= _ON_STRIKE * width), ~(atoms - k[lo_end] <= _ON_STRIKE * width)
    ends = np.concatenate((lo_end[by_lo], hi_end[by_hi]))
    nodes = np.full(k.size, np.inf)
    np.minimum.at(nodes, ends, tangent(np.concatenate((np.flatnonzero(by_lo), np.flatnonzero(by_hi))), ends))
    cols = np.arange(k.size)
    forced = np.isin(cols, ends)
    # Nearest atom below and above each node; where one side has none, the
    # clipped index picks the other side's nearest again.
    left = np.maximum(np.searchsorted(atoms, k) - 1, 0)
    right = np.minimum(np.searchsorted(atoms, k, side="right"), atoms.size - 1)
    tent = np.minimum(tangent(left, cols), tangent(right, cols))
    # A chord piece with a free end that rises over the payoff sends its run to the tent.
    free = np.flatnonzero(~(forced[:-1] & forced[1:]))
    if free.size:
        chord = np.interp(k, k[forced], nodes[forced])
        excess, _ = _piece_excess(payoff, k[free], k[free + 1], chord[free], chord[free + 1])
        run = np.cumsum(forced)  # the free nodes after each forced node share its count
        over = np.isin(run, run[free[excess > _DOMINATION_TOL]])
        nodes = np.where(forced, nodes, np.where(over, tent, chord))
    if atoms[-1] > k[-1]:  # tail atom: its tangent is the portfolio beyond k_n
        phi = float(slope[-1])
    else:
        # Boundary policy: a flat tail prices the portfolio at the measure
        # integral; where that fails, the steepest admissible slope below 0.
        phi = _tail_slope(payoff, float(k[-1]), float(nodes[-1]), 0.0)
    return _portfolio_from_nodes(nchain, nodes, phi)


def _subhedge_checks(nchain, payoff, measure, portfolio) -> str | None:
    """None when the portfolio passes; else which check failed, and by how much.

    Domination is checked on ``nchain.window``, up to its last strike when
    that caps the support: where the chain's measures can put mass.  The measure has an
    atom: ``_tangent_construction`` raises first when it has none.
    """
    window = nchain.window
    hi = math.inf if _tail_constant(window) > 0.0 else float(window.k[-1])
    excess, x = _worst_excess(portfolio, payoff, float(window.k[0]), hi)
    if not excess <= _DOMINATION_TOL:
        return (f"domination: the hedge exceeds the payoff by {excess:.3g} at x = {x:.6g} "
                f"(tail slope {portfolio.forward:.6g})")
    atoms = measure.atoms[_has_atom(measure.weights)]
    gap = np.nan_to_num(np.abs(portfolio.payoff(atoms) - payoff.value(atoms)), nan=np.inf)
    j = int(np.argmax(gap))
    if gap[j] > _CONTACT_TOL:
        return f"contact: the hedge misses the payoff by {gap[j]:.3g} at the atom {atoms[j]:.6g}"
    cost = portfolio.setup_cost(nchain)
    target = measure.integrate(payoff) + portfolio.forward * measure.mean_at_infinity  # the tail prices m
    ok = abs(cost - target) <= max(_CONTACT_TOL, 1e-10 * abs(target))
    return None if ok else f"cost: setup cost minus measure integral and tail is {cost - target:.3g}"


def reconstruct_subhedge(
    nchain: NormalizedChain, payoff: ConvexPayoff, measure: AtomicMeasure
) -> HedgePortfolio:
    """Piecewise-linear portfolio touching the payoff at every atom from below.

    Built from a measure on ``nchain.window`` alone (see ``_tangent_construction``); beyond the
    last strike it follows the tail atom's tangent, or for boundary policies
    is flat where possible, and where mass escapes to infinity
    (``mean_at_infinity > 0``) ``tighten_tail`` lifts it toward the asymptotic
    slope, since the existence conditions presume the optimal subhedge.  It
    costs the measure integral plus its tail slope times the escaped mean.
    Raises :class:`ReconstructionFailure`, naming the failed check, when the
    portfolio, lifted tail included, misses exact domination, contact or cost.
    """
    portfolio = _tangent_construction(nchain, payoff, measure)
    if measure.mean_at_infinity > 0.0:
        portfolio = tighten_tail(nchain, payoff, portfolio)
    failure = _subhedge_checks(nchain, payoff, measure, portfolio)
    if failure is not None:
        raise ReconstructionFailure(f"tangent subhedge fails {failure}")
    return portfolio


def tighten_tail(nchain: NormalizedChain, payoff: ConvexPayoff, portfolio: HedgePortfolio) -> HedgePortfolio:
    """Add synthetic calls at the last strike to lift the tail slope toward gamma.

    Put-call parity (call = put + forward - k_n cash) leaves the portfolio
    unchanged up to k_n.  The new tail is the steepest ray from its value at
    k_n that stays under the payoff (``_tail_slope``, one solve, capped at
    gamma): gamma exactly when that ray is admissible, else just short of
    its touching point.
    """
    gamma, phi = payoff.asymptotic_slope, portfolio.forward
    if not math.isfinite(gamma) or gamma - phi <= 1e-14:
        return portfolio
    kn = float(nchain.k[-1])
    theta = max(_tail_slope(payoff, kn, float(portfolio.payoff(kn)), gamma) - phi, 0.0)
    puts = np.append(portfolio.puts[:-1], portfolio.puts[-1] + theta)
    return replace(portfolio, cash=portfolio.cash - theta * kn, forward=portfolio.forward + theta, puts=puts)


# ---------------------------------------------------------------------------
# dense-grid LP oracle


def build_lp_grid(nchain: NormalizedChain, payoff: ConvexPayoff, extra=None) -> np.ndarray:
    """Log-spaced constraint grid for the finite LP, strikes and atoms included.

    Payoffs whose tail curvature moment converges approach their asymptote
    slowly, so the grid then reaches much further out; otherwise ten times
    the last strike suffices.  Either multiple applies to at least the unit
    forward: the worst-case tail atom, at k_n + c / w >= 1 + p_n (c the call
    value at k_n, w <= 1 its weight), lies past it however low the chain ends.
    Every strike is a point, the origin too when the window starts there, and
    so is every ``extra`` point at or above the grid's start; twice each must be finite.
    """
    k = nchain.window.k
    lo = float(k[0]) if k[0] > 0.0 else max(k[1] * 1e-3, 1e-4)
    hi = float(k[-1])
    if not math.isfinite(nchain.n_max):
        hi = (10.0 if payoff.tail_curvature_divergent else 500.0) * max(hi, 1.0)
    pieces = [k]
    if payoff.barrier is not None and lo < payoff.barrier < hi:
        pieces.append(np.asarray([payoff.barrier]))
    if extra is not None:
        pts = np.asarray(extra, dtype=float)
        if not np.all(np.abs(pts) <= np.finfo(float).max / 2.0):  # NaN fails too; the grid reaches 2 max(extra)
            raise ValueError("extra grid points must be finite, and so must twice the largest")
        pts = pts[pts >= lo]
        if pts.size:
            hi = max(hi, 2.0 * float(pts.max()))
            pieces.append(pts)
    return np.union1d(np.geomspace(lo, hi, _LP_POINTS), np.concatenate(pieces))


def solve_grid_lp(nchain: NormalizedChain, payoff: ConvexPayoff, x_grid: np.ndarray) -> float:
    """Finite LP: the largest setup cost of a hedge kept under the payoff at ``x_grid``.

    Its hedges are the solver's (``_portfolio_from_nodes``): values y at the strikes
    of ``nchain.window`` and a tail slope phi of at most gamma, priced q.y + c phi at
    the window's implied masses q (0 within EQ_TOL: a node without mass is free) and
    call value c.  Rows are the grid points where mass can lie and the payoff is finite,
    divided by x - k_m past k_m.  A grid that misses a window strike can leave that node
    value free, a finite bound then reported :class:`Unbounded`, so it raises ``ValueError``;
    ``build_lp_grid`` holds every strike.
    """
    from scipy.optimize import linprog  # only the oracle loads scipy

    k, c = nchain.window.k, _tail_constant(nchain.window)
    q = np.diff(np.concatenate(([0.0], nchain.window.slopes, [1.0])))
    q[np.abs(q) <= EQ_TOL] = 0.0
    x = np.asarray(x_grid, dtype=float)
    missing = k[~np.isin(k, x)]
    if missing.size:
        raise ValueError(f"the LP grid misses the window strike {float(missing[0])!r}")
    lam = payoff.value(x)
    keep = np.isfinite(lam) & (x >= k[0]) & ((x <= k[-1]) | (c > 0.0))
    x, lam = x[keep], lam[keep]
    past = np.maximum(x - k[-1], 0.0)
    scale = 1.0 / np.where(past > 0.0, past, 1.0)
    # Hat functions at the strikes (the last one 1 past k_m) and phi's column, empty when capped.
    A = np.column_stack([np.interp(x, k, e) for e in np.eye(k.size)] + [past])
    res = linprog(
        c=-np.append(q, c),
        A_ub=A * scale[:, None],
        b_ub=lam * scale,
        bounds=[(None, None)] * k.size + [(None, payoff.asymptotic_slope)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status == 3:
        raise Unbounded("grid LP unbounded: the lower bound is infinite")
    if res.status != 0:  # any other HiGHS status: infeasible, or a solver limit reached
        raise RuntimeError(f"grid LP failed: {res.message}")
    return float(-res.fun)


def _merge_atoms(nchain: NormalizedChain, atoms: np.ndarray, weights: np.ndarray) -> AtomicMeasure:
    """Replace all atoms within one inter-strike interval by their barycenter, in one pass.

    There is always one: a policy's weights sum to 1, so one of them exceeds ``_MIN_ATOM_WEIGHT``.
    """
    idx = np.searchsorted(nchain.k, atoms, side="right")
    order = np.argsort(idx, kind="stable")
    idx, atoms, weights = idx[order], atoms[order], weights[order]
    starts = np.flatnonzero(np.diff(idx, prepend=-1))
    ends = np.append(starts[1:], idx.size)
    moment = np.add.reduceat(atoms * weights, starts)
    for g in np.flatnonzero(ends - starts > 1):  # shared intervals: the moment as np.dot rounds it
        moment[g] = np.dot(atoms[starts[g] : ends[g]], weights[starts[g] : ends[g]])
    w = np.add.reduceat(weights, starts)
    return AtomicMeasure(moment / w, w)


def grid_lp_oracle(nchain: NormalizedChain, payoff: ConvexPayoff, x_grid: np.ndarray) -> float:
    """Value of the dense-grid LP on ``x_grid`` (see ``build_lp_grid``); the independent primal oracle."""
    return solve_grid_lp(nchain, payoff, x_grid)


def _forward_tangent(nchain: NormalizedChain, payoff: ConvexPayoff) -> HedgePortfolio:
    """The payoff's tangent at the forward, with no puts: the hedge of a support pinned at 1, at cost payoff(1)."""
    slope = float(payoff.slope(1.0))
    return HedgePortfolio(payoff.at_one() - slope, slope, np.zeros(nchain.n), nchain.k[1:].copy())


def lp_lower_bound(
    nchain: NormalizedChain, payoff: ConvexPayoff, grid: int = DEFAULT_GRID
) -> tuple[float, HedgePortfolio, AtomicMeasure]:
    """Lower bound, subhedge and worst-case law of any consistent chain.

    The name is historical: chains with free puts or a capped support once
    went through the grid LP.  The bound and the law are ``dp_lower_bound``'s;
    the hedge is the payoff's tangent at the forward when the window has no
    interval, else ``reconstruct_subhedge``'s, which dominates on the window
    and holds no put outside it.
    """
    solution = dp_lower_bound(nchain, payoff, grid=grid)
    if nchain.window.n < 1:
        return solution.value, _forward_tangent(nchain, payoff), solution.measure
    return solution.value, reconstruct_subhedge(nchain, payoff, solution.measure), solution.measure
