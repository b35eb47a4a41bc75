import math
import tracemalloc

import numpy as np
import pytest

from varbounds import (
    C2Function,
    LocalTimeProfile,
    NonMonotone,
    SampledPath,
    WeightSpec,
    arithmetic_walk,
    build_dyadic_ladder,
    PartitionLadder,
    discrete_local_time,
    follmer_integral,
    geometric_walk,
    ladder_checks,
    make_payoff,
    occupation_density_check,
    quadratic_variation,
    transform_local_time,
    transform_local_times,
    verify_ito,
)
from varbounds import pathwise

SQUARE = C2Function(lambda x: x**2, lambda x: 2.0 * x, lambda x: np.full_like(np.asarray(x, float), 2.0))
NEG_LOG = C2Function(lambda x: -np.log(x), lambda x: -1.0 / x, lambda x: 1.0 / np.square(x))
CUBE = C2Function(lambda x: x**3, lambda x: 3.0 * x**2, lambda x: 6.0 * x)
# The entry points that take a path and a ladder, each returning plain data.
LADDER_ENTRY_POINTS = {
    "verify_ito": lambda path, ladder: verify_ito(path, SQUARE, ladder).tolist(),
    "occupation_density_check": lambda path, ladder: occupation_density_check(path, ladder, (0.9, 1.1)),
    "ladder_checks": ladder_checks,
}


def constant_path(value=2.0, n=64):
    times = np.linspace(0.0, 1.0, n + 1)
    return SampledPath(times, np.full(n + 1, value))


def dense_local_time(path, partition, levels, t=None):
    """Reference: the direct levels x steps sum (small inputs only)."""
    times = path.times[partition]
    x = path.values[partition][: np.searchsorted(times, times[-1] if t is None else t, side="right")]
    left, right, u = x[:-1], x[1:], np.asarray(levels, dtype=float)[:, None]
    inside = (u >= np.minimum(left, right)) & (u <= np.maximum(left, right))
    return 2.0 * np.sum(inside * np.abs(right - u), axis=1)


def searched_sweep(path, partition, levels, t=None):
    """Reference: the sweep with its own level search per partition (no shared lookup)."""
    times = path.times[partition]
    x = path.values[partition][: np.searchsorted(times, times[-1] if t is None else t, side="right")]
    left, right, levels = x[:-1], x[1:], np.asarray(levels, dtype=float)
    order = np.argsort(levels)
    u = levels[order]
    first, last = np.searchsorted(u, x.min(), side="left"), np.searchsorted(u, x.max(), side="right")
    u = u[first:last]
    start = np.searchsorted(u, np.minimum(left, right), side="left")
    stop = np.searchsorted(u, np.maximum(left, right), side="right")
    sgn, bins, at = np.sign(right - left), u.size + 1, np.append(u, 0.0)
    enter = np.bincount(start, sgn * (right - at[start]), bins)
    leave = np.bincount(stop, sgn * (right - at[stop]), bins)
    net = np.cumsum(np.bincount(start, sgn, bins) - np.bincount(stop, sgn, bins))
    drift = np.zeros(u.size)
    drift[1:] = net[:-2] * np.diff(u)
    sorted_values = np.zeros(levels.size)
    sorted_values[first:last] = 2.0 * np.cumsum(enter[:-1] - leave[:-1] - drift)
    values = np.empty_like(levels)
    values[order] = sorted_values
    return values


def _ladder_level_cases():
    """Level grids for the shared-lookup kernel: (name, path, levels, horizon)."""
    rng = np.random.default_rng(909)
    for name, path in (
        ("geometric", geometric_walk(41, n_steps=2048)),
        ("arithmetic", arithmetic_walk(42, n_steps=2048)),
    ):
        lo, hi = path.values.min(), path.values.max()
        base = np.linspace(lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo), 301)
        on_path = np.concatenate((base, path.values[::37], [lo, hi]))
        yield f"{name}-unsorted", path, rng.permutation(on_path), None
        duplicated = np.concatenate((on_path, on_path[::3], [lo, lo, hi]))
        yield f"{name}-duplicated", path, rng.permutation(duplicated), None
        not_finite = np.concatenate((on_path, [np.nan, np.nan, np.inf, -np.inf]))
        yield f"{name}-nan", path, rng.permutation(not_finite), None
        yield f"{name}-mid-horizon", path, rng.permutation(on_path), path.times[1024]


LADDER_LEVEL_CASES = list(_ladder_level_cases())


def _walk_cases():
    rng = np.random.default_rng(2018)
    for name, path in (
        ("geometric", geometric_walk(31, n_steps=4096)),
        ("arithmetic", arithmetic_walk(32, n_steps=4096)),
    ):
        full = np.arange(path.times.size)
        lo, hi = path.values.min(), path.values.max()
        base = np.linspace(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 257)
        on_path = np.concatenate((base, rng.choice(path.values, 64), [lo, hi]))
        yield f"{name}-sorted", path, full, base, None
        yield f"{name}-descending", path, full, base[::-1], None
        yield f"{name}-shuffled", path, full, rng.permutation(base), None
        yield f"{name}-on-path-values", path, full, rng.permutation(on_path), None
        yield f"{name}-coarse-horizon", path, full[::8], on_path, path.times[1024]
        yield f"{name}-start-horizon", path, full, base, path.times[0]
    path = constant_path()
    yield "constant", path, np.arange(path.times.size), np.array([1.5, 2.0, 2.5, 2.0]), None
    path = SampledPath(np.array([0.0, 1.0]), np.array([0.3, -0.2]))
    yield "single-step", path, np.array([0, 1]), np.array([0.4, 0.3, -0.2, 0.05, -0.5]), None


WALK_CASES = list(_walk_cases())


class TestLadder:
    def test_dyadic_structure(self):
        path = geometric_walk(0, n_steps=256)
        ladder = build_dyadic_ladder(path, 4)
        assert ladder.depth == 4
        assert len(ladder.partitions[-1]) == 257
        meshes = ladder.meshes
        assert np.all(np.diff(meshes) < 0)
        for coarse, fine in zip(ladder.partitions, ladder.partitions[1:]):
            assert np.all(np.isin(coarse, fine))

    def test_too_shallow(self):
        path = geometric_walk(0, n_steps=256)
        with pytest.raises(ValueError, match="depth must be at least 2"):
            build_dyadic_ladder(path, 1)

    def test_indivisible_steps(self):
        path = geometric_walk(0, n_steps=100)
        with pytest.raises(ValueError):
            build_dyadic_ladder(path, 6)

    def test_a_depth_past_the_path_is_refused_before_its_power_is_built(self):
        # 2 ** (10 ** 8 - 1) alone is a 12.5 MB integer, about half a second to build.
        path = geometric_walk(0, n_steps=64)
        assert build_dyadic_ladder(path, 7).depth == 7  # 2 ** 6 = 64 steps: the deepest ladder
        with pytest.raises(ValueError, match="does not support a depth-8 dyadic ladder"):
            build_dyadic_ladder(path, 8)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="does not support a depth-100000000 dyadic ladder"):
                build_dyadic_ladder(path, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "partitions, message",
        [
            ([], "at least one"),
            ([np.arange(0, 17, 2)], "full grid"),
            ([np.arange(0, 17, 4), np.arange(16)], "full grid"),
            ([np.arange(0, 17, 2), np.arange(0, 17, 4), np.arange(17)], "decrease"),
            ([np.array([0, 4, 8, 12, 16]), np.array([0, 3, 6, 9, 12, 14, 16]), np.arange(17)], "nested"),
            ([np.array([0, 5, 16]), np.arange(0, 17, 2), np.arange(17)], "nested"),
            ([np.array([0, 2, 1, *range(3, 17)])], "strictly increasing"),
            ([np.array([0, 16, 8]), np.arange(17)], "strictly increasing"),
            ([np.array([0, 8, 8, 16]), np.arange(17)], "strictly increasing"),
            ([np.array([0, 17]), np.arange(17)], "strictly increasing"),
            ([np.array([0, 4, -1]), np.arange(17)], "strictly increasing"),
            ([np.array([0, 3.7, 16]), np.arange(17)], "integer"),
            ([np.array([0, 4.9, 16]), np.arange(17)], "integer"),
            ([np.arange(17.0)], "integer"),
            ([np.array([0]), np.arange(17)], "at least two"),
            ([np.array([[0, 16]]), np.arange(17)], "1-d"),
            # the outer levels nest, the middle pair does not: 4 and 12 leave at the third level
            ([np.array([0, 8, 16]), np.arange(0, 17, 4), np.array([0, 2, 3, 6, 8, 10, 11, 14, 16]), np.arange(17)],
             "nested"),
        ],
    )
    def test_invalid_ladders_rejected(self, partitions, message):
        path = geometric_walk(0, n_steps=16)
        with pytest.raises(ValueError, match=message):
            PartitionLadder(path, partitions)

    # A 64-step path, or one of 128 steps at other times, against a ladder built on a 128-step walk.
    @pytest.mark.parametrize("other", [dict(n_steps=64), dict(n_steps=128, maturity=2.0)], ids=["steps", "times"])
    @pytest.mark.parametrize("entry", LADDER_ENTRY_POINTS.values(), ids=LADDER_ENTRY_POINTS.keys())
    def test_a_ladder_on_another_time_grid_is_rejected(self, entry, other):
        ladder = build_dyadic_ladder(geometric_walk(0, n_steps=128), 4)
        with pytest.raises(ValueError, match="ladder must be built on the path's time grid"):
            entry(geometric_walk(1, **other), ladder)

    @pytest.mark.parametrize("entry", LADDER_ENTRY_POINTS.values(), ids=LADDER_ENTRY_POINTS.keys())
    def test_a_ladder_fits_any_path_on_its_time_grid(self, entry):
        path = geometric_walk(1, n_steps=128)
        borrowed = build_dyadic_ladder(geometric_walk(0, n_steps=128), 4)
        assert entry(path, borrowed) == entry(path, build_dyadic_ladder(path, 4))


class TestQuadraticVariation:
    def test_constant_path(self):
        path = constant_path()
        part = np.arange(path.times.size)
        assert quadratic_variation(path, part)[-1] == 0.0

    def test_linear_path_vanishes_with_refinement(self):
        c, K = 1.7, 128
        times = np.linspace(0.0, 1.0, K + 1)
        path = SampledPath(times, c * times)
        part = np.arange(K + 1)
        assert quadratic_variation(path, part)[-1] == pytest.approx(c**2 / K, abs=1e-14)

    def test_symmetric_walk_exact(self):
        path = arithmetic_walk(5, n_steps=2048, maturity=1.0)
        part = np.arange(path.times.size)
        assert quadratic_variation(path, part)[-1] == pytest.approx(1.0, abs=1e-10)

    def test_additivity(self):
        path = arithmetic_walk(6, n_steps=512)
        part = np.arange(0, 513, 4)
        qv = quadratic_variation(path, part)
        split = len(part) // 2
        x = path.values[part]
        tail = np.sum(np.square(np.diff(x[split:])))
        assert qv[-1] == pytest.approx(qv[split] + tail, abs=1e-15)


class TestLocalTime:
    def test_constant_path_zero(self):
        path = constant_path()
        part = np.arange(path.times.size)
        profile = discrete_local_time(path, part)
        assert np.all(profile.values == 0.0)

    def test_single_step(self):
        path = SampledPath(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        part = np.array([0, 1])
        profile = discrete_local_time(path, part, levels=np.array([0.25]))
        assert profile.values[0] == pytest.approx(2.0 * 0.75)

    def test_zero_outside_range(self):
        path = geometric_walk(3, n_steps=512)
        part = np.arange(path.times.size)
        pad = 0.5
        levels = np.linspace(path.values.min() - pad, path.values.max() + pad, 301)
        profile = discrete_local_time(path, part, levels=levels)
        outside = (levels < path.values.min()) | (levels > path.values.max())
        assert np.all(profile.values[outside] == 0.0)

    def test_l2_distance_needs_one_level_grid(self):
        ones = np.ones(2)
        profile = LocalTimeProfile(np.array([0.0, 1.0]), ones, 1.0)
        assert profile.l2_distance(LocalTimeProfile(np.array([0.0, 1.0]), ones, 1.0)) == 0.0
        for levels in (np.array([0.0, 2.0]), np.array([0.0, 1.0, 2.0])):
            with pytest.raises(ValueError, match="level grids must match"):
                profile.l2_distance(LocalTimeProfile(levels, np.ones(levels.size), 1.0))

    def test_integrals_run_in_level_order(self):
        # Levels may come in any order and values come back in that order; the
        # integrals must not follow it.  Integrating 1 gives the quadratic variation.
        path = geometric_walk(3, n_steps=4096)
        part = np.arange(path.times.size)
        levels = np.linspace(path.values.min(), path.values.max(), 301)
        shuffled = np.random.default_rng(0).permutation(levels)
        one = lambda x: np.ones_like(x)
        fine, coarse = (discrete_local_time(path, p, levels=levels) for p in (part, part[::2]))
        fine_s, coarse_s = (discrete_local_time(path, p, levels=shuffled) for p in (part, part[::2]))
        assert fine.integrate_against(one) == pytest.approx(quadratic_variation(path, part)[-1], rel=0.05)
        assert fine_s.integrate_against(one) == pytest.approx(fine.integrate_against(one), rel=1e-12)
        assert fine_s.l2_distance(coarse_s) == pytest.approx(fine.l2_distance(coarse), rel=1e-12)

    def test_profiles_stabilize_along_ladder(self):
        path = geometric_walk(11, n_steps=4096)
        ladder = build_dyadic_ladder(path, 6)
        profiles = [discrete_local_time(path, p) for p in ladder.partitions]
        dists = [profiles[i].l2_distance(profiles[i + 2]) for i in range(len(profiles) - 2)]
        assert dists[-1] < dists[0]

    @pytest.mark.parametrize(
        "path, partition, levels, t", [case[1:] for case in WALK_CASES], ids=[case[0] for case in WALK_CASES]
    )
    def test_matches_dense_sum(self, path, partition, levels, t):
        profile = discrete_local_time(path, partition, t=t, levels=levels)
        reference = dense_local_time(path, partition, levels, t)
        np.testing.assert_array_equal(profile.levels, levels)
        scale = float(np.max(np.abs(reference)))
        assert np.all(np.abs(profile.values - reference) <= 1e-10 * scale)
        times = path.times[partition]
        seen = path.values[partition][times <= (times[-1] if t is None else t)]
        outside = (levels < seen.min()) | (levels > seen.max())
        assert np.all(profile.values[outside] == 0.0)

    def test_tent_ties_exact(self):
        path = SampledPath(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
        profile = discrete_local_time(path, np.arange(3), levels=np.array([0.0, 0.5, 1.0]))
        np.testing.assert_array_equal(profile.values, [2.0, 2.0, 2.0])

    def test_bounded_memory_at_a_million_steps(self):
        # The dense levels x steps sum needs more than 4 GB here.
        path = geometric_walk(3, n_steps=2**20)
        lo, hi = path.values.min(), path.values.max()
        tracemalloc.start()
        try:
            profile = discrete_local_time(path, np.arange(path.times.size))
            ladder = build_dyadic_ladder(path, 2)
            lhs, rhs = occupation_density_check(path, ladder, (lo + (hi - lo) / 3, hi - (hi - lo) / 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160e6
        assert profile.values.max() > 0.0
        assert abs(lhs - rhs) / rhs < 0.05

    @pytest.mark.parametrize(
        "path, levels, t",
        [case[1:] for case in LADDER_LEVEL_CASES],
        ids=[case[0] for case in LADDER_LEVEL_CASES],
    )
    def test_shared_lookup_matches_per_partition_calls(self, path, levels, t):
        # The ladder kernel bins each sample once; every profile must equal,
        # bit for bit, both the one-partition call and a sweep that searches
        # the levels afresh for each partition.
        ladder = build_dyadic_ladder(path, 8)
        end = path.times.size if t is None else int(np.searchsorted(path.times, t, side="right"))
        parts = [p[p < end] for p in ladder.partitions]
        shared = pathwise._local_times(path.values, parts, levels)
        for part, values in zip(ladder.partitions, shared):
            np.testing.assert_array_equal(values, discrete_local_time(path, part, t=t, levels=levels).values)
            np.testing.assert_array_equal(values, searched_sweep(path, part, levels, t))

    @pytest.mark.parametrize("n_levels", [255, 256, 70_000])
    def test_bin_numbers_fit_every_level_count(self, n_levels):
        # Bins are half-level positions in np.intp, up to twice the level count
        # plus one; the counts straddle the one- and two-byte ranges, where a
        # narrower index type would wrap.  The path runs past the top level, so
        # the largest bin number occurs.
        path = geometric_walk(43, n_steps=2048)
        lo, hi = path.values.min(), path.values.max()
        inner = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), n_levels - 40)
        levels = np.concatenate((inner, path.values[:: 2048 // 40][:40]))
        assert np.unique(levels).size == n_levels
        ladder = build_dyadic_ladder(path, 6)
        shared = pathwise._local_times(path.values, ladder.partitions, levels)
        for part, values in zip(ladder.partitions, shared):
            np.testing.assert_array_equal(values, searched_sweep(path, part, levels))

    def test_irregular_partitions_match_per_partition_sweeps(self):
        # Partitions of no regular stride, with and without one that visits
        # every sample: the ladder bins the whole path either way.
        path = arithmetic_walk(46, n_steps=1024)
        rng = np.random.default_rng(46)
        fine = np.arange(path.times.size)
        mid = np.union1d(rng.choice(fine, 300, replace=False), [0, 1024])
        coarse = np.union1d(rng.choice(mid, 40, replace=False), [0, 1024])
        levels = np.linspace(path.values.min(), path.values.max(), 200)
        for parts in ([coarse, mid, fine], [coarse, mid]):
            for part, values in zip(parts, pathwise._local_times(path.values, parts, levels)):
                np.testing.assert_array_equal(values, searched_sweep(path, part, levels))

    def test_profile_does_not_depend_on_the_time_unit(self):
        # Times 0..64 and 0..64000: from t = 16384 on, t + 1e-12 rounds to t,
        # so the partition time must be found with the tolerance that accepts it.
        values = geometric_walk(3, n_steps=64).values
        path, scaled = SampledPath(np.arange(65.0), values), SampledPath(1000.0 * np.arange(65.0), values)
        part = np.arange(0, 65, 2)
        for t in (None, 32.0, 64.0):
            base = discrete_local_time(path, part, t=t)
            profile = discrete_local_time(scaled, part, t=None if t is None else 1000.0 * t)
            np.testing.assert_array_equal(profile.levels, base.levels)
            np.testing.assert_array_equal(profile.values, base.values)
            assert profile.time == 1000.0 * base.time

    @pytest.mark.parametrize(
        "partition, message",
        [([0, 2, 1, 3, 4], "strictly increasing"), ([0, 4, 2], "strictly increasing"),
         ([0, 2, 2, 4], "strictly increasing"), ([0, 8, 4], "strictly increasing"),
         ([0, 9], "strictly increasing"), ([0, 4, -1], "strictly increasing"), ([0, 3.7, 8], "integer"),
         ([0, 4.9, 8], "integer"), ([0], "at least two"), ([[0, 8]], "1-d")],
        ids=["permuted", "backward", "duplicated", "backward-end", "out-of-range", "negative", "float",
             "float-4.9", "one-index", "2-d"],
    )
    def test_partition_must_increase(self, partition, message):
        # Every entry point that takes one partition applies the same rule.
        path = geometric_walk(3, n_steps=8)
        for call in (discrete_local_time, quadratic_variation, lambda p, q: follmer_integral(p, lambda x: x, q)):
            with pytest.raises(ValueError, match=message):
                call(path, np.array(partition))

    @pytest.mark.parametrize("n_levels", [0, -1])
    def test_needs_a_level(self, n_levels):
        with pytest.raises(ValueError, match="n_levels"):
            discrete_local_time(geometric_walk(3, n_steps=8), np.arange(9), n_levels=n_levels)

    def test_t_must_be_partition_time(self):
        path = geometric_walk(3, n_steps=64)
        part = np.arange(0, 65, 8)
        with pytest.raises(ValueError):
            discrete_local_time(path, part, t=path.times[3])

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_t_must_be_finite(self, t):
        # NaN and inf slip through the tolerance test, which would return the full profile
        with pytest.raises(ValueError, match="t must be finite"):
            discrete_local_time(geometric_walk(3, n_steps=8), np.arange(9), t=t)


def _bin_cases():
    """(name, levels, samples) for the level binning; levels may repeat and come unsorted."""
    rng = np.random.default_rng(77)
    walk = geometric_walk(44, n_steps=4096).values
    lo, hi = walk.min(), walk.max()
    even = np.linspace(lo, hi, 512)
    yield "evenly-spaced", even, walk
    yield "geometric", np.geomspace(1e-3, 1e3, 512), np.concatenate((walk, rng.uniform(-5.0, 1e3, 2000)))
    cluster = 1.0 + np.linspace(0.0, 1e-9, 300)  # 300 of 302 levels in the first of 302 cells
    yield "clustered", np.concatenate((cluster, [0.5, 2.0])), np.concatenate(
        (cluster, rng.uniform(1.0, 1.0 + 1e-9, 500), rng.uniform(0.0, 3.0, 500)))
    on = rng.permutation(np.concatenate((even[::7], walk[::97])))
    ulps = np.concatenate((on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf)))
    yield "on-and-one-ulp-off", on, rng.permutation(ulps)
    outside = np.array([lo - 1.0, hi + 1.0, lo - 1e-300, -1e308, 1e308, -np.finfo(float).max, np.finfo(float).max])
    yield "outside", even[100:200], np.concatenate((outside, walk))
    yield "nan-and-inf", rng.permutation(np.concatenate((even, [np.nan, np.nan, np.inf, -np.inf]))), np.concatenate(
        (walk, outside, even))
    yield "single", np.array([1.1]), np.concatenate((walk, [1.1, np.nextafter(1.1, 0.0), np.nextafter(1.1, 2.0)]))
    yield "single-finite-and-inf", np.array([-np.inf, 1.1, np.inf, np.nan]), np.concatenate((walk, [1.1]))
    yield "no-finite", np.array([np.nan, np.inf, -np.inf]), walk
    yield "only-nan", np.array([np.nan]), walk
    yield "span-overflows", np.array([-1e308, 0.0, 1e308]), np.concatenate((outside, [0.0, 5e-324, -5e-324]))
    yield "span-underflows", np.array([0.0, 5e-324, 1e-323]), np.array([-1.0, 0.0, 5e-324, 7e-324, 1e-323, 1.0])
    yield "duplicated", rng.choice(even[::16], 200), walk


BIN_CASES = list(_bin_cases())


class TestLevelBins:
    @pytest.mark.parametrize("levels, x", [case[1:] for case in BIN_CASES], ids=[case[0] for case in BIN_CASES])
    def test_matches_searchsorted(self, levels, x):
        # Half-level positions: halved, the first level >= x; plus one and halved, the first > x.
        u = np.unique(levels)
        pos = pathwise._level_bins(u, x)
        np.testing.assert_array_equal(pos // 2, np.searchsorted(u, x, side="left"))
        np.testing.assert_array_equal((pos + 1) // 2, np.searchsorted(u, x, side="right"))

    def test_work_buffers_do_not_change_the_bins(self):
        u = np.unique(np.geomspace(1e-3, 1e3, 512))
        x = geometric_walk(45, n_steps=1024, sigma=3.0).values
        idx, at = np.full(2000, -7, dtype=np.intp), np.full(2000, np.nan)
        np.testing.assert_array_equal(pathwise._level_bins(u, x, idx, at), pathwise._level_bins(u, x))


class TestFollmerIntegral:
    def test_unit_integrand_telescopes(self):
        path = arithmetic_walk(9, n_steps=256)
        part = np.arange(0, 257, 2)
        value = follmer_integral(path, lambda x: np.ones_like(x), part)
        assert value == pytest.approx(path.values[-1] - path.values[0], abs=1e-14)

    def test_square_identity_any_partition(self):
        path = arithmetic_walk(10, n_steps=512, start=3.0)
        for step in (1, 4, 32):
            part = np.arange(0, 513, step)
            qv = quadratic_variation(path, part)[-1]
            val = follmer_integral(path, lambda x: 2.0 * x, part)
            target = path.values[-1] ** 2 - path.values[0] ** 2 - qv
            assert val == pytest.approx(target, abs=1e-11)

    def test_reciprocal_integrand_stabilizes(self):
        path = geometric_walk(21, n_steps=4096)
        ladder = build_dyadic_ladder(path, 6)
        v5 = follmer_integral(path, lambda x: 1.0 / x, ladder.partitions[-2])
        v6 = follmer_integral(path, lambda x: 1.0 / x, ladder.partitions[-1])
        assert abs(v6 - v5) < 1e-3


class TestVerifyIto:
    def test_square_machine_precision(self):
        for seed in range(5):
            path = geometric_walk(seed, n_steps=2048)
            ladder = build_dyadic_ladder(path, 6)
            residuals = verify_ito(path, SQUARE, ladder)
            assert np.all(residuals <= 1e-12)

    def test_neg_log_residuals_decrease(self):
        path = geometric_walk(42, n_steps=2048)
        ladder = build_dyadic_ladder(path, 6)
        residuals = verify_ito(path, NEG_LOG, ladder)
        assert np.all(np.diff(residuals[-3:]) < 0.0)

    def test_corridor_local_time_mode_close_to_c2_benchmark(self):
        payoff = make_payoff(WeightSpec.corridor_up(1.0))
        path = geometric_walk(7, n_steps=4096)
        ladder = build_dyadic_ladder(path, 6)
        corridor = verify_ito(path, payoff, ladder)  # auto local-time mode
        benchmark = verify_ito(path, CUBE, ladder)
        assert corridor[-1] < 10.0 * benchmark[-1]

    def test_custom_payoff_without_weight_matches_its_analytic_weight(self):
        # The weight from a central difference of the slope stands in for 2/x.
        value, slope = lambda x: 1.0 / x + 0.1 * x, lambda x: -1.0 / np.square(x) + 0.1
        limits = dict(origin_value=math.inf, asymptotic_slope=0.1, tail_curvature_divergent=False)
        without = make_payoff(WeightSpec.custom(value, slope, **limits))
        analytic = make_payoff(WeightSpec.custom(value, slope, lambda x: 2.0 / x, **limits))
        for seed in range(20):
            path = geometric_walk(seed, n_steps=8192)
            ladder = build_dyadic_ladder(path, 8)
            residuals = verify_ito(path, without, ladder)
            assert np.all(np.isfinite(residuals))
            np.testing.assert_allclose(residuals, verify_ito(path, analytic, ladder), rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("f", [SQUARE, NEG_LOG, make_payoff(WeightSpec.vanilla())],
                             ids=["square", "neg-log", "vanilla"])
    @pytest.mark.parametrize("seed, n_steps, depth", [(3, 4096, 7), (58, 2048, 9)])
    def test_riemann_mode_matches_reference_sum(self, f, seed, n_steps, depth):
        # |f(X_T) - f(X_0) - sum f'(x_j) dx_j - 0.5 sum f''(x_j) dx_j^2|, summed here, bit for bit.
        path = geometric_walk(seed, n_steps=n_steps)
        ladder = build_dyadic_ladder(path, depth)
        value, deriv, second, mode = pathwise._as_test_function(f)
        assert mode == "riemann"
        total = float(value(path.values[-1])) - float(value(path.values[0]))
        expected = []
        for part in ladder.partitions:
            x = path.values[part]
            dx = np.diff(x)
            ito = float(np.sum(np.asarray(deriv(x[:-1])) * dx))
            assert follmer_integral(path, deriv, part) == ito
            curv = float(np.sum(np.asarray(second(x[:-1])) * np.square(dx)))
            expected.append(abs(total - ito - 0.5 * curv))
        assert verify_ito(path, f, ladder).tolist() == expected

    @pytest.mark.parametrize("f", [make_payoff(WeightSpec.corridor_up(1.0))], ids=["corridor"])
    def test_local_time_mode_matches_per_partition_profiles(self, f):
        # The ladder's shared lookup gives each partition its own profile.
        path = geometric_walk(7, n_steps=2048)
        ladder = build_dyadic_ladder(path, 6)
        value, deriv, second, _ = pathwise._as_test_function(f)
        total = float(value(path.values[-1])) - float(value(path.values[0]))
        expected = [
            abs(total - follmer_integral(path, deriv, part)
                - 0.5 * discrete_local_time(path, part).integrate_against(second))
            for part in ladder.partitions
        ]
        assert verify_ito(path, f, ladder).tolist() == expected


class TestOccupationDensity:
    def test_disjoint_interval(self):
        path = geometric_walk(2, n_steps=1024)
        ladder = build_dyadic_ladder(path, 5)
        hi = path.values.max()
        lhs, rhs = occupation_density_check(path, ladder, (hi + 1.0, hi + 2.0))
        assert lhs == 0.0 and rhs == 0.0

    def test_covering_interval_recovers_quadratic_variation(self):
        path = geometric_walk(4, n_steps=4096)
        ladder = build_dyadic_ladder(path, 6)
        lo, hi = path.values.min(), path.values.max()
        lhs, rhs = occupation_density_check(path, ladder, (lo - 0.1, hi + 0.1))
        qv = quadratic_variation(path, ladder.partitions[-1])[-1]
        assert rhs == pytest.approx(qv, abs=1e-14)
        assert lhs == pytest.approx(qv, rel=0.02)

    def test_middle_third(self):
        path = geometric_walk(8, n_steps=4096)
        ladder = build_dyadic_ladder(path, 6)
        lo, hi = path.values.min(), path.values.max()
        third = (hi - lo) / 3.0
        lhs, rhs = occupation_density_check(path, ladder, (lo + third, hi - third))
        assert abs(lhs - rhs) / rhs < 0.05


class TestTransformLocalTime:
    def test_identity_zero(self):
        path = geometric_walk(5, n_steps=1024)
        part = np.arange(path.times.size)
        d = transform_local_time(path, lambda x: x, lambda x: np.ones_like(x), lambda v: v, part)
        assert d == 0.0

    def test_doubling_exact_scaling(self):
        path = geometric_walk(6, n_steps=1024)
        part = np.arange(path.times.size)
        d = transform_local_time(
            path, lambda x: 2.0 * x, lambda x: np.full_like(x, 2.0), lambda v: v / 2.0, part
        )
        assert d < 1e-10

    def test_decreasing_map_exact_scaling(self):
        # f_inverse(vgrid) runs backwards here, so the kernel gets descending levels.
        path = geometric_walk(6, n_steps=1024)
        part = np.arange(path.times.size)
        d = transform_local_time(path, lambda x: -x, lambda x: np.full_like(x, -1.0), lambda v: -v, part)
        assert d < 1e-10

    def test_log_transform_discrepancy_halves(self):
        path = geometric_walk(15, n_steps=4096)
        ladder = build_dyadic_ladder(path, 6)
        d4 = transform_local_time(path, np.log, lambda x: 1.0 / x, np.exp, ladder.partitions[3])
        d6 = transform_local_time(path, np.log, lambda x: 1.0 / x, np.exp, ladder.partitions[5])
        assert d6 <= 0.5 * d4

    def test_ladder_matches_per_partition_calls(self):
        for path in (geometric_walk(15, n_steps=4096), geometric_walk(16, n_steps=4096, drift=-0.5)):
            ladder = build_dyadic_ladder(path, 9)
            for f, fp, fi in (
                (np.log, lambda x: 1.0 / x, np.exp),
                (lambda x: -2.0 * x, lambda x: np.full_like(x, -2.0), lambda v: -0.5 * v),
            ):
                shared = transform_local_times(path, f, fp, fi, ladder.partitions)
                assert shared == [transform_local_time(path, f, fp, fi, p) for p in ladder.partitions]

    @pytest.mark.parametrize(
        "partition, message",
        [([0, 32, 16, 64], "strictly increasing"), ([0, 16, 16, 64], "strictly increasing"),
         ([0, 65], "strictly increasing"), ([0, 32, -1], "strictly increasing"), ([0, 3.7, 64], "integer"),
         ([0], "at least two"), ([[0, 64]], "1-d")],
        ids=["backward", "duplicated", "out-of-range", "negative", "float", "one-index", "2-d"],
    )
    def test_partition_must_increase(self, partition, message):
        path = geometric_walk(3, n_steps=64)
        with pytest.raises(ValueError, match=message):
            transform_local_times(path, np.log, lambda x: 1.0 / x, np.exp, [np.arange(65), np.array(partition)])
        with pytest.raises(ValueError, match=message):
            transform_local_time(path, np.log, lambda x: 1.0 / x, np.exp, np.array(partition))

    def test_non_monotone_rejected(self):
        path = geometric_walk(5, n_steps=256)
        part = np.arange(path.times.size)
        with pytest.raises(NonMonotone):
            transform_local_time(
                path, lambda x: (x - 1.5) ** 2, lambda x: 2.0 * (x - 1.5), lambda v: v, part
            )


class TestPathValidation:
    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            SampledPath(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]))

    def test_values_finite(self):
        with pytest.raises(ValueError):
            SampledPath(np.array([0.0, 1.0]), np.array([1.0, math.inf]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_times_finite(self, bad):
        with pytest.raises(ValueError, match="path times must be finite"):
            SampledPath(np.array([0.0, 1.0, bad]), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("walk", [geometric_walk, arithmetic_walk])
    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_walks_need_a_step(self, walk, n_steps):
        with pytest.raises(ValueError, match="n_steps must be at least 1"):
            walk(1, n_steps=n_steps)

    def test_generators_deterministic(self):
        a = geometric_walk(123, n_steps=64)
        b = geometric_walk(123, n_steps=64)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.strictly_positive
