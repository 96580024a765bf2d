"""Property-based invariants.

Scalar sequences are drawn from the grid {0, 1/4, 1/2, 3/4, 1} so that all
pairwise distances are exact binary fractions: comparisons against grid
epsilons are then exact and the brute-force oracles must agree bit-for-bit
with the library, not merely up to tolerance.
"""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ergolab import (
    AverageTrajectory,
    ConvergenceRateResult,
    CyclicShift,
    DenseMatrix,
    RotationProduct,
    SeqFunction,
    Vector,
    batch_norm_p,
    conditional_expectation,
    count_fluctuations,
    empirical_convergence_rate,
    ergodic_averages,
    fluctuation_in_dyadic_interval,
    g_double,
    g_next_power_of_two,
    g_successor,
    lpb_norm,
    martingale_differences,
    max_p_variation,
    metastability_from_fluctuations,
    metastability_rate,
    HorizonExhaustedError,
)

from ergolab import _scan
from oracles import brute_force_fluctuations, brute_force_p_variation, ref_max_p_variation, ref_orbit

grid_values = st.lists(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=8
)
grid_eps = st.sampled_from([0.25, 0.5, 0.75, 1.0])
finite_floats = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def _vec(values, p):
    return Vector(np.asarray(values, dtype=np.complex128), p=p)


class TestNormProperties:
    @given(
        st.lists(finite_floats, min_size=1, max_size=6),
        st.lists(finite_floats, min_size=1, max_size=6),
        st.sampled_from([1.0, 2.0, 3.0]),
        finite_floats,
    )
    def test_homogeneity_and_triangle(self, re, im, p, c):
        n = min(len(re), len(im))
        x = _vec(np.array(re[:n]) + 1j * np.array(im[:n]), p)
        y = _vec(np.array(im[:n]) + 1j * np.array(re[:n]), p)
        assert _vec(c * x.components, p).norm() == pytest.approx(abs(c) * x.norm(), rel=1e-12, abs=1e-12)
        assert _vec(x.components + y.components, p).norm() <= x.norm() + y.norm() + 1e-12


class TestScannersAgainstBruteForce:
    @given(grid_values, grid_eps)
    def test_greedy_count_exact(self, vals, eps):
        assert count_fluctuations(np.array(vals), eps).count == \
            brute_force_fluctuations(vals, eps)

    @given(grid_values, st.sampled_from([1.0, 2.0, 3.0]))
    def test_variation_dp_exact(self, vals, q):
        got, witness = max_p_variation(np.array(vals), q)
        want, _ = brute_force_p_variation(vals, q)
        assert got == pytest.approx(want, abs=1e-12)

    @given(grid_values, grid_eps, grid_eps)
    def test_count_nonincreasing_in_eps(self, vals, e1, e2):
        lo, hi = min(e1, e2), max(e1, e2)
        arr = np.array(vals)
        assert count_fluctuations(arr, lo).count >= count_fluctuations(arr, hi).count

    @given(grid_values, st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
           st.sampled_from([1.0, 2.0]))
    def test_variation_nondecreasing_under_extension(self, vals, extra, q):
        base, _ = max_p_variation(np.array(vals), q)
        grown, _ = max_p_variation(np.array(vals + [extra]), q)
        assert grown >= base - 1e-12


def _long_sequence(kind, n, u, rng):
    """(points, eps) for a long sequence of the given kind, drawn from rng."""
    k = np.arange(1, n + 1)[:, None]
    z = rng.standard_normal((n, u)) + 1j * rng.standard_normal((n, u))
    if kind == "rotation":
        theta = rng.uniform(0.05, np.pi, u) * rng.choice([-1.0, 1.0], u)
        pts = np.cumsum(np.exp(1j * k * theta) * z[0], axis=0) / k
    elif kind == "decaying":
        pts = np.cumsum(z / k ** rng.uniform(0.6, 1.5), axis=0)
    else:  # random walk with steps well below eps
        pts = np.cumsum(z, axis=0) * 0.01
        return pts, float(np.exp(rng.uniform(np.log(0.02), np.log(0.5))))
    return pts, float(np.exp(rng.uniform(np.log(0.01), np.log(0.3))))


def _greedy_witnesses(pts, eps, p):
    """Greedy chain by direct search: earliest j, then smallest i >= anchor."""
    out, anchor = [], 0
    for j in range(1, len(pts)):
        d = np.sum(np.abs(pts[anchor:j] - pts[j]) ** p, axis=1) ** (1.0 / p)
        hit = np.flatnonzero(d >= eps)
        if hit.size:
            out.append((anchor + int(hit[0]) + 1, j + 1))
            anchor = j
    return tuple(out)


def _direct_rate(pts, eps, p):
    """Empirical convergence rate by direct search: the largest index opening a
    separated pair, stepped past; a pair opened by the second-to-last index is
    no rate within the horizon."""
    n = len(pts)
    for i in range(n - 2, -1, -1):
        if (np.sum(np.abs(pts[i + 1 :] - pts[i]) ** p, axis=1) ** (1.0 / p) >= eps).any():
            return ConvergenceRateResult(i < n - 2, i + 2 if i < n - 2 else None, n)
    return ConvergenceRateResult(True, 1, n)


class TestLongSequencesAgainstDirectSearch:
    """Sequences long enough for the scan's ball skips and grown chunks to fire:
    tails that spiral or decay into an eps-ball, and slow random walks. From
    1,024 rows on, settled tails are pruned whole chunks and long ball slices
    at a time by one box bound."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["rotation", "decaying", "walk"]), st.integers(300, 1500),
           st.integers(1, 3), st.sampled_from([1.0, 2.0, 3.0]), st.integers(0, 2**32 - 1))
    def test_witnesses_match(self, kind, n, u, p, seed):
        pts, eps = _long_sequence(kind, n, u, np.random.default_rng(seed))
        rep = count_fluctuations(pts, eps, p_norm=p)
        assert rep.witnesses == _greedy_witnesses(pts, eps, p)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["rotation", "decaying", "walk"]), st.integers(1024, 4096),
           st.integers(1, 3), st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]),
           st.sampled_from([-600, 0, 600]), st.booleans(), st.integers(0, 2**32 - 1))
    def test_box_pruned_tails_match_at_every_scale_and_stride(self, kind, n, u, p, k, strided, seed):
        # Scaling by 2^k is exact, so the direct searches run on the unscaled points;
        # a strided input is every other row of a larger array, scanned without a copy.
        pts, eps = _long_sequence(kind, n, u, np.random.default_rng(seed))
        scaled = pts * 2.0**k
        if strided:
            big = np.zeros((2 * n, u), dtype=np.complex128)
            big[::2] = scaled
            scaled = big[::2]
        assert count_fluctuations(scaled, eps * 2.0**k, p_norm=p).witnesses == _greedy_witnesses(pts, eps, p)
        assert empirical_convergence_rate(scaled, eps * 2.0**k, p_norm=p) == _direct_rate(pts, eps, p)


def _operator_and_orbit(kind, u, n, rng):
    """(operator, x, rows) with rows[k] = T^k x from `oracles.ref_orbit`, not
    from ergolab's orbit."""
    x = rng.standard_normal(u) + 1j * rng.standard_normal(u)
    if kind == "rotation":
        op = RotationProduct(rng.uniform(-np.pi, np.pi, u))
    elif kind == "cyclic":
        op = CyclicShift(u)
    else:
        g = rng.standard_normal((2 * u, 2 * u))
        if kind == "dense-orthogonal":
            q, r = np.linalg.qr(g)
            mat = q * np.sign(np.diag(r))
        else:  # non-normal, spectral norm 0.95
            mat = 0.95 * g / np.linalg.norm(g, 2)
        op = DenseMatrix(mat)
    return op, x, ref_orbit(op, x, n)


def _exact_averages(rows, ms):
    """A_m for each m in increasing ms from the real coordinates of rows,
    each segment between consecutive m summed by fsum and carried exactly."""
    parts = rows.view(np.float64)
    totals = [Fraction(0)] * parts.shape[1]
    out, lo = [], 0
    for m in ms:
        seg = parts[lo:m].T.tolist()
        totals = [t + Fraction(math.fsum(col)) for t, col in zip(totals, seg)]
        out.append([float(t / m) for t in totals])
        lo = m
    return np.array(out)


def _variation_points(kind, u, n, p, rng):
    """n points of the given kind: the averages of a rotation, a cyclic shift or a non-normal
    `DenseMatrix` contraction, an i.i.d. cloud, two to four points repeated at random, the same
    with every coordinate moved by up to 4 ulps, or one point. Two kinds put the block bound on
    its edge. "staircase": on a line, rows 0-31 at 0, 32-62 at 1, 63 at 1/2 (its predecessor in
    block 1), then 2 and -0.9: at q = 2 block 0 holds row 64's best predecessor, and its bound, 4,
    lies between row 64's seed maximum, 3.5, and row 65's, 4.61. "ulp-tie": 32 copies of a point c,
    each coordinate moved by up to 2 ulps, 32 copies of the one farthest from b, then b: row 64
    ties across blocks 0 and 1, and block 0's box reach can round below the distance of the tie."""
    if kind in ("rotation", "cyclic", "dense-contraction"):
        op, x, _ = _operator_and_orbit(kind, u, n, rng)
        return ergodic_averages(op, Vector(x, p=2.0), n).points
    if kind == "cloud":
        return rng.standard_normal((n, u)) + 1j * rng.standard_normal((n, u))
    if kind == "staircase":
        line = np.concatenate(([0.0] * 32, [1.0] * 31, [0.5, 2.0, -0.9], rng.uniform(-2.0, 2.0, n)))[:n]
        return line[:, None] * (rng.standard_normal(u) + 1j * rng.standard_normal(u))
    if kind == "ulp-tie":
        c, b = rng.standard_normal((2, u)) + 1j * rng.standard_normal((2, u))
        jitter = 1.0 + 2.0**-52 * rng.integers(-2, 3, (32, 2 * u))
        copies = (np.tile(c.view(np.float64), (32, 1)) * jitter).view(np.complex128)
        far = copies[np.argmax(batch_norm_p(copies - b, p))]
        return np.vstack((copies, np.tile(far, (32, 1)), np.tile(b, (n, 1))))[:n]
    m = int(rng.integers(2, 5))
    few = rng.standard_normal((m, u)) + 1j * rng.standard_normal((m, u))
    if kind == "constant":
        return np.repeat(few[:1], n, axis=0)
    pts = few[rng.integers(0, len(few), n)]
    if kind == "jittered":  # box reaches and distances a few ulps apart, and near ties
        pts = (pts.view(np.float64) * (1.0 + 2.0**-52 * rng.integers(-4, 5, (n, 2 * u)))).view(np.complex128)
    return pts


class TestBlockPrunedVariation:
    """max_p_variation skips the 32-row blocks whose box bound falls below an incumbent, yet its
    values and witnesses are bit for bit those of `oracles.ref_max_p_variation`, the DP over every
    pair, handed the package's row norm: on the averages of rotations, cyclic shifts and non-normal
    contractions, i.i.d. clouds, repeated or constant points and the two edge kinds of
    `_variation_points`, at p in {1, 1.5, 2, 3}, grids of q in {1, 1.5, 2, 3, 64}, scales 2^-600,
    1 and 2^600, and N on and next to the block edges or a few hundred. The examples are the edge
    kinds at a q and seed where the edge is reached."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["rotation", "cyclic", "dense-contraction", "cloud", "repeated", "jittered",
                            "constant", "staircase", "ulp-tie"]),
           st.integers(1, 4), st.one_of(st.sampled_from([1, 2, 31, 32, 33, 64, 65]), st.integers(100, 400)),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           st.lists(st.sampled_from([1.0, 1.5, 2.0, 3.0, 64.0]), min_size=1, max_size=3, unique=True),
           st.sampled_from([-600, 0, 600]), st.integers(0, 2**32 - 1))
    @example("staircase", 1, 66, 2.0, [2.0], 0, 0)
    @example("ulp-tie", 2, 65, 2.0, [64.0], 0, 53)
    def test_values_and_witnesses_are_the_plain_dps(self, kind, u, n, p, qs, k, seed):
        pts = _variation_points(kind, u, n, p, np.random.default_rng(seed)) * 2.0**k
        got = [(value, witness.indices) for value, witness in max_p_variation(pts, qs, p_norm=p)]
        assert got == ref_max_p_variation(pts, qs, p, batch_norm_p)


class TestBlockedAverages:
    """ergodic_averages against exactly summed orbits, at horizons on and
    next to the block edges: 2^16 rows for the running sum, 64 rows for the
    DenseMatrix orbit. The tolerance is the bound of the averages module,
    (2^16 + 3) * 2^-53 * R with R the largest coordinate magnitude so far."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["rotation", "cyclic", "dense-orthogonal", "dense-contraction"]),
           st.integers(1, 4), st.integers(1, 3), st.integers(-2, 2), st.integers(0, 2**32 - 1))
    def test_matches_exact_orbit_sum(self, kind, u, blocks, offset, seed):
        block = 64 if kind.startswith("dense") else 2**16
        n = blocks * block + offset
        rng = np.random.default_rng(seed)
        op, x, rows = _operator_and_orbit(kind, u, n, rng)
        edges = [k * block + d for k in range(1, blocks + 1) for d in (-1, 0, 1)]
        ms = sorted({m for m in (1, 2, n, *edges, *rng.integers(1, n + 1, 40).tolist())
                     if 1 <= m <= n})
        got = ergodic_averages(op, Vector(x, p=2.0), n).points.view(np.float64)
        reach = np.maximum.accumulate(np.abs(rows.view(np.float64)).max(axis=1))
        idx = np.array(ms) - 1
        err = np.abs(got[idx] - _exact_averages(rows, ms)).max(axis=1)
        assert np.all(err <= (2**16 + 3) * 2.0**-53 * reach[idx])


class TestMetastabilityInvariants:
    @given(grid_values, grid_eps, st.sampled_from(["succ", "dbl"]))
    def test_clean_interval_exists_below_conversion(self, vals, eps, gname):
        """Among the intervals [g^i(1), g^(i+1)(1)] for i = 0..s(eps), one
        holds no eps-separated pair (out-of-horizon indices cannot form
        pairs, so a truncated interval can only be cleaner)."""
        g = {"succ": g_successor, "dbl": g_double}[gname]
        arr = np.array(vals)
        s = count_fluctuations(arr, eps).count
        horizon = len(vals)

        def interval_dirty(lo, hi):
            hi = min(hi, horizon)
            return any(
                abs(vals[j] - vals[i]) >= eps
                for i in range(lo - 1, hi)
                for j in range(i + 1, hi)
            )

        endpoints = [1]
        for _ in range(s + 1):
            endpoints.append(g(endpoints[-1]))
        assert any(
            not interval_dirty(endpoints[i], endpoints[i + 1]) for i in range(s + 1)
        )

    @given(grid_values, grid_eps, st.sampled_from(["succ", "dbl"]))
    def test_rate_below_conversion_bound(self, vals, eps, gname):
        g = {"succ": g_successor, "dbl": g_double}[gname]
        arr = np.array(vals)
        s = count_fluctuations(arr, eps).count
        bound = metastability_from_fluctuations(s, g)
        try:
            rate = metastability_rate(arr, eps, g)
        except HorizonExhaustedError:
            assume(False)
        assert rate <= bound

    @given(grid_values, grid_eps, st.sampled_from(["succ", "dbl"]))
    def test_empirical_rate_dominates_metastability(self, vals, eps, gname):
        g = {"succ": g_successor, "dbl": g_double}[gname]
        arr = np.array(vals)
        res = empirical_convergence_rate(arr, eps)
        assume(res.found and g(res.n) <= len(vals))
        rate = metastability_rate(arr, eps, g)
        assert rate <= res.n


seq_functions = st.builds(
    lambda re, im, lo, p: SeqFunction(
        lo,
        np.array(re, dtype=np.float64)
        + 1j * np.array((im + [0.0] * len(re))[: len(re)], dtype=np.float64),
        p,
    ),
    st.lists(finite_floats, min_size=1, max_size=12),
    st.lists(finite_floats, min_size=0, max_size=12),
    st.integers(-8, 8),
    st.sampled_from([1.0, 2.0, 3.0]),
)


class TestDyadicInvariants:
    @settings(max_examples=60)
    @given(seq_functions, st.integers(0, 4), st.integers(0, 4))
    def test_tower(self, f, m, n):
        once = conditional_expectation(f, max(m, n))
        twice = conditional_expectation(conditional_expectation(f, n), m)
        assert lpb_norm(twice - once) <= 1e-10 * max(1.0, lpb_norm(f))

    @settings(max_examples=60)
    @given(seq_functions, st.integers(1, 5))
    def test_telescoping(self, f, n_max):
        diffs = martingale_differences(f, n_max)
        total = diffs[0]
        for d in diffs[1:]:
            total = total + d
        residual = f - conditional_expectation(f, n_max)
        assert lpb_norm(total - residual) <= 1e-10 * max(1.0, lpb_norm(f))

    @settings(max_examples=60)
    @given(seq_functions, st.integers(0, 5))
    def test_contraction(self, f, n):
        assert lpb_norm(conditional_expectation(f, n)) <= lpb_norm(f) + 1e-10


class TestScaleInvariance:
    """Scaling the points and eps by 2^k scales every distance and eps alike, so
    counts, witnesses and rates must not move, down to 2^-300 and up to 2^300."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 400), st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           st.integers(-300, 300), st.integers(0, 2**32 - 1))
    def test_counts_and_rates_under_power_of_two_scaling(self, u, n, p, k, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(u) + 1j * rng.standard_normal(u)
        op = RotationProduct(rng.uniform(-np.pi, np.pi, u))
        pts = ergodic_averages(op, Vector(z, p), n).points / Vector(z, p).norm()
        eps = float(np.exp(rng.uniform(np.log(0.01), np.log(0.5))))
        scaled = pts * 2.0**k, eps * 2.0**k
        assert count_fluctuations(*scaled, p_norm=p).witnesses == \
            count_fluctuations(pts, eps, p_norm=p).witnesses
        assert empirical_convergence_rate(*scaled, p_norm=p) == \
            empirical_convergence_rate(pts, eps, p_norm=p)


_QUARTER_TURNS = np.array([1.0, 1j, -1.0, -1j])


def _scans(pts, eps, p):
    """Witnesses, empirical rate and metastability rate (g_double), or where the
    rate scan ran out of horizon."""
    try:
        rate = metastability_rate(pts, eps, g_double, p_norm=p)
    except HorizonExhaustedError as exc:
        rate = ("exhausted", exc.checked_up_to)
    return (count_fluctuations(pts, eps, p_norm=p).witnesses,
            empirical_convergence_rate(pts, eps, p_norm=p), rate)


class TestSlotSymmetries:
    """Turning a slot by a quarter turn, or conjugating it, swaps or negates its
    real coordinates exactly, so every distance keeps its bits. Swapping two slots
    swaps the two terms of each power sum, which is exact too; from u = 3 on the
    order of a sum can move its last bit, so permutations stop at u = 2."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 300), st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           st.integers(0, 2**32 - 1))
    def test_scans_are_blind_to_slot_symmetries(self, u, n, p, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(u) + 1j * rng.standard_normal(u)
        op = RotationProduct(rng.uniform(-np.pi, np.pi, u))
        pts = ergodic_averages(op, Vector(z, p), n).points / Vector(z, p).norm()
        eps = float(np.exp(rng.uniform(np.log(0.01), np.log(0.5))))
        mapped = [pts * _QUARTER_TURNS[rng.integers(0, 4, u)],
                  np.where(rng.random(u) < 0.5, pts.conj(), pts)]
        if u <= 2:
            mapped.append(pts[:, rng.permutation(u)])
        want = _scans(pts, eps, p)
        for image in mapped:
            assert _scans(image, eps, p) == want


def _monotone_scans(pts, eps, p):
    """Count, empirical rate and metastability rate (g_double) at eps, a rate with
    found=False or an exhausted horizon as +inf. None of them increases as eps grows."""
    try:
        meta = metastability_rate(pts, eps, g_double, p_norm=p)
    except HorizonExhaustedError:
        meta = math.inf
    rate = empirical_convergence_rate(pts, eps, p_norm=p)
    return count_fluctuations(pts, eps, p_norm=p).count, rate.n if rate.found else math.inf, meta


class TestInexactSymmetries:
    """A unit phase e^(i theta) on every point, or a permutation of three slots, is an
    isometry that floating point carries out only up to a few ulps of the largest point
    norm per distance. With eta far above that, each measurement of the image at eps
    lies between the original's at eps + eta and at eps - eta. Half the draws put eps
    exactly on a distance of the original, where the bracket is tight."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 300), st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           st.floats(-math.pi, math.pi), st.booleans(), st.integers(0, 2**32 - 1))
    def test_measurements_of_the_image_are_bracketed(self, u, n, p, theta, on_a_distance, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(u) + 1j * rng.standard_normal(u)
        op = RotationProduct(rng.uniform(-np.pi, np.pi, u))
        pts = ergodic_averages(op, Vector(z, p), n).points / Vector(z, p).norm()
        eps = float(np.exp(rng.uniform(np.log(0.01), np.log(0.5))))
        if on_a_distance:
            i, j = sorted(rng.choice(n, 2, replace=False))
            eps = float(batch_norm_p(pts[j : j + 1] - pts[i : i + 1], p)[0])
        eta = 2.0**-40 * (1.0 + float(batch_norm_p(pts, p).max()))
        assume(eps > 2.0 * eta)
        lower, upper = _monotone_scans(pts, eps + eta, p), _monotone_scans(pts, eps - eta, p)
        for image in (pts * np.exp(1j * theta), pts[:, rng.permutation(u)]):
            got = _monotone_scans(image, eps, p)
            assert all(lo <= g <= hi for lo, g, hi in zip(lower, got, upper)), (lower, got, upper)


def _blocked_and_plain(run):
    """run() with every exact check block-pruned, whatever its size, and with every
    exact check evaluated in full."""
    with mock.patch.object(_scan, "_BLOCK_FLOATS", 1):
        blocked = run()
    with mock.patch.object(_scan, "_BLOCK_FLOATS", math.inf):
        plain = run()
    return blocked, plain


def _batched_and_single(run):
    """run() with exact checks of as many alive rows as 2^20 floats hold, and with one row per
    check. The budget also sets the chunk of the views that run() builds, so each batch fits one."""
    with mock.patch.object(_scan, "_CHUNK_FLOATS", 2**20):
        batched = run()
    with mock.patch.object(_scan, "_CHUNK_FLOATS", 0):
        single = run()
    return batched, single


def _selector_scans(pts, eps, p):
    """Witnesses, empirical rate and the metastability rates of the three built-in selectors and
    of a non-monotone g, each rate or where its scan ran out of horizon."""
    def rate(g):
        try:
            return metastability_rate(pts, eps, g, p_norm=p)
        except HorizonExhaustedError as exc:
            return "exhausted", exc.checked_up_to

    return (count_fluctuations(pts, eps, p_norm=p).witnesses, empirical_convergence_rate(pts, eps, p_norm=p),
            *(rate(g) for g in (g_successor, g_double, g_next_power_of_two, lambda n: n + 1 + 5 * (n % 3))))


def _full_check(view, eps, anchor, j):
    """An exact check that evaluates every row of [anchor, j): ((the least separated i, j) or None,
    the largest distance D). A point is a box, so `box_reach` gives each distance with its
    near-eps lift."""
    c = view.coords
    dist = _scan.box_reach(c[anchor:j], c[anchor:j], c[j], c[j], view.p, eps)
    valid = np.flatnonzero(dist >= eps)
    return ((anchor + int(valid[0]), j) if valid.size else None), float(dist.max())


def _check(view, eps, anchor, j):
    """The exact check of the one row j: (its hit or None, its D')."""
    hit, bound = _scan._exact_check(view, eps, anchor, np.array([j]))
    return hit, float(bound[0])


def _assert_checks_agree(blocked, plain, full, eps):
    """Blocked and plain checks find the full check's hit (least separated i, j); a clean blocked check
    bounds the largest distance D by D <= D' < eps, and a clean plain check returns D itself."""
    for (bi, bd), (pi, pd), (fi, fd) in zip(blocked, plain, full):
        assert bi == pi == fi
        if fi is None:
            assert pd == fd and fd <= bd < eps


class TestBlockPrunedChecks:
    """An exact check that skips the 32-row blocks whose box cannot reach eps, the
    partial end blocks too, finds the same least separated row as evaluating every row.
    A clean one returns a bound on the largest distance, not the distance: the most of
    the distances it evaluated and the reach of blocks it left out, at least the maximum
    and below eps, so the ball skip stays strict. The plain check (no blocks) returns
    the maximum itself, and hits, greedy counts and rates are the same either way. The
    checks run from one row to 2000 (past the 1024 rows of the benchmark's u = 16
    checks), on trajectories of which some repeat every row 32 times, at scales 2^-600
    to 2^600, with eps drawn at random, or exactly on or one ulp above the largest
    distance of a check: then only the blocks next to eps hold a separated row, and
    p not in {1, 2} lifts rounded norms. A batch of rows in one exact check finds the
    first row's hit and bounds each clean row by its own D, and scans that check runs
    of up to 2^20 floats find the same hits, witnesses and rates as scans that check
    one row at a time, for the three built-in selectors and a non-monotone g."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(1100, 2000), st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]),
           st.sampled_from([-600, 0, 600]), st.sampled_from(["random", "on", "above"]),
           st.sampled_from([1, 32]), st.integers(0, 2**32 - 1))
    def test_same_checks_hits_counts_and_rates(self, u, n, p, k, tie, repeat, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(u) + 1j * rng.standard_normal(u)
        op = RotationProduct(rng.uniform(-np.pi, np.pi, u))
        pts = ergodic_averages(op, Vector(z, p), -(-n // repeat)).points / Vector(z, p).norm() * 2.0**k
        pts = np.repeat(pts, repeat, axis=0)[:n]  # 32 repeats make each block's box a point
        eps = float(np.exp(rng.uniform(np.log(0.01), np.log(0.3)))) * 2.0**k
        pairs = [tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(8)]
        if tie != "random":
            i, j = pairs[0]
            eps = float(batch_norm_p(pts[i:j] - pts[j], p).max())  # the largest distance of a check
            eps = math.nextafter(eps, math.inf) if tie == "above" else eps
            assume(eps > 0.0)  # on a check inside one run of 32 repeats, 0 is no threshold
        view = _scan.PointsView(pts, p)
        full = [_full_check(view, eps, i, j) for i, j in pairs]
        _assert_checks_agree(*_blocked_and_plain(lambda: [_check(view, eps, i, j) for i, j in pairs]),
                             full, eps)
        hits = _blocked_and_plain(lambda: [_scan.first_violation(view, eps, i, n - 1) for i, _ in pairs[:4]])
        assert hits[0] == hits[1]
        scans = _blocked_and_plain(lambda: _scans(pts, eps, p))
        assert scans[0] == scans[1]
        # A batch of rows after the anchor, the tie's row among them: its hit is the first row's
        # with a separated candidate, and a clean batch bounds each row by that row's D.
        anchor, j = pairs[0]
        rows = np.unique(np.append(rng.integers(anchor + 1, n, 5), j))
        full = [_full_check(view, eps, anchor, int(t)) for t in rows]
        hit, bound = _scan._exact_check(view, eps, anchor, rows)
        assert hit == next((f for f, _ in full if f is not None), None)
        assert hit is not None or bound.tolist() == [d for _, d in full]
        batched = _batched_and_single(lambda: [_scan.first_violation(_scan.PointsView(pts, p), eps, i, n - 1)
                                              for i, _ in pairs[:4]])
        assert batched[0] == batched[1] == hits[0]
        batched = _batched_and_single(lambda: _selector_scans(pts, eps, p))
        assert batched[0] == batched[1]
        assert batched[0][:2] + batched[0][3:4] == scans[0]  # witnesses, empirical rate, g_double's rate

    @pytest.mark.parametrize("u", [1, 3])
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_first_separated_row_in_a_later_chunk(self, u, p, reverse):
        # 40,000 candidates, more than two chunks of rows. Rows up to the third chunk sit at
        # distance 0.8 from a_j = 0, in every direction, so their blocks' boxes reach past 1;
        # the first row at distance 1 comes 5 rows into the third chunk, later ones at 1.5.
        # With eps on that row's distance from one kernel call over all rows, the checks,
        # evaluated a chunk at a time, must find it, so the distances keep their bits across
        # chunk edges; with eps twice the largest distance, they come back clean with it.
        rng = np.random.default_rng(u)
        n = 40_002

        def sphere(radius, rows):
            return radius / u ** (1 / p) * np.exp(2j * np.pi * rng.random((rows, u)))

        anchor, j = 1, n - 1
        first = anchor + 2 * _scan.PointsView(np.zeros((1, u), complex), p).chunk + 5
        pts = np.concatenate((sphere(0.8, first), sphere(1.0, 1), sphere(1.5, n - first - 2), [[0.0] * u]))
        view = _scan.PointsView(pts[::-1].copy()[::-1] if reverse else pts, p)  # reversed: read backwards
        dist = batch_norm_p(view.pts[anchor:j] - view.pts[j], p)
        assert dist[: first - anchor].max() < dist[first - anchor]
        for eps in (float(dist[first - anchor]), 2.0 * float(dist.max())):
            blocked, plain = _blocked_and_plain(lambda: [_check(view, eps, anchor, j)])
            want = ((first, j) if eps < dist.max() else None), float(dist.max())
            assert _full_check(view, eps, anchor, j) == want
            _assert_checks_agree(blocked, plain, [want], eps)

    @pytest.mark.parametrize("u", [1, 2, 3, 7, 8, 16])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_batched_distances_keep_their_bits(self, u, p):
        # Rows against one run of candidates in one kernel call, some of the rows among the
        # candidates (a zero distance): each row's distances are its own call's to the bit,
        # also at scales where the kernel rescales rows.
        rng = np.random.default_rng(u)
        for k in (-600, 0, 600):
            pts = (rng.standard_normal((300, u)) + 1j * rng.standard_normal((300, u))) * 2.0**k
            view = _scan.PointsView(pts, p)
            rows = np.sort(rng.choice(300, 9, replace=False))
            batch = view.distances_to(rows, 17, 290)
            for r, t in enumerate(rows.tolist()):
                assert batch[r].tobytes() == view.distances_to(t, 17, 290).tobytes()

    def test_a_check_whose_boxes_all_fall_short_evaluates_no_row(self, monkeypatch):
        # 20,000 rows past the block threshold, 32 repeats making each block's box a point, and
        # both ends inside a block: no box reaches past 0.0625, far below eps = 0.5
        pts = np.repeat(np.exp(1e-4j * np.arange(625.0))[:, None], 32, axis=0)
        view = _scan.PointsView(pts, 2.0)
        monkeypatch.setattr(view, "distances_to", mock.Mock(side_effect=AssertionError("a row evaluated")))
        hit, bound = _check(view, 0.5, 40, 19950)
        assert hit is None and _full_check(view, 0.5, 40, 19950)[1] <= bound < 0.5


def _near_and_none(pts, p, eps, segments):
    """first_violation over the segments in order on one forward and one reversed view, the selector
    scans and every dyadic interval, with each view's cached block of exact distances and with no
    block (`_NEAR_ROWS` = 0)."""
    traj = AverageTrajectory(pts, p, RotationProduct(np.zeros(pts.shape[1])), Vector(np.ones(pts.shape[1]), p))

    def run():
        views = (_scan.PointsView(pts, p), _scan.PointsView(pts[::-1], p))
        return ([_scan.first_violation(view, eps, a, b) for view in views for a, b in segments],
                _selector_scans(pts, eps, p),
                [fluctuation_in_dyadic_interval(traj, eps, k) for k in range(1, len(pts).bit_length())])

    near = run()
    with mock.patch.object(_scan, "_NEAR_ROWS", 0):
        none = run()
    return near, none


class TestNearBlock:
    """Scans that read their first rows off a view's cached block of exact pairwise distances
    find the same hits, witnesses, rates and dyadic answers as scans that build no block. The
    segments of one view start at, end at and straddle the edges of its 32-row blocks, on
    forward and reversed views, at p in {1, 1.5, 2, 3, 4} and scales 2^-600 to 2^600, with eps
    drawn at random or exactly on a distance. Or the only separated pair is a two-slot tie at
    eps, |(4, 0) - (0, 0)| = 4 = eps, which p = 1.5, 3 and 4 round below eps and the near-eps
    lift restores: it starts in the first block of the forward and the reversed view and ends
    in it, on its last row or just past it, and segments end on it."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 200), st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]),
           st.sampled_from([-600, 0, 600]), st.booleans(), st.integers(0, 2**32 - 1))
    def test_same_hits_witnesses_rates_and_dyadic_answers(self, u, n, p, k, on_a_distance, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(u) + 1j * rng.standard_normal(u)
        pts = ergodic_averages(RotationProduct(rng.uniform(-np.pi, np.pi, u)), Vector(z, p), n).points
        pts = pts / Vector(z, p).norm() * 2.0**k
        eps = float(np.exp(rng.uniform(np.log(0.01), np.log(0.5)))) * 2.0**k
        if on_a_distance:
            i, j = sorted(rng.choice(n, 2, replace=False))
            eps = float(batch_norm_p(pts[j : j + 1] - pts[i : i + 1], p)[0])
            assume(eps > 0.0)
        segments, a = [], int(rng.integers(n))
        for _ in range(12):  # each near the last, so later segments read or pass the edges of its block
            a = int(np.clip(a + rng.integers(-40, 41), 0, n - 1))
            segments.append((a, min(n - 1, a + int(rng.choice([0, 1, 2, 30, 31, 32, 33, 64])))))
        near, none = _near_and_none(pts, p, eps, segments)
        assert near == none

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([1.5, 3.0, 4.0]), st.sampled_from([-600, 0, 600]), st.integers(0, 31),
           st.sampled_from([1, 2, 5, 31, 32, 33]), st.integers(0, 60), st.integers(0, 2**32 - 1))
    def test_two_slot_tie_at_eps_in_a_block(self, p, k, i, d, extra, seed):
        j, n = i + d, i + d + 2 + extra
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        pts = np.array([2.0, 0.0]) + 0.05 * w / np.abs(w).sum(axis=1, keepdims=True)  # within 0.05 of (2, 0)
        pts[i], pts[j] = 0.0, [4.0, 0.0]
        segments = [(max(0, j - m), j) for m in (31, 32, 33)] + [(i, n - 1), (0, n - 1)]
        pts, eps = pts * 2.0**k, 4.0 * 2.0**k
        near, none = _near_and_none(pts, p, eps, segments)
        assert near == none
        # At 2^600 and p = 1.5 the kernel raises a power sum near 2^903 to the rounded 1/p and
        # lands about 100 ulps below eps, out of the lift's reach; elsewhere the tie is the one
        # fluctuation.
        if batch_norm_p(pts[j : j + 1] - pts[i : i + 1], p)[0] >= eps * _scan._NEAR:
            assert near[1][0] == ((i + 1, j + 1),)


class TestBoxPyramid:
    """`PointsView.boxes(s)` is the per-coordinate min and max of each aligned block of
    s rows, the short last block reduced as if padded with copies of the last row, to
    the bit, whether a level is built from the rows or pairwise from the level below,
    and in whatever order the levels are asked for."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 4), st.integers(0, 7),
           st.sampled_from(["fine first", "coarse first", "shuffled"]), st.integers(0, 2**32 - 1))
    def test_boxes_are_a_direct_reduce_of_padded_rows(self, n, u, top, order, seed):
        rng = np.random.default_rng(seed)
        pts = (rng.standard_normal((n, u)) + 1j * rng.standard_normal((n, u))).round(1)  # ties too
        view = _scan.PointsView(pts, 2.0)
        sizes = [1 << k for k in range(top + 1)]
        asked = {"fine first": sizes, "coarse first": sizes[::-1], "shuffled": rng.permutation(sizes)}[order]
        for size in asked:
            view.boxes(int(size))
        for size in sizes:
            rows = np.pad(pts.view(np.float64), ((0, -n % size), (0, 0)), mode="edge")
            lo, hi = view.boxes(size)
            assert lo.tobytes() == rows.reshape(-1, size, 2 * u).min(axis=1).tobytes()
            assert hi.tobytes() == rows.reshape(-1, size, 2 * u).max(axis=1).tobytes()


class TestSpan:
    """`_scan._span` is the per-column min and max of rows to the bit (as one row), for rows
    forward, reversed and taken every other row, on either side of its 64-row lines;
    a reversed view is read in place, not copied."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 4097])
    @pytest.mark.parametrize("layout", ["forward", "reversed", "strided"])
    def test_equals_a_direct_reduce(self, n, layout):
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((2 * n, 6)).round(1) + 0.0  # ties, and no negative zeros
        rows = {"forward": rows[:n], "reversed": rows[:n][::-1], "strided": rows[::2]}[layout]
        rows[0], rows[-1] = (np.tile([9.0, -9.0], 3) * sign for sign in (1, -1))  # extremes at both ends
        lo, hi = _scan._span(rows)
        assert lo.tobytes() == rows.min(axis=0).tobytes()
        assert hi.tobytes() == rows.max(axis=0).tobytes()

    def test_reads_a_reversed_view_in_place(self):
        rows = np.random.default_rng(0).standard_normal((2**16, 32))[::-1]
        tracemalloc.start()
        try:
            lo, hi = _scan._span(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes / 16
        assert lo.tobytes() == rows.min(axis=0).tobytes() and hi.tobytes() == rows.max(axis=0).tobytes()
