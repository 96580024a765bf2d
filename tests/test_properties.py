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
from hypothesis import assume, given, settings, strategies as st

from ergolab import (
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
    g_double,
    g_successor,
    lpb_norm,
    martingale_differences,
    max_p_variation,
    metastability_from_fluctuations,
    metastability_rate,
    HorizonExhaustedError,
)

from ergolab import _scan
from oracles import brute_force_fluctuations, brute_force_p_variation

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
        assert (c * x).norm() == pytest.approx(abs(c) * x.norm(), rel=1e-12, abs=1e-12)
        assert (x + y).norm() <= x.norm() + y.norm() + 1e-12


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
    """(operator, x, rows) with rows[k] = T^k x, built without ergolab's
    orbit: the per-power closed forms of rotation and shift, and one matrix
    step at a time for the dense kinds."""
    x = rng.standard_normal(u) + 1j * rng.standard_normal(u)
    if kind == "rotation":
        angles = rng.uniform(-np.pi, np.pi, u)
        return RotationProduct(angles), x, x * np.exp(1j * (np.arange(n)[:, None] * angles))
    if kind == "cyclic":
        return CyclicShift(u), x, x[(np.arange(u) - np.arange(n)[:, None]) % u]
    g = rng.standard_normal((2 * u, 2 * u))
    if kind == "dense-orthogonal":
        q, r = np.linalg.qr(g)
        mat = q * np.sign(np.diag(r))
    else:  # non-normal, spectral norm 0.95
        mat = 0.95 * g / np.linalg.norm(g, 2)
    coords = np.empty((n, 2 * u))
    coords[0] = np.column_stack((x.real, x.imag)).ravel()
    for k in range(1, n):
        coords[k] = mat @ coords[k - 1]
    return DenseMatrix(mat), x, coords.view(np.complex128)


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


def _full_check(view, eps, anchor, j):
    """An exact check that evaluates every row of [anchor, j): a point is a box, so
    `box_reach` gives each distance with its near-eps lift."""
    c = view.coords
    dist = _scan.box_reach(c[anchor:j], c[anchor:j], c[j], c[j], view.p, eps)
    valid = np.flatnonzero(dist >= eps)
    return (anchor + int(valid[0]), anchor + int(valid[-1]), j) if valid.size else float(dist.max())


class TestBlockPrunedChecks:
    """An exact check that skips the 32-row blocks whose box cannot reach eps, the
    partial end blocks too, finds the same separated rows as evaluating every row. A
    clean one returns a bound on the largest distance, not the distance: the most of
    the distances it evaluated and the reach of blocks it left out, at least the maximum
    and below eps, so the ball skip stays strict. The plain check (no blocks) returns
    the maximum itself, and hits, greedy counts and rates are the same either way. The
    checks run from one row to 2000 (past the 1024 rows of the benchmark's u = 16
    checks), on trajectories of which some repeat every row 32 times, at scales 2^-600
    to 2^600, with eps drawn at random, or exactly on or one ulp above the largest
    distance of a check: then only the blocks next to eps hold a separated row, and
    p not in {1, 2} lifts rounded norms."""

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
        view = _scan.PointsView(pts, p)
        full = [_full_check(view, eps, i, j) for i, j in pairs]
        blocked, plain = _blocked_and_plain(lambda: [_scan._exact_check(view, eps, i, j) for i, j in pairs])
        assert plain == full
        for got, want in zip(blocked, full):
            assert got == want if isinstance(want, tuple) else want <= got < eps
        hits = _blocked_and_plain(lambda: [_scan.first_violation(view, eps, i, n - 1) for i, _ in pairs[:4]])
        assert hits[0] == hits[1]
        scans = _blocked_and_plain(lambda: _scans(pts, eps, p))
        assert scans[0] == scans[1]

    def test_a_check_whose_boxes_all_fall_short_evaluates_no_row(self, monkeypatch):
        # 20,000 rows past the block threshold, 32 repeats making each block's box a point, and
        # both ends inside a block: no box reaches past 0.0625, far below eps = 0.5
        pts = np.repeat(np.exp(1e-4j * np.arange(625.0))[:, None], 32, axis=0)
        view = _scan.PointsView(pts, 2.0)
        monkeypatch.setattr(view, "distances_to", mock.Mock(side_effect=AssertionError("a row evaluated")))
        bound = _scan._exact_check(view, 0.5, 40, 19950)
        assert _full_check(view, 0.5, 40, 19950) <= bound < 0.5


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


class TestSlicedDistances:
    """`PointsView.distances_to` evaluates a chunk of rows at a time; the norm kernel
    works row by row, so the distances keep their bits across slice edges."""

    @pytest.mark.parametrize("u", [1, 3])
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_equal_one_kernel_call(self, u, p, reverse):
        rng = np.random.default_rng(u)
        pts = rng.standard_normal((40_000, u)) + 1j * rng.standard_normal((40_000, u))
        view = _scan.PointsView(pts[::-1] if reverse else pts, p)
        assert view.n > 2 * view.chunk + 7
        want = batch_norm_p(view.pts[7:-2] - view.pts[3], p)
        assert view.distances_to(3, 7, view.n - 2).tobytes() == want.tobytes()


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
