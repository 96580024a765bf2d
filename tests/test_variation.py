"""Fluctuation counting, p-variation, metastability, convergence rates.

Every scanning routine is gated here against the brute-force oracles on
randomized small instances; the acceptance suite repeats the gate
exhaustively on the full length-8 grid.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from ergolab import (
    ConvergenceRateResult,
    CountOverflowError,
    HorizonExhaustedError,
    IndexSequence,
    InvalidInputError,
    RotationProduct,
    Vector,
    count_fluctuations,
    empirical_convergence_rate,
    ergodic_averages,
    g_double,
    g_next_power_of_two,
    g_successor,
    max_p_variation,
    metastability_from_fluctuations,
    metastability_rate,
    p_variation_along,
)

from ergolab import _scan, variation
from ergolab._scan import PointsView
from oracles import (
    brute_force_convergence_rate,
    brute_force_fluctuations,
    brute_force_metastability,
    brute_force_p_variation,
)


class TestIndexSequence:
    def test_validation(self):
        seq = IndexSequence((1, 3, 7))
        assert list(seq) == [1, 3, 7]
        assert len(seq) == 3
        with pytest.raises(InvalidInputError):
            IndexSequence((0, 1))
        with pytest.raises(InvalidInputError):
            IndexSequence((2, 2))
        with pytest.raises(InvalidInputError):
            IndexSequence(())


class TestPVariationAlong:
    def test_frozen(self):
        pts = np.array([0.0, 1.0, 0.0])
        assert p_variation_along(pts, [1, 2, 3], 2.0) == pytest.approx(2.0)
        assert p_variation_along(pts, [1, 3], 2.0) == pytest.approx(0.0)
        assert p_variation_along(pts, [2], 2.0) == 0.0

    def test_exponent_validation(self):
        with pytest.raises(InvalidInputError):
            p_variation_along(np.array([0.0, 1.0]), [1, 2], 0.5)


class TestMaxPVariation:
    def test_frozen_small(self):
        value, witness = max_p_variation(np.array([0.0, 1.0, 0.0]), 2.0)
        assert value == pytest.approx(2.0)
        assert tuple(witness) == (1, 2, 3)

    def test_two_points(self):
        value, witness = max_p_variation(np.array([0.0, 0.75]), 3.0)
        assert value == pytest.approx(0.75**3)
        assert tuple(witness) == (1, 2)

    def test_constant_sequence(self):
        value, witness = max_p_variation(np.zeros(5), 2.0)
        assert value == 0.0
        assert tuple(witness) == (1,)

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(150):
            n = int(rng.integers(1, 9))
            vals = rng.choice([0.0, 0.5, 1.0], size=n)
            q = float(rng.choice([1.0, 2.0, 3.0]))
            got_v, got_w = max_p_variation(vals, q)
            want_v, _ = brute_force_p_variation(vals, q)
            assert got_v == pytest.approx(want_v, abs=1e-12)
            assert p_variation_along(vals, list(got_w), q) == pytest.approx(got_v, abs=1e-12)

    def test_matches_brute_force_complex_vectors(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            pts = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            for p in (1.0, 2.0):
                got_v, _ = max_p_variation(pts, 2.0, p_norm=p)
                want_v, _ = brute_force_p_variation([tuple(row) for row in pts], 2.0, p=p)
                assert got_v == pytest.approx(want_v, rel=1e-10)

    def test_nondecreasing_under_extension(self):
        rng = np.random.default_rng(14)
        vals = rng.standard_normal(30)
        prev = 0.0
        for n in range(1, 31):
            cur, _ = max_p_variation(vals[:n], 2.0)
            assert cur >= prev - 1e-12
            prev = cur

    @pytest.mark.parametrize("u", [1, 2, 3, 4])
    def test_grid_matches_one_call_per_exponent(self, u):
        rng = np.random.default_rng(40 + u)
        z = Vector(rng.standard_normal(u) + 1j * rng.standard_normal(u), p=1.0 + u / 2)
        traj = ergodic_averages(RotationProduct(rng.uniform(0.0, 2.0 * np.pi, u)), z, 300)
        qs = [1.0, 1.5, 2.0, 3.0, 2.0]
        want = [max_p_variation(traj, q) for q in qs]
        for grid in (qs, tuple(qs), np.array(qs)):
            got = max_p_variation(traj, grid)
            assert [(v.hex(), w) for v, w in got] == [(v.hex(), w) for v, w in want]

    def test_grid_of_a_constant_or_one_point(self):
        qs = [1.0, 1.5, 2.0, 3.0]
        for pts in (np.zeros((6, 2)), np.array([[1.0 + 2.0j, 3.0]] * 4), [0.5]):
            assert max_p_variation(pts, qs) == [(0.0, IndexSequence((1,)))] * len(qs)

    def test_grid_exponents_pass_the_exponent_gate(self):
        pts = np.array([0.0, 1.0, 0.0])
        for empty in ([], (), np.array([])):
            with pytest.raises(InvalidInputError, match="^variation exponent sequence must be nonempty$"):
                max_p_variation(pts, empty)
        for bad in (0.5, True, "2"):
            with pytest.raises(InvalidInputError) as alone:
                max_p_variation(pts, bad)
            with pytest.raises(InvalidInputError) as in_grid:
                max_p_variation(pts, [2.0, bad])
            assert str(in_grid.value) == str(alone.value) == f"variation exponent must satisfy q >= 1, got {bad}"

    def test_zero_dimensional_array_is_one_exponent(self):
        pts = np.array([0.0, 1.0, 0.25, 0.75])
        assert max_p_variation(pts, np.array(2.0)) == max_p_variation(pts, 2.0)
        with pytest.raises(InvalidInputError, match="^variation exponent must satisfy q >= 1, got True$"):
            max_p_variation(pts, np.array(True))


class TestCountFluctuations:
    def test_frozen_alternating(self):
        rep = count_fluctuations(np.array([0.0, 1.0, 0.0, 1.0, 0.0]), 1.0)
        assert rep.count == 4
        assert rep.witnesses == ((1, 2), (2, 3), (3, 4), (4, 5))
        assert rep.epsilon == 1.0

    def test_constant_is_zero(self):
        rep = count_fluctuations(np.zeros(10), 0.25)
        assert rep.count == 0
        assert rep.witnesses == ()

    def test_witnesses_are_valid_chain(self):
        rng = np.random.default_rng(15)
        vals = rng.standard_normal(40)
        rep = count_fluctuations(vals, 0.8)
        flat = [idx for pair in rep.witnesses for idx in pair]
        assert flat == sorted(flat)  # i1 <= j1 <= i2 <= ...
        for i, j in rep.witnesses:
            assert abs(vals[j - 1] - vals[i - 1]) >= 0.8

    def test_epsilon_validation(self):
        with pytest.raises(InvalidInputError):
            count_fluctuations(np.zeros(3), 0.0)
        with pytest.raises(InvalidInputError):
            count_fluctuations(np.zeros(3), -1.0)

    def test_nan_epsilon_rejected(self):
        # NaN <= 0 is false: a NaN eps once counted 0 fluctuations and rated n = 1
        pts = np.array([0.0, 1.0, 0.0])
        for scan in (count_fluctuations, empirical_convergence_rate):
            with pytest.raises(InvalidInputError, match="separation threshold must be > 0, got nan"):
                scan(pts, math.nan)
        with pytest.raises(InvalidInputError, match="separation threshold"):
            empirical_convergence_rate([0.0], math.nan)  # one point: the scan still checks eps
        assert empirical_convergence_rate([0.0], 0.5) == ConvergenceRateResult(True, 1, 1)

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            vals = rng.choice([0.0, 0.5, 1.0], size=n)
            eps = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
            assert count_fluctuations(vals, eps).count == brute_force_fluctuations(vals, eps)

    def test_matches_brute_force_vectors(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            pts = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            for p in (1.0, 2.0, 3.0):
                got = count_fluctuations(pts, 1.0, p_norm=p).count
                want = brute_force_fluctuations([tuple(row) for row in pts], 1.0, p=p)
                assert got == want

    def test_nonincreasing_in_epsilon(self):
        rng = np.random.default_rng(18)
        vals = rng.standard_normal(60)
        counts = [count_fluctuations(vals, eps).count
                  for eps in (0.1, 0.3, 0.5, 1.0, 2.0)]
        assert counts == sorted(counts, reverse=True)

    def test_trajectory_input(self):
        op = RotationProduct(np.array([math.pi]))
        traj = ergodic_averages(op, Vector([1.0], p=2), 16)
        # alternates 1, 0, 1/3, 0, 1/5, ...: pairs at distance >= 1/3 chain
        rep = count_fluctuations(traj, 1.0 / 3.0)
        assert rep.count == brute_force_fluctuations(list(traj.points[:, 0]), 1.0 / 3.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("scale", [1e-120, 1e-170, 1e200])
    def test_extreme_scales_keep_the_fluctuation(self, p, scale):
        # neither the box bounds nor the exact distances may underflow or overflow
        for pts in ([[0.0], [scale]], [[0.0, 0.0], [scale, 0.5 * scale]]):
            rep = count_fluctuations(pts, scale / 2, p_norm=p)
            assert rep.witnesses == ((1, 2),)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_scalar_tie_at_eps_is_a_fluctuation(self, p):
        # |4 - 0| = 4 = eps in every p-norm, though (4^3)^(1/3) rounds to 3.9999999999999996
        assert count_fluctuations([0.0, 4.0], 4.0, p_norm=p).witnesses == ((1, 2),)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_two_slot_tie_at_eps_is_a_fluctuation(self, p):
        # the box bound and the exact distance both round (4^p)^(1/p) below 4
        pts = np.array([[0, 0], [4, 0], [4, 0]], dtype=np.complex128)
        assert count_fluctuations(pts[:2], 4.0, p_norm=p).witnesses == ((1, 2),)
        assert brute_force_fluctuations([tuple(r) for r in pts[:2]], 4.0, p) == 1
        assert empirical_convergence_rate(pts, 4.0, p_norm=p).n == 2
        assert brute_force_convergence_rate([tuple(r) for r in pts], 4.0, p) == 2

    def test_ball_skip_radius_is_capped_at_half_eps(self):
        # Rows 1-8 sit at -0.3 e_k, row 9 at 0.06 (1, ..., 1): its box bound
        # reaches eps = 1 but its largest true distance is D = 0.393. Rows 10
        # and 11 lie 0.55 from row 9, inside eps - D but outside eps / 2, and
        # 1.1 apart: a ball of radius eps - D would skip the fluctuation.
        u = 8
        rows = [-0.3 * np.eye(u)[k] for k in range(u)]
        centre = np.full(u, 0.06)
        rows += [centre, centre + 0.55 * np.eye(u)[0], centre - 0.55 * np.eye(u)[0]]
        pts = np.array(rows, dtype=complex)
        rep = count_fluctuations(pts, 1.0, p_norm=2.0)
        assert rep.witnesses == ((10, 11),)
        assert rep.count == brute_force_fluctuations([tuple(r) for r in pts], 1.0, p=2.0)

    @staticmethod
    def _tight_tail(monkeypatch):
        """A u = 4 rotation drawn from child 8 of SeedSequence(2026).spawn(12) by the
        benchmark's tail-family rule, and the list of rows each exact distance call takes."""
        rng = np.random.default_rng(np.random.SeedSequence(2026).spawn(12)[8])
        u = 4
        angles = rng.uniform(0.25, math.pi, u) * np.where(rng.random(u) < 0.5, -1.0, 1.0)
        z = rng.standard_normal(u) + 1j * rng.standard_normal(u)
        traj = ergodic_averages(RotationProduct(angles), Vector(z / np.linalg.norm(z), p=2), 2**16)
        counted = []
        distances_to = PointsView.distances_to

        def counting(self, j, lo, hi):
            counted.append(hi - lo)
            return distances_to(self, j, lo, hi)

        monkeypatch.setattr(PointsView, "distances_to", counting)
        return traj, counted

    def test_tight_tail_costs_linear_work(self, monkeypatch):
        # 76 fluctuations, all by index 125, then a 65k-point eps-tight tail that
        # must be certified without a quadratic number of point distances.
        traj, counted = self._tight_tail(monkeypatch)
        rep = count_fluctuations(traj, 0.02)
        assert rep.count == 76
        assert rep.witnesses[-1] == (118, 125)
        assert sum(counted) <= 175_355

    def test_tight_tail_rate_checks_only_blocks_that_reach_eps(self, monkeypatch):
        # The reversed scan crosses the 65k-point tail with exact checks of up to
        # 65k rows each: 1,772,648 distances when every row is evaluated, 76,904
        # when only the 32-row blocks whose box reaches eps (or the largest
        # distance so far) are.
        traj, counted = self._tight_tail(monkeypatch)
        assert empirical_convergence_rate(traj, 0.02) == ConvergenceRateResult(True, 121, 2**16)
        assert sum(counted) <= 76_904

    def test_batched_checks_halve_the_kernel_calls_of_a_tight_tail(self, monkeypatch):
        # The u = 2, 4,096-row case of the metastability scenario at seed 2026, at eps = 0.02:
        # 119 fluctuations by row 322, then a tail whose checks clear eps by a few per cent.
        # Checking a run of alive rows in one kernel call makes at most half the calls of
        # checking one row at a time, with the same chain.
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2026).spawn(1)[0]))
        angles = rng.uniform(0.25, math.pi, 2) * np.where(rng.uniform(size=2) < 0.5, -1.0, 1.0)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        traj = ergodic_averages(RotationProduct(angles), Vector(z / Vector(z, p=2).norm(), p=2), 4096)
        calls = []
        norm = _scan.batch_norm_p

        def counting(points, p):
            calls.append(len(points))
            return norm(points, p)

        monkeypatch.setattr(_scan, "batch_norm_p", counting)
        chains = []
        for budget in (_scan._CHUNK_FLOATS, 0):  # 0: no second row fits, so every check is one row
            view = PointsView(traj.points, 2.0)
            monkeypatch.setattr(_scan, "_CHUNK_FLOATS", budget)
            chains.append((list(_scan.greedy_chain(view, 0.02, 0, 4095)), len(calls)))
            calls.clear()
        (batched, batched_calls), (single, single_calls) = chains
        assert batched == single and len(batched) == 119 and batched[-1] == (313, 322)
        assert batched_calls <= single_calls / 2

    def test_settled_tail_is_pruned_by_chunk_boxes(self, monkeypatch):
        # A u = 2 rotation of 999,999 rows, settled at eps = 0.5 after row 4: the scan
        # certifies the tail by the boxes of doubling chunks, so about a thousand rows,
        # not one per row of the tail, pass through the norm kernel.
        rng = np.random.default_rng(2026)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        traj = ergodic_averages(RotationProduct(rng.uniform(0.25, math.pi, 2)),
                                Vector(z / np.linalg.norm(z), p=2), 999_999)
        rows = []
        norm = _scan.batch_norm_p

        def counting(points, p):
            rows.append(len(points))
            return norm(points, p)

        monkeypatch.setattr(_scan, "batch_norm_p", counting)
        rep = count_fluctuations(traj, 0.5)
        assert rep.witnesses == ((1, 2), (2, 4))
        assert sum(rows) <= 4096

    def test_settled_rate_stops_at_the_first_chunk_with_a_separated_row(self, monkeypatch):
        # The reversed scan's last exact check sets the first row against the 2^17 - 1 others,
        # all of them separated from it: it ends in the first chunk that holds one, so
        # fewer than two chunks' rows pass through the norm kernel, not every row.
        rng = np.random.default_rng(7)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        traj = ergodic_averages(RotationProduct(rng.uniform(0.25, math.pi, 2)),
                                Vector(z / np.linalg.norm(z), p=2), 2**17)
        rows = []
        norm = _scan.batch_norm_p

        def counting(points, p):
            rows.append(len(points))
            return norm(points, p)

        monkeypatch.setattr(_scan, "batch_norm_p", counting)
        assert empirical_convergence_rate(traj, 0.5) == ConvergenceRateResult(True, 2, 2**17)
        assert sum(rows) < 2 * PointsView(traj.points, 2.0).chunk == 16_384

    def test_exact_check_memory_is_bounded_by_the_trajectory(self):
        # The reversed scan makes one exact check, of the first row against the 2^17 - 1
        # others, all of them separated from it: it holds one chunk's distances, not all
        # of them at once (2.3 times the trajectory's bytes).
        rng = np.random.default_rng(7)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        traj = ergodic_averages(RotationProduct(rng.uniform(0.25, math.pi, 2)),
                                Vector(z / np.linalg.norm(z), p=2), 2**17)
        tracemalloc.start()
        try:
            rate = empirical_convergence_rate(traj, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rate == ConvergenceRateResult(True, 2, 2**17)
        assert peak < traj.points.nbytes


class TestGSelectors:
    def test_values(self):
        assert [g_successor(n) for n in (1, 2, 7)] == [2, 3, 8]
        assert [g_double(n) for n in (1, 3, 8)] == [2, 6, 16]
        assert [g_next_power_of_two(n) for n in (1, 2, 3, 4, 5, 8, 9)] == \
            [2, 4, 8, 8, 16, 16, 32]


class TestMetastabilityRate:
    def test_frozen_small(self):
        pts = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        assert metastability_rate(pts, 0.5, g_successor) == 3

    def test_constant_is_one(self):
        assert metastability_rate(np.zeros(8), 0.1, g_double) == 1

    def test_exhaustion_carries_lower_bound(self):
        pts = np.array([0.0, 1.0, 0.0, 1.0])
        with pytest.raises(HorizonExhaustedError) as info:
            metastability_rate(pts, 0.5, g_double)
        # windows [1,2] and [2,4] hold unit jumps, and the (3,4) jump also
        # sits inside [3,6], so all of n = 1..3 are verified failing even
        # though [3,6] pokes past the horizon
        assert info.value.verified_lower_bound == 4

    def test_query_validation(self):
        with pytest.raises(InvalidInputError):
            metastability_rate(np.zeros(4), 0.0, g_double)
        with pytest.raises(InvalidInputError):
            metastability_rate(np.zeros(4), 0.5, lambda n: n - 1)
        with pytest.raises(InvalidInputError):
            metastability_rate(np.zeros(4), 0.5, lambda n: float(n))

    @pytest.mark.parametrize("g", [g_successor, g_double, g_next_power_of_two])
    def test_built_in_selectors_jump_like_the_per_n_loop(self, g, monkeypatch):
        # A built-in g is non-decreasing, so the scan jumps past a hit's opener
        # without probing g; a wrapper of the same g is probed at every skipped n
        # and must give the same rate or the same exhausted bound.
        rng = np.random.default_rng(7)
        pts = ergodic_averages(RotationProduct(rng.uniform(-np.pi, np.pi, 3)),
                               Vector(rng.standard_normal(3) + 0j, p=2), 4096).points
        probes = []
        gate = variation._integer

        def counted_gate(value, name, *rest):
            probes.append(name == "g(n)")
            return gate(value, name, *rest)

        monkeypatch.setattr(variation, "_integer", counted_gate)

        def outcome(sel):
            probes.clear()
            try:
                result = ("found", metastability_rate(pts, 0.05, sel))
            except HorizonExhaustedError as exc:
                result = ("exhausted", exc.checked_up_to)
            return result, sum(probes)

        (want, per_n), (got, jumped) = outcome(lambda n: g(n)), outcome(g)
        assert got == want
        assert jumped == per_n if g is g_successor else jumped < per_n  # a hit in [n, n + 1] opens at n

    def test_matches_brute_force_randomized(self):
        # The last two selectors are not built in, so skipped window starts are probed:
        # one is not monotone (g(1) = 4, g(2) = 3), one wraps g_double.
        rng = np.random.default_rng(19)
        gs = {"succ": g_successor, "dbl": g_double, "pow2": g_next_power_of_two,
              "zigzag": lambda k: k + 1 + 2 * (k % 2), "dbl-wrapped": lambda k: g_double(k)}
        for _ in range(500):
            n = int(rng.integers(1, 16))
            vals = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
            eps = float(rng.choice([0.25, 0.5, 1.0]))
            g = gs[str(rng.choice(list(gs)))]
            want = brute_force_metastability(vals, eps, g)
            try:
                got = ("found", metastability_rate(vals, eps, g))
            except HorizonExhaustedError as exc:
                got = ("exhausted", exc.verified_lower_bound)
            if want[0] == "found":
                assert got == want
            else:
                # the scan may verify extra window starts through pairs it
                # already holds, so its lower bound can only be stronger
                assert got[0] == "exhausted" and got[1] >= want[1]


class TestConversion:
    def test_frozen(self):
        assert metastability_from_fluctuations(0, g_double) == 1
        assert metastability_from_fluctuations(2, g_double) == 4
        assert metastability_from_fluctuations(4, g_next_power_of_two) == 16
        assert metastability_from_fluctuations(3, g_successor) == 4

    def test_overflow_guard(self):
        with pytest.raises(CountOverflowError):
            metastability_from_fluctuations(64, g_double)

    def test_built_in_selectors_take_their_closed_forms(self):
        assert metastability_from_fluctuations(10**6, g_successor) == 10**6 + 1
        for count in (2**63 - 1, 10**30):  # the loop would take 2^63 steps
            with pytest.raises(CountOverflowError, match="^g-iteration left the 64-bit range at 9223372036854775808$"):
                metastability_from_fluctuations(count, g_successor)
        assert metastability_from_fluctuations(2**63 - 2, g_successor) == 2**63 - 1

    @pytest.mark.parametrize("g", [g_successor, g_double, g_next_power_of_two])
    def test_closed_forms_match_the_loop(self, g):
        def as_callable(n):  # the same selector, not recognised, so iterated
            return g(n)
        for count in range(70):
            try:
                want = metastability_from_fluctuations(count, as_callable)
            except CountOverflowError as exc:
                with pytest.raises(CountOverflowError, match=f"^{re.escape(str(exc))}$"):
                    metastability_from_fluctuations(count, g)
            else:
                assert metastability_from_fluctuations(count, g) == want

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            metastability_from_fluctuations(-1, g_double)
        with pytest.raises(InvalidInputError):
            metastability_from_fluctuations(2, lambda n: n - 1)

    def test_bounds_actual_rate(self):
        # t(eps, g) <= g^s(1) whenever the rate resolves within horizon
        rng = np.random.default_rng(20)
        for _ in range(100):
            n = int(rng.integers(2, 14))
            vals = rng.choice([0.0, 0.5, 1.0], size=n)
            eps = float(rng.choice([0.5, 1.0]))
            s = count_fluctuations(vals, eps).count
            bound = metastability_from_fluctuations(s, g_successor)
            try:
                rate = metastability_rate(vals, eps, g_successor)
            except HorizonExhaustedError:
                continue
            assert rate <= bound


class TestEmpiricalConvergenceRate:
    def test_frozen_examples(self):
        res = empirical_convergence_rate(np.array([1.0, 0.0, 0.0, 0.0]), 0.5)
        assert (res.found, res.n) == (True, 2)
        res = empirical_convergence_rate(np.zeros(6), 0.1)
        assert (res.found, res.n) == (True, 1)

    def test_tail_pair_failure_is_not_found(self):
        res = empirical_convergence_rate(np.array([0.0, 1.0]), 0.5)
        assert not res.found
        assert res.n is None

    def test_alternating_rotation_frozen(self):
        # averages alternate 1/n and 0; [10, 100] is clean since the widest
        # gap inside is 1/11 < 0.1, while a_9 = 1/9 >= 0.1 dirties [9, 100]
        op = RotationProduct(np.array([math.pi]))
        traj = ergodic_averages(op, Vector([1.0], p=2), 100)
        res = empirical_convergence_rate(traj, 0.1)
        assert (res.found, res.n) == (True, 10)
        assert res.horizon == 100

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            vals = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
            eps = float(rng.choice([0.25, 0.5, 0.75]))
            res = empirical_convergence_rate(vals, eps)
            got = res.n if res.found else None
            assert got == brute_force_convergence_rate(vals, eps)

    def test_hierarchy_with_metastability(self):
        # a clean tail [n, horizon] makes every in-horizon window from n clean
        rng = np.random.default_rng(22)
        hits = 0
        for _ in range(200):
            vals = rng.standard_normal(20) * np.linspace(1, 0.05, 20)
            res = empirical_convergence_rate(vals, 0.4)
            if not res.found:
                continue
            for g in (g_successor, g_double):
                if g(res.n) <= 20:
                    rate = metastability_rate(vals, 0.4, g)
                    assert rate <= res.n
                    hits += 1
        assert hits > 50  # the property must actually have been exercised
