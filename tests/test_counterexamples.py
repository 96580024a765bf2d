"""Lower-bound witness families: rotations per dyadic band, cyclic shift."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from ergolab import (
    CyclicShift,
    HorizonExhaustedError,
    InvalidInputError,
    Vector,
    build_rotation_counterexample,
    ergodic_averages,
    fluctuation_in_dyadic_interval,
    verify_metastability_lower_bound,
)


class TestRotationBuilder:
    def test_angles_halve(self):
        built = build_rotation_counterexample(2.0, 4)
        np.testing.assert_allclose(
            built.operator.angles, [math.pi, math.pi / 2, math.pi / 4, math.pi / 8]
        )

    def test_start_point_is_unit(self):
        for p, u in ((2.0, 4), (3.0, 8), (2.5, 5)):
            built = build_rotation_counterexample(p, u)
            assert built.x.norm() == pytest.approx(1.0, rel=1e-14)
            assert built.x.p == p
            np.testing.assert_allclose(
                built.x.components, np.full(u, u ** (-1.0 / p)), rtol=1e-15
            )

    def test_eps_matches_coordinate_scale(self):
        built = build_rotation_counterexample(2.0, 4)
        assert built.eps == pytest.approx(0.25)
        built = build_rotation_counterexample(3.0, 8)
        assert built.eps == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            build_rotation_counterexample(1.5, 4)
        with pytest.raises(InvalidInputError):
            build_rotation_counterexample(2.0, 0)

    def test_angles_past_1024_slots_underflow_without_a_warning(self):
        # pi / 2^k overflowed 2^k from k = 1,024, and slots 1,025-1,075 got angle 0
        angles = build_rotation_counterexample(2.0, 1100).operator.angles  # RuntimeWarnings are errors here
        k = np.arange(1024, dtype=np.float64)
        assert angles[:1024].tobytes() == (math.pi / np.exp2(k)).tobytes()
        assert angles[1024] == math.ldexp(math.pi, -1024) and angles[1074] == math.ldexp(math.pi, -1074) > 0.0
        assert np.all(angles[1:] <= angles[:-1]) and angles[-1] == 0.0


class TestDyadicIntervalFluctuation:
    def test_every_band_up_to_u_fluctuates(self):
        built = build_rotation_counterexample(2.0, 4)
        traj = ergodic_averages(built.operator, built.x, 16)
        for k in range(1, 5):
            assert fluctuation_in_dyadic_interval(traj, built.eps, k)

    def test_flat_trajectory_has_none(self):
        # angle-zero rotations leave the start point fixed
        op = build_rotation_counterexample(2.0, 2).operator
        flat = ergodic_averages(
            type(op)(np.zeros(2)), build_rotation_counterexample(2.0, 2).x, 8
        )
        assert not fluctuation_in_dyadic_interval(flat, 0.25, 2)

    def test_validation(self):
        built = build_rotation_counterexample(2.0, 2)
        traj = ergodic_averages(built.operator, built.x, 8)
        with pytest.raises(InvalidInputError):
            fluctuation_in_dyadic_interval(traj, 0.25, 0)
        with pytest.raises(InvalidInputError, match="separation threshold"):
            fluctuation_in_dyadic_interval(traj, math.nan, 3)
        with pytest.raises(HorizonExhaustedError) as info:
            fluctuation_in_dyadic_interval(traj, 0.25, 4)  # [8, 16] > horizon 8
        assert info.value.checked_up_to == 8

    @pytest.mark.parametrize("k, interval", [
        (4, "[8, 16]"), (5, "[16, 32]"),  # up to 4 x horizon the ends are numbers
        (6, "[2^5, 2^6]"), (20_000, "[2^19999, 2^20000]"),  # past it, powers that are never built
    ])
    def test_interval_past_the_horizon(self, k, interval):
        built = build_rotation_counterexample(2.0, 2)
        traj = ergodic_averages(built.operator, built.x, 8)
        with pytest.raises(HorizonExhaustedError, match=f"^interval {re.escape(interval)} exceeds horizon 8$"):
            fluctuation_in_dyadic_interval(traj, 0.25, k)


def _shift_at_e1(u):
    """The cyclic shift on u coordinates and e_1 in the 1-norm."""
    e1 = np.zeros(u, dtype=np.complex128)
    e1[0] = 1.0
    return CyclicShift(u), Vector(e1, p=1.0)


class TestCyclicShiftFamily:
    """The 2^k-th average spreads mass 2^(-k) over the first 2^k coordinates
    (for 2^k <= u), so consecutive power-of-two averages differ by exactly 1
    in the 1-norm: no u-independent variation constant exists in l^1."""

    def test_power_of_two_averages_stay_separated(self):
        op, x = _shift_at_e1(16)
        traj = ergodic_averages(op, x, 16)
        for k in range(0, 4):
            d = Vector(traj.point(2 ** (k + 1)).components - traj.point(2**k).components, x.p)
            assert d.norm() == pytest.approx(1.0, abs=1e-12)

    def test_average_values(self):
        op, x = _shift_at_e1(8)
        traj = ergodic_averages(op, x, 8)
        np.testing.assert_allclose(
            traj.point(4).components, [0.25] * 4 + [0.0] * 4, atol=1e-15
        )


class TestVerifier:
    def test_frozen_p2(self):
        res = verify_metastability_lower_bound(2)
        assert (res.p, res.u, res.horizon, res.eps) == (2, 4, 16, 0.25)
        assert res.rate_exhausted
        assert res.rate_lower_bound == 11
        assert res.fluctuation_count == 6
        assert res.required == 4
        assert res.rate_lower_bound >= res.required
        assert res.fluctuation_count >= res.required

    def test_frozen_p3(self):
        res = verify_metastability_lower_bound(3)
        assert (res.p, res.u, res.horizon) == (3, 8, 256)
        assert res.rate_exhausted
        assert res.rate_lower_bound == 157
        assert res.fluctuation_count == 12
        assert res.required == 8

    def test_rate_found_inside_a_longer_horizon(self):
        res = verify_metastability_lower_bound(2, horizon=32)
        assert (res.horizon, res.rate_exhausted, res.rate_lower_bound) == (32, False, 11)
        assert res.fluctuation_count == 6

    def test_short_horizon_still_reports(self):
        res = verify_metastability_lower_bound(2, horizon=8)
        assert res.horizon == 8
        assert res.rate_exhausted
        assert 1 <= res.rate_lower_bound <= 9

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            verify_metastability_lower_bound(1)

    @pytest.mark.parametrize("call, text", [
        (lambda: verify_metastability_lower_bound(64),
         "horizon 2^18446744073709551616 * dimension 18446744073709551616 exceeds the cap of 16777216 "
         "trajectory slots"),
        (lambda: verify_metastability_lower_bound(65),
         "horizon 2^2^65 * dimension 2^65 exceeds the cap of 16777216 trajectory slots"),
        (lambda: verify_metastability_lower_bound(24, 2),
         "horizon 2 * dimension 16777216 exceeds the cap of 16777216 trajectory slots"),
        (lambda: build_rotation_counterexample(2.0, 2**40), "u 1099511627776 outside [1, 16777216]"),
        (lambda: build_rotation_counterexample(2.0, 10**8), "u 100000000 outside [1, 16777216]"),
    ], ids=["p64", "p65", "p24-horizon2", "u2^40", "u10^8"])
    def test_families_past_the_slot_cap_are_rejected_before_any_array(self, call, text):
        # p = 24 used to build a 2^24-bit horizon and 2^24-slot arrays first (689 MB peak RSS);
        # u = 10^8 failed allocating 1.49 GiB in numpy
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match=f"^{re.escape(text)}$"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_default_horizon_past_the_slot_cap_is_rejected(self):
        # p = 5: 2^32 rows of 32 slots, which used to fail allocating 32 GiB in numpy
        with pytest.raises(InvalidInputError, match=re.escape(
                "horizon 4294967296 * dimension 32 exceeds the cap of 16777216 trajectory slots")):
            verify_metastability_lower_bound(5)
