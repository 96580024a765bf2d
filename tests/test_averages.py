"""Orbits, ergodic averages, and the rotation closed form."""

import cmath
import math

import numpy as np
import pytest

from ergolab import (
    AverageTrajectory,
    CyclicShift,
    DenseMatrix,
    DimensionMismatchError,
    RotationProduct,
    apply_power,
    ergodic_averages,
    orbit,
    rotation_average_closed_form,
    vector,
)


def _naive_averages(op, x, n):
    acc = np.zeros((n, x.dim), dtype=complex)
    running = np.zeros(x.dim, dtype=complex)
    for i in range(n):
        running = running + apply_power(op, i, x).components
        acc[i] = running / (i + 1)
    return acc


def test_orbit_starts_at_x():
    op = RotationProduct(np.array([0.7]))
    x = vector([2.0], p=2)
    tr = orbit(op, x, 5)
    assert np.allclose(tr[0], [2.0])
    assert np.allclose(tr[1], [2.0 * cmath.exp(0.7j)])


def test_orbit_dimension_mismatch_is_a_dimension_error():
    op = RotationProduct(np.array([0.7, 0.1]))
    x = vector([2.0], p=2)
    for build in (orbit, ergodic_averages):
        with pytest.raises(DimensionMismatchError, match="operator dimension 2 != vector dimension 1"):
            build(op, x, 5)


def test_averages_match_naive_sum():
    rng = np.random.default_rng(4)
    ops = [
        RotationProduct(rng.uniform(-math.pi, math.pi, 3)),
        CyclicShift(3),
        DenseMatrix(rng.standard_normal((6, 6)) * 0.4),
    ]
    for op in ops:
        x = vector(rng.standard_normal(3) + 1j * rng.standard_normal(3), p=2)
        traj = ergodic_averages(op, x, 24)
        assert np.allclose(traj.points, _naive_averages(op, x, 24), atol=1e-12)


def test_trajectory_accessors():
    op = RotationProduct(np.array([math.pi]))
    x = vector([1.0], p=2)
    traj = ergodic_averages(op, x, 6)
    assert len(traj) == 6
    assert traj.horizon == 6
    # A_1 = x, A_2 = (x + Tx)/2 = 0 for the half-turn
    assert np.allclose(traj.point(1).components, [1.0])
    assert np.allclose(traj.point(2).components, [0.0])
    norms = traj.norms()
    assert norms[0] == pytest.approx(1.0)
    assert norms[1] == pytest.approx(0.0, abs=1e-15)
    short = traj.truncated(3)
    assert short.horizon == 3
    assert np.allclose(short.points, traj.points[:3])


def test_trajectory_copies_arrays_the_caller_can_write():
    pts = np.ones((4, 2), dtype=complex)
    frozen_view = pts[:3]
    frozen_view.flags.writeable = False  # read-only, but pts still writes it
    trajs = [AverageTrajectory(a, 2.0, CyclicShift(2), vector([1, 1], p=2))
             for a in (pts, frozen_view)]
    pts[0, 0] = 9.0
    for traj in trajs:
        assert traj.points[0, 0] == 1.0
        assert not traj.points.flags.writeable
    # a read-only prefix of a trajectory's own points is shared, not copied
    full = ergodic_averages(CyclicShift(2), vector([1, 0], p=2), 8)
    assert np.shares_memory(full.truncated(3).points, full.points)


def test_alternating_average_frozen():
    # theta = pi: A_n = (1 - (-1)^n) / (2n), so 1, 0, 1/3, 0, 1/5, ...
    op = RotationProduct(np.array([math.pi]))
    traj = ergodic_averages(op, vector([1.0], p=2), 8)
    expected = [(1 - (-1) ** n) / (2 * n) for n in range(1, 9)]
    assert np.allclose(traj.points[:, 0], expected, atol=1e-14)


def test_closed_form_matches_averages():
    for theta in (0.0, 1e-9, 0.3, math.pi / 2, math.pi, 2 * math.pi, -2.2):
        op = RotationProduct(np.array([theta]))
        traj = ergodic_averages(op, vector([1.0], p=2), 50)
        for n in (1, 2, 7, 50):
            want = rotation_average_closed_form(theta, n)
            assert traj.point(n).components[0] == pytest.approx(want, abs=1e-12)


def test_closed_form_full_turn_is_one():
    # multiples of 2*pi are fixed points: average stays exactly 1
    assert rotation_average_closed_form(0.0, 9) == 1.0 + 0.0j
    assert rotation_average_closed_form(2 * math.pi, 5) == 1.0 + 0.0j
    assert rotation_average_closed_form(-4 * math.pi, 3) == 1.0 + 0.0j


def test_vanishing_at_even_multiples():
    # theta = pi/k makes A_{2k} exactly 0: e^(i*2k*theta) = 1
    for k in range(1, 13):
        theta = math.pi / k
        got = rotation_average_closed_form(theta, 2 * k)
        assert abs(got) <= 1e-12


def test_cyclic_shift_spreading():
    op, x = CyclicShift(4), vector([1, 0, 0, 0], p=1)
    traj = ergodic_averages(op, x, 4)
    assert np.allclose(traj.point(2).components, [0.5, 0.5, 0, 0])
    assert np.allclose(traj.point(4).components, [0.25] * 4)


def test_one_block_is_plain_cumsum_bit_for_bit():
    rng = np.random.default_rng(8)
    u = 3
    x = vector(rng.standard_normal(u) + 1j * rng.standard_normal(u), p=2)
    q, r = np.linalg.qr(rng.standard_normal((2 * u, 2 * u)))
    ops = [RotationProduct(rng.uniform(-math.pi, math.pi, u)), CyclicShift(u),
           DenseMatrix(q * np.sign(np.diag(r)))]
    for op in ops:
        for n in (1, 77, 2**16):
            rows = orbit(op, x, n)
            want = np.cumsum(rows, axis=0) / np.arange(1, n + 1, dtype=np.float64)[:, None]
            assert np.array_equal(ergodic_averages(op, x, n).points, want)


def test_blocked_sum_matches_closed_form_across_blocks():
    angles = np.array([0.9, -2.1, 1e-3])
    n = 3 * 2**16 + 5
    traj = ergodic_averages(RotationProduct(angles), vector([1.0, 1.0, 1.0], p=2), n)
    edges = [k * 2**16 + d for k in (1, 2, 3) for d in (-1, 0, 1, 2)]
    for m in sorted({1, 2, 3, n, *edges, *range(1, n + 1, 4099)}):
        want = [rotation_average_closed_form(t, m) for t in angles]
        assert np.abs(traj.point(m).components - want).max() <= 1e-11, m


def test_dense_blocks_match_naive_sum():
    # 3 blocks of 64 orbit rows and a partial fourth
    rng = np.random.default_rng(4)
    q, r = np.linalg.qr(rng.standard_normal((6, 6)))
    n = 3 * 64 + 5
    for mat in (q * np.sign(np.diag(r)), rng.standard_normal((6, 6)) * 0.4):
        op = DenseMatrix(mat)
        x = vector(rng.standard_normal(3) + 1j * rng.standard_normal(3), p=2)
        want = _naive_averages(op, x, n)
        assert np.allclose(ergodic_averages(op, x, n).points, want, rtol=1e-12, atol=1e-12)
