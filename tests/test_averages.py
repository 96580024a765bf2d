"""Orbits, ergodic averages, and the rotation closed form."""

import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest

from ergolab import (
    AverageTrajectory,
    CyclicShift,
    DenseMatrix,
    DimensionMismatchError,
    InvalidInputError,
    RotationProduct,
    Vector,
    ergodic_averages,
    orbit,
    rotation_average_closed_form,
)

from ergolab import averages
from oracles import ref_orbit


def _naive_averages(op, x, n):
    rows = ref_orbit(op, x.components, n)
    acc = np.zeros((n, x.dim), dtype=complex)
    running = np.zeros(x.dim, dtype=complex)
    for i in range(n):
        running = running + rows[i]
        acc[i] = running / (i + 1)
    return acc


def test_orbit_starts_at_x():
    op = RotationProduct(np.array([0.7]))
    x = Vector([2.0], p=2)
    tr = orbit(op, x, 5)
    assert np.allclose(tr[0], [2.0])
    assert np.allclose(tr[1], [2.0 * cmath.exp(0.7j)])


def test_orbit_dimension_mismatch_is_a_dimension_error():
    op = RotationProduct(np.array([0.7, 0.1]))
    x = Vector([2.0], p=2)
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
        x = Vector(rng.standard_normal(3) + 1j * rng.standard_normal(3), p=2)
        traj = ergodic_averages(op, x, 24)
        assert np.allclose(traj.points, _naive_averages(op, x, 24), atol=1e-12)


def test_trajectory_accessors():
    op = RotationProduct(np.array([math.pi]))
    x = Vector([1.0], p=2)
    traj = ergodic_averages(op, x, 6)
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


def test_overflowing_dense_orbit_is_rejected():
    # 2^1024 overflows: the orbit and its averages hold inf and NaN from about row 1,024
    with np.errstate(all="ignore"), pytest.raises(InvalidInputError, match="points must be finite"):
        ergodic_averages(DenseMatrix(2.0 * np.eye(2)), Vector([1], p=2), 1100)


@pytest.mark.parametrize("u, n", [(1, 2**19), (2, 2**18), (4, 2**17), (1, 2**17), (2, 2**17)])
def test_rotation_averages_hold_one_orbit_sized_array(u, n):
    # the orbit is built in place and averaged in place: no second array of its size; the
    # table's phases r theta and the running sum's divisors come 2^12 rows at a time, and each
    # later block is one product written into the orbit, so no column of even a block's length
    tracemalloc.start()
    try:
        traj = ergodic_averages(RotationProduct(np.linspace(-2.0, 3.0, u)), Vector(np.ones(u), p=2), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * traj.points.nbytes


@pytest.mark.parametrize("op, n, shown", [
    (RotationProduct([0.3]), 10**12, "1000000000000 * dimension 1"),
    (CyclicShift(2), 2**23 + 1, "8388609 * dimension 2"),
    (DenseMatrix(np.eye(2)), 10**5000, "a 16610-bit integer * dimension 1"),
], ids=["rotation", "shift", "dense"])
def test_orbits_past_the_slot_cap_are_rejected_before_any_array(op, n, shown):
    # 10^12 rows used to reach numpy and fail allocating 7.28 TiB
    text = f"horizon {shown} exceeds the cap of 16777216 trajectory slots"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(text)}$"):
        ergodic_averages(op, Vector(np.ones(op.dim), p=2), n)


def test_an_orbit_at_the_slot_cap_is_built():
    class Counting:  # an operator that reports the rows it was asked for instead of building them
        dim = 2

        def orbit(self, z, n):
            return n

    assert orbit(Counting(), Vector([1, 1], p=2), 2**23) == 2**23


def test_trajectory_copies_arrays_the_caller_can_write():
    pts = np.ones((4, 2), dtype=complex)
    frozen_view = pts[:3]
    frozen_view.flags.writeable = False  # read-only, but pts still writes it
    trajs = [AverageTrajectory(a, 2.0, CyclicShift(2), Vector([1, 1], p=2))
             for a in (pts, frozen_view)]
    pts[0, 0] = 9.0
    for traj in trajs:
        assert traj.points[0, 0] == 1.0
        assert not traj.points.flags.writeable
    # a read-only prefix of a trajectory's own points is shared, not copied
    full = ergodic_averages(CyclicShift(2), Vector([1, 0], p=2), 8)
    assert np.shares_memory(full.truncated(3).points, full.points)


def test_alternating_average_frozen():
    # theta = pi: A_n = (1 - (-1)^n) / (2n), so 1, 0, 1/3, 0, 1/5, ...
    op = RotationProduct(np.array([math.pi]))
    traj = ergodic_averages(op, Vector([1.0], p=2), 8)
    expected = [(1 - (-1) ** n) / (2 * n) for n in range(1, 9)]
    assert np.allclose(traj.points[:, 0], expected, atol=1e-14)


def test_closed_form_matches_averages():
    for theta in (0.0, 1e-9, 0.3, math.pi / 2, math.pi, 2 * math.pi, -2.2):
        op = RotationProduct(np.array([theta]))
        traj = ergodic_averages(op, Vector([1.0], p=2), 50)
        for n in (1, 2, 7, 50):
            want = rotation_average_closed_form(theta, n)
            assert traj.point(n).components[0] == pytest.approx(want, abs=1e-12)


def test_closed_form_full_turn_is_one():
    # multiples of 2*pi are fixed points: average stays exactly 1
    assert rotation_average_closed_form(0.0, 9) == 1.0 + 0.0j
    assert rotation_average_closed_form(2 * math.pi, 5) == 1.0 + 0.0j
    assert rotation_average_closed_form(-4 * math.pi, 3) == 1.0 + 0.0j


@pytest.mark.parametrize("theta, n", [(1e300, 2**1000), (0.5, 2**2000), (0.5, 2**1024 - 1)],
                         ids=["turn-overflows", "n-past-the-doubles", "n-rounds-past-the-doubles"])
def test_closed_form_rejects_a_turn_past_the_doubles(theta, n):
    # once a ValueError (sin of inf) and an OverflowError (n as a float)
    message = f"n*theta/2 is not a finite double: theta = {theta!r}, n of {n.bit_length()} bits"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        rotation_average_closed_form(theta, n)


def test_closed_form_at_a_huge_n_and_finite_turn():
    # a = n*theta/2 = 5.36...: at so small an angle the average is sin(a)/a * e^(ia)
    a = 2**1000 * 0.5e-300
    assert rotation_average_closed_form(1e-300, 2**1000) == pytest.approx(math.sin(a) / a * cmath.exp(1j * a), rel=1e-12)


def test_vanishing_at_even_multiples():
    # theta = pi/k makes A_{2k} exactly 0: e^(i*2k*theta) = 1
    for k in range(1, 13):
        theta = math.pi / k
        got = rotation_average_closed_form(theta, 2 * k)
        assert abs(got) <= 1e-12


def test_cyclic_shift_spreading():
    op, x = CyclicShift(4), Vector([1, 0, 0, 0], p=1)
    traj = ergodic_averages(op, x, 4)
    assert np.allclose(traj.point(2).components, [0.5, 0.5, 0, 0])
    assert np.allclose(traj.point(4).components, [0.25] * 4)


def test_one_block_is_plain_cumsum_bit_for_bit():
    rng = np.random.default_rng(8)
    u = 3
    x = Vector(rng.standard_normal(u) + 1j * rng.standard_normal(u), p=2)
    q, r = np.linalg.qr(rng.standard_normal((2 * u, 2 * u)))
    ops = [RotationProduct(rng.uniform(-math.pi, math.pi, u)), CyclicShift(u),
           DenseMatrix(q * np.sign(np.diag(r)))]
    for op in ops:
        for n in (1, 77, 2**16):
            rows = orbit(op, x, n)
            want = np.cumsum(rows, axis=0) / np.arange(1, n + 1, dtype=np.float64)[:, None]
            assert np.array_equal(ergodic_averages(op, x, n).points, want)


def _one_cumsum_per_block(rows):
    """`averages._running_averages` with each 2^16-row block summed by one np.cumsum."""
    total = carry = np.zeros(rows.shape[1], dtype=complex)
    for start in range(0, rows.shape[0], 2**16):
        block = rows[start:start + 2**16]
        np.cumsum(block, axis=0, out=block)
        y = block[-1] - carry
        if start:
            block += total
        block /= np.arange(start + 1, start + 1 + block.shape[0], dtype=np.float64)[:, None]
        t = total + y
        total, carry = t, (t - total) - y


@pytest.mark.parametrize("u", [1, 2, 3, 16, 64])
def test_pieces_of_a_block_sum_as_one_cumsum_bit_for_bit(u):
    # A block is summed in pieces of max(256, 2^14 / u) rows; horizons end on either side
    # of piece edges and, up to u = 16, past the first block edge.
    piece = max(256, 2**14 // u)
    rng = np.random.default_rng(u)
    for n in (piece - 1, piece, piece + 1, 3 * piece + 2, *([2**16 + piece + 1] if u <= 16 else [])):
        rows = rng.standard_normal((n, u)) + 1j * rng.standard_normal((n, u))
        want = rows.copy()
        _one_cumsum_per_block(want)
        averages._running_averages(rows)
        assert rows.tobytes() == want.tobytes(), n


def test_blocked_sum_matches_closed_form_across_blocks():
    angles = np.array([0.9, -2.1, 1e-3])
    n = 3 * 2**16 + 5
    traj = ergodic_averages(RotationProduct(angles), Vector([1.0, 1.0, 1.0], p=2), n)
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
        x = Vector(rng.standard_normal(3) + 1j * rng.standard_normal(3), p=2)
        want = _naive_averages(op, x, n)
        assert np.allclose(ergodic_averages(op, x, n).points, want, rtol=1e-12, atol=1e-12)
