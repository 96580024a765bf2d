"""Operator construction, orbits against an independent reference, and power-bound certificates."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ergolab import (
    CyclicShift,
    DenseMatrix,
    DimensionMismatchError,
    InvalidInputError,
    PowerBoundCertificate,
    RotationProduct,
    Vector,
    orbit,
)

from ergolab.spaces import MAX_TRAJECTORY_SLOTS
from oracles import ref_orbit

_KINDS = ["rotation", "shift", "dense"]


def _operator(kind, u, rng):
    if kind == "rotation":
        return RotationProduct(rng.uniform(-math.pi, math.pi, u))
    if kind == "shift":
        return CyclicShift(u)
    g = rng.standard_normal((2 * u, 2 * u))
    return DenseMatrix(0.95 * g / np.linalg.norm(g, 2))


def test_rotation_orbit_frozen():
    op = RotationProduct(np.array([math.pi, math.pi / 2]))
    rows = orbit(op, Vector([1.0, 1.0], p=2), 2)
    assert np.allclose(rows[1], [-1.0, 1j], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 4, 5, 6, 63, 64, 65, 128, 3 * 64 + 5])
def test_orbit_rows_match_the_reference(n):
    # the rotation and the shift bit for bit, the shift past its period u = 5; the dense
    # matrices past their 64-row blocks, within the rounding of T^64 against single steps
    rng = np.random.default_rng(23)
    u = 5
    z = rng.standard_normal(u) + 1j * rng.standard_normal(u)
    q, r = np.linalg.qr(rng.standard_normal((2 * u, 2 * u)))
    g = rng.standard_normal((2 * u, 2 * u))
    for op in (RotationProduct(rng.uniform(-math.pi, math.pi, u)), CyclicShift(u)):
        assert op.orbit(z, n).tobytes() == ref_orbit(op, z, n).tobytes()
    for op in (DenseMatrix(q * np.sign(np.diag(r))), DenseMatrix(0.95 * g / np.linalg.norm(g, 2))):
        assert np.abs(op.orbit(z, n) - ref_orbit(op, z, n)).max() <= 1e-12 * np.abs(z).max()


def test_rotation_orbit_is_the_outer_product_expression_bit_for_bit():
    # built in place: one complex array, exp and the start vector applied to it; past 2^16
    # rows the table rows 0 .. 2^16 - 1 keep these bits
    rng = np.random.default_rng(18)
    for long in [None] * 200 + [2**16, 2**16 + 1, 2**17 - 1, 2**17, 2**17 + 1, 3 * 2**16 + 5]:
        u, n = int(rng.integers(1, 6)), int(rng.integers(1, 2000))
        n = long or n
        op = RotationProduct(rng.uniform(-10.0, 10.0, u) * 10.0 ** rng.integers(-8, 4, u))
        z = rng.standard_normal(u) + 1j * rng.standard_normal(u)
        assert op.orbit(z, n)[:2**16].tobytes() == ref_orbit(op, z, min(n, 2**16)).tobytes()


@pytest.mark.parametrize("u", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("theta", [0.0, 2 * math.pi, -2 * math.pi, 1e-8, -1e-8, 0.7, -3.0, 1e4, -1e4])
def test_rotation_orbit_rows_past_the_table_are_within_a_few_ulps(u, theta):
    # row s + r is the table's e^(i r theta) times e^(i s theta) z: against the direct
    # e^(i k theta) z the rounded phases differ by at most 2^-52 |k theta|, and the exps and
    # products add a few ulps of the row; every row is checked, each block edge +-1 included
    rng = np.random.default_rng(22)
    n = 3 * 2**16 + 5
    op = RotationProduct(np.concatenate([[theta], rng.choice([-1.0, 1.0], u - 1) * 10.0 ** rng.uniform(-8, 4, u - 1)]))
    z = rng.standard_normal(u) + 1j * rng.standard_normal(u)
    err = np.abs(op.orbit(z, n) - ref_orbit(op, z, n))
    phase = np.abs(np.outer(np.arange(n, dtype=np.float64), op.angles))
    assert np.all(err <= (2.0**-51 * phase + 2.0**-50) * np.abs(z))


@pytest.mark.parametrize("kind", _KINDS)
def test_orbit_restarts_from_any_row(kind):
    # T^(k + r) z = T^r (T^k z): an orbit restarted from row k is the tail of the whole
    # orbit, across DenseMatrix's 64-row blocks and past CyclicShift's period u = 5
    rng = np.random.default_rng(24)
    u, n = 5, 3 * 64 + 5
    op = _operator(kind, u, rng)
    z = rng.standard_normal(u) + 1j * rng.standard_normal(u)
    rows = op.orbit(z, n)
    for k in (1, 4, 5, 63, 64, 65, 130):
        tail = op.orbit(rows[k].copy(), n - k)
        assert np.abs(tail - rows[k:]).max() <= 1e-12 * np.abs(z).max()
        if kind == "shift":
            assert tail.tobytes() == rows[k:].tobytes()


@pytest.mark.parametrize("kind", _KINDS)
def test_dimension_checks(kind):
    op = _operator(kind, 3, np.random.default_rng(0))
    with pytest.raises(DimensionMismatchError, match=r"^operator dimension 3 != vector dimension 2$"):
        orbit(op, Vector([1.0, 2.0], p=1), 1)


def test_orbit_slot_cap():
    # refused before anything is allocated, whatever the kind
    n = MAX_TRAJECTORY_SLOTS // 4 + 1
    message = f"^horizon {n} \\* dimension 4 exceeds the cap of {MAX_TRAJECTORY_SLOTS} trajectory slots$"
    for kind in _KINDS:
        with pytest.raises(InvalidInputError, match=message):
            orbit(_operator(kind, 4, np.random.default_rng(0)), Vector(np.ones(4), p=2), n)


def test_cyclic_shift_moves_basis():
    rows = orbit(CyclicShift(4), Vector([1, 0, 0, 0], p=1), 7)
    assert np.array_equal(rows[1], [0, 1, 0, 0])
    # wraps around after dim steps
    assert np.array_equal(rows[4], [1, 0, 0, 0])
    assert np.array_equal(rows[6], [0, 0, 1, 0])


def test_cyclic_shift_orbit_builds_only_the_rows_it_needs():
    # the period table was u x u whatever n was: a 2-row orbit at u = 1024 peaked at 25 MB
    u = 1024
    op = CyclicShift(u)
    z = np.arange(u) * (1.0 + 0.5j)
    for n in (1, 2, u - 1, u, u + 1, 3 * u + 5):
        assert op.orbit(z, n).tobytes() == ref_orbit(op, z, n).tobytes()
    tracemalloc.start()
    try:
        rows = op.orbit(z, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * rows.nbytes


def test_isometries_preserve_norm():
    rng = np.random.default_rng(2)
    rot = RotationProduct(rng.uniform(-math.pi, math.pi, 3))
    shift = CyclicShift(5)
    for p in (1.0, 2.0, 3.0):
        for op in (rot, shift):
            v = Vector(rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim), p=p)
            for row in orbit(op, v, 7)[1:]:
                assert Vector(row, p=p).norm() == pytest.approx(v.norm(), rel=1e-12)


def test_isometry_certificates_are_class_constants():
    exact = PowerBoundCertificate(1.0, 1.0, math.inf)
    for op in (RotationProduct(np.array([0.1])), CyclicShift(3)):
        assert op.certificate == exact
        assert "certificate" not in {field.name for field in dataclasses.fields(op)}
    # no caller can state another certificate for an isometry
    false = PowerBoundCertificate(0.5, 0.5, 1)
    with pytest.raises(TypeError):
        RotationProduct(np.array([0.1]), certificate=false)
    with pytest.raises(TypeError):
        CyclicShift(3, false)


def test_certificate_validation():
    with pytest.raises(InvalidInputError):
        PowerBoundCertificate(0.0, 1.0, 4)
    with pytest.raises(InvalidInputError):
        PowerBoundCertificate(2.0, 1.0, 4)
    with pytest.raises(InvalidInputError):
        PowerBoundCertificate(1.0, 1.0, 0)


class TestDenseMatrix:
    def test_real_representation_multiplies_complex(self):
        # matrix i*I on one complex coordinate: ((0,-1),(1,0)) on (Re, Im)
        m = DenseMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
        rows = orbit(m, Vector([1.0 + 2.0j], p=2), 2)
        assert np.allclose(rows[1], [1j * (1 + 2j)])

    def test_orbit_by_iteration(self):
        m = DenseMatrix(np.diag([0.5, 0.5]))
        assert np.allclose(orbit(m, Vector([4.0], p=2), 4)[3], [0.5])

    def test_certificate_is_the_callers(self):
        cert = PowerBoundCertificate(0.5, 0.5, 1)
        assert DenseMatrix(np.eye(2), cert).certificate is cert
        assert DenseMatrix(np.eye(2)).certificate is None

    def test_odd_size_rejected(self):
        with pytest.raises(InvalidInputError):
            DenseMatrix(np.zeros((3, 3)))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError, match="^matrix must be square with even size 2u$"):
            DenseMatrix(np.zeros((2, 4)))
