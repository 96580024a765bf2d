"""Operator construction, powers, and power-bound certificates."""

import math

import numpy as np
import pytest

from ergolab import (
    CyclicShift,
    DenseMatrix,
    InvalidInputError,
    PowerBoundCertificate,
    RotationProduct,
    Vector,
    apply_power,
    estimate_power_bounds,
)


def test_rotation_apply_frozen():
    op = RotationProduct(np.array([math.pi, math.pi / 2]))
    v = Vector([1.0, 1.0], p=2)
    out = apply_power(op, 1, v)
    assert np.allclose(out.components, [-1.0, 1j], atol=1e-15)


def test_rotation_power_closed_form():
    op = RotationProduct(np.array([0.3, -1.1]))
    v = Vector([1.0 + 0.5j, 2.0], p=2)
    w = v
    for n in range(5):
        got = apply_power(op, n, v)
        assert np.allclose(got.components, w.components, atol=1e-12)
        w = apply_power(op, 1, w)


def _direct_orbit(angles, z, n):
    return np.exp(1j * np.outer(np.arange(n, dtype=np.float64), angles)) * z[None, :]


def test_rotation_orbit_is_the_outer_product_expression_bit_for_bit():
    # built in place: one complex array, exp and the start vector applied to it; past 2^16
    # rows the table rows 0 .. 2^16 - 1 keep these bits
    rng = np.random.default_rng(18)
    for long in [None] * 200 + [2**16, 2**16 + 1, 2**17 - 1, 2**17, 2**17 + 1, 3 * 2**16 + 5]:
        u, n = int(rng.integers(1, 6)), int(rng.integers(1, 2000))
        n = long or n
        angles = rng.uniform(-10.0, 10.0, u) * 10.0 ** rng.integers(-8, 4, u)
        z = rng.standard_normal(u) + 1j * rng.standard_normal(u)
        want = _direct_orbit(angles, z, min(n, 2**16))
        assert RotationProduct(angles).orbit(z, n)[:2**16].tobytes() == want.tobytes()


@pytest.mark.parametrize("u", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("theta", [0.0, 2 * math.pi, -2 * math.pi, 1e-8, -1e-8, 0.7, -3.0, 1e4, -1e4])
def test_rotation_orbit_rows_past_the_table_are_within_a_few_ulps(u, theta):
    # row s + r is the table's e^(i r theta) times e^(i s theta) z: against the direct
    # e^(i k theta) z the rounded phases differ by at most 2^-52 |k theta|, and the exps and
    # products add a few ulps of the row; every row is checked, each block edge +-1 included
    rng = np.random.default_rng(22)
    n = 3 * 2**16 + 5
    angles = np.concatenate([[theta], rng.choice([-1.0, 1.0], u - 1) * 10.0 ** rng.uniform(-8, 4, u - 1)])
    z = rng.standard_normal(u) + 1j * rng.standard_normal(u)
    err = np.abs(RotationProduct(angles).orbit(z, n) - _direct_orbit(angles, z, n))
    phase = np.abs(np.outer(np.arange(n, dtype=np.float64), angles))
    assert np.all(err <= (2.0**-51 * phase + 2.0**-50) * np.abs(z))


def test_cyclic_shift_moves_basis():
    op = CyclicShift(4)
    e1 = Vector([1, 0, 0, 0], p=1)
    out = apply_power(op, 1, e1)
    assert np.allclose(out.components, [0, 1, 0, 0])
    # wraps around after dim steps
    assert np.allclose(apply_power(op, 4, e1).components, e1.components)
    assert np.allclose(apply_power(op, 6, e1).components, [0, 0, 1, 0])


def test_isometries_preserve_norm():
    rng = np.random.default_rng(2)
    rot = RotationProduct(rng.uniform(-math.pi, math.pi, 3))
    shift = CyclicShift(5)
    for p in (1.0, 2.0, 3.0):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = Vector(z, p=p)
        assert apply_power(rot, 1, v).norm() == pytest.approx(v.norm(), rel=1e-12)
        w = Vector(rng.standard_normal(5) + 0j, p=p)
        assert apply_power(shift, 1, w).norm() == pytest.approx(w.norm(), rel=1e-12)


def test_isometry_certificates():
    rot = RotationProduct(np.array([0.1]))
    assert rot.certificate.B1 == 1.0 and rot.certificate.B2 == 1.0
    assert math.isinf(rot.certificate.n_max)
    assert CyclicShift(3).certificate.B1 == 1.0


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
        v = Vector([1.0 + 2.0j], p=2)
        out = apply_power(m, 1, v)
        assert np.allclose(out.components, [1j * (1 + 2j)])

    def test_power_by_iteration(self):
        m = DenseMatrix(np.diag([0.5, 0.5]))
        v = Vector([4.0], p=2)
        assert np.allclose(apply_power(m, 3, v).components, [0.5])

    def test_odd_size_rejected(self):
        with pytest.raises(InvalidInputError):
            DenseMatrix(np.zeros((3, 3)))

    def test_estimate_power_bounds_contraction(self):
        # diag(1/2): every power of the sampled range [1, n_max] contracts
        # by at least 1/2^n_max and at most 1/2
        m = DenseMatrix(np.diag([0.5, 0.5]))
        cert = estimate_power_bounds(m, n_max=4, trials=16, seed=0)
        assert cert.n_max == 4
        assert cert.B1 == pytest.approx(0.5**4, rel=1e-9)
        assert cert.B2 == pytest.approx(0.5, rel=1e-9)

    def test_estimate_power_bounds_isometry_shortcut(self):
        rot = RotationProduct(np.array([0.2, 0.4]))
        assert estimate_power_bounds(rot) is rot.certificate

    def test_singular_matrix_rejected(self):
        m = DenseMatrix(np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            estimate_power_bounds(m, n_max=2, trials=4, seed=0)


def test_dimension_checks():
    from ergolab import DimensionMismatchError
    with pytest.raises(DimensionMismatchError):
        apply_power(CyclicShift(3), 1, Vector([1.0, 2.0], p=1))
