"""Vector arithmetic, p-norms, descriptors, and the convexity audit."""

import math
import pathlib
import warnings

import numpy as np
import pytest

import ergolab
from ergolab import (
    AverageTrajectory,
    CyclicShift,
    DenseMatrix,
    IndexSequence,
    InvalidInputError,
    MetastabilityQuery,
    RotationProduct,
    SeqFunction,
    SpaceDescriptor,
    Vector,
    batch_norm_p,
    check_uniform_convexity,
    clarkson_lower_bound,
    clarkson_modulus,
    count_fluctuations,
    descriptor_preset,
    empirical_convergence_rate,
    g_successor,
    max_p_variation,
    metastability_rate,
    norm_p,
    p_variation_along,
    vector,
)

from oracles import ref_norm


class TestVector:
    def test_norm_frozen_values(self):
        assert vector([3, 4], p=2).norm() == pytest.approx(5.0)
        assert vector([1, 1j], p=2).norm() == pytest.approx(math.sqrt(2))
        assert vector([1, -2, 2], p=1).norm() == pytest.approx(5.0)
        # p=3 on (1, 1, 1): 3^(1/3)
        assert vector([1, 1, 1], p=3).norm() == pytest.approx(3 ** (1 / 3))

    def test_norm_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            dim = int(rng.integers(1, 7))
            p = float(rng.choice([1.0, 2.0, 2.5, 3.0, 4.0]))
            z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            assert vector(z, p=p).norm() == pytest.approx(ref_norm(list(z), p), rel=1e-12)

    def test_arithmetic(self):
        a = vector([1, 2], p=2)
        b = vector([0, 1j], p=2)
        assert np.allclose((a + b).components, [1, 2 + 1j])
        assert np.allclose((a - b).components, [1, 2 - 1j])
        assert np.allclose((2.0 * a).components, [2, 4])
        assert np.allclose((-a).components, [-1, -2])

    def test_mixed_exponent_rejected(self):
        with pytest.raises(InvalidInputError):
            vector([1], p=2) + vector([1], p=3)

    def test_dimension_mismatch_rejected(self):
        from ergolab import DimensionMismatchError
        with pytest.raises(DimensionMismatchError):
            vector([1], p=2) + vector([1, 2], p=2)

    def test_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            vector([], p=2)
        with pytest.raises(InvalidInputError):
            vector([np.nan], p=2)
        with pytest.raises(InvalidInputError):
            vector([1.0], p=0.5)

    def test_components_read_only(self):
        v = vector([1, 2], p=2)
        with pytest.raises(ValueError):
            v.components[0] = 9

    # (components, p, norm_p bits): scenarios normalise their start vectors with norm_p,
    # so every report rests on these bits
    NORM_PINS = [
        ([3, 4], 2.0, "0x1.4000000000000p+2"),
        ([1, 1, 1], 3.0, "0x1.7137449123ef6p+0"),
        ([1, -2, 2], 1.0, "0x1.4000000000000p+2"),
        ([1, 1j], 2.0, "0x1.6a09e667f3bcdp+0"),
        ([0, 0, 0], 2.5, "0x0.0p+0"),
        ([5], 7.5, "0x1.4000000000000p+2"),
        ([-2j], 1.0, "0x1.0000000000000p+1"),
        ([1, 1], 1.5, "0x1.965fea53d6e3cp+0"),
        ([0.1, 0.2, 0.3, 0.4], 4.0, "0x1.bc2bed01a4f15p-2"),
        ([1 + 1j, 2 - 1j, -0.5j], 3.0, "0x1.357a46bc48196p+1"),
        ([2.0**1000, 2.0**1000], 4.0, "0x1.306fe0a31b715p+1000"),
        ([2.0**-1000, 3 * 2.0**-1000], 1.5, "0x1.afcf05702fc2cp-999"),
        ([1e300, 1e-300, 1.0], 2.0, "0x1.7e43c8800759cp+996"),
        ([1e-320, 2e-320], 3.0, "0x0.0000000001072p-1022"),
        ([1.0, 2.0**-60], 2.0, "0x1.0000000000000p+0"),
        ([0.7] * 5, 7.5, "0x1.bc2f63bdd12b2p-1"),
        ([1e200j, -1e200, 1e199], 3.5, "0x1.97b5ae2fe9e2cp+664"),
        ([0.25, 0.5, 1.0, 2.0], 12.0, "0x1.00015560e40e9p+1"),
        (list(range(1, 11)), 1.0, "0x1.b800000000000p+5"),
        ([1e-5 + 2e-5j, 3e-5], 100.0, "0x1.f75104d551d79p-16"),
        # a root taken by numpy's array power ends in another last bit on these
        ([3 + 3j, 2], 1.5, "0x1.47575e62d2f66p+2"),
        ([1 + 4j, 5], 3.0, "0x1.73301506ff2f6p+2"),
        ([2, 7], 4.0, "0x1.c0be97683ccf9p+2"),
        ([1 + 1j, 3], 7.5, "0x1.802e7baf89448p+1"),
    ]

    @pytest.mark.parametrize("components, p, bits", NORM_PINS)
    def test_norm_bits_pinned(self, components, p, bits):
        assert norm_p(vector(components, p=p)).hex() == bits

    def test_extreme_scale_no_overflow(self):
        # peak scaling keeps |z|^p out of the overflow range
        big = vector([1e200, 1e200], p=4)
        assert big.norm() == pytest.approx(1e200 * 2 ** 0.25)
        small = vector([1e-200, 1e-200], p=4)
        assert small.norm() == pytest.approx(1e-200 * 2 ** 0.25)


class TestBatchNorm:
    def test_rows_match_scalar_path(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
        for p in (1.0, 2.0, 3.5):
            rows = batch_norm_p(pts, p)
            for k in range(20):
                assert rows[k] == pytest.approx(norm_p(vector(pts[k], p=p)), rel=1e-12)

    def test_zero_rows(self):
        out = batch_norm_p(np.zeros((3, 2), dtype=complex), 3.0)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("p", [1.5, 3.0, 7.5])
    def test_zero_rows_leave_scaled_rows_alone(self, p):
        # zero rows skip the root; interleaved with rows of the scaled path they change no bit
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.5, 1.0, (40, 3)) * np.exp2(rng.choice([-1060.0, -700.0, 700.0], (40, 1)))
        mixed = np.zeros((80, 3), dtype=complex)
        mixed[::2] = pts
        out = batch_norm_p(mixed, p)
        assert np.all(out[1::2] == 0.0)
        assert np.array_equal(out[::2], batch_norm_p(pts.astype(complex), p))

    def test_extreme_scale_rows(self):
        # the unscaled p = 2 path must neither overflow nor underflow
        pts = np.array([[1e200, 1e200], [1e-200, 1e-200], [3.0, 4.0], [0.0, 0.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = batch_norm_p(pts, 2.0)
        assert out == pytest.approx([2**0.5 * 1e200, 2**0.5 * 1e-200, 5.0, 0.0], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_extreme_rows_match_scalar_path(self, p):
        # moduli from 2^-600 to 2^600: rows of one scale, and rows mixing tiny and huge;
        # then 400 rows of one scale 2^-700 or 2^700, outside the unscaled range at each p
        rng = np.random.default_rng(3)
        exps = rng.integers(-600, 601, size=(60, 3))
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (60, 3)))
        pts = rng.uniform(0.5, 1.0, (60, 3)) * np.exp2(exps) * phases
        pts[:20] = pts[:20, :1] * phases[:20]  # one scale per row
        pts[20:25] = np.exp2([[600, -600, 0], [-600, -600, -599], [600, 600, 599],
                              [250, -250, 0], [-300, 300, -300]]) * phases[20:25]
        far = rng.uniform(0.5, 1.0, (400, 3)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (400, 3)))
        pts = np.vstack([pts, far * np.exp2(rng.choice([-700.0, 700.0], (400, 1)))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = batch_norm_p(pts, p)
        limit = 2.0 ** (1000.0 / p)
        for k in range(len(pts)):
            scalar = norm_p(vector(pts[k], p=p))
            if 1.0 / limit <= rows[k] <= limit:  # summed unscaled: the last bits may differ
                assert rows[k] == pytest.approx(scalar, rel=1e-12, abs=0.0)
            else:  # the scaled path is norm_p's, bit for bit
                assert rows[k] == scalar


# Every way a point array or a norm exponent enters the package: (name, build(values, p)), with
# p None where the way in takes no exponent. values is a finite (4, 2) array; each way takes what
# it needs of it, its [0, 0] entry included.
WAYS_IN = [
    ("Vector", lambda a, p: Vector(a[0], p)),
    ("SeqFunction", lambda a, p: SeqFunction(0, a, p)),
    ("AverageTrajectory", lambda a, p: AverageTrajectory(a, p, CyclicShift(2), vector([1, 0], p=2))),
    ("RotationProduct", lambda a, p: RotationProduct(a[0].real)),
    ("DenseMatrix", lambda a, p: DenseMatrix(a[:2].real)),
    ("p_variation_along", lambda a, p: p_variation_along(a, IndexSequence((1, 3)), 2.0, p_norm=p)),
    ("max_p_variation", lambda a, p: max_p_variation(a, 2.0, p_norm=p)),
    ("count_fluctuations", lambda a, p: count_fluctuations(a, 0.5, p_norm=p)),
    ("metastability_rate",
     lambda a, p: metastability_rate(a, MetastabilityQuery(0.5, g_successor), p_norm=p)),
    ("empirical_convergence_rate", lambda a, p: empirical_convergence_rate(a, 0.5, p_norm=p)),
]
_NO_EXPONENT = {"RotationProduct", "DenseMatrix"}


class TestInputGate:
    GOOD = np.array([[0.0, 1.0], [0.5, 0.25], [1.0, 0.0], [1.0, 0.25]], dtype=complex)

    @pytest.mark.parametrize("name, build", WAYS_IN, ids=[w[0] for w in WAYS_IN])
    def test_non_finite_entries_and_bad_exponents_are_rejected(self, name, build):
        build(self.GOOD, 2.0)
        for bad in (math.nan, math.inf, -math.inf):
            values = self.GOOD.copy()
            values[0, 0] = bad
            with pytest.raises(InvalidInputError, match="must be finite"):
                build(values, 2.0)
        if name in _NO_EXPONENT:
            return
        for p in (0.5, 0.0, math.nan):
            with pytest.raises(InvalidInputError):
                build(self.GOOD, p)

    def test_only_spaces_checks_and_freezes_arrays(self):
        # ergodic_averages marks the sum it built read-only and hands it over to the gate
        src = pathlib.Path(ergolab.__file__).parent
        hits = [(path.name, line.split("#")[0].strip()) for path in sorted(src.glob("*.py"))
                for line in path.read_text().splitlines()
                if "np.isfinite(" in line or "flags.writeable = False" in line]
        assert [hit for hit in hits if hit[0] != "spaces.py"] == [
            ("averages.py", "sums.flags.writeable = False")]

    def test_freeze_shares_read_only_contiguous_arrays_only(self):
        owned = np.arange(4, dtype=complex)
        owned.flags.writeable = False
        assert np.shares_memory(Vector(owned, 2.0).components, owned)
        strided = Vector(owned[::2], 2.0).components  # operators view components as floats
        assert strided.flags.c_contiguous and not np.shares_memory(strided, owned)
        assert not Vector(np.arange(4.0), 2.0).components.flags.writeable


class TestDescriptor:
    def test_presets(self):
        h = descriptor_preset("hilbert")
        assert (h.p, h.K) == (2.0, 0.125)
        c = descriptor_preset("clarkson", p=3)
        assert c.p == 3.0
        assert c.K == pytest.approx(1.0 / 24.0)
        with pytest.raises(InvalidInputError):
            descriptor_preset("clarkson")
        with pytest.raises(InvalidInputError):
            descriptor_preset("nope")

    def test_eta(self):
        d = SpaceDescriptor(2.0, 0.125)
        assert d.eta(1.0) == pytest.approx(0.125)
        assert d.eta(2.0) == pytest.approx(0.5)
        with pytest.raises(InvalidInputError):
            d.eta(0.0)
        with pytest.raises(InvalidInputError):
            d.eta(2.5)

    def test_admissibility(self):
        assert SpaceDescriptor(2.0, 0.125).admissible
        assert SpaceDescriptor(3.0, 1.0 / 24.0).admissible
        # K * 2^p > 1: constructible but flagged
        bad = SpaceDescriptor(2.0, 1.0)
        assert not bad.admissible

    def test_p_below_two_rejected(self):
        with pytest.raises(InvalidInputError):
            SpaceDescriptor(1.5, 0.1)

    def test_p_where_two_to_the_p_overflows_rejected(self):
        assert SpaceDescriptor(1023.5, 2.0**-1024).admissible  # 2^p is finite below 1024
        with pytest.raises(InvalidInputError, match="p < 1024"):
            SpaceDescriptor(1024.0, 1e-300)
        with pytest.raises(InvalidInputError, match="modulus coefficient"):  # K is checked first
            SpaceDescriptor(1100.0, 0.0)


class TestClarkson:
    def test_modulus_frozen_value(self):
        # p=3, eps=1: 1 - (1 - 1/8)^(1/3)
        got = clarkson_modulus(3.0, 1.0)
        assert got == pytest.approx(1.0 - (7.0 / 8.0) ** (1.0 / 3.0), rel=1e-15)
        assert got == pytest.approx(0.043534408613805, rel=1e-12)

    def test_modulus_dominates_power_bound(self):
        for p in (2.0, 2.5, 3.0, 4.0, 6.0):
            for eps in np.linspace(1e-3, 2.0, 40):
                assert clarkson_modulus(p, eps) >= clarkson_lower_bound(p, eps) - 1e-15

    def test_lower_bound_formula(self):
        assert clarkson_lower_bound(3.0, 1.0) == pytest.approx((1 / 3) * 0.125)


class TestConvexityAudit:
    def test_valid_moduli_have_no_violations(self):
        assert check_uniform_convexity(descriptor_preset("hilbert"), dim=2, trials=3000, seed=0) == 0
        assert check_uniform_convexity(descriptor_preset("clarkson", p=3), dim=2, trials=3000, seed=1) == 0

    def test_inadmissible_modulus_caught(self):
        # K=1 at p=2 claims midpoints of any eps-separated pair shrink by
        # eps^2; nearly-aligned pairs refute it immediately
        bad = SpaceDescriptor(2.0, 1.0)
        assert check_uniform_convexity(bad, dim=2, trials=3000, seed=2) > 0

    def test_matches_parallelogram_oracle(self):
        # audit arithmetic vs the parallelogram-law midpoint on l^2
        from oracles import hilbert_midpoint_norm_sq
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            x = z[0] / ref_norm(list(z[0]), 2.0)
            y = z[1] / ref_norm(list(z[1]), 2.0)
            eps = ref_norm(list(x - y), 2.0)
            if eps == 0.0 or eps > 2.0:
                continue
            mid = math.sqrt(max(hilbert_midpoint_norm_sq(list(x), list(y)), 0.0))
            assert mid <= 1.0 - 0.125 * eps**2 + 1e-9
