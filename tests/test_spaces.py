"""Vector arithmetic, p-norms, descriptors, the convexity audit, and the input gates."""

import dataclasses
import math
import pathlib
import re
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
        for p in (0.5, 0.0, math.nan, True, np.True_, "3"):
            with pytest.raises(InvalidInputError, match="must satisfy p >= 1"):
                build(self.GOOD, p)

    @pytest.mark.parametrize("name, build", WAYS_IN, ids=[w[0] for w in WAYS_IN])
    def test_non_numeric_entries_are_rejected(self, name, build):
        values = self.GOOD.real.astype(object)
        values[0, 0] = "a"
        with pytest.raises(InvalidInputError, match=r"^\w+ must be an array of finite numbers$"):
            build(values, 2.0)

    def test_ragged_rows_and_huge_integers_are_rejected(self):
        for bad in ([[0, 1], [1]], [0, 10**400]):
            with pytest.raises(InvalidInputError, match="^points must be an array of finite numbers$"):
                count_fluctuations(bad, 0.5)
        with pytest.raises(InvalidInputError, match="^components must be an array of finite numbers$"):
            Vector(["a", "b"], 2.0)

    def test_variation_exponent_keeps_its_message(self):
        for q in (0.5, math.nan, math.inf, True, "3"):
            with pytest.raises(InvalidInputError, match=r"^variation exponent must satisfy q >= 1, got "):
                max_p_variation(self.GOOD, q)
            with pytest.raises(InvalidInputError, match=r"^variation exponent must satisfy q >= 1, got "):
                p_variation_along(self.GOOD, IndexSequence((1, 3)), q)

    def test_one_point_nan_threshold_is_rejected(self):
        with pytest.raises(InvalidInputError, match="^separation threshold must be > 0, got nan$"):
            count_fluctuations([0.0], math.nan)

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


def _bits(obj):
    """obj reduced to a value that == compares bit for bit, types included."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if dataclasses.is_dataclass(obj):
        return type(obj), tuple(_bits(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return type(obj), tuple(_bits(item) for item in obj)
    if isinstance(obj, (float, complex)):
        return type(obj), complex(obj).real.hex(), complex(obj).imag.hex()
    return type(obj), obj


_ROT = RotationProduct([0.3, 1.1])
_X = vector([0.6, 0.8j], p=2)
_TRAJ = ergolab.ergodic_averages(_ROT, _X, 64)
_F = SeqFunction(-3, np.arange(10.0) - 4.5j, 2.0)
_PAR = ergolab.stability_parameters(1.0, 0.5, descriptor_preset("hilbert"))
_N0 = ergolab.earliest_stable_start(_TRAJ, _PAR.gamma, 64)
_DENSE = DenseMatrix([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0]])
_X4 = vector([1.0, 0.5j], p=2)

# Every integer argument of the library: (name, build(value), a valid value).
INTEGER_WAYS_IN = [
    ("orbit", lambda n: ergolab.orbit(_ROT, _X, n), 5),
    ("ergodic_averages", lambda n: ergolab.ergodic_averages(_ROT, _X, n), 5),
    ("AverageTrajectory.point", lambda n: _TRAJ.point(n), 3),
    ("AverageTrajectory.truncated", lambda m: _TRAJ.truncated(m), 3),
    ("rotation_average_closed_form", lambda n: ergolab.rotation_average_closed_form(0.3, n), 5),
    ("CyclicShift", lambda dim: CyclicShift(dim), 3),
    ("apply_power", lambda n: ergolab.apply_power(_ROT, n, _X), 3),
    ("estimate_power_bounds.n_max", lambda n: ergolab.estimate_power_bounds(_DENSE, n, 4), 3),
    ("estimate_power_bounds.trials", lambda t: ergolab.estimate_power_bounds(_DENSE, 3, t), 4),
    ("estimate_power_bounds.n_max.isometry", lambda n: ergolab.estimate_power_bounds(_ROT, n), 3),
    ("estimate_power_bounds.trials.isometry",
     lambda t: ergolab.estimate_power_bounds(CyclicShift(2), 3, t), 4),
    ("SeqFunction.lo", lambda lo: SeqFunction(lo, _F.values, 2.0), -2),
    ("SeqFunction.at", lambda x: _F.at(x), 1),
    ("conditional_expectation", lambda level: ergolab.conditional_expectation(_F, level), 2),
    ("martingale_differences", lambda n: ergolab.martingale_differences(_F, n), 2),
    ("shift_average_at", lambda n: ergolab.shift_average_at(_F, n), 3),
    ("seq_shift", lambda k: ergolab.seq_shift(_F, k), 2),
    ("verify_decomposition_inequalities.levels",
     lambda level: ergolab.verify_decomposition_inequalities(_F, "martingale", levels=[0, level]), 2),
    ("IndexSequence", lambda i: IndexSequence([1, i]), 3),
    ("metastability_from_fluctuations",
     lambda count: ergolab.metastability_from_fluctuations(count, ergolab.g_double), 3),
    ("stability_window_check.n_start", lambda n: ergolab.stability_window_check(_TRAJ, _PAR, n, 64), _N0),
    ("stability_window_check.u", lambda u: ergolab.stability_window_check(_TRAJ, _PAR, _N0, u), 64),
    ("earliest_stable_start", lambda u: ergolab.earliest_stable_start(_TRAJ, _PAR.gamma, u), 64),
    ("build_rotation_counterexample", lambda u: ergolab.build_rotation_counterexample(2.0, u), 3),
    ("build_cyclic_shift_counterexample", lambda u: ergolab.build_cyclic_shift_counterexample(u), 3),
    ("fluctuation_in_dyadic_interval",
     lambda k: ergolab.fluctuation_in_dyadic_interval(_TRAJ, 0.1, k), 2),
    ("verify_metastability_lower_bound.p", lambda p: ergolab.verify_metastability_lower_bound(p), 2),
    ("verify_metastability_lower_bound.horizon",
     lambda n: ergolab.verify_metastability_lower_bound(2, n), 20),
    ("check_uniform_convexity.dim",
     lambda dim: check_uniform_convexity(SpaceDescriptor(2.0, 0.125), dim, trials=50), 2),
    ("check_uniform_convexity.trials",
     lambda t: check_uniform_convexity(SpaceDescriptor(2.0, 0.125), 2, trials=t), 50),
]


class TestIntegerGate:
    @pytest.mark.parametrize("name, build, good", INTEGER_WAYS_IN, ids=[w[0] for w in INTEGER_WAYS_IN])
    def test_non_integers_are_rejected(self, name, build, good):
        for bad in (2.5, float(good), True, np.True_, "8", math.nan, np.array([good])):
            with pytest.raises(InvalidInputError, match="must be an integer, got "):
                build(bad)

    @pytest.mark.parametrize("name, build, good", INTEGER_WAYS_IN, ids=[w[0] for w in INTEGER_WAYS_IN])
    def test_numpy_integers_give_identical_results(self, name, build, good):
        want = _bits(build(good))
        for same in (np.int64(good), np.array(good), np.int16(good)):
            assert _bits(build(same)) == want

    def test_range_messages(self):
        cases = [
            (lambda: ergolab.ergodic_averages(_ROT, _X, 0), "horizon must be >= 1, got 0"),
            (lambda: _TRAJ.point(65), "index 65 outside [1, 64]"),
            (lambda: _TRAJ.truncated(0), "prefix length 0 outside [1, 64]"),
            (lambda: CyclicShift(0), "dimension must be >= 1, got 0"),
            (lambda: ergolab.apply_power(_ROT, -1, _X), "power must be >= 0, got -1"),
            (lambda: ergolab.estimate_power_bounds(_ROT, n_max=-5, trials=0),
             "n_max must be >= 1, got -5"),
            (lambda: ergolab.estimate_power_bounds(_DENSE, trials=0), "trials must be >= 1, got 0"),
            (lambda: ergolab.conditional_expectation(_F, -1), "level must be >= 0, got -1"),
            (lambda: ergolab.verify_decomposition_inequalities(_F, "martingale", levels=[-1, 2]),
             "level must be >= 0, got -1"),
            (lambda: IndexSequence([0, 2]), "index must be >= 1, got 0"),
            (lambda: p_variation_along([0.0, 1.0], [1, 2**70], 2.0),
             f"index {2**70} exceeds horizon 2"),
            (lambda: ergolab.metastability_from_fluctuations(-1, ergolab.g_double),
             "fluctuation count must be >= 0, got -1"),
            (lambda: ergolab.stability_window_check(_TRAJ, _PAR, 5, 4), "u must be >= 5, got 4"),
            (lambda: ergolab.earliest_stable_start(_TRAJ, 0.0, 65), "u 65 outside [1, 64]"),
            (lambda: ergolab.verify_metastability_lower_bound(1), "p must be >= 2, got 1"),
            (lambda: check_uniform_convexity(SpaceDescriptor(2.0, 0.125), 0), "dimension must be >= 1, got 0"),
        ]
        for call, message in cases:
            with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
                call()

    def test_only_spaces_coerces_integers(self):
        # g's values are checked once per probed n of the rate scan's skip loop, outside the gate
        src = pathlib.Path(ergolab.__file__).parent
        coerce = re.compile(r"(?<![\w.])(\w+) = int\(\1\)|int\(self\.")
        hits = [(path.name, line.strip()) for path in sorted(src.glob("*.py"))
                for line in path.read_text().splitlines() if coerce.search(line)]
        assert [hit for hit in hits if hit[0] != "spaces.py"] == [("variation.py", "gn = int(gn)")]


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
