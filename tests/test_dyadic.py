"""Dyadic filtration machinery: expectations, differences, shift averages."""

import math

import numpy as np
import pytest

from ergolab import (
    CyclicShift,
    InvalidInputError,
    PreconditionError,
    RotationProduct,
    SeqFunction,
    Vector,
    conditional_expectation,
    lpb_norm,
    martingale_differences,
    shift_average_at,
    transfer_embed,
    verify_decomposition_inequalities,
)

from ergolab.dyadic import _blocks
from oracles import block_average_ref, orthogonality_defect, ref_norm, ref_orbit, value_at


def _delta(p=2.0):
    """Scalar indicator of {0}."""
    return SeqFunction(0, np.array([1.0]), p)


def _random_fn(rng, *, dim=1, p=2.0, width=None, lo=None):
    width = int(rng.integers(3, 14)) if width is None else width
    lo = int(rng.integers(-6, 6)) if lo is None else lo
    vals = rng.standard_normal((width, dim)) + 1j * rng.standard_normal((width, dim))
    return SeqFunction(lo, vals, p)


def _gap(f, g):
    return lpb_norm(f - g)


class TestSeqFunction:
    def test_scalar_promotion_and_window(self):
        f = SeqFunction(3, np.array([1.0, 2.0]), 2.0)
        assert f.values.shape == (2, 1)
        assert (f.lo, f.hi, f.dim) == (3, 5, 1)
        assert f.values[0, 0] == 1.0

    def test_alignment_arithmetic(self):
        f = SeqFunction(0, np.array([1.0, 1.0]), 2.0)
        g = SeqFunction(1, np.array([1.0, 1.0]), 2.0)
        s = f + g
        assert (s.lo, s.hi) == (0, 3)
        np.testing.assert_allclose(s.values[:, 0], [1.0, 2.0, 1.0])
        d = f - g
        np.testing.assert_allclose(d.values[:, 0], [1.0, 0.0, -1.0])

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SeqFunction(0, np.zeros((0, 1)), 2.0)
        with pytest.raises(InvalidInputError):
            SeqFunction(0, np.array([np.inf]), 2.0)
        with pytest.raises(InvalidInputError):
            SeqFunction(0, np.array([1.0]), 0.5)
        f = SeqFunction(0, np.array([1.0]), 2.0)
        with pytest.raises(InvalidInputError):
            f + SeqFunction(0, np.array([1.0]), 3.0)

    def test_values_read_only(self):
        f = _delta()
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0


class TestLpbNorm:
    def test_frozen(self):
        f = SeqFunction(0, np.array([3.0, 4.0]), 2.0)
        assert lpb_norm(f) == pytest.approx(5.0)
        assert lpb_norm(SeqFunction(0, np.zeros(4), 2.0)) == 0.0

    def test_extreme_scale(self):
        f = SeqFunction(0, np.array([3e200, 4e200]), 2.0)
        assert lpb_norm(f) == pytest.approx(5e200, rel=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(30)
        for p in (1.0, 2.0, 3.0):
            f = _random_fn(rng, dim=3, p=p)
            assert lpb_norm(f) == pytest.approx(ref_norm(f.values.ravel(), p), rel=1e-12)


class TestConditionalExpectation:
    def test_level_zero_is_identity(self):
        f = _random_fn(np.random.default_rng(31))
        assert _gap(conditional_expectation(f, 0), f) == 0.0

    def test_indicator_block(self):
        e1 = conditional_expectation(_delta(), 1)
        assert (e1.lo, e1.hi) == (0, 2)
        np.testing.assert_allclose(e1.values[:, 0], [0.5, 0.5])

    def test_negative_level_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^level must be >= 0, got -1$"):
            conditional_expectation(_delta(), -1)

    @pytest.mark.parametrize("level", [25, 58, 62, 200])
    def test_levels_past_the_slot_cap_are_rejected(self, level):
        # level 58 used to reach numpy and fail allocating 4 EiB
        f = SeqFunction(0, np.arange(10.0), 2.0)
        with pytest.raises(InvalidInputError, match=rf"^level {level}: blocks of 2\^level rows widen "
                                                    r"the window past the cap of 16777216 complex slots$"):
            conditional_expectation(f, level)

    def test_slot_cap_counts_every_value_slot(self):
        # a widened window of 2^24 rows is at the cap with one slot, past it with two
        assert _blocks(SeqFunction(0, np.ones(10), 2.0), 24) == (2**24, 0, 2**24)
        with pytest.raises(InvalidInputError, match=r"^level 24: .* past the cap of 16777216 complex slots$"):
            _blocks(SeqFunction(0, np.ones((10, 2)), 2.0), 24)
        with pytest.raises(InvalidInputError, match=r"^level 23: .* past the cap"):
            martingale_differences(SeqFunction(-1, np.ones((10, 2)), 2.0), 23)

    def test_blocks_anchor_at_zero_for_negative_windows(self):
        f = SeqFunction(-1, np.array([1.0]), 2.0)
        e1 = conditional_expectation(f, 1)
        assert (e1.lo, e1.hi) == (-2, 0)
        np.testing.assert_allclose(e1.values[:, 0], [0.5, 0.5])

    def test_partial_block_averages_in_zeros(self):
        f = SeqFunction(0, np.ones(3), 2.0)
        e2 = conditional_expectation(f, 2)
        assert (e2.lo, e2.hi) == (0, 4)
        np.testing.assert_allclose(e2.values[:, 0], [0.75] * 4)

    def test_tower_property(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            f = _random_fn(rng, dim=2)
            m, n = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            once = conditional_expectation(f, max(m, n))
            twice = conditional_expectation(conditional_expectation(f, n), m)
            assert _gap(twice, once) <= 1e-12 * max(lpb_norm(f), 1.0)

    def test_contraction(self):
        rng = np.random.default_rng(33)
        for p in (1.0, 2.0, 3.0):
            for _ in range(20):
                f = _random_fn(rng, dim=2, p=p)
                for n in (1, 2, 4):
                    assert lpb_norm(conditional_expectation(f, n)) <= lpb_norm(f) + 1e-12

    def test_matches_reference_blocks(self):
        rng = np.random.default_rng(34)
        f = _random_fn(rng, dim=1, width=11, lo=-4)
        col = list(f.values[:, 0])
        for n in (1, 2, 3):
            en = conditional_expectation(f, n)
            for x in range(-9, 12):
                want = block_average_ref(col, f.lo, n, x)
                assert complex(value_at(en, x)[0]) == pytest.approx(want, abs=1e-12)


class TestMartingaleDifferences:
    def test_indicator_first_difference(self):
        (d1,) = martingale_differences(_delta(), 1)
        assert (d1.lo, d1.hi) == (0, 2)
        np.testing.assert_allclose(d1.values[:, 0], [0.5, -0.5])

    def test_telescoping(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            f = _random_fn(rng, dim=2)
            n_max = int(rng.integers(1, 6))
            diffs = martingale_differences(f, n_max)
            assert len(diffs) == n_max
            total = diffs[0]
            for d in diffs[1:]:
                total = total + d
            residual = f - conditional_expectation(f, n_max)
            assert _gap(total, residual) <= 1e-12 * max(lpb_norm(f), 1.0)

    def test_orthogonality_at_p2(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            f = _random_fn(rng, dim=1, p=2.0)
            n_max = 4
            diffs = martingale_differences(f, n_max)
            tail = conditional_expectation(f, n_max)
            lhs = sum(lpb_norm(d) ** 2 for d in diffs) + lpb_norm(tail) ** 2
            assert lhs == pytest.approx(lpb_norm(f) ** 2, rel=1e-10)
            # same identity through the standalone reference arithmetic
            assert orthogonality_defect(list(f.values[:, 0]), f.lo, n_max) <= 1e-10

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            martingale_differences(_delta(), 0)

    def test_n_max_past_numpys_largest_array_is_rejected_before_any_level(self, monkeypatch):
        def unreachable(f, level):
            raise AssertionError(f"level {level} built")

        monkeypatch.setattr("ergolab.dyadic.conditional_expectation", unreachable)
        with pytest.raises(InvalidInputError, match=r"^level 200: blocks of 2\^level rows widen "):
            martingale_differences(SeqFunction(0, np.arange(10.0), 2.0), 200)


class TestShiftAverages:
    def test_length_one_is_identity(self):
        f = _random_fn(np.random.default_rng(37))
        assert _gap(shift_average_at(f, 1), f) == 0.0

    def test_indicator_spreads_left(self):
        a3 = shift_average_at(_delta(), 3)
        assert (a3.lo, a3.hi) == (-2, 1)
        np.testing.assert_allclose(a3.values[:, 0], [1 / 3] * 3)

    def test_matches_pointwise_definition(self):
        rng = np.random.default_rng(38)
        f = _random_fn(rng, dim=2, width=9, lo=-3)
        for n in (2, 3, 5):
            an = shift_average_at(f, n)
            for x in range(f.lo - n, f.hi + 2):
                want = sum(
                    (value_at(f, x + i) for i in range(n)),
                    start=np.zeros(f.dim, dtype=np.complex128),
                ) / n
                np.testing.assert_allclose(value_at(an, x), want, atol=1e-12)


    @pytest.mark.parametrize("n, dim", [(10**12, 1), (2**24 - 2, 2)])
    def test_windows_widened_past_the_slot_cap_are_rejected(self, n, dim):
        # 4 rows widened by n - 1: 10^12 rows used to reach numpy and fail allocating;
        # 2^24 + 1 rows are past the cap with two slots each
        with pytest.raises(InvalidInputError, match=rf"^average length {n} widens the window past "
                                                    r"the cap of 16777216 complex slots$"):
            shift_average_at(SeqFunction(0, np.ones((4, dim)), p=2), n)


class TestShiftAndTransfer:
    def test_transfer_embed_lays_out_orbit(self):
        op = RotationProduct(np.array([math.pi / 3]))
        x = Vector([1.0 + 0.0j], p=2)
        f = transfer_embed(op, x, 6)
        assert (f.lo, f.hi) == (0, 6)
        rows = ref_orbit(op, x.components, 6)
        for i in range(6):
            got = complex(value_at(f, i)[0])
            want = complex(rows[i, 0])
            assert got == pytest.approx(want, abs=1e-12)

    def test_transfer_isometry_norm_identity(self):
        n = 32
        op = RotationProduct(np.array([0.7, -1.9]))
        x = Vector([1.0, 2.0j], p=2)
        f = transfer_embed(op, x, n)
        assert lpb_norm(f) ** 2 == pytest.approx(n * x.norm() ** 2, rel=1e-12)

        op3 = CyclicShift(5)
        y = Vector([1.0, 0.5, 0.0, 0.0, 0.25], p=3)
        g = transfer_embed(op3, y, n)
        assert lpb_norm(g) ** 3 == pytest.approx(n * y.norm() ** 3, rel=1e-12)


class TestDecompositionChecks:
    def test_martingale_frozen(self):
        rep = verify_decomposition_inequalities(_delta(), "martingale", levels=[0, 1])
        # the only term is ||E_1 f - f||^2 = ||(-1/2, 1/2)||^2 = 1/2
        assert rep.kind == "martingale"
        assert rep.terms == pytest.approx((0.5,))
        assert rep.denominator == pytest.approx(1.0)
        assert rep.ratio == pytest.approx(0.5)

    def test_martingale_p2_contraction(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            f = _random_fn(rng, dim=1, p=2.0)
            rep = verify_decomposition_inequalities(
                f, "martingale", levels=list(range(0, 6))
            )
            assert rep.ratio <= 1.0 + 1e-9

    def test_martingale_levels_past_the_slot_cap_are_rejected_before_level_0(self, monkeypatch):
        built = []

        def recorded(f, level):
            built.append(level)
            return conditional_expectation(f, level)

        monkeypatch.setattr("ergolab.dyadic.conditional_expectation", recorded)
        f = SeqFunction(0, np.ones((4096, 8)), 2.0)
        with pytest.raises(InvalidInputError, match=r"^level 22: blocks of 2\^level rows widen "):
            verify_decomposition_inequalities(f, "martingale", levels=[0, 1, 22])
        assert built == []
        verify_decomposition_inequalities(f, "martingale", levels=[0, 1, 12])
        assert built == [1, 12]  # level 0 is f itself

    def test_martingale_validation(self):
        f = _delta()
        with pytest.raises(InvalidInputError):
            verify_decomposition_inequalities(f, "martingale")
        with pytest.raises(InvalidInputError):
            verify_decomposition_inequalities(f, "martingale", levels=[2])
        with pytest.raises(InvalidInputError):
            verify_decomposition_inequalities(f, "martingale", levels=[2, 2])
        with pytest.raises(InvalidInputError):
            verify_decomposition_inequalities(f, "martingale", levels=[-1, 2])

    def test_average_vs_expectation_frozen(self):
        rep = verify_decomposition_inequalities(
            _delta(), "average_vs_expectation", ts=(1,)
        )
        # ||A_1 f - E_1 f||^2 = ||(1/2, -1/2)||^2 = 1/2
        assert rep.ratio == pytest.approx(0.5)

    def test_average_vs_expectation_band_check(self):
        f = _delta()
        rep = verify_decomposition_inequalities(
            f, "average_vs_expectation", ts=(1, 2, 5)
        )
        assert len(rep.terms) == 3
        with pytest.raises(PreconditionError):
            verify_decomposition_inequalities(f, "average_vs_expectation", ts=(2, 3))
        with pytest.raises(PreconditionError):
            verify_decomposition_inequalities(f, "average_vs_expectation", ts=(1, 4))

    def test_short_increments_frozen(self):
        rep = verify_decomposition_inequalities(_delta(), "short_increments", ts=(1, 2))
        # A_2 f - A_1 f = (1/2, -1/2) on [-1, 1)
        assert rep.ratio == pytest.approx(0.5)

    def test_short_increments_band_filter(self):
        f = _delta()
        # (3, 5) straddles the split at 4 and must be skipped; with nothing left
        # the check would measure nothing
        for ts, shown in (((3, 5), r"\(3, 5\)"), ((1, 3, 7), r"\(1, 3, 7\)"), ((4,), r"\(4,\)")):
            with pytest.raises(PreconditionError, match=rf"^no consecutive pair of ts {shown} "
                                                        r"shares a dyadic band$"):
                verify_decomposition_inequalities(f, "short_increments", ts=ts)
        rep = verify_decomposition_inequalities(f, "short_increments", ts=(3, 5, 6))
        assert len(rep.terms) == 1  # (5, 6) lies in [4, 8]
        rep = verify_decomposition_inequalities(
            f, "short_increments", ts=(1, 2, 3, 4, 6, 8, 9)
        )
        assert len(rep.terms) == 6  # every adjacent pair shares a band

    def test_unknown_kind_lists_names(self):
        with pytest.raises(InvalidInputError) as info:
            verify_decomposition_inequalities(_delta(), "bogus")
        msg = str(info.value)
        for name in ("martingale", "average_vs_expectation", "short_increments"):
            assert name in msg

    def test_zero_function_ratio(self):
        f = SeqFunction(0, np.zeros(4), 2.0)
        rep = verify_decomposition_inequalities(f, "martingale", levels=[0, 2])
        assert rep.ratio == 0.0
