"""Explicit fluctuation/stability bounds and the drift inequality.

Frozen integers below were computed by hand from the closed formulas:
with ||x|| = 1, eps = 1/4, p = 2, K = 1/8:
    M     = ceil(16/0.25) = 64
    gamma = (0.25/8) * (1/8) * (0.25/8) = 1/8192
    drops = floor(8192) = 8192
    head  = floor(4 ln 64 / 0.25)  = floor(66.542...)  = 66
    per   = floor(4 ln 128 / 0.25) = floor(77.632...)  = 77
    total = 66 + 8192*77 + 8192 = 639042
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergolab import bounds as bounds_module
from ergolab import (
    CyclicShift,
    DenseMatrix,
    DriftReport,
    HorizonExhaustedError,
    InvalidInputError,
    PreconditionError,
    RotationProduct,
    ceil12,
    count_fluctuations,
    descriptor_preset,
    drift_bound_check,
    earliest_stable_start,
    ergodic_averages,
    estimate_power_bounds,
    floor12,
    fluctuation_bound_nonexpansive,
    stability_parameters,
    stability_window_check,
    vector,
    window_fluctuation_bound,
)
from ergolab.averages import AverageTrajectory
from ergolab.spaces import batch_norm_p
from oracles import ref_drift

HILBERT = descriptor_preset("hilbert")


class TestRound12:
    def test_floor_absorbs_float_noise(self):
        # 0.1 + 0.2 overshoots 0.3 by ~5.5e-17; after the 12-digit rounding
        # the quotient is exactly 3
        assert floor12((0.1 + 0.2) / 0.1) == 3
        assert math.floor((0.1 + 0.2) / 0.1) == 3  # noise is upward here
        assert floor12(0.29999999999999 / 0.1) == 3
        assert math.floor(0.29999999999999 / 0.1) == 2

    def test_ceil_absorbs_float_noise(self):
        assert ceil12(64.00000000000001) == 64
        assert math.ceil(64.00000000000001) == 65
        assert ceil12(64.001) == 65

    def test_genuine_fractions_survive(self):
        assert floor12(2.5) == 2
        assert ceil12(2.5) == 3


class TestStabilityParameters:
    def test_frozen_hilbert(self):
        par = stability_parameters(1.0, 0.25, HILBERT)
        assert par.M == 64
        assert par.gamma == pytest.approx(1.0 / 8192.0, rel=1e-15)
        assert par.gamma == 0.0001220703125
        assert par.rho == 4.0
        assert (par.p, par.K) == (2.0, 0.125)

    def test_clarkson_preset_scaling(self):
        desc = descriptor_preset("clarkson", p=3.0)
        par = stability_parameters(2.0, 0.5, desc)
        assert par.M == ceil12(16.0 * 2.0 / 0.5) == 64
        want = (0.5 / 8.0) * desc.K * (0.5 / 16.0) ** 2
        assert par.gamma == pytest.approx(want, rel=1e-15)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            stability_parameters(0.0, 0.25, HILBERT)
        with pytest.raises(InvalidInputError):
            stability_parameters(1.0, 0.0, HILBERT)
        with pytest.raises(InvalidInputError):
            stability_parameters(math.inf, 0.25, HILBERT)


class TestWindowFluctuationBound:
    def test_frozen(self):
        assert window_fluctuation_bound(1.0, 0.5, math.e) == 8
        assert window_fluctuation_bound(1.0, 0.5, 1.0) == 0
        assert window_fluctuation_bound(2.0, 0.5, 4.0) == floor12(16.0 * math.log(4.0))

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            window_fluctuation_bound(1.0, 2.0, 2.0)  # eps = 2*||x|| excluded
        with pytest.raises(PreconditionError):
            window_fluctuation_bound(1.0, 3.0, 2.0)
        with pytest.raises(PreconditionError):
            window_fluctuation_bound(1.0, 0.0, 2.0)
        with pytest.raises(InvalidInputError):
            window_fluctuation_bound(1.0, 0.5, 0.99)

    def test_monotone_in_alpha(self):
        vals = [window_fluctuation_bound(1.0, 0.5, a) for a in (1.0, 2.0, 4.0, 16.0)]
        assert vals == sorted(vals)


class TestFluctuationBoundNonexpansive:
    def test_frozen_pin(self):
        assert fluctuation_bound_nonexpansive(1.0, 0.25, HILBERT) == 639042

    def test_component_assembly(self):
        par = stability_parameters(1.0, 0.25, HILBERT)
        drops = floor12(1.0 / par.gamma)
        head = floor12(4.0 * math.log(par.M) / 0.25)
        per = floor12(4.0 * math.log(2.0 * par.M) / 0.25)
        assert (head, drops, per) == (66, 8192, 77)
        assert head + drops * per + drops == 639042

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            fluctuation_bound_nonexpansive(1.0, 2.0, HILBERT)

    def test_scales_with_rho(self):
        small = fluctuation_bound_nonexpansive(1.0, 1.0, HILBERT)
        large = fluctuation_bound_nonexpansive(1.0, 0.125, HILBERT)
        assert small < large


def _rotation_traj(horizon=64):
    op = RotationProduct(np.array([1.1, -0.4]))
    x = vector([1.0, 0.5j], p=2)
    return ergodic_averages(op, x, horizon)


class TestDriftBoundCheck:
    def test_isometry_trajectories_satisfy_bound(self):
        for traj in (
            _rotation_traj(),
            ergodic_averages(CyclicShift(4), vector([1, 0, 0, 0], p=2), 64),
        ):
            rep = drift_bound_check(traj)
            assert rep.max_excess <= 1e-10
            i, j = rep.worst_pair
            assert 1 <= i < j <= traj.horizon

    def test_rejects_expansive_certificate(self):
        mat = np.diag([2.0, 2.0]).astype(np.float64)
        cert = estimate_power_bounds(DenseMatrix(mat), n_max=8)
        op = DenseMatrix(mat, cert)
        traj = ergodic_averages(op, vector([1.0], p=2), 8)
        with pytest.raises(PreconditionError):
            drift_bound_check(traj)

    def test_contraction_passes(self):
        op = DenseMatrix(np.diag([0.5, 0.5]).astype(np.float64))
        traj = ergodic_averages(op, vector([1.0], p=2), 32)
        rep = drift_bound_check(traj)
        assert rep.max_excess <= 1e-10


def _same_as_loop(traj):
    rep = drift_bound_check(traj)
    ref = ref_drift(traj.points, traj.x.norm(), traj.p, batch_norm_p)
    assert (rep.max_excess, rep.worst_pair) == ref
    return rep


def _drift_operator(kind, u, rng):
    if kind == "rotation":
        return RotationProduct(rng.uniform(-math.pi, math.pi, u))
    if kind == "shift":
        return CyclicShift(u)
    if kind == "half":
        return DenseMatrix(0.5 * np.eye(2 * u))
    # uncertified and non-normal; its norm can exceed 1, so excesses can be positive
    return DenseMatrix(0.6 * rng.standard_normal((2 * u, 2 * u)) / math.sqrt(2 * u))


class TestDriftSearchIsExact:
    """The pruned search against the all-pairs loop: same excess bits, same pair."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["rotation", "shift", "half", "non-normal"]), st.integers(1, 4),
           st.one_of(st.sampled_from([1, 2, 3, 4, 5, 127, 128, 129, 131, 256, 389]),
                     st.integers(1, 700)),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.sampled_from([-600, 0, 600]),
           st.integers(0, 2**32 - 1))
    def test_matches_all_pairs_loop(self, kind, u, horizon, p, scale, seed):
        rng = np.random.default_rng(seed)
        x = 2.0**scale * (rng.standard_normal(u) + 1j * rng.standard_normal(u))
        _same_as_loop(ergodic_averages(_drift_operator(kind, u, rng), vector(x, p=p), horizon))

    @pytest.mark.parametrize("horizon", [2, 7, 130])
    def test_zero_vector_ties_everywhere(self, horizon):
        # every excess is 0.0: the first adjacent pair wins
        traj = ergodic_averages(RotationProduct(np.array([0.7, 1.9])), vector([0.0, 0.0], p=2),
                                horizon)
        assert _same_as_loop(traj) == DriftReport(0.0, (1, 2))

    @pytest.mark.parametrize("scale", [0.0, 1.0])
    @pytest.mark.parametrize("horizon", [2, 130, 259])
    def test_constant_operators(self, scale, horizon):
        # T = I keeps A_n x = x, T = 0 gives A_n x = x/n
        op = DenseMatrix(scale * np.eye(4))
        rep = _same_as_loop(ergodic_averages(op, vector([1.0, 0.5j], p=2), horizon))
        if scale:
            assert rep.worst_pair == (horizon - 1, horizon)

    def test_ties_go_to_the_smaller_gap_then_the_earlier_start(self):
        # ||x|| = 0, so excess = distance: (2, 3) and (1, 3) both reach 1
        traj = AverageTrajectory(np.array([[0.0], [0.0], [1.0]]), 2.0, None, vector([0.0], p=2))
        assert _same_as_loop(traj).worst_pair == (2, 3)

    def test_rotation_needs_few_exact_pairs(self, monkeypatch):
        n = 2048
        rows = []

        def counted(points, p):
            rows.append(len(points))
            return batch_norm_p(points, p)

        traj = _rotation_traj(horizon=n)
        monkeypatch.setattr(bounds_module, "batch_norm_p", counted)
        rep = drift_bound_check(traj)
        assert sum(rows) <= 0.1 * n * (n - 1) / 2
        assert (rep.max_excess, rep.worst_pair) == ref_drift(traj.points, traj.x.norm(), 2.0,
                                                             batch_norm_p)


class TestStabilityWindowCheck:
    def test_clean_window_on_rotation(self):
        traj = _rotation_traj(horizon=4096)
        norm_x = traj.x.norm()
        par = stability_parameters(norm_x, 1.0, HILBERT)
        n0 = earliest_stable_start(traj, par.gamma, 4096)
        rep = stability_window_check(traj, par, n0, 4096)
        assert rep.window == (par.M * n0, 2048)
        assert rep.violations == ()
        assert not rep.truncated

    def test_empty_window(self):
        traj = _rotation_traj(horizon=64)
        par = stability_parameters(traj.x.norm(), 1.0, HILBERT)
        n0 = earliest_stable_start(traj, par.gamma, 64)
        rep = stability_window_check(traj, par, n0, 64)
        lo, hi = rep.window
        assert lo > hi  # M*n0 is past floor(64/2) = 32
        assert rep.violations == ()

    def test_hypothesis_violation_names_index(self):
        traj = _rotation_traj(horizon=64)
        par = stability_parameters(traj.x.norm(), 1.0, HILBERT)
        # average norms decay, so n_start = 1 puts the floor at its highest
        # and the decay below it must be flagged
        with pytest.raises(PreconditionError) as info:
            stability_window_check(traj, par, 1, 64)
        assert "m=" in str(info.value)

    def test_horizon_guard(self):
        traj = _rotation_traj(horizon=16)
        par = stability_parameters(traj.x.norm(), 1.0, HILBERT)
        with pytest.raises(HorizonExhaustedError) as info:
            stability_window_check(traj, par, 1, 17)
        assert info.value.checked_up_to == 16

    def test_input_validation(self):
        traj = _rotation_traj(horizon=16)
        par = stability_parameters(traj.x.norm(), 1.0, HILBERT)
        with pytest.raises(InvalidInputError):
            stability_window_check(traj, par, 0, 8)
        with pytest.raises(InvalidInputError):
            stability_window_check(traj, par, 9, 8)

    def test_violations_collected_on_synthetic_data(self):
        # a trajectory object is only a container here; build one whose
        # averages we control via a unitary with slow mixing, then audit a
        # window with eps small enough that separated pairs exist
        traj = _rotation_traj(horizon=256)
        norm_x = traj.x.norm()
        # gamma large enough that n_start = 1 passes the hypothesis, M small
        par = StabilityParametersFactory(norm_x)
        rep = stability_window_check(traj, par, 1, 256)
        assert rep.window == (2, 128)
        assert len(rep.violations) >= 1
        for i, j in rep.violations:
            assert 2 <= i < j <= 128
            d = traj.point(j) - traj.point(i)
            assert d.norm() >= par.eps

    def test_truncation_after_sixteen_violations(self):
        traj = _rotation_traj(horizon=256)
        par = StabilityParametersFactory(traj.x.norm())
        rep = stability_window_check(traj, par, 1, 256)
        lo, hi = rep.window
        chain = count_fluctuations(traj.points[lo - 1:hi], par.eps).witnesses
        assert len(chain) > 16 and rep.truncated
        assert rep.violations == tuple((i + lo - 1, j + lo - 1) for i, j in chain[:16])
        # a window ending at the 16th pair's endpoint holds exactly 16 violations
        end = rep.violations[-1][1]
        exact = stability_window_check(traj, par, 1, 2 * end)
        assert exact.window == (lo, end)
        assert exact.violations == rep.violations and not exact.truncated


def StabilityParametersFactory(norm_x):
    """Hand-built parameter pack: permissive hypothesis, tight eps."""
    from ergolab import StabilityParameters

    return StabilityParameters(
        norm_x=norm_x, eps=0.05, p=2.0, K=0.125, M=2, gamma=2.0 * norm_x, rho=norm_x / 0.05
    )


class TestEarliestStableStart:
    def test_finds_first_near_minimal_norm(self):
        traj = _rotation_traj(horizon=128)
        norms = traj.norms()
        n0 = earliest_stable_start(traj, 0.01, 128)
        floor_level = norms[:128].min() + 0.01
        assert norms[n0 - 1] <= floor_level
        assert all(norms[m] > floor_level for m in range(n0 - 1))

    def test_gamma_zero_is_argmin(self):
        traj = _rotation_traj(horizon=64)
        n0 = earliest_stable_start(traj, 0.0, 64)
        assert n0 - 1 == int(np.argmin(traj.norms()[:64]))

    def test_validation(self):
        traj = _rotation_traj(horizon=16)
        with pytest.raises(InvalidInputError):
            earliest_stable_start(traj, 0.1, 0)
        with pytest.raises(InvalidInputError):
            earliest_stable_start(traj, 0.1, 17)
