"""Acceptance gate: nine end-to-end criteria with stated tolerances.

Each test prints one PASS line with its runtime when it succeeds (visible
under `pytest -s`); a failing criterion fails its test with the offending
values in the assertion message. Tolerances and runtime caps are part of
the criteria and are asserted, not just reported.
"""

import itertools
import json
import math
import os
import time

import numpy as np

from ergolab import (
    CyclicShift,
    HorizonExhaustedError,
    RotationProduct,
    Vector,
    conditional_expectation,
    count_fluctuations,
    descriptor_preset,
    drift_bound_check,
    ergodic_averages,
    fluctuation_bound_nonexpansive,
    g_double,
    g_next_power_of_two,
    g_successor,
    lpb_norm,
    martingale_differences,
    max_p_variation,
    metastability_rate,
    shift_average_at,
    transfer_embed,
    verify_decomposition_inequalities,
    verify_metastability_lower_bound,
    window_fluctuation_bound,
    SeqFunction,
)
from ergolab.cli import main as cli_main

from oracles import brute_force_fluctuations, brute_force_p_variation, ref_orbit, value_at


def _done(num: int, desc: str, t0: float) -> None:
    print(f"PASS criterion {num}: {desc} [{time.perf_counter() - t0:.2f}s]")


def test_01_rotation_average_identities():
    t0 = time.perf_counter()
    for k in range(1, 13):
        theta = math.pi / k
        traj = ergodic_averages(RotationProduct(np.array([theta])), Vector([1.0], p=2), 2 * k)
        a_2k = traj.point(2 * k).norm()
        a_k = traj.point(k).norm()
        assert a_2k <= 1e-12, f"k={k}: |A_2k| = {a_2k}"
        assert a_k >= 2.0 / math.pi - 1e-9, f"k={k}: |A_k| = {a_k}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _done(1, "vanishing and large rotation averages, k = 1..12", t0)


def test_02_metastability_lower_bounds():
    t0 = time.perf_counter()
    for p in (2, 3, 4):
        t_p = time.perf_counter()
        res = verify_metastability_lower_bound(p)
        elapsed = time.perf_counter() - t_p
        assert res.rate_lower_bound >= 2**p, (
            f"p={p}: rate lower bound {res.rate_lower_bound} < {2**p}"
        )
        assert res.fluctuation_count >= 2**p, (
            f"p={p}: fluctuation count {res.fluctuation_count} < {2**p}"
        )
        if p == 4:
            assert res.u == 16 and res.horizon == 2**16
            assert elapsed < 10.0, f"p=4 took {elapsed:.2f}s"
    _done(2, "rotation family reaches rate and count >= 2^p for p = 2, 3, 4", t0)


def test_03_cyclic_shift_identities():
    t0 = time.perf_counter()
    u = 16
    e1 = np.zeros(u, dtype=np.complex128)
    e1[0] = 1.0
    traj = ergodic_averages(CyclicShift(u), Vector(e1, p=1.0), 32)
    for k in range(0, 4):
        gap = Vector(traj.point(2 ** (k + 1)).components - traj.point(2**k).components, p=1.0).norm()
        assert abs(gap - 1.0) <= 1e-12, f"k={k}: ||A_(2^(k+1)) - A_(2^k)||_1 = {gap}"
    a2 = traj.point(2).components
    want_a2 = np.zeros(u, dtype=np.complex128)
    want_a2[:2] = 0.5
    assert np.max(np.abs(a2 - want_a2)) <= 1e-12
    diff = traj.point(4).components - a2
    want_diff = np.zeros(u, dtype=np.complex128)
    want_diff[:2], want_diff[2:4] = -0.25, 0.25
    assert np.max(np.abs(diff - want_diff)) <= 1e-12
    _done(3, "unit-separated power-of-two cyclic shift averages, u = 16", t0)


def test_04_bound_dominance_randomized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    desc = descriptor_preset("hilbert")
    horizon = 256
    cases = 220
    worst_drift = 0.0
    for case in range(cases):
        dim = int(rng.integers(1, 5))
        if case % 3 == 2:
            op = CyclicShift(dim)
        else:
            magnitudes = rng.uniform(0.25, math.pi, dim)
            signs = np.where(rng.uniform(size=dim) < 0.5, -1.0, 1.0)
            op = RotationProduct(magnitudes * signs)
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x = Vector(z * rng.uniform(0.5, 2.0) / Vector(z, p=2).norm(), p=2)
        norm_x = x.norm()
        eps = float(rng.uniform(0.05, 1.95)) * norm_x
        traj = ergodic_averages(op, x, horizon)

        measured = count_fluctuations(traj, eps).count
        bound = fluctuation_bound_nonexpansive(norm_x, eps, desc)
        assert measured <= bound, f"case {case}: {measured} > {bound}"

        for alpha in (1.5, 2.0, 4.0):
            for n0 in (1, 4, 16, 64):
                hi = min(int(alpha * n0), horizon)
                if hi <= n0:
                    continue
                window = traj.points[n0 - 1 : hi]
                wcount = count_fluctuations(window, eps).count
                wbound = window_fluctuation_bound(norm_x, eps, alpha)
                assert wcount <= wbound, (
                    f"case {case}: window [{n0}, {hi}] has {wcount} > {wbound}"
                )

        worst_drift = max(worst_drift, drift_bound_check(traj).max_excess)
    assert worst_drift <= 1e-10, f"drift excess {worst_drift}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _done(4, f"{cases} randomized cases: total, windowed, and drift bounds", t0)


def test_05_oracle_equivalence_exhaustive():
    t0 = time.perf_counter()
    grid = (0.0, 0.5, 1.0)
    checked = 0
    for length in range(1, 9):
        for vals in itertools.product(grid, repeat=length):
            arr = np.array(vals)
            for eps in (0.25, 0.5, 1.0):
                assert count_fluctuations(arr, eps).count == \
                    brute_force_fluctuations(vals, eps)
            got, _ = max_p_variation(arr, 2.0)
            want, _ = brute_force_p_variation(vals, 2.0)
            assert abs(got - want) <= 1e-12, f"{vals}: {got} != {want}"
            checked += 1
    assert checked == (3**9 - 3) // 2  # all lengths 1..8
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _done(5, f"greedy and DP match brute force on {checked} grid sequences", t0)


def test_06_conversion_soundness_randomized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    for trial in range(100):
        length = int(rng.integers(8, 65))
        vals = rng.uniform(0.0, 1.0, length)
        for g in (g_successor, g_double):
            for eps in (0.25, 0.5):
                s = count_fluctuations(vals, eps).count
                endpoints = [1]
                for _ in range(s + 1):
                    endpoints.append(g(endpoints[-1]))

                def dirty(lo, hi):
                    hi = min(hi, length)
                    return any(
                        abs(vals[j] - vals[i]) >= eps
                        for i in range(lo - 1, hi)
                        for j in range(i + 1, hi)
                    )

                assert any(
                    not dirty(endpoints[i], endpoints[i + 1]) for i in range(s + 1)
                ), f"trial {trial}: all {s + 1} intervals dirty"
    _done(6, "a fluctuation-free interval exists among the first s+1", t0)


def test_07_martingale_machinery_corpus():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    ts12 = [2**k - 1 for k in range(1, 13)]
    ts10 = [2**k - 1 for k in range(1, 11)]
    pow12 = [2**k for k in range(0, 13)]
    pow10 = [2**k for k in range(0, 11)]
    max_ae = {10: 0.0, 12: 0.0}
    max_si = {10: 0.0, 12: 0.0}
    for _ in range(500):
        width = int(rng.integers(8, 65))
        lo = int(rng.integers(-32, 33))
        f = SeqFunction(lo, rng.standard_normal(width) + 1j * rng.standard_normal(width), 2.0)
        scale = max(1.0, lpb_norm(f))

        m, n = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        tower_gap = lpb_norm(
            conditional_expectation(conditional_expectation(f, n), m)
            - conditional_expectation(f, max(m, n))
        )
        assert tower_gap <= 1e-10 * scale

        n_lvl = int(rng.integers(1, 7))
        assert lpb_norm(conditional_expectation(f, n_lvl)) <= lpb_norm(f) + 1e-10 * scale

        diffs = martingale_differences(f, n_lvl)
        total = diffs[0]
        for d in diffs[1:]:
            total = total + d
        tele_gap = lpb_norm(total - (f - conditional_expectation(f, n_lvl)))
        assert tele_gap <= 1e-10 * scale

        ratio = verify_decomposition_inequalities(
            f, "martingale", levels=list(range(0, 7))
        ).ratio
        assert ratio <= 1.0 + 1e-9, f"martingale ratio {ratio}"

        for window, ts, pows in ((12, ts12, pow12), (10, ts10, pow10)):
            ae = verify_decomposition_inequalities(f, "average_vs_expectation", ts=ts)
            si = verify_decomposition_inequalities(f, "short_increments", ts=pows)
            max_ae[window] = max(max_ae[window], ae.ratio)
            max_si[window] = max(max_si[window], si.ratio)
    assert max_ae[12] <= 2.0 * max_ae[10], f"avg-vs-exp max grew {max_ae}"
    assert max_si[12] <= 2.0 * max_si[10], f"short-increment max grew {max_si}"
    _done(7, "500-function corpus: identities to 1e-10, stable ratios", t0)


def test_08_transfer_consistency():
    t0 = time.perf_counter()
    big_n = 2**14
    setups = [
        (RotationProduct(np.array([0.9, -2.3, 0.31])), Vector([1.0, 0.5j, -0.25], p=2)),
        (CyclicShift(8), Vector([1, 0, 0, 0.5, 0, 0, 0, 0], p=3)),
    ]
    for op, x in setups:
        f = transfer_embed(op, x, big_n)
        rows = ref_orbit(op, x.components, big_n)
        b2 = op.certificate.B2
        lhs = lpb_norm(f) ** x.p
        rhs = big_n * b2**x.p * x.norm() ** x.p
        assert lhs <= rhs * (1.0 + 1e-10), f"{lhs} > {rhs}"
        for n in (1, 37, 512, 4096):
            an_f = shift_average_at(f, n)
            for i in (0, 1, 1000, big_n - n - 1):
                start = Vector(rows[i], x.p)
                want = ergodic_averages(op, start, n).point(n)
                gap = Vector(value_at(an_f, i) - want.components, x.p).norm()
                assert gap <= 1e-10, f"n={n}, i={i}: gap {gap}"
    _done(8, "transfer embedding: interior identity and norm bound at N = 2^14", t0)


def test_09_verify_all_deterministic(tmp_path, capsys):
    t0 = time.perf_counter()
    code1 = cli_main(["verify-all", "--out", str(tmp_path / "a"), "--seed", "17"])
    code2 = cli_main(["verify-all", "--out", str(tmp_path / "b"), "--seed", "17"])
    capsys.readouterr()  # swallow the per-run summaries
    assert code1 == 0 and code2 == 0
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b")) and len(names) == 6
    for name in names:
        rows_a = json.loads((tmp_path / "a" / name).read_text())["rows"]
        rows_b = json.loads((tmp_path / "b" / name).read_text())["rows"]
        assert rows_a == rows_b, f"{name} rows differ between runs"
    _done(9, "verify-all is row-identical across runs with one seed", t0)
