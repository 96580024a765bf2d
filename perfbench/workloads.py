"""The three workloads: seeded inputs, the cases that run them, their checks.

A case is one user-level analysis. `run` is what the benchmark times;
`check` verifies the output against the benchmark's own references and
runs once per benchmark run, on the first round; `fingerprint` condenses
the output so that every later round is compared with the first.

All program calls go through module attributes (`ergolab.x`,
`ergolab.cli.main`) at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
import ergolab
import ergolab.cli
from checks import require

# The fixed family the seeded cases are drawn from (see README.md).
FAMILY_SEED = 2026


@dataclass(frozen=True)
class Case:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    fingerprint: Callable[[Any], Any]


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(arr).view(np.uint8)).hexdigest()


def _unit_vector(rng: np.random.Generator, u: int) -> np.ndarray:
    z = rng.standard_normal(u) + 1j * rng.standard_normal(u)
    return z / checks.l2_rows(z)


def _check_chain(points: np.ndarray, eps: float, report, norm_x: float) -> None:
    require(report.count == len(report.witnesses), "count differs from the number of witnesses")
    checks.check_witnesses(points, eps, report.witnesses)
    checks.check_gaps(points, eps, report.witnesses)
    bound = ergolab.fluctuation_bound_nonexpansive(norm_x, eps, ergolab.descriptor_preset("hilbert"))
    require(report.count <= bound, f"count {report.count} exceeds the bound {bound}")


# ---------------------------------------------------------------------------
# tail-scan

TAIL_N = 2**15
TAIL_FAMILY = 8
ORACLE_PREFIX = 32
# The quarter turns i^k of one complex slot, as exact multipliers.
_QUARTER = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])


def tail_family() -> list[tuple[np.ndarray, np.ndarray, float]]:
    """(angles, x, eps) of each family member, by one fixed rule: u in
    {2, 3, 4}, |angle| uniform in [0.25, pi] with a random sign, x a random
    unit vector of l^2_u(C), eps log-uniform in [0.02, 0.1]."""
    family = []
    for child in np.random.SeedSequence(FAMILY_SEED).spawn(TAIL_FAMILY):
        rng = np.random.default_rng(child)
        u = int(rng.integers(2, 5))
        magnitudes = rng.uniform(0.25, math.pi, u)
        signs = np.where(rng.random(u) < 0.5, -1.0, 1.0)
        x = _unit_vector(rng, u)
        eps = float(np.exp(rng.uniform(math.log(0.02), math.log(0.1))))
        family.append((magnitudes * signs, x, eps))
    return family


def _slot_symmetry(rng: np.random.Generator, u: int):
    """A permutation of the slots, a quarter-turn count and a reflection flag per slot."""
    return rng.permutation(u), rng.integers(0, 4, u), rng.random(u) < 0.5


def _apply_slots(z: np.ndarray, perm, turns, flip) -> np.ndarray:
    turned = z[perm] * _QUARTER[turns]
    return np.where(flip, turned.conj(), turned)


def symmetric_copy(rng: np.random.Generator, angles: np.ndarray, x: np.ndarray):
    """Permute the slots, turn each by a multiple of a quarter turn and
    reflect some of them (x_j -> conj x_j with t_j -> -t_j). Each step maps
    the trajectory exactly onto a permuted, turned, reflected copy, so every
    pairwise distance, and the scan's work, is unchanged."""
    perm, turns, flip = _slot_symmetry(rng, len(angles))
    return np.where(flip, -angles[perm], angles[perm]), _apply_slots(x, perm, turns, flip)


def _tail_case(name: str, angles: np.ndarray, x: np.ndarray, eps: float) -> Case:
    op = ergolab.RotationProduct(angles)
    vec = ergolab.Vector(x, p=2.0)
    norm_x = checks.lp_norm(x, 2.0)
    envelope = checks.rotation_envelope(angles, x)

    def run():
        traj = ergolab.ergodic_averages(op, vec, TAIL_N)
        return (traj, ergolab.count_fluctuations(traj, eps),
                ergolab.empirical_convergence_rate(traj, eps))

    def check(out):
        traj, report, rate = out
        pts = traj.points
        checks.check_rotation_trajectory(pts, angles, x)
        _check_chain(pts, eps, report, norm_x)
        checks.check_rate(pts, eps, rate.found, rate.n)
        require(report.count > 0 and rate.n <= report.witnesses[-1][1],
                f"rate {rate.n} is past the last witness, so a tail fluctuation was missed")
        checks.check_rotation_tail(pts, eps, rate.n, envelope)
        prefix = traj.truncated(ORACLE_PREFIX)
        prefix_rate = ergolab.empirical_convergence_rate(prefix, eps)
        checks.check_prefix_against_oracle(
            pts[:ORACLE_PREFIX], eps, ergolab.count_fluctuations(prefix, eps).count,
            prefix_rate.n if prefix_rate.found else None)

    def fingerprint(out):
        traj, report, rate = out
        return _digest(traj.points), report.witnesses, rate.found, rate.n

    return Case(name, run, check, fingerprint)


def _lower_bound_case() -> Case:
    p = 4

    def check(res):
        need = 2**p
        require((res.p, res.u, res.horizon, res.eps, res.required) == (p, need, 2**need, 0.25, need),
                 f"unexpected rotation-family set-up {res}")
        chain = checks.rotation_family_chain(p)
        require(res.fluctuation_count >= len(chain) == need,
                f"count {res.fluctuation_count} below the {need} pairs of the paper's chain")
        require(res.rate_lower_bound >= need, f"rate {res.rate_lower_bound} below 2^p = {need}")

    return Case(f"rotation-family-p{p}", lambda: ergolab.verify_metastability_lower_bound(p),
                check, lambda res: res)


def tail_scan(seed: int, workdir: str) -> list[Case]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    cases = [_tail_case(f"rotation-{b}", *symmetric_copy(rng, angles, x), eps)
             for b, (angles, x, eps) in enumerate(tail_family())]
    return cases + [_lower_bound_case()]


# ---------------------------------------------------------------------------
# long-orbit

DRIFT_PREFIX = 2048
LARGE_EPS = 0.5


def _orbit_case(name: str, op, x: np.ndarray, horizon: int,
                check_points: Callable[[np.ndarray], None],
                tail: Callable[[np.ndarray, int], None] | None = None) -> Case:
    vec = ergolab.Vector(x, p=2.0)
    norm_x = checks.lp_norm(x, 2.0)

    def run():
        traj = ergolab.ergodic_averages(op, vec, horizon)
        drift = ergolab.drift_bound_check(traj.truncated(DRIFT_PREFIX))
        return traj, drift, ergolab.count_fluctuations(traj, LARGE_EPS)

    def check(out):
        traj, drift, report = out
        pts = traj.points
        require(pts.shape == (horizon, len(x)), f"trajectory shape {pts.shape}")
        check_points(pts)
        checks.check_drift(pts[:DRIFT_PREFIX], norm_x, drift.max_excess, drift.worst_pair)
        _check_chain(pts, LARGE_EPS, report, norm_x)
        if tail is not None:
            tail(pts, report.witnesses[-1][1] if report.count else 1)

    def fingerprint(out):
        traj, drift, report = out
        return _digest(traj.points), drift.max_excess, drift.worst_pair, report.witnesses

    return Case(name, run, check, fingerprint)


def _rotation_case(name: str, angles: np.ndarray, x: np.ndarray, horizon: int) -> Case:
    envelope = checks.rotation_envelope(angles, x)
    return _orbit_case(
        name, ergolab.RotationProduct(angles), x, horizon,
        lambda pts: checks.check_rotation_trajectory(pts, angles, x),
        lambda pts, start: checks.check_rotation_tail(pts, LARGE_EPS, start, envelope))


def _cyclic_case(name: str, x: np.ndarray, horizon: int) -> Case:
    return _orbit_case(name, ergolab.CyclicShift(len(x)), x, horizon,
                       lambda pts: checks.check_cyclic_trajectory(pts, x))


def _dense_case(name: str, matrix: np.ndarray, x: np.ndarray, horizon: int) -> Case:
    return _orbit_case(name, ergolab.DenseMatrix(matrix), x, horizon,
                       lambda pts: checks.check_orthogonal_trajectory(pts, matrix, x))


def orbit_family():
    """Rotation angles and start vectors, the 64-slot start vector and the
    orthogonal matrix of long-orbit, by one fixed rule."""
    rng = np.random.default_rng(np.random.SeedSequence([FAMILY_SEED, 2]))

    def rotation(u):
        return rng.uniform(0.25, math.pi, u) * np.where(rng.random(u) < 0.5, -1.0, 1.0), \
            _unit_vector(rng, u)

    rotations = [rotation(2), rotation(2), rotation(4)]
    x64 = _unit_vector(rng, 64)
    q, r = np.linalg.qr(rng.standard_normal((8, 8)))
    return rotations, x64, q * np.sign(np.diag(r)), _unit_vector(rng, 4)


def _slot_matrix(perm, turns, flip) -> np.ndarray:
    """The real 2u x 2u signed permutation that acts on interleaved
    coordinates as _apply_slots acts on complex slots."""
    u = len(perm)
    s = np.zeros((2 * u, 2 * u))
    for a, (b, k, f) in enumerate(zip(perm, turns, flip)):
        c, d = [(1, 0), (0, 1), (-1, 0), (0, -1)][k]  # i^k = c + d i
        block = np.array([[c, -d], [d, c]], dtype=np.float64)
        if f:
            block[1] *= -1.0
        s[2 * a:2 * a + 2, 2 * b:2 * b + 2] = block
    return s


def long_orbit(seed: int, workdir: str) -> list[Case]:
    """Rotation horizons on both sides of the library's switch to
    compensated summation above 1,000,000 rows, a 64-slot cyclic shift and
    an orthogonal dense matrix. The seed draws an exact symmetry of each
    family member: slot symmetries of the rotations and of the matrix
    (conjugated by the matching signed permutation), and a cyclic roll,
    a quarter turn and a reflection of the shift's start vector, all of
    which commute with the shift."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    rotations, x64, matrix, x4 = orbit_family()
    cases = [_rotation_case(f"rotation-{horizon}", *symmetric_copy(rng, *rotations[k]), horizon)
             for k, horizon in enumerate((999_999, 1_000_001, 2**16))]
    roll, turn, flip = int(rng.integers(64)), _QUARTER[rng.integers(4)], bool(rng.random() < 0.5)
    x64 = np.roll(x64, roll) * turn
    cases.append(_cyclic_case("cyclic-64", x64.conj() if flip else x64, 2**15))
    sym = _slot_symmetry(rng, 4)
    s = _slot_matrix(*sym)
    cases.append(_dense_case("dense-orthogonal-4", s @ matrix @ s.T, _apply_slots(x4, *sym), 2**16))
    return cases


# ---------------------------------------------------------------------------
# scenario-batch

JOBS = 2


def scenario_configs(seed: int) -> list[dict]:
    """One batch of scenario configs. The kinds whose cost does not depend
    on the random draw take their scenario seed from the workload seed; the
    metastability and fluctuation-vs-bound configs, whose cost is set by
    count_fluctuations' tail certification and varies tenfold from one
    random rotation to the next, keep fixed scenario seeds."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))

    def drawn() -> int:
        return int(rng.integers(0, 2**31 - 1))

    meta = {"kind": "metastability", "dims": [2, 3], "horizon": 4096, "cases": 4}
    return [
        dict(meta, name="meta-successor", seed=FAMILY_SEED, g="successor", eps_grid=[0.05, 0.02]),
        dict(meta, name="meta-double", seed=FAMILY_SEED + 1, g="double", eps_grid=[0.1, 0.05]),
        dict(meta, name="meta-next-power-of-two", seed=FAMILY_SEED + 2, g="next-power-of-two",
             eps_grid=[0.1, 0.05]),
        {"name": "fluctuation-vs-bound", "kind": "fluctuation-vs-bound", "seed": FAMILY_SEED + 3,
         "preset": "hilbert", "dims": [3], "horizon": 2048, "eps_grid": [0.5, 0.25],
         "cases": 4, "include_constant": True},
        {"name": "variation-2048", "kind": "variation-sweep", "seed": drawn(),
         "dims": [2, 4], "horizon": 2048, "q_grid": [2.0, 3.0], "cases": 2},
        {"name": "variation-1024", "kind": "variation-sweep", "seed": drawn(),
         "dims": [3], "horizon": 1024, "q_grid": [2.0], "cases": 2},
        {"name": "dyadic-constants", "kind": "dyadic-constants", "seed": drawn(),
         "p": 2.0, "support": 256, "levels": 8, "cases": 8},
        {"name": "counterexample-suite", "kind": "counterexample-suite", "seed": drawn(),
         "p_grid": [2, 3]},
        {"name": "convexity-audit", "kind": "convexity-audit", "seed": drawn()},
    ]


def _scenario_case(config: dict, config_path: str, out_dir: str) -> Case:
    report_path = os.path.join(out_dir, f"{config['name']}.json")

    def run():
        with contextlib.redirect_stdout(io.StringIO()) as log:
            status = ergolab.cli.main(["run", config_path, "--out", out_dir,
                                       "--jobs", str(JOBS)])
        return status, log.getvalue()

    def rows(out) -> list:
        status, log = out
        require(status == 0, f"ergolab run {config['name']} exited {status}: {log}")
        with open(report_path, encoding="utf-8") as fh:
            return checks.check_report(fh.read(), config)

    return Case(config["name"], run, rows, lambda out: json.dumps(rows(out)))


def scenario_batch(seed: int, workdir: str) -> list[Case]:
    config_dir = os.path.join(workdir, "configs")
    out_dir = os.path.join(workdir, "reports")
    os.makedirs(config_dir, exist_ok=True)
    cases = []
    for config in scenario_configs(seed):
        path = os.path.join(config_dir, f"{config['name']}.config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        cases.append(_scenario_case(config, path, out_dir))
    return cases


WORKLOADS = {"tail-scan": tail_scan, "long-orbit": long_orbit, "scenario-batch": scenario_batch}
