"""Output checks that use the benchmark's own arithmetic.

Nothing here calls into ergolab. Distances use the benchmark's own l^2
norm (real and imaginary parts squared and summed), trajectories are
compared with closed forms written out here, and the exhaustive parts are
plain brute force over explicit index ranges. Every check raises
CheckError with a message naming what disagreed; `selftest.py` shows that
each one rejects a corrupted output.

Indices in every signature are 1-based, like the library's reports.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Entrywise agreement demanded between a trajectory and its closed form.
TRAJ_TOL = 1e-10
# Slack for rounding in relations that hold exactly (relative for norms,
# absolute for the drift excess and the martingale ratio).
ROUND_TOL = 1e-12

_BLOCK = 4096


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def l2_rows(d: np.ndarray) -> np.ndarray:
    """l^2 norm of each row of a complex array (last axis)."""
    return np.sqrt(np.sum(d.real * d.real + d.imag * d.imag, axis=-1))


def lp_norm(z: np.ndarray, p: float) -> float:
    return float(np.sum(np.abs(z) ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# trajectories


def rotation_averages(angles: np.ndarray, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """A_n x for n in [lo, hi] of the rotation product, in half-angle form:
    A_n x_j = x_j * sin(n t/2) / (n sin(t/2)) * e^(i (n-1) t/2)."""
    n = np.arange(lo, hi + 1, dtype=np.float64)[:, None]
    half = 0.5 * np.asarray(angles, dtype=np.float64)[None, :]
    mag = np.sin(n * half) / (n * np.sin(half))
    return mag * np.exp(1j * (n - 1.0) * half) * np.asarray(x)[None, :]


def check_rotation_trajectory(points: np.ndarray, angles: np.ndarray, x: np.ndarray) -> None:
    n_pts = points.shape[0]
    for lo in range(1, n_pts + 1, _BLOCK):
        hi = min(n_pts, lo + _BLOCK - 1)
        err = np.abs(points[lo - 1:hi] - rotation_averages(angles, x, lo, hi)).max()
        require(err <= TRAJ_TOL, f"rotation averages A_{lo}..A_{hi} are {err:.3g} "
                                 f"from the half-angle closed form (tolerance {TRAJ_TOL:g})")


def cyclic_averages(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """A_n x for n in [lo, hi] of the cyclic right shift on u slots.

    Slot k of T^i x is x[(k - i) mod u]; with n = q*u + r the first n terms
    are q full wraps (each summing to sum(x)) plus the r entries
    x[k], x[k-1], .., x[k-r+1] (mod u), read off one prefix sum of (x, x).
    """
    x = np.asarray(x)
    u = x.shape[0]
    prefix = np.concatenate(([0.0], np.cumsum(np.concatenate((x, x)))))
    n = np.arange(lo, hi + 1)
    q, r = np.divmod(n, u)
    k = np.arange(u)
    window = prefix[k[None, :] + u + 1] - prefix[k[None, :] + u + 1 - r[:, None]]
    return (q[:, None] * x.sum() + window) / n[:, None]


def check_cyclic_trajectory(points: np.ndarray, x: np.ndarray) -> None:
    n_pts = points.shape[0]
    for lo in range(1, n_pts + 1, _BLOCK):
        hi = min(n_pts, lo + _BLOCK - 1)
        err = np.abs(points[lo - 1:hi] - cyclic_averages(x, lo, hi)).max()
        require(err <= TRAJ_TOL, f"cyclic-shift averages A_{lo}..A_{hi} are {err:.3g} "
                                 f"from the prefix-sum formula (tolerance {TRAJ_TOL:g})")


def check_orthogonal_trajectory(points: np.ndarray, matrix: np.ndarray, x: np.ndarray,
                                recurrence_rows: int = 8192) -> None:
    """Averages of an orthogonal map: ||A_n x|| <= ||x|| for every n, and on
    a prefix the orbit points n A_n - (n-1) A_(n-1) step by the matrix."""
    norm_x = float(l2_rows(np.asarray(x)))
    norms = l2_rows(points)
    worst = int(np.argmax(norms))
    require(norms[worst] <= norm_x * (1.0 + ROUND_TOL),
            f"||A_{worst + 1} x|| = {norms[worst]!r} exceeds ||x|| = {norm_x!r}")
    m = min(recurrence_rows, points.shape[0])
    n = np.arange(1, m + 1, dtype=np.float64)[:, None]
    sums = points[:m] * n
    orbit = np.diff(sums, axis=0, prepend=0.0)  # row i = T^i x
    require(np.abs(orbit[0] - x).max() <= TRAJ_TOL, "A_1 x differs from x")
    coords = np.empty((m, 2 * orbit.shape[1]))
    coords[:, 0::2], coords[:, 1::2] = orbit.real, orbit.imag
    stepped = coords[:-1] @ np.asarray(matrix).T
    tol = 1e-9
    err = np.abs(stepped - coords[1:]).max(axis=1)
    bad = np.flatnonzero(err > tol)
    require(bad.size == 0, f"orbit point {int(bad[0]) + 2 if bad.size else 0} is not the "
                           f"matrix image of the one before (error {err.max():.3g} > {tol:g})")


def check_drift(points: np.ndarray, norm_x: float, max_excess: float,
                worst_pair: tuple[int, int]) -> None:
    """Recompute max over n < m of ||A_m - A_n|| - 2 (m-n) ||x|| / m and
    demand it matches the report and is <= 0 up to rounding."""
    n_pts = points.shape[0]
    best = -math.inf
    for i in range(n_pts - 1):
        m = np.arange(i + 2, n_pts + 1, dtype=np.float64)
        excess = l2_rows(points[i + 1:] - points[i]) - 2.0 * (m - (i + 1)) * norm_x / m
        best = max(best, float(excess.max()))
    require(best <= ROUND_TOL, f"drift excess {best!r} > 0")
    require(abs(best - max_excess) <= ROUND_TOL,
            f"reported drift excess {max_excess!r} but recomputed {best!r}")
    a, b = worst_pair
    require(1 <= a < b <= n_pts, f"worst pair {worst_pair} outside [1, {n_pts}]")
    at_pair = float(l2_rows(points[b - 1] - points[a - 1])) - 2.0 * (b - a) * norm_x / b
    require(abs(at_pair - max_excess) <= ROUND_TOL,
            f"worst pair {worst_pair} has excess {at_pair!r}, report says {max_excess!r}")


# ---------------------------------------------------------------------------
# fluctuation chains and convergence rates


def _max_pair_distance(points: np.ndarray, lo: int, hi: int) -> float:
    """Largest distance between two of the points lo..hi, by brute force."""
    best = 0.0
    seg = points[lo - 1:hi]
    for start in range(0, seg.shape[0], 256):
        rows = seg[start:start + 256]
        d = l2_rows(rows[:, None, :] - seg[None, :, :])
        best = max(best, float(d.max(initial=0.0)))
    return best


def check_witnesses(points: np.ndarray, eps: float, witnesses) -> None:
    """Witness pairs form a chain i1 < j1 <= i2 < j2 <= .. of eps-separated pairs."""
    n_pts = points.shape[0]
    prev_j = 1
    for i, j in witnesses:
        require(prev_j <= i < j <= n_pts, f"witness ({i}, {j}) breaks the chain after {prev_j}")
        d = float(l2_rows(points[j - 1] - points[i - 1]))
        require(d >= eps, f"witness ({i}, {j}) is {d!r} apart, below eps = {eps!r}")
        prev_j = j


def check_gaps(points: np.ndarray, eps: float, witnesses) -> None:
    """Greedy minimality: from each anchor (1, then the previous j) up to
    j - 1 no pair is eps-separated, and no start before i pairs with j."""
    anchor = 1
    for i, j in witnesses:
        if j - 1 > anchor:
            d = _max_pair_distance(points, anchor, j - 1)
            require(d < eps, f"the gap [{anchor}, {j - 1}] before witness ({i}, {j}) "
                             f"holds a pair {d!r} apart (eps = {eps!r})")
        if i > anchor:
            d = float(l2_rows(points[anchor - 1:i - 1] - points[j - 1]).max())
            require(d < eps, f"witness ({i}, {j}) has an earlier start at distance {d!r}")
        anchor = j


def rotation_envelope(angles: np.ndarray, x: np.ndarray) -> float:
    """C with ||A_n x|| <= C / n for every n: |A_n x_j| <= |x_j| / (n |sin(t_j/2)|)."""
    return float(np.sqrt(np.sum((np.abs(x) / np.abs(np.sin(0.5 * np.asarray(angles)))) ** 2)))


def check_rotation_tail(points: np.ndarray, eps: float, start: int, envelope: float) -> None:
    """No pair of A_start .. A_N is eps-separated, for rotation averages.

    Exhaustive over the pairs the envelope cannot settle: pairs with both
    indices at least n0 are within 2C/n0 < eps, and a pair (i, k) with
    k >= K_i is within ||A_i|| + C/K_i < eps. The points must already match
    the closed form (check_rotation_trajectory); the margin covers TRAJ_TOL.
    """
    n_pts = points.shape[0]
    margin = 1e-8
    n0 = min(n_pts + 1, math.floor(2.0 * envelope / (eps - margin)) + 1)
    if start >= n0:
        return
    heads = np.arange(start, n0)
    head_norms = l2_rows(points[heads - 1])
    slack = eps - margin - head_norms
    reach = np.where(slack > 0.0,
                     np.minimum(n_pts, np.floor(envelope / np.maximum(slack, 1e-300)) + 1), n_pts)
    for i, k_hi in zip(heads.tolist(), reach.astype(np.int64).tolist()):
        # in blocks, so that the check stays below the program's own peak memory
        for lo in range(i, k_hi, 16 * _BLOCK):
            d = l2_rows(points[lo:min(k_hi, lo + 16 * _BLOCK)] - points[i - 1])
            far = np.flatnonzero(d >= eps)
            if far.size:
                raise CheckError(f"tail from {start} is not eps-tight: A_{i} and "
                                 f"A_{lo + 1 + int(far[0])} are {float(d[far[0]])!r} apart")


def check_rate(points: np.ndarray, eps: float, found: bool, n: int | None) -> None:
    """Index n - 1 still opens an eps-separated pair (so n is least)."""
    require(found and n is not None, f"no convergence rate found (n = {n})")
    n_pts = points.shape[0]
    require(2 <= n <= n_pts, f"rate {n} outside [2, {n_pts}]")
    d = l2_rows(points[n - 1:] - points[n - 2])
    require(float(d.max()) >= eps, f"A_{n - 1} has no partner eps = {eps!r} away, "
                                   f"so the rate {n} is not least")


def check_prefix_against_oracle(points: np.ndarray, eps: float, count: int,
                                rate: int | None) -> None:
    """Greedy count and convergence rate on a short prefix equal the
    exhaustive reference implementations in tests/oracles.py."""
    import oracles

    pts = [tuple(complex(z) for z in row) for row in points]
    ref_count = oracles.brute_force_fluctuations(pts, eps, p=2.0)
    require(count == ref_count, f"prefix of {len(pts)}: count {count}, oracle {ref_count}")
    ref_rate = oracles.brute_force_convergence_rate(pts, eps, p=2.0)
    require(rate == ref_rate, f"prefix of {len(pts)}: rate {rate}, oracle {ref_rate}")


def rotation_family_chain(p: int) -> list[tuple[int, int]]:
    """The paper's witness chain for the rotation family at u = 2^p:
    (2^(k-1), 2^k) for k = 1..u. Slot k of A_n vanishes when 2^k divides n
    and is at least (2/pi) u^(-1/p) in modulus at n = 2^(k-1), while the
    slots before it vanish at both ends, so each pair is at least
    2/pi * 1/2 > 1/4 apart in the p-norm."""
    u = 2**p
    angles = math.pi / np.exp2(np.arange(u, dtype=np.float64))
    x = np.full(u, u ** (-1.0 / p), dtype=np.complex128)
    chain = []
    for k in range(1, u + 1):
        a = rotation_averages(angles, x, 2 ** (k - 1), 2 ** (k - 1))[0]
        b = rotation_averages(angles, x, 2**k, 2**k)[0]
        d = lp_norm(b - a, float(p))
        require(d >= 0.25, f"rotation family p={p}: band {k} pair is only {d!r} apart")
        chain.append((2 ** (k - 1), 2**k))
    return chain


# ---------------------------------------------------------------------------
# scenario reports

_WITNESS_TOL = 1e-9  # README: a witness reproduces the DP value this closely
_MONOTONE_TOL = 1e-12  # README: dyadic sub-sequence variation vs maximum
_RATIO_SLACK = 1e-9  # README: slack on the p = 2 martingale ratio bound

G_FUNCTIONS = {
    "successor": lambda n: n + 1,
    "double": lambda n: 2 * n,
    "next-power-of-two": lambda n: 1 << ((n - 1).bit_length() + 1),
}


def _row_passes(kind: str, row: dict) -> bool:
    if kind == "variation-sweep":
        top = row["variation_max"]
        return (abs(row["witness_value"] - top) <= _WITNESS_TOL * max(1.0, top)
                and row["variation_dyadic"] <= top + _MONOTONE_TOL)
    if kind == "fluctuation-vs-bound":
        return 0 <= row["measured_count"] <= row["bound"]
    if kind == "metastability":
        g = G_FUNCTIONS[row["g"]]
        t = 1
        for _ in range(row["fluctuation_count"]):
            t = g(t)
        require(row["conversion_bound"] == t,
                f"conversion bound {row['conversion_bound']} != g^count(1) = {t}")
        return (not row["exhausted"] and 1 <= row["rate"] <= row["conversion_bound"]
                and g(row["rate"]) <= row["horizon"])
    if kind == "dyadic-constants":
        if row["kind"] == "martingale" and row["p"] == 2.0:
            require(row["ratio"] <= 1.0 + ROUND_TOL,
                    f"martingale ratio {row['ratio']!r} > 1 at p = 2")
            require(row["bound"] == 1.0 + _RATIO_SLACK, f"p = 2 martingale bound {row['bound']!r}")
        return 0.0 <= row["ratio"] <= row["bound"]
    if kind == "counterexample-suite":
        need = 2 ** row["p"]
        return (row["u"] == need and row["required"] == need
                and row["rate_lower_bound"] >= need and row["fluctuation_count"] >= need)
    if kind == "convexity-audit":
        admissible = row["K"] * 2.0 ** row["p"] <= 1.0
        require(row["admissible"] == admissible, f"admissible flag wrong in {row}")
        return row["violations"] == 0 if admissible else row["violations"] > 0
    raise CheckError(f"unknown scenario kind {kind!r}")


def check_report(text: str, config: dict) -> list:
    """A JSON report: parses, carries every float as its exact 17-digit
    text, echoes the config, and every row passes by its own columns.
    Returns the rows."""
    float_tokens: list[str] = []

    def keep(token: str) -> float:
        float_tokens.append(token)
        return float(token)

    try:
        doc = json.loads(text, parse_float=keep)
    except ValueError as exc:
        raise CheckError(f"report is not JSON: {exc}") from exc
    for token in float_tokens:
        require(f"{float(token):.17g}" == token,
                f"float {token} is not the 17-digit text of the double it parses to")
    echo = doc["scenario"]
    echoed = dict(echo["params"], name=echo["name"], kind=echo["kind"], seed=echo["seed"])
    for key, value in config.items():
        if key in echoed:
            require(echoed[key] == value, f"report echoes {key} = {echoed[key]!r}, "
                                          f"config has {value!r}")
    rows = doc["rows"]
    require(len(rows) > 0, "report has no rows")
    for ordinal, row in enumerate(rows):
        recomputed = _row_passes(config["kind"], row)
        require(row["passed"] is recomputed,
                f"row {ordinal}: pass flag {row['passed']} but its columns give {recomputed}")
        require(recomputed, f"row {ordinal} of {config['name']} fails: {row}")
    return rows
