"""Quantitative fluctuation and stability bounds for nonexpansive averages.

All formulas are exact integer-valued expressions (no asymptotic forms).
Floors and ceilings of floating-point quantities are taken after rounding
the operand to 12 significant digits, so a value that is an integer up to
accumulated rounding is treated as that integer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._scan import _CHUNK, _CHUNK_FLOATS, PointsView, box_reach, greedy_chain
from .averages import AverageTrajectory
from .errors import HorizonExhaustedError, InvalidInputError, PreconditionError
from .spaces import SpaceDescriptor, _integer, batch_norm_p

__all__ = [
    "StabilityParameters",
    "DriftReport",
    "StabilityWindowReport",
    "floor12",
    "ceil12",
    "stability_parameters",
    "window_fluctuation_bound",
    "fluctuation_bound_nonexpansive",
    "drift_bound_check",
    "stability_window_check",
    "earliest_stable_start",
]


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def floor12(x: float) -> int:
    """Floor after rounding to 12 significant digits."""
    return math.floor(_round12(x))


def ceil12(x: float) -> int:
    """Ceiling after rounding to 12 significant digits."""
    return math.ceil(_round12(x))


@dataclass(frozen=True)
class StabilityParameters:
    """Derived constants for the norm-stability window check.

    M = ceil(16*||x||/eps) and gamma = (eps/8) * K * (eps/(8*||x||))^(p-1),
    i.e. gamma = (eps/8) * eta_tilde(eps/(8*||x||)) for the power-type modulus
    eta_tilde(t) = K * t^(p-1).
    """

    norm_x: float
    eps: float
    p: float
    K: float
    M: int
    gamma: float


def stability_parameters(norm_x: float, eps: float, desc: SpaceDescriptor) -> StabilityParameters:
    if not (norm_x > 0.0 and math.isfinite(norm_x)):
        raise InvalidInputError(f"need ||x|| > 0, got {norm_x}")
    if not (eps > 0.0 and math.isfinite(eps)):
        raise InvalidInputError(f"need eps > 0, got {eps}")
    m = ceil12(16.0 * norm_x / eps)
    gamma = (eps / 8.0) * desc.K * (eps / (8.0 * norm_x)) ** (desc.p - 1.0)
    if gamma == 0.0 or math.isinf(norm_x / gamma):
        raise InvalidInputError(f"gamma = {gamma} underflows: ||x||/gamma is not finite")
    return StabilityParameters(
        norm_x=float(norm_x),
        eps=float(eps),
        p=desc.p,
        K=desc.K,
        M=m,
        gamma=gamma,
    )


def window_fluctuation_bound(norm_x: float, eps: float, alpha: float) -> int:
    """floor(4 * ln(alpha) * ||x||/eps): cap on eps-fluctuations inside
    [N, alpha*N] for averages of a nonexpansive operator.

    Natural logarithm: the derivation consumes ln(1 + eps/(2||x||)) >
    eps/(4||x||), which holds precisely for eps < 2||x|| with ln.
    """
    if not (0.0 < eps < 2.0 * norm_x):
        raise PreconditionError(f"need 0 < eps < 2*||x||, got eps={eps}, ||x||={norm_x}")
    if not (math.isfinite(alpha) and alpha >= 1.0):
        raise InvalidInputError(f"need alpha >= 1, got {alpha}")
    return floor12(4.0 * math.log(alpha) * norm_x / eps)


def fluctuation_bound_nonexpansive(norm_x: float, eps: float, desc: SpaceDescriptor) -> int:
    """Total eps-fluctuation bound for the full average sequence:

        floor(4 ln(M) ||x||/eps)
      + floor(||x||/gamma) * floor(4 ln(2M) ||x||/eps)
      + floor(||x||/gamma)

    with M and gamma from `stability_parameters`. Finite and fully explicit;
    the count of the actual sequence never exceeds it.
    """
    if not (0.0 < eps < 2.0 * norm_x):
        raise PreconditionError(f"need 0 < eps < 2*||x||, got eps={eps}, ||x||={norm_x}")
    par = stability_parameters(norm_x, eps, desc)
    drops = floor12(norm_x / par.gamma)
    per_window = window_fluctuation_bound(norm_x, eps, 2 * par.M)
    return window_fluctuation_bound(norm_x, eps, par.M) + drops * per_window + drops


@dataclass(frozen=True)
class DriftReport:
    """Worst slack of ||x_(n+k) - x_n|| <= 2k*||x||/(n+k) over all pairs."""

    max_excess: float
    worst_pair: tuple[int, int]


def drift_bound_check(traj: AverageTrajectory) -> DriftReport:
    """Verify the two-index drift inequality on every pair of the trajectory.

    Valid for nonexpansive operators; a certificate with B2 > 1 is rejected
    up front, an absent certificate is trusted to the caller. Ties go to the
    smallest m - n, then n. Exact branch and bound from the best adjacent pair,
    the incumbent: tiles I x J of index blocks, halved from one block to 4 rows,
    are bounded by `box_reach` of their boxes less 2||x||(j0 - i1)/j0 (1-based
    first row of J, last of I). A tile goes, unless diagonal, when its bound is
    2^-30 (|incumbent| + |penalty|) below: far beyond rounding, so no tie is lost.
    """
    cert = getattr(traj.operator, "certificate", None)
    if cert is not None and cert.B2 > 1.0:
        raise PreconditionError(f"operator certifies B2 = {cert.B2} > 1: not nonexpansive")
    norm_x = traj.x.norm()
    pts, p = np.ascontiguousarray(traj.points), traj.p
    n, step = pts.shape[0], max(_CHUNK, _CHUNK_FLOATS // (2 * pts.shape[1]))
    steps = batch_norm_p(pts[1:] - pts[:-1], p)
    incumbent = float(np.max(steps - (2.0 * norm_x) / np.arange(2.0, n + 1), initial=-math.inf))
    depth = max(0, (n - 1).bit_length() - 2)  # the first block, 4 << depth rows, holds them all
    rows = np.pad(pts.view(np.float64), ((0, (4 << depth) - n), (0, 0)), mode="edge")
    a = b = np.zeros(1, dtype=np.int64)
    for size in 4 << np.arange(depth, -1, -1):
        lo, hi = (f(rows.reshape(-1, size, rows.shape[1]), axis=1) for f in (np.min, np.max))
        j0 = b * size + 1.0
        penalty = 2.0 * norm_x * (j0 - np.minimum((a + 1) * size, n)) / j0
        floor = incumbent + penalty - 2.0**-30 * (abs(incumbent) + np.abs(penalty))
        keep = a == b
        for s in range(0, a.size, step):
            t, cut = slice(s, s + step), floor[s : s + step]
            keep[t] |= box_reach(lo[a[t]], hi[a[t]], lo[b[t]], hi[b[t]], p, cut) >= cut
        keep &= (a <= b) & (b * size < n)
        a, b = a[keep], b[keep]
        if size > 4:  # the four halves of each tile
            a, b = (2 * a[:, None] + [0, 0, 1, 1]).ravel(), (2 * b[:, None] + [0, 1, 0, 1]).ravel()
    ri, rj = np.divmod(np.arange(size * size), size)
    i, j = (size * a[:, None] + ri).ravel(), (size * b[:, None] + rj).ravel()
    i, k = i[(i < j) & (j < n)], (j - i)[(i < j) & (j < n)]
    best = (math.inf, 0, 0)  # (-excess, k, i) over the pairs of the last tiles: the least wins
    for s in range(0, i.size, step):
        ii, kk = i[s : s + step], k[s : s + step]
        dist = batch_norm_p(pts[ii + kk] - pts[ii], p)
        excess = dist - (2.0 * kk * norm_x) / (ii + kk + 1.0)
        w = np.lexsort((ii, kk, -excess))[0]
        best = min(best, (-float(excess[w]), int(kk[w]), int(ii[w])))
    return DriftReport(-best[0], (best[2] + 1, best[2] + 1 + best[1]))


@dataclass(frozen=True)
class StabilityWindowReport:
    """Outcome of the norm-stability window check."""

    window: tuple[int, int]  # [M*N, floor(u/2)], empty when start > end
    violations: tuple[tuple[int, int], ...]
    truncated: bool  # True when more violations exist than were collected


_MAX_VIOLATIONS = 16


def stability_window_check(
    traj: AverageTrajectory, params: StabilityParameters, n_start: int, u: int
) -> StabilityWindowReport:
    """Check a norm-stable trajectory's late window for eps-separated pairs.

    Hypothesis (verified first, PreconditionError when it fails): every
    m <= u has ||x_m|| >= ||x_(n_start)|| - gamma. Conclusion checked: no two
    indices in [M*n_start, floor(u/2)] are eps-separated. The violation list
    is expected empty; at most 16 pairs are collected before truncating.
    """
    n_start = _integer(n_start, "n_start", 1)
    u = _integer(u, "u", n_start)
    if u > traj.horizon:
        raise HorizonExhaustedError(
            f"hypothesis range [1, {u}] exceeds horizon {traj.horizon}",
            checked_up_to=traj.horizon,
        )
    norms = traj.norms()
    floor_level = norms[n_start - 1] - params.gamma
    bad = np.flatnonzero(norms[:u] < floor_level)
    if bad.size:
        m = int(bad[0]) + 1
        raise PreconditionError(
            f"hypothesis fails at m={m}: ||x_m|| = {norms[m - 1]:.6g} < "
            f"||x_{n_start}|| - gamma = {floor_level:.6g}"
        )
    lo = params.M * n_start
    hi = u // 2
    if lo > hi:
        return StabilityWindowReport((lo, hi), (), False)
    chain = greedy_chain(PointsView(traj.points, traj.p), params.eps, lo - 1, hi - 1)
    violations = tuple((i + 1, j + 1) for i, j in itertools.islice(chain, _MAX_VIOLATIONS))
    return StabilityWindowReport((lo, hi), violations, next(chain, None) is not None)


def earliest_stable_start(traj: AverageTrajectory, gamma: float, u: int) -> int:
    """Smallest n with ||x_m|| >= ||x_n|| - gamma for every m <= u.

    This is the first index whose norm is within gamma of the running-window
    minimum, i.e. the natural n_start for `stability_window_check`.
    """
    u = _integer(u, "u", 1, traj.horizon)
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise InvalidInputError(f"need gamma >= 0, got {gamma}")
    norms = traj.norms()[:u]
    floor_level = float(norms.min()) + gamma
    hits = np.flatnonzero(norms <= floor_level)
    return int(hits[0]) + 1
