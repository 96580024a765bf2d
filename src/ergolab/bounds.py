"""Quantitative fluctuation and stability bounds for nonexpansive averages.

All formulas are exact integer-valued expressions (no asymptotic forms), and
rounding may raise a bound but never lower it. M = ceil(16||x||/eps) is exact in
the doubles given; each floor is of its float value raised by a budget in ulps
(2^-52): 4 for 4 ln(alpha) ||x||/eps, exact but for ln(alpha) (1 ulp, 1/2 more
for an integer alpha), and p + 4 for ||x||/gamma = (8||x||/eps)^p / K, exact but
for the two halves of the power (the quotient's 1/2 ulp is p/2 in the power, and
`pow` adds 1 per half): a subnormal gamma carries more error than any budget, so
||x||/gamma is never taken from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._scan import PointsView, box_reach, greedy_chain
from .averages import AverageTrajectory
from .errors import HorizonExhaustedError, InvalidInputError, PreconditionError
from .spaces import SpaceDescriptor, _integer, _real, _shown, batch_norm_p

__all__ = [
    "StabilityParameters",
    "DriftReport",
    "StabilityWindowReport",
    "stability_parameters",
    "window_fluctuation_bound",
    "fluctuation_bound_nonexpansive",
    "drift_bound_check",
    "stability_window_check",
    "earliest_stable_start",
]


def _raised_floor(value: Fraction, ulps: float) -> int:
    """floor(value * (1 + ulps * 2^-52)): never below floor(v) for a v at most `ulps` ulps above value."""
    return math.floor(value * (1 + Fraction(ulps) / 2**52))


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
    norm_x, eps = _real(norm_x, "||x||", 0, above=True), _real(eps, "eps", 0, above=True)
    gamma = (eps / 8.0) * desc.K * (eps / (8.0 * norm_x)) ** (desc.p - 1.0)
    if gamma == 0.0 or math.isinf(norm_x / gamma):
        raise InvalidInputError(f"gamma = {gamma} underflows: ||x||/gamma is not finite")
    m = math.ceil(16 * Fraction(norm_x) / Fraction(eps))
    return StabilityParameters(norm_x=norm_x, eps=eps, p=desc.p, K=desc.K, M=m, gamma=gamma)


def window_fluctuation_bound(norm_x: float, eps: float, alpha: float) -> int:
    """floor(4 * ln(alpha) * ||x||/eps): cap on eps-fluctuations inside
    [N, alpha*N] for averages of a nonexpansive operator.

    Natural logarithm: the derivation consumes ln(1 + eps/(2||x||)) >
    eps/(4||x||), which holds precisely for eps < 2||x|| with ln.
    """
    norm_x, eps = _real(norm_x, "||x||", 0, above=True), _real(eps, "eps")
    alpha = _real(alpha, "alpha", 1)
    if not (0.0 < eps < 2.0 * norm_x):
        raise PreconditionError(f"need 0 < eps < 2*||x||, got eps={eps}, ||x||={norm_x}")
    return _raised_floor(4 * Fraction(math.log(alpha)) * Fraction(norm_x) / Fraction(eps), 4)


def fluctuation_bound_nonexpansive(norm_x: float, eps: float, desc: SpaceDescriptor) -> int:
    """Total eps-fluctuation bound for the full average sequence:

        floor(4 ln(M) ||x||/eps)
      + floor(||x||/gamma) * floor(4 ln(2M) ||x||/eps)
      + floor(||x||/gamma)

    with M and gamma from `stability_parameters`. Finite and fully explicit;
    the count of the actual sequence never exceeds it.
    """
    par = stability_parameters(norm_x, eps, desc)
    half = Fraction((8.0 * par.norm_x / par.eps) ** (par.p / 2))  # finite where ||x||/gamma is
    drops = _raised_floor(half * half / Fraction(par.K), par.p + 4)  # ||x||/gamma = half^2 / K
    per_window = window_fluctuation_bound(par.norm_x, par.eps, 2 * par.M)
    return window_fluctuation_bound(par.norm_x, par.eps, par.M) + drops * per_window + drops


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
    are bounded by `box_reach` of their `PointsView.boxes` less 2||x||(j0 - i1)/j0
    (1-based first row of J, last of I; <= 0 on the diagonal). A tile goes when its
    bound is 2^-30 (|incumbent| + |penalty|) below: far beyond rounding, no tie lost.
    """
    cert = getattr(traj.operator, "certificate", None)
    if cert is not None and cert.B2 > 1.0:
        raise PreconditionError(f"operator certifies B2 = {cert.B2} > 1: not nonexpansive")
    norm_x, view, n = traj.x.norm(), PointsView(traj.points, traj.p), traj.horizon
    incumbent = float(np.max(view.steps - (2.0 * norm_x) / np.arange(2.0, n + 1), initial=-math.inf))
    depth = max(0, (n - 1).bit_length() - 2)  # the first block, 4 << depth rows, holds them all
    boxes = {size: view.boxes(size) for size in (4 << k for k in range(depth + 1))}  # fine to coarse
    a = b = np.zeros(1, dtype=np.int64)
    for size in reversed(boxes):
        live = (a <= b) & (b * size < n)  # tiles below the diagonal or past the last row go before bounding
        a, b, (lo, hi) = a[live], b[live], boxes[size]
        j0 = b * size + 1.0
        penalty = 2.0 * norm_x * (j0 - np.minimum((a + 1) * size, n)) / j0
        floor = incumbent + penalty - 2.0**-30 * (abs(incumbent) + np.abs(penalty))
        keep = np.empty(a.size, dtype=bool)
        for s in range(0, a.size, view.chunk):
            t, cut = slice(s, s + view.chunk), floor[s : s + view.chunk]
            keep[t] = box_reach(lo[a[t]], hi[a[t]], lo[b[t]], hi[b[t]], view.p, cut) >= cut
        a, b = a[keep], b[keep]
        if size > 4:  # the four halves of each tile
            a, b = (2 * a[:, None] + [0, 0, 1, 1]).ravel(), (2 * b[:, None] + [0, 1, 0, 1]).ravel()
    ri, rj = np.divmod(np.arange(size * size), size)
    i, j = (size * a[:, None] + ri).ravel(), (size * b[:, None] + rj).ravel()
    i, k = i[(i < j) & (j < n)], (j - i)[(i < j) & (j < n)]
    best = (math.inf, 0, 0)  # (-excess, k, i) over the pairs of the last tiles: the least wins
    for s in range(0, i.size, view.chunk):
        ii, kk = i[s : s + view.chunk], k[s : s + view.chunk]
        dist = batch_norm_p(view.pts[ii + kk] - view.pts[ii], view.p)
        excess = dist - (2.0 * kk * norm_x) / (ii + kk + 1.0)
        w = np.argmin(np.where(excess == excess.max(), kk * n + ii, n * n))  # ties: least k, then i
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

    The pack's M, gamma and eps pass the gates before they are read, since a
    pack may be built by hand. Hypothesis (else PreconditionError): every
    m <= u has ||x_m|| >= ||x_(n_start)|| - gamma. Conclusion checked: no two
    indices in [M*n_start, floor(u/2)] are eps-separated; at most 16 are kept.
    """
    n_start = _integer(n_start, "n_start", 1)
    u = _integer(u, "u", n_start)
    m_factor, eps = _integer(params.M, "M", 1), _real(params.eps, "eps", 0, above=True)
    if u > traj.horizon:
        raise HorizonExhaustedError(
            f"hypothesis range [1, {_shown(u)}] exceeds horizon {traj.horizon}",
            checked_up_to=traj.horizon,
        )
    norms = traj.norms()
    floor_level = norms[n_start - 1] - _real(params.gamma, "gamma", 0)
    bad = np.flatnonzero(norms[:u] < floor_level)
    if bad.size:
        m = int(bad[0]) + 1
        raise PreconditionError(
            f"hypothesis fails at m={m}: ||x_m|| = {norms[m - 1]:.6g} < "
            f"||x_{n_start}|| - gamma = {floor_level:.6g}"
        )
    lo = m_factor * n_start
    hi = u // 2
    if lo > hi:
        return StabilityWindowReport((lo, hi), (), False)
    chain = greedy_chain(PointsView(traj.points, traj.p), eps, lo - 1, hi - 1)
    violations = tuple((i + 1, j + 1) for i, j in itertools.islice(chain, _MAX_VIOLATIONS))
    return StabilityWindowReport((lo, hi), violations, next(chain, None) is not None)


def earliest_stable_start(traj: AverageTrajectory, gamma: float, u: int) -> int:
    """Smallest n with ||x_m|| >= ||x_n|| - gamma for every m <= u.

    This is the first index whose norm is within gamma of the running-window
    minimum, i.e. the natural n_start for `stability_window_check`.
    """
    u, gamma = _integer(u, "u", 1, traj.horizon), _real(gamma, "gamma", 0)
    norms = traj.norms()[:u]
    floor_level = float(norms.min()) + gamma
    hits = np.flatnonzero(norms <= floor_level)
    return int(hits[0]) + 1
