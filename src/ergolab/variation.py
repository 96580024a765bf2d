"""p-variation, fluctuation counting, and metastability scans.

All of these consume either an AverageTrajectory or an array-like of points
(N scalars, or an (N, u) complex array measured in the p_norm norm, 2 by
default). Indices in every report are 1-based, matching the averages'
natural numbering A_1, A_2, ...

Conventions fixed here once:

- a fluctuation pair demands ||a_j - a_i|| >= eps (non-strict);
- a metastable window demands every pair strictly inside eps;
- witness chains may share endpoints (j_k = i_(k+1) is allowed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from ._scan import PointsView, first_violation, greedy_chain
from .averages import AverageTrajectory
from .errors import CountOverflowError, HorizonExhaustedError, InvalidInputError
from .spaces import _checked, _exponent, _integer, _integers, batch_norm_p

__all__ = [
    "IndexSequence",
    "FluctuationReport",
    "MetastabilityQuery",
    "ConvergenceRateResult",
    "p_variation_along",
    "max_p_variation",
    "count_fluctuations",
    "metastability_rate",
    "metastability_from_fluctuations",
    "empirical_convergence_rate",
    "g_successor",
    "g_double",
    "g_next_power_of_two",
]

_COUNT_CAP = 2**63 - 1

PointsLike = Union[AverageTrajectory, np.ndarray, Sequence]


@dataclass(frozen=True)
class IndexSequence:
    """Strictly increasing 1-based indices into a trajectory."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = _integers(self.indices, "index", 1)
        if len(idx) == 0:
            raise InvalidInputError("index sequence must be nonempty")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidInputError("indices must be >= 1 and strictly increasing")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


@dataclass(frozen=True)
class FluctuationReport:
    """Greedy chain count plus the witness pairs that realize it."""

    count: int
    witnesses: tuple[tuple[int, int], ...]
    epsilon: float


@dataclass(frozen=True)
class MetastabilityQuery:
    """Separation threshold plus the window-growth function g.

    g maps a 1-based index n to the window end g(n) >= n. It is probed only
    where needed; every probed value is validated.
    """

    epsilon: float
    g: Callable[[int], int]

    def __post_init__(self):
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise InvalidInputError(f"epsilon must be positive and finite, got {self.epsilon}")


def _checked_g(g: Callable[[int], int], n: int) -> int:
    """g(n), checked to be an integer >= n."""
    gn = g(n)
    if not isinstance(gn, (int, np.integer)):
        raise InvalidInputError(f"g({n}) = {gn!r} is not an integer")
    gn = int(gn)
    if gn < n:
        raise InvalidInputError(f"g({n}) = {gn} < {n}; g must satisfy g(n) >= n")
    return gn


@dataclass(frozen=True)
class ConvergenceRateResult:
    """Outcome of the window-limited convergence-rate scan.

    found=False means even the final adjacent pair exceeds eps, so no
    nontrivial stable tail exists inside the horizon. The measurement is
    window-limited: a longer horizon can only increase n.
    """

    found: bool
    n: int | None
    horizon: int


def g_successor(n: int) -> int:
    return n + 1


def g_double(n: int) -> int:
    return 2 * n


def g_next_power_of_two(n: int) -> int:
    """2 to the power (ceil(log2 n) + 1); doubles past the next dyadic level."""
    return 1 << ((int(n) - 1).bit_length() + 1)


def _points_view(points: PointsLike, p_norm: float | None = None) -> PointsView:
    if isinstance(points, AverageTrajectory):
        if p_norm is not None and p_norm != points.p:
            raise InvalidInputError(f"p_norm {p_norm} conflicts with trajectory exponent {points.p}")
        return PointsView(points.points, points.p)
    return PointsView(_checked(points, "points", 2), 2.0 if p_norm is None else _exponent(p_norm))


def p_variation_along(points: PointsLike, ts: IndexSequence, q: float, *,
                      p_norm: float | None = None) -> float:
    """sum_k ||a_(t_(k+1)) - a_(t_k)||^q along the given index sequence."""
    view = _points_view(points, p_norm)
    ts, q = IndexSequence(ts), _exponent(q, "variation exponent", "q")
    if ts.indices[-1] > view.n:  # before int64 conversion, which a huge index overflows
        raise InvalidInputError(f"index {ts.indices[-1]} exceeds horizon {view.n}")
    idx = np.asarray(ts.indices, dtype=np.int64)
    if len(idx) == 1:
        return 0.0
    steps = batch_norm_p(view.pts[idx[1:] - 1] - view.pts[idx[:-1] - 1], view.p)
    return float(np.sum(steps**q))


def max_p_variation(points: PointsLike, q: float, *,
                    p_norm: float | None = None) -> tuple[float, IndexSequence]:
    """Maximum of p_variation_along over all increasing index sequences.

    Quadratic dynamic program: V[j] = max(0, max_(i<j) V[i] + ||a_j - a_i||^q),
    with backpointers for the witness. Ties fall to the smallest index.
    """
    view, q = _points_view(points, p_norm), _exponent(q, "variation exponent", "q")
    n = view.n
    best = np.zeros(n, dtype=np.float64)
    back = np.full(n, -1, dtype=np.int64)
    for j in range(1, n):
        scores = best[:j] + view.distances_to(j, 0, j) ** q
        i = int(np.argmax(scores))
        if scores[i] > 0.0:
            best[j] = scores[i]
            back[j] = i
    end = int(np.argmax(best))
    if best[end] == 0.0:
        return 0.0, IndexSequence((1,))
    chain = [end]
    while back[chain[-1]] >= 0:
        chain.append(int(back[chain[-1]]))
    chain.reverse()
    return float(best[end]), IndexSequence(tuple(i + 1 for i in chain))


def count_fluctuations(points: PointsLike, eps: float, *,
                       p_norm: float | None = None) -> FluctuationReport:
    """Greedy maximal chain of eps-fluctuations i_1<=j_1<=i_2<=j_2<=...

    Each step closes the pair with the earliest admissible endpoint j, taking
    the smallest admissible start i for that endpoint, then re-anchors at j
    (shared endpoints are allowed, so j can start the next pair). The greedy
    count equals the true maximum: any chain's first pair ends at or after
    the greedy endpoint, so swapping it in never shortens the rest.
    """
    view = _points_view(points, p_norm)
    witnesses = tuple((i + 1, j + 1) for i, j in greedy_chain(view, eps, 0, view.n - 1))
    return FluctuationReport(len(witnesses), witnesses, float(eps))


def metastability_rate(points: PointsLike, query: MetastabilityQuery, *,
                       p_norm: float | None = None) -> int:
    """Least n with every pair of A_n .. A_g(n) strictly within eps.

    Scans n upward. A violating pair (i, j) found in [n, g(n)] rules out every
    n' in [n, i] whose window still reaches j, so the scan jumps; skipped n'
    are re-validated against g individually, so no monotonicity of g is
    assumed. To make each jump maximal, the window is scanned reversed: the
    reversed scan's earliest violation endpoint is the largest index of the
    window that opens any separated pair, and the latest partner on the
    reversed side is that index's smallest partner. Every window is an index
    range of one reversed view, where 1-based index k sits at row N - k. Runs
    out of horizon -> HorizonExhaustedError carrying the least n the answer
    could still be.
    """
    view = _points_view(points, p_norm)
    rev = PointsView(view.pts[::-1], view.p)
    n = 1
    while True:
        end = _checked_g(query.g, n)
        if end > view.n:
            raise HorizonExhaustedError(
                f"window [{n}, {end}] exceeds horizon {view.n}; "
                f"every n < {n} was checked and failed",
                checked_up_to=n - 1,
            )
        hit = first_violation(rev, query.epsilon, view.n - end, view.n - n)
        if hit is None:
            return n
        _, i_last_rev, j_rev = hit
        i1, j1 = view.n - j_rev, view.n - i_last_rev
        n += 1
        while n <= i1 and _checked_g(query.g, n) >= j1:
            n += 1


def metastability_from_fluctuations(count: int, g: Callable[[int], int]) -> int:
    """g^count(1): the window start guaranteed by a fluctuation bound of `count`.

    If at most `count` eps-fluctuations exist, one of the count+1 windows
    [g^i(1), g^(i+1)(1)] contains no separated pair, so the metastability
    rate is at most g^count(1). Iteration past 2^63 - 1 raises
    CountOverflowError rather than returning silently huge values.
    """
    t = 1
    for _ in range(_integer(count, "fluctuation count", 0)):
        nxt = _checked_g(g, t)
        if nxt > _COUNT_CAP:
            raise CountOverflowError(f"g-iteration left the 64-bit range at {nxt}")
        t = nxt
    return t


def empirical_convergence_rate(points: PointsLike, eps: float, *,
                               p_norm: float | None = None) -> ConvergenceRateResult:
    """Least n with all pairs of A_n .. A_horizon strictly within eps.

    Equivalent to locating the largest index that opens a separated pair and
    stepping past it. Scanning the reversed sequence for its earliest
    violation endpoint finds that index directly.
    """
    view = _points_view(points, p_norm)
    n = view.n
    reversed_view = PointsView(view.pts[::-1], view.p)
    hit = first_violation(reversed_view, eps, 0, n - 1)
    if hit is None:
        return ConvergenceRateResult(True, 1, n)
    j_rev = hit[2]
    i_max = n - 1 - j_rev  # 0-based largest index opening a separated pair
    if i_max == n - 2:
        return ConvergenceRateResult(False, None, n)
    return ConvergenceRateResult(True, i_max + 2, n)
