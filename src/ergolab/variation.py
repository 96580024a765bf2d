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

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from ._scan import PointsView, first_violation, greedy_chain
from .averages import AverageTrajectory
from .errors import CountOverflowError, HorizonExhaustedError, InvalidInputError
from .spaces import _checked, _exponent, _integer, _integers, _real, _shown, batch_norm_p

__all__ = [
    "IndexSequence",
    "FluctuationReport",
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


# The built-in window selectors: non-decreasing, with closed-form iterates from 1.
_SELECTORS = (g_successor, g_double, g_next_power_of_two)


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
        raise InvalidInputError(f"index {_shown(ts.indices[-1])} exceeds horizon {view.n}")
    idx = np.asarray(ts.indices, dtype=np.int64)
    steps = batch_norm_p(view.pts[idx[1:] - 1] - view.pts[idx[:-1] - 1], view.p)
    return float(np.sum(steps**q))


def max_p_variation(points: PointsLike, q: float | Sequence[float], *, p_norm: float | None = None
                    ) -> tuple[float, IndexSequence] | list[tuple[float, IndexSequence]]:
    """Maximum of p_variation_along over all increasing index sequences, and a witness.

    Quadratic dynamic program: V[j] = max(0, max_(i<j) V[i] + ||a_j - a_i||^q),
    with backpointers for the witness. Ties fall to the smallest index. For a
    sequence of exponents q (a list, tuple or 1-D array) it returns a list, one
    (value, witness) per exponent, in order, each bit for bit its own call's:
    one pass of distances per row j serves every exponent.
    """
    view = _points_view(points, p_norm)
    if isinstance(q, np.ndarray) and q.ndim == 0:
        q = q[()]
    grid = isinstance(q, (Sequence, np.ndarray)) and not isinstance(q, (str, bytes))
    qs = [_exponent(v, "variation exponent", "q") for v in (q if grid else [q])]
    if not qs:
        raise InvalidInputError("variation exponent sequence must be nonempty")
    n = view.n
    best = np.zeros((len(qs), n), dtype=np.float64)
    back = np.full((len(qs), n), -1, dtype=np.int64)
    for j in range(1, n):
        dist = view.distances_to(j, 0, j)
        for k, qk in enumerate(qs):
            scores = best[k, :j] + dist**qk
            i = int(np.argmax(scores))
            if scores[i] > 0.0:
                best[k, j] = scores[i]
                back[k, j] = i
    out = [_witness(best[k], back[k]) for k in range(len(qs))]
    return out if grid else out[0]


def _witness(best: np.ndarray, back: np.ndarray) -> tuple[float, IndexSequence]:
    """The DP's largest value and the 1-based chain of backpointers ending there."""
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


def _reversed_hit(n: int, hit: tuple[int, int]) -> tuple[int, int]:
    """A hit (i, j) of `first_violation` on the reversed view of n points, where
    1-based index k sits at row n - k, as (the largest index opening a separated
    pair, its largest partner)."""
    i, j = hit
    return n - j, n - i


def metastability_rate(points: PointsLike, eps: float, g: Callable[[int], int], *,
                       p_norm: float | None = None) -> int:
    """Least n with every pair of A_n .. A_g(n) strictly within eps.

    g maps a 1-based index n to the window end g(n) >= n. It is probed only
    where needed; every probed value passes the integer gate.

    Scans n upward. A violating pair (i, j) found in [n, g(n)] rules out every
    n' in [n, i] whose window still reaches j, so the scan jumps; skipped n' are
    re-validated against g individually unless g is a built-in (non-decreasing,
    so every such window reaches j). To make each jump maximal, the window is
    scanned reversed: the reversed scan's earliest violation endpoint is the
    largest index i of the window that opens any separated pair, and its least
    partner on the reversed side is i's largest partner j, the one the
    re-validation reads (so a skipped n' must reach that j). Every window is an
    index range of one reversed view. Runs out of horizon ->
    HorizonExhaustedError carrying the least n the answer could still be.
    """
    eps = _real(eps, "epsilon", 0, above=True)
    view = _points_view(points, p_norm)
    rev = PointsView(view.pts[::-1], view.p)
    n = 1
    while True:
        end = _integer(g(n), "g(n)", n)
        if end > view.n:
            raise HorizonExhaustedError(
                f"window [{n}, {_shown(end)}] exceeds horizon {view.n}; "
                f"every n < {n} was checked and failed",
                checked_up_to=n - 1,
            )
        hit = first_violation(rev, eps, view.n - end, view.n - n)
        if hit is None:
            return n
        i1, j1 = _reversed_hit(view.n, hit)
        n = i1 + 1 if any(g is s for s in _SELECTORS) else n + 1
        while n <= i1 and _integer(g(n), "g(n)", n) >= j1:
            n += 1


def metastability_from_fluctuations(count: int, g: Callable[[int], int]) -> int:
    """g^count(1): the window start guaranteed by a fluctuation bound of `count`.

    If at most `count` eps-fluctuations exist, one of the count+1 windows
    [g^i(1), g^(i+1)(1)] contains no separated pair, so the metastability
    rate is at most g^count(1). Iteration past 2^63 - 1 raises
    CountOverflowError rather than returning silently huge values. The
    built-in selectors take their closed forms, count + 1 and 2^count.
    """
    t, count = 1, _integer(count, "fluctuation count", 0)
    if any(g is s for s in _SELECTORS):  # held at 2^63, the first iterate past the cap
        t, count = min(count, _COUNT_CAP) + 1 if g is g_successor else 1 << min(count, 63), 0
    while count and t <= _COUNT_CAP:
        t, count = _integer(g(t), "g(n)", t), count - 1
    if t > _COUNT_CAP:
        raise CountOverflowError(f"g-iteration left the 64-bit range at {_shown(t)}")
    return t


def empirical_convergence_rate(points: PointsLike, eps: float, *,
                               p_norm: float | None = None) -> ConvergenceRateResult:
    """Least n with all pairs of A_n .. A_horizon strictly within eps.

    Equivalent to locating the largest index that opens a separated pair and
    stepping past it. Scanning the reversed sequence for its earliest
    violation endpoint finds that index directly.
    """
    view = _points_view(points, p_norm)
    n, eps = view.n, _real(eps, "separation threshold", 0, above=True)
    hit = first_violation(PointsView(view.pts[::-1], view.p), eps, 0, n - 1)
    if hit is None:
        return ConvergenceRateResult(True, 1, n)
    opener, _ = _reversed_hit(n, hit)
    if opener == n - 1:
        return ConvergenceRateResult(False, None, n)
    return ConvergenceRateResult(True, opener + 1, n)
