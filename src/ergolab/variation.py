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

from ._scan import _BLOCK, _CHUNK_FLOATS, PointsView, _runs, box_reach, first_violation, greedy_chain
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
_MARGIN = 1.0 + 2.0**-30  # on a block's box reach, before the power: far past the kernel's rounding

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
    with np.errstate(over="ignore"):  # a step or its power past the float range is inf
        steps = batch_norm_p(view.pts[idx[1:] - 1] - view.pts[idx[:-1] - 1], view.p)
        return float(np.sum(steps**q))


def max_p_variation(points: PointsLike, q: float | Sequence[float], *, p_norm: float | None = None
                    ) -> tuple[float, IndexSequence] | list[tuple[float, IndexSequence]]:
    """Maximum of p_variation_along over all increasing index sequences, and a witness.

    The dynamic program V[j] = max(0, max_(i<j) V[i] + ||a_j - a_i||^q), with
    backpointers for the witness; ties fall to the smallest index. For a sequence
    of exponents q (a list, tuple or 1-D array) it returns a list, one (value,
    witness) per exponent, in order, each bit for bit its own call's.

    Rows go in aligned blocks R of 32 (`PointsView.boxes`). Each row of R is first
    scored against seed blocks: the block before R and, per exponent, the block of
    the last row's predecessor. The least of those row maxima is the exponent's
    incumbent. An earlier block C is skipped when, for every exponent,
    max V over C + (box_reach(C, R) * (1 + 2^-30))^q lies below its incumbent: then
    every score in C lies below every row's maximum, so C holds neither a best
    predecessor nor a tie. The margin goes on the reach before the power, so it
    covers the few ulps by which a kernel distance and a box reach can round
    apart, for every q >= 1. The kept blocks take `PointsView.distances_to` calls,
    so each distance has its one-row bits; predecessors inside R go row by row, and
    an outer tie beats them, its index being smaller. So the values and witnesses
    are bit for bit those of the plain loop over all N(N-1)/2 pairs, from a
    fraction of them: a tenth at N = 2,048 on rotations, less as N grows.
    """
    view = _points_view(points, p_norm)
    if isinstance(q, np.ndarray) and q.ndim == 0:
        q = q[()]
    grid = isinstance(q, (Sequence, np.ndarray)) and not isinstance(q, (str, bytes))
    qs = [_exponent(v, "variation exponent", "q") for v in (q if grid else [q])]
    if not qs:
        raise InvalidInputError("variation exponent sequence must be nonempty")
    with np.errstate(over="ignore"):  # a score or a difference past the float range is inf
        best, back = _block_dp(view, qs)
    out = [_witness(best[k], back[k]) for k in range(len(qs))]
    return out if grid else out[0]


def _block_dp(view: PointsView, qs: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """(best, back), each (len(qs), N): the DP of `max_p_variation`, one block of rows at a time."""
    n = view.n
    best = np.zeros((len(qs), n), dtype=np.float64)
    back = np.full((len(qs), n), -1, dtype=np.int64)
    lo, hi = view.boxes(_BLOCK)
    peak = np.zeros((len(qs), len(lo)))  # peak[k, c]: the most of best[k] over block c
    for b in range(len(lo)):
        r0, r1 = b * _BLOCK, min(n, (b + 1) * _BLOCK)
        rows, m = np.arange(r0, r1), r1 - r0
        seeds = np.unique(np.append(back[:, r0 - 1] // _BLOCK, b - 1))  # at b = 0 both are -1
        seeds = seeds[seeds >= 0]
        dist = _distances(view, rows, np.append(seeds, b))  # the seeds' columns, then R's own
        # Per exponent, each row's best outer score and its least index: over the seeds, then the kept rest.
        val, arg = np.zeros((len(qs), m)), np.full((len(qs), m), -1)
        if b:
            _fold(best, seeds, dist[:, :-m], qs, val, arg)
            reach = box_reach(lo[:b], hi[:b], lo[b], hi[b], view.p, math.inf) * _MARGIN
            keep = np.zeros(b, dtype=bool)
            for k, qk in enumerate(qs):
                keep |= ~(peak[k, :b] + reach**qk < val[k].min())
            keep[seeds] = False
            if (rest := np.flatnonzero(keep)).size:
                _fold(best, rest, _distances(view, rows, rest), qs, val, arg)
        inner = np.ascontiguousarray(dist[:, -m:])  # row t, column c < t: ||a_(r0+c) - a_(r0+t)||
        for k, qk in enumerate(qs):
            vals, args, done = val[k].tolist(), arg[k].tolist(), []
            for t, row in enumerate((inner**qk).tolist()):
                scores = [v + d for v, d in zip(done, row)]  # the predecessors inside R
                if scores and (top := max(scores)) > vals[t]:  # an outer tie keeps its smaller index
                    vals[t], args[t] = top, r0 + scores.index(top)
                if not vals[t] > 0.0:
                    vals[t], args[t] = 0.0, -1
                done.append(vals[t])
            best[k, r0:r1], back[k, r0:r1], peak[k, b] = vals, args, max(vals)
    return best, back


def _distances(view: PointsView, rows: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """dist[r, c] = ||a_i - a_(rows[r])|| for the c-th row i of the ascending aligned blocks, in
    `distances_to` calls of at most `_CHUNK_FLOATS` floats of differences, or of one row and column."""
    width = view.coords.shape[1]
    if len(rows) > 1 and len(rows) * width > _CHUNK_FLOATS:
        return np.concatenate([_distances(view, rows[r : r + 1], blocks) for r in range(len(rows))])
    step = max(1, _CHUNK_FLOATS // (len(rows) * width))
    edges = np.minimum(np.arange(blocks[-1] + 2) * _BLOCK, view.n)
    parts = [view.distances_to(rows, c, min(e, c + step)) for s, e in _runs(edges, blocks) for c in range(s, e, step)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _fold(best: np.ndarray, blocks: np.ndarray, dist: np.ndarray, qs: list[float], val: np.ndarray,
          arg: np.ndarray) -> None:
    """Fold each row's most of best[k, i] + dist[row, i]^q_k over the rows i of the (full, ascending) blocks into
    (val[k], arg[k]), its least i: a larger score replaces, and an equal one at a smaller i."""
    cols = (blocks[:, None] * _BLOCK + np.arange(_BLOCK)).ravel()
    dist, rows = np.ascontiguousarray(dist), np.arange(len(dist))  # a strided power can round differently
    for k, qk in enumerate(qs):
        scores = best[k, cols] + dist**qk
        a = scores.argmax(axis=1)
        v, i = scores[rows, a], cols[a]
        take = (v > val[k]) | ((v == val[k]) & (i < arg[k]))
        val[k, take], arg[k, take] = v[take], i[take]


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
