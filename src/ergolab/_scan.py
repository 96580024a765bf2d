"""Exact first-violation scans over point sequences, with rigorous pruning.

Everything in the variation module reduces to one primitive: scanning a
segment of points for the earliest index j such that some earlier index
i >= c (the anchor) has ||a_j - a_i|| >= eps. The scan below is exact; the
pruning never changes the answer, only skips work:

- a running per-real-coordinate bounding box of the candidate prefix gives a
  certified upper bound on the best distance at each j (`box_reach`, with
  the row a degenerate box). The chunk of rows bounded at once doubles
  after every chunk the box prunes whole, up to a fixed number of floats,
  and drops back to its base size at the first row the box cannot prune;
- when an exact check at an ambiguous j comes back clean, with largest
  distance D < eps to the candidates, the scan skips the run of rows after j
  that lie strictly within rho = min(eps - D, eps/2) of a_j. A skipped row is
  within D + rho <= eps of every earlier candidate, and within 2 rho <= eps
  of every row skipped before it, both strictly. The ball is measured by
  displacement, which never exceeds path length, so tails that spiral in
  are skipped in one run.

Indices here are 0-based; the public modules translate to 1-based.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .spaces import batch_norm_p

_CHUNK = 256
_CHUNK_FLOATS = 2**15  # cap on rows x real coordinates of one chunk
_BALL_STEP = 16  # first slice of the ball-run search; later slices double
_NEAR = 1.0 - 2.0**-48  # (sum |z|^p)^(1/p) rounds at most a few ulps below max |z|


class PointsView:
    """Shared precomputation over an (N, u) complex point array, checked by the caller."""

    def __init__(self, pts: np.ndarray, p: float):
        if pts.shape[1] > 1 and pts.strides[1] != pts.itemsize:
            pts = np.ascontiguousarray(pts)
        self.pts = pts
        self.p = p
        self.n = pts.shape[0]
        self.coords = pts.view(np.float64)  # (Re z_1, Im z_1, ..., Re z_u, Im z_u) per row
        self._cumdrift: np.ndarray | None = None

    def cumdrift(self) -> np.ndarray:
        """cumdrift[t] = sum of adjacent-step distances up to index t."""
        if self._cumdrift is None:
            steps = batch_norm_p(self.pts[1:] - self.pts[:-1], self.p)
            out = np.zeros(self.n, dtype=np.float64)
            np.cumsum(steps, out=out[1:])
            self._cumdrift = out
        return self._cumdrift

    def distances_to(self, j: int, lo: int, hi: int) -> np.ndarray:
        """||a_i - a_j|| for i in [lo, hi)."""
        return batch_norm_p(self.pts[lo:hi] - self.pts[j], self.p)


def box_reach(lo_a, hi_a, lo_b, hi_b, p: float, eps) -> np.ndarray:
    """Row-wise bound on ||b - a|| for a, b in boxes [lo, hi] of (n, 2u) real rows.

    A point is the box lo = hi. Bounds a few ulps below eps are lifted to max |gap|.
    """
    gap = np.maximum(hi_b - lo_a, hi_a - lo_b).view(np.complex128)
    out = batch_norm_p(gap, p)
    if p not in (1.0, 2.0):  # for p = 1 and 2 the rounded norm never undercuts max |gap|
        near = (out < eps) & (out >= eps * _NEAR)
        out[near] = np.maximum(out[near], np.abs(gap[near]).max(axis=1))
    return out


def _ball_end(view: PointsView, centre: int, rho: float, hi: int) -> int:
    """Largest t <= hi with every row of (centre, t] strictly within rho of centre."""
    lo, step = centre + 1, _BALL_STEP
    while lo <= hi:
        top = min(hi + 1, lo + step)
        outside = view.distances_to(centre, lo, top) >= rho
        if outside.any():
            return lo + int(np.argmax(outside)) - 1
        lo, step = top, 2 * step
    return hi


def first_violation(
    view: PointsView, eps: float, anchor: int, hi: int
) -> tuple[int, int, int] | None:
    """Earliest j in (anchor, hi] with some i in [anchor, j) at distance >= eps.

    Returns (i_first, i_last, j): the smallest and largest admissible i for
    that j. Returns None when the whole segment [anchor, hi] is eps-tight.
    """
    if not eps > 0.0:  # NaN included
        raise InvalidInputError(f"separation threshold must be > 0, got {eps}")
    if not 0 <= anchor <= hi < view.n:
        raise InvalidInputError(f"segment [{anchor}, {hi}] outside [0, {view.n - 1}]")
    coords, p = view.coords, view.p
    max_chunk = max(_CHUNK, _CHUNK_FLOATS // coords.shape[1])
    chunk = _CHUNK

    cmin = coords[anchor].copy()
    cmax = coords[anchor].copy()
    j = anchor + 1
    while j <= hi:
        stop = min(hi + 1, j + chunk)
        block = coords[j:stop]
        # Exclusive prefix boxes: candidate set for row t is [anchor, j+t-1].
        pmin = np.minimum(np.minimum.accumulate(block, axis=0), cmin)
        pmax = np.maximum(np.maximum.accumulate(block, axis=0), cmax)
        bmin = np.empty_like(pmin)
        bmax = np.empty_like(pmax)
        bmin[0], bmax[0] = cmin, cmax
        bmin[1:], bmax[1:] = pmin[:-1], pmax[:-1]

        alive = box_reach(bmin, bmax, block, block, p, eps) >= eps
        if not alive.any():
            cmin, cmax = pmin[-1], pmax[-1]
            j = stop
            chunk = min(2 * chunk, max_chunk)
            continue
        chunk = _CHUNK
        t = int(np.argmax(alive))
        jj = j + t
        dist = view.distances_to(jj, anchor, jj)
        if p not in (1.0, 2.0) and np.any((dist < eps) & (dist >= eps * _NEAR)):  # point = box
            dist = box_reach(coords[anchor:jj], coords[anchor:jj], coords[jj], coords[jj], p, eps)
        valid = dist >= eps
        if valid.any():
            where = np.flatnonzero(valid)
            return anchor + int(where[0]), anchor + int(where[-1]), jj
        rho = min(eps - float(dist.max()), 0.5 * eps)
        upto = _ball_end(view, jj, rho, hi)
        cmin = np.minimum(cmin, coords[j : upto + 1].min(axis=0))
        cmax = np.maximum(cmax, coords[j : upto + 1].max(axis=0))
        j = upto + 1
    return None


def greedy_chain(view: PointsView, eps: float, anchor: int, hi: int):
    """Yield the greedy chain of eps-separated pairs (i, j) inside [anchor, hi].

    Each pair closes at the earliest admissible j with the smallest
    admissible i, and the next pair is searched from j on.
    """
    if not eps > 0.0:  # first_violation's rule, also for a segment too short to scan
        raise InvalidInputError(f"separation threshold must be > 0, got {eps}")
    while anchor < hi:
        hit = first_violation(view, eps, anchor, hi)
        if hit is None:
            return
        yield hit[0], hit[2]
        anchor = hit[2]
