"""Exact first-violation scans over point sequences, with rigorous pruning.

Everything in the variation module reduces to one primitive: scanning a
segment of points for the earliest index j such that some earlier index
i >= c (the anchor) has ||a_j - a_i|| >= eps. The scan below is exact; the
pruning never changes the answer, only skips work:

- a running per-real-coordinate bounding box of the candidate prefix gives a
  certified upper bound on the best distance at each j (`box_reach`, with
  the row a degenerate box). The chunk of rows bounded at once doubles
  after every chunk the box prunes whole, and drops back to its base size
  at the first row the box cannot prune;
- after a chunk pruned whole, the next chunk is first bounded as one box:
  its span S (`_span`, the per-column min and max) against the hull W of the
  running box and S. A bound below eps skips the chunk with no row norm, W
  becomes the running box and the chunk doubles without limit; otherwise
  its first rows, 2^15 floats' worth but at least 256, are bounded row by
  row. Rounded subtraction, abs, powers, sums, roots and the near-eps lift
  are monotone, so no row's bound exceeds its chunk's: a skipped chunk is
  one the rows would have pruned, and the first row left alive, which
  depends only on the rows before it, is the same;
- the first k rows t_1 < ... < t_k that a chunk's boxes leave alive take one
  exact check, the k x (t_k - anchor) distances in one kernel call, each
  row's candidates ending before it. The distances are elementwise, so each
  has its one-row bits, and the first row that holds a separated candidate
  gives the answer. k is 1 at the start of a scan and doubles after each
  clean check, but k (t_k - anchor) rows of candidates hold at most 2^15
  floats, so a batch fits one chunk; where only one row fits, the check is
  the one-row check below. Rows near their anchor batch, far ones do not;
- when an exact check comes back clean, with a bound D' in [D, eps) on the
  largest distance D from each of its rows to that row's candidates, the
  scan skips past its last row, and from the row j with the widest ball
  (the last of equals) the run of rows after j that lie strictly within
  rho = min(eps - D', eps/2) of a_j. A skipped row is within D + rho <= eps
  of every earlier candidate, and within 2 rho <= eps of every row skipped
  before it, both strictly. The ball is measured by displacement, which
  never exceeds path length, so tails that spiral in are skipped in one run.
  The run is searched in doubling slices; a slice of more than 16 rows is
  skipped whole when the bound from a_j to its span is below rho, else
  evaluated row by row if it has at most a chunk's rows, else halved;
- a one-row exact check of 2^15 floats or more evaluates only the aligned
  32-row blocks whose box (`PointsView.boxes`) reaches eps, an end block's
  box holding the rows cut off too. A clean one returns D', the most of the
  distances evaluated and the reach left out, so no row if no box reaches.
- an exact check evaluates its candidates a chunk at a time, in order, and
  stops at the first chunk that holds a separated pair: its least separated
  i is the answer, so a check holds one chunk's distances, not one per
  candidate.

Indices here are 0-based; the public modules translate to 1-based.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .spaces import _real, batch_norm_p

_CHUNK = 256
_CHUNK_FLOATS = 2**15  # cap on rows x real coordinates of one chunk
_BALL_STEP = 16  # first slice of the ball-run search; later slices double
_NEAR = 1.0 - 2.0**-48  # (sum |z|^p)^(1/p) rounds at most a few ulps below max |z|
_BLOCK, _BLOCK_FLOATS = 32, 2**15  # rows of a block box; least rows x real coordinates of a check using them


class PointsView:
    """An (N, u) complex point array, checked by the caller, and its scan geometry: steps, chunk, boxes."""

    def __init__(self, pts: np.ndarray, p: float):
        if pts.shape[1] > 1 and pts.strides[1] != pts.itemsize:
            pts = np.ascontiguousarray(pts)
        self.pts = pts
        self.p = p
        self.n = pts.shape[0]
        self.coords = pts.view(np.float64)  # (Re z_1, Im z_1, ..., Re z_u, Im z_u) per row
        self.chunk = max(_CHUNK, _CHUNK_FLOATS // self.coords.shape[1])  # most rows bounded at once
        self._boxes = {}  # block size -> boxes

    @cached_property
    def steps(self) -> np.ndarray:
        """steps[t] = ||a_(t+1) - a_t||."""
        return batch_norm_p(self.pts[1:] - self.pts[:-1], self.p)

    def cumdrift(self) -> np.ndarray:
        """cumdrift[t] = sum of adjacent-step distances up to index t."""
        return np.concatenate(([0.0], np.cumsum(self.steps)))

    def distances_to(self, j: int | np.ndarray, lo: int, hi: int) -> np.ndarray:
        """||a_i - a_j|| for i in [lo, hi), in one kernel call; an array j of k rows gives (k, hi - lo)."""
        diff = self.pts[lo:hi] - self.pts[j, None]  # elementwise, so each distance has its one-row bits
        return batch_norm_p(diff.reshape(-1, diff.shape[-1]), self.p).reshape(diff.shape[:-1])

    def boxes(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-real-coordinate min and max of each aligned block of `size` rows (a power of two), the short
        last block included: folded from the cached size/2 level if any, else from the rows (same bits)."""
        if size not in self._boxes:
            src, k = (self._boxes[size // 2], 2) if size // 2 in self._boxes else ((self.coords,) * 2, size)
            level = self._boxes[size] = tuple(a[::k].copy() for a in src)  # each block's first row, ...
            for f, box, a in zip((np.minimum, np.maximum), level, src):
                for part in (a[i::k] for i in range(1, k)):  # ... and its k - 1 others folded in
                    f(box[: len(part)], part, out=box[: len(part)])
        return self._boxes[size]


def _span(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column min and max of (n, w) rows, as (1, w) rows, without a copy: a reversed view is read
    forward, and C-contiguous rows are reduced 64 to a line of 64 w floats, then folded (exact)."""
    if rows.strides[0] < 0:
        rows = rows[::-1]
    n, w = rows.shape
    if not rows.flags.c_contiguous or n < 64:
        return rows.min(axis=0, keepdims=True), rows.max(axis=0, keepdims=True)
    k = n - n % 64
    lines = rows[:k].reshape(-1, 64 * w)
    return (np.concatenate((lines.min(axis=0).reshape(64, w), rows[k:])).min(axis=0, keepdims=True),
            np.concatenate((lines.max(axis=0).reshape(64, w), rows[k:])).max(axis=0, keepdims=True))


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
    lo, step, row = centre + 1, _BALL_STEP, view.coords[centre]
    while lo <= hi:
        top = min(hi + 1, lo + step)
        if top - lo > _BALL_STEP:  # a slice whose box lies within rho is skipped; too long a slice is halved
            if box_reach(row, row, *_span(view.coords[lo:top]), view.p, rho)[0] < rho:
                lo, step = top, 2 * step
                continue
            if top - lo > view.chunk:
                step //= 2
                continue
        outside = view.distances_to(centre, lo, top) >= rho
        if outside.any():
            return lo + int(np.argmax(outside)) - 1
        lo, step = top, 2 * step
    return hi


def _runs(edges: np.ndarray, segs: np.ndarray) -> list[tuple[int, int]]:
    """The row ranges of segments segs (ascending; segment k is [edges[k], edges[k+1])), adjacent ones merged."""
    step = segs[1:] - segs[:-1] != 1
    first, last = np.concatenate(([True], step)), np.concatenate((step, [True]))
    return list(zip(edges[segs[first]].tolist(), edges[segs[last] + 1].tolist()))


def _exact_check(view: PointsView, eps: float, anchor: int,
                 rows: np.ndarray) -> tuple[tuple[int, int] | None, np.ndarray]:
    """((i, j) for the first j of the ascending rows with some i in [anchor, j) at ||a_i - a_j|| >= eps, i the
    least such, or None; D'). When no pair is separated, D'[r] is a bound in [D, eps) on the largest distance D
    from rows[r] to its candidates: the most of the distances evaluated and reach left out. Candidates are
    evaluated a chunk at a time, and the first chunk that holds a separated pair ends the check, so the rows
    of a batch (more than one row) must have their candidates in one chunk."""
    j, p, row = int(rows[-1]), view.p, view.coords[rows]
    runs, bound = [(anchor, j)], np.zeros(len(rows))
    if len(rows) == 1 and (j - anchor) * view.coords.shape[1] >= _BLOCK_FLOATS:
        # segment k: block k0 + k clipped to [anchor, j)
        k0, k1, (lo, hi) = anchor // _BLOCK, -(-j // _BLOCK), view.boxes(_BLOCK)
        reach = box_reach(lo[k0:k1], hi[k0:k1], row, row, p, eps)  # an end block's box holds its rows
        far = reach >= eps
        bound = reach[~far].max(initial=0.0, keepdims=True)
        if not far.any():
            return None, bound
        runs = _runs(np.clip(np.arange(k0, k1 + 1) * _BLOCK, anchor, j), np.flatnonzero(far))
    for a, b in runs:
        for c in range(a, b, view.chunk):
            d = min(b, c + view.chunk)
            dist = view.distances_to(rows, c, d)  # (k, d - c)
            if len(rows) > 1:
                dist[rows[:, None] <= np.arange(c, d)] = 0.0  # a row's candidates end before it
            if p not in (1.0, 2.0) and (near := (dist < eps) & (dist >= eps * _NEAR)).any():  # point = box
                r, i = np.nonzero(near)
                dist[r, i] = box_reach(view.coords[c + i], view.coords[c + i], row[r], row[r], p, eps)
            if (valid := dist >= eps).any():
                t = int(np.argmax(valid.any(axis=1)))
                return (c + int(np.argmax(valid[t])), int(rows[t])), bound
            bound = np.maximum(bound, dist.max(axis=1))
    return None, bound


def first_violation(view: PointsView, eps: float, anchor: int, hi: int) -> tuple[int, int] | None:
    """Earliest j in (anchor, hi] with some i in [anchor, j) at distance >= eps.

    Returns (i, j), i the smallest admissible i for that j, or None when the
    whole segment [anchor, hi] is eps-tight.
    """
    eps = _real(eps, "separation threshold", 0, above=True)
    if not 0 <= anchor <= hi < view.n:
        raise InvalidInputError(f"segment [{anchor}, {hi}] outside [0, {view.n - 1}]")
    coords, p, chunk, k = view.coords, view.p, _CHUNK, 1

    cmin = cmax = coords[anchor]  # the running box of the rows before j
    j = anchor + 1
    while j <= hi:
        if chunk > _CHUNK:  # the last chunk was pruned whole: try the next one as one box
            stop = min(hi + 1, j + chunk)
            smin, smax = _span(coords[j:stop])
            wmin, wmax = np.minimum(cmin, smin), np.maximum(cmax, smax)
            if box_reach(wmin, wmax, smin, smax, p, eps)[0] < eps:
                cmin, cmax, j, chunk = wmin, wmax, stop, 2 * chunk
                continue
        stop = min(hi + 1, j + min(chunk, view.chunk))
        block = coords[j:stop]
        # Row t's candidates are [anchor, j+t-1]: the running box widened by rows j-1 .. j+t-1.
        bmin = np.minimum(np.fmin.accumulate(coords[j - 1 : stop - 1], axis=0), cmin)
        bmax = np.maximum(np.fmax.accumulate(coords[j - 1 : stop - 1], axis=0), cmax)
        alive = box_reach(bmin, bmax, block, block, p, eps) >= eps
        if not alive.any():
            cmin, cmax = np.minimum(bmin[-1], block[-1]), np.maximum(bmax[-1], block[-1])
            j, chunk = stop, 2 * min(chunk, view.chunk)  # > _CHUNK: this chunk was pruned whole
            continue
        chunk = _CHUNK
        # The first k rows left alive, fewer where k rows of candidates pass 2^15 floats: a batch fits a chunk.
        rows = j + np.flatnonzero(alive)[:k]
        fits = np.arange(1, len(rows) + 1) * (rows - anchor) * coords.shape[1] <= _CHUNK_FLOATS
        rows = rows[: max(1, int(np.count_nonzero(fits)))]  # the product rises, so the fits are a prefix
        hit, bound = _exact_check(view, eps, anchor, rows)
        if hit is not None:
            return hit
        k *= 2
        rho = np.minimum(eps - bound, 0.5 * eps)
        c = len(rows) - 1 - int(np.argmax(rho[::-1]))  # the widest ball, the last of equals
        upto = max(_ball_end(view, int(rows[c]), float(rho[c]), hi), int(rows[-1]))
        smin, smax = _span(coords[j : upto + 1])
        cmin, cmax, j = np.minimum(cmin, smin), np.maximum(cmax, smax), upto + 1
    return None


def greedy_chain(view: PointsView, eps: float, anchor: int, hi: int):
    """Yield the greedy chain of eps-separated pairs (i, j) inside [anchor, hi].

    Each pair closes at the earliest admissible j with the smallest
    admissible i, and the next pair is searched from j on.
    """
    eps = _real(eps, "separation threshold", 0, above=True)  # also for a segment too short to scan
    while anchor < hi and (hit := first_violation(view, eps, anchor, hi)) is not None:
        yield hit
        anchor = hit[1]
