"""Independent brute-force reference implementations.

Everything here is deliberately naive: plain Python loops over explicitly
enumerated candidates, with its own norm arithmetic. Nothing imports the
package under test, so agreement between these and the library is a real
two-route check, not a tautology. `ref_orbit` reads an operator's defining
array or size and nothing else of it, and `value_at` a `SeqFunction`'s window and
values. Two references pin bits rather than
values: `ref_drift` is the plain all-pairs loop over m - n, and the caller hands
it the package's row norm; `ref_row_norms` repeats the norm kernel's numpy
arithmetic but sums each row in a Python loop.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np


def ref_norm(point, p):
    """p-norm of a scalar or a sequence of complex scalars.

    Never below the largest modulus, which the true norm is not either:
    (sum |z|^p)^(1/p) can round below it, e.g. (4^3)^(1/3) = 3.9999999999999996.
    """
    if isinstance(point, (int, float, complex)):
        return abs(point)
    return max(sum(abs(z) ** p for z in point) ** (1.0 / p), max(abs(z) for z in point))


def ref_row_norms(points, p):
    """Row p-norms of an (n, u) complex array in the norm kernel's arithmetic, rows
    of fewer than 8 slots: numpy's `np.abs` and array power, each row's powers
    summed left to right in a Python loop, then numpy's array root. A norm outside
    [2^(-1000/p), 2^(1000/p)] is taken again from the moduli scaled by the row's
    peak (1 for a zero row), with a scalar root. One slot gives its modulus."""
    moduli = np.abs(np.asarray(points, dtype=np.complex128))
    if moduli.shape[1] == 1:
        return moduli[:, 0]
    with np.errstate(over="ignore"):
        out = np.array([_left_to_right(row) for row in (moduli**p).tolist()]) ** (1.0 / p)
    limit = 2.0 ** (1000.0 / p)
    for r, norm in enumerate(out.tolist()):
        if not 1.0 / limit <= norm <= limit:
            peak = float(moduli[r].max()) or 1.0
            total = _left_to_right(((moduli[r] / peak) ** p).tolist())
            out[r] = peak * (total ** (1.0 / p) if total > 0.0 else 0.0)
    return out


def _left_to_right(terms):
    total = terms[0]
    for t in terms[1:]:
        total += t
    return total


def ref_orbit(op, z, n):
    """Rows T^k z for k < n, from the operator's definition alone: the per-power
    closed form e^(i k theta) z of a rotation (`op.angles`), the index shift
    z_(j - k mod u) of a cyclic shift (`op.dim`), and one matrix step at a time on
    the interleaved real coordinates of a dense matrix (`op.matrix`)."""
    z = np.asarray(z, dtype=np.complex128)
    if hasattr(op, "angles"):
        return np.exp(1j * (np.arange(n)[:, None] * op.angles)) * z
    if hasattr(op, "matrix"):
        coords = np.empty((n, 2 * len(z)))
        coords[0] = np.column_stack((z.real, z.imag)).ravel()
        for k in range(1, n):
            coords[k] = op.matrix @ coords[k - 1]
        return coords.view(np.complex128)
    return z[(np.arange(op.dim) - np.arange(n)[:, None]) % op.dim]


def _dist(points, i, j, p):
    a, b = points[i], points[j]
    if isinstance(a, (int, float, complex)):
        return abs(b - a)
    return ref_norm([bb - aa for aa, bb in zip(a, b)], p)


def brute_force_fluctuations(points, eps, p=2.0):
    """Maximum k over all chains i1 <= j1 <= i2 <= ... <= j_k with
    dist(i_u, j_u) >= eps. Memoized suffix recursion over 0-based start."""
    pts = tuple(points)
    n = len(pts)

    @lru_cache(maxsize=None)
    def longest_from(c):
        best = 0
        for i in range(c, n):
            for j in range(i + 1, n):
                if _dist(pts, i, j, p) >= eps:
                    cand = 1 + longest_from(j)
                    if cand > best:
                        best = cand
        return best

    result = longest_from(0)
    longest_from.cache_clear()
    return result


def brute_force_p_variation(points, q, p=2.0):
    """Exhaustive maximum of sum ||a_{t_(k+1)} - a_{t_k}||^q over every
    increasing index sequence. Returns (value, best 1-based sequence)."""
    pts = tuple(points)
    n = len(pts)
    best, best_seq = 0.0, (1,)
    for r in range(2, n + 1):
        for sub in itertools.combinations(range(n), r):
            total = sum(_dist(pts, sub[k], sub[k + 1], p) ** q for k in range(r - 1))
            if total > best:
                best, best_seq = total, tuple(s + 1 for s in sub)
    return best, best_seq


def brute_force_metastability(points, eps, g, p=2.0):
    """Least n with every pair in [n, g(n)] strictly below eps, scanning
    n = 1, 2, ... literally. Returns ('found', n) or ('exhausted', n) at
    the first n whose window leaves the horizon."""
    pts = tuple(points)
    horizon = len(pts)
    for n in range(1, horizon + 2):
        end = g(n)
        if end > horizon:
            return ("exhausted", n)
        clean = True
        for i in range(n, end + 1):
            for j in range(i, end + 1):
                if _dist(pts, i - 1, j - 1, p) >= eps:
                    clean = False
                    break
            if not clean:
                break
        if clean:
            return ("found", n)
    raise AssertionError("unreachable")


def brute_force_convergence_rate(points, eps, p=2.0):
    """Least n with all pairs in [n, horizon] strictly below eps, or None
    when only the vacuous single-point tail would qualify."""
    pts = tuple(points)
    n = len(pts)
    if n == 1:
        return 1
    for m in range(1, n):
        clean = all(
            _dist(pts, i, j, p) < eps
            for i in range(m - 1, n)
            for j in range(i, n)
        )
        if clean:
            return m
    return None


def hilbert_midpoint_norm_sq(x, y):
    """||(x+y)/2||^2 in l^2 via the parallelogram law, no direct midpoint
    evaluation: (||x||^2 + ||y||^2)/2 - ||(x-y)/2||^2."""
    nx = sum(abs(z) ** 2 for z in x)
    ny = sum(abs(z) ** 2 for z in y)
    nd = sum(abs(a - b) ** 2 for a, b in zip(x, y)) / 4.0
    return (nx + ny) / 2.0 - nd


def value_at(f, x):
    """f(x) of a SeqFunction as a complex row, the implicit zero outside its window included."""
    if f.lo <= x < f.hi:
        return f.values[x - f.lo]
    return np.zeros(f.dim, dtype=np.complex128)


def block_average_ref(values, lo, n_level, x):
    """Average of the dyadic block [h*2^n, (h+1)*2^n) containing x, where
    `values` covers integers [lo, lo+len). Zero outside the window."""
    size = 1 << n_level
    start = (x // size) * size
    total = 0.0 + 0.0j
    for t in range(start, start + size):
        k = t - lo
        if 0 <= k < len(values):
            total += values[k]
    return total / size


def orthogonality_defect(values, lo, n_max):
    """| sum_n ||d_n||^2 + ||E_N f||^2 - ||f||^2 | for the scalar dyadic
    martingale differences, all terms computed from block_average_ref.

    Conditional expectations spread mass across whole blocks, so all sums
    run over the union of level-n_max blocks meeting [lo, lo+len); every
    function involved vanishes outside it."""
    width = len(values)
    size = 1 << n_max
    span_lo = (lo // size) * size
    span_hi = (-((-(lo + width)) // size)) * size
    span = range(span_lo, span_hi)

    def at(x):
        k = x - lo
        return values[k] if 0 <= k < width else 0.0

    def level_fn(n):
        return [block_average_ref(values, lo, n, x) for x in span]

    total_sq = sum(abs(at(x)) ** 2 for x in span)
    prev = [at(x) for x in span]
    diff_sq = 0.0
    for n in range(1, n_max + 1):
        cur = level_fn(n)
        diff_sq += sum(abs(a - b) ** 2 for a, b in zip(prev, cur))
        prev = cur
    tail_sq = sum(abs(v) ** 2 for v in prev)
    return abs(diff_sq + tail_sq - total_sq)


def ref_drift(points, norm_x, p, row_norm):
    """(max excess, worst 1-based pair) of ||a_m - a_n|| - 2(m - n)||x||/m
    over n < m, by one vectorised pass per k = m - n. Ties go to the
    smallest k, then the smallest n. `row_norm(rows, p)` is the norm kernel
    under test, so the result is comparable bit for bit."""
    n_pts = points.shape[0]
    worst, worst_pair = -float("inf"), (1, 1)
    ns = np.arange(1, n_pts + 1, dtype=np.float64)
    for k in range(1, n_pts):
        excess = row_norm(points[k:] - points[:-k], p) - (2.0 * k * norm_x) / ns[k:]
        i = int(np.argmax(excess))
        if excess[i] > worst:
            worst, worst_pair = float(excess[i]), (i + 1, i + 1 + k)
    return worst, worst_pair
