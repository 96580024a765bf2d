"""Running averages of operator powers along an orbit.

`ergodic_averages` produces the whole trajectory A_1 x, ..., A_N x where

    A_n x = (1/n) * (x + Tx + ... + T^(n-1) x),

computed from one pass over the orbit (a running sum divided by n). Each
operator kind builds its own orbit (see `operators`); for rotation products
rows n < 2^16 come from the closed form e^(i*n*theta) and later rows from a
2^16-row table of it, e^(i*r*theta) * (e^(i*s*theta) x) for n = s + r; slot j
of such a row is within (2^-51 |n*theta_j| + 2^-50) |x_j| of e^(i*n*theta_j) x_j.
`rotation_average_closed_form` gives the scalar average directly so the two
routes can be checked against each other.

The running sum is blocked: each block of 2^16 rows is summed in order by
`np.cumsum`, a cache-sized piece at a time, and offset by the total of the
earlier blocks, which is carried with Kahan compensation; up to 2^16 rows
this is exactly `np.cumsum`. To first order in the unit roundoff, each real
and imaginary part of every computed A_n x is within (2^16 + 3) * 2^-53 * R
~= 7.3e-12 * R of the exact average of the computed orbit rows, R being the
largest coordinate magnitude among x, ..., T^(n-1) x (R <= ||x|| for the
isometries). A plain running sum only guarantees (n - 1) * 2^-53 * R.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError
from .operators import Operator
from .spaces import MAX_TRAJECTORY_SLOTS, Vector, _exponent, _frozen, _integer, _real, _shown, batch_norm_p

__all__ = ["AverageTrajectory", "ergodic_averages", "orbit", "rotation_average_closed_form"]

_SUM_BLOCK = 1 << 16  # rows per block of the running sum
_DIV_SLICE = 1 << 12  # rows divided at a time


@dataclass(frozen=True)
class AverageTrajectory:
    """The points A_1 x .. A_N x as rows of an immutable (N, u) array."""

    points: np.ndarray
    p: float
    operator: Operator
    x: Vector

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen(self.points, "points", 2))
        object.__setattr__(self, "p", _exponent(self.p))

    @property
    def horizon(self) -> int:
        return self.points.shape[0]

    def point(self, n: int) -> Vector:
        """A_n x, 1-based."""
        return Vector(self.points[_integer(n, "index", 1, self.horizon) - 1], self.p)

    def norms(self) -> np.ndarray:
        """||A_n x|| for n = 1..N."""
        return batch_norm_p(self.points, self.p)

    def truncated(self, m: int) -> "AverageTrajectory":
        """The prefix trajectory A_1 x .. A_m x."""
        m = _integer(m, "prefix length", 1, self.horizon)
        return AverageTrajectory(self.points[:m], self.p, self.operator, self.x)


def orbit(op: Operator, x: Vector, n: int) -> np.ndarray:
    """The rows x, Tx, ..., T^(n-1) x, at most MAX_TRAJECTORY_SLOTS slots. Closed forms for rotation and shift."""
    n = _integer(n, "horizon", 1)
    if x.dim != op.dim:
        raise DimensionMismatchError(f"operator dimension {op.dim} != vector dimension {x.dim}")
    if n * op.dim > MAX_TRAJECTORY_SLOTS:
        raise InvalidInputError(f"horizon {_shown(n)} * dimension {op.dim} exceeds the cap of "
                                f"{MAX_TRAJECTORY_SLOTS} trajectory slots")
    return op.orbit(x.components, n)


def _running_averages(rows: np.ndarray) -> None:
    """rows[i] <- (rows[0] + ... + rows[i]) / (i + 1), in place, one block per step. A block is summed a
    cache-sized piece at a time, 2^15 floats but at least 256 rows, each piece's first row first taking the
    row before it: per column that is np.cumsum's own left fold, so the bits are its bits."""
    total = np.zeros(rows.shape[1], dtype=rows.dtype)
    carry = np.zeros_like(total)
    piece = max(256, 2**14 // rows.shape[1])  # complex rows: 2u floats each
    for start in range(0, rows.shape[0], _SUM_BLOCK):
        block = rows[start:start + _SUM_BLOCK]
        for i in range(0, block.shape[0], piece):
            part = block[i:i + piece]
            if i:
                part[0] += block[i - 1]
            np.cumsum(part, axis=0, out=part)
        y = block[-1] - carry  # the block's own sum, taken before the offset
        if start:
            block += total
        for i in range(0, block.shape[0], _DIV_SLICE):  # divisors a slice at a time: no block-sized column
            part = block[i:i + _DIV_SLICE]
            part /= np.arange(start + i + 1, start + i + 1 + part.shape[0], dtype=np.float64)[:, None]
        t = total + y
        carry = (t - total) - y
        total = t


def ergodic_averages(op: Operator, x: Vector, n: int) -> AverageTrajectory:
    """All averages A_1 x .. A_n x in one blocked running-sum pass over the orbit."""
    sums = orbit(op, x, n)
    _running_averages(sums)
    sums.flags.writeable = False  # handed over, checked but not copied
    return AverageTrajectory(sums, x.p, op, x)


def rotation_average_closed_form(theta: float, n: int) -> complex:
    """Average of e^(i*k*theta), k < n: (e^(i*n*theta) - 1) / (n*(e^(i*theta) - 1)).

    A full-turn angle (theta = 0 mod 2*pi) makes every term 1, so the
    average is exactly 1; the formula's 0/0 is resolved to that limit.
    Evaluation goes through the half-angle form
    sin(n*theta/2) / (n*sin(theta/2)) * e^(i*(n-1)*theta/2), which keeps the
    O(theta^2) part of e^(i*theta) - 1 from cancelling at tiny angles.
    """
    n, theta = _integer(n, "average length", 1), _real(theta, "angle")
    if math.remainder(theta, math.tau) == 0.0:
        return complex(1.0, 0.0)
    half = 0.5 * theta
    if n > sys.float_info.max or math.isinf(n * half):
        raise InvalidInputError(f"n*theta/2 is not a finite double: theta = {theta!r}, n of {n.bit_length()} bits")
    magnitude = math.sin(n * half) / (n * math.sin(half))
    return magnitude * cmath.exp(1j * (n - 1) * half)
