"""Running averages of operator powers along an orbit.

`ergodic_averages` produces the whole trajectory A_1 x, ..., A_N x where

    A_n x = (1/n) * (x + Tx + ... + T^(n-1) x),

computed from one pass over the orbit (a running sum divided by n). Each
operator kind builds its own orbit (see `operators`); for rotation products
it comes from the closed form e^(i*n*theta), and
`rotation_average_closed_form` gives the scalar average directly so the two
routes can be checked against each other.

The running sum is blocked: each block of 2^16 rows is summed in order by
`np.cumsum` and offset by the total of the earlier blocks, which is carried
with Kahan compensation; up to 2^16 rows this is exactly `np.cumsum`. To
first order in the unit roundoff, each real and imaginary part of every
computed A_n x is within (2^16 + 3) * 2^-53 * R ~= 7.3e-12 * R of the exact
average of the computed orbit rows, R being the largest coordinate magnitude
among x, ..., T^(n-1) x (R <= ||x|| for the isometries). A plain running sum
only guarantees (n - 1) * 2^-53 * R.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError
from .operators import Operator
from .spaces import Vector, _exponent, _frozen, _integer, batch_norm_p

__all__ = ["AverageTrajectory", "ergodic_averages", "orbit", "rotation_average_closed_form"]

_SUM_BLOCK = 1 << 16  # rows per block of the running sum


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

    def __len__(self) -> int:
        return self.horizon

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
    """The rows x, Tx, ..., T^(n-1) x. Closed forms for rotation and shift."""
    n = _integer(n, "horizon", 1)
    if x.dim != op.dim:
        raise DimensionMismatchError(f"operator dimension {op.dim} != vector dimension {x.dim}")
    return op.orbit(x.components, n)


def _running_averages(rows: np.ndarray) -> None:
    """rows[i] <- (rows[0] + ... + rows[i]) / (i + 1), in place, one block per step."""
    total = np.zeros(rows.shape[1], dtype=rows.dtype)
    carry = np.zeros_like(total)
    for start in range(0, rows.shape[0], _SUM_BLOCK):
        block = rows[start:start + _SUM_BLOCK]
        np.cumsum(block, axis=0, out=block)
        y = block[-1] - carry  # the block's own sum, taken before the offset
        if start:
            block += total
        block /= np.arange(start + 1, start + 1 + block.shape[0], dtype=np.float64)[:, None]
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
    n = _integer(n, "average length", 1)
    if not math.isfinite(theta):
        raise InvalidInputError(f"angle must be finite, got {theta}")
    if math.remainder(theta, math.tau) == 0.0:
        return complex(1.0, 0.0)
    half = 0.5 * theta
    magnitude = math.sin(n * half) / (n * math.sin(half))
    return magnitude * cmath.exp(1j * (n - 1) * half)
