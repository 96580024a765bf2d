"""Constructions witnessing that the quantitative bounds are not vacuous.

Two families:

* a product of plane rotations by angles pi/2^(j-1) applied to the
  normalized all-ones vector, whose averages fluctuate once per dyadic
  index interval, and
* the cyclic coordinate shift applied to a basis vector in the 1-norm,
  whose averages at powers of two stay 1-separated.

Both are exact isometries, so every average can be evaluated in closed
form or by cheap recurrences, and the measured fluctuation counts and
metastability rates grow with the dimension. The verifier below runs the
rotation family at u = 2^p coordinates and confirms the measured rate and
count at eps = 1/4 reach 2^p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scan import PointsView, first_violation
from .averages import AverageTrajectory, ergodic_averages
from .errors import HorizonExhaustedError, InvalidInputError
from .operators import CyclicShift, RotationProduct
from .spaces import Vector, _integer
from .variation import MetastabilityQuery, count_fluctuations, g_next_power_of_two, metastability_rate

__all__ = [
    "RotationCounterexample",
    "LowerBoundResult",
    "build_rotation_counterexample",
    "build_cyclic_shift_counterexample",
    "fluctuation_in_dyadic_interval",
    "verify_metastability_lower_bound",
]


@dataclass(frozen=True)
class RotationCounterexample:
    """Rotation-product instance: operator, start point, separation level."""

    operator: RotationProduct
    x: Vector
    eps: float


def build_rotation_counterexample(p: float, u: int) -> RotationCounterexample:
    """Rotations by pi, pi/2, ..., pi/2^(u-1) on u complex coordinates,
    started at u^(-1/p) * (1, ..., 1); eps = 1/(2 u^(1/p)).

    The start point has p-norm exactly 1. Coordinate j of the n-th average
    vanishes whenever 2^j divides n and has modulus >= 2/pi for n <= 2^(j-1),
    which forces a fluctuation of size 2 eps inside every dyadic interval
    [2^(k-1), 2^k] with k <= u.
    """
    if p < 2.0:
        raise InvalidInputError(f"need p >= 2, got {p}")
    u = _integer(u, "u", 1)
    angles = math.pi / np.exp2(np.arange(u, dtype=np.float64))
    scale = u ** (-1.0 / p)
    x = Vector(np.full(u, scale, dtype=np.complex128), p=p)
    eps = 1.0 / (2.0 * u ** (1.0 / p))
    return RotationCounterexample(RotationProduct(angles), x, eps)


def build_cyclic_shift_counterexample(u: int) -> tuple[CyclicShift, Vector]:
    """Cyclic shift on u coordinates in the 1-norm, started at e_1.

    The 2^k-th average spreads mass 2^(-k) over the first 2^k coordinates
    (for 2^k <= u), so consecutive power-of-two averages differ by exactly
    1 in the 1-norm.
    """
    u = _integer(u, "u", 1)
    e1 = np.zeros(u, dtype=np.complex128)
    e1[0] = 1.0
    return CyclicShift(u), Vector(e1, p=1.0)


def fluctuation_in_dyadic_interval(traj: AverageTrajectory, eps: float, k: int) -> bool:
    """True when some pair of indices in [2^(k-1), 2^k] is eps-separated."""
    k = _integer(k, "k", 1)
    lo, hi = 2 ** (k - 1), 2**k
    if hi > traj.horizon:
        raise HorizonExhaustedError(
            f"interval [{lo}, {hi}] exceeds horizon {traj.horizon}",
            checked_up_to=traj.horizon,
        )
    return first_violation(PointsView(traj.points, traj.p), eps, lo - 1, hi - 1) is not None


@dataclass(frozen=True)
class LowerBoundResult:
    """Measured lower bounds from the rotation family at u = 2^p."""

    p: int
    u: int
    horizon: int
    eps: float
    rate_lower_bound: int  # metastability rate for g(n) = next power of two
    rate_exhausted: bool  # True when the rate exceeds the horizon
    fluctuation_count: int
    required: int  # 2^p, the bound both measurements must reach


def verify_metastability_lower_bound(p: int, horizon: int | None = None) -> LowerBoundResult:
    """Run the rotation family at u = 2^p coordinates and measure, at
    eps = 1/4, the metastability rate for g(n) = next power of two and the
    greedy fluctuation count.

    The default horizon is 2^u. When the rate search exhausts it, the
    verified lower bound (every smaller n was checked and failed) is
    reported with rate_exhausted=True; it exceeds 2^p for every p >= 2.
    """
    p = _integer(p, "p", 2)
    u = 2**p
    horizon = _integer(2**u if horizon is None else horizon, "horizon", 1)
    built = build_rotation_counterexample(float(p), u)
    eps = 0.25  # = 1/(2 u^(1/p)) exactly, since u^(1/p) = 2
    traj = ergodic_averages(built.operator, built.x, horizon)
    query = MetastabilityQuery(eps, g_next_power_of_two)
    try:
        rate = metastability_rate(traj, query)
        exhausted = False
    except HorizonExhaustedError as exc:
        rate = exc.verified_lower_bound
        exhausted = True
    count = count_fluctuations(traj, eps).count
    return LowerBoundResult(
        p=p,
        u=u,
        horizon=horizon,
        eps=eps,
        rate_lower_bound=rate,
        rate_exhausted=exhausted,
        fluctuation_count=count,
        required=2**p,
    )
