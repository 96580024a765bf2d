"""Constructions witnessing that the quantitative bounds are not vacuous.

The family is a product of plane rotations by angles pi/2^(j-1) applied to
the normalized all-ones vector, whose averages fluctuate once per dyadic
index interval. It is an exact isometry, so every average can be evaluated
in closed form, and the measured fluctuation counts and metastability rates
grow with the dimension. The verifier below runs the family at u = 2^p
coordinates and confirms the measured rate and count at eps = 1/4 reach 2^p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scan import PointsView, first_violation
from .averages import AverageTrajectory, ergodic_averages
from .errors import HorizonExhaustedError, InvalidInputError
from .operators import RotationProduct
from .spaces import MAX_TRAJECTORY_SLOTS, Vector, _exponent, _integer, _shown
from .variation import count_fluctuations, g_next_power_of_two, metastability_rate

__all__ = [
    "RotationCounterexample",
    "LowerBoundResult",
    "build_rotation_counterexample",
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
    p, u = _exponent(p, "counterexample exponent", "p", 2), _integer(u, "u", 1, MAX_TRAJECTORY_SLOTS)
    angles = math.pi * np.exp2(-np.arange(u, dtype=np.float64))  # pi / 2^k overflows 2^k from k = 1,024
    scale = u ** (-1.0 / p)
    x = Vector(np.full(u, scale, dtype=np.complex128), p=p)
    eps = 1.0 / (2.0 * u ** (1.0 / p))
    return RotationCounterexample(RotationProduct(angles), x, eps)


def fluctuation_in_dyadic_interval(traj: AverageTrajectory, eps: float, k: int) -> bool:
    """True when some pair of indices in [2^(k-1), 2^k] is eps-separated."""
    k, bits = _integer(k, "k", 1), traj.horizon.bit_length()
    if k >= bits:  # 2^k > horizon; past 4 x horizon, the ends are shown as powers, not built
        ends = (2 ** (k - 1), 2**k) if k <= bits + 1 else (f"2^{_shown(k - 1)}", f"2^{_shown(k)}")
        raise HorizonExhaustedError(f"interval [{ends[0]}, {ends[1]}] exceeds horizon {traj.horizon}",
                                    checked_up_to=traj.horizon)
    return first_violation(PointsView(traj.points, traj.p), eps, 2 ** (k - 1) - 1, 2**k - 1) is not None


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

    The default horizon is 2^u; u times the horizon must be at most
    MAX_TRAJECTORY_SLOTS, so p <= 4 at the default. When the rate search
    exhausts the horizon, the verified lower bound (every smaller n was
    checked and failed) is reported with rate_exhausted=True; it exceeds 2^p
    for every p >= 2.
    """
    p, default = _integer(p, "p", 2), horizon is None
    u = 2 ** min(p, 64)  # u = 2^p slots over 2^u rows by default; a power past 2^64 is shown, not built
    horizon = 2 ** min(u, 64) if default else _integer(horizon, "horizon", 1)
    if u * horizon > MAX_TRAJECTORY_SLOTS:  # before any array: u slots alone may be past the cap
        dim = u if p <= 64 else f"2^{_shown(p)}"
        raise InvalidInputError(f"horizon {f'2^{dim}' if default and u > 64 else _shown(horizon)} * "
                                f"dimension {dim} exceeds the cap of {MAX_TRAJECTORY_SLOTS} trajectory slots")
    built = build_rotation_counterexample(p, u)
    eps = 0.25  # = 1/(2 u^(1/p)) exactly, since u^(1/p) = 2
    traj = ergodic_averages(built.operator, built.x, horizon)
    try:
        rate = metastability_rate(traj, eps, g_next_power_of_two)
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
