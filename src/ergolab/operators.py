"""Linear operators on l^p_u(C) with power-bound certificates.

Every operator kind owns its arithmetic: `power` (T^n on a component
array), `orbit` (the rows z, Tz, ..., T^(n-1) z) and `estimate_power_bounds`.
The module functions below only validate and delegate.

- RotationProduct(angles): componentwise scalar rotation z_j -> e^(i*theta_j) z_j;
  the n-th power multiplies by e^(i*n*theta_j) in closed form.
- CyclicShift(dim): wrap-around right shift (z_1, ..., z_u) -> (z_u, z_1, ..., z_(u-1)).

Both are isometries by construction and carry the exact certificate
(B1, B2, n_max) = (1, 1, inf).

DenseMatrix wraps an arbitrary real matrix over the 2u real coordinates
(Re z_1, Im z_1, ..., Re z_u, Im z_u), the float64 view of a contiguous
complex array, powered by iterated multiplication. Its orbit is built 64
rows at a time: single steps for the first block, then each block is T^64
(formed by iterated multiplication) times the one before it. Its power
bounds are not known a priori; `estimate_power_bounds` samples them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError
from .spaces import Vector, _frozen, _integer, _unit_sphere_sample, batch_norm_p

__all__ = [
    "PowerBoundCertificate",
    "RotationProduct",
    "CyclicShift",
    "DenseMatrix",
    "Operator",
    "apply",
    "apply_power",
    "estimate_power_bounds",
]

_ORBIT_BLOCK = 64  # rows per block of a DenseMatrix orbit


@dataclass(frozen=True)
class PowerBoundCertificate:
    """Claim that B1*||y|| <= ||T^n y|| <= B2*||y|| for 1 <= n <= n_max."""

    B1: float
    B2: float
    n_max: float  # math.inf for "all powers"

    def __post_init__(self):
        if not (0.0 < self.B1 <= self.B2) or not math.isfinite(self.B2):
            raise InvalidInputError(f"need 0 < B1 <= B2 < inf, got ({self.B1}, {self.B2})")
        if not (self.n_max >= 1):
            raise InvalidInputError(f"need n_max >= 1, got {self.n_max}")


_ISOMETRY_CERT = PowerBoundCertificate(1.0, 1.0, math.inf)


class Operator(Protocol):
    """What every operator kind provides; z is a contiguous (u,) complex array."""

    certificate: PowerBoundCertificate | None

    @property
    def dim(self) -> int: ...

    def power(self, z: np.ndarray, n: int) -> np.ndarray: ...

    def orbit(self, z: np.ndarray, n: int) -> np.ndarray: ...

    def estimate_power_bounds(self, n_max: int, trials: int, seed: int,
                              p: float) -> PowerBoundCertificate: ...


class _Isometry:
    def estimate_power_bounds(self, n_max, trials, seed, p) -> PowerBoundCertificate:
        """The exact certificate; nothing is sampled."""
        return self.certificate


@dataclass(frozen=True)
class RotationProduct(_Isometry):
    """Product of scalar rotations, one angle per complex slot."""

    angles: np.ndarray
    certificate: PowerBoundCertificate = _ISOMETRY_CERT

    def __post_init__(self):
        object.__setattr__(self, "angles", _frozen(self.angles, "angles", 1, np.float64))

    @property
    def dim(self) -> int:
        return self.angles.shape[0]

    def power(self, z: np.ndarray, n: int) -> np.ndarray:
        return z * np.exp(1j * (n * self.angles))

    def orbit(self, z: np.ndarray, n: int) -> np.ndarray:
        return np.exp(1j * np.outer(np.arange(n, dtype=np.float64), self.angles)) * z[None, :]


@dataclass(frozen=True)
class CyclicShift(_Isometry):
    """Coordinate permutation shifting every slot one place right, wrapping."""

    dim: int
    certificate: PowerBoundCertificate = _ISOMETRY_CERT

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "dimension", 1))

    def power(self, z: np.ndarray, n: int) -> np.ndarray:
        return np.roll(z, n % self.dim)

    def orbit(self, z: np.ndarray, n: int) -> np.ndarray:
        u = self.dim
        period = z[(np.arange(u)[None, :] - np.arange(u)[:, None]) % u]  # z, Tz, ..., T^(u-1) z
        out = np.empty((n, u), dtype=np.complex128)
        whole = n - n % u
        out[:whole].reshape(-1, u, u)[:] = period  # rows repeat with period u
        out[whole:] = period[:n % u]
        return out


@dataclass(frozen=True)
class DenseMatrix:
    """Arbitrary real-linear map given over the 2u interleaved real coordinates."""

    matrix: np.ndarray
    certificate: PowerBoundCertificate | None = None

    def __post_init__(self):
        m = _frozen(self.matrix, "matrix", 2, np.float64)
        if m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise InvalidInputError("matrix must be square with even size 2u")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0] // 2

    def power(self, z: np.ndarray, n: int) -> np.ndarray:
        """Iterated multiplication: cost grows linearly with n by design
        (no eigendecomposition shortcuts)."""
        coords = z.view(np.float64)
        for _ in range(n):
            coords = self.matrix @ coords
        return coords.view(np.complex128)

    def orbit(self, z: np.ndarray, n: int) -> np.ndarray:
        out = np.empty((n, self.dim), dtype=np.complex128)
        coords = out.view(np.float64)
        coords[0] = z.view(np.float64)
        for i in range(1, min(n, _ORBIT_BLOCK)):
            coords[i] = self.matrix @ coords[i - 1]
        if n > _ORBIT_BLOCK:
            power = self.matrix
            for _ in range(_ORBIT_BLOCK - 1):
                power = self.matrix @ power
            for start in range(_ORBIT_BLOCK, n, _ORBIT_BLOCK):
                stop = min(n, start + _ORBIT_BLOCK)
                np.matmul(coords[start - _ORBIT_BLOCK:stop - _ORBIT_BLOCK], power.T,
                          out=coords[start:stop])
        return out

    def estimate_power_bounds(self, n_max, trials, seed, p) -> PowerBoundCertificate:
        rng = np.random.default_rng(seed)
        coords = _unit_sphere_sample(rng, trials, self.dim, p).view(np.float64)

        lo, hi = math.inf, 0.0
        for _ in range(n_max):
            coords = coords @ self.matrix.T
            norms = batch_norm_p(coords.view(np.complex128), p)
            lo = min(lo, float(norms.min()))
            hi = max(hi, float(norms.max()))
        if lo <= 0.0:
            raise InvalidInputError("sampled a vector annihilated by the matrix; bounds are degenerate")
        return PowerBoundCertificate(lo, hi, float(n_max))


def apply(op: Operator, v: Vector) -> Vector:
    """One application of the operator."""
    return apply_power(op, 1, v)


def apply_power(op: Operator, n: int, v: Vector) -> Vector:
    """T^n applied to v; closed form where the kind admits one."""
    n = _integer(n, "power", 0)
    if v.dim != op.dim:
        raise DimensionMismatchError(f"operator dimension {op.dim} != vector dimension {v.dim}")
    return Vector(op.power(v.components, n), v.p)


def estimate_power_bounds(
    op: Operator,
    n_max: int = 64,
    trials: int = 32,
    seed: int = 0,
    p: float = 2.0,
) -> PowerBoundCertificate:
    """Measure (B1, B2) as min/max of ||T^n y|| over sampled unit vectors.

    Powers range over 1 <= n <= n_max. Isometry kinds return their exact
    certificate without sampling. The result is a measurement, not a proof:
    it is never attached to the operator automatically.
    """
    return op.estimate_power_bounds(_integer(n_max, "n_max", 1), _integer(trials, "trials", 1), seed, p)
