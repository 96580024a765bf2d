"""Linear operators on l^p_u(C) with power-bound certificates.

Every operator kind provides the three members of `Operator`: `certificate`
(its power bounds, or None), `dim` (its complex slots) and `orbit` (the rows
z, Tz, ..., T^(n-1) z, built by the kind's own arithmetic).

- RotationProduct(angles): componentwise scalar rotation z_j -> e^(i*theta_j) z_j.
  Its orbit keeps rows r < 2^16 as a phase table, e^(i*r*theta) z bit for bit;
  row s + r of each later 2^16-row block is e^(i*r*theta) * (e^(i*s*theta) z),
  one complex exp per table entry and per block. Against the direct
  e^(i*k*theta_j) z_j such a row errs by the rounding of the phases s*theta and
  r*theta, together at most about 2^-53 |k*theta_j| as for k*theta_j itself,
  plus a few ulps of |z_j| from the exps and products: within
  (2^-51 |k*theta_j| + 2^-50) |z_j|.
- CyclicShift(dim): wrap-around right shift (z_1, ..., z_u) -> (z_u, z_1, ..., z_(u-1)).
  Its orbit gathers at most one period, min(n, u) rows, and repeats it.

Both are isometries by construction, and their certificate is the class
constant (B1, B2, n_max) = (1, 1, inf).

DenseMatrix wraps an arbitrary real matrix over the 2u real coordinates
(Re z_1, Im z_1, ..., Re z_u, Im z_u), the float64 view of a contiguous
complex array. Its orbit is built 64 rows at a time: single steps for the
first block, then each block is T^64 (formed by iterated multiplication)
times the one before it. Its certificate is the caller's stated hypothesis,
or None; nothing here measures or checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Protocol

import numpy as np

from .errors import InvalidInputError
from .spaces import _frozen, _integer, _real

__all__ = [
    "PowerBoundCertificate",
    "RotationProduct",
    "CyclicShift",
    "DenseMatrix",
    "Operator",
]

_ORBIT_BLOCK = 64  # rows per block of a DenseMatrix orbit
_PHASE_SLICE = 1 << 12  # rows of the table's phase column written at a time


@dataclass(frozen=True)
class PowerBoundCertificate:
    """Claim that B1*||y|| <= ||T^n y|| <= B2*||y|| for 1 <= n <= n_max."""

    B1: float
    B2: float
    n_max: int | float  # an integer >= 1, or math.inf for "all powers"

    def __post_init__(self):
        object.__setattr__(self, "B1", _real(self.B1, "B1", 0, above=True))
        object.__setattr__(self, "B2", _real(self.B2, "B2", self.B1))
        if not (isinstance(self.n_max, float) and self.n_max == math.inf):
            object.__setattr__(self, "n_max", _integer(self.n_max, "n_max", 1))


_ISOMETRY_CERT = PowerBoundCertificate(1.0, 1.0, math.inf)


class Operator(Protocol):
    """What every operator kind provides; z is a contiguous (u,) complex array."""

    certificate: PowerBoundCertificate | None

    @property
    def dim(self) -> int: ...

    def orbit(self, z: np.ndarray, n: int) -> np.ndarray: ...


@dataclass(frozen=True)
class RotationProduct:
    """Product of scalar rotations, one angle per complex slot."""

    angles: np.ndarray
    certificate: ClassVar[PowerBoundCertificate] = _ISOMETRY_CERT

    def __post_init__(self):
        object.__setattr__(self, "angles", _frozen(self.angles, "angles", 1, np.float64))

    @property
    def dim(self) -> int:
        return self.angles.shape[0]

    def orbit(self, z: np.ndarray, n: int) -> np.ndarray:
        out = np.zeros((n, self.dim), dtype=np.complex128)  # built in place: one array of the orbit's size
        table = out[:1 << 16]  # e^(i r theta), r < 2^16: the phases r theta a slice at a time, then exp
        for s in range(0, len(table), _PHASE_SLICE):
            part = table.imag[s : s + _PHASE_SLICE]
            np.multiply.outer(np.arange(s, s + len(part), dtype=np.float64), self.angles, out=part)
        np.exp(table, out=table)
        # row s + r of a later block: e^(i r theta) * (e^(i s theta) z), a few ulps from e^(i (s + r) theta) z
        for s in range(len(table), n, len(table)):
            np.multiply(table[:n - s], np.exp(1j * (s * self.angles)) * z, out=out[s : s + len(table)])
        np.multiply(table, z, out=table)
        return out


@dataclass(frozen=True)
class CyclicShift:
    """Coordinate permutation shifting every slot one place right, wrapping."""

    dim: int
    certificate: ClassVar[PowerBoundCertificate] = _ISOMETRY_CERT

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "dimension", 1))

    def orbit(self, z: np.ndarray, n: int) -> np.ndarray:
        u = self.dim
        period = z[(np.arange(u) - np.arange(min(n, u))[:, None]) % u]  # z, Tz, ..., at most one period
        if n <= u:
            return period
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
