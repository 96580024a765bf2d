"""Finite-dimensional complex sequence spaces with a power-type convexity modulus.

The ambient space everywhere in this package is l^p_u(C) viewed as a real
Banach space: u complex slots, norm (sum |z_i|^p)^(1/p). A SpaceDescriptor
pairs the exponent p with a coefficient K such that eta(eps) = K * eps^p is a
claimed modulus of uniform convexity; `check_uniform_convexity` audits such a
claim by sampling, and `clarkson_modulus` supplies the classical valid choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError

__all__ = [
    "Vector",
    "SpaceDescriptor",
    "vector",
    "norm_p",
    "batch_norm_p",
    "clarkson_modulus",
    "clarkson_lower_bound",
    "check_uniform_convexity",
    "descriptor_preset",
    "PRESETS",
]


def _checked(values, name: str, rank: int, dtype=np.complex128) -> np.ndarray:
    """values as a nonempty, finite array of the given rank, not copied; a 1-D
    input becomes a column when the rank is 2. The package's one array gate."""
    arr = np.asarray(values, dtype=dtype)
    if rank == 2 and arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != rank or arr.size == 0:
        raise InvalidInputError(f"{name} must be a nonempty {rank}-D array")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} must be finite")
    return arr


def _frozen(values, name: str, rank: int, dtype=np.complex128) -> np.ndarray:
    """`_checked`, then read-only and C-contiguous: copied unless it is contiguous
    and it and every array it views are read-only, so nothing can write it later."""
    arr = base = _checked(values, name, rank, dtype)
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is not None or not arr.flags.c_contiguous:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _exponent(p) -> float:
    """A norm exponent: finite and >= 1."""
    out = float(p)
    if not (math.isfinite(out) and out >= 1.0):
        raise InvalidInputError(f"norm exponent must satisfy p >= 1, got {p}")
    return out


@dataclass(frozen=True)
class Vector:
    """A point of l^p_u(C). Immutable; arithmetic returns new vectors."""

    components: np.ndarray
    p: float

    def __post_init__(self):
        object.__setattr__(self, "components", _frozen(self.components, "components", 1))
        object.__setattr__(self, "p", _exponent(self.p))

    @property
    def dim(self) -> int:
        return self.components.shape[0]

    def norm(self) -> float:
        return norm_p(self)

    def _coerce(self, other: "Vector") -> None:
        if not isinstance(other, Vector):
            raise InvalidInputError("expected a Vector")
        if other.dim != self.dim:
            raise DimensionMismatchError(f"dimension {other.dim} != {self.dim}")
        if other.p != self.p:
            raise InvalidInputError(f"norm exponent {other.p} != {self.p}")

    def __add__(self, other: "Vector") -> "Vector":
        self._coerce(other)
        return Vector(self.components + other.components, self.p)

    def __sub__(self, other: "Vector") -> "Vector":
        self._coerce(other)
        return Vector(self.components - other.components, self.p)

    def __mul__(self, scalar) -> "Vector":
        return Vector(self.components * complex(scalar), self.p)

    __rmul__ = __mul__

    def __neg__(self) -> "Vector":
        return Vector(-self.components, self.p)


def vector(components, p: float) -> Vector:
    """Convenience constructor accepting any array-like of numbers."""
    return Vector(components, p)


def norm_p(v: Vector) -> float:
    """(sum_i |z_i|^p)^(1/p) over the complex slots of v: the kernel's scaled
    path on one row, so no p-th power overflows at any scale."""
    return float(_scaled_norms(np.abs(v.components)[None, :], v.p)[0])


def batch_norm_p(points: np.ndarray, p: float) -> np.ndarray:
    """Row-wise norm of an (n, u) complex array: the package's row-norm kernel.

    One slot gives its modulus exactly; (|z|^p)^(1/p) can round below |z|.
    Otherwise rows are summed unscaled. A row whose norm lies in
    [2^(-1000/p), 2^(1000/p)] has a power sum in [2^-1000, 2^1000], so no
    p-th power overflows and underflow loses nothing that shows; the other
    rows, zero rows included, are recomputed scaled by their largest modulus.
    """
    moduli = np.abs(points)
    if moduli.shape[1] == 1:
        return moduli.ravel()
    with np.errstate(over="ignore"):
        out = (moduli**p).sum(axis=1) ** (1.0 / p)
    limit = 2.0 ** (1000.0 / p)
    odd = ~((out >= 1.0 / limit) & (out <= limit))
    if odd.any():
        out[odd] = _scaled_norms(moduli[odd], p)
    return out


def _scaled_norms(moduli: np.ndarray, p: float) -> np.ndarray:
    """Row-wise p-norm of nonnegative moduli, scaled by each row's peak. A zero
    row's peak is 1 and its sum 0, which is its root; other rows sum to >= 1. Each
    root is a scalar pow: numpy's array power rounds some last bits differently."""
    peak = moduli.max(axis=1)
    peak[peak == 0.0] = 1.0
    sums = np.sum((moduli / peak[:, None]) ** p, axis=1)
    live = sums > 0.0
    sums[live] = [s ** (1.0 / p) for s in sums[live].tolist()]
    return peak * sums


@dataclass(frozen=True)
class SpaceDescriptor:
    """Exponent 2 <= p < 1024 plus a claimed modulus coefficient K.

    The claim eta(eps) = K*eps^p is only consistent with a unit-ball geometry
    when K*eps^p <= 1 on (0, 2]; `admissible` reports that. An inadmissible
    descriptor is still constructible so the sampling audit can demonstrate
    its failure.
    """

    p: float
    K: float

    def __post_init__(self):
        p, K = float(self.p), float(self.K)
        if not (math.isfinite(p) and p >= 2.0):
            raise InvalidInputError(f"descriptor exponent must satisfy p >= 2, got {self.p}")
        if not (math.isfinite(K) and K > 0.0):
            raise InvalidInputError(f"modulus coefficient must be positive, got {self.K}")
        if p >= 1024.0:
            raise InvalidInputError(f"descriptor exponent must satisfy p < 1024, where 2^p is finite, "
                                    f"got {self.p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "K", K)

    def eta(self, eps: float) -> float:
        """Claimed modulus eta(eps) = K * eps^p, for eps in (0, 2]."""
        if not 0.0 < eps <= 2.0:
            raise InvalidInputError(f"modulus argument must lie in (0, 2], got {eps}")
        return self.K * eps**self.p

    @property
    def admissible(self) -> bool:
        """True when K*eps^p <= 1 holds across (0, 2], i.e. K <= 2^-p."""
        return self.K * 2.0**self.p <= 1.0


def clarkson_modulus(p: float, eps: float) -> float:
    """The classical modulus 1 - (1 - (eps/2)^p)^(1/p) of l^p, p >= 2."""
    if p < 2.0 or not math.isfinite(p):
        raise InvalidInputError(f"need p >= 2, got {p}")
    if not 0.0 < eps <= 2.0:
        raise InvalidInputError(f"need eps in (0, 2], got {eps}")
    return 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)


def clarkson_lower_bound(p: float, eps: float) -> float:
    """Power-type lower bound (1/p) * (eps/2)^p for the Clarkson modulus."""
    if p < 2.0 or not math.isfinite(p):
        raise InvalidInputError(f"need p >= 2, got {p}")
    if not 0.0 < eps <= 2.0:
        raise InvalidInputError(f"need eps in (0, 2], got {eps}")
    return (eps / 2.0) ** p / p


PRESETS: dict[str, str] = {
    "hilbert": "p=2, K=1/8 (valid Hilbert-space modulus: 1-sqrt(1-t) >= t/2)",
    "clarkson": "given p>=2, K=1/(p*2^p) (Clarkson modulus lower bound for l^p)",
}


def descriptor_preset(name: str, p: float | None = None) -> SpaceDescriptor:
    """Build one of the shipped descriptors by name.

    "hilbert" ignores p and returns (2, 1/8); "clarkson" requires p >= 2 and
    returns (p, 1/(p*2^p)), which needs p up to about 1014 for K > 0.
    """
    if name == "hilbert":
        return SpaceDescriptor(2.0, 0.125)
    if name == "clarkson":
        if p is None:
            raise InvalidInputError("preset 'clarkson' needs an exponent p")
        p = float(p)
        try:
            K = 1.0 / (p * 2.0**p)
        except (OverflowError, ZeroDivisionError):  # 2^p overflows, or p * 2^p is 0
            K = 0.0  # SpaceDescriptor rejects p or K, as when p * 2^p is inf
        return SpaceDescriptor(p, K)
    raise InvalidInputError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")


def _unit_sphere_sample(rng: np.random.Generator, n: int, dim: int, p: float) -> np.ndarray:
    z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    norms = batch_norm_p(z, p)
    norms[norms == 0.0] = 1.0
    return z / norms[:, None]


_AUDIT_TOL = 1e-9  # rounding slack on the midpoint claim


def check_uniform_convexity(
    desc: SpaceDescriptor,
    dim: int,
    trials: int = 10_000,
    seed: int = 0,
) -> int:
    """Sample unit-ball pairs and count violations of the claimed modulus.

    Each trial draws x, y in the unit ball of l^p_dim(C) (two thirds of the
    trials pin both to the unit sphere, where the midpoint-shrinkage claim is
    tightest) and tests, at the realized separation eps = ||x - y||,

        ||(x + y) / 2|| <= 1 - K * eps^p + 1e-9.

    Returns the number of violating pairs: 0 is expected whenever (p, K) is a
    valid modulus for the space, and positive counts expose an inflated K.
    Pairs with eps = 0 or eps > 2 (impossible in the ball, barring rounding)
    are skipped as vacuous.
    """
    if dim < 1:
        raise InvalidInputError(f"dimension must be >= 1, got {dim}")
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    p = desc.p

    x = _unit_sphere_sample(rng, trials, dim, p)
    y = _unit_sphere_sample(rng, trials, dim, p)
    # Pull one third of the pairs into the interior with independent radii.
    interior = rng.random(trials) < (1.0 / 3.0)
    radii_x = np.where(interior, rng.random(trials), 1.0)
    radii_y = np.where(interior, rng.random(trials), 1.0)
    x = x * radii_x[:, None]
    y = y * radii_y[:, None]

    eps = batch_norm_p(x - y, p)
    mid = batch_norm_p((x + y) / 2.0, p)
    live = (eps > 0.0) & (eps <= 2.0)
    bound = 1.0 - desc.K * eps[live] ** p + _AUDIT_TOL
    return int(np.count_nonzero(mid[live] > bound))
