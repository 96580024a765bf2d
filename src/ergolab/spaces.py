"""Finite-dimensional complex sequence spaces with a power-type convexity modulus.

The ambient space everywhere in this package is l^p_u(C) viewed as a real
Banach space: u complex slots, norm (sum |z_i|^p)^(1/p). A SpaceDescriptor
pairs the exponent p with a coefficient K such that eta(eps) = K * eps^p is a
claimed modulus of uniform convexity; `check_uniform_convexity` audits such a
claim by sampling, and `clarkson_modulus` supplies the classical valid choice.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "Vector",
    "SpaceDescriptor",
    "batch_norm_p",
    "clarkson_modulus",
    "check_uniform_convexity",
    "descriptor_preset",
    "PRESETS",
]

# Cap on the complex slots of a trajectory, a widened dyadic window, a scenario's samples and cases.
MAX_TRAJECTORY_SLOTS = 1 << 24  # 256 MiB; building a trajectory holds about three arrays of that size


def _checked(values, name: str, rank: int, dtype=np.complex128) -> np.ndarray:
    """values as a nonempty, finite array of the given rank, not copied; a 1-D
    input becomes a column when the rank is 2. Entries must be integers, floats or,
    for a complex dtype, complex numbers: no text, bytes, booleans or dropped
    imaginary parts. The package's one array gate."""
    kinds = "iufc" if np.dtype(dtype).kind == "c" else "iuf"
    number = numbers.Complex if "c" in kinds else numbers.Real
    try:
        arr = np.asarray(values)
        if arr.dtype == object and all(isinstance(v, number) and not isinstance(v, bool) for v in arr.flat):
            arr = arr.astype(dtype)  # Python ints past the int64 range
        if arr.dtype.kind not in kinds:
            raise TypeError
        arr = np.asarray(arr, dtype=dtype)
    except (TypeError, ValueError, OverflowError):  # ragged rows, ints past the float range
        raise InvalidInputError(f"{name} must be an array of finite numbers") from None
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


def _real(value, name: str, lo: float | None = None, hi: float | None = None, *,
          above: bool = False) -> float:
    """value as a finite Python float in [lo, hi], or (lo, hi] when `above`, an end
    None when open: any Python or numpy real but a boolean. The package's one real gate."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # np.bool_ is no Real
        raise InvalidInputError(f"{name} must be a real number, got {_shown(value)}")
    try:
        out = float(value)
    except OverflowError:  # an integer past the float range
        out = math.inf if value > 0 else -math.inf
    if lo is not None and not (out > lo if above else out >= lo) or hi is not None and not out <= hi:
        raise InvalidInputError(
            f"{name} must be {'>' if above else '>='} {lo}, got {out}" if hi is None
            else f"{name} {out} outside {'(' if above else '['}{'-inf' if lo is None else lo}, {hi}]")
    if not math.isfinite(out):
        raise InvalidInputError(f"{name} must be finite, got {out}")
    return out


def _exponent(p, name: str = "norm exponent", symbol: str = "p", lo: int = 1) -> float:
    """`_real` in [lo, inf), failing as `<name> must satisfy <symbol> >= <lo>, got <p>`."""
    try:
        return _real(p, name, lo)
    except InvalidInputError:
        raise InvalidInputError(f"{name} must satisfy {symbol} >= {lo}, got {_shown(p, str)}") from None


def _shown(value, show=repr) -> str:
    """show(value); an integer past str()'s digit limit is shown by its size."""
    try:
        return show(value)
    except ValueError:  # the limit, hit by the integer or by one inside the container
        return (f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit integer" if isinstance(value, int)
                else f"a {type(value).__name__} holding an integer too long to show")


def _integer(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """value as a Python int in [lo, hi], an end None when open: whatever
    `operator.index` takes except a boolean. The package's one integer gate."""
    try:
        if isinstance(value, bool):
            raise TypeError
        out = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {_shown(value)}") from None
    if lo is not None and out < lo or hi is not None and out > hi:
        raise InvalidInputError(f"{name} must be >= {_shown(lo)}, got {_shown(out)}" if hi is None
                                else f"{name} {_shown(out)} outside [{lo}, {hi}]")
    return out


def _integers(values, name: str, lo: int | None = None) -> tuple[int, ...]:
    """`_integer` of each entry of an iterable."""
    try:
        values = tuple(values)
    except TypeError:
        raise InvalidInputError(f"{name} sequence must be iterable, got {_shown(values)}") from None
    return tuple(_integer(v, name, lo) for v in values)


@dataclass(frozen=True)
class Vector:
    """A point of l^p_u(C). Immutable."""

    components: np.ndarray
    p: float

    def __post_init__(self):
        object.__setattr__(self, "components", _frozen(self.components, "components", 1))
        object.__setattr__(self, "p", _exponent(self.p))

    @property
    def dim(self) -> int:
        return self.components.shape[0]

    def norm(self) -> float:
        """(sum_i |z_i|^p)^(1/p) over the complex slots: the kernel's scaled path
        on one row, so no p-th power overflows at any scale."""
        return float(_scaled_norms(np.abs(self.components)[None, :], self.p)[0])


def batch_norm_p(points: np.ndarray, p: float) -> np.ndarray:
    """Row-wise norm of an (n, u) complex array: the package's row-norm kernel.

    One slot gives its modulus exactly; (|z|^p)^(1/p) can round below |z|.
    Otherwise rows are summed unscaled. Below 8 slots the powers are added
    column by column, left to right: numpy's row sum is that same loop below 8
    terms, so the bits are its bits, at a fraction of the cost of summing
    short rows. From 8 terms on numpy sums in blocks, which columns do not
    reproduce bit for bit, so `sum(axis=1)` stays. A row whose norm lies in
    [2^(-1000/p), 2^(1000/p)] has a power sum in [2^-1000, 2^1000], so no
    p-th power overflows and underflow loses nothing that shows; the other
    rows are recomputed scaled by their largest modulus, except a zero row,
    whose unscaled norm is exactly 0.
    """
    moduli = np.abs(points)
    u = moduli.shape[1]
    if u == 1:
        return moduli.ravel()
    with np.errstate(over="ignore"):
        out = _row_sums(moduli**p)  # the power on the whole contiguous array: a strided one can round differently
        out **= 1.0 / p
    limit = 2.0 ** (1000.0 / p)
    if out.size and not (out.min() >= 1.0 / limit and out.max() <= limit):  # the mask only when a row is out
        odd = ~((out >= 1.0 / limit) & (out <= limit))
        odd &= _row_sums(moduli) > 0.0  # a zero row's norm is its unscaled 0
        if odd.any():
            out[odd] = _scaled_norms(moduli[odd], p)
    return out


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Row sums of (n, u >= 2) terms: below 8 columns added column by column, left to right."""
    if terms.shape[1] >= 8:
        return terms.sum(axis=1)
    out = terms[:, 0] + terms[:, 1]
    for k in range(2, terms.shape[1]):
        out += terms[:, k]
    return out


def _scaled_norms(moduli: np.ndarray, p: float) -> np.ndarray:
    """Row-wise p-norm of nonnegative moduli, scaled by each row's peak. A zero
    row's peak is 1 and its sum 0, which is its root; a row whose peak is inf (an
    overflowed difference) has norm inf; other rows sum to >= 1. Each root is a
    scalar pow: numpy's array power rounds some last bits differently."""
    peak = moduli.max(axis=1)
    peak[peak == 0.0] = 1.0
    with np.errstate(invalid="ignore"):  # inf / inf, in a row whose sum is set to 1 below
        sums = np.sum((moduli / peak[:, None]) ** p, axis=1)
    sums[np.isinf(peak)] = 1.0
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
        p = _exponent(self.p, "descriptor exponent", "p", 2)
        try:
            K = _real(self.K, "modulus coefficient", 0, above=True)
        except InvalidInputError:
            raise InvalidInputError(f"modulus coefficient must be positive, got {_shown(self.K, str)}") from None
        if p >= 1024.0:
            raise InvalidInputError(f"descriptor exponent must satisfy p < 1024, where 2^p is finite, "
                                    f"got {self.p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "K", K)

    def eta(self, eps: float) -> float:
        """Claimed modulus eta(eps) = K * eps^p, for eps in (0, 2]."""
        return self.K * _real(eps, "modulus argument", 0, 2, above=True) ** self.p

    @property
    def admissible(self) -> bool:
        """True when K*eps^p <= 1 holds across (0, 2], i.e. K <= 2^-p."""
        return self.K * 2.0**self.p <= 1.0


def clarkson_modulus(p: float, eps: float) -> float:
    """The classical modulus 1 - (1 - (eps/2)^p)^(1/p) of l^p, p >= 2."""
    p, eps = _exponent(p, "Clarkson exponent", "p", 2), _real(eps, "eps", 0, 2, above=True)
    return 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)


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
        p = _exponent(p, "descriptor exponent", "p", 2)
        # 2^p is finite below 1024; SpaceDescriptor rejects K = 0, also when p * 2^p is inf
        return SpaceDescriptor(p, 1.0 / (p * 2.0**p) if p < 1024.0 else 0.0)
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
    dim, trials = _integer(dim, "dimension", 1), _integer(trials, "trials", 1)
    if dim * trials > MAX_TRAJECTORY_SLOTS:  # checked before any sample is drawn
        raise InvalidInputError(f"dimension {_shown(dim)} * trials {_shown(trials)} exceeds the cap of "
                                f"{MAX_TRAJECTORY_SLOTS} sample slots")
    rng = np.random.default_rng(_integer(seed, "seed", 0))
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
