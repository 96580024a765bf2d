"""Dyadic filtration machinery on finitely supported integer-indexed functions.

A SeqFunction models f in l^p(Z; B) with B = l^p_d(C): finitely many vector
values on a window [lo, hi), implicitly zero elsewhere. The sigma-algebra at
level n is generated by the blocks [h*2^n, (h+1)*2^n), anchored at 0, so the
conditional expectation E_n replaces f by its block averages (averaging the
implicit zeros too). Levels decrease information as n grows: E_0 = identity,
and (E_n f) for n -> inf flattens toward 0 because mass spreads over longer
blocks.

The decomposition checks measure the empirical constants of three inequalities
(martingale-difference variation; averages against expectations; short
in-band increments), returning the observed ratio against lpb_norm(f)^p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError, PreconditionError
from .operators import Operator
from .averages import orbit
from .spaces import Vector, _exponent, _frozen, _integer, _integers, norm_p
from .variation import IndexSequence

__all__ = [
    "SeqFunction",
    "DecompositionReport",
    "lpb_norm",
    "conditional_expectation",
    "martingale_differences",
    "shift_average_at",
    "seq_shift",
    "transfer_embed",
    "verify_decomposition_inequalities",
]


@dataclass(frozen=True)
class SeqFunction:
    """Finitely supported f: Z -> l^p_d(C), stored on the window [lo, lo+len)."""

    lo: int
    values: np.ndarray
    p: float

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, "values", 2))
        object.__setattr__(self, "lo", _integer(self.lo, "lo"))
        object.__setattr__(self, "p", _exponent(self.p))

    @property
    def hi(self) -> int:
        return self.lo + self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def at(self, x: int) -> Vector:
        """f(x), the implicit zero outside the window included."""
        x = _integer(x, "x")
        if self.lo <= x < self.hi:
            return Vector(self.values[x - self.lo], self.p)
        return Vector(np.zeros(self.dim, dtype=np.complex128), self.p)

    def _aligned(self, other: "SeqFunction") -> tuple[int, np.ndarray, np.ndarray]:
        if not isinstance(other, SeqFunction):
            raise InvalidInputError("expected a SeqFunction")
        if other.dim != self.dim:
            raise DimensionMismatchError(f"value dimension {other.dim} != {self.dim}")
        if other.p != self.p:
            raise InvalidInputError(f"exponent {other.p} != {self.p}")
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        a = np.zeros((hi - lo, self.dim), dtype=np.complex128)
        b = np.zeros_like(a)
        a[self.lo - lo : self.hi - lo] = self.values
        b[other.lo - lo : other.hi - lo] = other.values
        return lo, a, b

    def __add__(self, other: "SeqFunction") -> "SeqFunction":
        lo, a, b = self._aligned(other)
        return SeqFunction(lo, a + b, self.p)

    def __sub__(self, other: "SeqFunction") -> "SeqFunction":
        lo, a, b = self._aligned(other)
        return SeqFunction(lo, a - b, self.p)

    def __mul__(self, scalar) -> "SeqFunction":
        return SeqFunction(self.lo, self.values * complex(scalar), self.p)

    __rmul__ = __mul__


def lpb_norm(f: SeqFunction) -> float:
    """(sum_x ||f(x)||^p)^(1/p); inner and outer exponents agree, so this is
    the flat p-norm over every complex entry."""
    return norm_p(Vector(f.values.ravel(), f.p))


def conditional_expectation(f: SeqFunction, level: int) -> SeqFunction:
    """Block averages of f over the blocks of length 2^level (level >= 0), window
    widened to block boundaries (partially covered blocks average in the implicit zeros)."""
    b = 1 << _integer(level, "level", 0)
    if b == 1:
        return SeqFunction(f.lo, f.values, f.p)
    lo = (f.lo // b) * b
    hi = -((-f.hi) // b) * b  # ceil division
    padded = np.zeros((hi - lo, f.dim), dtype=np.complex128)
    padded[f.lo - lo : f.hi - lo] = f.values
    means = padded.reshape(-1, b, f.dim).sum(axis=1) / b
    return SeqFunction(lo, np.repeat(means, b, axis=0), f.p)


def martingale_differences(f: SeqFunction, n_max: int) -> list[SeqFunction]:
    """[d_1 f, ..., d_n_max f] with d_1 f = f - E_1 f and
    d_n f = E_(n-1) f - E_n f; they telescope to f - E_n_max f."""
    out = []
    prev = f
    for n in range(1, _integer(n_max, "n_max", 1) + 1):
        cur = conditional_expectation(f, n)
        out.append(prev - cur)
        prev = cur
    return out


def shift_average_at(f: SeqFunction, n: int) -> SeqFunction:
    """(A_n f)(x) = (1/n) * sum_(i<n) f(x+i), windowed sums via one prefix pass."""
    n = _integer(n, "average length", 1)
    if n == 1:
        return SeqFunction(f.lo, f.values, f.p)
    length = f.hi - f.lo
    prefix = np.zeros((length + 1, f.dim), dtype=np.complex128)
    np.cumsum(f.values, axis=0, out=prefix[1:])
    # Output x ranges over [lo-n+1, hi); the summed range [x, x+n) is clipped
    # into [lo, hi) because f vanishes outside.
    xs = np.arange(f.lo - n + 1, f.hi)
    a = np.clip(xs - f.lo, 0, length)
    b = np.clip(xs + n - f.lo, 0, length)
    return SeqFunction(f.lo - n + 1, (prefix[b] - prefix[a]) / n, f.p)


def seq_shift(f: SeqFunction, steps: int = 1) -> SeqFunction:
    """(T^k f)(x) = f(x + k): the window slides left, values unchanged."""
    return SeqFunction(f.lo - _integer(steps, "steps"), f.values, f.p)


def transfer_embed(op: Operator, x: Vector, n: int) -> SeqFunction:
    """f(i) = T^i x on [0, n), zero elsewhere: the orbit laid out on Z."""
    return SeqFunction(0, orbit(op, x, n), x.p)


@dataclass(frozen=True)
class DecompositionReport:
    """Observed constant of one decomposition inequality on one function."""

    kind: str
    numerator: float
    denominator: float
    ratio: float
    terms: tuple[float, ...]


def _ratio_report(kind: str, terms: list[float], f: SeqFunction) -> DecompositionReport:
    num = float(sum(terms))
    den = lpb_norm(f) ** f.p
    ratio = 0.0 if den == 0.0 else num / den
    return DecompositionReport(kind, num, den, ratio, tuple(terms))


def verify_decomposition_inequalities(
    f: SeqFunction,
    which: str,
    *,
    levels: Sequence[int] | None = None,
    ts: IndexSequence | Sequence[int] | None = None,
) -> DecompositionReport:
    """Measure one of the three decomposition sums against lpb_norm(f)^p.

    which = "martingale": needs `levels`, strictly increasing >= 0; sums
        ||E_(n_(k+1)) f - E_(n_k) f||^p over consecutive levels.
    which = "average_vs_expectation": needs `ts` with t_k in [2^(k-1), 2^k)
        for k = 1, 2, ... (one index per dyadic band); sums
        ||A_(t_k) f - E_k f||^p.
    which = "short_increments": needs `ts` strictly increasing; sums
        ||A_(t_(i+1)) f - A_(t_i) f||^p over consecutive pairs that lie in a
        single band [2^(k-1), 2^k]. With strictly increasing indices the band
        is unique per pair; pairs spanning bands are skipped.
    """
    if which == "martingale":
        if levels is None:
            raise InvalidInputError("'martingale' needs `levels`")
        lvls = _integers(levels, "level", 0)
        if len(lvls) < 2 or any(b <= a for a, b in zip(lvls, lvls[1:])):
            raise InvalidInputError("levels must be >= 0, strictly increasing, length >= 2")
        exps = [conditional_expectation(f, n) for n in lvls]
        terms = [lpb_norm(b - a) ** f.p for a, b in zip(exps, exps[1:])]
        return _ratio_report(which, terms, f)

    if which == "average_vs_expectation":
        if ts is None:
            raise InvalidInputError("'average_vs_expectation' needs `ts`")
        terms = []
        for k, t in enumerate(IndexSequence(ts), start=1):
            if not (1 << (k - 1)) <= t < (1 << k):
                raise PreconditionError(
                    f"t_{k} = {t} outside its dyadic band [{1 << (k - 1)}, {1 << k})"
                )
            terms.append(lpb_norm(shift_average_at(f, t) - conditional_expectation(f, k)) ** f.p)
        return _ratio_report(which, terms, f)

    if which == "short_increments":
        if ts is None:
            raise InvalidInputError("'short_increments' needs `ts`")
        idx = list(IndexSequence(ts))
        terms = []
        for a, b in zip(idx, idx[1:]):
            k = max(b - 1, 1).bit_length()  # smallest k with b <= 2^k
            if a >= (1 << (k - 1)):  # both endpoints inside [2^(k-1), 2^k]
                terms.append(lpb_norm(shift_average_at(f, b) - shift_average_at(f, a)) ** f.p)
        return _ratio_report(which, terms, f)

    raise InvalidInputError(
        f"unknown check {which!r}; expected 'martingale', "
        "'average_vs_expectation', or 'short_increments'"
    )
