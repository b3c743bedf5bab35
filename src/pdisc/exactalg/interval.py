"""Closed intervals with exact rational endpoints.

Used for residual certificates and sign resolution at algebraic points.
All operations return enclosures (never approximations).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from pdisc.exactalg.mpoly import MPoly

_Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, v: _Scalar) -> "Interval":
        v = Fraction(v)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, v: _Scalar) -> bool:
        return self.lo <= Fraction(v) <= self.hi

    def sign(self) -> Optional[int]:
        """-1, 0 (exact zero point), or +1; None when the sign is unresolved."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == 0 and self.hi == 0:
            return 0
        return None

    def __add__(self, other: Union["Interval", _Scalar]) -> "Interval":
        other = _coerce(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: Union["Interval", _Scalar]) -> "Interval":
        return self + (-_coerce(other))

    def __rsub__(self, other: _Scalar) -> "Interval":
        return (-self) + other

    def __mul__(self, other: Union["Interval", _Scalar]) -> "Interval":
        other = _coerce(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Interval", _Scalar]) -> "Interval":
        other = _coerce(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval divisor contains zero")
        return self * Interval(1 / other.hi, 1 / other.lo)

    def ipow(self, n: int) -> "Interval":
        if n < 0:
            raise ValueError("negative interval power")
        if n == 0:
            return Interval.point(1)
        if n % 2 == 1 or self.lo >= 0:
            return Interval(self.lo**n, self.hi**n)
        if self.hi <= 0:
            return Interval(self.hi**n, self.lo**n)
        # even power of an interval straddling zero
        return Interval(Fraction(0), max(self.lo**n, self.hi**n))

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _coerce(v: object) -> Interval:
    if isinstance(v, Interval):
        return v
    if isinstance(v, (int, Fraction)):
        return Interval.point(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Interval")


def eval_box(p: MPoly, ix: Interval, iy: Interval) -> Interval:
    """Enclosure of p over the box ix x iy."""
    total = Interval.point(0)
    if p.is_zero:
        return total
    # ipow keeps even powers tight when the box straddles zero
    xp = [ix.ipow(i) for i in range(int(p.degree_in("x")) + 1)]
    yp = [iy.ipow(j) for j in range(int(p.degree_in("y")) + 1)]
    for (i, j), c in p.items():
        total = total + xp[i] * yp[j] * c
    return total
