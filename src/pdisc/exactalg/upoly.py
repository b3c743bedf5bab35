"""Dense univariate polynomials over Fraction.

Plumbing for resultant byproducts and root isolation: euclidean
division, gcd, square-free part, Sturm-chain building blocks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple, Union

from pdisc.exactalg.mpoly import NEG_INF, Degree

_Scalar = Union[int, Fraction]


class UPoly:
    """Immutable dense univariate polynomial; coeffs[k] multiplies t^k."""

    __slots__ = ("_c", "_ints")

    def __init__(self, coeffs: Iterable[_Scalar] = ()):
        c = [Fraction(v) for v in coeffs]
        while c and not c[-1]:
            c.pop()
        self._c: Tuple[Fraction, ...] = tuple(c)
        self._ints: Optional[Tuple[int, ...]] = None

    @classmethod
    def zero(cls) -> "UPoly":
        return cls(())

    @classmethod
    def const(cls, v: _Scalar) -> "UPoly":
        return cls((Fraction(v),))

    @classmethod
    def variable(cls) -> "UPoly":
        return cls((0, 1))

    @classmethod
    def from_roots(cls, roots: Sequence[_Scalar]) -> "UPoly":
        p = cls.const(1)
        for r in roots:
            p = p * cls((-Fraction(r), 1))
        return p

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return self._c

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def degree(self) -> Degree:
        if not self._c:
            return NEG_INF
        return len(self._c) - 1

    def leading_coeff(self) -> Fraction:
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._c[-1]

    def int_coeffs(self) -> Tuple[int, ...]:
        """The coefficients times the lcm of their denominators: a positive
        multiple of the polynomial over the integers."""
        if self._ints is None:
            den = math.lcm(*(c.denominator for c in self._c))
            self._ints = tuple(c.numerator * (den // c.denominator) for c in self._c)
        return self._ints

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self._c):
            return self._c[k]
        return Fraction(0)

    def monic(self) -> "UPoly":
        if not self._c:
            return self
        lc = self._c[-1]
        if lc == 1:
            return self
        return UPoly(v / lc for v in self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UPoly):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == UPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __add__(self, other: Union["UPoly", _Scalar]) -> "UPoly":
        other = _coerce(other)
        n = max(len(self._c), len(other._c))
        return UPoly(self.coeff(k) + other.coeff(k) for k in range(n))

    __radd__ = __add__

    def __neg__(self) -> "UPoly":
        return UPoly(-v for v in self._c)

    def __sub__(self, other: Union["UPoly", _Scalar]) -> "UPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: _Scalar) -> "UPoly":
        return (-self) + other

    def __mul__(self, other: Union["UPoly", _Scalar]) -> "UPoly":
        if isinstance(other, (int, Fraction)):
            return UPoly(v * Fraction(other) for v in self._c)
        if not isinstance(other, UPoly):
            return NotImplemented
        if not self._c or not other._c:
            return UPoly.zero()
        out = [Fraction(0)] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            if not a:
                continue
            for j, b in enumerate(other._c):
                out[i + j] += a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = UPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divmod(self, divisor: "UPoly") -> Tuple["UPoly", "UPoly"]:
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        r = list(self._c)
        d = divisor._c
        dn = len(d) - 1
        lc = d[-1]
        if len(r) <= dn:
            return UPoly.zero(), self
        q = [Fraction(0)] * (len(r) - dn)
        for k in range(len(r) - 1, dn - 1, -1):
            coef = r[k]
            if not coef:
                continue
            qc = coef / lc
            q[k - dn] = qc
            for idx in range(dn + 1):
                r[k - dn + idx] -= qc * d[idx]
        return UPoly(q), UPoly(r)

    def __floordiv__(self, other: "UPoly") -> "UPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UPoly") -> "UPoly":
        return self.divmod(other)[1]

    def diff(self) -> "UPoly":
        return UPoly(self._c[k] * k for k in range(1, len(self._c)))

    def gcd(self, other: "UPoly") -> "UPoly":
        """Monic greatest common divisor (1 for coprime, 0 only for gcd(0,0)),
        by a primitive pseudo-remainder sequence over the integers."""
        a, b = _primitive(self.int_coeffs()), _primitive(other.int_coeffs())
        while b:
            a, b = b, _primitive(_pseudo_remainder(a, b))
        return UPoly(a).monic()

    def squarefree_part(self) -> "UPoly":
        """self / gcd(self, self'), made monic; same real roots, all simple."""
        if self.is_zero:
            return self
        if self.degree == 0:
            return UPoly.const(1)
        g = self.gcd(self.diff())
        q, r = self.divmod(g)
        if not r.is_zero:  # gcd divides exactly by construction
            raise ArithmeticError("square-free reduction failed")
        return q.monic()

    def eval(self, t: _Scalar) -> Fraction:
        t = Fraction(t)
        acc = Fraction(0)
        for c in reversed(self._c):
            acc = acc * t + c
        return acc

    def sign_at(self, t: _Scalar) -> int:
        """The sign of the value at t = n/d, read from the integer
        d^deg * (a positive multiple of self)(n/d)."""
        t = Fraction(t)
        n, d = t.numerator, t.denominator
        acc, dk = 0, 1
        for c in reversed(self.int_coeffs()):
            acc = acc * n + c * dk
            dk *= d
        return (acc > 0) - (acc < 0)

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for k in range(len(self._c) - 1, -1, -1):
            c = self._c[k]
            if not c:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{k}" if c != 1 else f"t^{k}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"UPoly({self})"


def _coerce(v: object) -> "UPoly":
    if isinstance(v, UPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return UPoly.const(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to UPoly")


def _primitive(c: Sequence[int]) -> Tuple[int, ...]:
    g = math.gcd(*c)
    return tuple(v // g for v in c) if g > 1 else tuple(c)


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list:
    """A nonzero integer multiple of a mod b, for integer coefficient lists."""
    r, lead, db = list(a), b[-1], len(b) - 1
    while len(r) > db:
        c, shift = r[-1], len(r) - 1 - db
        r = [v * lead for v in r]
        for i, v in enumerate(b):
            r[shift + i] -= c * v
        while r and not r[-1]:
            r.pop()
    return r
