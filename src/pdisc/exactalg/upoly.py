"""Dense univariate polynomials over Q, stored over Z.

A polynomial is content * prim: `prim` is a primitive tuple of Python
ints (coefficient gcd 1; prim[k] multiplies t^k) and `content` a positive
Fraction, so prim is a positive multiple of the polynomial and every sign
is read from integers.  The representation is canonical, so equality
compares the pair, and a univariate MPoly's integers and content are
carried over as they are.  Products multiply the integer tuples and the
contents (a product of primitive polynomials is primitive, by Gauss's lemma).
Euclidean division keeps its meaning over Q but runs as pseudo-division
over Z, scaling by only as much of the divisor's leading coefficient as
each step needs and tracking that factor exactly.  One signed primitive
pseudo-remainder sequence (Brown & Traub 1971), `remainder_sequence`,
gives the gcd and the Sturm chains of `exactalg.roots`, whose last
entry also yields the square-free part: its entries are primitive integer polynomials, each a
positive multiple of the matching entry of the sequence over Q, so no
rational content is carried through it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

from pdisc.exactalg.mpoly import MPoly

_Scalar = Union[int, Fraction]
_ZERO = Fraction(0)
_ONE = Fraction(1)


class UPoly:
    """Immutable dense univariate polynomial content * sum prim[k] t^k."""

    __slots__ = ("_p", "_c")

    def __init__(self, coeffs: Iterable[_Scalar] = ()):
        c = list(coeffs)
        den = math.lcm(*(v.denominator for v in c))
        self._p, self._c = _normalize([v.numerator * (den // v.denominator) for v in c], Fraction(1, den))

    @classmethod
    def _make(cls, prim: Tuple[int, ...], content: Fraction) -> "UPoly":
        obj = object.__new__(cls)
        obj._p, obj._c = prim, content
        return obj

    @classmethod
    def _from_ints(cls, ints: List[int], scale: Fraction) -> "UPoly":
        """The polynomial scale * sum ints[k] t^k."""
        return cls._make(*_normalize(ints, scale))

    @classmethod
    def zero(cls) -> "UPoly":
        return cls._make((), _ZERO)

    @classmethod
    def const(cls, v: _Scalar) -> "UPoly":
        return cls((v,))

    @classmethod
    def variable(cls) -> "UPoly":
        return cls._make((0, 1), _ONE)

    @classmethod
    def from_mpoly(cls, p: MPoly, var: str) -> "UPoly":
        """p as a polynomial in `var`; p must not involve the other variable.
        A univariate MPoly's primitive ints and content are the UPoly's."""
        return cls._make(tuple(p.univariate_ints(var)), p.content)

    @property
    def content(self) -> Fraction:
        """The positive rational c with self = c * int_coeffs(); 0 for 0."""
        return self._c

    @property
    def is_zero(self) -> bool:
        return not self._p

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self._p) - 1

    def int_coeffs(self) -> Tuple[int, ...]:
        """The primitive integer coefficients: a positive multiple of the
        polynomial over the integers."""
        return self._p

    def monic(self) -> "UPoly":
        if not self._p:
            return self
        lc = self._p[-1]
        prim = self._p if lc > 0 else tuple(-v for v in self._p)
        return UPoly._make(prim, Fraction(1, abs(lc)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UPoly):
            return self._p == other._p and self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == UPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._p, self._c))

    def __bool__(self) -> bool:
        return bool(self._p)

    def __add__(self, other: Union["UPoly", _Scalar]) -> "UPoly":
        other = _coerce(other)
        if not other._p:
            return self
        if not self._p:
            return other
        return linear_combination(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self) -> "UPoly":
        return UPoly._make(tuple(-v for v in self._p), self._c)

    def __sub__(self, other: Union["UPoly", _Scalar]) -> "UPoly":
        return self + (-_coerce(other))

    def __mul__(self, other: Union["UPoly", _Scalar]) -> "UPoly":
        if isinstance(other, (int, Fraction)):
            if not other or not self._p:
                return UPoly.zero()
            c = self._c * other
            return UPoly._make(self._p, c) if c > 0 else UPoly._make(tuple(-v for v in self._p), -c)
        if not isinstance(other, UPoly):
            return NotImplemented
        a, b = self._p, other._p
        if not a or not b:
            return UPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return UPoly._make(tuple(out), self._c * other._c)

    __rmul__ = __mul__

    def divmod(self, divisor: "UPoly") -> Tuple["UPoly", "UPoly"]:
        """Quotient and remainder over Q.  With m * A = Q * B + R over Z
        for the primitive parts, self = (cA / (cB * m)) Q * divisor + (cA / m) R."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if len(self._p) < len(divisor._p):
            return UPoly.zero(), self
        q, r, m = _pseudo_divmod(self._p, divisor._p)
        return UPoly._from_ints(q, self._c / (divisor._c * m)), UPoly._from_ints(r, self._c / m)

    def __floordiv__(self, other: "UPoly") -> "UPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UPoly") -> "UPoly":
        return self.divmod(other)[1]

    def diff(self) -> "UPoly":
        return UPoly._from_ints([k * v for k, v in enumerate(self._p)][1:], self._c)

    def gcd(self, other: "UPoly") -> "UPoly":
        """Monic greatest common divisor (1 for coprime, 0 only for gcd(0,0)),
        by a primitive pseudo-remainder sequence over the integers."""
        a, b = (self, other) if len(self._p) >= len(other._p) else (other, self)
        seq = remainder_sequence(a, b)
        return seq[-1].monic() if seq else UPoly.zero()

    def sign_at(self, t: _Scalar) -> int:
        """The sign of the value at t."""
        t = Fraction(t)
        return self.sign_at_ratio(t.numerator, t.denominator)

    def sign_at_ratio(self, n: int, d: int) -> int:
        """The sign of the value at n/d for d > 0, not necessarily in
        lowest terms: the sign of d^deg * prim(n/d), by integer Horner."""
        v = _homogeneous(self._p, n, d)
        return (v > 0) - (v < 0)

    def __str__(self) -> str:
        """Descending powers of t, unit coefficients left out: t^2 - t - 1."""
        out = ""
        cn, cd = self._c.numerator, self._c.denominator
        for k in range(len(self._p) - 1, -1, -1):
            c = self._p[k]
            if not c:
                continue
            # cn * |c| / cd in lowest terms with one gcd, as str(Fraction) writes it
            g = math.gcd(c, cd)
            num, den = cn * abs(c) // g, cd // g
            mag = f"{num}/{den}" if den != 1 else f"{num}"
            body = mag if k == 0 else ("" if mag == "1" else f"{mag}*") + ("t" if k == 1 else f"t^{k}")
            if out:
                out += (" - " if c < 0 else " + ") + body
            else:
                out = ("-" if c < 0 else "") + body
        return out or "0"

    def __repr__(self) -> str:
        return f"UPoly({self})"


def remainder_sequence(a: UPoly, b: UPoly) -> List[UPoly]:
    """a, b and the negated remainders -(a mod b), ... down to gcd(a, b),
    each as its primitive integer part, a positive multiple of the entry
    over Q; deg a >= deg b.  Zero entries are left out."""
    seq = [UPoly._make(p._p, _ONE) for p in (a, b) if p._p]
    while len(seq) > 1:
        r = _pseudo_divmod(seq[-2]._p, seq[-1]._p)[1]
        if not r:
            break
        g = math.gcd(*r)
        seq.append(UPoly._make(tuple(-v // g for v in r), _ONE))
    return seq


def linear_combination(terms: Iterable[Tuple[_Scalar, UPoly]]) -> UPoly:
    """sum c * p over the (c, p) terms: the integer tuples are added over
    one common denominator and the content is extracted once."""
    weighted = [(Fraction(c) * p._c, p._p) for c, p in terms if c and p._p]
    if not weighted:
        return UPoly.zero()
    den = math.lcm(*(w.denominator for w, _ in weighted))
    out = [0] * max(len(p) for _, p in weighted)
    for w, p in weighted:
        k = w.numerator * (den // w.denominator)
        for i, v in enumerate(p):
            out[i] += k * v
    return UPoly._from_ints(out, Fraction(1, den))


def _coerce(v: object) -> "UPoly":
    if isinstance(v, UPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return UPoly.const(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to UPoly")


def _normalize(ints: List[int], scale: Fraction) -> Tuple[Tuple[int, ...], Fraction]:
    """(prim, content) of the polynomial scale * sum ints[k] t^k."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints or not scale:
        return (), _ZERO
    g = math.gcd(*ints)
    if scale.numerator < 0:
        g = -g
    if g == 1:
        return tuple(ints), scale
    return tuple(v // g for v in ints), scale * g


def _homogeneous(c: Sequence[int], n: int, d: int) -> int:
    """sum c[k] n^k d^(deg-k): d^deg times the polynomial at n/d."""
    acc, dk = 0, 1
    for v in reversed(c):
        acc = acc * n + v * dk
        dk *= d
    return acc


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int], int]:
    """(q, r, m) with m * a = q * b + r, deg r < deg b and m a positive
    integer, for integer coefficient lists with len(a) >= len(b).  Each
    step scales by only the part of the leading coefficient of b that the
    current leading coefficient of the remainder lacks; r is stripped of
    trailing zeros."""
    r, lead, db = list(a), b[-1], len(b) - 1
    q, m = [0] * (len(a) - db), 1
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k]
        if not c:
            continue
        s = abs(lead) // math.gcd(c, lead)
        if s != 1:
            for i in range(k + 1):
                r[i] *= s
            for i in range(k - db + 1, len(q)):
                q[i] *= s
            m *= s
        qc = r[k] // lead
        q[k - db] = qc
        for i, v in enumerate(b):
            r[k - db + i] -= qc * v
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return q, r, m
