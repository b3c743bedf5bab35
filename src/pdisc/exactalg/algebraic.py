"""Real algebraic points.

A point is a pair of `AlgebraicCoord`s, the real algebraic numbers of
`pdisc.exactalg.roots`.  An irrational point also carries a rational
univariate representation (RUR; Rouillier 1999, *AAECC* 9):
x = X(a)/D(a), y = Y(a)/D(a) at one root a of a square-free s(u), a
held as an `AlgebraicCoord` of s.  Elimination produces it, and a point
with one rational coordinate has a trivial one.  Every sign at a point
(`AlgebraicPoint.sign`) is read first from an enclosure of the
polynomial over the box of the two coordinate intervals, which holds the
point since each interval isolates its coordinate: a box that excludes 0
decides the sign.  Only when it holds 0 is the sign decided from the
RUR: zero by the gcd of the image with s, a nonzero sign by refining a
alone.

Every enclosure here is one integer interval Horner scheme, `_horner`,
over an interval scaled to integer endpoints: of a univariate polynomial
over an interval, and of a bivariate one over a box, in y row by row and
then in x.  Every refinement of a runs through `roots.refinements`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from pdisc.exactalg.mpoly import MPoly
from pdisc.exactalg.roots import AlgebraicCoord, common_denominator, holds_root, refinements
from pdisc.exactalg.upoly import UPoly, linear_combination

# a closed interval (lo, hi) with rational endpoints
Enclosure = Tuple[Fraction, Fraction]


def _horner(coeffs: Sequence[Tuple[int, int]], e: Tuple[int, int, int]) -> Tuple[int, int]:
    """An enclosure of q^k * sum c_i t^i over t in [n/q, m/q], e = (n, m, q),
    for integer intervals c_i = (lo, hi) listed from i = 0 to k: interval
    Horner over the integers on q*t in [n, m], c_i scaled by q^(k-i)."""
    n, m, q = e
    lo = hi = 0
    qk = 1
    for c_lo, c_hi in reversed(coeffs):
        ends = (lo * n, lo * m, hi * n, hi * m)
        lo, hi = min(ends) + c_lo * qk, max(ends) + c_hi * qk
        qk *= q
    return lo, hi


def _enclosure(p: UPoly, r: AlgebraicCoord) -> Enclosure:
    """An enclosure of p over [r.lo, r.hi]: `_horner` on the primitive
    part of p, then the content and the power of the denominator."""
    e = common_denominator(r.lo, r.hi)
    ints = p.int_coeffs()
    lo, hi = _horner([(c, c) for c in ints], e)
    c = p.content
    scale = c.denominator * e[2] ** max(len(ints) - 1, 0)
    return Fraction(lo * c.numerator, scale), Fraction(hi * c.numerator, scale)


def box_sign(f: MPoly, xs: Enclosure, ys: Enclosure) -> int:
    """The sign of f over the box xs x ys; 0 when its enclosure holds 0.
    `_horner` in x over the enclosures of the coefficients of f in y,
    each padded to the degree in y so all share one power of its
    denominator; the content and those powers are positive, so the sign
    of the integer enclosure is the sign of f."""
    width = f.degree_in("y") + 1
    rows = [[0] * width for _ in range(f.degree_in("x") + 1)]
    for (i, j), c in f.int_terms():
        rows[i][j] = c
    ey = common_denominator(*ys)
    return _sign(_horner([_horner([(c, c) for c in row], ey) for row in rows], common_denominator(*xs)))


def _sign(e: Tuple[Fraction, Fraction] | Tuple[int, int]) -> int:
    """The sign on an enclosure (lo, hi); 0 when it holds 0."""
    return 1 if e[0] > 0 else -1 if e[1] < 0 else 0


def _quotient(n: Enclosure, d: Enclosure) -> Enclosure:
    """An enclosure of n / d, where d excludes 0."""
    q = [a / b for a in n for b in d]
    return min(q), max(q)


class Rur:
    """A rational univariate representation: the points
    x = X(a)/D(a), y = Y(a)/D(a) at the real roots a of the square-free
    `base` s(u), with D(a) != 0.  Points above the roots of one s share
    one object, so each polynomial's image under it is computed once, and
    the zero set of each image (its gcd with s) too."""

    def __init__(self, base: UPoly, X: UPoly, Y: UPoly, D: UPoly):
        self.base, self.X, self.Y, self.D = base, X, Y, D
        self._powers: Tuple[List[UPoly], ...] = ([UPoly.const(1)], [UPoly.const(1)], [UPoly.const(1)])
        self._images: Dict[MPoly, UPoly] = {}
        self._zeros: Dict[MPoly, UPoly] = {}

    def unsheared(self, t: int) -> "Rur":
        """The same points, read in (x, y) from the coordinates (x + t*y, y)."""
        return Rur(self.base, self.X - self.Y * t, self.Y, self.D)

    def _power(self, which: int, k: int) -> UPoly:
        table, f = self._powers[which], (self.X, self.Y, self.D)[which]
        while len(table) <= k:
            table.append(table[-1] * f % self.base)
        return table[k]

    def _image(self, f: MPoly) -> UPoly:
        """G = D^deg f * f(X/D, Y/D) mod s: summed over the integer terms
        of f, reduced by pseudo-division over the integers, and scaled by
        the content of f."""
        g = self._images.get(f)
        if g is None:
            d = f.degree
            g = linear_combination(
                (c, self._power(0, i) * self._power(1, j) * self._power(2, d - i - j))
                for (i, j), c in f.int_terms()
            )
            g = self._images[f] = (g % self.base) * f.content
        return g

    def sign(self, f: MPoly, a: AlgebraicCoord) -> int:
        """The exact sign of f at the point above the irrational root a of s."""
        g = self._image(f)
        if g.is_zero:
            return 0
        for r in refinements(a):
            # D(a) != 0, so once G(a) != 0 too both enclosures exclude 0 when narrow
            s_g, s_d = _sign(_enclosure(g, r)), _sign(_enclosure(self.D, r))
            if s_g and s_d:
                return s_g * s_d ** f.degree
            if f not in self._zeros:
                self._zeros[f] = g.gcd(self.base)
            if holds_root(self._zeros[f], r.lo, r.hi):
                return 0

    def quotient_boxes(self, a: AlgebraicCoord) -> Iterator[Optional[Tuple[Enclosure, Enclosure]]]:
        """Enclosures (lo, hi) of the coordinates of the point
        (X(a)/D(a), Y(a)/D(a)), one pair for each interval of
        refinements(a); None while the enclosure of D(a) holds zero."""
        for r in refinements(a):
            d = _enclosure(self.D, r)
            yield (_quotient(_enclosure(self.X, r), d), _quotient(_enclosure(self.Y, r), d)) if _sign(d) else None


@dataclass(frozen=True)
class AlgebraicPoint:
    """A real algebraic point.  An irrational one carries the
    representation it was built with and its root a, a coordinate whose
    polynomial is the representation's base."""

    x: AlgebraicCoord
    y: AlgebraicCoord
    rur: Optional[Tuple[Rur, AlgebraicCoord]] = field(default=None, compare=False)

    @property
    def is_exact(self) -> bool:
        return self.x.is_exact and self.y.is_exact

    def exact_pair(self) -> Tuple[Fraction, Fraction]:
        if not self.is_exact:
            raise ValueError("point is not exact")
        assert self.x.exact is not None and self.y.exact is not None
        return self.x.exact, self.y.exact

    def refined(self, width: Fraction) -> "AlgebraicPoint":
        """The point with both coordinate intervals refined to `width`;
        its RUR root is kept as it is."""
        return AlgebraicPoint(self.x.refined(width), self.y.refined(width), self.rur)

    def approx(self) -> Tuple[float, float]:
        return self.x.approx(), self.y.approx()

    def sign(self, f: MPoly) -> int:
        """The exact sign of f at the point: the sign of f over the box
        of the coordinate intervals when that excludes 0, which at an
        exact point it does unless f is 0 there; otherwise the sign read
        from the RUR, which decides 0."""
        s = box_sign(f, self.x.interval(), self.y.interval())
        if s or self.is_exact:
            return s
        if self.rur is None:
            raise ValueError("a point with an irrational coordinate needs its RUR")
        return self.rur[0].sign(f, self.rur[1])

    def compare(self, other: "AlgebraicPoint") -> int:
        """Exact three-way comparison in the lexicographic order, x first."""
        return self.x.compare(other.x) or self.y.compare(other.y)
