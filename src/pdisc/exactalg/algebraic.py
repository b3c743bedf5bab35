"""Real algebraic numbers and points.

A coordinate is an exact rational, or a square-free defining polynomial
plus an isolating interval, refinable on demand.  An irrational point
also carries a rational univariate representation (RUR; Rouillier 1999,
*AAECC* 9): x = X(a)/D(a), y = Y(a)/D(a) at one root a of a square-free
s(u).  Elimination produces it, and a point with one rational coordinate
has a trivial one.  Every sign at the point is decided exactly from it:
zero by a gcd with s, a nonzero sign by refining a alone.

Every refinement here runs through `refinements`, which narrows an
isolating interval to a quarter of its width at each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple, Union

from pdisc.exactalg.interval import Interval
from pdisc.exactalg.mpoly import MPoly
from pdisc.exactalg.roots import RootInterval, refine_root
from pdisc.exactalg.upoly import UPoly, linear_combination


def refinements(s: UPoly, a: RootInterval) -> Iterator[RootInterval]:
    """a, then a refined to a quarter of its width, again and again; a
    isolates an irrational root of the square-free s."""
    while True:
        yield a
        a = refine_root(s, a, a.width / 4)


@dataclass(frozen=True)
class AlgebraicCoord:
    """A real algebraic number: exact rational, or a square-free
    defining polynomial with an isolating interval.  isolate_real_roots
    returns every rational root exactly, so an interval coordinate is
    irrational and no refinement of it meets the root."""

    exact: Optional[Fraction] = None
    poly: Optional[UPoly] = None
    root: Optional[RootInterval] = None

    def __post_init__(self) -> None:
        if self.exact is None:
            if self.poly is None or self.root is None:
                raise ValueError("interval coordinate needs poly and root")
            if self.root.exact is not None:
                object.__setattr__(self, "exact", self.root.exact)
        elif not isinstance(self.exact, Fraction):
            object.__setattr__(self, "exact", Fraction(self.exact))

    @staticmethod
    def of(value: Union[int, Fraction]) -> "AlgebraicCoord":
        return AlgebraicCoord(exact=Fraction(value))

    @staticmethod
    def from_root(poly: UPoly, root: RootInterval) -> "AlgebraicCoord":
        """The root isolated by `root` of `poly`, which must be square-free
        (as `squarefree_part` returns it): it is stored as given."""
        if root.exact is not None:
            return AlgebraicCoord(exact=root.exact)
        return AlgebraicCoord(poly=poly, root=root)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def interval(self) -> Interval:
        if self.exact is not None:
            return Interval.point(self.exact)
        assert self.root is not None
        return Interval(self.root.lo, self.root.hi)

    def refined(self, width: Fraction) -> "AlgebraicCoord":
        if self.exact is not None:
            return self
        assert self.poly is not None and self.root is not None
        return AlgebraicCoord(poly=self.poly, root=refine_root(self.poly, self.root, width))

    def approx(self) -> float:
        if self.exact is not None:
            return float(self.exact)
        c = self.refined(Fraction(1, 2**60))
        assert c.root is not None
        return float((c.root.lo + c.root.hi) / 2)

    def sign(self) -> int:
        """Exact sign; zero only for the exact rational 0."""
        return self.compare(AlgebraicCoord.of(0))

    def compare(self, other: "AlgebraicCoord") -> int:
        """Exact three-way comparison."""
        if self.exact is not None and other.exact is not None:
            return (self.exact > other.exact) - (self.exact < other.exact)
        if self.exact is not None:
            return -other._compare_to_rational(self.exact)
        if other.exact is not None:
            return self._compare_to_rational(other.exact)
        return self._compare_irrational(other)

    def _compare_to_rational(self, v: Fraction) -> int:
        assert self.poly is not None and self.root is not None
        for r in refinements(self.poly, self.root):
            if not r.lo < v < r.hi:
                # isolating endpoints are never roots, so the root is strictly inside
                return 1 if v <= r.lo else -1

    def _compare_irrational(self, other: "AlgebraicCoord") -> int:
        assert self.poly is not None and self.root is not None
        assert other.poly is not None and other.root is not None
        g = self.poly.gcd(other.poly)
        for a, b in zip(refinements(self.poly, self.root), refinements(other.poly, other.root)):
            if a.hi < b.lo:
                return -1
            if b.hi < a.lo:
                return 1
            if holds_root(g, max(a.lo, b.lo), min(a.hi, b.hi)):
                # the overlap holds a common root; each interval isolates
                # exactly one root, so both coordinates equal it
                return 0

    def text(self) -> str:
        if self.exact is not None:
            return str(self.exact)
        return f"~{self.approx():.12g} (root of {self.poly})"


def holds_root(g: UPoly, lo: Fraction, hi: Fraction) -> bool:
    """Whether g has a root in (lo, hi), where g divides a square-free
    polynomial with one root there and none at lo or hi: then g has at
    most that one root, a simple one, so a sign change finds it."""
    return g.degree >= 1 and g.sign_at(lo) != g.sign_at(hi)


def _enclosure(p: UPoly, r: RootInterval) -> Interval:
    """An enclosure of p over [r.lo, r.hi] = [n/q, m/q]: interval Horner
    over the integers on q^deg times the primitive part of p, then the
    content."""
    q = math.lcm(r.lo.denominator, r.hi.denominator)
    n, m = int(r.lo * q), int(r.hi * q)
    lo = hi = 0
    qk = 1
    for c in reversed(p.int_coeffs()):
        ends = (lo * n, lo * m, hi * n, hi * m)
        lo, hi = min(ends) + c * qk, max(ends) + c * qk
        qk *= q
    c = p.content
    scale = c.denominator * q ** max(len(p.int_coeffs()) - 1, 0)
    return Interval(Fraction(lo * c.numerator, scale), Fraction(hi * c.numerator, scale))


class Rur:
    """A rational univariate representation: the points
    x = X(a)/D(a), y = Y(a)/D(a) at the real roots a of the square-free
    `base` s(u), with D(a) != 0.  Points above the roots of one s share
    one object, so each polynomial's image under it is computed once."""

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
            d = int(f.degree)
            g = linear_combination(
                (c, self._power(0, i) * self._power(1, j) * self._power(2, d - i - j))
                for (i, j), c in f.int_terms()
            )
            g = self._images[f] = (g % self.base) * f.content
        return g

    def sign(self, f: MPoly, a: RootInterval) -> int:
        """The exact sign of f at the point above the irrational root a of s."""
        g = self._image(f)
        if g.is_zero:
            return 0
        for r in refinements(self.base, a):
            # D(a) != 0, so once G(a) != 0 too both enclosures exclude 0 when narrow
            s_g, s_d = _enclosure(g, r).sign(), _enclosure(self.D, r).sign()
            if s_g and s_d:
                return s_g * s_d ** int(f.degree)
            if f not in self._zeros:
                self._zeros[f] = g.gcd(self.base)
            if holds_root(self._zeros[f], r.lo, r.hi):
                return 0

    def quotient_boxes(self, a: RootInterval) -> Iterator[Optional[Tuple[Interval, Interval]]]:
        """Enclosures of the point (X(a)/D(a), Y(a)/D(a)), one for each
        interval of refinements(s, a); None while the enclosure of D(a)
        holds zero."""
        for r in refinements(self.base, a):
            d = _enclosure(self.D, r)
            yield None if d.lo <= 0 <= d.hi else (_enclosure(self.X, r) / d, _enclosure(self.Y, r) / d)


def _trivial_rur(x: AlgebraicCoord, y: AlgebraicCoord) -> Optional[Tuple[Rur, RootInterval]]:
    """The representation u = the irrational coordinate, for a point
    whose other coordinate is rational; None for any other point."""
    if x.exact is None and y.exact is not None:
        return Rur(x.poly, UPoly.variable(), UPoly.const(y.exact), UPoly.const(1)), x.root
    if y.exact is None and x.exact is not None:
        return Rur(y.poly, UPoly.const(x.exact), UPoly.variable(), UPoly.const(1)), y.root
    return None


@dataclass(frozen=True)
class AlgebraicPoint:
    """A real algebraic point.  An irrational one carries its
    representation and the interval of its root a: the one it was built
    with, or the trivial one when the other coordinate is rational."""

    x: AlgebraicCoord
    y: AlgebraicCoord
    rur: Optional[Tuple[Rur, RootInterval]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.rur is None:
            object.__setattr__(self, "rur", _trivial_rur(self.x, self.y))

    @staticmethod
    def rational(x: Union[int, Fraction], y: Union[int, Fraction]) -> "AlgebraicPoint":
        return AlgebraicPoint(AlgebraicCoord.of(x), AlgebraicCoord.of(y))

    @property
    def is_exact(self) -> bool:
        return self.x.is_exact and self.y.is_exact

    def exact_pair(self) -> Tuple[Fraction, Fraction]:
        if not self.is_exact:
            raise ValueError("point is not exact")
        assert self.x.exact is not None and self.y.exact is not None
        return self.x.exact, self.y.exact

    def box(self) -> Tuple[Interval, Interval]:
        return self.x.interval(), self.y.interval()

    def refined(self, width: Fraction) -> "AlgebraicPoint":
        rur = None if self.rur is None else (self.rur[0], refine_root(self.rur[0].base, self.rur[1], width))
        return AlgebraicPoint(self.x.refined(width), self.y.refined(width), rur)

    def approx(self) -> Tuple[float, float]:
        return self.x.approx(), self.y.approx()

    def compare(self, other: "AlgebraicPoint") -> int:
        """Exact three-way comparison in the lexicographic order, x first."""
        return self.x.compare(other.x) or self.y.compare(other.y)
