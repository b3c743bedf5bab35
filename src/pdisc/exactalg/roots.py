"""Real algebraic numbers and the isolation of real roots of univariate
rational polynomials.

`AlgebraicCoord` is the one type for a real algebraic number: a rational
is the interval lo == hi, and an irrational the open isolating interval
(lo, hi) of its root of a square-free polynomial.  Isolation returns its
roots as such coordinates, refinement takes and returns them, and every
comparison reads them through `refinements`.

Isolation first strips the power t^k from p's primitive integer
coefficients; when k > 0, 0 is a root.  When the cofactor q has degree
at most 2 and only rational real roots, they are read in closed form:
-q0/q1 for a line, and for a quadratic with D = q1^2 - 4 q2 q0 none when
D < 0, the double root -q1/(2 q2) when D = 0, and (-q1 -+ r)/(2 q2) when
D = r^2 > 0 for an integer r.  Every other p, one of degree >= 3 after
the strip or a quadratic whose discriminant is not a square, runs the
Sturm path below on p as it is.  Both paths return the same square-free
part and the same exact coordinates for a rational root, so the closed
form changes no result; it saves the chain, the bisection and the
refinement that the rational root theorem would need.

The Sturm path: one Sturm chain and one bisection pass inside a window
clipped to the Cauchy root bound.  The chain is the signed primitive
remainder sequence of p and p' (`upoly.remainder_sequence`); its entries
are positive multiples of the entries over Q, so they have the same sign
variations.  Its last entry is gcd(p, p'): only when that is not
constant is p replaced by its square-free part s = p / gcd(p, p') and
the chain built again.  `squarefree_roots` returns that square-free part
with the roots, so a caller that needs both runs the remainder sequence
of a square-free p once.  There is no deflation.  A bisection midpoint
that is a root is recorded exactly and bisection goes on: with zero
signs dropped, the number of sign variations V at a simple root equals V
just right of it, so (lo, hi) holds V(lo) - V(hi) roots, less one when
hi is a root, and an interval isolates a root only when neither endpoint
is a root.  For the other roots, the rational root theorem: a rational
root of s, as a primitive integer polynomial, is k/L for an integer k,
where L is its leading coefficient.  `refine_root` narrows each
isolating interval to width at most 1/(2L), so it holds at most one such
point, and that one candidate is tested for an exact zero.  A miss
proves the root irrational.

Everything runs on integers: bisection and refinement keep both
endpoints as integer numerators over one shared denominator and read
values at unreduced points by integer Horner.  Refinement jumps along
the bisection grid by secants (`refine_root`), far fewer evaluations
than one per bit, and returns the endpoints halving over Fraction gives.
Every other refinement runs through `refinements`, which narrows an
interval by a factor that squares at each step (4, 16, 256, ..., at
most 2^64), so the number of steps grows with the log of the bits a
decision needs, not with the bits themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple, Union

from pdisc.exactalg.upoly import UPoly, _homogeneous, remainder_sequence

_Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class AlgebraicCoord:
    """A real algebraic number: the rational lo when lo == hi, else the
    one root in the open interval (lo, hi) of the square-free `poly`,
    whose endpoints are not roots.  Isolation returns every rational
    root exactly, so an interval coordinate is irrational and no
    refinement of it meets the root.  `exact` is lo or None, set once;
    two coordinates are equal when their intervals are."""

    lo: Fraction
    hi: Fraction
    poly: Optional[UPoly] = field(default=None, compare=False)
    exact: Optional[Fraction] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.lo == self.hi:
            exact = self.lo
        elif self.lo < self.hi and self.poly is not None:
            exact = None
        else:
            raise ValueError("an interval coordinate needs lo < hi and its polynomial")
        object.__setattr__(self, "exact", exact)

    @staticmethod
    def of(value: _Scalar) -> "AlgebraicCoord":
        v = Fraction(value)
        return AlgebraicCoord(v, v)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def interval(self) -> Tuple[Fraction, Fraction]:
        return self.lo, self.hi

    def refined(self, width: Fraction) -> "AlgebraicCoord":
        return self if self.exact is not None else refine_root(self, width)

    def approx(self) -> float:
        if self.exact is not None:
            return float(self.exact)
        c = refine_root(self, Fraction(1, 2**60))
        return float((c.lo + c.hi) / 2)

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
        for r in refinements(self):
            if not r.lo < v < r.hi:
                # isolating endpoints are never roots, so the root is strictly inside
                return 1 if v <= r.lo else -1

    def _compare_irrational(self, other: "AlgebraicCoord") -> int:
        assert self.poly is not None and other.poly is not None
        g = None
        for a, b in zip(refinements(self), refinements(other)):
            if a.hi < b.lo:
                return -1
            if b.hi < a.lo:
                return 1
            if g is None:
                g = self.poly.gcd(other.poly)
            if holds_root(g, max(a.lo, b.lo), min(a.hi, b.hi)):
                # the overlap holds a common root; each interval isolates
                # exactly one root, so both coordinates equal it
                return 0

    def text(self) -> str:
        if self.exact is not None:
            return str(self.exact)
        return f"~{self.approx():.12g} (root of {self.poly})"


def refinements(a: AlgebraicCoord) -> Iterator[AlgebraicCoord]:
    """a, then a refined to 1/4, 1/16, 1/256, ... of the last width (the
    factor squared each time, capped at 2^64); a is irrational."""
    step = 4
    while True:
        yield a
        a = refine_root(a, a.width / step)
        step = min(step * step, 2**64)


def holds_root(g: UPoly, lo: Fraction, hi: Fraction) -> bool:
    """Whether g has a root in (lo, hi), where g divides a square-free
    polynomial with one root there and none at lo or hi: then g has at
    most that one root, a simple one, so a sign change finds it."""
    return g.degree >= 1 and g.sign_at(lo) != g.sign_at(hi)


def cauchy_bound(p: UPoly) -> Fraction:
    """All real roots of p lie in [-bound, bound]."""
    if p.is_zero:
        raise ValueError("zero polynomial has no root bound")
    c = p.int_coeffs()
    return 1 + Fraction(max((abs(v) for v in c[:-1]), default=0), abs(c[-1]))


def sturm_chain(p: UPoly) -> List[UPoly]:
    """p, p' and the negated remainders, each a primitive integer
    polynomial and a positive multiple of the Sturm chain entry over Q."""
    return remainder_sequence(p, p.diff())


def _signs(chain: List[UPoly], n: int, d: int) -> List[int]:
    return [q.sign_at_ratio(n, d) for q in chain]


def _variations(signs: List[int]) -> int:
    nonzero = [s for s in signs if s]
    return sum(a != b for a, b in zip(nonzero, nonzero[1:]))


def isolate_real_roots(p: UPoly) -> List[AlgebraicCoord]:
    """Every distinct real root, in increasing order, each with the
    square-free part of p as its polynomial."""
    return squarefree_roots(p)[1]


def squarefree_roots(p: UPoly) -> Tuple[UPoly, List[AlgebraicCoord]]:
    """p / gcd(p, p'), made monic, and its real roots in increasing
    order, each with that polynomial.  With t^k stripped from p, a
    cofactor of degree <= 2 with only rational real roots gives both in
    closed form, 0 included when k > 0; any other p takes the Sturm
    path, where one remainder sequence yields both when p is
    square-free."""
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    c = p.int_coeffs()
    k = next(i for i, v in enumerate(c) if v)
    closed = _closed_form(c[k:], k > 0)
    return closed if closed is not None else _sturm_roots(p)


def _closed_form(q: Tuple[int, ...], at_zero: bool) -> Optional[Tuple[UPoly, List[AlgebraicCoord]]]:
    """The square-free part and the roots of t^k * q, for k > 0 when
    `at_zero`, where q is a primitive integer polynomial with q(0) != 0;
    None when q has degree >= 3 or an irrational real root."""
    roots = [Fraction(0)] if at_zero else []
    if len(q) == 2:
        roots.append(Fraction(-q[0], q[1]))
    elif len(q) == 3:
        q0, q1, q2 = q
        disc = q1 * q1 - 4 * q2 * q0
        if disc == 0:
            q = (q1, 2 * q2)  # the square-free part keeps one factor of the double root
            roots.append(Fraction(-q1, 2 * q2))
        elif disc > 0:
            r = math.isqrt(disc)
            if r * r != disc:
                return None
            roots += [Fraction(-q1 - r, 2 * q2), Fraction(-q1 + r, 2 * q2)]
    elif len(q) > 3:
        return None
    s = UPoly(((0,) if at_zero else ()) + q).monic()
    return s, [AlgebraicCoord(r, r, s) for r in sorted(roots)]


def _sturm_roots(p: UPoly) -> Tuple[UPoly, List[AlgebraicCoord]]:
    """`squarefree_roots` by one Sturm chain of the square-free part, one
    bisection and `_identify` on each isolating interval."""
    s, chain = p, sturm_chain(p)
    if chain[-1].degree > 0:  # gcd(p, p') is not constant
        s = p // chain[-1]
        chain = sturm_chain(s)
    bound = cauchy_bound(s)  # every root lies strictly inside (-bound, bound)
    n, d = bound.numerator, bound.denominator
    v_lo, v_hi = _variations(_signs(chain, -n, d)), _variations(_signs(chain, n, d))
    found: List[Tuple[Fraction, Fraction]] = []
    _bisect(chain, -n, n, d, (v_lo, False), (v_hi, False), found)
    s = s.monic()
    return s, [_identify(AlgebraicCoord(lo, hi, s)) for lo, hi in found]


def _bisect(
    chain: List[UPoly], a: int, b: int, q: int, at_a: Tuple[int, bool], at_b: Tuple[int, bool],
    found: List[Tuple[Fraction, Fraction]],
) -> None:
    """Append the roots in the open interval (a/q, b/q) to `found` in
    increasing order: an isolating interval (lo, hi), or (r, r) for a
    midpoint r that is a root.  at_a and at_b hold each endpoint's sign
    variations and whether it is a root."""
    # the intervals still to search, the leftmost on top; an entry with
    # no endpoint data is a midpoint root a/q, appended when it is reached
    todo = [(a, b, q, at_a, at_b)]
    while todo:
        a, b, q, at_a, at_b = todo.pop()
        if at_a is None:
            root = Fraction(a, q)
            found.append((root, root))
            continue
        (v_a, a_root), (v_b, b_root) = at_a, at_b
        count = v_a - v_b - b_root
        if count <= 0:
            continue
        if count == 1 and not (a_root or b_root):
            found.append((Fraction(a, q), Fraction(b, q)))
            continue
        mid, q = a + b, 2 * q
        signs = _signs(chain, mid, q)
        at_mid = (_variations(signs), not signs[0])
        todo.append((mid, 2 * b, q, at_mid, at_b))
        if not signs[0]:
            todo.append((mid, mid, q, None, None))
        todo.append((2 * a, mid, q, at_a, at_mid))


def _identify(a: AlgebraicCoord) -> AlgebraicCoord:
    """Refine an isolating interval until it holds at most one k/L;
    return the root exactly if that candidate is it."""
    if a.exact is not None:
        return a
    s = a.poly
    lead = abs(s.int_coeffs()[-1])
    a = refine_root(a, Fraction(1, 2 * lead))
    if a.exact is not None:
        return a
    candidate = Fraction(math.ceil(a.lo * lead), lead)
    if candidate <= a.hi and s.sign_at(candidate) == 0:
        return AlgebraicCoord(candidate, candidate, s)
    return a


def common_denominator(lo: Fraction, hi: Fraction) -> Tuple[int, int, int]:
    """Integers (n, m, q) with lo = n/q and hi = m/q, q the lcm of the
    two denominators."""
    q = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator), q


def refine_root(coord: AlgebraicCoord, width: _Scalar) -> AlgebraicCoord:
    """Shrink the interval of a coordinate to the given width, keeping
    its polynomial: the interval bisection returns, or the root exactly
    when a bisection midpoint is one.  An exact coordinate, or an
    interval already that narrow, is returned as it is.

    Quadratic interval refinement on the bisection grid (Abbott 2006): a
    jump of k levels reads p at the grid point nearest the secant root of
    the endpoint values and at its neighbour on the root's side.  A
    bracket is a hit, and the next jump is twice as long; a miss takes
    one bisection step and halves the jump.  No jump passes the level
    where bisection stops, and a root at a grid point is read exactly."""
    if coord.width <= width:  # an exact coordinate has width 0
        return coord
    # lo = a/q, hi = b/q, and point i of level k is (a*2^k + i*(b - a)) / (q*2^k).
    # A value at n/q is q^deg p(n/q): an endpoint's carries over to level k
    # times 2^(k*deg), and two over one q have p's ratio.  Bisection stops
    # at the least level L with (b - a) / (q 2^L) <= width.
    a, b, q = common_denominator(coord.lo, coord.hi)
    ratio = -(-(b - a) * width.denominator // (width.numerator * q))
    levels = (ratio - 1).bit_length()
    p = coord.poly
    c = p.int_coeffs()
    deg = len(c) - 1
    fa, fb = _homogeneous(c, a, q), None  # fb is read when a jump first needs it
    jump = 1
    while levels:
        k = min(jump, levels)
        if k > 1:
            if fb is None:
                fb = _homogeneous(c, b, q)
            n, d, w = a << k, q << k, b - a
            ends = {0: fa << (k * deg), 1 << k: fb << (k * deg)}
            j = ((fa << (k + 1)) + fa - fb) // (2 * (fa - fb))  # round(2^k fa / (fa - fb))
            fj = ends[j] if j in ends else _homogeneous(c, n + j * w, d)
            if not fj:
                a = b = n + j * w
                q = d
                break
            i = j + 1 if (fj > 0) == (fa > 0) else j - 1
            fi = ends[i] if i in ends else _homogeneous(c, n + i * w, d)
            if not fi:
                a = b = n + i * w
                q = d
                break
            if (fi > 0) != (fj > 0):
                e = min(i, j)
                a, b, q = n + e * w, n + (e + 1) * w, d
                fa, fb = (fj, fi) if j < i else (fi, fj)
                levels -= k
                jump *= 2
                continue
            jump //= 2
        else:
            jump *= 2
        mid = a + b
        a, b, q = 2 * a, 2 * b, 2 * q
        fm = _homogeneous(c, mid, q)
        if not fm:
            a = b = mid
            break
        if (fm > 0) == (fa > 0):
            a, fa, fb = mid, fm, None if fb is None else fb << deg
        else:
            b, fa, fb = mid, fa << deg, fm
        levels -= 1
    # a == b after a break: a grid point is the root
    lo = Fraction(a, q)
    return AlgebraicCoord(lo, lo if a == b else Fraction(b, q), p)
