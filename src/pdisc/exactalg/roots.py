"""Real-root isolation for univariate rational polynomials.

Strategy: one Sturm chain and one bisection pass inside a window clipped
to the Cauchy root bound.  The chain is the signed primitive remainder
sequence of p and p' (`upoly.remainder_sequence`); its entries are
positive multiples of the entries over Q, so they have the same sign
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from pdisc.exactalg.upoly import UPoly, _homogeneous, remainder_sequence

_Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class RootInterval:
    """One isolated real root of a square-free polynomial.

    lo == hi == exact for roots known exactly; otherwise the open
    interval (lo, hi) contains exactly one root and the endpoints are
    not roots.
    """

    lo: Fraction
    hi: Fraction
    exact: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("root interval endpoints out of order")
        if self.exact is not None and not (self.lo <= self.exact <= self.hi):
            raise ValueError("exact root outside its interval")

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


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


def isolate_real_roots(p: UPoly) -> List[RootInterval]:
    """Disjoint isolating intervals for every distinct real root."""
    return squarefree_roots(p)[1]


def squarefree_roots(p: UPoly) -> Tuple[UPoly, List[RootInterval]]:
    """p / gcd(p, p'), made monic, and disjoint isolating intervals for
    its real roots; when p is square-free, one remainder sequence yields
    both."""
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    s, chain = p, sturm_chain(p)
    if chain[-1].degree > 0:  # gcd(p, p') is not constant
        s = p // chain[-1]
        chain = sturm_chain(s)
    bound = cauchy_bound(s)  # every root lies strictly inside (-bound, bound)
    n, d = bound.numerator, bound.denominator
    v_lo, v_hi = _variations(_signs(chain, -n, d)), _variations(_signs(chain, n, d))
    intervals: List[RootInterval] = []
    exact: List[Fraction] = []
    _bisect(chain, -n, n, d, (v_lo, False), (v_hi, False), intervals, exact)
    out = [RootInterval(lo=r, hi=r, exact=r) for r in exact]
    out += [_identify(s, ri) for ri in intervals]
    out.sort(key=lambda ri: (ri.lo, ri.hi))
    return s.monic(), out


def _bisect(
    chain: List[UPoly], a: int, b: int, q: int, at_a: Tuple[int, bool], at_b: Tuple[int, bool],
    found: List[RootInterval], exact: List[Fraction],
) -> None:
    """Collect the roots in the open interval (a/q, b/q): isolating
    intervals in `found`, midpoints that are roots in `exact`.  at_a and
    at_b hold each endpoint's sign variations and whether it is a root."""
    (v_a, a_root), (v_b, b_root) = at_a, at_b
    count = v_a - v_b - b_root
    if count <= 0:
        return
    if count == 1 and not (a_root or b_root):
        found.append(RootInterval(lo=Fraction(a, q), hi=Fraction(b, q)))
        return
    mid, q = a + b, 2 * q
    signs = _signs(chain, mid, q)
    at_mid = (_variations(signs), not signs[0])
    if not signs[0]:
        exact.append(Fraction(mid, q))
    _bisect(chain, 2 * a, mid, q, at_a, at_mid, found, exact)
    _bisect(chain, mid, 2 * b, q, at_mid, at_b, found, exact)


def _identify(s: UPoly, ri: RootInterval) -> RootInterval:
    """Refine an isolating interval of s until it holds at most one k/L;
    return the root exactly if that candidate is it."""
    lead = abs(s.int_coeffs()[-1])
    ri = refine_root(s, ri, Fraction(1, 2 * lead))
    if ri.is_exact:
        return ri
    candidate = Fraction(math.ceil(ri.lo * lead), lead)
    if candidate <= ri.hi and s.sign_at(candidate) == 0:
        return RootInterval(lo=candidate, hi=candidate, exact=candidate)
    return ri


def common_denominator(lo: Fraction, hi: Fraction) -> Tuple[int, int, int]:
    """Integers (n, m, q) with lo = n/q and hi = m/q, q the lcm of the
    two denominators."""
    q = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator), q


def refine_root(p: UPoly, ri: RootInterval, width: _Scalar) -> RootInterval:
    """Shrink an isolating interval of p to the given width: the interval
    bisection returns, or the root exactly when a bisection midpoint is
    one; p must be square-free (its own sign changes are read).  An
    interval already that narrow is returned as it is.

    Quadratic interval refinement on the bisection grid (Abbott 2006): a
    jump of k levels reads p at the grid point nearest the secant root of
    the endpoint values and at its neighbour on the root's side.  A
    bracket is a hit, and the next jump is twice as long; a miss takes
    one bisection step and halves the jump.  No jump passes the level
    where bisection stops, and a root at a grid point is read exactly."""
    if ri.is_exact or ri.width <= width:
        return ri
    # lo = a/q, hi = b/q, and point i of level k is (a*2^k + i*(b - a)) / (q*2^k).
    # A value at n/q is q^deg p(n/q): an endpoint's carries over to level k
    # times 2^(k*deg), and two over one q have p's ratio.  Bisection stops
    # at the least level L with (b - a) / (q 2^L) <= width.
    a, b, q = common_denominator(ri.lo, ri.hi)
    ratio = -(-(b - a) * width.denominator // (width.numerator * q))
    levels = (ratio - 1).bit_length()
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
                return _exact_root(n + j * w, d)
            i = j + 1 if (fj > 0) == (fa > 0) else j - 1
            fi = ends[i] if i in ends else _homogeneous(c, n + i * w, d)
            if not fi:
                return _exact_root(n + i * w, d)
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
            return _exact_root(mid, q)
        if (fm > 0) == (fa > 0):
            a, fa, fb = mid, fm, None if fb is None else fb << deg
        else:
            b, fa, fb = mid, fa << deg, fm
        levels -= 1
    return RootInterval(lo=Fraction(a, q), hi=Fraction(b, q))


def _exact_root(n: int, d: int) -> RootInterval:
    root = Fraction(n, d)
    return RootInterval(lo=root, hi=root, exact=root)
