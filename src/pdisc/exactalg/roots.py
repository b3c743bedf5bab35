"""Real-root isolation for univariate rational polynomials.

Strategy: reduce to the square-free part, then Sturm-sequence bisection
inside a window clipped to the Cauchy root bound.  Every rational root
is recovered exactly.  Bisection midpoints that happen to hit a root
deflate the polynomial.  For the rest, the rational root theorem: a
rational root of the primitive integer multiple of s is k/L for an
integer k, where L is its leading coefficient.  Each isolating interval
is refined to width at most 1/(2L), so it holds at most one such point,
and that one candidate is tested for an exact zero.  A miss proves the
root irrational.

Everything runs on the primitive integer coefficients of `UPoly`: the
Sturm chain is built by pseudo-division over Z, and refinement keeps
both endpoints as integer numerators over one shared denominator,
doubling all three at each halving and reading the sign at the
unreduced midpoint by integer Horner.  The endpoints it returns are the
ones halving over Fraction gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from pdisc.exactalg.upoly import UPoly

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
    chain = [p, p.diff()]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def sign_variations(chain: List[UPoly], t: Fraction) -> int:
    signs = [s for s in (q.sign_at(t) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def isolate_real_roots(p: UPoly) -> List[RootInterval]:
    """Disjoint isolating intervals for every distinct real root."""
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    s = p.squarefree_part()
    bound = cauchy_bound(s)  # every root lies strictly inside (-bound, bound)
    exact_roots: List[Fraction] = []
    # deflate-and-restart loop; each pass either finishes or removes one rational root
    while True:
        chain = sturm_chain(s)
        intervals: List[Tuple[Fraction, Fraction]] = []
        v_lo, v_hi = sign_variations(chain, -bound), sign_variations(chain, bound)
        hit = _bisect(s, chain, -bound, bound, v_lo, v_hi, intervals)
        if hit is None:
            break
        exact_roots.append(hit)
        s = s // UPoly((-hit, 1))

    out: List[RootInterval] = []
    for r in exact_roots:
        out.append(RootInterval(lo=r, hi=r, exact=r))
    for a, b in intervals:
        out.append(_identify(s, a, b, exact_roots))
    out.sort(key=lambda ri: (ri.lo, ri.hi))
    return out


def _bisect(
    s: UPoly,
    chain: List[UPoly],
    lo: Fraction,
    hi: Fraction,
    v_lo: int,
    v_hi: int,
    found: List[Tuple[Fraction, Fraction]],
) -> Optional[Fraction]:
    """Collect isolating intervals for roots in (lo, hi); return a midpoint
    that turned out to be an exact root (caller deflates and restarts)."""
    count = v_lo - v_hi
    if count <= 0:
        return None
    if count == 1:
        found.append((lo, hi))
        return None
    mid = (lo + hi) / 2
    if s.sign_at(mid) == 0:
        return mid
    v_mid = sign_variations(chain, mid)
    hit = _bisect(s, chain, lo, mid, v_lo, v_mid, found)
    if hit is not None:
        return hit
    return _bisect(s, chain, mid, hi, v_mid, v_hi, found)


def _identify(s: UPoly, lo: Fraction, hi: Fraction, deflated: List[Fraction]) -> RootInterval:
    """Refine an isolating interval of s until it holds at most one k/L
    and none of the rational roots deflated from s, so it isolates the
    root for the undeflated polynomial too; return the root exactly if
    that candidate is it."""
    lead = abs(s.int_coeffs()[-1])
    lo, hi = _refine_interval(s, lo, hi, Fraction(1, 2 * lead))
    while lo != hi and any(lo <= r <= hi for r in deflated):
        lo, hi = _refine_interval(s, lo, hi, (hi - lo) / 2)
    if lo == hi:
        return RootInterval(lo=lo, hi=hi, exact=lo)
    candidate = Fraction(math.ceil(lo * lead), lead)
    if candidate <= hi and s.sign_at(candidate) == 0:
        return RootInterval(lo=candidate, hi=candidate, exact=candidate)
    return RootInterval(lo=lo, hi=hi)


def _refine_interval(
    s: UPoly, lo: Fraction, hi: Fraction, width: Fraction
) -> Tuple[Fraction, Fraction]:
    """Bisection refinement; needs a sign change or an endpoint root."""
    s_lo = s.sign_at(lo)
    if s_lo == 0:
        return lo, lo
    if s.sign_at(hi) == 0:
        return hi, hi
    # lo = a/q and hi = b/q; a halving doubles a, b and q, and the
    # midpoint a + b over the doubled q needs no reduction
    q = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
    wn, wd = width.numerator, width.denominator
    while (b - a) * wd > wn * q:
        mid = a + b
        a, b, q = 2 * a, 2 * b, 2 * q
        sm = s.sign_at_ratio(mid, q)
        if sm == 0:
            return Fraction(mid, q), Fraction(mid, q)
        if sm == s_lo:
            a = mid
        else:
            b = mid
    return Fraction(a, q), Fraction(b, q)


def refine_root(p: UPoly, ri: RootInterval, width: _Scalar) -> RootInterval:
    """Shrink an isolating interval of p to the given width; p must be
    square-free (the bisection reads the sign changes of p itself)."""
    if ri.is_exact:
        return ri
    lo, hi = _refine_interval(p, ri.lo, ri.hi, Fraction(width))
    if lo == hi:
        return RootInterval(lo=lo, hi=hi, exact=lo)
    return RootInterval(lo=lo, hi=hi)
