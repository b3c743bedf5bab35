"""Real-root isolation for univariate rational polynomials.

Strategy: reduce to the square-free part, then Sturm-sequence bisection
inside a window clipped to the Cauchy root bound.  Rational roots are
recovered exactly: bisection midpoints that happen to hit a root deflate
the polynomial, and every isolating interval is refined and handed to a
Stern-Brocot reconstruction whose candidate is accepted only when it
verifies to an exact zero.  The reconstruction is tried at width 2^-32,
which recovers every root p/q with q <= 2^16 after a few dozen
bisections, and again at width 2^-80.  A rational root p/q with
q <= 2^35 is always recovered (any other rational in a 2^-80 interval
around it has a larger denominator, so the simplest-in-interval
candidate is the root itself); roots with larger denominators stay
interval-isolated, which downstream code treats as irrational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from pdisc.exactalg.upoly import UPoly

_Scalar = Union[int, Fraction]

DEFAULT_REFINE_WIDTH = Fraction(1, 2**40)
_SCREEN_WIDTH = Fraction(1, 2**32)
_RECONSTRUCT_WIDTH = Fraction(1, 2**80)
_DENOMINATOR_CAP = 2**35


@dataclass(frozen=True)
class RootInterval:
    """One isolated real root of a square-free polynomial.

    lo == hi == exact for roots known exactly; otherwise the open
    interval (lo, hi) contains exactly one root and the endpoints are
    not roots.
    """

    lo: Fraction
    hi: Fraction
    multiplicity_of_squarefree: int = 1
    exact: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("root interval endpoints out of order")
        if self.multiplicity_of_squarefree < 1:
            raise ValueError("multiplicity must be positive")
        if self.exact is not None and not (self.lo <= self.exact <= self.hi):
            raise ValueError("exact root outside its interval")

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def cauchy_bound(p: UPoly) -> Fraction:
    """All real roots of p lie in [-bound, bound]."""
    if p.is_zero:
        raise ValueError("zero polynomial has no root bound")
    lc = abs(p.leading_coeff())
    m = max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + m / lc


def sturm_chain(p: UPoly) -> List[UPoly]:
    chain = [p, p.diff()]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def sign_variations(chain: List[UPoly], t: Fraction) -> int:
    signs = [s for s in (q.sign_at(t) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator (then numerator) in [lo, hi]."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -_simplest_pos(-hi, -lo)
    return _simplest_pos(lo, hi)


def _simplest_pos(lo: Fraction, hi: Fraction) -> Fraction:
    # 0 < lo <= hi
    fl = lo.numerator // lo.denominator
    if lo == fl:
        return Fraction(fl)
    if fl + 1 <= hi:
        return Fraction(fl + 1)
    return fl + 1 / _simplest_pos(1 / (hi - fl), 1 / (lo - fl))


def isolate_real_roots(p: UPoly, window: Optional[Tuple[_Scalar, _Scalar]] = None) -> List[RootInterval]:
    """Disjoint isolating intervals for every distinct real root in the closed window.

    The window defaults to the Cauchy bound.  Roots exactly at window
    endpoints are included.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    s = p.squarefree_part()
    if s.degree == 0:
        return []
    bound = cauchy_bound(s)
    if window is None:
        lo, hi = -bound, bound
    else:
        lo, hi = Fraction(window[0]), Fraction(window[1])
        if lo > hi:
            raise ValueError("window endpoints out of order")
        lo = max(lo, -bound)
        hi = min(hi, bound)
        if lo > hi:
            return []

    exact_roots: List[Fraction] = []
    intervals: List[Tuple[Fraction, Fraction]] = []

    # deflate-and-restart loop; each pass either finishes or removes one rational root
    while True:
        if s.degree == 0:
            break
        if s.eval(lo) == 0:
            exact_roots.append(lo)
            s = s // UPoly((-lo, 1))
            continue
        if hi != lo and s.eval(hi) == 0:
            exact_roots.append(hi)
            s = s // UPoly((-hi, 1))
            continue
        if lo == hi:
            break
        chain = sturm_chain(s)
        v_lo = sign_variations(chain, lo)
        v_hi = sign_variations(chain, hi)
        collected: List[Tuple[Fraction, Fraction]] = []
        hit = _bisect(s, chain, lo, hi, v_lo, v_hi, collected)
        if hit is None:
            # only a completed pass's intervals are valid for the current s
            intervals = collected
            break
        exact_roots.append(hit)
        s = s // UPoly((-hit, 1))

    out: List[RootInterval] = []
    for r in exact_roots:
        out.append(RootInterval(lo=r, hi=r, exact=r))
    for a, b in intervals:
        out.append(_identify(s, a, b))
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
    if s.eval(mid) == 0:
        return mid
    v_mid = sign_variations(chain, mid)
    hit = _bisect(s, chain, lo, mid, v_lo, v_mid, found)
    if hit is not None:
        return hit
    return _bisect(s, chain, mid, hi, v_mid, v_hi, found)


def _identify(s: UPoly, lo: Fraction, hi: Fraction) -> RootInterval:
    """Refine an isolating interval and attempt exact rational recovery,
    first at the cheap screening width, then at the full one."""
    for width in (_SCREEN_WIDTH, _RECONSTRUCT_WIDTH):
        lo, hi = _refine_interval(s, lo, hi, width)
        if lo == hi:
            return RootInterval(lo=lo, hi=hi, exact=lo)
        candidate = simplest_between(lo, hi)
        if candidate.denominator <= _DENOMINATOR_CAP and s.eval(candidate) == 0:
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
    while hi - lo > width:
        mid = (lo + hi) / 2
        sm = s.sign_at(mid)
        if sm == 0:
            return mid, mid
        if sm == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def refine_root(p: UPoly, ri: RootInterval, width: _Scalar = DEFAULT_REFINE_WIDTH) -> RootInterval:
    """Shrink an isolating interval of p to the given width; p must be
    square-free (the bisection reads the sign changes of p itself)."""
    if ri.is_exact:
        return ri
    lo, hi = _refine_interval(p, ri.lo, ri.hi, Fraction(width))
    if lo == hi:
        return RootInterval(lo=lo, hi=hi, exact=lo)
    return RootInterval(lo=lo, hi=hi)
