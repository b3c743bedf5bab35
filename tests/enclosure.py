"""An independent enclosure of a polynomial over a box, for tests that
check certified signs against it: exact rational arithmetic, monomial by
monomial."""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from pdisc.exactalg import MPoly

Pair = Tuple[Fraction, Fraction]


def power_enclosure(side: Pair, n: int) -> Pair:
    """An enclosure of t^n over t in side = (lo, hi)."""
    lo, hi = side
    if n == 0:
        return Fraction(1), Fraction(1)
    a, b = sorted((lo**n, hi**n))
    if n % 2 == 0 and lo < 0 < hi:
        # an even power of a side that straddles 0 stays >= 0
        return Fraction(0), b
    return a, b


def box_enclosure(p: MPoly, xs: Pair, ys: Pair) -> Pair:
    """An enclosure (lo, hi) of p over the box xs x ys."""
    lo = hi = Fraction(0)
    for (i, j), c in p.items():
        px, py = power_enclosure(xs, i), power_enclosure(ys, j)
        ends = [c * a * b for a in px for b in py]
        lo, hi = lo + min(ends), hi + max(ends)
    return lo, hi
