"""Sturm's count, for tests that check root isolation against it: for
a < b, neither a root of p, p has V(a) - V(b) distinct real roots in
(a, b), with V the sign variations of its Sturm chain."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Union

from pdisc.exactalg import UPoly


def sign_variations(chain: List[UPoly], t: Union[int, Fraction]) -> int:
    """Sign changes along the values of the chain at t, zeros dropped."""
    signs = [s for s in (q.sign_at(t) for q in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))
