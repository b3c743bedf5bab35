"""The push-forward check of a directional blow-up, for tests that
verify `compactify.blowup_analysis` against the field it blew up."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

from pdisc.compactify import BlowupSystem
from pdisc.modelio import PlanarSystem


def verify_blowdown(
    bs: BlowupSystem, sys: PlanarSystem, samples: Sequence[Tuple[Fraction, Fraction]]
) -> bool:
    """Exact push-forward check at rational sample points off the
    divisor: the blown-up field times the rescaling monomial must
    reproduce the original field through the substitution."""
    for a, b in samples:
        m = Fraction(a) ** bs.rescale_x * Fraction(b) ** bs.rescale_y
        fu = bs.first.eval_rat(a, b)
        fv = bs.second.eval_rat(a, b)
        if bs.direction == "x":
            x0, y0 = Fraction(a), Fraction(a) * Fraction(b)
            ok_x = sys.P.eval_rat(x0, y0) == m * fu
            ok_y = sys.Q.eval_rat(x0, y0) == m * (Fraction(b) * fu + Fraction(a) * fv)
        else:
            x0, y0 = Fraction(a) * Fraction(b), Fraction(b)
            ok_x = sys.P.eval_rat(x0, y0) == m * (Fraction(b) * fu + Fraction(a) * fv)
            ok_y = sys.Q.eval_rat(x0, y0) == m * fv
        if not (ok_x and ok_y):
            return False
    return True
