"""Exact rational arithmetic kernel.

Sparse bivariate polynomials over Fraction, dense univariate polynomials
stored as a primitive integer tuple times a rational content, real-root
isolation, interval arithmetic with rational endpoints, and fraction-free
determinants.  No floating point anywhere in this subpackage.  Values
cross the API as `Fraction`s, but the inner loops of determinants,
resultants and all univariate arithmetic, Sturm chains and bisection run
on Python `int`.
"""

from pdisc.exactalg.interval import Interval, eval_box
from pdisc.exactalg.matrix import ffdet, nullspace, resultant_wrt, solve_linear, sylvester_resultant
from pdisc.exactalg.mpoly import NEG_INF, MPoly, Rat
from pdisc.exactalg.roots import RootInterval, isolate_real_roots, refine_root
from pdisc.exactalg.upoly import UPoly

__all__ = [
    "Interval",
    "MPoly",
    "NEG_INF",
    "Rat",
    "RootInterval",
    "UPoly",
    "eval_box",
    "ffdet",
    "isolate_real_roots",
    "nullspace",
    "refine_root",
    "resultant_wrt",
    "solve_linear",
    "sylvester_resultant",
]
