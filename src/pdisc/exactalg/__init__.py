"""Exact rational arithmetic kernel.

Sparse bivariate and dense univariate polynomials, each stored as a
primitive integer part (a dict on packed monomial keys, a tuple) times a
positive rational content; real algebraic numbers (`AlgebraicCoord`, the
one type that root isolation returns and refinement takes) and points,
fraction-free determinants and linear solves.  No floating
point anywhere in this subpackage.  Values cross the API as `Fraction`s,
and an enclosure as a pair (lo, hi) of them, but polynomial arithmetic,
determinants, resultants, row echelon forms, Sturm chains, bisection
and root refinement run on Python `int`.  Products of bivariate polynomials with a dozen
terms or more pack each row of terms into one `int`, so CPython's
big-integer product multiplies them.
"""

from pdisc.exactalg.algebraic import AlgebraicPoint, Rur
from pdisc.exactalg.matrix import (
    coefficient_rows,
    ffdet,
    monomial_basis,
    nullspace,
    resultant_wrt,
    solve_linear,
)
from pdisc.exactalg.mpoly import MPoly
from pdisc.exactalg.roots import AlgebraicCoord, common_denominator, isolate_real_roots, refine_root, squarefree_roots
from pdisc.exactalg.upoly import UPoly

__all__ = [
    "AlgebraicCoord",
    "AlgebraicPoint",
    "MPoly",
    "Rur",
    "UPoly",
    "coefficient_rows",
    "common_denominator",
    "ffdet",
    "isolate_real_roots",
    "monomial_basis",
    "nullspace",
    "refine_root",
    "resultant_wrt",
    "solve_linear",
    "squarefree_roots",
]
