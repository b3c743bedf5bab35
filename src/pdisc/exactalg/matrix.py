"""Exact linear algebra: fraction-free determinants over polynomial rings,
Sylvester resultants, Gaussian elimination over the rationals, and the
integer coefficient matrix of a list of polynomials."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple, Union

from pdisc.exactalg.mpoly import MPoly, _divide, _from_ints, _mul_add

Rational = Union[int, Fraction]


def ffdet(rows: Sequence[Sequence[MPoly]]) -> MPoly:
    """Determinant of a square MPoly matrix by Bareiss one-step elimination.

    Each row's primitive integer parts are scaled by the lcm of its
    entries' content denominators, so the elimination runs on integer
    coefficients, and the result is divided by the product of the scales.
    Every division the algorithm performs is exact over Z; a failed
    division means the input was not a matrix over the ring and is
    reported as a programming error.
    """
    a, scale = _integer_rows(rows)
    n = len(a)
    if n == 0:
        return MPoly.one()
    sign = 1
    prev: Optional[dict] = None
    for k in range(n - 1):
        if not a[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot_row is None:
                return MPoly.zero()
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            neg_aik = _scaled(a[i][k], -1)
            for j in range(k + 1, n):
                num: dict = {}
                _mul_add(num, a[i][j], akk)
                _mul_add(num, neg_aik, a[k][j])
                if prev is None:
                    a[i][j] = {e: c for e, c in num.items() if c}
                    continue
                out = _divide(num, prev)
                if out is None:
                    raise ArithmeticError("Bareiss division not exact")
                a[i][j] = out
            a[i][k] = {}
        prev = akk
    return _from_ints(a[n - 1][n - 1], Fraction(sign, scale))


def _integer_rows(rows: Sequence[Sequence[MPoly]]) -> Tuple[List[List[dict]], int]:
    """The entries' primitive integer parts, each row scaled by the lcm of
    its entries' content denominators, and the product of those lcms."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    scale = 1
    a: List[List[dict]] = []
    for row in rows:
        den = lcm(*(p._c.denominator for p in row))
        scale *= den
        a.append([_scaled(p._p, p._c.numerator * (den // p._c.denominator)) for p in row])
    return a, scale


def _scaled(p: dict, m: int) -> dict:
    return p if m == 1 else {k: m * v for k, v in p.items()}


def subresultant(p: MPoly, q: MPoly, var: str, j: int) -> List[MPoly]:
    """Coefficients [Sj0, ..., Sjj], ascending in v = var, of the j-th
    subresultant Sj = U*p + V*q, up to sign, for 1 <= j <= n = the smaller
    of the v-degrees: the determinants of the index-j Sylvester rows over
    all but their last j + 1 columns plus the column of v^k (Sjk); for
    j = n the lower-degree polynomial itself (q if the degrees are equal)."""
    f, g = p.coeffs_in(var), q.coeffs_in(var)
    if len(g) > len(f):
        f, g = g, f
    if not 1 <= j < len(g):
        raise ValueError(f"no subresultant of index {j} for v-degrees {len(f) - 1}, {len(g) - 1}")
    if j == len(g) - 1:
        return g
    rows = _sylvester_rows(f, g, j)
    lead = len(rows) - 1
    return [ffdet([row[:lead] + [row[-1 - k]] for row in rows]) for k in range(j + 1)]


def _sylvester_rows(f: List[MPoly], g: List[MPoly], j: int) -> List[List[MPoly]]:
    """The n-j shifts of f and m-j of g (degrees m, n) over v^(m+n-j-1)..v^0."""
    m = len(f) - 1
    n = len(g) - 1
    size = m + n - j
    zero = MPoly.zero()
    fd = list(reversed(f))
    gd = list(reversed(g))
    rows: List[List[MPoly]] = []
    for i in range(n - j):
        rows.append([zero] * i + fd + [zero] * (size - m - 1 - i))
    for i in range(m - j):
        rows.append([zero] * i + gd + [zero] * (size - n - 1 - i))
    return rows


def resultant_wrt(p: MPoly, q: MPoly, var: str) -> MPoly:
    """Resultant of two bivariate polynomials, eliminating var ('x' or 'y'),
    a polynomial in the other variable only.  Res(0, g) = Res(f, 0) = 0,
    and Res(c, g) = c^deg(g) for f = c constant in var, and symmetrically."""
    f, g = p.coeffs_in(var), q.coeffs_in(var)
    if not f or not g:
        return MPoly.zero()
    if len(f) == 1:
        return f[0] ** (len(g) - 1)
    if len(g) == 1:
        return g[0] ** (len(f) - 1)
    return ffdet(_sylvester_rows(f, g, 0))


def _row_echelon(
    matrix: Sequence[Sequence[Rational]],
) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form and the list of pivot column indices.

    Fraction-free Gauss-Jordan: each row is scaled to integers by the lcm
    of its denominators, an elimination cross-multiplies two rows, and the
    changed row is divided by its content.  The reduced form is unique, so
    dividing each pivot row by its pivot at the end gives it over Q.
    """
    a = []
    for row in matrix:
        den = lcm(*(c.denominator for c in row))
        a.append([c.numerator * (den // c.denominator) for c in row])
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        live = [i for i in range(r, nrows) if a[i][c]]
        if not live:
            continue
        p = min(live, key=lambda i: abs(a[i][c]))
        a[r], a[p] = a[p], a[r]
        pr = a[r]
        pv = pr[c]
        for i in range(nrows):
            f = a[i][c]
            if f and i != r:
                row = [pv * vi - f * vr for vi, vr in zip(a[i], pr)]
                g = gcd(*row) or 1
                a[i] = [v // g for v in row]
        pivots.append(c)
    red = [[Fraction(v, a[r][c]) for v in a[r]] for r, c in enumerate(pivots)]
    return red + [[Fraction(0)] * ncols for _ in range(nrows - len(pivots))], pivots


def solve_linear(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Tuple[Optional[List[Fraction]], int, int]:
    """Solve A x = b exactly.

    Returns (solution, rank(A), rank([A|b])).  solution is None when the
    system is inconsistent; when the solution set is a positive-dimensional
    affine space, the returned point sets every free variable to zero.
    """
    nrows = len(matrix)
    if nrows == 0:
        return [], 0, 0
    ncols = len(matrix[0])
    if len(rhs) != nrows:
        raise ValueError("rhs length does not match matrix")
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    red, pivots = _row_echelon(aug)
    rank_aug = len(pivots)
    if pivots and pivots[-1] == ncols:
        # a pivot in the rhs column certifies inconsistency
        rank_a = rank_aug - 1
        return None, rank_a, rank_aug
    rank_a = rank_aug
    sol = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        sol[c] = red[r][ncols]
    return sol, rank_a, rank_aug


def nullspace(matrix: Sequence[Sequence[Rational]]) -> List[List[Fraction]]:
    """Basis of the right nullspace of a matrix of ints or Fractions.

    One basis vector per free column: the free variable is set to 1 and
    the pivot variables are read off the reduced echelon form.
    """
    nrows = len(matrix)
    if nrows == 0:
        return []
    ncols = len(matrix[0])
    red, pivots = _row_echelon(matrix)
    pivot_set = set(pivots)
    basis: List[List[Fraction]] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -red[r][free]
        basis.append(vec)
    return basis


def monomial_basis(max_deg: int) -> List[Tuple[int, int]]:
    """Exponents (i, j) of the monomials x^i y^j of degree <= max_deg,
    ascending graded-lex, so the constant (0, 0) comes first."""
    return [(total - j, j) for total in range(max_deg + 1) for j in range(total + 1)]


def coefficient_rows(polys: Sequence[MPoly], monos: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """Row r, column c: the coefficient of monos[r] in polys[c], times the
    lcm of the polys' content denominators, so the rows are integers and
    the right nullspace is that of the coefficient matrix.  Terms of a
    poly outside monos have no row; a caller that must not lose them
    checks the degrees first."""
    den = lcm(*(p.content.denominator for p in polys))
    cols = [(p.content.numerator * (den // p.content.denominator), dict(p.int_terms())) for p in polys]
    return [[w * terms.get(e, 0) for w, terms in cols] for e in monos]
