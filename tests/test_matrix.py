"""Fraction-free determinants and exact linear algebra.

Oracle: Laplace cofactor expansion computed independently here, plus
structural determinant identities (row swap, multiplicativity).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

import pytest
from hypothesis import given, strategies as st

import pdisc.exactalg.matrix as matrix
from pdisc.exactalg import MPoly, ffdet, nullspace, solve_linear

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _cofactor_det(rows: Sequence[Sequence[MPoly]]) -> MPoly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = MPoly.zero()
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _const_matrix(values: Sequence[Sequence[Fraction]]) -> List[List[MPoly]]:
    return [[MPoly.const(v) for v in row] for row in values]


def _frac_det(values: Sequence[Sequence[Fraction]]) -> Fraction:
    d = ffdet(_const_matrix(values))
    return d.coeff(0, 0)


square3 = st.lists(
    st.lists(small_rationals, min_size=3, max_size=3), min_size=3, max_size=3
)


@given(square3)
def test_ffdet_matches_cofactor_expansion(values):
    m = _const_matrix(values)
    assert (ffdet(m) - _cofactor_det(m)).is_zero


def test_ffdet_with_polynomial_entries():
    x = MPoly.var_x()
    y = MPoly.var_y()
    m = [
        [x, y, MPoly.one()],
        [MPoly.one(), x * y, y],
        [y, MPoly.zero(), x],
    ]
    assert (ffdet(m) - _cofactor_det(m)).is_zero


@st.composite
def poly_entries(draw) -> MPoly:
    """Zero, or up to three terms of degree <= 2 with denominators up to 6."""
    p = MPoly.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=2))
        j = draw(st.integers(min_value=0, max_value=2 - i))
        num = draw(st.integers(min_value=-7, max_value=7))
        den = draw(st.integers(min_value=1, max_value=6))
        p = p + MPoly.monomial(i, j, Fraction(num, den))
    return p


def poly_matrices(n: int):
    return st.lists(
        st.lists(poly_entries(), min_size=n, max_size=n), min_size=n, max_size=n
    )


@given(poly_matrices(3))
def test_ffdet_bivariate_3x3_matches_cofactor_expansion(m):
    assert ffdet(m) == _cofactor_det(m)


@given(poly_matrices(4))
def test_ffdet_bivariate_4x4_matches_cofactor_expansion(m):
    assert ffdet(m) == _cofactor_det(m)


def test_ffdet_zero_pivots_swap_rows():
    x = MPoly.var_x()
    y = MPoly.var_y()
    one = MPoly.one()
    half = MPoly.const(Fraction(1, 2))
    zero = MPoly.zero()
    leading = [[zero, x, one], [y, half, x], [one, y, zero]]
    # the (1, 1) pivot cancels to zero after the first elimination step
    later = [[x, y, half], [x, y, 2 * one], [one, x, y * half]]
    for m in (leading, later):
        det = ffdet(m)
        assert not det.is_zero
        assert det == _cofactor_det(m)


def test_ffdet_zero_column_gives_zero():
    x = MPoly.var_x()
    y = MPoly.var_y()
    one = MPoly.one()
    zero = MPoly.zero()
    first = [[zero, x, one], [zero, y, 2 * one], [zero, one, x]]
    middle = [[x, zero, one], [y, zero, 2 * one], [one, zero, x]]
    for m in (first, middle):
        assert ffdet(m).is_zero


def test_ffdet_reports_inexact_division(monkeypatch):
    x = MPoly.var_x()
    y = MPoly.var_y()
    m = [[x, y, MPoly.one()], [MPoly.one(), x * y, y], [y, MPoly.zero(), x]]
    monkeypatch.setattr(matrix, "_divide", lambda terms, divisor: None)
    with pytest.raises(ArithmeticError):
        ffdet(m)


@given(square3)
def test_ffdet_row_swap_negates(values):
    swapped = [values[1], values[0], values[2]]
    assert _frac_det(values) == -_frac_det(swapped)


@given(square3, square3)
def test_ffdet_multiplicative(a, b):
    product = [
        [sum((a[i][k] * b[k][j] for k in range(3)), Fraction(0)) for j in range(3)]
        for i in range(3)
    ]
    assert _frac_det(product) == _frac_det(a) * _frac_det(b)


def test_ffdet_singular_matrix():
    row = [Fraction(1), Fraction(2), Fraction(3)]
    values = [row, [2 * v for v in row], [Fraction(0), Fraction(1), Fraction(1)]]
    assert _frac_det(values) == 0


@given(
    st.lists(st.lists(small_rationals, min_size=4, max_size=4), min_size=2, max_size=2)
)
def test_nullspace_vectors_annihilate(rows):
    basis = nullspace(rows)
    assert len(basis) >= 2
    for vec in basis:
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0


@given(
    st.lists(st.lists(small_rationals, min_size=4, max_size=4), min_size=1, max_size=4),
    st.lists(st.integers(min_value=1, max_value=60), min_size=4, max_size=4),
)
def test_nullspace_ignores_positive_row_scales(rows, scales):
    # the reduced echelon form is unique, so scaling rows (as
    # coefficient_rows does to clear denominators) changes no basis vector
    scaled = [[s * c for c in row] for row, s in zip(rows, scales)]
    assert nullspace(scaled) == nullspace(rows)


def test_nullspace_full_rank_is_trivial():
    rows = [
        [Fraction(1), Fraction(0)],
        [Fraction(1), Fraction(1)],
    ]
    assert nullspace(rows) == []


@given(
    st.lists(st.lists(small_rationals, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(small_rationals, min_size=3, max_size=3),
)
def test_solve_linear_recovers_solution(rows, x0):
    rhs = [sum(r * v for r, v in zip(row, x0)) for row in rows]
    sol, rank, rank_aug = solve_linear(rows, rhs)
    assert rank == rank_aug
    assert sol is not None
    for row, b in zip(rows, rhs):
        assert sum(r * v for r, v in zip(row, sol)) == b


def test_solve_linear_flags_inconsistency():
    rows = [
        [Fraction(1), Fraction(1)],
        [Fraction(2), Fraction(2)],
    ]
    sol, rank, rank_aug = solve_linear(rows, [Fraction(1), Fraction(3)])
    assert sol is None
    assert rank == 1
    assert rank_aug == 2



def _fraction_rref(matrix):
    """Reduced row echelon form and pivot columns by Gauss-Jordan over
    Fraction, choosing the pivot of smallest |numerator|: the oracle of
    the fraction-free elimination."""
    a = [[Fraction(c) for c in row] for row in matrix]
    pivots = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        live = [i for i in range(r, len(a)) if a[i][c] != 0]
        if r >= len(a) or not live:
            continue
        p = min(live, key=lambda i: (abs(a[i][c].numerator), a[i][c].denominator, i))
        a[r], a[p] = a[p], a[r]
        a[r] = [v / a[r][c] for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


@st.composite
def rational_systems(draw):
    """Augmented rows [A | b]: independent random rows, then rows that are
    rational combinations of earlier ones, some with 1 added to the
    right-hand side so that the system may be inconsistent."""
    ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(small_rationals, min_size=ncols + 1, max_size=ncols + 1), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        ws = draw(st.lists(small_rationals, min_size=len(rows), max_size=len(rows)))
        row = [sum((w * r[k] for w, r in zip(ws, rows)), Fraction(0)) for k in range(ncols + 1)]
        row[-1] += draw(st.sampled_from([0, 1]))
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


@given(rational_systems())
def test_row_echelon_matches_fraction_gauss_jordan(rows):
    a, b = [r[:-1] for r in rows], [r[-1] for r in rows]
    assert matrix._row_echelon(rows) == _fraction_rref(rows)
    red, pivots = _fraction_rref(a)
    assert matrix._row_echelon(a) == (red, pivots)
    ncols = len(a[0])
    free = [c for c in range(ncols) if c not in pivots]
    want = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f]
        want.append(vec)
    assert nullspace(a) == want
    aug_red, aug_pivots = _fraction_rref(rows)
    sol, rank, rank_aug = solve_linear(a, b)
    assert (rank, rank_aug) == (len(pivots), len(aug_pivots))
    if aug_pivots[-1:] == [ncols]:
        assert sol is None and rank_aug == rank + 1
    else:
        expect = [Fraction(0)] * ncols
        for r, c in enumerate(aug_pivots):
            expect[c] = aug_red[r][ncols]
        assert sol == expect


def _poly_in_y(roots: Sequence[Fraction], lead: Fraction = Fraction(1)) -> MPoly:
    p = MPoly.const(lead)
    for r in roots:
        p = p * (MPoly.var_y() - MPoly.const(r))
    return p


def _constant(p: MPoly) -> Fraction:
    """The value of a constant polynomial."""
    assert p.is_constant
    return p.coeff(0, 0)


@given(
    st.lists(small_rationals, min_size=1, max_size=2, unique=True),
    st.lists(small_rationals, min_size=0, max_size=3, unique=True),
    st.lists(small_rationals, min_size=0, max_size=3, unique=True),
    small_rationals.filter(lambda v: v != 0),
)
def test_subresultant_is_the_gcd_at_its_degree(common, fr, gr, lead):
    """f and g share exactly the roots `common`: S1, ..., S(j-1) vanish and
    Sj is the gcd times a nonzero constant, j = len(common)."""
    fr = [v for v in fr if v not in common]
    gr = [v for v in gr if v not in common and v not in fr]
    f = _poly_in_y(common + fr, lead)
    g = _poly_in_y(common + gr)
    j = len(common)
    for i in range(1, j):
        assert all(c.is_zero for c in matrix.subresultant(f, g, "y", i))
    sj = [_constant(c) for c in matrix.subresultant(f, g, "y", j)]
    gcd = [_constant(c) for c in _poly_in_y(common).coeffs_in("y")]
    assert sj[j] != 0
    assert [c / sj[j] for c in sj] == gcd


def test_subresultant_polynomial_coefficients():
    x, y = MPoly.var_x(), MPoly.var_y()
    # y^2 = 2 and y^2 - x*y - 3 = 0 give x*y = -1
    assert matrix.subresultant(y * y - 2, y * y - x * y - 3, "y", 1) == [MPoly.const(-1), -x]
    # the last index is the lower-degree side itself, whichever comes first
    assert matrix.subresultant(x * y - 1, x * x + y * y - 3, "y", 1) == [MPoly.const(-1), x]
    assert matrix.subresultant(x * x + y * y - 3, x * y - 1, "y", 1) == [MPoly.const(-1), x]
    assert matrix.subresultant(y * y - x, y * y - 3, "y", 2) == [MPoly.const(-3), MPoly.zero(), MPoly.one()]
    for f, g, j in ((x - 1, y - x, 1), (y * y - x, y - 3, 2), (y * y - x, y - 3, 0)):
        with pytest.raises(ValueError):
            matrix.subresultant(f, g, "y", j)
