"""Bivariate polynomial ring: axioms, calculus, substitution, division.

Oracles: evaluation at rational points is a ring homomorphism, so every
algebraic identity is cross-checked pointwise; the product rule is
verified against the definition of diff.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pdisc.exactalg import Interval, MPoly, NEG_INF, eval_box
from pdisc.exactalg.mpoly import _divide, _pack, _unpack

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@st.composite
def mpolys(draw, max_exp: int = 3, max_terms: int = 5) -> MPoly:
    n = draw(st.integers(min_value=0, max_value=max_terms))
    p = MPoly.zero()
    for _ in range(n):
        i = draw(st.integers(min_value=0, max_value=max_exp))
        j = draw(st.integers(min_value=0, max_value=max_exp))
        c = draw(rationals)
        p = p + MPoly.monomial(i, j, c)
    return p


points = st.tuples(rationals, rationals)


@given(mpolys(), mpolys(), mpolys(), points)
def test_ring_axioms_pointwise(a, b, c, pt):
    x0, y0 = pt
    combos = [
        (a + b) * c,
        a * c + b * c,
        a * (b * c),
        (a * b) * c,
        a - a,
        MPoly.one() * a,
    ]
    vals = [p.eval_rat(x0, y0) for p in combos]
    assert vals[0] == vals[1]
    assert vals[2] == vals[3]
    assert vals[4] == 0
    assert vals[5] == a.eval_rat(x0, y0)


@given(mpolys(), mpolys())
def test_ring_axioms_structural(a, b):
    assert ((a + b) - (b + a)).is_zero
    assert (a * b - b * a).is_zero
    assert (a + MPoly.zero() - a).is_zero


@given(mpolys(), mpolys())
def test_product_rule(a, b):
    for var in ("x", "y"):
        lhs = (a * b).diff(var)
        rhs = a.diff(var) * b + a * b.diff(var)
        assert (lhs - rhs).is_zero


@given(mpolys(), mpolys())
def test_degree_multiplicative(a, b):
    if a.is_zero or b.is_zero:
        assert (a * b).is_zero
    else:
        assert (a * b).degree == a.degree + b.degree


@given(mpolys(max_exp=2, max_terms=3), mpolys(max_exp=2, max_terms=3), points)
def test_subst_is_composition(f, g, pt):
    x0, y0 = pt
    h = f.subst(g, g * g)
    direct = f.eval_rat(g.eval_rat(x0, y0), (g * g).eval_rat(x0, y0))
    assert h.eval_rat(x0, y0) == direct


@given(mpolys(), mpolys())
def test_exact_div_roundtrip(a, b):
    if b.is_zero:
        return
    q = (a * b).exact_div(b)
    assert q is not None
    assert (q - a).is_zero


def test_exact_div_rejects_nondivisor():
    x = MPoly.var_x()
    y = MPoly.var_y()
    assert (x * x + y).exact_div(x + MPoly.one()) is None


@given(mpolys(max_exp=2), points)
def test_reduce_mod_identity(f, pt):
    x = MPoly.var_x()
    g = x * x + MPoly.one()
    q, r = f.reduce_mod(g)
    x0, y0 = pt
    assert f.eval_rat(x0, y0) == (q * g + r).eval_rat(x0, y0)
    assert r.degree_in("x") < 2


def _full_quadratic(coeffs) -> MPoly:
    """A polynomial with every monomial of degree <= 2 (leading term y^2)."""
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    return MPoly({e: c for e, c in zip(exps, coeffs)})


def test_division_recreates_cancelled_terms():
    # Dividing a*g by g, the terms x*y and x*y^2 of the running remainder
    # cancel to zero and are created again by later reduction steps.
    g = _full_quadratic([1] * 6)
    x = MPoly.var_x()
    y = MPoly.var_y()
    a = y * y - x * y + x - MPoly.one()
    assert (a * g).exact_div(g) == a
    assert (a * g).reduce_mod(g) == (a, MPoly.zero())
    r = 3 * x * y + 5 * x**4 - MPoly.one()
    assert (a * g + r).reduce_mod(g) == (a, r)
    assert (a * g + r).exact_div(g) is None


nonzero_rationals = rationals.filter(lambda c: c != 0)


@given(
    mpolys(),
    st.lists(nonzero_rationals, min_size=6, max_size=6),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 1), rationals), max_size=4),
)
def test_division_by_dense_divisor_is_unique(a, coeffs, rest):
    """With one divisor, q and r are unique once no term of r is divisible
    by the leading monomial y^2; a dense divisor makes every reduction
    step touch terms that earlier steps cancelled."""
    g = _full_quadratic(coeffs)
    r = MPoly({(i, j): c for i, j, c in rest})
    f = a * g + r
    assert f.reduce_mod(g) == (a, r)
    q = f.exact_div(g)
    if r.is_zero:
        assert q == a
    else:
        assert q is None


def test_exact_div_fails_after_several_steps():
    # the quotient's first four terms divide out; the constant 2 is left
    # over only once every higher term is gone
    y = MPoly.var_y()
    one = MPoly.one()
    g = y + one
    f = g * (y**4 + y**3 + y**2 + y) + 2 * one
    assert f.exact_div(g) is None
    assert f.reduce_mod(g)[1] == 2 * one


def _int_terms(p: MPoly, scale: int = 1):
    return _pack({e: int(scale * c) for e, c in p.items()})


def test_integer_division_checks_coefficients():
    x = MPoly.var_x()
    y = MPoly.var_y()
    g = x * x + 2 * x * y - 3 * y + 4
    a = x * y - 5 * x + 7
    q, r = _divide(_int_terms(a * g), _int_terms(g), exact=True)
    assert q == _int_terms(a) and not r
    assert all(type(c) is int for c in q.values())
    # a*g / (2*g) is a/2, not in Z[x, y]: the first quotient coefficient fails
    assert _divide(_int_terms(a * g), _int_terms(g, 2), exact=True) is None
    # the quotient x*y - 5*x + 7/2 passes the coefficient test until its last term
    b = 2 * x * y - 10 * x + 7
    assert _divide(_int_terms(b * g, 2), _int_terms(g, 4), exact=True) is None
    assert _divide(_int_terms(b * g, 4), _int_terms(g, 4), exact=True)[0] == _int_terms(b)


def test_packed_kernel_rejects_huge_degrees():
    big = MPoly.monomial(0, 2**31)
    with pytest.raises(OverflowError):
        big * MPoly.var_y()
    assert MPoly.monomial(0, 2**31 - 1) * MPoly.var_x() == MPoly.monomial(1, 2**31 - 1)


def test_zero_degree_sentinel():
    assert MPoly.zero().degree is NEG_INF
    assert MPoly.zero().is_zero
    assert MPoly.const(Fraction(3, 7)).degree == 0


def test_grlex_leading_term():
    x = MPoly.var_x()
    y = MPoly.var_y()
    p = x * x * x + x * y * y * y + MPoly.const(5)
    (i, j), c = p.leading()
    assert (i, j) == (1, 3)
    assert c == 1


def test_coeff_items_roundtrip():
    x = MPoly.var_x()
    y = MPoly.var_y()
    p = 2 * x * y - 3 * y * y + MPoly.const(7)
    assert p.coeff(1, 1) == 2
    assert p.coeff(0, 2) == -3
    assert p.coeff(0, 0) == 7
    assert p.coeff(5, 5) == 0
    rebuilt = MPoly.zero()
    for (i, j), c in p.items():
        rebuilt = rebuilt + MPoly.monomial(i, j, c)
    assert (rebuilt - p).is_zero


def test_coeffs_in_reassembles():
    x = MPoly.var_x()
    y = MPoly.var_y()
    p = x * x * y + 2 * x - y + MPoly.const(4)
    rows = p.coeffs_in("x")
    rebuilt = MPoly.zero()
    for k, row in enumerate(rows):
        rebuilt = rebuilt + row * MPoly.monomial(k, 0, Fraction(1))
    assert (rebuilt - p).is_zero


def test_univariate_coeffs_rejects_mixed():
    x = MPoly.var_x()
    y = MPoly.var_y()
    with pytest.raises(ValueError):
        (x * y).univariate_coeffs("x")
    assert (x * x - MPoly.const(2)).univariate_coeffs("x") == [
        Fraction(-2),
        Fraction(0),
        Fraction(1),
    ]


@given(mpolys(max_exp=3, max_terms=4), points)
def test_eval_box_contains_point_values(f, pt):
    x0, y0 = pt
    ix = Interval(x0 - 1, x0 + 1)
    iy = Interval(y0 - Fraction(1, 2), y0 + Fraction(1, 2))
    box = eval_box(f, ix, iy)
    assert box.contains(f.eval_rat(x0, y0))


def test_format_readable():
    x = MPoly.var_x()
    y = MPoly.var_y()
    p = x * y - MPoly.const(Fraction(1, 2))
    text = p.format()
    assert "x" in text and "y" in text and "1/2" in text
