"""Bivariate polynomial ring: axioms, calculus, substitution, division.

Oracles: evaluation at rational points is a ring homomorphism, so every
algebraic identity is cross-checked pointwise; the product rule is
verified against the definition of diff.
"""

from __future__ import annotations

from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

import pdisc.exactalg
from pdisc.exactalg import MPoly, UPoly
from pdisc.exactalg import mpoly
from pdisc.exactalg.mpoly import _ROW_MIN_TERMS, _divide, _key
from pdisc.modelio import PlanarSystem

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
    r = 3 * x * y + 5 * x**4 - MPoly.one()
    assert (a * g + r).exact_div(g) is None


nonzero_rationals = rationals.filter(lambda c: c != 0)


@given(
    mpolys(),
    st.lists(nonzero_rationals, min_size=6, max_size=6),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 1), rationals), max_size=4),
)
def test_division_by_dense_divisor_is_unique(a, coeffs, rest):
    """With one divisor, a*g + r is divisible exactly when r = 0, once no
    term of r is divisible by the leading monomial y^2; a dense divisor
    makes every reduction step touch terms that earlier steps cancelled."""
    g = _full_quadratic(coeffs)
    r = MPoly({(i, j): c for i, j, c in rest})
    f = a * g + r
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


def test_multiplicity_needs_a_nonzero_polynomial_and_a_nonconstant_factor():
    # every power of f divides 0, and every power of a constant divides
    # anything, so neither exponent is finite
    x = MPoly.var_x()
    with pytest.raises(ValueError):
        MPoly.zero().multiplicity(x)
    with pytest.raises(ValueError):
        x.multiplicity(MPoly.const(2))


def _int_terms(p: MPoly, scale: int = 1):
    return {_key(i, j): int(scale * c) for (i, j), c in p.items()}


def test_integer_division_checks_coefficients():
    x = MPoly.var_x()
    y = MPoly.var_y()
    g = x * x + 2 * x * y - 3 * y + 4
    a = x * y - 5 * x + 7
    q = _divide(_int_terms(a * g), _int_terms(g))
    assert q == _int_terms(a)
    assert all(type(c) is int for c in q.values())
    # a*g / (2*g) is a/2, not in Z[x, y]: the first quotient coefficient fails
    assert _divide(_int_terms(a * g), _int_terms(g, 2)) is None
    # the quotient x*y - 5*x + 7/2 passes the coefficient test until its last term
    b = 2 * x * y - 10 * x + 7
    assert _divide(_int_terms(b * g, 2), _int_terms(g, 4)) is None
    assert _divide(_int_terms(b * g, 4), _int_terms(g, 4)) == _int_terms(b)


def test_packed_kernel_rejects_huge_degrees():
    with pytest.raises(OverflowError):
        MPoly.monomial(0, 2**31)
    with pytest.raises(OverflowError):
        MPoly({(2**30, 2**30): 1})
    edge = MPoly.monomial(0, 2**31 - 1)
    assert next((edge * MPoly.var_x()).items()) == ((1, 2**31 - 1), 1)
    # a product may reach degree 2^31, but may not be a factor again
    big = edge * MPoly.var_y()
    assert next(big.items()) == ((0, 2**31), 1)
    with pytest.raises(OverflowError):
        big * MPoly.var_y()
    with pytest.raises(OverflowError):
        MPoly.var_x() * big


def test_zero_degree_sentinel():
    # every degree is a plain int, -1 for the zero polynomial
    zero = MPoly.zero()
    assert zero.is_zero
    assert type(zero.degree) is int and zero.degree == -1
    assert zero.degree_in("x") == zero.degree_in("y") == -1
    assert MPoly.const(Fraction(3, 7)).degree == 0
    assert type(UPoly.zero().degree) is int and UPoly.zero().degree == -1
    assert zero.coeffs_in("x") == zero.coeffs_in("y") == []
    assert zero.univariate_coeffs("x") == zero.univariate_coeffs("y") == []
    assert PlanarSystem(zero, zero).degree == 0
    assert PlanarSystem(zero, MPoly.var_x() ** 2).degree == 2
    assert "NEG_INF" not in pdisc.exactalg.__all__


def test_grlex_leading_term():
    x = MPoly.var_x()
    y = MPoly.var_y()
    p = x * x * x + x * y * y * y + MPoly.const(5)
    (i, j), c = next(p.items())
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


@given(mpolys())
def test_int_terms_and_content_roundtrip(p):
    assert MPoly.from_int_terms(p.int_terms(), p.content) == p
    assert all(p.coeff(i, j) == p.content * c for (i, j), c in p.int_terms())
    # repeated exponents add up, and the common factor 2 moves to the content
    assert MPoly.from_int_terms(list(p.int_terms()) * 2, p.content / 2) == p


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


def test_format_readable():
    x = MPoly.var_x()
    y = MPoly.var_y()
    p = x * y - MPoly.const(Fraction(1, 2))
    text = p.format()
    assert "x" in text and "y" in text and "1/2" in text


# -- a plain dict-of-Fraction reference ---------------------------------
#
# Each property below computes one operation twice: on MPoly, and on a
# dict {(i, j): Fraction} with the textbook definition.  The two must
# agree term for term, and items() must list the terms in descending
# graded-lex order.

terms_lists = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals), max_size=5
)


def _grlex(e):
    return (e[0] + e[1], e[1])


def _ref(terms) -> dict:
    acc: dict = {}
    for e, c in terms:
        acc[e] = acc.get(e, Fraction(0)) + Fraction(c)
    return {e: c for e, c in acc.items() if c}


def _ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    return _ref(list(a.items()) + [(e, sign * c) for e, c in b.items()])


def _ref_mul(a: dict, b: dict) -> dict:
    return _ref(((i + k, j + l), c * d) for (i, j), c in a.items() for (k, l), d in b.items())


def _ref_pow(a: dict, n: int) -> dict:
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_diff(a: dict, idx: int) -> dict:
    return _ref(((i - (idx == 0), j - (idx == 1)), c * (i, j)[idx]) for (i, j), c in a.items() if (i, j)[idx])


def _ref_eval(a: dict, x: Fraction, y: Fraction) -> Fraction:
    return sum((c * x**i * y**j for (i, j), c in a.items()), Fraction(0))


def _ref_subst(a: dict, px: dict, py: dict) -> dict:
    out: dict = {}
    for (i, j), c in a.items():
        out = _ref_add(out, _ref_mul(_ref_mul(_ref_pow(px, i), _ref_pow(py, j)), {(0, 0): c}))
    return out


def _ref_divide(f: dict, g: dict):
    """Single-divisor leading-term division under graded lex: (q, r)."""
    lead = max(g, key=_grlex)
    work, q, r = dict(f), {}, {}
    while work:
        e = max(work, key=_grlex)
        c = work.pop(e)
        if e[0] < lead[0] or e[1] < lead[1]:
            r[e] = c
            continue
        qe = (e[0] - lead[0], e[1] - lead[1])
        q[qe] = c / g[lead]
        for (i, j), v in g.items():
            if (i, j) != lead:
                work = _ref_add(work, {(qe[0] + i, qe[1] + j): q[qe] * v}, -1)
    return q, r


def _ref_format(a: dict) -> str:
    if not a:
        return "0"
    out = ""
    for n, (i, j) in enumerate(sorted(a, key=_grlex, reverse=True)):
        c = a[(i, j)]
        mono = "*".join(f for f in ("" if not i else "x" if i == 1 else f"x^{i}", "" if not j else "y" if j == 1 else f"y^{j}") if f)
        body = (mono if abs(c) == 1 else f"{abs(c)}*{mono}") if mono else f"{abs(c)}"
        if n == 0:
            out = body if c > 0 else ("-1*" + mono if mono and abs(c) == 1 else "-" + body)
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def _agrees(p: MPoly, ref: dict) -> bool:
    listed = list(p.items())
    order = [e for e, _ in listed] == sorted(ref, key=_grlex, reverse=True)
    return order and dict(listed) == ref and all(type(c) is Fraction for _, c in listed)


@given(terms_lists, terms_lists, st.integers(0, 3), rationals)
def test_ring_operations_match_reference(ta, tb, n, s):
    a, b = MPoly(ta), MPoly(tb)
    ra, rb = _ref(ta), _ref(tb)
    assert _agrees(a, ra) and _agrees(b, rb)
    assert _agrees(a + b, _ref_add(ra, rb))
    assert _agrees(a - b, _ref_add(ra, rb, -1))
    assert _agrees(-a, _ref_add({}, ra, -1))
    assert _agrees(a * b, _ref_mul(ra, rb))
    assert _agrees(a * s, _ref_mul(ra, {(0, 0): s} if s else {}))
    assert _agrees(s + a, _ref_add(ra, {(0, 0): s} if s else {}))
    assert _agrees(a**n, _ref_pow(ra, n))
    assert a.format() == _ref_format(ra) and (a * b).format() == _ref_format(_ref_mul(ra, rb))
    assert a.term_count() == len(ra)
    assert a.degree == (max(i + j for i, j in ra) if ra else -1)
    if ra:
        lead = max(ra, key=_grlex)
        assert next(a.items()) == (lead, ra[lead])
        assert next(a.monic().items())[1] == 1 and a.monic() == a * (1 / ra[lead])
        assert a.degree_in("x") == max(i for i, _ in ra) and a.degree_in("y") == max(j for _, j in ra)
    for i in range(4):
        for j in range(4):
            assert a.coeff(i, j) == ra.get((i, j), 0)


@given(terms_lists, terms_lists, terms_lists, points)
def test_calculus_and_substitution_match_reference(ta, tb, tc, pt):
    a, b, c = MPoly(ta), MPoly(tb), MPoly(tc)
    ra, rb, rc = _ref(ta), _ref(tb), _ref(tc)
    x0, y0 = pt
    assert _agrees(a.diff("x"), _ref_diff(ra, 0))
    assert _agrees(a.diff("y"), _ref_diff(ra, 1))
    value = a.eval_rat(x0, y0)
    assert type(value) is Fraction and value == _ref_eval(ra, x0, y0)
    assert _agrees(a.subst(b, c), _ref_subst(ra, rb, rc))
    assert _agrees(a.subst_x(x0), _ref(((0, j), v * x0**i) for (i, j), v in ra.items()))
    assert _agrees(a.subst_y(y0), _ref(((i, 0), v * y0**j) for (i, j), v in ra.items()))
    for idx, var in enumerate(("x", "y")):
        rows = a.coeffs_in(var)
        deg = max((e[idx] for e in ra), default=-1)
        assert len(rows) == deg + 1
        for k, row in enumerate(rows):
            want = _ref(((0, e[1]) if idx == 0 else (e[0], 0), v) for e, v in ra.items() if e[idx] == k)
            assert _agrees(row, want)


# -- the integer seams ----------------------------------------------------
#
# Fixing one variable, conversion to UPoly, evaluation and formatting read
# the integer terms directly.  Each is checked against the general route
# or against one Fraction per term.

fixed_values = st.one_of(st.sampled_from([Fraction(0), Fraction(-3), Fraction(-7, 4), Fraction(5, 3)]), rationals)


@given(terms_lists, fixed_values, points)
def test_integer_seams_match_the_general_routes(terms, r, pt):
    a = MPoly(terms)
    x, y = MPoly.var_x(), MPoly.var_y()
    assert a.subst_x(r) == a.subst(MPoly.const(r), y)
    assert a.subst_y(r) == a.subst(x, MPoly.const(r))
    value = a.eval_rat(*pt)
    assert type(value) is Fraction and value == sum((c * pt[0] ** i * pt[1] ** j for (i, j), c in a.items()), Fraction(0))
    for var, p in (("y", a.subst_x(r)), ("x", a.subst_y(r))):
        u = UPoly.from_mpoly(p, var)
        assert u == UPoly(p.univariate_coeffs(var)) and type(u.content) is Fraction
        assert [u.content * v for v in u.int_coeffs()] == p.univariate_coeffs(var)


@given(
    st.one_of(terms_lists, st.sampled_from([[], [((0, 0), Fraction(-7, 3))], [((0, 0), 5)]])),
    st.tuples(fixed_values, fixed_values),
)
def test_jet2_matches_derivatives_evaluated(terms, pt):
    # (f, f_x, f_y, f_xx/2, f_xy, f_yy/2) from one pass over the terms
    f = MPoly(terms)
    fx, fy = f.diff("x"), f.diff("y")
    want = (f, fx, fy, fx.diff("x") * Fraction(1, 2), fx.diff("y"), fy.diff("y") * Fraction(1, 2))
    got = f.jet2(*pt)
    assert all(type(v) is Fraction for v in got)
    assert got == tuple(g.eval_rat(*pt) for g in want)


@pytest.mark.parametrize(
    "terms",
    [
        {(2, 1): -1, (1, 0): Fraction(3, 2), (0, 0): -1},
        {(3, 0): -1, (0, 1): 1},
        {(1, 0): 1, (0, 1): -1, (0, 0): 1},
        {(1, 2): Fraction(-2, 9), (0, 1): Fraction(4, 3), (0, 0): Fraction(-5, 6)},
        {(2, 0): Fraction(6, 7), (0, 2): Fraction(-12, 7)},
        {(0, 0): Fraction(7, 5)},
        {(0, 0): -1},
    ],
    ids=["negative-lead", "negative-unit-lead", "units", "content-with-denominator", "common-factor", "constant", "minus-one"],
)
def test_format_matches_one_fraction_per_term(terms):
    p = MPoly(terms)
    assert p.format() == _ref_format(_ref(terms.items()))
    assert p.format(("u", "v")) == _ref_format(_ref(terms.items())).replace("x", "u").replace("y", "v")


def test_fixing_a_variable_and_conversion_take_no_general_route(monkeypatch):
    # subst_x, subst_y and UPoly.from_mpoly read the integer terms; neither
    # the general substitution's products nor coeff() may come back
    p = MPoly({(3, 1): Fraction(2, 3), (1, 2): -5, (0, 1): 1, (2, 0): Fraction(-1, 4), (0, 0): 7})
    r, s = Fraction(-2, 5), Fraction(3)
    want = (p.subst_x(r), p.subst_y(s), UPoly.from_mpoly(p.subst_x(r), "y"), UPoly.from_mpoly(p.subst_y(s), "x"))

    def general(*args):
        raise AssertionError("a general route was taken")

    monkeypatch.setattr(mpoly, "_mul_add", general)
    monkeypatch.setattr(MPoly, "coeff", general)
    assert (p.subst_x(r), p.subst_y(s), UPoly.from_mpoly(p.subst_x(r), "y"), UPoly.from_mpoly(p.subst_y(s), "x")) == want


@given(terms_lists, terms_lists, terms_lists)
def test_division_matches_reference(ta, tb, tr):
    a, b = MPoly(ta), MPoly(tb)
    if b.is_zero:
        return
    for f in (a, a * b, a * b + MPoly(tr)):
        rq, rr = _ref_divide(_ref(f.items()), _ref(tb))
        exact = f.exact_div(b)
        assert (exact is None) if rr else _agrees(exact, rq)


# -- canonical form -----------------------------------------------------


@given(terms_lists, nonzero_rationals, st.randoms(use_true_random=False))
def test_equal_values_compare_and_hash_equal(terms, s, rnd):
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    routes = [
        MPoly(terms),
        MPoly(shuffled),
        sum((MPoly.monomial(i, j, c) for (i, j), c in shuffled), MPoly.zero()),
        MPoly(terms) * s * (1 / s),
        (MPoly(terms) * MPoly.const(s)).exact_div(MPoly.const(s)),
        MPoly(terms) + MPoly.var_x() * s - MPoly.monomial(1, 0, s),
        -(-MPoly(terms)),
        MPoly(dict(MPoly(terms).items())),
    ]
    assert all(p == routes[0] and hash(p) == hash(routes[0]) for p in routes)


def test_canonical_zero_constants_and_negative_leads():
    x, y, one = MPoly.var_x(), MPoly.var_y(), MPoly.one()
    zeros = [MPoly(), MPoly.zero(), MPoly({(1, 0): 0}), x - x, (x + 1) * (x - 1) - (x * x - 1), 0 * x, MPoly.const(0)]
    threes = [MPoly.const(3), 3 * one, MPoly({(0, 0): Fraction(6, 2)}), (x + 3) - x, MPoly.const(Fraction(3, 2)) * 2]
    negs = [
        -x + 1,
        MPoly({(1, 0): -1, (0, 0): 1}),
        1 - x,
        -(x - 1),
        (x - 1) * -1,
        2 * (x - 1) * Fraction(-1, 2),
        (1 - x * x).exact_div(1 + x),
        (x * y - y).exact_div(-y),
    ]
    for group, scalar in ((zeros, 0), (threes, 3), (negs, None)):
        for p in group:
            assert p == group[0] and hash(p) == hash(group[0])
            if scalar is not None:
                assert p == scalar and p == MPoly.const(scalar)
    assert zeros[0].is_zero and not zeros[0] and zeros[0].degree == -1
    assert next(negs[0].items()) == ((1, 0), -1) and negs[0].format() == "-1*x + 1"
    assert negs[0] != x - 1 and MPoly.const(-3) != MPoly.const(3)
    assert len({*zeros, *threes, *negs}) == 3


# -- products row by row ------------------------------------------------
#
# `_mul_add` multiplies operands of _ROW_MIN_TERMS terms or more one row
# at a time, a row packed into one int.  The oracle multiplies every
# pair of terms; a spy on `_packed_rows` shows which way was taken.


def _pair_products(acc: dict, a: dict, b: dict) -> dict:
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2
    return acc


def _mul_add_rows(acc: dict, a: dict, b: dict) -> bool:
    """acc += a*b by `_mul_add`; whether it went row by row."""
    with patch.object(mpoly, "_packed_rows", wraps=mpoly._packed_rows) as spy:
        mpoly._mul_add(acc, a, b)
    return spy.called


def _nonzero(acc: dict) -> dict:
    return {k: v for k, v in acc.items() if v}


big_coefficients = st.one_of(st.integers(-3, 3), st.integers(2**64, 2**90), st.integers(-(2**90), -(2**64))).filter(bool)


@st.composite
def _row_operands(draw) -> dict:
    """A term dict above the crossover: univariate in x or in y, or in at
    most three rows of y; total degree up to 40, with gaps inside rows."""
    shape = draw(st.sampled_from(["x", "y", "rows"]))
    ys = [0] if shape != "rows" else draw(st.lists(st.integers(0, 10), min_size=1, max_size=3, unique=True))
    cells = [(i, j) for j in ys for i in range(41 - j)]
    exps = draw(st.lists(st.sampled_from(cells), min_size=16, max_size=40, unique=True))
    if shape == "y":
        exps = [(j, i) for i, j in exps]
    return {_key(i, j): draw(big_coefficients) for i, j in exps}


@given(_row_operands(), _row_operands(), st.lists(st.integers(0, 80), max_size=4), st.randoms(use_true_random=False))
def test_row_products_match_the_pair_loop(a, b, others, rnd):
    # acc starts with entries the product cancels to zero, as a Bareiss
    # step's second product does, and with keys of its own; the zeros
    # stay in place for the caller to filter
    want = _pair_products({}, a, b)
    cancelled = rnd.sample(sorted(want), min(3, len(want)))
    acc = {k: -want[k] for k in cancelled}
    acc.update({_key(i, 7): 1 for i in others})
    expect = _pair_products(dict(acc), a, b)
    assert _mul_add_rows(acc, a, b)
    assert _nonzero(acc) == _nonzero(expect)
    assert set(cancelled) <= set(acc) <= set(expect)


@pytest.mark.parametrize("k", [11, 20, 31])
def test_row_products_cancel_exactly(k):
    # (1 + y)^k (1 - y)^k = (1 - y^2)^k and (x + 1 + y)^k (x + 1 - y)^k =
    # ((x + 1)^2 - y^2)^k: every odd power of y cancels
    x, y, one = MPoly.var_x(), MPoly.var_y(), MPoly.one()
    for u in (one, x + 1):
        a, b = _int_terms((u + y) ** k), _int_terms((u - y) ** k)
        acc: dict = {}
        assert _mul_add_rows(acc, a, b)
        assert _nonzero(acc) == _nonzero(_pair_products({}, a, b)) == _int_terms((u * u - y * y) ** k)


@pytest.mark.parametrize("n, rows", [(_ROW_MIN_TERMS - 1, False), (_ROW_MIN_TERMS, True)])
def test_row_products_start_at_the_crossover(n, rows):
    a = {_key(i, i % 2): (-1) ** i * (i + 1) ** 30 for i in range(n)}
    b = {_key(i % 3, 2 * i): 3 * i - 7 for i in range(n)}
    acc: dict = {}
    assert _mul_add_rows(acc, a, b) is rows
    assert _nonzero(acc) == _nonzero(_pair_products({}, a, b))


def test_sparse_rows_multiply_term_pair_by_term_pair():
    # a row spread over degree 10^6 would pack into an int of millions of
    # bits, with as many slots to read back, for 144 term pairs
    a = {_key(10**5 * i, 0): i + 1 for i in range(12)}
    b = {_key(0, 10**5 * i): 1 - i for i in range(12)}
    acc: dict = {}
    assert not _mul_add_rows(acc, a, b)
    assert acc == _pair_products({}, a, b)
