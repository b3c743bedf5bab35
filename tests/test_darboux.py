"""Invariant curves, extactic polynomials, exponential factors.

Oracles: cofactors are rebuilt from closed-form products and compared
exactly; the extactic curve is recomputed by Laplace expansion of a
hand-assembled Lie-derivative matrix, and by `ffdet` of its minor on
drawn and named systems; multiplicities are certified by
repeated exact division.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

import pytest
from hypothesis import assume, given, settings, strategies as st

from pdisc import integrability
from pdisc.darboux import (
    InvariantCurve,
    attach_multiplicities,
    darboux_fragment,
    extactic,
    find_exponential_factors,
    find_invariant_lines,
    verify_invariant_curve,
)
from pdisc.errors import InternalInvariantError
from pdisc.exactalg import MPoly, coefficient_rows, ffdet, monomial_basis, nullspace
from pdisc.integrability import SearchBounds, run_pipeline
from pdisc.modelio import PlanarSystem, leslie_system, parse_system, seeded_parameter_triples

from test_golden import OTHER_ANALYZE

F = Fraction
X = MPoly.var_x()
Y = MPoly.var_y()
ONE = MPoly.one()


def _leslie_expected_cofactors(A: F, B: F, C: F):
    """The three line cofactors, assembled from closed-form products."""
    c = MPoly.const(C)
    a = MPoly.const(A)
    b = MPoly.const(B)
    k_x = -(c + X) * (-ONE + X + a * Y)
    k_shift = -X * (-ONE + X + a * Y)
    k_y = b * (c + X - Y)
    return {"x": k_x, "x_shift": k_shift, "y": k_y}


def test_leslie_line_cofactors_exact():
    for a, b, c in [(F(1), F(2), F(1, 2)), (F(3, 4), F(5), F(7, 3))]:
        sys = leslie_system(a, b, c)
        expected = _leslie_expected_cofactors(a, b, c)
        for f, key in [(X, "x"), (X + MPoly.const(c), "x_shift"), (Y, "y")]:
            curve = verify_invariant_curve(sys, f)
            assert curve is not None
            assert (curve.K - expected[key]).is_zero


def test_verify_rejects_noninvariant_curve():
    sys = leslie_system(F(1), F(1), F(1, 2))
    assert verify_invariant_curve(sys, X + Y) is None
    assert verify_invariant_curve(sys, X * Y - ONE) is None


def test_verified_curves_satisfy_defining_identity():
    sys = leslie_system(F(2, 9), F(3, 5), F(12, 7))
    lines, _ = find_invariant_lines(sys)
    for curve in lines:
        residual = sys.lie_derivative(curve.f) - curve.K * curve.f
        assert residual.is_zero


def test_find_invariant_lines_leslie_inventory():
    c_val = F(5, 6)
    sys = leslie_system(F(1, 12), F(2, 3), c_val)
    lines, notes = find_invariant_lines(sys)
    assert notes == []
    normals = {curve.f.monic().format() for curve in lines}
    assert normals == {
        X.format(),
        (X + MPoly.const(c_val)).format(),
        Y.format(),
    }


def test_no_invariant_lines_for_rotation():
    rotation = parse_system("dx = -y\ndy = x\n")
    assert find_invariant_lines(rotation) == ([], [])


def test_the_zero_field_has_every_line_invariant():
    # P = 0 frees every vertical line, and no slant condition is left
    lines, notes = find_invariant_lines(parse_system("dx = 0\ndy = 0\n"))
    assert [(c.f.format(), c.K.format()) for c in lines] == [("x", "0"), ("y", "0")]
    assert notes == ["x - c invariant for every c", "y - a*x - b invariant for all (a, b)"]


@st.composite
def _planted(draw):
    """A field of degree <= 2 and up to two rational lines planted in it:
    x - c divides P, and y - a x - b divides Q - a P."""
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)

    def poly(deg: int) -> MPoly:
        terms = draw(st.dictionaries(
            st.tuples(st.integers(0, deg), st.integers(0, deg)).filter(lambda e: sum(e) <= deg),
            coeffs,
            max_size=4,
        ))
        return MPoly(terms)

    planted = [X - MPoly.const(c) for c in draw(st.lists(coeffs, max_size=2))]
    p = poly(2 - len(planted))
    for line in planted:
        p = p * line
    q = poly(2)
    if len(planted) < 2 and draw(st.booleans()):
        a, b = MPoly.const(draw(coeffs)), MPoly.const(draw(coeffs))
        line = Y - a * X - b
        q = a * p + line * poly(1)
        planted.append(line)
    return PlanarSystem(p, q), planted


@settings(max_examples=100)
@given(_planted())
def test_every_planted_line_is_found(case):
    sys, planted = case
    lines, notes = find_invariant_lines(sys)
    found = [c.f.format() for c in lines]
    assert len(set(found)) == len(found)
    for line in planted:
        assert line.monic().format() in found or notes
    for c in lines:
        assert (sys.lie_derivative(c.f) - c.K * c.f).is_zero


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


def _extactic_oracle(sys: PlanarSystem, m: int) -> MPoly:
    basis: List[MPoly] = [ONE, X, Y] if m == 1 else [ONE, X, Y, X * X, X * Y, Y * Y]
    rows = [basis]
    for _ in range(len(basis) - 1):
        rows.append([sys.lie_derivative(g) for g in rows[-1]])
    return _cofactor_det(rows)


def test_extactic_matches_laplace_oracle():
    # the full matrix, constant column included, expanded by cofactors: at
    # order 1, and at order 2 on the bundled model and a non-Leslie system
    cases = [
        (leslie_system(F(1), F(2), F(1, 2)), 1),
        (leslie_system(F(1), F(1), F(1, 2)), 2),
        (parse_system("dx = y^2 - x*y + y - 1\ndy = x*y - x^2 + x\n"), 2),
    ]
    for sys, order in cases:
        ext = extactic(sys, order, find_invariant_lines(sys)[0])
        assert ext.order == order
        assert ext.basis_size == 3 * order
        assert ext.E == _extactic_oracle(sys, order)
        assert not ext.vanishes


def test_extactic_divisible_by_invariant_lines():
    sys = leslie_system(F(1), F(2), F(1, 2))
    ext = extactic(sys, 1, find_invariant_lines(sys)[0])
    product = X * Y * (X + MPoly.const(F(1, 2)))
    assert ext.E.exact_div(product) is not None


def test_multiplicities_by_repeated_division():
    sys = leslie_system(F(1), F(2), F(1, 2))
    lines, _ = find_invariant_lines(sys)
    ext = extactic(sys, 1, lines)
    enriched = attach_multiplicities(lines, ext)
    for curve in enriched:
        m = curve.multiplicity
        assert m == 1
        power = curve.f
        assert ext.E.exact_div(power) is not None
        assert ext.E.exact_div(power * curve.f) is None


def test_extactic_vanishing_degenerate_case():
    radial = parse_system("dx = x\ndy = y\n")
    lines, notes = find_invariant_lines(radial)
    assert notes == ["y - a*x - (0) invariant for every a"]
    ext = extactic(radial, 1, lines)
    assert ext.vanishes
    assert ext.E.is_zero


def _extactic_minor_det(sys: PlanarSystem, m: int) -> MPoly:
    # rows X^1..X^l of the monomial basis of degree <= m without the
    # constant; the constant column (1, 0, ..., 0) is expanded away
    basis = [X, Y] if m == 1 else [X, Y, X * X, X * Y, Y * Y]
    rows = [[sys.lie_derivative(g) for g in basis]]
    for _ in range(len(basis) - 1):
        rows.append([sys.lie_derivative(g) for g in rows[-1]])
    return ffdet(rows)


@st.composite
def _systems(draw) -> PlanarSystem:
    """Degree 1-4 systems; some P and Q share a factor, some P has a
    squared factor."""

    def poly(deg: int) -> MPoly:
        terms = draw(st.dictionaries(
            st.tuples(st.integers(0, deg), st.integers(0, deg)).filter(lambda e: sum(e) <= deg),
            st.fractions(min_value=-4, max_value=4, max_denominator=3),
            max_size=4,
        ))
        return MPoly(terms)

    shape = draw(st.sampled_from(["plain", "shared-factor", "squared-factor-of-P"]))
    d = draw(st.integers(1, 4))
    if shape == "plain":
        p, q = poly(d), poly(d)
    elif shape == "shared-factor":
        f = poly(1)
        p, q = f * poly(d - 1), f * poly(d - 1)
    else:
        f = poly(1)
        p, q = f * f * poly(max(d - 2, 0)), poly(d)
    assume(not (p.is_zero and q.is_zero))
    return PlanarSystem(p, q)


@given(_systems())
def test_extactic_matches_the_minor_determinant(sys):
    for m in (1, 2):
        assert extactic(sys, m, []).E == _extactic_minor_det(sys, m)


@pytest.mark.parametrize(
    "source, vanishes",
    [
        ("dx = 0\ndy = y\n", (True, True)),  # P = 0
        ("dx = y\ndy = 0\n", (True, True)),  # Q = 0
        ("dx = x\ndy = y\n", (True, True)),  # E_1 = 0: a pencil of lines
        ("dx = x^2\ndy = 1\n", (False, True)),  # E_2 = 0: the conics xy - cx + 1
        ("dx = 1\ndy = x^3\n", (False, False)),  # P constant
        ("dx = x^5 - 3*x^2*y^2 + y^3 - 2*x + 1\ndy = y^5 - x*y^3 + 2*x^2 - y - 3\n", (False, False)),
    ],
    ids=["P-zero", "Q-zero", "E1-zero", "E2-zero", "P-constant", "quintic"],
)
def test_extactic_matches_the_minor_determinant_on_named_systems(source, vanishes):
    sys = parse_system(source)
    for m, zero in zip((1, 2), vanishes):
        e = extactic(sys, m, []).E
        assert e == _extactic_minor_det(sys, m)
        assert e.is_zero == zero


def test_extactic_reports_an_inexact_division_by_p_cubed(monkeypatch):
    sys = leslie_system(F(1), F(1), F(1, 2))
    monkeypatch.setattr(MPoly, "exact_div", lambda self, divisor: None)
    assert not extactic(sys, 1, []).vanishes
    with pytest.raises(InternalInvariantError):
        extactic(sys, 2, [])


def _divisions(e: MPoly, f: MPoly) -> int:
    """The exponent of f in a nonzero e, by repeated exact division."""
    count = 0
    while (q := e.exact_div(f)) is not None:
        e, count = q, count + 1
    return count


@given(
    st.lists(st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-5, 5)), min_size=1, max_size=6),
    st.integers(0, 5),
    st.integers(0, 5),
)
def test_axis_exponent_read_off_the_terms_matches_division(terms, a, b):
    # x^e divides F exactly when every term has x-exponent >= e, so the
    # exponent of x or y is read off the terms, not divided out
    g = MPoly(terms)
    assume(not g.is_zero)
    f = MPoly.monomial(a, b) * g
    for var in (MPoly.var_x(), MPoly.var_y()):
        assert f.multiplicity(var) == _divisions(f, var)


def _line_with_rows(line: MPoly, rows) -> MPoly:
    """sum over rows (m, g) of y^j line^m g(x), j the row's index."""
    out = MPoly.zero()
    for j, (m, g) in enumerate(rows):
        gx = sum((MPoly.monomial(i, 0, c) for i, c in enumerate(g)), MPoly.zero())
        out = out + MPoly.monomial(0, j, 1) * line**m * gx
    return out


@given(
    st.one_of(st.sampled_from([F(0), F(-2), F(1, 3), F(-5, 2), F(7, 4)]), st.fractions(-6, 6, max_denominator=9)),
    st.sampled_from([F(1), F(-1), F(3, 2)]),
    st.lists(st.tuples(st.integers(0, 4), st.lists(st.integers(-4, 4), min_size=1, max_size=3)), min_size=1, max_size=4),
    st.sampled_from(["x", "y", "slant"]),
)
def test_line_exponent_by_rows_matches_division(r, scale, rows, kind):
    # x - r divides F = sum_j y^j (x - r)^m_j g_j(x) as often as it
    # divides its least divisible row; y - r is the same, swapped; a
    # slant line y - 2x - r divides as repeated exact division does
    line = (X - r if kind != "slant" else Y - 2 * X - r) * scale
    f = _line_with_rows(line, rows)
    assume(not f.is_zero)
    if kind == "y":
        line, f = line.swapped(), f.swapped()
    assert f.multiplicity(line) == _divisions(f, line)


def test_line_exponent_takes_the_least_row():
    line = X - F(2, 3)
    f = _line_with_rows(line, [(4, [1]), (2, [1, 1]), (3, [-2, 0, 5])])
    g = f + 5 * Y**3  # a constant row
    for u, want in ((f, 2), (g, 0), (line**4, 4)):
        assert u.multiplicity(line) == _divisions(u, line) == want
        assert u.swapped().multiplicity(line.swapped()) == want


@pytest.mark.parametrize(
    "sys, exponents",
    [
        (leslie_system(F(1), F(1), F(1, 2)), {"x": 4, "x + 1/2": 4, "y": 5}),
        (parse_system("dx = x*(1 - x)\ndy = 2*y\n"), {"x - 1": 4, "x": 7, "y": 4}),
        (parse_system("dx = y^2 - x*y + y - 1\ndy = x*y - x^2 + x\n"), None),
    ],
    ids=["bundled", "logistic-node", "non-leslie"],
)
def test_order_two_exponents_match_division_of_e2_itself(sys, exponents):
    # a line's exponent in E_2 is read from the factors N_2 and M / P^3;
    # the oracle divides the whole E_2 again and again; the non-Leslie
    # system has no invariant line, only its E_2 is checked
    curves, _ = find_invariant_lines(sys)
    assert bool(curves) == (exponents is not None)
    ext = extactic(sys, 2, curves)
    assert not ext.vanishes
    assert ext.multiplicities == {c.f.format(): _divisions(ext.E, c.f) for c in curves}
    assert exponents is None or ext.multiplicities == exponents
    # the E_1 exponents come from the same recurrence
    assert ext.line_multiplicities == extactic(sys, 1, curves).multiplicities
    assert ext.line_multiplicities == {c.f.format(): _divisions(extactic(sys, 1, []).E, c.f) for c in curves}
    order_one = extactic(sys, 1, curves)
    assert order_one.line_multiplicities is order_one.multiplicities


def test_a_conic_is_divided_into_e2_itself():
    # x^2 + y^2 - 1 is irreducible; x*y is reducible, and its exponent is
    # that of the product (4), not the sum of those of x and y (7 + 4)
    cases = [
        ("dx = -y + x*(1 - x^2 - y^2)\ndy = x + y*(1 - x^2 - y^2)\n", X * X + Y * Y - ONE, None),
        ("dx = x*(1 - x)\ndy = 2*y\n", X * Y, 4),
    ]
    for source, f, expected in cases:
        sys = parse_system(source)
        cur = verify_invariant_curve(sys, f)
        assert cur is not None
        ext = extactic(sys, 2, [cur])
        count = _divisions(ext.E, cur.f)
        assert count >= 1 and expected in (None, count)
        assert ext.multiplicities == {cur.f.format(): count}
        assert ext.line_multiplicities == {}
        # a conic is beyond the order-1 bound
        assert extactic(sys, 1, [cur]).multiplicities == {}


@pytest.mark.parametrize(
    "source, lines",
    [("dx = x\ndy = 2*y\n", {"x": 1, "y": 1}), ("dx = x^2\ndy = 1\n", {"x": 3})],
    ids=["node", "multiple-line"],
)
def test_a_vanishing_e2_still_carries_the_e1_exponents(source, lines):
    sys = parse_system(source)
    curves, _ = find_invariant_lines(sys)
    ext = extactic(sys, 2, curves)
    assert ext.vanishes and ext.multiplicities == {}
    assert ext.line_multiplicities == lines == extactic(sys, 1, curves).multiplicities
    assert {c.f.format(): c.multiplicity for c in attach_multiplicities(curves, ext)} == lines
    pipe = run_pipeline(sys, SearchBounds(extactic_order=2))
    assert {c.f.format(): c.multiplicity for c in pipe.curves} == lines


@pytest.mark.parametrize("order", [1, 2])
def test_run_pipeline_makes_one_extactic_call(order, monkeypatch):
    orders = []

    def counted(sys, m, curves):
        orders.append(m)
        return extactic(sys, m, curves)

    monkeypatch.setattr(integrability, "extactic", counted)
    pipe = run_pipeline(leslie_system(F(1), F(1), F(1, 2)), SearchBounds(extactic_order=order))
    assert orders == [order]
    assert [c.multiplicity for c in pipe.curves] == [1, 1, 1]


def test_extactic_names_a_curve_that_divides_no_nonzero_e_m():
    # on dx = y, dy = x^2, the line y divides M / P^3, so E_2, but not E_1
    sys = parse_system("dx = y\ndy = x^2\n")
    y_line = InvariantCurve(Y, MPoly.zero())
    off = InvariantCurve(X - MPoly.const(5), MPoly.zero())
    with pytest.raises(InternalInvariantError, match="^invariant curve y does not divide a nonzero E_1$"):
        extactic(sys, 2, [y_line])
    # every curve is checked against E_2 before any against E_1
    with pytest.raises(InternalInvariantError, match="^invariant curve x - 5 does not divide a nonzero E_2$"):
        extactic(sys, 2, [y_line, off])
    with pytest.raises(InternalInvariantError, match="^invariant curve x - 5 does not divide a nonzero E_1$"):
        extactic(sys, 1, [off])
    # E_2 vanishes here, and the E_1 check still runs
    with pytest.raises(InternalInvariantError, match="^invariant curve x - 5 does not divide a nonzero E_1$"):
        extactic(parse_system("dx = x\ndy = 2*y\n"), 2, [off])


def test_exponential_factor_leslie():
    a, b, c = F(1), F(2), F(1, 2)
    sys = leslie_system(a, b, c)
    curves, _ = find_invariant_lines(sys)
    factors = find_exponential_factors(sys, curves, deg_bound=2)
    assert len(factors) == 1
    factor = factors[0]
    assert factor.f.is_constant
    # g is a scalar multiple of y: no constant, x, or quadratic part
    g = factor.g
    for i, j in [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2)]:
        assert g.coeff(i, j) == 0
    scale = g.coeff(0, 1)
    assert scale != 0
    expected_l = MPoly.const(scale * b) * (MPoly.const(c) + X - Y) * Y
    assert (factor.L - expected_l).is_zero


def test_exponential_factor_defining_identity():
    sys = leslie_system(F(4, 5), F(6, 5), F(9, 2))
    curves, _ = find_invariant_lines(sys)
    for factor in find_exponential_factors(sys, curves, deg_bound=2):
        lhs = sys.lie_derivative(factor.g) * factor.f - factor.g * sys.lie_derivative(
            factor.f
        )
        rhs = factor.L * factor.f * factor.f
        assert (lhs - rhs).is_zero


def test_exponential_factor_translation_flow():
    sys = parse_system("dx = 1\ndy = y\n")
    factors = find_exponential_factors(sys, [], deg_bound=1)
    gs = [f for f in factors if not f.g.is_constant]
    assert any((f.g.diff("x")).is_constant and f.g.coeff(0, 1) == 0 for f in gs)
    for factor in gs:
        lhs = sys.lie_derivative(factor.g) * factor.f - factor.g * sys.lie_derivative(
            factor.f
        )
        assert (lhs - factor.L * factor.f * factor.f).is_zero


def _remainder(f: MPoly, h: MPoly) -> dict:
    """The remainder of f modulo h by leading-term reduction over
    Fractions, under the kernel's graded-lex order (total degree, then
    the exponent of y), as {(i, j): coefficient}."""
    order = lambda e: (e[0] + e[1], e[1])  # noqa: E731
    divisor = dict(h.items())
    lead = max(divisor, key=order)
    work, rem = dict(f.items()), {}
    while work:
        e = max(work, key=order)
        c = work.pop(e)
        if not c:
            continue
        if e[0] < lead[0] or e[1] < lead[1]:
            rem[e] = c
            continue
        fac = c / divisor[lead]
        for (i, j), v in divisor.items():
            if (i, j) != lead:
                t = (e[0] - lead[0] + i, e[1] - lead[1] + j)
                work[t] = work.get(t, 0) - fac * v
    return rem


def _exponent_space_by_remainders(sys: PlanarSystem, curve: InvariantCurve) -> List[MPoly]:
    """A basis of the g with deg g <= deg h whose X(g) - (k-1) K g leaves
    no remainder modulo h = f^(k-1), h itself among them; with no
    remainder rows every g qualifies."""
    k = curve.multiplicity
    h = curve.f ** (k - 1)
    g_expos = monomial_basis(h.degree)
    rems = []
    for i, j in g_expos:
        mono = MPoly.monomial(i, j)
        rems.append(_remainder(sys.lie_derivative(mono) - (k - 1) * curve.K * mono, h))
    rows = sorted({e for r in rems for e in r})
    if rows:
        sols = nullspace([[r.get(e, 0) for r in rems] for e in rows])
    else:
        sols = [[F(int(t == s)) for t in range(len(g_expos))] for s in range(len(g_expos))]
    return [sum((MPoly.monomial(i, j, c) for (i, j), c in zip(g_expos, vec)), MPoly.zero()) for vec in sols]


def _rank(polys: Sequence[MPoly]) -> int:
    """The dimension over Q of the span of nonempty polys."""
    monos = monomial_basis(max(p.degree for p in polys))
    return len(polys) - len(nullspace(coefficient_rows(polys, monos)))


@st.composite
def _multiple_lines(draw):
    """A field with a line of multiplicity m = 2 or 3 planted in it:
    x - r to the m divides P, y - r to the m divides Q, or
    (y - a x - r) to the m divides Q - a P; the curve carries m."""
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def poly(deg: int) -> MPoly:
        terms = draw(st.dictionaries(
            st.tuples(st.integers(0, deg), st.integers(0, deg)).filter(lambda e: sum(e) <= deg),
            coeffs,
            max_size=4,
        ))
        return MPoly(terms)

    m = draw(st.integers(2, 3))
    r = MPoly.const(draw(coeffs))
    kind = draw(st.sampled_from(["x", "y", "slant"]))
    tail = poly(1)
    if kind == "x":
        line = X - r
        p, q = line**m * tail, poly(2)
    elif kind == "y":
        line = Y - r
        p, q = poly(2), line**m * tail
    else:
        a = MPoly.const(draw(coeffs))
        line = Y - a * X - r
        p = poly(2)
        q = a * p + line**m * tail
    sys = PlanarSystem(p, q)
    curve = verify_invariant_curve(sys, line.monic())
    assert curve is not None
    return sys, InvariantCurve(curve.f, curve.K, m)


@given(_multiple_lines())
def test_exp_factors_of_a_multiple_line_match_the_remainder_formulation(case):
    # one linear system in the coefficients of q and g, X(g) - (k-1) K g
    # = h q, finds the factors that reduction modulo h finds: each
    # factor's numerator over h, g*h/f, and h span the same solutions,
    # and are independent, so no combination of exponents is constant
    sys, curve = case
    h = curve.f ** (curve.multiplicity - 1)
    factors = find_exponential_factors(sys, [curve], deg_bound=1)
    spanned = [e.g * h.exact_div(e.f) for e in factors if not e.f.is_constant] + [h]
    oracle = _exponent_space_by_remainders(sys, curve)
    assert _rank(spanned) == len(spanned)
    assert _rank(oracle) == _rank(spanned) == _rank(oracle + spanned)


# Darboux test systems with exponential factors: exp(1/x) among them, and
# exp(g) factors with curves and without
EXP_FACTOR_SYSTEMS = [
    "dx = x^2\ndy = 1\n",
    "dx = 1\ndy = y\n",
    "dx = x\ndy = x^2 + 2*y\n",
    "dx = -y + x^2\ndy = x\n",
]


@pytest.mark.parametrize("order", [1, 2])
def test_no_exponential_factor_has_a_constant_exponent(order):
    # case (a) makes g monic with no constant term, and case (b) leaves a
    # positive power of f in g/f, so no factor is a constant and the
    # cofactor tests need no filter for one
    sources = [source for source, _, _ in OTHER_ANALYZE.values()] + EXP_FACTOR_SYSTEMS
    systems = [parse_system(source) for source in sources]
    systems += [leslie_system(a, b, c) for a, b, c in seeded_parameter_triples(count=20)]
    found = 0
    for sys in systems:
        for ef in run_pipeline(sys, SearchBounds(extactic_order=order)).factors:
            quotient = ef.g.exact_div(ef.f)
            assert quotient is None or not quotient.is_constant, ef.exponent_text
            found += 1
    assert found > 0


def test_divergence_closed_form():
    for a, b, c in [(F(1), F(1), F(1, 2)), (F(7, 8), F(10, 9), F(4, 3))]:
        sys = leslie_system(a, b, c)
        x, y = X, Y
        expected = (
            MPoly.const((1 + b) * c)
            - MPoly.const(2 * b + a * c) * y
            + MPoly.const(2 + b - 2 * c) * x
            - 3 * x * x
            - MPoly.const(2 * a) * x * y
        )
        assert (sys.divergence() - expected).is_zero


def test_fragment_shape():
    sys = leslie_system(F(1), F(2), F(1, 2))
    curves, _ = find_invariant_lines(sys)
    ext = extactic(sys, 1, curves)
    curves = attach_multiplicities(curves, ext)
    factors = find_exponential_factors(sys, curves, deg_bound=2)
    frag = darboux_fragment(curves, factors, ext, dump_extactic=True)
    assert {"invariant_curves", "exponential_factors", "extactic"} <= frag.keys()
    assert "polynomial" in frag["extactic"]
    assert all({"f", "cofactor", "multiplicity"} <= c.keys() for c in frag["invariant_curves"])
