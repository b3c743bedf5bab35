"""Finite equilibria: exact location, linearization, classification.

Oracles: Jacobians are rebuilt from closed forms, float eigenvalues come
from the quadratic formula, and past the float range from 1500-digit
decimal arithmetic, algebraic coordinates are cross-checked by
interval bisection, and the semi-hyperbolic coefficient is compared with
the closed-form value of the collapsed case and with a saddle-node normal
form planted at random rational points.
"""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pdisc import equilibria
from pdisc.equilibria import (
    CENTER_CANDIDATE,
    DEGENERATE,
    SADDLE,
    SADDLE_NODE,
    STABLE_FOCUS,
    STABLE_NODE,
    UNDETERMINED,
    UNSTABLE_FOCUS,
    UNSTABLE_NODE,
    classify_point,
    equilibrium_fragment,
    finite_equilibria,
    in_positive_quadrant,
    leslie_labels,
)
from pdisc.cli import analyze_report
from pdisc.errors import InputError, PositiveDimensionalError
from pdisc.exactalg import AlgebraicCoord, AlgebraicPoint, MPoly, UPoly, isolate_real_roots, resultant_wrt
from pdisc.modelio import PlanarSystem, leslie_system, parse_system

F = Fraction


def _record_by_point(records, x, y):
    for rec in records:
        if rec.point.is_exact and rec.point.exact_pair() == (x, y):
            return rec
    raise AssertionError(f"no record at ({x}, {y})")


def test_leslie_inventory_interior_regime():
    a, b, c = F(1), F(1), F(1, 2)
    records = leslie_labels(finite_equilibria(leslie_system(a, b, c)), a, b, c)
    points = {rec.point.exact_pair() for rec in records}
    assert points == {
        (F(0), F(0)),
        (F(0), F(1, 2)),
        (F(1), F(0)),
        (F(-1, 2), F(0)),
        (F(1, 4), F(3, 4)),
    }
    origin = _record_by_point(records, F(0), F(0))
    assert origin.classification == UNSTABLE_NODE
    assert origin.label == "E0"
    assert origin.jacobian == ((c, F(0)), (F(0), b * c))

    e1 = _record_by_point(records, F(0), F(1, 2))
    assert e1.classification == SADDLE
    assert e1.label == "E1"
    assert set(e1.eigenvalues) == {-b * c, c * (1 - a * c)}

    e2 = _record_by_point(records, F(1), F(0))
    assert e2.classification == SADDLE
    assert e2.label == "E2"
    assert set(e2.eigenvalues) == {-1 - c, b * (1 + c)}

    star = _record_by_point(records, F(1, 4), F(3, 4))
    assert star.label == "Estar"
    assert star.classification == STABLE_FOCUS
    assert star.det == b * (1 + c) ** 2 * (1 - a * c) / (1 + a) ** 2
    assert star.trace == (1 + c) * (-1 - (1 + a) * b + a * c) / (1 + a) ** 2
    assert star.det == F(9, 32)
    assert star.trace == F(-15, 16)
    assert star.disc == F(-63, 256)

    mirror = _record_by_point(records, F(-1, 2), F(0))
    assert mirror.label == "other"


def test_leslie_interior_absent_when_regime_negative():
    a, b, c = F(1), F(1), F(2)
    records = leslie_labels(finite_equilibria(leslie_system(a, b, c)), a, b, c)
    assert all(rec.label != "Estar" or rec.point.exact_pair()[0] <= 0 for rec in records)
    # the formula point sits outside the first quadrant here
    formula_x = (1 - a * c) / (1 + a)
    assert formula_x < 0


def test_positive_quadrant_filter():
    a, b, c = F(1), F(1), F(1, 2)
    records = [r for r in finite_equilibria(leslie_system(a, b, c)) if in_positive_quadrant(r)]
    xs = {rec.point.exact_pair() for rec in records}
    assert (F(-1, 2), F(0)) not in xs
    assert len(records) == 4


def test_float_eigenvalue_oracle():
    a, b, c = F(2, 9), F(3, 5), F(12, 7)
    records = finite_equilibria(leslie_system(a, b, c))
    for rec in records:
        if rec.trace is None or rec.disc is None:
            continue
        tr = float(rec.trace)
        disc = float(rec.disc)
        if rec.eigenvalues is not None and disc >= 0:
            expected = sorted((tr + math.sqrt(disc)) / 2 for _ in [0])
            lams = sorted(float(v) for v in rec.eigenvalues)
            lo = (tr - math.sqrt(disc)) / 2
            hi = (tr + math.sqrt(disc)) / 2
            assert math.isclose(lams[0], lo, rel_tol=0, abs_tol=1e-12)
            assert math.isclose(lams[-1], hi, rel_tol=0, abs_tol=1e-12)


def test_collapse_produces_attractor_saddle_node():
    a, b, c = F(1), F(1), F(1)
    records = leslie_labels(finite_equilibria(leslie_system(a, b, c)), a, b, c)
    merged = _record_by_point(records, F(0), F(1))
    assert merged.classification == SADDLE_NODE
    assert merged.label == "E1"
    red = merged.reduction
    assert red is not None
    # closed form at (0, C) with AC = 1: a2 = 1 - C - 2AC
    assert red.a2 == 1 - c - 2 * a * c
    assert red.a2 == F(-2)
    assert red.stability == "attractor"
    assert red.nonzero_eigenvalue == -b * c


def test_sign_table_cases():
    cases = [
        ("dx = x\ndy = -y\n", SADDLE),
        ("dx = -x\ndy = -2*y\n", STABLE_NODE),
        ("dx = x\ndy = 2*y\n", UNSTABLE_NODE),
        ("dx = -x - y\ndy = x - y\n", STABLE_FOCUS),
        ("dx = x - y\ndy = x + y\n", UNSTABLE_FOCUS),
        ("dx = -y\ndy = x\n", CENTER_CANDIDATE),
        ("dx = x^2\ndy = -y\n", SADDLE_NODE),
        ("dx = x^3\ndy = -y\n", UNDETERMINED),
        ("dx = x^2\ndy = y^2\n", DEGENERATE),
    ]
    for source, expected in cases:
        sys = parse_system(source)
        recs = [r for r in finite_equilibria(sys) if r.point.is_exact and r.point.exact_pair() == (F(0), F(0))]
        assert len(recs) == 1, source
        assert recs[0].classification == expected, source


def test_saddle_node_side_sign():
    rec = finite_equilibria(parse_system("dx = x^2\ndy = -y\n"))[0]
    assert rec.reduction is not None
    assert rec.reduction.a2 == 1
    # the nonzero eigenvalue is -1, so the node part attracts
    assert rec.reduction.stability == "attractor"


_rationals = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 6))
_nonzero = _rationals.filter(bool)


@st.composite
def _planted_saddle_nodes(draw):
    """(x0, y0, a2, lam, v0, vl, c11, c02) with v0 = (1, s) or (0, 1), the
    normalisation the reduction reports, and det[v0 | vl] != 0."""
    v0 = draw(st.sampled_from([(F(1), draw(_rationals)), (F(0), F(1))]))
    vl = draw(st.tuples(_rationals, _rationals).filter(lambda v: v0[0] * v[1] != v0[1] * v[0]))
    return (
        draw(_rationals), draw(_rationals), draw(_nonzero), draw(_nonzero),
        v0, vl, draw(_rationals), draw(_rationals),
    )


def _subst_a2(sys: PlanarSystem, x0: Fraction, y0: Fraction, red) -> Fraction:
    """a2 as the t^2 coefficient of r0 . (P, Q) along (x0, y0) + t v0, by
    one substitution, as the reduction read it before the 2-jet."""
    v0, vl = red.center_vector, red.hyperbolic_vector
    t = MPoly.var_x()
    along = (t * v0[0] + x0, t * v0[1] + y0)
    return (sys.P * vl[1] - sys.Q * vl[0]).subst(*along).coeff(2, 0) / (v0[0] * vl[1] - v0[1] * vl[0])


@settings(max_examples=200)
@given(_planted_saddle_nodes())
def test_planted_saddle_node_normal_form_is_recovered(planted):
    # (u, w) = T^-1 ((x, y) - p0) for T = [v0 | vl]; u' = a2 u^2 + c11 u w
    # + c02 w^2 and w' = lam w + c11 u^2, mapped back by (P, Q) = T (u', w')
    x0, y0, a2, lam, v0, vl, c11, c02 = planted
    det_t = v0[0] * vl[1] - v0[1] * vl[0]
    dx, dy = MPoly.var_x() - x0, MPoly.var_y() - y0
    u = (dx * vl[1] - dy * vl[0]) * (1 / det_t)
    w = (dy * v0[0] - dx * v0[1]) * (1 / det_t)
    du = u * u * a2 + u * w * c11 + w * w * c02
    dw = w * lam + u * u * c11
    sys = PlanarSystem(du * v0[0] + dw * vl[0], du * v0[1] + dw * vl[1])
    rec = classify_point(sys, AlgebraicPoint(AlgebraicCoord.of(x0), AlgebraicCoord.of(y0)))
    assert rec.classification == SADDLE_NODE
    red = rec.reduction
    assert (red.a2, red.nonzero_eigenvalue, red.center_vector) == (a2, lam, v0)
    assert red.stability == ("attractor" if lam < 0 else "repeller")
    # the 2-jet's a2 is the substitution's t^2 coefficient
    assert red.a2 == _subst_a2(sys, x0, y0, red)


def test_irrational_equilibria_paired_and_classified():
    sys = parse_system("dx = x^2 - 2\ndy = y - x\n")
    records = finite_equilibria(sys)
    assert len(records) == 2
    by_sign = {rec.point.x.sign(): rec for rec in records}
    assert by_sign[1].classification == UNSTABLE_NODE
    assert by_sign[-1].classification == SADDLE
    for rec in records:
        assert rec.point.x.compare(rec.point.y) == 0
        assert abs(rec.point.x.approx() ** 2 - 2.0) < 1e-12


def test_algebraic_coord_compare_against_bisection():
    p = UPoly((F(-2), F(0), F(1)))
    coord = [ri for ri in isolate_real_roots(p) if ri.hi > 0][0]
    assert coord.sign() == 1
    assert coord.compare(AlgebraicCoord.of(F(1))) == 1
    assert coord.compare(AlgebraicCoord.of(F(3, 2))) == -1
    assert coord.compare(AlgebraicCoord.of(F(141421356, 100000000))) == 1
    twin = AlgebraicCoord(coord.lo, coord.hi, p)
    assert coord.compare(twin) == 0
    other = [ri for ri in isolate_real_roots(p) if ri.hi <= 0][0]
    assert coord.compare(other) == 1
    assert "root of" in coord.text()


def test_degenerate_input_errors():
    with pytest.raises(InputError):
        finite_equilibria(parse_system("dx = 0\ndy = 0\n"))
    with pytest.raises(PositiveDimensionalError):
        finite_equilibria(parse_system("dx = 0\ndy = y\n"))
    with pytest.raises(PositiveDimensionalError):
        finite_equilibria(parse_system("dx = x*y\ndy = x*y\n"))


def test_no_point_above_a_root_where_both_leading_coefficients_vanish():
    # Res_y(P, Q) = x has the rational root 0, where P = 1 and Q = 2: the
    # gcd of the fiber is constant, so it holds no equilibrium
    sys = parse_system("dx = x*y + 1\ndy = x*y + 2\n")
    assert resultant_wrt(sys.P, sys.Q, "y") == MPoly.var_x()
    assert finite_equilibria(sys) == []
    assert analyze_report(sys)["finite_equilibria"] == []


@pytest.mark.parametrize("source, named", [
    ("dx = (y-1)*x\ndy = (y-1)*(x+1)\n", "the horizontal line y = 1 "),
    ("dx = (y^2-2)*x\ndy = (y^2-2)*(x+1)\n", "a horizontal line of equilibria at an irrational ordinate"),
    ("dx = (x-1)*(x+2)\ndy = (x-1)*y\n", "the vertical line x = 1 "),
    # the whole line x = sqrt(2) consists of equilibria
    ("dx = x^2 - 2\ndy = y*(x^2 - 2)\n", "a vertical line of equilibria at an irrational abscissa"),
    # x^2 + 1 is divided out, and x + y is a common factor in both variables
    ("dx = (x^2+1)*(x+y)*y\ndy = (x^2+1)*(x+y)*(y-1)\n", "a curve of equilibria"),
])
def test_lines_of_equilibria_are_named_by_their_axis(source, named):
    with pytest.raises(PositiveDimensionalError, match=named):
        finite_equilibria(parse_system(source))


def test_records_sorted_and_unique():
    records = finite_equilibria(leslie_system(F(1), F(1), F(1, 2)))
    keys = [(rec.point.x.approx(), rec.point.y.approx()) for rec in records]
    assert keys == sorted(keys)
    assert len({rec.point.exact_pair() for rec in records}) == len(records)


def test_classify_point_rejects_non_equilibrium():
    sys = leslie_system(F(1), F(1), F(1, 2))
    with pytest.raises(InputError):
        classify_point(sys, AlgebraicPoint(AlgebraicCoord.of(F(1)), AlgebraicCoord.of(F(1))))


def test_a_point_with_one_irrational_coordinate_needs_its_rur():
    # (sqrt 2, 0) of dx = x^2 - 2, dy = y, built without its RUR: one
    # coordinate is irrational, and the messages say one, not two
    sys = parse_system("dx = x^2 - 2\ndy = y\n")
    p = UPoly.from_mpoly(sys.P, "x")
    (root,) = [ri for ri in isolate_real_roots(p) if ri.lo >= 0]
    pt = AlgebraicPoint(root, AlgebraicCoord.of(F(0)))
    with pytest.raises(InputError, match="^a point with an irrational coordinate needs its parametrization$"):
        classify_point(sys, pt)
    # the box of the coordinate intervals holds the zero of P
    with pytest.raises(ValueError, match="^a point with an irrational coordinate needs its RUR$"):
        pt.sign(sys.P)


def test_fragment_shape():
    a, b, c = F(1), F(1), F(1, 2)
    records = leslie_labels(finite_equilibria(leslie_system(a, b, c)), a, b, c)
    frag = equilibrium_fragment(_record_by_point(records, F(1, 4), F(3, 4)))
    assert frag["label"] == "Estar"
    assert frag["classification"] == STABLE_FOCUS
    assert frag["x"] == "1/4"
    assert frag["trace"] == "-15/16"
    assert frag["det"] == "9/32"
    assert frag["discriminant"] == "-63/256"
    assert len(frag["eigenvalues_approx"]) == 2


def test_negative_determinant_is_a_saddle_whatever_the_trace():
    # Jacobian diag(2x, 2y): at (sqrt2, -sqrt2) and (-sqrt2, sqrt2) the trace
    # is an exact zero no interval refinement resolves, and det = -8
    records = finite_equilibria(parse_system("dx = x^2 - 2\ndy = y^2 - 2\n"))
    assert len(records) == 4
    mixed = [rec for rec in records if rec.point.x.sign() != rec.point.y.sign()]
    assert len(mixed) == 2
    assert all(rec.classification == SADDLE for rec in mixed)


def _oracle_eigenvalues(tr: Fraction, disc: Fraction):
    """(tr -+ sqrt(disc)) / 2 in 1500-digit decimal arithmetic, enough for
    the cancellation in the smaller root of the inputs below."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 1500, decimal.MAX_EMAX, decimal.MIN_EMIN
        t = decimal.Decimal(tr.numerator) / tr.denominator
        d = decimal.Decimal(disc.numerator) / disc.denominator
        r = abs(d).sqrt()
        if disc >= 0:
            return [(F((t - r) / 2), F(0)), (F((t + r) / 2), F(0))]
        return [(F(t / 2), F(r / 2)), (F(t / 2), F(-r / 2))]


_NUMBER = r"-?[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?"


def _parsed(text: str):
    if re.fullmatch(_NUMBER, text):
        return F(text), F(0)
    m = re.fullmatch(rf"({_NUMBER})([+-])({_NUMBER})i", text)
    assert m, text
    return F(m[1]), F(m[3]) * (1 if m[2] == "+" else -1)


def _close(got: Fraction, want: Fraction) -> bool:
    return abs(got - want) <= F(1, 10**5) * abs(want)


def test_eigenvalues_past_the_float_range_are_approximated():
    # disc = (2^1000 + 1)(2^1000 - 3) is past the float range: the
    # eigenvalues are about 2^1000 and 1, the latter read as det / 2^1000
    sys = parse_system("dx = 2^1000*x - y\ndy = x + y - 1\n")
    (frag,) = analyze_report(sys)["finite_equilibria"]
    got = [_parsed(s) for s in frag["eigenvalues_approx"]]
    want = _oracle_eigenvalues(F(frag["trace"]), F(frag["discriminant"]))
    assert all(_close(g[0], w[0]) for g, w in zip(got, want)), frag["eigenvalues_approx"]
    assert abs(got[0][0] - 1) < F(1, 10**5) and _close(got[1][0], F(2**1000))


@pytest.mark.parametrize(
    "tr, disc",
    [
        (F(2**1100), F(0)),  # a double eigenvalue 2^1099
        (F(2**1100), F(2**2200)),  # det = 0: eigenvalues 0 and 2^1100
        (F(-(2**1100)), F(3)),  # two eigenvalues near -2^1099
        (F(3), -F(2**2100)),  # a complex pair of imaginary part 2^1049
        (-F(2**1030, 7), F(2**2000, 3)),  # both near -2^1030 / 14, with denominators
        (F(2**1100), F(2**2200) - F(4, 2**100)),  # the other is 2^-1200, below the float range
    ],
)
def test_eigenvalues_past_the_float_range_match_a_decimal_oracle(tr, disc):
    got = [_parsed(s) for s in equilibria._eig_approx(tr, disc)]
    want = _oracle_eigenvalues(tr, disc)
    for (gre, gim), (wre, wim) in zip(got, want):
        assert _close(gre, wre) and _close(gim, wim), (got, want)
