"""Finite equilibria of systems outside the Leslie family.

Oracle: P is a product of lines and Q an ellipse times lines (or the
other way round), so every equilibrium is a line-line intersection
(rational, solved here by Cramer's rule) or a line-ellipse intersection
(the quadratic formula, irrational unless its discriminant is a square).
Classifications at rational points are checked against the exact
Jacobian with an independent sign table.  Fixed cases cover every way
the first subresultant can fail to lift an irrational abscissa,
including points where both curves are singular.  At irrational points
the classes are checked against closed-form Jacobians, including exact
zeros of the trace, determinant or discriminant, and against the float
Jacobian diag(f'(x), f'(y)) of dx = f(x), dy = f(y) for random cubics f.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple, Union

import pytest
from hypothesis import assume, given, settings, strategies as st

import pdisc.equilibria as equilibria
from pdisc.equilibria import (
    CENTER_CANDIDATE,
    DEGENERATE,
    SADDLE,
    STABLE_FOCUS,
    STABLE_NODE,
    UNDETERMINED,
    UNSTABLE_FOCUS,
    UNSTABLE_NODE,
    classify_point,
    finite_equilibria,
    jacobian_at,
)
from pdisc.errors import InputError
from pdisc.exactalg import AlgebraicCoord, AlgebraicPoint, Interval, UPoly, isolate_real_roots
from pdisc.modelio import parse_system

F = Fraction

# an oracle coordinate p + q*sqrt(d): exact when q == 0
Coord = Tuple[Fraction, Fraction, Fraction]
Want = Union[Fraction, float]
Point = Tuple[Coord, Coord]
Line = Tuple[int, int, int]  # a*x + b*y + c
Ellipse = Tuple[int, int, int, int]  # (x - h)^2 + e*(y - k)^2 - r


def _rat(v: Fraction) -> Coord:
    return (F(v), F(0), F(0))


def _sqrt_rat(v: Fraction) -> Optional[Fraction]:
    n, d = v.numerator, v.denominator
    if n >= 0 and math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d:
        return F(math.isqrt(n), math.isqrt(d))
    return None


def _roots(a2: Fraction, a1: Fraction, a0: Fraction) -> List[Coord]:
    """Real roots of a2*t^2 + a1*t + a0 (a2 != 0) as oracle coordinates."""
    disc = a1 * a1 - 4 * a2 * a0
    if disc < 0:
        return []
    mid = -a1 / (2 * a2)
    root = _sqrt_rat(disc)
    if root is not None:
        return sorted({_rat(mid - root / (2 * a2)), _rat(mid + root / (2 * a2))})
    half = 1 / (2 * a2)
    return [(mid, -abs(half), disc), (mid, abs(half), disc)]


def _line_line(l1: Line, l2: Line) -> List[Point]:
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return []
    return [(_rat(F(b1 * c2 - b2 * c1, det)), _rat(F(a2 * c1 - a1 * c2, det)))]


def _line_ellipse(ln: Line, el: Ellipse) -> List[Point]:
    a, b, c = ln
    h, k, e, r = el
    if b == 0:
        x0 = F(-c, a)
        # e*(y - k)^2 = r - (x0 - h)^2
        return [(_rat(x0), y) for y in _roots(F(e), F(-2 * e * k), e * k * k - r + (x0 - h) ** 2)]
    # y = -(a*x + c)/b, times b^2: b^2 (x-h)^2 + e (a x + c + k b)^2 - r b^2
    m = c + k * b
    xs = _roots(F(b * b + e * a * a), F(-2 * h * b * b + 2 * e * a * m), F(b * b * h * h + e * m * m - r * b * b))
    return [(x, (F(-c, b) - F(a, b) * x[0], F(-a, b) * x[1], x[2])) for x in xs]


def _line_text(ln: Line) -> str:
    a, b, c = ln
    return f"({a}*x + {b}*y + {c})"


def _ellipse_text(el: Ellipse) -> str:
    h, k, e, r = el
    return f"((x - {h})^2 + {e}*(y - {k})^2 - {r})"


def _same_line(l1: Line, l2: Line) -> bool:
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    return a1 * b2 == a2 * b1 and a1 * c2 == a2 * c1 and b1 * c2 == b2 * c1


lines = st.tuples(*[st.integers(-3, 3)] * 3).filter(lambda ln: ln[0] != 0 or ln[1] != 0)
ellipses = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(1, 3), st.integers(1, 6))


@st.composite
def line_conic_systems(draw):
    """(source, oracle points) with P of degree 1-3 and Q of degree 2-4."""
    p_lines = draw(st.lists(lines, min_size=1, max_size=3))
    q_lines = draw(st.lists(lines, min_size=0, max_size=2))
    el = draw(ellipses)
    every = p_lines + q_lines
    assume(not any(_same_line(l1, l2) for i, l1 in enumerate(every) for l2 in every[i + 1:]))
    points = set()
    for ln in p_lines:
        points.update(_line_ellipse(ln, el))
        for other in q_lines:
            points.update(_line_line(ln, other))
    p_text = "*".join(_line_text(ln) for ln in p_lines)
    q_text = "*".join([_ellipse_text(el)] + [_line_text(ln) for ln in q_lines])
    if draw(st.booleans()):
        p_text, q_text = q_text, p_text
    return f"dx = {p_text}\ndy = {q_text}\n", sorted(points)


def _expected_class(tr: Fraction, det: Fraction) -> Optional[str]:
    if det < 0:
        return SADDLE
    if det == 0:
        return None
    if tr == 0:
        return CENTER_CANDIDATE
    if tr * tr - 4 * det >= 0:
        return STABLE_NODE if tr < 0 else UNSTABLE_NODE
    return STABLE_FOCUS if tr < 0 else UNSTABLE_FOCUS


def _want(c: Coord) -> Union[Fraction, float]:
    """An exact coordinate as its Fraction, an irrational one as a float."""
    return c[0] if c[1] == 0 else float(c[0]) + float(c[1]) * math.sqrt(c[2])


def _check(source: str, points: List[Tuple[Want, Want]], classes: bool = True) -> List:
    """finite_equilibria matches the points: count, exactness, values, and
    classification against the exact Jacobian at rational points."""
    sys = parse_system(source)
    records = finite_equilibria(sys)
    assert len(records) == len(points), source
    for x, y in points:
        close = [
            rec for rec in records
            if abs(rec.point.x.approx() - x) < 1e-9 and abs(rec.point.y.approx() - y) < 1e-9
        ]
        assert len(close) == 1, (source, x, y)
        rec = close[0]
        for coord, want in ((rec.point.x, x), (rec.point.y, y)):
            assert coord.is_exact == isinstance(want, Fraction), (source, x, y)
            if coord.is_exact:
                assert coord.exact == want, (source, x, y)
        if classes and rec.point.is_exact:
            x0, y0 = rec.point.exact_pair()
            a, b = (sys.P.diff(v).eval_rat(x0, y0) for v in "xy")
            c, d = (sys.Q.diff(v).eval_rat(x0, y0) for v in "xy")
            assert rec.det == a * d - b * c and rec.trace == a + d
            expected = _expected_class(a + d, a * d - b * c)
            if expected is not None:
                assert rec.classification == expected, (source, x0, y0)
    return records


@settings(max_examples=25)
@given(line_conic_systems())
def test_line_conic_systems_match_closed_forms(case):
    source, points = case
    _check(source, [(_want(x), _want(y)) for x, y in points])


S2, S3, S5, S14 = (math.sqrt(v) for v in (2, 3, 5, 14))
PHI = (1 + S5) / 2

# source -> (whether _lift must shear, closed-form points)
FIXED = {
    # P has no y: two points above each irrational abscissa
    "dx = x^2 - 2\ndy = y^2 - 3\n": (True, [(sx * S2, sy * S3) for sx in (-1, 1) for sy in (-1, 1)]),
    # Q has no y, two points above each abscissa
    "dx = x^2 + y^2 - 4\ndy = x^2 - 2\n": (True, [(sx * S2, sy * S2) for sx in (-1, 1) for sy in (-1, 1)]),
    "dx = x^2 - 2\ndy = y - x\n": (True, [(-S2, -S2), (S2, S2)]),
    # the benchmark's two irrational-saddle inputs
    "dx = x^2 - 2\ndy = y^2 - x*y - 3\n": (True, [
        (sx * S2, (sx * S2 + sy * S14) / 2) for sx in (-1, 1) for sy in (-1, 1)
    ]),
    # Q has y-degree 1: y = 1/x, x = +-phi or +-1/phi
    "dx = x^2 + y^2 - 3\ndy = x*y - 1\n": (False, [(x, 1 / x) for x in (PHI, -PHI, 1 / PHI, -1 / PHI)]),
    # both sides have y, but their fibers above x = +-sqrt2 share a quadratic
    "dx = x^2 + y^2 - 5\ndy = y^2 - 3\n": (True, [(sx * S2, sy * S3) for sx in (-1, 1) for sy in (-1, 1)]),
    "dx = y^2 - x^2\ndy = (x^2 - 2)*(y + 5)\n": (True, [
        (sx * S2, sy * S2) for sx in (-1, 1) for sy in (-1, 1)
    ] + [(F(-5), F(-5)), (F(5), F(-5))]),
    # both y-leading coefficients vanish above x = +-sqrt2
    "dx = (x^2-2)*y^2 + y - 1\ndy = (x^2-2)*y^3 + y - 1\n": (True, [(-S2, F(1)), (S2, F(1))]),
    # both curves are singular at the points above x = +-sqrt2, so every
    # fiber gcd there has degree 2: the shear lifts them with S2
    "dx = (x^2-2)*(y-1)\ndy = (y-1)^2 + (x^2-2)^2\n": (True, [(-S2, F(1)), (S2, F(1))]),
    "dx = (x^2-2)*(y^2-3)\ndy = (y^2-3)^2 + (x^2-2)^2\n": (True, [
        (sx * S2, sy * S3) for sx in (-1, 1) for sy in (-1, 1)
    ]),
    # above x = +-sqrt2 the fiber gcd (y-1)^2*(y-5) is S3 but not a cube
    "dx = (y-1)^2*(y-5) + (x^2-2)^2\ndy = (y-1)^2*(y-5) + (x^2-2)*(y-1)\n": (True, [
        (sx * v, w) for sx in (-1, 1) for v, w in ((S2, F(1)), (S2, F(5)), (S5, F(4)))
    ]),
    # y^2 + 1 is a common factor without real points, divided out before
    # elimination (Res_y(P, Q) would vanish)
    "dx = (y^2+1)*(x-1)\ndy = (y^2+1)*(y-2)\n": (False, [(F(1), F(2))]),
    # stripped of y^2 + 1 it is x^2 - 2, y - x above, so it shears too
    "dx = (y^2+1)*(x^2-2)\ndy = (y^2+1)*(y-x)\n": (True, [(-S2, -S2), (S2, S2)]),
    # the mirror: x^2 + 1 is stripped, leaving y^2 - 2, y - x
    "dx = (x^2+1)*(y^2-2)\ndy = (x^2+1)*(y-x)\n": (False, [(-S2, -S2), (S2, S2)]),
}


@pytest.mark.parametrize("source", sorted(FIXED))
def test_fixed_irrational_systems(source, monkeypatch):
    shears = []
    lift = equilibria._lift

    def spy(p, q, t, *rest):
        shears.append(t)
        return lift(p, q, t, *rest)

    monkeypatch.setattr(equilibria, "_lift", spy)
    sheared, points = FIXED[source]
    _check(source, points)
    assert any(shears) == sheared


@pytest.mark.parametrize("source", [
    "dx = (y^2+1)*(x^2-2)\ndy = (y^2+1)*(y-x)\n",
    "dx = (x^2+1)*(y^2-2)\ndy = (x^2+1)*(y-x)\n",
])
def test_one_variable_common_factors_leave_no_trace_in_the_coordinates(source):
    # the factor without real roots is divided out before elimination, so
    # neither defining polynomial carries it
    for rec in finite_equilibria(parse_system(source)):
        assert str(rec.point.x.poly) == str(rec.point.y.poly) == "t^2 - 2"


def test_points_singular_on_both_curves_are_degenerate():
    records = _check("dx = (x^2-2)*(y-1)\ndy = (y-1)^2 + (x^2-2)^2\n", [(-S2, F(1)), (S2, F(1))])
    assert [rec.classification for rec in records] == [DEGENERATE, DEGENERATE]


def test_sheared_points_are_classified():
    records = _check("dx = x^2 - 2\ndy = y^2 - 3\n", FIXED["dx = x^2 - 2\ndy = y^2 - 3\n"][1])
    # the Jacobian is diag(2x, 2y)
    by_quadrant = {(rec.point.x.sign(), rec.point.y.sign()): rec.classification for rec in records}
    assert by_quadrant == {
        (1, 1): UNSTABLE_NODE, (-1, -1): STABLE_NODE, (1, -1): SADDLE, (-1, 1): SADDLE,
    }


def test_pairing_reads_no_residual_box(monkeypatch):
    """With every residual enclosure straddling zero, only the certified
    pairing can tell the two points of x = 2y, x^2 + y^2 = 3 from the
    two wrong pairs of the same coordinates."""
    monkeypatch.setattr(equilibria, "eval_box", lambda p, ix, iy: Interval(-1, 1))
    y = math.sqrt(3 / 5)
    _check("dx = x^2 + y^2 - 3\ndy = x - 2*y\n", [(-2 * y, -y), (2 * y, y)], classes=False)


def _diagonal_class(fx: float, fy: float) -> str:
    """The class of an equilibrium with Jacobian diag(fx, fy), fx, fy != 0."""
    if fx * fy < 0:
        return SADDLE
    return STABLE_NODE if fx < 0 else UNSTABLE_NODE


# source -> (number of points, class as a function of the point), from the
# closed-form Jacobian; every point has two irrational coordinates
CLOSED_FORM = {
    # diag(2x, 2y): the discriminant (2x - 2y)^2 is 0 at the nodes
    "dx = x^2 - 2\ndy = y^2 - 2\n": (4, lambda x, y: _diagonal_class(2 * x, 2 * y)),
    # diag(3x^2 - 3, 3y^2 - 3): the discriminant is 0 on the diagonal
    "dx = x^3 - 3*x + 1\ndy = y^3 - 3*y + 1\n": (
        9, lambda x, y: _diagonal_class(3 * x * x - 3, 3 * y * y - 3)
    ),
    # [[2x, -4y], [4x, -2y]] at x^2 = y^2 = 2: trace 2x - 2y, det 12xy
    "dx = x^2 - 2*y^2 + 2\ndy = 2*x^2 - y^2 - 2\n": (
        4, lambda x, y: CENTER_CANDIDATE if x * y > 0 else SADDLE
    ),
    # [[2x, 2y], [2x, 0]]: det -4xy, trace 2x, discriminant 4x^2 + 16xy;
    # the shear u = x + y puts two points above the rational u = 0
    "dx = x^2 + y^2 - 4\ndy = x^2 - 2\n": (
        4, lambda x, y: SADDLE if x * y > 0 else (UNSTABLE_FOCUS if x > 0 else STABLE_FOCUS)
    ),
    # both curves singular at every point: det = tr = 0
    "dx = (x^2-2)*(y^2-3)\ndy = (y^2-3)^2 + (x^2-2)^2\n": (4, lambda x, y: DEGENERATE),
    "dx = (x^2-2)*(y-x)\ndy = (y-x)^2 + (x^2-2)^2\n": (2, lambda x, y: DEGENERATE),
}


@pytest.mark.parametrize("source", sorted(CLOSED_FORM))
def test_irrational_points_match_closed_form_classes(source):
    count, expected = CLOSED_FORM[source]
    records = finite_equilibria(parse_system(source))
    assert len(records) == count
    for rec in records:
        assert not rec.point.x.is_exact and not rec.point.y.is_exact
        assert rec.classification == expected(*rec.point.approx()), (source, rec.point.approx())


def test_irrational_records_leave_the_jacobian_to_the_portrait():
    # a rational point keeps its exact Jacobian; at an irrational one
    # only the portrait reads it, enclosing it on demand from the point
    sys = parse_system("dx = (x^2 - 2)*(x - 1)\ndy = y - x\n")
    records = finite_equilibria(sys)
    rational = [rec for rec in records if rec.point.is_exact]
    irrational = [rec for rec in records if not rec.point.is_exact]
    assert [rec.jacobian for rec in rational] == [((F(-1), F(0)), (F(-1), F(1)))]
    assert len(irrational) == 2
    for rec in irrational:
        assert rec.jacobian is None
        (a, _), _ = jacobian_at(sys, rec.point)
        # dP/dx = 4 - 2x at x^2 = 2
        assert abs(float((a.lo + a.hi) / 2) - (4 - 2 * rec.point.approx()[0])) < 1e-12


def _cubic_roots(b: int, c: int, d: int) -> List[float]:
    """The three real roots of t^3 + b t^2 + c t + d, trigonometrically."""
    p = c - b * b / 3
    q = 2 * b**3 / 27 - b * c / 3 + d
    m = 2 * math.sqrt(-p / 3)
    phi = math.acos(max(-1.0, min(1.0, 3 * q / (p * m))))
    return sorted(m * math.cos((phi - 2 * math.pi * k) / 3) - b / 3 for k in range(3))


@st.composite
def irrational_cubics(draw):
    """(b, c, d) for t^3 + b t^2 + c t + d with three irrational real roots."""
    b, c, d = (draw(st.integers(-6, 6)) for _ in range(3))
    # a rational root of a monic integer cubic is an integer dividing d
    divisors = [k for k in range(-abs(d), abs(d) + 1) if k and d % k == 0]
    assume(d != 0 and all(k**3 + b * k * k + c * k + d for k in divisors))
    assume(18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d > 0)
    return b, c, d


@settings(max_examples=15, deadline=None)
@given(irrational_cubics())
def test_separable_cubic_systems_match_the_float_jacobian(coeffs):
    b, c, d = coeffs
    f = f"x^3 + {b}*x^2 + {c}*x + {d}"
    source = f"dx = {f}\ndy = {f.replace('x', 'y')}\n"
    roots = _cubic_roots(b, c, d)
    slope = [3 * r * r + 2 * b * r + c for r in roots]
    records = finite_equilibria(parse_system(source))
    assert len(records) == 9
    for rec in records:
        x, y = rec.point.approx()
        i = min(range(3), key=lambda k: abs(roots[k] - x))
        j = min(range(3), key=lambda k: abs(roots[k] - y))
        assert abs(roots[i] - x) < 1e-9 and abs(roots[j] - y) < 1e-9, source
        assert rec.classification == _diagonal_class(slope[i], slope[j]), (source, x, y)
        assert rec.classification != UNDETERMINED


def test_irrational_non_equilibrium_is_rejected():
    sys = parse_system("dx = x^2 - 2\ndy = y - 1\n")
    p = UPoly((F(-2), F(0), F(1)))
    root = [ri for ri in isolate_real_roots(p) if ri.lo > 0][0]
    with pytest.raises(InputError):
        classify_point(sys, AlgebraicPoint(AlgebraicCoord.from_root(p, root), AlgebraicCoord.of(0)))
