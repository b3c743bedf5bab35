"""Finite equilibria: exact location, linearization, classification.

Oracles: Jacobians are rebuilt from closed forms, float eigenvalues come
from the quadratic formula, algebraic coordinates are cross-checked by
interval bisection, and the semi-hyperbolic coefficient is compared with
the closed-form value of the collapsed case.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

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
from pdisc.errors import InputError, PositiveDimensionalError
from pdisc.exactalg import AlgebraicCoord, AlgebraicPoint, UPoly, isolate_real_roots
from pdisc.modelio import leslie_system, parse_system

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
    root = [ri for ri in isolate_real_roots(p) if ri.hi > 0][0]
    coord = AlgebraicCoord.from_root(p, root)
    assert coord.sign() == 1
    assert coord.compare(AlgebraicCoord.of(F(1))) == 1
    assert coord.compare(AlgebraicCoord.of(F(3, 2))) == -1
    assert coord.compare(AlgebraicCoord.of(F(141421356, 100000000))) == 1
    twin = AlgebraicCoord.from_root(p, root)
    assert coord.compare(twin) == 0
    neg = [ri for ri in isolate_real_roots(p) if ri.hi <= 0][0]
    other = AlgebraicCoord.from_root(p, neg)
    assert coord.compare(other) == 1
    assert "root of" in coord.text()


def test_degenerate_input_errors():
    with pytest.raises(InputError):
        finite_equilibria(parse_system("dx = 0\ndy = 0\n"))
    with pytest.raises(PositiveDimensionalError):
        finite_equilibria(parse_system("dx = 0\ndy = y\n"))
    with pytest.raises(PositiveDimensionalError):
        finite_equilibria(parse_system("dx = x*y\ndy = x*y\n"))


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
