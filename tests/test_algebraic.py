"""Real algebraic numbers, and the layering of the exact kernel.

Oracles: coordinates with closed-form values (sqrt 2, sqrt 3), each
defined by a polynomial with an extra rational factor, so that equality
is decided by the gcd of the two defining polynomials, and a box too wide
to decide a sign at sqrt 2; Sturm counts for every interval `refinements`
yields; and the import statements of `pdisc.exactalg`, read with `ast`.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import pdisc.exactalg
from pdisc.exactalg import AlgebraicCoord, AlgebraicPoint, MPoly, Rur, UPoly, isolate_real_roots
from pdisc.exactalg.algebraic import box_sign
from pdisc.exactalg.roots import refinements, sturm_chain

from sturm import sign_variations

F = Fraction

def _positive_irrational_root(p: UPoly) -> AlgebraicCoord:
    (root,) = [rt for rt in isolate_real_roots(p) if rt.exact is None and rt.lo >= 0]
    return root


def test_irrational_compare_decides_equality_by_gcd():
    t = UPoly.variable()
    sqrt2 = _positive_irrational_root(t * t - 2)
    sqrt2_too = _positive_irrational_root((t * t - 2) * (t - 5))
    sqrt3 = _positive_irrational_root((t * t - 3) * (t + 1))
    assert sqrt2.compare(sqrt2_too) == 0
    assert sqrt2_too.compare(sqrt2) == 0
    assert sqrt2_too.compare(sqrt3) == -1
    assert sqrt3.compare(sqrt2_too) == 1
    assert sqrt2.compare(sqrt3) == -1


def test_isolation_returns_a_rational_root_as_an_exact_coordinate():
    t = UPoly.variable()
    p = (3 * t - 2) * (t * t - 2)
    roots = isolate_real_roots(p)
    assert [rt.is_exact for rt in roots] == [False, True, False]
    root = roots[1]
    assert root.lo == root.hi == root.exact == F(2, 3)
    assert root == AlgebraicCoord.of(F(2, 3))


def test_an_interval_coordinate_needs_its_poly_and_ordered_ends():
    t = UPoly.variable()
    assert AlgebraicCoord(F(1), F(2), t * t - 2).exact is None
    for args in ((F(1), F(2)), (F(2), F(1)), (F(2), F(1), t * t - 2)):
        with pytest.raises(ValueError, match="interval coordinate needs lo < hi and its polynomial"):
            AlgebraicCoord(*args)


def test_point_sign_leaves_a_box_that_holds_0_to_the_rur():
    # at (sqrt 2, 1) with the first isolating interval of sqrt 2, the box
    # holds 0 for x - 1.414 and x - 1.415, so their signs come from the RUR
    t, one = UPoly.variable(), UPoly.const(1)
    sqrt2 = _positive_irrational_root(t * t - 2)
    pt = AlgebraicPoint(sqrt2, AlgebraicCoord.of(1), (Rur(t * t - 2, t, one, one), sqrt2))
    box = (pt.x.interval(), pt.y.interval())
    x, y = MPoly.var_x(), MPoly.var_y()
    near = [x - MPoly.const(F(1414, 1000)), x - MPoly.const(F(1415, 1000)), x * x - 2 * y]
    assert [box_sign(f, *box) for f in near] == [0, 0, 0]
    assert [pt.sign(f) for f in near] == [1, -1, 0]
    assert pt.sign(x * y) == 1 and pt.sign(-y) == -1


def test_exactalg_imports_nothing_else_from_pdisc():
    # the kernel sits below every other module, so no import cycle reaches it
    for path in sorted(Path(pdisc.exactalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom):
                assert node.level <= 1, (path.name, node.module)
                modules = [node.module or ""] if node.level == 0 else []
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for name in modules:
                if name.split(".")[0] == "pdisc":
                    assert name.split(".")[:2] == ["pdisc", "exactalg"], (path.name, name)


@given(st.integers(2, 60).filter(lambda k: int(k**0.5) ** 2 != k), st.lists(st.integers(-9, 9), max_size=2))
def test_refinements_isolate_the_root_at_every_step(k, extra):
    t = UPoly.variable()
    s = t * t - k
    for r in sorted(set(extra)):
        s = s * (t - r)
    (root,) = [rt for rt in isolate_real_roots(s) if rt.exact is None and rt.lo > 0]
    chain = sturm_chain(s)
    prev, step = None, 4
    for r in islice(refinements(root), 8):
        assert r.exact is None
        assert sign_variations(chain, r.lo) - sign_variations(chain, r.hi) == 1
        assert r.lo * r.lo < k < r.hi * r.hi
        if prev is not None:
            assert prev.lo <= r.lo and r.hi <= prev.hi
            assert r.width <= prev.width / step
            step = min(step * step, 2**64)
        prev = r
