"""Real algebraic numbers, and the layering of the exact kernel.

Oracles: coordinates with closed-form values (sqrt 2, sqrt 3), each
defined by a polynomial with an extra rational factor, so that equality
is decided by the gcd of the two defining polynomials; and the import
statements of `pdisc.exactalg`, read with `ast`.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pdisc.exactalg
from pdisc.exactalg import AlgebraicCoord, UPoly, isolate_real_roots

F = Fraction


def _positive_irrational_root(p: UPoly) -> AlgebraicCoord:
    (root,) = [rt for rt in isolate_real_roots(p) if rt.exact is None and rt.lo >= 0]
    return AlgebraicCoord.from_root(p, root)


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
