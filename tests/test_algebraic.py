"""Real algebraic numbers, and the layering of the exact kernel.

Oracles: coordinates with closed-form values (sqrt 2, sqrt 3), each
defined by a polynomial with an extra rational factor, so that equality
is decided by the gcd of the two defining polynomials; the exact gcd
over Q for the coprimality test mod p, and pairs built with a shared
factor; Sturm counts for every interval `refinements` yields; and the
import statements of `pdisc.exactalg`, read with `ast`.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from itertools import islice
from pathlib import Path

from hypothesis import given, strategies as st

import pdisc.exactalg
from pdisc.exactalg import AlgebraicCoord, UPoly, isolate_real_roots
from pdisc.exactalg.algebraic import refinements
from pdisc.exactalg.roots import sign_variations, sturm_chain
from pdisc.exactalg.upoly import MOD_P, coprime_mod_p

F = Fraction

int_polys = st.lists(st.integers(-20, 20), min_size=1, max_size=6).map(UPoly).filter(lambda p: not p.is_zero)


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


@given(int_polys, int_polys)
def test_coprime_mod_p_is_never_wrong(f, g):
    if coprime_mod_p(f, g):
        assert f.gcd(g).degree == 0


@given(int_polys.filter(lambda p: p.degree >= 1), int_polys, int_polys)
def test_shared_factor_is_never_reported_coprime(h, a, b):
    assert not coprime_mod_p(h * a, h * b)


@given(st.integers(1, 5), st.lists(st.integers(-20, 20), max_size=4), int_polys)
def test_coprime_mod_p_abstains_when_p_divides_a_leading_coefficient(k, middle, g):
    # constant term 1 keeps the coefficients coprime, so the stored
    # leading coefficient stays a multiple of p
    f = UPoly([1, *middle, k * MOD_P])
    assert f.int_coeffs()[-1] % MOD_P == 0
    assert not coprime_mod_p(f, g)
    assert not coprime_mod_p(g, f)


def test_coprime_mod_p_proves_a_coprime_pair():
    t = UPoly.variable()
    assert coprime_mod_p(t * t - 2, t * t - 3)
    assert coprime_mod_p(UPoly.const(7), t * t - 2)
    assert not coprime_mod_p((t * t - 2) * (t - 5), t * t - 2)


@given(st.integers(2, 60).filter(lambda k: int(k**0.5) ** 2 != k), st.lists(st.integers(-9, 9), max_size=2))
def test_refinements_isolate_the_root_at_every_step(k, extra):
    t = UPoly.variable()
    s = (t * t - k) * UPoly.from_roots(sorted(set(extra)))
    (root,) = [rt for rt in isolate_real_roots(s) if rt.exact is None and rt.lo > 0]
    chain = sturm_chain(s)
    prev, step = None, 4
    for r in islice(refinements(s, root), 8):
        assert r.exact is None
        assert sign_variations(chain, r.lo) - sign_variations(chain, r.hi) == 1
        assert r.lo * r.lo < k < r.hi * r.hi
        if prev is not None:
            assert prev.lo <= r.lo and r.hi <= prev.hi
            assert r.width <= prev.width / step
            step = min(step * step, 2**64)
        prev = r
