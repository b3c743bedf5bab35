"""Univariate polynomials, Sturm isolation, and resultants.

Oracles: root counts are cross-checked by dense sign-change scans,
constructed root sets by the from_roots factorization, and resultants
by the product formula Res(f, g) = lc(f)^deg(g) * prod g(root_i).
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, strategies as st

from pdisc.exactalg import (
    MPoly,
    UPoly,
    isolate_real_roots,
    refine_root,
    resultant_wrt,
    sylvester_resultant,
)
from pdisc.exactalg.roots import cauchy_bound, sign_variations, sturm_chain

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)


def _sign_scan_count(p: UPoly, lo: Fraction, hi: Fraction, steps: int = 600) -> int:
    """Count sign changes of p on a dense grid: lower bound on roots."""
    count = 0
    prev = p.sign_at(lo)
    for k in range(1, steps + 1):
        t = lo + (hi - lo) * k / steps
        s = p.sign_at(t)
        if s == 0:
            count += 1
            prev = -prev if prev != 0 else 0
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


@given(st.lists(small_rationals, min_size=1, max_size=4, unique=True))
def test_isolation_finds_constructed_roots(roots):
    p = UPoly.from_roots(roots)
    isolated = isolate_real_roots(p)
    assert len(isolated) == len(roots)
    for target in sorted(roots):
        hits = [ri for ri in isolated if ri.lo <= target <= ri.hi]
        assert len(hits) == 1


@given(st.lists(small_rationals, min_size=1, max_size=3, unique=True))
def test_isolation_count_matches_sign_scan(roots):
    # multiply in a real-root-free quadratic to add distractor coefficients
    p = UPoly.from_roots(roots) * UPoly((Fraction(1), Fraction(0), Fraction(1)))
    bound = cauchy_bound(p)
    assert _sign_scan_count(p, -bound, bound) == len(isolate_real_roots(p))


def test_isolation_collapses_multiplicities():
    p = UPoly.from_roots([Fraction(1), Fraction(1), Fraction(-2)])
    isolated = isolate_real_roots(p)
    assert len(isolated) == 2


def test_refine_sqrt_two():
    p = UPoly((Fraction(-2), Fraction(0), Fraction(1)))
    pos = [ri for ri in isolate_real_roots(p) if ri.hi > 0]
    assert len(pos) == 1
    ri = refine_root(p, pos[0], Fraction(1, 2**50))
    mid = (ri.lo + ri.hi) / 2
    assert abs(float(mid) ** 2 - 2.0) < 1e-12
    assert ri.hi - ri.lo <= Fraction(1, 2**50)


def test_exact_rational_root_detected():
    p = UPoly.from_roots([Fraction(3, 7)])
    (ri,) = isolate_real_roots(p)
    assert ri.lo <= Fraction(3, 7) <= ri.hi


def test_rational_recovery_at_both_widths():
    # the rational root theorem recovers a rational root whatever its
    # denominator: 3/7, 5/(2^20+1) and 1/(2^36+1) alike
    sqrt2 = UPoly((Fraction(-2), Fraction(0), Fraction(1)))
    for root in (Fraction(3, 7), Fraction(5, 2**20 + 1)):
        isolated = isolate_real_roots(UPoly.from_roots([root]) * sqrt2)
        assert len(isolated) == 3
        assert [ri.exact for ri in isolated if ri.is_exact] == [root]
    root = Fraction(1, 2**36 + 1)
    (ri,) = isolate_real_roots(UPoly.from_roots([root]))
    assert ri.is_exact and ri.exact == root


@given(st.lists(small_rationals, min_size=0, max_size=3))
def test_cauchy_bound_contains_roots(roots):
    p = UPoly.from_roots(roots) if roots else UPoly((Fraction(1), Fraction(1)))
    b = cauchy_bound(p)
    for r in roots:
        assert -b <= r <= b


@given(
    st.lists(small_rationals, min_size=1, max_size=3, unique=True),
    st.lists(small_rationals, min_size=1, max_size=3, unique=True),
)
def test_gcd_extracts_common_factor(ra, rb):
    common = UPoly.from_roots([Fraction(5)])
    f = UPoly.from_roots(ra) * common
    g = UPoly.from_roots(rb) * common
    h = f.gcd(g)
    assert h.eval(Fraction(5)) == 0
    assert f % h == UPoly.zero() or (f % h).is_zero
    assert (g % h).is_zero


@given(
    st.lists(small_rationals, max_size=5),
    st.lists(small_rationals, max_size=5),
    st.lists(small_rationals, max_size=3),
    small_rationals,
)
def test_integer_gcd_and_sign_match_fraction_arithmetic(ca, cb, cc, t):
    # gcd and sign_at run over the integers; the reference is Euclid and
    # Horner over Fraction
    common = UPoly(tuple(cc))
    f, g = UPoly(tuple(ca)) * common, UPoly(tuple(cb)) * common
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
    assert f.gcd(g) == a.monic()
    v = f.eval(t)
    assert f.sign_at(t) == (v > 0) - (v < 0)


@given(st.lists(small_rationals, min_size=2, max_size=5), st.lists(small_rationals, min_size=1, max_size=3))
def test_divmod_identity(ca, cb):
    f = UPoly(tuple(ca))
    g = UPoly(tuple(cb))
    if g.is_zero:
        return
    q, r = f.divmod(g)
    diff_coeffs = [a - b for a, b in zip_pad(coeff_list(q * g + r), coeff_list(f))]
    assert all(c == 0 for c in diff_coeffs)
    assert r.is_zero or r.degree < g.degree


def coeff_list(p: UPoly):
    return list(p.coeffs)


def zip_pad(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return zip(a, b)


def test_squarefree_part_drops_powers():
    p = UPoly.from_roots([Fraction(2), Fraction(2), Fraction(2), Fraction(-1)])
    s = p.squarefree_part()
    assert s.degree == 2
    assert s.eval(Fraction(2)) == 0
    assert s.eval(Fraction(-1)) == 0


def test_sturm_counts_roots_in_window():
    p = UPoly.from_roots([Fraction(-3), Fraction(0), Fraction(4)])
    chain = sturm_chain(p)
    total = sign_variations(chain, Fraction(-10)) - sign_variations(chain, Fraction(10))
    assert total == 3
    half = sign_variations(chain, Fraction(-1)) - sign_variations(chain, Fraction(10))
    assert half == 2


def test_resultant_product_formula():
    x = MPoly.var_x()
    y = MPoly.var_y()
    # f = (x - y)(x - 2), g = x + 3y as polynomials in x
    a = y
    b = MPoly.const(Fraction(2))
    f = (x - a) * (x - b)
    g = x + 3 * y
    res = resultant_wrt(f, g, "x")
    expected = (a + 3 * y) * (b + 3 * y)
    ratio_zero = res - expected
    assert ratio_zero.is_zero or (res + expected).is_zero


def test_resultant_detects_common_factor():
    x = MPoly.var_x()
    y = MPoly.var_y()
    shared = x - y
    f = shared * (x + MPoly.one())
    g = shared * (x - MPoly.const(2))
    assert resultant_wrt(f, g, "x").is_zero


def test_sylvester_matches_resultant_wrt():
    x = MPoly.var_x()
    y = MPoly.var_y()
    f = x * x + y * x + MPoly.one()
    g = 2 * x + y * y
    direct = resultant_wrt(f, g, "x")
    fc = f.coeffs_in("x")
    gc = g.coeffs_in("x")
    via_matrix = sylvester_resultant(fc, gc)
    assert (direct - via_matrix).is_zero
