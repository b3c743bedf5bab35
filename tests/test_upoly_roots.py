"""Univariate polynomials, Sturm isolation, and resultants.

Oracles: root counts are cross-checked by dense sign-change scans,
constructed root sets by the from_roots factorization, and resultants
by the product formula Res(f, g) = lc(f)^deg(g) * prod g(root_i).
UPoly stores primitive integer coefficients; its arithmetic, Sturm
chains and bisection are checked against plain tuple-of-Fraction
references kept in this file, and the exact signs of a rational
univariate representation against an enclosure over a tiny box.
"""

from __future__ import annotations

from fractions import Fraction

import math
from typing import Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from pdisc.equilibria import finite_equilibria
from pdisc.exactalg import (
    AlgebraicCoord,
    MPoly,
    UPoly,
    isolate_real_roots,
    refine_root,
    resultant_wrt,
    squarefree_roots,
)
from pdisc.exactalg import roots as roots_module
from pdisc.exactalg import upoly as upoly_module
from pdisc.exactalg.roots import cauchy_bound, sturm_chain
from pdisc.modelio import parse_system

from enclosure import box_enclosure
from sturm import sign_variations

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)


def from_roots(roots) -> UPoly:
    """The monic polynomial whose roots, with their multiplicities, are `roots`."""
    p = UPoly.const(1)
    for r in roots:
        p = p * UPoly((-Fraction(r), 1))
    return p


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
    p = from_roots(roots)
    isolated = isolate_real_roots(p)
    assert len(isolated) == len(roots)
    for target in sorted(roots):
        hits = [ri for ri in isolated if ri.lo <= target <= ri.hi]
        assert len(hits) == 1


@given(st.lists(small_rationals, min_size=1, max_size=3, unique=True))
def test_isolation_count_matches_sign_scan(roots):
    # multiply in a real-root-free quadratic to add distractor coefficients
    p = from_roots(roots) * UPoly((Fraction(1), Fraction(0), Fraction(1)))
    bound = cauchy_bound(p)
    # two roots, of denominator at most 8, lie at least 1/56 apart: a grid
    # of step at most 1/64 puts them in different steps
    steps = math.ceil(128 * bound)
    assert _sign_scan_count(p, -bound, bound, steps) == len(isolate_real_roots(p))


def test_isolation_collapses_multiplicities():
    p = from_roots([Fraction(1), Fraction(1), Fraction(-2)])
    isolated = isolate_real_roots(p)
    assert len(isolated) == 2


def test_isolation_builds_one_chain_and_records_midpoint_roots(monkeypatch):
    # 2t^4 - 3t^3 - 4t^2 + 6t = t (2t - 3) (t^2 - 2) has Cauchy bound 4:
    # 0 is the first bisection midpoint and 3/2 the fourth, and each of
    # +-sqrt(2) first shares an interval with a root at an endpoint
    calls = []

    def counted(p):
        calls.append(p)
        return sturm_chain(p)

    monkeypatch.setattr(roots_module, "sturm_chain", counted)
    p = from_roots([Fraction(0), Fraction(3, 2)]) * UPoly((-2, 0, 1))
    for q, chains in ((p, 1), (p * p * UPoly((-3, 2)), 2)):
        calls.clear()
        isolated = isolate_real_roots(q)
        assert len(calls) == chains
        assert [ri.exact for ri in isolated] == [None, Fraction(0), None, Fraction(3, 2)]
        for ri in isolated[0::2]:
            assert p.sign_at(ri.lo) * p.sign_at(ri.hi) == -1
            assert (ri.lo**2 - 2) * (ri.hi**2 - 2) < 0


def _count_remainder_sequences(monkeypatch) -> list:
    """Record the (a, b) pair of every remainder sequence run, in both
    modules that bind it, each up to a nonzero constant factor."""
    calls = []
    run = upoly_module.remainder_sequence

    def key(u: UPoly) -> tuple:
        c = u.int_coeffs()
        return tuple(-v for v in c) if c and c[-1] < 0 else tuple(c)

    def counted(a, b):
        calls.append((key(a), key(b)))
        return run(a, b)

    monkeypatch.setattr(upoly_module, "remainder_sequence", counted)
    monkeypatch.setattr(roots_module, "remainder_sequence", counted)
    return calls


def test_squarefree_roots_runs_one_remainder_sequence_on_square_free_input(monkeypatch):
    calls = _count_remainder_sequences(monkeypatch)
    # -(t (2t - 3) (t^2 - 2)): a negative leading coefficient, made monic
    p = -(from_roots([Fraction(0), Fraction(3, 2)]) * UPoly((-2, 0, 1)))
    five = UPoly((-5, 1))
    for q, part, sequences in ((p, p, 1), (p * p * five, p * five, 2)):
        calls.clear()
        s, isolated = squarefree_roots(q)
        assert len(calls) == sequences
        assert s == part.monic()
        assert isolated == isolate_real_roots(q)


def test_elimination_runs_each_remainder_sequence_once(monkeypatch):
    # the dense degree-6 system: Res_y and Res_x are square-free, and each
    # is reduced and isolated over one remainder sequence
    calls = _count_remainder_sequences(monkeypatch)
    sys = parse_system(
        "dx = x^6 - 3*x^2*y^3 + y^4 - 2*x + 1\ndy = y^6 - x*y^4 + 2*x^2 - y - 3\n"
    )
    finite_equilibria(sys)
    nontrivial = [pair for pair in calls if pair[1]]  # gcd(c, 0) runs no division
    assert max(len(a) for a, _ in nontrivial) == 37
    assert len(nontrivial) == len(set(nontrivial))


@given(
    st.lists(st.integers(-12, 12), min_size=1, max_size=4, unique=True),
    st.integers(0, 3),
    st.sampled_from([2, 3, 5]),
)
def test_isolation_on_dyadic_roots_matches_constructed_roots(nums, shift, k):
    # dyadic roots fall on bisection midpoints; +-sqrt(k) lie beside them
    roots = sorted(Fraction(n, 2**shift) for n in nums)
    p = from_roots(roots) * UPoly((-k, 0, 1))
    isolated = isolate_real_roots(p)
    assert [ri.exact for ri in isolated if ri.is_exact] == roots
    inexact = [ri for ri in isolated if not ri.is_exact]
    assert len(inexact) == 2
    for ri in inexact:
        assert p.sign_at(ri.lo) * p.sign_at(ri.hi) == -1
        assert (ri.lo**2 - k) * (ri.hi**2 - k) < 0
    assert all(a.hi < b.lo for a, b in zip(isolated, isolated[1:]))


@given(
    st.lists(st.just(Fraction(0)) | small_rationals, max_size=4),
    small_rationals,
    st.integers(2, 40).filter(lambda k: math.isqrt(k) ** 2 != k),
    st.integers(1, 2),
    st.integers(-5, 5).filter(bool),
)
def test_squarefree_roots_returns_coordinates_of_its_square_free_part(roots, m, k, power, lead):
    # rational roots with multiplicities, 0 often, the first bisection
    # midpoint; and m +- sqrt(k) from the irreducible quadratic (t - m)^2 - k
    quad = UPoly((m * m - k, -2 * m, 1))
    p = from_roots(roots) * UPoly.const(lead)
    for _ in range(power):
        p = p * quad
    s, isolated = squarefree_roots(p)
    assert [r.exact for r in isolated if r.is_exact] == sorted(set(roots))
    assert all(r.poly == s for r in isolated)
    for r in isolated:
        if r.is_exact:
            assert r.lo == r.hi == r.exact
        else:
            assert r.lo < r.hi and quad.sign_at(r.lo) * quad.sign_at(r.hi) == -1
    assert sum(not r.is_exact for r in isolated) == 2
    assert all(a.hi < b.lo for a, b in zip(isolated, isolated[1:]))
    for r in isolated:
        fine = refine_root(r, Fraction(1, 2**40))
        assert fine.poly == s and fine.is_exact == r.is_exact and r.lo <= fine.lo <= fine.hi <= r.hi


_T = UPoly.variable()

# the factors a closed form reads: a constant, a line, a quadratic with
# two rational roots or a rational double root, and one with no real root
_low_degree_factors = st.one_of(
    st.just(UPoly.const(1)),
    small_rationals.map(lambda r: from_roots([r])),
    st.lists(small_rationals, min_size=2, max_size=2, unique=True).map(from_roots),
    small_rationals.map(lambda r: from_roots([r, r])),
    st.builds(lambda m, e: UPoly((m * m + e * e, -2 * m, 1)), small_rationals, small_rationals.filter(bool)),
)


@given(
    st.builds(
        lambda c, k, f: f * UPoly((0,) * k + (c,)),
        small_rationals.filter(bool),  # a negative c gives a negative leading coefficient
        st.integers(0, 3),
        _low_degree_factors,
    )
)
@example(_T)
@example(7 * _T * _T * _T)
@example(-3 * _T * _T)
@example((2 * _T - 1) * (2 * _T - 1))
@example(_T * _T + 1)
@example(_T * (4 * _T * _T - 1))
@example(UPoly.const(5))
def test_closed_form_matches_the_sturm_path(p):
    # c t^k f, with f of degree <= 2 and only rational real roots, has a
    # closed form; the Sturm path on the same p is the reference
    s, roots = squarefree_roots(p)
    ref_s, ref_roots = roots_module._sturm_roots(p)
    assert s == ref_s
    assert [(r.lo, r.hi, r.poly) for r in roots] == [(r.lo, r.hi, r.poly) for r in ref_roots]


def test_closed_form_is_chosen_from_the_degree_after_the_strip_and_the_discriminant(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return sturm_chain(p)

    monkeypatch.setattr(roots_module, "sturm_chain", counted)
    closed = (
        _T,
        _T * _T * (7 * _T + 2),
        _T * (_T * _T - Fraction(1, 4)),
        _T * _T + 1,
        (2 * _T - 1) * (2 * _T - 1),
        _T * _T * _T - _T,  # t (t^2 - 1) after the strip
    )
    # t^2 - 2: the discriminant 8 is not a square; t^3 - 2: degree 3, no t to strip
    for p, chains in [(p, 0) for p in closed] + [(_T * _T - 2, 1), (_T * _T * _T - 2, 1)]:
        calls.clear()
        squarefree_roots(p)
        assert len(calls) == chains, p


def test_refine_sqrt_two():
    p = UPoly((Fraction(-2), Fraction(0), Fraction(1)))
    pos = [ri for ri in isolate_real_roots(p) if ri.hi > 0]
    assert len(pos) == 1
    ri = refine_root(pos[0], Fraction(1, 2**50))
    mid = (ri.lo + ri.hi) / 2
    assert abs(float(mid) ** 2 - 2.0) < 1e-12
    assert ri.hi - ri.lo <= Fraction(1, 2**50)


def test_exact_rational_root_detected():
    p = from_roots([Fraction(3, 7)])
    (ri,) = isolate_real_roots(p)
    assert ri.lo <= Fraction(3, 7) <= ri.hi


def test_rational_recovery_at_both_widths():
    # the rational root theorem recovers a rational root whatever its
    # denominator: 3/7, 5/(2^20+1) and 1/(2^36+1) alike
    sqrt2 = UPoly((Fraction(-2), Fraction(0), Fraction(1)))
    for root in (Fraction(3, 7), Fraction(5, 2**20 + 1)):
        isolated = isolate_real_roots(from_roots([root]) * sqrt2)
        assert len(isolated) == 3
        assert [ri.exact for ri in isolated if ri.is_exact] == [root]
    root = Fraction(1, 2**36 + 1)
    (ri,) = isolate_real_roots(from_roots([root]))
    assert ri.is_exact and ri.exact == root


@given(st.lists(small_rationals, min_size=0, max_size=3))
def test_cauchy_bound_contains_roots(roots):
    p = from_roots(roots) if roots else UPoly((Fraction(1), Fraction(1)))
    b = cauchy_bound(p)
    for r in roots:
        assert -b <= r <= b


@given(
    st.lists(small_rationals, min_size=1, max_size=3, unique=True),
    st.lists(small_rationals, min_size=1, max_size=3, unique=True),
)
def test_gcd_extracts_common_factor(ra, rb):
    common = from_roots([Fraction(5)])
    f = from_roots(ra) * common
    g = from_roots(rb) * common
    h = f.gcd(g)
    assert _ref_eval(_coeffs(h), Fraction(5)) == 0
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
    v = _ref_eval(_coeffs(f), t)
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


def _coeffs(p: UPoly) -> Tuple[Fraction, ...]:
    """The Fraction coefficients of p, ascending."""
    return tuple(p.content * v for v in p.int_coeffs())


def coeff_list(p: UPoly):
    return list(_coeffs(p))


def zip_pad(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return zip(a, b)


def test_squarefree_part_drops_powers():
    p = from_roots([Fraction(2), Fraction(2), Fraction(2), Fraction(-1)])
    s, _ = squarefree_roots(p)
    assert s.degree == 2
    assert _ref_eval(_coeffs(s), Fraction(2)) == 0
    assert _ref_eval(_coeffs(s), Fraction(-1)) == 0


def test_str_leaves_out_unit_coefficients():
    assert str(UPoly((Fraction(-1), Fraction(-1), Fraction(1)))) == "t^2 - t - 1"
    assert str(UPoly((Fraction(2), Fraction(0), Fraction(-3, 2), Fraction(-1)))) == "-t^3 - 3/2*t^2 + 2"
    assert str(UPoly.zero()) == "0"


def _ref_str(coeffs: Ref) -> str:
    """The text form with one Fraction per coefficient, as UPoly wrote it
    before it read the content and the integers."""
    out = ""
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        mag = abs(c)
        body = str(mag) if k == 0 else ("" if mag == 1 else f"{mag}*") + ("t" if k == 1 else f"t^{k}")
        out = out + (" - " if c < 0 else " + ") + body if out else ("-" if c < 0 else "") + body
    return out or "0"


@pytest.mark.parametrize(
    "coeffs",
    [
        (Fraction(1), Fraction(3, 2), Fraction(0), Fraction(-2)),
        (Fraction(-1), Fraction(1), Fraction(-1)),
        (Fraction(1), Fraction(-1), Fraction(0), Fraction(1)),
        (Fraction(-5, 6), Fraction(4, 3), Fraction(0), Fraction(-2, 9)),
        (Fraction(6, 7), Fraction(0), Fraction(-12, 7)),
        (Fraction(7, 5),),
        (Fraction(-1),),
    ],
    ids=["negative-lead", "negative-unit-lead", "units", "content-with-denominator", "common-factor", "constant", "minus-one"],
)
def test_str_matches_one_fraction_per_coefficient(coeffs):
    assert str(UPoly(coeffs)) == _ref_str(_ref(coeffs))


def test_sturm_counts_roots_in_window():
    p = from_roots([Fraction(-3), Fraction(0), Fraction(4)])
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


def test_resultant_of_constants_and_of_zero():
    x, y = MPoly.var_x(), MPoly.var_y()
    three, five = MPoly.const(3), MPoly.const(5)
    assert resultant_wrt(three, five, "x") == MPoly.one()
    # a side constant in the variable is raised to the other side's degree
    assert resultant_wrt(y, x * x + 1, "x") == y * y
    assert resultant_wrt(x * x + y, three, "y") == three
    for f in (three, x * y + 1):
        assert resultant_wrt(MPoly.zero(), f, "x").is_zero
        assert resultant_wrt(f, MPoly.zero(), "y").is_zero


# ---------------------------------------------------------------------------
# tuple-of-Fraction references for the integer kernel

Ref = Tuple[Fraction, ...]


def _ref(c) -> Ref:
    c = [Fraction(v) for v in c]
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _ref_add(a: Ref, b: Ref) -> Ref:
    n = max(len(a), len(b))
    return _ref((a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n))


def _ref_mul(a: Ref, b: Ref) -> Ref:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref(out)


def _ref_divmod(a: Ref, b: Ref) -> Tuple[Ref, Ref]:
    r, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(r) - 1, len(b) - 2, -1):
        c = r[k] / b[-1]
        q[k - len(b) + 1] = c
        for i, v in enumerate(b):
            r[k - len(b) + 1 + i] -= c * v
    return _ref(q), _ref(r)


def _ref_diff(a: Ref) -> Ref:
    return _ref(k * a[k] for k in range(1, len(a)))


def _ref_monic(a: Ref) -> Ref:
    return tuple(v / a[-1] for v in a) if a else a


def _ref_gcd(a: Ref, b: Ref) -> Ref:
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return _ref_monic(a)


def _ref_squarefree(a: Ref) -> Ref:
    return _ref_monic(_ref_divmod(a, _ref_gcd(a, _ref_diff(a)))[0])


def _ref_eval(a: Ref, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * t + c
    return acc


def _ref_sign(a: Ref, t: Fraction) -> int:
    v = _ref_eval(a, t)
    return (v > 0) - (v < 0)


def _ref_sturm(a: Ref):
    chain = [a, _ref_diff(a)]
    while chain[-1]:
        chain.append(tuple(-v for v in _ref_divmod(chain[-2], chain[-1])[1]))
    chain.pop()
    return chain


def _ref_variations(chain, t: Fraction) -> int:
    signs = [s for s in (_ref_sign(q, t) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_refine_interval(s: Ref, lo: Fraction, hi: Fraction, width: Fraction):
    """Bisection refinement over Fraction, as the kernel ran it before it
    moved to integers."""
    s_lo = _ref_sign(s, lo)
    if s_lo == 0:
        return lo, lo
    if _ref_sign(s, hi) == 0:
        return hi, hi
    while hi - lo > width:
        mid = (lo + hi) / 2
        sm = _ref_sign(s, mid)
        if sm == 0:
            return mid, mid
        if sm == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


coeff_lists = st.lists(small_rationals, max_size=6)


@given(coeff_lists, coeff_lists, coeff_lists, small_rationals, st.integers(-5, 5))
def test_integer_ring_ops_match_fraction_reference(ca, cb, cc, t, k):
    f, g, h = UPoly(tuple(ca)), UPoly(tuple(cb)), UPoly(tuple(cc))
    rf, rg, rh = _ref(ca), _ref(cb), _ref(cc)
    assert _coeffs(f) == rf
    assert _coeffs(f + g) == _ref_add(rf, rg)
    assert _coeffs(f - g) == _ref_add(rf, tuple(-v for v in rg))
    assert _coeffs(f * g) == _ref_mul(rf, rg)
    assert _coeffs(f * g * h) == _ref_mul(_ref_mul(rf, rg), rh)
    assert _coeffs(f * t) == _ref(v * t for v in rf)
    assert _coeffs(f * k + g) == _ref_add(_ref(v * k for v in rf), rg)
    assert _coeffs(f.diff()) == _ref_diff(rf)
    assert f.sign_at(t) == _ref_sign(rf, t)
    # equal polynomials have equal representations however they were built
    assert f * g + h == UPoly(_ref_add(_ref_mul(rf, rg), rh))
    # the integer tuple is a positive multiple of the polynomial
    ints = f.int_coeffs()
    assert math.gcd(*ints) in (0, 1)
    assert all(f.content * v == c for v, c in zip(ints, rf))
    assert (f.content > 0) == bool(ints)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_integer_division_matches_fraction_reference(ca, cb, cc):
    f, g = UPoly(tuple(ca)) * UPoly(tuple(cc)), UPoly(tuple(cb))
    rf, rg = _ref_mul(_ref(ca), _ref(cc)), _ref(cb)
    if not rg:
        return
    q, r = _ref_divmod(rf, rg)
    assert _coeffs(f // g) == q
    assert _coeffs(f % g) == r
    assert _coeffs(f.gcd(g)) == _ref_gcd(rf, rg)
    if rf:
        assert _coeffs(squarefree_roots(f)[0]) == _ref_squarefree(rf)
        assert _coeffs(f.monic()) == _ref_monic(rf)


def _positive_multiple(p: UPoly, ref: Ref) -> bool:
    c = _coeffs(p)
    return len(c) == len(ref) and all(a * ref[-1] == b * c[-1] for a, b in zip(c, ref)) and c[-1] / ref[-1] > 0


@given(st.lists(small_rationals, min_size=1, max_size=4), st.lists(small_rationals, min_size=3, max_size=8))
def test_sturm_chain_matches_fraction_reference(roots, ts):
    # distinct and repeated rational roots times a quadratic without real roots
    p = from_roots(roots) * UPoly((3, 1, 2))
    s, rs = squarefree_roots(p)[0], _ref_squarefree(_ref(_coeffs(p)))
    chain, ref = sturm_chain(s), _ref_sturm(rs)
    assert len(chain) == len(ref)
    assert all(_positive_multiple(a, b) for a, b in zip(chain, ref))
    for t in ts:
        assert sign_variations(chain, t) == _ref_variations(ref, t)


@given(
    st.lists(st.integers(2, 30), min_size=1, max_size=3, unique=True),
    st.lists(small_rationals, max_size=2, unique=True),
    st.integers(1, 120),
)
def test_refine_root_matches_fraction_bisection(squares, roots, bits):
    # irrational roots +-sqrt(k) for non-squares k, beside rational roots
    p = from_roots(roots)
    for k in squares:
        if math.isqrt(k) ** 2 != k:
            p = p * UPoly((-k, 0, 1))
    s, isolated = squarefree_roots(p)
    rs = _ref(_coeffs(s))
    width = Fraction(1, 2**bits)
    for ri in isolated:
        if ri.is_exact:
            continue
        got = refine_root(ri, width)
        assert (got.lo, got.hi) == _ref_refine_interval(rs, ri.lo, ri.hi, width)
        assert not got.is_exact and got.width <= width


def test_refine_root_returns_a_midpoint_root_exactly():
    # (0, 1) isolates the root 1/2 of 2t - 1, the first midpoint
    got = refine_root(AlgebraicCoord(Fraction(0), Fraction(1), UPoly((-1, 2))), Fraction(1, 8))
    assert got == AlgebraicCoord.of(Fraction(1, 2)) and got.exact == Fraction(1, 2)


def _counted_evaluations(monkeypatch) -> list:
    """Record each integer evaluation `refine_root` makes."""
    calls = []
    run = roots_module._homogeneous

    def counted(c, n, d):
        calls.append((n, d))
        return run(c, n, d)

    monkeypatch.setattr(roots_module, "_homogeneous", counted)
    return calls


def test_refine_root_jump_lands_on_a_grid_root(monkeypatch):
    # 11/32 is a point of level 5 of the grid on (0, 1); bisection to
    # 2^-10 meets it as its fifth midpoint, after 6 evaluations.  The
    # refinement bisects once to (0, 1/2), jumps 2 levels to (1/4, 3/8),
    # and the 4-level jump from there reads 11/32 itself
    calls = _counted_evaluations(monkeypatch)
    p, width = UPoly((-11, 32)), Fraction(1, 2**10)
    got = refine_root(AlgebraicCoord(Fraction(0), Fraction(1), p), width)
    assert got == AlgebraicCoord.of(Fraction(11, 32)) and got.exact == Fraction(11, 32)
    assert (got.lo, got.hi) == _ref_refine_interval(_ref(_coeffs(p)), Fraction(0), Fraction(1), width)
    assert Fraction(*calls[-1]) == Fraction(11, 32) and calls[-1][1] == 2**7 and len(calls) < 6


@settings(max_examples=60)
@given(st.integers(2, 2999).filter(lambda k: math.isqrt(k) ** 2 != k), st.sampled_from([-1, 1]))
def test_refine_root_takes_a_quarter_of_bisections_evaluations(k, sign):
    # bisection reads the sign at lo and at each of L midpoints
    s = UPoly((-k, 0, 1))
    (ri,) = [r for r in isolate_real_roots(s) if (r.lo > 0) == (sign > 0)]
    width = Fraction(1, 2**60)
    levels = next(n for n in range(200) if ri.width / 2**n <= width)
    with pytest.MonkeyPatch.context() as mp:
        calls = _counted_evaluations(mp)
        got = refine_root(ri, width)
    assert (got.lo, got.hi) == _ref_refine_interval(_ref(_coeffs(s)), ri.lo, ri.hi, width)
    assert 4 * len(calls) <= levels + 1


def test_refine_root_returns_an_interval_already_narrow_enough(monkeypatch):
    s = UPoly((-2, 0, 1))
    (ri,) = [r for r in isolate_real_roots(s) if r.hi > 0]
    width = Fraction(1, 2**60)
    fine = refine_root(ri, width)
    # the endpoints of an isolating interval are not roots, so bisecting
    # an interval already narrow enough hands back the same interval
    assert (fine.lo, fine.hi) == _ref_refine_interval(_ref(_coeffs(s)), fine.lo, fine.hi, width)

    def no_sign(*args):
        raise AssertionError("an interval narrow enough is refined again")

    monkeypatch.setattr(UPoly, "sign_at", no_sign)
    monkeypatch.setattr(UPoly, "sign_at_ratio", no_sign)
    monkeypatch.setattr(roots_module, "_homogeneous", no_sign)
    for w in (width, fine.width, Fraction(1)):
        assert refine_root(fine, w) is fine
    # approx() and text() refine their coordinate to 2^-60 once, not again
    assert fine.approx() == float((fine.lo + fine.hi) / 2)
    assert fine.text().startswith("~1.41421356237 ")


def _sqrt_box(n: int, bits: int, sign: int) -> Tuple[Fraction, Fraction]:
    """An interval of width 2^-bits around sign * sqrt(n), n not a square."""
    lo = math.isqrt(n << (2 * bits))
    return tuple(sorted((Fraction(sign * lo, 2**bits), Fraction(sign * (lo + 1), 2**bits))))


def test_rur_sign_matches_tiny_box_at_sqrt_points():
    sys = parse_system("dx = x^2 - 2\ndy = y^2 - 3\n")
    x, y = MPoly.var_x(), MPoly.var_y()
    one = MPoly.one()
    probes = [
        x - y,
        x * y - 2 * one,
        x + y - 3 * one,
        x * x * y - 2 * y,  # zero at every point
        y * y - x * x - one,  # zero at every point
        x * y * y - 3 * x + y - MPoly.const(Fraction(17, 10)),
        (x - y) * (x + y) + MPoly.const(Fraction(1, 3)) * x,
    ]
    records = finite_equilibria(sys)
    assert len(records) == 4
    for rec in records:
        rur, a = rec.point.rur
        sx, sy = rec.point.x.sign(), rec.point.y.sign()
        bx, by = _sqrt_box(2, 200, sx), _sqrt_box(3, 200, sy)
        for f in probes:
            lo, hi = box_enclosure(f, bx, by)
            got = rur.sign(f, a)
            if got == 0:
                assert lo <= 0 <= hi and hi - lo < Fraction(1, 2**190)
            else:
                assert (lo > 0) - (hi < 0) == got
