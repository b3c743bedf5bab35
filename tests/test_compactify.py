"""Charts at infinity, equator invariance, blow-ups, sector synthesis.

Oracles: chart polynomials are compared with closed-form products built
independently in the chart variables; blow-downs are checked against the
original field at rational samples; the chart-overlap change of
coordinates is verified as an exact rational identity.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pdisc.compactify import (
    ChartSystem,
    blowup_analysis,
    blowup_fragment,
    chart_fragment,
    direct_sectors,
    directional_blowup,
    disc_equilibria,
    divisor_equilibria,
    infinite_equilibria,
    sector_synthesis,
    to_chart,
)
from pdisc.equilibria import DEGENERATE, SADDLE, SADDLE_NODE, EquilibriumRecord, equilibrium_fragment
from pdisc.errors import InputError, InternalInvariantError, LineOfEquilibriaError
from pdisc.exactalg import AlgebraicCoord, AlgebraicPoint, MPoly
from pdisc.modelio import PlanarSystem, leslie_system, parse_system

from blowdown import verify_blowdown

F = Fraction
U = MPoly.var_x()
V = MPoly.var_y()
ONE = MPoly.one()


def _expected_u1(a: F, b: F, c: F):
    au = MPoly.const(a) * U
    cv = MPoly.const(c) * V
    bv = MPoly.const(b) * V
    du = U * ((ONE + au - V) * (ONE + cv) + bv * (ONE - U + cv))
    dv = V * (ONE + au - V) * (ONE + cv)
    return du, dv


def _expected_u2(a: F, b: F, c: F):
    inner = (
        MPoly.const(a) * U
        + MPoly.const(a * c - b) * V
        + U * U
        + MPoly.const(b + c - 1) * U * V
        + MPoly.const(b * c - c) * V * V
    )
    du = -U * inner
    dv = -MPoly.const(b) * V * V * (-ONE + U + MPoly.const(c) * V)
    return du, dv


def test_chart_polynomials_closed_form():
    for a, b, c in [(F(1), F(1), F(1, 2)), (F(7, 8), F(10, 9), F(4, 3))]:
        sys = leslie_system(a, b, c)
        u1 = to_chart(sys, "U1")
        du, dv = _expected_u1(a, b, c)
        assert (u1.du - du).is_zero
        assert (u1.dv - dv).is_zero
        u2 = to_chart(sys, "U2")
        du, dv = _expected_u2(a, b, c)
        assert (u2.du - du).is_zero
        assert (u2.dv - dv).is_zero


def test_v_chart_parity():
    odd = leslie_system(F(1), F(1), F(1, 2))  # degree 3
    for chart in ("1", "2"):
        pos = to_chart(odd, "U" + chart)
        neg = to_chart(odd, "V" + chart)
        assert (pos.du - neg.du).is_zero
        assert (pos.dv - neg.dv).is_zero
    even = parse_system("dx = x^2 - y\ndy = x*y + 1\n")  # degree 2
    for chart in ("1", "2"):
        pos = to_chart(even, "U" + chart)
        neg = to_chart(even, "V" + chart)
        assert (pos.du + neg.du).is_zero
        assert (pos.dv + neg.dv).is_zero


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def systems(draw):
    terms = draw(st.integers(min_value=1, max_value=4))
    p = MPoly.zero()
    q = MPoly.zero()
    for _ in range(terms):
        p = p + MPoly.monomial(
            draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(small_rationals)
        )
        q = q + MPoly.monomial(
            draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(small_rationals)
        )
    if p.is_zero and q.is_zero:
        p = MPoly.var_x()
    return PlanarSystem(P=p, Q=q)


@given(systems())
def test_equator_always_invariant(sys):
    for chart in ("U1", "U2", "V1", "V2"):
        cs = to_chart(sys, chart)
        assert cs.dv.subst_y(F(0)).is_zero
        assert cs.du.degree is not None


@given(systems())
def test_chart_overlap_conjugacy_exact(sys):
    # d(phi) . F_U1 = u^(d-1) F_U2(phi) with phi(u,v) = (1/u, v/u)
    u1 = to_chart(sys, "U1")
    u2 = to_chart(sys, "U2")
    d = sys.degree
    for u0, v0 in [(F(2), F(1, 3)), (F(-1, 2), F(1, 5)), (F(3), F(-2))]:
        du1 = u1.du.eval_rat(u0, v0)
        dv1 = u1.dv.eval_rat(u0, v0)
        lhs = (-du1 / u0**2, dv1 / u0 - v0 * du1 / u0**2)
        scale = u0 ** (d - 1)
        rhs = (
            scale * u2.du.eval_rat(1 / u0, v0 / u0),
            scale * u2.dv.eval_rat(1 / u0, v0 / u0),
        )
        assert lhs == rhs


def test_chart_rejects_constant_field():
    with pytest.raises(InputError):
        to_chart(parse_system("dx = 1\ndy = 2\n"), "U1")


def test_chart_system_recheck_guards_equator():
    with pytest.raises(InternalInvariantError):
        ChartSystem(chart="U1", du=MPoly.var_x(), dv=MPoly.one(), degree=3)


def test_u1_infinite_equilibria():
    a, b, c = F(1), F(2), F(1, 2)
    sys = leslie_system(a, b, c)
    u1 = to_chart(sys, "U1")
    records = infinite_equilibria(u1)
    xs = sorted(rec.point.exact_pair()[0] for rec in records)
    assert xs == [-1 / a, F(0)]
    origin = [rec for rec in records if rec.point.exact_pair()[0] == 0][0]
    assert origin.jacobian == ((a, F(0)), (F(0), a)) or origin.jacobian == (
        (F(1), F(0)),
        (F(0), F(1)),
    )
    assert origin.classification == "unstable node"


def test_u1_origin_identity_linear_part():
    # the bracket equals 1 at the origin for every parameter choice
    for a in (F(1), F(3, 4)):
        u1 = to_chart(leslie_system(a, F(2), F(1, 2)), "U1")
        records = infinite_equilibria(u1)
        origin = [r for r in records if r.point.exact_pair() == (F(0), F(0))][0]
        assert origin.jacobian == ((F(1), F(0)), (F(0), F(1)))


def test_u2_origin_degenerate():
    u2 = to_chart(leslie_system(F(1), F(2), F(1, 2)), "U2")
    records = infinite_equilibria(u2)
    origin = [r for r in records if r.point.exact_pair() == (F(0), F(0))][0]
    assert origin.classification == DEGENERATE
    assert origin.jacobian == ((F(0), F(0)), (F(0), F(0)))


def test_quadrant_filter_drops_negative_u():
    u1 = to_chart(leslie_system(F(1), F(2), F(1, 2)), "U1")
    records = infinite_equilibria(u1, positive_quadrant_only=True)
    assert [rec.point.exact_pair()[0] for rec in records] == [F(0)]


def test_infinite_equilibria_rejects_finite_chart():
    sys = leslie_system(F(1), F(2), F(1, 2))
    with pytest.raises(InputError):
        infinite_equilibria(to_chart(sys, "U3"))


def test_equator_line_of_equilibria_detected():
    # du(u, 0) vanishes identically for dx=x*y, dy=y^2
    sys = parse_system("dx = x*y\ndy = y^2\n")
    with pytest.raises(LineOfEquilibriaError):
        infinite_equilibria(to_chart(sys, "U1"))


# odd degree: the bundled Leslie model and the CI quintic; even degree:
# the CI quartic, irrational equator points (line-ellipse-2), a U1
# saddle-node, and a quadratic with nodes and saddles on the equator
V_CHART_SOURCES = {
    "leslie": "params: A=1, B=1, C=1/2\ndx = x*(C+x)*(1-x-A*y)\ndy = B*y*(C+x-y)\n",
    "quintic": "dx = x^5 - 3*x^2*y^2 + y^3 - 2*x + 1\ndy = y^5 - x*y^3 + 2*x^2 - y - 3\n",
    "quartic": "dx = x^4 - 3*x^2*y + y^2 - 2*x + 1\ndy = y^4 - x*y^2 + 2*x^2 - y - 3\n",
    "line-ellipse-2": "dx = (-3*x + 1*y + 1)*(-3*x + 3*y + 1)\ndy = (1*x^2 + 0*x*y + 1*y^2 + -1*x + 2*y + -4)\n",
    "saddle-node": "dx = x*(x - y)\ndy = y*(x + y - 1)\n",
    "quadratic": "dx = x*(1-x) - x*y\ndy = y*(x - 1/2)\n",
}


@pytest.mark.parametrize("name", sorted(V_CHART_SOURCES))
def test_v_chart_equator_records_match_direct_recomputation(name):
    # the V records are derived from the U ones; the direct route
    # analyses the V chart itself
    sys = parse_system(V_CHART_SOURCES[name])
    disc = disc_equilibria(sys)
    assert not disc.lines
    for chart in ("V1", "V2"):
        direct = infinite_equilibria(to_chart(sys, chart))
        derived = disc.equator[chart]
        assert len(derived) == len(direct)
        for a, b in zip(derived, direct):
            for f in fields(EquilibriumRecord):
                assert getattr(a, f.name) == getattr(b, f.name), (chart, f.name)
            assert equilibrium_fragment(a) == equilibrium_fragment(b)


def test_even_degree_v_records_are_time_reversed():
    disc = disc_equilibria(parse_system(V_CHART_SOURCES["saddle-node"]))
    (u,) = [r for r in disc.equator["U1"] if r.classification == SADDLE_NODE]
    (v,) = [r for r in disc.equator["V1"] if r.classification == SADDLE_NODE]
    assert (u.reduction.a2, u.reduction.stability) == (2, "attractor")
    assert (v.reduction.a2, v.reduction.stability) == (-2, "repeller")
    assert v.trace == -u.trace and v.det == u.det


def test_equator_of_equilibria_is_a_line_in_every_chart():
    disc = disc_equilibria(parse_system("dx = x\ndy = y\n"))
    assert set(disc.lines) == {"U1", "U2", "V1", "V2"}
    assert not disc.equator
    assert str(disc.lines["V2"]) == "the equator of chart V2 consists of equilibria"


def _u2_origin_system(a: F, b: F, c: F) -> PlanarSystem:
    return to_chart(leslie_system(a, b, c), "U2").system


def test_divisor_eigenvalue_pairs():
    a, b, c = F(1), F(2), F(1, 2)
    local = _u2_origin_system(a, b, c)
    bx = directional_blowup(local, "x")
    by = directional_blowup(local, "y")
    recs_x = {rec.point.exact_pair()[1]: rec for rec in divisor_equilibria(bx)}
    recs_y = {rec.point.exact_pair()[0]: rec for rec in divisor_equilibria(by)}
    assert set(recs_x[F(0)].eigenvalues) == {a, -a}
    assert recs_x[F(0)].classification == SADDLE
    assert set(recs_x[-1 / c].eigenvalues) == {-b / c, -a}
    assert recs_x[-1 / c].classification == "stable node"
    assert set(recs_y[F(0)].eigenvalues) == {b, -a * c}
    assert recs_y[F(0)].classification == SADDLE
    assert set(recs_y[-c].eigenvalues) == {b, a * c}
    assert recs_y[-c].classification == "unstable node"


def test_sector_synthesis_two_parabolic_two_hyperbolic():
    for a, b, c in [(F(1), F(2), F(1, 2)), (F(4, 5), F(6, 5), F(9, 2))]:
        local = _u2_origin_system(a, b, c)
        bx = directional_blowup(local, "x")
        by = directional_blowup(local, "y")
        sectors = sector_synthesis(
            (bx, divisor_equilibria(bx)), (by, divisor_equilibria(by))
        )
        assert (sectors.hyperbolic, sectors.parabolic, sectors.elliptic) == (2, 2, 0)
        assert sectors.status == "resolved"


def test_blowdown_identity_exact():
    local = _u2_origin_system(F(1), F(2), F(1, 2))
    samples = [(F(1, 3), F(1, 5)), (F(-1, 2), F(2, 7)), (F(2), F(-1, 3))]
    for direction in ("x", "y"):
        bs = directional_blowup(local, direction)
        assert verify_blowdown(bs, local, samples)


@st.composite
def fields_through_origin(draw):
    def component():
        p = MPoly.zero()
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            d = draw(st.integers(1, 3))
            i = draw(st.integers(0, d))
            p = p + MPoly.monomial(i, d - i, draw(small_rationals.filter(bool)))
        return p

    return PlanarSystem(P=component(), Q=component())


@settings(max_examples=100)
@given(fields_through_origin(), st.sampled_from(["x", "y"]))
def test_blowdown_identity_on_random_fields(sys, direction):
    # a line of equilibria through the origin is a valid outcome; the
    # rescaling monomial is not symmetric in about a quarter of the draws
    try:
        bs = directional_blowup(sys, direction)
    except LineOfEquilibriaError:
        return
    samples = [(F(1, 3), F(1, 5)), (F(-1, 2), F(2, 7)), (F(2), F(-1, 3)), (F(-3, 4), F(-5, 2))]
    assert verify_blowdown(bs, sys, samples)


def test_blowup_requires_origin_equilibrium():
    sys = parse_system("dx = 1 + x\ndy = y\n")
    with pytest.raises(InputError):
        directional_blowup(sys, "x")


def test_blowup_rejects_nonisolated_singularity():
    # a common factor of P and Q puts a curve of equilibria through the
    # origin; the rescaled flow then crosses the divisor
    with pytest.raises(LineOfEquilibriaError):
        directional_blowup(parse_system("dx = x^2\ndy = x*y\n"), "x")
    # a radial direction field fixes every direction: same obstruction
    with pytest.raises(LineOfEquilibriaError):
        directional_blowup(parse_system("dx = x\ndy = y\n"), "x")


def test_blowup_example_hand_checked():
    # dx = x^2 - 2xy, dy = y^2 - 3xy: w-restriction has roots 0, 1, -1/3...
    # use the classic homogeneous cusp-free example with saddle at w = 0
    sys = parse_system("dx = x^2\ndy = -2*x*y\n")
    bs = directional_blowup(sys, "x")
    # after substitution y = x w: dw/dt = (Q - w P)/x = -2xw - wx = -3xw,
    # then rescaling by the common factor x leaves dw = -3w
    recs = divisor_equilibria(bs)
    zero = [r for r in recs if r.point.exact_pair() == (F(0), F(0))]
    assert len(zero) == 1
    assert zero[0].classification == SADDLE
    assert set(zero[0].eigenvalues) == {F(1), F(-3)}


def test_direct_sectors_table():
    saddle = direct_sectors(SADDLE)
    assert (saddle.hyperbolic, saddle.parabolic, saddle.elliptic) == (4, 0, 0)
    assert saddle.status == "resolved"
    node = direct_sectors("stable node")
    assert (node.hyperbolic, node.parabolic, node.elliptic) == (0, 1, 0)
    unknown = direct_sectors(DEGENERATE)
    assert unknown.status == "unresolved"


def test_blowup_analysis_translation_and_irrational_guard():
    sys = leslie_system(F(1), F(2), F(1, 2))
    u2 = to_chart(sys, "U2")
    analysis = blowup_analysis(u2.system, AlgebraicPoint(AlgebraicCoord.of(F(0)), AlgebraicCoord.of(F(0))))
    assert analysis is not None
    assert (analysis.sectors.hyperbolic, analysis.sectors.parabolic) == (2, 2)
    from pdisc.exactalg import UPoly, isolate_real_roots

    p = UPoly((F(-2), F(0), F(1)))
    root = [ri for ri in isolate_real_roots(p) if ri.hi > 0][0]
    irr = AlgebraicPoint(root, AlgebraicCoord.of(F(0)))
    assert blowup_analysis(sys, irr) is None


def test_fragments():
    sys = leslie_system(F(1), F(2), F(1, 2))
    cs = to_chart(sys, "U1")
    frag = chart_fragment(cs)
    assert frag["chart"] == "U1"
    assert frag["degree"] == 3
    local = _u2_origin_system(F(1), F(2), F(1, 2))
    bs = directional_blowup(local, "x")
    bfrag = blowup_fragment(bs, divisor_equilibria(bs))
    assert bfrag["direction"] == "x"
    assert len(bfrag["divisor_equilibria"]) == 2
