"""Acceptance suite for the reduced predator-prey analysis pipeline.

Eleven criteria, each exercised end to end and reported with one
PASS/FAIL line on the terminal (written past the capture plugin so the
lines always show).  Exact checks use zero tolerance; numerical checks
state their tolerance inline.
"""

import functools
import math
import random
from fractions import Fraction as F

from pdisc.compactify import (
    blowup_analysis,
    disc_equilibria,
    infinite_equilibria,
    to_chart,
)
from pdisc.darboux import (
    extactic,
    find_exponential_factors,
    find_invariant_lines,
    verify_invariant_curve,
)
from pdisc.equilibria import finite_equilibria, in_positive_quadrant, leslie_labels
from pdisc.exactalg import AlgebraicCoord, AlgebraicPoint, MPoly, coefficient_rows, monomial_basis, nullspace
from pdisc.integrability import (
    SearchBounds,
    cofactor_tests,
    run_pipeline,
)
from pdisc.modelio import ParamBindings, leslie_system, seeded_parameter_triples
from pdisc.portrait import Flow, build_portrait, disc_from_plane, integrate_orbit

from blowdown import verify_blowdown

X = MPoly.var_x()
Y = MPoly.var_y()
ONE = MPoly.one()


def _c(v) -> MPoly:
    return MPoly.const(F(v))


def criterion(num: int, name: str):
    """Report one PASS/FAIL line per criterion on the real terminal.

    Each wrapped test takes the capfd fixture; disabling it for the
    report line bypasses output capture so the line always shows.
    """

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(capfd):
            try:
                fn(capfd)
            except BaseException:
                with capfd.disabled():
                    print(f"criterion {num:02d} FAIL {name}", flush=True)
                raise
            with capfd.disabled():
                print(f"criterion {num:02d} PASS {name}", flush=True)

        return wrapper

    return deco


TRIPLES = seeded_parameter_triples(count=5)


# ---------------------------------------------------------------------------
# 1: cofactors of the three invariant lines


@criterion(1, "invariant-line cofactors at 5 seeded triples")
def test_criterion_01_cofactors(capfd):
    for a, b, c in TRIPLES:
        sys = leslie_system(a, b, c)
        slope = _c(-1) * ONE + X + _c(a) * Y  # -1 + x + Ay
        expected = [
            (X, _c(-1) * (_c(c) + X) * slope),
            (X + _c(c), _c(-1) * X * slope),
            (Y, _c(b) * (_c(c) + X - Y)),
        ]
        for f, want in expected:
            cur = verify_invariant_curve(sys, f)
            assert cur is not None
            assert (cur.K - want).is_zero


# ---------------------------------------------------------------------------
# 2: the order-1 extactic polynomial and line multiplicities


def _e1_reference(A: F, B: F, C: F) -> MPoly:
    """Expanded reference value of the order-1 extactic polynomial."""

    def term(coef, i, j):
        return _c(coef) * MPoly.monomial(i, j)

    bracket = (
        term(C * C * (1 - B), 0, 0)
        + term(C * (2 - 2 * B - 3 * C + B * C), 1, 0)
        + term(-C * (1 - 3 * B + 2 * A * C), 0, 1)
        + term(1 - B - 6 * C + 2 * B * C + 2 * C * C, 2, 0)
        + term(-(2 - 3 * B - 3 * C + 4 * A * C + 3 * B * C - 3 * A * C * C), 1, 1)
        + term(-(B - A * C) * (2 + A * C), 0, 2)
        + term(-(3 - B - 4 * C), 3, 0)
        + term(5 - 2 * A - 3 * B - 2 * C + 6 * A * C, 2, 1)
        + term(4 * A + 2 * B - A * B - 3 * A * C + 2 * A * A * C, 1, 2)
        + term(2, 4, 0)
        + term(3 * (A - 1), 3, 1)
        + term((A - 5) * A, 2, 2)
        + term(-A * (A * C - B), 0, 3)
        + term(-2 * A * A, 1, 3)
    )
    return _c(-B) * X * (_c(C) + X) * Y * bracket


@criterion(2, "extactic polynomial matches the reference, line multiplicities 1")
def test_criterion_02_extactic(capfd):
    A, B, C = F(1), F(2), F(1, 2)
    sys = leslie_system(A, B, C)
    res = extactic(sys, 1, find_invariant_lines(sys)[0])
    ref = _e1_reference(A, B, C)
    # equality up to a nonzero rational constant
    key, coef = next(iter(ref.items()))
    q = res.E.coeff(*key) / coef
    assert q != 0
    assert (res.E - _c(q) * ref).is_zero
    # each line divides the extactic exactly once
    for f in (X, Y, X + _c(C)):
        once = res.E.exact_div(f)
        assert once is not None
        assert once.exact_div(f) is None
    assert all(m == 1 for m in res.multiplicities.values())


# ---------------------------------------------------------------------------
# 3: exponential factors under the degree-2 ansatz


@criterion(3, "single exponential factor exp(y); quadratic ansatz coefficients vanish")
def test_criterion_03_exponential_factors(capfd):
    for a, b, c in TRIPLES:
        sys = leslie_system(a, b, c)
        curves, _ = find_invariant_lines(sys)
        factors = find_exponential_factors(sys, curves, deg_bound=2)
        assert len(factors) == 1
        g = factors[0].g
        # the admissible exponent is a*y alone: no constant is searched,
        # and the x, x^2, xy, y^2 coefficients must vanish exactly
        assert (g - Y).is_zero
        for i, j in ((1, 0), (2, 0), (1, 1), (0, 2)):
            assert g.coeff(i, j) == 0
        want = _c(b) * Y * (_c(c) + X - Y)
        assert (factors[0].L - want).is_zero


# ---------------------------------------------------------------------------
# 4: no Liouville integrability within the default bounds


@criterion(4, "NotLiouvillianWithinBounds at 5 seeded triples, exact ranks")
def test_criterion_04_not_liouvillian(capfd):
    for a, b, c in TRIPLES:
        sys = leslie_system(a, b, c)
        pipe = run_pipeline(sys, SearchBounds())
        assert pipe.verdict.verdict == "NotLiouvillianWithinBounds"
        # first-integral nullspace: trivial (the cofactor matrix M has
        # full column rank)
        fi, inf, rank, rank_aug = cofactor_tests(pipe.curves, pipe.factors, sys.divergence(), sys.degree)
        assert fi is None
        cofactors = [c.K for c in pipe.curves] + [ef.L for ef in pipe.factors]
        assert nullspace(coefficient_rows(cofactors, monomial_basis(sys.degree - 1))) == []
        # integrating-factor system: inconsistent
        assert inf is None
        assert (rank, rank_aug) == (pipe.verdict.rank, pipe.verdict.rank_aug)
        assert pipe.verdict.rank == pipe.verdict.rank_aug - 1


# ---------------------------------------------------------------------------
# 5: divergence closed form


@criterion(5, "divergence closed form at 5 seeded triples")
def test_criterion_05_divergence(capfd):
    for a, b, c in TRIPLES:
        sys = leslie_system(a, b, c)
        want = (
            _c((1 + b) * c)
            + _c(-(2 * b + a * c)) * Y
            + _c(2 + b - 2 * c) * X
            + _c(-3) * X * X
            + _c(-2 * a) * X * Y
        )
        assert (sys.divergence() - want).is_zero


# ---------------------------------------------------------------------------
# 6: finite equilibria, Jacobians, and the interior point


def _labelled(a: F, b: F, c: F):
    # the closed positive quadrant is the biologically meaningful
    # domain; the interior-point formula lands outside it when 1-AC < 0
    sys = leslie_system(a, b, c)
    recs = leslie_labels([r for r in finite_equilibria(sys) if in_positive_quadrant(r)], a, b, c)
    return {r.label: r for r in recs}


@criterion(6, "finite equilibrium spectra and interior-point invariants")
def test_criterion_06_finite_equilibria(capfd):
    hit_positive = hit_negative = False
    for a, b, c in [*TRIPLES, (F(1), F(1), F(1, 2)), (F(3), F(1), F(1, 2))]:
        by = _labelled(a, b, c)
        assert by["E0"].jacobian == ((c, F(0)), (F(0), b * c))
        assert set(by["E2"].eigenvalues) == {-1 - c, b * (1 + c)}
        assert set(by["E1"].eigenvalues) == {-b * c, c * (1 - a * c)}
        regime = 1 - a * c
        if regime > 0:
            hit_positive = True
            star = by["Estar"]
            assert star.point.exact_pair() == ((1 - a * c) / (1 + a), (1 + c) / (1 + a))
            assert star.det == b * (1 + c) ** 2 * (1 - a * c) / (1 + a) ** 2
            assert star.trace == (1 + c) * (-1 - (1 + a) * b + a * c) / (1 + a) ** 2
        else:
            hit_negative = True
            assert "Estar" not in by
    assert hit_positive and hit_negative


# ---------------------------------------------------------------------------
# 7: the saddle-node at the collapse of the interior point


@criterion(7, "attractor saddle-node at (0, C) when AC = 1")
def test_criterion_07_saddle_node(capfd):
    by = _labelled(F(1), F(1), F(1))
    rec = by["E1"]
    assert rec.point.exact_pair() == (F(0), F(1))
    assert rec.classification == "saddle-node"
    assert rec.reduction is not None
    assert rec.reduction.a2 != 0
    assert rec.reduction.stability == "attractor"


# ---------------------------------------------------------------------------
# 8: compactification charts


def _chart_closed_forms(a: F, b: F, c: F):
    U = X
    V = Y
    A, B, C = _c(a), _c(b), _c(c)
    u1_du = U * ((ONE + A * U - V) * (ONE + C * V) + B * V * (ONE - U + C * V))
    u1_dv = V * (ONE + A * U - V) * (ONE + C * V)
    u2_du = _c(-1) * U * (
        A * U
        + (A * C - B) * V
        + U * U
        + (B + C - _c(1)) * U * V
        + (B * C - C) * V * V
    )
    u2_dv = _c(-1) * B * V * V * (_c(-1) + U + C * V)
    return (u1_du, u1_dv), (u2_du, u2_dv)


@criterion(8, "chart systems verbatim; equator spectra in both charts")
def test_criterion_08_charts(capfd):
    for a, b, c in [*TRIPLES[:3], (F(1), F(2), F(1, 2))]:
        sys = leslie_system(a, b, c)
        (du1, dv1), (du2, dv2) = _chart_closed_forms(a, b, c)
        cs1 = to_chart(sys, "U1")
        cs2 = to_chart(sys, "U2")
        assert (cs1.du - du1).is_zero and (cs1.dv - dv1).is_zero
        assert (cs2.du - du2).is_zero and (cs2.dv - dv2).is_zero

        recs1 = {r.point.exact_pair(): r for r in infinite_equilibria(cs1)}
        assert set(recs1) == {(F(0), F(0)), (F(-1) / a, F(0))}
        origin = recs1[(F(0), F(0))]
        assert origin.jacobian == ((F(1), F(0)), (F(0), F(1)))
        assert origin.classification == "unstable node"

        recs2 = {r.point.exact_pair(): r for r in infinite_equilibria(cs2)}
        deg = recs2[(F(0), F(0))]
        assert deg.jacobian == ((F(0), F(0)), (F(0), F(0)))


# ---------------------------------------------------------------------------
# 9: blow-ups at the degenerate equator point


@criterion(9, "divisor spectra, blow-down consistency, sector counts")
def test_criterion_09_blowups(capfd):
    samples = [(F(1), F(1)), (F(1, 2), F(-1, 3)), (F(-2), F(3, 5))]
    for a, b, c in [(F(1), F(2), F(1, 2)), (F(2), F(3), F(1, 4))]:
        local = to_chart(leslie_system(a, b, c), "U2").system
        analysis = blowup_analysis(local, AlgebraicPoint(AlgebraicCoord.of(F(0)), AlgebraicCoord.of(F(0))))
        assert analysis is not None

        on_x = {r.point.exact_pair()[1]: set(r.eigenvalues) for r in analysis.x_divisor}
        assert on_x == {F(0): {a, -a}, F(-1) / c: {-b / c, -a}}
        on_y = {r.point.exact_pair()[0]: set(r.eigenvalues) for r in analysis.y_divisor}
        assert on_y == {F(0): {b, -a * c}, -c: {b, a * c}}

        assert verify_blowdown(analysis.x_system, local, samples)
        assert verify_blowdown(analysis.y_system, local, samples)

        assert analysis.sectors.status == "resolved"
        assert analysis.sectors.hyperbolic == 2
        assert analysis.sectors.parabolic == 2
        assert analysis.sectors.elliptic == 0


# ---------------------------------------------------------------------------
# 10: regime dichotomy across a parameter grid


@criterion(10, "orbit limit matches the 1-AC regime on a 10x10 grid")
def test_criterion_10_regime_dichotomy(capfd):
    b = F(1)
    seed = disc_from_plane(0.5, 0.5)
    for ka in range(1, 11):
        for kc in range(1, 11):
            a, c = F(ka, 7), F(kc, 7)
            regime = 1 - a * c
            if regime == 0:
                continue
            sys = leslie_system(a, b, c)
            if regime > 0:
                target = ((1 - a * c) / (1 + a), (1 + c) / (1 + a))
            else:
                target = (F(0), c)
            # the closed quadrant is invariant, so its disc analysis suffices
            flow = Flow(disc_equilibria(sys, quadrant=True))
            tr = integrate_orbit(flow, seed, tmax=2500.0)
            assert tr.reason == "converged-to-equilibrium", (a, c, tr.reason)
            limit = {m.marker_id: m for m in flow.markers}[tr.limit]
            assert limit.record.point.exact_pair() == target, (a, c, tr.limit)

    # representative portraits on both sides of the dichotomy
    pos = build_portrait(
        leslie_system(F(1), F(1), F(1, 2)),
        ParamBindings(F(1), F(1), F(1, 2)),
        grid=2,
        tmax=30.0,
    )
    assert pos.regime == "positive"
    classes = {m.label: m.classification for m in pos.markers if m.label}
    assert classes == {
        "E0": "unstable node",
        "E1": "saddle",
        "E2": "saddle",
        "Estar": "stable focus",
    }

    neg = build_portrait(
        leslie_system(F(3), F(1), F(1, 2)),
        ParamBindings(F(3), F(1), F(1, 2)),
        grid=2,
        tmax=30.0,
    )
    assert neg.regime == "negative"
    classes = {m.label: m.classification for m in neg.markers if m.label}
    assert classes == {
        "E0": "unstable node",
        "E1": "stable node",
        "E2": "saddle",
    }


# ---------------------------------------------------------------------------
# 11: soundness properties


def _random_poly(rng: random.Random) -> MPoly:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        expo = (rng.randint(0, 3), rng.randint(0, 3))
        terms[expo] = F(rng.randint(-6, 6), rng.randint(1, 6))
    return MPoly(terms)


@criterion(11, "ring axioms, chart conjugacy, invariant region, reversibility")
def test_criterion_11_soundness(capfd):
    # (a) 1000 randomized exact-arithmetic checks
    rng = random.Random(20260819)
    for _ in range(1000):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert ((p + q) * r - (p * r + q * r)).is_zero
        assert ((p * q) * r - p * (q * r)).is_zero
        for var in ("x", "y"):
            prod = (p * q).diff(var)
            assert (prod - (p.diff(var) * q + p * q.diff(var))).is_zero
        ax, ay = F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), rng.randint(1, 9))
        assert (p * q).eval_rat(ax, ay) == p.eval_rat(ax, ay) * q.eval_rat(ax, ay)

    # (b) chart-overlap conjugacy at 20 rational points, rel. tol 1e-9
    sys = leslie_system(F(1), F(1), F(1, 2))
    d = sys.degree
    cs1 = to_chart(sys, "U1")
    cs2 = to_chart(sys, "U2")
    rng = random.Random(7)
    checked = 0
    while checked < 20:
        u = F(rng.randint(-12, 12), rng.randint(1, 6))
        v = F(rng.randint(-12, 12), rng.randint(1, 6))
        if u == 0:
            continue
        du1 = cs1.du.eval_rat(u, v)
        dv1 = cs1.dv.eval_rat(u, v)
        lhs = (-du1 / u**2, dv1 / u - v * du1 / u**2)
        scale = u ** (d - 1)
        rhs = (
            scale * cs2.du.eval_rat(1 / u, v / u),
            scale * cs2.dv.eval_rat(1 / u, v / u),
        )
        for got, want in zip(lhs, rhs):
            assert abs(got - want) <= F(1, 10**9) * max(1, abs(want))
        checked += 1

    # (c) positive invariance of {0 <= x <= 1, y >= 0} for 50 seeds
    rng = random.Random(11)
    from pdisc.portrait import plane_from_disc

    flow = Flow(disc_equilibria(sys))
    for _ in range(50):
        x0 = rng.uniform(0.02, 0.98)
        y0 = rng.uniform(0.05, 2.5)
        tr = integrate_orbit(flow, disc_from_plane(x0, y0), tmax=25.0)
        for p in tr.points:
            px, py = plane_from_disc(*p)
            assert -1e-9 <= px <= 1.0 + 1e-9
            assert py >= -1e-9

    # (d) trajectory reversibility within 1e-5
    for seed in [(0.3, 0.4), (0.1, 0.55), (0.45, 0.2), (0.2, 0.25), (0.5, 0.35)]:
        fwd = integrate_orbit(flow, seed, "forward", tmax=3.0)
        back = integrate_orbit(flow, fwd.points[-1], "backward", tmax=3.0)
        err = math.hypot(back.points[-1][0] - seed[0], back.points[-1][1] - seed[1])
        assert err < 1e-5
