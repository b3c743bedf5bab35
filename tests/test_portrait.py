"""Phase portrait construction.

Numerical routines are checked against closed-form flows (linear
systems with exponential solutions), the disc geometry against its own
inverse, and the assembled documents against the exact equilibrium
inventory.  Rendering must be byte-deterministic.
"""

import functools
import json
import math
import re
import statistics
import struct
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pdisc.cli import main
from pdisc.compactify import SectorDecomposition, blowup_analysis, disc_equilibria, infinite_equilibria, to_chart
from pdisc.equilibria import finite_equilibria
from pdisc.errors import InputError, LineOfEquilibriaError, PositiveDimensionalError
from pdisc.exactalg import MPoly
from pdisc.modelio import ParamBindings, PlanarSystem, leslie_system, parse_system
from pdisc.capture import (
    _PROOF_BUDGET,
    CAPTURE_RADIUS,
    NODE_CLASSES,
    BlowupNodeCapture,
    SaddleNodeCapture,
    blowup_node_captures,
    node_region,
    positive_on,
    saddle_node_capture,
)
from pdisc.portrait import (
    _TS_STEP,
    EQUATOR_EPS,
    Flow,
    PortraitDoc,
    Trajectory,
    _disc_box,
    _define,
    _disc_from_chart,
    _marker_for_finite,
    _marker_for_infinite,
    build_portrait,
    compile_poly,
    compile_step,
    default_seeds,
    disc_from_plane,
    disc_markers,
    integrate_orbit,
    plane_from_disc,
    render_portrait,
    separatrix_seeds,
)

from enclosure import box_enclosure

REASON_EQ = "converged-to-equilibrium"
REASON_TMAX = "reached-tmax"
REASON_BOUNDARY = "reached-boundary"

# the one step text over callable field components: the oracle that
# every compiled kernel is compared with
_ts_step = _define(_TS_STEP.format(args="fx, fy, "), "_ts_step")


def _dist(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _without_captures(flow):
    """Leave `flow` no capture region, in its list or in any chart's."""
    flow.captures.clear()
    for regions in flow.near.values():
        regions.clear()


# ---------------------------------------------------------------------------
# disc geometry


@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_disc_roundtrip(x, y):
    p = disc_from_plane(x, y)
    assert math.hypot(*p) < 1.0
    rx, ry = plane_from_disc(*p)
    assert math.isclose(rx, x, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(ry, y, rel_tol=1e-9, abs_tol=1e-9)


def test_plane_from_disc_rejects_rim_and_outside():
    with pytest.raises(InputError):
        plane_from_disc(1.0, 0.0)
    with pytest.raises(InputError):
        plane_from_disc(0.8, 0.7)


def test_chart_points_project_like_plane_points():
    # a chart point (u, v) with v > 0 covers the plane point
    # (1/v, u/v) in U1 and (u/v, 1/v) in U2; side -1 is the antipode
    for u, v in [(0.5, 0.25), (2.0, 1.0), (0.0, 0.125)]:
        got = _disc_from_chart("U1", u, v, 1)
        want = disc_from_plane(1.0 / v, u / v)
        assert _dist(got, want) < 1e-12
        got = _disc_from_chart("U2", u, v, 1)
        want = disc_from_plane(u / v, 1.0 / v)
        assert _dist(got, want) < 1e-12
        got = _disc_from_chart("U1", u, v, -1)
        want = disc_from_plane(-1.0 / v, -u / v)
        assert _dist(got, want) < 1e-12


# ---------------------------------------------------------------------------
# compiled evaluation and the stepper


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.fractions(min_value=-5, max_value=5),
        max_size=6,
    ),
    st.fractions(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3),
)
def test_compile_poly_matches_exact_evaluation(d, a, b):
    from pdisc.exactalg import MPoly

    p = MPoly(d)
    f = compile_poly(p)
    exact = float(p.eval_rat(a, b))
    assert math.isclose(f(float(a), float(b)), exact, rel_tol=1e-9, abs_tol=1e-9)


def test_stepper_accuracy_on_rotation():
    # x' = y, y' = -x from (1, 0): exact solution (cos t, -sin t)
    fx = lambda x, y: y
    fy = lambda x, y: -x

    def endpoint_error(h):
        nx, ny, _, _, _, _ = _ts_step(fx, fy, 1.0, 0.0, h, fx(1.0, 0.0), fy(1.0, 0.0))
        return math.hypot(nx - math.cos(h), ny + math.sin(h))

    e_coarse = endpoint_error(0.2)
    e_fine = endpoint_error(0.1)
    assert e_fine < 1e-8
    # at least fifth order: halving the step cuts the error far more
    # than the fourth-order factor of 16
    assert e_coarse / e_fine > 10.0


def test_stepper_reuses_its_last_stage():
    # given the first stage, a step evaluates each field component six
    # times and the last evaluation, at the new point itself, is the next
    # first stage
    calls = {"x": [], "y": []}

    def fx(x, y):
        calls["x"].append((x, y))
        return y - x * x

    def fy(x, y):
        calls["y"].append((x, y))
        return -x - 0.5 * y

    k1x, k1y = fx(0.3, -0.7), fy(0.3, -0.7)
    calls = {"x": [], "y": []}
    nx, ny, _, _, k7x, k7y = _ts_step(fx, fy, 0.3, -0.7, 0.05, k1x, k1y)
    assert len(calls["x"]) == len(calls["y"]) == 6
    assert calls["x"][-1] == calls["y"][-1] == (nx, ny)
    assert (k7x, k7y) == (fx(nx, ny), fy(nx, ny))


# the nodes of the Tsitouras 5(4) pair, as published: an autonomous
# field never reads them, so the step text does not hold them
_TS_C = (0.0, 0.161, 0.327, 0.9, 0.9800255409045097, 1.0, 1.0)


def _rooted_trees(n):
    """The rooted trees of n nodes, each as the sorted tuple of its root's
    subtrees, grown by adding a leaf at every node of those of n - 1."""

    def grow(t):
        yield tuple(sorted(t + ((),)))
        for i, child in enumerate(t):
            for g in grow(child):
                yield tuple(sorted(t[:i] + (g,) + t[i + 1 :]))

    trees = {()}
    for _ in range(n - 1):
        trees = {g for t in trees for g in grow(t)}
    return trees


def _tree_size(t):
    return 1 + sum(_tree_size(sub) for sub in t)


def _order_residuals(a, w, order):
    """|w . Phi(t) - 1/gamma(t)| for every rooted tree t of `order`
    nodes, in exact arithmetic on the floats of A and w."""

    def phi(t):
        # the stage-wise product, over the root's subtrees, of A Phi(subtree)
        out = [F(1)] * len(a)
        for sub in t:
            p = phi(sub)
            out = [o * sum(aij * pj for aij, pj in zip(row, p)) for o, row in zip(out, a)]
        return out

    def gamma(t):
        return _tree_size(t) * math.prod(gamma(sub) for sub in t)

    return [abs(sum(wi * pi for wi, pi in zip(w, phi(t))) - F(1, gamma(t))) for t in _rooted_trees(order)]


def _weights(name):
    """The weights of k1x, k2x, ... in the sum of the step text that
    `name` = ... opens, one per stage, 0 for a stage the sum leaves out."""
    text = _TS_STEP[_TS_STEP.index(f"    {name} = ") :]
    text = text[: text.index(")\n")]
    w = [F(0)] * 7
    for v, i in re.findall(r"\(?(-?[0-9.e-]+)\)? \* k(\d)x", text):
        w[int(i) - 1] = F(float(v))
    return w


def test_the_step_text_holds_a_pair_of_orders_5_and_4():
    # A, b and e read from the one step text, as exact rationals of their
    # floats: each row of A sums to its node, b meets the 17 conditions
    # of order up to 5 and b^ = b - e the 8 of order up to 4, and b misses
    # order 6, so a mistyped digit fails here
    a = [[F(0)] * 7 for _ in range(7)]
    for names, values in re.findall(r"\n    (a\d\d(?:, a\d\d)*) = (.*)", _TS_STEP):
        for name, v in zip(names.split(", "), re.findall(r"h \* \(?(-?[0-9.e-]+)\)?", values)):
            a[int(name[1]) - 1][int(name[2]) - 1] = F(float(v))
    b, e = _weights("x5"), _weights("ex")
    a[6] = b  # the seventh stage is taken at the fifth-order point
    assert all(abs(sum(row) - F(c)) < 1e-15 for row, c in zip(a, _TS_C))
    assert [len(_rooted_trees(n)) for n in range(1, 7)] == [1, 1, 2, 4, 9, 20]
    assert max(r for n in range(1, 6) for r in _order_residuals(a, b, n)) < 1e-13
    assert max(r for n in range(1, 5) for r in _order_residuals(a, [bi - ei for bi, ei in zip(b, e)], n)) < 1e-13
    assert max(_order_residuals(a, b, 6)) > 1e-5
    # the text's weights are the oracle's own copy
    assert b[:6] == [F(v) for v in _TS_B] and b[6] == 0 and e == [F(v) for v in _TS_E]


# the Tsitouras 5(4) step in loop form, with its own copy of the tableau:
# the oracle that the straight-line step is compared with.  The rows of A
# give the second to sixth stages; the fifth-order weights b are A's
# seventh row, whose stage, at the new point, has weight 0 in b; e = b - b^
# gives the error estimate.
_TS_A = (
    (0.161,),
    (-0.008480655492356989, 0.335480655492357),
    (2.897153057105493, -6.359448489975075, 4.3622954328695815),
    (5.325864828439257, -11.748883564062828, 7.4955393428898365, -0.09249506636175525),
    (5.86145544294642, -12.92096931784711, 8.159367898576159, -0.071584973281401, -0.028269050394068383),
)
_TS_B = (0.09646076681806523, 0.01, 0.4798896504144996, 1.379008574103742, -3.290069515436081, 2.324710524099774)
_TS_E = (
    -0.00178001105222577714,
    -0.0008164344596567469,
    0.007880878010261995,
    -0.1447110071732629,
    0.5823571654525552,
    -0.45808210592918697,
    1 / 66,
)


def _dot(b, k):
    acc = 0.0
    for bi, ki in zip(b, k):
        acc += bi * ki
    return acc


def _loop_ts_step(f, x, y, h, k1):
    kx = [k1[0]]
    ky = [k1[1]]
    for row in _TS_A:
        ax = x
        ay = y
        for a, px, py in zip(row, kx, ky):
            ax += h * a * px
            ay += h * a * py
        k = f(ax, ay)
        kx.append(k[0])
        ky.append(k[1])
    x5 = x + h * _dot(_TS_B, kx)
    y5 = y + h * _dot(_TS_B, ky)
    k7 = f(x5, y5)
    kx.append(k7[0])
    ky.append(k7[1])
    return x5, y5, h * _dot(_TS_E, kx), h * _dot(_TS_E, ky), k7


def _assert_same_step(fx, fy, x, y, h):
    # compared as bytes, so that -0.0 and NaN count
    k1x, k1y = fx(x, y), fy(x, y)
    new = _ts_step(fx, fy, x, y, h, k1x, k1y)
    x5, y5, ex, ey, k7 = _loop_ts_step(lambda a, b: (fx(a, b), fy(a, b)), x, y, h, (k1x, k1y))
    assert struct.pack("<6d", *new) == struct.pack("<6d", x5, y5, ex, ey, *k7)


def _quadratic(c):
    return lambda x, y: c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y


_coeffs = st.tuples(*[st.floats(min_value=-5.0, max_value=5.0)] * 6)
# step lengths of both signs: a step back in time has a negative one
_lengths = st.floats(min_value=1e-6, max_value=0.5) | st.floats(min_value=-0.5, max_value=-1e-6)


@given(
    _coeffs,
    _coeffs,
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    _lengths,
)
def test_straight_line_step_is_bit_identical_to_the_loop(cx, cy, x, y, h):
    _assert_same_step(_quadratic(cx), _quadratic(cy), x, y, h)


def test_straight_line_sums_start_from_zero():
    # from (-0.0, -0.0), stages of -0.0 but for a 0.0 fifth stage, whose
    # weight is negative: every term of the fifth-order sums is -0.0, and
    # only their leading 0.0 makes the new point 0.0 rather than -0.0
    def scripted():
        stages = iter([-0.0, -0.0, -0.0, 0.0, -0.0, -0.0])
        return lambda x, y: next(stages)

    new = _ts_step(scripted(), scripted(), -0.0, -0.0, 0.5, -0.0, -0.0)
    fx, fy = scripted(), scripted()
    x5, y5, ex, ey, k7 = _loop_ts_step(lambda a, b: (fx(a, b), fy(a, b)), -0.0, -0.0, 0.5, (-0.0, -0.0))
    assert struct.pack("<6d", *new) == struct.pack("<6d", x5, y5, ex, ey, *k7)
    assert math.copysign(1.0, new[0]) == 1.0


def _spike(x, y):
    # infinite only near the second stage of a step of h = 0.5 from the
    # origin, and growing with the point elsewhere, so that the infinite
    # points of the later stages give infinite stages too
    return math.inf if 0.05 < abs(x) < 0.15 else 1.0 + x


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize(
    "fx, fy, x, y",
    [
        # overflows to inf at once, and then to NaN (inf - inf, 0 * inf)
        (_quadratic((1.0, 0.0, 1.0, 1e300, 0.0, 0.0)), _quadratic((0.0, -1.0, 0.0, 0.0, 0.0, -1e300)), 1e10, -1e10),
        # every stage from the second is infinite, and a sum of them with
        # weights of both signs meets inf - inf: NaN
        (_spike, _spike, 0.0, 0.0),
    ],
    ids=["overflow", "second-stage-inf"],
)
def test_straight_line_step_matches_the_loop_off_the_finite_floats(fx, fy, x, y, sign):
    # a step of length 0.5 forward in time, or backward
    h = sign * 0.5
    new = _ts_step(fx, fy, x, y, h, fx(x, y), fy(x, y))
    assert math.isnan(new[0])
    _assert_same_step(fx, fy, x, y, h)


# random polynomials, the zero polynomial and constants among them, with
# coefficients that overflow a step to inf and NaN
_coeff = st.one_of(st.fractions(min_value=-5, max_value=5), st.sampled_from([F(10**300), F(-(10**300)), F(1, 10**300)]))
_polys = st.one_of(
    st.just({}),
    st.dictionaries(st.just((0, 0)), _coeff, min_size=1),
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), _coeff, max_size=6),
).map(MPoly)
_state = st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300, math.inf, math.nan]), st.floats(-3.0, 3.0), st.floats())


def _assert_kernel_matches(dp, fx, fy, x, y, h):
    k1x, k1y = fx(x, y), fy(x, y)
    new = dp(x, y, h, k1x, k1y)
    assert struct.pack("<6d", *new) == struct.pack("<6d", *_ts_step(fx, fy, x, y, h, k1x, k1y))


@settings(max_examples=300)
@given(_polys, _polys, _state, _state, st.floats(min_value=-0.5, max_value=0.5))
def test_compiled_step_is_bit_identical_to_the_callable_step(p, q, x, y, h):
    _assert_kernel_matches(compile_step(p, q), compile_poly(p), compile_poly(q), x, y, h)


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


# one kernel serves both time signs: a step of length -h of the field F
# is, float for float, the step of length h of -F, as (-h) * a is
# -(h * a) and binary64 rounding is symmetric, with its stages, the last
# one k7 among them, negated.  Only the sign of an exact zero can differ,
# which a float comparison does not see.  No NaN reaches an accepted
# state: every error weight is nonzero, so a NaN stage makes the error
# NaN, and the orbit loop rejects the step.  Of an accepted step only a
# -0.0 coordinate whose increment is exactly zero can differ: x + -0.0
# is -0.0 where x + 0.0 is 0.0
@settings(max_examples=300)
@given(_polys, _polys, _state, _state, st.floats(min_value=0.0, max_value=0.5, exclude_min=True))
def test_a_step_back_is_the_step_of_the_negated_field(p, q, x, y, h):
    fx, fy = compile_poly(p), compile_poly(q)
    back = compile_step(p, q)(x, y, -h, fx(x, y), fy(x, y))
    gx, gy = (lambda a, b: -1.0 * fx(a, b)), (lambda a, b: -1.0 * fy(a, b))
    want = _ts_step(gx, gy, x, y, h, gx(x, y), gy(x, y))
    assert all(map(_same_float, back, want[:4] + (-want[4], -want[5]))), (back, want)


# the Horner text that added every zero coefficient and row as + 0.0,
# which the trimmed one replaced, kept as an oracle
def _untrimmed_horner(p):
    rows = p.coeffs_in("y")
    if not rows:
        return "0.0"
    parts = []
    for j in range(len(rows) - 1, -1, -1):
        xs = rows[j].univariate_coeffs("x")
        if not xs:
            inner = "0.0"
        else:
            inner = repr(float(xs[-1]))
            for c in reversed(xs[:-1]):
                inner = f"({inner})*x + {float(c)!r}"
        parts.append(f"({inner})")
    body = parts[0]
    for chunk in parts[1:]:
        body = f"({body})*y + {chunk}"
    return body


# y^2 + x^2 - 2x: a leading coefficient 1 of a row in x and of the top
# row in y, each of which multiplies nothing in the trimmed text
_ONE_LEADS = MPoly({(0, 2): F(1), (2, 0): F(1), (1, 0): F(-2)})


@settings(max_examples=300)
@given(_polys, _state, _state)
# zero rows, zero coefficients and a zero constant term, at -0.0
@example(MPoly({(2, 3): F(1), (0, 1): F(-2)}), -0.0, -0.0)
@example(MPoly({(1, 1): F(1)}), -0.0, 2.0)
@example(_ONE_LEADS, math.nan, -0.0)
@example(_ONE_LEADS, -0.0, math.nan)
@example(_ONE_LEADS, -math.nan, -math.nan)
@example(_ONE_LEADS, math.inf, -0.0)
@example(_ONE_LEADS, -0.0, math.inf)
@example(_ONE_LEADS, -0.0, -0.0)
@example(MPoly({(3, 0): F(1)}), -0.0, math.nan)
@example(MPoly({(0, 1): F(1)}), math.inf, -math.nan)
def test_trimmed_horner_is_bit_identical_to_the_untrimmed_one(p, x, y):
    namespace = {}
    exec(f"def _f(x, y):\n    return {_untrimmed_horner(p)}\n", namespace)
    assert struct.pack("<d", compile_poly(p)(x, y)) == struct.pack("<d", namespace["_f"](x, y))


@functools.lru_cache(maxsize=None)
def _bundled_flow():
    return Flow(disc_equilibria(leslie_system(F(1), F(1), F(1, 2)), False))


@given(st.sampled_from(["U3", "U1", "U2"]), _state, _state, _lengths)
def test_each_charts_kernel_is_bit_identical_to_the_callable_step(chart, x, y, h):
    _assert_kernel_matches(*_bundled_flow().fields[chart], x, y, h)


def test_orbit_matches_exponential_flow():
    # x' = x, y' = -y from (1, 1): the time-1 map is (e, 1/e)
    sys = parse_system("dx = x\ndy = -y\n")
    tr = integrate_orbit(Flow(disc_equilibria(sys)), disc_from_plane(1.0, 1.0), tmax=1.0)
    assert tr.reason == REASON_TMAX
    assert len(tr.points) >= 2
    want = disc_from_plane(math.e, 1.0 / math.e)
    assert _dist(tr.points[-1], want) < 1e-6


def test_slow_steps_are_bounded_by_length(monkeypatch):
    # x' = -x/64, y' = -y/64 from (0.5, 0.3): the speed stays below 1/64,
    # so the length bound would let a step last up to 0.5 / |F| > 32
    # rather than 0.5 (104 kernel calls while every step was capped at
    # 0.5, 19 with the Dormand-Prince pair at a relative tolerance of
    # 1e-9, 14 with it at 1e-8).  The bound itself never binds here: the
    # error controller sets every step, 8 of the 12 longer than 0.5 (see
    # `test_the_length_bound_binds` for where it does), and still keeps
    # the endpoint on the exact flow e^(-t/64) (x0, y0): 6.4e-10 off at
    # the finite chart's absolute tolerance of 1e-9, 6.2e-10 at 1e-12 and
    # 7.5e-11 at a relative tolerance of 1e-9 (5.8e-10 with the
    # Dormand-Prince pair at 1e-8).  This field is linear, so its error
    # says little of the step's on a nonlinear one (see
    # `test_leslie_orbits_keep_their_accuracy`)
    calls = [0]

    def counting(p, q):
        step = compile_step(p, q)

        def counted(*args):
            calls[0] += 1
            return step(*args)

        return counted

    monkeypatch.setattr("pdisc.portrait.compile_step", counting)
    sys = parse_system("dx = -1/64*x\ndy = -1/64*y\n")
    seed = disc_from_plane(0.5, 0.3)
    x0, y0 = plane_from_disc(*seed)
    tr = integrate_orbit(Flow(disc_equilibria(sys), markers=[]), seed, tmax=50.0)
    assert tr.reason == REASON_TMAX
    assert calls[0] == 12
    x, y = plane_from_disc(*tr.points[-1])
    decay = math.exp(-50.0 / 64.0)
    assert math.hypot(x - decay * x0, y - decay * y0) < 1e-9


def test_leslie_orbits_keep_their_accuracy(monkeypatch):
    # the bundled Leslie field, nonlinear where `test_slow_steps_are_bounded_by_length`
    # is linear: the 64 generic seeds of the full-disc grid 4, each run
    # forward and backward to t = 1 with no marker to end it, against the
    # same orbits at a relative tolerance of 1e-12.  The median disc
    # distance of their end points was 4.0e-9 when recorded (4.0e-10 with
    # the Dormand-Prince pair at 1e-8, 7.1e-10 with the Tsitouras pair at
    # 1e-8); the bound is twice the recorded median, so a change to the
    # tolerances or the tableau that costs more accuracy than that fails
    flow = Flow(disc_equilibria(leslie_system(F(1), F(1), F(1, 2)), False), markers=[])
    seeds = [s.disc for s in default_seeds(False, grid=4) if s.role == "generic"]

    def ends():
        return [integrate_orbit(flow, s, d, tmax=1.0).points[-1] for s in seeds for d in ("forward", "backward")]

    got = ends()
    monkeypatch.setattr("pdisc.portrait.RTOL_DEFAULT", 1e-12)
    errors = [_dist(a, b) for a, b in zip(got, ends())]
    assert len(errors) == 128
    assert statistics.median(errors) < 8e-9


@pytest.mark.parametrize(
    "source, plane, branch",
    [
        # |F| >= 1 in the finite chart, so a step there lasts at most 0.5
        ("dx = 1\ndy = 1/1000000*y + 1/1000000\n", (5.0, 0.1), "0.5"),
        # |F| is about 1/8, so a step lasts at most 0.5 / |F|, about 4
        ("dx = 1/8\ndy = 1/1000000*y + 1/1000000\n", (2.0, 0.1), "0.5/|F|"),
    ],
    ids=["fast", "slow"],
)
def test_the_length_bound_binds(monkeypatch, source, plane, branch):
    # a near-constant field, on which the error controller alone would
    # let steps grow long: every step moves at most about 0.5 chart units,
    # h <= 0.5 or h * |F| <= 0.5 with |F| the speed at its start, and
    # the bound sets h on some steps (10 of 29 kernel calls at h = 0.5
    # for the fast field, 11 of 18 at h = 0.5 / |F| for the slow one)
    calls = []

    def recording(p, q):
        step = compile_step(p, q)

        def recorded(x, y, h, k1x, k1y):
            calls.append((abs(h), math.hypot(k1x, k1y)))
            return step(x, y, h, k1x, k1y)

        return recorded

    monkeypatch.setattr("pdisc.portrait.compile_step", recording)
    flow = Flow(disc_equilibria(parse_system(source)), markers=[])
    tr = integrate_orbit(flow, disc_from_plane(*plane), tmax=50.0)
    assert tr.reason == REASON_TMAX
    above = math.nextafter(0.5, 1.0)
    assert all(h <= 0.5 or h * speed <= above for h, speed in calls)
    if branch == "0.5":
        assert any(h == 0.5 and speed >= 1.0 for h, speed in calls)
    else:
        assert any(h > 0.5 and h == 0.5 / speed for h, speed in calls)


def test_a_step_across_the_equator_is_retried_at_half_its_length():
    # x' = x, y' = 2y from the plane point (20, 1) starts in U1 at
    # (u, v) = (1/20, 1/20).  The first step is made to land at -v with
    # a zero error estimate, so it passes the error test; the equator is
    # invariant, so the step is retried from the same state at half its
    # length, and the orbit stays on its v > 0 half
    flow = Flow(disc_equilibria(parse_system("dx = x\ndy = 2*y\n")), markers=[])
    step, fx, fy = flow.fields["U1"]
    calls = []

    def crossing_once(x, y, h, k1x, k1y):
        calls.append((x, y, h))
        nx, ny, ex, ey, k7x, k7y = step(x, y, h, k1x, k1y)
        return (nx, -ny, 0.0, 0.0, k7x, k7y) if len(calls) == 1 else (nx, ny, ex, ey, k7x, k7y)

    flow.fields["U1"] = (crossing_once, fx, fy)
    tr = integrate_orbit(flow, disc_from_plane(20.0, 1.0), tmax=5.0)
    assert len(calls) > 2
    assert calls[1] == (calls[0][0], calls[0][1], calls[0][2] / 2)
    assert all(v > 0.0 for _, v, _ in calls[1:])
    assert all(px > 0.0 for px, _ in tr.points)


def test_orbit_seeded_at_an_equilibrium_stays_there():
    # the field is exactly 0.0 at the seed's plane point, so the speed
    # sets no bound on a step: the orbit runs to tmax without moving
    seed = disc_from_plane(1.0, 1.0)
    x0, y0 = plane_from_disc(*seed)
    sys = parse_system(f"dx = x - {F(x0)}\ndy = y - {F(y0)}\n")
    tr = integrate_orbit(Flow(disc_equilibria(sys), markers=[]), seed, tmax=50.0)
    assert tr.reason == REASON_TMAX
    assert tr.points == [disc_from_plane(x0, y0)]


def test_orbit_escapes_to_equator_node():
    # the saddle flow sends generic forward orbits to the equator point
    # in the +x direction
    sys = parse_system("dx = x\ndy = -y\n")
    tr = integrate_orbit(Flow(disc_equilibria(sys)), disc_from_plane(2.0, 3.0))
    assert tr.reason in (REASON_EQ, REASON_BOUNDARY)
    assert _dist(tr.points[-1], (1.0, 0.0)) < 1e-6


def test_axis_orbits_stay_exactly_on_axis():
    flow = Flow(disc_equilibria(leslie_system(F(1), F(1), F(1, 2))))
    tr = integrate_orbit(flow, disc_from_plane(3.0, 0.0), line=MPoly.var_y())
    assert all(p[1] == 0.0 for p in tr.points)
    assert tr.reason == REASON_EQ
    # on the positive x axis the flow is x' = x(C+x)(1-x): x -> 1
    assert _dist(tr.points[-1], disc_from_plane(1.0, 0.0)) < 1e-6

    tr = integrate_orbit(flow, disc_from_plane(0.0, 2.0), line=MPoly.var_x())
    assert all(p[0] == 0.0 for p in tr.points)
    assert tr.reason == REASON_EQ
    # on the positive y axis the flow is y' = By(C-y): y -> C
    assert _dist(tr.points[-1], disc_from_plane(0.0, 0.5)) < 1e-6


def test_orbit_reversibility():
    flow = Flow(disc_equilibria(leslie_system(F(1), F(1), F(1, 2))))
    seed = (0.3, 0.4)
    fwd = integrate_orbit(flow, seed, "forward", tmax=2.0)
    assert fwd.reason == REASON_TMAX
    back = integrate_orbit(flow, fwd.points[-1], "backward", tmax=2.0)
    assert back.reason == REASON_TMAX
    assert _dist(back.points[-1], seed) < 1e-5


def test_orbit_input_validation():
    flow = Flow(disc_equilibria(leslie_system(F(1), F(1), F(1, 2))))
    with pytest.raises(InputError):
        integrate_orbit(flow, (1.0, 0.0))
    with pytest.raises(InputError):
        integrate_orbit(flow, (1.2, 0.3))
    with pytest.raises(InputError):
        integrate_orbit(flow, (0.2, 0.1), direction="sideways")
    with pytest.raises(InputError):
        # axis seeds run the same loop; same validation
        integrate_orbit(flow, disc_from_plane(2.0, 0.0), direction="up")


@pytest.mark.parametrize("tmax", [0.0, -5.0, math.nan, math.inf])
def test_integrate_orbit_rejects_a_horizon_not_positive_and_finite(tmax):
    sys = leslie_system(F(1), F(1), F(1, 2))
    flow = Flow(disc_equilibria(sys))
    # an integrated seed and one on an invariant axis, decided exactly
    for seed in (disc_from_plane(1.0, 1.0), disc_from_plane(2.0, 0.0)):
        with pytest.raises(InputError, match="tmax"):
            integrate_orbit(flow, seed, tmax=tmax)
    with pytest.raises(InputError, match="tmax"):
        build_portrait(sys, grid=1, tmax=tmax)


@pytest.mark.parametrize("grid", [0, -3, 2.5, "4"])
def test_build_portrait_rejects_a_grid_not_an_integer_at_least_1(grid):
    with pytest.raises(InputError, match="grid"):
        build_portrait(leslie_system(F(1), F(1), F(1, 2)), grid=grid)


# ---------------------------------------------------------------------------
# seeding


def test_default_seed_layout():
    quad = default_seeds(positive_quadrant_only=True, grid=8)
    assert len(quad) == 8 * 8 + 8
    assert len({s.seed_id for s in quad}) == len(quad)
    for s in quad:
        assert math.hypot(*s.disc) < 1.0
        assert s.disc[0] >= 0.0 and s.disc[1] >= 0.0
        assert s.direction == "forward"
    assert default_seeds(True, 8) == quad  # deterministic

    full = default_seeds(positive_quadrant_only=False, grid=8)
    assert len(full) == 8 * 32 + 16
    assert any(s.disc[0] < 0.0 for s in full)
    assert any(s.disc[1] < 0.0 for s in full)


# ---------------------------------------------------------------------------
# the assembled Leslie-Gower portrait, interior-equilibrium regime


@pytest.fixture(scope="module")
def leslie_doc() -> PortraitDoc:
    params = ParamBindings(F(1), F(1), F(1, 2))
    sys = leslie_system(params.A, params.B, params.C)
    return build_portrait(sys, params, positive_quadrant_only=True)


def test_leslie_marker_inventory(leslie_doc):
    by_label = {m.label: m for m in leslie_doc.markers if m.label}
    assert set(by_label) == {"E0", "E1", "E2", "Estar"}
    assert by_label["E0"].classification == "unstable node"
    assert by_label["E1"].classification == "saddle"
    assert by_label["E2"].classification == "saddle"
    assert by_label["Estar"].classification == "stable focus"
    assert leslie_doc.regime == "positive"
    inf_ids = {m.marker_id for m in leslie_doc.markers if m.chart != "U3"}
    assert inf_ids == {"inf:U1+:0", "inf:U2+:0"}


def test_leslie_infinite_sectors(leslie_doc):
    by_id = {m.marker_id: m for m in leslie_doc.markers}
    # the origin of U2 is degenerate; one blow-up level resolves it
    assert by_id["inf:U2+:0"].sectors == SectorDecomposition(2, 2, 0, "resolved")
    # the origin of U1 is a hyperbolic node: a single parabolic sector
    assert by_id["inf:U1+:0"].sectors == SectorDecomposition(0, 1, 0, "resolved")
    # hyperbolic finite points carry direct decompositions too
    assert by_id["E1"].sectors == SectorDecomposition(4, 0, 0, "resolved")
    assert by_id["Estar"].sectors == SectorDecomposition(0, 1, 0, "resolved")


@pytest.mark.parametrize("quadrant", [True, False])
def test_a_blowup_that_meets_a_line_of_equilibria_leaves_no_sectors(quadrant):
    # at the U2 origin of this system one blow-up meets a curve of
    # equilibria, so its markers keep no blow-up and draw no sectors
    doc = build_portrait(parse_system("dx = (x^2-2)^2\ndy = y^2\n"), positive_quadrant_only=quadrant, grid=1)
    entries = json.loads(render_portrait(doc)[1])["equilibria"]
    ends = {"inf:U2+:0"} if quadrant else {"inf:U2+:0", "inf:U2-:0"}
    seen = set()
    for m, entry in zip(doc.markers, entries):
        if m.marker_id in ends:
            seen.add(m.marker_id)
            assert m.classification == "degenerate-needs-blowup"
            with pytest.raises(LineOfEquilibriaError):
                blowup_analysis(m.system, m.record.point)
            assert m.blowup is None and m.sectors is None
            assert "sectors" not in entry
    assert seen == ends


def test_leslie_separatrix_count(leslie_doc):
    seps = [t for t in leslie_doc.trajectories if t.role == "separatrix"]
    # two finite saddles, three admissible eigendirection offsets each
    # after the quadrant filter
    assert len(seps) == 6
    assert len({t.seed_id for t in leslie_doc.trajectories}) == len(
        leslie_doc.trajectories
    )


def test_leslie_grid_orbits_converge_to_interior_point(leslie_doc):
    star = disc_from_plane(0.25, 0.75)
    grid = [t for t in leslie_doc.trajectories if t.seed_id.startswith("grid:")]
    assert len(grid) == 64
    for tr in grid:
        assert tr.reason == REASON_EQ
        assert _dist(tr.points[-1], star) < 1e-7


def test_leslie_axis_trajectories_exact(leslie_doc):
    xs = [t for t in leslie_doc.trajectories if t.seed_id.startswith("axis:x")]
    ys = [t for t in leslie_doc.trajectories if t.seed_id.startswith("axis:y")]
    assert len(xs) == 4 and len(ys) == 4
    for tr in xs:
        assert all(p[1] == 0.0 for p in tr.points)
    for tr in ys:
        assert all(p[0] == 0.0 for p in tr.points)


def test_leslie_quadrant_positive_invariance(leslie_doc):
    for tr in leslie_doc.trajectories:
        for p in tr.points:
            assert p[0] >= -1e-9 and p[1] >= -1e-9
            assert math.hypot(*p) <= 1.0 + 1e-9


def test_leslie_trajectory_reasons(leslie_doc):
    reasons = {t.reason for t in leslie_doc.trajectories}
    assert reasons <= {REASON_EQ, REASON_BOUNDARY}
    # the backward axis separatrices leave every bounded region
    boundary = [t for t in leslie_doc.trajectories if t.reason == REASON_BOUNDARY]
    assert len(boundary) == 2
    assert all(t.role == "separatrix" and t.direction == "backward" for t in boundary)


def test_render_determinism(leslie_doc):
    svg1, js1 = render_portrait(leslie_doc)
    svg2, js2 = render_portrait(leslie_doc)
    assert svg1 == svg2 and js1 == js2
    # a rebuilt document renders to the same bytes
    params = ParamBindings(F(1), F(1), F(1, 2))
    doc2 = build_portrait(leslie_system(params.A, params.B, params.C), params)
    svg3, js3 = render_portrait(doc2)
    assert svg3 == svg1 and js3 == js1


def test_rendered_json_shape(leslie_doc):
    _, js = render_portrait(leslie_doc)
    doc = json.loads(js)
    assert set(doc) == {"system", "regime", "equilibria", "trajectories"}
    assert doc["regime"] == "positive"
    assert len(doc["equilibria"]) == len(leslie_doc.markers)
    labels = {e.get("label") for e in doc["equilibria"]}
    assert {"E0", "E1", "E2", "Estar"} <= labels
    by_chart = {e["chart"]: e for e in doc["equilibria"]}
    assert by_chart["U2"]["sectors"] == {
        "hyperbolic": 2,
        "parabolic": 2,
        "elliptic": 0,
        "status": "resolved",
    }
    for entry in doc["trajectories"]:
        assert set(entry) == {"seed", "role", "direction", "reason", "points"}
        for x, y in entry["points"]:
            assert x * x + y * y <= 1.0 + 1e-6


_rendered = st.one_of(st.floats(-1.0, 1.0), st.floats(-1e-3, 1e-3), st.floats())


@settings(max_examples=300)
@given(st.lists(st.lists(st.tuples(_rendered, _rendered), max_size=12), max_size=3))
@example([[(0.0, -0.0), (1.0, -1.0), (1e-9, -1e-9)]])
@example([[(5e-5, -5e-5), (9.9e-5, -9.9e-5), (9.95e-5, 1e-4)], [(0.9999995, -0.9999995)]])
# not a disc point: the coordinates are rounded one at a time
@example([[(0.5, 0.25), (math.nan, math.inf), (2.0, -math.inf)]])
def test_rendered_coordinates_are_the_rounded_floats(polylines):
    trajectories = [Trajectory(f"s{i}", "generic", "forward", pts, REASON_TMAX) for i, pts in enumerate(polylines)]
    _, js = render_portrait(PortraitDoc("dx = x\ndy = y", None, [], trajectories, True))
    # the document as json.dumps wrote it whole, coordinates through round()
    want = {
        "system": "dx = x\ndy = y",
        "regime": None,
        "equilibria": [],
        "trajectories": [
            {
                "seed": tr.seed_id,
                "role": tr.role,
                "direction": tr.direction,
                "reason": tr.reason,
                "points": [[round(x, 6), round(y, 6)] for x, y in tr.points],
            }
            for tr in trajectories
        ],
    }
    assert js == json.dumps(want, sort_keys=True, separators=(",", ":")).encode("utf-8")


def test_rendered_svg_structure(leslie_doc):
    svg, _ = render_portrait(leslie_doc)
    text = svg.decode("utf-8")
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert 'clip-path="url(#quadrant)"' in text
    for stroke in ("#9aa0a6", "#1a73e8", "#d93025"):
        assert stroke in text
    assert text.count("<polyline") >= 70
    assert "regime 1-AC: positive" in text


# ---------------------------------------------------------------------------
# other parameter regimes


def test_collapse_regime_portrait():
    params = ParamBindings(F(1), F(1), F(1))
    sys = leslie_system(params.A, params.B, params.C)
    doc = build_portrait(sys, params, grid=2, tmax=40.0)
    assert doc.regime == "zero"
    by_label = {m.label: m for m in doc.markers if m.label}
    # the interior point collapses onto (0, C); the merged point keeps
    # the E1 name and becomes a saddle-node
    assert "Estar" not in by_label
    assert by_label["E1"].classification == "saddle-node"
    assert by_label["E2"].classification == "saddle"
    assert any(t.role == "separatrix" for t in doc.trajectories)


def test_negative_regime_portrait():
    params = ParamBindings(F(3), F(1), F(1, 2))
    assert params.regime_value < 0
    sys = leslie_system(params.A, params.B, params.C)
    doc = build_portrait(sys, params, grid=2, tmax=150.0)
    assert doc.regime == "negative"
    by_label = {m.label: m for m in doc.markers if m.label}
    assert "Estar" not in by_label
    # without an interior point, (0, C) attracts the open quadrant
    assert by_label["E1"].classification == "stable node"
    target = disc_from_plane(0.0, 0.5)
    grid = [t for t in doc.trajectories if t.seed_id.startswith("grid:")]
    assert grid and all(
        t.reason == REASON_EQ and _dist(t.points[-1], target) < 1e-6 for t in grid
    )


def test_full_disc_marker_count():
    params = ParamBindings(F(1), F(1), F(1, 2))
    sys = leslie_system(params.A, params.B, params.C)
    doc = build_portrait(sys, params, positive_quadrant_only=False, grid=2, tmax=10.0)
    assert len(doc.markers) == 11
    sides = {m.marker_id for m in doc.markers if m.chart != "U3"}
    assert sides == {
        "inf:U1+:0",
        "inf:U1+:-1",
        "inf:U2+:0",
        "inf:U1-:0",
        "inf:U1-:-1",
        "inf:U2-:0",
    }
    assert {m.label for m in doc.markers if m.chart == "U3"} == {
        "E0",
        "E1",
        "E2",
        "Estar",
        "other",
    }


def test_separatrix_seeds_respect_quadrant_filter(leslie_doc):
    sys = leslie_system(F(1), F(1), F(1, 2))
    markers = leslie_doc.markers
    unfiltered = separatrix_seeds(markers, positive_quadrant_only=False)
    filtered = separatrix_seeds(markers, positive_quadrant_only=True)
    assert len(filtered) == 6
    assert len(unfiltered) == 8
    assert {s.seed_id for s in filtered} <= {s.seed_id for s in unfiltered} | {
        s.seed_id for s in filtered
    }
    for s in filtered:
        assert s.disc[0] >= -1e-6 and s.disc[1] >= -1e-6


def test_quadrant_view_keeps_the_equator_seeds_inside_it():
    # the U1+ saddle-node's one separatrix seed lies at a chart point
    # u < 0, just off the quadrant, which only the full disc keeps; the
    # U2+ saddle's seed lies inside it
    sys = parse_system("dx = x^2 - 2*x*y\ndy = x - y^2 + x*y\n")
    seeds = {}
    for quadrant in (True, False):
        doc = build_portrait(sys, positive_quadrant_only=quadrant, grid=1, tmax=1.0)
        seeds[quadrant] = sorted(t.seed_id for t in doc.trajectories if t.seed_id.startswith("sep:inf:"))
    assert seeds[True] == ["sep:inf:U2+:0:0"]
    assert seeds[False] == ["sep:inf:U1+:0:0", "sep:inf:U1-:0:0", "sep:inf:U2+:0:0", "sep:inf:U2-:0:0"]


@pytest.mark.parametrize(
    "source",
    [
        "params: A=1, B=1, C=1/2\ndx = x*(C+x)*(1-x-A*y)\ndy = B*y*(C+x-y)\n",
        # even degree: an other-side seed would run in the wrong time direction
        "dx = x*(x - y)\ndy = y*(x + y - 1)\n",
    ],
)
def test_equator_markers_seed_only_their_own_side(source):
    markers = {m.marker_id: m for m in disc_markers(disc_equilibria(parse_system(source), False))}
    seeds = separatrix_seeds(list(markers.values()))
    assert len({s.disc for s in seeds}) == len(seeds)
    sides = []
    for s in seeds:
        m = markers[s.seed_id[len("sep:"):].rsplit(":", 1)[0]]
        if m.chart != "U3":
            along = s.disc[0] if m.chart == "U1" else s.disc[1]
            assert along * m.side > 0, s
            sides.append(m.side)
    assert sorted(set(sides)) == [-1, 1]


def test_full_disc_portrait_compiles_each_polynomial_once(monkeypatch):
    # one Flow per portrait: the U3, U1 and U2 components, however many
    # orbits are drawn
    compiled = []

    def counting(p):
        compiled.append(p)
        return compile_poly(p)

    monkeypatch.setattr("pdisc.portrait.compile_poly", counting)
    params = ParamBindings(F(1), F(1), F(1, 2))
    sys = leslie_system(params.A, params.B, params.C)
    doc = build_portrait(sys, params, positive_quadrant_only=False, grid=2, tmax=10.0)
    assert len(doc.trajectories) > 8
    assert len(compiled) == 6


# ---------------------------------------------------------------------------
# irrational saddles: Jacobians at the refined point


@pytest.mark.parametrize(
    "source, quadrant",
    [
        ("dx = x^2 - 2\ndy = y^2 - x*y - 3\n", False),
        ("dx = x^2 + y^2 - 3\ndy = x*y - 1\n", True),
    ],
    ids=["saddle-full", "saddle-quadrant"],
)
def test_irrational_saddles_get_separatrices(source, quadrant, tmp_path, capsys):
    doc = build_portrait(parse_system(source), positive_quadrant_only=quadrant)
    saddles = [
        m for m in doc.markers if m.classification == "saddle" and not m.record.point.is_exact
    ]
    assert saddles
    for m in saddles:
        seps = [t for t in doc.trajectories if t.seed_id.startswith(f"sep:{m.marker_id}:")]
        assert seps and all(t.role == "separatrix" for t in seps)
    svg, js = render_portrait(doc)
    assert json.loads(js)["trajectories"]

    path = tmp_path / "saddle.vf"
    path.write_text(source, encoding="utf-8")
    flag = "--quadrant" if quadrant else "--no-quadrant"
    out = tmp_path / "saddle.json"
    assert main(["portrait", str(path), flag, "--out", str(out)]) == 0
    assert out.read_bytes() == js


def test_center_candidate_glyph():
    # the linear center draws its equilibrium as two concentric circles
    doc = build_portrait(parse_system("dx = -y\ndy = x\n"), positive_quadrant_only=False, grid=2)
    assert [(m.marker_id, m.classification) for m in doc.markers] == [("finite:0,0", "center-candidate")]
    svg, _ = render_portrait(doc)
    assert (
        b'<g stroke="#a142f4" fill="none" stroke-width="2">'
        b'<circle cx="400.00" cy="400.00" r="6"/><circle cx="400.00" cy="400.00" r="2.5"/>'
        b"<title>finite:0,0: center-candidate</title></g>"
    ) in svg


# ---------------------------------------------------------------------------
# capture regions of saddle-nodes and blown-up degenerate points

# x' = x^2, y' = -y: a saddle-node at the origin whose node half is x < 0
SADDLE_NODE = "dx = x^2\ndy = -y\n"


def _origin_saddle_node(source=SADDLE_NODE):
    sys = parse_system(source)
    (rec,) = [r for r in finite_equilibria(sys) if r.point.approx() == (0.0, 0.0)]
    assert rec.classification == "saddle-node"
    m = _marker_for_finite(rec, sys)
    return sys, m, saddle_node_capture(m)


def testsaddle_node_captures_only_its_node_half_forward():
    _, _, cap = _origin_saddle_node()
    assert cap.r == float(CAPTURE_RADIUS)
    assert cap.hit(-0.01, 0.002, 1.0)  # node half, forward time
    assert not cap.hit(0.01, 0.002, 1.0)  # saddle half
    assert not cap.hit(-0.01, 0.002, -1.0)  # node half repels backward
    # backward, c > 0 creeps in along the center direction, but w' = +w
    assert not cap.hit(0.01, 0.002, -1.0)
    assert not cap.hit(-0.01, 0.02, 1.0)  # outside the cone |w| <= |c|
    assert not cap.hit(-2.0 * CAPTURE_RADIUS, 0.0, 1.0)  # beyond the triangle


def test_captured_orbit_ends_at_the_marker():
    sys, m, _ = _origin_saddle_node()
    seed = disc_from_plane(-0.5, 0.3)
    # the approach is algebraic (x ~ -1/t), so without the region the orbit runs to tmax
    bare_flow = Flow(disc_equilibria(sys), markers=[m])
    _without_captures(bare_flow)
    bare = integrate_orbit(bare_flow, seed, tmax=50.0)
    assert bare.reason == REASON_TMAX
    flow = Flow(disc_equilibria(sys), markers=[m])
    tr = integrate_orbit(flow, seed, tmax=50.0)
    assert tr.reason == REASON_EQ
    assert tr.points[-1] == (0.0, 0.0)
    assert tr.limit == m.marker_id
    assert len(tr.points) < len(bare.points)
    # backward, the same seed leaves the node half
    back = integrate_orbit(flow, seed, "backward", tmax=5.0)
    assert back.points[-1] != (0.0, 0.0)


def test_axis_orbits_end_at_their_exact_limit():
    sys, m, _ = _origin_saddle_node()
    flow = Flow(disc_equilibria(sys))
    seed = disc_from_plane(-0.5, 0.0)
    # the x axis is invariant and x' = x^2 > 0 on it: forward the orbit
    # creeps into the saddle-node, which a speed rule never caught
    tr = integrate_orbit(flow, seed, tmax=50.0, line=MPoly.var_y())
    assert tr.points == [seed, m.disc]
    assert (tr.reason, tr.limit) == (REASON_EQ, m.marker_id)
    # backward it runs to the rim point of the negative x axis
    tr = integrate_orbit(flow, seed, "backward", line=MPoly.var_y())
    assert tr.points == [seed, (-1.0, 0.0)]
    assert (tr.reason, tr.limit) == (REASON_BOUNDARY, "inf:U1-:0")
    # a seed at an equilibrium on an axis stays there
    tr = integrate_orbit(flow, (0.0, 0.0), line=MPoly.var_y())
    assert tr.points == [(0.0, 0.0)]
    assert (tr.reason, tr.limit) == (REASON_EQ, m.marker_id)


def _on(f, disc):
    """Whether the plane point of a disc point lies on the line f up to
    the rounding of the disc map; a separatrix seed off f misses it by
    about its offset of 1e-3."""
    x, y = plane_from_disc(*disc)
    a, b, c = (float(f.coeff(*e)) for e in ((1, 0), (0, 1), (0, 0)))
    return abs(a * x + b * y + c) <= 1e-9 * (1.0 + abs(x) + abs(y))


@st.composite
def _line_through_a_saddle(draw):
    """A quadratic field with a rational line L = a*x + b*y + c planted
    through a rational point p, with the coefficients of the field in
    s = L and t = b*(x - x0) - a*(y - y0): s' = s*(l1 + k1*s + k2*t),
    so L is invariant, and t' = l2*t + e1*s + e2*t^2, so on L the flow
    is t' = l2*t + e2*t^2, with equilibria p and, where l2*e2 != 0, t =
    -l2/e2.  p has eigenvalues l1 and l2, l2 along L; it is a saddle
    where l1*l2 < 0, and may be a saddle-node where one is 0."""
    q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    x0, y0, a, b = (draw(q) for _ in range(4))
    assume(a or b)
    l1, l2, k1, k2, e1, e2 = (draw(q) for _ in range(6))
    shift_x, shift_y = MPoly.var_x() - MPoly.const(x0), MPoly.var_y() - MPoly.const(y0)
    s = shift_x * a + shift_y * b
    t = shift_x * b - shift_y * a
    ds = s * (MPoly.const(l1) + s * k1 + t * k2)
    dt = t * l2 + s * e1 + t * t * e2
    n = a * a + b * b
    sys = PlanarSystem((ds * a + dt * b) * (1 / n), (ds * b - dt * a) * (1 / n))
    tstar = -l2 / e2 if l2 and e2 else None
    return sys, (x0, y0), s, tstar


@settings(max_examples=60, deadline=None)
@given(_line_through_a_saddle())
def test_a_seed_on_a_planted_line_takes_its_exact_limit(case):
    # every tag names a line its seed lies on, and the planted saddle's
    # seeds on L, and only those, carry L; each of those is not
    # integrated but runs along L away from p, to the other equilibrium
    # on L where that lies on its side, else to L's end on the rim
    sys, (x0, y0), line, tstar = case
    try:
        flow = Flow(disc_equilibria(sys))
    except (InputError, LineOfEquilibriaError, PositiveDimensionalError):
        assume(False)
    exact = {n.record.point.exact_pair(): n for n in flow.markers if n.chart == "U3" and n.record.point.is_exact}
    m = exact[x0, y0]
    assume(m.classification in ("saddle", "saddle-node"))
    seeds = separatrix_seeds(flow.markers, False, flow.lines)
    assert all(_on(sd.line, sd.disc) for sd in seeds if sd.line is not None)
    mine = [sd for sd in seeds if sd.seed_id.startswith(f"sep:{m.marker_id}:")]
    on = [sd for sd in mine if sd.line is not None and sd.line.monic() == line.monic()]
    assert on and on == [sd for sd in mine if _on(line, sd.disc)]
    a, b = line.coeff(1, 0), line.coeff(0, 1)
    for sd in on:
        x, y = plane_from_disc(*sd.disc)
        side = 1.0 if float(b) * (x - float(x0)) - float(a) * (y - float(y0)) > 0 else -1.0
        if tstar is not None and tstar * side > 0:
            point = (x0 + b * tstar / (a * a + b * b), y0 - a * tstar / (a * a + b * b))
            want = exact[point].disc, exact[point].marker_id
        else:
            norm = math.hypot(float(b), float(a))
            rim = (side * float(b) / norm, -side * float(a) / norm)
            ends = [n for n in flow.markers if n.chart != "U3" and _dist(n.disc, rim) < 1e-12]
            want = (ends[0].disc, ends[0].marker_id) if ends else (rim, None)
        tr = integrate_orbit(flow, sd.disc, sd.direction, line=sd.line)
        assert len(tr.points) == 2 and _dist(tr.points[1], want[0]) < 1e-12 and tr.limit == want[1], sd.seed_id


def test_an_equator_saddle_seeds_its_transverse_branch_on_a_finite_line():
    # y is invariant for x' = x^2 - 1, y' = 3xy, and the equator points
    # inf:U1+:0 and inf:U1-:0 at its ends are saddles whose transverse
    # branch runs along it: from either side it ends at the node of its
    # own sign, (1, 0) backward and (-1, 0) forward, since x' = x^2 - 1
    flow = Flow(disc_equilibria(parse_system("dx = x^2 - 1\ndy = 3*x*y\n")))
    seeds = separatrix_seeds(flow.markers, False, flow.lines)
    markers = {m.marker_id: m for m in flow.markers}
    ends = {"sep:inf:U1+:0:0": ("backward", "finite:1,0"), "sep:inf:U1-:0:0": ("forward", "finite:-1,0")}
    assert [sd.seed_id for sd in seeds] == sorted(ends)
    for sd in seeds:
        direction, limit = ends[sd.seed_id]
        assert (sd.direction, sd.line) == (direction, MPoly.var_y())
        tr = integrate_orbit(flow, sd.disc, sd.direction, line=sd.line)
        assert len(tr.points) == 2 and _dist(tr.points[0], sd.disc) < 1e-15
        assert (tr.points[1], tr.reason, tr.limit) == (markers[limit].disc, REASON_EQ, limit)


def test_a_family_of_invariant_lines_keeps_both_axes_exact():
    # every line through the origin is invariant for x' = x, y' = y; the
    # family's representative y and the vertical x are both lines of the
    # flow, so every axis seed runs out to the rim of its axis, which
    # holds no marker, as the equator consists of equilibria
    doc = build_portrait(parse_system("dx = x\ndy = y\n"), positive_quadrant_only=False, grid=1)
    axis = [t for t in doc.trajectories if t.role == "axis"]
    assert len(axis) == 16
    for tr in axis:
        x, y = tr.points[0]
        assert x == 0.0 or y == 0.0
        rim = (math.copysign(1.0, x), 0.0) if y == 0.0 else (0.0, math.copysign(1.0, y))
        assert tr.points[1:] == [rim] and (tr.reason, tr.limit) == (REASON_BOUNDARY, None)


def test_capture_region_stops_short_of_a_nearby_saddle():
    # x' = x^2 + 100 x^3: the center flow turns back at the saddle
    # (-1/100, 0), so the node half is a basin only up to it; beyond it
    # the orbit from (-0.02, 0.001) runs away to x = -inf
    sys, m, cap = _origin_saddle_node("dx = x^2 + 100*x^3\ndy = -y\n")
    assert cap.r < 0.01
    assert not cap.hit(-0.02, 0.001, 1.0)
    tr = integrate_orbit(Flow(disc_equilibria(sys), markers=[m]), disc_from_plane(-0.02, 0.001))
    assert _dist(tr.points[-1], (-1.0, 0.0)) < 1e-6


def test_capture_triangle_keeps_its_orbits():
    # y' = -y + 100 x^2: on the side w = -c of the node half the field
    # points out of the triangle once t > 1/101, though c still falls
    _, _, cap = _origin_saddle_node("dx = x^2\ndy = -y + 100*x^2\n")
    assert cap.k == 1.0 and cap.r < 1 / 101


def test_capture_region_is_measured_in_scaled_eigenvectors():
    # center vector (1, 1000): c is the y coordinate, and at y = -20 the
    # center flow y' = y^2/1000 + y^3/10^4 already runs away from 0
    source = "dx = -x + 1/1000*y + 1/1000000*y^2 + 1/10000000*y^3\ndy = 1/1000*y^2 + 1/10000*y^3\n"
    sys, m, cap = _origin_saddle_node(source)
    assert m.record.reduction.center_vector == (1, 1000)
    assert not cap.hit(-0.02, -20.0, 1.0)
    assert cap.hit(-0.02 / 1000, -0.02, 1.0)
    tr = integrate_orbit(Flow(disc_equilibria(sys), markers=[m]), disc_from_plane(-0.02, -20.0))
    assert tr.points[-1] != m.disc


def test_certificate_needs_strict_positivity_on_the_closed_box():
    x, y = MPoly.var_x(), MPoly.var_y()
    zero, half, one = F(0), F(1, 2), F(1)
    assert positive_on(one - x, (zero, half), (zero, zero))
    assert not positive_on(one - x, (zero, one), (zero, zero))  # a root at the end
    # positive with a near-root off the centre: proved only after bisection
    near = (x - F(1, 3)) ** 2 + y * y
    assert positive_on(near + F(1, 100), (zero, one), (-one, one))
    assert not positive_on(near - F(1, 10**6), (zero, one), (-one, one))


def _bundled_u2_node():
    sys = leslie_system(F(1), F(1), F(1, 2))
    cs = to_chart(sys, "U2")
    (rec,) = [r for r in infinite_equilibria(cs) if r.point.x.exact == 0]
    analysis = blowup_analysis(cs.system, rec.point)
    (node,) = [r for r in analysis.x_divisor if r.classification == "stable node"]
    assert node.point.approx() == (0.0, -2.0)
    assert (analysis.x_system.rescale_x, analysis.x_system.rescale_y) == (1, 0)
    m = replace(_marker_for_infinite(rec, "U2", 1, cs.system), blowup=analysis)
    (cap,) = [c for c in blowup_node_captures(m, analysis) if c.z == (0.0, -2.0)]
    return sys, m, cap


def test_blowup_node_disc_stops_short_of_a_divisor_saddle():
    # x' = -x^2, y' = -2xy + 100y^2 blows up in the x-direction to
    # u' = -u, w' = -w + 100w^2: a stable node at w = 0 and a saddle at
    # w = 1/100 on the divisor; beyond the saddle orbits leave the node
    sys = parse_system("dx = -(x^2)\ndy = -2*x*y + 100*y^2\n")
    (rec,) = finite_equilibria(sys)
    analysis = blowup_analysis(sys, rec.point)
    m = replace(_marker_for_finite(rec, sys), blowup=analysis)
    (cap,) = [c for c in blowup_node_captures(m, analysis) if c.x_dir]
    assert cap.z == (0.0, 0.0) and cap.half[1] < 0.01
    p = 0.001
    assert cap.hit(p, p * 0.001, 1.0)
    assert not cap.hit(p, p * 0.02, 1.0)


def test_blowup_node_respects_the_rescaling_sign():
    sys, m, cap = _bundled_u2_node()
    # about the stable node (p, q) = (0, -2) of the x-directional blow-up
    # (p, q) = (a, b/a); the blown-up field is the true one divided by p
    a = 0.01
    assert cap.hit(a, -2.0 * a, 1.0)
    assert not cap.hit(a, -2.0 * a, -1.0)
    # for p < 0 the division reverses time: the node repels forward
    assert not cap.hit(-a, 2.0 * a, 1.0)
    assert cap.hit(-a, 2.0 * a, -1.0)
    assert not cap.hit(a, -3.0 * a, 1.0)  # q = -3: outside the disc
    assert not cap.hit(0.0, 0.0, 1.0)
    # this marker is the side +1 point U2+; (a, -2a) has v < 0, so it lies
    # near the antipodal point U2- instead
    flow = Flow(disc_equilibria(sys), markers=[m])
    assert flow.capture("U2", -a, 2.0 * a, -1.0).disc == cap.disc
    assert flow.capture("U2", a, -2.0 * a, 1.0) is None


def test_capture_across_the_chart_overlap():
    sys = leslie_system(F(1), F(1), F(1, 2))
    cs = to_chart(sys, "U1")
    (rec,) = [r for r in infinite_equilibria(cs) if r.classification == "saddle-node"]
    red = rec.reduction
    assert (red.a2, red.nonzero_eigenvalue, red.center_vector) == (2, -1, (1, -1))
    m = _marker_for_infinite(rec, "U1", 1, cs.system)
    assert m.local == (-1.0, 0.0)
    flow = Flow(disc_equilibria(sys), markers=[m])
    assert len(flow.captures) == 1
    # c = -0.01 along the center vector: the node half, forward, inside the disc
    u1, v1 = -1.01, 0.01
    assert flow.capture("U1", u1, v1, 1.0).disc == m.disc
    # the same plane point held in U2, as by an orbit that came from the U2 side
    u2, v2 = 1.0 / u1, v1 / u1
    assert flow.capture("U2", u2, v2, 1.0).disc == m.disc
    assert flow.capture("U2", u2, v2, -1.0) is None
    # the antipodal point (v < 0) is not near this side +1 marker
    assert flow.capture("U1", u1, -v1, 1.0) is None


def test_finite_marker_captures_from_a_chart_at_infinity():
    # x' = (x-7)^2, y' = -y: an orbit from (6.9, 50) comes down to the
    # saddle-node (7, 0) without |x| + |y| falling below 5, so it stays in
    # the U1/U2 charts and is tested against the U3 marker there
    sys = parse_system("dx = (x - 7)^2\ndy = -y\n")
    (rec,) = finite_equilibria(sys)
    m = _marker_for_finite(rec, sys)
    tr = integrate_orbit(Flow(disc_equilibria(sys), markers=[m]), disc_from_plane(6.9, 50.0))
    assert tr.reason == REASON_EQ
    assert tr.points[-1] == m.disc


# ---------------------------------------------------------------------------
# the capture loop and the proofs against the forms they replaced

# ROADMAP's degree 4 and 5 systems, and the two irrational-saddle inputs,
# each at a grid that passes over 1000 gated states to `Flow.capture`: the
# quartic's capture regions, proved at up to 0.48, end its orbits so soon
# that grid 2 passes about 300, and the quintic's grid 2 passes 985 with
# the Tsitouras pair's longer steps (1,379 at grid 3)
FULL_DISC = {
    "bundled": (leslie_system(F(1), F(1), F(1, 2)), ParamBindings(F(1), F(1), F(1, 2)), 8),
    "quartic": (parse_system("dx = x^4 - 3*x^2*y + y^2 - 2*x + 1\ndy = y^4 - x*y^2 + 2*x^2 - y - 3\n"), None, 16),
    "quintic": (parse_system("dx = x^5 - 3*x^2*y^2 + y^3 - 2*x + 1\ndy = y^5 - x*y^3 + 2*x^2 - y - 3\n"), None, 3),
    "saddle-full": (parse_system("dx = x^2 - 2\ndy = y^2 - x*y - 3\n"), None, 8),
    "saddle-quadrant": (parse_system("dx = x^2 + y^2 - 3\ndy = x*y - 1\n"), None, 8),
}


def _unfiltered_capture(flow, chart, su, sv, sgn):
    """`Flow.capture` as it was before the prefilter: every region, carried
    into its own chart and tested.  A state of U1 or U2 is on the side of
    the sign of sv; carried across the U1/U2 overlap, on that side times
    the sign of su."""
    for r in flow.captures:
        u, v, side = su, sv, 1 if sv > 0.0 else -1
        if r.chart != chart:
            if chart == "U3":
                continue
            if r.chart == "U3":
                if v == 0.0:
                    continue
                u, v = (1.0 / v, u / v) if chart == "U1" else (u / v, 1.0 / v)
            else:
                if u == 0.0:
                    continue
                u, v, side = 1.0 / u, v / u, side if u > 0.0 else -side
        if r.chart != "U3" and side != r.side:
            continue
        if r.hit(u - r.x0, v - r.y0, sgn):
            return r
    return None


@pytest.mark.parametrize("name", sorted(FULL_DISC))
def test_prefiltered_capture_returns_the_unfiltered_region(name, monkeypatch):
    sys, params, grid = FULL_DISC[name]
    capture = Flow.capture
    seen = {"steps": 0, "captured": 0}

    def checked(flow, chart, su, sv, sgn, disc=None):
        # the orbit loop hands over the disc point it holds
        assert disc is not None
        got = capture(flow, chart, su, sv, sgn, disc)
        assert got is _unfiltered_capture(flow, chart, su, sv, sgn), (chart, su, sv, sgn)
        seen["steps"] += 1
        seen["captured"] += got is not None
        return got

    monkeypatch.setattr(Flow, "capture", checked)
    build_portrait(sys, params, positive_quadrant_only=False, grid=grid)
    assert seen["steps"] > 1000 and seen["captured"] > 0


def _region_point(r, f, g):
    """A point of r's own chart from unit coordinates (f, g), over the
    region and a margin around it."""
    f, g = 2.4 * f - 1.2, 2.4 * g - 1.2
    if isinstance(r, SaddleNodeCapture):
        # (c, w) over the triangle 0 < c <= r, |w| <= k c
        c = (f + 1.2) / 2.2 * r.r
        w = g * r.k * c
        i00, i01, i10, i11 = r.inv
        det = i00 * i11 - i01 * i10
        return r.x0 + (i11 * c - i01 * w) / det, r.y0 + (i00 * w - i10 * c) / det
    p, q = r.z[0] + f * r.half[0], r.z[1] + g * r.half[1]
    if isinstance(r, BlowupNodeCapture):
        return (r.x0 + p, r.y0 + p * q) if r.x_dir else (r.x0 + p * q, r.y0 + q)
    return p, q


def _seen_from(r, u, v):
    """The point (u, v) of r's chart as a state of each chart r is tested
    from, with the point `Flow.capture` carries that state back to."""
    out = [(r.chart, u, v, u, v)]
    if r.chart == "U3":
        if u != 0.0:
            su, sv = v / u, 1.0 / u
            out.append(("U1", su, sv, 1.0 / sv, su / sv))
        if v != 0.0:
            su, sv = u / v, 1.0 / v
            out.append(("U2", su, sv, su / sv, 1.0 / sv))
    elif u != 0.0:
        su, sv = 1.0 / u, v / u
        out.append(("U2" if r.chart == "U1" else "U1", su, sv, 1.0 / su, sv / su))
    return out


@functools.lru_cache(maxsize=None)
def _region_flows():
    flows = [_flow(leslie_system(F(1), F(1), F(1, 2)), None, False)]
    for source in (OTHER["even-degree"][0], QUARTIC, SADDLE_NODE, "dx = (x - 7)^2\ndy = -y\n"):
        flows.append(_flow(parse_system(source), None, False))
    return tuple(flows)


def _regions():
    return tuple(r for flow in _region_flows() for r in flow.captures)


def _state_disc(chart, u, v):
    """The disc point `Flow.capture` filters the state (u, v) of `chart` by."""
    return _disc_from_chart(chart, u, v, 1 if v > 0.0 else -1)


@settings(max_examples=400)
@given(st.integers(0, 10**6), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from([1.0, -1.0]))
def test_every_state_a_region_holds_has_its_disc_point_in_the_disc_box(i, f, g, sgn):
    regions = _regions()
    r = regions[i % len(regions)]
    xlo, xhi, ylo, yhi = _disc_box(r)
    for chart, su, sv, u, v in _seen_from(r, *_region_point(r, f, g)):
        p = _state_disc(chart, su, sv)
        # the state's side, times the sign of su across the U1/U2 overlap
        side = (1 if sv > 0.0 else -1) * (-1 if chart != r.chart and su < 0.0 else 1)
        if (r.chart == "U3" or side == r.side) and r.hit(u - r.x0, v - r.y0, sgn):
            assert xlo <= p[0] <= xhi and ylo <= p[1] <= yhi


def _gate_open(flow, chart, u, v):
    """The test the orbit loop makes before it calls `Flow.capture`, on
    the disc point of the state; None for a state within EQUATOR_EPS of
    the equator, where the loop ends the orbit before it makes the test."""
    if chart != "U3" and abs(v) < EQUATOR_EPS:
        return None
    p = _state_disc(chart, u, v)
    xlo, xhi, ylo, yhi = flow.gates[chart]
    return xlo <= p[0] <= xhi and ylo <= p[1] <= yhi


_coordinate = st.floats(-1e300, 1e300)


@settings(max_examples=400)
@given(
    st.integers(0, 10**6),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from(["U3", "U1", "U2"]),
    _coordinate,
    _coordinate,
)
# on the equator of U2 at u = -1, on side -1: carried into U1 it is on
# side +1, so the node at u = -1 on side -1 of U1 does not hold it
@example(1, 0.5, 0.5, "U2", -1.0, 0.0)
# on side +1 of U2, whose carried v = 5e-324 / 34 rounds to 0 in U1: it
# is on side +1 there too, not in the side -1 node at the origin of U1
@example(0, 0.5, 0.5, "U2", 34.0, 5e-324)
# 1 + u^2 + v^2 overflows: the disc point is near the U1 origin, where
# the node's region holds the state, not at the disc's centre
@example(0, 0.5, 0.5, "U2", 1.3407807929942597e154, 1e-3)
def test_a_closed_gate_hides_no_capture(i, f, g, chart, u, v):
    # a state anywhere in a chart, and a point in or beside one region
    # of the same flow as seen from each chart that tests the region;
    # Flow.capture finds what the unfiltered loop finds at every state,
    # beside the equator too
    flows = _region_flows()
    flow = flows[i % len(flows)]
    states = [(chart, u, v)]
    if flow.captures:
        r = flow.captures[i // len(flows) % len(flow.captures)]
        states += [(c, su, sv) for c, su, sv, _, _ in _seen_from(r, *_region_point(r, f, g))]
    for c, su, sv in states:
        found = [_unfiltered_capture(flow, c, su, sv, sgn) for sgn in (1.0, -1.0)]
        assert [flow.capture(c, su, sv, sgn) for sgn in (1.0, -1.0)] == found
        if _gate_open(flow, c, su, sv) is False:
            assert found == [None, None]


def test_regions_cover_every_kind_and_chart():
    kinds = {(type(r).__name__, r.chart) for r in _regions()}
    assert {"NodeCapture", "SaddleNodeCapture", "BlowupNodeCapture"} == {k for k, _ in kinds}
    assert {"U1", "U2", "U3"} == {c for _, c in kinds}


def _fraction_positive_on(p, xs, ys):
    """`positive_on` as it was in Fraction interval arithmetic: p at the
    four corners and `box_enclosure` of p re-expanded about each box centre."""
    wx = xs[1] - xs[0]
    wy = ys[1] - ys[0]
    todo = [(xs, ys)]
    for _ in range(_PROOF_BUDGET):
        if not todo:
            return True
        (x0, x1), (y0, y1) = bx, by = todo.pop()
        hx = (x1 - x0) / 2
        hy = (y1 - y0) / 2
        if any(p.eval_rat(x, y) <= 0 for x in (x0, x1) for y in (y0, y1)):
            return False
        cx, cy = x0 + hx, y0 + hy
        centred = p.subst(MPoly.var_x() + cx, MPoly.var_y() + cy) if cx or cy else p
        if centred.coeff(0, 0) <= 0:
            return False
        if box_enclosure(centred, (-hx, hx), (-hy, hy))[0] > 0:
            continue
        if wy == 0 or (wx != 0 and (x1 - x0) * wy >= (y1 - y0) * wx):
            xm = (x0 + x1) / 2
            todo += [((x0, xm), by), ((xm, x1), by)]
        else:
            ym = (y0 + y1) / 2
            todo += [(bx, (y0, ym)), (bx, (ym, y1))]
    return not todo


_coef = st.builds(F, st.integers(-96, 96), st.integers(1, 12))
_end = st.builds(F, st.integers(-32, 32), st.integers(1, 16))
_width = st.builds(F, st.integers(0, 32), st.integers(1, 16))
_exponents = [(i, j) for i in range(5) for j in range(5 - i)]


@st.composite
def _proof_inputs(draw):
    terms = draw(st.dictionaries(st.sampled_from(_exponents), _coef))
    p = MPoly(terms)
    x0, y0 = draw(_end), draw(_end)
    xs = (x0, x0 + draw(_width))
    ys = (y0, y0) if draw(st.booleans()) else (y0, y0 + draw(_width))
    if draw(st.booleans()):
        # a sum of squares plus a small constant, with a near-root in the
        # box: a proof takes many bisections or more than the budget
        fx, fy = (F(draw(st.integers(0, 7)), 7) for _ in range(2))
        x = MPoly.var_x() - (xs[0] + fx * (xs[1] - xs[0]))
        y = MPoly.var_y() - (ys[0] + fy * (ys[1] - ys[0]))
        a, b = draw(_coef), draw(_coef)
        eps = draw(st.sampled_from([F(1, 10**k) for k in (1, 3, 6, 12)] + [F(0), F(-1, 1000)]))
        p = (x * a + y * b) ** 2 + (x * b - y) ** 2 + eps + p * draw(st.sampled_from([F(0), F(1, 10**4)]))
    return p, xs, ys


@settings(max_examples=100)
@given(_proof_inputs())
def test_integer_proofs_decide_as_fraction_proofs(case):
    p, xs, ys = case
    assert positive_on(p, xs, ys) == _fraction_positive_on(p, xs, ys)


def test_proof_oracle_cases_cover_budget_and_degenerate_sides():
    x, y = MPoly.var_x(), MPoly.var_y()
    one = F(1)
    # a positive polynomial whose proof needs more than the budget
    tight = (x - F(1, 3)) ** 2 + (y - F(1, 5)) ** 2 + F(1, 10**12)
    cases = [
        (tight, (-one, one), (-one, one), False),
        (one - x * x, (F(-1, 2), F(1, 2)), (F(0), F(0)), True),  # a zero-width side
        (x * x + y * y + F(1, 100), (-one, one), (-one, one), True),  # straddles 0
        (x * y + 1, (F(-2), F(2)), (F(-1, 3), F(1, 2)), False),
    ]
    for p, xs, ys, expected in cases:
        assert positive_on(p, xs, ys) == _fraction_positive_on(p, xs, ys) == expected


LESLIE = {"bundled": (F(1), F(1), F(1, 2)), "zero": (F(2), F(1), F(1, 2)), "negative": (F(3), F(1), F(1, 2))}
OTHER = {
    "saddle-full": ("dx = x^2 - 2\ndy = y^2 - x*y - 3\n", False),
    "saddle-quadrant": ("dx = x^2 + y^2 - 3\ndy = x*y - 1\n", True),
    # even degree: the U1 field reverses time on the side -1 half, where
    # the blow-up of the degenerate point inf:U1-:1 must be read in V1
    "even-degree": ("dx = y^2 - x*y + y - 1\ndy = x*y - x^2 + x\n", False),
}


TARGETS = NODE_CLASSES | {"saddle-node", "degenerate-needs-blowup"}


def _case(case):
    """(system, params, quadrant) for "<regime>:<view>" with a Leslie
    regime (A*C = 1 in the zero regime), or a key of OTHER."""
    if case in OTHER:
        source, quadrant = OTHER[case]
        return parse_system(source), None, quadrant
    name, view = case.split(":")
    params = ParamBindings(*LESLIE[name])
    return leslie_system(params.A, params.B, params.C), params, view == "quadrant"


@pytest.mark.parametrize("case", ["bundled:full", "zero:quadrant", "saddle-quadrant"])
def test_few_orbits_run_to_tmax(case):
    # before capture and finite stop points outside the quadrant:
    # 198/288, 65/78 and 70/76 orbits ended reached-tmax
    sys, params, quadrant = _case(case)
    doc = build_portrait(sys, params, positive_quadrant_only=quadrant)
    tmax = [t for t in doc.trajectories if t.reason == REASON_TMAX]
    assert len(tmax) < 0.1 * len(doc.trajectories)


def _flow(sys, params, quadrant):
    """The flow of `build_portrait`: every equilibrium of the disc
    analysis as a marker."""
    disc = disc_equilibria(sys, quadrant)
    return Flow(disc, disc_markers(disc, params))


@pytest.mark.parametrize(
    "case",
    [f"{r}:{v}" for r in LESLIE for v in ("quadrant", "full")] + sorted(OTHER),
)
def test_captured_orbits_reach_their_marker_without_capture(case):
    """An independent check of every capture region that fires: rerun
    one captured orbit per (marker, direction) with the flow's capture
    regions removed to t = 1e4; it must end within 1e-3 of the same
    marker.  Orbits on an invariant line end by the line rule instead."""
    sys, params, quadrant = _case(case)
    doc = build_portrait(sys, params, positive_quadrant_only=quadrant, grid=2)
    flow = _flow(sys, params, quadrant)
    seeds = {
        s.seed_id: s
        for s in default_seeds(quadrant, 2) + separatrix_seeds(doc.markers, quadrant, flow.lines)
    }
    targets = {m.marker_id: m for m in flow.markers if m.classification in TARGETS}
    picked = {}
    for tr in doc.trajectories:
        m = targets.get(tr.limit)
        if m is not None and tr.reason == REASON_EQ and seeds[tr.seed_id].line not in flow.lines:
            picked.setdefault((m.marker_id, tr.direction), (m, tr))
    if params is not None and not quadrant:
        assert picked
    if case == "even-degree":
        assert {m.side for m, _ in picked.values()} == {1, -1}
    assert {m.classification for m, _ in picked.values()} & NODE_CLASSES
    _without_captures(flow)
    for m, tr in picked.values():
        seed = seeds[tr.seed_id]
        rerun = integrate_orbit(flow, seed.disc, seed.direction, tmax=1e4)
        assert _dist(rerun.points[-1], m.disc) < 1e-3, (tr.seed_id, m.marker_id)


@pytest.mark.parametrize("case", ["bundled:quadrant", "bundled:full"] + sorted(OTHER))
def test_converged_orbits_end_exactly_at_their_limit(case):
    sys, params, quadrant = _case(case)
    doc = build_portrait(sys, params, positive_quadrant_only=quadrant, grid=2)
    markers = {m.marker_id: m for m in _flow(sys, params, quadrant).markers}
    converged = [t for t in doc.trajectories if t.reason == REASON_EQ]
    assert converged
    for tr in converged:
        assert tr.points[-1] == markers[tr.limit].disc, tr.seed_id


# a quartic of four lines and an ellipse; before every node had a capture
# region, 36 of its 48 full-disc orbits ended reached-tmax beside an
# irrational hyperbolic node that the absolute speed rule never caught
QUARTIC = (
    "dx = (-3*x + 1*y + 1)*(-3*x + 3*y + 1)*(2*x + 2*y + -1)*(2*x + 2*y + 1)\n"
    "dy = 1*x^2 + -1*x*y + 2*y^2 + -2*x + 1*y + -3\n"
)


def test_no_orbit_stalls_beside_a_node():
    doc = build_portrait(parse_system(QUARTIC), positive_quadrant_only=False, grid=2)
    nodes = [m for m in doc.markers if m.classification in NODE_CLASSES]
    assert sum(not m.record.point.is_exact for m in nodes) == 4
    stalled = [
        t.seed_id
        for t in doc.trajectories
        if t.reason == REASON_TMAX and any(_dist(t.points[-1], m.disc) < 1e-3 for m in nodes)
    ]
    assert stalled == []


def test_node_region_solves_the_lyapunov_equation_exactly():
    # a stable node whose Jacobian is far from normal: the Euclidean
    # distance grows at first, the S-distance falls at once
    sys = parse_system("dx = -x + 10*y + x^2\ndy = -2*y\n")
    rec = [r for r in finite_equilibria(sys) if r.point.approx() == (0.0, 0.0)][0]
    z, (s00, s01, s11), _, sgn, half = node_region(sys, rec)
    a, b, c, d = -1.0, 10.0, 0.0, -2.0
    # A^T S + S A is a negative multiple of the identity
    m00 = 2 * (a * s00 + c * s01)
    m01 = b * s00 + d * s01 + a * s01 + c * s11
    m11 = 2 * (b * s01 + d * s11)
    assert m00 < 0 and math.isclose(m00, m11) and abs(m01) < 1e-12
    assert sgn == 1.0 and z == (0.0, 0.0)
    # the ellipse lies in its proof box and is not captured backward
    m = _marker_for_finite(rec, sys)
    (cap,) = Flow(disc_equilibria(sys), markers=[m]).captures
    assert cap.hit(0.0, 0.0, 1.0) and not cap.hit(0.0, 0.0, -1.0)
    assert not cap.hit(half[0], 0.0, 1.0) and not cap.hit(0.0, half[1], 1.0)


def test_irrational_node_region_is_centred_within_its_slack():
    # an unstable node at (sqrt 2, y0): the region sits about a rational
    # point within 2^-30 of it and attracts backward
    sys = parse_system("dx = x^2 - 2\ndy = y - x\n")
    (rec,) = [r for r in finite_equilibria(sys) if r.classification == "unstable node"]
    assert not rec.point.is_exact
    z, _, _, sgn, _ = node_region(sys, rec)
    assert sgn == -1.0
    assert abs(z[0] - math.sqrt(2.0)) < 2.0**-30 and abs(z[1] - math.sqrt(2.0)) < 2.0**-30
    tr = integrate_orbit(Flow(disc_equilibria(sys)), disc_from_plane(1.5, 1.3), "backward")
    assert tr.reason == REASON_EQ and tr.points[-1] == _marker_for_finite(rec, sys).disc
