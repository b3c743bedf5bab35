"""Global phase portraits on the Poincaré disc.

Every seed, equilibrium location, and chart polynomial is handed over
from exact data; only the trajectory integration, here, and the tests
of the capture regions it ends in (`Capture.hit` and `Capture.box` in
`pdisc.capture`) compute in binary64.

Every orbit off an invariant line is integrated by one loop, the
embedded Tsitouras 5(4) pair, whose last stage is the next step's
first (FSAL), in whichever chart is well scaled: the finite
chart while |x| + |y| stays small, the U1/U2 charts near infinity
(switch out above 10, back below 5).  The step is straight-line code
whose sums run in one fixed order, so every trajectory float is the
same on every supported interpreter.  One text of it, `_TS_STEP`, is
compiled once for each chart of a `Flow` that an orbit enters, with the
chart's two Horner expressions written inline at every stage; the tests
run the same text over callable field components as the oracle.  An
orbit runs backward in time by steps of negative length.  An orbit's
state is (chart, u, v) in local variables, converted only when a switch
threshold is crossed.  In U1 and U2 its half of the equator is the sign
of v, which no accepted step changes; for even-degree systems the chart
polynomials reverse time on the v < 0 half, which the sign of the step
length compensates, so drawn orbits always follow the true flow.

An orbit ends at an equilibrium only where that is proved.  Every
marker gets capture regions from its exact local analysis (see
`pdisc.capture`): an ellipse at each node or focus, finite or on the
equator, a triangle on the node side of a saddle-node, and an ellipse
about each hyperbolic node on the divisors of a blown-up degenerate
point.  A region captures only in the time direction in which it
attracts, and an orbit that lands in one ends at the marker's disc
point.  Each region gets one box on the disc that holds the disc image
of every point it accepts.  A state is tried only against the regions
whose box holds its disc point, and only once that point is in the
chart's gate, the union of those boxes, so most steps test no region
at all.  An orbit seeded on an invariant line, one with rational
coefficients that `pdisc.darboux.find_invariant_lines` finds, is not
integrated at all: it carries the line as an exact tag, and its limit
on the line follows exactly from the sign of the field along it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from pdisc.capture import Capture, marker_captures
from pdisc.compactify import (
    HYPERBOLIC,
    BlowupAnalysis,
    DiscEquilibria,
    SectorDecomposition,
    blowup_analysis,
    direct_sectors,
    disc_equilibria,
    twist,
)
from pdisc.darboux import find_invariant_lines
from pdisc.equilibria import (
    EquilibriumRecord,
    equilibrium_fragment,
    in_positive_quadrant,
    jacobian_at,
    leslie_labels,
)
from pdisc.errors import InputError, InternalInvariantError, LineOfEquilibriaError
from pdisc.exactalg import AlgebraicCoord, MPoly
from pdisc.modelio import ParamBindings, PlanarSystem, format_system

RTOL_DEFAULT = 5e-8
ATOL_DEFAULT = 1e-12
ATOL_FINITE = 1e-9  # the finite chart's: the disc map is 1-Lipschitz
CHORD_MAX = 0.05  # the most a finite-chart step moves the disc point
TMAX_DEFAULT = 200.0
EPS_SEPARATRIX = 1e-3
CHART_OUT = 10.0  # leave the finite chart when |x| + |y| exceeds this
CHART_IN = 5.0  # return below this (hysteresis factor 2)
EQUATOR_EPS = 1e-12
MAX_STEPS = 60000

REASON_EQ = "converged-to-equilibrium"
REASON_TMAX = "reached-tmax"
REASON_BOUNDARY = "reached-boundary"
REASON_UNDERFLOW = "step-underflow"


# ---------------------------------------------------------------------------
# disc geometry


def disc_from_plane(x: float, y: float) -> Tuple[float, float]:
    r = 1.0 + x * x + y * y
    if r == math.inf:
        # overflow: divide x, y and 1 by max(|x|, |y|), past which 1 is
        # below half an ulp of the sum
        m = max(abs(x), abs(y))
        x, y = x / m, y / m
        r = x * x + y * y
    s = 1.0 / math.sqrt(r)
    return (x * s, y * s)


def plane_from_disc(y1: float, y2: float) -> Tuple[float, float]:
    r2 = y1 * y1 + y2 * y2
    if r2 >= 1.0:
        raise InputError("point is not strictly inside the disc")
    s = 1.0 / math.sqrt(1.0 - r2)
    return (y1 * s, y2 * s)


def _disc_from_chart(chart: str, u: float, v: float, side: int) -> Tuple[float, float]:
    if chart == "U3":
        return disc_from_plane(u, v)
    r = 1.0 + u * u + v * v
    if r == math.inf:
        # overflow, as in `disc_from_plane`
        m = max(abs(u), abs(v))
        u, v = u / m, v / m
        s = side / math.sqrt(u * u + v * v)
        return (s / m, s * u) if chart == "U1" else (s * u, s / m)
    s = side / math.sqrt(r)
    if chart == "U1":
        return (s, s * u)
    return (s * u, s)


def _leave_plane(x: float, y: float) -> Tuple[str, float, float]:
    """A finite point as (chart, u, v) in U1 or U2, whichever of |x|, |y|
    is the larger; v is 1/x or 1/y, never 0 for finite x and y."""
    return ("U1", y / x, 1.0 / x) if abs(x) >= abs(y) else ("U2", x / y, 1.0 / y)


# ---------------------------------------------------------------------------
# polynomial compilation


def _times(c: str, v: str) -> str:
    """The product c * v as text, or v alone where c is the leading
    coefficient 1.0: 1.0 * v is v bit for bit, a NaN's sign included.
    -1.0 stays a product, as a unary minus would flip a NaN's sign."""
    return v if c == "1.0" else f"({c})*{v}"


def _horner(p: MPoly, x: str = "x", y: str = "y") -> str:
    """An exact polynomial as a Horner expression in the variables named
    x and y: in y over rows in x.  A zero coefficient or row adds no
    term: adding 0.0 only turns a -0.0 into 0.0, and such a zero reaches
    the value only as a zero.  With every term added the sum ended in
    + 0.0 or + c0, so it never gave -0.0; one trailing + 0.0 where the
    constant term c0 is 0 keeps that, so every value is the float the
    full sum gave.  A leading coefficient 1.0, of a row or of the top
    row, multiplies nothing (see `_times`)."""
    rows = p.coeffs_in("y")
    if not rows:
        return "0.0"
    body = ""
    for row in reversed(rows):
        xs = row.univariate_coeffs("x")
        inner = repr(float(xs[-1])) if xs else ""
        for c in reversed(xs[:-1]):
            inner = _times(inner, x) + (f" + {float(c)!r}" if c else "")
        if not body:
            body = inner
        elif inner:
            body = f"{_times(body, y)} + ({inner})"
        else:
            body = _times(body, y)
    return f"({body})" + (" + 0.0" if p.coeff(0, 0) == 0 else "")


def _define(src: str, name: str) -> Callable:
    namespace: Dict[str, object] = {}
    exec(src, namespace)
    return namespace[name]  # type: ignore[return-value]


def compile_poly(p: MPoly) -> Callable[[float, float], float]:
    """Horner-compile an exact polynomial to a float evaluator."""
    return _define(f"def _f(x, y):\n    return {_horner(p)}\n", "_f")


# ---------------------------------------------------------------------------
# Tsitouras 5(4)

# The one text of the tableau, the Tsitouras 5(4) pair (Tsitouras 2011,
# Comput. Math. Appl. 62, 770-775).  With the field components as
# arguments (args="fx, fy, ") it is the callable step that the tests
# compare every kernel with; with each fx(a, b), fy(a, b) replaced by a
# chart's Horner expressions at (a, b) it is that chart's kernel (see
# `compile_step`), which gives the same floats.  Each product of h and a
# tableau entry is taken once for both coordinates: h * a * k1x is
# (h * a) * k1x.  A step back in time has length -h: as (-h) * a is
# -(h * a) and rounding is symmetric, it gives the floats of a step of
# length h of the negated field, with its stages negated, but for the
# sign of an exact zero.
_TS_STEP = '''
def _ts_step({args}x, y, h, k1x, k1y):
    """One embedded step of x' = fx, y' = fy of length h, negative
    backward in time, from (x, y), given its first stage (k1x, k1y);
    returns (x5, y5, err_x, err_y, k7x, k7y).

    The seventh stage is taken at the fifth-order solution itself, so an
    accepted step hands it on as the next step's first stage (FSAL).
    The error is the weighted sum of the stages with the weights of the
    fifth-order solution less those of the embedded fourth-order one.
    Each sum runs left to right in tableau order, not through sum(),
    which CPython 3.12 made compensated; each weighted sum starts from
    0.0, so signed zeros, infinities and NaNs come out as the tableau's
    loop gives them.
    """
    a21 = h * 0.161
    ax = x + a21 * k1x
    ay = y + a21 * k1y
    k2x = fx(ax, ay)
    k2y = fy(ax, ay)
    a31, a32 = h * (-0.008480655492356989), h * 0.335480655492357
    ax = x + a31 * k1x + a32 * k2x
    ay = y + a31 * k1y + a32 * k2y
    k3x = fx(ax, ay)
    k3y = fy(ax, ay)
    a41, a42, a43 = h * 2.897153057105493, h * (-6.359448489975075), h * 4.3622954328695815
    ax = x + a41 * k1x + a42 * k2x + a43 * k3x
    ay = y + a41 * k1y + a42 * k2y + a43 * k3y
    k4x = fx(ax, ay)
    k4y = fy(ax, ay)
    a51, a52 = h * 5.325864828439257, h * (-11.748883564062828)
    a53, a54 = h * 7.4955393428898365, h * (-0.09249506636175525)
    ax = x + a51 * k1x + a52 * k2x + a53 * k3x + a54 * k4x
    ay = y + a51 * k1y + a52 * k2y + a53 * k3y + a54 * k4y
    k5x = fx(ax, ay)
    k5y = fy(ax, ay)
    a61, a62, a63 = h * 5.86145544294642, h * (-12.92096931784711), h * 8.159367898576159
    a64, a65 = h * (-0.071584973281401), h * (-0.028269050394068383)
    ax = x + a61 * k1x + a62 * k2x + a63 * k3x + a64 * k4x + a65 * k5x
    ay = y + a61 * k1y + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y
    k6x = fx(ax, ay)
    k6y = fy(ax, ay)
    x5 = x + h * (0.0 + 0.09646076681806523 * k1x + 0.01 * k2x + 0.4798896504144996 * k3x
                  + 1.379008574103742 * k4x + (-3.290069515436081) * k5x + 2.324710524099774 * k6x)
    y5 = y + h * (0.0 + 0.09646076681806523 * k1y + 0.01 * k2y + 0.4798896504144996 * k3y
                  + 1.379008574103742 * k4y + (-3.290069515436081) * k5y + 2.324710524099774 * k6y)
    k7x = fx(x5, y5)
    k7y = fy(x5, y5)
    ex = h * (0.0 + (-0.001780011052225777) * k1x + (-0.0008164344596567469) * k2x
              + 0.007880878010261995 * k3x + (-0.1447110071732629) * k4x + 0.5823571654525552 * k5x
              + (-0.45808210592918697) * k6x + 0.015151515151515152 * k7x)
    ey = h * (0.0 + (-0.001780011052225777) * k1y + (-0.0008164344596567469) * k2y
              + 0.007880878010261995 * k3y + (-0.1447110071732629) * k4y + 0.5823571654525552 * k5y
              + (-0.45808210592918697) * k6y + 0.015151515151515152 * k7y)
    return x5, y5, ex, ey, k7x, k7y
'''


def compile_step(p: MPoly, q: MPoly) -> Callable[..., Tuple[float, float, float, float, float, float]]:
    """The step of `_TS_STEP` for x' = p, y' = q, with both Horner
    expressions written inline at each stage, each built once with format
    fields for the stage's point: step(x, y, h, k1x, k1y), h negative
    backward in time."""
    fields = {"fx": _horner(p, "{0}", "{1}"), "fy": _horner(q, "{0}", "{1}")}
    stages = re.sub(r"\b(f[xy])\((\w+), (\w+)\)", lambda m: fields[m[1]].format(m[2], m[3]), _TS_STEP)
    return _define(stages.format(args=""), "_ts_step")


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    seed_id: str
    role: str  # generic | separatrix | axis
    direction: str  # forward | backward
    points: List[Tuple[float, float]]
    reason: str
    limit: Optional[str] = None  # id of the marker the orbit ends at, where that is decided


class _ChartFields(dict):
    """chart -> (step, fx, fy): the chart's Tsitouras step (see
    `compile_step`) and its two field components, all three compiled on
    the chart's first lookup from its (P, Q) in `polys`."""

    def __init__(self, polys: Dict[str, Tuple[MPoly, MPoly]]):
        super().__init__()
        self.polys = polys

    def __missing__(self, chart: str) -> tuple:
        p, q = self.polys[chart]
        entry = self[chart] = (compile_step(p, q), compile_poly(p), compile_poly(q))
        return entry


_DISC_PAD = 2.0**-40  # rounding of the chart and disc maps, in disc coordinates


def _disc_box(r: Capture) -> Tuple[float, float, float, float]:
    """(xlo, xhi, ylo, yhi): a box on the disc that holds the disc point
    of every point of the region's box (see `Capture.box`).  On each
    closed quadrant of the chart the disc map is monotone in each
    coordinate, so the images of the box's corners and of its points on
    the axes it spans bound it; the pad covers rounding."""
    ulo, uhi, vlo, vhi = r.box()
    us = (ulo, uhi, 0.0) if ulo < 0.0 < uhi else (ulo, uhi)
    vs = (vlo, vhi, 0.0) if vlo < 0.0 < vhi else (vlo, vhi)
    xs, ys = zip(*(_disc_from_chart(r.chart, u, v, r.side) for u in us for v in vs))
    return min(xs) - _DISC_PAD, max(xs) + _DISC_PAD, min(ys) - _DISC_PAD, max(ys) + _DISC_PAD


def _hull(near: Sequence[tuple]) -> Tuple[float, float, float, float]:
    """The least box that holds every disc box in `near`; empty, holding
    no point, when `near` is."""
    xlo = ylo = math.inf
    xhi = yhi = -math.inf
    for lo_x, hi_x, lo_y, hi_y, _ in near:
        xlo, xhi, ylo, yhi = min(xlo, lo_x), max(xhi, hi_x), min(ylo, lo_y), max(yhi, hi_y)
    return xlo, xhi, ylo, yhi


class Flow:
    """A system's vector field compiled once for every orbit of a
    portrait, the markers where orbits end, and their capture regions
    (see `pdisc.capture`).  `fields` maps the finite chart U3 and the
    charts U1/U2 at infinity to the chart's Tsitouras step (see
    `compile_step`) and its field components, which give a first stage,
    compiled on the chart's first lookup, so a flow pays only for the
    charts its orbits enter; `near` maps each
    chart to the regions tried from it, in `captures` order: from U3
    the finite ones, from U1 and U2 all, each with its disc box (see
    `_disc_box`); and `gates` maps it to the union of those boxes, which
    the disc point of a state of the chart must be in before `capture`
    can find any of them.  `markers` default to every equilibrium of
    `disc` (see `disc_markers`).  `lines` maps each invariant line f
    that `find_invariant_lines` finds to the field along it, that of
    its parameter x, or y where f is vertical; its finite markers with
    their exact parameter; its rim markers by side; and its unit
    direction on the disc, in which the parameter grows.
    """

    def __init__(self, disc: DiscEquilibria, markers: Optional[Sequence["Marker"]] = None):
        sys = disc.system
        self.markers = disc_markers(disc) if markers is None else list(markers)
        self.captures: List[Capture] = [c for m in self.markers for c in marker_captures(m)]
        self.even_degree = sys.degree % 2 == 0
        u1, u2 = disc.charts["U1"], disc.charts["U2"]
        self.fields = _ChartFields({"U3": (sys.P, sys.Q), "U1": (u1.du, u1.dv), "U2": (u2.du, u2.dv)})
        boxes = [(*_disc_box(r), r) for r in self.captures]
        self.near = {c: [b for b in boxes if c != "U3" or b[4].chart == "U3"] for c in ("U3", "U1", "U2")}
        self.gates = {chart: _hull(near) for chart, near in self.near.items()}
        self.lines: Dict[MPoly, tuple] = {}
        x, y = MPoly.var_x(), MPoly.var_y()
        for f in (line.f for line in find_invariant_lines(sys)[0]):
            a, b = f.coeff(1, 0), f.coeff(0, 1)
            along = sys.P.subst(x, y - f * (1 / b)) if b else sys.Q.subst(x - f * (1 / a), y)
            d = (1.0, float(-a / b)) if b else (0.0, 1.0)
            forms = {chart: _in_chart(f, chart) for chart in ("U3", "U1", "U2")}
            on = [m for m in self.markers if m.record.point.sign(forms[m.chart]) == 0]
            stops = [(m.record.point.x if b else m.record.point.y, m) for m in on if m.chart == "U3"]
            rim = {m.side: m for m in on if m.chart != "U3"}
            self.lines[f] = (along, stops, rim, (d[0] / math.hypot(*d), d[1] / math.hypot(*d)))

    def line_limit(self, f: MPoly, x: float, y: float, sgn: float) -> Tuple[int, Optional["Marker"]]:
        """The direction (+1, -1, or 0 at an equilibrium) in which the
        orbit of time sign `sgn` from the plane point (x, y) on the
        invariant line f runs, read at its parameter, and the marker it
        tends to: the next finite marker on the line that way, or else
        the rim marker on that side, if any."""
        along, stops, rim, _ = self.lines[f]
        v = Fraction(x if f.coeff(0, 1) else y)
        g = along.eval_rat(v, v)
        step = 0 if g == 0 else (1 if (g > 0) == (sgn > 0) else -1)
        at = AlgebraicCoord.of(v)
        best: Optional[Tuple[AlgebraicCoord, Marker]] = None
        for c, m in stops:
            if c.compare(at) == step and (best is None or c.compare(best[0]) == -step):
                best = (c, m)
        return step, rim.get(step) if best is None else best[1]

    def capture(
        self, chart: str, su: float, sv: float, sgn: float, disc: Optional[Tuple[float, float]] = None
    ) -> Optional[Capture]:
        """The first capture region in `captures` that holds the state
        (su, sv) of `chart` for time sign `sgn`, or None.  Only the
        regions in `near[chart]` whose disc box holds the state's disc
        point are tried, each carried into the region's chart and tested
        there.  A state of U1 or U2 is on the side of the sign of sv, and
        carried across the U1/U2 overlap, on that side times the sign of
        su, so it keeps its disc point when its carried v rounds to 0.
        `disc` is the state's disc point, when the caller holds it."""
        side = 1 if sv > 0.0 else -1
        px, py = _disc_from_chart(chart, su, sv, side) if disc is None else disc
        for xlo, xhi, ylo, yhi, r in self.near[chart]:
            if not (xlo <= px <= xhi and ylo <= py <= yhi):
                continue
            u, v, s = su, sv, side
            if r.chart != chart:
                if r.chart == "U3":
                    if v == 0.0:
                        continue
                    u, v = (1.0 / v, u / v) if chart == "U1" else (u / v, 1.0 / v)
                else:
                    if u == 0.0:
                        continue
                    # across the U1/U2 overlap
                    u, v, s = 1.0 / u, v / u, side if u > 0.0 else -side
            if r.chart != "U3" and s != r.side:
                continue
            if r.hit(u - r.x0, v - r.y0, sgn):
                return r
        return None

    def enter(self, chart: str, u: float, v: float, sgn: float) -> tuple:
        """The orbit loop's values for a state (u, v) of `chart` and time
        sign `sgn`: the chart's step, the sign k of its steps' length, its
        first stage at (u, v), the error norm's absolute tolerance, the
        chart's capture gate and the state's disc point.  In U1 and U2 the
        state is on the half of the sign of v; for even degree k is -sgn
        if v < 0."""
        half = 1 if chart == "U3" or v > 0.0 else -1
        k = -sgn if half < 0 and self.even_degree else sgn
        step, fx, fy = self.fields[chart]
        atol = ATOL_FINITE if chart == "U3" else ATOL_DEFAULT
        disc = _disc_from_chart(chart, u, v, half)
        return step, k, fx(u, v), fy(u, v), atol, self.gates[chart], disc


def integrate_orbit(
    flow: Flow,
    seed: Tuple[float, float],
    direction: str = "forward",
    tmax: float = TMAX_DEFAULT,
    seed_id: str = "seed",
    role: str = "generic",
    line: Optional[MPoly] = None,
) -> Trajectory:
    """Integrate one orbit of `flow` from a disc-coordinate seed.

    A seed tagged with a `line` of the flow (see `Flow.lines`) is not
    integrated: its polyline is the segment from the seed to its exact
    limit on the line (see `Flow.line_limit`), or to the line's end on
    the rim where no marker is; it ends `converged-to-equilibrium` at a
    finite marker, `reached-boundary` on the rim.  Any other orbit, a
    seed tagged with no line of the flow too, is integrated; each
    accepted step hands its last stage on as the next step's first,
    which is evaluated afresh only after a chart switch, and a step whose error norm
    overflows or is not a number is rejected.  The error norm's absolute
    tolerance is `ATOL_FINITE` in the finite chart, where the disc map is
    1-Lipschitz, and `ATOL_DEFAULT` in the charts at infinity, whose
    `EQUATOR_EPS` needs it.  `tmax` is time.  The error control sizes
    every step, and each chart adds its own rule.  In the finite
    chart an accepted step moves the disc point at most `CHORD_MAX`: a
    step whose chord is longer is retried at 0.9 * CHORD_MAX / chord of
    its length, and after an accepted step the next is capped the same
    way by the chord it drew.  The equator is invariant, so in the
    charts at infinity a step whose v would change sign or reach 0 is
    retried at half its length.  It ends
    `converged-to-equilibrium` once an accepted step lands in a capture
    region that attracts in the orbit's direction, at the capturing
    marker's disc point.  `limit` is the id of the marker decided so.
    """
    if direction not in ("forward", "backward"):
        raise InputError("direction must be 'forward' or 'backward'")
    if not 0.0 < tmax < math.inf:
        raise InputError(f"tmax must be a positive finite number, not {tmax!r}")
    x0, y0 = plane_from_disc(*seed)
    sgn = 1.0 if direction == "forward" else -1.0
    if line in flow.lines:
        step, m = flow.line_limit(line, x0, y0, sgn)
        p = disc_from_plane(x0, y0)
        ux, uy = flow.lines[line][3]
        end = m.disc if m is not None else ((step * ux, step * uy) if step else p)
        reason = REASON_BOUNDARY if step and (m is None or m.chart != "U3") else REASON_EQ
        pts = [p] if end == p else [p, end]
        return Trajectory(seed_id, role, direction, pts, reason, None if m is None else m.marker_id)

    sqrt, hypot, tol, reach = math.sqrt, math.hypot, RTOL_DEFAULT, 0.9 * CHORD_MAX
    enter, capture = flow.enter, flow.capture
    # in U1 and U2 the sign of y is the orbit's half of the equator
    chart, x, y = "U3", x0, y0
    if abs(x) + abs(y) > CHART_OUT:
        chart, x, y = _leave_plane(x, y)
    kernel, k, k1x, k1y, atol, (gxlo, gxhi, gylo, gyhi), (px, py) = enter(chart, x, y, sgn)
    lx, ly = px, py
    pts = [(px, py)]
    reason = REASON_TMAX
    cap: Optional[Capture] = None
    t = 0.0
    h = 1e-3
    for _ in range(MAX_STEPS):
        if t >= tmax:
            break
        # each clamp picks the operand min() or max() would, NaN included
        rest = tmax - t
        if rest < h:
            h = rest
        nx, ny, ex, ey, k7x, k7y = kernel(x, y, k * h, k1x, k1y)
        a, b = abs(x), abs(nx)
        sx = atol + tol * (b if b > a else a)
        a, b = abs(y), abs(ny)
        sy = atol + tol * (b if b > a else a)
        try:
            err = sqrt(((ex / sx) ** 2 + (ey / sy) ** 2) / 2.0)
        except OverflowError:
            err = math.inf
        # a rejected step is retried shorter by a factor below 1
        if not err <= 1.0:
            g = 0.9 * err ** -0.2
            shrink = g if g > 0.2 else 0.2
        elif chart == "U3":
            # keep recorded polylines locally short on the disc; (px, py)
            # is the disc point of (x, y).  The chord is about h times the
            # disc speed, so a step that draws too long a one is retried,
            # and the next step is sized, to draw 0.9 * CHORD_MAX
            s = 1.0 / sqrt(1.0 + nx * nx + ny * ny)
            qx, qy = nx * s, ny * s
            chord = hypot(qx - px, qy - py)
            shrink = reach / chord if chord > CHORD_MAX else 1.0
        else:
            # the equator is invariant: retry a step that crosses or lands on it
            shrink = 0.5 if ny == 0.0 or (ny > 0.0) != (y > 0.0) else 1.0
        if shrink < 1.0:
            h *= shrink
            if h < 1e-13 * max(1.0, abs(t)):
                reason = REASON_UNDERFLOW
                break
            continue

        x, y = nx, ny
        k1x, k1y = k7x, k7y
        t += h
        if err > 1e-30:
            g = 0.9 * err ** -0.2
            if g > 5.0:
                g = 5.0
        else:
            g = 5.0
        if chart == "U3" and chord * g > reach:
            g = reach / chord
        h *= g

        # switch charts out above CHART_OUT, back below CHART_IN, and
        # across the U1/U2 overlap where |u| > 2
        was = chart
        if chart == "U3":
            if abs(x) + abs(y) > CHART_OUT:
                chart, x, y = _leave_plane(x, y)
        elif abs(y) < EQUATOR_EPS:
            reason = REASON_BOUNDARY
            break
        elif (1.0 + abs(x)) / abs(y) < CHART_IN:
            x, y = (1.0 / y, x / y) if chart == "U1" else (x / y, 1.0 / y)
            chart = "U3"
        elif abs(x) > 2.0:
            chart = "U2" if chart == "U1" else "U1"
            x, y = 1.0 / x, y / x
        if chart != was:
            kernel, k, k1x, k1y, atol, (gxlo, gxhi, gylo, gyhi), (px, py) = enter(chart, x, y, sgn)
        elif chart == "U3":
            px, py = qx, qy
        else:
            s = (1.0 if y > 0.0 else -1.0) / sqrt(1.0 + x * x + y * y)
            px, py = (s, s * x) if chart == "U1" else (s * x, s)
        if hypot(px - lx, py - ly) >= 0.004:
            pts.append((px, py))
            lx, ly = px, py
        # the gate holds the disc point of every state a region of the chart holds
        if gxlo <= px <= gxhi and gylo <= py <= gyhi:
            cap = capture(chart, x, y, sgn, (px, py))
            if cap is not None:
                reason = REASON_EQ
                break

    final = _disc_from_chart(chart, x, y, 1 if y > 0.0 else -1) if cap is None else cap.disc
    if pts[-1] != final:
        pts.append(final)
    return Trajectory(seed_id, role, direction, pts, reason, None if cap is None else cap.marker_id)


# ---------------------------------------------------------------------------
# markers and seeding


@dataclass(frozen=True)
class Marker:
    """One equilibrium drawn on the disc: finite (chart U3) or at
    infinity (chart U1/U2 with equator side).  `system` is the one its
    record was computed in: the finite system, or the chart at infinity,
    whose V form runs in the true time on the side -1 half."""

    marker_id: str
    chart: str
    local: Tuple[float, float]
    side: int
    disc: Tuple[float, float]
    record: EquilibriumRecord
    system: PlanarSystem
    blowup: Optional[BlowupAnalysis] = None  # of a degenerate point, when one was made

    @property
    def sectors(self) -> Optional[SectorDecomposition]:
        if self.blowup is not None:
            return self.blowup.sectors
        return direct_sectors(self.classification) if self.classification in HYPERBOLIC else None

    @property
    def classification(self) -> str:
        return self.record.classification

    @property
    def label(self) -> Optional[str]:
        return self.record.label


@dataclass(frozen=True)
class SeedSpec:
    seed_id: str
    disc: Tuple[float, float]
    direction: str
    role: str
    line: Optional[MPoly] = None  # the invariant line the seed lies on, where that is known exactly


def _blowup(rec: EquilibriumRecord, sys: PlanarSystem) -> Optional[BlowupAnalysis]:
    """One level of directional blow-ups at a degenerate point, when it
    is exact and isolated."""
    if rec.classification != "degenerate-needs-blowup":
        return None
    try:
        return blowup_analysis(sys, rec.point)
    except LineOfEquilibriaError:
        return None


def _marker_for_finite(rec: EquilibriumRecord, sys: PlanarSystem) -> Marker:
    ax, ay = rec.point.approx()
    mid = rec.label or f"finite:{rec.point.x.text()},{rec.point.y.text()}"
    return Marker(mid, "U3", (ax, ay), 1, disc_from_plane(ax, ay), rec, sys, _blowup(rec, sys))


def _marker_for_infinite(rec: EquilibriumRecord, chart: str, side: int, sys: PlanarSystem) -> Marker:
    u = rec.point.x.approx()
    mid = f"inf:{chart}{'+' if side > 0 else '-'}:{rec.point.x.text()}"
    return Marker(mid, chart, (u, 0.0), side, _disc_from_chart(chart, u, 0.0, side), rec, sys, _blowup(rec, sys))


def _eig_directions(m: Marker) -> List[Tuple[float, Tuple[float, float]]]:
    """(eigenvalue, unit eigenvector) pairs for a marker with a real
    spectrum, from the float Jacobian.  At an irrational point it is
    read exactly at the midpoint of the point as classify_point refined
    it (width 2^-60)."""
    jac = m.record.jacobian
    if jac is None:
        jac = jacobian_at(m.system, m.record.point)
    (a, b), (c, d) = [[float(v) for v in row] for row in jac]
    tr = a + d
    disc = tr * tr - 4.0 * (a * d - b * c)
    if disc < 0:
        return []
    out: List[Tuple[float, Tuple[float, float]]] = []
    for lam in ((tr - math.sqrt(disc)) / 2.0, (tr + math.sqrt(disc)) / 2.0):
        if abs(b) > 1e-14 or abs(lam - a) > 1e-14:
            v = (b, lam - a)
        else:
            v = (lam - d, c)
        n = math.hypot(*v)
        if n < 1e-14:
            v = (1.0, 0.0)
            n = 1.0
        out.append((lam, (v[0] / n, v[1] / n)))
    return out


def _in_chart(f: MPoly, chart: str) -> MPoly:
    """The line f = a*x + b*y + c in `chart`: f itself in U3, else its
    chart twist of degree 1, b*u + c*v + a in U1 and a*u + c*v + b in U2."""
    return f if chart == "U3" else twist(f, 1, "y" if chart == "U1" else "x")


def _along_sign(m: Marker, f: MPoly) -> int:
    """The exact sign of the eigenvalue of m's Jacobian J along the
    invariant line f through m: of d.J.d, with d = (b, -a) for f = a*u
    + b*v + c in m's chart.  d is an eigenvector there, as J^T grad f =
    K grad f on the line."""
    g = _in_chart(f, m.chart)
    a, b = g.coeff(1, 0), g.coeff(0, 1)
    (px, py), (qx, qy) = m.system.jacobian
    return m.record.point.sign((px * b - py * a) * b - (qx * b - qy * a) * a)


def _in_quadrant(chart: str, side: int, u: float, v: float) -> bool:
    tol = 1e-12
    if chart == "U3":
        return u >= -tol and v >= -tol
    # chart points map to x = side/..., so quadrant needs side > 0, u, v >= 0
    return side > 0 and u >= -tol and v >= -tol


def separatrix_seeds(
    markers: Sequence[Marker],
    positive_quadrant_only: bool = False,
    lines: Mapping[MPoly, tuple] = {},
) -> List[SeedSpec]:
    """Seeds tracing the saddle and saddle-node separatrices of markers:
    offsets of EPS_SEPARATRIX along the relevant eigendirections, integrated
    away from the stable side and into the unstable one.  An equator
    marker is seeded only on its own side of the equator (v * side > 0).
    A seed is tagged with the line of `lines` (see `Flow.lines`) through
    its marker along which the eigenvalue has its sign: a saddle's
    eigenvalue's, 0 on a saddle-node's centre branch, the nonzero one's
    on its strong one."""
    seeds: List[SeedSpec] = []
    for m in markers:
        # (unit direction, offset sign, integration direction, eigenvalue sign) in seed-id order
        offsets: List[Tuple[Tuple[float, float], float, str, int]] = []
        if m.classification == "saddle":
            for lam, vec in _eig_directions(m):
                direction, sign = ("forward", 1) if lam > 0 else ("backward", -1)
                offsets += [(vec, 1.0, direction, sign), (vec, -1.0, direction, sign)]
        elif m.classification == "saddle-node" and m.record.reduction is not None:
            red = m.record.reduction
            cv = (float(red.center_vector[0]), float(red.center_vector[1]))
            n = math.hypot(*cv) or 1.0
            cv = (cv[0] / n, cv[1] / n)
            a2 = float(red.a2)
            for s in (1.0, -1.0):
                offsets.append((cv, s, "forward" if (a2 > 0) == (s > 0) else "backward", 0))
            lam = float(red.nonzero_eigenvalue)
            strong = [p for p in _eig_directions(m) if abs(p[0] - lam) < 1e-9]
            for lamv, vec in strong[:1]:
                direction, sign = ("backward", -1) if lamv < 0 else ("forward", 1)
                offsets += [(vec, 1.0, direction, sign), (vec, -1.0, direction, sign)]
        if not offsets:
            continue
        on = [f for f, (_, stops, rim, _) in lines.items() if m in rim.values() or m in (n for _, n in stops)]
        tags = {_along_sign(m, f): f for f in on}
        k = 0
        for vec, s, direction, sign in offsets:
            u = m.local[0] + s * EPS_SEPARATRIX * vec[0]
            v = m.local[1] + s * EPS_SEPARATRIX * vec[1]
            if m.chart != "U3" and v * m.side < 1e-15:
                continue  # on the rim, or on the antipodal half, which its own marker seeds
            if positive_quadrant_only and not _in_quadrant(m.chart, m.side, u, v):
                continue
            disc = _disc_from_chart(m.chart, u, v, m.side)
            seeds.append(SeedSpec(f"sep:{m.marker_id}:{k}", disc, direction, "separatrix", tags.get(sign)))
            k += 1
    return seeds


def default_seeds(positive_quadrant_only: bool = True, grid: int = 8) -> List[SeedSpec]:
    """Deterministic polar grid of generic seeds plus axis seeds, each
    tagged with its axis."""
    seeds: List[SeedSpec] = []
    sectors = 1 if positive_quadrant_only else 4
    for i in range(grid):
        r = 0.92 * (i + 1) / (grid + 1)
        for j in range(grid * sectors):
            theta = (j + 0.5) * (sectors * math.pi / 2.0) / (grid * sectors)
            p = (r * math.cos(theta), r * math.sin(theta))
            seeds.append(SeedSpec(f"grid:{i}:{j}", p, "forward", "generic"))
    x, y = MPoly.var_x(), MPoly.var_y()
    for k, s in enumerate((0.25, 0.5, 1.5, 3.0)):
        seeds.append(SeedSpec(f"axis:x:{k}", disc_from_plane(s, 0.0), "forward", "axis", y))
        seeds.append(SeedSpec(f"axis:y:{k}", disc_from_plane(0.0, s), "forward", "axis", x))
        if not positive_quadrant_only:
            seeds.append(SeedSpec(f"axis:x:-{k}", disc_from_plane(-s, 0.0), "forward", "axis", y))
            seeds.append(SeedSpec(f"axis:y:-{k}", disc_from_plane(0.0, -s), "forward", "axis", x))
    return seeds


# ---------------------------------------------------------------------------
# the document


@dataclass
class PortraitDoc:
    system_text: str
    regime: Optional[str]  # "positive" | "zero" | "negative" for 1 - AC
    markers: List[Marker]
    trajectories: List[Trajectory]
    positive_quadrant_only: bool


def _drawn_equator(
    disc: DiscEquilibria,
) -> Iterator[Tuple[str, int, PlanarSystem, EquilibriumRecord]]:
    """Equator points drawn on the disc, as (chart, side, system,
    record): the U-charts give the side +1 points; the V-charts give the
    antipodal side -1 points of U1/U2 with their own classifications
    (they differ for even degree).  A 2-chart gives only its vertical
    direction u = 0, the 1-charts cover the others."""
    for chart, recs in disc.equator.items():
        for rec in recs:
            if chart.endswith("2") and rec.point.x.exact != 0:
                continue
            yield "U" + chart[1], 1 if chart[0] == "U" else -1, disc.charts[chart].system, rec


def disc_markers(disc: DiscEquilibria, params: Optional[ParamBindings] = None) -> List[Marker]:
    """A marker for every equilibrium of the disc analysis: each finite
    one, in the view or not, with the Leslie labels when `params` is
    given, then each equator point drawn on the disc."""
    finite = list(disc.finite)
    if params is not None:
        finite = leslie_labels(finite, params.A, params.B, params.C)
    markers = [_marker_for_finite(r, disc.system) for r in finite]
    markers.extend(_marker_for_infinite(rec, chart, side, cs) for chart, side, cs, rec in _drawn_equator(disc))
    return markers


def build_portrait(
    sys: PlanarSystem,
    params: Optional[ParamBindings] = None,
    positive_quadrant_only: bool = True,
    grid: int = 8,
    tmax: float = TMAX_DEFAULT,
) -> PortraitDoc:
    """Assemble markers, seeds, and trajectories for one system.

    The flow holds a marker, and its capture regions, for every
    equilibrium of the disc analysis; the portrait draws those in the
    view and seeds separatrices from them."""
    if not isinstance(grid, int) or grid < 1:
        raise InputError(f"grid must be an integer at least 1, not {grid!r}")
    disc = disc_equilibria(sys, positive_quadrant_only)
    flow = Flow(disc, disc_markers(disc, params))
    markers = [m for m in flow.markers if m.chart != "U3" or not disc.quadrant or in_positive_quadrant(m.record)]
    regime = None if params is None else params.regime

    if params is not None:
        has_star = any(m.label == "Estar" and m.local[0] > 0 for m in markers)
        if (regime == "positive") != has_star:
            raise InternalInvariantError(
                "interior-equilibrium marker disagrees with the 1-AC regime"
            )

    seeds = default_seeds(positive_quadrant_only, grid)
    seeds.extend(separatrix_seeds(markers, positive_quadrant_only, flow.lines))

    trajectories = [
        integrate_orbit(flow, seed.disc, seed.direction, tmax, seed.seed_id, seed.role, seed.line)
        for seed in seeds
    ]
    trajectories.sort(key=lambda tr: tr.seed_id)
    return PortraitDoc(
        system_text=format_system(sys),
        regime=regime,
        markers=markers,
        trajectories=trajectories,
        positive_quadrant_only=positive_quadrant_only,
    )


# ---------------------------------------------------------------------------
# rendering

_ROLE_STROKE = {"generic": "#9aa0a6", "axis": "#1a73e8", "separatrix": "#d93025"}

_GLYPH_FILL = {
    "stable node": "#188038",
    "stable focus": "#188038",
    "unstable node": "#ffffff",
    "unstable focus": "#ffffff",
    "saddle": "#202124",
    "saddle-node": "#f9ab00",
    "center-candidate": "#a142f4",
    "degenerate-needs-blowup": "#80868b",
    "undetermined": "#80868b",
}


def _svg_xy(p: Tuple[float, float]) -> Tuple[float, float]:
    return (400.0 + 380.0 * p[0], 400.0 - 380.0 * p[1])


def _marker_glyph(m: Marker) -> str:
    cx, cy = _svg_xy(m.disc)
    cls = m.classification
    fill = _GLYPH_FILL.get(cls, "#80868b")
    title = f"{m.label or m.marker_id}: {cls}"
    if cls == "saddle":
        return (
            f'<path d="M {cx - 6:.2f} {cy - 6:.2f} L {cx + 6:.2f} {cy + 6:.2f} '
            f'M {cx - 6:.2f} {cy + 6:.2f} L {cx + 6:.2f} {cy - 6:.2f}" '
            f'stroke="{fill}" stroke-width="3" fill="none"><title>{title}</title></path>'
        )
    if cls == "saddle-node":
        return (
            f'<path d="M {cx:.2f} {cy - 7:.2f} L {cx + 6.1:.2f} {cy + 3.5:.2f} '
            f'L {cx - 6.1:.2f} {cy + 3.5:.2f} Z" fill="{fill}" stroke="#202124" '
            f'stroke-width="1.5"><title>{title}</title></path>'
        )
    if cls == "center-candidate":
        return (
            f'<g stroke="{fill}" fill="none" stroke-width="2">'
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="6"/>'
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2.5"/>'
            f"<title>{title}</title></g>"
        )
    stroke = "#d93025" if cls.startswith("unstable") else "#202124"
    return (
        f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="6" fill="{fill}" '
        f'stroke="{stroke}" stroke-width="2"><title>{title}</title></circle>'
    )


_BELOW_1E4 = re.compile(r"-?0\.0000\d+")


def _points_json(pts: Sequence[Tuple[float, float]]) -> str:
    """The JSON text of `[[round(x, 6), round(y, 6)] for x, y in pts]`,
    without spaces.  Where every coordinate is a finite float of at most
    1 in magnitude, as on the disc, each is formatted once: round(v, 6)
    is float("%.6f" % v), whose repr is that decimal without its
    trailing zeros from 1e-4 up; the few below are re-written by repr,
    which gives them an exponent."""
    flat = [c for p in pts for c in p]
    if not (-1.0 <= min(flat, default=0.0) and max(flat, default=0.0) <= 1.0 and math.isfinite(sum(flat))):
        return json.dumps([[round(x, 6), round(y, 6)] for x, y in pts], separators=(",", ":"))
    # each coordinate ends in "|" until its trailing zeros, but one after
    # the point, are gone
    text = "[%s]" % ",".join(["[%.6f|,%.6f|]"] * len(pts)) % tuple(flat)
    for zeros in ("00000|", "0000|", "000|", "00|", "0|"):
        text = text.replace(zeros, "|")
    text = text.replace(".|", ".0").replace("|", "")
    if "0.0000" in text:
        text = _BELOW_1E4.sub(lambda m: repr(float(m[0])), text)
    return text


def render_portrait(doc: PortraitDoc) -> Tuple[bytes, bytes]:
    """Deterministic SVG and JSON renderings of a portrait document."""
    parts: List[str] = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        'viewBox="0 0 800 800">'
    )
    parts.append('<rect width="800" height="800" fill="#ffffff"/>')
    if doc.positive_quadrant_only:
        parts.append(
            '<clipPath id="quadrant"><path d="M 400 400 L 780 400 A 380 380 0 0 0 400 20 Z"/></clipPath>'
        )
        parts.append('<g clip-path="url(#quadrant)">')
    parts.append(
        '<circle cx="400" cy="400" r="380" fill="#fafafa" stroke="#202124" stroke-width="2"/>'
    )
    for tr in doc.trajectories:
        if len(tr.points) < 2:
            continue
        coords = " ".join(["%.2f,%.2f" % (400.0 + 380.0 * x, 400.0 - 380.0 * y) for x, y in tr.points])
        width = "1.8" if tr.role == "separatrix" else "1.0"
        parts.append(
            f'<polyline points="{coords}" fill="none" '
            f'stroke="{_ROLE_STROKE[tr.role]}" stroke-width="{width}"/>'
        )
    if doc.positive_quadrant_only:
        parts.append("</g>")
        parts.append(
            '<circle cx="400" cy="400" r="380" fill="none" stroke="#202124" stroke-width="2"/>'
        )
    for m in doc.markers:
        parts.append(_marker_glyph(m))
    regime_text = f"regime 1-AC: {doc.regime}" if doc.regime else ""
    parts.append(
        f'<text x="16" y="788" font-family="monospace" font-size="13" '
        f'fill="#202124">{regime_text}</text>'
    )
    parts.append("</svg>")
    svg = "\n".join(parts).encode("utf-8")

    jdoc = {
        "system": doc.system_text,
        "regime": doc.regime,
        "equilibria": [
            dict(
                equilibrium_fragment(m.record),
                chart=m.chart,
                disc=[round(m.disc[0], 6), round(m.disc[1], 6)],
                **(
                    {
                        "sectors": {
                            "hyperbolic": m.sectors.hyperbolic,
                            "parabolic": m.sectors.parabolic,
                            "elliptic": m.sectors.elliptic,
                            "status": m.sectors.status,
                        }
                    }
                    if m.sectors is not None
                    else {}
                ),
            )
            for m in doc.markers
        ],
    }
    # "trajectories" sorts after every other key, so its text, each
    # trajectory's keys in sorted order, ends the document
    head = json.dumps(jdoc, sort_keys=True, separators=(",", ":"))
    dumps = json.dumps
    trajectories = ",".join(
        '{"direction":%s,"points":%s,"reason":%s,"role":%s,"seed":%s}'
        % (dumps(tr.direction), _points_json(tr.points), dumps(tr.reason), dumps(tr.role), dumps(tr.seed_id))
        for tr in doc.trajectories
    )
    return svg, f'{head[:-1]},"trajectories":[{trajectories}]}}'.encode("utf-8")
