"""Global phase portraits on the Poincaré disc.

This is the only module that computes in binary64: every seed,
equilibrium location, and chart polynomial is handed over from exact
data and only the trajectory integration itself is floating point.

Every orbit off the invariant coordinate axes is integrated by one
loop, an embedded Dormand-Prince 4(5) pair whose last stage is the
next step's first (FSAL), in whichever chart is well scaled: the finite
chart while |x| + |y| stays small, the U1/U2 charts near infinity
(switch out above 10, back below 5).  The step is straight-line code
whose sums run in one fixed order, so every trajectory float is the
same on every supported interpreter.  One text of it serves twice: as
`_dp_step` over callable field components, and compiled once per chart
of a `Flow` with that chart's two Horner expressions written inline at
every stage.  The loop keeps the chart, coordinates and disc point in
local variables and converts coordinates only when a switch threshold
is crossed.  For even-degree systems the chart polynomials reverse
time on the v < 0 half, which the integrator compensates with a sign
factor, so drawn orbits always follow the true flow.

An orbit ends at an equilibrium only where that is proved.  Every
marker gets capture regions from its exact local analysis (see
`pdisc.capture`): an ellipse at each node or focus, finite or on the
equator, a triangle on the node side of a saddle-node, and an ellipse
about each hyperbolic node on the divisors of a blown-up degenerate
point.  A region captures only in the time direction in which it
attracts, and an orbit that lands in one ends at the marker's disc
point; a state is tried only against the regions with a box in its
chart.  An orbit seeded on an invariant coordinate axis is not
integrated at all: its limit on the axis follows exactly from the sign
of the field along it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from pdisc.capture import Capture, marker_captures
from pdisc.compactify import (
    HYPERBOLIC,
    BlowupAnalysis,
    DiscEquilibria,
    SectorDecomposition,
    blowup_analysis,
    direct_sectors,
    disc_equilibria,
)
from pdisc.equilibria import (
    EquilibriumRecord,
    equilibrium_fragment,
    in_positive_quadrant,
    jacobian_at,
    leslie_labels,
)
from pdisc.errors import InputError, InternalInvariantError, LineOfEquilibriaError
from pdisc.exactalg import AlgebraicCoord, Interval, MPoly
from pdisc.modelio import ParamBindings, PlanarSystem, format_system

RTOL_DEFAULT = 1e-9
ATOL_DEFAULT = 1e-12
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
    s = 1.0 / math.sqrt(1.0 + x * x + y * y)
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
    s = side / math.sqrt(1.0 + u * u + v * v)
    if chart == "U1":
        return (s, s * u)
    return (s * u, s)


def _leave_plane(x: float, y: float, even_degree: bool) -> Tuple[str, float, float, int, float]:
    """A finite point as (chart, u, v, side, orientation) in U1 or U2,
    whichever of |x|, |y| is the larger; for even degree the U1/U2
    fields reverse time on the v < 0 half."""
    chart, u, v = ("U1", y / x, 1.0 / x) if abs(x) >= abs(y) else ("U2", x / y, 1.0 / y)
    return chart, u, v, 1 if v > 0 else -1, 1.0 if not even_degree or v >= 0 else -1.0


# ---------------------------------------------------------------------------
# polynomial compilation


def _horner(p: MPoly, x: str = "x", y: str = "y") -> str:
    """An exact polynomial as a Horner expression in the variables named
    x and y: in y over rows in x."""
    rows = p.coeffs_in("y")
    if not rows:
        return "0.0"
    parts: List[str] = []
    for j in range(len(rows) - 1, -1, -1):
        xs = rows[j].univariate_coeffs("x")
        if not xs:
            inner = "0.0"
        else:
            inner = repr(float(xs[-1]))
            for c in reversed(xs[:-1]):
                inner = f"({inner})*{x} + {float(c)!r}"
        parts.append(f"({inner})")
    body = parts[0]
    for chunk in parts[1:]:
        body = f"({body})*{y} + {chunk}"
    return body


def _define(src: str, name: str) -> Callable:
    namespace: Dict[str, object] = {}
    exec(src, namespace)
    return namespace[name]  # type: ignore[return-value]


def compile_poly(p: MPoly) -> Callable[[float, float], float]:
    """Horner-compile an exact polynomial to a float evaluator."""
    return _define(f"def _f(x, y):\n    return {_horner(p)}\n", "_f")


# ---------------------------------------------------------------------------
# Dormand-Prince 4(5)

# The one text of the tableau.  With the field components as arguments
# it is `_dp_step`; with each call fx(a, b), fy(a, b) replaced by a
# chart's Horner expressions at (a, b) it is that chart's kernel (see
# `compile_step`), the same float operations in the same order.
_DP_STEP = '''
def _dp_step({fields}k, x, y, h, k1x, k1y):
    """One embedded step of x' = k * fx, y' = k * fy from (x, y), given
    its first stage (k1x, k1y); returns (x5, y5, err_x, err_y, k7x, k7y).

    The seventh stage is taken at the fifth-order solution itself, so an
    accepted step hands it on as the next step's first stage (FSAL).
    Each sum runs left to right in tableau order, not through sum(),
    which CPython 3.12 made compensated; each weighted sum starts from
    0.0 and keeps the zero weight of stage 2, so signed zeros,
    infinities and NaNs come out as the tableau's loop gives them.
    """
    ax = x + h * (1 / 5) * k1x
    ay = y + h * (1 / 5) * k1y
    k2x = k * fx(ax, ay)
    k2y = k * fy(ax, ay)
    ax = x + h * (3 / 40) * k1x + h * (9 / 40) * k2x
    ay = y + h * (3 / 40) * k1y + h * (9 / 40) * k2y
    k3x = k * fx(ax, ay)
    k3y = k * fy(ax, ay)
    ax = x + h * (44 / 45) * k1x + h * (-56 / 15) * k2x + h * (32 / 9) * k3x
    ay = y + h * (44 / 45) * k1y + h * (-56 / 15) * k2y + h * (32 / 9) * k3y
    k4x = k * fx(ax, ay)
    k4y = k * fy(ax, ay)
    ax = (x + h * (19372 / 6561) * k1x + h * (-25360 / 2187) * k2x
          + h * (64448 / 6561) * k3x + h * (-212 / 729) * k4x)
    ay = (y + h * (19372 / 6561) * k1y + h * (-25360 / 2187) * k2y
          + h * (64448 / 6561) * k3y + h * (-212 / 729) * k4y)
    k5x = k * fx(ax, ay)
    k5y = k * fy(ax, ay)
    ax = (x + h * (9017 / 3168) * k1x + h * (-355 / 33) * k2x + h * (46732 / 5247) * k3x
          + h * (49 / 176) * k4x + h * (-5103 / 18656) * k5x)
    ay = (y + h * (9017 / 3168) * k1y + h * (-355 / 33) * k2y + h * (46732 / 5247) * k3y
          + h * (49 / 176) * k4y + h * (-5103 / 18656) * k5y)
    k6x = k * fx(ax, ay)
    k6y = k * fy(ax, ay)
    x5 = x + h * (0.0 + (35 / 384) * k1x + 0.0 * k2x + (500 / 1113) * k3x
                  + (125 / 192) * k4x + (-2187 / 6784) * k5x + (11 / 84) * k6x)
    y5 = y + h * (0.0 + (35 / 384) * k1y + 0.0 * k2y + (500 / 1113) * k3y
                  + (125 / 192) * k4y + (-2187 / 6784) * k5y + (11 / 84) * k6y)
    k7x = k * fx(x5, y5)
    k7y = k * fy(x5, y5)
    x4 = x + h * (0.0 + (5179 / 57600) * k1x + 0.0 * k2x + (7571 / 16695) * k3x
                  + (393 / 640) * k4x + (-92097 / 339200) * k5x + (187 / 2100) * k6x
                  + (1 / 40) * k7x)
    y4 = y + h * (0.0 + (5179 / 57600) * k1y + 0.0 * k2y + (7571 / 16695) * k3y
                  + (393 / 640) * k4y + (-92097 / 339200) * k5y + (187 / 2100) * k6y
                  + (1 / 40) * k7y)
    return x5, y5, x5 - x4, y5 - y4, k7x, k7y
'''
_dp_step = _define(_DP_STEP.format(fields="fx, fy, "), "_dp_step")


def compile_step(p: MPoly, q: MPoly) -> Callable[..., Tuple[float, float, float, float, float, float]]:
    """`_dp_step` for x' = k * p, y' = k * q with both Horner expressions
    written inline at each stage, each built once with format fields for
    the stage's point: step(k, x, y, h, k1x, k1y)."""
    fields = {"fx": _horner(p, "{0}", "{1}"), "fy": _horner(q, "{0}", "{1}")}
    stages = re.sub(r"\b(f[xy])\((\w+), (\w+)\)", lambda m: "(" + fields[m[1]].format(m[2], m[3]) + ")", _DP_STEP)
    return _define(stages.format(fields=""), "_dp_step")


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

    def endpoint(self) -> Tuple[float, float]:
        return self.points[-1]


class Flow:
    """A system's vector field compiled once for every orbit of a
    portrait, the markers where orbits end, and their capture regions
    (see `pdisc.capture`).  `fields` maps the finite chart U3 and the
    charts U1/U2 at infinity to the field components, which give a
    first stage, and the chart's Dormand-Prince step (see
    `compile_step`); `near` maps each chart to the regions with a box in
    it, in `captures` order, each with its prefilter there.  `markers`
    default to every equilibrium of `disc` (see `disc_markers`).  `axes`
    holds each invariant coordinate axis as the field component along
    it, a polynomial in the axis coordinate alone; its finite markers
    with their exact coordinates along it; and its rim markers by side.
    """

    def __init__(self, disc: DiscEquilibria, markers: Optional[Sequence["Marker"]] = None):
        sys = disc.system
        self.markers = disc_markers(disc) if markers is None else list(markers)
        self.captures: List[Capture] = [c for m in self.markers for c in marker_captures(m)]
        self.even_degree = sys.degree % 2 == 0
        u1, u2 = disc.charts["U1"], disc.charts["U2"]
        self.fields = {
            chart: (compile_poly(p), compile_poly(q), compile_step(p, q))
            for chart, p, q in (("U3", sys.P, sys.Q), ("U1", u1.du, u1.dv), ("U2", u2.du, u2.dv))
        }
        self.near = {
            chart: [(*r.near[chart], r) for r in self.captures if r.near[chart] is not None]
            for chart in ("U3", "U1", "U2")
        }
        # an axis is invariant when the transverse component vanishes on it
        zero = Fraction(0)
        self.axes: Dict[str, Tuple[MPoly, List[Tuple[AlgebraicCoord, Marker]], Dict[int, Marker]]] = {}
        for axis, i, along, transverse, chart in (
            ("x", 0, sys.P.subst_y(zero), sys.Q.subst_y(zero), "U1"),
            ("y", 1, sys.Q.subst_x(zero), sys.P.subst_x(zero), "U2"),
        ):
            if not transverse.is_zero:
                continue
            stops, rim = [], {}
            for m in self.markers:
                pt = (m.record.point.x, m.record.point.y)
                if m.chart == "U3" and pt[1 - i].exact == 0:
                    stops.append((pt[i], m))
                elif m.chart == chart and pt[0].exact == 0:
                    rim[m.side] = m
            self.axes[axis] = (along, stops, rim)

    def axis_limit(self, axis: str, s: float, sgn: float) -> Tuple[int, Optional["Marker"]]:
        """The direction (+1, -1, or 0 at an equilibrium) in which the
        orbit of time sign `sgn` from coordinate s on an invariant axis
        runs, and the marker it tends to: the next finite marker on the
        axis that way, or else the rim marker on that side, if any."""
        along, stops, rim = self.axes[axis]
        v = Fraction(s)
        f = along.eval_rat(v, v)
        step = 0 if f == 0 else (1 if (f > 0) == (sgn > 0) else -1)
        at = AlgebraicCoord.of(v)
        best: Optional[Tuple[AlgebraicCoord, Marker]] = None
        for c, m in stops:
            if c.compare(at) == step and (best is None or c.compare(best[0]) == -step):
                best = (c, m)
        return step, rim.get(step) if best is None else best[1]

    def capture(self, chart: str, su: float, sv: float, sgn: float) -> Optional[Capture]:
        """The first capture region in `captures` that holds the state
        (su, sv) of `chart` for time sign `sgn`, or None.  Only the
        regions in `near[chart]` are tried, each carried into the state's
        chart and tested only once the raw state passes its prefilter
        there (see `Capture.near`), which every state it holds passes."""
        for ulo, uhi, vlo, vhi, umin, vmin, r in self.near[chart]:
            if not (ulo <= su <= uhi and vlo <= sv <= vhi) or abs(su) < umin or abs(sv) < vmin:
                continue
            u, v = su, sv
            if r.chart != chart:
                if r.chart == "U3":
                    if v == 0.0:
                        continue
                    u, v = (1.0 / v, u / v) if chart == "U1" else (u / v, 1.0 / v)
                else:
                    if u == 0.0:
                        continue
                    u, v = 1.0 / u, v / u  # across the U1/U2 overlap
            if r.chart != "U3" and (v > 0.0) != (r.side > 0):
                continue
            if r.hit(u - r.x0, v - r.y0, sgn):
                return r
        return None


def integrate_orbit(
    flow: Flow,
    seed: Tuple[float, float],
    direction: str = "forward",
    tmax: float = TMAX_DEFAULT,
    tol: float = RTOL_DEFAULT,
    seed_id: str = "seed",
    role: str = "generic",
) -> Trajectory:
    """Integrate one orbit of `flow` from a disc-coordinate seed.

    A seed on an invariant coordinate axis is not integrated: its
    polyline is the segment, on the axis and on the diameter that is its
    image, to its exact limit (see `Flow.axis_limit`); it ends
    `converged-to-equilibrium` at a finite marker, `reached-boundary` on
    the rim.  Any other orbit is integrated; each accepted step hands
    its last stage on as the next step's first, which is evaluated
    afresh only after a chart switch, and a step whose error norm
    overflows or is not a number is rejected.  It ends
    `converged-to-equilibrium` once an accepted step lands in a capture
    region that attracts in the orbit's direction, at the capturing
    marker's disc point.  `limit` is the id of the marker decided so.
    """
    if direction not in ("forward", "backward"):
        raise InputError("direction must be 'forward' or 'backward'")
    x0, y0 = plane_from_disc(*seed)
    sgn = 1.0 if direction == "forward" else -1.0
    p = disc_from_plane(x0, y0)
    for axis, s, t in (("x", x0, y0), ("y", y0, x0)):
        if t == 0.0 and axis in flow.axes:
            step, m = flow.axis_limit(axis, s, sgn)
            rim = (float(step), 0.0) if axis == "x" else (0.0, float(step))
            end = m.disc if m is not None else (rim if step else p)
            reason = REASON_BOUNDARY if step and (m is None or m.chart != "U3") else REASON_EQ
            pts = [p] if end == p else [p, end]
            return Trajectory(seed_id, role, direction, pts, reason, None if m is None else m.marker_id)

    sqrt, hypot, atol = math.sqrt, math.hypot, ATOL_DEFAULT
    even, fields, capture = flow.even_degree, flow.fields, flow.capture
    chart, x, y, side, orient = "U3", x0, y0, 1, 1.0
    if abs(x) + abs(y) > CHART_OUT:
        chart, x, y, side, orient = _leave_plane(x, y, even)
    # the chart's field, step and time sign change only when the chart does
    fx, fy, dp = fields[chart]
    k = sgn * orient
    k1x = k * fx(x, y)
    k1y = k * fy(x, y)
    px, py = lx, ly = _disc_from_chart(chart, x, y, side)
    pts = [(px, py)]
    reason = REASON_TMAX
    cap: Optional[Capture] = None
    t = 0.0
    h = 1e-3
    for _ in range(MAX_STEPS):
        if t >= tmax:
            break
        h = min(h, tmax - t, 0.5)
        nx, ny, ex, ey, k7x, k7y = dp(k, x, y, h, k1x, k1y)
        sx = atol + tol * max(abs(x), abs(nx))
        sy = atol + tol * max(abs(y), abs(ny))
        try:
            err = sqrt(((ex / sx) ** 2 + (ey / sy) ** 2) / 2.0)
        except OverflowError:
            err = math.inf
        if not err <= 1.0:
            h *= max(0.2, 0.9 * err ** -0.2)
            if h < 1e-13 * max(1.0, abs(t)):
                reason = REASON_UNDERFLOW
                break
            continue
        if chart == "U3":
            # keep recorded polylines locally short on the disc; (px, py)
            # is the disc point of (x, y)
            s = 1.0 / sqrt(1.0 + nx * nx + ny * ny)
            qx, qy = nx * s, ny * s
            if hypot(qx - px, qy - py) > 0.05:
                h *= 0.5
                if h < 1e-13 * max(1.0, abs(t)):
                    reason = REASON_UNDERFLOW
                    break
                continue

        x, y = nx, ny
        k1x, k1y = k7x, k7y
        t += h
        if err > 1e-30:
            h *= min(5.0, 0.9 * err ** -0.2)
        else:
            h *= 5.0

        # switch charts out above CHART_OUT, back below CHART_IN, and
        # across the U1/U2 overlap where |u| > 2
        was = chart
        if chart == "U3":
            if abs(x) + abs(y) > CHART_OUT:
                chart, x, y, side, orient = _leave_plane(x, y, even)
        elif abs(y) < EQUATOR_EPS:
            reason = REASON_BOUNDARY
            break
        elif y != 0.0 and (1.0 + abs(x)) / abs(y) < CHART_IN:
            x, y = (1.0 / y, x / y) if chart == "U1" else (x / y, 1.0 / y)
            chart, side, orient = "U3", 1, 1.0
        elif abs(x) > 2.0:
            chart = "U2" if chart == "U1" else "U1"
            x, y = 1.0 / x, y / x
            side = 1 if y > 0 else (-1 if y < 0 else side)
            orient = 1.0 if not even or y >= 0 else -1.0
        if chart != was:
            fx, fy, dp = fields[chart]
            k = sgn * orient
            k1x = k * fx(x, y)
            k1y = k * fy(x, y)
            px, py = _disc_from_chart(chart, x, y, side)
        elif chart == "U3":
            px, py = qx, qy
        else:
            s = side / sqrt(1.0 + x * x + y * y)
            px, py = (s, s * x) if chart == "U1" else (s * x, s)
        if hypot(px - lx, py - ly) >= 0.004:
            pts.append((px, py))
            lx, ly = px, py
        cap = capture(chart, x, y, sgn)
        if cap is not None:
            reason = REASON_EQ
            break

    final = _disc_from_chart(chart, x, y, side) if cap is None else cap.disc
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
    spectrum, from the float Jacobian.  At an irrational point the
    entries are intervals, enclosed here on the point as classify_point
    refined it (width 2^-60), and are read at their midpoints."""
    jac = m.record.jacobian
    if jac is None:
        jac = jacobian_at(m.system, m.record.point)
    (a, b), (c, d) = [
        [float((v.lo + v.hi) / 2) if isinstance(v, Interval) else float(v) for v in row]
        for row in jac
    ]
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


def _local_to_disc(chart: str, side: int, u: float, v: float) -> Tuple[float, float]:
    return _disc_from_chart(chart, u, v, 1 if v > 0 else (-1 if v < 0 else side))


def _in_quadrant(chart: str, side: int, u: float, v: float) -> bool:
    tol = 1e-12
    if chart == "U3":
        return u >= -tol and v >= -tol
    # chart points map to x = side/..., so quadrant needs side > 0, u, v >= 0
    return side > 0 and u >= -tol and v >= -tol


def separatrix_seeds(
    markers: Sequence[Marker],
    positive_quadrant_only: bool = False,
) -> List[SeedSpec]:
    """Seeds tracing the saddle and saddle-node separatrices of markers:
    offsets of EPS_SEPARATRIX along the relevant eigendirections, integrated
    away from the stable side and into the unstable one."""
    seeds: List[SeedSpec] = []
    for m in markers:
        # (unit direction, offset sign, integration direction) in seed-id order
        offsets: List[Tuple[Tuple[float, float], float, str]] = []
        if m.classification == "saddle":
            for lam, vec in _eig_directions(m):
                direction = "forward" if lam > 0 else "backward"
                offsets += [(vec, 1.0, direction), (vec, -1.0, direction)]
        elif m.classification == "saddle-node" and m.record.reduction is not None:
            red = m.record.reduction
            cv = (float(red.center_vector[0]), float(red.center_vector[1]))
            n = math.hypot(*cv) or 1.0
            cv = (cv[0] / n, cv[1] / n)
            a2 = float(red.a2)
            for s in (1.0, -1.0):
                offsets.append((cv, s, "forward" if (a2 > 0) == (s > 0) else "backward"))
            lam = float(red.nonzero_eigenvalue)
            strong = [p for p in _eig_directions(m) if abs(p[0] - lam) < 1e-9]
            for lamv, vec in strong[:1]:
                direction = "backward" if lamv < 0 else "forward"
                offsets += [(vec, 1.0, direction), (vec, -1.0, direction)]
        k = 0
        for vec, s, direction in offsets:
            u = m.local[0] + s * EPS_SEPARATRIX * vec[0]
            v = m.local[1] + s * EPS_SEPARATRIX * vec[1]
            if m.chart != "U3" and abs(v) < 1e-15:
                continue  # equator direction: lies on the disc rim
            if positive_quadrant_only and not _in_quadrant(m.chart, m.side, u, v):
                continue
            seeds.append(
                SeedSpec(f"sep:{m.marker_id}:{k}", _local_to_disc(m.chart, m.side, u, v), direction, "separatrix")
            )
            k += 1
    return seeds


def default_seeds(positive_quadrant_only: bool = True, grid: int = 8) -> List[SeedSpec]:
    """Deterministic polar grid of generic seeds plus axis seeds."""
    seeds: List[SeedSpec] = []
    sectors = 1 if positive_quadrant_only else 4
    for i in range(grid):
        r = 0.92 * (i + 1) / (grid + 1)
        for j in range(grid * sectors):
            theta = (j + 0.5) * (sectors * math.pi / 2.0) / (grid * sectors)
            p = (r * math.cos(theta), r * math.sin(theta))
            seeds.append(SeedSpec(f"grid:{i}:{j}", p, "forward", "generic"))
    for k, s in enumerate((0.25, 0.5, 1.5, 3.0)):
        seeds.append(SeedSpec(f"axis:x:{k}", disc_from_plane(s, 0.0), "forward", "axis"))
        seeds.append(SeedSpec(f"axis:y:{k}", disc_from_plane(0.0, s), "forward", "axis"))
        if not positive_quadrant_only:
            seeds.append(SeedSpec(f"axis:x:-{k}", disc_from_plane(-s, 0.0), "forward", "axis"))
            seeds.append(SeedSpec(f"axis:y:-{k}", disc_from_plane(0.0, -s), "forward", "axis"))
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
    tol: float = RTOL_DEFAULT,
) -> PortraitDoc:
    """Assemble markers, seeds, and trajectories for one system.

    The flow holds a marker, and its capture regions, for every
    equilibrium of the disc analysis; the portrait draws those in the
    view and seeds separatrices from them."""
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
    seeds.extend(separatrix_seeds(markers, positive_quadrant_only))

    trajectories = [
        integrate_orbit(
            flow, seed.disc, seed.direction, tmax=tmax, tol=tol, seed_id=seed.seed_id, role=seed.role
        )
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
        "trajectories": [
            {
                "seed": tr.seed_id,
                "role": tr.role,
                "direction": tr.direction,
                "reason": tr.reason,
                "points": [[round(x, 6), round(y, 6)] for x, y in tr.points],
            }
            for tr in doc.trajectories
        ],
    }
    js = json.dumps(jdoc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return svg, js
