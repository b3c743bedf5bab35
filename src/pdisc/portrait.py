"""Global phase portraits on the Poincaré disc.

This is the only module that computes in binary64: every seed,
equilibrium location, and chart polynomial is handed over from exact
data and only the trajectory integration itself is floating point.

Every orbit is integrated by one loop, an embedded Dormand-Prince 4(5)
pair whose last stage is the next step's first (FSAL), in whichever
chart is well scaled: the finite chart while |x| + |y| stays small, the
U1/U2 charts near infinity (switch out above 10, back below 5).  The
step is straight-line code whose sums run in one fixed order, so every
trajectory float is the same on every supported interpreter.  For
even-degree systems the chart polynomials reverse time on the v < 0
half, which the integrator compensates with a sign factor, so drawn
orbits always follow the true flow.  Orbits seeded on an invariant
coordinate axis stay in the finite chart and exactly on the axis.

An orbit ends at an equilibrium in one of two ways.  Near a hyperbolic
point the field speed falls below CONVERGE_SPEED.  A saddle-node or a
degenerate point is approached only algebraically, so the speed rule
would not fire before `tmax`; instead the portrait gives each such
marker capture regions built from its exact local analysis.  At a
saddle-node that is a triangle about the center direction on the side
of its node sector; at a degenerate point resolved by one level of
directional blow-ups, a small disc about each hyperbolic node on an
exceptional divisor.  Each region is sized by an exact proof that
every orbit in it tends to the marker, so it never reaches past
another equilibrium (see `pdisc.capture`).  A region captures only in the time direction in
which it attracts, and an orbit that lands in one ends at the marker's
disc point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from pdisc.capture import Capture, blowup_node_captures, saddle_node_capture
from pdisc.compactify import (
    HYPERBOLIC,
    BlowupAnalysis,
    DiscEquilibria,
    SectorDecomposition,
    blowup_analysis,
    direct_sectors,
    disc_equilibria,
)
from pdisc.equilibria import EquilibriumRecord, equilibrium_fragment, jacobian_at, leslie_labels
from pdisc.errors import InputError, InternalInvariantError, LineOfEquilibriaError
from pdisc.exactalg import Interval, MPoly
from pdisc.modelio import ParamBindings, PlanarSystem, format_system

RTOL_DEFAULT = 1e-9
ATOL_DEFAULT = 1e-12
TMAX_DEFAULT = 200.0
EPS_SEPARATRIX = 1e-3
CONVERGE_POS = 1e-8
CONVERGE_SPEED = 1e-10
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
    s = side / math.sqrt(1.0 + u * u + v * v)
    if chart == "U1":
        return (s, s * u)
    return (s * u, s)


def _dist(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


# ---------------------------------------------------------------------------
# polynomial compilation


def compile_poly(p: MPoly) -> Callable[[float, float], float]:
    """Horner-compile an exact polynomial to a float evaluator."""
    rows = p.coeffs_in("y")
    if not rows:
        return lambda x, y: 0.0
    parts: List[str] = []
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
    namespace: Dict[str, object] = {}
    exec(f"def _f(x, y):\n    return {body}\n", namespace)
    return namespace["_f"]  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Dormand-Prince 4(5)


def _dp_step(fx, fy, k, x, y, h, k1x, k1y):
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


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    seed_id: str
    role: str  # generic | separatrix | axis
    direction: str  # forward | backward
    points: List[Tuple[float, float]]
    reason: str

    def endpoint(self) -> Tuple[float, float]:
        return self.points[-1]


class _ChartState:
    """Mutable integration state: chart id, local coordinates, and the
    time-orientation sign of the chart polynomials at the current
    position."""

    __slots__ = ("chart", "x", "y", "side", "orient")

    def __init__(self, chart: str, x: float, y: float, side: int, orient: float):
        self.chart = chart
        self.x = x
        self.y = y
        self.side = side
        self.orient = orient

    def disc(self) -> Tuple[float, float]:
        if self.chart == "U3":
            return disc_from_plane(self.x, self.y)
        return _disc_from_chart(self.chart, self.x, self.y, self.side)


class Flow:
    """A system's vector field compiled once for every orbit of a
    portrait: the finite chart U3 and the charts U1/U2 at infinity, the
    invariant coordinate axes, the disc points of the equilibria where
    orbits stop by the speed rule, and the capture regions.

    The chart systems come from `disc`.  So do the stop points, unless
    `equilibria` gives them: every finite equilibrium, drawn or not,
    and every equator point drawn on the disc.  Every one of `markers`
    (as built by `build_portrait`) is a stop point too, and its local
    analysis gives the capture regions: the node half of a saddle-node
    with an exact reduction, and the hyperbolic nodes on the divisors of
    a blown-up degenerate point.  A flow without markers keeps the speed
    rule only.
    """

    def __init__(
        self,
        disc: DiscEquilibria,
        markers: Sequence["Marker"] = (),
        equilibria: Optional[Sequence[Tuple[float, float]]] = None,
    ):
        sys = disc.system
        if equilibria is None:
            equilibria = [disc_from_plane(*rec.point.approx()) for rec in disc.finite]
            equilibria += [
                _disc_from_chart(chart, rec.point.x.approx(), 0.0, side)
                for chart, side, _, rec in _drawn_equator(disc)
            ]
        self.equilibria = list(equilibria) + [m.disc for m in markers]
        self.captures: List[Capture] = []
        for m in markers:
            if m.classification == "saddle-node" and m.record.reduction is not None:
                cap = saddle_node_capture(m)
                if cap is not None:
                    self.captures.append(cap)
            elif m.blowup is not None:
                self.captures.extend(blowup_node_captures(m, m.blowup))
        self.even_degree = sys.degree % 2 == 0
        u1, u2 = disc.charts["U1"], disc.charts["U2"]
        self.fields = {
            "U3": (compile_poly(sys.P), compile_poly(sys.Q)),
            "U1": (compile_poly(u1.du), compile_poly(u1.dv)),
            "U2": (compile_poly(u2.du), compile_poly(u2.dv)),
        }
        # an axis is invariant when the transverse component vanishes on it
        zero = Fraction(0)
        self.axes = {
            axis
            for axis, transverse in (("x", sys.Q.subst_y(zero)), ("y", sys.P.subst_x(zero)))
            if transverse.is_zero
        }

    def converged(self, speed: float, p: Tuple[float, float]) -> bool:
        """The stop rule: field speed below CONVERGE_SPEED and an
        equilibrium within CONVERGE_POS of the disc point p."""
        return speed < CONVERGE_SPEED and any(
            _dist(p, e) < CONVERGE_POS for e in self.equilibria
        )

    def capture(self, st: _ChartState, sgn: float) -> Optional[Tuple[float, float]]:
        """The disc point of the marker whose capture region holds the
        state for time sign `sgn`, or None."""
        for r in self.captures:
            u, v = st.x, st.y
            if r.chart != st.chart:
                if st.chart == "U3":
                    continue  # regions at infinity are tested from U1/U2 only
                if r.chart == "U3":
                    if v == 0.0:
                        continue
                    u, v = (1.0 / v, u / v) if st.chart == "U1" else (u / v, 1.0 / v)
                else:
                    if u == 0.0:
                        continue
                    u, v = 1.0 / u, v / u  # across the U1/U2 overlap
            if r.chart != "U3" and (v > 0.0) != (r.side > 0):
                continue
            if r.hit(u - r.x0, v - r.y0, sgn):
                return r.disc
        return None

    def _orientation(self, v: float) -> float:
        # for even degree the U1/U2 fields reverse time on the v < 0 half
        if not self.even_degree:
            return 1.0
        return 1.0 if v >= 0 else -1.0

    def switch(self, st: _ChartState) -> None:
        if st.chart == "U3":
            if abs(st.x) + abs(st.y) > CHART_OUT:
                if abs(st.x) >= abs(st.y):
                    u, v = st.y / st.x, 1.0 / st.x
                    st.chart = "U1"
                else:
                    u, v = st.x / st.y, 1.0 / st.y
                    st.chart = "U2"
                st.x, st.y = u, v
                st.side = 1 if v > 0 else -1
                st.orient = self._orientation(v)
            return
        u, v = st.x, st.y
        if v != 0.0 and (1.0 + abs(u)) / abs(v) < CHART_IN:
            if st.chart == "U1":
                st.x, st.y = 1.0 / v, u / v
            else:
                st.x, st.y = u / v, 1.0 / v
            st.chart = "U3"
            st.side = 1
            st.orient = 1.0
            return
        if abs(u) > 2.0:
            st.chart = "U2" if st.chart == "U1" else "U1"
            st.x, st.y = 1.0 / u, v / u
            st.side = 1 if st.y > 0 else (-1 if st.y < 0 else st.side)
            st.orient = self._orientation(st.y)


def integrate_orbit(
    flow: Flow,
    seed: Tuple[float, float],
    direction: str = "forward",
    tmax: float = TMAX_DEFAULT,
    tol: float = RTOL_DEFAULT,
    atol: float = ATOL_DEFAULT,
    seed_id: str = "seed",
    role: str = "generic",
) -> Trajectory:
    """Integrate one orbit of `flow` from a disc-coordinate seed.

    Each accepted step hands its last stage on as the next step's first
    stage, and the stop rule reads the field speed from it; both are
    evaluated afresh only after a chart switch.  A step whose error
    norm overflows or is not a number is rejected.  A seed on an
    invariant coordinate axis stays on it exactly, because the
    transverse component evaluates to 0.0 there; such an orbit keeps to
    the finite chart and ends at the boundary once |x| + |y| exceeds
    1e9.

    An orbit ends `converged-to-equilibrium` where the field speed
    falls below CONVERGE_SPEED within CONVERGE_POS of one of the flow's
    equilibria, or once an accepted step lands in one of the flow's
    capture regions that attracts in the orbit's direction; the last
    point is then the capturing marker's disc point.  Axis orbits are
    never captured.
    """
    if direction not in ("forward", "backward"):
        raise InputError("direction must be 'forward' or 'backward'")
    x0, y0 = plane_from_disc(*seed)
    # the U2 (or U1) origin an axis runs into is degenerate; stay in U3
    on_axis = (y0 == 0.0 and "x" in flow.axes) or (x0 == 0.0 and "y" in flow.axes)
    sgn = 1.0 if direction == "forward" else -1.0
    capturing = bool(flow.captures) and not on_axis
    st = _ChartState("U3", x0, y0, 1, 1.0)
    if not on_axis:
        flow.switch(st)
    # the chart's field and time sign change only when the chart does
    fx, fy = flow.fields[st.chart]
    k = sgn * st.orient
    k1x = k * fx(st.x, st.y)
    k1y = k * fy(st.x, st.y)
    p = st.disc()
    pts: List[Tuple[float, float]] = [p]
    if math.hypot(k1x, k1y) < CONVERGE_SPEED:
        return Trajectory(seed_id, role, direction, pts, REASON_EQ)

    reason = REASON_TMAX
    final: Optional[Tuple[float, float]] = None
    t = 0.0
    h = 1e-3
    last_recorded = p
    for _ in range(MAX_STEPS):
        if t >= tmax:
            break
        h = min(h, tmax - t, 0.5)
        nx, ny, ex, ey, k7x, k7y = _dp_step(fx, fy, k, st.x, st.y, h, k1x, k1y)
        sx = atol + tol * max(abs(st.x), abs(nx))
        sy = atol + tol * max(abs(st.y), abs(ny))
        try:
            err = math.sqrt(((ex / sx) ** 2 + (ey / sy) ** 2) / 2.0)
        except OverflowError:
            err = math.inf
        if not err <= 1.0:
            h *= max(0.2, 0.9 * err ** -0.2)
            if h < 1e-13 * max(1.0, abs(t)):
                reason = REASON_UNDERFLOW
                break
            continue
        chart = st.chart
        if chart == "U3":
            # keep recorded polylines locally short on the disc; p is the
            # disc point of (st.x, st.y)
            q = disc_from_plane(nx, ny)
            if _dist(q, p) > 0.05:
                h *= 0.5
                if h < 1e-13 * max(1.0, abs(t)):
                    reason = REASON_UNDERFLOW
                    break
                continue

        st.x, st.y = nx, ny
        k1x, k1y = k7x, k7y
        t += h
        if err > 1e-30:
            h *= min(5.0, 0.9 * err ** -0.2)
        else:
            h *= 5.0

        if chart != "U3" and abs(ny) < EQUATOR_EPS:
            p = st.disc()
            pts.append(p)
            reason = REASON_EQ if flow.converged(math.hypot(k1x, k1y), p) else REASON_BOUNDARY
            break
        if not on_axis:
            flow.switch(st)
            if st.chart != chart:
                fx, fy = flow.fields[st.chart]
                k = sgn * st.orient
                k1x = k * fx(st.x, st.y)
                k1y = k * fy(st.x, st.y)

        p = q if st.chart == chart == "U3" else st.disc()
        if _dist(p, last_recorded) >= 0.004:
            pts.append(p)
            last_recorded = p
        if flow.converged(math.hypot(k1x, k1y), p):
            if pts[-1] != p:
                pts.append(p)
            reason = REASON_EQ
            break
        if capturing:
            final = flow.capture(st, sgn)
            if final is not None:
                reason = REASON_EQ
                break
        if on_axis and abs(st.x) + abs(st.y) > 1e9:
            reason = REASON_BOUNDARY
            break

    if final is None:
        final = st.disc()
    if pts[-1] != final:
        pts.append(final)
    return Trajectory(seed_id, role, direction, pts, reason)


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
    if chart == "U3":
        return disc_from_plane(u, v)
    eff = 1 if v > 0 else (-1 if v < 0 else side)
    return _disc_from_chart(chart, u, v, eff)


def _in_quadrant(chart: str, side: int, u: float, v: float) -> bool:
    tol = 1e-12
    if chart == "U3":
        return u >= -tol and v >= -tol
    # chart points map to x = side/..., so quadrant needs side > 0, u, v >= 0
    return side > 0 and u >= -tol and v >= -tol


def separatrix_seeds(
    markers: Sequence[Marker],
    epsilon: float = EPS_SEPARATRIX,
    positive_quadrant_only: bool = False,
) -> List[SeedSpec]:
    """Seeds tracing the saddle and saddle-node separatrices of markers:
    offsets of epsilon along the relevant eigendirections, integrated
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
            u = m.local[0] + s * epsilon * vec[0]
            v = m.local[1] + s * epsilon * vec[1]
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


def build_portrait(
    sys: PlanarSystem,
    params: Optional[ParamBindings] = None,
    positive_quadrant_only: bool = True,
    grid: int = 8,
    tmax: float = TMAX_DEFAULT,
    tol: float = RTOL_DEFAULT,
) -> PortraitDoc:
    """Assemble markers, seeds, and trajectories for one system.

    Every finite equilibrium is a stop point of the flow, drawn or not;
    saddle-nodes and blown-up degenerate markers add capture regions."""
    disc = disc_equilibria(sys, positive_quadrant_only)
    finite = disc.finite_in_view
    regime: Optional[str] = None
    if params is not None:
        finite = leslie_labels(finite, params.A, params.B, params.C)
        regime = params.regime

    markers = [_marker_for_finite(r, sys) for r in finite]
    markers.extend(_marker_for_infinite(rec, chart, side, cs) for chart, side, cs, rec in _drawn_equator(disc))

    if params is not None:
        has_star = any(m.label == "Estar" and m.local[0] > 0 for m in markers)
        if (regime == "positive") != has_star:
            raise InternalInvariantError(
                "interior-equilibrium marker disagrees with the 1-AC regime"
            )

    flow = Flow(disc, markers)
    seeds = default_seeds(positive_quadrant_only, grid)
    seeds.extend(separatrix_seeds(markers, EPS_SEPARATRIX, positive_quadrant_only))

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
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(_svg_xy, tr.points))
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
