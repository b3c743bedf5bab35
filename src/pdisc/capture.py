"""Capture regions of non-hyperbolic equilibria.

A saddle-node or a degenerate point is approached only algebraically,
so an orbit that tends to one never meets the speed stop rule of the
portrait integrator.  A capture region is a set beside such a point in
which every orbit provably tends to it, in one direction of time:

- at a saddle-node, a triangle about the center direction on the side
  of its node sector, in eigen-coordinates of the semi-hyperbolic
  reduction;
- at a degenerate point resolved by one level of directional blow-ups,
  a disc about each hyperbolic node on an exceptional divisor, in
  eigen-coordinates of the blown-up field.

Each region is sized from the exact field: a polynomial inequality on
the closed region, proved by exact interval enclosures over a bisection
of a box.  The largest region is tried first and shrunk by
CAPTURE_SHRINK until the proof goes through; a point whose proof fails
at every size gets no region.  The regions themselves are tested in
binary64.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Tuple

from pdisc.compactify import BlowupAnalysis, BlowupSystem
from pdisc.exactalg import Interval, MPoly, eval_box
from pdisc.modelio import PlanarSystem

if TYPE_CHECKING:
    from pdisc.portrait import Marker

CAPTURE_RADIUS = Fraction(3, 100)  # largest capture region tried, in its own coordinates
CAPTURE_SHRINK = Fraction(1, 4)  # factor by which an unproved region shrinks
_CAPTURE_TRIES = 3
_PROOF_BUDGET = 200


class Capture:
    """A region beside one marker in which every orbit tends to the
    marker in one direction of time.  `hit` takes the offset (a, b) of
    the state from the marker in the marker's own chart system: U3, or
    U1/U2 on the equator side `side`, whose system for side -1 is the V
    chart.  Both run in the true time, so the time sign of an orbit is
    its direction alone.
    """

    __slots__ = ("chart", "side", "x0", "y0", "disc")

    def __init__(self, marker: "Marker"):
        self.chart = marker.chart
        self.side = marker.side
        self.x0, self.y0 = marker.local
        self.disc = marker.disc

    def hit(self, a: float, b: float, sgn: float) -> bool:
        raise NotImplementedError


class SaddleNodeCapture(Capture):
    """The node half of a saddle-node, as the triangle
    0 < e*c <= r, |w| <= k*e*c in eigen-coordinates (c, w) (see
    `saddle_node_capture`), for the one time sign `sgn` in which it
    attracts."""

    __slots__ = ("inv", "sgn", "r", "k")

    def __init__(self, marker: "Marker", inv, sgn: float, r: float, k: float):
        super().__init__(marker)
        self.inv, self.sgn, self.r, self.k = inv, sgn, r, k

    def hit(self, a: float, b: float, sgn: float) -> bool:
        if sgn != self.sgn:
            return False
        i00, i01, i10, i11 = self.inv
        c = i00 * a + i01 * b
        return 0.0 < c <= self.r and abs(i10 * a + i11 * b) <= self.k * c


class BlowupNodeCapture(Capture):
    """A hyperbolic node on the exceptional divisor of one directional
    blow-up, as the disc c^2 + w^2 < r^2 in eigen-coordinates (c, w)
    about it (see `blowup_node_captures`).  The blown-up coordinates
    are (p, q) = (a, b/a) for the x-direction and (a/b, b) for the
    y-direction, and the blown-up field is the true one divided by
    p^rx q^ry, so the disc attracts where the time sign times the sign
    of that monomial matches the node's stability."""

    __slots__ = ("x_dir", "node", "inv", "r", "rescale", "stab")

    def __init__(self, marker: "Marker", bs: BlowupSystem, node, inv, r: float, stab: float):
        super().__init__(marker)
        self.x_dir = bs.direction == "x"
        self.node, self.inv, self.r, self.stab = node, inv, r, stab
        self.rescale = (bs.rescale_x, bs.rescale_y)

    def hit(self, a: float, b: float, sgn: float) -> bool:
        if self.x_dir:
            if a == 0.0:
                return False
            p, q = a, b / a
        else:
            if b == 0.0:
                return False
            p, q = a / b, b
        dp = p - self.node[0]
        dq = q - self.node[1]
        i00, i01, i10, i11 = self.inv
        c = i00 * dp + i01 * dq
        w = i10 * dp + i11 * dq
        if c * c + w * w >= self.r * self.r:
            return False
        rx, ry = self.rescale
        m = sgn * self.stab
        if rx % 2 and p < 0.0:
            m = -m
        if ry % 2 and q < 0.0:
            m = -m
        return m > 0.0


def positive_on(p: MPoly, xs: Tuple[Fraction, Fraction], ys: Tuple[Fraction, Fraction]) -> bool:
    """True when p > 0 on the closed box xs * ys is proved within
    _PROOF_BUDGET interval enclosures, by bisecting the side that is
    widest relative to the whole box.  Each enclosure is taken of p
    re-expanded about the box centre, which keeps it tight where the
    terms of p nearly cancel."""
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
        centred = p.subst(MPoly.var_x() + (x0 + hx), MPoly.var_y() + (y0 + hy))
        if centred.coeff(0, 0) <= 0:
            return False
        if eval_box(centred, Interval(-hx, hx), Interval(-hy, hy)).lo > 0:
            continue
        if wy == 0 or (wx != 0 and (x1 - x0) * wy >= (y1 - y0) * wx):
            xm = (x0 + x1) / 2
            todo += [((x0, xm), by), ((xm, x1), by)]
        else:
            ym = (y0 + y1) / 2
            todo += [(bx, (y0, ym)), (bx, (ym, y1))]
    return not todo


def _frame(cols) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """T = [cols[0] | cols[1]], each column scaled so that its largest
    entry is 1 in size, and T^-1; both as rows (t00, t01, t10, t11)."""
    (t00, t10), (t01, t11) = [(v0 / max(abs(v0), abs(v1)), v1 / max(abs(v0), abs(v1))) for v0, v1 in cols]
    det = t00 * t11 - t01 * t10
    return (t00, t01, t10, t11), (t11 / det, -t01 / det, -t10 / det, t00 / det)


def _in_frame(f: MPoly, p0: Tuple[Fraction, Fraction], t: Tuple[Fraction, ...]) -> MPoly:
    """f(p0 + T (c, w)) as a polynomial in (c, w)."""
    c, w = MPoly.var_x(), MPoly.var_y()
    return f.subst(c * t[0] + w * t[1] + p0[0], c * t[2] + w * t[3] + p0[1])


def _matmul(a, b):
    """The product of two 2x2 matrices given as rows (a00, a01, a10, a11)."""
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def _along(f: MPoly, e: int, slope: Optional[Fraction], power: int) -> MPoly:
    """f(e*t, slope*t) / t^power, a polynomial in t; with no slope,
    f(e*t, s*t) / t^power, a polynomial in (t, s)."""
    t, s = MPoly.var_x(), MPoly.var_y()
    g = f.subst(t * e, t * (s if slope is None else MPoly.const(slope)))
    return MPoly({(i - power, j): v for (i, j), v in g.items()})


def saddle_node_capture(m: "Marker", sys: PlanarSystem) -> Optional[SaddleNodeCapture]:
    """The node half of an exact saddle-node as a certified region.

    In the eigen-coordinates (c, w) the field is c' = a2 c^2 + ...,
    w' = lam w + ..., so for the time sign sgn with sgn*lam < 0 the half
    e*c > 0, e = -sign(sgn*a2), attracts.  The region is the triangle
    0 < e*c <= r, |w| <= k*e*c.  It is certified by two inequalities:
    on each of its sides through the point the field in time sgn points
    strictly inward, and sgn*e*c' < 0 on the whole triangle but the
    point.  Then no orbit leaves it, e*c falls strictly along every
    orbit in it, and so every such orbit tends to the point.
    """
    red = m.record.reduction
    p0 = m.record.point.exact_pair()
    t, inv = _frame((red.center_vector, red.hyperbolic_vector))
    fp, fq = (_in_frame(f, p0, t) for f in (sys.P, sys.Q))
    gc = fp * inv[0] + fq * inv[1]
    gw = fp * inv[2] + fq * inv[3]
    sgn = -1 if gw.coeff(0, 1) > 0 else 1
    e = -1 if sgn * gc.coeff(2, 0) > 0 else 1
    # sgn*e*c' = t^2 * H(t, s) at (c, w) = (e*t, s*t)
    cdot = _along(gc * (-sgn * e), e, None, 2)
    for k in (CAPTURE_SHRINK ** i for i in range(_CAPTURE_TRIES)):
        # on the sides w = +-k*e*c: sgn * d(k*e*c -+ w)/dt > 0, divided by t
        sides = [_along(gc * (sgn * k * e) - gw * (sgn * s), e, s * k, 1) for s in (1, -1)]
        r = CAPTURE_RADIUS
        for _ in range(_CAPTURE_TRIES):
            zero = Fraction(0)
            if all(positive_on(p, (zero, r), (zero, zero)) for p in sides) and positive_on(cdot, (zero, r), (-k, k)):
                rows = (e * inv[0], e * inv[1], inv[2], inv[3])
                return SaddleNodeCapture(m, tuple(map(float, rows)), float(sgn), float(r), float(k))
            r *= CAPTURE_SHRINK
    return None


def _node_basis(j) -> Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]:
    """Eigenvectors of a triangular 2x2 matrix with distinct diagonal
    entries (the Jacobian on an invariant divisor); the coordinate axes
    otherwise."""
    (a, b), (c, d) = j
    one, zero = Fraction(1), Fraction(0)
    if a == d or (b != 0 and c != 0):
        return (one, zero), (zero, one)
    return ((one, zero) if c == 0 else (a - d, c)), ((zero, one) if b == 0 else (b, d - a))


def blowup_node_captures(m: "Marker", analysis: BlowupAnalysis) -> List[BlowupNodeCapture]:
    """A certified disc about each hyperbolic node on an exceptional
    divisor.

    Take a rational point z within 2^-30 of the node (the node itself
    when it is exact) and coordinates (c, w) about z along the
    eigenvectors of the Jacobian there.  On the box |c|, |w| <= r the
    blown-up flow, in the node's attracting time, is certified to
    contract the Euclidean distance in (c, w): the symmetric part S of
    its Jacobian M in these coordinates is negative definite, that is
    stab*M11 < 0 and det S > 0.  Then the node is the only equilibrium
    in the box, and every orbit within r - d of it stays there and
    tends to it, where d <= r/4 bounds the node's distance from z.
    The disc of radius r - 2d about z lies within that.  The divisor is
    invariant, so each half of the disc is too, and the blow-down maps
    the node to the marker.  Where the rescaling monomial has an odd
    power of the coordinate along the divisor, that coordinate must not
    vanish on the box.
    """
    out: List[BlowupNodeCapture] = []
    for bs, nodes in ((analysis.x_system, analysis.x_divisor), (analysis.y_system, analysis.y_divisor)):
        # the coordinate along the divisor: q for the x-direction, p for the y-direction
        i = 1 if bs.direction == "x" else 0
        odd = (bs.rescale_x, bs.rescale_y)[i] % 2
        jac = [f.diff(v) for f in (bs.first, bs.second) for v in ("x", "y")]
        for node in nodes:
            if node.classification not in ("stable node", "unstable node"):
                continue
            stab = 1 if node.classification == "stable node" else -1
            box = [co.refined(Fraction(1, 2**30)).interval() for co in (node.point.x, node.point.y)]
            z = tuple((b.lo + b.hi) / 2 for b in box)
            at_z = [e.eval_rat(*z) for e in jac]
            t, inv = _frame(_node_basis((at_z[:2], at_z[2:])))
            m00, m01, m10, m11 = _matmul(inv, _matmul([_in_frame(e, z, t) for e in jac], t))
            sym = (m01 + m10) * Fraction(1, 2)
            proofs = (m00 * (-stab), m00 * m11 - sym * sym)
            # a bound on the node's distance from z, in (c, w)
            slack = float(sum(abs(e) for e in inv) * max(b.width for b in box))
            spread = abs(t[2 * i]) + abs(t[2 * i + 1])
            r = CAPTURE_RADIUS
            for _ in range(_CAPTURE_TRIES):
                if (
                    slack <= r / 4
                    and not (odd and abs(z[i]) <= r * spread + box[i].width)
                    and all(positive_on(p, (-r, r), (-r, r)) for p in proofs)
                ):
                    node_xy = (float(z[0]), float(z[1]))
                    rows = tuple(map(float, inv))
                    out.append(BlowupNodeCapture(m, bs, node_xy, rows, float(r) - 2 * slack, float(stab)))
                    break
                r *= CAPTURE_SHRINK
    return out
