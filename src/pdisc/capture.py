"""Capture regions: sets beside an equilibrium in which every orbit
provably tends to it in one direction of time, the only way an orbit of
the portrait integrator ends at an equilibrium.  A node or focus,
finite, on the equator in its own chart system, or on an exceptional
divisor of a blow-up, gets an ellipse on which an exact quadratic
Lyapunov function decreases; the node half of a saddle-node, which is
approached only algebraically, gets a triangle about its center
direction.

Each region is sized from the exact field: a polynomial inequality on
the closed region, proved by exact interval enclosures over a bisection
of a box, computed on integer coefficients (see `positive_on`).  The
largest region, of size CAPTURE_RADIUS = 0.48, is tried first and shrunk
by CAPTURE_SHRINK = 1/4 until the proof goes through: an ellipse over
eight sizes down to 0.48/4^7, a triangle over the five lengths 0.48 down
to 0.001875 at each of the widths 1, 1/4 and 1/16.  A point whose proof
fails at every size gets no region.  The regions themselves are tested
in binary64: `hit` decides, and `box` bounds in the region's own chart
every point `hit` accepts, from which the portrait integrator makes the
one box on the Poincaré disc that a state must be in before the region
is tried.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Tuple

from pdisc.compactify import HYPERBOLIC, BlowupAnalysis, BlowupSystem
from pdisc.equilibria import EquilibriumRecord
from pdisc.exactalg import MPoly, common_denominator
from pdisc.modelio import PlanarSystem

if TYPE_CHECKING:
    from pdisc.portrait import Marker

CAPTURE_RADIUS = Fraction(12, 25)  # largest capture region tried, in its own coordinates
CAPTURE_SHRINK = Fraction(1, 4)  # factor by which an unproved region shrinks
NODE_CLASSES = HYPERBOLIC - {"saddle"}
_CAPTURE_TRIES = 3  # saddle-node triangle widths k: 1, 1/4, 1/16
_RADIUS_TRIES = 5  # its lengths r for each k: 0.48 down to 0.001875
# ellipse sizes, 0.48 down to 0.48/4^7: a node near a bifurcation is
# hyperbolic only on a small box
_NODE_TRIES = 8
_PROOF_BUDGET = 200


_Range = Tuple[float, float]
_Box = Tuple[float, float, float, float]
_WIDTH_PAD = 2.0**-16  # of a box's width: rounding in `hit`
_SIZE_PAD = 2.0**-40  # of its endpoints' size: rounding in the chart maps


class Capture:
    """A region beside one marker in which every orbit tends to the
    marker in one direction of time.  `hit` takes the offset (a, b) of
    the state from (x0, y0) in the marker's own chart system: U3, or
    U1/U2 on the equator side `side`, whose system for side -1 is the V
    chart.  Both run in the true time, so the time sign of an orbit is
    its direction alone.  `box` bounds the region in that chart.
    """

    __slots__ = ("marker_id", "chart", "side", "x0", "y0", "disc")

    def __init__(self, marker: "Marker"):
        self.marker_id = marker.marker_id
        self.chart = marker.chart
        self.side = marker.side
        self.x0, self.y0 = marker.local
        self.disc = marker.disc

    def hit(self, a: float, b: float, sgn: float) -> bool:
        raise NotImplementedError

    def box(self) -> _Box:
        """(ulo, uhi, vlo, vhi): a float box in the region's own chart that
        holds every point (x0 + a, y0 + b) that `hit` accepts."""
        raise NotImplementedError


def _out(lo: float, hi: float) -> _Range:
    """[lo, hi] widened outward past the rounding of the float operations
    that made it and of those that test against it."""
    pad = (hi - lo) * _WIDTH_PAD + max(abs(lo), abs(hi)) * _SIZE_PAD + 1e-300
    return lo - pad, hi + pad


def _mul(a: _Range, b: _Range) -> _Range:
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return _out(min(ps), max(ps))


def _shift(c: float, a: _Range) -> _Range:
    return _out(c + a[0], c + a[1])


class NodeCapture(Capture):
    """A node or focus, as the ellipse s00 a^2 + 2 s01 a b + s11 b^2 < thr
    in the offsets (a, b) from a rational point z near it, for the time
    sign `sgn` in which it attracts; it was proved on the box of
    half-widths `half` about z (see `node_region`)."""

    __slots__ = ("z", "form", "thr", "sgn", "half")

    def __init__(self, marker: "Marker", region: tuple):
        super().__init__(marker)
        self.z, self.form, self.thr, self.sgn, self.half = region
        self.x0, self.y0 = self.z

    def hit(self, a: float, b: float, sgn: float) -> bool:
        s00, s01, s11 = self.form
        return sgn == self.sgn and a * (s00 * a + 2.0 * s01 * b) + s11 * b * b < self.thr

    def box(self) -> _Box:
        # the ellipse lies in its proof box
        return (*_shift(self.x0, (-self.half[0], self.half[0])), *_shift(self.y0, (-self.half[1], self.half[1])))


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

    def box(self) -> _Box:
        # the triangle is the hull of its vertices (0, 0) and (r, +-k r)
        i00, i01, i10, i11 = self.inv
        det = i00 * i11 - i01 * i10
        r, w = self.r, self.k * self.r
        corners = [(0.0, 0.0)] + [((i11 * r - i01 * s) / det, (i00 * s - i10 * r) / det) for s in (w, -w)]
        a, b = ([p[i] for p in corners] for i in (0, 1))
        return (*_shift(self.x0, _out(min(a), max(a))), *_shift(self.y0, _out(min(b), max(b))))


class BlowupNodeCapture(NodeCapture):
    """A hyperbolic node on the exceptional divisor of one directional
    blow-up, as its ellipse in the blown-up coordinates (see
    `blowup_node_captures`).  These are (p, q) = (a, b/a) for the
    x-direction and (a/b, b) for the y-direction, and the blown-up field
    is the true one divided by p^rx q^ry, so the ellipse attracts where
    the time sign times the sign of that monomial matches the node's
    stability."""

    __slots__ = ("x_dir", "rescale")

    def __init__(self, marker: "Marker", bs: BlowupSystem, region: tuple):
        super().__init__(marker, region)
        self.x0, self.y0 = marker.local
        self.x_dir = bs.direction == "x"
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
        rx, ry = self.rescale
        if rx % 2 and p < 0.0:
            sgn = -sgn
        if ry % 2 and q < 0.0:
            sgn = -sgn
        return super().hit(p - self.z[0], q - self.z[1], sgn)

    def box(self) -> _Box:
        # the blow-down of the ellipse's proof box: (a, b) = (p, p q) or (p q, q)
        (z0, z1), (h0, h1) = self.z, self.half
        p, q = _out(z0 - h0, z0 + h0), _out(z1 - h1, z1 + h1)
        a, b = (p, _mul(p, q)) if self.x_dir else (_mul(p, q), q)
        return (*_shift(self.x0, a), *_shift(self.y0, b))


def _affine(rows: List[List[int]], axis: int, a: int, b: int, m: int) -> List[List[int]]:
    """m^d r((a + b s)/m) for each polynomial r(s) = r[0] + ... + r[d] s^d
    along `axis` (0: each row, 1: each column) of an integer coefficient
    grid, by Horner's rule; d is the grid's degree along that axis."""
    lines = rows if axis == 0 else [list(col) for col in zip(*rows)]
    out = []
    for r in lines:
        acc = [r[-1]]
        mk = 1
        for c in reversed(r[:-1]):
            mk *= m
            # acc * (a + b s) + c m^(d-i)
            acc = [a * acc[0] + c * mk] + [a * acc[k] + b * acc[k - 1] for k in range(1, len(acc))] + [b * acc[-1]]
        out.append(acc)
    return out if axis == 0 else [list(row) for row in zip(*out)]


def positive_on(p: MPoly, xs: Tuple[Fraction, Fraction], ys: Tuple[Fraction, Fraction]) -> bool:
    """True when p > 0 on the closed box xs * ys is proved within
    _PROOF_BUDGET interval enclosures, by bisecting the side that is
    widest relative to the whole box, which is the side halved fewer
    times.

    Each box is held as q(s, t) = p(cx + hx s, cy + hy t) on [-1, 1]^2,
    about its centre (cx, cy) with half-widths (hx, hy), times a positive
    rational that leaves integer coefficients (p's primitive integer
    terms, with the centre's denominators cleared); a half is 2^d q((s -+ 1)/2, t)
    for d the degree in s, and the same in t.  The corners are
    q(+-1, +-1), and the enclosure's lower end is q(0, 0), minus |c| for
    every term with an odd exponent, plus min(0, c) for every other
    term: the exact enclosure of p re-expanded about the box centre,
    which keeps it tight where the terms of p nearly cancel, times a
    positive rational.  So every decision, and the order of the boxes, is
    that of the same bisection in rational interval arithmetic."""
    hx = (xs[1] - xs[0]) / 2
    hy = (ys[1] - ys[0]) / 2
    terms = list(p.int_terms())
    ds = max((i for (i, _), _ in terms), default=0)
    dt = max((j for (_, j), _ in terms), default=0)
    rows = [[0] * (ds + 1) for _ in range(dt + 1)]
    for (i, j), c in terms:
        rows[j][i] = c
    # c + h s = (a + b s)/m for (a, b, m) = common_denominator(c, h)
    rows = _affine(rows, 0, *common_denominator(xs[0] + hx, hx))
    rows = _affine(rows, 1, *common_denominator(ys[0] + hy, hy))
    todo = [(rows, 0, 0)]
    for _ in range(_PROOF_BUDGET):
        if not todo:
            return True
        rows, kx, ky = todo.pop()
        lo = rows[0][0]
        if lo <= 0:
            return False
        # sums of the coefficients by the parity of their (s, t) exponents
        ee = eo = oe = oo = 0
        for j, row in enumerate(rows):
            for i, c in enumerate(row):
                if i & 1:
                    lo -= abs(c)
                    if j & 1:
                        oo += c
                    else:
                        oe += c
                elif j & 1:
                    lo -= abs(c)
                    eo += c
                else:
                    ee += c
                    if c < 0:
                        lo += c
        if min(ee + oe + eo + oo, ee + oe - eo - oo, ee - oe + eo - oo, ee - oe - eo + oo) <= 0:
            return False
        if lo > 0:
            continue
        if hy == 0 or (hx != 0 and kx <= ky):
            todo += [(_affine(rows, 0, sign, 1, 2), kx + 1, ky) for sign in (-1, 1)]
        else:
            todo += [(_affine(rows, 1, sign, 1, 2), kx, ky + 1) for sign in (-1, 1)]
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


def _along(f: MPoly, e: int, slope: Optional[Fraction], power: int) -> MPoly:
    """f(e*t, slope*t) / t^power, a polynomial in t; with no slope,
    f(e*t, s*t) / t^power, a polynomial in (t, s)."""
    t, s = MPoly.var_x(), MPoly.var_y()
    g = f.subst(t * e, t * (s if slope is None else MPoly.const(slope)))
    return g.exact_div(MPoly.monomial(power, 0))


def saddle_node_capture(m: "Marker") -> Optional[SaddleNodeCapture]:
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
    fp, fq = (_in_frame(f, p0, t) for f in (m.system.P, m.system.Q))
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
        for _ in range(_RADIUS_TRIES):
            zero = Fraction(0)
            if all(positive_on(p, (zero, r), (zero, zero)) for p in sides) and positive_on(cdot, (zero, r), (-k, k)):
                rows = (e * inv[0], e * inv[1], inv[2], inv[3])
                return SaddleNodeCapture(m, tuple(map(float, rows)), float(sgn), float(r), float(k))
            r *= CAPTURE_SHRINK
    return None


def node_region(sys: PlanarSystem, rec: EquilibriumRecord, nonzero: Optional[int] = None) -> Optional[tuple]:
    """A certified ellipse about a node or focus of `sys`.

    Take a rational point z within 2^-30 of the point (the point itself
    when it is exact) and the Jacobian A of the field there, and let
    sgn = 1 for a stable point and -1 for an unstable one.  S solves the
    Lyapunov equation (sgn A)^T S + S (sgn A) = -I over Q.  The box is
    the bounding box of an S-ellipse of radius rho about z, r wide along
    its shorter extent.  On it the flow in time sgn is certified to
    contract the S-distance: the symmetric part of sgn S J is negative
    definite there.  Then the point is the only equilibrium in the box,
    and every orbit within S-distance rho - d of it stays there and
    tends to it, where d <= rho/4 bounds the point's S-distance from z.
    The ellipse of radius rho - 2d about z lies within that.  With
    `nonzero`, that coordinate must not vanish on the box.
    """
    sgn = 1 if rec.classification.startswith("stable") else -1
    box = [co.refined(Fraction(1, 2**30)).interval() for co in (rec.point.x, rec.point.y)]
    z = tuple((lo + hi) / 2 for lo, hi in box)
    # the Jacobian about z, so that every proof box is centred at the origin
    x, y = MPoly.var_x() + z[0], MPoly.var_y() + z[1]
    j00, j01, j10, j11 = (e.subst(x, y) for row in sys.jacobian for e in row)
    a, b, c, d = (sgn * e.coeff(0, 0) for e in (j00, j01, j10, j11))
    tr, det = a + d, a * d - b * c
    if not tr < 0 < det:
        return None
    # -2 tr det S = det I + adj(sgn A)^T adj(sgn A); the positive factor is dropped
    s00, s01, s11 = det + c * c + d * d, -(a * c + b * d), det + a * a + b * b
    n00 = (j00 * s00 + j10 * s01) * sgn
    n11 = (j01 * s01 + j11 * s11) * sgn
    n01 = (j01 * s00 + j11 * s01 + j00 * s01 + j10 * s11) * Fraction(sgn, 2)
    proofs = (-n00, n00 * n11 - n01 * n01)
    det_s = s00 * s11 - s01 * s01
    # the point lies within half of each box width of z
    w0, w1 = ((hi - lo) / 2 for lo, hi in box)
    slack2 = s00 * w0 * w0 + 2 * abs(s01) * w0 * w1 + s11 * w1 * w1
    # the ellipse's extent along axis i is proportional to sqrt(s_jj), j != i;
    # the box is its bounding box, r along the shorter extent
    low, high = sorted((s00, s11))
    q = high / low
    long = Fraction(math.isqrt(q.numerator * 64 // q.denominator) + 1, 8)  # >= sqrt(q)
    r = CAPTURE_RADIUS
    for _ in range(_NODE_TRIES):
        half = (r, r * long) if s11 <= s00 else (r * long, r)
        rho2 = r * r * det_s / low
        if (
            16 * slack2 <= rho2
            and (nonzero is None or abs(z[nonzero]) > half[nonzero])
            and all(positive_on(p, (-half[0], half[0]), (-half[1], half[1])) for p in proofs)
        ):
            radius = math.sqrt(float(rho2)) - 2 * math.sqrt(float(slack2))
            form = (float(s00 / high), float(s01 / high), float(s11 / high))
            return tuple(map(float, z)), form, radius * radius / float(high), float(sgn), tuple(map(float, half))
        r *= CAPTURE_SHRINK
    return None


def blowup_node_captures(m: "Marker", analysis: BlowupAnalysis) -> List[BlowupNodeCapture]:
    """A certified ellipse (see `node_region`) about each hyperbolic node
    on an exceptional divisor, in the blown-up coordinates.  The divisor
    is invariant, so each half of the ellipse is too, and the blow-down
    maps the node to the marker.  Where the rescaling monomial has an
    odd power of the coordinate along the divisor, that coordinate must
    not vanish on the proof box.
    """
    out: List[BlowupNodeCapture] = []
    for bs, nodes in ((analysis.x_system, analysis.x_divisor), (analysis.y_system, analysis.y_divisor)):
        # the coordinate along the divisor: q for the x-direction, p for the y-direction
        i = 1 if bs.direction == "x" else 0
        odd = (bs.rescale_x, bs.rescale_y)[i] % 2
        for node in nodes:
            if node.classification in NODE_CLASSES:
                region = node_region(bs.system, node, i if odd else None)
                if region is not None:
                    out.append(BlowupNodeCapture(m, bs, region))
    return out


def marker_captures(m: "Marker") -> List[Capture]:
    """The capture regions of one marker: an ellipse at a node or focus,
    the node half of a saddle-node with an exact reduction, and an
    ellipse about each hyperbolic node on the divisors of a blown-up
    degenerate point."""
    caps: List[Capture] = []
    if m.classification in NODE_CLASSES:
        region = node_region(m.system, m.record)
        caps = [] if region is None else [NodeCapture(m, region)]
    elif m.classification == "saddle-node" and m.record.reduction is not None:
        cap = saddle_node_capture(m)
        caps = [] if cap is None else [cap]
    elif m.blowup is not None:
        caps += blowup_node_captures(m, m.blowup)
    return caps
