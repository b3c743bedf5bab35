"""Finite equilibria: exact location via resultant elimination and
linear classification, including the semi-hyperbolic (saddle-node)
reduction.

P and Q are first divided by their common factor in x alone and then by
their common factor in y alone (the content with respect to the other
variable; Gauss's lemma).  A real root of either is a vertical or a
horizontal line of equilibria; any other common factor makes
Res_y(P, Q) vanish, a curve of equilibria.

Abscissas are the real roots of sqfree(Res_y(P, Q)).  Above a rational
one the ordinates are the roots of an exact gcd in Q[y]; above an
irrational one, a, the fiber gcd is the subresultant Sj(a, y) of P and Q
of the first index j with Sjj(a) != 0 (j = 1 unless both curves are
singular there), and the ordinate -Sj,j-1(a)/(j*Sjj(a)) is certified as
the one root of sqfree(Res_x(P, Q)) whose isolating interval meets its
enclosure.  Where that fails (a vanishing y-leading coefficient, or two
points on one fiber) the same lifting runs on P(x - t*y, y), Q(x - t*y, y).

Coordinates and points are the real algebraic numbers of
`pdisc.exactalg.algebraic`.  At an irrational point the residuals P and
Q are decided exactly from its rational univariate representation (RUR),
which the lifting above produces; the signs of the Jacobian's
determinant, trace and discriminant are read from the box of its two
coordinate intervals when that box excludes 0, and otherwise from the
RUR.  One sign table classifies rational and irrational points alike.
"undetermined" is left only where no exact rule applies (a
semi-hyperbolic point whose reduction is unavailable or degenerate).
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, replace
from functools import cmp_to_key, lru_cache
from fractions import Fraction
from sys import float_info
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from pdisc.errors import InputError, InternalInvariantError, PositiveDimensionalError
from pdisc.exactalg import (
    AlgebraicCoord,
    AlgebraicPoint,
    MPoly,
    Rur,
    UPoly,
    isolate_real_roots,
    resultant_wrt,
    squarefree_roots,
)
from pdisc.exactalg.algebraic import Enclosure
from pdisc.exactalg.roots import holds_root
from pdisc.exactalg.matrix import subresultant
from pdisc.modelio import PlanarSystem

# classification labels
STABLE_NODE = "stable node"
UNSTABLE_NODE = "unstable node"
SADDLE = "saddle"
STABLE_FOCUS = "stable focus"
UNSTABLE_FOCUS = "unstable focus"
CENTER_CANDIDATE = "center-candidate"
SADDLE_NODE = "saddle-node"
DEGENERATE = "degenerate-needs-blowup"
UNDETERMINED = "undetermined"

_REFINE_CAP = 128


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class SemiHyperbolicReduction:
    """Quadratic reduction at a semi-hyperbolic equilibrium."""

    a2: Fraction
    nonzero_eigenvalue: Fraction
    center_vector: Tuple[Fraction, Fraction]
    hyperbolic_vector: Tuple[Fraction, Fraction]  # eigenvector of nonzero_eigenvalue

    @property
    def stability(self) -> str:
        """Along the hyperbolic direction: "attractor" or "repeller"."""
        return "attractor" if self.nonzero_eigenvalue < 0 else "repeller"


@dataclass(frozen=True)
class EquilibriumRecord:
    point: AlgebraicPoint
    # exact at a rational point; None at an irrational one, where
    # jacobian_at reads it on demand at the midpoint of the refined point
    jacobian: Optional[Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]]
    trace: Optional[Fraction]
    det: Optional[Fraction]
    disc: Optional[Fraction]
    eigenvalues: Optional[Tuple[Fraction, Fraction]]
    classification: str
    label: Optional[str] = None
    reduction: Optional[SemiHyperbolicReduction] = None

    def time_reversed(self) -> "EquilibriumRecord":
        """The record of the same point for the field times -1: the
        Jacobian, the trace and the eigenvalues change sign, nodes and
        foci swap stability, and a saddle-node's a2 and nonzero
        eigenvalue change sign with its side; the determinant, the
        discriminant and the eigenvectors stay."""
        red = self.reduction
        if red is not None:
            red = replace(red, a2=-red.a2, nonzero_eigenvalue=-red.nonzero_eigenvalue)
        return replace(
            self,
            jacobian=None if self.jacobian is None else tuple(tuple(-v for v in row) for row in self.jacobian),
            trace=None if self.trace is None else -self.trace,
            eigenvalues=None if self.eigenvalues is None else (-self.eigenvalues[1], -self.eigenvalues[0]),
            classification=_REVERSED.get(self.classification, self.classification),
            reduction=red,
        )


_REVERSED = {
    STABLE_NODE: UNSTABLE_NODE,
    UNSTABLE_NODE: STABLE_NODE,
    STABLE_FOCUS: UNSTABLE_FOCUS,
    UNSTABLE_FOCUS: STABLE_FOCUS,
}


# ---------------------------------------------------------------------------
# equilibrium location


def finite_equilibria(sys: PlanarSystem) -> List[EquilibriumRecord]:
    """All real solutions of P = Q = 0, classified and sorted
    lexicographically by coordinates.

    P and Q are located after division by their common factors in one
    variable (`_without_line_factors`), so Res_y(P, Q) vanishes only for
    a common factor of positive degree in both; they are classified as
    given.

    Raises PositiveDimensionalError when the solution set contains a
    curve: a vanishing right-hand side, a vertical or horizontal line (a
    one-variable common factor with a real root), or any other common
    factor of P and Q.
    """
    p, q = sys.P, sys.Q
    if p.is_zero and q.is_zero:
        raise InputError("both right-hand sides vanish identically")
    if p.is_zero or q.is_zero:
        raise PositiveDimensionalError(
            "one right-hand side vanishes identically; equilibria form curves"
        )
    p, q = _without_line_factors(p, q)
    rx = resultant_wrt(p, q, "y")
    if rx.is_zero:
        raise PositiveDimensionalError(
            "P and Q share a common factor: a curve of equilibria"
        )
    records = [classify_point(sys, pt) for pt in _eliminate(p, q, rx)]
    records.sort(key=cmp_to_key(lambda a, b: a.point.compare(b.point)))
    if any(a.point.compare(b.point) == 0 for a, b in zip(records, records[1:])):
        raise InternalInvariantError("duplicate equilibrium records")
    return records


def in_positive_quadrant(rec: EquilibriumRecord) -> bool:
    """Whether the exact point lies in the closed quadrant x, y >= 0."""
    return rec.point.x.sign() >= 0 and rec.point.y.sign() >= 0


def _without_line_factors(p: MPoly, q: MPoly) -> Tuple[MPoly, MPoly]:
    """P and Q divided by their common factor in x alone, then by their
    common factor in y alone.  Neither may have a real root, which would
    be a vertical or horizontal line of equilibria."""
    for var, other, axis, coord in (("x", "y", "vertical", "abscissa"), ("y", "x", "horizontal", "ordinate")):
        d = UPoly.zero()
        for c in p.coeffs_in(other) + q.coeffs_in(other):
            d = d.gcd(UPoly.from_mpoly(c, var))
            if d.degree == 0:
                break
        else:
            roots = isolate_real_roots(d)
            rational = [rt.exact for rt in roots if rt.exact is not None]
            if rational:
                raise PositiveDimensionalError(
                    f"the {axis} line {var} = {rational[0]} consists of equilibria"
                )
            if roots:
                raise PositiveDimensionalError(
                    f"a {axis} line of equilibria at an irrational {coord}"
                )
            factor = MPoly.from_int_terms(
                (((i, 0) if var == "x" else (0, i), c) for i, c in enumerate(d.int_coeffs())), d.content
            )
            p_, q_ = p.exact_div(factor), q.exact_div(factor)
            assert p_ is not None and q_ is not None
            p, q = p_, q_
    return p, q


def _eliminate(p: MPoly, q: MPoly, rx: MPoly) -> List[AlgebraicPoint]:
    """Solutions above the real roots of the nonzero eliminant rx = Res_y(P, Q)
    of P and Q without common factors in one variable.

    _lift takes the irrational roots, in the coordinates (x + t*y, y) for
    t = 0 and then for the shears t = 1, -1, 2, -2, ... until one lifts them.
    A shear fails only if the top-degree part of P or Q vanishes at (-t, 1)
    or two of the at most deg P * deg Q complex solutions share x + t*y, and
    each of these rules out finitely many t, so the bound below is never met."""
    if rx.is_constant:
        return []
    xroots = squarefree_roots(UPoly.from_mpoly(rx, "x"))[1]
    out = [pt for rt in xroots if rt.exact is not None for pt in _fiber_exact_x(p, q, rt.exact)]
    pending = [rt for rt in xroots if rt.exact is None]
    if not pending:
        return out
    # every ordinate is a root of Res_x(P, Q), which lies in the ideal (P, Q)
    yroots = squarefree_roots(UPoly.from_mpoly(resultant_wrt(p, q, "x"), "y"))[1]
    dp, dq = p.degree, q.degree
    for k in range(dp + dq + dp * dq * (dp * dq - 1) // 2 + 2):
        t = (k + 1) // 2 * (-1) ** (k + 1)
        found = _lift(p, q, t, xroots, yroots, pending)
        if found is not None:
            return out + found
    raise InternalInvariantError("no shear lifts the equilibria above an irrational abscissa")


def _fiber_exact_x(p: MPoly, q: MPoly, x0: Fraction) -> List[AlgebraicPoint]:
    g = UPoly.from_mpoly(p.subst_x(x0), "y").gcd(UPoly.from_mpoly(q.subst_x(x0), "y"))
    if g.is_zero:
        # unreachable: x - x0 would divide P and Q; unsheared it is a factor
        # in x alone, stripped before elimination, and sheared it is
        # x + t*y - x0, a common factor that makes Res_y(P, Q) vanish
        raise InternalInvariantError(f"P and Q vanish on the whole fiber above {x0}")
    if g.degree < 1:
        return []
    xc = AlgebraicCoord.of(x0)
    g, roots = squarefree_roots(g)
    rur = Rur(g, UPoly.const(x0), UPoly.variable(), UPoly.const(1))
    return [AlgebraicPoint(xc, rt, (rur, rt)) for rt in roots]


def _lift(
    p: MPoly,
    q: MPoly,
    t: int,
    xroots: List[AlgebraicCoord],
    yroots: List[AlgebraicCoord],
    pending: List[AlgebraicCoord],
) -> Optional[List[AlgebraicPoint]]:
    """Points above the roots `pending` of the x-eliminant, whose roots
    are `xroots`, found in the coordinates u = x + t*y; None if some
    u-root cannot be lifted.

    With t = 0 the u-roots are the pending roots; with t != 0, all real
    roots of the sheared Res_y, so every real solution is lifted and
    pending roots it misses carry none.  Above an irrational u-root a
    where neither y-leading coefficient vanishes, gcd(P(a, y), Q(a, y)) is
    the subresultant Sj(a, y) of the first j with Sjj(a) != 0; if it is a
    power of a linear factor, the fiber holds the one point
    y = -Sj,j-1(a) / (j*Sjj(a)), which with x = a - t*y is the point's
    Rur.  Zero tests at a are a gcd with the u-eliminant and a sign
    change.  Each point is certified by locating y among `yroots`, the
    roots of the y-eliminant, and x = u - t*y among `xroots`.
    """
    base, roots = pending[0].poly, pending  # the square-free x-eliminant
    if t:
        shear = (MPoly.var_x() - MPoly.const(t) * MPoly.var_y(), MPoly.var_y())
        p, q = p.subst(*shear), q.subst(*shear)
        base, roots = squarefree_roots(UPoly.from_mpoly(resultant_wrt(p, q, "y"), "x"))
    # the memos live for this call only
    sres = lru_cache(None)(lambda j: subresultant(p, q, "y", j))
    common = lru_cache(None)(lambda c: base.gcd(UPoly.from_mpoly(c, "x")))

    @lru_cache(None)
    def rur(j: int) -> Rur:
        c = sres(j)
        y, d = -UPoly.from_mpoly(c[j - 1], "x"), UPoly.from_mpoly(c[j], "x") * j
        return Rur(base, UPoly.variable() * d - y * t, y, d)

    def vanishes(c: MPoly, rt: AlgebraicCoord) -> bool:
        return holds_root(common(c), rt.lo, rt.hi)

    def fiber_gcd(rt: AlgebraicCoord) -> Optional[List[MPoly]]:
        # a side without y is its own leading coefficient, zero at every root
        if any(vanishes(f.coeffs_in("y")[-1], rt) for f in (p, q)):
            return None
        j = 1  # the loop ends by the smaller degree, where Sjj is a leading coefficient
        while vanishes(sres(j)[j], rt):
            j += 1
        c = sres(j)
        # Sj = Sjj*(y - y0)^j iff j^(j-k) Sjj^(j-1-k) Sjk = C(j, k) Sj,j-1^(j-k), k < j - 1
        for k in range(j - 1):
            if not vanishes(c[k] * c[j] ** (j - 1 - k) * j ** (j - k) - c[j - 1] ** (j - k) * math.comb(j, k), rt):
                return None
        return c

    out: List[AlgebraicPoint] = []
    for rt in roots:
        if rt.exact is not None:
            # only with t != 0: the fiber above a rational u is an exact gcd
            fiber = _fiber_exact_x(p, q, rt.exact)
            # the points of one fiber share one Rur, so unshear it once
            back = fiber[0].rur[0].unsheared(t) if fiber else None
            lifts = [(back, pt.rur[1]) for pt in fiber]
        else:
            c = fiber_gcd(rt)
            if c is None:
                return None
            lifts = [(rur(len(c) - 1), rt)]
        for at in lifts:
            # one refinement sequence serves both locations, y first
            boxes = at[0].quotient_boxes(at[1])
            yroot = _locate(yroots, boxes, 1)
            xroot = _locate(xroots, boxes, 0)
            if xroot in pending:
                out.append(AlgebraicPoint(xroot, yroot, at))
    return out


def _locate(
    roots: List[AlgebraicCoord], boxes: Iterator[Optional[Tuple[Enclosure, Enclosure]]], k: int
) -> AlgebraicCoord:
    """The one of `roots`, known to hold coordinate k of the enclosed
    point, whose isolating interval alone meets that side of a box of the
    sequence."""
    for _, point_box in zip(range(_REFINE_CAP), boxes):
        if point_box is None:
            continue
        lo, hi = point_box[k]
        hits = [rt for rt in roots if rt.lo <= hi and lo <= rt.hi]
        if len(hits) == 1:
            return hits[0]
        if not hits:
            break
    raise InternalInvariantError("an enclosure did not single out a root of an eliminant")


# ---------------------------------------------------------------------------
# jacobian and classification


def jacobian_at(
    sys: PlanarSystem, p: AlgebraicPoint
) -> Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]:
    """Partial derivatives at the point, exact, read from the 2-jets of P
    and Q: an exact coordinate is read as it is, and an irrational one at
    the midpoint of its interval (width 2^-60 as classify_point refines
    it)."""
    x0, y0 = (c.exact if c.exact is not None else sum(c.interval()) / 2 for c in (p.x, p.y))
    return tuple((g[1], g[2]) for g in (sys.P.jet2(x0, y0), sys.Q.jet2(x0, y0)))  # type: ignore[return-value]


def _sqrt_fraction(v: Fraction) -> Optional[Fraction]:
    if v < 0:
        return None
    n, d = v.numerator, v.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def classify_point(sys: PlanarSystem, pt: AlgebraicPoint) -> EquilibriumRecord:
    """Build the full equilibrium record at a solution of P = Q = 0.

    `_table` classifies every point from the signs of det, trace and
    discriminant, except a rational one with det = 0 != tr whose
    semi-hyperbolic reduction has a2 != 0, a saddle-node.  At a rational
    point the 2-jets of P and Q (`MPoly.jet2`) give their values, the
    Jacobian and the a2 of the reduction.  At an irrational point both
    coordinates are refined to width 2^-60 first.  P and Q are read from
    the point's RUR, which decides their zeros; det, trace and
    discriminant with `AlgebraicPoint.sign`, from the enclosure over that
    box when it excludes 0, else from the RUR."""
    if pt.is_exact:
        x0, y0 = pt.exact_pair()
        jets = sys.P.jet2(x0, y0), sys.Q.jet2(x0, y0)
        if jets[0][0] or jets[1][0]:
            raise InputError(f"({x0}, {y0}) is not an equilibrium")
        jac = tuple((g[1], g[2]) for g in jets)
        (a, b), (c, d) = jac
        tr = a + d
        det = a * d - b * c
        disc = tr * tr - 4 * det
        rt = _sqrt_fraction(disc)
        eigs = None if rt is None else ((tr - rt) / 2, (tr + rt) / 2)
        red = _semi_hyperbolic(jac, tr, [g[3:] for g in jets]) if det == 0 and tr != 0 else None
        cls = SADDLE_NODE if red is not None and red.a2 != 0 else _table(det, tr, disc)
        return EquilibriumRecord(pt, jac, tr, det, disc, eigs, cls, reduction=red)

    if pt.rur is None:
        raise InputError("a point with an irrational coordinate needs its parametrization")
    # the stored point is refined for text(), approx() and jacobian_at
    pt = pt.refined(Fraction(1, 2**60))
    # P and Q are 0 at an equilibrium, where no box excludes 0
    rur, a = pt.rur
    if rur.sign(sys.P, a) or rur.sign(sys.Q, a):
        raise InputError("the point is not an equilibrium")
    s_det, s_tr = pt.sign(sys.det), pt.sign(sys.trace)
    # the discriminant tells a node from a focus, and only then is it read
    s_disc = pt.sign(sys.discriminant) if s_det > 0 and s_tr else 0
    return EquilibriumRecord(pt, None, None, None, None, None, _table(s_det, s_tr, s_disc))


def _table(det: Fraction, tr: Fraction, disc: Fraction) -> str:
    """The class read from the signs of det, trace and discriminant; each
    argument is the exact value or its sign."""
    if det < 0:
        return SADDLE
    if det > 0:
        if tr == 0:
            return CENTER_CANDIDATE
        if disc >= 0:
            return STABLE_NODE if tr < 0 else UNSTABLE_NODE
        return STABLE_FOCUS if tr < 0 else UNSTABLE_FOCUS
    # det == 0 != tr here is an irrational point, which has no reduction,
    # or a rational one whose a2 is 0
    return DEGENERATE if tr == 0 else UNDETERMINED


def _kernel_vector(
    a: Fraction, b: Fraction, c: Fraction, d: Fraction
) -> Tuple[Fraction, Fraction]:
    """Kernel vector of the singular nonzero matrix [[a, b], [c, d]],
    scaled so its first nonzero component is 1 (fixes the reported a2
    scale)."""
    v = (b, -a) if a != 0 or b != 0 else (d, -c)
    lead = v[0] if v[0] != 0 else v[1]
    return (v[0] / lead, v[1] / lead)


def _semi_hyperbolic(jac, lam: Fraction, halves) -> SemiHyperbolicReduction:
    """Quadratic coefficient of the flow along the center direction;
    `halves` holds (f_xx/2, f_xy, f_yy/2) of P and of Q at the point, the
    second half of their 2-jets.

    Translate to the equilibrium and send the (center, hyperbolic)
    eigenvectors v0, vl to the axes: (x, y) = (x0, y0) + T (u, w) with
    T = [v0 | vl], so u' = r0 . (P, Q) for r0 = (vl[1], -vl[0]) / det T
    the first row of T^-1.  Its linear part r0 J T vanishes because
    J v0 = 0 and J vl = lam vl, and its u^2 coefficient a2 is the t^2
    coefficient of r0 . (P, Q) at (x0, y0) + t v0, which is
    r0 . (v0^T H_P v0 / 2, v0^T H_Q v0 / 2) for the Hessians H_P, H_Q.
    The center manifold deviates from the axis at quadratic order, which
    perturbs u' only at cubic order, so a2 is exactly the quadratic
    Taylor coefficient.
    """
    (a, b), (c, d) = jac
    v0 = _kernel_vector(a, b, c, d)
    vl = _kernel_vector(a - lam, b, c, d - lam)
    det_t = v0[0] * vl[1] - v0[1] * vl[0]
    if det_t == 0:
        raise InternalInvariantError("eigenvector matrix is singular")
    j_v0 = (a * v0[0] + b * v0[1], c * v0[0] + d * v0[1])
    j_vl = (a * vl[0] + b * vl[1], c * vl[0] + d * vl[1])
    if j_v0 != (0, 0) or j_vl != (lam * vl[0], lam * vl[1]):
        raise InternalInvariantError("center direction carries a linear term")

    p2, q2 = (h[0] * v0[0] ** 2 + h[1] * v0[0] * v0[1] + h[2] * v0[1] ** 2 for h in halves)
    a2 = (p2 * vl[1] - q2 * vl[0]) / det_t
    return SemiHyperbolicReduction(a2=a2, nonzero_eigenvalue=lam, center_vector=v0, hyperbolic_vector=vl)


# ---------------------------------------------------------------------------
# Leslie-Gower labels and reporting


def leslie_labels(
    records: Sequence[EquilibriumRecord], A: Fraction, B: Fraction, C: Fraction
) -> List[EquilibriumRecord]:
    """Tag records with the standard names: E0 = (0,0), E1 = (0,C),
    E2 = (1,0), Estar = interior point; the Estar formula collapsing
    onto (0,C) keeps the E1 tag."""
    star = (Fraction(1 - A * C, 1 + A), Fraction(1 + C, 1 + A))
    named: Dict[Tuple[Fraction, Fraction], str] = {
        (Fraction(0), Fraction(0)): "E0",
        (Fraction(0), C): "E1",
        (Fraction(1), Fraction(0)): "E2",
    }
    out: List[EquilibriumRecord] = []
    for rec in records:
        label = "other"
        if rec.point.is_exact:
            pair = rec.point.exact_pair()
            if pair in named:
                label = named[pair]
            elif pair == star:
                label = "Estar"
        out.append(replace(rec, label=label))
    return out


def equilibrium_fragment(rec: EquilibriumRecord) -> Dict:
    """JSON-ready summary of one equilibrium."""
    doc: Dict = {
        "x": rec.point.x.text(),
        "y": rec.point.y.text(),
        "classification": rec.classification,
    }
    if rec.label is not None:
        doc["label"] = rec.label
    if rec.trace is not None:
        doc["trace"] = str(rec.trace)
    if rec.det is not None:
        doc["det"] = str(rec.det)
    if rec.disc is not None:
        doc["discriminant"] = str(rec.disc)
    if rec.eigenvalues is not None:
        doc["eigenvalues"] = [str(e) for e in rec.eigenvalues]
    elif rec.disc is not None and rec.trace is not None:
        doc["eigenvalues_approx"] = _eig_approx(rec.trace, rec.disc)
    if rec.reduction is not None:
        doc["saddle_node_a2"] = str(rec.reduction.a2)
        doc["saddle_node_side"] = rec.reduction.stability
    return doc


# six significant digits with no exponent bound, for `_g6`
_WIDE = decimal.Context(prec=6, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _eig_approx(tr: Fraction, disc: Fraction) -> List[str]:
    try:
        t = float(tr)
        d = float(disc)
    except OverflowError:
        return _eig_approx_wide(tr, disc)
    if d >= 0:
        r = math.sqrt(d)
        return [f"{(t - r) / 2:.6g}", f"{(t + r) / 2:.6g}"]
    r = math.sqrt(-d)
    return [f"{t / 2:.6g}+{r / 2:.6g}i", f"{t / 2:.6g}-{r / 2:.6g}i"]


def _eig_approx_wide(tr: Fraction, disc: Fraction) -> List[str]:
    """`_eig_approx` past the float range, over the rationals: sqrt|disc|
    to 128 bits, the real eigenvalue of larger magnitude as
    (tr + sign(tr) sqrt(disc)) / 2, which cancels nothing, and the other
    as det / it, det = (tr^2 - disc) / 4."""
    r = Fraction(math.isqrt(abs(disc.numerator) * disc.denominator << 256), disc.denominator << 128)
    if disc < 0:
        return [f"{_g6(tr / 2)}{sign}{_g6(r / 2)}i" for sign in "+-"]
    big = (tr + r if tr >= 0 else tr - r) / 2
    return [_g6(v) for v in sorted(((tr * tr - disc) / 4 / big, big))]


def _g6(v: Fraction) -> str:
    """v under '.6g' in binary64; outside the normal float range, the
    same six digits under '.5e' in decimal."""
    try:
        f = float(v)
        if not v or abs(f) >= float_info.min:
            return f"{f:.6g}"
    except OverflowError:
        pass
    return format(_WIDE.divide(decimal.Decimal(v.numerator), v.denominator), ".5e")
