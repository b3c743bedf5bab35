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
`pdisc.exactalg.algebraic`.  Every sign at an irrational point, of the
residuals and of the Jacobian's determinant, trace and discriminant, is
decided exactly from its rational univariate representation (RUR), which
the lifting above produces.  "undetermined" is left only where no exact
rule applies (a semi-hyperbolic point whose reduction is unavailable or
degenerate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cmp_to_key, lru_cache
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from pdisc.errors import InputError, InternalInvariantError, PositiveDimensionalError
from pdisc.exactalg import (
    AlgebraicCoord,
    AlgebraicPoint,
    Interval,
    MPoly,
    RootInterval,
    Rur,
    UPoly,
    eval_box,
    isolate_real_roots,
    resultant_wrt,
)
from pdisc.exactalg.algebraic import holds_root
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


JacEntry = Union[Fraction, Interval]


@dataclass(frozen=True)
class SemiHyperbolicReduction:
    """Quadratic reduction at a semi-hyperbolic equilibrium."""

    a2: Fraction
    nonzero_eigenvalue: Fraction
    center_vector: Tuple[Fraction, Fraction]
    stability: str  # "attractor" or "repeller" along the hyperbolic direction
    hyperbolic_vector: Tuple[Fraction, Fraction]  # eigenvector of nonzero_eigenvalue


@dataclass(frozen=True)
class EquilibriumRecord:
    point: AlgebraicPoint
    # exact at a rational point; None at an irrational one, where
    # jacobian_at encloses it on demand from the refined point
    jacobian: Optional[Tuple[Tuple[JacEntry, JacEntry], Tuple[JacEntry, JacEntry]]]
    trace: Optional[Fraction]
    det: Optional[Fraction]
    disc: Optional[Fraction]
    eigenvalues: Optional[Tuple[Fraction, Fraction]]
    classification: str
    label: Optional[str] = None
    reduction: Optional[SemiHyperbolicReduction] = None

    def with_label(self, label: Optional[str]) -> "EquilibriumRecord":
        return replace(self, label=label)


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
            factor = MPoly({(i, 0) if var == "x" else (0, i): c for i, c in enumerate(d.coeffs)})
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
    ux = UPoly.from_mpoly(rx, "x")
    xroots = isolate_real_roots(ux)
    out = [pt for rt in xroots if rt.exact is not None for pt in _fiber_exact_x(p, q, rt.exact)]
    pending = [rt for rt in xroots if rt.exact is None]
    if not pending:
        return out
    # every ordinate is a root of Res_x(P, Q), which lies in the ideal (P, Q)
    r = UPoly.from_mpoly(resultant_wrt(p, q, "x"), "y").squarefree_part()
    x_elim = (ux.squarefree_part(), xroots)
    y_elim = (r, isolate_real_roots(r))
    dp, dq = int(p.degree), int(q.degree)
    for k in range(dp + dq + dp * dq * (dp * dq - 1) // 2 + 2):
        t = (k + 1) // 2 * (-1) ** (k + 1)
        found = _lift(p, q, t, x_elim, y_elim, pending)
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
    g = g.squarefree_part()
    rur = Rur(g, UPoly.const(x0), UPoly.variable(), UPoly.const(1))
    return [
        AlgebraicPoint(xc, AlgebraicCoord.from_root(g, rt), (rur, rt))
        for rt in isolate_real_roots(g)
    ]


_Eliminant = Tuple[UPoly, List[RootInterval]]


def _lift(
    p: MPoly,
    q: MPoly,
    t: int,
    x_elim: _Eliminant,
    y_elim: _Eliminant,
    pending: List[RootInterval],
) -> Optional[List[AlgebraicPoint]]:
    """Points above the roots `pending` of x_elim, found in the coordinates
    u = x + t*y; None if some u-root cannot be lifted.

    With t = 0 the u-roots are the pending roots; with t != 0, all real
    roots of the sheared Res_y, so every real solution is lifted and
    pending roots it misses carry none.  Above an irrational u-root a
    where neither y-leading coefficient vanishes, gcd(P(a, y), Q(a, y)) is
    the subresultant Sj(a, y) of the first j with Sjj(a) != 0; if it is a
    power of a linear factor, the fiber holds the one point
    y = -Sj,j-1(a) / (j*Sjj(a)), which with x = a - t*y is the point's
    Rur.  Zero tests at a are a gcd with the u-eliminant and a sign
    change.  Each point is certified by locating y among the roots of
    y_elim and x = u - t*y among those of x_elim.
    """
    s, xroots = x_elim
    r, yroots = y_elim
    base, roots = s, pending
    if t:
        shear = (MPoly.var_x() - MPoly.const(t) * MPoly.var_y(), MPoly.var_y())
        p, q = p.subst(*shear), q.subst(*shear)
        base = UPoly.from_mpoly(resultant_wrt(p, q, "y"), "x").squarefree_part()
        roots = isolate_real_roots(base)
    # the memos live for this call only
    sres = lru_cache(None)(lambda j: subresultant(p, q, "y", j))
    common = lru_cache(None)(lambda c: base.gcd(UPoly.from_mpoly(c, "x")))

    @lru_cache(None)
    def rur(j: int) -> Rur:
        c = sres(j)
        y, d = -UPoly.from_mpoly(c[j - 1], "x"), UPoly.from_mpoly(c[j], "x") * j
        return Rur(base, UPoly.variable() * d - y * t, y, d)

    def vanishes(c: MPoly, rt: RootInterval) -> bool:
        return holds_root(common(c), rt.lo, rt.hi)

    def fiber_gcd(rt: RootInterval) -> Optional[List[MPoly]]:
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
                x_, y_ = AlgebraicCoord(poly=s, root=xroot), AlgebraicCoord(poly=r, root=yroot)
                out.append(AlgebraicPoint(x_, y_, at))
    return out


def _locate(
    roots: List[RootInterval], boxes: Iterator[Optional[Tuple[Interval, Interval]]], k: int
) -> RootInterval:
    """The one of `roots`, known to hold coordinate k of the enclosed
    point, whose isolating interval alone meets that side of a box of the
    sequence."""
    for _, point_box in zip(range(_REFINE_CAP), boxes):
        if point_box is None:
            continue
        box = point_box[k]
        hits = [rt for rt in roots if rt.lo <= box.hi and box.lo <= rt.hi]
        if len(hits) == 1:
            return hits[0]
        if not hits:
            break
    raise InternalInvariantError("an enclosure did not single out a root of an eliminant")


# ---------------------------------------------------------------------------
# jacobian and classification


def jacobian_at(
    sys: PlanarSystem, p: AlgebraicPoint
) -> Tuple[Tuple[JacEntry, JacEntry], Tuple[JacEntry, JacEntry]]:
    """Partial derivatives at the point; exact for rational points,
    interval enclosures otherwise."""
    parts = sys.jacobian
    if p.is_exact:
        x0, y0 = p.exact_pair()
        return tuple(
            tuple(f.eval_rat(x0, y0) for f in row) for row in parts
        )  # type: ignore[return-value]
    bx, by = p.box()
    return tuple(
        tuple(eval_box(f, bx, by) for f in row) for row in parts
    )  # type: ignore[return-value]


def _sqrt_fraction(v: Fraction) -> Optional[Fraction]:
    if v < 0:
        return None
    n, d = v.numerator, v.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def classify_point(
    sys: PlanarSystem, pt: AlgebraicPoint, label: Optional[str] = None
) -> EquilibriumRecord:
    """Build the full equilibrium record at a solution of P = Q = 0."""
    if pt.is_exact:
        x0, y0 = pt.exact_pair()
        if sys.P.eval_rat(x0, y0) != 0 or sys.Q.eval_rat(x0, y0) != 0:
            raise InputError(f"({x0}, {y0}) is not an equilibrium")
        jac = jacobian_at(sys, pt)
        a, b = jac[0]
        c, d = jac[1]
        assert isinstance(a, Fraction)
        tr = a + d
        det = a * d - b * c
        disc = tr * tr - 4 * det
        cls, eigs, red = _classify_exact(sys, pt, jac, tr, det, disc)
        return EquilibriumRecord(pt, jac, tr, det, disc, eigs, cls, label, red)

    if pt.rur is None:
        raise InputError("a point with two irrational coordinates needs its parametrization")
    # the stored point is refined for text(), approx() and the interval Jacobian
    pt = pt.refined(Fraction(1, 2**60))
    rur, a = pt.rur
    if rur.sign(sys.P, a) or rur.sign(sys.Q, a):
        raise InputError("the point is not an equilibrium")
    s_det, s_tr = rur.sign(sys.det, a), rur.sign(sys.trace, a)
    # the discriminant tells a node from a focus, and only then is it read
    s_disc = rur.sign(sys.discriminant, a) if s_det > 0 and s_tr else 0
    return EquilibriumRecord(pt, None, None, None, None, None, _table(s_det, s_tr, s_disc), label)


def _table(s_det: int, s_tr: int, s_disc: int) -> str:
    if s_det < 0:
        return SADDLE
    if s_det > 0:
        if s_tr == 0:
            return CENTER_CANDIDATE
        if s_disc >= 0:
            return STABLE_NODE if s_tr < 0 else UNSTABLE_NODE
        return STABLE_FOCUS if s_tr < 0 else UNSTABLE_FOCUS
    # det == 0: with tr != 0 only an exact point has the semi-hyperbolic reduction
    return DEGENERATE if s_tr == 0 else UNDETERMINED


def _classify_exact(
    sys: PlanarSystem,
    pt: AlgebraicPoint,
    jac,
    tr: Fraction,
    det: Fraction,
    disc: Fraction,
) -> Tuple[str, Optional[Tuple[Fraction, Fraction]], Optional[SemiHyperbolicReduction]]:
    s_det = (det > 0) - (det < 0)
    s_tr = (tr > 0) - (tr < 0)
    s_disc = (disc > 0) - (disc < 0)

    eigs: Optional[Tuple[Fraction, Fraction]] = None
    rt = _sqrt_fraction(disc)
    if rt is not None:
        eigs = ((tr - rt) / 2, (tr + rt) / 2)

    if det == 0 and tr != 0:
        red = _semi_hyperbolic(sys, pt, jac, tr)
        if red is None or red.a2 == 0:
            cls = UNDETERMINED
        else:
            cls = SADDLE_NODE
        return cls, eigs, red

    cls = _table(s_det, s_tr, s_disc)
    return cls, eigs, None


def _kernel_vector(
    a: Fraction, b: Fraction, c: Fraction, d: Fraction
) -> Tuple[Fraction, Fraction]:
    """Kernel vector of the singular matrix [[a, b], [c, d]], scaled so
    its first nonzero component is 1 (fixes the reported a2 scale)."""
    if a != 0 or b != 0:
        v = (b, -a)
    elif c != 0 or d != 0:
        v = (d, -c)
    else:
        return (Fraction(1), Fraction(0))
    lead = v[0] if v[0] != 0 else v[1]
    return (v[0] / lead, v[1] / lead)


def _semi_hyperbolic(
    sys: PlanarSystem, pt: AlgebraicPoint, jac, lam: Fraction
) -> Optional[SemiHyperbolicReduction]:
    """Quadratic coefficient of the flow along the center direction.

    Translate to the equilibrium and send the (center, hyperbolic)
    eigenvectors v0, vl to the axes: (x, y) = pt + T (u, w) with
    T = [v0 | vl], so u' = r0 . (P, Q) for r0 the first row of T^-1.  Its
    linear part r0 J T vanishes because J v0 = 0 and J vl = lam vl, and
    its u^2 coefficient is a2 = r0 . (v0' H_P v0, v0' H_Q v0) / 2, with
    H_P, H_Q the Hessians at the point.  The center manifold deviates
    from the axis at quadratic order, which perturbs u' only at cubic
    order, so a2 is exactly the quadratic Taylor coefficient.
    """
    if not pt.is_exact:
        return None
    x0, y0 = pt.exact_pair()
    a, b = jac[0]
    c, d = jac[1]

    v0 = _kernel_vector(a, b, c, d)
    vl = _kernel_vector(a - lam, b, c, d - lam)
    det_t = v0[0] * vl[1] - v0[1] * vl[0]
    if det_t == 0:
        raise InternalInvariantError("eigenvector matrix is singular")
    j_v0 = (a * v0[0] + b * v0[1], c * v0[0] + d * v0[1])
    j_vl = (a * vl[0] + b * vl[1], c * vl[0] + d * vl[1])
    if j_v0 != (0, 0) or j_vl != (lam * vl[0], lam * vl[1]):
        raise InternalInvariantError("center direction carries a linear term")

    a2 = (vl[1] * _half_hessian(sys.P, x0, y0, v0) - vl[0] * _half_hessian(sys.Q, x0, y0, v0)) / det_t
    stability = "attractor" if lam < 0 else "repeller"
    return SemiHyperbolicReduction(
        a2=a2,
        nonzero_eigenvalue=lam,
        center_vector=v0,
        stability=stability,
        hyperbolic_vector=vl,
    )


def _half_hessian(f: MPoly, x0: Fraction, y0: Fraction, v: Tuple[Fraction, Fraction]) -> Fraction:
    """v' H_f v / 2 at (x0, y0): the t^2 coefficient of f((x0, y0) + t v).

    Over the integers: with x0 + t*v[0] = (a + t*b)/m, y0 + t*v[1] =
    (c + t*e)/n and f = content * sum k x^i y^j, it is the t^2 coefficient
    of sum k (a + t*b)^i m^(dx-i) (c + t*e)^j n^(dy-j), times
    content / (m^dx n^dy)."""
    if f.is_zero:
        return Fraction(0)
    dx, dy = int(f.degree_in("x")), int(f.degree_in("y"))
    xs, m = _scaled_powers(x0, v[0], dx)
    ys, n = _scaled_powers(y0, v[1], dy)
    total = 0
    for (i, j), k in f.int_terms():
        (x_0, x_1, x_2), (y_0, y_1, y_2) = xs[i], ys[j]
        total += k * (x_0 * y_2 + x_1 * y_1 + x_2 * y_0)
    return f.content * Fraction(total, m**dx * n**dy)


def _scaled_powers(a: Fraction, b: Fraction, d: int) -> Tuple[List[Tuple[int, int, int]], int]:
    """With a + t*b = (p + t*q)/m over the integers: the coefficients of
    1, t, t^2 in (p + t*q)^k * m^(d-k) for k = 0..d, and m."""
    m = math.lcm(a.denominator, b.denominator)
    p, q = a.numerator * (m // a.denominator), b.numerator * (m // b.denominator)
    pows = [(1, 0, 0)]
    for _ in range(d):
        c0, c1, c2 = pows[-1]
        pows.append((c0 * p, c1 * p + c0 * q, c2 * p + c1 * q))
    return [(c0 * m ** (d - k), c1 * m ** (d - k), c2 * m ** (d - k)) for k, (c0, c1, c2) in enumerate(pows)], m


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
        out.append(rec.with_label(label))
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


def _eig_approx(tr: Fraction, disc: Fraction) -> List[str]:
    t = float(tr)
    d = float(disc)
    if d >= 0:
        r = math.sqrt(d)
        return [f"{(t - r) / 2:.6g}", f"{(t + r) / 2:.6g}"]
    r = math.sqrt(-d)
    return [f"{t / 2:.6g}+{r / 2:.6g}i", f"{t / 2:.6g}-{r / 2:.6g}i"]
