"""Finite equilibria: exact location via resultant elimination and
linear classification, including the semi-hyperbolic (saddle-node)
reduction.

Coordinates are exact rationals whenever possible; irrational
coordinates are carried as a square-free defining polynomial plus an
isolating interval, refinable on demand.  Sign decisions about such
points are made exactly where a GCD/Sturm certificate applies and by
interval refinement (capped) otherwise, falling back to an explicit
"undetermined" classification rather than a guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from pdisc.errors import InputError, InternalInvariantError, PositiveDimensionalError
from pdisc.exactalg import (
    Interval,
    MPoly,
    RootInterval,
    UPoly,
    eval_box,
    isolate_real_roots,
    refine_root,
    resultant_wrt,
)
from pdisc.exactalg.roots import sturm_chain, sign_variations
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
_START_WIDTH = Fraction(1, 2**40)


# ---------------------------------------------------------------------------
# algebraic coordinates


@dataclass(frozen=True)
class AlgebraicCoord:
    """A real algebraic number: exact rational, or a square-free
    defining polynomial with an isolating interval."""

    exact: Optional[Fraction] = None
    poly: Optional[UPoly] = None
    root: Optional[RootInterval] = None

    def __post_init__(self) -> None:
        if self.exact is None:
            if self.poly is None or self.root is None:
                raise ValueError("interval coordinate needs poly and root")
            if self.root.exact is not None:
                object.__setattr__(self, "exact", self.root.exact)
        elif not isinstance(self.exact, Fraction):
            object.__setattr__(self, "exact", Fraction(self.exact))

    @staticmethod
    def of(value: Union[int, Fraction]) -> "AlgebraicCoord":
        return AlgebraicCoord(exact=Fraction(value))

    @staticmethod
    def from_root(poly: UPoly, root: RootInterval) -> "AlgebraicCoord":
        if root.exact is not None:
            return AlgebraicCoord(exact=root.exact)
        return AlgebraicCoord(poly=poly.squarefree_part(), root=root)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def interval(self) -> Interval:
        if self.exact is not None:
            return Interval.point(self.exact)
        assert self.root is not None
        return Interval(self.root.lo, self.root.hi)

    def refined(self, width: Fraction) -> "AlgebraicCoord":
        if self.exact is not None:
            return self
        assert self.poly is not None and self.root is not None
        r = refine_root(self.poly, self.root, width)
        if r.exact is not None:
            return AlgebraicCoord(exact=r.exact)
        return AlgebraicCoord(poly=self.poly, root=r)

    def approx(self) -> float:
        if self.exact is not None:
            return float(self.exact)
        c = self.refined(Fraction(1, 2**60))
        if c.exact is not None:
            return float(c.exact)
        assert c.root is not None
        return float((c.root.lo + c.root.hi) / 2)

    def sign(self) -> int:
        """Exact sign; zero only for the exact rational 0."""
        if self.exact is not None:
            v = self.exact
            return (v > 0) - (v < 0)
        assert self.poly is not None and self.root is not None
        # an irrational root is nonzero; refine until 0 leaves the interval
        r = self.root
        while r.lo <= 0 <= r.hi:
            r = refine_root(self.poly, r, (r.hi - r.lo) / 4)
            if r.exact is not None:
                v = r.exact
                return (v > 0) - (v < 0)
        return 1 if r.lo > 0 else -1

    def compare(self, other: "AlgebraicCoord") -> int:
        """Exact three-way comparison."""
        if self.exact is not None and other.exact is not None:
            return (self.exact > other.exact) - (self.exact < other.exact)
        if self.exact is not None:
            return -other._compare_to_rational(self.exact)
        if other.exact is not None:
            return self._compare_to_rational(other.exact)
        return self._compare_irrational(other)

    def _compare_to_rational(self, v: Fraction) -> int:
        assert self.poly is not None and self.root is not None
        r = self.root
        while r.lo < v < r.hi:
            if self.poly.eval(v) == 0:
                return 0  # v is the unique root isolated by r
            r = refine_root(self.poly, r, (r.hi - r.lo) / 4)
            if r.exact is not None:
                return (r.exact > v) - (r.exact < v)
        # isolating endpoints are never roots, so the root is strictly inside
        return 1 if v <= r.lo else -1

    def _compare_irrational(self, other: "AlgebraicCoord") -> int:
        assert self.poly is not None and self.root is not None
        assert other.poly is not None and other.root is not None
        a, b = self.root, other.root
        g = self.poly.gcd(other.poly)
        while True:
            if a.hi < b.lo:
                return -1
            if b.hi < a.lo:
                return 1
            lo = max(a.lo, b.lo)
            hi = min(a.hi, b.hi)
            if g.degree >= 1 and _count_roots(g, lo, hi) >= 1:
                # the overlap holds a common root; each interval isolates
                # exactly one root, so both coordinates equal it
                return 0
            a = refine_root(self.poly, a, (a.hi - a.lo) / 4)
            b = refine_root(other.poly, b, (b.hi - b.lo) / 4)
            if a.exact is not None or b.exact is not None:
                ca = AlgebraicCoord(exact=a.exact) if a.exact is not None else AlgebraicCoord(poly=self.poly, root=a)
                cb = AlgebraicCoord(exact=b.exact) if b.exact is not None else AlgebraicCoord(poly=other.poly, root=b)
                return ca.compare(cb)

    def text(self) -> str:
        if self.exact is not None:
            return str(self.exact)
        assert self.poly is not None
        return f"~{self.approx():.12g} (root of {_upoly_text(self.poly)})"


def _upoly_text(p: UPoly) -> str:
    terms = []
    for k in range(int(p.degree), -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            body = f"{mag}t" if k == 1 else f"{mag}t^{k}"
        terms.append(("- " if c < 0 else "+ ") + body)
    if not terms:
        return "0"
    head = terms[0].replace("+ ", "").replace("- ", "-")
    return " ".join([head] + terms[1:])


def _count_roots(p: UPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in (lo, hi]."""
    s = p.squarefree_part()
    chain = sturm_chain(s)
    return sign_variations(chain, lo) - sign_variations(chain, hi)


@dataclass(frozen=True)
class AlgebraicPoint:
    x: AlgebraicCoord
    y: AlgebraicCoord

    @staticmethod
    def rational(x: Union[int, Fraction], y: Union[int, Fraction]) -> "AlgebraicPoint":
        return AlgebraicPoint(AlgebraicCoord.of(x), AlgebraicCoord.of(y))

    @property
    def is_exact(self) -> bool:
        return self.x.is_exact and self.y.is_exact

    def exact_pair(self) -> Tuple[Fraction, Fraction]:
        if not self.is_exact:
            raise ValueError("point is not exact")
        assert self.x.exact is not None and self.y.exact is not None
        return self.x.exact, self.y.exact

    def box(self) -> Tuple[Interval, Interval]:
        return self.x.interval(), self.y.interval()

    def refined(self, width: Fraction) -> "AlgebraicPoint":
        return AlgebraicPoint(self.x.refined(width), self.y.refined(width))

    def approx(self) -> Tuple[float, float]:
        return self.x.approx(), self.y.approx()


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


@dataclass(frozen=True)
class EquilibriumRecord:
    point: AlgebraicPoint
    jacobian: Tuple[Tuple[JacEntry, JacEntry], Tuple[JacEntry, JacEntry]]
    trace: Optional[Fraction]
    det: Optional[Fraction]
    disc: Optional[Fraction]
    eigenvalues: Optional[Tuple[Fraction, Fraction]]
    classification: str
    label: Optional[str] = None
    reduction: Optional[SemiHyperbolicReduction] = None
    residual: Optional[Tuple[Interval, Interval]] = None

    def with_label(self, label: Optional[str]) -> "EquilibriumRecord":
        return EquilibriumRecord(
            self.point, self.jacobian, self.trace, self.det, self.disc,
            self.eigenvalues, self.classification, label, self.reduction,
            self.residual,
        )


# ---------------------------------------------------------------------------
# equilibrium location


def _upoly(p: MPoly, var: str) -> UPoly:
    return UPoly(tuple(p.univariate_coeffs(var)))


def _fiber_gcd(px: UPoly, qx: UPoly) -> Optional[UPoly]:
    """gcd treating identically-zero restrictions correctly; None when
    both vanish (a whole line of solutions)."""
    if px.is_zero and qx.is_zero:
        return None
    if px.is_zero:
        return qx
    if qx.is_zero:
        return px
    return px.gcd(qx)


def finite_equilibria(
    sys: PlanarSystem, positive_quadrant_only: bool = False
) -> List[EquilibriumRecord]:
    """All real solutions of P = Q = 0, classified and sorted
    lexicographically by coordinates.

    Raises PositiveDimensionalError when the solution set contains a
    curve (common factor of P and Q, a vanishing right-hand side, or a
    shared line in a fiber).
    """
    p, q = sys.P, sys.Q
    if p.is_zero and q.is_zero:
        raise InputError("both right-hand sides vanish identically")
    if p.is_zero or q.is_zero:
        raise PositiveDimensionalError(
            "one right-hand side vanishes identically; equilibria form curves"
        )

    if p.degree_in("y") == 0 and q.degree_in("y") == 0:
        g = _upoly(p, "x").gcd(_upoly(q, "x"))
        if g.degree >= 1 and isolate_real_roots(g):
            raise PositiveDimensionalError(
                "P and Q depend only on x and share a root: vertical lines "
                "of equilibria"
            )
        return []
    if p.degree_in("x") == 0 and q.degree_in("x") == 0:
        g = _upoly(p, "y").gcd(_upoly(q, "y"))
        if g.degree >= 1 and isolate_real_roots(g):
            raise PositiveDimensionalError(
                "P and Q depend only on y and share a root: horizontal lines "
                "of equilibria"
            )
        return []

    rx = resultant_wrt(p, q, "y")
    if rx.is_zero:
        ry = resultant_wrt(p, q, "x")
        if ry.is_zero:
            raise PositiveDimensionalError(
                "P and Q share a common factor: a curve of equilibria"
            )
        # eliminate x instead: swap the variables, so ry becomes an x-eliminant
        swap = (MPoly.var_y(), MPoly.var_x())
        swapped = PlanarSystem(P=p.subst(*swap), Q=q.subst(*swap))
        points = [
            AlgebraicPoint(pt.y, pt.x) for pt in _eliminate(swapped, ry.subst(*swap))
        ]
    else:
        points = _eliminate(sys, rx)

    records = [classify_point(sys, pt) for pt in points]
    if positive_quadrant_only:
        records = [
            r for r in records if r.point.x.sign() >= 0 and r.point.y.sign() >= 0
        ]
    records.sort(key=_record_sort_key)
    for i in range(len(records) - 1):
        a, b = records[i].point, records[i + 1].point
        if a.x.compare(b.x) == 0 and a.y.compare(b.y) == 0:
            raise InternalInvariantError("duplicate equilibrium records")
    return records


class _SortAdapter:
    __slots__ = ("coord",)

    def __init__(self, coord: AlgebraicCoord):
        self.coord = coord

    def __lt__(self, other: "_SortAdapter") -> bool:
        return self.coord.compare(other.coord) < 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortAdapter) and self.coord.compare(other.coord) == 0


def _record_sort_key(rec: EquilibriumRecord):
    return (_SortAdapter(rec.point.x), _SortAdapter(rec.point.y))


def _eliminate(sys: PlanarSystem, rx: MPoly) -> List[AlgebraicPoint]:
    """Solutions above the real roots of the nonzero eliminant rx = Res_y(P, Q)."""
    if rx.is_constant:
        return []
    ux = _upoly(rx, "x")
    fibers: Optional[_IrrationalFibers] = None
    out: List[AlgebraicPoint] = []
    for rt in isolate_real_roots(ux):
        if rt.exact is not None:
            out.extend(_fiber_exact_x(sys, rt.exact))
        else:
            if fibers is None:
                fibers = _IrrationalFibers(sys, ux.squarefree_part())
            out.extend(fibers.points(rt))
    return out


def _fiber_exact_x(sys: PlanarSystem, x0: Fraction) -> List[AlgebraicPoint]:
    py = _upoly(sys.P.subst_x(x0), "y")
    qy = _upoly(sys.Q.subst_x(x0), "y")
    g = _fiber_gcd(py, qy)
    if g is None:
        raise PositiveDimensionalError(
            f"the vertical line x = {x0} consists of equilibria"
        )
    if g.degree < 1:
        return []
    xc = AlgebraicCoord.of(x0)
    return [
        AlgebraicPoint(xc, AlgebraicCoord.from_root(g, rt))
        for rt in isolate_real_roots(g)
    ]


def _x_content_gcd(s: UPoly, f: MPoly) -> UPoly:
    """gcd of s with every x-coefficient of f: the pure-x factor shared
    by s and f (constant when there is none)."""
    g = s
    for c in f.coeffs_in("y"):
        if g.degree < 1:
            break
        if c.is_zero:
            continue
        g = g.gcd(_upoly(c, "x"))
    return g


class _IrrationalFibers:
    """Solutions above the irrational roots of one square-free x-eliminant s.

    What depends on s but not on the root -- the pure-x factors s shares
    with P and Q, the y-eliminants Res_x(s / d, f) and the real roots of
    their gcd -- is computed once, on first use, and lives only as long
    as the elimination that made it.
    """

    def __init__(self, sys: PlanarSystem, s: UPoly):
        self.sys = sys
        self.s = s
        self.shared = (_x_content_gcd(s, sys.P), _x_content_gcd(s, sys.Q))
        self._eliminants: List[Optional[UPoly]] = [None, None]
        self._y_roots: Dict[Tuple[bool, bool], Tuple[UPoly, List[RootInterval]]] = {}

    def _eliminant(self, side: int) -> UPoly:
        r = self._eliminants[side]
        if r is None:
            d = self.shared[side]
            base = self.s // d if d.degree >= 1 else self.s
            f = (self.sys.P, self.sys.Q)[side]
            res = resultant_wrt(_mpoly_from_upoly(base, "x"), f, "x")
            if res.is_zero:
                raise InternalInvariantError("stripped fiber eliminant vanished")
            r = self._eliminants[side] = _upoly(res, "y")
        return r

    def _candidates(self, on_fiber: Tuple[bool, bool]) -> Tuple[UPoly, List[RootInterval]]:
        """The y-constraint for the sides that do not vanish on the fiber,
        and its real roots."""
        hit = self._y_roots.get(on_fiber)
        if hit is None:
            # eliminant of the y-coordinate from each side that constrains
            # it; shared pure-x factors are stripped so it is nonzero
            sides = [k for k in (0, 1) if not on_fiber[k]]
            g = self._eliminant(sides[0])
            for k in sides[1:]:
                g = g.gcd(self._eliminant(k))
            hit = self._y_roots[on_fiber] = (g, isolate_real_roots(g) if g.degree >= 1 else [])
        return hit

    def points(self, xroot: RootInterval) -> List[AlgebraicPoint]:
        """Solutions above the root of s isolated by xroot."""
        sys, s = self.sys, self.s
        p_on_fiber, q_on_fiber = (
            d.degree >= 1 and _count_roots(d, xroot.lo, xroot.hi) == 1
            for d in self.shared
        )
        if p_on_fiber and q_on_fiber:
            raise PositiveDimensionalError(
                "a vertical line of equilibria at an irrational abscissa"
            )
        g, yroots = self._candidates((p_on_fiber, q_on_fiber))

        xc = AlgebraicCoord(poly=s, root=xroot)
        out: List[AlgebraicPoint] = []
        for yrt in yroots:
            yc = AlgebraicCoord.from_root(g, yrt)
            pt = AlgebraicPoint(xc, yc)
            if yc.is_exact:
                assert yc.exact is not None
                if _exact_y_on_fiber(
                    sys, s, xroot, yc.exact, not p_on_fiber, not q_on_fiber
                ):
                    out.append(pt)
            else:
                accepted = _box_pair_check(sys, pt)
                if accepted is not None:
                    out.append(accepted)
        return out


def _exact_y_on_fiber(
    sys: PlanarSystem,
    s: UPoly,
    xroot: RootInterval,
    y0: Fraction,
    need_p: bool,
    need_q: bool,
) -> bool:
    """Exact test: does the root of s inside xroot satisfy the required
    restrictions P(x, y0) = 0 and/or Q(x, y0) = 0?"""
    h = s
    for need, f in ((need_p, sys.P), (need_q, sys.Q)):
        if not need:
            continue
        sub = f.subst_y(y0)
        if sub.is_zero:
            continue  # the horizontal line y = y0 solves this side
        h = h.gcd(_upoly(sub, "x"))
        if h.degree < 1:
            return False
    return _count_roots(h, xroot.lo, xroot.hi) == 1


def _box_pair_check(
    sys: PlanarSystem, pt: AlgebraicPoint
) -> Optional[AlgebraicPoint]:
    """Interval acceptance for a both-irrational candidate pair: reject
    as soon as a residual excludes zero; accept with the residual
    certificate when ambiguity survives the refinement cap."""
    cur = pt.refined(_START_WIDTH)
    for _ in range(_REFINE_CAP):
        bx, by = cur.box()
        rp = eval_box(sys.P, bx, by)
        rq = eval_box(sys.Q, bx, by)
        if rp.sign() not in (0, None) or rq.sign() not in (0, None):
            return None
        if cur.is_exact:
            fx, fy = cur.exact_pair()
            if sys.P.eval_rat(fx, fy) == 0 and sys.Q.eval_rat(fx, fy) == 0:
                return cur
            return None
        w = bx.width + by.width
        if w < Fraction(1, 2**100):
            return cur
        cur = cur.refined(max(bx.width, by.width) / 4)
    return cur


def _mpoly_from_upoly(u: UPoly, var: str) -> MPoly:
    terms = {}
    for i, c in enumerate(u.coeffs):
        if c != 0:
            terms[(i, 0) if var == "x" else (0, i)] = c
    return MPoly(terms)


# ---------------------------------------------------------------------------
# jacobian and classification


def jacobian_at(
    sys: PlanarSystem, p: AlgebraicPoint
) -> Tuple[Tuple[JacEntry, JacEntry], Tuple[JacEntry, JacEntry]]:
    """Partial derivatives at the point; exact for rational points,
    interval enclosures otherwise."""
    parts = (
        (sys.P.diff("x"), sys.P.diff("y")),
        (sys.Q.diff("x"), sys.Q.diff("y")),
    )
    if p.is_exact:
        x0, y0 = p.exact_pair()
        return tuple(
            tuple(f.eval_rat(x0, y0) for f in row) for row in parts
        )  # type: ignore[return-value]
    bx, by = p.box()
    return tuple(
        tuple(eval_box(f, bx, by) for f in row) for row in parts
    )  # type: ignore[return-value]


def _sign_by_refinement(
    sys_poly: MPoly, pt: AlgebraicPoint
) -> Optional[int]:
    """Sign of a polynomial expression at an algebraic point: exact for
    rational points; GCD-certified zero tests when one coordinate is
    rational; otherwise interval refinement up to the cap (None when
    still ambiguous)."""
    if pt.is_exact:
        x0, y0 = pt.exact_pair()
        v = sys_poly.eval_rat(x0, y0)
        return (v > 0) - (v < 0)

    # certify an exact zero when one coordinate is rational
    if pt.y.is_exact and not pt.x.is_exact:
        assert pt.y.exact is not None and pt.x.poly is not None and pt.x.root is not None
        restr = _upoly(sys_poly.subst_y(pt.y.exact), "x")
        if restr.is_zero:
            return 0
        common = restr.gcd(pt.x.poly)
        if common.degree >= 1 and _count_roots(common, pt.x.root.lo, pt.x.root.hi) == 1:
            return 0
    if pt.x.is_exact and not pt.y.is_exact:
        assert pt.x.exact is not None and pt.y.poly is not None and pt.y.root is not None
        restr = _upoly(sys_poly.subst_x(pt.x.exact), "y")
        if restr.is_zero:
            return 0
        common = restr.gcd(pt.y.poly)
        if common.degree >= 1 and _count_roots(common, pt.y.root.lo, pt.y.root.hi) == 1:
            return 0

    cur = pt
    for _ in range(_REFINE_CAP):
        bx, by = cur.box()
        s = eval_box(sys_poly, bx, by).sign()
        if s is not None:
            return s
        cur = cur.refined(max(bx.width, by.width, Fraction(1, 2**20)) / 4)
        if cur.is_exact:
            x0, y0 = cur.exact_pair()
            v = sys_poly.eval_rat(x0, y0)
            return (v > 0) - (v < 0)
    return None


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
    jac = jacobian_at(sys, pt)
    residual: Optional[Tuple[Interval, Interval]] = None

    if pt.is_exact:
        x0, y0 = pt.exact_pair()
        if sys.P.eval_rat(x0, y0) != 0 or sys.Q.eval_rat(x0, y0) != 0:
            raise InputError(f"({x0}, {y0}) is not an equilibrium")
        a, b = jac[0]
        c, d = jac[1]
        assert isinstance(a, Fraction)
        tr = a + d
        det = a * d - b * c
        disc = tr * tr - 4 * det
        cls, eigs, red = _classify_exact(sys, pt, jac, tr, det, disc)
        return EquilibriumRecord(
            pt, jac, tr, det, disc, eigs, cls, label, red, residual
        )

    refined = pt.refined(Fraction(1, 2**60))
    bx, by = refined.box()
    residual = (eval_box(sys.P, bx, by), eval_box(sys.Q, bx, by))
    for r in residual:
        if r.sign() not in (0, None):
            raise InputError("point residual excludes zero: not an equilibrium")

    # sign table over interval data
    p_, q_ = sys.P, sys.Q
    det_poly = p_.diff("x") * q_.diff("y") - p_.diff("y") * q_.diff("x")
    tr_poly = p_.diff("x") + q_.diff("y")
    disc_poly = tr_poly * tr_poly - MPoly.const(Fraction(4)) * det_poly
    s_det = _sign_by_refinement(det_poly, refined)
    s_tr = _sign_by_refinement(tr_poly, refined)
    s_disc = _sign_by_refinement(disc_poly, refined)
    cls = _table(s_det, s_tr, s_disc, semi_ok=False)
    return EquilibriumRecord(
        refined, jacobian_at(sys, refined), None, None, None, None, cls,
        label, None, residual,
    )


def _table(
    s_det: Optional[int], s_tr: Optional[int], s_disc: Optional[int], semi_ok: bool
) -> str:
    if s_det is None or s_tr is None:
        return UNDETERMINED
    if s_det < 0:
        return SADDLE
    if s_det > 0:
        if s_tr == 0:
            return CENTER_CANDIDATE
        if s_disc is None:
            return UNDETERMINED
        if s_disc >= 0:
            return STABLE_NODE if s_tr < 0 else UNSTABLE_NODE
        return STABLE_FOCUS if s_tr < 0 else UNSTABLE_FOCUS
    # det == 0
    if s_tr == 0:
        return DEGENERATE
    return SADDLE_NODE if semi_ok else UNDETERMINED


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

    cls = _table(s_det, s_tr, s_disc, semi_ok=True)
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

    Translate to the equilibrium, send (center, hyperbolic) eigenvectors
    to the axes, and read the u^2 coefficient of u'.  The center
    manifold deviates from the axis at quadratic order, which perturbs
    u' only at cubic order, so a2 is exactly the quadratic Taylor
    coefficient.
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

    xs = MPoly.var_x()
    ys = MPoly.var_y()
    # (x, y) = (x0, y0) + T (u, w) with T = [v0 | vl]
    sub_x = MPoly.const(x0) + MPoly.const(v0[0]) * xs + MPoly.const(vl[0]) * ys
    sub_y = MPoly.const(y0) + MPoly.const(v0[1]) * xs + MPoly.const(vl[1]) * ys
    pt_trans = sys.P.subst(sub_x, sub_y)
    qt_trans = sys.Q.subst(sub_x, sub_y)
    # u' = first row of T^{-1} (P, Q)
    inv00 = vl[1] / det_t
    inv01 = -vl[0] / det_t
    u_dot = MPoly.const(inv00) * pt_trans + MPoly.const(inv01) * qt_trans

    if u_dot.coeff(1, 0) != 0 or u_dot.coeff(0, 1) != 0:
        raise InternalInvariantError("center direction carries a linear term")
    a2 = u_dot.subst_y(Fraction(0)).coeff(2, 0)
    stability = "attractor" if lam < 0 else "repeller"
    return SemiHyperbolicReduction(
        a2=a2, nonzero_eigenvalue=lam, center_vector=v0, stability=stability
    )


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
