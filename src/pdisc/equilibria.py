"""Finite equilibria: exact location via resultant elimination and
linear classification, including the semi-hyperbolic (saddle-node)
reduction.

Abscissas are the real roots of sqfree(Res_y(P, Q)).  Above a rational
one the ordinates are the roots of an exact gcd in Q[y]; above an
irrational one, a, the fiber gcd is the subresultant Sj(a, y) of P and Q
of the first index j with Sjj(a) != 0 (j = 1 unless both curves are
singular there), and the ordinate -Sj,j-1(a)/(j*Sjj(a)) is certified as
the one root of sqfree(Res_x(P, Q)) whose isolating interval meets its
enclosure.  Where that fails (a vanishing y-leading coefficient, or two
points on one fiber) the same lifting runs on P(x - t*y, y), Q(x - t*y, y).

Irrational coordinates are carried as a square-free defining polynomial
plus an isolating interval, refinable on demand.  An irrational point
also carries a rational univariate representation (Rouillier 1999):
x = X(a)/D(a), y = Y(a)/D(a) at one root a of a square-free s(u).  The
lifting above produces it, and a point with one rational coordinate has
a trivial one.  Every sign at the point, of the residuals and of the
Jacobian's determinant, trace and discriminant, is decided exactly from
it: zero by a gcd with s, a nonzero sign by refining a alone.
"undetermined" is left only where no exact rule applies (a
semi-hyperbolic point whose reduction is unavailable or degenerate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

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
from pdisc.exactalg.matrix import subresultant
from pdisc.exactalg.upoly import linear_combination
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
# algebraic coordinates


@dataclass(frozen=True)
class AlgebraicCoord:
    """A real algebraic number: exact rational, or a square-free
    defining polynomial with an isolating interval.  isolate_real_roots
    returns every rational root exactly, so an interval coordinate is
    irrational and no refinement of it meets the root."""

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
        """The root isolated by `root` of `poly`, which must be square-free
        (as `squarefree_part` returns it): it is stored as given."""
        if root.exact is not None:
            return AlgebraicCoord(exact=root.exact)
        return AlgebraicCoord(poly=poly, root=root)

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
        return AlgebraicCoord(poly=self.poly, root=refine_root(self.poly, self.root, width))

    def approx(self) -> float:
        if self.exact is not None:
            return float(self.exact)
        c = self.refined(Fraction(1, 2**60))
        assert c.root is not None
        return float((c.root.lo + c.root.hi) / 2)

    def sign(self) -> int:
        """Exact sign; zero only for the exact rational 0."""
        return self.compare(AlgebraicCoord.of(0))

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
            r = refine_root(self.poly, r, (r.hi - r.lo) / 4)
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
            if _holds_root(g, lo, hi):
                # the overlap holds a common root; each interval isolates
                # exactly one root, so both coordinates equal it
                return 0
            a = refine_root(self.poly, a, (a.hi - a.lo) / 4)
            b = refine_root(other.poly, b, (b.hi - b.lo) / 4)

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


def _holds_root(g: UPoly, lo: Fraction, hi: Fraction) -> bool:
    """Whether g has a root in (lo, hi), where g divides a square-free
    polynomial with one root there and none at lo or hi: then g has at
    most that one root, a simple one, so a sign change finds it."""
    return g.degree >= 1 and g.sign_at(lo) != g.sign_at(hi)


class Rur:
    """A rational univariate representation: the points
    x = X(a)/D(a), y = Y(a)/D(a) at the real roots a of the square-free
    `base` s(u), with D(a) != 0.  Points above the roots of one s share
    one object, so each polynomial's image under it is computed once."""

    def __init__(self, base: UPoly, X: UPoly, Y: UPoly, D: UPoly):
        self.base, self.X, self.Y, self.D = base, X, Y, D
        self._powers: Tuple[List[UPoly], ...] = ([UPoly.const(1)], [UPoly.const(1)], [UPoly.const(1)])
        self._images: Dict[MPoly, UPoly] = {}
        self._zeros: Dict[MPoly, UPoly] = {}

    @cached_property
    def swapped(self) -> "Rur":
        """The same points with x and y exchanged."""
        return Rur(self.base, self.Y, self.X, self.D)

    def unsheared(self, t: int) -> "Rur":
        """The same points, read in (x, y) from the coordinates (x + t*y, y)."""
        return Rur(self.base, self.X - self.Y * t, self.Y, self.D)

    def _power(self, which: int, k: int) -> UPoly:
        table, f = self._powers[which], (self.X, self.Y, self.D)[which]
        while len(table) <= k:
            table.append(table[-1] * f % self.base)
        return table[k]

    def _image(self, f: MPoly) -> UPoly:
        """G = D^deg f * f(X/D, Y/D) mod s, summed over one common
        denominator and reduced by pseudo-division over the integers."""
        g = self._images.get(f)
        if g is None:
            d = int(f.degree)
            g = linear_combination(
                (c, self._power(0, i) * self._power(1, j) * self._power(2, d - i - j))
                for (i, j), c in f.items()
            )
            g = self._images[f] = g % self.base
        return g

    def sign(self, f: MPoly, a: RootInterval) -> int:
        """The exact sign of f at the point above the irrational root a of s."""
        g = self._image(f)
        if g.is_zero:
            return 0
        while True:
            # D(a) != 0, so once G(a) != 0 too both enclosures exclude 0 when narrow
            box = Interval(a.lo, a.hi)
            s_g, s_d = _enclosure(g, box).sign(), _enclosure(self.D, box).sign()
            if s_g and s_d:
                return s_g * s_d ** int(f.degree)
            if f not in self._zeros:
                self._zeros[f] = g.gcd(self.base)
            if _holds_root(self._zeros[f], a.lo, a.hi):
                return 0
            a = refine_root(self.base, a, a.width / 4)


def _enclosure(p: UPoly, box: Interval) -> Interval:
    """An enclosure of p over box = [n/q, m/q]: interval Horner over the
    integers on q^deg times the primitive part of p, then the content."""
    q = math.lcm(box.lo.denominator, box.hi.denominator)
    n, m = int(box.lo * q), int(box.hi * q)
    lo = hi = 0
    qk = 1
    for c in reversed(p.int_coeffs()):
        ends = (lo * n, lo * m, hi * n, hi * m)
        lo, hi = min(ends) + c * qk, max(ends) + c * qk
        qk *= q
    c = p.content
    scale = c.denominator * q ** max(len(p.int_coeffs()) - 1, 0)
    return Interval(Fraction(lo * c.numerator, scale), Fraction(hi * c.numerator, scale))


@dataclass(frozen=True)
class AlgebraicPoint:
    x: AlgebraicCoord
    y: AlgebraicCoord
    # an irrational point's representation and the interval of its root a
    rur: Optional[Tuple[Rur, RootInterval]] = field(default=None, compare=False)

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
        rur = None if self.rur is None else (self.rur[0], refine_root(self.rur[0].base, self.rur[1], width))
        return AlgebraicPoint(self.x.refined(width), self.y.refined(width), rur)

    def swapped(self) -> "AlgebraicPoint":
        rur = None if self.rur is None else (self.rur[0].swapped, self.rur[1])
        return AlgebraicPoint(self.y, self.x, rur)

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


def _upoly(p: MPoly, var: str) -> UPoly:
    return UPoly(tuple(p.univariate_coeffs(var)))


def finite_equilibria(sys: PlanarSystem) -> List[EquilibriumRecord]:
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

    for var, other, lines in (("x", "y", "vertical"), ("y", "x", "horizontal")):
        if p.degree_in(other) == 0 and q.degree_in(other) == 0:
            g = _upoly(p, var).gcd(_upoly(q, var))
            if g.degree >= 1 and isolate_real_roots(g):
                raise PositiveDimensionalError(
                    f"P and Q depend only on {var} and share a root: {lines} "
                    "lines of equilibria"
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
        points = [pt.swapped() for pt in _eliminate(swapped, ry.subst(*swap))]
    else:
        points = _eliminate(sys, rx)

    records = [classify_point(sys, pt) for pt in points]
    records.sort(key=_record_sort_key)
    for i in range(len(records) - 1):
        a, b = records[i].point, records[i + 1].point
        if a.x.compare(b.x) == 0 and a.y.compare(b.y) == 0:
            raise InternalInvariantError("duplicate equilibrium records")
    return records


def in_positive_quadrant(rec: EquilibriumRecord) -> bool:
    """Whether the exact point lies in the closed quadrant x, y >= 0."""
    return rec.point.x.sign() >= 0 and rec.point.y.sign() >= 0


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
    """Solutions above the real roots of the nonzero eliminant rx = Res_y(P, Q).

    _lift takes the irrational roots, in the coordinates (x + t*y, y) for
    t = 0 and then for the shears t = 1, -1, 2, -2, ... until one lifts them.
    A shear fails only if the top-degree part of P or Q vanishes at (-t, 1)
    or two of the at most deg P * deg Q complex solutions share x + t*y, and
    each of these rules out finitely many t, so the bound below is never met."""
    if rx.is_constant:
        return []
    ux = _upoly(rx, "x")
    xroots = isolate_real_roots(ux)
    out = [pt for rt in xroots if rt.exact is not None for pt in _fiber_exact_x(sys, rt.exact)]
    pending = [rt for rt in xroots if rt.exact is None]
    if not pending:
        return out
    p, q = _without_vertical_factor(sys.P, sys.Q)
    # every ordinate is a root of Res_x(P, Q), which lies in the ideal (P, Q)
    r = _upoly(resultant_wrt(p, q, "x"), "y").squarefree_part()
    x_elim = (ux.squarefree_part(), xroots)
    y_elim = (r, isolate_real_roots(r))
    dp, dq = int(p.degree), int(q.degree)
    for k in range(dp + dq + dp * dq * (dp * dq - 1) // 2 + 2):
        t = (k + 1) // 2 * (-1) ** (k + 1)
        found = _lift(p, q, t, x_elim, y_elim, pending)
        if found is not None:
            return out + found
    raise InternalInvariantError("no shear lifts the equilibria above an irrational abscissa")


def _fiber_exact_x(sys: PlanarSystem, x0: Fraction) -> List[AlgebraicPoint]:
    g = _upoly(sys.P.subst_x(x0), "y").gcd(_upoly(sys.Q.subst_x(x0), "y"))
    if g.is_zero:
        raise PositiveDimensionalError(
            f"the vertical line x = {x0} consists of equilibria"
        )
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
        base = _upoly(resultant_wrt(p, q, "y"), "x").squarefree_part()
        roots = isolate_real_roots(base)
    # the memos live for this call only
    sres = lru_cache(None)(lambda j: subresultant(p, q, "y", j))
    common = lru_cache(None)(lambda c: base.gcd(_upoly(c, "x")))

    @lru_cache(None)
    def rur(j: int) -> Rur:
        c = sres(j)
        y, d = -_upoly(c[j - 1], "x"), _upoly(c[j], "x") * j
        return Rur(base, UPoly.variable() * d - y * t, y, d)

    def vanishes(c: MPoly, rt: RootInterval) -> bool:
        return _holds_root(common(c), rt.lo, rt.hi)

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
            u = Interval.point(rt.exact)
            fiber = _fiber_exact_x(PlanarSystem(P=p, Q=q), rt.exact)
            # the points of one fiber share one Rur, so unshear it once
            back = fiber[0].rur[0].unsheared(t) if fiber else None
            lifts = [(((u, iy) for iy in _tightening(pt.y)), (back, pt.rur[1])) for pt in fiber]
        else:
            c = fiber_gcd(rt)
            if c is None:
                return None
            at = (rur(len(c) - 1), rt)
            lifts = [(_quotient_boxes(*at), at)]
        for boxes, at in lifts:
            # one refinement sequence serves both locations, y first
            yroot = _locate(yroots, (iy for _, iy in boxes))
            xroot = _locate(xroots, (None if iy is None else iu - iy * t for iu, iy in boxes))
            if xroot in pending:
                x_, y_ = AlgebraicCoord(poly=s, root=xroot), AlgebraicCoord(poly=r, root=yroot)
                out.append(AlgebraicPoint(x_, y_, at))
    return out


def _without_vertical_factor(p: MPoly, q: MPoly) -> Tuple[MPoly, MPoly]:
    """P and Q divided by their common factor in x alone, which must have
    no real root (else it is a vertical line of equilibria)."""
    d = UPoly.zero()
    for c in p.coeffs_in("y") + q.coeffs_in("y"):
        d = d.gcd(_upoly(c, "x"))
        if d.degree == 0:
            return p, q
    if isolate_real_roots(d):
        raise PositiveDimensionalError(
            "a vertical line of equilibria at an irrational abscissa"
        )
    factor = MPoly({(i, 0): c for i, c in enumerate(d.coeffs)})
    p_, q_ = p.exact_div(factor), q.exact_div(factor)
    assert p_ is not None and q_ is not None
    return p_, q_


def _tightening(c: AlgebraicCoord) -> Iterator[Interval]:
    """Enclosures of c, each a quarter as wide as the one before."""
    while True:
        box = c.interval()
        yield box
        c = c.refined(box.width / 4)


def _quotient_boxes(rur: Rur, a: RootInterval) -> Iterator[Tuple[Interval, Optional[Interval]]]:
    """Enclosures of a paired with enclosures of Y(a)/D(a); None while the
    enclosure of D(a) holds zero."""
    for box in _tightening(AlgebraicCoord(poly=rur.base, root=a)):
        d = _enclosure(rur.D, box)
        yield box, None if d.lo <= 0 <= d.hi else _enclosure(rur.Y, box) / d


def _locate(roots: List[RootInterval], boxes: Iterator[Optional[Interval]]) -> RootInterval:
    """The one of `roots`, known to hold the enclosed value, whose isolating
    interval alone meets a box of the sequence."""
    for _, box in zip(range(_REFINE_CAP), boxes):
        if box is None:
            continue
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
        pt = replace(pt, rur=_trivial_rur(pt))
    # the stored point is refined for text(), approx() and the interval Jacobian
    pt = pt.refined(Fraction(1, 2**60))
    rur, a = pt.rur
    if rur.sign(sys.P, a) or rur.sign(sys.Q, a):
        raise InputError("the point is not an equilibrium")
    s_det, s_tr = rur.sign(sys.det, a), rur.sign(sys.trace, a)
    # the discriminant tells a node from a focus, and only then is it read
    s_disc = rur.sign(sys.discriminant, a) if s_det > 0 and s_tr else 0
    return EquilibriumRecord(pt, None, None, None, None, None, _table(s_det, s_tr, s_disc), label)


def _trivial_rur(pt: AlgebraicPoint) -> Tuple[Rur, RootInterval]:
    """The representation u = the irrational coordinate, for a point
    whose other coordinate is rational."""
    u, one = UPoly.variable(), UPoly.const(1)
    if pt.y.exact is not None:
        return Rur(pt.x.poly, u, UPoly.const(pt.y.exact), one), pt.x.root
    if pt.x.exact is not None:
        return Rur(pt.y.poly, UPoly.const(pt.x.exact), u, one), pt.y.root
    raise InputError("a point with two irrational coordinates needs its parametrization")


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
    (c + t*e)/n and each coefficient k/L, it is the t^2 coefficient of
    sum k (a + t*b)^i m^(dx-i) (c + t*e)^j n^(dy-j), over L m^dx n^dy."""
    if f.is_zero:
        return Fraction(0)
    dx, dy = int(f.degree_in("x")), int(f.degree_in("y"))
    xs, m = _scaled_powers(x0, v[0], dx)
    ys, n = _scaled_powers(y0, v[1], dy)
    den = math.lcm(*(c.denominator for _, c in f.items()))
    total = 0
    for (i, j), c in f.items():
        (x_0, x_1, x_2), (y_0, y_1, y_2) = xs[i], ys[j]
        total += c.numerator * (den // c.denominator) * (x_0 * y_2 + x_1 * y_1 + x_2 * y_0)
    return Fraction(total, den * m**dx * n**dy)


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
