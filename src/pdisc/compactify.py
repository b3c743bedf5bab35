"""Poincaré compactification: local charts at infinity, infinite
equilibria, directional blow-ups of degenerate points, and one-level
sector synthesis.

Chart conventions for a degree-d system (x, y):

  U1 covers x > 0 with (u, v) = (y/x, 1/x); U2 covers y > 0 with
  (u, v) = (x/y, 1/y); U3 is the finite chart.  Writing
  T1(f) = v^d f(1/v, u/v) and T2(f) = v^d f(u/v, 1/v), the rescaled
  fields are

      U1:  du/dt = -u T1(P) + T1(Q),   dv/dt = -v T1(P)
      U2:  du/dt =  T2(P) - u T2(Q),   dv/dt = -v T2(Q)

  and the antipodal V-charts equal the U-charts times (-1)^(d+1).
  The equator is the invariant line v = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from pdisc.errors import InputError, InternalInvariantError, LineOfEquilibriaError
from pdisc.exactalg import NEG_INF, MPoly, UPoly, isolate_real_roots
from pdisc.equilibria import (
    AlgebraicCoord,
    AlgebraicPoint,
    EquilibriumRecord,
    classify_point,
    equilibrium_fragment,
    finite_equilibria,
    in_positive_quadrant,
)
from pdisc.modelio import PlanarSystem

CHART_IDS = ("U1", "U2", "U3", "V1", "V2")

HYPERBOLIC = frozenset(
    {"saddle", "stable node", "unstable node", "stable focus", "unstable focus"}
)


@dataclass(frozen=True)
class ChartSystem:
    """A compactified system in one local chart, variables (u, v)."""

    chart: str
    du: MPoly
    dv: MPoly
    parent: PlanarSystem
    degree: int

    def __post_init__(self) -> None:
        if self.chart not in CHART_IDS:
            raise InputError(f"unknown chart {self.chart!r}")
        for f in (self.du, self.dv):
            deg = f.degree
            if deg is not NEG_INF and int(deg) > self.degree + 1:
                raise InternalInvariantError("chart polynomial degree exceeds d + 1")
        if self.chart != "U3" and not self.dv.subst_y(Fraction(0)).is_zero:
            raise InternalInvariantError("equator v = 0 is not invariant")

    @cached_property
    def system(self) -> PlanarSystem:
        return PlanarSystem(P=self.du, Q=self.dv)


@dataclass(frozen=True)
class BlowupSystem:
    """One directional blow-up of a degenerate origin.

    x-directional: (x, y) = (u, u w), divisor u = 0, fields in (u, w);
    y-directional: (x, y) = (z v, v), divisor v = 0, fields in (z, v).
    Both equations are divided by the same maximal monomial factor
    (uniform time rescaling), recorded as (rescale_x, rescale_y).
    """

    direction: str  # "x" or "y"
    substitution: str
    first: MPoly  # du/dt resp. dz/dt
    second: MPoly  # dw/dt resp. dv/dt
    rescale_x: int
    rescale_y: int

    @cached_property
    def system(self) -> PlanarSystem:
        return PlanarSystem(P=self.first, Q=self.second)


@dataclass(frozen=True)
class SectorDecomposition:
    hyperbolic: int
    parabolic: int
    elliptic: int
    status: str  # "resolved" or "unresolved"

    def __post_init__(self) -> None:
        if min(self.hyperbolic, self.parabolic, self.elliptic) < 0:
            raise InputError("sector counts must be nonnegative")


# ---------------------------------------------------------------------------
# charts


def _twist(f: MPoly, d: int, u_from: str) -> MPoly:
    """T1 (u_from = 'y') or T2 (u_from = 'x'): v^d f evaluated along the
    chart substitution, as a polynomial in (u, v)."""
    terms: Dict[Tuple[int, int], Fraction] = {}
    for (i, j), c in f.items():
        k = d - i - j
        if k < 0:
            raise InternalInvariantError("twist degree underflow")
        e = (j, k) if u_from == "y" else (i, k)
        terms[e] = terms.get(e, Fraction(0)) + c
    return MPoly({e: c for e, c in terms.items() if c != 0})


def to_chart(sys: PlanarSystem, chart: str) -> ChartSystem:
    """Compactify into one local chart."""
    if chart not in CHART_IDS:
        raise InputError(f"unknown chart {chart!r}")
    d = sys.degree
    if d < 1:
        raise InputError("compactification needs degree at least 1")
    if chart == "U3":
        return ChartSystem("U3", sys.P, sys.Q, sys, d)

    u = MPoly.var_x()
    v = MPoly.var_y()
    base = chart[0] == "U"
    if chart in ("U1", "V1"):
        tp = _twist(sys.P, d, "y")
        tq = _twist(sys.Q, d, "y")
        du = -u * tp + tq
        dv = -v * tp
    else:
        tp = _twist(sys.P, d, "x")
        tq = _twist(sys.Q, d, "x")
        du = tp - u * tq
        dv = -v * tq
    if not base and (d + 1) % 2 == 1:
        du = -du
        dv = -dv
    return ChartSystem(chart, du, dv, sys, d)


def _axis_equilibria(
    sys: PlanarSystem, along: str, line_message: str, nonnegative: bool = False
) -> List[EquilibriumRecord]:
    """Equilibria of `sys` on its invariant x-axis (along = "x") or
    y-axis: the zeros of the field component along it, those below 0
    dropped before classification when `nonnegative`, classified in
    `sys`.  Raises LineOfEquilibriaError when it vanishes on the axis."""
    zero = Fraction(0)
    flow = sys.P.subst_y(zero) if along == "x" else sys.Q.subst_x(zero)
    if flow.is_zero:
        raise LineOfEquilibriaError(line_message)
    if flow.is_constant:
        return []
    poly = UPoly(tuple(flow.univariate_coeffs(along))).squarefree_part()
    origin = AlgebraicCoord.of(0)
    out: List[EquilibriumRecord] = []
    for rt in isolate_real_roots(poly):
        coord = AlgebraicCoord.from_root(poly, rt)
        if nonnegative and coord.sign() < 0:
            continue
        pt = AlgebraicPoint(coord, origin) if along == "x" else AlgebraicPoint(origin, coord)
        out.append(classify_point(sys, pt))
    return out


def infinite_equilibria(
    cs: ChartSystem, positive_quadrant_only: bool = False
) -> List[EquilibriumRecord]:
    """Equilibria on the equator v = 0 of one chart, classified through
    the chart Jacobian.  Raises LineOfEquilibriaError when the equator
    consists entirely of equilibria in this chart."""
    if cs.chart == "U3":
        raise InputError("the finite chart has no equator")
    if positive_quadrant_only and cs.chart.startswith("V"):
        return []
    line = f"the equator of chart {cs.chart} consists of equilibria"
    return _axis_equilibria(cs.system, "x", line, positive_quadrant_only)


@dataclass(frozen=True)
class DiscEquilibria:
    """Every equilibrium one run reads on the Poincaré disc, found once:
    all finite ones, in the quadrant or not; the charts U1 and U2, plus
    V1 and V2 for the whole disc; and the equator equilibria of each
    chart, with u < 0 dropped for the quadrant.  A chart whose equator
    consists of equilibria keeps its error in `lines` instead."""

    system: PlanarSystem
    quadrant: bool
    finite: Tuple[EquilibriumRecord, ...]
    charts: Mapping[str, ChartSystem]
    equator: Mapping[str, Tuple[EquilibriumRecord, ...]]
    lines: Mapping[str, LineOfEquilibriaError]

    @property
    def finite_in_view(self) -> List[EquilibriumRecord]:
        """The finite equilibria in the view: the closed quadrant or all."""
        if not self.quadrant:
            return list(self.finite)
        return [r for r in self.finite if in_positive_quadrant(r)]


def disc_equilibria(sys: PlanarSystem, quadrant: bool = False) -> DiscEquilibria:
    """The disc analysis of `sys`, for the closed positive quadrant or
    the whole disc; each chart is built once."""
    finite = tuple(finite_equilibria(sys))
    charts: Dict[str, ChartSystem] = {}
    equator: Dict[str, Tuple[EquilibriumRecord, ...]] = {}
    lines: Dict[str, LineOfEquilibriaError] = {}
    for chart in ("U1", "U2") if quadrant else ("U1", "U2", "V1", "V2"):
        cs = charts[chart] = to_chart(sys, chart)
        try:
            equator[chart] = tuple(infinite_equilibria(cs, quadrant))
        except LineOfEquilibriaError as exc:
            lines[chart] = exc
    return DiscEquilibria(sys, quadrant, finite, charts, equator, lines)


# ---------------------------------------------------------------------------
# blow-ups


def _common_monomial(polys: Sequence[MPoly]) -> Tuple[int, int]:
    ax: Optional[int] = None
    ay: Optional[int] = None
    for p in polys:
        for (i, j), _ in p.items():
            ax = i if ax is None else min(ax, i)
            ay = j if ay is None else min(ay, j)
    return (0 if ax is None else ax, 0 if ay is None else ay)


def _divide_monomial(p: MPoly, ax: int, ay: int) -> MPoly:
    if ax == 0 and ay == 0:
        return p
    return MPoly({(i - ax, j - ay): c for (i, j), c in p.items()})


def directional_blowup(sys: PlanarSystem, direction: str) -> BlowupSystem:
    """Blow up a degenerate equilibrium at the origin in one direction,
    with uniform time rescaling by the maximal common monomial."""
    if direction not in ("x", "y"):
        raise InputError("direction must be 'x' or 'y'")
    if sys.P.coeff(0, 0) != 0 or sys.Q.coeff(0, 0) != 0:
        raise InputError("the origin is not an equilibrium")

    x = MPoly.var_x()
    y = MPoly.var_y()
    if direction == "x":
        # (x, y) = (u, u w); first = du/dt, second = dw/dt
        pu = sys.P.subst(x, x * y)  # P(u, uw)
        qu = sys.Q.subst(x, x * y)
        num = qu - y * pu
        second = num.exact_div(x)
        if second is None:
            raise InternalInvariantError("x-directional numerator not divisible by u")
        first = pu
        substitution = "(x, y) = (u, u*w)"
    else:
        # (x, y) = (z v, v); first = dz/dt, second = dv/dt
        pv = sys.P.subst(x * y, y)  # P(zv, v)
        qv = sys.Q.subst(x * y, y)
        num = pv - x * qv
        first = num.exact_div(y)
        if first is None:
            raise InternalInvariantError("y-directional numerator not divisible by v")
        second = qv
        substitution = "(x, y) = (z*v, v)"

    ax, ay = _common_monomial([first, second])
    first = _divide_monomial(first, ax, ay)
    second = _divide_monomial(second, ax, ay)
    bs = BlowupSystem(direction, substitution, first, second, ax, ay)
    _check_divisor_invariant(bs)
    return bs


def _check_divisor_invariant(bs: BlowupSystem) -> None:
    # the rescale strips every divisor power exactly when a curve of
    # equilibria (or a stationary direction field) passes through the
    # blow-up point, so one level of blow-up cannot isolate the dynamics
    if bs.direction == "x":
        restricted = bs.first.subst_x(Fraction(0))
    else:
        restricted = bs.second.subst_y(Fraction(0))
    if not restricted.is_zero:
        raise LineOfEquilibriaError(
            "the rescaled flow crosses the exceptional divisor: the "
            "blow-up point is not an isolated singularity"
        )


def divisor_equilibria(bs: BlowupSystem) -> List[EquilibriumRecord]:
    """Equilibria on the exceptional divisor, classified through the
    blown-up Jacobian."""
    # the divisor is u = 0 in (u, w), the second axis; v = 0 in (z, v)
    along = "y" if bs.direction == "x" else "x"
    return _axis_equilibria(bs.system, along, "the exceptional divisor consists of equilibria")


def verify_blowdown(
    bs: BlowupSystem, sys: PlanarSystem, samples: Sequence[Tuple[Fraction, Fraction]]
) -> bool:
    """Exact push-forward check at rational sample points off the
    divisor: the blown-up field times the rescaling monomial must
    reproduce the original field through the substitution."""
    for a, b in samples:
        m = Fraction(a) ** bs.rescale_x * Fraction(b) ** bs.rescale_y
        fu = bs.first.eval_rat(a, b)
        fv = bs.second.eval_rat(a, b)
        if bs.direction == "x":
            x0, y0 = Fraction(a), Fraction(a) * Fraction(b)
            ok_x = sys.P.eval_rat(x0, y0) == m * fu
            ok_y = sys.Q.eval_rat(x0, y0) == m * (Fraction(b) * fu + Fraction(a) * fv)
        else:
            x0, y0 = Fraction(a) * Fraction(b), Fraction(b)
            ok_x = sys.P.eval_rat(x0, y0) == m * (Fraction(b) * fu + Fraction(a) * fv)
            ok_y = sys.Q.eval_rat(x0, y0) == m * fv
        if not (ok_x and ok_y):
            return False
    return True


@dataclass(frozen=True)
class BlowupAnalysis:
    """Both directional blow-ups of one degenerate point plus the
    synthesized sector counts."""

    x_system: BlowupSystem
    x_divisor: Tuple[EquilibriumRecord, ...]
    y_system: BlowupSystem
    y_divisor: Tuple[EquilibriumRecord, ...]
    sectors: "SectorDecomposition"


def blowup_analysis(sys: PlanarSystem, point: AlgebraicPoint) -> Optional[BlowupAnalysis]:
    """Translate an exact degenerate point to the origin, blow up in
    both directions, and synthesize sectors.  None when the point has
    irrational coordinates (translation needs exact arithmetic)."""
    if not point.is_exact:
        return None
    x0, y0 = point.exact_pair()
    x = MPoly.var_x()
    y = MPoly.var_y()
    shifted = PlanarSystem(
        P=sys.P.subst(x + MPoly.const(x0), y + MPoly.const(y0)),
        Q=sys.Q.subst(x + MPoly.const(x0), y + MPoly.const(y0)),
    )
    bx = directional_blowup(shifted, "x")
    by = directional_blowup(shifted, "y")
    rx = tuple(divisor_equilibria(bx))
    ry = tuple(divisor_equilibria(by))
    return BlowupAnalysis(bx, rx, by, ry, sector_synthesis((bx, rx), (by, ry)))


# ---------------------------------------------------------------------------
# sectors


def direct_sectors(classification: str) -> SectorDecomposition:
    """Sector decomposition of a hyperbolic point, no blow-up needed."""
    if classification == "saddle":
        return SectorDecomposition(4, 0, 0, "resolved")
    if classification in HYPERBOLIC:
        return SectorDecomposition(0, 1, 0, "resolved")
    return SectorDecomposition(0, 0, 0, "unresolved")


def sector_synthesis(
    x_result: Tuple[BlowupSystem, Sequence[EquilibriumRecord]],
    y_result: Tuple[BlowupSystem, Sequence[EquilibriumRecord]],
) -> SectorDecomposition:
    """Compose one level of directional blow-ups into sector counts for
    the degenerate point.

    Only the fully hyperbolic saddle-plus-node pattern in both
    directions is synthesized (two hyperbolic and two parabolic
    sectors); anything else is reported unresolved rather than guessed.
    """
    kinds: List[List[str]] = []
    for _, recs in (x_result, y_result):
        ks = sorted(r.classification for r in recs)
        if any(k not in HYPERBOLIC for k in ks):
            return SectorDecomposition(0, 0, 0, "unresolved")
        kinds.append(ks)
    saddle_node = [
        ["saddle", "stable node"],
        ["saddle", "unstable node"],
    ]
    if kinds[0] in saddle_node and kinds[1] in saddle_node:
        return SectorDecomposition(2, 2, 0, "resolved")
    return SectorDecomposition(0, 0, 0, "unresolved")


# ---------------------------------------------------------------------------
# reporting


def chart_fragment(cs: ChartSystem) -> Dict:
    return {
        "chart": cs.chart,
        "du": cs.du.format(("u", "v")),
        "dv": cs.dv.format(("u", "v")),
        "degree": cs.degree,
    }


def blowup_fragment(
    bs: BlowupSystem, records: Sequence[EquilibriumRecord]
) -> Dict:
    names = ("u", "w") if bs.direction == "x" else ("z", "v")
    return {
        "direction": bs.direction,
        "substitution": bs.substitution,
        "first": bs.first.format(names),
        "second": bs.second.format(names),
        "rescaled_by": f"{names[0]}^{bs.rescale_x}*{names[1]}^{bs.rescale_y}",
        "divisor_equilibria": [equilibrium_fragment(r) for r in records],
    }
