"""Invariant algebraic curves, extactic curves, and exponential factors.

The searchable objects are lines with rational coefficients: an
irrational invariant line cannot be expressed as a rational polynomial,
and the product of its conjugates is a curve of degree at least two,
outside the line-search bound.  A family of invariant lines (a pencil,
or a free parameter) is reported as one verified rational representative
line in the list of lines plus a note that describes the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from pdisc.errors import InternalInvariantError
from pdisc.exactalg import MPoly, UPoly, isolate_real_roots, nullspace, resultant_wrt
from pdisc.exactalg import coefficient_rows, monomial_basis
# not called here: bench/test_bench.py checks that its tracer rebinds
# this alias of `ffdet`
from pdisc.exactalg import ffdet  # noqa: F401
from pdisc.modelio import PlanarSystem


def _scan_values() -> List[Fraction]:
    # rational candidates ordered simplest-first: 0, 1, -1, 2, ..., then halves...
    out: List[Fraction] = []
    for d in (1, 2, 3, 4):
        for n in range(0, 9):
            for signed in (n, -n):
                v = Fraction(signed, d)
                if v not in out:
                    out.append(v)
    return out


# scan order for a rational point on a one-parameter constraint curve
_SCAN = _scan_values()


@dataclass(frozen=True)
class InvariantCurve:
    """An invariant algebraic curve f = 0 with X(f) = K f, of positive
    multiplicity."""

    f: MPoly
    K: MPoly
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")


@dataclass(frozen=True)
class ExpFactor:
    """An exponential factor exp(g/f) with cofactor L."""

    g: MPoly
    f: MPoly
    L: MPoly

    @property
    def exponent_text(self) -> str:
        """g/f as written in reports: g when f is constant, else (g)/(f)."""
        if self.f.is_constant:
            return self.g.format()
        return f"({self.g.format()})/({self.f.format()})"


@dataclass(frozen=True)
class ExtacticResult:
    """The order-m extactic curve and curve multiplicities within it,
    and each line's multiplicity within E_1 (at order 1, the same dict)."""

    order: int
    E: MPoly
    multiplicities: Dict[str, int]
    line_multiplicities: Dict[str, int]

    @property
    def basis_size(self) -> int:
        """The number of monomials of degree <= order."""
        return (self.order + 1) * (self.order + 2) // 2

    @property
    def vanishes(self) -> bool:
        return self.E.is_zero


def verify_invariant_curve(sys: PlanarSystem, f: MPoly) -> Optional[InvariantCurve]:
    """Exact check that f = 0 is invariant; returns the curve with its
    cofactor, or None when X(f) is not divisible by f."""
    if f.is_constant:
        raise ValueError("invariant curve must be nonconstant")
    f = f.monic()
    xf = sys.lie_derivative(f)
    k = xf.exact_div(f)
    if k is None:
        return None
    d = sys.degree
    if k.degree > d - 1:
        raise InternalInvariantError(
            f"cofactor degree {k.degree} exceeds bound {d - 1}"
        )
    return InvariantCurve(f=f, K=k)


# ---------------------------------------------------------------------------
# invariant line search


def _common_roots(polys: Iterable[MPoly], var: str) -> Optional[List[Fraction]]:
    """The rational common roots of polynomials in `var` alone, exact
    from isolation: None when every one is zero."""
    g = UPoly.zero()
    for p in polys:
        g = g.gcd(UPoly.from_mpoly(p, var))
    if g.is_zero:
        return None
    if g.degree < 1:
        return []
    return [ri.exact for ri in isolate_real_roots(g) if ri.exact is not None]


def _substituted_conditions(sys: PlanarSystem) -> List[MPoly]:
    """Invariance conditions for the line y = a x + b.

    (Q - a P)(x, a x + b) is collected as a polynomial in x; each
    x-coefficient, a polynomial in (a, b), must vanish.  The returned
    MPoly values use variable x for a and y for b.  Each coefficient's
    terms are summed in one dict and the condition is built once.
    """
    # x^m coefficients, m <= d, as {(a-exponent, b-exponent): coefficient}
    acc: List[Dict[Tuple[int, int], Fraction]] = [{} for _ in range(sys.degree + 1)]
    for poly, a_shift, sign in ((sys.Q, 0, 1), (sys.P, 1, -1)):
        for (i, j), c in poly.items():
            # x^i (a x + b)^j = sum_t C(j,t) a^t b^(j-t) x^(i+t)
            for t in range(j + 1):
                terms, e = acc[i + t], (t + a_shift, j - t)
                terms[e] = terms.get(e, 0) + sign * comb(j, t) * c
    conds = [MPoly(terms) for terms in acc]
    return [c for c in conds if not c.is_zero]


def _line(a: Fraction, b: Fraction) -> MPoly:
    # y - a x - b, graded-lex monic since y ranks above x
    return MPoly.var_y() - MPoly.monomial(1, 0, a) - MPoly.const(b)


def _constraint_text(c: MPoly) -> str:
    return c.monic().format(names=("a", "b"))


def _representative_on(conds: Sequence[MPoly]) -> Optional[Tuple[Fraction, Fraction]]:
    """A rational point (a, b) on the common zero set of the constraints.

    Scanning one coordinate, a and then b, and intersecting the
    restrictions keeps the point on every constraint at once; a single
    generator is not enough because it may carry components the others
    exclude."""
    for var, other in (("x", "y"), ("y", "x")):
        for v0 in _SCAN:
            roots = _common_roots([c.subst_x(v0) if var == "x" else c.subst_y(v0) for c in conds], other)
            if roots is None:
                roots = [Fraction(0)]  # every value of the other coordinate
            if roots:
                return (v0, roots[0]) if var == "x" else (roots[0], v0)
    return None


def _must_verify(sys: PlanarSystem, f: MPoly) -> InvariantCurve:
    cur = verify_invariant_curve(sys, f)
    if cur is None:
        raise InternalInvariantError(
            f"candidate line {f.format()} failed exact verification"
        )
    return cur


def find_invariant_lines(sys: PlanarSystem) -> Tuple[List[InvariantCurve], List[str]]:
    """All invariant lines with rational coefficients, and a sorted note
    for each one- or two-parameter continuum of invariant lines.

    A family contributes one rational representative to the lines and
    its note to the notes.  Every line returned has been re-verified by
    exact division.
    """
    lines: List[InvariantCurve] = []
    notes: List[str] = []

    # vertical lines x = c: P(c, y) must vanish identically in y
    roots = _common_roots(sys.P.coeffs_in("y"), "x")
    if roots is None:
        lines.append(_must_verify(sys, MPoly.var_x()))
        notes.append("x - c invariant for every c")
    else:
        lines.extend(_must_verify(sys, MPoly.var_x() - MPoly.const(c)) for c in roots)

    # non-vertical lines y = a x + b
    conds = _substituted_conditions(sys)
    if not conds:
        if not (sys.P.is_zero and sys.Q.is_zero):
            raise InternalInvariantError("empty condition system for a nonzero field")
        lines.append(_must_verify(sys, MPoly.var_y()))
        notes.append("y - a*x - b invariant for all (a, b)")
    else:
        lines_ab, notes_ab = _solve_slant_conditions(sys, conds)
        lines.extend(lines_ab)
        notes.extend(notes_ab)

    # no line repeats: each root list is one isolation's, and the branches exclude one another
    return sorted(lines, key=lambda c: _line_sort_key(c.f)), sorted(notes)


def _line_sort_key(f: MPoly) -> Tuple:
    # verticals first by offset, then slanted by (a, b)
    if f.degree_in("y") == 0:
        return (0, f.coeff(0, 0))
    return (1, -f.coeff(1, 0), -f.coeff(0, 0))


def _solve_slant_conditions(
    sys: PlanarSystem, conds: List[MPoly]
) -> Tuple[List[InvariantCurve], List[str]]:
    """Rational solutions (a, b) of the slant-line condition system, and
    a note for each family of solutions.

    Within the condition ring, variable x plays a and y plays b.  Each
    family's representative is reported as a line.
    """
    lines: List[InvariantCurve] = []
    notes: List[str] = []

    def emit_family(a0: Fraction, b0: Fraction, note: str) -> None:
        lines.append(_must_verify(sys, _line(a0, b0)))
        notes.append(note)

    if all(c.degree_in("x") == 0 for c in conds):
        # conditions constrain b only: every a works at each root
        for b0 in _common_roots(conds, "y") or []:
            emit_family(Fraction(0), b0, f"y - a*x - ({b0}) invariant for every a")
        return lines, notes

    # eliminate b against a fixed generator of positive b-degree; a
    # condition in a alone is its own eliminant (Res_b(g0, c) = c^m adds
    # nothing to the gcd), and a zero resultant adds nothing either
    with_b = [c for c in conds if c.degree_in("y") > 0]
    g0 = min(with_b, key=lambda c: c.degree_in("y"), default=None)
    eliminants = [c for c in conds if c.degree_in("y") == 0]
    eliminants += [resultant_wrt(g0, c, "y") for c in with_b if c is not g0]
    a_roots = _common_roots(eliminants, "x")

    if a_roots is None:
        # no condition in a alone and every resultant collapsed, or one
        # condition in both a and b: a curve of invariant lines
        point = _representative_on(conds)
        if point is None:
            raise InternalInvariantError(
                "no rational representative on a positive-dimensional "
                "slant-line condition set"
            )
        # name every condition, in condition order: their common zeros,
        # not those of g0 alone, are the family
        whenever = " and ".join(f"{t} = 0" for t in dict.fromkeys(map(_constraint_text, conds)))
        prefix = "positive-dimensional slant-line condition set (one member shown); " if len(conds) > 1 else ""
        emit_family(*point, f"{prefix}y - a*x - b invariant whenever {whenever}")
        return lines, notes

    for a0 in a_roots:
        b_roots = _common_roots([c.subst_x(a0) for c in conds], "y")
        if b_roots is None:
            emit_family(a0, Fraction(0), f"y - ({a0})*x - b invariant for every b")
            continue
        # a common zero of every condition is an invariant line
        lines.extend(_must_verify(sys, _line(a0, b0)) for b0 in b_roots)
    return lines, notes


# ---------------------------------------------------------------------------
# extactic curves


def extactic(sys: PlanarSystem, m: int, curves: Sequence[InvariantCurve]) -> ExtacticResult:
    """Order-m extactic curve E_m, m <= 2, the multiplicity inside it of
    each given invariant curve of degree <= m, and inside E_1 that of
    each given line (each must divide a nonzero E_m, then a nonzero
    E_1, or an internal error is raised, in that order).

    E_m is the Wronskian along the flow of the monomials of degree <= m,
    the determinant of X^0..X^(l-1) applied to them, read from a closed
    form in a_i = X^i(P) and c_i = X^i(Q).  E_1 = P c_1 - Q a_1.  On an
    orbit y(x), dx/dt = P and d/dx = X / P, so y'' = E_1 / P^3 and
    y^(k) = N_k / P^(2k-1) with N_1 = Q, N_(k+1) = P X(N_k) - (2k-1)
    a_1 N_k.  In x the Wronskian of
    (1, x, y, x^2, xy, y^2) is P^-15 E_2; expanded along the columns of
    1, x and x^2 (one nonzero entry each, 1, 1 and 2, the last with sign
    -1) it is -2 times the 3 x 3 on (y, xy, y^2) of rows 3..5, which is
    2 y'' times Monge's equation of conics
    9 y''^2 y^(5) - 45 y'' y^(3) y^(4) + 40 y^(3)^3, so E_2 = -4 E_1 M /
    P^3 with M = 9 N_2^2 N_5 - 45 N_2 N_3 N_4 + 40 N_3^3.  Monge's
    expression is -(27/2) y''^(11/3) w''' for w = y''^(-2/3) =
    P^2 E_1^(-2/3), and each x-derivative of w divides by P, yet every
    power of P cancels.  With F = X(E_1) = P c_2 - Q a_2:
    w' = -(2/3) E_1^(-5/3) N_3; w'' = -(2/9) E_1^(-8/3) G with
    G = 3 E_1 (P c_3 - Q a_3 + 4 (a_1 c_2 - c_1 a_2)) - 5 F^2, P
    cancelling since a_1 F - E_1 a_2 = P (a_1 c_2 - c_1 a_2); and
    w''' = -(2/27) E_1^(-11/3) (3 E_1 X(G) - 8 F G) / P.  Hence
    M / P^3 = 3 E_1 X(G) - 8 F G, with no N_4, N_5, M or division, and
    P = 0 gives E_1 = F = G = 0, so E_2 = 0.  A line is irreducible, so
    its exponent in E_2 = -4 E_1 (M / P^3) is its exponent in E_1 plus
    that in M / P^3; a conic may be reducible and is divided into E_2
    itself.
    """
    if m < 1:
        raise ValueError("extactic order must be at least 1")
    if m > 2:
        raise ValueError("extactic order capped at 2")
    lie = sys.lie_derivative
    p, q = sys.P, sys.Q
    a1, c1 = lie(p), lie(q)
    e1 = e = p * c1 - q * a1
    quotient = MPoly.zero()
    if m == 2:
        a2, c2 = lie(a1), lie(c1)
        a3, c3 = lie(a2), lie(c2)
        f = p * c2 - q * a2
        g = e1 * (p * c3 - q * a3 + (a1 * c2 - c1 * a2) * 4) * 3 - f * f * 5
        quotient = e1 * lie(g) * 3 - f * g * 8
        e = e1 * quotient * -4

    lines: Dict[str, int] = {}
    if not e1.is_zero:
        for cur in curves:
            if cur.f.degree <= 1:
                lines[cur.f.format()] = e1.multiplicity(cur.f)
    mult: Dict[str, int] = {}
    vanishes = e.is_zero
    for cur in curves:
        if vanishes or cur.f.degree > m:
            continue
        key = cur.f.format()
        if cur.f.degree > 1:
            count = e.multiplicity(cur.f)
        else:
            count = lines[key] + (quotient.multiplicity(cur.f) if m == 2 else 0)
        if count == 0:
            raise InternalInvariantError(
                f"invariant curve {key} does not divide a nonzero E_{m}"
            )
        mult[key] = count
    for key, count in lines.items():
        if count == 0:
            raise InternalInvariantError(
                f"invariant curve {key} does not divide a nonzero E_1"
            )
    return ExtacticResult(order=m, E=e, multiplicities=mult, line_multiplicities=mult if m == 1 else lines)


def attach_multiplicities(
    curves: Sequence[InvariantCurve], ext: ExtacticResult
) -> List[InvariantCurve]:
    """Curves re-tagged with their multiplicities where known: a line's
    is its exponent in E_1 (Christopher, Llibre & Pereira 2007), at
    either extactic order."""
    out: List[InvariantCurve] = []
    for cur in curves:
        key = cur.f.format()
        if key not in ext.line_multiplicities:
            out.append(cur)
        else:
            out.append(InvariantCurve(cur.f, cur.K, ext.line_multiplicities[key]))
    return out


# ---------------------------------------------------------------------------
# exponential factors


def _from_vector(vec: Sequence[Fraction], expos: Sequence[Tuple[int, int]]) -> MPoly:
    return sum(
        (MPoly.monomial(i, j, c) for (i, j), c in zip(expos, vec) if c != 0),
        MPoly.zero(),
    )


def find_exponential_factors(
    sys: PlanarSystem, curves: Sequence[InvariantCurve], deg_bound: int
) -> List[ExpFactor]:
    """Exponential factors exp(g/f) within the degree bound.

    Case f = 1: X(g) must itself have degree <= d - 1; the coefficient
    conditions form a homogeneous linear system (the constant term of g
    is fixed to zero since constants only rescale the factor).

    Case f = h^(k-1) for each curve h of multiplicity k > 1: g with
    deg g <= deg f must satisfy X(g) - (k-1) K g = f q with deg q <=
    d - 1, one homogeneous linear system in q and g; the cofactor is the
    exact quotient.  g = f solves it and gives the constant factor
    exp(1), so the first monomial of f, like the constant of case f = 1,
    has no column: the solutions are then a basis modulo f, and none is
    a multiple of f.  Each g/f is cancelled to lowest terms in h.
    """
    if deg_bound < 1:
        raise ValueError("degree bound must be at least 1")
    d = sys.degree
    out: List[ExpFactor] = []

    # (a) factors exp(g), the infinite-line case
    expos = monomial_basis(deg_bound)[1:]
    lie_of_basis = [sys.lie_derivative(MPoly.monomial(i, j)) for (i, j) in expos]
    high = [e for e in monomial_basis(d + deg_bound - 1) if e[0] + e[1] >= d]
    matrix = coefficient_rows(lie_of_basis, high)
    for vec in nullspace(matrix):
        # a kernel vector is 1 in its free column, so g is nonzero
        g = _from_vector(vec, expos).monic()
        lco = sys.lie_derivative(g)
        if lco.degree > d - 1:
            raise InternalInvariantError("exponential-factor cofactor degree too high")
        out.append(ExpFactor(g=g, f=MPoly.one(), L=lco))

    # (b) factors from multiple curves
    for cur in curves:
        if cur.multiplicity <= 1:
            continue
        k = cur.multiplicity
        h = cur.f ** (k - 1)
        g_expos = monomial_basis(h.degree)
        g_expos.remove(next(e for e in g_expos if h.coeff(*e)))
        scale = MPoly.const(Fraction(k - 1)) * cur.K
        # columns h*q for the monomials q of degree <= d - 1, then X(g) -
        # (k-1) K g for the monomials g; the h*q columns are all pivots
        cols = [h * MPoly.monomial(i, j) for (i, j) in monomial_basis(d - 1)]
        n_q = len(cols)
        for (i, j) in g_expos:
            mono = MPoly.monomial(i, j)
            cols.append(sys.lie_derivative(mono) - scale * mono)
        matrix = coefficient_rows(cols, monomial_basis(h.degree + d - 1))
        for vec in nullspace(matrix):
            # g is nonzero, as the h*q columns are pivots, and 0 at h's
            # first monomial, so no multiple of h: f keeps a power of cur.f
            g = _from_vector(vec[n_q:], g_expos)
            e = g.multiplicity(cur.f)
            g, f = g.exact_div(cur.f ** e), cur.f ** (k - 1 - e)
            num = sys.lie_derivative(g) * f - g * sys.lie_derivative(f)
            lco = num.exact_div(f * f)
            if lco is None:
                raise InternalInvariantError("exponential-factor quotient not exact")
            if lco.degree > d - 1:
                raise InternalInvariantError("exponential-factor cofactor degree too high")
            out.append(ExpFactor(g=g, f=f, L=lco))
    return out


# ---------------------------------------------------------------------------
# reporting


def darboux_fragment(
    curves: Sequence[InvariantCurve],
    factors: Sequence[ExpFactor],
    ext: Optional[ExtacticResult] = None,
    dump_extactic: bool = False,
) -> dict:
    """JSON-ready summary of the Darboux objects."""
    doc: dict = {
        "invariant_curves": [
            {
                "f": c.f.format(),
                "cofactor": c.K.format(),
                "multiplicity": c.multiplicity,
            }
            for c in curves
        ],
        "exponential_factors": [
            {"g": e.g.format(), "f": e.f.format(), "cofactor": e.L.format()}
            for e in factors
        ],
    }
    if ext is not None:
        block = {
            "order": ext.order,
            "basis_size": ext.basis_size,
            "term_count": ext.E.term_count(),
            "degree": None if ext.vanishes else ext.E.degree,
            "vanishes": ext.vanishes,
            "multiplicities": dict(ext.multiplicities),
        }
        if dump_extactic:
            block["polynomial"] = ext.E.format()
        doc["extactic"] = block
    return doc
