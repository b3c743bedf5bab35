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
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from pdisc.errors import InternalInvariantError
from pdisc.exactalg import MPoly, UPoly, isolate_real_roots, nullspace, resultant_wrt
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


@dataclass(frozen=True)
class ExtacticResult:
    """The order-m extactic curve and curve multiplicities within it."""

    order: int
    basis: Tuple[MPoly, ...]
    E: MPoly
    multiplicities: Dict[str, int]
    vanishes: bool

    @property
    def basis_size(self) -> int:
        return len(self.basis)


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


def _rational_roots(p: UPoly) -> List[Fraction]:
    """Exact rational roots recovered by isolation + reconstruction."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    return [ri.exact for ri in isolate_real_roots(p) if ri.exact is not None]


def _upoly_gcd_many(polys: Sequence[UPoly]) -> UPoly:
    g = polys[0]
    for p in polys[1:]:
        g = g.gcd(p)
    return g


def _substituted_conditions(sys: PlanarSystem) -> List[MPoly]:
    """Invariance conditions for the line y = a x + b.

    (Q - a P)(x, a x + b) is collected as a polynomial in x; each
    x-coefficient, a polynomial in (a, b), must vanish.  The returned
    MPoly values use variable x for a and y for b.
    """
    d = sys.degree
    nx = d + 1  # x-degree of the substituted expression is at most d

    def subst(poly: MPoly) -> List[MPoly]:
        # coefficients of x^m in poly(x, a x + b), as polynomials in (a, b)
        out = [MPoly.zero() for _ in range(nx + 1)]
        for (i, j), c in poly.items():
            # x^i (a x + b)^j = sum_t C(j,t) a^t b^(j-t) x^(i+t)
            binom = 1
            for t in range(j + 1):
                if t > 0:
                    binom = binom * (j - t + 1) // t
                term = MPoly.monomial(t, j - t, Fraction(binom) * c)
                out[i + t] = out[i + t] + term
        return out

    pc = subst(sys.P)
    qc = subst(sys.Q)
    a_var = MPoly.var_x()
    conds = [qc[m] - a_var * pc[m] for m in range(nx + 1)]
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
            restricted = [c.subst_x(v0) if var == "x" else c.subst_y(v0) for c in conds]
            nonzero = [r for r in restricted if not r.is_zero]
            w = Fraction(0)
            if nonzero:
                roots = _rational_roots(_upoly_gcd_many([UPoly.from_mpoly(r, other) for r in nonzero]))
                if not roots:
                    continue
                w = roots[0]
            return (v0, w) if var == "x" else (w, v0)
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
    if sys.P.is_zero:
        lines.append(_must_verify(sys, MPoly.var_x()))
        notes.append("x - c invariant for every c")
    else:
        pcols = [UPoly.from_mpoly(c, "x") for c in sys.P.coeffs_in("y")]
        g = _upoly_gcd_many([u for u in pcols if not u.is_zero])
        if g.degree >= 1:
            for c in _rational_roots(g):
                lines.append(_must_verify(sys, MPoly.var_x() - MPoly.const(c)))

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

    seen: Dict[str, InvariantCurve] = {}
    for cur in lines:
        seen.setdefault(cur.f.format(), cur)
    return sorted(seen.values(), key=lambda c: _line_sort_key(c.f)), sorted(notes)


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

    with_b = [c for c in conds if c.degree_in("y") > 0]
    with_a = [c for c in conds if c.degree_in("x") > 0]

    if not with_a:
        # conditions constrain b only: every a works at each root
        g = _upoly_gcd_many([UPoly.from_mpoly(c, "y") for c in conds])
        if g.degree >= 1:
            for b0 in _rational_roots(g):
                emit_family(Fraction(0), b0, f"y - a*x - ({b0}) invariant for every a")
        return lines, notes

    if len(conds) == 1 and with_b:
        # a single mixed condition: a curve of invariant lines
        c = conds[0]
        point = _representative_on([c])
        if point is None:
            raise InternalInvariantError(
                "no rational representative found on constraint "
                f"{_constraint_text(c)} = 0"
            )
        emit_family(
            *point, f"y - a*x - b invariant whenever {_constraint_text(c)} = 0"
        )
        return lines, notes

    # eliminate b against a fixed generator of positive b-degree; a
    # condition in a alone is its own eliminant (Res_b(g0, c) = c^m adds
    # nothing to the gcd); with no generator, each root a0 frees every b
    pure_a = [c for c in conds if c.degree_in("y") == 0]
    g0 = min(with_b, key=lambda c: c.degree_in("y"), default=None)
    eliminants: List[UPoly] = [UPoly.from_mpoly(c, "x") for c in pure_a]
    for c in with_b:
        if c is g0:
            continue
        r = resultant_wrt(g0, c, "y")
        if not r.is_zero:
            eliminants.append(UPoly.from_mpoly(r, "x"))

    if not eliminants or all(u.is_zero for u in eliminants):
        # every resultant collapsed: positive-dimensional solution set
        point = _representative_on(conds)
        if point is None:
            raise InternalInvariantError(
                "no rational representative on a positive-dimensional "
                "slant-line condition set"
            )
        # name every condition, in condition order: their common zeros,
        # not those of g0 alone, are the family
        whenever = " and ".join(f"{t} = 0" for t in dict.fromkeys(map(_constraint_text, conds)))
        emit_family(
            *point,
            "positive-dimensional slant-line condition set (one member "
            f"shown); y - a*x - b invariant whenever {whenever}",
        )
        return lines, notes

    g = _upoly_gcd_many([u for u in eliminants if not u.is_zero])
    if g.degree < 1:
        return lines, notes
    for a0 in _rational_roots(g):
        restricted = [c.subst_x(a0) for c in conds]
        nonzero = [r for r in restricted if not r.is_zero]
        if not nonzero:
            emit_family(a0, Fraction(0), f"y - ({a0})*x - b invariant for every b")
            continue
        gb = _upoly_gcd_many([UPoly.from_mpoly(r, "y") for r in nonzero])
        if gb.degree < 1:
            continue
        for b0 in _rational_roots(gb):
            cur = verify_invariant_curve(sys, _line(a0, b0))
            if cur is not None:
                lines.append(cur)
    return lines, notes


# ---------------------------------------------------------------------------
# extactic curves


def extactic(sys: PlanarSystem, m: int, curves: Sequence[InvariantCurve]) -> ExtacticResult:
    """Order-m extactic curve E_m, m <= 2, and the multiplicity inside it
    of each given invariant curve of degree <= m (which must divide a
    nonzero E_m, or an internal error is raised).

    E_m is the Wronskian along the flow of the monomials of degree <= m,
    the determinant of X^0..X^(l-1) applied to them, read from a closed
    form.  P = 0 zeroes the column of x, so E_m = 0; else
    E_1 = P X(Q) - Q X(P).  On an orbit y(x), dx/dt = P, y^(k) = N_k /
    P^(2k-1) with N_1 = Q, N_(k+1) = P X(N_k) - (2k-1) X(P) N_k, so
    N_2 = E_1.  In x the Wronskian of (1, x, y, x^2, xy, y^2) is P^-15
    E_2; expanded along the columns of 1, x and x^2 (one nonzero entry
    each, 1, 1 and 2, the last with sign -1) it is -2 times the 3 x 3 on
    (y, xy, y^2) of rows 3..5, which is 2 y'' times Monge's equation of
    conics 9 y''^2 y^(5) - 45 y'' y^(3) y^(4) + 40 y^(3)^3.  Hence
    E_2 = -4 E_1 M / P^3 with M = 9 N_2^2 N_5 - 45 N_2 N_3 N_4 + 40 N_3^3;
    a remainder of M / P^3 is an internal error.
    """
    if m < 1:
        raise ValueError("extactic order must be at least 1")
    if m > 2:
        raise ValueError("extactic order capped at 2")
    basis = tuple(MPoly.monomial(i, j) for i, j in _coeff_vector_basis(m, True))
    p = sys.P
    if p.is_zero:
        e = MPoly.zero()
    else:
        xp = sys.lie_derivative(p)
        n = [sys.Q]
        for k in range(1, 3 * m - 1):
            n.append(p * sys.lie_derivative(n[-1]) - xp * n[-1] * (2 * k - 1))
        e = n[1]
        if m == 2:
            _, n2, n3, n4, n5 = n
            # M = n2 (9 n2 n5 - 45 n3 n4) + 40 n3^3, one product fewer
            quotient = (n2 * (n2 * n5 * 9 - n3 * n4 * 45) + n3 * n3 * n3 * 40).exact_div(p * p * p)
            if quotient is None:
                raise InternalInvariantError("Monge's polynomial of E_2 leaves a remainder on division by P^3")
            e = n2 * quotient * -4

    mult: Dict[str, int] = {}
    vanishes = e.is_zero
    for cur in curves:
        if cur.f.degree > m:
            continue
        key = cur.f.format()
        if vanishes:
            continue
        count = 0
        rem = e
        while True:
            q = rem.exact_div(cur.f)
            if q is None:
                break
            rem = q
            count += 1
        if count == 0:
            raise InternalInvariantError(
                f"invariant curve {key} does not divide a nonzero E_{m}"
            )
        mult[key] = count
    return ExtacticResult(order=m, basis=basis, E=e, multiplicities=mult, vanishes=vanishes)


def attach_multiplicities(
    curves: Sequence[InvariantCurve], ext: ExtacticResult
) -> List[InvariantCurve]:
    """Curves re-tagged with their extactic multiplicities where known."""
    out: List[InvariantCurve] = []
    for cur in curves:
        key = cur.f.format()
        if key not in ext.multiplicities:
            out.append(cur)
        else:
            out.append(InvariantCurve(cur.f, cur.K, ext.multiplicities[key]))
    return out


# ---------------------------------------------------------------------------
# exponential factors


def _coeff_vector_basis(max_deg: int, include_const: bool) -> List[Tuple[int, int]]:
    # exponents of the monomials of degree <= max_deg, ascending graded-lex
    out: List[Tuple[int, int]] = []
    for total in range(0 if include_const else 1, max_deg + 1):
        for j in range(total + 1):
            out.append((total - j, j))
    return out


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
    deg g <= deg f must satisfy f | (X(g) - (k-1) K g), and the
    cofactor is the exact quotient.  Solutions proportional to f itself
    give the constant factor exp(1) and are quotiented out.
    """
    if deg_bound < 1:
        raise ValueError("degree bound must be at least 1")
    d = sys.degree
    out: List[ExpFactor] = []

    # (a) factors exp(g), the infinite-line case
    expos = _coeff_vector_basis(deg_bound, include_const=False)
    lie_of_basis = [sys.lie_derivative(MPoly.monomial(i, j)) for (i, j) in expos]
    high = [e for e in _coeff_vector_basis(d + deg_bound - 1, True) if e[0] + e[1] >= d]
    matrix = _coefficient_rows(lie_of_basis, high)
    for vec in _kernel(matrix, len(expos)):
        g = _from_vector(vec, expos)
        if g.is_zero:
            continue
        g = g.monic()
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
        g_expos = _coeff_vector_basis(h.degree, include_const=True)
        scale = MPoly.const(Fraction(k - 1)) * cur.K
        # rows: coefficients of the remainder of X(g) - (k-1) K g mod h
        cols: List[MPoly] = []
        for (i, j) in g_expos:
            mono = MPoly.monomial(i, j)
            expr = sys.lie_derivative(mono) - scale * mono
            _, rem = expr.reduce_mod(h)
            cols.append(rem)
        rem_monos = sorted({e for c in cols for e, _ in c.int_terms()})
        sols = _kernel(_coefficient_rows(cols, rem_monos), len(g_expos))
        h_vec = [h.coeff(i, j) for (i, j) in g_expos]
        for vec in _quotient_span(sols, h_vec):
            g = _from_vector(vec, g_expos)
            if g.is_zero:
                continue
            # g is no multiple of h, so f keeps a positive power of cur.f
            g, f = _coprime_form(g, cur.f, k - 1)
            num = sys.lie_derivative(g) * f - g * sys.lie_derivative(f)
            lco = num.exact_div(f * f)
            if lco is None:
                raise InternalInvariantError("exponential-factor quotient not exact")
            if lco.degree > d - 1:
                raise InternalInvariantError("exponential-factor cofactor degree too high")
            out.append(ExpFactor(g=g, f=f, L=lco))
    return out


def _coefficient_rows(polys: Sequence[MPoly], monos: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """Row r, column c: the coefficient of monos[r] in polys[c], times the
    lcm of the polys' content denominators, so the rows are integers and
    the right nullspace is that of the coefficient matrix."""
    den = lcm(*(p.content.denominator for p in polys))
    cols = [(p.content.numerator * (den // p.content.denominator), dict(p.int_terms())) for p in polys]
    return [[w * terms.get(e, 0) for w, terms in cols] for e in monos]


def _kernel(matrix: Sequence[Sequence[int]], n: int) -> List[List[Fraction]]:
    """Right nullspace of a matrix with n columns; with no rows, nothing
    constrains the unknowns and the n unit vectors span it."""
    if matrix:
        return nullspace(matrix)
    return [[Fraction(1) if t == s else Fraction(0) for t in range(n)] for s in range(n)]


def _coprime_form(g: MPoly, base: MPoly, power: int) -> Tuple[MPoly, MPoly]:
    """Cancel common base factors from g / base**power."""
    while power > 0:
        q = g.exact_div(base)
        if q is None:
            break
        g = q
        power -= 1
    return g, base ** power


def _quotient_span(
    vecs: List[List[Fraction]], drop: List[Fraction]
) -> List[List[Fraction]]:
    """Basis of span(vecs) modulo span(drop)."""
    pivot = next((i for i, c in enumerate(drop) if c != 0), None)
    if pivot is None:
        return vecs
    out: List[List[Fraction]] = []
    for v in vecs:
        if v[pivot] != 0:
            fac = v[pivot] / drop[pivot]
            v = [a - fac * b for a, b in zip(v, drop)]
        if any(c != 0 for c in v):
            out.append(v)
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
