"""Darboux integrability tests and the Liouville verdict.

A Darboux function D = prod f_i^(lambda_i) * prod F_j^(mu_j) built from
invariant curves f_i (cofactors K_i) and exponential factors F_j
(cofactors L_j) is a first integral iff sum lambda_i K_i + sum mu_j L_j
is the zero polynomial, and an integrating factor iff that sum equals
minus the divergence.  Both are exact linear problems over the
rationals.  A Liouvillian first integral exists iff some Darboux
function is an integrating factor, so within the search bounds the two
tests decide Liouville integrability; every nonexistence verdict
carries the bounds it is relative to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from pdisc.errors import InputError, InternalInvariantError
from pdisc.exactalg import MPoly, nullspace
from pdisc.darboux import (
    ExpFactor,
    ExtacticResult,
    InvariantCurve,
    _coeff_vector_basis,
    attach_multiplicities,
    extactic,
    find_exponential_factors,
    find_invariant_lines,
)
from pdisc.modelio import PlanarSystem

FIRST_INTEGRAL = "DarbouxFirstIntegral"
INTEGRATING_FACTOR = "DarbouxIntegratingFactor"
NOT_LIOUVILLIAN = "NotLiouvillianWithinBounds"
INCONCLUSIVE = "Inconclusive"


# The automatic curve search finds invariant lines only.  Reports record
# it as a bound.
MAX_CURVE_DEGREE = 1


@dataclass(frozen=True)
class SearchBounds:
    """Bounds the Darboux search ran under; nonexistence is relative to these."""

    max_exp_degree: int = 2
    extactic_order: int = 1

    def __post_init__(self) -> None:
        if self.max_exp_degree < 1:
            raise InputError("exponential-factor degree bound must be at least 1")
        if self.extactic_order not in (1, 2):
            raise InputError("extactic order must be 1 or 2")


@dataclass(frozen=True)
class CofactorMatrix:
    """Cofactors as columns over the monomial basis of degree <= d - 1."""

    basis: Tuple[Tuple[int, int], ...]
    columns: Tuple[Tuple[Fraction, ...], ...]
    labels: Tuple[str, ...]
    curve_count: int
    cofactors: Tuple[MPoly, ...]
    degenerate: Tuple[bool, ...]  # exp column with a constant exponent

    @property
    def column_count(self) -> int:
        return len(self.columns)

    def rows(self) -> List[List[Fraction]]:
        return [
            [self.columns[c][r] for c in range(len(self.columns))]
            for r in range(len(self.basis))
        ]


@dataclass(frozen=True)
class IntegrabilityVerdict:
    verdict: str
    bounds: SearchBounds
    lam: Optional[Tuple[Fraction, ...]] = None
    mu: Optional[Tuple[Fraction, ...]] = None
    rank: int = 0
    rank_aug: int = 0
    darboux_function: Optional[str] = None
    notes: Tuple[str, ...] = ()


def build_cofactor_matrix(
    curves: Sequence[InvariantCurve], expfactors: Sequence[ExpFactor], d: int
) -> CofactorMatrix:
    """Columns are the curve cofactors (discovery order) then the
    exponential-factor cofactors, over the degree <= d - 1 basis."""
    basis = tuple(_coeff_vector_basis(max(d, 1) - 1, True))
    columns: List[Tuple[Fraction, ...]] = []
    labels: List[str] = []
    cofs: List[MPoly] = []
    degenerate: List[bool] = []

    def push(label: str, k: MPoly, degen: bool) -> None:
        if k.degree > d - 1:
            raise InputError(
                f"cofactor of {label} has degree {k.degree}, exceeding the bound {d - 1}"
            )
        if label in labels:
            raise ValueError(f"duplicate column label {label!r}")
        columns.append(tuple(k.coeff(i, j) for (i, j) in basis))
        labels.append(label)
        cofs.append(k)
        degenerate.append(degen)

    for cur in curves:
        push(cur.f.format(), cur.K, False)
    ncurves = len(labels)
    for ef in expfactors:
        if ef.f.is_constant:
            label = f"exp({ef.g.format()})"
            degen = ef.g.is_constant
        else:
            label = f"exp(({ef.g.format()})/({ef.f.format()}))"
            q = ef.g.exact_div(ef.f)
            degen = q is not None and q.is_constant
        push(label, ef.L, degen)
    return CofactorMatrix(
        basis=basis,
        columns=tuple(columns),
        labels=tuple(labels),
        curve_count=ncurves,
        cofactors=tuple(cofs),
        degenerate=tuple(degenerate),
    )


Exponents = Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]


def cofactor_tests(
    m: CofactorMatrix, div: MPoly
) -> Tuple[Optional[Exponents], Optional[Exponents], int, int]:
    """Both cofactor tests from one nullspace of [M | div]: a first
    integral (lambda, mu) with sum lambda_i K_i + sum mu_j L_j = 0, an
    integrating factor with that sum equal to -div and every free unknown
    zero (each None when absent), then rank M and rank [M | -div].

    The nullspace vectors with last entry 0 span that of M; the one with
    last entry 1, if any, is the integrating factor.  First integrals
    supported only on degenerate exponential-factor columns (constant
    exponents) are rejected; those touching a curve column are preferred.
    """
    basis_set = set(m.basis)
    for expo, _ in div.items():
        if expo not in basis_set:
            raise InternalInvariantError("divergence degree exceeds cofactor basis")
    n = m.column_count
    rows = [row + [div.coeff(i, j)] for row, (i, j) in zip(m.rows(), m.basis)]
    vectors = nullspace(rows)
    kernel = [v[:n] for v in vectors if v[n] == 0]
    solutions = [v[:n] for v in vectors if v[n] != 0]
    rank = n - len(kernel)
    rank_aug = rank if solutions else rank + 1

    def split(v: Sequence[Fraction]) -> Exponents:
        return tuple(v[: m.curve_count]), tuple(v[m.curve_count :])

    admissible = [
        v for v in kernel if any(c != 0 and not m.degenerate[i] for i, c in enumerate(v))
    ]
    with_curves = [v for v in admissible if any(c != 0 for c in v[: m.curve_count])]
    chosen = with_curves or admissible
    first_integral = split(chosen[0]) if chosen else None
    integrating_factor = split(solutions[0]) if solutions else None
    return first_integral, integrating_factor, rank, rank_aug


def _darboux_function_text(
    curves: Sequence[InvariantCurve],
    factors: Sequence[ExpFactor],
    lam: Sequence[Fraction],
    mu: Sequence[Fraction],
) -> str:
    parts: List[str] = []
    for cur, e in zip(curves, lam):
        if e == 0:
            continue
        parts.append(f"({cur.f.format()})^({e})")
    for ef, e in zip(factors, mu):
        if e == 0:
            continue
        if ef.f.is_constant:
            inner = ef.g.format()
        else:
            inner = f"({ef.g.format()})/({ef.f.format()})"
        parts.append(f"exp({inner})^({e})")
    return " * ".join(parts) if parts else "1"


def _recheck(
    m: CofactorMatrix,
    lam: Sequence[Fraction],
    mu: Sequence[Fraction],
    target: MPoly,
) -> None:
    acc = MPoly.zero()
    for coef, k in zip(list(lam) + list(mu), m.cofactors):
        if coef != 0:
            acc = acc + MPoly.const(coef) * k
    if acc != target:
        raise InternalInvariantError("cofactor combination recheck failed")


@dataclass(frozen=True)
class DarbouxPipeline:
    """Everything the integrability decision was based on."""

    curves: Tuple[InvariantCurve, ...]
    factors: Tuple[ExpFactor, ...]
    extactic_result: ExtacticResult
    matrix: CofactorMatrix
    verdict: IntegrabilityVerdict


def run_pipeline(sys: PlanarSystem, bounds: SearchBounds = SearchBounds()) -> DarbouxPipeline:
    """Curve search, extactic multiplicities, exponential factors, and
    the two cofactor tests, in order."""
    curves, families = find_invariant_lines(sys)

    ext = extactic(sys, bounds.extactic_order, curves)
    # a line's multiplicity is its exponent in E_1 (Christopher, Llibre &
    # Pereira 2007); at order 2, ext is only reported
    curves = attach_multiplicities(curves, ext if ext.order == 1 else extactic(sys, 1, curves))
    factors = find_exponential_factors(sys, curves, bounds.max_exp_degree)

    matrix = build_cofactor_matrix(curves, factors, sys.degree)
    div = sys.divergence()
    fi, inf, rank, rank_aug = cofactor_tests(matrix, div)

    notes: List[str] = []
    if families:
        notes.append("invariant-line family present: " + "; ".join(families))
    if ext.vanishes:
        notes.append(
            f"E_{ext.order} vanishes identically (a continuum of invariant "
            "curves within the order bound)"
        )
    notes.append(
        "nonexistence claims are relative to the recorded search bounds"
    )

    def verdict_with(tag: str, lam=None, mu=None, dfun=None) -> IntegrabilityVerdict:
        return IntegrabilityVerdict(
            verdict=tag,
            bounds=bounds,
            lam=lam,
            mu=mu,
            rank=rank,
            rank_aug=rank_aug,
            darboux_function=dfun,
            notes=tuple(notes),
        )

    if fi is not None:
        lam, mu = fi
        _recheck(matrix, lam, mu, MPoly.zero())
        verdict = verdict_with(
            FIRST_INTEGRAL, lam, mu, _darboux_function_text(curves, factors, lam, mu)
        )
    elif inf is not None:
        lam, mu = inf
        _recheck(matrix, lam, mu, -div)
        verdict = verdict_with(
            INTEGRATING_FACTOR, lam, mu, _darboux_function_text(curves, factors, lam, mu)
        )
    else:
        tag = INCONCLUSIVE if (families or ext.vanishes) else NOT_LIOUVILLIAN
        verdict = verdict_with(tag)

    return DarbouxPipeline(
        curves=tuple(curves),
        factors=tuple(factors),
        extactic_result=ext,
        matrix=matrix,
        verdict=verdict,
    )


def verdict_fragment(v: IntegrabilityVerdict) -> Dict:
    """JSON-ready summary of a verdict."""
    doc: Dict = {
        "verdict": v.verdict,
        "bounds": {
            "max_curve_degree": MAX_CURVE_DEGREE,
            "max_exp_degree": v.bounds.max_exp_degree,
            "extactic_order": v.bounds.extactic_order,
        },
        "rank": v.rank,
        "rank_augmented": v.rank_aug,
        "notes": list(v.notes),
    }
    if v.lam is not None:
        doc["lambda"] = [str(c) for c in v.lam]
    if v.mu is not None:
        doc["mu"] = [str(c) for c in v.mu]
    if v.darboux_function is not None:
        doc["darboux_function"] = v.darboux_function
    return doc
