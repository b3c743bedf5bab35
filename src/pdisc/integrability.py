"""Darboux integrability tests and the Liouville verdict.

A Darboux function D = prod f_i^(lambda_i) * prod F_j^(mu_j) built from
invariant curves f_i (cofactors K_i) and exponential factors F_j
(cofactors L_j) is a first integral iff sum lambda_i K_i + sum mu_j L_j
is the zero polynomial, and an integrating factor iff that sum equals
minus the divergence.  Both are exact linear problems over the
rationals, read from one integer matrix [K_1..K_n, L_1..L_m, div]
whose columns are coefficient vectors over the monomials of degree
<= d - 1 (`exactalg.coefficient_rows`, the builder of the
exponential-factor systems too) and solved by one nullspace.  A
Liouvillian first integral exists iff some Darboux function is an
integrating factor, so within the search bounds the two tests decide
Liouville integrability; every nonexistence verdict carries the bounds
it is relative to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from pdisc.errors import InputError, InternalInvariantError
from pdisc.exactalg import MPoly, coefficient_rows, monomial_basis, nullspace
from pdisc.darboux import (
    ExpFactor,
    ExtacticResult,
    InvariantCurve,
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
class IntegrabilityVerdict:
    verdict: str
    bounds: SearchBounds
    lam: Optional[Tuple[Fraction, ...]] = None
    mu: Optional[Tuple[Fraction, ...]] = None
    rank: int = 0
    rank_aug: int = 0
    darboux_function: Optional[str] = None
    notes: Tuple[str, ...] = ()


Exponents = Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]


def cofactor_tests(
    curves: Sequence[InvariantCurve], factors: Sequence[ExpFactor], div: MPoly, d: int
) -> Tuple[Optional[Exponents], Optional[Exponents], int, int]:
    """Both cofactor tests from one nullspace of [M | div], M the curve
    cofactors (discovery order) then the exponential-factor cofactors as
    columns over the monomials of degree <= d - 1: a first integral
    (lambda, mu) with sum lambda_i K_i + sum mu_j L_j = 0, an integrating
    factor with that sum equal to -div and every free unknown zero (each
    None when absent), then rank M and rank [M | -div].

    The nullspace vectors with last entry 0 span that of M; the one with
    last entry 1, if any, is the integrating factor.  First integrals
    touching a curve column are preferred.  Every nonzero vector of that
    nullspace is a first integral, with no constant Darboux function: the
    exp(g) exponents are independent with no constant term, and over each
    multiple curve the exponents' numerators over f^(k-1) and f^(k-1)
    itself are independent (see `find_exponential_factors`): a nonzero
    combination of the exponents is not constant, and a product of
    nonzero powers of distinct lines is neither a constant nor exp of a
    rational function.  The matrix has no row for a term above degree
    d - 1, so such a cofactor is an input error and such a divergence an
    internal one.
    """
    labelled = [(cur.f.format(), cur.K) for cur in curves]
    labelled += [(f"exp({ef.exponent_text})", ef.L) for ef in factors]
    for label, k in labelled:
        if k.degree > d - 1:
            raise InputError(f"cofactor of {label} has degree {k.degree}, exceeding the bound {d - 1}")
    top = max(d, 1) - 1
    if div.degree > top:
        raise InternalInvariantError("divergence degree exceeds cofactor basis")
    n = len(labelled)
    vectors = nullspace(coefficient_rows([k for _, k in labelled] + [div], monomial_basis(top)))
    kernel = [v[:n] for v in vectors if v[n] == 0]
    solutions = [v[:n] for v in vectors if v[n] != 0]
    rank = n - len(kernel)
    rank_aug = rank if solutions else rank + 1
    ncurves = len(curves)

    def split(v: Sequence[Fraction]) -> Exponents:
        return tuple(v[:ncurves]), tuple(v[ncurves:])

    with_curves = [v for v in kernel if any(c != 0 for c in v[:ncurves])]
    chosen = with_curves or kernel
    first_integral = split(chosen[0]) if chosen else None
    integrating_factor = split(solutions[0]) if solutions else None
    return first_integral, integrating_factor, rank, rank_aug


def _certificate(
    curves: Sequence[InvariantCurve],
    factors: Sequence[ExpFactor],
    lam: Sequence[Fraction],
    mu: Sequence[Fraction],
    target: MPoly,
) -> str:
    """The Darboux function with exponents lam, mu, once sum lambda_i K_i
    + sum mu_j L_j has been rechecked to equal target exactly."""
    terms = [(e, f"({cur.f.format()})", cur.K) for cur, e in zip(curves, lam)]
    terms += [(e, f"exp({ef.exponent_text})", ef.L) for ef, e in zip(factors, mu)]
    acc = MPoly.zero()
    parts: List[str] = []
    for e, text, k in terms:
        if e != 0:
            acc = acc + MPoly.const(e) * k
            parts.append(f"{text}^({e})")
    if acc != target:
        raise InternalInvariantError("cofactor combination recheck failed")
    return " * ".join(parts) if parts else "1"


@dataclass(frozen=True)
class DarbouxPipeline:
    """Everything the integrability decision was based on."""

    curves: Tuple[InvariantCurve, ...]
    factors: Tuple[ExpFactor, ...]
    extactic_result: ExtacticResult
    verdict: IntegrabilityVerdict


def run_pipeline(sys: PlanarSystem, bounds: SearchBounds = SearchBounds()) -> DarbouxPipeline:
    """Curve search, extactic multiplicities, exponential factors, and
    the two cofactor tests, in order.  One `extactic` call at either
    order gives the reported E_m and each line's exponent in E_1, which
    is its multiplicity."""
    curves, families = find_invariant_lines(sys)

    # a line's multiplicity is its exponent in E_1; at order 2, E_2 is
    # only reported
    ext = extactic(sys, bounds.extactic_order, curves)
    curves = attach_multiplicities(curves, ext)
    factors = find_exponential_factors(sys, curves, bounds.max_exp_degree)

    div = sys.divergence()
    fi, inf, rank, rank_aug = cofactor_tests(curves, factors, div, sys.degree)

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
        verdict = verdict_with(FIRST_INTEGRAL, *fi, _certificate(curves, factors, *fi, MPoly.zero()))
    elif inf is not None:
        verdict = verdict_with(INTEGRATING_FACTOR, *inf, _certificate(curves, factors, *inf, -div))
    else:
        tag = INCONCLUSIVE if (families or ext.vanishes) else NOT_LIOUVILLIAN
        verdict = verdict_with(tag)

    return DarbouxPipeline(
        curves=tuple(curves),
        factors=tuple(factors),
        extactic_result=ext,
        verdict=verdict,
    )


def bounds_fragment(bounds: SearchBounds) -> Dict[str, int]:
    """JSON-ready record of the search bounds."""
    return {
        "max_curve_degree": MAX_CURVE_DEGREE,
        "max_exp_degree": bounds.max_exp_degree,
        "extactic_order": bounds.extactic_order,
    }


def verdict_fragment(v: IntegrabilityVerdict) -> Dict:
    """JSON-ready summary of a verdict."""
    doc: Dict = {
        "verdict": v.verdict,
        "bounds": bounds_fragment(v.bounds),
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
