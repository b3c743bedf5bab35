"""Verdict pipeline: cofactor matrices, first integrals, integrating factors.

Oracles: every positive verdict is re-verified from its certificate,
checking sum(lambda_i K_i) + sum(mu_j L_j) equals 0 or -div exactly;
negative verdicts are cross-checked by exact rank counts.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from pdisc.darboux import find_exponential_factors, find_invariant_lines
from pdisc.errors import InputError
from pdisc.exactalg import MPoly
from pdisc.integrability import (
    FIRST_INTEGRAL,
    INTEGRATING_FACTOR,
    NOT_LIOUVILLIAN,
    SearchBounds,
    build_cofactor_matrix,
    first_integral_test,
    integrating_factor_test,
    run_pipeline,
    verdict_fragment,
)
from pdisc.modelio import PlanarSystem, leslie_system, parse_system

F = Fraction


def _certificate_combination(sys: PlanarSystem, pipe) -> MPoly:
    lam = pipe.verdict.lam or ()
    mu = pipe.verdict.mu or ()
    total = MPoly.zero()
    for coeff, curve in zip(lam, pipe.curves):
        total = total + MPoly.const(coeff) * curve.K
    for coeff, factor in zip(mu, pipe.factors):
        total = total + MPoly.const(coeff) * factor.L
    return total


def test_first_integral_linear_saddle():
    sys = parse_system("dx = x\ndy = -y\n")
    pipe = run_pipeline(sys)
    assert pipe.verdict.verdict == FIRST_INTEGRAL
    assert _certificate_combination(sys, pipe).is_zero
    assert pipe.verdict.darboux_function is not None


def test_first_integral_lotka_volterra():
    sys = parse_system("dx = x - x*y\ndy = x*y - y\n")
    pipe = run_pipeline(sys)
    assert pipe.verdict.verdict == FIRST_INTEGRAL
    assert _certificate_combination(sys, pipe).is_zero
    lam = pipe.verdict.lam
    mu = pipe.verdict.mu
    assert any(v != 0 for v in lam + mu)


def test_first_integral_survives_vanishing_extactic():
    # every line through the origin is invariant; positive findings stand
    pipe = run_pipeline(parse_system("dx = x\ndy = y\n"))
    assert pipe.extactic_result is not None and pipe.extactic_result.vanishes
    assert pipe.verdict.verdict == FIRST_INTEGRAL
    assert _certificate_combination(None, pipe).is_zero


def test_integrating_factor_resonant_node():
    # lambda = -3 gives R = x^-3: d/dx(x^-2) + d/dy(x^-3 (x^2+2y)) = 0
    sys = parse_system("dx = x\ndy = x^2 + 2*y\n")
    pipe = run_pipeline(sys)
    assert pipe.verdict.verdict == INTEGRATING_FACTOR
    combo = _certificate_combination(sys, pipe)
    assert (combo + sys.divergence()).is_zero
    assert pipe.verdict.darboux_function == "(x)^(-3)"


def test_integrating_factor_exponential():
    # R = exp(-2y): the unique Darboux integrating factor at these bounds
    sys = parse_system("dx = -y + x^2\ndy = x\n")
    pipe = run_pipeline(sys)
    assert pipe.verdict.verdict == INTEGRATING_FACTOR
    combo = _certificate_combination(sys, pipe)
    assert (combo + sys.divergence()).is_zero


def test_not_liouvillian_spiral_focus():
    pipe = run_pipeline(parse_system("dx = x - y\ndy = x + y\n"))
    assert pipe.verdict.verdict == NOT_LIOUVILLIAN
    assert len(pipe.curves) == 0
    assert len(pipe.factors) == 0


def test_leslie_not_liouvillian_with_rank_structure():
    for a, b, c in [(F(1), F(2), F(1, 2)), (F(7, 8), F(10, 9), F(4, 3))]:
        sys = leslie_system(a, b, c)
        pipe = run_pipeline(sys)
        assert pipe.verdict.verdict == NOT_LIOUVILLIAN
        assert len(pipe.curves) == 3
        assert len(pipe.factors) == 1
        # homogeneous system: only the constant-exponent direction survives
        matrix = build_cofactor_matrix(pipe.curves, pipe.factors, sys.degree)
        fi = first_integral_test(matrix)
        assert fi is None
        assert integrating_factor_test(matrix, sys.divergence())[0] is None
        assert pipe.verdict.rank == pipe.verdict.rank_aug - 1


def test_nontrivial_kernel_is_reported_not_invented():
    # the kernel vector must reproduce zero exactly, not approximately
    sys = leslie_system(F(2, 9), F(3, 5), F(12, 7))
    pipe = run_pipeline(sys)
    assert pipe.verdict.verdict == NOT_LIOUVILLIAN
    assert pipe.verdict.lam is None
    assert pipe.verdict.mu is None


def test_cofactor_matrix_shape():
    sys = leslie_system(F(1), F(1), F(1, 2))
    curves = find_invariant_lines(sys)
    factors = find_exponential_factors(sys, curves, deg_bound=2)
    matrix = build_cofactor_matrix(curves, factors, sys.degree)
    assert matrix.curve_count == 3
    assert len(matrix.labels) == len(curves) + len(factors)
    # columns are indexed by the monomial basis of degree <= d-1
    assert len(matrix.basis) == 6


def test_bounds_validation():
    with pytest.raises(InputError):
        SearchBounds(extactic_order=3)
    with pytest.raises(InputError):
        SearchBounds(max_exp_degree=0)


def test_fragment_records_bounds_and_notes():
    frag = verdict_fragment(run_pipeline(leslie_system(F(1), F(2), F(1, 2))).verdict)
    assert frag["verdict"] == NOT_LIOUVILLIAN
    assert frag["bounds"] == {
        "max_curve_degree": 1,
        "max_exp_degree": 2,
        "extactic_order": 1,
    }
    assert any("search bounds" in note for note in frag["notes"])
