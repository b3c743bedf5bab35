"""Verdict pipeline: cofactor tests, first integrals, integrating factors.

Oracles: every positive verdict is re-verified from its certificate,
checking sum(lambda_i K_i) + sum(mu_j L_j) equals 0 or -div exactly;
negative verdicts are cross-checked by exact rank counts.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from pdisc.compactify import to_chart
from pdisc.darboux import ExpFactor, InvariantCurve, extactic, find_exponential_factors, find_invariant_lines
from pdisc.errors import InputError, InternalInvariantError
from pdisc.exactalg import MPoly, coefficient_rows, monomial_basis
from pdisc.integrability import (
    FIRST_INTEGRAL,
    INTEGRATING_FACTOR,
    NOT_LIOUVILLIAN,
    SearchBounds,
    cofactor_tests,
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


@pytest.mark.parametrize("order", [1, 2])
def test_multiple_line_takes_its_multiplicity_from_e1(order):
    # x is a line of multiplicity 3 at both orders, though E_2 vanishes:
    # the factors exp(1/x) and exp((x*y + 1/2)/x^2) it allows are found
    sys = parse_system("dx = x^2\ndy = 1\n")
    pipe = run_pipeline(sys, SearchBounds(extactic_order=order))
    x, y = MPoly.var_x(), MPoly.var_y()
    assert [(c.f, c.multiplicity) for c in pipe.curves] == [(x, 3)]
    assert pipe.extactic_result.vanishes == (order == 2)
    cofactors = {(ef.g, ef.f): ef.L for ef in pipe.factors}
    assert cofactors[(MPoly.one(), x)] == MPoly.const(-1)
    assert cofactors[(x * y + MPoly.const(F(1, 2)), x * x)] == -y
    assert pipe.verdict.verdict == FIRST_INTEGRAL
    assert _certificate_combination(sys, pipe).is_zero
    assert pipe.verdict.darboux_function == "exp(y)^(1) * exp((1)/(x))^(1)"
    # oracle: X(y + 1/x) = P * (-1/x^2) + Q = 0, cleared of x^2
    assert (sys.Q * x * x - sys.P).is_zero


def test_linear_center_verdict_depends_on_the_exponential_bound():
    # the line at infinity is simple here (v divides the order-1 extactic
    # of U1 and U2 once), yet exp(x^2 + y^2), of cofactor 0, is an
    # exponential factor: its multiplicity does not bound exp(g) factors
    sys = parse_system("dx = y\ndy = -x\n")
    v = MPoly.var_y()
    for chart in ("U1", "U2"):
        e = extactic(to_chart(sys, chart).system, 1, []).E
        assert e.exact_div(v) is not None and e.exact_div(v * v) is None
    pipe = run_pipeline(sys, SearchBounds(max_exp_degree=2))
    assert pipe.verdict.verdict == FIRST_INTEGRAL
    assert pipe.verdict.darboux_function == "exp(y^2 + x^2)^(1)"
    assert _certificate_combination(sys, pipe).is_zero
    pipe = run_pipeline(sys, SearchBounds(max_exp_degree=1))
    assert pipe.verdict.verdict == INTEGRATING_FACTOR
    assert pipe.verdict.darboux_function == "1"
    assert (_certificate_combination(sys, pipe) + sys.divergence()).is_zero


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


@pytest.mark.parametrize("order", [1, 2])
def test_a_double_line_gives_no_constant_first_integral(order):
    # y + 2x - 2 has multiplicity 2 and one factor exp(g/(y + 2x - 2)):
    # two proportional exponents would relate trivially and be reported
    # as the first integral exp(0) = 1
    sys = parse_system("dx = 2*y - x + 1\ndy = -2*y^2 - 8*x*y - 8*x^2 + 4*y + 18*x - 10\n")
    pipe = run_pipeline(sys, SearchBounds(extactic_order=order))
    assert [c.multiplicity for c in pipe.curves] == [2]
    assert [ef.exponent_text for ef in pipe.factors] == ["x", "(y + 2*x)/(y + 2*x - 2)"]
    assert pipe.verdict.verdict == INTEGRATING_FACTOR
    assert pipe.verdict.darboux_function == "(y + 2*x - 2)^(-2) * exp((y + 2*x)/(y + 2*x - 2))^(5/4)"
    assert (_certificate_combination(sys, pipe) + sys.divergence()).is_zero


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
        # no first integral and no integrating factor: M has full column
        # rank and [M | -div] one more
        fi, inf, rank, rank_aug = cofactor_tests(pipe.curves, pipe.factors, sys.divergence(), sys.degree)
        assert fi is None
        assert inf is None
        assert (rank, rank_aug) == (pipe.verdict.rank, pipe.verdict.rank_aug)
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
    curves, _ = find_invariant_lines(sys)
    factors = find_exponential_factors(sys, curves, deg_bound=2)
    assert len(curves) == 3
    # rows are indexed by the monomial basis of degree <= d-1
    basis = monomial_basis(sys.degree - 1)
    assert basis == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    rows = coefficient_rows([c.K for c in curves] + [ef.L for ef in factors], basis)
    assert len(rows) == 6
    assert all(len(row) == len(curves) + len(factors) for row in rows)


def test_cofactor_tests_reject_terms_above_the_basis():
    # the matrix has rows for degree <= d - 1 only: a higher term would be
    # dropped, so a cofactor or a divergence reaching degree d is refused
    x, y = MPoly.var_x(), MPoly.var_y()
    high = InvariantCurve(f=x, K=x * y)
    with pytest.raises(InputError, match="cofactor of x has degree 2, exceeding the bound 1"):
        cofactor_tests([high], [], MPoly.zero(), 2)
    factor = ExpFactor(g=MPoly.one(), f=x, L=y * y)
    with pytest.raises(InputError, match=r"cofactor of exp\(\(1\)/\(x\)\) has degree 2"):
        cofactor_tests([], [factor], MPoly.zero(), 2)
    with pytest.raises(InternalInvariantError, match="divergence degree"):
        cofactor_tests([InvariantCurve(f=x, K=y)], [], x * x, 2)


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
