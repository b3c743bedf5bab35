"""Vector-field parsing, formatting, and the predator-prey reduction."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pdisc.errors import InputError, ParseError
from pdisc.exactalg import MPoly
from pdisc.modelio import (
    DEFAULT_SEED,
    LeslieGowerParams,
    ParamBindings,
    PlanarSystem,
    format_system,
    leslie_source,
    leslie_system,
    leslie_transform,
    parse_system,
    seeded_parameter_triples,
)

F = Fraction


def test_parse_simple_system():
    sys = parse_system("dx = x^2 - y\ndy = 2*x*y + 1/3\n")
    assert sys.P.coeff(2, 0) == 1
    assert sys.P.coeff(0, 1) == -1
    assert sys.Q.coeff(1, 1) == 2
    assert sys.Q.coeff(0, 0) == F(1, 3)


def test_parse_params_and_overrides():
    source = "params: a=2, b=1/2\ndx = a*x\ndy = b*y\n"
    sys = parse_system(source)
    assert sys.P.coeff(1, 0) == 2
    bound = parse_system(source, {"a": F(7)})
    assert bound.P.coeff(1, 0) == 7
    assert bound.Q.coeff(0, 1) == F(1, 2)
    assert bound.params["a"] == F(7)


def test_overrides_can_introduce_bindings():
    # a file may leave parameters unbound and take them from the CLI
    source = "dx = a*x\ndy = y\n"
    with pytest.raises(ParseError):
        parse_system(source)
    sys = parse_system(source, {"a": F(3, 2)})
    assert sys.P.coeff(1, 0) == F(3, 2)
    assert sys.params["a"] == F(3, 2)


# each rejected source and the exact ParseError text it raises
PARSE_ERRORS = [
    ("dx = x +\ndy = y\n", "line 1, column 9: unexpected end of expression"),
    ("dx = \ndy = y\n", "line 1, column 1: unexpected end of expression"),
    ("dx = q*x\ndy = y\n", "line 1, column 6: unbound identifier 'q'"),
    ("dx = x\n", "missing dy line"),
    ("dy = x\n", "missing dx line"),
    # a lone equation in another variable names no dx or dy: which of
    # the two is missing depends on the second variable's name
    ("du = v\n", "missing second equation (only du given)"),
    ("", "missing dx and dy lines"),
    ("dx = x\ndy = y\ndy = x\n", "line 3, column 1: more than two equations"),
    ("dx = x\ndy = y\ndz = x\n", "line 3, column 1: more than two equations"),
    ("dx = x\ndx = y\n", "line 2, column 1: duplicate equation dx"),
    ("dx = x**2\ndy = y\n", "line 1, column 8: unexpected token '*'"),
    ("params a=1\ndx = x\ndy = y\n", "line 1, column 7: expected ':' after 'params'"),
    ("dx = x^(1/2)\ndy = y\n", "line 1, column 8: exponent must be a nonnegative integer"),
    ("dx = x^\ndy = y\n", "line 1, column 8: exponent must be a nonnegative integer"),
    ("dx = 1/0\ndy = y\n", "line 1, column 6: zero denominator in rational literal"),
    ("dx = $\ndy = y\n", "line 1, column 6: unexpected character '$'"),
    ("dx = 2 /3\ndy = y\n", "line 1, column 8: unexpected character '/'"),
    ("dx = (x))\ndy = y\n", "line 1, column 9: unexpected token ')'"),
    ("dx = (x\ndy = y\n", "line 1, column 8: expected ')'"),
    ("dx = ()\ndy = y\n", "line 1, column 7: unexpected token ')'"),
    ("params: ,\ndx = x\ndy = y\n", "line 1, column 9: expected parameter name"),
    ("params: a\ndx = x\ndy = y\n", "line 1, column 10: expected '=' after parameter name"),
    ("params: a=\ndx = x\ndy = y\n", "line 1, column 11: expected rational value"),
    ("params: a=-\ndx = x\ndy = y\n", "line 1, column 12: expected rational value"),
    ("params: a=x\ndx = x\ndy = y\n", "line 1, column 11: expected rational value"),
    ("params: a=1,\ndx = x\ndy = y\n", "line 1, column 13: expected parameter name"),
    ("params: a=1 b=2\ndx = x\ndy = y\n", "line 1, column 13: expected ','"),
    ("params: a=1, a=2\ndx = x\ndy = y\n", "line 1, column 14: duplicate parameter 'a'"),
    ("params: a=1\nparams: a=2\ndx = x\ndy = y\n", "line 2, column 9: duplicate parameter 'a'"),
    ("dx x\ndy = y\n", "line 1, column 3: expected '=' after equation name"),
    ("foo = x\ndy = y\n", "line 1, column 1: expected 'params:' line or 'd<var> = ...' equation"),
    ("params: x=1\ndx = x\ndy = y\n", "'x' is bound as both a variable and a parameter"),
    ("params: u=1\ndu = v\ndv = u\n", "'u' is bound as both a variable and a parameter"),
    ("dx = x²\ndy = y\n", "line 1, column 6: unbound identifier 'x²'"),
    # a digit is what int() reads: a superscript is no digit
    ("dx = 2²*x\ndy = y\n", "line 1, column 7: unexpected character '²'"),
    ("params: A=²\ndx = x\ndy = y\n", "line 1, column 11: unexpected character '²'"),
]


def test_parse_errors():
    for source, message in PARSE_ERRORS:
        with pytest.raises(ParseError) as info:
            parse_system(source)
        assert str(info.value) == message, source


@pytest.mark.parametrize(
    "source, canonical",
    [
        ("params:\ndx = x\ndy = y\n", "dx = x\ndy = y\n"),
        ("params: a = -2\ndx = a*x\ndy = y\n", "params: a=-2\ndx = -2*x\ndy = y\n"),
        ("params: a=1/3, b=2 # c\ndx = a*x + b\ndy = y\n", "params: a=1/3, b=2\ndx = 1/3*x + 2\ndy = y\n"),
        ("du = v\ndv = -u\n", "dx = y\ndy = -1*x\n"),
        ("dv = u\ndu = -v\n", "dx = y\ndy = -1*x\n"),
        ("dy = x\ndx = y\n", "dx = y\ndy = x\n"),
        ("dx = ٣*x\ndy = 1/٣*y\n", "dx = 3*x\ndy = 1/3*y\n"),
    ],
)
def test_accepted_sources(source, canonical):
    assert format_system(parse_system(source)) == canonical


def test_comments_and_blank_lines():
    sys = parse_system("# leading comment\n\ndx = -y\n# middle\ndy = x\n")
    assert sys.P.coeff(0, 1) == -1
    assert sys.Q.coeff(1, 0) == 1


def test_format_parse_roundtrip():
    x = MPoly.var_x()
    y = MPoly.var_y()
    sys = PlanarSystem(P=x * x - F(1, 3) * y, Q=y * y * y + 2 * x)
    again = parse_system(format_system(sys))
    assert (again.P - sys.P).is_zero
    assert (again.Q - sys.Q).is_zero


@pytest.mark.parametrize(
    "expr, expected",
    [
        ("-x^2", -MPoly.var_x() ** 2),
        ("2*-x^2", -2 * MPoly.var_x() ** 2),
        ("-2^2", MPoly.const(-4)),
        ("(-x)^2", MPoly.var_x() ** 2),
        ("-x^3", -MPoly.var_x() ** 3),
        ("--x^2", MPoly.var_x() ** 2),
        ("1 - x^2", 1 - MPoly.var_x() ** 2),
    ],
)
def test_unary_minus_binds_looser_than_power(expr, expected):
    sys = parse_system(f"dx = {expr}\ndy = y\n")
    assert sys.P == expected
    assert parse_system(format_system(sys)).P == expected


def test_degree_and_divergence():
    sys = parse_system("dx = x^2*y\ndy = -x*y^2\n")
    assert sys.degree == 3
    assert sys.divergence().is_zero


def test_lie_derivative_product_rule():
    sys = parse_system("dx = x - y\ndy = x*y\n")
    x = MPoly.var_x()
    y = MPoly.var_y()
    f = x * y + MPoly.const(3)
    g = x - y
    lhs = sys.lie_derivative(f * g)
    rhs = sys.lie_derivative(f) * g + f * sys.lie_derivative(g)
    assert (lhs - rhs).is_zero


def test_leslie_system_structure():
    sys = leslie_system(F(1), F(1), F(1, 2))
    assert sys.degree == 3
    assert sys.params == {"A": F(1), "B": F(1), "C": F(1, 2)}
    # dx = x(C+x)(1-x-Ay), dy = By(C+x-y) at A=B=1, C=1/2
    for x0, y0 in ((F(1, 4), F(3, 4)), (F(1), F(0)), (F(0), F(1, 2))):
        assert sys.P.eval_rat(x0, y0) == sys.Q.eval_rat(x0, y0) == 0


def test_leslie_system_rejects_nonpositive():
    with pytest.raises(InputError):
        leslie_system(F(0), F(1), F(1))
    with pytest.raises(InputError):
        leslie_system(F(1), F(-2), F(1))


def test_leslie_transform_all_ones():
    bindings, sys = leslie_transform(
        LeslieGowerParams(r=F(1), k=F(1), q=F(1), s=F(1), n=F(1), c=F(1))
    )
    assert (bindings.A, bindings.B, bindings.C) == (F(1), F(1), F(1))
    assert bindings.regime_value == 0
    reference = leslie_system(F(1), F(1), F(1))
    assert (sys.P - reference.P).is_zero
    assert (sys.Q - reference.Q).is_zero


def test_leslie_transform_scales_out():
    bindings, _ = leslie_transform(
        LeslieGowerParams(r=F(3), k=F(2), q=F(1), s=F(1), n=F(2), c=F(1))
    )
    assert bindings.regime_value == 1 - bindings.A * bindings.C


def test_leslie_source_reparses_to_same_system():
    b = ParamBindings(F(2, 3), F(5, 4), F(1, 2))
    sys = parse_system(leslie_source(b))
    reference = leslie_system(b.A, b.B, b.C)
    assert (sys.P - reference.P).is_zero
    assert (sys.Q - reference.Q).is_zero


def test_seeded_triples_deterministic():
    first = seeded_parameter_triples(count=5)
    second = seeded_parameter_triples(count=5)
    assert first == second
    assert first == seeded_parameter_triples(seed=DEFAULT_SEED, count=5)
    assert len(first) == 5
    for a, b, c in first:
        assert a > 0 and b > 0 and c > 0
        assert a * c != 1


@given(st.integers(min_value=1, max_value=10_000))
def test_seeded_triples_always_generic(seed):
    for a, b, c in seeded_parameter_triples(seed=seed, count=3):
        assert a > 0 and b > 0 and c > 0
        assert a * c != 1
