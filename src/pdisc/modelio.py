"""Vector-field source files and the Leslie-Gower model family.

A source file is UTF-8 text: '#' starts a comment, an optional
"params:" line binds names to rationals, and exactly one "dx = EXPR"
and one "dy = EXPR" line give the right-hand sides.  Expressions are
polynomial (the only division allowed is inside a rational literal such
as 1/2).

Variable names other than x and y are accepted ("du = ...", "dv = ...")
and normalized to x, y in declaration order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from pdisc.errors import InputError, ParseError
from pdisc.exactalg import MPoly

DEFAULT_SEED = 20240819


# ---------------------------------------------------------------------------
# planar polynomial systems


@dataclass(frozen=True)
class PlanarSystem:
    """A polynomial vector field x' = P(x, y), y' = Q(x, y)."""

    P: MPoly
    Q: MPoly
    params: Mapping[str, Fraction] = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return max(self.P.degree, self.Q.degree, 0)

    def lie_derivative(self, f: MPoly) -> MPoly:
        """X(f) = P df/dx + Q df/dy."""
        return self.P * f.diff("x") + self.Q * f.diff("y")

    @cached_property
    def jacobian(self) -> Tuple[Tuple[MPoly, MPoly], Tuple[MPoly, MPoly]]:
        """((P_x, P_y), (Q_x, Q_y)); it and the trace, determinant and
        discriminant are built once, for every point of the system."""
        return ((self.P.diff("x"), self.P.diff("y")), (self.Q.diff("x"), self.Q.diff("y")))

    @cached_property
    def trace(self) -> MPoly:
        return self.jacobian[0][0] + self.jacobian[1][1]

    @cached_property
    def det(self) -> MPoly:
        (px, py), (qx, qy) = self.jacobian
        return px * qy - py * qx

    @cached_property
    def discriminant(self) -> MPoly:
        return self.trace * self.trace - MPoly.const(4) * self.det

    def divergence(self) -> MPoly:
        return self.trace


def format_system(sys: PlanarSystem) -> str:
    """Canonical source text; parse_system(format_system(s)) == s."""
    lines: List[str] = []
    if sys.params:
        pairs = ", ".join(f"{k}={sys.params[k]}" for k in sorted(sys.params))
        lines.append(f"params: {pairs}")
    lines.append(f"dx = {sys.P.format()}")
    lines.append(f"dy = {sys.Q.format()}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# tokenizer

_TOK_NUMBER = "number"
_TOK_IDENT = "ident"
_TOK_PUNCT = "punct"

_PUNCT = set("+-*^()=,:")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    value: Optional[Fraction]
    line: int
    col: int


def _tokenize_line(text: str, line_no: int) -> List[_Token]:
    toks: List[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        # isdecimal, not isdigit: int() rejects superscripts such as '²'
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            value = Fraction(int(text[i:j]))
            # an unspaced '/digits' suffix makes the token a rational literal
            if text[j : j + 1] == "/" and text[j + 1 : j + 2].isdecimal():
                k = j + 1
                while k < n and text[k].isdecimal():
                    k += 1
                den = int(text[j + 1 : k])
                if den == 0:
                    raise ParseError(
                        "zero denominator in rational literal", line_no, col
                    )
                value /= den
                j = k
            toks.append(_Token(_TOK_NUMBER, text[i:j], value, line_no, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token(_TOK_IDENT, text[i:j], None, line_no, col))
            i = j
            continue
        if ch in _PUNCT:
            toks.append(_Token(_TOK_PUNCT, ch, None, line_no, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line_no, col)
    return toks


# ---------------------------------------------------------------------------
# expression parser


class _ExprParser:
    def __init__(self, toks: Sequence[_Token], symbols: Mapping[str, MPoly], line_no: int):
        self.toks = list(toks)
        self.symbols = symbols
        self.line_no = line_no
        self.pos = 0

    def _peek(self) -> Optional[_Token]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _next(self) -> Optional[_Token]:
        t = self._peek()
        if t is not None:
            self.pos += 1
        return t

    def _accept(self, text: str) -> bool:
        """Consume the next token if it is the punctuation `text`."""
        t = self._peek()
        if t is not None and t.kind == _TOK_PUNCT and t.text == text:
            self.pos += 1
            return True
        return False

    def _fail(self, msg: str, tok: Optional[_Token]) -> ParseError:
        if tok is None:
            col = (self.toks[-1].col + len(self.toks[-1].text)) if self.toks else 1
            return ParseError(msg, self.line_no, col)
        return ParseError(msg, tok.line, tok.col)

    def parse(self) -> MPoly:
        value = self._expr()
        extra = self._peek()
        if extra is not None:
            raise self._fail(f"unexpected token {extra.text!r}", extra)
        return value

    def bindings(self, out: Dict[str, Fraction]) -> None:
        """Read the rest of a params: line, NAME = [-]RATIONAL separated
        by commas, into out; a name already in out is an error."""
        more = self._peek() is not None
        while more:
            name = self._next()
            if name is None or name.kind != _TOK_IDENT:
                raise self._fail("expected parameter name", name)
            if not self._accept("="):
                raise self._fail("expected '=' after parameter name", self._peek())
            value = self.rational()
            if name.text in out:
                raise self._fail(f"duplicate parameter {name.text!r}", name)
            out[name.text] = value
            more = self._accept(",")
        extra = self._peek()
        if extra is not None:
            raise self._fail("expected ','", extra)

    def rational(self) -> Fraction:
        """Read the value of a params: binding, [-]RATIONAL."""
        sign = -1 if self._accept("-") else 1
        value = self._next()
        if value is None or value.kind != _TOK_NUMBER:
            raise self._fail("expected rational value", value)
        return sign * value.value

    def _expr(self) -> MPoly:
        node = self._term()
        while True:
            if self._accept("+"):
                node = node + self._term()
            elif self._accept("-"):
                node = node - self._term()
            else:
                return node

    def _term(self) -> MPoly:
        node = self._factor()
        while self._accept("*"):
            node = node * self._factor()
        return node

    def _factor(self) -> MPoly:
        # unary minus binds looser than "^": -x^2 is -(x^2)
        if self._accept("-"):
            return -self._factor()
        b = self._base()
        if not self._accept("^"):
            return b
        e = self._next()
        if e is None or e.kind != _TOK_NUMBER or e.value.denominator != 1:
            raise self._fail("exponent must be a nonnegative integer", e)
        return b ** int(e.value)

    def _base(self) -> MPoly:
        if self._accept("("):
            inner = self._expr()
            if not self._accept(")"):
                raise self._fail("expected ')'", self._peek())
            return inner
        t = self._next()
        if t is None:
            raise self._fail("unexpected end of expression", None)
        if t.kind == _TOK_NUMBER:
            return MPoly.const(t.value)
        if t.kind == _TOK_IDENT:
            try:
                return self.symbols[t.text]
            except KeyError:
                raise self._fail(f"unbound identifier {t.text!r}", t) from None
        raise self._fail(f"unexpected token {t.text!r}", t)


# ---------------------------------------------------------------------------
# file parser


def parse_bindings(text: str) -> Dict[str, Fraction]:
    """The bindings NAME = [-]RATIONAL, ... in `text`, read by the
    grammar of the rest of a params: line; errors name a column of line 1."""
    out: Dict[str, Fraction] = {}
    _ExprParser(_tokenize_line(text, 1), {}, 1).bindings(out)
    return out


def parse_rational(text: str) -> Fraction:
    """The value [-]RATIONAL in `text`, read by the grammar of a params:
    binding's right side; errors name a column of line 1."""
    parser = _ExprParser(_tokenize_line(text, 1), {}, 1)
    value = parser.rational()
    extra = parser._peek()
    if extra is not None:
        raise parser._fail(f"unexpected token {extra.text!r}", extra)
    return value


def parse_system(
    source: str, overrides: Optional[Mapping[str, Fraction]] = None
) -> PlanarSystem:
    """Parse vector-field source text into a PlanarSystem.

    overrides take precedence over the file's own parameter bindings.
    Raises ParseError with a line/column position for malformed input.
    """
    params: Dict[str, Fraction] = {}
    equations: List[Tuple[str, List[_Token], int]] = []

    for line_no, raw in enumerate(source.splitlines(), start=1):
        toks = _tokenize_line(raw, line_no)
        if not toks:
            continue
        head = toks[0]
        if head.kind == _TOK_IDENT and head.text == "params":
            if len(toks) < 2 or toks[1].text != ":":
                raise ParseError("expected ':' after 'params'", line_no, head.col + len(head.text))
            _ExprParser(toks[2:], {}, line_no).bindings(params)
            continue
        if head.kind == _TOK_IDENT and len(head.text) > 1 and head.text.startswith("d"):
            if len(toks) < 2 or toks[1].text != "=":
                raise ParseError("expected '=' after equation name", line_no, head.col + len(head.text))
            equations.append((head.text[1:], toks[2:], line_no))
            continue
        raise ParseError(
            "expected 'params:' line or 'd<var> = ...' equation", line_no, head.col
        )

    if overrides:
        for k, v in overrides.items():
            params[k] = Fraction(v)

    if len(equations) > 2:
        raise ParseError("more than two equations", equations[2][2], 1)
    names = [eq[0] for eq in equations]
    if len(equations) == 0:
        raise ParseError("missing dx and dy lines")
    if len(equations) == 1:
        given = names[0]
        missing = {"x": "dy line", "y": "dx line"}.get(given, f"second equation (only d{given} given)")
        raise ParseError(f"missing {missing}")
    if names[0] == names[1]:
        raise ParseError(f"duplicate equation d{names[0]}", equations[1][2], 1)

    # normalize state variables to x, y in declaration order; a file that
    # already uses exactly {x, y} keeps its own assignment
    order = ["x", "y"] if set(names) == {"x", "y"} else names

    symbols: Dict[str, MPoly] = {k: MPoly.const(v) for k, v in params.items()}
    for var, poly in zip(order, (MPoly.var_x(), MPoly.var_y())):
        if var in params:
            raise ParseError(f"{var!r} is bound as both a variable and a parameter")
        symbols[var] = poly

    sides = {var: _ExprParser(toks, symbols, line_no).parse() for var, toks, line_no in equations}
    return PlanarSystem(P=sides[order[0]], Q=sides[order[1]], params=dict(params))


# ---------------------------------------------------------------------------
# Leslie-Gower family


def _positive_fractions(params: object) -> None:
    """Coerce each field of a frozen parameter dataclass to Fraction and
    require it to be positive."""
    for f in fields(params):
        v = Fraction(getattr(params, f.name))
        object.__setattr__(params, f.name, v)
        if v <= 0:
            raise InputError(f"parameter {f.name} must be positive, got {v}")


@dataclass(frozen=True)
class LeslieGowerParams:
    """Biological parameters, all strictly positive."""

    r: Fraction
    k: Fraction
    q: Fraction
    s: Fraction
    n: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        _positive_fractions(self)


@dataclass(frozen=True)
class ParamBindings:
    """Dimensionless parameters A, B, C of the reduced model."""

    A: Fraction
    B: Fraction
    C: Fraction

    def __post_init__(self) -> None:
        _positive_fractions(self)

    @property
    def regime_value(self) -> Fraction:
        return 1 - self.A * self.C

    @property
    def regime(self) -> str:
        """The exact sign of 1 - A*C by name: "positive", "zero" or "negative"."""
        v = self.regime_value
        return "positive" if v > 0 else ("zero" if v == 0 else "negative")


def leslie_system(A: Fraction, B: Fraction, C: Fraction) -> PlanarSystem:
    """The reduced cubic predator-prey field
    x' = x(C+x)(1-x-Ay), y' = By(C+x-y)."""
    b = ParamBindings(Fraction(A), Fraction(B), Fraction(C))
    x = MPoly.var_x()
    y = MPoly.var_y()
    one = MPoly.one()
    P = x * (MPoly.const(b.C) + x) * (one - x - MPoly.const(b.A) * y)
    Q = MPoly.const(b.B) * y * (MPoly.const(b.C) + x - y)
    return PlanarSystem(P=P, Q=Q, params={"A": b.A, "B": b.B, "C": b.C})


def leslie_transform(p: LeslieGowerParams) -> Tuple[ParamBindings, PlanarSystem]:
    """Dimensionless reduction of the Leslie-Gower model.

    A = knq/r, B = s/r, C = c/(kn); returns the bindings together with
    the reduced cubic system instantiated at those values.
    """
    A = p.k * p.n * p.q / p.r
    B = p.s / p.r
    C = p.c / (p.k * p.n)
    bindings = ParamBindings(A, B, C)
    return bindings, leslie_system(A, B, C)


def leslie_source(b: ParamBindings) -> str:
    """Vector-field source text for the reduced model at given bindings."""
    return (
        f"params: A={b.A}, B={b.B}, C={b.C}\n"
        "dx = x*(C+x)*(1-x-A*y)\n"
        "dy = B*y*(C+x-y)\n"
    )


def seeded_parameter_triples(
    seed: int = DEFAULT_SEED, count: int = 5
) -> List[Tuple[Fraction, Fraction, Fraction]]:
    """Deterministic sample of positive rational (A, B, C) triples; the
    default seed is a fixed constant, so repeated runs test one sample."""
    rng = random.Random(seed)
    out: List[Tuple[Fraction, Fraction, Fraction]] = []
    while len(out) < count:
        a, b, c = (
            Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(3)
        )
        # A*C = 1 collapses two equilibria; keep the sample generic
        if a * c == 1:
            continue
        out.append((a, b, c))
    return out
