"""Vector-field source files and the Leslie-Gower model family.

A source file is UTF-8 text: '#' starts a comment, an optional
"params:" line binds names to rationals, and exactly one "dx = EXPR"
and one "dy = EXPR" line give the right-hand sides.  Expressions are
polynomial (the only division allowed is inside a rational literal such
as 1/2).  A single-line source may separate logical lines with " / ".

Variable names other than x and y are accepted ("du = ...", "dv = ...")
and normalized to x, y in declaration order.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from pdisc.errors import InputError, ParseError
from pdisc.exactalg import MPoly

DEFAULT_SEED = 20240819

Rat = Fraction


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
        d = max(self.P.degree, self.Q.degree)
        return d if isinstance(d, int) else 0

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

    def eval_rat(self, x: Fraction, y: Fraction) -> Tuple[Fraction, Fraction]:
        return self.P.eval_rat(x, y), self.Q.eval_rat(x, y)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanarSystem):
            return NotImplemented
        return (
            self.P == other.P
            and self.Q == other.Q
            and dict(self.params) == dict(other.params)
        )

    def __hash__(self) -> int:
        return hash((self.P, self.Q, tuple(sorted(self.params.items()))))


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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            # an unspaced '/digits' suffix makes the token a rational literal
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                den = int(text[j + 1 : k])
                if den == 0:
                    raise ParseError(
                        "zero denominator in rational literal", line_no, col
                    )
                toks.append(
                    _Token(_TOK_NUMBER, text[i:k], Fraction(num, den), line_no, col)
                )
                i = k
            else:
                toks.append(
                    _Token(_TOK_NUMBER, text[i:j], Fraction(num), line_no, col)
                )
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

    def _expr(self) -> MPoly:
        node = self._term()
        while True:
            t = self._peek()
            if t is not None and t.kind == _TOK_PUNCT and t.text in "+-":
                self._next()
                rhs = self._term()
                node = node + rhs if t.text == "+" else node - rhs
            else:
                return node

    def _term(self) -> MPoly:
        node = self._factor()
        while True:
            t = self._peek()
            if t is not None and t.kind == _TOK_PUNCT and t.text == "*":
                self._next()
                node = node * self._factor()
            else:
                return node

    def _factor(self) -> MPoly:
        # unary minus binds looser than "^": -x^2 is -(x^2)
        t = self._peek()
        if t is not None and t.kind == _TOK_PUNCT and t.text == "-":
            self._next()
            return -self._factor()
        b = self._base()
        t = self._peek()
        if t is not None and t.kind == _TOK_PUNCT and t.text == "^":
            self._next()
            e = self._peek()
            if e is None or e.kind != _TOK_NUMBER or e.value.denominator != 1:
                raise self._fail("exponent must be a nonnegative integer", e)
            self._next()
            return b ** int(e.value)
        return b

    def _base(self) -> MPoly:
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
        if t.kind == _TOK_PUNCT and t.text == "(":
            inner = self._expr()
            closing = self._next()
            if closing is None or closing.text != ")":
                raise self._fail("expected ')'", closing)
            return inner
        raise self._fail(f"unexpected token {t.text!r}", t)


# ---------------------------------------------------------------------------
# file parser


def _parse_params_line(toks: Sequence[_Token], line_no: int, out: Dict[str, Fraction]) -> None:
    # caller consumed the leading "params" ":" tokens
    pos = 0
    toks = list(toks)
    if not toks:
        return
    while True:
        if pos >= len(toks) or toks[pos].kind != _TOK_IDENT:
            tok = toks[pos] if pos < len(toks) else None
            raise ParseError(
                "expected parameter name",
                line_no,
                tok.col if tok else (toks[-1].col + len(toks[-1].text)),
            )
        name = toks[pos]
        pos += 1
        if pos >= len(toks) or toks[pos].text != "=":
            tok = toks[pos] if pos < len(toks) else None
            raise ParseError(
                "expected '=' after parameter name",
                line_no,
                tok.col if tok else (name.col + len(name.text)),
            )
        pos += 1
        sign = 1
        if pos < len(toks) and toks[pos].text == "-":
            sign = -1
            pos += 1
        if pos >= len(toks) or toks[pos].kind != _TOK_NUMBER:
            tok = toks[pos] if pos < len(toks) else None
            raise ParseError(
                "expected rational value",
                line_no,
                tok.col if tok else (toks[pos - 1].col + len(toks[pos - 1].text)),
            )
        if name.text in out:
            raise ParseError(f"duplicate parameter {name.text!r}", line_no, name.col)
        out[name.text] = sign * toks[pos].value
        pos += 1
        if pos == len(toks):
            return
        if toks[pos].text != ",":
            raise ParseError("expected ','", line_no, toks[pos].col)
        pos += 1


def parse_system(
    source: str, overrides: Optional[Mapping[str, Fraction]] = None
) -> PlanarSystem:
    """Parse vector-field source text into a PlanarSystem.

    overrides take precedence over the file's own parameter bindings.
    Raises ParseError with a line/column position for malformed input.
    """
    if "\n" not in source and " / " in source:
        source = source.replace(" / ", "\n")

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
            _parse_params_line(toks[2:], line_no, params)
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
        missing = "dy" if names[0] != "y" else "dx"
        raise ParseError(f"missing {missing} line")
    if names[0] == names[1]:
        raise ParseError(f"duplicate equation d{names[0]}", equations[1][2], 1)

    # normalize state variables to x, y in declaration order; a file that
    # already uses exactly {x, y} keeps its own assignment
    if set(names) == {"x", "y"}:
        mapping = {"x": MPoly.var_x(), "y": MPoly.var_y()}
    else:
        mapping = {names[0]: MPoly.var_x(), names[1]: MPoly.var_y()}

    symbols: Dict[str, MPoly] = {k: MPoly.const(v) for k, v in params.items()}
    for var, poly in mapping.items():
        if var in params:
            raise ParseError(f"{var!r} is bound as both a variable and a parameter")
        symbols[var] = poly

    sides: Dict[str, MPoly] = {}
    for var, toks, line_no in equations:
        rhs = _ExprParser(toks, symbols, line_no).parse()
        sides[var] = rhs

    if set(names) == {"x", "y"}:
        p_expr, q_expr = sides["x"], sides["y"]
    else:
        p_expr, q_expr = sides[names[0]], sides[names[1]]
    return PlanarSystem(P=p_expr, Q=q_expr, params=dict(params))


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
    seed: Optional[int] = None, count: int = 5
) -> List[Tuple[Fraction, Fraction, Fraction]]:
    """Deterministic sample of positive rational (A, B, C) triples.

    The seed defaults to the PDISC_SEED environment variable, falling
    back to a fixed constant, so repeated runs test the same sample.
    """
    if seed is None:
        env = os.environ.get("PDISC_SEED")
        seed = int(env) if env else DEFAULT_SEED
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
