"""Sparse exact-rational polynomials in two variables.

MPoly is the currency of the whole package: vector-field components,
cofactors, extactic curves, chart systems and blow-ups are all MPoly
values.  Coefficients are `fractions.Fraction`; exponent pairs (i, j)
refer to the first and second variable (canonically x and y, but charts
reuse the same structure for (u, v), (u, w), (z, v)).

The monomial order used everywhere is graded lexicographic with the
second variable ranked above the first: terms compare by total degree,
ties broken by the exponent of the second variable.  Under this order
"y - a*x - b" and "x - c" are both monic, which is the normal form the
line search reports.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, TypeVar, Union

Rat = Fraction
Exponents = Tuple[int, int]
_Scalar = Union[int, Fraction]
_C = TypeVar("_C", int, Fraction)  # coefficient ring of a raw term dict: Z or Q


class _NegInfDegree:
    """Degree of the zero polynomial; compares below every integer."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return not isinstance(other, _NegInfDegree)

    def __le__(self, other: object) -> bool:
        return True

    def __gt__(self, other: object) -> bool:
        return False

    def __ge__(self, other: object) -> bool:
        return isinstance(other, _NegInfDegree)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NegInfDegree)

    def __hash__(self) -> int:
        return hash("NEG_INF_DEGREE")

    def __repr__(self) -> str:
        return "NEG_INF"


NEG_INF = _NegInfDegree()

Degree = Union[int, _NegInfDegree]


def grlex_key(exponents: Exponents) -> Tuple[int, int]:
    """Sort key of a monomial: total degree, then second-variable exponent."""
    i, j = exponents
    return (i + j, j)


class MPoly:
    """Immutable sparse bivariate polynomial over Fraction."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Union[Mapping[Exponents, _Scalar], Iterable[Tuple[Exponents, _Scalar]]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Exponents, Fraction] = {}
        for (i, j), c in items:
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in monomial ({i}, {j})")
            c = Fraction(c)
            if not c:
                continue
            key = (i, j)
            s = acc.get(key)
            if s is None:
                acc[key] = c
            else:
                s = s + c
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        object.__setattr__(self, "_terms", acc)
        object.__setattr__(self, "_hash", None)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "MPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "MPoly":
        return _ONE

    @classmethod
    def const(cls, c: _Scalar) -> "MPoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def var_x(cls) -> "MPoly":
        return _X

    @classmethod
    def var_y(cls) -> "MPoly":
        return _Y

    @classmethod
    def monomial(cls, i: int, j: int, c: _Scalar = 1) -> "MPoly":
        return cls({(i, j): Fraction(c)})

    # -- inspection --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> Degree:
        if not self._terms:
            return NEG_INF
        return max(i + j for i, j in self._terms)

    def degree_in(self, var: str) -> Degree:
        """Largest exponent of `var` ("x" or "y"); NEG_INF for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        idx = _var_index(var)
        return max(e[idx] for e in self._terms)

    def coeff(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), Fraction(0))

    def items(self) -> Iterator[Tuple[Exponents, Fraction]]:
        """Terms in descending graded-lex order (deterministic)."""
        for e in sorted(self._terms, key=grlex_key, reverse=True):
            yield e, self._terms[e]

    def term_count(self) -> int:
        return len(self._terms)

    def leading(self) -> Tuple[Exponents, Fraction]:
        """Leading (exponents, coefficient) under the graded-lex order."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self._terms, key=grlex_key)
        return e, self._terms[e]

    def leading_coeff(self) -> Fraction:
        return self.leading()[1]

    def monic(self) -> "MPoly":
        """Scale so the graded-lex leading coefficient is 1."""
        if not self._terms:
            return self
        lc = self.leading_coeff()
        if lc == 1:
            return self
        return self * (Fraction(1) / lc)

    @property
    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self._terms.get((0, 0), Fraction(0))

    # -- equality / hashing ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == MPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            frozen = tuple(sorted(self._terms.items()))
            h = hash(frozen)
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring arithmetic ---------------------------------------------

    def __add__(self, other: Union["MPoly", _Scalar]) -> "MPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self._terms)
        for e, c in other._terms.items():
            s = acc.get(e)
            if s is None:
                acc[e] = c
            else:
                s = s + c
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        return _raw(acc)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return _raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: Union["MPoly", _Scalar]) -> "MPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: _Scalar) -> "MPoly":
        return (-self) + other

    def __mul__(self, other: Union["MPoly", _Scalar]) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return _ZERO
            return _raw({e: v * c for e, v in self._terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        acc: _Packed[Fraction] = {}
        _mul_add(acc, _pack(self._terms), _pack(other._terms))
        return _raw(_unpack(acc))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = _ONE
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- calculus -----------------------------------------------------

    def diff(self, var: str) -> "MPoly":
        """Formal partial derivative with respect to "x" or "y"."""
        idx = _var_index(var)
        acc: dict[Exponents, Fraction] = {}
        for (i, j), c in self._terms.items():
            n = (i, j)[idx]
            if n == 0:
                continue
            e = (i - 1, j) if idx == 0 else (i, j - 1)
            acc[e] = acc.get(e, Fraction(0)) + c * n
        return _raw({e: c for e, c in acc.items() if c})

    # -- division ------------------------------------------------------

    def reduce_mod(self, divisor: "MPoly") -> Tuple["MPoly", "MPoly"]:
        """Single-divisor division: self = q*divisor + r.

        Leading-term reduction under the graded-lex order; no term of r is
        divisible by the divisor's leading monomial.  For a single divisor,
        r == 0 is equivalent to exact divisibility.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        out = _divide(_pack(self._terms), _pack(divisor._terms), exact=False)
        assert out is not None  # only an integer division can fail
        q, r = out
        return _raw(_unpack(q)), _raw(_unpack(r))

    def exact_div(self, divisor: "MPoly") -> Optional["MPoly"]:
        """Exact quotient self/divisor, or None when no exact quotient exists."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        out = _divide(_pack(self._terms), _pack(divisor._terms), exact=True)
        return None if out is None else _raw(_unpack(out[0]))

    # -- evaluation / substitution --------------------------------------

    def eval_rat(self, x: _Scalar, y: _Scalar) -> Fraction:
        x = Fraction(x)
        y = Fraction(y)
        total = Fraction(0)
        xp = _power_table(x, self.degree_in("x"))
        yp = _power_table(y, self.degree_in("y"))
        for (i, j), c in self._terms.items():
            total += c * xp[i] * yp[j]
        return total

    def subst(self, px: "MPoly", py: "MPoly") -> "MPoly":
        """Substitute polynomials for the two variables."""
        max_i = self.degree_in("x")
        max_j = self.degree_in("y")
        if max_i is NEG_INF:
            return _ZERO
        xpows = [_ONE]
        for _ in range(int(max_i)):
            xpows.append(xpows[-1] * px)
        ypows = [_ONE]
        for _ in range(int(max_j)):
            ypows.append(ypows[-1] * py)
        total = _ZERO
        for (i, j), c in self._terms.items():
            total = total + xpows[i] * ypows[j] * c
        return total

    def subst_x(self, value: _Scalar) -> "MPoly":
        """Fix the first variable to a rational; result involves only "y"."""
        v = Fraction(value)
        acc: dict[Exponents, Fraction] = {}
        vp = _power_table(v, self.degree_in("x"))
        for (i, j), c in self._terms.items():
            e = (0, j)
            acc[e] = acc.get(e, Fraction(0)) + c * vp[i]
        return _raw({e: c for e, c in acc.items() if c})

    def subst_y(self, value: _Scalar) -> "MPoly":
        """Fix the second variable to a rational; result involves only "x"."""
        v = Fraction(value)
        acc: dict[Exponents, Fraction] = {}
        vp = _power_table(v, self.degree_in("y"))
        for (i, j), c in self._terms.items():
            e = (i, 0)
            acc[e] = acc.get(e, Fraction(0)) + c * vp[j]
        return _raw({e: c for e, c in acc.items() if c})

    # -- conversions -----------------------------------------------------

    def coeffs_in(self, var: str) -> list["MPoly"]:
        """Dense coefficient list in `var`, ascending; entries depend on the other variable only."""
        idx = _var_index(var)
        deg = self.degree_in(var)
        if deg is NEG_INF:
            return []
        out: list[dict[Exponents, Fraction]] = [dict() for _ in range(int(deg) + 1)]
        for (i, j), c in self._terms.items():
            if idx == 0:
                out[i][(0, j)] = c
            else:
                out[j][(i, 0)] = c
        return [_raw(d) for d in out]

    def univariate_coeffs(self, var: str) -> list[Fraction]:
        """Dense Fraction coefficients when the polynomial involves only `var`."""
        other = "y" if var == "x" else "x"
        if self.degree_in(other) not in (NEG_INF, 0):
            raise ValueError(f"polynomial involves {other}; not univariate in {var}")
        deg = self.degree_in(var)
        if deg is NEG_INF:
            return []
        out = [Fraction(0)] * (int(deg) + 1)
        idx = _var_index(var)
        for e, c in self._terms.items():
            out[e[idx]] = c
        return out

    # -- formatting ---------------------------------------------------

    def format(self, names: Tuple[str, str] = ("x", "y")) -> str:
        """Canonical text form, parseable by the vector-field grammar.

        Terms in descending graded-lex order.  A leading negative
        coefficient is written as an explicit factor (e.g. "-1*x^2"),
        which re-parses to the same polynomial; the grammar's unary minus
        binds looser than "^".
        """
        if not self._terms:
            return "0"
        parts: list[str] = []
        first = True
        for (i, j), c in self.items():
            mono = _format_monomial(i, j, names)
            mag = -c if c < 0 else c
            if first:
                if c < 0:
                    if mono:
                        parts.append(f"-{mag}*{mono}" if mag != 1 else f"-1*{mono}")
                    else:
                        parts.append(f"-{mag}")
                else:
                    if mono:
                        parts.append(f"{mag}*{mono}" if mag != 1 else mono)
                    else:
                        parts.append(f"{mag}")
                first = False
            else:
                op = " - " if c < 0 else " + "
                if mono:
                    body = f"{mag}*{mono}" if mag != 1 else mono
                else:
                    body = f"{mag}"
                parts.append(op + body)
        return "".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"MPoly({self.format()})"


def _coerce(v: object) -> "MPoly":
    if isinstance(v, MPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return MPoly.const(v)
    return NotImplemented  # type: ignore[return-value]


def _raw(terms: dict[Exponents, Fraction]) -> MPoly:
    p = MPoly.__new__(MPoly)
    object.__setattr__(p, "_terms", terms)
    object.__setattr__(p, "_hash", None)
    return p


# The kernel loops below key each monomial x^i y^j by one int,
# (i + j) << _SHIFT | j.  Adding two keys multiplies the monomials, and
# integer order on keys is the graded-lex order.  _pack refuses degrees
# from 2^31 up, so no sum of keys the kernel forms carries into the
# degree field.
_SHIFT = 64
_LOW = (1 << _SHIFT) - 1
_MAX_DEGREE_BITS = 31

_Packed = dict[int, _C]


def _pack(terms: Mapping[Exponents, _C]) -> "_Packed[_C]":
    packed = {((i + j) << _SHIFT) | j: c for (i, j), c in terms.items()}
    if packed and max(packed) >> (_SHIFT + _MAX_DEGREE_BITS):
        raise OverflowError("monomial degree beyond the polynomial kernel's range")
    return packed


def _unpack(packed: "_Packed[_C]") -> dict[Exponents, _C]:
    """Exponent-pair terms of a packed dict, dropping zero coefficients."""
    return {((k >> _SHIFT) - (k & _LOW), k & _LOW): c for k, c in packed.items() if c}


def _mul_add(acc: "_Packed[_C]", a: "_Packed[_C]", b: "_Packed[_C]") -> None:
    """acc += a*b on packed term dicts over Z or Q.

    Cancelled terms stay in acc with coefficient zero; the caller filters
    them once, outside this loop.
    """
    get = acc.get
    bl = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in bl:
            k = k1 + k2
            p = c1 * c2
            s = get(k)
            acc[k] = p if s is None else s + p


def _divide(
    terms: "_Packed[_C]", divisor: "_Packed[_C]", exact: bool
) -> Optional[Tuple["_Packed[_C]", "_Packed[_C]"]]:
    """Leading-term division of packed term dicts: terms = q*divisor + r.

    The running remainder's terms are popped from a heap in descending
    graded-lex order; every term the reduction creates lies below the
    one being reduced, so each monomial is popped at most once.  Over Q
    every coefficient divides.  Over Z (an `int` leading coefficient) a
    coefficient that leaves a `divmod` remainder means the quotient is not
    in Z[x, y], and the result is None.  With exact=True a term that the
    divisor's leading monomial does not divide also gives None; otherwise
    it moves to r.  Zero coefficients in `terms` are skipped.
    """
    lead = max(divisor)
    dc = divisor[lead]
    dj = lead & _LOW
    di = (lead >> _SHIFT) - dj
    integral = isinstance(dc, int)
    tail = [(k, c) for k, c in divisor.items() if k != lead]
    work = dict(terms)
    heap = [-k for k in work]
    heapify(heap)
    q: _Packed[_C] = {}
    r: _Packed[_C] = {}
    get = work.get
    while heap:
        k = -heappop(heap)
        c = work.pop(k)
        if not c:
            continue
        j = k & _LOW
        if j < dj or (k >> _SHIFT) - j < di:
            if exact:
                return None
            r[k] = c
            continue
        if integral:
            qc, rem = divmod(c, dc)
            if rem:
                return None
        else:
            qc = c / dc
        qk = k - lead
        q[qk] = qc
        for t, tc in tail:
            w = qk + t
            s = get(w)
            if s is None:
                work[w] = -qc * tc
                heappush(heap, -w)
            else:
                work[w] = s - qc * tc
    return q, r


def _var_index(var: str) -> int:
    if var == "x":
        return 0
    if var == "y":
        return 1
    raise ValueError(f"unknown variable {var!r}; expected 'x' or 'y'")


def _power_table(v: Fraction, deg: Degree) -> list[Fraction]:
    n = 0 if deg is NEG_INF else int(deg)
    out = [Fraction(1)]
    for _ in range(n):
        out.append(out[-1] * v)
    return out


def _format_monomial(i: int, j: int, names: Tuple[str, str]) -> str:
    factors = []
    if i == 1:
        factors.append(names[0])
    elif i > 1:
        factors.append(f"{names[0]}^{i}")
    if j == 1:
        factors.append(names[1])
    elif j > 1:
        factors.append(f"{names[1]}^{j}")
    return "*".join(factors)


_ZERO = _raw({})
_ONE = _raw({(0, 0): Fraction(1)})
_X = _raw({(1, 0): Fraction(1)})
_Y = _raw({(0, 1): Fraction(1)})
