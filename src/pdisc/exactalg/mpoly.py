"""Sparse exact-rational polynomials in two variables, stored over Z.

MPoly is the currency of the whole package: vector-field components,
cofactors, extactic curves, chart systems and blow-ups are all MPoly
values.  Exponent pairs (i, j) refer to the first and second variable
(canonically x and y, but charts reuse the same structure for (u, v),
(u, w), (z, v)).

A polynomial is content * prim, as in `UPoly`: `prim` is a dict of
Python ints with coefficient gcd 1 and `content` a positive Fraction, so
every sign is read from integers.  The representation is canonical, so
equality and hashing read the pair.  Products multiply the integer dicts
and the contents (a product of primitive polynomials is primitive, by
Gauss's lemma).  Two dicts of at least _ROW_MIN_TERMS = 12 terms each
multiply row by row (Kronecker substitution): a row, the terms with one
exponent of x or of y, is packed into one int, one int product
multiplies a pair of rows, and each output row is read back into
coefficients; smaller or sparser dicts multiply term pair by term pair.
Sums bring both sides to one denominator and take the content once.
Division is exact only: `exact_div` returns the quotient or None, and
runs on the primitive parts, where a quotient over Q is always over Z;
pseudo-division with a remainder is univariate (`UPoly.divmod`).
`multiplicity(f)`, the exponent of a factor f, reads that of a line
x - r or y - r off the keys, r = 0 included, and divides any other f
out one exact division at a time.
Fixing a variable to a rational, evaluation and the 2-jet, formatting
and `univariate_ints` (which `UPoly.from_mpoly` carries over) read the
integer terms with no Fraction per term.  Values cross the API as
`Fraction`s.

`prim` keys each monomial x^i y^j by one int, (i + j) << 64 | j.  Adding
two keys multiplies the monomials, and integer order on keys is the
monomial order used everywhere: graded lexicographic with the second
variable ranked above the first, so terms compare by total degree, ties
broken by the exponent of the second variable.  Under this order
"y - a*x - b" and "x - c" are both monic, which is the normal form the
line search reports.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Optional, Tuple, Union

Exponents = Tuple[int, int]
_Scalar = Union[int, Fraction]
_Terms = dict  # packed monomial key -> nonzero int coefficient


class MPoly:
    """Immutable sparse bivariate polynomial content * sum prim[k] x^i y^j."""

    __slots__ = ("_p", "_c")

    def __init__(self, terms: Union[Mapping[Exponents, _Scalar], Iterable[Tuple[Exponents, _Scalar]]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        cs = [(_key(i, j), Fraction(c)) for (i, j), c in items]
        den = lcm(*(c.denominator for _, c in cs))
        acc: _Terms = {}
        for k, c in cs:
            acc[k] = acc.get(k, 0) + c.numerator * (den // c.denominator)
        p = _from_ints(acc, Fraction(1, den))
        self._p, self._c = p._p, p._c

    @classmethod
    def _make(cls, prim: _Terms, content: Fraction) -> "MPoly":
        obj = object.__new__(cls)
        obj._p, obj._c = prim, content
        return obj

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "MPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "MPoly":
        return _ONE

    @classmethod
    def const(cls, c: _Scalar) -> "MPoly":
        return cls.monomial(0, 0, c)

    @classmethod
    def var_x(cls) -> "MPoly":
        return _X

    @classmethod
    def var_y(cls) -> "MPoly":
        return _Y

    @classmethod
    def from_int_terms(cls, terms: Iterable[Tuple[Exponents, int]], content: _Scalar = 1) -> "MPoly":
        """content * sum c x^i y^j over the integer terms ((i, j), c), so
        that MPoly.from_int_terms(p.int_terms(), p.content) == p; terms
        with equal exponents add up."""
        acc: _Terms = {}
        for (i, j), c in terms:
            k = _key(i, j)
            acc[k] = acc.get(k, 0) + c
        return _from_ints(acc, Fraction(content))

    @classmethod
    def monomial(cls, i: int, j: int, c: _Scalar = 1) -> "MPoly":
        k = _key(i, j)
        c = Fraction(c)
        return cls._make({k: 1 if c > 0 else -1}, abs(c)) if c else _ZERO

    # -- inspection --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._p

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(self._p) >> _SHIFT if self._p else -1

    def degree_in(self, var: str) -> int:
        """Largest exponent of `var` ("x" or "y"); -1 for the zero polynomial."""
        if not self._p:
            return -1
        if _var_index(var):
            return max(k & _LOW for k in self._p)
        return max((k >> _SHIFT) - (k & _LOW) for k in self._p)

    def coeff(self, i: int, j: int) -> Fraction:
        return self._c * self._p.get(((i + j) << _SHIFT) | j, 0)

    def items(self) -> Iterator[Tuple[Exponents, Fraction]]:
        """Terms in descending graded-lex order (deterministic)."""
        c, p = self._c, self._p
        for k in sorted(p, reverse=True):
            yield _exponents(k), c * p[k]

    @property
    def content(self) -> Fraction:
        """The positive rational c with self = c * int_terms(); 0 for 0."""
        return self._c

    def int_terms(self) -> Iterator[Tuple[Exponents, int]]:
        """The primitive integer terms, in no fixed order: a positive
        multiple of the polynomial over the integers."""
        return ((((k >> _SHIFT) - (k & _LOW), k & _LOW), v) for k, v in self._p.items())

    def term_count(self) -> int:
        return len(self._p)

    def monic(self) -> "MPoly":
        """Scale so the graded-lex leading coefficient is 1."""
        if not self._p:
            return self
        lc = self._p[max(self._p)]
        return MPoly._make(self._p if lc > 0 else _negated(self._p), Fraction(1, abs(lc)))

    @property
    def is_constant(self) -> bool:
        return self._p.keys() <= {0}

    # -- equality / hashing ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if isinstance(other, MPoly):
            return self._c == other._c and self._p == other._p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._c, frozenset(self._p.items())))

    def __bool__(self) -> bool:
        return bool(self._p)

    # -- ring arithmetic ---------------------------------------------

    def __add__(self, other: Union["MPoly", _Scalar]) -> "MPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _linear_combination(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._make(_negated(self._p), self._c)

    def __sub__(self, other: Union["MPoly", _Scalar]) -> "MPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _linear_combination(((1, self), (-1, other)))

    def __rsub__(self, other: _Scalar) -> "MPoly":
        return (-self) + other

    def __mul__(self, other: Union["MPoly", _Scalar]) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            if not other or not self._p:
                return _ZERO
            c = self._c * other
            return MPoly._make(self._p, c) if c > 0 else MPoly._make(_negated(self._p), -c)
        if not isinstance(other, MPoly):
            return NotImplemented
        a, b = self._p, other._p
        if not a or not b:
            return _ZERO
        if (max(a) | max(b)) >> (_SHIFT + _MAX_DEGREE_BITS):
            raise OverflowError("monomial degree beyond the polynomial kernel's range")
        return MPoly._make(_product(a, b), self._c * other._c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus -----------------------------------------------------

    def diff(self, var: str) -> "MPoly":
        """Formal partial derivative with respect to "x" or "y"."""
        if _var_index(var):
            acc = {k - _DY: v * (k & _LOW) for k, v in self._p.items() if k & _LOW}
        else:
            acc = {k - _DX: v * ((k >> _SHIFT) - (k & _LOW)) for k, v in self._p.items() if k >> _SHIFT != k & _LOW}
        return _from_ints(acc, self._c)

    # -- division ------------------------------------------------------

    def exact_div(self, divisor: "MPoly") -> Optional["MPoly"]:
        """Exact quotient self/divisor, or None when no exact quotient exists.

        The primitive parts divide over Z exactly when they divide over Q,
        and the quotient is then primitive (Gauss's lemma)."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        q = _divide(self._p, divisor._p)
        if q is None:
            return None
        return MPoly._make(q, self._c / divisor._c) if q else _ZERO

    def multiplicity(self, f: "MPoly") -> int:
        """The exponent of a nonconstant f in this nonzero polynomial."""
        if not self._p or f.is_constant:
            raise ValueError("multiplicity needs a nonzero polynomial and a nonconstant factor")
        keys = f._p.keys()
        for var, key in ((0, _DX), (1, _DY)):
            if keys <= {key, 0}:
                return _line_multiplicity(self._p, var, f._p[key], f._p.get(0, 0))
        poly, count = self, 0
        while (q := poly.exact_div(f)) is not None:
            poly, count = q, count + 1
        return count

    # -- evaluation / substitution --------------------------------------

    def eval_rat(self, x: _Scalar, y: _Scalar) -> Fraction:
        """The value at a rational point: one integer sum over the terms,
        made one Fraction with the content."""
        if not self._p:
            return Fraction(0)
        terms, den = _homogenised(self._p, x, y)
        c = self._c
        return Fraction(c.numerator * sum(w for _, w in terms), c.denominator * den)

    def jet2(self, x: _Scalar, y: _Scalar) -> Tuple[Fraction, ...]:
        """(f, f_x, f_y, f_xx/2, f_xy, f_yy/2) at a rational point: six
        integer sums in one pass over the terms, each over the common
        denominator of `eval_rat`, whose power tables serve every
        derivative (x^(i-1) over den(x)^I is n^(i-1) den(x)^(I-i+1))."""
        p = self._p
        if not p:
            return (Fraction(0),) * 6
        xs, ys, den = _power_tables(p, x, y)
        f = fx = fy = fxx = fxy = fyy = 0
        for k, v in p.items():
            j = k & _LOW
            i = (k >> _SHIFT) - j
            y0 = v * ys[j]
            f += y0 * xs[i]
            if i:
                fx += i * y0 * xs[i - 1]
                if i > 1:
                    fxx += (i * (i - 1) >> 1) * y0 * xs[i - 2]
            if j:
                y1 = j * v * ys[j - 1]
                fy += y1 * xs[i]
                if i:
                    fxy += i * y1 * xs[i - 1]
                if j > 1:
                    fyy += (j * (j - 1) >> 1) * v * ys[j - 2] * xs[i]
        n, d = self._c.numerator, self._c.denominator * den
        return tuple(Fraction(n * s, d) for s in (f, fx, fy, fxx, fxy, fyy))

    def subst(self, px: "MPoly", py: "MPoly") -> "MPoly":
        """Substitute polynomials for the two variables.  The contents of
        px and py enter each term's integer weight, as in `eval_rat`."""
        if not self._p:
            return _ZERO
        terms, den = _homogenised(self._p, px._c, py._c)
        xpows: list[_Terms] = [{0: 1}]
        for _ in range(self.degree_in("x")):
            xpows.append(_product(xpows[-1], px._p))
        ypows: list[_Terms] = [{0: 1}]
        for _ in range(self.degree_in("y")):
            ypows.append(_product(ypows[-1], py._p))
        acc: _Terms = {}
        for k, w in terms:
            j = k & _LOW
            _mul_add(acc, {t: w * v for t, v in xpows[(k >> _SHIFT) - j].items()}, ypows[j])
        return _from_ints(acc, self._c / den)

    def swapped(self) -> "MPoly":
        """The polynomial with its two variables exchanged: x^i y^j becomes x^j y^i."""
        return MPoly._make({k + (k >> _SHIFT) - 2 * (k & _LOW): v for k, v in self._p.items()}, self._c)

    def subst_x(self, value: _Scalar) -> "MPoly":
        """Fix the first variable to a rational; result involves only "y"."""
        return self._fixed(value, 0)

    def subst_y(self, value: _Scalar) -> "MPoly":
        """Fix the second variable to a rational; result involves only "x"."""
        return self._fixed(value, 1)

    def _fixed(self, value: _Scalar, var: int) -> "MPoly":
        """The first (var 0) or second (var 1) variable fixed to value,
        in one pass over the integer terms: each term's weight from
        `_homogenised` adds into the monomial of the other variable."""
        if not self._p:
            return _ZERO
        terms, den = _homogenised(self._p, *((value, 1) if var == 0 else (1, value)))
        acc: _Terms = {}
        get = acc.get
        for k, w in terms:
            j = k & _LOW
            r = ((k >> _SHIFT) - j) << _SHIFT if var else (j << _SHIFT) | j
            acc[r] = get(r, 0) + w
        return _from_ints(acc, self._c / den)

    # -- conversions -----------------------------------------------------

    def coeffs_in(self, var: str) -> list["MPoly"]:
        """Dense coefficient list in `var`, ascending; entries depend on the other variable only."""
        by_y = _var_index(var)
        out: list[_Terms] = [{} for _ in range(self.degree_in(var) + 1)]
        for k, v in self._p.items():
            i, j = _exponents(k)
            if by_y:
                out[j][i << _SHIFT] = v
            else:
                out[i][(j << _SHIFT) | j] = v
        return [_from_ints(d, self._c) for d in out]

    def univariate_ints(self, var: str) -> list[int]:
        """Dense ascending primitive integer coefficients when the
        polynomial involves only `var`; times `content` they are the
        polynomial's coefficients."""
        by_y = _var_index(var)
        out = [0] * (self.degree_in(var) + 1)
        for k, v in self._p.items():
            j = k & _LOW
            i = (k >> _SHIFT) - j
            if i if by_y else j:
                raise ValueError(f"polynomial involves {'x' if by_y else 'y'}; not univariate in {var}")
            out[j if by_y else i] = v
        return out

    def univariate_coeffs(self, var: str) -> list[Fraction]:
        """Dense Fraction coefficients when the polynomial involves only
        `var`: the content times `univariate_ints`."""
        return [self._c * v for v in self.univariate_ints(var)]

    # -- formatting ---------------------------------------------------

    def format(self, names: Tuple[str, str] = ("x", "y")) -> str:
        """Canonical text form, parseable by the vector-field grammar.

        Terms in descending graded-lex order.  A leading negative
        coefficient is written as an explicit factor (e.g. "-1*x^2"),
        which re-parses to the same polynomial; the grammar's unary minus
        binds looser than "^".
        """
        if not self._p:
            return "0"
        cn, cd = self._c.numerator, self._c.denominator
        parts: list[str] = []
        for k in sorted(self._p, reverse=True):
            c = self._p[k]
            # cn * |c| / cd in lowest terms, as str(Fraction) writes it
            g = gcd(c, cd)
            num, den = cn * abs(c) // g, cd // g
            mag = f"{num}/{den}" if den != 1 else f"{num}"
            mono = _format_monomial(*_exponents(k), names)
            body = f"{mag}*{mono}" if mono and mag != "1" else mono or mag
            if parts:
                parts.append((" - " if c < 0 else " + ") + body)
            elif c < 0:
                parts.append(("-1*" if body == mono else "-") + body)
            else:
                parts.append(body)
        return "".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"MPoly({self.format()})"


def _linear_combination(terms: Iterable[Tuple[int, MPoly]]) -> MPoly:
    """sum c * p over the (c, p) terms, c an integer: the integer dicts
    are added over one common denominator and the content is extracted
    once."""
    weighted = [(c * p._c.numerator, p._c.denominator, p._p) for c, p in terms if c and p._p]
    if not weighted:
        return _ZERO
    den = lcm(*(d for _, d, _ in weighted))
    acc: _Terms = {}
    get = acc.get
    for n, d, p in weighted:
        m = n * (den // d)
        for k, v in p.items():
            s = get(k)
            acc[k] = m * v if s is None else s + m * v
    return _from_ints(acc, Fraction(1, den))


def _coerce(v: object) -> "MPoly":
    if isinstance(v, MPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return MPoly.const(v)
    return NotImplemented  # type: ignore[return-value]


def _from_ints(ints: _Terms, scale: Fraction) -> MPoly:
    """The polynomial scale * sum ints[k] (monomial k); zero terms are dropped."""
    ints = {k: v for k, v in ints.items() if v}
    if not ints or not scale:
        return _ZERO
    g = gcd(*ints.values())
    if scale.numerator < 0:
        g = -g
    if g == 1:
        return MPoly._make(ints, scale)
    return MPoly._make({k: v // g for k, v in ints.items()}, scale * g)


# Keys: x^i y^j is (i + j) << _SHIFT | j.  _key refuses degrees from 2^31
# up and products refuse such factors, so no sum of keys the kernel forms
# carries into the degree field.
_SHIFT = 64
_LOW = (1 << _SHIFT) - 1
_MAX_DEGREE_BITS = 31
_DX = 1 << _SHIFT  # key of x, subtracted to divide by x
_DY = _DX + 1  # key of y
# Products of two operands with this many terms or more go row by row (_mul_add)
_ROW_MIN_TERMS = 12


def _key(i: int, j: int) -> int:
    if i < 0 or j < 0:
        raise ValueError(f"negative exponent in monomial ({i}, {j})")
    if (i + j) >> _MAX_DEGREE_BITS:
        raise OverflowError("monomial degree beyond the polynomial kernel's range")
    return ((i + j) << _SHIFT) | j


def _exponents(k: int) -> Exponents:
    j = k & _LOW
    return (k >> _SHIFT) - j, j


def _negated(p: _Terms) -> _Terms:
    return {k: -v for k, v in p.items()}


def _mul_add(acc: _Terms, a: _Terms, b: _Terms) -> None:
    """acc += a*b on packed integer term dicts.

    Operands of _ROW_MIN_TERMS terms or more multiply row by row, unless
    their rows could span more slots than there are term pairs.  A row
    (the terms with one exponent of y, or of x, whichever makes fewer
    row pairs), divided by its lowest power of the other variable and
    evaluated at 2^w, is one int, so one int product multiplies a pair
    of rows.  A coefficient of a*b sums at most min(len a, len b)
    products, so w gives each a signed slot, read back as a balanced
    digit.  Other operands multiply every pair of terms.  Cancelled
    terms stay in acc with coefficient zero; the caller filters them
    once, outside this loop.
    """
    get = acc.get
    if len(a) >= _ROW_MIN_TERMS and len(b) >= _ROW_MIN_TERMS:
        ja, jb = {k & _LOW for k in a}, {k & _LOW for k in b}
        ia, ib = {(k >> _SHIFT) - (k & _LOW) for k in a}, {(k >> _SHIFT) - (k & _LOW) for k in b}
        by_y = len(ja) * len(jb) <= len(ia) * len(ib)
        (ra, pa), (rb, pb) = ((ja, ia), (jb, ib)) if by_y else ((ia, ja), (ib, jb))
        if len(ra) * (max(pa) + 1) + len(rb) * (max(pb) + 1) <= len(a) * len(b):
            w = (
                max(map(abs, a.values())).bit_length()
                + max(map(abs, b.values())).bit_length()
                + min(len(a), len(b)).bit_length()
                + 1
            )
            rows_b = _packed_rows(b, by_y, w)
            out: dict = {}  # output row -> [lowest position, packed row]
            for r1, lo1, v1 in _packed_rows(a, by_y, w):
                for r2, lo2, v2 in rows_b:
                    r, lo, v = r1 + r2, lo1 + lo2, v1 * v2
                    cur = out.get(r)
                    if cur is None:
                        out[r] = [lo, v]
                    elif lo >= cur[0]:
                        cur[1] += v << (w * (lo - cur[0]))
                    else:
                        cur[:] = lo, (cur[1] << (w * (cur[0] - lo))) + v
            # x^i y^j has key i*_DX + j*_DY; a row steps along the other variable
            step, across = (_DX, _DY) if by_y else (_DY, _DX)
            half, mask, full = 1 << (w - 1), (1 << w) - 1, 1 << w
            for r, (lo, v) in out.items():
                k = r * across + lo * step
                while v:
                    d = v & mask
                    v >>= w
                    if d >= half:
                        d -= full
                        v += 1
                    if d:
                        s = get(k)
                        acc[k] = d if s is None else s + d
                    k += step
            return
    bl = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in bl:
            k = k1 + k2
            p = c1 * c2
            s = get(k)
            acc[k] = p if s is None else s + p


def _packed_rows(p: _Terms, by_y: bool, w: int) -> list[Tuple[int, int, int]]:
    """[(row, lowest position, packed row)] over the nonzero rows of p:
    the terms with one exponent of y (by_y) or of x, at positions given
    by the exponent of the other variable, divided by the lowest one's
    power and evaluated at 2^w."""
    rows: dict = {}
    get = rows.get
    for k, v in p.items():
        j = k & _LOW
        i = (k >> _SHIFT) - j
        r, e = (j, i) if by_y else (i, j)
        rows[r] = get(r, 0) + (v << (w * e))
    out = []
    for r, v in rows.items():
        if v:
            lo = ((v & -v).bit_length() - 1) // w
            out.append((r, lo, v >> (w * lo)))
    return out


def _product(a: _Terms, b: _Terms) -> _Terms:
    acc: _Terms = {}
    _mul_add(acc, a, b)
    return {k: v for k, v in acc.items() if v}


def _homogenised(p: _Terms, x: _Scalar, y: _Scalar) -> Tuple[list[Tuple[int, int]], int]:
    """([(k, w)], d) with p[k] x^i y^j = w / d for every term k of p: the
    terms over the common denominator d = den(x)^I den(y)^J, where I and J
    are the degrees of p in x and in y."""
    xs, ys, den = _power_tables(p, x, y)
    return [(k, v * xs[(k >> _SHIFT) - (k & _LOW)] * ys[k & _LOW]) for k, v in p.items()], den


def _power_tables(p: _Terms, x: _Scalar, y: _Scalar) -> Tuple[list[int], list[int], int]:
    """(xs, ys, d) with x^i y^j = xs[i] ys[j] / d for every exponent of p,
    d = den(x)^I den(y)^J as in `_homogenised`."""
    di = dj = 0
    for k in p:
        j = k & _LOW
        i = (k >> _SHIFT) - j
        if i > di:
            di = i
        if j > dj:
            dj = j
    xs, xden = _power_table(x.numerator, x.denominator, di)
    ys, yden = _power_table(y.numerator, y.denominator, dj)
    return xs, ys, xden * yden


def _power_table(n: int, d: int, top: int) -> Tuple[list[int], int]:
    """([n^i d^(top - i) for i = 0..top], d^top), by running products:
    the powers of d down the table, then those of n up it."""
    table = [1] * (top + 1)
    dpow = 1
    for i in range(top, 0, -1):
        dpow *= d
        table[i - 1] = dpow
    npow = 1
    for i in range(1, top + 1):
        npow *= n
        table[i] *= npow
    return table, dpow


def _divide(terms: _Terms, divisor: _Terms) -> Optional[_Terms]:
    """The exact quotient terms / divisor of packed integer term dicts,
    or None when the divisor does not divide terms over Z.

    The running remainder's terms are popped from a heap in descending
    graded-lex order; every term the reduction creates lies below the
    one being reduced, so each monomial is popped at most once.  A term
    that the divisor's leading monomial does not divide, or whose
    coefficient the divisor's leading coefficient does not divide, gives
    None.  Zero coefficients in `terms` are skipped.
    """
    lead = max(divisor)
    dc = divisor[lead]
    dj = lead & _LOW
    di = (lead >> _SHIFT) - dj
    tail = [(k, c) for k, c in divisor.items() if k != lead]
    work = dict(terms)
    heap = [-k for k in work]
    heapify(heap)
    q: _Terms = {}
    get = work.get
    while heap:
        k = -heappop(heap)
        c = work.pop(k)
        if not c:
            continue
        j = k & _LOW
        if j < dj or (k >> _SHIFT) - j < di:
            return None
        qc, rem = divmod(c, dc)
        if rem:
            return None
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
    return q


def _line_multiplicity(p: _Terms, var: int, a: int, b: int) -> int:
    """The exponent of the line a*t + b in the nonzero p, t the first
    (var 0) or second variable: for b = 0 the least exponent of t, else
    the least over the rows of p (its terms with one exponent of the
    other variable) of the times the row divides by q*t - r, the line
    with q > 0, each found by integer synthetic division."""
    if not b:
        return min(k & _LOW for k in p) if var else min((k >> _SHIFT) - (k & _LOW) for k in p)
    q, r = (a, -b) if a > 0 else (-a, b)
    rows: dict = {}
    for k, v in p.items():
        j = k & _LOW
        i = (k >> _SHIFT) - j
        row, e = (j, i) if var == 0 else (i, j)
        rows.setdefault(row, {})[e] = v
    least = max(p) >> _SHIFT
    for row in sorted(rows.values(), key=len):
        # the row over its lowest power of t, which is prime to q*t - r
        lo = min(row)
        c = [row.get(e, 0) for e in range(max(row), lo - 1, -1)]
        count = 0
        while count < least:
            # c = (q*t - r) * quotient + rem, the coefficients descending
            quotient, carry = [], 0
            for s in c[:-1]:
                carry, rem = divmod(s + r * carry, q)
                if rem:
                    break
                quotient.append(carry)
            else:
                rem = c[-1] + r * carry
            if rem:
                break
            c, count = quotient, count + 1
        least = count
    return least


def _var_index(var: str) -> int:
    if var == "x":
        return 0
    if var == "y":
        return 1
    raise ValueError(f"unknown variable {var!r}; expected 'x' or 'y'")


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


_ZERO = MPoly._make({}, Fraction(0))
_ONE = MPoly._make({0: 1}, Fraction(1))
_X = MPoly._make({_DX: 1}, Fraction(1))
_Y = MPoly._make({_DY: 1}, Fraction(1))
