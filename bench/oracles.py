"""Independent output checks for the benchmark.

Nothing here imports pdisc: polynomials are plain ``{(i, j): Fraction}``
dicts with their own parser and arithmetic, so a defect in the package's
exact kernel cannot hide itself.  Every check raises ``OracleError`` on
the first mismatch.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Poly = Dict[Tuple[int, int], Fraction]

# Coordinates print as exact rationals or as "~<12 significant digits> (root of ...)".
COORD_TOL = 1e-9
# Trajectory points are rounded to 6 decimals in the portrait JSON.
DISC_TOL = 2e-6


class OracleError(Exception):
    """A report disagrees with an independent recomputation."""


# ---------------------------------------------------------------------------
# dict-of-Fraction polynomials


def padd(*polys: Poly) -> Poly:
    out: Poly = {}
    for p in polys:
        for e, c in p.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def pscale(p: Poly, k: Fraction) -> Poly:
    return {e: c * k for e, c in p.items()} if k else {}


def pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def pdiff(p: Poly, var: str) -> Poly:
    k = 0 if var == "x" else 1
    out: Poly = {}
    for (i, j), c in p.items():
        n = (i, j)[k]
        if n:
            out[(i - 1, j) if k == 0 else (i, j - 1)] = c * n
    return out


def peval(p: Poly, x: Fraction, y: Fraction) -> Fraction:
    return sum((c * x**i * y**j for (i, j), c in p.items()), Fraction(0))


def lie(P: Poly, Q: Poly, f: Poly) -> Poly:
    """X(f) = P df/dx + Q df/dy."""
    return padd(pmul(P, pdiff(f, "x")), pmul(Q, pdiff(f, "y")))


def divergence(P: Poly, Q: Poly) -> Poly:
    return padd(pdiff(P, "x"), pdiff(Q, "y"))


_TOKEN = re.compile(r"\s*(?:(\d+)|([xy])|(.))")


def parse_poly(text: str) -> Poly:
    """Parse ``+ - * ^ ( )`` over x, y and integer literals.

    Unary minus binds before ``^``, as in the package's grammar; a
    rational literal ``3/2`` is read as 3 divided by 2.
    """
    tokens: List[Tuple[str, str]] = []
    for num, var, sym in _TOKEN.findall(text.strip()):
        if num:
            tokens.append(("n", num))
        elif var:
            tokens.append(("v", var))
        elif sym.strip():
            tokens.append(("s", sym))
    pos = 0

    def peek() -> Optional[Tuple[str, str]]:
        return tokens[pos] if pos < len(tokens) else None

    def take(sym: str) -> bool:
        nonlocal pos
        if peek() == ("s", sym):
            pos += 1
            return True
        return False

    def atom() -> Poly:
        nonlocal pos
        tok = peek()
        if tok is None:
            raise OracleError(f"unexpected end of polynomial {text!r}")
        pos += 1
        kind, val = tok
        if kind == "n":
            c = Fraction(int(val))
            if take("/"):
                den = peek()
                if den is None or den[0] != "n":
                    raise OracleError(f"bad rational literal in {text!r}")
                pos += 1
                c /= int(den[1])
            return {(0, 0): c} if c else {}
        if kind == "v":
            return {(1, 0) if val == "x" else (0, 1): Fraction(1)}
        if val == "(":
            inner = expr()
            if not take(")"):
                raise OracleError(f"unbalanced parentheses in {text!r}")
            return inner
        if val == "-":
            return pscale(atom(), Fraction(-1))
        raise OracleError(f"unexpected {val!r} in {text!r}")

    def power() -> Poly:
        nonlocal pos
        base = atom()
        if take("^"):
            tok = peek()
            if tok is None or tok[0] != "n":
                raise OracleError(f"bad exponent in {text!r}")
            pos += 1
            out: Poly = {(0, 0): Fraction(1)}
            for _ in range(int(tok[1])):
                out = pmul(out, base)
            return out
        return base

    def term() -> Poly:
        out = power()
        while take("*"):
            out = pmul(out, power())
        return out

    def expr() -> Poly:
        out = term()
        while True:
            if take("+"):
                out = padd(out, term())
            elif take("-"):
                out = padd(out, pscale(term(), Fraction(-1)))
            else:
                return out

    result = expr()
    if pos != len(tokens):
        raise OracleError(f"trailing input in polynomial {text!r}")
    return result


def parse_source(text: str) -> Tuple[Poly, Poly]:
    """The ``dx = ...`` and ``dy = ...`` lines of a source or report."""
    rhs: Dict[str, Poly] = {}
    for line in text.splitlines():
        name, sep, body = line.partition("=")
        if sep and name.strip() in ("dx", "dy"):
            rhs[name.strip()] = parse_poly(body)
    if set(rhs) != {"dx", "dy"}:
        raise OracleError("system text lacks a dx or dy line")
    return rhs["dx"], rhs["dy"]


def same_up_to_scale(a: Poly, b: Poly) -> bool:
    if not a or not b or set(a) != set(b):
        return False
    e = next(iter(a))
    k = b[e] / a[e]
    return all(b[t] == c * k for t, c in a.items())


# ---------------------------------------------------------------------------
# equilibria


def coord_value(text: str) -> Tuple[Optional[Fraction], float]:
    """(exact value or None, float value) of a reported coordinate."""
    if text.startswith("~"):
        return None, float(text[1:].split(" ", 1)[0])
    v = Fraction(text)
    return v, float(v)


def leslie_points(A: Fraction, C: Fraction) -> List[Tuple[Fraction, Fraction]]:
    """All real equilibria of x(C+x)(1-x-Ay) = By(C+x-y) = 0."""
    star = ((1 - A * C) / (1 + A), (1 + C) / (1 + A))
    pts = {(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (-C, Fraction(0)),
           (Fraction(0), C), star}
    return sorted(pts)


def check_leslie_equilibria(
    entries: Sequence[dict], A: Fraction, C: Fraction, quadrant: bool, P: Poly, Q: Poly
) -> None:
    """Closed-form equilibria, the E* placement rule, and exact trace/det."""
    expected = leslie_points(A, C)
    if quadrant:
        expected = [p for p in expected if p[0] >= 0 and p[1] >= 0]
    got = []
    for e in entries:
        x, _ = coord_value(e["x"])
        y, _ = coord_value(e["y"])
        if x is None or y is None:
            raise OracleError(f"Leslie equilibrium reported inexactly: {e['x']}, {e['y']}")
        got.append((x, y))
    if sorted(got) != expected:
        raise OracleError(f"Leslie equilibria {sorted(got)} != closed forms {expected}")
    star = ((1 - A * C) / (1 + A), (1 + C) / (1 + A))
    interior = star[0] > 0 and star[1] > 0 and star in got
    if interior != (1 - A * C > 0):
        raise OracleError("E* placement disagrees with the sign of 1-AC")
    jac = [[pdiff(P, "x"), pdiff(P, "y")], [pdiff(Q, "x"), pdiff(Q, "y")]]
    for e, (x, y) in zip(entries, got):
        a, b = (peval(f, x, y) for f in jac[0])
        c, d = (peval(f, x, y) for f in jac[1])
        if "trace" in e and Fraction(e["trace"]) != a + d:
            raise OracleError(f"trace at ({x}, {y}) is {e['trace']}, expected {a + d}")
        if "det" in e and Fraction(e["det"]) != a * d - b * c:
            raise OracleError(f"det at ({x}, {y}) is {e['det']}, expected {a * d - b * c}")


def check_points_close(
    entries: Sequence[dict], expected: Sequence[Tuple[float, float]]
) -> None:
    """Same count, and each expected point matched by one reported point."""
    got = [(coord_value(e["x"])[1], coord_value(e["y"])[1]) for e in entries]
    if len(got) != len(expected):
        raise OracleError(f"{len(got)} finite equilibria reported, {len(expected)} expected")

    def close(u: float, v: float) -> bool:
        return abs(u - v) <= COORD_TOL * max(1.0, abs(v))

    unused = list(got)
    for ex, ey in expected:
        hit = next((g for g in unused if close(g[0], ex) and close(g[1], ey)), None)
        if hit is None:
            raise OracleError(f"no reported equilibrium near ({ex!r}, {ey!r})")
        unused.remove(hit)


# ---------------------------------------------------------------------------
# Darboux reports


def check_darboux(report: dict, P: Poly, Q: Poly, order: int,
                  required_lines: Iterable[Poly] = ()) -> None:
    """Recheck every cofactor identity and the verdict certificate."""
    if parse_source(report["system"]) != (P, Q):
        raise OracleError("darboux report names another system")
    if report["bounds"]["extactic_order"] != order:
        raise OracleError("darboux report ran under other bounds")
    curves = report["darboux"]["invariant_curves"]
    cofactors: List[Poly] = []
    found: List[Poly] = []
    for cur in curves:
        f, k = parse_poly(cur["f"]), parse_poly(cur["cofactor"])
        if lie(P, Q, f) != pmul(k, f):
            raise OracleError(f"X(f) != K f for f = {cur['f']}")
        cofactors.append(k)
        found.append(f)
    for line in required_lines:
        if not any(same_up_to_scale(line, f) for f in found):
            raise OracleError(f"invariant line {line} not reported")
    for ef in report["darboux"]["exponential_factors"]:
        g, f, el = parse_poly(ef["g"]), parse_poly(ef["f"]), parse_poly(ef["cofactor"])
        lhs = padd(pmul(lie(P, Q, g), f), pscale(pmul(g, lie(P, Q, f)), Fraction(-1)))
        if lhs != pmul(el, pmul(f, f)):
            raise OracleError(f"X(g/f) != L for exp(({ef['g']})/({ef['f']}))")
        cofactors.append(el)
    verdict = report["verdict"]
    tag = verdict["verdict"]
    if tag not in ("DarbouxFirstIntegral", "DarbouxIntegratingFactor"):
        if tag not in ("Inconclusive", "NotLiouvillianWithinBounds"):
            raise OracleError(f"unknown verdict {tag!r}")
        return
    coefs = [Fraction(c) for c in verdict.get("lambda", []) + verdict.get("mu", [])]
    if len(coefs) != len(cofactors):
        raise OracleError("certificate does not match the reported objects")
    if tag == "DarbouxFirstIntegral" and not any(coefs):
        raise OracleError("a first-integral certificate must be nonzero")
    combo = padd(*(pscale(k, c) for k, c in zip(cofactors, coefs)))
    target = {} if tag == "DarbouxFirstIntegral" else pscale(divergence(P, Q), Fraction(-1))
    if combo != target:
        raise OracleError(f"{tag} certificate recombines to {combo}, expected {target}")


# ---------------------------------------------------------------------------
# portraits


def check_portrait(svg: bytes, js: bytes, again: Tuple[bytes, bytes]) -> dict:
    """Disc containment, well-formed SVG, and a byte-identical re-render.

    Returns the parsed JSON document for further checks."""
    if again != (svg, js):
        raise OracleError("a second render of the same portrait differs")
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        raise OracleError(f"portrait SVG is not well-formed XML: {exc}") from exc
    if not root.tag.endswith("svg"):
        raise OracleError("portrait SVG root is not <svg>")
    doc = json.loads(js)
    if not doc["trajectories"]:
        raise OracleError("portrait has no trajectories")
    for tr in doc["trajectories"]:
        for x, y in tr["points"]:
            if math.hypot(x, y) > 1.0 + DISC_TOL:
                raise OracleError(f"trajectory {tr['seed']} leaves the disc at ({x}, {y})")
    return doc
