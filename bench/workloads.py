"""Seeded inputs and job lists of the three benchmark workloads.

A job is one CLI subcommand on one source text: ``analyze``,
``darboux`` or ``portrait``, with the options the CLI would pass.  Each
job also carries what its oracle needs: the exact (A, B, C) of a Leslie
input, or the closed-form equilibria of a constructed generic system.
Nothing here imports pdisc, so generation and its tests stay
independent of the package under measurement.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

# Numerators and denominators of every leslie-exact parameter.  A narrow
# height band keeps the cost of one pass nearly the same from seed to
# seed; coefficient height is a different workload property.
LESLIE_DIGITS = (2, 3, 5, 7)
REGIMES = ("positive", "zero", "negative")


@dataclass(frozen=True)
class Job:
    """One subcommand invocation and the facts its oracle checks."""

    name: str
    kind: str  # analyze | darboux | portrait
    source: str
    quadrant: bool = False
    order: int = 1
    leslie: Optional[Tuple[Fraction, Fraction, Fraction]] = None
    points: Optional[Tuple[Tuple[float, float], ...]] = None


# ---------------------------------------------------------------------------
# Leslie-Gower triples


def leslie_triples(rng: random.Random, per_regime: int) -> List[Tuple[Fraction, Fraction, Fraction]]:
    """(A, B, C) triples, ``per_regime`` in each sign of 1-AC, interleaved."""
    return [leslie_triple(rng, regime) for _ in range(per_regime) for regime in REGIMES]


def leslie_triple(rng: random.Random, regime: str) -> Tuple[Fraction, Fraction, Fraction]:
    """One (A, B, C) triple whose 1-AC has the sign ``regime`` names.

    The zero regime sets C = 1/A exactly, which the package's own sampler
    never produces because it rejects A*C = 1.
    """

    def draw() -> Fraction:
        p, q = rng.sample(LESLIE_DIGITS, 2)
        return Fraction(p, q)

    while True:
        a, b, c = draw(), draw(), draw()
        if regime == "zero":
            c = 1 / a
        if regime_of(a, c) == regime:
            return a, b, c


# portrait-disc draws its triples near one anchor per regime.  Over the
# LESLIE_DIGITS band the cost of a full-disc portrait ranges about twofold
# from triple to triple, too wide for the few passes of one run to average
# out; near an anchor it holds within about 10%.
PORTRAIT_ANCHORS = {
    "positive": (Fraction(3, 5), Fraction(3, 5), Fraction(7, 5)),
    "zero": (Fraction(3, 5), Fraction(3, 2), Fraction(5, 3)),
    "negative": (Fraction(5, 2), Fraction(3, 7), Fraction(5, 3)),
}
PORTRAIT_STEP = Fraction(1, 50)  # a parameter moves by k steps of 2% of its anchor, |k| <= 3


def anchored_triple(rng: random.Random, regime: str) -> Tuple[Fraction, Fraction, Fraction]:
    """A seeded (A, B, C) near the regime's anchor; the zero regime keeps C = 1/A."""
    while True:
        a, b, c = (x * (1 + PORTRAIT_STEP * rng.randint(-3, 3)) for x in PORTRAIT_ANCHORS[regime])
        if regime == "zero":
            c = 1 / a
        if regime_of(a, c) == regime:
            return a, b, c


def regime_of(a: Fraction, c: Fraction) -> str:
    v = 1 - a * c
    return "positive" if v > 0 else ("zero" if v == 0 else "negative")


def leslie_source(a: Fraction, b: Fraction, c: Fraction) -> str:
    """The bundled model file with its parameters bound, as a user writes it."""
    return (
        f"params: A={a}, B={b}, C={c}\n"
        "dx = x*(C+x)*(1-x-A*y)\n"
        "dy = B*y*(C+x-y)\n"
    )


# ---------------------------------------------------------------------------
# generic systems built from lines and conics

Line = Tuple[int, int, int]  # a*x + b*y + c
Conic = Tuple[int, int, int, int, int, int]  # x^2 + d*x*y + e*y^2 + f*x + g*y + h


def _line(rng: random.Random) -> Line:
    while True:
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        if a and b and math.gcd(math.gcd(a, b), c) == 1:
            return (a, b, c) if b > 0 else (-a, -b, -c)


def _conic(rng: random.Random) -> Conic:
    """An ellipse around a point near the origin (d^2 < 4e, h < 0)."""
    while True:
        d, e = rng.randint(-1, 1), rng.randint(1, 2)
        f, g, h = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-4, -1)
        if d * d < 4 * e:
            return (1, d, e, f, g, h)


def line_conic(ln: Line, cn: Conic) -> Tuple[int, List[Tuple[float, float]]]:
    """(discriminant, real intersections) of a line with b != 0 and a conic.

    Substituting y = -(a x + c)/b and clearing b^2 gives an integer
    quadratic in x, so the discriminant decides exactly whether the
    points are real and whether they are irrational."""
    a, b, c = ln
    k, d, e, f, g, h = cn
    # b^2 * conic(x, -(a x + c)/b) = qa x^2 + qb x + qc
    qa = k * b * b - d * a * b + e * a * a
    qb = -d * c * b + 2 * e * a * c + f * b * b - g * a * b
    qc = e * c * c - g * c * b + h * b * b
    disc = qb * qb - 4 * qa * qc
    if qa == 0 or disc <= 0:
        return disc, []
    r = math.sqrt(disc)
    xs = ((-qb - r) / (2 * qa), (-qb + r) / (2 * qa))
    return disc, [(x, -(a * x + c) / b) for x in xs]


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def line_text(ln: Line) -> str:
    a, b, c = ln
    return f"({a}*x + {b}*y + {c})"


def conic_text(cn: Conic) -> str:
    k, d, e, f, g, h = cn
    return f"({k}*x^2 + {d}*x*y + {e}*y^2 + {f}*x + {g}*y + {h})"


def generic_system(rng: random.Random, degree: int) -> Tuple[str, Tuple[Tuple[float, float], ...]]:
    """Source text and closed-form real equilibria of P = L1...Ld, Q = ellipse.

    Every line meets the ellipse in two irrational points.  Draws with a
    repeated line, coincident points or a shared x-coordinate (a
    non-generic projection) are rejected."""
    while True:
        lines = [_line(rng) for _ in range(degree)]
        conic = _conic(rng)
        if len({(Fraction(a, b), Fraction(c, b)) for a, b, c in lines}) != degree:
            continue  # a line repeated up to scale
        cuts = [line_conic(ln, conic) for ln in lines]
        if any(len(pts) != 2 or _is_square(disc) for disc, pts in cuts):
            continue
        points = sorted(p for _, pts in cuts for p in pts)
        xs = sorted(p[0] for p in points)
        if any(b - a < 1e-6 for a, b in zip(xs, xs[1:])):
            continue
        p_text = "*".join(line_text(ln) for ln in lines)
        return f"dx = {p_text}\ndy = {conic_text(conic)}\n", tuple(points)


# ---------------------------------------------------------------------------
# the portrait crash inputs: irrational saddles whose Jacobian entries are
# intervals; each raised TypeError when this benchmark was written

SADDLE_INPUTS = (
    ("saddle-full", "dx = x^2 - 2\ndy = y^2 - x*y - 3\n", False),
    ("saddle-quadrant", "dx = x^2 + y^2 - 3\ndy = x*y - 1\n", True),
)


# ---------------------------------------------------------------------------
# workloads


def leslie_exact(rng: random.Random, index: int) -> List[Job]:
    jobs: List[Job] = []
    for i, (a, b, c) in enumerate(leslie_triples(rng, per_regime=1)):
        src = leslie_source(a, b, c)
        tag = f"L{i}:{regime_of(a, c)}"
        jobs.append(Job(f"{tag}:analyze", "analyze", src, leslie=(a, b, c)))
        jobs.append(Job(f"{tag}:analyze-q", "analyze", src, quadrant=True, leslie=(a, b, c)))
        jobs.append(Job(f"{tag}:darboux-1", "darboux", src, order=1, leslie=(a, b, c)))
        jobs.append(Job(f"{tag}:darboux-2", "darboux", src, order=2, leslie=(a, b, c)))
    return jobs


def generic_ladder(rng: random.Random, index: int) -> List[Job]:
    jobs: List[Job] = []
    for degree in GENERIC_DEGREES:
        src, points = generic_system(rng, degree)
        jobs.append(Job(f"G{degree}:analyze", "analyze", src, points=points))
        jobs.append(Job(f"G{degree}:darboux-1", "darboux", src, order=1))
    return jobs


def portrait_disc(rng: random.Random, index: int) -> List[Job]:
    """One anchored triple per pass, its regime rotating with the pass
    index, so a pass is short and a run's median pass sees all three regimes."""
    a, b, c = anchored_triple(rng, REGIMES[index % len(REGIMES)])
    src = leslie_source(a, b, c)
    tag = f"L{index}:{regime_of(a, c)}"
    jobs = [
        Job(f"{tag}:portrait-q", "portrait", src, quadrant=True, leslie=(a, b, c)),
        Job(f"{tag}:portrait-full", "portrait", src, quadrant=False, leslie=(a, b, c)),
    ]
    if index == 0:
        # once per run, so their failures stay a fixed count
        for name, src, quadrant in SADDLE_INPUTS:
            jobs.append(Job(f"{name}:portrait", "portrait", src, quadrant=quadrant))
    return jobs


# One system per degree per pass; degree 5 is out of reach for now.
GENERIC_DEGREES = (2, 3, 4)

WORKLOADS = {
    "leslie-exact": leslie_exact,
    "generic-ladder": generic_ladder,
    "portrait-disc": portrait_disc,
}


def build(name: str, seed: int, index: int) -> List[Job]:
    """The jobs of pass ``index`` of a run seeded with ``seed``.

    Every pass draws fresh inputs from its own stream, stratified the same
    way, so a run averages over more inputs than one pass holds."""
    rng = random.Random(f"{name}:{seed}:{index}")
    return WORKLOADS[name](rng, index)
