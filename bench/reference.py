"""A fixed pure-Python kernel that measures how fast the machine runs now.

On a shared host the speed of the same code drifts: on a 2-core VM the
same portrait took 2.8 s to 4.4 s within one minute, and a run's pass
times and this kernel's times moved together.  ``run.py`` times the
kernel next to every measurement and scales the measurement to the speed
at which the kernel takes ``REFERENCE_S``.  The kernel never calls pdisc,
so a change to the package moves the scaled figure exactly as it moves
the wall time.

The mix follows the package's hot paths: fraction-free integer
elimination (``exactalg.ffdet``), ``Fraction`` sums, a float recurrence
(the integrator), dict updates keyed by exponent tuples (``mpoly``) and
arithmetic on integers of thousands of bits (resultants of quartics).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Seconds the kernel takes at the speed scaled figures are given in; about
# its median on a 2-core VM with CPython 3.11.
REFERENCE_S = 0.04
ROUNDS = 8


def one_round(r: int) -> int:
    """Round ``r`` of the kernel's fixed work; returns a checksum."""
    n = 9
    check = 0
    # Bareiss elimination of a Vandermonde matrix: every leading minor
    # is nonzero, so no pivoting is needed
    m = [[(i + 2 + r) ** j for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    check ^= m[n - 1][n - 1] & 0xFFFF
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i + r, i * i + 1)
    check ^= s.denominator & 0xFFFF
    x, y = 0.1, 0.2
    for _ in range(6000):
        x, y = x + 1e-3 * (y - x * y), y + 1e-3 * (x - y * y)
    check ^= int(x * 1e6) & 0xFFFF
    d: dict = {}
    for i in range(3000):
        key = (i % 37, (i + r) % 11)
        d[key] = d.get(key, 0) + i
    check ^= len(d)
    # products and remainders of integers of some 7000 bits, the size
    # the coefficients of a quartic's resultants reach
    a, b = 3 ** (4000 + r) + 7, 5 ** (3000 + r) + 11
    for i in range(12):
        check ^= (a * (b + i)) % (b - i) & 0xFFFF
    return check


def timed() -> float:
    """Seconds one run of the kernel takes now: ``ROUNDS`` times the median
    round, so a stall that hits one round does not count."""
    times = []
    for r in range(ROUNDS):
        t0 = time.perf_counter()
        one_round(r)
        times.append(time.perf_counter() - t0)
    return ROUNDS * statistics.median(times)
