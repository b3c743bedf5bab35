"""Every decided limit of a Leslie portrait lies in its seed's cell.

The lines x = 0, y = 0 and x = -C are invariant for every Leslie triple,
so an orbit never leaves the cell of the signs of x, y and x + C at its
seed, with 0 on a line, and its limit lies in that cell's closure on the
disc.  A finite marker's signs are exact; an equator marker's are those
of its direction, in which x and x + C have one sign.  This is checked
on every decided orbit of the golden Leslie portraits and of every
tenth triple of the parameter sweep of `scripts/limit_sweep.py`, in
both views at grid 2.  While a seed on x = -C was integrated, 20 orbits
of that slice failed it: the backward centre branch `sep:other:0` of
the saddle-node (-C, 0) drifted off the line to `E0` or `inf:U1-:0`.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from pdisc.compactify import disc_equilibria
from pdisc.exactalg import MPoly
from pdisc.modelio import ParamBindings, leslie_system
from pdisc.portrait import PortraitDoc, build_portrait, disc_markers, plane_from_disc

from test_golden import LESLIE_PORTRAITS, TRIPLES, _golden_portrait

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "limit_sweep.py"
_spec = importlib.util.spec_from_file_location("limit_sweep", SCRIPT)
limit_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(limit_sweep)

# a seed this close to a line is on it: every seed off a line is a grid
# point or a separatrix offset of 1e-3, and one on a line misses it only
# by the rounding of the disc map
ON_LINE = 1e-9


def _sign(v: float, tol: float = 0.0) -> int:
    return 0 if abs(v) <= tol else (1 if v > 0 else -1)


def _violations(doc: PortraitDoc, params: ParamBindings, quadrant: bool) -> tuple:
    """(decided, failed): the number of decided orbits of `doc`, and the
    seed ids of those whose limit is not in the closure of their seed's
    cell."""
    c = params.C
    lines = (MPoly.var_x(), MPoly.var_y(), MPoly.var_x() + MPoly.const(c))
    where = {}
    for m in disc_markers(disc_equilibria(leslie_system(params.A, params.B, c), quadrant), params):
        if m.chart == "U3":
            where[m.marker_id] = tuple(m.record.point.sign(f) for f in lines)
        else:
            dx, dy = m.disc
            where[m.marker_id] = (_sign(dx), _sign(dy), _sign(dx))
    decided = [t for t in doc.trajectories if t.limit is not None]
    failed = []
    for tr in decided:
        x, y = plane_from_disc(*tr.points[0])
        cell = (_sign(x, ON_LINE), _sign(y, ON_LINE), _sign(x + float(c), ON_LINE))
        if any(m not in (s, 0) for s, m in zip(cell, where[tr.limit])):
            failed.append(tr.seed_id)
    return len(decided), failed


GOLDEN = [("bundled", "quadrant"), ("bundled", "full")] + [("leslie", name) for name in sorted(LESLIE_PORTRAITS)]


@pytest.mark.parametrize("group, name", GOLDEN, ids=[f"{g}-{n}" for g, n in GOLDEN])
def test_golden_leslie_limits_lie_in_their_seeds_cell(group, name):
    triple, quadrant = (TRIPLES["bundled"], name == "quadrant") if group == "bundled" else LESLIE_PORTRAITS[name][:2]
    params = ParamBindings(*map(Fraction, triple))
    decided, failed = _violations(_golden_portrait(group, name), params, quadrant)
    assert decided > 0 and failed == []


@pytest.mark.parametrize("view, quadrant", limit_sweep.VIEWS)
def test_sweep_limits_lie_in_their_seeds_cell(view, quadrant):
    # the slice decides 1308 orbits on the full disc and 549 in the quadrant
    total = 0
    for a, b, c in limit_sweep.TRIPLES[::10]:
        params = ParamBindings(a, b, c)
        doc = build_portrait(leslie_system(a, b, c), params, positive_quadrant_only=quadrant, grid=2)
        decided, failed = _violations(doc, params, quadrant)
        assert failed == [], (view, a, b, c, failed)
        total += decided
    assert total >= {"full": 1308, "quadrant": 549}[view]
