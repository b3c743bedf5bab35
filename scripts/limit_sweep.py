"""Where every orbit of the Leslie parameter sweep ends, and whether two
such tables agree.

Usage, from the repository root::

    PYTHONPATH=src python scripts/limit_sweep.py --grid 2 --every 1 > new.json
    python scripts/limit_sweep.py --compare old.json new.json

The sweep is the ROADMAP's: A and C in {1, ..., 10}/7 and B in {1, 1/3,
3}, with B varying fastest, then C, then A, followed by (A, B, C) = (2, 1,
1/2), (1/2, 1, 2) and (3, 1, 1/3); 303 triples in all.  ``--every K``
keeps every K-th of them, starting with the first.  Each kept triple is
built as a quadrant and as a full-disc portrait at ``--grid``, each orbit
integrated up to the time ``--tmax`` (200, the portrait's default), and
the table is the sorted ``[view, A, B, C, seed_id, reason, limit]`` rows of
their orbits, one to a line, with a missing limit as null.

An orbit is decided when it has a limit.  ``--compare OLD NEW`` prints,
for each view, how many orbits both tables decide, how many of those
changed their limit, how many NEW decides and OLD does not (gained) and
the reverse (lost), and how many separatrices each leaves undecided.
Then it names each orbit whose limit moved, one to a line, as ``view A B
C seed_id: old -> new`` with a missing limit as null.  It exits 1 if a
decided limit changed or was lost, and 2 if the tables do not hold the
same orbits.  To check a change to the integrator, write a
table from each checkout (with ``PYTHONPATH`` at that checkout's
``src``) and compare them.  An orbit that one of them loses to the time
horizon can be rechecked by comparing two tables written at a longer
``--tmax``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

VIEWS = (("full", False), ("quadrant", True))
TRIPLES = [
    (Fraction(a, 7), b, Fraction(c, 7))
    for a in range(1, 11)
    for c in range(1, 11)
    for b in (Fraction(1), Fraction(1, 3), Fraction(3))
] + [
    (Fraction(2), Fraction(1), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1), Fraction(2)),
    (Fraction(3), Fraction(1), Fraction(1, 3)),
]

Row = Tuple[str, str, str, str, str, str, Optional[str]]


def sweep(grid: int, every: int, tmax: float = 200.0) -> List[Row]:
    # imported here, so that --compare needs no pdisc on the path
    from pdisc.modelio import ParamBindings, leslie_system
    from pdisc.portrait import build_portrait

    rows = []
    for a, b, c in TRIPLES[::every]:
        sys_ = leslie_system(a, b, c)
        params = ParamBindings(a, b, c)
        for view, quadrant in VIEWS:
            doc = build_portrait(sys_, params, positive_quadrant_only=quadrant, grid=grid, tmax=tmax)
            rows.extend((view, str(a), str(b), str(c), t.seed_id, t.reason, t.limit) for t in doc.trajectories)
    return sorted(rows)


def dumps(rows: List[Row]) -> str:
    return "[\n" + ",\n".join(json.dumps(list(r)) for r in rows) + "\n]\n"


def _limits(path: str) -> Dict[tuple, Optional[str]]:
    with open(path, encoding="utf-8") as f:
        return {tuple(r[:5]): r[6] for r in json.load(f)}


def compare(old_path: str, new_path: str) -> int:
    old, new = _limits(old_path), _limits(new_path)
    if old.keys() != new.keys():
        print(f"{old_path} and {new_path} do not hold the same orbits", file=sys.stderr)
        return 2
    bad = False
    for view in sorted({k[0] for k in old}):
        keys = [k for k in old if k[0] == view]
        both = [k for k in keys if old[k] is not None and new[k] is not None]
        changed = sum(old[k] != new[k] for k in both)
        gained = sum(old[k] is None and new[k] is not None for k in keys)
        lost = sum(old[k] is not None and new[k] is None for k in keys)
        seps = [k for k in keys if k[4].startswith("sep:")]
        undecided = [sum(t[k] is None for k in seps) for t in (old, new)]
        print(
            f"{view}: {len(both)} decided in both, {changed} changed, {gained} gained, {lost} lost; "
            f"undecided separatrices {undecided[0]} -> {undecided[1]} of {len(seps)}"
        )
        bad = bad or changed > 0 or lost > 0
    for k in sorted(k for k in old if old[k] != new[k]):
        print(f"{' '.join(k[:4])} {k[4]}: {json.dumps(old[k])} -> {json.dumps(new[k])}")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--grid", type=int, default=2, help="seed grid resolution, as for `pdisc portrait` (default 2)")
    ap.add_argument("--every", type=int, default=1, help="keep every K-th sweep triple (default 1, all 303)")
    ap.add_argument("--tmax", type=float, default=200.0, help="time horizon of every orbit (default 200)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two tables instead of sweeping")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.grid < 1 or args.every < 1:
        ap.error("--grid and --every must be at least 1")
    if not 0.0 < args.tmax < math.inf:
        ap.error("--tmax must be a positive finite number")
    sys.stdout.write(dumps(sweep(args.grid, args.every, args.tmax)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
