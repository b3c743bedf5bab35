"""Alternating A/B runs of the benchmark on two checkouts, and their summary.

Usage, from the repository root::

    git archive PARENT_REV | (mkdir -p ../parent && tar -x -C ../parent)
    python scripts/bench_pairs.py ../parent . --workload leslie-exact --seeds 4242 31337 --pairs 10

Each pair runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, with the checkout as the working
directory and ``PYTHONDONTWRITEBYTECODE=1``; T is ``run_seconds`` of
CHANGE's ``BENCHMARK.json``.  Odd pairs run PARENT first, even pairs
CHANGE first, so neither side always runs on a cooler machine.  Each
run is one line on stderr.  A run that exits non-zero, reads
``correct: false`` or counts a failed job stops the script with exit 1.

For each seed and each end-to-end metric of ``BENCHMARK.json``, stdout
gets one row: the median of each side, the change in percent, the
distance between the quartiles of PARENT's runs (its IQR) and the pairs
CHANGE won, by the metric's ``better`` direction; a tie counts for
neither side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

Run = Dict[str, float]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> Run:
    """The end-to-end metrics of one untraced benchmark run in `checkout`."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd + ["--trace", "0"], cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout}: correct {result['correct']}, failed {result['failed']} of {result['attempted']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(parent: Sequence[Run], change: Sequence[Run], better: Dict[str, str]) -> List[Tuple]:
    """(metric, parent median, change median, change in percent, parent
    IQR, pairs won) per metric, over runs paired by index."""
    rows = []
    for name, direction in better.items():
        a, b = [r[name] for r in parent], [r[name] for r in change]
        sign = 1 if direction == "lower" else -1
        won = sum(sign * (x - y) > 0 for x, y in zip(a, b))
        q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive") if len(a) > 1 else (a[0],) * 3
        ma, mb = statistics.median(a), statistics.median(b)
        rows.append((name, ma, mb, 100.0 * (mb - ma) / ma if ma else 0.0, q3 - q1, won))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--pairs", type=int, required=True, help="pairs of runs per seed")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    try:
        for seed in args.seeds:
            runs: Dict[str, List[Run]] = {"parent": [], "change": []}
            for k in range(args.pairs):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    run = run_once(sides[side], args.workload, seed, spec["run_seconds"])
                    runs[side].append(run)
                    print(f"seed {seed} pair {k + 1} {side}: {json.dumps(run)}", file=sys.stderr, flush=True)
            print(f"{args.workload} seed {seed}, {args.pairs} pairs: parent median -> change median (change), parent IQR, pairs won")
            for name, ma, mb, pct, iqr, won in summarise(runs["parent"], runs["change"], better):
                print(f"  {name}: {ma:.6g} -> {mb:.6g} ({pct:+.1f}%), IQR {iqr:.4g}, won {won}/{args.pairs}")
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
