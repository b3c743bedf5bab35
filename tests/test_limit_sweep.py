"""`scripts/limit_sweep.py --compare` on small hand-made tables: its exit
codes, its counts and the line it prints for each orbit whose limit
moved."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "limit_sweep.py"
_spec = importlib.util.spec_from_file_location("limit_sweep", SCRIPT)
limit_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(limit_sweep)

EQ, TMAX = "converged-to-equilibrium", "reached-tmax"
OLD = [
    ["full", "9/7", "1", "3/7", "grid:0:0", EQ, "E0"],
    ["full", "9/7", "1", "3/7", "sep:other:0", EQ, "inf:U1-:0"],
    ["full", "9/7", "1", "3/7", "sep:other:1", TMAX, None],
    ["quadrant", "1", "1", "1/2", "grid:0:0", EQ, "Estar"],
    ["quadrant", "1", "1", "1/2", "sep:E2:0", EQ, "Estar"],
]


def _tables(tmp_path: Path, new: list) -> tuple:
    paths = []
    for name, rows in (("old.json", OLD), ("new.json", new)):
        path = tmp_path / name
        path.write_text(limit_sweep.dumps([tuple(r) for r in rows]), encoding="utf-8")
        paths.append(str(path))
    return tuple(paths)


def _with(rows: list, seed_id: str, reason: str, limit) -> list:
    return [r[:5] + [reason, limit] if r[4] == seed_id else r for r in rows]


def test_the_same_limits_exit_0_and_name_no_orbit(tmp_path, capsys):
    # a reason alone may move: only limits are compared
    new = _with(OLD, "sep:other:0", TMAX, "inf:U1-:0")
    assert limit_sweep.main(["--compare", *_tables(tmp_path, new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "full: 2 decided in both, 0 changed, 0 gained, 0 lost; undecided separatrices 1 -> 1 of 2",
        "quadrant: 2 decided in both, 0 changed, 0 gained, 0 lost; undecided separatrices 0 -> 0 of 1",
    ]


def test_a_gained_limit_exits_0_and_is_named(tmp_path, capsys):
    new = _with(OLD, "sep:other:1", EQ, "E1")
    assert limit_sweep.main(["--compare", *_tables(tmp_path, new)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "full: 2 decided in both, 0 changed, 1 gained, 0 lost; undecided separatrices 1 -> 0 of 2"
    assert out[2:] == ["full 9/7 1 3/7 sep:other:1: null -> \"E1\""]


def test_lost_and_changed_limits_exit_1_and_each_is_named(tmp_path, capsys):
    new = _with(_with(OLD, "sep:other:0", TMAX, None), "sep:E2:0", EQ, "E1")
    assert limit_sweep.main(["--compare", *_tables(tmp_path, new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "full: 1 decided in both, 0 changed, 0 gained, 1 lost; undecided separatrices 1 -> 2 of 2",
        "quadrant: 2 decided in both, 1 changed, 0 gained, 0 lost; undecided separatrices 0 -> 0 of 1",
        "full 9/7 1 3/7 sep:other:0: \"inf:U1-:0\" -> null",
        "quadrant 1 1 1/2 sep:E2:0: \"Estar\" -> \"E1\"",
    ]


@pytest.mark.parametrize("new", [OLD[:-1], OLD + [["full", "1", "1", "1/2", "grid:0:0", TMAX, None]]])
def test_tables_of_different_orbits_exit_2(tmp_path, capsys, new):
    old_path, new_path = _tables(tmp_path, new)
    assert limit_sweep.main(["--compare", old_path, new_path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"{old_path} and {new_path} do not hold the same orbits\n"


def test_compare_runs_without_the_package(tmp_path):
    # the script run on its own, with no src on the path, imports no pdisc
    old_path, new_path = _tables(tmp_path, _with(OLD, "sep:other:0", TMAX, None))
    run = subprocess.run(
        [sys.executable, "-S", str(SCRIPT), "--compare", old_path, new_path],
        capture_output=True,
        text=True,
        env={},
        cwd=tmp_path,
    )
    assert run.returncode == 1, run.stderr
    assert run.stdout.splitlines()[-1] == "full 9/7 1 3/7 sep:other:0: \"inf:U1-:0\" -> null"
