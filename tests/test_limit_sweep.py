"""`scripts/limit_sweep.py --compare` on small hand-made tables: its exit
codes, its counts and the line it prints for each orbit whose limit
moved; and the horizon that a sweep hands to every portrait."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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


@pytest.mark.parametrize("argv, tmax", [([], 200.0), (["--tmax", "400"], 400.0)])
def test_the_sweep_passes_its_horizon_to_every_portrait(monkeypatch, capsys, argv, tmax):
    # every 303rd triple is the first alone, built in both views
    seen = []

    def recording(sys_, params, positive_quadrant_only, grid, tmax):
        seen.append((positive_quadrant_only, grid, tmax))
        return SimpleNamespace(trajectories=[SimpleNamespace(seed_id="grid:0:0", reason=TMAX, limit=None)])

    monkeypatch.setattr("pdisc.portrait.build_portrait", recording)
    assert limit_sweep.main(["--grid", "3", "--every", "303", *argv]) == 0
    assert seen == [(False, 3, tmax), (True, 3, tmax)]
    assert json.loads(capsys.readouterr().out) == [
        [view, "1/7", "1", "1/7", "grid:0:0", TMAX, None] for view in ("full", "quadrant")
    ]


def test_a_short_horizon_runs_orbits_out_of_time(capsys):
    # the first triple at grid 1 to t = 1/2: no grid orbit reaches a
    # capture region that soon, while the seeds on invariant lines take
    # their exact limits whatever the horizon
    assert limit_sweep.main(["--grid", "1", "--every", "303", "--tmax", "0.5"]) == 0
    rows = json.loads(capsys.readouterr().out)
    grid = [r for r in rows if r[4].startswith("grid:")]
    assert grid and all(r[5:] == [TMAX, None] for r in grid)


@pytest.mark.parametrize("tmax", ["0", "-1", "inf", "nan"])
def test_a_horizon_not_positive_and_finite_exits_2(tmax, capsys):
    with pytest.raises(SystemExit) as exit_:
        limit_sweep.main(["--every", "303", "--tmax", tmax])
    assert exit_.value.code == 2
    assert "--tmax must be a positive finite number" in capsys.readouterr().err
