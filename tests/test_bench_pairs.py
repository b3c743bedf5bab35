"""`scripts/bench_pairs.py` on stand-in checkouts whose `bench/run.py`
prints a fixed result: the order of the runs, the summary rows and the
stop on a run that is not correct or counts a failed job."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {
    "run_seconds": 25,
    "end_to_end": [{"name": "wall_ref_s", "better": "lower"}, {"name": "peak_rss_mb", "better": "lower"}],
}


def _checkout(root: Path, name: str, walls: list, correct: bool = True, failed: int = 0) -> Path:
    """A directory whose bench/run.py prints the next of `walls` as
    wall_ref_s on each run and logs its arguments to ../runs.log."""
    d = root / name
    (d / "bench").mkdir(parents=True)
    (d / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    (d / "bench" / "run.py").write_text(
        "import json, sys\n"
        "from pathlib import Path\n"
        f"log = Path({str(root / 'runs.log')!r})\n"
        f"n = sum(1 for l in log.read_text().splitlines() if l.startswith({name!r})) if log.exists() else 0\n"
        "with log.open('a') as f:\n"
        f"    f.write({name!r} + ' ' + ' '.join(sys.argv[1:]) + '\\n')\n"
        f"walls = {walls!r}\n"
        "print('# a comment line')\n"
        f"print(json.dumps({{'correct': {correct!r}, 'attempted': 4, 'failed': {failed!r}, 'metrics': "
        "{'setup_s': {'value': 0.25, 'unit': 's'}, 'wall_ref_s': {'value': walls[n], 'unit': 's'}, "
        "'peak_rss_mb': {'value': 20.0, 'unit': 'MB'}}}))\n",
        encoding="utf-8",
    )
    return d


def test_pairs_alternate_and_summarise(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", [0.10, 0.11, 0.12, 0.10])
    change = _checkout(tmp_path, "change", [0.09, 0.08, 0.13, 0.10])
    code = bench_pairs.main([str(parent), str(change), "--workload", "leslie-exact", "--seeds", "4242", "--pairs", "4"])
    assert code == 0
    runs = (tmp_path / "runs.log").read_text().splitlines()
    assert [r.split()[0] for r in runs] == ["parent", "change", "change", "parent"] * 2
    assert runs[0].split()[1:] == ["--workload", "leslie-exact", "--seed", "4242", "--seconds", "25", "--trace", "0"]
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("leslie-exact seed 4242, 4 pairs")
    # medians 0.105 -> 0.095, parent quartiles 0.1 and 0.1125, two pairs
    # won, one lost, one tied
    assert out[1] == "  wall_ref_s: 0.105 -> 0.095 (-9.5%), IQR 0.0125, won 2/4"
    assert out[2] == "  peak_rss_mb: 20 -> 20 (+0.0%), IQR 0, won 0/4"


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1)])
def test_a_wrong_or_failed_run_stops_the_pairs(tmp_path, capsys, correct, failed):
    parent = _checkout(tmp_path, "parent", [0.1] * 4)
    change = _checkout(tmp_path, "change", [0.1] * 4, correct=correct, failed=failed)
    code = bench_pairs.main([str(parent), str(change), "--workload", "leslie-exact", "--seeds", "1", "--pairs", "2"])
    assert code == 1
    assert len((tmp_path / "runs.log").read_text().splitlines()) == 2
    assert "bench_pairs:" in capsys.readouterr().err
