"""Command-line interface.

Every invocation goes through ``main(argv)`` in process; stdout and
stderr are captured with capsys.  Exit codes: 0 success, 2 input or
usage errors, 3 internal invariant violations.
"""

import json
import math
from fractions import Fraction as F

import pytest

from pdisc.cli import main, parse_param_overrides
from pdisc.errors import InputError, InternalInvariantError
from pdisc.modelio import leslie_system, parse_system

ALL_ONES = ["--r", "1", "--k", "1", "--q", "1", "--s", "1", "--n", "1", "--c", "1"]


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# parameter override parsing


def test_parse_param_overrides():
    assert parse_param_overrides("A=1, B = 2/3 ,C=-5") == {
        "A": F(1),
        "B": F(2, 3),
        "C": F(-5),
    }
    for bad in ("", "A", "A=", "=1", "A=1.5x", "A=1/0"):
        with pytest.raises(InputError):
            parse_param_overrides(bad)


# ---------------------------------------------------------------------------
# leslie


def test_leslie_all_ones_stdout(capsys):
    rc, out, _ = _run(capsys, ["leslie", *ALL_ONES])
    assert rc == 0
    assert out == "A=1, B=1, C=1\n1-AC = 0\nregime: zero\n"


def test_leslie_regime_lines(capsys):
    argv = ["leslie", "--r", "2", "--k", "1", "--q", "1", "--s", "1", "--n", "1", "--c", "1/2"]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    # A = knq/r = 1/2, B = s/r = 1/2, C = c/(kn) = 1/2
    assert out.splitlines() == ["A=1/2, B=1/2, C=1/2", "1-AC = 3/4", "regime: positive"]


def test_leslie_emit_reparse(tmp_path, capsys):
    path = tmp_path / "bound.vf"
    rc, _, err = _run(capsys, ["leslie", *ALL_ONES, "--emit", str(path)])
    assert rc == 0
    assert f"wrote {path}" in err
    sys = parse_system(path.read_text(encoding="utf-8"))
    ref = leslie_system(F(1), F(1), F(1))
    assert (sys.P - ref.P).is_zero and (sys.Q - ref.Q).is_zero


def test_leslie_chained_analyze(capsys):
    rc, out, _ = _run(capsys, ["leslie", *ALL_ONES, "--analyze", "--quadrant", "--out", "-"])
    assert rc == 0
    head, brace, tail = out.partition("{")
    assert "regime: zero" in head
    report = json.loads(brace + tail)
    assert report["regime"] == "zero"
    labels = {e.get("label") for e in report["finite_equilibria"]}
    assert {"E0", "E1", "E2"} <= labels


def test_leslie_rejects_nonpositive_parameters(capsys):
    argv = ["leslie", "--r", "-1", "--k", "1", "--q", "1", "--s", "1", "--n", "1", "--c", "1"]
    rc, _, err = _run(capsys, argv)
    assert rc == 2
    assert "error:" in err


def test_leslie_rejects_irrational_argument(capsys):
    argv = ["leslie", "--r", "sqrt2", "--k", "1", "--q", "1", "--s", "1", "--n", "1", "--c", "1"]
    rc, _, err = _run(capsys, argv)
    assert rc == 2
    assert "not a rational number" in err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_quadrant_report(model_file, capsys):
    rc, out, _ = _run(capsys, ["analyze", str(model_file), "--quadrant", "--out", "-"])
    assert rc == 0
    report = json.loads(out)
    assert set(report) == {
        "system",
        "params",
        "regime",
        "finite_equilibria",
        "charts",
        "infinite_equilibria",
        "blowups",
    }
    assert report["regime"] == "positive"
    assert report["params"] == {"A": "1", "B": "1", "C": "1/2"}
    labels = {e.get("label") for e in report["finite_equilibria"]}
    assert labels == {"E0", "E1", "E2", "Estar"}
    assert set(report["charts"]) == {"U1", "U2"}
    assert len(report["blowups"]) == 1
    entry = report["blowups"][0]
    assert entry["location"] == "U2"
    assert entry["status"] == "resolved"
    assert entry["sectors"] == {"hyperbolic": 2, "parabolic": 2, "elliptic": 0}


def test_analyze_full_disc_charts(model_file, capsys):
    rc, out, _ = _run(capsys, ["analyze", str(model_file), "--out", "-"])
    assert rc == 0
    report = json.loads(out)
    assert set(report["charts"]) == {"U1", "U2", "V1", "V2"}
    assert set(report["infinite_equilibria"]) == {"U1", "U2", "V1", "V2"}
    labels = {e.get("label") for e in report["finite_equilibria"]}
    assert labels == {"E0", "E1", "E2", "Estar", "other"}


def test_analyze_override_changes_regime(model_file, capsys):
    rc, out, _ = _run(
        capsys, ["analyze", str(model_file), "--params", "C=1", "--quadrant", "--out", "-"]
    )
    assert rc == 0
    report = json.loads(out)
    assert report["regime"] == "zero"
    by_label = {e.get("label"): e for e in report["finite_equilibria"]}
    assert by_label["E1"]["classification"] == "saddle-node"


def test_analyze_writes_file(model_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc, out, err = _run(
        capsys, ["analyze", str(model_file), "--quadrant", "--out", str(out_path)]
    )
    assert rc == 0
    assert out == ""
    assert f"wrote {out_path}" in err
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["regime"] == "positive"


def test_analyze_accepts_cli_introduced_bindings(tmp_path, capsys):
    path = tmp_path / "generic.vf"
    path.write_text("dx = x*(1 - x - a*y)\ndy = y*(1 - y)\n", encoding="utf-8")
    rc, _, err = _run(capsys, ["analyze", str(path)])
    assert rc == 2  # 'a' unbound
    rc, out, _ = _run(capsys, ["analyze", str(path), "--params", "a=2", "--out", "-"])
    assert rc == 0
    assert json.loads(out)["params"] == {"a": "2"}


# ---------------------------------------------------------------------------
# darboux


def test_darboux_report(model_file, capsys):
    rc, out, _ = _run(capsys, ["darboux", str(model_file), "--out", "-"])
    assert rc == 0
    report = json.loads(out)
    assert report["bounds"] == {
        "max_curve_degree": 1,
        "max_exp_degree": 2,
        "extactic_order": 1,
    }
    curves = {c["f"] for c in report["darboux"]["invariant_curves"]}
    assert curves == {"x", "y", "x + 1/2"}
    assert report["verdict"]["verdict"] == "NotLiouvillianWithinBounds"
    assert report["verdict"]["rank"] == report["verdict"]["rank_augmented"] - 1


def test_darboux_detects_first_integral(tmp_path, capsys):
    path = tmp_path / "saddle.vf"
    path.write_text("dx = x\ndy = -y\n", encoding="utf-8")
    rc, out, _ = _run(capsys, ["darboux", str(path), "--out", "-"])
    assert rc == 0
    report = json.loads(out)
    assert report["verdict"]["verdict"] == "DarbouxFirstIntegral"
    assert "darboux_function" in report["verdict"]


def test_darboux_dump_extactic(model_file, capsys):
    rc, out, _ = _run(capsys, ["darboux", str(model_file), "--dump-extactic", "--out", "-"])
    assert rc == 0
    report = json.loads(out)
    assert "polynomial" in report["darboux"]["extactic"]


def test_darboux_sample_sweep(model_file, capsys):
    rc, out, _ = _run(
        capsys, ["darboux", str(model_file), "--sample", "2", "--seed", "7", "--out", "-"]
    )
    assert rc == 0
    report = json.loads(out)
    assert len(report["sample"]) == 2
    for row in report["sample"]:
        assert set(row) == {"A", "B", "C", "verdict"}
        assert row["verdict"]["verdict"] == "NotLiouvillianWithinBounds"
    # the sweep is seeded: the same seed reproduces the same triples
    rc2, out2, _ = _run(
        capsys, ["darboux", str(model_file), "--sample", "2", "--seed", "7", "--out", "-"]
    )
    assert rc2 == 0 and out2 == out


def test_darboux_sample_requires_reduced_model(tmp_path, capsys):
    path = tmp_path / "saddle.vf"
    path.write_text("dx = x\ndy = -y\n", encoding="utf-8")
    rc, _, err = _run(capsys, ["darboux", str(path), "--sample", "1"])
    assert rc == 2
    assert "error:" in err


def test_darboux_rejects_bad_bounds(model_file, capsys):
    rc, _, err = _run(capsys, ["darboux", str(model_file), "--max-exp-degree", "0"])
    assert rc == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# portrait


def test_portrait_files_are_deterministic(model_file, tmp_path, capsys):
    def render(stem):
        svg = tmp_path / f"{stem}.svg"
        js = tmp_path / f"{stem}.json"
        rc, out, err = _run(
            capsys,
            [
                "portrait",
                str(model_file),
                "--svg",
                str(svg),
                "--out",
                str(js),
                "--grid",
                "3",
                "--tmax",
                "30",
            ],
        )
        assert rc == 0 and out == ""
        assert f"wrote {svg}" in err and f"wrote {js}" in err
        return svg.read_bytes(), js.read_bytes()

    svg1, js1 = render("a")
    svg2, js2 = render("b")
    assert svg1 == svg2 and js1 == js2
    assert svg1.startswith(b"<svg ")
    doc = json.loads(js1)
    assert doc["regime"] == "positive"


def test_portrait_stdout_json(model_file, capsys):
    rc, out, _ = _run(
        capsys, ["portrait", str(model_file), "--grid", "2", "--tmax", "10"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert {"system", "regime", "equilibria", "trajectories"} <= set(doc)


def test_portrait_svg_only_writes_nothing_to_stdout(model_file, tmp_path, capsys):
    svg = tmp_path / "p.svg"
    rc, out, _ = _run(
        capsys,
        ["portrait", str(model_file), "--svg", str(svg), "--grid", "2", "--tmax", "10"],
    )
    assert rc == 0
    assert out == ""
    assert svg.read_bytes().startswith(b"<svg ")


@pytest.mark.parametrize(
    "source",
    [
        "dx = x^4 - 3*x^2*y + y^2 - 2*x + 1\ndy = y^4 - x*y^2 + 2*x^2 - y - 3\n",
        # the error norm of one step overflowed here: OverflowError, exit 1
        "dx = x^5 - 3*x^2*y^2 + y^3 - 2*x + 1\ndy = y^5 - x*y^3 + 2*x^2 - y - 3\n",
        "dx = (x - y)*(x + 2*y - 1)\ndy = x^2 + 2*y^2 - 3\n",
        "dx = (x - y)*(x + 2*y - 1)*(2*x - y + 1)\ndy = x^2 + 2*y^2 - 3\n",
    ],
    ids=["quartic", "quintic", "lines-2", "lines-3"],
)
def test_full_disc_portraits_of_generic_systems(source, tmp_path, capsys):
    path = tmp_path / "system.vf"
    path.write_text(source, encoding="utf-8")
    rc, out, _ = _run(capsys, ["portrait", str(path), "--no-quadrant", "--grid", "2"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["trajectories"]
    for tr in doc["trajectories"]:
        for x, y in tr["points"]:
            # the JSON rounds each coordinate to 6 decimals
            assert math.isfinite(x) and math.isfinite(y)
            assert math.hypot(x, y) <= 1.0 + 1e-6


def test_equator_of_equilibria_ends_analyze_but_not_portrait(tmp_path, capsys):
    # analyze reports every chart, so an equator made of equilibria is an
    # input it cannot report; portrait only leaves such a chart undrawn
    path = tmp_path / "radial.vf"
    path.write_text("dx = x\ndy = y\n", encoding="utf-8")
    rc, _, err = _run(capsys, ["analyze", str(path)])
    assert rc == 2
    assert "the equator of chart U1 consists of equilibria" in err
    rc, out, _ = _run(capsys, ["portrait", str(path), "--no-quadrant", "--grid", "2"])
    assert rc == 0
    assert json.loads(out)["trajectories"]


@pytest.mark.parametrize("quadrant, charts", [(True, 2), (False, 4)])
def test_each_chart_is_built_once(model_file, quadrant, charts, capsys, monkeypatch):
    from pdisc import compactify

    calls = []
    to_chart = compactify.to_chart

    def counting(sys, chart):
        calls.append(chart)
        return to_chart(sys, chart)

    monkeypatch.setattr(compactify, "to_chart", counting)
    view = ["--quadrant"] if quadrant else ["--no-quadrant"]
    for argv in (["portrait", str(model_file), "--grid", "2", "--tmax", "10"], ["analyze", str(model_file)]):
        calls.clear()
        rc, _, _ = _run(capsys, argv + view)
        assert rc == 0
        assert len(calls) == charts == len(set(calls))


# ---------------------------------------------------------------------------
# exit codes


def test_missing_input_file_exits_2(capsys):
    rc, _, err = _run(capsys, ["analyze", "/no/such/file.vf"])
    assert rc == 2
    assert "error:" in err


def test_malformed_params_is_usage_error(model_file, capsys):
    rc, _, err = _run(capsys, ["analyze", str(model_file), "--params", "A="])
    assert rc == 2
    assert "usage:" in err


def test_superscript_digit_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "superscript.vf"
    path.write_text("dx = 2²*x\ndy = y\n", encoding="utf-8")
    rc, _, err = _run(capsys, ["analyze", str(path)])
    assert rc == 2
    assert "line 1, column 7: unexpected character '²'" in err


def test_positive_dimensional_input_exits_2(tmp_path, capsys):
    path = tmp_path / "line.vf"
    path.write_text("dx = x\ndy = x\n", encoding="utf-8")
    rc, _, err = _run(capsys, ["analyze", str(path)])
    assert rc == 2
    assert "error:" in err


def test_horizontal_line_of_equilibria_is_named(tmp_path, capsys):
    path = tmp_path / "horizontal.vf"
    path.write_text("dx = (y-1)*x\ndy = (y-1)*(x+1)\n", encoding="utf-8")
    rc, _, err = _run(capsys, ["analyze", str(path)])
    assert rc == 2
    assert "horizontal line y = 1" in err


def test_blowup_statuses_of_irrational_and_non_isolated_points(tmp_path, capsys):
    # +-sqrt(2) are degenerate but irrational, so not blown up; at the U2
    # origin one blow-up meets a curve of equilibria
    path = tmp_path / "irrational.vf"
    path.write_text("dx = (x^2-2)^2\ndy = y^2\n", encoding="utf-8")
    rc, out, _ = _run(capsys, ["analyze", str(path)])
    assert rc == 0
    statuses = [(b["location"], b["status"]) for b in json.loads(out)["blowups"]]
    assert statuses == [("finite", "unresolved-irrational-point")] * 2 + [("U2", "line-of-equilibria")]


def test_blowup_input_error_exits_2(model_file, capsys, monkeypatch):
    # only a line of equilibria becomes a blow-up status; any other input
    # error ends the run
    def boom(*args, **kwargs):
        raise InputError("forced blow-up input error")

    monkeypatch.setattr("pdisc.cli.blowup_analysis", boom)
    rc, _, err = _run(capsys, ["analyze", str(model_file)])
    assert rc == 2
    assert "forced blow-up input error" in err


def test_internal_invariant_exits_3(model_file, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InternalInvariantError("forced for the exit-code contract")

    monkeypatch.setattr("pdisc.compactify.finite_equilibria", boom)
    rc, _, err = _run(capsys, ["analyze", str(model_file)])
    assert rc == 3
    assert "internal invariant violation" in err


def test_unknown_subcommand_is_usage_error(capsys):
    rc, _, err = _run(capsys, ["frobnicate"])
    assert rc == 2
    assert "usage:" in err


def test_missing_subcommand_is_usage_error(capsys):
    rc, _, _ = _run(capsys, [])
    assert rc == 2


def test_help_exits_0(capsys):
    rc, out, _ = _run(capsys, ["--help"])
    assert rc == 0
    assert "analyze" in out and "darboux" in out and "portrait" in out and "leslie" in out
