"""Phase portrait construction.

Numerical routines are checked against closed-form flows (linear
systems with exponential solutions), the disc geometry against its own
inverse, and the assembled documents against the exact equilibrium
inventory.  Rendering must be byte-deterministic.
"""

import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from pdisc.cli import main
from pdisc.compactify import SectorDecomposition
from pdisc.errors import InputError
from pdisc.modelio import ParamBindings, leslie_system, parse_system
from pdisc.portrait import (
    Flow,
    PortraitDoc,
    _disc_from_chart,
    _dp_step,
    build_portrait,
    compile_poly,
    default_seeds,
    disc_from_plane,
    integrate_orbit,
    plane_from_disc,
    render_portrait,
    separatrix_seeds,
)

REASON_EQ = "converged-to-equilibrium"
REASON_TMAX = "reached-tmax"
REASON_BOUNDARY = "reached-boundary"


def _dist(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


# ---------------------------------------------------------------------------
# disc geometry


@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_disc_roundtrip(x, y):
    p = disc_from_plane(x, y)
    assert math.hypot(*p) < 1.0
    rx, ry = plane_from_disc(*p)
    assert math.isclose(rx, x, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(ry, y, rel_tol=1e-9, abs_tol=1e-9)


def test_plane_from_disc_rejects_rim_and_outside():
    with pytest.raises(InputError):
        plane_from_disc(1.0, 0.0)
    with pytest.raises(InputError):
        plane_from_disc(0.8, 0.7)


def test_chart_points_project_like_plane_points():
    # a chart point (u, v) with v > 0 covers the plane point
    # (1/v, u/v) in U1 and (u/v, 1/v) in U2; side -1 is the antipode
    for u, v in [(0.5, 0.25), (2.0, 1.0), (0.0, 0.125)]:
        got = _disc_from_chart("U1", u, v, 1)
        want = disc_from_plane(1.0 / v, u / v)
        assert _dist(got, want) < 1e-12
        got = _disc_from_chart("U2", u, v, 1)
        want = disc_from_plane(u / v, 1.0 / v)
        assert _dist(got, want) < 1e-12
        got = _disc_from_chart("U1", u, v, -1)
        want = disc_from_plane(-1.0 / v, -u / v)
        assert _dist(got, want) < 1e-12


# ---------------------------------------------------------------------------
# compiled evaluation and the stepper


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.fractions(min_value=-5, max_value=5),
        max_size=6,
    ),
    st.fractions(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3),
)
def test_compile_poly_matches_exact_evaluation(d, a, b):
    from pdisc.exactalg import MPoly

    p = MPoly(d)
    f = compile_poly(p)
    exact = float(p.eval_rat(a, b))
    assert math.isclose(f(float(a), float(b)), exact, rel_tol=1e-9, abs_tol=1e-9)


def test_stepper_accuracy_on_rotation():
    # x' = y, y' = -x from (1, 0): exact solution (cos t, -sin t)
    f = lambda x, y: (y, -x)

    def endpoint_error(h):
        nx, ny, _, _, _ = _dp_step(f, 1.0, 0.0, h, f(1.0, 0.0))
        return math.hypot(nx - math.cos(h), ny + math.sin(h))

    e_coarse = endpoint_error(0.2)
    e_fine = endpoint_error(0.1)
    assert e_fine < 1e-8
    # at least fifth order: halving the step cuts the error far more
    # than the fourth-order factor of 16
    assert e_coarse / e_fine > 10.0


def test_stepper_reuses_its_last_stage():
    # given the first stage, a step evaluates the field six times and the
    # last evaluation, at the new point itself, is the next first stage
    calls = []

    def f(x, y):
        calls.append((x, y))
        return (y - x * x, -x - 0.5 * y)

    k1 = f(0.3, -0.7)
    calls.clear()
    nx, ny, _, _, k7 = _dp_step(f, 0.3, -0.7, 0.05, k1)
    assert len(calls) == 6
    assert calls[-1] == (nx, ny)
    assert k7 == f(nx, ny)


def test_orbit_matches_exponential_flow():
    # x' = x, y' = -y from (1, 1): the time-1 map is (e, 1/e)
    sys = parse_system("dx = x\ndy = -y\n")
    tr = integrate_orbit(Flow(sys), disc_from_plane(1.0, 1.0), tmax=1.0)
    assert tr.reason == REASON_TMAX
    assert len(tr.points) >= 2
    want = disc_from_plane(math.e, 1.0 / math.e)
    assert _dist(tr.endpoint(), want) < 1e-6


def test_orbit_escapes_to_equator_node():
    # the saddle flow sends generic forward orbits to the equator point
    # in the +x direction
    sys = parse_system("dx = x\ndy = -y\n")
    tr = integrate_orbit(Flow(sys), disc_from_plane(2.0, 3.0))
    assert tr.reason in (REASON_EQ, REASON_BOUNDARY)
    assert _dist(tr.endpoint(), (1.0, 0.0)) < 1e-6


def test_axis_orbits_stay_exactly_on_axis():
    flow = Flow(leslie_system(F(1), F(1), F(1, 2)))
    tr = integrate_orbit(flow, disc_from_plane(3.0, 0.0))
    assert all(p[1] == 0.0 for p in tr.points)
    assert tr.reason == REASON_EQ
    # on the positive x axis the flow is x' = x(C+x)(1-x): x -> 1
    assert _dist(tr.endpoint(), disc_from_plane(1.0, 0.0)) < 1e-6

    tr = integrate_orbit(flow, disc_from_plane(0.0, 2.0))
    assert all(p[0] == 0.0 for p in tr.points)
    assert tr.reason == REASON_EQ
    # on the positive y axis the flow is y' = By(C-y): y -> C
    assert _dist(tr.endpoint(), disc_from_plane(0.0, 0.5)) < 1e-6


def test_orbit_reversibility():
    flow = Flow(leslie_system(F(1), F(1), F(1, 2)))
    seed = (0.3, 0.4)
    fwd = integrate_orbit(flow, seed, "forward", tmax=2.0)
    assert fwd.reason == REASON_TMAX
    back = integrate_orbit(flow, fwd.endpoint(), "backward", tmax=2.0)
    assert back.reason == REASON_TMAX
    assert _dist(back.endpoint(), seed) < 1e-5


def test_orbit_input_validation():
    flow = Flow(leslie_system(F(1), F(1), F(1, 2)))
    with pytest.raises(InputError):
        integrate_orbit(flow, (1.0, 0.0))
    with pytest.raises(InputError):
        integrate_orbit(flow, (1.2, 0.3))
    with pytest.raises(InputError):
        integrate_orbit(flow, (0.2, 0.1), direction="sideways")
    with pytest.raises(InputError):
        # axis seeds run the same loop; same validation
        integrate_orbit(flow, disc_from_plane(2.0, 0.0), direction="up")


# ---------------------------------------------------------------------------
# seeding


def test_default_seed_layout():
    quad = default_seeds(positive_quadrant_only=True, grid=8)
    assert len(quad) == 8 * 8 + 8
    assert len({s.seed_id for s in quad}) == len(quad)
    for s in quad:
        assert math.hypot(*s.disc) < 1.0
        assert s.disc[0] >= 0.0 and s.disc[1] >= 0.0
        assert s.direction == "forward"
    assert default_seeds(True, 8) == quad  # deterministic

    full = default_seeds(positive_quadrant_only=False, grid=8)
    assert len(full) == 8 * 32 + 16
    assert any(s.disc[0] < 0.0 for s in full)
    assert any(s.disc[1] < 0.0 for s in full)


# ---------------------------------------------------------------------------
# the assembled Leslie-Gower portrait, interior-equilibrium regime


@pytest.fixture(scope="module")
def leslie_doc() -> PortraitDoc:
    params = ParamBindings(F(1), F(1), F(1, 2))
    sys = leslie_system(params.A, params.B, params.C)
    return build_portrait(sys, params, positive_quadrant_only=True)


def test_leslie_marker_inventory(leslie_doc):
    by_label = {m.label: m for m in leslie_doc.markers if m.label}
    assert set(by_label) == {"E0", "E1", "E2", "Estar"}
    assert by_label["E0"].classification == "unstable node"
    assert by_label["E1"].classification == "saddle"
    assert by_label["E2"].classification == "saddle"
    assert by_label["Estar"].classification == "stable focus"
    assert leslie_doc.regime == "positive"
    inf_ids = {m.marker_id for m in leslie_doc.markers if m.chart != "U3"}
    assert inf_ids == {"inf:U1+:0", "inf:U2+:0"}


def test_leslie_infinite_sectors(leslie_doc):
    by_id = {m.marker_id: m for m in leslie_doc.markers}
    # the origin of U2 is degenerate; one blow-up level resolves it
    assert by_id["inf:U2+:0"].sectors == SectorDecomposition(2, 2, 0, "resolved")
    # the origin of U1 is a hyperbolic node: a single parabolic sector
    assert by_id["inf:U1+:0"].sectors == SectorDecomposition(0, 1, 0, "resolved")
    # hyperbolic finite points carry direct decompositions too
    assert by_id["E1"].sectors == SectorDecomposition(4, 0, 0, "resolved")
    assert by_id["Estar"].sectors == SectorDecomposition(0, 1, 0, "resolved")


def test_leslie_separatrix_count(leslie_doc):
    seps = [t for t in leslie_doc.trajectories if t.role == "separatrix"]
    # two finite saddles, three admissible eigendirection offsets each
    # after the quadrant filter
    assert len(seps) == 6
    assert len({t.seed_id for t in leslie_doc.trajectories}) == len(
        leslie_doc.trajectories
    )


def test_leslie_grid_orbits_converge_to_interior_point(leslie_doc):
    star = disc_from_plane(0.25, 0.75)
    grid = [t for t in leslie_doc.trajectories if t.seed_id.startswith("grid:")]
    assert len(grid) == 64
    for tr in grid:
        assert tr.reason == REASON_EQ
        assert _dist(tr.endpoint(), star) < 1e-7


def test_leslie_axis_trajectories_exact(leslie_doc):
    xs = [t for t in leslie_doc.trajectories if t.seed_id.startswith("axis:x")]
    ys = [t for t in leslie_doc.trajectories if t.seed_id.startswith("axis:y")]
    assert len(xs) == 4 and len(ys) == 4
    for tr in xs:
        assert all(p[1] == 0.0 for p in tr.points)
    for tr in ys:
        assert all(p[0] == 0.0 for p in tr.points)


def test_leslie_quadrant_positive_invariance(leslie_doc):
    for tr in leslie_doc.trajectories:
        for p in tr.points:
            assert p[0] >= -1e-9 and p[1] >= -1e-9
            assert math.hypot(*p) <= 1.0 + 1e-9


def test_leslie_trajectory_reasons(leslie_doc):
    reasons = {t.reason for t in leslie_doc.trajectories}
    assert reasons <= {REASON_EQ, REASON_BOUNDARY}
    # the backward axis separatrices leave every bounded region
    boundary = [t for t in leslie_doc.trajectories if t.reason == REASON_BOUNDARY]
    assert len(boundary) == 2
    assert all(t.role == "separatrix" and t.direction == "backward" for t in boundary)


def test_render_determinism(leslie_doc):
    svg1, js1 = render_portrait(leslie_doc)
    svg2, js2 = render_portrait(leslie_doc)
    assert svg1 == svg2 and js1 == js2
    # a rebuilt document renders to the same bytes
    params = ParamBindings(F(1), F(1), F(1, 2))
    doc2 = build_portrait(leslie_system(params.A, params.B, params.C), params)
    svg3, js3 = render_portrait(doc2)
    assert svg3 == svg1 and js3 == js1


def test_rendered_json_shape(leslie_doc):
    _, js = render_portrait(leslie_doc)
    doc = json.loads(js)
    assert set(doc) == {"system", "regime", "equilibria", "trajectories"}
    assert doc["regime"] == "positive"
    assert len(doc["equilibria"]) == len(leslie_doc.markers)
    labels = {e.get("label") for e in doc["equilibria"]}
    assert {"E0", "E1", "E2", "Estar"} <= labels
    by_chart = {e["chart"]: e for e in doc["equilibria"]}
    assert by_chart["U2"]["sectors"] == {
        "hyperbolic": 2,
        "parabolic": 2,
        "elliptic": 0,
        "status": "resolved",
    }
    for entry in doc["trajectories"]:
        assert set(entry) == {"seed", "role", "direction", "reason", "points"}
        for x, y in entry["points"]:
            assert x * x + y * y <= 1.0 + 1e-6


def test_rendered_svg_structure(leslie_doc):
    svg, _ = render_portrait(leslie_doc)
    text = svg.decode("utf-8")
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert 'clip-path="url(#quadrant)"' in text
    for stroke in ("#9aa0a6", "#1a73e8", "#d93025"):
        assert stroke in text
    assert text.count("<polyline") >= 70
    assert "regime 1-AC: positive" in text


# ---------------------------------------------------------------------------
# other parameter regimes


def test_collapse_regime_portrait():
    params = ParamBindings(F(1), F(1), F(1))
    sys = leslie_system(params.A, params.B, params.C)
    doc = build_portrait(sys, params, grid=2, tmax=40.0)
    assert doc.regime == "zero"
    by_label = {m.label: m for m in doc.markers if m.label}
    # the interior point collapses onto (0, C); the merged point keeps
    # the E1 name and becomes a saddle-node
    assert "Estar" not in by_label
    assert by_label["E1"].classification == "saddle-node"
    assert by_label["E2"].classification == "saddle"
    assert any(t.role == "separatrix" for t in doc.trajectories)


def test_negative_regime_portrait():
    params = ParamBindings(F(3), F(1), F(1, 2))
    assert params.regime_value < 0
    sys = leslie_system(params.A, params.B, params.C)
    doc = build_portrait(sys, params, grid=2, tmax=150.0)
    assert doc.regime == "negative"
    by_label = {m.label: m for m in doc.markers if m.label}
    assert "Estar" not in by_label
    # without an interior point, (0, C) attracts the open quadrant
    assert by_label["E1"].classification == "stable node"
    target = disc_from_plane(0.0, 0.5)
    grid = [t for t in doc.trajectories if t.seed_id.startswith("grid:")]
    assert grid and all(
        t.reason == REASON_EQ and _dist(t.endpoint(), target) < 1e-6 for t in grid
    )


def test_full_disc_marker_count():
    params = ParamBindings(F(1), F(1), F(1, 2))
    sys = leslie_system(params.A, params.B, params.C)
    doc = build_portrait(sys, params, positive_quadrant_only=False, grid=2, tmax=10.0)
    assert len(doc.markers) == 11
    sides = {m.marker_id for m in doc.markers if m.chart != "U3"}
    assert sides == {
        "inf:U1+:0",
        "inf:U1+:-1",
        "inf:U2+:0",
        "inf:U1-:0",
        "inf:U1-:-1",
        "inf:U2-:0",
    }
    assert {m.label for m in doc.markers if m.chart == "U3"} == {
        "E0",
        "E1",
        "E2",
        "Estar",
        "other",
    }


def test_separatrix_seeds_respect_quadrant_filter(leslie_doc):
    markers = leslie_doc.markers
    unfiltered = separatrix_seeds(markers, positive_quadrant_only=False)
    filtered = separatrix_seeds(markers, positive_quadrant_only=True)
    assert len(filtered) == 6
    assert len(unfiltered) == 8
    assert {s.seed_id for s in filtered} <= {s.seed_id for s in unfiltered} | {
        s.seed_id for s in filtered
    }
    for s in filtered:
        assert s.disc[0] >= -1e-6 and s.disc[1] >= -1e-6


def test_full_disc_portrait_compiles_each_polynomial_once(monkeypatch):
    # one Flow per portrait: the U3, U1 and U2 components, however many
    # orbits are drawn
    compiled = []

    def counting(p):
        compiled.append(p)
        return compile_poly(p)

    monkeypatch.setattr("pdisc.portrait.compile_poly", counting)
    params = ParamBindings(F(1), F(1), F(1, 2))
    sys = leslie_system(params.A, params.B, params.C)
    doc = build_portrait(sys, params, positive_quadrant_only=False, grid=2, tmax=10.0)
    assert len(doc.trajectories) > 8
    assert len(compiled) == 6


# ---------------------------------------------------------------------------
# irrational saddles: interval Jacobians


@pytest.mark.parametrize(
    "source, quadrant",
    [
        ("dx = x^2 - 2\ndy = y^2 - x*y - 3\n", False),
        ("dx = x^2 + y^2 - 3\ndy = x*y - 1\n", True),
    ],
    ids=["saddle-full", "saddle-quadrant"],
)
def test_irrational_saddles_get_separatrices(source, quadrant, tmp_path, capsys):
    doc = build_portrait(parse_system(source), positive_quadrant_only=quadrant)
    saddles = [
        m for m in doc.markers if m.classification == "saddle" and not m.record.point.is_exact
    ]
    assert saddles
    for m in saddles:
        seps = [t for t in doc.trajectories if t.seed_id.startswith(f"sep:{m.marker_id}:")]
        assert seps and all(t.role == "separatrix" for t in seps)
    svg, js = render_portrait(doc)
    assert json.loads(js)["trajectories"]

    path = tmp_path / "saddle.vf"
    path.write_text(source, encoding="utf-8")
    flag = "--quadrant" if quadrant else "--no-quadrant"
    out = tmp_path / "saddle.json"
    assert main(["portrait", str(path), flag, "--out", str(out)]) == 0
    assert out.read_bytes() == js
