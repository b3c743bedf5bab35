"""Byte-identity of the Leslie reports and portraits.

The sha256 of the JSON that `pdisc analyze` (full disc and quadrant) and
`pdisc darboux` (extactic orders 1 and 2) print for one Leslie triple in
each sign of 1-AC and for the bundled parameters.  The digests were
recorded before irrational equilibria were paired through the first
subresultant; Leslie inputs have only rational equilibria, so no change
to that pairing may move a byte here.  The order-2 darboux pins (and the
order-2 DUMPED_DARBOUX pins of the TRIPLES) were re-recorded once a
line's multiplicity was read from E_1 at both orders; only
`invariant_curves[].multiplicity` moved.

The portrait JSON and SVG of the bundled parameters (quadrant and full
disc) are pinned too, as recorded once orbits ended only in proved
capture regions (at every node and focus, saddle-node and blown-up
point) and orbits on an invariant axis took their exact limit.  The
full-disc portrait pins and the full-view count pins below were
re-recorded once an equator marker was seeded only on its own side of
the equator: its other-side seeds duplicated the antipodal marker's.
The bundled full disc, `chart-plan`, `saddle-quadrant` and the three
Leslie portraits, and the full-view count pins, were re-recorded again
once a step at speed |F| < 1 could last up to 0.5 / |F| rather than
0.5: slow stretches take fewer, longer steps, which moves their
polylines, while `LIMITS`, recorded before, held, so no orbit's end
moved.  Every portrait pin but the bundled quadrant's, the full-view
count pins and the quadrant's `hit` count were re-recorded once every
capture ladder started at 12/25 rather than 3/100: an orbit now stops in
the larger proved region that holds the one it stopped in, which
shortens its polyline.  Of `LIMITS` only the bundled full disc moved,
where eight orbits that ran out of time now end at `inf:U2-:0` (see
`NEWLY_DECIDED`).  Every portrait pin and the six count pins of the
bundled portrait were re-recorded once the integrator's relative
tolerance went from 1e-9 to 1e-8: steps grow about 10^(1/5)-fold, which
moves every polyline, while `LIMITS`, `NEWLY_DECIDED` and `REGIONS` held
unedited.  They were re-recorded again, with the same three held, once a
finite-chart step was sized by the chord it drew on the disc and the
finite chart's absolute tolerance went from 1e-12 to 1e-9: fewer, longer
steps move every polyline.  The bundled full disc and the two full-disc
Leslie portraits, their `LIMITS` and the full-view count pins were
re-recorded once every seed on an invariant line, not only on a
coordinate axis, took its exact limit: the two centre branches of the
saddle-node (-C, 0) moved, and nothing else.  Every portrait pin and
the six count pins of the bundled portrait were re-recorded once the
Dormand-Prince 5(4) pair at a relative tolerance of 1e-8 gave way to the
Tsitouras 5(4) pair at 5e-8: its smaller error constants let steps grow,
which moves every polyline, while `LIMITS`, `NEWLY_DECIDED` and
`REGIONS` held unedited.  Their floats come from a
fixed sequence of binary64 operations, so they match on every supported
CPython; a change to the integrator that moves them must say so.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re

import pytest

from pdisc import capture, portrait
from pdisc.cli import analyze_report, darboux_report
from pdisc.compactify import disc_equilibria
from pdisc.integrability import SearchBounds
from pdisc.modelio import ParamBindings, parse_system
from pdisc.portrait import PortraitDoc, build_portrait, render_portrait
from test_portrait import FULL_DISC

TRIPLES = {
    "bundled": ("1", "1", "1/2"),
    "positive": ("3/5", "3/5", "7/5"),
    "zero": ("2", "3/5", "1/2"),
    "negative": ("5/2", "3/7", "5/3"),
}

GOLDEN = {
    "bundled:analyze": "d72c4efe726d500603ff66c57743228c51166c2592a98e06800cb9e86bc68125",
    "bundled:analyze-quadrant": "153e21bf0c0e80c9a91f6132e657ac8f1ef329ec8755d40d6c98d9cc94a7000d",
    "bundled:darboux-1": "4b3c483db8196783430630a069f2ad677cd863d0abb97a44152e28ecb5366b54",
    "bundled:darboux-2": "90c6a67ce3c54f02460094b0a192dfb34b65e633d52001579628cf8c99799521",
    "positive:analyze": "ce948737b6dc03d9ddee847d94e3654966fbb96bf9f36ec139a6a3dbc639e7a4",
    "positive:analyze-quadrant": "3c58a67d1c58c14f5805f9995ef247eab8f1fc716ad98da6776d68bc769acdef",
    "positive:darboux-1": "4a1c38a7cc9151ffc35e16ec78986bf2e99a11b882166c156ef7022e77a002a0",
    "positive:darboux-2": "87630217b025703507d598a60dfbbfea6fb1e425d4cc6a4324163ddd949fba8d",
    "zero:analyze": "88b98a95e4a78b16bea648bc6eae6330907ca46762c8a478e65e9c09cbd71f09",
    "zero:analyze-quadrant": "6ab74dae18e094ad47b09c7965aded2de8a407502a5feb410ead1885035d41ce",
    "zero:darboux-1": "e05c7f9b1419b7039cd757520512dfaa43237387a133e133e140b95d14fdf29f",
    "zero:darboux-2": "7061aba1c9c765252e9e04353b14f843f87e57f324adeb7c24c70a37220856c3",
    "negative:analyze": "174e29063f5f5778883a4c0ff7ecab0e66f1111eb57d3f970cabaf4ebd37e789",
    "negative:analyze-quadrant": "116ef0b299abe724cd3cec05fe189a6c5c12aab4bac967397ee3608f4513901a",
    "negative:darboux-1": "2366658291027b23ec4c0cabbe96622604f8d051aff727c4dbff77c33ca52339",
    "negative:darboux-2": "ca14a3a19d3a1eda4821371e5155d4baa31c6e88e88675b561b9edf3ce0f0d85",
}

# (JSON, SVG) of the bundled-parameter portrait
PORTRAITS = {
    "quadrant": (
        "5845217f572c0f7949947f18ccbada6529821d63bf90678a8b252ebb2ac60d64",
        "8f01118c8040b5e4d8f77bad64f164f8815cca03e515c05459c432763e7ebf1a",
    ),
    "full": (
        "eb6e19aaaada0d6b9443030c1399592ee746c82bfca5ebdb97e25f177e791d9e",
        "a40be536346c80a2bcc3b58d351148f2e5bcd07196ea402c3600d1251effc46c",
    ),
}


def _source(a: str, b: str, c: str) -> str:
    return f"params: A={a}, B={b}, C={c}\ndx = x*(C+x)*(1-x-A*y)\ndy = B*y*(C+x-y)\n"


def _report(name: str, kind: str) -> dict:
    sys = parse_system(_source(*TRIPLES[name]))
    if kind == "analyze":
        return analyze_report(sys)
    if kind == "analyze-quadrant":
        return analyze_report(sys, quadrant=True)
    return darboux_report(sys, SearchBounds(extactic_order=int(kind[-1])))


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_leslie_report_bytes(key):
    name, kind = key.split(":")
    text = json.dumps(_report(name, kind), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[key]


def _leslie(triple: tuple) -> tuple:
    sys = parse_system(_source(*triple))
    return sys, ParamBindings(sys.params["A"], sys.params["B"], sys.params["C"])


def _leslie_portrait(triple: tuple, quadrant: bool) -> PortraitDoc:
    return build_portrait(*_leslie(triple), positive_quadrant_only=quadrant)


@functools.lru_cache(maxsize=None)
def _golden_portrait(group: str, name: str) -> PortraitDoc:
    """The portrait that `PORTRAITS` (group "bundled"), `OTHER_PORTRAITS`
    ("other") or `LESLIE_PORTRAITS` ("leslie") pins under `name`, built
    once for its byte pins and its limit pin."""
    if group == "bundled":
        return _leslie_portrait(TRIPLES["bundled"], name == "quadrant")
    if group == "other":
        source, quadrant, grid = OTHER_PORTRAITS[name][:3]
        return build_portrait(parse_system(source), positive_quadrant_only=quadrant, grid=grid)
    return _leslie_portrait(*LESLIE_PORTRAITS[name][:2])


def _digests(doc: PortraitDoc) -> tuple:
    svg, js = render_portrait(doc)
    return hashlib.sha256(js).hexdigest(), hashlib.sha256(svg).hexdigest()


@pytest.mark.parametrize("view", sorted(PORTRAITS))
def test_bundled_portrait_bytes(view):
    assert _digests(_golden_portrait("bundled", view)) == PORTRAITS[view]


# (JSON, SVG) of portraits outside the Leslie family: the two irrational
# saddle inputs, and the degree 4 and 5 systems of the ROADMAP baseline
# on the full disc at grid 2 (the quintic's first steps overflow and are
# rejected).  Recorded, like all portrait pins, once every node and focus
# had a capture region.
OTHER_PORTRAITS = {
    "saddle-full": (
        "dx = x^2 - 2\ndy = y^2 - x*y - 3\n",
        False,
        8,
        "3b1e98dec682c71f55ac93b2fa59978535343e6da9ee0bdd1f591feea0aea4ad",
        "6442c3959347205a96c3887b20025599c10d71d3c9b67b0957084c822da3b144",
    ),
    "saddle-quadrant": (
        "dx = x^2 + y^2 - 3\ndy = x*y - 1\n",
        True,
        8,
        "d3c01b1b6b95b950bd67e4b3265d4ab90161172e856a285d04c54e209262f870",
        "95e208bd81e4fcb3662b2e09a499b16d2ce86c26ad980f64963e946c2637bf6e",
    ),
    "quartic": (
        "dx = x^4 - 3*x^2*y + y^2 - 2*x + 1\ndy = y^4 - x*y^2 + 2*x^2 - y - 3\n",
        False,
        2,
        "6d77f6703419db221327e98f9bdf25dd52c2948cad4726a9f753df8b4d4cddf0",
        "1d269dd3a2708c3aeac552490b60e5b10099017cc7f5563adefdeb6c09f0875d",
    ),
    "quintic": (
        "dx = x^5 - 3*x^2*y^2 + y^3 - 2*x + 1\ndy = y^5 - x*y^3 + 2*x^2 - y - 3\n",
        False,
        2,
        "5d82d2af53b0899ef28ca9900cfe8458e8f14840931528008dc8c1dbc19c8dbe",
        "dcdcb6f9f5a7a4f49fb1ba9d8990bd7e0e73bfff57527f662e8871a4439126e3",
    ),
    # finite saddle-nodes, blown-up points on both sides of U2 and in V1
    "chart-plan": (
        "dx = y^2 - x*y + y - 1\ndy = x*y - x^2 + x\n",
        False,
        8,
        "65b9e6c4c6f0fe5ffc307755e2c90d52485cf061b4d10046b5cf912e983c45e5",
        "df7147bb4ab7b58f1c7c02c7d622e6fe4359c495d41b1ea31f1f66d319c2a553",
    ),
}


@pytest.mark.parametrize("name", sorted(OTHER_PORTRAITS))
def test_other_portrait_bytes(name):
    assert _digests(_golden_portrait("other", name)) == OTHER_PORTRAITS[name][3:]


# (JSON, SVG) of Leslie portraits with their parameters: the 1-AC = 0
# triple, where E1 and Estar merge into a saddle-node, and one with
# 1-AC < 0.
LESLIE_PORTRAITS = {
    "zero-quadrant": (
        ("2", "1", "1/2"),
        True,
        "8e162fe6881401f12bdc57f0654f7ab8441dfad83672f23f4f0ed1d53a945dc1",
        "133db8368d4e51e13688771f9e8686c6361be4f2f877418891a17be0a161cdf6",
    ),
    "zero-full": (
        ("2", "1", "1/2"),
        False,
        "0251dfb80eab321aabb95183796e2a8ba13187e197ec4831fb0d42848816d9a0",
        "45a4a8187e353dc974ae9415e5c25473464a010237fb926e5e9f091280eb5367",
    ),
    "negative-full": (
        ("3", "1", "1/2"),
        False,
        "f960c52f9a629171df49035ee032cf961da4544b439671ce1aa629b155caf957",
        "0013a94a9d06f1fce71af8156e33473c7e34d65f12246a12213d86144fd67f36",
    ),
}


@pytest.mark.parametrize("name", sorted(LESLIE_PORTRAITS))
def test_leslie_portrait_bytes(name):
    assert _digests(_golden_portrait("leslie", name)) == LESLIE_PORTRAITS[name][2:]


# sha256 of the sorted (seed_id, reason, limit) triples of every golden
# portrait above, as JSON with a missing limit as null: where each orbit
# ends, without its polyline.  A change to the integrator that moves
# polylines, and so the byte pins, but no orbit's end keeps these: the
# length bound on slow steps did.  Larger capture regions keep every
# decided limit and decide some orbits that ran out of time: the bundled
# full disc was re-recorded for its NEWLY_DECIDED orbits alone.  The
# three full-disc Leslie pins were re-recorded once every seed on an
# invariant line took its exact limit: the two centre branches of the
# saddle-node (-C, 0), which ran out of time on the line x = -C, now end
# reached-boundary at inf:U2+:0 and inf:U2-:0, and no other orbit moved.
LIMITS = {
    ("bundled", "full"): "c4efff0f52f1d90dd94afc9ee87e3d34ad1a8c7cf3d6191ff111155f5bf6c881",
    ("bundled", "quadrant"): "d1d68d9774e773a989ca5e4d4a93e4fd10f3057c1aaeac8c71db306e0208675a",
    ("leslie", "negative-full"): "08d8f9135c108eb9a24cfefe3d9a71da20123e4ce061b9ae4ed60954c5a400d2",
    ("leslie", "zero-full"): "d4d965ce6e238e15dcf42babc7c696c55c60c233b7fca6ded3a4488a923375f4",
    ("leslie", "zero-quadrant"): "d7892f2851fb05485bd15ee0b4a3aada4ff2d894adbf637332d20cdd27ffb4cf",
    ("other", "chart-plan"): "13315d655a844d173f32cb640d3c2d0914e029260dbaa56fbc95548e05f9dd8f",
    ("other", "quartic"): "052542ffb294f65258056c9bf2d3b230ffc015a1aa35bdb48693eac61710523e",
    ("other", "quintic"): "d0ba8000802e27fefd7d033141751ae45b8163743fb98a70474ae06b45eaeb47",
    ("other", "saddle-full"): "83e8d952ab0fd9ee2fa80c307907e3cea13d6efbeeb244d438ddff31a814f1a0",
    ("other", "saddle-quadrant"): "ea9ce76c3123f8b69880cb55f97b8bdb1e0fb1b38c4cc774b1615c1d9209ba5b",
}


@pytest.mark.parametrize("group, name", sorted(LIMITS))
def test_golden_portrait_limits(group, name):
    doc = _golden_portrait(group, name)
    triples = sorted((t.seed_id, t.reason, t.limit) for t in doc.trajectories)
    assert hashlib.sha256(json.dumps(triples).encode("utf-8")).hexdigest() == LIMITS[group, name]


# each golden portrait built again at a tenth of the integrator's relative
# tolerance and of the finite chart's absolute one: every orbit decided in
# both builds keeps its limit, and none is decided in only one, so the
# tolerances move polylines, not ends
@pytest.mark.parametrize("group, name", sorted(LIMITS))
def test_golden_portrait_limits_hold_at_a_tenth_of_the_tolerance(group, name, monkeypatch):
    def decided(doc):
        return {t.seed_id: t.limit for t in doc.trajectories if t.limit is not None}

    golden = decided(_golden_portrait(group, name))
    monkeypatch.setattr(portrait, "RTOL_DEFAULT", portrait.RTOL_DEFAULT / 10)
    monkeypatch.setattr(portrait, "ATOL_FINITE", portrait.ATOL_FINITE / 10)
    assert decided(_golden_portrait.__wrapped__(group, name)) == golden


# the orbits of the bundled full disc that ended reached-tmax while every
# capture ladder started at 3/100: each now reaches a blown-up node's
# ellipse at inf:U2-:0, proved at half-widths (0.18, 0.12) rather than
# (0.045, 0.03)
NEWLY_DECIDED = ("grid:0:22", "grid:1:22", *(f"grid:{i}:23" for i in range(2, 8)))


def test_larger_regions_decide_the_bundled_orbits_that_ran_out_of_time():
    ends = {t.seed_id: (t.reason, t.limit) for t in _golden_portrait("bundled", "full").trajectories}
    assert {s: ends[s] for s in NEWLY_DECIDED} == {s: (portrait.REASON_EQ, "inf:U2-:0") for s in NEWLY_DECIDED}


def test_an_orbit_on_an_invariant_line_stays_on_it():
    # the centre branches of the saddle-node (-C, 0) of (A, B, C) = (9/7,
    # 1, 3/7) on the full disc are seeded on the invariant line x = -C,
    # where y' = -B y^2.  Integrated, the backward branch sep:other:0,
    # from y = 1/1000, had one step move x 3 ulps off -C while every
    # finite-chart step was checked to 1e-12 absolute, and that offset
    # grew like e^(0.612 t) backward until the orbit ended at inf:U1-:0,
    # a limit it does not have; later it stayed on the line only to run
    # out of time, as did the forward branch sep:other:1 from y =
    # -1/1000.  Each seed is tagged with the line, so neither is
    # integrated: its polyline is the segment from the seed to the
    # line's end on the rim
    sys, params = _leslie(("9/7", "1", "3/7"))
    doc = build_portrait(sys, params, positive_quadrant_only=False, grid=2)
    ends = {t.seed_id: t for t in doc.trajectories}
    for seed_id, direction, limit, rim in (
        ("sep:other:0", "backward", "inf:U2+:0", (0.0, 1.0)),
        ("sep:other:1", "forward", "inf:U2-:0", (0.0, -1.0)),
    ):
        tr = ends[seed_id]
        assert (tr.direction, tr.reason, tr.limit) == (direction, portrait.REASON_BOUNDARY, limit)
        assert len(tr.points) == 2 and tr.points[1] == rim
        x, y = portrait.plane_from_disc(*tr.points[0])
        assert abs(x + 3 / 7) < 1e-15 and abs(abs(y) - 1 / 1000) < 1e-15


# the capture regions of the flow of every golden portrait above, and of
# FULL_DISC's saddle-quadrant system on the full disc (FULL_DISC's other
# systems are golden full-disc flows): each as (marker id, region class,
# size) in `Flow.captures` order, an irrational point's id without its
# minimal polynomials, and the size the half-widths of an ellipse's proof
# box or the (r, k) of a triangle.  Recorded while every ladder started at
# 3/100.  A change to the ladders that only adds sizes, each tried before
# the sizes that were, keeps every region, each at least as large.
REGIONS = {
    ("bundled", "full"): [
        ("other", "SaddleNodeCapture", (0.03, 0.25)),
        ("E0", "NodeCapture", (0.03, 0.03375)),
        ("Estar", "NodeCapture", (0.03, 0.06375)),
        ("inf:U1+:-1", "SaddleNodeCapture", (0.03, 1.0)),
        ("inf:U1+:0", "NodeCapture", (0.03, 0.03375)),
        ("inf:U2+:0", "BlowupNodeCapture", (0.045, 0.03)),
        ("inf:U2+:0", "BlowupNodeCapture", (0.03, 0.045)),
        ("inf:U1-:-1", "SaddleNodeCapture", (0.03, 1.0)),
        ("inf:U1-:0", "NodeCapture", (0.03, 0.03375)),
        ("inf:U2-:0", "BlowupNodeCapture", (0.045, 0.03)),
        ("inf:U2-:0", "BlowupNodeCapture", (0.03, 0.045)),
    ],
    ("bundled", "quadrant"): [
        ("other", "SaddleNodeCapture", (0.03, 0.25)),
        ("E0", "NodeCapture", (0.03, 0.03375)),
        ("Estar", "NodeCapture", (0.03, 0.06375)),
        ("inf:U1+:0", "NodeCapture", (0.03, 0.03375)),
        ("inf:U2+:0", "BlowupNodeCapture", (0.045, 0.03)),
        ("inf:U2+:0", "BlowupNodeCapture", (0.03, 0.045)),
    ],
    ("full-disc", "saddle-quadrant"): [
        ("finite:~-1.61803398875,~-0.61803398875", "NodeCapture", (0.045, 0.03)),
        ("finite:~1.61803398875,~0.61803398875", "NodeCapture", (0.045, 0.03)),
    ],
    ("leslie", "negative-full"): [
        ("other", "SaddleNodeCapture", (0.03, 0.25)),
        ("E0", "NodeCapture", (0.03, 0.03375)),
        ("E1", "NodeCapture", (0.03, 0.05625)),
        ("inf:U1+:-1/3", "SaddleNodeCapture", (0.03, 0.25)),
        ("inf:U1+:0", "NodeCapture", (0.03, 0.03375)),
        ("inf:U2+:0", "BlowupNodeCapture", (0.03, 0.0375)),
        ("inf:U2+:0", "BlowupNodeCapture", (0.0375, 0.03)),
        ("inf:U1-:-1/3", "SaddleNodeCapture", (0.03, 0.25)),
        ("inf:U1-:0", "NodeCapture", (0.03, 0.03375)),
        ("inf:U2-:0", "BlowupNodeCapture", (0.03, 0.0375)),
        ("inf:U2-:0", "BlowupNodeCapture", (0.0375, 0.03)),
    ],
    ("leslie", "zero-full"): [
        ("other", "SaddleNodeCapture", (0.03, 0.25)),
        ("E0", "NodeCapture", (0.03, 0.03375)),
        ("E1", "SaddleNodeCapture", (0.03, 1.0)),
        ("inf:U1+:-1/2", "SaddleNodeCapture", (0.03, 0.25)),
        ("inf:U1+:0", "NodeCapture", (0.03, 0.03375)),
        ("inf:U2+:0", "BlowupNodeCapture", (0.03, 0.03375)),
        ("inf:U2+:0", "BlowupNodeCapture", (0.03, 0.03375)),
        ("inf:U1-:-1/2", "SaddleNodeCapture", (0.03, 0.25)),
        ("inf:U1-:0", "NodeCapture", (0.03, 0.03375)),
        ("inf:U2-:0", "BlowupNodeCapture", (0.03, 0.03375)),
        ("inf:U2-:0", "BlowupNodeCapture", (0.03, 0.03375)),
    ],
    ("leslie", "zero-quadrant"): [
        ("other", "SaddleNodeCapture", (0.03, 0.25)),
        ("E0", "NodeCapture", (0.03, 0.03375)),
        ("E1", "SaddleNodeCapture", (0.03, 1.0)),
        ("inf:U1+:0", "NodeCapture", (0.03, 0.03375)),
        ("inf:U2+:0", "BlowupNodeCapture", (0.03, 0.03375)),
        ("inf:U2+:0", "BlowupNodeCapture", (0.03, 0.03375)),
    ],
    ("other", "chart-plan"): [
        ("inf:U1+:-1", "NodeCapture", (0.045, 0.03)),
        ("inf:U1+:1", "BlowupNodeCapture", (0.03, 0.06)),
        ("inf:U1+:1", "BlowupNodeCapture", (0.03, 0.0375)),
        ("inf:U1+:1", "BlowupNodeCapture", (0.06, 0.03)),
        ("inf:U1+:1", "BlowupNodeCapture", (0.0375, 0.03)),
        ("inf:U1-:-1", "NodeCapture", (0.045, 0.03)),
        ("inf:U1-:1", "BlowupNodeCapture", (0.03, 0.06)),
        ("inf:U1-:1", "BlowupNodeCapture", (0.03, 0.0375)),
        ("inf:U1-:1", "BlowupNodeCapture", (0.06, 0.03)),
        ("inf:U1-:1", "BlowupNodeCapture", (0.0375, 0.03)),
    ],
    ("other", "quartic"): [
        ("finite:~1.28994411309,~0.250755685176", "NodeCapture", (0.0375, 0.03)),
        ("inf:U1+:0", "NodeCapture", (0.03, 0.03375)),
        ("inf:U2+:0", "NodeCapture", (0.03, 0.03375)),
        ("inf:U1-:0", "NodeCapture", (0.03, 0.03375)),
        ("inf:U2-:0", "NodeCapture", (0.03, 0.03375)),
    ],
    ("other", "quintic"): [
        ("finite:~-1.15785003212,~-0.521326488691", "NodeCapture", (0.0525, 0.03)),
        ("finite:-1,1", "NodeCapture", (0.03375, 0.03)),
        ("finite:~1.4978832164,~0.982066921143", "NodeCapture", (0.07125, 0.03)),
        ("finite:~2.36562923031,~-1.9382628046", "NodeCapture", (0.06, 0.03)),
        ("inf:U1+:0", "NodeCapture", (0.03, 0.03375)),
        ("inf:U2+:0", "NodeCapture", (0.03, 0.03375)),
        ("inf:U1-:0", "NodeCapture", (0.03, 0.03375)),
        ("inf:U2-:0", "NodeCapture", (0.03, 0.03375)),
    ],
    ("other", "saddle-full"): [
        ("finite:~-1.41421356237,~-2.57793547457", "NodeCapture", (0.03, 0.04125)),
        ("finite:~1.41421356237,~2.57793547457", "NodeCapture", (0.03, 0.04125)),
        ("inf:U1+:0", "NodeCapture", (0.045, 0.03)),
        ("inf:U2+:0", "NodeCapture", (0.03, 0.03375)),
        ("inf:U1-:0", "NodeCapture", (0.045, 0.03)),
        ("inf:U2-:0", "NodeCapture", (0.03, 0.03375)),
    ],
    ("other", "saddle-quadrant"): [
        ("finite:~-1.61803398875,~-0.61803398875", "NodeCapture", (0.045, 0.03)),
        ("finite:~1.61803398875,~0.61803398875", "NodeCapture", (0.045, 0.03)),
    ],
}


def _region_census(group: str, name: str) -> list:
    if group == "bundled":
        (sys, params), quadrant = _leslie(TRIPLES["bundled"]), name == "quadrant"
    elif group == "leslie":
        (sys, params), quadrant = _leslie(LESLIE_PORTRAITS[name][0]), LESLIE_PORTRAITS[name][1]
    elif group == "other":
        sys, params, quadrant = parse_system(OTHER_PORTRAITS[name][0]), None, OTHER_PORTRAITS[name][1]
    else:
        sys, params, quadrant = *FULL_DISC[name][:2], False
    # the flow of `build_portrait`
    disc = disc_equilibria(sys, quadrant)
    out = []
    for r in portrait.Flow(disc, portrait.disc_markers(disc, params)).captures:
        size = (r.r, r.k) if isinstance(r, capture.SaddleNodeCapture) else r.half
        out.append((re.sub(r" \(root of [^)]*\)", "", r.marker_id), type(r).__name__, size))
    return out


@pytest.mark.parametrize("group, name", sorted(REGIONS))
def test_capture_regions_keep_their_class_and_do_not_shrink(group, name):
    got, pinned = _region_census(group, name), REGIONS[group, name]
    assert [g[:2] for g in got] == [p[:2] for p in pinned]
    for (marker_id, cls, size), (_, _, old) in zip(got, pinned):
        assert all(new >= was for new, was in zip(size, old)), (marker_id, cls, size, old)


# field-component evaluations of the bundled-parameter portrait: one per
# component at each seed and after each chart switch, through the
# `compile_poly` evaluators, and six per step after, inlined in each
# chart's `compile_step` kernel (45948 and 259796 at a relative
# tolerance of 1e-9, whose shorter steps took more of them; 30960 and
# 169808 while a finite-chart step that drew too long a chord was halved
# and the finite chart's absolute tolerance was 1e-12; 163532 for the
# full disc while the centre branches of the saddle-node (-C, 0) were
# integrated along their invariant line; 29016 and 163312 with the
# Dormand-Prince pair at a relative tolerance of 1e-8, whose shorter
# steps took more of them)
@pytest.mark.parametrize("view, evals", [("quadrant", 22020), ("full", 137908)], ids=["quadrant", "full"])
def test_bundled_portrait_evaluation_count(view, evals, monkeypatch):
    calls = {"fresh": 0, "steps": 0}

    def counting(compile, key):
        def counted(*polys):
            f = compile(*polys)

            def g(*args):
                calls[key] += 1
                return f(*args)

            return g

        return counted

    monkeypatch.setattr(portrait, "compile_poly", counting(portrait.compile_poly, "fresh"))
    monkeypatch.setattr(portrait, "compile_step", counting(portrait.compile_step, "steps"))
    sys = parse_system(_source(*TRIPLES["bundled"]))
    params = ParamBindings(sys.params["A"], sys.params["B"], sys.params["C"])
    build_portrait(sys, params, positive_quadrant_only=view == "quadrant")
    assert 12 * calls["steps"] + calls["fresh"] == evals


# calls to `hit` of any capture region in the bundled-parameter portrait,
# a blown-up node's test of its ellipse counted again; a region is tested
# only once the state's disc point is in its disc box (11340 and 176305
# calls before any filter, while every step was capped at h = 0.5; 491
# and 7760 while every capture ladder started at 3/100, when the
# quadrant's smaller disc boxes let fewer states through; 553 and 5979 at
# a relative tolerance of 1e-9, with more accepted states near a region;
# 395 and 4076 before finite-chart steps were sized by their chord;
# 4051 for the full disc while the centre branches of (-C, 0) were
# integrated along their invariant line; 372 and 4042 with the
# Dormand-Prince pair at a relative tolerance of 1e-8, with more accepted
# states near a region)
@pytest.mark.parametrize("view, hits", [("quadrant", 286), ("full", 2549)], ids=["quadrant", "full"])
def test_bundled_portrait_capture_test_count(view, hits, monkeypatch):
    calls = [0]

    def counting(hit):
        def g(self, a, b, sgn):
            calls[0] += 1
            return hit(self, a, b, sgn)

        return g

    for cls in (capture.NodeCapture, capture.SaddleNodeCapture, capture.BlowupNodeCapture):
        monkeypatch.setattr(cls, "hit", counting(cls.hit))
    sys = parse_system(_source(*TRIPLES["bundled"]))
    params = ParamBindings(sys.params["A"], sys.params["B"], sys.params["C"])
    build_portrait(sys, params, positive_quadrant_only=view == "quadrant")
    assert calls[0] == hits


# calls to `Flow.capture` in the bundled-parameter portrait: the orbit
# loop makes one only for an accepted state whose disc point is in its
# chart's gate (3780 and 27987 calls, one per accepted step, before the
# gate; 1229 and 7846 at a relative tolerance of 1e-9, with more accepted
# steps; 853 and 5335 before finite-chart steps were sized by their
# chord; 5101 for the full disc while the centre branches of (-C, 0) were
# integrated along their invariant line; 778 and 5083 with the
# Dormand-Prince pair at a relative tolerance of 1e-8, with more accepted
# steps)
@pytest.mark.parametrize("view, captures", [("quadrant", 605), ("full", 3627)], ids=["quadrant", "full"])
def test_bundled_portrait_capture_call_count(view, captures, monkeypatch):
    calls = [0]
    original = portrait.Flow.capture

    def counted(self, *args):
        calls[0] += 1
        return original(self, *args)

    monkeypatch.setattr(portrait.Flow, "capture", counted)
    sys = parse_system(_source(*TRIPLES["bundled"]))
    params = ParamBindings(sys.params["A"], sys.params["B"], sys.params["C"])
    build_portrait(sys, params, positive_quadrant_only=view == "quadrant")
    assert calls[0] == captures


# a chart's step is compiled, with its two field components, when an
# orbit first enters the chart, and serves both time signs: a flow never
# integrated compiles none, every orbit of the bundled quadrant portrait
# runs in the finite chart, and the full disc runs in every chart (5
# compilations for the full disc while each chart had one step per time
# sign, the finite chart's backward one too while the centre branch of
# (-C, 0) that runs backward was integrated along its invariant line)
def test_bundled_portrait_compiles_only_the_charts_it_enters(monkeypatch):
    charts, polys = [], []
    original_step, original_poly = portrait.compile_step, portrait.compile_poly

    def counted_step(p, q):
        charts.append((p, q))
        return original_step(p, q)

    def counted_poly(p):
        polys.append(p)
        return original_poly(p)

    monkeypatch.setattr(portrait, "compile_step", counted_step)
    monkeypatch.setattr(portrait, "compile_poly", counted_poly)
    sys = parse_system(_source(*TRIPLES["bundled"]))
    params = ParamBindings(sys.params["A"], sys.params["B"], sys.params["C"])
    flow = portrait.Flow(disc_equilibria(sys))
    assert charts == [] and polys == [] and dict(flow.fields) == {}
    u1, u2 = flow.fields.polys["U1"], flow.fields.polys["U2"]
    assert flow.fields["U1"] is flow.fields["U1"] and len(flow.fields["U1"]) == 3
    assert charts == [u1] and polys == list(u1)
    charts.clear()
    build_portrait(sys, params)
    assert charts == [(sys.P, sys.Q)]
    charts.clear()
    build_portrait(sys, params, positive_quadrant_only=False)
    assert charts == [(sys.P, sys.Q), u2, u1]


# sha256 of the `pdisc analyze` JSON (full disc, quadrant) of systems
# outside the Leslie family, most with irrational equilibria: the degree
# 4 and 5 systems of the ROADMAP baseline, an irrational saddle, three
# products of lines cut by an ellipse and three dense systems.  Recorded while the univariate
# kernel still ran over Fraction; the exact decisions do not depend on
# how the coefficients are stored, so no byte may move.  The dense
# degree 6 and 7 members of the family of the ROADMAP's degree-scaling
# item were recorded before the real algebraic numbers left
# `pdisc.equilibria` for `pdisc.exactalg.algebraic`, and the degree 8
# member while every refinement still quartered its interval and every
# zero test at an irrational point took an exact gcd.  The degree 9 and
# 10 members were recorded while every sign at an irrational point was
# read from its RUR image; each runs in seconds once a sign is read
# from the refined coordinate box first.  The degree 11 member, where
# root refinement runs deepest, was recorded while refinement still
# bisected one level per evaluation.
OTHER_ANALYZE = {
    "dense-6": (
        "dx = x^6 - 3*x^2*y^3 + y^4 - 2*x + 1\ndy = y^6 - x*y^4 + 2*x^2 - y - 3\n",
        "dc3aaf87bb67a9edee744c874cbf6843cafff56ed19cd41f0574f12edde12e24",
        "e028d9af963e8ac45c9431166ea26a98e4285f5d24cb7261aae5c501bf48b88d",
    ),
    "dense-7": (
        "dx = x^7 - 3*x^2*y^4 + y^5 - 2*x + 1\ndy = y^7 - x*y^5 + 2*x^2 - y - 3\n",
        "14cc55d423ca0226b5f7ba9caa5bed62e6da7f53159c3464daef94df6eb1326b",
        "0d1607e557294345bbcaf17192a5cb73df6bf3cf1c34156f53b60ba4effd9daa",
    ),
    "dense-8": (
        "dx = x^8 - 3*x^2*y^5 + y^6 - 2*x + 1\ndy = y^8 - x*y^6 + 2*x^2 - y - 3\n",
        "957cb249736160d76d86608aadd904e4d3f5ab346bda1eecede36d3d1c9d58ff",
        "30f3df50b6137d3070792d32ee10b67cf3b34d58b1096cb717860fba5ff55f7f",
    ),
    "dense-9": (
        "dx = x^9 - 3*x^2*y^6 + y^7 - 2*x + 1\ndy = y^9 - x*y^7 + 2*x^2 - y - 3\n",
        "bab96ec759362505c823835c722cacfc61138dd08ebe14b0aa4aa0f622c8b095",
        "b1faf5896808ee0281a763fc49580a8877e49053ef069883f55b5944ed5e89de",
    ),
    "dense-10": (
        "dx = x^10 - 3*x^2*y^7 + y^8 - 2*x + 1\ndy = y^10 - x*y^8 + 2*x^2 - y - 3\n",
        "36241ae2b413b3302a0c22d6c1cab7749930fcb0d66aaf864435dbd61c0beec2",
        "729068b899317a0dcda363d055c5a4ca0b8cf3631447d14f7f7dc802b9d84a01",
    ),
    "dense-11": (
        "dx = x^11 - 3*x^2*y^8 + y^9 - 2*x + 1\ndy = y^11 - x*y^9 + 2*x^2 - y - 3\n",
        "42c47e7e8293d4900be0bf3d61544f3c0bef9f897063d19c7d82a35887aebdeb",
        "f854694f26cf1137ce784cd6648b091275457212b70ea3b10a645a3c98289ffd",
    ),
    "quartic": (
        "dx = x^4 - 3*x^2*y + y^2 - 2*x + 1\ndy = y^4 - x*y^2 + 2*x^2 - y - 3\n",
        "1afc5687d9c770f37f5f41be4c7ff0ee80f28d8d5f9fc061ec910009a7bd86d4",
        "3c0efb4ddb6836ae8e4a447c03b127a6f5ff4d5aa1f8d4205b99c80d91fda9ac",
    ),
    "quintic": (
        "dx = x^5 - 3*x^2*y^2 + y^3 - 2*x + 1\ndy = y^5 - x*y^3 + 2*x^2 - y - 3\n",
        "6f4e4a2207db4b5d11c2d2b27d99f1be7f8eed34a120ac3b29b63d4cda6ef9da",
        "239cb27f0ec4f2fae49db193c1fb882c8cf186aa1247ec7a9e8d1059ede20dcc",
    ),
    "saddle": (
        "dx = x^2 - 2\ndy = y^2 - x*y - 3\n",
        "127cbd91ff1ae4c0d59b270ad69ca07f5337755ee84e956c6a664c4ff0682461",
        "e6292cc114074e6412d00a029740e8042fdc52b623e4aee73cf7b3f3b2788645",
    ),
    "line-ellipse-2": (
        "dx = (-3*x + 1*y + 1)*(-3*x + 3*y + 1)\n"
        "dy = (1*x^2 + 0*x*y + 1*y^2 + -1*x + 2*y + -4)\n",
        "e06c7d86fdb191e7738c8974c5cbe49ef9edf4c5a9abbd25765f667826354ebc",
        "0ee12e7501466ea15e437e3aa7eea4743ba4af1206e5a3f8740ef875c0266cae",
    ),
    "line-ellipse-3": (
        "dx = (-3*x + 1*y + 1)*(-3*x + 3*y + 1)*(2*x + 2*y + -1)\n"
        "dy = (1*x^2 + 1*x*y + 1*y^2 + 0*x + -2*y + -1)\n",
        "d0f64de52a45564af43fba7e9515604e3c1e20314e36565c4ec4e330db0c3388",
        "42693a988395256ceec4dd3bd2cb858a64d214e4ff8aa83172a1a94621f287a6",
    ),
    "line-ellipse-4": (
        "dx = (-3*x + 1*y + 1)*(-3*x + 3*y + 1)*(2*x + 2*y + -1)*(2*x + 2*y + 1)\n"
        "dy = (1*x^2 + -1*x*y + 2*y^2 + -2*x + 1*y + -3)\n",
        "a17a286dfab2280e9369e78735e8a7cea10b199ca85bd77540be028ba2e79874",
        "a256b27e069973f824fe0d8158035f24383551533959cf16ddbcf69c09758d3b",
    ),
    "chart-plan": (
        "dx = y^2 - x*y + y - 1\ndy = x*y - x^2 + x\n",
        "256789506cde592e0896ec6f7c14676c2a0740e3c97f90081f6abbf4dacf20e8",
        "af1af4d1b19cc4b2eecfbd9e94e90734f39ee865447b4472fadb6e18a0f5c90f",
    ),
}


@pytest.mark.parametrize("name", sorted(OTHER_ANALYZE))
def test_other_analyze_bytes(name):
    source, full_digest, quadrant_digest = OTHER_ANALYZE[name]
    sys = parse_system(source)
    texts = (json.dumps(analyze_report(sys, quadrant=q), sort_keys=True, indent=2) + "\n" for q in (False, True))
    digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest() for text in texts)
    assert digests == (full_digest, quadrant_digest)


# sha256 of the `pdisc darboux` JSON at extactic orders 1 and 2 of the
# OTHER_ANALYZE systems, recorded while `MPoly` still stored `Fraction`
# coefficients; how the coefficients are stored decides nothing, so no
# byte may move.
OTHER_DARBOUX = {
    "chart-plan": (
        "268f6fc091e4780a9b2250cfeaf9d9dde5621d0f47aac755721c2f3809008df8",
        "307400e1e46fcc9bfbe310e53a088431314c9ff25840cfc22754a93990bd9d74",
    ),
    "line-ellipse-2": (
        "ccb62e32c264773e1a792aff7d923358f60264bc404f4f487a83f97966712b7c",
        "e6ae5fc79c8900f1940c92227c95eb42c69718658c96fece376f25b60455d21f",
    ),
    "line-ellipse-3": (
        "097134be03e1356f639ec969dd9849484095498785d56b644e45718868199174",
        "f965323bf27b45083f4ba649802566e82ef63f40231d0cebfd47f2097f42a4ee",
    ),
    "line-ellipse-4": (
        "e107a9dde53ccfa7a0c8fbc729d78a105fb9e6411809beb9f1e58cabc3c1fabf",
        "0f38a0f78e9dde46e1a54c66b429dea8dfea034c769faaa492babe9de1373b2a",
    ),
    "quartic": (
        "da2db0e238ba95d9fdcff5e25ab3dc862339ca3597b4ed9c848c21991359b3c0",
        "7ae0a5f67f61c1a84adbc9d454e7f799233729b2f8043ee472b2869d1867a612",
    ),
    "quintic": (
        "549ed12db69c2436e3c91b79d56df24e736a1720fd9a369dd0e017d703dadfb1",
        "6332c3625a34adf2abe30f2189cb40c444a522d4eb04bec00e2608126308f7e3",
    ),
    "saddle": (
        "74b64d99b278edc0575bb68854df85f5c70472e147223ca9ec654e6c49c382df",
        "0a9ea4154d7c9387ecb61c01203056f75752bafa0807f5c7f30cb3bfbad87cca",
    ),
}


@pytest.mark.parametrize("name", sorted(OTHER_DARBOUX))
@pytest.mark.parametrize("order", [1, 2])
def test_other_darboux_bytes(name, order):
    sys = parse_system(OTHER_ANALYZE[name][0])
    text = json.dumps(darboux_report(sys, SearchBounds(extactic_order=order)), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == OTHER_DARBOUX[name][order - 1]


# sha256 of the `pdisc darboux --dump-extactic` JSON at extactic orders 1
# and 2 of the TRIPLES and OTHER_ANALYZE systems: the pins above omit the
# expanded E_m, so these are the ones a change of sign or scale in E would
# move.  Recorded while E_m was still a Bareiss determinant.
DUMPED_DARBOUX = {
    "bundled": (
        "4d266487775e53cdd9c159eca5ca640494753490061068d81d72049d8a3e996a",
        "47db11b601feb8720522b58b94c7930f928ddfc84b5f307e542f14d5237e280b",
    ),
    "chart-plan": (
        "219c7b4fb49b6c21f1c8af0dc83a622a9d986ea31a2ee38195174f2ed0045957",
        "e4804618be4bce90496ba646e9d68f780c4a689c4fc7bae1bcee9a407199cdc5",
    ),
    "line-ellipse-2": (
        "fc32638221d5c989615979c6f9c2c0171f6314ee964401e25c635ecfc2e633b0",
        "b9d0bf6e8659a8755da0197bc2b70cc05f6a9c68e2badbf41fca9c91fd920801",
    ),
    "line-ellipse-3": (
        "aa2b395a2f1dc78a529416b29f02d74365f7968b944447f642c389a3d4ffe4f9",
        "c0a6a5800543e9268cd74f52338586ce48266c2578eea141bf964cd6149d63a7",
    ),
    "line-ellipse-4": (
        "e2e6d062a3cce117b8f4834b76d6063e0787598300db31215db330ac167cad7e",
        "d9971e9e5e92d46aa16f22bc49381d47fdbfe34c613ec9453b40b92c1ce8f4ce",
    ),
    "negative": (
        "b7769427347f0484d27d8c611bf8674444c5d59655091b8ba8f4a9047e5945e6",
        "d89d2aca89d3a496eb6c941229b7cc2f085ef92f6dea4ad5f014cdce96cf55ba",
    ),
    "positive": (
        "e9ab18e6af49a673b7d2c90046438e3f696f757856165b9ed5ce4cdb0125f1c9",
        "abf7ea284935cbb08c751d5151c682422cfbbf4bca5596774da24f427f57029d",
    ),
    "quartic": (
        "79c44fcb35edf3ac20531c862fa06b203fe927a9b632939b8ab56581871a260e",
        "6959977109bbf3734640b7eb1a065fbd52237b98d3fbc583443e47ba20417230",
    ),
    "quintic": (
        "79cf56d50fa9da5b960bc9337fefd1eb58a0d52ac9232bc43aeadaae4c781ada",
        "32df5b0dda74e92970d1e4ea05f327d693915a370d6c267b03cedc287d1667fc",
    ),
    "saddle": (
        "c8be3442f21d638092e5f523a9120b3037f36b58a98905554585ab6947571a91",
        "9d2920ace5c4924a9c0f4405f840a8917e21816f817a462702d756cc3c4a0721",
    ),
    "zero": (
        "94271b45b562229991ae8be70cc64f2ddff486d68e3315e3970b101ee7505ef5",
        "d00408f03595150f71fbe6dbe8c8b8391c53600ac635bb0649d7a5d54e4fb9b8",
    ),
}


@pytest.mark.parametrize("name", sorted(DUMPED_DARBOUX))
@pytest.mark.parametrize("order", [1, 2])
def test_dumped_extactic_bytes(name, order):
    source = _source(*TRIPLES[name]) if name in TRIPLES else OTHER_ANALYZE[name][0]
    report = darboux_report(parse_system(source), SearchBounds(extactic_order=order), dump_extactic=True)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DUMPED_DARBOUX[name][order - 1]


# sha256 of the order-2 `pdisc darboux --dump-extactic` JSON of the dense
# degree 8 and 10 members of OTHER_ANALYZE, whose E_2 has the most terms
# of any pinned input.  Recorded while M / P^3 was still Monge's M,
# built from N_2..N_5, divided by P^3.
DUMPED_DENSE_E2 = {
    "dense-8": "4c8af4c9b957dfc309a7e60e05472725c8809459dc5ae1dc626823f42a38114f",
    "dense-10": "502dd6db40f489f50d4f7b34956ffa7f48ae4ef480a20eff65211b7ff144da47",
}


@pytest.mark.parametrize("name", sorted(DUMPED_DENSE_E2))
def test_dumped_dense_e2_bytes(name):
    report = darboux_report(parse_system(OTHER_ANALYZE[name][0]), SearchBounds(extactic_order=2), dump_extactic=True)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DUMPED_DENSE_E2[name]


# sha256 of the `pdisc darboux` JSON at extactic orders 1 and 2 of one
# input per branch of the invariant-line search that reports a family of
# lines, with the family note each verdict carries.  Recorded while a
# family was still a sentinel entry of the curve list.
FAMILY_DARBOUX = {
    # P = 0: every vertical line
    "p-zero": (
        "dx = 0\ndy = 1\n",
        "x - c invariant for every c",
        "d5d1ad63d23b8ccecd73a05fd77b4682e6ba5644a9a9907e99b17cff3a1d933e",
        "ce118ce773b83fbb0b0180dbb63cc13cf76c34867fa5d194aa2880a83ddfee64",
    ),
    # the slant conditions constrain a only
    "a-only": (
        "dx = 1\ndy = 0\n",
        "y - (0)*x - b invariant for every b",
        "9d43fc9c67a5bd1955739e73ff3950c1078198468202cf0bb9a46e3db15755a3",
        "8c4fe41afdb9b77f625d98fbf9826b27ea4bb6dd011bd28fb243d472ecede1f4",
    ),
    # the slant conditions constrain b only
    "b-only": (
        "dx = x\ndy = y\n",
        "y - a*x - (0) invariant for every a",
        "8b7472a84c5cd953a7d8a8f77af029f9f86eb39704a35d721f8695005e732e4f",
        "23c239c9bf1372d392aff0376d7a976c4b6583a91b859f9519a37000236899d1",
    ),
    # one condition in both a and b
    "mixed": (
        "dx = x - 1\ndy = y - 1\n",
        "y - a*x - b invariant whenever b + a - 1 = 0",
        "23f18fc0b079de46ac2e113e2e78b476348e67f5a0088f5390aceab510124007",
        "782669f13569b61c72fd65bbbe75fa7cf0426c6b6c8eb5a2e1256988c8de451b",
    ),
    # every resultant against the chosen generator vanishes; the note
    # names every condition, whose common zeros b = 0 are the family
    "positive-dimensional": (
        "dx = x*(x+y)\ndy = y*(x+y)\n",
        "positive-dimensional slant-line condition set (one member shown); "
        "y - a*x - b invariant whenever b^2 = 0 and a*b + b = 0",
        "bd4c9c745b02ca006e94c86c403fc02c069d5da1efc307a3bd8bc8ade9a1d8df",
        "199f00b134ec1235ba821ef4428f1fd48157eaf201bdad87fb8788c30d0e4ab1",
    ),
    # the general route: every condition vanishes at the root a = 0
    "general": (
        "dx = y\ndy = 0\n",
        "y - (0)*x - b invariant for every b",
        "d543bfd930bc9cbcdb86445e8db9909681828ab7bd21f8b27d5351b3deec67a5",
        "0d8c7efb45bf8eacc929241e68fff9ca9bea87442c9179aa0bc59f6da3cfafb3",
    ),
}


@pytest.mark.parametrize("name", sorted(FAMILY_DARBOUX))
@pytest.mark.parametrize("order", [1, 2])
def test_family_darboux_bytes(name, order):
    source, note, *digests = FAMILY_DARBOUX[name]
    report = darboux_report(parse_system(source), SearchBounds(extactic_order=order))
    assert report["verdict"]["notes"][0] == "invariant-line family present: " + note
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digests[order - 1]
