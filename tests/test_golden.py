"""Byte-identity of the Leslie reports and portraits.

The sha256 of the JSON that `pdisc analyze` (full disc and quadrant) and
`pdisc darboux` (extactic orders 1 and 2) print for one Leslie triple in
each sign of 1-AC and for the bundled parameters.  The digests were
recorded before irrational equilibria were paired through the first
subresultant; Leslie inputs have only rational equilibria, so no change
to that pairing may move a byte here.

The portrait JSON and SVG of the bundled parameters (quadrant and full
disc) are pinned too: the quadrant as recorded once the integrator
reused its last stage, the full disc as recorded once orbits ended in
the proved capture regions of saddle-nodes and blown-up points.  Their floats
come from a fixed sequence of binary64 operations, so they match on
every supported CPython; a change to the integrator that moves them
must say so.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from pdisc import portrait
from pdisc.cli import analyze_report, darboux_report
from pdisc.integrability import SearchBounds
from pdisc.modelio import ParamBindings, parse_system
from pdisc.portrait import build_portrait, render_portrait

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
    "bundled:darboux-2": "95a5c22871367c38347ed76da6b88ceddae6b1f69919bba9aa799d98f1f9cda0",
    "positive:analyze": "ce948737b6dc03d9ddee847d94e3654966fbb96bf9f36ec139a6a3dbc639e7a4",
    "positive:analyze-quadrant": "3c58a67d1c58c14f5805f9995ef247eab8f1fc716ad98da6776d68bc769acdef",
    "positive:darboux-1": "4a1c38a7cc9151ffc35e16ec78986bf2e99a11b882166c156ef7022e77a002a0",
    "positive:darboux-2": "ee9cac5bda02151584d952661308adf52261b8b1ded8e9ce46f66834b7394c46",
    "zero:analyze": "88b98a95e4a78b16bea648bc6eae6330907ca46762c8a478e65e9c09cbd71f09",
    "zero:analyze-quadrant": "6ab74dae18e094ad47b09c7965aded2de8a407502a5feb410ead1885035d41ce",
    "zero:darboux-1": "e05c7f9b1419b7039cd757520512dfaa43237387a133e133e140b95d14fdf29f",
    "zero:darboux-2": "9bcfe7a8f9d4136a48c42e13f1af28b7c36c40491d2268898a1f4e3ab9520a4d",
    "negative:analyze": "174e29063f5f5778883a4c0ff7ecab0e66f1111eb57d3f970cabaf4ebd37e789",
    "negative:analyze-quadrant": "116ef0b299abe724cd3cec05fe189a6c5c12aab4bac967397ee3608f4513901a",
    "negative:darboux-1": "2366658291027b23ec4c0cabbe96622604f8d051aff727c4dbff77c33ca52339",
    "negative:darboux-2": "1a7fc803419aaaa282392dc3dc57670450a34932723dc81fcc3d885418b416b4",
}

# (JSON, SVG) of the bundled-parameter portrait
PORTRAITS = {
    "quadrant": (
        "5a7fc361fbb81abd088ab60c4a25e2cd10e215b3c1b0b8507bc7780bc14c1c85",
        "037f0279770aebcb08f392ebbbdc90e59633e1fb73c8a37037054cfb755937d0",
    ),
    "full": (
        "668bbf5fc1b38023d195ab24e49b21fc0f63a128fe1812179c760479b42bb4a0",
        "03fbd69c488f4e3731d5c311ff6b98902d7a4428c369a1b2cc1aaaa6867f4ce3",
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


@pytest.mark.parametrize("view", sorted(PORTRAITS))
def test_bundled_portrait_bytes(view):
    sys = parse_system(_source(*TRIPLES["bundled"]))
    params = ParamBindings(sys.params["A"], sys.params["B"], sys.params["C"])
    doc = build_portrait(sys, params, positive_quadrant_only=view == "quadrant")
    svg, js = render_portrait(doc)
    digests = (hashlib.sha256(js).hexdigest(), hashlib.sha256(svg).hexdigest())
    assert digests == PORTRAITS[view]


# (JSON, SVG) of portraits outside the Leslie family: the two irrational
# saddle inputs, and the degree 4 and 5 systems of the ROADMAP baseline
# on the full disc at grid 2 (the quintic's first steps overflow and are
# rejected).  Recorded before the Dormand-Prince step was written out as
# straight-line code.
OTHER_PORTRAITS = {
    "saddle-full": (
        "dx = x^2 - 2\ndy = y^2 - x*y - 3\n",
        False,
        8,
        "dea9984f190726b5f9b530eb3cf63553a2d8073840df2236102581842f69fe8f",
        "1b6ed743304e7a765cf567bfe70330d64942d3c950eee07a4cc45cccfbad3044",
    ),
    "saddle-quadrant": (
        "dx = x^2 + y^2 - 3\ndy = x*y - 1\n",
        True,
        8,
        "d2ab22e8c06d11e0dc7c7ffe930db88507ce44a5a7874815d4e7c690b9a6c894",
        "0c56bab41ea1b5ce6a2bc29a881d55b671c695ad0e225f52ec19c457d7262261",
    ),
    "quartic": (
        "dx = x^4 - 3*x^2*y + y^2 - 2*x + 1\ndy = y^4 - x*y^2 + 2*x^2 - y - 3\n",
        False,
        2,
        "eaa0104e8c2eb9132e188cb3db207f6829216cd792a20046f9b82e4e389a3487",
        "2f2de5dbc3da857876bb05681e47bfcad36bd5df3adcec3e442defcb75cdf3ba",
    ),
    "quintic": (
        "dx = x^5 - 3*x^2*y^2 + y^3 - 2*x + 1\ndy = y^5 - x*y^3 + 2*x^2 - y - 3\n",
        False,
        2,
        "2d00ffa7fb935de35c9f2acb7fdf6637369bb61e4f45dcdb842f99e8ef9b5e52",
        "c1f70c007eccbd9d46d7daa257d93b099bc0c3f8d47edb6a78bef44f81e37955",
    ),
    # finite saddle-nodes, blown-up points on both sides of U2 and in V1
    "chart-plan": (
        "dx = y^2 - x*y + y - 1\ndy = x*y - x^2 + x\n",
        False,
        8,
        "9c9328c87f2c0b6247d360775518d1c850998a9d1e154d9d52d154ac924476c4",
        "c2ff59226a4de8ce14a2cc2f084563f89db5b4128183cf6850e4b1ec77de1f0d",
    ),
}


@pytest.mark.parametrize("name", sorted(OTHER_PORTRAITS))
def test_other_portrait_bytes(name):
    source, quadrant, grid, js_digest, svg_digest = OTHER_PORTRAITS[name]
    doc = build_portrait(parse_system(source), positive_quadrant_only=quadrant, grid=grid)
    svg, js = render_portrait(doc)
    assert (hashlib.sha256(js).hexdigest(), hashlib.sha256(svg).hexdigest()) == (js_digest, svg_digest)


# (JSON, SVG) of Leslie portraits with their parameters: the 1-AC = 0
# triple, where E1 and Estar merge into a saddle-node, and one with
# 1-AC < 0.
LESLIE_PORTRAITS = {
    "zero-quadrant": (
        ("2", "1", "1/2"),
        True,
        "3250b59d2fb34604054fbfd4f67e1481044251862019796f0ff15229d1f60e30",
        "44a3b9d3756523a250e07ab62579800f2737e9032ae67cbf87d589040a5aac71",
    ),
    "zero-full": (
        ("2", "1", "1/2"),
        False,
        "c9ac7b6cf5d7ab8cf9d48390b1e67d187a37551f6e217560ded48e3498a66006",
        "7fac0465f55b4fa544c439c225a6ce5b7f5e250cd8b02198dbedbdd0bc80786c",
    ),
    "negative-full": (
        ("3", "1", "1/2"),
        False,
        "543216bcb104afb59c8e6fa3630f94a3afa17a9266e9b3f1e5b7448246db1b0c",
        "e75f11080a4c6957ee279982279ff3dccb5cce5e7936ede64900706a6d936506",
    ),
}


@pytest.mark.parametrize("name", sorted(LESLIE_PORTRAITS))
def test_leslie_portrait_bytes(name):
    triple, quadrant, js_digest, svg_digest = LESLIE_PORTRAITS[name]
    sys = parse_system(_source(*triple))
    params = ParamBindings(sys.params["A"], sys.params["B"], sys.params["C"])
    svg, js = render_portrait(build_portrait(sys, params, positive_quadrant_only=quadrant))
    assert (hashlib.sha256(js).hexdigest(), hashlib.sha256(svg).hexdigest()) == (js_digest, svg_digest)


# field-component evaluations of the bundled-parameter portrait: one per
# component at each seed and after each chart switch, six per step after
@pytest.mark.parametrize("view, evals", [("quadrant", 153276), ("full", 578146)])
def test_bundled_portrait_evaluation_count(view, evals, monkeypatch):
    calls = [0]
    compile_poly = portrait.compile_poly

    def counting(p):
        f = compile_poly(p)

        def g(x, y):
            calls[0] += 1
            return f(x, y)

        return g

    monkeypatch.setattr(portrait, "compile_poly", counting)
    sys = parse_system(_source(*TRIPLES["bundled"]))
    params = ParamBindings(sys.params["A"], sys.params["B"], sys.params["C"])
    build_portrait(sys, params, positive_quadrant_only=view == "quadrant")
    assert calls[0] == evals


# sha256 of the `pdisc analyze` JSON (full disc, quadrant) of systems
# outside the Leslie family, most with irrational equilibria: the degree
# 4 and 5 systems of the ROADMAP baseline, an irrational saddle, and three
# products of lines cut by an ellipse.  Recorded while the univariate
# kernel still ran over Fraction; the exact decisions do not depend on
# how the coefficients are stored, so no byte may move.
OTHER_ANALYZE = {
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
