"""Tests of the benchmark's generators, oracles and tracer.

Run from the repository root: ``python3 -m pytest bench/test_bench.py -q``.
"""

from __future__ import annotations

import copy
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def pkg():
    return run.Pdisc()


def _leslie_job(kind: str, order: int = 1, quadrant: bool = False) -> workloads.Job:
    a, b, c = Fraction(3, 2), Fraction(2, 5), Fraction(1, 3)
    return workloads.Job("t", kind, workloads.leslie_source(a, b, c), quadrant, order, (a, b, c))


def _run(pkg, job):
    return pkg.run(job, pkg.parse([job])[0])


# -- generators -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    assert workloads.build(name, 7, 0) == workloads.build(name, 7, 0)
    assert workloads.build(name, 7, 1) == workloads.build(name, 7, 1)
    assert workloads.build(name, 7, 0) != workloads.build(name, 8, 0)
    assert workloads.build(name, 7, 0) != workloads.build(name, 7, 1)


def test_leslie_triples_cover_every_regime_evenly():
    for seed in range(20):
        triples = workloads.leslie_triples(random.Random(seed), per_regime=2)
        regimes = [workloads.regime_of(a, c) for a, _, c in triples]
        assert sorted(regimes) == sorted(list(workloads.REGIMES) * 2)
        assert sum(a * c == 1 for a, _, c in triples) == 2
        assert all(min(t) > 0 for t in triples)


def _regimes(jobs):
    return {workloads.regime_of(j.leslie[0], j.leslie[2]) for j in jobs if j.leslie}


def test_leslie_exact_uses_every_regime_in_a_pass():
    assert _regimes(workloads.build("leslie-exact", 5, 0)) == set(workloads.REGIMES)


def test_portrait_disc_rotates_regimes_over_passes():
    per_pass = [_regimes(workloads.build("portrait-disc", 5, i)) for i in range(6)]
    assert per_pass == [{r} for r in workloads.REGIMES] * 2


def test_portrait_triples_stay_near_their_anchor():
    rng = random.Random(3)
    for regime in workloads.REGIMES * 20:
        triple = workloads.anchored_triple(rng, regime)
        assert workloads.regime_of(triple[0], triple[2]) == regime
        for x, anchor in zip(triple[:2], workloads.PORTRAIT_ANCHORS[regime]):
            assert abs(x / anchor - 1) <= 3 * workloads.PORTRAIT_STEP


def test_reference_kernel_is_fixed_work():
    import reference

    assert [reference.one_round(r) for r in range(reference.ROUNDS)] == [reference.one_round(r) for r in range(reference.ROUNDS)]
    assert run.at_reference_speed(3.0, 0.1, 0.3) == pytest.approx(3.0 * reference.REFERENCE_S / 0.2)


def test_pass_count_depends_on_arguments_only():
    for name in workloads.WORKLOADS:
        assert run.pass_count(name, 30, False) == run.pass_count(name, 30, False) >= run.MIN_PASSES
        assert run.pass_count(name, 30, True) <= run.pass_count(name, 30, False)
        assert run.pass_count(name, 1, False) == run.MIN_PASSES


def test_generic_points_solve_the_system():
    for seed in range(3):
        for job in workloads.build("generic-ladder", seed, 0):
            P, Q = oracles.parse_source(job.source)
            if job.kind != "analyze":
                continue
            for x, y in job.points:
                for f in (P, Q):
                    value = sum(float(c) * x**i * y**j for (i, j), c in f.items())
                    assert abs(value) < 1e-7
            xs = sorted(x for x, _ in job.points)
            assert all(b - a > 1e-6 for a, b in zip(xs, xs[1:]))


def test_generic_ladder_degrees_and_point_counts():
    jobs = [j for j in workloads.build("generic-ladder", 3, 0) if j.kind == "analyze"]
    counts = {}
    for job in jobs:
        P, Q = oracles.parse_source(job.source)
        counts[max(i + j for (i, j) in list(P) + list(Q))] = len(job.points)
    assert counts == {d: 2 * d for d in workloads.GENERIC_DEGREES}


def test_saddle_inputs_only_in_first_pass():
    names = lambda idx: {j.name for j in workloads.build("portrait-disc", 1, idx)}
    assert {"saddle-full:portrait", "saddle-quadrant:portrait"} <= names(0)
    assert not any(n.startswith("saddle") for n in names(1))


# -- oracles ----------------------------------------------------------------


def test_poly_parser_reads_package_format():
    assert oracles.parse_poly("-1*x^2 + 3/2*x*y - 5") == {
        (2, 0): Fraction(-1), (1, 1): Fraction(3, 2), (0, 0): Fraction(-5)}
    assert oracles.parse_poly("-x^2") == {(2, 0): Fraction(1)}


def test_oracles_accept_real_reports(pkg):
    for job in (_leslie_job("analyze"), _leslie_job("analyze", quadrant=True), _leslie_job("darboux")):
        run.check_job(job, _run(pkg, job), pkg)


def test_oracles_reject_corrupted_equilibrium(pkg):
    job = _leslie_job("analyze")
    report = json.loads(_run(pkg, job)[0])
    bad = copy.deepcopy(report)
    bad["finite_equilibria"][0]["x"] = "1/7"
    with pytest.raises(oracles.OracleError):
        run.check_job(job, (json.dumps(bad),), pkg)
    bad = copy.deepcopy(report)
    bad["finite_equilibria"][0]["det"] = "12345"
    with pytest.raises(oracles.OracleError):
        run.check_job(job, (json.dumps(bad),), pkg)


def test_oracles_reject_corrupted_darboux_report(pkg):
    job = _leslie_job("darboux")
    report = json.loads(_run(pkg, job)[0])
    assert report["darboux"]["invariant_curves"]
    bad = copy.deepcopy(report)
    bad["darboux"]["invariant_curves"][0]["cofactor"] += " + 1"
    with pytest.raises(oracles.OracleError):
        run.check_job(job, (json.dumps(bad),), pkg)
    bad = copy.deepcopy(report)
    bad["darboux"]["invariant_curves"] = bad["darboux"]["invariant_curves"][1:]
    with pytest.raises(oracles.OracleError):
        run.check_job(job, (json.dumps(bad),), pkg)


def test_certificate_recheck_rejects_wrong_lambda():
    P, Q = oracles.parse_poly("x*(1-y)"), oracles.parse_poly("y*(x-1)")
    report = {
        "system": "dx = x - x*y\ndy = x*y - y\n",
        "bounds": {"extactic_order": 1},
        "darboux": {
            "invariant_curves": [
                {"f": "x", "cofactor": "1 - y"},
                {"f": "y", "cofactor": "x - 1"},
            ],
            "exponential_factors": [],
        },
        "verdict": {"verdict": "DarbouxFirstIntegral", "lambda": ["1", "1"], "mu": []},
    }
    with pytest.raises(oracles.OracleError):
        oracles.check_darboux(report, P, Q, 1)
    # 1/(x*y) is an integrating factor: -K_x - K_y = -div
    report["verdict"] = {"verdict": "DarbouxIntegratingFactor", "lambda": ["-1", "-1"], "mu": []}
    oracles.check_darboux(report, P, Q, 1)


def test_generic_point_oracle_rejects_a_moved_point():
    entries = [{"x": "~1.41421356237 (root of t^2 - 2)", "y": "0"}]
    oracles.check_points_close(entries, [(math.sqrt(2), 0.0)])
    with pytest.raises(oracles.OracleError):
        oracles.check_points_close(entries, [(math.sqrt(2) + 1e-6, 0.0)])
    with pytest.raises(oracles.OracleError):
        oracles.check_points_close(entries, [(math.sqrt(2), 0.0), (0.0, 0.0)])


def test_portrait_oracle_rejects_bad_output():
    svg = b'<svg xmlns="http://www.w3.org/2000/svg"></svg>'
    doc = {"trajectories": [{"seed": "s", "points": [[0.5, 0.5], [0.6, 0.7]]}]}
    js = json.dumps(doc).encode()
    oracles.check_portrait(svg, js, (svg, js))
    with pytest.raises(oracles.OracleError):
        oracles.check_portrait(svg, js, (svg + b" ", js))
    with pytest.raises(oracles.OracleError):
        oracles.check_portrait(b"<svg>", js, (b"<svg>", js))
    outside = json.dumps({"trajectories": [{"seed": "s", "points": [[0.9, 0.9]]}]}).encode()
    with pytest.raises(oracles.OracleError):
        oracles.check_portrait(svg, outside, (svg, outside))


# -- runner and tracer ------------------------------------------------------


def test_latency_summary_counts_failures_as_infinite():
    samples = [run.Sample("analyze", float(i), None) for i in range(1, 21)]
    samples.append(run.Sample("analyze", 0.1, "TypeError"))
    p50, tail, pct, n = run.latency_summary(samples)
    assert n == 21 and p50 == 11.0
    assert tail == 11.0 and pct == pytest.approx(100 * 11 / 21)


def test_budget_stops_a_job_as_did_not_finish(pkg, monkeypatch):
    monkeypatch.setattr(run, "JOB_BUDGET_S", 0.01)
    job = _leslie_job("darboux", order=2)
    runner = run.Runner(pkg, "leslie-exact", 0, hard_deadline=float("inf"))
    previous = run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    try:
        _, _, samples = runner.run_pass([job], pkg.parse([job]), check=True)
    finally:
        run.signal.signal(run.signal.SIGALRM, previous)
    assert [s.failure for s in samples] == [run.DID_NOT_FINISH]
    assert not runner.mismatches


def test_tracer_rebinds_every_alias_and_restores(pkg):
    import pdisc.darboux
    import pdisc.exactalg
    import pdisc.exactalg.matrix

    original = pdisc.exactalg.matrix.ffdet
    tr = Tracer()
    tr.install()
    try:
        assert pdisc.darboux.ffdet is not original
        assert pdisc.exactalg.ffdet is pdisc.darboux.ffdet
        job = _leslie_job("darboux")
        out = _run(pkg, job)
    finally:
        tr.remove()
    assert pdisc.darboux.ffdet is original and pdisc.exactalg.ffdet is original
    run.check_job(job, out, pkg)
    assert tr.calls("exactalg.ffdet") > 0
    assert tr.calls("cli.darboux_report") == 1
    assert tr.counts["exactalg.mpoly.mul"] > 0
    assert 0 < tr.self_s("exactalg.ffdet") <= tr.incl_s("cli.darboux_report")
