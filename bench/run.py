"""pdisc benchmark: end-to-end job metrics and per-layer traced metrics.

Usage, from the repository root::

    python3 bench/run.py --workload leslie-exact --seed 1 --seconds 25 --trace 0

One process runs a fixed number of passes over the workload's jobs,
sized from ``--seconds`` and the workload's nominal pass time, never from
a clock, so a seed always attempts the same jobs.  Each pass is a fresh
seeded batch of inputs, stratified the same way every time.  A job makes
the call a CLI subcommand makes
(``cli.analyze_report``, ``cli.darboux_report``, or
``portrait.build_portrait`` + ``portrait.render_portrait``) and
serialises the result as the CLI does.  Every output is checked by the
independent oracles in ``oracles.py``.  Each job runs under an in-process
budget; a job that exceeds it is stopped and recorded as did-not-finish.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
pass twice, untraced and traced through ``tracer.py`` in alternating
order, and prints the per-layer metrics and the tracing overhead.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_traces"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WARMUP_S = 3.0  # untimed work first: the first seconds of load after idle run slow
JOB_BUDGET_S = 60.0  # one job; over it the job is did-not-finish
HARD_CAP_S = 150.0  # no job runs past this point of a run
SETUP_SAMPLES = 9
# Seconds one untraced pass takes on a shared 2-core VM (CPython 3.11).
# A run makes round(seconds / this) passes, at least MIN_PASSES; a traced
# run makes half as many, since it runs each pass twice.
NOMINAL_PASS_S = {"leslie-exact": 4.0, "generic-ladder": 6.5, "portrait-disc": 4.5}
MIN_PASSES = 3
DID_NOT_FINISH = "did-not-finish"
ORBIT_REASONS = ("converged-to-equilibrium", "reached-tmax", "reached-boundary", "step-underflow")

END_TO_END_UNITS = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}


class JobBudgetExceeded(BaseException):
    """Raised by the alarm inside an over-budget job.

    A BaseException, so no ``except Exception`` inside the package can
    swallow it."""


def _on_alarm(signum, frame):
    raise JobBudgetExceeded()


# ---------------------------------------------------------------------------
# the package under measurement


class Pdisc:
    """The pdisc modules a job calls, imported from this checkout's ``src``."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        import pdisc
        from pdisc import cli, integrability, modelio, portrait

        if Path(pdisc.__file__).resolve().parent != SRC / "pdisc":
            raise ImportError(f"pdisc imported from {pdisc.__file__}, not from {SRC}")
        self.cli = cli
        self.integrability = integrability
        self.modelio = modelio
        self.portrait = portrait

    def parse(self, jobs: Sequence[workloads.Job]) -> List[object]:
        return [self.modelio.parse_system(job.source) for job in jobs]

    def run(self, job: workloads.Job, system) -> Tuple[object, ...]:
        """One job exactly as its CLI subcommand runs it after parsing."""
        if job.kind == "analyze":
            report = self.cli.analyze_report(system, quadrant=job.quadrant)
            return (_dump_json(report),)
        if job.kind == "darboux":
            bounds = self.integrability.SearchBounds(extactic_order=job.order)
            return (_dump_json(self.cli.darboux_report(system, bounds)),)
        params = None if job.leslie is None else self.modelio.ParamBindings(*job.leslie)
        doc = self.portrait.build_portrait(system, params=params, positive_quadrant_only=job.quadrant)
        svg, js = self.portrait.render_portrait(doc)
        return svg, js, doc


def _dump_json(obj: object) -> str:
    """The CLI's JSON serialisation."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# oracles


def _leslie_polys(a, b, c) -> Tuple[oracles.Poly, oracles.Poly]:
    return (
        oracles.parse_poly(f"x*({c}+x)*(1-x-{a}*y)"),
        oracles.parse_poly(f"{b}*y*({c}+x-y)"),
    )


def check_job(job: workloads.Job, out: Tuple[object, ...], pdisc: Pdisc) -> None:
    """Raise OracleError unless the job's output matches the oracles."""
    if job.leslie is not None:
        a, b, c = job.leslie
        P, Q = _leslie_polys(a, b, c)
        regime = workloads.regime_of(a, c)
    else:
        P, Q = oracles.parse_source(job.source)
    if job.kind == "portrait":
        svg, js, doc = out
        parsed = oracles.check_portrait(svg, js, pdisc.portrait.render_portrait(doc))
        if job.leslie is not None:
            if parsed["regime"] != regime:
                raise oracles.OracleError(f"portrait regime {parsed['regime']} != {regime}")
            finite = [e for e in parsed["equilibria"] if e["chart"] == "U3"]
            oracles.check_leslie_equilibria(finite, a, c, job.quadrant, P, Q)
        return
    report = json.loads(out[0])
    if job.kind == "analyze":
        if job.leslie is not None:
            if report["regime"] != regime:
                raise oracles.OracleError(f"report regime {report['regime']} != {regime}")
            oracles.check_leslie_equilibria(report["finite_equilibria"], a, c, job.quadrant, P, Q)
        else:
            oracles.check_points_close(report["finite_equilibria"], job.points)
        return
    lines = []
    if job.leslie is not None:
        lines = [oracles.parse_poly(t) for t in ("x", "y", f"x+{c}")]
    oracles.check_darboux(report, P, Q, job.order, lines)


# ---------------------------------------------------------------------------
# passes


class Sample(NamedTuple):
    """One job run: kind, seconds, and the failure class or None."""

    kind: str
    seconds: float
    failure: Optional[str]


class Runner:
    def __init__(self, pdisc: Pdisc, workload: str, seed: int, hard_deadline: float) -> None:
        self.pdisc = pdisc
        self.workload = workload
        self.seed = seed
        self.hard_deadline = hard_deadline
        self.samples: List[Sample] = []
        self.mismatches: List[str] = []

    def warm_up(self, seconds: float) -> None:
        """Run jobs from a stream no timed pass uses, untimed and unchecked."""
        deadline = time.perf_counter() + seconds
        jobs = workloads.build(self.workload, self.seed, -1)
        for job, system in zip(jobs, self.pdisc.parse(jobs)):
            if time.perf_counter() >= deadline:
                return
            self.run_pass([job], [system], check=False)

    def run_pass(
        self, jobs: Sequence[workloads.Job], systems: Sequence[object], check: bool, scaled: bool = False
    ) -> Tuple[float, float, List[Sample]]:
        """Run every job once; returns the summed job time, the same at
        reference speed (0.0 unless ``scaled``) and the samples.

        With ``scaled`` the reference kernel runs before the first job and
        after every job, and each job's time is scaled by the kernel times
        either side of it.  The kernel is outside every job's time."""
        samples: List[Sample] = []
        outputs: List[Optional[Tuple[object, ...]]] = []
        wall_ref = 0.0
        ref_before = reference.timed() if scaled else 0.0
        for job, system in zip(jobs, systems):
            budget = min(JOB_BUDGET_S, self.hard_deadline - time.perf_counter())
            failure: Optional[str] = None
            out = None
            t0 = time.perf_counter()
            try:
                if budget <= 0:
                    raise JobBudgetExceeded()
                signal.setitimer(signal.ITIMER_REAL, budget)
                try:
                    out = self.pdisc.run(job, system)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except JobBudgetExceeded:
                failure = DID_NOT_FINISH
            except Exception as exc:  # a crashing job is a recorded failure, not a crashed run
                failure = type(exc).__name__
            samples.append(Sample(job.kind, time.perf_counter() - t0, failure))
            outputs.append(out)
            if scaled:
                ref_after = reference.timed()
                wall_ref += at_reference_speed(samples[-1].seconds, ref_before, ref_after)
                ref_before = ref_after
        wall = sum(s.seconds for s in samples)
        if check:
            for job, out in zip(jobs, outputs):
                if out is None:
                    continue
                try:
                    check_job(job, out, self.pdisc)
                except (oracles.OracleError, KeyError, ValueError) as exc:
                    self.mismatches.append(f"{job.name}: {type(exc).__name__}: {exc}")
        return wall, wall_ref, samples


def kind_sums(samples: Sequence[Sample]) -> Dict[str, float]:
    sums = {"analyze": 0.0, "darboux": 0.0, "portrait": 0.0}
    for s in samples:
        sums[s.kind] += s.seconds
    return sums


def latency_summary(samples: Sequence[Sample]) -> Tuple[float, float, float, int]:
    """(p50, tail value, tail percentile, sample count) over job times.

    A failed job counts as +inf.  The tail is the highest percentile with
    at least ten samples beyond it (the maximum when there are fewer than
    eleven samples)."""
    times = sorted(math.inf if s.failure else s.seconds for s in samples)
    n = len(times)
    k = max(n - 11, 0) if n > 10 else n - 1
    return statistics.median(times), times[k], 100.0 * (k + 1) / n, n


# ---------------------------------------------------------------------------
# set-up time


def at_reference_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` scaled to the speed at which the reference kernel takes
    ``reference.REFERENCE_S``, from kernel times taken either side of it."""
    return seconds * reference.REFERENCE_S / ((ref_before + ref_after) / 2)


def measure_setup(workload: str, seed: int) -> Tuple[float, float]:
    """Medians of the wall time of fresh interpreters that import pdisc and
    build and parse the first pass of inputs: as measured, and at
    reference speed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    times, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        ref_before = reference.timed()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        times.append(time.perf_counter() - t0)
        scaled.append(at_reference_speed(times[-1], ref_before, reference.timed()))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.decode(errors='replace').strip()}")
    return statistics.median(times), statistics.median(scaled)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tr: Tracer) -> Dict[str, float]:
    m: Dict[str, float] = {}
    for name in (
        "exactalg.ffdet", "exactalg.resultant_wrt", "exactalg.isolate_real_roots",
        "exactalg.refine_root", "equilibria.finite_equilibria", "equilibria.classify_point",
        "compactify.to_chart", "compactify.blowup_analysis", "darboux.extactic",
        "integrability.run_pipeline", "portrait.integrate_orbit",
    ):
        m[f"{name}.calls"] = tr.calls(name)
        m[f"{name}.self_s"] = tr.self_s(name)
    for name in (
        "exactalg.solve_linear", "exactalg.nullspace", "compactify.infinite_equilibria",
        "darboux.find_invariant_lines", "darboux.find_exponential_factors",
        "portrait.build_portrait", "portrait.render_portrait", "modelio.parse_system",
        "cli.analyze_report", "cli.darboux_report",
    ):
        m[f"{name}.self_s"] = tr.self_s(name)
    m["equilibria.finite_equilibria.incl_s"] = tr.incl_s("equilibria.finite_equilibria")
    m["exactalg.ffdet.max_dim"] = tr.maxima["exactalg.ffdet.max_dim"]
    m["exactalg.resultant_wrt.max_coeff_bits"] = tr.maxima["exactalg.resultant_wrt.max_coeff_bits"]
    for name in (
        "exactalg.mpoly.mul", "exactalg.mpoly.exact_div", "portrait.compile_poly",
    ):
        m[f"{name}.calls"] = tr.counts[name]
    m["equilibria.irrational_points"] = tr.counts["equilibria.irrational_points"]
    m["equilibria.undetermined"] = tr.counts["equilibria.undetermined"]
    m["portrait.field_evals"] = tr.field_evals
    orbits = tr.calls("portrait.integrate_orbit")
    m["portrait.field_evals_per_orbit"] = tr.field_evals / orbits if orbits else 0.0
    for reason in ORBIT_REASONS:
        m[f"portrait.orbits_by_reason.{reason}"] = tr.counts[f"portrait.orbits_by_reason.{reason}"]
    return m


LAYER_UNITS = {"calls": "count", "self_s": "s", "incl_s": "s", "max_dim": "rows", "max_coeff_bits": "bits"}


def layer_unit(name: str) -> str:
    if name.startswith(("trace.", "jobs.")) and name.endswith("_s"):
        return "s"
    if name.startswith("share."):
        return "ratio"
    if name == "jobs.fail_ratio":
        return "ratio"
    last = name.rsplit(".", 1)[-1]
    if last == "field_evals_per_orbit":
        return "evals/orbit"
    return LAYER_UNITS.get(last, "count")


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


# ---------------------------------------------------------------------------
# main


def _median_dict(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def traced_pass(runner: Runner, tracer: Tracer, jobs: Sequence[workloads.Job]) -> Tuple[float, Dict[str, float]]:
    """Parse and run the jobs again with every wrapper installed."""
    tracer.reset()
    tracer.install()
    try:
        wall, _, samples = runner.run_pass(jobs, runner.pdisc.parse(jobs), check=False)
    finally:
        tracer.remove()
    row = layer_metrics(tracer)
    sums = kind_sums(samples)
    ffdet = row["exactalg.ffdet.self_s"]
    finite = row["equilibria.finite_equilibria.incl_s"]
    orbits = row["portrait.integrate_orbit.self_s"]
    row["share.ffdet_self_of_darboux"] = _share(ffdet, sums["darboux"])
    row["share.finite_equilibria_incl_of_analyze"] = _share(finite, sums["analyze"])
    row["share.integrate_orbit_self_of_portrait"] = _share(orbits, sums["portrait"])
    row["share.ffdet_self_of_wall"] = _share(ffdet, wall)
    row["share.finite_equilibria_incl_of_wall"] = _share(finite, wall)
    row["share.integrate_orbit_self_of_wall"] = _share(orbits, wall)
    return wall, row


def setup_only(workload: str, seed: int) -> int:
    Pdisc().parse(workloads.build(workload, seed, 0))
    return 0


def pass_count(workload: str, seconds: float, traced: bool) -> int:
    """Passes in one run: a function of the arguments alone."""
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload] / (2 if traced else 1)))


def measure(args: argparse.Namespace) -> int:
    t_start = time.perf_counter()
    pdisc = Pdisc()
    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(pdisc, args.workload, args.seed, t_start + HARD_CAP_S)
    runner.warm_up(WARMUP_S)
    setup_raw_s, setup_s = (None, None) if args.trace else measure_setup(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    walls: List[float] = []
    walls_ref: List[float] = []  # at reference speed
    sums: List[Dict[str, float]] = []
    traced_walls: List[float] = []
    traced_rows: List[Dict[str, float]] = []
    spans: List[Tuple[int, str, float, float, int]] = []  # (pass, name, start, end, parent)
    for index in range(pass_count(args.workload, args.seconds, bool(args.trace))):
        # past the hard cap every job is did-not-finish at once
        jobs = workloads.build(args.workload, args.seed, index)
        # odd passes run traced first, so the overhead is not an order effect
        traced_first = tracer is not None and index % 2 == 1
        if traced_first:
            t_wall, row = traced_pass(runner, tracer, jobs)
        wall, wall_ref, samples = runner.run_pass(jobs, pdisc.parse(jobs), check=True, scaled=True)
        walls_ref.append(wall_ref)
        if tracer is not None and not traced_first:
            t_wall, row = traced_pass(runner, tracer, jobs)
        walls.append(wall)
        sums.append(kind_sums(samples))
        runner.samples.extend(samples)
        if tracer is not None:
            traced_walls.append(t_wall)
            traced_rows.append(row)
            spans.extend((index,) + span for span in tracer.spans)

    samples = runner.samples
    failed = [s for s in samples if s.failure]
    by_class = Counter(s.failure for s in failed)
    p50, tail, tail_pct, n = latency_summary(samples)
    kinds = _median_dict(sums)
    wall_s = statistics.median(walls)
    fail_ratio = len(failed) / len(samples)
    print(f"# passes = {len(walls)}, pass wall times (s) = {[round(w, 3) for w in walls]}")
    # the mean, not the median, of the scaled passes: every run holds the
    # same strata in the same proportions, and the mean weighs them alike
    wall_ref_s = statistics.mean(walls_ref)
    print(f"# wall_s = {wall_s:.6g} s as measured (median pass), {wall_ref_s:.6g} s at reference speed (mean pass)")
    if setup_s is not None:
        print(f"# setup_s = {setup_raw_s:.6g} s as measured, {setup_s:.6g} s at reference speed")
    for kind in ("analyze", "darboux", "portrait"):
        print(f"# {kind}_s = {kinds[kind]:.6g} s")
    print(f"# job_p50_s = {p50:.6g} s over {n} jobs")
    print(f"# job_tail_s = {tail:.6g} s at p{tail_pct:.0f} over {n} jobs")
    print(f"# fail_ratio = {fail_ratio:.6g} ({len(failed)}/{n}) {dict(sorted(by_class.items()))}")
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "wall_ref_s": wall_ref_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        metrics = _median_dict(traced_rows)
        metrics["jobs.analyze_s"] = kinds["analyze"]
        metrics["jobs.darboux_s"] = kinds["darboux"]
        metrics["jobs.portrait_s"] = kinds["portrait"]
        metrics["jobs.fail_ratio"] = fail_ratio
        metrics["jobs.failed.TypeError"] = by_class["TypeError"]
        metrics["jobs.failed.did-not-finish"] = by_class[DID_NOT_FINISH]
        metrics["jobs.failed.other"] = len(failed) - by_class["TypeError"] - by_class[DID_NOT_FINISH]
        metrics["trace.untraced_wall_s"] = wall_s
        metrics["trace.traced_wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_walls, walls))
        units = {name: layer_unit(name) for name in metrics}
        TRACE_DIR.mkdir(exist_ok=True)
        with open(TRACE_DIR / f"{args.workload}-{args.seed}.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for line in runner.mismatches:
        print(f"oracle mismatch: {line}", file=sys.stderr)
    result = {
        "correct": not runner.mismatches,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not runner.mismatches else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            return setup_only(args.workload, args.seed)
        return measure(args)
    except (ImportError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
