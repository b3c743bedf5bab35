"""Command-line surface for the analysis pipeline.

Subcommands: ``analyze`` (equilibria, charts, blow-ups), ``darboux``
(invariant curves, exponential factors, integrability verdict),
``portrait`` (Poincare-disc SVG plus trajectory JSON), and ``leslie``
(six biological parameters -> reduced bindings and regime).  Exit codes:
0 success, 2 input error, 3 internal invariant violation.  Identical
inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from pdisc.compactify import blowup_analysis, blowup_fragment, chart_fragment, disc_equilibria
from pdisc.equilibria import DEGENERATE, EquilibriumRecord, equilibrium_fragment, leslie_labels
from pdisc.errors import InputError, InternalInvariantError, PDiscError
from pdisc.integrability import MAX_CURVE_DEGREE, SearchBounds, run_pipeline, verdict_fragment
from pdisc.darboux import darboux_fragment
from pdisc.modelio import (
    LeslieGowerParams,
    ParamBindings,
    PlanarSystem,
    format_system,
    leslie_source,
    leslie_system,
    leslie_transform,
    parse_system,
    seeded_parameter_triples,
)
from pdisc.portrait import build_portrait, render_portrait

DEFAULT_BOUNDS = SearchBounds()


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def parse_param_overrides(text: str) -> Dict[str, Fraction]:
    """Parse ``NAME=RAT,NAME=RAT,...`` into exact bindings."""
    out: Dict[str, Fraction] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise InputError(f"malformed parameter binding {item!r}")
        try:
            out[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational number: {value.strip()!r}") from exc
    if not out:
        raise InputError("empty --params list")
    return out


def _params_arg(text: str) -> Dict[str, Fraction]:
    try:
        return parse_param_overrides(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _load_system(input_path: str, overrides: Optional[Dict[str, Fraction]]) -> PlanarSystem:
    try:
        source = Path(input_path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {input_path}: {exc}") from exc
    return parse_system(source, overrides)


def _leslie_bindings(sys: PlanarSystem) -> Optional[ParamBindings]:
    """Bindings when the parsed system is exactly the reduced model."""
    params = sys.params
    if not all(name in params for name in ("A", "B", "C")):
        return None
    a, b, c = params["A"], params["B"], params["C"]
    try:
        reference = leslie_system(a, b, c)
    except PDiscError:
        return None
    if (sys.P - reference.P).is_zero and (sys.Q - reference.Q).is_zero:
        return ParamBindings(a, b, c)
    return None


def _dump_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    Path(path).write_text(text, encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)


def _write_bytes(data: bytes, path: str) -> None:
    Path(path).write_bytes(data)
    print(f"wrote {path}", file=sys.stderr)


def _point_fragment(rec: EquilibriumRecord) -> Dict[str, str]:
    return {"x": rec.point.x.text(), "y": rec.point.y.text()}


def _blowup_entry(
    location: str, parent: PlanarSystem, rec: EquilibriumRecord
) -> Dict[str, object]:
    entry: Dict[str, object] = {"location": location, "point": _point_fragment(rec)}
    try:
        analysis = blowup_analysis(parent, rec.point)
    except PDiscError as exc:
        if isinstance(exc, InternalInvariantError):
            raise
        entry["status"] = "line-of-equilibria"
        entry["detail"] = str(exc)
        return entry
    if analysis is None:
        entry["status"] = "unresolved-irrational-point"
        return entry
    entry["status"] = analysis.sectors.status
    entry["x_direction"] = blowup_fragment(analysis.x_system, analysis.x_divisor)
    entry["y_direction"] = blowup_fragment(analysis.y_system, analysis.y_divisor)
    entry["sectors"] = {
        "hyperbolic": analysis.sectors.hyperbolic,
        "parabolic": analysis.sectors.parabolic,
        "elliptic": analysis.sectors.elliptic,
    }
    return entry


def analyze_report(sys: PlanarSystem, quadrant: bool = False) -> Dict[str, object]:
    """Full JSON-ready report: finite/infinite equilibria and blow-ups."""
    bindings = _leslie_bindings(sys)
    disc = disc_equilibria(sys, quadrant)
    if disc.lines:
        # every chart is reported, so an equator of equilibria ends the
        # run, named by the first such chart in U1, U2, V1, V2 order
        raise next(iter(disc.lines.values()))
    finite = disc.finite_in_view
    if bindings is not None:
        finite = leslie_labels(finite, bindings.A, bindings.B, bindings.C)
    report: Dict[str, object] = {
        "system": format_system(sys),
        "params": {name: str(value) for name, value in sorted(sys.params.items())},
        "regime": None if bindings is None else bindings.regime,
        "finite_equilibria": [equilibrium_fragment(rec) for rec in finite],
        "charts": {cid: chart_fragment(cs) for cid, cs in disc.charts.items()},
        "infinite_equilibria": {
            cid: [equilibrium_fragment(rec) for rec in recs] for cid, recs in disc.equator.items()
        },
    }
    blowups: List[Dict[str, object]] = []
    for rec in finite:
        if rec.classification == DEGENERATE:
            blowups.append(_blowup_entry("finite", sys, rec))
    for chart_id in ("U1", "U2"):
        for rec in disc.equator[chart_id]:
            if rec.classification == DEGENERATE:
                blowups.append(_blowup_entry(chart_id, disc.charts[chart_id].system, rec))
    report["blowups"] = blowups
    return report


def darboux_report(
    sys: PlanarSystem,
    bounds: SearchBounds,
    dump_extactic: bool = False,
    sample: int = 0,
    seed: Optional[int] = None,
) -> Dict[str, object]:
    """Curves, factors, and verdict; optionally a seeded parameter sweep."""
    pipe = run_pipeline(sys, bounds)
    report: Dict[str, object] = {
        "system": format_system(sys),
        "params": {name: str(value) for name, value in sorted(sys.params.items())},
        "bounds": {
            "max_curve_degree": MAX_CURVE_DEGREE,
            "max_exp_degree": bounds.max_exp_degree,
            "extactic_order": bounds.extactic_order,
        },
        "darboux": darboux_fragment(
            pipe.curves, pipe.factors, pipe.extactic_result, dump_extactic
        ),
        "verdict": verdict_fragment(pipe.verdict),
    }
    if sample > 0:
        sweep: List[Dict[str, object]] = []
        for a, b, c in seeded_parameter_triples(seed=seed, count=sample):
            bound = leslie_system(a, b, c)
            verdict = run_pipeline(bound, bounds).verdict
            sweep.append(
                {
                    "A": str(a),
                    "B": str(b),
                    "C": str(c),
                    "verdict": verdict_fragment(verdict),
                }
            )
        report["sample"] = sweep
    return report


def _cmd_analyze(args: argparse.Namespace) -> int:
    sys_ = _load_system(args.input, args.params)
    report = analyze_report(sys_, quadrant=args.quadrant)
    _write_output(_dump_json(report), args.out)
    return 0


def _cmd_darboux(args: argparse.Namespace) -> int:
    bounds = SearchBounds(
        max_exp_degree=args.max_exp_degree, extactic_order=args.extactic_order
    )
    sys_ = _load_system(args.input, args.params)
    if args.sample > 0 and _leslie_bindings(sys_) is None:
        raise InputError("--sample requires the reduced predator-prey model")
    report = darboux_report(
        sys_,
        bounds,
        dump_extactic=args.dump_extactic,
        sample=args.sample,
        seed=args.seed,
    )
    _write_output(_dump_json(report), args.out)
    return 0


def _cmd_portrait(args: argparse.Namespace) -> int:
    sys_ = _load_system(args.input, args.params)
    doc = build_portrait(
        sys_,
        params=_leslie_bindings(sys_),
        positive_quadrant_only=args.quadrant,
        grid=args.grid,
        tmax=args.tmax,
        tol=args.tol,
    )
    svg_bytes, json_bytes = render_portrait(doc)
    if args.svg is not None:
        _write_bytes(svg_bytes, args.svg)
    if args.out is not None:
        _write_bytes(json_bytes, args.out)
    if args.svg is None and args.out is None:
        sys.stdout.write(json_bytes.decode("utf-8"))
        if not json_bytes.endswith(b"\n"):
            sys.stdout.write("\n")
    return 0


def _cmd_leslie(args: argparse.Namespace) -> int:
    biological = LeslieGowerParams(
        r=args.r, k=args.k, q=args.q, s=args.s, n=args.n, c=args.c
    )
    bindings, sys_ = leslie_transform(biological)
    print(f"A={bindings.A}, B={bindings.B}, C={bindings.C}")
    print(f"1-AC = {bindings.regime_value}")
    print(f"regime: {bindings.regime}")
    if args.emit is not None:
        Path(args.emit).write_text(leslie_source(bindings), encoding="utf-8")
        print(f"wrote {args.emit}", file=sys.stderr)
    if args.analyze:
        report = analyze_report(sys_, quadrant=args.quadrant)
        _write_output(_dump_json(report), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdisc",
        description="Exact analysis of planar polynomial vector fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="vector-field source file")
        p.add_argument(
            "--params",
            type=_params_arg,
            default=None,
            metavar="NAME=RAT,...",
            help="override parameter bindings with exact rationals",
        )
        p.add_argument("--out", default=None, help="JSON output path ('-' = stdout)")

    p_analyze = sub.add_parser(
        "analyze", help="equilibria, classifications, charts, blow-ups"
    )
    add_common(p_analyze)
    p_analyze.add_argument(
        "--quadrant",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="restrict to the closed positive quadrant",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_darboux = sub.add_parser(
        "darboux", help="invariant curves, exponential factors, verdict"
    )
    add_common(p_darboux)
    p_darboux.add_argument(
        "--max-exp-degree",
        type=int,
        default=DEFAULT_BOUNDS.max_exp_degree,
        help="exponential-factor numerator degree bound",
    )
    p_darboux.add_argument(
        "--extactic-order",
        type=int,
        default=DEFAULT_BOUNDS.extactic_order,
        help="extactic curve order m",
    )
    p_darboux.add_argument(
        "--dump-extactic",
        action="store_true",
        help="include the expanded extactic polynomial",
    )
    p_darboux.add_argument(
        "--sample",
        type=int,
        default=0,
        metavar="N",
        help="re-run the verdict at N seeded (A,B,C) triples",
    )
    p_darboux.add_argument(
        "--seed", type=int, default=None, help="seed for --sample (default: PDISC_SEED)"
    )
    p_darboux.set_defaults(func=_cmd_darboux)

    p_portrait = sub.add_parser("portrait", help="Poincare-disc SVG and trajectory JSON")
    add_common(p_portrait)
    p_portrait.add_argument("--svg", default=None, help="SVG output path")
    p_portrait.add_argument(
        "--quadrant",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="clip to the positive quadrant (default on)",
    )
    p_portrait.add_argument("--grid", type=int, default=8, help="seed grid resolution")
    p_portrait.add_argument(
        "--tmax", type=float, default=200.0, help="integration time horizon"
    )
    p_portrait.add_argument(
        "--tol", type=float, default=1e-9, help="relative step tolerance"
    )
    p_portrait.set_defaults(func=_cmd_portrait)

    p_leslie = sub.add_parser(
        "leslie", help="biological parameters -> reduced bindings and regime"
    )
    for name, text in (
        ("--r", "prey growth rate"),
        ("--k", "prey carrying-capacity slope"),
        ("--q", "predation rate"),
        ("--s", "predator growth rate"),
        ("--n", "predator support slope"),
        ("--c", "alternative prey level"),
    ):
        p_leslie.add_argument(name, type=_fraction, required=True, help=text)
    p_leslie.add_argument(
        "--analyze", action="store_true", help="chain a full analyze report"
    )
    p_leslie.add_argument(
        "--quadrant",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="restrict the chained report to the positive quadrant",
    )
    p_leslie.add_argument("--out", default=None, help="JSON output path ('-' = stdout)")
    p_leslie.add_argument(
        "--emit", default=None, metavar="PATH", help="write the bound model source"
    )
    p_leslie.set_defaults(func=_cmd_leslie)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args))
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except PDiscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
