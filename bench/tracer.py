"""Spans around pdisc's public functions, recorded from outside the package.

pdisc imports names with ``from X import name``, so one function can be
bound in several modules (``ffdet`` lives in ``exactalg.matrix``,
``exactalg`` and ``darboux``).  ``Tracer.install`` therefore rebinds
every module attribute that holds a wrapped function, and
``Tracer.remove`` restores them all.

Spans are kept in memory as ``(name, start, end, parent)`` and written
out by the caller.  A span's self time is its duration minus the
durations of its direct children.  Functions in ``COUNTED_FUNCS`` and
``COUNTED_METHODS`` are only counted, because timing them per call would
distort the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

# (module that defines it, attribute) -> span name
TIMED = {
    ("pdisc.modelio", "parse_system"): "modelio.parse_system",
    ("pdisc.exactalg.matrix", "ffdet"): "exactalg.ffdet",
    ("pdisc.exactalg.matrix", "resultant_wrt"): "exactalg.resultant_wrt",
    ("pdisc.exactalg.matrix", "solve_linear"): "exactalg.solve_linear",
    ("pdisc.exactalg.matrix", "nullspace"): "exactalg.nullspace",
    ("pdisc.exactalg.roots", "isolate_real_roots"): "exactalg.isolate_real_roots",
    ("pdisc.exactalg.roots", "refine_root"): "exactalg.refine_root",
    ("pdisc.equilibria", "finite_equilibria"): "equilibria.finite_equilibria",
    ("pdisc.equilibria", "classify_point"): "equilibria.classify_point",
    ("pdisc.compactify", "to_chart"): "compactify.to_chart",
    ("pdisc.compactify", "infinite_equilibria"): "compactify.infinite_equilibria",
    ("pdisc.compactify", "blowup_analysis"): "compactify.blowup_analysis",
    ("pdisc.darboux", "find_invariant_lines"): "darboux.find_invariant_lines",
    ("pdisc.darboux", "extactic"): "darboux.extactic",
    ("pdisc.darboux", "find_exponential_factors"): "darboux.find_exponential_factors",
    ("pdisc.integrability", "run_pipeline"): "integrability.run_pipeline",
    ("pdisc.portrait", "integrate_orbit"): "portrait.integrate_orbit",
    ("pdisc.portrait", "build_portrait"): "portrait.build_portrait",
    ("pdisc.portrait", "render_portrait"): "portrait.render_portrait",
    ("pdisc.cli", "analyze_report"): "cli.analyze_report",
    ("pdisc.cli", "darboux_report"): "cli.darboux_report",
}

# counted, never timed
COUNTED_FUNCS = {("pdisc.portrait", "compile_poly"): "portrait.compile_poly"}
COUNTED_METHODS = {
    ("pdisc.exactalg.mpoly", "MPoly", "__mul__"): "exactalg.mpoly.mul",
    ("pdisc.exactalg.mpoly", "MPoly", "__rmul__"): "exactalg.mpoly.mul",
    ("pdisc.exactalg.mpoly", "MPoly", "exact_div"): "exactalg.mpoly.exact_div",
}

UNDETERMINED = "undetermined"


def _coeff_bits(poly) -> int:
    bits = 0
    for _, c in poly.items():
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class _Frame:
    """An open span: its index in ``spans`` and the time of its children."""

    __slots__ = ("index", "outermost", "child_time")

    def __init__(self, index: int, outermost: bool) -> None:
        self.index = index
        self.outermost = outermost
        self.child_time = 0.0


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.maxima: Dict[str, int] = defaultdict(int)
        self._stack: List[_Frame] = []
        self._self: Dict[str, float] = defaultdict(float)
        self._calls: Counter = Counter()
        self._incl: Dict[str, float] = defaultdict(float)
        self._open: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []
        self._field_evals = [0]  # a list cell: cheaper than a Counter per evaluation

    # -- recording ----------------------------------------------------

    def reset(self) -> None:
        """Drop what was recorded; keep the installed wrappers."""
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()
        self._self.clear()
        self._calls.clear()
        self._incl.clear()
        self._field_evals[0] = 0

    def _timed(self, name: str, fn: Callable) -> Callable:
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1].index if stack else -1
            frame = _Frame(len(self.spans), self._open[name] == 0)
            self.spans.append((name, 0.0, 0.0, parent))
            self._open[name] += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._open[name] -= 1
                dur = end - start
                self.spans[frame.index] = (name, start, end, parent)
                self._self[name] += dur - frame.child_time
                self._calls[name] += 1
                if frame.outermost:
                    self._incl[name] += dur
                if stack:
                    stack[-1].child_time += dur
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        if name == "portrait.compile_poly":
            evals = self._field_evals

            @functools.wraps(fn)
            def compile_wrapper(*args, **kwargs):
                counts[name] += 1
                evaluator = fn(*args, **kwargs)

                def counted_eval(x, y):
                    evals[0] += 1
                    return evaluator(x, y)

                return counted_eval

            return compile_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function wherever a pdisc module binds it."""
        replacements: Dict[int, Tuple[Callable, Callable]] = {}
        for (home, attr), name in TIMED.items():
            fn = getattr(importlib.import_module(home), attr)
            replacements[id(fn)] = (fn, self._timed(name, fn))
        for (home, attr), name in COUNTED_FUNCS.items():
            fn = getattr(importlib.import_module(home), attr)
            replacements[id(fn)] = (fn, self._counted(name, fn))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "pdisc" or mod_name.startswith("pdisc.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])
        for (home, cls_name, attr), name in COUNTED_METHODS.items():
            cls = getattr(importlib.import_module(home), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._counted(name, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self._self.get(name, 0.0)

    def incl_s(self, name: str) -> float:
        """Time inside the outermost spans of ``name``, children included."""
        return self._incl.get(name, 0.0)

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)

    @property
    def field_evals(self) -> int:
        """Calls of the evaluators that ``compile_poly`` returned."""
        return self._field_evals[0]


# -- counts read from arguments and return values ---------------------


def _observe_ffdet(tr: Tracer, args, result) -> None:
    tr.maxima["exactalg.ffdet.max_dim"] = max(tr.maxima["exactalg.ffdet.max_dim"], len(args[0]))


def _observe_resultant(tr: Tracer, args, result) -> None:
    key = "exactalg.resultant_wrt.max_coeff_bits"
    tr.maxima[key] = max(tr.maxima[key], _coeff_bits(result))


def _observe_finite(tr: Tracer, args, result) -> None:
    for rec in result:
        if not rec.point.is_exact:
            tr.counts["equilibria.irrational_points"] += 1
        if rec.classification == UNDETERMINED:
            tr.counts["equilibria.undetermined"] += 1


def _observe_orbit(tr: Tracer, args, result) -> None:
    tr.counts[f"portrait.orbits_by_reason.{result.reason}"] += 1


_OBSERVERS: Dict[str, Callable[[Tracer, tuple, object], None]] = {
    "exactalg.ffdet": _observe_ffdet,
    "exactalg.resultant_wrt": _observe_resultant,
    "equilibria.finite_equilibria": _observe_finite,
    "portrait.integrate_orbit": _observe_orbit,
}
