"""In-memory spans around infocost's public functions, and per-layer metrics.

The tracer wraps each function in ``TRACED`` and rebinds the wrapper
wherever a loaded infocost module holds the original: on its own module
(``infocost.lp.solve``, which ``axioms``, ``forward`` and ``concavity``
look up at call time) and under every name another module imported it as
(``from .axioms import check_nipmc`` in ``cli``). Nothing under ``src/``
changes. A span records name, layer, start, end, parent span, the
operation that was running, and whether the benchmark was timing that
operation ("op") or doing its own untimed work around it, preparing input
files or re-checking the result ("check").
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable

PACKAGE = "infocost"
LAYERS = (
    "io", "model", "revealed", "axioms", "lp",
    "recovery", "piecewise", "forward", "concavity", "cli",
)

TRACED: dict[str, tuple[str, ...]] = {
    "io": ("parse_dataset", "parse_forward_problem", "parse_generation_spec",
           "dataset_out", "function_out", "figure_series"),
    "model": ("validate_dataset",),
    "revealed": ("revealed_summary", "binding_set"),
    "axioms": ("check_nias", "build_farkas_system", "check_nipmc", "explain_violation"),
    "lp": ("solve", "satisfies", "verify_certificate"),
    "recovery": ("recover_cost", "price_function", "verify_rationalization"),
    "piecewise": ("lower_envelope", "upper_envelope"),
    "forward": ("solve_forward", "oracle_value", "generate_dataset"),
    "concavity": ("certify_concave", "is_concave"),
    "cli": ("main",),
}


def _bits(values: Iterable[Any]) -> int:
    best = 0
    for v in values:
        if isinstance(v, Fraction):
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _count_lp(args, outcome) -> dict[str, int]:
    program = args[0]
    returned = [*(outcome.x or ()), *(outcome.certificate or ())]
    if outcome.objective_value is not None:
        returned.append(outcome.objective_value)
    return {
        "rows": len(program.constraints),
        "cols": program.num_vars,
        "nonzeros": sum(len(c.terms) for c in program.constraints),
        "infeasible": int(outcome.status == "infeasible"),
        "bits": _bits(returned),
    }


def _count_system(args, system) -> dict[str, int]:
    return {"rows": len(system.rows), "cols": len(system.columns)}


def _count_forward(args, solution) -> dict[str, int]:
    return {"grid": len(args[0].grid)}


def _count_search(args, verdict) -> dict[str, int]:
    return {
        "programs": verdict.programs_solved,
        "certified": int(verdict.status == "certified"),
    }


COUNTERS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "lp.solve": _count_lp,
    "axioms.build_farkas_system": _count_system,
    "forward.solve_forward": _count_forward,
    "concavity.certify_concave": _count_search,
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: str
    phase: str
    counts: dict[str, int] | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = ""
        self.phase = "op"
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.layers: dict[str, tuple[int, float, float]] = {}

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        full = f"{layer}.{name}"
        count = COUNTERS.get(full)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # type: ignore[arg-type]
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(full, layer, start, end, parent, self.op, self.phase)
            if count is not None:
                spans[index].counts = count(args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def installed(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        try:
            for layer, names in TRACED.items():
                home = sys.modules[f"{PACKAGE}.{layer}"]
                for name in names:
                    original = getattr(home, name)
                    wrapper = self._wrap(layer, name, original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                self._patches.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(self._patches):
                setattr(module, attr, original)
            self._patches.clear()

    @contextmanager
    def checking(self):
        """Spans opened inside belong to untimed work, not the timed op."""
        self.phase = "check"
        try:
            yield
        finally:
            self.phase = "op"

    # -- aggregation ------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the spans of timed operations."""
        spans = self.spans
        timed = [i for i, s in enumerate(spans) if s.phase == "op"]
        child_s = [0.0] * len(spans)
        for i in timed:
            parent = spans[i].parent
            if parent is not None:
                child_s[parent] += spans[i].seconds

        def self_s(i: int) -> float:
            return spans[i].seconds - child_s[i]

        def named(*names: str) -> list[int]:
            return [i for i in timed if spans[i].name in names]

        def busy(indices: list[int]) -> float:
            """Time covered by the spans, counting nested ones once."""
            members = set(indices)
            total = 0.0
            for i in indices:
                parent = spans[i].parent
                while parent is not None and parent not in members:
                    parent = spans[parent].parent
                if parent is None:
                    total += spans[i].seconds
            return total

        def counted(indices: list[int], key: str) -> int:
            return sum(spans[i].counts[key] for i in indices)

        def called_from(indices: list[int], parent_name: str) -> int:
            return sum(
                1 for i in indices
                if spans[i].parent is not None and spans[spans[i].parent].name == parent_name
            )

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        m: dict[str, tuple[float, str]] = {}
        solves = named("lp.solve")
        m["lp.solve_s"] = (busy(solves), "s")
        for caller in ("axioms", "forward", "concavity"):
            mine = [i for i in solves
                    if spans[i].parent is not None and spans[spans[i].parent].layer == caller]
            m[f"lp.solve_s.{caller}"] = (busy(mine), "s")
        m["lp.calls"] = (len(solves), "count")
        for key in ("rows", "cols", "nonzeros", "infeasible"):
            m[f"lp.{key}"] = (counted(solves, key), "count")
        m["lp.result_bits"] = (max((spans[i].counts["bits"] for i in solves), default=0), "bits")
        m["lp.verify_s"] = (sum(
            s.seconds for s in spans if s.name in ("lp.satisfies", "lp.verify_certificate")
        ), "s")

        systems = named("axioms.build_farkas_system")
        m["axioms.rows"] = (counted(systems, "rows"), "count")
        m["axioms.cols"] = (counted(systems, "cols"), "count")
        checks = named("axioms.check_nipmc")
        m["axioms.lp_solves"] = (ratio(called_from(solves, "axioms.check_nipmc"), len(checks)), "1")
        m["axioms.build_s"] = (busy(systems), "s")
        m["axioms.nias_s"] = (busy(named("axioms.check_nias")), "s")
        m["axioms.explain_s"] = (busy(named("axioms.explain_violation")), "s")

        fsolves = named("forward.solve_forward")
        m["forward.lp_solves"] = (ratio(called_from(solves, "forward.solve_forward"), len(fsolves)), "1")
        m["forward.grid_points"] = (counted(fsolves, "grid"), "count")
        for short, name in (("solve", "solve_forward"), ("oracle", "oracle_value"),
                            ("generate", "generate_dataset")):
            m[f"forward.{short}_self_s"] = (sum(self_s(i) for i in named(f"forward.{name}")), "s")

        searches = named("concavity.certify_concave")
        programs = counted(searches, "programs")
        m["concavity.programs"] = (ratio(programs, len(searches)), "1")
        m["concavity.yield"] = (ratio(counted(searches, "certified"), programs), "1")

        m["recovery.recover_s"] = (busy(named("recovery.recover_cost")), "s")
        m["recovery.price_s"] = (busy(named("recovery.price_function")), "s")
        m["recovery.audit_s"] = (busy(named("recovery.verify_rationalization")), "s")
        m["piecewise.envelope_s"] = (
            busy(named("piecewise.lower_envelope", "piecewise.upper_envelope")), "s")
        summaries = named("revealed.revealed_summary")
        m["revealed.summary_s"] = (busy(summaries), "s")
        m["revealed.summary_calls"] = (len(summaries), "count")
        m["model.validate_s"] = (busy(named("model.validate_dataset")), "s")
        m["io.parse_s"] = (busy(named("io.parse_dataset", "io.parse_forward_problem",
                                      "io.parse_generation_spec")), "s")
        m["io.render_s"] = (busy(named("io.dataset_out", "io.function_out",
                                       "io.figure_series")), "s")
        self.layers = {}
        for layer in LAYERS:
            mine = [i for i in timed if spans[i].layer == layer]
            self.layers[layer] = (len(mine), busy(mine), sum(self_s(i) for i in mine))
        # Of the whole-layer figures, only those that no named metric above
        # already gives; layer_table prints the rest.
        m["axioms.busy_s"] = (self.layers["axioms"][1], "s")
        m["forward.busy_s"] = (self.layers["forward"][1], "s")
        m["concavity.self_s"] = (self.layers["concavity"][2], "s")
        m["cli.self_s"] = (self.layers["cli"][2], "s")
        return m

    def write(self, path: Path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        rows = []
        for s in self.spans:
            row = asdict(s)
            row["start"] -= origin
            row["end"] -= origin
            rows.append(row)
        path.write_text(json.dumps(rows))


def layer_table(layers: dict[str, tuple[int, float, float]]) -> list[str]:
    """Spans, busy seconds and self seconds of each layer, as set by
    ``Tracer.metrics``."""
    lines = [f"{'layer':<10} {'spans':>8} {'busy_s':>10} {'self_s':>10}"]
    for layer in LAYERS:
        spans, busy_s, self_s = layers[layer]
        lines.append(f"{layer:<10} {spans:>8} {busy_s:>10.4f} {self_s:>10.4f}")
    return lines
