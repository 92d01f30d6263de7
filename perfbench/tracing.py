"""Span tracing at the program's layer boundaries, and the per-layer metrics.

Tracing wraps public functions of weakarith wherever they are bound: in the
defining module and at every import site (proofs binds `substitute` by
name, the package re-exports most functions), plus a few methods on their
classes. Each outermost call records a span (group, start, end, parent).
A call made while a span of the same group is innermost is a recursion
inside that layer and is passed straight through. Self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (group, module, function) for module-level functions
FUNCTIONS = (
    ("cli.main", "cli", "main"),
    ("sexpr.parse", "sexpr", "parse_formula"),
    ("sexpr.parse", "sexpr", "parse_term"),
    ("sexpr.print", "sexpr", "print_formula"),
    ("sexpr.print", "sexpr", "print_term"),
    ("syntax.substitute", "syntax", "substitute"),
    ("syntax.substitute", "syntax", "substitute_many"),
    ("syntax.query", "syntax", "free_variables"),
    ("syntax.query", "syntax", "all_variable_names"),
    ("syntax.query", "syntax", "formula_size"),
    ("syntax.query", "syntax", "symbols_of"),
    ("syntax.query", "syntax", "validate_formula"),
    ("syntax.query", "syntax", "classify_formula"),
    ("theories.numeral", "theories", "numeral"),
    ("proofs.search", "proofs", "search_proof"),
    ("proofs.check", "proofs", "check_proof"),
    ("proofs.tautology", "proofs", "is_tautology"),
    ("structures.eval_formula", "structures", "eval_formula"),
    ("modelsearch.search", "modelsearch", "model_search"),
    ("translate.translate_formula", "translate", "translate_formula"),
    ("translate.internal_structure", "translate", "internal_structure"),
    ("translate.verify_semantic", "translate", "verify_semantic"),
    ("machines.run_bounded", "machines", "run_bounded"),
    ("machines.decode_program", "machines", "decode_program"),
    ("godel.encode", "godel", "godel_encode"),
    ("godel.decode", "godel", "godel_decode"),
    ("godel.unpair", "godel", "unpair"),
    ("eqdecide.decide", "eqdecide", "decide"),
    ("eqdecide.normal_form", "eqdecide", "normal_form"),
    ("eqdecide.eval_on_blocks", "eqdecide", "eval_on_blocks"),
    ("experiments.independence_search", "experiments", "independence_search"),
    ("experiments.stress", "experiments", "stress_essential_undecidability"),
)

# (group, module, class or None for every class defining the method, method)
METHODS = (
    ("theories.axiom_of", "theories", "Theory", "axiom_of"),
    ("machines.stage_at", "machines", None, "at"),
    ("machines.query", "machines", "OraclePair", "query"),
    ("experiments.ask", "experiments", "DeciderHandle", "ask"),
)


class Tracer:
    """Spans and per-group totals for one traced round."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._undo: list = []

    # -- wrapping --

    def _wrap(self, group: str, fn):
        tracer = self
        on_call, on_result = HOOKS.get(group, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == group:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer.counts, args)
            frame = [group, 0.0, len(tracer.spans), stack[-1][2] if stack else -1]
            tracer.spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.spans[frame[2]] = (group, start, end, frame[3])
                tracer.calls[group] += 1
                tracer.self_s[group] += duration - frame[1]
                tracer.total_s[group] += duration
                if stack:
                    stack[-1][1] += duration
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of the traced functions and methods."""
        loaded = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "weakarith" or name.startswith("weakarith."))]
        for group, module, attr in FUNCTIONS:
            original = getattr(sys.modules.get(f"weakarith.{module}"), attr, None)
            if original is None:
                continue
            wrapped = self._wrap(group, original)
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapped)
        for group, module, cls_name, method in METHODS:
            mod = sys.modules.get(f"weakarith.{module}")
            if mod is None:
                continue
            classes = [getattr(mod, cls_name, None)] if cls_name else \
                [v for v in vars(mod).values()
                 if isinstance(v, type) and v.__module__ == mod.__name__]
            for cls in classes:
                if cls is not None and method in vars(cls):
                    original = vars(cls)[method]
                    self._undo.append((cls, method, original))
                    setattr(cls, method, self._wrap(group, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def write_spans(self, path: Path) -> None:
        with path.open("w") as out:
            out.write("index,name,start_s,end_s,parent\n")
            for i, (group, start, end, parent) in enumerate(self.spans):
                out.write(f"{i},{group},{start:.9f},{end:.9f},{parent}\n")


def _count_steps(counts, args):
    counts["proofs.check.steps"] += len(args[0].steps)


def _count_found(counts, result):
    counts["proofs.search.found"] += result is not None


def _count_search(counts, outcome):
    counts["modelsearch.examined"] += sum(r.examined for r in outcome.reports)
    counts["modelsearch.witnesses"] += outcome.witness is not None


def _count_code(counts, code):
    counts["godel.code_bits"] += code.bit_length()


def _count_decoded(counts, args):
    counts["godel.decode_bits"] += args[0].bit_length()


HOOKS = {
    "proofs.check": (_count_steps, None),
    "proofs.search": (None, _count_found),
    "modelsearch.search": (None, _count_search),
    "godel.encode": (None, _count_code),
    "godel.decode": (_count_decoded, None),
}

# --- per-layer metrics -----------------------------------------------------------

CALL_GROUPS = ("cli.main", "sexpr.parse", "sexpr.print", "syntax.substitute",
               "syntax.query", "theories.axiom_of", "theories.numeral", "proofs.search",
               "proofs.check", "structures.eval_formula", "modelsearch.search",
               "machines.stage_at", "machines.query", "godel.unpair",
               "eqdecide.eval_on_blocks")
SELF_GROUPS = CALL_GROUPS + (
    "proofs.tautology", "translate.translate_formula", "translate.internal_structure",
    "translate.verify_semantic", "machines.run_bounded", "machines.decode_program",
    "godel.encode", "godel.decode", "eqdecide.decide", "eqdecide.normal_form",
    "experiments.independence_search", "experiments.stress")


# unit and better direction of every per-layer metric a traced run reports
UNITS = {f"{g}.calls": ("count", "lower") for g in CALL_GROUPS}
UNITS.update({f"{g}.self_s": ("s", "lower") for g in SELF_GROUPS})
UNITS.update({
    "proofs.search.found_ratio": ("ratio", "higher"),
    "proofs.check.steps": ("count", "lower"),
    "modelsearch.examined": ("count", "lower"),
    "modelsearch.witnesses": ("count", "higher"),
    "godel.code_bits": ("bit", "lower"),
    "experiments.decider_asks": ("count", "lower"),
    "machines.stages_per_s": ("1/s", "higher"),
    "godel.decode_bits_per_s": ("bit/s", "higher"),
    "eqdecide.profiles_per_s": ("1/s", "higher"),
    "machines.alloc_peak_mb": ("MB", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "known_defects.failing": ("count", "lower"),
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_metrics(tracer: Tracer) -> dict[str, float]:
    """Metrics that are counts of work; they repeat exactly for one seed."""
    c = tracer.counts
    out = {f"{g}.calls": tracer.calls[g] for g in CALL_GROUPS}
    out.update({
        "proofs.check.steps": c["proofs.check.steps"],
        "proofs.search.found_ratio": _ratio(c["proofs.search.found"],
                                            tracer.calls["proofs.search"]),
        "modelsearch.examined": c["modelsearch.examined"],
        "modelsearch.witnesses": c["modelsearch.witnesses"],
        "godel.code_bits": c["godel.code_bits"],
        "experiments.decider_asks": tracer.calls["experiments.ask"],
    })
    return out


def time_metrics(tracer: Tracer) -> dict[str, float]:
    """Metrics that are times or rates of one traced round."""
    out = {f"{g}.self_s": tracer.self_s[g] for g in SELF_GROUPS}
    out.update({
        "machines.stages_per_s": _ratio(tracer.calls["machines.stage_at"],
                                        tracer.total_s["machines.stage_at"]),
        "godel.decode_bits_per_s": _ratio(tracer.counts["godel.decode_bits"],
                                          tracer.total_s["godel.decode"]),
        "eqdecide.profiles_per_s": _ratio(tracer.calls["eqdecide.eval_on_blocks"],
                                          tracer.total_s["eqdecide.eval_on_blocks"]),
    })
    return out
