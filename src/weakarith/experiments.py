"""Independence searches and an essential-undecidability stress harness.

A decider is a black box answering provable / refutable / dontknow
within a declared budget. The independence search computes, over a
predicate sentence family, which indices the decider settles and
returns the least unsettled one. The stress harness drives a decider
across a theory's sentence family and reports unanswered indices and
answers that contradict enumerated axioms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .eqdecide import PROVABLE, REFUTABLE, decide
from .errors import WorkbenchError
from .machines import OraclePair
from .proofs import search_proof
from .syntax import KIND_RELATION, Formula, Not, Rel
from .theories import Theory, numeral_value, predicate_atom, size_exists


DONT_KNOW = "dontknow"

_ANSWERS = (PROVABLE, REFUTABLE, DONT_KNOW)


class DeciderInconsistencyError(WorkbenchError):
    pass


@dataclass(frozen=True)
class DeciderHandle:
    """Named decision callback with a declared budget."""

    name: str
    budget: int
    fn: Callable[[Formula], str] = field(repr=False)

    def ask(self, phi: Formula) -> str:
        answer = self.fn(phi)
        if answer not in _ANSWERS:
            raise WorkbenchError(f"decider {self.name!r} answered {answer!r}")
        return answer


# --- the predicate sentence family -----------------------------------------

def classify_predicate_literal(phi: Formula) -> tuple[int, bool] | None:
    """(n, polarity) when phi is the atom at numeral n or its negation."""
    positive = type(phi) is not Not
    atom = phi if positive else phi.body
    if type(atom) is Rel and atom.name == "P" and len(atom.args) == 1:
        n = numeral_value(atom.args[0])
        if n is not None:
            return n, positive
    return None


# --- shipped deciders -------------------------------------------------------

def table_decider(pair: OraclePair, stage: int) -> DeciderHandle:
    """Answer by oracle lookup at a fixed stage; everything else unknown."""

    def fn(phi: Formula) -> str:
        got = classify_predicate_literal(phi)
        if got is None:
            return DONT_KNOW
        n, positive = got
        side = pair.side_of(n, stage)
        if side is None:
            return DONT_KNOW
        return PROVABLE if (side == "left") == positive else REFUTABLE

    return DeciderHandle("table", stage, fn)


def proof_search_decider(theory: Theory, budget: int) -> DeciderHandle:
    """Answer through bounded proof search in the given theory."""
    def fn(phi: Formula) -> str:
        if search_proof(theory, phi, budget):
            return PROVABLE
        if search_proof(theory, Not(phi), budget):
            return REFUTABLE
        return DONT_KNOW

    return DeciderHandle(f"proof-search:{theory.name}", budget, fn)


def equivalence_decider(pair: OraclePair, stage: int) -> DeciderHandle:
    """Answer through the counting decision procedure at a fixed stage.

    Predicate literals about the n-th numeral are read as the matching
    size-witness sentence, so the handle also serves the literal-driven
    harnesses. That sentence has rank n + 1 and `decide` has no rank cap,
    so each index costs about seven times the one before: an independence
    search up to index 6 takes about seven times as long as one up to 5.
    An atom and its negation share one decision: the handle keeps each
    sentence's verdict for as long as it lives, and no longer.
    """
    verdicts: dict[Formula, str] = {}

    def fn(phi: Formula) -> str:
        positive = True
        got = classify_predicate_literal(phi)
        if got is not None:
            n, positive = got
            phi = size_exists(n)
        verdict = verdicts.get(phi)
        if verdict is None:
            verdict = verdicts[phi] = decide(phi, pair, stage).kind
        if verdict == PROVABLE:
            return PROVABLE if positive else REFUTABLE
        if verdict == REFUTABLE:
            return REFUTABLE if positive else PROVABLE
        return DONT_KNOW

    return DeciderHandle("equivalence", stage, fn)


# --- independence search ------------------------------------------------------

@dataclass(frozen=True)
class IndependenceReport:
    witness: int | None
    positive: Formula | None
    negative: Formula | None
    stage: int
    budget: int
    n_max: int
    x_set: tuple[int, ...]
    y_set: tuple[int, ...]
    conflicts: tuple[str, ...] = ()

    @property
    def exhausted(self) -> bool:
        return self.witness is None


def independence_search(pair: OraclePair, decider: DeciderHandle,
                        n_max: int, stage: int = 0) -> IndependenceReport:
    """Least n <= n_max the decider settles neither way.

    X collects the n whose atom is answered provable, Y the n whose
    negated atom is. A decider answering both sides provable (or both
    refutable) for the same n aborts the run with the evidence; answers
    that merely contradict the oracle's stage knowledge are reported as
    conflicts but do not abort.
    """
    xs: list[int] = []
    ys: list[int] = []
    conflicts: list[str] = []
    witness = None
    for n in range(n_max + 1):
        pos = decider.ask(predicate_atom(n))
        neg = decider.ask(Not(predicate_atom(n)))
        if (pos, neg) in ((PROVABLE, PROVABLE), (REFUTABLE, REFUTABLE)):
            raise DeciderInconsistencyError(
                f"decider {decider.name!r} answered {pos} on both the atom at "
                f"{n} and its negation")
        if pos == PROVABLE:
            xs.append(n)
        if neg == PROVABLE:
            ys.append(n)
        if witness is None and PROVABLE not in (pos, neg):
            witness = n
        side = pair.side_of(n, stage)
        if side == "right" and pos == PROVABLE or side == "left" and pos == REFUTABLE:
            conflicts.append(f"atom at {n}: answer {pos} against oracle")
        if side == "left" and neg == PROVABLE or side == "right" and neg == REFUTABLE:
            conflicts.append(f"negated atom at {n}: answer {neg} against oracle")

    positive = None if witness is None else predicate_atom(witness)
    negative = None if witness is None else Not(positive)
    return IndependenceReport(witness, positive, negative, stage, decider.budget,
                              n_max, tuple(xs), tuple(ys), tuple(conflicts))


# --- essential undecidability stress -----------------------------------------

@dataclass(frozen=True)
class StressRow:
    n: int
    answer: str
    note: str = ""


@dataclass(frozen=True)
class StressReport:
    theory: str
    decider: str
    rows: tuple[StressRow, ...]
    unanswered: tuple[int, ...]
    inconsistent: tuple[tuple[int, int], ...]  # (n, axiom index)


def _sentence_family(theory: Theory, upto: int) -> dict[int, Formula]:
    rels = {s.name: (s.kind, s.arity) for s in theory.language.symbols()}
    if rels.get("P") == (KIND_RELATION, 1):
        return {n: predicate_atom(n) for n in range(1, upto + 1)}
    if rels.get("E") == (KIND_RELATION, 2):
        return {n: size_exists(n) for n in range(1, upto + 1)}
    raise WorkbenchError(
        "stress wants a theory with a unary predicate or a binary relation")


def stress_essential_undecidability(theory: Theory, decider: DeciderHandle,
                                    sentence_budget: int, *,
                                    axiom_scan: int = 200) -> StressReport:
    """Drive the decider over the theory's sentence family.

    Rows cover indices 1..sentence_budget. An index lands in
    `unanswered` when the decider says dontknow, and in `inconsistent`
    when its answer contradicts one of the first axiom_scan axioms
    (a provable negated family sentence answered provable, or an axiom
    family sentence answered refutable).
    """
    family = _sentence_family(theory, sentence_budget)
    rows = []
    answers: dict[int, str] = {}
    for n in sorted(family):
        answers[n] = decider.ask(family[n])

    positives = {phi: n for n, phi in family.items()}
    negatives = {Not(phi): n for n, phi in family.items()}
    bad: list[tuple[int, int]] = []
    for i in range(axiom_scan):
        ax = theory.axiom_of(i)
        n = positives.get(ax)
        if n is not None and answers.get(n) == REFUTABLE:
            bad.append((n, i))
        n = negatives.get(ax)
        if n is not None and answers.get(n) == PROVABLE:
            bad.append((n, i))

    flagged = {n for n, _ in bad}
    for n in sorted(family):
        if n in flagged:
            note = "conflicts axiom"
        elif answers[n] == DONT_KNOW:
            note = "unanswered"
        else:
            note = ""
        rows.append(StressRow(n, answers[n], note))
    unanswered = tuple(n for n in sorted(family) if answers[n] == DONT_KNOW)
    return StressReport(theory.name, decider.name, tuple(rows),
                        unanswered, tuple(sorted(set(bad))))
