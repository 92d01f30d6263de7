"""Hilbert-style proof objects, a checker, bounded search, and tautologies.

The fixed calculus: three implication/negation schemas (k, s, contra),
three quantifier schemas (inst, dist, vac), the generalization rule, and
equality schemas (eq-refl, eq-sym, eq-trans, plus congruence instances
per function or relation symbol). Theory axioms enter by index. Each
step cites only earlier steps; the last formula is the conclusion.
Tautologies are checked by truth tables over the two-valued evaluator
core, `structures.truth`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iterproduct

from .errors import FormatError, WorkbenchError
from .structures import truth
from .syntax import (
    App,
    Eq,
    Exists,
    Falsum,
    ForAll,
    Formula,
    Implies,
    KIND_FUNCTION,
    KIND_RELATION,
    Not,
    Rel,
    Term,
    Verum,
    all_variable_names,
    formula_size,
    free_variables,
    substitute,
    validate_formula,
    walk,
)


class InvalidStepError(WorkbenchError):
    def __init__(self, index: int, reason: str):
        super().__init__(f"step {index}: {reason}")
        self.index = index
        self.reason = reason


class TooManyAtoms(WorkbenchError):
    pass


@dataclass(frozen=True)
class TheoryAxiom:
    theory: str
    index: int


@dataclass(frozen=True)
class LogicalAxiom:
    schema: str
    args: tuple


@dataclass(frozen=True)
class ModusPonens:
    premise: int
    implication: int


@dataclass(frozen=True)
class Generalize:
    premise: int
    var: str


Step = TheoryAxiom | LogicalAxiom | ModusPonens | Generalize


@dataclass(frozen=True)
class Proof:
    steps: tuple[Step, ...]


# --- the schema table ---------------------------------------------------------
# signature codes: f formula, t term, v variable name; congruence schemas
# are variadic (symbol name then matched argument term pairs)

def _sk(phi, psi):
    return Implies(phi, Implies(psi, phi))


def _ss(phi, psi, chi):
    return Implies(Implies(phi, Implies(psi, chi)),
                   Implies(Implies(phi, psi), Implies(phi, chi)))


def _scontra(phi, psi):
    return Implies(Implies(Not(phi), Not(psi)), Implies(psi, phi))


def _sinst(var, phi, t):
    return Implies(ForAll(var, phi), substitute(phi, var, t))


def _sdist(var, phi, psi):
    return Implies(ForAll(var, Implies(phi, psi)),
                   Implies(ForAll(var, phi), ForAll(var, psi)))


def _svac(var, phi):
    if var in free_variables(phi):
        raise ValueError(f"variable {var!r} is free in the body")
    return Implies(phi, ForAll(var, phi))


def _seq_refl(t):
    return Eq(t, t)


def _seq_sym(t, s):
    return Implies(Eq(t, s), Eq(s, t))


def _seq_trans(t, s, r):
    return Implies(Eq(t, s), Implies(Eq(s, r), Eq(t, r)))


_SCHEMAS = {
    "k": ("ff", _sk),
    "s": ("fff", _ss),
    "contra": ("ff", _scontra),
    "inst": ("vft", _sinst),
    "dist": ("vff", _sdist),
    "vac": ("vf", _svac),
    "eq-refl": ("t", _seq_refl),
    "eq-sym": ("tt", _seq_sym),
    "eq-trans": ("ttt", _seq_trans),
}

_CONG_SCHEMAS = ("eq-cong-fun", "eq-cong-rel")


def _build_congruence(schema: str, args: tuple, language) -> Formula:
    if not args or not isinstance(args[0], str):
        raise ValueError("congruence wants a symbol name first")
    name = args[0]
    terms = args[1:]
    want_kind = KIND_FUNCTION if schema == "eq-cong-fun" else KIND_RELATION
    sym = language.lookup(name)
    if sym is None or sym.kind != want_kind:
        raise ValueError(f"{name!r} is not a {want_kind} symbol here")
    if sym.arity == 0:
        raise ValueError("congruence needs arity >= 1 (use eq-refl)")
    if len(terms) != 2 * sym.arity:
        raise ValueError(
            f"congruence for {name!r} wants {2 * sym.arity} terms, got {len(terms)}")
    olds = terms[:sym.arity]
    news = terms[sym.arity:]
    if schema == "eq-cong-fun":
        conclusion: Formula = Eq(App(name, tuple(olds)), App(name, tuple(news)))
    else:
        conclusion = Implies(Rel(name, tuple(olds)), Rel(name, tuple(news)))
    for a, b in zip(reversed(olds), reversed(news)):
        conclusion = Implies(Eq(a, b), conclusion)
    return conclusion


def schema_formula(schema: str, args: tuple, language) -> Formula:
    """The axiom a `logic` step denotes; raises ValueError on bad shape."""
    if schema in _CONG_SCHEMAS:
        phi = _build_congruence(schema, args, language)
    elif schema in _SCHEMAS:
        sig, build = _SCHEMAS[schema]
        if len(args) != len(sig):
            raise ValueError(f"schema {schema} wants {len(sig)} arguments")
        for code, arg in zip(sig, args):
            if code == "f" and not isinstance(arg, Formula):
                raise ValueError(f"schema {schema}: expected a formula")
            if code == "t" and not isinstance(arg, Term):
                raise ValueError(f"schema {schema}: expected a term")
            if code == "v" and not isinstance(arg, str):
                raise ValueError(f"schema {schema}: expected a variable name")
        phi = build(*args)
    else:
        raise ValueError(f"unknown schema {schema!r}")
    validate_formula(phi, language)
    return phi


# --- checking -----------------------------------------------------------------

def check_proof(proof: Proof, theory) -> Formula:
    """Validate every step and return the conclusion.

    Raises InvalidStepError naming the first offending step.
    """
    derived: list[Formula] = []
    for idx, step in enumerate(proof.steps):
        if isinstance(step, TheoryAxiom):
            if step.theory != theory.name:
                raise InvalidStepError(
                    idx, f"cites theory {step.theory!r}, checking {theory.name!r}")
            try:
                phi = theory.axiom_of(step.index)
            except WorkbenchError as exc:
                raise InvalidStepError(idx, str(exc)) from exc
        elif isinstance(step, LogicalAxiom):
            try:
                phi = schema_formula(step.schema, step.args, theory.language)
            except (ValueError, WorkbenchError) as exc:
                raise InvalidStepError(idx, str(exc)) from exc
        elif isinstance(step, ModusPonens):
            for ref in (step.premise, step.implication):
                if not 0 <= ref < idx:
                    raise InvalidStepError(idx, f"reference {ref} is not earlier")
            imp = derived[step.implication]
            if not isinstance(imp, Implies):
                raise InvalidStepError(
                    idx, f"step {step.implication} is not an implication")
            if derived[step.premise] != imp.left:
                raise InvalidStepError(
                    idx, f"step {step.premise} does not match the antecedent")
            phi = imp.right
        elif isinstance(step, Generalize):
            if not 0 <= step.premise < idx:
                raise InvalidStepError(idx, f"reference {step.premise} is not earlier")
            phi = ForAll(step.var, derived[step.premise])
        else:
            raise InvalidStepError(idx, f"unknown step kind {type(step).__name__}")
        derived.append(phi)
    if not derived:
        raise InvalidStepError(0, "empty proof")
    return derived[-1]


# --- bounded search -----------------------------------------------------------

def _shift(steps: tuple[Step, ...], offset: int) -> list[Step]:
    out: list[Step] = []
    for step in steps:
        if isinstance(step, ModusPonens):
            out.append(ModusPonens(step.premise + offset, step.implication + offset))
        elif isinstance(step, Generalize):
            out.append(Generalize(step.premise + offset, step.var))
        else:
            out.append(step)
    return out


def _instantiation_terms(goal: Formula, numeral_bound: int, language) -> list[Term]:
    from .sexpr import print_term
    from .theories import numeral

    pool = [node for node, _ in walk(goal) if isinstance(node, Term)]
    pool.extend(numeral(n) for n in range(numeral_bound + 1))
    seen = []
    have = set()
    for t in pool:
        if t in have:
            continue
        have.add(t)
        try:
            validate_formula(Eq(t, t), language)
        except WorkbenchError:
            continue
        seen.append(t)
    seen.sort(key=lambda t: (formula_size(Eq(t, t)), print_term(t)))
    return seen


def search_proof(theory, goal: Formula, budget: int, *,
                 numeral_bound: int = 2):
    """Deterministic bounded forward search; sound, knowingly incomplete.

    Candidates are processed breadth-first in a fixed spawn order: theory
    axioms by index, universal instantiation over subterms of the goal
    plus small numerals, modus ponens between derived formulas, and
    generalization over the goal's variable names. Each examined
    candidate costs one unit of budget. The propositional schemas are
    never instantiated by the search (they remain available to
    check_proof). A goal found with budget b is found with the identical
    proof at any larger budget.
    """
    inst_terms = _instantiation_terms(goal, numeral_bound, theory.language)
    gen_vars = sorted(all_variable_names(goal))

    derived: dict[Formula, tuple[Step, ...]] = {}
    implications: list[Formula] = []
    queue: list[tuple] = [("ax", 0)]
    spent = 0
    head = 0

    def finish(steps: tuple[Step, ...]) -> Proof:
        proof = Proof(steps)
        if check_proof(proof, theory) != goal:
            raise WorkbenchError("search produced a proof of the wrong formula")
        return proof

    while head < len(queue) and spent < budget:
        kind, *payload = queue[head]
        head += 1
        spent += 1

        if kind == "ax":
            (i,) = payload
            queue.append(("ax", i + 1))
            try:
                phi = theory.axiom_of(i)
            except WorkbenchError:
                continue
            steps: tuple[Step, ...] = (TheoryAxiom(theory.name, i),)
        elif kind == "inst":
            univ, t = payload
            body_inst = substitute(univ.body, univ.var, t)
            base = derived[univ]
            n = len(base)
            steps = tuple(base) + (
                LogicalAxiom("inst", (univ.var, univ.body, t)),
                ModusPonens(n - 1, n),
            )
            phi = body_inst
        elif kind == "mp":
            premise, imp = payload
            base = derived[premise]
            other = _shift(derived[imp], len(base))
            steps = tuple(base) + tuple(other) + (
                ModusPonens(len(base) - 1, len(base) + len(other) - 1),)
            phi = imp.right
        else:  # gen
            body, var = payload
            base = derived[body]
            steps = tuple(base) + (Generalize(len(base) - 1, var),)
            phi = ForAll(var, body)

        if phi in derived:
            continue
        derived[phi] = steps
        if phi == goal:
            return finish(steps)

        if isinstance(phi, ForAll):
            for t in inst_terms:
                queue.append(("inst", phi, t))
        if isinstance(phi, Implies):
            implications.append(phi)
            if phi.left in derived:
                queue.append(("mp", phi.left, phi))
        for imp in implications:
            if imp.left == phi:
                queue.append(("mp", phi, imp))
        for var in gen_vars:
            queue.append(("gen", phi, var))
    return None


# --- propositional tautologies --------------------------------------------

ATOM_LIMIT = 20


def is_tautology(phi: Formula) -> bool:
    """Truth-table check treating quantified subformulas as opaque atoms."""
    atoms: list[Formula] = []
    index: dict[Formula, int] = {}

    def scan(f: Formula) -> None:
        if isinstance(f, (Rel, Eq, ForAll, Exists)):
            if f not in index:
                index[f] = len(atoms)
                atoms.append(f)
            return
        if isinstance(f, (Verum, Falsum)):
            return
        if isinstance(f, Not):
            scan(f.body)
            return
        scan(f.left)
        scan(f.right)

    scan(phi)
    if len(atoms) > ATOM_LIMIT:
        raise TooManyAtoms(f"{len(atoms)} distinct atoms, limit {ATOM_LIMIT}")

    def atom(f: Formula, row) -> bool:
        return row[index[f]]

    for row in iterproduct((False, True), repeat=len(atoms)):
        if not truth(phi, atom, row):
            return False
    return True


# --- proof files ---------------------------------------------------------

def _split_chunks(text: str) -> list[str]:
    chunks = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise FormatError("unbalanced parentheses")
        if ch.isspace() and depth == 0:
            if cur:
                chunks.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise FormatError("unbalanced parentheses")
    if cur:
        chunks.append("".join(cur))
    return chunks


def parse_proof(text: str, language) -> Proof:
    """Read one step per line: ax / logic / mp / gen."""
    from .sexpr import parse_formula, parse_term

    def logic_args(schema: str, chunks: list[str]) -> tuple:
        if schema in _CONG_SCHEMAS:
            if not chunks:
                raise FormatError(f"{schema}: missing symbol name")
            return (chunks[0],) + tuple(parse_term(c, language) for c in chunks[1:])
        if schema not in _SCHEMAS:
            raise FormatError(f"unknown schema {schema!r}")
        sig = _SCHEMAS[schema][0]
        if len(chunks) != len(sig):
            raise FormatError(f"schema {schema} wants {len(sig)} arguments")
        out = []
        for code, chunk in zip(sig, chunks):
            if code == "f":
                out.append(parse_formula(chunk, language))
            elif code == "t":
                out.append(parse_term(chunk, language))
            else:
                if chunk.startswith("("):
                    raise FormatError(f"schema {schema}: expected a variable name")
                out.append(chunk)
        return tuple(out)

    steps: list[Step] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        # whole-line comments only: family symbols like c#3 contain a hash
        if not line or line.startswith("#"):
            continue
        try:
            chunks = _split_chunks(line)
            head = chunks[0]
            if head == "ax":
                if len(chunks) != 3:
                    raise FormatError("ax wants a theory id and an index")
                steps.append(TheoryAxiom(chunks[1], int(chunks[2])))
            elif head == "logic":
                if len(chunks) < 2:
                    raise FormatError("logic wants a schema id")
                steps.append(LogicalAxiom(chunks[1], logic_args(chunks[1], chunks[2:])))
            elif head == "mp":
                if len(chunks) != 3:
                    raise FormatError("mp wants two step indices")
                steps.append(ModusPonens(int(chunks[1]), int(chunks[2])))
            elif head == "gen":
                if len(chunks) != 3:
                    raise FormatError("gen wants a step index and a variable")
                steps.append(Generalize(int(chunks[1]), chunks[2]))
            else:
                raise FormatError(f"unknown step kind {head!r}")
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    return Proof(tuple(steps))


def format_proof(proof: Proof) -> str:
    from .sexpr import print_formula, print_term

    def chunk(arg) -> str:
        if isinstance(arg, Formula):
            return print_formula(arg)
        if isinstance(arg, Term):
            return print_term(arg)
        return str(arg)

    lines = []
    for step in proof.steps:
        if isinstance(step, TheoryAxiom):
            lines.append(f"ax {step.theory} {step.index}")
        elif isinstance(step, LogicalAxiom):
            parts = " ".join(chunk(a) for a in step.args)
            lines.append(f"logic {step.schema} {parts}".rstrip())
        elif isinstance(step, ModusPonens):
            lines.append(f"mp {step.premise} {step.implication}")
        else:
            lines.append(f"gen {step.premise} {step.var}")
    return "\n".join(lines) + "\n"
