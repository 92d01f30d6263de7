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
from .sexpr import parse_formula, parse_term, print_formula, print_term
from .structures import truth
from .syntax import (
    And,
    App,
    Eq,
    Falsum,
    ForAll,
    Formula,
    Implies,
    KIND_FUNCTION,
    KIND_RELATION,
    Not,
    Or,
    Rel,
    Term,
    Var,
    Verum,
    all_variable_names,
    formula_size,
    free_variables,
    is_name_token,
    substitute,
    validate_formula,
    walk,
)
from .theories import numeral


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


def _read_name(text: str, language) -> str | None:
    """A variable argument as written; a parenthesized chunk is no name."""
    return None if text.startswith("(") else text


# signature code -> (the type of the argument, the reader of its text, its noun);
# the readers look parse_formula and parse_term up when called, as other call
# sites do, so that a wrapper bound in their place (perfbench tracing) sees them
_ARGUMENTS = {
    "f": (Formula, lambda text, language: parse_formula(text, language), "a formula"),
    "t": (Term, lambda text, language: parse_term(text, language), "a term"),
    "v": (str, _read_name, "a variable name"),
}


def _signature(schema: str, args) -> str:
    """The signature of a fixed schema, given as many arguments as it takes."""
    if schema not in _SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}")
    sig = _SCHEMAS[schema][0]
    if len(args) != len(sig):
        raise ValueError(f"schema {schema} wants {len(sig)} arguments")
    return sig


def _argument(schema: str, code: str, arg):
    if not isinstance(arg, _ARGUMENTS[code][0]):
        raise ValueError(f"schema {schema}: expected {_ARGUMENTS[code][2]}")
    return arg


def _bound_variable(name: str, language) -> None:
    """The reader's rule: a bound variable is a name token the language does not declare."""
    if not is_name_token(name) or language.lookup(name) is not None:
        raise ValueError(f"{name!r} cannot be a bound variable")


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
    for term in terms:
        _argument(schema, "t", term)
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
    else:
        sig = _signature(schema, args)
        for code, arg in zip(sig, args):
            _argument(schema, code, arg)
            if code == "v":
                _bound_variable(arg, language)
        phi = _SCHEMAS[schema][1](*args)
    validate_formula(phi, language)
    return phi


# --- checking -----------------------------------------------------------------

def check_proof(proof: Proof, theory) -> Formula:
    """Validate every step and return the conclusion.

    Raises InvalidStepError naming the first offending step.
    """
    derived: list[Formula] = []
    for idx, step in enumerate(proof.steps):
        try:
            if isinstance(step, TheoryAxiom):
                if step.theory != theory.name:
                    raise ValueError(
                        f"cites theory {step.theory!r}, checking {theory.name!r}")
                phi = theory.axiom_of(step.index)
            elif isinstance(step, LogicalAxiom):
                phi = schema_formula(step.schema, step.args, theory.language)
            elif isinstance(step, ModusPonens):
                for ref in (step.premise, step.implication):
                    if not 0 <= ref < idx:
                        raise ValueError(f"reference {ref} is not earlier")
                imp = derived[step.implication]
                if type(imp) is not Implies:
                    raise ValueError(f"step {step.implication} is not an implication")
                if derived[step.premise] != imp.left:
                    raise ValueError(f"step {step.premise} does not match the antecedent")
                phi = imp.right
            elif isinstance(step, Generalize):
                if not 0 <= step.premise < idx:
                    raise ValueError(f"reference {step.premise} is not earlier")
                _bound_variable(step.var, theory.language)
                phi = ForAll(step.var, derived[step.premise])
            else:
                raise ValueError(f"unknown step kind {type(step).__name__}")
        except (ValueError, WorkbenchError) as exc:
            raise InvalidStepError(idx, str(exc)) from exc
        derived.append(phi)
    if not derived:
        raise InvalidStepError(0, "empty proof")
    return derived[-1]


# --- bounded search -----------------------------------------------------------

def _instantiation_terms(goal: Formula, numeral_bound: int, language) -> list[Term]:
    """The goal's subterms, which search_proof has checked are in the
    language, and the numerals up to numeral_bound that are in it too: each
    contains the one before, so the first one outside ends them."""
    pool = [node for node, _ in walk(goal) if type(node) is Var or type(node) is App]
    for n in range(numeral_bound + 1):
        try:
            validate_formula(Eq(numeral(n), numeral(n)), language)
        except WorkbenchError:
            break
        pool.append(numeral(n))
    return sorted(dict.fromkeys(pool), key=lambda t: (formula_size(Eq(t, t)), print_term(t)))


def _write_out(derived: dict, goal: Formula, theory_name: str) -> Proof:
    """The proof of goal read off the queue entries that first derived each
    formula: every cited formula's subproof in full, in citation order,
    before the step that cites it."""
    steps: list[Step] = []
    ends: list[int] = []  # the last step of each subproof written and not yet cited
    stack = [(goal, False)]
    while stack:
        phi, cited_written = stack.pop()
        kind, *payload = derived[phi]
        cites = () if kind == "ax" else payload if kind == "mp" else payload[:1]
        if not cited_written:
            stack.append((phi, True))
            stack.extend((c, False) for c in reversed(cites))
            continue
        at = ends[len(ends) - len(cites):]
        del ends[len(ends) - len(cites):]
        if kind == "ax":
            steps.append(TheoryAxiom(theory_name, payload[0]))
        elif kind == "inst":
            univ, t = payload
            steps.append(LogicalAxiom("inst", (univ.var, univ.body, t)))
            steps.append(ModusPonens(at[0], len(steps) - 1))
        elif kind == "mp":
            steps.append(ModusPonens(*at))
        else:
            steps.append(Generalize(at[0], payload[1]))
        ends.append(len(steps) - 1)
    return Proof(tuple(steps))


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
    proof at any larger budget. A goal outside the theory's language gets
    None at once: axioms, instances by terms of the language, modus ponens
    and generalization never leave it.
    """
    try:
        validate_formula(goal, theory.language)
    except WorkbenchError:
        return None
    inst_terms = _instantiation_terms(goal, numeral_bound, theory.language)
    gen_vars = sorted(all_variable_names(goal))

    derived: dict[Formula, tuple] = {}  # formula -> the queue entry that first derived it
    implications: dict[Formula, list[Formula]] = {}  # antecedent -> implications, in order
    queue: list[tuple] = [("ax", 0)]
    spent = 0
    head = 0

    while head < len(queue) and spent < budget:
        entry = queue[head]
        kind = entry[0]
        head += 1
        spent += 1

        if kind == "ax":
            i = entry[1]
            queue.append(("ax", i + 1))
            try:
                phi = theory.axiom_of(i)
            except WorkbenchError:
                continue
        elif kind == "inst":
            _, univ, t = entry
            phi = substitute(univ.body, univ.var, t)
        elif kind == "mp":
            phi = entry[2].right
        else:  # gen
            _, body, var = entry
            phi = ForAll(var, body)

        if phi in derived:
            continue
        derived[phi] = entry
        if phi == goal:
            proof = _write_out(derived, goal, theory.name)
            if check_proof(proof, theory) != goal:
                raise WorkbenchError("search produced a proof of the wrong formula")
            return proof

        if type(phi) is ForAll:
            for t in inst_terms:
                queue.append(("inst", phi, t))
        if type(phi) is Implies:
            implications.setdefault(phi.left, []).append(phi)
            if phi.left in derived:
                queue.append(("mp", phi.left, phi))
        for imp in implications.get(phi, ()):
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
    stack = [phi]
    while stack:  # pre-order, left to right: atoms in order of first occurrence
        f = stack.pop()
        kind = type(f)
        if kind is Not:
            stack.append(f.body)
        elif kind is And or kind is Or or kind is Implies:
            stack.append(f.right)
            stack.append(f.left)
        elif kind is not Verum and kind is not Falsum and f not in index:
            index[f] = len(atoms)
            atoms.append(f)
    if len(atoms) > ATOM_LIMIT:
        raise TooManyAtoms(f"{len(atoms)} distinct atoms, limit {ATOM_LIMIT}")
    rows = iterproduct((False, True), repeat=len(atoms))
    return all(truth(phi, lambda f, row: row[index[f]], row) for row in rows)


# --- proof files ---------------------------------------------------------

# step kind -> (keyword, its fields in order, what a line of the kind wants)
_STEPS = {
    TheoryAxiom: ("ax", ("theory", "index"), "a theory id and an index"),
    LogicalAxiom: ("logic", ("schema", "args"), "a schema id"),
    ModusPonens: ("mp", ("premise", "implication"), "two step indices"),
    Generalize: ("gen", ("premise", "var"), "a step index and a variable"),
}
_KINDS = {keyword: kind for kind, (keyword, _, _) in _STEPS.items()}
_INDEX_FIELDS = ("index", "premise", "implication")


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

    def logic_args(schema: str, chunks: list[str]) -> tuple:
        if schema in _CONG_SCHEMAS:
            if not chunks:
                raise FormatError(f"{schema}: missing symbol name")
            return (chunks[0],) + tuple(parse_term(c, language) for c in chunks[1:])
        sig = _signature(schema, chunks)
        return tuple(_argument(schema, code, _ARGUMENTS[code][1](chunk, language))
                     for code, chunk in zip(sig, chunks))

    steps: list[Step] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        # whole-line comments only: family symbols like c#3 contain a hash
        if not line or line.startswith("#"):
            continue
        try:
            head, *words = _split_chunks(line)
            kind = _KINDS.get(head)
            if kind is None:
                raise FormatError(f"unknown step kind {head!r}")
            keyword, fields, wants = _STEPS[kind]
            if kind is TheoryAxiom and len(words) > 2:
                # the index is the last chunk; the theory id is the text before it, as written
                words = [line[len(head):].rsplit(None, 1)[0].strip(), words[-1]]
            elif kind is LogicalAxiom and words:
                words = [words[0], logic_args(words[0], words[1:])]
            if len(words) != len(fields):
                raise FormatError(f"{keyword} wants {wants}")
            steps.append(kind(*(int(word) if field in _INDEX_FIELDS else word
                                for field, word in zip(fields, words))))
        except (ValueError, FormatError) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    return Proof(tuple(steps))


def format_proof(proof: Proof) -> str:
    def chunk(value) -> str:  # the one printer writes terms as well as formulas
        return print_formula(value) if isinstance(value, (Formula, Term)) else str(value)

    lines = []
    for step in proof.steps:
        keyword, fields, _ = _STEPS[type(step)]
        parts = [keyword]
        for field in fields:
            value = getattr(step, field)
            parts += value if field == "args" else (value,)
        lines.append(" ".join(map(chunk, parts)))
    return "\n".join(lines) + "\n"
