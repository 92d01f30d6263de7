"""The two-valued evaluators against the versions that had their own connectives.

Tarskian evaluation, the truth-table check and the orbit game now share one
connective layer, `structures.truth`. The copies below are the three
evaluators as they were before it, each with its own recursive function over
all the connectives. On random inputs, partial ones included, each pair must
give the same value, or raise the same exception class with the same message.
"""

from itertools import product as iterproduct

from hypothesis import example, given, settings, strategies as st

from weakarith.eqdecide import ProfileError, eval_on_blocks
from weakarith.proofs import ATOM_LIMIT, TooManyAtoms, is_tautology
from weakarith.structures import FiniteStructure, StructureError, eval_formula, eval_term
from weakarith.syntax import (And, App, Eq, Exists, FALSE, Falsum, ForAll, Formula, Implies,
                              Not, Or, Rel, TRUE, Var, Verum, free_variables)


# --- the evaluators as they were ------------------------------------------------

def old_eval_formula(structure: FiniteStructure, phi: Formula, assignment=None) -> bool:
    sigma = dict(assignment) if assignment else {}
    k = structure.size

    def rec(f: Formula) -> bool:
        if isinstance(f, Rel):
            return structure.rel_holds(
                f.name, [eval_term(structure, a, sigma) for a in f.args])
        if isinstance(f, Eq):
            return (eval_term(structure, f.left, sigma)
                    == eval_term(structure, f.right, sigma))
        if isinstance(f, Verum):
            return True
        if isinstance(f, Falsum):
            return False
        if isinstance(f, Not):
            return not rec(f.body)
        if isinstance(f, And):
            return rec(f.left) and rec(f.right)
        if isinstance(f, Or):
            return rec(f.left) or rec(f.right)
        if isinstance(f, Implies):
            return (not rec(f.left)) or rec(f.right)
        if isinstance(f, (ForAll, Exists)):
            want_all = isinstance(f, ForAll)
            old = sigma.get(f.var, _MISSING)
            try:
                for a in range(k):
                    sigma[f.var] = a
                    got = rec(f.body)
                    if got != want_all:
                        return not want_all
                return want_all
            finally:
                if old is _MISSING:
                    sigma.pop(f.var, None)
                else:
                    sigma[f.var] = old
        raise StructureError(f"not a formula: {f!r}")

    return rec(phi)


_MISSING = object()


def old_is_tautology(phi: Formula) -> bool:
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

    def value(f: Formula, row) -> bool:
        if isinstance(f, (Rel, Eq, ForAll, Exists)):
            return row[index[f]]
        if isinstance(f, Verum):
            return True
        if isinstance(f, Falsum):
            return False
        if isinstance(f, Not):
            return not value(f.body, row)
        if isinstance(f, And):
            return value(f.left, row) and value(f.right, row)
        if isinstance(f, Or):
            return value(f.left, row) or value(f.right, row)
        return (not value(f.left, row)) or value(f.right, row)

    for row in iterproduct((False, True), repeat=len(atoms)):
        if not value(phi, row):
            return False
    return True


def old_eval_on_blocks(blocks, phi: Formula, rel: str = "E") -> bool:
    blocks = tuple(blocks)
    if not blocks:
        raise ProfileError("structures are nonempty")
    untouched0: dict[int, int] = {}
    for s in blocks:
        untouched0[s] = untouched0.get(s, 0) + 1

    def rec(f: Formula, touched, untouched, asg) -> bool:
        if isinstance(f, Rel):
            a, b = (asg[t.name] for t in f.args)
            return a[0] == b[0]
        if isinstance(f, Eq):
            return asg[f.left.name] == asg[f.right.name]
        if isinstance(f, Verum):
            return True
        if isinstance(f, Falsum):
            return False
        if isinstance(f, Not):
            return not rec(f.body, touched, untouched, asg)
        if isinstance(f, And):
            return (rec(f.left, touched, untouched, asg)
                    and rec(f.right, touched, untouched, asg))
        if isinstance(f, Or):
            return (rec(f.left, touched, untouched, asg)
                    or rec(f.right, touched, untouched, asg))
        if isinstance(f, Implies):
            return (not rec(f.left, touched, untouched, asg)
                    or rec(f.right, touched, untouched, asg))

        want_all = isinstance(f, ForAll)
        moves: list[tuple] = []
        for element in sorted(set(asg.values())):
            moves.append(("reuse", element))
        for slot, (size, used) in enumerate(touched):
            if used < size:
                moves.append(("fresh", slot))
        for size in sorted(untouched):
            if untouched[size] > 0:
                moves.append(("open", size))
        for kind, what in moves:
            if kind == "reuse":
                t2, u2, value = touched, untouched, what
            elif kind == "fresh":
                size, used = touched[what]
                t2 = touched[:what] + ((size, used + 1),) + touched[what + 1:]
                u2, value = untouched, (what, used)
            else:
                t2 = touched + ((what, 1),)
                u2 = dict(untouched)
                u2[what] -= 1
                value = (len(touched), 0)
            got = rec(f.body, t2, u2, {**asg, f.var: value})
            if got != want_all:
                return got
        return want_all

    return rec(phi, (), untouched0, {})


def outcome(fn, *args):
    """The value, or the exception class and message."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the comparison is the point
        return ("raised", type(exc), str(exc))


# --- strategies ---------------------------------------------------------------

VARS = ("x", "y", "z")
NAMES = st.sampled_from(VARS)


def connectives(children):
    return st.one_of(
        children.map(Not),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Implies, children, children),
    )


def quantified(children):
    return st.one_of(st.builds(ForAll, NAMES, children),
                     st.builds(Exists, NAMES, children))


terms = st.recursive(
    st.one_of(NAMES.map(Var), st.just(App("c"))),
    lambda sub: st.one_of(st.builds(lambda t: App("f", (t,)), sub),
                          st.builds(lambda a, b: App("g", (a, b)), sub, sub)),
    max_leaves=4)

# P, R and S at arities 0, 1 and 2; a bare variable in formula position is
# not a formula
tarski_atoms = st.one_of(
    st.just(Rel("P")),
    st.builds(lambda t: Rel("R", (t,)), terms),
    st.builds(lambda a, b: Rel("S", (a, b)), terms, terms),
    st.builds(Eq, terms, terms),
    st.sampled_from([TRUE, FALSE, Var("w")]),
)

tarski_formulas = st.recursive(
    tarski_atoms, lambda sub: st.one_of(connectives(sub), quantified(sub)), max_leaves=8)


@st.composite
def structures(draw):
    k = draw(st.integers(1, 3))
    point = st.integers(0, k - 1)
    # most symbols are interpreted, most tables at the arity the formulas use
    often = st.integers(0, 4).map(bool)
    functions = {}
    for name, arity in (("c", 0), ("f", 1), ("g", 2)):
        if draw(often):
            if not draw(often):
                arity = draw(st.integers(0, 2))
            functions[name] = tuple(draw(st.lists(point, min_size=k ** arity,
                                                  max_size=k ** arity)))
    relations = {}
    for name, arity in (("P", 0), ("R", 1), ("S", 2)):
        if draw(often):
            cells = st.tuples(*[point] * arity)
            relations[name] = frozenset(draw(st.lists(cells, max_size=4)))
    return FiniteStructure(k, functions, relations)


assignments = st.one_of(
    st.fixed_dictionaries({v: st.integers(0, 2) for v in VARS}),
    st.dictionaries(NAMES, st.integers(0, 2), max_size=3))


@settings(max_examples=400)
@given(structures(), tarski_formulas, assignments)
def test_eval_formula_matches_the_old_evaluator(structure, phi, assignment):
    assignment = {v: a % structure.size for v, a in assignment.items()}
    assert outcome(eval_formula, structure, phi, assignment) == \
        outcome(old_eval_formula, structure, phi, assignment)


# propositional atoms: a few nullary relations and opaque quantified or
# equational subformulas, or many of them to go past ATOM_LIMIT
def table_atoms(n):
    pool = [Rel(f"p{i}") for i in range(n)]
    pool += [ForAll("x", Rel("q", (Var("x"),))), Exists("y", Eq(Var("y"), Var("y"))),
             Eq(Var("x"), Var("y")), TRUE, FALSE]
    return st.sampled_from(pool)


def table_formulas(n, leaves):
    return st.recursive(table_atoms(n), connectives, max_leaves=leaves)


def excluded_middle(phi):
    return Or(phi, Not(phi))


def _fold(parts):
    acc = parts[0]
    for k, p in enumerate(parts[1:]):
        acc = (And, Or, Implies)[k % 3](acc, p)
    return acc


small_tables = table_formulas(4, 10)
tautology_inputs = st.one_of(
    small_tables,
    small_tables.map(excluded_middle),
    st.builds(lambda p, q: Implies(p, Implies(q, p)), small_tables, small_tables),
    # past the limit: 21 or more distinct atoms
    st.lists(table_atoms(ATOM_LIMIT + 6), min_size=ATOM_LIMIT + 1, unique=True).map(_fold),
    table_formulas(ATOM_LIMIT + 6, 60),
)


@settings(max_examples=300)
@given(tautology_inputs)
def test_is_tautology_matches_the_old_truth_table(phi):
    assert outcome(is_tautology, phi) == outcome(old_is_tautology, phi)


def test_tautology_inputs_reach_past_the_atom_limit():
    phi = _fold([Rel(f"p{i}") for i in range(ATOM_LIMIT + 1)])
    assert outcome(is_tautology, phi) == outcome(old_is_tautology, phi)
    assert outcome(is_tautology, phi)[1] is TooManyAtoms


block_atoms = st.one_of(
    st.builds(lambda a, b: Rel("E", (Var(a), Var(b))), NAMES, NAMES),
    st.builds(lambda a, b: Eq(Var(a), Var(b)), NAMES, NAMES),
    st.sampled_from([TRUE, FALSE]),
)


@st.composite
def block_sentences(draw):
    phi = draw(st.recursive(block_atoms,
                            lambda sub: st.one_of(connectives(sub), quantified(sub)),
                            max_leaves=6))
    for v in sorted(free_variables(phi)):
        phi = draw(st.sampled_from([ForAll, Exists]))(v, phi)
    return phi


@settings(max_examples=300)
@example([], TRUE)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), block_sentences())
def test_eval_on_blocks_matches_the_old_game(blocks, phi):
    assert outcome(eval_on_blocks, blocks, phi) == outcome(old_eval_on_blocks, blocks, phi)
