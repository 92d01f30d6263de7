"""The proof search against the one it replaced.

The copy below is the search as it was before parent entries: every derived
formula kept its whole proof as a tuple of steps, and modus ponens shifted
the implication's steps behind the premise's. The search now keeps, for each
formula, the queue entry that first derived it and writes steps out only for
the goal. Both must return the same Proof, or both None, for every theory,
goal and budget below; every proof found must also read back from its file
text and check.
"""

import pytest

from weakarith.errors import WorkbenchError
from weakarith.proofs import (
    Generalize,
    LogicalAxiom,
    ModusPonens,
    Proof,
    TheoryAxiom,
    check_proof,
    format_proof,
    parse_proof,
    search_proof,
)
from weakarith.sexpr import parse_formula, print_term
from weakarith.syntax import (
    Eq,
    ForAll,
    Implies,
    Not,
    Term,
    all_variable_names,
    formula_size,
    substitute,
    validate_formula,
    walk,
)
from weakarith.theories import Theory, get_theory, numeral


# --- the search as it was -------------------------------------------------------

def _old_shift(steps, offset):
    out = []
    for step in steps:
        if isinstance(step, ModusPonens):
            out.append(ModusPonens(step.premise + offset, step.implication + offset))
        elif isinstance(step, Generalize):
            out.append(Generalize(step.premise + offset, step.var))
        else:
            out.append(step)
    return out


def _old_instantiation_terms(goal, numeral_bound, language):
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


def _old_search_proof(theory, goal, budget, *, numeral_bound=2):
    inst_terms = _old_instantiation_terms(goal, numeral_bound, theory.language)
    gen_vars = sorted(all_variable_names(goal))

    derived = {}
    implications = []
    queue = [("ax", 0)]
    spent = 0
    head = 0

    def finish(steps):
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
            steps = (TheoryAxiom(theory.name, i),)
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
            other = _old_shift(derived[imp], len(base))
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


# --- theories, goals and budgets ------------------------------------------------

THEORIES = ("R", "R0", "Q", "Q+", "PA-", "U:finite B={1} C={2}",
            "E:finite B={1} C={2}", "product:PA-,R")

# fixed theories in the language of R whose implication is derived before its
# antecedent, so that modus ponens is queued through the antecedent index:
# name -> (axioms, goal)
IMPLICATION_FIRST = {
    "late-antecedent": (("(-> (= 0 0) (= (S 0) (S 0)))", "(= 0 0)"), "(= (S 0) (S 0))"),
    "late-instances": (("(forall x (-> (= x 0) (<= x 0)))", "(forall y (= y y))"), "(<= 0 0)"),
}

BUDGETS = (1, 2, 5, 14, 60, 250, 1000)

# the false identities of the benchmark's false-goal searches
FALSE_IDENTITIES = (
    "(= (+ (S 0) (S (S 0))) (S (S (S (S 0)))))",
    "(= (* (S (S 0)) (S 0)) (S (S (S 0))))",
    "(= (+ (S (S 0)) (S 0)) (S (S (S (S 0)))))",
    "(= (* (S 0) (S (S 0))) (S (S (S 0))))",
)

# goals whose last step detaches an implication derived by instantiation from
# a premise derived by instantiation, and goals closed by generalization
COMPOSITE = (
    "(exists y (= (S (S 0)) (S y)))",
    "(exists y (= (S 0) (S y)))",
    "(forall z (= (+ 0 0) 0))",
    "(forall x (forall y (E y y)))",
    "(forall x (= x x))",
)


def _theory(theory_id):
    if theory_id not in IMPLICATION_FIRST:
        return get_theory(theory_id)
    language = get_theory("R").language
    axioms = [parse_formula(text, language) for text in IMPLICATION_FIRST[theory_id][0]]
    return Theory(theory_id, language, lambda i: axioms[i % len(axioms)])


def _goals(theory):
    axioms = []
    for i in range(6):
        try:
            axioms.append(theory.axiom_of(i))
        except WorkbenchError:
            break
    goals = list(axioms)
    for phi in axioms:
        if isinstance(phi, ForAll):
            goals.extend(substitute(phi.body, phi.var, numeral(k)) for k in range(3))
    goals.extend(Not(phi) for phi in axioms[:3])
    late = (IMPLICATION_FIRST[theory.name][1],) if theory.name in IMPLICATION_FIRST else ()
    for text in FALSE_IDENTITIES + COMPOSITE + late:
        try:
            goals.append(parse_formula(text, theory.language))
        except WorkbenchError:
            pass
    return [goal for goal in dict.fromkeys(goals) if _in_language(goal, theory.language)]


def _in_language(goal, language):
    try:
        validate_formula(goal, language)
    except WorkbenchError:
        return False
    return True


@pytest.mark.parametrize("theory_id", THEORIES + tuple(IMPLICATION_FIRST))
def test_search_matches_the_tuple_search(theory_id):
    theory = _theory(theory_id)
    found = 0
    for goal in _goals(theory):
        for budget in BUDGETS:
            new = search_proof(theory, goal, budget)
            assert new == _old_search_proof(theory, goal, budget), (goal, budget)
            if new is None:
                continue
            found += 1
            text = format_proof(new)
            assert parse_proof(text, theory.language) == new
            assert check_proof(parse_proof(text, theory.language), theory) == goal
    assert found


def test_composite_premises_come_before_the_step_that_cites_them():
    theory = get_theory("Q")
    goal = parse_formula("(exists y (= (S 0) (S y)))", theory.language)
    proof = search_proof(theory, goal, 1000)
    assert proof == _old_search_proof(theory, goal, 1000)
    # the premise's subproof in full, then the implication's, then the detachment
    assert format_proof(proof).splitlines() == [
        "ax Q 1",
        "logic inst x (not (= (S x) 0)) 0",
        "mp 0 1",
        "ax Q 2",
        "logic inst x (-> (not (= x 0)) (exists y (= x (S y)))) (S 0)",
        "mp 3 4",
        "mp 2 5",
    ]
