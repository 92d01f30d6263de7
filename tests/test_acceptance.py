"""Acceptance gate: ten end-to-end checks with explicit budgets.

Each test exercises one headline capability of the package at a scale
that fits a desk run: randomized interpretation soundness, exhaustive
finite-model counting, the equivalence-theory decision procedure and
its profile invariant, the independence and certification workflows,
the formula codec, the proof kernel, and the staged oracle pair.
"""

import itertools
import random
import time

import pytest

from formula_corpus import build_corpus
from weakarith.eqdecide import decide, eval_on_blocks, profile_of, rank
from weakarith.experiments import independence_search, predicate_atom, table_decider
from weakarith.godel import godel_decode, godel_encode
from weakarith.machines import canonical_pair, parse_pair_spec
from weakarith.modelsearch import closed_form_count, model_search
from weakarith.proofs import (
    InvalidStepError,
    LogicalAxiom,
    ModusPonens,
    Proof,
    TheoryAxiom,
    check_proof,
    is_tautology,
    search_proof,
)
from weakarith.sexpr import parse_formula
from weakarith.structures import FiniteStructure, eval_formula
from weakarith.syntax import (
    And,
    App,
    Eq,
    Exists,
    FALSE,
    ForAll,
    Implies,
    KIND_FUNCTION,
    KIND_RELATION,
    Language,
    Not,
    Or,
    Rel,
    Symbol,
    Var,
    and_all,
    free_variables,
    symbols_of,
)
from weakarith.theories import ax1, ax2, ax3, ax4, ax5, get_theory, size_exists
from weakarith.translate import TargetTemplate, Translation, internal_structure, translate_formula

# --- 1. interpretation soundness on a randomized grid --------------------------

LANG_SS = Language((Symbol("0", KIND_FUNCTION, 0),
                    Symbol("S", KIND_FUNCTION, 1)))
LANG_GRAPH = Language((Symbol("Z", KIND_RELATION, 1),
                       Symbol("Sg", KIND_RELATION, 2),
                       Symbol("D", KIND_RELATION, 1)))

GRAPH_TRANSLATION = Translation(
    LANG_SS, LANG_GRAPH,
    TargetTemplate(("v0",), Rel("D", (Var("v0"),))),
    {},
    {"0": TargetTemplate(("v0",), Rel("Z", (Var("v0"),))),
     "S": TargetTemplate(("v0", "v1"), Rel("Sg", (Var("v0"), Var("v1"))))},
)


def _rand_term(rng, depth, vars_):
    if depth == 0 or rng.random() < 0.3:
        if vars_ and rng.random() < 0.6:
            return Var(rng.choice(vars_))
        return App("0")
    return App("S", (_rand_term(rng, depth - 1, vars_),))


def _rand_formula(rng, depth, vars_):
    if depth == 0:
        return Eq(_rand_term(rng, 2, vars_), _rand_term(rng, 2, vars_))
    k = rng.randrange(6)
    if k == 0:
        return Not(_rand_formula(rng, depth - 1, vars_))
    if k == 1:
        return And(_rand_formula(rng, depth - 1, vars_),
                   _rand_formula(rng, depth - 1, vars_))
    if k == 2:
        return Or(_rand_formula(rng, depth - 1, vars_),
                  _rand_formula(rng, depth - 1, vars_))
    if k == 3:
        return Implies(_rand_formula(rng, depth - 1, vars_),
                       _rand_formula(rng, depth - 1, vars_))
    v = f"q{len(vars_)}"
    body = _rand_formula(rng, depth - 1, vars_ + [v])
    return (ForAll if k == 4 else Exists)(v, body)


def _random_target(rng):
    """A structure of size <= 4 whose D-part carries a total unary function.

    Rows outside the domain predicate are legal garbage and must not
    influence either side of the comparison.
    """
    size = rng.randint(1, 4)
    dom = sorted(rng.sample(range(size), rng.randint(1, size)))
    zeros = {(rng.choice(dom),)}
    succ = {(a, rng.choice(dom)) for a in dom}
    for o in range(size):
        if o not in dom and rng.random() < 0.5:
            succ.add((o, rng.randrange(size)))
        if o not in dom and rng.random() < 0.3:
            zeros.add((o,))
    return FiniteStructure(size, {}, {
        "Z": frozenset(zeros),
        "Sg": frozenset(succ),
        "D": frozenset((a,) for a in dom),
    })


def test_01_translation_soundness_randomized_grid():
    started = time.time()
    rng = random.Random(2026)
    sentences = []
    seen = set()
    while len(sentences) < 42:
        phi = _rand_formula(rng, 3, [])
        if phi not in seen:
            seen.add(phi)
            sentences.append(phi)
    assert all(not free_variables(phi) for phi in sentences)
    translated = [translate_formula(GRAPH_TRANSLATION, phi) for phi in sentences]

    cases = 0
    for _ in range(25):
        target = _random_target(rng)
        induced = internal_structure(GRAPH_TRANSLATION, target)
        for phi, tphi in zip(sentences, translated):
            assert eval_formula(target, tphi) == eval_formula(induced, phi)
            cases += 1
    assert cases >= 1000
    assert time.time() - started < 120


# --- 2. no finite model below size 4 for the seven base arithmetic axioms ------

def test_02_exhaustive_absence_with_matching_counter():
    started = time.time()
    theory = get_theory("Q")
    axioms = [theory.axiom_of(i) for i in range(7)]
    outcome = model_search(axioms, 3)
    assert outcome.witness is None
    rels, funs = symbols_of(and_all(axioms))
    assert [r.size for r in outcome.reports] == [1, 2, 3]
    for report in outcome.reports:
        expected = closed_form_count(rels, funs, report.size)
        assert report.examined == expected
        assert report.total == expected
    assert time.time() - started < 300


# --- 3. the bounded-parameter fragment has a small model -----------------------

def test_03_fragment_with_small_parameters_is_satisfiable():
    started = time.time()
    fragment = []
    for m in range(3):
        for n in range(3):
            fragment.append(ax1(m, n))
            fragment.append(ax2(m, n))
            if m != n:
                fragment.append(ax3(m, n))
    for n in range(3):
        fragment.append(ax4(n))
        fragment.append(ax5(n))
    assert len(fragment) == 30
    outcome = model_search(fragment, 4)
    witness = outcome.witness
    assert witness is not None
    assert witness.size <= 4
    for phi in fragment:
        assert eval_formula(witness, phi)
    assert time.time() - started < 60


# --- 4. decision trichotomy against exhaustive truth ---------------------------

def _partition_structure(blocks):
    pairs, base = [], 0
    for b in blocks:
        for i in range(b):
            for j in range(b):
                pairs.append((base + i, base + j))
        base += b
    return FiniteStructure(base, {}, {"E": frozenset(pairs)})


def test_04_decision_trichotomy_cross_checked():
    pair = parse_pair_spec("finite B={2} C={3}")
    verdicts = {n: decide(size_exists(n), pair, 0).kind for n in (2, 3, 5)}
    assert verdicts == {2: "provable", 3: "refutable", 5: "independent"}

    # admissible class-size sets: one class per size (uniqueness axioms),
    # must include 2 (left fact), must avoid 3 (right fact), total <= 8
    admissible = []
    for r in range(1, 8):
        for combo in itertools.combinations([1, 2, 4, 5, 6, 7, 8], r):
            if 2 in combo and sum(combo) <= 8:
                admissible.append(combo)
    assert sorted(admissible) == [
        (1, 2), (1, 2, 4), (1, 2, 5), (2,), (2, 4), (2, 5), (2, 6)]

    for n, kind in verdicts.items():
        truths = [eval_on_blocks(blocks, size_exists(n)) for blocks in admissible]
        if kind == "provable":
            assert all(truths)
        elif kind == "refutable":
            assert not any(truths)
        else:
            assert any(truths) and not all(truths)


# --- 5. equal low-rank profiles force equal truth ------------------------------

def _low_rank_sentences():
    x, y = Var("x"), Var("y")
    atoms = [Rel("E", (x, x)), Rel("E", (x, y)), Rel("E", (y, x)),
             Rel("E", (y, y)), Eq(x, y)]
    out = []
    for q1 in (ForAll, Exists):
        for q2 in (ForAll, Exists):
            for signs in itertools.product(range(3), repeat=len(atoms)):
                parts = []
                for atom, sign in zip(atoms, signs):
                    if sign == 1:
                        parts.append(atom)
                    elif sign == 2:
                        parts.append(Not(atom))
                out.append(q1("x", q2("y", and_all(parts))))
    return out


def _partitions_up_to(total):
    out = []

    def rec(rest, mx, acc):
        if acc:
            out.append(tuple(acc))
        for b in range(min(rest, mx), 0, -1):
            rec(rest - b, b, acc + [b])

    rec(total, total, [])
    return sorted(set(out))


def test_05_rank_two_profile_determines_truth():
    # syntactic bound: two-variable prenex sentences, every conjunction of
    # signed atoms over E(x,x), E(x,y), E(y,x), E(y,y), x=y
    sentences = _low_rank_sentences()
    assert len(sentences) == 972
    assert all(rank(phi) == 2 for phi in sentences)

    partitions = _partitions_up_to(8)
    assert len(partitions) == 66
    vectors = {
        blocks: tuple(eval_on_blocks(blocks, phi) for phi in sentences)
        for blocks in partitions
    }
    groups = {}
    for blocks in partitions:
        prof = profile_of(_partition_structure(blocks), 2)
        groups.setdefault(prof, []).append(blocks)
    assert any(len(members) > 1 for members in groups.values())
    for members in groups.values():
        first = vectors[members[0]]
        for other in members[1:]:
            assert vectors[other] == first, (members[0], other)


# --- 6. independence search lands on the least unclaimed index -----------------

def test_06_independence_search_yields_least_free_index():
    pair = parse_pair_spec("finite A={1} B={2}")
    report = independence_search(pair, table_decider(pair, 0), 10, stage=0)
    assert report.witness == 0
    assert report.x_set == (1,)
    assert report.y_set == (2,)
    assert report.witness not in set(report.x_set) | set(report.y_set)
    assert report.positive == predicate_atom(0)
    assert report.negative == Not(predicate_atom(0))


# --- 7. collapsing the product marker certifies the first 200 axioms -----------

def test_07_product_marker_collapse_certifies_every_axiom():
    product = get_theory("product:PA-,R")
    base = get_theory("R")
    marker = product.axiom_of(0).left
    assert isinstance(marker, Rel) and marker.args == ()

    certified = 0
    for i in range(200):
        axiom = product.axiom_of(i)
        assert isinstance(axiom, Implies)
        if axiom.left == marker:
            # marked side: forcing the marker false leaves a vacuous implication
            assert is_tautology(Implies(FALSE, axiom.right))
        else:
            # unmarked side: the antecedent not-false is vacuous, the
            # consequent must be an axiom of the second factor verbatim
            assert axiom.left == Not(marker)
            assert axiom.right == base.axiom_of(i // 2)
        certified += 1
    assert certified == 200


# --- 8. the formula codec is a bijection on a large corpus ---------------------

def test_08_codec_roundtrip_and_injectivity():
    corpus = build_corpus(10000, seed=0, depth=3)
    assert len(corpus) == 10000
    codes = [godel_encode(phi) for phi in corpus]
    assert len(set(codes)) == 10000
    for code, phi in zip(codes, corpus):
        assert godel_decode(code) == phi


# --- 9. the proof kernel accepts the good and rejects the forged ----------------

def test_09_proof_kernel_golden_and_fault_injection():
    theory = get_theory("R")
    one_line = Proof((TheoryAxiom("R", 20),))
    conclusion = check_proof(one_line, theory)
    assert conclusion == parse_formula(
        "(= (+ (S 0) (S 0)) (S (S 0)))", theory.language)
    assert conclusion == ax1(1, 1)

    # forged modus ponens: the cited premise is not the antecedent
    forged = Proof((
        TheoryAxiom("R", 0),
        LogicalAxiom("k", (theory.axiom_of(1), theory.axiom_of(2))),
        ModusPonens(0, 1),
    ))
    with pytest.raises(InvalidStepError):
        check_proof(forged, theory)

    goals = [
        (theory.axiom_of(7), 14),
        (parse_formula("(or (<= (S 0) (S 0)) (<= (S 0) (S 0)))",
                       theory.language), 22),
        (theory.axiom_of(20), 60),
        (ax1(0, 0), 30),
    ]
    for goal, budget in goals:
        proof = search_proof(theory, goal, budget)
        assert proof is not None
        assert check_proof(proof, theory) == goal


# --- 10. the staged pair stays disjoint and never retracts ---------------------

def test_10_staged_pair_disjoint_and_monotone():
    pair = canonical_pair()
    top = 10000
    left_top = pair.left.at(top)
    right_top = pair.right.at(top)
    assert not (left_top & right_top)
    for stage in range(top + 1):
        pair.check_stage(stage)

    # golden indices: the halting program lands left, the incrementer right
    assert pair.query("left", 1, 100).status == "in"
    assert pair.query("right", 5, 100).status == "in"
    assert 1 not in right_top
    assert 5 not in left_top
    assert pair.query("left", 6216, top).status == "unknown"

    ladder = list(range(0, top + 1, 250))
    probes = (0, 1, 5, 7, 42, 6216)
    for side in ("left", "right"):
        for n in probes:
            seen_in = False
            for stage in ladder:
                status = pair.query(side, n, stage).status
                if seen_in:
                    assert status == "in"
                seen_in = status == "in"
    for lo, hi in zip(ladder, ladder[1:]):
        assert pair.left.at(lo) <= pair.left.at(hi)
        assert pair.right.at(lo) <= pair.right.at(hi)
