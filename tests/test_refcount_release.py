"""Every engine call frees its working set by reference counting on return.

With the cyclic collector off and every older object moved out of the
youngest generation, `gc.collect(0)` after a call counts the objects the
call left behind in reference cycles: garbage that only the collector would
ever free. A nested function that calls itself through its own closure cell
is such a cycle, and so was a pair whose sides pointed back at it. Each
entry point below must leave none.

`parse_structure` is left out: the standard library's `ast.literal_eval`,
which reads its tables, leaves cycles of its own.
"""

import gc

import pytest

from weakarith.eqdecide import decide, normal_form
from weakarith.godel import godel_decode, godel_encode
from weakarith.machines import canonical_pair, parse_pair_spec
from weakarith.modelsearch import model_search
from weakarith.proofs import LogicalAxiom, ModusPonens, Proof, check_proof, search_proof
from weakarith.sexpr import parse_formula
from weakarith.structures import FiniteStructure, eval_formula
from weakarith.syntax import App, Eq, Implies
from weakarith.theories import get_language, get_theory, size_exists
from weakarith.translate import (
    identity_translation,
    internal_structure,
    obligations,
    translate_formula,
    verify_semantic,
)

Q = get_theory("Q")
R = get_theory("R")
EQ = get_language("eq")
ARITH = get_language("R")
IDENTITY = identity_translation(ARITH)
# successor and addition mod 2, zero, and the order 0 < 1
MOD2 = FiniteStructure(2, {"0": (0,), "S": (1, 0), "+": (0, 1, 1, 0), "*": (0, 0, 0, 1)},
                       {"<=": frozenset({(0, 0), (0, 1), (1, 1)})})
SENTENCE = parse_formula("(forall x (exists y (and (= (S y) x) (<= 0 (+ x y)))))", ARITH)
ZZ = Eq(App("0"), App("0"))
SKK = Proof((LogicalAxiom("k", (ZZ, ZZ)),
             LogicalAxiom("k", (ZZ, Implies(ZZ, ZZ))),
             LogicalAxiom("s", (ZZ, Implies(ZZ, ZZ), ZZ)),
             ModusPonens(1, 2),
             ModusPonens(0, 3)))
TWO_CLASSES = parse_formula("(exists x (exists y (not (E x y))))", EQ)


def _stage_ladder():
    pair = canonical_pair()
    for stage in range(0, 51, 10):
        pair.left.at(stage)
        pair.right.at(stage)
    pair.query("left", 1, 50)


CALLS = {
    "model_search, no witness": lambda: model_search([Q.axiom_of(i) for i in range(5)], 2),
    "model_search, witness": lambda: model_search(
        [parse_formula("(forall x (exists y (and (E x y) (not (= x y)))))", EQ)], 3),
    "eval_formula": lambda: eval_formula(MOD2, SENTENCE),
    "translate_formula": lambda: translate_formula(IDENTITY, SENTENCE),
    "obligations": lambda: obligations(IDENTITY, R, 6),
    "verify_semantic": lambda: verify_semantic(IDENTITY, R, MOD2, 6),
    "internal_structure": lambda: internal_structure(IDENTITY, MOD2),
    "decide, canonical pair": lambda: decide(size_exists(2), canonical_pair(), 4),
    "decide, finite pair": lambda: decide(TWO_CLASSES, parse_pair_spec("finite B={1} C={3}"), 0),
    "normal_form": lambda: normal_form(TWO_CLASSES, 3),
    "canonical pair stage ladder": _stage_ladder,
    "side held without its pair": lambda: canonical_pair().left.at(50),
    "search_proof": lambda: search_proof(R, Eq(App("+", (App("0"), App("0"))), App("0")), 300),
    "check_proof": lambda: check_proof(SKK, R),
    "godel_encode and godel_decode": lambda: godel_decode(godel_encode(SENTENCE)),
}


@pytest.fixture
def collector_off():
    gc.disable()
    try:
        gc.collect()
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("name", CALLS)
def test_call_leaves_no_cyclic_garbage(name, collector_off):
    CALLS[name]()
    assert gc.collect(0) == 0
