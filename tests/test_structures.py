"""Finite structures: evaluation and the table file format."""

import pytest

from weakarith.sexpr import parse_formula
from weakarith.structures import (
    FiniteStructure,
    StructureError,
    eval_formula,
    eval_term,
    format_structure,
    parse_structure,
)
from weakarith.syntax import TRUE, And, App, Eq, Or, Rel, Var
from weakarith.theories import get_language

LANG = get_language("R")

# arithmetic mod 3 with the usual order relation
MOD3 = FiniteStructure(
    size=3,
    functions={
        "0": (0,),
        "S": (1, 2, 0),
        "+": tuple((a + b) % 3 for a in range(3) for b in range(3)),
        "*": tuple((a * b) % 3 for a in range(3) for b in range(3)),
    },
    relations={"<=": frozenset((a, b) for a in range(3) for b in range(3)
                               if a <= b)},
)


def test_eval_term_tables():
    assert eval_term(MOD3, App("S", (App("0"),)), {}) == 1
    assert eval_term(MOD3, App("+", (Var("x"), Var("y"))),
                     {"x": 2, "y": 2}) == 1


def test_evaluation_is_lazy_and_left_to_right():
    bare = FiniteStructure(1, {}, {})
    # the right disjunct is never looked at, so P needs no interpretation
    assert eval_formula(bare, Or(TRUE, Rel("P"))) is True
    with pytest.raises(StructureError) as err:
        eval_formula(bare, And(Rel("P"), TRUE))
    assert str(err.value) == "no interpretation for relation 'P'"
    with pytest.raises(StructureError) as err:
        eval_formula(bare, Eq(Var("x"), Var("x")))
    assert str(err.value) == "variable 'x' has no assigned value"


def test_eval_formula_connectives():
    phi = parse_formula("(and (= 0 0) (not (= (S 0) 0)))", LANG)
    assert eval_formula(MOD3, phi, {})


def test_eval_formula_quantifiers():
    assert eval_formula(MOD3, parse_formula(
        "(forall x (exists y (= (+ x y) 0)))", LANG), {})
    assert not eval_formula(MOD3, parse_formula(
        "(exists x (not (= (* x 0) 0)))", LANG), {})


def test_eval_formula_assignment():
    phi = parse_formula("(= (S x) 0)", LANG)
    assert eval_formula(MOD3, phi, {"x": 2})
    assert not eval_formula(MOD3, phi, {"x": 0})


def test_format_parse_roundtrip():
    text = format_structure(MOD3)
    again = parse_structure(text)
    assert again.size == 3
    assert again.functions == MOD3.functions
    assert again.relations == MOD3.relations


def test_parse_structure_golden():
    m = parse_structure("size 2\nfun S = [1, 0]\nrel E = {(0, 1)}\n")
    assert m.size == 2
    assert m.functions["S"] == (1, 0)
    assert m.relations["E"] == frozenset({(0, 1)})


def test_parse_structure_rejects_bad_tables():
    from weakarith.errors import FormatError
    with pytest.raises(FormatError):
        parse_structure("size 2\nfun S = [1, 2]\n")  # value out of range
    with pytest.raises(FormatError):
        parse_structure("size 2\nfun S = [1, 0, 1]\n")  # not a power of 2
    for k in range(1, 5):  # a table's length is a power of the size, the empty one none
        for n in range(30):
            text = f"size {k}\nfun f = [{', '.join(['0'] * n)}]\n"
            if n in {k ** a for a in range(5)}:
                assert len(parse_structure(text).functions["f"]) == n
            else:
                with pytest.raises(FormatError, match="is not a power of"):
                    parse_structure(text)
    with pytest.raises(FormatError):
        parse_structure("size 2\nrel E = {(0, 2)}\n")
    with pytest.raises(FormatError):
        parse_structure("fun S = [0]\n")
    with pytest.raises(StructureError):
        parse_structure("size 0\n")


def test_single_entry_table_reads_as_constant():
    m = parse_structure("size 2\nfun c = [1]\n")
    assert m.fun_value("c", []) == 1


def test_eval_missing_symbol_is_error():
    from weakarith.errors import WorkbenchError
    with pytest.raises(WorkbenchError):
        eval_formula(MOD3, parse_formula("(E 0 0)",
                     get_language("eq")), {})
