"""Hilbert-style proof checking and the deterministic bounded search."""

import pytest

from weakarith.proofs import (
    Generalize,
    InvalidStepError,
    LogicalAxiom,
    ModusPonens,
    Proof,
    TheoryAxiom,
    TooManyAtoms,
    check_proof,
    format_proof,
    is_tautology,
    parse_proof,
    schema_formula,
    search_proof,
)
from weakarith.sexpr import parse_formula, print_formula
from weakarith.syntax import (
    And,
    App,
    Eq,
    Falsum,
    ForAll,
    Implies,
    Not,
    Or,
    Rel,
    TRUE,
    Var,
)
from weakarith.theories import get_theory, numeral

R = get_theory("R")
Q = get_theory("Q")

ZZ = Eq(App("0"), App("0"))


def test_length_one_axiom_proof():
    # index 20 carries the one-plus-one identity instance
    proof = Proof((TheoryAxiom("R", 20),))
    conc = check_proof(proof, R)
    assert print_formula(conc) == "(= (+ (S 0) (S 0)) (S (S 0)))"


def test_skk_derivation_of_self_implication():
    a = Implies(ZZ, ZZ)
    proof = Proof((
        LogicalAxiom("k", (ZZ, ZZ)),
        LogicalAxiom("k", (ZZ, Implies(ZZ, ZZ))),
        LogicalAxiom("s", (ZZ, Implies(ZZ, ZZ), ZZ)),
        ModusPonens(1, 2),
        ModusPonens(0, 3),
        LogicalAxiom("k", (a, ZZ)),
        ModusPonens(4, 5),
    ))
    assert check_proof(proof, R) == Implies(ZZ, a)


def test_mp_requires_implication():
    bad = Proof((TheoryAxiom("R", 0), TheoryAxiom("R", 20),
                 ModusPonens(0, 1)))
    with pytest.raises(InvalidStepError) as exc:
        check_proof(bad, R)
    assert exc.value.index == 2
    assert "not an implication" in exc.value.reason


def test_mp_fault_injection_rejected():
    # implication present but the cited premise is not its antecedent
    bad = Proof((
        TheoryAxiom("R", 20),
        LogicalAxiom("k", (ZZ, ZZ)),
        ModusPonens(0, 1),
    ))
    with pytest.raises(InvalidStepError) as exc:
        check_proof(bad, R)
    assert exc.value.index == 2
    assert "antecedent" in exc.value.reason


def test_forward_references_rejected():
    bad = Proof((ModusPonens(0, 1), TheoryAxiom("R", 20)))
    with pytest.raises(InvalidStepError) as exc:
        check_proof(bad, R)
    assert exc.value.index == 0


def test_theory_citation_must_match():
    proof = Proof((TheoryAxiom("R", 20),))
    with pytest.raises(InvalidStepError):
        check_proof(proof, Q)


def test_inst_schema_golden():
    phi = Eq(Var("x"), Var("x"))
    inst = schema_formula("inst", ("x", phi, numeral(1)), R.language)
    assert inst == Implies(ForAll("x", phi), Eq(numeral(1), numeral(1)))


def test_vac_schema_demands_non_free_variable():
    phi = Eq(Var("x"), Var("x"))
    with pytest.raises(ValueError):
        schema_formula("vac", ("x", phi), R.language)
    ok = schema_formula("vac", ("y", phi), R.language)
    assert ok == Implies(phi, ForAll("y", phi))


def test_congruence_schemas():
    cong = schema_formula("eq-cong-fun", ("S", Var("x"), Var("y")), R.language)
    assert cong == Implies(Eq(Var("x"), Var("y")),
                           Eq(App("S", (Var("x"),)), App("S", (Var("y"),))))
    congr = schema_formula("eq-cong-rel",
                           ("<=", Var("a"), Var("b"), Var("c"), Var("d")),
                           R.language)
    assert print_formula(congr) == \
        "(-> (= a c) (-> (= b d) (-> (<= a b) (<= c d))))"


def test_generalization():
    proof = Proof((
        LogicalAxiom("eq-refl", (Var("x"),)),
        Generalize(0, "x"),
    ))
    assert check_proof(proof, R) == ForAll("x", Eq(Var("x"), Var("x")))


def test_bound_variables_follow_the_reader():
    # a name token the language does not declare, for every v argument and gen
    phi = Eq(Var("x"), Var("x"))
    for name in ("forall", "0", "S", "<=", "a(b)", "a b", ""):
        with pytest.raises(ValueError, match="cannot be a bound variable"):
            schema_formula("inst", (name, phi, numeral(1)), R.language)
        with pytest.raises(InvalidStepError) as exc:
            check_proof(Proof((LogicalAxiom("eq-refl", (Var("x"),)),
                               Generalize(0, name))), R)
        assert exc.value.index == 1
        assert exc.value.reason == f"{name!r} cannot be a bound variable"
    assert schema_formula("vac", ("y1", phi), R.language) == Implies(phi, ForAll("y1", phi))


def test_search_finds_axiom_goal_at_golden_budget():
    goal = R.axiom_of(7)
    assert search_proof(R, goal, 13) is None
    found = search_proof(R, goal, 14)
    assert found is not None and len(found.steps) == 1
    assert check_proof(found, R) == goal


def test_search_budget_monotone_same_proof():
    goal = R.axiom_of(7)
    found = search_proof(R, goal, 14)
    for budget in (14, 15, 51, 10_000):
        assert search_proof(R, goal, budget) == found


def test_search_derives_disjunction_via_inst_mp():
    goal = parse_formula("(or (<= (S 0) (S 0)) (<= (S 0) (S 0)))", R.language)
    assert search_proof(R, goal, 21) is None
    hit = search_proof(R, goal, 22)
    assert hit is not None
    assert check_proof(hit, R) == goal
    assert search_proof(R, goal, 5000) == hit
    assert format_proof(hit).splitlines() == [
        "ax R 9",
        "logic inst x (or (<= x (S 0)) (<= (S 0) x)) (S 0)",
        "mp 0 1",
    ]


def test_search_misses_false_goal():
    goal = parse_formula("(= (+ (S 0) (S 0)) (S (S (S 0))))", R.language)
    for budget in (10, 100, 2000):
        assert search_proof(R, goal, budget) is None


def test_is_tautology():
    atom = Rel("<=", (App("0"), App("0")))
    assert is_tautology(Implies(Falsum(), ForAll("x", Eq(Var("x"), Var("x")))))
    assert is_tautology(Or(atom, Not(atom)))
    assert is_tautology(TRUE)
    assert not is_tautology(Falsum())
    assert not is_tautology(Implies(atom, ZZ))


def test_is_tautology_treats_quantifiers_opaquely():
    atom = Rel("<=", (App("0"), App("0")))
    closed = ForAll("x", Rel("<=", (Var("x"), Var("x"))))
    assert not is_tautology(Implies(closed, atom))


def test_is_tautology_atom_limit():
    atoms = [Eq(numeral(i), numeral(i)) for i in range(25)]
    big = atoms[0]
    for t in atoms[1:]:
        big = And(big, t)
    with pytest.raises(TooManyAtoms):
        is_tautology(Implies(big, big))


def test_proof_file_roundtrip():
    text = ("# instantiate then detach\n"
            "ax R 9\n"
            "logic inst x (or (<= x (S 0)) (<= (S 0) x)) (S 0)\n"
            "mp 0 1\n")
    proof = parse_proof(text, R.language)
    goal = parse_formula("(or (<= (S 0) (S 0)) (<= (S 0) (S 0)))", R.language)
    assert check_proof(proof, R) == goal
    assert parse_proof(format_proof(proof), R.language) == proof


def test_parse_proof_rejects_malformed_lines():
    from weakarith.errors import FormatError
    for bad in ["mp 0\n", "ax R\n", "weird 1 2\n", "gen 0\n" ]:
        with pytest.raises(FormatError):
            parse_proof(bad, R.language)
