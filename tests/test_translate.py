"""Interpretations: flattening, relativization, induced structures."""

import random

import pytest

from weakarith.sexpr import parse_formula, print_formula
from weakarith.structures import FiniteStructure, eval_formula
from weakarith.syntax import (
    And,
    App,
    Eq,
    Exists,
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
    free_variables,
)
from weakarith.theories import get_language, get_theory
from weakarith.translate import (
    InternalModelError,
    TargetTemplate,
    Translation,
    TranslationError,
    compose,
    identity_translation,
    internal_structure,
    marker_collapse_translation,
    obligations,
    parse_translation,
    translate_formula,
    verify_semantic,
)

LANG_SS = Language((Symbol("0", KIND_FUNCTION, 0),
                    Symbol("S", KIND_FUNCTION, 1)))
LANG_GRAPH = Language((Symbol("Z", KIND_RELATION, 1),
                       Symbol("Sg", KIND_RELATION, 2),
                       Symbol("D", KIND_RELATION, 1)))


def graph_translation():
    return Translation(
        LANG_SS, LANG_GRAPH,
        TargetTemplate(("v0",), Rel("D", (Var("v0"),))),
        {},
        {"0": TargetTemplate(("v0",), Rel("Z", (Var("v0"),))),
         "S": TargetTemplate(("v0", "v1"), Rel("Sg", (Var("v0"), Var("v1"))))},
    )


# a 4-point target whose D-part carries successor arithmetic mod 3
TARGET = FiniteStructure(4, {}, {
    "Z": frozenset({(0,)}),
    "Sg": frozenset({(0, 1), (1, 2), (2, 0), (3, 3), (3, 1)}),
    "D": frozenset({(0,), (1,), (2,)}),
})


def test_flattening_shape_golden():
    tr = graph_translation()
    phi = Eq(App("S", (App("0"),)), Var("x"))
    out = translate_formula(tr, phi)
    assert print_formula(out) == (
        "(exists w0 (and (D w0) (and (Z w0) "
        "(exists w1 (and (D w1) (and (Sg w0 w1) (= w1 x)))))))")


def test_quantifiers_are_relativized():
    tr = graph_translation()
    out = translate_formula(tr, ForAll("x", Eq(Var("x"), Var("x"))))
    assert isinstance(out, ForAll)
    assert isinstance(out.body, Implies)
    assert out.body.left == Rel("D", (Var(out.var),))
    out2 = translate_formula(tr, Exists("x", Eq(Var("x"), Var("x"))))
    assert isinstance(out2.body, And)


def test_internal_structure_golden():
    mi = internal_structure(graph_translation(), TARGET)
    assert mi.size == 3
    assert mi.functions["0"] == (0,)
    assert mi.functions["S"] == (1, 2, 0)


def test_internal_structure_rejects_partial_graphs():
    broken = FiniteStructure(2, {}, {
        "Z": frozenset({(0,)}),
        "Sg": frozenset(),  # nothing succeeds anything
        "D": frozenset({(0,), (1,)}),
    })
    with pytest.raises(InternalModelError):
        internal_structure(graph_translation(), broken)


def test_internal_structure_rejects_empty_domain():
    empty = FiniteStructure(2, {}, {
        "Z": frozenset(), "Sg": frozenset(), "D": frozenset()})
    with pytest.raises(InternalModelError):
        internal_structure(graph_translation(), empty)


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


def test_semantic_round_trip_sample():
    tr = graph_translation()
    mi = internal_structure(tr, TARGET)
    rng = random.Random(7)
    for i in range(120):
        phi = _rand_formula(rng, 3, [])
        assert not free_variables(phi)
        got = eval_formula(TARGET, translate_formula(tr, phi))
        want = eval_formula(mi, phi)
        assert got == want, (i, print_formula(phi))


def test_open_formulas_use_domain_elements():
    tr = graph_translation()
    mi = internal_structure(tr, TARGET)
    rng = random.Random(11)
    dom = [0, 1, 2]
    for i in range(40):
        phi = _rand_formula(rng, 2, ["a", "b"])
        tphi = translate_formula(tr, phi)
        for a in dom:
            for b in dom:
                got = eval_formula(TARGET, tphi, {"a": a, "b": b})
                want = eval_formula(mi, phi, {"a": a, "b": b})
                assert got == want, (i, print_formula(phi), a, b)


class _MiniTheory:
    name = "mini"
    language = LANG_SS

    def axiom_of(self, i):
        axs = [
            ForAll("x", ForAll("y", Implies(
                Eq(App("S", (Var("x"),)), App("S", (Var("y"),))),
                Eq(Var("x"), Var("y"))))),
            ForAll("x", Exists("y", Eq(App("S", (Var("y"),)), Var("x")))),
            ForAll("x", Not(Eq(App("S", (Var("x"),)), App("0")))),
        ]
        return axs[i % 3]


def test_obligations_cover_totality_axioms_equality():
    tr = graph_translation()
    obs = obligations(tr, _MiniTheory(), 2)
    # two totality sentences, two axioms, equality block
    assert len(obs) >= 4
    texts = [print_formula(o) for o in obs]
    assert len(set(texts)) == len(texts), "duplicate obligations"


def test_verify_semantic_golden():
    tr = graph_translation()
    rep = verify_semantic(tr, _MiniTheory(), TARGET, 2)
    assert rep.ok and rep.failures == ()
    rep3 = verify_semantic(tr, _MiniTheory(), TARGET, 3)
    # successor-of-two wraps to zero in the induced structure
    assert not rep3.ok
    assert len(rep3.failures) == 1


def test_validation_rejects_unmapped_symbols():
    with pytest.raises(TranslationError):
        Translation(
            LANG_SS, LANG_GRAPH,
            TargetTemplate(("v0",), Rel("D", (Var("v0"),))),
            {},
            {"0": TargetTemplate(("v0",), Rel("Z", (Var("v0"),)))},
        )


def test_validation_rejects_bad_param_counts():
    with pytest.raises(TranslationError):
        Translation(
            LANG_SS, LANG_GRAPH,
            TargetTemplate(("v0",), Rel("D", (Var("v0"),))),
            {},
            {"0": TargetTemplate(("v0",), Rel("Z", (Var("v0"),))),
             "S": TargetTemplate(("v0",), Rel("Sg", (Var("v0"), Var("v0"))))},
        )


def test_validation_rejects_stray_free_vars():
    with pytest.raises(TranslationError):
        Translation(
            LANG_SS, LANG_GRAPH,
            TargetTemplate(("v0",), Rel("D", (Var("v1"),))),
            {},
            {"0": TargetTemplate(("v0",), Rel("Z", (Var("v0"),))),
             "S": TargetTemplate(("v0", "v1"),
                                 Rel("Sg", (Var("v0"), Var("v1"))))},
        )


def test_identity_translation_is_neutral():
    q = get_theory("Q")
    ident = identity_translation(q.language)
    mq = FiniteStructure(2, {"0": (0,), "S": (1, 1), "+": (0, 1, 1, 1),
                             "*": (0, 0, 0, 1)}, {})
    q1 = q.axiom_of(0)
    assert eval_formula(mq, translate_formula(ident, q1)) == \
        eval_formula(mq, q1)
    assert internal_structure(ident, mq) == mq


def test_compose_agrees_with_two_step():
    tr = graph_translation()
    lang2 = Language((Symbol("zz", KIND_RELATION, 1),
                      Symbol("ss", KIND_RELATION, 2),
                      Symbol("dd", KIND_RELATION, 1)))
    tr2 = Translation(
        LANG_GRAPH, lang2,
        TargetTemplate(("v0",), Rel("dd", (Var("v0"),))),
        {"Z": TargetTemplate(("v0",), Rel("zz", (Var("v0"),))),
         "Sg": TargetTemplate(("v0", "v1"), Rel("ss", (Var("v0"), Var("v1")))),
         "D": TargetTemplate(("v0",), Rel("dd", (Var("v0"),)))},
        {},
    )
    tr12 = compose(tr, tr2)
    m2 = FiniteStructure(4, {}, {
        "zz": frozenset({(0,)}),
        "ss": frozenset({(0, 1), (1, 2), (2, 0), (3, 3), (3, 1)}),
        "dd": frozenset({(0,), (1,), (2,)}),
    })
    m2i = internal_structure(tr12, m2)
    rng = random.Random(3)
    for i in range(60):
        phi = _rand_formula(rng, 3, [])
        direct = eval_formula(m2, translate_formula(tr12, phi))
        induced = eval_formula(m2i, phi)
        two_step = eval_formula(
            m2, translate_formula(tr2, translate_formula(tr, phi)))
        assert direct == induced == two_step, (i, print_formula(phi))


def test_marker_collapse_sends_the_product_marker_to_false():
    prod = get_theory("product:Q+,R")
    marker = prod.axiom_of(0).left.name
    p2r = marker_collapse_translation(prod.language, marker, get_language("R"))
    out = translate_formula(p2r, prod.axiom_of(0))
    assert isinstance(out, Implies)
    assert print_formula(out.left) == "false"


def test_parse_translation_roundtrip_use():
    text = ("source: eq\n"
            "target: R\n"
            "domain: (= v0 v0)\n"
            "rel E: (and (<= v0 v1) (<= v1 v0))\n")
    ft = parse_translation(text)
    sample = parse_formula("(forall x (E x x))", get_language("eq"))
    out = translate_formula(ft, sample)
    assert "(<=" in print_formula(out)


def test_parse_translation_errors():
    from weakarith.errors import FormatError
    with pytest.raises(FormatError):
        parse_translation("source: eq\ntarget: R\n")  # no domain
    with pytest.raises(FormatError):
        parse_translation("junk line\n")
