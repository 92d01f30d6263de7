"""Theory catalog: schematic axiom streams and recognizers."""

import pytest

from weakarith import theories
from weakarith.errors import FormatError
from weakarith.machines import parse_pair_spec
from weakarith.sexpr import parse_formula, print_formula
from weakarith.syntax import (
    App,
    Eq,
    Exists,
    ForAll,
    Implies,
    Not,
    Rel,
    Var,
    and_all,
    free_variables,
    is_sentence,
    neq,
    or_all,
    validate_formula,
)
from weakarith.theories import (
    CATALOG,
    PADDING,
    SchemeError,
    ax1,
    ax3,
    equivalence_axiom,
    get_language,
    get_theory,
    make_e_theory,
    make_u_theory,
    numeral,
    numeral_value,
    offdiag,
    set_extent,
    size_exists,
    size_unique,
)

R = get_theory("R")
Q = get_theory("Q")


def test_numeral_roundtrip():
    for n in range(40):
        t = numeral(n)
        assert numeral_value(t) == n
    assert numeral(0) == App("0")
    assert numeral(2) == App("S", (App("S", (App("0"),)),))


def test_numeral_value_rejects_non_numerals():
    assert numeral_value(Var("x")) is None
    assert numeral_value(App("+", (App("0"), App("0")))) is None


def test_catalog_ids_resolve():
    for tid in CATALOG:
        th = get_theory(tid)
        assert th.name == tid
        phi = th.axiom_of(0)
        validate_formula(phi, th.language)


def test_unknown_theory_is_format_error():
    with pytest.raises(FormatError):
        get_theory("nope")
    with pytest.raises(FormatError):
        get_language("nope")


def test_fixed_theory_cycles():
    qs = [Q.axiom_of(i) for i in range(7)]
    assert Q.axiom_of(7) == qs[0]
    assert Q.axiom_of(13) == qs[6]
    assert len(set(qs)) == 7


def test_scheme_golden_index():
    assert R.axiom_of(20) == ax1(1, 1)
    text = print_formula(R.axiom_of(20))
    assert text == "(= (+ (S 0) (S 0)) (S (S 0)))"


def test_offdiag_skips_diagonal():
    seen = set()
    for j in range(50):
        m, n = offdiag(j)
        assert m != n
        seen.add((m, n))
    assert len(seen) == 50
    assert (0, 1) in seen and (1, 0) in seen


def test_membership_matches_enumeration_dense():
    for th in (R, Q, get_theory("R2"), get_theory("T-set")):
        for i in range(200):
            phi = th.axiom_of(i)
            assert th.is_axiom(phi), (th.name, i)


def test_membership_matches_enumeration_strided():
    for i in range(200, 1001, 97):
        assert R.is_axiom(R.axiom_of(i))


def test_membership_rejects_non_axioms():
    lang = R.language
    for text in ["(= 0 0)", "(forall x (<= x x))",
                 "(= (+ 0 (S 0)) (S (S 0)))"]:
        assert not R.is_axiom(parse_formula(text, lang))


def test_axioms_are_sentences():
    for th in (R, Q, get_theory("PA-"), get_theory("TC"), get_theory("AS")):
        for i in range(60):
            assert is_sentence(th.axiom_of(i)), (th.name, i)


def test_size_exists_shape():
    lang = get_language("eq")
    for n in range(5):
        phi = size_exists(n)
        validate_formula(phi, lang)
        assert not free_variables(phi)
    assert print_formula(size_exists(0)) == "false"
    assert "(E x1 x1)" in print_formula(size_exists(1))


def test_size_unique_needs_positive_size():
    from weakarith.theories import SchemeError
    with pytest.raises(SchemeError):
        size_unique(0)


def _old_class_is(owner, names, w):
    """theories._class_is as it was: two fresh Vars and a neq call per atom."""
    related = [Rel("E", (Var(owner), Var(nm))) for nm in names]
    distinct = [neq(Var(names[i]), Var(names[j]))
                for i in range(len(names)) for j in range(i + 1, len(names))]
    closure = ForAll(w, Implies(Rel("E", (Var(owner), Var(w))),
                                or_all([Eq(Var(w), Var(nm)) for nm in names])))
    body = and_all(related + distinct + [closure])
    for nm in reversed(names):
        body = Exists(nm, body)
    return body


def test_class_size_sentences_match_the_old_builder(monkeypatch):
    new_exists = [size_exists(n) for n in range(31)]
    new_unique = [size_unique(n) for n in range(1, 31)]
    monkeypatch.setattr(theories, "_class_is", _old_class_is)
    for n in range(31):
        assert size_exists(n) is new_exists[n], n
    for n in range(1, 31):
        assert size_unique(n) is new_unique[n - 1], n


def test_e_theory_axioms_match_the_old_builder(monkeypatch):
    spec = "E:finite B={1,3} C={2}"
    new = [get_theory(spec).axiom_of(i) for i in range(200)]
    monkeypatch.setattr(theories, "_class_is", _old_class_is)
    old = get_theory(spec)
    for i in range(200):
        assert old.axiom_of(i) is new[i], i


def test_u_theory_layout():
    pair = parse_pair_spec("finite A={1} B={2}")
    th = make_u_theory(pair)
    assert th.name == "U"
    # kind 1 slots carry positive facts, kind 2 negative ones
    positives = [th.axiom_of(3 * j + 1) for j in range(6)]
    negatives = [th.axiom_of(3 * j + 2) for j in range(6)]
    assert Rel("P", (numeral(1),)) in positives
    assert Not(Rel("P", (numeral(2),))) in negatives
    assert Rel("P", (numeral(2),)) not in positives


def test_u_theory_pads_exhausted_slots():
    pair = parse_pair_spec("finite A={1} B={2}")
    th = make_u_theory(pair)
    # stage 0 already lists the single left fact; later slots pad
    pads = sum(1 for j in range(20) if th.axiom_of(3 * j + 1) == PADDING)
    assert pads > 0


def test_e_theory_layout():
    pair = parse_pair_spec("finite B={2} C={3}")
    th = make_e_theory(pair)
    head = [th.axiom_of(3 * j) for j in range(5)]
    assert head[3] == size_unique(1)
    body = [th.axiom_of(3 * j + 1) for j in range(6)]
    assert size_exists(2) in body
    negs = [th.axiom_of(3 * j + 2) for j in range(6)]
    assert Not(size_exists(3)) in negs


def test_theory_id_spec_forms():
    th = get_theory("U:finite A={1} B={2}")
    assert th.name == "U:finite A={1} B={2}"
    th2 = get_theory("E:canonical")
    assert th2.language is get_language("eq")


def test_product_interleaves():
    prod = get_theory("product:PA-,R")
    pa = get_theory("PA-")
    mark = Rel("P", ())
    for i in range(12):
        phi = prod.axiom_of(i)
        assert isinstance(phi, Implies)
        if i % 2 == 0:
            assert phi.left == mark
            assert phi.right == pa.axiom_of(i // 2)
        else:
            assert phi.left == Not(mark)
            assert phi.right == R.axiom_of(i // 2)
    assert prod.is_axiom(prod.axiom_of(5))
    assert not prod.is_axiom(Eq(App("0"), App("0")))


def test_product_marker_avoids_collision():
    # the predicate theory already uses P, so the marker must move aside
    from weakarith.theories import make_product
    pair = parse_pair_spec("finite A={1} B={2}")
    u = make_u_theory(pair)
    prod = make_product(u, R)
    phi = prod.axiom_of(0)
    assert isinstance(phi, Implies)
    assert isinstance(phi.left, Rel)
    assert phi.left.name != "P"
    assert phi.left.args == ()


def test_schemes_refuse_parameters_outside_their_signature():
    for build, params in [(ax3, (2, 2)), (size_exists, (-1,)),
                          (set_extent, (-1,)), (equivalence_axiom, (3,))]:
        with pytest.raises(SchemeError):
            build(*params)
    # membership rebuilds the scheme its shape shows: ax3 refuses (2, 2),
    # and is_axiom answers no instead of raising
    assert R.is_axiom(Not(Eq(numeral(2), numeral(2)))) is False


def test_t_set_axioms_are_the_cached_extents():
    tset = get_theory("T-set")
    assert tset.axiom_of(7) is set_extent(7)
    assert tset.is_axiom(parse_formula(print_formula(set_extent(4)), tset.language))
    assert not tset.is_axiom(set_extent(3).body)


def _hand_built(n):
    t = App("0")
    for _ in range(n):
        t = App("S", (t,))
    return t


@pytest.mark.parametrize("order", [[0, 300, 7, 299, 301, 50], [300, 0, 7, 299, 301, 50]])
def test_numeral_is_the_one_chain_whatever_the_call_order(order):
    # in a fresh interpreter, so no earlier test has built the chain
    from fresh import run_python

    got = run_python("-c", (
        "from weakarith.syntax import App\n"
        "from weakarith.theories import numeral\n"
        f"for n in {order}:\n"
        "    t = App('0')\n"
        "    for _ in range(n):\n"
        "        t = App('S', (t,))\n"
        "    assert numeral(n) is t, n\n"))
    assert got.returncode == 0, got.stderr
    for n in order:
        assert numeral(n) is _hand_built(n)


def test_numerals_up_to_n_build_n_successors():
    from fresh import run_python

    got = run_python("-c", (
        "import weakarith.theories as th\n"
        "calls = []\n"
        "succ = th._succ\n"
        "th._succ = lambda t: calls.append(t) or succ(t)\n"
        "for n in range(1001):\n"
        "    th.numeral(n)\n"
        "th.ax4(1000)\n"
        "th.numeral(1000)\n"
        "print(len(calls))\n"))
    assert got.returncode == 0, got.stderr
    assert got.stdout == "1000\n"


def test_negative_numerals_are_refused():
    from weakarith.theories import SchemeError
    with pytest.raises(SchemeError):
        numeral(-1)
