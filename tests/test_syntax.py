"""Formula tree kernel: construction, traversal, substitution."""

import pytest
from hypothesis import example, given, strategies as st

from weakarith.eqdecide import WrongLanguageError, rank, relation_name_of
from weakarith.syntax import (
    FALSE,
    TRUE,
    And,
    App,
    Eq,
    Exists,
    Falsum,
    ForAll,
    Implies,
    LanguageError,
    Not,
    Or,
    Rel,
    Var,
    Verum,
    all_variable_names,
    and_all,
    classify_formula,
    formula_size,
    free_variables,
    fresh_variant,
    is_sentence,
    or_all,
    substitute,
    substitute_many,
    subterms,
    symbols_of,
    term_variables,
    validate_formula,
    walk,
)
from weakarith.theories import get_language, numeral

LANG = get_language("R")

x, y, z = Var("x"), Var("y"), Var("z")
zero = App("0")


def s(t):
    return App("S", (t,))


def test_terms_are_hashable_values():
    assert App("+", (x, zero)) == App("+", (x, zero))
    assert len({s(zero), s(zero), zero}) == 2


def test_empty_folds():
    assert and_all([]) == TRUE
    assert or_all([]) == FALSE


def test_folds_are_balanced():
    parts = [Eq(Var(f"v{i}"), Var(f"v{i}")) for i in range(64)]
    phi = and_all(parts)

    def depth(f):
        if isinstance(f, And):
            return 1 + max(depth(f.left), depth(f.right))
        return 0

    assert depth(phi) == 6


def test_subterms_outermost_first():
    t = App("+", (s(zero), x))
    assert list(subterms(t)) == [t, s(zero), zero, x]


def test_term_variables():
    assert term_variables(App("+", (x, App("*", (y, zero))))) == {"x", "y"}


def test_free_variables_respect_binders():
    phi = ForAll("x", Implies(Eq(x, y), Exists("y", Eq(x, y))))
    assert free_variables(phi) == {"y"}
    assert not is_sentence(phi)
    assert is_sentence(ForAll("y", phi))


def test_all_variable_names_sees_binders():
    phi = ForAll("v", Eq(zero, zero))
    assert all_variable_names(phi) == {"v"}


def test_substitute_plain():
    phi = Eq(App("+", (x, y)), zero)
    assert substitute(phi, "x", s(zero)) == Eq(App("+", (s(zero), y)), zero)


def test_substitute_stops_at_binder():
    phi = ForAll("x", Eq(x, y))
    assert substitute(phi, "x", zero) == phi


def test_substitute_avoids_capture():
    # replacing y with x under a binder for x must rename the binder
    phi = ForAll("x", Eq(x, y))
    got = substitute(phi, "y", x)
    assert isinstance(got, ForAll)
    assert got.var != "x"
    assert got.body == Eq(Var(got.var), x)
    assert free_variables(got) == {"x"}


def test_substitute_many_is_simultaneous():
    phi = Eq(x, y)
    got = substitute_many(phi, {"x": y, "y": x})
    assert got == Eq(y, x)


def test_fresh_variant_skips_forbidden():
    assert fresh_variant("w", set()) == "w"
    assert fresh_variant("w", {"w"}) == "w1"
    assert fresh_variant("w", {"w", "w1"}) == "w2"


def test_symbols_of_split_by_kind():
    phi = And(Rel("<=", (x, zero)), Eq(s(x), App("+", (x, x))))
    rels, funs = symbols_of(phi)
    assert rels == {"<=": 2}
    assert funs == {"0": 0, "S": 1, "+": 2}


def test_symbols_of_rejects_arity_clash():
    with pytest.raises(LanguageError):
        symbols_of(And(Rel("<=", (x, zero)), Rel("<=", (x,))))


def test_formula_size_counts_nodes():
    assert formula_size(Eq(zero, zero)) == 3
    assert formula_size(Not(TRUE)) == 2


def test_validate_formula_checks_language():
    validate_formula(Eq(s(zero), zero), LANG)
    for phi, message in [
            (Rel("E", (x, x)), "unknown relation symbol 'E'"),
            (Rel("S", (x,)), "unknown relation symbol 'S'"),
            (Rel("<=", (x,)), "relation '<=' expects 2 arguments, got 1"),
            (Eq(App("f", (x,)), zero), "unknown function symbol 'f'"),
            (Eq(App("<=", (x, y)), zero), "unknown function symbol '<='"),
            (Eq(App("S", (zero, zero)), zero), "function 'S' expects 1 arguments, got 2"),
            # relations are checked before functions, whatever the order of occurrence
            (And(Eq(App("f", (x,)), zero), Rel("E", (x,))), "unknown relation symbol 'E'"),
            (And(Eq(App("S", ()), zero), Rel("<=", ())), "relation '<=' expects 2 arguments, got 0")]:
        with pytest.raises(LanguageError) as caught:
            validate_formula(phi, LANG)
        assert str(caught.value) == message


def test_lookup_takes_only_ascii_family_indices():
    prf = get_language("prf")
    assert prf.lookup("f#2").arity == 1
    assert prf.lookup("c#10").arity == 0
    # '²' and '٣' are str.isdigit() but not indices
    for token in ("f#²", "c#٣", "f#", "f#x", "f#-1"):
        assert prf.lookup(token) is None


def test_classify_formula():
    assert classify_formula(ForAll("x", Eq(x, x))) == "Pi1"
    assert classify_formula(Exists("x", Eq(x, x))) == "Sigma1"
    assert classify_formula(Eq(zero, zero)) == "Delta0"


# --- the one walk against short recursive definitions -------------------------

# Each reference below is the plain structural recursion the walk replaces.

def _ref_term_variables(t):
    match t:
        case Var(name):
            return {name}
        case App(_, args):
            return set().union(*map(_ref_term_variables, args))


def _ref_subterms(t):
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from _ref_subterms(a)


def _ref_variables(f, free):
    """Free variable names, or every variable name when free is False."""
    match f:
        case Rel(_, args):
            return set().union(*map(_ref_term_variables, args))
        case Eq(left, right):
            return _ref_term_variables(left) | _ref_term_variables(right)
        case Not(body):
            return _ref_variables(body, free)
        case And(left, right) | Or(left, right) | Implies(left, right):
            return _ref_variables(left, free) | _ref_variables(right, free)
        case ForAll(var, body) | Exists(var, body):
            inner = _ref_variables(body, free)
            return inner - {var} if free else inner | {var}
    return set()


def _ref_size(f):
    match f:
        case Var():
            return 1
        case App(_, args) | Rel(_, args):
            return 1 + sum(map(_ref_size, args))
        case Eq(left, right) | And(left, right) | Or(left, right) | Implies(left, right):
            return 1 + _ref_size(left) + _ref_size(right)
        case Not(body) | ForAll(_, body) | Exists(_, body):
            return 1 + _ref_size(body)
    return 1


def _ref_symbols(f, tables):
    """Pre-order (relation, function) arities; the first clash raises."""
    match f:
        case Rel(name, args) | App(name, args):
            table = tables[isinstance(f, App)]
            if table.setdefault(name, len(args)) != len(args):
                raise LanguageError(
                    f"symbol {name!r} used at arities {table[name]} and {len(args)}")
            for a in args:
                _ref_symbols(a, tables)
        case Eq(left, right) | And(left, right) | Or(left, right) | Implies(left, right):
            _ref_symbols(left, tables)
            _ref_symbols(right, tables)
        case Not(body) | ForAll(_, body) | Exists(_, body):
            _ref_symbols(body, tables)
    return tables


def _ref_rank(f):
    match f:
        case Not(body):
            return _ref_rank(body)
        case And(left, right) | Or(left, right) | Implies(left, right):
            return max(_ref_rank(left), _ref_rank(right))
        case ForAll(_, body) | Exists(_, body):
            return 1 + _ref_rank(body)
    return 0


def _ref_relation_names(f, names):
    """Relation names of a formula over variables only; checks as it goes."""
    match f:
        case Rel(name, args):
            if len(args) != 2:
                raise WrongLanguageError(f"relation {name!r} used at arity {len(args)}, want 2")
            names.add(name)
            if not all(isinstance(a, Var) for a in args):
                raise WrongLanguageError("terms must be plain variables")
        case Eq(left, right):
            if not (isinstance(left, Var) and isinstance(right, Var)):
                raise WrongLanguageError("terms must be plain variables")
        case Not(body) | ForAll(_, body) | Exists(_, body):
            _ref_relation_names(body, names)
        case And(left, right) | Or(left, right) | Implies(left, right):
            _ref_relation_names(left, names)
            _ref_relation_names(right, names)
    return names


def _ref_relation_name(f):
    names = _ref_relation_names(f, set())
    if len(names) > 1:
        raise WrongLanguageError(f"several relation symbols: {sorted(names)}")
    return names.pop() if names else "E"


def _ref_checked_rank(f):
    _ref_relation_name(f)
    return _ref_rank(f)


def _outcome(fn, *args):
    """A result, or the type and message of what was raised."""
    try:
        return fn(*args)
    except (LanguageError, WrongLanguageError) as exc:
        return type(exc), str(exc)


_NAMES = ("x", "y", "z")


@st.composite
def _formulas(draw, depth=5):
    """Random formulas with re-bound and shadowed variables and nested terms.

    Half of them are over E and variables alone, as rank wants. In the
    rest E is mostly binary and f mostly unary; either may appear at
    another arity, so arity clashes and wrong-language errors are drawn too.
    """
    plain_only = draw(st.booleans())

    def term(d):
        kind = draw(st.integers(0, 3 if d else 1))
        if kind == 0:
            return Var(draw(st.sampled_from(_NAMES)))
        if kind == 1:
            return App("0")
        if kind == 2:
            return App("f", tuple(term(d - 1) for _ in range(draw(st.sampled_from([1, 1, 2])))))
        return App("+", (term(d - 1), term(d - 1)))

    def argument():
        plain = plain_only or draw(st.booleans())
        return Var(draw(st.sampled_from(_NAMES))) if plain else term(2)

    def formula(d):
        kind = draw(st.integers(0, 10 if d else 2))
        if kind == 0:
            if plain_only:
                return Rel("E", (argument(), argument()))
            arity = draw(st.sampled_from([2, 2, 2, 1]))
            name = draw(st.sampled_from(["E", "E", "E", "P"]))
            return Rel(name, tuple(argument() for _ in range(arity)))
        if kind == 1:
            return Eq(argument(), argument())
        if kind == 2:
            return draw(st.sampled_from([Verum(), Falsum()]))
        if kind == 3:
            return Not(formula(d - 1))
        if kind in (4, 5, 6):
            return (And, Or, Implies)[kind - 4](formula(d - 1), formula(d - 1))
        quantifier = ForAll if kind in (7, 8) else Exists
        return quantifier(draw(st.sampled_from(_NAMES)), formula(d - 1))

    return formula(depth)


@given(_formulas())
@example(And(Rel("E", (x, y)), Exists("y", Rel("P", (y, x)))))   # several relations
@example(Or(Eq(App("f", (x,)), y), Eq(App("f", (x, zero)), y)))  # f at arities 1 and 2
@example(ForAll("x", And(Rel("E", (x,)), Rel("E", (x, x)))))     # E at arities 1 and 2
@example(Exists("x", Rel("E", (App("+", (x, zero)), x))))        # a term that is not a variable
def test_queries_match_recursive_definitions(phi):
    assert free_variables(phi) == _ref_variables(phi, free=True)
    assert all_variable_names(phi) == _ref_variables(phi, free=False)
    assert formula_size(phi) == _ref_size(phi)
    got, want = _outcome(symbols_of, phi), _outcome(_ref_symbols, phi, ({}, {}))
    assert got == want
    if isinstance(got[0], dict):
        # insertion order too: the first occurrence in pre-order comes first
        assert [list(t) for t in got] == [list(t) for t in want]
    terms = [t for t, _ in walk(phi) if isinstance(t, (Var, App))]
    for t in terms:
        assert term_variables(t) == _ref_term_variables(t)
        assert list(subterms(t)) == list(_ref_subterms(t))
    assert _outcome(relation_name_of, phi) == _outcome(_ref_relation_name, phi)
    assert _outcome(rank, phi) == _outcome(_ref_checked_rank, phi)


def test_walk_reports_binders_outside_in():
    phi = ForAll("x", And(Exists("y", Rel("E", (x, y))), Exists("x", Eq(x, zero))))
    assert [(type(node).__name__, bound) for node, bound in walk(phi)] == [
        ("ForAll", ()), ("And", ("x",)), ("Exists", ("x",)), ("Rel", ("x", "y")),
        ("Var", ("x", "y")), ("Var", ("x", "y")), ("Exists", ("x",)),
        ("Eq", ("x", "x")), ("Var", ("x", "x")), ("App", ("x", "x"))]


def test_walk_rejects_non_formulas():
    with pytest.raises(TypeError, match="not a formula: 5"):
        formula_size(And(TRUE, 5))
    with pytest.raises(TypeError, match="not a formula"):
        free_variables(Rel("E", (x, "y")))


def test_queries_reach_past_the_recursion_limit():
    phi = Eq(numeral(50000), zero)
    assert free_variables(phi) == frozenset()
    assert all_variable_names(phi) == frozenset()
    assert formula_size(phi) == 50003
    assert symbols_of(phi) == ({}, {"S": 1, "0": 0})


# --- the interned kernel ---------------------------------------------------

def _rebuild(node):
    """A fresh copy built bottom-up through the public constructors."""
    match node:
        case Var(name):
            return Var(name)
        case App(name, args):
            return App(name, tuple(_rebuild(a) for a in args))
        case Rel(name, args):
            return Rel(name, tuple(_rebuild(a) for a in args))
        case Verum() | Falsum():
            return type(node)()
        case Not(body):
            return Not(_rebuild(body))
        case ForAll(var, body) | Exists(var, body):
            return type(node)(var, _rebuild(body))
    return type(node)(_rebuild(node.left), _rebuild(node.right))


def _same_tree(a, b):
    """Structural equality by class and fields, never using the nodes' ==."""
    if type(a) is not type(b):
        return False
    match a:
        case Var(name):
            return name == b.name
        case App(name, args) | Rel(name, args):
            return (name == b.name and len(args) == len(b.args)
                    and all(_same_tree(p, q) for p, q in zip(args, b.args)))
        case Verum() | Falsum():
            return True
        case Not(body):
            return _same_tree(body, b.body)
        case ForAll(var, body) | Exists(var, body):
            return var == b.var and _same_tree(body, b.body)
    return _same_tree(a.left, b.left) and _same_tree(a.right, b.right)


def _language_of(phi):
    from weakarith.syntax import KIND_FUNCTION, KIND_RELATION, Language, Symbol

    rels, funs = symbols_of(phi)
    return Language([Symbol(n, KIND_RELATION, a) for n, a in rels.items()]
                    + [Symbol(n, KIND_FUNCTION, a) for n, a in funs.items()])


@given(_formulas())
def test_equal_formulas_are_one_object(phi):
    from weakarith.sexpr import parse_formula, print_formula

    assert _rebuild(phi) is phi
    try:
        lang = _language_of(phi)
    except LanguageError:  # a symbol at two arities has no language
        return
    assert parse_formula(print_formula(phi), lang) is phi


def test_decoded_formulas_are_one_object():
    # the codec corpus: code length doubles with every level of nesting
    from formula_corpus import build_corpus
    from weakarith.godel import godel_decode, godel_encode

    for phi in build_corpus(200, seed=5, depth=3):
        assert godel_decode(godel_encode(phi)) is phi


@given(_formulas(depth=2), _formulas(depth=2))
@example(Eq(x, zero), Eq(x, zero))
@example(Rel("E", (x, y)), Rel("E", (y, x)))
@example(ForAll("x", TRUE), Exists("x", TRUE))
def test_eq_and_hash_agree_with_structure(a, b):
    assert (a == b) == _same_tree(a, b)
    assert (a != b) == (not _same_tree(a, b))
    if _same_tree(a, b):
        assert hash(a) == hash(b)
        assert a is b


@given(_formulas())
def test_copies_and_pickles_are_the_interned_node(phi):
    import copy
    import pickle

    assert copy.deepcopy([phi, (phi,)])[1][0] is phi
    for node, _ in walk(phi):
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node


_CLASSES = (Var, App, Rel, Eq, Verum, Falsum, Not, And, Or, Implies, ForAll, Exists)


@given(_formulas(depth=3), st.data())
def test_every_node_class_keeps_its_fields(phi, data):
    """Each of the twelve classes, built over random subtrees of phi."""
    nodes = [node for node, _ in walk(phi)] + [zero]
    terms = [n for n in nodes if type(n) in (Var, App)]
    formulas = [n for n in nodes if type(n) not in (Var, App)]

    def some(pool, k):
        return tuple(data.draw(st.sampled_from(pool)) for _ in range(k))

    for cls in _CLASSES:
        name = data.draw(st.sampled_from(["x", "f", "0", "E"]))
        if cls is Var:
            fields = (name,)
        elif cls is App or cls is Rel:
            fields = (name, some(terms, data.draw(st.integers(0, 3))))
        elif cls is Eq:
            fields = some(terms, 2)
        elif cls is Verum or cls is Falsum:
            fields = ()
        elif cls is Not:
            fields = some(formulas, 1)
        elif cls is ForAll or cls is Exists:
            fields = (name, *some(formulas, 1))
        else:
            fields = some(formulas, 2)
        node = cls(*fields)
        assert type(node) is cls
        # each field reads back; nodes compare by identity, also inside a tuple
        assert tuple(getattr(node, field) for field in cls.__match_args__) == fields
        assert cls(**dict(zip(cls.__match_args__, fields))) is node
        if cls is Var or cls is App:  # ground exactly when the walk meets no variable
            assert node.ground == all(type(n) is not Var for n, _ in walk(node))
        if cls is App or cls is Rel:
            assert cls(fields[0], list(fields[1])) is node
        with pytest.raises(TypeError):
            cls(*fields, x)
        if fields:  # args defaults to (), so an application needs its name alone
            with pytest.raises(TypeError):
                cls(*fields[:-2 if cls is App or cls is Rel else -1])


def test_reduce_rebuilds_through_the_constructor():
    t = App("+", (x, s(zero)))
    ctor, fields = t.__reduce__()
    assert ctor is App and fields == ("+", (x, s(zero)))
    assert ctor(*fields) is t
    assert TRUE.__reduce__() == (Verum, ())


@pytest.mark.parametrize("node, field", [
    (x, "name"), (zero, "name"), (s(zero), "args"), (s(x), "ground"),
    (Rel("E", (x, y)), "args"), (Eq(x, y), "left"), (Not(TRUE), "body"),
    (And(TRUE, FALSE), "right"), (Or(TRUE, FALSE), "left"),
    (Implies(TRUE, FALSE), "left"), (ForAll("x", TRUE), "var"),
    (Exists("x", TRUE), "body"), (TRUE, "name")])
def test_fields_cannot_be_assigned(node, field):
    with pytest.raises(AttributeError):
        setattr(node, field, zero)
    with pytest.raises(AttributeError):
        delattr(node, field)


def test_repr_is_the_dataclass_text():
    assert repr(s(zero)) == "App(name='S', args=(App(name='0', args=()),))"
    assert repr(ForAll("x", Not(Rel("E", (x, y))))) == (
        "ForAll(var='x', body=Not(body=Rel(name='E', args=(Var(name='x'), Var(name='y')))))")
    assert repr(Implies(TRUE, Or(FALSE, Eq(x, zero)))) == (
        "Implies(left=Verum(), right=Or(left=Falsum(), "
        "right=Eq(left=Var(name='x'), right=App(name='0', args=()))))")
    assert repr(Exists("y", And(TRUE, TRUE))) == (
        "Exists(var='y', body=And(left=Verum(), right=Verum()))")


def test_keyword_construction_and_defaults():
    assert App(name="S", args=(zero,)) is s(zero)
    assert App("0") is App("0", ()) is zero
    assert Rel("P") is Rel("P", ())
    assert App("f", [x, y]) is App("f", (x, y))
    assert Eq(left=x, right=y) is Eq(x, y)
    assert ForAll(var="x", body=TRUE) is ForAll("x", TRUE)
    assert Verum() is TRUE and Falsum() is FALSE
    assert Var(name="x") is x
    assert Rel(name="E", args=[x, y]) is Rel("E", (x, y))
    assert Not(body=FALSE) is Not(FALSE)
    assert And(left=TRUE, right=FALSE) is And(TRUE, FALSE)
    assert Or(right=TRUE, left=FALSE) is Or(FALSE, TRUE)
    assert Implies(left=FALSE, right=TRUE) is Implies(FALSE, TRUE)
    assert Exists(body=Eq(x, y), var="y") is Exists("y", Eq(x, y))


def test_a_failed_construction_records_no_node():
    from weakarith.syntax import _NODES

    before = len(_NODES)
    for _ in range(2):  # the second call must not find a half-built node
        with pytest.raises(AttributeError):
            App("f", ("y",))
    assert len(_NODES) == before


def test_ground_flag():
    assert not x.ground
    assert zero.ground and s(zero).ground and numeral(7).ground
    assert not s(x).ground
    assert not App("+", (zero, App("f", (y,)))).ground
    assert App("+", (zero, App("f", (zero,)))).ground


def test_substitute_leaves_untouched_nodes_alone():
    from weakarith.syntax import substitute_term

    ground = App("+", (numeral(30), App("f", (zero,))))
    assert substitute_term(ground, {"x": y}) is ground
    phi = ForAll("x", And(Eq(x, ground), Rel("E", (y, zero))))
    assert substitute(phi, "x", zero) is phi          # x is bound
    assert substitute(phi, "z", numeral(3)) is phi    # z does not occur
    assert substitute(phi, "y", y) is phi             # identity entry
    got = substitute(phi, "y", numeral(2))
    assert got.body.left is phi.body.left            # the part without y


def test_deep_numerals_compare_and_hash_without_recursion():
    # both raise RecursionError under structural dataclass equality and hashing
    assert numeral(50000) == numeral(50000)
    assert numeral(50000) is numeral(50000)
    assert numeral(50000) != numeral(49999)
    assert isinstance(hash(Eq(numeral(50000), zero)), int)
    assert numeral(50000).args[0] is numeral(49999)


def test_a_repeated_pass_adds_no_node():
    """The intern table is bounded by the distinct nodes a process builds."""
    from weakarith.godel import godel_decode, godel_encode
    from weakarith.proofs import search_proof
    from weakarith.syntax import _NODES
    from weakarith.theories import get_theory

    theory = get_theory("R")

    def one_pass():
        axioms = [theory.axiom_of(i) for i in range(40)]
        assert search_proof(theory, Eq(numeral(1), numeral(2)), 150) is None
        for phi in axioms[:6]:
            assert godel_decode(godel_encode(phi)) is phi

    one_pass()
    before = len(_NODES)
    one_pass()
    assert len(_NODES) == before


def test_a_repeated_pass_adds_no_memo_entry():
    """The substitution memo is bounded by the distinct outermost calls."""
    from weakarith.proofs import search_proof
    from weakarith.syntax import _NODES, _SUBSTITUTIONS
    from weakarith.theories import LANG_ORDERED_ARITH, get_theory
    from weakarith.translate import identity_translation, translate_formula

    r, q = get_theory("R"), get_theory("Q")
    identity = identity_translation(LANG_ORDERED_ARITH)

    def one_pass():
        assert search_proof(r, Eq(numeral(1), numeral(2)), 150) is None
        for i in range(7):
            phi = q.axiom_of(i)
            for k in range(4):
                substitute(phi.body, phi.var, numeral(k))
            substitute(phi.body, phi.var, s(y))  # renames the binder y in axiom 2
        translate_formula(identity, And(r.axiom_of(3), r.axiom_of(4)))

    one_pass()
    nodes, entries = len(_NODES), len(_SUBSTITUTIONS)
    one_pass()
    assert (len(_NODES), len(_SUBSTITUTIONS)) == (nodes, entries)


# --- substitution against the plain definition -----------------------------

def _ref_substitute_term(t, mapping):
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    return App(t.name, tuple(_ref_substitute_term(a, mapping) for a in t.args))


def _ref_substitute(phi, mapping):
    """Capture-avoiding substitution as first written: no short cut."""
    mapping = {v: t for v, t in mapping.items() if t != Var(v)}
    if not mapping:
        return phi
    match phi:
        case Rel(name, args):
            return Rel(name, tuple(_ref_substitute_term(a, mapping) for a in args))
        case Eq(left, right):
            return Eq(_ref_substitute_term(left, mapping), _ref_substitute_term(right, mapping))
        case Verum() | Falsum():
            return phi
        case Not(body):
            return Not(_ref_substitute(body, mapping))
        case ForAll(var, body) | Exists(var, body):
            relevant = {v: t for v, t in mapping.items()
                        if v != var and v in _ref_variables(body, free=True)}
            if not relevant:
                return phi
            incoming = set()
            for t in relevant.values():
                incoming |= _ref_term_variables(t)
            new_var = var
            if var in incoming:
                forbidden = incoming | _ref_variables(body, free=False) | set(relevant)
                new_var = fresh_variant(var, forbidden)
                body = _ref_substitute(body, {var: Var(new_var)})
            return type(phi)(new_var, _ref_substitute(body, relevant))
    return type(phi)(_ref_substitute(phi.left, mapping), _ref_substitute(phi.right, mapping))


_SUB_TERMS = st.sampled_from([
    zero, numeral(3), App("+", (numeral(2), zero)),                  # ground
    x, y, z, s(x), App("+", (y, z)), App("f", (App("+", (x, zero)),)),  # open
])


def _mixed_chain(base, depth):
    """(f (f (S (f (f (S ... base)))))): a unary chain whose heads differ."""
    for k in range(depth):
        base = App("S" if k % 3 == 0 else "f", (base,))
    return base


@given(_formulas(), st.dictionaries(st.sampled_from(_NAMES), _SUB_TERMS, max_size=3))
@example(ForAll("x", Eq(x, y)), {"y": x})
@example(Exists("y", And(Rel("E", (x, y)), ForAll("x", Eq(x, y)))), {"x": s(y)})  # a renamed binder
@example(ForAll("x", Exists("x1", Eq(App("+", (x, App("f", (App("0"),)))), y))), {"y": x, "x": zero})
@example(ForAll("y", Rel("E", (x, y))), {"x": App("+", (y, z)), "z": x})
@example(Rel("E", (x, App("f", (y,)))), {"x": x, "y": zero})         # an identity entry
@example(Eq(_mixed_chain(x, 400), App("+", (_mixed_chain(y, 3), x))),  # a deep unary chain
         {"x": s(y), "y": App("+", (x, zero))})
def test_substitute_many_matches_the_plain_definition(phi, mapping):
    """Each substitution is made twice: the second call answers from the
    memo with the first call's node. A reordered mapping gives that node
    too, and a mapping with other terms for the same variables does not
    answer from the first mapping's entry."""
    from weakarith.sexpr import print_formula

    def check(mapping):
        got = substitute_many(phi, mapping)
        assert print_formula(got) == print_formula(_ref_substitute(phi, mapping))
        assert substitute_many(phi, mapping) is got
        assert substitute_many(phi, dict(reversed(mapping.items()))) is got
        return got

    check(mapping)
    check({v: s(t) for v, t in mapping.items()})
    for var, term in mapping.items():
        want = check({var: term})
        assert substitute(phi, var, term) is want


def test_substitute_into_a_deep_chain_at_the_default_recursion_limit():
    from fresh import run_python

    got = run_python("-c", (
        "import sys\n"
        "from weakarith.syntax import App, Eq, Var, substitute\n"
        "from weakarith.theories import numeral\n"
        "assert sys.getrecursionlimit() == 1000\n"
        "x = Var('x')\n"
        "chain = x\n"
        "for _ in range(50000):\n"
        "    chain = App('S', (chain,))\n"
        "got = substitute(Eq(chain, App('S', (x,))), 'x', numeral(5))\n"
        "want = App('0')\n"
        "for _ in range(50005):\n"
        "    want = App('S', (want,))\n"
        "assert got is Eq(want, App('S', (App('S', (App('S', (App('S', (App('S', (\n"
        "    App('S', (App('0'),)),)),)),)),)),)))\n"))
    assert got.returncode == 0, got.stderr


def test_repr_of_a_deep_numeral_at_the_default_recursion_limit():
    from fresh import run_python

    got = run_python("-c", (
        "from weakarith.theories import numeral\n"
        "text = repr(numeral(20000))\n"
        "assert text == (\"App(name='S', args=(\" * 20000\n"
        "                + \"App(name='0', args=())\" + ',))' * 20000)\n"))
    assert got.returncode == 0, got.stderr
