"""Exhaustive finite model search."""

import itertools

import pytest
from hypothesis import given, strategies as st

from weakarith.modelsearch import (
    SizeReport,
    _compiler,
    closed_form_count,
    find_model,
    model_search,
)
from weakarith.sexpr import infer_language, parse_formula
from weakarith.structures import FiniteStructure, eval_formula
from weakarith.syntax import (
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
    and_all,
    free_variables,
    symbols_of,
)
from weakarith.theories import get_language

LANG_EQ = get_language("eq")


def _eq(*texts):
    return [parse_formula(t, LANG_EQ) for t in texts]


def test_closed_form_count():
    # one binary relation: 2^(k^2); one unary function adds k^k
    assert closed_form_count({"E": 2}, {}, 2) == 16
    assert closed_form_count({"E": 2}, {"f": 1}, 2) == 16 * 4
    assert closed_form_count({}, {"c": 0}, 3) == 3


def test_model_search_pins_signature_errors():
    c = App("c")
    p1, p2 = Rel("P", (c,)), Rel("P", (c, c))
    q1, q2 = Rel("Q", (c,)), Rel("Q", (c, c))
    cases = [
        # a clash within one axiom
        ([ForAll("x", And(q2, q1))], "symbol 'Q' used at arities 2 and 1"),
        # a clash with an earlier axiom
        ([p1, And(q1, p2)], "symbol 'P' used at arities 1 and 2"),
        # an axiom's own clash comes before its clash with an earlier axiom
        ([p1, And(p2, And(q1, q2))], "symbol 'Q' used at arities 1 and 2"),
        # relations before functions
        ([And(p1, Eq(App("f", (c,)), c)), And(Eq(App("f", (c, c)), c), p2)],
         "symbol 'P' used at arities 1 and 2"),
        # a symbol used both ways
        ([p1, Exists("x", Eq(App("P", (Var("x"),)), Var("x")))],
         "symbols used both ways: ['P']"),
        # a free variable in a later axiom that also has a clash
        ([p1, And(p2, Rel("Q", (Var("x"),)))], "model search expects sentences"),
    ]
    for axioms, message in cases:
        with pytest.raises(LanguageError) as err:
            model_search(axioms, 2)
        assert str(err.value) == message


def test_find_model_smallest_witness():
    axs = _eq("(exists x (exists y (not (E x y))))",
              "(forall x (E x x))")
    m = find_model(axs, 4)
    assert m is not None
    assert m.size == 2
    for phi in axs:
        assert eval_formula(m, phi)


def test_model_search_reports_counts():
    # irreflexive and total is impossible: every size exhausts its count
    axs = _eq("(forall x (not (E x x)))", "(forall x (E x x))")
    outcome = model_search(axs, 3)
    assert outcome.witness is None
    for report in outcome.reports:
        assert report.examined == report.total
        assert report.total == closed_form_count({"E": 2}, {}, report.size)


def test_model_search_requires_sentences():
    with pytest.raises(LanguageError):
        model_search(_eq("(E x x)"), 2)


def test_symmetry_breaking_preserves_answers():
    axs = _eq("(forall x (exists y (and (E x y) (not (= x y)))))")
    plain = find_model(axs, 3)
    broken = find_model(axs, 3, symmetry_breaking=True)
    assert plain is not None and broken is not None
    assert plain.size == broken.size == 2
    unsat = _eq("(forall x (not (E x x)))", "(exists x (E x x))")
    assert find_model(unsat, 3) is None
    assert find_model(unsat, 3, symmetry_breaking=True) is None


@pytest.mark.parametrize("texts", [
    ["(= (c) (c))", "(exists x (not (= x x)))"],   # false before any cell is filled
    ["(not (= (c) (c)))"],                          # false once c is filled
])
def test_symmetry_breaking_counts_the_restricted_space(texts):
    axioms = [parse_formula(t, infer_language(texts)) for t in texts]
    outcome = model_search(axioms, 3, symmetry_breaking=True)
    assert outcome.witness is None
    # c is fixed at 0, so one of the k structures of size k is examined
    assert [(r.examined, r.total) for r in outcome.reports] == \
        [(1, 1), (1, 2), (1, 3)]


def test_function_tables_are_searched():
    lang = get_language("R")
    axs = [parse_formula("(forall x (not (= (S x) x)))", lang),
           parse_formula("(= (S (S 0)) 0)", lang)]
    m = find_model(axs, 3)
    assert m is not None and m.size == 2
    assert eval_formula(m, axs[0]) and eval_formula(m, axs[1])


# --- the compiled evaluator on hand-built partial tables ----------------------

_TRUTH = (True, False, None)


def _all(values):
    """Kleene conjunction: one False decides, else one unknown leaves it open."""
    return False if False in values else None if None in values else True


def _neg(value):
    return None if value is None else not value


def _any(values):
    return _neg(_all([_neg(v) for v in values]))


def _value(phi, k, funrows, relrows):
    """phi's Kleene value at size k, with the given rows in one search's tables."""
    compile_check, signature, resize, funtabs, reltabs = _compiler()
    check = compile_check(phi)
    signature()
    resize(k)
    for tabs, rows in ((funtabs, funrows), (reltabs, relrows)):
        for name, tab in tabs.items():
            assert len(rows[name]) == len(tab)
            tab[:] = rows[name]
    return check()


@pytest.mark.parametrize("a", _TRUTH)
@pytest.mark.parametrize("b", _TRUTH)
def test_compiled_connectives_are_kleene(a, b):
    p, q = Rel("P", ()), Rel("Q", ())
    value = lambda phi: _value(phi, 1, {}, {"P": [a], "Q": [b]})
    assert value(Not(p)) is _neg(a)
    assert value(And(p, q)) is _all([a, b])
    assert value(Or(p, q)) is _any([a, b])
    assert value(Implies(p, q)) is _any([_neg(a), b])


@pytest.mark.parametrize("row", list(itertools.product(_TRUTH, repeat=3)))
def test_compiled_quantifiers_look_past_unknown_instances(row):
    # e.g. R = [None, True, False]: the second instance makes (exists x (R x)) true
    r = Rel("R", (Var("x"),))
    value = lambda phi: _value(phi, 3, {}, {"R": list(row)})
    assert value(ForAll("x", r)) is _all(row)
    assert value(Exists("x", r)) is _any(row)


@pytest.mark.parametrize("text, want", [
    ("(exists x (E (c) x))", True),                      # E(1, 0)
    ("(exists x (E x (c)))", None),                      # E(0, 1) false, E(1, 1) unknown
    ("(forall x (E (f x) x))", False),                 # f(0) unknown, E(f(1), 1) = E(0, 1)
    ("(exists x (= (f x) (c)))", None),                  # f(0) unknown, f(1) = 0 is not c
    ("(exists x (= x (f x)))", None),
    ("(forall x (forall y (-> (E x y) (= x y))))", False),   # E(1, 0)
    ("(forall x (exists y (E y x)))", None),           # x = 1: E(0, 1) false, E(1, 1) unknown
    ("(exists x (exists y (and (E x y) (not (= x y)))))", True),
])
def test_compiled_lookups_read_row_major_cells(text, want):
    # size 2: c = 1, f = [unknown, 0], E's cell for (a, b) is 2a + b
    phi = parse_formula(text, infer_language([text]))
    tables = {"c": [1], "f": [None, 0]}, {"E": [None, False, True, None]}
    assert _value(phi, 2, *tables) is want


# --- one compiled check across sizes against the per-size compiler ------------

def _compile_at_size(phi, k, funtabs, reltabs):
    """The per-size compiler the one-per-search compiler replaced: a no-argument
    closure giving the sentence's Kleene value (None = unknown) at size k."""
    env: list[int] = []

    def term(t, scope):
        if isinstance(t, Var):
            slot = scope[t.name]
            return lambda: env[slot]
        return entry(funtabs[t.name], t.args, scope)

    def entry(tab, args, scope):
        # the table cell at the arguments' row-major index
        if not args:
            return lambda: tab[0]
        parts = [term(a, scope) for a in args]
        if len(parts) == 1:
            (f,) = parts

            def unary():
                a = f()
                return None if a is None else tab[a]
            return unary
        if len(parts) == 2:
            f, g = parts

            def binary():
                a = f()
                if a is None:
                    return None
                b = g()
                return None if b is None else tab[a * k + b]
            return binary

        def nary():
            idx = 0
            for f in parts:
                v = f()
                if v is None:
                    return None
                idx = idx * k + v
            return tab[idx]
        return nary

    def formula(f, scope, depth):
        if isinstance(f, Rel):
            return entry(reltabs[f.name], f.args, scope)
        if isinstance(f, Eq):
            left, right = term(f.left, scope), term(f.right, scope)

            def eq():
                a = left()
                if a is None:
                    return None
                b = right()
                return None if b is None else a == b
            return eq
        if isinstance(f, Verum):
            return lambda: True
        if isinstance(f, Falsum):
            return lambda: False
        if isinstance(f, Not):
            body = formula(f.body, scope, depth)

            def neg():
                got = body()
                return None if got is None else not got
            return neg
        if isinstance(f, (And, Or, Implies)):
            left = formula(f.left, scope, depth)
            right = formula(f.right, scope, depth)
            # the left side at `stop` makes the value `stopped`; the right
            # side at `wins` makes it `wins`; otherwise two known sides
            # give `both`
            stop, stopped, wins, both = {And: (False, False, False, True),
                                         Or: (True, True, True, False),
                                         Implies: (False, True, True, False)}[type(f)]

            def connective():
                a = left()
                if a is stop:
                    return stopped
                b = right()
                if b is wins:
                    return wins
                return None if a is None or b is None else both
            return connective
        if isinstance(f, (ForAll, Exists)):
            # one slot per quantifier depth: a re-bound name gets a fresh
            # slot, and the outer binding's slot is left untouched
            slot = depth
            if len(env) <= slot:
                env.append(0)
            body = formula(f.body, {**scope, f.var: slot}, depth + 1)
            want = isinstance(f, Exists)
            universe = range(k)

            def quantifier():
                unknown = False
                for a in universe:
                    env[slot] = a
                    got = body()
                    if got is want:
                        return want
                    if got is None:
                        unknown = True
                return None if unknown else not want
            return quantifier
        raise LanguageError(f"not a formula: {f!r}")

    return formula(phi, {}, 0)


@st.composite
def _sentences(draw):
    """Sentences over c, unary f, binary g and relations P, Q, R of arity 1 to 3.

    Names are drawn from three, so nested quantifiers re-bind and shadow
    them; arguments are variables or deeper terms in every combination.
    """
    def term(depth):
        if depth and draw(st.booleans()):
            if draw(st.booleans()):
                return App("f", (term(depth - 1),))
            return App("g", (term(depth - 1), term(depth - 1)))
        return draw(st.sampled_from([Var(v) for v in _VARS] + [App("c")]))

    def formula(depth):
        kind = draw(st.integers(0, 8 if depth else 2))
        if kind == 0:
            name, arity = draw(st.sampled_from([("P", 1), ("Q", 2), ("R", 3)]))
            return Rel(name, tuple(term(1) for _ in range(arity)))
        if kind == 1:
            return Eq(term(1), term(1))
        if kind == 2:
            return draw(st.sampled_from([Verum(), Falsum()]))
        if kind == 3:
            return Not(formula(depth - 1))
        if kind in (4, 5, 6):
            return (And, Or, Implies)[kind - 4](formula(depth - 1), formula(depth - 1))
        quantifier = ForAll if kind == 7 else Exists
        return quantifier(draw(st.sampled_from(_VARS)), formula(depth - 1))

    phi = formula(4)
    for v in sorted(free_variables(phi)):
        phi = draw(st.sampled_from([ForAll, Exists]))(v, phi)
    return phi


@given(st.lists(_sentences(), min_size=1, max_size=2), st.data())
def test_compiled_checks_serve_every_size(sentences, data):
    compile_check, signature, resize, funtabs, reltabs = _compiler()
    checks = [compile_check(phi) for phi in sentences]
    rels, funs, _ = signature()
    for k in (1, 2, 3):
        resize(k)
        # every cell unknown, as resizing leaves them; then a random partial
        # and a random complete filling, written into the tables in place
        for partial in (None, True, False):
            if partial is not None:
                for tabs, arities, value in ((funtabs, funs, st.integers(0, k - 1)),
                                             (reltabs, rels, st.booleans())):
                    for name in sorted(arities):
                        tabs[name][:] = data.draw(st.lists(
                            st.none() | value if partial else value,
                            min_size=k ** arities[name], max_size=k ** arities[name]))
            for phi, check in zip(sentences, checks):
                want = _compile_at_size(phi, k, funtabs, reltabs)()
                assert check() is want, (k, phi)


# --- the compiled search against a naive enumeration -------------------------

def _naive_search(axioms, max_size, symmetry_breaking=False):
    """Every structure in the documented order, each checked by eval_formula."""
    rels, funs = symbols_of(and_all(axioms))
    by_arity = lambda kv: (kv[1], kv[0])
    reports = []
    for k in range(1, max_size + 1):
        layout = [(name, a, range(k)) for name, a in sorted(funs.items(), key=by_arity)]
        layout += [(name, a, (False, True)) for name, a in sorted(rels.items(), key=by_arity)]
        domains = [values for _, a, values in layout for _ in range(k ** a)]
        total = 1
        for values in domains:
            total *= len(values)
        if symmetry_breaking and funs and layout[0][1] == 0:
            domains[0] = (0,)
        examined = 0
        for cells in itertools.product(*domains):
            examined += 1
            functions, relations, at = {}, {}, 0
            for name, a, _ in layout:
                row = cells[at:at + k ** a]
                at += k ** a
                if name in funs:
                    functions[name] = tuple(row)
                else:
                    points = itertools.product(range(k), repeat=a)
                    relations[name] = frozenset(p for p, v in zip(points, row) if v)
            structure = FiniteStructure(k, functions, relations)
            if all(eval_formula(structure, phi) for phi in axioms):
                reports.append(SizeReport(k, examined, total))
                return structure, tuple(reports)
        reports.append(SizeReport(k, examined, total))
    return None, tuple(reports)


_VARS = ("x", "y", "z")


@st.composite
def _tiny_axioms(draw):
    """Sentences over c, unary f, binary g and one or two relations of arity at most 2."""
    arity = {name: draw(st.integers(0, 2))
             for name in draw(st.sampled_from([("P",), ("P", "Q")]))}

    def term(depth):
        kind = draw(st.integers(0, 2 if depth else 0))
        if kind == 1:
            return App("f", (term(depth - 1),))
        if kind == 2:
            return App("g", (term(depth - 1), term(depth - 1)))
        return draw(st.sampled_from([Var(v) for v in _VARS] + [App("c")]))

    def formula(depth):
        kind = draw(st.integers(0, 8 if depth else 1))
        if kind == 0:
            name = draw(st.sampled_from(sorted(arity)))
            return Rel(name, tuple(term(1) for _ in range(arity[name])))
        if kind == 1:
            return Eq(term(1), term(1))
        if kind == 2:
            return draw(st.sampled_from([Verum(), Falsum(), Eq(term(1), term(1))]))
        if kind == 3:
            return Not(formula(depth - 1))
        if kind in (4, 5, 6):
            return (And, Or, Implies)[kind - 4](formula(depth - 1), formula(depth - 1))
        quantifier = ForAll if kind == 7 else Exists
        return quantifier(draw(st.sampled_from(_VARS)), formula(depth - 1))

    # half the cases rule out size 1, so that larger sizes are searched
    axioms = [Exists("x", Exists("y", Not(Eq(Var("x"), Var("y")))))] \
        if draw(st.booleans()) else []
    for _ in range(draw(st.integers(1, 3))):
        phi = formula(3)
        for v in sorted(free_variables(phi)):
            phi = draw(st.sampled_from([ForAll, Exists]))(v, phi)
        axioms.append(phi)
    return axioms


def _size_cap(axioms, largest=3, most_structures=4096):
    rels, funs = symbols_of(and_all(axioms))
    size = 1
    while size < largest and closed_form_count(rels, funs, size + 1) <= most_structures:
        size += 1
    return size


@given(_tiny_axioms(), st.booleans())
def test_compiled_search_matches_naive_enumeration(axioms, symmetry_breaking):
    max_size = _size_cap(axioms)
    outcome = model_search(axioms, max_size, symmetry_breaking)
    witness, reports = _naive_search(axioms, max_size, symmetry_breaking)
    assert outcome.witness == witness
    assert outcome.reports == reports


@pytest.mark.parametrize("text", [
    "(forall x (exists y (forall x (or (R x y) (exists z (R z x))))))",
    "(exists x (forall y (exists x (and (R x y) (forall z (or (R y z) (R z x)))))))",
    "(forall x (forall x (exists y (forall z (-> (R z x) (R y z))))))",
])
def test_shadowed_and_renested_variables(text):
    # the irreflexive axiom rules out size 1, where most sentences agree
    lang = infer_language([text])
    axioms = [parse_formula("(forall w (not (R w w)))", lang), parse_formula(text, lang)]
    outcome = model_search(axioms, 3)
    assert (outcome.witness, outcome.reports) == _naive_search(axioms, 3)
