"""Model search's signature, learned while compiling, against the old prelude.

`model_search` used to walk every axiom twice before compiling it: once with
`free_variables`, to refuse anything but sentences, and once with
`symbols_of`, to merge the arities and note which axioms read each symbol.
The compiler now learns both on its own walk and holds every arity clash
back until `signature()`. The reference below is the old prelude followed by
the search exactly as it ran after it. On lists of one to three well-typed
axioms, with clashing arities, names used both as relation and function and
free variables, both must raise the same exception class with the same
message, or give the same witness and size reports.
"""

from hypothesis import example, given, settings, strategies as st

from weakarith.modelsearch import (
    SearchOutcome,
    SizeReport,
    _compiler,
    _search_at_size,
    closed_form_count,
    model_search,
)
from weakarith.syntax import (
    And,
    App,
    Eq,
    Exists,
    ForAll,
    Implies,
    LanguageError,
    Not,
    Or,
    Rel,
    Var,
    free_variables,
    note_arity,
    symbols_of,
)


# --- the prelude as it was -------------------------------------------------------

def old_symbol_tables(axioms):
    """Merged (relation, function) arities, and per symbol the axioms reading it."""
    rels: dict[str, int] = {}
    funs: dict[str, int] = {}
    readers: dict[str, set[int]] = {}
    for j, phi in enumerate(axioms):
        for table, found in zip((rels, funs), symbols_of(phi)):
            for name, arity in found.items():
                note_arity(table, name, arity)
                readers.setdefault(name, set()).add(j)
    shared = rels.keys() & funs.keys()
    if shared:
        raise LanguageError(f"symbols used both ways: {sorted(shared)}")
    return rels, funs, readers


def old_model_search(axioms, max_size, symmetry_breaking=False):
    axioms = list(axioms)
    for phi in axioms:
        if free_variables(phi):
            raise LanguageError("model search expects sentences")
    rels, funs, readers = old_symbol_tables(axioms)
    # the search after the prelude, unchanged; signature() only sizes the
    # tables that resize() fills
    compile_check, signature, resize, funtabs, reltabs = _compiler()
    checks = [compile_check(ax) for ax in axioms]
    signature()
    reports = []
    witness = None
    for k in range(1, max_size + 1):
        resize(k)
        found, examined = _search_at_size(checks, k, funtabs, reltabs, rels, funs,
                                          readers, symmetry_breaking)
        reports.append(SizeReport(k, examined, closed_form_count(rels, funs, k)))
        if found is not None:
            witness = found
            break
    return SearchOutcome(witness, tuple(reports))


# --- random axiom lists ------------------------------------------------------------

_VARS = ("x", "y")


@st.composite
def axiom_lists(draw):
    """One to three sentences over relations P, Q and functions c, f, g, h.

    A third of the lists are valid by construction. In the others each
    occurrence of a symbol may take another arity than the list's own, h
    may also stand as a relation, and the last formula may keep its free
    variables, so that a clash in an earlier one is met before them.
    """
    valid = draw(st.integers(0, 2)) == 0
    clashes = not valid and draw(st.integers(0, 3)) > 0
    both_ways = not valid and draw(st.booleans())
    free = not valid and draw(st.booleans())
    arity = {"P": draw(st.integers(0, 2)), "Q": draw(st.integers(0, 1)),
             "c": 0, "f": 1, "g": 2, "h": draw(st.integers(0, 1))}

    def arity_of(name):
        if clashes and draw(st.booleans()):
            return draw(st.integers(0, 2))
        return arity[name]

    def term(depth):
        if depth and draw(st.booleans()):
            name = draw(st.sampled_from(["f", "g", "h"]))
            return App(name, tuple(term(depth - 1) for _ in range(arity_of(name))))
        return draw(st.sampled_from([Var(v) for v in _VARS] + [App("c")]))

    def formula(depth):
        kind = draw(st.integers(0, 6 if depth else 1))
        if kind == 0:
            name = draw(st.sampled_from(["P", "Q", "h"] if both_ways else ["P", "Q"]))
            return Rel(name, tuple(term(1) for _ in range(arity_of(name))))
        if kind == 1:
            return Eq(term(1), term(1))
        if kind == 2:
            return Not(formula(depth - 1))
        if kind in (3, 4, 5):
            return (And, Or, Implies)[kind - 3](formula(depth - 1), formula(depth - 1))
        quantifier = draw(st.sampled_from([ForAll, Exists]))
        return quantifier(draw(st.sampled_from(_VARS)), formula(depth - 1))

    axioms = []
    count = draw(st.integers(1, 3))
    for j in range(count):
        phi = formula(3)
        for v in sorted(free_variables(phi)):
            if not (free and j == count - 1):
                phi = draw(st.sampled_from([ForAll, Exists]))(v, phi)
        axioms.append(phi)
    return axioms


def _outcome(search, axioms, symmetry_breaking):
    try:
        return repr(search(axioms, 2, symmetry_breaking))
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


c, x = App("c"), Var("x")
p1, p2 = Rel("P", (c,)), Rel("P", (c, c))
q1, q2 = Rel("Q", (c,)), Rel("Q", (c, c))


@settings(max_examples=300)
@given(axiom_lists(), st.booleans())
# an axiom's own clash before its clash with an earlier axiom
@example([p1, And(p2, And(q1, q2))], False)
# a free variable in a later axiom after a clash
@example([And(q1, q2), Exists("y", Rel("P", (x,)))], False)
@example([p1, And(q2, Rel("P", (x,)))], True)
# a symbol used both ways
@example([p1, Exists("x", Eq(App("P", (x,)), x))], False)
# relations before functions, whatever the order in the axiom
@example([And(Eq(App("f", (c,)), c), p1), And(Eq(App("f", (c, c)), c), p2)], False)
def test_signature_while_compiling_matches_the_old_prelude(axioms, symmetry_breaking):
    assert _outcome(model_search, axioms, symmetry_breaking) == \
        _outcome(old_model_search, axioms, symmetry_breaking)
