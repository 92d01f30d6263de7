"""The printer against the explicit-stack printer it extends.

old_print below is the printer as it was before unary chains were written
in one loop and ground chains were kept for the rest of a call. Both must
give byte-identical text on every node.
"""

from operator import attrgetter

from hypothesis import given, settings, strategies as st

from weakarith.sexpr import _CONNECTIVES, _TRUTH, print_formula, print_term
from weakarith.syntax import App, Eq, ForAll, Not, Rel, Var
from weakarith.theories import ax4, ax4e, ax5, get_theory, numeral


# --- the printer as it was ------------------------------------------------------

_FORMS = {ctor: (word, attrgetter(*ctor.__match_args__)) for word, (ctor, _) in _CONNECTIVES.items()}
_FORMS[Not] = ("not", lambda phi: (phi.body,))
_CONSTANTS = {type(node): word for word, node in _TRUTH.items()}


def old_print(node) -> str:
    """The canonical text of a node, built over an explicit stack of nodes and text."""
    out: list[str] = []
    stack: list = [node]
    pop, push, emit = stack.pop, stack.append, out.append
    while stack:
        item = pop()
        kind = type(item)
        if kind is str:
            emit(item)
            continue
        if kind is App or kind is Rel:
            head, children = item.name, item.args
        elif kind in _FORMS:
            head, fields = _FORMS[kind]
            children = fields(item)
        elif kind is Var:
            head, children = item.name, ()
        elif kind in _CONSTANTS:
            head, children = _CONSTANTS[kind], ()
        else:
            raise TypeError(f"not a formula: {item!r}")
        if not children:
            emit(head)
            continue
        emit("(" + head)
        push(")")
        for child in reversed(children):
            if type(child) is Var:
                push(" " + child.name)
            elif type(child) is str:
                push(" " + child)
            else:
                push(child)
                push(" ")
    return "".join(out)


# --- inputs ---------------------------------------------------------------------

def _chain(heads, base):
    for head in reversed(heads):
        base = App(head, (base,))
    return base


def test_numeral_schemes_print_as_before():
    for n in range(81):
        for phi in (ax4(n), ax4e(n), ax5(n)):
            assert print_formula(phi) == old_print(phi), phi


def test_theory_axioms_print_as_before():
    for theory, count in ((get_theory("R"), 501), (get_theory("product:PA-,R"), 501)):
        for i in range(count):
            phi = theory.axiom_of(i)
            assert print_formula(phi) == old_print(phi), (theory.name, i)


def test_chains_over_variables_and_mixed_heads_print_as_before():
    x, zero = Var("x"), App("0")
    terms = [
        _chain(["f", "S", "f"], x),                             # (f (S (f x)))
        _chain(["S"] * 5, x),
        _chain(["S"] * 3, App("+", (_chain(["S"] * 2, zero), x))),
        _chain(["S", "g"] * 4, zero),
        App("+", (_chain(["S"] * 4, zero), _chain(["S"] * 3, zero))),  # longer first
        App("+", (_chain(["S"] * 3, zero), _chain(["S"] * 4, zero))),  # shorter first
        App("+", (_chain(["S"] * 3, x), _chain(["S"] * 3, x))),
        App("f", (_chain(["S"] * 2, zero), _chain(["S"] * 2, zero), x)),
        _chain(["S"], App("c")),
    ]
    for t in terms:
        assert print_term(t) == old_print(t), t
    phi = ForAll("x", Rel("P", tuple(terms)))
    assert print_formula(phi) == old_print(phi)
    assert print_formula(Eq(terms[1], terms[3])) == old_print(Eq(terms[1], terms[3]))


_leaves = st.sampled_from([Var("x"), Var("y"), App("0"), App("c")])
_terms = st.recursive(
    _leaves,
    lambda kids: st.builds(lambda heads, base: _chain(heads, base),
                           st.lists(st.sampled_from(["S", "f"]), min_size=1, max_size=12),
                           kids)
    | st.builds(lambda args: App("+", tuple(args)), st.lists(kids, min_size=2, max_size=3)),
    max_leaves=8)


@settings(max_examples=200)
@given(st.lists(_terms, min_size=1, max_size=4))
def test_random_terms_print_as_before(terms):
    phi = Rel("P", tuple(terms))
    assert print_formula(phi) == old_print(phi)
    for t in terms:
        assert print_term(t) == old_print(t)


def test_numeral_20000_prints_at_the_default_recursion_limit():
    from fresh import run_python

    got = run_python("-c", (
        "import sys\n"
        "from weakarith.sexpr import print_term\n"
        "from weakarith.theories import numeral\n"
        "limit = sys.getrecursionlimit()\n"
        "text = print_term(numeral(20000))\n"
        "assert sys.getrecursionlimit() == limit\n"
        "assert text == '(S ' * 20000 + '0' + ')' * 20000\n"))
    assert got.returncode == 0, got.stderr
    assert print_term(numeral(20000)) == old_print(numeral(20000))
