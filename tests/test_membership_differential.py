"""Scheme membership by rebuild against the recognizers it replaced.

A catalog theory built from schemes now takes a formula as an axiom when
rebuilding a scheme from the parameters the formula's shape shows gives that
very node. The copies below are the hand-written recognizers as they were,
each re-deriving its scheme's arithmetic or shape. On genuine axioms and on
near misses (a wrong sum or product, equal numerals, the body of a sibling
scheme, operands that are not numerals, a set extent with a binder too few
or too many), both must give the same answer for R, R0, R1, R2 and T-set.
"""

from hypothesis import example, given, settings, strategies as st

from weakarith.sexpr import parse_formula
from weakarith import syntax
from weakarith.syntax import (FALSE, LE, TRUE, And, App, Eq, Exists, ForAll, Implies, Not,
                              Or, Rel, Var, _Node)
from weakarith.theories import (ax4, ax4e, ax5, get_theory, numeral, numeral_value,
                                set_extent)


# --- the recognizers as they were ------------------------------------------------------

def _recognize_ax1(phi):
    if not (isinstance(phi, Eq) and isinstance(phi.left, App)
            and phi.left.name == "+" and len(phi.left.args) == 2):
        return False
    m = numeral_value(phi.left.args[0])
    n = numeral_value(phi.left.args[1])
    k = numeral_value(phi.right)
    return m is not None and n is not None and k == m + n


def _recognize_ax2(phi):
    if not (isinstance(phi, Eq) and isinstance(phi.left, App)
            and phi.left.name == "*" and len(phi.left.args) == 2):
        return False
    m = numeral_value(phi.left.args[0])
    n = numeral_value(phi.left.args[1])
    k = numeral_value(phi.right)
    return m is not None and n is not None and k == m * n


def _recognize_ax3(phi):
    if not (isinstance(phi, Not) and isinstance(phi.body, Eq)):
        return False
    m = numeral_value(phi.body.left)
    n = numeral_value(phi.body.right)
    return m is not None and n is not None and m != n


def _bound_of_le_atom(atom):
    if isinstance(atom, Rel) and atom.name == LE and len(atom.args) == 2:
        return numeral_value(atom.args[1])
    return None


def _recognize_ax4(phi):
    if not (isinstance(phi, ForAll) and isinstance(phi.body, Implies)):
        return False
    n = _bound_of_le_atom(phi.body.left)
    return n is not None and phi == ax4(n)


def _recognize_ax4e(phi):
    if not (isinstance(phi, ForAll) and isinstance(phi.body, And)
            and isinstance(phi.body.left, Implies)):
        return False
    n = _bound_of_le_atom(phi.body.left.left)
    return n is not None and phi == ax4e(n)


def _recognize_ax5(phi):
    if not (isinstance(phi, ForAll) and isinstance(phi.body, Or)):
        return False
    n = _bound_of_le_atom(phi.body.left)
    return n is not None and phi == ax5(n)


def _extent_size(phi):
    if not isinstance(phi, Exists):
        return None
    count = 0
    body = phi.body
    while isinstance(body, Exists):
        count += 1
        body = body.body
    return count


def _old_tset_member(phi):
    n = _extent_size(phi)
    return n is not None and phi is set_extent(n)


OLD_MEMBERS = {
    "R": (_recognize_ax1, _recognize_ax2, _recognize_ax3, _recognize_ax4, _recognize_ax5),
    "R0": (_recognize_ax1, _recognize_ax2, _recognize_ax3, _recognize_ax4),
    "R1": (_recognize_ax1, _recognize_ax2, _recognize_ax3, _recognize_ax4e),
    "R2": (_recognize_ax2, _recognize_ax3, _recognize_ax4e),
    "T-set": (_old_tset_member,),
}
THEORIES = {name: get_theory(name) for name in OLD_MEMBERS}


def _assert_same_membership(phi):
    for name, recognizers in OLD_MEMBERS.items():
        old = any(r(phi) for r in recognizers)
        assert THEORIES[name].is_axiom(phi) == old, (name, phi)


# --- near misses ------------------------------------------------------------------------

x = Var("x")
TERMS = [numeral(k) for k in range(7)] + [
    x, Var("y"), App("c"), App("+", (numeral(1), numeral(1))), App("*", (numeral(2), x))]
FORMULAS = [TRUE, FALSE, Eq(x, numeral(2)), Rel(LE, (x, numeral(3))), Rel(LE, (numeral(3), x)),
            ax4(2).body, ax4e(2).body, ax5(2).body, ax4(1).body.right, set_extent(2).body,
            set_extent(1).body.body]


def _nodes(node):
    """Every node of a formula with a way to rebuild the whole around a replacement."""
    out = [(node, lambda new: new)]
    fields = [getattr(node, f) for f in node.__match_args__]
    for k, value in enumerate(fields):
        children = value if type(value) is tuple else (value,)
        for c, child in enumerate(children):
            if not isinstance(child, _Node):
                continue
            for sub, rebuild in _nodes(child):
                def whole(new, k=k, c=c, rebuild=rebuild):
                    inner = rebuild(new)
                    if type(fields[k]) is tuple:
                        value = fields[k][:c] + (inner,) + fields[k][c + 1:]
                    else:
                        value = inner
                    return type(node)(*fields[:k], value, *fields[k + 1:])
                out.append((sub, whole))
    return out


def _is_term(node):
    return type(node) in (Var, App)


_genuine = st.builds(lambda name, i: THEORIES[name].axiom_of(i),
                     st.sampled_from(sorted(OLD_MEMBERS)), st.integers(0, 40))


@st.composite
def _near_miss(draw):
    """A genuine axiom with one node replaced, wrapped in a binder, or unwrapped."""
    phi = draw(_genuine)
    how = draw(st.sampled_from(["replace", "replace", "replace", "wrap", "unwrap", "rename"]))
    if how == "wrap":
        return Exists(draw(st.sampled_from(["w", "z", "x0"])), phi)
    if how == "unwrap":
        return phi.body if type(phi) in (ForAll, Exists, Not) else phi
    if how == "rename":
        return type(phi)("y", phi.body) if type(phi) in (ForAll, Exists) else phi
    sub, whole = draw(st.sampled_from(_nodes(phi)))
    pool = TERMS if _is_term(sub) else FORMULAS
    return whole(draw(st.sampled_from(pool)))


def _by_hand():
    """Near misses built on purpose, over small parameters."""
    for m in range(5):
        for n in range(5):
            for k in range(m * n + m + n + 2):
                for op in ("+", "*", "-"):
                    yield Eq(App(op, (numeral(m), numeral(n))), numeral(k))
            yield Not(Eq(numeral(m), numeral(n)))
            yield Not(Eq(numeral(n), numeral(m)))
            yield Eq(numeral(m), numeral(n))
        for op in ("+", "*"):
            for bad in (x, App("c"), App("S", (x,))):
                yield Eq(App(op, (bad, numeral(m))), numeral(m))
                yield Eq(App(op, (numeral(m), bad)), numeral(m))
                yield Eq(App(op, (numeral(m), numeral(m))), bad)
            yield Not(Eq(numeral(m), App("c")))
        for build in (ax4, ax4e, ax5):
            phi = build(m)
            yield phi
            yield ForAll("y", phi.body)
            yield phi.body
            yield Not(phi)
            for other in (ax4, ax4e, ax5):
                for k in range(5):
                    yield ForAll("x", type(phi.body)(phi.body.left, other(k).body.right))
                    yield ForAll("x", type(phi.body)(other(k).body.left, phi.body.right))
        yield ForAll("x", Or(Rel(LE, (numeral(m), x)), Rel(LE, (x, numeral(m)))))
        yield ForAll("x", Implies(Rel(LE, (x, App("c"))), FALSE))
        ext = set_extent(m)
        yield ext
        yield ext.body
        yield Exists("w", ext)
        yield Exists("z", ext)
        yield Exists("z", Exists(f"x{m}", ext.body))
        yield Exists("z", set_extent(m + 1).body.body)
        yield Exists("y", ext.body)


def test_membership_matches_the_recognizers_on_cases_built_by_hand():
    count = 0
    for phi in _by_hand():
        _assert_same_membership(phi)
        count += 1
    assert count > 1000


@given(st.one_of(_genuine, _near_miss()))
@settings(max_examples=200)
@example(Eq(App("+", (numeral(2), numeral(3))), numeral(6)))
@example(Not(Eq(numeral(3), numeral(3))))
def test_membership_matches_the_recognizers_on_near_misses(phi):
    _assert_same_membership(phi)


def test_a_wrong_sum_is_not_an_axiom():
    R = THEORIES["R"]
    assert R.is_axiom(parse_formula("(= (+ (S (S 0)) (S (S (S 0)))) "
                                    "(S (S (S (S (S 0))))))", R.language))
    assert not R.is_axiom(parse_formula("(= (+ (S (S 0)) (S (S (S 0)))) "
                                        "(S (S (S (S (S (S 0)))))))", R.language))


def test_a_short_wrong_product_builds_no_long_numeral():
    phi = Eq(App("*", (numeral(400), numeral(400))), numeral(0))
    before = len(syntax._NODES)
    assert not THEORIES["R"].is_axiom(phi)
    assert len(syntax._NODES) - before < 1000
