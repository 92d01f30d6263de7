"""Translation against the closure-based version it replaced.

`translate_formula` now recurses through module-level functions that take
the translation and an iterator of fresh names as arguments. The copy below
is the translation as it was before, with nested `flatten`, `wrap` and `rec`
and a `nonlocal` counter for fresh names. On random formulas over R's
language, with w0 to w3 free and bound so that fresh names are skipped, and
with symbols outside the language and non-formulas among them, each pair must
give the identical node or raise the same exception class with the same
message.
"""

from hypothesis import example, given, settings, strategies as st

from weakarith.syntax import (FALSE, TRUE, And, App, Eq, Exists, Falsum, ForAll, Formula,
                              Implies, Not, Or, Rel, Term, Var, Verum, all_variable_names,
                              validate_formula)
from weakarith.theories import get_language
from weakarith.translate import (Translation, TranslationError, identity_translation,
                                 parse_translation, translate_formula)


# --- the translation as it was --------------------------------------------------

def old_translate_formula(translation: Translation, phi: Formula) -> Formula:
    validate_formula(phi, translation.source)
    forbidden = all_variable_names(phi) | translation.template_names
    counter = 0

    def fresh() -> str:
        nonlocal counter
        while True:
            name = f"w{counter}"
            counter += 1
            if name not in forbidden:
                return name

    def flatten(t: Term, env, bindings) -> str:
        if isinstance(t, Var):
            return env.get(t.name, t.name)
        argvars = [flatten(a, env, bindings) for a in t.args]
        out = fresh()
        bindings.append((out, t.name, argvars))
        return out

    def wrap(core: Formula, bindings) -> Formula:
        for out, fname, argvars in reversed(bindings):
            graph = translation.functions[fname].apply(
                [Var(v) for v in argvars] + [Var(out)])
            core = Exists(out, And(translation.guard(out), And(graph, core)))
        return core

    def rec(f: Formula, env) -> Formula:
        if isinstance(f, Rel):
            bindings: list = []
            argvars = [flatten(a, env, bindings) for a in f.args]
            core = translation.relations[f.name].apply([Var(v) for v in argvars])
            return wrap(core, bindings)
        if isinstance(f, Eq):
            bindings = []
            left = flatten(f.left, env, bindings)
            right = flatten(f.right, env, bindings)
            return wrap(Eq(Var(left), Var(right)), bindings)
        if isinstance(f, (Verum, Falsum)):
            return f
        if isinstance(f, Not):
            return Not(rec(f.body, env))
        if isinstance(f, (And, Or, Implies)):
            return type(f)(rec(f.left, env), rec(f.right, env))
        if isinstance(f, (ForAll, Exists)):
            inner = fresh()
            sub = dict(env)
            sub[f.var] = inner
            body = rec(f.body, sub)
            if isinstance(f, ForAll):
                return ForAll(inner, Implies(translation.guard(inner), body))
            return Exists(inner, And(translation.guard(inner), body))
        raise TranslationError(f"not a formula: {f!r}")

    return rec(phi, {})


def outcome(fn, *args):
    """The node, or the exception class and message."""
    try:
        return fn(*args)
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)


# --- translations and strategies ------------------------------------------------

IDENTITY = identity_translation(get_language("R"))
# R to R with w1 bound in the domain, the order and the successor graph, so
# that w1 is never a fresh name
BOUND_W1 = parse_translation("""\
source: R
target: R
domain: (exists w1 (<= w1 v0))
rel <=: (exists w1 (and (= (+ v0 w1) v1) (<= v0 v1)))
fun 0: (= 0 v0)
fun S: (exists w1 (and (= w1 (S v0)) (= w1 v1)))
fun +: (= (+ v0 v1) v2)
fun *: (= (* v0 v1) v2)
""")

NAMES = st.sampled_from(["w0", "w1", "w2", "w3", "x"])

terms = st.recursive(
    st.one_of(NAMES.map(Var), st.just(App("0"))),
    lambda sub: st.one_of(st.builds(lambda t: App("S", (t,)), sub),
                          st.builds(lambda a, b: App("+", (a, b)), sub, sub),
                          st.builds(lambda a, b: App("*", (a, b)), sub, sub)),
    max_leaves=4)

atoms = st.one_of(
    st.builds(lambda a, b: Rel("<=", (a, b)), terms, terms),
    st.builds(Eq, terms, terms),
    # an unknown relation, an unknown function, a wrong arity, a non-formula
    st.sampled_from([TRUE, FALSE, Rel("E", (Var("x"), Var("x"))), Eq(App("f"), Var("w1")),
                     Rel("<=", (Var("w0"),)), Var("w0")]),
)

formulas = st.recursive(
    atoms,
    lambda sub: st.one_of(sub.map(Not),
                          st.builds(And, sub, sub),
                          st.builds(Or, sub, sub),
                          st.builds(Implies, sub, sub),
                          st.builds(ForAll, NAMES, sub),
                          st.builds(Exists, NAMES, sub)),
    max_leaves=8)


@settings(max_examples=400)
@given(st.sampled_from([IDENTITY, BOUND_W1]), formulas)
# w0 and w2 free, w1 and w3 bound: fresh names start at w4
@example(BOUND_W1, ForAll("w1", Exists("w3", Rel("<=", (App("S", (Var("w0"),)),
                                                         App("+", (Var("w2"), Var("w1"))))))))
@example(IDENTITY, Eq(App("S", (App("S", (Var("w1"),)),)), Var("x")))
def test_translate_formula_matches_the_closure_version(translation, phi):
    got = outcome(translate_formula, translation, phi)
    want = outcome(old_translate_formula, translation, phi)
    if isinstance(want, tuple):  # the exception class and message
        assert got == want
    else:
        assert got is want
