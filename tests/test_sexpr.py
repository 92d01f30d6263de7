"""Reader and printer for the parenthesized formula format."""

import pytest
from hypothesis import given, strategies as st

from weakarith.sexpr import (
    ParseError,
    infer_language,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
)
from weakarith.syntax import (
    And,
    App,
    Eq,
    Exists,
    ForAll,
    Implies,
    Not,
    Or,
    Rel,
    TRUE,
    FALSE,
    Var,
)
from weakarith.theories import get_language

LANG = get_language("R")
LANG_EQ = get_language("eq")


def test_parse_simple_atom():
    assert parse_formula("(= 0 0)", LANG) == Eq(App("0"), App("0"))


def test_parse_nested():
    got = parse_formula("(forall x (-> (<= x 0) (= x 0)))", LANG)
    want = ForAll("x", Implies(Rel("<=", (Var("x"), App("0"))),
                               Eq(Var("x"), App("0"))))
    assert got == want


def test_parse_constants():
    assert parse_formula("true", LANG) == TRUE
    assert parse_formula("(and true false)", LANG) == And(TRUE, FALSE)


def test_multiline_whitespace():
    text = "(and true\n\t true)\n"
    assert parse_formula(text, LANG) == And(TRUE, TRUE)


def test_family_symbols_parse():
    lang = get_language("prf")
    phi = parse_formula("(exists x (= (f#0 c#3) x))", lang)
    assert isinstance(phi, Exists)
    assert phi.body == Eq(App("f#0", (App("c#3"),)), Var("x"))


@pytest.mark.parametrize("bad", [
    "",
    "(= 0 0",
    "(= 0 0))",
    "(and true)",
    "(forall 0 true)",
    "(forall x x)",
    "(= 0)",
    "(bogus 0 0)",
    "(<= 0)",
    "(not)",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_formula(bad, LANG)


def test_parse_error_carries_position():
    try:
        parse_formula("(and true\n  (= 0))", LANG)
    except ParseError as exc:
        assert exc.line == 2
        assert exc.col >= 1
    else:
        pytest.fail("expected ParseError")


def test_reserved_heads_cannot_be_symbols():
    with pytest.raises(ParseError):
        parse_formula("(forall forall true)", LANG)


def test_print_parse_golden():
    text = "(forall x (or (<= x 0) (<= 0 x)))"
    assert print_formula(parse_formula(text, LANG)) == text


def test_print_term_golden():
    assert print_term(App("+", (App("S", (App("0"),)), Var("x")))) == \
        "(+ (S 0) x)"


def test_parse_term_rejects_formula():
    with pytest.raises(ParseError):
        parse_term("(= 0 0)", LANG)


def test_infer_language_collects_symbols():
    lang = infer_language(["(and (E x y) (P 0))"])
    phi = parse_formula("(E 0 0)", lang)
    assert phi == Rel("E", (App("0"), App("0")))


# random formula trees over the arithmetic language, depth-bounded
_terms = st.recursive(
    st.sampled_from([Var("x"), Var("y"), App("0")]),
    lambda kids: st.builds(lambda t: App("S", (t,)), kids) |
    st.builds(lambda a, b: App("+", (a, b)), kids, kids),
    max_leaves=6)

_atoms = (st.builds(Eq, _terms, _terms) |
          st.builds(lambda a, b: Rel("<=", (a, b)), _terms, _terms) |
          st.just(TRUE) | st.just(FALSE))

_formulas = st.recursive(
    _atoms,
    lambda kids: st.builds(Not, kids) |
    st.builds(And, kids, kids) | st.builds(Or, kids, kids) |
    st.builds(Implies, kids, kids) |
    st.builds(ForAll, st.sampled_from(["x", "y"]), kids) |
    st.builds(Exists, st.sampled_from(["x", "y"]), kids),
    max_leaves=8)


@given(_formulas)
def test_roundtrip_property(phi):
    assert parse_formula(print_formula(phi), LANG) == phi


# --- the tokenizer ------------------------------------------------------------

def _old_tokenize(text):
    """The character-by-character tokenizer the reader used to have."""
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c in "()":
            tokens.append((c, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and text[j] not in "() \t\r\n":
                j += 1
            tokens.append((text[i:j], line, col))
            col += j - i
            i = j
    return tokens


@given(st.text(alphabet="() \t\r\n\f#abxyz0Sé", max_size=80))
def test_tokenizer_matches_the_old_one(text):
    # the reader's token pattern, matched from its cursor, and the offset of each token
    from weakarith.sexpr import _TOKEN, _position

    tokens = [(m[1], _position(text, m.start(1))) for m in _TOKEN.finditer(text)]
    assert tokens == [(t, (line, col)) for t, line, col in _old_tokenize(text)]


@pytest.mark.parametrize("text, message", [
    ("(forall x\n  (-> (<= x 0)\n      (= x", "3:11: unexpected end of input"),
    ("(and\n\t(= 0 0)\n\t(<= 0 0) (= 0 0))", "3:11: expected ')', found '('"),
    ("(= 0 0)\n  extra", "2:3: trailing input 'extra'"),
    ("(forall\n (S 0) (= 0 0))", "2:2: expected a variable name"),
    ("(not\n  (foo 0))", "2:4: unknown relation symbol 'foo'"),
    ("(<= 0\n   (S 0 0))", "2:5: function 'S' expects 1 arguments, got 2"),
    ("", "1:1: unexpected end of input"),
    ("  \n \r\n", "1:1: unexpected end of input"),
    ("(= x#2 0)", "1:4: unbound family index 'x#2'"),
    ("(exists é\r\n\t(= é (S\f 0)))", "2:8: unknown function symbol 'S\\x0c'"),
    ("(not (= 0 0)\n", "1:13: unexpected end of input"),
    ("\n\n   )", "3:4: unexpected ')'"),
    ("(or (= 0 0)\n (S 0))", "2:3: 'S' is a function symbol, not a relation"),
    ("(= (<= 0 0) 0)", "1:5: '<=' is a relation symbol, not a function"),
    ("(forall S (= 0 0))", "1:9: 'S' cannot be a bound variable"),
])
def test_formula_error_messages_are_pinned(text, message):
    with pytest.raises(ParseError) as info:
        parse_formula(text, LANG)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("(S\n 0 x", "2:5: unexpected end of input"),
    ("(S 0)\n (S 0)", "2:2: trailing input '('"),
    ("forall", "1:1: reserved word 'forall' in term position"),
])
def test_term_error_messages_are_pinned(text, message):
    with pytest.raises(ParseError) as info:
        parse_term(text, LANG)
    assert str(info.value) == message


@pytest.mark.parametrize("texts, message", [
    (["(and (P x)\n  (P x y))"], "2:4: symbol 'P' used at arities 1 and 2"),
    (["(and (P x)\n  (Q"], "2:5: unexpected end of input"),
    (["(= (f 0)\n (f 0 1))"], "2:3: symbol 'f' used at arities 1 and 2"),
    (["(P x)", "(Q x)\n)"], "2:1: trailing input ')'"),
    (["(= (not 0) 0)"], "1:5: expected a function symbol"),
])
def test_inferred_language_error_messages_are_pinned(texts, message):
    with pytest.raises(ParseError) as info:
        infer_language(texts)
    assert str(info.value) == message


# --- depth ----------------------------------------------------------------------

ROUND_TRIP = "assert parse_formula(print_formula(phi), get_language('Q')) is phi"


@pytest.mark.parametrize("build, check", [
    pytest.param(build, ROUND_TRIP, id=build) for build in (
        "Eq(numeral(50000), Var('x'))",
        "functools.reduce(lambda phi, _: Not(phi), range(30000), TRUE)",
    )
] + [
    pytest.param("Eq(numeral(50000), Var('x'))",
                 "assert infer_language([print_formula(phi)]).lookup('S').arity == 1",
                 id="infer_language on a deep numeral"),
    # a run that is no chain: read once, not again from each of its heads, which
    # takes minutes at this depth
    pytest.param("Eq(functools.reduce(lambda t, _: App('S', (t,)), range(50000),"
                 " App('+', (Var('x'), App('0')))), Var('x'))",
                 ROUND_TRIP, id="a deep S run over a compound base"),
])
def test_deep_formulas_round_trip_at_the_default_recursion_limit(build, check):
    from fresh import run_python

    got = run_python("-c", (
        "import functools\n"
        "from weakarith.sexpr import infer_language, parse_formula, print_formula\n"
        "from weakarith.syntax import App, Eq, Not, TRUE, Var\n"
        "from weakarith.theories import get_language, numeral\n"
        f"phi = {build}\n"
        f"{check}\n"), timeout=30)
    assert got.returncode == 0, got.stderr


def test_names_with_a_separator_are_not_symbol_names():
    from weakarith.syntax import KIND_RELATION, Language, LanguageError, Symbol

    for name in ("a\rb", "a b", "a\tb", "a\nb", "a(b", "a)b"):
        with pytest.raises(LanguageError):
            Language([Symbol(name, KIND_RELATION, 0)])
    # a form feed is a name character, as the tokenizer has it
    lang = Language([Symbol("a\fb", KIND_RELATION, 0)])
    assert parse_formula("(not a\fb)", lang) == Not(Rel("a\fb"))


def test_a_family_index_past_the_int_digit_limit_parses():
    # a fresh interpreter, where the limit on int digits is still in force
    from fresh import run_python

    got = run_python("-c", (
        "from weakarith.sexpr import parse_formula\n"
        "from weakarith.theories import get_language\n"
        "phi = parse_formula('(= (f#' + '9' * 5000 + ' x) x)', get_language('prf'))\n"
        "print(len(phi.left.name), phi.left.args)\n"))
    assert got.returncode == 0, got.stderr
    assert got.stdout == "5002 (Var(name='x'),)\n"
