"""The one reader against the recursive-descent readers it replaced.

The parser copies below are the reader as it was before the explicit-stack
loop: a recursive-descent reader over the token list for parse_formula and
parse_term, and a second recursive scanner for infer_language. Both read
the token list of the tokenizer the reader had before it read tokens at a
text cursor, copied here too. On well-formed texts and on token soup both
must give the identical node, an equal Language, or the same error with
the same message.
"""

import re
from itertools import accumulate
from operator import sub

from hypothesis import example, given, settings, strategies as st

from weakarith.sexpr import (ParseError, _position, infer_language, parse_formula,
                             parse_term)
from weakarith.syntax import (App, Eq, Exists, FALSE, ForAll, Formula, KIND_FUNCTION,
                              KIND_RELATION, Language, LanguageError, Not, Rel, RESERVED,
                              SEPARATORS as SEPARATOR_CHARS, Symbol, SymbolFamily, Term, TRUE,
                              Var, And, Or, Implies, note_arity)


# --- the readers as they were ---------------------------------------------------

# one chunk per token: the separators before it, then a parenthesis or a
# maximal run of name characters; the chunks tile the text up to any
# trailing separators
_CHUNK = re.compile(f"[{SEPARATOR_CHARS}]*(?:[()]|[^(){SEPARATOR_CHARS}]+)")


def _tokenize(text: str) -> tuple[list[str], list[int]]:
    """The token texts and, in a parallel list, their start offsets."""
    chunks = _CHUNK.findall(text)
    tokens = [c.lstrip(SEPARATOR_CHARS) for c in chunks]
    starts = list(map(sub, accumulate(map(len, chunks)), map(len, tokens)))
    return tokens, starts


class _OldReader:
    """Single-pass recursive-descent reader over the token stream."""

    def __init__(self, text: str, lang: Language):
        self.text = text
        self.tokens, self.starts = _tokenize(text)
        self.pos = 0
        self.lang = lang

    def fail(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at token index at, or just past the last token."""
        if at is not None:
            offset = self.starts[at]
        elif self.tokens:
            offset = self.starts[-1] + len(self.tokens[-1])
        else:
            return ParseError(message, 1, 1)
        return ParseError(message, *_position(self.text, offset))

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise self.fail("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            raise self.fail(f"expected {text!r}, found {tok!r}", self.pos - 1)

    # -- terms --

    def term(self) -> Term:
        tok = self.next()
        if tok == "(":
            at = self.pos
            head = self.next()
            if head in ("(", ")"):
                raise self.fail("expected a function symbol", at)
            sym = self.lang.lookup(head)
            if sym is None:
                kind = "unbound family index" if "#" in head else "unknown function symbol"
                raise self.fail(f"{kind} {head!r}", at)
            if sym.kind != KIND_FUNCTION:
                raise self.fail(f"{head!r} is a relation symbol, not a function", at)
            args = self.arguments()
            if len(args) != sym.arity:
                raise self.fail(
                    f"function {head!r} expects {sym.arity} arguments, got {len(args)}", at)
            return App(head, args)
        at = self.pos - 1
        if tok == ")":
            raise self.fail("unexpected ')'", at)
        if tok in RESERVED:
            raise self.fail(f"reserved word {tok!r} in term position", at)
        sym = self.lang.lookup(tok)
        if sym is not None:
            if sym.kind != KIND_FUNCTION:
                raise self.fail(f"{tok!r} is a relation symbol, not a term", at)
            if sym.arity != 0:
                raise self.fail(f"function {tok!r} expects {sym.arity} arguments, got 0", at)
            return App(tok, ())
        if "#" in tok:
            raise self.fail(f"unbound family index {tok!r}", at)
        return Var(tok)

    def arguments(self) -> tuple:
        """Terms up to and including the closing parenthesis."""
        args = []
        while True:
            nxt = self.peek()
            if nxt is None:
                raise self.fail("unexpected end of input")
            if nxt == ")":
                self.pos += 1
                return tuple(args)
            args.append(self.term())

    # -- formulas --

    def formula(self) -> Formula:
        tok = self.next()
        if tok == "true":
            return TRUE
        if tok == "false":
            return FALSE
        if tok == ")":
            raise self.fail("unexpected ')'", self.pos - 1)
        if tok != "(":
            return self._bare_atom(tok, self.pos - 1)
        at = self.pos
        text = self.next()
        if text == "not":
            body = self.formula()
            self.expect(")")
            return Not(body)
        if text in ("and", "or", "->"):
            left = self.formula()
            right = self.formula()
            self.expect(")")
            cls = {"and": And, "or": Or, "->": Implies}[text]
            return cls(left, right)
        if text in ("forall", "exists"):
            var = self.next()
            if var in ("(", ")"):
                raise self.fail("expected a variable name", self.pos - 1)
            if var in RESERVED or self.lang.lookup(var) is not None:
                raise self.fail(f"{var!r} cannot be a bound variable", self.pos - 1)
            body = self.formula()
            self.expect(")")
            cls = ForAll if text == "forall" else Exists
            return cls(var, body)
        if text == "=":
            left = self.term()
            right = self.term()
            self.expect(")")
            return Eq(left, right)
        if text in ("(", ")"):
            raise self.fail("expected a connective or relation symbol", at)
        sym = self.lang.lookup(text)
        if sym is None:
            kind = "unbound family index" if "#" in text else "unknown relation symbol"
            raise self.fail(f"{kind} {text!r}", at)
        if sym.kind != KIND_RELATION:
            raise self.fail(f"{text!r} is a function symbol, not a relation", at)
        args = self.arguments()
        if len(args) != sym.arity:
            raise self.fail(
                f"relation {text!r} expects {sym.arity} arguments, got {len(args)}", at)
        return Rel(text, args)

    def _bare_atom(self, tok: str, at: int) -> Formula:
        sym = self.lang.lookup(tok)
        if sym is None:
            raise self.fail(f"unknown relation symbol {tok!r}", at)
        if sym.kind != KIND_RELATION:
            raise self.fail(f"{tok!r} is not a relation symbol", at)
        if sym.arity != 0:
            raise self.fail(f"relation {tok!r} expects {sym.arity} arguments, got 0", at)
        return Rel(tok, ())

    def finish(self) -> None:
        """Fail on any token left after one complete formula or term."""
        trailing = self.peek()
        if trailing is not None:
            raise self.fail(f"trailing input {trailing!r}", self.pos)


def old_parse_formula(text: str, lang: Language) -> Formula:
    reader = _OldReader(text, lang)
    phi = reader.formula()
    reader.finish()
    return phi


def old_parse_term(text: str, lang: Language) -> Term:
    reader = _OldReader(text, lang)
    t = reader.term()
    reader.finish()
    return t


def old_infer_language(texts) -> Language:
    """Build a Language from usage in raw formula texts.

    Heads in formula position become relations, heads in term position become
    functions, both at the applied arity. A bare identifier in term position
    becomes a nullary function when it starts with a digit, else a variable;
    a bare identifier in formula position becomes a nullary relation. Used by
    the CLI when no --lang is given.
    """
    rels: dict[str, int] = {}
    funs: dict[str, int] = {}

    def note(rd: "_OldReader", table, name, arity, at):
        try:
            note_arity(table, name, arity)
        except LanguageError as exc:
            raise rd.fail(str(exc), at) from None

    def scan_arguments(rd: "_OldReader") -> int:
        n = 0
        while True:
            nxt = rd.peek()
            if nxt is None:
                raise rd.fail("unexpected end of input")
            if nxt == ")":
                rd.pos += 1
                return n
            scan_term(rd)
            n += 1

    def scan_term(rd: "_OldReader") -> None:
        tok = rd.next()
        if tok == "(":
            at = rd.pos
            head = rd.next()
            if head in ("(", ")") or head in RESERVED:
                raise rd.fail("expected a function symbol", at)
            note(rd, funs, head, scan_arguments(rd), at)
        elif tok == ")":
            raise rd.fail("unexpected ')'", rd.pos - 1)
        elif tok in RESERVED:
            raise rd.fail(f"reserved word {tok!r} in term position", rd.pos - 1)
        elif tok[0].isdigit():
            note(rd, funs, tok, 0, rd.pos - 1)

    def scan_formula(rd: "_OldReader") -> None:
        tok = rd.next()
        if tok in ("true", "false"):
            return
        if tok == ")":
            raise rd.fail("unexpected ')'", rd.pos - 1)
        if tok != "(":
            note(rd, rels, tok, 0, rd.pos - 1)
            return
        at = rd.pos
        text = rd.next()
        if text == "not":
            scan_formula(rd)
            rd.expect(")")
        elif text in ("and", "or", "->"):
            scan_formula(rd)
            scan_formula(rd)
            rd.expect(")")
        elif text in ("forall", "exists"):
            rd.next()
            scan_formula(rd)
            rd.expect(")")
        elif text == "=":
            scan_term(rd)
            scan_term(rd)
            rd.expect(")")
        else:
            if text in ("(", ")"):
                raise rd.fail("expected a connective or relation symbol", at)
            note(rd, rels, text, scan_arguments(rd), at)

    dummy = Language()
    for text in texts:
        rd = _OldReader(text, dummy)
        scan_formula(rd)
        rd.finish()
    # digit-led bare tokens inside scanned terms were noted as constants above
    symbols = [Symbol(n, KIND_RELATION, a) for n, a in sorted(rels.items())]
    symbols += [Symbol(n, KIND_FUNCTION, a) for n, a in sorted(funs.items())]
    return Language(symbols)


# --- inputs ---------------------------------------------------------------------

LANG = Language(
    [Symbol("E", KIND_RELATION, 2), Symbol("P", KIND_RELATION, 1), Symbol("p", KIND_RELATION, 0),
     Symbol("0", KIND_FUNCTION, 0), Symbol("S", KIND_FUNCTION, 1),
     Symbol("+", KIND_FUNCTION, 2), Symbol("c", KIND_FUNCTION, 0)],
    [SymbolFamily("k", KIND_FUNCTION, 0), SymbolFamily("r", KIND_RELATION, 1)])

NAMES = ["x", "y", "0", "7", "c", "S", "+", "E", "P", "p", "k#1", "k#9", "r#2", "r#4",
         "q#0", "x#2", "f"]
VOCAB = ["(", ")", *sorted(RESERVED), *NAMES]
SEPARATORS = [" ", "\n", "\t", "\r\n", "  \n "]


_names = st.sampled_from(NAMES).map(lambda name: [name])
_terms = st.recursive(
    _names,
    lambda kids: st.builds(lambda head, args: ["(", head, *sum(args, []), ")"],
                           st.sampled_from(["S", "+", "k#0", "f", "E", "x", "not", "r#1"]),
                           st.lists(kids, max_size=3)),
    max_leaves=5)
_formulas = st.recursive(
    st.sampled_from(["true", "false", "p", "P", "E", "r#0", "x", "q"]).map(lambda w: [w])
    | st.builds(lambda left, right: ["(", "=", *left, *right, ")"], _terms, _terms)
    | st.builds(lambda head, args: ["(", head, *sum(args, []), ")"],
                st.sampled_from(["E", "P", "p", "r#1", "r#2", "r#5", "S", "true"]),
                st.lists(_terms, max_size=3)),
    lambda kids: st.builds(lambda body: ["(", "not", *body, ")"], kids)
    | st.builds(lambda word, left, right: ["(", word, *left, *right, ")"],
                st.sampled_from(["and", "or", "->"]), kids, kids)
    | st.builds(lambda word, var, body: ["(", word, var, *body, ")"],
                st.sampled_from(["forall", "exists"]),
                st.sampled_from(["x", "y", "c", "S", "not", "k#1", "z#3", "0", "(", ")"]), kids),
    max_leaves=6)


@st.composite
def _soup(draw, tokens):
    """A token list with one edit: cut short, or a token added, dropped or replaced."""
    tokens = list(draw(tokens))
    edit = draw(st.sampled_from(["none", "none", "cut", "add", "drop", "replace"]))
    at = draw(st.integers(0, len(tokens)))
    if edit == "cut":
        tokens = tokens[:at]
    elif edit == "add":
        tokens.insert(at, draw(st.sampled_from(VOCAB)))
    elif edit in ("drop", "replace") and at < len(tokens):
        del tokens[at]
        if edit == "replace":
            tokens.insert(at, draw(st.sampled_from(VOCAB)))
    return tokens


def _text(tokens):
    return st.lists(st.sampled_from(SEPARATORS), min_size=len(tokens) + 1,
                    max_size=len(tokens) + 1).map(
        lambda seps: "".join(sep + tok for sep, tok in zip(seps, tokens + [""])))


_texts = st.one_of(_soup(_formulas), _soup(_terms),
                   st.lists(st.sampled_from(VOCAB), max_size=10)).flatmap(_text)


def _outcome(read, *args):
    """The value read, or the error raised as (class name, message)."""
    try:
        return read(*args)
    except (ParseError, LanguageError) as exc:
        return type(exc).__name__, str(exc)


def _same(new, old):
    if isinstance(old, (Formula, Term)):
        return new is old
    return type(new) is type(old) and new == old


@settings(max_examples=600)
@given(_texts, _texts)
@example("(S 0 (bogus 0))", "(P x)")           # an argument's error before the arity's
@example("(E (S 0 0) x y)", "(P (f x) (f x y))")
@example("(forall ( (p))", "(and (E x y)\n (E x))")
@example("(r#2 k#1 (S k#4))", "(r#3 x)")
@example("(exists x#2 (= x#2 0))", "(= (not 0) 0)")
def test_reader_matches_the_recursive_readers(text, other):
    for read, old_read in ((parse_formula, old_parse_formula), (parse_term, old_parse_term)):
        new, old = _outcome(read, text, LANG), _outcome(old_read, text, LANG)
        assert _same(new, old), (read.__name__, text, new, old)
    for texts in ([text], [text, other]):
        new, old = _outcome(infer_language, texts), _outcome(old_infer_language, texts)
        assert _same(new, old), (texts, new, old)


# --- unary chains -----------------------------------------------------------------

# LANG with two more unary heads: g, and the family f#i
CHAIN_LANG = Language(
    [*LANG.symbols(), Symbol("g", KIND_FUNCTION, 1)],
    [*LANG.families(), SymbolFamily("f", KIND_FUNCTION, 1)])
CHAIN_HEADS = ["S", "g", "f#1", "f#2", "f#12"]
CHAIN_BASES = [["x"], ["y#3"], ["0"], ["c"], ["k#2"], ["(", "+", "x", "0", ")"],
               ["(", "S", "c", ")"], ["not"], ["forall"], ["="], ["E"], ["r#1"],
               ["S"], ["g"], ["f#3"], ["q#1"], ["("], [")"], []]
# separators, odd ones included; "" only where a parenthesis ends the gap
CHAIN_SEPARATORS = ["", " ", "\t", "\r\n", "  \n ", "\n\n", "\t \r\n  "]


@st.composite
def _chain_tokens(draw):
    """(h (h ... base)) with up to 60 heads, one head or mixed, and maybe
    a ')' missing or extra, on its own or inside a formula or a term."""
    depth = draw(st.integers(1, 60))
    if draw(st.booleans()):
        heads = [draw(st.sampled_from(CHAIN_HEADS))] * depth
    else:
        heads = draw(st.lists(st.sampled_from(CHAIN_HEADS + ["+"]),
                              min_size=depth, max_size=depth))
    closing = depth + draw(st.sampled_from([0, 0, 0, -1, 1, -2, 2]))
    tokens = [tok for head in heads for tok in ("(", head)]
    tokens += draw(st.sampled_from(CHAIN_BASES)) + [")"] * max(closing, 0)
    context = draw(st.sampled_from(["term", "eq", "rel", "binary", "twice"]))
    if context == "eq":
        tokens = ["(", "=", *tokens, "x", ")"]
    elif context == "rel":
        tokens = ["(", "P", *tokens, ")"]
    elif context == "binary":
        tokens = ["(", "+", *tokens, "0", ")"]
    elif context == "twice":
        tokens = ["(", "E", *tokens, *tokens, ")"]
    return tokens


@st.composite
def _chain_text(draw):
    tokens = draw(_chain_tokens())
    out = [draw(st.sampled_from(CHAIN_SEPARATORS))]
    for before, after in zip(tokens, tokens[1:] + [""]):
        sep = draw(st.sampled_from(CHAIN_SEPARATORS))
        if not sep and before not in ("(", ")") and after not in ("(", ")", ""):
            sep = " "  # two names must stay two tokens
        out += [before, sep]
    return "".join(out)


@settings(max_examples=400)
@given(_chain_text())
@example("(S (S (S 0)))")
@example("(S (S (S 0))")                   # a ')' missing
@example("(S (S (S 0))))")                 # one extra
@example("(S (g (S 0)))")                  # mixed heads
@example("(S (S (S (S 0)) x))")            # the run closes early
@example("(= (S (S x)) (S (S x)))")        # the same chain twice in one text
@example("(+ (S (S 0)) (S (S (S 0))))")    # a longer chain after a shorter one
@example("(S\n(S\t( S\r\n0 ) )\n)")
@example("(f#1)")                          # no base: f#1 is one name, not head f# and base 1
@example("(f#1 (f#1 0))")
@example("(f#1 (f#12 0))")                 # f#12 is another head, not f#1 and more
@example("(S(S(S 0)))")                    # no separators before the heads
@example("(S (SS 0))")                     # SS is another head
@example("(S (SS))")
@example("(S (S 0)\n)\n)")                 # separators inside the closing run
@example("(S (S x) y)")
@example("(E (S 0 0) (S 0))")              # inferred arities clash at the innermost head
@example("(E (S 0 0) (S\n (S 0)))")
def test_reader_matches_the_recursive_readers_on_unary_chains(text):
    for read, old_read in ((parse_formula, old_parse_formula), (parse_term, old_parse_term)):
        new, old = _outcome(read, text, CHAIN_LANG), _outcome(old_read, text, CHAIN_LANG)
        assert _same(new, old), (read.__name__, text, new, old)
    new, old = _outcome(infer_language, [text]), _outcome(old_infer_language, [text])
    assert _same(new, old), (text, new, old)


def test_a_chain_over_a_unary_symbol_fails_at_the_base():
    # the base S is itself unary, so it is read, and refused, as a term
    for text, message in (("( S S )", "1:5: function 'S' expects 1 arguments, got 0"),
                          ("( S  S )", "1:6: function 'S' expects 1 arguments, got 0")):
        for read in (parse_term, old_parse_term):
            try:
                read(text, LANG)
            except ParseError as exc:
                assert str(exc) == message
            else:
                raise AssertionError(f"{text!r} read")
