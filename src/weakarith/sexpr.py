"""Interchange grammar for formulas and terms.

    formula := atom | (not f) | (and f f) | (or f f) | (-> f f)
             | (forall v f) | (exists v f) | true | false
    atom    := (= t t) | (REL t ...) | REL          (bare form for arity 0)
    term    := v | (FUN t ...) | FUN                (bare form for arity 0)

A bare identifier in term position is the nullary function of that name when
the language declares one, otherwise a variable. Family symbols are written
name#index. Canonical printing uses the bare form for nullary applications;
parse(print(phi)) == phi.
"""

from __future__ import annotations

import re
from itertools import accumulate
from operator import sub

from .errors import FormatError
from .syntax import (App, Eq, Exists, FALSE, ForAll, Formula, KIND_FUNCTION,
                     KIND_RELATION, Language, LanguageError, Not, Rel, RESERVED,
                     Term, TRUE, Var, And, Or, Implies, Verum, Falsum, note_arity)


class ParseError(FormatError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# one chunk per token: the separators before it, then a parenthesis or a
# maximal run of name characters; the chunks tile the text up to any
# trailing separators
_CHUNK = re.compile(r"[ \t\r\n]*(?:[()]|[^() \t\r\n]+)")


def _tokenize(text: str) -> tuple[list[str], list[int]]:
    """The token texts and, in a parallel list, their start offsets."""
    chunks = _CHUNK.findall(text)
    tokens = [c.lstrip(" \t\r\n") for c in chunks]
    starts = list(map(sub, accumulate(map(len, chunks)), map(len, tokens)))
    return tokens, starts


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of an offset; columns count characters."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Reader:
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


def parse_formula(text: str, lang: Language) -> Formula:
    reader = _Reader(text, lang)
    phi = reader.formula()
    reader.finish()
    return phi


def parse_term(text: str, lang: Language) -> Term:
    reader = _Reader(text, lang)
    t = reader.term()
    reader.finish()
    return t


def print_term(t: Term) -> str:
    if isinstance(t, Var) or not t.args:
        return t.name
    # an explicit stack of terms and literal tokens, joined once at the end,
    # so numerals of any depth print without recursion
    out: list[str] = []
    stack: list = [t]
    pop, push = stack.pop, stack.append
    while stack:
        item = pop()
        if type(item) is str:
            out.append(item)
        elif isinstance(item, Var) or not item.args:
            out.append(item.name)
        else:
            out.append("(" + item.name)
            push(")")
            for a in reversed(item.args):
                push(a)
                push(" ")
    return "".join(out)


def print_formula(phi: Formula) -> str:
    if isinstance(phi, Verum):
        return "true"
    if isinstance(phi, Falsum):
        return "false"
    if isinstance(phi, Rel):
        if not phi.args:
            return phi.name
        return "(" + " ".join([phi.name] + [print_term(a) for a in phi.args]) + ")"
    if isinstance(phi, Eq):
        return f"(= {print_term(phi.left)} {print_term(phi.right)})"
    if isinstance(phi, Not):
        return f"(not {print_formula(phi.body)})"
    if isinstance(phi, And):
        return f"(and {print_formula(phi.left)} {print_formula(phi.right)})"
    if isinstance(phi, Or):
        return f"(or {print_formula(phi.left)} {print_formula(phi.right)})"
    if isinstance(phi, Implies):
        return f"(-> {print_formula(phi.left)} {print_formula(phi.right)})"
    if isinstance(phi, ForAll):
        return f"(forall {phi.var} {print_formula(phi.body)})"
    if isinstance(phi, Exists):
        return f"(exists {phi.var} {print_formula(phi.body)})"
    raise TypeError(f"not a formula: {phi!r}")


def infer_language(texts) -> Language:
    """Build a Language from usage in raw formula texts.

    Heads in formula position become relations, heads in term position become
    functions, both at the applied arity. A bare identifier in term position
    becomes a nullary function when it starts with a digit, else a variable;
    a bare identifier in formula position becomes a nullary relation. Used by
    the CLI when no --lang is given.
    """
    rels: dict[str, int] = {}
    funs: dict[str, int] = {}

    def note(rd: "_Reader", table, name, arity, at):
        try:
            note_arity(table, name, arity)
        except LanguageError as exc:
            raise rd.fail(str(exc), at) from None

    def scan_arguments(rd: "_Reader") -> int:
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

    def scan_term(rd: "_Reader") -> None:
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

    def scan_formula(rd: "_Reader") -> None:
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

    from .syntax import Symbol
    dummy = Language()
    for text in texts:
        rd = _Reader(text, dummy)
        scan_formula(rd)
        rd.finish()
    # digit-led bare tokens inside scanned terms were noted as constants above
    symbols = [Symbol(n, KIND_RELATION, a) for n, a in sorted(rels.items())]
    symbols += [Symbol(n, KIND_FUNCTION, a) for n, a in sorted(funs.items())]
    return Language(symbols)
