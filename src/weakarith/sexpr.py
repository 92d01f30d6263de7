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

from dataclasses import dataclass

from .errors import FormatError
from .syntax import (App, Eq, Exists, FALSE, ForAll, Formula, KIND_FUNCTION,
                     KIND_RELATION, Language, LanguageError, Not, Rel, RESERVED,
                     Term, TRUE, Var, And, Or, Implies, Verum, Falsum, note_arity)


class ParseError(FormatError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
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
            tokens.append(_Token(c, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and text[j] not in "() \t\r\n":
                j += 1
            tokens.append(_Token(text[i:j], line, col))
            col += j - i
            i = j
    return tokens


class _Reader:
    """Single-pass recursive-descent reader over the token stream."""

    def __init__(self, tokens: list[_Token], lang: Language):
        self.tokens = tokens
        self.pos = 0
        self.lang = lang

    def fail(self, message: str, tok: _Token | None = None) -> ParseError:
        if tok is None:
            if self.tokens:
                last = self.tokens[-1]
                return ParseError(message, last.line, last.col + len(last.text))
            return ParseError(message, 1, 1)
        return ParseError(message, tok.line, tok.col)

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise self.fail("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise self.fail(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    # -- terms --

    def term(self) -> Term:
        tok = self.next()
        if tok.text == "(":
            head = self.next()
            if head.text in ("(", ")"):
                raise self.fail("expected a function symbol", head)
            sym = self.lang.lookup(head.text)
            if sym is None:
                kind = "unbound family index" if "#" in head.text else "unknown function symbol"
                raise self.fail(f"{kind} {head.text!r}", head)
            if sym.kind != KIND_FUNCTION:
                raise self.fail(f"{head.text!r} is a relation symbol, not a function", head)
            args = []
            while True:
                nxt = self.peek()
                if nxt is None:
                    raise self.fail("unexpected end of input")
                if nxt.text == ")":
                    self.next()
                    break
                args.append(self.term())
            if len(args) != sym.arity:
                raise self.fail(
                    f"function {head.text!r} expects {sym.arity} arguments, got {len(args)}", head)
            return App(head.text, tuple(args))
        if tok.text == ")":
            raise self.fail("unexpected ')'", tok)
        if tok.text in RESERVED:
            raise self.fail(f"reserved word {tok.text!r} in term position", tok)
        sym = self.lang.lookup(tok.text)
        if sym is not None:
            if sym.kind != KIND_FUNCTION:
                raise self.fail(f"{tok.text!r} is a relation symbol, not a term", tok)
            if sym.arity != 0:
                raise self.fail(f"function {tok.text!r} expects {sym.arity} arguments, got 0", tok)
            return App(tok.text, ())
        if "#" in tok.text:
            raise self.fail(f"unbound family index {tok.text!r}", tok)
        return Var(tok.text)

    # -- formulas --

    def formula(self) -> Formula:
        tok = self.next()
        if tok.text == "true":
            return TRUE
        if tok.text == "false":
            return FALSE
        if tok.text == ")":
            raise self.fail("unexpected ')'", tok)
        if tok.text != "(":
            return self._bare_atom(tok)
        head = self.next()
        text = head.text
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
            if var.text in ("(", ")"):
                raise self.fail("expected a variable name", var)
            if var.text in RESERVED or self.lang.lookup(var.text) is not None:
                raise self.fail(f"{var.text!r} cannot be a bound variable", var)
            body = self.formula()
            self.expect(")")
            cls = ForAll if text == "forall" else Exists
            return cls(var.text, body)
        if text == "=":
            left = self.term()
            right = self.term()
            self.expect(")")
            return Eq(left, right)
        if text in ("(", ")"):
            raise self.fail("expected a connective or relation symbol", head)
        sym = self.lang.lookup(text)
        if sym is None:
            kind = "unbound family index" if "#" in text else "unknown relation symbol"
            raise self.fail(f"{kind} {text!r}", head)
        if sym.kind != KIND_RELATION:
            raise self.fail(f"{text!r} is a function symbol, not a relation", head)
        args = []
        while True:
            nxt = self.peek()
            if nxt is None:
                raise self.fail("unexpected end of input")
            if nxt.text == ")":
                self.next()
                break
            args.append(self.term())
        if len(args) != sym.arity:
            raise self.fail(
                f"relation {text!r} expects {sym.arity} arguments, got {len(args)}", head)
        return Rel(text, tuple(args))

    def _bare_atom(self, tok: _Token) -> Formula:
        sym = self.lang.lookup(tok.text)
        if sym is None:
            raise self.fail(f"unknown relation symbol {tok.text!r}", tok)
        if sym.kind != KIND_RELATION:
            raise self.fail(f"{tok.text!r} is not a relation symbol", tok)
        if sym.arity != 0:
            raise self.fail(f"relation {tok.text!r} expects {sym.arity} arguments, got 0", tok)
        return Rel(tok.text, ())


def parse_formula(text: str, lang: Language) -> Formula:
    reader = _Reader(_tokenize(text), lang)
    phi = reader.formula()
    trailing = reader.peek()
    if trailing is not None:
        raise reader.fail(f"trailing input {trailing.text!r}", trailing)
    return phi


def parse_term(text: str, lang: Language) -> Term:
    reader = _Reader(_tokenize(text), lang)
    t = reader.term()
    trailing = reader.peek()
    if trailing is not None:
        raise reader.fail(f"trailing input {trailing.text!r}", trailing)
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

    def note(table, name, arity, line, col):
        try:
            note_arity(table, name, arity)
        except LanguageError as exc:
            raise ParseError(str(exc), line, col) from None

    def scan_term(rd: "_Reader") -> None:
        tok = rd.next()
        if tok.text == "(":
            head = rd.next()
            if head.text in ("(", ")") or head.text in RESERVED:
                raise rd.fail("expected a function symbol", head)
            n = 0
            while True:
                nxt = rd.peek()
                if nxt is None:
                    raise rd.fail("unexpected end of input")
                if nxt.text == ")":
                    rd.next()
                    break
                scan_term(rd)
                n += 1
            note(funs, head.text, n, head.line, head.col)
        elif tok.text == ")":
            raise rd.fail("unexpected ')'", tok)
        elif tok.text in RESERVED:
            raise rd.fail(f"reserved word {tok.text!r} in term position", tok)
        elif tok.text[0].isdigit():
            note(funs, tok.text, 0, tok.line, tok.col)

    def scan_formula(rd: "_Reader") -> None:
        tok = rd.next()
        if tok.text in ("true", "false"):
            return
        if tok.text == ")":
            raise rd.fail("unexpected ')'", tok)
        if tok.text != "(":
            note(rels, tok.text, 0, tok.line, tok.col)
            return
        head = rd.next()
        text = head.text
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
                raise rd.fail("expected a connective or relation symbol", head)
            n = 0
            while True:
                nxt = rd.peek()
                if nxt is None:
                    raise rd.fail("unexpected end of input")
                if nxt.text == ")":
                    rd.next()
                    break
                scan_term(rd)
                n += 1
            note(rels, text, n, head.line, head.col)

    from .syntax import Symbol
    dummy = Language()
    for text in texts:
        rd = _Reader(_tokenize(text), dummy)
        scan_formula(rd)
        if rd.peek() is not None:
            raise rd.fail(f"trailing input {rd.peek().text!r}", rd.peek())
    # digit-led bare tokens inside scanned terms were noted as constants above
    symbols = [Symbol(n, KIND_RELATION, a) for n, a in sorted(rels.items())]
    symbols += [Symbol(n, KIND_FUNCTION, a) for n, a in sorted(funs.items())]
    return Language(symbols)
