"""Interchange grammar for formulas and terms.

    formula := atom | (not f) | (and f f) | (or f f) | (-> f f)
             | (forall v f) | (exists v f) | true | false
    atom    := (= t t) | (REL t ...) | REL          (bare form for arity 0)
    term    := v | (FUN t ...) | FUN                (bare form for arity 0)

A bare identifier in term position is the nullary function of that name when
the language declares one, otherwise a variable. Family symbols are written
name#index. Canonical printing uses the bare form for nullary applications;
parse(print(phi)) is phi.

One reader serves all three entry points and keeps open forms on an explicit
stack (Aho, Lam, Sethi & Ullman, Compilers, 2nd ed., 4.4), as the printer
does nodes, so only memory limits the depth. A form's head selects its entry
in one table of connectives or opens an application; a symbol policy gives
names their meaning. Errors come in reading order: an application's head is
checked when read (for a fixed Language, its kind too), its arity at ')'.
The reader keeps a cursor into the text and reads one token at a time
there, so each token's offset is known where it is read. A run
(h (h ... (h base))) of one function symbol that a fixed Language declares
unary, over a bare base and closed right after it, is read with one match
from the head's offset and its node taken from a per-call table of chains,
so a numeral costs neither a token nor a stack entry per S.
"""

from __future__ import annotations

import re
from operator import attrgetter

from .errors import FormatError
from .syntax import (App, Eq, Exists, FALSE, ForAll, Formula, KIND_FUNCTION,
                     KIND_RELATION, Language, LanguageError, Not, Rel, RESERVED,
                     SEPARATORS, Symbol, Term, TRUE, Var, And, Or, Implies,
                     note_arity)


class ParseError(FormatError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of an offset; columns count characters."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# --- symbol policies: each method refuses a token by raising LanguageError ------

class _Declared:
    """Names mean what a fixed Language declares."""

    def __init__(self, lang: Language):
        self.lookup = lang.lookup

    def head(self, kind: str, name: str) -> int:
        sym = self.lookup(name)
        if sym is None:
            what = "unbound family index" if "#" in name else f"unknown {kind} symbol"
            raise LanguageError(f"{what} {name!r}")
        if sym.kind != kind:
            raise LanguageError(f"{name!r} is a {sym.kind} symbol, not a {kind}")
        return sym.arity

    def close(self, kind: str, name: str, arity: int, count: int) -> None:
        if count != arity:
            raise LanguageError(f"{kind} {name!r} expects {arity} arguments, got {count}")

    def atom(self, name: str) -> Formula:
        sym = self.lookup(name)
        if sym is None:
            raise LanguageError(f"unknown relation symbol {name!r}")
        if sym.kind != KIND_RELATION:
            raise LanguageError(f"{name!r} is not a relation symbol")
        self.close(KIND_RELATION, name, sym.arity, 0)
        return Rel(name, ())

    def term(self, name: str) -> Term:
        sym = self.lookup(name)
        if sym is not None:
            if sym.kind != KIND_FUNCTION:
                raise LanguageError(f"{name!r} is a relation symbol, not a term")
            self.close(KIND_FUNCTION, name, sym.arity, 0)
            return App(name, ())
        if "#" in name:
            raise LanguageError(f"unbound family index {name!r}")
        return Var(name)

    def variable(self, name: str) -> str:
        if name == "(" or name == ")":
            raise LanguageError("expected a variable name")
        if name in RESERVED or self.lookup(name) is not None:
            raise LanguageError(f"{name!r} cannot be a bound variable")
        return name


class _Recording:
    """Names declare themselves at the arity they are used; any token can be bound."""

    def __init__(self):
        self.tables: dict[str, dict[str, int]] = {KIND_RELATION: {}, KIND_FUNCTION: {}}

    def head(self, kind: str, name: str) -> None:
        if kind == KIND_FUNCTION and name in RESERVED:
            raise LanguageError("expected a function symbol")

    def close(self, kind: str, name: str, arity: None, count: int) -> None:
        note_arity(self.tables[kind], name, count)

    def atom(self, name: str) -> Formula:
        note_arity(self.tables[KIND_RELATION], name, 0)
        return Rel(name, ())

    def term(self, name: str) -> Term:
        if name[0].isdigit():
            note_arity(self.tables[KIND_FUNCTION], name, 0)
            return App(name, ())
        return Var(name)

    def variable(self, name: str) -> str:
        return name


# --- the reader -----------------------------------------------------------------

# What the next token may be: the start of a formula, a term or a bound
# variable, an application's next argument or its ')', or a complete form's ')'
_FORMULA, _TERM, _VARIABLE, _ARGUMENT, _CLOSE = "formula", "term", "variable", "argument", "')'"

# head token of a form -> (constructor, kinds of its children, in order)
_CONNECTIVES = {
    "not": (Not, (_FORMULA,)),
    "and": (And, (_FORMULA, _FORMULA)),
    "or": (Or, (_FORMULA, _FORMULA)),
    "->": (Implies, (_FORMULA, _FORMULA)),
    "forall": (ForAll, (_VARIABLE, _FORMULA)),
    "exists": (Exists, (_VARIABLE, _FORMULA)),
    "=": (Eq, (_TERM, _TERM)),
}

_TRUTH = {"true": TRUE, "false": FALSE}

# any other head opens an application: (constructor, symbol kind, error for a parenthesis)
_RELATION = (Rel, KIND_RELATION, "expected a connective or relation symbol")
_FUNCTION = (App, KIND_FUNCTION, "expected a function symbol")

# one token: the separators before it, then (group 1) a parenthesis or a
# maximal run of name characters; the matches tile the text up to any
# trailing separators
_TOKEN = re.compile(f"[{SEPARATORS}]*([()]|[^(){SEPARATORS}]+)")

# matched at a head h: h (group 1), each further '(h' of its run, then a
# bare base (group 2) and the run of ')' after it. A name must end at a
# separator, a parenthesis or the end, so h never matches a prefix of a
# longer name. Every part after h may be empty, so the match always
# succeeds and never backtracks into h. The first alternative is the
# printer's '(h' after one space.
_SEP = f"[{SEPARATORS}]"
_ENDS = f"(?![^(){SEPARATORS}])"
_NAME = f"[^(){SEPARATORS}]+{_ENDS}"
_CHAIN = re.compile(rf"({_NAME})(?: \(\1{_ENDS}|{_SEP}*\({_SEP}*\1{_ENDS})*"
                    rf"{_SEP}*(?:({_NAME})\)*(?:{_SEP}+\)+)*)?")


def _read(text: str, want: str, policy):
    """The one node of kind want that text holds, read under policy."""

    def fail(message: str, at) -> ParseError:
        """A ParseError at a token, a match of _TOKEN, or at an offset."""
        offset = at if type(at) is int else at.start(1)
        return ParseError(message, *_position(text, offset))

    def ended() -> ParseError:
        return fail("unexpected end of input", len(text.rstrip(SEPARATORS)))

    # (head, base) -> [base, (head base), (head (head base)), ...]
    chains: dict[tuple, list] = {}
    plain_until = 0  # a head before this offset lies in a run that did not read as a chain
    # an open form: [constructor, child kinds, children, its head's token],
    # an application: [constructor, None, children, head's token, kind, head, answer]
    stack: list[list] = []
    push, pop = stack.append, stack.pop
    kind = want
    tokens = _TOKEN.finditer(text)
    try:
        while True:
            resume = 0  # where the tokens go on after a chain
            for at in tokens:
                tok = at[1]
                node = None
                if kind is _CLOSE or kind is _ARGUMENT and tok == ")":
                    if tok != ")":
                        raise fail(f"expected ')', found {tok!r}", at)
                    form = pop()
                    ctor, kinds, children = form[0], form[1], form[2]
                    if kinds is None:
                        at = form[3]
                        if len(children) != form[6]:
                            policy.close(form[4], form[5], form[6], len(children))
                        node = ctor(form[5], tuple(children))
                    else:
                        node = ctor(*children)
                elif kind is _VARIABLE:
                    node = policy.variable(tok)
                elif tok == "(":
                    at = next(tokens, None)
                    if at is None:  # the text ends at '('
                        raise ended()
                    head = at[1]
                    if kind is _FORMULA and head in _CONNECTIVES:
                        push([*_CONNECTIVES[head], [], at])
                    else:
                        ctor, symbol_kind, paren = _RELATION if kind is _FORMULA else _FUNCTION
                        if head == "(" or head == ")":
                            raise fail(paren, at)
                        answer = policy.head(symbol_kind, head)
                        # a run (head (head ... base)) of a head the policy answers unary
                        # reads in one match when each of its depth levels is closed by
                        # the ')' right after the bare base
                        if (answer == 1 and ctor is App
                                and (start := at.start(1)) >= plain_until):
                            run = _CHAIN.match(text, start)
                            base = run[2]
                            if base is None:  # the run goes on with a parenthesis
                                plain_until = run.end()
                            else:
                                inner, after = run.span(2)
                                depth = text.count("(", start, inner) + 1
                                closing = text.count(")", after, run.end())
                                if closing < depth:
                                    plain_until = inner
                                else:
                                    at = inner
                                    if base in RESERVED:
                                        raise fail(f"reserved word {base!r} in term position", at)
                                    base = policy.term(base)
                                    chain = chains.get((head, base))
                                    if chain is None:
                                        chain = chains[head, base] = [base]
                                    while len(chain) <= depth:
                                        chain.append(App(head, (chain[-1],)))
                                    node = chain[depth]
                                    if depth == 1:  # cheaper than a new cursor: skip base and ')'
                                        next(tokens)
                                        next(tokens)
                                    else:  # go on just past the depth-th ')'
                                        resume = run.end()
                                        for _ in range(closing - depth):
                                            resume = text.rfind(")", after, resume)
                                        tokens = _TOKEN.finditer(text, resume)
                        if node is None:
                            push([ctor, None, [], at, symbol_kind, head, answer])
                elif tok == ")":
                    raise fail("unexpected ')'", at)
                elif kind is not _FORMULA:
                    if tok in RESERVED:
                        raise fail(f"reserved word {tok!r} in term position", at)
                    node = policy.term(tok)
                elif tok in _TRUTH:
                    node = _TRUTH[tok]
                else:
                    node = policy.atom(tok)

                # hand a complete node to the innermost open form, or return it
                if node is not None:
                    if not stack:
                        trailing = next(tokens, None)
                        if trailing is not None:
                            raise fail(f"trailing input {trailing[1]!r}", trailing)
                        return node
                    stack[-1][2].append(node)
                kinds, count = stack[-1][1], len(stack[-1][2])
                if kinds is None:
                    kind = _ARGUMENT
                else:
                    kind = kinds[count] if count < len(kinds) else _CLOSE
                if resume:  # a chain was read: go on at the cursor past it
                    break
            else:
                raise ended()
    except LanguageError as exc:
        raise fail(str(exc), at) from None


def parse_formula(text: str, lang: Language) -> Formula:
    return _read(text, _FORMULA, _Declared(lang))


def parse_term(text: str, lang: Language) -> Term:
    return _read(text, _TERM, _Declared(lang))


def infer_language(texts) -> Language:
    """Build a Language from usage in raw formula texts; the CLI's default.

    Heads in formula and term position become relations and functions at the
    applied arity. A bare name is a nullary relation in formula position; in
    term position, a constant if it starts with a digit, else a variable.
    """
    policy = _Recording()
    for text in texts:
        _read(text, _FORMULA, policy)
    return Language([Symbol(name, kind, arity) for kind, table in policy.tables.items()
                     for name, arity in sorted(table.items())])


# --- the printer ----------------------------------------------------------------

_FORMS = {ctor: (word, attrgetter(*ctor.__match_args__)) for word, (ctor, _) in _CONNECTIVES.items()}
_FORMS[Not] = ("not", lambda phi: (phi.body,))  # attrgetter of one field gives no tuple
_CONSTANTS = {type(node): word for word, node in _TRUTH.items()}


def _print(node) -> str:
    """The canonical text of a node, built over an explicit stack of nodes and text.

    A ground chain of unary applications (h (h ... base)) is written in one
    loop, and its text, when the base is nullary, is kept for the rest of
    the call; a longer chain stops at a kept one, so numerals 0 to n,
    printed in that order, cost O(n) steps. Chains over a variable take the
    general path, which is cheaper for the short ones formulas are full of.
    """
    out: list[str] = []
    stack: list = [node]
    pop, push, emit = stack.pop, stack.append, out.append
    chains: dict = {}  # ground unary chain -> its text
    while stack:
        item = pop()
        kind = type(item)
        if kind is str:
            emit(item)
            continue
        if kind is App and item.ground and len(item.args) == 1:
            text = chains.get(item)
            if text is None:
                heads = []
                base = item
                while type(base) is App and len(base.args) == 1 and base not in chains:
                    heads.append(base.name)
                    base = base.args[0]
                prefix, closing = "(" + " (".join(heads) + " ", ")" * len(heads)
                inner = base.name if type(base) is App and not base.args else chains.get(base)
                if inner is None:  # over a compound base
                    emit(prefix)
                    push(closing)
                    push(base)
                    continue
                text = chains[item] = prefix + inner + closing
            emit(text)
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
        if not children:  # a leaf, or a nullary application in its bare form
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


def print_term(t: Term) -> str:
    return _print(t)


def print_formula(phi: Formula) -> str:
    return _print(phi)
