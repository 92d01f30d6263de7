"""First-order syntax: languages, terms, formulas, substitution, classification.

Formulas are immutable trees whose nodes are interned: building a node equal
to one built before returns that same object. Equal formulas are therefore the
same object, == and hash are O(1) identity operations, and numerals share one
chain. Terms carry a ground flag (no variable occurs in them), set when they
are built, and substitution returns ground terms untouched.

Symbol applications store the symbol name only; arity discipline is checked
against a Language by validate_formula (the parser does the same check with
source positions). Equality is a logical primitive, not a language symbol, so
every language implicitly supports (= t u).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import WorkbenchError

KIND_RELATION = "relation"
KIND_FUNCTION = "function"

# Tokens with fixed meaning in the grammar. Never legal as symbol or variable names.
RESERVED = frozenset({"not", "and", "or", "->", "forall", "exists", "true", "false", "="})

# The characters that separate tokens in the grammar. With the parentheses
# they end a name; every other character, \f included, can occur in one.
SEPARATORS = " \t\r\n"
_NAME_BREAKS = frozenset("()" + SEPARATORS)


def is_name_token(name: str) -> bool:
    """True when name reads back as one name token: not empty, free of
    separators and parentheses, and not a reserved word."""
    return bool(name) and name not in RESERVED and _NAME_BREAKS.isdisjoint(name)


class LanguageError(WorkbenchError):
    pass


@dataclass(frozen=True)
class Symbol:
    name: str
    kind: str
    arity: int


@dataclass(frozen=True)
class SymbolFamily:
    """Indexed symbol family, written name#index in the grammar.

    Every member has the family's one arity; any index of ASCII digits names
    a member.
    """

    name: str
    kind: str
    arity: int


class Language:
    """A finite set of base symbols plus optional indexed families."""

    def __init__(self, symbols=(), families=()):
        self._symbols: dict[str, Symbol] = {}
        self._families: dict[str, SymbolFamily] = {}
        for sym in symbols:
            self._check_name(sym.name)
            if sym.kind not in (KIND_RELATION, KIND_FUNCTION):
                raise LanguageError(f"bad symbol kind {sym.kind!r}")
            if sym.arity < 0:
                raise LanguageError(f"negative arity for {sym.name!r}")
            self._symbols[sym.name] = sym
        for fam in families:
            self._check_name(fam.name)
            if fam.name in self._symbols:
                raise LanguageError(f"family name {fam.name!r} clashes with a base symbol")
            self._families[fam.name] = fam

    def _check_name(self, name: str) -> None:
        if not is_name_token(name) or "#" in name:
            raise LanguageError(f"illegal symbol name {name!r}")
        if name in self._symbols or name in self._families:
            raise LanguageError(f"duplicate symbol name {name!r}")

    def lookup(self, token: str) -> Symbol | None:
        """Resolve a token to a Symbol, expanding family references name#index."""
        sym = self._symbols.get(token)
        if sym is not None:
            return sym
        if "#" in token:
            fam_name, _, idx_text = token.rpartition("#")
            fam = self._families.get(fam_name)
            if fam is None or not (idx_text.isascii() and idx_text.isdigit()):
                return None
            return Symbol(token, fam.kind, fam.arity)
        return None

    def symbols(self) -> tuple[Symbol, ...]:
        return tuple(self._symbols.values())

    def families(self) -> tuple[SymbolFamily, ...]:
        return tuple(self._families.values())

    def union(self, other: "Language") -> "Language":
        """Pointwise union; identical declarations merge, conflicting ones fail."""
        merged = dict(self._symbols)
        for name, sym in other._symbols.items():
            if name in merged and merged[name] != sym:
                raise LanguageError(f"conflicting declarations for {name!r}")
            merged[name] = sym
        fams = dict(self._families)
        for name, fam in other._families.items():
            if name in fams and fams[name] is not fam:
                raise LanguageError(f"conflicting family declarations for {name!r}")
            if name in merged:
                raise LanguageError(f"family name {name!r} clashes with a base symbol")
            fams[name] = fam
        return Language(merged.values(), fams.values())

    def with_symbol(self, sym: Symbol) -> "Language":
        return Language(list(self._symbols.values()) + [sym], self._families.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Language):
            return NotImplemented
        return (self._symbols == other._symbols
                and set(self._families) == set(other._families))

    def __repr__(self) -> str:
        names = ",".join(self._symbols)
        return f"Language({names})"


# --- the node kernel ----------------------------------------------------
#
# Nodes are hash-consed (Filliatre & Conchon, "Type-Safe Modular
# Hash-Consing", 2006): each constructor forms the key (class, *fields) and
# returns the node _NODES holds under it, or else the one _make builds and
# records there; _make is the only place a node is created. The hit path
# `_NODES.get(key) or _make(key)` relies on every node being true, which
# holds because no node class defines __bool__ or __len__. Children are
# interned before their parents, so one dict lookup per node suffices, and
# the default identity __eq__ and __hash__ are structural equality: O(1) and
# free of recursion at any depth. The table is a plain dict and holds every
# distinct node a process has built; a WeakValueDictionary would let unused
# nodes go, at the price of a slower, Python-level lookup on every construction.
#
# Substitution is memoized per (phi, mapping) in _SUBSTITUTIONS: its
# arguments are interned, so a key hashes and compares in O(1) per entry, and
# a hit returns the very node the call would build. Like _NODES, the memo
# lives as long as the process, with one entry per distinct outermost call.

_NODES: dict[tuple, "_Node"] = {}
_SUBSTITUTIONS: dict[tuple, "Formula"] = {}
_new = object.__new__
_set = object.__setattr__


def _make(key: tuple) -> "_Node":
    """The new node key = (class, *fields in __match_args__ order), recorded in _NODES."""
    node = _new(key[0])
    for field, value in zip(key[0].__match_args__, key[1:]):
        _set(node, field, value)
    _NODES[key] = node
    return node


class _Node:
    """Immutable, interned node; __match_args__ names its fields."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # unpickling calls the constructor, which re-interns
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    # an immutable node is its own copy; deepcopy through __reduce__ would
    # rebuild the tree recursively
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:
        """The dataclass text, Class(field=value, ...), over an explicit stack.

        The stack holds nodes, tuples, other values and literal text; a
        string value is pushed as its repr, so any string popped is text.
        Deep numerals thus meet no recursion limit.
        """
        out: list[str] = []
        stack: list = [self]
        pop, push, emit = stack.pop, stack.append, out.append
        while stack:
            item = pop()
            if type(item) is str:
                emit(item)
            elif type(item) is tuple:
                emit("(")
                push(",)" if len(item) == 1 else ")")
                for k in range(len(item) - 1, -1, -1):
                    push(repr(item[k]) if type(item[k]) is str else item[k])
                    if k:
                        push(", ")
            elif isinstance(item, _Node):
                fields = item.__match_args__
                emit(type(item).__name__ + "(")
                push(")")
                for k in range(len(fields) - 1, -1, -1):
                    value = getattr(item, fields[k])
                    push(repr(value) if type(value) is str else value)
                    push(f"{', ' if k else ''}{fields[k]}=")
            else:
                emit(repr(item))
        return "".join(out)


# --- terms ---------------------------------------------------------------

class Var(_Node):
    __slots__ = ("name",)
    __match_args__ = ("name",)
    ground = False

    def __new__(cls, name: str):
        key = (cls, name)
        return _NODES.get(key) or _make(key)


class App(_Node):
    """Function application; ground when no variable occurs in it."""

    __slots__ = ("name", "args", "ground")
    __match_args__ = ("name", "args")

    def __new__(cls, name: str, args: tuple = ()):
        if type(args) is not tuple:
            args = tuple(args)
        key = (cls, name, args)
        node = _NODES.get(key)
        if node is None:
            ground = all(a.ground for a in args)  # a non-term argument raises before _make
            node = _make(key)
            _set(node, "ground", ground)
        return node


Term = Var | App


# --- formulas ------------------------------------------------------------

class Rel(_Node):
    __slots__ = ("name", "args")
    __match_args__ = ("name", "args")

    def __new__(cls, name: str, args: tuple = ()):
        if type(args) is not tuple:
            args = tuple(args)
        key = (cls, name, args)
        return _NODES.get(key) or _make(key)


class _Nullary(_Node):
    __slots__ = ()

    def __new__(cls):
        key = (cls,)
        return _NODES.get(key) or _make(key)


class _Unary(_Node):
    __slots__ = ("body",)
    __match_args__ = ("body",)

    def __new__(cls, body: "Formula"):
        key = (cls, body)
        return _NODES.get(key) or _make(key)


class _Binary(_Node):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left, right):
        key = (cls, left, right)
        return _NODES.get(key) or _make(key)


class _Binder(_Node):
    __slots__ = ("var", "body")
    __match_args__ = ("var", "body")

    def __new__(cls, var: str, body: "Formula"):
        key = (cls, var, body)
        return _NODES.get(key) or _make(key)


class Eq(_Binary):
    __slots__ = ()


class Verum(_Nullary):
    __slots__ = ()


class Falsum(_Nullary):
    __slots__ = ()


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class ForAll(_Binder):
    __slots__ = ()


class Exists(_Binder):
    __slots__ = ()


Formula = Rel | Eq | Verum | Falsum | Not | And | Or | Implies | ForAll | Exists

TRUE = Verum()
FALSE = Falsum()


def _balanced(ctor, parts, empty):
    # balanced tree keeps nesting depth logarithmic in the chain length,
    # which long distinctness chains need; in-order traversal preserves
    # the given order
    if not parts:
        return empty
    while len(parts) > 1:
        nxt = [ctor(parts[i], parts[i + 1]) if i + 1 < len(parts) else parts[i]
               for i in range(0, len(parts), 2)]
        parts = nxt
    return parts[0]


def and_all(parts) -> Formula:
    """Balanced conjunction; empty list gives true."""
    return _balanced(And, list(parts), TRUE)


def or_all(parts) -> Formula:
    """Balanced disjunction; empty list gives false."""
    return _balanced(Or, list(parts), FALSE)


def iff(a: Formula, b: Formula) -> Formula:
    """Biconditional, expanded since the grammar has no iff connective."""
    return And(Implies(a, b), Implies(b, a))


def neq(a: Term, b: Term) -> Formula:
    return Not(Eq(a, b))


_UNBIND = object()  # stack marker: below it, the binders to restore after a body


def walk(phi) -> Iterator[tuple[Formula | Term, tuple[str, ...]]]:
    """Every formula and term node of phi, with the variables bound above it.

    Pre-order, left to right, outermost first, over an explicit stack, so
    deep numerals do not meet the recursion limit. The tuple lists the
    binders from the outside in; a quantifier binds its variable in its
    body, not at itself. Anything that is neither a formula nor a term
    raises TypeError.
    """
    stack = [phi]
    pop, push = stack.pop, stack.append
    bound: tuple[str, ...] = ()
    while stack:
        node = pop()
        kind = type(node)
        if kind is Var:
            yield node, bound
        elif kind is App or kind is Rel:
            yield node, bound
            args = node.args
            if len(args) == 1:  # numerals are chains of unary applications
                push(args[0])
            else:
                stack += args[::-1]
        elif kind is Eq or kind is And or kind is Or or kind is Implies:
            yield node, bound
            push(node.right)
            push(node.left)
        elif kind is Not:
            yield node, bound
            push(node.body)
        elif kind is ForAll or kind is Exists:
            yield node, bound
            push(bound)
            push(_UNBIND)
            bound += (node.var,)
            push(node.body)
        elif kind is Verum or kind is Falsum:
            yield node, bound
        elif node is _UNBIND:
            bound = pop()
        else:
            raise TypeError(f"not a formula: {node!r}")


def term_variables(t: Term) -> frozenset[str]:
    return frozenset(node.name for node, _ in walk(t) if type(node) is Var)


def free_variables(phi: Formula) -> frozenset[str]:
    names: set[str] = set()
    for node, bound in walk(phi):
        if type(node) is Var and node.name not in bound:
            names.add(node.name)
    return frozenset(names)


def is_sentence(phi: Formula) -> bool:
    """No free variables. Library API: no CLI verb calls it."""
    return not free_variables(phi)


def all_variable_names(phi: Formula) -> frozenset[str]:
    """Every variable name occurring in phi, free or bound."""
    names: set[str] = set()
    for node, _ in walk(phi):
        kind = type(node)
        if kind is Var:
            names.add(node.name)
        elif kind is ForAll or kind is Exists:
            names.add(node.var)
    return frozenset(names)


def formula_size(phi: Formula) -> int:
    """Node count over the formula tree, terms included."""
    return sum(1 for _ in walk(phi))


def note_arity(table: dict[str, int], name: str, arity: int) -> None:
    """Record that name is used at arity; LanguageError if table has another."""
    old = table.setdefault(name, arity)
    if old != arity:
        raise LanguageError(f"symbol {name!r} used at arities {old} and {arity}")


def symbols_of(phi: Formula) -> tuple[dict[str, int], dict[str, int]]:
    """Occurring (relation, function) symbol names mapped to their used arity.

    Raises LanguageError if one name is used at two different arities.
    """
    rels: dict[str, int] = {}
    funs: dict[str, int] = {}
    for node, _ in walk(phi):
        kind = type(node)
        if kind is App or kind is Rel:
            table = funs if kind is App else rels
            # a name already recorded at this arity needs no second look
            if table.get(node.name) != len(node.args):
                note_arity(table, node.name, len(node.args))
    return rels, funs


def validate_formula(phi: Formula, lang: Language) -> None:
    """Check that every symbol reference resolves in lang at the right arity."""
    for kind, used in zip((KIND_RELATION, KIND_FUNCTION), symbols_of(phi)):
        for name, arity in used.items():
            sym = lang.lookup(name)
            if sym is None or sym.kind != kind:
                raise LanguageError(f"unknown {kind} symbol {name!r}")
            if sym.arity != arity:
                raise LanguageError(f"{kind} {name!r} expects {sym.arity} arguments, got {arity}")


# --- substitution --------------------------------------------------------

def fresh_variant(name: str, forbidden) -> str:
    """Deterministic fresh name: first of name1, name2, ... outside forbidden."""
    if name not in forbidden:
        return name
    k = 1
    while f"{name}{k}" in forbidden:
        k += 1
    return f"{name}{k}"


def substitute_term(t: Term, mapping: Mapping[str, Term]) -> Term:
    """t with mapping's terms put for its variables; a ground t comes back as is.

    A chain of unary applications (h (h ... base)) is walked down once,
    collecting its heads, and rebuilt over the substituted base in one
    loop, so deep numerals over a variable meet no recursion limit.
    """
    if t.ground:
        return t
    heads = []
    while type(t) is App and len(t.args) == 1:  # an open chain has an open base
        heads.append(t.name)
        t = t.args[0]
    if type(t) is Var:
        t = mapping.get(t.name, t)
    else:
        t = App(t.name, tuple([substitute_term(a, mapping) for a in t.args]))
    while heads:
        t = App(heads.pop(), (t,))
    return t


def substitute_many(phi: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Simultaneous capture-avoiding substitution of terms for free variables.

    Bound variables that would capture a substituted term are renamed with
    fresh_variant, so the result is deterministic. A subformula that no
    entry touches comes back as the same object. Results are memoized per
    (phi, mapping); like the intern table, the memo lives as long as the
    process, with one entry per distinct outermost call.
    """
    key = (phi, *mapping.items())
    got = _SUBSTITUTIONS.get(key)
    if got is None:
        mapping = {v: t for v, t in mapping.items() if t != Var(v)}
        got = _SUBSTITUTIONS[key] = _substitute(phi, mapping) if mapping else phi
    return got


def _substitute(phi: Formula, mapping: dict[str, Term]) -> Formula:
    """substitute_many's core: mapping has no identity entry and is not empty."""
    kind = type(phi)
    if kind is Rel:
        return Rel(phi.name, tuple([substitute_term(a, mapping) for a in phi.args]))
    if kind is Eq:
        return Eq(substitute_term(phi.left, mapping), substitute_term(phi.right, mapping))
    if kind is Verum or kind is Falsum:
        return phi
    if kind is Not:
        return Not(_substitute(phi.body, mapping))
    if kind is And or kind is Or or kind is Implies:
        return kind(_substitute(phi.left, mapping), _substitute(phi.right, mapping))
    if kind is ForAll or kind is Exists:
        free = free_variables(phi.body)
        relevant = {v: t for v, t in mapping.items() if v != phi.var and v in free}
        if not relevant:
            return phi
        var = phi.var
        body = phi.body
        incoming = set()
        for t in relevant.values():
            if not t.ground:
                incoming |= term_variables(t)
        if var in incoming:
            forbidden = incoming | all_variable_names(body) | set(relevant)
            var = fresh_variant(var, forbidden)
            body = _substitute(body, {phi.var: Var(var)})
        return kind(var, _substitute(body, relevant))
    raise TypeError(f"not a formula: {phi!r}")


def substitute(phi: Formula, var: str, term: Term) -> Formula:
    return substitute_many(phi, {var: term})


# --- classification ------------------------------------------------------

LE = "<="  # the ordering symbol recognized in bounded-quantifier sugar


def _bounded_shape(phi: Formula):
    """Recognize forall x (x<=t -> psi) and exists x (x<=t and psi), x not free in t.

    Returns the guarded body psi, or None when the shape does not apply.
    """
    if isinstance(phi, ForAll) and isinstance(phi.body, Implies):
        guard, body = phi.body.left, phi.body.right
    elif isinstance(phi, Exists) and isinstance(phi.body, And):
        guard, body = phi.body.left, phi.body.right
    else:
        return None
    if (isinstance(guard, Rel) and guard.name == LE and len(guard.args) == 2
            and guard.args[0] == Var(phi.var)
            and phi.var not in term_variables(guard.args[1])):
        return body
    return None


def _levels(phi: Formula) -> tuple[int, int]:
    """(least Sigma level, least Pi level) containing phi, with Delta0 = level 0.

    Bounded quantifiers are transparent over Delta0 bodies only; over anything
    higher they count as ordinary quantifiers.
    """
    if isinstance(phi, (Rel, Eq, Verum, Falsum)):
        return (0, 0)
    if isinstance(phi, Not):
        s, p = _levels(phi.body)
        return (p, s)
    if isinstance(phi, Implies):
        sl, pl = _levels(phi.left)
        sr, pr = _levels(phi.right)
        return (max(pl, sr), max(sl, pr))
    if isinstance(phi, (And, Or)):
        sl, pl = _levels(phi.left)
        sr, pr = _levels(phi.right)
        return (max(sl, sr), max(pl, pr))
    if isinstance(phi, _Binder):
        body = _bounded_shape(phi)
        if body is not None and _levels(body) == (0, 0):
            return (0, 0)
        target = phi.body if body is None else body
        s, p = _levels(target)
        if isinstance(phi, Exists):
            sigma = max(s, 1)
            return (sigma, sigma + 1)
        pi = max(p, 1)
        return (pi + 1, pi)
    raise TypeError(f"not a formula: {phi!r}")


def classify_formula(phi: Formula) -> str:
    """Least class among Delta0 / Sigma n / Pi n for the formula as written.

    Ties (least Sigma level equals least Pi level, both positive) report the
    Sigma side. Library API: no CLI verb calls it, but the benchmark's
    tracer wraps it (perfbench/tracing.py)."""
    s, p = _levels(phi)
    if s == 0 and p == 0:
        return "Delta0"
    if s <= p:
        return f"Sigma{s}"
    return f"Pi{p}"
