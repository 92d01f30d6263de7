"""First-order syntax: languages, terms, formulas, substitution, classification.

Formulas are immutable trees. Symbol applications store the symbol name only;
arity discipline is checked against a Language by validate_formula (the parser
does the same check with source positions). Equality is a logical primitive,
not a language symbol, so every language implicitly supports (= t u).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from .errors import WorkbenchError

KIND_RELATION = "relation"
KIND_FUNCTION = "function"

# Tokens with fixed meaning in the grammar. Never legal as symbol or variable names.
RESERVED = frozenset({"not", "and", "or", "->", "forall", "exists", "true", "false", "="})


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

    arity_of returns the arity for a given index, or None when the index is
    not part of the family (an unbound-family reference).
    """

    name: str
    kind: str
    arity_of: Callable[[int], int | None]


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
        if not name or name in RESERVED or "#" in name or any(c in "() \t\n" for c in name):
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
            if fam is None or not idx_text.isdigit():
                return None
            arity = fam.arity_of(int(idx_text))
            if arity is None:
                return None
            return Symbol(token, fam.kind, arity)
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


# --- terms ---------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    name: str
    args: tuple = ()


Term = Var | App


# --- formulas ------------------------------------------------------------

@dataclass(frozen=True)
class Rel:
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Verum:
    pass


@dataclass(frozen=True)
class Falsum:
    pass


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class ForAll:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


Formula = Rel | Eq | Verum | Falsum | Not | And | Or | Implies | ForAll | Exists

TRUE = Verum()
FALSE = Falsum()

_BINARY = (And, Or, Implies)
_QUANT = (ForAll, Exists)


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


def subterms(t: Term) -> Iterator[Term]:
    """All subterms including t itself, outermost first."""
    return (node for node, _ in walk(t))


def free_variables(phi: Formula) -> frozenset[str]:
    names: set[str] = set()
    for node, bound in walk(phi):
        if type(node) is Var and node.name not in bound:
            names.add(node.name)
    return frozenset(names)


def is_sentence(phi: Formula) -> bool:
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
    rels, funs = symbols_of(phi)
    for name, arity in rels.items():
        sym = lang.lookup(name)
        if sym is None or sym.kind != KIND_RELATION:
            raise LanguageError(f"unknown relation symbol {name!r}")
        if sym.arity != arity:
            raise LanguageError(f"relation {name!r} expects {sym.arity} arguments, got {arity}")
    for name, arity in funs.items():
        sym = lang.lookup(name)
        if sym is None or sym.kind != KIND_FUNCTION:
            raise LanguageError(f"unknown function symbol {name!r}")
        if sym.arity != arity:
            raise LanguageError(f"function {name!r} expects {sym.arity} arguments, got {arity}")


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
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    return App(t.name, tuple(substitute_term(a, mapping) for a in t.args))


def substitute_many(phi: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Simultaneous capture-avoiding substitution of terms for free variables.

    Bound variables that would capture a substituted term are renamed with
    fresh_variant, so the result is deterministic.
    """
    mapping = {v: t for v, t in mapping.items() if t != Var(v)}
    if not mapping:
        return phi
    if isinstance(phi, Rel):
        return Rel(phi.name, tuple(substitute_term(a, mapping) for a in phi.args))
    if isinstance(phi, Eq):
        return Eq(substitute_term(phi.left, mapping), substitute_term(phi.right, mapping))
    if isinstance(phi, (Verum, Falsum)):
        return phi
    if isinstance(phi, Not):
        return Not(substitute_many(phi.body, mapping))
    if isinstance(phi, _BINARY):
        return type(phi)(substitute_many(phi.left, mapping),
                         substitute_many(phi.right, mapping))
    if isinstance(phi, _QUANT):
        inner = {v: t for v, t in mapping.items() if v != phi.var}
        relevant = {v: t for v, t in inner.items() if v in free_variables(phi.body)}
        if not relevant:
            return phi
        var = phi.var
        body = phi.body
        incoming = set()
        for t in relevant.values():
            incoming |= term_variables(t)
        if var in incoming:
            forbidden = set(incoming) | all_variable_names(body) | set(relevant)
            var = fresh_variant(var, forbidden)
            body = substitute_many(body, {phi.var: Var(var)})
        return type(phi)(var, substitute_many(body, relevant))
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
    if isinstance(phi, _QUANT):
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
    Sigma side. "unclassified" is reserved for shapes outside the hierarchy;
    the recursion here is total, so it does not occur in practice.
    """
    s, p = _levels(phi)
    if s == 0 and p == 0:
        return "Delta0"
    if s <= p:
        return f"Sigma{s}"
    return f"Pi{p}"
