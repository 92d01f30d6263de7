"""Catalog of weak arithmetic theories as recursive axiom enumerators.

A Theory bundles a language, a total enumerator axiom_of(i), and, when the
axiom set is decidable, a literal membership test is_axiom.  Scheme-based
theories sweep (scheme, parameter) diagonally through the Cantor pairing,
so the enumerator is total and stable across runs; a formula is one of their
axioms when rebuilding a scheme from the parameters its shape shows gives
that same (interned) node, so no scheme is stated twice.  Theories built from a
staged oracle pair emit a padding tautology for slots whose membership
fact has not been enumerated yet; the padding sentence never counts as an
axiom for membership purposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

from .errors import FormatError, WorkbenchError
from .godel import unpair
from .machines import OraclePair, load_pair_spec
from .syntax import (
    KIND_FUNCTION,
    KIND_RELATION,
    LE,
    FALSE,
    And,
    App,
    Eq,
    Exists,
    ForAll,
    Formula,
    Implies,
    Language,
    Not,
    Or,
    Rel,
    Symbol,
    SymbolFamily,
    Term,
    Var,
    and_all,
    fresh_variant,
    iff,
    neq,
    or_all,
)


class SchemeError(WorkbenchError):
    """Scheme instantiated with parameters that do not fit its signature."""


class MembershipUndecidable(WorkbenchError):
    """Raised by is_axiom on theories with no decidable membership test."""


class TheoryIdError(FormatError):
    """Unrecognized theory identifier."""


# --- term helpers ---------------------------------------------------------

ZERO = App("0")


def _succ(t: Term) -> Term:
    return App("S", (t,))


def _plus(a: Term, b: Term) -> Term:
    return App("+", (a, b))


def _times(a: Term, b: Term) -> Term:
    return App("*", (a, b))


def _le(a: Term, b: Term) -> Formula:
    return Rel(LE, (a, b))


# numeral(k) for every k built so far: the one interned chain, extended on
# demand, so each successor is built once per process
_NUMERALS: list[Term] = [ZERO]


def numeral(n: int) -> Term:
    """n-fold successor of zero."""
    if n < 0:
        raise SchemeError("numerals index naturals")
    chain = _NUMERALS
    while len(chain) <= n:
        chain.append(_succ(chain[-1]))
    return chain[n]


def numeral_value(t: Term) -> int | None:
    """Inverse of numeral, or None if the term is not one."""
    n = 0
    while isinstance(t, App) and t.name == "S" and len(t.args) == 1:
        n += 1
        t = t.args[0]
    if isinstance(t, App) and t.name == "0" and not t.args:
        return n
    return None


def _forall_many(names, body: Formula) -> Formula:
    for nm in reversed(list(names)):
        body = ForAll(nm, body)
    return body


def _exists_many(names, body: Formula) -> Formula:
    for nm in reversed(list(names)):
        body = Exists(nm, body)
    return body


# --- languages ------------------------------------------------------------

LANG_BARE_ARITH = Language([
    Symbol("0", KIND_FUNCTION, 0),
    Symbol("S", KIND_FUNCTION, 1),
    Symbol("+", KIND_FUNCTION, 2),
    Symbol("*", KIND_FUNCTION, 2),
])

LANG_ORDERED_ARITH = LANG_BARE_ARITH.with_symbol(Symbol(LE, KIND_RELATION, 2))

LANG_PARTIAL_ARITH = Language([
    Symbol("0", KIND_FUNCTION, 0),
    Symbol("S", KIND_FUNCTION, 1),
    Symbol("A", KIND_RELATION, 3),
    Symbol("M", KIND_RELATION, 3),
])

LANG_CONCAT = Language([
    Symbol("conc", KIND_FUNCTION, 2),
    Symbol("alpha", KIND_FUNCTION, 0),
    Symbol("beta", KIND_FUNCTION, 0),
])

LANG_SET = Language([Symbol("in", KIND_RELATION, 2)])

LANG_EQREL = Language([Symbol("E", KIND_RELATION, 2)])

LANG_PREDICATE_ARITH = Language([
    Symbol("0", KIND_FUNCTION, 0),
    Symbol("S", KIND_FUNCTION, 1),
    Symbol("P", KIND_RELATION, 1),
])

# numeral constants c#n and one unary symbol f#e per machine code e
LANG_PRF = Language([], [
    SymbolFamily("c", KIND_FUNCTION, 0),
    SymbolFamily("f", KIND_FUNCTION, 1),
])


# --- axiom schemes --------------------------------------------------------

def ax1(m: int, n: int) -> Formula:
    """Addition fact on numerals."""
    return Eq(_plus(numeral(m), numeral(n)), numeral(m + n))


def ax2(m: int, n: int) -> Formula:
    """Multiplication fact on numerals."""
    return Eq(_times(numeral(m), numeral(n)), numeral(m * n))


def ax3(m: int, n: int) -> Formula:
    """Distinctness of two different numerals."""
    if m == n:
        raise SchemeError("distinctness needs two different numerals")
    return neq(numeral(m), numeral(n))


def _num_cases(upto: int) -> Formula:
    return or_all([Eq(Var("x"), numeral(i)) for i in range(upto + 1)])


def ax4(n: int) -> Formula:
    """Everything below a numeral is one of the listed numerals."""
    return ForAll("x", Implies(_le(Var("x"), numeral(n)), _num_cases(n)))


def ax4e(n: int) -> Formula:
    """Biconditional variant of ax4."""
    return ForAll("x", iff(_le(Var("x"), numeral(n)), _num_cases(n)))


def ax5(n: int) -> Formula:
    """Every element is comparable with a numeral."""
    x = Var("x")
    return ForAll("x", Or(_le(x, numeral(n)), _le(numeral(n), x)))


EQREL = "E"


def _erel(a: Term, b: Term) -> Formula:
    return Rel(EQREL, (a, b))


def equivalence_axiom(j: int) -> Formula:
    """Reflexivity (0), symmetry (1) or transitivity (2)."""
    x, y, z = Var("x"), Var("y"), Var("z")
    if j == 0:
        return ForAll("x", _erel(x, x))
    if j == 1:
        return _forall_many(["x", "y"], Implies(_erel(x, y), _erel(y, x)))
    if j == 2:
        return _forall_many(["x", "y", "z"],
                            Implies(And(_erel(x, y), _erel(y, z)), _erel(x, z)))
    raise SchemeError("equivalence axioms are numbered 0, 1, 2")


def _class_is(owner: str, names: list[str], w: str) -> Formula:
    """The class of `owner` is exactly the named (bound) members.

    w is the bound variable of the closure clause; `owner` may itself be
    one of the names.
    """
    related = [_erel(Var(owner), Var(nm)) for nm in names]
    distinct = [neq(Var(names[i]), Var(names[j]))
                for i in range(len(names)) for j in range(i + 1, len(names))]
    closure = ForAll(w, Implies(_erel(Var(owner), Var(w)),
                                or_all([Eq(Var(w), Var(nm)) for nm in names])))
    return _exists_many(names, and_all(related + distinct + [closure]))


def size_exists(n: int) -> Formula:
    """Some equivalence class has exactly n members; size 0 is absurd."""
    if n < 0:
        raise SchemeError("class sizes are naturals")
    if n == 0:
        return FALSE
    names = [f"x{i}" for i in range(1, n + 1)]
    return _class_is(names[0], names, "y")


def size_unique(n: int) -> Formula:
    """At most one equivalence class has exactly n members."""
    if n < 1:
        raise SchemeError("uniqueness applies to positive class sizes")

    def of_size(owner: str, prefix: str) -> Formula:
        return _class_is(owner, [f"{prefix}{i}" for i in range(1, n + 1)], f"{prefix}0")

    both = And(of_size("x", "u"), of_size("y", "v"))
    return _forall_many(["x", "y"], Implies(both, _erel(Var("x"), Var("y"))))


SET_MEMBER = "in"


@cache
def set_extent(n: int) -> Formula:
    """Some set has exactly the n listed (distinct) members.

    Cached per n: the n(n-1)/2 distinctness atoms are interned nodes anyway,
    and T-set membership compares with this very object.
    """
    if n < 0:
        raise SchemeError("set extents are naturals")
    names = [f"x{i}" for i in range(n)]
    xs = [Var(nm) for nm in names]
    y = Var("y")
    distinct = [neq(xs[i], xs[j]) for i in range(n) for j in range(i + 1, n)]
    member = Rel(SET_MEMBER, (y, Var("z")))
    closure = ForAll("y", iff(member, or_all([Eq(y, x) for x in xs])))
    return Exists("z", _exists_many(names, and_all(distinct + [closure])))


# --- the Theory type ------------------------------------------------------

@dataclass(frozen=True)
class Theory:
    """A recursively axiomatized theory.

    axiom_fn must be total on naturals; member_fn is None exactly when
    axiom membership is not decidable (oracle-parametric theories).
    """

    name: str
    language: Language
    axiom_fn: Callable[[int], Formula] = field(repr=False)
    member_fn: Callable[[Formula], bool] | None = field(default=None, repr=False)

    def axiom_of(self, i: int) -> Formula:
        if i < 0:
            raise WorkbenchError("axiom indices are naturals")
        return self.axiom_fn(i)

    def is_axiom(self, phi: Formula) -> bool:
        """Exact axiom membership. Library API: no CLI verb calls it."""
        if self.member_fn is None:
            raise MembershipUndecidable(
                f"theory {self.name} has no decidable axiom membership")
        return self.member_fn(phi)

    @property
    def decidable_membership(self) -> bool:
        return self.member_fn is not None


# --- finite catalog theories ----------------------------------------------

def _fixed(name: str, language: Language, axioms) -> Theory:
    axs = tuple(axioms)
    table = frozenset(axs)

    def ax_fn(i: int) -> Formula:
        return axs[i % len(axs)]

    return Theory(name, language, ax_fn, lambda phi: phi in table)


def _successor_axioms() -> list[Formula]:
    x, y = Var("x"), Var("y")
    return [
        _forall_many(["x", "y"], Implies(Eq(_succ(x), _succ(y)), Eq(x, y))),
        ForAll("x", neq(_succ(x), ZERO)),
        ForAll("x", Implies(neq(x, ZERO), Exists("y", Eq(x, _succ(y))))),
    ]


def _q_axioms() -> list[Formula]:
    x, y = Var("x"), Var("y")
    return _successor_axioms() + [
        ForAll("x", Eq(_plus(x, ZERO), x)),
        _forall_many(["x", "y"], Eq(_plus(x, _succ(y)), _succ(_plus(x, y)))),
        ForAll("x", Eq(_times(x, ZERO), ZERO)),
        _forall_many(["x", "y"], Eq(_times(x, _succ(y)), _plus(_times(x, y), x))),
    ]


def _qplus_axioms() -> list[Formula]:
    x, y, z = Var("x"), Var("y"), Var("z")
    extras = [
        _forall_many(["x", "y", "z"], Eq(_plus(_plus(x, y), z), _plus(x, _plus(y, z)))),
        _forall_many(["x", "y", "z"],
                     Eq(_times(x, _plus(y, z)), _plus(_times(x, y), _times(x, z)))),
        _forall_many(["x", "y", "z"], Eq(_times(_times(x, y), z), _times(x, _times(y, z)))),
        _forall_many(["x", "y"], Eq(_plus(x, y), _plus(y, x))),
        _forall_many(["x", "y"], Eq(_times(x, y), _times(y, x))),
        _forall_many(["x", "y"], iff(_le(x, y), Exists("z", Eq(_plus(x, z), y)))),
    ]
    return _q_axioms() + extras


def _qminus_axioms() -> list[Formula]:
    x, y, z, u = Var("x"), Var("y"), Var("z"), Var("u")
    z1, z2 = Var("z1"), Var("z2")

    def add(a, b, c):
        return Rel("A", (a, b, c))

    def mul(a, b, c):
        return Rel("M", (a, b, c))

    functional_a = _forall_many(
        ["x", "y", "z1", "z2"],
        Implies(And(add(x, y, z1), add(x, y, z2)), Eq(z1, z2)))
    functional_m = _forall_many(
        ["x", "y", "z1", "z2"],
        Implies(And(mul(x, y, z1), mul(x, y, z2)), Eq(z1, z2)))
    g4 = ForAll("x", add(x, ZERO, x))
    g5 = _forall_many(["x", "y", "z"], Implies(
        Exists("u", And(add(x, y, u), Eq(z, _succ(u)))), add(x, _succ(y), z)))
    g6 = ForAll("x", mul(x, ZERO, ZERO))
    g7 = _forall_many(["x", "y", "z"], Implies(
        Exists("u", And(mul(x, y, u), add(u, x, z))), mul(x, _succ(y), z)))
    return _successor_axioms() + [functional_a, functional_m, g4, g5, g6, g7]


def _pa_minus_axioms() -> list[Formula]:
    x, y, z = Var("x"), Var("y"), Var("z")
    one = _succ(ZERO)
    return [
        ForAll("x", Eq(_plus(x, ZERO), x)),
        _forall_many(["x", "y"], Eq(_plus(x, y), _plus(y, x))),
        _forall_many(["x", "y", "z"], Eq(_plus(_plus(x, y), z), _plus(x, _plus(y, z)))),
        ForAll("x", Eq(_times(x, one), x)),
        _forall_many(["x", "y"], Eq(_times(x, y), _times(y, x))),
        _forall_many(["x", "y", "z"], Eq(_times(_times(x, y), z), _times(x, _times(y, z)))),
        _forall_many(["x", "y", "z"],
                     Eq(_times(x, _plus(y, z)), _plus(_times(x, y), _times(x, z)))),
        _forall_many(["x", "y"], Or(_le(x, y), _le(y, x))),
        _forall_many(["x", "y", "z"], Implies(And(_le(x, y), _le(y, z)), _le(x, z))),
        ForAll("x", Not(_le(_plus(x, one), x))),
        _forall_many(["x", "y"], Implies(_le(x, y), Or(Eq(x, y), _le(_plus(x, one), y)))),
        _forall_many(["x", "y", "z"], Implies(_le(x, y), _le(_plus(x, z), _plus(y, z)))),
        _forall_many(["x", "y", "z"], Implies(_le(x, y), _le(_times(x, z), _times(y, z)))),
        _forall_many(["x", "y"], Implies(_le(x, y), Exists("z", Eq(_plus(x, z), y)))),
    ]


def _concat_axioms() -> list[Formula]:
    x, y, z, u, v, w = (Var(n) for n in "xyzuvw")

    def cat(a, b):
        return App("conc", (a, b))

    alpha, beta = App("alpha"), App("beta")
    assoc = _forall_many(["x", "y", "z"], Eq(cat(x, cat(y, z)), cat(cat(x, y), z)))
    # editor axiom: equal concatenations overlap on a common middle piece
    editor = _forall_many(["x", "y", "u", "v"], Implies(
        Eq(cat(x, y), cat(u, v)),
        Or(And(Eq(x, u), Eq(y, v)),
           Exists("w", Or(And(Eq(u, cat(x, w)), Eq(cat(w, v), y)),
                          And(Eq(x, cat(u, w)), Eq(cat(w, y), v)))))))
    return [
        assoc,
        editor,
        _forall_many(["x", "y"], neq(alpha, cat(x, y))),
        _forall_many(["x", "y"], neq(beta, cat(x, y))),
        neq(alpha, beta),
    ]


def _pairset_axioms() -> list[Formula]:
    x, y, z, u = Var("x"), Var("y"), Var("z"), Var("u")

    def member(a, b):
        return Rel(SET_MEMBER, (a, b))

    empty = Exists("x", ForAll("y", Not(member(y, x))))
    pairing = _forall_many(["x", "y"], Exists("z", ForAll("u", iff(
        member(u, z), Or(Eq(u, x), Eq(u, y))))))
    return [empty, pairing]


# --- scheme-diagonal theories ----------------------------------------------

def offdiag(j: int) -> tuple[int, int]:
    """Bijection from naturals onto ordered pairs (m, n) with m != n."""
    a, b = unpair(j)
    return (a, b) if b < a else (a, b + 1)


def _numerals(*terms: Term) -> tuple[int, ...] | None:
    values = tuple(numeral_value(t) for t in terms)
    return None if None in values else values


def _shown(phi: Formula) -> tuple[Callable | None, tuple[int, ...] | None]:
    """The scheme a formula's shape shows, with the parameters it shows."""
    match phi:
        case Eq(App("+", (a, b)), _):
            return ax1, _numerals(a, b)
        case Eq(App("*", (a, b)), c):
            # no rebuild past the k shown: it would build m*n nodes
            v = _numerals(a, b, c)
            return ax2, v[:2] if v is not None and v[0] * v[1] <= v[2] else None
        case Not(Eq(a, b)):
            return ax3, _numerals(a, b)
        case ForAll(_, Implies(Rel(_, (_, n)), _)):
            return ax4, _numerals(n)
        case ForAll(_, And(Implies(Rel(_, (_, n)), _), _)):
            return ax4e, _numerals(n)
        case ForAll(_, Or(Rel(_, (_, n)), _)):
            return ax5, _numerals(n)
        case Exists(_, body):
            n = 0
            while type(body) is Exists:
                n, body = n + 1, body.body
            return set_extent, (n,)
    return None, None


def _single(j: int) -> tuple[int]:
    return (j,)


# A slot is (scheme builder, its parameters at slot index j).
_SLOT_AX1 = (ax1, unpair)
_SLOT_AX2 = (ax2, unpair)
_SLOT_AX3 = (ax3, offdiag)
_SLOT_AX4 = (ax4, _single)
_SLOT_AX4E = (ax4e, _single)
_SLOT_AX5 = (ax5, _single)
_SLOT_SET_EXTENT = (set_extent, _single)


def _scheme_theory(name: str, language: Language, slots) -> Theory:
    """Axiom i is slot i mod width at index i div width. A formula is an
    axiom when rebuilding the scheme its shape shows, from the parameters
    it shows, gives that very node: `is` checks all the rest."""
    width = len(slots)
    builders = {build for build, _ in slots}

    def ax_fn(i: int) -> Formula:
        build, params_at = slots[i % width]
        return build(*params_at(i // width))

    def member(phi: Formula) -> bool:
        build, params = _shown(phi)
        if build not in builders or params is None:
            return False
        try:
            return build(*params) is phi
        except SchemeError:  # parameters outside the scheme, as m = n for ax3
            return False

    return Theory(name, language, ax_fn, member)


# --- oracle-parametric theories ---------------------------------------------

PADDING = ForAll("x", Eq(Var("x"), Var("x")))


def _staged_fact(pair_: OraclePair, side: str, j: int) -> int | None:
    """Slot j encodes (stage, position); None when the slot is padding."""
    s, k = unpair(j)
    facts = sorted((pair_.left if side == "left" else pair_.right).at(s))
    return facts[k] if k < len(facts) else None


def predicate_atom(n: int) -> Formula:
    """The sentence asserting the predicate P holds at the n-th numeral."""
    return Rel("P", (numeral(n),))


def _staged_theory(pair_: OraclePair, name: str, language: Language,
                   fixed: Callable[[int], Formula],
                   fact: Callable[[int], Formula]) -> Theory:
    """Index i = 3j, 3j+1, 3j+2: fixed(j), then fact(n) for the j-th staged
    left element and its negation for the j-th right one, or PADDING."""
    def ax_fn(i: int) -> Formula:
        kind, j = i % 3, i // 3
        if kind == 0:
            return fixed(j)
        n = _staged_fact(pair_, "left" if kind == 1 else "right", j)
        if n is None:
            return PADDING
        phi = fact(n)
        return phi if kind == 1 else Not(phi)

    return Theory(name, language, ax_fn, None)


def make_u_theory(pair_: OraclePair, name: str = "U") -> Theory:
    """Numeral-predicate theory driven by a disjoint staged pair: numeral
    distinctness, then P(n) for n on the left and its negation on the right."""
    return _staged_theory(pair_, name, LANG_PREDICATE_ARITH,
                          lambda j: ax3(*offdiag(j)), predicate_atom)


def make_e_theory(pair_: OraclePair, name: str = "E") -> Theory:
    """One-binary-relation theory over class-size statements.

    Always contains the three equivalence axioms and every uniqueness
    axiom; class-size existence claims follow the left side of the pair,
    their negations the right side.
    """
    return _staged_theory(pair_, name, LANG_EQREL,
                          lambda j: equivalence_axiom(j) if j < 3 else size_unique(j - 2),
                          size_exists)


def make_product(first: Theory, second: Theory) -> Theory:
    """Interleave two theories behind a fresh nullary relation marker.

    Even indices emit marker -> axiom of the first theory, odd indices
    emit (not marker) -> axiom of the second.
    """
    lang = first.language.union(second.language)
    used = {s.name for s in lang.symbols()} | {f.name for f in lang.families()}
    marker = fresh_variant("P", used)
    plang = lang.with_symbol(Symbol(marker, KIND_RELATION, 0))
    mark = Rel(marker, ())

    def ax_fn(i: int) -> Formula:
        if i % 2 == 0:
            return Implies(mark, first.axiom_of(i // 2))
        return Implies(Not(mark), second.axiom_of(i // 2))

    member = None
    if first.decidable_membership and second.decidable_membership:
        def member(phi: Formula) -> bool:
            if isinstance(phi, Implies):
                if phi.left == mark:
                    return first.is_axiom(phi.right)
                if phi.left == Not(mark):
                    return second.is_axiom(phi.right)
            return False

    return Theory(f"product:{first.name},{second.name}", plang, ax_fn, member)


# --- catalog lookup ---------------------------------------------------------

def _build_catalog() -> dict[str, Theory]:
    r_slots = (_SLOT_AX1, _SLOT_AX2, _SLOT_AX3, _SLOT_AX4, _SLOT_AX5)
    r0_slots = (_SLOT_AX1, _SLOT_AX2, _SLOT_AX3, _SLOT_AX4)
    r1_slots = (_SLOT_AX1, _SLOT_AX2, _SLOT_AX3, _SLOT_AX4E)
    r2_slots = (_SLOT_AX2, _SLOT_AX3, _SLOT_AX4E)
    return {
        "R": _scheme_theory("R", LANG_ORDERED_ARITH, r_slots),
        "R0": _scheme_theory("R0", LANG_ORDERED_ARITH, r0_slots),
        "R1": _scheme_theory("R1", LANG_ORDERED_ARITH, r1_slots),
        "R2": _scheme_theory("R2", LANG_ORDERED_ARITH, r2_slots),
        "Q": _fixed("Q", LANG_BARE_ARITH, _q_axioms()),
        "Q+": _fixed("Q+", LANG_ORDERED_ARITH, _qplus_axioms()),
        "Q-": _fixed("Q-", LANG_PARTIAL_ARITH, _qminus_axioms()),
        "PA-": _fixed("PA-", LANG_ORDERED_ARITH, _pa_minus_axioms()),
        "TC": _fixed("TC", LANG_CONCAT, _concat_axioms()),
        "AS": _fixed("AS", LANG_SET, _pairset_axioms()),
        "T-set": _scheme_theory("T-set", LANG_SET, (_SLOT_SET_EXTENT,)),
    }


CATALOG = _build_catalog()


def _split_product(text: str) -> tuple[str, str]:
    depth = 0
    for idx, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == "," and depth == 0:
            return text[:idx], text[idx + 1:]
    raise TheoryIdError("product takes two comma-separated theory ids")


def get_theory(identifier: str) -> Theory:
    """Resolve a theory id: catalog name, U:/E: pair form, or product."""
    ident = identifier.strip()
    if ident in CATALOG:
        return CATALOG[ident]
    if ident.startswith("U:"):
        return make_u_theory(load_pair_spec(ident[2:]), ident)
    if ident.startswith("E:"):
        return make_e_theory(load_pair_spec(ident[2:]), ident)
    if ident.startswith("product:"):
        a, b = _split_product(ident[len("product:"):])
        return make_product(get_theory(a), get_theory(b))
    raise TheoryIdError(f"unknown theory id {identifier!r}")


def get_language(identifier: str) -> Language:
    """Language lookup for parsing: theory ids plus bare 'eq' and 'u'."""
    ident = identifier.strip()
    if ident == "eq":
        return LANG_EQREL
    if ident == "u":
        return LANG_PREDICATE_ARITH
    if ident == "prf":
        return LANG_PRF
    return get_theory(ident).language
