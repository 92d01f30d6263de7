"""Deciding sentences about a single equivalence relation by counting.

A sentence of quantifier rank r cannot tell apart two equivalence
structures that agree on, for each size s <= r, the number of classes
of exactly s elements capped at r, plus the capped number of classes
larger than r. Decisions therefore reduce to enumerating these capped
histograms, realizing each one canonically, and evaluating the sentence
on the realizations. Oracle knowledge enters only by constraining which
histograms are admissible. Evaluation is the orbit game of eval_on_blocks,
built on the two-valued evaluator core `structures.truth`.

The same bound holds inside the game (Ehrenfeucht, Fund. Math. 1961): a
quantifier node f of rank q, its own quantifier included, is won or lost
in q more moves, so its value depends only on
  - the equality and block pattern of f's free variables, in sorted-name
    order;
  - for each block holding one of them, its other elements, capped at q;
  - the sizes of all other blocks, capped at q, counted per capped size,
    each count capped at q.
`decide` and `normal_form` share one memo under that key across all the
profiles of one call, so profiles that differ only above a subformula's
cap play its subgames once. The memo is dropped when the call returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iterproduct

from .errors import WorkbenchError
from .machines import OraclePair
from .structures import FiniteStructure, truth
from .syntax import (
    And,
    App,
    Eq,
    Exists,
    Falsum,
    ForAll,
    Formula,
    Implies,
    Not,
    Or,
    Rel,
    Var,
    Verum,
)


class WrongLanguageError(WorkbenchError):
    """The sentence is not over a single binary relation with equality."""


class NotAnEquivalenceError(WorkbenchError):
    pass


class ProfileError(WorkbenchError):
    pass


DEFAULT_RELATION = "E"


MAX_RANK = 5  # normal forms at rank 6 have up to 823,542 disjuncts

_JOIN, _BIND = object(), object()  # markers on _read_sentence's stack


def _read_sentence(phi: Formula):
    """(relation name, rank, free variables, keyed quantifiers) in one pass.

    Bottom-up over an explicit stack, children left to right, so errors come
    in pre-order: a function symbol or a relation at arity other than two
    raises where it first occurs, several relation names only at the end.
    Keyed quantifiers maps every quantifier node of rank q >= 2 to q and its
    sorted free variables, the two things its memo key needs (module
    docstring). Rank-1 nodes expand to atoms only and go unkeyed.
    """
    names: set[str] = set()
    keyed: dict[Formula, tuple[int, tuple[str, ...]]] = {}
    stack = [phi]
    pop, push = stack.pop, stack.append
    done: list[tuple[int, frozenset[str]]] = []  # (rank, free) of finished subtrees
    while stack:
        node = pop()
        kind = type(node)
        if kind is Var:
            done.append((0, frozenset((node.name,))))
        elif kind is Rel:
            if len(node.args) != 2:
                raise WrongLanguageError(
                    f"relation {node.name!r} used at arity {len(node.args)}, want 2")
            names.add(node.name)
            left, right = node.args
            stack += (_JOIN, right, left)
        elif kind is Eq or kind is And or kind is Or or kind is Implies:
            stack += (_JOIN, node.right, node.left)
        elif kind is Not:
            push(node.body)
        elif kind is ForAll or kind is Exists:
            stack += (node, _BIND, node.body)
        elif kind is Verum or kind is Falsum:
            done.append((0, frozenset()))
        elif node is _JOIN:
            q, free = done.pop()
            q0, free0 = done[-1]
            done[-1] = (q if q > q0 else q0, free0 | free)
        elif node is _BIND:
            quantifier = pop()
            q, free = done[-1]
            q, free = q + 1, free - {quantifier.var}
            done[-1] = (q, free)
            if q > 1:
                keyed[quantifier] = (q, tuple(sorted(free)))
        elif kind is App:
            raise WrongLanguageError("terms must be plain variables")
        else:
            raise TypeError(f"not a formula: {node!r}")
    if len(names) > 1:
        raise WrongLanguageError(f"several relation symbols: {sorted(names)}")
    q, free = done[0]
    return names.pop() if names else DEFAULT_RELATION, q, free, keyed


def relation_name_of(phi: Formula) -> str:
    """The unique binary relation symbol in phi, defaulting when absent.

    Raises WrongLanguageError on function symbols, several relation
    names, or a relation used at arity other than two. Library API: no CLI
    verb calls it."""
    return _read_sentence(phi)[0]


def rank(phi: Formula) -> int:
    """Quantifier nesting depth of a one-binary-relation sentence."""
    return _read_sentence(phi)[1]


# --- profiles ------------------------------------------------------------

@dataclass(frozen=True)
class SizeProfile:
    """Capped class-size histogram: small[s-1] counts size-s classes."""

    rank: int
    small: tuple[int, ...]
    large: int

    def __post_init__(self):
        if self.rank < 1 or len(self.small) != self.rank:
            raise ProfileError("profile needs one small count per size 1..rank")
        for c in (*self.small, self.large):
            if not 0 <= c <= self.rank:
                raise ProfileError(f"count {c} outside 0..{self.rank}")

    @property
    def empty(self) -> bool:
        return self.large == 0 and not any(self.small)


def class_sizes(structure: FiniteStructure, rel: str = DEFAULT_RELATION) -> dict[int, int]:
    """Uncapped histogram size -> number of classes; checks equivalence.
    Library API: no CLI verb calls it."""
    pairs = structure.relations.get(rel)
    if pairs is None:
        raise NotAnEquivalenceError(f"no relation {rel!r} in the structure")
    related = {a: set() for a in range(structure.size)}
    for t in pairs:
        if len(t) != 2:
            raise NotAnEquivalenceError(f"{rel!r} is not binary")
        related[t[0]].add(t[1])
    for a in range(structure.size):
        if a not in related[a]:
            raise NotAnEquivalenceError(f"not reflexive at {a}")
        for b in related[a]:
            if a not in related[b]:
                raise NotAnEquivalenceError(f"not symmetric at ({a}, {b})")
            if not related[b] <= related[a]:
                raise NotAnEquivalenceError(f"not transitive through ({a}, {b})")
    histogram: dict[int, int] = {}
    seen: set[int] = set()
    for a in range(structure.size):
        if a in seen:
            continue
        block = related[a]
        seen |= block
        histogram[len(block)] = histogram.get(len(block), 0) + 1
    return histogram


def profile_of(structure: FiniteStructure, r: int,
               rel: str = DEFAULT_RELATION) -> SizeProfile:
    """Capped histogram of an equivalence structure at rank r.
    Library API: no CLI verb calls it."""
    if r < 1:
        raise ProfileError("profiles need rank >= 1")
    histogram = class_sizes(structure, rel)
    small = tuple(min(histogram.get(s, 0), r) for s in range(1, r + 1))
    large = min(sum(c for s, c in histogram.items() if s > r), r)
    return SizeProfile(r, small, large)


def realize_profile(profile: SizeProfile,
                    rel: str = DEFAULT_RELATION) -> FiniteStructure:
    """Canonical witness: capped counts become exactly the cap, every
    class larger than the rank becomes one of rank+1 elements. Library API:
    no CLI verb calls it."""
    blocks = _profile_blocks(profile)
    if not blocks:
        raise ProfileError("the empty profile has no nonempty realization")
    pairs = set()
    start = 0
    for width in blocks:
        members = range(start, start + width)
        pairs.update((a, b) for a in members for b in members)
        start += width
    return FiniteStructure(start, {}, {rel: frozenset(pairs)})


def _profile_blocks(profile: SizeProfile) -> tuple[int, ...]:
    blocks: list[int] = []
    for s, count in enumerate(profile.small, start=1):
        blocks.extend([s] * count)
    blocks.extend([profile.rank + 1] * profile.large)
    return tuple(blocks)


def _moves(touched, untouched, asg):
    """Each orbit representative for a fresh variable, as (touched, untouched, value)."""
    for element in sorted(set(asg.values())):
        yield touched, untouched, element
    for slot, (size, used) in enumerate(touched):
        if used < size:
            yield touched[:slot] + ((size, used + 1),) + touched[slot + 1:], untouched, (slot, used)
    for size in sorted(untouched):
        if untouched[size] > 0:
            rest = dict(untouched)
            rest[size] -= 1
            yield touched + ((size, 1),), rest, (len(touched), 0)


def eval_on_blocks(blocks, phi: Formula, rel: str = DEFAULT_RELATION, *,
                   _memo=None) -> bool:
    """Evaluate a one-binary-relation sentence on a disjoint-block structure.

    Agrees with eval_formula on the realized structure but collapses
    quantifier ranges to orbit representatives: a fresh variable needs
    only each already-picked element, one unused element per touched
    block, and one untouched block per distinct size. Cost depends on
    quantifier depth, never on how many elements the blocks hold.
    Connectives go through `structures.truth` with the game state
    (touched blocks, untouched sizes, assignment).

    `decide` and `normal_form` pass `_memo`, the keyed quantifiers of
    `_read_sentence` and one table shared by every profile of the call. A
    keyed node f of rank q then answers from the table when it has met a
    state with the same rank-q abstraction: the same pattern of f's free
    variables over elements and blocks, the same unnamed elements of their
    blocks capped at q, and the same histogram of other block sizes capped
    at q with counts capped at q. By Ehrenfeucht's game those states cannot
    be told apart in q moves, so f has the same value in both. Without
    `_memo` every node is expanded: the plain game.
    """
    blocks = tuple(blocks)
    if not blocks:
        raise ProfileError("structures are nonempty")
    untouched0: dict[int, int] = {}
    for s in blocks:
        untouched0[s] = untouched0.get(s, 0) + 1
    keyed, table = _memo if _memo is not None else ({}, None)
    views: dict[tuple, frozenset] = {}

    def others(q: int, named: tuple[int, ...]) -> frozenset:
        """The blocks that no free variable names, as (size, count) capped at q.

        `named` lists the capped sizes of the named blocks; the answer depends
        only on the profile, so it is worked out once per eval_on_blocks call.
        """
        view = views.get((q, named))
        if view is None:
            histogram: dict[int, int] = {}
            for size, count in untouched0.items():
                size = size if size < q else q
                histogram[size] = histogram.get(size, 0) + count
            for size in named:
                histogram[size] -= 1
            view = views[q, named] = frozenset(
                (size, count if count < q else q) for size, count in histogram.items() if count)
        return view

    def abstraction(f: Formula, q: int, free: tuple[str, ...], touched, asg) -> tuple:
        """The memo key of keyed node f in a game state; zero and one free
        variables, the common cases, take a shorter form of the same key."""
        if not free:
            return f, others(q, ())
        if len(free) == 1:
            size = touched[asg[free[0]][0]][0]
            return f, min(size - 1, q), others(q, (size if size < q else q,))
        elements: dict[tuple, int] = {}  # element -> order of first use by free
        for v in free:
            e = asg[v]
            if e not in elements:
                elements[e] = len(elements)
        named: dict[int, int] = {}       # touched slot -> elements of free in it
        for e in elements:
            named[e[0]] = named.get(e[0], 0) + 1
        slot_ids = {slot: i for i, slot in enumerate(named)}
        sizes = [touched[slot][0] for slot in named]
        return (f,
                tuple(elements[asg[v]] for v in free),
                tuple(slot_ids[e[0]] for e in elements),
                tuple(min(size - n, q) for size, n in zip(sizes, named.values())),
                others(q, tuple(sorted(size if size < q else q for size in sizes))))

    def atom(f: Formula, state) -> bool:
        touched, untouched, asg = state
        t = type(f)
        if t is Rel:
            a, b = (asg[v.name] for v in f.args)
            return a[0] == b[0]
        if t is Eq:
            return asg[f.left.name] == asg[f.right.name]
        spec = keyed.get(f)
        if spec is not None:
            key = abstraction(f, *spec, touched, asg)
            value = table.get(key)
            if value is not None:
                return value
        want_all = value = t is ForAll
        for t2, u2, element in _moves(touched, untouched, asg):
            if truth(f.body, atom, (t2, u2, {**asg, f.var: element})) != want_all:
                value = not want_all
                break
        if spec is not None:
            table[key] = value
        return value

    try:
        return truth(phi, atom, ((), untouched0, {}))
    finally:
        del atom  # atom calls itself through its cell; emptying it lets refcounting free the game


def enumerate_profiles(r: int):
    """Every profile of the given rank except the unrealizable empty one."""
    if r < 1:
        raise ProfileError("profiles need rank >= 1")
    for counts in iterproduct(range(r + 1), repeat=r + 1):
        p = SizeProfile(r, counts[:-1], counts[-1])
        if not p.empty:
            yield p


def admissible_profiles(r: int, pair: OraclePair, stage: int):
    """Profiles compatible with the theory and stage-s oracle knowledge.

    Every finite size has at most one class; a size known to sit on the
    left side must occur, one known on the right side must not. Unknown
    memberships leave both options open.
    """
    choices = []
    for s in range(1, r + 1):
        left = pair.query("left", s, stage).status
        right = pair.query("right", s, stage).status
        if left == "in":
            choices.append((1,))
        elif right == "in":
            choices.append((0,))
        else:
            choices.append((0, 1))
    for small in iterproduct(*choices):
        for large in range(r + 1):
            p = SizeProfile(r, small, large)
            if not p.empty:
                yield p


# --- decisions -----------------------------------------------------------

PROVABLE = "provable"
REFUTABLE = "refutable"
INDEPENDENT = "independent"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Decision:
    kind: str
    stage: int | None = None
    example_true: SizeProfile | None = None
    example_false: SizeProfile | None = None


def decide(phi: Formula, pair: OraclePair, stage: int) -> Decision:
    """Status of a sentence over the staged equivalence-relation theory.

    Evaluates the sentence on the canonical realization of every
    admissible profile at the effective rank max(rank, 1). All true
    means provable, all false refutable. A split is independence when
    the oracle pair is finite (nothing more will ever be learned) and
    unknown-at-this-stage otherwise. Admissible sets only shrink as the
    stage grows, so provable and refutable verdicts never flip.
    """
    rel, r, free, keyed = _read_sentence(phi)
    if free:
        raise WrongLanguageError("decide wants a sentence, not an open formula")
    r = max(r, 1)
    memo = (keyed, {})
    example_true = example_false = None
    for p in admissible_profiles(r, pair, stage):
        value = eval_on_blocks(_profile_blocks(p), phi, rel, _memo=memo)
        if value and example_true is None:
            example_true = p
        if not value and example_false is None:
            example_false = p
        if example_true is not None and example_false is not None:
            kind = INDEPENDENT if pair.finite else UNKNOWN
            return Decision(kind, stage, example_true, example_false)
    if example_false is None:
        return Decision(PROVABLE, stage, example_true, None)
    return Decision(REFUTABLE, stage, None, example_false)


# --- normal form -----------------------------------------------------------

@dataclass(frozen=True)
class SizeLiteral:
    """exactly/at-least `count` classes of size `size` (None: above rank)."""

    exact: bool
    size: int | None
    count: int

    def holds(self, histogram: dict[int, int], r: int) -> bool:
        if self.size is None:
            have = sum(c for s, c in histogram.items() if s > r)
        else:
            have = histogram.get(self.size, 0)
        return have == self.count if self.exact else have >= self.count

    def render(self) -> str:
        how = "exactly" if self.exact else "at least"
        what = f"size {self.size}" if self.size is not None else "larger size"
        plural = "class" if self.count == 1 else "classes"
        return f"{how} {self.count} {plural} of {what}"


def _profile_literals(p: SizeProfile) -> tuple[SizeLiteral, ...]:
    out = []
    for s, c in enumerate(p.small, start=1):
        out.append(SizeLiteral(c < p.rank, s, c))
    out.append(SizeLiteral(p.large < p.rank, None, p.large))
    return tuple(out)


@dataclass(frozen=True)
class NormalForm:
    rank: int
    disjuncts: tuple[tuple[SizeLiteral, ...], ...]

    def holds_in(self, structure: FiniteStructure,
                 rel: str = DEFAULT_RELATION) -> bool:
        """Some disjunct holds in the structure. Library API: no CLI verb calls it."""
        histogram = class_sizes(structure, rel)
        return any(all(lit.holds(histogram, self.rank) for lit in d)
                   for d in self.disjuncts)

    def render(self) -> str:
        if not self.disjuncts:
            return "(never)"
        lines = []
        for d in self.disjuncts:
            lines.append(" and ".join(lit.render() for lit in d))
        return "\n or ".join(lines)


def normal_form(phi: Formula, r: int) -> NormalForm:
    """Disjunction over the satisfying capped histograms at rank >= rank(phi).

    Oracle admissibility plays no part here; this is pure logic. The
    effective rank is at least 1. Each satisfying profile becomes one
    conjunction of size literals: exact counts below the cap, at-least
    at the cap.
    """
    rel, actual, free, keyed = _read_sentence(phi)
    if free:
        raise WrongLanguageError("normal_form wants a sentence")
    if r < actual:
        raise ProfileError(f"rank {r} below the sentence's rank {actual}")
    if r > MAX_RANK:
        raise ProfileError(f"rank {r} above the largest supported rank {MAX_RANK}")
    r = max(r, 1)
    memo = (keyed, {})
    disjuncts = []
    for p in enumerate_profiles(r):
        if eval_on_blocks(_profile_blocks(p), phi, rel, _memo=memo):
            disjuncts.append(_profile_literals(p))
    return NormalForm(r, tuple(disjuncts))
