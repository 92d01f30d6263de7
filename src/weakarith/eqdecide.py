"""Deciding sentences about a single equivalence relation by counting.

A sentence of quantifier rank r cannot tell apart two equivalence
structures that agree on, for each size s <= r, the number of classes
of exactly s elements capped at r, plus the capped number of classes
larger than r. Decisions therefore reduce to enumerating these capped
histograms, realizing each one canonically, and evaluating the sentence
on the realizations. Oracle knowledge enters only by constraining which
histograms are admissible. Evaluation is the orbit game of eval_on_blocks,
built on the two-valued evaluator core `structures.truth`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iterproduct

from .errors import WorkbenchError
from .machines import OraclePair
from .structures import FiniteStructure, truth
from .syntax import (
    App,
    Eq,
    ForAll,
    Formula,
    Rel,
    free_variables,
    walk,
)


class WrongLanguageError(WorkbenchError):
    """The sentence is not over a single binary relation with equality."""


class NotAnEquivalenceError(WorkbenchError):
    pass


class ProfileError(WorkbenchError):
    pass


DEFAULT_RELATION = "E"


def relation_name_of(phi: Formula) -> str:
    """The unique binary relation symbol in phi, defaulting when absent.

    Raises WrongLanguageError on function symbols, several relation
    names, or a relation used at arity other than two.
    """
    names: set[str] = set()
    for node, _ in walk(phi):
        if type(node) is Rel:
            if len(node.args) != 2:
                raise WrongLanguageError(
                    f"relation {node.name!r} used at arity {len(node.args)}, want 2")
            names.add(node.name)
        elif type(node) is App:
            raise WrongLanguageError("terms must be plain variables")
    if len(names) > 1:
        raise WrongLanguageError(f"several relation symbols: {sorted(names)}")
    return names.pop() if names else DEFAULT_RELATION


def rank(phi: Formula) -> int:
    """Quantifier nesting depth of a one-binary-relation sentence."""
    relation_name_of(phi)
    return max(len(bound) for _, bound in walk(phi))


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
    """Uncapped histogram size -> number of classes; checks equivalence."""
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
    """Capped histogram of an equivalence structure at rank r."""
    if r < 1:
        raise ProfileError("profiles need rank >= 1")
    histogram = class_sizes(structure, rel)
    small = tuple(min(histogram.get(s, 0), r) for s in range(1, r + 1))
    large = min(sum(c for s, c in histogram.items() if s > r), r)
    return SizeProfile(r, small, large)


def realize_profile(profile: SizeProfile,
                    rel: str = DEFAULT_RELATION) -> FiniteStructure:
    """Canonical witness: capped counts become exactly the cap, every
    class larger than the rank becomes one of rank+1 elements."""
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


def eval_on_blocks(blocks, phi: Formula, rel: str = DEFAULT_RELATION) -> bool:
    """Evaluate a one-binary-relation sentence on a disjoint-block structure.

    Agrees with eval_formula on the realized structure but collapses
    quantifier ranges to orbit representatives: a fresh variable needs
    only each already-picked element, one unused element per touched
    block, and one untouched block per distinct size. Cost depends on
    quantifier depth, never on how many elements the blocks hold.
    Connectives go through `structures.truth` with the game state
    (touched blocks, untouched sizes, assignment).
    """
    blocks = tuple(blocks)
    if not blocks:
        raise ProfileError("structures are nonempty")
    untouched0: dict[int, int] = {}
    for s in blocks:
        untouched0[s] = untouched0.get(s, 0) + 1

    def atom(f: Formula, state) -> bool:
        touched, untouched, asg = state
        t = type(f)
        if t is Rel:
            a, b = (asg[v.name] for v in f.args)
            return a[0] == b[0]
        if t is Eq:
            return asg[f.left.name] == asg[f.right.name]
        want_all = t is ForAll
        for t2, u2, value in _moves(touched, untouched, asg):
            got = truth(f.body, atom, (t2, u2, {**asg, f.var: value}))
            if got != want_all:
                return got
        return want_all

    return truth(phi, atom, ((), untouched0, {}))


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
    rel = relation_name_of(phi)
    if free_variables(phi):
        raise WrongLanguageError("decide wants a sentence, not an open formula")
    r = max(rank(phi), 1)
    example_true = example_false = None
    for p in admissible_profiles(r, pair, stage):
        value = eval_on_blocks(_profile_blocks(p), phi, rel)
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
    rel = relation_name_of(phi)
    if free_variables(phi):
        raise WrongLanguageError("normal_form wants a sentence")
    actual = rank(phi)
    if r < actual:
        raise ProfileError(f"rank {r} below the sentence's rank {actual}")
    r = max(r, 1)
    disjuncts = []
    for p in enumerate_profiles(r):
        if eval_on_blocks(_profile_blocks(p), phi, rel):
            disjuncts.append(_profile_literals(p))
    return NormalForm(r, tuple(disjuncts))
