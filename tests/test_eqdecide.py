"""Decision procedure for sentences about one equivalence relation."""

import gc

import pytest
from hypothesis import example, given, settings, strategies as st

from weakarith import eqdecide
from weakarith.eqdecide import (
    MAX_RANK,
    NotAnEquivalenceError,
    ProfileError,
    SizeProfile,
    WrongLanguageError,
    admissible_profiles,
    class_sizes,
    decide,
    enumerate_profiles,
    eval_on_blocks,
    normal_form,
    profile_of,
    rank,
    realize_profile,
    _profile_blocks,
    _profile_literals,
    _read_sentence,
)
from weakarith.machines import canonical_pair, parse_pair_spec
from weakarith.sexpr import parse_formula
from weakarith.structures import FiniteStructure, eval_formula
from weakarith.syntax import (FALSE, TRUE, And, App, Eq, Exists, ForAll, Implies, Not, Or,
                              Rel, Var, free_variables, walk)
from weakarith.theories import get_language, size_exists

LANG = get_language("eq")

PHI2 = size_exists(2)
PHI3 = size_exists(3)
PHI5 = size_exists(5)


def eq(text):
    return parse_formula(text, LANG)


def partition_structure(blocks, rel="E"):
    pairs = set()
    start = 0
    for w in blocks:
        members = range(start, start + w)
        pairs.update((a, b) for a in members for b in members)
        start += w
    return FiniteStructure(start, {}, {rel: frozenset(pairs)})


def partitions(n, cap=None):
    if n == 0:
        yield []
        return
    cap = n if cap is None else min(cap, n)
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            yield [first] + rest


def test_rank_counts_quantifier_depth():
    assert rank(eq("(forall x (exists y (E x y)))")) == 2
    assert rank(eq("true")) == 0
    assert rank(PHI2) == 3


def test_rank_rejects_function_symbols():
    bad = parse_formula("(forall x (= (S x) x))", get_language("Q"))
    with pytest.raises(WrongLanguageError):
        rank(bad)


def test_class_sizes_and_profile():
    hand = partition_structure([1, 1, 2, 2, 3, 6])
    assert class_sizes(hand) == {1: 2, 2: 2, 3: 1, 6: 1}
    assert profile_of(hand, 3) == SizeProfile(3, (2, 2, 1), 1)
    assert profile_of(partition_structure([4]), 2) == SizeProfile(2, (0, 0), 1)


def test_profile_rejects_non_equivalences():
    bad = FiniteStructure(2, {}, {"E": frozenset({(0, 1), (1, 0)})})
    with pytest.raises(NotAnEquivalenceError):
        profile_of(bad, 2)


def test_rank2_profiles_realize_and_roundtrip():
    count = 0
    for p in enumerate_profiles(2):
        m = realize_profile(p)
        assert profile_of(m, 2) == p
        count += 1
    # every counts-vector in {0,1,2}^3 except all-zero
    assert count == 26


def test_empty_profile_cannot_realize():
    with pytest.raises(ProfileError):
        realize_profile(SizeProfile(2, (0, 0), 0))


def test_decide_trichotomy_golden():
    pair = parse_pair_spec("finite B={2} C={3}")
    kinds = tuple(decide(phi, pair, 0).kind for phi in (PHI2, PHI3, PHI5))
    assert kinds == ("provable", "refutable", "independent")
    d5 = decide(PHI5, pair, 0)
    assert d5.example_true.small[4] == 1
    assert d5.example_false.small[4] == 0


def test_decide_against_exhaustive_structures():
    structures = []
    for n in range(1, 9):
        for blocks in partitions(n):
            counts = {}
            for b in blocks:
                counts[b] = counts.get(b, 0) + 1
            if any(c > 1 for c in counts.values()):
                continue
            if counts.get(2, 0) != 1 or counts.get(3, 0) != 0:
                continue
            structures.append(partition_structure(blocks))
    assert len(structures) == 7
    assert all(eval_formula(m, PHI2) for m in structures)
    assert not any(eval_formula(m, PHI3) for m in structures)
    assert {eval_formula(m, PHI5) for m in structures} == {True, False}


def test_decide_on_open_pair_is_unknown_when_mixed():
    d = decide(PHI5, canonical_pair(), 3)
    assert d.kind == "unknown"
    assert d.stage == 3


def test_decide_stage_soundness():
    cp = canonical_pair()
    sentences = [PHI2, PHI3, size_exists(1),
                 eq("(exists x (exists y (not (E x y))))")]
    for phi in sentences:
        last = None
        for stage in (0, 2, 5, 9, 14):
            kind = decide(phi, cp, stage).kind
            if last in ("provable", "refutable"):
                assert kind == last
            last = kind


def test_admissible_profiles_respect_oracle():
    pair = parse_pair_spec("finite B={2} C={3}")
    for p in admissible_profiles(3, pair, 0):
        assert p.small[1] == 1  # a size-2 class is forced
        assert p.small[2] == 0  # size-3 classes are banned


def test_normal_form_of_constants():
    nf_true = normal_form(eq("true"), 0)
    assert nf_true.rank == 1
    assert len(nf_true.disjuncts) == 3
    nf_false = normal_form(eq("false"), 0)
    assert nf_false.disjuncts == ()


def test_normal_form_golden_size():
    nf = normal_form(PHI2, rank(PHI2))
    assert len(nf.disjuncts) == 192
    for d in nf.disjuncts:
        lit = d[1]
        assert lit.size == 2 and lit.count >= 1


def test_normal_form_agrees_with_eval():
    cases = ((PHI2, 3), (eq("(exists x (exists y (not (E x y))))"), 2),
             (size_exists(1), 2),
             (eq("(forall x (forall y (E x y)))"), 2))
    for phi, r in cases:
        nf = normal_form(phi, r)
        for n in range(1, 9):
            for blocks in partitions(n):
                m = partition_structure(blocks)
                assert nf.holds_in(m) == eval_formula(m, phi), (phi, blocks)


def test_normal_form_rank_precondition():
    with pytest.raises(ProfileError):
        normal_form(PHI2, 2)


# --- generated sentences ---------------------------------------------------------

_NAMES = ("x", "y", "z")
_CONNECTIVES = {"and": And, "or": Or, "->": Implies}


@st.composite
def sentences(draw, max_rank=3, depth=5):
    """Sentences over E and = of rank at most max_rank.

    Atoms use only variables in scope, so every draw is closed. Binders take
    any of three names, so they may shadow one another, and an inner
    quantifier sees every name bound above it.
    """
    def formula(q, bound, depth):
        options = ["constant"]
        if bound:
            options += ["E", "E", "="]
        if depth:
            options += ["not", "and", "or", "->"]
            if q:
                options += ["forall", "exists"] * 3
        kind = draw(st.sampled_from(options))
        if kind == "constant":
            return draw(st.sampled_from([TRUE, FALSE]))
        if kind in ("E", "="):
            a, b = (Var(draw(st.sampled_from(sorted(bound)))) for _ in range(2))
            return Rel("E", (a, b)) if kind == "E" else Eq(a, b)
        if kind == "not":
            return Not(formula(q, bound, depth - 1))
        if kind in _CONNECTIVES:
            return _CONNECTIVES[kind](formula(q, bound, depth - 1),
                                      formula(q, bound, depth - 1))
        v = draw(st.sampled_from(_NAMES))
        quantifier = ForAll if kind == "forall" else Exists
        return quantifier(v, formula(q - 1, bound | {v}, depth - 1))

    return formula(max_rank, frozenset(), depth)


SHADOWED = eq("(forall x (exists x (exists y (and (E x y) (not (= x y))))))")
TWO_FREE = eq("(exists x (forall y (or (= x y) (exists z (and (E z x) (not (E z y)))))))")
FOUR_DEEP = eq("(forall x (exists y (and (E x y) (forall z (exists w "
               "(and (E z w) (and (not (= w x)) (not (= w y)))))))))")

# every capped size, block counts past every cap, and a class too big to list
_block_lists = st.lists(st.sampled_from([1, 2, 3, 4, 5, 10 ** 9]), min_size=1, max_size=4)


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4), sentences())
@example([2, 1], SHADOWED)
@example([3, 1, 2], TWO_FREE)
def test_block_evaluator_matches_direct(blocks, phi):
    m = partition_structure(blocks)
    assert eval_on_blocks(tuple(blocks), phi) == eval_formula(m, phi)


@settings(max_examples=120)
@given(sentences(max_rank=4), st.lists(_block_lists, min_size=2, max_size=5))
@example(SHADOWED, [[3], [4], [3, 4], [4, 4], [10 ** 9, 3]])
@example(TWO_FREE, [[1, 3], [1, 4], [2, 3, 4], [2, 4, 4], [3, 3, 3]])
@example(FOUR_DEEP, [[4], [5], [4, 1], [5, 1], [10 ** 9, 2], [4, 4, 2]])
def test_memoized_game_matches_the_plain_game(phi, block_lists):
    """One memo shared over several block lists, as a decide or normal_form call shares it."""
    memo = (_read_sentence(phi)[3], {})
    for blocks in block_lists:
        assert eval_on_blocks(blocks, phi, _memo=memo) == eval_on_blocks(blocks, phi), blocks


def test_states_alike_below_the_cap_share_entries():
    phi = size_exists(1)  # rank 2: classes of 2, 3 and 10**9 elements look alike
    memo = (_read_sentence(phi)[3], {})
    assert not eval_on_blocks((2, 3), phi, _memo=memo)
    entries = len(memo[1])
    assert entries > 0
    for blocks in ((3, 2), (10 ** 9, 2), (2, 2, 2, 3)):
        assert not eval_on_blocks(blocks, phi, _memo=memo)
        assert len(memo[1]) == entries
    assert eval_on_blocks((1, 3), phi, _memo=memo)
    assert len(memo[1]) > entries


# --- decide and normal_form against the prelude and loop they replaced -----------

def old_prelude(phi):
    """Relation name, free variables and rank, read in four walks as before."""
    names = set()
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
    rel = names.pop() if names else "E"
    return rel, free_variables(phi), max(len(bound) for _, bound in walk(phi))


def plain_decide(phi, pair, stage):
    rel, free, r = old_prelude(phi)
    if free:
        raise WrongLanguageError("decide wants a sentence, not an open formula")
    values = [(p, eval_on_blocks(_profile_blocks(p), phi, rel))
              for p in admissible_profiles(max(r, 1), pair, stage)]
    example_true = next((p for p, v in values if v), None)
    example_false = next((p for p, v in values if not v), None)
    if example_true is not None and example_false is not None:
        kind = "independent" if pair.finite else "unknown"
        return eqdecide.Decision(kind, stage, example_true, example_false)
    if example_false is None:
        return eqdecide.Decision("provable", stage, example_true, None)
    return eqdecide.Decision("refutable", stage, None, example_false)


def plain_normal_form(phi, r):
    rel, free, actual = old_prelude(phi)
    if free:
        raise WrongLanguageError("normal_form wants a sentence")
    if r < actual:
        raise ProfileError(f"rank {r} below the sentence's rank {actual}")
    r = max(r, 1)
    return eqdecide.NormalForm(r, tuple(
        _profile_literals(p) for p in enumerate_profiles(r)
        if eval_on_blocks(_profile_blocks(p), phi, rel)))


def outcome(fn, *args):
    try:
        return fn(*args)
    except (WrongLanguageError, ProfileError) as exc:
        return type(exc), str(exc)


@st.composite
def prelude_formulas(draw):
    """Formulas that may break every rule the prelude checks, in any order."""
    def term(depth):
        if depth == 0 or draw(st.integers(0, 3)):
            return Var(draw(st.sampled_from(_NAMES)))
        return App(draw(st.sampled_from(["S", "f"])), (term(depth - 1),))

    def formula(depth):
        kind = draw(st.integers(0, 7 if depth else 2))
        if kind == 0:
            name = draw(st.sampled_from(["E", "E", "E", "P"]))
            arity = draw(st.sampled_from([2, 2, 2, 1, 3]))
            return Rel(name, tuple(term(1) for _ in range(arity)))
        if kind == 1:
            return Eq(term(1), term(1))
        if kind == 2:
            return draw(st.sampled_from([TRUE, FALSE]))
        if kind == 3:
            return Not(formula(depth - 1))
        if kind in (4, 5):
            return (And, Or)[kind - 4](formula(depth - 1), formula(depth - 1))
        quantifier = ForAll if kind == 6 else Exists
        return quantifier(draw(st.sampled_from(_NAMES)), formula(depth - 1))

    return formula(3)


_PAIRS = (parse_pair_spec("finite B={2} C={3}"), parse_pair_spec("finite B={1,3} C={2}"),
          parse_pair_spec("finite B={} C={}"), canonical_pair())

_x, _y = Var("x"), Var("y")


@given(prelude_formulas() | sentences(), st.integers(0, len(_PAIRS) - 1), st.integers(0, 9))
@example(And(Rel("E", (_x, _y)), Rel("P", (_y, _x))), 0, 0)        # mixed relations, free
@example(Or(Rel("P", (_x,)), Eq(App("S", (_x,)), _y)), 0, 0)       # arity first, then a term
@example(And(Rel("E", (_x, _x)), Rel("P", (App("S", (_x,)), _y))), 0, 0)  # a term wins
@example(Rel("E", (_x, _y, _x)), 0, 0)                             # arity three
@example(ForAll("x", Rel("P", (_x, _x))), 1, 0)                    # another relation name
def test_decide_matches_the_old_prelude_and_the_plain_loop(phi, pair, stage):
    pair = _PAIRS[pair]
    assert outcome(decide, phi, pair, stage) == outcome(plain_decide, phi, pair, stage)


@settings(max_examples=40)
@given(prelude_formulas() | sentences(), st.integers(0, 3))
@example(And(Rel("E", (_x, _y)), Rel("P", (_y, _x))), 2)
@example(Exists("x", Exists("y", Rel("E", (_x, App("f", (_y,)))))), 0)
@example(SHADOWED, 3)
@example(size_exists(1), 3)
def test_normal_form_matches_the_old_prelude_and_the_plain_loop(phi, r):
    got = outcome(normal_form, phi, r)
    assert got == outcome(plain_normal_form, phi, r)
    if isinstance(got, eqdecide.NormalForm):
        assert got.render() == plain_normal_form(phi, r).render()


def test_normal_form_refuses_ranks_above_the_bound():
    with pytest.raises(ProfileError, match=f"above the largest supported rank {MAX_RANK}"):
        normal_form(eq("true"), MAX_RANK + 1)
    with pytest.raises(ProfileError, match="below the sentence's rank 3"):
        normal_form(PHI2, 2)  # the older refusal still comes first


def test_no_memo_outlives_its_call(monkeypatch, request):
    # with the collector off, only reference counting can free a game, so a
    # reference cycle left behind by a call keeps its memo alive
    gc.disable()
    request.addfinalizer(gc.enable)

    def container_sizes():
        return {name: len(value) for name, value in vars(eqdecide).items()
                if not name.startswith("__") and isinstance(value, (dict, list, set))}

    memos = []
    plain = eqdecide.eval_on_blocks

    def spy(blocks, phi, rel="E", *, _memo=None):
        memos.append(_memo)
        return plain(blocks, phi, rel, _memo=_memo)

    monkeypatch.setattr(eqdecide, "eval_on_blocks", spy)
    pair = parse_pair_spec("finite B={1} C={3}")
    calls = [(decide, PHI2, pair, 0), (decide, PHI3, canonical_pair(), 4),
             (decide, SHADOWED, pair, 0), (normal_form, size_exists(1), 3),
             (normal_form, TWO_FREE, 3)]
    before = container_sizes()
    first = [fn(*args) for fn, *args in calls]
    assert container_sizes() == before
    assert [fn(*args) for fn, *args in calls] == first
    assert container_sizes() == before
    assert all(memo is not None for memo in memos)
    assert len({id(memo) for memo in memos}) == 2 * len(calls)
    for memo in memos:
        for part in memo:  # only the spy's list holds the memo, nothing in eqdecide
            assert [r is memo for r in gc.get_referrers(part)] == [True]


def test_block_evaluator_handles_huge_classes():
    # cost tracks rank, not class size
    phi = eq("(forall x (exists y (and (E x y) (not (= x y)))))")
    assert eval_on_blocks((10 ** 9,), phi)
    assert not eval_on_blocks((1, 10 ** 9), phi)
