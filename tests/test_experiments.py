"""Independence hunts and essential-undecidability stress runs."""

import pytest
from hypothesis import given, strategies as st

from weakarith import experiments
from weakarith.eqdecide import decide
from weakarith.experiments import (
    DONT_KNOW,
    PROVABLE,
    REFUTABLE,
    DeciderHandle,
    DeciderInconsistencyError,
    classify_predicate_literal,
    equivalence_decider,
    independence_search,
    predicate_atom,
    proof_search_decider,
    stress_essential_undecidability,
    table_decider,
)
from weakarith.machines import canonical_pair, parse_pair_spec
from weakarith.syntax import Not
from weakarith.theories import get_theory, make_u_theory, size_exists


def test_predicate_literal_classifier():
    assert classify_predicate_literal(predicate_atom(3)) == (3, True)
    assert classify_predicate_literal(Not(predicate_atom(0))) == (0, False)
    # only single negations count as literals
    assert classify_predicate_literal(Not(Not(predicate_atom(0)))) is None


def test_table_decider_finds_first_gap():
    pair = parse_pair_spec("finite A={1} B={2}")
    report = independence_search(pair, table_decider(pair, 0), 10, stage=0)
    assert report.witness == 0
    assert report.x_set == (1,)
    assert report.y_set == (2,)
    assert report.positive == predicate_atom(0)
    assert report.negative == Not(predicate_atom(0))
    assert report.conflicts == ()
    assert not report.exhausted
    # the witness must sit outside both computed sides
    assert report.witness not in set(report.x_set) | set(report.y_set)


def test_overeager_decider_exhausts_with_conflicts():
    pair = parse_pair_spec("finite A={1} B={2}")

    def always_yes(phi):
        got = classify_predicate_literal(phi)
        return PROVABLE if got and got[1] else DONT_KNOW

    handle = DeciderHandle("always-yes", 0, always_yes)
    report = independence_search(pair, handle, 4, stage=0)
    assert report.witness is None
    assert report.exhausted
    assert any("against oracle" in c for c in report.conflicts)


def test_self_contradicting_decider_aborts():
    pair = parse_pair_spec("finite A={1} B={2}")
    liar = DeciderHandle("liar", 0, lambda phi: PROVABLE)
    with pytest.raises(DeciderInconsistencyError):
        independence_search(pair, liar, 3)


def test_proof_search_decider_on_canonical_pair():
    pair = canonical_pair()
    theory = make_u_theory(pair)
    decider = proof_search_decider(theory, 60)
    assert decider.name == "proof-search:U"
    report = independence_search(pair, decider, 6, stage=8)
    assert report.witness == 4
    assert report.x_set == (0, 1, 2)
    assert report.y_set == (3,)
    assert report.conflicts == ()
    assert report.witness not in set(report.x_set) | set(report.y_set)


def test_stress_equivalence_theory_against_finite_oracle():
    pair = parse_pair_spec("finite B={2} C={3}")
    theory = get_theory("E:finite B={2} C={3}")
    decider = equivalence_decider(pair, 0)
    report = stress_essential_undecidability(theory, decider, 5, axiom_scan=60)
    by_n = {row.n: row.answer for row in report.rows}
    assert by_n[2] == PROVABLE
    assert by_n[3] == REFUTABLE
    assert by_n[5] == DONT_KNOW
    assert 5 in report.unanswered
    assert report.inconsistent == ()


def test_stress_staged_theory_with_bounded_proofs():
    theory = get_theory("U:finite A={1} B={2}")
    decider = proof_search_decider(theory, 40)
    report = stress_essential_undecidability(theory, decider, 4, axiom_scan=40)
    assert report.theory.startswith("U:")
    assert [(row.n, row.answer) for row in report.rows] == [
        (1, PROVABLE),
        (2, REFUTABLE),
        (3, DONT_KNOW),
        (4, DONT_KNOW),
    ]
    assert report.unanswered == (3, 4)
    assert report.inconsistent == ()


def test_stress_flags_decider_that_refutes_an_axiom():
    theory = get_theory("U:finite A={1} B={2}")

    def fault(phi):
        return REFUTABLE if phi == predicate_atom(1) else DONT_KNOW

    handle = DeciderHandle("fault", 0, fault)
    report = stress_essential_undecidability(theory, handle, 3, axiom_scan=40)
    assert any(n == 1 for n, _ in report.inconsistent)
    assert any(row.note == "conflicts axiom" for row in report.rows)


def _memo_free_equivalence_decider(pair, stage):
    """experiments.equivalence_decider as it was: one decide per ask."""
    def fn(phi):
        positive = True
        got = classify_predicate_literal(phi)
        if got is not None:
            n, positive = got
            phi = size_exists(n)
        verdict = decide(phi, pair, stage).kind
        if verdict == PROVABLE:
            return PROVABLE if positive else REFUTABLE
        if verdict == REFUTABLE:
            return REFUTABLE if positive else PROVABLE
        return DONT_KNOW

    return DeciderHandle("equivalence", stage, fn)


def _decide_calls(monkeypatch):
    calls = []

    def spy(phi, pair, stage):
        calls.append(phi)
        return decide(phi, pair, stage)

    monkeypatch.setattr(experiments, "decide", spy)
    return calls


def _check_one_decide_per_index(monkeypatch, pair, stage, n_max):
    calls = _decide_calls(monkeypatch)
    got = independence_search(pair, equivalence_decider(pair, stage), n_max, stage)
    assert calls == [size_exists(n) for n in range(n_max + 1)]
    want = independence_search(pair, _memo_free_equivalence_decider(pair, stage),
                               n_max, stage)
    assert got == want


@given(st.lists(st.sampled_from(["B", "C", None]), max_size=6),
       st.integers(0, 3), st.integers(0, 3))
def test_equivalence_decider_decides_each_index_once(sides, stage, n_max):
    spec = "finite " + " ".join(
        f"{side}={{{','.join(str(n) for n, s in enumerate(sides) if s == side)}}}"
        for side in "BC")
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_one_decide_per_index(monkeypatch, parse_pair_spec(spec), stage, n_max)


@pytest.mark.parametrize("stage", [0, 5, 40, 300])
def test_equivalence_decider_decides_each_index_once_on_the_canonical_pair(
        monkeypatch, stage):
    _check_one_decide_per_index(monkeypatch, canonical_pair(), stage, 3)
