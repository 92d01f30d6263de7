"""Counter machines and staged enumeration pairs."""

from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from weakarith.errors import FormatError
from weakarith.machines import (
    MachineRun,
    Program,
    StageDisjointnessError,
    canonical_pair,
    decjz,
    decode_program,
    encode_program,
    inc,
    parse_pair_spec,
    parse_program,
    run_bounded,
)


def test_empty_program_halts_immediately():
    assert run_bounded(Program(()), 9, 0) == 0


def test_golden_program_codes():
    # code 1 is the bare halt, code 5 is inc-then-halt
    p0 = decode_program(1)
    assert run_bounded(p0, 0, 10) == 0
    p1 = decode_program(5)
    assert run_bounded(p1, 0, 10) == 1


def test_golden_loop_code():
    looper = decode_program(6216)
    assert run_bounded(looper, 0, 10_000) is None


def test_run_bounded_budget_is_tight():
    prog = parse_program("inc 0\ninc 0\nhalt\n")
    assert run_bounded(prog, 0, 1) is None
    assert run_bounded(prog, 0, 2) == 2


def test_decjz_semantics():
    # copy r1 into r0 by repeated decrement
    prog = Program((decjz(1, 3), inc(0), decjz(2, 0)))
    assert run_bounded(prog, 5, 100) == 5


def test_program_codec_roundtrip():
    # decode then encode need not restore a raw code, but decode of the
    # re-encoding must land on the same program
    for code in range(200):
        prog = decode_program(code)
        assert decode_program(encode_program(prog)) == prog
    prog = Program((inc(2), decjz(0, 4), ("halt",), inc(0)))
    assert decode_program(encode_program(prog)) == prog


def test_program_text_parses_to_instructions():
    text = "inc 2\ndecjz 0 4\nhalt\ninc 0"
    assert parse_program(text) == Program((inc(2), decjz(0, 4), ("halt",), inc(0)))


def test_parse_program_rejects_junk():
    from weakarith.errors import FormatError
    for bad in ["inc\n", "dec 0\n", "decjz 1\n", "inc x\n"]:
        with pytest.raises(FormatError):
            parse_program(bad)


@pytest.mark.parametrize("line", ["inc -3", "decjz 0 -5", "decjz -1 0"])
def test_parse_program_rejects_negative_numbers(line):
    # a negative target used to index from the end of the program, and a
    # negative register read the last register
    with pytest.raises(FormatError) as err:
        parse_program(f"inc 0\n{line}\nhalt\n")
    assert str(err.value) == f"line 2: bad instruction {line!r}"


def test_pair_spec_names_an_element_that_is_not_a_number():
    with pytest.raises(FormatError) as err:
        parse_pair_spec("finite B={1 2} C={}")
    assert str(err.value) == "bad element '1 2' in pair spec 'finite B={1 2} C={}'"
    # empty and padded elements are skipped or trimmed, as before
    pair = parse_pair_spec("finite B={1,,2} C={ 3 ,}")
    assert pair.left.at(0) == {1, 2} and pair.right.at(0) == {3}


def test_finite_stage_set_ignores_stage():
    s = parse_pair_spec("finite B={1,4} C={}").left
    assert s.at(0) == {1, 4}
    assert s.at(99) == {1, 4}


def test_pair_spec_reads_finite_sides():
    pair = parse_pair_spec("finite B={1,2} C={4}")
    assert pair.finite
    assert pair.left.at(0) == {1, 2}
    assert pair.right.at(0) == {4}


def test_pair_spec_rejects_overlap():
    with pytest.raises(StageDisjointnessError):
        parse_pair_spec("finite B={1} C={1}").check_stage(0)


def test_membership_trichotomy():
    pair = parse_pair_spec("finite B={1} C={2}")
    assert pair.query("left", 1, 0).status == "in"
    assert pair.query("left", 2, 0).status == "out"
    assert pair.query("right", 2, 0).status == "in"


def test_canonical_pair_goldens():
    pair = canonical_pair()
    assert not pair.finite
    # the bare halt outputs 0, inc-then-halt outputs 1
    assert 1 in pair.left.at(10)
    assert 5 in pair.right.at(10)
    assert 6216 not in pair.left.at(50) | pair.right.at(50)


def test_canonical_pair_monotone_and_disjoint():
    pair = canonical_pair()
    prev_l, prev_r = set(), set()
    for stage in range(0, 120, 7):
        l, r = pair.left.at(stage), pair.right.at(stage)
        assert prev_l <= l and prev_r <= r
        assert not (l & r)
        pair.check_stage(stage)
        prev_l, prev_r = l, r


def test_answers_do_not_flip():
    pair = canonical_pair()
    fixed = {}
    for stage in range(0, 60, 5):
        for n in range(8):
            got = pair.query("left", n, stage).status
            if n in fixed and fixed[n] == "in":
                assert got == "in"
            if got == "in":
                fixed[n] = "in"


# --- differential checks against the plain definitions -----------------------

@lru_cache(maxsize=None)
def _brute_sides(stage):
    """Both canonical sides at a stage, each program run from scratch."""
    outs = {e: run_bounded(decode_program(e), e, stage) for e in range(stage + 1)}
    return (frozenset(e for e, out in outs.items() if out == 0),
            frozenset(e for e, out in outs.items() if out == 1))


@given(st.lists(st.integers(min_value=0, max_value=150), min_size=1, max_size=6))
def test_canonical_pair_matches_brute_force_in_any_order(stages):
    pair = canonical_pair()
    for stage in stages:
        left, right = _brute_sides(stage)
        assert pair.left.at(stage) == left
        assert pair.right.at(stage) == right
        for n in range(stage + 2):
            for side, members in (("left", left), ("right", right)):
                want = "in" if n in members else "unknown"
                assert pair.query(side, n, stage).status == want


def test_late_halter_enters_at_its_halt_step():
    # program 270 halts with output 0 after 541 steps on input 270; it is the
    # least index whose entry stage max(e, halt step) is not e itself
    pair = canonical_pair()
    assert 270 in pair.left.at(600)
    for stage in (540, 541):
        left, right = _brute_sides(stage)
        assert pair.left.at(stage) == left
        assert pair.right.at(stage) == right
    assert 270 not in pair.left.at(540)
    assert pair.query("left", 270, 540).status == "unknown"
    assert pair.query("left", 270, 541).status == "in"


_instructions = st.one_of(
    st.just(("halt",)),
    st.tuples(st.just("inc"), st.integers(0, 3)),
    st.tuples(st.just("decjz"), st.integers(0, 3), st.integers(0, 7)),
)


@given(st.lists(_instructions, max_size=7), st.integers(0, 5),
       st.lists(st.integers(0, 40), max_size=8))
def test_resumed_run_ends_where_one_shot_run_ends(instrs, x, chunks):
    program = Program(tuple(instrs))
    resumed = MachineRun(program, x)
    for chunk in chunks:
        got = resumed.advance(chunk)
    total = sum(chunks)
    one_shot = MachineRun(program, x)
    want = one_shot.advance(total)
    assert want == run_bounded(program, x, total)
    if chunks:
        assert got == want
    assert (resumed.pc, resumed.registers, resumed.steps) == \
        (one_shot.pc, one_shot.registers, one_shot.steps)


def _reference_advance(state, instrs, steps):
    """One instruction per step, as the machine model defines it."""
    pc, regs, used = state
    while pc < len(instrs) and instrs[pc][0] != "halt":
        if steps == 0:
            return (pc, regs, used), None
        steps -= 1
        used += 1
        op = instrs[pc]
        if op[0] == "inc":
            regs[op[1]] += 1
            pc += 1
        elif regs[op[1]] == 0:
            pc = op[2]
        else:
            regs[op[1]] -= 1
            pc += 1
    return (pc, regs, used), regs[0]


_with_self_jumps = st.lists(
    st.one_of(_instructions, st.tuples(st.just("self"), st.integers(0, 3))),
    min_size=1, max_size=7,
).map(lambda ops: tuple(("decjz", op[1], i) if op[0] == "self" else op
                        for i, op in enumerate(ops)))


@given(_with_self_jumps, st.integers(0, 5), st.lists(st.integers(0, 40), max_size=8))
def test_self_jump_fast_forward_matches_plain_stepping(instrs, x, chunks):
    run = MachineRun(Program(instrs), x)
    state = (0, list(run.registers), 0)
    for chunk in chunks:
        got = run.advance(chunk)
        state, want = _reference_advance(state, instrs, chunk)
        assert got == want
        assert (run.pc, run.registers, run.steps) == state
