"""Counter machines and staged enumeration pairs."""

from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from weakarith.errors import FormatError
from weakarith.machines import (
    _DENSE_REGISTERS,
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
    assert pair.side_of(2, 0) == "right"
    assert pair.side_of(4, 0) is None


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
            assert pair.side_of(n, stage) == (
                "left" if n in left else "right" if n in right else None)


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


# inputs are mostly positive, every run gets at least one chunk, and some
# programs are the loop-shaped ones of the acceleration tests below, so loops
# run long enough to be accelerated and to leave an accelerated stretch
_inputs = st.integers(0, 30)
_chunks = st.lists(st.integers(0, 300), min_size=1, max_size=8)
_some_looping = st.deferred(lambda: _looping)
# copies r1 into r0 in three steps a pass, so it halts after exactly 3x + 1
_TRANSFER = Program((decjz(1, 3), inc(0), decjz(2, 0), ("halt",)))
_TRANSFER_EXAMPLE = dict(instrs=_TRANSFER.instructions, x=7, chunks=[40])


@given(st.one_of(st.lists(_instructions, max_size=7).map(tuple), _some_looping),
       _inputs, _chunks)
@example(**_TRANSFER_EXAMPLE)
def test_resumed_run_ends_where_one_shot_run_ends(instrs, x, chunks):
    program = Program(instrs)
    resumed = MachineRun(program, x)
    for chunk in chunks:
        got = resumed.advance(chunk)
    total = sum(chunks)
    one_shot = MachineRun(program, x)
    want = one_shot.advance(total)
    assert want == run_bounded(program, x, total)
    assert got == want
    assert (resumed.pc, resumed.registers, resumed.steps) == \
        (one_shot.pc, one_shot.registers, one_shot.steps)
    state, plain = _reference_advance((0, MachineRun(program, x).registers, 0), instrs, total)
    assert (one_shot.pc, one_shot.registers, one_shot.steps) == state
    assert want == plain


# registers 2 and 3 renamed past the dense ones, out of their order
_FAR = {2: 10**20, 3: _DENSE_REGISTERS + 7}


@given(st.one_of(st.lists(_instructions, max_size=7).map(tuple), _some_looping),
       _inputs, _chunks)
@example(**_TRANSFER_EXAMPLE)
def test_far_registers_run_in_the_slots_after_the_dense_ones(instrs, x, chunks):
    renamed = tuple((op[0], _FAR.get(op[1], op[1]), *op[2:]) if len(op) > 1 else op
                    for op in instrs)
    near, far = MachineRun(Program(instrs), x), MachineRun(Program(renamed), x)
    named = sorted({op[1] for op in instrs if len(op) > 1} & set(_FAR), key=_FAR.get)
    if named:
        assert len(far.registers) == _DENSE_REGISTERS + len(named)
    else:
        assert far.registers == near.registers
    for chunk in chunks:
        assert far.advance(chunk) == near.advance(chunk)
        assert (far.pc, far.steps, far.never_halts) == (near.pc, near.steps, near.never_halts)
        assert far.registers[:2] == near.registers[:2]
        assert far.registers[_DENSE_REGISTERS:] == [near.registers[r] for r in named]


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


@given(st.one_of(_with_self_jumps, _some_looping), _inputs, _chunks)
@example(**_TRANSFER_EXAMPLE)
def test_self_jump_fast_forward_matches_plain_stepping(instrs, x, chunks):
    run = MachineRun(Program(instrs), x)
    state = (0, list(run.registers), 0)
    for chunk in chunks:
        got = run.advance(chunk)
        state, want = _reference_advance(state, instrs, chunk)
        assert got == want
        assert (run.pc, run.registers, run.steps) == state


# --- loop acceleration ----------------------------------------------------------

def _placed(ops):
    """Ops with jumps given as offsets: 'back' k jumps k instructions back."""
    n = len(ops)
    return tuple(("decjz", op[1], max(0, i - op[2])) if op[0] == "back"
                 else ("decjz", op[1], min(n, i + op[2])) if op[0] == "fwd"
                 else op for i, op in enumerate(ops))


_ZERO = 3  # never incremented, so a decjz on it is a plain jump


def _compiled(block, out):
    """Append the instructions of a block of structured statements to `out`."""
    for stmt in block:
        at = len(out)
        if stmt[0] == "while":  # at: decjz r end; body; jump at
            out.append(None)
            _compiled(stmt[2], out)
            out.append(("decjz", _ZERO, at))
            out[at] = ("decjz", stmt[1], len(out))
        elif stmt[0] == "ifz":  # at: decjz r then; else body; jump end; then body
            out.append(None)
            _compiled(stmt[3], out)
            jump = len(out)
            out.append(None)
            out[at] = ("decjz", stmt[1], len(out))
            _compiled(stmt[2], out)
            out[jump] = ("decjz", _ZERO, len(out))
        elif stmt[0] == "loop":  # body; jump at
            _compiled(stmt[1], out)
            out.append(("decjz", _ZERO, at))
        else:
            out.append(stmt)
    return out


_blocks = st.recursive(
    st.one_of(st.tuples(st.just("inc"), st.integers(0, 2)), st.just(("halt",))),
    lambda inner: st.one_of(
        st.tuples(st.just("while"), st.integers(0, 2), st.lists(inner, max_size=3)),
        st.tuples(st.just("ifz"), st.integers(0, 2),
                  st.lists(inner, max_size=3), st.lists(inner, max_size=3)),
        st.tuples(st.just("loop"), st.lists(inner, max_size=3)),
    ),
    max_leaves=10,
)

_looping = st.one_of(
    st.lists(
        st.one_of(
            st.tuples(st.just("inc"), st.integers(0, 3)),
            st.tuples(st.just("back"), st.integers(0, 3), st.integers(0, 7)),
            st.tuples(st.just("back"), st.integers(0, 3), st.integers(0, 7)),
            st.tuples(st.just("fwd"), st.integers(0, 3), st.integers(1, 8)),
            st.just(("halt",)),
        ),
        min_size=1, max_size=8,
    ).map(_placed),
    st.lists(_blocks, min_size=1, max_size=4).map(lambda block: tuple(_compiled(block, []))),
)


@settings(max_examples=200)
@given(_looping, st.integers(0, 50), st.lists(st.integers(0, 3000), min_size=1, max_size=6))
# a loop whose passes alternate between the zero and nonzero branch of one
# test, which drawn programs rarely reach
@example(instrs=(("decjz", 0, 2), ("decjz", 3, 3), ("inc", 0), ("decjz", 3, 0)),
         x=0, chunks=[100])
@example(instrs=_TRANSFER.instructions, x=50, chunks=[150, 1, 1])
def test_accelerated_loops_match_plain_stepping(instrs, x, chunks):
    # backward targets close loops, nested ones too; a run that claims it
    # never halts must still be running 5,000 steps later
    run = MachineRun(Program(instrs), x)
    state = (0, list(run.registers), 0)
    for chunk in chunks:
        got = run.advance(chunk)
        state, want = _reference_advance(state, instrs, chunk)
        assert got == want
        assert (run.pc, run.registers, run.steps) == state
        if run.never_halts:
            assert got is None
            later = (state[0], list(state[1]), state[2])
            assert _reference_advance(later, instrs, 5000)[1] is None


@pytest.mark.parametrize("x", [0, 1, 2, 3, 17, 50, 10**6])
def test_transfer_loop_halts_after_exactly_3x_plus_1_steps(x):
    run = MachineRun(_TRANSFER, x)
    assert run.advance(3 * x) is None
    assert (run.pc, run.registers, run.steps) == (0, [x, 0, 0], 3 * x)
    assert run.advance(1) == x and run.steps == 3 * x + 1
    assert run_bounded(_TRANSFER, x, 3 * x) is None
    assert run_bounded(_TRANSFER, x, 3 * x + 1) == x
    assert not run.never_halts


def test_dropped_runs_never_halt():
    pair = canonical_pair()
    for stage in range(0, 401, 40):
        pair.check_stage(stage)
    entered = set(pair.left.at(400) | pair.right.at(400))
    retired = 0
    for e in range(401):
        if e in pair._record.runs or e in entered:
            continue
        program = decode_program(e)
        start = (0, MachineRun(program, e).registers, 0)
        (_, _, used), out = _reference_advance(start, program.instructions, 5000)
        # dropped: halted by stage 400 with an output of neither side, or retired
        if out is None:
            retired += 1
        else:
            assert used <= 400 and out not in (0, 1)
    assert retired > 100
    pair.check_stage(600)
    assert len(pair._record.runs) < 20
