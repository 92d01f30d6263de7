"""Counter machines, program numbering, and staged oracle pairs.

Machine model: registers r0, r1, ... hold naturals; the input goes in r1 and
the output is read from r0. Instructions:

    inc r        increment register r
    decjz r t    if register r is zero jump to instruction t, else decrement
    halt         stop

Program counter past the last instruction also halts. Executed inc/decjz
instructions each cost one step; reaching halt (or falling off the end) is
free, so the empty program halts within 0 steps. A `MachineRun` holds the
state of one run (program counter, registers, steps used) and can stop after
any number of steps and resume later; `run_bounded` is a fresh run.

Loop acceleration. Only the zero branch of a `decjz` can move the program
counter backward, so every loop closes with such a jump, to some target t.
From one backward jump to t to the next, the run records one iteration: its
length L in steps, the register delta D over it, and each `decjz` test on
the way as (register, value). The i-th iteration after it takes the same path
and adds D again as long as every zero test stays zero (D[r] = 0) and every
nonzero test with value v stays nonzero (v + i*D[r] >= 1). So the next
k = min(budget // L, (v - 1) // -D[r] over the nonzero tests with D[r] < 0)
iterations, or none if a zero-tested register has D[r] != 0, are taken in one
jump (registers += k*D, budget -= k*L), and the run steps on from there.
Between two backward jumps the counter only moves forward, so an iteration
runs each instruction at most once and its record stays that small. Each jump
lands where plain stepping would, so the state after any budget, split into
any resumed chunks, is exactly plain stepping's. When no test bounds k (every
zero-tested register has D = 0 and every nonzero-tested one D >= 0) the loop
repeats forever: the run can never halt, and `never_halts` says so.

Program numbering:

    instr code: halt = 0, inc r = 1 + 2r, decjz r t = 2 + 2*pair(r, t)
    program code = list code of instruction codes (list as in the formula
    numbering: [] = 0, x:rest = pair(x, list(rest)) + 1)

Every natural decodes: code 0 is the empty program (immediate halt, by
convention), and any decoded program whose jump target exceeds the program
length is normalized to the one-instruction halt program.

Staged pairs record each element once, with its side and its entry stage
(the first stage that enumerates it); a side at stage s holds the elements
that entered by s. In the canonical pair program e enters at max(e, halt
step) of its run on input e, left on output 0 and right on output 1. A finite
pair's elements enter at stage 0 and it is complete at every stage. A run
proven never to halt enters neither side, so the canonical pair drops it. Sides
only grow, as entry stages never change, and stay disjoint, as a run halts
once with one output; recording an element on both sides, as an overlapping
finite spec would, raises StageDisjointnessError.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

from .errors import FormatError, WorkbenchError, read_text
from .godel import decode_list, encode_list, pair, unpair

INC = "inc"
DECJZ = "decjz"
HALT = "halt"

Instruction = tuple


@dataclass(frozen=True)
class Program:
    instructions: tuple


def inc(r: int) -> Instruction:
    """Library API: no CLI verb calls it."""
    return (INC, r)


def decjz(r: int, target: int) -> Instruction:
    """Library API: no CLI verb calls it."""
    return (DECJZ, r, target)


HALT_INSTR: Instruction = (HALT,)

# registers below this are their own slot in a run's register list
_DENSE_REGISTERS = 1 << 12


class MachineRun:
    """A run of a program on one input that can stop and resume.

    `registers[r]` is register r for every r below _DENSE_REGISTERS. The
    registers a program names from there up take the slots _DENSE_REGISTERS,
    _DENSE_REGISTERS + 1, ... in increasing order, and `instructions` names
    those slots; so a run of an n-instruction program holds at most
    _DENSE_REGISTERS + n registers, however large the numbers it names.
    """

    __slots__ = ("instructions", "pc", "registers", "steps", "never_halts")

    def __init__(self, program: Program, input_value: int):
        self.instructions = instrs = program.instructions
        size = 2
        for op in instrs:
            if len(op) > 1 and op[1] >= size:
                size = op[1] + 1
        if size > _DENSE_REGISTERS:
            far = sorted({op[1] for op in instrs if len(op) > 1 and op[1] >= _DENSE_REGISTERS})
            slot = {r: _DENSE_REGISTERS + i for i, r in enumerate(far)}
            self.instructions = instrs = tuple(
                (op[0], slot.get(op[1], op[1]), *op[2:]) if len(op) > 1 else op for op in instrs)
            size = _DENSE_REGISTERS + len(far)
        self.registers = [0] * size
        self.registers[1] = input_value
        self.pc = 0
        self.steps = 0
        self.never_halts = False

    def advance(self, steps: int) -> int | None:
        """Run at most `steps` more steps; r0 once the machine has halted, else None."""
        instrs = self.instructions
        n = len(instrs)
        regs = self.registers
        pc = self.pc
        left = steps
        halted = True
        # the iteration being recorded: its start target, registers and budget
        # there, and its decjz tests as (register, value)
        anchor, start, mark, tests = -1, None, 0, []
        while pc < n:
            op = instrs[pc]
            kind = op[0]
            if kind == HALT:
                break
            if left <= 0:
                halted = False
                break
            left -= 1
            if kind == INC:
                regs[op[1]] += 1
                pc += 1
                continue
            r = op[1]
            v = regs[r]
            tests.append((r, v))
            if v:
                regs[r] = v - 1
                pc += 1
                continue
            t = op[2]
            if t > pc:
                pc = t
                continue
            if t == anchor:
                delta = [b - a for a, b in zip(start, regs)]
                length = mark - left
                k = left // length
                bounded = False
                for r, v in tests:
                    d = delta[r]
                    if not v:
                        if d:
                            k = 0
                            bounded = True
                            break
                    elif d < 0:
                        k = min(k, (v - 1) // -d)
                        bounded = True
                if not bounded:
                    self.never_halts = True
                if k > 0:
                    for r, d in enumerate(delta):
                        regs[r] += k * d
                    left -= k * length
            anchor, start, mark, tests = t, regs[:], left, []
            pc = t
        self.pc = pc
        self.steps += steps - left
        return regs[0] if halted else None


def run_bounded(program: Program, input_value: int, steps: int) -> int | None:
    """Run with input in r1 for at most the given number of steps.

    Returns the r0 value when the machine halts within the budget, else None.
    """
    return MachineRun(program, input_value).advance(steps)


def _encode_instruction(op: Instruction) -> int:
    kind = op[0]
    if kind == HALT:
        return 0
    if kind == INC:
        return 1 + 2 * op[1]
    if kind == DECJZ:
        return 2 + 2 * pair(op[1], op[2])
    raise WorkbenchError(f"unknown instruction {op!r}")


def _decode_instruction(code: int) -> Instruction:
    if code == 0:
        return HALT_INSTR
    if code % 2 == 1:
        return (INC, (code - 1) // 2)
    r, t = unpair((code - 2) // 2)
    return (DECJZ, r, t)


def encode_program(program: Program) -> int:
    return encode_list(_encode_instruction(op) for op in program.instructions)


def decode_program(code: int) -> Program:
    """Total decoding; jump targets out of range normalize to immediate halt."""
    instrs = [_decode_instruction(c) for c in decode_list(code)]
    if any(op[0] == DECJZ and op[2] > len(instrs) for op in instrs):
        return Program((HALT_INSTR,))
    return Program(tuple(instrs))


def parse_program(text: str) -> Program:
    """One instruction per line, its operands naturals; blank lines skipped."""
    instrs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        try:
            operands = [int(x) for x in parts[1:]]
            if {HALT: 0, INC: 1, DECJZ: 2}.get(parts[0]) != len(operands) \
                    or min(operands, default=0) < 0:
                raise ValueError
        except ValueError:
            raise FormatError(f"line {lineno}: bad instruction {raw.strip()!r}") from None
        instrs.append((parts[0], *operands))
    return Program(tuple(instrs))


# --- oracle pairs ---------------------------------------------------------

class StageDisjointnessError(WorkbenchError):
    pass


@dataclass(frozen=True)
class Membership:
    """Three-valued oracle answer: 'in', 'out', or 'unknown' at a stage."""

    status: str


class _Record:
    """What the two sides of a pair share, referring to neither of them.

    One (side, entry stage) per element, side 0 left and 1 right; each side's
    entry stages and elements in entry order; and the canonical pair's
    frontier and pending runs. A side and its pair both hold the record, so
    no reference cycle ties a pair to its sides: a side held alone keeps the
    record alive, and a pair let go is freed by reference counting.
    """

    __slots__ = ("finite", "entries", "sides", "frontier", "runs")

    def __init__(self):
        self.finite = True
        self.entries: dict[int, tuple[int, int]] = {}
        self.sides: tuple[tuple[list[int], list[int]], ...] = (([], []), ([], []))
        self.frontier = -1
        self.runs: dict[int, MachineRun] = {}

    def add(self, events: list[tuple[int, int, int]]) -> None:
        """Append (entry stage, element, side) events given in entry order."""
        clash = []
        for stage, e, side in events:
            if e in self.entries:
                clash.append(e)
                continue
            self.entries[e] = (side, stage)
            stages, elements = self.sides[side]
            stages.append(stage)
            elements.append(e)
        if clash:
            raise StageDisjointnessError(f"sides share {sorted(clash)} at stage {stage}")

    def extend(self, stage: int) -> None:
        """Extend the canonical record to `stage`: start the programs above
        the old frontier, resume every pending run up to `stage` steps. A run
        that halts enters above the old frontier, so its event sorts last. A
        run proven never to halt is dropped and never resumed again.
        """
        if self.finite or stage <= self.frontier:
            return
        runs = self.runs
        for e in range(self.frontier + 1, stage + 1):
            runs[e] = MachineRun(decode_program(e), e)
        events = []
        for e, run in list(runs.items()):
            out = run.advance(stage - run.steps)
            if out is not None or run.never_halts:
                del runs[e]
                if out in (0, 1):
                    events.append((max(e, run.steps), e, out))
        events.sort()
        self.frontier = stage
        self.add(events)


class PairSide:
    """One side of an oracle pair: its elements in order of entry stage."""

    def __init__(self, record: _Record, side: int):
        self._record = record
        self.stages, self.elements = record.sides[side]

    def at(self, stage: int) -> frozenset[int]:
        """The elements whose entry stage is at most `stage`."""
        if self._record.finite:
            return frozenset(self.elements)
        self._record.extend(stage)
        return frozenset(self.elements[:bisect_right(self.stages, stage)])


class OraclePair:
    """Two disjoint staged sets, recorded as one (side, entry stage) per element.

    The constructor gives a finite pair, whose 'out' answers are definite.
    The canonical pair (finite False) answers 'unknown' for anything not yet
    enumerated and extends its record up to the highest stage asked.
    """

    def __init__(self, left: Iterable[int] = (), right: Iterable[int] = ()):
        self._record = record = _Record()
        self.left, self.right = PairSide(record, 0), PairSide(record, 1)
        record.add([(0, e, 0) for e in sorted(set(left))]
                   + [(0, e, 1) for e in sorted(set(right))])

    @property
    def finite(self) -> bool:
        return self._record.finite

    def check_stage(self, stage: int) -> None:
        """Extend the canonical record to `stage`; a finite pair is complete."""
        self._record.extend(stage)

    def side_of(self, n: int, stage: int) -> str | None:
        """'left' or 'right' when n has entered that side by `stage`, else None."""
        record = self._record
        record.extend(stage)
        side, entered = record.entries.get(n, (None, 0))
        if side is None or not record.finite and entered > stage:
            return None
        return "right" if side else "left"

    def query(self, side: str, n: int, stage: int) -> Membership:
        if side not in ("left", "right"):
            raise WorkbenchError(f"bad side {side!r}")
        if self.side_of(n, stage) == side:
            return Membership("in")
        return Membership("out" if self.finite else "unknown")


def canonical_pair() -> OraclePair:
    """The computably inseparable pair built over the program numbering.

    left(s)  = { e <= s : program e on input e halts within s steps with output 0 }
    right(s) = same with output 1. Each call returns a fresh pair.
    """
    pair_ = OraclePair()
    pair_._record.finite = False
    return pair_


def parse_pair_spec(text: str) -> OraclePair:
    """Parse a pair spec: 'canonical', or 'finite B={1,2} C={3}'.

    The two set labels are free-form identifiers; semantics are positional
    (first group is the left side, second the right side).
    """
    stripped = text.strip()
    if stripped == "canonical":
        return canonical_pair()
    parts = stripped.split(None, 1)
    if not parts or parts[0] != "finite" or len(parts) < 2:
        raise FormatError(f"bad pair spec {text!r}")
    group = r"[A-Za-z_]\w*=\{([0-9,\s]*)\}"
    # the two groups and nothing else, with whitespace or nothing between them
    groups = re.fullmatch(rf"{group}\s*{group}", parts[1])
    if groups is None:
        raise FormatError(f"pair spec needs exactly two NAME={{...}} groups: {text!r}")
    sides = [[p.strip() for p in body.split(",") if p.strip()] for body in groups.groups()]
    for p in sides[0] + sides[1]:
        if not p.isdigit():  # the pattern lets spaces in: '1 2'
            raise FormatError(f"bad element {p!r} in pair spec {text!r}")
    return OraclePair(*([int(p) for p in side] for side in sides))


def load_pair_spec(spec: str) -> OraclePair:
    """A pair from an inline spec ('canonical', 'finite ...') or a spec file."""
    text = spec.strip()
    if text != "canonical" and "=" not in text:
        text = read_text(text)
    return parse_pair_spec(text)
