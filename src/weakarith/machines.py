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
any number of steps and resume later; `run_bounded` is a fresh run. A run
that reaches a `decjz r t` jumping to itself with r zero can never leave it,
so it spends its whole remaining budget at once instead of step by step.

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
pair's elements enter at stage 0 and it is complete at every stage. Sides
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
    return (INC, r)


def decjz(r: int, target: int) -> Instruction:
    return (DECJZ, r, target)


HALT_INSTR: Instruction = (HALT,)


class MachineRun:
    """A run of a program on one input that can stop and resume."""

    __slots__ = ("instructions", "pc", "registers", "steps")

    def __init__(self, program: Program, input_value: int):
        self.instructions = instrs = program.instructions
        self.registers = [0] * max([2] + [op[1] + 1 for op in instrs if len(op) > 1])
        self.registers[1] = input_value
        self.pc = 0
        self.steps = 0

    def advance(self, steps: int) -> int | None:
        """Run at most `steps` more steps; r0 once the machine has halted, else None."""
        instrs = self.instructions
        n = len(instrs)
        regs = self.registers
        pc = self.pc
        left = steps
        halted = True
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
            else:  # decjz
                r = op[1]
                if regs[r] == 0:
                    if op[2] == pc:
                        # jumps to itself with r still zero: nothing can
                        # change again, so the rest of the budget is spent
                        left = 0
                        continue
                    pc = op[2]
                else:
                    regs[r] -= 1
                    pc += 1
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


class PairSide:
    """One side of an oracle pair: its elements in order of entry stage."""

    def __init__(self, pair_: OraclePair):
        self._pair = pair_
        self.stages: list[int] = []
        self.elements: list[int] = []

    def at(self, stage: int) -> frozenset[int]:
        """The elements whose entry stage is at most `stage`."""
        if self._pair.finite:
            return frozenset(self.elements)
        self._pair.check_stage(stage)
        return frozenset(self.elements[:bisect_right(self.stages, stage)])


class OraclePair:
    """Two disjoint staged sets, recorded as one (side, entry stage) per element.

    The constructor gives a finite pair, whose 'out' answers are definite.
    The canonical pair (finite False) answers 'unknown' for anything not yet
    enumerated and extends its record up to the highest stage asked.
    """

    def __init__(self, left: Iterable[int] = (), right: Iterable[int] = ()):
        self.finite = True
        self.left, self.right = PairSide(self), PairSide(self)
        self._entries: dict[int, tuple[PairSide, int]] = {}
        self._frontier = -1
        self._runs: dict[int, MachineRun] = {}
        self._record([(0, e, self.left) for e in sorted(set(left))]
                     + [(0, e, self.right) for e in sorted(set(right))])

    def _record(self, events: list[tuple[int, int, PairSide]]) -> None:
        """Append (entry stage, element, side) events given in entry order."""
        clash = []
        for stage, e, side in events:
            if e in self._entries:
                clash.append(e)
                continue
            self._entries[e] = (side, stage)
            side.stages.append(stage)
            side.elements.append(e)
        if clash:
            raise StageDisjointnessError(f"sides share {sorted(clash)} at stage {stage}")

    def check_stage(self, stage: int) -> None:
        """Extend the canonical record to `stage`: start the programs above
        the old frontier, resume every pending run up to `stage` steps. A run
        that halts enters above the old frontier, so its event sorts last.
        """
        if self.finite or stage <= self._frontier:
            return
        runs = self._runs
        for e in range(self._frontier + 1, stage + 1):
            runs[e] = MachineRun(decode_program(e), e)
        events = []
        for e, run in list(runs.items()):
            out = run.advance(stage - run.steps)
            if out is not None:
                del runs[e]
                if out in (0, 1):
                    events.append((max(e, run.steps), e, self.right if out else self.left))
        events.sort()
        self._frontier = stage
        self._record(events)

    def query(self, side: str, n: int, stage: int) -> Membership:
        if side not in ("left", "right"):
            raise WorkbenchError(f"bad side {side!r}")
        self.check_stage(stage)
        entry = self._entries.get(n, (None, 0))
        if entry[0] is getattr(self, side) and (self.finite or entry[1] <= stage):
            return Membership("in")
        if self.finite:
            return Membership("out")
        return Membership("unknown")


def canonical_pair() -> OraclePair:
    """The computably inseparable pair built over the program numbering.

    left(s)  = { e <= s : program e on input e halts within s steps with output 0 }
    right(s) = same with output 1. Each call returns a fresh pair.
    """
    pair_ = OraclePair()
    pair_.finite = False
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
    groups = re.findall(r"([A-Za-z_]\w*)=\{([0-9,\s]*)\}", parts[1])
    if len(groups) != 2:
        raise FormatError(f"pair spec needs exactly two NAME={{...}} groups: {text!r}")
    sides = [[p.strip() for p in body.split(",") if p.strip()] for _, body in groups]
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
