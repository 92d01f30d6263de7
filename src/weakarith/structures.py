"""Finite structures and the two-valued evaluator core.

`truth(f, atom, state)` settles the connectives (Not, And, Or, Implies,
Verum, Falsum) left to right with the usual short-circuits and hands every
other node to `atom(node, state)`.  Tarskian `eval_formula` (here), the
truth tables of `proofs.is_tautology` and the orbit game of
`eqdecide.eval_on_blocks` are built on it; model search keeps its own
compiled three-valued core.

A structure interprets function symbols by flat row-major tables and
relation symbols by sets of tuples.  Interpretations may cover only part
of an infinite language; evaluation demands interpretations for exactly
the symbols that occur in the formula at hand, in the order it meets them.

An `eval_formula` call is released on return by reference counting alone:
its recursive `atom` is deleted when the call ends, so it leaves no
reference cycle for the cyclic collector to find.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Mapping

from .errors import FormatError, WorkbenchError
from .syntax import (
    And,
    Eq,
    Exists,
    Falsum,
    ForAll,
    Formula,
    Implies,
    Not,
    Or,
    Rel,
    Term,
    Var,
    Verum,
)


class StructureError(WorkbenchError):
    pass


@dataclass(frozen=True)
class FiniteStructure:
    """Universe {0..size-1} with function tables and relation extents.

    A function table is a flat tuple in row-major order, so the entry for
    arguments (a1..ar) sits at index a1*size^(r-1) + ... + ar.  Lookup
    folds positionally and never needs the arity, but table lengths are
    checked against the argument count on every use.
    """

    size: int
    functions: Mapping[str, tuple[int, ...]]
    relations: Mapping[str, frozenset[tuple[int, ...]]]

    def __post_init__(self):
        if self.size < 1:
            raise StructureError("structures need a nonempty universe")

    def fun_value(self, name: str, args) -> int:
        table = self.functions.get(name)
        if table is None:
            raise StructureError(f"no interpretation for function {name!r}")
        if len(table) != self.size ** len(args):
            raise StructureError(
                f"function {name!r} table has {len(table)} entries, "
                f"not size^{len(args)}")
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return table[idx]

    def rel_holds(self, name: str, args) -> bool:
        extent = self.relations.get(name)
        if extent is None:
            raise StructureError(f"no interpretation for relation {name!r}")
        return tuple(args) in extent


def eval_term(structure: FiniteStructure, t: Term, assignment: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        try:
            return assignment[t.name]
        except KeyError:
            raise StructureError(f"variable {t.name!r} has no assigned value") from None
    return structure.fun_value(t.name, [eval_term(structure, a, assignment)
                                        for a in t.args])


def truth(f: Formula, atom, state) -> bool:
    """Two-valued value of f; every non-connective node goes to atom(node, state)."""
    t = type(f)
    if t is Not:
        return not truth(f.body, atom, state)
    if t is And:
        return truth(f.left, atom, state) and truth(f.right, atom, state)
    if t is Or:
        return truth(f.left, atom, state) or truth(f.right, atom, state)
    if t is Implies:
        return not truth(f.left, atom, state) or truth(f.right, atom, state)
    if t is Verum:
        return True
    if t is Falsum:
        return False
    return atom(f, state)


def eval_formula(structure: FiniteStructure, phi: Formula,
                 assignment: Mapping[str, int] | None = None) -> bool:
    """Tarskian truth by exhaustive quantifier expansion."""
    k = structure.size

    def atom(f: Formula, sigma: dict[str, int]) -> bool:
        t = type(f)
        if t is Rel:
            return structure.rel_holds(
                f.name, [eval_term(structure, a, sigma) for a in f.args])
        if t is Eq:
            return (eval_term(structure, f.left, sigma)
                    == eval_term(structure, f.right, sigma))
        if t is ForAll or t is Exists:
            want_all = t is ForAll
            old = sigma.get(f.var, _MISSING)
            try:
                for a in range(k):
                    sigma[f.var] = a
                    if truth(f.body, atom, sigma) != want_all:
                        return not want_all
                return want_all
            finally:
                if old is _MISSING:
                    sigma.pop(f.var, None)
                else:
                    sigma[f.var] = old
        raise StructureError(f"not a formula: {f!r}")

    try:
        return truth(phi, atom, dict(assignment) if assignment else {})
    finally:
        del atom  # atom calls itself through its cell; emptying it lets refcounting free the call


_MISSING = object()


# --- text format ------------------------------------------------------------

def format_structure(structure: FiniteStructure) -> str:
    """Deterministic flat rendering: size line, then sorted symbol tables."""
    lines = [f"size {structure.size}"]
    for name in sorted(structure.functions):
        table = structure.functions[name]
        lines.append(f"fun {name} = [{', '.join(str(v) for v in table)}]")
    for name in sorted(structure.relations):
        extent = structure.relations[name]
        cells = ", ".join(str(t) for t in sorted(extent))
        lines.append(f"rel {name} = {{{cells}}}")
    return "\n".join(lines) + "\n"


def parse_structure(text: str) -> FiniteStructure:
    size: int | None = None
    functions: dict[str, tuple[int, ...]] = {}
    relations: dict[str, frozenset[tuple[int, ...]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("size "):
            if size is not None:
                raise FormatError(f"line {lineno}: repeated size line")
            try:
                size = int(line[5:].strip())
            except ValueError:
                raise FormatError(f"line {lineno}: bad size") from None
            continue
        kind, _, rest = line.partition(" ")
        # split on ' = ' first: symbol names may themselves contain '='
        name, eq, value = rest.partition(" = ")
        if not eq:
            name, eq, value = rest.partition("=")
        name = name.strip()
        value = value.strip()
        if kind not in ("fun", "rel") or not name or not eq:
            raise FormatError(f"line {lineno}: expected 'fun NAME = [...]' "
                              f"or 'rel NAME = {{...}}'")
        if name in functions or name in relations:
            raise FormatError(f"line {lineno}: repeated symbol {name!r}")
        try:
            parsed = ast.literal_eval(value) if value != "{}" else set()
        except (ValueError, SyntaxError):
            raise FormatError(f"line {lineno}: unreadable table {value!r}") from None
        if kind == "fun":
            if not isinstance(parsed, list) or not all(isinstance(v, int) for v in parsed):
                raise FormatError(f"line {lineno}: function tables are integer lists")
            functions[name] = tuple(parsed)
        else:
            if not isinstance(parsed, (set, frozenset)):
                raise FormatError(f"line {lineno}: relation extents are tuple sets")
            cells = set()
            for item in parsed:
                if isinstance(item, int):
                    item = (item,)
                if not (isinstance(item, tuple) and all(isinstance(v, int) for v in item)):
                    raise FormatError(f"line {lineno}: relation entries are int tuples")
                cells.add(item)
            relations[name] = frozenset(cells)
    if size is None:
        raise FormatError("missing size line")
    structure = FiniteStructure(size, functions, relations)
    _check_ranges(structure)
    return structure


def _check_ranges(structure: FiniteStructure) -> None:
    k = structure.size
    for name, table in structure.functions.items():
        if any(not (0 <= v < k) for v in table):
            raise FormatError(f"function {name!r} maps outside the universe")
        # length must be a power of the size (some arity's table)
        n = 1
        while n < len(table) and k > 1:
            n *= k
        if n != len(table):
            raise FormatError(f"function {name!r} table length {len(table)} "
                              f"is not a power of {k}")
    for name, extent in structure.relations.items():
        arities = {len(t) for t in extent}
        if len(arities) > 1:
            raise FormatError(f"relation {name!r} mixes arities")
        if any(not (0 <= v < k) for t in extent for v in t):
            raise FormatError(f"relation {name!r} mentions points outside the universe")
