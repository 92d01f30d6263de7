"""Exhaustive finite-model search with exact enumeration accounting.

The search walks structures of increasing size; within a size it fills
interpretation tables cell by cell in a fixed order (functions before
relations, each group sorted by arity then name, cells row-major, values
ascending).  Every pruned branch adds its whole block of completions to
the examined counter, so on a failed search the counter equals the
closed-form structure count.  The first completed witness is therefore
the lexicographically least one.  Each cell carries its value set; under
symmetry breaking the first cell, which belongs to the first constant when
there is one, has the value set {0}, since any witness can be renamed so
that this constant is 0.

Pruning uses Kleene's three-valued logic over the partial tables: an
unfilled cell reads None, and a formula is True or False only when every
way of filling its unknown cells agrees.  Each search compiles every
axiom once into nested closures that read the flat tables in place;
between sizes the tables are resized in place and the size the closures
read is rebound, so the same closures serve every size, and compiling,
the only walk over an axiom, also learns the signature.  Bound variables
live in a slot list indexed by quantifier depth, and a variable argument
is read from its slot inside the lookup or equality that uses it.  Each
search node inherits the statuses its parent computed and re-evaluates
only the axioms still unknown that mention the symbol of the cell just
filled; an axiom's value depends on its own symbols' cells alone.  An
axiom that is True is never checked again: filling a cell only replaces
an unknown by a value, and a Kleene value that is already known stays
the same when its unknowns become known.  A node where an axiom is False
is pruned, and a node where every axiom is True is a witness.

A search is released on return by reference counting alone: the nested
functions that recurse (the compiler's walk over one sentence, the
depth-first search over one size) are deleted when they finish, so no call
leaves a reference cycle for the cyclic collector to find.
"""

from __future__ import annotations

from dataclasses import dataclass

from .structures import FiniteStructure
from .syntax import (
    And,
    Eq,
    Exists,
    Falsum,
    ForAll,
    Implies,
    LanguageError,
    Not,
    Or,
    Rel,
    Var,
    Verum,
    note_arity,
)


def closed_form_count(rels: dict[str, int], funs: dict[str, int], k: int) -> int:
    """Number of structures of size k interpreting exactly these symbols."""
    total = 1
    for arity in funs.values():
        total *= k ** (k ** arity)
    for arity in rels.values():
        total *= 2 ** (k ** arity)
    return total


@dataclass(frozen=True)
class SizeReport:
    size: int
    examined: int
    total: int


@dataclass(frozen=True)
class SearchOutcome:
    witness: FiniteStructure | None
    reports: tuple[SizeReport, ...]


# per binary connective: the left side at `stop` makes the value `stopped`;
# the right side at `wins` makes it `wins`; otherwise two known sides give
# `both`
_KLEENE = {And: (False, False, False, True),
           Or: (True, True, True, False),
           Implies: (False, True, True, False)}


def _compiler():
    """One search's compiler: `(compile_check, signature, resize, funtabs, reltabs)`.

    `compile_check(phi)` turns a sentence into a no-argument closure giving
    its Kleene value (None = unknown) on the tables `funtabs` and `reltabs`,
    and notes each symbol's arity: it is the only walk over phi.  Once every
    axiom is compiled, `signature()` gives `(rels, funs, readers)` or raises
    an arity clash.  `resize(k)` makes every table k**arity unknown cells in
    place and sets the size every closure reads: one check for every size.
    """
    funtabs: dict[str, list] = {}
    reltabs: dict[str, list] = {}
    # per compiled axiom, its symbol uses (0 relation or 1 function, name, arity)
    used: list[list[tuple[int, str, int]]] = []
    merged: tuple[dict[str, int], dict[str, int]] = ({}, {})  # (rels, funs)
    # one slot list for every sentence compiled here: checks run one at a
    # time and never interleave, and a quantifier sets its slot before its
    # body reads it
    env: list[int] = []
    k = 0
    universe = range(0)

    def signature():
        readers: dict[str, set[int]] = {}
        for j, uses in enumerate(used):
            own: tuple[dict[str, int], dict[str, int]] = ({}, {})
            for side, name, arity in uses:
                note_arity(own[side], name, arity)  # the axiom's own clash first
            for into, found in zip(merged, own):
                for name, arity in found.items():
                    note_arity(into, name, arity)
                    readers.setdefault(name, set()).add(j)
        rels, funs = merged
        if shared := rels.keys() & funs.keys():
            raise LanguageError(f"symbols used both ways: {sorted(shared)}")
        return rels, funs, readers

    def resize(size: int) -> None:
        nonlocal k, universe
        k, universe = size, range(size)
        for tabs, arities in zip((reltabs, funtabs), merged):
            for name, a in arities.items():
                tabs[name][:] = [None] * size ** a

    def table(tabs, side, node):
        used[-1].append((side, node.name, len(node.args)))
        return tabs.setdefault(node.name, [])

    def compile_check(phi):
        # term, entry and formula call one another through their cells; they
        # live for one sentence and are deleted after it, so the compiled
        # closures, which never name them, are freed by reference counting
        def term(t, scope):
            if type(t) is Var:
                slot = scope[t.name]
                return lambda: env[slot]
            return entry(table(funtabs, 1, t), t.args, scope)

        def entry(tab, args, scope):
            # the table cell at the arguments' row-major index; a variable
            # argument is read from its slot in place, never through a call
            if not args:
                return lambda: tab[0]
            if len(args) == 1:
                (x,) = args
                if type(x) is Var:
                    s = scope[x.name]
                    return lambda: tab[env[s]]
                f = term(x, scope)

                def unary():
                    a = f()
                    return None if a is None else tab[a]
                return unary
            if len(args) == 2:
                x, y = args
                if type(x) is Var:
                    s = scope[x.name]
                    if type(y) is Var:
                        t = scope[y.name]
                        return lambda: tab[env[s] * k + env[t]]
                    g = term(y, scope)

                    def var_term():
                        b = g()
                        return None if b is None else tab[env[s] * k + b]
                    return var_term
                f = term(x, scope)
                if type(y) is Var:
                    t = scope[y.name]

                    def term_var():
                        a = f()
                        return None if a is None else tab[a * k + env[t]]
                    return term_var
                g = term(y, scope)

                def binary():
                    a = f()
                    if a is None:
                        return None
                    b = g()
                    return None if b is None else tab[a * k + b]
                return binary
            parts = [term(a, scope) for a in args]

            def nary():
                idx = 0
                for f in parts:
                    v = f()
                    if v is None:
                        return None
                    idx = idx * k + v
                return tab[idx]
            return nary

        def formula(f, scope, depth):
            cls = type(f)
            if cls is Rel:
                return entry(table(reltabs, 0, f), f.args, scope)
            if cls is Eq:
                x, y = f.left, f.right
                if type(x) is Var:
                    # equality is symmetric: a variable side goes to the right
                    x, y = y, x
                if type(y) is Var:
                    t = scope[y.name]
                    if type(x) is Var:
                        s = scope[x.name]
                        return lambda: env[s] == env[t]
                    left = term(x, scope)

                    def eq_var():
                        a = left()
                        return None if a is None else a == env[t]
                    return eq_var
                left, right = term(x, scope), term(y, scope)

                def eq():
                    a = left()
                    if a is None:
                        return None
                    b = right()
                    return None if b is None else a == b
                return eq
            if cls is Verum:
                return lambda: True
            if cls is Falsum:
                return lambda: False
            if cls is Not:
                body = formula(f.body, scope, depth)

                def neg():
                    got = body()
                    return None if got is None else not got
                return neg
            if cls in _KLEENE:
                left = formula(f.left, scope, depth)
                right = formula(f.right, scope, depth)
                stop, stopped, wins, both = _KLEENE[cls]

                def connective():
                    a = left()
                    if a is stop:
                        return stopped
                    b = right()
                    if b is wins:
                        return wins
                    return None if a is None or b is None else both
                return connective
            if cls is ForAll or cls is Exists:
                # one slot per quantifier depth: a re-bound name gets a fresh
                # slot, and the outer binding's slot is left untouched
                slot = depth
                if len(env) <= slot:
                    env.append(0)
                body = formula(f.body, {**scope, f.var: slot}, depth + 1)
                want = cls is Exists

                def quantifier():
                    unknown = False
                    for a in universe:
                        env[slot] = a
                        got = body()
                        if got is want:
                            return want
                        if got is None:
                            unknown = True
                    return None if unknown else not want
                return quantifier
            raise LanguageError(f"not a formula: {f!r}")

        used.append([])
        try:
            return formula(phi, {}, 0)
        except KeyError:
            # only a slot lookup can miss: a variable that nothing binds
            raise LanguageError("model search expects sentences") from None
        finally:
            del term, entry, formula

    return compile_check, signature, resize, funtabs, reltabs


def _unfold(idx: int, arity: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(arity):
        out.append(idx % k)
        idx //= k
    return tuple(reversed(out))


def _search_at_size(checks, k, funtabs, reltabs, rels, funs, readers,
                    symmetry_breaking):
    """Search size k; `checks` read `funtabs` and `reltabs`, all unknown at size k."""
    # one record per cell in search order: (table, index, values, the
    # indices of the axioms that read its symbol)
    cells = []
    for tabs, arities, values in ((funtabs, funs, range(k)), (reltabs, rels, (False, True))):
        for name, a in sorted(arities.items(), key=lambda kv: (kv[1], kv[0])):
            cells.extend((tabs[name], i, values, readers[name]) for i in range(k ** a))
    # symmetry breaking fixes the first constant, whose cell comes first, at 0
    if symmetry_breaking and 0 in funs.values():
        tab, i, _, reading = cells[0]
        cells[0] = (tab, i, (0,), reading)
    suffix = [1] * (len(cells) + 1)
    for p in reversed(range(len(cells))):
        suffix[p] = suffix[p + 1] * len(cells[p][2])

    examined = 0

    def recheck(pending, touched):
        """Axioms still unknown after a change to `touched`; None if one fails."""
        still = []
        for j in pending:
            if j in touched:
                got = checks[j]()
                if got is False:
                    return None
                if got is True:
                    continue
            still.append(j)
        return still

    def freeze() -> FiniteStructure:
        fns = {name: tuple(tab) for name, tab in funtabs.items()}
        rls = {name: frozenset(_unfold(i, rels[name], k)
                               for i, v in enumerate(tab) if v)
               for name, tab in reltabs.items()}
        return FiniteStructure(k, fns, rls)

    def dfs(p: int, pending):
        nonlocal examined
        if not pending:
            # every axiom is true and the remaining cells are unconstrained;
            # the least completion gives each its first value
            rest = cells[p:]
            for tab, i, values, _ in rest:
                tab[i] = values[0]
            witness = freeze()
            for tab, i, _, _ in rest:
                tab[i] = None
            examined += 1
            return witness
        tab, i, values, touched = cells[p]
        for v in values:
            tab[i] = v
            still = recheck(pending, touched)
            if still is None:
                examined += suffix[p + 1]
                continue
            got = dfs(p + 1, still)
            if got is not None:
                tab[i] = None
                return got
        tab[i] = None
        return None

    try:
        everything = range(len(checks))
        pending = recheck(everything, everything)
        if pending is None:
            return None, suffix[0]
        return dfs(0, pending), examined
    finally:
        del dfs  # dfs calls itself through its cell; emptying it lets refcounting free the search


def model_search(axioms, max_size: int,
                 symmetry_breaking: bool = False) -> SearchOutcome:
    """Search sizes 1..max_size; stop at the first (least) witness.

    The per-size examined counter equals the closed-form structure count
    whenever no witness exists at that size and symmetry breaking is off.
    With symmetry breaking on and a constant in the signature, the first
    constant's cell has the value set {0}, so the counter counts that
    restricted space: a k-th of the structures of size k.
    """
    compile_check, signature, resize, funtabs, reltabs = _compiler()
    checks = [compile_check(ax) for ax in axioms]
    rels, funs, readers = signature()
    reports = []
    witness = None
    for k in range(1, max_size + 1):
        resize(k)
        found, examined = _search_at_size(checks, k, funtabs, reltabs, rels, funs,
                                          readers, symmetry_breaking)
        reports.append(SizeReport(k, examined, closed_form_count(rels, funs, k)))
        if found is not None:
            witness = found
            break
    return SearchOutcome(witness, tuple(reports))


def find_model(axioms, max_size: int,
               symmetry_breaking: bool = False) -> FiniteStructure | None:
    return model_search(axioms, max_size, symmetry_breaking).witness
