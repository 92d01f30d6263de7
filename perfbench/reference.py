"""Reference implementations the benchmark checks the program against.

Nothing here imports weakarith. Formula trees produced by the program are
read by class name and field, so a check never relies on the code it is
checking: printing, evaluation, numbering and machine runs are all redone
here from their documented definitions.
"""

from __future__ import annotations

from itertools import product
from math import isqrt

# --- Cantor pairing, as documented in the formula numbering -----------------


def pair(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + a


def unpair(c: int) -> tuple[int, int]:
    w = (isqrt(8 * c + 1) - 1) // 2
    a = c - w * (w + 1) // 2
    return a, w - a


def offdiag(j: int) -> tuple[int, int]:
    a, b = unpair(j)
    return (a, b) if b < a else (a, b + 1)


# --- printing ---------------------------------------------------------------


def numeral_text(n: int) -> str:
    return "(S " * n + "0" + ")" * n


def balanced(op: str, parts: list[str]) -> str:
    while len(parts) > 1:
        parts = [f"({op} {parts[i]} {parts[i + 1]})" if i + 1 < len(parts) else parts[i]
                 for i in range(0, len(parts), 2)]
    return parts[0]


def print_term(t) -> str:
    if type(t).__name__ == "Var":
        return t.name
    if not t.args:
        return t.name
    return "(" + " ".join([t.name] + [print_term(a) for a in t.args]) + ")"


_BINARY_HEADS = {"And": "and", "Or": "or", "Implies": "->"}


def print_formula(f) -> str:
    kind = type(f).__name__
    if kind == "Verum":
        return "true"
    if kind == "Falsum":
        return "false"
    if kind == "Rel":
        if not f.args:
            return f.name
        return "(" + " ".join([f.name] + [print_term(a) for a in f.args]) + ")"
    if kind == "Eq":
        return f"(= {print_term(f.left)} {print_term(f.right)})"
    if kind == "Not":
        return f"(not {print_formula(f.body)})"
    if kind in _BINARY_HEADS:
        return f"({_BINARY_HEADS[kind]} {print_formula(f.left)} {print_formula(f.right)})"
    if kind in ("ForAll", "Exists"):
        head = "forall" if kind == "ForAll" else "exists"
        return f"({head} {f.var} {print_formula(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


# --- the R-family axiom streams, from the scheme definitions ----------------


def _ax4_text(n: int) -> str:
    cases = balanced("or", [f"(= x {numeral_text(i)})" for i in range(n + 1)])
    return f"(forall x (-> (<= x {numeral_text(n)}) {cases}))"


def _ax5_text(n: int) -> str:
    num = numeral_text(n)
    return f"(forall x (or (<= x {num}) (<= {num} x)))"


def _ax1_text(j: int) -> str:
    m, n = unpair(j)
    return f"(= (+ {numeral_text(m)} {numeral_text(n)}) {numeral_text(m + n)})"


def _ax2_text(j: int) -> str:
    m, n = unpair(j)
    return f"(= (* {numeral_text(m)} {numeral_text(n)}) {numeral_text(m * n)})"


def _ax3_text(j: int) -> str:
    m, n = offdiag(j)
    return f"(not (= {numeral_text(m)} {numeral_text(n)}))"


R_SLOTS = {
    "R": (_ax1_text, _ax2_text, _ax3_text, _ax4_text, _ax5_text),
    "R0": (_ax1_text, _ax2_text, _ax3_text, _ax4_text),
}


def r_axiom_text(theory: str, i: int) -> str:
    slots = R_SLOTS[theory]
    return slots[i % len(slots)](i // len(slots))


# --- symbols and structure counts -------------------------------------------


def symbol_arities(formulas) -> tuple[dict[str, int], dict[str, int]]:
    rels: dict[str, int] = {}
    funs: dict[str, int] = {}

    def term(t):
        if type(t).__name__ == "App":
            funs[t.name] = len(t.args)
            for a in t.args:
                term(a)

    def walk(f):
        kind = type(f).__name__
        if kind == "Rel":
            rels[f.name] = len(f.args)
            for a in f.args:
                term(a)
        elif kind == "Eq":
            term(f.left)
            term(f.right)
        elif kind == "Not":
            walk(f.body)
        elif kind in _BINARY_HEADS:
            walk(f.left)
            walk(f.right)
        elif kind in ("ForAll", "Exists"):
            walk(f.body)

    for f in formulas:
        walk(f)
    return rels, funs


def structure_count(rels: dict[str, int], funs: dict[str, int], k: int) -> int:
    """Structures of size k interpreting exactly the given symbols."""
    total = 1
    for a in funs.values():
        total *= k ** (k ** a)
    for a in rels.values():
        total *= 2 ** (k ** a)
    return total


# --- counter machines ---------------------------------------------------------


def encode_program(instrs) -> int:
    acc = 0
    for op in reversed(instrs):
        if op[0] == "halt":
            code = 0
        elif op[0] == "inc":
            code = 1 + 2 * op[1]
        else:
            code = 2 + 2 * pair(op[1], op[2])
        acc = pair(code, acc) + 1
    return acc


def decode_program(code: int) -> list[tuple]:
    instrs = []
    while code:
        head, code = unpair(code - 1)
        if head == 0:
            instrs.append(("halt",))
        elif head % 2:
            instrs.append(("inc", (head - 1) // 2))
        else:
            instrs.append(("decjz", *unpair((head - 2) // 2)))
    if any(op[0] == "decjz" and op[2] > len(instrs) for op in instrs):
        return [("halt",)]
    return instrs


def run_machine(instrs, x: int, steps: int) -> int | None:
    """Output r0 if the machine halts within the step budget, else None."""
    regs = [0] * max([2] + [op[1] + 1 for op in instrs if len(op) > 1])
    regs[1], pc = x, 0
    while pc < len(instrs) and instrs[pc][0] != "halt":
        if steps == 0:
            return None
        steps -= 1
        op = instrs[pc]
        if op[0] == "inc":
            regs[op[1]] += 1
            pc += 1
        elif regs[op[1]] == 0:
            pc = op[2]
        else:
            regs[op[1]] -= 1
            pc += 1
    return regs[0]


def canonical_sides(stage: int) -> tuple[frozenset, frozenset]:
    """Both sides of the canonical pair at a stage, by direct simulation."""
    left, right = set(), set()
    for e in range(stage + 1):
        out = run_machine(decode_program(e), e, stage)
        if out == 0:
            left.add(e)
        elif out == 1:
            right.add(e)
    return frozenset(left), frozenset(right)


# --- equivalence structures -------------------------------------------------


def eval_partition(f, blocks) -> bool:
    """Tarskian truth of a one-relation sentence in a disjoint-block structure."""
    owner = [b for b, width in enumerate(blocks) for _ in range(width)]
    relation = {(a, b) for a in range(len(owner)) for b in range(len(owner))
                if owner[a] == owner[b]}
    return eval_structure(f, len(owner), {}, {"E": relation})


def admissible_block_lists(r: int, left: frozenset, right: frozenset):
    """Realized structures of every profile decide treats as admissible at rank r.

    Sizes 1..r occur at most once each, a size known on the left must occur
    and one known on the right must not; up to r further classes are larger
    than r. Large classes get distinct sizes r+1, r+2, ..., so each listed
    structure is itself a model of the uniqueness axioms.
    """
    choices = [(1,) if s in left else (0,) if s in right else (0, 1)
               for s in range(1, r + 1)]
    for small in product(*choices):
        for large in range(r + 1):
            blocks = [s for s, c in zip(range(1, r + 1), small) if c]
            blocks += [r + 1 + i for i in range(large)]
            if blocks:
                yield blocks


def verdict_by_brute_force(f, r: int, left: frozenset, right: frozenset,
                           finite: bool) -> str:
    truths = {eval_partition(f, blocks) for blocks in admissible_block_lists(r, left, right)}
    if truths == {True}:
        return "provable"
    if truths == {False}:
        return "refutable"
    return "independent" if finite else "unknown"


def quantifier_rank(f) -> int:
    kind = type(f).__name__
    if kind in ("Rel", "Eq", "Verum", "Falsum"):
        return 0
    if kind == "Not":
        return quantifier_rank(f.body)
    if kind in _BINARY_HEADS:
        return max(quantifier_rank(f.left), quantifier_rank(f.right))
    return 1 + quantifier_rank(f.body)


# --- propositional skeletons --------------------------------------------------


def skeleton_value(node, row) -> bool:
    """Evaluate ('atom', i) / ('not', a) / ('->'|'and'|'or', a, b) under a row."""
    op = node[0]
    if op == "atom":
        return row[node[1]]
    if op == "not":
        return not skeleton_value(node[1], row)
    a, b = skeleton_value(node[1], row), skeleton_value(node[2], row)
    if op == "and":
        return a and b
    if op == "or":
        return a or b
    return (not a) or b


def skeleton_is_tautology(node, atoms: int) -> bool:
    return all(skeleton_value(node, row) for row in product((False, True), repeat=atoms))


def size_exists_text(n: int) -> str:
    """The sentence 'some class has exactly n members', as the catalog builds it."""
    if n == 0:
        return "false"
    names = [f"x{i}" for i in range(1, n + 1)]
    related = [f"(E x1 {v})" for v in names]
    distinct = [f"(not (= {names[i]} {names[j]}))" for i in range(n) for j in range(i + 1, n)]
    cases = balanced("or", [f"(= y {v})" for v in names])
    body = balanced("and", related + distinct + [f"(forall y (-> (E x1 y) {cases}))"])
    for v in reversed(names):
        body = f"(exists {v} {body})"
    return body


# --- finite structures ----------------------------------------------------------


def eval_structure(f, size: int, functions, relations, env=None) -> bool:
    """Tarskian truth in a structure given by row-major tables and tuple sets."""

    def term(t, env):
        if type(t).__name__ == "Var":
            return env[t.name]
        idx = 0
        for a in t.args:
            idx = idx * size + term(a, env)
        return functions[t.name][idx]

    def rec(g, env) -> bool:
        kind = type(g).__name__
        if kind == "Rel":
            return tuple(term(a, env) for a in g.args) in relations[g.name]
        if kind == "Eq":
            return term(g.left, env) == term(g.right, env)
        if kind == "Verum":
            return True
        if kind == "Falsum":
            return False
        if kind == "Not":
            return not rec(g.body, env)
        if kind == "And":
            return rec(g.left, env) and rec(g.right, env)
        if kind == "Or":
            return rec(g.left, env) or rec(g.right, env)
        if kind == "Implies":
            return not rec(g.left, env) or rec(g.right, env)
        test = all if kind == "ForAll" else any
        return test(rec(g.body, {**env, g.var: a}) for a in range(size))

    return rec(f, dict(env or {}))


# --- formula numbering -------------------------------------------------------------


def _code_str(s: str) -> int:
    data = s.encode("utf-8")
    return pair(len(data), int.from_bytes(data, "big"))


def _code_list(codes) -> int:
    acc = 0
    for c in reversed(codes):
        acc = pair(c, acc) + 1
    return acc


def _code_term(t) -> int:
    if type(t).__name__ == "Var":
        return pair(0, _code_str(t.name))
    return pair(1, pair(_code_str(t.name), _code_list([_code_term(a) for a in t.args])))


_TAGS = {"Rel": 2, "Eq": 3, "Verum": 4, "Falsum": 5, "Not": 6, "And": 7, "Or": 8,
         "Implies": 9, "ForAll": 10, "Exists": 11}


def godel_code(f) -> int:
    """The documented numbering: node = pair(tag, payload)."""
    kind = type(f).__name__
    tag = _TAGS[kind]
    if kind == "Rel":
        payload = pair(_code_str(f.name), _code_list([_code_term(a) for a in f.args]))
    elif kind == "Eq":
        payload = pair(_code_term(f.left), _code_term(f.right))
    elif kind in ("Verum", "Falsum"):
        payload = 0
    elif kind == "Not":
        payload = godel_code(f.body)
    elif kind in _BINARY_HEADS:
        payload = pair(godel_code(f.left), godel_code(f.right))
    else:
        payload = pair(_code_str(f.var), godel_code(f.body))
    return pair(tag, payload)


# --- reading formula texts ------------------------------------------------------


class _Node:
    def __init__(self, **fields):
        self.__dict__.update(fields)


_NODES = {name: type(name, (_Node,), {}) for name in
          ("Var", "App", "Rel", "Eq", "Verum", "Falsum", "Not", "And", "Or", "Implies",
           "ForAll", "Exists")}
_CONNECTIVES = {"and": "And", "or": "Or", "->": "Implies"}


def read_formula(text: str, constants):
    """Read an s-expression into nodes named like the program's classes.

    A bare token in term position is a constant when listed, else a variable.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def term():
        tok = take()
        if tok != "(":
            if tok in constants:
                return _NODES["App"](name=tok, args=())
            return _NODES["Var"](name=tok)
        head, args = take(), []
        while tokens[pos] != ")":
            args.append(term())
        take()
        return _NODES["App"](name=head, args=tuple(args))

    def formula():
        tok = take()
        if tok in ("true", "false"):
            return _NODES["Verum" if tok == "true" else "Falsum"]()
        head = take()
        if head == "not":
            node = _NODES["Not"](body=formula())
        elif head in _CONNECTIVES:
            node = _NODES[_CONNECTIVES[head]](left=formula(), right=formula())
        elif head in ("forall", "exists"):
            var = take()
            node = _NODES["ForAll" if head == "forall" else "Exists"](var=var, body=formula())
        elif head == "=":
            node = _NODES["Eq"](left=term(), right=term())
        else:
            args = []
            while tokens[pos] != ")":
                args.append(term())
            node = _NODES["Rel"](name=head, args=tuple(args))
        take()
        return node

    return formula()
