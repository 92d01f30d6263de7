"""Proof files read and written from the step table, against the per-kind code it replaced.

The copies below are parse_proof and format_proof as they were before the
step and argument tables: one branch per step kind and per argument code.
On every line below both readers must give the same Proof or the same
FormatError text, and both writers the same file text. The one change on
purpose: an `ax` line's index is its last chunk and the theory id is the text
before it, so theory ids may hold spaces (`U:finite B={1} C={2}`); the old
reader refused every `ax` line of more than three chunks.
"""

import pytest
from hypothesis import given, settings, strategies as st

from weakarith.errors import FormatError
from weakarith.proofs import (
    _CONG_SCHEMAS,
    _SCHEMAS,
    Generalize,
    LogicalAxiom,
    ModusPonens,
    Proof,
    TheoryAxiom,
    format_proof,
    parse_proof,
    search_proof,
)
from weakarith.sexpr import parse_formula, parse_term, print_formula, print_term
from weakarith.syntax import Formula, Term, Var
from weakarith.theories import get_theory, numeral

R = get_theory("R")


# --- the proof file code as it was ----------------------------------------------

def _old_split_chunks(text):
    chunks = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise FormatError("unbalanced parentheses")
        if ch.isspace() and depth == 0:
            if cur:
                chunks.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise FormatError("unbalanced parentheses")
    if cur:
        chunks.append("".join(cur))
    return chunks


def _old_parse_proof(text, language):
    def logic_args(schema, chunks):
        if schema in _CONG_SCHEMAS:
            if not chunks:
                raise FormatError(f"{schema}: missing symbol name")
            return (chunks[0],) + tuple(parse_term(c, language) for c in chunks[1:])
        if schema not in _SCHEMAS:
            raise FormatError(f"unknown schema {schema!r}")
        sig = _SCHEMAS[schema][0]
        if len(chunks) != len(sig):
            raise FormatError(f"schema {schema} wants {len(sig)} arguments")
        out = []
        for code, chunk in zip(sig, chunks):
            if code == "f":
                out.append(parse_formula(chunk, language))
            elif code == "t":
                out.append(parse_term(chunk, language))
            else:
                if chunk.startswith("("):
                    raise FormatError(f"schema {schema}: expected a variable name")
                out.append(chunk)
        return tuple(out)

    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            chunks = _old_split_chunks(line)
            head = chunks[0]
            if head == "ax":
                if len(chunks) != 3:
                    raise FormatError("ax wants a theory id and an index")
                steps.append(TheoryAxiom(chunks[1], int(chunks[2])))
            elif head == "logic":
                if len(chunks) < 2:
                    raise FormatError("logic wants a schema id")
                steps.append(LogicalAxiom(chunks[1], logic_args(chunks[1], chunks[2:])))
            elif head == "mp":
                if len(chunks) != 3:
                    raise FormatError("mp wants two step indices")
                steps.append(ModusPonens(int(chunks[1]), int(chunks[2])))
            elif head == "gen":
                if len(chunks) != 3:
                    raise FormatError("gen wants a step index and a variable")
                steps.append(Generalize(int(chunks[1]), chunks[2]))
            else:
                raise FormatError(f"unknown step kind {head!r}")
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    return Proof(tuple(steps))


def _old_format_proof(proof):
    def chunk(arg):
        if isinstance(arg, Formula):
            return print_formula(arg)
        if isinstance(arg, Term):
            return print_term(arg)
        return str(arg)

    lines = []
    for step in proof.steps:
        if isinstance(step, TheoryAxiom):
            lines.append(f"ax {step.theory} {step.index}")
        elif isinstance(step, LogicalAxiom):
            parts = " ".join(chunk(a) for a in step.args)
            lines.append(f"logic {step.schema} {parts}".rstrip())
        elif isinstance(step, ModusPonens):
            lines.append(f"mp {step.premise} {step.implication}")
        else:
            lines.append(f"gen {step.premise} {step.var}")
    return "\n".join(lines) + "\n"


# --- inputs ----------------------------------------------------------------------

WELL_FORMED = [
    "ax R 9",
    "  ax R 0  ",
    "ax R -1",
    "logic inst x (or (<= x (S 0)) (<= (S 0) x)) (S 0)",
    "logic k (= 0 0) (= 0 0)",
    "logic s (= 0 0) (= 0 0) (= 0 0)",
    "logic contra (= 0 0) (<= 0 0)",
    "logic dist y (= y y) (= y 0)",
    "logic vac y (= 0 0)",
    "logic eq-refl (S 0)",
    "logic eq-sym x y",
    "logic eq-trans x y z",
    "logic eq-cong-fun S x y",
    "logic eq-cong-rel <= a b c d",
    "logic eq-cong-fun nosuch",
    "logic eq-cong-rel <=",
    "logic inst forall (= x x) 0",
    "logic inst a(b) (= x x) 0",
    "mp 0 1",
    "mp -1 7",
    "gen 0 x",
    "gen 0 forall",
    "gen 0 0",
    "gen 3 (x)",
    "# a comment",
    "#ax R 1 2 3",
    "",
    "   ",
]

MALFORMED = [
    # each step kind with the wrong number of fields
    "ax", "ax R", "logic", "mp", "mp 0", "mp 0 1 2", "gen", "gen 0", "gen 0 x y",
    "logic k (= 0 0)", "logic k (= 0 0) (= 0 0) (= 0 0)", "logic inst x (= x x)",
    "logic eq-refl", "logic eq-refl 0 0", "logic vac", "logic eq-trans x y",
    # unknown step kinds and schemas
    "weird 1 2", "AX R 1", "(ax) R 1", "mp0 1", "logic nope", "logic nope 1 2",
    "logic K (= 0 0) (= 0 0)", "logic (k) (= 0 0) (= 0 0)",
    # congruence without a symbol
    "logic eq-cong-fun", "logic eq-cong-rel",
    # bad integers
    "mp a 1", "mp 0 b", "ax R x", "ax R 1.5", "gen x x", "mp 1.5 2", "ax R -",
    "mp ² 1", "gen (0) x", "mp (1) 2",
    # unbalanced parentheses
    "logic k (= 0 0", "logic k (= 0 0))", ")", "(", "mp (0 1", "ax R 9)",
    "gen 0 x)", "logic inst x (= x x 0",
    # arguments the readers refuse
    "logic inst (x) (= x x) 0", "logic dist (y) (= y y) (= y 0)",
    "logic inst x (= x y) (S", "logic k (foo 0) (= 0 0)", "logic eq-refl (+ 0)",
    "logic inst x (= x x) (<= 0 0)", "logic eq-sym (= 0 0) 0",
    "logic eq-cong-fun S (= 0 0) y", "logic k (= 0 0) x",
]

# `ax` lines of more than three chunks: the old reader refused each one
THEORY_IDS = {
    "ax R 1 2": TheoryAxiom("R 1", 2),
    "ax U:finite B={1} C={2} 1": TheoryAxiom("U:finite B={1} C={2}", 1),
    "ax  E:finite   B={1} C={2}  7": TheoryAxiom("E:finite   B={1} C={2}", 7),
    "ax product:PA-,R (x y) 0": TheoryAxiom("product:PA-,R (x y)", 0),
    "ax a b c": "line 1: invalid literal for int() with base 10: 'c'",
}


def _outcome(read, text):
    try:
        return read(text, R.language)
    except FormatError as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("line", WELL_FORMED + MALFORMED)
def test_each_line_reads_as_before(line):
    assert _outcome(parse_proof, line) == _outcome(_old_parse_proof, line)


def test_malformed_lines_are_refused():
    for line in MALFORMED:
        with pytest.raises(FormatError):
            parse_proof(line, R.language)


def test_errors_name_the_line_they_are_on():
    for bad in MALFORMED:
        text = "\n".join(WELL_FORMED + [bad]) + "\n"
        assert _outcome(parse_proof, text) == _outcome(_old_parse_proof, text)


def test_theory_ids_are_the_text_before_the_index():
    for line, want in THEORY_IDS.items():
        with pytest.raises(FormatError):
            _old_parse_proof(line, R.language)
        got = _outcome(parse_proof, line)
        if isinstance(want, str):
            assert got == ("FormatError", want)
        else:
            assert got == Proof((want,))


def test_format_writes_as_before():
    proofs = [parse_proof("\n".join(WELL_FORMED), R.language)]
    proofs.append(Proof((
        LogicalAxiom("k", ()),
        LogicalAxiom("eq-cong-fun", ("S", Var("x"), numeral(2))),
        TheoryAxiom("Q", 12),
        ModusPonens(0, 2),
        Generalize(3, "z"),
    )))
    for theory_id, goal in (("R", "(or (<= (S 0) (S 0)) (<= (S 0) (S 0)))"),
                            ("Q", "(exists y (= (S 0) (S y)))"),
                            ("R", "(forall z (= (+ 0 0) 0))")):
        theory = get_theory(theory_id)
        proofs.append(search_proof(theory, parse_formula(goal, theory.language), 1000))
    for proof in proofs:
        assert format_proof(proof) == _old_format_proof(proof)


def test_theory_ids_with_spaces_write_as_before():
    proof = Proof((TheoryAxiom("U:finite B={1} C={2}", 1),))
    text = format_proof(proof)
    assert text == _old_format_proof(proof) == "ax U:finite B={1} C={2} 1\n"
    assert parse_proof(text, R.language) == proof


TOKENS = ["ax", "logic", "mp", "gen", "R", "Q", "0", "1", "-2", "x", "y", "(", ")",
          "(= 0 0)", "(= x x)", "(S 0)", "(x)", "inst", "k", "eq-refl", "eq-cong-fun",
          "S", "<=", "weird", "#", "forall", "a(b)", "2.5", "\t"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(st.sampled_from(TOKENS), max_size=6), min_size=1, max_size=3))
def test_token_soup_reads_as_before(lines):
    text = "\n".join(" ".join(words) for words in lines)
    for line in text.splitlines():
        try:
            chunks = _old_split_chunks(line.strip())
        except FormatError:
            continue
        if chunks[:1] == ["ax"] and len(chunks) > 3:
            return  # theory ids with spaces: test_theory_ids_are_the_text_before_the_index
    assert _outcome(parse_proof, text) == _outcome(_old_parse_proof, text)
