"""The `models` workload: finite model search, translations, semantic checks.

Nearly all of its time goes to the two evaluators: model search prunes
with the three-valued one over partial tables, translations are checked
with the Tarskian one. Unsatisfiable searches run to exhaustion, while
satisfiable ones stop at the first witness.
"""

from __future__ import annotations

import ast
import random

from common import Inputs, Job, expect, expect_cli
from reference import eval_structure, numeral_text, structure_count, symbol_arities

# catalog prefixes (theory, first k, max size) with no model up to the
# size, and with one; every round searches all of them. Q- stops at size 2:
# its two ternary relations give 1.46e18 structures of size 3, and the
# exact examined count of a round must stay within a double's 2**53
UNSAT_PREFIXES = [("Q", k, 3) for k in range(4, 8)] + [("Q+", k, 3) for k in (7, 10, 13)] + \
    [("Q-", k, 2) for k in (5, 7, 9)] + [("TC", 5, 3), ("AS", 2, 3)] + \
    [("PA-", k, 2) for k in range(10, 15)]
SAT_PREFIXES = [("PA-", k, 3) for k in range(3, 10)] + [("TC", 2, 3), ("AS", 1, 3)]

COUNTS = {
    "search.tiny": 12,
    "translate.grid": 16,
    "verify.semantic": 10,
    "cli.find-model": 10,
    "cli.translate": 16,
    "cli.obligations": 10,
    "cli.verify": 10,
}

TINY_SYMBOLS = [("0", "function", 0), ("f", "function", 1), ("R", "relation", 2)]
SS_SYMBOLS = [("0", "function", 0), ("S", "function", 1)]
GRAPH_SYMBOLS = [("Z", "relation", 1), ("Sg", "relation", 2), ("D", "relation", 1)]

IDENTITY_R = """\
source: R
target: R
domain: (= v0 v0)
rel <=: (<= v0 v1)
fun 0: (= v0 0)
fun S: (= v1 (S v0))
fun +: (= v2 (+ v0 v1))
fun *: (= v2 (* v0 v1))
"""


# --- seeded inputs ------------------------------------------------------------------


def _random_sentence(rng: random.Random, depth: int, atom, variables=()) -> str:
    """A sentence whose atoms come from atom(rng, bound variables)."""
    variables = list(variables)
    if depth == 0:
        return atom(rng, variables)
    k = rng.randrange(6)
    if k == 0:
        return f"(not {_random_sentence(rng, depth - 1, atom, variables)})"
    if k <= 3:
        op = ("and", "or", "->")[k - 1]
        return (f"({op} {_random_sentence(rng, depth - 1, atom, variables)} "
                f"{_random_sentence(rng, depth - 1, atom, variables)})")
    v = f"q{len(variables)}"
    head = "forall" if k == 4 else "exists"
    return f"({head} {v} {_random_sentence(rng, depth - 1, atom, variables + [v])})"


def _tiny_atom(rng, variables):
    terms = ["0"] + list(variables)
    t = rng.choice(terms)
    if rng.random() < 0.5:
        t = f"(f {t})"
    u = rng.choice(terms)
    return f"(R {t} {u})" if rng.random() < 0.5 else f"(= {t} {u})"


def _tiny_axioms(rng) -> list[str]:
    """A few random sentences over a constant, a unary function and a relation.

    Searches over them stop at size 2, where a signature this small has
    only 128 structures, so no draw can run away with the round's time.
    """
    return [_random_sentence(rng, 3, _tiny_atom) for _ in range(rng.randint(3, 5))]


def _ss_term(rng, depth, variables):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(variables) if variables and rng.random() < 0.6 else "0"
    return f"(S {_ss_term(rng, depth - 1, variables)})"


def _ss_atom(rng, variables):
    return f"(= {_ss_term(rng, 2, variables)} {_ss_term(rng, 2, variables)})"


def _arith_term(rng: random.Random, depth: int, variables) -> str:
    if depth == 0 or rng.random() < 0.35:
        if variables and rng.random() < 0.6:
            return rng.choice(variables)
        return numeral_text(rng.randrange(3))
    op = rng.choice(("S", "+", "*"))
    if op == "S":
        return f"(S {_arith_term(rng, depth - 1, variables)})"
    return (f"({op} {_arith_term(rng, depth - 1, variables)} "
            f"{_arith_term(rng, depth - 1, variables)})")


def _r_atom(rng, variables):
    a, b = _arith_term(rng, 2, variables), _arith_term(rng, 2, variables)
    return f"(<= {a} {b})" if rng.random() < 0.4 else f"(= {a} {b})"


def _graph_target(rng) -> tuple[int, dict, dict]:
    """A structure whose D-part carries a total unary function and a zero.

    Points outside D get random garbage, which the translation must ignore.
    """
    size = rng.randint(1, 4)
    dom = sorted(rng.sample(range(size), rng.randint(1, size)))
    zeros = {(rng.choice(dom),)}
    succ = {(a, rng.choice(dom)) for a in dom}
    for o in range(size):
        if o not in dom and rng.random() < 0.5:
            succ.add((o, rng.randrange(size)))
        if o not in dom and rng.random() < 0.3:
            zeros.add((o,))
    return size, {}, {"Z": zeros, "Sg": succ, "D": {(a,) for a in dom}}


def _arith_structure(rng) -> tuple[int, dict, dict]:
    """A small structure for the R language: modular or saturating arithmetic."""
    n = rng.randint(2, 4)
    cap = (lambda v: v % n) if rng.random() < 0.5 else (lambda v: min(v, n - 1))
    order = rng.choice(("le", "all", "eq"))
    le = {(a, b) for a in range(n) for b in range(n)
          if order == "all" or (order == "le" and a <= b) or (order == "eq" and a == b)}
    functions = {
        "0": (0,),
        "S": tuple(cap(a + 1) for a in range(n)),
        "+": tuple(cap(a + b) for a in range(n) for b in range(n)),
        "*": tuple(cap(a * b) for a in range(n) for b in range(n)),
    }
    return n, functions, {"<=": le}


def _structure_text(size, functions, relations) -> str:
    lines = [f"size {size}"]
    for name in sorted(functions):
        lines.append(f"fun {name} = [{', '.join(map(str, functions[name]))}]")
    for name in sorted(relations):
        cells = ", ".join(str(t) for t in sorted(relations[name]))
        lines.append(f"rel {name} = {{{cells}}}")
    return "\n".join(lines) + "\n"


def _holds(f, structure) -> bool:
    """Reference truth of a sentence in a FiniteStructure the program built."""
    return eval_structure(f, structure.size, structure.functions, structure.relations)


# --- generation ------------------------------------------------------------------


def generate(rng: random.Random, inputs: Inputs) -> list[Job]:
    inputs.theory("R")
    inputs.language("tiny", TINY_SYMBOLS)
    inputs.language("ss", SS_SYMBOLS)
    inputs.language("graph", GRAPH_SYMBOLS)
    inputs.translation("id-R", IDENTITY_R)
    inputs.api_translation("graph", "ss", "graph", "(D v0)",
                           {"0": "(Z v0)", "S": "(Sg v0 v1)"})
    jobs: list[Job] = []
    add = jobs.append

    for theory, first_k, max_size in UNSAT_PREFIXES:
        add(_catalog_search(inputs, theory, first_k, max_size, sat=False))
    for theory, first_k, max_size in SAT_PREFIXES:
        add(_catalog_search(inputs, theory, first_k, max_size, sat=True))
    for k in range(COUNTS["search.tiny"]):
        add(_tiny_search(inputs, f"tiny{k}", [_tiny_axioms(rng) for _ in range(30)], 2))
    for k in range(COUNTS["translate.grid"]):
        add(_translation_grid(rng, inputs, f"grid{k}"))
    for k in range(COUNTS["verify.semantic"]):
        add(_verify(rng, inputs, f"verify{k}"))

    add(Job("cli.find-model",
            lambda ctx: ctx.cli(["find-model", "--theory", "Q", "--first-k", "4",
                                 "--max-size", "3"]),
            lambda out, ctx: expect_cli(out, 1, "no model <= 3\n"),
            digest_key="cli.find-model.readme"))
    for k in range(COUNTS["cli.find-model"] - 1):
        add(_cli_find_model(inputs, f"cli-tiny{k}", _tiny_axioms(rng), 2))
    for k in range(COUNTS["cli.translate"]):
        add(_cli_translate(rng, inputs, f"cli-tr{k}"))
    for k in range(COUNTS["cli.obligations"]):
        first_k = rng.randint(4, 10)
        argv = ["obligations", "--translation", inputs.manifest["translations"]["id-R"],
                "--theory", "R", "--first-k", str(first_k), "--summary"]
        add(Job("cli.obligations", lambda ctx, argv=argv: ctx.cli(argv), _check_obligations,
                digest_key=f"cli.obligations.{k}"))
    for k in range(COUNTS["cli.verify"]):
        add(_cli_verify(rng, inputs, f"cli-verify{k}"))
    return jobs


# --- job constructors -------------------------------------------------------------------


def _check_outcome(ctx, outcome, axioms, max_size, sat) -> None:
    """Witness and accounting checks that need no trust in the search."""
    rels, funs = symbol_arities(axioms)
    reports = outcome.reports
    expect([r.size for r in reports] == list(range(1, len(reports) + 1)), "report sizes")
    if outcome.witness is None:
        expect(sat is not True, "no witness for a satisfiable prefix")
        expect(len(reports) == max_size, "search stopped early without a witness")
        last = len(reports)
    else:
        expect(sat is not False, "witness for an unsatisfiable prefix")
        w = outcome.witness
        expect(w.size == reports[-1].size, "witness size is not the last size searched")
        expect(all(_holds(ax, w) for ax in axioms), "witness falsifies an axiom")
        expect(all(ctx.wa.eval_formula(w, ax) for ax in axioms),
               "eval_formula rejects the witness")
        last = len(reports) - 1
    # every size without a witness was searched exhaustively
    for r in reports[:last]:
        count = structure_count(rels, funs, r.size)
        expect(r.examined == count and r.total == count,
               f"size {r.size}: examined {r.examined}, closed form {count}")


def _catalog_search(inputs, theory_id, first_k, max_size, sat) -> Job:
    inputs.theory(theory_id)

    def call(ctx):
        theory = ctx.theories[theory_id]
        axioms = [theory.axiom_of(i) for i in range(first_k)]
        return axioms, ctx.wa.model_search(axioms, max_size)

    def check(out, ctx):
        axioms, outcome = out
        _check_outcome(ctx, outcome, axioms, max_size, sat)

    return Job("search.unsat" if not sat else "search.sat", call, check)


def _tiny_search(inputs, key, axiom_sets, max_size) -> Job:
    key_sets = [[inputs.formula(f"{key}.{j}.{i}", t, "tiny") for i, t in enumerate(texts)]
                for j, texts in enumerate(axiom_sets)]

    def call(ctx):
        return [ctx.wa.model_search([ctx.formulas[k] for k in keys], max_size)
                for keys in key_sets]

    def check(outcomes, ctx):
        for keys, outcome in zip(key_sets, outcomes):
            _check_outcome(ctx, outcome, [ctx.formulas[k] for k in keys], max_size, None)

    return Job("search.tiny", call, check)


def _translation_grid(rng, inputs, key) -> Job:
    sentences = [inputs.formula(f"{key}.phi{i}", _random_sentence(rng, 3, _ss_atom), "ss")
                 for i in range(10)]
    targets = [inputs.structure(f"{key}.t{i}", _structure_text(*_graph_target(rng)))
               for i in range(3)]

    def call(ctx):
        tr = ctx.translations["graph"]
        translated = [ctx.wa.translate_formula(tr, ctx.formulas[s]) for s in sentences]
        rows = []
        for t in targets:
            target = ctx.structures[t]
            induced = ctx.modules["translate"].internal_structure(tr, target)
            rows.append((induced, [(ctx.wa.eval_formula(target, tphi),
                                    ctx.wa.eval_formula(induced, ctx.formulas[s]))
                                   for s, tphi in zip(sentences, translated)]))
        return translated, rows

    def check(out, ctx):
        translated, rows = out
        for t, (induced, values) in zip(targets, rows):
            target = ctx.structures[t]
            for s, tphi, (outside, inside) in zip(sentences, translated, values):
                want = _holds(ctx.formulas[s], induced)
                expect(outside == inside == want, "translation is unsound on this target")
                expect(_holds(tphi, target) == want, "reference disagrees on the target side")

    return Job("translate.grid", call, check)


def _r_axioms_hold(ctx, structure, first_k) -> bool:
    theory = ctx.theories["R"]
    return all(_holds(theory.axiom_of(i), structure) for i in range(first_k))


def _verify(rng, inputs, key) -> Job:
    structure = inputs.structure(key, _structure_text(*_arith_structure(rng)))
    first_k = rng.randint(8, 14)

    def call(ctx):
        return ctx.wa.verify_semantic(ctx.translations["id-R"], ctx.theories["R"],
                                      ctx.structures[structure], first_k)

    def check(report, ctx):
        want = _r_axioms_hold(ctx, ctx.structures[structure], first_k)
        expect(report.ok == want, f"verify says {report.ok}, reference says {want}")
        expect(report.checked > first_k, "obligations are missing")

    return Job("verify.semantic", call, check)


def _cli_find_model(inputs, key, texts, max_size) -> Job:
    keys = [inputs.formula(f"{key}.{i}", t, "tiny") for i, t in enumerate(texts)]
    path = inputs.file("axioms.ax", "".join(t + "\n" for t in texts))
    argv = ["find-model", "--axioms", path, "--max-size", str(max_size), "--summary"]

    def check(out, ctx):
        code, stdout, _ = out
        axioms = [ctx.formulas[k] for k in keys]
        if code == 1:
            rels, funs = symbol_arities(axioms)
            total = sum(structure_count(rels, funs, k) for k in range(1, max_size + 1))
            expect_cli(out, 1, f"no model <= {max_size}\n"
                       f"summary: found=0 max_size={max_size} examined={total}\n")
            return
        expect_cli(out, 0)
        size, functions, relations = _read_structure(stdout)
        expect(all(eval_structure(ax, size, functions, relations) for ax in axioms),
               "printed model falsifies an axiom")

    return Job("cli.find-model", lambda ctx: ctx.cli(argv), check, digest_key=f"cli.{key}")


def _read_structure(text: str):
    """Parse the documented structure format printed by find-model."""
    size, functions, relations = None, {}, {}
    for line in text.splitlines():
        if line.startswith("size "):
            size = int(line[5:])
        elif line.startswith("fun "):
            name, _, table = line[4:].partition(" = ")
            functions[name] = tuple(ast.literal_eval(table))
        elif line.startswith("rel "):
            name, _, cells = line[4:].partition(" = ")
            relations[name] = set(ast.literal_eval(cells)) if cells != "{}" else set()
    expect(size is not None, "no size line")
    return size, functions, relations


def _cli_translate(rng, inputs, key) -> Job:
    text = _random_sentence(rng, 2, _r_atom)
    phi = inputs.formula(key, text, "R")
    structure = inputs.structure(key, _structure_text(*_arith_structure(rng)))
    argv = ["translate", "--translation", inputs.manifest["translations"]["id-R"],
            "--text", text]

    def check(out, ctx):
        expect_cli(out, 0)
        translated = ctx.wa.parse_formula(out[1], ctx.theories["R"].language)
        s = ctx.structures[structure]
        expect(_holds(translated, s) == _holds(ctx.formulas[phi], s),
               "identity translation changed the truth value")

    return Job("cli.translate", lambda ctx: ctx.cli(argv), check, digest_key=f"cli.{key}")


def _check_obligations(out, ctx) -> None:
    expect_cli(out, 0)
    lines = out[1].splitlines()
    expect(lines[-1] == f"summary: count={len(lines) - 1}", "obligation count line")
    language = ctx.theories["R"].language
    for line in lines[:-1]:
        ctx.wa.parse_formula(line, language)


def _cli_verify(rng, inputs, key) -> Job:
    structure = inputs.structure(key, _structure_text(*_arith_structure(rng)))
    path = inputs.manifest["structures"][structure]
    first_k = rng.randint(8, 14)
    argv = ["verify", "--translation", inputs.manifest["translations"]["id-R"],
            "--theory", "R", "--structure", path, "--first-k", str(first_k)]

    def check(out, ctx):
        want = _r_axioms_hold(ctx, ctx.structures[structure], first_k)
        expect_cli(out, 0 if want else 1)
        lines = out[1].splitlines()
        expect(len(lines) > first_k, "obligations are missing")
        expect(all(line == f"{i} ok" or line == f"{i} FAIL" for i, line in enumerate(lines)),
               "verify lines")
        expect(("FAIL" in out[1]) != want, "FAIL lines disagree with the exit code")

    return Job("cli.verify", lambda ctx: ctx.cli(argv), check, digest_key=f"cli.{key}")
