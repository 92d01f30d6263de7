"""The `prove` workload: bounded proof search, proof checking, axiom streams.

Almost all of its time goes to the formula kernel: substitution, hashing
and equality of ground numerals. It never builds a finite structure, runs
a machine or numbers a formula.
"""

from __future__ import annotations

import random

from common import Inputs, Job, expect, expect_cli, node_count
from reference import numeral_text, print_formula, r_axiom_text, skeleton_is_tautology

README_GOAL = "(or (<= (S 0) (S 0)) (<= (S 0) (S 0)))"

# instances at numerals t, u of the Q+ axioms 1, 3, 5, 4 and 10
QPLUS_INSTANCES = (
    lambda t, u: f"(not (= (S {t}) 0))",
    lambda t, u: f"(= (+ {t} 0) {t})",
    lambda t, u: f"(= (* {t} 0) 0)",
    lambda t, u: f"(= (+ {t} (S {u})) (S (+ {t} {u})))",
    lambda t, u: f"(= (+ {t} {u}) (+ {u} {t}))",
)

# jobs of each kind in one round, sized so that each kind takes a
# comparable share of the round's time
COUNTS = {
    "search.found": 24,
    "check.valid": 20,
    "check.forged": 20,
    "axioms.stream": 12,
    "tautology.certify": 10,
    "tautology.skeleton": 8,
    "cli.axioms": 10,
    "cli.parse": 30,
    "cli.check-proof": 10,
    "cli.search-proof": 6,
}

# (theory, budget, operation) of the false-goal searches of a round
MISSES = (("R", 300, "+"), ("R", 400, "*"), ("R0", 300, "+"), ("Q+", 1000, "*"))


def _ax5_instance(n: int, t: int) -> tuple[int, str, str]:
    """Axiom index, universal body and instance of ax5(n) at numeral t."""
    num, term = numeral_text(n), numeral_text(t)
    body = f"(or (<= x {num}) (<= {num} x))"
    return 5 * n + 4, body, f"(or (<= {term} {num}) (<= {num} {term}))"


def _found_goal(rng: random.Random, k: int) -> tuple[str, str, int]:
    """(theory, goal text, budget) for a goal the search finds early."""
    shape = k % 3
    if shape == 0:
        # ground axioms only: a universal goal widens the instantiation pool
        i = rng.randrange(5, 8) * 5 + rng.randrange(3)
        return "R", r_axiom_text("R", i), 5000
    if shape == 1:
        return "R", _ax5_instance(rng.randrange(6), rng.randrange(3))[2], 5000
    template = QPLUS_INSTANCES[k // 3 % len(QPLUS_INSTANCES)]
    return "Q+", template(numeral_text(rng.randrange(3)), numeral_text(rng.randrange(3))), 3000


def _false_identity(rng: random.Random, op: str) -> str:
    """m op n = wrong for {m, n} = {1, 2}.

    Numerals of one shape keep the instantiation pool, and with it the cost
    of an exhausted budget, the same from one draw to the next.
    """
    m, n = rng.choice(((1, 2), (2, 1)))
    wrong = (m + n if op == "+" else m * n) + 1
    return f"(= ({op} {numeral_text(m)} {numeral_text(n)}) {numeral_text(wrong)})"


def _small_axiom(rng: random.Random) -> int:
    """An R axiom index in 100..399 other than ax4, whose size is quadratic."""
    i = rng.randrange(100, 400)
    return i if i % 5 != 3 else i + 1


def _valid_proof(rng: random.Random) -> tuple[list[str], list[str]]:
    """A proof in R built from blocks, with the formula text of every step."""
    lines: list[str] = []
    texts: list[str] = []
    # steps that are axioms or instances; weakening cites only these, so
    # formulas do not double in size along the proof
    basic: list[int] = []
    for _ in range(rng.randrange(12, 20)):
        block = rng.randrange(3)
        if block == 0:
            i = _small_axiom(rng)
            basic.append(len(lines))
            lines.append(f"ax R {i}")
            texts.append(r_axiom_text("R", i))
        elif block == 1:
            t = rng.randrange(4)
            index, body, instance = _ax5_instance(rng.randrange(8), t)
            base = len(lines)
            whole = r_axiom_text("R", index)
            basic += [base, base + 2]
            lines += [f"ax R {index}", f"logic inst x {body} {numeral_text(t)}",
                      f"mp {base} {base + 1}"]
            texts += [whole, f"(-> {whole} {instance})", instance]
        else:
            if not basic:
                continue
            p = rng.choice(basic)
            other = r_axiom_text("R", _small_axiom(rng))
            a = texts[p]
            base = len(lines)
            lines += [f"logic k {a} {other}", f"mp {p} {base}"]
            texts += [f"(-> {a} (-> {other} {a}))", f"(-> {other} {a})"]
    if not lines:
        lines, texts = ["ax R 0"], [r_axiom_text("R", 0)]
    return lines, texts


def _forge(rng: random.Random, lines: list[str], texts: list[str]) -> tuple[list[str], int]:
    """A variant of a valid proof that is invalid at a known step."""
    n = len(lines)
    how = rng.randrange(4)
    if how == 0:
        # modus ponens whose premise is not the antecedent
        p = rng.randrange(n)
        i = rng.randrange(200)
        while r_axiom_text("R", i) == texts[p]:
            i = rng.randrange(200)
        a = r_axiom_text("R", i)
        return lines + [f"logic k {a} {a}", f"mp {p} {n}"], n + 1
    if how == 1:
        # a reference to a step that is not earlier
        at = rng.randrange(n + 1)
        return lines[:at] + [f"mp {at} 0"] + lines[at:], at
    if how == 2:
        # an axiom of another theory
        at = rng.randrange(n + 1)
        return lines[:at] + [f"ax R0 {rng.randrange(50)}"] + lines[at:], at
    # modus ponens through a step that is not an implication
    eq_index = 5 * rng.randrange(40)
    return [f"ax R {eq_index}", "mp 0 0"] + lines, 1


def generate(rng: random.Random, inputs: Inputs) -> list[Job]:
    for ident in ("R", "R0", "Q+", "product:PA-,R"):
        inputs.theory(ident)
    jobs: list[Job] = []
    add = jobs.append

    for k in range(COUNTS["search.found"]):
        add(_search_found(inputs, f"found{k}", *_found_goal(rng, k)))
    for k, (theory, budget, op) in enumerate(MISSES):
        add(_search_miss(inputs, f"miss{k}", theory, _false_identity(rng, op), budget))
    for k in range(COUNTS["check.valid"]):
        lines, texts = _valid_proof(rng)
        add(_check_valid(inputs, f"valid{k}", lines, texts[-1]))
    for k in range(COUNTS["check.forged"]):
        lines, texts = _valid_proof(rng)
        forged, bad_step = _forge(rng, lines, texts)
        add(_check_forged(inputs, f"forged{k}", forged, bad_step))
    for k in range(COUNTS["axioms.stream"]):
        add(_axiom_stream("R", rng.randrange(300, 340), 10))
    for k in range(COUNTS["tautology.certify"]):
        add(_tautology_certify(rng.randrange(200, 260), 60))
    for k in range(COUNTS["tautology.skeleton"]):
        add(_tautology_skeleton(rng, inputs, f"skeleton{k}", k))

    add(_cli_axioms("R", 0, 5, readme=True))
    for k in range(COUNTS["cli.axioms"] - 1):
        add(_cli_axioms("R0", rng.randrange(200, 260), 3))
    for k in range(COUNTS["cli.parse"]):
        # small ax1 instances: parsing them costs little beside the command
        # line itself, which keeps these jobs alike
        text = r_axiom_text("R", 5 * rng.randrange(40, 60))
        add(Job("cli.parse",
                lambda ctx, text=text: ctx.cli(["parse", "--text", text, "--lang", "R",
                                                "--summary"]),
                lambda out, ctx, text=text: expect_cli(
                    out, 0, f"{text}\nsummary: ok=1 nodes={node_count(text)}\n"),
                digest_key=f"cli.parse.{k}"))
    for k in range(COUNTS["cli.check-proof"]):
        lines, texts = _valid_proof(rng)
        if k % 2 == 0:
            path = inputs.file("cli.prf", "\n".join(lines) + "\n")
            add(Job("cli.check-proof",
                    lambda ctx, path=path: ctx.cli(["check-proof", "--proof", path,
                                                    "--theory", "R"]),
                    lambda out, ctx, want=texts[-1]: expect_cli(out, 0, want + "\n"),
                    digest_key=f"cli.check-proof.{k}"))
        else:
            forged, _ = _forge(rng, lines, texts)
            path = inputs.file("cli-forged.prf", "\n".join(forged) + "\n")
            add(Job("cli.check-proof",
                    lambda ctx, path=path: ctx.cli(["check-proof", "--proof", path,
                                                    "--theory", "R"]),
                    lambda out, ctx: expect_cli(out, 1, "", "invalid:"),
                    digest_key=f"cli.check-proof.{k}"))
    add(_cli_search(inputs, "R", README_GOAL, 22, found=True, key="cli.search-proof.readme"))
    for k in range(COUNTS["cli.search-proof"] - 1):
        if k % 2 == 0:
            theory, goal, budget = _found_goal(rng, k)
            add(_cli_search(inputs, theory, goal, budget, True, f"cli.search-proof.{k}"))
        else:
            add(_cli_search(inputs, "R", _false_identity(rng, "+"), 300, False,
                            f"cli.search-proof.{k}"))
    return jobs


# --- job constructors -----------------------------------------------------------------


def _forged_tail_raises(ctx, proof, theory) -> None:
    """Appending a self-citing modus ponens must make any proof invalid."""
    proofs = ctx.modules["proofs"]
    n = len(proof.steps)
    forged = proofs.Proof(proof.steps + (proofs.ModusPonens(n, n),))
    try:
        proofs.check_proof(forged, theory)
    except proofs.InvalidStepError as exc:
        expect(exc.index == n, f"forged step {n} reported at {exc.index}")
    else:
        expect(False, "forged proof accepted")


def _search_found(inputs, key, theory_id, goal_text, budget) -> Job:
    inputs.formula(key, goal_text, theory_id)

    def call(ctx):
        return ctx.wa.search_proof(ctx.theories[theory_id], ctx.formulas[key], budget)

    def check(proof, ctx):
        expect(proof is not None, f"no proof of {goal_text} within {budget}")
        theory = ctx.theories[theory_id]
        conclusion = ctx.wa.check_proof(proof, theory)
        expect(print_formula(conclusion) == goal_text, "proof concludes another formula")
        _forged_tail_raises(ctx, proof, theory)

    return Job("search.found", call, check)


def _search_miss(inputs, key, theory_id, goal_text, budget) -> Job:
    inputs.formula(key, goal_text, theory_id)

    def call(ctx):
        return ctx.wa.search_proof(ctx.theories[theory_id], ctx.formulas[key], budget)

    def check(proof, ctx):
        expect(proof is None, f"proved the false identity {goal_text}")

    return Job("search.miss", call, check)


def _check_valid(inputs, key, lines, conclusion) -> Job:
    inputs.proof(key, "\n".join(lines) + "\n", "R")

    def call(ctx):
        return ctx.wa.check_proof(ctx.proofs[key], ctx.theories["R"])

    def check(formula, ctx):
        expect(print_formula(formula) == conclusion, "wrong conclusion")

    return Job("check.valid", call, check)


def _check_forged(inputs, key, lines, bad_step) -> Job:
    inputs.proof(key, "\n".join(lines) + "\n", "R")

    def call(ctx):
        return ctx.wa.check_proof(ctx.proofs[key], ctx.theories["R"])

    def check(exc, ctx):
        expect(exc.index == bad_step, f"forged step {bad_step} reported at {exc.index}")

    return Job("check.forged", call, check, raises="InvalidStepError")


def _axiom_stream(theory_id, start, count) -> Job:
    want = [r_axiom_text(theory_id, i) for i in range(start, start + count)]

    def call(ctx):
        theory = ctx.theories[theory_id]
        out = []
        for i in range(start, start + count):
            phi = theory.axiom_of(i)
            text = ctx.wa.print_formula(phi)
            out.append((text, ctx.wa.parse_formula(text, theory.language) == phi))
        return out

    def check(out, ctx):
        expect([t for t, _ in out] == want, f"axioms {start}.. of {theory_id} misprinted")
        expect(all(ok for _, ok in out), "printed axiom does not parse back to itself")

    return Job("axioms.stream", call, check)


def _tautology_certify(start, count) -> Job:
    def call(ctx):
        theory = ctx.theories["product:PA-,R"]
        false, implies = ctx.wa.FALSE, ctx.wa.Implies
        out = []
        for i in range(start, start + count):
            phi = theory.axiom_of(i)
            out.append((ctx.wa.is_tautology(implies(false, phi.right)),
                        ctx.wa.is_tautology(phi)))
        return out

    def check(out, ctx):
        # false -> A always holds; marker -> axiom never does, since no
        # axiom of PA- or R is propositionally valid on its own
        expect(all(vacuous and not marked for vacuous, marked in out),
               f"product axioms {start}.. misclassified")

    return Job("tautology.certify", call, check)


def _random_skeleton(rng, leaves: list[int]):
    """A full binary tree of connectives, some negated, over the given leaves.

    Every draw has the same shape and uses each atom once, so the truth
    table has the same number of rows from one draw to the next.
    """
    if len(leaves) == 1:
        node = ("atom", leaves[0])
    else:
        half = len(leaves) // 2
        node = (rng.choice(("->", "and", "or")), _random_skeleton(rng, leaves[:half]),
                _random_skeleton(rng, leaves[half:]))
    return ("not", node) if rng.random() < 0.3 else node


def _skeleton_text(node, atom_texts) -> str:
    op = node[0]
    if op == "atom":
        return atom_texts[node[1]]
    if op == "not":
        return f"(not {_skeleton_text(node[1], atom_texts)})"
    return f"({op} {_skeleton_text(node[1], atom_texts)} {_skeleton_text(node[2], atom_texts)})"


def _tautology_skeleton(rng, inputs, key, k) -> Job:
    """A truth-table job that visits every row whether or not it is valid.

    Even k give tautologies; odd k a formula false only on the last row the
    test visits (every atom true), so both kinds cost the whole table.
    """
    atoms = 6
    # atoms are ax5 instances, which the tautology test treats as opaque;
    # numerals of nearly one depth make every atom cost the same to hash
    atom_texts = [r_axiom_text("R", 5 * j + 4) for j in sorted(rng.sample(range(100, 120), atoms))]
    a = _random_skeleton(rng, rng.sample(range(atoms), atoms))
    b = _random_skeleton(rng, rng.sample(range(atoms), atoms))
    if k % 2 == 0:
        node = (
            ("->", a, a),
            ("->", ("and", a, b), a),
            ("->", ("->", ("not", a), ("not", b)), ("->", b, a)),
            ("or", a, ("not", a)),
        )[k // 2 % 4]
    else:
        every = ("atom", 0)
        for i in range(1, atoms):
            every = ("and", every, ("atom", i))
        node = ("or", ("and", a, ("not", a)), ("not", every))
    want = skeleton_is_tautology(node, atoms)
    inputs.formula(key, _skeleton_text(node, atom_texts), "product:PA-,R")

    def call(ctx):
        return ctx.wa.is_tautology(ctx.formulas[key])

    def check(got, ctx):
        expect(got == want, f"is_tautology said {got}, truth table says {want}")

    return Job("tautology.skeleton", call, check)


def _cli_axioms(theory_id, start, count, readme=False) -> Job:
    argv = ["axioms", theory_id, "--count", str(count)]
    if not readme:
        argv += ["--start", str(start)]
    want = "".join(r_axiom_text(theory_id, i) + "\n" for i in range(start, start + count))
    key = "cli.axioms.readme" if readme else f"cli.axioms.{theory_id}.{start}"
    return Job("cli.axioms", lambda ctx: ctx.cli(argv),
               lambda out, ctx: expect_cli(out, 0, want), digest_key=key)


def _cli_search(inputs, theory_id, goal_text, budget, found, key) -> Job:
    inputs.theory(theory_id)
    path = inputs.file("goal.sexp", goal_text + "\n")
    argv = ["search-proof", "--theory", theory_id, "--goal", path, "--budget", str(budget)]

    def check(out, ctx):
        if not found:
            expect_cli(out, 1, f"no proof within budget {budget}\n")
            return
        expect_cli(out, 0)
        theory = ctx.theories[theory_id]
        proof = ctx.wa.parse_proof(out[1], theory.language)
        conclusion = ctx.wa.check_proof(proof, theory)
        expect(print_formula(conclusion) == goal_text, "printed proof concludes another formula")

    return Job("cli.search-proof", lambda ctx: ctx.cli(argv), check, digest_key=key)
