"""The `oracles` workload: staged pairs, machines, the equivalence decider, numbering.

It exercises `machines`, `eqdecide`, `experiments` and `godel`. The codec's
`unpair` runs both on formula codes of thousands of digits and on tiny
program codes, and decoding builds formula nodes where `prove` mostly
queries them.
"""

from __future__ import annotations

import random
from itertools import product

from common import Inputs, Job, expect, expect_cli
from reference import (
    canonical_sides,
    encode_program,
    eval_partition,
    godel_code,
    numeral_text,
    print_formula,
    read_formula,
    quantifier_rank,
    run_machine,
    size_exists_text,
    verdict_by_brute_force,
)

COUNTS = {
    "ladder.up": 4,
    "ladder.down": 4,
    "machines.run": 10,
    "decide.finite": 32,
    "decide.canonical": 8,
    "normal-form": 8,
    "independence": 10,
    "stress": 6,
    "godel.roundtrip": 12,
    "cli.decide": 8,
    "cli.normal-form": 6,
    "cli.enumerate-pair": 6,
    "cli.run-machine": 10,
    "cli.godel": 8,
    "cli.independence": 6,
    "cli.stress": 4,
}

README_FORMULA_CODE = 12972264338907129374431599850420434393022679173
CORPUS_CONSTANTS = frozenset({"0"})


# --- seeded inputs -------------------------------------------------------------


def _finite_pair(rng, universe=range(1, 6)) -> tuple[frozenset, frozenset, str]:
    left, right = set(), set()
    for n in universe:
        side = rng.randrange(3)
        (left if side == 0 else right if side == 1 else set()).add(n)
    spec = (f"finite B={{{','.join(map(str, sorted(left)))}}} "
            f"C={{{','.join(map(str, sorted(right)))}}}")
    return frozenset(left), frozenset(right), spec


def _boolean(rng, depth) -> str:
    if depth == 0 or rng.random() < 0.3:
        a, b = rng.choice("xy"), rng.choice("xy")
        return f"(E {a} {b})" if rng.random() < 0.6 else f"(= {a} {b})"
    op = rng.choice(("not", "and", "or", "->"))
    if op == "not":
        return f"(not {_boolean(rng, depth - 1)})"
    return f"({op} {_boolean(rng, depth - 1)} {_boolean(rng, depth - 1)})"


def _rank2_sentence(rng) -> str:
    """A sentence of quantifier rank two over one binary relation."""
    q1, q2 = rng.choice(("forall", "exists")), rng.choice(("forall", "exists"))
    return f"({q1} x ({q2} y {_boolean(rng, 3)}))"


def _size_sentence(rng, left, right) -> tuple[str, str]:
    """A sentence about class sizes and its verdict, from the oracle's facts.

    Each size mentioned is at most its sentence's rank, so the facts at
    that size decide it: known left means some class has that size,
    known right means none has, unknown leaves both open.
    """
    def status(n):
        return "yes" if n in left else "no" if n in right else "open"

    a, b = rng.sample(range(1, 4), 2)
    shape = rng.randrange(4)
    if shape == 0:
        s = status(a)
        return size_exists_text(a), {"yes": "provable", "no": "refutable"}.get(s, "split")
    if shape == 1:
        s = status(a)
        return f"(not {size_exists_text(a)})", \
            {"yes": "refutable", "no": "provable"}.get(s, "split")
    sa, sb = status(a), status(b)
    text_a, text_b = size_exists_text(a), size_exists_text(b)
    if shape == 2:
        verdict = "provable" if sa == sb == "yes" else \
            "refutable" if "no" in (sa, sb) else "split"
        return f"(and {text_a} {text_b})", verdict
    verdict = "provable" if "yes" in (sa, sb) else \
        "refutable" if sa == sb == "no" else "split"
    return f"(or {text_a} {text_b})", verdict


def _random_program(rng) -> list[tuple]:
    n = rng.randint(2, 7)
    instrs = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.45:
            instrs.append(("inc", rng.randrange(3)))
        elif kind < 0.95:
            instrs.append(("decjz", rng.randrange(3), rng.randrange(n + 1)))
        else:
            instrs.append(("halt",))
    return instrs


def _corpus_formula(rng, depth) -> str:
    pool = ("x", "y", "z", "0", "(S 0)")
    if depth == 0 or rng.random() < 0.3:
        a, b = rng.choice(pool), rng.choice(pool)
        return f"(= {a} {b})" if rng.random() < 0.5 else f"(<= {a} {b})"
    r = rng.random()
    if r < 0.25:
        return f"(not {_corpus_formula(rng, depth - 1)})"
    if r < 0.65:
        head = rng.choice(("forall", "exists"))
        return f"({head} {rng.choice('xyz')} {_corpus_formula(rng, depth - 1)})"
    op = rng.choice(("and", "or"))
    return f"({op} {_corpus_formula(rng, depth - 1)} {_corpus_formula(rng, depth - 1)})"


def _banded_formula(rng, low: int, high: int) -> str:
    """A depth-3 corpus formula whose code has between low and high bits.

    Code length doubles with each binary node, so unfiltered draws range
    from a hundred bits to megabits; the band keeps decoding cost alike.
    """
    while True:
        text = _corpus_formula(rng, 3)
        if low <= godel_code(read_formula(text, CORPUS_CONSTANTS)).bit_length() <= high:
            return text


# --- generation --------------------------------------------------------------------


def generate(rng: random.Random, inputs: Inputs) -> list[Job]:
    jobs: list[Job] = []
    add = jobs.append
    stages: dict[int, tuple[frozenset, frozenset]] = {}

    def sides(stage):
        if stage not in stages:
            stages[stage] = canonical_sides(stage)
        return stages[stage]

    for k in range(COUNTS["ladder.up"]):
        top = rng.randrange(170, 190)
        add(_ladder("ladder.up", list(range(top + 1)), sides(top), rng))
    for k in range(COUNTS["ladder.down"]):
        top = rng.randrange(500, 700)
        add(_ladder("ladder.down", list(range(top, -1, -25)), sides(top), rng))
    for k in range(COUNTS["machines.run"]):
        add(_machine_batch(rng, 100))
    for k in range(COUNTS["decide.finite"]):
        left, right, spec = _finite_pair(rng)
        key = inputs.pair(f"fp{k}", spec)
        add(_decide(rng, inputs, f"df{k}", key, 0, left, right, True))
    for k in range(COUNTS["decide.canonical"]):
        stage = rng.randrange(20, 80)
        left, right = sides(stage)
        add(_decide(rng, inputs, f"dc{k}", "canonical", stage, left, right, False))
    for k in range(COUNTS["normal-form"]):
        add(_normal_form(rng, inputs, f"nf{k}", k))
    for k in range(COUNTS["independence"]):
        add(_independence(rng, inputs, f"ind{k}", sides, k % 3))
    for k in range(COUNTS["stress"]):
        add(_stress(rng, inputs, f"stress{k}"))
    for k in range(COUNTS["godel.roundtrip"]):
        # codes of about 23,000 decimal digits; lengths of depth-3 codes
        # cluster, and about one draw in ten lands here
        texts = [_banded_formula(rng, 75_000, 80_000) for _ in range(3)]
        add(_godel_roundtrip(inputs, f"corpus{k}", texts))

    add(_cli_decide(inputs, "readme", size_exists_text(2), "finite B={2} C={}", 0, "Provable"))
    for k in range(COUNTS["cli.decide"] - 1):
        left, right, spec = _finite_pair(rng)
        text, verdict = _size_sentence(rng, left, right)
        label = {"split": "Independent"}.get(verdict, verdict.capitalize())
        add(_cli_decide(inputs, str(k), text, spec, 0, label))
    for k in range(COUNTS["cli.normal-form"]):
        add(_cli_normal_form(rng, inputs, k))
    for k in range(COUNTS["cli.enumerate-pair"]):
        stage = rng.randrange(50, 150)
        left, right = sides(stage)
        want = "left: " + " ".join(map(str, sorted(left))) + "\n" + \
            "right: " + " ".join(map(str, sorted(right))) + "\n"
        want = want.replace(": \n", ":\n")
        argv = ["enumerate-pair", "--pair", "canonical", "--stage", str(stage)]
        add(Job("cli.enumerate-pair", lambda ctx, argv=argv: ctx.cli(argv),
                lambda out, ctx, want=want: expect_cli(out, 0, want),
                digest_key=f"cli.enumerate-pair.{k}"))
    for k in range(COUNTS["cli.run-machine"]):
        instrs = _random_program(rng)
        x, steps = rng.randrange(5), rng.randrange(100, 1000)
        out = run_machine(instrs, x, steps)
        argv = ["run-machine", "--code", str(encode_program(instrs)), "--input", str(x),
                "--steps", str(steps)]
        want = (0, f"halted output={out}\n") if out is not None else \
            (1, f"did not halt within {steps} steps\n")
        add(Job("cli.run-machine", lambda ctx, argv=argv: ctx.cli(argv),
                lambda res, ctx, want=want: expect_cli(res, *want),
                digest_key=f"cli.run-machine.{k}"))
    path = inputs.file("formula.sexp", "(= 0 0)\n")
    add(Job("cli.godel", lambda ctx: ctx.cli(["godel", "--encode", path, "--lang", "Q"]),
            lambda out, ctx: expect_cli(out, 0, f"{README_FORMULA_CODE}\n"),
            digest_key="cli.godel.readme"))
    for k in range(COUNTS["cli.godel"] - 1):
        add(_cli_godel_decode(rng, f"cli-godel{k}"))
    add(Job("cli.independence",
            lambda ctx: ctx.cli(["independence", "--pair", "finite A={1} B={2}",
                                 "--decider", "table", "--n-max", "10"]),
            lambda out, ctx: expect_cli(out, 0, "x: 1\ny: 2\nwitness: 0\n"
                                        "positive: (P 0)\nnegative: (not (P 0))\n"),
            digest_key="cli.independence.readme"))
    for k in range(COUNTS["cli.independence"] - 1):
        add(_cli_independence(rng, k))
    for k in range(COUNTS["cli.stress"]):
        add(_cli_stress(rng, k))
    return jobs


# --- job constructors ----------------------------------------------------------------------


def _pair(ctx, key):
    """A prepared finite pair, or a fresh canonical one so that no job
    inherits another job's memoized stages."""
    return ctx.wa.canonical_pair() if key == "canonical" else ctx.pairs[key]


def _ladder(kind, stages, top_sides, rng) -> Job:
    """Walk one fresh canonical pair through a stage ladder, then query it."""
    top = max(stages)
    probes = [(rng.choice(("left", "right")), rng.randrange(top + 1)) for _ in range(20)]

    def call(ctx):
        pair = ctx.wa.canonical_pair()
        seen = [(s, pair.left.at(s), pair.right.at(s)) for s in stages]
        answers = [pair.query(side, n, top).status for side, n in probes]
        return seen, answers

    def check(out, ctx):
        seen, answers = out
        by_stage = sorted(seen, key=lambda row: row[0])
        for (s, left, right), (_, left2, right2) in zip(by_stage, by_stage[1:]):
            expect(left <= left2 and right <= right2, f"stage {s} retracts an element")
        for s, left, right in seen:
            expect(not (left & right), f"sides share elements at stage {s}")
        expect((by_stage[-1][1], by_stage[-1][2]) == top_sides,
               f"stage {top} differs from direct simulation")
        for (side, n), status in zip(probes, answers):
            members = top_sides[0] if side == "left" else top_sides[1]
            expect(status == ("in" if n in members else "unknown"), f"query {side} {n}")

    return Job(kind, call, check)


def _machine_batch(rng, count) -> Job:
    runs = []
    for _ in range(count):
        instrs = _random_program(rng)
        x, steps = rng.randrange(6), rng.randrange(200, 2000)
        runs.append((encode_program(instrs), x, steps, run_machine(instrs, x, steps)))

    def call(ctx):
        return [ctx.wa.run_bounded(ctx.wa.decode_program(code), x, steps)
                for code, x, steps, _ in runs]

    def check(outs, ctx):
        expect(outs == [want for *_, want in runs], "run_bounded disagrees with the reference")

    return Job("machines.run", call, check)


def _decide(rng, inputs, key, pair_key, stage, left, right, finite) -> Job:
    if rng.random() < 0.5:
        text, verdict = _size_sentence(rng, left, right)
        expected = verdict if verdict != "split" else ("independent" if finite else "unknown")
        brute = False
    else:
        text, expected, brute = _rank2_sentence(rng), None, True
    phi = inputs.formula(key, text, "eq")

    def call(ctx):
        return ctx.wa.decide(ctx.formulas[phi], _pair(ctx, pair_key), stage)

    def check(decision, ctx):
        want = expected
        if brute:
            f = ctx.formulas[phi]
            want = verdict_by_brute_force(f, max(quantifier_rank(f), 1), left, right, finite)
        expect(decision.kind == want, f"decide said {decision.kind}, want {want}")

    kind = "decide.finite" if finite else "decide.canonical"
    return Job(kind, call, check)


def _profiles(r):
    for counts in product(range(r + 1), repeat=r + 1):
        if any(counts):
            yield counts[:-1], counts[-1]


def _capped_blocks(small, large, r, q):
    """Blocks of a model whose rank-q profile is that of (small, large) at rank r."""
    blocks = []
    for s, c in enumerate(small, start=1):
        if s <= q:
            blocks += [s] * min(c, q)
    big = sum(c for s, c in enumerate(small, start=1) if s > q) + large
    blocks += [q + 1 + i for i in range(min(big, q))]
    return blocks


def _expected_profiles(f, r, size_n=None) -> set:
    """Profiles at rank r whose realizations satisfy f, by the rank-q invariant."""
    if size_n is not None:
        return {(small, large) for small, large in _profiles(r) if small[size_n - 1] >= 1}
    q = max(quantifier_rank(f), 1)
    cache: dict = {}
    out = set()
    for small, large in _profiles(r):
        blocks = tuple(_capped_blocks(small, large, r, q))
        if blocks not in cache:
            cache[blocks] = eval_partition(f, blocks)
        if cache[blocks]:
            out.add((small, large))
    return out


def _normal_form_input(rng, k):
    """Sentence, rank and class size (None for a random rank-2 sentence)."""
    if k % 4 < 2:
        n = k % 4 + 1
        return size_exists_text(n), n + 1, n
    return _rank2_sentence(rng), k % 4, None


def _normal_form(rng, inputs, key, k) -> Job:
    text, r, size_n = _normal_form_input(rng, k)
    phi = inputs.formula(key, text, "eq")

    def call(ctx):
        return ctx.wa.normal_form(ctx.formulas[phi], r)

    def check(nf, ctx):
        got = set()
        for disjunct in nf.disjuncts:
            small = tuple(lit.count for lit in disjunct if lit.size is not None)
            large = [lit.count for lit in disjunct if lit.size is None]
            got.add((small, large[0]))
        want = _expected_profiles(ctx.formulas[phi], r, size_n)
        expect(len(nf.disjuncts) == len(got) and got == want,
               f"normal form has {len(got)} profiles, want {len(want)}")

    return Job("normal-form", call, check)


def _independence(rng, inputs, key, sides, choice) -> Job:
    if choice == 0:
        left, right, spec = _finite_pair(rng, range(1, 16))
        n_max, stage, decider = rng.randrange(10, 20), 0, "table"
    elif choice == 1:
        stage = rng.randrange(30, 120)
        left, right = sides(stage)
        spec, n_max, decider = "canonical", rng.randrange(15, 40), "table"
    else:
        left, right, spec = _finite_pair(rng, range(1, 4))
        n_max, stage, decider = 3, 0, "equivalence"
    pair_key = "canonical" if spec == "canonical" else inputs.pair(f"{key}.pair", spec)
    xs = sorted(n for n in left if n <= n_max)
    ys = sorted(n for n in right if n <= n_max)
    if decider == "equivalence":
        # the atom at 0 is the absurd class-size claim, refuted outright
        ys = [0] + ys
    free = [n for n in range(n_max + 1) if n not in set(xs) | set(ys)]

    def call(ctx):
        mod = ctx.modules["experiments"]
        pair = _pair(ctx, pair_key)
        handle = (mod.table_decider if decider == "table" else mod.equivalence_decider)(pair, stage)
        return mod.independence_search(pair, handle, n_max, stage=stage)

    def check(report, ctx):
        expect(list(report.x_set) == xs and list(report.y_set) == ys,
               f"settled sets {report.x_set} {report.y_set}, want {xs} {ys}")
        expect(report.conflicts == (), "conflicts against a consistent decider")
        expect(report.witness == (free[0] if free else None), "witness is not the least free index")
        if free:
            expect(print_formula(report.positive) == f"(P {numeral_text(free[0])})",
                   "witness sentence")

    return Job("independence", call, check)


def _stress_rows(left, right, budget) -> str:
    rows = []
    for n in range(1, budget + 1):
        rows.append(f"{n} provable" if n in left else f"{n} refutable" if n in right
                    else f"{n} dontknow unanswered")
    return "".join(row + "\n" for row in rows)


def _stress(rng, inputs, key) -> Job:
    left, right, spec = _finite_pair(rng, range(1, 5))
    theory_id = inputs.theory(f"E:{spec}")
    pair_key = inputs.pair(f"{key}.pair", spec)
    budget = 3
    want = _stress_rows(left, right, budget)

    def call(ctx):
        mod = ctx.modules["experiments"]
        handle = mod.equivalence_decider(ctx.pairs[pair_key], 0)
        return mod.stress_essential_undecidability(ctx.theories[theory_id], handle, budget,
                                                   axiom_scan=60)

    def check(report, ctx):
        got = "".join(f"{row.n} {row.answer}{' ' + row.note if row.note else ''}\n"
                      for row in report.rows)
        expect(got == want, f"stress rows {got!r}, want {want!r}")
        expect(report.inconsistent == (), "answers contradict the theory's axioms")

    return Job("stress", call, check)


def _godel_roundtrip(inputs, key, texts) -> Job:
    keys = [inputs.formula(f"{key}.{i}", t, "R") for i, t in enumerate(texts)]

    def call(ctx):
        codes = [ctx.wa.godel_encode(ctx.formulas[k]) for k in keys]
        return codes, [ctx.wa.godel_decode(c) for c in codes]

    def check(out, ctx):
        codes, decoded = out
        formulas = [ctx.formulas[k] for k in keys]
        expect(codes == [godel_code(f) for f in formulas], "codes differ from the numbering")
        expect(len(set(codes)) == len(set(texts)), "two formulas share a code")
        expect([print_formula(f) for f in decoded] == texts, "decode(encode(phi)) != phi")
        expect(decoded == formulas, "decoded trees differ")

    return Job("godel.roundtrip", call, check)


def _cli_decide(inputs, key, text, spec, stage, label) -> Job:
    path = inputs.file("phi.sexp", text + "\n")
    argv = ["decide", "--sentence", path, "--pair", spec, "--stage", str(stage)]
    return Job("cli.decide", lambda ctx: ctx.cli(argv),
               lambda out, ctx: expect_cli(out, 0, label + "\n"),
               digest_key=f"cli.decide.{key}")


def _cli_normal_form(rng, inputs, k) -> Job:
    text, r, size_n = _normal_form_input(rng, k)
    phi = inputs.formula(f"cli-nf{k}", text, "eq")
    path = inputs.manifest["formulas"][phi][0]
    argv = ["normal-form", "--sentence", path, "--rank", str(r), "--summary"]

    def check(out, ctx):
        want = len(_expected_profiles(ctx.formulas[phi], r, size_n))
        expect_cli(out, 0)
        expect(out[1].endswith(f"summary: rank={r} disjuncts={want}\n"), "disjunct count")

    return Job("cli.normal-form", lambda ctx: ctx.cli(argv), check,
               digest_key=f"cli.normal-form.{k}")


def _cli_godel_decode(rng, key) -> Job:
    # codes of 1,000 to 10,000 decimal digits
    text = _banded_formula(rng, 3_300, 33_000)
    argv = ["godel", "--decode", str(godel_code(read_formula(text, CORPUS_CONSTANTS)))]
    return Job("cli.godel", lambda ctx: ctx.cli(argv),
               lambda out, ctx: expect_cli(out, 0, text + "\n"), digest_key=f"cli.{key}")


def _cli_independence(rng, k) -> Job:
    left, right, spec = _finite_pair(rng, range(1, 16))
    n_max = rng.randrange(8, 20)
    xs = [n for n in sorted(left) if n <= n_max]
    ys = [n for n in sorted(right) if n <= n_max]
    free = [n for n in range(n_max + 1) if n not in left | right]
    lines = ["x: " + " ".join(map(str, xs)), "y: " + " ".join(map(str, ys))]
    lines = [line.rstrip() for line in lines]
    if free:
        w = free[0]
        lines += [f"witness: {w}", f"positive: (P {numeral_text(w)})",
                  f"negative: (not (P {numeral_text(w)}))"]
    else:
        lines.append("witness: none")
    want = "".join(line + "\n" for line in lines)
    argv = ["independence", "--pair", spec, "--decider", "table", "--n-max", str(n_max)]
    return Job("cli.independence", lambda ctx: ctx.cli(argv),
               lambda out, ctx: expect_cli(out, 0, want), digest_key=f"cli.independence.{k}")


def _cli_stress(rng, k) -> Job:
    left, right, spec = _finite_pair(rng, range(1, 5))
    argv = ["stress", "--theory", f"E:{spec}", "--decider", "equivalence", "--pair", spec,
            "--sentence-budget", "3", "--axiom-scan", "60"]
    want = _stress_rows(left, right, 3)
    return Job("cli.stress", lambda ctx: ctx.cli(argv),
               lambda out, ctx: expect_cli(out, 0, want), digest_key=f"cli.stress.{k}")
