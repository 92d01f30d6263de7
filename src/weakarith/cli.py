"""Command-line entry point.

Every verb reads the documented file formats, writes line-oriented
plain text, and exits 0 on success, 1 on a domain failure (no model,
invalid proof, absent proof, non-halting run), 2 on usage or format
problems. `--summary` appends one machine-readable key=value line.
All outputs are byte-stable for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .eqdecide import MAX_RANK, UNKNOWN, decide, normal_form, rank
from .errors import FormatError, WorkbenchError, read_text
from .experiments import (
    equivalence_decider,
    independence_search,
    proof_search_decider,
    stress_essential_undecidability,
    table_decider,
)
from .godel import NotACode, godel_decode, godel_encode
from .machines import (
    MachineRun,
    decode_program,
    load_pair_spec,
    parse_program,
)
from .modelsearch import model_search
from .proofs import InvalidStepError, check_proof, format_proof, parse_proof, search_proof
from .sexpr import infer_language, parse_formula, print_formula
from .structures import format_structure, parse_structure
from .syntax import formula_size
from .theories import get_language, get_theory
from .translate import obligations, parse_translation, translate_formula, verify_semantic

USAGE_OK = 0
DOMAIN_FAIL = 1
USAGE_FAIL = 2


def _text_arg(args) -> str:
    """The formula text of --file or --text, exactly one of which is given."""
    if (args.file is None) == (args.text is None):
        raise FormatError("give exactly one of --file and --text")
    return read_text(args.file) if args.file is not None else args.text


def _parse_text(text: str, lang):
    """One formula, read in lang if given, else in the language inferred from it."""
    return parse_formula(text, lang or infer_language([text]))


def _summary(args, **kv) -> None:
    if args.summary:
        parts = " ".join(f"{k}={v}" for k, v in kv.items())
        print(f"summary: {parts}")


# --- verb handlers ------------------------------------------------------------

def _do_parse(args) -> int:
    phi = _parse_text(_text_arg(args), args.lang and get_language(args.lang))
    print(print_formula(phi))
    if args.summary:
        _summary(args, ok=1, nodes=formula_size(phi))
    return USAGE_OK


def _do_axioms(args) -> int:
    theory = get_theory(args.theory)
    for i in range(args.start, args.start + args.count):
        print(print_formula(theory.axiom_of(i)))
    _summary(args, theory=args.theory, start=args.start, count=args.count)
    return USAGE_OK


def _do_translate(args) -> int:
    tr = parse_translation(read_text(args.translation))
    phi = _parse_text(_text_arg(args), tr.source)
    out = translate_formula(tr, phi)
    print(print_formula(out))
    if args.summary:
        _summary(args, nodes=formula_size(out))
    return USAGE_OK


def _do_obligations(args) -> int:
    tr = parse_translation(read_text(args.translation))
    theory = get_theory(args.theory)
    sentences = obligations(tr, theory, args.first_k)
    for phi in sentences:
        print(print_formula(phi))
    _summary(args, count=len(sentences))
    return USAGE_OK


def _do_verify(args) -> int:
    tr = parse_translation(read_text(args.translation))
    theory = get_theory(args.theory)
    structure = parse_structure(read_text(args.structure))
    report = verify_semantic(tr, theory, structure, args.first_k)
    failed = {i for i, _ in report.failures}
    for i in range(report.checked):
        print(f"{i} {'FAIL' if i in failed else 'ok'}")
    _summary(args, checked=report.checked, failures=len(report.failures))
    return USAGE_OK if report.ok else DOMAIN_FAIL


def _axioms_from_file(path: str, lang_id: str | None):
    texts = [line for line in read_text(path).splitlines()
             if line.strip() and not line.strip().startswith("#")]
    if not texts:
        raise FormatError(f"{path}: no formulas")
    lang = get_language(lang_id) if lang_id else infer_language(texts)
    return [parse_formula(t, lang) for t in texts]


def _do_find_model(args) -> int:
    if (args.axioms is None) == (args.theory is None):
        raise FormatError("give exactly one of --axioms and --theory")
    if args.axioms is not None:
        axioms = _axioms_from_file(args.axioms, args.lang)
    else:
        theory = get_theory(args.theory)
        axioms = [theory.axiom_of(i) for i in range(args.first_k)]
    outcome = model_search(axioms, args.max_size,
                           symmetry_breaking=args.symmetry_breaking)
    examined = sum(r.examined for r in outcome.reports)
    if outcome.witness is None:
        print(f"no model <= {args.max_size}")
        _summary(args, found=0, max_size=args.max_size, examined=examined)
        return DOMAIN_FAIL
    sys.stdout.write(format_structure(outcome.witness))
    _summary(args, found=1, size=outcome.witness.size, examined=examined)
    return USAGE_OK


def _decide_sentence(args):
    return parse_formula(read_text(args.sentence), get_language(args.lang or "eq"))


def _render_profile(p) -> str:
    small = ",".join(str(c) for c in p.small)
    return f"small={small} large={p.large}"


def _do_decide(args) -> int:
    phi = _decide_sentence(args)
    pair = load_pair_spec(args.pair)
    decision = decide(phi, pair, args.stage)
    label = decision.kind.capitalize()
    if decision.kind == UNKNOWN:
        label = f"Unknown(stage={decision.stage})"
    print(label)
    if args.witness:
        if decision.example_true is not None:
            print(f"true-profile: {_render_profile(decision.example_true)}")
        if decision.example_false is not None:
            print(f"false-profile: {_render_profile(decision.example_false)}")
    if args.summary:
        _summary(args, status=decision.kind, stage=args.stage, rank=rank(phi))
    return USAGE_OK


def _do_normal_form(args) -> int:
    phi = _decide_sentence(args)
    nf = normal_form(phi, args.rank)
    print(nf.render())
    _summary(args, rank=nf.rank, disjuncts=len(nf.disjuncts))
    return USAGE_OK


def _do_enumerate_pair(args) -> int:
    pair = load_pair_spec(args.pair)
    left = sorted(pair.left.at(args.stage))
    right = sorted(pair.right.at(args.stage))
    print("left:", *left)
    print("right:", *right)
    _summary(args, stage=args.stage, left=len(left), right=len(right))
    return USAGE_OK


def _do_run_machine(args) -> int:
    if (args.program is None) == (args.code is None):
        raise FormatError("give exactly one of --program and --code")
    if args.program is not None:
        program = parse_program(read_text(args.program))
    else:
        program = decode_program(args.code)
    run = MachineRun(program, args.input)
    result = run.advance(args.steps)
    if result is None:
        print(f"did not halt within {args.steps} steps")
        _summary(args, halted=0, steps=run.steps)
        return DOMAIN_FAIL
    print(f"halted output={result}")
    _summary(args, halted=1, output=result, steps=run.steps)
    return USAGE_OK


def _do_check_proof(args) -> int:
    theory = get_theory(args.theory)
    proof = parse_proof(read_text(args.proof), theory.language)
    try:
        conclusion = check_proof(proof, theory)
    except InvalidStepError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        _summary(args, valid=0, steps=len(proof.steps))
        return DOMAIN_FAIL
    print(print_formula(conclusion))
    _summary(args, valid=1, steps=len(proof.steps))
    return USAGE_OK


def _do_search_proof(args) -> int:
    theory = get_theory(args.theory)
    goal = parse_formula(read_text(args.goal), theory.language)
    proof = search_proof(theory, goal, args.budget,
                         numeral_bound=args.numeral_bound)
    if proof is None:
        print(f"no proof within budget {args.budget}")
        _summary(args, found=0, budget=args.budget)
        return DOMAIN_FAIL
    sys.stdout.write(format_proof(proof))
    _summary(args, found=1, steps=len(proof.steps), budget=args.budget)
    return USAGE_OK


def _do_godel(args) -> int:
    if (args.encode is None) == (args.decode is None):
        raise FormatError("give exactly one of --encode and --decode")
    if args.encode is not None:
        phi = _parse_text(read_text(args.encode), args.lang and get_language(args.lang))
        code = godel_encode(phi)
        print(code)
        _summary(args, code=code)
        return USAGE_OK
    try:
        phi = godel_decode(args.decode)
    except NotACode as exc:
        print(f"not a code: {exc}", file=sys.stderr)
        _summary(args, ok=0)
        return DOMAIN_FAIL
    print(print_formula(phi))
    if args.summary:
        _summary(args, ok=1, nodes=formula_size(phi))
    return USAGE_OK


def _make_decider(args, pair):
    name = args.decider
    if name == "table":
        return table_decider(pair, args.stage)
    if name == "equivalence":
        return equivalence_decider(pair, args.stage)
    if name == "proof-search":
        if args.theory is None:
            raise FormatError("proof-search decider needs --theory")
        return proof_search_decider(get_theory(args.theory), args.budget)
    raise FormatError(f"unknown decider {name!r}")


def _do_independence(args) -> int:
    pair = load_pair_spec(args.pair)
    decider = _make_decider(args, pair)
    report = independence_search(pair, decider, args.n_max, stage=args.stage)
    print("x:", *report.x_set)
    print("y:", *report.y_set)
    for c in report.conflicts:
        print("conflict:", c)
    if report.exhausted:
        print("witness: none")
    else:
        print("witness:", report.witness)
        print("positive:", print_formula(report.positive))
        print("negative:", print_formula(report.negative))
    _summary(args, witness="none" if report.exhausted else report.witness,
             x=len(report.x_set), y=len(report.y_set),
             conflicts=len(report.conflicts),
             exhausted=int(report.exhausted))
    return USAGE_OK


def _do_stress(args) -> int:
    theory = get_theory(args.theory)
    pair = None if args.pair is None else load_pair_spec(args.pair)
    if pair is None and args.decider in ("table", "equivalence"):
        raise FormatError(f"decider {args.decider!r} needs --pair")
    decider = _make_decider(args, pair)
    report = stress_essential_undecidability(
        theory, decider, args.sentence_budget, axiom_scan=args.axiom_scan)
    for row in report.rows:
        note = f" {row.note}" if row.note else ""
        print(f"{row.n} {row.answer}{note}")
    _summary(args, rows=len(report.rows), unanswered=len(report.unanswered),
             inconsistent=len(report.inconsistent))
    return USAGE_OK


# --- parser -------------------------------------------------------------------

def _natural(text: str) -> int:
    """argparse type of every count, size, stage, step, input and budget option."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid natural value: {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared thereafter."""
    top = argparse.ArgumentParser(
        prog="weakarith",
        description="workbench for weak arithmetic theories")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--summary", action="store_true",
                        help="append one machine-readable summary line")
    subparsers = top.add_subparsers(dest="verb", required=True)

    def verb(name, run, **kw):
        p = subparsers.add_parser(name, parents=[common], **kw)
        p.set_defaults(run=run)
        return p

    p = verb("parse", _do_parse, help="parse and reprint a formula")
    p.add_argument("--file", help="file holding one formula")
    p.add_argument("--text", help="inline formula text")
    p.add_argument("--lang", help="language or theory id")

    p = verb("axioms", _do_axioms, help="print a theory's axioms by index")
    p.add_argument("theory")
    p.add_argument("--count", type=_natural, default=10)
    p.add_argument("--start", type=int, default=0)

    p = verb("translate", _do_translate, help="apply a translation to a formula")
    p.add_argument("--translation", required=True)
    p.add_argument("--file")
    p.add_argument("--text")

    p = verb("obligations", _do_obligations, help="print a translation's proof obligations")
    p.add_argument("--translation", required=True)
    p.add_argument("--theory", required=True)
    p.add_argument("--first-k", type=_natural, default=5)

    p = verb("verify", _do_verify, help="evaluate obligations in a finite structure")
    p.add_argument("--translation", required=True)
    p.add_argument("--theory", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--first-k", type=_natural, default=5)

    p = verb("find-model", _do_find_model, help="search finite models by size")
    p.add_argument("--axioms", help="file with one sentence per line")
    p.add_argument("--theory", help="theory id (used with --first-k)")
    p.add_argument("--first-k", type=_natural, default=5)
    p.add_argument("--lang")
    p.add_argument("--max-size", type=_natural, required=True)
    p.add_argument("--symmetry-breaking", action="store_true")

    p = verb("decide", _do_decide, help="decide a one-binary-relation sentence")
    p.add_argument("--sentence", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--stage", type=_natural, default=0)
    p.add_argument("--lang")
    p.add_argument("--witness", action="store_true",
                   help="print witnessing profiles")

    p = verb("normal-form", _do_normal_form, help="size-literal normal form of a sentence")
    p.add_argument("--sentence", required=True)
    p.add_argument("--rank", type=int,
                   help="profile rank: at least the sentence's rank and "
                        f"at most {MAX_RANK} (default: the sentence's rank)")
    p.add_argument("--lang")

    p = verb("enumerate-pair", _do_enumerate_pair, help="list both sides of a pair at a stage")
    p.add_argument("--pair", required=True)
    p.add_argument("--stage", type=_natural, default=0)

    p = verb("run-machine", _do_run_machine, help="run a counter machine")
    p.add_argument("--program", help="program file")
    p.add_argument("--code", type=int, help="program code")
    p.add_argument("--input", type=_natural, default=0)
    p.add_argument("--steps", type=_natural, default=1000)

    p = verb("check-proof", _do_check_proof, help="validate a proof file")
    p.add_argument("--proof", required=True)
    p.add_argument("--theory", required=True)

    p = verb("search-proof", _do_search_proof, help="bounded proof search")
    p.add_argument("--theory", required=True)
    p.add_argument("--goal", required=True, help="file with the goal sentence")
    p.add_argument("--budget", type=_natural, default=1000)
    p.add_argument("--numeral-bound", type=_natural, default=2)

    p = verb("godel", _do_godel, help="encode or decode a formula number")
    p.add_argument("--encode", help="file with the formula to number")
    p.add_argument("--decode", type=int, help="number to decode")
    p.add_argument("--lang")

    p = verb("independence", _do_independence,
             help="search for an index the decider cannot settle")
    p.add_argument("--pair", required=True)
    p.add_argument("--decider", required=True,
                   help="table | equivalence | proof-search")
    p.add_argument("--n-max", type=_natural, required=True)
    p.add_argument("--stage", type=_natural, default=0)
    p.add_argument("--budget", type=_natural, default=1000)
    p.add_argument("--theory", help="theory id for the proof-search decider")

    p = verb("stress", _do_stress, help="drive a decider across a sentence family")
    p.add_argument("--theory", required=True)
    p.add_argument("--decider", required=True)
    p.add_argument("--pair")
    p.add_argument("--stage", type=_natural, default=0)
    p.add_argument("--budget", type=_natural, default=1000)
    p.add_argument("--sentence-budget", type=_natural, default=5)
    p.add_argument("--axiom-scan", type=_natural, default=200)

    return top


def main(argv=None) -> int:
    # The CLI owns its process, so it sets two interpreter limits that the
    # library leaves alone. Model search, evaluation and translation recurse
    # once per level of a formula, and numerals nest as deep as their value;
    # formula numbers run to hundreds of thousands of digits.
    if sys.getrecursionlimit() < 20000:
        sys.setrecursionlimit(20000)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_FAIL
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_FAIL
    except (RecursionError, MemoryError) as exc:
        # input too deep or too large for this process; the stack is
        # unwound by now, so reporting it is safe
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return DOMAIN_FAIL
    except BrokenPipeError:
        # downstream closed the pipe early (e.g. piped into head); point
        # stdout at devnull so interpreter shutdown does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + 13


if __name__ == "__main__":
    sys.exit(main())
