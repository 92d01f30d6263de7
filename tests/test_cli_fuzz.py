"""Every command line ends in exit 0, 1 or 2, never in a traceback.

The argv lists are drawn from `cli.build_parser()` itself: each verb's
options and positionals, each value from a pool chosen by the option's type
and destination, so an option added to the parser is fuzzed without an edit
here. Per call, no exception may escape `main` (argparse's exit counts as an
exit), the exit code is 0, 1 or 2 and stderr holds no traceback. Exit 2
prints exactly one stderr line with `error:` and exit 0 none; exit 1 prints
at most one, since domain failures (`no model <= k`, `invalid: step ...`,
`not a code: ...`) print their own line instead.
"""

import argparse
import contextlib
import io
import signal
import sys

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from weakarith.cli import _natural, build_parser, main
from weakarith.eqdecide import MAX_RANK
from weakarith.godel import godel_encode
from weakarith.machines import encode_program, parse_program
from weakarith.sexpr import parse_formula
from weakarith.theories import get_language

VERBS = next(a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)).choices

# Every option that sets how much work a call does draws at most its cap,
# so that the whole harness runs in seconds, and is always given, since
# some defaults exceed their cap (--budget 1000). Each reason is measured.
CAPS = {
    # each axiom is built and printed
    "--count": 4,
    # axiom 3j of an E theory has about (j-2)^2 atoms: `axioms E:<pair>
    # --start 170301` asks for size_unique(56765), about 3.2e9 atoms, and
    # --start 3000 already takes 9 s
    "--start": 300,
    # model search compiles the first k axioms; obligations translate them
    "--first-k": 14,
    # model search at size 3 over PA-'s first 14 axioms takes 1.3 to 2 s
    "--max-size": 2,
    # a canonical pair runs programs 0..stage for up to stage steps each
    "--stage": 40,
    # a run that loops without an exact jump takes one step at a time
    "--steps": 10_000,
    # proof search tries up to this many candidates per goal (a goal outside
    # the theory's language, such as P(n) in T-set, tries none); the slowest
    # pooled call, `search-proof --theory product:R,Q --goal goal.sexp
    # --numeral-bound 4`, takes 0.05 s at --budget 1000, 0.5 s at 10,000
    # and 5.3 s at 30,000
    "--budget": 10_000,
    # proof search instantiates with every numeral up to this bound
    "--numeral-bound": 4,
    # the equivalence decider decides index n at rank n + 1, about seven
    # times the cost of index n - 1
    "--n-max": 4,
    "--sentence-budget": 4,
    # the E theory's axioms grow as --start's reason says
    "--axiom-scan": 100,
}
# --rank: a normal form at rank 5 takes 0.7 s and at rank 4 45 ms on a
# rank-2 sentence; every rank above MAX_RANK is refused before any work
RANKS = st.one_of(st.integers(0, 4), st.sampled_from([MAX_RANK + 1, 40, 10**20]))
# --code, --decode and --input are not capped: a code up to 10^20 decodes at
# once (godel_decode refuses a code of more than MAX_CODE_BITS bits before
# unpairing it) and a run's work is set by --steps, not by its input
NUMBERS = st.one_of(st.integers(0, 20), st.integers(0, 10**20))
# codes above the codec's isqrt cutoff: a valid one of 75,872 bits and random
# ones of 5k to 150k bits, which decode until their first bad tag or name
DECODES = st.one_of(
    NUMBERS,
    st.just(godel_encode(parse_formula("(forall x (or (<= x (S 0)) (<= (S 0) x)))",
                                       get_language("R")))),
    st.builds(lambda bits, rng: rng.getrandbits(bits) | 1 << bits - 1,
              st.integers(5_000, 150_000), st.randoms(use_true_random=False)))
# programs naming registers far past the length of any register list
HUGE_REGISTERS = "inc 100000000000000000000\ndecjz 1000000000 0\ninc 0\nhalt\n"
CODES = st.one_of(NUMBERS, st.just(encode_program(parse_program(HUGE_REGISTERS))))
NOT_NUMBERS = st.one_of(st.integers(-3, -1).map(str),
                        st.sampled_from(["", "x", "1.5", "0x1f", "1e3", "-x", "--"]))

# a call that runs longer than this is a finding: a missing cap or a hang
CALL_SECONDS = 3

THEORIES = ["R", "R0", "Q", "Q+", "PA-", "TC", "AS", "T-set", "U:canonical",
            "E:canonical", "E:finite B={1,3} C={2}", "U:finite B={1,2} C={2}",
            "E:finite B={x} C={1}", "product:R,Q", "product:R", "nonsense", ""]
PAIRS = ["canonical", "finite B={1,3} C={2}", "finite B={} C={}",
         "finite B={1,2} C={2}", "finite B={x} C={1}", "finite B={1 2} C={3}",
         "finite", "", " canonical ", "finite B={1} C={2},{3}",
         "finite B={1} C={2} {3}", "finite junk B={1} x C={2} y"]
DECIDERS = ["table", "equivalence", "proof-search", "oracle"]
LANGUAGES = ["eq", "u", "prf", "R", "Q", "PA-", "E:canonical", "nonsense", ""]
TEXTS = ["(= 0 0)", "(forall x (E x x))", "(P (S (S 0)))", "(forall c (= (c) c))",
         "(= 0", ")", "(", "", "(forall x)", "(= (S 0 0) 0)"]

# file name -> contents; the first group is valid for some option
FILES = {
    "formula.sexp": "(forall x (= (+ x 0) x))\n",
    "sentence.sexp": "(exists x (exists y (not (E x y))))\n",
    "goal.sexp": "(= (+ (S 0) (S 0)) (S (S 0)))\n",
    "identity.tr": ("source: R\ntarget: R\ndomain: (= v0 v0)\nrel <=: (<= v0 v1)\n"
                    "fun 0: (= v0 0)\nfun S: (= v1 (S v0))\nfun +: (= v2 (+ v0 v1))\n"
                    "fun *: (= v2 (* v0 v1))\n"),
    "eq.tr": "source: eq\ntarget: R\ndomain: (= v0 v0)\nrel E: (and (<= v0 v1) (<= v1 v0))\n",
    "mod3.struct": ("size 3\nfun * = [0, 0, 0, 0, 1, 2, 0, 2, 1]\n"
                    "fun + = [0, 1, 2, 1, 2, 0, 2, 0, 1]\nfun 0 = [0]\nfun S = [1, 2, 0]\n"
                    "rel <= = {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), "
                    "(2, 1), (2, 2)}\n"),
    "axioms.txt": "# two axioms\n(= (+ 0 0) 0)\n(forall x (= (+ x 0) x))\n",
    "proof.txt": ("ax R 9\nlogic inst x (or (<= x (S 0)) (<= (S 0) x)) (S 0)\n"
                  "mp 0 1\n"),
    "transfer.prog": "decjz 1 3\ninc 0\ndecjz 2 0\nhalt\n",
    "huge.prog": HUGE_REGISTERS,
    "pair.spec": "finite B={1,3} C={2}\n",
    "malformed.txt": "(forall x (= x\n",
    "junk.txt": "source nowhere\nrel : (\ndecjz 1\nsize x\n",
    "empty.txt": "",
}
UNREADABLE = ["latin1.sexp", "missing.sexp", "dir", "empty.txt"]
# option destination -> the files that hold a valid value for it
FITTING = {
    "file": ["formula.sexp"],
    "encode": ["formula.sexp", "sentence.sexp"],
    "translation": ["identity.tr", "eq.tr"],
    "structure": ["mod3.struct"],
    "axioms": ["axioms.txt"],
    "sentence": ["sentence.sexp"],
    "proof": ["proof.txt"],
    "goal": ["goal.sexp"],
    "program": ["transfer.prog", "huge.prog"],
    "pair": ["pair.spec"],
}


class Overtime(Exception):
    pass


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths of the pool's files: valid, malformed, empty, not UTF-8, missing, a directory."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / "latin1.sexp").write_bytes(b"(= 0 \xff)\n")
    return {name: str(root / name)
            for name in (*FILES, "latin1.sexp", "missing.sexp")} | {"dir": str(root)}


def _likely(common, rare):
    """common seven times in eight, else rare; hypothesis favours 0, so 0 picks common"""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 7 else common)


def _decimal(n: int) -> str:
    # main lifts the int-to-str digit limit too; the fixture in conftest.py
    # restores it after each test
    sys.set_int_max_str_digits(0)
    return str(n)


def _cap(action) -> int | None:
    return next((CAPS[o] for o in action.option_strings if o in CAPS), None)


def _values(action, files):
    """The strategy for one value of an option or positional."""
    if action.type in (int, _natural):
        cap = _cap(action)
        numbers = ({"rank": RANKS, "decode": DECODES, "code": CODES}.get(action.dest, NUMBERS)
                   if cap is None else st.integers(0, cap))
        return _likely(numbers.map(_decimal), NOT_NUMBERS)
    # one file in two cannot be read or parsed at all
    any_file = st.one_of(st.sampled_from([files[name] for name in UNREADABLE]),
                         st.sampled_from(sorted(files.values())))
    pools = {"theory": st.sampled_from(THEORIES), "decider": st.sampled_from(DECIDERS),
             "lang": st.sampled_from(LANGUAGES), "text": st.sampled_from(TEXTS),
             "pair": st.one_of(st.sampled_from(PAIRS), any_file)}
    fitting = [files[name] for name in FITTING.get(action.dest, ())]
    pool = pools.get(action.dest, any_file)
    return st.one_of(st.sampled_from(fitting), pool) if fitting else pool


def _argv(data, verb, files) -> list[str]:
    groups = []
    for action in VERBS[verb]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if _cap(action) is None:  # a capped option is always given
            if action.required:
                left_out = data.draw(st.integers(0, 9)) == 9  # one time in ten
            else:
                left_out = data.draw(st.booleans())
            if left_out:
                continue
        value = [] if action.nargs == 0 else [data.draw(_values(action, files))]
        groups.append(action.option_strings[:1] + value)
    groups.append(data.draw(_likely(st.just([]), st.sampled_from([["--bogus"], ["stray"]]))))
    return [verb, *(token for group in data.draw(st.permutations(groups)) for token in group)]


def _overtime(signum, frame):
    raise Overtime(f"call ran longer than {CALL_SECONDS} s")


def _call(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process call of main."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


@pytest.mark.parametrize("verb", sorted(VERBS))
# no shrinking: a failing call is reported as drawn, and shrinking would
# run calls that may each take CALL_SECONDS again
@settings(phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_every_argv_ends_in_an_exit_with_at_most_one_error_line(files, verb, data):
    argv = _argv(data, verb, files)
    code, err = _call(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    errors = sum("error:" in line for line in err.splitlines())
    if code == 2:
        assert errors == 1, (argv, err)
    else:
        assert errors <= code, (argv, code, err)  # none on exit 0, at most one on exit 1
