"""End-to-end coverage for the command-line verbs.

Each test drives weakarith.cli.main in process and checks the printed
text byte for byte where the output is stable, or against the library
where the verb is a thin wrapper.
"""

import pytest

from weakarith.cli import main
from weakarith.errors import FormatError
from weakarith.sexpr import parse_formula, print_formula
from weakarith.structures import FiniteStructure, format_structure
from weakarith.theories import get_theory, size_exists
from weakarith.translate import parse_translation, translate_formula

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

PLUS_MOD3 = (0, 1, 2, 1, 2, 0, 2, 0, 1)
TIMES_MOD3 = (0, 0, 0, 0, 1, 2, 0, 2, 1)
ALL_PAIRS = frozenset((a, b) for a in range(3) for b in range(3))


def mod3_structure(succ=(1, 2, 0)):
    return FiniteStructure(
        3,
        {"0": (0,), "S": succ, "+": PLUS_MOD3, "*": TIMES_MOD3},
        {"<=": ALL_PAIRS},
    )


def test_parse_roundtrip_and_summary(capsys):
    assert main(["parse", "--text", "(= 0 0)", "--lang", "Q", "--summary"]) == 0
    out = capsys.readouterr().out
    assert out == "(= 0 0)\nsummary: ok=1 nodes=3\n"


def test_parse_rejects_double_input(capsys):
    code = main(["parse", "--text", "(= 0 0)", "--file", "also.sexp"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_parse_bad_formula_is_usage_failure(capsys):
    assert main(["parse", "--text", "(= 0", "--lang", "Q"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_non_ascii_family_index_is_unbound(capsys):
    assert main(["parse", "--text", "(= (f#\u00b2 x) x)", "--lang", "prf"]) == 2
    assert capsys.readouterr().err == "error: 1:5: unbound family index 'f#\u00b2'\n"


def test_axioms_prints_one_per_line(capsys):
    assert main(["axioms", "R", "--count", "5"]) == 0
    assert capsys.readouterr().out == (
        "(= (+ 0 0) 0)\n"
        "(= (* 0 0) 0)\n"
        "(not (= 0 (S 0)))\n"
        "(forall x (-> (<= x 0) (= x 0)))\n"
        "(forall x (or (<= x 0) (<= 0 x)))\n"
    )


def test_axioms_unknown_theory(capsys):
    assert main(["axioms", "nonsense"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_translate_matches_library(tmp_path, capsys):
    tr_path = tmp_path / "id.tr"
    tr_path.write_text(IDENTITY_R)
    assert main(["translate", "--translation", str(tr_path),
                 "--text", "(= 0 0)"]) == 0
    out = capsys.readouterr().out
    tr = parse_translation(IDENTITY_R)
    phi = parse_formula("(= 0 0)", tr.source)
    assert out == print_formula(translate_formula(tr, phi)) + "\n"


def test_obligations_count(tmp_path, capsys):
    tr_path = tmp_path / "id.tr"
    tr_path.write_text(IDENTITY_R)
    assert main(["obligations", "--translation", str(tr_path),
                 "--theory", "R", "--first-k", "2", "--summary"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("summary: count=")
    count = int(lines[-1].split("=")[1])
    assert count == len(lines) - 1
    assert count > 2  # totality and equality obligations ride along


def test_verify_all_ok(tmp_path, capsys):
    tr_path = tmp_path / "id.tr"
    tr_path.write_text(IDENTITY_R)
    st_path = tmp_path / "m3.fs"
    st_path.write_text(format_structure(mod3_structure()))
    assert main(["verify", "--translation", str(tr_path), "--theory", "R",
                 "--structure", str(st_path), "--first-k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.endswith(" ok") for line in lines)


def test_verify_reports_failure(tmp_path, capsys):
    tr_path = tmp_path / "id.tr"
    tr_path.write_text(IDENTITY_R)
    st_path = tmp_path / "bad.fs"
    # constant successor breaks the third axiom, 0 != S 0
    st_path.write_text(format_structure(mod3_structure(succ=(0, 0, 0))))
    assert main(["verify", "--translation", str(tr_path), "--theory", "R",
                 "--structure", str(st_path), "--first-k", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.endswith(" FAIL") for line in lines)


def test_find_model_success(tmp_path, capsys):
    ax = tmp_path / "refl.ax"
    ax.write_text("(forall x (= x x))\n")
    assert main(["find-model", "--axioms", str(ax),
                 "--max-size", "2", "--lang", "eq"]) == 0
    assert capsys.readouterr().out == "size 1\n"


def test_find_model_absence_is_domain_failure(capsys):
    code = main(["find-model", "--theory", "Q", "--first-k", "4",
                 "--max-size", "3"])
    assert code == 1
    assert capsys.readouterr().out == "no model <= 3\n"


def test_find_model_needs_exactly_one_source(capsys):
    assert main(["find-model", "--max-size", "2"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_decide_provable_with_witness(tmp_path, capsys):
    phi2 = tmp_path / "phi2.sexp"
    phi2.write_text(print_formula(size_exists(2)) + "\n")
    assert main(["decide", "--sentence", str(phi2),
                 "--pair", "finite B={2} C={}", "--witness", "--summary"]) == 0
    assert capsys.readouterr().out == (
        "Provable\n"
        "true-profile: small=0,1,0 large=0\n"
        "summary: status=provable stage=0 rank=3\n"
    )


def test_decide_refutable_and_unknown(tmp_path, capsys):
    phi3 = tmp_path / "phi3.sexp"
    phi3.write_text(print_formula(size_exists(3)) + "\n")
    assert main(["decide", "--sentence", str(phi3),
                 "--pair", "finite B={} C={3}"]) == 0
    assert capsys.readouterr().out == "Refutable\n"
    phi5 = tmp_path / "phi5.sexp"
    phi5.write_text(print_formula(size_exists(5)) + "\n")
    assert main(["decide", "--sentence", str(phi5),
                 "--pair", "canonical", "--stage", "3"]) == 0
    assert capsys.readouterr().out == "Unknown(stage=3)\n"


def test_normal_form_render(tmp_path, capsys):
    src = tmp_path / "true.sexp"
    src.write_text("true\n")
    assert main(["normal-form", "--sentence", str(src),
                 "--rank", "1", "--summary"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("summary: rank=1 disjuncts=3\n")
    assert "at least 1 class of size 1" in out


@pytest.mark.parametrize("rank", ["6", "99999999999999999999"])
def test_normal_form_refuses_a_rank_above_the_bound(tmp_path, capsys, rank):
    src = tmp_path / "true.sexp"
    src.write_text("true\n")
    assert main(["normal-form", "--sentence", str(src), "--rank", rank]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: rank {rank} above the largest supported rank 5\n"


def test_normal_form_help_states_the_rank_bound(capsys):
    with pytest.raises(SystemExit):
        main(["normal-form", "--help"])
    assert "at most 5" in " ".join(capsys.readouterr().out.split())


def test_enumerate_pair(capsys):
    assert main(["enumerate-pair", "--pair", "finite B={2,5} C={3}"]) == 0
    assert capsys.readouterr().out == "left: 2 5\nright: 3\n"


def test_run_machine_by_code(capsys):
    assert main(["run-machine", "--code", "5", "--steps", "100"]) == 0
    assert capsys.readouterr().out == "halted output=1\n"
    assert main(["run-machine", "--code", "6216", "--steps", "50"]) == 1
    assert capsys.readouterr().out == "did not halt within 50 steps\n"


def _one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("line", ["inc -3", "decjz 0 -5", "decjz -1 0"])
def test_run_machine_refuses_negative_numbers(tmp_path, capsys, line):
    program = tmp_path / "negative.prog"
    program.write_text(f"inc 0\n{line}\nhalt\n")
    assert main(["run-machine", "--program", str(program), "--steps", "10"]) == 2
    assert _one_error_line(capsys) == f"error: line 2: bad instruction {line!r}\n"


@pytest.mark.parametrize("argv", [
    ["enumerate-pair", "--pair", "finite B={1 2} C={}"],
    ["axioms", "U:finite B={1 2} C={}"],
])
def test_pair_spec_with_a_spaced_element_is_an_error_line(capsys, argv):
    assert main(argv) == 2
    assert _one_error_line(capsys) == \
        "error: bad element '1 2' in pair spec 'finite B={1 2} C={}'\n"


@pytest.mark.parametrize("argv", [
    ["parse", "--file", "{}"],
    ["godel", "--encode", "{}"],
    ["search-proof", "--theory", "R", "--goal", "{}"],
    ["enumerate-pair", "--pair", "{}"],
    ["axioms", "E:{}"],
])
def test_a_file_that_is_not_utf8_is_an_error_line(tmp_path, capsys, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"(= 0 \xe9)\n")
    assert main([arg.format(path) for arg in argv]) == 2
    assert _one_error_line(capsys).startswith(f"error: cannot read {path}: ")


def test_check_proof_valid_and_invalid(tmp_path, capsys):
    good = tmp_path / "p1.prf"
    good.write_text("# one axiom citation\nax R 7\n")
    assert main(["check-proof", "--proof", str(good), "--theory", "R"]) == 0
    expected = print_formula(get_theory("R").axiom_of(7))
    assert capsys.readouterr().out == expected + "\n"

    bad = tmp_path / "pbad.prf"
    bad.write_text("ax R 0\nmp 0 0\n")
    assert main(["check-proof", "--proof", str(bad), "--theory", "R"]) == 1
    assert capsys.readouterr().err.startswith("invalid:")


def test_search_proof_budget_edge(tmp_path, capsys):
    goal = tmp_path / "goal.sexp"
    goal.write_text(print_formula(get_theory("R").axiom_of(7)) + "\n")
    assert main(["search-proof", "--theory", "R", "--goal", str(goal),
                 "--budget", "14"]) == 0
    assert capsys.readouterr().out == "ax R 7\n"
    assert main(["search-proof", "--theory", "R", "--goal", str(goal),
                 "--budget", "13"]) == 1
    assert capsys.readouterr().out == "no proof within budget 13\n"


def test_search_proof_output_checks_for_theory_ids_with_spaces(tmp_path, capsys):
    theory = "U:finite B={1} C={2}"
    goal = tmp_path / "goal.sexp"
    goal.write_text("(P (S 0))\n")
    assert main(["search-proof", "--theory", theory, "--goal", str(goal),
                 "--budget", "100"]) == 0
    proof = tmp_path / "u.prf"
    proof.write_text(capsys.readouterr().out)
    assert proof.read_text() == f"ax {theory} 1\n"
    assert main(["check-proof", "--proof", str(proof), "--theory", theory]) == 0
    assert capsys.readouterr().out == "(P (S 0))\n"


@pytest.mark.parametrize("text, error", [
    ("logic eq-refl x\ngen 0 forall\n", "step 1: 'forall' cannot be a bound variable"),
    ("logic eq-refl x\ngen 0 0\n", "step 1: '0' cannot be a bound variable"),
    ("logic inst a(b) (= x x) 0\n", "step 0: 'a(b)' cannot be a bound variable"),
])
def test_check_proof_refuses_bound_variables_the_reader_refuses(tmp_path, capsys, text, error):
    proof = tmp_path / "bad.prf"
    proof.write_text(text)
    assert main(["check-proof", "--proof", str(proof), "--theory", "R"]) == 1
    assert capsys.readouterr().err == f"invalid: {error}\n"


def test_godel_encode_decode(tmp_path, capsys):
    src = tmp_path / "eq00.sexp"
    src.write_text("(= 0 0)\n")
    code = "12972264338907129374431599850420434393022679173"
    assert main(["godel", "--encode", str(src), "--lang", "Q"]) == 0
    assert capsys.readouterr().out == code + "\n"
    assert main(["godel", "--decode", code]) == 0
    assert capsys.readouterr().out == "(= 0 0)\n"
    assert main(["godel", "--decode", "7"]) == 1
    assert capsys.readouterr().err.startswith("not a code:")


def test_godel_decode_refuses_a_code_asking_for_a_gigabyte(capsys):
    from weakarith.godel import pair

    # Eq(Var(name), Var(name)) for a name of 10**9 NUL bytes, in 141 digits
    v = pair(0, pair(10**9, 0))
    code = str(pair(3, pair(v, v)))
    assert len(code) == 141
    assert main(["godel", "--decode", code]) == 1
    err = capsys.readouterr().err
    assert err.startswith("not a code:") and err.count("\n") == 1


def test_independence_table_golden(capsys):
    assert main(["independence", "--pair", "finite A={1} B={2}",
                 "--decider", "table", "--n-max", "10"]) == 0
    assert capsys.readouterr().out == (
        "x: 1\ny: 2\nwitness: 0\npositive: (P 0)\nnegative: (not (P 0))\n"
    )


def test_independence_proof_search_needs_theory(capsys):
    code = main(["independence", "--pair", "canonical",
                 "--decider", "proof-search", "--n-max", "2"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_stress_rows(capsys):
    assert main(["stress", "--theory", "E:finite B={2} C={3}",
                 "--decider", "equivalence", "--pair", "finite B={2} C={3}",
                 "--sentence-budget", "5", "--axiom-scan", "60"]) == 0
    assert capsys.readouterr().out == (
        "1 dontknow unanswered\n"
        "2 provable\n"
        "3 refutable\n"
        "4 dontknow unanswered\n"
        "5 dontknow unanswered\n"
    )


@pytest.mark.parametrize("argv", [
    ["axioms", "R", "--count", "-2"],
    ["obligations", "--translation", "t", "--theory", "R", "--first-k", "-1"],
    ["verify", "--translation", "t", "--theory", "R", "--structure", "s", "--first-k", "-1"],
    ["find-model", "--theory", "Q", "--max-size", "1", "--first-k", "-1"],
    ["find-model", "--theory", "Q", "--max-size", "-1"],
    ["decide", "--sentence", "s", "--pair", "canonical", "--stage", "-1"],
    ["enumerate-pair", "--pair", "canonical", "--stage", "-3"],
    ["run-machine", "--code", "5", "--steps", "-4"],
    ["run-machine", "--code", "5", "--input", "-3"],
    ["search-proof", "--theory", "R", "--goal", "g", "--budget", "-1"],
    ["search-proof", "--theory", "R", "--goal", "g", "--numeral-bound", "-3"],
    ["independence", "--pair", "canonical", "--decider", "table", "--n-max", "-1"],
    ["independence", "--pair", "canonical", "--decider", "table", "--n-max", "3",
     "--stage", "-1"],
    ["independence", "--pair", "canonical", "--decider", "proof-search", "--theory", "R",
     "--n-max", "3", "--budget", "-1"],
    ["stress", "--theory", "R", "--decider", "table", "--pair", "canonical", "--stage", "-1"],
    ["stress", "--theory", "R", "--decider", "proof-search", "--budget", "-1"],
    ["stress", "--theory", "R", "--decider", "proof-search", "--sentence-budget", "-1"],
    ["stress", "--theory", "R", "--decider", "proof-search", "--axiom-scan", "-1"],
])
def test_negative_naturals_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f": invalid natural value: '{argv[-1]}'\n")


def test_a_natural_that_is_no_int_keeps_its_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run-machine", "--code", "5", "--steps", "abc"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --steps: invalid int value: 'abc'\n")


def test_only_four_options_take_any_int():
    """Every other int option is a count, size, stage, step, input or budget."""
    import argparse

    from weakarith.cli import build_parser

    verbs = next(action.choices for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    plain = {(verb, action.option_strings[0])
             for verb, parser in verbs.items() for action in parser._actions
             if action.type is int}
    assert plain == {("axioms", "--start"), ("normal-form", "--rank"),
                     ("run-machine", "--code"), ("godel", "--decode")}


def test_unknown_verb_and_flag_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["axioms", "R", "--no-such-flag"])
    assert exc.value.code == 2


def test_pair_spec_file_and_missing_path_on_both_routes(tmp_path, capsys):
    spec = tmp_path / "pair.txt"
    spec.write_text("finite B={2} C={3}\n")
    missing = tmp_path / "no-such-pair.txt"
    phi2 = tmp_path / "phi2.sexp"
    phi2.write_text(print_formula(size_exists(2)) + "\n")

    assert main(["decide", "--sentence", str(phi2), "--pair", str(spec)]) == 0
    assert capsys.readouterr().out == "Provable\n"
    assert main(["decide", "--sentence", str(phi2), "--pair", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")

    theory = get_theory(f"U:{spec}")
    assert print_formula(theory.axiom_of(1)) == "(P (S (S 0)))"
    with pytest.raises(FormatError, match="cannot read"):
        get_theory(f"U:{missing}")
    assert main(["axioms", f"E:{missing}", "--count", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_deep_numeral_axiom_is_printed(capsys):
    # axiom 170301 of R is ax2(130, 130), whose numeral for 16900 is deeper
    # than the recursion limit
    def num(n):
        return "(S " * n + "0" + ")" * n

    assert main(["axioms", "R", "--start", "170301", "--count", "1"]) == 0
    assert capsys.readouterr().out == f"(= (* {num(130)} {num(130)}) {num(16900)})\n"


def test_too_deep_input_is_an_error_line_not_a_traceback(capsys, tmp_path):
    # the codec still recurses once per nesting level
    text = "(not " * 30000 + "true" + ")" * 30000
    path = tmp_path / "deep.txt"
    path.write_text(text)
    assert main(["godel", "--encode", str(path), "--lang", "Q"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_deep_input_parses_and_prints_back(capsys):
    text = "(not " * 30000 + "true" + ")" * 30000
    assert main(["parse", "--text", text, "--lang", "Q"]) == 0
    assert capsys.readouterr().out == text + "\n"


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_main_calls_match_first_calls(capsys):
    from weakarith.cli import build_parser

    calls = [["axioms", "R", "--no-such-flag"],
             ["parse", "--text", "(= 0 0)", "--lang", "Q", "--summary"],
             ["axioms", "Q", "--count", "2", "--summary"]]
    first = []
    for argv in calls:
        build_parser.cache_clear()
        first.append(_outcome(argv, capsys))
    assert [code for code, _, _ in first] == [2, 0, 0]
    build_parser.cache_clear()
    for _ in range(2):
        assert [_outcome(argv, capsys) for argv in calls] == first


def test_formula_size_is_computed_only_for_the_summary(tmp_path, capsys, monkeypatch):
    import weakarith.cli

    tr_path = tmp_path / "id.tr"
    tr_path.write_text(IDENTITY_R)
    sentence = tmp_path / "phi.txt"
    sentence.write_text("(exists x (E x x))")
    verbs = [
        ["parse", "--text", "(forall x (= x (S 0)))", "--lang", "R"],
        ["translate", "--translation", str(tr_path), "--text", "(= (S 0) 0)"],
        ["godel", "--decode", "216"],  # (not true)
        ["decide", "--sentence", str(sentence), "--pair", "canonical"],
    ]
    plain = []
    for argv in verbs:
        assert main(argv) == 0
        plain.append(capsys.readouterr().out)
    calls = []

    def refuse(name):
        def summary_only(phi):
            calls.append(name)
            raise AssertionError(f"{name} called without --summary")
        return summary_only

    # decide's rank is a second read of the sentence, wanted only for the summary
    monkeypatch.setattr(weakarith.cli, "formula_size", refuse("formula_size"))
    monkeypatch.setattr(weakarith.cli, "rank", refuse("rank"))
    for argv, want in zip(verbs, plain):
        assert main(argv) == 0
        assert capsys.readouterr().out == want
    assert calls == []
    # the patches are the ones the verbs would call for the summary line
    with pytest.raises(AssertionError):
        main(verbs[0] + ["--summary"])
    with pytest.raises(AssertionError):
        main(verbs[3] + ["--summary"])
    assert calls == ["formula_size", "rank"]


# --- the interpreter limits belong to the CLI --------------------------------

def test_importing_the_package_changes_no_interpreter_setting():
    from fresh import run_python

    got = run_python("-c", (
        "import sys\n"
        "before = sys.getrecursionlimit(), sys.get_int_max_str_digits()\n"
        "import weakarith, weakarith.cli\n"
        "assert (sys.getrecursionlimit(), sys.get_int_max_str_digits()) == before\n"))
    assert got.returncode == 0, got.stderr


def test_cli_raises_the_recursion_limit_for_deep_numerals(tmp_path):
    from fresh import run_cli

    numeral = "(S " * 3000 + "0" + ")" * 3000
    path = tmp_path / "deep.txt"
    path.write_text(f"(= {numeral} {numeral})\n")
    got = run_cli("find-model", "--axioms", str(path), "--max-size", "2")
    assert got.returncode == 0, got.stderr
    assert "size 1" in got.stdout


def test_cli_prints_codes_past_the_int_to_str_limit(tmp_path):
    from fresh import run_cli

    path = tmp_path / "phi.txt"
    path.write_text("(forall x (= (S (S x)) x))")
    got = run_cli("godel", "--encode", str(path), "--lang", "R")
    assert got.returncode == 0, got.stderr
    code = got.stdout.strip()
    assert code.isdigit() and len(code) > 4300


def test_each_verb_reads_its_formula_file_once(capsys, tmp_path, monkeypatch):
    import weakarith.cli as cli

    reads = []
    real_read = cli.read_text
    monkeypatch.setattr(cli, "read_text", lambda path: reads.append(path) or real_read(path))
    formula = tmp_path / "phi.txt"
    formula.write_text("(forall x (<= x (S 0)))")
    tr_path = tmp_path / "id.tr"
    tr_path.write_text(IDENTITY_R)
    runs = [
        (["godel", "--encode", str(formula)], 0, [formula]),
        (["godel", "--encode", str(formula), "--lang", "R"], 0, [formula]),
        (["parse", "--file", str(formula)], 0, [formula]),
        (["translate", "--translation", str(tr_path), "--file", str(formula)], 0,
         [tr_path, formula]),
        # both forms given: a usage error before the formula file is opened
        (["translate", "--translation", str(tr_path), "--file", str(formula),
          "--text", "true"], 2, [tr_path]),
        (["parse", "--file", str(formula), "--text", "true"], 2, []),
    ]
    for argv, code, want in runs:
        reads.clear()
        assert main(argv) == code, argv
        assert reads == [str(p) for p in want], argv
    err = capsys.readouterr().err
    assert err.count("error: give exactly one of --file and --text\n") == 2
