"""Workbench for weak arithmetic theories.

Mechanizes schematic axiom systems, translations between theories, finite
model search, formula numbering, bounded proof search, staged recursively
inseparable pairs, and the decision procedure for the one-binary-relation
equivalence theory.
"""

__version__ = "0.1.0"

from .errors import FormatError, WorkbenchError
from .syntax import (
    And,
    App,
    Eq,
    Exists,
    FALSE,
    ForAll,
    Formula,
    Implies,
    Language,
    Not,
    Or,
    Rel,
    TRUE,
    Term,
    Var,
    free_variables,
    substitute,
)
from .sexpr import ParseError, parse_formula, parse_term, print_formula, print_term
from .godel import NotACode, godel_decode, godel_encode, pair, unpair
from .machines import (
    OraclePair,
    Program,
    canonical_pair,
    decode_program,
    encode_program,
    parse_pair_spec,
    parse_program,
    run_bounded,
)
from .theories import (
    CATALOG,
    Theory,
    get_language,
    get_theory,
    make_e_theory,
    make_u_theory,
    numeral,
    numeral_value,
    size_exists,
    size_unique,
)
from .structures import FiniteStructure, eval_formula, format_structure, parse_structure
from .modelsearch import closed_form_count, find_model, model_search
from .translate import (
    Translation,
    obligations,
    parse_translation,
    translate_formula,
    verify_semantic,
)
from .proofs import (
    Proof,
    check_proof,
    format_proof,
    is_tautology,
    parse_proof,
    search_proof,
)
from .eqdecide import Decision, SizeProfile, decide, normal_form, rank
from .experiments import (
    DeciderHandle,
    independence_search,
    stress_essential_undecidability,
)

__all__ = [
    "And", "App", "CATALOG", "Decision", "DeciderHandle", "Eq", "Exists",
    "FALSE", "FiniteStructure", "ForAll", "FormatError", "Formula",
    "Implies", "Language", "Not", "NotACode", "Or", "OraclePair",
    "ParseError", "Program", "Proof", "Rel", "SizeProfile", "TRUE", "Term",
    "Theory", "Translation", "Var", "WorkbenchError", "canonical_pair",
    "check_proof", "closed_form_count", "decide", "decode_program",
    "encode_program", "eval_formula", "find_model", "format_proof",
    "format_structure", "free_variables", "get_language", "get_theory",
    "godel_decode", "godel_encode", "independence_search", "is_tautology",
    "make_e_theory", "make_u_theory", "model_search", "normal_form",
    "numeral", "numeral_value", "obligations", "pair", "parse_formula",
    "parse_pair_spec", "parse_program", "parse_proof", "parse_structure",
    "parse_term", "parse_translation", "print_formula", "print_term",
    "rank", "run_bounded", "search_proof", "size_exists", "size_unique",
    "stress_essential_undecidability", "substitute", "translate_formula",
    "unpair", "verify_semantic",
]
