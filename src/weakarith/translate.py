"""Translation of formulas between languages, with obligations.

A translation carries a domain formula, one target formula per source
relation symbol, and one graph formula per source function symbol.
translate_formula flattens function applications into graph atoms behind
fresh existentials (innermost first, left to right), maps relation atoms
through their templates, and relativizes every quantifier to the domain.
Free variables are left unguarded; closing them is the caller's business.
A translate_formula call is released on return by reference counting alone:
its recursive helpers are deleted when it ends, so it leaves no reference
cycle for the cyclic collector to find.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iterproduct
from typing import Mapping

from .errors import FormatError, WorkbenchError
from .sexpr import parse_formula
from .structures import FiniteStructure, eval_formula
from .syntax import (
    KIND_FUNCTION,
    KIND_RELATION,
    TRUE,
    And,
    App,
    Eq,
    Exists,
    Falsum,
    ForAll,
    Formula,
    Implies,
    Language,
    Not,
    Or,
    Rel,
    Term,
    Var,
    Verum,
    all_variable_names,
    and_all,
    free_variables,
    substitute_many,
    symbols_of,
    validate_formula,
)
from .theories import get_language


class TranslationError(WorkbenchError):
    pass


class InternalModelError(WorkbenchError):
    """The domain/graphs of a translation do not induce a structure."""


@dataclass(frozen=True)
class TargetTemplate:
    """A target formula with an ordered tuple of designated variables."""

    params: tuple[str, ...]
    body: Formula

    def apply(self, terms) -> Formula:
        terms = tuple(terms)
        if len(terms) != len(self.params):
            raise TranslationError(
                f"template wants {len(self.params)} arguments, got {len(terms)}")
        return substitute_many(self.body, dict(zip(self.params, terms)))


@dataclass(frozen=True)
class Translation:
    source: Language
    target: Language
    domain: TargetTemplate
    relations: Mapping[str, TargetTemplate]
    functions: Mapping[str, TargetTemplate]

    def __post_init__(self):
        if self.source.families():
            raise TranslationError("family languages cannot be translation sources")
        self._check_template("domain", self.domain, 1)
        for sym in self.source.symbols():
            table = self.relations if sym.kind == KIND_RELATION else self.functions
            want = sym.arity if sym.kind == KIND_RELATION else sym.arity + 1
            tpl = table.get(sym.name)
            if tpl is None:
                raise TranslationError(f"source symbol {sym.name!r} is unmapped")
            self._check_template(sym.name, tpl, want)
        known = {s.name for s in self.source.symbols()}
        for extra in sorted((self.relations.keys() | self.functions.keys()) - known):
            raise TranslationError(f"mapped symbol {extra!r} is not in the source")

    def _check_template(self, what: str, tpl: TargetTemplate, want: int) -> None:
        if len(tpl.params) != want:
            raise TranslationError(
                f"{what}: expected {want} designated variables, got {len(tpl.params)}")
        if len(set(tpl.params)) != len(tpl.params):
            raise TranslationError(f"{what}: designated variables must be distinct")
        stray = free_variables(tpl.body) - set(tpl.params)
        if stray:
            raise TranslationError(f"{what}: stray free variables {sorted(stray)}")
        validate_formula(tpl.body, self.target)

    def guard(self, name: str) -> Formula:
        """The domain formula at a given variable."""
        return self.domain.apply([Var(name)])

    @cached_property
    def template_names(self) -> frozenset[str]:
        """Every variable name the templates use; fresh names avoid them."""
        names: set[str] = set()
        for tpl in (self.domain, *self.relations.values(), *self.functions.values()):
            names |= set(tpl.params)
            names |= all_variable_names(tpl.body)
        return frozenset(names)


def translate_formula(translation: Translation, phi: Formula) -> Formula:
    """Compute the translated formula with canonical fresh naming.

    Fresh variables are drawn from w0, w1, ... skipping anything that
    occurs in the input or the templates; bound variables are always
    renamed, so the output shape is independent of input naming
    collisions.
    """
    validate_formula(phi, translation.source)
    forbidden = all_variable_names(phi) | translation.template_names
    counter = 0

    def fresh() -> str:
        nonlocal counter
        while True:
            name = f"w{counter}"
            counter += 1
            if name not in forbidden:
                return name

    def flatten(t: Term, env, bindings) -> str:
        if isinstance(t, Var):
            return env.get(t.name, t.name)
        argvars = [flatten(a, env, bindings) for a in t.args]
        out = fresh()
        bindings.append((out, t.name, argvars))
        return out

    def wrap(core: Formula, bindings) -> Formula:
        for out, fname, argvars in reversed(bindings):
            graph = translation.functions[fname].apply(
                [Var(v) for v in argvars] + [Var(out)])
            core = Exists(out, And(translation.guard(out), And(graph, core)))
        return core

    def rec(f: Formula, env) -> Formula:
        if isinstance(f, Rel):
            bindings: list = []
            argvars = [flatten(a, env, bindings) for a in f.args]
            core = translation.relations[f.name].apply([Var(v) for v in argvars])
            return wrap(core, bindings)
        if isinstance(f, Eq):
            bindings = []
            left = flatten(f.left, env, bindings)
            right = flatten(f.right, env, bindings)
            return wrap(Eq(Var(left), Var(right)), bindings)
        if isinstance(f, (Verum, Falsum)):
            return f
        if isinstance(f, Not):
            return Not(rec(f.body, env))
        if isinstance(f, (And, Or, Implies)):
            return type(f)(rec(f.left, env), rec(f.right, env))
        if isinstance(f, (ForAll, Exists)):
            inner = fresh()
            sub = dict(env)
            sub[f.var] = inner
            body = rec(f.body, sub)
            if isinstance(f, ForAll):
                return ForAll(inner, Implies(translation.guard(inner), body))
            return Exists(inner, And(translation.guard(inner), body))
        raise TranslationError(f"not a formula: {f!r}")

    try:
        return rec(phi, {})
    finally:
        # rec and flatten call themselves through their cells; emptying them
        # lets refcounting free the call
        del rec, flatten


# --- obligations ------------------------------------------------------------

def _totality_sentence(translation: Translation, name: str, arity: int) -> Formula:
    xs = [f"x{i}" for i in range(1, arity + 1)]
    out = "y"
    atom = translation.functions[name].apply([Var(v) for v in xs] + [Var(out)])
    body = Exists(out, And(translation.guard(out), atom))
    if xs:
        premise = and_all([translation.guard(v) for v in xs])
        body = Implies(premise, body)
    for v in reversed(xs):
        body = ForAll(v, body)
    return body


def _equality_axioms(used_funs, used_rels) -> list[Formula]:
    x, y = Var("x"), Var("y")
    out = [
        ForAll("x", Eq(x, x)),
        ForAll("x", ForAll("y", Implies(Eq(x, y), Eq(y, x)))),
        ForAll("x", ForAll("y", ForAll("z", Implies(
            And(Eq(x, y), Eq(y, Var("z"))), Eq(x, Var("z")))))),
    ]

    def congruence(name: str, arity: int, relation: bool) -> Formula:
        xs = [f"x{i}" for i in range(1, arity + 1)]
        ys = [f"y{i}" for i in range(1, arity + 1)]
        same = and_all([Eq(Var(a), Var(b)) for a, b in zip(xs, ys)])
        if relation:
            conclusion = Implies(Rel(name, tuple(Var(v) for v in xs)),
                                 Rel(name, tuple(Var(v) for v in ys)))
        else:
            conclusion = Eq(App(name, tuple(Var(v) for v in xs)),
                            App(name, tuple(Var(v) for v in ys)))
        body = Implies(same, conclusion)
        for v in reversed(xs + ys):
            body = ForAll(v, body)
        return body

    for name in sorted(used_funs):
        if used_funs[name] >= 1:
            out.append(congruence(name, used_funs[name], relation=False))
    for name in sorted(used_rels):
        if used_rels[name] >= 1:
            out.append(congruence(name, used_rels[name], relation=True))
    return out


def obligations(translation: Translation, theory, first_k: int) -> list[Formula]:
    """Totality sentences, translated axioms, translated equality axioms.

    Totality covers every source function symbol occurring in the first k
    axioms; equality congruence covers occurring symbols of arity >= 1.
    Each group is deterministically ordered and deduplicated.
    """
    axioms = [theory.axiom_of(i) for i in range(first_k)]
    # translated first, so an axiom outside the source language is refused
    # before a totality sentence asks for a graph the translation lacks
    translated = [translate_formula(translation, ax) for ax in axioms]
    used_rels, used_funs = symbols_of(and_all(axioms))
    totality = [_totality_sentence(translation, name, used_funs[name])
                for name in sorted(used_funs, key=lambda n: (used_funs[n], n))]
    equality = [translate_formula(translation, eq_ax)
                for eq_ax in _equality_axioms(used_funs, used_rels)]
    return list(dict.fromkeys(totality + translated + equality))


@dataclass(frozen=True)
class VerifyReport:
    checked: int
    failures: tuple[tuple[int, Formula], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_semantic(translation: Translation, theory, structure: FiniteStructure,
                    first_k: int) -> VerifyReport:
    """Evaluate every obligation in the structure; list the falsified ones."""
    sentences = obligations(translation, theory, first_k)
    failures = []
    for idx, phi in enumerate(sentences):
        if not eval_formula(structure, phi):
            failures.append((idx, phi))
    return VerifyReport(len(sentences), tuple(failures))


# --- composition and induced structures --------------------------------------

def compose(first: Translation, second: Translation) -> Translation:
    """Chain two translations, through first then second. Library API: no CLI verb calls it."""
    if first.target != second.source:
        raise TranslationError("composition needs first.target == second.source")
    p = first.domain.params[0]
    domain = TargetTemplate((p,), And(second.domain.apply([Var(p)]),
                                      translate_formula(second, first.domain.body)))
    relations = {name: TargetTemplate(tpl.params,
                                      translate_formula(second, tpl.body))
                 for name, tpl in first.relations.items()}
    functions = {name: TargetTemplate(tpl.params,
                                      translate_formula(second, tpl.body))
                 for name, tpl in first.functions.items()}
    return Translation(first.source, second.target, domain, relations, functions)


def internal_structure(translation: Translation,
                       structure: FiniteStructure) -> FiniteStructure:
    """The induced structure: domain extension reindexed in sorted order.

    Raises InternalModelError when the domain is empty or some function
    graph fails to be functional and total over the domain. Library API:
    no CLI verb calls it, but the benchmark's models workload does."""
    dp = translation.domain.params[0]
    dom = [a for a in range(structure.size)
           if eval_formula(structure, translation.domain.body, {dp: a})]
    if not dom:
        raise InternalModelError("empty translated domain")
    index = {a: i for i, a in enumerate(dom)}

    functions = {}
    for name, tpl in sorted(translation.functions.items()):
        arity = len(tpl.params) - 1
        table = []
        for args in iterproduct(dom, repeat=arity):
            sigma = dict(zip(tpl.params, args))
            hits = [e for e in dom
                    if eval_formula(structure, tpl.body,
                                    {**sigma, tpl.params[-1]: e})]
            if len(hits) != 1:
                raise InternalModelError(
                    f"graph of {name!r} has {len(hits)} values at {args}")
            table.append(index[hits[0]])
        functions[name] = tuple(table)

    relations = {}
    for name, tpl in sorted(translation.relations.items()):
        arity = len(tpl.params)
        extent = set()
        for args in iterproduct(dom, repeat=arity):
            if eval_formula(structure, tpl.body, dict(zip(tpl.params, args))):
                extent.add(tuple(index[a] for a in args))
        relations[name] = frozenset(extent)

    return FiniteStructure(len(dom), functions, relations)


# --- construction helpers ----------------------------------------------------

def identity_translation(lang: Language) -> Translation:
    """Domain is everything; every symbol maps to itself. Library API: no CLI verb calls it."""
    relations = {}
    functions = {}
    for sym in lang.symbols():
        params = tuple(f"v{i}" for i in range(sym.arity))
        if sym.kind == KIND_RELATION:
            relations[sym.name] = TargetTemplate(
                params, Rel(sym.name, tuple(Var(p) for p in params)))
        else:
            result = f"v{sym.arity}"
            functions[sym.name] = TargetTemplate(
                params + (result,),
                Eq(App(sym.name, tuple(Var(p) for p in params)), Var(result)))
    return Translation(lang, lang, TargetTemplate(("v0",), TRUE),
                       relations, functions)


def marker_collapse_translation(product_lang: Language, marker: str,
                                target: Language) -> Translation:
    """Send the product marker to absurdity, everything else to itself.
    Library API: no CLI verb calls it."""
    base = identity_translation(target)
    relations = dict(base.relations)
    relations[marker] = TargetTemplate((), Falsum())
    return Translation(product_lang, target, base.domain,
                       relations, dict(base.functions))


def parse_translation(text: str) -> Translation:
    """Read the translation file format.

    Lines: `source: <theory id>`, `target: <theory id>`, `domain:
    <formula>`, then `rel NAME: <formula>` / `fun NAME: <formula>`.
    Designated variables are v0..vk by position: relation arguments then,
    for functions, the result variable last.
    """
    source = target = None
    domain_text = None
    lines: dict[str, list[tuple[str, str]]] = {KIND_RELATION: [], KIND_FUNCTION: []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, rest = line.partition(":")
        if not sep:
            raise FormatError(f"line {lineno}: expected 'key: value'")
        head = head.strip()
        rest = rest.strip()
        if head == "source":
            source = rest
        elif head == "target":
            target = rest
        elif head == "domain":
            domain_text = rest
        elif head.startswith("rel "):
            lines[KIND_RELATION].append((head[4:].strip(), rest))
        elif head.startswith("fun "):
            lines[KIND_FUNCTION].append((head[4:].strip(), rest))
        else:
            raise FormatError(f"line {lineno}: unknown key {head!r}")
    if source is None or target is None or domain_text is None:
        raise FormatError("translation files need source, target and domain lines")

    source_lang = get_language(source)
    target_lang = get_language(target)
    domain = TargetTemplate(("v0",), parse_formula(domain_text, target_lang))

    tables: dict[str, dict[str, TargetTemplate]] = {}
    # a function's template takes one more parameter, for its value
    for kind, graph_args in ((KIND_RELATION, 0), (KIND_FUNCTION, 1)):
        table = tables[kind] = {}
        for name, body in lines[kind]:
            sym = source_lang.lookup(name)
            if sym is None or sym.kind != kind:
                raise FormatError(f"{name!r} is not a source {kind}")
            params = tuple(f"v{i}" for i in range(sym.arity + graph_args))
            table[name] = TargetTemplate(params, parse_formula(body, target_lang))
    return Translation(source_lang, target_lang, domain,
                       relations=tables[KIND_RELATION], functions=tables[KIND_FUNCTION])
