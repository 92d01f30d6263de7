"""Jobs, the prepared context, and helpers shared by the three workloads.

A workload is built in two steps. `generate` (benchmark side, no weakarith)
draws the round's inputs from the seed, writes every input file into the
work directory, and returns the job list together with a manifest of the
files. `prepare` (program side) imports weakarith and turns the manifest
into program objects through the public API; its cost is the benchmark's
set-up time. A job then calls the program on prepared objects, and its
check compares the result with what the benchmark computed on its own.
"""

from __future__ import annotations

import importlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable



MODULES = ("cli", "eqdecide", "experiments", "godel", "machines", "modelsearch",
           "proofs", "sexpr", "structures", "syntax", "theories", "translate")


class CheckFailed(Exception):
    """A job's output disagrees with the benchmark's expectation."""


@dataclass
class Job:
    kind: str
    call: Callable[["Context"], object]
    check: Callable[[object, "Context"], None]
    # name of the exception class the call is expected to raise
    raises: str | None = None
    # CLI jobs carry a key so their stdout digest can be pinned
    digest_key: str | None = None


@dataclass
class Context:
    """Program objects the jobs run on, built once per process by prepare."""

    wa: object
    modules: dict
    theories: dict = field(default_factory=dict)
    formulas: dict = field(default_factory=dict)
    languages: dict = field(default_factory=dict)
    structures: dict = field(default_factory=dict)
    proofs: dict = field(default_factory=dict)
    translations: dict = field(default_factory=dict)
    pairs: dict = field(default_factory=dict)

    def cli(self, argv):
        """Run the command line in process; returns (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.modules["cli"].main(list(argv))
        return code, out.getvalue(), err.getvalue()


class Inputs:
    """Collects the files and manifest entries a generator produces."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.manifest = {"theories": [], "languages": {}, "formulas": {},
                         "structures": {}, "proofs": {}, "translations": {},
                         "api_translations": {}, "pairs": {}}
        self._count = 0

    def file(self, stem: str, text: str) -> str:
        """Write one input file; the returned path is relative to the checkout."""
        self._count += 1
        path = self.workdir / f"{self._count:04d}-{stem}"
        path.write_text(text)
        return str(path)

    def theory(self, ident: str) -> str:
        if ident not in self.manifest["theories"]:
            self.manifest["theories"].append(ident)
        return ident

    def language(self, key: str, symbols) -> str:
        """Register a language given as [(name, 'relation'|'function', arity)]."""
        self.manifest["languages"][key] = [list(s) for s in symbols]
        return key

    def formula(self, key: str, text: str, lang: str) -> str:
        """Register a formula file; lang is a theory id or a registered language key."""
        self.manifest["formulas"][key] = [self.file("f.sexp", text + "\n"), lang]
        return key

    def structure(self, key: str, text: str) -> str:
        self.manifest["structures"][key] = self.file("s.fs", text)
        return key

    def proof(self, key: str, text: str, theory: str) -> str:
        self.theory(theory)
        self.manifest["proofs"][key] = [self.file("p.prf", text), theory]
        return key

    def translation(self, key: str, text: str) -> str:
        self.manifest["translations"][key] = self.file("t.tr", text)
        return key

    def api_translation(self, key: str, source: str, target: str, domain: str,
                        templates: dict) -> str:
        """Register a translation between registered languages, built through the API.

        The file format names catalog languages only; templates maps each
        source symbol to its formula over v0, v1, ... in the target language.
        """
        self.manifest["api_translations"][key] = {
            "source": source, "target": target, "domain": domain, "templates": templates}
        return key

    def pair(self, key: str, spec: str) -> str:
        self.manifest["pairs"][key] = spec
        return key

    def save(self) -> None:
        (self.workdir / "manifest.json").write_text(json.dumps(self.manifest))


def prepare(workdir: Path) -> Context:
    """Import weakarith and build every prepared object from the manifest."""
    import weakarith

    modules = {name: importlib.import_module(f"weakarith.{name}") for name in MODULES}
    syntax = modules["syntax"]
    manifest = json.loads((workdir / "manifest.json").read_text())
    ctx = Context(wa=weakarith, modules=modules)
    for ident in manifest["theories"]:
        ctx.theories[ident] = weakarith.get_theory(ident)
    for key, symbols in manifest["languages"].items():
        ctx.languages[key] = syntax.Language(
            [syntax.Symbol(name, kind, arity) for name, kind, arity in symbols])
    for key, (path, lang) in manifest["formulas"].items():
        language = ctx.languages.get(lang) or weakarith.get_language(lang)
        ctx.formulas[key] = weakarith.parse_formula(Path(path).read_text(), language)
    for key, path in manifest["structures"].items():
        ctx.structures[key] = weakarith.parse_structure(Path(path).read_text())
    for key, (path, theory) in manifest["proofs"].items():
        ctx.proofs[key] = weakarith.parse_proof(
            Path(path).read_text(), ctx.theories[theory].language)
    for key, path in manifest["translations"].items():
        ctx.translations[key] = weakarith.parse_translation(Path(path).read_text())
    translate = modules["translate"]
    for key, spec in manifest["api_translations"].items():
        source, target = ctx.languages[spec["source"]], ctx.languages[spec["target"]]
        relations, functions = {}, {}
        for sym in source.symbols():
            width = sym.arity if sym.kind == syntax.KIND_RELATION else sym.arity + 1
            table = relations if sym.kind == syntax.KIND_RELATION else functions
            table[sym.name] = translate.TargetTemplate(
                tuple(f"v{i}" for i in range(width)),
                weakarith.parse_formula(spec["templates"][sym.name], target))
        domain = translate.TargetTemplate(("v0",), weakarith.parse_formula(spec["domain"], target))
        ctx.translations[key] = translate.Translation(source, target, domain,
                                                      relations, functions)
    for key, spec in manifest["pairs"].items():
        ctx.pairs[key] = weakarith.parse_pair_spec(spec)
    return ctx


# --- small check helpers ------------------------------------------------------


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def expect_cli(result, code: int, stdout: str | None = None,
               stderr_prefix: str | None = None) -> None:
    got_code, out, err = result
    expect(got_code == code, f"exit {got_code}, want {code}; stderr {err[:200]!r}")
    if stdout is not None:
        expect(out == stdout, f"stdout {out[:200]!r}, want {stdout[:200]!r}")
    if stderr_prefix is not None:
        expect(err.startswith(stderr_prefix), f"stderr {err[:200]!r}")


def node_count(text: str) -> int:
    """formula_size of an s-expression, counted from its tokens."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    count = 0
    for i, tok in enumerate(tokens):
        if tok in "()":
            continue
        if i > 0 and tokens[i - 1] in ("forall", "exists"):
            continue
        count += 1
    return count

