"""Every name a module of the package imports, every parameter a function
or lambda of it takes, and every name it defines is used.

An imported name counts as used when the module reads it anywhere (a bare
name or the base of an attribute chain) or lists it in its own `__all__`, as
the package `__init__` does for its re-exports. `from __future__` imports are
exempt. A parameter counts as used when its body, nested functions included,
reads it; a method's receiver and the few parameters that a protocol fixes
(UNREAD_BY_PROTOCOL) are exempt.

A method or property (other than a dunder) counts as used when the package,
its tests or the benchmark read it as an attribute, or the benchmark's tracer
wraps it by name. A public module-level function or class counts as used when
the package reads it outside its own definition or lists it in `__all__`, the
benchmark reads it or wraps it, the README names it in a code span, or its
docstring documents it as "Library API".

A nested function that can call itself, directly or through other functions
defined beside it, holds itself through its closure cell: every call of the
function that defines it would leave that cycle to the cyclic collector. So
the defining function must delete each such name in a `finally` clause.
"""

import ast
import re
from pathlib import Path

import pytest

import weakarith

MODULES = sorted(Path(weakarith.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


# "module.qualified name" -> parameter names its body need not read, each
# fixed by a signature that other code calls
UNREAD_BY_PROTOCOL = {
    # the object protocol's signatures; _Node refuses every mutation and copy
    "syntax._Node.__setattr__": {"value"},
    "syntax._Node.__deepcopy__": {"memo"},
    # shares _Declared.close's signature; the reader calls either recorder
    "sexpr._Recording.close": {"arity"},
    # every reader of the _ARGUMENTS table takes (chunk, language)
    "proofs._read_name": {"language"},
}


def _unread_parameters(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    out: list[str] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{scope}.{child.name}")
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, scope)
                continue
            name = f"{scope}.{getattr(child, 'name', '<lambda>')}"
            a = child.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      *filter(None, (a.vararg, a.kwarg)))]
            if isinstance(node, ast.ClassDef):
                params = params[1:]  # a method's receiver is bound by the call
            body = child.body if isinstance(child.body, list) else [child.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            exempt = UNREAD_BY_PROTOCOL.get(name, set())
            out.extend(f"{path.name}:{child.lineno}: {name}({p})" for p in params
                       if p not in read and p not in exempt)
            visit(child, name)

    visit(tree, path.stem)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(path) == []


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _reads(node: ast.AST, *, bare: bool = True) -> set[str]:
    """Every attribute node reads and, when bare, every bare name."""
    return {n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(node)
            if (isinstance(n, ast.Attribute) or bare and isinstance(n, ast.Name))
            and isinstance(n.ctx, ast.Load)}


def _wrapped() -> set[str]:
    """The names the benchmark's tracer wraps: the last field of each row
    of its FUNCTIONS and METHODS tables."""
    return {row.elts[-1].value for stmt in _tree(ROOT / "perfbench" / "tracing.py").body
            if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id in ("FUNCTIONS", "METHODS")
                    for t in stmt.targets)
            for row in stmt.value.elts}


def test_every_method_is_read():
    tests = sorted(Path(__file__).parent.glob("*.py"))
    read = _wrapped().union(*(_reads(_tree(p), bare=False)
                              for p in (*MODULES, *tests, *BENCHMARK)))
    unread = [f"{path.name}:{f.lineno}: {cls.name}.{f.name}"
              for path in MODULES for cls in ast.walk(_tree(path))
              if isinstance(cls, ast.ClassDef)
              for f in cls.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
              if not f.name.startswith("__") and f.name not in read]
    assert unread == []


def test_every_public_name_is_used():
    trees = [_tree(path) for path in MODULES]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used = set(weakarith.__all__) | _wrapped()
    used.update(*(_reads(_tree(p)) for p in BENCHMARK))
    unused = []
    for path, tree in zip(MODULES, trees):
        for d in tree.body:
            if (not isinstance(d, (ast.FunctionDef, ast.ClassDef))
                    or d.name.startswith("_") or d.name in used
                    or "Library API" in (ast.get_docstring(d) or "")
                    or re.search(rf"`{d.name}[`(]", readme)):
                continue
            if not any(d.name in _reads(stmt) for other in trees
                       for stmt in other.body if stmt is not d):
                unused.append(f"{path.name}:{d.lineno}: {d.name}")
    assert unused == []


def _scope(body: list[ast.stmt]):
    """Every node of a scope's own code; a nested function, class or lambda
    is yielded but not entered."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _unreleased_closures(path: Path) -> list[str]:
    out: list[str] = []
    for outer in ast.walk(_tree(path)):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = list(_scope(outer.body))
        defs = [d for d in own if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))]
        names = {d.name for d in defs}
        # each nested function -> the functions beside it that its body names
        calls = {d.name: {n.id for n in ast.walk(d) if isinstance(n, ast.Name) and n.id in names}
                 for d in defs}
        # the names it deletes in the finally clauses of its own statements
        released = {t.id for node in own if isinstance(node, ast.Try)
                    for stmt in node.finalbody for d in ast.walk(stmt)
                    if isinstance(d, ast.Delete) for t in d.targets if isinstance(t, ast.Name)}
        for d in defs:
            reached, todo = set(), [d.name]
            while todo:
                for callee in calls[todo.pop()] - reached:
                    reached.add(callee)
                    todo.append(callee)
            if d.name in reached and d.name not in released:
                out.append(f"{path.name}:{d.lineno}: {outer.name}.{d.name}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_self_calling_closure_is_deleted(path):
    assert _unreleased_closures(path) == []
