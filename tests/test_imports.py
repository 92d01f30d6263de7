"""Every name a module of the package imports, and every parameter a
function or lambda of it takes, is used.

An imported name counts as used when the module reads it anywhere (a bare
name or the base of an attribute chain) or lists it in its own `__all__`, as
the package `__init__` does for its re-exports. `from __future__` imports are
exempt. A parameter counts as used when its body, nested functions included,
reads it; a method's receiver and the few parameters that a protocol fixes
(UNREAD_BY_PROTOCOL) are exempt.
"""

import ast
from pathlib import Path

import pytest

import weakarith

MODULES = sorted(Path(weakarith.__file__).parent.glob("*.py"))


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
