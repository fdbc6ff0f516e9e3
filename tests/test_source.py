"""Source checks on the package modules, with `ast` only."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dualtet"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never uses (as a name or as the base of
    an attribute); `__future__` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_unused_imports_are_found():
    src = ("from __future__ import annotations\n"
           "import math, os.path\nfrom .a import b, c as d\nmath.pi\nd()\n")
    assert unused_imports(src) == ["b (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_no_unused_names(path):
    assert unused_imports(path.read_text()) == []


CATCH_ALLS = {"Exception", "BaseException"}


def catch_all_handlers(source: str) -> list[int]:
    """Lines of `except:` clauses and of those that name `Exception` or
    `BaseException`, alone or in a tuple."""
    def names(node):
        if isinstance(node, ast.Tuple):
            return [n for elt in node.elts for n in names(elt)]
        if isinstance(node, ast.Attribute):
            return [node.attr]
        return [node.id] if isinstance(node, ast.Name) else []

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ExceptHandler)
            and (node.type is None or CATCH_ALLS & set(names(node.type)))]


def test_catch_all_handlers_are_found():
    src = ("try:\n    pass\nexcept:\n    pass\n"
           "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
           "try:\n    pass\nexcept builtins.BaseException:\n    pass\n"
           "try:\n    pass\nexcept (KeyError, TypeError) as exc:\n    pass\n")
    assert catch_all_handlers(src) == [3, 7, 11]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_catch_no_exception_they_do_not_name(path):
    """A library error is caught by its class, so a bug is never turned
    into one: no module catches everything."""
    assert catch_all_handlers(path.read_text()) == []


def module_level_imports(source: str) -> list[str]:
    """Each import outside a function body, as "module" or
    "module: name, ...", relative modules with their leading dots."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                names = ", ".join(alias.name for alias in child.names)
                found.append(f"{'.' * child.level}{child.module or ''}: {names}")
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child)

    visit(ast.parse(source))
    return found


def test_module_level_imports_are_found():
    src = ("import os.path\nfrom . import x\nif y:\n    from .a import b, c\n"
           "def f():\n    import numpy\nclass C:\n    def g(self):\n        from .z import w\n")
    assert module_level_imports(src) == ["os.path", ".: x", ".a: b, c"]


def test_cli_imports_only_stdlib_and_errors_at_module_level():
    """`dualtet --version` and `--help` need no numpy and no geometry: each
    subcommand imports its modules when it runs."""
    for name in module_level_imports((SRC / "cli.py").read_text()):
        module = name.split(":")[0]
        assert (name == ".: __version__" or module == ".errors"
                or module.split(".")[0] in sys.stdlib_module_names), name
