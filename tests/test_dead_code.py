"""The dead-code contract of ``src/``.

Two kinds of dead code fail this file:

* a module-level import its module never uses (a name re-exported through
  the module's ``__all__`` counts as used);
* a top-level function or class of ``src/`` whose name occurs nowhere else:
  not in ``src/``, ``tests/``, ``benchmarks/``, ``perfbench/``,
  ``examples/``, ``docs/`` nor ``README.md``.

Both scans read the source with :mod:`ast` and :mod:`re` only; nothing is
imported.  An exception goes into an allow-list below, with a comment that
says why the entry is alive.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: where a top-level ``src/`` name may be used
REFERENCE_DIRS = ("src", "tests", "benchmarks", "perfbench", "examples", "docs")
REFERENCE_FILES = ("README.md",)
REFERENCE_SUFFIXES = {".py", ".md"}

#: ``(module path under src/, name)`` of imports kept although unused
ALLOWED_IMPORTS: Set[Tuple[str, str]] = set()

#: ``(module path under src/, name)`` of definitions kept although nothing
#: else names them
ALLOWED_DEFINITIONS: Set[Tuple[str, str]] = set()

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _modules() -> Iterator[Tuple[str, ast.Module]]:
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _module_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Top-level statements, including those of top-level ``if``/``try``
    blocks (``if TYPE_CHECKING:``, optional-dependency guards)."""
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        statement = pending.pop(0)
        yield statement
        if isinstance(statement, ast.If):
            pending.extend(statement.body + statement.orelse)
        elif isinstance(statement, ast.Try):
            pending.extend(statement.body + statement.orelse + statement.finalbody)
            for handler in statement.handlers:
                pending.extend(handler.body)


def _imported_names(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    for statement in _module_statements(tree):
        if isinstance(statement, ast.Import):
            for alias in statement.names:
                yield alias.asname or alias.name.split(".")[0], statement.lineno
        elif isinstance(statement, ast.ImportFrom) and statement.module != "__future__":
            for alias in statement.names:
                yield alias.asname or alias.name, statement.lineno


def _string_annotation_names(node: ast.AST) -> Iterator[str]:
    """Identifiers inside string annotations (``"asyncio.Task"``)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield from IDENTIFIER.findall(child.value)


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_string_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_string_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_string_annotation_names(node.annotation))
    return used


def _exported(tree: ast.Module) -> Set[str]:
    """``__all__``: a literal list, or ``sorted(<a literal dict or list>)``."""
    assigned: Dict[str, ast.expr] = {}
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    assigned[target.id] = statement.value
    value = assigned.get("__all__")
    if value is None:
        return set()
    if isinstance(value, ast.Call) and isinstance(value.args[0], ast.Name):
        value = assigned[value.args[0].id]
    return set(ast.literal_eval(value))


def _reference_counts() -> Counter:
    counts: Counter = Counter()
    paths = [ROOT / name for name in REFERENCE_FILES]
    for directory in REFERENCE_DIRS:
        paths.extend(
            path for path in (ROOT / directory).rglob("*")
            if path.suffix in REFERENCE_SUFFIXES and path.is_file()
        )
    for path in paths:
        counts.update(IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    return counts


def unused_imports() -> List[str]:
    found = []
    for module, tree in _modules():
        used = _used_names(tree) | _exported(tree)
        for name, line in _imported_names(tree):
            if name not in used and (module, name) not in ALLOWED_IMPORTS:
                found.append(f"{module}:{line} imports {name} and never uses it")
    return found


def uncalled_definitions() -> List[str]:
    counts = _reference_counts()
    found = []
    for module, tree in _modules():
        for statement in tree.body:
            if not isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            name = statement.name
            # the definition itself is the one occurrence a dead name has
            if counts[name] <= 1 and (module, name) not in ALLOWED_DEFINITIONS:
                found.append(f"{module}:{statement.lineno} defines {name}, named nowhere else")
    return found


def test_src_has_no_unused_module_level_import():
    assert unused_imports() == []


def test_every_top_level_src_definition_is_named_somewhere_else():
    assert uncalled_definitions() == []

