"""Every module-level ``def``, ``class`` and public constant under
``src/repro`` is used.

A public constant is a module-level assignment to an UPPER_CASE name
(no leading underscore).  A definition earns its place by being named somewhere a non-test caller
can reach it: in ``src/`` outside its own body (and outside the
re-exports of an ``__init__.py``), or in ``benchmarks/`` or
``examples/``.  Code only tests reach belongs in the tests.  The scan
mirrors ``test_no_environment_reads.py``: an AST walk, reported as
``path:line: name``.

What counts as naming it:

* in ``src/``, a ``Name`` or an ``Attribute`` anywhere but the
  definition's own lines (an ``__init__.py`` re-export is an import,
  neither of the two, and ``__all__`` holds strings);
* in ``benchmarks/`` and ``examples/``, a ``Name``, an ``Attribute``,
  an imported name, or an identifier inside a string constant (the
  end-to-end layer timer patches functions it names in strings);
* a function decorated by a ``src/`` function is registered by it (the
  chaos checkers' ``@register_checker``).

Anything else that stays goes into :data:`ALLOWED` with its reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

import repro

SRC = Path(repro.__file__).parent
REPO = SRC.parent.parent

#: Definitions nothing outside the tests names, and why they stay.
ALLOWED: Dict[str, str] = {
    "plan_sql": "the memo-free optimizer oracle the statement caches "
    "are tested against",
    "tokenize": "the Token view of the scanner the parser tests and "
    "the tokenizer fuzzer inspect",
    "registered_checkers": "the chaos checker registry's read view; "
    "tests prove every checker has a mutant",
    "ZipfInt": "the skewed-key column generator the degenerate-data "
    "oracle test draws foreign keys from",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


class Definition(NamedTuple):
    path: Path
    node: ast.stmt
    name: str


def _module_level(tree: ast.Module) -> Iterator[ast.stmt]:
    """Top-level statements, looking inside module-level ``if`` / ``try``
    (version-dependent definitions)."""
    stack = list(reversed(tree.body))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            for block in (
                node.body,
                node.orelse,
                getattr(node, "finalbody", []),
                *(handler.body for handler in getattr(node, "handlers", [])),
            ):
                stack.extend(reversed(block))
        else:
            yield node


def _assigned_constants(node: ast.stmt) -> Iterator[str]:
    """Public UPPER_CASE names a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return
    for target in targets:
        names = target.elts if isinstance(target, ast.Tuple) else [target]
        for name in names:
            if isinstance(name, ast.Name) and _CONSTANT.fullmatch(name.id):
                yield name.id


def definitions(root: Path) -> List[Definition]:
    """Every module-level ``def`` / ``class`` / public constant under
    *root*."""
    found: List[Definition] = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _module_level(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                found.append(Definition(path, node, node.name))
            for name in _assigned_constants(node):
                found.append(Definition(path, node, name))
    return found


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _src_uses(root: Path) -> List[Tuple[Path, int, str]]:
    """``(path, line, name)`` of every Name / Attribute under *root*."""
    uses: List[Tuple[Path, int, str]] = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                uses.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((path, node.lineno, node.attr))
    return uses


def _caller_names(roots: List[Path]) -> Set[str]:
    """Every name the files under *roots* mention in code or strings."""
    names: Set[str] = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add((node.asname or node.name).split(".")[-1])
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    names.update(_IDENTIFIER.findall(node.value))
    return names


def unreached(src: Path, callers: List[Path]) -> List[str]:
    """Definitions under *src* that nothing in *src* (outside their own
    body) or *callers* names, as ``path:line: name``."""
    defs = definitions(src)
    registrars = {
        node.name
        for _, node, _ in defs
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    uses = _src_uses(src)
    caller_names = _caller_names(callers)
    missing: List[str] = []
    for path, node, defined in defs:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            _decorator_name(d) in registrars for d in node.decorator_list
        ):
            continue
        first, last = node.lineno, node.end_lineno or node.lineno
        named = defined in caller_names or any(
            name == defined and not (where == path and first <= line <= last)
            for where, line, name in uses
        )
        if not named:
            missing.append(f"{path}:{node.lineno}: {defined}")
    return missing


def test_every_src_definition_has_a_caller():
    missing = [
        entry
        for entry in unreached(SRC, [REPO / "benchmarks", REPO / "examples"])
        if entry.rsplit(": ", 1)[1] not in ALLOWED
    ]
    assert missing == []


def test_allowed_entries_are_still_defined_and_unreached():
    unreached_names = {
        entry.rsplit(": ", 1)[1]
        for entry in unreached(SRC, [REPO / "benchmarks", REPO / "examples"])
    }
    assert set(ALLOWED) <= unreached_names


def test_scan_sees_each_way_of_being_named(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "__init__.py").write_text(
        "from .mod import exported, initialised\n"
        "__all__ = ['exported']\n"
        "initialised()\n"
    )
    (src / "mod.py").write_text(
        "def register(fn):\n"
        "    return fn\n"
        "\n"
        "@register\n"
        "def registered():\n"
        "    pass\n"
        "\n"
        "def exported():\n"
        "    return exported\n"
        "\n"
        "def initialised():\n"
        "    pass\n"
        "\n"
        "def helper():\n"
        "    pass\n"
        "\n"
        "def caller():\n"
        "    return helper()\n"
        "\n"
        "class ByString:\n"
        "    pass\n"
        "\n"
        "if True:\n"
        "    def versioned():\n"
        "        pass\n"
        "\n"
        "USED = 1\n"
        "UNUSED, ALSO_USED = 2, 3\n"
        "TYPED: int = 4\n"
        "_PRIVATE = 5\n"
        "lower = 6\n"
        "SELF_REFERENCE = [SELF_REFERENCE for _ in ()]\n"
        "\n"
        "def reader():\n"
        "    return USED + ALSO_USED\n"
    )
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text(
        "from pkg.mod import caller, reader\n"
        "PATCHED = 'pkg.mod.ByString'\n"
        "print(mod.TYPED)\n"
    )
    assert sorted(
        entry.rsplit(": ", 1)[1] for entry in unreached(src, [bench])
    ) == ["SELF_REFERENCE", "UNUSED", "exported", "versioned"]
