"""Every field of a ``*Config`` dataclass under ``src/repro`` is set.

DESIGN.md's options rule: a config field stays only if a non-test caller
sets it.  A field is set when a call to its class passes it by keyword
in ``src/`` (outside the class body), ``benchmarks/`` or ``examples/``.
A field only tests set becomes a module constant holding its default,
and the tests patch the constant.  The scan is an AST walk like
``test_src_reachability.py``'s, reported as ``path:line: Class.field``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set, Tuple

import repro

SRC = Path(repro.__file__).parent
REPO = SRC.parent.parent


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        name = (
            decorator.attr
            if isinstance(decorator, ast.Attribute)
            else getattr(decorator, "id", "")
        )
        if name == "dataclass":
            return True
    return False


def config_classes(root: Path) -> List[Tuple[Path, ast.ClassDef]]:
    """Every ``@dataclass`` class named ``*Config`` under *root*."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Config")
                and _is_dataclass(node)
            ):
                found.append((path, node))
    return found


def _fields(node: ast.ClassDef) -> List[ast.AnnAssign]:
    return [
        statement
        for statement in node.body
        if isinstance(statement, ast.AnnAssign)
        and isinstance(statement.target, ast.Name)
    ]


def keywords_passed(
    roots: List[Path], excluded: Dict[Path, List[Tuple[int, int]]]
) -> Dict[str, Set[str]]:
    """Class name -> keywords some call to it passes under *roots*,
    skipping calls on the *excluded* line ranges of each file."""
    passed: Dict[str, Set[str]] = {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            skip = excluded.get(path, [])
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                if any(first <= node.lineno <= last for first, last in skip):
                    continue
                func = node.func
                callee = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None)
                )
                if callee is None:
                    continue
                passed.setdefault(callee, set()).update(
                    keyword.arg for keyword in node.keywords if keyword.arg
                )
    return passed


def unset_fields(src: Path, callers: List[Path]) -> List[str]:
    """``*Config`` fields no call under *src* (outside the class body) or
    *callers* passes by keyword, as ``path:line: Class.field``."""
    classes = config_classes(src)
    bodies: Dict[Path, List[Tuple[int, int]]] = {}
    for path, node in classes:
        bodies.setdefault(path, []).append(
            (node.lineno, node.end_lineno or node.lineno)
        )
    passed = keywords_passed([src, *callers], bodies)
    missing = []
    for path, node in classes:
        for field in _fields(node):
            name = field.target.id
            if name not in passed.get(node.name, set()):
                missing.append(f"{path}:{field.lineno}: {node.name}.{name}")
    return missing


def test_every_config_field_is_set_by_a_non_test_caller():
    assert unset_fields(SRC, [REPO / "benchmarks", REPO / "examples"]) == []


def test_scan_sees_each_way_of_being_set(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class KnobConfig:\n"
        "    by_src: int = 1\n"
        "    by_bench: int = 2\n"
        "    only_inside: int = 3\n"
        "    positional: int = 4\n"
        "    never: int = 5\n"
        "\n"
        "    def copy(self):\n"
        "        return KnobConfig(only_inside=self.only_inside)\n"
        "\n"
        "@dataclasses.dataclass\n"
        "class OtherConfig:\n"
        "    unset: int = 0\n"
        "\n"
        "class PlainConfig:\n"
        "    ignored: int = 0\n"
        "\n"
        "DEFAULT = KnobConfig(by_src=7)\n"
        "POSITIONAL = KnobConfig(1, 2, 3, 4)\n"
    )
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text(
        "import pkg.mod as mod\n"
        "mod.KnobConfig(by_bench=9)\n"
    )
    assert [
        entry.rsplit(": ", 1)[1] for entry in unset_fields(src, [bench])
    ] == [
        "KnobConfig.only_inside",
        "KnobConfig.positional",
        "KnobConfig.never",
        "OtherConfig.unset",
    ]
