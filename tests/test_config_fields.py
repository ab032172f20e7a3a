"""Every defaulted parameter under ``src/repro`` is set by a non-test caller.

DESIGN.md's options rule: a parameter stays only if a non-test caller
sets it.  The scan covers every defaulted parameter of a public function,
of a public method or the constructor (``__init__``) of a module-level
class, and every field of a ``*Config`` dataclass (the parameters of its
generated constructor).  A parameter is set when a call in ``src/``
outside the parameter's own def (for a constructor: its class body), in
``benchmarks/`` or in ``examples/`` passes it:

* by keyword;
* by position (a method's ``self`` / ``cls`` is not counted);
* by forwarding: ``*args`` sets every positional parameter from its
  position on, ``**kwargs`` sets every parameter;
* through a factory: ``space.node(key, SeqScan, table, binding)`` passes
  ``table`` and ``binding`` to ``SeqScan`` (a callable the scan knows,
  followed by arguments).

Calls are matched by name, so ``x.run(...)`` counts for every ``run``
under ``src/repro``.  A class call counts for its ``__init__``, or for
the one it inherits; ``super().__init__(...)`` counts for the bases'.
A parameter only tests set becomes its default, a module constant where
a test wants another value (the test patches it).  What stays sits in
:data:`ALLOWED` with a reason.  The scan is an AST walk like
``test_src_reachability.py``'s, reported as ``path:line: Owner(name=)``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

import repro

from .test_src_reachability import _module_level

SRC = Path(repro.__file__).parent
REPO = SRC.parent.parent
CALLERS = [REPO / "benchmarks", REPO / "examples"]

#: Parameters only tests set, and why they stay.
ALLOWED: Dict[str, str] = {
    "execute_plan(batch_size=)": "the batch-boundary proofs run one plan "
    "at several batch sizes",
    "build_simulated_meta_wrapper(use_calibration=)": "test seam: the "
    "what-if derivation on raw estimates, compared with the direct "
    "enumeration",
    "run_scenario(with_oracle=)": "test seam: the checker mutants run "
    "without the SQLite answer oracle",
    "Database.estimate_plan(profile=)": "the fresh-estimator reference "
    "prices one plan under another server's profile",
    "plan_sql(profile=)": "the memo-free optimizer oracle plans under "
    "each server's profile",
    "run_scenario(databases=)": "tests run scenarios over their own "
    "small datasets",
    "run_timeline(databases=)": "tests run the timeline over their own "
    "small datasets",
    "PhysicalPlan.explain_lines(indent=)": "set by its own recursion: "
    "each child renders one level deeper",
}


class Signature(NamedTuple):
    path: Path
    span: Tuple[int, int]
    key: str
    label: str
    positional: List[str]
    defaulted: List[Tuple[str, int]]
    constructor: bool


class Call(NamedTuple):
    path: Path
    line: int
    key: str
    positional: int
    starred: bool
    keywords: Set[str]
    double_starred: bool


def _name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_name(d) == "dataclass" for d in node.decorator_list)


def _span(node: ast.AST) -> Tuple[int, int]:
    return node.lineno, node.end_lineno or node.lineno


def _function(
    path: Path,
    node: ast.FunctionDef,
    key: str,
    label: str,
    span: Tuple[int, int],
    method: bool,
    constructor: bool = False,
) -> Signature:
    args = node.args
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    if method and not any(
        _name(d) == "staticmethod" for d in node.decorator_list
    ):
        positional = positional[1:]
    with_default = (*args.posonlyargs, *args.args)[
        len(args.posonlyargs) + len(args.args) - len(args.defaults):
    ]
    defaulted = [(a.arg, a.lineno) for a in with_default] + [
        (a.arg, a.lineno)
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return Signature(
        path, span, key, label, positional, defaulted, constructor
    )


def signatures(root: Path) -> List[Signature]:
    """Every public function, method and constructor under *root* and
    every ``*Config`` dataclass, with its defaulted parameters."""
    found: List[Signature] = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _module_level(tree):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith(
                "_"
            ):
                found.append(
                    _function(
                        path, node, node.name, node.name, _span(node), False
                    )
                )
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name.endswith("Config") and _is_dataclass(node):
                fields = [
                    s
                    for s in node.body
                    if isinstance(s, ast.AnnAssign)
                    and isinstance(s.target, ast.Name)
                ]
                found.append(
                    Signature(
                        path,
                        _span(node),
                        node.name,
                        node.name,
                        [f.target.id for f in fields],
                        [(f.target.id, f.lineno) for f in fields],
                        True,
                    )
                )
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                if method.name == "__init__":
                    found.append(
                        _function(
                            path,
                            method,
                            node.name,
                            node.name,
                            _span(node),
                            True,
                            True,
                        )
                    )
                elif not method.name.startswith("_"):
                    found.append(
                        _function(
                            path,
                            method,
                            method.name,
                            f"{node.name}.{method.name}",
                            _span(method),
                            True,
                        )
                    )
    return found


def _inherited_constructors(roots: List[Path]) -> Dict[str, List[str]]:
    """Class name -> base names, for classes without an ``__init__``."""
    bases: Dict[str, List[str]] = {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and not any(
                    isinstance(s, ast.FunctionDef) and s.name == "__init__"
                    for s in node.body
                ):
                    bases[node.name] = [_name(b) for b in node.bases]
    return bases


def _calls_in(
    path: Path, tree: ast.Module, classes_known: Set[str]
) -> Iterator[Call]:
    classes: List[Tuple[Tuple[int, int], List[str]]] = [
        (_span(node), [_name(b) for b in node.bases])
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        args = node.args
        keywords = {k.arg for k in node.keywords if k.arg}
        double = any(k.arg is None for k in node.keywords)
        func = node.func
        keys = [_name(func)]
        skip = 0
        if keys[0] == "__init__" and isinstance(func, ast.Attribute):
            if _name(func.value) == "super":
                enclosing = [
                    bases
                    for (first, last), bases in classes
                    if first <= node.lineno <= last
                ]
                keys = enclosing[-1] if enclosing else []
            else:
                keys, skip = [_name(func.value)], 1
        plain = 0
        while plain < len(args) and not isinstance(args[plain], ast.Starred):
            plain += 1
        for key in keys:
            yield Call(
                path,
                node.lineno,
                key,
                max(plain - skip, 0),
                plain < len(args),
                keywords,
                double,
            )
        for position, arg in enumerate(args[:plain]):
            if isinstance(arg, ast.Name) and arg.id in classes_known:
                yield Call(
                    path,
                    node.lineno,
                    arg.id,
                    plain - position - 1,
                    plain < len(args),
                    set(),
                    False,
                )


def calls(
    roots: List[Path], classes_known: Set[str]
) -> Dict[str, List[Call]]:
    """Callee key -> every call under *roots*, a class call also filed
    under the constructor it inherits.  A class of *classes_known* passed
    as an argument is called with the positional arguments after it."""
    inherits = _inherited_constructors(roots)
    found: Dict[str, List[Call]] = {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for call in _calls_in(path, tree, classes_known):
                seen: Set[str] = set()
                stack = [call.key]
                while stack:
                    key = stack.pop()
                    if key in seen:
                        continue
                    seen.add(key)
                    found.setdefault(key, []).append(call._replace(key=key))
                    stack.extend(inherits.get(key, []))
    return found


def _sets(call: Call, signature: Signature, name: str) -> bool:
    if call.path == signature.path and (
        signature.span[0] <= call.line <= signature.span[1]
    ):
        return False
    if name in call.keywords or call.double_starred:
        return True
    if name not in signature.positional:
        return False
    position = signature.positional.index(name)
    return position < call.positional or call.starred


def unset_parameters(src: Path, callers: List[Path]) -> List[str]:
    """Defaulted parameters under *src* no call outside their own def
    under *src* or *callers* passes, as ``path:line: Owner(name=)``."""
    found = signatures(src)
    by_key = calls([src, *callers], {s.key for s in found if s.constructor})
    missing: List[str] = []
    for signature in found:
        for name, line in signature.defaulted:
            if not any(
                _sets(call, signature, name)
                for call in by_key.get(signature.key, [])
            ):
                missing.append(
                    f"{signature.path}:{line}: {signature.label}({name}=)"
                )
    return missing


def _label(entry: str) -> str:
    return entry.rsplit(": ", 1)[1]


def test_every_config_field_is_set_by_a_non_test_caller():
    """Every defaulted parameter, a `*Config` field among them."""
    missing = [
        entry
        for entry in unset_parameters(SRC, CALLERS)
        if _label(entry) not in ALLOWED
    ]
    assert missing == []


def test_allowed_entries_are_still_defined_and_unset():
    unset = {_label(entry) for entry in unset_parameters(SRC, CALLERS)}
    assert set(ALLOWED) <= unset
    assert all(reason.strip() for reason in ALLOWED.values())


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
        "    positional: int = 2\n"
        "    by_bench: int = 3\n"
        "    only_inside: int = 4\n"
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
        "\n"
        "def by_keyword(a, b=1, *, c=2):\n"
        "    return by_keyword(a, 5, c=6)\n"
        "\n"
        "def by_position(a, b=1, c=2):\n"
        "    pass\n"
        "\n"
        "def star_forwarded(a=1, b=2, c=3):\n"
        "    pass\n"
        "\n"
        "def keyword_forwarded(*, a=1):\n"
        "    pass\n"
        "\n"
        "def _private(a=1):\n"
        "    pass\n"
        "\n"
        "class Base:\n"
        "    def __init__(self, x=1, y=2, z=3):\n"
        "        pass\n"
        "\n"
        "    def method(self, m=1, n=2):\n"
        "        return self.method(n=3)\n"
        "\n"
        "class Child(Base):\n"
        "    def __init__(self, w=0):\n"
        "        super().__init__(x=w)\n"
        "\n"
        "class Heir(Base):\n"
        "    pass\n"
        "\n"
        "class Leaf:\n"
        "    def __init__(self, a, b=1, c=2):\n"
        "        pass\n"
        "\n"
        "def forward(*args, **kwargs):\n"
        "    star_forwarded(0, *args)\n"
        "    keyword_forwarded(**kwargs)\n"
        "    by_position(1, 2)\n"
        "    Heir(y=1)\n"
        "    node('key', Leaf, 1, 2)\n"
        "    Base().method(1)\n"
        "    apply(by_position, 1, 2, 3)\n"
    )
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text(
        "import pkg.mod as mod\n"
        "mod.KnobConfig(by_bench=9)\n"
        "mod.KnobConfig(0, 4)\n"
        "mod.by_keyword(1, c=3)\n"
        "mod.Child(w=1)\n"
    )
    assert [_label(entry) for entry in unset_parameters(src, [bench])] == [
        "KnobConfig(only_inside=)",
        "KnobConfig(never=)",
        "OtherConfig(unset=)",
        "by_keyword(b=)",
        "by_position(c=)",
        "Base(z=)",
        "Base.method(n=)",
        "Leaf(c=)",
    ]
