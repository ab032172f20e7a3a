"""No code under ``src/repro`` reads the process environment.

Everything a run does is chosen by arguments a caller passes; a variable
read from the environment is a setting no test, bench or artefact shows.
The scan mirrors ``repro.chaos.determinism``'s global-``random`` guard:
an AST walk for ``os.environ`` / ``os.getenv`` (and their imports by
name), reported as ``path:line``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

import repro

FORBIDDEN = frozenset({"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"})


def environment_reads(root: Path) -> List[str]:
    """Every ``os.<environment access>`` under *root*, as ``path:line``."""
    files = [root] if root.suffix == ".py" else sorted(root.rglob("*.py"))
    reads: List[str] = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in FORBIDDEN
            ):
                reads.append(f"{path}:{node.lineno}: os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads.extend(
                    f"{path}:{node.lineno}: from os import {alias.name}"
                    for alias in node.names
                    if alias.name in FORBIDDEN
                )
    return reads


def test_src_reads_no_environment():
    assert environment_reads(Path(repro.__file__).parent) == []


def test_every_spelling_is_found(tmp_path):
    offender = tmp_path / "offender.py"
    offender.write_text(
        "import os\n"
        "from os import getenv\n"
        "ENGINE = os.environ.get('X', 'columnar')\n"
        "LEVEL = os.getenv('Y')\n"
        "PATH = os.path.join('a', 'b')\n"
    )
    reads = environment_reads(tmp_path)
    assert sorted(read.split(":", 1)[1] for read in reads) == [
        "2: from os import getenv",
        "3: os.environ",
        "4: os.getenv",
    ]
