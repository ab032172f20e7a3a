"""Static guard against implicit global randomness in the simulator.

Chaos runs are only reproducible if every stochastic component draws
from a seeded ``random.Random`` instance (see :mod:`repro.sim.rng`).  A
single ``random.random()`` call — the *module-level*, globally seeded
API — silently breaks byte-reproducibility for every scenario.  This
module AST-scans a package for exactly that pattern and errors out, and
the chaos CLI runs the scan before executing any scenario.

Constructing instances (``random.Random(seed)``) is allowed; calling the
module-level convenience functions (``random.random``, ``random.choice``,
``random.shuffle``, ...) is not.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional, Union

#: Module-level ``random`` functions that mutate/consume global state.
FORBIDDEN_GLOBAL_RANDOM = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "setstate",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)


class DeterminismError(RuntimeError):
    """Raised when a scanned package uses the global ``random`` state."""


def _uses_in_file(path: Path) -> List[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    uses: List[str] = []
    for node in ast.walk(tree):
        target: Optional[ast.Attribute] = None
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            target = node.func
        elif isinstance(node, ast.Attribute):
            target = node
        if (
            target is not None
            and isinstance(target.value, ast.Name)
            and target.value.id == "random"
            and target.attr in FORBIDDEN_GLOBAL_RANDOM
        ):
            uses.append(f"{path}:{target.lineno}: random.{target.attr}")
    # Attribute nodes inside calls are visited twice (once via the Call
    # branch, once standalone); dedupe while keeping order.
    return list(dict.fromkeys(uses))


def global_random_uses(root: Union[str, Path]) -> List[str]:
    """All ``random.<global fn>`` references under *root* (a package
    directory or a single ``.py`` file), as ``path:line`` strings."""
    root = Path(root)
    files = [root] if root.suffix == ".py" else sorted(root.rglob("*.py"))
    uses: List[str] = []
    for path in files:
        uses.extend(_uses_in_file(path))
    return uses


def forbid_global_random() -> None:
    """Error out if the simulator touches global ``random`` state.

    Scans both ``src/repro/sim`` (the simulation substrate, event
    scheduler included) and ``src/repro/fed`` (the federation layer:
    admission control's arrival generators consume randomness too) —
    every package a chaos scenario executes stochastic code from.
    """
    from .. import fed, sim

    roots = [Path(sim.__file__).parent, Path(fed.__file__).parent]
    uses: List[str] = []
    for package_root in roots:
        uses.extend(global_random_uses(package_root))
    if uses:
        raise DeterminismError(
            "implicit global random use breaks seed-reproducibility:\n  "
            + "\n  ".join(uses)
            + "\nDerive a local random.Random via repro.sim.rng.derive_rng "
            "instead."
        )
