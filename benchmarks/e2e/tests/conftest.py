"""Tests of the end-to-end benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``;
they are not part of the tier-1 collection (``testpaths = ["tests"]``).
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
REPO = E2E.parents[1]
for path in (str(REPO / "src"), str(E2E)):
    if path not in sys.path:
        sys.path.insert(0, path)
