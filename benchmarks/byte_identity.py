"""The byte-identity list as one command.

The north star calls these artefacts an invariant: a PR that does not
mean to change behaviour must leave every one of them byte for byte as
the parent commit produced it.  This script produces them all into a
directory through the ``repro`` CLI of the checkout it lives in, prints
one ``sha256  name`` line each, and with ``--check FILE`` compares the
digests against a committed digest file::

    python3 benchmarks/byte_identity.py OUT_DIR
    python3 benchmarks/byte_identity.py OUT_DIR --check benchmarks/byte_identity.sha256

A PR that changes an artefact on purpose regenerates the digest file
(redirect the first form's stdout) and says which lines moved and why.
Everything runs at test scale on the virtual clock, one process at a
time (about a minute in all).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: ``repro explain --analyze`` prints per-operator wall-clock time next
#: to the deterministic actuals; it is the one field blanked out.
_WALL = re.compile(r"wall=\S+")

_LOAD = ["--qps", "80", "--duration", "2000", "--seed", "42"]
_CHAOS = ["chaos", "--seed", "42", "--runs", "100"]


def _query_types() -> List[Tuple[str, str]]:
    """(name, SQL) of the first instance of QT1-QT5."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.workload.queries import EXTENDED_QUERY_TYPES

    return [(t.name, t.instance(0).sql) for t in EXTENDED_QUERY_TYPES]


def artefacts() -> Iterator[Tuple[str, List[str], Optional[str]]]:
    """(artefact name, ``repro`` arguments, file flag or None): with a
    flag the artefact is the file written through it, otherwise it is
    the command's stdout."""
    for suffix, extra in (
        ("plain", []),
        ("hedge", ["--hedge-after", "20"]),
        ("reroute", ["--reroute-batch", "8"]),
        ("hedge-reroute", ["--hedge-after", "20", "--reroute-batch", "8"]),
    ):
        yield f"chaos-{suffix}.jsonl", _CHAOS + extra, "--jsonl"
    for arrival in ("poisson", "bursty"):
        yield (
            f"loadgen-{arrival}.jsonl",
            ["loadgen", "--arrival", arrival] + _LOAD,
            "--jsonl",
        )
    yield "loadgen-flight.json", ["loadgen"] + _LOAD, "--flight"
    yield "loadgen-chrome.json", ["loadgen"] + _LOAD, "--chrome"
    yield "slo-flight.json", ["slo"] + _LOAD, "--flight"
    for name in ("figure9", "table2", "figure10", "figure11"):
        yield (
            f"experiment-{name}.txt",
            ["experiment", name, "--scale", "test"],
            None,
        )
    for name in ("timeline", "demo", "status"):
        yield f"{name}.txt", [name], None
    for name, sql in _query_types():
        yield f"explain-analyze-{name}.txt", ["explain", sql, "--analyze"], None
        yield f"trace-{name}.json", ["trace", sql], "--out"


def produce(out_dir: Path) -> Dict[str, str]:
    """Run every artefact into *out_dir*; returns name -> sha256."""
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    digests: Dict[str, str] = {}
    for name, args, flag in artefacts():
        path = out_dir / name
        command = [sys.executable, "-m", "repro"] + args
        if flag is not None:
            command += [flag, str(path)]
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True
        )
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            raise SystemExit(f"{name}: {' '.join(command)} failed")
        if flag is None:
            path.write_text(_WALL.sub("wall=", done.stdout))
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digests[name]}  {name}", flush=True)
    return digests


def check(digests: Dict[str, str], expected_file: Path) -> int:
    expected: Dict[str, str] = {}
    for line in expected_file.read_text().splitlines():
        digest, name = line.split()
        expected[name] = digest
    names = sorted(set(digests) | set(expected))
    moved = [n for n in names if digests.get(n) != expected.get(n)]
    for name in moved:
        print(
            f"DIFFERS {name}: expected {expected.get(name)}, "
            f"produced {digests.get(name)}",
            file=sys.stderr,
        )
    print(f"{len(names) - len(moved)} of {len(names)} artefacts identical")
    return 1 if moved else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="where the artefacts go")
    parser.add_argument(
        "--check",
        type=Path,
        metavar="FILE",
        help="compare against the `sha256  name` lines of FILE",
    )
    args = parser.parse_args(argv)
    digests = produce(args.out_dir)
    return check(digests, args.check) if args.check else 0


if __name__ == "__main__":
    sys.exit(main())
