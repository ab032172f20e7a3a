"""EXPERIMENTS.md's ablation rows A1-A5, measured by their own benches.

Each ``bench_ablation_*`` module's ``_measure`` runs with the arguments
its test passes: the session's bench-scale databases at seed 7 and
``build_workload(instances_per_type=4, seed=7)`` for A1, A4 and A5 (A2
and A3 build their own replica federations).  One table row per
variant.  Usage, from the repository root::

    PYTHONPATH=src python benchmarks/ablation_rows.py             # print
    PYTHONPATH=src python benchmarks/ablation_rows.py --markdown  # rewrite

``--markdown [PATH]`` rewrites the ``<!-- BEGIN ablations -->`` block of
PATH (default ``EXPERIMENTS.md``); CI fails on a ``git diff`` of it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_ablation_availability as a4  # noqa: E402
import bench_ablation_band as a3  # noqa: E402
import bench_ablation_cycle as a1  # noqa: E402
import bench_ablation_loadbalance as a2  # noqa: E402
import bench_ablation_network as a5  # noqa: E402

from repro.harness import DEFAULT_SERVER_SPECS, build_databases  # noqa: E402
from repro.harness.report import (  # noqa: E402
    markdown_table,
    replace_marked_blocks,
)
from repro.workload import BENCH_SCALE, build_workload  # noqa: E402

HEADERS = ("Id", "Variant", "Mean response (ms)", "Detail")


def _usage(usage: Dict[str, int]) -> str:
    return ", ".join(f"{server} {n}" for server, n in sorted(usage.items()))


def rows() -> List[List[str]]:
    databases = build_databases(DEFAULT_SERVER_SPECS, BENCH_SCALE, seed=7)
    workload = build_workload(instances_per_type=4, seed=7)
    queries = len(workload)
    table: List[List[str]] = []
    for variant, ms in a1._measure(databases, workload).items():
        table.append(["A1", variant, f"{ms:.2f}", ""])
    for variant, (ms, usage) in a2._measure().items():
        detail = f"fragment executions: {_usage(usage)}"
        table.append(["A2", variant, f"{ms:.2f}", detail])
    for variant, ms in a3._measure().items():
        table.append(["A3", variant, f"{ms:.2f}", ""])
    a4_results = a4._measure(databases, workload)
    for variant, (ms, retries, failures) in a4_results.items():
        detail = f"{retries} failover retries, {failures} failed queries"
        table.append(["A4", variant, f"{ms:.2f}", detail])
    for variant, data in a5._measure(databases, workload).items():
        detail = (
            f"{data['congested_s3']}/{queries} queries on S3; clear link "
            f"{data['clear_ms']:.2f} ms, {data['clear_s3']}/{queries} on S3"
        )
        ms = data["congested_ms"]
        table.append(["A5", f"{variant}, congested link", f"{ms:.2f}", detail])
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--markdown",
        metavar="PATH",
        nargs="?",
        const=str(Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"),
        help="rewrite the ablations block of PATH (EXPERIMENTS.md)",
    )
    args = parser.parse_args(argv)
    block = markdown_table(HEADERS, rows())
    print(block)
    if args.markdown:
        path = Path(args.markdown)
        text = replace_marked_blocks(
            path.read_text("utf-8"), {"ablations": block}
        )
        path.write_text(text, "utf-8")
        print(f"\nBlock ablations of {args.markdown} regenerated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
