"""Tables 1 and 2: load phases and fixed vs dynamic server assignment.

Prints Table 1 (the experiment's input: which servers are loaded in each
phase) and regenerates Table 2: the static nickname-registration-time
assignment next to QCC's per-phase dynamic assignment for each query
type.

Shape assertions:

* QT1 and QT4 stay on S3 in (almost) every phase — per the paper's
  Table 2 those rows are constant S3;
* QT2 leaves S3 exactly in the phases where S3 is loaded and another
  server is not (phases 2, 4, 6), returning to S3 otherwise;
* QT3 follows Section 5.2's text ("S3 is the cheapest server even when
  it is highly loaded"), i.e. stays on S3.  Note the paper's own Table 2
  contradicts its Section 5.2 text here; we reproduce the text's claim
  and record the discrepancy in EXPERIMENTS.md.
"""

from __future__ import annotations


from repro.harness import ascii_table
from repro.workload import FIXED_ASSIGNMENT_1, PHASES, QUERY_TYPE_NAMES


def test_table1_and_table2_assignments(
    benchmark, evaluation
):
    assignments = benchmark.pedantic(
        evaluation.table2, rounds=1, iterations=1
    ).assignments

    print("\n=== Table 1: combinations of server load conditions ===")
    rows = [
        [server] + [phase.condition(server) for phase in PHASES]
        for server in ("S1", "S2", "S3")
    ]
    print(ascii_table(["Server"] + [p.name for p in PHASES], rows))

    print("\n=== Table 2: fixed vs dynamic assignment per phase ===")
    rows = [
        [name, FIXED_ASSIGNMENT_1[name]] + assignments[name]
        for name in QUERY_TYPE_NAMES
    ]
    print(
        ascii_table(
            ["Type", "Fixed"] + [p.name for p in PHASES], rows
        )
    )

    # -- shape assertions ---------------------------------------------------
    # QT1/QT4: S3 in at least 7 of 8 phases (paper: all 8).
    for name in ("QT1", "QT4"):
        s3_count = sum(1 for s in assignments[name] if s == "S3")
        assert s3_count >= 7, (name, assignments[name])

    # QT3 stays on S3 (Section 5.2's claim).
    assert all(s == "S3" for s in assignments["QT3"]), assignments["QT3"]

    # QT2 flees S3 precisely when S3 is loaded but an alternative isn't:
    # phases 2, 4, 6 (indices 1, 3, 5); stays on S3 in idle/all-loaded
    # phases 1, 5, 7, 8 (indices 0, 4, 6, 7).
    qt2 = assignments["QT2"]
    for index in (1, 3, 5):
        assert qt2[index] != "S3", (index, qt2)
    for index in (0, 4, 6, 7):
        assert qt2[index] == "S3", (index, qt2)
