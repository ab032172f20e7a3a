"""Answer checker and digests.

Every distinct SQL text of a run is executed once on one reference
``Database`` — the row engine, loaded from the same data seed — and each
completed query's rows must equal the reference's rows: order
normalised, floats within ``1e-9`` relative, ``NULL`` equal only to
``NULL``.  The check runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, List, Sequence

from repro.sqlengine import Database, populate
from repro.workload import WorkloadScale, table_specs

from workloads import DATA_SEED, Verdict

REL_TOL = 1e-9


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _sort_key(row: Sequence) -> tuple:
    """Total order over rows of mixed NULL / numeric / text columns."""
    return tuple(
        (0, 0.0, "") if value is None
        else (1, float(value), "") if _is_number(value)
        else (2, 0.0, str(value))
        for value in row
    )


def _same_value(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if _is_number(got) and _is_number(want):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)
    return got == want


def rows_match(got: Iterable[Sequence], want: Iterable[Sequence]) -> bool:
    got_rows = sorted(got, key=_sort_key)
    want_rows = sorted(want, key=_sort_key)
    return len(got_rows) == len(want_rows) and all(
        len(g) == len(w) and all(map(_same_value, g, w))
        for g, w in zip(got_rows, want_rows)
    )


def reference_answers(
    scale: WorkloadScale, sqls: Iterable[str]
) -> Dict[str, List[tuple]]:
    reference = Database(name="reference", engine="row")
    populate(reference, table_specs(scale), seed=DATA_SEED)
    return {sql: reference.run(sql).rows for sql in sqls}


def count_wrong(scale: WorkloadScale, verdicts: Sequence[Verdict]) -> int:
    """Completed queries whose rows differ from the reference's."""
    completed = [v for v in verdicts if v.status == "completed"]
    expected = reference_answers(
        scale, dict.fromkeys(v.sql for v in completed)
    )
    return sum(
        1 for v in completed if not rows_match(v.rows, expected[v.sql])
    )


def verdict_digest(verdicts: Sequence[Verdict]) -> str:
    """sha256 over index/status/response_ms/row count per query: equal
    across repeats of one (workload, seed), and across commits that
    leave routing and virtual timing alone."""
    digest = hashlib.sha256()
    for v in verdicts:
        rows = -1 if v.rows is None else len(v.rows)
        digest.update(
            f"{v.index}|{v.status}|{v.response_ms!r}|{rows}\n".encode()
        )
    return digest.hexdigest()

