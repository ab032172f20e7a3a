"""Batch-size invariance: the reference the engine is held to itself by.

One engine runs every plan.  Its rows, in order, and its ``WorkMeter``
totals must not depend on how many rows a batch holds: a plan run one
row at a time (batch size 1) or two at a time — every multi-batch path
taken, every selection vector crossing a batch boundary — must equal the
same plan at ``DEFAULT_BATCH_SIZE`` bit for bit.  A plan with a
``Limit`` is exempt from the meters: it meters whole batches, so the
work it abandons depends on the batch size (docs/execution.md).
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.sqlengine import executor

#: The batch sizes a plan's default-size run is compared with.
REFERENCE_BATCH_SIZES = (1, 2)


def meters(result):
    meter = result.meter
    return (meter.cpu_ms, meter.io_ms, meter.tuples_out)


def assert_batch_invariant(
    plan, storage, batch_sizes=REFERENCE_BATCH_SIZES, check_meter=True, what=None
):
    """Run *plan* at ``DEFAULT_BATCH_SIZE`` and at every one of
    *batch_sizes*, hold each run's rows (and meters) to the default's,
    and return the default run's result."""
    expected = executor.execute_plan(plan, storage)
    for size in batch_sizes:
        got = executor.execute_plan(plan, storage, batch_size=size)
        assert got.rows == expected.rows, (what, size)
        if check_meter:
            assert meters(got) == meters(expected), (what, size)
    return expected


@contextmanager
def batch_size(size):
    """Within the block, every execution that names no batch size — a
    server's ``run_plan``, the integrator's merge — runs at *size*."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor.execute_plan, "__defaults__", (size,))
        yield
