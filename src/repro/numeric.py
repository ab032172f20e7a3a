"""Float totals added left to right, on every interpreter.

Row-at-a-time code accumulates ``total = total + value``.  Up to CPython
3.11 the builtin ``sum(values, start)`` is exactly that fold, only in C;
from 3.12 it compensates float rounding within each call, so its total
differs from the fold in the last bits and depends on where a slice of
the values begins and ends.  :func:`left_sum` is the fold everywhere:
``sum`` itself where ``sum`` already is it, ``reduce(add, ...)`` after.
A left fold is exact under any slicing — folding a slice's values into
the running total gives the total of folding the values one by one —
which is what lets a columnar kernel choose its own batch boundaries.
:data:`left_sum_from` is the same fold with *start* required, a C call
on every interpreter (no Python frame per call), for kernels that fold
once per group.

This module imports nothing from ``repro``, so every package may use it.
"""

from __future__ import annotations

import sys
from functools import partial, reduce
from operator import add
from typing import Any, Iterable

if sys.version_info >= (3, 12):

    def left_sum(values: Iterable[Any], start: Any = 0) -> Any:
        """``start + v0 + v1 + ...``, added left to right."""
        return reduce(add, values, start)

    left_sum_from = partial(reduce, add)

else:
    left_sum = left_sum_from = sum
