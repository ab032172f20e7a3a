"""Deterministic synthetic data generation.

Column generators are declarative so that schemas in
:mod:`repro.workload.schema` can describe their data distribution next to
their types.  All randomness flows through one ``random.Random`` seeded by
the caller: identical seeds yield identical tables.  The paper's setup
replicates tables across the three remote servers; a deployment
generates each table once, at its first host, and loads every other
replica as a copy of it (``harness.build_databases``,
``Database.load_copy``), so the replicas hold the very same tuples.
"""

from __future__ import annotations

import random
import string
import zlib
from dataclasses import dataclass
from typing import Any, Iterator, Sequence, Tuple

from .types import Column, ColumnType, Schema


class ColumnGen:
    """Base class for column value generators."""

    def generate(self, rng: random.Random, row_index: int) -> Any:
        raise NotImplementedError


@dataclass(frozen=True)
class Serial(ColumnGen):
    """Monotonically increasing integers starting at *start*."""

    start: int = 1

    def generate(self, rng: random.Random, row_index: int) -> int:
        return self.start + row_index


@dataclass(frozen=True)
class UniformInt(ColumnGen):
    low: int
    high: int

    def generate(self, rng: random.Random, row_index: int) -> int:
        return rng.randint(self.low, self.high)


@dataclass(frozen=True)
class UniformFloat(ColumnGen):
    low: float
    high: float

    def generate(self, rng: random.Random, row_index: int) -> float:
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class ZipfInt(ColumnGen):
    """Skewed integer keys in [1, n] with Zipf-ish frequency.

    Sampled as ``int(n * u**skew) + 1``: larger *skew* concentrates more
    mass on small keys (skew=2 puts ~71% of samples in the lower half).
    """

    n: int
    skew: float = 2.0

    def generate(self, rng: random.Random, row_index: int) -> int:
        # Inverse-CDF sampling over a truncated power law; cheap and
        # adequate for generating hot keys.
        u = rng.random()
        value = int(self.n * (u ** self.skew)) + 1
        return min(value, self.n)


@dataclass(frozen=True)
class Choice(ColumnGen):
    values: Tuple[Any, ...]

    def generate(self, rng: random.Random, row_index: int) -> Any:
        return rng.choice(self.values)


@dataclass(frozen=True)
class ForeignKey(ColumnGen):
    """Uniform reference into a parent table of *parent_rows* rows."""

    parent_rows: int
    start: int = 1

    def generate(self, rng: random.Random, row_index: int) -> int:
        return rng.randint(self.start, self.start + self.parent_rows - 1)


@dataclass(frozen=True)
class RandomString(ColumnGen):
    length: int = 12
    alphabet: str = string.ascii_uppercase

    def generate(self, rng: random.Random, row_index: int) -> str:
        return "".join(rng.choice(self.alphabet) for _ in range(self.length))


@dataclass(frozen=True)
class Nullable(ColumnGen):
    """Wraps another generator, yielding NULL with probability *null_rate*."""

    inner: ColumnGen
    null_rate: float = 0.05

    def generate(self, rng: random.Random, row_index: int) -> Any:
        if rng.random() < self.null_rate:
            return None
        return self.inner.generate(rng, row_index)


@dataclass(frozen=True)
class TableSpec:
    """Schema plus per-column generators plus target row count."""

    name: str
    columns: Tuple[Tuple[str, ColumnType, ColumnGen], ...]
    row_count: int

    def schema(self) -> Schema:
        return Schema(
            tuple(Column(name, ctype) for name, ctype, _ in self.columns)
        )

    def generate_rows(self, seed: int) -> Iterator[Tuple[Any, ...]]:
        """Yield deterministic rows for this spec given *seed*."""
        # str hash is salted per-process; crc32 keeps seeds stable across runs.
        rng = random.Random(seed * 2654435761 + zlib.crc32(self.name.encode()))
        generators = [gen.generate for _, _, gen in self.columns]
        for row_index in range(self.row_count):
            yield tuple([generate(rng, row_index) for generate in generators])

    def scaled(self, factor: float) -> "TableSpec":
        """A spec with row_count (and FK ranges) scaled by *factor*."""
        rows = max(1, int(round(self.row_count * factor)))
        scaled_columns = []
        for name, ctype, gen in self.columns:
            if isinstance(gen, ForeignKey):
                gen = ForeignKey(
                    parent_rows=max(1, int(round(gen.parent_rows * factor))),
                    start=gen.start,
                )
            elif isinstance(gen, Nullable) and isinstance(gen.inner, ForeignKey):
                inner = ForeignKey(
                    parent_rows=max(
                        1, int(round(gen.inner.parent_rows * factor))
                    ),
                    start=gen.inner.start,
                )
                gen = Nullable(inner, gen.null_rate)
            scaled_columns.append((name, ctype, gen))
        return TableSpec(
            name=self.name,
            columns=tuple(scaled_columns),
            row_count=rows,
        )


def populate(database, specs: Sequence[TableSpec], seed: int = 7) -> None:
    """Create and load every spec into *database* (a Database instance)."""
    for spec in specs:
        database.create_table(spec.name, spec.schema())
        database.load_rows(spec.name, spec.generate_rows(seed))
