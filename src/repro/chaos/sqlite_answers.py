"""SQLite as the answer oracle: an independent engine holding the same rows.

:class:`SqliteAnswers` copies every table a set of databases hosts into
a stdlib ``sqlite3`` in-memory database (copies of one table on several
servers are byte-identical, so the first one is taken) and answers each
distinct SQL text once.  The chaos ``sqlite-answers`` checker and the
differential tests hold this engine's answers to it under
``rows_close_unordered``: multiset equality, NULL equal only to NULL,
floats within 1e-9 relative.

The module imports nothing outside the standard library; a database is
anything with ``catalog.table_names()`` and ``storage.table(name)``
carrying a ``schema`` and ``rows``.

Dialect.  Both engines agree on SELECT with WHERE, inner and LEFT OUTER
JOIN, GROUP BY, HAVING, DISTINCT, ORDER BY (on expressions, aliases or
output positions) and LIMIT, over INTEGER, REAL and TEXT columns, with
comparisons, ``AND`` / ``OR`` / ``NOT``, ``IS [NOT] NULL``, ``IN``,
``BETWEEN``, ``LIKE`` (case-sensitive: the copy sets ``PRAGMA
case_sensitive_like = ON``), ``+ - *`` on numbers and
COUNT / SUM / AVG / MIN / MAX.  A statement checked against it must stay
clear of where they differ:

* ``/`` on two integers: SQLite truncates, this engine does not;
* ``%`` with a negative operand: SQLite keeps the dividend's sign,
  this engine the divisor's;
* ``+`` on strings: SQLite adds their numeric prefixes, this engine
  concatenates;
* an ORDER BY key that can be NULL: NULLs sort last here, first in
  SQLite (which decides the rows a LIMIT keeps).
"""

from __future__ import annotations

import sqlite3
from typing import Dict, Iterable, List

#: Column type name (``ColumnType.value``) -> SQLite declared type.
_DECLARED = {"INT": "INTEGER", "FLOAT": "REAL", "STR": "TEXT", "BOOL": "INTEGER"}


class SqliteAnswers:
    """A ``sqlite3`` copy of the tables *databases* host."""

    def __init__(self, databases: Iterable) -> None:
        connection = sqlite3.connect(":memory:")
        connection.execute("PRAGMA case_sensitive_like = ON")
        loaded = set()
        for database in databases:
            for name in database.catalog.table_names():
                if name in loaded:
                    continue
                loaded.add(name)
                table = database.storage.table(name)
                columns = table.schema.columns
                connection.execute(
                    f"CREATE TABLE {name} ("
                    + ", ".join(
                        f"{c.name} {_DECLARED[c.ctype.value]}" for c in columns
                    )
                    + ")"
                )
                connection.executemany(
                    f"INSERT INTO {name} VALUES "
                    f"({', '.join('?' * len(columns))})",
                    table.rows,
                )
        self._connection = connection
        self._answers: Dict[str, List[tuple]] = {}

    def rows(self, sql: str) -> List[tuple]:
        """SQLite's rows for *sql*, computed on the first request."""
        rows = self._answers.get(sql)
        if rows is None:
            rows = self._answers[sql] = self._connection.execute(sql).fetchall()
        return rows
