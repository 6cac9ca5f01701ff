"""How long a derived fact lives: every memo table in the package is made
by `memo`, and `clear` empties them all.  `run_suite` clears after each
corpus term; a library caller that loops over terms calls `clear` itself.
The module imports nothing from the package, so every layer can use it."""

from __future__ import annotations

from functools import lru_cache

_TABLES: list = []


def memo(fn):
    """`fn` with an unbounded table of its results, kept until `clear`."""
    table = lru_cache(maxsize=None)(fn)
    _TABLES.append(table)
    return table


def clear() -> None:
    """Empty every table made by `memo`."""
    for table in _TABLES:
        table.cache_clear()
