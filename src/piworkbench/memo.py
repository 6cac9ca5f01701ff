"""How long a derived fact lives: every memo table in the package is made
by `memo`, and `clear` empties them all.  `run_suite` clears after each
corpus term; a library caller that loops over terms calls `clear` itself.
The module imports nothing from the package, so every layer can use it.

A table is keyed only by terms that are asked about again.  A term built
to be used once, such as a transition target, gets no entry: it goes
through `normalize_transient` and `substitute_transient`, which key only
the components under its fresh spine, so no table keeps it alive.  Nor
does a state's spine, which is asked about once: `semantics.caps` and
`syntax.names` read through restriction blocks and parallel spines and
key only the components under them, and `text.render_term` keys a
restriction block once, not each of its suffixes."""

from __future__ import annotations

import gc
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


class paused_gc:
    """Context manager: the cyclic garbage collector is off inside, and
    back on after if it was on before.

    A job leaves no cyclic garbage: its hash-consed terms and memo tables
    are freed by reference counting, and the collector would only rescan
    them as they grow.  Does nothing when the collector is already off, so
    jobs nest.  The switch is process-wide: jobs that overlap on several
    threads may end one another's pause early, which costs only time."""

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc) -> None:
        if self._was_enabled:
            gc.enable()
