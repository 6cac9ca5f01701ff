"""How long a derived fact lives: every memo table in the package is made
by `memo`, and `clear` empties them all.  `run_suite` clears after each
corpus term; a library caller that loops over terms calls `clear` itself.
The module imports nothing from the package, so every layer can use it.

A table is keyed only by terms that are asked about again.  A term used
once gets no entry.  A transition target is never built: its normal form
comes from its binders and pieces through `normalize_level`, and a move
substitutes into its pieces, not into a spine.  A replication unfolding
goes through `normalize_transient`.  Both key only the components, so no
table keeps a spine alive.  Nor does a state's spine, which is asked about once: `semantics.caps` and
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
