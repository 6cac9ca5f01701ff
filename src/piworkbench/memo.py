"""How long a derived fact lives: every memo table in the package is made
by `memo` and kept until the outermost `job` ends.  Each public entry
point is a job, and a nested call joins the job it is in.  The module
imports nothing from the package, so every layer can use it.

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
import threading
from contextlib import ContextDecorator
from functools import lru_cache

_TABLES: list = []
_LOCK = threading.Lock()


def memo(fn):
    """`fn` with an unbounded table of its results, kept for the job."""
    table = lru_cache(maxsize=None)(fn)
    _TABLES.append(table)
    return table


def clear() -> None:
    """Empty every table made by `memo`."""
    for table in _TABLES:
        table.cache_clear()


class job(ContextDecorator):
    """The scope of one job, as a context manager or a decorator.  The
    outermost job pauses the cyclic collector, which would find no garbage,
    and on exit empties every memo table and restores the collector.  Jobs
    on all threads share one count; open an outer job to reuse tables."""

    depth = 0  # jobs open now, on every thread
    collector_was_on = False

    def __enter__(self) -> None:
        with _LOCK:
            if job.depth == 0:
                job.collector_was_on = gc.isenabled()
                gc.disable()
            job.depth += 1

    def __exit__(self, *exc) -> None:
        with _LOCK:
            job.depth -= 1
            if job.depth == 0:
                clear()
                if job.collector_was_on:
                    gc.enable()
