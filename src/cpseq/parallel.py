"""Independent calls run side by side on forked worker processes, one per usable core; no setting picks the count."""

from __future__ import annotations

import os
from typing import Callable, Sequence

_call: tuple[Callable, Sequence] | None = None  # the (fn, items) of the fork_map in progress, for its workers


def _run(index: int):
    fn, items = _call
    return fn(items[index])


def fork_map(fn: Callable, items: Sequence) -> list:
    """``[fn(x) for x in items]``, in order, with the calls spread over forked workers.

    Workers inherit ``fn`` and ``items`` through the fork, so only an index goes
    out and only a result, pickled with its exact bits, comes back. It runs in
    process when one worker would do and off Linux (no ``os.sched_getaffinity``;
    fork is missing on Windows and unsafe on macOS). Every worker is joined
    before this returns or raises, and a call's exception is raised again here.
    """
    global _call
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(items), cores)
    if workers <= 1:
        return [fn(x) for x in items]
    import multiprocessing  # here, not at the top: the pool's modules add 2 MB to a process that never forks
    from concurrent.futures import ProcessPoolExecutor

    _call = (fn, items)
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_run, range(len(items))))
    finally:
        _call = None
