"""Sharding of searches and audits over forked worker processes."""

from __future__ import annotations

from collections import deque
from itertools import chain, islice
from typing import Iterable, Iterator


def sharded(fn, items: Iterable, workers: int, size: int) -> Iterator:
    """fn(part) for contiguous parts of size items each (the last may hold
    fewer), yielded in part order; the parts are drawn from items only as
    results are taken.

    With workers > 1 and at least two parts, the parts go through one
    forked pool, at most two per worker in flight, so memory does not grow
    with the number of parts; the pool is torn down after the last result,
    when a part raises, and when the consumer closes the generator early.
    Otherwise every part runs in this process.  The workers get fn once,
    when they are forked, and each task carries only its part: the parts
    and results must be picklable, fn need not be."""
    items = iter(items)
    parts = iter(lambda: list(islice(items, size)), [])
    head = list(islice(parts, 2))
    if workers <= 1 or len(head) < 2:
        for part in chain(head, parts):
            yield fn(part)
        return
    import multiprocessing as mp

    with mp.get_context("fork").Pool(workers, _set_fn, (fn,)) as pool:
        pending: deque = deque()
        for part in chain(head, parts):
            pending.append(pool.apply_async(_call, (part,)))
            if len(pending) >= 2 * workers:
                yield pending.popleft().get()
        while pending:
            yield pending.popleft().get()


_fn = None      # a pool worker's fn, set when the worker starts


def _set_fn(fn) -> None:
    global _fn
    _fn = fn


def _call(part):
    return _fn(part)
