"""Sharding of searches and audits over forked worker processes."""

from __future__ import annotations

from collections import deque
from itertools import chain, islice
from typing import Iterable, Iterator


def sharded(fn, items: Iterable, workers: int, size: int | None = None) -> Iterator:
    """fn(part) for contiguous parts of items, yielded in part order.

    With size None, items is a list cut into near-equal parts, one per
    worker, or a single part holding every item when workers <= 1 or there
    are fewer than two items per worker.  Otherwise the parts hold size
    items each (the last may hold fewer) and are drawn from items only as
    results are taken.

    With workers > 1 and at least two parts, the parts go through one
    forked pool, at most two per worker in flight, so memory does not grow
    with the number of parts; the pool is torn down after the last result,
    when a part raises, and when the consumer closes the generator early.
    Otherwise every part runs in this process.  fn must be picklable (a
    module-level function or a partial of one)."""
    if size is None:
        parts = iter(_split(items, workers))
    else:
        items = iter(items)
        parts = iter(lambda: list(islice(items, size)), [])
    head = list(islice(parts, 2))
    if workers <= 1 or len(head) < 2:
        for part in chain(head, parts):
            yield fn(part)
        return
    import multiprocessing as mp

    with mp.get_context("fork").Pool(workers) as pool:
        pending: deque = deque()
        for part in chain(head, parts):
            pending.append(pool.apply_async(fn, (part,)))
            if len(pending) >= 2 * workers:
                yield pending.popleft().get()
        while pending:
            yield pending.popleft().get()


def _split(items: list, workers: int) -> list[list]:
    if workers <= 1 or len(items) < 2 * workers:
        return [items]
    size, rem = divmod(len(items), workers)
    cuts = [i * size + min(i, rem) for i in range(workers + 1)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]
