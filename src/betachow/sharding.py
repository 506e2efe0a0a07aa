"""Sharding of searches and audits over forked worker processes."""

from __future__ import annotations


def sharded(fn, items: list, workers: int) -> list:
    """[fn(chunk) for each chunk] over contiguous, near-equal chunks of items,
    one per forked worker, in chunk order; a single chunk holding every item
    when workers <= 1 or there are fewer than two items per worker.  fn must
    be picklable (a module-level function or a partial of one)."""
    if workers <= 1 or len(items) < 2 * workers:
        return [fn(items)]
    import multiprocessing as mp

    size, rem = divmod(len(items), workers)
    cuts = [i * size + min(i, rem) for i in range(workers + 1)]
    with mp.get_context("fork").Pool(workers) as pool:
        return pool.map(fn, [items[a:b] for a, b in zip(cuts, cuts[1:])])
