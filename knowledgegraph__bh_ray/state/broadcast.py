"""Per-worker state built once from a broadcast ``ObjectRef``.

A stage's state (node-id set, canonical map, gazetteer vocabulary, pattern
rules, CRF weights) is ``ray.put`` once on the driver and captured by
reference in a plain ``map_batches`` task function (``broadcast_map``).
``from_broadcast(ref, build)`` runs ``build(ref)`` the first time a worker
process sees ``ref`` and returns the cached result for every later batch
that carries the same ref — the load-once behaviour of an actor pool,
without starting actor processes for each build.

The cache holds ONE entry per ``build``: a batch carrying a different ref
(the next build's vocabulary) rebuilds and replaces it, so a worker keeps at
most one vocabulary of each kind and never serves a stale one.  The entry
is keyed by the ref's object id, not the ref itself, so the cache does not
pin the old object in the store.  ``build`` must be a module-level callable
(a class or function pickled by reference), so every task that names it
hits the same cache slot.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import ray

T = TypeVar("T")

_CACHE: dict = {}  # build -> (object id bytes, built value)


def from_broadcast(ref, build: Callable[..., T]) -> T:
    """``build(ref)``, computed at most once per worker for each ref."""
    key = ref.binary()
    hit = _CACHE.get(build)
    if hit is not None and hit[0] == key:
        return hit[1]
    value = build(ref)
    _CACHE[build] = (key, value)
    return value


def broadcast_map(ds, state, build, batch_size: int | None = None):
    """ds → ``from_broadcast(ref, build)(batch)`` for every batch, in plain
    map tasks, with ``state`` put once as ``ref``.  No actor pool: starting
    pool actors (state fetch + setup per actor, new processes every build)
    cost more than the work itself, and a plain task fuses with the
    upstream read instead of competing with it for CPU slots."""
    ref = ray.put(state)

    def _apply(batch):
        return from_broadcast(ref, build)(batch)

    return ds.map_batches(_apply, batch_format="pandas", batch_size=batch_size)
