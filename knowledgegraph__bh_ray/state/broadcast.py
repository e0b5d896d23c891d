"""Per-worker state built once from a broadcast ``ObjectRef``.

A vocabulary-sized lookup (canonical map, gazetteer trie) is ``ray.put``
once on the driver and captured by reference in a plain ``map_batches``
task function.  ``from_broadcast(ref, build)`` runs ``build(ref)`` the first
time a worker process sees ``ref`` and returns the cached result for every
later batch that carries the same ref — the load-once behaviour of an actor
pool, without starting actor processes for each build.

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
