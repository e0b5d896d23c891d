"""Keyed exchange and size-planned grouped aggregation (SURVEY.md §4 "Skew /
stragglers").

``exchange`` is the engine's only keyed shuffle: every hash-partitioned
aggregation, reduce-side join, per-key window and per-key merge in the
package routes rows through it, so how a keyed exchange runs on Ray is
decided here and nowhere else.  ``reduce_side_join`` (inner / left / semi /
anti) and the aggregations below are built on it.  A caller's reduce runs
once per *partition* and handles every key routed there — vectorized
where the op allows (top-k merge, prefix offsets, quantile walk), a loop
over ``df.groupby(key, sort=False)`` where the work is per key by nature
(blocked pair verification, SemDeDup's greedy pass).

The wide ops that stay outside are keyless: the global ``Dataset.sort``
behind sorted top-k (``bigram_top_ds``, ``top_parts_ds``, the graph-JSON
streamer), ``Dataset.unique``, the seeded ``random_shuffle`` sample, and
the ``repartition(1)`` merges of driver-sized sketches.  ``plan_arm`` below
is the one size dispatch, not a shuffle: every driver-or-distributed choice
in the package asks it, the graph and text operators through
``collect_if_local``.

Web-text entity keys are Zipfian — a bare ``groupby(key)`` ships every
occurrence of the head entity to one reducer, and per-*group* Python
callbacks pay a fixed cost per distinct key.  ``salted_grouped_agg``
therefore has two physical plans, picked per call by ``plan_arm``:

* **salted** (no size estimate, or a large input) — three levels:

  1. **per-batch partial** (``map_batches``): a *vectorized* combine of the
     rows inside each Arrow batch (pandas groupby/drop_duplicates — C code,
     no per-key Python).  For dup-heavy web text this is the big volume
     reducer, and it is also the skew guard: after it, any key contributes
     at most one row per (batch, salt) — the head key's rows are already
     spread across ``salt_buckets`` logical reducers.
  2. **hash-partitioned combine**: ``exchange`` routes rows to
     ``num_parts`` partitions by a hash of (keys, salt) and fires the UDF
     once per *partition* (16 calls, not one per key); inside the
     partition the same vectorized combine collapses everything.
  3. **final combine**: identical, partitioned by hash(keys) only, merging
     the per-salt rows (≤ salt_buckets per key).

* **local** (the caller's ``SizeEstimate`` is within ``plan_arm``'s
  measured row and heap bounds): the same per-batch partial as map tasks,
  streamed to the driver, which combines once, runs ``finish`` and returns
  the ``pandas.DataFrame``.  No salt, shuffle, barrier or combine task:
  they cost more than the combine (PERF.md rounds 9 and 14).

The block aggregation function must be **associative + commutative** over
rows sharing a key (min-by-seq keep-first, sum-of-weight, …), which makes
the result independent of the arm, partition count, batch size and
execution order — property-tested in tests/test_invariance.py.

Partition-count note: ``num_parts`` bounds the number of reduce tasks over
*partially-aggregated* data (size ~ |keys|, not |input|); on a multi-node
cluster set it to O(cluster cores).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pandas as pd

SALT_COL = "_salt"
PART_COL = "_part"

# Ray's sort-based groupby pays a fixed per-block cost (~50 ms/block in
# local mode); coalescing small datasets before a shuffle removes pure
# overhead.
DEFAULT_COMBINE_PARTITIONS = 16

# The ``local`` arm's bounds, measured on the resume units at 4 CPUs
# (PERF.md round 10).  Rows: the local plan beat the salted one at every
# size tried, up to 4.2M raw triples and 5.3M node occurrences, its lead
# shrinking as the input grew; the cap is the largest size tried on both
# units, not a crossover.  Heap: the combining process's peak per Parquet
# uncompressed byte of its input, when the partials are as large as the
# input — the pandas frame with no string shared (9.0× on the triples
# column) plus the sort and dedup copies (3.1×).
LOCAL_AGG_MAX_ROWS = 4_000_000
LOCAL_AGG_HEAP_PER_BYTE = 12


class SizeEstimate(NamedTuple):
    """An aggregation input's size, known before it runs (the resume
    pipeline reads it from the checkpoint's Parquet footers): rows and
    uncompressed bytes."""

    rows: int
    bytes: int


def plan_arm(est: SizeEstimate | None) -> str:
    """The package's one driver-or-distributed choice, for an input of size
    ``est`` (``salted_grouped_agg``'s plan, and every graph and text
    operator's through ``collect_if_local``): ``"local"`` when it has at
    most ``LOCAL_AGG_MAX_ROWS`` rows and the driver's projected peak heap
    (``est.bytes`` × ``LOCAL_AGG_HEAP_PER_BYTE``) is at most a quarter of
    the smallest live node's object store — the driver holds the whole
    input in one process, so the cluster total says nothing about it —
    else ``"salted"`` (distributed).  No estimate means ``"salted"``."""
    if est is None:
        return "salted"
    import ray

    node_store = min(
        (n["Resources"].get("object_store_memory", 0) for n in ray.nodes() if n["Alive"]),
        default=0,
    )
    if est.rows <= LOCAL_AGG_MAX_ROWS and est.bytes * LOCAL_AGG_HEAP_PER_BYTE <= node_store / 4:
        return "local"
    return "salted"


def collect_if_local(ds) -> pd.DataFrame | None:
    """``ds`` as a driver-side frame when ``plan_arm`` sizes it ``"local"``
    (the caller runs its driver-side path or broadcasts the frame), else
    ``None`` (the caller takes its distributed path).  The size comes from
    block metadata, so no Ray job runs; unknown bytes mean no estimate.  An
    empty ``ds`` may come back as a frame with no columns.  ``ds`` must be
    materialized: a lazy one would execute once to size, again to collect."""
    from ray.data.dataset import MaterializedDataset

    if not isinstance(ds, MaterializedDataset):
        raise TypeError(f"collect_if_local needs a materialized Dataset, "
                        f"got {type(ds).__name__}")
    size = ds.size_bytes()
    est = None if size is None else SizeEstimate(ds.count(), size)
    return ds.to_pandas() if plan_arm(est) == "local" else None


def _key_hash(df: pd.DataFrame, cols: list[str]) -> pd.Series:
    """Fast vectorized row hash of key columns (load-balancing only — the
    aggregation result never depends on partition assignment)."""
    s = df[cols[0]].astype(str)
    for c in cols[1:]:
        s = s + "\x1f" + df[c].astype(str)
    return pd.util.hash_pandas_object(s, index=False)


def _salt_of(values, salt_buckets: int) -> np.ndarray:
    """Vectorized deterministic salt: process-stable siphash of the string
    value, mod ``salt_buckets``.  Assignment only spreads a hot key over
    logical reducers — the aggregation result is salt-invariant by
    construction (property-tested in tests/test_invariance.py), so the
    hash family is a pure load-balancing choice."""
    s = pd.Series(values).astype(str)
    return (
        (pd.util.hash_pandas_object(s, index=False) % salt_buckets)
        .to_numpy()
        .astype("int64")
    )


def exchange(
    ds,
    by: list[str] | Callable[[pd.DataFrame], np.ndarray],
    reduce: Callable[[pd.DataFrame], pd.DataFrame],
    num_parts: int = DEFAULT_COMBINE_PARTITIONS,
    map: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
):
    """The engine's one keyed shuffle: every row lands in partition
    ``hash(by) % num_parts`` (or ``by(df)`` when ``by`` is a callable
    returning partition ids), then ``reduce`` runs once per partition on
    all of its rows.

    ``map`` (optional) transforms each batch first, in the same
    ``map_batches`` UDF that computes the route column.  ``reduce`` never
    sees the route column and never an empty frame: zero-row batches carry
    no rows into any partition, and column-less ones (empty passthrough
    blocks) skip ``map`` entirely.

    The route is a sort-based ``groupby(_part).map_groups``, not Ray's
    Arrow hash join, which fails when a shuffle partition gets zero rows
    on one side (PERF.md round 2)."""

    def _route(batch: pd.DataFrame) -> pd.DataFrame:
        out = map(batch) if map is not None and len(batch.columns) else batch
        return _with_route(out, by, num_parts)

    return _shuffle(ds.map_batches(_route, batch_format="pandas"), reduce, num_parts)


def _with_route(out: pd.DataFrame, by, num_parts: int) -> pd.DataFrame:
    """``out`` plus the partition-id column ``exchange`` routes on."""
    if not len(out):
        part = np.zeros(0, dtype="int64")
    elif callable(by):
        part = by(out)
    else:
        part = _key_hash(out, by) % num_parts
    # insert, not setitem: setitem warns on a masked slice from ``map``
    out.insert(len(out.columns), PART_COL, np.asarray(part).astype("int64"))
    return out


def _shuffle(routed, reduce, num_parts: int):
    """The shuffle half of ``exchange``: rows that already carry the route
    column meet in their partition, where ``reduce`` runs without it."""

    def _reduce(group: pd.DataFrame) -> pd.DataFrame:
        return reduce(group.drop(columns=[PART_COL]))

    return (
        routed.repartition(num_parts)
        .groupby(PART_COL)
        .map_groups(_reduce, batch_format="pandas")
    )


def hash_partitioned_agg(
    ds,
    keys: list[str],
    block_agg: Callable[[pd.DataFrame], pd.DataFrame],
    num_parts: int = DEFAULT_COMBINE_PARTITIONS,
):
    """One-level hash-partitioned aggregation: partial per batch, route by
    hash(keys), vectorized combine per partition.  ``block_agg(df)`` must
    collapse rows sharing ``keys`` and be associative."""
    return exchange(ds, keys, block_agg, num_parts, map=block_agg)


def salted_grouped_agg(
    ds,
    keys: list[str],
    block_agg: Callable[[pd.DataFrame], pd.DataFrame],
    salt_from: str,
    salt_buckets: int = 16,
    final_route: Callable[[pd.DataFrame], np.ndarray] | None = None,
    finish: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
    est: SizeEstimate | None = None,
):
    """Skew-aware aggregation on the arm ``plan_arm(est)`` picks; see the
    module docstring.

    ``block_agg``: vectorized combine of rows sharing ``keys`` within a
    DataFrame; every level runs it (the salted level without the salt
    column).

    ``final_route`` (default: hash(keys) % DEFAULT_COMBINE_PARTITIONS)
    maps the salted level's rows to their final group; it must depend on key
    columns only, so every row of a key meets in one group.  ``finish``
    then runs once per final group on its fully-aggregated rows — a caller
    that needs its output laid out by some function of the keys (e.g. the
    subj-bucketed adjacency, pipelines/kg.py) gets it from this exchange
    instead of a second shuffle.  The ``local`` arm returns the driver-side
    frame instead of a Dataset, ``finish`` run once on all of it
    (``final_route`` is not needed there; no partial gives no columns).
    """
    if plan_arm(est) == "local":
        return _local_agg(ds, block_agg, finish)

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        part = block_agg(batch)
        # salt from the representative origin row: deterministic, and
        # different batches' partials for the same key get different salts,
        # spreading the head key across salt_buckets logical reducers
        part[SALT_COL] = _salt_of(part[salt_from], salt_buckets)
        return part

    def _combine_salted(df: pd.DataFrame) -> pd.DataFrame:
        out = block_agg(df.drop(columns=[SALT_COL]))
        # route for the final level inside this UDF: a separate route
        # stage after map_groups costs ~0.1 s per aggregation (PERF.md
        # round 7)
        return _with_route(out, final_route or keys, DEFAULT_COMBINE_PARTITIONS)

    def _combine_final(df: pd.DataFrame) -> pd.DataFrame:
        out = block_agg(df)
        return finish(out) if finish else out

    level2 = exchange(ds, keys + [SALT_COL], _combine_salted,
                      DEFAULT_COMBINE_PARTITIONS, map=_partial)
    return _shuffle(level2, _combine_final, DEFAULT_COMBINE_PARTITIONS)


def _local_agg(ds, block_agg, finish) -> pd.DataFrame:
    """The ``local`` arm.  Column-less batches (empty passthrough blocks)
    skip ``block_agg``, as in ``exchange``."""

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        return block_agg(batch) if len(batch.columns) else batch

    out = ds.map_batches(_partial, batch_format="pandas").to_pandas()
    if not len(out.columns):
        return out
    out = block_agg(out)
    return finish(out) if finish else out


# ---------------------------------------------------------------------------
# Reduce-side join (no broadcast, no Arrow hash join)
# ---------------------------------------------------------------------------


def reduce_side_join(ds, cols: list[str], key_col: str, other_ds, other_key: str,
                     vals=(), how: str = "inner",
                     num_parts: int = DEFAULT_COMBINE_PARTITIONS,
                     salt_from: str | None = None, salt_buckets: int = 8):
    """``ds`` joined to ``other_ds`` on ``ds[key_col] == other_ds[other_key]``,
    both sides arbitrarily large: the scale fallback for vocabulary
    broadcasts.  Both sides are tagged, unioned and co-located by key hash
    through one ``exchange``; each partition merges in vectorized pandas.

    ``how``:
      * ``"inner"`` / ``"left"`` — ``cols`` plus the ``vals`` columns of the
        matching ``other_ds`` row (the distributed form of a broadcast-dict
        lookup); ``other_ds`` keys must be unique (a canonical map is);
      * ``"semi"`` / ``"anti"`` — the ``cols`` of rows whose key does /
        does NOT appear in ``other_ds`` (IN / NOT IN).

    ``salt_from``: Zipf-skew guard for hot keys (a corpus-frequent term
    routes ALL its ``ds`` rows to one reducer otherwise).  ``ds`` rows salt
    by ``hash(salt_from) % salt_buckets`` and route on (key, salt); each
    ``other_ds`` row replicates across all salt buckets, so the hot key's
    rows spread over ``salt_buckets`` reducers at the cost of
    ``salt_buckets×`` the (small) other side."""
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"unknown join type {how!r}")
    vals = list(vals)

    def _side(d: pd.DataFrame, key: str, s: int) -> pd.DataFrame:
        # side 0 (ds) carries cols, side 1 (other_ds) carries vals
        out = {c: d.get(c, []) if s == 0 else None for c in cols}
        out["_k"] = d.get(key, pd.Series([], dtype=object))
        out.update({v: d.get(v, []) if s == 1 else None for v in vals})
        return pd.DataFrame(out).assign(_s=s)

    def _data(d: pd.DataFrame) -> pd.DataFrame:
        df = _side(d, key_col, 0)
        if salt_from is not None:
            df[SALT_COL] = (
                _salt_of(d[salt_from], salt_buckets)
                if len(df) and salt_from in d.columns
                else np.array([], dtype="int64")
            )
        return df

    def _other(d: pd.DataFrame) -> pd.DataFrame:
        df = _side(d, other_key, 1)
        if salt_from is not None:
            # replicate each row into every salt bucket
            n = len(df)
            df = df.loc[df.index.repeat(salt_buckets)].reset_index(drop=True)
            df[SALT_COL] = np.tile(np.arange(salt_buckets, dtype="int64"), n)
        return df

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        le = g[g["_s"] == 0]
        ri = g[g["_s"] == 1]
        if how in ("semi", "anti"):
            hit = le["_k"].isin(ri["_k"].unique())
            return le[hit if how == "semi" else ~hit][cols].reset_index(drop=True)
        ri = ri.drop_duplicates(subset=["_k"])
        m = le[cols + ["_k"]].merge(ri[["_k"] + vals], on="_k", how=how)
        return m[cols + vals].reset_index(drop=True)

    tagged = ds.map_batches(_data, batch_format="pandas").union(
        other_ds.map_batches(_other, batch_format="pandas")
    )
    by = ["_k"] if salt_from is None else ["_k", SALT_COL]
    return exchange(tagged, by, _merge, num_parts)


# ---------------------------------------------------------------------------
# Stock vectorized block aggregations
# ---------------------------------------------------------------------------


def keep_first_block(keys: list[str], order_col: str):
    """Vectorized keep-first: min-``order_col`` row per key (associative)."""

    def _agg(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(order_col, kind="mergesort")
            .drop_duplicates(subset=keys, keep="first")
            .reset_index(drop=True)
        )

    return _agg


def count_first_block(keys: list[str], order_col: str, weight_col: str = "weight"):
    """Vectorized count+first: per key, ``weight`` = summed occurrence count
    (rows without a weight column count 1 each) and representative fields
    from the min-``order_col`` row.  Associative across levels."""

    def _agg(df: pd.DataFrame) -> pd.DataFrame:
        if weight_col not in df.columns:
            df = df.assign(**{weight_col: np.int64(1)})
        w = df.groupby(keys, sort=False)[weight_col].sum()
        rep = (
            df.sort_values(order_col, kind="mergesort")
            .drop_duplicates(subset=keys, keep="first")
            .set_index(keys)
        )
        rep[weight_col] = w
        return rep.reset_index()

    return _agg


def distinct_block(keys: list[str]):
    """Vectorized distinct-by-keys (keeps the first seen row arbitrarily —
    use only when non-key columns are equal within a key)."""

    def _agg(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(subset=keys).reset_index(drop=True)

    return _agg
