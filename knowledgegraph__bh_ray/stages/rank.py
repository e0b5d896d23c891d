"""Distributed dense rank by sort key (zip-with-sorted-index).

The building block the streamed graph-JSON exporter needs (and a generally
useful wide op Ray Data lacks): assign each row its 0-based position in the
global ``key`` sort order WITHOUT materializing the table on the driver.

Shape (the pack_sequences prefix-sum pattern, generalized to string keys;
both run on ``prefix_offsets`` below):

  1. a deterministic uniform row sample (bottom-k over a process-stable
     hash of the key) gives ``num_buckets - 1`` boundary keys — the only
     driver-side state, O(sample_k);
  2. every row routes to ``bucket = searchsorted(boundaries, key)`` — an
     order-PRESERVING partition: all keys in bucket b sort before all keys
     in bucket b+1;
  3. per-bucket row counts (a ``num_buckets``-row agg) are cumsum'd on the
     driver into base offsets and broadcast once;
  4. one ``exchange`` by bucket; each partition sorts its rows once and
     ranks every bucket routed to it: within-bucket position + base offset.

Rank correctness is boundary-independent (the sample only balances bucket
sizes); equality vs a serial argsort is pytested and the ``sorted_rank``
registry query mirrors it against SQL ``row_number() OVER (ORDER BY key)``.
Keys must be unique (dense rank of unique keys ≡ row_number); ties would
make row_number order-dependent and therefore non-deterministic anyway.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

from .grouped import exchange, hash_partitioned_agg

DEFAULT_SAMPLE_K = 4096


def _bottom_k_keys(ds, key: str, k: int) -> np.ndarray:
    """Deterministic uniform k-sample of ``key`` values: bottom-k over the
    process-stable siphash of the key string (associative per-batch
    partials — the sample_uniform bottom-k sketch, keyed by value hash)."""

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        keys = batch[key].astype(str)
        draw = pd.util.hash_pandas_object(keys, index=False).to_numpy()
        out = pd.DataFrame({"_key": keys.to_numpy(), "_draw": draw})
        return out.nsmallest(k, "_draw") if len(out) > k else out

    # ≤ k×blocks tiny rows — driver-sized by construction (the same
    # cap-gated collect as every other sketch combine in this repo)
    df = ds.map_batches(_partial, batch_format="pandas").to_pandas()
    if not len(df):
        return np.array([], dtype=object)
    df = df.nsmallest(k, "_draw")
    return np.sort(df["_key"].to_numpy())


def attach_sorted_rank(ds, key: str, rank_col: str = "rank",
                       num_buckets: int = 16,
                       sample_k: int = DEFAULT_SAMPLE_K):
    """Append ``rank_col`` = the row's 0-based position in the global
    ascending ``key`` order.  Keys must be unique.  Returns a Dataset with
    the original columns plus ``rank_col`` (int64)."""
    sample = _bottom_k_keys(ds, key, sample_k)
    if len(sample) >= num_buckets:
        idx = np.linspace(0, len(sample) - 1, num_buckets + 1).astype(int)[1:-1]
        boundaries = sample[idx]
    else:
        boundaries = np.array([], dtype=object)
    b_ref = ray.put(list(boundaries))

    cols = [c for c in ds.schema().names]

    def _route(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        if not len(out):
            out["_bucket"] = pd.Series([], dtype="int64")
            return out
        bounds = ray.get(b_ref)
        keys = out[key].astype(str).to_numpy()
        out["_bucket"] = (
            np.searchsorted(np.asarray(bounds, dtype=object), keys,
                            side="right").astype("int64")
            if len(bounds) else np.zeros(len(out), dtype="int64")
        )
        return out

    routed = ds.map_batches(_route, batch_format="pandas").materialize()

    def _emit(g: pd.DataFrame, offset: np.ndarray) -> pd.DataFrame:
        out = g[cols].reset_index(drop=True)
        out[rank_col] = offset
        return out

    return prefix_offsets(
        routed, "_bucket",
        order=lambda g: g.sort_values(key, key=lambda s: s.astype(str), kind="mergesort"),
        emit=_emit, num_parts=min(num_buckets, 16),
    )


def prefix_offsets(ds, bucket_col: str, order, emit, weight_col: str | None = None,
                   num_parts: int = 16):
    """Global exclusive prefix sum of ``weight_col`` (1 per row when
    ``None``) over an order-preserving partition: bucket ids ascend with
    the global order, so every row of bucket b precedes every row of
    bucket b+1.

      1. bucket totals: one hash-partitioned agg, ≤ |buckets| rows,
         collected and turned into each bucket's base offset (the
         exclusive prefix over ascending ids) on the driver, broadcast once;
      2. one ``exchange`` by bucket: each partition sorts its rows with
         ``order(df)`` and calls ``emit(sorted_df, offset)`` once, where a
         row's offset is its bucket's base plus the exclusive sum of the
         weights before it in its bucket — for every bucket routed there.

    ``attach_sorted_rank`` uses weight 1 (offset = rank);
    ``pack_sequences_ds`` uses each doc's token count (offset = the doc's
    first token)."""

    def _total(d: pd.DataFrame) -> pd.DataFrame:
        if "_w" not in d.columns:  # raw rows: this batch's weights
            w = d[weight_col] if weight_col else np.int64(1)
            d = pd.DataFrame({bucket_col: d[bucket_col], "_w": w})
        out = d.groupby(bucket_col, sort=False, as_index=False)["_w"].sum()
        out["_w"] = out["_w"].astype("int64")
        return out

    totals = hash_partitioned_agg(
        ds.select_columns([bucket_col] + ([weight_col] if weight_col else [])),
        [bucket_col], _total, num_parts,
    ).to_pandas()  # ≤ |buckets| rows
    totals = totals.sort_values(bucket_col, kind="mergesort")
    ids = totals[bucket_col].to_numpy(dtype="int64")
    bases = np.concatenate(([0], np.cumsum(totals["_w"].to_numpy(dtype="int64"))[:-1]))
    off_ref = ray.put((ids, bases))

    def _offsets(df: pd.DataFrame) -> pd.DataFrame:
        ids, bases = ray.get(off_ref)
        g = order(df)
        b = g[bucket_col].to_numpy(dtype="int64")
        w = (g[weight_col].to_numpy(dtype="int64") if weight_col
             else np.ones(len(g), dtype="int64"))
        before = pd.Series(w).groupby(b, sort=False).cumsum().to_numpy() - w
        return emit(g, bases[np.searchsorted(ids, b)] + before)

    return exchange(ds, [bucket_col], _offsets, num_parts)
