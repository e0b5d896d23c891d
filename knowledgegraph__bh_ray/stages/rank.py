"""Distributed dense rank by sort key (zip-with-sorted-index).

The building block the streamed graph-JSON exporter needs (and a generally
useful wide op Ray Data lacks): assign each row its 0-based position in the
global ``key`` sort order WITHOUT materializing the table on the driver.

Shape (the pack_sequences prefix-sum pattern, generalized to string keys):

  1. a deterministic uniform row sample (bottom-k over a process-stable
     hash of the key) gives ``num_buckets - 1`` boundary keys — the only
     driver-side state, O(sample_k);
  2. every row routes to ``bucket = searchsorted(boundaries, key)`` — an
     order-PRESERVING partition: all keys in bucket b sort before all keys
     in bucket b+1;
  3. per-bucket row counts (a ``num_buckets``-row agg) are cumsum'd on the
     driver into base offsets and broadcast once;
  4. one hash shuffle by bucket, then a per-bucket vectorized sort +
     ``arange`` + base offset.

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

from .grouped import hash_partitioned_agg

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

    def _count(d: pd.DataFrame) -> pd.DataFrame:
        if "_bucket" not in d.columns or not len(d):
            return pd.DataFrame({"_bucket": pd.Series([], dtype="int64"),
                                 "n": pd.Series([], dtype="int64")})
        out = d.groupby("_bucket", sort=False).size().rename("n").reset_index()
        out["n"] = out["n"].astype("int64")
        return out

    def _count_sum(d: pd.DataFrame) -> pd.DataFrame:
        out = d.groupby("_bucket", sort=False, as_index=False)["n"].sum()
        out["n"] = out["n"].astype("int64")
        return out

    counts = hash_partitioned_agg(
        routed.select_columns([key, "_bucket"]).map_batches(
            _count, batch_format="pandas"),
        ["_bucket"], _count_sum,
    ).to_pandas()  # ≤ num_buckets rows
    counts = counts.sort_values("_bucket", kind="mergesort")
    bucket_ids = counts["_bucket"].to_numpy(dtype="int64")
    bases = np.concatenate(
        ([0], np.cumsum(counts["n"].to_numpy(dtype="int64"))[:-1]))
    off_ref = ray.put((bucket_ids, bases))

    def _rank(group: pd.DataFrame) -> pd.DataFrame:
        empty_cols = {c: pd.Series([], dtype=object) for c in cols}
        empty_cols[rank_col] = pd.Series([], dtype="int64")
        if key not in group.columns or not len(group):
            return pd.DataFrame(empty_cols)
        ids, offs = ray.get(off_ref)
        g = group.sort_values(key, key=lambda s: s.astype(str),
                              kind="mergesort")
        base = offs[np.searchsorted(ids, int(g["_bucket"].iloc[0]))]
        out = g[cols].reset_index(drop=True)
        out[rank_col] = base + np.arange(len(g), dtype="int64")
        return out

    return (
        routed.repartition(min(num_buckets, 16))
        .groupby("_bucket")
        .map_groups(_rank, batch_format="pandas")
    )
