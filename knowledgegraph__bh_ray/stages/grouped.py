"""Skew-aware grouped aggregation machinery (SURVEY.md §4 "Skew / stragglers").

Web-text entity keys are Zipfian — a bare ``groupby(key)`` ships every
occurrence of the head entity to one reducer, and per-*group* Python
callbacks pay a fixed cost per distinct key.  Every wide aggregation in this
engine therefore runs as:

  1. **per-batch partial** (``map_batches``): a *vectorized* combine of the
     rows inside each Arrow batch (pandas groupby/drop_duplicates — C code,
     no per-key Python).  For dup-heavy web text this is the big volume
     reducer, and it is also the skew guard: after it, any key contributes
     at most one row per (batch, salt) — the head key's rows are already
     spread across ``salt_buckets`` logical reducers.
  2. **hash-partitioned combine**: rows are routed to ``num_parts``
     partitions by a hash of (keys, salt); ``groupby(_part).map_groups``
     fires the UDF once per *partition* (16 calls, not one per key), and
     inside the partition the same vectorized combine collapses everything.
  3. **final combine**: identical, partitioned by hash(keys) only, merging
     the per-salt rows (≤ salt_buckets per key).

The block aggregation function must be **associative + commutative** over
rows sharing a key (min-by-seq keep-first, sum-of-weight, …), which makes
the result independent of partition count, batch size and execution order —
property-tested in tests/test_invariance.py.

Partition-count note: ``num_parts``/``combine_partitions`` bound the number
of reduce tasks over *partially-aggregated* data (size ~ |keys|, not
|input|); on a multi-node cluster set them to O(cluster cores).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd

SALT_COL = "_salt"
PART_COL = "_part"

# Ray's sort-based groupby pays a fixed per-block cost (~50 ms/block in
# local mode); coalescing small datasets before a shuffle removes pure
# overhead.
DEFAULT_COMBINE_PARTITIONS = 16


def coalesced_groupby(ds, keys, num_partitions: int = DEFAULT_COMBINE_PARTITIONS):
    """repartition (cheap, no shuffle-sort) + groupby — the engine's default
    wide-aggregation entry for already-small datasets."""
    return ds.repartition(num_partitions).groupby(keys)


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


def hash_partitioned_agg(
    ds,
    keys: list[str],
    block_agg: Callable[[pd.DataFrame], pd.DataFrame],
    num_parts: int = DEFAULT_COMBINE_PARTITIONS,
):
    """One-level hash-partitioned aggregation: partial per batch, route by
    hash(keys), vectorized combine per partition.  ``block_agg(df)`` must
    collapse rows sharing ``keys`` and be associative."""

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        part = block_agg(batch)
        part[PART_COL] = (_key_hash(part, keys) % num_parts).astype("int64")
        return part

    def _combine(group: pd.DataFrame) -> pd.DataFrame:
        return block_agg(group.drop(columns=[PART_COL]))

    partials = ds.map_batches(_partial, batch_format="pandas")
    return (
        partials.repartition(num_parts)
        .groupby(PART_COL)
        .map_groups(_combine, batch_format="pandas")
    )


def salted_grouped_agg(
    ds,
    keys: list[str],
    block_agg: Callable[[pd.DataFrame], pd.DataFrame],
    salt_from: str,
    salt_buckets: int = 16,
    combine_partitions: int = DEFAULT_COMBINE_PARTITIONS,
    block_agg_salted: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
    final_route: Callable[[pd.DataFrame], np.ndarray] | None = None,
    finish: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
):
    """Three-level skew-aware aggregation; see module docstring.

    ``block_agg``: vectorized combine of rows sharing ``keys`` within a
    DataFrame.  ``block_agg_salted`` (default: same logic over
    keys+[_salt]) is used for the intermediate salted level.

    ``final_route`` (default: hash(keys) % combine_partitions) maps the
    salted level's rows to their final group; it must depend on key
    columns only, so every row of a key meets in one group.  ``finish``
    then runs once per final group on its fully-aggregated rows — a caller
    that needs its output laid out by some function of the keys (e.g. the
    subj-bucketed adjacency, pipelines/kg.py) gets it from this exchange
    instead of a second shuffle.
    """
    salted = block_agg_salted

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        part = block_agg(batch)
        # salt from the representative origin row: deterministic, and
        # different batches' partials for the same key get different salts,
        # spreading the head key across salt_buckets logical reducers
        part[SALT_COL] = _salt_of(part[salt_from], salt_buckets)
        part[PART_COL] = (_key_hash(part, keys + [SALT_COL]) % combine_partitions).astype(
            "int64"
        )
        return part

    def _combine_salted(group: pd.DataFrame) -> pd.DataFrame:
        df = group.drop(columns=[PART_COL])
        out = salted(df) if salted else block_agg(df.drop(columns=[SALT_COL]))
        if SALT_COL in out.columns:
            out = out.drop(columns=[SALT_COL])
        part = final_route(out) if final_route else _key_hash(out, keys) % combine_partitions
        out[PART_COL] = np.asarray(part).astype("int64")
        return out

    def _combine_final(group: pd.DataFrame) -> pd.DataFrame:
        out = block_agg(group.drop(columns=[PART_COL]))
        return finish(out) if finish else out

    partials = ds.map_batches(_partial, batch_format="pandas")
    level2 = (
        partials.repartition(combine_partitions)
        .groupby(PART_COL)
        .map_groups(_combine_salted, batch_format="pandas")
    )
    return (
        level2.repartition(combine_partitions)
        .groupby(PART_COL)
        .map_groups(_combine_final, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Reduce-side joins (no broadcast, no Arrow hash join)
# ---------------------------------------------------------------------------
#
# The scale fallback for vocabulary broadcasts: when the small side outgrows
# worker memory, co-locate both sides by key hash and merge per partition.
# Expressed with the same tag → union → hash-partition → vectorized-pandas
# machinery as the aggregations (Ray's Arrow hash join errors out when a
# shuffle partition receives zero rows on one side, which skewed web keys
# make routine — see stages/cc.py).


def _tagged_union(ds_left, ds_right, cols: list[str], make_left, make_right):
    def _l(d: pd.DataFrame) -> pd.DataFrame:
        return make_left(d)

    def _r(d: pd.DataFrame) -> pd.DataFrame:
        return make_right(d)

    return ds_left.map_batches(_l, batch_format="pandas").union(
        ds_right.map_batches(_r, batch_format="pandas")
    )


def reduce_side_semi_join(ds, cols: list[str], key_col: str, keys_ds, keys_col: str,
                          num_parts: int = DEFAULT_COMBINE_PARTITIONS):
    """Keep ``ds`` rows whose ``key_col`` appears in ``keys_ds[keys_col]`` —
    both sides arbitrarily large, routed by key hash, membership test
    vectorized (`isin`) per partition."""

    def _mk_data(d: pd.DataFrame) -> pd.DataFrame:
        out = {c: d.get(c, []) for c in cols}
        out["_k"] = d.get(key_col, [])
        return pd.DataFrame(out).assign(_s=0)

    def _mk_keys(d: pd.DataFrame) -> pd.DataFrame:
        out = {c: None for c in cols}
        out["_k"] = d.get(keys_col, pd.Series([], dtype=object))
        return pd.DataFrame(out).assign(_s=1)

    u = _tagged_union(ds, keys_ds, cols, _mk_data, _mk_keys)
    keyed = u.map_batches(
        lambda d: d.assign(**{PART_COL: (_key_hash(d, ["_k"]) % num_parts).astype("int64")}),
        batch_format="pandas",
    )

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        le = g[g["_s"] == 0]
        ri = g[g["_s"] == 1]
        kept = le[le["_k"].isin(ri["_k"].unique())]
        return kept[cols].reset_index(drop=True)

    return keyed.repartition(num_parts).groupby(PART_COL).map_groups(
        _merge, batch_format="pandas"
    )


def reduce_side_anti_join(ds, cols: list[str], key_col: str, keys_ds, keys_col: str,
                          num_parts: int = DEFAULT_COMBINE_PARTITIONS):
    """Keep ``ds`` rows whose ``key_col`` does NOT appear in
    ``keys_ds[keys_col]`` (NOT IN / EXCEPT shape) — both sides arbitrarily
    large; a broadcast would be corpus-sized when most rows match."""

    def _mk_data(d: pd.DataFrame) -> pd.DataFrame:
        out = {c: d.get(c, []) for c in cols}
        out["_k"] = d.get(key_col, [])
        return pd.DataFrame(out).assign(_s=0)

    def _mk_keys(d: pd.DataFrame) -> pd.DataFrame:
        out = {c: None for c in cols}
        out["_k"] = d.get(keys_col, pd.Series([], dtype=object))
        return pd.DataFrame(out).assign(_s=1)

    u = _tagged_union(ds, keys_ds, cols, _mk_data, _mk_keys)
    keyed = u.map_batches(
        lambda d: d.assign(**{PART_COL: (_key_hash(d, ["_k"]) % num_parts).astype("int64")}),
        batch_format="pandas",
    )

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        le = g[g["_s"] == 0]
        ri = g[g["_s"] == 1]
        kept = le[~le["_k"].isin(ri["_k"].unique())]
        return kept[cols].reset_index(drop=True)

    return keyed.repartition(num_parts).groupby(PART_COL).map_groups(
        _merge, batch_format="pandas"
    )


def reduce_side_lookup(ds, cols: list[str], key_col: str, lut_ds, lut_key: str,
                       lut_vals: list[str], how: str = "inner",
                       num_parts: int = DEFAULT_COMBINE_PARTITIONS,
                       salt_from: str | None = None, salt_buckets: int = 8):
    """``ds ⋈ lut`` on ``ds[key_col] == lut[lut_key]`` appending
    ``lut_vals`` columns — the distributed form of a broadcast-dict lookup.
    ``lut`` keys must be unique (a canonical map is).

    ``salt_from``: Zipf-skew guard for hot keys (a corpus-frequent term
    routes ALL its data rows to one reducer otherwise).  Data rows salt by
    ``hash(salt_from) % salt_buckets`` and route on (key, salt); the lut —
    one row per key — replicates across all salt buckets, so the hot key's
    data spreads over ``salt_buckets`` reducers at the cost of
    ``salt_buckets×`` the (small) lut."""

    def _mk_data(d: pd.DataFrame) -> pd.DataFrame:
        out = {c: d.get(c, []) for c in cols}
        out["_k"] = d.get(key_col, [])
        for v in lut_vals:
            out[v] = None
        df = pd.DataFrame(out).assign(_s=0)
        if salt_from is not None:
            df[SALT_COL] = (
                _salt_of(d[salt_from], salt_buckets)
                if len(df) and salt_from in d.columns
                else np.array([], dtype="int64")
            )
        return df

    def _mk_lut(d: pd.DataFrame) -> pd.DataFrame:
        out = {c: None for c in cols}
        out["_k"] = d.get(lut_key, pd.Series([], dtype=object))
        for v in lut_vals:
            out[v] = d.get(v, [])
        df = pd.DataFrame(out).assign(_s=1)
        if salt_from is not None:
            # replicate each lut row into every salt bucket
            n = len(df)
            df = df.loc[df.index.repeat(salt_buckets)].reset_index(drop=True)
            df[SALT_COL] = np.tile(np.arange(salt_buckets, dtype="int64"), n)
        return df

    route_cols = ["_k"] if salt_from is None else ["_k", SALT_COL]
    u = _tagged_union(ds, lut_ds, cols, _mk_data, _mk_lut)
    keyed = u.map_batches(
        lambda d: d.assign(
            **{PART_COL: (_key_hash(d, route_cols) % num_parts).astype("int64")}
        ),
        batch_format="pandas",
    )

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        le = g[g["_s"] == 0]
        ri = g[g["_s"] == 1].drop_duplicates(subset=["_k"])
        m = le[cols + ["_k"]].merge(ri[["_k"] + lut_vals], on="_k", how=how)
        return m[cols + lut_vals].reset_index(drop=True)

    return keyed.repartition(num_parts).groupby(PART_COL).map_groups(
        _merge, batch_format="pandas"
    )


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
