"""Graph kernels shared by the graph operators.

PageRank, triangles, k-core and node similarity (``stages/pagerank.py``)
and connected components (``stages/cc.py``) are vertex programs written
out by hand on the engine's relational operators: ``grouped.exchange`` and
the aggregations and reduce-side joins built on it.  The pieces that recur
in that lowering live here once:

* ``undirected`` — the distinct undirected edge table, each edge pinned to
  ``u < v`` with self-loops dropped;
* ``degrees`` — a hash-partitioned count of how often each node appears;
* ``attach`` — a left lookup of each endpoint's degree: one broadcast map
  when ``grouped.plan_arm`` sizes the degree table ``local``, reduce-side
  joins otherwise;
* ``propagate`` — one message step: ``edges ⋈ state`` on src sends each
  node's value to its out-neighbours, and a hash-partitioned combine per
  node folds the messages into a base table.

Each operator keeps its own stopping rule (fixed iteration count, an
unchanged label checksum, an empty dead set, doubling depth): a shared
loop would have to take the rule as an argument, so its callers would
still hold everything it hides.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .grouped import (collect_if_local, distinct_block, hash_partitioned_agg,
                      reduce_side_join)


def undirected(edges, src: str, dst: str, num_parts: int):
    """Dataset(src, dst) → materialized Dataset(u, v): distinct undirected
    edges with ``u < v``; self-loops are dropped.  Materialized because
    every caller reads it more than once."""

    def _canon(d: pd.DataFrame) -> pd.DataFrame:
        a = d.get(src, pd.Series([], dtype=object))
        b = d.get(dst, pd.Series([], dtype=object))
        lo = np.where(np.asarray(a) < np.asarray(b), a, b) if len(d) else []
        hi = np.where(np.asarray(a) < np.asarray(b), b, a) if len(d) else []
        out = pd.DataFrame({"u": lo, "v": hi})
        return out[out["u"] != out["v"]] if len(out) else out

    return hash_partitioned_agg(
        edges.map_batches(_canon, batch_format="pandas"),
        ["u", "v"], distinct_block(["u", "v"]), num_parts=num_parts,
    ).materialize()


def degrees(ds, cols: list[str], num_parts: int):
    """Dataset(node, deg): how many times each node appears in the columns
    ``cols`` of ``ds`` (partial counts per batch, one partitioned combine).
    Over ``undirected`` edges with ``["u", "v"]`` it is the undirected
    degree; over directed edges with ``["src"]`` the out-degree."""

    def _rows(d: pd.DataFrame) -> pd.DataFrame:
        if cols[0] not in d.columns:
            return pd.DataFrame({"node": pd.Series([], dtype=object),
                                 "deg": pd.Series([], dtype="int64")})
        return pd.DataFrame({"node": pd.concat([d[c] for c in cols], ignore_index=True),
                             "deg": np.int64(1)})

    def _sum(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("node", sort=False, as_index=False)["deg"].sum()

    return hash_partitioned_agg(ds.map_batches(_rows, batch_format="pandas"),
                                ["node"], _sum, num_parts=num_parts)


def attach(ds, cols: list[str], on: list[str], degs, as_cols: list[str],
           num_parts: int):
    """``ds`` (columns ``cols``) plus, for each column of ``on``, the ``deg``
    of the matching ``degs(node, deg)`` row as the paired column of
    ``as_cols`` (missing where no row matches).

    When ``grouped.collect_if_local`` sizes the materialized ``degs``
    ``local`` it is ``ray.put`` once and every lookup runs in one
    shuffle-free map; otherwise each lookup is a
    ``reduce_side_join(how="left")`` — correct when even the node set is
    too big for a worker heap."""
    table = collect_if_local(degs)
    if table is None:
        for c, a in zip(on, as_cols):
            lut = degs.map_batches(
                lambda d, a=a: pd.DataFrame({"node": d.get("node", pd.Series([], dtype=object)),
                                             a: d.get("deg", pd.Series([], dtype="int64"))}),
                batch_format="pandas",
            )
            ds = reduce_side_join(ds, cols, c, lut, "node", [a], how="left",
                                  num_parts=num_parts)
            cols = cols + [a]
        return ds

    import ray

    lut_ref = ray.put(
        pd.Series(table.get("deg", pd.Series(dtype="int64")).to_numpy("int64"),
                  index=table.get("node", pd.Series(dtype=object)))
    )

    def _lookup(d: pd.DataFrame) -> pd.DataFrame:
        if on[0] not in d.columns:
            return d
        lut = ray.get(lut_ref)
        return d[cols].assign(**{a: d[c].map(lut) for c, a in zip(on, as_cols)})

    return ds.map_batches(_lookup, batch_format="pandas")


def propagate(edges, state, val: str, combine: str, base, num_parts: int):
    """One message step over directed ``edges(src, dst)``: each
    ``state(node, val)`` row sends ``val`` to the node's out-neighbours
    (a reduce-side join on src), then ``base(node, val)`` and the messages
    are combined per node with the pandas reduction ``combine`` ("min",
    "sum") in one hash-partitioned aggregation → Dataset(node, val).
    A node that appears only in ``state`` and in no edge sends nothing."""
    msgs = reduce_side_join(
        edges.map_batches(
            lambda d: pd.DataFrame({"node": d.get("dst", []), "src": d.get("src", [])}),
            batch_format="pandas",
        ),
        ["node"], "src", state, "node", [val], num_parts=num_parts,
    )

    def _combine(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("node", sort=False, as_index=False)[val].agg(combine)

    return hash_partitioned_agg(base.union(msgs), ["node"], _combine,
                                num_parts=num_parts)
