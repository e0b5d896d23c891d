"""Distributed PageRank over the page-link graph.

Same iterative-round shape as connected components (stages/cc.py): the edge
list materializes ONCE to the object store; each round is a reduce-side
merge (edges ⋈ ranks on src — tag, union, hash-route, vectorized pandas
merge per partition; Ray's Arrow join is avoided for the same skewed-key
reason) followed by one hash-partitioned sum per dst.  The driver holds
only scalars (iteration counter, dangling mass, node count).

Fixed iteration count (deterministic control flow); rank VALUES are float64
sums whose partition-order addition differs in final ulps across runs —
consumers that need bit-stable output should round (the query rounds to
rank_micros int64 on a scale where ulp noise vanishes).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .grouped import SIZE_DISPATCH_THRESHOLD


def pagerank_pairs(edges: pd.DataFrame, damping: float = 0.85, iters: int = 10,
                   src: str = "src_url", dst: str = "dst_url") -> pd.DataFrame:
    """Driver-side reference implementation (plain dicts) for tests."""
    nodes = sorted(set(edges[src]) | set(edges[dst]))
    n = len(nodes)
    out_deg: dict = {}
    adj: dict = {}
    for s, d in zip(edges[src], edges[dst]):
        out_deg[s] = out_deg.get(s, 0) + 1
        adj.setdefault(s, []).append(d)
    r = {v: 1.0 / n for v in nodes}
    for _ in range(iters):
        dangling = sum(r[v] for v in nodes if v not in out_deg)
        nxt = {v: (1.0 - damping) / n + damping * dangling / n for v in nodes}
        for s, ds_ in adj.items():
            share = damping * r[s] / out_deg[s]
            for d in ds_:
                nxt[d] += share
        r = nxt
    return pd.DataFrame({"url": nodes, "rank": [r[v] for v in nodes]})


def triangles_ds(edges_ds, src: str = "src_url", dst: str = "dst_url",
                 num_parts: int = 8):
    """Distinct triangles (u < v < w) of the undirected graph, DEGREE-
    ORDERED (round-2 verdict #3): each undirected edge is oriented from its
    lower-(degree, id) endpoint to the higher, and wedges are generated
    only at the LOW endpoint over its out-neighbors.  Each triangle has a
    unique degree-minimal vertex, so it is emitted exactly once, and the
    per-vertex wedge work is outdeg² under the orientation — O(√m) max out-
    degree, so one Zipfian hub of degree d no longer produces d² pairs in
    one partition (it becomes the HIGH end of almost every edge and
    generates ~no wedges; tests/test_pagerank.py pins the star case).
    Every exchange is hash-partitioned; no broadcast (the edge set is
    corpus-scale)."""
    import ray.data as rd

    from .grouped import (distinct_block, exchange, hash_partitioned_agg,
                          reduce_side_join)

    def _canon(d: pd.DataFrame) -> pd.DataFrame:
        a = d.get(src, pd.Series([], dtype=object))
        b = d.get(dst, pd.Series([], dtype=object))
        lo = np.where(np.asarray(a) < np.asarray(b), a, b) if len(d) else []
        hi = np.where(np.asarray(a) < np.asarray(b), b, a) if len(d) else []
        out = pd.DataFrame({"u": lo, "v": hi})
        return out[out["u"] != out["v"]] if len(out) else out

    from .spill import pin

    und = pin(hash_partitioned_agg(
        edges_ds.map_batches(_canon, batch_format="pandas"),
        ["u", "v"], distinct_block(["u", "v"]), num_parts=num_parts,
    ), "tri-und")

    # undirected degree per vertex (partial counts → partitioned combine)
    def _deg_rows(d: pd.DataFrame) -> pd.DataFrame:
        if "u" not in d.columns:
            return pd.DataFrame({"node": pd.Series([], dtype=object),
                                 "deg": pd.Series([], dtype="int64")})
        return pd.DataFrame({"node": pd.concat([d["u"], d["v"]], ignore_index=True),
                             "deg": np.int64(1)})

    def _deg_sum(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("node", sort=False, as_index=False)["deg"].sum()

    degs = hash_partitioned_agg(
        und.map_batches(_deg_rows, batch_format="pandas"),
        ["node"], _deg_sum, num_parts=num_parts,
    )

    def _as_lut(col: str):
        def _f(d: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"node": d.get("node", pd.Series([], dtype=object)),
                                 col: d.get("deg", pd.Series([], dtype="int64"))})
        return _f

    e_du = reduce_side_join(
        und, ["u", "v"], "u",
        degs.map_batches(_as_lut("du"), batch_format="pandas"), "node", ["du"],
        num_parts=num_parts,
    )
    e_dd = reduce_side_join(
        e_du, ["u", "v", "du"], "v",
        degs.map_batches(_as_lut("dv"), batch_format="pandas"), "node", ["dv"],
        num_parts=num_parts,
    )

    # orient low-(deg, id) → high-(deg, id); carry the high end's degree so
    # wedge pairs can be ordered without another lookup
    def _orient(d: pd.DataFrame) -> pd.DataFrame:
        if "u" not in d.columns or not len(d):
            return pd.DataFrame({"a": pd.Series([], dtype=object),
                                 "b": pd.Series([], dtype=object),
                                 "db": pd.Series([], dtype="int64")})
        du = d["du"].astype("int64")
        dv = d["dv"].astype("int64")
        lo_first = (du < dv) | ((du == dv) & (d["u"] < d["v"]))
        return pd.DataFrame({
            "a": np.where(lo_first, d["u"], d["v"]),
            "b": np.where(lo_first, d["v"], d["u"]),
            "db": np.where(lo_first, dv, du).astype("int64"),
        })

    oriented = pin(e_dd.map_batches(_orient, batch_format="pandas"), "tri-oriented")

    # wedges at the low endpoint: self-join oriented edges on 'a' within
    # each hash partition; order the out-neighbor pair by (deg, id)
    def _wedge(g: pd.DataFrame) -> pd.DataFrame:
        e = g[["a", "b", "db"]]
        m = e.merge(e, on="a", suffixes=("_1", "_2"))
        keep = (m["db_1"] < m["db_2"]) | (
            (m["db_1"] == m["db_2"]) & (m["b_1"] < m["b_2"])
        )
        m = m[keep]
        return pd.DataFrame({"third": m["a"], "x": m["b_1"], "y": m["b_2"]})

    wedges = exchange(oriented, ["a"], _wedge, num_parts)

    # closing edge: (x, y) with x ≺ y in degree order closes iff the
    # ORIENTED edge x→y exists — semi-join on the composite key
    SEP = "\x1f"

    def _wkey(d: pd.DataFrame) -> pd.DataFrame:
        if "x" not in d.columns:
            return pd.DataFrame({"third": pd.Series([], dtype=object),
                                 "x": pd.Series([], dtype=object),
                                 "y": pd.Series([], dtype=object),
                                 "xy": pd.Series([], dtype=object)})
        return d.assign(xy=d["x"].astype(str) + SEP + d["y"].astype(str))

    def _ekey(d: pd.DataFrame) -> pd.DataFrame:
        if "a" not in d.columns:
            return pd.DataFrame({"xy": pd.Series([], dtype=object)})
        return pd.DataFrame({"xy": d["a"].astype(str) + SEP + d["b"].astype(str)})

    closed = reduce_side_join(
        wedges.map_batches(_wkey, batch_format="pandas"),
        ["third", "x", "y"], "xy",
        oriented.map_batches(_ekey, batch_format="pandas"), "xy",
        how="semi", num_parts=num_parts,
    )

    # present each triangle lexicographically as (u < v < w)
    def _present(d: pd.DataFrame) -> pd.DataFrame:
        if "third" not in d.columns or not len(d):
            return pd.DataFrame({"u": pd.Series([], dtype=object),
                                 "v": pd.Series([], dtype=object),
                                 "w": pd.Series([], dtype=object)})
        tri = np.sort(
            np.column_stack([d["third"].to_numpy(dtype=object),
                             d["x"].to_numpy(dtype=object),
                             d["y"].to_numpy(dtype=object)]),
            axis=1,
        )
        return pd.DataFrame({"u": tri[:, 0], "v": tri[:, 1], "w": tri[:, 2]})

    return closed.map_batches(_present, batch_format="pandas")


def pagerank_ds(edges_ds, damping: float = 0.85, iters: int = 10,
                num_parts: int = 8, src: str = "src_url", dst: str = "dst_url",
                driver_threshold: int = SIZE_DISPATCH_THRESHOLD):
    """Dataset(src, dst) → Dataset(url, rank); see module docstring.

    Counted dispatch (same policy as stages/cc.py): the edge list is
    materialized and COUNTED; at or below ``driver_threshold`` edges the
    dict reference runs driver-side (identical math, none of the per-round
    barrier overhead), above it the distributed rounds run."""
    import ray.data as rd

    from .grouped import (distinct_block, exchange, hash_partitioned_agg,
                          reduce_side_join)

    def _both_nodes(d: pd.DataFrame) -> pd.DataFrame:
        # runs over the RENAMED edge table (src/dst)
        return pd.concat(
            [
                pd.DataFrame({"url": d.get("src", [])}),
                pd.DataFrame({"url": d.get("dst", [])}),
            ],
            ignore_index=True,
        )

    from .spill import pin

    edges = pin(edges_ds.map_batches(
        lambda d: pd.DataFrame({"src": d.get(src, []), "dst": d.get(dst, [])}),
        batch_format="pandas",
    ), "pr-edges")
    n_edges = edges.count()
    if n_edges == 0:
        return rd.from_pandas(pd.DataFrame({"url": [], "rank": []}))
    if n_edges <= driver_threshold:
        pdf = edges.to_pandas()
        return rd.from_pandas(
            pagerank_pairs(pdf, damping=damping, iters=iters, src="src", dst="dst")
        )

    nodes = pin(hash_partitioned_agg(
        edges.map_batches(_both_nodes, batch_format="pandas"),
        ["url"], distinct_block(["url"]), num_parts=num_parts,
    ), "pr-nodes")
    n = nodes.count()

    # out-degree per src (tiny vs corpus: one row per linking node)
    def _deg_rows(d: pd.DataFrame) -> pd.DataFrame:
        if "src" not in d.columns:
            return pd.DataFrame({"node": pd.Series([], dtype=object),
                                 "deg": pd.Series([], dtype="int64")})
        return pd.DataFrame({"node": d["src"], "deg": np.int64(1)})

    def _deg_sum(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("node", sort=False, as_index=False)["deg"].sum()

    degs = pin(hash_partitioned_agg(edges.map_batches(_deg_rows, batch_format="pandas"),
                                    ["node"], _deg_sum, num_parts=num_parts), "pr-degs")

    # attach degree to ranks once per round via reduce-side merge; nodes
    # with no out-edges (deg NaN) are the dangling set
    ranks = pin(nodes.map_batches(
        lambda d: pd.DataFrame({"url": d.get("url", []), "rank": 1.0 / n}),
        batch_format="pandas",
    ), "pr-ranks")

    for _ in range(iters):
        # ranks ⋈ degs on url/node (left) → share = damping * rank / deg
        rk = reduce_side_join(ranks, ["url", "rank"], "url", degs, "node", ["deg"],
                              how="left", num_parts=num_parts)
        rk = pin(rk, "pr-rk")

        # dangling mass: one tiny aggregate
        def _dang(d: pd.DataFrame) -> pd.DataFrame:
            if "deg" not in d.columns:
                return pd.DataFrame({"m": [0.0]})
            return pd.DataFrame({"m": [float(d.loc[d["deg"].isna(), "rank"].sum())]})

        dangling = float(
            rk.map_batches(_dang, batch_format="pandas").to_pandas()["m"].sum()
        )

        # contributions: edges ⋈ rk on src → (dst, damping*rank/deg)
        e_side = edges.map_batches(
            lambda d: pd.DataFrame({"k": d.get("src", []), "dst": d.get("dst", []),
                                    "rank": None, "deg": None, "_s": 0}),
            batch_format="pandas",
        )
        r_side = rk.map_batches(
            lambda d: pd.DataFrame({"k": d.get("url", []), "dst": None,
                                    "rank": d.get("rank", []), "deg": d.get("deg", []),
                                    "_s": 1}),
            batch_format="pandas",
        )

        def _contrib(g: pd.DataFrame) -> pd.DataFrame:
            le = g[g["_s"] == 0]
            ri = g[g["_s"] == 1]
            m = le[["k", "dst"]].merge(ri[["k", "rank", "deg"]], on="k", how="inner")
            share = damping * m["rank"].astype(float) / m["deg"].astype(float)
            return pd.DataFrame({"url": m["dst"], "contrib": share})

        contribs = exchange(e_side.union(r_side), ["k"], _contrib, num_parts)

        base = (1.0 - damping) / n + damping * dangling / n

        def _zero_rows(d: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"url": d.get("url", []), "contrib": 0.0})

        def _sum_contrib(d: pd.DataFrame) -> pd.DataFrame:
            return d.groupby("url", sort=False, as_index=False)["contrib"].sum()

        summed = hash_partitioned_agg(
            nodes.map_batches(_zero_rows, batch_format="pandas").union(contribs),
            ["url"], _sum_contrib, num_parts=num_parts,
        )
        ranks = pin(summed.map_batches(
            lambda d: pd.DataFrame({"url": d.get("url", []),
                                    "rank": d.get("contrib", pd.Series([], dtype=float)) + base}),
            batch_format="pandas",
        ), "pr-ranks")

    return ranks


def k_core_pairs(und: pd.DataFrame, k: int, u: str = "u", v: str = "v"):
    """Driver-side reference peel (plain pandas) for tests and the counted
    dispatch.  Input must already be DISTINCT canonical undirected pairs
    (u < v, no self-loops).  Returns ((url, core_deg) frame, rounds)."""
    e = und[[u, v]].reset_index(drop=True)
    rounds = 0
    while True:
        rounds += 1
        deg = pd.concat([e[u], e[v]], ignore_index=True).value_counts()
        alive = deg[deg >= k].index
        ne = e[e[u].isin(alive) & e[v].isin(alive)]
        if len(ne) == len(e):
            break
        e = ne.reset_index(drop=True)
        if not len(e):
            break
    deg = pd.concat([e[u], e[v]], ignore_index=True).value_counts().sort_index()
    return (
        pd.DataFrame({"url": deg.index, "core_deg": deg.values.astype("int64")}),
        rounds,
    )


def k_core_ds(edges_ds, k: int = 4, src: str = "src_url", dst: str = "dst_url",
              num_parts: int = 8, max_rounds: int = 50,
              driver_threshold: int = SIZE_DISPATCH_THRESHOLD,
              bcast_dead_threshold: int = SIZE_DISPATCH_THRESHOLD):
    """k-core of the undirected graph: iteratively peel vertices with
    degree < ``k`` until fixpoint; output ``(url, core_deg)`` for surviving
    vertices (``core_deg`` = degree inside the stable core, ≥ k by
    definition of the fixpoint).

    Same counted-dispatch policy as ``pagerank_ds`` / ``stages/cc.py``: the
    canonical edge list is materialized and COUNTED; small graphs peel
    driver-side (identical math), large ones run distributed rounds.  Each
    round computes one hash-partitioned degree count, then dispatches on
    the size of the DEAD set (deg < k — the shell being peeled, usually a
    tiny fraction of the graph after round 1): a small shell is broadcast
    via ``ray.put`` and edges incident to it are dropped in ONE shuffle-free
    vectorized filter pass; a corpus-sized shell (possible in round 1 on a
    sparse graph) falls back to two reduce-side semi-joins on the alive
    set — all exchanges hash-routed, the driver holds only count scalars.
    The edge set only ever SHRINKS (survivors re-pinned each round, so
    round r+1 scans the peeled set, not the original).  Convergence = an
    empty dead set; ``max_rounds`` bounds pathological path graphs."""
    import ray
    import ray.data as rd

    from .grouped import distinct_block, hash_partitioned_agg, reduce_side_join
    from .spill import pin

    def _canon(d: pd.DataFrame) -> pd.DataFrame:
        a = d.get(src, pd.Series([], dtype=object))
        b = d.get(dst, pd.Series([], dtype=object))
        lo = np.where(np.asarray(a) < np.asarray(b), a, b) if len(d) else []
        hi = np.where(np.asarray(a) < np.asarray(b), b, a) if len(d) else []
        out = pd.DataFrame({"u": lo, "v": hi})
        return out[out["u"] != out["v"]] if len(out) else out

    und = pin(hash_partitioned_agg(
        edges_ds.map_batches(_canon, batch_format="pandas"),
        ["u", "v"], distinct_block(["u", "v"]), num_parts=num_parts,
    ), "kcore-und")
    n_edges = und.count()
    empty = pd.DataFrame({"url": pd.Series([], dtype=object),
                          "core_deg": pd.Series([], dtype="int64")})
    if n_edges == 0:
        return rd.from_pandas(empty)
    if n_edges <= driver_threshold:
        out, _ = k_core_pairs(und.to_pandas(), k)
        return rd.from_pandas(out if len(out) else empty)

    def _deg_rows(d: pd.DataFrame) -> pd.DataFrame:
        if "u" not in d.columns:
            return pd.DataFrame({"node": pd.Series([], dtype=object),
                                 "deg": pd.Series([], dtype="int64")})
        return pd.DataFrame({"node": pd.concat([d["u"], d["v"]], ignore_index=True),
                             "deg": np.int64(1)})

    def _deg_sum(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("node", sort=False, as_index=False)["deg"].sum()

    def _degrees(e):
        return hash_partitioned_agg(
            e.map_batches(_deg_rows, batch_format="pandas"),
            ["node"], _deg_sum, num_parts=num_parts,
        )

    for _ in range(max_rounds):
        # pinned: consumed twice below (dead filter + possibly alive side),
        # and an unpinned Dataset re-executes its degree-agg DAG per consumer
        degs = pin(_degrees(und), "kcore-degs")
        dead = pin(degs.map_batches(
            lambda d: pd.DataFrame(
                {"node": d.get("node", pd.Series([], dtype=object))}
            )[np.asarray(d.get("deg", pd.Series([], dtype="int64"))) < k],
            batch_format="pandas",
        ), "kcore-dead")
        n_dead = dead.count()
        if n_dead == 0:
            break
        if n_dead <= bcast_dead_threshold:
            # shell is small: drop its incident edges in one pass
            dead_ref = ray.put(frozenset(dead.to_pandas()["node"]))

            def _drop(d: pd.DataFrame) -> pd.DataFrame:
                if "u" not in d.columns:
                    return pd.DataFrame({"u": pd.Series([], dtype=object),
                                         "v": pd.Series([], dtype=object)})
                ds_ = ray.get(dead_ref)
                keep = ~(d["u"].isin(ds_) | d["v"].isin(ds_))
                return d[keep][["u", "v"]]

            und = pin(und.map_batches(_drop, batch_format="pandas"),
                      "kcore-und")
        else:
            alive = degs.map_batches(
                lambda d: pd.DataFrame(
                    {"node": d.get("node", pd.Series([], dtype=object))}
                )[np.asarray(d.get("deg", pd.Series([], dtype="int64"))) >= k],
                batch_format="pandas",
            )
            alive = pin(alive, "kcore-alive")
            nxt = reduce_side_join(und, ["u", "v"], "u", alive, "node",
                                   how="semi", num_parts=num_parts)
            und = pin(reduce_side_join(nxt, ["u", "v"], "v", alive, "node",
                                       how="semi", num_parts=num_parts),
                      "kcore-und")
        if und.count() == 0:
            return rd.from_pandas(empty)

    def _out(d: pd.DataFrame) -> pd.DataFrame:
        if "node" not in d.columns:
            return empty
        return pd.DataFrame({"url": d["node"],
                             "core_deg": d["deg"].astype("int64")})

    return _degrees(und).map_batches(_out, batch_format="pandas")


def node_similarity_ds(edges_ds, src: str = "src_url", dst: str = "dst_url",
                       num_parts: int = 8, max_middle_degree: int | None = None,
                       deg_broadcast_threshold: int = SIZE_DISPATCH_THRESHOLD):
    """Common-neighbor Jaccard node similarity — the classic
    link-prediction / related-item feature: every node pair (a < b) that
    shares ≥1 neighbor, scored ``|N(a)∩N(b)| / |N(a)∪N(b)|`` as exact
    integer micros (floor division, so the DuckDB mirror hashes bit-for-bit).

    Shape: undirected-distinct edges (hash-partitioned distinct) → explode
    to (middle, neighbor) adjacency rows → ONE middle-hash shuffle → per-
    partition pair generation over each middle's sorted neighbor list
    (one ``triu_indices`` per distinct list size — the dedup bucket trick,
    no per-middle Python) → pair-count aggregation → degree attach.

    Degree attach is COUNTED DISPATCH (the kcore dead-shell rule): the
    degree table is node-scale while the pair table is the largest
    intermediate, so when ``count(degs) ≤ deg_broadcast_threshold`` the
    degree map is ``ray.put`` once and both endpoint degrees attach in ONE
    shuffle-free pass; above the threshold the original two reduce-side
    lookups run (no broadcast — correct when even the node set is too big
    for a worker heap).  Both paths are equality-pinned in
    tests/test_pagerank.py.

    Unlike triangle counting, the hub blowup here is SEMANTIC: a middle of
    degree d really does witness d(d-1)/2 related pairs.  For web-scale
    graphs pass ``max_middle_degree`` to drop super-hub middles (the
    standard stop-hub cut: a node linked by millions contributes ~no
    similarity signal but dominates the pair volume); the cap drops whole
    middles BEFORE pair generation, bounding per-middle work at cap²."""
    from .dedup import _bucket_layout, _intra_bucket_pairs
    from .grouped import (distinct_block, exchange, hash_partitioned_agg,
                          reduce_side_join)
    from .spill import pin

    def _canon(d: pd.DataFrame) -> pd.DataFrame:
        a = d.get(src, pd.Series([], dtype=object))
        b = d.get(dst, pd.Series([], dtype=object))
        lo = np.where(np.asarray(a) < np.asarray(b), a, b) if len(d) else []
        hi = np.where(np.asarray(a) < np.asarray(b), b, a) if len(d) else []
        out = pd.DataFrame({"u": lo, "v": hi})
        return out[out["u"] != out["v"]] if len(out) else out

    und = pin(hash_partitioned_agg(
        edges_ds.map_batches(_canon, batch_format="pandas"),
        ["u", "v"], distinct_block(["u", "v"]), num_parts=num_parts,
    ), "nsim-und")

    def _deg_rows(d: pd.DataFrame) -> pd.DataFrame:
        if "u" not in d.columns:
            return pd.DataFrame({"node": pd.Series([], dtype=object),
                                 "deg": pd.Series([], dtype="int64")})
        return pd.DataFrame({"node": pd.concat([d["u"], d["v"]], ignore_index=True),
                             "deg": np.int64(1)})

    def _deg_sum(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("node", sort=False, as_index=False)["deg"].sum()

    # pinned: degs feeds BOTH reduce-side lookups below — unpinned it would
    # re-run its shuffle DAG once per consumer (the tfidf materialize-once
    # rule); the pin is node-scale, not edge-scale
    degs = pin(hash_partitioned_agg(
        und.map_batches(_deg_rows, batch_format="pandas"),
        ["node"], _deg_sum, num_parts=num_parts,
    ), "nsim-degs")

    def _adj(d: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"m": pd.concat([d["u"], d["v"]], ignore_index=True),
             "n": pd.concat([d["v"], d["u"]], ignore_index=True)}
        )

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["m", "n"], kind="mergesort")
        starts, counts = _bucket_layout(g, ["m"])
        if max_middle_degree is not None:
            keep_rows = np.repeat(counts <= max_middle_degree, counts)
            g = g[keep_rows]
            if not len(g):
                return pd.DataFrame({"node_a": pd.Series([], dtype=object),
                                     "node_b": pd.Series([], dtype=object),
                                     "common": pd.Series([], dtype="int64")})
            starts, counts = _bucket_layout(g, ["m"])
        I, J = _intra_bucket_pairs(starts, counts)
        nb = g["n"].to_numpy()
        # neighbors ascend within each middle's run → node_a < node_b
        return pd.DataFrame({"node_a": nb[I], "node_b": nb[J],
                             "common": np.int64(1)})

    pair_rows = exchange(und, ["m"], _pairs, num_parts, map=_adj)

    def _common_sum(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby(["node_a", "node_b"], sort=False, as_index=False)["common"].sum()

    common = hash_partitioned_agg(pair_rows, ["node_a", "node_b"], _common_sum,
                                  num_parts=num_parts)

    def _empty_scored() -> pd.DataFrame:
        return pd.DataFrame({
            c: pd.Series([], dtype=object if c in ("node_a", "node_b") else "int64")
            for c in ("node_a", "node_b", "common", "deg_a", "deg_b",
                      "jaccard_micros")
        })

    def _scored(d: pd.DataFrame, c, da, db) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node_a": d["node_a"],
                "node_b": d["node_b"],
                "common": c,
                "deg_a": da,
                "deg_b": db,
                # floor division on positive ints ≡ the mirror's BIGINT //
                "jaccard_micros": (np.asarray(c) * 1_000_000)
                // (np.asarray(da) + np.asarray(db) - np.asarray(c)),
            }
        )

    if degs.count() <= deg_broadcast_threshold:
        import ray

        dpd = degs.to_pandas()
        lut_ref = ray.put(
            pd.Series(dpd.get("deg", pd.Series(dtype="int64")).to_numpy("int64"),
                      index=dpd.get("node", pd.Series(dtype=object)))
        )

        def _attach_score(d: pd.DataFrame) -> pd.DataFrame:
            if "common" not in d.columns or not len(d):
                return _empty_scored()
            lut = ray.get(lut_ref)
            return _scored(
                d,
                d["common"].astype("int64"),
                d["node_a"].map(lut).astype("int64"),
                d["node_b"].map(lut).astype("int64"),
            )

        return common.map_batches(_attach_score, batch_format="pandas")

    def _as_lut(col: str):
        def _f(d: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"node": d.get("node", pd.Series([], dtype=object)),
                                 col: d.get("deg", pd.Series([], dtype="int64"))})
        return _f

    with_da = reduce_side_join(
        common, ["node_a", "node_b", "common"], "node_a",
        degs.map_batches(_as_lut("deg_a"), batch_format="pandas"), "node", ["deg_a"],
        num_parts=num_parts,
    )
    with_db = reduce_side_join(
        with_da, ["node_a", "node_b", "common", "deg_a"], "node_b",
        degs.map_batches(_as_lut("deg_b"), batch_format="pandas"), "node", ["deg_b"],
        num_parts=num_parts,
    )

    def _score(d: pd.DataFrame) -> pd.DataFrame:
        if "common" not in d.columns or not len(d):
            return _empty_scored()
        return _scored(d, d["common"].astype("int64"),
                       d["deg_a"].astype("int64"), d["deg_b"].astype("int64"))

    return with_db.map_batches(_score, batch_format="pandas")
