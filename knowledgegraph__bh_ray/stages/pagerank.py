"""Distributed PageRank, triangles, k-core and node similarity over the
page-link graph, written on the shared graph kernels of
``stages/graphops.py``.

PageRank has the same iterative-round shape as connected components
(stages/cc.py): the edge list materializes ONCE to the object store; each
round attaches out-degrees to the ranks (a reduce-side left join), then one
``graphops.propagate`` step sends ``damping * rank / deg`` along every edge
and sums the shares per destination.  Ray's Arrow join is avoided for the
same skewed-key reason as in cc.py.  The driver holds only scalars
(iteration counter, dangling mass, node count).

Fixed iteration count (deterministic control flow); rank VALUES are float64
sums whose partition-order addition differs in final ulps across runs —
consumers that need bit-stable output should round (the query rounds to
rank_micros int64 on a scale where ulp noise vanishes).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .graphops import attach, degrees, propagate, undirected
from .grouped import collect_if_local


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
    Every edge-scale exchange is hash-partitioned; the node-scale degrees
    attach through ``graphops.attach``, as in node similarity."""
    from .grouped import exchange, reduce_side_join

    und = undirected(edges_ds, src, dst, num_parts)
    # materialized: both endpoint lookups read it
    degs = degrees(und, ["u", "v"], num_parts).materialize()
    e_dd = attach(und, ["u", "v"], ["u", "v"], degs, ["du", "dv"], num_parts)

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

    oriented = e_dd.map_batches(_orient, batch_format="pandas").materialize()

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
                num_parts: int = 8, src: str = "src_url", dst: str = "dst_url"):
    """Dataset(src, dst) → Dataset(url, rank); see module docstring.

    Same dispatch as stages/cc.py: when ``grouped.collect_if_local`` sizes
    the materialized edge list ``local`` the dict reference runs
    driver-side (identical math, no per-round barriers), otherwise the
    distributed rounds run."""
    import ray.data as rd

    from .grouped import reduce_side_join

    edges = edges_ds.map_batches(
        lambda d: pd.DataFrame({"src": d.get(src, []), "dst": d.get(dst, [])}),
        batch_format="pandas",
    ).materialize()
    small = collect_if_local(edges)
    if small is not None:
        if not len(small):
            return rd.from_pandas(pd.DataFrame({"url": [], "rank": []}))
        return rd.from_pandas(
            pagerank_pairs(small, damping=damping, iters=iters, src="src", dst="dst")
        )

    # the node set: every endpoint, one row each
    nodes = degrees(edges, ["src", "dst"], num_parts).materialize()
    n = nodes.count()
    # out-degree per src (tiny vs corpus: one row per linking node)
    degs = degrees(edges, ["src"], num_parts).materialize()

    # attach degree to ranks once per round via reduce-side merge; nodes
    # with no out-edges (deg NaN) are the dangling set
    ranks = nodes.map_batches(
        lambda d: pd.DataFrame({"url": d.get("node", []), "rank": 1.0 / n}),
        batch_format="pandas",
    ).materialize()
    zeros = nodes.map_batches(
        lambda d: pd.DataFrame({"node": d.get("node", []), "share": 0.0}),
        batch_format="pandas",
    )

    # dangling mass: one tiny aggregate
    def _dang(d: pd.DataFrame) -> pd.DataFrame:
        if "deg" not in d.columns:
            return pd.DataFrame({"m": [0.0]})
        return pd.DataFrame({"m": [float(d.loc[d["deg"].isna(), "rank"].sum())]})

    # what each node sends along each of its out-edges
    def _share(d: pd.DataFrame) -> pd.DataFrame:
        if "deg" not in d.columns:
            return pd.DataFrame({"node": pd.Series([], dtype=object),
                                 "share": pd.Series([], dtype=float)})
        return pd.DataFrame({"node": d["url"], "share": damping * d["rank"].astype(float)
                             / d["deg"].astype(float)})

    for _ in range(iters):
        # ranks ⋈ degs on url/node (left) → share = damping * rank / deg
        rk = reduce_side_join(ranks, ["url", "rank"], "url", degs, "node", ["deg"],
                              how="left", num_parts=num_parts).materialize()
        dangling = float(
            rk.map_batches(_dang, batch_format="pandas").to_pandas()["m"].sum()
        )
        base = (1.0 - damping) / n + damping * dangling / n

        summed = propagate(edges, rk.map_batches(_share, batch_format="pandas"),
                           "share", "sum", zeros, num_parts)
        ranks = summed.map_batches(
            lambda d: pd.DataFrame({"url": d.get("node", []),
                                    "rank": d.get("share", pd.Series([], dtype=float)) + base}),
            batch_format="pandas",
        ).materialize()

    return ranks


def k_core_pairs(und: pd.DataFrame, k: int, u: str = "u", v: str = "v"):
    """Driver-side reference peel (plain pandas) for tests and the driver
    arm.  Input must already be DISTINCT canonical undirected pairs
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
              num_parts: int = 8, max_rounds: int = 50):
    """k-core of the undirected graph: iteratively peel vertices with
    degree < ``k`` until fixpoint; output ``(url, core_deg)`` for surviving
    vertices (``core_deg`` = degree inside the stable core, ≥ k by
    definition of the fixpoint).

    Same dispatch as ``pagerank_ds``: a graph ``grouped.collect_if_local``
    sizes ``local`` peels driver-side (identical math), a larger one runs
    distributed rounds.  Each round computes one hash-partitioned degree
    count, then dispatches on the size of the DEAD set (deg < k — the shell
    being peeled, usually a tiny fraction of the graph after round 1) by
    the same rule: a ``local`` shell is broadcast
    via ``ray.put`` and edges incident to it are dropped in ONE shuffle-free
    vectorized filter pass; a corpus-sized shell (possible in round 1 on a
    sparse graph) falls back to two reduce-side semi-joins on the alive
    set — all exchanges hash-routed, the driver holds only count scalars.
    The edge set only ever SHRINKS (survivors re-materialized each round, so
    round r+1 scans the peeled set, not the original).  Convergence = an
    empty dead set; ``max_rounds`` bounds pathological path graphs."""
    import ray
    import ray.data as rd

    from .grouped import reduce_side_join

    und = undirected(edges_ds, src, dst, num_parts)
    empty = pd.DataFrame({"url": pd.Series([], dtype=object),
                          "core_deg": pd.Series([], dtype="int64")})
    small = collect_if_local(und)
    if small is not None:
        out = k_core_pairs(small, k)[0] if len(small) else empty
        return rd.from_pandas(out if len(out) else empty)

    for _ in range(max_rounds):
        # materialized: consumed twice below (dead filter + possibly alive side),
        # and an unpinned Dataset re-executes its degree-agg DAG per consumer
        degs = degrees(und, ["u", "v"], num_parts).materialize()
        dead = degs.map_batches(
            lambda d: pd.DataFrame(
                {"node": d.get("node", pd.Series([], dtype=object))}
            )[np.asarray(d.get("deg", pd.Series([], dtype="int64"))) < k],
            batch_format="pandas",
        ).materialize()
        if dead.count() == 0:
            break
        shell = collect_if_local(dead)
        if shell is not None:
            # shell is small: drop its incident edges in one pass
            dead_ref = ray.put(frozenset(shell["node"]))

            def _drop(d: pd.DataFrame) -> pd.DataFrame:
                if "u" not in d.columns:
                    return pd.DataFrame({"u": pd.Series([], dtype=object),
                                         "v": pd.Series([], dtype=object)})
                ds_ = ray.get(dead_ref)
                keep = ~(d["u"].isin(ds_) | d["v"].isin(ds_))
                return d[keep][["u", "v"]]

            und = und.map_batches(_drop, batch_format="pandas").materialize()
        else:
            alive = degs.map_batches(
                lambda d: pd.DataFrame(
                    {"node": d.get("node", pd.Series([], dtype=object))}
                )[np.asarray(d.get("deg", pd.Series([], dtype="int64"))) >= k],
                batch_format="pandas",
            ).materialize()
            nxt = reduce_side_join(und, ["u", "v"], "u", alive, "node",
                                   how="semi", num_parts=num_parts)
            und = reduce_side_join(nxt, ["u", "v"], "v", alive, "node",
                                   how="semi", num_parts=num_parts).materialize()
        if und.count() == 0:
            return rd.from_pandas(empty)

    def _out(d: pd.DataFrame) -> pd.DataFrame:
        if "node" not in d.columns:
            return empty
        return pd.DataFrame({"url": d["node"],
                             "core_deg": d["deg"].astype("int64")})

    return degrees(und, ["u", "v"], num_parts).map_batches(_out, batch_format="pandas")


def node_similarity_ds(edges_ds, src: str = "src_url", dst: str = "dst_url",
                       num_parts: int = 8, max_middle_degree: int | None = None):
    """Common-neighbor Jaccard node similarity — the classic
    link-prediction / related-item feature: every node pair (a < b) that
    shares ≥1 neighbor, scored ``|N(a)∩N(b)| / |N(a)∪N(b)|`` as exact
    integer micros (floor division, so the DuckDB mirror hashes bit-for-bit).

    Shape: undirected-distinct edges (hash-partitioned distinct) → explode
    to (middle, neighbor) adjacency rows → ONE middle-hash shuffle → per-
    partition pair generation over each middle's sorted neighbor list
    (one ``triu_indices`` per distinct list size — the dedup bucket trick,
    no per-middle Python) → pair-count aggregation → degree attach.

    Degree attach is ``graphops.attach`` (the kcore dead-shell rule): the
    degree table is node-scale while the pair table is the largest
    intermediate, so when ``grouped.plan_arm`` sizes ``degs`` ``local`` the
    degree map is ``ray.put`` once and both endpoint degrees attach in ONE
    shuffle-free pass; otherwise two reduce-side lookups run (no broadcast
    — correct when even the node set is too big for a worker heap).  Both
    paths are equality-pinned in tests/test_pagerank.py.

    Unlike triangle counting, the hub blowup here is SEMANTIC: a middle of
    degree d really does witness d(d-1)/2 related pairs.  For web-scale
    graphs pass ``max_middle_degree`` to drop super-hub middles (the
    standard stop-hub cut: a node linked by millions contributes ~no
    similarity signal but dominates the pair volume); the cap drops whole
    middles BEFORE pair generation, bounding per-middle work at cap²."""
    from .dedup import _bucket_layout, _intra_bucket_pairs
    from .grouped import exchange, hash_partitioned_agg

    und = undirected(edges_ds, src, dst, num_parts)
    # materialized: degs feeds BOTH reduce-side lookups below — lazy it
    # would re-run its shuffle DAG once per consumer (the tfidf
    # materialize-once rule); it is node-scale, not edge-scale
    degs = degrees(und, ["u", "v"], num_parts).materialize()

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

    scored = attach(common, ["node_a", "node_b", "common"], ["node_a", "node_b"],
                    degs, ["deg_a", "deg_b"], num_parts)

    def _score(d: pd.DataFrame) -> pd.DataFrame:
        if "common" not in d.columns or not len(d):
            return pd.DataFrame({
                c: pd.Series([], dtype=object if c in ("node_a", "node_b") else "int64")
                for c in ("node_a", "node_b", "common", "deg_a", "deg_b",
                          "jaccard_micros")
            })
        c = d["common"].astype("int64")
        da = d["deg_a"].astype("int64")
        db = d["deg_b"].astype("int64")
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

    return scored.map_batches(_score, batch_format="pandas")
