"""PageRank: distributed rounds vs the driver-side dict reference."""

from unittest import mock

import numpy as np
import pandas as pd
import ray.data as rd

from knowledgegraph__bh_ray.stages import grouped
from knowledgegraph__bh_ray.stages.pagerank import pagerank_ds, pagerank_pairs


def _graph():
    # small graph with a dangling node (d has no out-edges) and a hub
    return pd.DataFrame(
        {
            "src_url": ["a", "a", "b", "c", "c", "e"],
            "dst_url": ["b", "c", "c", "a", "d", "a"],
        }
    )


def test_reference_properties():
    r = pagerank_pairs(_graph()).set_index("url")["rank"]
    assert abs(r.sum() - 1.0) < 1e-9  # stochastic: ranks sum to 1
    assert r["a"] > r["d"]  # hub outranks the leaf


def test_distributed_matches_reference(ray_session, page_graph_small):
    # the toy graph, then the sf0.001 page graph (3 iterations for speed)
    for ds, iters in ((rd.from_pandas(_graph()), 10), (page_graph_small, 3)):
        want = (pagerank_pairs(ds.to_pandas(), iters=iters)
                .sort_values("url").reset_index(drop=True))
        with mock.patch.object(grouped, "LOCAL_AGG_MAX_ROWS", -1):
            got = (
                pagerank_ds(ds, iters=iters, num_parts=2)
                .to_pandas()
                .sort_values("url")
                .reset_index(drop=True)
            )
        assert got["url"].tolist() == want["url"].tolist()
        assert np.allclose(got["rank"].to_numpy(), want["rank"].to_numpy(), atol=1e-9)


def test_empty_graph(ray_session):
    got = pagerank_ds(
        rd.from_pandas(pd.DataFrame({"src_url": pd.Series([], dtype=object),
                                     "dst_url": pd.Series([], dtype=object)}))
    ).to_pandas()
    assert len(got) == 0


def _brute_triangles(edges: pd.DataFrame):
    und = set()
    for s, d in zip(edges["src_url"], edges["dst_url"]):
        if s != d:
            und.add((min(s, d), max(s, d)))
    adj = {}
    for u, v in und:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    out = set()
    for u, v in und:
        for w in adj[u] & adj[v]:
            out.add(tuple(sorted((u, v, w))))
    return sorted(out)


def _tri_rows(ds):
    got = ds.to_pandas()
    if not len(got):  # zero triangles → Ray emits a column-less empty frame
        return []
    return sorted(zip(got["u"], got["v"], got["w"]))


def test_triangles_random_graph_matches_brute(ray_session):
    from knowledgegraph__bh_ray.stages.pagerank import triangles_ds

    rng = np.random.RandomState(7)
    n = 30
    e = pd.DataFrame({
        "src_url": [f"n{i}" for i in rng.randint(0, n, 160)],
        "dst_url": [f"n{i}" for i in rng.randint(0, n, 160)],
    })
    got = _tri_rows(triangles_ds(rd.from_pandas(e), num_parts=3))
    assert got == _brute_triangles(e)
    assert len(got) > 0  # the fixture actually contains triangles


def test_triangles_star_hub_no_quadratic_wedges(ray_session):
    """Adversarial Zipf hub: a star graph has NO triangles, and under the
    degree orientation the hub is the HIGH end of every edge — each leaf
    has out-degree 1, so zero wedge pairs are generated anywhere (the
    pre-round-3 middle-vertex form shuffled d² pairs at the hub)."""
    from knowledgegraph__bh_ray.stages.pagerank import triangles_ds

    d = 200
    e = pd.DataFrame({"src_url": ["hub"] * d,
                      "dst_url": [f"leaf{i}" for i in range(d)]})
    assert _tri_rows(triangles_ds(rd.from_pandas(e), num_parts=3)) == []


def test_triangles_wheel_graph(ray_session):
    """Hub + cycle rim: every rim edge closes a triangle with the hub."""
    from knowledgegraph__bh_ray.stages.pagerank import triangles_ds

    k = 8
    rim = [(f"r{i}", f"r{(i + 1) % k}") for i in range(k)]
    spokes = [("hub", f"r{i}") for i in range(k)]
    e = pd.DataFrame({"src_url": [a for a, _ in rim + spokes],
                      "dst_url": [b for _, b in rim + spokes]})
    got = _tri_rows(triangles_ds(rd.from_pandas(e), num_parts=3))
    assert got == _brute_triangles(e)
    assert len(got) == k


def _nsim_serial(edges):
    """Scalar-loop common-neighbor Jaccard reference."""
    from collections import defaultdict

    adj = defaultdict(set)
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    out = {}
    nodes = sorted(adj)
    for i, x in enumerate(nodes):
        for y in nodes[i + 1:]:
            common = len(adj[x] & adj[y])
            if common:
                out[(x, y)] = (common, len(adj[x]), len(adj[y]),
                               common * 1_000_000 // (len(adj[x]) + len(adj[y]) - common))
    return out


def test_node_similarity_matches_serial(ray_session):
    from knowledgegraph__bh_ray.stages.pagerank import node_similarity_ds

    rng = np.random.default_rng(21)
    n = 30
    edges = list({(f"n{a:02d}", f"n{b:02d}")
                  for a, b in rng.integers(0, n, size=(120, 2)) if a != b})
    # parallel + reversed duplicates must collapse in the distinct pass
    dup_edges = edges + [(b, a) for a, b in edges[:10]] + edges[:5]
    ds = rd.from_pandas(pd.DataFrame(dup_edges, columns=["src_url", "dst_url"]))
    got = node_similarity_ds(ds).to_pandas()
    ref = _nsim_serial(edges)

    assert len(got) == len(ref)
    for _, r in got.iterrows():
        key = (r["node_a"], r["node_b"])
        assert key in ref, key
        assert (int(r["common"]), int(r["deg_a"]), int(r["deg_b"]),
                int(r["jaccard_micros"])) == ref[key], key


def test_node_similarity_stop_hub_cap(ray_session):
    from knowledgegraph__bh_ray.stages.pagerank import node_similarity_ds

    # star: hub h adjacent to 40 leaves, plus one leaf-leaf edge
    edges = [("hub", f"leaf{i:02d}") for i in range(40)] + [("leaf00", "leaf01")]
    ds = rd.from_pandas(pd.DataFrame(edges, columns=["src_url", "dst_url"]))

    full = node_similarity_ds(ds).to_pandas()
    # all 40·39/2 leaf pairs share the hub, plus hub-leaf pairs via leaf00/leaf01
    assert len(full) == 40 * 39 // 2 + 2

    capped = node_similarity_ds(ds, max_middle_degree=10).to_pandas()
    # hub (degree 40) dropped as a middle: only wedges through leaf00/leaf01 remain
    assert set(zip(capped["node_a"], capped["node_b"])) == {
        ("hub", "leaf01"), ("hub", "leaf00")}
    # degrees in the capped output stay TRUE degrees (cap affects middles only)
    assert (capped["deg_a"] == 40).all()


def test_node_similarity_dispatch_equivalence(ray_session, page_graph_small):
    """Dispatch gate: the broadcast degree attach (default — the degree
    table is node-scale) and the reduce-side two-lookup fallback
    (``LOCAL_AGG_MAX_ROWS=-1``, the too-many-nodes path) must produce
    identical output, capped and uncapped, on a random graph and on the
    sf0.001 page graph."""
    from knowledgegraph__bh_ray.stages.pagerank import node_similarity_ds

    rng = np.random.default_rng(33)
    n = 25
    edges = list({(f"n{a:02d}", f"n{b:02d}")
                  for a, b in rng.integers(0, n, size=(90, 2)) if a != b})
    random_ds = rd.from_pandas(pd.DataFrame(edges, columns=["src_url", "dst_url"]))
    for ds, cap in ((random_ds, None), (random_ds, 4),
                    (page_graph_small, None), (page_graph_small, 4)):
        a = (node_similarity_ds(ds, max_middle_degree=cap)
             .to_pandas().sort_values(["node_a", "node_b"]).reset_index(drop=True))
        with mock.patch.object(grouped, "LOCAL_AGG_MAX_ROWS", -1):
            b = (node_similarity_ds(ds, max_middle_degree=cap)
                 .to_pandas().sort_values(["node_a", "node_b"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b)
        assert len(a) > 0
