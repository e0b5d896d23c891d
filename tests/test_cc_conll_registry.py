from unittest import mock

import pandas as pd
import ray.data as rd

from knowledgegraph__bh_ray.sources.conll import parse_conll_text, parse_ner_json_lines
from knowledgegraph__bh_ray.stages import grouped
from knowledgegraph__bh_ray.stages.cc import (
    connected_components_ds,
    connected_components_pairs,
)


def test_cc_driver_reference():
    pairs = pd.DataFrame({"id_a": ["a", "b", "x"], "id_b": ["b", "c", "y"]})
    out = connected_components_pairs(pairs).set_index("node")["cluster"]
    assert out["a"] == out["b"] == out["c"] == "a"
    assert out["x"] == out["y"] == "x"


def test_cc_distributed_matches_reference(ray_session, page_graph_small):
    import numpy as np

    rng = np.random.default_rng(3)
    # random sparse pair set over 200 nodes
    a = rng.integers(0, 200, 150)
    b = rng.integers(0, 200, 150)
    pairs = pd.DataFrame({"id_a": np.minimum(a, b), "id_b": np.maximum(a, b)})
    pairs = pairs[pairs["id_a"] != pairs["id_b"]].drop_duplicates()
    # the random pairs on the default (sized) dispatch, then the sf0.001
    # page graph with the distributed rounds forced (no input sizes local)
    for ds, cols, cap in ((rd.from_pandas(pairs), ("id_a", "id_b"),
                           grouped.LOCAL_AGG_MAX_ROWS),
                          (page_graph_small, ("src_url", "dst_url"), -1)):
        want = (connected_components_pairs(ds.to_pandas(), *cols)
                .sort_values("node").reset_index(drop=True))
        with mock.patch.object(grouped, "LOCAL_AGG_MAX_ROWS", cap):
            got = (
                connected_components_ds(ds, *cols)
                .to_pandas()
                .sort_values("node")
                .reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(got.astype(str), want.astype(str))


CONLL = """中 B-LOC
国 E-LOC
很 O
大 O

你 O
好 O
"""


def test_conll_parse():
    rows = parse_conll_text(CONLL)
    assert rows == [
        {"text": "中国很大", "labels": ["B-LOC", "E-LOC", "O", "O"]},
        {"text": "你好", "labels": ["O", "O"]},
    ]


def test_ner_json_parse():
    rows = parse_ner_json_lines('{"text": "北京", "labels": ["B-LOC", "E-LOC"]}\n')
    assert rows == [{"text": "北京", "labels": ["B-LOC", "E-LOC"]}]
    rows2 = parse_ner_json_lines('[{"text": "a", "labels": ["O"]}]')
    assert rows2 == [{"text": "a", "labels": ["O"]}]


def test_cc_adversarial_chain(ray_session):
    """Adversarial dup-rate shape: pairs ≈ nodes (one long chain, max
    diameter), with ``LOCAL_AGG_MAX_ROWS=-1`` forcing the DISTRIBUTED join
    path — labels/edges stay Dataset-resident (never to_pandas'd);
    pointer jumping converges in O(log n) rounds."""
    n = 128
    ids = [f"n{i:04d}" for i in range(n)]
    pairs = pd.DataFrame({"id_a": ids[:-1], "id_b": ids[1:]})
    with mock.patch.object(grouped, "LOCAL_AGG_MAX_ROWS", -1):
        got = connected_components_ds(rd.from_pandas(pairs), num_parts=2).to_pandas()
    assert len(got) == n
    assert (got["cluster"] == "n0000").all()


def test_cc_empty_pairs(ray_session):
    got = connected_components_ds(
        rd.from_pandas(pd.DataFrame({"id_a": pd.Series([], dtype=object),
                                     "id_b": pd.Series([], dtype=object)}))
    ).to_pandas()
    assert len(got) == 0


def _ancestors_reference(ids, parents, max_depth=10):
    parent_of = dict(zip(ids, parents))
    out = []
    for nid in ids:
        anc = parent_of.get(nid, "")
        depth = 1
        while anc and depth <= max_depth:
            out.append((nid, anc, depth))
            anc = parent_of.get(anc, "")
            depth += 1
    return sorted(out)


def test_ancestor_closure_matches_reference(ray_session):
    """Doubling closure ≡ per-node pointer chase: plain chain, chain longer
    than the cap, self-loop, dangling parent, and a root all in one graph."""
    import pandas as pd
    import ray.data as rd

    from knowledgegraph__bh_ray.stages.cc import ancestor_closure_ds

    ids = [f"n{i}" for i in range(14)] + ["loop", "dang"]
    parents = [""] + [f"n{i-1}" for i in range(1, 14)] + ["loop", "ghost"]
    got = ancestor_closure_ds(
        rd.from_pandas(pd.DataFrame({"id": ids, "parent": parents})), num_parts=3
    ).to_pandas()
    got_t = sorted(zip(got["id"], got["anc"], got["depth"]))
    assert got_t == _ancestors_reference(ids, parents)
    # n13 sits on a 13-deep chain: capped at 10; the self-loop hits the cap too
    n13 = [t for t in got_t if t[0] == "n13"]
    assert len(n13) == 10
    assert len([t for t in got_t if t[0] == "loop"]) == 10
    # dangling parent: one hop then stop
    assert [t for t in got_t if t[0] == "dang"] == [("dang", "ghost", 1)]
