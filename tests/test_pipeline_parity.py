"""End-to-end parity: distributed Ray pipeline vs single-process oracle
(SURVEY.md §5(b)) — byte-identical extracted text per url and triple/node
P/R at the north-rule threshold."""

import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from knowledgegraph__bh_ray.pipelines import kg


def _golden(golden_small, name):
    return pq.read_table(os.path.join(golden_small, f"{name}.parquet")).to_pandas()


def test_extracted_text_byte_identical(pages_small, golden_small):
    mine = kg.parsed_ds(pages_small).to_pandas().set_index("url").sort_index()
    gold = _golden(golden_small, "extracted").set_index("url").sort_index()
    assert list(mine.index) == list(gold.index)
    # the north-rule invariant: per url, extracted text byte-identical
    assert (mine["text_out"] == gold["text_out"]).all()
    assert (mine["title"] == gold["title"]).all()
    assert (mine["summary"] == gold["summary"]).all()


def test_triples_precision_recall(pages_small, golden_small):
    mine = kg.triples_raw_ds(kg.parsed_ds(pages_small)).to_pandas()
    gold = _golden(golden_small, "triples_raw")
    mine_set = set(map(tuple, mine[["subj", "pred", "obj"]].values))
    gold_set = set(map(tuple, gold[["subj", "pred", "obj"]].values))
    tp = len(mine_set & gold_set)
    precision = tp / max(len(mine_set), 1)
    recall = tp / max(len(gold_set), 1)
    assert precision >= 0.95 and recall >= 0.95  # north rule
    assert precision == 1.0 and recall == 1.0  # and in fact exact


def test_nodes_keep_first_semantics(pages_small, golden_small):
    nodes = kg.nodes_ds(kg.parsed_ds(pages_small)).to_pandas()
    raw = _golden(golden_small, "nodes_raw")
    exp = raw.sort_values("seq", kind="mergesort").drop_duplicates("id", keep="first")
    a = nodes.sort_values("id").reset_index(drop=True)[["id", "name", "type", "seq"]]
    b = exp.sort_values("id").reset_index(drop=True)[["id", "name", "type", "seq"]]
    pd.testing.assert_frame_equal(a, b)


def test_edges_dedup_count_and_dangling(pages_small, golden_small):
    raw = _golden(golden_small, "triples_raw")
    ids = set(_golden(golden_small, "nodes_raw")["id"])
    edges = kg.edges_ds(kg.parsed_ds(pages_small), node_ids=frozenset(ids)).to_pandas()
    kept = raw[raw["subj"].isin(ids) & raw["obj"].isin(ids)]
    exp = kept.groupby(["subj", "pred", "obj"]).size().rename("weight").reset_index()
    a = edges[["subj", "pred", "obj", "weight"]].sort_values(
        ["subj", "pred", "obj"]
    ).reset_index(drop=True)
    b = exp.sort_values(["subj", "pred", "obj"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype({"weight": a["weight"].dtype}))
    # dangling targets were generated → some triples must have been dropped
    assert len(kept) < len(raw)
    # the generated hot triple must surface with a heavy weight (skew bait)
    assert edges["weight"].max() >= 20


def test_canonical_linking_collapses_variants(pages_small, golden_small):
    from knowledgegraph__bh_ray.functions.hashing import md5_id
    from knowledgegraph__bh_ray.stages.linkage import canonical_map_pdf, normalize_surface

    nodes = kg.nodes_ds(kg.parsed_ds(pages_small)).to_pandas()
    canon = canonical_map_pdf(nodes)
    # surface variants (《X》, case) collapse: strictly fewer canonical
    # entities than raw deduped nodes
    assert len(canon) < len(nodes)
    # canonical ids are md5[:8] of the canonical name
    assert all(md5_id(n) == i for n, i in zip(canon["canon_name"], canon["canon_id"]))
    # all bracket variants normalized away
    assert not canon["norm_key"].str.contains("《").any()
    # the pick over the deduped nodes equals a plain pick over every raw
    # occurrence: normalize, min seq per blocking key, md5 of that name
    raw = _golden(golden_small, "nodes_raw")
    raw["norm_key"] = [normalize_surface(n) for n in raw["name"]]
    first = raw.sort_values("seq").drop_duplicates("norm_key")
    want = pd.DataFrame({"norm_key": first["norm_key"], "canon_name": first["name"],
                         "canon_id": [md5_id(n) for n in first["name"]]})
    cols = ["norm_key", "canon_name", "canon_id"]
    pd.testing.assert_frame_equal(
        canon[cols].sort_values("norm_key").reset_index(drop=True),
        want[cols].sort_values("norm_key").reset_index(drop=True),
    )


def test_entity_graph_queries_read_one_run(pages_small, golden_small, monkeypatch):
    """Once ``kg_run`` has run, the entity-graph and parsed-page queries
    read its tables: none of them reads or extracts pages again, and
    ``kg_degree`` is the per-subject count and weight sum of ``kg_edges``."""
    from knowledgegraph__bh_ray import queries

    sf = "/root/testdata/sf0.001"
    queries.kg_run(sf)

    def _no_extraction(*args, **kwargs):
        raise AssertionError("a query over parsed pages read the pages again")

    monkeypatch.setattr(kg, "parsed_ds", _no_extraction)
    monkeypatch.setattr(kg, "read_pages", _no_extraction)
    got = {name: getattr(queries, f"q_{name}")(sf).to_pandas()
           for name in ("kg_nodes", "kg_edges", "kg_entity_link", "kg_edges_canonical",
                        "kg_degree", "kg_node_parents", "kg_extract", "kg_links",
                        "kg_page_graph_edges", "kg_page_graph_nodes", "kg_pages_without_links",
                        "lang_id", "prompt_assembly", "token_budget", "boilerplate_strip",
                        "dedup_minhash", "kg_mentions_pattern")}
    assert all(len(df) > 0 for df in got.values())
    edges = got["kg_edges"]
    want = (edges.groupby("subj", as_index=False)
            .agg(n_out=("weight", "size"), total_weight=("weight", "sum"))
            .astype({"n_out": "int64", "total_weight": "int64"}))
    cols = ["subj", "n_out", "total_weight"]
    pd.testing.assert_frame_equal(
        got["kg_degree"][cols].sort_values("subj").reset_index(drop=True),
        want[cols].sort_values("subj").reset_index(drop=True),
    )


def test_entry_contract(ray_session):
    import __ray_entry__ as e

    ds = e.entry()
    pdf = ds.to_pandas()
    assert len(pdf) > 0
    assert list(pdf.columns) == ["subj", "pred", "obj", "subj_name", "obj_name", "weight"]
    qs, sqls = e.queries(), e.oracle_sql()
    assert set(sqls).issubset(set(qs))
    assert len(qs) >= 25
