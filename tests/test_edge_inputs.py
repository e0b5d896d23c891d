"""Robustness: degenerate inputs must not crash the pipeline."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from knowledgegraph__bh_ray.pagegen import PAGES_SCHEMA
from knowledgegraph__bh_ray.pipelines import kg
from knowledgegraph__bh_ray.stages.extract import extract_parse_batch


def test_empty_batch_extract():
    empty = pa.Table.from_pydict({"url": [], "html": []},
                                 schema=pa.schema([("url", pa.string()), ("html", pa.binary())]))
    out = extract_parse_batch(empty)
    assert out.num_rows == 0


def _verification_pages(tmp_path) -> str:
    """Two pages that are both dropped as verification pages."""
    t = pa.Table.from_arrays(
        [
            pa.array(["u1", "u2"], pa.string()),
            pa.array([pd.Timestamp("2025-01-01")] * 2, pa.timestamp("us")),
            pa.array(["百度安全验证".encode()] * 2, pa.binary()),
            pa.array(["", ""], pa.string()),
            pa.array(["zh", "zh"], pa.string()),
        ],
        schema=PAGES_SCHEMA,
    )
    d = tmp_path / "pages"
    d.mkdir()
    pq.write_table(t, str(d / "part-0.parquet"))
    return str(d)


def test_all_verification_pages(tmp_path, ray_session):
    ext = kg.parsed_ds(_verification_pages(tmp_path)).to_pandas()
    assert len(ext) == 0


def test_all_verification_pages_pipeline(tmp_path, ray_session):
    """No page survives extraction: every unit still completes, records
    rows 0 and leaves an empty table with its normal columns, and the
    degree over the empty adjacency layout is typed too."""
    from knowledgegraph__bh_ray.pipelines.run import degree_from_adjacency, run_kg_pipeline

    out = tmp_path / "run"
    res = run_kg_pipeline(_verification_pages(tmp_path), str(out))
    assert {r["unit"]: r["rows"] for r in res["records"]} == {
        "parsed:group=0": 0, "nodes": 0, "edges": 0, "canonical": 0, "mentions": 0,
    }
    expect = {
        "parsed": {"url", "text_out", "nodes", "triples"},
        "nodes": {"url", "seq", "id", "name", "type"},
        "edges": {"subj", "pred", "obj", "seq", "weight", "subj_bucket"},
        "canonical": {"norm_key", "canon_name", "canon_id"},
        "edges_canonical": {"subj", "pred", "obj", "seq", "weight", "subj_bucket"},
        "mentions": {"url", "para_idx", "entity", "etype", "start", "end"},
    }
    for table, cols in expect.items():
        got = pq.read_table(str(out / table))
        assert got.num_rows == 0, table
        assert cols <= set(got.column_names), table
    assert "shard" not in pq.read_table(str(out / "parsed")).column_names
    degree = degree_from_adjacency(str(out))
    assert degree.count() == 0
    types = dict(zip(degree.schema().names, degree.schema().types))
    assert types["n_out"] == types["total_weight"] == pa.int64()


def test_page_without_grammar(tmp_path, ray_session):
    html = (
        '<html><body><h1 class="lemmaTitle_x">普通页</h1>'
        '<div class="mainContent_M"><p class="para_WzwJ3">没有任何语法行。</p></div>'
        "</body></html>"
    )
    t = pa.Table.from_arrays(
        [
            pa.array(["u1"], pa.string()),
            pa.array([pd.Timestamp("2025-01-01")], pa.timestamp("us")),
            pa.array([html.encode()], pa.binary()),
            pa.array([""], pa.string()),
            pa.array(["zh"], pa.string()),
        ],
        schema=PAGES_SCHEMA,
    )
    d = tmp_path / "pages"
    d.mkdir()
    pq.write_table(t, str(d / "part-0.parquet"))
    parsed = kg.parsed_ds(str(d))
    assert kg.triples_raw_ds(parsed).count() == 0
    nodes = kg.nodes_ds(parsed).to_pandas()
    assert len(nodes) == 0
    # no node, so the vocabulary is empty
    edges = kg.edges_ds(parsed, node_ids=frozenset()).to_pandas()
    assert len(edges) == 0


def test_new_ops_on_empty_inputs(ray_session):
    """Round-2 ops on zero-row inputs: no crashes, typed/empty results."""
    import numpy as np

    from knowledgegraph__bh_ray.pipelines.relational import (
        events_quantiles_ds,
        top_anchor_texts_ds,
    )
    from knowledgegraph__bh_ray.stages.dedup import (
        minhash_signatures_batch,
        simhash64_batch,
    )
    from knowledgegraph__bh_ray.stages.crf import CRFNER

    # vectorized signature kernels: zero docs, and docs with zero tokens
    assert minhash_signatures_batch([]).shape == (0, 32)
    assert (minhash_signatures_batch(["", "   "]) == 0).all()
    assert simhash64_batch([]).shape == (0,)
    assert (simhash64_batch(["", "  "]) == 0).all()

    # CRF tagger: empty batch and empty paragraphs
    df = CRFNER()(pd.DataFrame({"url": [], "text_out": []}))
    assert len(df) == 0
    df = CRFNER()(pd.DataFrame({"url": ["u"], "text_out": ["\n\n"]}))
    assert len(df) == 0

    # top-k over an empty links table
    links = rd.from_pandas(
        pd.DataFrame({"url": pd.Series([], dtype=object),
                      "text": pd.Series([], dtype=object),
                      "href": pd.Series([], dtype=object)})
    )
    out = top_anchor_texts_ds("/root/testdata/sf0.001", links).to_pandas()
    assert len(out) == 0


def test_pdf_stage_empty_payload(ray_session):
    from knowledgegraph__bh_ray.stages.pdf import PdfTextExtractor

    ex = PdfTextExtractor(decode_fn=lambda p: [])
    df = ex(pd.DataFrame({"doc_id": [1], "payload": [b""]}))
    assert df["text"].tolist() == [""] and df["n_pages"].tolist() == [0]


def test_round3_ops_on_degenerate_inputs(ray_session, tmp_path):
    """Round-3-continuation ops on zero-row / single-row inputs."""
    import numpy as np

    from knowledgegraph__bh_ray.pipelines.relational import (
        events_lag_ds,
        events_running_total_ds,
    )
    from knowledgegraph__bh_ray.pipelines.textops import source_cap_ds
    from knowledgegraph__bh_ray.stages.dedup import semantic_dedup_ds
    from knowledgegraph__bh_ray.stages.pagerank import node_similarity_ds

    # single-event events table: running total == the event, lag == sentinels
    t = pa.table(
        {
            "event_id": pa.array([7], pa.int64()),
            "ts": pa.array([pd.Timestamp("2025-01-01")], pa.timestamp("us")),
            "user_id": pa.array([1], pa.int64()),
            "value": pa.array([2.5], pa.float64()),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    rt = events_running_total_ds(str(tmp_path)).to_pandas()
    assert len(rt) == 1 and rt["running_cents"].iloc[0] == 250 and rt["seq"].iloc[0] == 1
    lg = events_lag_ds(str(tmp_path)).to_pandas()
    assert len(lg) == 1 and lg["prev_event_id"].iloc[0] == -1 and lg["gap_us"].iloc[0] == -1

    # source cap over a single-doc documents table
    pq.write_table(
        pa.table({"doc_id": pa.array([0], pa.int64()), "source": ["s"], "text": ["x"]}),
        str(tmp_path / "documents.parquet"),
    )
    sc = source_cap_ds(str(tmp_path)).to_pandas()
    assert len(sc) == 1 and sc["rank"].iloc[0] == 1

    # node similarity over a graph with no shared neighbors (one edge)
    one = rd.from_pandas(pd.DataFrame({"src_url": ["a"], "dst_url": ["b"]}))
    assert len(node_similarity_ds(one).to_pandas()) == 0

    # semantic dedup over a single vector: kept, no dup_of
    sd = semantic_dedup_ds(
        rd.from_pandas(pd.DataFrame({"vec_id": pd.array([1], dtype="int64"),
                                     "embedding": [np.ones(4, dtype=np.float32)]})),
        "vec_id", "embedding",
    ).to_pandas()
    assert len(sd) == 1 and bool(sd["keep"].iloc[0]) and sd["dup_of"].iloc[0] == -1
