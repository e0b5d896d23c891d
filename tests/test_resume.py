"""Kill-and-resume ≡ fresh run (north rule: resumable from checkpoint with
per-partition lineage).  The injected failure kills the run after each
completed unit; repeated resumes must converge to the fresh-run output and
never redo completed units."""

import os
import shutil

import pandas as pd
import pytest
import ray.data as rd

from knowledgegraph__bh_ray.pipelines.run import run_kg_pipeline
from knowledgegraph__bh_ray.state.lineage import Manifest


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


@pytest.fixture(scope="module")
def fresh_and_resumed(ray_session, pages_small, tmp_path_factory):
    """One fresh run and one killed-after-every-unit run at granularity 2:
    (fresh dir, fresh result, resumed dir, final resume's result, attempts)."""
    root = tmp_path_factory.mktemp("kill_resume")
    fresh_dir = str(root / "fresh")
    resumed_dir = str(root / "resumed")

    fresh = run_kg_pipeline(pages_small, fresh_dir, resume_granularity=2)

    # killed run: fail after every completed unit, resume until done
    attempts = 0
    while attempts < 20:
        attempts += 1
        try:
            resumed = run_kg_pipeline(
                pages_small,
                resumed_dir,
                resume_granularity=2,
                _fail_after_units=1,
            )
            break
        except RuntimeError as e:
            assert "injected failure" in str(e)
    return fresh_dir, fresh, resumed_dir, resumed, attempts


def test_kill_resume_equals_fresh(fresh_and_resumed):
    fresh_dir, _, resumed_dir, _, attempts = fresh_and_resumed
    assert attempts > 3  # it really was killed mid-run several times

    for name in ("nodes", "edges", "canonical", "edges_canonical"):
        a = _canon(rd.read_parquet(os.path.join(fresh_dir, name)).to_pandas())
        b = _canon(rd.read_parquet(os.path.join(resumed_dir, name)).to_pandas())
        pd.testing.assert_frame_equal(a, b)

    # lineage: every unit has a manifest record with counters/wall time
    units = {r["unit"] for r in Manifest(resumed_dir).records()}
    assert units == {
        "parsed:group=0",
        "parsed:group=1",
        "nodes",
        "edges",
        "canonical",
        "mentions",
    }


def test_resume_counters_equal_fresh(fresh_and_resumed, pages_small):
    """Each parsed record holds its own group's counts, so the counters
    mean the same after a kill and resume: the records sum to the fresh
    run's, the group records' pages_in to the corpus, and the returned
    counters are that sum."""
    import pyarrow.parquet as pq

    fresh_dir, fresh, resumed_dir, resumed, _ = fresh_and_resumed

    def summed(out_dir: str) -> dict[str, int]:
        total: dict[str, int] = {}
        for r in Manifest(out_dir).records():
            for k, v in r["counters"].items():
                total[k] = total.get(k, 0) + v
        return total

    n_pages = pq.ParquetDataset(pages_small).read(columns=["url"]).num_rows
    groups = [r for r in Manifest(resumed_dir).records() if r["unit"].startswith("parsed:")]
    assert len(groups) == 2 and all(r["counters"]["pages_in"] for r in groups)
    assert sum(r["counters"]["pages_in"] for r in groups) == n_pages
    assert summed(resumed_dir) == summed(fresh_dir)
    assert summed(fresh_dir)["pages_in"] == n_pages
    assert resumed["counters"] == fresh["counters"] == summed(fresh_dir)


def test_parsed_groups_split_by_url_hash(fresh_and_resumed, pages_small):
    """At granularity 2, ``parsed/group=g/`` holds exactly the kept pages
    with ``bucket_of(url, 2) == g``, and the two groups together hold
    every kept page once."""
    import pyarrow.parquet as pq

    from knowledgegraph__bh_ray.functions.hashing import bucket_of
    from knowledgegraph__bh_ray.stages.extract import extract_parse_batch

    fresh_dir = fresh_and_resumed[0]
    kept = extract_parse_batch(pq.read_table(pages_small, columns=["url", "html"]))
    kept = set(kept.column("url").to_pylist())
    seen = []
    for g in range(2):
        urls = pq.read_table(os.path.join(fresh_dir, "parsed", f"group={g}"),
                             columns=["url"]).column("url").to_pylist()
        assert urls and {bucket_of(u, 2) for u in urls} == {g}, g
        seen += urls
    assert len(seen) == len(set(seen))
    assert set(seen) == kept


def test_resume_skips_completed_units(ray_session, pages_small, tmp_path):
    out = str(tmp_path / "run")
    run_kg_pipeline(pages_small, out, resume_granularity=2)
    records_before = Manifest(out).records()
    # resuming a finished run must do nothing new
    run_kg_pipeline(pages_small, out, resume_granularity=2)
    records_after = Manifest(out).records()
    assert len(records_after) == len(records_before)


def _assert_adjacency_layout(out: str, n_buckets: int = 16,
                             tables=("edges", "edges_canonical")) -> None:
    """edges/ and edges_canonical/: dir subj_bucket=K holds exactly the
    subjects with bucket_of(subj, n_buckets) == K, rows sorted by subj."""
    import glob

    import pyarrow.parquet as pq

    from knowledgegraph__bh_ray.functions.hashing import bucket_of

    for table in tables:
        root = os.path.join(out, table)
        dirs = sorted(glob.glob(os.path.join(root, "subj_bucket=*")))
        assert dirs, table
        n_rows = 0
        for d in dirs:
            k = int(d.rsplit("=", 1)[1])
            assert 0 <= k < n_buckets
            files = sorted(glob.glob(os.path.join(d, "*.parquet")))
            subj = pd.concat(
                [pq.read_table(f, columns=["subj"]).to_pandas()["subj"] for f in files],
                ignore_index=True,
            )
            assert len(subj), d
            assert {bucket_of(x, n_buckets) for x in subj} == {k}, d
            assert subj.is_monotonic_increasing, d
            n_rows += len(subj)
        assert n_rows == len(rd.read_parquet(root).to_pandas()), table


def test_degree_from_adjacency_no_shuffle(ray_session, pages_small, tmp_path):
    """Bucketed-layout reuse: the adjacency layout holds on both arms of
    the edge aggregation — the pipeline's (local at this size) and the
    salted one (no estimate) — and degree computed per bucket dir (no
    shuffle) equals a shuffle-based aggregation of the same edges.  Each
    unit read the checkpoint in the block count its footers call for, and
    the graph tables do not depend on that count."""
    import pandas as pd
    import ray

    from knowledgegraph__bh_ray.pipelines import kg
    from knowledgegraph__bh_ray.pipelines.run import (
        _footer_size,
        degree_from_adjacency,
        gazetteer,
        read_blocks,
        run_kg_pipeline,
    )
    from knowledgegraph__bh_ray.stages.grouped import hash_partitioned_agg
    from knowledgegraph__bh_ray.stages.ner import mentions_ds

    out = str(tmp_path / "run")
    run_kg_pipeline(pages_small, out)
    _assert_adjacency_layout(out)
    records = {r["unit"]: r for r in Manifest(out).records()}
    for unit in ("nodes", "edges", "canonical"):
        assert records[unit]["arm"] == "local", unit
        assert records[unit]["est_rows"] >= records[unit]["rows"] > 0, unit
        assert records[unit]["est_bytes"] > 0, unit

    parsed = os.path.join(out, "parsed")
    ncpu = int(ray.cluster_resources()["CPU"])
    read = {"nodes": ["url", "nodes"], "edges": ["url", "triples"],
            "canonical": ["url", "triples"], "mentions": ["url", "text_out"]}
    for unit, columns in read.items():
        nbytes = _footer_size(parsed, columns).bytes
        assert 1 <= records[unit]["read_blocks"] <= ncpu, unit
        assert records[unit]["read_blocks"] == read_blocks(nbytes, ncpu), unit
    assert records["mentions"]["est_bytes"] == _footer_size(parsed, read["mentions"]).bytes > 0

    def _table(ds) -> pd.DataFrame:
        df = ds.to_pandas()
        if kg.BUCKET_COL in df:  # read back from the partition dir names as strings
            df = df.astype({kg.BUCKET_COL: "int64"})
        return _canon(df)

    canon = pd.read_parquet(os.path.join(out, "canonical"))
    canon_map = {k: (i, n) for k, i, n in
                 zip(canon["norm_key"], canon["canon_id"], canon["canon_name"])}
    node_ids = frozenset(pd.read_parquet(os.path.join(out, "nodes"), columns=["id"])["id"])
    triples_est = _footer_size(parsed, ["triples"], "subj")
    want = {name: _table(rd.read_parquet(os.path.join(out, name)))
            for name in ("nodes", "edges", "edges_canonical", "mentions")}
    for nblocks in (1, 16):
        src = rd.read_parquet(parsed, override_num_blocks=nblocks)
        assert src.materialize().num_blocks() == nblocks
        got = {
            "nodes": kg.nodes_ds(src, est=_footer_size(parsed, ["nodes"], "id")),
            "edges": kg.edges_ds(src, node_ids=node_ids, est=triples_est),
            "edges_canonical": kg.edges_canonical_ds(src, canon_map=canon_map,
                                                     est=triples_est),
            "mentions": mentions_ds(src.select_columns(["url", "text_out"]),
                                    gazetteer(os.path.join(out, "nodes"))),
        }
        for name, ds in got.items():
            pd.testing.assert_frame_equal(_table(ds), want[name], obj=f"{name}@{nblocks}")

    # the salted arm's final route builds the same layout and rows
    edges = kg.edges_ds(kg.parsed_ds(pages_small), node_ids=node_ids).materialize()
    salted = str(tmp_path / "salted")
    edges.write_parquet(os.path.join(salted, "edges"), partition_cols=["subj_bucket"])
    _assert_adjacency_layout(salted, tables=("edges",))
    pd.testing.assert_frame_equal(
        _canon(rd.read_parquet(os.path.join(salted, "edges")).to_pandas()),
        _canon(rd.read_parquet(os.path.join(out, "edges")).to_pandas()),
    )
    got = (
        degree_from_adjacency(out)
        .to_pandas()
        .sort_values("subj")
        .reset_index(drop=True)
    )

    def _to_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"subj": batch["subj"], "n_out": 1, "total_weight": batch["weight"]}
        )

    def _agg(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("subj", sort=False, as_index=False)[["n_out", "total_weight"]].sum()
        for c in ("n_out", "total_weight"):
            out[c] = out[c].astype("int64")
        return out

    want = (
        hash_partitioned_agg(edges.map_batches(_to_rows, batch_format="pandas"), ["subj"], _agg)
        .to_pandas()
        .sort_values("subj")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["subj", "n_out", "total_weight"]],
                                  want[["subj", "n_out", "total_weight"]])


def test_write_one_row_group_per_file(ray_session, tmp_path):
    """``run._write`` leaves one row group per file: an edge table of more
    rows than one Arrow exec batch (32,768), aggregated on the local arm
    into one block and written in the adjacency layout, gives each bucket
    file its rows in a single group."""
    import glob

    import pyarrow.parquet as pq

    from knowledgegraph__bh_ray.pipelines import kg
    from knowledgegraph__bh_ray.pipelines.run import _write
    from knowledgegraph__bh_ray.stages.grouped import SizeEstimate

    n = 40_000
    ids = [f"{i:08x}" for i in range(n)]
    triples = pd.DataFrame({
        "url": [f"u{i % 97}" for i in range(n)], "seq": range(n), "subj": ids,
        "pred": "p", "obj": ids[::-1], "subj_name": ids, "obj_name": ids[::-1],
        "props_json": "{}",
    })
    edges = kg._edge_agg(rd.from_pandas(triples), est=SizeEstimate(0, 0))
    out = str(tmp_path / "edges")
    assert _write(edges, out, kg.edge_schema(), partition_cols=[kg.BUCKET_COL]) == n
    files = glob.glob(os.path.join(out, "*", "*.parquet"))
    assert len(files) == 16
    assert [pq.ParquetFile(f).metadata.num_row_groups for f in files] == [1] * 16


def test_pipeline_tagger_slot_pluggable(ray_session, pages_small, tmp_path):
    """Phase-5 model slot: the CRF and pattern taggers drop into the
    pipeline in place of the gazetteer; earlier phases resume untouched."""
    import ray.data as rd

    from knowledgegraph__bh_ray.pipelines.run import run_kg_pipeline

    for tagger in ("crf", "pattern"):
        out = str(tmp_path / f"{tagger}_run")
        res = run_kg_pipeline(pages_small, out, tagger=tagger)
        assert "mentions" in {r["unit"] for r in res["records"]}
        m = rd.read_parquet(out + "/mentions").to_pandas()
        assert set(m.columns) >= {"url", "para_idx", "entity", "etype", "start", "end"}


def test_sharded_counter_exact_across_shards(ray_session):
    """ShardedCounter: concurrent awaited increments from many remote
    tasks must sum exactly in get_all(), and reset() clears them."""
    import ray

    from knowledgegraph__bh_ray.state.lineage import ShardedCounter

    c = ShardedCounter()

    @ray.remote
    def bump(counter, i):
        counter.incr_many_blocking({"a": i, "b": 1})
        return i

    total = sum(ray.get([bump.remote(c, i) for i in range(40)]))
    got = c.get_all()
    assert got == {"a": total, "b": 40}
    c.reset()
    assert c.get_all() == {}
