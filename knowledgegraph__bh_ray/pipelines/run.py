"""End-to-end resumable KG run: pages → parsed checkpoint → graph tables.

Phase structure (each phase is a resume unit, SURVEY.md §7.2 step 6):

  phase 1  ``parsed/group=G/``   extract+parse; with ``resume_granularity``
           G > 1 the pages are split by url hash into G groups (group g
           holds the urls with ``bucket_of(url, G) == g``), one unit and
           one Dataset pass each; G = 1 means one pass that hashes no
           url and has no read amplification (tests use G > 1 to
           exercise mid-run kill/resume)
  phase 2  ``nodes/``            global keep-first dedup over the checkpoint
  phase 3  ``edges/``            dangling-drop + dedup-count
  phase 4  ``canonical/`` + ``edges_canonical/``  linking outputs
  phase 5  ``mentions/``         gazetteer (or CRF / pattern) mention spans

``edges/`` and ``edges_canonical/`` use the adjacency layout: dir
``subj_bucket=K`` holds exactly the subjects with ``bucket_of(subj, 16) ==
K``, rows sorted by subj within the bucket.

Phases 2-4 size their aggregation from the checkpoint's Parquet footers
(element count and uncompressed bytes of the ``nodes`` / ``triples`` list
column — no data read) and pass the estimate on, so an input within
``grouped.plan_arm``'s measured row and heap bounds runs on the one-task
``local`` arm instead of the salted shuffles.  Each of their manifest
records carries the ``arm`` it ran on and the ``est_rows`` /
``est_bytes`` that picked it.

Phases 2-5 read the checkpoint in as many blocks as the columns they read
need: one per ``DataContext.target_min_block_size`` (Ray's 1 MiB floor on a
block worth its per-task overhead) of uncompressed bytes, from the same
footer walk, at least one and at most one per CPU; an input that
``plan_arm`` would send to the salted arm is read in ``max(16, ncpu)``
blocks.  A 2,000-page input is read in one or two blocks, a 50k-page one
that stays ``local`` in one per CPU.  Each of their records carries
``read_blocks``; the mentions record also its ``est_bytes``.  Every output
file is one Parquet row group.

Every unit writes at least one file: when no page survives extraction its
tables are empty but typed, and every record says ``rows: 0``.

Phase 2+ read the *parsed checkpoint*, column-pruned to what each phase
needs — extraction runs exactly once per page per run, and a killed run
resumes from the last completed unit (write-then-log manifest).  Outputs are
partitioned Parquet directories, never one giant file.
"""

from __future__ import annotations

import os
import time
from collections import Counter

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from ..functions.hashing import bucket_of
from ..sources import read_pages
from ..stages.extract import PARSED_SCHEMA, flatten_list_column
from ..stages.grouped import SizeEstimate, plan_arm
from ..stages.linkage import CANON_SCHEMA, canon_lookup, canonical_map_pdf
from ..stages.ner import MENTIONS_SCHEMA
from ..state.lineage import Manifest, ShardedCounter
from . import kg


def _footer_size(d: str, columns=(), leaf: str | None = None) -> SizeEstimate:
    """Size of a parquet dir from its file footers — no data read.

    Without ``columns``: the table's rows (bytes 0).  With ``columns``:
    bytes = the uncompressed size of all their leaves, rows = the
    ``num_values`` of the one leaf named ``leaf`` of a list<struct> column
    (the element count — summing every leaf would count each element once
    per struct field; 0 without ``leaf``)."""
    rows = nbytes = 0
    for root, _, files in os.walk(d):
        for f in files:
            if not f.endswith(".parquet"):
                continue
            meta = pq.ParquetFile(os.path.join(root, f)).metadata
            if not columns:
                rows += meta.num_rows
                continue
            for g in range(meta.num_row_groups):
                rg = meta.row_group(g)
                for c in range(rg.num_columns):
                    cc = rg.column(c)
                    path = cc.path_in_schema
                    if path.split(".", 1)[0] not in columns:
                        continue
                    nbytes += cc.total_uncompressed_size
                    if leaf and path.endswith("." + leaf):
                        rows += cc.num_values
    return SizeEstimate(rows, nbytes)


def read_blocks(nbytes: int, ncpu: int) -> int:
    """How many blocks to read ``nbytes`` of uncompressed input into: one
    per ``target_min_block_size`` (Ray's floor, below which per-block
    overhead outweighs the block's work), at least one, at most one per
    CPU.  An input that ``plan_arm`` sends to the salted arm (large against
    the node's object store) is read wide, in ``max(16, ncpu)`` blocks:
    there, blocks of a quarter of the input each throttled the streamed
    mentions unit to half speed (PERF.md round 12)."""
    if plan_arm(SizeEstimate(0, nbytes)) == "salted":
        return max(16, ncpu)
    floor = rd.DataContext.get_current().target_min_block_size
    return max(1, min(ncpu, -(-nbytes // floor)))


def _write(ds, out: str, empty: pa.Schema, **write_kw) -> int:
    """``ds.write_parquet(out)``; returns the rows written.  Ray writes no
    file for a Dataset without rows, so then a typed empty file is left
    instead: units downstream and readers find the table's columns.

    Each file is one row group: without a row-group size Ray's sink lets
    ``pyarrow.dataset.write_dataset`` cut a file's rows into several
    groups; ``1 << 20`` rows is pyarrow's own default cap per group."""
    ds.write_parquet(out, row_group_size=1 << 20, **write_kw)
    rows = _footer_size(out).rows
    if not rows:
        os.makedirs(out, exist_ok=True)
        pq.write_table(empty.empty_table(), os.path.join(out, "empty.parquet"))
    return rows


def _read_small(d: str, columns=None) -> "pd.DataFrame":
    """Driver-side read of a small output table via pyarrow (no Ray job)."""
    return pq.read_table(d, columns=columns).to_pandas()


def gazetteer(nodes_dir: str) -> tuple[list[str], list[str]]:
    """The mentions unit's vocabulary: (names, types) of the longest node
    names (the cap keeps the compiled pattern bounded; documented
    truncation) — same longest-win policy as GazetteerMatcher's own
    MAX_GAZETTEER cap; ties broken by name."""
    names_pdf = _read_small(nodes_dir, ["name", "type"])
    names_pdf = (
        names_pdf.assign(_len=names_pdf["name"].str.len())
        .sort_values(["_len", "name"], ascending=[False, True], kind="mergesort")
        .head(5000)
    )
    return names_pdf["name"].tolist(), names_pdf["type"].tolist()


def run_kg_pipeline(
    pages_path: str,
    out_dir: str,
    resume_granularity: int = 1,
    counter: "ShardedCounter | None" = None,
    tagger: str = "gazetteer",
    _fail_after_units: int | None = None,
) -> dict:
    """Run (or resume) the full pipeline; returns the manifest records and
    the lineage ``counters``, summed over the parsed units' records (each
    holds its own unit's counts, whichever run wrote it).

    ``resume_granularity`` = how many manifest units phase 1 is split into
    (unit g = one Dataset pass over the pages with
    ``bucket_of(url, resume_granularity) == g``).
    ``tagger`` selects the phase-5 mention detector — the pluggable A2
    model slot: ``"gazetteer"`` (vocabulary alternation, oracle-gated),
    ``"crf"`` (numpy BiLSTM-CRF, stages/crf.py), or ``"pattern"``
    (typed regex rules)."""
    import ray

    manifest = Manifest(out_dir)
    done = manifest.done_units()
    counter = counter or ShardedCounter()
    completed_now = 0

    def _checkpoint_gate():
        """Test hook: simulate a mid-run kill after N completed units."""
        nonlocal completed_now
        completed_now += 1
        if _fail_after_units is not None and completed_now >= _fail_after_units:
            raise RuntimeError(f"injected failure after {completed_now} units")

    # ---- phase 1: extract+parse → parsed/group=G --------------------------
    # resume unit = one url-hash group; each group writes its own
    # subdirectory (plain files, one per block)
    parsed_dir = os.path.join(out_dir, "parsed")
    for g in range(resume_granularity):
        unit = f"parsed:group={g}"
        if unit in done:
            continue
        t0 = time.time()
        # each record holds its own group's counts, so a resumed run's
        # records sum to a fresh run's
        counter.reset()
        pages = read_pages(pages_path, columns=["url", "html"])

        def _extract_group(batch: pa.Table, g=g) -> pa.Table:
            if resume_granularity > 1:
                urls = batch.column("url").to_pylist()
                batch = batch.filter(
                    pa.array([bucket_of(u, resume_granularity) == g for u in urls]))
            stats: dict = {}
            parsed = kg.extract_parse_batch(batch, stats=stats)
            stats["pages_in"] = batch.num_rows
            # BLOCKING on purpose: fire-and-forget increments race the
            # driver's get_all after write_parquet (messages from worker
            # callers have no cross-caller ordering vs the driver's read —
            # observed as undercounted manifests in a busy session).  One
            # awaited round trip per 256-page batch (see ShardedCounter).
            counter.incr_many_blocking(stats)
            return parsed

        ds = pages.map_batches(
            _extract_group, batch_format="pyarrow", batch_size=kg.EXTRACT_BATCH_SIZE
        )
        group_dir = os.path.join(parsed_dir, f"group={g}")
        # clean any partial output of a previous killed attempt for this unit
        manifest.clean_unit_dir(group_dir)
        rows = _write(ds, group_dir, PARSED_SCHEMA)
        manifest.mark_done(unit, rows, counters=counter.get_all(), wall_sec=time.time() - t0)
        _checkpoint_gate()

    ncpu = int(ray.cluster_resources().get("CPU", 8))

    def _parsed(columns: list[str]) -> tuple["rd.Dataset", int, int]:
        """The checkpoint's ``columns``, streamed (no corpus-sized dataset
        is pinned in the object store) in as many blocks as their
        uncompressed bytes need; with that block count and byte count,
        both read from the footers."""
        nbytes = _footer_size(parsed_dir, columns).bytes
        n = read_blocks(nbytes, ncpu)
        return rd.read_parquet(parsed_dir, columns=columns, override_num_blocks=n), n, nbytes

    def _plan(column: str, leaf: str) -> tuple[SizeEstimate, dict]:
        """A list column's size estimate, and the manifest fields that
        record it with the arm it picks."""
        est = _footer_size(parsed_dir, [column], leaf)
        return est, {"arm": plan_arm(est), "est_rows": est.rows, "est_bytes": est.bytes}

    # ---- phase 2: nodes ----------------------------------------------------
    nodes_dir = os.path.join(out_dir, "nodes")
    if "nodes" not in done:
        t0 = time.time()
        manifest.clean_unit_dir(nodes_dir)
        est, plan = _plan("nodes", "id")
        parsed, nblocks, _ = _parsed(["url", "nodes"])
        nodes = kg.nodes_ds(parsed, est=est)
        no_nodes = flatten_list_column(PARSED_SCHEMA.empty_table(), "nodes", keep=["url"])
        rows = _write(nodes, nodes_dir, no_nodes.schema)
        manifest.mark_done("nodes", rows, wall_sec=time.time() - t0, **plan,
                           read_blocks=nblocks)
        _checkpoint_gate()

    # ---- phases 3-5: edges / canonical / mentions --------------------------
    # Mutually independent given the parsed checkpoint and the nodes table;
    # run one after another (three streaming executors on one driver GIL
    # thrash — PERF.md round 3).  Each unit writes its own dir and appends
    # its own manifest line.
    edge_schema = kg.edge_schema()
    edges_dir = os.path.join(out_dir, "edges")

    def _run_edges() -> None:
        t0 = time.time()
        manifest.clean_unit_dir(edges_dir)
        est, plan = _plan("triples", "subj")
        node_ids = frozenset(_read_small(nodes_dir, ["id"])["id"])
        parsed, nblocks, _ = _parsed(["url", "triples"])
        edges = kg.edges_ds(parsed, node_ids=node_ids, est=est)
        rows = _write(edges, edges_dir, edge_schema, partition_cols=[kg.BUCKET_COL])
        manifest.mark_done("edges", rows, wall_sec=time.time() - t0, **plan,
                           read_blocks=nblocks)

    canon_dir = os.path.join(out_dir, "canonical")
    ecanon_dir = os.path.join(out_dir, "edges_canonical")

    def _run_canonical() -> None:
        t0 = time.time()
        manifest.clean_unit_dir(canon_dir)
        manifest.clean_unit_dir(ecanon_dir)
        est, plan = _plan("triples", "subj")
        # the deduped nodes table is vocabulary-sized (≪ corpus), so the
        # canonical pick runs driver-side in one pandas pass, not a Ray job
        canon_pdf = canonical_map_pdf(_read_small(nodes_dir, ["url", "seq", "name"]))
        os.makedirs(canon_dir, exist_ok=True)
        pq.write_table(
            pa.Table.from_pandas(canon_pdf, schema=CANON_SCHEMA, preserve_index=False),
            os.path.join(canon_dir, "part-00000.parquet"),
        )
        parsed, nblocks, _ = _parsed(["url", "triples"])
        ecanon = kg.edges_canonical_ds(parsed, canon_map=canon_lookup(canon_pdf), est=est)
        rows = _write(ecanon, ecanon_dir, edge_schema, partition_cols=[kg.BUCKET_COL])
        manifest.mark_done("canonical", rows, wall_sec=time.time() - t0, **plan,
                           read_blocks=nblocks)

    mentions_dir = os.path.join(out_dir, "mentions")

    def _run_mentions() -> None:
        t0 = time.time()
        manifest.clean_unit_dir(mentions_dir)
        extracted, nblocks, nbytes = _parsed(["url", "text_out"])
        if tagger == "crf":
            from ..stages.crf import crf_mentions_ds

            mentions = crf_mentions_ds(extracted)
        elif tagger == "pattern":
            from ..stages.ner import pattern_mentions_ds

            mentions = pattern_mentions_ds(extracted)
        else:
            from ..stages.ner import mentions_ds

            mentions = mentions_ds(extracted, gazetteer(nodes_dir))
        rows = _write(mentions, mentions_dir, MENTIONS_SCHEMA)
        manifest.mark_done("mentions", rows, wall_sec=time.time() - t0,
                           read_blocks=nblocks, est_bytes=nbytes)

    for unit, fn in [("edges", _run_edges), ("canonical", _run_canonical),
                     ("mentions", _run_mentions)]:
        if unit not in done:
            fn()
            _checkpoint_gate()

    records = manifest.records()
    counters = Counter()
    for r in records:
        if r["unit"].startswith("parsed:"):
            counters.update(r["counters"])
    return {"out_dir": out_dir, "records": records, "counters": dict(counters)}


def degree_from_adjacency(out_dir: str, table: str = "edges"):
    """SHUFFLE-FREE per-entity degree over the bucketed adjacency layout.

    The edges and canonical units write ``subj_bucket=K`` dirs holding
    exactly the subjects with ``bucket_of(subj, 16) == K``, rows sorted by
    subj (kg._edge_agg builds the layout in the aggregation's final
    exchange), so every row of a subject lives in one bucket dir — the
    partitioning key chosen at WRITE time is reused at read time: one task
    per bucket does a vectorized local groupby and the results concatenate
    with zero all-to-all exchange.  (At larger bucket sizes the
    within-bucket rows are subj-sorted, so the same aggregation streams.)
    The ``kg_degree`` query is this over the registry's run
    (queries.kg_run)."""
    import glob

    def _agg(batch: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {"subj": batch["subj"], "n_out": 1, "total_weight": batch["weight"]}
        )
        out = d.groupby("subj", sort=False, as_index=False)[["n_out", "total_weight"]].sum()
        for c in ("n_out", "total_weight"):
            out[c] = out[c].astype("int64")
        return out

    dirs = sorted(glob.glob(os.path.join(out_dir, table, "subj_bucket=*")))
    parts = [
        rd.read_parquet(d, columns=["subj", "weight"], override_num_blocks=1).map_batches(
            _agg, batch_size=None, batch_format="pandas"
        )
        for d in dirs
    ]
    if not parts:
        return rd.from_arrow(pa.table({"subj": pa.array([], pa.string()),
                                       "n_out": pa.array([], pa.int64()),
                                       "total_weight": pa.array([], pa.int64())}))
    return parts[0].union(*parts[1:])
