"""Driver-contract query registry: Ray pipelines + DuckDB oracle SQL mirrors.

Each entry of ``QUERIES`` (:func:`build_queries`) is one operator/pipeline
from SURVEY.md §2 (or a training-data op from the task brief), called with
``sf_dir`` alone.  An entry is either the pipeline function itself (e.g.
``textops.dedup_exact_ds``) or a ``q_*`` function that composes one: it
reads a table with named columns, post-processes a result, or builds on the
``kg_run`` tables.  A ``q_*`` function that would only forward ``sf_dir``
does not exist (tests/test_rotation.py scans for one).  The matching entry
in :func:`build_oracle_sql` is ANSI SQL that DuckDB runs on the same inputs.

Oracle-input model: the testdata views (documents, embeddings, lineitem, …)
are pre-registered by the driver; the synthesized pages table and the
single-process-oracle golden tables live under /tmp (pagegen.ensure_pages /
oracle.ensure_golden — both deterministic and idempotent, created when this
module builds the registry and again inside every callable that reads
them).  SQL reads them via read_parquet(path).  Golden-file SQL appears
ONLY where the transform is not SQL-expressible (HTML parsing);
everything downstream of the golden raw
tables (filters, joins, dedup groupbys, linking, degree) is real SQL
semantics recomputed by DuckDB.

Every query over parsed pages or the entity graph (extracted text,
links, the page graph and its operators, raw triples and nodes, nodes,
edges, linking, degree, mentions, near-dup, prompt and export queries)
reads the tables of ONE ``run_kg_pipeline`` run per process
(:func:`kg_run`): the mirrors check the same build that the pipeline and
the benchmarks time, and HTML extraction runs once per corpus per
process.  There is no second build path and no cache shared between
processes.  Only queries that need fields ``parsed/`` does not hold (the
``lang`` pushdown, the full ontology records, every anchor, media, the
url rank) read the pages themselves.

Numeric policy: aggregates are integers (counts, floored cents) so the
driver's value-hash is exact across engines; see pipelines/relational.py.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pandas as pd

from .oracle import ensure_golden, golden_dir
from .pagegen import ensure_pages, pages_path
from .pipelines import kg, relational, textops
from .pipelines.run import _footer_size, read_blocks, run_kg_pipeline
from .sources import read_pages, read_table
from .stages import dedup, embed, ner, simsearch

SF_CORRECTNESS = "/root/testdata/sf0.01"  # the driver's oracle-compare scale

# paths the static SQL strings point at (sf0.01)
_G = golden_dir(SF_CORRECTNESS)
_P = pages_path(SF_CORRECTNESS) + "/*.parquet"  # shard-dir glob for DuckDB

# normalization expression — SQL mirror of stages/linkage.normalize_surface
_NORM = (
    "lower(trim(regexp_replace(regexp_replace({col}, '[《》]', '', 'g'), '\\s+', ' ', 'g')))"
)

_TOKENS = "regexp_split_to_array(regexp_replace({col}, '^\\s+|\\s+$', '', 'g'), '\\s+')"
_NTOK = "CASE WHEN regexp_replace({col}, '^\\s+|\\s+$', '', 'g') = '' THEN 0 ELSE len(regexp_split_to_array(regexp_replace({col}, '^\\s+|\\s+$', '', 'g'), '\\s+')) END"


def _prep(sf_dir: str) -> str:
    """Make sure pages + golden exist for this sf dir; return pages path."""
    p = ensure_pages(sf_dir)
    ensure_golden(sf_dir)
    return p


@functools.cache
def _scratch_root(pid: int) -> str:
    """Process ``pid``'s scratch root, removed when that process exits."""
    import atexit
    import shutil

    root = f"/tmp/kgbh_export/pid{pid}"
    atexit.register(shutil.rmtree, root, ignore_errors=True)
    return root


def _scratch(sf_dir: str, tag: str) -> str:
    """Per-process scratch path for ``kg_run`` and the sink-writing
    queries.  The pid suffix keeps concurrent runs (bench + driver over the
    same sf_dir) from racing on rmtree/write/read-back of a shared fixed
    path."""
    return os.path.join(
        _scratch_root(os.getpid()),
        os.path.basename(os.path.normpath(sf_dir)) + "_" + tag,
    )


@functools.cache
def kg_run(sf_dir: str) -> str:
    """The output dir of one ``run_kg_pipeline`` run (default options) over
    this corpus, made fresh once per process: the entity-graph and
    parsed-page queries read its tables.  Pid-scoped (``_scratch``) and rebuilt by every new
    process, so a pipeline change always reaches the mirrors."""
    import shutil

    out = _scratch(sf_dir, "kg_run")
    shutil.rmtree(out, ignore_errors=True)
    run_kg_pipeline(_prep(sf_dir), out)
    return out


def _run_table(sf_dir: str, table: str, columns: list[str] | None = None):
    """Dataset over one table of this process's ``kg_run``, read in the
    resume units' width: ``run.read_blocks`` of the read columns' bytes."""
    import ray
    import ray.data as rd

    d = os.path.join(kg_run(sf_dir), table)
    n = read_blocks(_footer_size(d, columns).bytes, int(ray.cluster_resources().get("CPU", 8)))
    return rd.read_parquet(d, columns=columns, override_num_blocks=n)


def _texts(sf_dir: str):
    """(url, text_out) of the run's parsed pages."""
    return _run_table(sf_dir, "parsed", ["url", "text_out"])


# the edge tables' columns without the adjacency layout's subj_bucket
_EDGE_COLS = [c for c in kg.edge_schema().names if c != kg.BUCKET_COL]
_EDGE_OUT = ["subj", "pred", "obj", "subj_name", "obj_name", "weight"]


def _query_vectors(sf_dir: str, ids=(0, 1, 2)) -> dict[int, np.ndarray]:
    """Fetch the query vectors with a parquet row filter — only the wanted
    rows' row groups are decoded, never the whole embeddings table."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", list(ids))],
    )
    return {
        vid: np.array(emb, dtype=np.float64)
        for vid, emb in zip(t.column("vec_id").to_pylist(), t.column("embedding").to_pylist())
    }


# ---------------------------------------------------------------------------
# Ray-side callables
# ---------------------------------------------------------------------------


def q_kg_extract(sf_dir: str):
    return _run_table(sf_dir, "parsed", ["url", "title", "summary", "text_out", "n_paras"])


def q_kg_links(sf_dir: str):
    return kg.links_ds(_run_table(sf_dir, "parsed", ["url", "links"]))


def q_kg_triples_raw(sf_dir: str):
    return kg.triples_raw_ds(_run_table(sf_dir, "parsed", ["url", "triples"])).select_columns(
        ["url", "seq", "subj", "pred", "obj", "subj_name", "obj_name", "props_json"]
    )


def q_kg_nodes_raw(sf_dir: str):
    return kg.nodes_raw_ds(_run_table(sf_dir, "parsed", ["url", "nodes"])).select_columns(
        ["url", "seq", "id", "name", "type", "parent", "props_json"]
    )


def q_kg_nodes(sf_dir: str):
    return _run_table(sf_dir, "nodes")


def q_kg_edges(sf_dir: str):
    return _run_table(sf_dir, "edges", _EDGE_OUT)


def q_kg_entity_link(sf_dir: str):
    return _run_table(sf_dir, "canonical")


def q_kg_edges_canonical(sf_dir: str):
    return _run_table(sf_dir, "edges_canonical", _EDGE_OUT)


def q_kg_degree(sf_dir: str):
    from .pipelines.run import degree_from_adjacency

    return degree_from_adjacency(kg_run(sf_dir))


def q_kg_mentions(sf_dir: str):
    """Gazetteer mentions over the run's extracted text, with every
    distinct raw node name as a ``CONCEPT`` — not the run's own mentions
    unit, whose vocabulary is the 5,000 longest names with their types
    (run.gazetteer)."""
    names = q_kg_nodes_raw(sf_dir).unique("name")
    types = ["CONCEPT"] * len(names)
    return ner.mentions_ds(_run_table(sf_dir, "parsed", ["url", "text_out"]), (names, types))


def q_kg_entity_freq(sf_dir: str):
    """Mention-frequency table (the Zipfian head made visible): mentions
    grouped by (entity, etype) with counts."""
    from .stages.grouped import hash_partitioned_agg

    mentions = q_kg_mentions(sf_dir)

    def _to_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"entity": batch["entity"], "etype": batch["etype"], "n_mentions": np.int64(1)}
        )

    def _agg(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["entity", "etype"], sort=False, as_index=False)["n_mentions"].sum()

    return hash_partitioned_agg(
        mentions.map_batches(_to_rows, batch_format="pandas"), ["entity", "etype"], _agg
    )


def q_kg_stats(sf_dir: str):
    """Run-level graph statistics (reference op G8 counters) computed
    distributed: one aggregate pass per table."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .stages.grouped import exchange

    parsed = _run_table(sf_dir, "parsed", ["nodes", "triples", "links"])

    def _partial(batch: pa.Table) -> pa.Table:
        def _total(col: str) -> int:
            # Arrow kernel: per-row list length + sum, no Python per row
            s = pc.sum(pc.list_value_length(batch.column(col)))
            return s.as_py() or 0

        return pa.table(
            {
                "n_pages": pa.array([batch.num_rows], pa.int64()),
                "n_node_occurrences": pa.array([_total("nodes")], pa.int64()),
                "n_triple_occurrences": pa.array([_total("triples")], pa.int64()),
                "n_links": pa.array([_total("links")], pa.int64()),
            }
        )

    # keyless total: every partial routes to the one partition
    return exchange(
        parsed.map_batches(_partial, batch_format="pyarrow"),
        lambda df: np.zeros(len(df), dtype="int64"),
        lambda g: g.sum().to_frame().T.astype("int64"),
        num_parts=1,
    )


def q_kg_extract_zh(sf_dir: str):
    """Predicate-pushdown demo: row filter + column pruning at the read —
    only zh rows' url+html columns leave storage."""
    import pyarrow.compute as pc
    import ray.data as rd

    from .pipelines.kg import EXTRACT_BATCH_SIZE
    from .stages.extract import extract_text_batch

    pages = rd.read_parquet(
        _prep(sf_dir),
        columns=["url", "html"],
        filter=(pc.field("lang") == "zh"),  # row-group/row pushdown
    )
    return pages.map_batches(
        extract_text_batch, batch_format="pyarrow", batch_size=EXTRACT_BATCH_SIZE
    )


def q_kg_links_all(sf_dir: str):
    """M2 — every anchor with nonempty text+href, page-wide."""
    from .functions.htmlparse import extract_page, is_verification_page

    def _batch(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"url": [], "text": [], "href": []}
        for url, html in zip(batch["url"], batch["html"]):
            h = html.decode("utf-8")
            if is_verification_page(h):
                continue
            for l in extract_page(h)["links_all"]:
                out["url"].append(url)
                out["text"].append(l["text"])
                out["href"].append(l["url"])
        return pd.DataFrame(out)

    return read_pages(_prep(sf_dir), columns=["url", "html"]).map_batches(
        _batch, batch_format="pandas"
    )


def q_kg_mentions_pattern(sf_dir: str):
    """Rule-pattern mention detector (the second tagger of the DAG)."""
    from .stages.ner import pattern_mentions_ds

    return pattern_mentions_ds(_texts(sf_dir))


def q_kg_pagerank(sf_dir: str):
    """PageRank over the page-link graph (10 iterations, d=0.85) — the
    iterative-join round machinery of stages/pagerank.py; ranks rounded to
    integer micros so output is stable against float summation order."""
    from .stages.pagerank import pagerank_ds

    ranks = pagerank_ds(q_kg_page_graph_edges(sf_dir))

    def _round(d: pd.DataFrame) -> pd.DataFrame:
        if "rank" not in d.columns:
            return pd.DataFrame({"url": pd.Series([], dtype=object),
                                 "rank_micros": pd.Series([], dtype="int64")})
        return pd.DataFrame(
            {"url": d["url"], "rank_micros": np.rint(d["rank"] * 1e6).astype("int64")}
        )

    return ranks.map_batches(_round, batch_format="pandas")


def q_kg_page_components(sf_dir: str):
    """Connected components of the page-link graph (undirected) — the same
    counted-dispatch CC as dedup_clusters, on graph edges."""
    from .stages.cc import connected_components_ds

    return connected_components_ds(q_kg_page_graph_edges(sf_dir), a="src_url", b="dst_url")


def q_kg_cooccurrence(sf_dir: str):
    """Entity co-occurrence edges: distinct entity pairs co-mentioned in
    the same paragraph, counted corpus-wide (the standard co-mention
    relation signal).  Pair generation reuses the dedup machinery's
    vectorized bucket layout — one triu per distinct paragraph-entity-count
    — then the salted count collapses the Zipfian pair keys."""
    from .stages.dedup import _bucket_layout, _intra_bucket_pairs
    from .stages.grouped import exchange, hash_partitioned_agg

    mentions = q_kg_mentions(sf_dir)

    def _distinct_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[["url", "para_idx", "entity"]].drop_duplicates()

    def _pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(subset=["url", "para_idx", "entity"])
        g = g.sort_values(["url", "para_idx", "entity"], kind="mergesort").reset_index(drop=True)
        g["_pk"] = g["url"].astype(str) + "\x1f" + g["para_idx"].astype(str)
        starts, counts = _bucket_layout(g, ["_pk"])
        I, J = _intra_bucket_pairs(starts, counts)
        ents = g["entity"].to_numpy()
        return pd.DataFrame({"entity_a": ents[I], "entity_b": ents[J],
                             "n_pairs": np.int64(1)})

    def _sum(d: pd.DataFrame) -> pd.DataFrame:
        out = d.groupby(["entity_a", "entity_b"], sort=False, as_index=False)["n_pairs"].sum()
        out["n_pairs"] = out["n_pairs"].astype("int64")
        return out

    pair_rows = exchange(mentions, ["url", "para_idx"], _pairs, 8, map=_distinct_rows)
    return hash_partitioned_agg(pair_rows, ["entity_a", "entity_b"], _sum, num_parts=8)


def q_kg_ancestors(sf_dir: str):
    """Transitive parent (subclass) closure with depth, capped at 10 —
    the ontology-side counterpart of rdfs:subClassOf chains.  Fully
    distributed: frontier-composition doubling over the node Dataset
    (stages/cc.ancestor_closure_ds — ceil(log2(10)) reduce-side joins, no
    driver-side pointer chasing); self-loop chains terminate at the depth
    cap exactly like the SQL recursion."""
    from .stages.cc import ancestor_closure_ds

    return ancestor_closure_ds(_run_table(sf_dir, "nodes", ["id", "parent"]))


def q_kg_triangles(sf_dir: str):
    """Distinct triangles of the undirected page-link graph (u < v < w)."""
    from .stages.pagerank import triangles_ds

    return triangles_ds(q_kg_page_graph_edges(sf_dir))


NSIM_MAX_MIDDLE_DEGREE = 64  # shared with the SQL mirror's capped adj CTE


def q_kg_node_similarity(sf_dir: str):
    """Common-neighbor Jaccard over the undirected page-link graph
    (link-prediction feature): pairs sharing ≥1 neighbor, integer-micro
    scores — wedge pair generation + reduce-side degree attach.

    The stop-hub cut is ON by default: a middle of degree d witnesses
    d(d-1)/2 pairs, so on a Zipfian web graph the uncapped default path
    has an unbounded quadratic blowup.  Middles with degree >
    NSIM_MAX_MIDDLE_DEGREE are dropped BEFORE pair generation (their
    similarity signal is ~zero anyway); deg_a/deg_b stay FULL degrees.
    The mirror applies the identical cut in its capped-adjacency CTE."""
    from .stages.pagerank import node_similarity_ds

    return node_similarity_ds(q_kg_page_graph_edges(sf_dir),
                              max_middle_degree=NSIM_MAX_MIDDLE_DEGREE)


def q_media_features(sf_dir: str):
    """Media feature extraction through the actor-pool decode slot (decoder
    is the marked deterministic stand-in — no media libs in this env).

    The stage output keeps the native ``list<float>`` feature column; this
    driver-facing view EXPLODES it to (url, width, height, feat_idx,
    feat_val) scalar rows so the deterministic stand-in becomes value-hash
    checkable against a DuckDB mirror (list columns can't hash-compare —
    ndarray vs list repr)."""
    from .stages.media import media_features_ds

    feats = media_features_ds(read_pages(_prep(sf_dir), columns=["url", "html"]))

    def _explode(d: pd.DataFrame) -> pd.DataFrame:
        if "url" not in d.columns or not len(d):
            return pd.DataFrame({"url": pd.Series([], dtype=object),
                                 "width": pd.Series([], dtype="int64"),
                                 "height": pd.Series([], dtype="int64"),
                                 "feat_idx": pd.Series([], dtype="int64"),
                                 "feat_val": pd.Series([], dtype="float64")})
        F = np.vstack([np.asarray(f, dtype=np.float64) for f in d["feature"]])
        n, k = F.shape
        idx = np.repeat(np.arange(n), k)
        return pd.DataFrame({
            "url": d["url"].to_numpy()[idx],
            "width": d["width"].to_numpy()[idx].astype("int64"),
            "height": d["height"].to_numpy()[idx].astype("int64"),
            "feat_idx": np.tile(np.arange(1, k + 1, dtype="int64"), n),
            "feat_val": F.ravel(),
        })

    return feats.map_batches(_explode, batch_format="pandas")


def q_export_graph(sf_dir: str):
    """Distributed export sinks end-to-end: partitioned TTL + Neo4j
    relations CSV written under /tmp, returning a stable one-row summary
    (fragment paths are content-hashed; counts are deterministic)."""
    import shutil

    from .exporters.distributed import write_relations_csv_partitioned, write_ttl_partitioned

    nodes_pdf = q_kg_nodes(sf_dir).to_pandas()  # vocabulary-sized
    edges = _run_table(sf_dir, "edges", _EDGE_COLS)
    out_root = _scratch(sf_dir, "export_graph")
    shutil.rmtree(out_root, ignore_errors=True)
    m_ttl = write_ttl_partitioned(nodes_pdf, edges, os.path.join(out_root, "ttl"))
    m_csv = write_relations_csv_partitioned(edges, os.path.join(out_root, "csv"))
    return pd.DataFrame(
        {
            "n_nodes": pd.Series([len(nodes_pdf)], dtype="int64"),
            "ttl_edges_written": pd.Series([int(m_ttl["n_rows"].sum())], dtype="int64"),
            "csv_edges_written": pd.Series([int(m_csv["n_rows"].sum())], dtype="int64"),
        }
    )


def q_export_json(sf_dir: str):
    """W5 graph-JSON exporter ROUND-TRIP, fully streamed: build the
    constructor-style knowledge-graph JSON (page-graph nodes/edges +
    ontology records, constructor.py:121-131, 253-277) as DISTRIBUTED
    per-node fragments (sorted-rank indices, reduce-side record/link
    attachment), stream the sorted fragments to one file under /tmp
    (the reference's single-file visualization artifact — the driver
    holds one batch at a time), then stream-PARSE the file back
    (incremental ``raw_decode``) and emit structural invariants
    recomputed from the parsed elements — node count, child/parent link
    counts, the sum of child target indices (pins the sorted-url index
    wiring through the file), and the lexicographically-first node's
    name.  No page-graph-scale driver materialization on either side;
    byte-parity with the serial ``page_graph_to_json`` reference is
    pinned in tests/test_graph_and_export.py."""
    from .exporters.graph_json import (
        iter_json_array,
        page_graph_fragments_ds,
        write_json_array_stream,
    )

    frags = page_graph_fragments_ds(
        q_kg_records(sf_dir), q_kg_page_graph_nodes(sf_dir), q_kg_page_graph_edges(sf_dir)
    )
    out = _scratch(sf_dir, "graph.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    write_json_array_stream(frags, out)
    n_nodes = n_child = n_parent = sum_child_idx = 0
    first_name = ""
    for g in iter_json_array(out):
        if not n_nodes:
            first_name = g["name"]  # sorted-url order — first is min(url)
        n_nodes += 1
        n_child += len(g["children"])
        n_parent += len(g["parents"])
        sum_child_idx += sum(c["index"] for c in g["children"])
    return pd.DataFrame({
        "n_nodes": pd.Series([n_nodes], dtype="int64"),
        "n_child_links": pd.Series([n_child], dtype="int64"),
        "n_parent_links": pd.Series([n_parent], dtype="int64"),
        "sum_child_index": pd.Series([sum_child_idx], dtype="int64"),
        "first_node_name": [first_name],
    })


def q_csv_roundtrip(sf_dir: str):
    """S7 CSV reader driver check: the Neo4j relations CSVs written by the
    DISTRIBUTED sink are read BACK through the engine's parallel CSV
    reader (``sources.read_csv`` over the fragment directory) and
    re-aggregated — row count, distinct start ids, distinct relation
    types, all recomputed from the file bytes."""
    import shutil

    from .exporters.distributed import write_relations_csv_partitioned
    from .sources import read_csv

    out_dir = _scratch(sf_dir, "csv_roundtrip")
    shutil.rmtree(out_dir, ignore_errors=True)
    write_relations_csv_partitioned(_run_table(sf_dir, "edges", _EDGE_COLS), out_dir)
    back = read_csv(out_dir).to_pandas()
    return pd.DataFrame({
        "n_rows": pd.Series([len(back)], dtype="int64"),
        "n_start_ids": pd.Series([back[":START_ID"].nunique()], dtype="int64"),
        "n_rel_types": pd.Series([back[":TYPE"].nunique()], dtype="int64"),
    })


PROMPT_TEMPLATE = "请将以下文本判断并整理为概念与关系的markdown结构"


def q_prompt_assembly(sf_dir: str):
    """M18 prompt assembler over the extracted corpus: the reference's
    template + data concatenation (read_instruct.py:163-176, reproduced by
    functions/prompt.py:assemble_prompt) applied to every page's extracted
    text — (url, prompt, n_prompt_chars), built vectorized (one pandas str
    concat per batch; assemble_prompt's f-string IS this concatenation,
    equality pinned in tests/test_misc_ops.py)."""
    from .functions.prompt import assemble_prompt

    sep = "\n\n请开始判断以下数据:\n\n"
    ex = _texts(sf_dir)

    def _assemble(batch: pd.DataFrame) -> pd.DataFrame:
        prompts = PROMPT_TEMPLATE + sep + batch["text_out"]
        out = pd.DataFrame({
            "url": batch["url"],
            "prompt": prompts,
            "n_prompt_chars": prompts.str.len().astype("int64"),
        })
        # the vectorized concat must equal the slot function row-for-row
        if len(out):
            assert out["prompt"].iloc[0] == assemble_prompt(
                PROMPT_TEMPLATE, batch["text_out"].iloc[0])
        return out

    return ex.map_batches(_assemble, batch_format="pandas")


TOKEN_BUDGET = 512  # shared with the SQL mirror


def q_token_budget(sf_dir: str):
    """T6 token-budget truncation over the extracted corpus: each page's
    paragraphs run through the REAL ``truncate_to_budget`` greedy
    drop-largest rule (read_v2.py:42-53 — drop the largest item, earliest
    index first on ties, until the ``len//2`` token estimate fits the
    budget); emits per-page (n_items, n_kept, n_dropped, est_total,
    est_kept).  The mirror reproduces the greedy as a cumulative sum over
    (estimate DESC, position ASC): a row is dropped iff the running total
    BEFORE it still exceeds the budget."""
    from .functions.budget import estimate_tokens, truncate_to_budget

    ex = _texts(sf_dir)

    def _budget(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"url": [], "n_items": [], "n_kept": [], "n_dropped": [],
               "est_total": [], "est_kept": []}
        for url, text in zip(batch["url"], batch["text_out"]):
            items = text.split("\n")
            kept, dropped = truncate_to_budget(items, budget=TOKEN_BUDGET)
            out["url"].append(url)
            out["n_items"].append(len(items))
            out["n_kept"].append(len(kept))
            out["n_dropped"].append(len(dropped))
            out["est_total"].append(sum(estimate_tokens(t) for t in items))
            out["est_kept"].append(sum(estimate_tokens(t) for t in kept))
        df = pd.DataFrame(out)
        for c in ("n_items", "n_kept", "n_dropped", "est_total", "est_kept"):
            df[c] = df[c].astype("int64")
        return df

    return ex.map_batches(_budget, batch_format="pandas")


def q_pipeline_counters(sf_dir: str):
    """A5/G8 driver check: read back the write-then-log manifest of the
    RESUMABLE headline pipeline's run (``kg_run``, the run every
    entity-graph query reads) and emit the lineage rows + quarantine
    counters AS RECORDED IN THE MANIFEST FILE — unit row counts for
    parsed/nodes/edges and the pages_in/pages_dropped_verification
    counters — hash-checked against independent SQL counts over the
    golden tables."""
    import json as _json

    out_dir = kg_run(sf_dir)
    rows: dict[str, int] = {}
    counters: dict[str, int] = {}
    with open(os.path.join(out_dir, "manifest.jsonl"), encoding="utf-8") as f:
        for line in f:
            r = _json.loads(line)
            unit = r["unit"].split(":")[0]
            rows[unit] = rows.get(unit, 0) + int(r["rows"])
            for k, v in (r.get("counters") or {}).items():
                counters[k] = counters.get(k, 0) + int(v)
    out = [
        ("counter:pages_in", counters.get("pages_in", 0)),
        ("counter:pages_dropped_verification",
         counters.get("pages_dropped_verification", 0)),
        ("unit:parsed", rows.get("parsed", 0)),
        ("unit:nodes", rows.get("nodes", 0)),
        ("unit:edges", rows.get("edges", 0)),
    ]
    return pd.DataFrame({"k": [k for k, _ in out],
                         "v": pd.Series([v for _, v in out], dtype="int64")})


def q_mention_coverage(sf_dir: str):
    """G9 driver check — entity-level set precision/recall/F1 of the
    mention detector's surface vocabulary vs the raw node-name vocabulary
    (the mention-coverage audit: which concepts actually occur in text).
    Distributed set compare: two distinct aggregates → tagged union → one
    name-hash exchange with per-partition tp/fp/fn partials; the scalar
    P/R/F1 goes through the REAL ``triple_prf`` (functions/metrics.py, the
    north-rule scorer) and is emitted as exact integer micros."""
    import numpy as np

    from .functions.metrics import triple_prf
    from .stages.grouped import distinct_block, exchange, hash_partitioned_agg

    ments = q_kg_mentions(sf_dir).map_batches(
        lambda d: pd.DataFrame({"name": d.get("entity", [])}),
        batch_format="pandas")
    m_set = hash_partitioned_agg(ments, ["name"], distinct_block(["name"]))
    n_set = hash_partitioned_agg(
        q_kg_nodes_raw(sf_dir).map_batches(
            lambda d: pd.DataFrame({"name": d.get("name", [])}),
            batch_format="pandas"),
        ["name"], distinct_block(["name"]))

    def _tag(bit):
        def _f(d: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"name": d.get("name", []), "bit": np.int64(bit)})
        return _f

    def _counts(g: pd.DataFrame) -> pd.DataFrame:
        bits = g.groupby("name", sort=False)["bit"].sum()
        return pd.DataFrame({"tp": [int((bits == 3).sum())],
                             "fp": [int((bits == 1).sum())],
                             "fn": [int((bits == 2).sum())]}).astype("int64")

    parts = exchange(
        m_set.map_batches(_tag(1), batch_format="pandas")
        .union(n_set.map_batches(_tag(2), batch_format="pandas")),
        ["name"], _counts, 8,
    ).to_pandas()  # ≤8 partial rows
    tp, fp, fn = (int(parts["tp"].sum()), int(parts["fp"].sum()),
                  int(parts["fn"].sum()))
    # drive the real G9 scorer on TINY synthetic sets (counts capped — the
    # real tp is vocabulary-sized, so building tp-sized sets on the driver
    # would be O(vocab) memory for a sanity check) and pin its floats
    # against the same integer-micro rule used for the real counts
    tp_s, fp_s, fn_s = min(tp, 7), min(fp, 5), min(fn, 3)
    pred = {f"p{i}" for i in range(tp_s)} | {f"x{i}" for i in range(fp_s)}
    gold = {f"p{i}" for i in range(tp_s)} | {f"y{i}" for i in range(fn_s)}
    prf = triple_prf(pred, gold)
    p_s = tp_s * 1_000_000 // (tp_s + fp_s) if tp_s + fp_s else 0
    r_s = tp_s * 1_000_000 // (tp_s + fn_s) if tp_s + fn_s else 0
    if (abs(prf["precision"] * 1_000_000 - p_s) > 1
            or abs(prf["recall"] * 1_000_000 - r_s) > 1):
        raise RuntimeError(
            f"triple_prf cross-check failed: {prf} vs micros ({p_s}, {r_s})")
    p_micros = tp * 1_000_000 // (tp + fp) if tp + fp else 0
    r_micros = tp * 1_000_000 // (tp + fn) if tp + fn else 0
    f_micros = 2 * tp * 1_000_000 // (2 * tp + fp + fn) if tp + fp + fn else 0
    return pd.DataFrame({
        "tp": pd.Series([tp], dtype="int64"),
        "fp": pd.Series([fp], dtype="int64"),
        "fn": pd.Series([fn], dtype="int64"),
        "precision_micros": pd.Series([p_micros], dtype="int64"),
        "recall_micros": pd.Series([r_micros], dtype="int64"),
        "f1_micros": pd.Series([f_micros], dtype="int64"),
    })


def q_kg_mentions_crf(sf_dir: str):
    """BiLSTM-CRF mention detector — the A2 model slot with REAL inference
    math (numpy BiLSTM + CRF Viterbi, deterministic seeded weights; see
    stages/crf.py).  Batch-composition-invariant, so distributed output is
    deterministic; gated by tests/test_crf.py against a scalar oracle."""
    from .stages.crf import crf_mentions_ds

    return crf_mentions_ds(_texts(sf_dir))


def q_kg_node_parents(sf_dir: str):
    return kg.node_parents_ds(q_kg_nodes(sf_dir))


def q_kg_bfs(sf_dir: str):
    """BFS depth = min link distance (≤ 2) from the start page.  The node
    cap is set far above the reachable set so depth ≡ min-distance and the
    result is SQL-mirrorable (recursive CTE); the cap semantics themselves
    are pytest-covered (tests/test_misc_ops.py)."""
    start = "https://baike.baidu.com/item/doc0/0"
    return kg.bfs_reachable(_run_table(sf_dir, "parsed", ["url", "links"]), start,
                            max_depth=2, max_nodes=1_000_000)


def q_kg_records(sf_dir: str):
    from .stages.extract import extract_records_batch

    return read_pages(_prep(sf_dir), columns=["url", "html"]).map_batches(
        extract_records_batch, batch_format="pyarrow", batch_size=256
    )


def q_kg_page_graph_nodes(sf_dir: str):
    return kg.page_graph_nodes_ds(_run_table(sf_dir, "parsed", ["url", "title", "links"]))


def q_kg_page_graph_edges(sf_dir: str):
    return kg.page_graph_edges_ds(_run_table(sf_dir, "parsed", ["url", "links"]))


def q_kg_chunks(sf_dir: str):
    """Structure-aware markdown chunker (M9) over the documents table —
    1→N rows; chunks concatenate byte-identically to the input (pytest)."""
    from .functions.chunker import split_md_content

    def _chunk(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"doc_id": [], "chunk_idx": [], "chunk": [], "n_bytes": []}
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            for i, chunk in enumerate(split_md_content(text, max_length=256, tolerance=32)):
                out["doc_id"].append(doc_id)
                out["chunk_idx"].append(i)
                out["chunk"].append(chunk)
                out["n_bytes"].append(len(chunk.encode("utf-8")))
        df = pd.DataFrame(out)
        df["chunk_idx"] = df["chunk_idx"].astype("int64")
        df["n_bytes"] = df["n_bytes"].astype("int64")
        return df

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(_chunk, batch_format="pandas")


def q_dedup_clusters(sf_dir: str):
    """Near-dup clusters: minhash-LSH pairs → distributed min-label
    connected components (union-find-style aggregate)."""
    from .stages.cc import connected_components_ds

    pairs = dedup.minhash_pairs_ds(_texts(sf_dir), "url", "text_out", threshold=0.9)
    return connected_components_ds(pairs)


def q_media_meta(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from .stages.media import media_meta_batch

    return read_pages(_prep(sf_dir), columns=["url", "html"]).map_batches(
        media_meta_batch, batch_format="pyarrow"
    )


def q_lang_id(sf_dir: str):
    return _texts(sf_dir).map_batches(
        lambda b: textops.lang_id_batch(b, "text_out", "url"), batch_format="pandas"
    )


def q_top_anchor_texts(sf_dir: str):
    """Per-key top-k (heavy hitters): most frequent anchor texts per link
    target, salted count + partitioned rank."""
    return relational.top_anchor_texts_ds(sf_dir, q_kg_links_all(sf_dir), k=3)


def q_kg_pages_without_links(sf_dir: str):
    """Anti-join (NOT IN): crawled pages no other page links to (zero
    inbound scoped links) — reduce-side anti semi-join, no broadcast (the
    matching side is corpus-sized)."""
    from .stages.grouped import distinct_block, hash_partitioned_agg, reduce_side_join

    ext = _run_table(sf_dir, "parsed", ["url", "title", "n_paras"])
    targets = hash_partitioned_agg(
        q_kg_links(sf_dir).select_columns(["link_url"]), ["link_url"],
        distinct_block(["link_url"]),
    )
    out = reduce_side_join(ext, ["url", "title", "n_paras"], "url", targets, "link_url",
                           how="anti")

    def _pin(d: pd.DataFrame) -> pd.DataFrame:
        if "n_paras" not in d.columns:  # empty passthrough block
            return pd.DataFrame(
                {"url": pd.Series([], dtype=object), "title": pd.Series([], dtype=object),
                 "n_paras": pd.Series([], dtype="int64")}
            )
        return d.assign(n_paras=d["n_paras"].astype("int64"))

    return out.map_batches(_pin, batch_format="pandas")


def q_simsearch_topk(sf_dir: str):
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return simsearch.brute_topk_ds(emb, _query_vectors(sf_dir), "vec_id", "embedding", k=10)


def q_simsearch_lsh(sf_dir: str):
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return simsearch.lsh_topk_ds(emb, _query_vectors(sf_dir), "vec_id", "embedding", k=10)


def q_simsearch_ivf(sf_dir: str):
    """IVF coarse-quantizer ANN (deterministic k-means centroids; recall
    property-tested vs brute force)."""
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return simsearch.ivf_topk_ds(emb, _query_vectors(sf_dir), "vec_id", "embedding", k=10)


def q_dedup_embedding(sf_dir: str):
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])
    return dedup.embedding_pairs_ds(emb, "label", "vec_id", "embedding", threshold=0.3)


def q_dedup_embedding_lsh(sf_dir: str):
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return dedup.embedding_pairs_lsh_ds(emb, "vec_id", "embedding", threshold=0.3)


def q_dedup_jaccard(sf_dir: str):
    docs = read_table(sf_dir, "documents", columns=["doc_id", "source", "text"])
    return dedup.jaccard_pairs_ds(docs, "source", "doc_id", "text", threshold=0.5)


def q_dedup_minhash(sf_dir: str):
    return dedup.minhash_pairs_ds(_texts(sf_dir), "url", "text_out", threshold=0.8)


def q_dedup_simhash(sf_dir: str):
    return dedup.simhash_pairs_ds(_texts(sf_dir), "url", "text_out", max_hamming=3)


def _explode_embedding(keys: list[str]):
    """Batch UDF: (keys..., embedding list<float32>) → (keys..., dim_idx,
    val int64) scalar rows — the stand-in encoder emits exact integers, so
    the exploded view value-hashes against the md5-arithmetic SQL mirror
    (list columns can't hash-compare: ndarray vs list repr)."""

    def _f(d: pd.DataFrame) -> pd.DataFrame:
        if "embedding" not in d.columns or not len(d):
            cols = {c: pd.Series([], dtype=object) for c in keys}
            cols["dim_idx"] = pd.Series([], dtype="int64")
            cols["val"] = pd.Series([], dtype="int64")
            return pd.DataFrame(cols)
        E = np.vstack([np.asarray(e) for e in d["embedding"]])
        n, k = E.shape
        idx = np.repeat(np.arange(n), k)
        out = {c: d[c].to_numpy()[idx] for c in keys}
        out["dim_idx"] = np.tile(np.arange(1, k + 1, dtype="int64"), n)
        out["val"] = E.ravel().astype("int64")
        return pd.DataFrame(out)

    return _f


def q_embed_concepts(sf_dir: str):
    nodes = _run_table(sf_dir, "nodes", ["id", "name"])
    return embed.embed_ds(nodes, "name").map_batches(
        _explode_embedding(["id", "name"]), batch_format="pandas"
    )


def q_embed_relations(sf_dir: str):
    """Relation-phrase embeddings (embedding_generator.py:50-67): phrase =
    "{subj_name} {pred} {obj_name}", encoded by the actor pool."""
    edges = _run_table(sf_dir, "edges", _EDGE_COLS).map_batches(
        embed.relation_phrase_batch, batch_format="pandas"
    )
    return embed.embed_ds(edges, "phrase").map_batches(
        _explode_embedding(["phrase", "subj", "obj"]), batch_format="pandas"
    )


def q_rag_topk(sf_dir: str):
    """RAG concept retrieval: cosine top-5 node names for query '实体1'.
    Similarity is emitted as int64 micros: the integer-component vectors
    make dot/norms exact in float64, so micro-rounding erases only the
    final division/sqrt ulp — hash-stable vs the SQL mirror."""
    nodes = _run_table(sf_dir, "nodes", ["id", "name"])
    embedded = embed.embed_ds(nodes, "name")
    top = embed.rag_topk(embedded, "实体1", "name", k=5)
    return pd.DataFrame(
        {
            "name": top["name"],
            "sim_micros": np.rint(top["similarity"].to_numpy() * 1e6).astype("int64"),
        }
    )


def q_kg_kcore(sf_dir: str):
    """4-core of the undirected page-link graph: iterative degree-peel to
    fixpoint (counted dispatch + reduce-side rounds, stages/pagerank.py).
    k=4 peels a nontrivial shell at sf0.01 (472 of 500 pages survive,
    3 rounds); the SQL mirror unrolls 6 MATERIALIZED rounds — a pytest
    asserts the peel converges within that budget on the test corpus."""
    from .stages.pagerank import k_core_ds

    return k_core_ds(q_kg_page_graph_edges(sf_dir), k=4)


def q_boilerplate_strip(sf_dir: str):
    """Boilerplate line removal: lines on ≥ half of all pages stripped
    everywhere (one line-hash shuffle + bounded broadcast, two streaming
    passes — pipelines/textops.py)."""
    return textops.boilerplate_strip_core(_texts(sf_dir))


def q_dedup_semantic(sf_dir: str):
    """SemDeDup (arXiv:2303.09540): k-means-clustered embedding corpus,
    greedy within-cluster cosine dedup — per-row keep/dup_of verdicts.
    Non-SQL (k-means); truth check = independent serial reference in
    tests/test_dedup.py."""
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return dedup.semantic_dedup_ds(emb, "vec_id", "embedding", threshold=0.3)


SUBSTRING_K = 8  # shared with the SQL mirror


def q_dedup_substring(sf_dir: str):
    """Exact-substring span dedup (Lee et al. 2021 positional-k-gram
    flavor): per-doc maximal spans of tokens covered by k-grams occurring
    ≥2 times anywhere in the corpus (within- OR cross-doc) — one gram-key
    exchange (local ≥2 verdict), one doc-key exchange (gaps-and-islands
    span merge)."""
    from .pipelines.traintext import substring_spans_ds

    return substring_spans_ds(sf_dir, k=SUBSTRING_K)


def q_dedup_substring_clean(sf_dir: str):
    """The removal transform of exact-substring dedup: per-doc cleaned text
    with every duplicated-k-gram-covered token dropped (aggressive
    drop-all-copies policy; whitespace-normalized lowercase output by
    construction) — shared gram-key exchange + one text-scale doc-key
    exchange."""
    from .pipelines.traintext import substring_clean_ds

    return substring_clean_ds(sf_dir, k=SUBSTRING_K)


def q_embedding_clusters(sf_dir: str):
    """First-class k-means assignment over the embeddings table (the IVF /
    SemDeDup coarse quantizer as its own operator): driver-trained
    centroids broadcast once, one shuffle-free matmul pass.  Non-SQL
    (k-means); consistency with dedup_semantic's cluster ids is
    pytest-pinned (stages/simsearch.py:embedding_clusters_ds)."""
    from .stages.simsearch import embedding_clusters_ds

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return embedding_clusters_ds(emb, "vec_id", "embedding", n_centroids=16)


def q_sorted_rank(sf_dir: str):
    """Distributed dense rank by sort key (zip-with-sorted-index, the op
    Ray Data lacks): every page's 0-based position in the global
    ascending-url order via sampled bucket boundaries + per-bucket prefix
    offsets — NO driver-side sort or materialization (stages/rank.py,
    the machinery under the streamed graph-JSON exporter).  Mirror:
    ``row_number() OVER (ORDER BY url) - 1``."""
    from .stages.rank import attach_sorted_rank

    return attach_sorted_rank(
        read_pages(_prep(sf_dir), columns=["url"]), "url", rank_col="rank",
    )


BPE_MERGE_BATCH = 8  # batched rounds: ~8× fewer pair-count shuffles


def q_bpe_encode(sf_dir: str):
    """Encode side of the tokenizer story: train the 30-merge BPE table
    (batched rounds — see q_bpe_merges), then one shuffle-free map_batches
    pass over the corpus with a word-type memo — (doc_id, n_words,
    n_pieces).  Non-SQL (rank-ordered merge walk); truth = serial
    reference in tests/test_traintext.py."""
    from .pipelines.traintext import bpe_encode_ds

    return bpe_encode_ds(sf_dir, n_merges=30, merge_batch=BPE_MERGE_BATCH)


def q_bpe_merges(sf_dir: str):
    """BPE tokenizer-training merge table (Sennrich 2016): one corpus-scale
    word-count shuffle, then the iterative merge loop over the word-TYPE
    table only.  Ships the BATCHED-round variant (merge_batch=8: greedy
    symbol-disjoint top-K per round — the standard fast-trainer path;
    every distributed round costs a pair-count shuffle, so 30 one-merge
    rounds is a pure latency floor at any scale).  Classic one-merge
    rounds stay available via merge_batch=1 and both modes are pinned
    against serial references.  Non-SQL (iterative argmax); truth =
    tests/test_traintext.py."""
    from .pipelines.traintext import bpe_merges_ds

    return bpe_merges_ds(sf_dir, n_merges=30, merge_batch=BPE_MERGE_BATCH)


# Ordering contract: the driver caps checked queries (~50/round); the dict
# order IS the check window.  ROTATION POLICY: every mirror must have a
# hash-green CORRECTNESS row at most one round old.  The order below is
# the output of ``python tools/rotation_plan.py`` (which reports
# "invariant OK"): the 50 stalest mirrors lead — the 41 whose last green
# row is r4, then 9 r5-green ones in registry order — and every mirror
# displaced past the cap is hash-green in CORRECTNESS_r05.json
# (machine-checked by tests/test_rotation.py).  The no-oracle queries
# follow; each already has a CORRECTNESS row, and each keeps a
# serial-reference/property pytest.
QUERIES = {
    # --- in-cap: stalest mirrors first (rotation_plan.py order) ---
    "sample_weighted": textops.sample_weighted_ds,
    "dedup_jaccard": q_dedup_jaccard,
    "token_count_by_lang": textops.token_count_by_lang_ds,
    "curate_corpus": textops.curate_corpus_ds,
    "inverted_index": textops.inverted_index_ds,
    "pack_sequences": textops.pack_sequences_ds,
    "csv_roundtrip": q_csv_roundtrip,
    "prompt_assembly": q_prompt_assembly,
    "token_budget": q_token_budget,
    "sample_uniform": textops.sample_uniform_ds,
    "embed_relations": q_embed_relations,
    "mix_corpora": textops.mix_corpora_ds,
    "kg_node_similarity": q_kg_node_similarity,
    "shuffle_shard": textops.shuffle_shard_ds,
    "source_cap": textops.source_cap_ds,
    "kg_nodes_raw": q_kg_nodes_raw,
    "kg_entity_link": q_kg_entity_link,
    "kg_cooccurrence": q_kg_cooccurrence,
    "agg_lineitem": relational.agg_lineitem_ds,
    "events_quantiles": relational.events_quantiles_ds,
    "kg_page_graph_edges": q_kg_page_graph_edges,
    "events_with_sessions": relational.events_with_sessions_ds,
    "dedup_exact": textops.dedup_exact_ds,
    "kg_extract_zh": q_kg_extract_zh,
    "kg_degree": q_kg_degree,
    "media_meta": q_media_meta,
    "kg_records": q_kg_records,
    "kg_links_all": q_kg_links_all,
    "events_window": relational.events_window_ds,
    "lang_id": q_lang_id,
    "top_parts": relational.top_parts_ds,
    "kg_stats": q_kg_stats,
    "kg_pagerank": q_kg_pagerank,
    "kg_kcore": q_kg_kcore,
    "events_asof_join": relational.events_asof_join_ds,
    "events_running_total": relational.events_running_total_ds,
    "profile_documents": textops.profile_documents_ds,
    "simsearch_topk": q_simsearch_topk,
    "media_features": q_media_features,
    "pii_scrub": textops.pii_scrub_ds,
    "boilerplate_strip": q_boilerplate_strip,
    "events_quantiles_sampled": relational.events_quantiles_sampled_ds,
    "events_quantiles_sampled_by_type": relational.events_quantiles_sampled_by_type_ds,
    "sorted_rank": q_sorted_rank,
    "export_json": q_export_json,
    "pipeline_counters": q_pipeline_counters,
    "mention_coverage": q_mention_coverage,
    "heavy_hitters": textops.heavy_hitters_ds,
    "dup_passage": textops.dup_passage_ds,
    "dedup_substring": q_dedup_substring,
    # --- SQL-mirrored but BEYOND the ~50-row cap this round; every one is
    # hash-green in CORRECTNESS_r05.json ---
    "dedup_substring_clean": q_dedup_substring_clean,
    "lm_perplexity": textops.lm_perplexity_ds,
    "quality_filter": textops.quality_filter_ds,
    "kg_pages_without_links": q_kg_pages_without_links,
    "rag_topk": q_rag_topk,
    "decontaminate": textops.decontaminate_ds,
    "sample_stratified": relational.stratified_sample_ds,
    "repetition_filter": textops.repetition_filter_ds,
    "events_lag": relational.events_lag_ds,
    "embed_concepts": q_embed_concepts,
    "top_anchor_texts": q_top_anchor_texts,
    "export_graph": q_export_graph,
    "distinct_users_by_type": textops.distinct_users_by_type_ds,
    "kg_extract": q_kg_extract,
    "kg_links": q_kg_links,
    "kg_triples_raw": q_kg_triples_raw,
    "kg_nodes": q_kg_nodes,
    "kg_edges": q_kg_edges,
    "kg_edges_canonical": q_kg_edges_canonical,
    "kg_mentions": q_kg_mentions,
    "kg_node_parents": q_kg_node_parents,
    "kg_entity_freq": q_kg_entity_freq,
    "kg_bfs": q_kg_bfs,
    "kg_page_graph_nodes": q_kg_page_graph_nodes,
    "kg_page_components": q_kg_page_components,
    "kg_triangles": q_kg_triangles,
    "kg_ancestors": q_kg_ancestors,
    "dedup_embedding": q_dedup_embedding,
    "text_quality": textops.text_quality_ds,
    "join_volume": relational.join_volume_ds,
    "events_sessionize": relational.events_sessionize_ds,
    "events_hopping_window": relational.events_hopping_window_ds,
    "tfidf_terms": textops.tfidf_terms_ds,
    "bigram_top": textops.bigram_top_ds,
    # --- no_oracle (rows-run; every one still runs in tools/check_driver.py
    # and has a serial-reference/property pytest) ---
    "bpe_merges": q_bpe_merges,
    "bpe_encode": q_bpe_encode,
    "dedup_semantic": q_dedup_semantic,
    "embedding_clusters": q_embedding_clusters,
    "simsearch_ivf": q_simsearch_ivf,
    "distinct_users_hll": textops.distinct_users_hll_ds,
    "simsearch_lsh": q_simsearch_lsh,
    "kg_mentions_pattern": q_kg_mentions_pattern,
    "kg_mentions_crf": q_kg_mentions_crf,
    "kg_chunks": q_kg_chunks,
    "dedup_clusters": q_dedup_clusters,
    "dedup_embedding_lsh": q_dedup_embedding_lsh,
    "dedup_minhash": q_dedup_minhash,
    "dedup_simhash": q_dedup_simhash,
    "doc_fingerprint": textops.fingerprint_ds,
}


def build_queries() -> dict:
    # make sure the sf0.01 inputs the static SQL points at exist, whatever
    # order the driver runs things in
    if os.path.isdir(SF_CORRECTNESS):
        _prep(SF_CORRECTNESS)
    return dict(QUERIES)


# ---------------------------------------------------------------------------
# DuckDB oracle SQL (sf0.01 paths; driver-registered views for testdata)
# ---------------------------------------------------------------------------

_SK = _NORM.format(col="subj_name")
_OK = _NORM.format(col="obj_name")
_CANON = f"""
    SELECT {_NORM.format(col='name')} AS norm_key,
           arg_min(name, seq) AS canon_name,
           substr(md5(arg_min(name, seq)), 1, 8) AS canon_id
    FROM read_parquet('{_G}/nodes_raw.parquet')
    GROUP BY 1
"""

_EDGES = f"""
    WITH t AS (SELECT * FROM read_parquet('{_G}/triples_raw.parquet')),
         ids AS (SELECT DISTINCT substr(md5(name),1,8) AS id
                 FROM read_parquet('{_G}/nodes_raw.parquet'))
    SELECT t.subj, t.pred, t.obj,
           arg_min(t.subj_name, t.seq) AS subj_name,
           arg_min(t.obj_name, t.seq) AS obj_name,
           count(*) AS weight
    FROM t JOIN ids s ON t.subj = s.id JOIN ids o ON t.obj = o.id
    GROUP BY t.subj, t.pred, t.obj
"""


def _pagerank_sql(iters: int = 10, damping: float = 0.85) -> str:
    """Unrolled PageRank mirror: the fixed iteration count makes the
    iterative rounds SQL-expressible as chained CTEs (pr0..prN), each round
    = dangling-mass scalar + per-dst contribution sum — the same math as
    stages/pagerank.py (edges are the DISTINCT (src,dst,text) triples
    projected to pairs, so parallel anchor texts are parallel edges there
    too).  Each round CTE is MATERIALIZED: every pr{{i+1}} references pr{{i}}
    twice (dangling-mass scalar + contribution join), so inlined CTEs would
    re-evaluate the whole chain 2^iters times."""
    rounds = []
    for i in range(iters):
        rounds.append(f"""
            pr{i + 1} AS MATERIALIZED (
                SELECT n.url,
                       (1.0 - {damping}) / p.n
                       + {damping} * (SELECT coalesce(sum(r.rank), 0)
                                      FROM pr{i} r
                                      WHERE r.url NOT IN (SELECT src FROM deg)) / p.n
                       + coalesce(c.contrib, 0.0) AS rank
                FROM nodes n
                CROSS JOIN params p
                LEFT JOIN (SELECT e.dst AS url,
                                  {damping} * sum(r.rank / d.deg) AS contrib
                           FROM edges e
                           JOIN pr{i} r ON e.src = r.url
                           JOIN deg d ON e.src = d.src
                           GROUP BY e.dst) c ON n.url = c.url
            )""")
    return f"""
        WITH edges AS (
            SELECT src_url AS src, dst_url AS dst FROM (
                SELECT DISTINCT url AS src_url,
                       'https://baike.baidu.com' || split_part(href, '?', 1) AS dst_url,
                       text
                FROM read_parquet('{_G}/links_raw.parquet')
                WHERE href LIKE '/item/%')),
        nodes AS (SELECT DISTINCT url FROM (
            SELECT src AS url FROM edges UNION ALL SELECT dst FROM edges)),
        deg AS (SELECT src, count(*)::DOUBLE AS deg FROM edges GROUP BY src),
        params AS (SELECT count(*)::DOUBLE AS n FROM nodes),
        pr0 AS (SELECT n.url, 1.0 / p.n AS rank FROM nodes n CROSS JOIN params p),
        {",".join(rounds)}
        SELECT url, CAST(round(rank * 1000000) AS BIGINT) AS rank_micros
        FROM pr{iters}
    """


def _kcore_sql(k: int = 4, rounds: int = 6) -> str:
    """Unrolled k-core mirror: ``rounds`` MATERIALIZED peel rounds (each =
    degree count + survivor filter) over the DISTINCT canonical undirected
    edge set.  The peel is monotone, so extra rounds past convergence are
    no-ops — tests/test_kcore_boilerplate.py asserts the sf0.01 graph
    converges within the unroll budget (it takes 3)."""
    parts = []
    for i in range(rounds):
        parts.append(f"""
            a{i + 1} AS MATERIALIZED (
                SELECT node FROM (
                    SELECT u AS node FROM e{i} UNION ALL SELECT v FROM e{i})
                GROUP BY node HAVING count(*) >= {k}
            ),
            e{i + 1} AS MATERIALIZED (
                SELECT e.u, e.v FROM e{i} e
                JOIN a{i + 1} x ON e.u = x.node
                JOIN a{i + 1} y ON e.v = y.node
            )""")
    return f"""
        WITH raw AS (
            SELECT DISTINCT url AS src,
                   'https://baike.baidu.com' || split_part(href, '?', 1) AS dst
            FROM read_parquet('{_G}/links_raw.parquet')
            WHERE href LIKE '/item/%'),
        e0 AS MATERIALIZED (
            SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
            FROM raw WHERE src != dst),
        {",".join(parts)}
        SELECT node AS url, count(*)::BIGINT AS core_deg
        FROM (SELECT u AS node FROM e{rounds} UNION ALL SELECT v FROM e{rounds})
        GROUP BY node
    """


_HEXD = "0123456789abcdef"


def _embed_sql(text_expr: str, dim: int = 64) -> str:
    """SQL fragment recomputing fake_encode: given a relation aliased ``n``
    with a text column expression, emit (…, dim_idx, val) rows — component
    i = byte[(i-1) % 16] of md5(text || ':' || (i-1)//16) minus 128."""
    return f"""
        SELECT *,
               ((strpos('{_HEXD}', substr(_h, 2 * _bp + 1, 1)) - 1) * 16
                + strpos('{_HEXD}', substr(_h, 2 * _bp + 2, 1)) - 1 - 128)::BIGINT AS val
        FROM (
            SELECT *, md5({text_expr} || ':' || CAST((dim_idx - 1) // 16 AS VARCHAR)) AS _h,
                   (dim_idx - 1) % 16 AS _bp
            FROM (SELECT *, unnest(range(1, {dim + 1})) AS dim_idx FROM n))
    """


_NODES_DEDUP = f"""
    SELECT substr(md5(name), 1, 8) AS id, arg_min(name, seq) AS name
    FROM read_parquet('{{g}}/nodes_raw.parquet') GROUP BY 1
"""


def substring_sql(k: int, source: str = "documents") -> str:
    """DuckDB mirror of ``substring_spans_ds`` for gram length ``k`` —
    shared by the oracle registry (k = SUBSTRING_K) and the unit tests
    (smaller k over planted fixtures).  The gaps-and-islands window rule is
    byte-identical to the engine's: a new span starts iff
    ``pos > max(previous pos) + k`` (adjacent coverage merges)."""
    return f"""
        WITH arrs AS (
            SELECT doc_id, regexp_split_to_array(lower(regexp_replace(text, '^\\s+|\\s+$', '', 'g')), '\\s+') AS arr
            FROM {source} WHERE regexp_replace(text, '^\\s+|\\s+$', '', 'g') != ''
        ),
        toks AS (
            SELECT doc_id, len(arr)::BIGINT AS n_tokens FROM arrs
            UNION ALL
            SELECT doc_id, 0::BIGINT FROM {source} WHERE regexp_replace(text, '^\\s+|\\s+$', '', 'g') = ''
        ),
        grams AS MATERIALIZED (
            SELECT doc_id, pos,
                   array_to_string(arr[pos:pos + {k - 1}], ' ') AS gram
            FROM (SELECT doc_id, arr,
                         unnest(range(1, len(arr) - {k - 2})) AS pos
                  FROM arrs WHERE len(arr) >= {k})
        ),
        dupg AS (SELECT gram FROM grams GROUP BY gram HAVING count(*) >= 2),
        dpos AS (SELECT g.doc_id, g.pos FROM grams g JOIN dupg USING (gram)),
        isl AS (
            SELECT doc_id, pos,
                   CASE WHEN pos > coalesce(max(pos) OVER w, -{2 * k}) + {k}
                        THEN 1 ELSE 0 END AS brk
            FROM dpos
            WINDOW w AS (PARTITION BY doc_id ORDER BY pos
                         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
        ),
        isl2 AS (SELECT doc_id, pos,
                        sum(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS island
                 FROM isl),
        spans AS (SELECT doc_id, island,
                         (max(pos) - min(pos) + {k})::BIGINT AS span_len
                  FROM isl2 GROUP BY 1, 2),
        agg AS (SELECT doc_id, count(*)::BIGINT AS n_spans,
                       sum(span_len)::BIGINT AS dup_tokens
                FROM spans GROUP BY 1)
        SELECT t.doc_id, t.n_tokens,
               coalesce(a.dup_tokens, 0)::BIGINT AS dup_tokens,
               coalesce(a.n_spans, 0)::BIGINT AS n_spans,
               (CASE WHEN t.n_tokens > 0
                     THEN coalesce(a.dup_tokens, 0) * 1000000 // t.n_tokens
                     ELSE 0 END)::BIGINT AS dup_frac_micros
        FROM toks t LEFT JOIN agg a USING (doc_id)
    """


def substring_clean_sql(k: int, source: str = "documents") -> str:
    """DuckDB mirror of ``substring_clean_ds`` — same gram/dup CTEs as
    ``substring_sql``, then coverage expansion (one range-unnest per dup
    position), token anti-join, ordered ``string_agg`` rebuild."""
    return f"""
        WITH arrs AS (
            SELECT doc_id, regexp_split_to_array(lower(regexp_replace(text, '^\\s+|\\s+$', '', 'g')), '\\s+') AS arr
            FROM {source} WHERE regexp_replace(text, '^\\s+|\\s+$', '', 'g') != ''
        ),
        grams AS MATERIALIZED (
            SELECT doc_id, pos,
                   array_to_string(arr[pos:pos + {k - 1}], ' ') AS gram
            FROM (SELECT doc_id, arr,
                         unnest(range(1, len(arr) - {k - 2})) AS pos
                  FROM arrs WHERE len(arr) >= {k})
        ),
        dupg AS (SELECT gram FROM grams GROUP BY gram HAVING count(*) >= 2),
        dpos AS (SELECT g.doc_id, g.pos FROM grams g JOIN dupg USING (gram)),
        cov AS (SELECT DISTINCT doc_id, unnest(range(pos, pos + {k})) AS tp
                FROM dpos),
        toks AS (SELECT doc_id, unnest(range(1, len(arr) + 1)) AS tp,
                        unnest(arr) AS tok
                 FROM arrs),
        kept AS (SELECT t.doc_id, t.tp, t.tok
                 FROM toks t ANTI JOIN cov USING (doc_id, tp)),
        agg AS (SELECT doc_id,
                       string_agg(tok, ' ' ORDER BY tp) AS text_clean,
                       count(*)::BIGINT AS n_kept
                FROM kept GROUP BY 1),
        nt AS (
            SELECT doc_id, len(arr)::BIGINT AS n_tokens FROM arrs
            UNION ALL
            SELECT doc_id, 0::BIGINT FROM {source} WHERE regexp_replace(text, '^\\s+|\\s+$', '', 'g') = ''
        )
        SELECT n.doc_id, coalesce(a.text_clean, '') AS text_clean,
               n.n_tokens,
               (n.n_tokens - coalesce(a.n_kept, 0))::BIGINT AS n_removed
        FROM nt n LEFT JOIN agg a USING (doc_id)
    """


def build_oracle_sql() -> dict[str, str]:
    # whatever order the driver runs things in, the /tmp inputs the SQL
    # points at must exist by the time DuckDB runs
    if os.path.isdir(SF_CORRECTNESS):
        _prep(SF_CORRECTNESS)
    return {
        "kg_extract": (
            f"SELECT url, title, summary, text_out, n_paras "
            f"FROM read_parquet('{_G}/extracted.parquet')"
        ),
        "kg_links": (
            f"SELECT url, text, 'https://baike.baidu.com' || split_part(href, '?', 1) AS link_url "
            f"FROM read_parquet('{_G}/links_raw.parquet') WHERE href LIKE '/item/%'"
        ),
        "kg_triples_raw": (
            f"SELECT url, seq, substr(md5(subj_name),1,8) AS subj, pred, "
            f"substr(md5(obj_name),1,8) AS obj, subj_name, obj_name, props_json "
            f"FROM read_parquet('{_G}/triples_raw.parquet')"
        ),
        "kg_nodes_raw": (
            f"SELECT url, seq, substr(md5(name),1,8) AS id, name, type, parent, props_json "
            f"FROM read_parquet('{_G}/nodes_raw.parquet')"
        ),
        "kg_nodes": (
            f"SELECT id, arg_min(url, seq) AS url, min(seq) AS seq, "
            f"arg_min(name, seq) AS name, arg_min(type, seq) AS type, "
            f"arg_min(parent, seq) AS parent, arg_min(props_json, seq) AS props_json "
            f"FROM read_parquet('{_G}/nodes_raw.parquet') GROUP BY id"
        ),
        "kg_edges": _EDGES,
        "kg_entity_link": _CANON,
        "kg_edges_canonical": f"""
            WITH canon AS ({_CANON}),
                 t AS (SELECT pred, seq, {_SK} AS sk, {_OK} AS ok
                       FROM read_parquet('{_G}/triples_raw.parquet'))
            SELECT cs.canon_id AS subj, t.pred, co.canon_id AS obj,
                   cs.canon_name AS subj_name, co.canon_name AS obj_name,
                   count(*) AS weight
            FROM t JOIN canon cs ON t.sk = cs.norm_key
                   JOIN canon co ON t.ok = co.norm_key
            GROUP BY 1, 2, 3, 4, 5
        """,
        "kg_degree": f"""
            WITH e AS ({_EDGES})
            SELECT subj, count(*) AS n_out, sum(weight)::BIGINT AS total_weight
            FROM e GROUP BY subj
        """,
        "kg_entity_freq": (
            f"SELECT entity, etype, count(*) AS n_mentions "
            f"FROM read_parquet('{_G}/mentions.parquet') GROUP BY 1, 2"
        ),
        "kg_stats": f"""
            SELECT (SELECT count(*) FROM read_parquet('{_G}/extracted.parquet'))::BIGINT AS n_pages,
                   (SELECT count(*) FROM read_parquet('{_G}/nodes_raw.parquet'))::BIGINT AS n_node_occurrences,
                   (SELECT count(*) FROM read_parquet('{_G}/triples_raw.parquet'))::BIGINT AS n_triple_occurrences,
                   (SELECT count(*) FROM read_parquet('{_G}/links_raw.parquet')
                    WHERE href LIKE '/item/%')::BIGINT AS n_links
        """,
        "kg_extract_zh": f"""
            SELECT e.url, e.title, e.summary, e.text_out, e.n_paras
            FROM read_parquet('{_G}/extracted.parquet') e
            JOIN read_parquet('{_P}') p ON e.url = p.url
            WHERE p.lang = 'zh'
        """,
        "kg_links_all": (
            f"SELECT url, text, href FROM read_parquet('{_G}/links_all.parquet')"
        ),
        "kg_node_parents": f"""
            WITH n AS (SELECT id, arg_min(name, seq) AS name,
                              arg_min(parent, seq) AS parent
                       FROM read_parquet('{_G}/nodes_raw.parquet') GROUP BY id)
            SELECT c.id, c.name, c.parent, coalesce(p.name, '') AS parent_name
            FROM n c LEFT JOIN n p ON c.parent = p.id
        """,
        "kg_records": (
            f"SELECT url, name, contents, basic_info_json, catalog_json, "
            f"paragraphs_json, references_json FROM read_parquet('{_G}/records.parquet')"
        ),
        "kg_page_graph_edges": f"""
            SELECT DISTINCT url AS src_url,
                   'https://baike.baidu.com' || split_part(href, '?', 1) AS dst_url,
                   text
            FROM read_parquet('{_G}/links_raw.parquet') WHERE href LIKE '/item/%'
        """,
        "kg_page_graph_nodes": f"""
            WITH l AS (SELECT url,
                              'https://baike.baidu.com' || split_part(href, '?', 1) AS link_url,
                              text
                       FROM read_parquet('{_G}/links_raw.parquet')
                       WHERE href LIKE '/item/%'),
                 allr AS (
                   SELECT url, title AS name, 0 AS flag
                   FROM read_parquet('{_G}/extracted.parquet')
                   UNION ALL
                   SELECT link_url AS url, text AS name, 1 AS flag FROM l)
            SELECT url, name, CAST(is_placeholder AS BIGINT) AS is_placeholder FROM (
                SELECT url, name, flag AS is_placeholder,
                       row_number() OVER (PARTITION BY url ORDER BY flag, name) AS rn
                FROM allr)
            WHERE rn = 1
        """,
        "media_meta": (
            f"SELECT url, octet_length(html)::BIGINT AS n_bytes, "
            f"md5(decode(html)) AS content_md5 FROM read_parquet('{_P}')"
        ),
        "dedup_exact": (
            "SELECT md5(text) AS content_hash, min(doc_id) AS keep_doc_id, "
            "count(*) AS n_dups FROM documents GROUP BY 1"
        ),
        "dedup_jaccard": """
            WITH d AS (
              SELECT doc_id, source,
                     list_distinct(regexp_split_to_array(lower(regexp_replace(text, '^\\s+|\\s+$', '', 'g')), '\\s+')) AS toks
              FROM documents WHERE regexp_replace(text, '^\\s+|\\s+$', '', 'g') != ''
            )
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   len(list_intersect(a.toks, b.toks)) * 1.0
                   / (len(a.toks) + len(b.toks) - len(list_intersect(a.toks, b.toks))) AS jaccard
            FROM d a JOIN d b ON a.source = b.source AND a.doc_id < b.doc_id
            WHERE len(list_intersect(a.toks, b.toks)) * 1.0
                  / (len(a.toks) + len(b.toks) - len(list_intersect(a.toks, b.toks))) >= 0.5
        """,
        "dedup_embedding": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b
            FROM embeddings a JOIN embeddings b
              ON a.label = b.label AND a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.3
        """,
        "text_quality": f"""
            SELECT doc_id,
                   length(text)::BIGINT AS n_chars,
                   (length(text) // 2)::BIGINT AS est_tokens,
                   ({_NTOK.format(col='text')})::BIGINT AS n_tokens,
                   len(regexp_extract_all(text,
                       '''(?:s|t|re|ve|m|ll|d)| ?[a-zA-Z]+| ?[0-9]+| ?[^a-zA-Z0-9\\s]+|\\s+'))::BIGINT
                     AS n_bpe_tokens,
                   len(regexp_extract_all(text, '[.,!?;:]'))::BIGINT AS n_punct,
                   CASE WHEN regexp_replace(text, '^\\s+|\\s+$', '', 'g') = '' THEN 0 ELSE
                     len(list_filter({_TOKENS.format(col='lower(text)')},
                         x -> x IN ('the','a','of','and','to'))) END::BIGINT AS n_stopwords
            FROM documents
        """,
        "token_count_by_lang": f"""
            SELECT lang, sum({_NTOK.format(col='text')})::BIGINT AS total_tokens,
                   count(*) AS n_docs
            FROM documents GROUP BY lang
        """,
        "lang_id": f"""
            SELECT url, n_chars, n_cjk,
                   CASE WHEN n_chars > 0 AND n_cjk * 1.0 / n_chars > 0.3
                        THEN 'zh' ELSE 'en' END AS lang_pred
            FROM (SELECT url, length(text_out)::BIGINT AS n_chars,
                         len(regexp_extract_all(text_out, '[一-鿿]'))::BIGINT AS n_cjk
                  FROM read_parquet('{_G}/extracted.parquet'))
        """,
        "agg_lineitem": """
            SELECT l_returnflag, l_linestatus,
                   sum(CAST(FLOOR(l_quantity) AS BIGINT))::BIGINT AS sum_qty,
                   sum(CAST(FLOOR(l_extendedprice * 100) AS BIGINT))::BIGINT AS sum_price_cents,
                   sum(CAST(FLOOR(l_extendedprice * (1.0 - l_discount) * 100) AS BIGINT))::BIGINT
                     AS sum_disc_price_cents,
                   count(*) AS n_rows
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "join_volume": """
            SELECT n_name,
                   sum(CAST(FLOOR(l_extendedprice * (1.0 - l_discount) * 100) AS BIGINT))::BIGINT
                     AS revenue_cents,
                   count(*) AS n_items
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            GROUP BY n_name
        """,
        "top_parts": (
            "SELECT p_partkey, p_name, p_retailprice FROM part "
            "ORDER BY p_retailprice DESC, p_partkey LIMIT 10"
        ),
        "events_window": """
            SELECT event_type,
                   CAST(FLOOR(epoch(ts) / 3600) AS BIGINT) AS hour_bucket,
                   sum(CAST(FLOOR(value * 100) AS BIGINT))::BIGINT AS sum_value_cents,
                   count(*) AS n_events
            FROM events GROUP BY 1, 2
        """,
        "events_hopping_window": """
            WITH e AS (SELECT event_type, epoch_us(ts) AS s_us,
                              CAST(FLOOR(value * 100) AS BIGINT) AS cents
                       FROM events),
                 w AS (SELECT event_type, cents,
                              (s_us // 1800000000) * 1800000000 - k * 1800000000
                                AS window_start_us
                       FROM e, (VALUES (0), (1)) t(k))
            SELECT event_type, CAST(window_start_us AS BIGINT) AS window_start_us,
                   sum(cents)::BIGINT AS sum_value_cents, count(*) AS n_events
            FROM w GROUP BY 1, 2
        """,
        "tfidf_terms": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(lower(regexp_replace(text, '^\\s+|\\s+$', '', 'g')), '\\s+')) AS term
              FROM documents WHERE regexp_replace(text, '^\\s+|\\s+$', '', 'g') != ''
            ),
            tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
                   FROM toks GROUP BY doc_id, term),
            dfreq AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
            r AS (SELECT tf.doc_id, tf.term, tf.tf, dfreq.df,
                         row_number() OVER (PARTITION BY tf.doc_id
                                            ORDER BY tf.tf DESC, tf.term) AS rank
                  FROM tf JOIN dfreq USING (term))
            SELECT doc_id, term, tf, df, CAST(rank AS BIGINT) AS rank
            FROM r WHERE rank <= 10
        """,
        "bigram_top": """
            WITH arrs AS (
              SELECT doc_id, regexp_split_to_array(lower(regexp_replace(text, '^\\s+|\\s+$', '', 'g')), '\\s+') AS arr
              FROM documents WHERE regexp_replace(text, '^\\s+|\\s+$', '', 'g') != ''
            ),
            toks AS (
              SELECT doc_id, unnest(arr) AS term,
                     unnest(range(1, len(arr) + 1)) AS pos
              FROM arrs
            ),
            big AS (
              SELECT a.term || ' ' || b.term AS bigram
              FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
            )
            SELECT bigram, count(*)::BIGINT AS n FROM big
            GROUP BY bigram ORDER BY n DESC, bigram LIMIT 100
        """,
        "distinct_users_by_type": """
            SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_users
            FROM events GROUP BY event_type
        """,
        "events_quantiles": """
            WITH e AS (SELECT event_type, CAST(FLOOR(value * 100) AS BIGINT) AS cents
                       FROM events)
            SELECT event_type, CAST(0.25 AS DOUBLE) AS q,
                   percentile_disc(0.25) WITHIN GROUP (ORDER BY cents) AS value_cents
            FROM e GROUP BY event_type
            UNION ALL
            SELECT event_type, CAST(0.5 AS DOUBLE),
                   percentile_disc(0.5) WITHIN GROUP (ORDER BY cents)
            FROM e GROUP BY event_type
            UNION ALL
            SELECT event_type, CAST(0.75 AS DOUBLE),
                   percentile_disc(0.75) WITHIN GROUP (ORDER BY cents)
            FROM e GROUP BY event_type
            UNION ALL
            SELECT event_type, CAST(0.9 AS DOUBLE),
                   percentile_disc(0.9) WITHIN GROUP (ORDER BY cents)
            FROM e GROUP BY event_type
            UNION ALL
            SELECT event_type, CAST(0.99 AS DOUBLE),
                   percentile_disc(0.99) WITHIN GROUP (ORDER BY cents)
            FROM e GROUP BY event_type
        """,
        # sampled quantiles: the seeded bottom-k draw is SQL-expressible —
        # rank by md5('q0:' || event_id) (the sample_uniform rule; digest-
        # byte order ≡ hexdigest order is pinned in tests/test_hashing.py),
        # keep the k smallest, then the same percentile_disc rule the
        # engine applies to its sample (1-indexed max(1, ceil(q·n))).
        "events_quantiles_sampled": """
            WITH s AS (
                SELECT value FROM (
                    SELECT value,
                           row_number() OVER (ORDER BY md5('q0:' || event_id))
                             AS rnk
                    FROM events)
                WHERE rnk <= 4096)
            SELECT 250000::BIGINT AS q_micros,
                   percentile_disc(0.25) WITHIN GROUP (ORDER BY value) AS value_est,
                   count(*)::BIGINT AS sample_n FROM s
            UNION ALL
            SELECT 500000::BIGINT,
                   percentile_disc(0.5) WITHIN GROUP (ORDER BY value),
                   count(*)::BIGINT FROM s
            UNION ALL
            SELECT 750000::BIGINT,
                   percentile_disc(0.75) WITHIN GROUP (ORDER BY value),
                   count(*)::BIGINT FROM s
            UNION ALL
            SELECT 900000::BIGINT,
                   percentile_disc(0.9) WITHIN GROUP (ORDER BY value),
                   count(*)::BIGINT FROM s
            UNION ALL
            SELECT 990000::BIGINT,
                   percentile_disc(0.99) WITHIN GROUP (ORDER BY value),
                   count(*)::BIGINT FROM s
        """,
        "events_quantiles_sampled_by_type": """
            WITH s AS (
                SELECT event_type, value FROM (
                    SELECT event_type, value,
                           row_number() OVER (
                               PARTITION BY event_type
                               ORDER BY md5('q1:' || event_id)) AS rnk
                    FROM events)
                WHERE rnk <= 1024)
            SELECT event_type, 250000::BIGINT AS q_micros,
                   percentile_disc(0.25) WITHIN GROUP (ORDER BY value) AS value_est,
                   count(*)::BIGINT AS sample_n
            FROM s GROUP BY event_type
            UNION ALL
            SELECT event_type, 500000::BIGINT,
                   percentile_disc(0.5) WITHIN GROUP (ORDER BY value),
                   count(*)::BIGINT
            FROM s GROUP BY event_type
            UNION ALL
            SELECT event_type, 750000::BIGINT,
                   percentile_disc(0.75) WITHIN GROUP (ORDER BY value),
                   count(*)::BIGINT
            FROM s GROUP BY event_type
            UNION ALL
            SELECT event_type, 900000::BIGINT,
                   percentile_disc(0.9) WITHIN GROUP (ORDER BY value),
                   count(*)::BIGINT
            FROM s GROUP BY event_type
            UNION ALL
            SELECT event_type, 990000::BIGINT,
                   percentile_disc(0.99) WITHIN GROUP (ORDER BY value),
                   count(*)::BIGINT
            FROM s GROUP BY event_type
        """,
        "top_anchor_texts": f"""
            WITH c AS (SELECT href, text, count(*) AS n
                       FROM read_parquet('{_G}/links_all.parquet') GROUP BY href, text),
                 r AS (SELECT href, text, n,
                              row_number() OVER (PARTITION BY href
                                                 ORDER BY n DESC, text) AS rank
                       FROM c)
            SELECT href, text, n, CAST(rank AS BIGINT) AS rank FROM r WHERE rank <= 3
        """,
        "sample_stratified": """
            WITH r AS (SELECT doc_id, lang, md5(CAST(doc_id AS VARCHAR)) AS h
                       FROM documents),
                 t AS (SELECT doc_id, lang, h,
                              row_number() OVER (PARTITION BY lang ORDER BY h, doc_id) AS rn
                       FROM r)
            SELECT doc_id, lang, h FROM t WHERE rn <= 20
        """,
        "kg_pages_without_links": f"""
            SELECT url, title, n_paras FROM read_parquet('{_G}/extracted.parquet')
            WHERE url NOT IN (
                SELECT 'https://baike.baidu.com' || split_part(href, '?', 1)
                FROM read_parquet('{_G}/links_raw.parquet')
                WHERE href LIKE '/item/%')
        """,
        "events_sessionize": """
            WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS ts_us FROM events),
                 o AS (SELECT *, lag(ts_us) OVER (PARTITION BY user_id
                                                  ORDER BY ts_us, event_id) AS prev FROM e),
                 s AS (SELECT *, sum(CASE WHEN prev IS NULL OR ts_us - prev > 1800000000
                                          THEN 1 ELSE 0 END)
                              OVER (PARTITION BY user_id ORDER BY ts_us, event_id
                                    ROWS UNBOUNDED PRECEDING) AS sid
                       FROM o)
            SELECT user_id, min(ts_us)::BIGINT AS session_start_us,
                   max(ts_us)::BIGINT AS session_end_us, count(*) AS n_events
            FROM s GROUP BY user_id, sid
        """,
        "events_with_sessions": """
            WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS ts_us FROM events),
                 o AS (SELECT *, lag(ts_us) OVER (PARTITION BY user_id
                                                  ORDER BY ts_us, event_id) AS prev FROM e),
                 s AS (SELECT *, sum(CASE WHEN prev IS NULL OR ts_us - prev > 1800000000
                                          THEN 1 ELSE 0 END)
                              OVER (PARTITION BY user_id ORDER BY ts_us, event_id
                                    ROWS UNBOUNDED PRECEDING) AS sid
                       FROM o)
            SELECT event_id, user_id, ts_us::BIGINT AS ts_us,
                   min(ts_us) OVER (PARTITION BY user_id, sid)::BIGINT
                     AS session_start_us
            FROM s
        """,
        "simsearch_topk": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qe
                       FROM embeddings WHERE vec_id IN (0, 1, 2))
            SELECT query_id, vec_id, CAST(rank AS BIGINT) AS rank FROM (
                SELECT q.query_id, e.vec_id,
                       row_number() OVER (
                         PARTITION BY q.query_id
                         ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                                         CAST(q.qe AS DOUBLE[])) DESC,
                                  e.vec_id) AS rank
                FROM embeddings e, q)
            WHERE rank <= 10
        """,
        "kg_mentions": (
            f'SELECT url, para_idx, entity, etype, "start", "end" '
            f"FROM read_parquet('{_G}/mentions.parquet')"
        ),
        "kg_bfs": f"""
            WITH RECURSIVE l AS (
                SELECT url AS src,
                       'https://baike.baidu.com' || split_part(href, '?', 1) AS dst
                FROM read_parquet('{_G}/links_raw.parquet') WHERE href LIKE '/item/%'),
            r AS (
                SELECT 'https://baike.baidu.com/item/doc0/0' AS url, 0 AS d
                UNION
                SELECT l.dst, r.d + 1 FROM r JOIN l ON l.src = r.url WHERE r.d < 2)
            SELECT url, CAST(min(d) AS BIGINT) AS depth FROM r GROUP BY url
        """,
        "kg_cooccurrence": f"""
            WITH m AS (SELECT DISTINCT url, para_idx, entity
                       FROM read_parquet('{_G}/mentions.parquet'))
            SELECT a.entity AS entity_a, b.entity AS entity_b,
                   count(*) AS n_pairs
            FROM m a JOIN m b
              ON a.url = b.url AND a.para_idx = b.para_idx
             AND a.entity < b.entity
            GROUP BY 1, 2
        """,
        "kg_ancestors": f"""
            WITH RECURSIVE n AS (
                SELECT id, arg_min(parent, seq) AS parent
                FROM (SELECT substr(md5(name),1,8) AS id, parent, seq
                      FROM read_parquet('{_G}/nodes_raw.parquet'))
                GROUP BY id),
            a AS (
                SELECT id, parent AS anc, 1 AS depth FROM n WHERE parent != ''
                UNION ALL
                SELECT a.id, n.parent, a.depth + 1
                FROM a JOIN n ON a.anc = n.id
                WHERE n.parent != '' AND a.depth < 10)
            SELECT id, anc, CAST(depth AS BIGINT) AS depth FROM a
        """,
        "kg_triangles": f"""
            WITH l AS (
                SELECT url AS src,
                       'https://baike.baidu.com' || split_part(href, '?', 1) AS dst
                FROM read_parquet('{_G}/links_raw.parquet') WHERE href LIKE '/item/%'),
            und AS (
                SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
                FROM l WHERE src != dst)
            SELECT a.u AS u, a.v AS v, b.v AS w
            FROM und a JOIN und b ON a.v = b.u
                       JOIN und c ON c.u = a.u AND c.v = b.v
        """,
        "kg_node_similarity": f"""
            WITH l AS (
                SELECT url AS src,
                       'https://baike.baidu.com' || split_part(href, '?', 1) AS dst
                FROM read_parquet('{_G}/links_raw.parquet') WHERE href LIKE '/item/%'),
            und AS (
                SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
                FROM l WHERE src != dst),
            adj AS (SELECT u AS m, v AS n FROM und UNION ALL SELECT v, u FROM und),
            deg AS (SELECT m AS node, count(*)::BIGINT AS deg FROM adj GROUP BY m),
            -- stop-hub cut ≡ engine NSIM_MAX_MIDDLE_DEGREE: middles above
            -- the cap are dropped BEFORE pair generation; degrees stay full
            adjc AS (SELECT a.m, a.n FROM adj a JOIN deg d ON a.m = d.node
                     WHERE d.deg <= {NSIM_MAX_MIDDLE_DEGREE}),
            pairs AS (
                SELECT a.n AS node_a, b.n AS node_b, count(*)::BIGINT AS common
                FROM adjc a JOIN adjc b ON a.m = b.m AND a.n < b.n
                GROUP BY a.n, b.n)
            SELECT p.node_a, p.node_b, p.common,
                   da.deg AS deg_a, db.deg AS deg_b,
                   ((p.common * 1000000) // (da.deg + db.deg - p.common))::BIGINT
                     AS jaccard_micros
            FROM pairs p
            JOIN deg da ON p.node_a = da.node
            JOIN deg db ON p.node_b = db.node
        """,
        "kg_page_components": f"""
            WITH RECURSIVE l AS (
                SELECT url AS src,
                       'https://baike.baidu.com' || split_part(href, '?', 1) AS dst
                FROM read_parquet('{_G}/links_raw.parquet') WHERE href LIKE '/item/%'),
            e AS (SELECT src, dst FROM l UNION SELECT dst, src FROM l),
            n AS (SELECT DISTINCT src AS node FROM e),
            r AS (
                SELECT node, node AS reach FROM n
                UNION
                SELECT r.node, e.dst FROM r JOIN e ON e.src = r.reach)
            SELECT node, min(reach) AS cluster FROM r GROUP BY node
        """,
        "kg_pagerank": _pagerank_sql(),
        "kg_kcore": _kcore_sql(),
        "boilerplate_strip": f"""
            WITH ex AS (SELECT url, text_out
                        FROM read_parquet('{_G}/extracted.parquet')),
            tot AS (SELECT count(*)::BIGINT AS n FROM ex),
            l AS (SELECT url,
                         unnest(range(1, len(string_split(text_out, chr(10))) + 1)) AS pos,
                         unnest(string_split(text_out, chr(10))) AS line
                  FROM ex),
            bp AS MATERIALIZED (
                SELECT line FROM l, tot WHERE line != ''
                GROUP BY line, tot.n HAVING count(DISTINCT url) * 2 >= tot.n),
            kept AS (SELECT l.url, l.pos, l.line FROM l ANTI JOIN bp USING (line)),
            agg AS (SELECT url,
                           string_agg(line, chr(10) ORDER BY pos) AS text_clean,
                           count(*)::BIGINT AS n_kept
                    FROM kept GROUP BY url),
            n_all AS (SELECT url, count(*)::BIGINT AS n_lines FROM l GROUP BY url)
            SELECT ex.url, coalesce(agg.text_clean, '') AS text_clean,
                   coalesce(agg.n_kept, 0)::BIGINT AS n_kept,
                   (n_all.n_lines - coalesce(agg.n_kept, 0))::BIGINT AS n_removed
            FROM ex JOIN n_all USING (url) LEFT JOIN agg USING (url)
        """,
        "dedup_substring": substring_sql(SUBSTRING_K),
        "dedup_substring_clean": substring_clean_sql(SUBSTRING_K),
        "dup_passage": """
            WITH arrs AS (
              SELECT doc_id, regexp_split_to_array(lower(regexp_replace(text, '^\\s+|\\s+$', '', 'g')), '\\s+') AS arr
              FROM documents WHERE regexp_replace(text, '^\\s+|\\s+$', '', 'g') != ''
            ),
            grams AS MATERIALIZED (
              SELECT doc_id,
                     array_to_string(arr[pos:pos + 3], ' ') AS gram
              FROM (SELECT doc_id, arr,
                           unnest(range(1, len(arr) - 2)) AS pos
                    FROM arrs WHERE len(arr) >= 4)
            ),
            df AS MATERIALIZED (
              SELECT gram, count(DISTINCT doc_id)::BIGINT AS df
              FROM grams GROUP BY gram
            )
            SELECT g.doc_id, count(*)::BIGINT AS n_grams,
                   sum(CASE WHEN df.df >= 2 THEN 1 ELSE 0 END)::BIGINT AS n_dup,
                   ((sum(CASE WHEN df.df >= 2 THEN 1 ELSE 0 END) * 1000000)
                    // count(*))::BIGINT AS dup_frac_micros
            FROM grams g JOIN df USING (gram)
            GROUP BY g.doc_id
        """,
        "lm_perplexity": """
            WITH arrs AS (
              SELECT doc_id, regexp_split_to_array(lower(regexp_replace(text, '^\\s+|\\s+$', '', 'g')), '\\s+') AS arr
              FROM documents WHERE regexp_replace(text, '^\\s+|\\s+$', '', 'g') != ''
            ),
            toks AS MATERIALIZED (
              SELECT doc_id, unnest(arr) AS term,
                     unnest(range(1, len(arr) + 1)) AS pos
              FROM arrs
            ),
            cnt1 AS MATERIALIZED (
              SELECT term, count(*)::BIGINT AS c1 FROM toks GROUP BY term
            ),
            v AS (SELECT count(*)::DOUBLE AS v FROM cnt1),
            big AS MATERIALIZED (
              SELECT a.doc_id, a.term AS w1, a.term || ' ' || b.term AS bigram
              FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
            ),
            cnt2 AS MATERIALIZED (
              SELECT bigram, count(*)::BIGINT AS c2 FROM big GROUP BY bigram
            ),
            scored AS (
              SELECT big.doc_id,
                     ln((cnt2.c2 + 1.0) / (cnt1.c1 + v.v)) AS lp
              FROM big
              JOIN cnt2 USING (bigram)
              JOIN cnt1 ON big.w1 = cnt1.term
              CROSS JOIN v
            )
            SELECT doc_id, count(*)::BIGINT AS n_bigrams,
                   CAST(round(sum(lp) / count(*) * 1000000) AS BIGINT)
                     AS avg_logprob_micros
            FROM scored GROUP BY doc_id
        """,
        "sample_weighted": f"""
            WITH d AS (
                SELECT doc_id,
                       (CASE WHEN regexp_replace(text, '^\\s+|\\s+$', '', 'g') = '' THEN 0
                             ELSE len(regexp_split_to_array(regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '\\s+'))
                        END)::BIGINT AS n_tokens,
                       md5('w1:' || doc_id::VARCHAR) AS h
                FROM documents),
            u AS (SELECT doc_id, n_tokens,
                         ((strpos('{_HEXD}', substr(h, 1, 1)) - 1) * 268435456
                          + (strpos('{_HEXD}', substr(h, 2, 1)) - 1) * 16777216
                          + (strpos('{_HEXD}', substr(h, 3, 1)) - 1) * 1048576
                          + (strpos('{_HEXD}', substr(h, 4, 1)) - 1) * 65536
                          + (strpos('{_HEXD}', substr(h, 5, 1)) - 1) * 4096
                          + (strpos('{_HEXD}', substr(h, 6, 1)) - 1) * 256
                          + (strpos('{_HEXD}', substr(h, 7, 1)) - 1) * 16
                          + strpos('{_HEXD}', substr(h, 8, 1)) - 1)::BIGINT AS u32
                  FROM d)
            SELECT doc_id, n_tokens, least(n_tokens, 64)::BIGINT AS w_num, u32
            FROM u WHERE u32 * 64 < least(n_tokens, 64) * 4294967296
        """,
        "shuffle_shard": f"""
            WITH d AS (SELECT doc_id, md5('s0:' || doc_id::VARCHAR) AS k
                       FROM documents),
            s AS (SELECT doc_id, k,
                         ((strpos('{_HEXD}', substr(k, 1, 1)) - 1) * 4096
                          + (strpos('{_HEXD}', substr(k, 2, 1)) - 1) * 256
                          + (strpos('{_HEXD}', substr(k, 3, 1)) - 1) * 16
                          + strpos('{_HEXD}', substr(k, 4, 1)) - 1) % 16 AS shard_id
                  FROM d)
            SELECT doc_id, shard_id::BIGINT AS shard_id,
                   (row_number() OVER (PARTITION BY shard_id ORDER BY k, doc_id)
                    - 1)::BIGINT AS pos
            FROM s
        """,
        "events_running_total": """
            WITH e AS (SELECT event_id, user_id,
                              epoch_us(ts)::BIGINT AS ts_us,
                              CAST(FLOOR(value * 100) AS BIGINT) AS value_cents
                       FROM events)
            SELECT event_id, user_id, ts_us, value_cents,
                   (SUM(value_cents) OVER (PARTITION BY user_id
                                           ORDER BY ts_us, event_id))::BIGINT
                     AS running_cents,
                   (row_number() OVER (PARTITION BY user_id
                                       ORDER BY ts_us, event_id))::BIGINT AS seq
            FROM e
        """,
        "mix_corpora": """
            WITH r AS (SELECT doc_id, source,
                              row_number() OVER (
                                PARTITION BY source
                                ORDER BY md5('m0:' || doc_id::VARCHAR), doc_id
                              ) AS pos_in_source,
                              (CAST(regexp_extract(source, '(\\d+)$', 1) AS BIGINT) % 3 + 1)
                                AS weight
                       FROM documents)
            SELECT doc_id, source, pos_in_source::BIGINT AS pos_in_source,
                   weight::BIGINT AS weight,
                   ((2 * pos_in_source - 1) * 1000000 // (2 * weight))::BIGINT
                     AS stride_key
            FROM r
        """,
        "profile_documents": """
            SELECT 'doc_id' AS column, count(*)::BIGINT AS n_rows,
                   (count(*) - count(doc_id))::BIGINT AS n_nulls,
                   count(DISTINCT doc_id)::BIGINT AS n_distinct,
                   min(doc_id)::BIGINT AS min_int, max(doc_id)::BIGINT AS max_int,
                   '' AS min_str, '' AS max_str
            FROM documents
            UNION ALL
            SELECT 'n_chars', count(*), count(*) - count(n_chars),
                   count(DISTINCT n_chars),
                   min(n_chars)::BIGINT, max(n_chars)::BIGINT, '', ''
            FROM documents
            UNION ALL
            SELECT 'lang', count(*), count(*) - count(lang),
                   count(DISTINCT lang), -1, -1, min(lang), max(lang)
            FROM documents
            UNION ALL
            SELECT 'source', count(*), count(*) - count(source),
                   count(DISTINCT source), -1, -1, min(source), max(source)
            FROM documents
        """,
        "events_lag": """
            WITH e AS (SELECT event_id, user_id,
                              epoch_us(ts)::BIGINT AS ts_us,
                              CAST(FLOOR(value * 100) AS BIGINT) AS value_cents
                       FROM events)
            SELECT event_id, user_id, ts_us, value_cents,
                   coalesce(LAG(event_id) OVER w, -1)::BIGINT AS prev_event_id,
                   coalesce(LAG(value_cents) OVER w, -1)::BIGINT AS prev_value_cents,
                   coalesce(ts_us - LAG(ts_us) OVER w, -1)::BIGINT AS gap_us
            FROM e
            WINDOW w AS (PARTITION BY user_id ORDER BY ts_us, event_id)
        """,
        "source_cap": """
            WITH r AS (SELECT doc_id, source,
                              row_number() OVER (
                                PARTITION BY source
                                ORDER BY md5('s0:' || doc_id::VARCHAR), doc_id
                              ) AS rank
                       FROM documents)
            SELECT doc_id, source, rank::BIGINT AS rank FROM r WHERE rank <= 15
        """,
        "quality_filter": f"""
            WITH t AS (SELECT doc_id, lang,
                              ({_NTOK.format(col='text')})::BIGINT AS n_tokens
                       FROM documents),
                 b AS (SELECT percentile_disc(0.05) WITHIN GROUP (ORDER BY n_tokens) AS lo,
                              percentile_disc(0.95) WITHIN GROUP (ORDER BY n_tokens) AS hi
                       FROM t)
            SELECT t.doc_id, t.lang, t.n_tokens FROM t, b
            WHERE t.n_tokens >= b.lo AND t.n_tokens <= b.hi
        """,
        "embed_concepts": f"""
            WITH n AS ({_NODES_DEDUP.format(g=_G)})
            SELECT id, name, dim_idx::BIGINT AS dim_idx, val
            FROM ({_embed_sql("name")})
        """,
        "embed_relations": f"""
            WITH e AS ({_EDGES}),
                 n AS (SELECT subj_name || ' ' || pred || ' ' || obj_name AS phrase,
                              subj, obj
                       FROM e)
            SELECT phrase, subj, obj, dim_idx::BIGINT AS dim_idx, val
            FROM ({_embed_sql("phrase")})
        """,
        "rag_topk": f"""
            WITH n AS ({_NODES_DEDUP.format(g=_G)}),
                 dv AS (SELECT name, dim_idx, val FROM ({_embed_sql("name")})),
                 qn AS (SELECT '实体1' AS qtext),
                 qv AS (SELECT dim_idx, val FROM (
                            SELECT *,
                                   ((strpos('{_HEXD}', substr(_h, 2 * _bp + 1, 1)) - 1) * 16
                                    + strpos('{_HEXD}', substr(_h, 2 * _bp + 2, 1)) - 1 - 128)::BIGINT AS val
                            FROM (
                                SELECT *, md5(qtext || ':' || CAST((dim_idx - 1) // 16 AS VARCHAR)) AS _h,
                                       (dim_idx - 1) % 16 AS _bp
                                FROM (SELECT *, unnest(range(1, 65)) AS dim_idx FROM qn)))),
                 s AS (SELECT dv.name,
                              sum(dv.val * qv.val) AS dot,
                              sqrt(sum(dv.val * dv.val)) AS na
                       FROM dv JOIN qv USING (dim_idx) GROUP BY dv.name),
                 qq AS (SELECT sqrt(sum(val * val)) AS nq FROM qv)
            SELECT name,
                   CAST(round(dot / (na * nq) * 1000000) AS BIGINT) AS sim_micros
            FROM s, qq
            ORDER BY dot / (na * nq) DESC, name
            LIMIT 5
        """,
        "curate_corpus": """
            WITH q AS (
                SELECT doc_id, md5(text) AS content_hash,
                       length(text)::BIGINT AS n_chars,
                       (CASE WHEN regexp_replace(text, '^\\s+|\\s+$', '', 'g') = '' THEN 0
                             ELSE len(regexp_split_to_array(regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '\\s+')) END)::BIGINT AS n_tokens,
                       (length(text) // 2)::BIGINT AS est_tokens,
                       len(regexp_extract_all(text, '[一-鿿]'))::BIGINT AS n_cjk
                FROM documents),
                 f AS (SELECT * FROM q WHERE n_chars >= 20 AND n_tokens >= 5)
            SELECT content_hash,
                   min(doc_id)::BIGINT AS keep_doc_id,
                   arg_min(CASE WHEN n_chars > 0 AND n_cjk * 1.0 / n_chars > 0.3
                                THEN 'zh' ELSE 'en' END, doc_id) AS lang_pred,
                   arg_min(n_chars, doc_id)::BIGINT AS n_chars,
                   arg_min(n_tokens, doc_id)::BIGINT AS n_tokens,
                   arg_min(est_tokens, doc_id)::BIGINT AS est_tokens,
                   count(*)::BIGINT AS n_dups
            FROM f GROUP BY 1
        """,
        "inverted_index": """
            WITH toks AS (
              SELECT DISTINCT doc_id, term FROM (
                SELECT doc_id,
                       unnest(regexp_split_to_array(lower(regexp_replace(text, '^\\s+|\\s+$', '', 'g')), '\\s+')) AS term
                FROM documents WHERE regexp_replace(text, '^\\s+|\\s+$', '', 'g') != ''
              )
            )
            SELECT term, count(*)::BIGINT AS df,
                   string_agg(doc_id::VARCHAR, ',' ORDER BY doc_id) AS postings
            FROM toks GROUP BY term
        """,
        "events_asof_join": """
            WITH p AS (SELECT event_id AS purchase_id, user_id,
                              epoch_us(ts) AS purchase_ts_us
                       FROM events WHERE event_type = 'purchase'),
                 c AS (SELECT event_id AS click_id, user_id,
                              epoch_us(ts) AS click_ts_us
                       FROM events WHERE event_type = 'click'),
                 j AS (SELECT p.purchase_id, p.user_id, p.purchase_ts_us,
                              c.click_id, c.click_ts_us,
                              row_number() OVER (
                                PARTITION BY p.purchase_id
                                ORDER BY c.click_ts_us DESC, c.click_id DESC
                              ) AS rn
                       FROM p JOIN c ON p.user_id = c.user_id
                                    AND c.click_ts_us <= p.purchase_ts_us)
            SELECT p.purchase_id, p.user_id,
                   p.purchase_ts_us::BIGINT AS purchase_ts_us,
                   coalesce(j.click_id, -1)::BIGINT AS click_id,
                   coalesce(j.click_ts_us, -1)::BIGINT AS click_ts_us,
                   coalesce(p.purchase_ts_us - j.click_ts_us, -1)::BIGINT AS gap_us
            FROM p LEFT JOIN (SELECT * FROM j WHERE rn = 1) j
                   USING (purchase_id, user_id, purchase_ts_us)
        """,
        "pii_scrub": """
            WITH s1 AS (
              SELECT doc_id, text,
                     len(regexp_extract_all(text,
                         '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'))::BIGINT
                       AS n_emails,
                     regexp_replace(text,
                         '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                         '[EMAIL]', 'g') AS c1
              FROM documents
            ),
            s2 AS (
              SELECT doc_id, n_emails,
                     len(regexp_extract_all(c1,
                         '\\b[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\b'))::BIGINT
                       AS n_ips,
                     regexp_replace(c1,
                         '\\b[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\b',
                         '[IP]', 'g') AS c2
              FROM s1
            )
            SELECT doc_id,
                   regexp_replace(c2, '\\+?[0-9][0-9\\- ]{7,}[0-9]', '[PHONE]', 'g')
                     AS text_clean,
                   n_emails, n_ips,
                   len(regexp_extract_all(c2, '\\+?[0-9][0-9\\- ]{7,}[0-9]'))::BIGINT
                     AS n_phones
            FROM s2
        """,
        "repetition_filter": """
            WITH arrs AS (
              SELECT doc_id, regexp_split_to_array(lower(regexp_replace(text, '^\\s+|\\s+$', '', 'g')), '\\s+') AS arr
              FROM documents WHERE regexp_replace(text, '^\\s+|\\s+$', '', 'g') != ''
            ),
            toks AS (
              SELECT doc_id, unnest(arr) AS term,
                     unnest(range(1, len(arr) + 1)) AS pos
              FROM arrs
            ),
            big AS (
              SELECT a.doc_id, a.term || ' ' || b.term AS bigram
              FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
            ),
            bc AS (SELECT doc_id, bigram, count(*)::BIGINT AS c FROM big GROUP BY 1, 2),
            agg AS (SELECT doc_id, max(c) AS top2, sum(c) AS nbig FROM bc GROUP BY 1),
            ta AS (
              SELECT doc_id, len(arr)::BIGINT AS n_tokens,
                     len(list_distinct(arr))::BIGINT AS n_distinct
              FROM arrs
            )
            SELECT t.doc_id, t.n_tokens, t.n_distinct,
                   (t.n_distinct * 1000000 // t.n_tokens)::BIGINT AS distinct_ratio_micros,
                   coalesce(a.top2, 0)::BIGINT AS top_bigram_count,
                   coalesce(a.top2 * 1000000 // a.nbig, 0)::BIGINT
                     AS top_bigram_frac_micros,
                   (CASE WHEN coalesce(a.top2 * 1000000 // a.nbig, 0) > 200000
                         THEN 1 ELSE 0 END)::BIGINT AS flagged
            FROM ta t LEFT JOIN agg a USING (doc_id)
        """,
        "pack_sequences": """
            WITH t AS (
              SELECT doc_id,
                     len(regexp_split_to_array(regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '\\s+'))::BIGINT AS n_tokens
              FROM documents WHERE regexp_replace(text, '^\\s+|\\s+$', '', 'g') != ''
            ),
            o AS (
              SELECT doc_id, n_tokens,
                     coalesce(sum(n_tokens) OVER (ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)::BIGINT
                       AS token_offset
              FROM t
            )
            SELECT doc_id, n_tokens, token_offset,
                   (token_offset // 512)::BIGINT AS first_seq,
                   ((token_offset + n_tokens - 1) // 512)::BIGINT AS last_seq
            FROM o
        """,
        "decontaminate": """
            WITH arrs AS (
              SELECT doc_id, regexp_split_to_array(lower(regexp_replace(text, '^\\s+|\\s+$', '', 'g')), '\\s+') AS arr
              FROM documents WHERE regexp_replace(text, '^\\s+|\\s+$', '', 'g') != ''
            ),
            g AS (
              SELECT doc_id, unnest(range(1, greatest(len(arr) - 4, 0) + 1)) AS i, arr
              FROM arrs
            ),
            grams AS (SELECT doc_id, array_to_string(arr[i:i+4], ' ') AS gram FROM g),
            eval_grams AS (SELECT DISTINCT gram FROM grams WHERE doc_id % 10 = 0),
            train_docs AS (
              SELECT doc_id, greatest(len(arr) - 4, 0)::BIGINT AS n_grams
              FROM arrs WHERE doc_id % 10 != 0
            ),
            hits AS (
              SELECT t.doc_id, count(*)::BIGINT AS n_hits
              FROM grams t JOIN eval_grams e USING (gram)
              WHERE t.doc_id % 10 != 0
              GROUP BY t.doc_id
            )
            SELECT d.doc_id, d.n_grams,
                   coalesce(h.n_hits, 0)::BIGINT AS n_hits,
                   (CASE WHEN coalesce(h.n_hits, 0) > 0 THEN 1 ELSE 0 END)::BIGINT
                     AS contaminated
            FROM train_docs d LEFT JOIN hits h USING (doc_id)
        """,
        "media_features": f"""
            WITH m AS (SELECT url, md5(decode(html)) AS h FROM read_parquet('{_P}')),
                 b AS (SELECT url, h, unnest(range(1, 17)) AS feat_idx FROM m),
                 d AS (SELECT url, h, feat_idx,
                              (strpos('0123456789abcdef', substr(h, 2*feat_idx - 1, 1)) - 1) * 16
                              + strpos('0123456789abcdef', substr(h, 2*feat_idx, 1)) - 1 AS byte_val
                       FROM b)
            SELECT url,
                   (16 + ((strpos('0123456789abcdef', substr(h, 1, 1)) - 1) * 16
                          + strpos('0123456789abcdef', substr(h, 2, 1)) - 1) % 64)::BIGINT AS width,
                   (16 + ((strpos('0123456789abcdef', substr(h, 3, 1)) - 1) * 16
                          + strpos('0123456789abcdef', substr(h, 4, 1)) - 1) % 64)::BIGINT AS height,
                   feat_idx::BIGINT AS feat_idx,
                   byte_val / CAST(255 AS DOUBLE) AS feat_val
            FROM d
        """,
        "sorted_rank": f"""
            SELECT url,
                   (row_number() OVER (ORDER BY url) - 1)::BIGINT AS rank
            FROM read_parquet('{_P}')
        """,
        "sample_uniform": """
            SELECT doc_id, rank FROM (
                SELECT doc_id,
                       row_number() OVER (ORDER BY md5('u0:' || doc_id)) AS rank
                FROM documents)
            WHERE rank <= 100
        """,
        "heavy_hitters": """
            WITH toks AS (
                SELECT unnest(regexp_split_to_array(lower(regexp_replace(text, '^\\s+|\\s+$', '', 'g')), '\\s+')) AS term
                FROM documents WHERE regexp_replace(text, '^\\s+|\\s+$', '', 'g') != ''
            ),
            t AS (SELECT term FROM toks WHERE term != ''),
            tot AS (SELECT count(*)::BIGINT AS n FROM t)
            SELECT term, count(*)::BIGINT AS cnt
            FROM t, tot GROUP BY term, tot.n
            HAVING count(*) > tot.n // 1000
        """,
        "mention_coverage": f"""
            WITH m AS (SELECT DISTINCT entity AS name
                       FROM read_parquet('{_G}/mentions.parquet')),
                 n AS (SELECT DISTINCT name
                       FROM read_parquet('{_G}/nodes_raw.parquet')),
                 c AS (SELECT
                         (SELECT count(*) FROM m JOIN n USING (name)) AS tp,
                         (SELECT count(*) FROM m ANTI JOIN n USING (name)) AS fp,
                         (SELECT count(*) FROM n ANTI JOIN m USING (name)) AS fn)
            SELECT tp::BIGINT AS tp, fp::BIGINT AS fp, fn::BIGINT AS fn,
                   (CASE WHEN tp + fp > 0 THEN tp * 1000000 // (tp + fp)
                         ELSE 0 END)::BIGINT AS precision_micros,
                   (CASE WHEN tp + fn > 0 THEN tp * 1000000 // (tp + fn)
                         ELSE 0 END)::BIGINT AS recall_micros,
                   (CASE WHEN tp + fp + fn > 0
                         THEN 2 * tp * 1000000 // (2 * tp + fp + fn)
                         ELSE 0 END)::BIGINT AS f1_micros
            FROM c
        """,
        "pipeline_counters": f"""
            SELECT * FROM (VALUES
              ('counter:pages_in',
               (SELECT count(*) FROM read_parquet('{_P}'))),
              ('counter:pages_dropped_verification',
               (SELECT count(*) FROM read_parquet('{_P}'))
               - (SELECT count(*) FROM read_parquet('{_G}/extracted.parquet'))),
              ('unit:parsed',
               (SELECT count(*) FROM read_parquet('{_G}/extracted.parquet'))),
              ('unit:nodes',
               (SELECT count(DISTINCT id)
                FROM read_parquet('{_G}/nodes_raw.parquet'))),
              ('unit:edges', (SELECT count(*) FROM ({_EDGES})))
            ) AS t(k, v)
        """,
        "token_budget": f"""
            WITH ex AS (SELECT url, text_out
                        FROM read_parquet('{_G}/extracted.parquet')),
            items AS (
                SELECT url,
                       unnest(range(1, len(string_split(text_out, chr(10))) + 1)) AS pos,
                       unnest(string_split(text_out, chr(10))) AS item
                FROM ex),
            est AS (SELECT url, pos, (length(item) // 2)::BIGINT AS est FROM items),
            w AS (
                SELECT url, pos, est,
                       sum(est) OVER (PARTITION BY url) AS total,
                       coalesce(sum(est) OVER (
                           PARTITION BY url ORDER BY est DESC, pos
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                       ), 0) AS cum_before
                FROM est),
            v AS (SELECT url, est,
                         (total - cum_before > {TOKEN_BUDGET}) AS dropped
                  FROM w)
            SELECT url,
                   count(*)::BIGINT AS n_items,
                   count(*) FILTER (NOT dropped)::BIGINT AS n_kept,
                   count(*) FILTER (dropped)::BIGINT AS n_dropped,
                   sum(est)::BIGINT AS est_total,
                   coalesce(sum(est) FILTER (NOT dropped), 0)::BIGINT AS est_kept
            FROM v GROUP BY url
        """,
        "prompt_assembly": f"""
            WITH p AS (
                SELECT url,
                       '{PROMPT_TEMPLATE}' || chr(10) || chr(10) ||
                       '请开始判断以下数据:' || chr(10) || chr(10) || text_out AS prompt
                FROM read_parquet('{_G}/extracted.parquet'))
            SELECT url, prompt, length(prompt)::BIGINT AS n_prompt_chars FROM p
        """,
        "export_json": f"""
            WITH l AS (SELECT url,
                              'https://baike.baidu.com' || split_part(href, '?', 1) AS link_url,
                              text
                       FROM read_parquet('{_G}/links_raw.parquet')
                       WHERE href LIKE '/item/%'),
            nodes AS (
                SELECT url, name FROM (
                    SELECT url, name, flag,
                           row_number() OVER (PARTITION BY url ORDER BY flag, name) AS rn
                    FROM (SELECT url, title AS name, 0 AS flag
                          FROM read_parquet('{_G}/extracted.parquet')
                          UNION ALL
                          SELECT link_url AS url, text AS name, 1 AS flag FROM l))
                WHERE rn = 1),
            idx AS (SELECT url, (row_number() OVER (ORDER BY url) - 1)::BIGINT AS i
                    FROM nodes),
            e AS (SELECT DISTINCT url AS src_url, link_url AS dst_url FROM l)
            SELECT (SELECT count(*) FROM nodes)::BIGINT AS n_nodes,
                   (SELECT count(*) FROM e)::BIGINT AS n_child_links,
                   (SELECT count(*) FROM e)::BIGINT AS n_parent_links,
                   (SELECT coalesce(sum(i.i), 0) FROM e JOIN idx i
                    ON e.dst_url = i.url)::BIGINT AS sum_child_index,
                   (SELECT arg_min(name, url) FROM nodes) AS first_node_name
        """,
        "csv_roundtrip": f"""
            SELECT (SELECT count(*) FROM ({_EDGES}))::BIGINT AS n_rows,
                   (SELECT count(DISTINCT subj) FROM ({_EDGES}))::BIGINT AS n_start_ids,
                   (SELECT count(DISTINCT pred) FROM ({_EDGES}))::BIGINT AS n_rel_types
        """,
        "export_graph": f"""
            SELECT (SELECT count(DISTINCT substr(md5(name), 1, 8))
                    FROM read_parquet('{_G}/nodes_raw.parquet'))::BIGINT AS n_nodes,
                   (SELECT count(*) FROM ({_EDGES}))::BIGINT AS ttl_edges_written,
                   (SELECT count(*) FROM ({_EDGES}))::BIGINT AS csv_edges_written
        """,
        # dedup_minhash / dedup_simhash / doc_fingerprint / simsearch_lsh /
        # embed_concepts / rag_topk: not SQL-expressible
        # (signature/sketch/model ops) → rows-only check; their semantics are
        # pytest-verified against brute-force references.
    }
