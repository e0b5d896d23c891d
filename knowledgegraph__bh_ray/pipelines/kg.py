"""The knowledge-graph construction DAG (SURVEY.md §7.1 target dataflow).

    pages ─extract+parse─▶ parsed ─┬─▶ links ─▶ page-graph edges (distinct) ─▶ BFS
                                   ├─▶ titles + links ─▶ page-graph nodes (placeholders)
                                   ├─▶ nodes_raw ─▶ nodes (keep-first by id)
                                   │                  ├─▶ node-id vocabulary
                                   │                  └─▶ canonical map (linkage.canonical_map_pdf)
                                   └─▶ triples_raw ─▶ edges (dedup + count, dangling dropped)
                                             └─────▶ edges_canonical (broadcast-linked)

Each function returns a *lazy* ``ray.data.Dataset``; nothing materializes
until the caller consumes (write_parquet / to_pandas on small results).
Only ``parsed_ds`` reads pages; every builder after it takes a parsed
(or nodes) Dataset.  The one caller that wires the entity graph into the
DAG above is ``pipelines/run.run_kg_pipeline``, which reads the vocabulary
and the canonical map from its deduped ``nodes/`` table and passes them
in; the query registry passes that run's ``parsed/`` table to the link
and page-graph builders.  Wide steps use the size-planned aggregation in
stages/grouped.py; small-side lookups (node-id vocabulary, canonical map)
are put once and applied by plain map tasks, each worker building its
lookup once per broadcast (state/broadcast.broadcast_map) — never
re-shipped per batch and never a second shuffle.  Both edge tables come
out in the subj-bucketed adjacency layout (``_edge_agg``).

Batch-size note: html rows are a few KB; 256 rows/batch keeps per-task
overhead amortized while a batch per concurrent task (one per CPU) stays
≪ worker heap.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import bucket_of
from ..sources import read_pages
from ..stages.extract import (
    PARSED_SCHEMA,
    extract_parse_batch,
    flatten_list_column,
)
from ..stages.grouped import (
    SizeEstimate,
    count_first_block,
    keep_first_block,
    salted_grouped_agg,
)
from ..stages.linkage import CanonicalizeTriples
from ..state.broadcast import broadcast_map

EXTRACT_BATCH_SIZE = 256
ADJACENCY_BUCKETS = 16


def parsed_ds(pages_path: str):
    """pages → parsed page records (url, title, summary, text_out, links,
    nodes, triples).  Column-pruned read: only url + html leave storage."""
    return read_pages(pages_path, columns=["url", "html"]).map_batches(
        extract_parse_batch, batch_format="pyarrow", batch_size=EXTRACT_BATCH_SIZE
    )


def links_ds(parsed):
    """parsed Dataset → exploded scoped links (url, text, link_url) — ops
    M2/M3."""
    return parsed.map_batches(
        lambda t: flatten_list_column(t, "links", keep=["url"]),
        batch_format="pyarrow",
    )


def nodes_raw_ds(parsed):
    """parsed Dataset → one row per concept occurrence (pre-dedup)."""
    return parsed.map_batches(
        lambda t: flatten_list_column(t, "nodes", keep=["url"]),
        batch_format="pyarrow",
    )


def triples_raw_ds(parsed):
    """parsed Dataset → one row per emitted relation (duplicates preserved —
    md2csv.py:93 appends without dedup; dedup is the edges stage)."""
    return parsed.map_batches(
        lambda t: flatten_list_column(t, "triples", keep=["url"]),
        batch_format="pyarrow",
    )


def nodes_ds(parsed, salt_buckets: int = 16, est: SizeEstimate | None = None):
    """Global node dedup: keep-first by canonical id, ordered by ``seq``
    (G1 resolved keep-first to match the scored Neo4j-side semantics G6 —
    SURVEY.md §7.4 'last-write-wins vs first-wins').

    ``est``: the size of the node occurrences, which picks the
    aggregation's arm (stages/grouped.plan_arm); ``None`` keeps the salted
    plan."""
    return salted_grouped_agg(
        nodes_raw_ds(parsed),
        keys=["id"],
        block_agg=keep_first_block(["id"], "seq"),
        salt_from="url",
        salt_buckets=salt_buckets,
        est=est,
    )


EDGE_KEYS = ["subj", "pred", "obj"]
BUCKET_COL = "subj_bucket"


def edge_schema() -> pa.Schema:
    """``_edge_agg``'s output columns, for a writer whose edge table came
    out empty: a raw triple row's, the summed ``weight`` and
    ``subj_bucket``."""
    raw = flatten_list_column(PARSED_SCHEMA.empty_table(), "triples", keep=["url"]).schema
    return raw.append(pa.field("weight", pa.int64())).append(pa.field(BUCKET_COL, pa.int64()))


def _subj_bucket(df: pd.DataFrame) -> np.ndarray:
    return np.array([bucket_of(s, ADJACENCY_BUCKETS) for s in df["subj"]], dtype="int64")


def _sorted_bucket(df: pd.DataFrame) -> pd.DataFrame:
    out = df.sort_values(EDGE_KEYS, kind="mergesort").reset_index(drop=True)
    out[BUCKET_COL] = _subj_bucket(out)
    return out


def _edge_agg(kept, salt_buckets: int = 16, est: SizeEstimate | None = None):
    """Dedup-count of linked triples per (subj, pred, obj), laid out as the
    sorted, subj-bucketed adjacency table: the aggregation's final exchange
    routes by ``bucket_of(subj, ADJACENCY_BUCKETS)`` (a function of the
    key, so dedup stays exact), and each final group — one bucket — is
    sorted by key and carries a ``subj_bucket`` column, ready for
    ``write_parquet(partition_cols=["subj_bucket"])``.  A reader doing
    per-entity lookups prunes to one bucket dir and one sorted range, and
    building the layout costs no shuffle beyond the aggregation's own.  On
    the ``local`` arm (``est`` small) ``finish`` sorts the whole result
    once, which gives every bucket the same rows in the same order."""
    return salted_grouped_agg(
        kept,
        keys=EDGE_KEYS,
        block_agg=count_first_block(EDGE_KEYS, "seq"),
        salt_from="url",
        salt_buckets=salt_buckets,
        est=est,
        final_route=_subj_bucket,
        finish=_sorted_bucket,
    )


def _drop_dangling(ids_ref):
    """Batch callable over the broadcast node-id set: keep the triples
    whose two endpoints are both known ids.  ``edges_ds`` builds it once
    per worker process and broadcast ref (state/broadcast.py)."""
    import ray

    ids = ray.get(ids_ref)

    def _keep(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch["subj"].isin(ids) & batch["obj"].isin(ids)
        return batch[m].reset_index(drop=True)

    return _keep


def edges_ds(parsed, node_ids: frozenset, salt_buckets: int = 16,
             est: SizeEstimate | None = None):
    """Triple dedup + graph materialization (G2/G6): drop dangling endpoints
    (reference policy J1: both endpoints must be known concepts), then
    groupby (subj, pred, obj) → weight = occurrence count, representative
    names/props = global keep-first by seq, in the adjacency layout (see
    ``_edge_agg``).

    The node-id vocabulary ``node_ids`` (the ids of the deduped nodes
    table) is broadcast and probed by plain map tasks, each worker
    fetching the set once per ref (state/broadcast.py).

    ``est``: the size of the raw triples, which picks the aggregation's
    arm (stages/grouped.plan_arm)."""
    kept = broadcast_map(triples_raw_ds(parsed), node_ids, _drop_dangling)
    return _edge_agg(kept, salt_buckets, est)


def edges_canonical_ds(parsed, canon_map: dict, est: SizeEstimate | None = None):
    """Canonicalized, deduplicated edge table: endpoints rewritten to
    canonical ids, unknown blocking keys dropped, then the same
    dedup-count and adjacency layout as edges_ds.

    The canonical map ``canon_map`` (``linkage.canon_lookup`` of
    ``linkage.canonical_map_pdf`` over the deduped nodes) is broadcast and
    applied by plain map tasks, each worker building the lookup dicts once
    per ref (state/broadcast.py).

    ``est``: as for ``edges_ds``."""
    linked = broadcast_map(triples_raw_ds(parsed), canon_map, CanonicalizeTriples)
    return _edge_agg(linked, est=est)


# ---------------------------------------------------------------------------
# Page-level graph (web-branch constructor semantics, J4/G5)
# ---------------------------------------------------------------------------


def page_graph_edges_ds(parsed):
    """parsed Dataset (url, links) → distinct page-link edges (src_url,
    dst_url, text) — the reference's BFS children/parents relation
    (constructor.py:189-244) re-expressed order-free: global distinct
    instead of visited-set mutation."""
    from ..stages.grouped import distinct_block, hash_partitioned_agg

    links = links_ds(parsed).map_batches(
        lambda df: df.rename(columns={"url": "src_url", "link_url": "dst_url"}),
        batch_format="pandas",
    )
    return hash_partitioned_agg(
        links, ["src_url", "dst_url", "text"], distinct_block(["src_url", "dst_url", "text"])
    )


def page_graph_nodes_ds(parsed):
    """parsed Dataset (url, title, links) → page nodes with placeholder
    semantics: crawled pages keep their extracted title; link targets never
    crawled become placeholders named by the (min) link text — the
    reference's placeholder-upsert (constructor.py:207-229) as a groupby
    merge instead of a shared dict.  Each batch emits both its pages and
    its link targets, so the input is read once.
    Deterministic delta vs the reference: placeholder name = lexicographic
    min link text (the reference keeps BFS-encounter order)."""
    from ..stages.grouped import hash_partitioned_agg

    def _candidates(t: pa.Table) -> pd.DataFrame:
        links = flatten_list_column(t, "links", keep=["url"])
        real = pd.DataFrame({"url": t.column("url").to_pandas(),
                             "name": t.column("title").to_pandas(),
                             "is_placeholder": np.int64(0)})
        targets = pd.DataFrame({"url": links.column("link_url").to_pandas(),
                                "name": links.column("text").to_pandas(),
                                "is_placeholder": np.int64(1)})
        return pd.concat([real, targets], ignore_index=True)

    def _merge(df: pd.DataFrame) -> pd.DataFrame:
        # real row (flag 0) wins; among placeholders, min name
        return (
            df.sort_values(["is_placeholder", "name"], kind="mergesort")
            .drop_duplicates(subset=["url"], keep="first")
            .reset_index(drop=True)
        )

    return hash_partitioned_agg(parsed.map_batches(_candidates, batch_format="pyarrow"),
                                ["url"], _merge)


def node_parents_ds(nodes):
    """Parent resolution self-join (ops J2/J3) over the deduped ``nodes``
    Dataset — order-independent: the reference resolves ``parent`` only
    when the parent row precedes the child in file order
    (csv2owl.py:49-57).  Implemented as a reduce-side left join (nodes ⋈
    nodes on parent = id, stages/grouped.reduce_side_join) — the
    both-sides-large join form; dangling parents → ''.  ``nodes`` is
    materialized once and feeds both sides of the join."""
    from ..stages.grouped import reduce_side_join

    nodes = nodes.materialize()
    # .get: the aggregation can hand over column-less empty blocks
    parents = nodes.map_batches(
        lambda b: pd.DataFrame({"id": b.get("id", []), "parent_name": b.get("name", [])}),
        batch_format="pandas",
    )
    joined = reduce_side_join(nodes, ["id", "name", "parent"], "parent", parents, "id",
                              vals=["parent_name"], how="left", num_parts=8)
    return joined.map_batches(lambda b: b.fillna({"parent_name": ""}),
                              batch_format="pandas")


def bfs_reachable(parsed, start_url: str, max_depth: int = 2, max_nodes: int = 100):
    """BFS frontier with depth/node caps (reference op T2,
    constructor.py:135-159) over the page-link graph of a parsed Dataset
    (url, links).

    Scale shape: the edge table lives in the OBJECT STORE (materialized
    once so levels don't re-read the links); the driver holds only the
    visited/frontier sets — bounded by ``max_nodes`` — and each level
    fetches just the frontier's out-edges via a broadcast-frontier
    semi-filter (frontier is cap-bounded, the canonical small side).
    Deterministic: frontier processed in sorted-url order per level."""
    import pandas as pd
    import ray

    edges = page_graph_edges_ds(parsed).select_columns(["src_url", "dst_url"]).materialize()

    visited: dict[str, int] = {start_url: 0}
    frontier = [start_url]
    depth = 0
    while frontier and depth < max_depth and len(visited) < max_nodes:
        f_ref = ray.put(frozenset(frontier))

        def _frontier_edges(b: pd.DataFrame, f_ref=f_ref) -> pd.DataFrame:
            f = ray.get(f_ref)
            return b[b["src_url"].isin(f)].reset_index(drop=True)

        lvl = edges.map_batches(_frontier_edges, batch_format="pandas").to_pandas()
        adj = (
            lvl.groupby("src_url")["dst_url"].apply(sorted).to_dict()
            if len(lvl)
            else {}
        )
        nxt = []
        for u in sorted(frontier):
            for v in adj.get(u, []):
                if v not in visited and len(visited) < max_nodes:
                    visited[v] = depth + 1
                    nxt.append(v)
        frontier = nxt
        depth += 1
    out = pd.DataFrame({"url": list(visited), "depth": list(visited.values())})
    out["depth"] = out["depth"].astype("int64")
    return out.sort_values(["depth", "url"]).reset_index(drop=True)
