"""Web-branch graph JSON exporter (reference op W5).

Emits the constructor-style knowledge-graph JSON — a list of ontology
records ``{name, contents, children, parents, URL, basic_info, catalog,
content_paragraphs, references}`` with children/parents as
``{name, index}`` pairs (constructor.py:121-131, 253-277; the committed
sample ``web_crawler2/KnowledgeGraph/knowledge_graph.json`` has exactly
these keys).

Deterministic deltas vs the reference: node indices follow sorted-url
order instead of BFS-encounter order (the BFS visit order is an artifact
of the single-process crawl loop, not of the graph); children / parents
lists are ordered by target index.  Link COUNTS differ as well as order:
the export keeps one link per (src, dst), with the lexicographically-min
link text as its name, while the reference keeps every distinct
``{name, index}`` child, so a page linking one target under two anchor
texts has one child here and two there.

Two code paths, byte-identical on the same graph (pinned in
tests/test_graph_and_export.py):

- ``page_graph_to_json`` — the serial in-memory reference (small inputs,
  tests);
- ``page_graph_fragments_ds`` + ``write_json_array_stream`` — the scale
  path: every per-node JSON fragment is built DISTRIBUTED (ranks via the
  sampled-boundary sorted-rank op, record/link attachment via reduce-side
  lookups), and the driver only streams sorted fragments to disk batch by
  batch — no page-graph-scale driver materialization.  ``iter_json_array``
  is the matching streaming parser (incremental ``raw_decode`` over a
  bounded buffer) used to recompute invariants FROM the written file.
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd

REC_FIELDS = ["contents", "basic_info_json", "catalog_json",
              "paragraphs_json", "references_json"]


def page_graph_to_json(
    records: pd.DataFrame, nodes: pd.DataFrame, edges: pd.DataFrame
) -> list[dict]:
    """records(url, name, contents, basic_info_json, catalog_json,
    references_json) + page-graph nodes/edges → constructor-style list.
    Serial reference implementation."""
    nodes = nodes.sort_values("url", kind="mergesort").reset_index(drop=True)
    index_of = {u: i for i, u in enumerate(nodes["url"])}
    rec_by_url = {r["url"]: r for _, r in records.iterrows()}

    out = []
    for _, n in nodes.iterrows():
        rec = rec_by_url.get(n["url"])
        out.append(
            {
                "name": n["name"],
                "contents": rec["contents"] if rec is not None else "",
                "children": [],
                "parents": [],
                "URL": n["url"],
                "basic_info": json.loads(rec["basic_info_json"]) if rec is not None else {},
                "catalog": json.loads(rec["catalog_json"]) if rec is not None else [],
                "content_paragraphs": json.loads(rec["paragraphs_json"]) if rec is not None else [],
                "references": json.loads(rec["references_json"]) if rec is not None else [],
            }
        )

    # duplicate (src, dst) links keep the min text — deterministic, unlike
    # an arrival-order keep-first over a distributed edge set
    e = edges.sort_values(["src_url", "dst_url", "text"], kind="mergesort")
    e = e.drop_duplicates(subset=["src_url", "dst_url"], keep="first")
    for _, ed in e.iterrows():
        src = index_of.get(ed["src_url"])
        dst = index_of.get(ed["dst_url"])
        if src is None or dst is None:
            continue
        out[src]["children"].append({"name": ed["text"], "index": dst})
        out[dst]["parents"].append({"name": out[src]["name"], "index": src})
    for g in out:
        g["children"].sort(key=lambda c: c["index"])
        g["parents"].sort(key=lambda c: c["index"])
    return out


def page_graph_fragments_ds(records_ds, nodes_ds, edges_ds,
                            rank_col: str = "_idx"):
    """Distributed per-node JSON fragments: Dataset (``rank_col``, frag)
    where ``frag`` is the node's serialized record, byte-compatible with
    ``json.dump``'s default list formatting when joined with ", " inside
    "[...]".  No corpus-scale driver state — ranks, link attachment and
    fragment building all run as Dataset stages."""
    from ..stages.grouped import (
        exchange,
        hash_partitioned_agg,
        keep_first_block,
        reduce_side_join,
    )
    from ..stages.rank import attach_sorted_rank

    nodes_ranked = attach_sorted_rank(
        nodes_ds, "url", rank_col=rank_col
    ).materialize()  # consumed 3× (records attach, src lut, dst lut)

    # dedup (src, dst) keeping min text — one partitioned keep-first agg
    edges_d = hash_partitioned_agg(
        edges_ds,
        ["src_url", "dst_url"],
        keep_first_block(["src_url", "dst_url"], "text"),
    )

    src_lut = nodes_ranked.map_batches(
        lambda d: pd.DataFrame({
            "url": d.get("url", []),
            "src_idx": d.get(rank_col, []),
            "src_name": d.get("name", []),
        }),
        batch_format="pandas",
    )
    dst_lut = nodes_ranked.map_batches(
        lambda d: pd.DataFrame({
            "url": d.get("url", []),
            "dst_idx": d.get(rank_col, []),
        }),
        batch_format="pandas",
    )
    e1 = reduce_side_join(
        edges_d, cols=["src_url", "dst_url", "text"], key_col="src_url",
        other_ds=src_lut, other_key="url", vals=["src_idx", "src_name"],
    )
    e2 = reduce_side_join(
        e1, cols=["src_url", "dst_url", "text", "src_idx", "src_name"],
        key_col="dst_url", other_ds=dst_lut, other_key="url", vals=["dst_idx"],
    )

    def _child_frags(d: pd.DataFrame) -> pd.DataFrame:
        g = d.sort_values(["src_idx", "dst_idx"], kind="mergesort")
        elems = [json.dumps({"name": t, "index": int(i)}, ensure_ascii=False)
                 for t, i in zip(g["text"], g["dst_idx"])]
        agg = (pd.DataFrame({"k": g["src_idx"].to_numpy(dtype="int64"),
                             "e": elems})
               .groupby("k", sort=False)["e"].agg(", ".join))
        return pd.DataFrame({rank_col: agg.index.to_numpy(dtype="int64"),
                             "children_json": ("[" + agg + "]").to_numpy()})

    def _parent_frags(d: pd.DataFrame) -> pd.DataFrame:
        g = d.sort_values(["dst_idx", "src_idx"], kind="mergesort")
        elems = [json.dumps({"name": nm, "index": int(i)}, ensure_ascii=False)
                 for nm, i in zip(g["src_name"], g["src_idx"])]
        agg = (pd.DataFrame({"k": g["dst_idx"].to_numpy(dtype="int64"),
                             "e": elems})
               .groupby("k", sort=False)["e"].agg(", ".join))
        return pd.DataFrame({rank_col: agg.index.to_numpy(dtype="int64"),
                             "parents_json": ("[" + agg + "]").to_numpy()})

    e2 = e2.materialize()  # consumed by both fragment builders

    # fragment concatenation is NOT associative (ordered join of pieces),
    # so no partial agg: route all of a node's link rows to one partition,
    # build its list fragment there in one vectorized groupby-join
    children = exchange(e2, ["src_idx"], _child_frags)
    parents = exchange(e2, ["dst_idx"], _parent_frags)

    with_rec = reduce_side_join(
        nodes_ranked, cols=["url", "name", rank_col], key_col="url",
        other_ds=records_ds, other_key="url", vals=REC_FIELDS, how="left",
    )
    with_children = reduce_side_join(
        with_rec, cols=["url", "name", rank_col] + REC_FIELDS,
        key_col=rank_col, other_ds=children, other_key=rank_col,
        vals=["children_json"], how="left",
    )
    with_all = reduce_side_join(
        with_children,
        cols=["url", "name", rank_col] + REC_FIELDS + ["children_json"],
        key_col=rank_col, other_ds=parents, other_key=rank_col,
        vals=["parents_json"], how="left",
    )

    def _fragment(d: pd.DataFrame) -> pd.DataFrame:
        if "url" not in d.columns or not len(d):
            return pd.DataFrame({rank_col: pd.Series([], dtype="int64"),
                                 "frag": pd.Series([], dtype=object)})
        frags = []
        for url, name, contents, bi, cat, par, ref, cj, pj in zip(
            d["url"], d["name"], d["contents"], d["basic_info_json"],
            d["catalog_json"], d["paragraphs_json"], d["references_json"],
            d["children_json"], d["parents_json"],
        ):
            has_rec = isinstance(bi, str)
            obj = {
                "name": name,
                "contents": contents if isinstance(contents, str) else "",
                "children": json.loads(cj) if isinstance(cj, str) else [],
                "parents": json.loads(pj) if isinstance(pj, str) else [],
                "URL": url,
                "basic_info": json.loads(bi) if has_rec else {},
                "catalog": json.loads(cat) if isinstance(cat, str) else [],
                "content_paragraphs": json.loads(par) if isinstance(par, str) else [],
                "references": json.loads(ref) if isinstance(ref, str) else [],
            }
            frags.append(json.dumps(obj, ensure_ascii=False))
        return pd.DataFrame({
            rank_col: d[rank_col].to_numpy(dtype="int64"),
            "frag": frags,
        })

    return with_all.map_batches(_fragment, batch_format="pandas")


def write_json_array_stream(fragments_ds, path: str,
                            rank_col: str = "_idx") -> int:
    """Sort fragments by rank DISTRIBUTED, then stream them to ``path`` as
    one JSON array — the driver holds one batch at a time.  Returns the
    node count.  Byte-identical to ``json.dump(list, f)`` (", " element
    separator, no trailing newline)."""
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        f.write("[")
        for batch in fragments_ds.sort(rank_col).iter_batches(
            batch_format="pandas", batch_size=2048
        ):
            for s in batch["frag"]:
                if n:
                    f.write(", ")
                f.write(s)
                n += 1
        f.write("]")
    return n


def iter_json_array(path: str, chunk_bytes: int = 1 << 22):
    """Stream the elements of a (possibly huge) top-level JSON array from
    disk: incremental ``JSONDecoder.raw_decode`` over a bounded sliding
    buffer — memory is O(chunk + max element), never O(file).

    Elements must be objects/arrays/strings (as in the page-graph artifact):
    a truncated one raises and triggers a refill.  A BARE numeric/boolean
    element could decode "successfully" when split exactly at a buffer
    boundary, so this parser is not for arrays of bare scalars."""
    dec = json.JSONDecoder()
    with open(path, encoding="utf-8") as f:
        buf = f.read(chunk_bytes)
        pos = 0
        started = False
        while True:
            while pos < len(buf) and buf[pos] in " \t\r\n,":
                pos += 1
            if pos >= len(buf):
                data = f.read(chunk_bytes)
                if not data:
                    if started:
                        raise ValueError("unterminated JSON array")
                    return
                buf, pos = buf[pos:] + data, 0
                continue
            c = buf[pos]
            if not started:
                if c != "[":
                    raise ValueError(f"expected '[', got {c!r}")
                started = True
                pos += 1
                continue
            if c == "]":
                return
            try:
                obj, end = dec.raw_decode(buf, pos)
            except json.JSONDecodeError:
                data = f.read(chunk_bytes)
                if not data:
                    raise
                buf, pos = buf[pos:] + data, 0
                continue
            yield obj
            pos = end
