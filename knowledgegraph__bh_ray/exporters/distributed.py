"""Distributed graph export — the exporters as partitioned map_batches sinks.

The driver-side formatters (exporters/rdf.py, exporters/neo4j_csv.py) are
correct but serialize export through the driver; this module runs them as
real sink STAGES over the (post-shuffle) edges Dataset: each edge partition
writes ONE fragment file, the vocabulary-sized node table writes a single
header/prelude file, and a manifest dataset of (path, n_rows) flows back —
the resumable-output layout (partitioned directory, never one giant file).

Format notes:
  * TTL — the header file carries prefixes + node declarations; each
    fragment re-declares the ObjectProperties it uses (RDF triples are
    idempotent assertions, so duplicate declarations across fragments are
    harmless and keep fragments self-contained).
  * relations CSV — `neo4j-admin import` needs ONE consistent header, and
    the prop-key union is global (reference op G3): a tiny distinct
    aggregate over property keys runs first and the sorted union is
    broadcast into every fragment writer; every fragment carries the same
    header line (the import tool accepts per-file headers).
"""

from __future__ import annotations

import hashlib
import os

import pandas as pd

from .neo4j_csv import _prop_keys, _relations_csv
from .rdf import CLASS_TYPES_OWL, _ttl_escape


def _fragment_name(prefix: str, content: str, ext: str) -> str:
    return f"{prefix}-{hashlib.md5(content.encode('utf-8')).hexdigest()[:12]}.{ext}"


def write_ttl_partitioned(nodes: pd.DataFrame, edges_ds, out_dir: str,
                          ontology_iri_suffix: str = "#"):
    """nodes (vocabulary-sized DataFrame) + edges Dataset → partitioned TTL
    directory: ``header.ttl`` (prefixes + node declarations) + one
    ``edges-<hash>.ttl`` fragment per partition.  Returns the manifest
    DataFrame (path, n_rows)."""
    import ray

    from .rdf import DATA_IRI, ONTOLOGY_IRI, nodes_edges_to_ttl

    os.makedirs(out_dir, exist_ok=True)
    # header = the full node-side TTL (prefixes, typing, labels, parents)
    header = nodes_edges_to_ttl(nodes, edges=pd.DataFrame(
        {"subj": [], "pred": [], "obj": [], "subj_name": [], "obj_name": [],
         "props_json": []}))
    with open(os.path.join(out_dir, "header.ttl"), "w", encoding="utf-8") as f:
        f.write(header)

    is_class = dict(zip(nodes["id"], nodes["type"].isin(CLASS_TYPES_OWL)))
    ref = ray.put(is_class)
    ont = ONTOLOGY_IRI + ontology_iri_suffix
    prefixes = (
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        f"@prefix ont: <{ont}> .\n"
        f"@prefix data: <{DATA_IRI}> .\n\n"
    )

    def _write_fragment(batch: pd.DataFrame) -> pd.DataFrame:
        if "subj" not in batch.columns or len(batch) == 0:
            return pd.DataFrame({"path": pd.Series([], dtype=object),
                                 "n_rows": pd.Series([], dtype="int64")})
        cls = ray.get(ref)

        def ref_of(nid):
            return f"ont:{nid}" if cls.get(nid) else f"data:{nid}"

        lines = [prefixes]
        declared: set[str] = set()
        n = 0
        for _, rel in batch.iterrows():
            if rel["subj"] not in cls or rel["obj"] not in cls:
                continue  # dangling dropped (same policy as the formatter)
            pred = str(rel["pred"]).replace(" ", "_")
            if pred not in declared:
                declared.add(pred)
                lines.append(f"ont:{pred} a owl:ObjectProperty ;")
                lines.append(f'    rdfs:label "{_ttl_escape(str(rel["pred"]))}" .')
            lines.append(f'{ref_of(rel["subj"])} ont:{pred} {ref_of(rel["obj"])} .')
            n += 1
        content = "\n".join(lines) + "\n"
        path = os.path.join(out_dir, _fragment_name("edges", content, "ttl"))
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
        return pd.DataFrame({"path": [path], "n_rows": pd.Series([n], dtype="int64")})

    return edges_ds.map_batches(_write_fragment, batch_format="pandas").to_pandas()


def global_prop_keys(edges_ds) -> list[str]:
    """Distributed prop-key union (reference op G3): per-batch key sets →
    tiny distinct aggregate → sorted union."""
    from ..stages.grouped import distinct_block, hash_partitioned_agg

    def _keys(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"key": _prop_keys(batch.get("props_json", []))})

    pdf = hash_partitioned_agg(
        edges_ds.map_batches(_keys, batch_format="pandas"), ["key"],
        distinct_block(["key"]), num_parts=4,
    ).to_pandas()
    return sorted(pdf["key"]) if "key" in pdf.columns else []


def write_relations_csv_partitioned(edges_ds, out_dir: str):
    """edges Dataset → partitioned Neo4j relations CSV: the global sorted
    prop-key union is computed first (one tiny aggregate) and broadcast so
    EVERY fragment has the identical header.  Returns the manifest."""
    import ray

    os.makedirs(out_dir, exist_ok=True)
    keys = global_prop_keys(edges_ds)
    keys_ref = ray.put(keys)

    def _write_fragment(batch: pd.DataFrame) -> pd.DataFrame:
        if "subj" not in batch.columns or len(batch) == 0:
            return pd.DataFrame({"path": pd.Series([], dtype=object),
                                 "n_rows": pd.Series([], dtype="int64")})
        content = _relations_csv(batch, ray.get(keys_ref))
        path = os.path.join(out_dir, _fragment_name("relations", content, "csv"))
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(content)
        return pd.DataFrame({"path": [path], "n_rows": pd.Series([len(batch)], dtype="int64")})

    return edges_ds.map_batches(_write_fragment, batch_format="pandas").to_pandas()
