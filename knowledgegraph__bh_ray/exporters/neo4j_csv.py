"""Neo4j-import CSV exporter — reference ops W3/W4 column layout.

Reproduces the reference's ``md2csv.py`` CSV contract exactly
(md2csv.py:107-158, documented README.md:165-177):

  concepts:  ``:ID,name,type,parent`` + one ``<prop>:LABEL`` column per
             property key present anywhere (dynamic union, sorted)
  relations: ``:START_ID,:END_ID,:TYPE,_o_source_,_o_target_`` + prop
             columns the same way

The engine's native artifact is the Parquet nodes/edges tables with a
``props_json`` map column; this exporter is the compatibility surface for a
user feeding ``neo4j-admin import`` (README.md:203-311).  It formats per
batch (map_batches) after the dedup shuffles; the dynamic header union is
an extra tiny aggregate over property keys.
"""

from __future__ import annotations

import csv
import io
import json

import pandas as pd


def _prop_keys(props_json: pd.Series) -> list[str]:
    keys: set[str] = set()
    for p in props_json:
        if p:
            keys.update(json.loads(p))
    return sorted(keys)


def nodes_to_neo4j_csv(nodes: pd.DataFrame) -> str:
    """nodes(id, name, type, parent, props_json) → concepts CSV text."""
    prop_keys = _prop_keys(nodes.get("props_json", pd.Series(dtype=object)))
    fieldnames = [":ID", "name", "type", "parent"] + [f"{k}:LABEL" for k in prop_keys]
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fieldnames)
    w.writeheader()
    for _, r in nodes.iterrows():
        row = {
            ":ID": r["id"],
            "name": r["name"],
            "type": r["type"],
            "parent": r.get("parent", "") or "",
        }
        for k, v in (json.loads(r["props_json"]) if r.get("props_json") else {}).items():
            row[f"{k}:LABEL"] = v
        w.writerow(row)
    return buf.getvalue()


def edges_to_neo4j_csv(edges: pd.DataFrame) -> str:
    """edges(subj, pred, obj, subj_name, obj_name[, props_json]) →
    relations CSV text (md2csv.py:131-158 layout)."""
    return _relations_csv(edges, _prop_keys(edges.get("props_json", pd.Series(dtype=object))))


def _relations_csv(edges: pd.DataFrame, prop_keys: list[str]) -> str:
    """Relations CSV text of ``edges`` with one ``<key>:LABEL`` column per
    entry of ``prop_keys`` (the header), in that order."""
    fieldnames = [":START_ID", ":END_ID", ":TYPE", "_o_source_", "_o_target_"] + [
        f"{k}:LABEL" for k in prop_keys
    ]
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fieldnames)
    w.writeheader()
    for _, r in edges.iterrows():
        row = {
            ":START_ID": r["subj"],
            ":END_ID": r["obj"],
            ":TYPE": r.get("pred", "RELATED"),
            "_o_source_": r.get("subj_name", ""),
            "_o_target_": r.get("obj_name", ""),
        }
        for k, v in (json.loads(r["props_json"]) if r.get("props_json") else {}).items():
            row[f"{k}:LABEL"] = v
        w.writerow(row)
    return buf.getvalue()
