"""Oracle gate: every build's outputs against the single-process oracle.

``expected_tables`` runs ``oracle.oracle_run`` once over the pages table and
derives what a build must write:

  text             parsed/          extracted text, byte-identical per url
  nodes            nodes/           keep-first by ``seq`` per node id
  edges            edges/           dangling endpoints dropped, then
                                    dedup-count per (subj, pred, obj)
  canonical        canonical/       keep-first surface per blocking key
  edges_canonical  edges_canonical/ triples linked to canonical ids, then
                                    dedup-count
  mentions         mentions/        gazetteer spans per paragraph

``check`` compares a build's output directory with them and returns the
problems found (empty when the build is correct).
"""

from __future__ import annotations

import os
import shutil

import pandas as pd
import pyarrow.parquet as pq

from knowledgegraph__bh_ray.functions.hashing import md5_id
from knowledgegraph__bh_ray.oracle import oracle_run
from knowledgegraph__bh_ray.stages.linkage import normalize_surface

from manifest import ManifestError, read_records

EDGE_COLS = ["subj", "pred", "obj", "weight", "url", "seq", "subj_name", "obj_name", "props_json"]
TABLE_COLS = {
    "text": ["url", "text_out"],
    "nodes": ["id", "name", "type", "parent", "props_json", "url", "seq"],
    "edges": EDGE_COLS,
    "canonical": ["norm_key", "canon_name", "canon_id"],
    "edges_canonical": EDGE_COLS,
    "mentions": ["url", "para_idx", "entity", "start", "end"],
}
OUT_DIRS = {"text": "parsed"}  # every other table is written under its own name


def _dedup_count(triples: pd.DataFrame) -> pd.DataFrame:
    """Per (subj, pred, obj): occurrence count and the min-``seq`` row."""
    keys = ["subj", "pred", "obj"]
    first = triples.sort_values("seq", kind="mergesort").drop_duplicates(keys, keep="first")
    weight = triples.groupby(keys).size().rename("weight").reset_index()
    return first.merge(weight, on=keys)[EDGE_COLS]


def expected_tables(pages) -> dict[str, pd.DataFrame]:
    gold = oracle_run(pages)
    raw_nodes = gold["nodes_raw"].to_pandas()
    triples = gold["triples_raw"].to_pandas()

    nodes = raw_nodes.sort_values("seq", kind="mergesort").drop_duplicates("id", keep="first")
    ids = set(raw_nodes["id"])
    edges = _dedup_count(triples[triples["subj"].isin(ids) & triples["obj"].isin(ids)])

    canon = nodes.assign(norm_key=[normalize_surface(n) for n in nodes["name"]])
    canon = canon.sort_values("seq", kind="mergesort").drop_duplicates("norm_key", keep="first")
    canon = pd.DataFrame({
        "norm_key": canon["norm_key"],
        "canon_name": canon["name"],
        "canon_id": [md5_id(n) for n in canon["name"]],
    })
    id_of = dict(zip(canon["norm_key"], canon["canon_id"]))
    name_of = dict(zip(canon["norm_key"], canon["canon_name"]))
    sk = triples["subj_name"].map(normalize_surface)
    ok = triples["obj_name"].map(normalize_surface)
    linked = triples.assign(
        subj=sk.map(id_of), obj=ok.map(id_of), subj_name=sk.map(name_of), obj_name=ok.map(name_of)
    )
    linked = linked[linked["subj"].notna() & linked["obj"].notna()]

    return {
        "text": gold["extracted"].to_pandas(),
        "nodes": nodes,
        "edges": edges,
        "canonical": canon,
        "edges_canonical": _dedup_count(linked),
        "mentions": gold["mentions"].to_pandas(),
    }


def load_expected(pages, cache_dir: str) -> dict[str, pd.DataFrame]:
    """``expected_tables`` cached per input hash (``cache_dir`` names it)."""
    if not os.path.exists(os.path.join(cache_dir, "DONE")):
        tmp = cache_dir + f".tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        for name, df in expected_tables(pages).items():
            df[TABLE_COLS[name]].reset_index(drop=True).to_parquet(os.path.join(tmp, f"{name}.parquet"))
        open(os.path.join(tmp, "DONE"), "w").close()
        shutil.rmtree(cache_dir, ignore_errors=True)
        os.rename(tmp, cache_dir)
    return {name: pd.read_parquet(os.path.join(cache_dir, f"{name}.parquet")) for name in TABLE_COLS}


def _canon(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    df = df[cols].astype(str)
    return df.sort_values(cols, kind="mergesort").reset_index(drop=True)


def check(out_dir: str, expected: dict[str, pd.DataFrame]) -> list[str]:
    problems = []
    for name, cols in TABLE_COLS.items():
        path = os.path.join(out_dir, OUT_DIRS.get(name, name))
        if not os.path.isdir(path):
            problems.append(f"{name}: no output at {path}")
            continue
        got = pq.read_table(path).to_pandas()
        missing = [c for c in cols if c not in got.columns]
        if missing:
            problems.append(f"{name}: output lacks columns {missing}")
            continue
        a, b = _canon(got, cols), _canon(expected[name], cols)
        if len(a) != len(b):
            problems.append(f"{name}: {len(a)} rows, oracle has {len(b)}")
        elif not a.equals(b):
            bad = int((a != b).any(axis=1).sum())
            problems.append(f"{name}: {bad} of {len(a)} rows differ from the oracle")
    return problems


def self_check(out_dir: str, expected: dict[str, pd.DataFrame], scratch: str) -> list[str]:
    """Prove the checks can fail: the gate must reject a copy of a correct
    build with one ``edges`` row removed, and the manifest reader must
    reject a record that lacks ``rows``."""
    failures = []
    cut = os.path.join(scratch, "cut")
    shutil.rmtree(cut, ignore_errors=True)
    shutil.copytree(out_dir, cut)
    for root, _, files in sorted(os.walk(os.path.join(cut, "edges"))):
        part = next((os.path.join(root, f) for f in sorted(files) if f.endswith(".parquet")
                     and pq.ParquetFile(os.path.join(root, f)).metadata.num_rows), None)
        if part:
            table = pq.read_table(part, partitioning=None)
            pq.write_table(table.slice(1), part)
            break
    if not any(p.startswith("edges:") for p in check(cut, expected)):
        failures.append("gate accepted an edges table one row short")
    shutil.rmtree(cut)

    bad = os.path.join(scratch, "bad_manifest")
    os.makedirs(bad, exist_ok=True)
    with open(os.path.join(bad, "manifest.jsonl"), "w", encoding="utf-8") as f:
        f.write('{"unit": "nodes", "n_rows": 7, "wall_sec": 0.5}\n')
    try:
        read_records(bad)
        failures.append("manifest reader accepted a record without 'rows'")
    except ManifestError:
        pass
    shutil.rmtree(bad)
    return failures
