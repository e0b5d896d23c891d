"""Entity linking + canonicalization (SURVEY.md §7.1 linking phase, J4/G4/G5).

The reference has no real linker — its canonical id is self-computable
(``md5(name)[:8]``, md2csv.py:20-22), so two surface forms of the same entity
(``实体5`` vs ``《实体5》`` vs ``ENTITY0``/``entity0``) become distinct nodes.
This engine adds the linking layer the north rule asks for:

  * **blocking key** = normalized surface form: strip CJK title brackets
    ``《》``, collapse whitespace, trim, ASCII-lowercase.  SQL-mirrorable:
    ``lower(trim(regexp_replace(regexp_replace(name,'[《》]','','g'),
    '\\s+',' ','g')))``.
  * **canonical pick** = min-``seq`` surface form per blocking key (global
    keep-first), canonical id = ``md5(canonical_name)[:8]``.

The pick runs in one place: ``canonical_map_pdf``, one pandas pass over
the vocabulary-sized deduped nodes table (the resume pipeline's canonical
unit, pipelines/run.py).  Each id's keep-first row already carries its
min-``seq`` surface form, so the pick over the deduped nodes equals the
pick over every raw occurrence.

The canonical map (blocking key → canonical id/name) is entity *vocabulary*,
orders of magnitude smaller than the corpus, so edge canonicalization uses a
broadcast lookup (``canon_lookup`` → ``ray.put`` once; each worker process
builds the lookup dicts on its first batch and caches them by ref —
state/broadcast.py, SURVEY.md §2.5 J1) in plain map tasks, instead of a
second shuffle or an actor pool.
"""

from __future__ import annotations

import re

import pandas as pd
import pyarrow as pa

from ..functions.hashing import md5_id
from .grouped import keep_first_block

_RE_BRACKETS = re.compile(r"[《》]")
_RE_WS = re.compile(r"\s+")

CANON_SCHEMA = pa.schema([(c, pa.string()) for c in ("norm_key", "canon_name", "canon_id")])


def normalize_surface(name: str) -> str:
    """Blocking key of a surface form.  Keep in sync with the SQL mirror in
    __ray_entry__.oracle_sql (kg_entity_link)."""
    return _RE_WS.sub(" ", _RE_BRACKETS.sub("", name)).strip().lower()


def normalize_surface_series(s: pd.Series) -> pd.Series:
    """Vectorized pandas mirror of :func:`normalize_surface`."""
    return (
        s.str.replace(_RE_BRACKETS, "", regex=True)
        .str.replace(_RE_WS, " ", regex=True)
        .str.strip()
        .str.lower()
    )


def canonical_map_pdf(nodes: pd.DataFrame) -> pd.DataFrame:
    """nodes(url, seq, name, …) → canonical table (norm_key, canon_name,
    canon_id), in one pandas pass; rows in ``seq`` order."""
    b = nodes[["url", "seq", "name"]].copy()
    b["norm_key"] = normalize_surface_series(b["name"])
    picked = keep_first_block(["norm_key"], "seq")(b)
    out = picked.rename(columns={"name": "canon_name"})[["norm_key", "canon_name"]].copy()
    out["canon_id"] = [md5_id(n) for n in out["canon_name"]]
    return out


def canon_lookup(canon: pd.DataFrame) -> dict:
    """Canonical table → the broadcast map {norm_key: (canon_id,
    canon_name)} that ``CanonicalizeTriples`` reads."""
    return dict(zip(canon["norm_key"], zip(canon["canon_id"], canon["canon_name"])))


class CanonicalizeTriples:
    """Batch callable: rewrite triple endpoints to canonical ids via the
    broadcast canonical map; endpoints whose blocking key is unknown are
    dropped (the reference's dangling-edge policy, csv2rdf-jsonld.py:94-99).

    ``__init__`` fetches the map and splits it into lookup dicts.
    ``edges_canonical_ds`` builds one instance per worker process and
    broadcast ref (state/broadcast.py), so that runs once per worker, not
    per batch.
    """

    def __init__(self, canon_map_ref):
        import ray

        canon = ray.get(canon_map_ref)  # dict: norm_key -> (canon_id, canon_name)
        # split into two plain dicts: Series.map(dict) runs on the C path
        self.id_map = {k: v[0] for k, v in canon.items()}
        self.name_map = {k: v[1] for k, v in canon.items()}

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return batch
        sk = normalize_surface_series(batch["subj_name"])
        ok = normalize_surface_series(batch["obj_name"])
        out = batch.copy()
        out["subj"] = sk.map(self.id_map)
        out["obj"] = ok.map(self.id_map)
        out["subj_name"] = sk.map(self.name_map)
        out["obj_name"] = ok.map(self.name_map)
        return out[out["subj"].notna() & out["obj"].notna()].reset_index(drop=True)
