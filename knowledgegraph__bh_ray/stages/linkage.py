"""Entity linking + canonicalization (SURVEY.md §7.1 linking phase, J4/G4/G5).

The reference has no real linker — its canonical id is self-computable
(``md5(name)[:8]``, md2csv.py:20-22), so two surface forms of the same entity
(``实体5`` vs ``《实体5》`` vs ``ENTITY0``/``entity0``) become distinct nodes.
This engine adds the linking layer the north rule asks for:

  * **blocking key** = normalized surface form: strip CJK title brackets
    ``《》``, collapse whitespace, trim, ASCII-lowercase.  SQL-mirrorable:
    ``lower(trim(regexp_replace(regexp_replace(name,'[《》]','','g'),
    '\\s+',' ','g')))``.
  * **phase 1**: per-batch partial + salted groupby over the blocking key
    (head-entity skew → see stages/grouped.py);
  * **phase 2**: per-block canonical pick = min-``seq`` surface form
    (global keep-first), canonical id = ``md5(canonical_name)[:8]``.

The canonical map (blocking key → canonical id/name) is entity *vocabulary*,
orders of magnitude smaller than the corpus, so edge canonicalization uses a
broadcast lookup (``ray.put`` once; each worker process builds the lookup
dicts on its first batch and caches them by ref — state/broadcast.py,
SURVEY.md §2.5 J1) in plain map tasks, instead of a second shuffle or an
actor pool.  Scale fallback for a vocabulary that outgrows worker memory:
``edges_canonical_ds(join_mode="bucketed")``, a reduce-side join on the
blocking key.
"""

from __future__ import annotations

import re

import pandas as pd

from ..functions.hashing import md5_id

_RE_BRACKETS = re.compile(r"[《》]")
_RE_WS = re.compile(r"\s+")


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


def canonical_map_ds(nodes_raw, salt_buckets: int = 16):
    """nodes_raw(url, seq, name, …) → canonical map Dataset
    (norm_key, canon_name, canon_id) via two-phase salted groupby."""
    from .grouped import keep_first_block, salted_grouped_agg

    def _add_norm(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[["url", "seq", "name"]].copy()
        b["norm_key"] = normalize_surface_series(b["name"])
        return b

    agg = salted_grouped_agg(
        nodes_raw.map_batches(_add_norm, batch_format="pandas"),
        keys=["norm_key"],
        block_agg=keep_first_block(["norm_key"], "seq"),
        salt_from="url",
        salt_buckets=salt_buckets,
    )

    def _finish(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.rename(columns={"name": "canon_name"})[["norm_key", "canon_name"]].copy()
        out["canon_id"] = [md5_id(n) for n in out["canon_name"]]
        return out

    return agg.map_batches(_finish, batch_format="pandas")


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
