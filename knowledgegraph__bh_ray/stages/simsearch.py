"""Similarity search over an embedding column (task brief, first-class op).

  * brute-force top-k — numpy matmul per batch against a broadcast query
    matrix, per-batch partial top-k, tiny final merge (the exact baseline);
  * LSH-bucketed ANN  — random-hyperplane sign buckets (seeded, deterministic)
    as the scale path: candidate set = query's bucket ∪ Hamming-1 probes,
    so the per-query work is |bucket| · dim instead of |corpus| · dim.

The query matrix is ``ray.put`` once and fetched in each task — never
re-shipped per batch.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

N_PLANES = 6  # 2^6 = 64 LSH buckets


def _planes(dim: int) -> np.ndarray:
    return np.random.default_rng(7).standard_normal((N_PLANES, dim))


def _normalize(M: np.ndarray) -> np.ndarray:
    return M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)


def sign_buckets(M: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Random-hyperplane sign bucket of each row of ``M``: bit i is set
    when the row lies on the positive side of hyperplane ``P[i]``."""
    bits = (M @ P.T) > 0
    return (bits * (1 << np.arange(P.shape[0]))).sum(axis=1).astype("int64")


def _topk_rows(qids, scored, id_col: str, k: int) -> pd.DataFrame:
    """Per-batch partial top-k: ``scored`` yields each query's (candidate
    ids, cosine sims); keep the k most similar of each query's candidates
    as (query_id, id, sim) rows — all of them when there are at most k."""
    out = {"query_id": [], id_col: [], "sim": []}
    for qid, (ids, sims) in zip(qids, scored):
        top = np.argpartition(-sims, k - 1)[:k] if len(sims) > k else np.arange(len(sims))
        out["query_id"].extend([qid] * len(top))
        out[id_col].extend(ids[top])
        out["sim"].extend(sims[top])
    return pd.DataFrame(
        {
            "query_id": pd.Series(out["query_id"], dtype="int64"),
            id_col: pd.Series(out[id_col], dtype="int64"),
            "sim": pd.Series(out["sim"], dtype="float64"),
        }
    )


def brute_topk_ds(ds, queries: dict[int, np.ndarray], id_col: str, vec_col: str, k: int = 10):
    """Dataset(id, vec) × query dict → (query_id, id, rank) exact top-k.

    Per-batch partial top-k (k rows per query per batch) → global merge in
    one exchange over ≤ k·n_batches·n_queries rows (``_merge_topk``)."""
    import ray

    qids = sorted(queries.keys())
    Q = _normalize(np.vstack([queries[q] for q in qids]).astype(np.float64))
    q_ref = ray.put((qids, Q))

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        qids, Q = ray.get(q_ref)
        M = _normalize(np.vstack(batch[vec_col].to_numpy()).astype(np.float64))
        ids = batch[id_col].to_numpy()
        return _topk_rows(qids, ((ids, s) for s in Q @ M.T), id_col, k)

    partials = ds.map_batches(_partial, batch_format="pandas")
    return _merge_topk(partials, id_col, k)


def _merge_topk(partials, id_col: str, k: int):
    """Per-batch partial top-k rows (query_id, id, sim) → (query_id, id,
    rank): one ``exchange`` by query id; each partition ranks every query
    routed to it in one sort (sim descending, id ascending) and keeps each
    query's first k rows.  Partitions that get no query come out as empty
    blocks with the real schema, which keeps consumers typed."""
    from .grouped import exchange

    def _rank(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(["query_id", "sim", id_col], ascending=[True, False, True],
                           kind="mergesort")
        rank = g.groupby("query_id", sort=False).cumcount().to_numpy(dtype="int64") + 1
        g = g[rank <= k]
        return pd.DataFrame(
            {
                "query_id": g["query_id"].to_numpy(dtype="int64"),
                id_col: g[id_col].to_numpy(dtype="int64"),
                "rank": rank[rank <= k],
            }
        )

    def _pin_schema(d: pd.DataFrame) -> pd.DataFrame:
        if len(d.columns) == 0:
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64") for c in ("query_id", id_col, "rank")}
            )
        return d

    ranked = exchange(partials, ["query_id"], _rank, 4)
    return ranked.map_batches(_pin_schema, batch_format="pandas")


def lsh_buckets_batch(batch: pd.DataFrame, vec_col: str) -> pd.DataFrame:
    """Append the random-hyperplane sign bucket of each vector."""
    M = np.vstack(batch[vec_col].to_numpy()).astype(np.float64)
    out = batch.copy()
    out["bucket"] = sign_buckets(M, _planes(M.shape[1]))
    return out


def lsh_topk_ds(ds, queries: dict[int, np.ndarray], id_col: str, vec_col: str, k: int = 10):
    """Approximate top-k: only vectors in the query's LSH bucket or a
    Hamming-1 neighbor bucket are scored.  Recall vs brute force is
    property-tested (tests/test_simsearch.py)."""
    import ray

    qids = sorted(queries.keys())
    Q = np.vstack([queries[q] for q in qids]).astype(np.float64)
    probe_sets = []
    for b in sign_buckets(Q, _planes(Q.shape[1])):
        # multi-probe: the query's bucket plus all Hamming-1 and Hamming-2
        # neighbors — recall/cost knob (1 + P + P(P-1)/2 buckets of 2^P)
        probes = {int(b)} | {int(b) ^ (1 << i) for i in range(N_PLANES)}
        probes |= {
            int(b) ^ (1 << i) ^ (1 << j)
            for i in range(N_PLANES)
            for j in range(i + 1, N_PLANES)
        }
        probe_sets.append(probes)
    Qn = _normalize(Q)
    q_ref = ray.put((qids, Qn, probe_sets))

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        qids, Qn, probe_sets = ray.get(q_ref)
        M = _normalize(np.vstack(batch[vec_col].to_numpy()).astype(np.float64))
        ids = batch[id_col].to_numpy()
        masks = [np.isin(batch["bucket"].to_numpy(), list(p)) for p in probe_sets]
        return _topk_rows(qids, ((ids[m], q @ M[m].T) for q, m in zip(Qn, masks)),
                          id_col, k)

    bucketed = ds.map_batches(lambda b: lsh_buckets_batch(b, vec_col), batch_format="pandas")
    partials = bucketed.map_batches(_partial, batch_format="pandas")
    return _merge_topk(partials, id_col, k)


# ---------------------------------------------------------------------------
# IVF (inverted-file) ANN — the coarse-quantizer scale path
# ---------------------------------------------------------------------------

IVF_CENTROIDS = 16
IVF_PROBE = 4
_KMEANS_ITERS = 5


def _hash_ranked_sample(ds, id_col: str, vec_col: str, m: int):
    """Deterministic corpus sample: the m rows with the smallest
    md5(id) — per-batch partial top-m (associative), tiny driver merge."""
    import hashlib

    def _top(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[[id_col, vec_col]].copy()
        b["_h"] = [hashlib.md5(str(i).encode()).hexdigest() for i in b[id_col]]
        return b.sort_values("_h", kind="mergesort").head(m)

    pdf = ds.map_batches(_top, batch_format="pandas").to_pandas()
    return pdf.sort_values("_h", kind="mergesort").head(m).reset_index(drop=True)


def train_centroids(ds, id_col: str, vec_col: str, n_centroids: int = IVF_CENTROIDS):
    """Spherical k-means on a deterministic hash-ranked sample (driver-side
    — the sample is n_centroids·8 rows, vocabulary-scale).  Seeded init =
    the first n_centroids sample vectors; empty clusters keep their
    previous centroid, so the result is a pure function of the data."""
    sample = _hash_ranked_sample(ds, id_col, vec_col, n_centroids * 8)
    M = _normalize(np.vstack(sample[vec_col].to_numpy()).astype(np.float64))
    C = M[: min(n_centroids, len(M))].copy()
    for _ in range(_KMEANS_ITERS):
        assign = (M @ C.T).argmax(axis=1)
        for c in range(len(C)):
            members = M[assign == c]
            if len(members):
                C[c] = members.mean(axis=0)
        C = _normalize(C)
    return C


def ivf_topk_ds(ds, queries: dict[int, np.ndarray], id_col: str, vec_col: str,
                k: int = 10, n_centroids: int = IVF_CENTROIDS, n_probe: int = IVF_PROBE):
    """IVF ANN top-k: vectors are assigned to their nearest centroid (one
    broadcast matmul per batch); each query scores only the rows of its
    ``n_probe`` nearest centroid lists, so per-query work is
    |probed lists|·dim instead of |corpus|·dim.  Recall vs brute force is
    property-tested (tests/test_simsearch.py)."""
    import ray

    C = train_centroids(ds, id_col, vec_col, n_centroids)
    qids = sorted(queries.keys())
    Qn = _normalize(np.vstack([queries[q] for q in qids]).astype(np.float64))
    probe_lists = np.argsort(-(Qn @ C.T), axis=1)[:, :n_probe]  # (n_q, n_probe)
    ref = ray.put((qids, Qn, C, probe_lists))

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        qids, Qn, C, probe_lists = ray.get(ref)
        M = _normalize(np.vstack(batch[vec_col].to_numpy()).astype(np.float64))
        ids = batch[id_col].to_numpy()
        assign = (M @ C.T).argmax(axis=1)
        masks = [np.isin(assign, p) for p in probe_lists]
        return _topk_rows(qids, ((ids[m], q @ M[m].T) for q, m in zip(Qn, masks)),
                          id_col, k)

    partials = ds.map_batches(_partial, batch_format="pandas")
    return _merge_topk(partials, id_col, k)


def embedding_clusters_ds(ds, id_col: str, vec_col: str,
                          n_centroids: int = IVF_CENTROIDS):
    """First-class k-means cluster assignment over an embedding corpus —
    the coarse-quantizer step the IVF index and SemDeDup both build on,
    exposed as its own operator: spherical k-means centroids from the
    deterministic hash-ranked sample (driver-trained, vocabulary-scale,
    broadcast ONCE via ray.put), then one shuffle-free matmul assignment
    pass.  Output per vector: (id, cluster_id, sim_micros — cosine to the
    assigned centroid in exact integer micros via floor division)."""
    import ray

    C = train_centroids(ds, id_col, vec_col, n_centroids)
    cref = ray.put(C)

    def _assign(batch: pd.DataFrame) -> pd.DataFrame:
        if id_col not in batch.columns or not len(batch):
            return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                                 "cluster_id": pd.Series([], dtype="int64"),
                                 "sim_micros": pd.Series([], dtype="int64")})
        Cm = ray.get(cref)
        M = _normalize(np.vstack(batch[vec_col].to_numpy()).astype(np.float64))
        S = M @ Cm.T
        cid = S.argmax(axis=1)
        sim = S[np.arange(len(M)), cid]
        return pd.DataFrame({
            id_col: batch[id_col].astype("int64").to_numpy(),
            "cluster_id": cid.astype("int64"),
            "sim_micros": np.floor(sim * 1_000_000).astype("int64"),
        })

    return ds.map_batches(_assign, batch_format="pandas")
