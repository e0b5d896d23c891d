import numpy as np
import pyarrow.parquet as pq
import ray.data as rd

from knowledgegraph__bh_ray.stages import simsearch

SF = "/root/testdata/sf0.001"
# 3 query ids, then 12: more queries than the 4 partitions of the top-k
# merge, so partitions rank several queries at once
QUERY_IDS = ((0, 1, 2), tuple(range(0, 60, 5)))


def _brute_truth(emb, queries, k=10, allowed=None):
    """numpy top-k per query (sim descending, id ascending); ``allowed``
    (qid → row mask) restricts a query to its ANN candidate rows."""
    M = np.vstack(emb["embedding"].values).astype(np.float64)
    M = M / np.linalg.norm(M, axis=1, keepdims=True)
    ids = emb["vec_id"].values
    out = {}
    for qid, q in queries.items():
        qn = q / np.linalg.norm(q)
        sims = M @ qn
        order = np.lexsort((ids, -sims))
        if allowed is not None:
            order = order[allowed[qid][order]]
        out[qid] = [int(ids[i]) for i in order[:k]]
    return out


def _queries(emb, ids=(0, 1, 2)):
    return {
        int(r["vec_id"]): np.array(r["embedding"], dtype=np.float64)
        for _, r in emb.iterrows()
        if r["vec_id"] in ids
    }


def _ranked(got, qid):
    g = got[got["query_id"] == qid].sort_values("rank")
    assert list(g["rank"]) == list(range(1, len(g) + 1))
    return g["vec_id"].tolist()


def test_brute_topk_matches_numpy(ray_session):
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    for ids in QUERY_IDS:
        queries = _queries(emb, ids)
        ds = rd.from_pandas(emb[["vec_id", "embedding"]]).repartition(5)
        got = simsearch.brute_topk_ds(ds, queries, "vec_id", "embedding", k=10).to_pandas()
        truth = _brute_truth(emb, queries)
        assert set(got["query_id"]) == set(queries)
        for qid in queries:
            assert _ranked(got, qid) == truth[qid]


def test_lsh_topk_recall(ray_session):
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    buckets = simsearch.lsh_buckets_batch(emb, "embedding")["bucket"].to_numpy()
    for ids in QUERY_IDS:
        queries = _queries(emb, ids)
        ds = rd.from_pandas(emb[["vec_id", "embedding"]]).repartition(5)
        got = simsearch.lsh_topk_ds(ds, queries, "vec_id", "embedding", k=10).to_pandas()
        truth = _brute_truth(emb, queries)
        # exact against numpy over the LSH candidates: rows within
        # Hamming distance 2 of the query's bucket
        qb = dict(zip(emb["vec_id"], buckets))
        near = {q: np.array([bin(int(b) ^ int(qb[q])).count("1") <= 2 for b in buckets])
                for q in queries}
        assert set(got["query_id"]) == set(queries)
        want = _brute_truth(emb, queries, allowed=near)
        recalls = []
        for qid in queries:
            g = _ranked(got, qid)
            assert g == want[qid]
            # the query vector itself lives in its own bucket → always recalled
            assert qid in g
            recalls.append(len(set(g) & set(truth[qid])) / 10)
        # approximate path: bounded quality, not exact — per query for the
        # first three ids, on average over the twelve (one recalls 2 of 10)
        floor = min(recalls) if len(ids) == 3 else sum(recalls) / len(recalls)
        assert floor >= 0.3, recalls


def test_ivf_recall_floor(ray_session):
    """IVF path: deterministic centroids; top-k equals numpy over the
    probed centroid lists, recall vs brute force is above a floor, and
    results are a pure function of the data (two runs equal)."""
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()[["vec_id", "embedding"]]
    C = simsearch.train_centroids(rd.from_pandas(emb), "vec_id", "embedding")
    M = simsearch._normalize(np.vstack(emb["embedding"].values).astype(np.float64))
    assign = (M @ C.T).argmax(axis=1)
    for ids in QUERY_IDS:
        qv = _queries(emb, ids)
        ds = rd.from_pandas(emb)
        brute = simsearch.brute_topk_ds(rd.from_pandas(emb), qv, "vec_id", "embedding",
                                        k=10).to_pandas()
        ivf = simsearch.ivf_topk_ds(ds, qv, "vec_id", "embedding", k=10).to_pandas()
        ivf2 = simsearch.ivf_topk_ds(rd.from_pandas(emb), qv, "vec_id", "embedding",
                                     k=10).to_pandas()
        key = ["query_id", "rank"]
        assert ivf.sort_values(key).reset_index(drop=True).equals(
            ivf2.sort_values(key).reset_index(drop=True)
        )
        qids = sorted(qv)
        Qn = simsearch._normalize(np.vstack([qv[q] for q in qids]))
        lists = np.argsort(-(Qn @ C.T), axis=1)[:, : simsearch.IVF_PROBE]
        probed = {q: np.isin(assign, lists[i]) for i, q in enumerate(qids)}
        want = _brute_truth(emb, qv, allowed=probed)
        assert set(ivf["query_id"]) == set(qv)
        recalls = []
        for q in qv:
            assert _ranked(ivf, q) == want[q]
            b = set(brute.loc[brute["query_id"] == q, "vec_id"])
            a = set(ivf.loc[ivf["query_id"] == q, "vec_id"])
            recalls.append(len(a & b) / len(b))
        assert sum(recalls) / len(recalls) >= 0.3, recalls


def test_embedding_clusters_consistent_with_semdedup(ray_session):
    """The standalone cluster-assignment op must reproduce EXACTLY the
    cluster ids semantic_dedup assigns for the same corpus and centroid
    count (both build on train_centroids + the same matmul assignment),
    and similarities must be valid cosines."""
    import pandas as pd

    from knowledgegraph__bh_ray.sources import read_table
    from knowledgegraph__bh_ray.stages.dedup import semantic_dedup_ds
    from knowledgegraph__bh_ray.stages.simsearch import embedding_clusters_ds

    sf = "/root/testdata/sf0.001"
    emb = read_table(sf, "embeddings", columns=["vec_id", "embedding"])
    got = (embedding_clusters_ds(emb, "vec_id", "embedding", n_centroids=8)
           .to_pandas().sort_values("vec_id").reset_index(drop=True))
    emb2 = read_table(sf, "embeddings", columns=["vec_id", "embedding"])
    sem = (semantic_dedup_ds(emb2, "vec_id", "embedding", n_centroids=8)
           .to_pandas().sort_values("vec_id").reset_index(drop=True))
    assert len(got) == len(sem) > 0
    assert list(got["cluster_id"]) == list(sem["cluster_id"])
    assert got["sim_micros"].between(-1_000_000, 1_000_000).all()
    # determinism
    emb3 = read_table(sf, "embeddings", columns=["vec_id", "embedding"])
    again = (embedding_clusters_ds(emb3, "vec_id", "embedding", n_centroids=8)
             .to_pandas().sort_values("vec_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, again)
