"""Near-duplicate detection suite (training-data ops, task brief).

  * MinHash + LSH   — shingle → minhash signature → banded LSH exchange →
                      candidate pairs → signature-estimated Jaccard verify
  * SimHash         — 64-bit token-feature simhash, banded candidate
                      generation, Hamming-distance verify
  * n-gram Jaccard  — exact word-set Jaccard pairs within a blocking group
  * embedding cosine— exact pairwise cosine within a blocking group

All candidate generation is shuffle-based (``exchange`` on band/bucket keys —
never an all-pairs scan across blocks); exact variants restrict the
quadratic work to within explicitly-blocked groups and exist to oracle-check
the approximate paths.  Signatures are computed per batch with numpy; the
hash family is seeded (seed=42) and deterministic across processes.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

RE_WS = re.compile(r"\s+")

_MERSENNE = (1 << 61) - 1
N_PERM = 32
N_BANDS = 8
ROWS_PER_BAND = N_PERM // N_BANDS

_rng = np.random.default_rng(42)
_A = _rng.integers(1, _MERSENNE, size=N_PERM, dtype=np.int64).astype(np.uint64)
_B = _rng.integers(0, _MERSENNE, size=N_PERM, dtype=np.int64).astype(np.uint64)


_SHINGLE_BASE = np.uint64(1099511628211)


def _hash_tokens(texts) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize EVERY doc in the batch, hash all tokens in ONE
    ``pd.util.hash_array`` call (C siphash, fixed key → deterministic
    across processes).  Returns (token_hashes concatenated in doc order,
    per-doc token counts)."""
    tok_lists = [
        RE_WS.split(t.strip()) if isinstance(t, str) and t.strip() else [] for t in texts
    ]
    lens = np.array([len(t) for t in tok_lists], dtype=np.int64)
    flat = [tok for toks in tok_lists for tok in toks]
    if not flat:
        return np.zeros(0, dtype=np.uint64), lens
    return pd.util.hash_array(np.array(flat, dtype=object)).astype(np.uint64), lens


def minhash_signatures_batch(texts, n: int = 3) -> np.ndarray:
    """(n_docs, N_PERM) uint64 minhash signatures of word-3-gram shingles —
    ONE vectorized pass across the whole batch: tokens hashed together,
    rolling n-gram polynomial over the concatenated token array (windows
    crossing doc boundaries masked out), permutations applied to all
    shingles at once, per-doc mins via ``np.minimum.reduceat`` over the
    doc-contiguous window segments.  No per-document Python loop."""
    n_docs = len(texts)
    sigs = np.zeros((n_docs, N_PERM), dtype=np.uint64)
    H, lens = _hash_tokens(texts)
    T = len(H)
    if T == 0:
        return sigs
    offsets = np.concatenate([[0], np.cumsum(lens)])
    tok_doc = np.repeat(np.arange(n_docs), lens)

    shingles = np.zeros(0, dtype=np.uint64)
    win_doc = np.zeros(0, dtype=np.int64)
    if T >= n:
        m = T - n + 1
        acc = np.zeros(m, dtype=np.uint64)
        for j in range(n):
            acc = acc * _SHINGLE_BASE + H[j : j + m]
        # a window is valid iff its first and last token are in the same doc
        valid = tok_doc[:m] == tok_doc[n - 1 :]
        shingles = acc[valid] % _MERSENNE
        win_doc = tok_doc[:m][valid]

    if len(shingles):
        # h_i(x) = (a_i * x + b_i) mod p over (perm, shingle) at once
        vals = (_A[:, None] * shingles[None, :] + _B[:, None]) % _MERSENNE
        docs_with, starts = np.unique(win_doc, return_index=True)  # doc-contiguous
        sigs[docs_with] = np.minimum.reduceat(vals, starts, axis=1).T

    # docs with 0 < n_tokens < n: one polynomial shingle over all tokens
    for d in np.flatnonzero((lens > 0) & (lens < n)):
        acc = np.uint64(0)
        for h in H[offsets[d] : offsets[d + 1]]:
            acc = acc * _SHINGLE_BASE + h
        sigs[d] = (_A * (acc % _MERSENNE) + _B) % _MERSENNE
    return sigs


def band_hashes(sigs: np.ndarray) -> np.ndarray:
    """(n_docs, N_PERM) signatures → (n_docs, N_BANDS) uint64 band hashes
    (polynomial combine of the band's rows, vectorized across docs)."""
    r = sigs.reshape(len(sigs), N_BANDS, ROWS_PER_BAND)
    bh = np.zeros((len(sigs), N_BANDS), dtype=np.uint64)
    for j in range(ROWS_PER_BAND):
        bh = bh * _SHINGLE_BASE + r[:, :, j]
    return bh


def minhash_bands_batch(batch: pd.DataFrame, id_col: str, text_col: str) -> pd.DataFrame:
    """doc → N_BANDS rows (band_id, band_hash, id, sig): LSH banding.
    Signatures ride along as fixed-width uint64 vectors (Arrow tensor
    column), not strings; band explosion is np.repeat/tile, not a loop."""
    sigs = minhash_signatures_batch(list(batch[text_col]))
    bh = band_hashes(sigs)
    n_docs = len(batch)
    idx = np.repeat(np.arange(n_docs), N_BANDS)
    return pd.DataFrame(
        {
            "band_id": np.tile(np.arange(N_BANDS, dtype=np.int64), n_docs),
            "band_hash": bh.ravel(),
            id_col: batch[id_col].to_numpy()[idx],
            "sig": list(sigs[idx]),
        }
    )


def _intra_bucket_pairs(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All within-bucket (i<j) row-index pairs for buckets laid out
    contiguously (bucket b = rows starts[b]..starts[b]+counts[b]) —
    vectorized by DISTINCT bucket size: one ``triu_indices`` per size class
    broadcast over every bucket of that size, never a per-bucket loop."""
    I_parts: list[np.ndarray] = []
    J_parts: list[np.ndarray] = []
    for k in np.unique(counts):
        if k < 2:
            continue
        s = starts[counts == k]
        iu, ju = np.triu_indices(int(k), 1)
        I_parts.append((s[:, None] + iu[None, :]).ravel())
        J_parts.append((s[:, None] + ju[None, :]).ravel())
    if not I_parts:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    return np.concatenate(I_parts), np.concatenate(J_parts)


def _bucket_layout(g: pd.DataFrame, bucket_cols: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(starts, counts) of the contiguous bucket runs in a frame already
    sorted by ``bucket_cols`` — change-detection, no groupby."""
    n = len(g)
    new_run = np.zeros(n, dtype=bool)
    new_run[0] = True
    for c in bucket_cols:
        v = g[c].to_numpy()
        new_run[1:] |= v[1:] != v[:-1]
    starts = np.flatnonzero(new_run)
    counts = np.diff(np.concatenate([starts, [n]]))
    return starts, counts


def minhash_pairs_ds(ds, id_col: str, text_col: str, threshold: float = 0.8):
    """Dataset(id, text) → near-dup pairs (id_a, id_b, est_jaccard), distinct.

    band explode (map_batches) → hash-partition on (band_id, band_hash) →
    per-partition: drop singleton buckets *vectorized* (the overwhelming
    majority), pairwise-verify only real collision buckets → distinct pairs.
    """
    from .grouped import distinct_block, exchange, hash_partitioned_agg

    def _verify_part(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(subset=["band_id", "band_hash", id_col])
        # vectorized singleton-bucket elimination
        g = g[g.duplicated(subset=["band_id", "band_hash"], keep=False)]
        if len(g) == 0:
            return pd.DataFrame(
                {"id_a": pd.Series([], dtype=object), "id_b": pd.Series([], dtype=object),
                 "est_jaccard": pd.Series([], dtype="float64")}
            )
        # ONE pass for the whole partition: sort buckets contiguous, generate
        # every within-bucket pair index vectorized (no per-bucket Python),
        # then a single (n_pairs × N_PERM) signature comparison
        g = g.sort_values(["band_id", "band_hash", id_col], kind="mergesort").reset_index(
            drop=True
        )
        starts, counts = _bucket_layout(g, ["band_id", "band_hash"])
        I, J = _intra_bucket_pairs(starts, counts)
        S = np.stack(list(g["sig"]))
        est = (S[I] == S[J]).mean(axis=1)
        m = est >= threshold
        ids = g[id_col].to_numpy()  # sorted by id within bucket → id_a < id_b
        out = pd.DataFrame(
            {"id_a": ids[I[m]], "id_b": ids[J[m]], "est_jaccard": est[m].astype(np.float64)}
        )
        # pre-distinct before the pair shuffle: est_jaccard is computed
        # over the FULL signature, so a pair colliding in several bands of
        # this partition yields identical rows — ship one
        return out.drop_duplicates(subset=["id_a", "id_b"])

    pairs = exchange(ds, ["band_id", "band_hash"], _verify_part, 16,
                     map=lambda b: minhash_bands_batch(b, id_col, text_col))
    return hash_partitioned_agg(pairs, ["id_a", "id_b"], distinct_block(["id_a", "id_b"]),
                                num_parts=8)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

SIMHASH_BITS = 64
SIMHASH_BANDS = 4
_BAND_BITS = SIMHASH_BITS // SIMHASH_BANDS


def simhash64_batch(texts) -> np.ndarray:
    """(n_docs,) uint64 simhashes — one vectorized pass: all tokens hashed
    together, per-bit ±1 contributions summed per doc via
    ``np.add.reduceat`` over the doc-contiguous token segments."""
    out = np.zeros(len(texts), dtype=np.uint64)
    H, lens = _hash_tokens(texts)
    if len(H) == 0:
        return out
    shifts = np.arange(SIMHASH_BITS, dtype=np.uint64)
    contrib = (2 * ((H[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int32)) - 1
    offsets = np.concatenate([[0], np.cumsum(lens)])
    nonempty = lens > 0
    acc = np.add.reduceat(contrib, offsets[:-1][nonempty], axis=0)  # (#nonempty, 64)
    out[nonempty] = ((acc > 0).astype(np.uint64) << shifts[None, :]).sum(axis=1)
    return out


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (unpackbits over the byte view)."""
    if len(x) == 0:
        return np.zeros(0, dtype=np.int64)
    return np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1).astype(np.int64)


def simhash_bands_batch(batch: pd.DataFrame, id_col: str, text_col: str) -> pd.DataFrame:
    """doc → SIMHASH_BANDS rows (band_id, band_val, id, simhash) with the
    hash as a native uint64 column — band explosion via repeat/shift."""
    hs = simhash64_batch(list(batch[text_col]))
    n_docs = len(batch)
    idx = np.repeat(np.arange(n_docs), SIMHASH_BANDS)
    band_id = np.tile(np.arange(SIMHASH_BANDS, dtype=np.int64), n_docs)
    band_val = (hs[idx] >> (band_id.astype(np.uint64) * np.uint64(_BAND_BITS))) & np.uint64(
        (1 << _BAND_BITS) - 1
    )
    return pd.DataFrame(
        {
            "band_id": band_id,
            "band_val": band_val,
            id_col: batch[id_col].to_numpy()[idx],
            "simhash": hs[idx],
        }
    )


def simhash_pairs_ds(ds, id_col: str, text_col: str, max_hamming: int = 3):
    """Near-dup pairs by simhash: equal band → candidate, Hamming ≤ k verify.
    Same partitioned-bucket layout as minhash_pairs_ds."""
    from .grouped import distinct_block, exchange, hash_partitioned_agg

    def _verify_part(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(subset=["band_id", "band_val", id_col])
        g = g[g.duplicated(subset=["band_id", "band_val"], keep=False)]
        if len(g) == 0:
            return pd.DataFrame(
                {"id_a": pd.Series([], dtype=object), "id_b": pd.Series([], dtype=object),
                 "hamming": pd.Series([], dtype="int64")}
            )
        # same vectorized bucket-pair layout as the minhash verify: one
        # popcount over every candidate pair in the partition at once
        g = g.sort_values(["band_id", "band_val", id_col], kind="mergesort").reset_index(
            drop=True
        )
        starts, counts = _bucket_layout(g, ["band_id", "band_val"])
        I, J = _intra_bucket_pairs(starts, counts)
        hs = g["simhash"].to_numpy().astype(np.uint64)
        d = _popcount64(hs[I] ^ hs[J])
        m = d <= max_hamming
        ids = g[id_col].to_numpy()
        out = pd.DataFrame({"id_a": ids[I[m]], "id_b": ids[J[m]], "hamming": d[m]})
        # pre-distinct BEFORE the pair shuffle: a pair that collides in
        # several bands routed to this partition appears once per band, all
        # with the same (band-independent) 64-bit Hamming distance — the
        # global distinct only needs one copy (measured ~4× shuffle cut on
        # the replica-amplified bench corpus, PERF.md round 3)
        return out.drop_duplicates(subset=["id_a", "id_b"])

    pairs = exchange(ds, ["band_id", "band_val"], _verify_part, 16,
                     map=lambda b: simhash_bands_batch(b, id_col, text_col))
    return hash_partitioned_agg(pairs, ["id_a", "id_b"], distinct_block(["id_a", "id_b"]),
                                num_parts=8)


# ---------------------------------------------------------------------------
# Exact blocked variants (oracle-checkable)
# ---------------------------------------------------------------------------


def _blocked(ds, block_col, pairs):
    """``pairs`` run on each blocking group of ``ds`` (``block_col``: one
    column or several): one ``exchange`` by the block key, and each
    partition loops over the blocks routed to it — the quadratic work is
    per block by nature."""
    from .grouped import exchange

    keys = [block_col] if isinstance(block_col, str) else list(block_col)

    def _reduce(df: pd.DataFrame) -> pd.DataFrame:
        return pd.concat(
            [pairs(g) for _, g in df.groupby(keys, sort=False, dropna=False)],
            ignore_index=True,
        )

    return exchange(ds, keys, _reduce)


def jaccard_pairs_ds(ds, block_col: str, id_col: str, text_col: str, threshold: float):
    """Exact word-set Jaccard pairs within blocking groups (SQL-mirrorable:
    list_intersect/list_distinct in DuckDB).  Quadratic only within a block."""

    def _pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(id_col, kind="mergesort")
        ids = g[id_col].tolist()
        sets = [frozenset(RE_WS.split(t.strip().lower())) if t.strip() else frozenset()
                for t in g[text_col]]
        rows = {"id_a": [], "id_b": [], "jaccard": []}
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                u = len(sets[i] | sets[j])
                jac = (len(sets[i] & sets[j]) / u) if u else 0.0
                if jac >= threshold:
                    rows["id_a"].append(ids[i])
                    rows["id_b"].append(ids[j])
                    rows["jaccard"].append(jac)
        out = pd.DataFrame(rows)
        if out.empty:
            out = pd.DataFrame({"id_a": pd.Series([], dtype=g[id_col].dtype),
                                "id_b": pd.Series([], dtype=g[id_col].dtype),
                                "jaccard": pd.Series([], dtype="float64")})
        return out

    return _blocked(ds, block_col, _pairs)


def embedding_pairs_ds(ds, block_col: str, id_col: str, vec_col: str, threshold: float):
    """Exact pairwise-cosine near-dup pairs within blocking groups —
    vectorized matmul per group; the scale path replaces the blocking column
    with LSH bucket ids (see simsearch.lsh_buckets_batch)."""

    def _pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(id_col, kind="mergesort")
        ids = np.array(g[id_col].tolist())
        M = np.vstack(g[vec_col].to_numpy()).astype(np.float64)
        Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        S = Mn @ Mn.T
        iu, ju = np.triu_indices(len(ids), 1)
        m = S[iu, ju] >= threshold
        return pd.DataFrame(
            {"id_a": ids[iu[m]], "id_b": ids[ju[m]]}
        ).astype({"id_a": "int64", "id_b": "int64"})

    return _blocked(ds, block_col, _pairs)


LSH_TABLES = 8
LSH_PLANES = 6


def _lsh_table_buckets(batch: pd.DataFrame, vec_col: str) -> pd.DataFrame:
    """Explode each vector into LSH_TABLES rows (table_id, bucket) — one
    sign-bucket per independent hyperplane set (seeded per table)."""
    from .simsearch import sign_buckets

    M = np.vstack(batch[vec_col].to_numpy()).astype(np.float64)
    frames = []
    for t in range(LSH_TABLES):
        P = np.random.default_rng(100 + t).standard_normal((LSH_PLANES, M.shape[1]))
        f = batch.copy()
        f["table_id"] = np.int64(t)
        f["bucket"] = sign_buckets(M, P)
        frames.append(f)
    return pd.concat(frames, ignore_index=True)


def embedding_pairs_lsh_ds(ds, id_col: str, vec_col: str, threshold: float):
    """Scale path for embedding near-dup: multi-table random-hyperplane LSH
    blocking (a pair is a candidate if it collides in ANY of LSH_TABLES
    independent tables — recall 1-(1-p^k)^T), exact cosine verification
    within buckets, distinct pairs.  Recall vs the exact variant is
    property-tested."""
    from .grouped import distinct_block, hash_partitioned_agg

    bucketed = ds.map_batches(lambda b: _lsh_table_buckets(b, vec_col), batch_format="pandas")
    pairs = embedding_pairs_ds(bucketed, ["table_id", "bucket"], id_col, vec_col, threshold)
    return hash_partitioned_agg(pairs, ["id_a", "id_b"], distinct_block(["id_a", "id_b"]),
                                num_parts=8)


# ---------------------------------------------------------------------------
# SemDeDup — clustering-based semantic deduplication
# ---------------------------------------------------------------------------


def semantic_dedup_ds(ds, id_col: str, vec_col: str, threshold: float = 0.3,
                      n_centroids: int = 16, max_cluster_size: int = 2048):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): spherical k-means
    clusters the embedding corpus, then near-duplicates are detected WITHIN
    each cluster only — candidate cost falls from |corpus|² to
    Σ cluster_size², the published trick that makes embedding dedup viable
    at web scale.

    Ray shape: centroids come from the IVF coarse quantizer (deterministic
    hash-ranked sample, driver-trained, vocabulary-sized) and are broadcast
    ONCE via ``ray.put``; assignment is one matmul per batch; the verify
    stage groups by cluster id and runs one pairwise matmul + a greedy
    leader pass per cluster.  The greedy pass is sequential over cluster
    MEMBERS by definition (each verdict depends on the kept-set so far) but
    every step is a vectorized slice of the precomputed similarity matrix;
    cluster size is bounded by ~|corpus|/n_centroids — at scale raise
    ``n_centroids`` ∝ √|corpus| so per-cluster work stays flat.

    Output, one row per vector: (id, cluster_id, keep, dup_of) where
    ``keep`` marks the cluster representatives (lowest-id-first greedy
    leaders) and ``dup_of`` names the kept member a dropped row duplicates
    (-1 for survivors).  Deterministic: seeded k-means + id-ordered greedy.

    Mega-cluster guard: the per-cluster ``M @ M.T`` is cluster²-memory, and
    near-duplicate-heavy corpora (the op's whole point) produce exactly the
    degenerate mega-cluster that would OOM it.  Clusters larger than
    ``max_cluster_size`` are split into id-ordered sub-clusters of at most
    that size and the greedy leader pass runs WITHIN each sub-cluster
    (bounding the matrix at cap² — 2048² f64 = 32 MB); duplicates whose
    nearest leader sits in a different sub-cluster are missed, the standard
    recall-for-memory trade (``dup_of`` always names a member of the same
    sub-cluster).  Adversarial all-one-cluster case is pytest-pinned
    against the serial reference with the same split rule.
    """
    import ray

    from .grouped import exchange
    from .simsearch import _normalize, train_centroids

    C = train_centroids(ds, id_col, vec_col, n_centroids)
    cref = ray.put(C)

    def _assign(batch: pd.DataFrame) -> pd.DataFrame:
        Cm = ray.get(cref)
        M = _normalize(np.vstack(batch[vec_col].to_numpy()).astype(np.float64))
        out = pd.DataFrame(
            {
                id_col: batch[id_col].astype("int64"),
                "cluster_id": (M @ Cm.T).argmax(axis=1).astype("int64"),
            }
        )
        out["vec"] = list(M)  # normalized rows ride to the verify stage
        return out

    def _greedy_chunk(ids: np.ndarray, M: np.ndarray):
        """Greedy leader pass over ONE ≤max_cluster_size member chunk."""
        S = M @ M.T
        n = len(ids)
        kept = np.zeros(n, dtype=bool)
        dup_of = np.full(n, -1, dtype="int64")
        for i in range(n):
            prior = np.flatnonzero(kept[:i])
            if len(prior):
                sims = S[i, prior]
                j = int(sims.argmax())
                if sims[j] >= threshold:
                    dup_of[i] = ids[prior[j]]
                    continue
            kept[i] = True
        return kept, dup_of

    def _greedy(df: pd.DataFrame) -> pd.DataFrame:
        # every cluster routed to this partition, one leader pass each
        frames = []
        for cid, g in df.groupby("cluster_id", sort=False):
            g = g.sort_values(id_col, kind="mergesort")
            ids = g[id_col].to_numpy()
            vecs = g["vec"].to_numpy()
            n = len(ids)
            kept = np.empty(n, dtype=bool)
            dup_of = np.empty(n, dtype="int64")
            # mega-cluster guard: id-ordered sub-clusters bound S at cap²
            for s0 in range(0, n, max_cluster_size):
                sl = slice(s0, min(s0 + max_cluster_size, n))
                kept[sl], dup_of[sl] = _greedy_chunk(
                    ids[sl], np.vstack(vecs[sl])
                )
            frames.append(
                pd.DataFrame(
                    {
                        id_col: ids,
                        "cluster_id": np.int64(cid),
                        "keep": kept,
                        "dup_of": dup_of,
                    }
                )
            )
        return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
            {
                id_col: pd.Series([], dtype="int64"),
                "cluster_id": pd.Series([], dtype="int64"),
                "keep": pd.Series([], dtype="bool"),
                "dup_of": pd.Series([], dtype="int64"),
            }
        )

    return exchange(ds, ["cluster_id"], _greedy, map=_assign)
