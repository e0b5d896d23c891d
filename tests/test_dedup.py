"""Near-dup suite: approximate paths verified against brute-force truth on
the synthetic corpus (dup-content pages have word-identical bodies)."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import ray.data as rd

from knowledgegraph__bh_ray.pipelines import kg
from knowledgegraph__bh_ray.stages import dedup


def _dup_truth(pages_small):
    """Brute-force exact duplicate text pairs (same text_out)."""
    ext = kg.parsed_ds(pages_small).select_columns(["url", "text_out"]).to_pandas()
    pairs = set()
    by_text = ext.groupby("text_out")["url"].apply(list)
    for urls in by_text:
        urls = sorted(urls)
        for i in range(len(urls)):
            for j in range(i + 1, len(urls)):
                pairs.add((urls[i], urls[j]))
    return ext, pairs


def test_minhash_finds_exact_dup_pages(ray_session, pages_small):
    ext, truth = _dup_truth(pages_small)
    assert truth, "generator must produce dup-content pages"
    ds = rd.from_pandas(ext[["url", "text_out"]])
    found = dedup.minhash_pairs_ds(ds, "url", "text_out", threshold=0.9).to_pandas()
    found_pairs = set(zip(found["id_a"], found["id_b"]))
    # identical text ⇒ identical signature ⇒ every true dup pair is found
    assert truth <= found_pairs
    # and est_jaccard for those pairs is 1.0
    exact = found.set_index(["id_a", "id_b"]).loc[sorted(truth)]["est_jaccard"]
    assert (exact == 1.0).all()


def test_simhash_finds_exact_dup_pages(ray_session, pages_small):
    ext, truth = _dup_truth(pages_small)
    ds = rd.from_pandas(ext[["url", "text_out"]])
    found = dedup.simhash_pairs_ds(ds, "url", "text_out", max_hamming=0).to_pandas()
    found_pairs = set(zip(found["id_a"], found["id_b"]))
    assert truth <= found_pairs
    assert (found.set_index(["id_a", "id_b"]).loc[sorted(truth)]["hamming"] == 0).all()


def test_minhash_estimates_jaccard(ray_session):
    """Signature-estimated Jaccard tracks true Jaccard on overlapping docs."""
    base = [f"w{i}" for i in range(100)]
    texts = {
        "a": " ".join(base),
        "b": " ".join(base[:80] + [f"x{i}" for i in range(20)]),  # high overlap
        "c": " ".join(f"z{i}" for i in range(100)),  # disjoint
    }
    df = pd.DataFrame({"doc": list(texts), "text": list(texts.values())})
    ds = rd.from_pandas(df)
    found = dedup.minhash_pairs_ds(ds, "doc", "text", threshold=0.3).to_pandas()
    pairs = set(zip(found["id_a"], found["id_b"]))
    assert ("a", "b") in pairs
    assert ("a", "c") not in pairs and ("b", "c") not in pairs


def test_embedding_pairs_match_bruteforce(ray_session):
    sf = "/root/testdata/sf0.001"
    emb = pq.read_table(f"{sf}/embeddings.parquet").to_pandas()
    ds = rd.from_pandas(emb)
    got = dedup.embedding_pairs_ds(ds, "label", "vec_id", "embedding", 0.3).to_pandas()
    got_pairs = set(zip(got["id_a"], got["id_b"]))

    want = set()
    for _, g in emb.groupby("label"):
        M = np.vstack(g["embedding"].values).astype(np.float64)
        M = M / np.linalg.norm(M, axis=1, keepdims=True)
        S = M @ M.T
        ids = g["vec_id"].values
        iu, ju = np.triu_indices(len(ids), 1)
        for i, j in zip(iu[S[iu, ju] >= 0.3], ju[S[iu, ju] >= 0.3]):
            want.add((int(ids[i]), int(ids[j])))
    assert got_pairs == want


def test_jaccard_pairs_match_python_reference(ray_session):
    """Exact blocked word-set Jaccard against a pure-Python reference on 12
    blocks — more blocks than the exchange's partitions, so partitions
    verify several blocks each; includes a single-doc block, an empty
    text and case/whitespace variants."""
    rng = np.random.RandomState(5)
    vocab = [f"w{i}" for i in range(12)]
    rows = []
    for block in range(12):
        for _ in range(1 + block % 5):
            words = rng.choice(vocab, size=rng.randint(1, 6)).tolist()
            rows.append((f"src{block}", len(rows), "  ".join(words).upper()
                         if len(rows) % 3 == 0 else " ".join(words)))
    rows.append(("src3", len(rows), "   "))
    docs = pd.DataFrame(rows, columns=["source", "doc_id", "text"])
    docs["doc_id"] = docs["doc_id"].astype("int64")
    got = dedup.jaccard_pairs_ds(
        rd.from_pandas(docs).repartition(4), "source", "doc_id", "text", 0.5
    ).to_pandas()

    def _words(t):
        return set(t.strip().lower().split()) if t.strip() else set()

    want = set()
    for _, g in docs.groupby("source"):
        block = list(zip(g["doc_id"], g["text"]))  # doc_id order
        for n, (i, ti) in enumerate(block):
            for j, tj in block[n + 1:]:
                u = len(_words(ti) | _words(tj))
                jac = len(_words(ti) & _words(tj)) / u if u else 0.0
                if jac >= 0.5:
                    want.add((int(i), int(j), jac))
    assert want
    assert set(zip(got["id_a"], got["id_b"], got["jaccard"])) == want
    assert len(got) == len(want)
    assert str(got["id_a"].dtype) == "int64" and str(got["jaccard"].dtype) == "float64"


def test_embedding_lsh_recall(ray_session):
    """LSH-bucketed variant finds a reasonable share of the exact pairs and
    emits no pair below threshold (its pairs are a subset of brute force)."""
    sf = "/root/testdata/sf0.001"
    emb = pq.read_table(f"{sf}/embeddings.parquet").to_pandas()
    ds = rd.from_pandas(emb[["vec_id", "embedding"]])
    got = dedup.embedding_pairs_lsh_ds(ds, "vec_id", "embedding", 0.3).to_pandas()
    got_pairs = set(zip(got["id_a"], got["id_b"]))

    M = np.vstack(emb["embedding"].values).astype(np.float64)
    M = M / np.linalg.norm(M, axis=1, keepdims=True)
    S = M @ M.T
    ids = emb["vec_id"].values
    iu, ju = np.triu_indices(len(ids), 1)
    exact = {
        (int(ids[i]), int(ids[j]))
        for i, j in zip(iu[S[iu, ju] >= 0.3], ju[S[iu, ju] >= 0.3])
    }
    assert got_pairs <= exact  # never a false pair
    if exact:
        assert len(got_pairs) / len(exact) >= 0.25  # multi-table recall floor


def test_curate_corpus_gate_and_dedup(ray_session, tmp_path):
    """Composite curation: quality thresholds are inclusive, duplicate text
    keeps the min doc_id with a dup count, short/thin docs are dropped."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from knowledgegraph__bh_ray.pipelines.textops import curate_corpus_ds

    long_en = "word " * 10  # 50 chars, 10 tokens
    docs = pa.table(
        {
            "doc_id": pa.array([3, 1, 2, 4, 5], pa.int64()),
            "text": [long_en, long_en, "short", "一" * 30 + " 二 三 四 五", "a b c d e"],
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = curate_corpus_ds(str(tmp_path)).to_pandas()
    by_id = {r.keep_doc_id: r for r in got.itertuples()}
    # dup text: doc 1 kept (min id), n_dups 2; doc 2 too short; doc 5 too
    # few chars (9 < 20)
    assert set(by_id) == {1, 4}
    assert by_id[1].n_dups == 2 and by_id[1].lang_pred == "en"
    assert by_id[4].lang_pred == "zh" and by_id[4].n_dups == 1


def test_decontaminate_flags_ngram_overlap(ray_session, tmp_path):
    """Train docs sharing a 5-gram with the eval split (doc_id % 10 == 0)
    are flagged with exact hit counts; short docs stay with n_grams=0;
    eval docs and whitespace-only docs never appear in the output."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from knowledgegraph__bh_ray.pipelines.textops import decontaminate_ds

    eval_text = "alpha beta gamma delta epsilon zeta"      # grams: a..e, b..z
    docs = pa.table(
        {
            "doc_id": pa.array([10, 1, 2, 3, 4, 5], pa.int64()),
            "text": [
                eval_text,                                   # eval doc
                "alpha beta gamma delta epsilon eta",        # 1 shared gram (a..e)
                "Alpha  Beta gamma\tdelta epsilon zeta",     # case/ws-normalized: 2 hits
                "unrelated words entirely different corpus here",  # 0 hits
                "too short",                                 # < 5 tokens → 0 grams
                "   ",                                       # whitespace-only → dropped
            ],
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = decontaminate_ds(str(tmp_path), n=5, eval_mod=10).to_pandas()
    by_id = {r.doc_id: r for r in got.itertuples()}
    assert set(by_id) == {1, 2, 3, 4}
    assert by_id[1].n_hits == 1 and by_id[1].contaminated == 1
    assert by_id[2].n_hits == 2 and by_id[2].contaminated == 1
    assert by_id[3].n_hits == 0 and by_id[3].contaminated == 0
    assert by_id[4].n_grams == 0 and by_id[4].contaminated == 0
    assert by_id[1].n_grams == 2 and by_id[3].n_grams == 2


def test_pack_sequences_prefix_sum(ray_session, tmp_path):
    """Global token offsets equal the serial cumsum in doc_id order even
    with doc_id gaps across ranges; bin spans cover seq_len boundaries —
    also with more ranges than the exchange has partitions (one per block
    of the narrow table), so a partition offsets several ranges."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from knowledgegraph__bh_ray.pipelines.textops import pack_sequences_ds

    cases = [
        # doc ids straddle several range_size=4 ranges, with gaps
        ([0, 1, 5, 6, 9, 17], [3, 5, 4, 7, 2, 6], 4),
        # 23 ranges of one or two docs
        (list(range(0, 90, 2)), [1 + (7 * i) % 11 for i in range(45)], 4),
    ]
    for case, (ids, counts, range_size) in enumerate(cases):
        d = tmp_path / f"case{case}"
        d.mkdir()
        pq.write_table(
            pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "text": [("w " * k).strip() for k in counts]}),
            str(d / "documents.parquet"),
        )
        got = (
            pack_sequences_ds(str(d), seq_len=8, range_size=range_size)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert list(got["doc_id"]) == ids
        # serial reference
        off, offs = 0, []
        for k in counts:
            offs.append(off)
            off += k
        assert list(got["token_offset"]) == offs
        assert list(got["first_seq"]) == [o // 8 for o in offs]
        assert list(got["last_seq"]) == [(o + k - 1) // 8 for o, k in zip(offs, counts)]
        if case == 0:  # doc 6 (offset 12, 7 tokens) must span bins 1..2
            row = got[got["doc_id"] == 6].iloc[0]
            assert (row["first_seq"], row["last_seq"]) == (1, 2)


def test_repetition_filter_signals(ray_session, tmp_path):
    """Distinct-token ratio and top-bigram fraction match hand computation;
    the 20% Gopher flag fires on a degenerate doc only."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from knowledgegraph__bh_ray.pipelines.textops import repetition_filter_ds

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": [
                "spam ham spam ham spam ham",   # top bigram "spam ham" 3/5
                "all tokens here are unique",
                "one two",                      # single bigram → frac 1.0
            ],
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = repetition_filter_ds(str(tmp_path)).to_pandas()
    by_id = {r.doc_id: r for r in got.itertuples()}
    assert by_id[1].n_tokens == 6 and by_id[1].n_distinct == 2
    assert by_id[1].top_bigram_count == 3
    assert by_id[1].top_bigram_frac_micros == 3 * 1_000_000 // 5
    assert by_id[1].flagged == 1
    assert by_id[2].n_distinct == 5 and by_id[2].flagged == 1  # every bigram unique but 1/4 > 20%
    assert by_id[3].top_bigram_frac_micros == 1_000_000


def test_pii_scrub_matches_duckdb_on_pii_text(ray_session, tmp_path):
    """Engine redaction ≡ the DuckDB mirror SQL on text that actually
    CONTAINS PII (the sf corpus is clean, so the driver gate only proves
    identity pass-through — this is the semantic gate)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from knowledgegraph__bh_ray import queries as Q
    from knowledgegraph__bh_ray.pipelines.textops import pii_scrub_ds

    docs = pa.table(
        {
            "doc_id": pa.array(list(range(6)), pa.int64()),
            "text": [
                "contact me at alice.smith+x@example.co.uk today",
                "server 192.168.0.1 and 10.0.0.255 rebooted",
                "call +1 555-123-4567 or 08 1234 5678 now",
                "mixed bob@ex.org from 127.0.0.1 dials 555-000-1111x",
                "clean text with no identifiers at all",
                "edge 999.999.999.999 and a@b.io trailing",
            ],
        }
    )
    path = str(tmp_path / "documents.parquet")
    pq.write_table(docs, path)
    got = (
        pii_scrub_ds(str(tmp_path)).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    sql = Q.build_oracle_sql()["pii_scrub"].replace(
        "FROM documents", f"FROM read_parquet('{path}')"
    )
    want = duckdb.sql(sql).df().sort_values("doc_id").reset_index(drop=True)
    for col in ("text_clean", "n_emails", "n_ips", "n_phones"):
        assert list(got[col]) == list(want[col]), col
    # spot semantics: emails and IPs replaced, clean doc untouched
    assert "[EMAIL]" in got.loc[0, "text_clean"] and "@" not in got.loc[0, "text_clean"]
    assert got.loc[1, "text_clean"].count("[IP]") == 2
    assert got.loc[4, "text_clean"] == docs["text"][4].as_py()


def test_inverted_index_postings(ray_session, tmp_path):
    """Posting lists are doc-id-sorted and deduped (repeated term in one
    doc counts once); result is invariant to the term-hash shard count."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from knowledgegraph__bh_ray.pipelines.textops import inverted_index_ds

    docs = pa.table(
        {
            "doc_id": pa.array([3, 1, 2, 4], pa.int64()),
            "text": [
                "apple banana apple",          # apple deduped within doc 3
                "Banana cherry",               # lowercased → banana
                "cherry  apple\tcherry",       # multi-ws split, cherry deduped
                "   ",                         # whitespace-only → dropped
            ],
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = (
        inverted_index_ds(str(tmp_path))
        .to_pandas()
        .sort_values("term")
        .reset_index(drop=True)
    )
    want = {
        "apple": (2, "2,3"),
        "banana": (2, "1,3"),
        "cherry": (2, "1,2"),
    }
    assert dict(zip(got["term"], zip(got["df"], got["postings"]))) == want
    # shard-count invariance: different num_parts, identical index
    got4 = (
        inverted_index_ds(str(tmp_path), num_parts=4)
        .to_pandas()
        .sort_values("term")
        .reset_index(drop=True)
    )
    assert got4.equals(got)


def _serial_semdedup(ids, vecs, threshold, n_centroids, max_cluster_size=10**9):
    """Independent scalar-loop reference for semantic_dedup_ds: same
    deterministic spec (md5-ranked sample, spherical k-means w/ seeded
    init + empty-cluster carry, id-ordered greedy leader, id-ordered
    sub-cluster split above max_cluster_size), implemented with plain
    Python loops instead of the engine's batched kernels."""
    import hashlib

    def norm(v):
        n = np.linalg.norm(v)
        return v / max(n, 1e-12)

    order = sorted(range(len(ids)), key=lambda i: hashlib.md5(str(ids[i]).encode()).hexdigest())
    sample = [norm(vecs[i].astype(np.float64)) for i in order[: n_centroids * 8]]
    C = [sample[i].copy() for i in range(min(n_centroids, len(sample)))]
    for _ in range(5):
        assign = [max(range(len(C)), key=lambda c: float(v @ C[c])) for v in sample]
        for c in range(len(C)):
            members = [sample[i] for i in range(len(sample)) if assign[i] == c]
            if members:
                C[c] = norm(np.mean(members, axis=0))

    out = {}
    clusters: dict[int, list[int]] = {}
    for i in range(len(ids)):
        v = norm(vecs[i].astype(np.float64))
        cid = max(range(len(C)), key=lambda c: float(v @ C[c]))
        clusters.setdefault(cid, []).append(i)
    for cid, members in clusters.items():
        members = sorted(members, key=lambda i: ids[i])
        for c0 in range(0, len(members), max_cluster_size):
            chunk = members[c0 : c0 + max_cluster_size]
            kept: list[int] = []
            for i in chunk:
                v = norm(vecs[i].astype(np.float64))
                best, best_sim = -1, -2.0
                for k in kept:
                    s = float(v @ norm(vecs[k].astype(np.float64)))
                    if s > best_sim:
                        best, best_sim = k, s
                if kept and best_sim >= threshold:
                    out[ids[i]] = (cid, False, ids[best])
                else:
                    kept.append(i)
                    out[ids[i]] = (cid, True, -1)
    return out


def test_semantic_dedup_matches_serial_reference(ray_session):
    rng = np.random.default_rng(5)
    base = rng.standard_normal((12, 16))
    # planted near-dups: tiny perturbations of base rows
    vecs = np.vstack([base, base[:5] + rng.standard_normal((5, 16)) * 0.01])
    ids = np.arange(len(vecs), dtype=np.int64)
    ds = rd.from_pandas(pd.DataFrame({"vec_id": ids, "embedding": list(vecs.astype(np.float32))}))

    got = (
        dedup.semantic_dedup_ds(ds, "vec_id", "embedding", threshold=0.9, n_centroids=4)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    ref = _serial_semdedup(ids.tolist(), [v for v in vecs.astype(np.float32)], 0.9, 4)

    assert len(got) == len(vecs)
    for _, r in got.iterrows():
        cid, keep, dup_of = ref[int(r["vec_id"])]
        assert (int(r["cluster_id"]), bool(r["keep"]), int(r["dup_of"])) == (cid, keep, dup_of), r

    # the planted perturbed copies must be dropped against their originals
    dropped = got[~got["keep"]]
    assert len(dropped) >= 5
    for i in range(12, 17):
        row = got[got["vec_id"] == i].iloc[0]
        assert not row["keep"] and row["dup_of"] == i - 12


def test_semantic_dedup_mega_cluster_guard(ray_session):
    """Adversarial all-one-cluster corpus (every vector a tiny perturbation
    of one base — the dedup-heavy case SemDeDup exists for): with
    n_centroids=1 the whole corpus lands in ONE cluster; max_cluster_size
    must bound the pairwise matrix by splitting into id-ordered
    sub-clusters, each electing its own leader, with dup_of always naming
    a same-sub-cluster member.  Output ≡ serial reference with the same
    split rule."""
    rng = np.random.default_rng(9)
    base = rng.standard_normal(16)
    vecs = (base[None, :] + rng.standard_normal((40, 16)) * 1e-3).astype(np.float32)
    ids = np.arange(40, dtype=np.int64)
    ds = rd.from_pandas(pd.DataFrame({"vec_id": ids, "embedding": list(vecs)}))

    got = (
        dedup.semantic_dedup_ds(ds, "vec_id", "embedding", threshold=0.9,
                                n_centroids=1, max_cluster_size=8)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    assert len(got) == 40  # every row gets a verdict
    assert got["cluster_id"].nunique() == 1
    ref = _serial_semdedup(ids.tolist(), [v for v in vecs], 0.9, 1,
                           max_cluster_size=8)
    for _, r in got.iterrows():
        cid, keep, dup_of = ref[int(r["vec_id"])]
        assert (int(r["cluster_id"]), bool(r["keep"]), int(r["dup_of"])) == (
            cid, keep, dup_of), r
    # one leader per 8-member sub-cluster: ids 0,8,16,24,32 survive, and
    # every dropped row names the leader of ITS OWN sub-cluster
    assert sorted(got[got["keep"]]["vec_id"]) == [0, 8, 16, 24, 32]
    dropped = got[~got["keep"]]
    assert (dropped["dup_of"] == (dropped["vec_id"] // 8) * 8).all()


def test_semantic_dedup_deterministic(ray_session):
    rng = np.random.default_rng(7)
    vecs = rng.standard_normal((40, 8)).astype(np.float32)
    df = pd.DataFrame({"vec_id": np.arange(40, dtype=np.int64), "embedding": list(vecs)})
    a = dedup.semantic_dedup_ds(rd.from_pandas(df), "vec_id", "embedding").to_pandas()
    b = dedup.semantic_dedup_ds(rd.from_pandas(df), "vec_id", "embedding").to_pandas()
    pd.testing.assert_frame_equal(
        a.sort_values("vec_id").reset_index(drop=True),
        b.sort_values("vec_id").reset_index(drop=True),
    )
