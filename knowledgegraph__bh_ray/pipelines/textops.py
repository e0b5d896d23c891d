"""Text-analysis, deduplication and sampling operators over the documents
table.  The language id and boilerplate strip also run on parsed pages,
and the distinct-user counts read the events table.

  * dedup and overlap    — exact content-hash dedup, rolling-hash min-k
                           fingerprints, train/eval n-gram decontamination,
                           cross-doc duplicate passages
  * per-doc quality      — text quality counters, repetition signals, PII
                           scrub, language id, quality-percentile filter,
                           curation funnel, self-trained bigram-LM score
  * term statistics      — token counts per language, inverted index,
                           TF-IDF top terms, corpus bigram top-k, exact
                           heavy hitters, corpus profile
  * sampling and layout  — uniform / weighted / per-source-capped samples,
                           deterministic shuffle shards, corpus mixing,
                           sequence packing
  * events               — exact and HyperLogLog distinct users per type

Every per-doc stage is a vectorized ``map_batches``; aggregates use
per-batch partials before the shuffle.  The n-gram operators share one
token rule, ``tokens``, and one n-gram builder, ``grams``.  The SQL mirrors
are built in ``queries.build_oracle_sql``; keep the token, stopword and
CJK definitions here in sync with them.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import ray

from ..functions.hashing import (min_k_sketch, rolling_fingerprints,
                                 seeded_md5_digests, seeded_md5_sortkey,
                                 seeded_md5_u32)
from ..sources import read_table
from ..stages.grouped import collect_if_local

# keep in sync with the SQL mirrors (queries.build_oracle_sql)
RE_WS = re.compile(r"\s+")
RE_CJK = re.compile(r"[一-鿿]")
RE_PUNCT = re.compile(r"[.,!?;:]")
# BPE-ish pre-tokenizer (GPT-2-style contractions / letter runs / digit runs
# / symbol runs / whitespace), restricted to lookahead-free ASCII classes so
# Python re and DuckDB RE2 count identically (differential-tested both ways;
# CJK runs deliberately fall into the symbol class)
RE_BPE = re.compile(r"'(?:s|t|re|ve|m|ll|d)| ?[a-zA-Z]+| ?[0-9]+| ?[^a-zA-Z0-9\s]+|\s+")
STOPWORDS = ("the", "a", "of", "and", "to")


def _tokens(text: str) -> list[str]:
    t = text.strip()
    return RE_WS.split(t) if t else []


def tokens(text: pd.Series) -> pd.Series:
    """Per-doc token lists under the n-gram operators' token rule: lower →
    trim → split on ``\\s+`` (the mirrors'
    ``regexp_split_to_array(lower(trim(text)), '\\s+')``).  An empty or
    all-whitespace text gives ``[""]``."""
    return text.str.lower().str.strip().str.split(RE_WS)


def grams(doc_id: pd.Series, toks: pd.Series, n: int) -> pd.DataFrame:
    """Per-doc token lists (``tokens``) and their doc ids → one
    ``(doc_id, gram)`` row per token ``n``-gram, in doc then token order:
    ``n`` consecutive non-empty tokens of one doc joined by one space; with
    ``n = 1`` the rows are the terms.  Vectorized: one explode, then
    ``n - 1`` offset slices of the flat token array build the grams, and a
    gram whose slice crosses into the next doc is masked out."""
    toks = toks.reset_index(drop=True)
    ex = toks[toks.str.len() > 0].explode()  # no null or [] rows: all str
    term, row = ex.to_numpy(dtype=object), ex.index.to_numpy()
    keep = term != ""
    term, row = term[keep], row[keep]
    m = max(len(term) - n + 1, 0)
    gram, valid = term[:m], np.ones(m, dtype=bool)
    for j in range(1, n):
        gram = gram + " " + term[j:j + m]
        valid &= row[j:j + m] == row[:m]
    return pd.DataFrame({"doc_id": doc_id.to_numpy(dtype="int64")[row[:m][valid]],
                         "gram": gram[valid]})


def dedup_exact_ds(sf_dir: str):
    """documents → (content_hash, keep_doc_id, n_dups): exact dedup by md5 of
    text, keep the smallest doc_id (hash-partition + per-group first, G6)."""
    from ..stages.grouped import hash_partitioned_agg

    def _to_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "content_hash": batch["text"].map(
                    lambda t: hashlib.md5(t.encode("utf-8")).hexdigest()
                ),
                "keep_doc_id": batch["doc_id"],
                "n_dups": np.int64(1),
            }
        )

    def _agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("content_hash", sort=False)
        return pd.DataFrame(
            {
                "content_hash": g["keep_doc_id"].min().index,
                "keep_doc_id": g["keep_doc_id"].min().values,
                "n_dups": g["n_dups"].sum().values,
            }
        )

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    rows = docs.map_batches(_to_rows, batch_format="pandas")
    return hash_partitioned_agg(rows, ["content_hash"], _agg)


def _count_regex(texts: pd.Series, pattern: str) -> np.ndarray:
    """Vectorized non-overlapping regex-match count via Arrow's RE2 kernel
    (replaces per-row ``len(pat.findall(t))`` map loops — VERDICT r4 item
    4).  Only for patterns that count identically under RE2 and Python re
    (no lookahead, no capture-group findall semantics — all three counting
    patterns here qualify; equality is differential-tested in
    tests/test_misc_ops.py)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = pa.Array.from_pandas(texts, type=pa.string())
    return (
        pc.count_substring_regex(arr, pattern=pattern)
        .to_numpy(zero_copy_only=False)
        .astype("int64")
    )


def lang_id_batch(batch: pd.DataFrame, text_col: str, id_col: str) -> pd.DataFrame:
    """CJK-ratio language-id heuristic: >30% Han chars → zh, else en."""
    texts = batch[text_col]
    n_chars = texts.str.len().astype("int64")
    n_cjk = _count_regex(texts, RE_CJK.pattern)
    ratio = np.where(n_chars > 0, n_cjk / np.maximum(n_chars, 1), 0.0)
    return pd.DataFrame(
        {
            id_col: batch[id_col],
            "n_chars": n_chars,
            "n_cjk": n_cjk,
            "lang_pred": np.where(ratio > 0.3, "zh", "en"),
        }
    )


def text_quality_ds(sf_dir: str):
    """documents → per-doc quality counters (n_chars, n_tokens,
    n_bpe_tokens, n_punct, n_stopwords) — whitespace AND BPE-ish-regex
    token counts per the task brief; all integers so the SQL mirror hashes
    exactly."""

    def _batch(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].map(_tokens)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_chars": batch["text"].str.len().astype("int64"),
                "est_tokens": (batch["text"].str.len() // 2).astype("int64"),  # M17 len//2 heuristic (read_v2.py:39-40)
                "n_tokens": toks.map(len).astype("int64"),
                "n_bpe_tokens": _count_regex(batch["text"], RE_BPE.pattern),
                "n_punct": _count_regex(batch["text"], RE_PUNCT.pattern),
                "n_stopwords": toks.map(
                    lambda ts: sum(1 for t in ts if t.lower() in STOPWORDS)
                ).astype("int64"),
            }
        )

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(_batch, batch_format="pandas")


def token_count_by_lang_ds(sf_dir: str):
    """Per-lang total token count: per-batch partial sums → tiny groupby."""
    from ..stages.grouped import hash_partitioned_agg

    def _to_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "lang": batch["lang"],
                "total_tokens": batch["text"].map(lambda t: len(_tokens(t))).astype("int64"),
                "n_docs": np.int64(1),
            }
        )

    def _agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", sort=False)
        return pd.DataFrame(
            {
                "lang": g["total_tokens"].sum().index,
                "total_tokens": g["total_tokens"].sum().values,
                "n_docs": g["n_docs"].sum().values,
            }
        )

    docs = read_table(sf_dir, "documents", columns=["lang", "text"])
    rows = docs.map_batches(_to_rows, batch_format="pandas")
    return hash_partitioned_agg(rows, ["lang"], _agg, num_parts=4)


def fingerprint_ds(sf_dir: str, window: int = 4, k: int = 8):
    """documents → (doc_id, fingerprints: list<uint64 as int64-str>) — rolling
    polynomial hash over token windows, min-k sketch.  Sketches are mergeable
    (min of mins), making cross-shard near-dup candidate generation a small
    groupby over (doc, fingerprint) pairs rather than an all-pairs scan."""

    def _batch(batch: pd.DataFrame) -> pd.DataFrame:
        sketches = [
            ",".join(str(v) for v in min_k_sketch(rolling_fingerprints(_tokens(t), window), k))
            for t in batch["text"]
        ]
        return pd.DataFrame({"doc_id": batch["doc_id"], "fingerprint": sketches})

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(_batch, batch_format="pandas")


def decontaminate_ds(sf_dir: str, n: int = 5, eval_mod: int = 10):
    """Train/eval decontamination: flag every training document that shares
    at least one token ``n``-gram with the held-out eval split (the
    deterministic ``doc_id % eval_mod == 0`` slice).  Output one row per
    train doc: ``(doc_id, n_grams, n_hits, contaminated)`` — the standard
    n-gram-overlap decontamination rule used for LLM training corpora.

    100-TB design: an eval set is benchmark-sized by definition (thousands
    of docs against a corpus of billions), so its distinct gram-hash set is
    built distributed (vectorized per-batch hashing → distributed distinct)
    and broadcast ONCE via ``ray.put`` as a *sorted* uint64 array; every
    train batch then probes it with one vectorized ``np.searchsorted`` —
    the corpus-sized gram table never shuffles.  Collision odds per probe
    are |eval grams| / 2^64.  Docs with fewer than ``n`` tokens stay in the
    output with ``n_grams = 0`` (never flagged)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def _nonempty(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch["text"].str.strip() != ""]

    docs = docs.map_batches(_nonempty, batch_format="pandas")

    def _gram_hashes(batch: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
        """(doc_id, uint64 gram hash) per gram occurrence: deterministic
        64-bit siphash with a fixed key, stable across processes."""
        g = grams(batch["doc_id"], tokens(batch["text"]), n)
        return (g["doc_id"].to_numpy(),
                pd.util.hash_array(g["gram"].to_numpy(dtype=object)))

    def _eval_grams(batch: pd.DataFrame) -> pd.DataFrame:
        _, h = _gram_hashes(batch[batch["doc_id"] % eval_mod == 0])
        # per-batch distinct — the distributed distinct then only moves
        # one row per (batch, gram)
        return pd.DataFrame({"gram_hash": np.unique(h)})

    vals = docs.map_batches(_eval_grams, batch_format="pandas").unique("gram_hash")
    eval_hashes = np.sort(np.fromiter(vals, dtype=np.uint64, count=len(vals)))
    ev_ref = ray.put(eval_hashes)

    def _probe(batch: pd.DataFrame) -> pd.DataFrame:
        ev = ray.get(ev_ref)
        train = batch[batch["doc_id"] % eval_mod != 0]
        doc_ids, h = _gram_hashes(train)
        if ev.size and h.size:
            idx = np.searchsorted(ev, h)
            found = (idx < ev.size) & (ev[np.minimum(idx, ev.size - 1)] == h)
        else:
            found = np.zeros(h.size, dtype=bool)
        per_doc = pd.Series(found.astype("int64")).groupby(
            doc_ids, sort=False).agg(["size", "sum"])
        doc_id = pd.Series(train["doc_id"].to_numpy(dtype="int64"))
        n_hits = doc_id.map(per_doc["sum"]).fillna(0).astype("int64").to_numpy()
        return pd.DataFrame(
            {
                "doc_id": doc_id.to_numpy(),
                "n_grams": doc_id.map(per_doc["size"]).fillna(0).astype("int64").to_numpy(),
                "n_hits": n_hits,
                "contaminated": (n_hits > 0).astype("int64"),
            }
        )

    return docs.map_batches(_probe, batch_format="pandas")


# PII patterns — RE2-compatible (no lookarounds/backrefs) so the DuckDB
# mirror composes the SAME automaton; [0-9] not \d (unicode-digit parity)
RE_PII_EMAIL = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
RE_PII_IP = re.compile(r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b")
RE_PII_PHONE = re.compile(r"\+?[0-9][0-9\- ]{7,}[0-9]")


def pii_scrub_ds(sf_dir: str):
    """PII redaction for training corpora: emails → ``[EMAIL]``, IPv4s →
    ``[IP]``, phone-shaped digit runs → ``[PHONE]``, applied in that fixed
    order (each count is taken on the previous stage's output, so the
    composition is deterministic and the SQL mirror replays it exactly).
    Output per doc: the scrubbed text and the three redaction counts.

    Shuffle-free: one vectorized pandas C-regex pass per batch.  On a clean
    corpus this is an identity map — the DuckDB gate then proves byte-exact
    text pass-through; the redaction semantics are pytest-gated on
    synthetic PII fixtures."""

    def _batch(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["text"]
        n_emails = t.str.count(RE_PII_EMAIL).astype("int64")
        c1 = t.str.replace(RE_PII_EMAIL, "[EMAIL]", regex=True)
        n_ips = c1.str.count(RE_PII_IP).astype("int64")
        c2 = c1.str.replace(RE_PII_IP, "[IP]", regex=True)
        n_phones = c2.str.count(RE_PII_PHONE).astype("int64")
        c3 = c2.str.replace(RE_PII_PHONE, "[PHONE]", regex=True)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64"),
                "text_clean": c3,
                "n_emails": n_emails,
                "n_ips": n_ips,
                "n_phones": n_phones,
            }
        )

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(_batch, batch_format="pandas")


def repetition_filter_ds(sf_dir: str, flag_micros: int = 200000):
    """Gopher-style repetition quality signals, per document: distinct-token
    ratio and top-bigram fraction (the "fraction of characters in the most
    common n-gram" family of rules), plus the standard flag at 20%.  All
    ratios are integer micros (floor division) so the DuckDB mirror hashes
    exactly.

    Embarrassingly parallel — grouping is per-doc and a doc never spans
    batches, so there is NO shuffle: one vectorized pass (explode +
    ``grams`` bigrams + per-doc value counts) per batch."""

    def _batch(batch: pd.DataFrame) -> pd.DataFrame:
        keep = batch["text"].str.strip() != ""
        batch = batch[keep]
        toks = tokens(batch["text"])
        doc_id = batch["doc_id"].astype("int64")
        n_tokens = toks.map(len).astype("int64")
        n_distinct = toks.map(lambda t: len(set(t))).astype("int64")
        big = grams(doc_id, toks, 2)
        out = pd.DataFrame(
            {
                "doc_id": doc_id.values,
                "n_tokens": n_tokens.values,
                "n_distinct": n_distinct.values,
                "distinct_ratio_micros": (n_distinct * 1_000_000 // n_tokens).values,
            }
        )
        if big.empty:
            out["top_bigram_count"] = np.int64(0)
            out["top_bigram_frac_micros"] = np.int64(0)
        else:
            counts = big.groupby(["doc_id", "gram"], sort=False).size()
            per_doc = counts.groupby(level="doc_id")
            top2 = per_doc.max()
            nbig = per_doc.sum()
            out["top_bigram_count"] = (
                out["doc_id"].map(top2).fillna(0).astype("int64")
            )
            frac = (top2 * 1_000_000 // nbig).astype("int64")
            out["top_bigram_frac_micros"] = (
                out["doc_id"].map(frac).fillna(0).astype("int64")
            )
        out["flagged"] = (out["top_bigram_frac_micros"] > flag_micros).astype("int64")
        return out

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(_batch, batch_format="pandas")


def pack_sequences_ds(sf_dir: str, seq_len: int = 512, range_size: int = 64):
    """Concat-and-chunk sequence packing (the GPT-style training-data
    layout): documents concatenated in doc_id order, the token stream cut
    into fixed ``seq_len`` sequences; per doc emit its global
    ``token_offset`` and the ``first_seq``/``last_seq`` bins it lands in —
    exactly what a packing job needs to route each doc to sequence shards.

    The global prefix sum is computed distributed, no total sort:

      1. one streaming pass → narrow ``(doc_id, n_tokens, range_key)`` rows
         (``range_key = doc_id // range_size``), materialized once (3
         int64s/doc — object-store resident, spillable; avoids re-reading
         the corpus text for pass 2);
      2. per-range token sums via a partitioned agg — one row per range, a
         corpus/range_size-sized table (range_size is set so this is
         ~1e5 rows at 100 TB), cumsum'd on the driver and broadcast once;
      3. one ``exchange`` by ``range_key`` → per-partition vectorized
         sort + within-range cumsum, plus the broadcast range offset.

    Steps 2–3 are ``stages/rank.prefix_offsets`` with weight ``n_tokens``
    — the helper ``attach_sorted_rank`` runs with weight 1.

    The only driver-side state is the per-range sum table; the only
    shuffle moves the narrow int rows.  ``range_size`` defaults low for
    the test corpus (500 docs → 8 ranges); at scale set it to ~1e6."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def _narrow(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["text"]
        keep = t.str.strip() != ""
        t = t[keep]
        doc_id = batch["doc_id"][keep].astype("int64")
        n_tokens = t.str.strip().str.split(RE_WS).map(len).astype("int64")
        return pd.DataFrame(
            {
                "doc_id": doc_id.values,
                "n_tokens": n_tokens.values,
                "range_key": (doc_id // range_size).values,
            }
        )

    tok = docs.map_batches(_narrow, batch_format="pandas").materialize()

    from ..stages.rank import prefix_offsets

    def _emit(g: pd.DataFrame, token_offset: np.ndarray) -> pd.DataFrame:
        n_tokens = g["n_tokens"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(dtype=np.int64),
                "n_tokens": n_tokens,
                "token_offset": token_offset,
                "first_seq": token_offset // seq_len,
                "last_seq": (token_offset + n_tokens - 1) // seq_len,
            }
        )

    # one partition per block of the narrow table, the width Ray's own
    # groupby picks: at sf0.1 (8 blocks, 79 ranges) the default 16 cost
    # ~0.3 s of per-task overhead (PERF.md round 11)
    return prefix_offsets(
        tok, "range_key",
        order=lambda g: g.sort_values("doc_id", kind="mergesort"),
        emit=_emit, weight_col="n_tokens", num_parts=tok.num_blocks(),
    )


def inverted_index_ds(sf_dir: str, num_parts: int = 16):
    """Inverted index: term → document frequency + the ordered posting list
    (comma-joined sorted doc_ids — a string so the DuckDB ``string_agg ...
    ORDER BY`` mirror hashes exactly).

    Per-batch: vectorized explode + (doc, term) dedup, so the shuffle moves
    one row per distinct (batch, term, doc) pair; ONE hash shuffle on term
    co-locates each term's postings; per-partition a single vectorized sort
    + groupby builds every posting list.  Postings of one term live on one
    partition — the standard index-sharding layout (shard by term hash);
    a Zipf-hot term costs its df in one partition, which is exactly the
    posting list a real index shard stores anyway."""
    from ..stages.grouped import exchange

    def _pairs(batch: pd.DataFrame) -> pd.DataFrame:
        g = grams(batch["doc_id"], tokens(batch["text"]), 1)
        df = pd.DataFrame({"doc_id": g["doc_id"], "term": g["gram"]})
        return df.drop_duplicates(["doc_id", "term"]).reset_index(drop=True)

    def _index(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["term", "doc_id"], kind="mergesort")
        agg = g.groupby("term", sort=False).agg(
            df=("doc_id", "size"),
            postings=("doc_id", lambda s: ",".join(map(str, s))),
        )
        agg["df"] = agg["df"].astype("int64")
        return agg.reset_index()

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return exchange(docs, ["term"], _index, num_parts, map=_pairs)


def tfidf_terms_ds(sf_dir: str, k: int = 10):
    """TF-IDF table: the top-``k`` terms of each document by term frequency,
    joined with each term's corpus document frequency — integer columns
    only, so the DuckDB mirror hashes exactly (the float idf = ln(N/df) is
    one vectorized expression away for a consumer).

    Scale shape: per-batch tokenize+count is vectorized (explode + groupby
    inside the batch); (doc, term, tf) rows aggregate through the
    hash-partitioned combine; df is a second small aggregate over distinct
    (doc, term); the df attach is a reduce-side lookup (NO broadcast — a
    corpus-wide term vocabulary does not fit a worker); top-k per doc is a
    partitioned rank, never per-key Python."""
    from ..stages.grouped import exchange, hash_partitioned_agg, reduce_side_join

    def _term_counts(batch: pd.DataFrame) -> pd.DataFrame:
        g = grams(batch["doc_id"], tokens(batch["text"]), 1)
        out = (g.groupby(["doc_id", "gram"], sort=False).size()
               .rename("tf").rename_axis(["doc_id", "term"]).reset_index())
        out["tf"] = out["tf"].astype("int64")
        return out

    def _sum_tf(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["doc_id", "term"], sort=False, as_index=False)["tf"].sum()

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    # materialize ONCE: tf feeds both the df aggregate and the lookup —
    # lazy, the whole tokenize+combine DAG would execute twice (measured
    # ~1.6× on the bench corpus); (doc, term, tf) rows are much smaller
    # than the input text and spillable
    tf = hash_partitioned_agg(
        docs.map_batches(_term_counts, batch_format="pandas"),
        ["doc_id", "term"], _sum_tf, num_parts=8,
    ).materialize()

    def _df_rows(d: pd.DataFrame) -> pd.DataFrame:
        if "term" not in d.columns:
            return pd.DataFrame({"term": pd.Series([], dtype=object),
                                 "df": pd.Series([], dtype="int64")})
        return pd.DataFrame({"term": d["term"], "df": np.int64(1)})

    def _sum_df(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("term", sort=False, as_index=False)["df"].sum()

    dfreq = hash_partitioned_agg(tf.map_batches(_df_rows, batch_format="pandas"),
                                 ["term"], _sum_df, num_parts=8)

    # salt the df attach by doc hash: corpus-frequent terms ('the') would
    # otherwise route every one of their (doc, term) rows to one reducer
    joined = reduce_side_join(tf, ["doc_id", "term", "tf"], "term",
                              dfreq, "term", ["df"], salt_from="doc_id")

    def _topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["doc_id", "tf", "term"], ascending=[True, False, True],
                              kind="mergesort")
        out = g.groupby("doc_id", sort=False).head(k).reset_index(drop=True)
        out["rank"] = out.groupby("doc_id", sort=False).cumcount().astype("int64") + 1
        for c in ("doc_id", "tf", "df", "rank"):
            out[c] = out[c].astype("int64")
        return out[["doc_id", "term", "tf", "df", "rank"]]

    return exchange(joined, ["doc_id"], _topk, 8)


def distinct_users_by_type_ds(sf_dir: str):
    """Exact grouped COUNT(DISTINCT): distinct users per event_type — the
    two-level shape (distinct pairs via hash-partitioned dedup, then a tiny
    count) that stays exact at any scale, unlike a naive per-batch set."""
    from ..stages.grouped import distinct_block, hash_partitioned_agg

    ev = read_table(sf_dir, "events", columns=["event_type", "user_id"])
    pairs = hash_partitioned_agg(
        ev, ["event_type", "user_id"], distinct_block(["event_type", "user_id"]),
        num_parts=8,
    )

    def _count_rows(d: pd.DataFrame) -> pd.DataFrame:
        if "event_type" not in d.columns:
            return pd.DataFrame({"event_type": pd.Series([], dtype=object),
                                 "n_users": pd.Series([], dtype="int64")})
        return pd.DataFrame({"event_type": d["event_type"], "n_users": np.int64(1)})

    def _sum(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("event_type", sort=False, as_index=False)["n_users"].sum()

    return hash_partitioned_agg(pairs.map_batches(_count_rows, batch_format="pandas"),
                                ["event_type"], _sum, num_parts=4)


def bigram_top_ds(sf_dir: str, k: int = 100):
    """Corpus bigram counts → global top-k (n DESC, bigram tiebreak).

    Per-batch: vectorized tokenize (C string ops), within-doc bigrams via
    ``grams`` (no per-doc Python), value_counts partial.  The partial
    collapse bounds Zipf skew at one row per (batch, bigram), so the
    combine shuffle moves |distinct bigrams| rows, then a global sort +
    limit over the (already tiny) count table."""
    from ..stages.grouped import hash_partitioned_agg

    def _bigrams(batch: pd.DataFrame) -> pd.DataFrame:
        big = grams(batch["doc_id"], tokens(batch["text"]), 2)["gram"]
        out = big.value_counts().rename_axis("bigram").rename("n").reset_index()
        out["n"] = out["n"].astype("int64")
        return out

    def _sum(d: pd.DataFrame) -> pd.DataFrame:
        out = d.groupby("bigram", sort=False, as_index=False)["n"].sum()
        out["n"] = out["n"].astype("int64")
        return out

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    counts = hash_partitioned_agg(
        docs.map_batches(_bigrams, batch_format="pandas"), ["bigram"], _sum, num_parts=8
    )
    return counts.sort(["n", "bigram"], descending=[True, False]).limit(k)


def distinct_users_hll_ds(sf_dir: str):
    """Approximate grouped COUNT(DISTINCT) via HyperLogLog register rows
    (functions/hll.py): the shuffle moves ≤ |groups|·m register rows no
    matter how many distinct values exist — the 100-TB path beside the
    exact two-level dedup (distinct_users_by_type_ds).  Deterministic and
    merge-invariant (pytest: partitioning cannot change the estimate, and
    each group's estimate is within 5% of the exact count).  No SQL mirror
    (approximate)."""
    from ..functions.hll import hll_estimate, hll_rows
    from ..stages.grouped import exchange, hash_partitioned_agg

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for etype, g in batch.groupby("event_type", sort=False):
            r = hll_rows(g["user_id"].to_numpy())
            r.insert(0, "event_type", etype)
            frames.append(r)
        if not frames:
            return pd.DataFrame({"event_type": pd.Series([], dtype=object),
                                 "idx": pd.Series([], dtype="int64"),
                                 "rho": pd.Series([], dtype="int64")})
        return pd.concat(frames, ignore_index=True)

    def _max(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["event_type", "idx"], sort=False, as_index=False)["rho"].max()

    ev = read_table(sf_dir, "events", columns=["event_type", "user_id"])
    regs = hash_partitioned_agg(ev.map_batches(_partial, batch_format="pandas"),
                                ["event_type", "idx"], _max, num_parts=8)

    def _est(df: pd.DataFrame) -> pd.DataFrame:
        # one estimate per event type routed here: ≤ HLL_M register rows each
        rows = [(etype, hll_estimate(g["idx"].to_numpy(), g["rho"].to_numpy()))
                for etype, g in df.groupby("event_type", sort=False)]
        return pd.DataFrame(rows, columns=["event_type", "n_users_est"]).astype(
            {"n_users_est": "int64"})

    return exchange(regs, ["event_type"], _est, 4)


def curate_corpus_ds(sf_dir: str, min_chars: int = 20, min_tokens: int = 5):
    """The end-to-end training-data curation chain as ONE streaming pass:
    documents → per-batch vectorized metrics (chars / tokens / CJK ratio /
    content hash) → quality gate (n_chars ≥ min_chars AND n_tokens ≥
    min_tokens) → exact dedup keep-first (min doc_id per content hash, dup
    count kept) — lang-id, quality scoring, filtering and dedup priced in a
    single shuffle instead of four separate jobs.  All output columns are
    integers/strings so the DuckDB mirror hashes exactly."""
    from ..stages.grouped import hash_partitioned_agg

    def _metrics(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["text"]
        toks = t.map(_tokens)
        n_chars = t.str.len().astype("int64")
        n_tokens = toks.map(len).astype("int64")
        n_cjk = t.map(lambda x: len(RE_CJK.findall(x))).astype("int64")
        ratio = np.where(n_chars > 0, n_cjk / np.maximum(n_chars, 1), 0.0)
        d = pd.DataFrame(
            {
                "content_hash": t.map(lambda x: hashlib.md5(x.encode("utf-8")).hexdigest()),
                "keep_doc_id": batch["doc_id"],
                "lang_pred": np.where(ratio > 0.3, "zh", "en"),
                "n_chars": n_chars,
                "n_tokens": n_tokens,
                "est_tokens": (n_chars // 2).astype("int64"),
                "n_dups": np.int64(1),
            }
        )
        return d[(d["n_chars"] >= min_chars) & (d["n_tokens"] >= min_tokens)].reset_index(
            drop=True
        )

    def _agg(df: pd.DataFrame) -> pd.DataFrame:
        # keep-first by min doc_id (identical text ⇒ identical metrics),
        # dup counts sum — associative, so partial/combine both use it
        df = df.sort_values(["content_hash", "keep_doc_id"], kind="mergesort")
        out = df.groupby("content_hash", sort=False, as_index=False).agg(
            keep_doc_id=("keep_doc_id", "first"),
            lang_pred=("lang_pred", "first"),
            n_chars=("n_chars", "first"),
            n_tokens=("n_tokens", "first"),
            est_tokens=("est_tokens", "first"),
            n_dups=("n_dups", "sum"),
        )
        for c in ("keep_doc_id", "n_chars", "n_tokens", "est_tokens", "n_dups"):
            out[c] = out[c].astype("int64")
        return out

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return hash_partitioned_agg(docs.map_batches(_metrics, batch_format="pandas"),
                                ["content_hash"], _agg)


def boilerplate_strip_core(ex, num_parts: int = 16):
    """Boilerplate line removal over a ``(url, text_out)`` Dataset of
    extracted pages — the classic Common-Crawl cleanup step: a line
    occurring on at least HALF of all pages (site chrome, section headers,
    footers) is boilerplate and is stripped from every page.  Output one
    row per page: ``(url, text_clean, n_kept, n_removed)``.

    100-TB design: two passes over ``ex``, ZERO page-level shuffle.  Pass
    1 explodes lines with a per-batch distinct, hash-routes (line →
    partition) and counts DISTINCT pages per line — the only all-to-all,
    and it moves one row per distinct (batch, line, page).  The flagged set
    is then broadcast via ``ray.put``: by construction a line with df ≥ N/2
    can exist at most (total line instances)/(N/2) ≈ 2 × avg-lines-per-page
    times, so the broadcast is bounded by page SIZE, not corpus size.  Pass
    2 re-reads ``ex`` and filters each page's lines vectorized (explode →
    ``isin`` → per-row rejoin) — no shuffle, order preserved.  Empty lines
    are never flagged (and survive reconstruction), matching the SQL mirror
    exactly."""
    from ..stages.grouped import hash_partitioned_agg

    n_pages = ex.count()

    def _line_pairs(batch: pd.DataFrame) -> pd.DataFrame:
        # each url's full text arrives in ONE row, so the per-batch
        # (line, url) dedup is a GLOBAL dedup — downstream df partials can
        # simply sum (associative block_agg contract)
        s = batch["text_out"].str.split("\n")
        df = pd.DataFrame({"url": batch["url"], "line": s}).explode("line")
        df = df[df["line"] != ""].drop_duplicates(["line", "url"])
        return pd.DataFrame({"line": df["line"].to_numpy(),
                             "df": np.ones(len(df), dtype="int64")})

    def _df_count(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("line", sort=False, as_index=False)["df"].sum()

    dfs = hash_partitioned_agg(
        ex.map_batches(_line_pairs, batch_format="pandas"),
        ["line"], _df_count, num_parts=num_parts,
    )
    flagged = dfs.map_batches(
        lambda d: pd.DataFrame(
            {"line": d.get("line", pd.Series([], dtype=object))}
        )[np.asarray(d.get("df", pd.Series([], dtype="int64"))) * 2 >= n_pages],
        batch_format="pandas",
    ).to_pandas()
    flag_ref = ray.put(frozenset(flagged["line"]) if len(flagged) else frozenset())

    def _strip(batch: pd.DataFrame) -> pd.DataFrame:
        flags = ray.get(flag_ref)
        s = batch["text_out"].str.split("\n")
        ex_f = pd.DataFrame({"line": s}).explode("line")
        keep = ~ex_f["line"].isin(flags)
        kept = ex_f[keep]
        joined = kept.groupby(level=0)["line"].agg("\n".join)
        n_kept = keep.groupby(level=0).sum().astype("int64")
        n_all = keep.groupby(level=0).size().astype("int64")
        idx = batch.index
        return pd.DataFrame(
            {
                "url": batch["url"],
                "text_clean": joined.reindex(idx).fillna(""),
                "n_kept": n_kept.reindex(idx).fillna(0).astype("int64"),
                "n_removed": (n_all - n_kept).reindex(idx).fillna(0).astype("int64"),
            }
        )

    return ex.map_batches(_strip, batch_format="pandas")


def shuffle_shard_ds(sf_dir: str, n_shards: int = 16, seed: str = "s0"):
    """Deterministic global shuffle + shard assignment for training-data
    export: every document gets ``(shard_id, pos)`` — shard by the first
    16 bits of ``md5(seed:doc_id)`` and position by the full hash order
    within the shard.  This is the pseudorandom permutation a training run
    needs (stable across re-runs and resumable), expressed without a global
    sort: ONE hash shuffle routes each doc to its shard's partition, and
    each shard orders only its own rows — at 10^12 docs no stage ever sees
    a global order, yet the concatenation of shards in (shard_id, pos)
    order IS a uniform seeded permutation."""
    from ..stages.grouped import exchange

    docs = read_table(sf_dir, "documents", columns=["doc_id"])

    def _key(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy(dtype="int64")
        dig = seeded_md5_digests(seed, ids)
        # first 4 hex chars == first 2 digest bytes big-endian; rank key =
        # raw digest bytes (order ≡ hexdigest order — see seeded_md5_sortkey)
        shard = (
            (dig[:, 0].astype("int64") << 8) | dig[:, 1].astype("int64")
        ) % n_shards if len(ids) else np.empty(0, dtype="int64")
        return pd.DataFrame(
            {
                "doc_id": ids,
                "k": dig.reshape(-1).view("S16") if len(ids) else
                     np.empty(0, dtype="S16"),
                "shard_id": shard,
            }
        )

    def _rank(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for sid, grp in g.groupby("shard_id", sort=False):
            o = grp.sort_values(["k", "doc_id"], kind="mergesort")
            out.append(
                pd.DataFrame(
                    {
                        "doc_id": o["doc_id"].to_numpy(),
                        "shard_id": np.int64(sid),
                        "pos": np.arange(len(o), dtype="int64"),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    return exchange(docs, lambda d: d["shard_id"], _rank, n_shards, map=_key)


def sample_weighted_ds(sf_dir: str, cap: int = 64, seed: str = "w1"):
    """Quality-weighted deterministic sampling — the DSIR-style corpus
    curation step: keep each document with probability proportional to a
    quality weight (here ``min(n_tokens, cap) / cap``), decided by a seeded
    per-doc hash instead of an RNG so the sample is stable across re-runs
    and resumable mid-corpus.

    Keep rule, integer-exact on both the engine and the DuckDB mirror:
    ``u32 * cap < min(n_tokens, cap) * 2^32`` with ``u32`` = first 8 hex
    digits of ``md5(seed:doc_id)`` — a uniform 32-bit draw.  No shuffle:
    one embarrassingly-parallel vectorized filter pass."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def _filter(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["text"].str.strip()
        n_tokens = np.where(
            t == "", 0, t.str.split(RE_WS).map(len)
        ).astype("int64")
        u32 = pd.Series(
            seeded_md5_u32(seed, batch["doc_id"].to_numpy(dtype="int64")),
            index=batch.index,
        )
        w_num = np.minimum(n_tokens, cap)
        keep = u32.to_numpy() * cap < w_num * (1 << 32)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64")[keep],
                "n_tokens": n_tokens[keep],
                "w_num": w_num[keep],
                "u32": u32[keep],
            }
        )

    return docs.map_batches(_filter, batch_format="pandas")


def source_cap_ds(sf_dir: str, cap: int = 15, seed: str = "s0"):
    """Per-source quota capping — the C4/Gopher-style per-domain cap that
    stops one crawl source from dominating the training mix: keep at most
    ``cap`` documents per source, chosen by a seeded md5 rank so the
    survivors are a uniform, rerun-stable sample of each source (no RNG,
    resumable mid-corpus).

    ONE source-hash shuffle co-locates each source's docs; each partition
    ranks all its sources in one mergesort + grouped cumcount (C kernels).
    The shuffle ships only (doc_id, source, 32-hex rank key) — never text —
    and each batch PRE-CAPS to its own ``cap`` lowest-ranked rows per
    source before shipping (md5-rank top-n is associative: only a batch's
    cap-lowest keys can survive the global rank), so even a corpus-sized
    source moves at most ``cap × batches`` rows through the exchange
    rather than its full row count (pre-cap ≡ no-pre-cap equality is
    pytest-pinned)."""
    from ..stages.grouped import exchange

    def _precap(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64"),
                "source": batch["source"],
                # raw digest bytes: rank-order ≡ the mirror's hexdigest rank
                "k": pd.Series(
                    seeded_md5_sortkey(seed, batch["doc_id"].to_numpy(dtype="int64")),
                    index=batch.index,
                ),
            }
        )
        out = out.sort_values(["source", "k", "doc_id"], kind="mergesort")
        return out[out.groupby("source", sort=False).cumcount() < cap]

    def _rank(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["source", "k", "doc_id"], kind="mergesort")
        rank = g.groupby("source", sort=False).cumcount().to_numpy() + 1
        keep = rank <= cap
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy()[keep],
                "source": g["source"].to_numpy()[keep],
                "rank": rank[keep].astype("int64"),
            }
        )

    docs = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    return exchange(docs, ["source"], _rank, 8, map=_precap)


def quality_filter_ds(sf_dir: str, lo_q: float = 0.05, hi_q: float = 0.95):
    """Distribution-cut quality filter (the Gopher-style outlier trim):
    keep documents whose token count lies inside the corpus's own
    [p05, p95] percentile band — too-short and too-long tails dropped.

    Thresholds come from an EXACT distributed histogram: per-batch
    value_counts partials, one shuffle whose volume is |distinct token
    counts| (independent of corpus rows), and a driver-side percentile
    walk over the merged histogram (same 1-indexed ``max(1, ceil(q·N))``
    rule as events_quantiles ≡ DuckDB ``percentile_disc``).  The two
    scalar cutoffs are closed over by a final shuffle-free filter pass.
    The narrow per-doc counts Dataset (2 int cols + lang) is pinned once
    so tokenization runs a single time for both the histogram and the
    filter (the tfidf materialize-once rule); at 100 TB that pin is
    ~24 B/doc and object-store-spillable, vs re-tokenizing the corpus."""
    import math

    from ..stages.grouped import hash_partitioned_agg

    def _counts(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64"),
                "lang": batch["lang"],
                "n_tokens": batch["text"].map(lambda t: len(_tokens(t))).astype("int64"),
            }
        )

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    counts = docs.map_batches(_counts, batch_format="pandas").materialize()

    def _hist(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch.groupby("n_tokens", sort=False).size().rename("n").reset_index()
        vc["n"] = vc["n"].astype("int64")
        return vc

    def _sum(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("n_tokens", sort=False, as_index=False)["n"].sum()

    hist = hash_partitioned_agg(
        counts.map_batches(_hist, batch_format="pandas"), ["n_tokens"], _sum,
        num_parts=4,
    ).to_pandas()  # |distinct token counts| rows — bounded, not corpus-sized
    h = hist.sort_values("n_tokens", kind="mergesort")
    vals = h["n_tokens"].to_numpy()
    cum = h["n"].to_numpy().cumsum()
    total = int(cum[-1])

    def _disc(q: float) -> int:
        pos = max(1, math.ceil(q * total))
        return int(vals[int(np.searchsorted(cum, pos, side="left"))])

    lo, hi = _disc(lo_q), _disc(hi_q)

    def _keep(batch: pd.DataFrame) -> pd.DataFrame:
        m = (batch["n_tokens"] >= lo) & (batch["n_tokens"] <= hi)
        return batch.loc[m, ["doc_id", "lang", "n_tokens"]]

    return counts.map_batches(_keep, batch_format="pandas")


def lm_perplexity_ds(sf_dir: str, num_parts: int = 8):
    """CCNet-style language-model quality scoring: train an add-one-smoothed
    bigram LM on the corpus itself (one distributed counting pass), then
    score every document by its average bigram log-probability —
    ``ln((c2(w1,w2) + 1) / (c1(w1) + V))`` averaged over the doc's bigrams,
    emitted as int64 micros (float ulp noise from differing summation
    orders vanishes at micro rounding, the kg_pagerank convention).

    100-TB design: the BIGRAM table is corpus-scale, so c2 attaches via a
    ``reduce_side_join`` exchange (gram-hash routed, salted) —
    no broadcast there, ever.  The UNIGRAM table is vocab-scale (Heaps'
    law: sublinear in corpus size), so its attach is a sized dispatch
    (the kcore/nsim rule): when ``grouped.plan_arm`` sizes ``cnt1``
    ``local`` the unigram map is ``ray.put`` once and c1 attaches
    shuffle-free inside the scoring pass — eliminating one full
    token-scale exchange; otherwise the reduce-side lookup runs.  Both paths
    equality-pinned in tests/test_window_caps_filter.py.  Self-trained, so
    every doc bigram is present in the count tables (lookups never miss);
    smoothing keeps the formula standard."""
    from ..stages.grouped import hash_partitioned_agg, reduce_side_join

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def _uni_partial(batch: pd.DataFrame) -> pd.DataFrame:
        terms = grams(batch["doc_id"], tokens(batch["text"]), 1)["gram"]
        out = terms.value_counts().rename_axis("term").rename("c1").reset_index()
        out["c1"] = out["c1"].astype("int64")
        return out

    def _uni_sum(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("term", sort=False, as_index=False)["c1"].sum()

    def _bigram_rows(batch: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as pa
        import pyarrow.compute as pc

        big = grams(batch["doc_id"], tokens(batch["text"]), 2)
        # w1 = the bigram up to its one space; Arrow's split runs ~8x
        # faster than pandas' str.partition here
        arr = pa.array(big["gram"].to_numpy(), type=pa.string())
        w1 = pc.list_element(pc.split_pattern(arr, " ", max_splits=1), 0)
        return pd.DataFrame({"doc_id": big["doc_id"].to_numpy(),
                             "w1": w1.to_numpy(zero_copy_only=False),
                             "bigram": big["gram"].to_numpy()})

    def _big_partial(batch: pd.DataFrame) -> pd.DataFrame:
        big = grams(batch["doc_id"], tokens(batch["text"]), 2)["gram"]
        out = big.value_counts().rename_axis("bigram").rename("c2").reset_index()
        out["c2"] = out["c2"].astype("int64")
        return out

    def _big_sum(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("bigram", sort=False, as_index=False)["c2"].sum()

    cnt1 = hash_partitioned_agg(
        docs.map_batches(_uni_partial, batch_format="pandas"),
        ["term"], _uni_sum, num_parts=num_parts).materialize()
    cnt2 = hash_partitioned_agg(
        docs.map_batches(_big_partial, batch_format="pandas"),
        ["bigram"], _big_sum, num_parts=num_parts)
    vocab = cnt1.count()

    bigrams = docs.map_batches(_bigram_rows, batch_format="pandas")
    # salt_from=doc_id: a corpus-frequent gram would otherwise route every
    # occurrence row to one reducer (the Zipf guard built into the lookup)
    with_c2 = reduce_side_join(
        bigrams, ["doc_id", "w1", "bigram"], "bigram", cnt2, "bigram", ["c2"],
        num_parts=num_parts, salt_from="doc_id",
    )
    cpd = collect_if_local(cnt1)
    if cpd is not None:
        # attach c1 from a broadcast vocab map inside the scoring pass —
        # no token-scale exchange for the unigram lookup
        c1_ref = ray.put(pd.Series(
            cpd.get("c1", pd.Series(dtype="int64")).to_numpy("int64"),
            index=cpd.get("term", pd.Series(dtype=object))))
        with_c1 = None
    else:
        c1_ref = None
        with_c1 = reduce_side_join(
            with_c2, ["doc_id", "bigram", "c2"], "w1",
            cnt1.map_batches(
                lambda d: pd.DataFrame({"w1": d.get("term", []), "c1": d.get("c1", [])}),
                batch_format="pandas",
            ), "w1", ["c1"], num_parts=num_parts, salt_from="doc_id",
        )

    def _logp(d: pd.DataFrame) -> pd.DataFrame:
        if "doc_id" not in d.columns or not len(d):
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "n_bigrams": pd.Series([], dtype="int64"),
                                 "lp_sum": pd.Series([], dtype="float64")})
        if c1_ref is not None:
            c1 = d["w1"].map(ray.get(c1_ref)).astype("float64")
        else:
            c1 = d["c1"].astype("float64")
        lp = np.log(
            (d["c2"].astype("float64") + 1.0)
            / (c1 + float(vocab))
        )
        return pd.DataFrame({"doc_id": d["doc_id"].astype("int64"),
                             "n_bigrams": np.int64(1), "lp_sum": lp})

    def _doc_sum(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("doc_id", sort=False, as_index=False).agg(
            n_bigrams=("n_bigrams", "sum"), lp_sum=("lp_sum", "sum")
        ).astype({"n_bigrams": "int64"})

    scored_src = with_c2 if with_c1 is None else with_c1
    per_doc = hash_partitioned_agg(
        scored_src.map_batches(_logp, batch_format="pandas"),
        ["doc_id"], _doc_sum, num_parts=num_parts,
    )

    def _final(d: pd.DataFrame) -> pd.DataFrame:
        if "doc_id" not in d.columns:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "n_bigrams": pd.Series([], dtype="int64"),
                                 "avg_logprob_micros": pd.Series([], dtype="int64")})
        avg = d["lp_sum"].to_numpy() / d["n_bigrams"].to_numpy()
        return pd.DataFrame(
            {"doc_id": d["doc_id"].astype("int64"),
             "n_bigrams": d["n_bigrams"].astype("int64"),
             "avg_logprob_micros": np.rint(avg * 1e6).astype("int64")}
        )

    return per_doc.map_batches(_final, batch_format="pandas")


def dup_passage_ds(sf_dir: str, n: int = 4, num_parts: int = 8):
    """Corpus-internal duplicate-passage signal (the "deduplicating training
    data" n-gram statistic): for every document, what fraction of its token
    ``n``-grams also occurs in at least one OTHER document.  Output
    ``(doc_id, n_grams, n_dup, dup_frac_micros)``; docs with fewer than
    ``n`` tokens have no grams and are absent.

    Unlike ``decontaminate_ds`` (corpus vs a benchmark-sized eval split →
    broadcast probe), this is corpus × corpus: no side fits a worker, so
    the gram document-frequency table is built by one gram-hash aggregate
    (per-batch distinct (doc, gram) pairs are globally distinct — a doc
    lives in one batch — so partials just sum) and attached back to every
    gram occurrence via a salted reduce-side lookup; one doc-hash aggregate
    closes.  Three shuffles, each one row per gram occurrence or distinct
    pair."""
    from ..stages.grouped import hash_partitioned_agg, reduce_side_join

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def _gram_occ(batch: pd.DataFrame) -> pd.DataFrame:
        return grams(batch["doc_id"], tokens(batch["text"]), n)

    def _df_partial(batch: pd.DataFrame) -> pd.DataFrame:
        occ = _gram_occ(batch).drop_duplicates(["doc_id", "gram"])
        return pd.DataFrame({"gram": occ["gram"].values,
                             "df": np.ones(len(occ), dtype="int64")})

    def _df_sum(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("gram", sort=False, as_index=False)["df"].sum()

    dfs = hash_partitioned_agg(
        docs.map_batches(_df_partial, batch_format="pandas"),
        ["gram"], _df_sum, num_parts=num_parts,
    )

    occ = docs.map_batches(_gram_occ, batch_format="pandas")
    def _dup_only(d: pd.DataFrame) -> pd.DataFrame:
        g = d.get("gram", pd.Series([], dtype=object))
        f = np.asarray(d.get("df", pd.Series([], dtype="int64")), dtype="int64")
        keep = f >= 2
        return pd.DataFrame({"gram": np.asarray(g, dtype=object)[keep],
                             "df": f[keep]})

    # only grams seen in ≥2 docs matter downstream — filter the lut BEFORE
    # the exchange: the lut side replicates salt_buckets× inside the salted
    # lookup, and most n-grams in natural text are unique, so this cuts the
    # lut's exchange volume several-fold.  A missed (left-join) probe row
    # IS the not-dup verdict.
    with_df = reduce_side_join(
        occ, ["doc_id", "gram"], "gram",
        dfs.map_batches(_dup_only, batch_format="pandas"), "gram", ["df"],
        how="left", num_parts=num_parts, salt_from="doc_id",
    )

    def _doc_partial(d: pd.DataFrame) -> pd.DataFrame:
        if "doc_id" not in d.columns or not len(d):
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "n_grams": pd.Series([], dtype="int64"),
                                 "n_dup": pd.Series([], dtype="int64")})
        dup = d["df"].notna().astype("int64")  # lut holds ONLY df≥2 grams
        g = pd.DataFrame({"doc_id": d["doc_id"].astype("int64"),
                          "n_grams": np.int64(1), "n_dup": dup.values})
        return g.groupby("doc_id", sort=False, as_index=False).sum().astype(
            {"n_grams": "int64", "n_dup": "int64"})

    def _doc_sum(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("doc_id", sort=False, as_index=False)[
            ["n_grams", "n_dup"]
        ].sum().astype({"n_grams": "int64", "n_dup": "int64"})

    per_doc = hash_partitioned_agg(
        with_df.map_batches(_doc_partial, batch_format="pandas"),
        ["doc_id"], _doc_sum, num_parts=num_parts,
    )

    def _final(d: pd.DataFrame) -> pd.DataFrame:
        if "doc_id" not in d.columns:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "n_grams": pd.Series([], dtype="int64"),
                                 "n_dup": pd.Series([], dtype="int64"),
                                 "dup_frac_micros": pd.Series([], dtype="int64")})
        return d.assign(
            dup_frac_micros=(d["n_dup"] * 1_000_000 // d["n_grams"]).astype("int64")
        )

    return per_doc.map_batches(_final, batch_format="pandas")


PROFILE_INT_COLS = ("doc_id", "n_chars")
PROFILE_STR_COLS = ("lang", "source")


def profile_documents_ds(sf_dir: str):
    """Column-profile audit of the documents table — the pre-training data
    QA pass (row/null/distinct counts, typed min/max per column) you run
    before pointing a training job at a corpus.

    ONE shuffle, volume ∝ Σ|distinct values per column| (never corpus
    rows): each batch emits pre-counted (column, value, n) partial rows —
    duplicates collapse inside the batch — plus null-counter rows under a
    reserved key; the partitioned combine re-sums; the final per-column
    fold is |columns| rows of work.  Typed min/max: numeric columns
    compare numerically (value stored as micros-free int string but
    compared via int cast), string columns lexicographically — matching
    the mirror's native-type min/max exactly."""
    from ..stages.grouped import exchange, hash_partitioned_agg

    NULL_KEY = "\x00null"

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for col in PROFILE_INT_COLS + PROFILE_STR_COLS:
            s = batch[col]
            nulls = int(s.isna().sum())
            vc = s.dropna().astype("int64" if col in PROFILE_INT_COLS else str) \
                  .value_counts(sort=False)
            f = pd.DataFrame(
                {"column": col, "value": vc.index.astype(str), "n": vc.to_numpy().astype("int64")}
            )
            if nulls:
                f = pd.concat(
                    [f, pd.DataFrame({"column": [col], "value": [NULL_KEY],
                                      "n": np.int64(nulls)})],
                    ignore_index=True,
                )
            frames.append(f)
        return pd.concat(frames, ignore_index=True)

    def _sum(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["column", "value"], sort=False, as_index=False)["n"].sum()

    docs = read_table(sf_dir, "documents",
                      columns=list(PROFILE_INT_COLS + PROFILE_STR_COLS))
    counts = hash_partitioned_agg(
        docs.map_batches(_partial, batch_format="pandas"),
        ["column", "value"], _sum, num_parts=8,
    )

    def _fold(df: pd.DataFrame) -> pd.DataFrame:
        # one profile row per column routed here
        rows = []
        for col, g in df.groupby("column", sort=False):
            nulls = g[g["value"] == NULL_KEY]
            vals = g[g["value"] != NULL_KEY]
            n_nulls = int(nulls["n"].sum())
            n_rows = int(vals["n"].sum()) + n_nulls
            if col in PROFILE_INT_COLS:
                iv = vals["value"].astype("int64")
                mn_i, mx_i = (int(iv.min()), int(iv.max())) if len(iv) else (-1, -1)
                mn_s = mx_s = ""
            else:
                sv = vals["value"]
                mn_i = mx_i = -1
                mn_s, mx_s = (str(sv.min()), str(sv.max())) if len(sv) else ("", "")
            rows.append((col, n_rows, n_nulls, int(len(vals)), mn_i, mx_i, mn_s, mx_s))
        out = pd.DataFrame(
            rows, columns=["column", "n_rows", "n_nulls", "n_distinct",
                           "min_int", "max_int", "min_str", "max_str"]
        )
        for c in ("n_rows", "n_nulls", "n_distinct", "min_int", "max_int"):
            out[c] = out[c].astype("int64")
        return out

    return exchange(counts, ["column"], _fold, 4)


def mix_corpora_ds(sf_dir: str, seed: str = "m0"):
    """Deterministic weighted corpus mixing — the LLM-training data-mix
    step (interleave sources into one stream at target proportions, e.g.
    upweighting curated sources): every doc gets an integer ``stride_key``
    such that reading the corpus in ``stride_key`` order yields each
    source at ~its weight share, with each source's own docs in seeded
    md5-shuffled order.

    Weight rule (shared verbatim with the mirror): sources named
    ``src<N>`` get weight ``N % 3 + 1``.  Stride scheduling: the k-th doc
    of a weight-w source lands at key ``(2k-1)·SCALE // (2w)`` — the
    classic deterministic interleave, all integer math.

    100-TB shape: ONE source-hash shuffle (rank within source = the
    source_cap mergesort+cumcount kernel); NO global sort anywhere — the
    key is locally computable and any consumer (e.g. the shuffle_shard
    writer) range-partitions on it."""
    from ..stages.grouped import exchange

    SCALE = 1_000_000

    def _keyed(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64"),
                "source": batch["source"],
                # raw digest bytes: rank-order ≡ the mirror's hexdigest rank
                "k": pd.Series(
                    seeded_md5_sortkey(seed, batch["doc_id"].to_numpy(dtype="int64")),
                    index=batch.index,
                ),
            }
        )

    def _stride(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["source", "k", "doc_id"], kind="mergesort")
        pos = (g.groupby("source", sort=False).cumcount() + 1).astype("int64").to_numpy()
        srcnum = g["source"].str.extract(r"(\d+)$", expand=False).fillna("0").astype("int64")
        weight = (srcnum.to_numpy() % 3 + 1).astype("int64")
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "source": g["source"].to_numpy(),
                "pos_in_source": pos,
                "weight": weight,
                "stride_key": (2 * pos - 1) * SCALE // (2 * weight),
            }
        )

    docs = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    return exchange(docs, ["source"], _stride, 8, map=_keyed)


def heavy_hitters_ds(sf_dir: str, denom: int = 1000, mg_k: int = 4000,
                     num_parts: int = 8):
    """Exact corpus heavy hitters — terms occurring more than
    ``total_tokens // denom`` times — with a MERGEABLE MISRA-GRIES sketch
    as the candidate pruner (Misra & Gries 1982; mergeable-summaries form,
    Agarwal et al. 2012): output ``(term, cnt)`` with EXACT counts.

    Why a sketch at all: the exact groupby ships one row per distinct term
    per batch; the MG summary caps that at ``mg_k`` rows per batch
    regardless of batch vocabulary — the shuffle volume becomes
    ``mg_k × batches``, independent of corpus vocabulary.  MG undercounts
    by at most ``batch_tokens/(mg_k+1)`` per batch (the classic decrement
    bound), so summing summaries undercounts any term by at most
    ``N/(mg_k+1)`` total: every term with true count > N//denom survives
    when ``mg_k + 1 > denom`` (here 4000 ≥ 2×1000 — safety margin), making
    the MG pass a guaranteed-superset CANDIDATE filter.  A second,
    candidate-filtered exact counting pass (the candidate set is ≤
    sketch-capacity-scale — broadcast once) restores exact counts, so the
    DuckDB mirror (plain GROUP BY … HAVING count > total//denom) matches
    hash-for-hash.  Superset property and exactness are pytest-pinned
    against brute force on skewed fixtures."""
    from ..stages.grouped import hash_partitioned_agg

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    TOTAL_KEY = "\x00total\x00"  # impossible token (tokens never contain \x00)

    def _mg_partial(batch: pd.DataFrame) -> pd.DataFrame:
        ex = grams(batch["doc_id"], tokens(batch["text"]), 1)["gram"]
        n = len(ex)
        vc = ex.value_counts()
        if len(vc) > mg_k:
            d = int(vc.iloc[mg_k])  # the (k+1)-th largest count
            vc = (vc.iloc[:mg_k] - d)
            vc = vc[vc > 0]
        out = pd.DataFrame({"term": vc.index.astype(object),
                            "mg": vc.to_numpy(dtype="int64")})
        # one reserved row per batch carries the batch token total, so the
        # combine can compute N without a second corpus pass
        return pd.concat(
            [out, pd.DataFrame({"term": [TOTAL_KEY], "mg": np.int64(n)})],
            ignore_index=True,
        )

    def _mg_sum(d: pd.DataFrame) -> pd.DataFrame:
        out = d.groupby("term", sort=False, as_index=False)["mg"].sum()
        # prune the merged table back to mg_k counters (mergeable-summaries
        # merge: subtract the (mg_k+1)-th value — every prune removes
        # ≥ (mg_k+1)·d mass, so the CUMULATIVE per-term undercount across
        # all partial/combine prunes stays ≤ N/(mg_k+1), the same bound the
        # candidate floor already assumes).  Without this, summation alone
        # lets the combine output grow to mg_k × batches distinct terms —
        # vocabulary-scale on a big corpus, not sketch-scale.  The reserved
        # TOTAL_KEY row is exempt (it carries N, not a counter).
        is_tot = out["term"] == TOTAL_KEY
        rest = out[~is_tot]
        if len(rest) > mg_k:
            v = np.sort(rest["mg"].to_numpy(dtype="int64"))[::-1]
            dsub = int(v[mg_k])
            rest = rest.assign(mg=rest["mg"] - dsub)
            rest = rest[rest["mg"] > 0]
            out = pd.concat([rest, out[is_tot]], ignore_index=True)
        out["mg"] = out["mg"].astype("int64")
        return out

    mg = hash_partitioned_agg(
        docs.map_batches(_mg_partial, batch_format="pandas"),
        ["term"], _mg_sum, num_parts=num_parts,
    ).to_pandas()  # ≤ mg_k rows per partition — sketch-scale by construction
    if not len(mg):
        import pyarrow as pa
        import ray.data as rd

        # empty pandas blocks lose their schema in Ray — pin it via Arrow
        return rd.from_arrow(pa.table({"term": pa.array([], pa.string()),
                                       "cnt": pa.array([], pa.int64())}))
    total = int(mg.loc[mg["term"] == TOTAL_KEY, "mg"].sum())
    thresh = total // denom
    # superset filter: true > thresh ⟹ mg ≥ true − N/(mg_k+1) > thresh − N/(mg_k+1)
    floor_bound = thresh - total // (mg_k + 1) - 1
    cand = mg[(mg["term"] != TOTAL_KEY) & (mg["mg"] > floor_bound)]
    cand_ref = ray.put(frozenset(cand["term"]))

    def _exact_partial(batch: pd.DataFrame) -> pd.DataFrame:
        cands = ray.get(cand_ref)
        ex = grams(batch["doc_id"], tokens(batch["text"]), 1)["gram"]
        ex = ex[ex.isin(cands)]
        vc = ex.value_counts()
        return pd.DataFrame({"term": vc.index.astype(object),
                             "cnt": vc.to_numpy(dtype="int64")})

    def _cnt_sum(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("term", sort=False, as_index=False)["cnt"].sum()

    exact = hash_partitioned_agg(
        docs.map_batches(_exact_partial, batch_format="pandas"),
        ["term"], _cnt_sum, num_parts=num_parts,
    )

    def _final(d: pd.DataFrame) -> pd.DataFrame:
        if "term" not in d.columns or not len(d):
            return pd.DataFrame({"term": pd.Series([], dtype=object),
                                 "cnt": pd.Series([], dtype="int64")})
        keep = d["cnt"].astype("int64") > thresh
        return pd.DataFrame({"term": d["term"][keep],
                             "cnt": d["cnt"][keep].astype("int64")})

    return exact.map_batches(_final, batch_format="pandas")


def sample_uniform_ds(sf_dir: str, k: int = 100, seed: str = "u0"):
    """Mergeable uniform k-sample — the bottom-k sketch: keep the k rows
    with the SMALLEST seeded md5 draw.  Per-batch partial bottom-k is
    associative (only a batch's k smallest keys can survive globally), so
    the corpus never shuffles at all: one embarrassingly-parallel partial
    pass, then ONE tiny combine over ≤ k×batches rows.  Deterministic and
    rerun-stable like the other seeded draws (vectorized single-block MD5,
    digest-byte order ≡ the mirror's hexdigest order); output
    ``(doc_id, rank)`` with rank 1..k in draw order."""
    from ..functions.hashing import seeded_md5_sortkey

    docs = read_table(sf_dir, "documents", columns=["doc_id"])

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy(dtype="int64")
        key = seeded_md5_sortkey(seed, ids)
        out = pd.DataFrame({"doc_id": ids, "k": key})
        # k is a bytes column — nsmallest is numeric-only; stable sort+head
        return out.sort_values(["k", "doc_id"], kind="mergesort").head(k)

    def _combine(batch: pd.DataFrame) -> pd.DataFrame:
        if "doc_id" not in batch.columns or not len(batch):
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "rank": pd.Series([], dtype="int64")})
        top = batch.sort_values(["k", "doc_id"], kind="mergesort").head(k)
        return pd.DataFrame({"doc_id": top["doc_id"].to_numpy(dtype="int64"),
                             "rank": np.arange(1, len(top) + 1, dtype="int64")})

    return (
        docs.map_batches(_partial, batch_format="pandas")
        .repartition(1)  # ≤ k×batches tiny rows
        .map_batches(_combine, batch_format="pandas", batch_size=None)
    )
