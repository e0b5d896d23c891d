"""Corpus-scale training-text operators beyond the n-gram statistics in
textops.py: exact-substring span deduplication and BPE tokenizer training.

Both are classic public algorithms re-expressed Ray-Data-first:

* ``substring_spans_ds`` — the positional k-gram flavor of exact substring
  deduplication (Lee et al. 2021, "Deduplicating Training Data Makes
  Language Models Better", arXiv:2107.06499): find every maximal token
  span covered by k-grams that occur ≥2 times ANYWHERE in the corpus
  (including within one document), per-doc span stats.  The suffix-array
  construction of the paper is replaced by the shuffle-native equivalent:
  one gram-key exchange co-locates all occurrences of a gram, so the
  duplicate verdict is partition-local; a doc-key exchange merges the
  flagged positions into maximal spans (gaps-and-islands, vectorized).

* ``bpe_merges_ds`` — byte-pair-encoding merge-table training (Sennrich et
  al. 2016, arXiv:1508.07909): ONE corpus-scale shuffle reduces the corpus
  to the word-type table (word, count); the iterative merge loop then
  runs entirely on that table — per-round pair counting is a partial
  aggregate over type partitions, the winning pair is vocabulary-scale
  (driver-side argmax), and the merge application is an embarrassingly
  parallel map.  The corpus itself is never re-scanned after round 0.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..sources import read_table
from .textops import grams, tokens

# ---------------------------------------------------------------------------
# Exact-substring span dedup (positional k-gram)
# ---------------------------------------------------------------------------


def _dup_positions_ds(docs, k: int, num_parts: int):
    """documents → (doc_id, pos) for every token position whose k-gram
    occurs ≥2 times in the corpus: per-batch gram emission
    (``textops.grams``), ONE gram-key exchange, partition-local ≥2
    verdict.  Shared by substring_spans_ds (span stats) and
    substring_clean_ds (span removal)."""
    from ..stages.grouped import exchange

    def _dup_positions(group: pd.DataFrame) -> pd.DataFrame:
        cnt = group.groupby("gram", sort=False)["gram"].transform("size")
        d = group[cnt >= 2]
        return pd.DataFrame({"doc_id": d["doc_id"].to_numpy(dtype="int64"),
                             "pos": d["pos"].to_numpy(dtype="int64")})

    def _grams(batch: pd.DataFrame) -> pd.DataFrame:
        g = grams(batch["doc_id"], tokens(batch["text"]), k)
        # a doc's k-grams start at tokens 0, 1, 2, … in order
        return g.assign(pos=g.groupby("doc_id", sort=False).cumcount().astype("int64"))

    return exchange(docs, ["gram"], _dup_positions, num_parts, map=_grams)


def substring_spans_ds(sf_dir: str, k: int = 8, num_parts: int = 8):
    """documents → one row per doc: (doc_id, n_tokens, dup_tokens, n_spans,
    dup_frac_micros) where ``dup_tokens`` is the size of the union of all
    token intervals [pos, pos+k) whose k-gram occurs ≥2 times in the corpus
    (within- OR cross-document — true substring-dedup semantics, unlike
    dup_passage's cross-doc document frequency), ``n_spans`` the number of
    maximal merged spans, and ``dup_frac_micros = dup_tokens·10⁶ //
    n_tokens`` (0 for empty docs).

    Shape: (1) per-batch gram emission — one (gram, doc_id, pos) row per
    token position, vectorized by ``textops.grams``; (2) ONE gram-key
    exchange: all occurrences of a gram land in one partition, so the ≥2
    verdict is local (no second lookup — contrast dup_passage's
    df-attach); (3) ONE doc-key exchange of only the FLAGGED positions +
    tiny (doc_id, n_tokens) marker rows, then the classic gaps-and-islands
    merge (grouped cummax, no per-doc Python).  Mirrored in SQL with the
    identical window rule; exchange (2) ships the gram strings themselves,
    so the verdict is string-exact like the mirror's.
    """
    from ..stages.grouped import exchange

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    dup_pos = _dup_positions_ds(docs, k, num_parts)

    def _markers(batch: pd.DataFrame) -> pd.DataFrame:
        toks = tokens(batch["text"])
        return pd.DataFrame({
            "doc_id": batch["doc_id"].astype("int64"),
            "pos": np.int64(-1),  # marker rows carry n_tokens, not positions
            "n_tokens": toks.map(len).where(
                batch["text"].str.strip() != "", 0).astype("int64"),
        })

    def _spans(group: pd.DataFrame) -> pd.DataFrame:
        cols = {"doc_id": "int64", "n_tokens": "int64", "dup_tokens": "int64",
                "n_spans": "int64", "dup_frac_micros": "int64"}
        marks = group[group["pos"] < 0]
        toks = dict(zip(marks["doc_id"], marks["n_tokens"]))
        d = group[group["pos"] >= 0].sort_values(["doc_id", "pos"],
                                                 kind="mergesort")
        if len(d):
            pos = d["pos"].to_numpy()
            # gaps-and-islands: new island iff pos > cummax(prev pos) + k
            prev_max = d.groupby("doc_id", sort=False)["pos"].cummax().shift(1)
            first = ~d["doc_id"].duplicated()
            brk = (first | (pos > prev_max.to_numpy() + k)).to_numpy()
            island = np.cumsum(brk)
            sp = pd.DataFrame({"doc_id": d["doc_id"].to_numpy(),
                               "island": island, "pos": pos})
            g = sp.groupby(["doc_id", "island"], sort=False)["pos"]
            spans = g.agg(["min", "max"]).reset_index()
            spans["len"] = spans["max"] - spans["min"] + k
            agg = spans.groupby("doc_id", sort=False).agg(
                dup_tokens=("len", "sum"), n_spans=("len", "size")
            ).reset_index()
        else:
            agg = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                "dup_tokens": pd.Series([], dtype="int64"),
                                "n_spans": pd.Series([], dtype="int64")})
        out = pd.DataFrame({"doc_id": list(toks.keys()),
                            "n_tokens": list(toks.values())})
        out = out.merge(agg, on="doc_id", how="left").fillna(0)
        nt = out["n_tokens"].to_numpy(dtype="int64")
        dt = out["dup_tokens"].to_numpy(dtype="int64")
        out["dup_frac_micros"] = np.where(nt > 0, dt * 1_000_000 // np.maximum(nt, 1), 0)
        for c, t in cols.items():
            out[c] = out[c].astype(t)
        return out[list(cols.keys())]

    def _with_n_tokens(d: pd.DataFrame) -> pd.DataFrame:
        # dup-position rows carry no n_tokens
        return d if "n_tokens" in d.columns else d.assign(n_tokens=np.int64(-1))

    markers = docs.map_batches(_markers, batch_format="pandas")
    return exchange(dup_pos.union(markers), ["doc_id"], _spans, num_parts,
                    map=_with_n_tokens)


def substring_clean_ds(sf_dir: str, k: int = 8, num_parts: int = 8):
    """The removal transform of exact-substring dedup: documents →
    (doc_id, text_clean, n_tokens, n_removed) where ``text_clean`` is the
    single-space join of the lowercased tokens NOT covered by any
    duplicated k-gram interval (the aggressive drop-ALL-copies policy —
    keep-one-copy needs a global owner election per duplicate cluster,
    a coordination cost this variant deliberately avoids; spans are the
    same intervals substring_spans_ds reports).

    Shape: the shared gram-key exchange from ``_dup_positions_ds``, then
    ONE doc-key exchange carrying each doc's text once (like
    boilerplate_strip ships lines) unioned with its flagged positions; the
    coverage mask per doc is a vectorized interval-diff cumsum.  Output
    text is whitespace-normalized lowercase by construction (the mirror's
    ``string_agg(tok, ' ')`` over the same tokenization).
    """
    from ..stages.grouped import exchange

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    dup_pos = _dup_positions_ds(docs, k, num_parts)

    def _text_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": batch["doc_id"].astype("int64"),
            "pos": np.int64(-1),
            "text": batch["text"].astype(str),
        })

    def _clean(group: pd.DataFrame) -> pd.DataFrame:
        cols = {"doc_id": "int64", "text_clean": object, "n_tokens": "int64",
                "n_removed": "int64"}
        texts = group[group["pos"] < 0]
        dups = group[group["pos"] >= 0]
        pos_by_doc: dict[int, np.ndarray] = {
            int(d): g["pos"].to_numpy()
            for d, g in dups.groupby("doc_id", sort=False)
        } if len(dups) else {}
        out = {c: [] for c in cols}
        for doc_id, toks in zip(texts["doc_id"], tokens(texts["text"])):
            toks = [tok for tok in toks if tok]
            n = len(toks)
            ps = pos_by_doc.get(int(doc_id))
            if ps is None or not n:
                kept, removed = toks, 0
            else:
                # interval union via diff-array cumsum: [p, p+k) covered
                diff = np.zeros(n + 1, dtype=np.int64)
                np.add.at(diff, ps, 1)
                np.add.at(diff, np.minimum(ps + k, n), -1)
                covered = np.cumsum(diff[:n]) > 0
                removed = int(covered.sum())
                kept = [tok for tok, c in zip(toks, covered) if not c]
            out["doc_id"].append(int(doc_id))
            out["text_clean"].append(" ".join(kept))
            out["n_tokens"].append(n)
            out["n_removed"].append(removed)
        df = pd.DataFrame(out)
        for c, t in cols.items():
            df[c] = df[c].astype(t)
        return df

    def _with_text(d: pd.DataFrame) -> pd.DataFrame:
        # dup-position rows carry no text
        return d if "text" in d.columns else d.assign(text="")

    texts = docs.map_batches(_text_rows, batch_format="pandas")
    return exchange(dup_pos.union(texts), ["doc_id"], _clean, num_parts, map=_with_text)


# ---------------------------------------------------------------------------
# BPE tokenizer training
# ---------------------------------------------------------------------------

END_MARK = "</w>"


def _word_counts_ds(sf_dir: str, num_parts: int):
    from ..stages.grouped import hash_partitioned_agg

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = grams(batch["doc_id"], tokens(batch["text"]), 1)["gram"].value_counts()
        return pd.DataFrame({"word": vc.index, "n": vc.to_numpy(dtype="int64")})

    def _sum(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("word", sort=False, as_index=False)["n"].sum()

    return hash_partitioned_agg(
        docs.map_batches(_partial, batch_format="pandas"),
        ["word"], _sum, num_parts=num_parts,
    )


def _pair_counts(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-batch partial pair counts over (syms, n) word-type rows."""
    acc: dict[tuple[str, str], int] = {}
    if "syms" in batch.columns:
        for syms, n in zip(batch["syms"], batch["n"]):
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                acc[p] = acc.get(p, 0) + int(n)
    if not acc:
        return pd.DataFrame({"left": pd.Series([], dtype=object),
                             "right": pd.Series([], dtype=object),
                             "cnt": pd.Series([], dtype="int64")})
    items = list(acc.items())
    return pd.DataFrame({"left": [p[0] for p, _ in items],
                         "right": [p[1] for p, _ in items],
                         "cnt": np.array([c for _, c in items], dtype="int64")})


def _merge_syms(syms: list[str], left: str, right: str, merged: str) -> list[str]:
    """Left-to-right non-overlapping merge of (left, right) → merged."""
    out: list[str] = []
    i = 0
    n = len(syms)
    while i < n:
        if i + 1 < n and syms[i] == left and syms[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def bpe_merges_ds(sf_dir: str, n_merges: int = 30, num_parts: int = 8,
                  merge_batch: int = 1):
    """documents → BPE merge table: (rank, left, right, merged, cnt) — the
    first ``n_merges`` merges of word-level BPE (chars + ``</w>`` end
    marker, most-frequent adjacent pair first, lexicographic (left, right)
    tie-break, stop when no pair occurs ≥2 times).

    ``merge_batch=1`` is classic Sennrich alg. 1 (one merge per
    distributed round).  ``merge_batch=K>1`` is the batched-round variant
    real tokenizer trainers use to kill the per-round latency floor: each
    round greedily selects up to K pairs in (cnt desc, left, right) order,
    skipping any pair that shares a symbol (left, right, OR the merged
    string of a higher-ranked pick — the merged-string exclusion keeps
    every selected count exact, since a pick can only create new
    occurrences of pairs containing its merged symbol).  Symbol-disjoint
    merges commute and cannot change each other's counts, so applying the
    round's picks in rank order ≡ applying them simultaneously, and each
    recorded cnt is the true round-start count.  The merge TABLE may
    differ from classic's (classic re-ranks after every single merge);
    both modes are pinned against their own serial reference in
    tests/test_traintext.py.

    100-TB shape: round 0 pays ONE corpus-scale word-count shuffle; every
    later round touches only the word-TYPE table (sublinear in corpus
    size — Heaps' law), with per-round pair counting as a partial
    aggregate over type partitions and only the vocabulary-scale pair
    table ever reaching the driver (greedy top-K + tie-break there, like
    the quantile/centroid driver steps elsewhere in this repo).  The
    types Dataset is materialized per round — the iterative-state rule
    from kcore/pagerank (a lazy 30-round DAG would re-execute
    everything).  With merge_batch=K the number of pair-count shuffles
    drops ~K× for the same vocabulary.

    Non-SQL (iterative argmax); truth = serial references in
    tests/test_traintext.py."""
    import ray.data as rd

    from ..stages.grouped import hash_partitioned_agg

    words = _word_counts_ds(sf_dir, num_parts)

    def _to_syms(batch: pd.DataFrame) -> pd.DataFrame:
        if "word" not in batch.columns or not len(batch):
            return pd.DataFrame({"syms": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype="int64")})
        return pd.DataFrame({
            "syms": [list(w) + [END_MARK] for w in batch["word"]],
            "n": batch["n"].astype("int64"),
        })

    def _cnt_sum(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby(["left", "right"], sort=False, as_index=False)["cnt"].sum()

    types = words.map_batches(_to_syms, batch_format="pandas").materialize()
    merges = []
    while len(merges) < n_merges:
        pairs = hash_partitioned_agg(
            types.map_batches(_pair_counts, batch_format="pandas"),
            ["left", "right"], _cnt_sum, num_parts=num_parts,
        ).to_pandas()  # vocabulary-scale
        pairs = pairs[pairs.get("cnt", pd.Series(dtype="int64")) >= 2]
        if not len(pairs):
            break
        ranked = pairs.sort_values(["cnt", "left", "right"],
                                   ascending=[False, True, True],
                                   kind="mergesort")
        # greedy symbol-disjoint top-K selection (K=1 ≡ classic argmax)
        room = min(merge_batch, n_merges - len(merges))
        picked: list[tuple[str, str, int]] = []
        used: set[str] = set()
        for row in ranked.itertuples(index=False):
            if len(picked) >= room:
                break
            left, right = str(row.left), str(row.right)
            if left in used or right in used:
                continue
            picked.append((left, right, int(row.cnt)))
            used.update((left, right, left + right))
        for left, right, cnt in picked:
            merges.append({"rank": np.int64(len(merges)), "left": left,
                           "right": right, "merged": left + right,
                           "cnt": np.int64(cnt)})
        round_merges = [(l, r, l + r) for l, r, _ in picked]

        def _apply(batch: pd.DataFrame, ms=tuple(round_merges)) -> pd.DataFrame:
            if "syms" not in batch.columns or not len(batch):
                return batch
            syms = list(batch["syms"])
            for l, r, m in ms:
                syms = [_merge_syms(s, l, r, m) for s in syms]
            return pd.DataFrame({
                "syms": syms,
                "n": batch["n"].astype("int64"),
            })

        types = types.map_batches(_apply, batch_format="pandas").materialize()

    if not merges:
        import pyarrow as pa

        # empty pandas blocks lose their schema in Ray — pin it via Arrow
        return rd.from_arrow(pa.table({
            "rank": pa.array([], pa.int64()),
            "left": pa.array([], pa.string()),
            "right": pa.array([], pa.string()),
            "merged": pa.array([], pa.string()),
            "cnt": pa.array([], pa.int64())}))
    return rd.from_pandas(pd.DataFrame(merges))


def bpe_encode_ds(sf_dir: str, merges: list[tuple[str, str, str]] | None = None,
                  n_merges: int = 30, num_parts: int = 8,
                  merge_batch: int = 1):
    """Apply a trained BPE merge table to the corpus — the encode side of
    the tokenizer story: documents → (doc_id, n_words, n_pieces).

    ``merges`` is [(left, right, merged), ...] in rank order; when omitted
    it is trained first via ``bpe_merges_ds`` (the merge table is ~n_merges
    rows — driver-sized by definition) and shipped to workers in the task
    closure.  Encoding is shuffle-free and embarrassingly parallel: one
    ``map_batches`` pass with a per-actor-batch WORD-TYPE memo (natural
    text repeats words heavily, so each distinct word pays the rank-ordered
    merge walk once per batch, not once per occurrence).  Truth = serial
    rank-ordered reference in tests/test_traintext.py."""
    if merges is None:
        mt = bpe_merges_ds(sf_dir, n_merges=n_merges, num_parts=num_parts,
                           merge_batch=merge_batch).to_pandas()
        merges = list(zip(mt["left"], mt["right"], mt["merged"]))
    merge_list = [(str(l), str(r), str(m)) for l, r, m in merges]

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def _encode(batch: pd.DataFrame) -> pd.DataFrame:
        memo: dict[str, int] = {}

        def pieces_of(word: str) -> int:
            n = memo.get(word)
            if n is None:
                syms = list(word) + [END_MARK]
                for l, r, m in merge_list:
                    syms = _merge_syms(syms, l, r, m)
                n = memo[word] = len(syms)
            return n

        toks = tokens(batch["text"])
        n_words, n_pieces = [], []
        for ws in toks:
            ws = [w for w in ws if w]
            n_words.append(len(ws))
            n_pieces.append(sum(pieces_of(w) for w in ws))
        return pd.DataFrame({
            "doc_id": batch["doc_id"].astype("int64"),
            "n_words": pd.Series(n_words, index=batch.index, dtype="int64"),
            "n_pieces": pd.Series(n_pieces, index=batch.index, dtype="int64"),
        })

    return docs.map_batches(_encode, batch_format="pandas")
