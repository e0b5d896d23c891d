"""Gates for the corpus-scale training-text ops (pipelines/traintext.py):
exact-substring span dedup (vs the shared DuckDB mirror SQL on planted
fixtures), BPE merge training (vs an independent serial classic-BPE
reference), and the n-gram kernel every text operator shares
(``textops.grams``, vs a plain-Python per-doc reference)."""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowledgegraph__bh_ray.pipelines.traintext import (
    END_MARK,
    bpe_merges_ds,
    substring_spans_ds,
)


def _write_docs(tmp_path, texts):
    docs = pa.table({
        "doc_id": pa.array(list(range(len(texts))), pa.int64()),
        "text": texts,
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    return str(tmp_path)


FIXTURE = [
    # docs 0/1 share the 6-token passage "the quick brown fox jumps high"
    "intro words here the quick brown fox jumps high and more trailing text",
    "the quick brown fox jumps high closing words",
    # doc 2 repeats its own 4-token passage twice (WITHIN-doc dup)
    "alpha beta gamma delta filler one two alpha beta gamma delta end",
    # doc 3: unique text, no dups
    "completely unique sentence with distinct vocabulary only",
    # doc 4: shorter than k tokens
    "tiny doc",
    # doc 5: empty
    "   ",
    # doc 6: ADJACENT duplicated passages must merge into one span
    "alpha beta gamma delta alpha beta gamma delta tail",
]


def test_substring_spans_matches_oracle(ray_session, tmp_path):
    import duckdb

    from knowledgegraph__bh_ray.queries import substring_sql

    k = 4
    sf = _write_docs(tmp_path, FIXTURE)
    got = (
        substring_spans_ds(sf, k=k)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    sql = substring_sql(k=k).replace(
        "FROM documents", f"FROM read_parquet('{sf}/documents.parquet')"
    )
    want = duckdb.sql(sql).df().sort_values("doc_id").reset_index(drop=True)
    assert len(got) == len(FIXTURE)
    for col in ("doc_id", "n_tokens", "dup_tokens", "n_spans", "dup_frac_micros"):
        assert list(got[col].astype("int64")) == list(want[col].astype("int64")), col
    by = got.set_index("doc_id")
    # cross-doc 6-token passage → k-gram chain covers 6 tokens in both docs
    assert by.loc[0, "dup_tokens"] == 6 and by.loc[0, "n_spans"] == 1
    assert by.loc[1, "dup_tokens"] == 6 and by.loc[1, "n_spans"] == 1
    # WITHIN-doc repeat is a dup here (unlike dup_passage's cross-doc df)
    assert by.loc[2, "dup_tokens"] == 8 and by.loc[2, "n_spans"] == 2
    assert by.loc[3, "dup_tokens"] == 0 and by.loc[3, "n_spans"] == 0
    assert by.loc[4, "n_tokens"] == 2 and by.loc[4, "dup_tokens"] == 0
    assert by.loc[5, "n_tokens"] == 0 and by.loc[5, "dup_frac_micros"] == 0
    # adjacent repeats merge into ONE maximal span of 8 tokens
    assert by.loc[6, "dup_tokens"] == 8 and by.loc[6, "n_spans"] == 1


def test_substring_partition_invariance(ray_session, tmp_path):
    sf = _write_docs(tmp_path, FIXTURE * 3)
    outs = []
    for parts in (2, 7):
        outs.append(
            substring_spans_ds(sf, k=4, num_parts=parts)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(outs[0], outs[1])


# ---------------------------------------------------------------------------
# BPE
# ---------------------------------------------------------------------------


def serial_bpe(word_counts: dict[str, int], n_merges: int,
               merge_batch: int = 1):
    """Independent serial BPE reference: dict loops, most-frequent pair
    first, lexicographic tie-break, stop below 2.  ``merge_batch=1`` is
    classic Sennrich alg. 1; ``merge_batch>1`` is the batched-round
    variant — per round, greedily take up to ``merge_batch`` pairs in
    (cnt desc, left, right) order skipping any pair that shares a symbol
    (left, right, or merged string) with a higher-ranked pick, then apply
    them in rank order.  Disjoint-symbol merges commute and leave each
    other's counts exact, so the recorded cnt is the true round-start
    count for every pick."""
    types = {tuple(list(w) + [END_MARK]): c for w, c in word_counts.items()}
    merges = []
    while len(merges) < n_merges:
        pc: Counter = Counter()
        for syms, c in types.items():
            for i in range(len(syms) - 1):
                pc[(syms[i], syms[i + 1])] += c
        pc = Counter({p: c for p, c in pc.items() if c >= 2})
        if not pc:
            break
        ranked = sorted(pc.items(), key=lambda kv: (-kv[1], kv[0]))
        picked, used = [], set()
        for (left, right), cnt in ranked:
            if len(picked) >= min(merge_batch, n_merges - len(merges)):
                break
            if left in used or right in used:
                continue
            picked.append((left, right, cnt))
            used.update((left, right, left + right))
        for left, right, cnt in picked:
            merged = left + right
            merges.append((len(merges), left, right, merged, cnt))
            new_types = {}
            for syms, c in types.items():
                out, i = [], 0
                while i < len(syms):
                    if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                        out.append(merged)
                        i += 2
                    else:
                        out.append(syms[i])
                        i += 1
                new_types[tuple(out)] = new_types.get(tuple(out), 0) + c
            types = new_types
    return merges


def test_bpe_matches_serial_reference(ray_session, tmp_path):
    texts = [
        "low low low low low",
        "lower lower newest newest newest",
        "newest newest newest widest widest",
        "low lower newest widest wide wide wide",
    ]
    sf = _write_docs(tmp_path, texts)
    got = bpe_merges_ds(sf, n_merges=12).to_pandas().sort_values("rank")
    wc = Counter(w for t in texts for w in t.split())
    want = serial_bpe(dict(wc), 12)
    assert len(got) == len(want)
    for row, (rank, left, right, merged, cnt) in zip(got.itertuples(), want):
        assert (row.rank, row.left, row.right, row.merged, row.cnt) == (
            rank, left, right, merged, cnt)


def test_bpe_early_stop_empty(ray_session, tmp_path):
    # every word occurs once and shares no adjacent pair with any other →
    # all pair counts are 1 → zero merges, typed empty output
    sf = _write_docs(tmp_path, ["ab cd", "ef gh"])
    ds = bpe_merges_ds(sf, n_merges=5)
    # Ray's to_pandas() drops columns on empty datasets; the schema is the
    # contract here
    assert ds.schema().names == ["rank", "left", "right", "merged", "cnt"]
    assert ds.count() == 0


def test_bpe_batched_matches_serial_reference(ray_session, tmp_path):
    """Batched rounds (merge_batch=8): distributed == the serial batched
    reference, rank-for-rank."""
    texts = [
        "low low low low low",
        "lower lower newest newest newest",
        "newest newest newest widest widest",
        "low lower newest widest wide wide wide",
    ]
    sf = _write_docs(tmp_path, texts)
    got = (bpe_merges_ds(sf, n_merges=12, merge_batch=8)
           .to_pandas().sort_values("rank"))
    wc = Counter(w for t in texts for w in t.split())
    want = serial_bpe(dict(wc), 12, merge_batch=8)
    assert len(got) == len(want)
    for row, (rank, left, right, merged, cnt) in zip(got.itertuples(), want):
        assert (row.rank, row.left, row.right, row.merged, row.cnt) == (
            rank, left, right, merged, cnt)


def test_bpe_batched_vocab_matches_classic_vocab(ray_session, tmp_path):
    """The batched variant's merge TABLE may order differently than
    classic's, but on this fixture the resulting piece vocabulary after
    enough merges converges — sanity-pin that batching doesn't drop
    merges (same count, every batched pick has cnt >= 2)."""
    texts = ["hug hug hug hugs hugs pug pug pun pun pun bun"] * 3
    sf = _write_docs(tmp_path, texts)
    classic = bpe_merges_ds(sf, n_merges=10, merge_batch=1).to_pandas()
    batched = bpe_merges_ds(sf, n_merges=10, merge_batch=4).to_pandas()
    assert len(batched) == len(classic)
    assert (batched["cnt"] >= 2).all()
    assert list(batched["rank"]) == list(range(len(batched)))


def test_bpe_deterministic(ray_session, tmp_path):
    texts = ["pack my box with five dozen liquor jugs " * 2,
             "sphinx of black quartz judge my vow"]
    sf = _write_docs(tmp_path, texts)
    a = bpe_merges_ds(sf, n_merges=8).to_pandas()
    b = bpe_merges_ds(sf, n_merges=8).to_pandas()
    pd.testing.assert_frame_equal(a, b)


def test_substring_clean_matches_oracle(ray_session, tmp_path):
    import duckdb

    from knowledgegraph__bh_ray.pipelines.traintext import substring_clean_ds
    from knowledgegraph__bh_ray.queries import substring_clean_sql

    k = 4
    sf = _write_docs(tmp_path, FIXTURE)
    got = (substring_clean_ds(sf, k=k).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    sql = substring_clean_sql(k=k).replace(
        "FROM documents", f"FROM read_parquet('{sf}/documents.parquet')"
    )
    want = duckdb.sql(sql).df().sort_values("doc_id").reset_index(drop=True)
    assert len(got) == len(FIXTURE)
    for col in ("doc_id", "text_clean", "n_tokens", "n_removed"):
        assert list(got[col]) == list(want[col]), col
    by = got.set_index("doc_id")
    # the shared 6-token passage vanishes from BOTH docs (drop-all policy)
    assert by.loc[0, "text_clean"] == "intro words here and more trailing text"
    assert by.loc[1, "text_clean"] == "closing words"
    # within-doc repeat: both copies dropped
    assert by.loc[2, "text_clean"] == "filler one two end"
    # untouched doc survives verbatim (lowercased, ws-normalized)
    assert by.loc[3, "text_clean"] == FIXTURE[3]
    assert by.loc[5, "text_clean"] == "" and by.loc[5, "n_removed"] == 0
    # adjacent merged span: everything but the tail dropped
    assert by.loc[6, "text_clean"] == "tail" and by.loc[6, "n_removed"] == 8


def test_substring_clean_consistent_with_spans(ray_session, tmp_path):
    """n_removed must equal the span op's dup_tokens doc-for-doc (same
    intervals, two different consumers)."""
    sf = _write_docs(tmp_path, FIXTURE)
    spans = (substring_spans_ds(sf, k=4).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
    from knowledgegraph__bh_ray.pipelines.traintext import substring_clean_ds

    clean = (substring_clean_ds(sf, k=4).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
    assert list(spans["dup_tokens"]) == list(clean["n_removed"])
    assert list(spans["n_tokens"]) == list(clean["n_tokens"])


def serial_bpe_encode(texts, merges):
    """Independent reference: apply trained merges in rank order to every
    whitespace token (chars + END_MARK start state), count pieces."""
    out = {}
    for doc_id, t in enumerate(texts):
        tt = t.strip().lower()
        words = tt.split() if tt else []
        n_pieces = 0
        for w in words:
            syms = list(w) + [END_MARK]
            for _, left, right, merged, _c in merges:
                res, i = [], 0
                while i < len(syms):
                    if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                        res.append(merged)
                        i += 2
                    else:
                        res.append(syms[i])
                        i += 1
                syms = res
            n_pieces += len(syms)
        out[doc_id] = (len(words), n_pieces)
    return out


def test_bpe_encode_batched_train_matches_serial(ray_session, tmp_path):
    """The shipped query configuration (train with merge_batch=8, then
    encode) equals serial batched-train + serial encode."""
    from knowledgegraph__bh_ray.pipelines.traintext import bpe_encode_ds

    texts = [
        "low low low lower lowest newest newest",
        "the newest widest lowest low newest",
        "wide wide wider widest",
    ]
    sf = _write_docs(tmp_path, texts)
    wc = Counter(w for t in texts for w in t.lower().split())
    merges = serial_bpe(dict(wc), 8, merge_batch=8)
    got = (bpe_encode_ds(sf, n_merges=8, merge_batch=8).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    ref = serial_bpe_encode(texts, merges)
    for _, r in got.iterrows():
        assert (int(r["n_words"]), int(r["n_pieces"])) == ref[int(r["doc_id"])]


def test_bpe_encode_matches_serial(ray_session, tmp_path):
    from knowledgegraph__bh_ray.pipelines.traintext import bpe_encode_ds

    texts = [
        "low low low lower lowest newest newest",
        "the newest widest lowest low",
        "",
        "unseen zebra words",
    ]
    sf = _write_docs(tmp_path, texts)
    wc = Counter(w for t in texts for w in t.lower().split())
    merges = serial_bpe(dict(wc), 8)
    got = (bpe_encode_ds(sf, n_merges=8).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    ref = serial_bpe_encode(texts, merges)
    assert len(got) == len(texts)
    for _, r in got.iterrows():
        n_words, n_pieces = ref[int(r["doc_id"])]
        assert (int(r["n_words"]), int(r["n_pieces"])) == (n_words, n_pieces), r
    # compression sanity: trained merges shrink the repeated vocabulary
    chars_plus_end = {d: sum(len(w) + 1 for w in t.lower().split())
                      for d, t in enumerate(texts)}
    assert int(got.set_index("doc_id").loc[0, "n_pieces"]) < chars_plus_end[0]
    # unseen words still encode (no merge applies, chars+END pieces)
    assert int(got.set_index("doc_id").loc[3, "n_pieces"]) == chars_plus_end[3]


def test_substring_randomized_differential(ray_session, tmp_path):
    """Randomized corpora vs the DuckDB mirror: small vocab + short docs
    maximize accidental k-gram collisions (within- and cross-doc), probing
    the islands rule far beyond the planted fixture."""
    import duckdb

    from knowledgegraph__bh_ray.queries import substring_sql

    rng = np.random.default_rng(17)
    vocab = ["a", "b", "c", "dd", "ee"]
    k = 3
    for trial in range(4):
        texts = [
            " ".join(rng.choice(vocab, size=rng.integers(0, 14)))
            for _ in range(25)
        ]
        d = tmp_path / f"t{trial}"
        d.mkdir()
        sf = _write_docs(d, texts)
        got = (substring_spans_ds(sf, k=k, num_parts=3).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        sql = substring_sql(k=k).replace(
            "FROM documents", f"FROM read_parquet('{sf}/documents.parquet')")
        want = duckdb.sql(sql).df().sort_values("doc_id").reset_index(drop=True)
        assert len(got) == len(texts), trial
        for col in ("doc_id", "n_tokens", "dup_tokens", "n_spans",
                    "dup_frac_micros"):
            assert list(got[col].astype("int64")) == \
                list(want[col].astype("int64")), (trial, col)


def test_new_ops_empty_corpus(ray_session, tmp_path):
    """Every round-4 op must survive an all-empty documents table (schema
    intact, zero or all-zero rows) — the driver may probe odd corpora."""
    from knowledgegraph__bh_ray.pipelines.textops import (heavy_hitters_ds,
                                                          sample_uniform_ds)
    from knowledgegraph__bh_ray.pipelines.traintext import substring_clean_ds

    sf = _write_docs(tmp_path, ["   ", ""])
    spans = substring_spans_ds(sf, k=4).to_pandas()
    assert len(spans) == 2 and (spans["n_tokens"] == 0).all()
    clean = substring_clean_ds(sf, k=4).to_pandas()
    assert len(clean) == 2 and (clean["text_clean"] == "").all()
    hh = heavy_hitters_ds(sf, denom=10)
    assert hh.count() == 0
    uni = sample_uniform_ds(sf, k=5).to_pandas()
    assert len(uni) == 2  # ids still sampled (draws are id-keyed)
    assert list(uni["rank"]) == [1, 2]
    merges = bpe_merges_ds(sf, n_merges=3)
    assert merges.count() == 0


# ---------------------------------------------------------------------------
# The shared token rule and n-gram builder (pipelines/textops.py)
# ---------------------------------------------------------------------------

# cased Latin, digits, punctuation, CJK and ASCII/Unicode whitespace
# (tab, newline, vertical tab, form feed, no-break and ideographic spaces)
_GRAM_ALPHABET = "aAbBzZ09.,中文字好 \t\n\x0b\x0c 　"


def _serial_grams(doc_ids, texts, n):
    """Plain-Python reference: per doc, lower → strip → split on \\s+,
    empty tokens dropped, consecutive n-tuples joined by one space."""
    rows = []
    for doc_id, t in zip(doc_ids, texts):
        toks = [w for w in re.split(r"\s+", t.lower().strip()) if w]
        for g in zip(*(toks[i:] for i in range(n))):
            rows.append((doc_id, " ".join(g)))
    return rows


@settings(max_examples=60, deadline=None)
@given(texts=st.lists(st.one_of(st.just(""), st.text(_GRAM_ALPHABET, max_size=40)),
                      max_size=8),
       n=st.sampled_from([1, 2, 4, 8]))
def test_grams_matches_serial_reference(texts, n):
    from knowledgegraph__bh_ray.pipelines.textops import grams, tokens

    # descending, gapped doc ids on a shifted index: nothing may lean on
    # ids or labels being 0..len-1
    doc_ids = [1000 - 7 * i for i in range(len(texts))]
    batch = pd.DataFrame({"doc_id": np.array(doc_ids, dtype="int64"),
                          "text": np.array(texts, dtype=object)},
                         index=range(10, 10 + len(texts)))
    got = grams(batch["doc_id"], tokens(batch["text"]), n)
    assert list(got.columns) == ["doc_id", "gram"]
    assert str(got["doc_id"].dtype) == "int64"
    assert list(got.itertuples(index=False, name=None)) == _serial_grams(doc_ids, texts, n)


def test_token_rule_and_gram_builder_written_once():
    """The token rule (lower → trim → split) lives in ``textops.tokens``
    and the n-gram builder in ``textops.grams``: no other line in
    pipelines/ spells the rule out or builds n-grams by shifting token
    rows."""
    import ast
    import glob
    import os

    from knowledgegraph__bh_ray.pipelines import textops

    pats = (".str.lower().str.strip().str.split(", ".shift(-")
    src_path = textops.__file__
    tree = ast.parse(open(src_path, encoding="utf-8").read())
    kernel = [(f.lineno, f.end_lineno) for f in tree.body
              if isinstance(f, ast.FunctionDef) and f.name in ("tokens", "grams")]
    inside, outside = [], []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(src_path), "*.py"))):
        is_textops = os.path.samefile(path, src_path)
        for i, line in enumerate(open(path, encoding="utf-8"), 1):
            for p in pats:
                if p not in line:
                    continue
                if is_textops and any(a <= i <= b for a, b in kernel):
                    inside.append(p)
                else:
                    outside.append(f"{os.path.basename(path)}:{i}: {line.strip()}")
    assert not outside, outside
    assert pats[0] in inside
