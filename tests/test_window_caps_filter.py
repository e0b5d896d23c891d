"""Round-3 continuation operators: per-key ordered window aggregate
(events_running_total), per-source quota capping (source_cap), and
distribution-cut quality filtering (quality_filter) — each checked against
an independent serial pandas/numpy reference on synthetic inputs, plus the
determinism / boundary properties the SQL mirrors rely on."""

import hashlib
import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _write_events(tmp_path, n=300, users=7, seed=3):
    rng = np.random.default_rng(seed)
    ts_base = np.int64(1_700_000_000_000_000)
    # duplicate timestamps on purpose: the (ts, event_id) tiebreak must bite
    ts = ts_base + rng.integers(0, 50, n).astype("int64") * 60_000_000
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype="int64"),
            "ts": pd.to_datetime(ts, unit="us"),
            "user_id": rng.integers(0, users, n).astype("int64"),
            "value": np.round(rng.uniform(0, 50, n), 2),
        }
    )
    pq.write_table(pa.Table.from_pandas(df), str(tmp_path / "events.parquet"))
    return df


class TestRunningTotal:
    def test_matches_serial_window(self, ray_session, tmp_path):
        from knowledgegraph__bh_ray.pipelines.relational import events_running_total_ds

        df = _write_events(tmp_path)
        got = (
            events_running_total_ds(str(tmp_path))
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )

        ref = df.copy()
        ref["ts_us"] = ref["ts"].astype("datetime64[us]").astype("int64")
        ref["value_cents"] = np.floor(ref["value"] * 100).astype("int64")
        ref = ref.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        g = ref.groupby("user_id", sort=False)
        ref["running_cents"] = g["value_cents"].cumsum().astype("int64")
        ref["seq"] = (g.cumcount() + 1).astype("int64")
        ref = ref.sort_values("event_id").reset_index(drop=True)

        pd.testing.assert_frame_equal(
            got[["event_id", "user_id", "ts_us", "value_cents", "running_cents", "seq"]],
            ref[["event_id", "user_id", "ts_us", "value_cents", "running_cents", "seq"]],
        )
        # each user's final running total is their full sum; seq is dense 1..n
        for uid, grp in got.groupby("user_id"):
            s = grp.sort_values("seq")
            assert list(s["seq"]) == list(range(1, len(s) + 1))
            assert s["running_cents"].iloc[-1] == s["value_cents"].sum()

    def test_every_event_exactly_once(self, ray_session, tmp_path):
        from knowledgegraph__bh_ray.pipelines.relational import events_running_total_ds

        df = _write_events(tmp_path, n=97, users=3, seed=9)
        got = events_running_total_ds(str(tmp_path)).to_pandas()
        assert sorted(got["event_id"]) == sorted(df["event_id"])


class TestSourceCap:
    def _write_docs(self, tmp_path, sizes):
        rows = []
        i = 0
        for src, n in sizes.items():
            for _ in range(n):
                rows.append((i, src))
                i += 1
        df = pd.DataFrame(rows, columns=["doc_id", "source"])
        pq.write_table(
            pa.table({"doc_id": pa.array(df["doc_id"], pa.int64()),
                      "source": df["source"].tolist(),
                      "text": ["t"] * len(df)}),
            str(tmp_path / "documents.parquet"),
        )
        return df

    def test_matches_serial_md5_rank(self, ray_session, tmp_path):
        from knowledgegraph__bh_ray.pipelines.textops import source_cap_ds

        df = self._write_docs(tmp_path, {"a": 40, "b": 15, "c": 3, "d": 1})
        got = (
            source_cap_ds(str(tmp_path), cap=15)
            .to_pandas()
            .sort_values(["source", "rank"])
            .reset_index(drop=True)
        )

        ref = df.copy()
        ref["k"] = ref["doc_id"].map(
            lambda i: hashlib.md5(f"s0:{i}".encode()).hexdigest()
        )
        ref = ref.sort_values(["source", "k", "doc_id"], kind="mergesort")
        ref["rank"] = (ref.groupby("source", sort=False).cumcount() + 1).astype("int64")
        ref = ref[ref["rank"] <= 15].sort_values(["source", "rank"]).reset_index(drop=True)

        pd.testing.assert_frame_equal(
            got[["doc_id", "source", "rank"]], ref[["doc_id", "source", "rank"]]
        )
        # quota respected; undersized sources keep everything
        n_kept = got.groupby("source").size()
        assert n_kept["a"] == 15 and n_kept["b"] == 15
        assert n_kept["c"] == 3 and n_kept["d"] == 1

    def test_deterministic_across_runs(self, ray_session, tmp_path):
        from knowledgegraph__bh_ray.pipelines.textops import source_cap_ds

        self._write_docs(tmp_path, {"x": 30, "y": 30})
        a = source_cap_ds(str(tmp_path), cap=7).to_pandas().sort_values("doc_id")
        b = source_cap_ds(str(tmp_path), cap=7).to_pandas().sort_values("doc_id")
        pd.testing.assert_frame_equal(a.reset_index(drop=True), b.reset_index(drop=True))


class TestQualityFilter:
    def _write_docs(self, tmp_path, token_counts, langs=None):
        texts = ["w " * k if k else "" for k in token_counts]
        langs = langs or ["en"] * len(texts)
        pq.write_table(
            pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "lang": langs, "text": texts}),
            str(tmp_path / "documents.parquet"),
        )

    def test_matches_serial_percentile_band(self, ray_session, tmp_path):
        from knowledgegraph__bh_ray.pipelines.textops import quality_filter_ds

        rng = np.random.default_rng(11)
        counts = rng.integers(0, 200, 150).tolist()
        self._write_docs(tmp_path, counts)
        got = quality_filter_ds(str(tmp_path)).to_pandas().sort_values("doc_id")

        # serial reference: percentile_disc = value at 1-indexed
        # pos max(1, ceil(q*N)) of the ascending values
        n_tok = np.array(
            [len(t.split()) if t.strip() else 0 for t in ["w " * k if k else "" for k in counts]]
        )
        asc = np.sort(n_tok)

        def disc(q):
            return int(asc[max(1, math.ceil(q * len(asc))) - 1])

        lo, hi = disc(0.05), disc(0.95)
        keep = [i for i, n in enumerate(n_tok) if lo <= n <= hi]
        assert sorted(got["doc_id"]) == keep
        assert got["n_tokens"].min() >= lo and got["n_tokens"].max() <= hi
        # band is a proper subset (tails exist in this synthetic spread)
        assert 0 < len(got) < len(counts)

    def test_degenerate_uniform_corpus_keeps_all(self, ray_session, tmp_path):
        from knowledgegraph__bh_ray.pipelines.textops import quality_filter_ds

        self._write_docs(tmp_path, [10] * 40)
        got = quality_filter_ds(str(tmp_path)).to_pandas()
        assert len(got) == 40  # p05 == p95 == the single value → keep all


class TestBpeTokenCount:
    def test_python_duckdb_count_parity(self):
        """The BPE-ish pre-tokenizer count must agree byte-for-byte between
        the engine (Python re) and the mirror (DuckDB RE2) — randomized
        over the character classes the pattern distinguishes."""
        import duckdb

        from knowledgegraph__bh_ray.pipelines.textops import RE_BPE

        rng = np.random.default_rng(13)
        alphabet = list("abcXYZ019 .,!'\t\n汉字ß") + ["'s", "'re", "'ll", "  "]
        texts = [
            "".join(rng.choice(alphabet, size=rng.integers(0, 60)))
            for _ in range(200)
        ] + ["", " ", "it's we're I'll 'd", "汉字123abc", "a'b''c'sd"]
        con = duckdb.connect()
        for t in texts:
            d = con.execute(
                "SELECT len(regexp_extract_all(?, ?))", [t, RE_BPE.pattern]
            ).fetchone()[0]
            assert len(RE_BPE.findall(t)) == d, repr(t)

    def test_quality_columns(self, ray_session):
        from knowledgegraph__bh_ray.pipelines.textops import text_quality_ds

        df = text_quality_ds("/root/testdata/sf0.001").to_pandas()
        assert {"n_tokens", "n_bpe_tokens", "n_punct", "n_stopwords"} <= set(df.columns)
        # BPE-ish tokens are at least as fine-grained as whitespace tokens
        assert (df["n_bpe_tokens"] >= df["n_tokens"]).all()


class TestEventsLag:
    def test_matches_serial_shift(self, ray_session, tmp_path):
        from knowledgegraph__bh_ray.pipelines.relational import events_lag_ds

        df = _write_events(tmp_path, n=250, users=6, seed=17)
        got = (
            events_lag_ds(str(tmp_path))
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )

        ref = df.copy()
        ref["ts_us"] = ref["ts"].astype("datetime64[us]").astype("int64")
        ref["value_cents"] = np.floor(ref["value"] * 100).astype("int64")
        ref = ref.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        g = ref.groupby("user_id", sort=False)
        ref["prev_event_id"] = g["event_id"].shift(1).fillna(-1).astype("int64")
        ref["prev_value_cents"] = g["value_cents"].shift(1).fillna(-1).astype("int64")
        prev_ts = g["ts_us"].shift(1)
        ref["gap_us"] = np.where(
            prev_ts.notna(), ref["ts_us"] - prev_ts.fillna(0).astype("int64"), -1
        ).astype("int64")
        ref = ref.sort_values("event_id").reset_index(drop=True)

        cols = ["event_id", "user_id", "ts_us", "value_cents",
                "prev_event_id", "prev_value_cents", "gap_us"]
        pd.testing.assert_frame_equal(got[cols], ref[cols])
        # exactly one first-event sentinel per user; duplicate-ts gap is 0, not -1
        firsts = got[got["prev_event_id"] == -1]
        assert len(firsts) == got["user_id"].nunique()
        assert (firsts["gap_us"] == -1).all()
        assert (got.loc[got["prev_event_id"] >= 0, "gap_us"] >= 0).all()


class TestProfileDocuments:
    def test_profile_with_nulls(self, ray_session, tmp_path):
        from knowledgegraph__bh_ray.pipelines.textops import profile_documents_ds

        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                    "text": ["a", "b", "c", "d"],
                    "lang": pa.array(["en", None, "zh", "en"], pa.string()),
                    "source": pa.array(["s1", "s1", None, None], pa.string()),
                    "n_chars": pa.array([10, 20, 10, None], pa.int64()),
                }
            ),
            str(tmp_path / "documents.parquet"),
        )
        got = profile_documents_ds(str(tmp_path)).to_pandas().set_index("column")
        assert (got["n_rows"] == 4).all()
        assert got.loc["doc_id"].tolist() == [4, 0, 4, 1, 4, "", ""]
        assert got.loc["n_chars"].tolist() == [4, 1, 2, 10, 20, "", ""]
        assert got.loc["lang"].tolist() == [4, 1, 2, -1, -1, "en", "zh"]
        assert got.loc["source"].tolist() == [4, 2, 1, -1, -1, "s1", "s1"]


class TestMixCorpora:
    def test_stride_interleave_proportions(self, ray_session, tmp_path):
        from knowledgegraph__bh_ray.pipelines.textops import mix_corpora_ds

        # src1 (w=2) twice the share of src0/src3 (w=1), src2 (w=3) thrice
        sizes = {"src0": 120, "src1": 120, "src2": 120, "src3": 120}
        rows = []
        i = 0
        for s, n in sizes.items():
            for _ in range(n):
                rows.append((i, s)); i += 1
        df = pd.DataFrame(rows, columns=["doc_id", "source"])
        pq.write_table(
            pa.table({"doc_id": pa.array(df["doc_id"], pa.int64()),
                      "source": df["source"].tolist(), "text": ["t"] * len(df)}),
            str(tmp_path / "documents.parquet"),
        )
        got = mix_corpora_ds(str(tmp_path)).to_pandas()
        assert len(got) == len(df)

        # serial reference for the key rule
        ref_k = df["doc_id"].map(lambda i: hashlib.md5(f"m0:{i}".encode()).hexdigest())
        ref = df.assign(k=ref_k).sort_values(["source", "k", "doc_id"], kind="mergesort")
        ref["pos_in_source"] = ref.groupby("source", sort=False).cumcount() + 1
        ref["weight"] = ref["source"].str.extract(r"(\d+)$", expand=False).astype(int) % 3 + 1
        ref["stride_key"] = (2 * ref["pos_in_source"] - 1) * 1_000_000 // (2 * ref["weight"])
        m = got.sort_values("doc_id").reset_index(drop=True)
        r = ref.sort_values("doc_id").reset_index(drop=True)
        for c in ("pos_in_source", "weight", "stride_key"):
            assert (m[c].to_numpy() == r[c].to_numpy()).all(), c

        # proportions: in stride order, an early prefix carries sources at
        # ~weight ratios (weights here: src0=1, src1=2, src2=3, src3=1)
        order = got.sort_values(["stride_key", "source"]).head(140)
        share = order["source"].value_counts()
        assert share["src2"] > share["src1"] > share["src0"]
        assert abs(share["src2"] - 3 * share["src0"]) <= 3
        assert abs(share["src1"] - 2 * share["src0"]) <= 2


class TestSourceCapPreCap:
    def test_precap_across_batches_equals_serial(self, ray_session, tmp_path):
        """The per-batch associative pre-cap must not change the result
        even when a hot source's winners are scattered across input files
        (each file = one read batch)."""
        from knowledgegraph__bh_ray.pipelines.textops import source_cap_ds

        rng = np.random.default_rng(41)
        ids = rng.permutation(400).astype("int64")
        src = np.where(np.arange(400) < 300, "hot", "cold")  # hot spans files
        for f in range(8):
            sl = slice(f * 50, (f + 1) * 50)
            pq.write_table(
                pa.table({"doc_id": pa.array(ids[sl], pa.int64()),
                          "source": src[sl].tolist(), "text": ["t"] * 50}),
                str(tmp_path / f"documents_{f}.parquet"),
            )
        # merge into the expected single-table layout AND keep the shards
        both = pa.concat_tables(
            [pq.read_table(str(tmp_path / f"documents_{f}.parquet")) for f in range(8)]
        )
        sharded = tmp_path / "sharded"
        sharded.mkdir()
        for f in range(8):
            (tmp_path / f"documents_{f}.parquet").rename(
                sharded / f"documents_{f}.parquet".replace("documents_", "part_")
            )
        pq.write_table(both, str(tmp_path / "documents.parquet"))

        got = (
            source_cap_ds(str(tmp_path), cap=12)
            .to_pandas()
            .sort_values(["source", "rank"])
            .reset_index(drop=True)
        )
        ref = both.to_pandas()
        ref["k"] = ref["doc_id"].map(lambda i: hashlib.md5(f"s0:{i}".encode()).hexdigest())
        ref = ref.sort_values(["source", "k", "doc_id"], kind="mergesort")
        ref["rank"] = (ref.groupby("source", sort=False).cumcount() + 1).astype("int64")
        ref = ref[ref["rank"] <= 12].sort_values(["source", "rank"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["doc_id", "source", "rank"]], ref[["doc_id", "source", "rank"]]
        )
        assert (got.groupby("source").size() == 12).all()


def test_lm_perplexity_dispatch_equivalence(ray_session):
    """Dispatch gate for the unigram attach: broadcast (default — the
    vocab table is Heaps-law-sized) and reduce-side fallback
    (``LOCAL_AGG_MAX_ROWS=-1``) must score identically."""
    from unittest import mock

    import pandas as pd

    from knowledgegraph__bh_ray.pipelines.textops import lm_perplexity_ds
    from knowledgegraph__bh_ray.stages import grouped

    sf = "/root/testdata/sf0.001"
    a = (lm_perplexity_ds(sf).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    with mock.patch.object(grouped, "LOCAL_AGG_MAX_ROWS", -1):
        b = (lm_perplexity_ds(sf).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0


def test_sampled_quantiles_rank_error_bound(ray_session):
    """DKW gate: each sampled-quantile estimate's TRUE rank must sit within
    ε of the requested q (k=4096 ⇒ ε≈0.03; asserted at 0.05 for finite-δ
    slack), and the op must be deterministic across runs."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from knowledgegraph__bh_ray.pipelines.relational import (
        events_quantiles_sampled_ds)

    sf = "/root/testdata/sf0.01"
    got = (events_quantiles_sampled_ds(sf).to_pandas()
           .sort_values("q_micros").reset_index(drop=True))
    vals = np.sort(pq.read_table(f"{sf}/events.parquet", columns=["value"])
                   .column("value").to_numpy())
    n = len(vals)
    assert len(got) == 5
    for r in got.itertuples():
        q = r.q_micros / 1_000_000
        true_rank = np.searchsorted(vals, r.value_est, side="right") / n
        assert abs(true_rank - q) <= 0.05, (q, true_rank)
    again = (events_quantiles_sampled_ds(sf).to_pandas()
             .sort_values("q_micros").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, again)


def test_sampled_quantiles_by_type_rank_error(ray_session):
    """Per-key DKW gate: within each event_type, every estimate's true
    rank (within that type's values) must sit within 0.08 of q (k=1024 ⇒
    ε≈0.06 at δ=10⁻³), and the op is deterministic."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from knowledgegraph__bh_ray.pipelines.relational import (
        events_quantiles_sampled_by_type_ds)

    sf = "/root/testdata/sf0.01"
    got = (events_quantiles_sampled_by_type_ds(sf).to_pandas()
           .sort_values(["event_type", "q_micros"]).reset_index(drop=True))
    ev = pq.read_table(f"{sf}/events.parquet",
                       columns=["event_type", "value"]).to_pandas()
    types = sorted(ev["event_type"].unique())
    assert sorted(got["event_type"].unique()) == types
    for etype, sub in ev.groupby("event_type"):
        vals = np.sort(sub["value"].to_numpy())
        n = len(vals)
        rows = got[got["event_type"] == etype]
        assert len(rows) == 5
        for r in rows.itertuples():
            q = r.q_micros / 1_000_000
            true_rank = np.searchsorted(vals, r.value_est, side="right") / n
            assert abs(true_rank - q) <= 0.08, (etype, q, true_rank)
    again = (events_quantiles_sampled_by_type_ds(sf).to_pandas()
             .sort_values(["event_type", "q_micros"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, again)
