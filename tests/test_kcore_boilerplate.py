"""k-core / boilerplate-strip / shuffle-shard operator tests.

k-core: reference peel vs distributed rounds (forced by patching
``grouped.LOCAL_AGG_MAX_ROWS``),
adversarial shapes (clique, path, star), and the SQL-mirror unroll budget
(the sf0.01 corpus must converge within the 6 rounds _kcore_sql unrolls).
"""

from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pandas as pd
import pytest

from knowledgegraph__bh_ray.stages import grouped


def _und(pairs):
    return pd.DataFrame({"u": [p[0] for p in pairs], "v": [p[1] for p in pairs]})


def _edges_ds(pairs):
    import ray.data as rd

    return rd.from_pandas(
        pd.DataFrame(
            {"src_url": [p[0] for p in pairs], "dst_url": [p[1] for p in pairs]}
        )
    )


class TestKCorePairs:
    def test_clique_survives_whole(self):
        from knowledgegraph__bh_ray.stages.pagerank import k_core_pairs

        nodes = [f"n{i}" for i in range(5)]
        pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
        out, rounds = k_core_pairs(_und(pairs), k=4)
        assert set(out["url"]) == set(nodes)
        assert (out["core_deg"] == 4).all()
        assert rounds == 1  # already a fixpoint

    def test_path_graph_empties_for_k2(self):
        from knowledgegraph__bh_ray.stages.pagerank import k_core_pairs

        pairs = [(f"n{i}", f"n{i+1}") for i in range(9)]
        out, _ = k_core_pairs(_und(pairs), k=2)
        assert len(out) == 0  # endpoints peel inward until nothing is left

    def test_star_plus_triangle(self):
        from knowledgegraph__bh_ray.stages.pagerank import k_core_pairs

        # hub with 10 leaves (deg 10 but every leaf deg 1) + a triangle:
        # the 2-core is exactly the triangle
        pairs = [("hub", f"leaf{i}") for i in range(10)]
        pairs += [("ta", "tb"), ("tb", "tc"), ("ta", "tc")]
        out, _ = k_core_pairs(_und(pairs), k=2)
        assert set(out["url"]) == {"ta", "tb", "tc"}
        assert (out["core_deg"] == 2).all()


class TestKCoreDistributed:
    def test_matches_reference_on_random_graph(self, ray_session):
        import ray

        from knowledgegraph__bh_ray.stages.pagerank import k_core_ds, k_core_pairs

        rng = np.random.default_rng(7)
        n = 60
        pairs = set()
        for _ in range(260):
            a, b = rng.integers(0, n, 2)
            if a != b:
                pairs.add((f"n{min(a,b):03d}", f"n{max(a,b):03d}"))
        pairs = sorted(pairs)
        # k=5 peels 8 of the 60 nodes over 4 rounds (every node has degree
        # >= 3, so a 3-core would leave the dead shell empty from round 1)
        ref, _ = k_core_pairs(_und(pairs), k=5)
        # directed duplicates + reversed edges in the input exercise the
        # canonicalization
        noisy = list(pairs) + [(b, a) for a, b in pairs[:40]] + list(pairs[:25])
        ref = ref.sort_values("url").reset_index(drop=True)
        # both distributed dead-shell branches: a cap of -1 sizes nothing
        # local (semi-joins); a cap under the edge count but over every
        # shell (at most n nodes) peels distributed with broadcast shells
        assert n < len(pairs)
        for cap, semi in ((-1, True), (len(pairs) - 1, False)):
            with mock.patch.object(grouped, "LOCAL_AGG_MAX_ROWS", cap), \
                 mock.patch.object(grouped, "reduce_side_join",
                                   wraps=grouped.reduce_side_join) as rsj, \
                 mock.patch.object(ray, "put", wraps=ray.put) as put:
                got = (
                    k_core_ds(_edges_ds(noisy), k=5, num_parts=4)
                    .to_pandas()
                    .sort_values("url")
                    .reset_index(drop=True)
                )
            semi_ran = any(c.kwargs.get("how") == "semi" for c in rsj.call_args_list)
            bcast_ran = any(isinstance(c.args[0], frozenset) for c in put.call_args_list)
            assert (semi_ran, bcast_ran) == (semi, not semi)
            pd.testing.assert_frame_equal(got, ref)

    def test_driver_path_equals_distributed(self, ray_session, page_graph_small):
        from knowledgegraph__bh_ray.stages.pagerank import k_core_ds

        pairs = [("hub", f"l{i}") for i in range(6)] + [
            ("a", "b"), ("b", "c"), ("a", "c"), ("c", "hub")
        ]
        # a toy graph, then the sf0.001 page graph at the registry's k
        for ds, k in ((_edges_ds(pairs), 2), (page_graph_small, 4)):
            small = k_core_ds(ds, k=k).to_pandas()
            with mock.patch.object(grouped, "LOCAL_AGG_MAX_ROWS", -1):
                dist = k_core_ds(ds, k=k).to_pandas()
            key = lambda d: d.sort_values("url").reset_index(drop=True)  # noqa: E731
            pd.testing.assert_frame_equal(key(small), key(dist))
            assert len(small) > 0

    def test_sf001_converges_within_sql_unroll(self, ray_session):
        """The DuckDB mirror unrolls 6 peel rounds; the engine's fixpoint
        must be reached within that budget on the correctness corpus."""
        from knowledgegraph__bh_ray import queries
        from knowledgegraph__bh_ray.pipelines import kg
        from knowledgegraph__bh_ray.stages.pagerank import k_core_pairs

        edges = (
            kg.page_graph_edges_ds(kg.parsed_ds(queries._prep(queries.SF_CORRECTNESS)))
            .to_pandas()
        )
        a = np.minimum(edges["src_url"], edges["dst_url"])
        b = np.maximum(edges["src_url"], edges["dst_url"])
        und = pd.DataFrame({"u": a, "v": b}).drop_duplicates()
        und = und[und["u"] != und["v"]]
        out, rounds = k_core_pairs(und, k=4)
        assert rounds <= 6, f"peel took {rounds} rounds; raise _kcore_sql unroll"
        assert len(out) > 0 and (out["core_deg"] >= 4).all()


class TestBoilerplateStrip:
    def _run(self, rows, num_parts=4):
        import ray.data as rd

        from knowledgegraph__bh_ray.pipelines.textops import boilerplate_strip_core

        ex = rd.from_pandas(
            pd.DataFrame({"url": [r[0] for r in rows], "text_out": [r[1] for r in rows]})
        )
        return (
            boilerplate_strip_core(ex, num_parts=num_parts)
            .to_pandas()
            .set_index("url")
        )

    def test_majority_line_stripped_everywhere(self, ray_session):
        rows = [
            ("u0", "FOOTER\nalpha\nFOOTER"),   # boilerplate twice in one page
            ("u1", "FOOTER\nbeta"),
            ("u2", "FOOTER\ngamma"),
            ("u3", "delta only"),               # no boilerplate on this page
        ]
        out = self._run(rows)
        # FOOTER is on 3 of 4 pages (df*2 = 6 >= 4) → stripped, incl. dups
        assert out.loc["u0", "text_clean"] == "alpha"
        assert out.loc["u0", "n_removed"] == 2 and out.loc["u0", "n_kept"] == 1
        assert out.loc["u1", "text_clean"] == "beta"
        assert out.loc["u3", "text_clean"] == "delta only"
        assert out.loc["u3", "n_removed"] == 0

    def test_df_counts_pages_not_occurrences(self, ray_session):
        # line repeated many times on ONE page of four: df=1, not boilerplate
        rows = [
            ("u0", "SPAM\nSPAM\nSPAM\nSPAM\nSPAM\nSPAM"),
            ("u1", "a"), ("u2", "b"), ("u3", "c"),
        ]
        out = self._run(rows)
        assert out.loc["u0", "n_removed"] == 0
        assert out.loc["u0", "text_clean"].count("SPAM") == 6

    def test_empty_lines_never_flagged_and_survive(self, ray_session):
        rows = [("u0", "a\n\nb"), ("u1", "\n"), ("u2", "x\n\ny"), ("u3", "\n")]
        out = self._run(rows)
        # '' appears on all pages but is exempt from flagging
        assert out.loc["u0", "text_clean"] == "a\n\nb"
        assert out.loc["u1", "text_clean"] == "\n"
        assert int(out["n_removed"].sum()) == 0

    def test_fully_boilerplate_page_becomes_empty(self, ray_session):
        rows = [("u0", "X"), ("u1", "X"), ("u2", "X"), ("u3", "X\nunique")]
        out = self._run(rows)
        assert out.loc["u0", "text_clean"] == "" and out.loc["u0", "n_kept"] == 0
        assert out.loc["u3", "text_clean"] == "unique"


class TestShuffleShard:
    def test_permutation_matches_serial_reference(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from knowledgegraph__bh_ray.pipelines.textops import shuffle_shard_ds

        ids = list(range(0, 400, 3))
        pq.write_table(
            pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "text": ["t"] * len(ids)}),
            str(tmp_path / "documents.parquet"),
        )
        got = shuffle_shard_ds(str(tmp_path), n_shards=8).to_pandas()

        ref = pd.DataFrame({"doc_id": ids})
        ref["k"] = ref["doc_id"].map(
            lambda i: hashlib.md5(f"s0:{i}".encode()).hexdigest()
        )
        ref["shard_id"] = ref["k"].str[:4].map(lambda h: int(h, 16)) % 8
        ref = ref.sort_values(["shard_id", "k", "doc_id"]).reset_index(drop=True)
        ref["pos"] = ref.groupby("shard_id").cumcount()

        m = got.sort_values(["shard_id", "pos"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            m[["doc_id", "shard_id", "pos"]],
            ref[["doc_id", "shard_id", "pos"]].astype(
                {"shard_id": "int64", "pos": "int64"}
            ),
        )
        # every doc exactly once; positions dense per shard
        assert sorted(m["doc_id"]) == sorted(ids)
        for _, g in m.groupby("shard_id"):
            assert list(g["pos"]) == list(range(len(g)))

    def test_deterministic_across_runs(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from knowledgegraph__bh_ray.pipelines.textops import shuffle_shard_ds

        pq.write_table(
            pa.table({"doc_id": pa.array(range(50), pa.int64()),
                      "text": ["t"] * 50}),
            str(tmp_path / "documents.parquet"),
        )
        a = shuffle_shard_ds(str(tmp_path)).to_pandas().sort_values("doc_id")
        b = shuffle_shard_ds(str(tmp_path)).to_pandas().sort_values("doc_id")
        pd.testing.assert_frame_equal(a.reset_index(drop=True), b.reset_index(drop=True))


class TestSampleWeighted:
    def test_keep_rule_matches_serial_reference(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from knowledgegraph__bh_ray.pipelines.textops import sample_weighted_ds

        texts = ["w " * k for k in (0, 1, 5, 32, 64, 100, 200)] + ["", "   "]
        ids = list(range(len(texts)))
        pq.write_table(
            pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts}),
            str(tmp_path / "documents.parquet"),
        )
        got = sample_weighted_ds(str(tmp_path)).to_pandas().set_index("doc_id")

        for i, t in zip(ids, texts):
            n = len(t.strip().split()) if t.strip() else 0
            u = int(hashlib.md5(f"w1:{i}".encode()).hexdigest()[:8], 16)
            expect = u * 64 < min(n, 64) * (1 << 32)
            assert (i in got.index) == expect, (i, n, u)
            if expect:
                assert got.loc[i, "n_tokens"] == n
                assert got.loc[i, "w_num"] == min(n, 64)
        # empty docs can never be kept
        assert 7 not in got.index and 8 not in got.index

    def test_cap_docs_always_kept_probabilistically(self, ray_session, tmp_path):
        """Docs at/above the token cap have weight 1.0 → always kept."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from knowledgegraph__bh_ray.pipelines.textops import sample_weighted_ds

        n = 200
        pq.write_table(
            pa.table({"doc_id": pa.array(range(n), pa.int64()),
                      "text": ["tok " * 64] * n}),
            str(tmp_path / "documents.parquet"),
        )
        got = sample_weighted_ds(str(tmp_path)).to_pandas()
        assert len(got) == n  # w_num == cap → u32*cap < cap*2^32 always


class TestLmPerplexity:
    def test_matches_serial_bigram_lm(self, ray_session, tmp_path):
        """Per-doc avg bigram log-prob equals a plain-dict add-one LM."""
        import math

        import pyarrow as pa
        import pyarrow.parquet as pq

        from knowledgegraph__bh_ray.pipelines.textops import lm_perplexity_ds

        texts = [
            "the cat sat on the mat",
            "the cat sat",
            "a dog ran fast",
            "the the the the",       # repetitive → high probability bigrams
            "solo",                   # 1 token → no bigrams → absent
            "",                       # empty → absent
        ]
        ids = list(range(len(texts)))
        pq.write_table(
            pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts}),
            str(tmp_path / "documents.parquet"),
        )
        got = lm_perplexity_ds(str(tmp_path)).to_pandas().set_index("doc_id")

        c1, c2 = {}, {}
        toks = {i: t.lower().strip().split() for i, t in zip(ids, texts) if t.strip()}
        for ts in toks.values():
            for w in ts:
                c1[w] = c1.get(w, 0) + 1
            for a, b in zip(ts, ts[1:]):
                c2[(a, b)] = c2.get((a, b), 0) + 1
        V = len(c1)
        for i, ts in toks.items():
            bigs = list(zip(ts, ts[1:]))
            if not bigs:
                assert i not in got.index
                continue
            avg = sum(
                math.log((c2[(a, b)] + 1) / (c1[a] + V)) for a, b in bigs
            ) / len(bigs)
            assert got.loc[i, "n_bigrams"] == len(bigs)
            assert got.loc[i, "avg_logprob_micros"] == round(avg * 1e6)
        assert 4 not in got.index and 5 not in got.index


class TestDupPassage:
    def test_matches_serial_gram_df(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from knowledgegraph__bh_ray.pipelines.textops import dup_passage_ds

        texts = [
            "a b c d e f",        # shares 'a b c d'..'c d e f' with doc 1
            "a b c d e f g",
            "x y z w",            # unique gram
            "x y z w",            # exact duplicate of doc 2
            "too few",            # < 4 tokens → absent
        ]
        ids = list(range(len(texts)))
        pq.write_table(
            pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts}),
            str(tmp_path / "documents.parquet"),
        )
        got = dup_passage_ds(str(tmp_path)).to_pandas().set_index("doc_id")

        # serial reference
        from collections import Counter
        gsets, occ = {}, {}
        for i, t in zip(ids, texts):
            ts = t.lower().strip().split()
            occ[i] = [" ".join(ts[j:j + 4]) for j in range(len(ts) - 3)]
            gsets[i] = set(occ[i])
        df = Counter()
        for i in gsets:
            for g in gsets[i]:
                df[g] += 1
        for i in ids:
            if not occ[i]:
                assert i not in got.index
                continue
            n_dup = sum(1 for g in occ[i] if df[g] >= 2)
            assert got.loc[i, "n_grams"] == len(occ[i])
            assert got.loc[i, "n_dup"] == n_dup
            assert got.loc[i, "dup_frac_micros"] == n_dup * 1_000_000 // len(occ[i])
        # exact duplicates have dup_frac == 1.0
        assert got.loc[2, "dup_frac_micros"] == 1_000_000
        assert got.loc[3, "dup_frac_micros"] == 1_000_000
        # doc 0's grams all appear in doc 1 too
        assert got.loc[0, "dup_frac_micros"] == 1_000_000
        # doc 1 has one gram ('d e f g') nowhere else
        assert got.loc[1, "n_dup"] == got.loc[1, "n_grams"] - 1
