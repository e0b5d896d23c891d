import pyarrow as pa
import pytest

from knowledgegraph__bh_ray.functions.budget import estimate_tokens, truncate_to_budget
from knowledgegraph__bh_ray.functions.metrics import tag_prf, triple_prf
from knowledgegraph__bh_ray.functions.prompt import (
    StructurerSlot,
    assemble_prompt,
    rolling_history,
)
from knowledgegraph__bh_ray.stages.extract import extract_parse_batch


def test_triple_prf():
    pred = {("a", "r", "b"), ("a", "r", "c")}
    gold = {("a", "r", "b"), ("x", "r", "y")}
    m = triple_prf(pred, gold)
    assert m["precision"] == 0.5 and m["recall"] == 0.5 and m["tp"] == 1

    # mid-sized sets with a known overlap: thousands of triples sharing
    # subjects and predicates, so only the full (subj, pred, obj) key
    # separates them
    def _triples(tag, n):
        return {(f"s{i % 97}", f"r{i % 7}", f"{tag}{i}") for i in range(n)}

    for tp, fp, fn, want in ((3000, 1000, 3000, (0.75, 0.5, 0.6)),
                             (2718, 1414, 3141, None)):
        shared = _triples("t", tp)
        pred = shared | _triples("p", fp)
        gold = shared | _triples("g", fn)
        assert (len(pred), len(gold)) == (tp + fp, tp + fn)
        m = triple_prf(pred, gold)
        assert m["tp"] == tp
        if want is not None:
            assert (m["precision"], m["recall"], m["f1"]) == want
        assert m["f1"] == pytest.approx(2 * tp / (2 * tp + fp + fn), rel=1e-12)
        # the integer-micro rule q_mention_coverage reports
        micros = (tp * 1_000_000 // (tp + fp), tp * 1_000_000 // (tp + fn),
                  2 * tp * 1_000_000 // (2 * tp + fp + fn))
        for got, mic in zip((m["precision"], m["recall"], m["f1"]), micros):
            assert abs(got * 1_000_000 - mic) <= 1


def test_tag_prf_perfect_and_partial():
    y = ["B-LOC", "E-LOC", "O", "S-PER"]
    assert tag_prf(y, y)["f1"] == pytest.approx(1.0)
    m = tag_prf(y, ["B-LOC", "O", "O", "S-PER"])
    assert 0 < m["f1"] < 1


def test_budget_truncation():
    items = ["a" * 100, "b" * 10, "c" * 50]
    kept, dropped = truncate_to_budget(items, budget=40)
    assert dropped[0] == "a" * 100  # largest removed first
    assert kept == ["b" * 10, "c" * 50]
    assert sum(estimate_tokens(t) for t in kept) <= 40
    assert estimate_tokens("xy") == 1


def test_prompt_assembly():
    p = assemble_prompt("TPL", "DATA")
    assert p.startswith("TPL") and p.endswith("DATA")
    ctx = assemble_prompt("TPL", "DATA", context_mode=True)
    assert ctx == {"system": "TPL", "user_data": "DATA"}
    hist = [{"role": "system"}] + [{"role": "user", "i": i} for i in range(10)]
    rolled = rolling_history(hist, keep_turns=5)
    assert len(rolled) == 5 and rolled[0]["role"] == "system"
    assert rolled[-1] == hist[-1]


def test_structurer_slot_batch():
    import pandas as pd

    slot = StructurerSlot(model_fn=lambda c: c.upper())
    out = slot(pd.DataFrame({"chunk": ["ab", "cd"]}))
    assert list(out["structured_md"]) == ["AB", "CD"]


def test_extract_quarantines_bad_rows():
    batch = pa.table(
        {
            "url": ["u1", "u2", "u3"],
            "html": [
                b"\xff\xfe\x00bad-not-utf8\x80",
                "<html><body><h1 class=\"lemmaTitle_x\">ok</h1></body></html>".encode(),
                "百度安全验证".encode(),
            ],
        }
    )
    stats: dict = {}
    out = extract_parse_batch(batch, stats=stats)
    assert out.num_rows == 1
    assert stats["pages_failed_decode"] == 1
    assert stats["pages_dropped_verification"] == 1


def test_bfs_caps(ray_session, pages_small):
    from knowledgegraph__bh_ray.pipelines import kg

    out = kg.bfs_reachable(kg.parsed_ds(pages_small), "https://baike.baidu.com/item/doc0/0",
                           max_depth=1, max_nodes=3)
    assert len(out) <= 3
    assert out["depth"].max() <= 1
    assert (out["depth"] == 0).sum() == 1


def test_train_val_split(ray_session):
    import ray.data as rd

    from knowledgegraph__bh_ray.sources import train_val_split

    ds = rd.range(100)
    train, val = train_val_split(ds, val_frac=0.2, seed=42)
    assert train.count() == 80 and val.count() == 20
    # seeded → deterministic
    train2, val2 = train_val_split(rd.range(100), val_frac=0.2, seed=42)
    assert sorted(r["id"] for r in val.take_all()) == sorted(r["id"] for r in val2.take_all())


def test_rag_context_format():
    import pandas as pd

    from knowledgegraph__bh_ray.stages.embed import format_rag_context

    concepts = pd.DataFrame({"name": ["机器学习"], "similarity": [0.9123]})
    relations = pd.DataFrame({"phrase": ["A 包含 B"], "similarity": [0.5]})
    out = format_rag_context(concepts, relations)
    assert "相关概念：" in out and "机器学习 (相似度: 0.9123)" in out
    assert "相关关系：" in out and "A 包含 B" in out


def test_reduce_side_anti_join_equals_pandas(ray_session):
    import pandas as pd
    import ray.data as rd

    from knowledgegraph__bh_ray.stages.grouped import reduce_side_join

    data = pd.DataFrame({"k": [f"k{i}" for i in range(30)], "v": range(30)})
    keys = pd.DataFrame({"kk": [f"k{i}" for i in range(0, 30, 3)]})
    got = (
        reduce_side_join(rd.from_pandas(data), ["k", "v"], "k",
                         rd.from_pandas(keys), "kk", how="anti")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = data[~data["k"].isin(keys["kk"])].sort_values("k").reset_index(drop=True)
    assert got["k"].tolist() == want["k"].tolist()
    assert [int(x) for x in got["v"]] == want["v"].tolist()


def test_node_parents_equals_pandas_left_merge(ray_session, pages_small):
    """node_parents_ds equals a pandas left merge of the deduped nodes on
    parent = id (dangling → ''): on one parentless node, on a child→parent
    pair (the shapes that leave shuffle partitions empty on one side) and
    on the sf0.001 pages."""
    import pandas as pd
    import ray.data as rd

    from knowledgegraph__bh_ray.pipelines import kg
    from knowledgegraph__bh_ray.stages.extract import PARSED_SCHEMA

    def _parsed(nodes):
        return rd.from_arrow(pa.Table.from_pylist([{
            "url": "https://x.example/p", "title": "p", "summary": "", "text_out": "",
            "n_paras": 0, "links": [], "triples": [],
            "nodes": [{"seq": str(i), "id": nid, "name": name, "type": "T",
                       "parent": parent, "props_json": "{}"}
                      for i, (nid, name, parent) in enumerate(nodes)],
        }], schema=PARSED_SCHEMA))

    sources = [
        lambda: _parsed([("n1", "One", "")]),
        lambda: _parsed([("n1", "One", ""), ("n2", "Two", "n1")]),
        lambda: kg.parsed_ds(pages_small),
    ]
    for source in sources:
        nodes_ds = kg.nodes_ds(source()).materialize()
        got = kg.node_parents_ds(nodes_ds).to_pandas()
        nodes = nodes_ds.to_pandas()
        want = nodes[["id", "name", "parent"]].merge(
            nodes[["id", "name"]].rename(columns={"id": "parent", "name": "parent_name"}),
            on="parent", how="left",
        ).fillna({"parent_name": ""})
        key = ["id"]
        pd.testing.assert_frame_equal(
            got[["id", "name", "parent", "parent_name"]].sort_values(key)
            .reset_index(drop=True),
            want.sort_values(key).reset_index(drop=True),
        )


def test_events_quantiles_match_numpy_rule(ray_session):
    """Engine quantiles over sf0.001 events equal the percentile_disc rule
    (pos = max(1, ceil(q*N)) of the ascending integer cents) computed
    directly in pandas."""
    import math

    import numpy as np
    import pyarrow.parquet as pq

    from knowledgegraph__bh_ray.pipelines.relational import events_quantiles_ds

    got = events_quantiles_ds("/root/testdata/sf0.001").to_pandas()
    ev = pq.read_table("/root/testdata/sf0.001/events.parquet",
                       columns=["event_type", "value"]).to_pandas()
    ev["cents"] = np.floor(ev["value"] * 100).astype("int64")
    for (etype, q), grp in got.groupby(["event_type", "q"]):
        vals = np.sort(ev.loc[ev["event_type"] == etype, "cents"].to_numpy())
        pos = max(1, math.ceil(q * len(vals)))
        assert int(grp["value_cents"].iloc[0]) == int(vals[pos - 1]), (etype, q)


def test_stratified_sample_deterministic_and_sized(ray_session):
    from knowledgegraph__bh_ray.pipelines.relational import stratified_sample_ds

    a = stratified_sample_ds("/root/testdata/sf0.001", per_stratum=5).to_pandas()
    b = stratified_sample_ds("/root/testdata/sf0.001", per_stratum=5).to_pandas()
    key = ["lang", "doc_id"]
    assert a.sort_values(key).reset_index(drop=True).equals(
        b.sort_values(key).reset_index(drop=True)
    )
    assert (a.groupby("lang").size() <= 5).all()


def test_salted_lookup_equals_unsalted(ray_session):
    """Zipf-skew guard: the salted reduce-side lookup (lut replicated per
    salt bucket) produces identical output to the unsalted path."""
    import pandas as pd
    import ray.data as rd

    from knowledgegraph__bh_ray.stages.grouped import reduce_side_join

    data = pd.DataFrame(
        {"rid": range(200), "k": ["hot"] * 150 + [f"k{i}" for i in range(50)]}
    )
    lut = pd.DataFrame({"kk": ["hot"] + [f"k{i}" for i in range(50)],
                        "v": ["H"] + [f"v{i}" for i in range(50)]})
    kw = dict(cols=["rid", "k"], key_col="k", other_key="kk", vals=["v"])
    plain = (
        reduce_side_join(rd.from_pandas(data), other_ds=rd.from_pandas(lut), **kw)
        .to_pandas().sort_values("rid").reset_index(drop=True)
    )
    salted = (
        reduce_side_join(rd.from_pandas(data), other_ds=rd.from_pandas(lut),
                         salt_from="rid", salt_buckets=4, **kw)
        .to_pandas().sort_values("rid").reset_index(drop=True)
    )
    assert plain[["rid", "k", "v"]].astype(str).equals(salted[["rid", "k", "v"]].astype(str))
    assert len(plain) == 200


def test_hll_accuracy_and_merge_invariance(ray_session):
    """HLL estimate within 5% of exact per group; partitioning cannot
    change the result (register max is associative)."""
    import numpy as np
    import pyarrow.parquet as pq

    from knowledgegraph__bh_ray.functions.hll import hll_estimate, hll_rows
    from knowledgegraph__bh_ray.pipelines.textops import distinct_users_hll_ds

    sf = "/root/testdata/sf0.001"
    got = distinct_users_hll_ds(sf).to_pandas().set_index("event_type")["n_users_est"]
    ev = pq.read_table(f"{sf}/events.parquet", columns=["event_type", "user_id"]).to_pandas()
    exact = ev.groupby("event_type")["user_id"].nunique()
    for etype, n in exact.items():
        err = abs(int(got[etype]) - n) / n
        assert err <= 0.05, (etype, int(got[etype]), n, err)

    # merge invariance: single-shot rows == max-merged split rows
    vals = [f"u{i}" for i in range(5000)]
    whole = hll_rows(vals)
    import pandas as pd

    parts = pd.concat([hll_rows(vals[:1700]), hll_rows(vals[1700:3400]), hll_rows(vals[3400:])])
    merged = parts.groupby("idx", sort=False, as_index=False)["rho"].max()
    a = whole.sort_values("idx").reset_index(drop=True)
    b = merged.sort_values("idx").reset_index(drop=True)
    assert a.equals(b)
    assert hll_estimate(a["idx"].to_numpy(), a["rho"].to_numpy()) == hll_estimate(
        b["idx"].to_numpy(), b["rho"].to_numpy()
    )


def test_asof_join_semantics(ray_session, tmp_path):
    """As-of join: most-recent-at-or-before match per user, ties broken by
    greatest click_id, unmatched purchases keep -1 sentinels, other event
    types ignored."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from knowledgegraph__bh_ray.pipelines.relational import events_asof_join_ds

    t0 = dt.datetime(2024, 1, 1)
    us = dt.timedelta(microseconds=1)

    def row(eid, off_us, uid, etype):
        return (eid, t0 + off_us * us, uid, etype)

    rows = [
        row(1, 100, 7, "click"),
        row(2, 200, 7, "click"),
        row(3, 200, 7, "click"),     # tie with 2 → greatest id wins
        row(4, 200, 7, "purchase"),  # exact match allowed → click 3
        row(5, 150, 7, "purchase"),  # → click 1
        row(6, 50, 7, "purchase"),   # no prior click → sentinels
        row(7, 300, 8, "view"),      # ignored type
        row(8, 400, 8, "purchase"),  # user 8 has no clicks → sentinels
    ]
    tbl = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
            "event_type": [r[3] for r in rows],
        }
    )
    pq.write_table(tbl, str(tmp_path / "events.parquet"))
    got = events_asof_join_ds(str(tmp_path)).to_pandas()
    by_id = {r.purchase_id: r for r in got.itertuples()}
    assert set(by_id) == {4, 5, 6, 8}
    assert by_id[4].click_id == 3 and by_id[4].gap_us == 0
    assert by_id[5].click_id == 1 and by_id[5].gap_us == 50
    assert by_id[6].click_id == -1 and by_id[6].gap_us == -1
    assert by_id[8].click_id == -1 and by_id[8].click_ts_us == -1


def test_token_budget_greedy_equals_sql_window_rule():
    """The token_budget mirror's claim — greedy drop-largest ≡ 'drop iff
    the running total BEFORE this row (ordered by estimate DESC, position
    ASC) still exceeds the budget' — pinned by randomized differential
    against DuckDB, no Ray needed."""
    import duckdb
    import numpy as np

    from knowledgegraph__bh_ray.functions.budget import (estimate_tokens,
                                                         truncate_to_budget)

    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(0, 12))
        items = ["x" * int(rng.integers(0, 30)) for _ in range(n)]
        budget = int(rng.integers(0, 80))
        kept, dropped = truncate_to_budget(items, budget=budget)
        n_kept = len(kept)
        est_kept = sum(estimate_tokens(t) for t in kept)
        if not items:
            assert n_kept == 0 and est_kept == 0
            continue
        rows = ", ".join(f"({i + 1}, {len(t) // 2})"
                         for i, t in enumerate(items))
        got = duckdb.sql(f"""
            WITH est AS (SELECT * FROM (VALUES {rows}) AS t(pos, est)),
            w AS (SELECT pos, est,
                         sum(est) OVER () AS total,
                         coalesce(sum(est) OVER (
                             ORDER BY est DESC, pos
                             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                         ), 0) AS cum_before
                  FROM est)
            SELECT count(*) FILTER (NOT (total - cum_before > {budget})),
                   coalesce(sum(est) FILTER (NOT (total - cum_before > {budget})), 0)
            FROM w
        """).fetchone()
        assert (int(got[0]), int(got[1])) == (n_kept, est_kept), (
            trial, items, budget)


def test_heavy_hitters_exact_vs_brute_force(ray_session, tmp_path):
    """Skewed fixture: the MG-pruned two-pass result must equal the plain
    brute-force rule (count > total // denom) exactly, and the sketch pass
    must never prune a true heavy hitter (tiny mg_k stresses the bound)."""
    from collections import Counter

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from knowledgegraph__bh_ray.pipelines.textops import heavy_hitters_ds

    rng = np.random.default_rng(41)
    # Zipf-ish: 'hot' dominates, a mid tier, and a long unique tail
    words = (["hot"] * 400 + ["warm"] * 120 + ["mild"] * 60
             + [f"u{i}" for i in range(800)])
    rng.shuffle(words)
    texts = [" ".join(words[i::10]) for i in range(10)]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(10), pa.int64()), "text": texts}),
        str(tmp_path / "documents.parquet"))

    denom = 20  # threshold = 1380 // 20 = 69 → {hot, warm} qualify
    got = (heavy_hitters_ds(str(tmp_path), denom=denom, mg_k=64)
           .to_pandas().sort_values("term").reset_index(drop=True))
    wc = Counter(w for t in texts for w in t.split())
    total = sum(wc.values())
    want = sorted((t, c) for t, c in wc.items() if c > total // denom)
    assert [(r.term, r.cnt) for r in got.itertuples()] == want
    assert set(got["term"]) == {"hot", "warm"}
    # exactness: counts are TRUE counts, not MG lower bounds
    assert int(got.set_index("term").loc["hot", "cnt"]) == wc["hot"]


def test_count_regex_matches_python_findall():
    """The Arrow RE2 counting kernel must count IDENTICALLY to Python
    re.findall for the three counting patterns it replaced (mirror hashes
    depend on it) — randomized mixed CJK/ASCII/punct/whitespace corpus."""
    import numpy as np
    import pandas as pd

    from knowledgegraph__bh_ray.pipelines.textops import (
        RE_BPE,
        RE_CJK,
        RE_PUNCT,
        _count_regex,
    )

    rng = np.random.RandomState(17)
    words = ["hello", "world's", "机器", "学习概念", "test123", "a.b,c!?",
             "概念:关系;", "  spaced\tout  ", "'ll", "x'removed", "12,34.5",
             "", "——破折号", "naïve café"]
    texts = pd.Series(
        [" ".join(rng.choice(words, rng.randint(0, 60))) for _ in range(400)]
        + ["", "   ", "纯中文没有空格的一段话，包括标点。"]
    )
    for pat in (RE_CJK, RE_PUNCT, RE_BPE):
        got = _count_regex(texts, pat.pattern)
        want = texts.map(lambda t, p=pat: len(p.findall(t))).to_numpy()
        assert (got == want).all(), pat.pattern


def test_scratch_root_removed_at_exit():
    """A process's scratch root (``kg_run`` and the sink queries write
    under it) is deleted when the process exits, files and all."""
    import os
    import subprocess
    import sys

    code = (
        "import os\n"
        "from knowledgegraph__bh_ray import queries\n"
        "d = queries._scratch('sf0.001', 'probe')\n"
        "os.makedirs(d)\n"
        "open(os.path.join(d, 'part-0.parquet'), 'w').close()\n"
        "print(os.path.dirname(d))\n"
    )
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], cwd=repo, capture_output=True,
                         text=True, check=True).stdout
    root = out.strip().splitlines()[-1]
    assert os.path.basename(root).startswith("pid")
    assert not os.path.exists(root)
