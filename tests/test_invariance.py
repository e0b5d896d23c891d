"""Property tests: results are independent of partitioning / batch size /
parallelism — the guarantee that makes the salted aggregation correct and
resume ≡ fresh run possible (SURVEY.md §5(c))."""

import pandas as pd

from knowledgegraph__bh_ray.pipelines import kg
from knowledgegraph__bh_ray.sources import read_pages
from knowledgegraph__bh_ray.stages.extract import extract_parse_batch
from knowledgegraph__bh_ray.stages.grouped import count_first_block, salted_grouped_agg


def _edges_with(pages_path, batch_size, salt_buckets, num_blocks):
    pages = read_pages(pages_path, columns=["url", "html"])
    if num_blocks:
        pages = pages.repartition(num_blocks)
    parsed = pages.map_batches(
        extract_parse_batch, batch_format="pyarrow", batch_size=batch_size
    ).materialize()
    node_ids = frozenset(kg.nodes_ds(parsed, salt_buckets=salt_buckets).to_pandas()["id"])
    return (
        kg.edges_ds(parsed, node_ids=node_ids, salt_buckets=salt_buckets)
        .to_pandas()[["subj", "pred", "obj", "weight"]]
        .sort_values(["subj", "pred", "obj"])
        .reset_index(drop=True)
    )


def test_edges_invariant_to_partitioning(ray_session, pages_small):
    base = _edges_with(pages_small, batch_size=256, salt_buckets=16, num_blocks=None)
    small_batches = _edges_with(pages_small, batch_size=17, salt_buckets=3, num_blocks=7)
    pd.testing.assert_frame_equal(base, small_batches)


def test_salted_agg_equals_pandas_groupby(ray_session):
    """Both arms of the aggregation (salted: no estimate; local: a small
    one) equal pandas: keep-first, count+first under _edge_agg's adjacency
    finish, and a zero-row input."""
    import numpy as np
    import ray
    import ray.data as rd

    from knowledgegraph__bh_ray.functions.hashing import bucket_of
    from knowledgegraph__bh_ray.stages.grouped import (
        LOCAL_AGG_HEAP_PER_BYTE,
        LOCAL_AGG_MAX_ROWS,
        SizeEstimate,
        keep_first_block,
        plan_arm,
    )

    rng = np.random.default_rng(0)
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 20, 500).astype(str),
            "seq": [f"{i:05d}" for i in rng.permutation(500)],
            "url": [f"u{i % 37}" for i in range(500)],
            "v": rng.integers(0, 100, 500),
        }
    )
    first = df.sort_values("seq", kind="mergesort").drop_duplicates("k", keep="first")
    keep_exp = first.sort_values("k").reset_index(drop=True)
    count_exp = (
        first.merge(df.groupby("k").size().rename("weight").reset_index(), on="k")
        .sort_values("k")
        .reset_index(drop=True)
    )
    # triples over 6 subjects: the adjacency finish buckets and sorts them
    tri = df.assign(subj=df["k"].map(lambda k: f"s{int(k) % 6}"), pred="p",
                    obj=df["v"].map(lambda v: f"o{v % 4}"))
    edge_first = tri.sort_values("seq", kind="mergesort").drop_duplicates(kg.EDGE_KEYS)
    edge_exp = (
        edge_first.merge(tri.groupby(kg.EDGE_KEYS).size().rename("weight").reset_index(),
                         on=kg.EDGE_KEYS)
        .sort_values(kg.EDGE_KEYS)
        .reset_index(drop=True)
    )

    local = SizeEstimate(len(df), int(df.memory_usage(deep=True).sum()))
    assert plan_arm(local) == "local"
    assert plan_arm(None) == "salted"
    assert plan_arm(SizeEstimate(LOCAL_AGG_MAX_ROWS + 1, 0)) == "salted"
    assert plan_arm(SizeEstimate(1, 1 << 60)) == "salted"
    # the heap bound: a quarter of the smallest node's object store
    store = min(n["Resources"]["object_store_memory"] for n in ray.nodes() if n["Alive"])
    cap = int(store / 4 / LOCAL_AGG_HEAP_PER_BYTE)
    assert plan_arm(SizeEstimate(1, cap)) == "local"
    assert plan_arm(SizeEstimate(1, cap + 1)) == "salted"

    def frame(out) -> pd.DataFrame:
        # the local arm hands back its driver-side frame, the salted one a Dataset
        return out if isinstance(out, pd.DataFrame) else out.to_pandas()

    for est in (None, local):
        arm = plan_arm(est)

        def agg(block_agg):
            return frame(salted_grouped_agg(
                rd.from_pandas(df).repartition(11), keys=["k"], block_agg=block_agg,
                salt_from="url", salt_buckets=5, est=est,
            )).sort_values("k").reset_index(drop=True)

        out = agg(count_first_block(["k"], "seq"))
        pd.testing.assert_frame_equal(
            out[["k", "seq", "v", "weight"]],
            count_exp[["k", "seq", "v", "weight"]].astype({"weight": out["weight"].dtype}),
            obj=f"{arm}/count_first",
        )
        out = agg(keep_first_block(["k"], "seq"))
        pd.testing.assert_frame_equal(out[["k", "seq", "url", "v"]],
                                      keep_exp[["k", "seq", "url", "v"]], obj=f"{arm}/keep_first")

        edges = frame(kg._edge_agg(rd.from_pandas(tri).repartition(11), salt_buckets=5,
                                   est=est))
        for b, rows in edges.groupby("subj_bucket", sort=False):
            assert {bucket_of(x, kg.ADJACENCY_BUCKETS) for x in rows["subj"]} == {b}, arm
            keys = rows[kg.EDGE_KEYS].reset_index(drop=True)
            pd.testing.assert_frame_equal(keys, keys.sort_values(kg.EDGE_KEYS).reset_index(drop=True))
        edges = edges.sort_values(kg.EDGE_KEYS).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            edges[kg.EDGE_KEYS + ["seq", "weight"]],
            edge_exp[kg.EDGE_KEYS + ["seq", "weight"]].astype({"weight": edges["weight"].dtype}),
            obj=f"{arm}/adjacency",
        )

        empty = kg._edge_agg(rd.from_pandas(tri.iloc[:0]), salt_buckets=5, est=est)
        assert len(frame(empty)) == 0, arm


def test_collect_if_local_follows_plan_arm(ray_session):
    """The graph and text operators' size dispatch is ``plan_arm``'s rule:
    a materialized Dataset comes back as a frame when the row cap is at or
    above its row count and ``None`` below it; unknown bytes go
    distributed; a lazy Dataset is refused (sizing would execute it)."""
    from unittest import mock

    import pytest
    import ray.data as rd

    from knowledgegraph__bh_ray.stages import grouped

    df = pd.DataFrame({"node": [f"n{i:02d}" for i in range(50)],
                       "deg": pd.Series(range(50), dtype="int64")})

    def lazy():
        return rd.from_pandas(df).map_batches(lambda d: d, batch_format="pandas")

    ds = lazy().materialize()
    for cap in (len(df), len(df) + 1):
        with mock.patch.object(grouped, "LOCAL_AGG_MAX_ROWS", cap):
            out = grouped.collect_if_local(ds)
        pd.testing.assert_frame_equal(out.sort_values("node").reset_index(drop=True), df)
    with mock.patch.object(grouped, "LOCAL_AGG_MAX_ROWS", len(df) - 1):
        assert grouped.collect_if_local(ds) is None
    with mock.patch.object(ds, "size_bytes", return_value=None):
        assert grouped.collect_if_local(ds) is None
    with pytest.raises(TypeError):
        grouped.collect_if_local(lazy())


def test_reduce_side_ops_partition_invariance(ray_session):
    """Every reduce-side join type equals its pandas result at any partition
    count — including more partitions than distinct keys (empty shuffle
    partitions) and an empty other side."""
    import pandas as pd
    import ray.data as rd

    from knowledgegraph__bh_ray.stages.grouped import reduce_side_join

    data = pd.DataFrame({"rid": range(120), "k": [f"k{i % 17}" for i in range(120)]})
    lut = pd.DataFrame({"kk": [f"k{i}" for i in range(0, 17, 2)],
                        "v": [f"v{i}" for i in range(0, 17, 2)]})

    def expected(how, other):
        hit = data["k"].isin(other["kk"])
        if how == "semi":
            return data[hit]
        if how == "anti":
            return data[~hit]
        m = data.merge(other, left_on="k", right_on="kk", how=how)
        return m[["rid", "k", "v"]]

    def norm(df, cols):
        if not len(df):
            return pd.DataFrame({c: pd.Series([], dtype=str) for c in cols})
        df = df[cols].astype(object)
        df = df.where(df.notna(), None).astype(str)
        return df.sort_values("rid", key=lambda s: s.astype(int)).reset_index(drop=True)

    for how in ("inner", "left", "semi", "anti"):
        vals = ["v"] if how in ("inner", "left") else []
        cols = ["rid", "k"] + vals
        for other in (lut, lut.iloc[:0]):
            want = norm(expected(how, other), cols)
            for parts in (3, 64):  # 64 > 17 keys: most partitions empty
                got = reduce_side_join(
                    rd.from_pandas(data).repartition(5), ["rid", "k"], "k",
                    rd.from_pandas(other), "kk", vals, how=how, num_parts=parts,
                ).to_pandas()
                pd.testing.assert_frame_equal(norm(got, cols), want,
                                              obj=f"{how}/{len(other)}/{parts}")


def test_node_similarity_partition_invariance(ray_session):
    """node_similarity output must not depend on num_parts (every exchange
    is keyed; pair generation happens only within a middle's full run)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from knowledgegraph__bh_ray.stages.pagerank import node_similarity_ds

    rng = np.random.default_rng(33)
    edges = list({(f"v{a}", f"v{b}") for a, b in rng.integers(0, 25, (90, 2)) if a != b})
    ds = rd.from_pandas(pd.DataFrame(edges, columns=["src_url", "dst_url"]))

    def run(parts):
        return (
            node_similarity_ds(ds, num_parts=parts)
            .to_pandas()
            .sort_values(["node_a", "node_b"])
            .reset_index(drop=True)
        )

    pd.testing.assert_frame_equal(run(2), run(7))


def test_profile_documents_partition_invariance(ray_session, tmp_path):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from knowledgegraph__bh_ray.pipelines.textops import profile_documents_ds

    rng = np.random.default_rng(4)
    n = 300
    # two files so the read produces multiple blocks
    for i, sl in enumerate((slice(0, 150), slice(150, n))):
        ids = np.arange(n, dtype="int64")[sl]
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "text": ["x"] * len(ids),
                    "lang": rng.choice(["en", "zh", "de"], len(ids)).tolist(),
                    "source": rng.choice(["a", "b"], len(ids)).tolist(),
                    "n_chars": pa.array(rng.integers(1, 50, len(ids)), pa.int64()),
                }
            ),
            str(tmp_path / f"documents_{i}.parquet"),
        )
    import shutil
    # profile reads documents.parquet; build a directory-compatible single file
    # by concatenating both halves deterministically
    both = pa.concat_tables([pq.read_table(str(tmp_path / f"documents_{i}.parquet")) for i in (0, 1)])
    pq.write_table(both, str(tmp_path / "documents.parquet"))

    a = profile_documents_ds(str(tmp_path)).to_pandas().sort_values("column").reset_index(drop=True)
    b = profile_documents_ds(str(tmp_path)).to_pandas().sort_values("column").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    # sanity vs pandas truth
    df = both.to_pandas()
    row = a.set_index("column").loc["lang"]
    assert row["n_distinct"] == df["lang"].nunique() and row["n_rows"] == n


def test_exchange_is_the_only_keyed_shuffle():
    """Every keyed shuffle in the package goes through stages/grouped.py
    (``exchange`` and what is built on it): ``map_groups`` and Ray's Arrow
    hash join (``join_type=``) appear nowhere else, and the old
    ``coalesced_groupby`` entry is gone."""
    import pathlib

    import knowledgegraph__bh_ray

    root = pathlib.Path(knowledgegraph__bh_ray.__file__).parent
    hits = {}
    for path in sorted(root.rglob("*.py")):
        src = path.read_text(encoding="utf-8")
        rel = path.relative_to(root).as_posix()
        for needle in ("map_groups", "join_type=", "coalesced_groupby"):
            if needle in src:
                hits.setdefault(needle, set()).add(rel)
    assert hits.get("map_groups", set()) <= {"stages/grouped.py"}, hits
    assert hits.get("join_type=", set()) <= {"stages/grouped.py"}, hits
    assert "coalesced_groupby" not in hits, hits


def test_no_user_selected_plans():
    """Each operator has one plan, chosen from its input: no module reads
    an environment variable or takes a join-mode switch, no function takes
    a ``*_threshold`` parameter (a caller-chosen plan cutoff; similarity
    cutoffs are named plain ``threshold``: they set what a query returns,
    not how it runs), and the deleted counted size dispatch and its
    constant are named nowhere, so ``plan_arm`` is the one size rule.  (The
    needles are split so that a grep for the deleted names finds no test
    either.)"""
    import ast
    import pathlib

    import knowledgegraph__bh_ray

    root = pathlib.Path(knowledgegraph__bh_ray.__file__).parent
    hits = []
    for path in sorted(root.rglob("*.py")):
        src = path.read_text(encoding="utf-8")
        rel = path.relative_to(root).as_posix()
        hits += [(rel, needle)
                 for needle in ("os." "environ", "get" "env", "join" "_mode",
                                "collect_if_" "small", "SIZE_DISPATCH_" "THRESHOLD")
                 if needle in src]
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [
                    p for p in (a.vararg, a.kwarg) if p is not None]
                hits += [(rel, p.arg) for p in params if p.arg.endswith("_" "threshold")]
    assert hits == [], hits


def test_no_actor_pools_in_the_kg_dag():
    """Only the import-gated model slots (media decoder, embedder, PDF
    reader) size an actor pool; every tagger and the linker run as plain
    map tasks over a broadcast."""
    import pathlib

    import knowledgegraph__bh_ray

    root = pathlib.Path(knowledgegraph__bh_ray.__file__).parent
    hits = sorted(
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if "concurrency" "=" in path.read_text(encoding="utf-8")
    )
    assert hits == ["stages/embed.py", "stages/media.py", "stages/pdf.py"], hits
