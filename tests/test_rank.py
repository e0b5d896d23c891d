"""Gates for the distributed sorted-rank op (stages/rank.py): equality vs a
serial argsort on skewed string keys, boundary-sample independence, and the
tiny-input path (sample smaller than the bucket count)."""

from __future__ import annotations

import numpy as np
import pandas as pd


def test_sorted_rank_matches_serial_argsort(ray_session):
    import ray.data as rd

    from knowledgegraph__bh_ray.stages.rank import attach_sorted_rank

    rng = np.random.RandomState(11)
    # skewed prefixes: most urls share one shard prefix (Zipfian host)
    urls = [
        f"https://hot.example.com/item/{rng.randint(0, 10**9)}_{i}"
        if i % 4 else f"https://cold{i}.example.com/p"
        for i in range(4000)
    ]
    df = pd.DataFrame({"url": urls, "val": np.arange(4000, dtype="int64")})
    got = (
        attach_sorted_rank(rd.from_pandas(df).repartition(11), "url")
        .to_pandas()
        .sort_values("rank")
        .reset_index(drop=True)
    )
    want = df.sort_values("url", kind="mergesort").reset_index(drop=True)
    assert list(got["rank"]) == list(range(len(df)))
    assert list(got["url"]) == list(want["url"])
    assert list(got["val"]) == list(want["val"])


def test_sorted_rank_bucket_count_independence(ray_session):
    import ray.data as rd

    from knowledgegraph__bh_ray.stages.rank import attach_sorted_rank

    df = pd.DataFrame({"url": [f"k{i:04d}" for i in range(300)][::-1]})
    outs = []
    # 40 buckets share 16 partitions: each partition ranks several buckets
    for nb in (2, 7, 16, 40):
        out = (
            attach_sorted_rank(rd.from_pandas(df).repartition(5), "url",
                               num_buckets=nb, sample_k=64)
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )
        outs.append(list(out["rank"]))
    assert outs[0] == outs[1] == outs[2] == outs[3] == list(range(300))


def test_sorted_rank_tiny_input(ray_session):
    import ray.data as rd

    from knowledgegraph__bh_ray.stages.rank import attach_sorted_rank

    df = pd.DataFrame({"url": ["b", "a"]})
    out = attach_sorted_rank(rd.from_pandas(df), "url").to_pandas()
    assert dict(zip(out["url"], out["rank"])) == {"a": 0, "b": 1}
