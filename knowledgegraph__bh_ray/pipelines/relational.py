"""Relational operators over the TPC-H-ish testdata tables.

General query/data-processing capability of the engine — grouped aggregates
with per-batch partials, broadcast hash joins, global sort + limit, and the
event-stream windowing ops (tumbling window, gap sessionization) that cover
the "streaming-shaped" surface (SURVEY.md §2.9: the reference is batch-only;
these are the engine's additions, expressed as per-partition reduces over
one keyed ``exchange`` of a time-sorted log, per the Ray guide).

Numeric policy for the DuckDB gate: aggregate integers only — floats are
floored to integer cents *per row* before summation (`floor(x*100)` is
IEEE-deterministic, summation of int64 is exact and order-independent),
so distributed vs single-process sums hash identically.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..sources import read_table


def agg_lineitem_ds(sf_dir: str):
    """Pricing-summary aggregate (TPC-H Q1 shape): per (returnflag,
    linestatus) — integer quantities/cents, exact across partitionings."""
    from ..stages.grouped import hash_partitioned_agg

    KEYS = ["l_returnflag", "l_linestatus"]
    SUMS = ["sum_qty", "sum_price_cents", "sum_disc_price_cents", "n_rows"]

    def _to_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "sum_qty": np.floor(batch["l_quantity"]).astype("int64"),
                "sum_price_cents": np.floor(batch["l_extendedprice"] * 100).astype("int64"),
                "sum_disc_price_cents": np.floor(
                    batch["l_extendedprice"] * (1.0 - batch["l_discount"]) * 100
                ).astype("int64"),
                "n_rows": np.int64(1),
            }
        )

    def _agg(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(KEYS, sort=False, as_index=False)[SUMS].sum()

    li = read_table(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )
    rows = li.map_batches(_to_rows, batch_format="pandas")
    return hash_partitioned_agg(rows, KEYS, _agg, num_parts=4)


def join_volume_ds(sf_dir: str):
    """Revenue per nation: lineitem ⋈ orders ⋈ customer ⋈ nation.

    Join tiers by the tables' TRUE scale behavior: nation is the only real
    dimension table (25 rows — a closure-captured dict).  CUSTOMER scales
    with the fact tables (TPC-H SF×150k; at 100 TB it does not fit a
    worker), so orders ⋈ customer is a reduce-side lookup on custkey —
    round-2 verdict #4 removed the composed custkey→nation broadcast.
    ORDERS likewise: lineitem ⋈ orders is a reduce-side lookup on orderkey
    (both sides streamed, no broadcast).  Partial per-batch revenue
    collapse happens BEFORE the orderkey shuffle so only (orderkey, cents)
    partials move."""
    from ..stages.grouped import hash_partitioned_agg, reduce_side_join

    nation = read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"]).to_pandas()
    nk2name = dict(zip(nation["n_nationkey"], nation["n_name"]))

    # customer side: (custkey, nation name) — nation attach is per-batch
    # against the 25-row dict; the custkey table itself stays distributed
    def _cust_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"c_custkey": batch["c_custkey"], "n_name": batch["c_nationkey"].map(nk2name)}
        )

    cust_ds = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).map_batches(
        _cust_rows, batch_format="pandas"
    )

    # orders side: (orderkey, nation) via reduce-side custkey lookup
    orders_ds = reduce_side_join(
        read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]),
        ["o_orderkey"], "o_custkey",
        cust_ds, "c_custkey", ["n_name"],
    )

    # fact side: pre-aggregate revenue per orderkey inside each batch
    def _li_partial(batch: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(
            batch["l_extendedprice"] * (1.0 - batch["l_discount"]) * 100
        ).astype("int64")
        d = pd.DataFrame(
            {"l_orderkey": batch["l_orderkey"], "revenue_cents": cents,
             "n_items": np.int64(1)}
        )
        return d.groupby("l_orderkey", sort=False, as_index=False)[
            ["revenue_cents", "n_items"]
        ].sum()

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])
    li_partial = li.map_batches(_li_partial, batch_format="pandas")

    joined = reduce_side_join(
        li_partial, ["l_orderkey", "revenue_cents", "n_items"], "l_orderkey",
        orders_ds, "o_orderkey", ["n_name"],
    )

    def _agg(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["n_name"].notna()]
        out = df.groupby("n_name", sort=False, as_index=False)[
            ["revenue_cents", "n_items"]
        ].sum()
        for c in ("revenue_cents", "n_items"):
            out[c] = out[c].astype("int64")
        return out

    def _pre(d: pd.DataFrame) -> pd.DataFrame:
        if "n_name" not in d.columns:
            return pd.DataFrame({"n_name": pd.Series([], dtype=object),
                                 "revenue_cents": pd.Series([], dtype="int64"),
                                 "n_items": pd.Series([], dtype="int64")})
        return d[["n_name", "revenue_cents", "n_items"]]

    return hash_partitioned_agg(
        joined.map_batches(_pre, batch_format="pandas"), ["n_name"], _agg, num_parts=4
    )


def top_parts_ds(sf_dir: str, k: int = 10):
    """Global sort + limit: top-k parts by retail price (tiebreak partkey)."""
    parts = read_table(sf_dir, "part", columns=["p_partkey", "p_name", "p_retailprice"])
    # single-key descending sort, then a deterministic tiebreak inside the
    # (tiny) k-row result
    return parts.sort(["p_retailprice", "p_partkey"], descending=[True, False]).limit(k)


def events_window_ds(sf_dir: str):
    """Tumbling 1-hour window per event_type: n events + floored value cents.
    Window key = floor(epoch_seconds / 3600) — computable per batch, so the
    only shuffle is the tiny post-partial groupby."""
    from ..stages.grouped import hash_partitioned_agg

    KEYS = ["event_type", "hour_bucket"]

    def _to_rows(batch: pd.DataFrame) -> pd.DataFrame:
        secs = batch["ts"].astype("datetime64[us]").astype("int64") / 1_000_000.0
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "hour_bucket": np.floor(secs / 3600.0).astype("int64"),
                "sum_value_cents": np.floor(batch["value"] * 100).astype("int64"),
                "n_events": np.int64(1),
            }
        )

    def _agg(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(KEYS, sort=False, as_index=False)[
            ["sum_value_cents", "n_events"]
        ].sum()

    ev = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])
    rows = ev.map_batches(_to_rows, batch_format="pandas")
    return hash_partitioned_agg(rows, KEYS, _agg)


def events_hopping_window_ds(sf_dir: str, size_min: int = 60, hop_min: int = 30):
    """Hopping (sliding) windows: size 1 h, hop 30 min → every event lands
    in size/hop = 2 overlapping windows.  Window membership is computed
    per batch with integer microsecond math (no shuffle until the tiny
    per-(type, window) partial groupby), the streaming-window shape the
    reference lacks (SURVEY §2.9 addition, alongside tumbling + sessions)."""
    from ..stages.grouped import hash_partitioned_agg

    size_us = size_min * 60 * 1_000_000
    hop_us = hop_min * 60 * 1_000_000
    n_hops = size_us // hop_us
    KEYS = ["event_type", "window_start_us"]

    def _to_rows(batch: pd.DataFrame) -> pd.DataFrame:
        s_us = batch["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        cents = np.floor(batch["value"] * 100).astype("int64").to_numpy()
        etype = batch["event_type"].to_numpy()
        win0 = (s_us // hop_us) * hop_us
        frames = []
        for k in range(n_hops):
            frames.append(
                pd.DataFrame(
                    {
                        "event_type": etype,
                        "window_start_us": win0 - k * hop_us,
                        "sum_value_cents": cents,
                        "n_events": np.int64(1),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    def _agg(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(KEYS, sort=False, as_index=False)[
            ["sum_value_cents", "n_events"]
        ].sum()

    ev = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])
    rows = ev.map_batches(_to_rows, batch_format="pandas")
    return hash_partitioned_agg(rows, KEYS, _agg)


QUANTILES = (0.25, 0.5, 0.75, 0.9, 0.99)


def events_quantiles_ds(sf_dir: str, qs: tuple = QUANTILES):
    """EXACT distributed quantiles per event_type over integer cents.

    The 100-TB shape: per-batch partial = a (event_type, cents) histogram
    (value_counts, vectorized), the only shuffle is over histogram rows —
    |types| × |distinct cents|, independent of row count — and the final
    per-type quantile walk is one cumsum over the merged histogram.
    Semantics = DuckDB ``percentile_disc``: 1-indexed position
    ``max(1, ceil(q·N))`` of the ascending values (verified empirically)."""
    from ..stages.grouped import exchange, hash_partitioned_agg

    def _hist(batch: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(batch["value"] * 100).astype("int64")
        vc = (
            pd.DataFrame({"event_type": batch["event_type"], "cents": cents})
            .groupby(["event_type", "cents"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        vc["n"] = vc["n"].astype("int64")
        return vc

    def _sum(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["event_type", "cents"], sort=False, as_index=False)["n"].sum()

    ev = read_table(sf_dir, "events", columns=["event_type", "value"])
    hist = hash_partitioned_agg(ev.map_batches(_hist, batch_format="pandas"),
                                ["event_type", "cents"], _sum, num_parts=4)

    def _quantiles(df: pd.DataFrame) -> pd.DataFrame:
        # every type routed here in one walk: per type, the q-quantile is
        # the first cents value whose running count reaches its position
        g = df.sort_values(["event_type", "cents"], kind="mergesort")
        n = g.groupby("event_type", sort=False)["n"]
        cum = n.cumsum().to_numpy()
        total = n.transform("sum").to_numpy()
        frames = []
        for q in qs:
            hit = g[cum >= np.maximum(1, np.ceil(q * total))]
            first = hit.drop_duplicates(subset=["event_type"])
            frames.append(pd.DataFrame({
                "event_type": first["event_type"].to_numpy(),
                "q": float(q),
                "value_cents": first["cents"].to_numpy(dtype="int64"),
            }))
        return pd.concat(frames, ignore_index=True)

    return exchange(hist, ["event_type"], _quantiles, 4)


def top_anchor_texts_ds(sf_dir: str, links_all_ds, k: int = 3):
    """Per-key top-k (heavy hitters): the k most frequent anchor texts per
    link target.  Count via the salted three-level machinery (Zipfian hrefs
    spread over salt buckets), then per-href rank inside hash partitions —
    one vectorized sort + groupby-head per partition, never per-key Python.
    Ties broken by text (deterministic)."""
    from ..stages.grouped import count_first_block, exchange, salted_grouped_agg

    def _to_rows(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[["href", "text"]].copy()
        out["url"] = batch["url"]  # salt origin
        out["seq"] = ""  # unused representative order
        return out

    counts = salted_grouped_agg(
        links_all_ds.map_batches(_to_rows, batch_format="pandas"),
        keys=["href", "text"],
        block_agg=count_first_block(["href", "text"], "seq", weight_col="n"),
        salt_from="url",
    )

    def _topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["href", "n", "text"], ascending=[True, False, True],
                              kind="mergesort")
        out = g.groupby("href", sort=False).head(k).reset_index(drop=True)
        out["rank"] = out.groupby("href", sort=False).cumcount().astype("int64") + 1
        return out[["href", "text", "n", "rank"]]

    return exchange(counts, ["href"], _topk, 8, map=lambda d: d[["href", "text", "n"]])


def stratified_sample_ds(sf_dir: str, per_stratum: int = 20):
    """Deterministic stratified sample: the ``per_stratum`` docs per lang
    with the smallest ``md5(doc_id)`` — hash-ranking makes the sample a
    pure function of the data (reproducible across engines and runs, SQL-
    mirrorable), and per-batch partial top-n per stratum is ASSOCIATIVE, so
    it merges like any other combiner: no shuffle of the corpus, only of
    |langs| × n candidate rows."""
    import hashlib

    from ..stages.grouped import hash_partitioned_agg

    def _rank(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[["doc_id", "lang"]].copy()
        out["h"] = [hashlib.md5(str(d).encode()).hexdigest() for d in out["doc_id"]]
        return out

    def _topn(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(["lang", "h", "doc_id"], kind="mergesort")
        return g.groupby("lang", sort=False).head(per_stratum).reset_index(drop=True)

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang"])
    ranked = docs.map_batches(_rank, batch_format="pandas")
    # partial top-n per batch (associative) → one tiny combine per lang hash
    return hash_partitioned_agg(ranked.map_batches(_topn, batch_format="pandas"),
                                ["lang"], _topn, num_parts=4)


def _event_rows(batch: pd.DataFrame) -> pd.DataFrame:
    """events → (user_id, event_id, ts_us) rows for the sessionizers."""
    return pd.DataFrame(
        {
            "user_id": batch["user_id"],
            "event_id": batch["event_id"],
            "ts_us": batch["ts"].astype("datetime64[us]").astype("int64"),
        }
    )


def _session_ids(group: pd.DataFrame, gap_us: int):
    """One partition's events sorted by (user, ts, event_id), and each
    row's session id: a new session starts at a user change or a gap
    over ``gap_us`` (break flags, then one cumsum)."""
    g = group.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
    uid = g["user_id"].to_numpy()
    ts = g["ts_us"].to_numpy()
    brk = np.ones(len(g), dtype=bool)
    if len(g) > 1:
        brk[1:] = (uid[1:] != uid[:-1]) | ((ts[1:] - ts[:-1]) > gap_us)
    return g, np.cumsum(brk)


def _event_value_rows(batch: pd.DataFrame) -> pd.DataFrame:
    """events → (event_id, user_id, ts_us, value_cents) rows for the window
    functions; cents are ``floor(value·100)`` so the mirrors hash exactly."""
    return pd.DataFrame(
        {
            "event_id": batch["event_id"].astype("int64"),
            "user_id": batch["user_id"].astype("int64"),
            "ts_us": batch["ts"].astype("datetime64[us]").astype("int64"),
            "value_cents": np.floor(batch["value"].to_numpy() * 100).astype("int64"),
        }
    )


def events_with_sessions_ds(sf_dir: str, gap_minutes: int = 30):
    """Stream-enrichment join shape: every EVENT tagged with its session's
    start time — the per-partition sessionizer emits per-event rows instead
    of per-session aggregates (same partitioning assumption: a user's
    events co-locate; same vectorized break/cumsum machinery)."""
    from ..stages.grouped import exchange

    gap_us = gap_minutes * 60 * 1_000_000

    def _enrich(group: pd.DataFrame) -> pd.DataFrame:
        g, sid = _session_ids(group, gap_us)
        ts = g["ts_us"].to_numpy()
        start = pd.Series(ts).groupby(sid).transform("min").to_numpy()
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "ts_us": ts,
                "session_start_us": start.astype("int64"),
            }
        )

    ev = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    return exchange(ev, ["user_id"], _enrich, 16, map=_event_rows)


def events_asof_join_ds(
    sf_dir: str, left_type: str = "purchase", right_type: str = "click"
):
    """As-of join (the time-series join Ray Data lacks natively): each
    ``left_type`` event picks the most recent same-user ``right_type``
    event at-or-before its timestamp (ties broken by greatest event_id);
    unmatched lefts keep -1 sentinels (LEFT semantics, int-only schema so
    the DuckDB mirror hashes exactly).

    Partitioning assumption (documented per the task brief): all of one
    user's events co-locate — both sides are hash-partitioned by user_id
    in ONE shuffle (type-tagged union), then each partition runs one
    C-implemented ``pd.merge_asof`` over its ts-sorted slice.  No per-user
    Python, no all-pairs time join; skew bound = events of the hottest
    user."""
    from ..stages.grouped import exchange

    def _rows(batch: pd.DataFrame) -> pd.DataFrame:
        keep = batch["event_type"].isin([left_type, right_type])
        b = batch[keep]
        return pd.DataFrame(
            {
                "user_id": b["user_id"].astype("int64"),
                "event_id": b["event_id"].astype("int64"),
                "ts_us": b["ts"].astype("datetime64[us]").astype("int64"),
                "is_left": (b["event_type"] == left_type).astype("int64"),
            }
        )

    def _asof(group: pd.DataFrame) -> pd.DataFrame:
        left = group[group["is_left"] == 1]
        right = group[group["is_left"] == 0]
        p = pd.DataFrame(
            {
                "purchase_id": left["event_id"].to_numpy(),
                "user_id": left["user_id"].to_numpy(),
                "ts_us": left["ts_us"].to_numpy(),
            }
        ).sort_values(["ts_us", "purchase_id"], kind="mergesort")
        c = pd.DataFrame(
            {
                "user_id": right["user_id"].to_numpy(),
                "ts_us": right["ts_us"].to_numpy(),
                "click_id": right["event_id"].to_numpy(),
            }
        ).sort_values(["ts_us", "click_id"], kind="mergesort")
        c["click_ts_us"] = c["ts_us"]
        if p.empty:
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64")
                 for c in ("purchase_id", "user_id", "purchase_ts_us",
                           "click_id", "click_ts_us", "gap_us")}
            )
        # merge_asof picks the LAST right row with ts_us <= left ts_us per
        # user; rights pre-sorted (ts_us, click_id) ⇒ ties resolve to the
        # greatest click_id — same rule as the mirror's row_number() DESC
        j = pd.merge_asof(
            p, c, on="ts_us", by="user_id", direction="backward",
            allow_exact_matches=True,
        )
        out = pd.DataFrame(
            {
                "purchase_id": j["purchase_id"].astype("int64"),
                "user_id": j["user_id"].astype("int64"),
                "purchase_ts_us": j["ts_us"].astype("int64"),
                "click_id": j["click_id"].fillna(-1).astype("int64"),
                "click_ts_us": j["click_ts_us"].fillna(-1).astype("int64"),
            }
        )
        out["gap_us"] = np.where(
            out["click_id"] >= 0, out["purchase_ts_us"] - out["click_ts_us"], -1
        ).astype("int64")
        return out

    ev = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    return exchange(ev, ["user_id"], _asof, 16, map=_rows)


def events_running_total_ds(sf_dir: str):
    """Per-key ORDERED window aggregate (SQL ``SUM(v) OVER (PARTITION BY
    user ORDER BY ts)``): every event gets the running sum of its user's
    value cents and its 1-indexed position in the user's timeline — the
    cumulative-feature shape (lifetime spend so far, click number N) that
    training-data featurization needs and Ray Data has no native window
    operator for.

    Same partitioning contract as sessionize/as-of: ONE user-hash shuffle
    co-locates each user's events, then a single mergesort + grouped
    cumsum/cumcount per partition (all C kernels, no per-user Python).
    No global sort anywhere; skew bound = the hottest user's event count.
    Cents are ``floor(value·100)`` so the DuckDB mirror hashes exactly."""
    from ..stages.grouped import exchange

    def _running(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        gb = g.groupby("user_id", sort=False)
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "ts_us": g["ts_us"].to_numpy(),
                "value_cents": g["value_cents"].to_numpy(),
                "running_cents": gb["value_cents"].cumsum().to_numpy().astype("int64"),
                "seq": (gb.cumcount().to_numpy() + 1).astype("int64"),
            }
        )

    ev = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])
    return exchange(ev, ["user_id"], _running, 16, map=_event_value_rows)


def events_lag_ds(sf_dir: str):
    """Offset window function (SQL ``LAG(col) OVER (PARTITION BY user
    ORDER BY ts)``): every event gets its user's PREVIOUS event id,
    timestamp and value-cents, with -1 sentinels on each user's first
    event — the delta-feature shape (time since last click, spend change)
    that completes the window family next to the cumulative
    ``events_running_total``.

    Same single user-hash shuffle; per partition one mergesort + grouped
    ``shift(1)`` (C kernels).  Int-only output so the mirror hashes
    exactly."""
    from ..stages.grouped import exchange

    def _lag(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        gb = g.groupby("user_id", sort=False)
        prev_id = gb["event_id"].shift(1)
        prev_ts = gb["ts_us"].shift(1)
        prev_cents = gb["value_cents"].shift(1)
        ts = g["ts_us"].to_numpy()
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "ts_us": ts,
                "value_cents": g["value_cents"].to_numpy(),
                "prev_event_id": prev_id.fillna(-1).astype("int64").to_numpy(),
                "prev_value_cents": prev_cents.fillna(-1).astype("int64").to_numpy(),
                "gap_us": np.where(
                    prev_ts.notna().to_numpy(), ts - prev_ts.fillna(0).astype("int64").to_numpy(), -1
                ).astype("int64"),
            }
        )

    ev = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])
    return exchange(ev, ["user_id"], _lag, 16, map=_event_value_rows)


def events_sessionize_ds(sf_dir: str, gap_minutes: int = 30):
    """Gap-based sessionization per user (session = events ≤ gap apart).

    Partitioning assumption (documented per the task brief): all of one
    user's events co-locate — rows are hash-partitioned by user_id, and the
    per-partition function sessionizes *all* its users fully vectorized
    (sort by (user, ts); session breaks = user change OR gap; cumsum ids;
    one groupby-agg) — no per-user Python."""
    from ..stages.grouped import exchange

    gap_us = gap_minutes * 60 * 1_000_000

    def _sessions(group: pd.DataFrame) -> pd.DataFrame:
        g, sid = _session_ids(group, gap_us)
        df = pd.DataFrame({"user_id": g["user_id"].to_numpy(), "sid": sid,
                           "ts_us": g["ts_us"].to_numpy()})
        agg = df.groupby(["user_id", "sid"], sort=False).agg(
            session_start_us=("ts_us", "min"),
            session_end_us=("ts_us", "max"),
            n_events=("ts_us", "size"),
        ).reset_index().drop(columns=["sid"])
        agg["n_events"] = agg["n_events"].astype("int64")
        return agg

    ev = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    return exchange(ev, ["user_id"], _sessions, 16, map=_event_rows)


def events_quantiles_sampled_ds(sf_dir: str, k: int = 4096,
                                qs: tuple = QUANTILES, seed: str = "q0"):
    """APPROXIMATE quantiles of a continuous column — the scale path the
    exact variant can't take: ``events_quantiles_ds``'s histogram shuffle
    is ∝ |distinct values|, which for continuous doubles IS the row count.
    This op draws a deterministic uniform k-sample (the bottom-k sketch
    over seeded md5 draws keyed by event_id — associative per-batch
    partials, ZERO data shuffles) and takes the sample's quantiles with
    the same 1-indexed ``max(1, ceil(q·n))`` percentile_disc rule.

    Error bound (Dvoretzky–Kiefer–Wolfowitz): a uniform k-sample's
    empirical CDF deviates from the population CDF by at most
    ε = sqrt(ln(2/δ)/(2k)) with probability 1−δ — k=4096 gives ε≈0.030 at
    δ=10⁻³, i.e. each estimate is the true value at rank q±ε.  Rank error
    is pytest-pinned against the exact quantiles.  Deterministic and
    mergeable (rerun-stable, resumable) like every other seeded draw.
    Output: one row per q — (q_micros, value_est, sample_n).  No SQL
    mirror (sampled)."""
    import math

    from ..functions.hashing import seeded_md5_sortkey

    events = read_table(sf_dir, "events", columns=["event_id", "value"])

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["event_id"].to_numpy(dtype="int64")
        key = seeded_md5_sortkey(seed, ids)
        out = pd.DataFrame({"k": key,
                            "value": batch["value"].to_numpy(dtype="float64")})
        return out.sort_values("k", kind="mergesort").head(k)

    def _combine(batch: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"q_micros": pd.Series([], dtype="int64"),
                              "value_est": pd.Series([], dtype="float64"),
                              "sample_n": pd.Series([], dtype="int64")})
        if "k" not in batch.columns or not len(batch):
            return empty
        top = batch.sort_values("k", kind="mergesort").head(k)
        vals = np.sort(top["value"].to_numpy(dtype="float64"))
        n = len(vals)
        rows = {"q_micros": [], "value_est": [], "sample_n": []}
        for q in qs:
            pos = max(1, math.ceil(q * n))  # percentile_disc rule
            rows["q_micros"].append(int(round(q * 1_000_000)))
            rows["value_est"].append(float(vals[pos - 1]))
            rows["sample_n"].append(n)
        out = pd.DataFrame(rows)
        out["q_micros"] = out["q_micros"].astype("int64")
        out["sample_n"] = out["sample_n"].astype("int64")
        return out

    return (
        events.map_batches(_partial, batch_format="pandas")
        .repartition(1)  # ≤ k×batches tiny rows
        .map_batches(_combine, batch_format="pandas", batch_size=None)
    )


def events_quantiles_sampled_by_type_ds(sf_dir: str, k: int = 1024,
                                        qs: tuple = QUANTILES,
                                        seed: str = "q1"):
    """Per-key approximate quantiles of a continuous column — the grouped
    form of ``events_quantiles_sampled_ds``: a deterministic bottom-k
    uniform sample PER event_type (per-batch grouped bottom-k is
    associative per key — only a batch's k smallest draws for a key can
    survive globally), ONE small type-hash exchange of ≤ k×|types|×batches
    sample rows, then the percentile_disc rule per type.  DKW bound per
    key: ε = sqrt(ln(2/δ)/(2k)) over that key's sample.  Output one row
    per (event_type, q): (event_type, q_micros, value_est, sample_n).  No
    SQL mirror (sampled); the rank error is pytest-pinned per type."""
    import math

    from ..functions.hashing import seeded_md5_sortkey
    from ..stages.grouped import exchange

    events = read_table(sf_dir, "events",
                        columns=["event_id", "event_type", "value"])

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["event_id"].to_numpy(dtype="int64")
        out = pd.DataFrame({
            "event_type": batch["event_type"],
            "k": seeded_md5_sortkey(seed, ids),
            "value": batch["value"].to_numpy(dtype="float64"),
        }).sort_values(["event_type", "k"], kind="mergesort")
        return out.groupby("event_type", sort=False).head(k)

    def _quant(group: pd.DataFrame) -> pd.DataFrame:
        rows = {"event_type": [], "q_micros": [], "value_est": [], "sample_n": []}
        g = group.sort_values(["event_type", "k"], kind="mergesort")
        for etype, sub in g.groupby("event_type", sort=False):
            vals = np.sort(sub["value"].to_numpy(dtype="float64")[:k])
            n = len(vals)
            for q in qs:
                pos = max(1, math.ceil(q * n))  # percentile_disc rule
                rows["event_type"].append(etype)
                rows["q_micros"].append(int(round(q * 1_000_000)))
                rows["value_est"].append(float(vals[pos - 1]))
                rows["sample_n"].append(n)
        out = pd.DataFrame(rows)
        out["q_micros"] = out["q_micros"].astype("int64")
        out["sample_n"] = out["sample_n"].astype("int64")
        return out

    return exchange(events, ["event_type"], _quant, 4, map=_partial)
