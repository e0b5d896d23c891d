"""Benchmark harness (driver contract: prints ONE JSON line).

Headline: the full KG construction pipeline (extract+parse → nodes → edges →
canonical linking, all outputs written as partitioned Parquet) over the
synthesized Common-Crawl-style pages table at $GRAFT_SF_DIR (default
/root/testdata/sf0.1), amplified ×$GRAFT_REPLICAS (default 10 → ~50k pages
at sf0.1).  Secondary timings cover the other operator families.

  python bench.py             # one run at RAY_GRAFT_CPUS (default: the
                              # CPUs this process may run on)
  python bench.py --scaling   # fresh processes at 1, 2 and 4 CPUs, plus the
                              # no-Ray hardware control at the same levels
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
REPLICAS = int(os.environ.get("GRAFT_REPLICAS", "10"))
# --scaling amplifies the corpus further so compute dominates the fixed
# per-job costs and the 1→2→4-CPU comparison measures the pipeline, not
# scheduler overhead (every level uses the same input)
SCALING_REPLICAS = int(os.environ.get("GRAFT_SCALING_REPLICAS", "80"))
HEADLINE_ONLY = os.environ.get("GRAFT_HEADLINE_ONLY", "0") == "1"
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))
SCALING_CPUS = (1, 2, 4)


def run_bench() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from knowledgegraph__bh_ray.pagegen import ensure_pages
    from knowledgegraph__bh_ray.pipelines import kg, relational, textops
    from knowledgegraph__bh_ray.pipelines.run import run_kg_pipeline
    from knowledgegraph__bh_ray.sources import read_table
    from knowledgegraph__bh_ray.stages import dedup, simsearch

    pages = ensure_pages(SF_DIR, replicas=REPLICAS)

    # warm the OS page cache (untimed) so we measure compute+shuffle, not
    # first-touch disk reads
    import pyarrow.parquet as pq

    n_pages = 0
    for f in sorted(os.listdir(pages)):
        if f.endswith(".parquet"):
            fp = os.path.join(pages, f)
            pq.read_table(fp)  # warm page cache
            n_pages += pq.read_metadata(fp).num_rows

    # pre-warm the worker pool (process spawn + imports) with one untimed
    # micro-job so the timed section measures compute + shuffle, not cluster
    # cold start — a production cluster is warm
    import ray.data as rd

    rd.range(NUM_CPUS * 4).map_batches(lambda b: b).count()

    queries: dict[str, float] = {}

    # best-of-2 for the headline: single runs on this shared box vary ±40%
    # from co-tenant noise; the min is the reproducible capability number
    runs: list[float] = []
    n_runs = 1 if HEADLINE_ONLY else 2
    # checkpoints on tmpfs: on one box all workers share one disk, so write
    # bandwidth is a fixed resource that caps apparent scaling — on a real
    # N-node cluster storage bandwidth scales with N (per-node disks), so
    # the shared-disk ceiling would understate multi-node efficiency
    shm = "/dev/shm" if os.path.isdir("/dev/shm") else "/tmp"
    out_dir = os.path.join(shm, "kgbh_bench_run")
    # the run dir is removed once the secondaries that read its parsed/
    # and page_edges/ have run, so no run is left in tmpfs memory
    try:
        for _ in range(n_runs):
            shutil.rmtree(out_dir, ignore_errors=True)
            t0 = time.time()
            result = run_kg_pipeline(pages, out_dir)
            runs.append(time.time() - t0)
            if runs[-1] == min(runs):
                # per-unit walls of the headline (fastest) run, from its
                # manifest records; the run dir does not outlive the bench
                phases = {
                    r["unit"]: {k: round(r[k], 3) if k == "wall_sec" else r[k]
                                for k in ("wall_sec", "arm", "read_blocks") if k in r}
                    for r in result["records"]
                }
        headline = min(runs)
        queries["kg_pipeline"] = round(headline, 3)

        import ray.data as rd

        n_edges = rd.read_parquet(os.path.join(out_dir, "edges")).count()
        n_triples = int(
            rd.read_parquet(os.path.join(out_dir, "edges"), columns=["weight"])
            .to_pandas()["weight"]
            .sum()
        )

        # secondaries use the same best-of-2 policy as the headline (±40%
        # co-tenant noise on this shared box); both raw samples are recorded in
        # queries_raw so inflation is visible, the min is the capability number
        queries_raw: dict[str, list[float]] = {}

        def timed(name, fn):
            if HEADLINE_ONLY:
                return
            samples = []
            for _ in range(2):
                t = time.time()
                fn()
                samples.append(round(time.time() - t, 3))
            queries_raw[name] = samples
            queries[name] = min(samples)

        timed("kg_extract", lambda: kg.parsed_ds(pages).count())

        # the text and graph secondaries read the headline run's parsed
        # checkpoint (extraction is priced in kg_extract above), in one block
        # per CPU and at least 16: a shuffle barrier costs per input block
        parsed_dir = os.path.join(out_dir, "parsed")
        nblocks = max(16, NUM_CPUS)

        def texts():
            return rd.read_parquet(parsed_dir, columns=["url", "text_out"],
                                   override_num_blocks=nblocks)

        timed(
            "dedup_minhash",
            lambda: dedup.minhash_pairs_ds(texts(), "url", "text_out", threshold=0.8).count(),
        )
        timed("agg_lineitem", lambda: relational.agg_lineitem_ds(SF_DIR).count())
        timed("events_quantiles", lambda: relational.events_quantiles_ds(SF_DIR).count())
        timed("tfidf_terms", lambda: textops.tfidf_terms_ds(SF_DIR).count())
        timed("events_sessionize", lambda: relational.events_sessionize_ds(SF_DIR).count())
        timed("events_asof_join", lambda: relational.events_asof_join_ds(SF_DIR).count())
        timed("token_count", lambda: textops.token_count_by_lang_ds(SF_DIR).count())
        timed("decontaminate", lambda: textops.decontaminate_ds(SF_DIR).count())
        timed("pack_sequences", lambda: textops.pack_sequences_ds(SF_DIR).count())
        timed(
            "boilerplate_strip",
            lambda: textops.boilerplate_strip_core(texts()).count(),
        )
        timed("shuffle_shard", lambda: textops.shuffle_shard_ds(SF_DIR).count())
        timed("lm_perplexity", lambda: textops.lm_perplexity_ds(SF_DIR).count())
        timed("dup_passage", lambda: textops.dup_passage_ds(SF_DIR).count())

        from knowledgegraph__bh_ray.pipelines import traintext

        timed("dedup_substring",
              lambda: traintext.substring_spans_ds(SF_DIR, k=8).count())
        # the shipped batched-round configuration (queries.BPE_MERGE_BATCH)
        timed("bpe_merges",
              lambda: traintext.bpe_merges_ds(SF_DIR, n_merges=30,
                                              merge_batch=8).count())
        timed("events_running_total", lambda: relational.events_running_total_ds(SF_DIR).count())
        timed("events_lag", lambda: relational.events_lag_ds(SF_DIR).count())
        timed("source_cap", lambda: textops.source_cap_ds(SF_DIR).count())
        timed("mix_corpora", lambda: textops.mix_corpora_ds(SF_DIR).count())
        timed("profile_documents", lambda: textops.profile_documents_ds(SF_DIR).count())
        timed("quality_filter", lambda: textops.quality_filter_ds(SF_DIR).count())

        def _semdedup():
            emb = read_table(SF_DIR, "embeddings", columns=["vec_id", "embedding"])
            dedup.semantic_dedup_ds(emb, "vec_id", "embedding", threshold=0.3).count()

        timed("dedup_semantic", _semdedup)

        # the graph family reads the distinct page-link edges of the parsed
        # checkpoint, written once (untimed) next to it — so these rows time
        # the graph operators, not a re-run of the link distinct per sample
        page_edges_dir = os.path.join(out_dir, "page_edges")
        if not HEADLINE_ONLY:
            kg.page_graph_edges_ds(
                rd.read_parquet(parsed_dir, columns=["url", "links"], override_num_blocks=nblocks)
            ).write_parquet(page_edges_dir)
            n_page_edges = rd.read_parquet(page_edges_dir).count()

        def page_edges():
            return rd.read_parquet(page_edges_dir, columns=["src_url", "dst_url", "text"],
                                   override_num_blocks=nblocks)

        def _kcore():
            from knowledgegraph__bh_ray.stages.pagerank import k_core_ds

            k_core_ds(page_edges(), k=4).count()

        def _kcore_dist():
            from unittest import mock

            from knowledgegraph__bh_ray.stages import grouped

            # a row cap of a quarter of the page edges: the distinct
            # undirected edges (173,659 of 173,667 page edges at sf0.1 x10)
            # size distributed and every dead shell (2,734 nodes at most)
            # local -- the plan of a large graph with small shells, and the
            # one this row timed before plan_arm was the only size rule
            with mock.patch.object(grouped, "LOCAL_AGG_MAX_ROWS", n_page_edges // 4):
                _kcore()

        # the shipped sized dispatch, then the distributed rounds forced —
        # the scale path a corpus-sized graph takes
        timed("kg_kcore", _kcore)
        timed("kg_kcore_dist", _kcore_dist)

        def _nsim():
            from knowledgegraph__bh_ray.queries import NSIM_MAX_MIDDLE_DEGREE
            from knowledgegraph__bh_ray.stages.pagerank import node_similarity_ds

            # same stop-hub default as the registry entry
            node_similarity_ds(page_edges(), max_middle_degree=NSIM_MAX_MIDDLE_DEGREE).count()

        timed("kg_node_similarity", _nsim)

        def _simsearch():
            import numpy as np

            emb = read_table(SF_DIR, "embeddings", columns=["vec_id", "embedding"])
            t = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"))
            qv = {
                int(v): np.array(e, dtype=np.float64)
                for v, e in zip(t.column("vec_id").to_pylist()[:3], t.column("embedding").to_pylist()[:3])
            }
            simsearch.brute_topk_ds(emb, qv, "vec_id", "embedding", k=10).count()

        timed("simsearch_topk", _simsearch)

        ray.shutdown()
        return {
            "metric": "kg_pipeline_sec",
            "value": round(headline, 3),
            "unit": "sec",
            "queries": queries,
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            "pages": int(n_pages),
            "replicas": REPLICAS,
            "edges": int(n_edges),
            "triples_deduped_from": int(n_triples),
            "pages_per_sec": round(n_pages / headline, 1),
            "triples_per_sec": round(n_triples / headline, 1),
            "headline_runs_sec": [round(r, 3) for r in runs],
            "phases": phases,
            "queries_raw": queries_raw,
        }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _work_mp(n):  # top-level for multiprocessing pickling
    import re

    pat = re.compile("|".join(re.escape(f"实体{i}") for i in range(2000)))
    text = ("实体5 与 实体17 的关系，" + "普通文字内容填充一些，" * 6) * 30
    c = 0
    for _ in range(n):
        c += sum(1 for _ in pat.finditer(text))
    return c


def hardware_control() -> dict:
    """Machine-achievable speedup control: the same CPU-bound string
    workload on raw multiprocessing (no Ray, no engine) at each process
    count in ``SCALING_CPUS``.  A shared virtualized box need not deliver k×
    throughput for k× processes even with zero framework overhead
    (host-level contention), so the pipeline's raw ratio must be read
    against this ceiling; on a real N→4N-node cluster the nodes are
    independent machines and the ceiling does not apply."""
    import multiprocessing as mp
    import time as _t

    out = {}
    for procs in SCALING_CPUS:
        with mp.Pool(procs) as pool:
            pool.map(_work_mp, [10] * procs)  # warm
            t0 = _t.time()
            pool.map(_work_mp, [2000] * 256, chunksize=4)
            out[procs] = _t.time() - t0
    lo, hi = SCALING_CPUS[0], SCALING_CPUS[-1]
    return {"sec": {str(p): round(out[p], 2) for p in SCALING_CPUS},
            "speedup": round(out[lo] / out[hi], 3)}


def run_scaling() -> dict:
    def run_at(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_REPLICAS=str(SCALING_REPLICAS),
            GRAFT_HEADLINE_ONLY="1",
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # best-of-2 per level: this box has ±30% co-tenant noise (PERF.md) —
    # min per level is the reproducible capability number; all raw times
    # are reported.  Levels interleave so drift hits each one alike.
    runs = {c: [] for c in SCALING_CPUS}
    for _ in range(2):
        for c in SCALING_CPUS:
            runs[c].append(run_at(c))
    best = {c: min(runs[c], key=lambda r: r["value"]) for c in SCALING_CPUS}
    lo, hi = SCALING_CPUS[0], SCALING_CPUS[-1]
    speedup = best[lo]["value"] / best[hi]["value"]
    hw = hardware_control()
    return {
        "metric": "scaling",
        "cpus": list(SCALING_CPUS),
        "sec": [best[c]["value"] for c in SCALING_CPUS],
        "raw_sec": {str(c): [r["value"] for r in runs[c]] for c in SCALING_CPUS},
        "pages_per_sec": [best[c]["pages_per_sec"] for c in SCALING_CPUS],
        "triples_per_sec": [best[c]["triples_per_sec"] for c in SCALING_CPUS],
        "speedup": round(speedup, 3),
        "scaling_efficiency": round(speedup / (hi / lo), 3),
        "hw_control": hw,  # machine-achievable speedup, no Ray/engine
        "normalized_efficiency": round(speedup / hw["speedup"], 3),
        "sf": SF_DIR,
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
