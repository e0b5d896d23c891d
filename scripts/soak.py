"""Memory-bounded soak (round-4 verdict item #9): run the headline KG
pipeline at sf0.1 ×N (default ×160 = ~800k pages) while sampling object
store usage, then report peak plasma bytes + spill totals — the single-box
evidence for the engine's streaming/backpressure claims before a real
cluster.

No grpc in this container, so ``ray.internal_api.memory_summary`` is
unavailable; instead:
  * live plasma usage = growth of /dev/shm occupancy vs the pre-run
    baseline (Ray's plasma store mmaps segments there; the soak writes its
    pipeline checkpoints to /tmp so they can't pollute the reading);
  * spill totals = the raylet's debug_state.txt LocalObjectManager
    counters (``num bytes currently spilled`` / ``cumulative spill
    requests``), which the raylet refreshes periodically.

Usage: [SOAK_REPLICAS=160] [SOAK_OBJECT_STORE_MB=2048] python scripts/soak.py
Prints one JSON line with peak/spill numbers for PERF.md.

``SOAK_OBJECT_STORE_MB`` caps the plasma store (round-5 verdict item #6:
the soaks never spilled, so the spill path had never fired under
pressure).  The printed ``result_hash`` is an order-insensitive digest of
the pipeline's canonical-edges output — run once uncapped and once capped:
equal hashes + ``spilled_mb > 0`` is the evidence that results are
unchanged under object-store pressure and spilling.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray

REPLICAS = int(os.environ.get("SOAK_REPLICAS", "160"))
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))

_SPILL_BYTES = re.compile(r"num bytes currently spilled: (\d+)")
_SPILL_REQS = re.compile(r"cumulative spill requests: (\d+)")
_PINNED = re.compile(r"pinned objects size: (\d+)")


def _shm_used() -> int:
    st = os.statvfs("/dev/shm")
    return (st.f_blocks - st.f_bavail) * st.f_frsize


def _debug_state() -> str:
    try:
        node = ray._private.worker.global_worker.node
        path = os.path.join(node.get_session_dir_path(), "logs",
                            "debug_state.txt")
        with open(path) as f:
            return f.read()
    except Exception:
        return ""


def _result_hash(out_dir: str) -> str:
    """Order-insensitive md5 of the canonical-edges output (sorted rows,
    stringified) — the spill-correctness comparator."""
    import hashlib

    import pyarrow.parquet as pq

    d = os.path.join(out_dir, "edges_canonical")
    t = pq.read_table(d).to_pandas()
    t = t[sorted(t.columns)].astype(str)
    t = t.sort_values(list(t.columns), kind="mergesort")
    h = hashlib.md5()
    for c in t.columns:
        h.update("\x1f".join(t[c]).encode("utf-8", "surrogatepass"))
    return h.hexdigest()


def main() -> None:
    shm_before = _shm_used()
    store_mb = int(os.environ.get("SOAK_OBJECT_STORE_MB", "0"))
    init_kw = {}
    if store_mb:
        init_kw["object_store_memory"] = store_mb * 1024 * 1024
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             **init_kw)
    from knowledgegraph__bh_ray.pagegen import ensure_pages
    from knowledgegraph__bh_ray.pipelines.run import run_kg_pipeline

    pages = ensure_pages("/root/testdata/sf0.1", replicas=REPLICAS)
    import pyarrow.parquet as pq

    n_pages = sum(
        pq.read_metadata(os.path.join(pages, f)).num_rows
        for f in os.listdir(pages) if f.endswith(".parquet")
    )

    peak = {"shm": 0, "spill_bytes": 0, "spill_reqs": 0, "pinned": 0}
    stop = threading.Event()

    def poll():
        while not stop.is_set():
            peak["shm"] = max(peak["shm"], _shm_used() - shm_before)
            st = _debug_state()
            for key, pat in (("spill_bytes", _SPILL_BYTES),
                             ("spill_reqs", _SPILL_REQS),
                             ("pinned", _PINNED)):
                m = pat.search(st)
                if m:
                    peak[key] = max(peak[key], int(m.group(1)))
            stop.wait(0.5)

    t = threading.Thread(target=poll, daemon=True)
    t.start()

    # checkpoints go to DISK, not /dev/shm, so the shm gauge reads plasma only
    out_dir = "/tmp/kgbh_soak_run"
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.time()
    run_kg_pipeline(pages, out_dir)
    dt = time.time() - t0

    stop.set()
    t.join(timeout=5)
    rhash = _result_hash(out_dir)
    total_store = int(ray.cluster_resources().get("object_store_memory", 0))
    mb = 1024 * 1024
    print(json.dumps({
        "replicas": REPLICAS,
        "pages": n_pages,
        "seconds": round(dt, 1),
        "pages_per_sec": round(n_pages / dt, 1),
        "object_store_total_mb": total_store // mb,
        "peak_plasma_mb": peak["shm"] // mb,
        "peak_pinned_mb": peak["pinned"] // mb,
        "spilled_mb": peak["spill_bytes"] // mb,
        "spill_requests": peak["spill_reqs"],
        "result_hash": rhash,
    }))
    shutil.rmtree(out_dir, ignore_errors=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
