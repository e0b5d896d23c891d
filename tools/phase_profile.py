"""Per-phase profile of the headline pipeline.

Runs run_kg_pipeline once on a fresh out_dir and prints each phase's
manifest record but its timestamp: wall time, rows written, and the plan
the unit ran (``arm``, ``read_blocks``, ``est_rows``, ``est_bytes``,
lineage ``counters``) — the measurement loop behind the PERF.md phase
breakdowns.  Usage:

    python tools/phase_profile.py [sf_dir] [replicas] [num_cpus]

Defaults: sf0.1, x10, and as many CPUs as this process may run on (its
affinity mask).  Don't run this concurrently with bench.py / --scaling;
co-tenant load poisons both.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"
    replicas = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    num_cpus = int(sys.argv[3]) if len(sys.argv) > 3 else len(os.sched_getaffinity(0))

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from knowledgegraph__bh_ray.pagegen import ensure_pages
    from knowledgegraph__bh_ray.pipelines.run import run_kg_pipeline

    pages = ensure_pages(sf_dir, replicas=replicas)
    shm = "/dev/shm" if os.path.isdir("/dev/shm") else "/tmp"
    out_dir = os.path.join(shm, "kgbh_profile_run")
    shutil.rmtree(out_dir, ignore_errors=True)

    t0 = time.time()
    res = run_kg_pipeline(pages, out_dir)
    total = time.time() - t0

    rows = [{**{k: v for k, v in r.items() if k != "ts"},
             "wall_sec": round(r.get("wall_sec") or 0, 2)} for r in res["records"]]
    print(json.dumps({"total_sec": round(total, 2), "phases": rows,
                      "num_cpus": num_cpus, "replicas": replicas}, ensure_ascii=False))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
