"""One Ray session that runs builds on request (started by ``run.py``).

    python3 kgbench/session.py <ray_temp_dir> <warm_pages_dir> probe|serve

Set-up is program imports, ``ray.init``, the run's lineage counter and one
warm-up job (an extract pass over a few pages on every logical CPU).  The
session then prints ``{"ready": ...}``.  A ``probe`` session shuts down right
away; a ``serve`` session reads one JSON command per line on stdin and
answers one JSON object per line:

    {"op": "build", "pages": dir, "out": dir}       -> {"build_s", "start"}
    {"op": "checkpoint", "pages": dir, "out": dir}  -> {} (run killed after parsed)
    {"op": "layers", "pages": dir, "build_id": id}  -> {"metrics", "spans"}
    {"op": "quit"}

Answers go to the original stdout; anything else written to stdout (Ray's
own messages) is sent to stderr.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

LOGICAL_CPUS = max(4, len(os.sched_getaffinity(0)))
OBJECT_STORE_BYTES = 256 * 1024 * 1024


def main() -> int:
    temp_dir, warm_pages, mode = sys.argv[1:4]
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def send(obj: dict) -> None:
        proto.write(json.dumps(obj) + "\n")

    import logging

    import ray
    from ray.data import DataContext

    from knowledgegraph__bh_ray.pipelines import kg
    from knowledgegraph__bh_ray.pipelines.run import run_kg_pipeline
    from knowledgegraph__bh_ray.state.lineage import ShardedCounter

    # one CPU slot deadlocks the canonical unit's actor pool on a 1-core host
    ray.init(num_cpus=LOGICAL_CPUS, object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, _temp_dir=temp_dir, log_to_driver=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    counter = ShardedCounter()
    kg.parsed_ds(warm_pages).materialize()
    send({"ready": True, "logical_cpus": LOGICAL_CPUS})
    if mode == "probe":
        ray.shutdown()
        return 0

    for line in sys.stdin:
        cmd = json.loads(line)
        op = cmd["op"]
        if op == "quit":
            break
        try:
            if op == "build":
                counter.reset()
                start, t0 = time.time(), time.perf_counter()
                run_kg_pipeline(cmd["pages"], cmd["out"], counter=counter)
                send({"build_s": time.perf_counter() - t0, "start": start})
            elif op == "checkpoint":
                counter.reset()
                try:
                    run_kg_pipeline(cmd["pages"], cmd["out"], counter=counter, _fail_after_units=1)
                except RuntimeError as e:
                    if "injected failure" not in str(e):
                        raise
                send({})
            elif op == "layers":
                from layers import Spans, replay

                spans = Spans(cmd["build_id"])
                t0 = time.time()
                metrics = replay(cmd["pages"], counter, spans)
                spans.add("layers", t0, time.time(), None)
                send({"metrics": metrics, "spans": spans.rows})
            else:
                raise ValueError(f"unknown op {op!r}")
        except Exception:  # report and keep serving; the caller counts the failure
            traceback.print_exc()
            send({"error": traceback.format_exc(limit=3)})
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
