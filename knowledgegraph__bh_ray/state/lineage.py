"""Per-partition lineage, counters and resume (north-rule requirement).

Checkpoint layout for a pipeline run rooted at ``out_dir``:

    out_dir/
      manifest.jsonl          one record per completed unit (group or phase):
                              {"unit": ..., "rows": ..., "counters": {...},
                               "wall_sec": ...}
      parsed/group=G/ *.parquet     phase-1 output, one dir per url-hash
                                    group (the urls with bucket_of(url,
                                    resume_granularity) == G)
      nodes/  edges/  edges_canonical/  ...   phase-2 outputs

Resume contract: a unit listed in the manifest is complete (its record is
appended only after its parquet dirs are fully written — write-then-log);
``pending_units`` anti-joins the plan against the manifest, so a killed run
redoes only unfinished units.  All stages are deterministic (no RNG, no
wall-clock in the data path), which is what makes resume ≡ fresh run —
property-tested in tests/test_resume.py.

Counters are collected by a named Ray actor (one per run) that stages
increment per batch; totals land in the unit's manifest record.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import ray


@ray.remote(num_cpus=0)
class CounterActor:
    """Run-scoped metric counters (pages_in, verification_dropped, …)."""

    def __init__(self):
        self.counts: dict[str, int] = {}

    def incr(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def incr_many(self, stats: dict) -> None:
        for name, n in stats.items():
            self.counts[name] = self.counts.get(name, 0) + int(n)

    def get_all(self) -> dict[str, int]:
        return dict(self.counts)

    def reset(self) -> None:
        self.counts = {}


class ShardedCounter:
    """Run-scoped counter on one zero-CPU ``CounterActor``.

    Map UDFs increment with an AWAITED call on purpose (the r4 race fix):
    fire-and-forget actor calls from workers have no ordering vs the
    driver's post-barrier read, so each batch waits for its increment
    before completing.  That is one round trip per 256-page batch, 1–4 ms
    (kgbench ``lineage.counter_rtt_ms``), so one actor is far from
    saturated at a handful of workers: one extra process per session.
    ``get_all`` reads AFTER the dataset barrier, when every increment has
    already been awaited by its batch."""

    def __init__(self):
        self.actor = CounterActor.remote()

    def incr_many_blocking(self, stats: dict) -> None:
        """Call from inside a map UDF: awaited, so the counts are visible
        to any get_all() that runs after this batch's dataset barrier."""
        ray.get(self.actor.incr_many.remote(stats))

    def get_all(self) -> dict[str, int]:
        return ray.get(self.actor.get_all.remote())

    def reset(self) -> None:
        ray.get(self.actor.reset.remote())


class Manifest:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, "manifest.jsonl")
        os.makedirs(out_dir, exist_ok=True)

    def done_units(self) -> set[str]:
        if not os.path.exists(self.path):
            return set()
        with open(self.path, encoding="utf-8") as f:
            return {json.loads(line)["unit"] for line in f if line.strip()}

    def records(self) -> list[dict]:
        if not os.path.exists(self.path):
            return []
        with open(self.path, encoding="utf-8") as f:
            return [json.loads(line) for line in f if line.strip()]

    def mark_done(self, unit: str, rows: int, counters: dict | None = None,
                  wall_sec: float | None = None, **fields) -> None:
        """Append ``unit``'s record; ``fields`` (e.g. the aggregation arm a
        unit ran on) ride along after the fixed keys."""
        rec = {
            "unit": unit,
            "rows": int(rows),
            "counters": counters or {},
            "wall_sec": round(wall_sec, 3) if wall_sec is not None else None,
            "ts": time.time(),
            **fields,
        }
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")

    def clean_unit_dir(self, path: str) -> None:
        """Remove a partially-written output dir before redoing its unit."""
        if os.path.exists(path):
            shutil.rmtree(path)
