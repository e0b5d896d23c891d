"""Cluster job entrypoint for the KG pipeline.

On a real cluster (the north-star deployment):

    ray job submit --working-dir . -- \
        python scripts/run_kg_job.py --pages s3://bucket/pages --out s3://bucket/kg_out

In this sandbox it runs against the local session
(``python scripts/run_kg_job.py --sf /root/testdata/sf0.001``).  The script
owns its Ray session (guarded init) — library code never does.

Resume: ``--resume-granularity G`` splits phase 1 (extract+parse) into G
units, unit g holding the pages with ``bucket_of(url, G) == g``; the graph
phases are one unit each.  Re-submitting the same job with the same
``--out`` skips completed units via the manifest; per-unit lineage records
and counters are printed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pages", help="pages parquet dir (url, warc_ts, html, text, lang)")
    ap.add_argument("--sf", help="testdata sf dir to synthesize pages from")
    ap.add_argument("--out", default="/tmp/kgbh_job_out")
    ap.add_argument("--resume-granularity", type=int, default=4)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        # on a cluster, RAY_ADDRESS is set by `ray job submit`; locally we
        # stay in local mode
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    if args.pages:
        pages = args.pages
    elif args.sf:
        from knowledgegraph__bh_ray.pagegen import ensure_pages

        pages = ensure_pages(args.sf)
    else:
        ap.error("one of --pages / --sf is required")

    from knowledgegraph__bh_ray.pipelines.run import run_kg_pipeline

    result = run_kg_pipeline(pages, args.out, resume_granularity=args.resume_granularity)
    print(json.dumps(result["records"], ensure_ascii=False, indent=2))
    print(json.dumps({"counters": result["counters"], "out_dir": result["out_dir"]}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
