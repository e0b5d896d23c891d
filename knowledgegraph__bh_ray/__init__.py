"""knowledgegraph__bh_ray — a Ray-Data-native knowledge-graph construction engine.

From-scratch re-expression of the capabilities of the reference repo
ZJX54959/KnowledgeGraph__BH (see /root/repo/SURVEY.md) as a streaming Ray Data
DAG over a Parquet table of Common-Crawl-style web pages
(url, warc_ts, html, text, lang):

    pages --extract--> extracted (title/summary/infobox/catalog/paragraphs/links)
          --parse----> raw concepts + raw triples  (markdown-grammar line rules)
          --link-----> canonical entity ids        (two-phase salted groupby)
          --dedup----> nodes (keep-first) + edges (groupby subj,pred,obj + count)
          --write----> partitioned Parquet adjacency tables (+ lineage manifest)

Design rules (enforced throughout):
  * everything is a ``ray.data.Dataset`` pipeline — ``map_batches`` over Arrow
    batches for narrow transforms, ``groupby`` for the wide ones;
  * the taggers and the entity linker are plain map tasks over a broadcast
    (state built once per worker and ref); only the import-gated model
    slots (embedder, media decoder, PDF reader) use actor pools;
  * no driver-side row loops on the big path; no mid-pipeline materialize;
  * deterministic: no RNG in the pipeline path, so resume ≡ fresh run.

Nothing in this package calls ``ray.init`` / ``ray.shutdown`` — sessions are
owned by the caller (driver, bench.py, or the pytest fixture).
"""

__version__ = "0.1.0"
