"""In-process replay of each layer's public functions on a workload's pages.

Runs inside the session process (``CanonicalizeTriples`` and the lineage
counter need the Ray session).  Each call is wrapped in a span; the
per-call figures are the layer metrics the traced run reports.
"""

from __future__ import annotations

import statistics
import time

import pyarrow.parquet as pq
import ray

from knowledgegraph__bh_ray.functions.hashing import bucket_of, md5_id
from knowledgegraph__bh_ray.pipelines import kg
from knowledgegraph__bh_ray.sources import read_pages
from knowledgegraph__bh_ray.stages.extract import flatten_list_column
from knowledgegraph__bh_ray.stages.grouped import count_first_block, keep_first_block
from knowledgegraph__bh_ray.stages.linkage import CanonicalizeTriples, normalize_surface_series
from knowledgegraph__bh_ray.stages.ner import build_gazetteer_pattern, tag_mentions

GAZETTEER_NAMES = 5000  # the mentions unit's vocabulary cap (pipelines/run.py)


class Spans:
    """Spans kept in memory: name, start, end (epoch seconds), parent, build id."""

    def __init__(self, build_id: str):
        self.build_id = build_id
        self.rows: list[dict] = []

    def add(self, name: str, start: float, end: float, parent: str | None) -> None:
        self.rows.append({"name": name, "start": start, "end": end, "parent": parent,
                          "build_id": self.build_id})

    def timed(self, name: str, fn, *args, parent: str = "layers"):
        """Call ``fn(*args)`` once under a span; returns (result, seconds)."""
        t0, p0 = time.time(), time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - p0
        self.add(name, t0, t0 + dt, parent)
        return out, dt


def _per_call_ns(spans: Spans, name: str, fn, items: list, min_s: float = 0.2) -> float:
    """Mean ns per ``fn(item)``, repeating the pass over ``items`` until
    ``min_s`` has elapsed."""
    def loop():
        n, t0 = 0, time.perf_counter()
        while True:
            for x in items:
                fn(x)
            n += len(items)
            dt = time.perf_counter() - t0
            if dt >= min_s:
                return dt / n * 1e9

    return spans.timed(name, loop)[0]


def replay(pages_dir: str, counter, spans: Spans) -> dict[str, float]:
    pages = pq.read_table(pages_dir, columns=["url", "html"])
    n_pages = pages.num_rows
    m: dict[str, float] = {}

    parsed, dt = spans.timed("extract.extract_parse_batch", kg.extract_parse_batch, pages)
    m["extract.us_per_page"] = dt / n_pages * 1e6

    nodes_raw = flatten_list_column(parsed, "nodes", keep=["url"]).to_pandas()
    triples = flatten_list_column(parsed, "triples", keep=["url"]).to_pandas()
    urls = pages.column("url").to_pylist()
    names = nodes_raw["name"].tolist()
    m["hashing.bucket_of_ns"] = _per_call_ns(spans, "hashing.bucket_of", lambda u: bucket_of(u, 8), urls)
    m["hashing.md5_id_ns"] = _per_call_ns(spans, "hashing.md5_id", md5_id, names)

    nodes, dt = spans.timed("grouped.keep_first_block", keep_first_block(["id"], "seq"), nodes_raw)
    m["grouped.keep_first_us_per_row"] = dt / len(nodes_raw) * 1e6
    _, dt = spans.timed("grouped.count_first_block",
                        count_first_block(["subj", "pred", "obj"], "seq"), triples)
    m["grouped.count_first_us_per_row"] = dt / len(triples) * 1e6

    keys, dt = spans.timed("linkage.normalize_surface_series", normalize_surface_series, nodes["name"])
    m["linkage.normalize_us_per_name"] = dt / len(nodes) * 1e6
    canon = nodes.assign(norm_key=keys).sort_values("seq", kind="mergesort")
    canon = canon.drop_duplicates("norm_key", keep="first")
    canon_map = {k: (md5_id(n), n) for k, n in zip(canon["norm_key"], canon["name"])}
    linker = CanonicalizeTriples(ray.put(canon_map))
    _, dt = spans.timed("linkage.CanonicalizeTriples", linker, triples)
    m["linkage.canonicalize_us_per_triple"] = dt / len(triples) * 1e6

    gaz = nodes.assign(_len=nodes["name"].str.len()).sort_values(
        ["_len", "name"], ascending=[False, True], kind="mergesort").head(GAZETTEER_NAMES)
    matcher, dt = spans.timed("ner.build_gazetteer_pattern", build_gazetteer_pattern, gaz["name"].tolist())
    m["ner.compile_ms"] = dt * 1e3
    type_of = dict(zip(gaz["name"], gaz["type"]))
    texts = parsed.column("text_out").to_pylist()

    def tag_all():
        return sum(len(tag_mentions(p, matcher, type_of)) for t in texts for p in t.split("\n"))

    n_mentions, dt = spans.timed("ner.tag_mentions", tag_all)
    m["ner.us_per_page"] = dt / len(texts) * 1e6
    m["ner.mentions_per_page"] = n_mentions / len(texts)

    def round_trips(n: int = 30) -> float:
        samples = []
        for _ in range(n):
            t0 = time.perf_counter()
            counter.incr_many_blocking({"bench_probe": 1})
            samples.append(time.perf_counter() - t0)
        counter.reset()
        return statistics.median(samples)

    m["lineage.counter_rtt_ms"] = spans.timed("lineage.incr_many_blocking", round_trips)[0] * 1e3
    _, m["sources.read_s"] = spans.timed(
        "sources.read_pages", lambda: read_pages(pages_dir, columns=["url", "html"]).materialize())
    return m
