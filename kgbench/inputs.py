"""Seeded benchmark inputs: a pages table cut from a fixed amplified corpus.

The base corpus is fixed (its own generator seed), shaped like the sf0.1
documents table: ``BASE_DOCS`` short word-salad documents in five languages.
``--seed`` permutes the base documents and picks which range of the
``BASE_DOCS * REPLICAS`` virtual documents becomes the workload's pages; the
page count and the generator's corpus size (entity pool, link targets) stay
fixed, so seeds differ in content, not in shape.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from knowledgegraph__bh_ray.pagegen import ROWS_PER_FILE, generate_pages_range

BASE_DOCS = 5000
REPLICAS = 4
_BASE_SEED = 20250101
_WORDS = (
    "batch part spark line column order small sort fast value scan hash slow group agg "
    "filter query a big key window row table stream merge data vector join customer the"
).split()
_LANGS = ["en", "zh", "es", "fr", "de"]


def _base_corpus() -> tuple[list[str], list[str]]:
    rng = np.random.default_rng(_BASE_SEED)
    lengths = rng.integers(20, 80, BASE_DOCS)
    words = rng.integers(0, len(_WORDS), int(lengths.sum()))
    texts, at = [], 0
    for n in lengths:
        texts.append(" ".join(_WORDS[w] for w in words[at : at + n]))
        at += n
    langs = [_LANGS[i] for i in rng.integers(0, len(_LANGS), BASE_DOCS)]
    return texts, langs


def make_pages(seed: int, n_pages: int) -> pa.Table:
    """The workload's pages table for ``seed`` (same seed, same bytes)."""
    texts, langs = _base_corpus()
    rng = np.random.default_rng(seed)
    perm = rng.permutation(BASE_DOCS)
    texts = [texts[i] for i in perm]
    langs = [langs[i] for i in perm]
    n_docs = BASE_DOCS * REPLICAS
    vstart = int(rng.integers(0, n_docs - n_pages + 1))
    return generate_pages_range(texts, langs, vstart, vstart + n_pages, n_docs)


def input_hash(pages: pa.Table) -> str:
    h = hashlib.sha256()
    for url, html in zip(pages.column("url").to_pylist(), pages.column("html").to_pylist()):
        h.update(url.encode("utf-8"))
        h.update(html)
    return h.hexdigest()[:16]


def write_pages(pages: pa.Table, out_dir: str, rows_per_file: int = ROWS_PER_FILE) -> str:
    """Write ``pages`` as the program's shard layout: one read task per file."""
    os.makedirs(out_dir, exist_ok=True)
    for i, start in enumerate(range(0, pages.num_rows, rows_per_file)):
        pq.write_table(pages.slice(start, rows_per_file), os.path.join(out_dir, f"part-{i:05d}.parquet"))
    return out_dir
