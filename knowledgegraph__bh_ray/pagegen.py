"""Deterministic synthetic Common-Crawl-style pages table (FIXTURES.md F1).

The engine's authoritative input shape (BASELINE.json input_hint) is a Parquet
table ``(url: string, warc_ts: timestamp[us], html: binary, text: string,
lang: string)``.  The driver's testdata has no such table, so this module
synthesizes one *deterministically* (seeded per doc, no global RNG) from the
driver's ``documents.parquet`` — same row count, text content seeded from the
document text.  Both the Ray engine and the single-process oracle read the
same generated file; DuckDB oracle SQL reads it via ``read_parquet``.

Every page embeds, per FIXTURES.md F1:
  * the reference's markdown grammar in body paragraphs (concept lines
    ``- 名称 @类型 k=v``, nested ``--`` children, relation lines
    ``- 源 --> 目标 : 类型 强度=0.9`` incl. the ``类型=X`` unwrap variant,
    quoted props, dangling targets) → triple-extraction ground truth;
  * normalizer bait: ``$..$`` latex, ``![..](..)`` images, math-symbol-dense
    lines, private-use glyphs;
  * duplicate-content pages (same body as the previous doc) and a fixed hot
    triple on every 5th page (head-entity skew for the salting path);
  * internal ``/item/`` links with query strings to strip, external links,
    links outside the main-content scope;
  * ~1% anti-bot verification pages (blocklist strings, must be dropped);
  * a ``text`` column that is stale for some rows — proving the engine
    extracts from ``html``.

Output is cached under ``/tmp/kgbh_pages/<sf_name>/pages.parquet`` (atomic
rename; regeneration is idempotent because generation is deterministic).
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

BAIKE_PREFIX = "https://baike.baidu.com"
PAGES_ROOT = "/tmp/kgbh_pages"

ENTITY_TYPES = ["概念", "元素", "类别", "模型", "组件", "实例", "属性"]
REL_TYPES = ["包含", "属于", "相关", "依赖", "派生", "应用于"]
INFO_KEYS = ["中文名", "外文名", "类型", "领域", "提出时间"]

PAGES_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("html", pa.binary()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)

VERIFICATION_HTML = (
    "<html><head><title>安全验证</title></head><body>"
    '<div class="verify">百度安全验证</div>'
    "<p>请输入验证码以继续访问。</p>"
    "</body></html>"
)


def entity_pool(n_docs: int) -> tuple[list[str], list[str]]:
    """Global entity pool: names + per-entity fixed type. ~n_docs/5 entities,
    every 7th ASCII-named (case-variant linking bait)."""
    n_ent = max(40, n_docs // 5)
    names = [f"Entity{i}" if i % 7 == 0 else f"实体{i}" for i in range(n_ent)]
    types = [ENTITY_TYPES[i % len(ENTITY_TYPES)] for i in range(n_ent)]
    return names, types


def _surface(rng: np.random.Generator, name: str) -> str:
    """Deterministic surface-form variant of an entity name (linking bait)."""
    v = int(rng.integers(0, 4))
    if v == 1:
        return f"《{name}》"
    if v == 2 and name.isascii():
        return name.upper()
    if v == 3 and name.isascii():
        return name.lower()
    return name


def _pick_entity(rng: np.random.Generator, n_ent: int) -> int:
    """Zipfian entity index — head-entity skew is intentional."""
    z = int(rng.zipf(1.5))
    return (z - 1) % n_ent


def doc_url(doc_id: int) -> str:
    return f"{BAIKE_PREFIX}/item/doc{doc_id}/{doc_id}"


def _build_paragraphs(
    rng: np.random.Generator,
    doc_id: int,
    words: list[str],
    ent_names: list[str],
    ent_types: list[str],
) -> list[str]:
    n_ent = len(ent_names)
    w = lambda: words[int(rng.integers(0, len(words)))] if words else "data"
    paras: list[str] = []

    paras.append(" ".join(words[:12]) if words else f"文档{doc_id}")
    paras.append("## 【核心概念】")

    n_c = int(rng.integers(3, 8))
    for _ in range(n_c):
        ei = _pick_entity(rng, n_ent)
        surface = _surface(rng, ent_names[ei])
        line = f"- {surface} @{ent_types[ei]}"
        if rng.random() < 0.3:
            line += f" 权重=0.{int(rng.integers(1, 9))}"
        paras.append(line)
        if rng.random() < 0.25:
            ci = _pick_entity(rng, n_ent)
            paras.append(f"-- {_surface(rng, ent_names[ci])} @{ent_types[ci]}")
        if rng.random() < 0.2:
            paras.append(f'描述="{w()}" 级别={int(rng.integers(1, 5))}')

    paras.append("## 【关联关系】")
    n_r = int(rng.integers(2, 7))
    for _ in range(n_r):
        si = _pick_entity(rng, n_ent)
        src = _surface(rng, ent_names[si])
        if rng.random() < 0.15:
            dst = f"未定义{int(rng.integers(0, 1000))}"  # dangling target
        else:
            dst = _surface(rng, ent_names[_pick_entity(rng, n_ent)])
        rel = REL_TYPES[int(rng.integers(0, len(REL_TYPES)))]
        form = int(rng.integers(0, 5))
        if form == 0:
            paras.append(f"- {src} --> {dst} : {rel}")
        elif form == 1:
            paras.append(f"- {src} --> {dst} : {rel} 强度=0.{int(rng.integers(1, 9))}")
        elif form == 2:
            paras.append(f"- {src} --> {dst} : 类型={rel}")
        elif form == 3:
            paras.append(f'- {src} --> {dst} : {rel} 描述="{w()}"')
        else:
            paras.append(f"-- {src} --> {dst} : {rel}")

    if doc_id % 5 == 0:
        paras.append(f"- {ent_names[0]} --> {ent_names[1]} : 包含")  # hot triple

    paras.append("∑∏∫≈≠≤≥±×÷∞√∠∥")  # math density > 0.1 → [公式]
    paras.append(f"能量关系 ${w()}^2$ 系数")  # $..$ → \(..\)
    paras.append(f"右图 ![示意图](img/{doc_id % 100}.png) 所示")  # → [图片]
    paras.append(f" 要点 {w()}")  # glyph → '- ● '

    for k in range(3):
        lo = 12 + 10 * k
        if lo < len(words):
            paras.append(" ".join(words[lo : lo + 10]))
    return paras


def _render_html(
    rng: np.random.Generator,
    doc_id: int,
    title: str,
    summary: str,
    paras: list[str],
    words: list[str],
    n_docs: int,
) -> str:
    w = lambda: words[int(rng.integers(0, len(words)))] if words else "data"
    parts = [f"<html><head><title>{title}</title></head><body>"]
    parts.append(f'<h1 class="lemmaTitle_iuBlp J-lemma-title">{title}</h1>')
    parts.append(f'<div class="lemmaSummary_dhg1F J-summary">{summary}</div>')

    parts.append('<div class="basicInfo_tLQSv J-basic-info"><dl>')
    n_info = int(rng.integers(2, 5))
    for i in range(n_info):
        key = INFO_KEYS[i % len(INFO_KEYS)]
        val = title if key == "中文名" else w()
        parts.append(
            f'<dt class="basicInfoItem_iG0fH itemName_RXMP4">{key}</dt>'
            f'<dd class="basicInfoItem_iG0fH itemValue_oIfsW">{val}</dd>'
        )
    parts.append("</dl></div>")

    parts.append('<div class="catalogList_dUefQ"><ul>')
    for level, label in (("level1", "简介"), ("level2", "定义"), ("level1", "应用"), ("level2", "示例")):
        parts.append(
            f'<li class="{level}"><span class="catalogText_rCNjq">'
            f'<a href="#{label}">{label}</a></span></li>'
        )
    parts.append("</ul></div>")

    parts.append('<div class="mainContent_MGLNI">')
    for p in paras:
        parts.append(f'<p class="para_WzwJ3">{p}</p>')
    # internal links (query strings must be stripped by the extractor)
    n_links = int(rng.integers(2, 6))
    for _ in range(n_links):
        j = int(rng.integers(0, n_docs))
        parts.append(
            f'<p class="para_WzwJ3">参见 <a class="innerLink_KLXyc" '
            f'href="/item/doc{j}/{j}?fr=aladdin&fromModule=lemma">doc{j}</a></p>'
        )
    # external link — must NOT survive the /item/ filter
    parts.append(
        '<p class="para_WzwJ3">外部 <a class="innerLink_KLXyc" '
        'href="https://example.org/out">外部资源</a></p>'
    )
    # link without the scoped class — must NOT appear in scoped links
    parts.append(
        f'<p class="para_WzwJ3">另见 <a class="plainLink" '
        f'href="/item/doc{(doc_id + 1) % n_docs}/{(doc_id + 1) % n_docs}">别的词条</a></p>'
    )
    parts.append('<p class="para_WzwJ3">   </p>')  # empty paragraph → dropped
    parts.append("</div>")

    # scoped-class link OUTSIDE mainContent — must NOT appear in scoped links
    parts.append(
        f'<div class="sideBar"><a class="innerLink_KLXyc" '
        f'href="/item/doc{doc_id}/{doc_id}">自引</a></div>'
    )

    parts.append(
        '<div class="referenceItem_Z9PAD J-ref-item">'
        f'<a class="refLink_Pcdfd" href="/reference/{doc_id}">参考资料{doc_id % 7}</a>'
        f"<span>来源{doc_id % 5}</span><span>2024-0{doc_id % 9 + 1}-01</span></div>"
    )
    parts.append("</body></html>")
    return "\n".join(parts)


def generate_pages_range(
    base_texts: list[str],
    base_langs: list[str],
    vstart: int,
    vend: int,
    n_docs: int,
) -> pa.Table:
    """Generate virtual pages [vstart, vend) of an amplified corpus.

    Virtual doc ``i`` reuses base doc ``i % n_base``'s text; everything else
    is a pure function of ``i`` (seeded rng), so ranges generate
    independently — the parallel path shards on this."""
    n_base = len(base_texts)
    ent_names, ent_types = entity_pool(n_docs)
    base_ts = np.datetime64("2025-01-01T00:00:00", "us")
    urls, tss, htmls, out_texts, out_langs = [], [], [], [], []

    for i in range(vstart, vend):
        doc_id = i
        urls.append(doc_url(doc_id))
        tss.append(base_ts + np.timedelta64(doc_id, "s"))
        out_langs.append(base_langs[i % n_base])

        if doc_id % 97 == 13:  # anti-bot verification page
            htmls.append(VERIFICATION_HTML.encode("utf-8"))
            out_texts.append("")
            continue

        # duplicate-content pages reuse the previous doc's body (dedup bait)
        content_id = doc_id - 1 if (doc_id % 11 == 3 and i > 0) else doc_id
        text = base_texts[content_id % n_base] or ""
        words = text.split()
        rng = np.random.default_rng(content_id + 1_000_003)

        title = f"词条{content_id}"
        summary = text[:80].strip()
        paras = _build_paragraphs(rng, content_id, words, ent_names, ent_types)
        html = _render_html(rng, content_id, title, summary, paras, words, n_docs)
        htmls.append(html.encode("utf-8"))

        if doc_id % 13 == 7:
            out_texts.append("STALE-TEXT-COLUMN")  # engine must use html
        else:
            out_texts.append("\n".join(paras))

    return pa.Table.from_arrays(
        [
            pa.array(urls, pa.string()),
            pa.array(tss, pa.timestamp("us")),
            pa.array(htmls, pa.binary()),
            pa.array(out_texts, pa.string()),
            pa.array(out_langs, pa.string()),
        ],
        schema=PAGES_SCHEMA,
    )


def _load_base(documents_path: str) -> tuple[list[str], list[str]]:
    docs = pq.read_table(documents_path, columns=["doc_id", "text", "lang"])
    ids = docs.column("doc_id").to_pylist()
    assert ids == list(range(len(ids))), "documents.doc_id must be 0..n-1"
    return docs.column("text").to_pylist(), docs.column("lang").to_pylist()


ROWS_PER_FILE = 2048


def pages_path(sf_dir: str, root: str = PAGES_ROOT, replicas: int = 1) -> str:
    """Directory of parquet shard files — one ray read task per file, so the
    extract stage parallelizes (a single parquet file is read by ONE task
    regardless of row groups)."""
    sf_name = os.path.basename(os.path.normpath(sf_dir))
    if replicas > 1:
        sf_name = f"{sf_name}_x{replicas}"
    return os.path.join(root, sf_name, "pages")


def ensure_pages(sf_dir: str, root: str = PAGES_ROOT, replicas: int = 1) -> str:
    """Generate (once, atomically) the pages table for an sf dir; return the
    shard-directory path.  Deterministic → idempotent; the directory is
    renamed into place only when complete."""
    out = pages_path(sf_dir, root, replicas)
    if os.path.isdir(out):
        return out
    os.makedirs(os.path.dirname(out), exist_ok=True)
    documents_path = os.path.join(sf_dir, "documents.parquet")
    texts, langs = _load_base(documents_path)
    n_docs = len(texts) * replicas

    tmp = tempfile.mkdtemp(dir=os.path.dirname(out), prefix=".pages.tmp.")
    try:
        _write_shards(documents_path, texts, langs, n_docs, tmp)
        try:
            os.rename(tmp, out)  # atomic publish
        except OSError:
            pass  # lost the race — equal bytes already published
    finally:
        if os.path.isdir(tmp):
            import shutil

            shutil.rmtree(tmp)
    return out


def _write_shards(documents_path, texts, langs, n_docs, tmp):
    """Write part files; generation is range-parallel via Ray when a session
    exists and the corpus is large (each task generates+writes its shard —
    ranges are independent by construction)."""
    ranges = [
        (i, start, min(start + ROWS_PER_FILE, n_docs))
        for i, start in enumerate(range(0, n_docs, ROWS_PER_FILE))
    ]
    use_ray = False
    try:
        import ray

        use_ray = ray.is_initialized() and n_docs >= 50_000
    except ImportError:
        pass

    if not use_ray:
        for i, s, e in ranges:
            pq.write_table(
                generate_pages_range(texts, langs, s, e, n_docs),
                os.path.join(tmp, f"part-{i:05d}.parquet"),
            )
        return

    import ray

    texts_ref = ray.put(texts)
    langs_ref = ray.put(langs)

    @ray.remote
    def _gen(i, s, e, texts, langs):  # ObjectRef args arrive dereferenced
        t = generate_pages_range(texts, langs, s, e, n_docs)
        pq.write_table(t, os.path.join(tmp, f"part-{i:05d}.parquet"))
        return t.num_rows

    ray.get([_gen.remote(i, s, e, texts_ref, langs_ref) for i, s, e in ranges])
