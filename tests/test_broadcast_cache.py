"""Per-worker broadcast cache (state/broadcast.py): a map task must build
its lookup from the ref it carries, never serve a previous build's
vocabulary from the worker's cache."""

import pandas as pd
import ray
import ray.data as rd

from knowledgegraph__bh_ray.functions.hashing import md5_id
from knowledgegraph__bh_ray.pipelines import kg
from knowledgegraph__bh_ray.state.broadcast import from_broadcast
from knowledgegraph__bh_ray.stages.linkage import normalize_surface
from knowledgegraph__bh_ray.stages.crf import CRFNER, crf_mentions_ds
from knowledgegraph__bh_ray.stages.ner import (
    PatternTagger,
    build_gazetteer_pattern,
    mentions_ds,
    pattern_mentions_ds,
    tag_mentions,
)

EDGE_COLS = ["subj", "pred", "obj", "weight", "url", "seq", "subj_name", "obj_name", "props_json"]
MENTION_COLS = ["url", "para_idx", "entity", "etype", "start", "end"]

_builds: list = []


def _load(ref):
    _builds.append(ref)
    return ray.get(ref)


def _sorted(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    return df[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)


def test_from_broadcast_builds_once_per_ref(ray_session):
    a, b = ray.put(["a"]), ray.put(["b"])
    _builds.clear()
    assert from_broadcast(a, _load) == ["a"]
    assert from_broadcast(a, _load) == ["a"]
    assert len(_builds) == 1
    assert from_broadcast(b, _load) == ["b"]
    # one entry per build: the new ref replaced the old one
    assert from_broadcast(a, _load) == ["a"]
    assert len(_builds) == 3


def _serial_mentions(texts: pd.DataFrame, names: list[str], types: list[str]) -> pd.DataFrame:
    pattern = build_gazetteer_pattern(names)
    type_of = dict(zip(names, types))
    rows = [
        {"url": url, "para_idx": pi, **m}
        for url, text in zip(texts["url"], texts["text_out"])
        for pi, para in enumerate(text.split("\n"))
        for m in tag_mentions(para, pattern, type_of)
    ]
    return pd.DataFrame(rows, columns=MENTION_COLS)


def _serial_dedup_count(linked: pd.DataFrame) -> pd.DataFrame:
    keys = ["subj", "pred", "obj"]
    first = linked.sort_values("seq", kind="mergesort").drop_duplicates(keys, keep="first")
    weight = linked.groupby(keys).size().rename("weight").reset_index()
    return first.merge(weight, on=keys)[EDGE_COLS]


def _serial_edges(triples: pd.DataFrame, node_ids: frozenset) -> pd.DataFrame:
    return _serial_dedup_count(
        triples[triples["subj"].isin(node_ids) & triples["obj"].isin(node_ids)])


def _serial_edges_canonical(triples: pd.DataFrame, canon_map: dict) -> pd.DataFrame:
    sk = triples["subj_name"].map(normalize_surface)
    ok = triples["obj_name"].map(normalize_surface)
    linked = triples.assign(
        subj=sk.map(lambda k: canon_map.get(k, (None, None))[0]),
        obj=ok.map(lambda k: canon_map.get(k, (None, None))[0]),
        subj_name=sk.map(lambda k: canon_map.get(k, (None, None))[1]),
        obj_name=ok.map(lambda k: canon_map.get(k, (None, None))[1]),
    )
    return _serial_dedup_count(linked[linked["subj"].notna() & linked["obj"].notna()])


def test_second_vocabulary_never_served_from_first_cache(ray_session, pages_small):
    """mentions_ds, then edges_canonical_ds, then edges_ds, each twice in
    one session with a different vocabulary (gazetteer, canonical map,
    node-id set): every result equals a fresh single-process computation
    over that run's own vocabulary, so each edges_ds run drops exactly the
    triples with an endpoint outside its own id set.  After the two gazetteer
    runs, the pattern and CRF taggers run over the same blocks: three
    builders share the per-worker cache without serving each other's
    tagger, and the task path changes no row of either."""
    parsed = kg.parsed_ds(pages_small).repartition(8).materialize()
    texts = parsed.select_columns(["url", "text_out"]).to_pandas()
    nodes = kg.nodes_ds(parsed).to_pandas().sort_values("id").reset_index(drop=True)
    extracted = rd.from_pandas(texts).repartition(8)

    names = nodes["name"].tolist()
    vocabs = [
        (names[0::2], ["A"] * len(names[0::2])),
        (names[1::2], ["B"] * len(names[1::2])),
    ]
    results = []
    for gaz in vocabs:
        got = mentions_ds(extracted, gaz, batch_size=32).to_pandas()
        want = _serial_mentions(texts, *gaz)
        assert len(want)
        pd.testing.assert_frame_equal(
            _sorted(got, MENTION_COLS), _sorted(want, MENTION_COLS), check_dtype=False
        )
        results.append(got)
    assert not _sorted(results[0], MENTION_COLS).equals(_sorted(results[1], MENTION_COLS))

    for run, tagger in [(pattern_mentions_ds, PatternTagger()), (crf_mentions_ds, CRFNER())]:
        got = run(extracted).to_pandas()
        want = tagger(texts)
        assert len(want)
        pd.testing.assert_frame_equal(
            _sorted(got, MENTION_COLS), _sorted(want, MENTION_COLS), check_dtype=False
        )

    triples = kg.triples_raw_ds(parsed).to_pandas()
    keys = sorted({normalize_surface(n) for n in names})
    maps = [
        {k: (md5_id(k), k) for k in keys[0::2]},
        {k: (md5_id(k + "#b"), k.upper()) for k in keys},
    ]
    for canon_map in maps:
        got = kg.edges_canonical_ds(parsed, canon_map=canon_map).to_pandas()
        want = _serial_edges_canonical(triples, canon_map)
        assert len(want)
        pd.testing.assert_frame_equal(
            _sorted(got, EDGE_COLS), _sorted(want, EDGE_COLS), check_dtype=False
        )

    ids = nodes["id"].tolist()
    results = []
    for node_ids in (frozenset(ids), frozenset(ids[0::2])):
        got = kg.edges_ds(parsed, node_ids=node_ids).to_pandas()
        want = _serial_edges(triples, node_ids)
        assert len(want) < len(triples)
        assert len(want)
        pd.testing.assert_frame_equal(
            _sorted(got, EDGE_COLS), _sorted(want, EDGE_COLS), check_dtype=False
        )
        results.append(got)
    assert len(results[1]) < len(results[0])
