import re

import numpy as np
import pandas as pd
import ray.data as rd

from knowledgegraph__bh_ray.stages.ner import (
    PATTERN_RULES,
    GazetteerNER,
    PatternTagger,
    build_gazetteer_pattern,
    mentions_ds,
    tag_mentions,
)


def test_longest_match_first():
    pat = build_gazetteer_pattern(["机器学习", "机器"])
    tm = tag_mentions("机器学习与机器", pat, {"机器学习": "CONCEPT", "机器": "THING"})
    assert [(m["entity"], m["etype"]) for m in tm] == [
        ("机器学习", "CONCEPT"),
        ("机器", "THING"),
    ]
    assert tm[0]["start"] == 0 and tm[0]["end"] == 4
    assert tm[1]["start"] == 5 and tm[1]["end"] == 7


def test_entity_at_end_is_flushed():
    pat = build_gazetteer_pattern(["北京"])
    tm = tag_mentions("我来自北京", pat, {"北京": "LOC"})
    assert [(m["entity"], m["etype"]) for m in tm] == [("北京", "LOC")]


def test_actor_batch_shape(ray_session):
    df = pd.DataFrame(
        {
            "url": ["u1", "u2"],
            "text_out": ["实体1 出现\n又见 实体1", "没有匹配"],
        }
    )
    out = mentions_ds(rd.from_pandas(df), (["实体1"], ["CONCEPT"])).to_pandas()
    assert len(out) == 2
    assert set(out.columns) == {"url", "para_idx", "entity", "etype", "start", "end"}
    assert (out["entity"] == "实体1").all()
    assert sorted(out["para_idx"]) == [0, 1]


def test_trie_regex_equals_flat_alternation():
    """The trie-structured pattern must match the identical spans the flat
    (-length, name)-ordered alternation would — prefix chains, shared
    prefixes, regex metacharacters, and CJK all exercised."""
    import re

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from knowledgegraph__bh_ray.stages.ner import GazetteerMatcher

    def flat(names):
        vocab = sorted(set(n for n in names if n), key=lambda n: (-len(n), n))
        return re.compile("|".join(re.escape(n) for n in vocab) or r"(?!x)x")

    alphabet = "ab实体1.(["

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.text(alphabet, min_size=1, max_size=4), min_size=0, max_size=8),
        st.text(alphabet + "c ", min_size=0, max_size=30),
    )
    def check(names, text):
        got = list(GazetteerMatcher(names).finditer(text))
        want = [(m.start(), m.end(), m.group()) for m in flat(names).finditer(text)]
        assert got == want

    check()


def test_trie_regex_prefix_chain_longest_wins():
    from knowledgegraph__bh_ray.stages.ner import GazetteerMatcher

    gm = GazetteerMatcher(["a", "ab", "abc", "abcd"])
    assert list(gm.finditer("abcd ab abce")) == [
        (0, 4, "abcd"), (5, 7, "ab"), (8, 11, "abc"),
    ]


def _round_trip_tag_mentions(text, pattern, type_of):
    """The gazetteer tagger as it was: the matcher's spans tagged per char
    (encode_bioes), decoded back (decode_bioes) and located with ``find``
    from the previous mention's end — the reference the direct spans must
    equal."""
    from knowledgegraph__bh_ray.functions.bioes import decode_bioes, encode_bioes

    spans = [(s, e, type_of.get(name, "CONCEPT")) for s, e, name in pattern.finditer(text)]
    if not spans:
        return []
    out, pos = [], 0
    for entity, etype in decode_bioes(text, encode_bioes(text, spans)):
        start = text.find(entity, pos)
        out.append({"entity": entity, "etype": etype, "start": start, "end": start + len(entity)})
        pos = start + len(entity)
    return out


def test_direct_spans_equal_bioes_round_trip(ray_session):
    """tag_mentions and GazetteerNER emit the matcher's spans directly; they
    must equal the BIOES round-trip row for row, and the spans the oracle's
    forward-matching tagger finds.  Names are drawn from a small alphabet
    (single chars → S- tags, prefix chains, regex metacharacters, CJK) and
    texts are built from whole names, so adjacent and repeated matches are
    common."""
    import ray
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from knowledgegraph__bh_ray.oracle import oracle_tag_mentions
    from knowledgegraph__bh_ray.stages.ner import mention_columns, mentions_frame

    alphabet = "ab实体1.([*"
    names_st = st.lists(st.text(alphabet, min_size=1, max_size=4), min_size=1, max_size=8)

    @settings(max_examples=200, deadline=None)
    @given(names_st, st.data())
    def check(names, data):
        piece = st.one_of(st.sampled_from(names), st.text(alphabet + "c \n", max_size=3))
        texts = ["".join(data.draw(st.lists(piece, max_size=12))) for _ in range(3)]
        typed = data.draw(st.lists(st.sampled_from(["PER", "ORG", "实体"]),
                                   min_size=len(names), max_size=len(names)))
        type_of = dict(zip(names, typed))
        # a name missing from type_of is tagged CONCEPT
        partial = {n: t for n, t in type_of.items() if n != names[0]}
        pattern = build_gazetteer_pattern(names)
        name_set = set(names)
        by_len = sorted(name_set, key=len, reverse=True)

        want_cols = mention_columns()
        for url, text in zip(["u0", "u1", "u2"], texts):
            for pi, para in enumerate(text.split("\n")):
                got = tag_mentions(para, pattern, type_of)
                want = _round_trip_tag_mentions(para, pattern, type_of)
                assert got == want
                assert tag_mentions(para, pattern, partial) == _round_trip_tag_mentions(
                    para, pattern, partial)
                assert [(m["entity"], m["start"], m["end"]) for m in got] == [
                    (m["entity"], m["start"], m["end"])
                    for m in oracle_tag_mentions(para, by_len, name_set)
                ]
                for m in want:
                    want_cols["url"].append(url)
                    want_cols["para_idx"].append(pi)
                    for k in ("entity", "etype", "start", "end"):
                        want_cols[k].append(m[k])

        ner = GazetteerNER(ray.put((names, typed)))
        batch = pd.DataFrame({"url": ["u0", "u1", "u2"], "text_out": texts})
        pd.testing.assert_frame_equal(ner(batch), mentions_frame(want_cols))

    check()


def test_pattern_tagger_rules():
    t = PatternTagger()
    out = t.tag("见《机器学习》与 Entity7 于 2024-05-01 强度 0.9")
    got = {(m["entity"], m["etype"]) for m in out}
    assert ("《机器学习》", "TITLE") in got
    assert ("Entity7", "IDENT") in got
    assert ("2024-05-01", "DATE") in got
    assert ("0.9", "NUMBER") in got
    # spans are exact
    first = [m for m in out if m["etype"] == "TITLE"][0]
    assert first["start"] == 1 and first["end"] == 7


def test_pattern_tagger_batch_shape():
    t = PatternTagger()
    df = t(pd.DataFrame({"url": ["u"], "text_out": ["实体3 见 2024-01-02\n无"]}))
    assert set(df.columns) == {"url", "para_idx", "entity", "etype", "start", "end"}
    assert len(df) == 2
    assert df["para_idx"].dtype == np.int64


def _greedy_sweep(text):
    """Every rule's ``finditer`` spans, sorted by (start, -length, rule
    order) and swept left to right, keeping each span that starts at or
    after the last kept span's end."""
    found = sorted(
        (m.start(), -(m.end() - m.start()), order, m.end(), etype)
        for order, (etype, rule) in enumerate(PATTERN_RULES)
        for m in re.finditer(rule, text)
    )
    kept, last_end = [], 0
    for start, _neg_len, _order, end, etype in found:
        if start >= last_end:
            kept.append((etype, start, end))
            last_end = end
    return kept


def test_pattern_tagger_equals_greedy_sweep():
    """The tagger's mentions are the swept rule spans as they stand: each
    one's text is its span of the input and fully matches its own rule.
    Texts are built from the rules' own characters and a few rule-shaped
    pieces, so overlapping, adjacent and repeated matches are common."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    rule_of = dict(PATTERN_RULES)
    tagger = PatternTagger()
    piece = st.sampled_from(["0", "1", "2", "5", "12", "2024", "2024-01-02", "1.5", ".", "-",
                             "Entity", "实体", "《", "》", " "])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(piece, max_size=24))
    def check(pieces):
        text = "".join(pieces)
        got = tagger.tag(text)
        assert [(m["etype"], m["start"], m["end"]) for m in got] == _greedy_sweep(text)
        for m in got:
            assert text[m["start"]:m["end"]] == m["entity"]
            assert re.fullmatch(rule_of[m["etype"]], m["entity"])

    check()


def test_pattern_tagger_locates_repeated_text_at_its_match():
    """A NUMBER whose text also occurs inside a skipped, overlapping match
    earlier in the paragraph is reported where its rule matched."""
    got = PatternTagger().tag("2024-01-021.5 1.5")
    assert [(m["entity"], m["etype"], m["start"], m["end"]) for m in got] == [
        ("2024-01-02", "DATE", 0, 10),
        ("1.5", "NUMBER", 14, 17),
    ]
