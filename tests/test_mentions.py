import pandas as pd
import ray.data as rd

from knowledgegraph__bh_ray.stages.ner import (
    GazetteerNER,
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
