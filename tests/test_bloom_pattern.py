import numpy as np
import pandas as pd

from knowledgegraph__bh_ray.stages.ner import PatternTagger


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
