"""CRF tagger gate: the batched padded actor path must equal an INDEPENDENT
straight-line scalar implementation (different code, same math) for every
sequence, regardless of batch composition."""

import numpy as np
import pandas as pd

from knowledgegraph__bh_ray.stages.crf import (
    CRFNER,
    CRFParams,
    char_id,
)


def oracle_decode(text: str, params: CRFParams) -> list[str]:
    """Scalar-loop BiLSTM-CRF decode of ONE unpadded sequence."""
    T = len(text)
    if T == 0:
        return []
    ids = [char_id(c, params.vocab_size) for c in text]
    E = [params.embed[i] for i in ids]
    hd = params.hd

    def run_dir(xs, d):
        h = np.zeros(hd)
        c = np.zeros(hd)
        outs = []
        for x in xs:
            g = params.w_ih[d] @ x + params.w_hh[d] @ h + params.bias[d]
            i = 1.0 / (1.0 + np.exp(-g[:hd]))
            f = 1.0 / (1.0 + np.exp(-g[hd : 2 * hd]))
            gg = np.tanh(g[2 * hd : 3 * hd])
            o = 1.0 / (1.0 + np.exp(-g[3 * hd :]))
            c = f * c + i * gg
            h = o * np.tanh(c)
            outs.append(h.copy())
        return outs

    fwd = run_dir(E, 0)
    bwd = list(reversed(run_dir(list(reversed(E)), 1)))
    em = [params.w_tag @ np.concatenate([fwd[t], bwd[t]]) + params.b_tag for t in range(T)]

    L = len(params.labels)
    vit = params.start_trans + em[0]
    bps = []
    for t in range(1, T):
        bp = np.zeros(L, dtype=int)
        nv = np.zeros(L)
        for cur in range(L):
            scores = [vit[p] + params.transitions[p, cur] for p in range(L)]
            bp[cur] = int(np.argmax(scores))
            nv[cur] = max(scores) + em[t][cur]
        vit = nv
        bps.append(bp)
    vit = vit + params.end_trans
    cur = int(np.argmax(vit))
    path = [cur]
    for bp in reversed(bps):
        cur = int(bp[cur])
        path.append(cur)
    path.reverse()
    return [params.labels[i] for i in path]


TEXTS = [
    "实体5 与 实体17 的关系如下。",
    "a",
    "北京大学位于北京市海淀区",
    "",
    "short",
    "《机器学习》是一本书，Entity7 在 2024-05-01 读完了它。" * 3,
    "中文 and english mixed 文本 with spaces",
    "x" * 200,
]


def test_batched_equals_scalar_oracle():
    tagger = CRFNER()
    got = tagger.tag_texts(TEXTS)
    for text, labels in zip(TEXTS, got):
        assert labels == oracle_decode(text, tagger.params), f"mismatch on {text[:30]!r}"


def test_batch_composition_invariance():
    """Padding amount / grouping cannot change any sequence's labels —
    the property the reference's padded decode does NOT have."""
    tagger = CRFNER()
    a = tagger.tag_texts(TEXTS)
    b_perm = tagger.tag_texts(list(reversed(TEXTS)))
    assert a == list(reversed(b_perm))
    # one-at-a-time equals batched
    singles = [tagger.tag_texts([t])[0] for t in TEXTS]
    assert a == singles


def test_actor_batch_output_shape_and_spans():
    tagger = CRFNER()
    df = tagger(pd.DataFrame({"url": ["u1"], "text_out": ["\n".join(TEXTS[:4])]}))
    assert list(df.columns) == ["url", "para_idx", "entity", "etype", "start", "end"]
    assert df["start"].dtype == np.int64
    paras = TEXTS[:4]
    for _, r in df.iterrows():
        assert paras[r["para_idx"]][r["start"] : r["end"]] == r["entity"]
        assert r["etype"] == "CONCEPT"


def test_deterministic_across_instances():
    a = CRFNER().tag_texts(TEXTS)
    b = CRFNER().tag_texts(TEXTS)
    assert a == b


def test_nll_gradients_match_finite_difference():
    """Analytic forward-backward gradients of the sentence NLL vs central
    finite differences on every CRF-head parameter (the verdict-#6 gate:
    the NLL gradient is hand-derived, so check it numerically)."""
    from knowledgegraph__bh_ray.stages.crf import (CRFParams, _crf_nll_grads,
                                                   _hidden_single, crf_nll)

    params = CRFParams(seed=3)
    rng = np.random.default_rng(0)
    cases = [
        ("实体A在北京", np.array([1, 2, 3, 0, 1], dtype=np.int64)),  # B I E O B
        # longer mixed sequence — exercises logsumexp stability over T=24
        ("《机器学习》是一本书，Entity7 在 2024 读完了它",
         np.array(([1, 2, 2, 3, 0, 4] * 4), dtype=np.int64)),
    ]
    eps = 1e-6
    for text, g in cases:
        h = _hidden_single(text[: len(g)], params)
        loss, grads = _crf_nll_grads(params, h, g)
        assert np.isclose(loss, crf_nll(params, h, g))
        for name in ("w_tag", "b_tag", "transitions", "start_trans", "end_trans"):
            arr = getattr(params, name)
            flat = arr.reshape(-1)
            # probe a handful of random coordinates per tensor
            for idx in rng.choice(flat.size, size=min(12, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = crf_nll(params, h, g)
                flat[idx] = orig - eps
                dn = crf_nll(params, h, g)
                flat[idx] = orig
                num = (up - dn) / (2 * eps)
                ana = grads[name].reshape(-1)[idx]
                assert np.isclose(num, ana, rtol=1e-4, atol=1e-6), (name, idx, num, ana)


def test_nll_training_improves_f1_and_reduces_loss():
    """Objective-parity with the reference trainer (NLL + Adam +
    save-best-by-F1, bilstm_crf_ner.py:509-535, 799-803): on the 4-sentence
    sample the mean NLL must fall and tag F1 must beat the untrained
    seeded weights, with the served params being the best checkpoint."""
    from knowledgegraph__bh_ray.stages.crf import (CRFParams, tag_accuracy,
                                                   train_nll)

    texts = ["实体A在北京", "实体B在上海", "南京是城市", "他去了广州"]
    gold = [
        ["B-CONCEPT", "I-CONCEPT", "E-CONCEPT", "O", "B-CONCEPT", "E-CONCEPT"],
        ["B-CONCEPT", "I-CONCEPT", "E-CONCEPT", "O", "B-CONCEPT", "E-CONCEPT"],
        ["B-CONCEPT", "E-CONCEPT", "O", "B-CONCEPT", "E-CONCEPT"],
        ["O", "O", "O", "B-CONCEPT", "E-CONCEPT"],
    ]
    params = CRFParams()
    before = tag_accuracy(params, texts, gold)
    res = train_nll(params, texts, gold, epochs=25, lr=0.05)
    after = tag_accuracy(params, texts, gold)
    assert res["losses"][-1] < res["losses"][0]  # NLL decreases
    assert after > before                        # F1 improves
    assert res["best_f1"] == after               # served = best checkpoint
    assert len(res["history"]) == len(res["losses"]) == 25


def test_nll_training_deterministic():
    from knowledgegraph__bh_ray.stages.crf import CRFParams, train_nll

    texts = ["实体A在北京", "南京是城市"]
    gold = [
        ["B-CONCEPT", "I-CONCEPT", "E-CONCEPT", "O", "B-CONCEPT", "E-CONCEPT"],
        ["B-CONCEPT", "E-CONCEPT", "O", "B-CONCEPT", "E-CONCEPT"],
    ]
    r1 = train_nll(CRFParams(), texts, gold, epochs=5)
    r2 = train_nll(CRFParams(), texts, gold, epochs=5)
    assert r1["losses"] == r2["losses"] and r1["history"] == r2["history"]
    assert np.array_equal(r1["best"]["w_tag"], r2["best"]["w_tag"])
