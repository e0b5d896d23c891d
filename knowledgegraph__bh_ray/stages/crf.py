"""BiLSTM-CRF mention tagger — the A2 model slot made real.

Reproduces the reference model's inference math (bilstm_crf_ner.py:329-506)
in numpy with deterministic seeded weights (no torch in this environment;
the weights stand in for a trained checkpoint, the MATH is the real thing):

    char embedding → bidirectional LSTM → linear emission scores →
    CRF Viterbi decode

The Viterbi recurrence keeps the reference's transition-matrix orientation
(``next_tag_var[b, prev, cur] = viterbi[b, prev] + transitions[prev, cur]``,
bilstm_crf_ner.py:432-434) and its masked score-freezing.  Batched padded
inference follows the collate_fn semantics (bilstm_crf_ner.py:180-211):
pad to batch max length + attention mask.

Two deterministic deltas from the reference, both deliberate:

  * the backward LSTM runs from each sequence's true end (equivalent to
    pack_padded_sequence) — the reference feeds the padded batch straight
    to ``nn.LSTM`` (bilstm_crf_ner.py:488), so its backward states depend
    on how much padding the DataLoader happened to add;
  * the Viterbi backtrace starts at each sequence's last VALID position —
    the reference backtracks from the padded tail through backpointers
    computed on frozen scores (bilstm_crf_ner.py:454-459), so its decoded
    tags depend on batch composition.

With those fixed, padded-batch decode ≡ per-sequence decode for any batch
composition — the property the pytest gate asserts against an independent
straight-line (scalar-loop) oracle implementation.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

from ..functions.bioes import decode_bioes
from ..functions.hashing import stable_u64
from ..state.broadcast import broadcast_map
from .ner import mention_columns, mentions_frame

LABELS = ["O", "B-CONCEPT", "I-CONCEPT", "E-CONCEPT", "S-CONCEPT"]
VOCAB_SIZE = 512
EMBED_DIM = 16
HIDDEN_DIM = 32  # total over both directions (16 per direction)


def char_id(ch: str, vocab_size: int = VOCAB_SIZE) -> int:
    """Deterministic char → id (hash vocab; 0 is the pad id)."""
    return int(stable_u64(ch) % (vocab_size - 1)) + 1


class CRFParams:
    """Deterministic seeded model weights.  ``crf_mentions_ds`` broadcasts
    them, so a trained checkpoint would reach every worker the same way."""

    def __init__(self, seed: int = 42, labels: list[str] = LABELS,
                 vocab_size: int = VOCAB_SIZE, embed_dim: int = EMBED_DIM,
                 hidden_dim: int = HIDDEN_DIM):
        rng = np.random.default_rng(seed)
        n_labels = len(labels)
        hd = hidden_dim // 2
        s = 0.3
        self.labels = labels
        self.vocab_size = vocab_size
        self.hd = hd
        self.embed = rng.standard_normal((vocab_size, embed_dim)) * s
        # per direction: input/hidden weights + bias, torch gate order i,f,g,o
        self.w_ih = [rng.standard_normal((4 * hd, embed_dim)) * s for _ in range(2)]
        self.w_hh = [rng.standard_normal((4 * hd, hd)) * s for _ in range(2)]
        self.bias = [rng.standard_normal(4 * hd) * s for _ in range(2)]
        # emissions carry the per-char signal; scaled above the transition
        # noise so decoded paths actually switch labels (a flat-emission
        # model degenerates to the best self-loop — all O)
        self.w_tag = rng.standard_normal((n_labels, hidden_dim)) * 2.0
        self.b_tag = rng.standard_normal(n_labels) * s
        # a trained BIOES CRF learns hard penalties on invalid transitions
        # (O→I, B→B, …) — encode exactly that structure: random scores on
        # valid transitions, a large negative on invalid ones, so decoded
        # paths are valid BIOES sequences (entities actually decodable).
        # Indexed [prev, cur] — the orientation the reference's decode uses.
        O, B, I, E, S_ = range(5)
        valid = np.zeros((n_labels, n_labels), dtype=bool)
        for prev, curs in {
            O: (O, B, S_), B: (I, E), I: (I, E), E: (O, B, S_), S_: (O, B, S_),
        }.items():
            for cur in curs:
                valid[prev, cur] = True
        self.transitions = rng.standard_normal((n_labels, n_labels)) * s - 10.0 * (~valid)
        start_ok = np.array([True, True, False, False, True])  # O, B, S
        end_ok = np.array([True, False, False, True, True])  # O, E, S
        self.start_trans = rng.standard_normal(n_labels) * s - 10.0 * (~start_ok)
        self.end_trans = rng.standard_normal(n_labels) * s - 10.0 * (~end_ok)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _lstm_direction(x: np.ndarray, mask: np.ndarray, w_ih, w_hh, b) -> np.ndarray:
    """One LSTM direction over (B, T, E) with (B, T) mask: padded steps hold
    state.  Python loops over TIME only; every step is a (B, ·) matmul."""
    bsz, seq_len, _ = x.shape
    hd = w_hh.shape[1]
    h = np.zeros((bsz, hd))
    c = np.zeros((bsz, hd))
    out = np.zeros((bsz, seq_len, hd))
    # input-side gate contributions for ALL timesteps in one matmul — only
    # the recurrent h @ w_hh term stays inside the time loop
    xg = x @ w_ih.T + b
    for t in range(seq_len):
        gates = xg[:, t] + h @ w_hh.T
        # torch gate order i,f,g,o: i and f are adjacent → one sigmoid call
        s_if = _sigmoid(gates[:, : 2 * hd])
        i = s_if[:, :hd]
        f = s_if[:, hd:]
        g = np.tanh(gates[:, 2 * hd : 3 * hd])
        o = _sigmoid(gates[:, 3 * hd :])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        m = mask[:, t][:, None]
        h = m * h_new + (1.0 - m) * h
        c = m * c_new + (1.0 - m) * c
        out[:, t] = h
    return out


def _reverse_padded(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Reverse each row's valid prefix in place of position (pad tail kept) —
    the pack_padded equivalence for the backward direction."""
    bsz, seq_len = x.shape[0], x.shape[1]
    t_idx = np.arange(seq_len)[None, :]
    src = lengths[:, None] - 1 - t_idx
    src = np.where(src >= 0, src, t_idx)
    return x[np.arange(bsz)[:, None], src]


def emissions_batch(ids: np.ndarray, mask: np.ndarray, params: CRFParams) -> np.ndarray:
    """(B, T) padded char ids + mask → (B, T, n_labels) emission scores."""
    lengths = mask.sum(axis=1).astype(np.int64)
    x = params.embed[ids]  # (B, T, E)
    fwd = _lstm_direction(x, mask, params.w_ih[0], params.w_hh[0], params.bias[0])
    x_rev = _reverse_padded(x, lengths)
    bwd_rev = _lstm_direction(x_rev, mask, params.w_ih[1], params.w_hh[1], params.bias[1])
    bwd = _reverse_padded(bwd_rev, lengths)
    hcat = np.concatenate([fwd, bwd], axis=2)  # (B, T, H)
    return hcat @ params.w_tag.T + params.b_tag


def viterbi_batch(emissions: np.ndarray, mask: np.ndarray, params: CRFParams) -> np.ndarray:
    """Masked batched Viterbi (reference recurrence; backtrace from each
    sequence's last valid position).  Returns (B, T) label indices — only
    the first ``length`` entries of each row are meaningful."""
    bsz, seq_len, n_labels = emissions.shape
    lengths = mask.sum(axis=1).astype(np.int64)
    vit = params.start_trans[None, :] + emissions[:, 0]
    backptr = np.zeros((bsz, seq_len, n_labels), dtype=np.int64)
    for t in range(1, seq_len):
        # [b, prev, cur] — transitions indexed [prev, cur], faithful to
        # _viterbi_decode's transitions.view(1, L, L)
        ntv = vit[:, :, None] + params.transitions[None, :, :]
        best_prev = ntv.argmax(axis=1)  # (B, L)
        backptr[:, t] = best_prev
        scores = np.take_along_axis(ntv, best_prev[:, None, :], axis=1)[:, 0, :]
        scores = scores + emissions[:, t]
        m = mask[:, t][:, None]
        vit = m * scores + (1.0 - m) * vit
    vit = vit + params.end_trans[None, :]
    best_last = vit.argmax(axis=1)  # (B,)

    paths = np.zeros((bsz, seq_len), dtype=np.int64)
    rows = np.arange(bsz)
    cur = best_last.copy()
    for t in range(seq_len - 1, -1, -1):
        at_end = (lengths - 1) == t
        cur = np.where(at_end, best_last, cur)
        paths[:, t] = cur
        if t > 0:
            stepped = backptr[rows, t, cur]
            within = t <= (lengths - 1)
            cur = np.where(within, stepped, cur)
    return paths


class CRFNER:
    """CRF mention detector — same stage signature as GazetteerNER: setup
    once per worker in ``__init__`` (weights + char-id cache), padded
    batched inference in ``__call__``.

    Paragraphs are length-sorted and chunked so each padded matrix wastes
    little on padding; outputs are batch-composition-invariant (see module
    docstring), so the Ray batch boundaries cannot change results."""

    GROUP = 256  # paragraphs per padded inference matrix (length-sorted, so
    # larger groups amortize the per-timestep Python overhead without much
    # padding waste; 256 measured fastest — 512 starts paying padding)

    def __init__(self, params: CRFParams | None = None):
        self.params = params or CRFParams()
        self._char_cache: dict[str, int] = {}

    def _ids(self, text: str) -> np.ndarray:
        cache = self._char_cache
        out = np.empty(len(text), dtype=np.int64)
        for i, ch in enumerate(text):
            v = cache.get(ch)
            if v is None:
                v = cache[ch] = char_id(ch, self.params.vocab_size)
            out[i] = v
        return out

    def tag_texts(self, texts: list[str]) -> list[list[str]]:
        """texts → per-char BIOES label strings for each text."""
        labels_out: list[list[str]] = [[] for _ in texts]
        nonempty = [(i, t) for i, t in enumerate(texts) if t]
        nonempty.sort(key=lambda it: len(it[1]))
        lab = self.params.labels
        for g0 in range(0, len(nonempty), self.GROUP):
            group = nonempty[g0 : g0 + self.GROUP]
            max_len = len(group[-1][1])
            bsz = len(group)
            ids = np.zeros((bsz, max_len), dtype=np.int64)
            mask = np.zeros((bsz, max_len))
            for r, (_, t) in enumerate(group):
                ids[r, : len(t)] = self._ids(t)
                mask[r, : len(t)] = 1.0
            em = emissions_batch(ids, mask, self.params)
            paths = viterbi_batch(em, mask, self.params)
            for r, (i, t) in enumerate(group):
                labels_out[i] = [lab[j] for j in paths[r, : len(t)]]
        return labels_out

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = mention_columns()
        paras: list[str] = []
        meta: list[tuple[str, int]] = []
        for url, text in zip(batch["url"], batch["text_out"]):
            for pi, para in enumerate(text.split("\n")):
                paras.append(para)
                meta.append((url, pi))
        tags = self.tag_texts(paras)
        for (url, pi), para, labels in zip(meta, paras, tags):
            pos = 0
            for entity, etype in decode_bioes(para, labels):
                start = para.find(entity, pos)
                if start < 0:  # discontinuous decode artifact; skip
                    continue
                out["url"].append(url)
                out["para_idx"].append(pi)
                out["entity"].append(entity)
                out["etype"].append(etype)
                out["start"].append(start)
                out["end"].append(start + len(entity))
                pos = start + len(entity)
        return mentions_frame(out)


def _crf_tagger(params_ref) -> CRFNER:
    return CRFNER(ray.get(params_ref))


def crf_mentions_ds(extracted):
    """extracted(url, text_out) → CRF-decoded mentions (``broadcast_map``
    of ``CRFParams()``).

    batch_size 256 pages (~7k paragraphs) so each ``__call__`` length-sorts
    a large pool and the padded GROUP matrices stay homogeneous — output is
    batch-composition-invariant, so only speed changes (round-2 verdict #7:
    r2 config 1.65 s → 0.9 s per 13k bench paragraphs, ~1.9×)."""
    return broadcast_map(extracted, CRFParams(), _crf_tagger, batch_size=256)


# ---------------------------------------------------------------------------
# Training — the reference's epoch loop made real in numpy
# ---------------------------------------------------------------------------


def _hidden_single(text: str, params: CRFParams) -> np.ndarray:
    """text → (T, HIDDEN_DIM) BiLSTM features (the fixed feature extractor
    under the CRF head that ``train_nll`` trains)."""
    ids = np.array([char_id(c, params.vocab_size) for c in text], dtype=np.int64)[None, :]
    mask = np.ones((1, len(text)))
    x = params.embed[ids]
    lengths = mask.sum(axis=1).astype(np.int64)
    fwd = _lstm_direction(x, mask, params.w_ih[0], params.w_hh[0], params.bias[0])
    x_rev = _reverse_padded(x, lengths)
    bwd_rev = _lstm_direction(x_rev, mask, params.w_ih[1], params.w_hh[1], params.bias[1])
    bwd = _reverse_padded(bwd_rev, lengths)
    return np.concatenate([fwd, bwd], axis=2)[0]


def tag_accuracy(params: CRFParams, texts: list[str], gold: list[list[str]]) -> float:
    """Micro tag-level F1 against gold BIOES labels (equals accuracy for a
    per-char single-label task — the reference evaluates per epoch and
    keeps the best checkpoint, bilstm_crf_ner.py:509-576)."""
    ner = CRFNER(params)
    pred = ner.tag_texts(texts)
    hit = tot = 0
    for p, g in zip(pred, gold):
        tot += len(g)
        hit += sum(1 for a, b in zip(p, g) if a == b)
    return hit / max(1, tot)


# ---------------------------------------------------------------------------
# CRF negative-log-likelihood training — the reference's actual objective
# (bilstm_crf_ner.py:463-478 neg_log_likelihood, :509-535 Adam epoch loop,
# :799-803 save-best-by-F1), gradients derived by hand via forward-backward
# ---------------------------------------------------------------------------


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def crf_nll(params: CRFParams, h: np.ndarray, g: np.ndarray) -> float:
    """NLL of ONE sentence: log Z − score(gold).  ``h`` is the (T, H)
    BiLSTM feature matrix, ``g`` the (T,) gold label indices.  Loss only —
    the finite-difference gradient check in tests/test_crf.py drives this."""
    e = h @ params.w_tag.T + params.b_tag  # (T, L)
    T = len(g)
    alpha = params.start_trans + e[0]
    for t in range(1, T):
        alpha = _logsumexp(alpha[:, None] + params.transitions, axis=0) + e[t]
    log_z = float(_logsumexp(alpha + params.end_trans, axis=0))
    gold = float(params.start_trans[g[0]] + e[np.arange(T), g].sum()
                 + params.transitions[g[:-1], g[1:]].sum()
                 + params.end_trans[g[-1]])
    return log_z - gold


def _crf_nll_grads(params: CRFParams, h: np.ndarray, g: np.ndarray):
    """Loss + analytic gradients of ONE sentence's NLL w.r.t. the CRF head
    (w_tag, b_tag, transitions, start_trans, end_trans).

    Standard linear-chain CRF calculus via forward-backward marginals:
      ∂L/∂e_t        = P(y_t | x) − 1[gold_t]          (unary marginals)
      ∂L/∂trans[i,j] = Σ_t P(y_{t-1}=i, y_t=j | x) − #gold bigrams (i,j)
      ∂L/∂start      = P(y_0) − 1[g_0];  ∂L/∂end = P(y_{T-1}) − 1[g_{T-1}]
    then chain ∂e into the linear head: ∂W = (∂e)ᵀ h, ∂b = Σ_t ∂e_t.
    Transitions are indexed [prev, cur] throughout (the engine's — and the
    reference decode's — orientation)."""
    e = h @ params.w_tag.T + params.b_tag  # (T, L)
    T, L = e.shape
    trans = params.transitions
    # forward pass (log space)
    alpha = np.empty((T, L))
    alpha[0] = params.start_trans + e[0]
    for t in range(1, T):
        alpha[t] = _logsumexp(alpha[t - 1][:, None] + trans, axis=0) + e[t]
    log_z = float(_logsumexp(alpha[T - 1] + params.end_trans, axis=0))
    # backward pass
    beta = np.empty((T, L))
    beta[T - 1] = params.end_trans
    for t in range(T - 2, -1, -1):
        beta[t] = _logsumexp(trans + (e[t + 1] + beta[t + 1])[None, :], axis=1)
    # marginals
    unary = np.exp(alpha + beta - log_z)  # (T, L)
    d_e = unary.copy()
    d_e[np.arange(T), g] -= 1.0
    d_trans = np.zeros_like(trans)
    for t in range(1, T):
        pair = np.exp(alpha[t - 1][:, None] + trans
                      + (e[t] + beta[t])[None, :] - log_z)
        d_trans += pair
    if T > 1:
        np.add.at(d_trans, (g[:-1], g[1:]), -1.0)
    d_start = unary[0].copy()
    d_start[g[0]] -= 1.0
    d_end = unary[T - 1].copy()
    d_end[g[T - 1]] -= 1.0
    gold = float(params.start_trans[g[0]] + e[np.arange(T), g].sum()
                 + trans[g[:-1], g[1:]].sum() + params.end_trans[g[-1]])
    return (
        log_z - gold,
        {
            "w_tag": d_e.T @ h,
            "b_tag": d_e.sum(axis=0),
            "transitions": d_trans,
            "start_trans": d_start,
            "end_trans": d_end,
        },
    )


def train_nll(params: CRFParams, texts: list[str], gold: list[list[str]],
              epochs: int = 30, lr: float = 0.05,
              dev_texts: list[str] | None = None,
              dev_gold: list[list[str]] | None = None) -> dict:
    """CRF NLL training with Adam — objective-parity with the reference
    (``neg_log_likelihood`` minimized by ``torch.optim.Adam``,
    bilstm_crf_ner.py:509-535), save-best-by-F1 checkpointing
    (:799-803), in numpy.  The BiLSTM stays a fixed feature extractor
    (torch is import-gated in this package) and the trainable surface is
    the CRF head: emission linear layer + transition matrices.  Each
    epoch's dev F1 (``tag_accuracy``) decodes with the same batched
    Viterbi inference path the pipeline serves.

    Full-batch Adam steps (the sample corpora are tiny; the reference's
    minibatch mean over a DataLoader batch degenerates to the same thing),
    loss = mean sentence NLL exactly like ``(forward − gold).mean()``.
    Returns {'history': [dev-F1/epoch], 'losses': [mean NLL/epoch],
    'best_f1', 'best': snapshot} and leaves ``params`` at the best
    checkpoint — deterministic end to end."""
    lab_idx = {l: i for i, l in enumerate(params.labels)}
    gold_idx = [np.array([lab_idx[l] for l in g], dtype=np.int64) for g in gold]
    if dev_texts is None:
        dev_texts, dev_gold = texts, gold

    names = ("w_tag", "b_tag", "transitions", "start_trans", "end_trans")

    def _get(n):
        return getattr(params, n)

    def _snapshot():
        return {n: _get(n).copy() for n in names}

    def _restore(s):
        for n in names:
            _get(n)[:] = s[n]

    hid = [_hidden_single(t, params) for t in texts]  # BiLSTM frozen → cache
    # Adam state
    m = {n: np.zeros_like(_get(n)) for n in names}
    v = {n: np.zeros_like(_get(n)) for n in names}
    b1, b2, eps = 0.9, 0.999, 1e-8
    step = 0
    history: list[float] = []
    losses: list[float] = []
    best_f1, best = -1.0, _snapshot()
    for _ in range(epochs):
        acc = {n: np.zeros_like(_get(n)) for n in names}
        total = 0.0
        for h, g in zip(hid, gold_idx):
            loss, grads = _crf_nll_grads(params, h, g)
            total += loss
            for n in names:
                acc[n] += grads[n]
        losses.append(total / len(hid))
        step += 1
        for n in names:
            gm = acc[n] / len(hid)  # mean over batch ≡ reference's .mean()
            m[n] = b1 * m[n] + (1 - b1) * gm
            v[n] = b2 * v[n] + (1 - b2) * gm * gm
            mh = m[n] / (1 - b1**step)
            vh = v[n] / (1 - b2**step)
            _get(n)[:] = _get(n) - lr * mh / (np.sqrt(vh) + eps)
        f1 = tag_accuracy(params, dev_texts, dev_gold)
        history.append(f1)
        if f1 > best_f1:
            best_f1, best = f1, _snapshot()
    _restore(best)  # serve the best checkpoint, like the reference
    return {"history": history, "losses": losses, "best_f1": best_f1,
            "best": best}
