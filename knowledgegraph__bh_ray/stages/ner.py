"""Mention detection — the load-once tagger stage (reference op A2/M14).

The reference hosts a BiLSTM-CRF tagger loaded once per process and predicts
line-at-a-time (bilstm_crf_ner.py:648-676, 836-846).  This engine keeps the
exact stage shape — load-once state in ``__init__``, batched inference in
``__call__`` — but the model slot is filled by a deterministic gazetteer
tagger (no torch in this environment; the Ray-side plumbing is the
deliverable, and the slot is pluggable: the rule-based ``PatternTagger``
below and the numpy BiLSTM-CRF of stages/crf.py drop in).  Every tagger
runs as plain map tasks over its broadcast state (``broadcast_map``), never
as an actor pool.

Gazetteer matching: longest-match-first, non-overlapping, via one compiled
trie regex built from the broadcast vocabulary.  Each match IS a mention:
its span and text come straight from the regex's ``finditer``, with no
per-character tagging in between (PERF.md round 13).
"""

from __future__ import annotations

import re

import pandas as pd
import pyarrow as pa
import ray

from ..state.broadcast import broadcast_map

MAX_GAZETTEER = 50_000  # vocab cap; longest names win (documented truncation)

# the mentions table every tagger emits (here and stages/crf.py): one row
# per mention
MENTIONS_SCHEMA = pa.schema([("url", pa.string()), ("para_idx", pa.int64()),
                             ("entity", pa.string()), ("etype", pa.string()),
                             ("start", pa.int64()), ("end", pa.int64())])


def mention_columns() -> dict[str, list]:
    """Empty column lists a tagger appends its mentions to."""
    return {name: [] for name in MENTIONS_SCHEMA.names}


def mentions_frame(cols: dict[str, list]) -> pd.DataFrame:
    """A tagger's filled ``mention_columns()`` as its output frame."""
    df = pd.DataFrame(cols)
    for f in MENTIONS_SCHEMA:
        if f.type == pa.int64():
            df[f.name] = df[f.name].astype("int64")
    return df


def _trie_regex_pattern(vocab) -> str | None:
    """Compile a literal vocabulary into a trie-structured regex: common
    prefixes merged, word-end expressed as a GREEDY optional continuation —
    so at any start position the sre engine tries the longest vocabulary
    word first and backtracks to shorter accepted prefixes, which is
    exactly the leftmost-longest semantics of a flat alternation ordered by
    (-length, name).  Verified byte-identical to the flat alternation on
    the bench corpus and ~19× faster at a 5000-name vocabulary (PERF.md
    round 3): the engine explores one trie path per position instead of up
    to 5000 alternatives."""
    trie: dict = {}
    for w in vocab:
        if not w:
            continue
        node = trie
        for ch in w:
            node = node.setdefault(ch, {})
        node[""] = True  # end-of-word marker

    def emit(node: dict) -> str | None:
        has_end = "" in node
        keys = sorted(k for k in node if k != "")
        if not keys:
            return None  # leaf: word ends here, no continuation
        alts, leaf_chars = [], []
        for ch in keys:
            sub = emit(node[ch])
            if sub is None:
                leaf_chars.append(ch)
            else:
                alts.append(re.escape(ch) + sub)
        if leaf_chars:  # single-char leaf branches collapse to one class
            alts.append(
                re.escape(leaf_chars[0])
                if len(leaf_chars) == 1
                else "[" + "".join(re.escape(c) for c in leaf_chars) + "]"
            )
        body = alts[0] if len(alts) == 1 else "(?:" + "|".join(alts) + ")"
        if has_end:
            atomic = body.startswith("(?:") or body.startswith("[") or len(body) == 1
            body = body + "?" if atomic else "(?:" + body + ")?"
        return body

    return emit(trie)


class GazetteerMatcher:
    """Leftmost-longest non-overlapping gazetteer matcher backed by one
    compiled trie-structured regex (prefix-merged alternation with greedy
    optional word-ends) — CPython's sre scan is C-speed, and the trie form
    is ~19× faster than the flat (-length, name)-ordered alternation it
    replaces while matching the identical spans (PERF.md round 3; a pure-
    python Aho-Corasick lost to both, twice).  Its ``finditer`` spans are
    the tagger's mentions as they stand (``tag_mentions``, ``GazetteerNER``).
    Semantics are pinned by the independent forward-matching oracle
    (oracle.oracle_tag_mentions) via the kg_mentions value-hash gate."""

    def __init__(self, names: list[str]):
        vocab = sorted(set(n for n in names if n), key=lambda n: (-len(n), n))[:MAX_GAZETTEER]
        pat = _trie_regex_pattern(vocab)
        self.regex = re.compile(pat if pat is not None else r"(?!x)x")

    def finditer(self, text: str):
        for m in self.regex.finditer(text):
            yield m.start(), m.end(), m.group()


def build_gazetteer_pattern(names: list[str]) -> GazetteerMatcher:
    return GazetteerMatcher(names)


def tag_mentions(text: str, pattern: GazetteerMatcher, type_of: dict[str, str]) -> list[dict]:
    """Text → mentions: one dict (entity, etype, start, end) per gazetteer
    match, in text order; ``etype`` is the name's type, ``"CONCEPT"`` for a
    name without one.

    The matcher's spans are leftmost-longest and non-overlapping, so they
    already are what a BIOES encode → decode → ``find`` round-trip of them
    would return (tests/test_mentions.py keeps that round-trip as the
    reference); the per-character tags are never built."""
    return [
        {"entity": m.group(), "etype": type_of.get(m.group(), "CONCEPT"),
         "start": m.start(), "end": m.end()}
        for m in pattern.regex.finditer(text)
    ]


class GazetteerNER:
    """Gazetteer mention detector.

    ``__init__`` (once per worker and vocabulary, see ``mentions_ds``):
    fetch the broadcast (names, types) vocab, compile the trie pattern.
    ``__call__`` (per batch): scan every paragraph of ``text_out`` with the
    compiled regex; one output row per match (url, para_idx, entity, etype,
    start, end), appended straight from ``finditer`` — the same rows as
    ``tag_mentions`` per paragraph, without a dict per mention.
    """

    def __init__(self, gazetteer_ref):
        names, types = ray.get(gazetteer_ref)
        self.type_of = dict(zip(names, types))
        self.pattern = build_gazetteer_pattern(list(names))

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = mention_columns()
        urls, paras, ents, etypes, starts, ends = (
            out["url"], out["para_idx"], out["entity"], out["etype"], out["start"], out["end"])
        finditer, type_of = self.pattern.regex.finditer, self.type_of
        for url, text in zip(batch["url"], batch["text_out"]):
            for pi, para in enumerate(text.split("\n")):
                for m in finditer(para):
                    name = m.group()
                    urls.append(url)
                    paras.append(pi)
                    ents.append(name)
                    etypes.append(type_of.get(name, "CONCEPT"))
                    starts.append(m.start())
                    ends.append(m.end())
        return mentions_frame(out)


def mentions_ds(extracted, gazetteer: tuple[list[str], list[str]], batch_size: int = 256):
    """extracted(url, text_out) → gazetteer mentions; each worker compiles
    the trie once per vocabulary (the per-page cost is ~50 µs, the regex
    scan plus row building, PERF.md round 13)."""
    return broadcast_map(extracted, gazetteer, GazetteerNER, batch_size=batch_size)


# ---------------------------------------------------------------------------
# Pattern tagger — the second mention detector of the north-star DAG
# ---------------------------------------------------------------------------

PATTERN_RULES: list[tuple[str, str]] = [
    ("TITLE", r"《[^《》]{1,30}》"),            # bracketed work titles
    ("IDENT", r"(?:Entity|实体)\d+"),          # entity identifiers
    ("DATE", r"\d{4}-\d{2}-\d{2}"),          # ISO dates
    ("NUMBER", r"\d+\.\d+"),                 # decimal quantities
]


class PatternTagger:
    """Rule-based mention detector (the 'dependency/pattern tagger' stage
    alongside the model slot): typed regex rules compiled once per worker;
    leftmost-longest non-overlapping resolution is done EXPLICITLY — every
    rule's finditer spans are collected, sorted by (start, -length, rule
    order) and greedily swept — because a combined alternation would pick
    the first rule matching at a position, not the longest span.  The swept
    spans are the mentions as they stand."""

    def __init__(self, rules: list[tuple[str, str]] | None = None):
        rules = rules or PATTERN_RULES
        self.rules = [(t, re.compile(p)) for t, p in rules]

    def tag(self, text: str) -> list[dict]:
        raw = sorted(
            (m.start(), m.start() - m.end(), order, m.end(), etype)
            for order, (etype, pat) in enumerate(self.rules)
            for m in pat.finditer(text)
        )
        out = []
        last_end = 0
        for start, _neg_len, _order, end, etype in raw:
            if start >= last_end:
                out.append({"entity": text[start:end], "etype": etype, "start": start, "end": end})
                last_end = end
        return out

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = mention_columns()
        for url, text in zip(batch["url"], batch["text_out"]):
            for pi, para in enumerate(text.split("\n")):
                for m in self.tag(para):
                    out["url"].append(url)
                    out["para_idx"].append(pi)
                    for k, v in m.items():
                        out[k].append(v)
        return mentions_frame(out)


def _pattern_tagger(rules_ref) -> PatternTagger:
    return PatternTagger(ray.get(rules_ref))


def pattern_mentions_ds(extracted):
    """extracted(url, text_out) → rule-pattern mentions (``broadcast_map``
    of ``PATTERN_RULES``)."""
    return broadcast_map(extracted, PATTERN_RULES, _pattern_tagger, batch_size=64)
