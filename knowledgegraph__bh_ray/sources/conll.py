"""NER corpus loaders (reference op S9) — CoNLL and JSON formats.

The reference reads char-per-line CoNLL (``char<space>label``, blank line =
sentence boundary) and JSON ``{"text": ..., "labels": [...]}`` lines
(bilstm_crf_ner.py:214-254, format doc NER-model/data/README.md).  These
parsers turn a file's content into ``{text: string, labels: list<string>}``
records, the ``texts`` / ``gold`` input of the CRF trainer
(stages/crf.train_nll).
"""

from __future__ import annotations

import json


def parse_conll_text(content: str) -> list[dict]:
    """CoNLL text → [{text, labels}] (blank-line sentence delimiter)."""
    sentences = []
    chars: list[str] = []
    labels: list[str] = []
    for line in content.split("\n"):
        line = line.strip()
        if not line:
            if chars:
                sentences.append({"text": "".join(chars), "labels": labels})
                chars, labels = [], []
            continue
        parts = line.split()
        if len(parts) >= 2:
            chars.append(parts[0])
            labels.append(parts[1])
        elif len(parts) == 1:  # bare char, implicit O
            chars.append(parts[0])
            labels.append("O")
    if chars:
        sentences.append({"text": "".join(chars), "labels": labels})
    return sentences


def parse_ner_json_lines(content: str) -> list[dict]:
    """JSON-lines (or a JSON array) of {text, labels} records."""
    content = content.strip()
    if not content:
        return []
    if content.startswith("["):
        rows = json.loads(content)
    else:
        rows = [json.loads(line) for line in content.split("\n") if line.strip()]
    return [{"text": r["text"], "labels": list(r["labels"])} for r in rows]
