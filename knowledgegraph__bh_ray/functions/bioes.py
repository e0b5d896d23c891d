"""BIOES tag encode/decode (reference op M14).

Decode reproduces the reference's entity-span extraction over per-char BIOES
tags exactly (bilstm_crf_ner.py:594-628), including its quirks:

  * ``I-``/``E-`` extend only when an entity is open AND the type matches;
    a type-mismatched continuation silently drops the char;
  * ``B-`` and ``S-`` flush any open entity first;
  * ``O`` flushes; an entity still open at sequence end is flushed
    (bilstm_crf_ner.py:624-627).

Decode turns the CRF tagger's per-char labels into mentions
(stages/crf.py).  Encode, mirroring ner_visualizer.py:288-320, is the
inverse; the tests use the pair as a round-trip property and as the
reference the gazetteer tagger's direct spans are checked against
(tests/test_mentions.py).  The gazetteer and pattern taggers emit their
spans without per-char tags.
"""

from __future__ import annotations


def decode_bioes(chars: str, labels: list[str]) -> list[tuple[str, str]]:
    """Per-char BIOES tags → list of (entity_text, entity_type) spans."""
    entities: list[tuple[str, str]] = []
    entity = ""
    entity_type = ""

    for char, label in zip(chars, labels):
        if label.startswith("B-"):
            if entity:
                entities.append((entity, entity_type))
            entity = char
            entity_type = label[2:]
        elif label.startswith("I-") and entity and entity_type == label[2:]:
            entity += char
        elif label.startswith("E-") and entity and entity_type == label[2:]:
            entity += char
            entities.append((entity, entity_type))
            entity = ""
            entity_type = ""
        elif label.startswith("S-"):
            if entity:
                entities.append((entity, entity_type))
            entities.append((char, label[2:]))
            entity = ""
            entity_type = ""
        elif label == "O":
            if entity:
                entities.append((entity, entity_type))
                entity = ""
                entity_type = ""

    if entity:
        entities.append((entity, entity_type))
    return entities


def encode_bioes(text: str, spans: list[tuple[int, int, str]]) -> list[str]:
    """Non-overlapping (start, end, type) spans → per-char BIOES tags."""
    labels = ["O"] * len(text)
    for start, end, etype in spans:
        if end - start == 1:
            labels[start] = f"S-{etype}"
        else:
            labels[start] = f"B-{etype}"
            for i in range(start + 1, end - 1):
                labels[i] = f"I-{etype}"
            labels[end - 1] = f"E-{etype}"
    return labels
