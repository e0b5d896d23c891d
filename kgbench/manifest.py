"""Reader for the ``manifest.jsonl`` a pipeline run writes.

Each record must carry ``unit``, ``rows`` and ``wall_sec``; a record missing
one of them is an error, never a silent 0.  Units are grouped by family:
``parsed:group=0`` and ``parsed:group=1`` both count as ``parsed``.
"""

from __future__ import annotations

import json
import os

UNITS = ("parsed", "nodes", "edges", "canonical", "mentions")


class ManifestError(ValueError):
    pass


def read_records(out_dir: str) -> list[dict]:
    path = os.path.join(out_dir, "manifest.jsonl")
    records = []
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            rec = json.loads(line)
            for key in ("unit", "rows", "wall_sec"):
                if rec.get(key) is None:
                    raise ManifestError(f"{path}:{n}: record has no {key!r}: {line.strip()}")
            records.append(rec)
    return records


def unit_totals(records: list[dict]) -> dict[str, dict]:
    """``{family: {"rows", "wall_sec", "counters"}}`` summed over a family's units."""
    out: dict[str, dict] = {}
    for rec in records:
        fam = rec["unit"].split(":", 1)[0]
        if fam not in UNITS:
            raise ManifestError(f"unknown unit {rec['unit']!r}")
        t = out.setdefault(fam, {"rows": 0, "wall_sec": 0.0, "counters": {}})
        t["rows"] += int(rec["rows"])
        t["wall_sec"] += float(rec["wall_sec"])
        # the lineage counters are cumulative over the run: the last record wins
        t["counters"] = rec.get("counters") or t["counters"]
    return out
