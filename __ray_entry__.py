"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module; nothing
here (or in the library) calls ``ray.init``/``ray.shutdown``.

- ``entry()``            — flagship KG pipeline on sf0.001 (canonical edges).
- ``queries()``          — one callable per implemented operator/pipeline
                           (SURVEY.md §2 + training-data ops); each takes an
                           sf_dir and returns a Dataset/DataFrame/Table.
- ``oracle_sql()``       — DuckDB mirrors; see
                           knowledgegraph__bh_ray/queries.py for the
                           oracle-input model and numeric policy.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship: pages(sf0.001) → extract → parse → link → canonical edges,
    read from the resumable pipeline's run over sf0.001 (``queries.kg_run``,
    made once per process)."""
    from knowledgegraph__bh_ray.queries import q_kg_edges_canonical

    return q_kg_edges_canonical("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from knowledgegraph__bh_ray.queries import build_queries

    return build_queries()


def oracle_sql() -> dict[str, str]:
    from knowledgegraph__bh_ray.queries import build_oracle_sql

    return build_oracle_sql()
