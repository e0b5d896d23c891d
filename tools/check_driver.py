"""Driver simulator: run every queries() entry at sf0.01 and compare with
its oracle_sql() via DuckDB — row count, column names, and an
order-insensitive value hash (columns sorted by name, rows sorted by all
columns, values stringified).  Approximates the real driver's
CORRECTNESS_r{N}.json gate so regressions surface before a round ends.

Every line, rows-only queries included, prints ``hash=`` of the engine's
own result, so two runs (say, before and after a change) can be diffed
once the timings are stripped.

Usage: python tools/check_driver.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(result, rd.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canonical(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        df[c] = df[c].map(lambda v: repr(v))
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> str:
    h = hashlib.md5()
    for c in df.columns:
        h.update(c.encode())
        h.update("\x1f".join(df[c].tolist()).encode("utf-8", "surrogatepass"))
    return h.hexdigest()


def main() -> int:
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR", ignore_reinit_error=True)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = canonical(to_pandas(fn(sf_dir)))
        except Exception as e:  # noqa: BLE001
            print(f"{name:24s} ERROR (ray): {type(e).__name__}: {e}")
            failures.append(name)
            continue
        if name not in sqls:
            print(f"{name:24s} rows-only: {len(mine):7d} rows hash={value_hash(mine)} "
                  f"({time.time()-t0:5.1f}s)")
            continue
        try:
            oracle = canonical(con.execute(sqls[name]).fetchdf())
        except Exception as e:  # noqa: BLE001
            print(f"{name:24s} ERROR (sql): {type(e).__name__}: {e}")
            failures.append(name)
            continue
        ok_rows = len(mine) == len(oracle)
        ok_cols = list(mine.columns) == list(oracle.columns)
        ok_hash = ok_rows and ok_cols and value_hash(mine) == value_hash(oracle)
        status = "OK " if ok_hash else "FAIL"
        print(
            f"{name:24s} {status} rows={len(mine)}/{len(oracle)} "
            f"cols={'=' if ok_cols else f'{list(mine.columns)} vs {list(oracle.columns)}'} "
            f"hash={value_hash(mine)} ({time.time()-t0:5.1f}s)"
        )
        if not ok_hash:
            failures.append(name)
            if ok_rows and ok_cols:
                diff = mine.compare(oracle) if mine.shape == oracle.shape else None
                if diff is not None and not diff.empty:
                    print(diff.head(5))
    print(f"\n{len(failures)} failures: {failures}" if failures else "\nall green")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
