"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf and compare with oracle_sql() via DuckDB
(row count + schema + order-insensitive value comparison).

Usage: python scripts/check_oracle.py [sf_dir]
"""

from __future__ import annotations

import os
import sys

import duckdb
import pandas as pd

sys.path.insert(0, ".")

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return pd.DataFrame(res)


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return df


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    import ray

    ray.init(
        address="local",
        num_cpus=len(os.sched_getaffinity(0)),
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as E

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs = E.queries()
    if len(sys.argv) > 2:  # optional comma-separated query-name filter
        only = set(sys.argv[2].split(","))
        qs = {k: v for k, v in qs.items() if k in only}
    oracles = E.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        try:
            got = normalize(to_pandas(fn(sf_dir)))
        except Exception as exc:  # noqa: BLE001
            print(f"[FAIL] {name}: query raised {exc!r}")
            failures += 1
            continue
        if name not in oracles:
            print(f"[rows-only] {name}: {len(got)} rows, cols={list(got.columns)}")
            continue
        try:
            exp = normalize(con.sql(oracles[name]).df())
        except Exception as exc:  # noqa: BLE001
            print(f"[FAIL] {name}: oracle SQL raised {exc!r}")
            failures += 1
            continue
        ok_rows = len(got) == len(exp)
        ok_cols = list(got.columns) == list(exp.columns)
        ok_vals = False
        if ok_rows and ok_cols:
            try:
                pd.testing.assert_frame_equal(got, exp, check_dtype=False, check_exact=True)
                ok_vals = True
            except AssertionError as exc:
                print(f"  value mismatch detail: {str(exc)[:500]}")
        status = "OK" if (ok_rows and ok_cols and ok_vals) else "FAIL"
        if status == "FAIL":
            failures += 1
            print(f"[{status}] {name}: rows {len(got)}/{len(exp)} cols {list(got.columns)} vs {list(exp.columns)}")
        else:
            print(f"[OK] {name}: {len(got)} rows")
    ray.shutdown()
    print(f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
