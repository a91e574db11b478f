"""Run every registry query once at the benchmark's Ray CPU budget.

    python3 perfbench/survey.py <tables dir> [--timeout 60] [--skip q1,q2]

Each query in ``__ray_entry__.queries()`` runs once with a timeout, and its
result is compared with its ``oracle_sql()`` answer from DuckDB when it has
one.  A query that times out leaves Ray stuck, so the survey stops there;
run it again with that query in ``--skip``.  The table goes to standard
output; ``perfbench/NOTES.md`` keeps the queries that failed or hung.  This
is not part of the benchmark runs.
"""

from __future__ import annotations

import argparse
import sys

from run import ROOT, RunDir, timed_call


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("tables", help="directory of the registry's parquet tables")
    ap.add_argument("--timeout", type=float, default=60.0)
    ap.add_argument("--skip", default="", help="comma-separated query names not to run")
    args = ap.parse_args()
    run = RunDir(ROOT)
    try:
        import duckdb
        import pandas as pd

        import __ray_entry__
        from scripts.check_oracle import TABLES, normalize, to_pandas
        from workloads import init_ray

        con = duckdb.connect()
        for t in TABLES:
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{args.tables}/{t}.parquet'")
        oracles = __ray_entry__.oracle_sql()
        registry = __ray_entry__.queries()
        skip = set(filter(None, args.skip.split(",")))
        run.fresh_cache()
        init_ray(ROOT)
        bad = 0
        for name, fn in registry.items():
            if name in skip:
                print(f"skipped\t{name}", flush=True)
                continue
            out, error, s = timed_call(lambda: to_pandas(fn(args.tables)), args.timeout)
            if error is None and name in oracles:
                exp = normalize(con.sql(oracles[name]).df())
                got = normalize(out)
                try:
                    pd.testing.assert_frame_equal(got, exp, check_dtype=False, check_exact=True)
                except AssertionError as exc:
                    error = f"oracle mismatch: {str(exc)[:200]}"
            status = "ok" if error is None else "FAIL"
            bad += error is not None
            print(f"{status}\t{name}\t{s:.2f}s\t{error or ''}", flush=True)
            if error is not None and error.startswith("timed out"):
                print(f"stopped: {name} hung; run again with it in --skip", flush=True)
                break
        print(f"{bad} failed or hung", flush=True)
        return 0
    finally:
        run.close()


if __name__ == "__main__":
    sys.exit(main())
