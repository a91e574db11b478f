"""Seeded stand-ins for the tables the ``queries`` workload reads.

The registry queries take a directory of parquet tables.  The benchmark
writes its own copies from the run seed, with the columns the chosen queries
and their DuckDB oracles read, so a run never depends on data outside its
checkout.  Shapes follow the sf0.01 test tables: 150 users over one month of
events, 25 part brands, integer quantities, and documents whose geocode comes
from ``doc_id``.  About a tenth of the documents repeat an earlier text, so
the dedup queries remove rows.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

N_DOCS = 1_000
N_EVENTS = 20_000
N_USERS = 150
N_PARTS = 2_000
N_LINEITEMS = 60_000

VOCAB = (
    "a the big small fast slow key value row table column part order line customer "
    "batch stream window group sort merge hash join scan filter query agg data spark vector"
).split()
LANGS = ("en", "zh", "es", "de", "fr")
LANG_P = (0.44, 0.15, 0.14, 0.14, 0.13)
EVENT_TYPES = ("click", "view", "purchase", "signup", "error")
MONTH_US = 30 * 86_400 * 1_000_000
JAN_2024_US = 1_704_067_200 * 1_000_000


def _documents(rng: np.random.Generator) -> pa.Table:
    lens = rng.integers(8, 90, N_DOCS)
    words = np.asarray(VOCAB)
    texts = [" ".join(words[rng.integers(0, len(words), k)]) for k in lens]
    for i in np.flatnonzero(rng.random(N_DOCS) < 0.1):
        if i > 0:
            texts[i] = texts[int(rng.integers(0, i))]
    return pa.table(
        {
            "doc_id": pa.array(np.arange(N_DOCS, dtype=np.int64)),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(rng.choice(LANGS, N_DOCS, p=LANG_P).tolist(), type=pa.string()),
            "source": pa.array([f"src{i % 20}" for i in range(N_DOCS)], type=pa.string()),
            "n_chars": pa.array(np.asarray([len(t) for t in texts], dtype=np.int64)),
        }
    )


def _events(rng: np.random.Generator) -> pa.Table:
    ts = JAN_2024_US + np.sort(rng.integers(0, MONTH_US, N_EVENTS))
    return pa.table(
        {
            "event_id": pa.array(np.arange(N_EVENTS, dtype=np.int64)),
            "ts": pa.array(ts, type=pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, N_USERS, N_EVENTS).astype(np.int64)),
            "event_type": pa.array(rng.choice(EVENT_TYPES, N_EVENTS).tolist(), type=pa.string()),
            "value": pa.array(np.round(rng.exponential(50.0, N_EVENTS) + 0.01, 2)),
            "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, N_EVENTS)], type=pa.string()),
        }
    )


def _part(rng: np.random.Generator) -> pa.Table:
    return pa.table(
        {
            "p_partkey": pa.array(np.arange(N_PARTS, dtype=np.int64)),
            "p_brand": pa.array([f"Brand#{b}" for b in rng.integers(1, 26, N_PARTS)], type=pa.string()),
        }
    )


def _lineitem(rng: np.random.Generator) -> pa.Table:
    return pa.table(
        {
            "l_orderkey": pa.array(np.sort(rng.integers(0, N_LINEITEMS // 4, N_LINEITEMS)).astype(np.int64)),
            "l_partkey": pa.array(rng.integers(0, N_PARTS, N_LINEITEMS).astype(np.int64)),
            "l_quantity": pa.array(rng.integers(1, 51, N_LINEITEMS).astype(np.float64)),
        }
    )


def write_query_tables(out_dir: Path, seed: int) -> dict[str, int]:
    """Write documents, events, part and lineitem parquet files for ``seed``
    into ``out_dir``; return each table's row count."""
    rng = np.random.default_rng([seed, 0x71])
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = {}
    for name, make in (("documents", _documents), ("events", _events), ("part", _part), ("lineitem", _lineitem)):
        table = make(rng)
        pq.write_table(table, out_dir / f"{name}.parquet")
        rows[name] = table.num_rows
    return rows
