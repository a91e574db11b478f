"""Distributed full-text search: persisted inverted index + BM25 top-k.

The text analogue of the embedding IVF layout (``similarity.ivf_ingest``)
and the spatial cell-partitioned ingest: postings live in parquet
partitioned by ``hash(token) % num_parts``, so a query reads ONLY the
partitions that can hold its terms (hive partition pruning) and, inside
them, only the row groups whose token statistics overlap the term set
(predicate pushdown).

Build is a single ``map_batches`` pass with NO shuffle: a document lives
wholly in one row, so per-(doc, token) term frequency and the document
length are final within the batch that holds the document.  Corpus stats
(N docs, total tokens — the BM25 ``avgdl`` inputs) reduce through a
one-row-per-batch partial stream.

Scoring follows Robertson & Zaragoza (2009) BM25 with the Lucene idf
variant ``ln(1 + (N - df + 0.5)/(df + 0.5))`` (always positive).  A doc's
per-term scores are summed in FIXED sorted-term order — each term is a
pivot column, absent terms contribute exactly 0.0, and the final addition
chain is left-to-right over the sorted terms — so the float64 result is
bit-reproducible under any partitioning and matches a DuckDB oracle that
adds the same per-term columns in the same textual order.

Tokenization is the corpus rule shared with ``textstats`` (whitespace
split, empties dropped), so the oracle SQL reuses the proven
``string_split_regex(text, '\\s+')`` tokenizer.

The reference engine has no text search; this is part of the
LLM-curation operator suite layered on the same layout machinery.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..util import coalesce_small, grouped_aggregate, shuffle_parts

_HASH_KEY = "0123456789123456"


def _token_parts(tokens: np.ndarray, num_parts: int) -> np.ndarray:
    """Stable partition id per token (pandas 64-bit string hash, mod P)."""
    h = pd.util.hash_array(tokens, hash_key=_HASH_KEY)
    return (h % np.uint64(num_parts)).astype(np.int32)


def build_inverted_index(
    ds,
    out_dir: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_parts: int | None = None,
):
    """Write a token-partitioned postings layout + corpus stats sidecar.

    Postings schema: (token, doc_id, tf, dl) partitioned by
    ``part = hash(token) % num_parts``.  ``dl`` (the document's token
    count) is denormalized onto every posting so scoring never joins back
    to the documents table.  Sidecar ``_stats.json`` carries
    ``{n_docs, total_tokens, num_parts}``.
    """
    if num_parts is None:
        num_parts = shuffle_parts(1.0)

    def postings(b: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(b.column(text_col))
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        docs = b.column(id_col).to_numpy(zero_copy_only=False)
        didx = np.repeat(np.arange(len(b), dtype=np.int64), lens)
        keep = flat != ""
        flat, didx = flat[keep], didx[keep]
        dl = np.bincount(didx, minlength=len(b)).astype(np.int64)
        # per-(doc, token) tf in one vectorized groupby (C path)
        g = (
            pd.DataFrame({"d": didx, "token": flat})
            .groupby(["d", "token"], sort=False)
            .size()
            .reset_index(name="tf")
        )
        d = g["d"].to_numpy()
        token = g["token"].to_numpy()
        # mark ONE posting per document (its first in the groupby output):
        # a doc lives wholly in one batch, so exactly one marked posting
        # exists globally — corpus stats (n_docs, total tokens) then come
        # from a pruned read of the index itself, not a second text pass
        first = np.zeros(len(d), dtype=np.int8)
        first[np.unique(d, return_index=True)[1]] = 1
        return pa.table(
            {
                "token": pa.array(token, type=pa.string()),
                id_col: pa.array(docs[d]),
                "tf": pa.array(g["tf"].to_numpy().astype(np.int64)),
                "dl": pa.array(dl[d]),
                "first": pa.array(first),
                "part": pa.array(
                    _token_parts(token, num_parts).astype("U")
                ),
            }
        )

    # Ray write_parquet APPENDS uniquely-named fragments: a rerun into a
    # non-empty dir (e.g. bm25-build after a partial failure) would silently
    # double-count postings / sidecars.  Clear stale fragments first (same
    # stale-dir discipline as dedup's checkpoint persist).
    import shutil

    if os.path.isdir(out_dir) and os.listdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    ds.map_batches(postings, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["part"]
    )

    # corpus stats from the index itself (pruned (tf, dl, first) read —
    # the heavy text column is never read twice): total tokens = Σ tf over
    # all postings; n_docs = Σ first; zero-token docs have no postings and
    # do not affect BM25 (they can match no term and add nothing to avgdl's
    # token total beyond their 0)
    def stat_partial(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_docs": pa.array([int(pc.sum(pc.cast(b.column("first"), pa.int64())).as_py() or 0)], pa.int64()),
                "total_tokens": pa.array([int(pc.sum(b.column("tf")).as_py() or 0)], pa.int64()),
            }
        )

    st = (
        ray.data.read_parquet(out_dir, columns=["tf", "first"])
        .map_batches(stat_partial, batch_format="pyarrow")
        .to_pandas()
    )
    stats = {
        "n_docs": int(st["n_docs"].sum()),
        "total_tokens": int(st["total_tokens"].sum()),
        "num_parts": int(num_parts),
    }
    # "_" prefix: parquet dataset discovery ignores sidecars
    with open(os.path.join(out_dir, "_stats.json"), "w") as f:
        json.dump(stats, f)
    _write_df_sidecars(out_dir)
    return out_dir


def _write_df_sidecars(index_dir: str) -> None:
    """Per-partition ``_df.parquet`` sidecar (token, df): a token's postings
    live wholly in its hash partition, so the per-partition count IS the
    global df — queries read the tiny sidecar instead of re-scanning
    postings for document frequencies.  One bounded Ray task per partition
    (raw tasks: per-directory file work the Dataset API has no verb for)."""
    import glob

    import pyarrow.parquet as pq

    @ray.remote
    def one(part_dir: str) -> None:
        files = sorted(glob.glob(os.path.join(part_dir, "*.parquet")))
        if not files:
            return
        toks = pa.concat_tables(pq.read_table(f, columns=["token"]) for f in files)
        vc = toks.column("token").combine_chunks().value_counts()
        out = pa.table(
            {"token": vc.field("values"), "df": pc.cast(vc.field("counts"), pa.int64())}
        )
        pq.write_table(out, os.path.join(part_dir, "_df.parquet"))

    dirs = sorted(glob.glob(os.path.join(index_dir, "part=*")))
    ray.get([one.remote(d) for d in dirs])


def bm25_topk(
    index_dir: str,
    terms: list[str],
    k: int = 10,
    k1: float = 1.25,
    b: float = 0.75,
    id_col: str = "doc_id",
):
    """Top-k documents by BM25 over a persisted inverted index.

    Reads only the term partitions (hive pruning on ``part`` + token row
    filter), derives df from the pruned postings (no global dictionary),
    pivots per-term scores into fixed columns and sums them left-to-right
    in sorted-term order — bit-reproducible float64, ties broken by doc id.
    """
    with open(os.path.join(index_dir, "_stats.json")) as f:
        stats = json.load(f)
    n_docs, total, num_parts = stats["n_docs"], stats["total_tokens"], stats["num_parts"]
    avgdl = total / n_docs

    terms = sorted(set(terms))
    tarr = np.asarray(terms, dtype=object)
    parts = sorted({str(int(p)) for p in _token_parts(tarr, num_parts)})
    # partition pruning by PATH (only the term partitions are even listed),
    # then row-group pruning inside them via the token statistics filter
    import glob

    paths = [
        f
        for x in parts
        for f in sorted(glob.glob(os.path.join(index_dir, f"part={x}", "*.parquet")))
        if not os.path.basename(f).startswith("_")  # skip the _df sidecar
    ]
    post = ray.data.read_parquet(
        paths, filter=pc.field("token").isin(terms), columns=["token", id_col, "tf", "dl"]
    )

    # df per term: from the per-partition _df sidecars when present (tiny
    # reads, no postings scan); else one partial pass over the pruned
    # postings (≤ terms × blocks rows, driver-combined)
    df_map: dict = {}
    sidecars = [
        p
        for x in parts
        if os.path.exists(p := os.path.join(index_dir, f"part={x}", "_df.parquet"))
    ]
    if len(sidecars) == len(parts):
        import pyarrow.parquet as pq

        want = pa.array(terms, type=pa.string())
        for p in sidecars:
            t = pq.read_table(p)
            hit = t.filter(pc.is_in(t.column("token"), value_set=want))
            for tok, df in zip(hit.column("token").to_pylist(), hit.column("df").to_pylist()):
                df_map[tok] = df_map.get(tok, 0) + int(df)
    else:

        def df_partial(t: pa.Table) -> pa.Table:
            vc = t.column("token").value_counts()
            return pa.table({"token": vc.field("values"), "df": pc.cast(vc.field("counts"), pa.int64())})

        dfp = post.map_batches(df_partial, batch_format="pyarrow").to_pandas()
        df_map = dfp.groupby("token")["df"].sum().to_dict()
    # scalar libm log (math.log) — DuckDB's ln is libm too, while numpy's
    # SIMD np.log can differ by 1 ULP, which the exact-value oracle rejects
    import math

    idf = {
        t: math.log(1.0 + (n_docs - df_map.get(t, 0) + 0.5) / (df_map.get(t, 0) + 0.5))
        for t in terms
    }

    scols = [f"s_{i}" for i in range(len(terms))]

    def pivot(t: pa.Table) -> pa.Table:
        tok = t.column("token").to_numpy(zero_copy_only=False)
        tf = t.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        dl = t.column("dl").to_numpy(zero_copy_only=False).astype(np.float64)
        # the exact BM25 expression, same parenthesization as the oracle SQL
        norm = (tf * (k1 + 1.0)) / (tf + k1 * ((1.0 - b) + (b * dl) / avgdl))
        out = {id_col: t.column(id_col)}
        for i, term in enumerate(terms):
            s = np.where(tok == term, idf[term] * norm, 0.0)
            out[scols[i]] = pa.array(s, type=pa.float64())
        return pa.table(out)

    # each (doc, term) posting exists ONCE globally, so a grouped float sum
    # adds exactly one non-zero per column — exact under any partitioning
    agg = grouped_aggregate(
        coalesce_small(post.map_batches(pivot, batch_format="pyarrow"), 0.25),
        id_col,
        {c: (c, "sum") for c in scols},
        weight=0.5,
    )

    def _take_topk(ids: np.ndarray, score: np.ndarray) -> pa.Table:
        # top-k by (score desc, id asc — the oracle tie-break); -score is an
        # exact float64 negation
        order = np.lexsort((ids, -score))[:k]
        return pa.table({id_col: pa.array(ids[order]), "score": pa.array(score[order], type=pa.float64())})

    def topk_block(t: pa.Table) -> pa.Table:
        score = t.column(scols[0]).to_numpy(zero_copy_only=False).copy()
        for c in scols[1:]:
            score = score + t.column(c).to_numpy(zero_copy_only=False)
        return _take_topk(t.column(id_col).to_numpy(zero_copy_only=False), score)

    def topk_merge(t: pa.Table) -> pa.Table:
        return _take_topk(
            t.column(id_col).to_numpy(zero_copy_only=False),
            t.column("score").to_numpy(zero_copy_only=False),
        )

    # Each doc exists once globally after the grouped sum, so per-block
    # partial top-k keeps every global winner; the final merge sees only
    # (#blocks × k) rows coalesced into ONE block — no global sort AllToAll
    # over every doc matching any term (stopword-ish terms made that the
    # whole corpus).
    return (
        agg.map_batches(topk_block, batch_format="pyarrow")
        .repartition(1)
        .map_batches(topk_merge, batch_format="pyarrow")
    )
