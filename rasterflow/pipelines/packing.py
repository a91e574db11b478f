"""Sequence packing: greedily pack documents into fixed token-budget bins —
the training-data assembly step between curation and tokenized-shard export
(each bin becomes one training sequence / one output shard row group).

Semantics (the industry-standard greedy rule): within each stratum
(``group_col``), documents are taken in ``id_col`` order and appended to
the current bin while ``fill + n_tok <= budget``; the first document that
would overflow starts a new bin.  A document longer than the budget sits
alone in its own bin.  The rule is a per-row state machine, so the oracle
is a recursive CTE; the engine computes the identical assignment with an
O(bins) cumsum + searchsorted loop — never a per-row Python loop.

Partitioning: packing is inherently sequential WITHIN a stratum, so one
stratum's (doc_id, n_tok) pairs must co-locate in one task — the same
assumption as ``windows.sessionize`` (one user's events) — but only the
two small integer columns travel, never the text: the token counting
happens in a first ``map_batches`` pass that immediately projects the
payload away.  At 100 TB, strata are shard keys (domain, crawl segment,
language bucket), each a few million rows of two ints — well inside a
task.  A corpus packed as ONE stratum is the degenerate case; callers
wanting global packing at scale should pre-split into keyed strata.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def greedy_bins(ntok: np.ndarray, budget: int) -> np.ndarray:
    """Bin id per item (items already in pack order) under the greedy rule.

    Vectorized O(bins) loop: each iteration closes one bin by binary-searching
    the cumulative token count for the overflow position.  Provably equal to
    the per-row state machine: with ``base`` = cumulative tokens before the
    bin, an item ``i`` is admitted iff ``cum[i] - base <= budget`` — the same
    predicate as ``fill + n_tok <= budget`` — and the forced first admission
    (``j >= start+1``) reproduces the longer-than-budget singleton bins.
    """
    n = len(ntok)
    bins = np.empty(n, dtype=np.int64)
    if n == 0:
        return bins
    cum = np.cumsum(ntok.astype(np.int64))
    start, base, b = 0, 0, 0
    while start < n:
        j = int(np.searchsorted(cum, base + budget, side="right"))
        j = max(j, start + 1)
        bins[start:j] = b
        b += 1
        base = int(cum[j - 1])
        start = j
    return bins


#: single-stratum row count above which pack_sequences warns about the
#: one-task-per-stratum straggler (the packing itself is O(bins) numpy and
#: still completes; only 2 int columns plus the key reach the task)
STRATUM_WARN_ROWS = 2_000_000


def _warn_giant_stratum(n_rows: int, key) -> None:
    """One stratum = one task (greedy packing is order-sequential within a
    stratum); a single giant stratum therefore serializes.  Warn so a caller
    packing a whole corpus as ONE group sees the straggler — the escape hatch
    is a two-level group key (e.g. (source, shard))."""
    if n_rows > STRATUM_WARN_ROWS:
        import logging

        logging.getLogger(__name__).warning(
            "pack_sequences: stratum %r has %d rows in a single task; "
            "greedy packing is sequential per stratum — consider a "
            "two-level group key (e.g. (source, shard)) to parallelize",
            key,
            n_rows,
        )


def pack_sequences(
    ds,
    budget: int,
    group_col: str = "source",
    id_col: str = "doc_id",
    text_col: str = "text",
    token_col: str | None = None,
    per_bin: bool = True,
):
    """Pack documents into token-budget bins per stratum.

    ``token_col=None`` counts whitespace tokens from ``text_col`` (the
    corpus tokenizer rule shared with ``textstats``); pass a precomputed
    count column to skip that pass.  Returns per-bin rows
    ``(group, bin_id, n_docs, tok_sum)`` when ``per_bin`` (the compact
    manifest), else the per-document assignment
    ``(group, id, n_tok, bin_id)``.
    """

    def counts(b: pa.Table) -> pa.Table:
        if token_col is not None:
            n = pc.cast(b.column(token_col), pa.int64())
        else:
            n = pc.cast(pc.count_substring_regex(b.column(text_col), r"\S+"), pa.int64())
        return pa.table({group_col: b.column(group_col), id_col: b.column(id_col), "n_tok": n})

    def pack_group(g: pd.DataFrame) -> pd.DataFrame:
        _warn_giant_stratum(len(g), g[group_col].iloc[0] if len(g) else None)
        g = g.sort_values(id_col, kind="stable").reset_index(drop=True)
        g["bin_id"] = greedy_bins(g["n_tok"].to_numpy(), budget)
        if not per_bin:
            return g[[group_col, id_col, "n_tok", "bin_id"]]
        agg = (
            g.groupby("bin_id", sort=True)
            .agg(n_docs=(id_col, "size"), tok_sum=("n_tok", "sum"))
            .reset_index()
        )
        agg.insert(0, group_col, g[group_col].iloc[0])
        return agg[[group_col, "bin_id", "n_docs", "tok_sum"]]

    slim = ds.map_batches(counts, batch_format="pyarrow")
    out = slim.groupby(group_col).map_groups(pack_group, batch_format="pandas")
    sort_cols = [group_col, "bin_id"] if per_bin else [group_col, id_col]
    return out.sort(sort_cols)


def chunk_documents(
    ds,
    chunk_tokens: int = 128,
    overlap: int = 32,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """RAG-style chunking: each document becomes overlapping windows of
    ``chunk_tokens`` whitespace tokens with stride ``chunk_tokens -
    overlap`` — the retrieval-corpus prep step between curation and
    embedding.  Output: (id, chunk_id, n_tok, chunk_text), chunk_text being
    the single-space join of the window's tokens (the canonical form the
    SQL oracle reproduces with list slicing + array_to_string).

    Purely row-local — a flat_map-shaped ``map_batches`` with NO shuffle.
    Token gathers are one vectorized index build (repeat/arange over chunk
    starts); the per-chunk string assembly is one pandas grouped join.
    Zero-token documents yield no chunks (the explicit rule both sides).
    """
    kernel = chunk_kernel(chunk_tokens, overlap, text_col, id_col)
    return ds.map_batches(kernel, batch_format="pyarrow").sort([id_col, "chunk_id"])


def chunk_kernel(chunk_tokens: int, overlap: int, text_col: str, id_col: str):
    """The row-local explode kernel behind :func:`chunk_documents`, exposed so
    other pipelines (``dedup.segment_dedup``) can reuse the exact same
    windowing without the trailing sort.  Returns a pyarrow ``map_batches``
    fn emitting (id, chunk_id, n_tok, chunk_text)."""
    if not (0 <= overlap < chunk_tokens):
        raise ValueError("need 0 <= overlap < chunk_tokens")
    stride = chunk_tokens - overlap

    def chunks(b: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(b.column(text_col))
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = flat != ""
        # re-derive per-doc lengths over NON-EMPTY tokens
        didx_all = np.repeat(np.arange(len(b), dtype=np.int64), lens)
        flat, didx_all = flat[keep], didx_all[keep]
        L = np.bincount(didx_all, minlength=len(b)).astype(np.int64)
        offs = np.concatenate(([0], np.cumsum(L)))
        ids = b.column(id_col).to_numpy(zero_copy_only=False)

        nz = np.where(L > 0)[0]
        n_chunks = (L[nz] + stride - 1) // stride
        doc_rep = np.repeat(nz, n_chunks)                     # doc index per chunk
        chunk_ord = np.concatenate([np.arange(c) for c in n_chunks]) if len(nz) else np.empty(0, np.int64)
        start = chunk_ord * stride                            # within-doc token start
        end = np.minimum(start + chunk_tokens, L[doc_rep])
        n_tok = end - start

        # vectorized gather: absolute token index per (chunk, position)
        tok_rep = np.repeat(offs[doc_rep] + start, n_tok) + _ragged_arange(n_tok)
        chunk_of_tok = np.repeat(np.arange(len(doc_rep)), n_tok)
        texts = (
            pd.Series(flat[tok_rep])
            .groupby(chunk_of_tok, sort=True)
            .agg(" ".join)
            .to_numpy()
            if len(doc_rep)
            else np.empty(0, dtype=object)
        )
        return pa.table(
            {
                id_col: pa.array(ids[doc_rep]),
                "chunk_id": pa.array(chunk_ord),
                "n_tok": pa.array(n_tok),
                "chunk_text": pa.array(texts, type=pa.string()),
            }
        )

    return chunks


def greedy_bins_bounded(ntok: np.ndarray, budget: int, indptr: np.ndarray) -> np.ndarray:
    """:func:`greedy_bins` with forced breaks at document boundaries.

    ``indptr`` delimits documents in the flat ``ntok`` array; bins never
    cross a boundary and the bin counter is GLOBAL (renumber per doc with
    the gathered first-bin-per-doc).  O(total bins) like greedy_bins — the
    loop steps per emitted chunk, not per token."""
    n = len(ntok)
    bins = np.empty(n, dtype=np.int64)
    if n == 0:
        return bins
    cum = np.cumsum(ntok.astype(np.int64))
    ends = indptr[1:]
    start, b, di = 0, 0, 0
    while start < n:
        while ends[di] <= start:  # skip empty docs
            di += 1
        base = int(cum[start - 1]) if start else 0
        j = int(np.searchsorted(cum, base + budget, side="right"))
        j = max(j, start + 1)
        j = min(j, int(ends[di]))
        bins[start:j] = b
        b += 1
        start = j
    return bins


class BpeChunkStage:
    """Task stage: documents -> budget-bounded BPE-token chunks.

    RAG chunking under REAL tokenizer budgets: each chunk is the longest run
    of consecutive whitespace words whose BPE token counts sum ≤ ``budget``
    (greedy reset; a single word above budget forms its own chunk — the
    ``greedy_bins`` rule).  Per-worker distinct-word count cache (the
    ``stages.bpe.BpeCounter`` pattern); all index math vectorized, the only
    loop is per emitted chunk.  Output: ``(id, chunk_id, n_words,
    n_tok_bpe, chunk_text)``; zero-token docs yield no chunks."""

    def __init__(self, merges_ref, budget: int, text_col: str = "text", id_col: str = "doc_id"):
        from ..stages.bpe import BpeCounter

        # reuse BpeCounter's rank table + word cache via composition
        self._bc = BpeCounter(merges_ref, text_col=text_col)
        self.budget = int(budget)
        self.text_col = text_col
        self.id_col = id_col

    def word_rows(self, b: pa.Table):
        """(flat words, per-word bpe counts, doc index, per-doc indptr)."""
        toks = pc.utf8_split_whitespace(b.column(self.text_col))
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        didx = np.repeat(np.arange(len(b), dtype=np.int64), lens)
        keep = flat != ""
        flat, didx = flat[keep], didx[keep]
        L = np.bincount(didx, minlength=len(b)).astype(np.int64)
        indptr = np.concatenate(([0], np.cumsum(L)))
        import pandas as pd

        codes, vocab = pd.factorize(flat)
        per_word = np.fromiter(
            (self._bc._count(w) for w in vocab), dtype=np.int64, count=len(vocab)
        )
        return flat, per_word[codes] if len(flat) else np.empty(0, np.int64), didx, indptr

    def __call__(self, b: pa.Table) -> pa.Table:
        import pandas as pd

        flat, wtok, didx, indptr = self.word_rows(b)
        ids = b.column(self.id_col).to_numpy(zero_copy_only=False)
        gbins = greedy_bins_bounded(wtok, self.budget, indptr)
        nb = int(gbins[-1]) + 1 if len(gbins) else 0
        n_words = np.bincount(gbins, minlength=nb).astype(np.int64)
        n_tok = np.bincount(gbins, weights=wtok.astype(np.float64), minlength=nb).astype(np.int64)
        if nb:
            # per-chunk doc + doc-local chunk id: gather at each chunk's
            # first word; the doc's first GLOBAL bin renumbers to 0
            first_word = np.searchsorted(gbins, np.arange(nb))
            chunk_doc = didx[first_word]
            L = np.diff(indptr)
            doc_first_bin = np.zeros(len(b), dtype=np.int64)
            doc_first_bin[L > 0] = gbins[indptr[:-1][L > 0]]
            chunk_local = np.arange(nb) - doc_first_bin[chunk_doc]
            texts = pd.Series(flat).groupby(gbins, sort=True).agg(" ".join).to_numpy()
        else:
            chunk_doc = np.empty(0, np.int64)
            chunk_local = np.empty(0, np.int64)
            texts = np.empty(0, dtype=object)
        return pa.table(
            {
                self.id_col: pa.array(ids[chunk_doc]),
                "chunk_id": pa.array(chunk_local),
                "n_words": pa.array(n_words),
                "n_tok_bpe": pa.array(n_tok),
                "chunk_text": pa.array(list(texts), type=pa.string()),
            }
        )


def chunk_documents_bpe(
    ds,
    merges,
    budget: int = 48,
    text_col: str = "text",
    id_col: str = "doc_id",
    batch_size: int = 4096,
):
    """RAG chunking under real-tokenizer (BPE) budgets — see
    :class:`BpeChunkStage`.  Row-local, no shuffle; the frozen merge table
    ships once via ``ray.put``."""
    import ray

    from ..util import map_stage

    out = map_stage(
        ds, BpeChunkStage, batch_size=batch_size,
        merges_ref=ray.put(merges), budget=budget, text_col=text_col, id_col=id_col,
    )
    return out.sort([id_col, "chunk_id"])


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """[0..c0), [0..c1), ... concatenated, vectorized."""
    if len(counts) == 0:
        return np.empty(0, dtype=np.int64)
    total = int(counts.sum())
    out = np.ones(total, dtype=np.int64)
    out[0] = 0
    ends = np.cumsum(counts)[:-1]
    out[ends] = 1 - counts[:-1]
    return np.cumsum(out)
