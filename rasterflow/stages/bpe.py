"""Byte-pair-encoding tokenizer (the public BPE algorithm: Sennrich et al.
2016 / the GPT-2 byte-level variant's merge loop) — the real-tokenizer
counter behind ``pack_sequences`` / ``chunk_documents`` token budgets.

Design for scale:

- **Training** is the classic word-frequency formulation: the corpus
  collapses to a ``(word, freq)`` table first (per-batch ``value_counts``
  partials + one grouped sum — raw tokens never cross the shuffle, the
  same plan as ``textstats.vocab_stats``), capped to the top-K words by
  frequency (zipf: the tail adds negligible pair mass), and the merge loop
  runs driver-side over that bounded table — the standard practice (BPE
  training is inherently sequential in the merge rank).
- **Encoding** is a task stage (``util.map_stage``): the ranked merge table
  ships once via ``ray.put``; each worker process builds the stage — its
  rank dict and a word→count cache — once, so a zipfian batch encodes only
  its DISTINCT words (factorize + bincount does the per-doc sums — no
  per-doc Python loop; the unavoidable per-WORD merge loop is amortized
  across the corpus by the cache).

Determinism: merge selection tie-breaks (freq desc, pair lexicographic);
training and encoding are pure functions of (corpus, num_merges, top_k).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def merge_seq(seq: list[bytes], pair: tuple[bytes, bytes]) -> list[bytes]:
    """Apply one merge simultaneously, left-to-right non-overlapping."""
    a, b = pair
    out: list[bytes] = []
    i = 0
    n = len(seq)
    while i < n:
        if i + 1 < n and seq[i] == a and seq[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def train_bpe(
    words: list[str], freqs: np.ndarray, num_merges: int = 200
) -> list[tuple[bytes, bytes]]:
    """Learn ``num_merges`` ranked merges from a (word, frequency) table.

    Classic algorithm: each word is a byte sequence; repeatedly merge the
    globally most frequent adjacent pair (ties: lexicographically smallest
    pair — deterministic under any input order)."""
    seqs = [[bytes([c]) for c in w.encode("utf-8")] for w in words]
    f = np.asarray(freqs, dtype=np.int64)
    merges: list[tuple[bytes, bytes]] = []
    for _ in range(num_merges):
        counts: dict[tuple[bytes, bytes], int] = {}
        for seq, fi in zip(seqs, f):
            fi = int(fi)
            for j in range(len(seq) - 1):
                p = (seq[j], seq[j + 1])
                counts[p] = counts.get(p, 0) + fi
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        seqs = [merge_seq(s, best) if len(s) > 1 else s for s in seqs]
    return merges


def encode_word(word: str, ranks: dict[tuple[bytes, bytes], int]) -> list[bytes]:
    """Encode one word with the GPT-2 merge loop: repeatedly apply the
    lowest-rank pair present until none applies."""
    seq = [bytes([c]) for c in word.encode("utf-8")]
    while len(seq) >= 2:
        pairs = set(zip(seq, seq[1:]))
        best = min(pairs, key=lambda p: ranks.get(p, 1 << 60))
        if best not in ranks:
            break
        seq = merge_seq(seq, best)
    return seq


def word_frequencies(ds, text_col: str = "text", top_k: int = 20_000) -> pd.DataFrame:
    """Corpus (word, freq) table, top-K by (freq desc, word asc).

    Per-batch ``value_counts`` collapses each batch to its distinct tokens,
    a grouped sum merges them, and per-block partial top-k + one coalesced
    merge bounds what reaches the driver to ``blocks × top_k`` rows."""
    from ..util import coalesce_small, grouped_aggregate

    def partial(b: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.utf8_split_whitespace(b.column(text_col)))
        toks = toks.filter(pc.not_equal(toks, pa.scalar("")))
        vc = toks.value_counts()
        return pa.table({"word": vc.field("values"), "n": pc.cast(vc.field("counts"), pa.int64())})

    red = grouped_aggregate(
        coalesce_small(ds.map_batches(partial, batch_format="pyarrow"), 0.125),
        "word",
        {"n": ("n", "sum")},
    )

    def topk(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.sort_values(["n", "word"], ascending=[False, True], kind="stable")
        return pa.Table.from_pandas(df.head(top_k), preserve_index=False)

    out = (
        red.map_batches(topk, batch_format="pyarrow")
        .repartition(1)
        .map_batches(topk, batch_format="pyarrow")
        .to_pandas()
    )
    return out.reset_index(drop=True)


def train_bpe_on_dataset(
    ds, text_col: str = "text", num_merges: int = 200, top_k: int = 20_000
) -> list[tuple[bytes, bytes]]:
    wf = word_frequencies(ds, text_col=text_col, top_k=top_k)
    return train_bpe(list(wf["word"]), wf["n"].to_numpy(), num_merges=num_merges)


class BpeCounter:
    """Task stage: text batch -> (id passthrough cols, n_tok_bpe).

    The ranked merge table is fetched from the object store ONCE per worker
    process (``__init__`` under ``util.map_stage``); per-batch work
    factorizes the batch's tokens so each DISTINCT word is encoded at most
    once per worker (cache), then one ``np.bincount`` sums token counts per
    document."""

    def __init__(self, merges_ref, text_col: str = "text", keep_cols: tuple[str, ...] = ("doc_id",)):
        import ray

        merges = ray.get(merges_ref) if isinstance(merges_ref, ray.ObjectRef) else merges_ref
        self.ranks = {tuple(p): i for i, p in enumerate(merges)}
        self.text_col = text_col
        self.keep_cols = tuple(keep_cols)
        self._cache: dict[str, int] = {}

    def _count(self, word: str) -> int:
        c = self._cache.get(word)
        if c is None:
            c = len(encode_word(word, self.ranks))
            self._cache[word] = c
        return c

    def __call__(self, b: pa.Table) -> pa.Table:
        splits = pc.utf8_split_whitespace(b.column(self.text_col))
        lens = pc.list_value_length(splits).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(splits).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(b), dtype=np.int64), lens)
        mask = flat != ""
        codes, vocab = pd.factorize(flat[mask])
        per_word = np.fromiter((self._count(w) for w in vocab), dtype=np.int64, count=len(vocab))
        ntok = np.bincount(doc_idx[mask], weights=per_word[codes].astype(np.float64), minlength=len(b))
        cols = {c: b.column(c) for c in self.keep_cols}
        cols["n_tok_bpe"] = pa.array(ntok.astype(np.int64))
        return pa.table(cols)


class BpeWordRows(BpeCounter):
    """Variant emitting per-WORD rows ``(id, pos [1-based], n_bpe)`` — the
    sidecar the chunk-by-BPE oracle joins against its own token split
    (``generate_subscripts`` is 1-based, hence pos)."""

    def __call__(self, b: pa.Table) -> pa.Table:
        splits = pc.utf8_split_whitespace(b.column(self.text_col))
        lens = pc.list_value_length(splits).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(splits).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(b), dtype=np.int64), lens)
        mask = flat != ""
        flat, doc_idx = flat[mask], doc_idx[mask]
        codes, vocab = pd.factorize(flat)
        per_word = np.fromiter((self._count(w) for w in vocab), dtype=np.int64, count=len(vocab))
        # 1-based position within each doc (doc_idx is sorted)
        starts = np.searchsorted(doc_idx, np.arange(len(b)))
        pos = np.arange(len(doc_idx), dtype=np.int64) - starts[doc_idx] + 1
        ids = b.column(self.keep_cols[0]).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                self.keep_cols[0]: pa.array(ids[doc_idx]),
                "pos": pa.array(pos),
                "n_bpe": pa.array(per_word[codes] if len(flat) else np.empty(0, np.int64)),
            }
        )


def bpe_word_count_rows(
    ds,
    merges,
    text_col: str = "text",
    id_col: str = "doc_id",
    batch_size: int = 4096,
):
    """Per-word BPE counts as rows — see :class:`BpeWordRows`."""
    import ray

    from ..util import map_stage

    return map_stage(
        ds, BpeWordRows, batch_size=batch_size,
        merges_ref=ray.put(merges), text_col=text_col, keep_cols=(id_col,),
    )


def bpe_token_counts(
    ds,
    merges: list[tuple[bytes, bytes]],
    text_col: str = "text",
    keep_cols: tuple[str, ...] = ("doc_id",),
    batch_size: int = 4096,
):
    """Per-document BPE token counts under a frozen merge table."""
    import ray

    from ..util import map_stage

    return map_stage(
        ds, BpeCounter, batch_size=batch_size,
        merges_ref=ray.put(merges), text_col=text_col, keep_cols=tuple(keep_cols),
    )
