"""Text analysis operators: token counting, quality scoring, language ID,
document fingerprinting.

All vectorized Arrow/RE2 kernels in stateless ``map_batches`` tasks except
language-ID (regex set compiled once per worker).  Column names are stable so
oracle SQL can alias to match.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_FNV = np.uint64(1099511628211)

STOPWORDS = {
    "en": ("the", "and", "of", "to", "in", "is", "a"),
    "es": ("el", "la", "de", "que", "y", "en", "los"),
    "de": ("der", "die", "und", "das", "ist", "nicht", "ein"),
    "fr": ("le", "la", "et", "les", "des", "est", "une"),
}


def token_count(ds, text_col: str = "text", id_col: str = "doc_id"):
    """(id, n_tok, n_ws_tok): BPE-ish regex token count + whitespace count."""

    def f(b: pa.Table) -> pa.Table:
        t = b.column(text_col)
        return pa.table(
            {
                id_col: b.column(id_col),
                # whitespace tokens
                "n_tok": pc.cast(pc.count_substring_regex(t, r"\S+"), pa.int64()),
                # GPT-2-style coarse pieces: word / number / punct runs
                "n_bpe": pc.cast(
                    pc.count_substring_regex(t, r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]+"), pa.int64()
                ),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def quality_score(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Heuristic quality features + combined score.

    Columns: n_chars_q, n_tok, punct_ratio, stop_ratio, mean_tok_len, score.
    score = stop_ratio-weighted length signal in [0, 1] — deterministic
    float64 per-row expression.
    """
    stop_re = r"\b(" + "|".join(STOPWORDS["en"]) + r")\b"

    def f(b: pa.Table) -> pa.Table:
        t = b.column(text_col)
        nch = pc.cast(pc.utf8_length(t), pa.int64()).to_numpy(zero_copy_only=False).astype(np.float64)
        ntok = pc.cast(pc.count_substring_regex(t, r"\S+"), pa.int64()).to_numpy(zero_copy_only=False).astype(np.float64)
        npunct = pc.cast(pc.count_substring_regex(t, r"[.,;:!?]"), pa.int64()).to_numpy(zero_copy_only=False).astype(np.float64)
        nstop = pc.cast(pc.count_substring_regex(t, stop_re), pa.int64()).to_numpy(zero_copy_only=False).astype(np.float64)
        ntok_s = np.maximum(ntok, 1.0)
        nch_s = np.maximum(nch, 1.0)
        punct_ratio = npunct / nch_s
        stop_ratio = nstop / ntok_s
        mean_tok_len = nch / ntok_s
        score = np.minimum(1.0, ntok / 64.0) * 0.5 + np.minimum(stop_ratio * 4.0, 1.0) * 0.3 + np.minimum(
            1.0, 1.0 - punct_ratio * 4.0
        ) * 0.2
        return pa.table(
            {
                id_col: b.column(id_col),
                "n_chars_q": pa.array(nch.astype(np.int64)),
                "n_tok": pa.array(ntok.astype(np.int64)),
                "punct_ratio": pa.array(punct_ratio),
                "stop_ratio": pa.array(stop_ratio),
                "mean_tok_len": pa.array(mean_tok_len),
                "score": pa.array(score),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


class LangIdStage:
    """n-gram/stopword-profile language id over {en, es, de, fr}.

    Stopword regexes are built once per worker; scoring = per-language match
    counts normalized by token count; argmax with deterministic tie-break by
    language-code order.
    """

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col
        self.langs = sorted(STOPWORDS)
        self.regexes = {
            lang: r"\b(" + "|".join(words) + r")\b" for lang, words in STOPWORDS.items()
        }

    def __call__(self, b: pa.Table) -> pa.Table:
        t = b.column(self.text_col)
        lowered = pc.utf8_lower(t)
        counts = np.stack(
            [
                pc.cast(pc.count_substring_regex(lowered, self.regexes[lang]), pa.int64())
                .to_numpy(zero_copy_only=False)
                .astype(np.float64)
                for lang in self.langs
            ],
            axis=1,
        )
        best = counts.argmax(axis=1)
        pred = np.asarray(self.langs, dtype=object)[best]
        conf = counts.max(axis=1) / np.maximum(counts.sum(axis=1), 1.0)
        return pa.table(
            {
                self.id_col: b.column(self.id_col),
                "lang_pred": pa.array(pred.tolist(), type=pa.string()),
                "lang_conf": pa.array(conf),
            }
        )


def lang_id(ds, text_col: str = "text", id_col: str = "doc_id"):
    from ..util import map_stage

    return map_stage(ds, LangIdStage, text_col=text_col, id_col=id_col)


def fingerprint(ds, text_col: str = "text", id_col: str = "doc_id"):
    """64-bit rolling polynomial fingerprint of the utf-8 bytes (mod 2^64):
    ``fp = OFFSET * P^n + Σ b_j * P^(n-1-j)`` — equivalently a Horner fold
    ``fp = fold(fp * P + byte)`` seeded with the FNV offset basis, which is
    exactly what the DuckDB oracle replicates with HUGEINT arithmetic.

    Fully vectorized over the batch's flat UTF-8 buffer (one prefix-hash pass
    for ALL documents — no per-row Python loop)."""

    def f(b: pa.Table) -> pa.Table:
        from ..stages.texthash import doc_hashes, flat_utf8

        data, offs = flat_utf8(b.column(text_col))
        out = doc_hashes(data, offs)
        return pa.table({id_col: b.column(id_col), "fp": pa.array(out.astype(np.int64))})

    return ds.map_batches(f, batch_format="pyarrow")


def normalize_text(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Canonical text normalization (the pre-dedup cleanup step): lowercase,
    collapse whitespace runs to one space, trim.  Pure Arrow/RE2 kernels —
    and DuckDB's regexp functions are RE2 too, so the oracle matches the
    output strings byte-for-byte."""

    def f(b: pa.Table) -> pa.Table:
        t = pc.utf8_lower(b.column(text_col))
        t = pc.replace_substring_regex(t, r"\s+", " ")
        t = pc.utf8_trim_whitespace(t)
        return pa.table({id_col: b.column(id_col), "norm_text": t})

    return ds.map_batches(f, batch_format="pyarrow")


def unicode_normalize(
    ds,
    form: str = "NFC",
    casefold: bool = True,
    strip_accents: bool = False,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Unicode normalization (the first step of every dedup recipe on real
    crawl text): NFC/NFKC composition + casefold, optionally accent-strip
    (NFD, drop combining marks, recompose).

    ASCII fast path: rows that are pure ASCII (checked with the Arrow
    ``string_is_ascii`` kernel) are NFC-invariant and casefold == lower, so
    whole-ASCII batches run entirely on Arrow kernels; only non-ASCII rows
    fall back to CPython ``unicodedata`` (no C kernel exists) — on web text
    that's a small minority of rows, and the loop is per *row*, not per
    token.  Oracle note: DuckDB ``nfc_normalize(lower(...))`` replicates the
    NFC+casefold mode byte-for-byte on text where ``casefold == lower``
    (always true for ASCII; differs on e.g. ``ß`` → ``ss``)."""
    if form not in ("NFC", "NFKC"):
        raise ValueError(f"form must be NFC|NFKC, got {form!r}")

    def f(b: pa.Table) -> pa.Table:
        col = b.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        is_ascii = pc.string_is_ascii(col).to_numpy(zero_copy_only=False)
        fast = pc.utf8_lower(col) if casefold else col
        if bool(is_ascii.all()):
            out = fast
        else:
            import unicodedata

            vals = col.to_pylist()
            fvals = fast.to_pylist()
            res = []
            for s, fv, a in zip(vals, fvals, is_ascii):
                if a or s is None:
                    res.append(fv)
                    continue
                s2 = unicodedata.normalize(form, s)
                if casefold:
                    s2 = s2.casefold()
                if strip_accents:
                    s2 = "".join(
                        ch
                        for ch in unicodedata.normalize("NFD", s2)
                        if not unicodedata.combining(ch)
                    )
                s2 = unicodedata.normalize(form, s2)
                res.append(s2)
            out = pa.array(res, type=pa.string())
        return pa.table({id_col: b.column(id_col), "norm_text": out})

    return ds.map_batches(f, batch_format="pyarrow")


def _doc_tokens(b: pa.Table, text_col: str):
    """Whitespace tokens of a batch as (doc_idx, token-codes, vocab, n_docs)
    — empties filtered exactly like the SQL oracle's list_filter, token
    identity by EXACT string equality (pandas factorize, vectorized C)."""
    import pandas as pd

    splits = pc.split_pattern_regex(b.column(text_col), r"\s+")
    lens = pc.list_value_length(splits).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(splits)
    doc_idx = np.repeat(np.arange(len(b)), lens)
    toks = flat.to_numpy(zero_copy_only=False)
    mask = toks != ""
    codes, vocab = pd.factorize(toks[mask])
    return doc_idx[mask], codes, vocab, len(b)


def repetition_stats(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Gopher-style repetition signals, word-level (the corpus has no line
    structure): per doc —

    - ``n_tok``: whitespace token count
    - ``dup_frac``: fraction of token occurrences that repeat an earlier
      token (``1 - distinct/total``; 0 for empty docs)
    - ``top2_frac``: share of the most frequent word bigram among all
      bigrams (0 when < 2 tokens)
    - ``max_run``: longest run of the same consecutive token (0 when empty)

    One vectorized pass per batch: factorized token codes, bigram keys by
    code pairing, run/group reductions via lexsort + boundary flags — no
    per-doc loop.  Fractions are single int/int float64 divisions, so they
    hash-match the SQL oracle bit-for-bit."""

    def f(b: pa.Table) -> pa.Table:
        doc_idx, codes, vocab, n = _doc_tokens(b, text_col)
        v = np.int64(len(vocab))
        ntok = np.bincount(doc_idx, minlength=n).astype(np.int64)
        # distinct tokens per doc: unique (doc, code) pairs
        if len(codes):
            uniq = np.unique(doc_idx.astype(np.int64) * v + codes)
            ndist = np.bincount((uniq // v).astype(np.intp), minlength=n).astype(np.int64)
        else:
            ndist = np.zeros(n, dtype=np.int64)
        dup_frac = np.where(ntok > 0, (ntok - ndist) / np.maximum(ntok, 1), 0.0)
        # bigrams: adjacent same-doc code pairs
        top2 = np.zeros(n, dtype=np.int64)
        max_run = np.zeros(n, dtype=np.int64)
        if len(codes) > 1:
            adj = doc_idx[1:] == doc_idx[:-1]
            bdoc = doc_idx[:-1][adj].astype(np.int64)
            bkey = codes[:-1][adj].astype(np.int64) * v + codes[1:][adj]
            if len(bkey):
                order = np.lexsort((bkey, bdoc))
                bd, bk = bdoc[order], bkey[order]
                newg = np.concatenate(([True], (bd[1:] != bd[:-1]) | (bk[1:] != bk[:-1])))
                starts = np.flatnonzero(newg)
                counts = np.diff(np.append(starts, len(bk)))
                np.maximum.at(top2, bd[starts].astype(np.intp), counts)
            # token runs: consecutive same (doc, code)
            same = adj & (codes[1:] == codes[:-1])
            newr = np.concatenate(([True], ~same))
            rstarts = np.flatnonzero(newr)
            rlens = np.diff(np.append(rstarts, len(codes)))
            np.maximum.at(max_run, doc_idx[rstarts].astype(np.intp), rlens)
        elif len(codes) == 1:
            max_run[doc_idx[0]] = 1
        top2_frac = np.where(ntok >= 2, top2 / np.maximum(ntok - 1, 1), 0.0)
        return pa.table(
            {
                id_col: b.column(id_col),
                "n_tok": pa.array(ntok),
                "dup_frac": pa.array(dup_frac),
                "top2_frac": pa.array(top2_frac),
                "max_run": pa.array(max_run),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def doc_term_freq(ds, text_col: str = "text", id_col: str = "doc_id"):
    """(doc_id, tok, tf) — one row per distinct (doc, token), vectorized:
    factorized codes + one lexsort per batch, no per-doc loop."""

    def f(b: pa.Table) -> pa.Table:
        doc_idx, codes, vocab, n = _doc_tokens(b, text_col)
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        if not len(codes):
            return pa.table(
                {
                    id_col: pa.array([], type=pa.int64()),
                    "tok": pa.array([], type=pa.string()),
                    "tf": pa.array([], type=pa.int64()),
                }
            )
        v = np.int64(len(vocab))
        key = doc_idx.astype(np.int64) * v + codes
        uniq, tf = np.unique(key, return_counts=True)
        return pa.table(
            {
                id_col: pa.array(ids[(uniq // v).astype(np.intp)]),
                "tok": pa.array(vocab[(uniq % v).astype(np.intp)].tolist(), type=pa.string()),
                "tf": pa.array(tf.astype(np.int64)),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def tfidf_top_terms(
    ds, k: int = 3, text_col: str = "text", id_col: str = "doc_id", num_partitions: int | None = None
):
    """Per-doc top-k terms by tf·idf (idf = ln(N/df)) — the "what is this
    document about" signal of a curation pipeline.

    Plan (no driver-side vocabulary): per-batch (doc, tok, tf) partials →
    document frequency by a token-hash grouped sum → token-partitioned
    :func:`~rasterflow.pipelines.relational.hash_join` of tf with df (at web
    scale the vocabulary is join-sized, not broadcast-sized) → per-doc
    partial top-k.  The score is float internally but the OUTPUT is the
    integer (tf, df) pair plus the token, so the oracle hash never compares
    transcendental floats across engines; ties break by token ascending."""
    from ..util import grouped_aggregate
    from .relational import hash_join
    from .sampling import top_k_per_group

    n_docs = ds.count()
    tf = doc_term_freq(ds, text_col=text_col, id_col=id_col)
    df = grouped_aggregate(tf, "tok", {"df": (id_col, "count")}, num_partitions=num_partitions)
    joined = hash_join(tf, df, on="tok", left_cols=[id_col, "tf"], right_cols=["df"],
                       num_partitions=num_partitions)

    def score(b: pa.Table) -> pa.Table:
        tfv = b.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = b.column("df").to_numpy(zero_copy_only=False).astype(np.float64)
        return b.append_column("tfidf", pa.array(tfv * np.log(n_docs / dfv)))

    scored = joined.map_batches(score, batch_format="pyarrow")
    top = top_k_per_group(scored, id_col, "tfidf", k, id_col="tok", extra_cols=["tf", "df"])
    return top.map_batches(
        lambda t: t.select([id_col, "tok", "tf", "df"]), batch_format="pyarrow"
    )


def regex_redact(
    ds,
    pattern: str,
    replacement: str = "<X>",
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """PII-style regex redaction: replace every match of ``pattern`` with
    ``replacement`` and count the hits per document.

    Both kernels are single Arrow RE2 passes (``replace_substring_regex`` /
    ``count_substring_regex``) — no Python per row; DuckDB's regexp functions
    are RE2 too, so the oracle compares the redacted strings byte-for-byte.
    Output: ``(id, red_text, n_hits)``.  Embarrassingly parallel, no
    shuffle."""

    def f(b: pa.Table) -> pa.Table:
        t = b.column(text_col)
        red = pc.replace_substring_regex(t, pattern, replacement)
        hits = pc.cast(pc.count_substring_regex(t, pattern), pa.int64())
        return pa.table({id_col: b.column(id_col), "red_text": red, "n_hits": hits})

    return ds.map_batches(f, batch_format="pyarrow")


def bigram_top(ds, text_col: str = "text", k: int = 20):
    """Corpus-wide exact top-k word BIGRAMS — the n-gram LM / collocation
    counting primitive.

    Per batch: factorized token codes (shared :func:`_doc_tokens` kernel, so
    tokenization matches the SQL oracle's ``string_split_regex``), adjacent
    same-doc code pairs keyed as ``code*|V|+code`` ints, one ``np.unique``
    over the int keys, then materialize only the batch's DISTINCT bigram
    strings for the shuffle (same pre-aggregation shape as
    :func:`top_tokens`).  Grouped sum → top-k with deterministic
    (n desc, bigram asc) order."""
    import pandas as pd

    def partial(b: pa.Table) -> pa.Table:
        doc_idx, codes, vocab, _n = _doc_tokens(b, text_col)
        if len(codes) < 2:
            return pa.table(
                {"bigram": pa.array([], type=pa.string()), "n": pa.array([], type=pa.int64())}
            )
        adj = doc_idx[1:] == doc_idx[:-1]
        v = np.int64(len(vocab))
        bkey = codes[:-1][adj].astype(np.int64) * v + codes[1:][adj]
        uk, cnt = np.unique(bkey, return_counts=True)
        lhs = pd.Series(vocab[(uk // v).astype(np.intp)])
        rhs = pd.Series(vocab[(uk % v).astype(np.intp)])
        return pa.table(
            {
                "bigram": pa.array((lhs + " " + rhs).to_numpy(), type=pa.string()),
                "n": pa.array(cnt.astype(np.int64)),
            }
        )

    from ..util import coalesce_small, grouped_aggregate

    partials = coalesce_small(ds.map_batches(partial, batch_format="pyarrow"), 0.125)
    red = grouped_aggregate(partials, "bigram", {"n": ("n", "sum")})
    return red.sort(["n", "bigram"], descending=[True, False]).limit(k)


def json_int_field_agg(
    ds,
    field: str = "k",
    src_col: str = "props",
    group_col: str = "event_type",
):
    """Extract an integer field from a JSON-string column and aggregate it
    per group: ``(group, n, sum_<field>)`` — the "parse the properties blob"
    step of event analytics, without a JSON parser in the hot path.

    The extraction is one vectorized RE2 pass (``pc.extract_regex``) for the
    ``"field": <int>`` shape; rows without the field contribute null (count
    excludes them, like SQL SUM/COUNT of a null).  Per-batch partial sums →
    distributed grouped sum: only (group, n, sum) rows cross the shuffle."""
    import pandas as pd

    pat = '"' + field + r'":\s*(?P<v>-?\d+)'

    def partial(b: pa.Table) -> pa.Table:
        ex = pc.extract_regex(b.column(src_col), pat)
        vals = pc.cast(pc.struct_field(ex, "v"), pa.int64())
        df = pd.DataFrame(
            {
                group_col: b.column(group_col).to_numpy(zero_copy_only=False),
                "_v": vals.to_numpy(zero_copy_only=False),
            }
        )
        agg = df.groupby(group_col, sort=False)["_v"].agg(n="count", s="sum").reset_index()
        agg["n"] = agg["n"].astype(np.int64)
        agg["s"] = agg["s"].astype(np.int64)
        return pa.Table.from_pandas(agg, preserve_index=False)

    from ..util import coalesce_small, grouped_aggregate

    partials = coalesce_small(ds.map_batches(partial, batch_format="pyarrow"), 0.125)
    out_sum = f"sum_{field}"
    red = grouped_aggregate(
        partials, group_col, {"n": ("n", "sum"), out_sum: ("s", "sum")}
    )
    return red.sort(group_col)


def hashing_vectorize(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    dim: int = 64,
    hash_fn: str = "mix64",
):
    """Feature-hashing (hashed bag-of-words) vectorizer: each document
    becomes a fixed ``dim``-bucket token-count vector
    (``bucket = mix(token_hash) % dim``) — the HashingVectorizer
    primitive that feeds hashed features to downstream similarity / model
    stages without a vocabulary pass.

    ``hash_fn="mix64"`` (default): FNV-prime polynomial + splitmix64
    finalizer.  ``hash_fn="mulrot31"``: base-31 polynomial over token bytes
    + the mul-rotate mixer — every step expressible in ANSI SQL over
    HUGEINT, so the bucket assignment (and thus the whole feature vector)
    has an exact DuckDB oracle for ASCII text.

    Fully vectorized per batch: one flat-buffer token-hash pass
    (:func:`rasterflow.stages.texthash.token_hashes` — no per-doc loop),
    one ``np.bincount`` over ``doc_idx·dim + bucket``.  Output:
    ``(id, features fixed_size_list<int32>[dim], n_tok)``.  Embarrassingly
    parallel, no shuffle; approximate only in the hashing-trick sense
    (bucket collisions), deterministic across runs and partitionings."""
    if hash_fn not in ("mix64", "mulrot31"):
        raise ValueError(f"hash_fn must be mix64|mulrot31, got {hash_fn!r}")

    def f(b: pa.Table) -> pa.Table:
        from ..stages.texthash import (
            PrefixHash,
            flat_utf8,
            mix64,
            mulrot_hash64,
            token_hashes,
            token_spans,
        )

        data, offs = flat_utf8(b.column(text_col))
        if hash_fn == "mulrot31":
            starts, ends, indptr = token_spans(data, offs)
            ph = PrefixHash(data, base=np.uint64(31))
            th = mulrot_hash64(ph.range_hashes(starts, ends))
        else:
            th, indptr = token_hashes(data, offs)
            th = mix64(th)
        n = len(b)
        with np.errstate(over="ignore"):
            bucket = (th % np.uint64(dim)).astype(np.int64)
        tok_doc = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        counts = np.bincount(tok_doc * dim + bucket, minlength=n * dim).astype(np.int32)
        feats = pa.FixedSizeListArray.from_arrays(pa.array(counts), dim)
        ntok = np.diff(indptr).astype(np.int64)
        return pa.table(
            {id_col: b.column(id_col), "features": feats, "n_tok": pa.array(ntok)}
        )

    return ds.map_batches(f, batch_format="pyarrow")


def vocab_stats(ds, text_col: str = "text"):
    """Corpus-wide vocabulary size: one row
    ``(n_vocab, n_tokens)`` — distinct whitespace tokens and total token
    occurrences.

    Per-batch ``value_counts`` collapses each batch to its distinct tokens
    (the :func:`top_tokens` pre-aggregation), the grouped sum merges them,
    and the final count/sum is an O(#distinct) aggregate — raw tokens never
    cross the shuffle."""

    def partial(b: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.utf8_split_whitespace(b.column(text_col)))
        toks = toks.filter(pc.not_equal(toks, pa.scalar("")))
        vc = toks.value_counts()
        return pa.table(
            {"token": vc.field("values"), "n": pc.cast(vc.field("counts"), pa.int64())}
        )

    from ..util import coalesce_small, grouped_aggregate

    partials = coalesce_small(ds.map_batches(partial, batch_format="pyarrow"), 0.125)
    red = grouped_aggregate(partials, "token", {"n": ("n", "sum")})

    def finalize(b: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return pa.table(
            {
                "n_vocab": pa.array([len(b)], type=pa.int64()),
                "n_tokens": pa.array(
                    [_pc.sum(b.column("n")).as_py() or 0], type=pa.int64()
                ),
            }
        )

    # one partial (n_vocab, n_tokens) row per reduced block, then one tiny sum
    parts = red.map_batches(finalize, batch_format="pyarrow")
    pdf = parts.to_pandas()
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "n_vocab": pa.array([int(pdf["n_vocab"].sum())], type=pa.int64()),
                "n_tokens": pa.array([int(pdf["n_tokens"].sum())], type=pa.int64()),
            }
        )
    )


def top_tokens(ds, text_col: str = "text", k: int = 50):
    """Corpus-wide exact top-k tokens by frequency (heavy hitters, exact).

    Per-batch pre-aggregation (Arrow split + value_counts collapses each
    batch to its distinct tokens) so the shuffle carries (token, n) partials,
    not raw tokens; grouped sum; global top-k with deterministic
    (count desc, token asc) ordering — matches the SQL oracle."""

    def partial(b: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.utf8_split_whitespace(b.column(text_col)))
        toks = toks.filter(pc.not_equal(toks, pa.scalar("")))
        vc = toks.value_counts()
        return pa.table(
            {"token": vc.field("values"), "n": pc.cast(vc.field("counts"), pa.int64())}
        )

    from ..util import coalesce_small, grouped_aggregate

    partials = coalesce_small(ds.map_batches(partial, batch_format="pyarrow"), 0.125)
    red = grouped_aggregate(partials, "token", {"n": ("n", "sum")})
    return red.sort(["n", "token"], descending=[True, False]).limit(k)
