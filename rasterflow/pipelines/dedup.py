"""Deduplication operators for large-scale training-data pipelines.

All are Ray-Data-native: vectorized per-batch signature computation
(tasks; stateful stages are built once per worker by ``util.map_stage``),
then groupby shuffles over *narrow* signature columns only — the wide text
column never moves except where exact verification demands it (and then
only inside candidate buckets).

- :func:`exact_dedup` — content-hash partition + min-id per group, with
  per-batch pre-aggregation so the shuffle carries one row per distinct hash
  per batch (not one per row); optional collision-proof ``verify`` pass.
- :func:`minhash_lsh_pairs` — char-shingle MinHash signatures banded into LSH
  buckets; near-duplicate candidate pairs with signature-estimated Jaccard
  (approximate by design).
- :func:`ngram_jaccard_pairs` — EXACT word-n-gram Jaccard self-join via
  lossless prefix-filter blocking (AllPairs/PPJoin) — all pairs ≥ threshold,
  SQL-oracle-matched.
- :func:`neardup_clusters` — connected components over the exact pair graph;
  min-id representative per cluster (the dedup keep-list decision).
- :func:`simhash_pairs` — 64-bit SimHash with banded blocking and Hamming
  verification (pigeonhole-complete for ham ≤ 3).

Hash collisions: exact_dedup keys on a 64-bit content hash — at 10^12 docs
expect ~O(30) random collisions; ``verify=True`` removes even those.  Bucket
blowup: LSH buckets are capped at ``max_bucket`` docs (hot buckets are almost
always boilerplate/empty strings; the cap is logged via the ``truncated``
column so nothing is silently dropped); the prefix-filter join is uncapped by
default to stay lossless.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..util import coalesce_small, grouped_aggregate, map_stage, shuffle_parts

MERSENNE61 = (1 << 61) - 1
_FNV = np.uint64(1099511628211)
#: byte -> popcount lookup (numpy 1.x has no bitwise_count ufunc)
_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1).astype(np.int64)


def content_hash64(col) -> np.ndarray:
    """Deterministic, process-independent 64-bit content hash.

    Vectorized polynomial hash over the column's flat UTF-8 buffer (the
    ``fingerprint`` formula — length-aware, one numpy pass for the whole
    batch).  Accepts an Arrow string array or a list of Python strings."""
    from ..stages.texthash import doc_hashes, flat_utf8

    if not isinstance(col, (pa.Array, pa.ChunkedArray)):
        col = pa.array(list(col), type=pa.string())
    data, offs = flat_utf8(col)
    return doc_hashes(data, offs)


#: verify=True ships the sorted multi-occurrence hash set to every task via
#: one ray.put; above this many distinct duplicated contents (80 MB of int64
#: at 10^7) the broadcast-array plan is replaced by a direct hash-partitioned
#: (hash, text) grouping with NO driver-side set at all — bounded driver RSS
#: at any dup rate (a 30-50% dup-rate crawl makes the set multi-GB)
VERIFY_BROADCAST_MAX = 10_000_000


def exact_dedup(
    ds,
    content_col: str = "text",
    id_col: str = "doc_id",
    verify: bool = False,
    broadcast_max: int = VERIFY_BROADCAST_MAX,
):
    """Keep the minimum id per distinct content; returns (id, n) per group.

    Two-stage: per-batch pandas pre-aggregation (hash -> min id, count), then
    ``groupby(content_hash)`` over the partials.

    ``verify=True`` adds a collision-proof second pass (TODO r1 #4): hashes
    that occur more than once are re-checked by grouping the actual texts
    inside those (tiny) groups, so the result is exact even at 10^12 docs
    where ~O(30) random 64-bit collisions are expected.  The second pass
    re-scans the input but moves only rows whose hash is in the (broadcast)
    multi-occurrence set — at web scale a sub-percent fraction.  When the
    multi-occurrence set exceeds ``broadcast_max`` distinct hashes, the
    broadcast plan is swapped for a direct distributed grouping of
    per-batch-deduped ``(hash, text)`` partials: one shuffle whose volume is
    the per-batch-distinct text (~corpus size in the worst case) but whose
    driver footprint is O(1).
    """

    def partial(batch: pa.Table) -> pa.Table:
        h = content_hash64(batch.column(content_col)).astype(np.int64)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"h": h, "id": ids})
        g = df.groupby("h", sort=False).agg(id=("id", "min"), n=("id", "size")).reset_index()
        return pa.table({"content_hash": g["h"].to_numpy(), id_col: g["id"].to_numpy(), "n": g["n"].to_numpy().astype(np.int64)})

    red = grouped_aggregate(
        coalesce_small(ds.map_batches(partial, batch_format="pyarrow")),
        "content_hash",
        {id_col: (id_col, "min"), "n": ("n", "sum")},
    )
    if not verify:
        return red.map_batches(lambda t: t.select([id_col, "n"]), batch_format="pyarrow").sort(id_col)

    # ---- verification pass: split singleton hashes from multi-hashes ----
    red = red.materialize()

    def singles(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("n"), 1)).select([id_col, "n"])

    def multis(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t.column("n"), 1)).select(["content_hash"])

    def multi_count(t: pa.Table) -> pa.Table:
        return pa.table({"c": pa.array([t.filter(pc.greater(t.column("n"), 1)).num_rows], pa.int64())})

    n_multi = int(
        red.map_batches(multi_count, batch_format="pyarrow").sum("c") or 0
    )
    single_ds = red.map_batches(singles, batch_format="pyarrow")
    if n_multi == 0:
        return single_ds.sort(id_col)
    if n_multi > broadcast_max:
        # scale fallback: no driver-side hash set.  Re-scan the input with
        # per-batch (hash, text) pre-aggregation and group distributed —
        # collision-proof because rows agreeing on BOTH hash and text are
        # genuinely identical; the first pass's partials are discarded.
        def partial_ht(batch: pa.Table) -> pa.Table:
            h = content_hash64(batch.column(content_col)).astype(np.int64)
            df = pd.DataFrame(
                {
                    "h": h,
                    "t": batch.column(content_col).to_pandas(),
                    "id": batch.column(id_col).to_numpy(zero_copy_only=False),
                }
            )
            g = df.groupby(["h", "t"], sort=False).agg(id=("id", "min"), n=("id", "size")).reset_index()
            return pa.table(
                {
                    "content_hash": g["h"].to_numpy(),
                    content_col: pa.array(g["t"], type=pa.string()),
                    id_col: g["id"].to_numpy(),
                    "n": g["n"].to_numpy().astype(np.int64),
                }
            )

        verified_all = grouped_aggregate(
            coalesce_small(ds.map_batches(partial_ht, batch_format="pyarrow"), 0.125),
            ["content_hash", content_col],
            {id_col: (id_col, "min"), "n": ("n", "sum")},
        ).map_batches(lambda t: t.select([id_col, "n"]), batch_format="pyarrow")
        return verified_all.sort(id_col)
    multi_tbl = red.map_batches(multis, batch_format="pyarrow").to_pandas()
    hot = np.sort(multi_tbl["content_hash"].to_numpy().astype(np.int64))
    hot_ref = ray.put(hot) if ray.is_initialized() else hot

    def hot_rows(batch: pa.Table) -> pa.Table:
        hs = ray.get(hot_ref) if isinstance(hot_ref, ray.ObjectRef) else hot_ref
        h = content_hash64(batch.column(content_col)).astype(np.int64)
        pos = np.clip(np.searchsorted(hs, h), 0, len(hs) - 1)
        m = hs[pos] == h
        return pa.table(
            {
                "content_hash": pa.array(h[m]),
                id_col: batch.column(id_col).filter(pa.array(m)),
                content_col: batch.column(content_col).filter(pa.array(m)),
            }
        )

    # regroup by (hash, text) with the hash-partitioned vectorized reduce —
    # NOT per-hash-group map_groups, whose ~1 ms/group dispatch dominates
    # when collisions-to-verify number in the tens of thousands (round-3
    # scale smoke: 200k docs / 60k multi-occurrence hashes, 27 s -> 8 s)
    verified = grouped_aggregate(
        coalesce_small(ds.map_batches(hot_rows, batch_format="pyarrow"), 0.125),
        ["content_hash", content_col],
        {id_col: (id_col, "min"), "n": (id_col, "count")},
    ).map_batches(lambda t: t.select([id_col, "n"]), batch_format="pyarrow")
    return single_ds.union(verified).sort(id_col)


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


class MinHashSignatures:
    """Task stage: text batch -> (id, band rows, signature bytes).

    Permutation parameters are derived once per worker in ``__init__`` from a
    fixed seed (stateful setup amortized across batches).

    Fully vectorized (round-2): shingle hashes for ALL docs come from one
    prefix-hash pass over the batch's flat UTF-8 buffer, and each permutation
    is one ``np.minimum.reduceat`` over the flat shingle array — no per-doc
    Python loop.  (MinHash over a multiset equals MinHash over the set, so no
    per-doc unique is needed.)
    """

    def __init__(self, content_col: str, id_col: str, num_perm: int, bands: int, shingle_k: int, seed: int = 1234):
        assert num_perm % bands == 0
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, MERSENNE61, size=num_perm, dtype=np.int64).astype(np.uint64)
        self.b = rng.integers(0, MERSENNE61, size=num_perm, dtype=np.int64).astype(np.uint64)
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.k = shingle_k
        self.content_col = content_col
        self.id_col = id_col

    def signatures(self, col) -> np.ndarray:
        """(n_docs, num_perm) MinHash signature matrix, vectorized."""
        from ..stages.texthash import flat_utf8, window_hashes

        data, offs = flat_utf8(col)
        sh, indptr = window_hashes(data, offs, self.k)
        n = len(offs) - 1
        sigs = np.empty((n, self.num_perm), dtype=np.uint64)
        if len(sh) == 0:
            sigs[:] = self.b[None, :]
            return sigs
        # cache-blocked permutation loop (same trick as the PIP kernel's
        # k-form blocking): run all num_perm permutations over one
        # L3-resident shingle chunk before moving on, so the shingle array
        # crosses DRAM once instead of once per permutation — the stage is
        # bandwidth-bound (round-3 500k-doc smoke).  Chunks split on doc
        # boundaries so every reduceat segment stays whole.
        CH = 1 << 19  # ~4 MB of shingle hashes per chunk
        tmp = np.empty(min(len(sh), 2 * CH + 1), dtype=np.uint64)
        with np.errstate(over="ignore"):
            d0 = 0
            while d0 < n:
                d1 = int(np.searchsorted(indptr, indptr[d0] + CH, side="left"))
                d1 = min(max(d1, d0 + 1), n)
                s0, s1 = int(indptr[d0]), int(indptr[d1])
                shc = sh[s0:s1]
                st = indptr[d0:d1] - s0
                if len(shc) > len(tmp):
                    tmp = np.empty(len(shc), dtype=np.uint64)
                tc = tmp[: len(shc)]
                for p in range(self.num_perm):
                    np.multiply(shc, self.a[p], out=tc)
                    np.add(tc, self.b[p], out=tc)
                    sigs[d0:d1, p] = np.minimum.reduceat(tc, st)
                d0 = d1
        return sigs

    def signature(self, text: str) -> np.ndarray:
        """Single-doc signature (test/diagnostic convenience)."""
        return self.signatures(pa.array([text], type=pa.string()))[0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        n = len(batch)
        sigs = self.signatures(batch.column(self.content_col))
        # band rows: (band, band_hash, id, sig_bytes)
        band_ids = np.repeat(np.arange(self.bands, dtype=np.int32), n)
        doc_idx = np.tile(np.arange(n), self.bands)
        bh = np.empty(self.bands * n, dtype=np.int64)
        with np.errstate(over="ignore"):
            for bnd in range(self.bands):
                seg = sigs[:, bnd * self.rows_per_band : (bnd + 1) * self.rows_per_band]
                # mix the band rows into one 64-bit bucket key
                acc = np.zeros(n, dtype=np.uint64)
                for c in range(seg.shape[1]):
                    acc = acc * _FNV + seg[:, c]
                bh[bnd * n : (bnd + 1) * n] = acc.astype(np.int64)
        # zero-copy fixed-size-binary signature column (no per-row tobytes)
        sig_arr = pa.Array.from_buffers(
            pa.binary(self.num_perm * 8), n, [None, pa.py_buffer(np.ascontiguousarray(sigs).tobytes())]
        ).take(pa.array(doc_idx))
        return pa.table(
            {
                "band": band_ids,
                "band_hash": bh,
                self.id_col: pa.array(ids[doc_idx]),
                "sig": sig_arr,
            }
        )


NUM_SUPER_BUCKETS = 64


def add_super_bucket(t: pa.Table) -> pa.Table:
    """Coarse shuffle key over (band, band_hash): whole buckets land in one
    super-bucket, so the Ray groupby handles ~NUM_SUPER_BUCKETS groups and the
    per-bucket work runs as one vectorized pandas groupby per group (avoids
    Ray's per-group dispatch overhead on thousands of tiny LSH buckets)."""
    import pyarrow.compute as pc

    bh = t.column("band_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
    bd = t.column("band").to_numpy(zero_copy_only=False).astype(np.uint64)
    sb = ((bh * _FNV + bd) % np.uint64(NUM_SUPER_BUCKETS)).astype(np.int32)
    return t.append_column("sb", pa.array(sb))


def _grouped_run(sigs_ds, run_group_fn):
    """groupby super-bucket; each group handled whole by ``run_group_fn``
    (flat numpy across ALL of the group's buckets — no per-bucket pandas
    dispatch, the round-3 hot-path fix).  The repartition coalesces the one
    tiny block map_groups emits per group before downstream shuffles."""
    # 32 blocks into the shuffle -> up to 32 concurrent run_group tasks (the
    # old n=8 capped the verify stage at a quarter of the box)
    withsb = coalesce_small(sigs_ds.map_batches(add_super_bucket, batch_format="pyarrow"), 1.0)
    return withsb.groupby("sb").map_groups(run_group_fn, batch_format="pandas").repartition(shuffle_parts(0.125))


def _bucket_all_pairs(g: pd.DataFrame, id_col: str, max_bucket: int | None):
    """Whole-group bucket machinery shared by the MinHash/SimHash runners:
    segment (band, band_hash) buckets with one lexsort, drop duplicate ids
    in-bucket, cap at ``max_bucket`` (recording truncation), and enumerate
    all in-bucket row pairs vectorized.

    Returns ``(ro, ids, a, b, trunc)`` — ``ro`` indexes the kept rows back
    into ``g``'s row order, ``a``/``b`` index the kept-row arrays (a<b, so
    id_a < id_b), ``trunc`` flags pairs from capped buckets — or ``None``
    when no pairs exist."""
    band = g["band"].to_numpy().astype(np.int64, copy=False)
    bh = g["band_hash"].to_numpy().astype(np.int64, copy=False)
    ids = g[id_col].to_numpy()
    ro = np.lexsort((ids, bh, band))
    band, bh, ids = band[ro], bh[ro], ids[ro]
    nb = np.concatenate(([True], (bh[1:] != bh[:-1]) | (band[1:] != band[:-1])))
    bucket_id = np.cumsum(nb) - 1
    dup = np.concatenate(([False], (bucket_id[1:] == bucket_id[:-1]) & (ids[1:] == ids[:-1])))
    if dup.any():
        sel = ~dup
        ro, ids, bucket_id = ro[sel], ids[sel], bucket_id[sel]
        bucket_id = np.cumsum(np.concatenate(([True], bucket_id[1:] != bucket_id[:-1]))) - 1
    msize = np.bincount(bucket_id)
    truncated_bucket = (
        msize > max_bucket if max_bucket is not None else np.zeros(len(msize), dtype=bool)
    )
    rank = np.arange(len(bucket_id)) - _cumsum0(msize)[:-1][bucket_id]
    keepmask = msize[bucket_id] >= 2
    if max_bucket is not None:
        keepmask &= rank < max_bucket
    if int(keepmask.sum()) < 2:
        return None
    ro, ids = ro[keepmask], ids[keepmask]
    old_bid = bucket_id[keepmask]
    trunc_row = truncated_bucket[old_bid]
    bid = np.cumsum(np.concatenate(([True], old_bid[1:] != old_bid[:-1]))) - 1
    n = len(ro)
    bstart = np.flatnonzero(np.concatenate(([True], bid[1:] != bid[:-1])))
    bk = np.diff(np.append(bstart, n))
    codes = _enumerate_group_pairs(np.arange(n, dtype=np.int64), bstart, bk, n)
    if len(codes) == 0:
        return None
    a = codes // n
    b = codes % n
    return ro, ids, a, b, trunc_row[a]


def _minhash_group_pairs(g: pd.DataFrame, id_col: str, num_perm: int, max_bucket: int):
    """All in-bucket candidate pairs for one super-bucket group (emitted from
    every catching bucket and deduped downstream — see the simhash bucket
    note on why emit-once and the max_bucket cap don't mix).  One
    (pairs × num_perm) equality compare scores everything at once."""
    empty = pd.DataFrame(
        {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64"), "est_jaccard": pd.Series(dtype="float64"), "truncated": pd.Series(dtype="bool")}
    )
    if len(g) < 2:
        return empty
    r = _bucket_all_pairs(g, id_col, max_bucket)
    if r is None:
        return empty
    ro, ids, a, b, trunc = r
    sig_col = g["sig"].to_numpy()[ro]
    sigs = np.frombuffer(b"".join(sig_col), dtype=np.uint64).reshape(len(ro), num_perm)
    est = (sigs[a] == sigs[b]).mean(axis=1)
    return pd.DataFrame({"id_a": ids[a], "id_b": ids[b], "est_jaccard": est, "truncated": trunc})


def minhash_lsh_pairs(
    ds,
    content_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    threshold: float = 0.5,
    max_bucket: int = 64,
):
    """Near-duplicate candidate pairs with signature-estimated Jaccard ≥
    threshold.  Output: (id_a, id_b, est_jaccard) deduped across bands.

    The signature stage runs as tasks with the stage object built once per
    worker process (``util.map_stage``)."""
    sigs = map_stage(
        ds, MinHashSignatures,
        content_col=content_col, id_col=id_col, num_perm=num_perm, bands=bands, shingle_k=shingle_k,
    )

    def run_group(g: pd.DataFrame) -> pd.DataFrame:
        return _minhash_group_pairs(g, id_col, num_perm, max_bucket)

    pairs = _grouped_run(sigs, run_group)
    dedup = grouped_aggregate(pairs, ["id_a", "id_b"], {"est_jaccard": ("est_jaccard", "max")}, weight=0.5)

    def finish(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t.column("est_jaccard"), pa.scalar(threshold)))

    return dedup.map_batches(finish, batch_format="pyarrow").sort(["id_a", "id_b"])


def _cumsum0(a: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(a)))


def _enumerate_group_pairs(sd: np.ndarray, starts: np.ndarray, k: np.ndarray, m: int) -> np.ndarray:
    """Pair codes ``a*m + b`` (a<b) for ALL within-group element pairs.

    ``sd`` is the doc index per element (ascending inside each group — so
    a<b falls out for free), groups start at ``starts`` with sizes ``k``.
    Fully vectorized two-level repeat: lefts l=0..k-2 each pair with the
    k-1-l elements after them."""
    nleft = k - 1
    pos = nleft > 0
    oo, nleft = starts[pos], nleft[pos]
    if len(nleft) == 0:
        return np.empty(0, dtype=np.int64)
    L = int(nleft.sum())
    left_local = np.arange(L) - np.repeat(_cumsum0(nleft)[:-1], nleft)
    left_global = np.repeat(oo, nleft) + left_local
    rcount = np.repeat(nleft, nleft) - left_local
    T = int(rcount.sum())
    pl = np.repeat(left_global, rcount)
    pr = pl + 1 + (np.arange(T) - np.repeat(_cumsum0(rcount)[:-1], rcount))
    return sd[pl] * m + sd[pr]


def _pairs_from_groups(
    sd: np.ndarray, starts: np.ndarray, k: np.ndarray, m: int, chunk_pairs: int = 1 << 23
) -> tuple[np.ndarray, np.ndarray]:
    """Chunked within-group pair enumeration + count merge over pre-sorted
    group layout (``starts``/``k`` index into ``sd``)."""
    P = k * (k - 1) // 2
    total = int(P.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    cum = np.cumsum(P)
    parts_c, parts_n = [], []
    g0 = 0
    G = len(k)
    while g0 < G:
        base = int(cum[g0 - 1]) if g0 else 0
        g1 = int(np.searchsorted(cum, base + chunk_pairs, side="left")) + 1
        g1 = min(max(g1, g0 + 1), G)
        codes = _enumerate_group_pairs(sd, starts[g0:g1], k[g0:g1], m)
        c, n = np.unique(codes, return_counts=True)
        parts_c.append(c)
        parts_n.append(n.astype(np.int64))
        g0 = g1
    if len(parts_c) == 1:
        return parts_c[0], parts_n[0]
    allc = np.concatenate(parts_c)
    alln = np.concatenate(parts_n)
    uc, inv = np.unique(allc, return_inverse=True)
    return uc, np.bincount(inv, weights=alln).astype(np.int64)


def _shared_value_pair_codes(
    vals: np.ndarray, docs: np.ndarray, m: int, chunk_pairs: int = 1 << 23
) -> tuple[np.ndarray, np.ndarray]:
    """(pair codes ``a*m+b``, shared-value counts) over all doc pairs sharing
    at least one value.

    Output-sensitive replacement for per-pair intersections: cost is
    ``sum over distinct values of C(multiplicity, 2)`` — pairs are enumerated
    per value group (never per candidate pair), chunked to bound transient
    memory, and merged with ``np.unique``.  Requires values unique per doc
    (per-doc sorted-unique gram sets), so counts are exact |A∩B| restricted
    to the given values."""
    if len(vals) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = np.lexsort((docs, vals))
    sv = vals[order]
    sd = docs[order].astype(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1])))
    k = np.diff(np.append(starts, len(sv)))
    return _pairs_from_groups(sd, starts, k, m, chunk_pairs)


def _shared_pair_codes_grouped(
    bucket: np.ndarray, vals: np.ndarray, rows: np.ndarray, nr: int, chunk_pairs: int = 1 << 23
) -> tuple[np.ndarray, np.ndarray]:
    """(codes ``rowA*nr+rowB``, counts) over row pairs sharing a value WITHIN
    the same bucket — the many-buckets-at-once form of
    :func:`_shared_value_pair_codes` (one lexsort for the whole super-bucket
    group instead of per-bucket dispatch).  Rows must be unique per
    (bucket, value) group (one posting per doc per bucket, values unique per
    doc)."""
    if len(vals) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = np.lexsort((rows, vals, bucket))
    sv = vals[order]
    sr = rows[order].astype(np.int64)
    sb_ = bucket[order]
    newg = np.concatenate(([True], (sv[1:] != sv[:-1]) | (sb_[1:] != sb_[:-1])))
    starts = np.flatnonzero(newg)
    k = np.diff(np.append(starts, len(sv)))
    return _pairs_from_groups(sr, starts, k, nr, chunk_pairs)


class NgramPrefixPostings:
    """Stage: text batch -> prefix-filter postings (band, band_hash, id, grams).

    Exact set-similarity-join blocking (AllPairs/PPJoin prefix filter;
    distributed shape per Vernica et al., SIGMOD'10 — public literature):
    each doc's word-n-gram hash set is sorted (the hash IS the global
    ordering) and only its first ``|S| - ceil(t*|S|) + 1`` elements are
    posted as bucket keys.  Any pair with Jaccard ≥ t shares a posting key
    (guaranteed recall — unlike MinHash banding this blocking is lossless),
    and the posting carries the doc's full gram-hash set (a uint64 list
    column — the text column itself never enters the shuffle, closing TODO
    r1 #2) so exact Jaccard verifies inside the bucket.
    """

    def __init__(self, content_col: str, id_col: str, ngram: int, threshold: float):
        self.content_col = content_col
        self.id_col = id_col
        self.ngram = ngram
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.texthash import flat_utf8, ngram_hashes, token_hashes

        data, offs = flat_utf8(batch.column(self.content_col))
        th, tptr = token_hashes(data, offs)
        gh, gptr = ngram_hashes(th, tptr, self.ngram)
        sizes = np.diff(gptr)
        # prefix length |S| - ceil(t|S|) + 1 (epsilon guards the float ceil in
        # the SAFE direction: a slightly longer prefix never loses a pair)
        plen = sizes - np.ceil(self.threshold * sizes - 1e-12).astype(np.int64) + 1
        plen = np.clip(plen, np.minimum(sizes, 1), sizes)
        n = len(sizes)
        doc_idx = np.repeat(np.arange(n), plen)
        within = np.arange(plen.sum()) - np.repeat(np.concatenate(([0], np.cumsum(plen)))[:-1], plen)
        keys = gh[np.repeat(gptr[:-1], plen) + within]
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        # grams list column: each posting carries its doc's full sorted set
        gram_offsets = np.concatenate(([0], np.cumsum(sizes[doc_idx])))
        gram_values = gh[
            np.repeat(gptr[:-1][doc_idx], sizes[doc_idx])
            + (np.arange(gram_offsets[-1]) - np.repeat(gram_offsets[:-1], sizes[doc_idx]))
        ]
        grams_arr = pa.LargeListArray.from_arrays(
            pa.array(gram_offsets, type=pa.int64()), pa.array(gram_values.astype(np.int64))
        )
        return pa.table(
            {
                "band": pa.array(np.zeros(len(keys), dtype=np.int32)),
                "band_hash": pa.array(keys.astype(np.int64)),
                self.id_col: pa.array(ids[doc_idx]),
                "grams": grams_arr,
            }
        )


def ngram_jaccard_pairs(
    ds,
    content_col: str = "text",
    id_col: str = "doc_id",
    ngram: int = 3,
    threshold: float = 0.5,
    max_bucket: int | None = None,
):
    """**Exact** word-n-gram Jaccard self-join: ALL pairs with Jaccard ≥
    threshold (prefix-filter blocking guarantees recall; SQL-oracle-matched).

    Gram identity is by 64-bit gram hash (collision probability negligible);
    the Jaccard value is the exact integer ratio |A∩B| / |A∪B| — bit-identical
    to the SQL oracle's DOUBLE division.  ``max_bucket=None`` (default) keeps
    the join lossless; set a cap only as a documented hot-key escape hatch.

    Shuffle-volume note: each posting carries its doc's gram-hash array, an
    ≈prefix-length× amplification of gram bytes through the bucket shuffle
    (hashes only — text never moves).  The alternative indexed-kernel plan
    (narrow (key,id) postings + candidate dedup + Dataset.join against
    one profile row per doc, per Vernica et al. SIGMOD'10) was implemented
    and measured in round 2: Ray 2.49's hash-join fixed costs made it 2.5x
    SLOWER at every scale testable here (12s vs 4.7s at sf0.1), so the
    posting-carry plan is kept; at corpus scales where the amplification
    bytes dominate join setup, switch to the join plan (see git history).
    """
    postings = map_stage(
        ds, NgramPrefixPostings, content_col=content_col, id_col=id_col, ngram=ngram, threshold=threshold
    )

    # emit-once is only safe with UNCAPPED buckets: under a max_bucket cap a
    # pair's owning (min-shared-key) bucket may have truncated one member
    # while another bucket still catches it — with a cap we emit from every
    # bucket and dedupe with a shuffle instead
    emit_once = max_bucket is None

    def run_group(g: pd.DataFrame) -> pd.DataFrame:
        return _ngram_group_pairs(g, id_col, threshold, max_bucket, emit_once)

    pairs = _grouped_run(postings, run_group)
    if emit_once:
        return pairs.sort(["id_a", "id_b"])
    return grouped_aggregate(
        pairs, ["id_a", "id_b"], {"jaccard": ("jaccard", "max")}, weight=0.5
    ).sort(["id_a", "id_b"])


def _ngram_group_pairs(
    g: pd.DataFrame, id_col: str, threshold: float, max_bucket: int | None, emit_once: bool
) -> pd.DataFrame:
    """Exact Jaccard pairs for ONE super-bucket group — all of its LSH
    buckets verified at once in flat numpy (round-3, VERDICT r2 #1).

    Two design points vs the former per-bucket loop:

    - **No per-bucket dispatch.** The whole group is segmented by one
      lexsort; shared-gram counts for every candidate pair in every bucket
      come from one gram-grouped pair enumeration
      (:func:`_shared_pair_codes_grouped`).  At sf0.1 this removed ~15k
      per-bucket pandas sort/dedup/DataFrame round-trips.
    - **Output-sensitive in the hot-key case.** Each bucket's own KEY gram is
      excluded from counting — every pair in the bucket shares it by
      construction, so a boilerplate 3-gram shared by 10^5 docs costs
      nothing; only ADDITIONAL shared grams (≈ the true overlap graph) are
      enumerated.  This strictly dominates per-candidate positional
      filtering, whose cost is the C(m,2) candidate count itself.
    """
    empty = pd.DataFrame(
        {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64"), "jaccard": pd.Series(dtype="float64")}
    )
    nrow = len(g)
    if nrow < 2:
        return empty
    bh = g["band_hash"].to_numpy().astype(np.int64, copy=False)
    ids = g[id_col].to_numpy()
    grams_col = g["grams"].to_numpy()
    # rows ordered by (bucket, id): buckets become segments, ids ascend
    # within each (so pair code a<b implies id_a < id_b)
    ro = np.lexsort((ids, bh))
    bh, ids, grams_col = bh[ro], ids[ro], grams_col[ro]
    nb = np.concatenate(([True], bh[1:] != bh[:-1]))
    bucket_id = np.cumsum(nb) - 1
    msize = np.bincount(bucket_id)
    keepmask = msize[bucket_id] >= 2  # singleton buckets produce no pairs
    if max_bucket is not None:
        rank = np.arange(nrow) - _cumsum0(msize)[:-1][bucket_id]
        keepmask &= rank < max_bucket
    if int(keepmask.sum()) < 2:
        return empty
    if not keepmask.all():
        bh, ids, grams_col = bh[keepmask], ids[keepmask], grams_col[keepmask]
        bucket_id = np.cumsum(np.concatenate(([True], bh[1:] != bh[:-1]))) - 1
        nrow = len(bh)
    else:
        nrow = len(bh)
    gram_list = [np.asarray(v, dtype=np.int64) for v in grams_col]
    sizes = np.fromiter((len(a) for a in gram_list), dtype=np.int64, count=nrow)
    vals = np.concatenate(gram_list)
    row_of = np.repeat(np.arange(nrow), sizes)
    elem_key = bh[row_of]
    elem_bucket = bucket_id[row_of]
    # shared-gram counts per in-bucket row pair, bucket key excluded
    nk = vals != elem_key
    codes, cnt = _shared_pair_codes_grouped(elem_bucket[nk], vals[nk], row_of[nk], nrow)
    inter = cnt + 1  # + the key gram every in-bucket pair shares
    # pairs whose ONLY shared gram is the key never enter `codes`; they can
    # still pass (jac = 1/(sa+sb-1) ≥ t) only between tiny docs
    max_tiny = int(np.floor(1.0 / threshold + 1e-9))
    tiny = sizes <= max_tiny
    if int(tiny.sum()) >= 2:
        trows = np.flatnonzero(tiny)
        tb = bucket_id[trows]
        tstart = np.flatnonzero(np.concatenate(([True], tb[1:] != tb[:-1])))
        tk = np.diff(np.append(tstart, len(tb)))
        tcodes = _enumerate_group_pairs(trows, tstart, tk, nrow)
        tcodes = tcodes[~np.isin(tcodes, codes)]
        if len(tcodes):
            codes = np.concatenate([codes, tcodes])
            inter = np.concatenate([inter, np.ones(len(tcodes), dtype=np.int64)])
    if len(codes) == 0:
        return empty
    a = codes // nrow
    b = codes % nrow
    union = sizes[a] + sizes[b] - inter
    jac = inter / union
    keep = (jac >= threshold) & (ids[a] != ids[b])  # guard duplicate input ids
    if emit_once and keep.any():
        # ownership: disown any pair sharing a prefix element < its bucket's
        # key (the smaller-keyed bucket owns it).  Per-doc gram arrays are
        # sorted, so the prefix is the first plen elements — the exact
        # postings-stage formula.
        plen = np.clip(
            sizes - np.ceil(threshold * sizes - 1e-12).astype(np.int64) + 1,
            np.minimum(sizes, 1),
            sizes,
        )
        within = np.arange(len(vals)) - np.repeat(_cumsum0(sizes)[:-1], sizes)
        pm = (within < plen[row_of]) & (vals < elem_key)
        dcodes, _ = _shared_pair_codes_grouped(elem_bucket[pm], vals[pm], row_of[pm], nrow)
        if len(dcodes):
            keep &= ~np.isin(codes, dcodes)
    if not keep.any():
        return empty
    return pd.DataFrame({"id_a": ids[a[keep]], "id_b": ids[b[keep]], "jaccard": jac[keep]})


def _cc_star_round(edges, large: bool, num_partitions: int | None = None):
    """One large-star (or small-star) round of the Kiveris et al. (SoCC'14)
    distributed connected-components algorithm over an edge Dataset with
    columns (u, v), u > v canonical.  Returns the new unique edge Dataset.

    Shape: symmetrize inside map_batches, hash-partition by the center node
    so each reduce task sees complete neighborhoods, then one vectorized
    pandas pass per partition (no per-node dispatch)."""
    if num_partitions is None:
        num_partitions = shuffle_parts(1.0)

    def sym(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy(zero_copy_only=False)
        v = t.column("v").to_numpy(zero_copy_only=False)
        un = np.concatenate([u, v])
        vn = np.concatenate([v, u])
        pk = (un.astype(np.uint64) * _FNV % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({"u": un, "v": vn, "_pk": pk})

    def reduce(g: pd.DataFrame) -> pd.DataFrame:
        u = g["u"].to_numpy()
        v = g["v"].to_numpy()
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        newu = np.concatenate(([True], u[1:] != u[:-1]))
        gid = np.cumsum(newu) - 1
        # min neighbor per center node = first v in (u, v) sort order
        minv = v[np.flatnonzero(newu)]
        centers = u[np.flatnonzero(newu)]
        mstar = np.minimum(minv, centers)[gid]
        if large:
            mask = v > u
            out_u, out_v = v[mask], mstar[mask]
        else:
            mask = (v <= u) & (v != mstar)
            out_u, out_v = v[mask], mstar[mask]
            cu = centers
            cm = np.minimum(minv, centers)
            extra = cu != cm
            out_u = np.concatenate([out_u, cu[extra]])
            out_v = np.concatenate([out_v, cm[extra]])
        keep = out_u != out_v
        return pd.DataFrame({"u": out_u[keep], "v": out_v[keep]}).drop_duplicates()

    stars = (
        edges.map_batches(sym, batch_format="pyarrow")
        .groupby("_pk")
        .map_groups(reduce, batch_format="pandas")
    )
    # global unique (the same edge can be emitted from several neighborhoods)
    return grouped_aggregate(
        coalesce_small(stars, 0.125), ["u", "v"], {"n": ("u", "count")}, weight=0.25
    ).map_batches(lambda t: t.select(["u", "v"]), batch_format="pyarrow")


def _edge_signature(edges) -> tuple[int, int]:
    """(count, order-independent hash) of an edge Dataset — streamed on the
    driver in O(1) memory, used as the star-round convergence test."""
    from ..stages.texthash import mix64

    n = 0
    h = np.uint64(0)
    with np.errstate(over="ignore"):
        for b in edges.iter_batches(batch_format="pyarrow", batch_size=None):
            u = b.column("u").to_numpy(zero_copy_only=False).astype(np.uint64)
            v = b.column("v").to_numpy(zero_copy_only=False).astype(np.uint64)
            h += mix64(u * _FNV + v).sum(dtype=np.uint64)
            n += len(b)
    return n, int(h)


def _cc_large_small_star(pairs, id_col: str, max_rounds: int = 32, checkpoint_dir: str | None = None):
    """Distributed CC: alternate large/small-star rounds until the edge set
    is stable; at convergence every node holds one edge to its component's
    minimum id.  Converges in O(log²) rounds; near-dup graphs (dense
    clique-ish clusters) typically stabilize in 2-3.

    ``checkpoint_dir`` (cluster-visible storage at scale): persist each
    round's edge set as parquet and re-read it, instead of pinning it in the
    object store with ``materialize()``.  Only the latest round is kept on
    disk, so the object-store footprint per round is one streaming pass —
    for dup graphs whose edge set exceeds cluster object store + spill."""
    import ray.data

    def persist(e, rnd: int):
        if checkpoint_dir is None:
            return e.materialize()
        # all checkpoint I/O goes through pyarrow.fs so remote checkpoint
        # dirs (s3://, hdfs://) work — driver-local shutil would only clean
        # the driver's disk
        from pyarrow import fs as pafs

        filesystem, root = pafs.FileSystem.from_uri(checkpoint_dir)
        root = root.rstrip("/")
        path = f"{root}/round={rnd}"
        # a pre-existing round dir (rerun with the same checkpoint_dir)
        # leaves stale uniquely-named fragments that read_parquet would
        # merge with the fresh edges — delete it before writing
        if filesystem.get_file_info(path).type != pafs.FileType.NotFound:
            filesystem.delete_dir(path)
        e.write_parquet(path, filesystem=filesystem)
        prev_path = f"{root}/round={rnd - 1}"
        if rnd > 0 and filesystem.get_file_info(prev_path).type != pafs.FileType.NotFound:
            filesystem.delete_dir(prev_path)
        return ray.data.read_parquet(path, filesystem=filesystem)

    # round 0 (the input pair stream) stays a materialize: it also feeds the
    # empty-graph check, and an empty dataset round-trips poorly via parquet
    edges = pairs.map_batches(
        lambda t: pa.table({"u": t.column("id_b"), "v": t.column("id_a")}),
        batch_format="pyarrow",
    ).materialize()
    if edges.count() == 0:
        return ray.data.from_arrow(
            pa.table({id_col: pa.array([], type=pa.int64()), "rep_id": pa.array([], type=pa.int64())})
        )
    prev = None
    for rnd in range(max_rounds):
        edges = _cc_star_round(edges, large=True)
        edges = persist(_cc_star_round(edges, large=False), rnd + 1)
        sig = _edge_signature(edges)
        if sig == prev:
            break
        prev = sig
    else:  # pragma: no cover - defensive
        raise RuntimeError("star rounds did not converge")

    def finish(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy(zero_copy_only=False)
        v = t.column("v").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: pa.array(np.concatenate([u, v]).astype(np.int64)),
                "rep_id": pa.array(np.concatenate([v, v]).astype(np.int64)),
            }
        )

    # star edges (node, rep) plus (rep, rep) rows; reps appear once per
    # member, so dedupe with a grouped aggregate before the final sort
    out = edges.map_batches(finish, batch_format="pyarrow")
    return grouped_aggregate(
        coalesce_small(out, 0.125), id_col, {"rep_id": ("rep_id", "min")}, weight=0.25
    ).sort(id_col)


def neardup_clusters(
    ds,
    content_col: str = "text",
    id_col: str = "doc_id",
    ngram: int = 3,
    threshold: float = 0.5,
    distributed: bool = False,
    checkpoint_dir: str | None = None,
):
    """Near-duplicate clusters: connected components over the EXACT n-gram
    Jaccard pair graph, with the minimum doc id as each cluster's
    representative — the keep-list decision step of a dedup pipeline
    (keep ``rep_id``, drop the rest).

    Output: ``(doc_id, rep_id)`` for every doc that has at least one
    near-duplicate, sorted by doc_id.  SQL-oracle-matched (recursive-CTE
    transitive closure over the same pair graph).

    Scale note: the default reduces the pair stream on the driver with a
    path-compressed union-find — O(#docs-with-a-near-dup) memory, the same
    class as the keep-list itself (at web scale dup-graph nodes are a small
    fraction of the corpus).  ``distributed=True`` switches to the
    large-star/small-star iterative CC (Kiveris et al., SoCC'14) over the
    pair Dataset — no driver-side graph at all — for corpora where even the
    dup graph exceeds driver memory.  With ``checkpoint_dir`` set, each star
    round checkpoints its edge set to parquet instead of the object store
    (resumable storage footprint for dup graphs beyond cluster disk spill)."""
    pairs = ngram_jaccard_pairs(
        ds, content_col=content_col, id_col=id_col, ngram=ngram, threshold=threshold
    )
    if distributed:
        return _cc_large_small_star(pairs, id_col, checkpoint_dir=checkpoint_dir)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    seen: set[int] = set()
    for b in pairs.iter_batches(batch_format="pyarrow", batch_size=None):
        ua = b.column("id_a").to_numpy(zero_copy_only=False)
        ub = b.column("id_b").to_numpy(zero_copy_only=False)
        for a_, b_ in zip(ua.tolist(), ub.tolist()):
            seen.add(a_)
            seen.add(b_)
            ra, rb = find(a_), find(b_)
            if ra != rb:
                if rb < ra:
                    ra, rb = rb, ra
                # union by min id: the root of every tree is its component's
                # minimum, so the final find() IS the representative
                parent[rb] = ra

    import ray.data

    nodes = np.array(sorted(seen), dtype=np.int64)
    reps = np.array([find(int(n)) for n in nodes], dtype=np.int64)
    return ray.data.from_arrow(pa.table({id_col: nodes, "rep_id": reps}))


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


class SimHashStage:
    """64-bit SimHash of token hashes + 4×16-bit band blocking rows.

    Vectorized (round-2): token hashes for the whole batch come from one
    prefix-hash pass over the flat UTF-8 buffer; per-doc ±1 bit sums are 64
    ``np.add.reduceat`` segments over the token-aligned bit matrix — no
    per-doc or per-token Python loop."""

    def __init__(self, content_col: str = "text", id_col: str = "doc_id"):
        self.content_col = content_col
        self.id_col = id_col
        self.bits = np.arange(64, dtype=np.uint64)

    def simhashes(self, col) -> np.ndarray:
        """(n_docs,) uint64 SimHash values, vectorized over the batch."""
        from ..stages.texthash import flat_utf8, mix64, token_hashes

        data, offs = flat_utf8(col)
        th, indptr = token_hashes(data, offs)
        n = len(offs) - 1
        if len(th) == 0:
            return np.zeros(n, dtype=np.uint64)
        # SimHash votes on individual bits — finalize to full avalanche
        th = mix64(th)
        ntok = np.diff(indptr)
        # reduceat over NON-EMPTY doc starts only: the old clamped starts
        # truncated the preceding doc's segment when a batch ended with
        # zero-token docs (signatures depended on batch placement — ADVICE
        # r2).  Non-empty starts are strictly increasing and < len(th), and
        # each segment correctly extends to the next non-empty start.
        #
        # Per-bit-plane loop with ONE reused temp instead of a (tokens × 64)
        # int64 bit matrix — the matrix was ~0.5 KB per token (1 GB for a
        # 50k-doc batch), and its allocation dominated at 500k-doc scale
        # (round-3 smoke: 140 s -> seconds).
        ne = ntok > 0
        ones = np.zeros((len(ntok), 64), dtype=np.int64)
        if ne.any():
            starts = indptr[:-1][ne]
            # byte-sliced bit planes: each plane is a uint8 pass (8x less
            # memory traffic than uint64 planes; this stage is bandwidth-
            # bound).  reduceat accumulates in int64 via dtype=, so long
            # token segments cannot overflow the uint8 plane.
            tb = th.view(np.uint8).reshape(-1, 8)  # little-endian bytes
            tmp = np.empty(len(th), dtype=np.uint8)
            for j in range(8):
                colj = np.ascontiguousarray(tb[:, j])
                for k in range(8):
                    np.right_shift(colj, k, out=tmp)
                    np.bitwise_and(tmp, 1, out=tmp)
                    ones[ne, 8 * j + k] = np.add.reduceat(tmp, starts, dtype=np.int64)
        v = 2 * ones - ntok[:, None]
        sig = ((v > 0).astype(np.uint64) << self.bits[None, :]).sum(axis=1, dtype=np.uint64)
        sig[ntok == 0] = np.uint64(0)
        return sig

    def simhash(self, text: str) -> np.uint64:
        """Single-doc SimHash (test/diagnostic convenience)."""
        return self.simhashes(pa.array([text], type=pa.string()))[0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        sig = self.simhashes(batch.column(self.content_col))
        n = len(batch)
        band = np.repeat(np.arange(4, dtype=np.int32), n)
        doc_idx = np.tile(np.arange(n), 4)
        bh = np.empty(4 * n, dtype=np.int64)
        for bnd in range(4):
            bh[bnd * n : (bnd + 1) * n] = ((sig >> np.uint64(16 * bnd)) & np.uint64(0xFFFF)).astype(np.int64)
        return pa.table(
            {
                "band": band,
                "band_hash": bh,
                self.id_col: pa.array(ids[doc_idx]),
                "sig": pa.array(sig[doc_idx].astype(np.int64)),
            }
        )


def simhash_pairs(
    ds,
    content_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    max_bucket: int = 64,
):
    """Near-dup pairs with SimHash Hamming distance ≤ max_hamming.

    Band blocking guarantees recall for Hamming ≤ 3 over 4 bands (pigeonhole:
    any pair within distance 3 agrees exactly on at least one 16-bit band).
    """
    sigs = map_stage(ds, SimHashStage, content_col=content_col, id_col=id_col)

    def run_group(g: pd.DataFrame) -> pd.DataFrame:
        # NOTE: pairs are emitted from EVERY bucket that catches them and
        # deduped by a shuffle below.  An emit-once rule (min agreeing band
        # owns the pair) was tried in round 2 but interacts badly with the
        # max_bucket cap: a pair whose owning bucket truncated one member is
        # lost even when another band's bucket caught it (measured: 338 ->
        # 276 of 349 true pairs at sf0.1).  Emit-once is only safe uncapped,
        # which the exact ngram join uses.
        empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64"), "hamming": pd.Series(dtype="int64")})
        if len(g) < 2:
            return empty
        r = _bucket_all_pairs(g, id_col, max_bucket)
        if r is None:
            return empty
        ro, ids, a, b, _trunc = r
        sig = g["sig"].to_numpy()[ro].astype(np.int64).astype(np.uint64)
        # all-pairs XOR + byte-table popcount (vectorized across all buckets)
        x = sig[a] ^ sig[b]
        ham = _POP8[x.view(np.uint8).reshape(-1, 8)].sum(axis=1).astype(np.int64)
        keep = ham <= max_hamming
        if not keep.any():
            return empty
        return pd.DataFrame({"id_a": ids[a[keep]], "id_b": ids[b[keep]], "hamming": ham[keep]})

    pairs = _grouped_run(sigs, run_group)
    return grouped_aggregate(
        pairs, ["id_a", "id_b"], {"hamming": ("hamming", "min")}, weight=0.5
    ).sort(["id_a", "id_b"])


def contamination_check(
    ds,
    benchmark_grams: np.ndarray,
    content_col: str = "text",
    id_col: str = "doc_id",
    ngram: int = 3,
    min_overlap: int = 1,
):
    """Benchmark decontamination: per doc, the count of word-n-grams shared
    with a (broadcast) benchmark gram-hash set; rows with ``n_overlap ≥
    min_overlap`` are the contamination candidates to drop before training.

    Broadcast-small-side pattern: the benchmark set ships once via
    ``ray.put`` and each batch runs one vectorized sorted-membership test —
    no shuffle at all.  Output: ``(id, n_overlap)`` for flagged docs, sorted.
    """
    bench = np.sort(np.asarray(benchmark_grams, dtype=np.uint64))
    ref = ray.put(bench) if ray.is_initialized() else bench

    def f(batch: pa.Table) -> pa.Table:
        bg = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        counts = _overlap_counts(batch.column(content_col), bg, ngram)
        keep = counts >= min_overlap
        return pa.table(
            {
                id_col: batch.column(id_col).filter(pa.array(keep)),
                "n_overlap": pa.array(counts[keep].astype(np.int64)),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow").sort(id_col)


def _overlap_counts(col, bench_sorted: np.ndarray, ngram: int) -> np.ndarray:
    """Per-doc count of word-n-grams present in the sorted benchmark set.

    cumsum differencing (empty gram segments count 0 naturally); the old
    clamped reduceat undercounted the doc before a trailing zero-gram doc
    (ADVICE r2)."""
    from ..stages.texthash import flat_utf8, ngram_hashes, token_hashes

    data, offs = flat_utf8(col)
    th, tptr = token_hashes(data, offs)
    gh, gptr = ngram_hashes(th, tptr, ngram)
    if len(bench_sorted) and len(gh):
        pos = np.clip(np.searchsorted(bench_sorted, gh), 0, len(bench_sorted) - 1)
        hit = (bench_sorted[pos] == gh).astype(np.int64)
    else:
        hit = np.zeros(len(gh), dtype=np.int64)
    cs = np.concatenate(([0], np.cumsum(hit)))
    return cs[gptr[1:]] - cs[gptr[:-1]]


def decontaminate(
    ds,
    benchmark_grams: np.ndarray,
    content_col: str = "text",
    id_col: str = "doc_id",
    ngram: int = 3,
    min_overlap: int = 1,
):
    """The filtering twin of :func:`contamination_check`: returns the rows
    (all columns) that are NOT contamination candidates — the stage a
    curation pipeline actually chains."""
    bench = np.sort(np.asarray(benchmark_grams, dtype=np.uint64))
    ref = ray.put(bench) if ray.is_initialized() else bench

    def f(batch: pa.Table) -> pa.Table:
        bg = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        counts = _overlap_counts(batch.column(content_col), bg, ngram)
        return batch.filter(pa.array(counts < min_overlap))

    return ds.map_batches(f, batch_format="pyarrow")


def benchmark_grams_of(ds, content_col: str = "text", id_col: str = "doc_id", ids=(), ngram: int = 3) -> np.ndarray:
    """Gram-hash set of the given benchmark doc ids (driver-side, small)."""
    import pyarrow.compute as _pc

    tbl = ds.map_batches(
        lambda b: b.filter(_pc.is_in(b.column(id_col), value_set=pa.array(list(ids)))),
        batch_format="pyarrow",
    ).to_pandas()
    from ..stages.texthash import flat_utf8, ngram_hashes, token_hashes

    col = pa.array(tbl[content_col].tolist(), type=pa.string())
    data, offs = flat_utf8(col)
    th, tptr = token_hashes(data, offs)
    gh, _ = ngram_hashes(th, tptr, ngram)
    return np.unique(gh)


# ---------------------------------------------------------------------------
# Exact substring-span duplicates (winnowing fingerprints)
# ---------------------------------------------------------------------------


def _winnow_select(hm: np.ndarray, indptr: np.ndarray, w: int) -> np.ndarray:
    """Winnowing selection (Schleimer et al., SIGMOD'03): boolean mask over
    the flat per-doc k-gram hash array marking, for every window of ``w``
    consecutive k-grams, the (first) minimum — the fingerprint set whose
    guarantee is that any shared substring of length ≥ w + k - 1 shares a
    selected fingerprint.  Selection is a pure function of window CONTENT
    (first-argmin tie rule over content hashes), so two docs sharing a
    region select the same k-gram at the same relative offset.

    Vectorized across doc boundaries: one sliding-window argmin over the
    flat array, then windows crossing a boundary are dropped; docs with
    fewer than ``w`` k-grams contribute their single overall argmin."""
    n = len(hm)
    sel = np.zeros(n, dtype=bool)
    if n == 0:
        return sel
    nw = np.diff(indptr)
    if n >= w:
        sw = np.lib.stride_tricks.sliding_window_view(hm, w)
        amin = sw.argmin(axis=1).astype(np.int64)
        starts = np.arange(n - w + 1, dtype=np.int64)
        doc_of = np.searchsorted(indptr, starts, side="right") - 1
        valid = starts + w <= indptr[doc_of + 1]
        sel[(starts + amin)[valid]] = True
    shortd = np.flatnonzero((nw > 0) & (nw < w))
    if len(shortd):
        cnt = nw[shortd]
        local = np.arange(int(cnt.sum())) - np.repeat(_cumsum0(cnt)[:-1], cnt)
        segidx = np.repeat(indptr[shortd], cnt) + local
        vals = hm[segidx]
        minv = np.minimum.reduceat(vals, _cumsum0(cnt)[:-1])
        docrep = np.repeat(np.arange(len(shortd)), cnt)
        tpos = np.flatnonzero(vals == minv[docrep])
        first = tpos[np.unique(docrep[tpos], return_index=True)[1]]
        sel[segidx[first]] = True
    return sel


def winnow_fingerprints(ds, min_len: int, k: int, content_col: str = "text", id_col: str = "doc_id"):
    """(doc, text) -> (band, band_hash, doc_id, pos) winnowed fingerprint
    rows — 16 bytes of payload per selected k-gram (~2/(w+1) per char), the
    only thing the candidate shuffle ever carries (text joins back later).
    Docs shorter than ``min_len`` cannot hold a qualifying span and are
    dropped at the source."""
    w = min_len - k + 1
    if w < 1:
        raise ValueError("min_len must be >= k")

    def f(b: pa.Table) -> pa.Table:
        from ..stages.texthash import flat_utf8, mix64, window_hashes

        data, offs = flat_utf8(b.column(content_col))
        lens = np.diff(offs)
        keep = np.flatnonzero(lens >= min_len)
        empty = pa.table(
            {
                "band": pa.array([], type=pa.int32()),
                "band_hash": pa.array([], type=pa.int64()),
                id_col: pa.array([], type=pa.int64()),
                "pos": pa.array([], type=pa.int64()),
            }
        )
        if not len(keep):
            return empty
        if len(keep) < len(lens):
            col = b.column(content_col).take(pa.array(keep))
            data, offs = flat_utf8(col)
        h, indptr = window_hashes(data, offs, k)
        hm = mix64(h)
        sel = np.flatnonzero(_winnow_select(hm, indptr, w))
        if not len(sel):
            return empty
        doc_of = np.searchsorted(indptr, sel, side="right") - 1
        pos = sel - indptr[doc_of]
        ids = b.column(id_col).to_numpy(zero_copy_only=False)[keep][doc_of]
        return pa.table(
            {
                "band": pa.array(np.zeros(len(sel), dtype=np.int32)),
                "band_hash": pa.array(hm[sel].view(np.int64)),
                id_col: pa.array(ids.astype(np.int64)),
                "pos": pa.array(pos.astype(np.int64)),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def _estimate_hot_fps(fps, threshold: int, topk: int = 64) -> dict[int, int]:
    """Driver-side estimate of fingerprint-bucket sizes: each block emits its
    top-``topk`` band_hash counts (≤ blocks×topk tiny rows), the driver sums.
    Truncation only UNDER-estimates scattered mid-frequency grams — a missed
    hot bucket falls back to the exact single-task path, so detection errors
    cost balance, never correctness.  Returns {band_hash: est_count} for
    buckets whose estimate exceeds ``threshold``."""

    def partial(b: pa.Table) -> pa.Table:
        bh = b.column("band_hash").to_numpy(zero_copy_only=False)
        u, c = np.unique(bh, return_counts=True)
        if len(u) > topk:
            keep = np.argpartition(c, -topk)[-topk:]
            u, c = u[keep], c[keep]
        return pa.table({"band_hash": pa.array(u), "n": pa.array(c.astype(np.int64))})

    parts = fps.map_batches(partial, batch_format="pyarrow", batch_size=None).to_pandas()
    if not len(parts):
        return {}
    tot = parts.groupby("band_hash")["n"].sum()
    hot = tot[tot > threshold]
    return {int(h): int(n) for h, n in hot.items()}


# sb namespace for tiled hot-bucket tasks sits above the normal super-buckets
_HOT_SB_SPACE = 1 << 20


def substring_dup_pairs(
    ds,
    min_len: int = 30,
    k: int = 20,
    content_col: str = "text",
    id_col: str = "doc_id",
    max_bucket: int | None = None,
    num_partitions: int | None = None,
    tile_hot: int | None = 2048,
):
    """EXACT pairs of docs sharing ≥ ``min_len`` consecutive characters —
    the substring-level dedup signal of Lee et al. (ACL'22, "Deduplicating
    Training Data Makes Language Models Better"), built from public
    winnowing fingerprints instead of a distributed suffix array.

    Guarantees (and the SQL oracle checks) EXACTLY the predicate "docs a, b
    share a common substring of length ≥ min_len":

    - no false negatives: winnowing with window w = min_len - k + 1
      guarantees any shared span of length ≥ w + k - 1 = min_len shares a
      selected fingerprint at the same relative offset in both docs;
    - no false positives: every candidate alignment is verified by EXACT
      byte comparison (the anchor k-gram itself is re-compared, so even a
      2^-64 hash collision cannot leak a wrong pair).

    Plan: fingerprint rows (16 B each, ~2/(w+1) per char) → fp-bucket
    candidate (doc, pos) pairs → per-candidate-POSITION snippets (the
    ±min_len context around each anchor, ~80 B) joined back via partitioned
    :func:`~rasterflow.pipelines.relational.hash_join` passes — the
    pair-sized shuffles carry snippets, never whole documents (snippets are
    NOT shipped with every fingerprint either, which would cost ~12× the
    text volume; they're extracted only for the distinct (doc, pos)
    anchors that survive candidate generation) → one vectorized
    anchored-extension byte compare per batch → distinct (id_a, id_b).

    Hot buckets (``tile_hot``, default 2048): a boilerplate k-gram shared by
    m ≫ tile docs would make ONE partition task enumerate C(m,2) pairs.
    With ``max_bucket=None`` the plan first estimates bucket sizes (one
    extra pass over the fingerprint stream — per-block top-64 count
    partials, a few KB to the driver) and REPLICATES each hot bucket's rows
    into ceil(m/tile) × (ceil(m/tile)+1)/2 independent (i, j) tile-pair
    tasks: every pair is still enumerated exactly once, but no task ever
    materializes more than ~tile² candidate codes.  Exactness is
    preserved — tiling only re-partitions the enumeration.  Detection is
    approximate (per-block top-k): a missed hot bucket degrades to the
    single-task path, never to a wrong answer.

    ``max_bucket`` caps fingerprint buckets instead (forfeits the
    no-false-negative guarantee) and disables tiling; ``None`` (default)
    is exact.  Byte-level spans equal character-level spans for ASCII
    corpora (multi-byte UTF-8 spans are measured in bytes)."""
    from .relational import hash_join
    from ..util import grouped_aggregate

    fps = winnow_fingerprints(ds, min_len, k, content_col, id_col)

    def pair_group(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "id_a": pd.Series(dtype="int64"),
                "pos_a": pd.Series(dtype="int64"),
                "id_b": pd.Series(dtype="int64"),
                "pos_b": pd.Series(dtype="int64"),
            }
        )
        if len(g) < 2:
            return empty
        bh = g["band_hash"].to_numpy()
        ids = g[id_col].to_numpy()
        pos = g["pos"].to_numpy()
        ro = np.lexsort((pos, ids, bh))
        bh, ids, pos = bh[ro], ids[ro], pos[ro]
        nb = np.concatenate(([True], bh[1:] != bh[:-1]))
        bucket_id = np.cumsum(nb) - 1
        msize = np.bincount(bucket_id)
        if max_bucket is not None:
            rank = np.arange(len(bucket_id)) - _cumsum0(msize)[:-1][bucket_id]
            keepm = rank < max_bucket
            bh, ids, pos, bucket_id = bh[keepm], ids[keepm], pos[keepm], bucket_id[keepm]
            nb = np.concatenate(([True], bucket_id[1:] != bucket_id[:-1]))
            bucket_id = np.cumsum(nb) - 1
            msize = np.bincount(bucket_id)
        n = len(bh)
        bstart = _cumsum0(msize)[:-1]
        codes = _enumerate_group_pairs(np.arange(n, dtype=np.int64), bstart, msize, n)
        if len(codes) == 0:
            return empty
        a = codes // n
        b = codes % n
        cross = ids[a] != ids[b]
        a, b = a[cross], b[cross]
        if not len(a):
            return empty
        return pd.DataFrame(
            {"id_a": ids[a], "pos_a": pos[a], "id_b": ids[b], "pos_b": pos[b]}
        )

    hot: dict[int, int] = {}
    if max_bucket is None and tile_hot is not None:
        # extra pass over the fingerprint stream (re-executes winnowing —
        # CPU for bounded memory; the partials themselves are tiny)
        hot = _estimate_hot_fps(fps, threshold=tile_hot)

    if hot:
        from ..stages.texthash import mix64

        hfp = np.sort(np.fromiter(hot.keys(), dtype=np.int64, count=len(hot)))
        tiles = np.array(
            [max(2, -(-hot[int(h)] // tile_hot)) for h in hfp], dtype=np.int64
        )

        def route(b: pa.Table) -> pa.Table:
            bh = b.column("band_hash").to_numpy(zero_copy_only=False).astype(np.int64)
            band = b.column("band").to_numpy(zero_copy_only=False).astype(np.uint64)
            ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
            pos = b.column("pos").to_numpy(zero_copy_only=False).astype(np.int64)
            ic = np.minimum(np.searchsorted(hfp, bh), len(hfp) - 1)
            ish = hfp[ic] == bh
            cold = np.flatnonzero(~ish)
            hh = np.flatnonzero(ish)
            with np.errstate(over="ignore"):
                sbn = (
                    (bh[cold].astype(np.uint64) * _FNV + band[cold])
                    % np.uint64(NUM_SUPER_BUCKETS)
                ).astype(np.int32)
            parts = {
                "band_hash": [bh[cold]],
                id_col: [ids[cold]],
                "pos": [pos[cold]],
                "ti": [np.full(len(cold), -1, dtype=np.int32)],
                "tj": [np.full(len(cold), -1, dtype=np.int32)],
                "tile": [np.full(len(cold), -1, dtype=np.int32)],
                "sb": [sbn],
            }
            if len(hh):
                T = tiles[ic[hh]]
                with np.errstate(over="ignore"):
                    mytile = (
                        mix64(ids[hh].astype(np.uint64) * _FNV + pos[hh].astype(np.uint64))
                        % T.astype(np.uint64)
                    ).astype(np.int64)
                rep = np.repeat(hh, T)
                total = int(T.sum())
                j = np.arange(total, dtype=np.int64) - np.repeat(
                    _cumsum0(T)[:-1], T
                )
                mt = np.repeat(mytile, T)
                ti = np.minimum(mt, j)
                tj = np.maximum(mt, j)
                with np.errstate(over="ignore"):
                    sbh = NUM_SUPER_BUCKETS + (
                        mix64(
                            bh[rep].astype(np.uint64) * _FNV
                            + ti.astype(np.uint64) * np.uint64(0x9E3779B9)
                            + tj.astype(np.uint64)
                        )
                        % np.uint64(_HOT_SB_SPACE)
                    ).astype(np.int32)
                parts["band_hash"].append(bh[rep])
                parts[id_col].append(ids[rep])
                parts["pos"].append(pos[rep])
                parts["ti"].append(ti.astype(np.int32))
                parts["tj"].append(tj.astype(np.int32))
                parts["tile"].append(mt.astype(np.int32))
                parts["sb"].append(sbh)
            return pa.table({c: pa.array(np.concatenate(v)) for c, v in parts.items()})

        def pair_group_tiled(g: pd.DataFrame) -> pd.DataFrame:
            ti_all = g["ti"].to_numpy()
            frames = []
            cold = g[ti_all < 0]
            if len(cold) >= 2:
                frames.append(pair_group(cold))
            h = g[ti_all >= 0]
            if len(h) >= 2:
                bh = h["band_hash"].to_numpy()
                ids = h[id_col].to_numpy()
                pos = h["pos"].to_numpy()
                hti = h["ti"].to_numpy()
                htj = h["tj"].to_numpy()
                htl = h["tile"].to_numpy()
                o = np.lexsort((pos, ids, htl, htj, hti, bh))
                bh, ids, pos = bh[o], ids[o], pos[o]
                hti, htj, htl = hti[o], htj[o], htl[o]
                seg = np.flatnonzero(
                    np.concatenate(
                        (
                            [True],
                            (bh[1:] != bh[:-1])
                            | (hti[1:] != hti[:-1])
                            | (htj[1:] != htj[:-1]),
                        )
                    )
                )
                ends = np.append(seg[1:], len(bh))
                for s, e in zip(seg, ends):
                    if hti[s] == htj[s]:
                        m = e - s
                        if m < 2:
                            continue
                        iu, ju = np.triu_indices(m, 1)
                        ia, ib = s + iu, s + ju
                    else:
                        am = htl[s:e] == hti[s]
                        A = s + np.flatnonzero(am)
                        B = s + np.flatnonzero(~am)
                        if len(A) == 0 or len(B) == 0:
                            continue
                        ia = np.repeat(A, len(B))
                        ib = np.tile(B, len(A))
                    keep = ids[ia] != ids[ib]
                    if not keep.any():
                        continue
                    ia, ib = ia[keep], ib[keep]
                    swap = ids[ia] > ids[ib]
                    frames.append(
                        pd.DataFrame(
                            {
                                "id_a": np.where(swap, ids[ib], ids[ia]),
                                "pos_a": np.where(swap, pos[ib], pos[ia]),
                                "id_b": np.where(swap, ids[ia], ids[ib]),
                                "pos_b": np.where(swap, pos[ia], pos[ib]),
                            }
                        )
                    )
            if not frames:
                return pd.DataFrame(
                    {
                        "id_a": pd.Series(dtype="int64"),
                        "pos_a": pd.Series(dtype="int64"),
                        "id_b": pd.Series(dtype="int64"),
                        "pos_b": pd.Series(dtype="int64"),
                    }
                )
            return pd.concat(frames, ignore_index=True)

        routed = coalesce_small(fps.map_batches(route, batch_format="pyarrow"), 1.0)
        cands = (
            routed.groupby("sb")
            .map_groups(pair_group_tiled, batch_format="pandas")
            .repartition(shuffle_parts(0.125))
        )
    else:
        cands = _grouped_run(fps, pair_group)

    # the candidate stream feeds three consumers (two position projections +
    # the pair join) — materialize once instead of re-running fingerprinting
    # and enumeration three times; 32 B/row, spills if large
    cands = cands.materialize()

    left_w = min_len - 1
    right_w = k + min_len - 1

    def side(ic_, pc_):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({id_col: t.column(ic_), "pos": t.column(pc_)})

        return f

    positions = grouped_aggregate(
        coalesce_small(
            cands.map_batches(side("id_a", "pos_a"), batch_format="pyarrow").union(
                cands.map_batches(side("id_b", "pos_b"), batch_format="pyarrow")
            ),
            0.25,
        ),
        [id_col, "pos"],
        {"_n": (id_col, "count")},
        weight=0.5,
    ).map_batches(
        lambda t: t.select([id_col, "pos"]), batch_format="pyarrow"
    )

    docs = ds.map_batches(
        lambda t: t.select([id_col, content_col]), batch_format="pyarrow"
    )
    snip_src = hash_join(
        positions, docs, on=id_col, left_cols=["pos"], right_cols=[content_col],
        num_partitions=num_partitions,
    )

    def extract_snip(b: pa.Table) -> pa.Table:
        """(id, pos, text) -> (id, pos, ppos, snip): the ±extension window
        around the anchor, as bytes (byte-offset slices may split UTF-8
        codepoints; verification compares bytes)."""
        from ..stages.texthash import flat_bytes

        data, offs = flat_bytes(b.column(content_col))
        pos = b.column("pos").to_numpy(zero_copy_only=False).astype(np.int64)
        s = offs[:-1] + np.maximum(pos - left_w, 0)
        e = np.minimum(offs[:-1] + pos + right_w, offs[1:])
        lens = e - s
        out_off = _cumsum0(lens)
        idx = np.repeat(s, lens) + (
            np.arange(out_off[-1], dtype=np.int64) - np.repeat(out_off[:-1], lens)
        )
        flat = np.ascontiguousarray(data[idx])
        snip = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), len(lens), [None, pa.py_buffer(out_off), pa.py_buffer(flat)]
        )
        return pa.table(
            {
                id_col: b.column(id_col),
                "pos": b.column("pos"),
                "ppos": pa.array(np.minimum(pos, left_w)),
                "snip": snip,
            }
        )

    snips = snip_src.map_batches(extract_snip, batch_format="pyarrow").materialize()

    def rename_side(suffix: str):
        def f(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    f"id_{suffix}": t.column(id_col),
                    f"pos_{suffix}": t.column("pos"),
                    f"ppos_{suffix}": t.column("ppos"),
                    f"snip_{suffix}": t.column("snip"),
                }
            )

        return f

    snips_a = snips.map_batches(rename_side("a"), batch_format="pyarrow")
    snips_b = snips.map_batches(rename_side("b"), batch_format="pyarrow")
    j1 = hash_join(
        cands, snips_a, on=["id_a", "pos_a"], left_cols=["id_b", "pos_b"],
        right_cols=["ppos_a", "snip_a"], num_partitions=num_partitions,
    )
    j2 = hash_join(
        j1, snips_b, on=["id_b", "pos_b"], left_cols=["id_a", "ppos_a", "snip_a"],
        right_cols=["ppos_b", "snip_b"], num_partitions=num_partitions,
    )

    def _gather(data: np.ndarray, base: np.ndarray, step: int, width: int, limit: np.ndarray, sentinel: int) -> np.ndarray:
        """(n, width) int16 matrix m[i, j] = data[base[i] + step*j] where
        j < limit[i], else ``sentinel`` (per-side sentinels never compare
        equal, so padding can't fake a match)."""
        j = np.arange(width)
        idx = base[:, None] + step * j[None, :]
        valid = j[None, :] < limit[:, None]
        out = np.full(idx.shape, sentinel, dtype=np.int16)
        np.clip(idx, 0, len(data) - 1 if len(data) else 0, out=idx)
        if len(data):
            out[valid] = data[idx[valid]]
        return out

    def verify(b: pa.Table) -> pa.Table:
        # identical anchored-extension compare as over full texts: the
        # snippet covers exactly the max extension range (left_w + k +
        # right_w), and ppos is the anchor's offset within it, so every
        # llim/rlim clamp is unchanged
        from ..stages.texthash import flat_bytes

        empty = pa.table(
            {"id_a": pa.array([], type=pa.int64()), "id_b": pa.array([], type=pa.int64())}
        )
        if len(b) == 0:
            return empty
        da, oa = flat_bytes(b.column("snip_a"))
        db, ob = flat_bytes(b.column("snip_b"))
        pa_ = b.column("ppos_a").to_numpy(zero_copy_only=False).astype(np.int64)
        pb_ = b.column("ppos_b").to_numpy(zero_copy_only=False).astype(np.int64)
        la = np.diff(oa)
        lb = np.diff(ob)
        llim = np.minimum(np.minimum(pa_, pb_), left_w)
        rlim_a = np.minimum(la - pa_, right_w)
        rlim_b = np.minimum(lb - pb_, right_w)
        al = _gather(da, oa[:-1] + pa_ - 1, -1, left_w, llim, -1)
        bl = _gather(db, ob[:-1] + pb_ - 1, -1, left_w, llim, -2)
        ar = _gather(da, oa[:-1] + pa_, 1, right_w, rlim_a, -1)
        br = _gather(db, ob[:-1] + pb_, 1, right_w, rlim_b, -2)
        leftrun = np.cumprod(al == bl, axis=1).sum(axis=1)
        rightrun = np.cumprod(ar == br, axis=1).sum(axis=1)
        ok = (rightrun >= k) & (leftrun + rightrun >= min_len)
        if not ok.any():
            return empty
        ia = b.column("id_a").to_numpy(zero_copy_only=False)[ok].astype(np.int64)
        ib = b.column("id_b").to_numpy(zero_copy_only=False)[ok].astype(np.int64)
        return pa.table({"id_a": pa.array(ia), "id_b": pa.array(ib)})

    verified = j2.map_batches(verify, batch_format="pyarrow")
    out = grouped_aggregate(
        verified, ["id_a", "id_b"], {"_n": ("id_a", "count")}, weight=0.5
    )
    return out.map_batches(lambda t: t.select(["id_a", "id_b"]), batch_format="pyarrow").sort(
        ["id_a", "id_b"]
    )


def segment_dedup(
    ds,
    seg_tokens: int = 16,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int | None = None,
):
    """Corpus-wide segment-level exact dedup (the CCNet/RefinedWeb line-dedup
    recipe, applied to fixed ``seg_tokens``-token segments because crawl text
    arrives here newline-free): every segment that already occurred earlier
    in corpus order — at a smaller ``(doc_id, seg_no)`` — is DROPPED, and
    each document is reassembled from its surviving segments.

    Contrast with :func:`exact_dedup` (whole-document) and
    :func:`substring_dup_pairs` (reporting shared spans): this one *rewrites*
    documents, removing boilerplate segments that repeat across the corpus
    (headers, navigation, license blurbs) while keeping the unique remainder.

    Plan (two key shuffles, both on narrow-ish rows):

    1. row-local explode via :func:`packing.chunk_kernel` (overlap 0) —
       (id, seg_no, seg_text); zero-token docs vanish here, matching the SQL.
    2. hash-partition by ``content_hash64(seg_text)``; each partition keeps,
       per distinct segment text, the row with the minimum (doc_id, seg_no)
       — collision-safe because the winner rule groups on the *text* within
       the hash partition.  Segment text rides this shuffle once (like the
       reference implementations, which shuffle the line itself); a 100 TB
       corpus can swap the payload for a 128-bit hash + re-join, at the cost
       of a second scan.
    3. hash-partition the survivors by doc id; reassemble each doc's text as
       the ' '-join of surviving segments in seg_no order (one vectorized
       pandas grouped join per partition, no per-doc dispatch).

    Output: ``(doc_id, n_seg, text)`` for every doc with ≥1 surviving
    segment, sorted by doc_id; ``text`` byte-matches the SQL oracle's
    ``string_agg``.  Docs whose every segment was seen earlier are dropped
    (the group simply has no rows — same rule both sides).
    """
    from .packing import chunk_kernel

    if num_partitions is None:
        num_partitions = shuffle_parts(1.0)

    segs = ds.map_batches(
        chunk_kernel(seg_tokens, 0, text_col, id_col), batch_format="pyarrow"
    )

    def add_seg_pk(t: pa.Table) -> pa.Table:
        h = content_hash64(t.column("chunk_text"))
        pk = (h % np.uint64(num_partitions)).astype(np.int32)
        return t.select([id_col, "chunk_id", "chunk_text"]).append_column(
            "_pk", pa.array(pk)
        )

    def winners(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "chunk_id"], kind="stable")
        first = g.groupby("chunk_text", sort=False).head(1)
        return first[[id_col, "chunk_id", "chunk_text"]]

    kept = (
        segs.map_batches(add_seg_pk, batch_format="pyarrow")
        .groupby("_pk")
        .map_groups(winners, batch_format="pandas")
    )

    def add_doc_pk(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        hk = pd.util.hash_array(ids, hash_key="0123456789123456").astype(np.uint64)
        pk = (hk % np.uint64(num_partitions)).astype(np.int32)
        return t.append_column("_pk", pa.array(pk))

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "chunk_id"], kind="stable")
        out = (
            g.groupby(id_col, sort=False)
            .agg(n_seg=("chunk_id", "size"), text=("chunk_text", " ".join))
            .reset_index()
        )
        out["n_seg"] = out["n_seg"].astype(np.int64)
        return out[[id_col, "n_seg", "text"]]

    return (
        kept.map_batches(add_doc_pk, batch_format="pyarrow")
        .groupby("_pk")
        .map_groups(rebuild, batch_format="pandas")
        .sort(id_col)
    )


def source_segment_overlap(
    ds,
    seg_tokens: int = 8,
    text_col: str = "text",
    group_col: str = "source",
    num_partitions: int | None = None,
):
    """Cross-source duplicate-overlap matrix: for every unordered pair of
    sources, the number of DISTINCT ``seg_tokens``-token segments occurring
    in both — the crawl-diagnostics step that tells you how redundant two
    dumps/snapshots are before you pay for a full cross-source dedup (the
    CommonCrawl-overlap measurement of the RefinedWeb/FineWeb reports).

    Plan (segment rule shared byte-for-byte with :func:`segment_dedup` via
    :func:`packing.chunk_kernel`):

    1. row-local explode to (source, seg_text); per-BATCH distinct shrinks
       the exchange before it happens (boilerplate segments collapse early).
    2. ONE hash exchange on ``content_hash64(seg_text)``; each partition
       holds every occurrence of its segments corpus-wide, so it distincts
       (seg, source) exactly, builds the segment x source incidence matrix,
       and computes its pair-count partial as ONE ``M.T @ M`` matmul —
       an (n_src x n_src) integer result per partition, no pair-row blowup.
       Grouping is on the segment *text* within the hash partition, so hash
       collisions cannot merge distinct segments.
    3. a tiny final sum over the per-partition (src_a, src_b, n) partials.

    Assumes modest source cardinality (a crawl has dozens-to-hundreds of
    dumps; the matmul is n_src^2 per partition).  For a high-cardinality
    group column, replace step 2's matmul with per-segment pair emission
    into :func:`~rasterflow.util.grouped_aggregate`.

    Output, sorted: ``(src_a, src_b, n_shared)`` with ``src_a < src_b``
    (codepoint order, matching SQL varchar comparison); pairs sharing no
    segment are absent."""
    from .packing import chunk_kernel

    if num_partitions is None:
        num_partitions = shuffle_parts(1.0)

    segs = ds.map_batches(
        chunk_kernel(seg_tokens, 0, text_col, group_col), batch_format="pyarrow"
    )

    def distinct_pk(t: pa.Table) -> pa.Table:
        d = pa.table({"seg": t.column("chunk_text"), group_col: t.column(group_col)})
        d = d.group_by(["seg", group_col]).aggregate([])
        h = content_hash64(d.column("seg"))
        pk = (h % np.uint64(num_partitions)).astype(np.int32)
        return d.append_column("_pk", pa.array(pk))

    def partial_counts(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["seg", group_col])
        src_codes, src_names = pd.factorize(d[group_col], sort=True)
        seg_codes, _ = pd.factorize(d["seg"], sort=False)
        m = np.zeros((int(seg_codes.max()) + 1, len(src_names)), dtype=np.int64)
        m[seg_codes, src_codes] = 1
        c = m.T @ m
        iu, ju = np.triu_indices(len(src_names), k=1)
        nsh = c[iu, ju]
        keep = nsh > 0
        names = np.asarray(src_names, dtype=object)
        return pd.DataFrame(
            {"src_a": names[iu[keep]], "src_b": names[ju[keep]], "n": nsh[keep]}
        )

    parts = (
        segs.map_batches(distinct_pk, batch_format="pyarrow")
        .groupby("_pk")
        .map_groups(partial_counts, batch_format="pandas")
    )
    out = grouped_aggregate(
        parts, ["src_a", "src_b"], {"n_shared": ("n", "sum")}, weight=0.1
    )
    return out.sort(["src_a", "src_b"])


def edit1_pairs(ds, col: str, num_partitions: int | None = None, sort: bool = True):
    """Fuzzy self-join: all DISTINCT string pairs within Levenshtein
    distance 1 (typo-dedup of domains, titles, entity names).

    SymSpell deletion-neighborhood blocking (Garbe's public algorithm):
    if d(a, b) ≤ 1 then ``{a} ∪ del1(a)`` and ``{b} ∪ del1(b)`` intersect
    — a substitution shares the deletion at the edited position, an
    insertion/deletion shares the shorter string itself — so emitting
    len+1 variant keys per distinct string and grouping on the variant is
    a LOSSLESS candidate generator for d ≤ 1.  One hash exchange on the
    variant key; per-partition candidate pairs come from one vectorized
    self-merge; duplicates (the same pair via several shared variants)
    collapse on the pair key; the final d ≤ 1 verify is exact and
    vectorized (equal length ⇒ ≤1 mismatching byte; length±1 ⇒ common
    prefix + common suffix covers the shorter).

    The input collapses to its distinct strings first (in-batch unique +
    one grouped exchange), so variant volume is distinct-strings × (len+1),
    independent of corpus row count.  Returns ``(s_a, s_b)``, ``s_a < s_b``.
    """
    import pandas as pd

    from ..util import _hash_cols, coalesce_small, grouped_aggregate, shuffle_parts

    if num_partitions is None:
        num_partitions = shuffle_parts(1.0)

    def batch_distinct(b: pa.Table) -> pa.Table:
        k = b.column(col)
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        return pa.table({col: k.unique()})

    distinct = grouped_aggregate(
        coalesce_small(ds.map_batches(batch_distinct, batch_format="pyarrow"), 0.25),
        col,
        {"_one": (col, "first")},
    )

    def variants(b: pa.Table) -> pa.Table:
        s = b.column(col).to_pylist()
        out_s: list[str] = []
        out_v: list[str] = []
        # loop over DELETION POSITIONS of the (collapsed) distinct strings —
        # bounded by max string length, not corpus rows
        maxlen = max((len(x) for x in s), default=0)
        for x in s:
            out_s.append(x)
            out_v.append(x)
        for d in range(maxlen):
            for x in s:
                if d < len(x):
                    out_s.append(x)
                    out_v.append(x[:d] + x[d + 1 :])
        t = pa.table({"s": pa.array(out_s, type=pa.string()), "v": pa.array(out_v, type=pa.string())})
        df = pd.DataFrame({"v": out_v})
        pk = (_hash_cols(df, ["v"]) % np.uint64(num_partitions)).astype(np.int32)
        return t.append_column("_pk", pa.array(pk))

    keyed = distinct.map_batches(variants, batch_format="pyarrow")

    def candidates(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on="v")
        m = m[m["s_x"] < m["s_y"]][["s_x", "s_y"]].drop_duplicates()
        return m.rename(columns={"s_x": "s_a", "s_y": "s_b"})

    cand = keyed.groupby("_pk").map_groups(candidates, batch_format="pandas")
    pairs = grouped_aggregate(
        coalesce_small(cand, 0.25), ["s_a", "s_b"], {"_n": ("s_a", "count")}
    )

    def _bytes_mat(strs: list[str]) -> tuple[np.ndarray, np.ndarray]:
        # CODEPOINT matrix (utf-32), not utf-8 bytes: Levenshtein distance is
        # defined over characters, and a multi-byte encoding would both
        # overflow the char-length width and miscount substitutions
        ln = np.array([len(x) for x in strs], dtype=np.int64)
        width = int(ln.max()) if len(ln) else 0
        mat = np.zeros((len(strs), width), dtype=np.uint32)
        for i, x in enumerate(strs):  # bounded by candidate-pair count
            cp = np.frombuffer(x.encode("utf-32-le"), dtype=np.uint32)
            mat[i, : len(cp)] = cp
        return mat, ln

    def verify(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.schema([("s_a", pa.string()), ("s_b", pa.string())]).empty_table()
        sa = t.column("s_a").to_pylist()
        sb = t.column("s_b").to_pylist()
        ma, la = _bytes_mat(sa)
        mb, lb = _bytes_mat(sb)
        w = max(ma.shape[1], mb.shape[1])
        ma = np.pad(ma, ((0, 0), (0, w - ma.shape[1])))
        mb = np.pad(mb, ((0, 0), (0, w - mb.shape[1])))
        eq = ma == mb
        same_len = la == lb
        sub_ok = same_len & ((~eq).sum(axis=1) <= 1)
        # length-difference-1: d==1 iff common prefix + common suffix >= shorter
        pos = np.arange(w)
        pref = np.where(eq, 0, 1)
        first_diff = np.argmax(pref, axis=1)
        first_diff = np.where(pref.any(axis=1), first_diff, w)
        # suffix: align ends by shifting the shorter — compare reversed
        rev_a = ma[:, ::-1]
        rev_b = mb[:, ::-1]
        # reversed arrays are end-aligned only when we re-shift by padding;
        # rebuild end-aligned matrices instead
        ea = np.zeros_like(ma)
        eb = np.zeros_like(mb)
        for i in range(len(sa)):  # candidate-pair bounded
            ea[i, w - la[i] :] = ma[i, : la[i]]
            eb[i, w - lb[i] :] = mb[i, : lb[i]]
        eqe = (ea == eb)[:, ::-1]
        sufd = np.where(np.where(eqe, 0, 1).any(axis=1), np.argmax(np.where(eqe, 0, 1), axis=1), w)
        shorter = np.minimum(la, lb)
        ind_ok = (np.abs(la - lb) == 1) & (first_diff + sufd >= shorter)
        keep = sub_ok | ind_ok
        m = pa.array(keep)
        return pa.table({"s_a": t.column("s_a").filter(m), "s_b": t.column("s_b").filter(m)})

    out = pairs.map_batches(verify, batch_format="pyarrow")
    return out.sort(["s_a", "s_b"]) if sort else out
