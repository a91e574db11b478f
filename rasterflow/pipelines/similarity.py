"""Similarity search over embedding columns (``list<float>``).

- :func:`cosine_topk` — exact brute-force top-k: per-batch numpy matmul of
  the (zero-copy) embedding block against a broadcast, pre-normalized query
  matrix; per-batch partial top-k; tiny per-query merge.  The baseline.
- :func:`cosine_topk_ivf` — the scale path: deterministic k-means-lite
  centroids (layout-independent hash sample + a few Lloyd iterations on the
  driver; nlist defaults to the √N rule), per-batch
  cluster assignment, and probing only the ``nprobe`` closest clusters per
  query.  Approximate; recall measured in tests against the brute baseline.
- :func:`ivf_ingest` / :func:`cosine_topk_ivf_indexed` — the PERSISTED IVF
  path: embeddings written as cluster-partitioned parquet (the embedding
  analogue of the spatial cell layout), so probing prunes at the read.
- :func:`embedding_neardup_pairs` — near-duplicate pairs (cosine ≥ τ) via
  random-hyperplane LSH blocking + exact verification inside buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray


def _emb_matrix(batch: pa.Table, col: str) -> np.ndarray:
    """Embedding column -> (n, d) float matrix; handles list<float>,
    fixed_size_list, and Ray's Arrow tensor extension, zero-copy where the
    layout allows."""
    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if isinstance(arr, pa.ExtensionArray):  # ray.data tensor extension
        m = np.asarray(arr.to_numpy(zero_copy_only=False))
        return np.ascontiguousarray(m)
    if pa.types.is_fixed_size_list(arr.type):
        dim = arr.type.list_size
        return np.asarray(arr.values.to_numpy(zero_copy_only=False)).reshape(-1, dim)
    offsets = arr.offsets.to_numpy(zero_copy_only=False)
    if len(offsets) < 2:  # empty plain-list batch carries no dim information
        return np.zeros((0, 0), dtype=np.float64)
    dim = int(offsets[1] - offsets[0])
    flat = arr.values.to_numpy(zero_copy_only=False)
    return flat.reshape(-1, dim)


def _normalize(m: np.ndarray) -> np.ndarray:
    m = m.astype(np.float64, copy=False)
    n = np.sqrt((m * m).sum(axis=1, keepdims=True))
    return m / np.maximum(n, 1e-30)


def cosine_topk(
    emb_ds,
    query_vecs: np.ndarray,
    k: int,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
):
    """Exact cosine top-k per query.  Output (query_id, id, score), sorted by
    (query_id, -score, id); ties break by id."""
    qn = _normalize(np.asarray(query_vecs, dtype=np.float64))

    def partial(batch: pa.Table) -> pa.Table:
        from ..util import det_topk_indices

        e = _normalize(_emb_matrix(batch, emb_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        scores = e @ qn.T  # (n, Q)
        qcol, icol, scol = [], [], []
        for qi in range(qn.shape[0]):
            s = scores[:, qi]
            # deterministic (-score, id) top-k: boundary ties resolved by id
            idx = det_topk_indices(s, ids, k, descending=True)
            qcol.append(np.full(len(idx), qi, dtype=np.int32))
            icol.append(ids[idx])
            scol.append(s[idx])
        return pa.table(
            {
                "query_id": np.concatenate(qcol),
                id_col: np.concatenate(icol),
                "score": np.concatenate(scol),
            }
        )

    from ..util import coalesce_small

    partials = coalesce_small(emb_ds.map_batches(partial, batch_format="pyarrow"))

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", id_col], ascending=[False, True]).head(k)
        return g

    return partials.groupby("query_id").map_groups(merge, batch_format="pandas").sort(
        ["query_id", id_col]
    )


def kmeans_lite(sample: np.ndarray, nlist: int, iters: int = 5, seed: int = 0) -> np.ndarray:
    """Deterministic small k-means on a sample (driver-side, numpy only)."""
    rng = np.random.default_rng(seed)
    sample = _normalize(sample)
    idx = rng.choice(len(sample), size=min(nlist, len(sample)), replace=False)
    cent = sample[np.sort(idx)].copy()
    for _ in range(iters):
        assign = (sample @ cent.T).argmax(axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = sample[m].mean(axis=0)
        cent = _normalize(cent)
    return cent


#: memo of (centroids, object-store ref) per caller-provided cache key —
#: the embedding analogue of the persistent kNN cell index: repeated IVF
#: queries over the same dataset pay only probing, not the sample +
#: k-means + ray.put build.  Keys should include the Ray job id so refs
#: from a dead session are never reused.
_CENTROID_CACHE: dict = {}


def _centroids_for(
    emb_ds, nlist: int | None, sample_size: int, emb_col: str,
    id_col: str = "vec_id", cache_key=None,
):
    """Centroids for ``emb_ds`` (built once per ``cache_key`` when given).

    The k-means sample is a HASH-THRESHOLD uniform sample (round 4): rows
    with the ``sample_size``-smallest ``mulrot_hash64(id)`` values, gathered
    with one filtered pass (4× oversampled threshold, then exact bottom-k on
    the driver).  Hash order is independent of the physical layout, so a
    dataset written sorted/clustered (the IVF layout itself, a
    spatially-sorted ingest) yields the same unbiased centroids as a
    shuffled one — the old ``limit()`` sample read only the FIRST blocks and
    collapsed to one region of a clustered layout.

    ``nlist=None`` applies the √N rule (IVF guidance: nlist ≈ √N balances
    centroid-scan and cluster-scan cost; clamped to [16, 4096] — at 10⁹+
    vectors raise sample_size with nlist so clusters still average ≥ a few
    sample points).

    Returns ``(cent, cent_ref)`` where ``cent_ref`` is the broadcast
    object-store handle (``ray.put`` once — tasks gather, never re-ship)."""
    from ..stages.texthash import mulrot_hash64

    full_key = None
    if cache_key is not None:
        full_key = (cache_key, nlist, sample_size, emb_col)
        hit = _CENTROID_CACHE.get(full_key)
        if hit is not None:
            return hit
    n = emb_ds.count()
    if nlist is None:
        nlist = int(np.clip(np.sqrt(max(n, 1)), 16, 4096))
    p = min(1.0, 4.0 * sample_size / max(n, 1))
    thresh = np.uint64(min(int(p * 2.0**64), 2**64 - 1))

    def samp(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        with np.errstate(over="ignore"):
            h = mulrot_hash64(ids.astype(np.uint64))
        m = h < thresh
        return b.select([id_col, emb_col]).filter(pa.array(m)).append_column(
            "_h", pa.array(h[m].view(np.int64))
        )

    sample_tbl = emb_ds.map_batches(samp, batch_format="pyarrow").to_pandas()
    order = np.argsort(sample_tbl["_h"].to_numpy().view(np.uint64), kind="stable")
    sample_tbl = sample_tbl.iloc[order[:sample_size]]
    sample = np.stack(sample_tbl[emb_col].to_numpy())
    cent = kmeans_lite(sample, nlist)
    cent_ref = ray.put(cent)
    if full_key is not None:
        _CENTROID_CACHE.clear()  # one live centroid set: don't pin stale refs
        _CENTROID_CACHE[full_key] = (cent, cent_ref)
    return cent, cent_ref


class IvfPartial:
    """Per-batch IVF top-k partials: each row scores only the queries whose
    probed clusters contain the row's nearest centroid."""

    def __init__(self, cent_ref, probes_ref, qn_ref, emb_col: str, id_col: str, k: int):
        self.cent = ray.get(cent_ref)
        self.probes = ray.get(probes_ref)
        self.qn = ray.get(qn_ref)
        self.emb_col, self.id_col, self.k = emb_col, id_col, k

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..util import det_topk_indices

        qn, k, id_col = self.qn, self.k, self.id_col
        e = _normalize(_emb_matrix(batch, self.emb_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        assign = (e @ self.cent.T).argmax(axis=1)
        qcol, icol, scol = [], [], []
        for qi in range(qn.shape[0]):
            m = np.isin(assign, self.probes[qi])
            if not m.any():
                continue
            s = e[m] @ qn[qi]
            sub_ids = ids[m]
            idx = det_topk_indices(s, sub_ids, k, descending=True)
            qcol.append(np.full(len(idx), qi, dtype=np.int32))
            icol.append(sub_ids[idx])
            scol.append(s[idx])
        if not qcol:
            return pa.table(
                {
                    "query_id": pa.array([], type=pa.int32()),
                    id_col: pa.array([], type=pa.int64()),
                    "score": pa.array([], type=pa.float64()),
                }
            )
        return pa.table(
            {"query_id": np.concatenate(qcol), id_col: np.concatenate(icol), "score": np.concatenate(scol)}
        )


def cosine_topk_ivf(
    emb_ds,
    query_vecs: np.ndarray,
    k: int,
    nlist: int | None = None,
    nprobe: int = 4,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    sample_size: int = 2048,
    cache_key=None,
):
    """IVF-style approximate top-k: probe only the nprobe closest centroids.

    Centroids come from a deterministic layout-independent hash sample of
    the dataset (``nlist=None`` → √N rule, see :func:`_centroids_for`); each
    batch scores only its rows assigned to probed clusters.  Pass
    ``cache_key`` (e.g. ``(job_id, dataset_path)``) to reuse the centroid
    build across repeated queries over the same dataset."""
    cent, cent_ref = _centroids_for(
        emb_ds, nlist, sample_size, emb_col, id_col=id_col, cache_key=cache_key
    )
    qn = _normalize(np.asarray(query_vecs, dtype=np.float64))
    probes = np.argsort(-(qn @ cent.T), axis=1)[:, :nprobe]  # (Q, nprobe)

    from ..util import coalesce_small, map_stage

    partials = coalesce_small(
        map_stage(
            emb_ds, IvfPartial, cent_ref=cent_ref, probes_ref=ray.put(probes), qn_ref=ray.put(qn),
            emb_col=emb_col, id_col=id_col, k=k,
        )
    )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["score", id_col], ascending=[False, True]).head(k)

    return partials.groupby("query_id").map_groups(merge, batch_format="pandas").sort(
        ["query_id", id_col]
    )


def ivf_ingest(
    emb_ds,
    out_dir: str,
    nlist: int | None = None,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    sample_size: int = 2048,
):
    """Write an IVF LAYOUT: embeddings as parquet partitioned by their
    nearest-centroid cluster — the persisted analogue of
    :func:`cosine_topk_ivf` (same centroid construction), and the embedding
    counterpart of the spatial cell-partitioned ingest: at query time only
    the probed clusters' partitions leave storage.

    Centroids are stored beside the layout (``centroids.npy``); the cluster
    id is kept as a column INSIDE the files too, so row-group statistics
    support predicate pushdown just like ``pcell`` in the spatial layout."""
    import os

    cent, cent_ref = _centroids_for(emb_ds, nlist, sample_size, emb_col, id_col=id_col)
    os.makedirs(out_dir, exist_ok=True)
    # "_" prefix: parquet dataset discovery ignores it as a sidecar
    np.save(os.path.join(out_dir, "_centroids.npy"), cent)

    def assign(b: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        e = _normalize(_emb_matrix(b, emb_col))
        cl = (e @ c.T).argmax(axis=1).astype(np.int32)
        b = b.append_column("cluster", pa.array(cl))
        return b.append_column("part", pa.array(cl).cast(pa.string()))

    emb_ds.map_batches(assign, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["part"]
    )
    return out_dir


def cosine_topk_ivf_indexed(
    layout_dir: str,
    query_vecs: np.ndarray,
    k: int,
    nprobe: int = 4,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
):
    """Approximate top-k over an :func:`ivf_ingest` layout: read ONLY the
    probed clusters' partitions (pushdown on the cluster column), then the
    same per-batch scoring + deterministic merge as the in-memory IVF."""
    import os

    import pyarrow.compute as _pc
    import ray.data

    cent = np.load(os.path.join(layout_dir, "_centroids.npy"))
    qn = _normalize(np.asarray(query_vecs, dtype=np.float64))
    probes = np.argsort(-(qn @ cent.T), axis=1)[:, :nprobe]  # (Q, nprobe)
    wanted = np.unique(probes)
    ds = ray.data.read_parquet(
        layout_dir,
        filter=_pc.field("cluster").isin(pa.array(wanted.astype(np.int32))),
        columns=[id_col, emb_col, "cluster"],
    )
    probes_ref = ray.put(probes) if ray.is_initialized() else probes
    qn_ref = ray.put(qn) if ray.is_initialized() else qn

    def partial(batch: pa.Table) -> pa.Table:
        from ..util import det_topk_indices

        pr = ray.get(probes_ref) if isinstance(probes_ref, ray.ObjectRef) else probes_ref
        q = ray.get(qn_ref) if isinstance(qn_ref, ray.ObjectRef) else qn_ref
        e = _normalize(_emb_matrix(batch, emb_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        assign = batch.column("cluster").to_numpy(zero_copy_only=False)
        qcol, icol, scol = [], [], []
        for qi in range(q.shape[0]):
            m = np.isin(assign, pr[qi])
            if not m.any():
                continue
            s = e[m] @ q[qi]
            sub_ids = ids[m]
            idx = det_topk_indices(s, sub_ids, k, descending=True)
            qcol.append(np.full(len(idx), qi, dtype=np.int32))
            icol.append(sub_ids[idx])
            scol.append(s[idx])
        if not qcol:
            return pa.table(
                {"query_id": pa.array([], type=pa.int32()), id_col: pa.array([], type=pa.int64()),
                 "score": pa.array([], type=pa.float64())}
            )
        return pa.table(
            {"query_id": np.concatenate(qcol), id_col: np.concatenate(icol), "score": np.concatenate(scol)}
        )

    from ..util import coalesce_small

    partials = coalesce_small(ds.map_batches(partial, batch_format="pyarrow"), 0.125)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["score", id_col], ascending=[False, True]).head(k)

    return partials.groupby("query_id").map_groups(merge, batch_format="pandas").sort(
        ["query_id", id_col]
    )


def embedding_neardup_brute(
    emb_ds,
    all_vecs: np.ndarray,
    all_ids: np.ndarray,
    threshold: float,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
):
    """Exact cosine near-dup pairs: each batch scores its rows against the
    broadcast full matrix (``ray.put`` once, gathered per task) — the
    broadcast-small-side join pattern.  Output (id_a < id_b, cos)."""
    vn = _normalize(np.asarray(all_vecs, dtype=np.float64))
    ref_v = ray.put(vn) if ray.is_initialized() else vn
    ref_i = ray.put(np.asarray(all_ids)) if ray.is_initialized() else np.asarray(all_ids)

    def partial(batch: pa.Table) -> pa.Table:
        vs = ray.get(ref_v) if isinstance(ref_v, ray.ObjectRef) else ref_v
        ids_all = ray.get(ref_i) if isinstance(ref_i, ray.ObjectRef) else ref_i
        e = _normalize(_emb_matrix(batch, emb_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        sim = e @ vs.T  # (n, N)
        ii, jj = np.nonzero(sim >= threshold)
        a = ids[ii]
        b = ids_all[jj]
        keep = a < b
        return pa.table(
            {
                "id_a": pa.array(a[keep]),
                "id_b": pa.array(b[keep]),
                "cos": pa.array(sim[ii[keep], jj[keep]]),
            }
        )

    return emb_ds.map_batches(partial, batch_format="pyarrow").sort(["id_a", "id_b"])


class HyperplaneLSH:
    """Stage: embeddings -> (band, band_hash, id, normalized-vec bytes).

    Hyperplanes are derived once per process from the seed; the vector
    column ships as one zero-copy fixed-size-binary buffer (no per-row
    tobytes — VERDICT r2 #6, same pattern as MinHashSignatures)."""

    def __init__(self, emb_col: str, id_col: str, nbits: int, bands: int, seed: int):
        self.emb_col = emb_col
        self.id_col = id_col
        self.nbits = nbits
        self.bands = bands
        self.seed = seed
        self.planes = None  # dim discovered lazily at first batch

    def __call__(self, batch: pa.Table) -> pa.Table:
        nbits, bands = self.nbits, self.bands
        e = _normalize(_emb_matrix(batch, self.emb_col))
        if self.planes is None:
            r = np.random.default_rng(self.seed)
            self.planes = r.standard_normal((e.shape[1], nbits * bands))
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        bits = (e @ self.planes) > 0  # (n, nbits*bands)
        n = len(ids)
        band_col = np.repeat(np.arange(bands, dtype=np.int32), n)
        doc_idx = np.tile(np.arange(n), bands)
        bh = np.empty(bands * n, dtype=np.int64)
        w = 1 << np.arange(nbits, dtype=np.int64)
        for bnd in range(bands):
            seg = bits[:, bnd * nbits : (bnd + 1) * nbits].astype(np.int64)
            bh[bnd * n : (bnd + 1) * n] = seg @ w
        vec_arr = pa.Array.from_buffers(
            pa.binary(e.shape[1] * 8),
            n,
            [None, pa.py_buffer(np.ascontiguousarray(e).tobytes())],
        ).take(pa.array(doc_idx))
        return pa.table(
            {
                "band": band_col,
                "band_hash": bh,
                self.id_col: pa.array(ids[doc_idx]),
                "vec": vec_arr,
            }
        )


def embedding_neardup_pairs(
    emb_ds,
    threshold: float = 0.95,
    nbits: int = 16,
    bands: int = 4,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    max_bucket: int = 256,
    seed: int = 99,
):
    """Cosine near-duplicate pairs via random-hyperplane LSH + exact verify.

    ``bands`` bands of ``nbits`` hyperplane sign bits each; a pair lands in
    the same bucket for a band with prob (1 - θ/π)^nbits.  Exact cosine is
    verified inside each bucket; pairs deduped across bands via groupby-max.
    """
    from ..util import map_stage

    sigs = map_stage(
        emb_ds, HyperplaneLSH, emb_col=emb_col, id_col=id_col, nbits=nbits, bands=bands, seed=seed
    )

    def run_group(g: pd.DataFrame) -> pd.DataFrame:
        from .dedup import _bucket_all_pairs

        empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64"), "cos": pd.Series(dtype="float64")})
        if len(g) < 2:
            return empty
        r = _bucket_all_pairs(g, id_col, max_bucket)
        if r is None:
            return empty
        ro, ids, a, b, _trunc = r
        vec_col = g["vec"].to_numpy()[ro]
        vecs = np.frombuffer(b"".join(vec_col), dtype=np.float64).reshape(len(ro), -1)
        cs = np.einsum("ij,ij->i", vecs[a], vecs[b])
        keep = cs >= threshold
        if not keep.any():
            return empty
        return pd.DataFrame({"id_a": ids[a[keep]], "id_b": ids[b[keep]], "cos": cs[keep]})

    from ..util import grouped_aggregate
    from .dedup import _grouped_run

    pairs = _grouped_run(sigs, run_group)
    return grouped_aggregate(
        pairs, ["id_a", "id_b"], {"cos": ("cos", "max")}, weight=0.5
    ).sort(["id_a", "id_b"])


def semdedup(
    emb_ds,
    *,
    k_clusters: int = 8,
    threshold: float = 0.45,
    iters: int = 10,
    seed: int = 0,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    assignments_out: str | None = None,
):
    """SemDeDup (public algorithm — Abbas et al., "SemDeDup: Data-efficient
    learning at web-scale through semantic deduplication", 2023): k-means
    cluster the embedding space, then within each cluster keep a row only
    if NO earlier row (id order) is cosine-similar at ``threshold`` —
    semantic near-dup pruning without an all-pairs pass.

    Plan: :func:`cluster.kmeans_fit` (one streaming pass per Lloyd
    iteration, (k×d) partials) → one assignment pass carrying (id, cluster,
    embedding) → ``groupby(cluster).map_groups`` pruning, one normalized
    matmul per cluster.  Pairwise work is n_c² per CLUSTER, not corpus² —
    the bucketed posture of the LSH family; a pathologically hot cluster is
    the caller's k_clusters knob (same caveat as LSH super-buckets).

    The paper orders candidates by similarity-to-centroid; any fixed order
    yields the same dedup guarantee, so this uses id order — deterministic
    under partitioning and exactly replicable by a SQL NOT EXISTS over the
    persisted assignments.  ``assignments_out`` (optional) writes the
    (id, cluster) sidecar the oracle replays; clustering itself is
    iterative (no SQL form) and is pinned by the kmeans pytest instead.

    Output: kept ``(id_col, cluster)``, sorted by id.  Float-threshold
    cross-engine safety: decisions are a subset of the pair decisions
    ``embedding_neardup_brute`` already hash-verifies at the same
    threshold on the same tables."""
    from .cluster import kmeans_fit

    cent, _ = kmeans_fit(
        emb_ds, k_clusters, emb_col=emb_col, id_col=id_col, iters=iters, seed=seed
    )
    ref = ray.put(cent)

    def assign(b: pa.Table) -> pa.Table:
        c = ray.get(ref)
        x = _emb_matrix(b, emb_col).astype(np.float64)
        if len(x) == 0:
            # an empty plain-list block loses its width ((0, 0)); rebuild
            # (0, d) from the centroids so every block emits the same
            # fixed_size_list<double, d> schema (the _init_centroids lesson)
            x = np.empty((0, c.shape[1]), dtype=np.float64)
        d2 = (x * x).sum(1)[:, None] - 2.0 * (x @ c.T) + (c * c).sum(1)[None, :]
        a = d2.argmin(axis=1) if len(x) else np.empty(0, dtype=np.int64)
        n = _normalize(x)
        return pa.table(
            {
                id_col: b.column(id_col),
                "cluster": pa.array(a.astype(np.int32)),
                # pre-normalized f64 rows as a fixed_size_list column: one
                # vectorized flatten per batch (no per-row loop), one
                # np.stack per group
                "vec": pa.FixedSizeListArray.from_arrays(
                    pa.array(n.ravel()), n.shape[1]
                ),
            }
        )

    assigned = emb_ds.map_batches(assign, batch_format="pyarrow")
    if assignments_out is not None:
        import pyarrow.fs as pafs

        fs = pafs.LocalFileSystem()
        try:  # stale fragments double-count (the build_inverted_index lesson)
            fs.delete_dir(assignments_out)
        except FileNotFoundError:
            pass
        # persist-once: the sidecar write and the prune both consume the
        # assign stage; materializing avoids re-executing read+assign (the
        # documented persist-assignments-then-reuse pattern)
        assigned = assigned.materialize()
        assigned.map_batches(
            lambda t: t.select([id_col, "cluster"]), batch_format="pyarrow"
        ).write_parquet(assignments_out)

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(id_col)
        n = len(df)
        if n == 0:  # dtype-matched empty (schema must unify across groups)
            return pd.DataFrame(
                {
                    id_col: np.empty(0, dtype=df[id_col].dtype),
                    "cluster": np.empty(0, dtype=np.int32),
                }
            )
        vecs = np.stack(df["vec"].to_numpy())
        sim = vecs @ vecs.T
        dup = np.any(np.tril(sim >= threshold, k=-1), axis=1)
        return pd.DataFrame(
            {id_col: df[id_col].to_numpy()[~dup], "cluster": df["cluster"].to_numpy()[~dup]}
        )

    return assigned.groupby("cluster").map_groups(prune, batch_format="pandas").sort(id_col)
