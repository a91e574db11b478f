"""Deterministic sampling / split assignment and exact column quantiles.

Training-data pipeline primitives:

- :func:`split_assign` — stable train/val/test assignment as a pure function
  of the row id (hash-bucket, not RNG): identical across runs, cluster sizes
  and repartitioning, which is the property a dataset split must have.  The
  mixer is :func:`rasterflow.stages.texthash.mulrot_hash64`, chosen because
  every step is ANSI-SQL-expressible, so the driver oracle verifies the
  assignment bit-for-bit.
- :func:`value_histogram` — the one reduce of the histogram family
  (column/group quantiles, rank transforms, Gini, MAD, mixture weights):
  per-block ``(group, value)`` count partials (only distinct pairs leave
  the map tasks) folded on the driver into one table sorted by (group,
  value), with no exchange.  The driver reads it in whole-array passes, :func:`rank_pick` and
  :func:`below`, never a loop per group.  Scale assumption: the
  distinct-value count per group is bounded (lengths, counts, scores in
  fixed ranges) — for unbounded continuous columns use the ``*_select``
  paths or pre-bucket first.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..util import coalesce_small, grouped_aggregate, keyed_fold


def split_assign(
    ds,
    id_col: str = "doc_id",
    val_pct: int = 10,
    test_pct: int = 10,
    seed: int = 0,
):
    """Adds a ``split`` column: test if bucket < test_pct, val if bucket <
    test_pct+val_pct, else train, with bucket = mulrot_hash64(id + seed) % 100.

    Ids are assumed non-negative (the SQL oracle replica computes the hash on
    HUGEINT, which matches uint64 wraparound only for non-negative inputs).
    """
    from ..stages.texthash import mulrot_hash64

    def f(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        with np.errstate(over="ignore"):
            bucket = (mulrot_hash64(ids.astype(np.uint64) + np.uint64(seed)) % np.uint64(100)).astype(
                np.int64
            )
        split = np.where(
            bucket < test_pct, "test", np.where(bucket < test_pct + val_pct, "val", "train")
        )
        return pa.table(
            {
                id_col: b.column(id_col),
                "bucket": pa.array(bucket),
                "split": pa.array(split.tolist(), type=pa.string()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def weighted_sample(
    ds,
    id_col: str = "doc_id",
    weight_col: str = "n_chars",
    scale: int = 400,
    seed: int = 0,
):
    """Deterministic importance-weighted Bernoulli downsample: keep a row
    with probability ``min(1, weight/scale)`` — the "sample long/high-value
    documents preferentially" curation step — decided by a pure hash of the
    id, so the result is reproducible, embarrassingly parallel, and
    resumable (no RNG state, no global pass).

    Keep rule (all-integer, exactly replicated by the SQL oracle):
    ``mulrot_hash64(id + seed) % 10000 < min(10000, weight*10000 // scale)``.
    Output: the surviving ``(id, weight)`` rows."""
    from ..stages.texthash import mulrot_hash64

    def f(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        w = b.column(weight_col).to_numpy(zero_copy_only=False).astype(np.int64)
        with np.errstate(over="ignore"):
            bucket = (mulrot_hash64(ids.astype(np.uint64) + np.uint64(seed)) % np.uint64(10000)).astype(np.int64)
        thresh = np.minimum(10000, w * 10000 // scale)
        return b.select([id_col, weight_col]).filter(pa.array(bucket < thresh))

    return ds.map_batches(f, batch_format="pyarrow")


def stratified_sample(
    ds,
    rates: dict[str, int],
    group_col: str = "lang",
    id_col: str = "doc_id",
    default_pct: int = 100,
    seed: int = 0,
):
    """Deterministic per-stratum downsample: keep a row iff
    ``mulrot_hash64(id + seed) % 100 < pct(group)`` — the "rebalance the
    language/source mix" curation step, as a pure hash of the id (no RNG,
    no global pass; identical across runs, cluster sizes and partitionings,
    like :func:`split_assign`).

    ``rates`` maps group value -> keep percentage (0..100); unlisted groups
    keep ``default_pct``.  Output: the surviving ``(id, group)`` rows.
    Embarrassingly parallel — one hash + one dictionary lookup per row, no
    shuffle."""
    from ..stages.texthash import mulrot_hash64

    def f(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        with np.errstate(over="ignore"):
            bucket = (
                mulrot_hash64(ids.astype(np.uint64) + np.uint64(seed)) % np.uint64(100)
            ).astype(np.int64)
        import pandas as pd

        g = pd.Series(b.column(group_col).to_numpy(zero_copy_only=False))
        pct = g.map(rates).fillna(default_pct).to_numpy(dtype=np.int64)
        return b.select([id_col, group_col]).filter(pa.array(bucket < pct))

    return ds.map_batches(f, batch_format="pyarrow")


def uniform_sample_k(
    ds,
    k: int,
    id_col: str = "doc_id",
    seed: int = 0,
    extra_cols: tuple[str, ...] = (),
):
    """Exactly-k uniform sample without RNG state: the k rows with the
    smallest ``(mulrot_hash64(id + seed), id)`` — a deterministic analogue of
    reservoir sampling that is reproducible across runs, cluster sizes and
    partitionings (same property as :func:`split_assign`).

    Each batch pre-selects its own k smallest (a global winner is by
    definition inside its batch's top-k), so the shuffle carries ≤ k·batches
    narrow rows; the final ``sort.limit(k)`` runs over tiny partials.
    Output: ``(id[, extra...], h)`` of the k winners, sorted by (h, id)."""
    from ..stages.texthash import mulrot_hash64

    cols = [id_col] + [c for c in extra_cols if c != id_col]

    def partial(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        with np.errstate(over="ignore"):
            h = mulrot_hash64(ids.astype(np.uint64) + np.uint64(seed)).astype(np.int64)
        if len(ids) > k:
            idx = np.lexsort((ids, h))[:k]
            b = b.take(pa.array(idx))
            h = h[idx]
        return b.select(cols).append_column("h", pa.array(h))

    partials = coalesce_small(ds.map_batches(partial, batch_format="pyarrow"), 0.25)
    return partials.sort(["h", id_col]).limit(k)


def group_sample_k(
    ds,
    group_col: str,
    k: int,
    id_col: str = "doc_id",
    seed: int = 0,
):
    """Exactly-k uniform sample PER GROUP (the "n examples per
    language/domain for eval" curation rule): each group's k rows with the
    smallest ``(mulrot_hash64(id + seed), id)`` — deterministic across
    runs, partitionings and cluster sizes, like :func:`uniform_sample_k`.

    Each batch pre-selects its own per-group bottom-k (a global winner is
    inside its batch's bottom-k), so the shuffle carries ≤ k·batches rows
    per group; the final merge is the hash-partitioned
    :func:`_grouped_head` — never per-group dispatch.  Output
    ``(group, id, h)`` sorted by (group, h, id); SQL-replicable via the
    mulrot HUGEINT chain + ROW_NUMBER."""
    from ..stages.texthash import mulrot_hash64

    def partial(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        gv = b.column(group_col).to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = mulrot_hash64(ids.astype(np.uint64) + np.uint64(seed)).astype(np.int64)
        df = pd.DataFrame({group_col: gv, id_col: ids, "h": h})
        df = df.sort_values(["h", id_col]).groupby(group_col, sort=False).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    partials = coalesce_small(ds.map_batches(partial, batch_format="pyarrow"), 0.25)
    return _grouped_head(
        partials, group_col, ["h", id_col], [True, True], k, [group_col, id_col, "h"]
    )


def group_stats(
    ds,
    col: str,
    group_col: str,
    ddof: int = 1,
):
    """Per-group count / mean / variance / stddev in ONE streaming pass:
    mergeable moment partials (n, Σv, Σv²) per batch (Chan et al.'s
    parallel-variance shape), one small grouped sum, then the closed form
    ``var = (Σv² − Σv·Σv/n) / (n − ddof)``.

    For INTEGER-valued columns the partial sums are exact int64, so mean,
    variance and stddev are bit-identical to a SQL oracle computing the
    same closed form on BIGINT sums (the float-sum oracle rule: only
    integer accumulations hash-match).  Float columns get float64 partials
    — still one-pass and mergeable, but only approximately comparable
    across engines.  Σv² of an int column caps at ~n·max²: int64-safe to
    ~10⁹ rows of 6-digit values per group; beyond that pass a float col."""
    def partial(b: pa.Table) -> pa.Table:
        v = b.column(col).to_numpy(zero_copy_only=False)
        gv = b.column(group_col).to_numpy(zero_copy_only=False)
        acc = np.int64 if np.issubdtype(v.dtype, np.integer) else np.float64
        df = pd.DataFrame(
            {
                group_col: gv,
                "_n": np.ones(len(v), dtype=np.int64),
                "_s": v.astype(acc),
                "_s2": (v.astype(acc) * v.astype(acc)),
            }
        )
        agg = df.groupby(group_col, as_index=False, sort=False).sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    red = grouped_aggregate(
        coalesce_small(ds.map_batches(partial, batch_format="pyarrow"), 0.125),
        group_col,
        {"n": ("_n", "sum"), "s": ("_s", "sum"), "s2": ("_s2", "sum")},
    )

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        s = b.column("s").to_numpy(zero_copy_only=False).astype(np.float64)
        s2 = b.column("s2").to_numpy(zero_copy_only=False).astype(np.float64)
        mean = s / n
        denom = n - ddof
        with np.errstate(invalid="ignore", divide="ignore"):
            var = np.where(denom > 0, (s2 - s * s / n) / denom, np.nan)
        return pa.table(
            {
                group_col: b.column(group_col),
                "n": b.column("n"),
                "mean": pa.array(mean),
                "var": pa.array(var),
                "std": pa.array(np.sqrt(var)),
            }
        )

    return red.map_batches(finish, batch_format="pyarrow").sort(group_col)


def rank_in_group(
    ds,
    group_col: str,
    order_col: str,
    id_col: str = "doc_id",
    ascending: bool = False,
    num_partitions: int | None = None,
    out_col: str = "rnk",
):
    """Dense row-numbering per group: rank = position by
    ``(order_col asc|desc, id asc)`` within the group — the full-table
    window analogue of :func:`top_k_per_group` (which keeps only the head).

    Hash-partitioned by group; each partition ranks ALL of its groups in one
    vectorized sort + ``groupby.cumcount`` (never per-group dispatch).
    Partitioning assumption: one GROUP's rows fit in one partition task —
    the same assumption as sessionize, standard for language/domain strata.
    Ties are impossible by construction (id breaks them), so the result is
    stable under any partitioning and matches the SQL ROW_NUMBER oracle."""
    import pandas as pd

    from ..util import _hash_cols, shuffle_parts

    if num_partitions is None:
        num_partitions = shuffle_parts(1.0)

    def addpk(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({group_col: b.column(group_col).to_numpy(zero_copy_only=False)})
        pk = (_hash_cols(df, [group_col]) % np.uint64(num_partitions)).astype(np.int32)
        return b.append_column("_pk", pa.array(pk))

    cols = [group_col, order_col, id_col]

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([order_col, id_col], ascending=[ascending, True], kind="stable")
        g[out_col] = g.groupby(group_col, sort=False).cumcount() + 1
        return g[cols + [out_col]]

    withpk = ds.map_batches(addpk, batch_format="pyarrow")
    return (
        withpk.groupby("_pk").map_groups(per_partition, batch_format="pandas").sort([id_col])
    )


def value_histogram(ds, col: str, group_col: str | None = None):
    """Exact value histogram of ``col`` per group, collected on the driver.

    One :func:`~rasterflow.util.keyed_fold`: a per-block Arrow count
    partial folded on the driver (null values and null groups drop out) —
    only distinct ``(group, value)`` pairs leave the map tasks (the
    bounded-distinct contract).

    Returns ``(groups, starts, v, cnt)``: ``v`` and its int64 counts
    ``cnt`` sorted by (group, value), group ``groups[i]`` owning
    ``v[starts[i]:starts[i + 1]]``.  Without ``group_col`` the whole
    histogram is one segment (none when empty) and ``groups`` is None."""
    keys = [col] if group_col is None else [group_col, col]
    t = keyed_fold(ds, keys, {"_cnt": (col, "count")})
    v, cnt = t.column(col).to_numpy(), t.column("_cnt").to_numpy()
    if group_col is None:
        return None, np.zeros(min(1, len(v)), dtype=np.int64), v, cnt
    g = t.column(group_col).to_numpy()
    starts = np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1]))) if len(g) else np.zeros(0, np.int64)
    return g[starts], starts, v, cnt


def rank_pick(cnt: np.ndarray, starts: np.ndarray, qs) -> np.ndarray:
    """Index into a :func:`value_histogram` of every group's ceil(q·n)-th
    smallest value (rank at least 1) — the explicit rank rule of every
    quantile here.  Shape ``(len(starts), len(qs))``; one ``searchsorted``
    of ``base + rank`` in the global cumulative count, no loop per group."""
    cum = np.cumsum(cnt)
    ends = np.append(starts[1:], len(cnt))[: len(starts)]
    edge = np.concatenate(([0], cum))
    base, n = edge[starts], edge[ends] - edge[starts]
    q = np.asarray(qs, dtype=np.float64)
    rank = np.maximum(1, np.ceil(q[None, :] * n[:, None])).astype(np.int64)
    return np.minimum(np.searchsorted(cum, base[:, None] + rank), ends[:, None] - 1)


def below(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum of ``x`` within each segment that ``starts``
    opens (count or sum of the strictly smaller values of a histogram)."""
    excl = np.cumsum(x) - x
    return excl - np.repeat(excl[starts], np.diff(np.append(starts, len(x))))


def _valid(b: pa.Table, cols: list[str]) -> np.ndarray:
    """Rows of ``b`` where no column of ``cols`` is null (or NaN) — the rows
    a :func:`value_histogram` counts."""
    ok = np.ones(b.num_rows, dtype=bool)
    for c in cols:
        ok &= ~pc.is_null(b.column(c), nan_is_null=True).to_numpy()
    return ok


def group_quantiles(
    ds,
    col: str,
    group_col: str,
    qs: tuple[float, ...] = (0.25, 0.5, 0.9),
):
    """Exact PER-GROUP quantiles of a bounded-distinct column: smallest v
    with within-group cumulative count ≥ ceil(q·n_group) — the grouped form
    of :func:`column_quantiles`, same explicit-rank definition.

    One :func:`value_histogram` (#groups × #distinct rows) and one
    :func:`rank_pick` over all groups.  Output ``(group, q, value)`` sorted
    by (group, q)."""
    import ray.data

    groups, starts, v, cnt = value_histogram(ds, col, group_col)
    return ray.data.from_arrow(
        pa.table(
            {
                group_col: pa.array(np.repeat(groups, len(qs))),
                "q": pa.array(np.tile(np.asarray(qs, dtype=np.float64), len(groups))),
                "value": pa.array(v[rank_pick(cnt, starts, qs).ravel()]),
            }
        )
    )


def column_quantiles(ds, col: str, qs: tuple[float, ...] = (0.1, 0.5, 0.9, 0.99)):
    """Exact quantiles: smallest v with cumulative count ≥ ceil(q·n).

    Output ``(q, value)`` sorted by q — the explicit-rank definition both
    this and the SQL oracle compute, so no quantile-convention ambiguity.
    One :func:`value_histogram` + :func:`rank_pick`; an empty (or all-null)
    column gives a null value per q.
    """
    import ray.data

    _, starts, v, cnt = value_histogram(ds, col)
    vals = v[rank_pick(cnt, starts, qs)[0]] if len(v) else [None] * len(qs)
    return ray.data.from_arrow(
        pa.table({"q": pa.array(np.asarray(qs, dtype=np.float64)), "value": pa.array(vals)})
    )


def _grouped_head(partials, group_col: str, sort_cols: list[str], ascending: list[bool], k: int, out_cols: list[str], num_partitions: int | None = None):
    """Final head-k-per-group merge over pre-reduced partials, WITHOUT
    per-group dispatch: hash-partition by group, then one vectorized
    sort + ``groupby.head`` per partition handles all of its groups at once
    (group cardinality can be millions of domains at web scale — the same
    pathology fixed in sessionize)."""
    import pandas as pd

    from ..util import _hash_cols, shuffle_parts

    if num_partitions is None:
        num_partitions = shuffle_parts(1.0)

    def addpk(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({group_col: b.column(group_col).to_numpy(zero_copy_only=False)})
        pk = (_hash_cols(df, [group_col]) % np.uint64(num_partitions)).astype(np.int32)
        return b.append_column("_pk", pa.array(pk))

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(sort_cols, ascending=ascending, kind="stable")
        return g.groupby(group_col, sort=False).head(k)[out_cols]

    withpk = partials.map_batches(addpk, batch_format="pyarrow")
    return withpk.groupby("_pk").map_groups(per_partition, batch_format="pandas").sort(
        [group_col] + [c for c in out_cols if c != group_col][:1]
    )


def cap_per_group(ds, group_col: str, k: int, id_col: str = "doc_id"):
    """Keep at most ``k`` rows per group, by ascending id — the C4-style
    "cap documents per domain/source" curation rule (deterministic:
    crawl-order ids, not sampling).

    Same two-stage shape as :func:`top_k_per_group`: each batch keeps its
    own first-k per group, so the shuffle carries ≤ k·batches rows per
    group; the final merge is hash-partitioned, never per-group."""

    def partial(b: pa.Table) -> pa.Table:
        df = b.select([group_col, id_col]).to_pandas()
        df = df.sort_values(id_col).groupby(group_col, sort=False).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    partials = coalesce_small(ds.map_batches(partial, batch_format="pyarrow"), 0.25)
    return _grouped_head(partials, group_col, [id_col], [True], k, [group_col, id_col])


def column_quantiles_select(
    ds,
    col: str,
    qs: tuple[float, ...] = (0.1, 0.5, 0.9, 0.99),
    max_collect: int = 4_000_000,
):
    """Exact quantiles for ARBITRARY columns — no bounded-distinct assumption
    (the upgrade named in :func:`column_quantiles`'s scale note).

    Distributed selection: sample candidate pivots from each active value
    interval, count exact ranks below each pivot in one vectorized pass
    (per-batch sort + ``searchsorted`` over all pivots at once), narrow each
    quantile's interval to the bucket containing its rank, and repeat until
    the bucket is small enough to collect and select exactly.  Every rank
    decision uses EXACT counts — the sample only chooses pivots, so the
    result is exact for any distribution; heavy duplicate runs resolve via
    the degenerate-interval shortcut (all remaining values equal ⇒ that
    value IS the answer).  O(log) passes, driver memory ≤ samples +
    ``max_collect``.

    Two pass-count economies (round 3): the total row count comes from a
    sentinel +inf pivot in the first count pass (no separate count pass),
    and quantiles sharing an interval (always true in round one) share one
    sample/count slot instead of duplicating work per quantile.

    Same rank definition as :func:`column_quantiles`: smallest v with
    cumulative count ≥ ceil(q·n).
    """
    import ray.data

    sample_per_batch = 1024  # pivot candidates per batch and interval
    max_rounds = 8

    def _vals(b: pa.Table) -> np.ndarray:
        c = b.column(col)
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        return c.drop_null().to_numpy(zero_copy_only=False)

    def in_interval(v: np.ndarray, l, h) -> np.ndarray:
        m = np.ones(len(v), dtype=bool)
        if l is not None:
            m &= v > l
        if h is not None:
            m &= v <= h
        return v[m]

    nq = len(qs)
    lo: list = [None] * nq  # None = -inf
    hi: list = [None] * nq  # None = +inf
    cnt_lo = [0] * nq
    cnt_hi: list = [None] * nq  # None = unknown until the first count pass
    answer: list = [None] * nq
    done = [False] * nq
    ranks: list = []
    n = None

    for _ in range(max_rounds):
        open_q = [i for i in range(nq) if not done[i]]
        if not open_q:
            break
        small = [
            i for i in open_q if cnt_hi[i] is not None and cnt_hi[i] - cnt_lo[i] <= max_collect
        ]
        if small:
            uniq: dict = {}
            for i in small:
                uniq.setdefault((lo[i], hi[i]), []).append(i)
            intervals = list(uniq)

            def collect(b: pa.Table, iv=tuple(intervals)) -> pa.Table:
                v = _vals(b)
                outs = [in_interval(v, l, h) for (l, h) in iv]
                which = np.repeat(np.arange(len(iv)), [len(o) for o in outs])
                return pa.table(
                    {"w": pa.array(which.astype(np.int32)),
                     "v": pa.array(np.concatenate(outs) if outs else np.empty(0))}
                )

            got: dict[int, list] = {j: [] for j in range(len(intervals))}
            for b in ds.map_batches(collect, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow", batch_size=None
            ):
                w = np.asarray(b.column("w"))
                v = b.column("v").to_numpy(zero_copy_only=False)
                for j in range(len(intervals)):
                    got[j].append(v[w == j])
            for j, iv in enumerate(intervals):
                vals = np.sort(np.concatenate(got[j])) if got[j] else np.empty(0)
                for i in uniq[iv]:
                    answer[i] = vals[ranks[i] - cnt_lo[i] - 1]
                    done[i] = True
            continue

        # pivot round over the UNIQUE open intervals (shared across quantiles)
        uniq = {}
        for i in open_q:
            uniq.setdefault((lo[i], hi[i]), []).append(i)
        intervals = list(uniq)

        def sample(b: pa.Table, iv=tuple(intervals)) -> pa.Table:
            v = _vals(b)
            outs = []
            for (l, h) in iv:
                sv = np.sort(in_interval(v, l, h))
                if len(sv):
                    idx = np.unique(
                        np.linspace(0, len(sv) - 1, num=min(sample_per_batch, len(sv))).astype(np.int64)
                    )
                    outs.append(sv[idx])
                else:
                    outs.append(sv)
            which = np.repeat(np.arange(len(iv)), [len(o) for o in outs])
            return pa.table(
                {"w": pa.array(which.astype(np.int32)),
                 "v": pa.array(np.concatenate(outs) if outs else np.empty(0))}
            )

        samp: dict[int, list] = {j: [] for j in range(len(intervals))}
        for b in ds.map_batches(sample, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        ):
            w = np.asarray(b.column("w"))
            v = b.column("v").to_numpy(zero_copy_only=False)
            for j in range(len(intervals)):
                samp[j].append(v[w == j])
        pivots: list[np.ndarray] = []
        for j, iv in enumerate(intervals):
            sv = np.unique(np.concatenate(samp[j])) if samp[j] else np.empty(0)
            if len(sv) <= 1 and n is not None:
                # degenerate interval: every remaining value identical — that
                # value is the answer at any rank inside the bucket
                for i in uniq[iv]:
                    answer[i] = sv[0] if len(sv) else hi[i]
                    done[i] = True
                pivots.append(np.empty(0))
                continue
            if len(sv) == 0:
                pivots.append(np.empty(0))
                continue
            take = np.unique(np.linspace(0, len(sv) - 1, num=min(256, len(sv))).astype(np.int64))
            pivots.append(sv[take])

        parts = [p for p in pivots if len(p)]
        sentinel = n is None
        if not parts and not sentinel:
            continue
        flat_p = np.concatenate(parts) if parts else np.empty(0)
        if sentinel:
            flat_p = np.append(flat_p, np.inf)  # counts ALL rows: total n

        def countp(b: pa.Table, piv=flat_p) -> pa.Table:
            v = np.sort(_vals(b))
            return pa.table({"c": pa.array(np.searchsorted(v, piv, side="right").astype(np.int64))})

        tot = np.zeros(len(flat_p), dtype=np.int64)
        for b in ds.map_batches(countp, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        ):
            # blocks may concatenate several per-batch count vectors
            tot += b.column("c").to_numpy(zero_copy_only=False).reshape(-1, len(flat_p)).sum(axis=0)
        if sentinel:
            n = int(tot[-1])
            tot, flat_p = tot[:-1], flat_p[:-1]
            if n == 0:
                for i in range(nq):
                    done[i] = True
                break
            ranks = [max(1, math.ceil(q * float(n))) for q in qs]
            for i in range(nq):
                if cnt_hi[i] is None:
                    cnt_hi[i] = n
        offs = np.concatenate(([0], np.cumsum([len(p) for p in pivots])))
        for j, iv in enumerate(intervals):
            p = pivots[j]
            if len(p) == 0:
                continue
            c = tot[offs[j] : offs[j + 1]]
            for i in uniq[iv]:
                if done[i]:
                    continue
                r = ranks[i]
                pos = int(np.searchsorted(c, r))
                if pos < len(p):
                    hi[i] = p[pos]
                    cnt_hi[i] = int(c[pos])
                if pos > 0:
                    lo[i] = p[pos - 1]
                    cnt_lo[i] = int(c[pos - 1])
    if not all(done):  # pragma: no cover - defensive
        raise RuntimeError("quantile selection did not converge")
    return ray.data.from_arrow(
        pa.table({"q": pa.array(list(map(float, qs)), type=pa.float64()), "value": pa.array(list(answer))})
    )


def group_quantiles_select(
    ds,
    col: str,
    group_col: str,
    qs: tuple[float, ...] = (0.25, 0.5, 0.9),
    max_collect: int = 2_000_000,
):
    """Exact PER-GROUP quantiles for ARBITRARY value columns — the grouped
    form of :func:`column_quantiles_select`, with NO bounded-distinct
    assumption (upgrades :func:`group_quantiles`, whose driver histogram
    materializes every distinct ``(group, value)`` pair — fatal for a
    continuous per-group metric at web scale).

    Same distributed selection, with the interval state keyed by
    ``(group, quantile)``: one small inventory pass gives each group's row
    count; each round samples candidate pivots per active (group, interval),
    counts EXACT within-group ranks below every pivot in one
    (group, value)-lexsorted pass per batch, and narrows.  The sample only
    picks pivots — every narrowing decision uses exact counts, so results
    are exact for any distribution.  Converges in O(log) passes; driver
    memory is O(#groups × #qs) scalars plus ≤ ``max_collect`` collected
    values, NOT O(#distinct).

    Sizing: per-batch work holds a loop over ACTIVE groups (vectorized
    searchsorted per group segment), so this is built for the
    per-language / per-source / per-bucket reporting shape (10²–10⁴
    groups).  Millions of groups want :func:`group_quantiles` (bounded
    distinct) or a sketch.

    Output ``(group, q, value)`` sorted by (group, q) — same rank rule as
    :func:`column_quantiles`: smallest v with within-group cumulative
    count ≥ ceil(q·n_group)."""
    import ray.data

    sample_per_batch = 256  # pivot candidates per batch and (group, interval)
    max_rounds = 12

    # pass 0: group inventory + exact row counts (one tiny row per group)
    def cpartial(b: pa.Table) -> pa.Table:
        gv = b.column(group_col).to_numpy(zero_copy_only=False)
        vv = b.column(col).to_numpy(zero_copy_only=False)
        ok = ~pd.isna(vv)
        vc = pd.Series(gv[ok]).value_counts()
        return pa.table(
            {
                group_col: pa.array(vc.index.to_numpy()),
                "n": pa.array(vc.to_numpy().astype(np.int64)),
            }
        )

    gcounts = (
        grouped_aggregate(
            coalesce_small(ds.map_batches(cpartial, batch_format="pyarrow"), 0.125),
            group_col,
            {"n": ("n", "sum")},
        )
        .to_pandas()
        .sort_values(group_col)
        .reset_index(drop=True)
    )
    groups = gcounts[group_col].to_numpy()
    ng = gcounts["n"].to_numpy().astype(np.int64)
    G, nq = len(groups), len(qs)
    if G == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    group_col: pa.array([], type=pa.string()),
                    "q": pa.array([], type=pa.float64()),
                    "value": pa.array([], type=pa.float64()),
                }
            )
        )
    gmap = {g: i for i, g in enumerate(groups)}
    ranks = np.maximum(1, np.ceil(np.asarray(qs)[None, :] * ng[:, None])).astype(np.int64)

    lo = np.full((G, nq), None, dtype=object)  # None = -inf
    hi = np.full((G, nq), None, dtype=object)  # None = +inf
    cnt_lo = np.zeros((G, nq), dtype=np.int64)
    cnt_hi = np.broadcast_to(ng[:, None], (G, nq)).copy()
    answer = np.full((G, nq), None, dtype=object)
    done = np.zeros((G, nq), dtype=bool)

    def _batch_sorted(b: pa.Table):
        """(group codes, values) of the batch, lexsorted by (code, value);
        rows with null values or unseen groups dropped."""
        gv = b.column(group_col).to_numpy(zero_copy_only=False)
        vv = b.column(col).to_numpy(zero_copy_only=False)
        code = pd.Series(gv).map(gmap).to_numpy()
        ok = ~(pd.isna(vv) | pd.isna(code))
        code = code[ok].astype(np.int64)
        v = vv[ok].astype(np.float64)
        o = np.lexsort((v, code))
        return code[o], v[o]

    def _seg(code: np.ndarray, gi: int) -> tuple[int, int]:
        return (
            int(np.searchsorted(code, gi, side="left")),
            int(np.searchsorted(code, gi, side="right")),
        )

    def _interval_slice(seg: np.ndarray, l, h) -> np.ndarray:
        s = int(np.searchsorted(seg, l, side="right")) if l is not None else 0
        e = int(np.searchsorted(seg, h, side="right")) if h is not None else len(seg)
        return seg[s:e]

    for _ in range(max_rounds):
        open_idx = np.argwhere(~done)
        if len(open_idx) == 0:
            break
        # interval -> member (g, qi) list, deduped (quantiles share work)
        uniq: dict = {}
        for gi, qi in open_idx:
            uniq.setdefault((int(gi), lo[gi, qi], hi[gi, qi]), []).append((int(gi), int(qi)))
        small = {
            iv: mem
            for iv, mem in uniq.items()
            if cnt_hi[mem[0]] - cnt_lo[mem[0]] <= max_collect
        }
        if small:
            intervals = list(small)

            def collect(b: pa.Table, iv=tuple(intervals)) -> pa.Table:
                code, v = _batch_sorted(b)
                outs = []
                for (gi, l, h) in iv:
                    s, e = _seg(code, gi)
                    outs.append(_interval_slice(v[s:e], l, h))
                which = np.repeat(np.arange(len(iv)), [len(o) for o in outs])
                return pa.table(
                    {
                        "w": pa.array(which.astype(np.int32)),
                        "v": pa.array(
                            np.concatenate(outs) if outs else np.empty(0)
                        ),
                    }
                )

            got: dict[int, list] = {j: [] for j in range(len(intervals))}
            for b in ds.map_batches(collect, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow", batch_size=None
            ):
                w = np.asarray(b.column("w"))
                v = b.column("v").to_numpy(zero_copy_only=False)
                for j in range(len(intervals)):
                    got[j].append(v[w == j])
            for j, iv in enumerate(intervals):
                vals = np.sort(np.concatenate(got[j])) if got[j] else np.empty(0)
                for (gi, qi) in small[iv]:
                    answer[gi, qi] = vals[ranks[gi, qi] - cnt_lo[gi, qi] - 1]
                    done[gi, qi] = True
            continue

        intervals = list(uniq)

        def sample(b: pa.Table, iv=tuple(intervals)) -> pa.Table:
            code, v = _batch_sorted(b)
            outs = []
            for (gi, l, h) in iv:
                s, e = _seg(code, gi)
                sv = _interval_slice(v[s:e], l, h)  # already sorted
                if len(sv):
                    idx = np.unique(
                        np.linspace(
                            0, len(sv) - 1, num=min(sample_per_batch, len(sv))
                        ).astype(np.int64)
                    )
                    sv = sv[idx]
                outs.append(sv)
            which = np.repeat(np.arange(len(iv)), [len(o) for o in outs])
            return pa.table(
                {
                    "w": pa.array(which.astype(np.int32)),
                    "v": pa.array(np.concatenate(outs) if outs else np.empty(0)),
                }
            )

        samp: dict[int, list] = {j: [] for j in range(len(intervals))}
        for b in ds.map_batches(sample, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        ):
            w = np.asarray(b.column("w"))
            v = b.column("v").to_numpy(zero_copy_only=False)
            for j in range(len(intervals)):
                samp[j].append(v[w == j])
        pivots: list[np.ndarray] = []
        for j, iv in enumerate(intervals):
            sv = np.unique(np.concatenate(samp[j])) if samp[j] else np.empty(0)
            if len(sv) <= 1:
                # degenerate interval: the per-batch linspace sample always
                # includes each batch's min/max, so ≤1 unique sampled value
                # means every remaining value is identical
                for (gi, qi) in uniq[iv]:
                    answer[gi, qi] = sv[0] if len(sv) else hi[gi, qi]
                    done[gi, qi] = True
                pivots.append(np.empty(0))
                continue
            take = np.unique(
                np.linspace(0, len(sv) - 1, num=min(256, len(sv))).astype(np.int64)
            )
            pivots.append(sv[take])

        parts = [(j, p) for j, p in enumerate(pivots) if len(p)]
        if not parts:
            continue
        pg = np.concatenate(
            [np.full(len(p), intervals[j][0], dtype=np.int64) for j, p in parts]
        )
        pv = np.concatenate([p for _j, p in parts])

        def countp(b: pa.Table, pg=pg, pv=pv) -> pa.Table:
            code, v = _batch_sorted(b)
            c = np.empty(len(pv), dtype=np.int64)
            for gi in np.unique(pg):
                sel = pg == gi
                s, e = _seg(code, gi)
                c[sel] = np.searchsorted(v[s:e], pv[sel], side="right")
            return pa.table({"c": pa.array(c)})

        tot = np.zeros(len(pv), dtype=np.int64)
        for b in ds.map_batches(countp, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        ):
            tot += (
                b.column("c")
                .to_numpy(zero_copy_only=False)
                .reshape(-1, len(pv))
                .sum(axis=0)
            )
        offs = np.concatenate(([0], np.cumsum([len(p) for p in pivots])))
        for j, iv in enumerate(intervals):
            p = pivots[j]
            if len(p) == 0:
                continue
            c = tot[offs[j] : offs[j + 1]]
            for (gi, qi) in uniq[iv]:
                if done[gi, qi]:
                    continue
                r = ranks[gi, qi]
                pos = int(np.searchsorted(c, r))
                if pos < len(p):
                    hi[gi, qi] = p[pos]
                    cnt_hi[gi, qi] = int(c[pos])
                if pos > 0:
                    lo[gi, qi] = p[pos - 1]
                    cnt_lo[gi, qi] = int(c[pos - 1])
    if not done.all():  # pragma: no cover - defensive
        raise RuntimeError("grouped quantile selection did not converge")

    gout = np.repeat(groups, nq)
    qout = np.tile(np.asarray(qs, dtype=np.float64), G)
    vout = answer.reshape(-1)
    return ray.data.from_arrow(
        pa.table(
            {
                group_col: pa.array(gout),
                "q": pa.array(qout, type=pa.float64()),
                "value": pa.array(list(vout)),
            }
        )
    )


def top_k_per_group(
    ds, group_col: str, score_col: str, k: int, id_col: str = "doc_id",
    extra_cols: list[str] | tuple[str, ...] = (),
):
    """Per-group top-k rows by score — the data-curation "keep the best N
    documents per language/source" selection.

    Two-stage (round 3, the upgrade named in r2): each batch keeps only its
    own per-group top-k (one vectorized sort + ``groupby.head`` — any global
    winner is by definition inside its batch's top-k), so the shuffle
    carries ≤ k·batches rows per group instead of the whole table; the final
    per-group merge then runs over tiny partials.  Ties break
    deterministically by (score desc, id asc) at BOTH stages, so the result
    is stable under any partitioning and matches the SQL window oracle.
    ``extra_cols`` are carried through unchanged (they never affect order).
    """
    import pandas as pd

    cols = [group_col, id_col, score_col] + [
        c for c in extra_cols if c not in (group_col, id_col, score_col)
    ]

    def partial(b: pa.Table) -> pa.Table:
        df = b.select(cols).to_pandas()
        df = df.sort_values([score_col, id_col], ascending=[False, True])
        df = df.groupby(group_col, sort=False).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    partials = coalesce_small(ds.map_batches(partial, batch_format="pyarrow"), 0.25)
    return _grouped_head(
        partials, group_col, [score_col, id_col], [False, True], k, cols,
    )


def interleave_mix(
    ds,
    group_col: str,
    weights: dict[str, float],
    id_col: str = "doc_id",
    k: int = 200,
    num_partitions: int | None = None,
):
    """Deterministic weighted interleave of sources — the epoch-ordering /
    curriculum step of training-data assembly: emit documents so that every
    prefix of the schedule holds each source in proportion to its weight.

    Classic stride scheduling: rank documents within each source by id
    (stable under any partitioning), give each the order key ``rank /
    weight`` (a source with twice the weight appears twice as often in any
    window), and take the first ``k`` of the global schedule by ``(key,
    id)``.  Sources absent from ``weights`` are dropped (visible, not
    renormalized — same contract as :func:`mixture_weights`).

    Plan: one hash exchange to rank (per-partition vectorized sort +
    cumcount, the :func:`rank_in_group` plan), a row-local key, then the
    per-block partial top-k — the full schedule is never sorted globally.
    ``rank / weight`` is a single float64 division of an integer, so the
    SQL oracle hash-matches bit-exactly."""
    from ..util import _hash_cols, shuffle_parts

    if num_partitions is None:
        num_partitions = shuffle_parts(1.0)

    def addpk(b: pa.Table) -> pa.Table:
        m = pc.is_in(b.column(group_col), value_set=pa.array(list(weights.keys())))
        b = b.filter(m)
        df = pd.DataFrame({group_col: b.column(group_col).to_numpy(zero_copy_only=False)})
        pk = (_hash_cols(df, [group_col]) % np.uint64(num_partitions)).astype(np.int32)
        return b.append_column("_pk", pa.array(pk))

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="stable")
        rnk = (g.groupby(group_col, sort=False).cumcount() + 1).astype(np.int64)
        w = g[group_col].map(weights).astype(np.float64).to_numpy()
        out = g[[id_col, group_col]].copy()
        out["rnk"] = rnk
        out["order_key"] = rnk.to_numpy().astype(np.float64) / w
        return out

    from ..pipelines.zonal import smallest_k

    ranked = (
        ds.map_batches(addpk, batch_format="pyarrow")
        .groupby("_pk")
        .map_groups(per_partition, batch_format="pandas")
    )
    return smallest_k(ranked, "order_key", id_col, k).sort(["order_key", id_col])


def mixture_weights(ds, group_col: str, target: dict[str, float]):
    """Per-stratum resampling weights to hit a TARGET mixture — the
    domain-rebalance step between corpus stats and weighted_sample: a
    stratum holding share p of the corpus but targeted at share t gets
    weight t/p (>1 = upsample, <1 = downsample).

    One exchange (the :func:`value_histogram` of the stratum column); the
    driver finalize is stratum-count-sized.  Strata absent from ``target``
    get weight 0.0 — dropped by a downstream weighted sample, and visible
    (not silently renormalized) in the output.  Output: (group, n_docs,
    actual_share, weight), sorted by group; float expressions are single
    divisions of integer-valued counts, so the SQL oracle hash-matches
    bit-exactly.
    """
    import ray.data

    _, _, g, n_docs = value_histogram(ds, group_col)
    n = n_docs.astype(np.float64)
    share = n / n.sum()
    tgt = np.array([float(target.get(x, 0.0)) for x in g])
    return ray.data.from_arrow(
        pa.table(
            {
                group_col: pa.array(g),
                "n_docs": pa.array(n_docs),
                "actual_share": pa.array(share),
                "weight": pa.array(tgt / share),
            }
        )
    )


def token_budget_sample(
    ds,
    budget: int,
    group_col: str = "lang",
    id_col: str = "doc_id",
    text_col: str = "text",
    token_col: str | None = None,
    seed: int = 0,
):
    """Per-stratum selection to a TOKEN budget (not a doc count): within each
    ``group_col`` stratum, walk docs in deterministic pseudo-random order —
    ascending ``(mulrot_hash64(id + seed) as int64, id)``, the
    :func:`uniform_sample_k` order — and keep every doc whose running token
    total stays ≤ ``budget``.  This is the data-mixing step of training-data
    assembly ("200 B tokens of English, 50 B of German"), where doc-count
    sampling over-represents short documents.

    The cumulative rule means inclusion depends on ALL earlier docs in the
    stratum's hash order, so each stratum reduces in one task over narrow
    ``(group, id, h, n_tok)`` rows — the text never moves (token counts are
    computed at the scan, like :func:`packing.pack_sequences`, which shares
    this one-stratum-per-task posture and its ``STRATUM_WARN_ROWS`` guard).
    A 100 TB stratum escape hatch: pre-split the stratum by a second key and
    budget each split.

    Output: the kept ``(group, id, n_tok, cum_tok)`` rows sorted by id —
    ``cum_tok`` is the inclusive running total in selection order, so the
    result is auditable against the budget.
    """
    from .packing import _warn_giant_stratum
    from ..stages.texthash import mulrot_hash64

    def counts(b: pa.Table) -> pa.Table:
        if token_col is not None:
            n = pc.cast(b.column(token_col), pa.int64())
        else:
            n = pc.cast(pc.count_substring_regex(b.column(text_col), r"\S+"), pa.int64())
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        with np.errstate(over="ignore"):
            h = mulrot_hash64(ids.astype(np.uint64) + np.uint64(seed)).astype(np.int64)
        return pa.table(
            {
                group_col: b.column(group_col),
                id_col: b.column(id_col),
                "h": pa.array(h),
                "n_tok": n,
            }
        )

    def take_budget(g: pd.DataFrame) -> pd.DataFrame:
        _warn_giant_stratum(len(g), g[group_col].iloc[0] if len(g) else None)
        g = g.sort_values(["h", id_col], kind="stable").reset_index(drop=True)
        cum = g["n_tok"].to_numpy().cumsum()
        keep = cum <= budget
        out = g.loc[keep, [group_col, id_col, "n_tok"]].copy()
        out["cum_tok"] = cum[keep]
        return out

    slim = ds.map_batches(counts, batch_format="pyarrow")
    return slim.groupby(group_col).map_groups(take_budget, batch_format="pandas").sort(id_col)


def _skyline_mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean mask of the maxima (Pareto front, maximize both): a row is
    dominated iff some row has x' > x with y' >= y, or x' == x with y' > y
    (exact duplicates dominate nothing and survive together).  One sort +
    suffix-max, fully vectorized."""
    n = len(x)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((-y, -x))  # x desc, y desc
    xs, ys = x[order], y[order]
    # suffix handling in x-descending order: max y over STRICTLY greater x
    new_x = np.ones(n, dtype=bool)
    new_x[1:] = xs[1:] != xs[:-1]
    grp = np.cumsum(new_x) - 1  # group ordinal per distinct x (desc)
    gmax = np.maximum.reduceat(ys, np.flatnonzero(new_x))  # per-group max y
    prev_best = np.full(len(gmax), -np.inf)
    if len(gmax) > 1:
        prev_best[1:] = np.maximum.accumulate(gmax[:-1])  # max y of greater x
    dominated = (prev_best[grp] >= ys) | (gmax[grp] > ys)
    mask = np.zeros(n, dtype=bool)
    mask[order] = ~dominated
    return mask


def group_skyline(
    ds, group_col: str, x_col: str, y_col: str, id_col: str = "doc_id", sort: bool = True
):
    """Per-GROUP skyline: each group's Pareto front under (maximize x,
    maximize y) — "the best documents of every language".

    Same compose-exactly property per group; each block keeps its per-group
    local fronts in ONE vectorized pass (sort by (group, -x, -y), per-group
    suffix-max via ``reduceat`` segments), then a single merge task re-runs
    the kernel over the concatenated partials.  Returns the surviving rows.
    """
    import pyarrow as pa

    cols = [group_col, id_col, x_col, y_col]

    def front(t: pa.Table) -> pa.Table:
        t = t.select(cols)
        g = t.column(group_col).to_pandas().to_numpy()
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        keep = np.zeros(len(t), dtype=bool)
        import pandas as pd

        codes, _ = pd.factorize(g, sort=False)
        for c in np.unique(codes):  # bounded by group count per block
            m = codes == c
            idx = np.flatnonzero(m)
            keep[idx[_skyline_mask(x[idx], y[idx])]] = True
        return t.filter(pa.array(keep))

    out = ds.map_batches(front, batch_format="pyarrow").repartition(1).map_batches(
        front, batch_format="pyarrow"
    )
    return out.sort([group_col, id_col]) if sort else out


def skyline(ds, x_col: str, y_col: str, id_col: str = "doc_id", sort: bool = True):
    """Distributed skyline (Pareto-front) query: rows not dominated in the
    (maximize ``x_col``, maximize ``y_col``) order — multi-criteria "best"
    selection (longest AND lexically-richest documents, cheapest AND
    fastest suppliers, ...).

    Skylines compose: ``skyline(A ∪ B) = skyline(skyline(A) ∪ skyline(B))``,
    so each block keeps only its local front (one vectorized sort +
    suffix-max, typically a tiny fraction of the block) and a single merge
    task re-runs the same kernel over the concatenated partials — the
    ``smallest_k`` plan shape, no global sort.  Exact duplicates of a front
    point all survive (they dominate nothing), matching the SQL NOT-EXISTS
    oracle's semantics.
    """
    import pyarrow as pa

    cols = [id_col, x_col, y_col]

    def front(t: pa.Table) -> pa.Table:
        t = t.select(cols)
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        return t.filter(pa.array(_skyline_mask(x, y)))

    out = ds.map_batches(front, batch_format="pyarrow").repartition(1).map_batches(
        front, batch_format="pyarrow"
    )
    return out.sort(id_col) if sort else out


def rank_transform(ds, col: str, id_col: str = "doc_id", sort: bool = True):
    """Exact rank / percentile normalization: append ``rank_lt`` — the count
    of rows with a strictly smaller value — the ML-preprocessing rank
    transform (percentile = (rank_lt + 1) / n on the consumer side).

    Two passes, bounded-distinct contract (the :func:`column_quantiles`
    class — scores, lengths, grades; NOT continuous uniques): pass 1 is the
    :func:`value_histogram`, folded by :func:`below` into a sorted
    (values, cumulative-below) table broadcast once; pass 2 is a row-local
    ``searchsorted`` gather — the rows themselves never shuffle.  A row
    with a null value gets a null rank (the histogram holds no nulls).
    """
    import ray

    _, starts, values, cnt = value_histogram(ds, col)
    ref = ray.put((values, below(cnt, starts)))

    def gather(b: pa.Table) -> pa.Table:
        vals, bel = ray.get(ref)
        ok = _valid(b, [col])
        rank = np.zeros(len(ok), dtype=np.int64)
        rank[ok] = bel[np.searchsorted(vals, b.column(col).to_numpy(zero_copy_only=False)[ok])]
        return b.select([id_col, col]).append_column("rank_lt", pa.array(rank, mask=~ok))

    out = ds.map_batches(gather, batch_format="pyarrow")
    return out.sort(id_col) if sort else out


def group_mad(ds, col: str, group_col: str):
    """Per-group ROBUST statistics: the rank-rule median and the MAD
    (median absolute deviation) — outlier-resistant scale estimation for
    quality gating where means/stds are poisoned by heavy tails.

    Two :func:`value_histogram` passes under the bounded-distinct contract
    (the :func:`group_quantiles` class): pass 1 picks each group's median;
    the tiny (group → median) map broadcasts; pass 2 histograms the
    absolute deviations ``_dev`` per group and picks their median the same
    way.  Both passes see the same groups in the same order (a deviation is
    null only where its value is).  Only distinct ``(group, value)`` pairs
    leave the map tasks.  Integer columns stay integer end to end (|v - med|
    is exact).  Returns ``(group, median, mad)``, built on the driver in
    group order.
    """
    import ray
    import ray.data

    groups, starts, v, cnt = value_histogram(ds, col, group_col)
    med = v[rank_pick(cnt, starts, (0.5,))[:, 0]]
    ref = ray.put(dict(zip(groups, med)))

    def dev(b: pa.Table) -> pa.Table:
        m = ray.get(ref)
        gm = b.column(group_col).to_pandas().map(m).to_numpy()
        d = np.abs(b.column(col).to_numpy(zero_copy_only=False) - gm)
        return pa.table({group_col: b.column(group_col), "_dev": pa.array(d)})

    _, dstarts, d, dcnt = value_histogram(
        ds.map_batches(dev, batch_format="pyarrow"), "_dev", group_col
    )
    return ray.data.from_arrow(
        pa.table(
            {
                group_col: pa.array(groups),
                "median": pa.array(med.astype(np.int64)),
                "mad": pa.array(d[rank_pick(dcnt, dstarts, (0.5,))[:, 0]].astype(np.int64)),
            }
        )
    )


def group_gini(ds, col: str, group_col: str):
    """Per-group inequality: the exact Gini NUMERATOR ``Σ_{i,j} |x_i - x_j|``
    over all ordered pairs, plus n and Σx — the consumer divides
    ``gini_num / (2 n² mean)`` for the coefficient.  Length/score
    inequality is a corpus-health signal (is one domain hogging tokens?).

    Integer-exact without touching pairs: from each group's value histogram
    (:func:`value_histogram`, the bounded-distinct contract), Σ|xi−xj| =
    2·Σ_j c_j·(v_j·N_{<j} − S_{<j}) with the :func:`below` prefix
    counts/sums — one vectorized pass over the COLLAPSED (group, value)
    table for all groups, never O(n²).  Only distinct pairs leave the map
    tasks.  Returns ``(group, n, sum_v, gini_num)``, all int64, built on the
    driver in group order.
    """
    import ray.data

    groups, starts, v, c = value_histogram(ds, col, group_col)
    v = v.astype(np.int64)
    cv = c * v
    gnum = 2 * np.add.reduceat(c * (v * below(c, starts) - below(cv, starts)), starts)
    return ray.data.from_arrow(
        pa.table(
            {
                group_col: pa.array(groups),
                "n": pa.array(np.add.reduceat(c, starts)),
                "sum_v": pa.array(np.add.reduceat(cv, starts)),
                "gini_num": pa.array(gnum),
            }
        )
    )


def group_rank_transform(ds, col: str, group_col: str, id_col: str = "doc_id", sort: bool = True):
    """Rank transform WITHIN groups: append ``rank_lt`` = count of same-group
    rows with a strictly smaller value — per-language percentile features
    (per-group thresholds without per-group jobs).

    The (group, value) :func:`value_histogram` collapses distributed
    (bounded-distinct contract); :func:`below` turns it into per-group
    sorted (values, cumulative-below) segments, broadcast once; each batch
    gathers per group present in the batch (loop over groups, vectorized
    within) — rows never shuffle.  A row with a null value or a null group
    gets a null rank.
    """
    import ray

    groups, starts, values, cnt = value_histogram(ds, col, group_col)
    ends = np.append(starts[1:], len(values))
    ref = ray.put((dict(zip(groups, zip(starts, ends))), values, below(cnt, starts)))

    def gather(b: pa.Table) -> pa.Table:
        seg, vals, bel = ray.get(ref)
        ok = _valid(b, [group_col, col])
        g = b.column(group_col).to_pandas().to_numpy()
        v = b.column(col).to_numpy(zero_copy_only=False)
        out = np.zeros(len(v), dtype=np.int64)
        for gv in pd.unique(g[ok]):  # groups per batch, not rows
            m = ok & (g == gv)
            s, e = seg[gv]
            out[m] = bel[s + np.searchsorted(vals[s:e], v[m])]
        return b.select([id_col, group_col, col]).append_column("rank_lt", pa.array(out, mask=~ok))

    out = ds.map_batches(gather, batch_format="pyarrow")
    return out.sort(id_col) if sort else out
