"""Relational operators Ray Data lacks as first-class citizens: broadcast
hash join, partitioned (fact ⋈ fact) hash join, and as-of join.

Both follow the engine's standing scale doctrine:

- :func:`broadcast_join` — the small side ships ONCE via ``ray.put`` and
  every batch joins against it with pyarrow's C++ hash join — no all-to-all
  exchange at all (`ray.data.Dataset.join` in 2.49 shuffles both sides;
  for a dimension-table-sized right side that is pure waste).
- :func:`asof_join` — "for each left row, the most recent right row at or
  before its timestamp, per key" (the feature-joining primitive for event
  logs).  Implemented as one hash partition by key + a per-partition
  ``pandas.merge_asof`` (vectorized C): only rows of the SAME key ever meet,
  so partitions are independent and the shuffle carries each side once.

Determinism: asof ties (equal right timestamps) resolve to the highest
right id — the right side is stably sorted by (ts, id) and merge_asof
matches the last occurrence; the SQL oracle mirrors this with
``ORDER BY r_ts DESC, r_id DESC``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray


def broadcast_join(
    ds,
    small: pa.Table,
    on: str | list[str],
    join_type: str = "inner",
):
    """Join a Dataset against a broadcast (driver-resident) pyarrow Table.

    ``small`` is put in the object store once; each batch runs pyarrow's
    C++ hash join against it.  Use for dimension tables / lookup sides that
    fit comfortably in worker memory (the classic broadcast-join pattern —
    at 100 TB the big side streams, the small side never moves twice)."""
    keys = [on] if isinstance(on, str) else list(on)
    ref = ray.put(small) if ray.is_initialized() else small

    def f(b: pa.Table) -> pa.Table:
        s = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        return b.join(s, keys=keys, join_type=join_type)

    return ds.map_batches(f, batch_format="pyarrow")


def _hot_keys_scan(ds, keys: list[str], frac: float, topk: int = 64) -> pd.DataFrame:
    """Estimate heavy-hitter join keys: each block emits its top-``topk``
    key counts plus its row count (≤ blocks×topk tiny rows to the driver).
    Per-block truncation only UNDER-estimates scattered mid-frequency keys —
    a missed hot key degrades to the unsalted path, never to a wrong
    answer.  Returns the keys whose estimated share exceeds ``frac`` as a
    DataFrame of key columns (possibly empty)."""

    def partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({k: b.column(k).to_numpy(zero_copy_only=False) for k in keys})
        vc = df.value_counts().head(topk).reset_index(name="_n")
        vc["_n"] = vc["_n"].astype(np.int64)
        vc["_bt"] = np.int64(0)
        if len(vc):
            vc.iloc[0, vc.columns.get_loc("_bt")] = np.int64(len(b))
        return pa.Table.from_pandas(vc, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=None).to_pandas()
    if not len(parts):
        return pd.DataFrame({k: [] for k in keys})
    total = int(parts["_bt"].sum())
    counts = parts.groupby(keys, sort=False)["_n"].sum()
    hot = counts[counts > frac * total]
    return hot.reset_index()[keys]


def _tagged_key_partition(
    left_ds, right_ds, keys, lcols, rcols, num_partitions, hot_df=None, salt=8
):
    """Shared shuffle plan for the partitioned join family: null-pad each
    side to one schema, tag with ``_side``, hash-partition on the key, and
    union — each side moves through the exchange exactly once.  Returns
    ``(both, coltype)`` where ``coltype`` maps column -> source Arrow type
    (used to restore dtypes that pandas NaN-padding upcast).

    ``hot_df`` (skew protection): rows whose key is listed get a DEDICATED
    partition range — left rows are SALTED across ``salt`` partitions of
    their hot key, right rows are REPLICATED into all ``salt`` of them, so a
    key holding 20% of the left side runs as ``salt`` parallel tasks
    instead of one straggler.  Exactness: each (left row, right row) pair of
    a hot key meets in exactly one partition (the left row's salt), and the
    per-partition merge still joins on the REAL key columns, so a 64-bit
    hot-hash collision only costs misrouting, never a wrong match."""
    from ..util import _hash_cols, coalesce_small, shuffle_parts

    if num_partitions is None:
        num_partitions = shuffle_parts(1.0)
    allcols = list(dict.fromkeys(lcols + rcols))
    coltype: dict = {}
    if set(lcols) != set(rcols):
        # chained-join inputs (e.g. a join fed by another join's map_groups
        # output) have no statically-known schema; fetch executes one block
        ls, rs = (
            left_ds.schema(fetch_if_missing=True),
            right_ds.schema(fetch_if_missing=True),
        )

        def _pa_type(t):
            if isinstance(t, pa.DataType):
                return t
            try:
                return pa.from_numpy_dtype(t)
            except (pa.ArrowNotImplementedError, TypeError):
                return pa.string()

        # a side can still be schema-less after the fetch (zero-row input,
        # e.g. a Bloom probe with no survivors) — type its columns from the
        # other side where possible; a column neither side types is an
        # all-null pad (the right values of a left join against nothing),
        # typed float64 so it comes back NaN like any other left-outer pad
        lnames = list(ls.names) if ls is not None else []
        rnames = list(rs.names) if rs is not None else []
        for c in allcols:
            if c in lnames:
                coltype[c] = _pa_type(ls.types[lnames.index(c)])
            elif c in rnames:
                coltype[c] = _pa_type(rs.types[rnames.index(c)])
            else:
                coltype[c] = pa.float64()

    hot_sorted = None
    if hot_df is not None and len(hot_df):
        hot_sorted = np.sort(_hash_cols(hot_df, keys))

    def tag(side: int, cols: list[str]):
        def f(b: pa.Table) -> pa.Table:
            out = {}
            for c in allcols:
                out[c] = b.column(c) if c in cols else pa.nulls(len(b), type=coltype[c])
            out["_side"] = pa.array(np.full(len(b), side, dtype=np.int8))
            df = pd.DataFrame(
                {k: b.column(k).to_numpy(zero_copy_only=False) for k in keys}
            )
            h = _hash_cols(df, keys)
            pk = (h % np.uint64(num_partitions)).astype(np.int32)
            if hot_sorted is None:
                out["_pk"] = pa.array(pk)
                return pa.table(out)
            pos = np.minimum(
                np.searchsorted(hot_sorted, h), len(hot_sorted) - 1
            ).astype(np.int32)
            ish = hot_sorted[pos] == h
            base = np.int32(num_partitions) + pos * np.int32(salt)
            if side == 0:
                # salt left hot rows by arrival index — output-invariant
                # (any balanced assignment yields the same join result)
                pk = np.where(
                    ish,
                    base + (np.arange(len(b), dtype=np.int32) % np.int32(salt)),
                    pk,
                )
                out["_pk"] = pa.array(pk)
                return pa.table(out)
            # right side: replicate hot rows into every salt partition
            t = pa.table(out)
            hidx = np.flatnonzero(ish)
            if len(hidx) == 0:
                return t.append_column("_pk", pa.array(pk))
            nidx = np.flatnonzero(~ish)
            take = np.concatenate([nidx, np.repeat(hidx, salt)])
            pk_rep = (
                np.repeat(base[hidx], salt)
                + np.tile(np.arange(salt, dtype=np.int32), len(hidx))
            ).astype(np.int32)
            return t.take(take).append_column(
                "_pk", pa.array(np.concatenate([pk[nidx], pk_rep]))
            )

        return f

    tagged_l = left_ds.map_batches(tag(0, lcols), batch_format="pyarrow")
    tagged_r = right_ds.map_batches(tag(1, rcols), batch_format="pyarrow")
    return coalesce_small(tagged_l.union(tagged_r), 0.25), coltype


def _restore_int_dtypes(m: pd.DataFrame, cols, coltype: dict) -> pd.DataFrame:
    """Undo the NaN-upcast of int columns introduced by typed-null padding
    (the surviving rows are all non-null)."""
    for c in cols:
        t = coltype.get(c)
        if t is not None and pa.types.is_integer(t) and pd.api.types.is_float_dtype(m[c]):
            m[c] = m[c].astype(np.dtype(t.to_pandas_dtype()))
    return m


def _typed_empty(cols, coltype: dict) -> pd.DataFrame:
    def dt(c):
        t = coltype.get(c)
        if t is None or not (pa.types.is_integer(t) or pa.types.is_floating(t)):
            return np.dtype("object")
        return np.dtype(t.to_pandas_dtype())

    return pd.DataFrame({c: pd.Series(dtype=dt(c)) for c in cols})


def _warn_if_beyond_2p53(v: "pd.Series", name: str, arrow_type) -> None:
    """float64 padding is exact only up to 2^53 — id-/hash-valued int64
    columns above that silently round (matched rows included), so warn."""
    if arrow_type is None or not pa.types.is_integer(arrow_type) or not len(v):
        return
    mx = np.nanmax(np.abs(v.to_numpy())) if v.notna().any() else 0.0
    if mx >= 2.0**53:
        import warnings

        warnings.warn(
            f"outer/left join pads integer column {name!r} as float64; "
            f"values reach {mx:.3e} > 2^53 and may lose precision",
            RuntimeWarning,
            stacklevel=3,
        )


def hash_join(
    left_ds,
    right_ds,
    on: str | list[str],
    left_cols: list[str],
    right_cols: list[str],
    num_partitions: int | None = None,
    skew: str | pd.DataFrame | None = None,
    skew_salt: int = 8,
    skew_threshold: float = 0.02,
    how: str = "inner",
):
    """Partitioned hash join — for when BOTH sides are too large to
    broadcast (fact ⋈ fact).  Each side is shuffled ONCE on a hash of the
    key (``num_partitions`` buckets); matching keys land in the same
    partition, which joins with one vectorized ``pandas.merge``.  No
    driver-side materialization.

    ``how``: ``"inner"`` (default), ``"left"`` (left outer — unmatched
    left rows survive with the right's value columns null/NaN; right value
    columns come back float64 where pandas NaN-pads, matching what SQL
    engines hand to pandas for nullable columns) or ``"outer"`` (full
    outer — BOTH sides' unmatched rows survive once, the other side's
    value columns padded).  Left-outer composes with the skew path: a
    salted left row lives in exactly one partition, so it appears exactly
    once whether matched or not; FULL outer rejects skew salting (an
    unmatched replicated hot right row would surface once per replica).

    Skew: by default a hot key lives in one partition task.  ``skew="auto"``
    first frequency-scans BOTH sides' key columns (per-block top-64 count
    partials — an extra key-only pass over each input, so re-derives any
    upstream transforms once more); keys holding more than
    ``skew_threshold`` of either side are SALTED on the left across
    ``skew_salt`` dedicated partitions with the right's hot rows replicated
    into each (see :func:`_tagged_key_partition`) — exact for any
    multiplicity.  Pass a DataFrame of key values to skip the scan, or
    leave ``None`` when the key distribution is known flat (the default —
    no extra read).

    ``left_cols`` / ``right_cols`` are the value columns kept from each side
    (key columns are always kept once); they must not overlap."""
    keys = [on] if isinstance(on, str) else list(on)
    if how == "outer" and skew is not None:
        # skew replication copies hot RIGHT rows into every salt partition;
        # an UNMATCHED replicated right row would then surface once per
        # replica — full outer therefore forbids the salted path
        raise ValueError("how='outer' is incompatible with skew salting")
    lcols = list(dict.fromkeys(keys + left_cols))
    rcols = list(dict.fromkeys(keys + right_cols))
    hot_df = None
    if isinstance(skew, str) and skew == "auto":
        hot_l = _hot_keys_scan(left_ds, keys, skew_threshold)
        hot_r = _hot_keys_scan(right_ds, keys, skew_threshold)
        hot_df = pd.concat([hot_l, hot_r], ignore_index=True).drop_duplicates()
    elif skew is not None:
        hot_df = pd.DataFrame(skew)
    both, coltype = _tagged_key_partition(
        left_ds, right_ds, keys, lcols, rcols, num_partitions,
        hot_df=hot_df, salt=skew_salt,
    )
    out_cols = keys + [c for c in left_cols if c not in keys] + [
        c for c in right_cols if c not in keys
    ]

    if how not in ("inner", "left", "outer"):
        raise ValueError(f"how must be inner|left|outer, got {how!r}")
    rvalue_cols = [c for c in right_cols if c not in keys]
    lvalue_cols = [c for c in left_cols if c not in keys]

    def numeric(c: str) -> bool:
        t = coltype.get(c)
        return t is not None and (pa.types.is_integer(t) or pa.types.is_floating(t))

    def pad_cols(m: pd.DataFrame, cols) -> pd.DataFrame:
        # one uniform schema whether or not this partition had misses:
        # NaN-padded numerics become float64, the rest object-with-None.
        for c in cols:
            if numeric(c):
                v = m[c].astype(np.float64)
                _warn_if_beyond_2p53(v, c, coltype.get(c))
                m[c] = v
            else:
                m[c] = m[c].astype(object).where(pd.notna(m[c]), None)
        return m

    def finish(m: pd.DataFrame) -> pd.DataFrame:
        if how == "inner":
            return _restore_int_dtypes(m, out_cols, coltype)
        padded = rvalue_cols if how == "left" else rvalue_cols + lvalue_cols
        m = pad_cols(m, padded)
        return _restore_int_dtypes(m, [c for c in out_cols if c not in padded], coltype)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        lf = g[g["_side"] == 0][lcols]
        rf = g[g["_side"] == 1][rcols]
        if len(lf) == 0 and (len(rf) == 0 or how != "outer"):
            return finish(_typed_empty(out_cols, coltype))
        if len(rf) == 0 and how == "inner":
            return finish(_typed_empty(out_cols, coltype))
        if len(rf) == 0 and how in ("left", "outer"):
            m = lf.copy()
            for c in rvalue_cols:
                m[c] = np.nan
            m = m[out_cols]
        elif len(lf) == 0:  # outer, right-only partition
            m = rf.copy()
            for c in lvalue_cols:
                m[c] = np.nan
            m = m[out_cols]
        else:
            m = pd.merge(lf, rf, on=keys, how=how)[out_cols]
        return finish(m)

    return both.groupby("_pk").map_groups(merge, batch_format="pandas")


def anti_join(
    left_ds,
    right_ds,
    on: str | list[str],
    left_cols: list[str],
    num_partitions: int | None = None,
):
    """Partitioned anti join: left rows whose key has NO match on the right
    — the set-subtraction primitive of curation pipelines ("drop documents
    whose id/hash/url appears in the blocklist") when the blocklist is too
    large to broadcast (``decontaminate`` covers the broadcast case).

    Same single-shuffle plan as :func:`hash_join`; the right side ships
    only its key columns."""
    keys = [on] if isinstance(on, str) else list(on)
    lcols = list(dict.fromkeys(keys + left_cols))
    both, coltype = _tagged_key_partition(left_ds, right_ds, keys, lcols, keys, num_partitions)
    out_cols = lcols

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        lf = g[g["_side"] == 0][lcols]
        if len(lf) == 0:
            return _typed_empty(out_cols, coltype)
        rf = g[g["_side"] == 1][keys].drop_duplicates()
        if len(rf):
            m = lf.merge(rf, on=keys, how="left", indicator=True)
            lf = m[m["_merge"] == "left_only"][lcols]
        return _restore_int_dtypes(lf, out_cols, coltype)

    return both.groupby("_pk").map_groups(merge, batch_format="pandas")


# per-worker-process cache of the MOST RECENT fetched Bloom bitset
# (ObjectRef hex -> array); single-entry — cleared before each insert so a
# long-lived worker running many bloom_semi_join jobs doesn't pin one plasma
# view per job for the process lifetime (the _CENTROID_CACHE rule)
_BLOOM_MEMO: dict = {}


def bloom_semi_join(
    left_ds,
    right_ds,
    on: str,
    left_cols: list[str],
    nbits: int = 1 << 22,
    num_partitions: int | None = None,
    exact: bool = True,
):
    """Semi join (left rows with ≥1 right-key match) via a BROADCAST Bloom
    filter: the right side collapses to an ``nbits``-bit array shipped once
    with ``ray.put`` (2^22 bits = 512 KB covers ~300k keys at ~1% FP with
    k=2), every left batch probes it with two vectorized hash lookups, and —
    because a Bloom filter admits false positives — the survivors are
    re-verified EXACTLY with the partitioned :func:`hash_join` against the
    right's distinct keys.

    The scale win: only ``~|matches| + FP`` left rows enter the verify
    shuffle instead of ``|left|`` — for selective probes (decontamination
    blocklists, "rows of flagged entities") the exchange shrinks by the
    selectivity factor while staying exact.  ``exact=False`` skips the
    verify shuffle for the approximate-filter use (candidate pruning).

    Filter build: one packed-uint64 bitset partial per right block, OR-folded
    on the driver — ``blocks × nbits/8`` bytes of driver traffic, independent
    of right row count."""
    import ray

    from ..stages.texthash import mix64

    nwords = nbits // 64
    mask = np.uint64(nbits - 1)
    S2 = np.uint64(0x9E3779B97F4A7C15)

    def probe_positions(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore"):
            if np.issubdtype(keys.dtype, np.integer):
                k = keys.astype(np.uint64)
            else:
                # string / datetime / float keys: hash to uint64 first (same
                # keyed hash as _hash_cols) — the advertised URL/blocklist
                # decontamination case joins on string keys
                k = pd.util.hash_array(keys, hash_key="0123456789123456").astype(
                    np.uint64
                )
            h1 = mix64(k) & mask
            h2 = mix64(k + S2) & mask
        return h1, h2

    def build_partial(b: pa.Table) -> pa.Table:
        bits = np.zeros(nwords, dtype=np.uint64)
        h1, h2 = probe_positions(b.column(on).to_numpy(zero_copy_only=False))
        for h in (h1, h2):
            w = (h >> np.uint64(6)).astype(np.int64)
            bit = np.uint64(1) << (h & np.uint64(63))
            np.bitwise_or.at(bits, w, bit)
        return pa.table({"bits": pa.array([bits.tobytes()], type=pa.binary())})

    # batch_size=None: ONE bitset partial per block (not per 1k-row batch),
    # so the driver OR-fold sees blocks × nbits/8 bytes, nothing more
    parts = right_ds.map_batches(
        build_partial, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    bits = np.zeros(nwords, dtype=np.uint64)
    for raw in parts["bits"]:
        bits |= np.frombuffer(raw, dtype=np.uint64)
    bits_ref = ray.put(bits)

    cols = list(dict.fromkeys([on] + left_cols))

    def probe(b: pa.Table) -> pa.Table:
        # stateless task + per-worker memo (no actor-pool spin-up); ray.get
        # of the plasma bitset is zero-copy after the first call per worker
        bt = _BLOOM_MEMO.get(bits_ref.hex())
        if bt is None:
            bt = ray.get(bits_ref)
            _BLOOM_MEMO.clear()  # single-entry: drop any previous job's bitset
            _BLOOM_MEMO[bits_ref.hex()] = bt
        h1, h2 = probe_positions(b.column(on).to_numpy(zero_copy_only=False))
        hit = (
            (bt[(h1 >> np.uint64(6)).astype(np.int64)] >> (h1 & np.uint64(63)))
            & (bt[(h2 >> np.uint64(6)).astype(np.int64)] >> (h2 & np.uint64(63)))
            & np.uint64(1)
        ).astype(bool)
        return b.select(cols).filter(pa.array(hit))

    survivors = left_ds.map_batches(probe, batch_format="pyarrow", batch_size=None)
    if not exact:
        return survivors
    # exact verify: inner hash_join against the right's DISTINCT keys (semi
    # semantics — distinct first so matches aren't duplicated).  Per-batch
    # pre-distinct collapses each right block to its unique keys BEFORE the
    # grouped_aggregate shuffle, and both shuffle feeds are coalesced so the
    # sort-based exchange schedules a handful of tasks, not blocks × parts.
    from ..util import coalesce_small, grouped_aggregate

    def batch_distinct(b: pa.Table) -> pa.Table:
        k = b.column(on)
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        return pa.table({on: k.unique()})

    rdistinct = coalesce_small(
        right_ds.map_batches(batch_distinct, batch_format="pyarrow", batch_size=None), 0.25
    )
    rkeys = grouped_aggregate(rdistinct, on, {"_one": (on, "first")})
    return hash_join(
        coalesce_small(survivors, 0.25), rkeys, on=on,
        left_cols=[c for c in cols if c != on], right_cols=[],
        num_partitions=num_partitions,
    ).select_columns(cols)


def rollup_aggregate(
    ds,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
    all_label: str = "ALL",
):
    """Hierarchical (ROLLUP) aggregation: one output row per prefix level of
    ``keys`` — (k1, k2, ...), (k1, ALL, ...), ..., (ALL, ALL, ...) — the
    drill-down summary table of corpus reporting.

    ONE exchange total (round 4; the previous plan shuffled once per level):
    each batch pre-aggregates to its distinct finest keys, replicates those
    partial rows across all ``len(keys)+1`` sentinel levels, re-combines
    within the batch, and a single :func:`grouped_aggregate` reduces every
    level together — correct because the supported agg fns are distributive
    (sum/count→sum, min→min, max→max).  Rolled-up key slots carry
    ``all_label`` (not NULL — deterministic sort order in every engine);
    key columns are cast to string via Arrow so int keys match SQL's CAST.
    """
    from ..util import coalesce_small, grouped_aggregate

    # partial-combine spec: counts become sums of counts downstream
    reagg = {
        out: (out, "sum" if fn in ("sum", "count", "size") else fn)
        for out, (_c, fn) in aggs.items()
    }

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, as_index=False).agg(
            **{out: (c, "size" if fn == "size" else fn) for out, (c, fn) in aggs.items()}
        )
        for k in keys:
            g[k] = pa.Array.from_pandas(g[k]).cast(pa.string()).to_pandas()
        frames = []
        for lvl in range(len(keys), -1, -1):  # finest first, (ALL,...) last
            f = g.copy()
            for k in keys[lvl:]:
                f[k] = all_label
            frames.append(f)
        e = pd.concat(frames, ignore_index=True)
        return e.groupby(keys, sort=False, as_index=False).agg(
            **{out: (out, fn) for out, (_c, fn) in reagg.items()}
        )[keys + list(aggs)]

    partials = ds.map_batches(partial, batch_format="pandas")
    return grouped_aggregate(coalesce_small(partials, 0.25), keys, reagg).sort(keys)


def cube_aggregate(
    ds,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
    all_label: str = "ALL",
):
    """CUBE aggregation: one output row per SUBSET of ``keys`` (every
    grouping set, 2^k of them) — ROLLUP's cross-tab sibling, the
    slice-any-way summary of corpus reporting.

    Same one-exchange plan as :func:`rollup_aggregate`: each batch
    pre-aggregates to its distinct finest keys, replicates the partial rows
    across every subset with rolled-out slots carrying ``all_label``,
    re-combines in-batch, and a single :func:`grouped_aggregate` reduces
    all 2^k grouping sets together (valid for distributive aggs).
    """
    from itertools import combinations

    from ..util import coalesce_small, grouped_aggregate

    reagg = {
        out: (out, "sum" if fn in ("sum", "count", "size") else fn)
        for out, (_c, fn) in aggs.items()
    }
    subsets = [
        set(c) for r in range(len(keys), -1, -1) for c in combinations(keys, r)
    ]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, as_index=False).agg(
            **{out: (c, "size" if fn == "size" else fn) for out, (c, fn) in aggs.items()}
        )
        for k in keys:
            g[k] = pa.Array.from_pandas(g[k]).cast(pa.string()).to_pandas()
        frames = []
        for keep in subsets:
            f = g.copy()
            for k in keys:
                if k not in keep:
                    f[k] = all_label
            frames.append(f)
        e = pd.concat(frames, ignore_index=True)
        return e.groupby(keys, sort=False, as_index=False).agg(
            **{out: (out, fn) for out, (_c, fn) in reagg.items()}
        )[keys + list(aggs)]

    partials = ds.map_batches(partial, batch_format="pandas")
    return grouped_aggregate(coalesce_small(partials, 0.25), keys, reagg).sort(keys)


def pivot_counts(
    ds,
    row_key: str,
    col_key: str,
    col_values: list[str],
    other_label: str = "other",
):
    """Wide one-hot pivot: one output row per ``row_key`` value with a count
    column per listed ``col_key`` value (``n_<value>``) plus ``n_<other>``
    for unlisted values — the contingency-table / mixture-report shape.

    Per-batch conditional partial counts (one vectorized comparison per
    column value) collapse each batch to its distinct row keys, then one
    distributed grouped sum — column cardinality is fixed by the caller, so
    the shuffle is |row keys| × (len(col_values)+2) ints, never raw rows."""
    import pandas as pd

    from ..util import coalesce_small, grouped_aggregate

    ncols = [f"n_{v}" for v in col_values] + [f"n_{other_label}"]

    def partial(b: pa.Table) -> pa.Table:
        rk = b.column(row_key).to_numpy(zero_copy_only=False)
        cv = b.column(col_key).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({row_key: rk})
        hit = np.zeros(len(b), dtype=bool)
        for v, nc in zip(col_values, ncols):
            m = cv == v
            df[nc] = m.astype(np.int64)
            hit |= m
        df[ncols[-1]] = (~hit).astype(np.int64)
        agg = df.groupby(row_key, as_index=False, sort=False).sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    partials = coalesce_small(ds.map_batches(partial, batch_format="pyarrow"), 0.125)
    red = grouped_aggregate(partials, row_key, {nc: (nc, "sum") for nc in ncols})
    return red.sort(row_key)


def interval_join(
    intervals_ds,
    points_ds,
    key: str,
    start_col: str,
    end_col: str,
    ts_col: str,
    interval_cols: list[str] | None = None,
    point_cols: list[str] | None = None,
    num_partitions: int | None = None,
):
    """Range join: each point row gains the (at most one) same-key interval
    with ``start <= ts <= end`` (inner semantics — points in no interval are
    dropped).  Intervals of one key must be NON-OVERLAPPING (sessions,
    windows, validity ranges), which is what makes "at most one" true and
    the search a binary search instead of an all-pairs expansion.

    Plan: one shared hash-partition-by-key exchange (the
    :func:`hash_join` shuffle plan); inside each partition ALL keys are
    matched in one vectorized pass — both sides sorted by (key-code,
    value-rank), candidate interval per point by a single ``searchsorted``
    over rank-encoded composites, then an end-bound check.  No per-key
    dispatch.  Partitioning assumption: one key's rows fit in one partition
    task (the sessionize/lag assumption).

    Output: ``(point_cols..., key, ts, interval_cols...)``.
    """
    interval_cols = list(interval_cols or [])
    point_cols = list(point_cols or [])
    lcols = list(dict.fromkeys([key, start_col, end_col] + interval_cols))
    rcols = list(dict.fromkeys([key, ts_col] + point_cols))
    out_cols = list(
        dict.fromkeys(point_cols + [key, ts_col] + [start_col, end_col] + interval_cols)
    )
    both, coltype = _tagged_key_partition(
        intervals_ds, points_ds, [key], lcols, rcols, num_partitions
    )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        iv = g[g["_side"] == 0]
        pt = g[g["_side"] == 1]
        if len(iv) == 0 or len(pt) == 0:
            return _typed_empty(out_cols, coltype)
        # key codes shared across both sides
        kcodes, _ = pd.factorize(
            np.concatenate([iv[key].to_numpy(), pt[key].to_numpy()])
        )
        ik, pk_ = kcodes[: len(iv)].astype(np.int64), kcodes[len(iv) :].astype(np.int64)
        st = iv[start_col].to_numpy()
        en = iv[end_col].to_numpy()
        ts = pt[ts_col].to_numpy()
        # rank-compress values so (key, value) packs into one int64:
        # interval starts get even ranks, point ts odd (start <= ts wins ties)
        uniq = np.unique(np.concatenate([st, ts]))
        sr = np.searchsorted(uniq, st).astype(np.int64)
        tr = np.searchsorted(uniq, ts).astype(np.int64)
        m = np.int64(2 * len(uniq) + 2)
        enc_iv = ik * m + sr * 2
        enc_pt = pk_ * m + tr * 2 + 1
        io = np.argsort(enc_iv, kind="stable")
        cand = np.searchsorted(enc_iv[io], enc_pt, side="right") - 1
        ok = cand >= 0
        ci = io[np.maximum(cand, 0)]
        ok &= (ik[ci] == pk_) & (ts <= en[ci])
        pt_keep = pt.iloc[np.flatnonzero(ok)]
        iv_rows = iv.iloc[ci[ok]]
        out = {c: pt_keep[c].to_numpy() for c in point_cols + [key, ts_col]}
        for c in [start_col, end_col] + interval_cols:
            out[c] = iv_rows[c].to_numpy()
        return _restore_int_dtypes(pd.DataFrame(out), out_cols, coltype)

    return both.groupby("_pk").map_groups(merge, batch_format="pandas")


def asof_join(
    left_ds,
    right_ds,
    key: str,
    ts_col: str,
    left_cols: list[str],
    right_cols: list[str],
    num_partitions: int | None = None,
):
    """As-of join: each left row gains the most recent right row with
    ``right.ts <= left.ts`` and the same ``key`` (inner semantics — left
    rows with no prior right row are dropped).

    Output columns: ``left_cols`` + ``right_cols`` prefixed ``r_`` (the
    right's ts column becomes ``r_{ts_col}``).  Ties on the right timestamp
    resolve to the highest first-right-column value (deterministic).
    """
    from ..util import _hash_cols, shuffle_parts

    if num_partitions is None:
        num_partitions = shuffle_parts(1.0)
    lcols = list(dict.fromkeys([key, ts_col] + left_cols))
    rcols = list(dict.fromkeys([key, ts_col] + right_cols))
    # one shared schema for the union: columns owned by only one side are
    # TYPED-null-padded on the other, so differing left/right column sets
    # work (union requires identical schemas)
    allcols = list(dict.fromkeys(lcols + rcols))
    coltype: dict = {}
    if set(lcols) != set(rcols):
        # only resolve schemas (which may execute a small pipeline) when one
        # side actually needs typed null padding
        ls, rs = left_ds.schema(), right_ds.schema()

        def _pa_type(t):
            # pandas-backed datasets report numpy dtypes, Arrow-backed report
            # pa.DataType; object (string) columns fall back to pa.string()
            if isinstance(t, pa.DataType):
                return t
            try:
                return pa.from_numpy_dtype(t)
            except (pa.ArrowNotImplementedError, TypeError):
                return pa.string()

        for c in allcols:
            if c in ls.names:
                coltype[c] = _pa_type(ls.types[ls.names.index(c)])
            else:
                coltype[c] = _pa_type(rs.types[rs.names.index(c)])

    def tag(side: int, cols: list[str]):
        def f(b: pa.Table) -> pa.Table:
            out = {}
            for c in allcols:
                out[c] = b.column(c) if c in cols else pa.nulls(len(b), type=coltype[c])
            out["_side"] = pa.array(np.full(len(b), side, dtype=np.int8))
            df = pd.DataFrame({key: b.column(key).to_numpy(zero_copy_only=False)})
            pk = (_hash_cols(df, [key]) % np.uint64(num_partitions)).astype(np.int32)
            out["_pk"] = pa.array(pk)
            return pa.table(out)

        return f

    from ..util import coalesce_small

    tagged_l = left_ds.map_batches(tag(0, lcols), batch_format="pyarrow")
    tagged_r = right_ds.map_batches(tag(1, rcols), batch_format="pyarrow")
    # the union concatenates both sides' block lists; coalesce before the
    # groupby shuffle so it schedules a handful of tasks, not blocks×parts
    both = coalesce_small(tagged_l.union(tagged_r), 0.25)

    rvalue_cols = [c for c in rcols if c != key]

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        lf = g[g["_side"] == 0]
        rf = g[g["_side"] == 1]
        out_cols = list(dict.fromkeys(left_cols + [key])) + [f"r_{c}" for c in rvalue_cols]
        if len(lf) == 0 or len(rf) == 0:
            return pd.DataFrame({c: pd.Series(dtype="object") for c in out_cols})
        lf = lf[lcols].sort_values([ts_col] + left_cols, kind="stable")
        # stable (ts, id...) sort: merge_asof matches the LAST equal-ts row,
        # so ties resolve to the highest right id deterministically
        rf = rf[rcols].sort_values([ts_col] + rvalue_cols, kind="stable")
        rf = rf.rename(columns={c: f"r_{c}" for c in rvalue_cols})
        m = pd.merge_asof(
            lf, rf, left_on=ts_col, right_on=f"r_{ts_col}", by=key, direction="backward"
        )
        m = m.dropna(subset=[f"r_{ts_col}"])
        for c in rvalue_cols:
            rc = f"r_{c}"
            if pd.api.types.is_float_dtype(m[rc]) and not pd.api.types.is_float_dtype(rf[rc]):
                m[rc] = m[rc].astype(rf[rc].dtype)  # undo NaN-upcast from the asof
        return m[out_cols]

    return both.groupby("_pk").map_groups(merge, batch_format="pandas")
