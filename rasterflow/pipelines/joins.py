"""Spatial point-in-polygon joins fused with per-polygon aggregation.

Ray-Data-native re-expression of the reference's four join strategies
(SURVEY.md §2.4) as **actor-pool map_batches stages emitting per-batch partial
aggregates**, followed by a tiny ``groupby("poly_id")`` reduce:

- ``raster``  (J1, ``join/RasterJoin.cpp:196-260``): approximate with bounded
  error ε — a point contributes to every polygon whose rasterization covers
  its cell (multi-cover, SURVEY §2.7.4); error ≤ cell diagonal = ε.
- ``index``   (J2, ``join/IndexJoin.cpp:52-166``): exact — per-cell candidate
  lists + even-odd PIP refinement.  The accuracy oracle.
- ``hybrid``  (J3, ``join/HybridJoin.cpp:339-391``): exact — cover-list fast
  path on non-border cells, PIP refinement only on border cells.
- ``bounds``  (J4, ``join/RasterJoinBounds.cpp:306-397``): raster + guaranteed
  and estimated error bounds from per-outline-cell counters.

Scale notes (100 TB design): the polygon bundle is broadcast once via
``ray.put`` and pinned per actor in ``__init__`` (the GL-context analogue); the
per-batch partial collapses each batch to ≤ npolys rows, so the only shuffle is
the final groupby over (batches × touched polys) tiny partials — there is no
global cell_id exchange and hot (skewed) cells cost nothing beyond their local
batch.  The reference's manual multi-pass GPU buffering (``noPtPasses``,
``GLFunction.cpp:330-337``) is replaced by streaming-executor backpressure.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from ..geom.pip import pip_edge_lists, pip_pairs
from ..state.bundle import PolygonBundle, build_bundle
from ..util import grouped_aggregate, streaming_group_sum

_STRATEGIES = ("raster", "index", "hybrid")

#: stats text of the most recent driver-reduced join pipeline (the reduce
#: consumes the partials internally, so callers can't reach ds.stats();
#: bench/metrics read this instead)
LAST_STATS: str = ""

# §2.8 extension surface: new join techniques plug in by name — the analogue
# of registering a GLFunction subclass in GLHandler::initFunctions
# (join/GLHandler.cpp:157-186).  A strategy is a SpatialJoinAgg subclass
# overriding _match_pairs.
_CUSTOM_STRATEGIES: dict[str, type] = {}


def register_strategy(name: str, cls: type) -> None:
    """Register a custom join strategy (SpatialJoinAgg subclass) under a
    name usable as ``how=`` in the public entry points."""
    if name in _STRATEGIES:
        raise ValueError(f"{name!r} is a built-in strategy")
    _CUSTOM_STRATEGIES[name] = cls


def _strategy_ok(how: str) -> bool:
    return how in _STRATEGIES or how in _CUSTOM_STRATEGIES


def _agg_cls(how: str) -> type:
    return _CUSTOM_STRATEGIES.get(how, SpatialJoinAgg)


#: per-worker-process memo of deserialized bundles / constructed stages.
#: ``ray.get`` of the same ref returns a FRESH object each call, so any
#: lazy per-instance state (the bundle's 10^7-key ucell hash index) would be
#: rebuilt per batch without this — measured 75x slowdown on a 16k-polygon
#: continental bundle before the memo.  Bounded: a worker sees a handful of
#: distinct bundles per job.
_WORKER_MEMO: dict = {}
_WORKER_MEMO_MAX = 64  # tile-sharded jobs touch many small tile bundles


def _memo(key, maker):
    v = _WORKER_MEMO.get(key)
    if v is None:
        if len(_WORKER_MEMO) >= _WORKER_MEMO_MAX:
            _WORKER_MEMO.pop(next(iter(_WORKER_MEMO)))
        v = maker()
        _WORKER_MEMO[key] = v
    return v


def _get_bundle(bundle_or_ref) -> PolygonBundle:
    if isinstance(bundle_or_ref, ray.ObjectRef):
        return _memo(("bundle", bundle_or_ref.hex()), lambda: ray.get(bundle_or_ref))
    return bundle_or_ref


class SpatialJoinAgg:
    """Actor-pool stage: point batch -> per-batch partial per-polygon aggregates.

    Emits ``(poly_id, count [, sum])`` rows for polygons touched by the batch.
    """

    def __init__(
        self,
        bundle,
        how: str = "hybrid",
        value_col: str | None = None,
        fixed_point: bool = False,
        dtype=np.float64,
    ):
        if how not in _STRATEGIES and type(self) is SpatialJoinAgg:
            raise ValueError(f"how must be one of {_STRATEGIES}")
        self.b = _get_bundle(bundle)
        self.how = how
        self.value_col = value_col
        self.fixed_point = fixed_point
        # float64 is the oracle plane; float32 is the reference-conformant
        # plane (TaxiRecord.hpp:121-133 stores f32; all four reference join
        # kernels compute f32) — halves kernel memory traffic, used by the
        # scaling benchmark.  Cell LOCATION stays f64 either way (robust cell
        # assignment); only the PIP refinement arithmetic narrows.
        self.dtype = np.dtype(dtype)

    @staticmethod
    def _expand(indptr: np.ndarray, values: np.ndarray, idx: np.ndarray, hit: np.ndarray):
        """CSR expansion given pre-located unified-cell positions."""
        point_idx, val_idx = SpatialJoinAgg._expand_idx(indptr, len(values), idx, hit)
        return point_idx, values[val_idx]

    @staticmethod
    def _expand_idx(indptr: np.ndarray, nvalues: int, idx: np.ndarray, hit: np.ndarray):
        """``(point_idx, val_idx)`` of the CSR expansion: ``val_idx`` indexes
        the value array (and anything aligned with it).

        int32 index arithmetic: a batch has < 2^31 rows and the bundle's
        value arrays are bounded by max_cover_cells — expansion indices are
        the largest arrays this stage allocates, so halving their width
        halves the dominant non-PIP memory traffic."""
        starts = indptr[idx]
        counts = np.where(hit, indptr[idx + 1] - starts, 0)
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        idx_t = np.int32 if len(idx) < 2**31 else np.int64
        # val_t arrays (within / run_starts) hold values up to `total`, the
        # expanded pair count — not len(values) — so the narrowing test must
        # use total or np.arange wraps silently (ADVICE r2)
        val_t = np.int32 if total < 2**31 and nvalues < 2**31 else np.int64
        point_idx = np.repeat(np.arange(len(idx), dtype=idx_t), counts)
        run_ends = np.cumsum(counts)
        run_starts = (run_ends - counts).astype(val_t, copy=False)
        within = np.arange(total, dtype=val_t) - np.repeat(run_starts, counts)
        val_idx = np.repeat(starts.astype(val_t, copy=False), counts) + within
        return point_idx, val_idx

    def _match_pairs(self, x, y, lin) -> tuple[np.ndarray, np.ndarray]:
        """(point_idx, poly_id) matched pairs under the strategy's semantics.

        One lookup in the unified cell table serves candidate lists, cover
        lists and the border flag.  ``index`` tests every candidate pair
        against every edge of its polygon (``pip_pairs``, the oracle);
        ``hybrid`` tests border pairs only against their cell's edge list."""
        b = self.b
        if len(b.ucells) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
        idx, hit = b.locate_ucells(lin)
        if self.how == "raster":
            return self._expand(b.ucover_indptr, b.ucover_vals, idx, hit)
        if self.how == "index":
            pts, pl = self._expand(b.ucand_indptr, b.ucand_vals, idx, hit)
            pip_dtype = None if self.dtype == np.float64 else self.dtype
            m = pip_pairs(x, y, pts, pl, b.verts, b.ring_offsets, b.poly_ring_offsets, dtype=pip_dtype)
            return pts[m], pl[m]
        # hybrid: exact — cover fast path off-border, PIP refinement on border
        is_b = hit & b.uborder[idx]
        idx_border = np.flatnonzero(is_b)
        idx_int = np.flatnonzero(~is_b)
        pts_i, pl_i = self._expand(b.ucover_indptr, b.ucover_vals, idx[idx_int], hit[idx_int])
        pts_b, slot = self._expand_idx(b.ucand_indptr, len(b.ucand_vals), idx[idx_border], hit[idx_border])
        pl_b = b.ucand_vals[slot]
        m = pip_edge_lists(
            x[idx_border], y[idx_border], pts_b, b.uedge_start[slot], b.uedge_stop[slot],
            b.uedge_ids, b.edge_table(self.dtype),
        )
        return (
            np.concatenate([idx_int[pts_i], idx_border[pts_b[m]]]),
            np.concatenate([pl_i, pl_b[m]]),
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        b = self.b
        x = batch.column("x").to_numpy(zero_copy_only=False).astype(self.dtype, copy=False)
        y = batch.column("y").to_numpy(zero_copy_only=False).astype(self.dtype, copy=False)
        lin, valid = b.grid.locate_linear(x, y)
        if not valid.all():
            x, y, lin = x[valid], y[valid], lin[valid]
        pts, pl = self._match_pairs(x, y, lin)
        counts = np.bincount(pl, minlength=b.npolys).astype(np.int64)
        cols: dict[str, np.ndarray] = {}
        touched = np.flatnonzero(counts)
        cols["poly_id"] = touched.astype(np.int32)
        cols["count"] = counts[touched]
        if self.value_col is not None:
            v = batch.column(self.value_col).to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
            if not valid.all():
                v = v[valid]
            if self.fixed_point:
                # conformance plane: the reference's fixed-point AVG encoding
                # (shaders/points.vert:152-155, decode main.cpp:206-208):
                # hi = trunc(v)/100 int-div, lo = (v - 100*hi)*10 truncated.
                hi = np.trunc(v).astype(np.int64) // 100
                lo = ((v - 100.0 * hi) * 10.0).astype(np.int64)
                sh = np.bincount(pl, weights=hi[pts].astype(np.float64), minlength=b.npolys)
                sl = np.bincount(pl, weights=lo[pts].astype(np.float64), minlength=b.npolys)
                cols["sum_hi"] = sh[touched].astype(np.int64)
                cols["sum_lo"] = sl[touched].astype(np.int64)
            else:
                s = np.bincount(pl, weights=v[pts], minlength=b.npolys)
                cols["sum"] = s[touched]
        return pa.table(cols)


class SpatialJoinRows:
    """Actor-pool stage materializing the join output rows ``(id, poly_id)``
    (the reference never materializes pairs — BASELINE.json requires it)."""

    def __init__(
        self,
        bundle,
        how: str = "index",
        id_col: str = "url",
        keep_cols: tuple[str, ...] = (),
        dtype=np.float64,
    ):
        if how not in _STRATEGIES:
            raise ValueError(f"how must be one of {_STRATEGIES}")
        self.b = _get_bundle(bundle)
        self.how = how
        self.id_col = id_col
        self.keep_cols = keep_cols
        self.dtype = np.dtype(dtype)
        self._agg = SpatialJoinAgg(self.b, how=how, dtype=self.dtype)

    def __call__(self, batch: pa.Table) -> pa.Table:
        b = self.b
        x = batch.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        lin, valid = b.grid.locate_linear(x, y)
        vidx = np.flatnonzero(valid)
        x, y, lin = x[vidx], y[vidx], lin[vidx]
        pts, pl = self._agg._match_pairs(x, y, lin)
        src = vidx[pts]
        cols = {self.id_col: batch.column(self.id_col).take(pa.array(src))}
        cols["poly_id"] = pa.array(pl.astype(np.int32))
        for c in self.keep_cols:
            cols[c] = batch.column(c).take(pa.array(src))
        return pa.table(cols)


class RasterBoundsAgg:
    """J4: raster partials + error-bound counters per polygon.

    Per batch emits ``(poly_id, count, fp_all, fn_all, fp_est, fn_est)``;
    after the groupby reduce, guaranteed bounds are
    ``[count - fp_all, count + fn_all]`` and estimated bounds
    ``[count - fp_est, count + fn_est]`` — uncertainty only arises in cells
    crossed by the polygon's own outline (``shaders/line-bound.frag:219-260``).
    """

    def __init__(self, bundle):
        b = _get_bundle(bundle)
        self.b = b
        # flat (cell * npolys + poly) -> area fraction over outline cells
        keys, fracs = [], []
        for p, (cells, frac) in b.area_fractions.items():
            keys.append(cells * np.int64(b.npolys) + p)
            fracs.append(frac)
        if keys:
            k = np.concatenate(keys)
            f = np.concatenate(fracs)
            order = np.argsort(k)
            self.outline_keys = k[order]
            self.outline_frac = f[order]
        else:
            self.outline_keys = np.empty(0, dtype=np.int64)
            self.outline_frac = np.empty(0, dtype=np.float64)
        # sorted cover membership keys for assigned tests: ucells ascending ×
        # polys ascending within a cell ⇒ already sorted, no sort needed
        cells_rep = np.repeat(b.ucells, np.diff(b.ucover_indptr))
        self.cover_keys = cells_rep * np.int64(b.npolys) + b.ucover_vals

    def _member(self, sorted_keys: np.ndarray, q: np.ndarray) -> np.ndarray:
        if len(sorted_keys) == 0:
            return np.zeros(len(q), dtype=bool)
        pos = np.clip(np.searchsorted(sorted_keys, q), 0, len(sorted_keys) - 1)
        return sorted_keys[pos] == q

    def __call__(self, batch: pa.Table) -> pa.Table:
        b = self.b
        x = batch.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        lin, valid = b.grid.locate_linear(x, y)
        x, y, lin = x[valid], y[valid], lin[valid]
        # raster counts
        _, pl_cov = b.expand(lin, "cover")
        counts = np.bincount(pl_cov, minlength=b.npolys).astype(np.int64)
        # uncertainty counters over the polygon's own outline cells
        pts, pl = b.expand(lin, "cand")
        key = lin[pts] * np.int64(b.npolys) + pl
        on_outline = self._member(self.outline_keys, key)
        keyo = key[on_outline]
        plo = pl[on_outline]
        assigned = self._member(self.cover_keys, keyo)
        pos = np.clip(np.searchsorted(self.outline_keys, keyo), 0, max(0, len(self.outline_keys) - 1))
        frac = self.outline_frac[pos] if len(self.outline_keys) else np.zeros(0)
        fp_all = np.bincount(plo[assigned], minlength=b.npolys).astype(np.int64)
        fn_all = np.bincount(plo[~assigned], minlength=b.npolys).astype(np.int64)
        fp_est = np.bincount(plo[assigned], weights=(1.0 - frac[assigned]), minlength=b.npolys)
        fn_est = np.bincount(plo[~assigned], weights=frac[~assigned], minlength=b.npolys)
        touched = np.flatnonzero(counts | fp_all | fn_all)
        return pa.table(
            {
                "poly_id": touched.astype(np.int32),
                "count": counts[touched],
                "fp_all": fp_all[touched],
                "fn_all": fn_all[touched],
                "fp_est": fp_est[touched],
                "fn_est": fn_est[touched],
            }
        )


# ---------------------------------------------------------------------------
# public pipeline entry points
# ---------------------------------------------------------------------------


#: driver-side ray.put memo: repeated pipelines over the same (cached) bundle
#: reuse one plasma object instead of re-serializing hundreds of MB per call.
#: The cached value holds the bundle itself, so its id() can't be recycled.
_PUT_CACHE: dict[int, tuple] = {}
_PUT_CACHE_MAX = 8


def _bundle_ref(layer_or_bundle, accuracy_m, cell_size, max_cover_cells, area_fractions=False):
    if isinstance(layer_or_bundle, (PolygonBundle, ray.ObjectRef)):
        b = layer_or_bundle
    else:
        b = build_bundle(
            layer_or_bundle,
            accuracy_m=accuracy_m,
            cell_size=cell_size,
            max_cover_cells=max_cover_cells,
            build_area_fractions=area_fractions,
        )
    if isinstance(b, PolygonBundle) and ray.is_initialized():
        hit = _PUT_CACHE.get(id(b))
        if hit is not None and hit[0] is b:
            return hit[1]
        if len(_PUT_CACHE) >= _PUT_CACHE_MAX:
            _PUT_CACHE.pop(next(iter(_PUT_CACHE)))
        ref = ray.put(b)
        _PUT_CACHE[id(b)] = (b, ref)
        return ref
    return b


def aggregate_by_polygon(
    points_ds,
    layer_or_bundle,
    how: str = "hybrid",
    value_col: str | None = None,
    agg: str = "count",
    accuracy_m: float = 100.0,
    cell_size: float | None = None,
    max_cover_cells: int = 32_000_000,
    fixed_point: bool = False,
    compute: str = "tasks",
    concurrency=None,
    batch_size: int = 65536,
    sort: bool = True,
    reduce: str = "driver",
    dtype=np.float64,
):
    """Per-polygon COUNT / AVG / SUM of points under a join strategy.

    Returns a Dataset with columns ``poly_id, count`` plus ``sum``/``avg``
    when ``value_col`` is given (column names stable for the oracle compare).
    """
    if not _strategy_ok(how):
        raise ValueError(f"how must be one of {_STRATEGIES} or a registered strategy, got {how!r}")
    # "sum" is the reference's declared-but-CLI-unreachable aggregation
    # (Common.h:26 declares Sum; main.cpp:140-142 never maps it) — exposed
    # here as a first-class agg: the partials already carry the value sum.
    if agg not in ("count", "avg", "sum"):
        raise ValueError(f"agg must be count|avg|sum, got {agg!r}")
    cls = _agg_cls(how)
    # registered strategies predating the dtype plane keep their own default
    import inspect

    params = inspect.signature(cls.__init__).parameters
    takes_dtype = "dtype" in params or any(p.kind == p.VAR_KEYWORD for p in params.values())
    dtype_kw = {"dtype": dtype} if takes_dtype else {}
    ref = _bundle_ref(layer_or_bundle, accuracy_m, cell_size, max_cover_cells)
    if compute == "tasks":
        # stateless tasks + broadcast bundle: the per-task ray.get is a
        # zero-copy plasma view, and Ray's task pool outruns actor-pool
        # dispatch ~2x for this stage (measured; actors remain available for
        # states that are genuinely expensive to materialize per task)
        key = (
            "agg", cls.__qualname__, ref.hex() if isinstance(ref, ray.ObjectRef) else id(ref),
            how, value_col, fixed_point, str(dtype),
        )

        def fn(batch: pa.Table) -> pa.Table:
            agg = _memo(key, lambda: cls(ref, how=how, value_col=value_col, fixed_point=fixed_point, **dtype_kw))
            return agg(batch)

        partials = points_ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)
    else:
        kwargs = dict(
            fn_constructor_kwargs=dict(
                bundle=ref, how=how, value_col=value_col, fixed_point=fixed_point, **dtype_kw
            ),
            concurrency=concurrency if concurrency is not None else (1, 8),
        )
        partials = points_ds.map_batches(
            SpatialJoinAgg, batch_format="pyarrow", batch_size=batch_size, num_cpus=1, **kwargs
        )
    sum_cols = ["count"]
    if value_col is not None:
        sum_cols += ["sum_hi", "sum_lo"] if fixed_point else ["sum"]
    if reduce == "driver":
        # per-polygon partials are ≤ npolys rows per block — stream them to
        # the driver and reduce into dense O(npolys) accumulators (the
        # reference's GPU->host readback step).  Keeps the Ray DAG to
        # read+join only: the streaming executor splits the CPU budget across
        # operators, so a long reduce chain starves the join stage at low CPU
        # counts (measured 161s -> 27s at 8 CPUs).  Driver memory is O(npolys)
        # regardless of block count; reduce="distributed" remains available
        # for layers too large even for that (10^8+ polygons).
        int_cols = {"count"}
        if value_col is not None and fixed_point:
            int_cols |= {"sum_hi", "sum_lo"}
        red, stats = streaming_group_sum(partials, "poly_id", sum_cols, int_cols=int_cols)
        global LAST_STATS
        LAST_STATS = stats
        if value_col is not None and agg == "avg":
            c = red["count"].to_numpy().astype(np.float64)
            if fixed_point:
                val = red["sum_hi"].to_numpy() * 100.0 + red["sum_lo"].to_numpy() / 10.0
            else:
                val = red["sum"].to_numpy()
            red = red[["poly_id", "count"]].assign(avg=np.where(c > 0, val / np.maximum(c, 1.0), 0.0))
        # streaming_group_sum emits keys in ascending order already
        return ray.data.from_pandas(red)
    out = grouped_aggregate(partials, "poly_id", {c: (c, "sum") for c in sum_cols})

    if value_col is not None and agg == "avg":

        def add_avg(t: pa.Table) -> pa.Table:
            c = t.column("count").to_numpy(zero_copy_only=False).astype(np.float64)
            if fixed_point:
                hi = t.column("sum_hi").to_numpy(zero_copy_only=False).astype(np.float64)
                lo = t.column("sum_lo").to_numpy(zero_copy_only=False).astype(np.float64)
                val = hi * 100.0 + lo / 10.0  # decode, main.cpp:206-208
            else:
                val = t.column("sum").to_numpy(zero_copy_only=False)
            avg = np.where(c > 0, val / np.maximum(c, 1.0), 0.0)
            return pa.table(
                {"poly_id": t.column("poly_id"), "count": t.column("count"), "avg": pa.array(avg)}
            )

        out = out.map_batches(add_avg, batch_format="pyarrow")
    if sort:
        out = out.sort("poly_id")
    return out


def spatial_join(
    points_ds,
    layer_or_bundle,
    how: str = "index",
    id_col: str = "url",
    keep_cols: tuple[str, ...] = (),
    accuracy_m: float = 100.0,
    cell_size: float | None = None,
    max_cover_cells: int = 32_000_000,
    compute: str = "tasks",
    concurrency=None,
    batch_size: int = 65536,
):
    """Materialized join rows ``(id_col, poly_id [, keep_cols...])``."""
    if how not in _STRATEGIES:
        raise ValueError(f"how must be one of {_STRATEGIES}, got {how!r}")
    ref = _bundle_ref(layer_or_bundle, accuracy_m, cell_size, max_cover_cells)
    if compute == "tasks":
        key = (
            "rows", ref.hex() if isinstance(ref, ray.ObjectRef) else id(ref),
            how, id_col, tuple(keep_cols),
        )

        def fn(batch: pa.Table) -> pa.Table:
            st = _memo(key, lambda: SpatialJoinRows(ref, how=how, id_col=id_col, keep_cols=keep_cols))
            return st(batch)

        return points_ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)
    kwargs = dict(
        fn_constructor_kwargs=dict(bundle=ref, how=how, id_col=id_col, keep_cols=keep_cols),
        concurrency=concurrency if concurrency is not None else (1, 8),
    )
    return points_ds.map_batches(
        SpatialJoinRows, batch_format="pyarrow", batch_size=batch_size, num_cpus=1, **kwargs
    )


def aggregate_with_bounds(
    points_ds,
    layer_or_bundle,
    accuracy_m: float = 100.0,
    cell_size: float | None = None,
    max_cover_cells: int = 32_000_000,
    compute: str = "tasks",
    concurrency=None,
    batch_size: int = 65536,
):
    """J4: raster aggregate + guaranteed/estimated error bounds.

    Output: ``poly_id, agg, lb_guar, ub_guar, lb_est, ub_est`` (the S7 CSV
    schema, ``RasterJoin/main.cpp:178-193``).
    """
    ref = _bundle_ref(layer_or_bundle, accuracy_m, cell_size, max_cover_cells, area_fractions=True)
    if compute == "tasks":
        key = ("bounds", ref.hex() if isinstance(ref, ray.ObjectRef) else id(ref))

        def fn(batch: pa.Table) -> pa.Table:
            # RasterBoundsAgg.__init__ sorts the outline key table — memoized
            # per worker so it runs once, not once per batch
            st = _memo(key, lambda: RasterBoundsAgg(ref))
            return st(batch)

        partials = points_ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)
    else:
        kwargs = dict(
            fn_constructor_kwargs=dict(bundle=ref),
            concurrency=concurrency if concurrency is not None else (1, 8),
        )
        partials = points_ds.map_batches(
            RasterBoundsAgg, batch_format="pyarrow", batch_size=batch_size, num_cpus=1, **kwargs
        )
    import pandas as pd

    cols = ["count", "fp_all", "fn_all", "fp_est", "fn_est"]
    red, _ = streaming_group_sum(partials, "poly_id", cols, int_cols={"count", "fp_all", "fn_all"})
    c = red["count"].to_numpy().astype(np.float64)
    out = pd.DataFrame(
        {
            "poly_id": red["poly_id"],
            "agg": red["count"],
            "lb_guar": c - red["fp_all"].to_numpy(),
            "ub_guar": c + red["fn_all"].to_numpy(),
            "lb_est": c - red["fp_est"].to_numpy(),
            "ub_est": c + red["fn_est"].to_numpy(),
        }
    ).sort_values("poly_id").reset_index(drop=True)
    return ray.data.from_pandas(out)
