"""Zonal / coverage analytics over the spatial-join plane.

The reference's join kernels aggregate per-polygon COUNT and AVG only
(``RasterJoin/join/RasterJoinAlgo.cpp`` accumulates a (count, sum) canvas;
``Common.h:24-27`` declares no min/max).  This module adds the GIS "zonal
statistics" family a raster-join consumer runs next — all expressed as the
same partial→reduce split as :class:`~rasterflow.pipelines.joins.SpatialJoinAgg`:

* :func:`zonal_stats` — per-polygon count / sum / min / max of a value column
  (min/max are order-independent and therefore hash-exact; the float sum is
  exact whenever the value column is integer-valued, cf. ``agg_poly_sum``).
* :func:`spatial_anti_join` — the coverage complement (points contained in NO
  polygon of the layer), the GIS "erase" operation.  Streaming row filter, no
  shuffle.
* :func:`nearest_site_counts` — nearest-facility assignment of every point to
  a small broadcast set of sites (squared-Euclidean, ties to the lowest site
  id) with per-site count + min distance.  Partials are ≤ k rows per batch.
* :func:`group_spatial_profile` — per-group spatial footprint: point count,
  distinct occupied cells, bounding box.  Two tiny shuffles of per-(group,
  cell) partials; the raw points never move.
* :func:`pyramid_histogram` — multi-resolution count pyramid over a local
  canvas grid (a map-tile zoom stack): ONE scan of the points, every level
  emitted from the same per-batch partial, one (level, cell) shuffle.

100 TB posture: every stage reduces inside ``map_batches`` first (partials are
bounded by the touched-key count per batch, not the row count), so the only
exchanges are over already-collapsed keys.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geom.cells import Grid
from ..util import coalesce_small, grouped_aggregate, map_stage, worker_memo
from .joins import JOIN_BATCH_ROWS, SpatialJoinAgg, _bundle_ref

_ZONAL_SCHEMA = pa.schema(
    [
        ("poly_id", pa.int32()),
        ("count", pa.int64()),
        ("sum", pa.float64()),
        ("min", pa.float64()),
        ("max", pa.float64()),
    ]
)


class SpatialZonalStats(SpatialJoinAgg):
    """Per-batch partial zonal statistics: ``(poly_id, count, sum, min, max)``.

    Reuses the parent's strategy-dispatched matcher (raster / index / hybrid);
    the per-polygon reductions are one stable argsort + ``ufunc.reduceat``
    over the matched pairs — no Python per-group work.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:  # noqa: D102
        if self.value_col is None:
            raise ValueError("zonal stats require a value_col")
        b = self.b
        x = batch.column("x").to_numpy(zero_copy_only=False).astype(self.dtype, copy=False)
        y = batch.column("y").to_numpy(zero_copy_only=False).astype(self.dtype, copy=False)
        v = batch.column(self.value_col).to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        lin, valid = b.grid.locate_linear(x, y)
        if not valid.all():
            x, y, lin, v = x[valid], y[valid], lin[valid], v[valid]
        pts, pl = self._match_pairs(x, y, lin)
        if len(pl) == 0:
            return _ZONAL_SCHEMA.empty_table()
        vo = v[pts]
        order = np.argsort(pl, kind="stable")
        pls, vs = pl[order], vo[order]
        uniq, starts = np.unique(pls, return_index=True)
        counts = np.diff(np.append(starts, len(pls)))
        return pa.table(
            {
                "poly_id": pa.array(uniq.astype(np.int32), type=pa.int32()),
                "count": pa.array(counts.astype(np.int64)),
                "sum": pa.array(np.add.reduceat(vs, starts)),
                "min": pa.array(np.minimum.reduceat(vs, starts)),
                "max": pa.array(np.maximum.reduceat(vs, starts)),
            }
        )


def zonal_stats(
    points_ds,
    layer_or_bundle,
    value_col: str,
    how: str = "index",
    accuracy_m: float = 100.0,
    cell_size: float | None = None,
    max_cover_cells: int = 32_000_000,
    sort: bool = True,
):
    """Per-polygon ``count / sum / min / max`` of ``value_col``.

    ``min``/``max`` are order-independent (bit-exact under any partitioning);
    the float64 ``sum`` is exact for integer-valued columns below 2^53.
    """
    ref = _bundle_ref(layer_or_bundle, accuracy_m, cell_size, max_cover_cells)
    partials = map_stage(
        points_ds, SpatialZonalStats, batch_size=JOIN_BATCH_ROWS, bundle=ref, how=how, value_col=value_col
    )
    out = grouped_aggregate(
        coalesce_small(partials, 0.25),
        "poly_id",
        {
            "count": ("count", "sum"),
            "sum": ("sum", "sum"),
            "min": ("min", "min"),
            "max": ("max", "max"),
        },
    )
    return out.sort("poly_id") if sort else out


def spatial_anti_join(
    points_ds,
    layer_or_bundle,
    how: str = "index",
    accuracy_m: float = 100.0,
    cell_size: float | None = None,
    max_cover_cells: int = 32_000_000,
):
    """Rows contained in NO polygon of the layer (GIS "erase" / coverage
    complement).  Points outside the layer's canvas are uncovered by
    definition.  Exact under ``how="index"``/``"hybrid"``; ``"raster"`` gives
    the raster approximation of coverage.  Pure streaming filter — no shuffle,
    the bundle ships once via the object store."""
    ref = _bundle_ref(layer_or_bundle, accuracy_m, cell_size, max_cover_cells)
    key = ("anti", ref.hex(), how)

    def fn(batch: pa.Table) -> pa.Table:
        agg = worker_memo(key, lambda: SpatialJoinAgg(ref, how=how))
        b = agg.b
        x = batch.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        lin, valid = b.grid.locate_linear(x, y)
        vidx = np.flatnonzero(valid)
        pts, _ = agg._match_pairs(x[vidx], y[vidx], lin[vidx])
        covered = np.zeros(len(x), dtype=bool)
        if len(pts):
            covered[vidx[np.unique(pts)]] = True
        return batch.filter(pa.array(~covered))

    return points_ds.map_batches(fn, batch_format="pyarrow", batch_size=JOIN_BATCH_ROWS)


def nearest_site_counts(points_ds, sites, batch_size: int = 65536, sort: bool = True):
    """Nearest-facility assignment: each point to its nearest site.

    ``sites`` is a small (k, 2) array broadcast in the task closure — no
    shuffle of the points; each batch collapses to ≤ k partial rows.  Distance
    is squared Euclidean ``(x-sx)² + (y-sy)²`` (deterministic float64 — two
    products and one add, no accumulation), ties broken toward the lowest site
    id (numpy ``argmin`` first-occurrence ≡ SQL ``ORDER BY d2, site_id``).
    Returns ``(site_id, count, min_d2)`` for every site that won ≥1 point.
    """
    s = np.ascontiguousarray(np.asarray(sites, dtype=np.float64).reshape(-1, 2))
    k = len(s)
    empty = pa.schema([("site_id", pa.int32()), ("count", pa.int64()), ("min_d2", pa.float64())])

    def partial(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        if len(x) == 0:
            return empty.empty_table()
        dx = x[:, None] - s[None, :, 0]
        dy = y[:, None] - s[None, :, 1]
        d2 = dx * dx + dy * dy
        a = np.argmin(d2, axis=1)
        dmin = d2[np.arange(len(x)), a]
        counts = np.bincount(a, minlength=k)
        mins = np.full(k, np.inf)
        np.minimum.at(mins, a, dmin)
        touched = np.flatnonzero(counts)
        return pa.table(
            {
                "site_id": pa.array(touched.astype(np.int32), type=pa.int32()),
                "count": pa.array(counts[touched].astype(np.int64)),
                "min_d2": pa.array(mins[touched]),
            }
        )

    partials = points_ds.map_batches(partial, batch_format="pyarrow", batch_size=batch_size)
    out = grouped_aggregate(
        coalesce_small(partials, 0.25),
        "site_id",
        {"count": ("count", "sum"), "min_d2": ("min_d2", "min")},
    )
    return out.sort("site_id") if sort else out


def boundary_edges(layer) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All boundary segments of a polygon layer as flat float64 arrays
    ``(ax, ay, bx, by)`` — edge i joins vertex i to its ring-predecessor,
    the same pairing the PIP kernel iterates (geom/pip.py)."""
    vs, ro, pro = layer.verts, layer.ring_offsets, layer.poly_ring_offsets
    ax, ay, bx, by = [], [], [], []
    for r in range(len(ro) - 1):
        v = vs[ro[r] : ro[r + 1]]
        prev = np.roll(v, 1, axis=0)
        ax.append(v[:, 0])
        ay.append(v[:, 1])
        bx.append(prev[:, 0])
        by.append(prev[:, 1])
    cat = lambda a: np.concatenate(a) if a else np.empty(0, np.float64)  # noqa: E731
    return cat(ax), cat(ay), cat(bx), cat(by)


def distance_to_boundary(points_ds, layer, out_col: str = "d2_boundary", batch_size: int = 65536):
    """Append the min SQUARED distance from each point to the layer's polygon
    boundaries (point-to-segment with clamped projection) — the GIS
    "distance to nearest feature" primitive.

    The edge set is a broadcast closure constant (fine for dashboard-scale
    layers; a 10^6-edge layer should go through the tile-sharded path
    instead, pairing each point only with edges of nearby cells).  Every
    float expression mirrors the SQL oracle shape exactly; the min over
    edges is order-independent, so the result is bit-stable under any
    partitioning."""
    ax, ay, bx, by = boundary_edges(layer)
    dx = bx - ax
    dy = by - ay
    l2 = dx * dx + dy * dy
    # engine-only robustness: degenerate (zero-length) edges project to their
    # own endpoint; the oracle layers contain none
    l2 = np.where(l2 == 0.0, 1.0, l2)

    def fn(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        if len(x) == 0:
            return batch.append_column(out_col, pa.array(np.empty(0, np.float64)))
        px = x[:, None]
        py = y[:, None]
        t = ((px - ax) * dx + (py - ay) * dy) / l2
        np.clip(t, 0.0, 1.0, out=t)
        ddx = px - (ax + t * dx)
        ddy = py - (ay + t * dy)
        d2 = ddx * ddx + ddy * ddy
        return batch.append_column(out_col, pa.array(d2.min(axis=1)))

    return points_ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)


def smallest_k(ds, score_col: str, id_col: str, k: int):
    """Global deterministic top-k smallest by ``(score, id)`` without a full
    sort shuffle: each block keeps its own k candidates (any global winner is
    inside its block's top-k), the tiny partials merge in one task."""
    from ..util import det_topk_indices

    def block(t: pa.Table) -> pa.Table:
        v = t.column(score_col).to_numpy(zero_copy_only=False)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        return t.take(pa.array(det_topk_indices(v, ids, k)))

    return ds.map_batches(block, batch_format="pyarrow").repartition(1).map_batches(
        block, batch_format="pyarrow"
    )


def group_spatial_profile(points_ds, grid: Grid, group_col: str = "lang", sort: bool = True):
    """Per-group spatial footprint: ``(group, n_points, n_cells, min_x, max_x,
    min_y, max_y)`` where ``n_cells`` counts distinct occupied grid cells.

    Stage 1 collapses each batch to per-(group, cell) partials; stage 2
    reduces those to unique (group, cell) rows; stage 3 folds to one row per
    group.  The raw points move zero times — only collapsed keys shuffle.
    Points outside the grid are dropped (canvas clip, like the histogram)."""
    import pandas as pd

    empty = pa.schema(
        [
            (group_col, pa.string()),
            ("cell_id", pa.int64()),
            ("n", pa.int64()),
            ("min_x", pa.float64()),
            ("max_x", pa.float64()),
            ("min_y", pa.float64()),
            ("max_y", pa.float64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        lin, valid = grid.locate_linear(x, y)
        g = batch.column(group_col).to_pandas()
        df = pd.DataFrame({group_col: g, "cell_id": lin, "x": x, "y": y})
        if not valid.all():
            df = df[valid]
        if len(df) == 0:
            return empty.empty_table()
        out = df.groupby([group_col, "cell_id"], as_index=False, sort=False).agg(
            n=pd.NamedAgg("x", "size"),
            min_x=pd.NamedAgg("x", "min"),
            max_x=pd.NamedAgg("x", "max"),
            min_y=pd.NamedAgg("y", "min"),
            max_y=pd.NamedAgg("y", "max"),
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    partials = points_ds.map_batches(partial, batch_format="pyarrow")
    per_cell = grouped_aggregate(
        coalesce_small(partials, 0.25),
        [group_col, "cell_id"],
        {
            "n": ("n", "sum"),
            "min_x": ("min_x", "min"),
            "max_x": ("max_x", "max"),
            "min_y": ("min_y", "min"),
            "max_y": ("max_y", "max"),
        },
    )
    out = grouped_aggregate(
        per_cell,
        group_col,
        {
            "n_points": ("n", "sum"),
            "n_cells": ("cell_id", "count"),
            "min_x": ("min_x", "min"),
            "max_x": ("max_x", "max"),
            "min_y": ("min_y", "min"),
            "max_y": ("max_y", "max"),
        },
    )
    return out.sort(group_col) if sort else out


def poly_edges(layer) -> tuple[np.ndarray, ...]:
    """Boundary segments with their owning polygon: ``(poly_of_edge_start,
    ax, ay, bx, by)`` where ``poly_of_edge_start[p]`` is the first edge index
    of polygon ``p`` (edges are stored ring-major, rings poly-major, so each
    polygon's edges are contiguous)."""
    ax, ay, bx, by = boundary_edges(layer)
    ro, pro = layer.ring_offsets, layer.poly_ring_offsets
    # first edge of poly p = vertex offset of its first ring (1 edge/vertex)
    starts = np.asarray([ro[pro[p]] for p in range(len(pro) - 1)], dtype=np.int64)
    return starts, ax, ay, bx, by


def buffered_polygon_counts(
    points_ds,
    layer_or_bundle,
    layer,
    buffer_dist: float,
    how: str = "index",
    accuracy_m: float = 100.0,
    cell_size: float | None = None,
    batch_size: int = 65536,
    sort: bool = True,
):
    """GIS buffer analysis: per polygon, count points inside it OR within
    ``buffer_dist`` of its boundary — "population within 500 m of each park".

    Membership is the exact matcher (bundle broadcast once); the per-polygon
    boundary distance is the clamped point-to-segment projection over the
    polygon's OWN contiguous edge block (``np.minimum.reduceat`` across the
    edge axis — min is order-independent, so hash-exact).  Each batch
    collapses to ≤ npolys count partials; one collapsed-key exchange.  The
    edge table broadcasts in the task closure — dashboard-scale layers; a
    10^6-edge layer goes through the tile-sharded path (pair points only
    with nearby cells' edges), the same escape hatch as
    :func:`distance_to_boundary`.
    """
    ref = _bundle_ref(layer_or_bundle, accuracy_m, cell_size, 32_000_000)
    estarts, ax, ay, bx, by = poly_edges(layer)
    dx = bx - ax
    dy = by - ay
    l2 = dx * dx + dy * dy
    l2 = np.where(l2 == 0.0, 1.0, l2)  # engine-only degenerate-edge guard
    npolys = len(estarts)
    thr = float(buffer_dist) * float(buffer_dist)
    key = ("buffer", ref.hex(), how, thr)
    empty = pa.schema([("poly_id", pa.int32()), ("n_buffer", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        if len(x) == 0:
            return empty.empty_table()
        agg = worker_memo(key, lambda: SpatialJoinAgg(ref, how=how))
        lin, valid = agg.b.grid.locate_linear(x, y)
        vidx = np.flatnonzero(valid)
        ok = np.zeros((len(x), npolys), dtype=bool)
        if len(vidx):
            pts, pl = agg._match_pairs(x[vidx], y[vidx], lin[vidx])
            ok[vidx[pts], pl] = True
        px = x[:, None]
        py = y[:, None]
        t = ((px - ax) * dx + (py - ay) * dy) / l2
        np.clip(t, 0.0, 1.0, out=t)
        ddx = px - (ax + t * dx)
        ddy = py - (ay + t * dy)
        d2 = ddx * ddx + ddy * ddy
        mind2 = np.minimum.reduceat(d2, estarts, axis=1)
        ok |= mind2 <= thr
        counts = ok.sum(axis=0).astype(np.int64)
        touched = np.flatnonzero(counts)
        return pa.table(
            {
                "poly_id": pa.array(touched.astype(np.int32), type=pa.int32()),
                "n_buffer": pa.array(counts[touched]),
            }
        )

    partials = points_ds.map_batches(partial, batch_format="pyarrow", batch_size=batch_size)
    out = grouped_aggregate(
        coalesce_small(partials, 0.25), "poly_id", {"n_buffer": ("n_buffer", "sum")}
    )
    return out.sort("poly_id") if sort else out


def hotspot_evolution(
    points_ds,
    grid: Grid,
    id_col: str = "doc_id",
    buckets: int = 8,
    min_count: int = 10,
    sort: bool = True,
):
    """Emerging-hotspot classification (the space-time follow-up to
    :func:`cell_trend`): split the crawl span into early/late halves and
    label each cell ``emerging`` (hot only late), ``declining`` (hot only
    early) or ``persistent`` (hot in both), where hot means ≥ ``min_count``
    points in that half.  Integer counts + a CASE label — hash-exact.  Same
    single-scan collapsed-partial plan as :func:`cell_trend`.
    """
    from ..sources.fixtures import TS_SPAN

    if TS_SPAN % buckets:
        raise ValueError("buckets must divide TS_SPAN")
    w = TS_SPAN // buckets
    half = buckets // 2

    def partial(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        lin, valid = grid.locate_linear(x, y)
        lin, ids = lin[valid], ids[valid]
        late = (((ids * 137) % TS_SPAN) // w) >= half
        order = np.argsort(lin, kind="stable")
        lins, lates = lin[order], late[order]
        uniq, starts = np.unique(lins, return_index=True)
        counts = np.diff(np.append(starts, len(lins)))
        n_late = np.add.reduceat(lates.astype(np.int64), starts) if len(lates) else np.empty(0, np.int64)
        return pa.table(
            {
                "cell_id": pa.array(uniq),
                "n_early": pa.array(counts.astype(np.int64) - n_late),
                "n_late": pa.array(n_late),
            }
        )

    partials = coalesce_small(points_ds.map_batches(partial, batch_format="pyarrow"), 0.25)
    agg = grouped_aggregate(
        partials, "cell_id", {"n_early": ("n_early", "sum"), "n_late": ("n_late", "sum")}
    )

    def classify(t: pa.Table) -> pa.Table:
        ne = t.column("n_early").to_numpy(zero_copy_only=False)
        nl = t.column("n_late").to_numpy(zero_copy_only=False)
        hot_e = ne >= min_count
        hot_l = nl >= min_count
        keep = hot_e | hot_l
        status = np.where(
            hot_e & hot_l, "persistent", np.where(hot_l, "emerging", "declining")
        )
        return pa.table(
            {
                "cell_id": t.column("cell_id").filter(pa.array(keep)),
                "n_early": pa.array(ne[keep]),
                "n_late": pa.array(nl[keep]),
                "status": pa.array(status[keep].tolist(), type=pa.string()),
            }
        )

    out = agg.map_batches(classify, batch_format="pyarrow")
    return out.sort("cell_id") if sort else out


def cell_trend(
    points_ds,
    grid: Grid,
    id_col: str = "doc_id",
    buckets: int = 8,
    min_points: int = 10,
    sort: bool = True,
):
    """Per-cell temporal activity trend — raster change detection over time.

    Each point's crawl timestamp offset is the pages-fixture plane
    ``(doc_id * 137) % TS_SPAN`` (``sources/fixtures.py``; pure integer, so
    the SQL oracle reproduces it bit-exactly); the span divides into
    ``buckets`` equal windows and each cell gets the least-squares slope of
    its per-window counts.  With fixed x = 0..B-1 the slope is
    ``(B·Σxy − Σx·Σy) / (B·Σx² − (Σx)²)``: the denominator is a positive
    per-query constant, so the emitted ``trend_num = B·Σxy − Σx·N`` is an
    *integer* whose sign/magnitude ranks cells by activity growth — integer
    end to end, hash-exact under any partitioning.  Σxy needs no dense
    bucket vector: it is just the sum of bucket indices over the cell's rows,
    so each batch collapses to per-cell ``(n, Σbucket)`` partials and ONE
    collapsed-key exchange finalizes.  Returns ``(cell_id, n, trend_num)``
    for cells with ``n >= min_points``.
    """
    from ..sources.fixtures import TS_SPAN

    if TS_SPAN % buckets:
        raise ValueError("buckets must divide TS_SPAN for exact integer windows")
    w = TS_SPAN // buckets
    sx = buckets * (buckets - 1) // 2  # Σx over 0..B-1

    def partial(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        lin, valid = grid.locate_linear(x, y)
        lin, ids = lin[valid], ids[valid]
        bk = ((ids * 137) % TS_SPAN) // w
        order = np.argsort(lin, kind="stable")
        lins, bks = lin[order], bk[order]
        uniq, starts = np.unique(lins, return_index=True)
        counts = np.diff(np.append(starts, len(lins)))
        return pa.table(
            {
                "cell_id": pa.array(uniq),
                "n": pa.array(counts.astype(np.int64)),
                "sb": pa.array(np.add.reduceat(bks, starts) if len(bks) else np.empty(0, np.int64)),
            }
        )

    partials = coalesce_small(points_ds.map_batches(partial, batch_format="pyarrow"), 0.25)
    agg = grouped_aggregate(partials, "cell_id", {"n": ("n", "sum"), "sb": ("sb", "sum")})

    def finalize(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False)
        sb = t.column("sb").to_numpy(zero_copy_only=False)
        keep = n >= min_points
        return pa.table(
            {
                "cell_id": t.column("cell_id").filter(pa.array(keep)),
                "n": pa.array(n[keep]),
                "trend_num": pa.array(buckets * sb[keep] - sx * n[keep]),
            }
        )

    out = agg.map_batches(finalize, batch_format="pyarrow")
    return out.sort("cell_id") if sort else out


def cell_top_terms(
    points_ds, grid: Grid, k: int = 3, text_col: str = "text", sort: bool = True
):
    """Per-cell top-``k`` vocabulary terms — "what words trend where", the
    geo×text crossover a crawl heatmap serves next to the count raster.

    Tokenization is the repo's whitespace plane (≡ ``string_split_regex(text,
    '\\s+')`` non-empty, cf. token_stats) restricted to purely-alphabetic
    lowercase tokens — doc ids and coordinate literals in the fixture text
    carry no signal and would explode the key space with count-1 strings.
    Plan: each batch explodes to tokens and immediately collapses to
    ``(cell_id, token, n)`` partials (bounded by touched cells × vocabulary,
    not row count), one collapsed-key exchange sums them, and the existing
    two-stage :func:`~rasterflow.pipelines.sampling.top_k_per_group` picks
    each cell's winners with (n desc, token asc) tie determinism — the raw
    text never shuffles.  Returns ``(cell_id, token, n)``.
    """
    import pandas as pd

    from ..pipelines.sampling import top_k_per_group

    empty = pa.schema([("cell_id", pa.int64()), ("token", pa.string()), ("n", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        lin, valid = grid.locate_linear(x, y)
        texts = batch.column(text_col).to_pandas().reset_index(drop=True)[valid]
        if len(texts) == 0:
            return empty.empty_table()
        s = pd.DataFrame({"cell_id": lin[valid], "token": texts.str.split()})
        s = s.explode("token", ignore_index=True)
        s = s[s["token"].str.fullmatch(r"[a-z]+", na=False)]
        if len(s) == 0:
            return empty.empty_table()
        out = s.groupby(["cell_id", "token"], as_index=False, sort=False).size()
        out = out.rename(columns={"size": "n"})
        return pa.Table.from_pandas(out, preserve_index=False)

    partials = coalesce_small(points_ds.map_batches(partial, batch_format="pyarrow"), 0.25)
    agg = grouped_aggregate(partials, ["cell_id", "token"], {"n": ("n", "sum")})
    return top_k_per_group(agg, "cell_id", "n", k, id_col="token")


def _entropy_fold(gdf, key_name: str, ngroups: int):
    """Per-key Shannon entropy from collapsed ``(key, gi, n)`` rows.

    Fixed left-to-right fold over group ordinals (the SQL chain's order)
    with SCALAR libm logs — numpy's SIMD log drifts 1 ulp from DuckDB's
    ln on rare inputs (the lm_nll lesson); the loop is bounded by the
    COLLAPSED keys × groups table, never raw rows."""
    import math

    import pandas as pd

    agg = gdf.groupby([key_name, "gi"], as_index=False)["n"].sum()
    keys_, kinv = np.unique(agg[key_name].to_numpy(), return_inverse=True)
    mat = np.zeros((len(keys_), ngroups), dtype=np.int64)
    mat[kinv, agg["gi"].to_numpy()] = agg["n"].to_numpy()
    n = mat.sum(axis=1)
    ent = np.zeros(len(keys_), dtype=np.float64)
    for i in range(ngroups):
        p = mat[:, i].astype(np.float64) / n
        lg = np.array([math.log(v) if v > 0 else 0.0 for v in p])
        ent = ent + np.where(mat[:, i] > 0, -(p * lg), 0.0)
    return pd.DataFrame({key_name: keys_, "n": n, "entropy": ent})


def _entropy_by_key(partials, key_name: str, ngroups: int):
    """Per-key entropy of collapsed ``(key, gi, n)`` partials: coalesce,
    hash-partition by key, then :func:`_entropy_fold` each partition —
    the shared tail of the cell- and polygon-keyed entropy operators."""
    import pandas as pd

    from ..util import _hash_cols, shuffle_parts

    num_partitions = shuffle_parts(0.5)

    def addpk(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({key_name: t.column(key_name).to_numpy(zero_copy_only=False)})
        pk = (_hash_cols(df, [key_name]) % np.uint64(num_partitions)).astype(np.int32)
        return t.append_column("_pk", pa.array(pk))

    return (
        coalesce_small(partials, 0.25)
        .map_batches(addpk, batch_format="pyarrow")
        .groupby("_pk")
        .map_groups(lambda g: _entropy_fold(g, key_name, ngroups), batch_format="pandas")
    )


def cell_group_entropy(
    points_ds,
    grid: Grid,
    group_col: str = "lang",
    groups: tuple[str, ...] = ("de", "en", "es", "fr", "zh"),
    sort: bool = True,
):
    """Per-cell Shannon entropy of a categorical mix (language-diversity
    raster — "how multilingual is each area").

    ``groups`` fixes BOTH the membership and the summation order: entropy =
    -Σ_g (n_g/n)·ln(n_g/n), accumulated left-to-right over ``groups`` with
    zero-count terms skipped — the same fixed-order fold + scalar libm logs
    that make ``lm_nll_worst`` hash-exact, so the float column matches the
    SQL oracle bit for bit.  Rows with a value outside ``groups`` are
    dropped (visible contract; pass the full domain).  Plan: per-batch
    (cell, group) collapse → one collapsed-key exchange → per-cell
    fixed-width pivot + row-local entropy.  Returns ``(cell_id, n,
    entropy)``.
    """
    import pandas as pd

    gidx = {g: i for i, g in enumerate(groups)}
    empty = pa.schema([("cell_id", pa.int64()), ("gi", pa.int64()), ("n", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        lin, valid = grid.locate_linear(x, y)
        g = batch.column(group_col).to_pandas().map(gidx)
        m = valid & g.notna().to_numpy()
        if not m.any():
            return empty.empty_table()
        df = pd.DataFrame({"cell_id": lin[m], "gi": g.to_numpy()[m].astype(np.int64)})
        out = df.groupby(["cell_id", "gi"], as_index=False, sort=False).size()
        return pa.Table.from_pandas(out.rename(columns={"size": "n"}), preserve_index=False)

    out = _entropy_by_key(
        points_ds.map_batches(partial, batch_format="pyarrow"), "cell_id", len(groups)
    )
    return out.sort("cell_id") if sort else out


def choropleth_classes(
    points_ds, grid: Grid, qs: tuple[float, ...] = (0.25, 0.5, 0.75), sort: bool = True
):
    """Quantile-break choropleth classification of the count raster — the
    map-styling step after a heatmap: bucket every populated cell into
    ``len(qs)+1`` classes by EXACT count quantiles (the repo's rank rule:
    the ceil(q·n)-th smallest, ≡ the ``col_quantiles_cont`` oracle).

    Plan: one point scan collapses to the (cell, n) raster; the exact
    distributed pivot selection finds the break values over that collapsed
    table (O(log) passes, no sort); the tiny threshold vector broadcasts
    into a row-local classify.  Returns ``(cell_id, n, cls)``.
    """
    from .cellagg import cell_histogram_grid
    from .sampling import column_quantiles_select

    hist = cell_histogram_grid(points_ds, grid).materialize()
    th = (
        column_quantiles_select(hist, "n", qs=qs)
        .to_pandas()["value"]
        .to_numpy()
        .astype(np.float64)
    )

    def classify(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False)
        cls = np.zeros(len(n), dtype=np.int64)
        for tv in th:
            cls += n > tv
        return pa.table({"cell_id": t.column("cell_id"), "n": t.column("n"), "cls": pa.array(cls)})

    out = hist.map_batches(classify, batch_format="pyarrow")
    return out.sort("cell_id") if sort else out


def adaptive_cells(
    points_ds, grid: Grid, levels: int = 3, threshold: int = 100, sort: bool = True
):
    """Adaptive quadtree tiling (LOD drill-down): emit each populated region
    at the COARSEST resolution that needs no further split — what a map
    server renders when a tile splits only where it is dense.

    A cell at level ``l`` is a leaf iff its parent split (parent count >
    ``threshold``; the coarsest level always splits from the root) and it
    either fits the threshold itself or is already the finest level.
    Counts are monotone up the pyramid, so the whole ancestor chain's
    split-ness is implied by the immediate parent's — no recursion needed.

    Plan: ONE point scan (the pyramid partials), then a single
    tagged-union hash join of the pyramid against itself on the parent key
    (``relational.hash_join`` — no driver materialization), then a
    row-local filter.  Output ``(level, cell_id, n)``.
    """
    from .relational import hash_join

    pyr = pyramid_histogram(points_ds, grid, levels, sort=False)
    nx = grid.nx
    widths = [max(1, -(-nx // (1 << lv))) for lv in range(levels)]
    warr = np.asarray(widths + [1], dtype=np.int64)  # dummy tail for lv+1 gather
    K = np.int64(grid.ncells + 1)

    def addkeys(t: pa.Table) -> pa.Table:
        lv = t.column("level").to_numpy(zero_copy_only=False)
        c = t.column("cell_id").to_numpy(zero_copy_only=False)
        w = warr[lv]
        wp = warr[lv + 1]
        parent = ((c // w) >> 1) * wp + ((c % w) >> 1)
        jk = np.where(lv < levels - 1, (lv + 1) * K + parent, np.int64(-1))
        sk = lv * K + c
        return t.append_column("jk", pa.array(jk)).append_column("sk", pa.array(sk))

    # two consumers (join left + right projection): materialize the collapsed
    # pyramid once or the point scan behind it executes twice
    keyed = pyr.map_batches(addkeys, batch_format="pyarrow").materialize()
    right = keyed.map_batches(
        lambda t: pa.table({"jk": t.column("sk"), "n_parent": t.column("n")}),
        batch_format="pyarrow",
    )
    joined = hash_join(
        keyed, right, on="jk",
        left_cols=["level", "cell_id", "n"], right_cols=["n_parent"], how="left",
    )

    def leaf(t: pa.Table) -> pa.Table:
        lv = t.column("level").to_numpy(zero_copy_only=False)
        n = t.column("n").to_numpy(zero_copy_only=False)
        npar = t.column("n_parent").to_numpy(zero_copy_only=False).astype(np.float64)
        keep = ((lv == levels - 1) | (npar > threshold)) & ((n <= threshold) | (lv == 0))
        m = pa.array(keep)
        return pa.table(
            {
                "level": t.column("level").filter(m),
                "cell_id": t.column("cell_id").filter(m),
                "n": t.column("n").filter(m),
            }
        )

    out = joined.map_batches(leaf, batch_format="pyarrow")
    return out.sort(["level", "cell_id"]) if sort else out


def pyramid_histogram(points_ds, grid: Grid, levels: int = 3, sort: bool = True):
    """Multi-resolution count pyramid over a local canvas grid.

    Level 0 is the grid itself; level ``l`` aggregates ``2^l × 2^l`` cell
    blocks, linearized on the level's own ceil-divided width (``row >> l`` ×
    ``ceil(nx / 2^l)`` + ``col >> l``) — the map-tile zoom stack a heatmap
    server precomputes.  ONE scan of the points: every level is emitted from
    the same per-batch partial (each already collapsed to unique cells), so a
    single (level, cell) shuffle finalizes the whole stack."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    nx = grid.nx
    widths = [max(1, -(-nx // (1 << lv))) for lv in range(levels)]

    def partial(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        lin, valid = grid.locate_linear(x, y)
        lin = lin[valid]
        iy, ix = np.divmod(lin, np.int64(nx))
        lv_out, cell_out, n_out = [], [], []
        for lv in range(levels):
            cl = (iy >> lv) * np.int64(widths[lv]) + (ix >> lv)
            cells, counts = np.unique(cl, return_counts=True)
            lv_out.append(np.full(len(cells), lv, dtype=np.int64))
            cell_out.append(cells)
            n_out.append(counts.astype(np.int64))
        return pa.table(
            {
                "level": np.concatenate(lv_out) if lv_out else np.empty(0, np.int64),
                "cell_id": np.concatenate(cell_out) if cell_out else np.empty(0, np.int64),
                "n": np.concatenate(n_out) if n_out else np.empty(0, np.int64),
            }
        )

    partials = points_ds.map_batches(partial, batch_format="pyarrow")
    out = grouped_aggregate(
        coalesce_small(partials, 0.25), ["level", "cell_id"], {"n": ("n", "sum")}
    )
    return out.sort(["level", "cell_id"]) if sort else out


def poly_group_entropy(
    points_ds,
    layer_or_bundle,
    group_col: str = "lang",
    groups: tuple[str, ...] = ("de", "en", "es", "fr", "zh"),
    how: str = "index",
    accuracy_m: float = 100.0,
    cell_size: float | None = None,
    sort: bool = True,
):
    """Per-ZONE Shannon entropy of a categorical mix — the polygon-keyed
    twin of :func:`cell_group_entropy` (how diverse is each neighborhood).

    The exact matcher classifies each batch; matched pairs collapse to
    ``(poly_id, group)`` counts in-batch (a point inside two overlapping
    polygons counts in both — per-zone semantics); one collapsed-key
    exchange, then the shared fixed-order scalar-log entropy fold.
    Returns ``(poly_id, n, entropy)``.
    """
    import pandas as pd

    ref = _bundle_ref(layer_or_bundle, accuracy_m, cell_size, 32_000_000)
    key = ("pentropy", ref.hex(), how)
    gidx = {g: i for i, g in enumerate(groups)}
    empty = pa.schema([("poly_id", pa.int32()), ("gi", pa.int64()), ("n", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        agg = worker_memo(key, lambda: SpatialJoinAgg(ref, how=how))
        x = batch.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        lin, valid = agg.b.grid.locate_linear(x, y)
        vidx = np.flatnonzero(valid)
        if len(vidx) == 0:
            return empty.empty_table()
        pts, pl = agg._match_pairs(x[vidx], y[vidx], lin[vidx])
        if len(pts) == 0:
            return empty.empty_table()
        g = batch.column(group_col).to_pandas().map(gidx).to_numpy()
        gp = g[vidx[pts]]
        m = ~pd.isna(gp)
        if not m.any():
            return empty.empty_table()
        df = pd.DataFrame({"poly_id": pl[m].astype(np.int32), "gi": gp[m].astype(np.int64)})
        out = df.groupby(["poly_id", "gi"], as_index=False, sort=False).size()
        return pa.Table.from_pandas(out.rename(columns={"size": "n"}), preserve_index=False)

    out = _entropy_by_key(
        points_ds.map_batches(partial, batch_format="pyarrow", batch_size=JOIN_BATCH_ROWS),
        "poly_id",
        len(groups),
    )
    return out.sort("poly_id") if sort else out
