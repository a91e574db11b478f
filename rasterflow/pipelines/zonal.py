"""Zonal / coverage analytics over the spatial-join plane.

The reference's join kernels aggregate per-polygon COUNT and AVG only
(``RasterJoin/join/RasterJoinAlgo.cpp`` accumulates a (count, sum) canvas;
``Common.h:24-27`` declares no min/max).  This module adds the GIS "zonal
statistics" family a raster-join consumer runs next:

* :func:`zonal_stats` — per-polygon count / sum / min / max of a value column
  (min/max are order-independent and therefore hash-exact; the float sum is
  exact whenever the value column is integer-valued, cf. ``agg_poly_sum``).
* :func:`spatial_anti_join` — the coverage complement (points contained in NO
  polygon of the layer), the GIS "erase" operation.  Streaming row filter.
* :func:`nearest_site_counts` — nearest-facility assignment of every point to
  a small broadcast set of sites (squared-Euclidean, ties to the lowest site
  id) with per-site count + min distance.
* :func:`group_spatial_profile` — per-group spatial footprint: point count,
  distinct occupied cells, bounding box.
* :func:`pyramid_histogram` — multi-resolution count pyramid over a local
  canvas grid (a map-tile zoom stack) from ONE scan of the points.

One reduce design serves every key-bounded operator here, as the
reference reads its per-polygon and per-cell aggregates back from one
canvas (``RasterJoin/join/RasterJoin.cpp:51-78``): the map tasks emit
per-point (or per-batch partial) key and value columns, and
:func:`~rasterflow.util.keyed_fold` combines each block with one Arrow
``group_by`` before anything moves (a hot key collapses inside its map
task) and folds the blocks on the driver.  Each finalize step (classify,
trend numerator, entropy, leaf test) then runs once on the driver over the
folded table, which holds one row per distinct key: polygons, sites,
cells, or cells × groups.  Past ``util.FOLD_BUDGET_BYTES`` the fold
finishes in a hash exchange instead.  Only :func:`cell_top_terms`, whose
keys are cells × vocabulary (unbounded), reduces through an exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geom.cells import Grid
from ..util import _group, keyed_fold, map_stage, worker_memo
from .cellagg import _cell_counts, _ordinals
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


def _dataset(t: pa.Table, schema: pa.Schema | None = None):
    """A driver-side result as a one-block Dataset, cast to ``schema``: a
    fold that received no rows types its columns only as far as Ray knew
    the input's schema (:func:`~rasterflow.util.keyed_fold`)."""
    import ray.data

    return ray.data.from_arrow(t if schema is None else t.cast(schema))


def _schema(*cols) -> pa.Schema:
    """Schema of ``cols``: a bare name is int64, else a ``(name, type)``."""
    return pa.schema([(c, pa.int64()) if isinstance(c, str) else c for c in cols])


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
):
    """Per-polygon ``count / sum / min / max`` of ``value_col``, sorted by
    polygon id.

    ``min``/``max`` are order-independent (bit-exact under any partitioning);
    the float64 ``sum`` is exact for integer-valued columns below 2^53.
    """
    ref = _bundle_ref(layer_or_bundle, accuracy_m, cell_size, max_cover_cells)
    partials = map_stage(
        points_ds, SpatialZonalStats, batch_size=JOIN_BATCH_ROWS, bundle=ref, how=how, value_col=value_col
    )
    aggs = {"count": ("count", "sum"), "sum": ("sum", "sum"), "min": ("min", "min"), "max": ("max", "max")}
    return _dataset(keyed_fold(partials, "poly_id", aggs), _ZONAL_SCHEMA)


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


def nearest_site_counts(points_ds, sites, batch_size: int = 65536):
    """Nearest-facility assignment: each point to its nearest site.

    ``sites`` is a small (k, 2) array broadcast in the task closure — no
    shuffle of the points; each batch collapses to ≤ k partial rows.  Distance
    is squared Euclidean ``(x-sx)² + (y-sy)²`` (deterministic float64 — two
    products and one add, no accumulation), ties broken toward the lowest site
    id (numpy ``argmin`` first-occurrence ≡ SQL ``ORDER BY d2, site_id``).
    Returns ``(site_id, count, min_d2)`` for every site that won ≥1 point,
    sorted by site id.
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
    aggs = {"count": ("count", "sum"), "min_d2": ("min_d2", "min")}
    return _dataset(keyed_fold(partials, "site_id", aggs), empty)


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


def group_spatial_profile(points_ds, grid: Grid, group_col: str = "lang"):
    """Per-group spatial footprint: ``(group, n_points, n_cells, min_x, max_x,
    min_y, max_y)`` sorted by group, where ``n_cells`` counts distinct
    occupied grid cells.

    The map emits each point's (group, cell, x, y); one fold on (group,
    cell) leaves one row per occupied cell of each group, and one driver
    ``group_by`` on the group folds those.  Points outside the grid are
    dropped (canvas clip, like the histogram), and so are null groups."""

    def cells(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        lin, valid = grid.locate_linear(x, y)
        g = batch.column(group_col).filter(pa.array(valid))
        return pa.table({group_col: g, "cell_id": lin[valid], "x": x[valid], "y": y[valid]})

    box = {"min_x": ("x", "min"), "max_x": ("x", "max"), "min_y": ("y", "min"), "max_y": ("y", "max")}
    per_cell = keyed_fold(
        points_ds.map_batches(cells, batch_format="pyarrow"),
        [group_col, "cell_id"],
        {"n": ("cell_id", "count")} | box,
    )
    aggs = {"n_points": ("n", "sum"), "n_cells": ("cell_id", "count")}
    aggs |= {k: (k, fn) for k, (_, fn) in box.items()}
    out = _group(per_cell, [group_col], aggs).sort_by(group_col)
    gtype = per_cell.schema.field(group_col).type
    floats = [(c, pa.float64()) for c in box]
    return _dataset(out, _schema((group_col, gtype), "n_points", "n_cells", *floats))


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
):
    """GIS buffer analysis: per polygon, count points inside it OR within
    ``buffer_dist`` of its boundary — "population within 500 m of each park".

    Membership is the exact matcher (bundle broadcast once); the per-polygon
    boundary distance is the clamped point-to-segment projection over the
    polygon's OWN contiguous edge block (``np.minimum.reduceat`` across the
    edge axis — min is order-independent, so hash-exact).  Each batch
    collapses to ≤ npolys count partials, folded on the driver; the result
    is sorted by polygon id.  The edge table broadcasts in the task closure
    — dashboard-scale layers; a 10^6-edge layer goes through the
    tile-sharded path (pair points only with nearby cells' edges), the same
    escape hatch as :func:`distance_to_boundary`.
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
    return _dataset(keyed_fold(partials, "poly_id", {"n_buffer": ("n_buffer", "sum")}), empty)


def hotspot_evolution(
    points_ds,
    grid: Grid,
    id_col: str = "doc_id",
    buckets: int = 8,
    min_count: int = 10,
):
    """Emerging-hotspot classification (the space-time follow-up to
    :func:`cell_trend`): split the crawl span into early/late halves and
    label each cell ``emerging`` (hot only late), ``declining`` (hot only
    early) or ``persistent`` (hot in both), where hot means ≥ ``min_count``
    points in that half.  Integer counts + a CASE label — hash-exact.  Same
    plan as :func:`cell_trend`: each point's (cell, late) folds to per-cell
    ``(n, n_late)``, labelled on the driver.  Returns ``(cell_id, n_early,
    n_late, status)`` sorted by cell id.
    """
    from ..sources.fixtures import TS_SPAN

    if TS_SPAN % buckets:
        raise ValueError("buckets must divide TS_SPAN")
    w = TS_SPAN // buckets
    half = buckets // 2

    def cells(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        lin, valid = grid.locate_linear(x, y)
        late = (((ids[valid] * 137) % TS_SPAN) // w) >= half
        return pa.table({"cell_id": lin[valid], "late": late.astype(np.int64)})

    aggs = {"n": ("cell_id", "count"), "n_late": ("late", "sum")}
    t = keyed_fold(points_ds.map_batches(cells, batch_format="pyarrow"), "cell_id", aggs)
    c, n, nl = (col.to_numpy() for col in t.cast(_schema("cell_id", *aggs)).columns)
    ne = n - nl
    hot_e = ne >= min_count
    hot_l = nl >= min_count
    keep = hot_e | hot_l
    status = np.where(hot_e & hot_l, "persistent", np.where(hot_l, "emerging", "declining"))
    return _dataset(
        pa.table(
            {
                "cell_id": c[keep],
                "n_early": ne[keep],
                "n_late": nl[keep],
                "status": pa.array(status[keep], type=pa.string()),
            }
        )
    )


def cell_trend(
    points_ds,
    grid: Grid,
    id_col: str = "doc_id",
    buckets: int = 8,
    min_points: int = 10,
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
    so each point's (cell, bucket) folds to per-cell ``(n, Σbucket)`` and
    the driver finalizes.  Returns ``(cell_id, n, trend_num)`` for cells
    with ``n >= min_points``, sorted by cell id.
    """
    from ..sources.fixtures import TS_SPAN

    if TS_SPAN % buckets:
        raise ValueError("buckets must divide TS_SPAN for exact integer windows")
    w = TS_SPAN // buckets
    sx = buckets * (buckets - 1) // 2  # Σx over 0..B-1

    def cells(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        lin, valid = grid.locate_linear(x, y)
        return pa.table({"cell_id": lin[valid], "bucket": ((ids[valid] * 137) % TS_SPAN) // w})

    aggs = {"n": ("cell_id", "count"), "sb": ("bucket", "sum")}
    t = keyed_fold(points_ds.map_batches(cells, batch_format="pyarrow"), "cell_id", aggs)
    c, n, sb = (col.to_numpy() for col in t.cast(_schema("cell_id", *aggs)).columns)
    keep = n >= min_points
    trend_num = buckets * sb[keep] - sx * n[keep]
    return _dataset(pa.table({"cell_id": c[keep], "n": n[keep], "trend_num": trend_num}))


def cell_top_terms(points_ds, grid: Grid, k: int = 3, text_col: str = "text"):
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

    # the one exchange of this module: (cell, token) keys grow with the
    # vocabulary, not with the canvas, so they are not bounded enough to
    # fold on the driver
    from ..util import coalesce_small, grouped_aggregate
    from .sampling import top_k_per_group

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


def _entropy_fold(t: pa.Table, key_name: str, ngroups: int) -> pa.Table:
    """Per-key Shannon entropy from the folded ``(key, gi, n)`` table.

    Fixed left-to-right fold over group ordinals (the SQL chain's order)
    with SCALAR libm logs — numpy's SIMD log drifts 1 ulp from DuckDB's
    ln on rare inputs (the lm_nll lesson); the loop is bounded by the
    folded keys × groups table, never raw rows."""
    import math

    keys_, kinv = np.unique(t.column(key_name).to_numpy(), return_inverse=True)
    mat = np.zeros((len(keys_), ngroups), dtype=np.int64)
    mat[kinv, t.column("gi").to_numpy()] = t.column("n").to_numpy()
    n = mat.sum(axis=1)
    ent = np.zeros(len(keys_), dtype=np.float64)
    for i in range(ngroups):
        p = mat[:, i].astype(np.float64) / n
        lg = np.array([math.log(v) if v > 0 else 0.0 for v in p])
        ent = ent + np.where(mat[:, i] > 0, -(p * lg), 0.0)
    return pa.table({key_name: keys_, "n": n, "entropy": ent})


def cell_group_entropy(
    points_ds,
    grid: Grid,
    group_col: str = "lang",
    groups: tuple[str, ...] = ("de", "en", "es", "fr", "zh"),
):
    """Per-cell Shannon entropy of a categorical mix (language-diversity
    raster — "how multilingual is each area").

    ``groups`` fixes BOTH the membership and the summation order: entropy =
    -Σ_g (n_g/n)·ln(n_g/n), accumulated left-to-right over ``groups`` with
    zero-count terms skipped — the same fixed-order fold + scalar libm logs
    that make ``lm_nll_worst`` hash-exact, so the float column matches the
    SQL oracle bit for bit.  Rows with a value outside ``groups`` are
    dropped (visible contract; pass the full domain).  Plan: each point's
    (cell, group ordinal) folds to (cell, group) counts, then the entropy
    runs once on the driver.  Returns ``(cell_id, n, entropy)`` sorted by
    cell id.
    """

    def cells(batch: pa.Table) -> pa.Table:
        lin, valid = grid.locate_linear(
            batch.column("x").to_numpy(zero_copy_only=False), batch.column("y").to_numpy(zero_copy_only=False)
        )
        gi = _ordinals(batch.column(group_col), groups)
        m = valid & (gi >= 0)
        return pa.table({"cell_id": lin[m], "gi": gi[m]})

    ds = points_ds.map_batches(cells, batch_format="pyarrow")
    t = keyed_fold(ds, ["cell_id", "gi"], {"n": ("gi", "count")})
    return _dataset(_entropy_fold(t.cast(_schema("cell_id", "gi", "n")), "cell_id", len(groups)))


def choropleth_classes(points_ds, grid: Grid, qs: tuple[float, ...] = (0.25, 0.5, 0.75)):
    """Quantile-break choropleth classification of the count raster — the
    map-styling step after a heatmap: bucket every populated cell into
    ``len(qs)+1`` classes by EXACT count quantiles (the repo's rank rule:
    the ceil(q·n)-th smallest, ≡ the ``col_quantiles_cont`` oracle).

    Plan: one point scan folds to the (cell, n) raster on the driver, where
    the breaks come from its sorted counts
    (:func:`~rasterflow.pipelines.sampling.rank_pick`) and every cell is
    classified.  Returns ``(cell_id, n, cls)`` sorted by cell id.
    """
    from .sampling import rank_pick

    hist = _cell_counts(points_ds, grid).cast(_schema("cell_id", "n"))
    n = hist.column("n").to_numpy()
    v, cnt = np.unique(n, return_counts=True)
    th = v[rank_pick(cnt, np.zeros(min(1, len(v)), dtype=np.int64), qs)].ravel()
    cls = (n[:, None] > th[None, :]).sum(axis=1, dtype=np.int64)
    return _dataset(hist.append_column("cls", pa.array(cls)))


def adaptive_cells(points_ds, grid: Grid, levels: int = 3, threshold: int = 100):
    """Adaptive quadtree tiling (LOD drill-down): emit each populated region
    at the COARSEST resolution that needs no further split — what a map
    server renders when a tile splits only where it is dense.

    A cell at level ``l`` is a leaf iff its parent split (parent count >
    ``threshold``; the coarsest level always splits from the root) and it
    either fits the threshold itself or is already the finest level.
    Counts are monotone up the pyramid, so the whole ancestor chain's
    split-ness is implied by the immediate parent's — no recursion needed.

    Plan: ONE point scan folds to the pyramid on the driver, sorted by
    (level, cell); each cell finds its parent's count there by one
    ``searchsorted``, then the leaf test runs row-local.  Output ``(level,
    cell_id, n)`` sorted by (level, cell_id).
    """
    t = _pyramid(points_ds, grid, levels)
    lv, c, n = (col.to_numpy() for col in t.columns)
    warr = np.asarray(_widths(grid, levels) + [1], dtype=np.int64)  # dummy tail for lv+1 gather
    K = np.int64(grid.ncells + 1)
    w, wp = warr[lv], warr[lv + 1]
    parent = (lv + 1) * K + ((c // w) >> 1) * wp + ((c % w) >> 1)
    sk = lv * K + c  # ascending: the fold sorts by (level, cell_id)
    i = np.minimum(np.searchsorted(sk, parent), max(len(sk) - 1, 0))
    split = (lv == levels - 1) | ((sk[i] == parent) & (n[i] > threshold))
    keep = split & ((n <= threshold) | (lv == 0))
    return _dataset(t.filter(pa.array(keep)))


def _widths(grid: Grid, levels: int) -> list[int]:
    """Row width of each pyramid level: ``ceil(nx / 2^l)``."""
    return [max(1, -(-grid.nx // (1 << lv))) for lv in range(levels)]


def _pyramid(points_ds, grid: Grid, levels: int) -> pa.Table:
    """``(level, cell_id, n)`` of :func:`pyramid_histogram`, sorted."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    nx = np.int64(grid.nx)
    widths = np.asarray(_widths(grid, levels), dtype=np.int64)

    def cells(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        lin, valid = grid.locate_linear(x, y)
        iy, ix = np.divmod(lin[valid], nx)
        return pa.table(
            {
                "level": np.repeat(np.arange(levels, dtype=np.int64), len(iy)),
                "cell_id": np.concatenate([(iy >> lv) * widths[lv] + (ix >> lv) for lv in range(levels)]),
            }
        )

    ds = points_ds.map_batches(cells, batch_format="pyarrow")
    t = keyed_fold(ds, ["level", "cell_id"], {"n": ("cell_id", "count")})
    return t.cast(_schema("level", "cell_id", "n"))


def pyramid_histogram(points_ds, grid: Grid, levels: int = 3):
    """Multi-resolution count pyramid over a local canvas grid.

    Level 0 is the grid itself; level ``l`` aggregates ``2^l × 2^l`` cell
    blocks, linearized on the level's own ceil-divided width (``row >> l`` ×
    ``ceil(nx / 2^l)`` + ``col >> l``) — the map-tile zoom stack a heatmap
    server precomputes.  ONE scan of the points: each point emits its cell
    at every level and one fold on (level, cell) finalizes the whole stack.
    Returns ``(level, cell_id, n)`` sorted by (level, cell_id)."""
    return _dataset(_pyramid(points_ds, grid, levels))


def poly_group_entropy(
    points_ds,
    layer_or_bundle,
    group_col: str = "lang",
    groups: tuple[str, ...] = ("de", "en", "es", "fr", "zh"),
    how: str = "index",
    accuracy_m: float = 100.0,
    cell_size: float | None = None,
):
    """Per-ZONE Shannon entropy of a categorical mix — the polygon-keyed
    twin of :func:`cell_group_entropy` (how diverse is each neighborhood).

    The exact matcher classifies each batch and every matched (point,
    polygon) pair emits its (polygon, group ordinal) — a point inside two
    overlapping polygons counts in both (per-zone semantics); the pairs
    fold to (polygon, group) counts, then the shared fixed-order
    scalar-log entropy runs on the driver.  Returns ``(poly_id, n,
    entropy)`` sorted by polygon id.
    """
    ref = _bundle_ref(layer_or_bundle, accuracy_m, cell_size, 32_000_000)
    key = ("pentropy", ref.hex(), how)

    def pairs(batch: pa.Table) -> pa.Table:
        agg = worker_memo(key, lambda: SpatialJoinAgg(ref, how=how))
        x = batch.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        lin, valid = agg.b.grid.locate_linear(x, y)
        vidx = np.flatnonzero(valid)
        pts, pl = agg._match_pairs(x[vidx], y[vidx], lin[vidx])
        gi = _ordinals(batch.column(group_col), groups)[vidx[pts]]
        m = gi >= 0
        return pa.table({"poly_id": pl[m].astype(np.int32), "gi": gi[m]})

    ds = points_ds.map_batches(pairs, batch_format="pyarrow", batch_size=JOIN_BATCH_ROWS)
    t = keyed_fold(ds, ["poly_id", "gi"], {"n": ("gi", "count")})
    t = t.cast(_schema(("poly_id", pa.int32()), "gi", "n"))
    return _dataset(_entropy_fold(t, "poly_id", len(groups)))
