"""Raster overlay: polygon-layer × polygon-layer intersection via cell sampling.

The reference joins points against ONE polygon layer with a raster
approximation (``RasterJoin/join/RasterJoinAlgo.cpp`` — polygons rasterized to
a canvas, per-fragment accumulation).  The natural next GIS operation over the
same machinery is the **overlay**: for every pair ``(polygon A_i, polygon
B_j)`` across two layers, estimate the intersection area.  Exact
vector-geometry overlay needs polygon clipping; the raster answer samples the
plane at cell centers — the same center-sampling the reference's GL
rasterizer performs — and counts, per pair, the cells whose center lies in
both.  ``area ≈ n_cells × cell_area``, error bounded by the boundary-cell
count exactly as in the reference's raster join (SURVEY.md §2.4 J4).

Plan (Ray-Data-first): the sampling grid's cell ids are a ``ray.data.range``
— the *canvas itself is the dataset*, streamed in blocks, so a
continent-sized canvas at fine resolution never materializes.  Each block
computes its centers, runs the exact PIP matcher of BOTH layers (bundles
broadcast once via the object store, built once per worker exactly like the
join family), expands per-center (A-hit × B-hit) pairs fully vectorized, and
collapses to ``(poly_a, poly_b, n)`` partials; one collapsed-key exchange
finalizes.  Pair cardinality is bounded by overlapping-pair count, not
|A|×|B|.

Scale note: both layers ship whole to every actor (like the join family's
bundle).  For two 10^6-polygon layers, run this per tile instead —
``sharded.py``'s tile decomposition applies verbatim since the canvas
partitions cleanly by cell range.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geom.cells import Grid
from ..util import coalesce_small, grouped_aggregate, worker_memo
from .joins import SpatialJoinAgg, _bundle_ref
from .packing import _ragged_arange

_OVERLAY_SCHEMA = pa.schema(
    [("poly_a", pa.int32()), ("poly_b", pa.int32()), ("n", pa.int64())]
)


def _hits(agg, cx: np.ndarray, cy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(center_idx, poly_id) pairs for centers inside the agg's layer."""
    lin, valid = agg.b.grid.locate_linear(cx, cy)
    vidx = np.flatnonzero(valid)
    if len(vidx) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    pts, pl = agg._match_pairs(cx[vidx], cy[vidx], lin[vidx])
    return vidx[pts], pl.astype(np.int64, copy=False)


def _cross_pairs(
    n_pts: int,
    pts_a: np.ndarray,
    ids_a: np.ndarray,
    pts_b: np.ndarray,
    ids_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point cross product of two (point, id) hit lists, vectorized.

    For each point with hits [a1..am] × [b1..bk] emits all m·k pairs
    (a repeated k-consecutive, b tiled m times) — no Python loop.
    """
    na = np.bincount(pts_a, minlength=n_pts)
    nb = np.bincount(pts_b, minlength=n_pts)
    oa = np.argsort(pts_a, kind="stable")
    pa_, aa = pts_a[oa], ids_a[oa]
    ob = np.argsort(pts_b, kind="stable")
    pb_, ab = pts_b[ob], ids_b[ob]
    ma = nb[pa_] > 0
    pa_, aa = pa_[ma], aa[ma]
    mb = na[pb_] > 0
    pb_, ab = pb_[mb], ab[mb]
    if len(pa_) == 0 or len(pb_) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    na2 = np.bincount(pa_, minlength=n_pts)
    nb2 = np.bincount(pb_, minlength=n_pts)
    out_a = np.repeat(aa, nb2[pa_])
    # b side: per point u (ascending, same order as the sorted arrays) the
    # B segment tiles na2[u] times; index = segment start + (t mod k)
    ptsu = np.flatnonzero(na2)
    startb = np.concatenate(([0], np.cumsum(nb2[ptsu])))[:-1]
    reps = na2[ptsu] * nb2[ptsu]
    rep_u = np.repeat(np.arange(len(ptsu)), reps)
    out_b = ab[startb[rep_u] + _ragged_arange(reps) % np.repeat(nb2[ptsu], reps)]
    return out_a, out_b


def raster_area(
    layer,
    grid: Grid,
    how: str = "index",
    accuracy_m: float = 100.0,
    cell_size: float | None = None,
    batch_size: int = 65536,
    sort: bool = True,
):
    """Per-polygon raster area (cell-center sampling) plus the layer's
    DISSOLVED union area — "how much ground does each zone / the whole layer
    cover".  Same streamed-canvas plan as :func:`raster_overlay` with one
    layer: each block counts per-polygon center hits AND distinct covered
    centers (union = cells inside ≥1 polygon, counted once regardless of
    overlap).  Output rows: one per polygon + a ``poly_id = -1`` union row;
    ``area = n_cells × grid.cell²``.
    """
    import ray.data

    ref = _bundle_ref(layer, accuracy_m, cell_size, 32_000_000)
    key = ("area", ref.hex(), how)
    empty = pa.schema([("poly_id", pa.int32()), ("n", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_numpy(zero_copy_only=False)
        cx, cy = grid.centers(ids)
        agg = worker_memo(key, lambda: SpatialJoinAgg(ref, how=how))
        pts, pl = _hits(agg, cx, cy)
        if len(pts) == 0:
            return empty.empty_table()
        uniq, counts = np.unique(pl, return_counts=True)
        n_union = len(np.unique(pts))
        return pa.table(
            {
                "poly_id": pa.array(
                    np.concatenate([uniq, [-1]]).astype(np.int32), type=pa.int32()
                ),
                "n": pa.array(np.concatenate([counts, [n_union]]).astype(np.int64)),
            }
        )

    canvas = ray.data.range(grid.ncells, override_num_blocks=max(1, grid.ncells // batch_size))
    partials = canvas.map_batches(partial, batch_format="pyarrow", batch_size=batch_size)
    agg = grouped_aggregate(coalesce_small(partials, 0.25), "poly_id", {"n": ("n", "sum")})
    cell_area = grid.cell * grid.cell

    def finalize(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "poly_id": t.column("poly_id"),
                "n_cells": t.column("n"),
                "area": pa.array(n.astype(np.float64) * cell_area),
            }
        )

    out = agg.map_batches(finalize, batch_format="pyarrow")
    return out.sort("poly_id") if sort else out


def raster_overlay(
    layer_a,
    layer_b,
    grid: Grid,
    how: str = "index",
    accuracy_m: float = 100.0,
    cell_size: float | None = None,
    batch_size: int = 65536,
    sort: bool = True,
):
    """Pairwise intersection-area estimate between two polygon layers.

    Returns ``(poly_a, poly_b, n_cells, area)`` for every pair with at least
    one shared sampled cell; ``area = n_cells × grid.cell²`` (one int→float
    multiply by a shared constant — hash-exact).  ``grid`` is the sampling
    canvas; finer cells tighten the estimate exactly like the reference's
    accuracy knob ε.  ``how="index"`` gives exact center classification;
    ``"raster"`` trades boundary cells for speed, as in the join family.
    """
    import ray.data

    ref_a = _bundle_ref(layer_a, accuracy_m, cell_size, 32_000_000)
    ref_b = _bundle_ref(layer_b, accuracy_m, cell_size, 32_000_000)
    key_a, key_b = ("overlay", "a", ref_a.hex(), how), ("overlay", "b", ref_b.hex(), how)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_numpy(zero_copy_only=False)
        cx, cy = grid.centers(ids)
        agg_a = worker_memo(key_a, lambda: SpatialJoinAgg(ref_a, how=how))
        agg_b = worker_memo(key_b, lambda: SpatialJoinAgg(ref_b, how=how))
        pts_a, ids_a = _hits(agg_a, cx, cy)
        pts_b, ids_b = _hits(agg_b, cx, cy)
        out_a, out_b = _cross_pairs(len(ids), pts_a, ids_a, pts_b, ids_b)
        if len(out_a) == 0:
            return _OVERLAY_SCHEMA.empty_table()
        key = out_a * np.int64(1 << 32) + out_b
        uniq, counts = np.unique(key, return_counts=True)
        return pa.table(
            {
                "poly_a": pa.array((uniq >> 32).astype(np.int32), type=pa.int32()),
                "poly_b": pa.array((uniq & 0xFFFFFFFF).astype(np.int32), type=pa.int32()),
                "n": pa.array(counts.astype(np.int64)),
            }
        )

    canvas = ray.data.range(grid.ncells, override_num_blocks=max(1, grid.ncells // batch_size))
    partials = canvas.map_batches(partial, batch_format="pyarrow", batch_size=batch_size)
    agg = grouped_aggregate(
        coalesce_small(partials, 0.25), ["poly_a", "poly_b"], {"n": ("n", "sum")}
    )
    cell_area = grid.cell * grid.cell

    def finalize(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "poly_a": t.column("poly_a"),
                "poly_b": t.column("poly_b"),
                "n_cells": t.column("n"),
                "area": pa.array(n.astype(np.float64) * cell_area),
            }
        )

    out = agg.map_batches(finalize, batch_format="pyarrow")
    return out.sort(["poly_a", "poly_b"]) if sort else out
