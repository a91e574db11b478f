"""Tile-sharded spatial join — the scale path for polygon layers too large to
broadcast as one bundle.

The single-bundle join (``pipelines/joins``) broadcasts one PolygonBundle;
fine up to ~10^5 polygons / ~10^8 covered cells.  Beyond that (country-scale
cadastral layers, 10^7 polygons) the layer is sharded by coarse hierarchical
tile:

- each polygon is assigned to every tile its MBR intersects (a superset is
  safe: candidate lists only gate the exact PIP; cover lists are computed
  per-tile from the same center-in-polygon rule, so they are exact
  restrictions of the global cover);
- one PolygonBundle per tile (built in parallel Ray tasks, each ``ray.put``
  separately — a node only ever pulls the tiles its points touch);
- the join stage routes each batch row to its point's tile and evaluates it
  against that tile's bundle only.  A (point, polygon) pair is counted in
  exactly one tile — the point's — so totals are exact with no pair dedupe.

No shuffle is introduced: tile routing is a per-batch ``np.unique`` over the
tile ids; with spatially clustered input (the ingest layout) batches touch
one or two tiles.  Partitioning assumption: the per-tile bundle fits a
worker's heap — tile_res controls that.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from ..geom.cells import Grid, encode_cells
from ..geom.polyio import PolygonLayer
from ..geom.projection import accuracy_to_cell_size
from ..state.bundle import PolygonBundle
from ..util import keyed_fold, worker_memo


def _tile_of_points(x: np.ndarray, y: np.ndarray, tile_res: int) -> np.ndarray:
    return encode_cells(x, y, tile_res)


def build_tile_bundles(
    layer: PolygonLayer,
    tile_res: int,
    accuracy_m: float | None = None,
    cell_size: float | None = None,
    max_cover_cells_per_tile: int = 4_000_000,
):
    """{tile_id: (bundle_ref, global_poly_ids)} — built in parallel."""
    if cell_size is None:
        if accuracy_m is None:
            raise ValueError("pass accuracy_m or cell_size")
        cell_size = accuracy_to_cell_size(accuracy_m)
    m = layer.mbrs
    # tiles intersected by each polygon MBR
    tile_assign: dict[int, list[int]] = {}
    for p in range(layer.npolys):
        t0 = encode_cells(np.array([m[p, 0]]), np.array([m[p, 1]]), tile_res)[0]
        t1 = encode_cells(np.array([m[p, 2]]), np.array([m[p, 3]]), tile_res)[0]
        from ..geom.cells import decode_cells

        _, ix0, iy0 = (int(v[0]) for v in decode_cells(np.array([t0])))
        _, ix1, iy1 = (int(v[0]) for v in decode_cells(np.array([t1])))
        for ix in range(ix0, ix1 + 1):
            for iy in range(iy0, iy1 + 1):
                tid = (tile_res << 58) | (ix << 29) | iy
                tile_assign.setdefault(tid, []).append(p)

    gx0, gy0 = float(layer.bounds[0]), float(layer.bounds[1])

    @ray.remote
    def build_one(layer_ref, poly_ids, cs):
        sub_polys = []
        for p in poly_ids:
            ro = layer_ref.rings_of(p)
            rings = [
                layer_ref.verts[ro[r] : ro[r + 1]] for r in range(len(ro) - 1)
            ]
            sub_polys.append(rings)
        sub = PolygonLayer(f"{layer_ref.name}-tile", *_pack(sub_polys))
        xmin, ymin, xmax, ymax = sub.bounds
        total_area = float(((sub.mbrs[:, 2] - sub.mbrs[:, 0]) * (sub.mbrs[:, 3] - sub.mbrs[:, 1])).sum())
        min_cell = (total_area / max_cover_cells_per_tile) ** 0.5 if total_area > 0 else 0.0
        cs2 = max(cs, min_cell)
        # snap the tile canvas to the GLOBAL cell lattice anchored at the
        # layer origin, so raster cell boundaries (and hence cover lists)
        # are identical to the unsharded canvas when cs2 == cs
        sx0 = gx0 + np.floor((xmin - gx0) / cs2) * cs2
        sy0 = gy0 + np.floor((ymin - gy0) / cs2) * cs2
        grid = Grid.from_bounds(sx0, sy0, xmax, ymax, cs2)
        return PolygonBundle(sub, grid), np.asarray(poly_ids, dtype=np.int32)

    layer_ref = ray.put(layer)
    futures = {
        tid: build_one.remote(layer_ref, pids, float(cell_size))
        for tid, pids in tile_assign.items()
    }
    out = {}
    for tid, fut in futures.items():
        bundle, gids = ray.get(fut)
        out[tid] = (ray.put(bundle), gids)
    return out


def _pack(polygons):
    verts, ring_offsets, poly_ring_offsets = [], [0], [0]
    for rings in polygons:
        for ring in rings:
            verts.append(np.asarray(ring, dtype=np.float64))
            ring_offsets.append(ring_offsets[-1] + len(ring))
        poly_ring_offsets.append(poly_ring_offsets[-1] + len(rings))
    v = np.concatenate(verts, axis=0) if verts else np.empty((0, 2))
    return v, np.asarray(ring_offsets, dtype=np.int64), np.asarray(poly_ring_offsets, dtype=np.int64)


def aggregate_by_polygon_sharded(
    points_ds,
    layer: PolygonLayer,
    tile_res: int = 7,
    how: str = "hybrid",
    accuracy_m: float = 100.0,
    cell_size: float | None = None,
):
    """Per-polygon counts via tile-sharded bundles (exact ≡ unsharded)."""
    from .joins import JOIN_BATCH_ROWS, SpatialJoinAgg

    tiles = build_tile_bundles(layer, tile_res, accuracy_m=accuracy_m, cell_size=cell_size)
    npolys = layer.npolys
    tiles_ref = ray.put(tiles)

    def fn(batch: pa.Table) -> pa.Table:
        tile_map = worker_memo(("tiles", tiles_ref.hex()), lambda: ray.get(tiles_ref))
        x = batch.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        tid = _tile_of_points(x, y, tile_res)
        counts = np.zeros(npolys, dtype=np.int64)
        for t in np.unique(tid):
            entry = tile_map.get(int(t))
            if entry is None:
                continue
            bref, gids = entry
            # per-worker memo: a fresh ray.get per batch would deserialize
            # each tile bundle and rebuild its lazy edge tables every batch
            sel = tid == t
            agg = worker_memo(("tile_agg", bref.hex(), how), lambda: SpatialJoinAgg(bref, how=how))
            sub = pa.table({"x": pa.array(x[sel]), "y": pa.array(y[sel])})
            part = agg(sub)
            local_ids = part.column("poly_id").to_numpy(zero_copy_only=False)
            counts[gids[local_ids]] += part.column("count").to_numpy(zero_copy_only=False)
        touched = np.flatnonzero(counts)
        return pa.table({"poly_id": touched.astype(np.int32), "count": counts[touched]})

    partials = points_ds.map_batches(fn, batch_format="pyarrow", batch_size=JOIN_BATCH_ROWS)
    # O(npolys) driver fold, keys in ascending order
    return ray.data.from_arrow(keyed_fold(partials, "poly_id", {"count": ("count", "sum")}))
