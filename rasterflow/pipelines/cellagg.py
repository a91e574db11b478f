"""Per-cell histograms / canvas aggregation (A3: the canvas as data).

The reference's canvas is a dense per-cell ``(count, sum)`` accumulator
(``RasterJoin/join/RasterJoin.cpp:51-78``).  Here it is a two-stage
aggregation (:func:`~rasterflow.util.keyed_fold`): a per-block count partial
(one row per touched cell per block) folded on the driver — the canonical
partial→final split (SURVEY.md §2.5 A3) that avoids shuffling raw rows and
neutralizes hot-cell skew (a hot cell collapses to one partial row per block
regardless of its point count), like the reference's canvas readback.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geom.cells import Grid, encode_cells
from ..util import _group, keyed_fold


def _cell_counts(points_ds, grid: Grid, value_col: str | None = None) -> pa.Table:
    """``(cell_id, n [, val_sum])`` per touched local-grid cell, sorted."""
    import pyarrow.compute as pc

    def cells(batch: pa.Table) -> pa.Table:
        lin, valid = grid.locate_linear(
            batch.column("x").to_numpy(zero_copy_only=False), batch.column("y").to_numpy(zero_copy_only=False)
        )
        cols = {"cell_id": lin[valid]}
        if value_col is not None:
            cols["v"] = pc.cast(batch.column(value_col).filter(pa.array(valid)), pa.float64())
        return pa.table(cols)

    aggs = {"n": ("cell_id", "count")}
    if value_col is not None:
        aggs["val_sum"] = ("v", "sum")
    return keyed_fold(points_ds.map_batches(cells, batch_format="pyarrow"), "cell_id", aggs)


def cell_histogram_grid(points_ds, grid: Grid, value_col: str | None = None):
    """Counts (and optional sums) per local-grid cell (linearized ids),
    always sorted by cell id."""
    import ray.data

    return ray.data.from_arrow(_cell_counts(points_ds, grid, value_col))


def extract_raster_at_points(points_ds, grid: Grid, out_col: str = "density"):
    """Raster value extraction at point locations (the GIS "sample raster at
    points" primitive): append each point's own cell count — a local-density
    feature column for downstream selection/filtering.

    The collapsed count raster (canvas-sized, the same bound as every other
    canvas structure) broadcasts once via ``ray.put`` as a dense int64
    vector; each batch gathers it at the point's linearized cell — zero
    shuffle of the points, no exchange to build the raster.  Off-canvas
    points get density 0."""
    import ray

    from .cellagg import cell_histogram_grid  # self-import safe at runtime

    hist = cell_histogram_grid(points_ds, grid).to_pandas()
    dense = np.zeros(grid.ncells, dtype=np.int64)
    dense[hist["cell_id"].to_numpy()] = hist["n"].to_numpy()
    ref = ray.put(dense) if ray.is_initialized() else dense

    def fn(batch: pa.Table) -> pa.Table:
        d = ray.get(ref) if not isinstance(ref, np.ndarray) else ref
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        lin, valid = grid.locate_linear(x, y)
        val = np.where(valid, d[np.minimum(lin, grid.ncells - 1)], 0)
        return batch.append_column(out_col, pa.array(val.astype(np.int64)))

    return points_ds.map_batches(fn, batch_format="pyarrow")


def coverage_gaps(points_ds, grid: Grid, sort: bool = True):
    """Coverage-gap mining: grid cells whose ENTIRE 3×3 neighborhood holds
    zero points — "where is there no data at all", the complement query
    behind site placement and survey-gap analysis.

    The lit-cell set collapses to a canvas-sized bitmap broadcast once via
    ``ray.put``; the canvas itself streams as ``ray.data.range`` blocks and
    each block tests its cells' neighborhoods against the bitmap with one
    vectorized gather per stencil offset — no shuffle before the final
    sort.  Returns ``(cell_id,)`` sorted."""
    import ray

    hist = cell_histogram_grid(points_ds, grid).to_pandas()
    lit = np.zeros(grid.ncells, dtype=bool)
    lit[hist["cell_id"].to_numpy()] = True
    ref = ray.put(lit) if ray.is_initialized() else lit
    nx, ny = np.int64(grid.nx), np.int64(grid.ny)

    def fn(batch: pa.Table) -> pa.Table:
        lm = ray.get(ref) if not isinstance(ref, np.ndarray) else ref
        c = batch.column("id").to_numpy(zero_copy_only=False).astype(np.int64)
        cx, cy = c % nx, c // nx
        any_lit = np.zeros(len(c), dtype=bool)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                tx, ty = cx + dx, cy + dy
                ok = (tx >= 0) & (tx < nx) & (ty >= 0) & (ty < ny)
                idx = np.where(ok, ty * nx + tx, 0)
                any_lit |= ok & lm[idx]
        return pa.table({"cell_id": pa.array(c[~any_lit])})

    canvas = ray.data.range(grid.ncells, override_num_blocks=max(1, grid.ncells // 65536))
    out = canvas.map_batches(fn, batch_format="pyarrow")
    return out.sort("cell_id") if sort else out


def rollup_histogram(hist_ds, parent_res: int):
    """Roll a global-cell histogram up to a coarser resolution, sorted by
    cell id.

    Pure bit-shift parent derivation (M7 hierarchy) + re-aggregation, folded
    on the driver — no re-scan of the points."""
    import ray.data

    from ..geom.cells import parent_cells

    def to_parent(b: pa.Table) -> pa.Table:
        p = parent_cells(b.column("cell_id").to_numpy(zero_copy_only=False), parent_res)
        return pa.table({"cell_id": pa.array(p), "n": b.column("n")})

    parents = hist_ds.map_batches(to_parent, batch_format="pyarrow")
    return ray.data.from_arrow(keyed_fold(parents, "cell_id", {"n": ("n", "sum")}))


def aggregate_catalog(points_ds, catalog: dict, how: str = "hybrid", **kwargs):
    """Per-polygon aggregates for every layer of a catalog (the analogue of
    the reference's polygon-collection switching, ``DataHandler::
    setPolygonQuery``).  Returns {name: Dataset}; bundles are cached so
    repeated calls are cheap."""
    from .joins import aggregate_by_polygon

    return {name: aggregate_by_polygon(points_ds, layer, how=how, **kwargs) for name, layer in catalog.items()}


def cell_histogram_global(points_ds, res: int, x_col: str = "x", y_col: str = "y"):
    """Counts per global hierarchical cell id at resolution ``res`` (M7/T5
    analogue — the engine's tile-assignment histogram), always sorted by
    cell id."""
    import ray.data

    def cells(batch: pa.Table) -> pa.Table:
        x = batch.column(x_col).to_numpy(zero_copy_only=False).astype(np.float64)
        y = batch.column(y_col).to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"cell_id": encode_cells(x, y, res)})

    cells_ds = points_ds.map_batches(cells, batch_format="pyarrow")
    return ray.data.from_arrow(keyed_fold(cells_ds, "cell_id", {"n": ("cell_id", "count")}))


#: integer 3x3 stencils — integer weights keep the DuckDB oracle exact.
#: "gauss3" is the binomial (Gaussian-approximating) smoothing kernel;
#: "sum3" the uniform neighborhood sum (GIS "focal sum").
_FOCAL_KERNELS = {
    "gauss3": (1, 2, 1, 2, 4, 2, 1, 2, 1),
    "sum3": (1, 1, 1, 1, 1, 1, 1, 1, 1),
}


#: the 3x3 stencil's offsets, in ``_FOCAL_KERNELS`` order (row-major from
#: the south-west neighbor)
_DX = np.tile(np.array([-1, 0, 1], dtype=np.int64), 3)
_DY = np.repeat(np.array([-1, 0, 1], dtype=np.int64), 3)


def _stencil_sums(
    hist: pa.Table, grid: Grid, weights: dict[str, np.ndarray], by: tuple[str, ...] = ()
) -> pa.Table:
    """``(cell_id, *by, n, *weights)`` sorted by ``(cell_id, *by)``: each
    row of the folded ``(cell_id, *by, n)`` histogram scatters ``n·w`` (one
    int64 weight per stencil offset) to its cell's ≤9 in-grid neighbors,
    keeping its ``by`` values, and the scattered rows are summed per target;
    ``n`` is the row's own count (0 where only a neighbor is lit)."""
    nx, ny = np.int64(grid.nx), np.int64(grid.ny)
    c = hist.column("cell_id").to_numpy().astype(np.int64)
    n = hist.column("n").to_numpy()
    tx = (c % nx)[:, None] + _DX[None, :]
    ty = (c // nx)[:, None] + _DY[None, :]
    ok = (tx >= 0) & (tx < nx) & (ty >= 0) & (ty < ny)
    own = np.where((_DX == 0) & (_DY == 0), n[:, None], np.int64(0))
    cols = {"cell_id": (ty * nx + tx)[ok]}
    cols.update({k: np.broadcast_to(hist.column(k).to_numpy()[:, None], ok.shape)[ok] for k in by})
    cols["own"] = own[ok]
    cols.update({k: (n[:, None] * w[None, :])[ok] for k, w in weights.items()})
    keys = ["cell_id", *by]
    aggs = {"n": ("own", "sum")} | {k: (k, "sum") for k in weights}
    return _group(pa.table(cols), keys, aggs).sort_by([(k, "ascending") for k in keys])


def focal_cell_smooth(points_ds, grid: Grid, kernel: str = "gauss3"):
    """Focal (neighborhood) weighted sum over the per-cell count raster —
    GIS "focal statistics", the kernel-density-lite smoothing primitive the
    reference's dense canvas would express as a convolution pass (its canvas
    readback at ``RasterJoin/join/RasterJoin.cpp:51-78`` never smooths; this
    is the natural next step a heatmap consumer runs on it).

    Plan: the point stream collapses to canvas-sized (cell, n) rows on the
    driver (:func:`~rasterflow.util.keyed_fold`); each cell then *scatters*
    ``n x w`` to its <=9 in-grid neighbors and one Arrow ``group_by`` sums
    per target cell — no exchange.  Integer stencil weights make the result
    exactly SQL-replicable.

    Output, sorted by cell id, one row per cell with nonzero focal mass:
    ``(cell_id, n, focal_n)`` — ``n`` is the cell's own count (0 for empty
    cells lit only by a neighbor), ``focal_n`` the weighted neighborhood
    sum."""
    import ray.data

    ws = np.array(_FOCAL_KERNELS[kernel], dtype=np.int64)
    return ray.data.from_arrow(_stencil_sums(_cell_counts(points_ds, grid), grid, {"focal_n": ws}))


def raster_gradient(points_ds, grid: Grid):
    """Sobel gradient over the per-cell count raster — edge detection on the
    heatmap (the GIS slope/aspect primitive, run on density instead of
    elevation).  Same scatter plan as :func:`focal_cell_smooth`: each lit
    cell scatters ``n·wx, n·wy`` to its ≤9 in-grid neighbors, summed per
    target on the driver.  Integer stencil weights (wx = dx·(2-|dy|), wy =
    dy·(2-|dx|)) keep the result exactly SQL-replicable; ``mag2 = gx² +
    gy²`` stays in int64.  Output per touched cell: ``(cell_id, n, gx, gy,
    mag2)``."""
    import ray.data

    wx = _DX * (2 - np.abs(_DY))
    wy = _DY * (2 - np.abs(_DX))
    red = _stencil_sums(_cell_counts(points_ds, grid), grid, {"gx": wx, "gy": wy})
    gx, gy = red.column("gx").to_numpy(), red.column("gy").to_numpy()
    return ray.data.from_arrow(red.append_column("mag2", pa.array(gx * gx + gy * gy)))


def hotspot_regions(points_ds, grid: Grid, min_count: int = 5, num_partitions: int | None = None):
    """Raster→vector extraction: threshold the per-cell count raster at
    ``min_count`` and vectorize the surviving cells into 4-connected regions
    (the classic GIS "raster polygonization" step, the inverse of
    ``geom/rasterize.py``'s vector→raster pass — reference analogue: the
    canvas readback at ``RasterJoin/join/RasterJoin.cpp:51-78`` stays a flat
    accumulator; the reference never vectorizes it).

    Plan: :func:`cell_histogram_grid` collapses the point stream to one row
    per touched cell (canvas-sized, NOT data-sized — materializing it is the
    same footprint the reference's dense canvas accepts).  Hot-cell adjacency
    is discovered with a neighbor-probe shuffle (each hot cell posts itself
    under its own id plus probes under its east/north neighbor ids; a
    partition-local match emits the edge — no driver set, no all-pairs), and
    components are resolved by the shared large/small-star CC
    (``dedup._cc_large_small_star``), region id = the component's minimum
    cell id.  Isolated hot cells become singleton regions via a tagged-union
    repair pass (CC only returns nodes that had edges).

    Output, sorted by region id: ``(region_id, n_cells, n_points, cx_min,
    cx_max, cy_min, cy_max)`` — the bbox in cell coordinates is the vector
    artifact (cell polygons are axis-aligned squares, so the bbox plus the
    member count fully describe extent and mass)."""
    import pandas as pd

    from .dedup import _cc_large_small_star
    from ..util import grouped_aggregate, shuffle_parts

    if num_partitions is None:
        num_partitions = shuffle_parts(0.25)
    nx = np.int64(grid.nx)

    hist = cell_histogram_grid(points_ds, grid)

    def hot_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.greater_equal(t.column("n"), min_count))

    hot = hist.map_batches(hot_only, batch_format="pyarrow").materialize()
    if hot.count() == 0:
        import pandas as pd
        import ray.data

        # from_pandas keeps one 0-row block, so the schema survives
        # to_pandas (from_arrow on an empty table yields zero blocks)
        empty = pd.DataFrame(
            {
                c: np.array([], dtype=np.int64)
                for c in ("region_id", "n_cells", "n_points", "cx_min", "cx_max", "cy_min", "cy_max")
            }
        )
        return ray.data.from_pandas(empty)

    def probes(t: pa.Table) -> pa.Table:
        c = t.column("cell_id").to_numpy(zero_copy_only=False).astype(np.int64)
        east = c[(c % nx) < nx - 1]
        north = c[(c // nx) < grid.ny - 1]
        key = np.concatenate([c, east + 1, north + nx])
        src = np.concatenate([c, east, north])
        pk = (key % num_partitions).astype(np.int32)
        return pa.table({"key": pa.array(key), "src": pa.array(src), "_pk": pa.array(pk)})

    def match_edges(g: pd.DataFrame) -> pd.DataFrame:
        selfs = set(g.loc[g["key"] == g["src"], "key"].tolist())
        probe = g[g["key"] != g["src"]]
        hit = probe[probe["key"].isin(selfs)]
        # probe src is always < key (east/north), so (id_a, id_b) is ordered
        return pd.DataFrame({"id_a": hit["src"].to_numpy(), "id_b": hit["key"].to_numpy()})

    edges = (
        hot.map_batches(probes, batch_format="pyarrow")
        .groupby("_pk")
        .map_groups(match_edges, batch_format="pandas")
    )
    labels = _cc_large_small_star(edges, "cell_id")

    # tagged union: hot rows carry (n, rep=-1), CC rows carry (n=0, rep);
    # per cell the region label is the CC rep when present, else the cell
    # itself (singleton).  One narrow shuffle over cell-level rows.
    def tag_hot(t: pa.Table) -> pa.Table:
        c = t.column("cell_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "cell_id": pa.array(c),
                "n": t.column("n"),
                "rep": pa.array(np.full(len(c), -1, dtype=np.int64)),
                "_pk": pa.array((c % num_partitions).astype(np.int32)),
            }
        )

    def tag_cc(t: pa.Table) -> pa.Table:
        c = t.column("cell_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "cell_id": pa.array(c),
                "n": pa.array(np.zeros(len(c), dtype=np.int64)),
                "rep": t.column("rep_id"),
                "_pk": pa.array((c % num_partitions).astype(np.int32)),
            }
        )

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("cell_id", sort=False).agg(n=("n", "sum"), rep=("rep", "max")).reset_index()
        cells = agg["cell_id"].to_numpy()
        rep = np.where(agg["rep"].to_numpy() >= 0, agg["rep"].to_numpy(), cells)
        return pd.DataFrame(
            {
                "region_id": rep,
                "n": agg["n"].to_numpy(),
                "cx": cells % nx,
                "cy": cells // nx,
            }
        )

    resolved = (
        hot.map_batches(tag_hot, batch_format="pyarrow")
        .union(labels.map_batches(tag_cc, batch_format="pyarrow"))
        .groupby("_pk")
        .map_groups(resolve, batch_format="pandas")
    )
    out = grouped_aggregate(
        resolved,
        "region_id",
        {
            "n_cells": ("cx", "count"),
            "n_points": ("n", "sum"),
            "cx_min": ("cx", "min"),
            "cx_max": ("cx", "max"),
            "cy_min": ("cy", "min"),
            "cy_max": ("cy", "max"),
        },
        weight=0.25,
    )
    return out.sort("region_id")


def _ordinals(col, groups: tuple[str, ...]) -> np.ndarray:
    """Each value's position in ``groups`` (int64), -1 for a value outside
    them or null."""
    import pyarrow.compute as pc

    idx = pc.index_in(col, value_set=pa.array(groups))
    return pc.fill_null(idx, -1).to_numpy(zero_copy_only=False).astype(np.int64)


def focal_majority(
    points_ds,
    grid: Grid,
    group_col: str = "lang",
    groups: tuple[str, ...] = ("de", "en", "es", "fr", "zh"),
):
    """Categorical focal MAJORITY filter: for each cell, the modal category
    over its 3×3 neighborhood (ties to the first of ``groups``) — the GIS
    majority/mode filter that denoises a categorical raster, here "which
    language dominates each area".

    Same scatter plan as :func:`focal_cell_smooth`, carried per category:
    each point's (cell, group ordinal) folds to (cell, group) counts on the
    driver, each row scatters to its ≤9 in-grid neighbors, the scattered
    rows are summed per (cell, group), and a per-cell argmax picks the
    winner.  All integers + a fixed group order — hash-exact.  Returns
    ``(cell_id, lang, n_maj)`` sorted by cell id.
    """
    import ray.data

    def cells(batch: pa.Table) -> pa.Table:
        lin, valid = grid.locate_linear(
            batch.column("x").to_numpy(zero_copy_only=False), batch.column("y").to_numpy(zero_copy_only=False)
        )
        gi = _ordinals(batch.column(group_col), groups)
        m = valid & (gi >= 0)
        return pa.table({"cell_id": lin[m], "gi": gi[m]})

    keys = ["cell_id", "gi"]
    counts = keyed_fold(points_ds.map_batches(cells, batch_format="pyarrow"), keys, {"n": ("gi", "count")})
    counts = counts.cast(pa.schema([(k, pa.int64()) for k in counts.column_names]))
    nb = _stencil_sums(counts, grid, {"n_maj": np.ones(9, dtype=np.int64)}, by=("gi",))
    c, gi, n = (nb.column(k).to_numpy() for k in ("cell_id", "gi", "n_maj"))
    # winner per cell: max count, ties to the lowest group ordinal; the
    # lexsort keeps the rows' cell order, so each cell starts where it did
    order = np.lexsort((gi, -n, c))
    win = order[np.flatnonzero(np.concatenate(([True], c[1:] != c[:-1])))] if len(c) else order
    return ray.data.from_arrow(
        pa.table(
            {
                "cell_id": c[win],
                group_col: pa.array(np.asarray(groups, dtype=object)[gi[win]], type=pa.string()),
                "n_maj": n[win],
            }
        )
    )
