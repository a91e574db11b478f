"""PolygonBundle — the broadcast small side of every spatial join.

Packs, for one (layer, canvas grid) pair, everything a join actor needs:

- the layer's flat CSR vertex arrays (for exact PIP refinement),
- ``cand``   CSR: cell -> polygons whose shape intersects the cell (the exact
  CPU grid index of the reference, ``CPUJoin/GridIndexF.cpp:60-155``),
- ``cover``  CSR: cell -> polygons whose rasterization covers the cell center
  (the GL fill rule; multi-valued, preserving the reference's multi-cover
  raster semantics, SURVEY.md §2.7.4),
- ``border`` mask: any polygon outline cell, dilated by 1 cell (the 3×3
  ``isBorder`` test of ``shaders/hybrid.glsl:174-185`` /
  ``HybridJoin::drawOutline``),
- ``uedge`` CSR: per border (cell, poly) entry of ``cand``, the polygon's
  edges that can flip PIP parity for a point in that cell, so the hybrid
  join's exact test reads ~10 edges instead of the whole polygon,
- per-(border-cell, poly) area fractions, built lazily for error bounds.

The bundle is a plain dict of numpy arrays: built once on the driver (pure
function of (layer, grid) — cacheable), shipped once via ``ray.put``, pinned
per actor in ``__init__``.  CSR lookup over sparse cell keys uses
``np.searchsorted`` on the sorted unique cell-id array, so batch lookups stay
fully vectorized.
"""

from __future__ import annotations

import threading

import numpy as np

from ..geom.cells import Grid
from ..geom.pip import edge_prev, edge_table
from ..geom.polyio import PolygonLayer
from ..geom.projection import accuracy_to_cell_size
from ..geom.rasterize import area_fraction_inside, classify_polygon_cells, dilate_cells
from ..util import pconcat, pfull


def _pairs_to_csr(cells: np.ndarray, polys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cell, poly) pairs -> (sorted unique cells, indptr, poly_ids)."""
    if len(cells) == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int32),
        )
    order = np.lexsort((polys, cells))
    cells = cells[order]
    polys = polys[order]
    ucells, counts = np.unique(cells, return_counts=True)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return ucells, indptr.astype(np.int64), polys.astype(np.int32)


class CsrLookup:
    """Sparse cell -> polygon-list map with vectorized batch expansion."""

    __slots__ = ("keys", "indptr", "values")

    def __init__(self, keys: np.ndarray, indptr: np.ndarray, values: np.ndarray):
        self.keys = keys
        self.indptr = indptr
        self.values = values

    def expand(self, lin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For query cells ``lin`` (one per point) return candidate pairs
        ``(point_idx, poly_id)`` — fully vectorized."""
        if len(lin) == 0 or len(self.keys) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
        pos = np.searchsorted(self.keys, lin)
        pos_c = np.clip(pos, 0, len(self.keys) - 1)
        hit = self.keys[pos_c] == lin
        starts = self.indptr[pos_c]
        counts = np.where(hit, self.indptr[pos_c + 1] - starts, 0)
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
        point_idx = np.repeat(np.arange(len(lin), dtype=np.int64), counts)
        # offsets within each point's candidate run
        run_ends = np.cumsum(counts)
        run_starts = run_ends - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(run_starts, counts)
        val_idx = np.repeat(starts, counts) + within
        return point_idx, self.values[val_idx]


class PolygonBundle:
    """Immutable broadcastable join state for one (layer, grid).

    Only the *unified* cell structures are stored — one sorted cell-id array
    (``ucells``) serving candidate lists, cover lists and the border flag with
    a single lookup per point — which also keeps the broadcast/pickle payload
    minimal (round-4: retaining the separate cand/cover CSRs tripled the disk
    cache and the plasma object for zero lookups saved).
    """

    def __init__(
        self,
        layer: PolygonLayer,
        grid: Grid,
        build_area_fractions: bool = False,
        pairs=None,
        segments=None,
    ):
        self.layer_name = layer.name
        self.grid = grid
        self.npolys = layer.npolys
        self.verts = np.ascontiguousarray(layer.verts)
        self.ring_offsets = np.ascontiguousarray(layer.ring_offsets)
        self.poly_ring_offsets = np.ascontiguousarray(layer.poly_ring_offsets)

        if segments is not None:
            # pre-assembled unified structures (distributed build path)
            (
                self.ucells,
                self.ucand_indptr,
                self.ucand_vals,
                self.ucover_indptr,
                self.ucover_vals,
                self.uborder,
            ) = segments
        else:
            if pairs is None:
                pairs = classify_layer_pairs(layer, grid, range(layer.npolys))
            cand_cells, cand_polys, cover_cells, cover_polys, outline_cells_all = pairs

            cand = CsrLookup(
                *_pairs_to_csr(
                    np.concatenate(cand_cells) if cand_cells else np.empty(0, np.int64),
                    np.concatenate(cand_polys) if cand_polys else np.empty(0, np.int32),
                )
            )
            cover = CsrLookup(
                *_pairs_to_csr(
                    np.concatenate(cover_cells) if cover_cells else np.empty(0, np.int64),
                    np.concatenate(cover_polys) if cover_polys else np.empty(0, np.int32),
                )
            )
            outline_all = (
                np.unique(np.concatenate(outline_cells_all))
                if len(outline_cells_all)
                else np.empty(0, dtype=np.int64)
            )
            # border = outline dilated by one cell (3×3 neighborhood), sorted
            border_cells = dilate_cells(outline_all, grid, r=1)

            # unified cell table: ONE searchsorted per batch serves candidate
            # lists, cover lists and the border flag (3x fewer binary searches
            # in the join hot path)
            cells = np.union1d(cand.keys, border_cells)
            self.ucells = cells

            def _align(csr: CsrLookup):
                indptr = np.zeros(len(cells) + 1, dtype=np.int64)
                pos = np.searchsorted(cells, csr.keys)
                indptr[pos + 1] = np.diff(csr.indptr)
                np.cumsum(indptr, out=indptr)
                return indptr, csr.values

            self.ucand_indptr, self.ucand_vals = _align(cand)
            self.ucover_indptr, self.ucover_vals = _align(cover)
            self.uborder = np.zeros(len(cells), dtype=bool)
            if len(border_cells):
                self.uborder[np.searchsorted(cells, border_cells)] = True
        self.uedge_start, self.uedge_stop, self.uedge_ids = border_edge_lists(
            self.verts, self.ring_offsets, self.poly_ring_offsets, grid,
            self.ucells, self.ucand_indptr, self.ucand_vals, self.uborder,
        )
        self._build_table()
        self._area_frac: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if build_area_fractions:
            self.build_area_fractions()

    def _build_table(self) -> None:
        # direct-address lookup table cell_id -> ucell position: O(1) single
        # gather per point, built ONCE at bundle build and shipped inside the
        # (plasma-shared, zero-copy) bundle — unlike a per-worker hash index,
        # which for a 10^7-key continental bundle cost seconds of build and
        # ~300 MB of heap in EVERY worker (measured: 32 workers × 19M keys
        # ground the 16k-polygon join to a halt).  Gated by grid size; giant
        # grids fall back to the lazy per-process pandas hash index.  Derived
        # from ucells, so excluded from pickles (it is the bulk of the bundle:
        # up to 1 GB) and rebuilt on load.
        ncells_grid = int(self.grid.nx) * int(self.grid.ny)
        if self.DIRECT_TABLE_MIN_KEYS <= len(self.ucells) and ncells_grid <= self.DIRECT_TABLE_MAX_CELLS:
            table = pfull(ncells_grid, -1, np.int32)
            # threaded scatter: ucells is sorted, so slice chunks write
            # disjoint table regions (same fault-parallelism win as pfull)
            from ..util import _fill_pool

            n = len(self.ucells)
            step = -(-n // 8)

            def scat(s):
                e = min(s + step, n)
                table[self.ucells[s:e]] = np.arange(s, e, dtype=np.int32)

            list(_fill_pool().map(scat, range(0, n, step)))
            self.ucell_table = table
        else:
            self.ucell_table = None

    #: direct table cap: 250M grid cells = 1 GB int32 (plasma-shared once per
    #: node); beyond that use the tile-sharded join or the hash fallback
    DIRECT_TABLE_MAX_CELLS = 250_000_000
    #: below this many occupied ucells a per-process khash index is
    #: milliseconds to build and cache-resident to probe — a sparse direct
    #: table would only bloat the broadcast payload and thrash caches
    #: (measured: the 260-poly layer occupies 170k of an 87M-cell grid; the
    #: table regressed its join ~25% while the 19M-key bundle gained 23x)
    DIRECT_TABLE_MIN_KEYS = 2_000_000

    def locate_ucells(self, lin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(idx, hit) positions of query cells in the unified table.

        Direct-address gather when the table exists (the common case);
        otherwise a lazy per-process pandas khash index (~10x faster than
        binary search over millions of keys for random queries)."""
        table = getattr(self, "ucell_table", None)
        if table is not None:
            pos = table[lin]
            hit = pos >= 0
            return np.where(hit, pos, 0).astype(np.int64, copy=False), hit
        index = self.__dict__.get("_ucell_index")
        if index is None:
            import pandas as pd

            index = pd.Index(self.ucells)
            self.__dict__["_ucell_index"] = index
        pos = index.get_indexer(lin)
        hit = pos >= 0
        return np.where(hit, pos, 0), hit

    def edge_table(self, dtype=np.float64) -> np.ndarray:
        """Per-edge crossing coefficients in ``dtype`` for ``pip_edge_lists``,
        built lazily once per process (a few hundred KB; not pickled)."""
        tables = self.__dict__.setdefault("_edge_tables", {})
        key = np.dtype(dtype).str
        if key not in tables:
            tables[key] = edge_table(self.verts, self.ring_offsets, dtype)
        return tables[key]

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_ucell_index", None)
        state.pop("_edge_tables", None)
        # The direct table is a pure function of (ucells, grid).  For the DISK
        # cache, rebuilding on load (~0.5 s) beats writing/reading up to 1 GB
        # of -1s, so _save_disk_cache strips it via _STRIP_DERIVED.  For
        # object-store (plasma) pickles it MUST stay in: Ray ships numpy
        # buffers zero-copy and shares them once per node, whereas a rebuild
        # on deserialize would run privately in every worker process (32x the
        # heap + oversubscribed fill threads — the exact per-worker-index
        # pathology _build_table's comment documents).
        if _STRIP_DERIVED.active:
            state.pop("ucell_table", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if "ucell_table" not in state:
            self._build_table()

    def expand(self, lin: np.ndarray, kind: str = "cand") -> tuple[np.ndarray, np.ndarray]:
        """Candidate pairs ``(point_idx, poly_id)`` for query cells ``lin``
        from the unified CSR (``kind``: "cand" or "cover") — vectorized."""
        indptr = self.ucand_indptr if kind == "cand" else self.ucover_indptr
        values = self.ucand_vals if kind == "cand" else self.ucover_vals
        if len(lin) == 0 or len(self.ucells) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
        idx, hit = self.locate_ucells(np.asarray(lin, dtype=np.int64))
        starts = indptr[idx]
        counts = np.where(hit, indptr[idx + 1] - starts, 0)
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
        point_idx = np.repeat(np.arange(len(lin), dtype=np.int64), counts)
        run_ends = np.cumsum(counts)
        run_starts = run_ends - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(run_starts, counts)
        val_idx = np.repeat(starts, counts) + within
        return point_idx, values[val_idx]

    @property
    def border_cells(self) -> np.ndarray:
        """Sorted border cell ids (derived: border ⊆ ucells by construction)."""
        return self.ucells[self.uborder]

    # ---- border membership (unified-table lookup, vectorized) ----
    def is_border(self, lin: np.ndarray) -> np.ndarray:
        idx, hit = self.locate_ucells(np.asarray(lin, dtype=np.int64))
        return hit & self.uborder[idx]

    def build_area_fractions(self, subsamples: int = 8) -> None:
        """Per polygon: its outline cells + area fraction inside (for J4)."""
        from ..geom.polyio import PolygonLayer as _PL  # noqa: F401 (doc aid)

        for p in range(self.npolys):
            ro = self.ring_offsets[self.poly_ring_offsets[p] : self.poly_ring_offsets[p + 1] + 1]
            outline, _cover, _full = classify_polygon_cells(self.verts, ro, self.grid)
            frac = area_fraction_inside(self.verts, ro, self.grid, outline, subsamples=subsamples)
            self._area_frac[p] = (outline, frac)

    @property
    def area_fractions(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        if not self._area_frac and self.npolys:
            self.build_area_fractions()
        return self._area_frac

    def rings_of(self, poly_id: int) -> np.ndarray:
        r0 = self.poly_ring_offsets[poly_id]
        r1 = self.poly_ring_offsets[poly_id + 1]
        return self.ring_offsets[r0 : r1 + 1]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


def border_edge_lists(verts, ring_offsets, poly_ring_offsets, grid: Grid, ucells, ucand_indptr, ucand_vals, uborder):
    """Per border ``(cell, polygon)`` entry, the polygon's edges that can flip
    PIP parity for a point in that cell.

    Returns ``(uedge_start, uedge_stop, uedge_ids)``: entry ``s`` of
    ``ucand_vals`` tests edges (= vertex ids) ``uedge_ids[uedge_start[s]:
    uedge_stop[s]]``; entries off the border get an empty range.

    An edge can flip parity only if the point's y lies in its y-span and the
    point is left of its max x.  So an edge is kept for a cell if its y-span
    meets the cell's row band and its max x reaches the cell's left side,
    both widened by one cell, plus a float32-rounding allowance, so rounding
    in ``Grid.locate`` or the f32 plane cannot drop a real crossing.
    Horizontal edges and rings under 3 vertices never flip parity and are
    left out; every other ring's edges go in, so holes XOR correctly.

    The lists share storage: ``uedge_ids`` holds one run per (polygon, grid
    row) of the edges that reach the row, sorted by the last column they
    reach, descending, so every cell's list is a prefix of its run and costs
    two ints, not a copy of the edges.
    """
    nv = len(verts)
    cell, nx, ny = grid.cell, grid.nx, grid.ny
    # the outputs are allocated first, below the build's temporaries, so
    # the heap can shrink once those are freed (the driver keeps ~25 MB
    # more at 200 m otherwise)
    idx_t = np.int32 if nv * ny < 2**31 else np.int64
    start = np.zeros(len(ucand_vals), dtype=idx_t)
    stop = np.zeros(len(ucand_vals), dtype=idx_t)
    ring_len = np.diff(ring_offsets)
    prev = edge_prev(ring_offsets, nv)
    xi, yi = verts[:, 0], verts[:, 1]
    xj, yj = xi[prev], yi[prev]
    pad = cell + (float(np.abs(verts).max()) * 2.0**-20 if nv else 0.0)
    # last column whose left side is within reach of the edge's max x
    c_hi = np.clip(np.floor((np.maximum(xi, xj) + pad - grid.x0) / cell), -1, nx - 1).astype(np.int64)
    e = np.flatnonzero((yi != yj) & (np.repeat(ring_len, ring_len) >= 3) & (c_hi >= 0))
    r_lo = np.clip(np.floor((np.minimum(yi[e], yj[e]) - pad - grid.y0) / cell), 0, ny - 1).astype(np.int64)
    r_hi = np.clip(np.floor((np.maximum(yi[e], yj[e]) + pad - grid.y0) / cell), 0, ny - 1).astype(np.int64)

    # one run per (polygon, row), keyed poly * ny + row, its edges by c_hi
    # descending; comp is one ascending key over (run, c_hi descending)
    nrow = r_hi - r_lo + 1
    run_edge = np.repeat(e, nrow)
    poly_of_vert = np.repeat(np.repeat(np.arange(len(poly_ring_offsets) - 1), np.diff(poly_ring_offsets)), ring_len)
    run_key = poly_of_vert[run_edge] * np.int64(ny) + _ranges(r_lo, nrow)
    run_c = c_hi[run_edge]
    order = np.lexsort((-run_c, run_key))
    run_edge, run_c = run_edge[order], run_c[order]
    keys, run = np.unique(run_key[order], return_inverse=True)
    comp = run * np.int64(nx + 1) + (nx - 1 - run_c)

    # border entries in ucand_vals order; an entry keeps the prefix of its
    # run with c_hi >= its column
    ub = np.flatnonzero(uborder)
    nent = ucand_indptr[ub + 1] - ucand_indptr[ub]
    slot = _ranges(ucand_indptr[ub], nent)
    ent_row, ent_col = np.divmod(np.repeat(ucells[ub], nent), nx)
    ent_key = ucand_vals[slot].astype(np.int64) * ny + ent_row
    r = np.minimum(np.searchsorted(keys, ent_key), max(len(keys) - 1, 0))
    found = keys[r] == ent_key if len(keys) else np.zeros(len(slot), dtype=bool)
    r, slot, ent_col = r[found], slot[found], ent_col[found]
    start[slot] = np.searchsorted(comp, r * np.int64(nx + 1))
    stop[slot] = np.searchsorted(comp, r * np.int64(nx + 1) + (nx - 1 - ent_col), "right")
    return start, stop, run_edge.astype(np.int32)


def classify_layer_pairs(layer: PolygonLayer, grid: Grid, poly_ids):
    """Classify a set of polygons to (cand, cover, outline) pair lists.

    Pure function of (layer slice, grid) — the unit of parallelism for
    distributed bundle builds."""
    cand_cells, cand_polys = [], []
    cover_cells, cover_polys = [], []
    outline_cells_all = []
    verts = layer.verts
    for p in poly_ids:
        ro = layer.rings_of(p)
        outline, cover, _full = classify_polygon_cells(verts, ro, grid)
        # exact candidate set = every cell the polygon intersects: boundary
        # cells plus center-covered cells (non-outline covered = fully inside)
        cand = np.union1d(outline, cover)
        cand_cells.append(cand)
        cand_polys.append(np.full(len(cand), p, dtype=np.int32))
        cover_cells.append(cover)
        cover_polys.append(np.full(len(cover), p, dtype=np.int32))
        outline_cells_all.append(outline)
    return cand_cells, cand_polys, cover_cells, cover_polys, outline_cells_all


def _classify_range_parts(layer: PolygonLayer, grid: Grid, poly_ids, nranges: int, rwidth: int):
    """Distributed-build phase 1: classify a chunk of polygons and partition
    the resulting pair lists by contiguous cell-id range ``[r*rwidth,
    (r+1)*rwidth)``.

    Border dilation happens here, per polygon — dilation distributes over
    union (``dilate_cells`` is a pointwise clipped neighborhood expansion), so
    per-range assembly never needs outline cells from a neighboring range.

    Returns an ``nranges``-tuple of ``(cand_cells, cand_polys, cover_cells,
    cover_polys, border_cells)`` — the shape Ray's ``num_returns=nranges``
    expects, so phase 2 fetches only its own range's pieces.
    """
    cand_c, cand_p, cov_c, cov_p, bord = [], [], [], [], []
    verts = layer.verts
    for p in poly_ids:
        ro = layer.rings_of(p)
        outline, cover, _full = classify_polygon_cells(verts, ro, grid)
        cand = np.union1d(outline, cover)
        cand_c.append(cand)
        cand_p.append(np.full(len(cand), p, dtype=np.int32))
        cov_c.append(cover)
        cov_p.append(np.full(len(cover), p, dtype=np.int32))
        bord.append(dilate_cells(outline, grid, r=1))

    def cat(parts, dtype):
        return np.concatenate(parts) if parts else np.empty(0, dtype)

    cc, cp = cat(cand_c, np.int64), cat(cand_p, np.int32)
    vc, vp = cat(cov_c, np.int64), cat(cov_p, np.int32)
    bd = cat(bord, np.int64)
    out = []
    for r in range(nranges):
        lo, hi = r * rwidth, (r + 1) * rwidth
        mc = (cc >= lo) & (cc < hi)
        mv = (vc >= lo) & (vc < hi)
        mb = (bd >= lo) & (bd < hi)
        out.append((cc[mc], cp[mc], vc[mv], vp[mv], bd[mb]))
    return tuple(out)


def _assemble_range(*parts):
    """Distributed-build phase 2: assemble ONE contiguous cell-range segment
    of the unified structures — sort, unique and align locally so the driver
    only concatenates pre-sorted segments.

    Returns ``(ucells, cand_counts, cand_vals, cover_counts, cover_vals,
    uborder)`` for this range; counts (not indptr) so the driver can run one
    global cumsum.
    """

    def cat(i, dtype):
        arrs = [p[i] for p in parts if len(p[i])]
        return np.concatenate(arrs) if arrs else np.empty(0, dtype)

    cc, cp = cat(0, np.int64), cat(1, np.int32)
    vc, vp = cat(2, np.int64), cat(3, np.int32)
    bd = cat(4, np.int64)
    o = np.lexsort((cp, cc))
    cc, cp = cc[o], cp[o]
    o = np.lexsort((vp, vc))
    vc, vp = vc[o], vp[o]
    ucand, cand_counts = np.unique(cc, return_counts=True)
    ucov, cov_counts = np.unique(vc, return_counts=True)
    bd = np.unique(bd)
    ucells = np.union1d(ucand, bd)
    # int32 counts on the wire (a cell's list holds ≤ npolys ≤ 2^31 polys);
    # the driver cumsums into the int64 indptr
    ccounts = np.zeros(len(ucells), dtype=np.int32)
    ccounts[np.searchsorted(ucells, ucand)] = cand_counts
    vcounts = np.zeros(len(ucells), dtype=np.int32)
    vcounts[np.searchsorted(ucells, ucov)] = cov_counts
    ub = np.zeros(len(ucells), dtype=bool)
    if len(bd):
        ub[np.searchsorted(ucells, bd)] = True
    return ucells, ccounts, cp.astype(np.int32, copy=False), vcounts, vp.astype(np.int32, copy=False), ub


def _distributed_segments(layer: PolygonLayer, grid: Grid, chunk: int = 256, nranges: int | None = None):
    """Build the unified bundle structures with Ray tasks end to end.

    Phase 1 classifies polygon chunks and range-partitions the pairs; phase 2
    builds each contiguous cell-range's sorted/aligned segment.  Because the
    ranges partition the linear cell-id space in order, the driver's only work
    is concatenating ``nranges`` pre-sorted segments and one cumsum — the
    driver-serial lexsort/unique over tens of millions of pairs (the round-3
    4-36 s cold-build bottleneck) moves onto the cluster.  Output is
    array-identical to the serial path (pinned by test_bundle_distributed).
    """
    import ray

    if nranges is None:
        cpus = int(ray.cluster_resources().get("CPU", 8))
        nranges = max(8, min(64, 2 * cpus))
    nranges = min(nranges, int(grid.ncells)) or 1
    if nranges < 2:
        return None
    rwidth = -(-int(grid.ncells) // nranges)

    classify = ray.remote(num_returns=nranges)(_classify_range_parts)
    assemble = ray.remote(_assemble_range)
    layer_ref = ray.put(layer)
    part_refs = [
        classify.remote(layer_ref, grid, list(range(s, min(s + chunk, layer.npolys))), nranges, rwidth)
        for s in range(0, layer.npolys, chunk)
    ]
    seg_refs = [assemble.remote(*[refs[r] for refs in part_refs]) for r in range(nranges)]
    segs = ray.get(seg_refs)

    ucells = pconcat([s[0] for s in segs])
    n = len(ucells)
    cand_indptr = pfull(n + 1, 0, np.int64)
    np.cumsum(pconcat([s[1] for s in segs]), out=cand_indptr[1:])
    cand_vals = pconcat([s[2] for s in segs])
    cover_indptr = pfull(n + 1, 0, np.int64)
    np.cumsum(pconcat([s[3] for s in segs]), out=cover_indptr[1:])
    cover_vals = pconcat([s[4] for s in segs])
    uborder = pconcat([s[5] for s in segs])
    return ucells, cand_indptr, cand_vals, cover_indptr, cover_vals, uborder


_BUNDLE_CACHE: dict[tuple, PolygonBundle] = {}


def build_bundle(
    layer: PolygonLayer,
    accuracy_m: float | None = None,
    cell_size: float | None = None,
    max_cover_cells: int = 32_000_000,
    build_area_fractions: bool = False,
) -> PolygonBundle:
    """Build (or fetch cached) the bundle for a layer at a raster resolution.

    ``accuracy_m`` follows the reference's ε contract: cell size =
    (ε/√2)/groundRes (``GLFunction.cpp:26-30``).  Unlike the reference's dense
    FBO canvas (MAX_FBO_SIZE 8192 with tiled passes,
    ``RasterJoin.cpp:56-68``), our cell structures are *sparse* — memory scales
    with cells the polygons actually touch, not with canvas dimensions — so the
    resolution cap is on the estimated total covered cells
    (Σ polygon-MBR area / cell²), bounded by ``max_cover_cells``.
    """
    xmin, ymin, xmax, ymax = layer.bounds
    if cell_size is None:
        if accuracy_m is None:
            raise ValueError("pass accuracy_m or cell_size")
        cell_size = accuracy_to_cell_size(accuracy_m)
    m = layer.mbrs
    total_area = float(((m[:, 2] - m[:, 0]) * (m[:, 3] - m[:, 1])).sum())
    min_cell_cover = (total_area / max_cover_cells) ** 0.5 if total_area > 0 else 0.0
    # linearization safety: keep nx, ny < 2^24 so lin * npolys stays in int64
    min_cell_dim = max(xmax - xmin, ymax - ymin) / float(1 << 24)
    cell_size = max(float(cell_size), min_cell_cover, min_cell_dim)
    key = (layer.content_hash(), round(cell_size, 12), build_area_fractions)
    b = _BUNDLE_CACHE.get(key)
    if b is None:
        b = _load_disk_cache(key)
    if b is None:
        import ray

        grid = Grid.from_bounds(xmin, ymin, xmax, ymax, cell_size)
        segments = None
        if ray.is_initialized() and layer.npolys >= 512:
            segments = _distributed_segments(layer, grid)
        b = PolygonBundle(layer, grid, build_area_fractions=build_area_fractions, segments=segments)
        _save_disk_cache(key, b)
    _BUNDLE_CACHE[key] = b
    return b


# Bundles are pure functions of (layer, grid); persist them so repeated
# processes (bench subprocesses, test sessions, resumed jobs) skip the build —
# the analogue of the reference persisting its CPU grid index to disk
# (``CPUJoin/GridIndexF.cpp:200-275``).
#
# The cache unpickles its own files, so it must live in a per-user 0700
# directory — a fixed world-writable path would let another local user plant
# a pickle at a predictable key (ADVICE r1).  Override with
# $RASTERFLOW_CACHE_DIR.


def _disk_cache_dir() -> "str":
    import os
    import tempfile

    env = os.environ.get("RASTERFLOW_CACHE_DIR")
    if env:
        return env
    uid = os.getuid() if hasattr(os, "getuid") else "na"
    return os.path.join(tempfile.gettempdir(), f"rasterflow_bundles_{uid}")


def _cache_path(key) -> "str":
    import os

    name = f"bundle_v5_{key[0]}_{key[1]}_{int(key[2])}.pkl"
    return os.path.join(_disk_cache_dir(), name)


def _dir_ok(path) -> bool:
    """Refuse to unpickle from a cache dir we don't own or that others can
    write to (defense against pre-planted pickles on shared machines)."""
    import os
    import stat

    try:
        st = os.stat(path)
    except OSError:
        return False
    if hasattr(os, "getuid") and st.st_uid != os.getuid():
        return False
    return not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)


# Cache file format (v4): out-of-band pickle-5 buffers.  Plain pickle.dump /
# load of a GB-scale bundle is single-threaded first-touch bound on this
# kernel (~110 MB/s: 6 s save + 5.5 s load for 600 MB); splitting the pickle
# into a tiny object header plus raw array segments lets the loader
# pre-populate each destination buffer with the parallel-fault thread pool and
# then reconstruct every numpy array as a ZERO-COPY view on it
# (protocol-5 ``buffers=`` + numpy's ``_frombuffer`` reducer).
_CACHE_MAGIC = b"RFB4"


class _StripDerived(threading.local):
    """Thread-local flag: _save_disk_cache sets it so __getstate__ drops the
    (derived, up to 1 GB) direct table from DISK pickles only — object-store
    pickles keep it (see PolygonBundle.__getstate__)."""

    active = False


_STRIP_DERIVED = _StripDerived()


def _load_disk_cache(key):
    import os
    import pickle

    from ..util import _fill_pool

    path = _cache_path(key)
    if not os.path.exists(path) or not _dir_ok(_disk_cache_dir()):
        return None
    try:
        with open(path, "rb", buffering=0) as fh:
            if fh.read(4) != _CACHE_MAGIC:
                return None
            hlen = int.from_bytes(fh.read(8), "little")
            payload, buf_lens = pickle.loads(fh.read(hlen))
            bufs = []
            for ln in buf_lens:
                a = np.empty(ln, dtype=np.uint8)
                if ln >= (1 << 25):  # parallel pre-touch one byte per page
                    step = -(-ln // 8)
                    list(_fill_pool().map(lambda s: a.__setitem__(slice(s, s + step, 4096), 0), range(0, ln, step)))
                got = fh.readinto(memoryview(a))
                if got != ln:
                    return None
                bufs.append(pickle.PickleBuffer(a))
            return pickle.loads(payload, buffers=bufs)
    except Exception:  # noqa: BLE001 - corrupt cache -> rebuild
        return None


def _save_disk_cache(key, bundle) -> None:
    import os
    import pickle
    import tempfile

    d = _disk_cache_dir()
    os.makedirs(d, mode=0o700, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        bufs: list = []
        _STRIP_DERIVED.active = True
        try:
            payload = pickle.dumps(bundle, protocol=5, buffer_callback=bufs.append)
        finally:
            _STRIP_DERIVED.active = False
        raws = [b.raw() for b in bufs]
        header = pickle.dumps((payload, [r.nbytes for r in raws]))

        # unbuffered raw writes: each array segment goes down in write()
        # syscalls instead of being re-chunked through a BufferedWriter
        # memcpy.  Raw FileIO.write may return a SHORT count for buffers
        # near/above 2 GB on Linux — loop until each is fully written.
        def write_all(fh, buf) -> None:
            mv = memoryview(buf).cast("B")
            while len(mv):
                n = fh.write(mv)
                if not n:
                    raise OSError("short write to bundle cache")
                mv = mv[n:]

        with os.fdopen(fd, "wb", buffering=0) as fh:
            write_all(fh, _CACHE_MAGIC)
            write_all(fh, len(header).to_bytes(8, "little"))
            write_all(fh, header)
            for r in raws:
                write_all(fh, r)
        os.replace(tmp, _cache_path(key))
    except Exception:  # noqa: BLE001 - cache is best-effort
        if os.path.exists(tmp):
            os.unlink(tmp)
