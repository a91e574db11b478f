"""PolygonBundle — the broadcast small side of every spatial join.

Packs, for one (layer, canvas grid) pair, everything a join actor needs:

- the layer's flat CSR vertex arrays (for exact PIP refinement),
- ``ucells``: the sorted ids of every cell any list below mentions, so one
  lookup per point serves them all,
- ``tile_slot``/``tile_cells``: that lookup (``locate_ucells``), a
  two-level table over 32×32-cell tiles — two gathers per point, hit or
  miss, in the manner of the reference's uniform grid index,
- ``ucand_indptr``/``ucand_vals``: CSR over ``ucells`` of the polygons whose
  shape intersects the cell, outline ∪ cover (the exact CPU grid index of
  the reference, ``CPUJoin/GridIndexF.cpp:60-155``),
- ``ucover_indptr``/``ucover_vals``: CSR of the polygons whose rasterization
  covers the cell centre (the GL fill rule; multi-valued, preserving the
  reference's multi-cover raster semantics, SURVEY.md §2.7.4),
- ``uborder``: any polygon outline cell, dilated by 1 cell (the 3×3
  ``isBorder`` test of ``shaders/hybrid.glsl:174-185`` /
  ``HybridJoin::drawOutline``),
- ``uedge_start``/``uedge_stop``/``uedge_left``/``uedge_ids``: per border
  (cell, poly) entry of ``ucand_vals``, the polygon's edges that can flip
  PIP parity for a ray from a point in that cell to the nearer side, so the
  hybrid join's exact test reads ~6 edges instead of the whole polygon,
- per-(border-cell, poly) area fractions, built lazily for error bounds.

Outline and cover cells come from one vectorized pass over the whole layer
(``geom.rasterize.rasterize_layer``).  The bundle is a pure function of
(layer, grid): built once on the driver (and cached on disk), shipped once
via ``ray.put``, held once per worker process (``util.worker_memo``).
"""

from __future__ import annotations

import numpy as np

from ..geom.cells import Grid
from ..geom.pip import edge_prev, edge_table
from ..geom.polyio import PolygonLayer
from ..geom.projection import accuracy_to_cell_size
from ..geom.rasterize import area_fraction_inside, concat_ranges, dilate_cells, rasterize_layer, unique_pairs


class PolygonBundle:
    """Immutable broadcastable join state for one (layer, grid).

    Only the *unified* cell structures are stored — one sorted cell-id array
    (``ucells``) serving candidate lists, cover lists and the border flag with
    a single lookup per point — which also keeps the broadcast/pickle payload
    minimal (round-4: retaining the separate cand/cover CSRs tripled the disk
    cache and the plasma object for zero lookups saved).
    """

    #: every array the constructor sets; a cached pickle missing one is an
    #: earlier layout
    ARRAYS = (
        "verts", "ring_offsets", "poly_ring_offsets", "ucells", "tile_slot", "tile_cells",
        "ucand_indptr", "ucand_vals", "ucover_indptr", "ucover_vals", "uborder",
        "uedge_start", "uedge_stop", "uedge_left", "uedge_ids",
    )

    def __init__(self, layer: PolygonLayer, grid: Grid, build_area_fractions: bool = False):
        self.layer_name = layer.name
        self.grid = grid
        self.npolys = layer.npolys
        self.verts = np.ascontiguousarray(layer.verts)
        self.ring_offsets = np.ascontiguousarray(layer.ring_offsets)
        self.poly_ring_offsets = np.ascontiguousarray(layer.poly_ring_offsets)

        ocell, opoly, vcell, vpoly = rasterize_layer(self.verts, self.ring_offsets, self.poly_ring_offsets, grid)
        # candidates: every cell a polygon intersects = outline ∪ cover;
        # both CSRs list a cell's polygons in ascending order
        cc, cp = unique_pairs(np.concatenate([ocell, vcell]), np.concatenate([opoly, vpoly]))
        o = np.argsort(vcell, kind="stable")
        vcell, vpoly = vcell[o], vpoly[o]
        # border = outline dilated by one cell (3×3 neighborhood), sorted
        border_cells = dilate_cells(np.unique(ocell), grid, r=1)

        # unified cell table: ONE lookup per batch serves candidate lists,
        # cover lists and the border flag
        self.ucells = np.union1d(cc, border_cells)
        self.tile_slot, self.tile_cells = tile_table(self.ucells, grid)
        self.ucand_indptr = _aligned_indptr(cc, self.ucells)
        self.ucand_vals = cp.astype(np.int32)
        self.ucover_indptr = _aligned_indptr(vcell, self.ucells)
        self.ucover_vals = vpoly.astype(np.int32)
        self.uborder = np.zeros(len(self.ucells), dtype=bool)
        self.uborder[np.searchsorted(self.ucells, border_cells)] = True
        self.uedge_start, self.uedge_stop, self.uedge_left, self.uedge_ids = border_edge_lists(
            self.verts, self.ring_offsets, self.poly_ring_offsets, grid,
            self.ucells, self.ucand_indptr, self.ucand_vals, self.uborder,
        )
        self._area_frac: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if build_area_fractions:
            self.build_area_fractions()

    def locate_ucells(self, lin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(idx, hit) positions of query cells in the unified table.

        Two gathers per point through the tiled table (``tile_table``): the
        cell's tile slot, then its position within the slot's 32×32 block.
        A miss costs the same as a hit (empty tiles point at slot 0, all
        −1); ``idx`` is 0 where ``hit`` is False."""
        # int32 arithmetic whenever cell ids and block offsets fit
        t = np.int32 if max(self.grid.ncells, len(self.tile_cells)) < 2**31 else np.int64
        tile, sub = _tile_index(lin, self.grid.nx, t)
        sub += self.tile_slot[tile].astype(t, copy=False) << 2 * TILE_SHIFT
        pos = self.tile_cells[sub]
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
        state.pop("_edge_tables", None)
        return state

    def expand(self, lin: np.ndarray, kind: str = "cand") -> tuple[np.ndarray, np.ndarray]:
        """Candidate pairs ``(point_idx, poly_id)`` for query cells ``lin``
        from the unified CSR (``kind``: "cand" or "cover") — vectorized."""
        indptr = self.ucand_indptr if kind == "cand" else self.ucover_indptr
        values = self.ucand_vals if kind == "cand" else self.ucover_vals
        if len(self.ucells) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
        point_idx, val_idx = csr_expand(indptr, *self.locate_ucells(lin))
        return point_idx, values[val_idx]

    @property
    def border_cells(self) -> np.ndarray:
        """Sorted border cell ids (derived: border ⊆ ucells by construction)."""
        return self.ucells[self.uborder]

    # ---- border membership (unified-table lookup, vectorized) ----
    def is_border(self, lin: np.ndarray) -> np.ndarray:
        idx, hit = self.locate_ucells(lin)
        hit[hit] = self.uborder[idx[hit]]
        return hit

    def build_area_fractions(self, subsamples: int = 8) -> None:
        """Per polygon: its outline cells + area fraction inside (for J4)."""
        ocell, opoly, _, _ = rasterize_layer(self.verts, self.ring_offsets, self.poly_ring_offsets, self.grid)
        bounds = np.searchsorted(opoly, np.arange(self.npolys + 1))
        for p in range(self.npolys):
            outline = ocell[bounds[p] : bounds[p + 1]]
            frac = area_fraction_inside(self.verts, self.rings_of(p), self.grid, outline, subsamples=subsamples)
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


#: tile edge of the cell lookup, in cells (a power of two)
TILE = 32
TILE_SHIFT = TILE.bit_length() - 1
TILE_MASK = TILE - 1


def _ntiles(n: int) -> int:
    return -(-int(n) // TILE)


def _tile_index(lin: np.ndarray, nx: int, t) -> tuple[np.ndarray, np.ndarray]:
    """``(tile, sub)`` of cells ``lin`` in integer dtype ``t``: the row-major
    tile id and the cell's row-major offset within its tile."""
    iy = np.asarray(lin).astype(t)
    ix = iy % t(nx)
    iy //= t(nx)
    tile = (iy >> TILE_SHIFT) * t(_ntiles(nx)) + (ix >> TILE_SHIFT)
    iy &= TILE_MASK
    iy <<= TILE_SHIFT
    ix &= TILE_MASK
    iy |= ix
    return tile, iy


def tile_table(ucells: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Two-level lookup table ``(tile_slot, tile_cells)`` over ``ucells``.

    The grid is cut into TILE×TILE-cell tiles, numbered row-major.
    ``tile_slot[t]`` (int32) is tile ``t``'s block in ``tile_cells``, 0 for a
    tile holding no ucell; block ``s`` of ``tile_cells`` (int32, TILE² per
    block, row-major within the tile) holds each cell's position in
    ``ucells`` or −1, and block 0 is all −1.  Built in O(len(ucells) +
    tiles) by two scatters and a prefix sum, with no sort."""
    tile, sub = _tile_index(ucells, grid.nx, np.int32 if grid.ncells < 2**31 else np.int64)
    occupied = np.zeros(_ntiles(grid.nx) * _ntiles(grid.ny), dtype=bool)
    occupied[tile] = True
    tile_slot = np.cumsum(occupied, dtype=np.int32)
    tile_slot *= occupied
    tile_cells = np.full((int(tile_slot.max(initial=0)) + 1) * TILE * TILE, -1, dtype=np.int32)
    pos = tile_slot[tile].astype(np.int64)
    pos <<= 2 * TILE_SHIFT
    pos += sub
    tile_cells[pos] = np.arange(len(ucells), dtype=np.int32)
    return tile_slot, tile_cells


def csr_expand(indptr: np.ndarray, idx: np.ndarray, hit: np.ndarray | None = None):
    """``(point_idx, val_idx)`` of the CSR expansion of rows ``idx`` (rows
    where ``hit`` is False expand to nothing): ``point_idx`` indexes ``idx``,
    ``val_idx`` the value array (and anything aligned with it).

    int32 index arithmetic: a batch has < 2^31 rows and the bundle's value
    arrays are bounded by max_cover_cells — expansion indices are the
    largest arrays a join stage allocates, so halving their width halves
    the dominant non-PIP memory traffic."""
    starts = indptr[idx]
    counts = indptr[idx + 1] - starts
    if hit is not None:
        counts = np.where(hit, counts, 0)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    idx_t = np.int32 if len(idx) < 2**31 else np.int64
    # val_t arrays (within / run_starts) hold values up to `total`, the
    # expanded pair count — not the value count — so the narrowing test must
    # use both or np.arange wraps silently
    val_t = np.int32 if total < 2**31 and int(indptr[-1]) < 2**31 else np.int64
    point_idx = np.repeat(np.arange(len(idx), dtype=idx_t), counts)
    run_ends = np.cumsum(counts)
    run_starts = (run_ends - counts).astype(val_t, copy=False)
    within = np.arange(total, dtype=val_t) - np.repeat(run_starts, counts)
    val_idx = np.repeat(starts.astype(val_t, copy=False), counts) + within
    return point_idx, val_idx


def _aligned_indptr(cells: np.ndarray, ucells: np.ndarray) -> np.ndarray:
    """CSR offsets over ``ucells`` of pairs sorted by cell (every pair's cell
    is in ``ucells``)."""
    return np.append(np.searchsorted(cells, ucells), len(cells)).astype(np.int64)


def border_edge_lists(verts, ring_offsets, poly_ring_offsets, grid: Grid, ucells, ucand_indptr, ucand_vals, uborder):
    """Per border ``(cell, polygon)`` entry, the polygon's edges that can flip
    PIP parity for a point in that cell, seen from the nearer side.

    Returns ``(uedge_start, uedge_stop, uedge_left, uedge_ids)``: entry ``s``
    of ``ucand_vals`` tests edges (= vertex ids) ``uedge_ids[uedge_start[s]:
    uedge_stop[s]]`` with a ray going left if ``uedge_left[s]``, else right;
    entries off the border get an empty range.

    An edge can flip a point's parity only if the point's y lies in its
    y-span and, for a ray going right, the point is left of its max x; for a
    ray going left, right of its min x.  So an edge is kept for a cell if its
    y-span meets the cell's row band and its max x reaches the cell's left
    side (right list) or its min x reaches the cell's right side (left
    list), all widened by one cell, plus a float32-rounding allowance, so
    rounding in ``Grid.locate`` or the f32 plane cannot drop a real crossing.
    Under the half-open y test every closed ring has an even number of edges
    straddling the point's y, and both rays compute the same crossing x, so
    the two counts have equal parity and each entry takes the shorter list.
    Horizontal edges and rings under 3 vertices never flip parity and are
    left out; every other ring's edges go in, so holes XOR correctly.

    The lists share storage: ``uedge_ids`` holds, per (polygon, grid row),
    one run of the edges that reach the row from the right, sorted by the
    last column they reach, descending, and one of those that reach it from
    the left, sorted by the first column they reach, ascending.  Every
    cell's list is a prefix of one of its two runs and costs two ints and a
    bit, not a copy of the edges.
    """
    nv = len(verts)
    cell, nx, ny = grid.cell, grid.nx, grid.ny
    # the outputs are allocated first, below the build's temporaries, so
    # the heap can shrink once those are freed (the driver keeps ~25 MB
    # more at 200 m otherwise)
    idx_t = np.int32 if 2 * nv * ny < 2**31 else np.int64
    start = np.zeros(len(ucand_vals), dtype=idx_t)
    stop = np.zeros(len(ucand_vals), dtype=idx_t)
    left = np.zeros(len(ucand_vals), dtype=bool)
    ring_len = np.diff(ring_offsets)
    prev = edge_prev(ring_offsets, nv)
    xi, yi = verts[:, 0], verts[:, 1]
    xj, yj = xi[prev], yi[prev]
    pad = cell + (float(np.abs(verts).max()) * 2.0**-20 if nv else 0.0)
    # an edge's rank in its run, 0 reaching furthest: on the right side
    # nx-1 minus the last column whose left side is within reach of the
    # edge's max x, on the left side the first column whose right side is
    # within reach of its min x; rank nx reaches no column
    c_hi = np.floor((np.maximum(xi, xj) + pad - grid.x0) / cell)
    c_lo = np.floor((np.minimum(xi, xj) - pad - grid.x0) / cell)
    rank = np.clip(np.stack([nx - 1 - c_hi, c_lo]), 0, nx).astype(np.int64)
    side, e = np.nonzero((rank < nx) & (yi != yj) & (np.repeat(ring_len, ring_len) >= 3))
    r_lo = np.clip(np.floor((np.minimum(yi[e], yj[e]) - pad - grid.y0) / cell), 0, ny - 1).astype(np.int64)
    r_hi = np.clip(np.floor((np.maximum(yi[e], yj[e]) + pad - grid.y0) / cell), 0, ny - 1).astype(np.int64)

    # one run per (polygon, row, side), keyed (poly * ny + row) * 2 + side,
    # its edges by rank; comp is one ascending key over (run, rank)
    nrow = r_hi - r_lo + 1
    run_edge = np.repeat(e.astype(np.int32), nrow)
    run_side = np.repeat(side.astype(np.int8), nrow)
    poly_of_vert = np.repeat(np.repeat(np.arange(len(poly_ring_offsets) - 1), np.diff(poly_ring_offsets)), ring_len)
    run_key = (poly_of_vert[run_edge] * np.int64(ny) + concat_ranges(r_lo, nrow)) * 2 + run_side
    run_rank = rank[run_side, run_edge]
    order = np.lexsort((run_rank, run_key))
    run_edge, run_key = run_edge[order], run_key[order]
    first = np.ones(len(run_key), dtype=bool)
    np.not_equal(run_key[1:], run_key[:-1], out=first[1:])
    # run starts and keys, each ending in a sentinel past every entry key
    run_start = np.flatnonzero(np.append(first, True))
    keys = np.append(run_key[run_start[:-1]], np.iinfo(np.int64).max)
    comp = (np.cumsum(first) - 1) * np.int64(nx + 1) + run_rank[order]

    # border entries in ucand_vals order; on each side an entry's list is
    # the prefix of its run with rank <= nx-1-col (right) or col (left); a
    # (polygon, row, side) with no run gets an empty list.  Chunked over
    # border cells, so at continental scale (10^7 entries) the per-entry
    # temporaries stay below the rest of the build's peak.
    ub = np.flatnonzero(uborder)
    for c in range(0, len(ub), 1 << 18):
        u = ub[c : c + (1 << 18)]
        nent = ucand_indptr[u + 1] - ucand_indptr[u]
        slot = concat_ranges(ucand_indptr[u], nent)
        ent_row, ent_col = np.divmod(np.repeat(ucells[u], nent), nx)
        ent_key = (ucand_vals[slot].astype(np.int64) * ny + ent_row) * 2
        r = np.searchsorted(keys, ent_key)
        bounds = []
        for s, last in ((0, nx - 1 - ent_col), (1, ent_col)):
            found = keys[r] == ent_key + s
            lo = run_start[r]
            hi = np.where(found, np.searchsorted(comp, r * np.int64(nx + 1) + last, "right"), lo)
            bounds.append((lo, hi))
            r = r + found  # the left run follows the right one
        (lo_r, hi_r), (lo_l, hi_l) = bounds
        use_left = hi_l - lo_l < hi_r - lo_r
        start[slot] = np.where(use_left, lo_l, lo_r)
        stop[slot] = np.where(use_left, hi_l, hi_r)
        left[slot] = use_left
    return start, stop, left, run_edge


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
        grid = Grid.from_bounds(xmin, ymin, xmax, ymax, cell_size)
        b = PolygonBundle(layer, grid, build_area_fractions=build_area_fractions)
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

    name = f"bundle_v6_{key[0]}_{key[1]}_{int(key[2])}.pkl"
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
            b = pickle.loads(payload, buffers=bufs)
    except Exception:  # noqa: BLE001 - corrupt cache -> rebuild
        return None
    if not isinstance(b, PolygonBundle) or not all(isinstance(b.__dict__.get(f), np.ndarray) for f in b.ARRAYS):
        return None  # an earlier layout under the same name -> rebuild
    return b


def _save_disk_cache(key, bundle) -> None:
    import os
    import pickle
    import tempfile

    d = _disk_cache_dir()
    os.makedirs(d, mode=0o700, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        bufs: list = []
        payload = pickle.dumps(bundle, protocol=5, buffer_callback=bufs.append)
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
