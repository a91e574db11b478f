"""Polygon -> cell rasterization (the CPU analogue of the reference's GL
rasterization passes, built from scratch).

:func:`rasterize_layer` classifies every polygon of a layer in one
vectorized pass over its flat vertex arrays (no per-polygon loop):

- **outline** — every cell a polygon's boundary passes through: the exact
  "supercover" of each edge, from the sorted parameters of its grid-line
  crossings (a cell per inter-crossing midpoint).  This replaces the
  reference's conservative outline rasterization (``HybridJoin::drawOutline``,
  ``join/HybridJoin.cpp:197-268``, GL_CONSERVATIVE_RASTERIZATION_NV).
- **cover** — every cell whose centre is inside the polygon: GL's
  pixel-centre fill rule, which defines the raster join's cover lists
  (SURVEY.md §2.7.4), applied as a scanline.  Per (polygon, grid row) the
  edges crossing the row's centre line give sorted crossing x's (the k-form
  and half-open test of ``points_in_ring``, so the answer is bit-identical
  to PIP at each centre); a closed ring's crossings pair up, so the covered
  cells are the column runs between crossings ``2m`` and ``2m+1`` (Raster
  Intervals, SIGMOD'23).  A non-outline cell is uniformly inside or outside,
  so outline ∪ cover is exactly the set of cells a polygon intersects — the
  reference's CPU grid index (``CPUJoin/GridIndexF.cpp:426-459``).

:func:`segment_cells` and ``pip.points_in_polygon`` are the scalar
definitions the tests hold both halves to.
"""

from __future__ import annotations

import numpy as np

from .cells import Grid
from .pip import edge_prev, points_in_polygon


def segment_cells(x0: float, y0: float, x1: float, y1: float, grid: Grid) -> np.ndarray:
    """Linear cell ids of every grid cell the segment [p0, p1] passes through.

    Walks the sorted parameter values of all grid-line crossings and takes the
    cell of each inter-crossing midpoint — exact for closed cells, no
    dependence on slope special-cases.  Cells outside the grid are clipped.
    """
    gx0 = (x0 - grid.x0) / grid.cell
    gy0 = (y0 - grid.y0) / grid.cell
    gx1 = (x1 - grid.x0) / grid.cell
    gy1 = (y1 - grid.y0) / grid.cell
    dx = gx1 - gx0
    dy = gy1 - gy0
    ts = [np.array([0.0, 1.0])]
    if dx != 0.0:
        lo, hi = (gx0, gx1) if dx > 0 else (gx1, gx0)
        ks = np.arange(np.ceil(lo), np.floor(hi) + 1.0)
        ts.append((ks - gx0) / dx)
    if dy != 0.0:
        lo, hi = (gy0, gy1) if dy > 0 else (gy1, gy0)
        ks = np.arange(np.ceil(lo), np.floor(hi) + 1.0)
        ts.append((ks - gy0) / dy)
    t = np.unique(np.clip(np.concatenate(ts), 0.0, 1.0))
    if len(t) < 2:
        t = np.array([0.0, 1.0])
    tm = (t[:-1] + t[1:]) / 2.0
    mx = gx0 + tm * dx
    my = gy0 + tm * dy
    ix = np.floor(mx).astype(np.int64)
    iy = np.floor(my).astype(np.int64)
    ok = (ix >= 0) & (ix < grid.nx) & (iy >= 0) & (iy < grid.ny)
    return np.unique(iy[ok] * np.int64(grid.nx) + ix[ok])


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


def unique_pairs(major: np.ndarray, minor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``(major, minor)`` pairs, sorted by major, then minor."""
    o = np.lexsort((minor, major))
    major, minor = major[o], minor[o]
    keep = np.ones(len(major), dtype=bool)
    keep[1:] = (major[1:] != major[:-1]) | (minor[1:] != minor[:-1])
    return major[keep], minor[keep]


def _first_centre_at_or_above(v: np.ndarray, origin: float, cell: float) -> np.ndarray:
    """Per value, the smallest index ``i`` with ``origin + (i + 0.5) * cell >= v``.

    Estimated from the inverse, then corrected by one step against the exact
    centre expression of ``Grid.centers``, so comparisons against the centre
    of cell ``i`` are decided exactly as a PIP test at that centre does."""
    i = np.ceil((v - origin) / cell - 0.5)
    i += origin + (i + 0.5) * cell < v
    i -= origin + (i - 0.5) * cell >= v
    return i.astype(np.int64)


def _outline_pairs(gx: np.ndarray, gy: np.ndarray, nxt: np.ndarray, vpoly: np.ndarray, grid: Grid):
    """(cell, poly) of every edge's supercover, edge ``i`` running to
    ``nxt[i]`` in grid units: :func:`segment_cells` over all edges at once."""
    nv = len(gx)
    edge = np.arange(nv)
    dx, dy = gx[nxt] - gx, gy[nxt] - gy
    parts_e, parts_t = [edge, edge], [np.zeros(nv), np.ones(nv)]
    for g0, g1, d in ((gx, gx[nxt], dx), (gy, gy[nxt], dy)):
        k0 = np.ceil(np.minimum(g0, g1))
        n = np.where(d != 0.0, np.floor(np.maximum(g0, g1)) - k0 + 1.0, 0.0).clip(0).astype(np.int64)
        e = np.repeat(edge, n)
        ks = k0[e] + concat_ranges(np.zeros(nv, dtype=np.int64), n)
        parts_e.append(e)
        parts_t.append((ks - g0[e]) / d[e])
    e, t = unique_pairs(np.concatenate(parts_e), np.clip(np.concatenate(parts_t), 0.0, 1.0))
    # one midpoint between consecutive parameters of the same edge
    same = e[1:] == e[:-1]
    e = e[:-1][same]
    tm = (t[:-1][same] + t[1:][same]) / 2.0
    ix = np.floor(gx[e] + tm * dx[e]).astype(np.int64)
    iy = np.floor(gy[e] + tm * dy[e]).astype(np.int64)
    ok = (ix >= 0) & (ix < grid.nx) & (iy >= 0) & (iy < grid.ny)
    return iy[ok] * np.int64(grid.nx) + ix[ok], vpoly[e[ok]]


def rasterize_layer(verts: np.ndarray, ring_offsets: np.ndarray, poly_ring_offsets: np.ndarray, grid: Grid):
    """Outline and cover cells of every polygon of a layer.

    Returns ``(outline_cells, outline_polys, cover_cells, cover_polys)``: two
    lists of unique (linear cell id, polygon id) pairs, each sorted by
    (polygon, cell).  Outline cells are those the polygon's boundary passes
    through (every ring, edge ``i -> i+1``, rings of 1-2 vertices included);
    cover cells are those in the polygon's MBR cell range whose centre is
    inside (even-odd over rings of 3 or more vertices).  Cells off the grid
    are clipped.
    """
    verts = np.asarray(verts)
    nv = len(verts)
    ring_len = np.diff(ring_offsets)
    vpoly = np.repeat(np.repeat(np.arange(len(poly_ring_offsets) - 1), np.diff(poly_ring_offsets)), ring_len)
    xi, yi = verts[:, 0], verts[:, 1]

    nxt = np.arange(1, nv + 1)
    starts, ends = ring_offsets[:-1], ring_offsets[1:]
    nonempty = ends > starts
    nxt[ends[nonempty] - 1] = starts[nonempty]
    ocell, opoly = _outline_pairs((xi - grid.x0) / grid.cell, (yi - grid.y0) / grid.cell, nxt, vpoly, grid)
    opoly, ocell = unique_pairs(opoly, ocell)

    # each polygon's MBR cell range, clipped to the grid
    pv = ring_offsets[poly_ring_offsets[:-1]]
    ix0 = np.floor((np.minimum.reduceat(xi, pv) - grid.x0) / grid.cell).clip(0, None).astype(np.int64)
    ix1 = np.floor((np.maximum.reduceat(xi, pv) - grid.x0) / grid.cell).clip(None, grid.nx - 1).astype(np.int64)
    iy0 = np.floor((np.minimum.reduceat(yi, pv) - grid.y0) / grid.cell).clip(0, None).astype(np.int64)
    iy1 = np.floor((np.maximum.reduceat(yi, pv) - grid.y0) / grid.cell).clip(None, grid.ny - 1).astype(np.int64)

    # scanline: edge i = (v_i, v_prev[i]) crosses the centre line of every
    # row with min(y) <= cy < max(y) (the half-open test of points_in_ring)
    prev = edge_prev(ring_offsets, nv)
    xj, yj = xi[prev], yi[prev]
    e = np.flatnonzero((yi != yj) & (np.repeat(ring_len, ring_len) >= 3))
    p = vpoly[e]
    r_lo = np.maximum(_first_centre_at_or_above(np.minimum(yi[e], yj[e]), grid.y0, grid.cell), iy0[p])
    r_hi = np.minimum(_first_centre_at_or_above(np.maximum(yi[e], yj[e]), grid.y0, grid.cell), iy1[p] + 1)
    n = (r_hi - r_lo).clip(0, None)
    e = np.repeat(e, n)
    row = concat_ranges(r_lo, n)
    cy = grid.y0 + (row + 0.5) * grid.cell
    k = (xj[e] - xi[e]) / (yj[e] - yi[e])
    x = (cy - yi[e]) * k + xi[e]
    key = vpoly[e] * np.int64(grid.ny) + row
    o = np.lexsort((x, key))
    key, x = key[o], x[o]
    # a closed ring crosses a line an even number of times, so a centre is
    # inside iff x[2m] <= cx < x[2m+1] for some m
    assert np.array_equal(key[0::2], key[1::2]), "unpaired scanline crossings"
    cpoly, row = np.divmod(key[0::2], np.int64(grid.ny))
    c_lo = np.maximum(_first_centre_at_or_above(x[0::2], grid.x0, grid.cell), ix0[cpoly])
    c_hi = np.minimum(_first_centre_at_or_above(x[1::2], grid.x0, grid.cell), ix1[cpoly] + 1)
    n = (c_hi - c_lo).clip(0, None)
    vcell = np.repeat(row * np.int64(grid.nx), n) + concat_ranges(c_lo, n)
    return ocell, opoly, vcell, np.repeat(cpoly, n)


def dilate_cells(lin: np.ndarray, grid: Grid, r: int = 1) -> np.ndarray:
    """Dilate a set of linear cell ids by ``r`` cells (Chebyshev ball).

    Mirrors the reference's 3×3 ``isBorder`` neighborhood test
    (``shaders/hybrid.glsl:174-185``) applied as a mask dilation.
    """
    if len(lin) == 0:
        return lin.astype(np.int64)
    iy, ix = np.divmod(np.asarray(lin, dtype=np.int64), grid.nx)
    offs = np.arange(-r, r + 1, dtype=np.int64)
    ox, oy = np.meshgrid(offs, offs)
    nix = (ix[:, None] + ox.ravel()[None, :]).ravel()
    niy = (iy[:, None] + oy.ravel()[None, :]).ravel()
    ok = (nix >= 0) & (nix < grid.nx) & (niy >= 0) & (niy < grid.ny)
    return np.unique(niy[ok] * np.int64(grid.nx) + nix[ok])


def area_fraction_inside(
    verts: np.ndarray,
    ring_offsets: np.ndarray,
    grid: Grid,
    lin: np.ndarray,
    subsamples: int = 8,
) -> np.ndarray:
    """Approximate fraction of each cell's area inside the polygon.

    Deterministic S×S subcell-center sampling — stands in for the reference's
    exact edge-clipped area computation (``shaders/line-bound.frag:48-187``);
    used only for the *estimated* error bounds (the guaranteed bounds never
    depend on it, SURVEY.md §2.4 J4).
    """
    if len(lin) == 0:
        return np.empty(0, dtype=np.float64)
    iy, ix = np.divmod(np.asarray(lin, dtype=np.int64), grid.nx)
    s = (np.arange(subsamples, dtype=np.float64) + 0.5) / subsamples
    sx, sy = np.meshgrid(s, s)
    px = grid.x0 + (ix[:, None].astype(np.float64) + sx.ravel()[None, :]) * grid.cell
    py = grid.y0 + (iy[:, None].astype(np.float64) + sy.ravel()[None, :]) * grid.cell
    inside = points_in_polygon(px.ravel(), py.ravel(), verts, ring_offsets)
    return inside.reshape(len(lin), -1).mean(axis=1)
