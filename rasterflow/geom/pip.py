"""Exact point-in-polygon kernel (even-odd crossing, half-open edge rule).

The rule is the classic PNPOLY even-odd test, identical across all four of the
reference's implementations (``shaders/index.glsl:47-70``,
``shaders/hybrid.glsl:57-78``, ``shaders/line-bound.frag:189-215``,
``CPUJoin/GridIndexF.cpp:383-402``): for each edge (vi, vj),

    ((vi.y > ty) != (vj.y > ty)) and (tx < (vj.x-vi.x)*(ty-vi.y)/(vj.y-vi.y)+vi.x)

flips parity.  The ``>`` / ``<`` asymmetry makes the boundary half-open so a
point on a shared border is assigned to at most one polygon deterministically
(SURVEY.md §2.7.3).  Multi-ring polygons XOR ring parities (even-odd fill).

``points_in_ring`` / ``pip_pairs`` vectorize over *points* with a Python loop
over *edges* — polygons are the small broadcast side (tens of vertices),
points come in 10^4-10^5-row batches, so the inner ops are numpy over the long
axis.  ``pip_edge_lists`` instead takes a short precomputed edge list per pair
(the hybrid join's per-border-cell lists, each for a ray to whichever side
of the polygon is nearer) and runs one flat pass over every (pair, edge) row.
"""

from __future__ import annotations

import numpy as np


def points_in_ring(px: np.ndarray, py: np.ndarray, ring: np.ndarray, dtype=None) -> np.ndarray:
    """Even-odd parity of points vs one ring (closed implicitly).

    ``ring`` is (n, 2); last->first edge is implicit. ``dtype=np.float32``
    selects the conformance plane (float32 arithmetic like the reference).
    """
    if dtype is not None:
        px = np.asarray(px, dtype)
        py = np.asarray(py, dtype)
        ring = np.asarray(ring, dtype)
    else:
        px = np.asarray(px)
        py = np.asarray(py)
        ring = np.asarray(ring)
    n = len(ring)
    inside = np.zeros(px.shape, dtype=bool)
    if n < 3:
        return inside
    # broadcast edges × points: vi = ring[i], vj = ring[i-1] (same iteration
    # order/orientation as the reference's loop).  Divide-by-zero edges
    # (viy == vjy) have cond False, so the garbage xint rows are masked out;
    # errors are pre-silenced once (cheaper than a context manager per edge).
    vi = ring
    vj = np.roll(ring, 1, axis=0)
    vix = vi[:, 0:1].copy()
    viy = vi[:, 1:2].copy()
    vjy = vj[:, 1:2]
    old = np.seterr(divide="ignore", invalid="ignore")
    try:
        # per-edge slope k = (vjx-vix)/(vjy-viy), computed ONCE per edge
        # (E divisions) instead of per point-edge pair (E×N divisions) —
        # the oracle SQL uses the identical k-form expression so the IEEE
        # op sequence (div, mul, add) matches bit-for-bit.  Degenerate
        # horizontal edges give inf/nan k; cond is False there, masked out.
        k = (vj[:, 0:1] - vix) / (vjy - viy)
        # block the point axis so the (E, step) temporaries stay cache-sized
        # instead of streaming 10s of MB through DRAM per ring (the measured
        # multi-core bandwidth wall, SCALE.md §6)
        max_elems = 500_000
        step = max(1, max_elems // max(1, n))
        for s in range(0, len(px), step):
            pxs = px[s : s + step][None, :]
            pys = py[s : s + step][None, :]
            xint = pys - viy  # (E, N) — reused in-place below
            xint *= k
            xint += vix
            cond = viy > pys
            np.not_equal(cond, vjy > pys, out=cond)
            cond &= pxs < xint
            inside[s : s + step] = (cond.sum(axis=0) & 1).astype(bool)
    finally:
        np.seterr(**old)
    return inside


def points_in_polygon(
    px: np.ndarray,
    py: np.ndarray,
    verts: np.ndarray,
    ring_offsets: np.ndarray,
    dtype=None,
) -> np.ndarray:
    """Even-odd PIP for a (possibly multi-ring) polygon.

    ``verts`` is (V, 2); ``ring_offsets`` is CSR over rings (len R+1). Holes
    are expressed as additional rings — even-odd semantics XOR parities.
    """
    inside = np.zeros(np.shape(px), dtype=bool)
    for r in range(len(ring_offsets) - 1):
        ring = verts[ring_offsets[r] : ring_offsets[r + 1]]
        inside ^= points_in_ring(px, py, ring, dtype=dtype)
    return inside


def _pip_pairs_edge_parallel(
    px, py, pair_point, pair_poly, verts, ring_offsets, poly_ring_offsets, dtype=None
) -> np.ndarray:
    """Pair-parallel PIP for SINGLE-RING polygons: one vectorized pass per
    edge ordinal across all pairs (padded ordinals degenerate to zero-length
    edges, which the crossing condition ignores).  Wins when a batch touches
    many distinct small polygons, where per-polygon grouping would pay Python
    overhead per polygon."""
    if dtype is not None:
        px = np.asarray(px, dtype)
        py = np.asarray(py, dtype)
        verts = np.asarray(verts, dtype)
    ring_idx = poly_ring_offsets[pair_poly]
    starts = ring_offsets[ring_idx]
    nv = ring_offsets[ring_idx + 1] - starts
    tx = px[pair_point]
    ty = py[pair_point]
    inside = np.zeros(len(pair_point), dtype=bool)
    if len(nv) == 0:
        return inside
    max_nv = int(nv.max())
    old = np.seterr(divide="ignore", invalid="ignore")
    try:
        for e in range(max_nv):
            valid = e < nv
            i_idx = starts + np.minimum(e, nv - 1)
            prev = np.where(e == 0, nv - 1, e - 1)
            j_idx = np.where(valid, starts + prev, i_idx)  # padded -> vi == vj
            vix = verts[i_idx, 0]
            viy = verts[i_idx, 1]
            vjx = verts[j_idx, 0]
            vjy = verts[j_idx, 1]
            cond = (viy > ty) != (vjy > ty)
            # same k-form op sequence as points_in_ring / the SQL oracle
            xint = (vjx - vix) / (vjy - viy) * (ty - viy) + vix
            inside ^= cond & (tx < xint)
    finally:
        np.seterr(**old)
    return inside


def edge_prev(ring_offsets: np.ndarray, nverts: int) -> np.ndarray:
    """Index of vertex ``i``'s predecessor in its ring, so edge ``i`` is
    ``(v_i, v_prev[i])`` — the (vi, vj) order of every kernel here."""
    prev = np.arange(-1, nverts - 1, dtype=np.int64)
    starts = np.asarray(ring_offsets[:-1], dtype=np.int64)
    ends = np.asarray(ring_offsets[1:], dtype=np.int64)
    nonempty = ends > starts
    prev[starts[nonempty]] = ends[nonempty] - 1
    return prev


def edge_table(verts: np.ndarray, ring_offsets: np.ndarray, dtype=np.float64) -> np.ndarray:
    """(4, V) per-edge rows ``vix, viy, vjy, k`` in ``dtype``, one column per
    vertex (edge ``i`` ends at its ring predecessor).  ``k`` is the k-form
    slope of ``points_in_ring``, computed from the ``dtype``-cast vertices, so
    a crossing test over these columns matches ``pip_pairs`` bit for bit.
    Field-major, so one ``np.take(..., axis=1)`` gathers four contiguous
    rows."""
    v = np.asarray(verts, dtype)
    prev = edge_prev(ring_offsets, len(v))
    tab = np.empty((4, len(v)), dtype=dtype)
    tab[0] = v[:, 0]
    tab[1] = v[:, 1]
    tab[2] = v[prev, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        tab[3] = (v[prev, 0] - v[:, 0]) / (tab[2] - tab[1])
    return tab


def pip_edge_lists(
    px: np.ndarray,
    py: np.ndarray,
    pair_point: np.ndarray,
    edge_start: np.ndarray,
    edge_stop: np.ndarray,
    edge_left: np.ndarray,
    edge_ids: np.ndarray,
    edges: np.ndarray,
) -> np.ndarray:
    """PIP for (point, polygon) pairs whose parity-relevant edges are known.

    Pair ``i`` is tested against ``edge_ids[edge_start[i]:edge_stop[i]]``
    only (columns of ``edges``, from :func:`edge_table`), with a ray going
    right (counting ``tx < xint``, the test of ``points_in_ring``) or, where
    ``edge_left[i]``, left (counting ``tx >= xint``); every other edge of
    the polygon must be unable to flip parity for that ray.  Both rays give
    the same parity: a closed ring has an even number of edges straddling
    ``ty`` under the half-open test, and each one is counted by exactly one
    of the two tests.  One flat pass over all (pair, edge) rows, then parity
    per pair by ``logical_xor.reduceat``.  Arithmetic runs in ``edges``'
    dtype.
    """
    inside = np.zeros(len(pair_point), dtype=bool)
    counts = edge_stop - edge_start
    total = int(counts.sum())
    if total == 0:
        return inside
    row_start = np.cumsum(counts) - counts
    pos = np.repeat(edge_start - row_start, counts) + np.arange(total, dtype=row_start.dtype)
    vix, viy, vjy, k = np.take(edges, np.take(edge_ids, pos), axis=1)
    tx = np.repeat(np.take(np.asarray(px, edges.dtype), pair_point), counts)
    ty = np.repeat(np.take(np.asarray(py, edges.dtype), pair_point), counts)
    cond = viy > ty
    np.not_equal(cond, vjy > ty, out=cond)
    with np.errstate(invalid="ignore", over="ignore"):
        # horizontal edges (k = ±inf/nan) have cond False already
        xint = ty - viy
        xint *= k
        xint += vix
    right = tx < xint
    # a left row counts the straddling edges the right test leaves out
    np.not_equal(right, np.repeat(edge_left, counts), out=right)
    cond &= right
    nonempty = counts > 0
    inside[nonempty] = np.logical_xor.reduceat(cond, row_start[nonempty])
    return inside


def pip_pairs(
    px: np.ndarray,
    py: np.ndarray,
    pair_point: np.ndarray,
    pair_poly: np.ndarray,
    verts: np.ndarray,
    ring_offsets: np.ndarray,
    poly_ring_offsets: np.ndarray,
    dtype=None,
) -> np.ndarray:
    """Evaluate PIP for (point, polygon) candidate pairs.

    Two regimes (the numpy analogue of the reference's per-point
    candidate-list walk, ``shaders/index.glsl:186-249``):

    - few distinct polygons: group pairs by polygon, run the edge-broadcast
      kernel once per polygon (amortizes over many points per polygon);
    - many distinct single-ring polygons: pair-parallel edge-ordinal sweep
      (no per-polygon Python overhead).  Multi-ring polygons always take the
      grouped path.

    Returns a boolean mask aligned with the pair arrays.
    """
    out = np.zeros(len(pair_point), dtype=bool)
    if len(pair_point) == 0:
        return out
    nrings_all = np.diff(poly_ring_offsets)
    all_single = (nrings_all.max() if len(nrings_all) else 1) == 1
    single = None if all_single else (nrings_all[pair_poly] == 1)
    sel_poly = pair_poly if all_single else pair_poly[single]
    if len(sel_poly):
        # cost model: grouped pays per-distinct-poly Python overhead
        # (~2000 element-ops equivalent) plus the true edge work
        # Σ nv_p per pair; edge-parallel pays max(nv) passes over every
        # pair.  Pick the cheaper.  (Both kernels support the f32 plane.)
        ring_idx = poly_ring_offsets[sel_poly]
        nv_pairs = ring_offsets[ring_idx + 1] - ring_offsets[ring_idx]
        distinct = len(np.unique(sel_poly))
        cost_grouped = int(nv_pairs.sum()) + distinct * 2000
        cost_par = int(nv_pairs.max()) * len(sel_poly)
        if cost_par < cost_grouped:
            if all_single:
                return _pip_pairs_edge_parallel(
                    px, py, pair_point, pair_poly, verts, ring_offsets, poly_ring_offsets, dtype=dtype
                )
            out[single] = _pip_pairs_edge_parallel(
                px, py, pair_point[single], pair_poly[single], verts, ring_offsets,
                poly_ring_offsets, dtype=dtype,
            )
            multi = ~single
            if multi.any():
                out[multi] = pip_pairs(
                    px, py, pair_point[multi], pair_poly[multi], verts,
                    ring_offsets, poly_ring_offsets, dtype=dtype,
                )
            return out
    order = np.argsort(pair_poly, kind="stable")
    sp = pair_poly[order]
    spt = pair_point[order]
    bounds = np.flatnonzero(np.diff(sp)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(sp)]))
    for s, e in zip(starts, ends):
        pid = int(sp[s])
        pts = spt[s:e]
        r0, r1 = poly_ring_offsets[pid], poly_ring_offsets[pid + 1]
        inside = points_in_polygon(
            px[pts], py[pts], verts, ring_offsets[r0 : r1 + 1], dtype=dtype
        )
        out[order[s:e]] = inside
    return out
