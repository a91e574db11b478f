"""Property-based tests (hypothesis) for the geometry kernels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rasterflow.geom import cells as C
from rasterflow.geom.pip import points_in_polygon, points_in_ring
from rasterflow.geom.polyio import PolygonLayer, rect_layer


@settings(max_examples=200, deadline=None)
@given(
    cx=st.floats(-1000, 1000),
    cy=st.floats(-1000, 1000),
    r=st.floats(0.1, 100),
    nv=st.integers(3, 40),
    seed=st.integers(0, 2**31),
)
def test_convex_polygon_center_inside_far_outside(cx, cy, r, nv, seed):
    rng = np.random.default_rng(seed)
    # evenly spaced angles + bounded jitter: every angular gap < pi, so the
    # circle center is guaranteed inside
    ang = (np.arange(nv) + rng.uniform(0, 0.4, nv)) * (2 * np.pi / nv)
    ring = np.stack([cx + np.cos(ang) * r, cy + np.sin(ang) * r], axis=1)
    layer = PolygonLayer.from_rings("p", [[ring]])
    # centroid of a convex polygon is inside
    inside = points_in_polygon(np.array([cx]), np.array([cy]), layer.verts, layer.rings_of(0))
    assert inside[0]
    # far outside point is outside
    out = points_in_polygon(np.array([cx + 10 * r]), np.array([cy]), layer.verts, layer.rings_of(0))
    assert not out[0]


@settings(max_examples=100, deadline=None)
@given(
    px=st.floats(-5, 5),
    py=st.floats(-5, 5),
)
def test_shared_edge_exclusive_property(px, py):
    # two squares sharing edge x=0: any point is in at most one
    layer = rect_layer("pair", np.array([[-2, -2, 0, 2], [0, -2, 2, 2]]))
    a = points_in_polygon(np.array([px]), np.array([py]), layer.verts, layer.rings_of(0))
    b = points_in_polygon(np.array([px]), np.array([py]), layer.verts, layer.rings_of(1))
    assert int(a[0]) + int(b[0]) <= 1


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-5e8, 5e8),
    y=st.floats(-5e8, 5e8),
    res=st.integers(1, 29),
    dres=st.integers(0, 10),
)
def test_cell_parent_consistency(x, y, res, dres):
    pres = max(0, res - dres)
    fine = C.encode_cells(np.array([x]), np.array([y]), res)
    par = C.parent_cells(fine, pres)
    direct = C.encode_cells(np.array([x]), np.array([y]), pres)
    assert par[0] == direct[0]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), nv=st.integers(3, 25))
def test_ring_orientation_invariance(seed, nv):
    # even-odd PIP result must not depend on ring orientation (CW vs CCW)
    rng = np.random.default_rng(seed)
    ang = np.sort(rng.uniform(0, 2 * np.pi, nv))
    rad = rng.uniform(0.5, 1.0, nv)
    ring = np.stack([np.cos(ang) * rad, np.sin(ang) * rad], axis=1)
    px = rng.uniform(-1.2, 1.2, 200)
    py = rng.uniform(-1.2, 1.2, 200)
    fwd = points_in_ring(px, py, ring)
    rev = points_in_ring(px, py, ring[::-1].copy())
    np.testing.assert_array_equal(fwd, rev)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_interval_join_matching_kernel_property(seed):
    """The rank-composite searchsorted inside interval_join must agree with
    per-point brute force for arbitrary non-overlapping interval layouts —
    exercised here through the same pandas-level merge path the partition
    tasks run (no Ray session needed)."""
    import numpy as np
    import pandas as pd

    rng = np.random.default_rng(seed)
    ivs = []
    for k in range(rng.integers(1, 6)):
        t = int(rng.integers(-50, 0))
        for _ in range(rng.integers(0, 6)):
            start = t + int(rng.integers(1, 10))
            end = start + int(rng.integers(0, 8))
            ivs.append((k, start, end))
            t = end
    if not ivs:
        ivs = [(0, 0, 0)]
    iv = pd.DataFrame(ivs, columns=["k", "start", "end"])
    pt = pd.DataFrame(
        {
            "k": rng.integers(0, 7, 60),
            "t": rng.integers(-60, 60, 60),
            "pid": np.arange(60),
        }
    )
    # replicate the merge kernel: factorize keys, rank-compress, searchsorted
    kcodes, _ = pd.factorize(np.concatenate([iv["k"].to_numpy(), pt["k"].to_numpy()]))
    ik, pk_ = kcodes[: len(iv)].astype(np.int64), kcodes[len(iv):].astype(np.int64)
    st_, en, ts = iv["start"].to_numpy(), iv["end"].to_numpy(), pt["t"].to_numpy()
    uniq = np.unique(np.concatenate([st_, ts]))
    sr = np.searchsorted(uniq, st_).astype(np.int64)
    tr = np.searchsorted(uniq, ts).astype(np.int64)
    m = np.int64(2 * len(uniq) + 2)
    enc_iv = ik * m + sr * 2
    enc_pt = pk_ * m + tr * 2 + 1
    io = np.argsort(enc_iv, kind="stable")
    cand = np.searchsorted(enc_iv[io], enc_pt, side="right") - 1
    ok = cand >= 0
    ci = io[np.maximum(cand, 0)]
    ok &= (ik[ci] == pk_) & (ts <= en[ci])
    got = {
        (int(pt["pid"].iloc[i]), int(st_[ci[i]]))
        for i in range(len(pt))
        if ok[i]
    }
    exp = set()
    for i in range(len(pt)):
        mrow = iv[(iv["k"] == pt["k"].iloc[i]) & (iv["start"] <= pt["t"].iloc[i]) & (pt["t"].iloc[i] <= iv["end"])]
        assert len(mrow) <= 1
        if len(mrow):
            exp.add((int(pt["pid"].iloc[i]), int(mrow["start"].iloc[0])))
    assert got == exp


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(5, 40))
def test_misra_gries_partial_guarantee_property(seed, k):
    """Per-batch MG compression invariant: for every token,
    est <= true <= est + n/(k+1) (the per-batch half of the merged n/k
    bound), for arbitrary count distributions."""
    import numpy as np

    rng = np.random.default_rng(seed)
    nvals = int(rng.integers(1, 120))
    cnt = rng.integers(1, 50, nvals).astype(np.int64)
    n = int(cnt.sum())
    tok = np.array([f"t{j}" for j in range(nvals)])
    # the kernel from sketch.heavy_hitters_sketch's partial
    if len(cnt) > k:
        order = np.argsort(-cnt, kind="stable")[: k + 1]
        dec = cnt[order[-1]]
        keep = order[:k]
        ktok, kcnt = tok[keep], cnt[keep] - dec
        m = kcnt > 0
        ktok, kcnt = ktok[m], kcnt[m]
    else:
        ktok, kcnt = tok, cnt
    est = dict(zip(ktok, kcnt))
    true = dict(zip(tok, cnt))
    for t_, c in true.items():
        e = est.get(t_, 0)
        assert e <= c <= e + n // (k + 1) + 1


def _star(rng, cx, cy, rmin, rmax, nv):
    ang = np.sort(rng.uniform(0, 2 * np.pi, nv))
    rad = rng.uniform(rmin, rmax, nv)
    return np.stack([cx + np.cos(ang) * rad, cy + np.sin(ang) * rad], axis=1)


def _sorted_pairs(pts, pl):
    o = np.lexsort((pl, pts))
    return np.asarray(pts)[o], np.asarray(pl)[o]


def _check_hybrid_edge_lists(layer, grid, px, py, dtype, match_index=True):
    """Hybrid ``_match_pairs`` (edge lists on the border) equals the index
    join pair for pair, and ``pip_edge_lists`` equals ``pip_pairs`` on every
    border candidate pair, with points located as the join stage does."""
    from rasterflow.geom.pip import pip_edge_lists, pip_pairs
    from rasterflow.pipelines.joins import SpatialJoinAgg
    from rasterflow.state.bundle import PolygonBundle

    b = PolygonBundle(layer, grid)
    x = np.asarray(px, dtype)
    y = np.asarray(py, dtype)
    lin, valid = grid.locate_linear(x, y)
    x, y, lin = x[valid], y[valid], lin[valid]
    if match_index:
        hyb = SpatialJoinAgg(b, how="hybrid", dtype=dtype)._match_pairs(x, y, lin)
        idx_ = SpatialJoinAgg(b, how="index", dtype=dtype)._match_pairs(x, y, lin)
        for a, c in zip(_sorted_pairs(*hyb), _sorted_pairs(*idx_)):
            np.testing.assert_array_equal(a, c)

    idx, hit = b.locate_ucells(lin)
    border = np.flatnonzero(hit & b.uborder[idx])
    pts, slot = SpatialJoinAgg._expand_idx(b.ucand_indptr, len(b.ucand_vals), idx[border], hit[border])
    pip_dtype = None if dtype == np.float64 else dtype
    want = pip_pairs(
        x[border], y[border], pts, b.ucand_vals[slot], b.verts, b.ring_offsets, b.poly_ring_offsets, dtype=pip_dtype
    )
    got = pip_edge_lists(
        x[border], y[border], pts, b.uedge_start[slot], b.uedge_stop[slot], b.uedge_ids, b.edge_table(dtype)
    )
    np.testing.assert_array_equal(got, want)
    return len(pts)


def _star_layer_and_points(seed, cell, offset=0.0):
    """1-4 random star polygons, half with a hole, plus points on and near
    their vertices, on their edges, cell lines and cell corners, and random
    points."""
    from rasterflow.geom.cells import Grid

    rng = np.random.default_rng(seed)
    polys, verts = [], []
    for _ in range(int(rng.integers(1, 5))):
        cx, cy = rng.uniform(10, 40, 2) + offset
        r = rng.uniform(3, 12)
        # vertices snapped to half cells: some lie on grid lines, and equal
        # snapped y values make horizontal edges
        outer = np.round(_star(rng, cx, cy, 0.4 * r, r, int(rng.integers(3, 30))) * 2 / cell) * cell / 2
        rings = [outer]
        if rng.random() < 0.5:
            rings.append(_star(rng, cx, cy, 0.05 * r, 0.3 * r, int(rng.integers(3, 12))))
        polys.append(rings)
        verts.extend(rings)
    layer = PolygonLayer.from_rings("stars", polys)
    xmin, ymin, xmax, ymax = layer.bounds
    grid = Grid.from_bounds(xmin, ymin, xmax, ymax, cell)
    v = np.concatenate(verts)
    nxt = np.concatenate([np.roll(r, -1, axis=0) for r in verts])
    on_edges = v + (nxt - v) * rng.uniform(0, 1, (len(v), 1))
    gx = grid.x0 + rng.integers(0, grid.nx + 1, 200) * cell
    gy = grid.y0 + rng.integers(0, grid.ny + 1, 200) * cell
    pts = np.concatenate(
        [
            rng.uniform((xmin, ymin), (xmax, ymax), (1000, 2)),
            v,  # on vertices
            np.repeat(v, 8, axis=0) + rng.uniform(-2 * cell, 2 * cell, (8 * len(v), 2)),  # near vertices
            on_edges,  # on (horizontal and sloped) edges
            (v + nxt) / 2,
            np.stack([gx, rng.uniform(ymin, ymax, 200)], axis=1),  # on cell columns
            np.stack([rng.uniform(xmin, xmax, 200), gy], axis=1),  # on cell rows
            np.stack([gx, gy], axis=1),  # on cell corners
            np.stack([rng.uniform(xmin, xmax, 200), rng.choice(v[:, 1], 200)], axis=1),  # on vertex rows
        ]
    )
    return layer, grid, pts[:, 0], pts[:, 1]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.float64, np.float32]),
    cell=st.sampled_from([0.5, 1.0, 2.5, 3.7]),
)
def test_hybrid_edge_lists_match_index(seed, dtype, cell):
    _check_hybrid_edge_lists(*_star_layer_and_points(seed, cell), dtype)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_edge_lists_f32_far_from_origin(seed):
    """Cells finer than float32 spacing at the coordinates: the edge lists'
    rounding allowance must still keep every edge the f32 plane can cross.
    (Hybrid and index may differ here — the interior fast path is exact only
    in f64 — so only the kernels are compared.)"""
    layer, grid, px, py = _star_layer_and_points(seed, 0.05, offset=2.0e6)
    _check_hybrid_edge_lists(layer, grid, px, py, np.float32, match_index=False)


@settings(max_examples=40, deadline=None)
@given(
    t=st.lists(st.floats(0, 1), min_size=1, max_size=40),
    dtype=st.sampled_from([np.float64, np.float32]),
    cell=st.sampled_from([0.01, 0.02, 0.05, 0.1 / 3, 0.3]),
)
def test_hybrid_edge_lists_tiny2_shared_border(t, dtype, cell):
    """The reference's two squares share the corner (5.1, 5.1); points on
    their sides, corners and the interior points of the hand-checked case."""
    from rasterflow.geom.cells import Grid
    from rasterflow.sources.fixtures import tiny2_layer

    layer = tiny2_layer()
    grid = Grid.from_bounds(*layer.bounds, cell)
    t = np.asarray(t)
    sides = [
        (5.1 + 0.1 * t, np.full_like(t, 5.1)),  # A bottom
        (np.full_like(t, 5.1), 5.1 + 0.1 * t),  # A left
        (4.9 + 0.2 * t, np.full_like(t, 5.1)),  # B top
        (np.full_like(t, 5.1), 4.9 + 0.2 * t),  # B right
        (5.1 + 0.1 * t, np.full_like(t, 5.2)),  # A top
        (np.full_like(t, 4.9), 4.9 + 0.2 * t),  # B left
    ]
    fixed = np.array([[5.15, 5.15], [5.0, 5.0], [5.1, 5.1], [5.2, 5.2], [4.9, 4.9], [5.1, 4.9], [5.2, 5.1]])
    px = np.concatenate([s[0] for s in sides] + [fixed[:, 0]])
    py = np.concatenate([s[1] for s in sides] + [fixed[:, 1]])
    _check_hybrid_edge_lists(layer, grid, px, py, dtype)
