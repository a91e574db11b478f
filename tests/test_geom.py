"""Unit tests for the pure-numpy geometry core (no Ray needed)."""

import numpy as np
import pytest

from rasterflow.geom import cells as C
from rasterflow.geom import pip as P
from rasterflow.geom import projection as PR
from rasterflow.geom import rasterize as R
from rasterflow.geom.polyio import PolygonLayer, read_polygons_text, rect_layer, write_polygons_text
from rasterflow.state.bundle import CsrLookup, PolygonBundle, _pairs_to_csr


def test_projection_roundtrip():
    rng = np.random.default_rng(7)
    lat = PR.MIN_LAT + (PR.MAX_LAT - PR.MIN_LAT) * rng.random(1000)
    lon = PR.MIN_LON + (PR.MAX_LON - PR.MIN_LON) * rng.random(1000)
    x, y, ok = PR.project_points(lat, lon)
    assert ok.all()
    lat2, lon2 = PR.unproject_points(x, y)
    np.testing.assert_allclose(lat2, lat, atol=1e-9)
    np.testing.assert_allclose(lon2, lon, atol=1e-9)


def test_projection_drops_outside_bbox():
    lat = np.array([0.0, 30.0, 89.0, PR.MIN_LAT, PR.MAX_LAT])
    lon = np.array([-100.0, -100.0, -100.0, PR.MIN_LON, PR.MAX_LON])
    _, _, ok = PR.project_points(lat, lon)
    assert list(ok) == [False, True, False, True, True]


def test_projection_y_axis_inverted():
    # north (larger lat) must map to smaller y (Utils.h:9-18)
    _, y_north = PR.geo2world(np.array([45.0]), np.array([-100.0]))
    _, y_south = PR.geo2world(np.array([30.0]), np.array([-100.0]))
    assert y_north[0] < y_south[0]


def test_ground_resolution_value():
    # cos(36.890333°) * 6378137 * 2π / 2^30  ≈ 0.0298 m per world unit
    assert abs(PR.GROUND_RESOLUTION - 0.02984) < 1e-4
    # ε=100 m → cell size in world units
    assert abs(PR.accuracy_to_cell_size(100.0) - (100 / np.sqrt(2)) / PR.GROUND_RESOLUTION) < 1e-9


def test_cell_codec_roundtrip():
    rng = np.random.default_rng(3)
    for res in (5, 12, 20, 29):
        x = rng.uniform(-1e8, 1e8, 100)
        y = rng.uniform(-1e8, 1e8, 100)
        ids = C.encode_cells(x, y, res)
        r, ix, iy = C.decode_cells(ids)
        assert (r == res).all()
        x0, y0, x1, y1 = C.cell_bounds(ids)
        # the point lies inside its cell (when inside the world square)
        xu = np.clip(x + PR.WORLD_CENTER_X, 0, PR.WORLD_SIZE - 1e-6) - PR.WORLD_CENTER_X
        yu = np.clip(y + PR.WORLD_CENTER_Y, 0, PR.WORLD_SIZE - 1e-6) - PR.WORLD_CENTER_Y
        assert ((xu >= x0) & (xu < x1 + 1e-6) & (yu >= y0) & (yu < y1 + 1e-6)).all()


def test_cell_parent_is_prefix():
    x = np.array([12345.6, -99999.9])
    y = np.array([-54321.0, 77777.7])
    fine = C.encode_cells(x, y, 20)
    for pres in (19, 15, 8):
        par = C.parent_cells(fine, pres)
        direct = C.encode_cells(x, y, pres)
        np.testing.assert_array_equal(par, direct)


def test_cell_children_cover_parent():
    pid = int(C.encode_cells(np.array([0.0]), np.array([0.0]), 10)[0])
    kids = C.children_cells(pid)
    assert len(kids) == 4
    pars = C.parent_cells(kids, 10)
    assert (pars == pid).all()


# ---- the reference's hand-checkable 5-point / 2-square case
# (RasterJoin/test/baseline.hpp:139-217): square A=[5.1,5.2]^2, B=[4.9,5.1]^2,
# 2 points at (5.15,5.15) (in A), 3 points at (5,5) (in B).
def tiny2_layer() -> PolygonLayer:
    return rect_layer("tiny2", np.array([[5.1, 5.1, 5.2, 5.2], [4.9, 4.9, 5.1, 5.1]]))


def test_pip_tiny2():
    layer = tiny2_layer()
    px = np.array([5.15, 5.15, 5.0, 5.0, 5.0])
    py = np.array([5.15, 5.15, 5.0, 5.0, 5.0])
    in_a = P.points_in_polygon(px, py, layer.verts, layer.rings_of(0))
    in_b = P.points_in_polygon(px, py, layer.verts, layer.rings_of(1))
    assert in_a.sum() == 2 and in_b.sum() == 3
    # shared corner is assigned to at most one polygon (half-open rule)
    corner = P.points_in_polygon(
        np.array([5.1]), np.array([5.1]), layer.verts, layer.rings_of(0)
    ) | P.points_in_polygon(np.array([5.1]), np.array([5.1]), layer.verts, layer.rings_of(1))
    both = P.points_in_polygon(
        np.array([5.1]), np.array([5.1]), layer.verts, layer.rings_of(0)
    ) & P.points_in_polygon(np.array([5.1]), np.array([5.1]), layer.verts, layer.rings_of(1))
    assert not both[0]
    assert corner[0] in (True, False)


def test_pip_shared_edge_exclusive():
    # two squares sharing edge x=1: a point on the edge is in at most one
    layer = rect_layer("pair", np.array([[0, 0, 1, 1], [1, 0, 2, 1]]))
    px, py = np.array([1.0]), np.array([0.5])
    a = P.points_in_polygon(px, py, layer.verts, layer.rings_of(0))
    b = P.points_in_polygon(px, py, layer.verts, layer.rings_of(1))
    assert int(a[0]) + int(b[0]) <= 1


def test_pip_hole():
    outer = np.array([[0, 0], [4, 0], [4, 4], [0, 4]], dtype=float)
    inner = np.array([[1, 1], [3, 1], [3, 3], [1, 3]], dtype=float)
    layer = PolygonLayer.from_rings("hole", [[outer, inner]])
    px = np.array([0.5, 2.0, 3.5])
    py = np.array([0.5, 2.0, 3.5])
    inside = P.points_in_polygon(px, py, layer.verts, layer.rings_of(0))
    assert list(inside) == [True, False, True]


def test_pip_matches_brute_random():
    rng = np.random.default_rng(11)
    # random star polygon
    n = 17
    ang = np.sort(rng.uniform(0, 2 * np.pi, n))
    rad = rng.uniform(0.5, 1.0, n)
    ring = np.stack([np.cos(ang) * rad, np.sin(ang) * rad], axis=1)
    layer = PolygonLayer.from_rings("star", [[ring]])
    px = rng.uniform(-1.2, 1.2, 5000)
    py = rng.uniform(-1.2, 1.2, 5000)
    fast = P.points_in_polygon(px, py, layer.verts, layer.rings_of(0))

    def brute(tx, ty):
        c = False
        j = n - 1
        for i in range(n):
            if ((ring[i, 1] > ty) != (ring[j, 1] > ty)) and (
                tx < (ring[j, 0] - ring[i, 0]) * (ty - ring[i, 1]) / (ring[j, 1] - ring[i, 1]) + ring[i, 0]
            ):
                c = not c
            j = i
        return c

    idx = rng.choice(len(px), 300, replace=False)
    for i in idx:
        assert fast[i] == brute(px[i], py[i])


def test_segment_cells_diagonal_and_axis():
    g = C.Grid(0.0, 0.0, 1.0, 4, 4)
    d = R.segment_cells(0.5, 0.5, 2.5, 2.5, g)
    assert set(d) == {0, 5, 10}
    h = R.segment_cells(0.2, 1.5, 3.8, 1.5, g)
    assert set(h) == {4, 5, 6, 7}
    # off-grid clipped
    off = R.segment_cells(-5.0, -5.0, -1.0, -1.0, g)
    assert len(off) == 0


def test_classify_square():
    g = C.Grid(0.0, 0.0, 1.0, 3, 3)
    layer = rect_layer("sq", np.array([[0.6, 0.6, 2.4, 2.4]]))
    outline, cover, full = R.classify_polygon_cells(layer.verts, layer.rings_of(0), g)
    assert set(outline) == {0, 1, 2, 3, 5, 6, 7, 8}
    assert set(cover) == {4}
    assert set(full) == {4}


def test_dilate():
    g = C.Grid(0.0, 0.0, 1.0, 4, 4)
    out = R.dilate_cells(np.array([5]), g, 1)  # (1,1)
    assert set(out) == {0, 1, 2, 4, 5, 6, 8, 9, 10}
    corner = R.dilate_cells(np.array([0]), g, 1)
    assert set(corner) == {0, 1, 4, 5}


def test_area_fraction():
    g = C.Grid(0.0, 0.0, 1.0, 2, 2)
    layer = rect_layer("half", np.array([[0.0, 0.0, 1.0, 0.5]]))  # bottom half of cell 0
    frac = R.area_fraction_inside(layer.verts, layer.rings_of(0), g, np.array([0]), subsamples=10)
    assert abs(frac[0] - 0.5) < 0.06


def test_csr_lookup_expand():
    cells = np.array([3, 1, 3, 7], dtype=np.int64)
    polys = np.array([0, 1, 2, 1], dtype=np.int32)
    look = CsrLookup(*_pairs_to_csr(cells, polys))
    pts, pl = look.expand(np.array([1, 2, 3, 7, 3], dtype=np.int64))
    got = sorted(zip(pts.tolist(), pl.tolist()))
    assert got == [(0, 1), (2, 0), (2, 2), (3, 1), (4, 0), (4, 2)]


def test_bundle_tiny2():
    layer = tiny2_layer()
    g = C.Grid(4.9, 4.9, 0.05, 6, 6)
    b = PolygonBundle(layer, g)
    # points: 2 in A, 3 in B
    px = np.array([5.15, 5.15, 5.0, 5.0, 5.0])
    py = np.array([5.15, 5.15, 5.0, 5.0, 5.0])
    lin, valid = g.locate_linear(px, py)
    assert valid.all()
    pts, pl = b.expand(lin, "cand")
    mask = P.pip_pairs(px, py, pts, pl, b.verts, b.ring_offsets, b.poly_ring_offsets)
    counts = np.bincount(pl[mask], minlength=2)
    assert list(counts) == [2, 3]


def test_bundle_disk_cache_keeps_edge_lists(tmp_path, monkeypatch):
    """A bundle round-tripped through the disk cache carries its border edge
    lists and gives the same hybrid join."""
    import pyarrow as pa

    from rasterflow.pipelines.joins import SpatialJoinAgg
    from rasterflow.sources.fixtures import neigh_like_layer
    from rasterflow.state import bundle as B

    monkeypatch.setenv("RASTERFLOW_CACHE_DIR", str(tmp_path / "cache"))
    layer = neigh_like_layer(30, seed=4, nv_range=(20, 60))
    xmin, ymin, xmax, ymax = layer.bounds
    b = PolygonBundle(layer, C.Grid.from_bounds(xmin, ymin, xmax, ymax, max(xmax - xmin, ymax - ymin) / 200))
    assert len(b.uedge_ids) and b.uedge_ids.dtype == np.int32
    assert len(b.uedge_start) == len(b.uedge_stop) == len(b.ucand_vals)
    key = ("edge-lists", "layer", 0)
    B._save_disk_cache(key, b)
    assert B._cache_path(key).split("/")[-1].startswith("bundle_v5_")
    loaded = B._load_disk_cache(key)
    assert loaded is not None
    np.testing.assert_array_equal(loaded.uedge_start, b.uedge_start)
    np.testing.assert_array_equal(loaded.uedge_stop, b.uedge_stop)
    np.testing.assert_array_equal(loaded.uedge_ids, b.uedge_ids)
    rng = np.random.default_rng(4)
    pts = pa.table({"x": rng.uniform(xmin, xmax, 50_000), "y": rng.uniform(ymin, ymax, 50_000)})
    want = SpatialJoinAgg(b, how="hybrid")(pts)
    assert want.num_rows
    assert SpatialJoinAgg(loaded, how="hybrid")(pts).equals(want)
    assert SpatialJoinAgg(b, how="index")(pts).equals(want)


def test_polygon_text_roundtrip(tmp_path):
    layer = tiny2_layer()
    path = tmp_path / "polys.txt"
    write_polygons_text(layer, path)
    back = read_polygons_text(path, name="tiny2")
    assert back.npolys == 2
    np.testing.assert_allclose(back.verts, layer.verts)


def test_polygon_text_dedupes_closing_vertex(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("1\n1\n5\n0 0\n1 0\n1 1\n0 1\n0 0\n")
    layer = read_polygons_text(path)
    assert layer.npolys == 1
    assert layer.ring_offsets[1] - layer.ring_offsets[0] == 4  # closing vertex dropped


def test_projected_polygon_dropped_outside_bbox(tmp_path):
    path = tmp_path / "p.txt"
    # polygon 1 inside the US bbox (lat lon pairs), polygon 2 outside
    path.write_text(
        "2\n1\n3\n30 -100\n31 -100\n31 -99\n1\n3\n0 0\n1 0\n1 1\n"
    )
    layer = read_polygons_text(path, project=True)
    assert layer.npolys == 1
