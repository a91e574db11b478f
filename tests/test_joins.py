"""End-to-end join-pipeline tests against in-repo numpy oracles.

Mirrors the reference's own accuracy protocol (SURVEY.md §5): run raster at an
ε sweep and exact index/hybrid on the same inputs, compare per-polygon
aggregates; hybrid must equal index *exactly*; bounds must contain the exact
value.
"""

import numpy as np
import pyarrow as pa
import pytest

from rasterflow.geom.pip import points_in_polygon
from rasterflow.geom.projection import GROUND_RESOLUTION
from rasterflow.pipelines.joins import (
    aggregate_by_polygon,
    aggregate_with_bounds,
    spatial_join,
)
from rasterflow.sources.fixtures import geo_from_id, neigh_like_layer, pages_dataset
from rasterflow.stages.extract import extract_text
from rasterflow.stages.geocode import PreparePoints, prepare_points
from rasterflow.state.bundle import build_bundle

N = 4000


@pytest.fixture(scope="module")
def points_and_layer(ray_session):
    ds = pages_dataset(N, override_num_blocks=8)
    pts = prepare_points(ds, geocoder="url", dtype=np.float64)
    layer = neigh_like_layer(40, seed=42)
    tbl = pts.to_pandas()
    return pts, layer, tbl


def brute_counts(tbl, layer):
    counts = np.zeros(layer.npolys, dtype=np.int64)
    x = tbl["x"].to_numpy()
    y = tbl["y"].to_numpy()
    for p in range(layer.npolys):
        counts[p] = points_in_polygon(x, y, layer.verts, layer.rings_of(p)).sum()
    return counts


def to_dense(df, npolys, col="count"):
    out = np.zeros(npolys, dtype=np.float64)
    out[df["poly_id"].to_numpy()] = df[col].to_numpy()
    return out


def test_index_join_matches_brute(points_and_layer):
    pts, layer, tbl = points_and_layer
    oracle = brute_counts(tbl, layer)
    got = aggregate_by_polygon(pts, layer, how="index", accuracy_m=50.0).to_pandas()
    np.testing.assert_array_equal(to_dense(got, layer.npolys), oracle)


def test_hybrid_equals_index_exactly(points_and_layer):
    pts, layer, tbl = points_and_layer
    oracle = brute_counts(tbl, layer)
    for eps in (200.0, 50.0):
        got = aggregate_by_polygon(pts, layer, how="hybrid", accuracy_m=eps).to_pandas()
        np.testing.assert_array_equal(to_dense(got, layer.npolys), oracle)


def test_raster_error_bounded_and_improves(points_and_layer):
    pts, layer, tbl = points_and_layer
    exact = brute_counts(tbl, layer)
    errs = []
    for eps in (400.0, 100.0, 25.0):
        got = aggregate_by_polygon(pts, layer, how="raster", accuracy_m=eps).to_pandas()
        dense = to_dense(got, layer.npolys)
        errs.append(np.abs(dense - exact).sum())
    # error shrinks (weakly) as ε shrinks, and is small at the finest ε
    assert errs[2] <= errs[0]
    assert errs[2] <= max(4, 0.02 * exact.sum())


def test_raster_exact_when_cells_tiny(points_and_layer):
    # with cells much smaller than polygon features, raster ≈ exact
    pts, layer, tbl = points_and_layer
    exact = brute_counts(tbl, layer)
    got = aggregate_by_polygon(pts, layer, how="raster", accuracy_m=10.0).to_pandas()
    dense = to_dense(got, layer.npolys)
    assert np.abs(dense - exact).sum() <= max(2, 0.005 * exact.sum())


def test_avg_aggregation(points_and_layer, ray_session):
    pts, layer, tbl = points_and_layer
    # value column: derive deterministic ints from t
    def add_val(b: pa.Table) -> pa.Table:
        v = (b.column("t").to_numpy(zero_copy_only=False).astype(np.int64) % 1000).astype(np.float64)
        return b.append_column("val", pa.array(v))

    pts_v = pts.map_batches(add_val, batch_format="pyarrow")
    got = aggregate_by_polygon(pts_v, layer, how="index", value_col="val", agg="avg").to_pandas()
    # oracle
    x = tbl["x"].to_numpy(); y = tbl["y"].to_numpy()
    v = (tbl["t"].to_numpy().astype(np.int64) % 1000).astype(np.float64)
    for _, row in got.iterrows():
        p = int(row["poly_id"])
        m = points_in_polygon(x, y, layer.verts, layer.rings_of(p))
        assert row["count"] == m.sum()
        np.testing.assert_allclose(row["avg"], v[m].mean(), rtol=1e-12)


def test_join_rows_match_brute(points_and_layer):
    pts, layer, tbl = points_and_layer
    rows = spatial_join(pts, layer, how="index", id_col="url").to_pandas()
    got = set(zip(rows["url"], rows["poly_id"]))
    x = tbl["x"].to_numpy(); y = tbl["y"].to_numpy(); urls = tbl["url"].to_numpy()
    expect = set()
    for p in range(layer.npolys):
        m = points_in_polygon(x, y, layer.verts, layer.rings_of(p))
        expect.update((u, p) for u in urls[m])
    assert got == expect


def test_bounds_contain_exact(points_and_layer):
    pts, layer, tbl = points_and_layer
    exact = brute_counts(tbl, layer)
    out = aggregate_with_bounds(pts, layer, accuracy_m=300.0).to_pandas()
    dense_lb = np.zeros(layer.npolys); dense_ub = np.full(layer.npolys, np.inf)
    for _, r in out.iterrows():
        p = int(r["poly_id"])
        assert r["lb_guar"] <= exact[p] <= r["ub_guar"], (p, r.to_dict(), exact[p])
        assert r["lb_est"] <= r["agg"] <= r["ub_est"] or True  # estimates need not bound
        dense_lb[p] = r["lb_guar"]; dense_ub[p] = r["ub_guar"]
    # polygons absent from the output must be empty in the oracle too
    absent = np.setdiff1d(np.arange(layer.npolys), out["poly_id"].to_numpy())
    assert (exact[absent] == 0).all()


def test_extraction_byte_identity(ray_session):
    ds = pages_dataset(500, override_num_blocks=4)
    out = ds.map_batches(extract_text, batch_format="pyarrow").to_pandas()
    assert (out["text2"] == out["text"]).all()
    # deterministic across two differently-parallel runs
    ds2 = pages_dataset(500, override_num_blocks=1)
    out2 = ds2.map_batches(extract_text, batch_format="pyarrow").to_pandas().sort_values("url")
    o1 = out.sort_values("url")
    assert list(o1["text2"]) == list(out2["text2"])


def test_prepare_points_drops_outside_and_projects(ray_session):
    ds = pages_dataset(300, override_num_blocks=2)
    pts = prepare_points(ds, geocoder="text", dtype=np.float32).to_pandas()
    assert len(pts) == 300  # fixture keeps everything inside the bbox
    assert pts["x"].dtype == np.float32
    # text-geocode ≈ url-geocode (text has %.6f rounding)
    pts2 = prepare_points(pages_dataset(300, override_num_blocks=2), geocoder="url", dtype=np.float64).to_pandas()
    m = pts.sort_values("url").merge(pts2.sort_values("url"), on="url", suffixes=("_t", "_u"))
    # 1e-6 deg ≈ 0.11 m ≈ 3.7 world units
    assert (np.abs(m["x_t"] - m["x_u"]) < 8).all()
    assert (np.abs(m["y_t"] - m["y_u"]) < 8).all()


def test_geo_from_id_in_bbox():
    lat, lon = geo_from_id(np.arange(100000))
    assert (lat >= 24.396308).all() and (lat <= 49.384358).all()
    assert (lon >= -124.848974).all() and (lon <= -66.885444).all()


def test_holes_layer_through_joins(ray_session):
    import ray.data

    from rasterflow.sources.fixtures import holes_layer

    layer = holes_layer()  # 10x10 square with a 3..7 hole
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 11, 5000)
    y = rng.uniform(-1, 11, 5000)
    ds = ray.data.from_arrow(pa.table({"x": x, "y": y}))
    expect = int(points_in_polygon(x, y, layer.verts, layer.rings_of(0)).sum())
    # sanity: the hole actually excludes points
    in_hole = ((x > 3) & (x < 7) & (y > 3) & (y < 7)).sum()
    assert in_hole > 0
    for how in ("index", "hybrid"):
        out = aggregate_by_polygon(ds, layer, how=how, cell_size=0.2).to_pandas()
        assert dict(zip(out["poly_id"], out["count"])) == {0: expect}, how


def test_degenerate_polygons(ray_session):
    import ray.data

    from rasterflow.geom.polyio import PolygonLayer

    # collinear vertices + duplicated vertex + a sliver
    p1 = np.array([[0, 0], [1, 0], [2, 0], [2, 2], [2, 2], [0, 2]], dtype=float)
    sliver = np.array([[5, 5], [6, 5], [5.5, 5.0000001]], dtype=float)
    layer = PolygonLayer.from_rings("degen", [[p1], [sliver]])
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 7, 4000)
    y = rng.uniform(-1, 7, 4000)
    ds = ray.data.from_arrow(pa.table({"x": x, "y": y}))
    exp = {
        p: int(points_in_polygon(x, y, layer.verts, layer.rings_of(p)).sum())
        for p in range(2)
    }
    for how in ("index", "hybrid"):
        out = aggregate_by_polygon(ds, layer, how=how, cell_size=0.1).to_pandas()
        got = dict(zip(out["poly_id"], out["count"]))
        assert {p: got.get(p, 0) for p in range(2)} == exp, how


def test_many_small_polys_edge_parallel_path(ray_session):
    # >96 distinct polys per batch triggers the pair-parallel PIP kernel;
    # compare against brute force
    import ray.data

    from rasterflow.sources.fixtures import synthetic_layer

    layer = synthetic_layer(1024, project=True)
    ds = pages_dataset(3000, override_num_blocks=2)
    pts = prepare_points(ds, geocoder="url", dtype=np.float64)
    tbl = pts.to_pandas()
    got = aggregate_by_polygon(pts, layer, how="index", accuracy_m=300.0).to_pandas()
    x = tbl["x"].to_numpy(); y = tbl["y"].to_numpy()
    dense = np.zeros(layer.npolys)
    dense[got["poly_id"].to_numpy()] = got["count"].to_numpy()
    # verify the 40 densest + 20 random polys against brute PIP
    check = list(np.argsort(-dense)[:40]) + list(np.random.default_rng(0).integers(0, 1024, 20))
    for p in check:
        expect = points_in_polygon(x, y, layer.verts, layer.rings_of(int(p))).sum()
        assert dense[int(p)] == expect, p


def test_custom_strategy_registration(points_and_layer):
    """SURVEY §2.8: a new join technique plugs in by name (GLFunction analogue)."""
    from rasterflow.pipelines.joins import SpatialJoinAgg, register_strategy

    class BboxOnlyJoin(SpatialJoinAgg):
        """Counts candidate pairs without PIP refinement (an upper bound)."""

        def __init__(self, bundle, how="bbox", value_col=None, fixed_point=False, dtype=np.float64):
            super().__init__(bundle, how="index", value_col=value_col, fixed_point=fixed_point, dtype=dtype)

        def _match_pairs(self, x, y, lin):
            b = self.b
            idx, hit = b.locate_ucells(lin)
            return self._expand(b.ucand_indptr, b.ucand_vals, idx, hit)

    register_strategy("bbox", BboxOnlyJoin)
    pts, layer, tbl = points_and_layer
    upper = aggregate_by_polygon(pts, layer, how="bbox", accuracy_m=200.0).to_pandas()
    exact = aggregate_by_polygon(pts, layer, how="index", accuracy_m=200.0).to_pandas()
    u = to_dense(upper, layer.npolys)
    e = to_dense(exact, layer.npolys)
    assert (u >= e).all() and u.sum() > e.sum()


def test_f32_plane_matches_f64_closely(points_and_layer):
    """The reference-conformant float32 kernel plane (GRAFT_JOIN_DTYPE=f32)
    may flip only points within f32 epsilon of a polygon edge — on the
    random fixture the per-polygon counts must match f64 almost everywhere."""
    pts, layer, tbl = points_and_layer
    a = aggregate_by_polygon(pts, layer, how="hybrid", accuracy_m=50.0).to_pandas()
    b = aggregate_by_polygon(
        pts, layer, how="hybrid", accuracy_m=50.0, dtype=np.float32
    ).to_pandas()
    da = to_dense(a, layer.npolys)
    db = to_dense(b, layer.npolys)
    assert np.abs(da - db).sum() <= max(2, 0.001 * da.sum()), (da - db)


def test_joins_batch_invariant(ray_session, monkeypatch):
    """Hybrid counts, hybrid rows and zonal stats equal the index join at
    ``JOIN_BATCH_ROWS``, at 4,096 rows and at one batch per block, on 16
    read blocks of 2,500 rows: a batch of 4,096 rows spans two blocks and
    one of ``JOIN_BATCH_ROWS`` spans all of them."""
    import ray.data

    from rasterflow.geom.projection import project_points
    from rasterflow.pipelines import joins, zonal
    from rasterflow.pipelines.joins import JOIN_BATCH_ROWS, SpatialJoinAgg, SpatialJoinRows
    from rasterflow.pipelines.zonal import SpatialZonalStats, zonal_stats

    ids = np.arange(40_000, dtype=np.int64)
    lat, lon = geo_from_id(ids)
    x, y, _ = project_points(lat, lon)
    t = pa.table({"id": ids, "x": x, "y": y, "v": (ids % 97).astype(np.float64)})
    pts = ray.data.from_arrow([t.slice(k * 2500, 2500) for k in range(16)]).materialize()
    assert pts.num_blocks() == 16
    bundle = build_bundle(neigh_like_layer(40, seed=42), accuracy_m=200.0)

    counts = SpatialJoinAgg(bundle, how="index")(t).to_pandas()
    rows = SpatialJoinRows(bundle, how="index", id_col="id")(t).to_pandas()
    stats = SpatialZonalStats(bundle, how="index", value_col="v")(t).to_pandas()
    pairs = sorted(zip(rows["id"], rows["poly_id"]))
    assert len(counts) > 10 and len(pairs) > 1000

    for batch in (JOIN_BATCH_ROWS, 4096, None):
        monkeypatch.setattr(joins, "JOIN_BATCH_ROWS", batch)
        monkeypatch.setattr(zonal, "JOIN_BATCH_ROWS", batch)
        got = aggregate_by_polygon(pts, bundle, how="hybrid", batch_size=batch).to_pandas()
        np.testing.assert_array_equal(got["poly_id"], counts["poly_id"])
        np.testing.assert_array_equal(got["count"], counts["count"])
        got = spatial_join(pts, bundle, how="hybrid", id_col="id").to_pandas()
        assert sorted(zip(got["id"], got["poly_id"])) == pairs, batch
        got = zonal_stats(pts, bundle, value_col="v", how="hybrid").to_pandas()
        for c in ("poly_id", "count", "sum", "min", "max"):
            np.testing.assert_array_equal(got[c], stats[c], err_msg=f"{c} at batch {batch}")
