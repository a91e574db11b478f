"""Conformance-plane tests: fixed-point AVG, float32 PIP, coarse time
buckets, the reference's accuracy protocol and CSV output formats."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from rasterflow.geom.pip import points_in_polygon
from rasterflow.pipelines.joins import aggregate_by_polygon
from rasterflow.sources.csvout import read_agg_csv, write_agg_csv, write_bounds_csv
from rasterflow.sources.fixtures import neigh_like_layer, pages_dataset, tiny2_layer
from rasterflow.stages.filters import apply_constraints, time_range_filter
from rasterflow.stages.geocode import prepare_points


@pytest.fixture(scope="module")
def small_pts(ray_session):
    ds = pages_dataset(2000, override_num_blocks=4)
    pts = prepare_points(ds, geocoder="url", dtype=np.float64)
    return pts, pts.to_pandas()


def test_fixed_point_avg_matches_reference_encoding(small_pts, ray_session):
    pts, tbl = small_pts
    layer = neigh_like_layer(20, seed=9)

    def add_val(b: pa.Table) -> pa.Table:
        v = (b.column("t").to_numpy(zero_copy_only=False).astype(np.int64) % 5000).astype(np.float64) / 7.0
        return b.append_column("val", pa.array(v))

    pts_v = pts.map_batches(add_val, batch_format="pyarrow")
    got = aggregate_by_polygon(
        pts_v, layer, how="index", value_col="val", agg="avg", fixed_point=True
    ).to_pandas()
    # oracle: reference encode/decode (main.cpp:204-220): per point
    # hi=trunc(v)//100, lo=trunc((v-100*hi)*10); avg=(Σhi*100+Σlo/10)/n
    x = tbl["x"].to_numpy(); y = tbl["y"].to_numpy()
    v = (tbl["t"].to_numpy().astype(np.int64) % 5000).astype(np.float64) / 7.0
    for _, row in got.iterrows():
        p = int(row["poly_id"])
        m = points_in_polygon(x, y, layer.verts, layer.rings_of(p))
        hi = np.trunc(v[m]).astype(np.int64) // 100
        lo = ((v[m] - 100.0 * hi) * 10.0).astype(np.int64)
        expect = (hi.sum() * 100.0 + lo.sum() / 10.0) / m.sum()
        np.testing.assert_allclose(row["avg"], expect, rtol=1e-12)
        # and the quantization truncates to ~0.1 precision: close to true avg
        assert abs(row["avg"] - v[m].mean()) <= 0.1 + 1e-9


def test_float32_conformance_pip_plane():
    # the PIP kernel must run in float32 when asked (reference GPU math)
    rng = np.random.default_rng(2)
    ring = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=np.float32)
    from rasterflow.geom.polyio import PolygonLayer

    layer = PolygonLayer.from_rings("sq", [[ring]])
    px = rng.random(1000).astype(np.float32) * 1.2
    py = rng.random(1000).astype(np.float32) * 1.2
    got32 = points_in_polygon(px, py, layer.verts, layer.rings_of(0), dtype=np.float32)
    got64 = points_in_polygon(px, py, layer.verts, layer.rings_of(0))
    # the planes agree away from boundaries
    interior = (np.abs(px - 0.5) < 0.45) & (np.abs(py - 0.5) < 0.45)
    np.testing.assert_array_equal(got32[interior], got64[interior])


def test_coarse_time_bucket_selection(ray_session):
    import ray.data

    BUCKET = 864000  # the reference's 10-day buckets (BackendIndex/main.cpp:64-65)
    t = np.arange(0, 5 * BUCKET, BUCKET // 10, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"t": t, "i": np.arange(len(t))}))
    # exact selection
    exact = time_range_filter(ds, "t", BUCKET + 5, 2 * BUCKET + 5).to_pandas()
    assert exact["t"].min() >= BUCKET + 5 and exact["t"].max() < 2 * BUCKET + 5
    # coarse selection widens to bucket boundaries (SURVEY §2.7.1)
    coarse = time_range_filter(ds, "t", BUCKET + 5, 2 * BUCKET + 5, coarse_bucket=BUCKET).to_pandas()
    assert coarse["t"].min() == BUCKET and coarse["t"].max() == 3 * BUCKET - BUCKET // 10
    assert len(coarse) > len(exact)


def test_tiny2_end_to_end(ray_session):
    # the reference's hand-checkable 5-point/2-square case through the full
    # Ray pipeline (baseline.hpp:139-217): 2 points in A, 3 in B
    import ray.data

    layer = tiny2_layer()
    pts = pa.table(
        {
            "url": [f"p{i}" for i in range(5)],
            "x": pa.array([5.15, 5.15, 5.0, 5.0, 5.0], type=pa.float64()),
            "y": pa.array([5.15, 5.15, 5.0, 5.0, 5.0], type=pa.float64()),
        }
    )
    ds = ray.data.from_arrow(pts)
    for how in ("index", "hybrid"):
        out = aggregate_by_polygon(ds, layer, how=how, cell_size=0.01).to_pandas()
        dense = dict(zip(out["poly_id"], out["count"]))
        assert dense == {0: 2, 1: 3}, (how, dense)


def test_accuracy_protocol_csv_sweep(small_pts, tmp_path, ray_session):
    """Reproduce the reference's accuracy experiment artifact layout:
    raster_<t>_<eps>.csv for eps sweep + _0 exact file; errors shrink."""
    pts, tbl = small_pts
    layer = neigh_like_layer(20, seed=9)
    end_time = 1341128000
    exact = aggregate_by_polygon(pts, layer, how="index").to_pandas()
    write_agg_csv(exact, tmp_path, layer.npolys, end_time, 0)
    errs = {}
    for eps in (400, 100):
        got = aggregate_by_polygon(pts, layer, how="raster", accuracy_m=float(eps)).to_pandas()
        write_agg_csv(got, tmp_path, layer.npolys, end_time, eps)
        a = read_agg_csv(tmp_path / f"raster_{end_time}_{eps}.csv")
        b = read_agg_csv(tmp_path / f"raster_{end_time}_0.csv")
        errs[eps] = np.abs(a["value"].to_numpy() - b["value"].to_numpy()).sum()
    assert errs[100] <= errs[400]
    # file format: polyId \t value, one line per polygon incl zeros
    lines = (tmp_path / f"raster_{end_time}_0.csv").read_text().splitlines()
    assert len(lines) == layer.npolys
    assert all("\t" in ln for ln in lines)


def test_bounds_csv_format(small_pts, tmp_path):
    from rasterflow.pipelines.joins import aggregate_with_bounds

    pts, _ = small_pts
    layer = neigh_like_layer(10, seed=3)
    out = aggregate_with_bounds(pts, layer, accuracy_m=400.0).to_pandas()
    p = write_bounds_csv(out, tmp_path, layer.npolys, 123, 400)
    lines = p.read_text().splitlines()
    assert len(lines) == layer.npolys
    assert all(len(ln.split("\t")) == 5 for ln in lines)


def test_constraint_filter_matches_pandas(small_pts, ray_session):
    pts, tbl = small_pts
    out = apply_constraints(pts, [("t", "GTE", 1357100000), ("lang", "EQ", "en")]).to_pandas()
    exp = tbl[(tbl["t"] >= 1357100000) & (tbl["lang"] == "en")]
    assert len(out) == len(exp)
    assert set(out["url"]) == set(exp["url"])


def test_driver_contract_consistency():
    """Every queries() entry has an oracle_sql() twin except the ten
    documented approximate operators (recall/error/guarantee behavior pinned
    in pytest instead of SQL); no oracle exists without its query."""
    import __ray_entry__ as E

    qs = set(E.queries())
    osql = set(E.oracle_sql())
    assert osql <= qs, f"orphan oracles: {sorted(osql - qs)}"
    approximate = {
        "approx_distinct_users",   # HLL sketch
        "embed_neardup_lsh",       # hyperplane LSH (recall-pinned)
        "embed_topk_ivf",          # IVF probing (recall-pinned)
        "minhash_lsh_pairs",       # MinHash banding (recall-pinned)
        "simhash_pairs",           # SimHash banding (pigeonhole-pinned)
        "bpe_token_stats",         # BPE merge loop has no SQL form (pytest-pinned)
        "heavy_hitters",           # Misra-Gries sketch (guarantee-pinned)
        "group_distinct_users",    # grouped HLL (error-pinned)
        "kmeans_clusters",         # iterative Lloyd's (driver-parity-pinned)
        "quantile_sketch_chars",   # compressed-CDF sketch (rank-error-pinned)
    }
    assert qs - osql == approximate, f"undocumented rows-only queries: {sorted(qs - osql - approximate)}"
