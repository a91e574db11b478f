"""Frozen-golden conformance: re-run the pipelines and match the committed
fixtures exactly (guards against accidental semantic drift across rounds)."""

import hashlib
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from rasterflow.pipelines.joins import aggregate_by_polygon, spatial_join
from rasterflow.pipelines.knn import knn_brute
from rasterflow.sources.csvout import read_agg_csv, write_agg_csv
from rasterflow.sources.fixtures import neigh_like_layer, pages_dataset
from rasterflow.stages.extract import extract_text
from rasterflow.stages.geocode import prepare_points

GOLDEN = Path(__file__).parent / "golden"
N = 5000

pytestmark = pytest.mark.skipif(not GOLDEN.exists(), reason="goldens not generated")


@pytest.fixture(scope="module")
def fix(ray_session):
    ds = pages_dataset(N, override_num_blocks=8)
    pts = prepare_points(ds, geocoder="url", dtype=np.float64)
    return ds, pts, neigh_like_layer(40, seed=42)


def test_text_sha256_identity(fix):
    ds, _, _ = fix
    pdf = ds.map_batches(extract_text, batch_format="pyarrow").to_pandas()[["url", "text2"]]
    pdf["sha256"] = [hashlib.sha256(t.encode()).hexdigest() for t in pdf["text2"]]
    got = pdf[["url", "sha256"]].sort_values("url").reset_index(drop=True)
    exp = pd.read_parquet(GOLDEN / "text_sha256.parquet").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_exact_and_raster_agg_csvs(fix, tmp_path):
    _, pts, layer = fix
    exact = aggregate_by_polygon(pts, layer, how="index").to_pandas()
    write_agg_csv(exact, tmp_path, layer.npolys, 1341128000, 0)
    assert (tmp_path / "raster_1341128000_0.csv").read_text() == (
        GOLDEN / "raster_1341128000_0.csv"
    ).read_text()
    for eps in (400, 100):
        r = aggregate_by_polygon(pts, layer, how="raster", accuracy_m=float(eps)).to_pandas()
        write_agg_csv(r, tmp_path, layer.npolys, 1341128000, eps)
        assert (tmp_path / f"raster_1341128000_{eps}.csv").read_text() == (
            GOLDEN / f"raster_1341128000_{eps}.csv"
        ).read_text()


def test_join_rows_golden(fix):
    _, pts, layer = fix
    rows = spatial_join(pts, layer, how="index", id_col="url").to_pandas()
    got = rows.sort_values(["poly_id", "url"]).reset_index(drop=True)
    exp = pd.read_parquet(GOLDEN / "join_rows_neigh40.parquet")
    pd.testing.assert_frame_equal(got, exp)


def test_knn_golden(fix):
    _, pts, _ = fix
    q = np.array([[0.0, 0.0], [1e6, -2e6], [-3e6, 1e6]])
    got = knn_brute(pts, q, 7, id_col="url").to_pandas().reset_index(drop=True)
    exp = pd.read_parquet(GOLDEN / "knn_neigh.parquet")
    pd.testing.assert_frame_equal(got, exp)
