"""Ingest layout, pruned reads, box counts, radius search."""

import numpy as np
import pyarrow.parquet  # noqa: F401
import pytest

from rasterflow.pipelines.ingest import (
    count_in_box,
    ingest_points,
    radius_search,
    read_points,
)
from rasterflow.sources.fixtures import pages_dataset
from rasterflow.stages.geocode import prepare_points


@pytest.fixture(scope="module")
def layout(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("layout")
    ds = pages_dataset(3000, override_num_blocks=4)
    out = ingest_points(ds, str(d / "pts"), cell_res=20, partition_res=6)
    return out


def test_ingest_layout_partitioned(layout):
    from pathlib import Path

    parts = [p for p in Path(layout).iterdir() if p.is_dir() and p.name.startswith("part=")]
    assert len(parts) >= 2  # hot-spot clusters land in distinct coarse cells
    # no wide columns in the layout
    import pyarrow.parquet as pq

    f = next(p for p in parts[0].iterdir() if p.suffix == ".parquet")
    names = set(pq.ParquetFile(f).schema_arrow.names)
    assert "html" not in names and "text" not in names and "text2" not in names
    assert {"url", "x", "y", "t", "cell_id"} <= names


def test_pruned_read_superset_and_exact_count(layout, ray_session):
    # a box around the NYC cluster in centered world coords
    full = read_points(layout)
    tbl = full.to_pandas()
    x0, x1 = np.percentile(tbl["x"], [10, 30])
    y0, y1 = np.percentile(tbl["y"], [10, 30])
    pruned = read_points(layout, box=(x0, y0, x1, y1))
    n_pruned = pruned.count()
    exact = count_in_box(full, x0, y0, x1, y1)
    exact_from_pruned = count_in_box(pruned, x0, y0, x1, y1)
    assert n_pruned >= exact  # coarse selection is a superset (SURVEY §2.7.1)
    assert exact_from_pruned == exact  # pruning loses nothing
    assert n_pruned < len(tbl)  # and it actually prunes


def test_time_pushdown(layout, ray_session):
    full = read_points(layout).to_pandas()
    t0 = int(full["t"].quantile(0.2))
    t1 = int(full["t"].quantile(0.5))
    got = read_points(layout, t_range=(t0, t1)).count()
    exp = ((full["t"] >= t0) & (full["t"] < t1)).sum()
    assert got == exp


def test_radius_search_matches_brute(ray_session):
    pts = prepare_points(pages_dataset(2000, override_num_blocks=4), geocoder="url", dtype=np.float64)
    tbl = pts.to_pandas()
    qx, qy = float(tbl["x"].iloc[0]), float(tbl["y"].iloc[0])
    r = 2e6
    got = radius_search(pts, qx, qy, r, id_col="url").to_pandas()
    dx = (tbl["x"] - qx) / r
    dy = (tbl["y"] - qy) / r
    exp = tbl[(dx * dx + dy * dy) < 1.0]
    assert set(got["url"]) == set(exp["url"])
    # elliptical variant
    got_e = radius_search(pts, qx, qy, r, id_col="url", ry=r / 2).to_pandas()
    dy2 = (tbl["y"] - qy) / (r / 2)
    exp_e = tbl[(dx * dx + dy2 * dy2) < 1.0]
    assert set(got_e["url"]) == set(exp_e["url"])


def test_bundle_distributed_matches_serial(ray_session):
    """The range-partitioned distributed assembly must be array-identical to
    the serial build — same unified cells, CSR offsets/values, border flags,
    border edge lists, pickle roundtrip (which drops + rebuilds the direct table)."""
    import pickle

    from rasterflow.sources.fixtures import synthetic_layer
    from rasterflow.state.bundle import PolygonBundle, _distributed_segments
    from rasterflow.geom.cells import Grid

    layer = synthetic_layer(300, seed=11)
    xmin, ymin, xmax, ymax = layer.bounds
    cell = max(xmax - xmin, ymax - ymin) / 512
    grid = Grid.from_bounds(xmin, ymin, xmax, ymax, cell)
    serial = PolygonBundle(layer, grid)
    segs = _distributed_segments(layer, grid, chunk=37, nranges=9)
    dist = PolygonBundle(layer, grid, segments=segs)
    for f in (
        "ucells", "ucand_indptr", "ucand_vals", "ucover_indptr", "ucover_vals", "uborder",
        "uedge_start", "uedge_stop", "uedge_ids",
    ):
        a, b = getattr(serial, f), getattr(dist, f)
        assert a.dtype == b.dtype, f
        np.testing.assert_array_equal(a, b, err_msg=f)
    # border property + membership agree across paths
    np.testing.assert_array_equal(serial.border_cells, dist.border_cells)
    q = np.arange(0, grid.ncells, 97, dtype=np.int64)
    np.testing.assert_array_equal(serial.is_border(q), dist.is_border(q))
    # expand() parity on a mixed query (hits + misses)
    p1, v1 = serial.expand(q, "cand")
    p2, v2 = dist.expand(q, "cand")
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(v1, v2)
    # pickle roundtrip rebuilds the (dropped) direct table identically
    rt = pickle.loads(pickle.dumps(serial))
    assert (rt.ucell_table is None) == (serial.ucell_table is None)
    if serial.ucell_table is not None:
        np.testing.assert_array_equal(rt.ucell_table, serial.ucell_table)
    i1, h1 = rt.locate_ucells(q)
    i2, h2 = serial.locate_ucells(q)
    np.testing.assert_array_equal(h1, h2)
    np.testing.assert_array_equal(i1[h1], i2[h2])
