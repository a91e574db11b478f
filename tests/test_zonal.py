"""Zonal / coverage analytics (rasterflow.pipelines.zonal) vs brute force."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from rasterflow.geom.cells import Grid
from rasterflow.geom.polyio import rect_layer
from rasterflow.pipelines.cellagg import focal_majority
from rasterflow.pipelines.zonal import (
    adaptive_cells,
    buffered_polygon_counts,
    cell_group_entropy,
    cell_trend,
    choropleth_classes,
    distance_to_boundary,
    group_spatial_profile,
    hotspot_evolution,
    nearest_site_counts,
    poly_group_entropy,
    pyramid_histogram,
    smallest_k,
    spatial_anti_join,
    zonal_stats,
)

RECTS = np.array(
    [
        (0.0, 0.0, 4.0, 4.0),
        (2.0, 2.0, 8.0, 6.0),   # overlaps the first
        (6.5, 7.0, 9.5, 9.5),
    ]
)


def _points(n=4000, seed=7):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 11.0, n)
    y = rng.uniform(-1.0, 11.0, n)
    v = rng.integers(1, 500, n).astype(np.float64)
    g = np.array(["ab"[i % 2] for i in range(n)])
    return pd.DataFrame({"doc_id": np.arange(n), "x": x, "y": y, "v": v, "lang": g})


def _member(df):
    """(n, k) bool: half-open rect membership [xmin, xmax) x [ymin, ymax),
    matching the engine's PIP edge rule for axis-aligned CCW rectangles."""
    m = np.zeros((len(df), len(RECTS)), dtype=bool)
    for j, (x0, y0, x1, y1) in enumerate(RECTS):
        m[:, j] = (df.x.values >= x0) & (df.x.values < x1) & (df.y.values >= y0) & (df.y.values < y1)
    return m


#: block counts the folded results must not depend on
PARTS = (1, 7)


def _parts(df: pd.DataFrame) -> dict:
    import ray.data

    return {n: ray.data.from_pandas(df).repartition(n) for n in PARTS}


@pytest.fixture(scope="module")
def pts_ds(ray_session):
    """The test points in 1 and in 7 blocks."""
    return _parts(_points())


def test_zonal_stats_brute(ray_session, pts_ds):
    layer = rect_layer("z", RECTS)
    df = _points()
    m = _member(df)
    exp = []
    for j in range(len(RECTS)):
        vv = df.v.values[m[:, j]]
        if len(vv):
            exp.append((j, len(vv), vv.sum(), vv.min(), vv.max()))
    exp = pd.DataFrame(exp, columns=["poly_id", "count", "sum", "min", "max"])
    for ds in pts_ds.values():
        got = zonal_stats(ds, layer, value_col="v", how="index", cell_size=0.5).to_pandas()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False, check_exact=True)


def test_zonal_stats_hybrid_matches_index(ray_session, pts_ds):
    layer = rect_layer("z", RECTS)
    a = zonal_stats(pts_ds[7], layer, value_col="v", how="index", cell_size=0.5).to_pandas()
    b = zonal_stats(pts_ds[7], layer, value_col="v", how="hybrid", cell_size=0.5).to_pandas()
    pd.testing.assert_frame_equal(a, b)


def test_spatial_anti_join_brute(ray_session, pts_ds):
    layer = rect_layer("z", RECTS)
    got = spatial_anti_join(pts_ds[7], layer, how="index", cell_size=0.5).to_pandas()
    df = _points()
    exp_ids = df.doc_id.values[~_member(df).any(axis=1)]
    assert sorted(got["doc_id"].tolist()) == sorted(exp_ids.tolist())
    # covered + uncovered partitions the input
    assert len(got) + int(_member(df).any(axis=1).sum()) == len(df)


def test_nearest_site_counts_brute(ray_session, pts_ds):
    sites = np.array([(1.0, 1.0), (5.0, 5.0), (9.0, 1.0), (5.0, 5.0)])  # dup site: tie -> lower id
    df = _points()
    dx = df.x.values[:, None] - sites[None, :, 0]
    dy = df.y.values[:, None] - sites[None, :, 1]
    d2 = dx * dx + dy * dy
    a = np.argmin(d2, axis=1)
    assert 3 not in a  # exact-dup site never wins a tie
    exp_counts = np.bincount(a, minlength=len(sites))
    touched = np.flatnonzero(exp_counts)
    dmin = d2[np.arange(len(df)), a]
    exp = pd.DataFrame(
        {"site_id": touched, "count": exp_counts[touched], "min_d2": [dmin[a == s].min() for s in touched]}
    )
    for ds in pts_ds.values():
        got = nearest_site_counts(ds, sites).to_pandas()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False, check_exact=True)


def test_group_spatial_profile_brute(ray_session, pts_ds):
    grid = Grid.from_bounds(0.0, 0.0, 10.0, 10.0, 1.0)
    df = _points()
    lin, valid = grid.locate_linear(df.x.values, df.y.values)
    d = df[valid].assign(cell=lin[valid])
    exp = (
        d.groupby("lang")
        .agg(
            n_points=("x", "size"),
            n_cells=("cell", "nunique"),
            min_x=("x", "min"),
            max_x=("x", "max"),
            min_y=("y", "min"),
            max_y=("y", "max"),
        )
        .reset_index()
    )
    for ds in pts_ds.values():
        got = group_spatial_profile(ds, grid, "lang").to_pandas()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_pyramid_histogram_levels(ray_session, pts_ds):
    grid = Grid.from_bounds(0.0, 0.0, 10.0, 10.0, 1.0)  # 10x10, widths 10/5/3
    df = _points()
    lin, valid = grid.locate_linear(df.x.values, df.y.values)
    lin = lin[valid]
    iy, ix = np.divmod(lin, grid.nx)
    exp = []
    for lv, w in [(0, 10), (1, 5), (2, 3)]:
        cells, counts = np.unique((iy >> lv) * w + (ix >> lv), return_counts=True)
        assert counts.sum() == len(lin)
        exp.append(pd.DataFrame({"level": lv, "cell_id": cells, "n": counts}))
    exp = pd.concat(exp, ignore_index=True)
    for ds in pts_ds.values():
        got = pyramid_histogram(ds, grid, levels=3).to_pandas()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def _rect_boundary_d2(px, py, rect):
    """Independent analytic distance² to an axis-aligned rectangle BOUNDARY
    (outside: clamp to the box; inside: nearest side)."""
    x0, y0, x1, y1 = rect
    inside = (px >= x0) & (px <= x1) & (py >= y0) & (py <= y1)
    cx = np.clip(px, x0, x1)
    cy = np.clip(py, y0, y1)
    d_out = (px - cx) ** 2 + (py - cy) ** 2
    d_in = np.minimum.reduce([px - x0, x1 - px, py - y0, y1 - py]) ** 2
    return np.where(inside, d_in, d_out)


def test_distance_to_boundary_analytic(ray_session, pts_ds):
    layer = rect_layer("z", RECTS)
    got = (
        distance_to_boundary(pts_ds[7], layer, out_col="d2")
        .select_columns(["doc_id", "d2"])
        .to_pandas()
        .sort_values("doc_id")
    )
    df = _points()
    exp = np.minimum.reduce([_rect_boundary_d2(df.x.values, df.y.values, r) for r in RECTS])
    np.testing.assert_allclose(got["d2"].values, exp, rtol=1e-12, atol=1e-18)


def test_smallest_k_deterministic_ties(ray_session):
    import ray.data

    n = 1000
    rng = np.random.default_rng(3)
    df = pd.DataFrame({"doc_id": rng.permutation(n), "s": np.repeat(np.arange(100.0), 10)})
    exp = df.sort_values(["s", "doc_id"]).head(17)
    for parts in (1, 3, 11):
        ds = ray.data.from_pandas(df).repartition(parts)
        got = smallest_k(ds, "s", "doc_id", 17).to_pandas().sort_values(["s", "doc_id"])
        assert got["doc_id"].tolist() == exp["doc_id"].tolist()
        assert got["s"].tolist() == exp["s"].tolist()


def test_raster_gradient_brute(ray_session, pts_ds):
    from rasterflow.pipelines.cellagg import raster_gradient

    grid = Grid.from_bounds(0.0, 0.0, 10.0, 10.0, 1.0)
    got = raster_gradient(pts_ds[7], grid).to_pandas()
    # dense brute force: counts raster + explicit Sobel correlation
    df = _points()
    lin, valid = grid.locate_linear(df.x.values, df.y.values)
    dense = np.bincount(lin[valid], minlength=grid.ncells).reshape(grid.ny, grid.nx)
    gx = np.zeros_like(dense)
    gy = np.zeros_like(dense)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            # scatter formulation: target (y+dy, x+dx) += n[y, x] * w
            src = dense
            wx, wy = dx * (2 - abs(dy)), dy * (2 - abs(dx))
            ys = slice(max(0, dy), grid.ny + min(0, dy))
            xs = slice(max(0, dx), grid.nx + min(0, dx))
            ys_s = slice(max(0, -dy), grid.ny + min(0, -dy))
            xs_s = slice(max(0, -dx), grid.nx + min(0, -dx))
            gx[ys, xs] += src[ys_s, xs_s] * wx
            gy[ys, xs] += src[ys_s, xs_s] * wy
    by_cell = {int(c): (int(n), int(a), int(b)) for c, n, a, b in zip(got.cell_id, got.n, got.gx, got.gy)}
    for cy in range(grid.ny):
        for cx in range(grid.nx):
            cell = cy * grid.nx + cx
            n, a, b = by_cell.get(cell, (0, 0, 0))
            assert n == dense[cy, cx]
            assert a == gx[cy, cx]
            assert b == gy[cy, cx]
    assert (got.mag2 == got.gx**2 + got.gy**2).all()


def test_interleave_mix_properties(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import interleave_mix

    n = 900
    rng = np.random.default_rng(11)
    df = pd.DataFrame(
        {
            "doc_id": rng.permutation(10_000)[:n],
            "source": np.array(["a", "b", "c", "drop_me"])[rng.integers(0, 4, n)],
        }
    )
    w = {"a": 0.5, "b": 0.3, "c": 0.2}
    # pandas reference: stride schedule
    ref = df[df.source.isin(w)].sort_values("doc_id").copy()
    ref["rnk"] = ref.groupby("source").cumcount() + 1
    ref["order_key"] = ref.rnk.values.astype(np.float64) / ref.source.map(w).values
    ref = ref.sort_values(["order_key", "doc_id"]).head(100)
    for parts in (1, 5):
        ds = ray.data.from_pandas(df).repartition(parts)
        got = interleave_mix(ds, "source", w, k=100).to_pandas()
        assert got["doc_id"].tolist() == ref["doc_id"].tolist()
        assert got["order_key"].tolist() == ref["order_key"].tolist()
    # mixture property: any prefix is ~proportional to the weights
    head = got.head(50)
    share = head.source.value_counts(normalize=True)
    for s, ws in w.items():
        assert abs(share.get(s, 0.0) - ws) < 0.08
    assert "drop_me" not in set(got.source)


def test_run_job_zonal_partitioned(ray_session, tmp_path, monkeypatch):
    """run_job --pipeline zonal: resumable partition outputs must merge to the
    single-shot zonal_stats result (count/sum mergeable by sum, min/max by
    min/max)."""
    import sys

    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    import scripts.run_job as RJ
    from rasterflow.sources.fixtures import neigh_like_layer, pages_batch
    from rasterflow.stages.extract import extract_text
    from rasterflow.stages.geocode import PreparePoints

    ind = tmp_path / "pages"
    ind.mkdir()
    pq.write_table(pages_batch(np.arange(0, 1500)), ind / "a.parquet")
    pq.write_table(pages_batch(np.arange(1500, 3000)), ind / "b.parquet")
    monkeypatch.setattr(
        sys, "argv",
        ["run_job.py", "--pipeline", "zonal", "--input", str(ind), "--out",
         str(tmp_path / "o"), "--value-col", "n_chars", "--partition-size", "1"],
    )
    assert RJ.main() == 0
    got = pd.read_parquet(tmp_path / "o" / "final.parquet")

    def add_n_chars(b):
        return b.append_column("n_chars", pc.cast(pc.utf8_length(b.column("text2")), pa.int64()))

    pts = (
        ray.data.read_parquet([str(ind / "a.parquet"), str(ind / "b.parquet")],
                              columns=["url", "warc_ts", "html", "lang"])
        .map_batches(extract_text, batch_format="pyarrow")
        .map_batches(add_n_chars, batch_format="pyarrow")
        .map_batches(PreparePoints(text_col="text2", keep_cols=("lang", "n_chars")),
                     batch_format="pyarrow")
    )
    ref = zonal_stats(pts, neigh_like_layer(260, seed=42), value_col="n_chars", how="index").to_pandas()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), ref.reset_index(drop=True), check_dtype=False
    )


def test_zonal_empty_blocks_schema(ray_session):
    """Blocks with zero matched pairs must not poison the partial schema."""
    import ray.data

    df = pd.DataFrame({"x": [100.0, 1.0], "y": [100.0, 1.0], "v": [5.0, 7.0]})
    ds = ray.data.from_pandas(df).repartition(2)
    layer = rect_layer("z", RECTS)
    got = zonal_stats(ds, layer, value_col="v", how="index", cell_size=0.5).to_pandas()
    assert got["poly_id"].tolist() == [0]
    assert got["count"].tolist() == [1]
    assert got["min"].tolist() == [7.0]


def test_adaptive_cells_partition_of_mass(ray_session):
    """Leaf tiles form a PARTITION of the populated space: every point is
    counted in exactly one emitted tile (mass conservation), dense regions
    split to finer levels, sparse regions stay coarse."""
    import numpy as np
    import pandas as pd
    import ray.data

    from rasterflow.geom.cells import Grid
    from rasterflow.pipelines.zonal import adaptive_cells, pyramid_histogram

    rng = np.random.default_rng(53)
    # dense blob in one corner + sparse everywhere
    dense = rng.uniform(0.0, 1.0, (3000, 2))
    sparse = rng.uniform(0.0, 8.0, (300, 2))
    pts = np.vstack([dense, sparse])
    df = pd.DataFrame({"doc_id": np.arange(len(pts)), "x": pts[:, 0], "y": pts[:, 1]})
    grid = Grid.from_bounds(0.0, 0.0, 8.0, 8.0, 0.5)
    T = 40
    ds = ray.data.from_pandas(df).repartition(4)
    got = adaptive_cells(ds, grid, levels=3, threshold=T).to_pandas()
    for other in _parts(df).values():
        pd.testing.assert_frame_equal(adaptive_cells(other, grid, levels=3, threshold=T).to_pandas(), got)
    assert got["n"].sum() == len(pts)  # partition of mass
    assert (got["level"] == 0).any() and (got["level"] == 2).any()
    # any emitted non-finest cell fits the threshold
    assert (got[got["level"] > 0]["n"] <= T).all()

    # reference: from the dense pyramid, leaf rule per row
    pyr = pyramid_histogram(ds, grid, levels=3).to_pandas()
    widths = [grid.nx, -(-grid.nx // 2), -(-grid.nx // 4), 1]
    byl = {l: dict(zip(g["cell_id"], g["n"])) for l, g in pyr.groupby("level")}
    rows = []
    for _, row in pyr.iterrows():
        l, c, n = int(row["level"]), int(row["cell_id"]), int(row["n"])
        if l < 2:
            par = ((c // widths[l]) >> 1) * widths[l + 1] + ((c % widths[l]) >> 1)
            split = byl[l + 1][par] > T
        else:
            split = True
        if split and (n <= T or l == 0):
            rows.append((l, c, n))
    exp = pd.DataFrame(rows, columns=["level", "cell_id", "n"]).sort_values(
        ["level", "cell_id"]
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)


def test_choropleth_classes_matches_rank_rule(ray_session):
    import numpy as np
    import pandas as pd

    from rasterflow.geom.cells import Grid
    from rasterflow.pipelines.zonal import choropleth_classes

    rng = np.random.default_rng(61)
    grid = Grid.from_bounds(0.0, 0.0, 8.0, 8.0, 1.0)
    # zipf-ish cell occupancy for distinct class sizes
    df = pd.DataFrame(
        {
            "doc_id": np.arange(5000),
            "x": (rng.zipf(1.5, 5000) % 8) + rng.uniform(0, 1, 5000) * 0.99,
            "y": rng.uniform(0.0, 8.0, 5000),
        }
    )
    df = df[df["x"] < 8.0]
    lin = (df["y"] // 1.0).astype(np.int64) * grid.nx + (df["x"] // 1.0).astype(np.int64)
    cnt = pd.Series(lin).value_counts().sort_index()
    n = cnt.to_numpy()
    sv = np.sort(n)
    th = [sv[max(1, int(np.ceil(q * len(sv)))) - 1] for q in (0.25, 0.5, 0.75)]
    cls = sum((n > t).astype(np.int64) for t in th)
    exp = pd.DataFrame({"cell_id": cnt.index.to_numpy(), "n": n, "cls": cls})
    for ds in _parts(df).values():
        got = choropleth_classes(ds, grid).to_pandas()
        pd.testing.assert_frame_equal(got, exp.reset_index(drop=True), check_dtype=False)
    assert got["cls"].nunique() >= 3


def test_cell_group_entropy_matches_scipy_free_brute(ray_session):
    import math

    import numpy as np
    import pandas as pd

    from rasterflow.geom.cells import Grid
    from rasterflow.pipelines.zonal import cell_group_entropy

    rng = np.random.default_rng(71)
    n = 4000
    grid = Grid.from_bounds(0.0, 0.0, 6.0, 6.0, 1.0)
    df = pd.DataFrame(
        {
            "x": rng.uniform(0.0, 6.0, n),
            "y": rng.uniform(0.0, 6.0, n),
            "lang": rng.choice(["de", "en", "es", "fr", "zh", "xx"], n),  # xx dropped
        }
    )
    lin = (df["y"] // 1.0).astype(np.int64) * grid.nx + (df["x"] // 1.0).astype(np.int64)
    ref = pd.DataFrame({"cell_id": lin, "lang": df["lang"]})
    ref = ref[ref["lang"] != "xx"]
    rows = []
    for cid, g in ref.groupby("cell_id"):
        cnt = g["lang"].value_counts()
        tot = int(cnt.sum())
        e = 0.0
        for lg in ("de", "en", "es", "fr", "zh"):
            c = int(cnt.get(lg, 0))
            if c > 0:
                p = c / tot
                e = e + -(p * math.log(p))
        rows.append((cid, tot, e))
    exp = pd.DataFrame(rows, columns=["cell_id", "n", "entropy"]).sort_values(
        "cell_id"
    ).reset_index(drop=True)
    for ds in _parts(df).values():
        got = cell_group_entropy(ds, grid).to_pandas()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # uniform 5-way mix tops out at ln(5)
    assert (got["entropy"] <= math.log(5) + 1e-12).all()


def test_poly_group_entropy_matches_brute(ray_session):
    import math

    import numpy as np
    import pandas as pd

    from rasterflow.geom.polyio import rect_layer
    from rasterflow.pipelines.zonal import poly_group_entropy

    rng = np.random.default_rng(73)
    n = 3000
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n),
            "x": rng.uniform(-1.0, 11.0, n),
            "y": rng.uniform(-1.0, 11.0, n),
            "lang": rng.choice(["de", "en", "es", "fr", "zh"], n),
        }
    )
    layer = rect_layer("pe", RECTS)
    mem = _member(df)  # (n, k) half-open rect membership
    rows = []
    for pid in range(mem.shape[1]):
        sub = df[mem[:, pid]]
        if len(sub) == 0:
            continue
        cnt = sub["lang"].value_counts()
        tot = int(cnt.sum())
        e = 0.0
        for lg in ("de", "en", "es", "fr", "zh"):
            c = int(cnt.get(lg, 0))
            if c > 0:
                p = c / tot
                e = e + -(p * math.log(p))
        rows.append((pid, tot, e))
    exp = pd.DataFrame(rows, columns=["poly_id", "n", "entropy"])
    for ds in _parts(df).values():
        got = poly_group_entropy(ds, layer, how="index", cell_size=0.5).to_pandas()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_extract_raster_at_points(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from rasterflow.geom.cells import Grid
    from rasterflow.pipelines.cellagg import extract_raster_at_points

    rng = np.random.default_rng(79)
    grid = Grid.from_bounds(0.0, 0.0, 4.0, 4.0, 1.0)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(500),
            "x": rng.uniform(-0.5, 4.5, 500),  # some off-canvas -> density 0
            "y": rng.uniform(-0.5, 4.5, 500),
        }
    )
    got = extract_raster_at_points(
        ray.data.from_pandas(df).repartition(3), grid
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)

    lin, valid = grid.locate_linear(df["x"].to_numpy(), df["y"].to_numpy())
    counts = np.bincount(lin[valid], minlength=grid.ncells)
    exp = np.where(valid, counts[np.minimum(lin, grid.ncells - 1)], 0)
    assert (got["density"].to_numpy() == exp).all()
    assert (exp == 0).any() and (exp > 0).any()


def test_focal_majority_matches_brute(ray_session):
    import numpy as np
    import pandas as pd

    from rasterflow.geom.cells import Grid
    from rasterflow.pipelines.cellagg import focal_majority

    rng = np.random.default_rng(83)
    grid = Grid.from_bounds(0.0, 0.0, 6.0, 6.0, 1.0)
    n = 2500
    df = pd.DataFrame(
        {
            "x": rng.uniform(0.0, 6.0, n),
            "y": rng.uniform(0.0, 6.0, n),
            "lang": rng.choice(["de", "en", "es", "fr", "zh"], n, p=[0.1, 0.4, 0.2, 0.2, 0.1]),
        }
    )
    langs = ("de", "en", "es", "fr", "zh")
    lin = (df["y"] // 1.0).astype(np.int64) * grid.nx + (df["x"] // 1.0).astype(np.int64)
    dense = np.zeros((grid.ncells, len(langs)), dtype=np.int64)
    for li, lg in enumerate(langs):
        np.add.at(dense[:, li], lin[(df["lang"] == lg).to_numpy()], 1)
    rows = []
    for cid in range(grid.ncells):
        cy, cx = divmod(cid, grid.nx)
        tot = np.zeros(len(langs), dtype=np.int64)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                yy, xx = cy + dy, cx + dx
                if 0 <= yy < grid.ny and 0 <= xx < grid.nx:
                    tot += dense[yy * grid.nx + xx]
        if tot.sum() == 0:
            continue
        w = int(np.argmax(tot))  # argmax first-occurrence = lexicographic tie
        rows.append((cid, langs[w], int(tot[w])))
    exp = pd.DataFrame(rows, columns=["cell_id", "lang", "n_maj"])
    for ds in _parts(df).values():
        got = focal_majority(ds, grid).to_pandas()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_coverage_gaps_matches_brute(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from rasterflow.geom.cells import Grid
    from rasterflow.pipelines.cellagg import coverage_gaps

    rng = np.random.default_rng(89)
    grid = Grid.from_bounds(0.0, 0.0, 8.0, 8.0, 1.0)
    # points only in the left half -> gaps on the right (minus the border hood)
    df = pd.DataFrame({"x": rng.uniform(0.0, 3.0, 400), "y": rng.uniform(0.0, 8.0, 400)})
    got = coverage_gaps(ray.data.from_pandas(df).repartition(3), grid).to_pandas()

    lin, valid = grid.locate_linear(df["x"].to_numpy(), df["y"].to_numpy())
    lit = np.zeros(grid.ncells, dtype=bool)
    lit[lin[valid]] = True
    exp = []
    for cid in range(grid.ncells):
        cy, cx = divmod(cid, grid.nx)
        any_lit = any(
            lit[(cy + dy) * grid.nx + (cx + dx)]
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
            if 0 <= cy + dy < grid.ny and 0 <= cx + dx < grid.nx
        )
        if not any_lit:
            exp.append(cid)
    assert got["cell_id"].tolist() == exp
    assert len(exp) > 0



_GRID = Grid.from_bounds(0.0, 0.0, 10.0, 10.0, 1.0)
_LAYER = rect_layer("z", RECTS)
#: name -> (call on points that all miss its grid or layer, its columns);
#: string columns named in _STRINGS, every other column int or float
_EMPTY_CASES = {
    "zonal_stats": (
        lambda ds: zonal_stats(ds, _LAYER, value_col="v", how="index", cell_size=0.5),
        ["poly_id", "count", "sum", "min", "max"],
    ),
    # every point has a nearest site: no points at all
    "nearest_site_counts": (
        lambda ds: nearest_site_counts(ds.limit(0), np.array([(1.0, 1.0)])),
        ["site_id", "count", "min_d2"],
    ),
    "buffered_polygon_counts": (
        lambda ds: buffered_polygon_counts(ds, _LAYER, _LAYER, buffer_dist=0.5, cell_size=0.5),
        ["poly_id", "n_buffer"],
    ),
    "group_spatial_profile": (
        lambda ds: group_spatial_profile(ds, _GRID, "lang"),
        ["lang", "n_points", "n_cells", "min_x", "max_x", "min_y", "max_y"],
    ),
    "pyramid_histogram": (lambda ds: pyramid_histogram(ds, _GRID, levels=3), ["level", "cell_id", "n"]),
    "adaptive_cells": (lambda ds: adaptive_cells(ds, _GRID, levels=3, threshold=5), ["level", "cell_id", "n"]),
    "choropleth_classes": (lambda ds: choropleth_classes(ds, _GRID), ["cell_id", "n", "cls"]),
    "hotspot_evolution": (
        lambda ds: hotspot_evolution(ds, _GRID, min_count=1),
        ["cell_id", "n_early", "n_late", "status"],
    ),
    "cell_trend": (lambda ds: cell_trend(ds, _GRID, min_points=1), ["cell_id", "n", "trend_num"]),
    "cell_group_entropy": (
        lambda ds: cell_group_entropy(ds, _GRID, groups=("a", "b")), ["cell_id", "n", "entropy"]
    ),
    "poly_group_entropy": (
        lambda ds: poly_group_entropy(ds, _LAYER, groups=("a", "b"), how="index", cell_size=0.5),
        ["poly_id", "n", "entropy"],
    ),
    "focal_majority": (
        lambda ds: focal_majority(ds, _GRID, groups=("a", "b")), ["cell_id", "lang", "n_maj"]
    ),
}
_STRINGS = {"status", "lang"}


@pytest.mark.parametrize("name", sorted(_EMPTY_CASES))
def test_folded_operators_type_an_empty_result(ray_session, name):
    """Points that all miss the grid or layer: the result keeps its column
    names and types (no null types), though no block reaches the fold."""
    import ray.data

    df = pd.DataFrame({"doc_id": [1, 2, 3], "x": [50.0, -40.0, 20.0], "y": [50.0, 30.0, -20.0]})
    df = df.assign(v=[1.0, 2.0, 3.0], lang=["a", "b", "a"])
    ds = ray.data.from_pandas(df).map_batches(lambda b: b, batch_format="pyarrow")  # schema unknown
    call, cols = _EMPTY_CASES[name]
    out = call(ds)
    schema = out.schema()
    assert out.count() == 0
    assert schema.names == cols
    for c, t in zip(schema.names, schema.types):
        if c == "lang" and name == "group_spatial_profile":
            continue  # a group key's type comes from input rows, and none arrived
        ok = pa.types.is_string(t) if c in _STRINGS else pa.types.is_integer(t) or pa.types.is_floating(t)
        assert ok, (c, t)
