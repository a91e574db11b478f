"""URL curation (rasterflow.pipelines.web) + geo-temporal/geo-text cell ops."""

import numpy as np
import pandas as pd
import pyarrow as pa

from rasterflow.geom.cells import Grid
from rasterflow.pipelines.web import (
    canonicalize_urls,
    domain_of,
    domain_quality_gate,
    synth_urls,
    url_dedup,
)
from rasterflow.pipelines.zonal import cell_top_terms, cell_trend
from rasterflow.sources.fixtures import TS_SPAN


def test_url_canonicalization_collapses_variants():
    t = pa.table({"doc_id": pa.array(np.arange(40), type=pa.int64())})
    t = canonicalize_urls(synth_urls(t))
    df = t.to_pandas()
    df["page"] = df["doc_id"] // 4
    # every page's 4 variants map to ONE canonical form, and it is variant 0
    per_page = df.groupby("page")["canon"].nunique()
    assert (per_page == 1).all()
    v0 = df[df["doc_id"] % 4 == 0].set_index("page")["url"]
    c = df.groupby("page")["canon"].first()
    assert (c == v0).all()


def test_url_canonicalization_malformed_fallback():
    t = pa.table({"url": pa.array(["not a url", "FTP://A.B/C/", "https://h.io/x?y=1#z"])})
    got = canonicalize_urls(t)["canon"].to_pylist()
    # scheme+host fold; path CASE is preserved (paths are case-sensitive)
    assert got == ["not a url", "ftp://a.b/C", "https://h.io/x"]


def test_url_dedup_partition_invariant(ray_session):
    import ray.data

    ids = pd.DataFrame({"doc_id": np.arange(200, dtype=np.int64)})
    one = url_dedup(ray.data.from_pandas(ids).repartition(1)).to_pandas()
    many = url_dedup(ray.data.from_pandas(ids).repartition(7)).to_pandas()
    pd.testing.assert_frame_equal(one, many)
    assert (one["keep_id"] % 4 == 0).all()
    assert (one["n_dups"] == 4).all()
    assert len(one) == 50


def test_domain_gate_matches_pandas(ray_session):
    import ray.data

    n = 400
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "n_chars": (np.arange(n, dtype=np.int64) * 37) % 700,
        }
    )
    got = domain_quality_gate(
        ray.data.from_pandas(df).repartition(5), min_docs=3, min_avg_chars=330.0
    ).to_pandas()

    ref = df.copy()
    ref["domain"] = "site" + ((ref["doc_id"] // 4) % 50).astype(str) + ".example"
    st = ref.groupby("domain").agg(n=("n_chars", "size"), s=("n_chars", "sum"))
    keep = st[(st["n"] >= 3) & (st["s"] / st["n"] >= 330.0)].index
    exp = ref[ref["domain"].isin(keep)][["doc_id", "domain"]].reset_index(drop=True)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)


def test_domain_of_strips_subdomains():
    t = pa.table({"canon": pa.array(["https://a.b.c.site9.example/p", "https://x.y/q"])})
    assert domain_of(t)["domain"].to_pylist() == ["site9.example", "x.y"]


GRID = Grid.from_bounds(0.0, 0.0, 10.0, 10.0, 1.0)


def _geo_pts(n=3000, seed=3):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "x": rng.uniform(0.0, 10.0, n),
            "y": rng.uniform(0.0, 10.0, n),
        }
    )


def test_cell_trend_matches_dense_least_squares(ray_session):
    import ray.data

    df = _geo_pts()
    got = cell_trend(
        ray.data.from_pandas(df).repartition(6), GRID, buckets=8, min_points=5
    ).to_pandas()

    w = TS_SPAN // 8
    ref = df.copy()
    ref["b"] = ((ref["doc_id"] * 137) % TS_SPAN) // w
    lin = (ref["y"] // 1.0).astype(np.int64) * GRID.nx + (ref["x"] // 1.0).astype(np.int64)
    ref["cell_id"] = lin
    rows = []
    for cid, g in ref.groupby("cell_id"):
        yb = np.bincount(g["b"], minlength=8)
        n = int(yb.sum())
        if n < 5:
            continue
        xs = np.arange(8)
        num = 8 * int((xs * yb).sum()) - int(xs.sum()) * n
        rows.append((cid, n, num))
    exp = pd.DataFrame(rows, columns=["cell_id", "n", "trend_num"]).sort_values(
        "cell_id"
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)


def test_cell_top_terms_matches_pandas(ray_session):
    import ray.data

    rng = np.random.default_rng(11)
    vocab = np.array(["alpha", "beta", "gamma", "delta", "x1", "NOPE"])
    n = 800
    df = _geo_pts(n, seed=5)
    df["text"] = [
        " ".join(rng.choice(vocab, size=rng.integers(3, 9))) for _ in range(n)
    ]
    got = cell_top_terms(
        ray.data.from_pandas(df).repartition(4), GRID, k=2
    ).to_pandas()

    lin = (df["y"] // 1.0).astype(np.int64) * GRID.nx + (df["x"] // 1.0).astype(np.int64)
    ex = pd.DataFrame({"cell_id": lin, "token": df["text"].str.split()}).explode(
        "token", ignore_index=True
    )
    ex = ex[ex["token"].str.fullmatch(r"[a-z]+", na=False)]
    cnt = ex.groupby(["cell_id", "token"], as_index=False).size().rename(columns={"size": "n"})
    cnt = cnt.sort_values(["n", "token"], ascending=[False, True], kind="stable")
    exp = (
        cnt.groupby("cell_id", sort=False)
        .head(2)[["cell_id", "token", "n"]]
        .sort_values(["cell_id", "token"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)


def _pip_ref(px, py, ring):
    """Crossing-number PIP, same half-open rule as the engine kernel."""
    inside = False
    j = len(ring) - 1
    for i in range(len(ring)):
        (vix, viy), (vjx, vjy) = ring[i], ring[j]
        if (viy > py) != (vjy > py) and px < (vjx - vix) / (vjy - viy) * (py - viy) + vix:
            inside = not inside
        j = i
    return inside


def test_cross_pairs_exhaustive():
    from rasterflow.pipelines.overlay import _cross_pairs

    pts_a = np.array([0, 0, 2, 3])
    ids_a = np.array([10, 11, 12, 13])
    pts_b = np.array([0, 2, 2, 5])
    ids_b = np.array([20, 21, 22, 23])
    oa, ob = _cross_pairs(6, pts_a, ids_a, pts_b, ids_b)
    got = sorted(zip(oa.tolist(), ob.tolist()))
    # point 0: {10,11}x{20}; point 2: {12}x{21,22}; points 3/5 unmatched
    assert got == [(10, 20), (11, 20), (12, 21), (12, 22)]


def test_raster_overlay_matches_brute(ray_session):
    from rasterflow.geom.polyio import PolygonLayer, rect_layer
    from rasterflow.pipelines.overlay import raster_overlay

    ring_a0 = [(1.0, 1.0), (6.0, 1.5), (5.5, 6.0), (1.5, 5.0)]
    ring_a1 = [(4.0, 4.0), (9.0, 4.5), (8.0, 9.0)]
    layer_a = PolygonLayer.from_rings(
        "A", [[np.asarray(ring_a0)], [np.asarray(ring_a1)]]
    )
    rects_b = np.array([(0.5, 0.5, 5.0, 5.0), (3.0, 3.0, 9.5, 9.5)])
    layer_b = rect_layer("B", rects_b)
    grid = Grid.from_bounds(0.0, 0.0, 10.0, 10.0, 0.5)

    got = raster_overlay(layer_a, layer_b, grid, how="index", cell_size=0.25).to_pandas()

    rings_b = [
        [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
        for xmin, ymin, xmax, ymax in rects_b
    ]
    from collections import Counter

    cnt = Counter()
    for lin in range(grid.ncells):
        iy, ix = divmod(lin, grid.nx)
        cx, cy = grid.x0 + (ix + 0.5) * grid.cell, grid.y0 + (iy + 0.5) * grid.cell
        ina = [i for i, r in enumerate([ring_a0, ring_a1]) if _pip_ref(cx, cy, r)]
        inb = [j for j, r in enumerate(rings_b) if _pip_ref(cx, cy, r)]
        for i in ina:
            for j in inb:
                cnt[(i, j)] += 1
    exp = pd.DataFrame(
        [(a, b, n, n * grid.cell * grid.cell) for (a, b), n in sorted(cnt.items())],
        columns=["poly_a", "poly_b", "n_cells", "area"],
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)


def test_run_job_url_dedup_partitioned(ray_session, tmp_path, monkeypatch):
    """Resumable url-dedup CLI: per-partition canon partials + global combine
    equal a single-shot groupby; cross-partition repeats merge (n sums)."""
    import sys

    import pyarrow.parquet as pq

    import scripts.run_job as RJ
    from rasterflow.sources.fixtures import pages_batch

    ind = tmp_path / "pages"
    ind.mkdir()
    pq.write_table(pages_batch(np.arange(0, 1500)), ind / "a.parquet")
    pq.write_table(pages_batch(np.arange(1000, 2500)), ind / "b.parquet")
    monkeypatch.setattr(
        sys, "argv",
        ["run_job.py", "--pipeline", "url-dedup", "--input", str(ind), "--out",
         str(tmp_path / "o"), "--partition-size", "1"],
    )
    assert RJ.main() == 0
    got = pd.read_parquet(tmp_path / "o" / "final")  # write_parquet dir
    assert len(got) == 2500  # distinct canonical urls
    assert (got["n"] == 1).sum() == 2000 and (got["n"] == 2).sum() == 500
    # canonicalization is identity on the already-canonical fixture urls
    assert (got["canon"] == got["keep_url"]).all()


def test_distance_join_pairs_matches_brute(ray_session):
    from rasterflow.pipelines.proximity import distance_join_pairs

    rng = np.random.default_rng(21)
    n = 1200
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "x": rng.uniform(0.0, 3.0, n),
            "y": rng.uniform(0.0, 3.0, n),
        }
    )
    # planted edge cases: exact duplicate coords, and a pair exactly r apart
    df.loc[1, ["x", "y"]] = df.loc[0, ["x", "y"]].to_numpy()
    df.loc[3, "x"] = df.loc[2, "x"] + 0.05
    df.loc[3, "y"] = df.loc[2, "y"]
    import ray.data

    r = 0.05
    got = distance_join_pairs(
        ray.data.from_pandas(df).repartition(6), radius=r
    ).to_pandas()
    got8 = distance_join_pairs(
        ray.data.from_pandas(df).repartition(1), radius=r, num_partitions=3
    ).to_pandas()
    pd.testing.assert_frame_equal(got, got8)  # partition invariance

    x, y = df["x"].to_numpy(), df["y"].to_numpy()
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    d2 = dx * dx + dy * dy
    ia, ib = np.nonzero((d2 <= r * r) & (np.arange(n)[:, None] < np.arange(n)[None, :]))
    exp = pd.DataFrame({"id_a": ia.astype(np.int64), "id_b": ib.astype(np.int64),
                        "d2": d2[ia, ib]}).sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert (got["id_a"] == 0).sum() >= 1 and ((got["id_a"] == 2) & (got["id_b"] == 3)).any()
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)


def _seg_d2(px, py, ring):
    best = np.inf
    j = len(ring) - 1
    for i in range(len(ring)):
        (ax, ay), (bx, by) = ring[i], ring[j]
        dx, dy = bx - ax, by - ay
        l2 = dx * dx + dy * dy or 1.0
        t = min(max(((px - ax) * dx + (py - ay) * dy) / l2, 0.0), 1.0)
        ddx, ddy = px - (ax + t * dx), py - (ay + t * dy)
        best = min(best, ddx * ddx + ddy * ddy)
        j = i
    return best


def test_buffered_polygon_counts_matches_brute(ray_session):
    from rasterflow.geom.polyio import PolygonLayer
    from rasterflow.pipelines.zonal import buffered_polygon_counts

    rings = [
        [(1.0, 1.0), (5.0, 1.2), (4.5, 5.0), (1.2, 4.0)],
        [(6.0, 6.0), (9.0, 6.5), (8.5, 9.5)],
    ]
    layer = PolygonLayer.from_rings("bp", [[np.asarray(r)] for r in rings])
    df = _geo_pts(2500, seed=9)
    import ray.data

    d = 0.4
    got = buffered_polygon_counts(
        ray.data.from_pandas(df).repartition(5), layer, layer, buffer_dist=d,
        how="index", cell_size=0.25,
    ).to_pandas()

    exp = []
    for pid, ring in enumerate(rings):
        n = sum(
            1
            for px, py in zip(df["x"], df["y"])
            if _pip_ref(px, py, ring) or _seg_d2(px, py, ring) <= d * d
        )
        if n:
            exp.append((pid, n))
    exp = pd.DataFrame(exp, columns=["poly_id", "n_buffer"])
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)


def test_hotspot_evolution_matches_brute(ray_session):
    from rasterflow.pipelines.zonal import hotspot_evolution

    df = _geo_pts(4000, seed=13)
    import ray.data

    got = hotspot_evolution(
        ray.data.from_pandas(df).repartition(7), GRID, min_count=8
    ).to_pandas()

    w = TS_SPAN // 8
    b = ((df["doc_id"] * 137) % TS_SPAN) // w
    lin = (df["y"] // 1.0).astype(np.int64) * GRID.nx + (df["x"] // 1.0).astype(np.int64)
    ref = pd.DataFrame({"cell_id": lin, "late": (b >= 4).astype(int)})
    agg = ref.groupby("cell_id").agg(n=("late", "size"), n_late=("late", "sum"))
    agg["n_early"] = agg["n"] - agg["n_late"]
    agg = agg[(agg["n_early"] >= 8) | (agg["n_late"] >= 8)]
    status = np.where(
        (agg["n_early"] >= 8) & (agg["n_late"] >= 8),
        "persistent",
        np.where(agg["n_late"] >= 8, "emerging", "declining"),
    )
    exp = pd.DataFrame(
        {
            "cell_id": agg.index.to_numpy(),
            "n_early": agg["n_early"].to_numpy(),
            "n_late": agg["n_late"].to_numpy(),
            "status": status,
        }
    ).sort_values("cell_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)


def test_dbscan_matches_reference(ray_session):
    from rasterflow.pipelines.proximity import dbscan
    import ray.data

    rng = np.random.default_rng(41)
    # two dense blobs + sparse noise
    blob1 = rng.normal((2.0, 2.0), 0.05, (60, 2))
    blob2 = rng.normal((7.0, 7.0), 0.05, (50, 2))
    noise = rng.uniform(0.0, 10.0, (80, 2))
    pts = np.vstack([blob1, blob2, noise])
    df = pd.DataFrame({"doc_id": np.arange(len(pts), dtype=np.int64),
                       "x": pts[:, 0], "y": pts[:, 1]})
    eps, mp = 0.15, 4
    got = dbscan(ray.data.from_pandas(df).repartition(5), eps=eps, min_pts=mp).to_pandas()

    # reference: all-pairs + BFS over core-core with min-id labels
    n = len(pts)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    adj = (d2 <= eps * eps) & ~np.eye(n, dtype=bool)
    core = adj.sum(1) + 1 >= mp
    label = {}
    for seed in np.flatnonzero(core):
        if seed in label:
            continue
        comp, stack = {int(seed)}, [int(seed)]
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(adj[u] & core):
                if int(v) not in comp:
                    comp.add(int(v))
                    stack.append(int(v))
        m = min(comp)
        for u in comp:
            label[u] = m
    rows = [(u, label[u], True) for u in sorted(label)]
    for u in range(n):
        if core[u]:
            continue
        nbr = [label[int(v)] for v in np.flatnonzero(adj[u]) if core[v]]
        if nbr:
            rows.append((u, min(nbr), False))
    exp = pd.DataFrame(rows, columns=["doc_id", "cluster", "is_core"]).sort_values(
        "doc_id"
    ).reset_index(drop=True)
    assert exp["cluster"].nunique() >= 2  # both blobs found
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)


def test_dbscan_rejects_min_pts_below_two():
    """Isolated points never reach the ε-pair stream, so under min_pts <= 1
    (every point core) they would silently drop out; dbscan refuses."""
    import pytest

    from rasterflow.pipelines.proximity import dbscan

    for mp in (1, 0):
        with pytest.raises(ValueError, match="min_pts >= 2"):
            dbscan(None, eps=0.1, min_pts=mp)


def test_distance_join_bipartite_matches_brute(ray_session):
    from rasterflow.pipelines.proximity import distance_join_bipartite
    import ray.data

    rng = np.random.default_rng(47)
    na, nb = 700, 300
    a = pd.DataFrame({"event_id": np.arange(na, dtype=np.int64),
                      "x": rng.uniform(0.0, 3.0, na), "y": rng.uniform(0.0, 3.0, na)})
    b = pd.DataFrame({"doc_id": np.arange(nb, dtype=np.int64),
                      "x": rng.uniform(0.0, 3.0, nb), "y": rng.uniform(0.0, 3.0, nb)})
    b.loc[0, ["x", "y"]] = a.loc[0, ["x", "y"]].to_numpy()  # exact-coincidence pair
    r = 0.07
    got = distance_join_bipartite(
        ray.data.from_pandas(a).repartition(4),
        ray.data.from_pandas(b).repartition(3),
        radius=r,
    ).to_pandas()

    dx = a["x"].to_numpy()[:, None] - b["x"].to_numpy()[None, :]
    dy = a["y"].to_numpy()[:, None] - b["y"].to_numpy()[None, :]
    d2 = dx * dx + dy * dy
    ia, ib = np.nonzero(d2 <= r * r)
    exp = pd.DataFrame({"event_id": ia.astype(np.int64), "doc_id": ib.astype(np.int64),
                        "d2": d2[ia, ib]}).sort_values(["event_id", "doc_id"]).reset_index(drop=True)
    assert ((got["event_id"] == 0) & (got["doc_id"] == 0) & (got["d2"] == 0.0)).any()
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)


def test_raster_area_union_row(ray_session):
    from rasterflow.geom.polyio import PolygonLayer
    from rasterflow.pipelines.overlay import raster_area

    # two overlapping quads: union < sum of parts
    rings = [
        [(1.0, 1.0), (5.0, 1.0), (5.0, 5.0), (1.0, 5.0)],
        [(3.0, 3.0), (7.0, 3.0), (7.0, 7.0), (3.0, 7.0)],
    ]
    layer = PolygonLayer.from_rings("ra", [[np.asarray(r)] for r in rings])
    grid = Grid.from_bounds(0.0, 0.0, 10.0, 10.0, 0.5)
    got = raster_area(layer, grid, how="index", cell_size=0.25).to_pandas()

    from collections import Counter

    per, union = Counter(), 0
    for lin in range(grid.ncells):
        iy, ix = divmod(lin, grid.nx)
        cx, cy = grid.x0 + (ix + 0.5) * grid.cell, grid.y0 + (iy + 0.5) * grid.cell
        ina = [i for i, r in enumerate(rings) if _pip_ref(cx, cy, r)]
        for i in ina:
            per[i] += 1
        union += bool(ina)
    exp = pd.DataFrame(
        [(-1, union, union * 0.25)] + [(i, n, n * 0.25) for i, n in sorted(per.items())],
        columns=["poly_id", "n_cells", "area"],
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)
    tot = got[got["poly_id"] >= 0]["n_cells"].sum()
    assert got[got["poly_id"] == -1]["n_cells"].iloc[0] < tot  # overlap dissolved


def test_skyline_matches_brute(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import skyline

    rng = np.random.default_rng(67)
    n = 3000
    x = rng.integers(0, 200, n).astype(np.int64)
    y = (200 - x + rng.integers(-30, 30, n)).astype(np.int64)  # anti-correlated
    df = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "a": x, "b": y})
    # planted: duplicate front point must BOTH survive
    df.loc[1, ["a", "b"]] = df.loc[0, ["a", "b"]] = (500, 500)
    got = skyline(ray.data.from_pandas(df).repartition(6), "a", "b").to_pandas()

    A, B = df["a"].to_numpy(), df["b"].to_numpy()
    dom = np.zeros(n, dtype=bool)
    for i in range(n):
        dom[i] = np.any(
            (A >= A[i]) & (B >= B[i]) & ((A > A[i]) | (B > B[i]))
        )
    exp = df[~dom].rename(columns={"a": "a", "b": "b"}).sort_values("doc_id").reset_index(drop=True)
    assert {0, 1}.issubset(set(got["doc_id"]))
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)


def _lev(a, b):
    d = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        nd = [i]
        for j, cb in enumerate(b, 1):
            nd.append(min(d[j] + 1, nd[-1] + 1, d[j - 1] + (ca != cb)))
        d = nd
    return d[-1]


def test_edit1_pairs_matches_dp_brute(ray_session):
    import ray.data

    from rasterflow.pipelines.dedup import edit1_pairs

    strs = (
        ["kitten", "sitten", "sittin", "sitting", "mitten", "kit", "kits", "it"]
        + [f"host{i}" for i in range(20)]
        + ["a", "b", "ab", "ba", "abc"]
    )
    df = pd.DataFrame({"s": strs * 4})  # repeats must collapse first
    got = edit1_pairs(ray.data.from_pandas(df).repartition(5), "s").to_pandas()
    uniq = sorted(set(strs))
    exp = sorted(
        (a, b) for i, a in enumerate(uniq) for b in uniq[i + 1 :] if _lev(a, b) <= 1
    )
    assert sorted(map(tuple, got.to_numpy())) == exp
    assert ("kitten", "mitten") in exp and ("sittin", "sitting") in exp


def test_edit1_pairs_non_ascii(ray_session):
    """Codepoint-level verify: multi-byte UTF-8 must not truncate/miscount."""
    import ray.data

    from rasterflow.pipelines.dedup import edit1_pairs

    df = pd.DataFrame({"s": ["\u00e9a", "ba", "\u00e9ab", "zz", "caf\u00e9", "cafe"]})
    got = sorted(map(tuple, edit1_pairs(ray.data.from_pandas(df), "s").to_pandas().to_numpy()))
    assert got == [("ba", "\u00e9a"), ("cafe", "caf\u00e9"), ("\u00e9a", "\u00e9ab")]


def test_rank_transform_matches_scipy_style_rank(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import rank_transform

    rng = np.random.default_rng(97)
    n = 3000
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "n_chars": rng.integers(0, 80, n).astype(np.int64),  # heavy ties
        }
    )
    got = rank_transform(ray.data.from_pandas(df).repartition(6), "n_chars").to_pandas()
    v = df["n_chars"].to_numpy()
    exp = np.array([(v < x).sum() for x in v], dtype=np.int64)
    assert (got.sort_values("doc_id")["rank_lt"].to_numpy() == exp).all()
    # min value has rank 0; percentile = (rank+1)/n is within (0, 1]
    assert got["rank_lt"].min() == 0


def test_cube_aggregate_matches_pandas(ray_session):
    import ray.data

    from rasterflow.pipelines.relational import cube_aggregate

    rng = np.random.default_rng(101)
    n = 2000
    df = pd.DataFrame(
        {
            "source": rng.choice(["s0", "s1", "s2"], n),
            "lang": rng.choice(["en", "de"], n),
            "v": rng.integers(0, 100, n).astype(np.int64),
        }
    )
    got = cube_aggregate(
        ray.data.from_pandas(df).repartition(5),
        ["source", "lang"],
        {"n": ("v", "size"), "s": ("v", "sum")},
    ).to_pandas()

    frames = []
    for keep in (["source", "lang"], ["source"], ["lang"], []):
        g = df.copy()
        for k in ("source", "lang"):
            if k not in keep:
                g[k] = "ALL"
        frames.append(
            g.groupby(["source", "lang"], as_index=False).agg(n=("v", "size"), s=("v", "sum"))
        )
    exp = pd.concat(frames, ignore_index=True).sort_values(["source", "lang"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)
    # the four grouping sets are all present
    assert ((got["source"] == "ALL") & (got["lang"] == "ALL")).sum() == 1
    assert ((got["source"] == "ALL") & (got["lang"] != "ALL")).sum() == 2
    assert ((got["source"] != "ALL") & (got["lang"] == "ALL")).sum() == 3


def test_group_mad_matches_rank_rule_brute(ray_session):
    import math

    import ray.data

    from rasterflow.pipelines.sampling import group_mad

    rng = np.random.default_rng(103)
    n = 2500
    df = pd.DataFrame(
        {
            "lang": rng.choice(["a", "b", "c"], n),
            "n_chars": rng.integers(0, 300, n).astype(np.int64),
        }
    )
    # plant outliers: MAD must ignore them where std would not
    df.loc[:20, "n_chars"] = 100000
    got = group_mad(ray.data.from_pandas(df).repartition(5), "n_chars", "lang").to_pandas()

    def rank_med(v):
        sv = np.sort(v)
        return int(sv[max(1, math.ceil(0.5 * len(sv))) - 1])

    rows = []
    for g, sub in df.groupby("lang"):
        med = rank_med(sub["n_chars"].to_numpy())
        mad = rank_med(np.abs(sub["n_chars"].to_numpy() - med))
        rows.append((g, med, mad))
    exp = pd.DataFrame(rows, columns=["lang", "median", "mad"])
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)
    assert (got["mad"] < 1000).all()  # outliers didn't poison the scale


def test_run_job_compact_preserves_content(ray_session, tmp_path, monkeypatch):
    """Compaction rewrites many small files into few, row-for-row equal;
    a rerun skips verified partitions (resume contract)."""
    import sys

    import pyarrow.parquet as pq

    import scripts.run_job as RJ
    from rasterflow.sources.fixtures import pages_batch

    ind = tmp_path / "pages"
    ind.mkdir()
    for i in range(12):  # 12 tiny files
        pq.write_table(pages_batch(np.arange(i * 100, (i + 1) * 100)), ind / f"f{i:02d}.parquet")
    argv = ["run_job.py", "--pipeline", "compact", "--input", str(ind),
            "--out", str(tmp_path / "o"), "--partition-size", "6"]
    monkeypatch.setattr(sys, "argv", argv)
    assert RJ.main() == 0
    import glob as g

    outs = sorted(g.glob(str(tmp_path / "o" / "part-*" / "*.parquet")))
    assert 0 < len(outs) < 12  # fewer, larger files
    got = pd.concat([pd.read_parquet(f) for f in outs]).sort_values("url").reset_index(drop=True)
    exp = pd.concat(
        [pd.read_parquet(ind / f"f{i:02d}.parquet") for i in range(12)]
    ).sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)
    # rerun: all partitions verified-skip, content unchanged
    monkeypatch.setattr(sys, "argv", argv)
    assert RJ.main() == 0
    outs2 = sorted(g.glob(str(tmp_path / "o" / "part-*" / "*.parquet")))
    assert outs2 == outs


def test_group_skyline_matches_brute(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import group_skyline

    rng = np.random.default_rng(107)
    n = 2000
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "g": rng.choice(["p", "q", "r"], n),
            "a": rng.integers(0, 100, n).astype(np.int64),
        }
    )
    df["b"] = (100 - df["a"] + rng.integers(-20, 20, n)).astype(np.int64)
    got = group_skyline(
        ray.data.from_pandas(df).repartition(6), "g", "a", "b"
    ).to_pandas()

    keep = []
    for gv, sub in df.groupby("g"):
        A, B = sub["a"].to_numpy(), sub["b"].to_numpy()
        ids = sub["doc_id"].to_numpy()
        for i in range(len(sub)):
            dom = ((A >= A[i]) & (B >= B[i]) & ((A > A[i]) | (B > B[i]))).any()
            if not dom:
                keep.append(ids[i])
    exp = df[df["doc_id"].isin(keep)][["g", "doc_id", "a", "b"]].sort_values(
        ["g", "doc_id"]
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)
    assert got["g"].nunique() == 3


def test_group_gini_matches_pair_brute(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import group_gini

    rng = np.random.default_rng(109)
    n = 1200
    df = pd.DataFrame(
        {
            "lang": rng.choice(["a", "b"], n),
            "n_chars": rng.integers(0, 200, n).astype(np.int64),
        }
    )
    got = group_gini(ray.data.from_pandas(df).repartition(5), "n_chars", "lang").to_pandas()
    rows = []
    for g, sub in df.groupby("lang"):
        v = sub["n_chars"].to_numpy().astype(np.int64)
        gnum = int(np.abs(v[:, None] - v[None, :]).sum())
        rows.append((g, len(v), int(v.sum()), gnum))
    exp = pd.DataFrame(rows, columns=["lang", "n", "sum_v", "gini_num"])
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)
    # constant column -> zero inequality
    cdf = pd.DataFrame({"lang": ["z"] * 50, "n_chars": [7] * 50})
    z = group_gini(ray.data.from_pandas(cdf), "n_chars", "lang").to_pandas()
    assert z["gini_num"].iloc[0] == 0


def test_group_rank_transform_matches_brute(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import group_rank_transform

    rng = np.random.default_rng(113)
    n = 2200
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "lang": rng.choice(["a", "b", "c"], n),
            "n_chars": rng.integers(0, 60, n).astype(np.int64),  # tie-heavy
        }
    )
    got = group_rank_transform(
        ray.data.from_pandas(df).repartition(6), "n_chars", "lang"
    ).to_pandas()
    exp = np.empty(n, dtype=np.int64)
    for g, sub in df.groupby("lang"):
        v = sub["n_chars"].to_numpy()
        exp[sub.index.to_numpy()] = np.array([(v < x).sum() for x in v])
    assert (got.sort_values("doc_id")["rank_lt"].to_numpy() == exp).all()


def test_domain_trend_matches_brute(ray_session):
    import ray.data

    from rasterflow.pipelines.web import domain_trend
    from rasterflow.sources.fixtures import TS_SPAN

    n = 1600
    df = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64)})
    got = domain_trend(
        ray.data.from_pandas(df).repartition(5), min_count=5
    ).to_pandas()

    w = TS_SPAN // 8
    late = (((df["doc_id"] * 137) % TS_SPAN) // w) >= 4
    dom = "site" + ((df["doc_id"] // 4) % 50).astype(str) + ".example"
    ref = pd.DataFrame({"domain": dom, "late": late.astype(int)})
    agg = ref.groupby("domain").agg(n=("late", "size"), n_late=("late", "sum"))
    agg["n_early"] = agg["n"] - agg["n_late"]
    agg = agg[(agg["n_early"] >= 5) | (agg["n_late"] >= 5)]
    status = np.where(
        (agg["n_early"] >= 5) & (agg["n_late"] >= 5),
        "persistent",
        np.where(agg["n_late"] >= 5, "emerging", "declining"),
    )
    exp = pd.DataFrame(
        {
            "domain": agg.index.to_numpy(),
            "n_early": agg["n_early"].to_numpy(),
            "n_late": agg["n_late"].to_numpy(),
            "status": status,
        }
    ).sort_values("domain").reset_index(drop=True)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)
