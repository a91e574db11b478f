"""Round-4 regression tests: the five ADVICE findings (string-key Bloom
semi join, Bloom memo eviction, non-string ROLLUP keys, half-away cents
rounding, checkpoint-dir reuse) plus fixtures for the round-4 directives."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def test_bloom_semi_join_string_keys(ray_session):
    """ADVICE r3: probe_positions crashed on string keys (astype uint64);
    URL/blocklist decontamination — the advertised use — joins on strings."""
    import ray.data

    from rasterflow.pipelines.relational import bloom_semi_join

    rng = np.random.default_rng(43)
    urls = [f"https://host{i}.example/p{i}" for i in range(500)]
    left = pd.DataFrame(
        {"url": [urls[i] for i in rng.integers(0, 500, 2000)], "v": np.arange(2000)}
    )
    right = pd.DataFrame({"url": [urls[i] for i in rng.integers(0, 80, 60)]})
    got = (
        bloom_semi_join(
            ray.data.from_pandas(left).repartition(4),
            ray.data.from_pandas(right).repartition(2),
            on="url",
            left_cols=["v"],
            nbits=1 << 10,  # tiny: forces false positives through the verify
        )
        .to_pandas()
        .sort_values(["url", "v"])
        .reset_index(drop=True)
    )
    keys = set(right["url"])
    exp = (
        left[left["url"].isin(keys)]
        .sort_values(["url", "v"])
        .reset_index(drop=True)[["url", "v"]]
    )
    pd.testing.assert_frame_equal(got, exp)


def test_bloom_memo_single_entry(ray_session):
    """ADVICE r3: _BLOOM_MEMO pinned one plasma view per job forever; it is
    now single-entry (cleared before each insert)."""
    import ray.data

    from rasterflow.pipelines import relational
    from rasterflow.pipelines.relational import bloom_semi_join

    left = pd.DataFrame({"k": np.arange(100), "v": np.arange(100)})
    for salt in range(3):
        right = pd.DataFrame({"k": np.arange(salt, 50 + salt)})
        bloom_semi_join(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            on="k",
            left_cols=["v"],
            exact=False,
        ).materialize()
    # driver-process memo (local-mode probes may run in-process too)
    assert len(relational._BLOOM_MEMO) <= 1


def test_rollup_aggregate_int_keys(ray_session):
    """ADVICE r3: the ALL sentinel is a string, so int key columns made the
    per-level union carry conflicting types and fail; keys are now cast."""
    import ray.data

    from rasterflow.pipelines.relational import rollup_aggregate

    rng = np.random.default_rng(47)
    df = pd.DataFrame(
        {
            "week": rng.integers(1, 4, 300),
            "status": rng.integers(200, 203, 300),
            "n": rng.integers(1, 50, 300),
        }
    )
    got = (
        rollup_aggregate(
            ray.data.from_pandas(df).repartition(3),
            ["week", "status"],
            {"cnt": ("n", "count"), "s": ("n", "sum")},
        )
        .to_pandas()
        .sort_values(["week", "status"])
        .reset_index(drop=True)
    )
    sdf = df.assign(week=df["week"].astype(str), status=df["status"].astype(str))
    fine = sdf.groupby(["week", "status"], as_index=False).agg(
        cnt=("n", "count"), s=("n", "sum")
    )
    mid = sdf.groupby(["week"], as_index=False).agg(cnt=("n", "count"), s=("n", "sum"))
    mid["status"] = "ALL"
    top = pd.DataFrame(
        {"week": ["ALL"], "status": ["ALL"], "cnt": [len(df)], "s": [df["n"].sum()]}
    )
    exp = (
        pd.concat([fine, mid, top], ignore_index=True)[["week", "status", "cnt", "s"]]
        .sort_values(["week", "status"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["week", "status", "cnt", "s"]].astype({"cnt": "int64", "s": "int64"}),
        exp.astype({"cnt": "int64", "s": "int64"}),
    )


def test_cents_half_away_ties():
    """ADVICE r3: np.round is half-to-even; SQL round() is half-away.  Pin
    the tie behavior on binary-exact .5 values (0.125*100 == 12.5)."""
    from rasterflow.pipelines.windows import _cents_half_away

    vals = np.array([0.125, 0.375, -0.125, -0.375, 1.0, 0.0, 2.005])
    got = _cents_half_away(vals)
    # np.round would give 12, 38(!), -12, -38 — even-rounded
    assert list(got[:6]) == [13, 38, -13, -38, 100, 0]
    # 2.005 is NOT binary-exact (2.005*100 = 200.49999...): floor+0.5 keeps
    # whatever the float actually is; duckdb's round on the same double agrees
    import duckdb

    exp = duckdb.sql("SELECT CAST(round(2.005::DOUBLE * 100) AS BIGINT)").fetchone()[0]
    assert got[6] == exp


def test_rolling_sum_tie_values_match_oracle(ray_session):
    """rolling_sum on values whose cents land exactly on .5 hash-matches the
    DuckDB window oracle (the latent mismatch ADVICE flagged)."""
    import duckdb
    import ray.data

    from rasterflow.pipelines.windows import rolling_sum

    n = 60
    rng = np.random.default_rng(53)
    df = pd.DataFrame(
        {
            "event_id": np.arange(n),
            "user_id": rng.integers(0, 5, n),
            "ts": np.sort(rng.integers(0, 10_000, n)),
            "value": rng.choice([0.125, 0.375, 0.625, 1.875, 2.0], n),
        }
    )
    got = (
        rolling_sum(ray.data.from_pandas(df).repartition(3), window=3)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("events", df)
    exp = con.sql(
        """
        SELECT event_id, user_id,
               SUM(CAST(round(value*100) AS BIGINT)) OVER (
                 PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS roll_cents
        FROM events ORDER BY event_id
        """
    ).df()
    pd.testing.assert_frame_equal(
        got[["event_id", "user_id", "roll_cents"]].astype("int64"),
        exp.astype("int64"),
    )


def test_flat_bytes_non_utf8():
    from rasterflow.stages.texthash import flat_bytes

    vals = [b"\xff\xfe", b"", b"abc\x00def", "plain".encode()]
    data, offs = flat_bytes(pa.array(vals, type=pa.binary()))
    assert list(offs) == [0, 2, 2, 9, 14]
    assert bytes(data[:2]) == b"\xff\xfe"
    assert bytes(data[2:9]) == b"abc\x00def"
    # string columns work too (flat_utf8 compatibility)
    d2, o2 = flat_bytes(pa.array(["hi", "yo"]))
    assert bytes(d2) == b"hiyo" and list(o2) == [0, 2, 4]


def _hot_gram_corpus(n_docs: int, shared_len: int, seed: int = 7):
    """Docs sharing exactly a ``shared_len``-char prefix; the rest of each
    doc is doc-unique (distinct first filler char), so the longest common
    span across any two docs is exactly ``shared_len``."""
    rng = np.random.default_rng(seed)
    common = "".join(chr(ord("a") + c) for c in rng.integers(0, 26, shared_len))
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    texts = []
    for _i in range(n_docs):
        # purely random fillers: two fillers share an expected O(log n)-char
        # prefix at most, so pairwise common spans stay close to shared_len
        filler = "".join(alphabet[c] for c in rng.integers(0, 26, 60))
        texts.append(common + filler)
    return pd.DataFrame({"doc_id": np.arange(n_docs), "text": texts})


def test_substring_tiled_equals_untiled(ray_session):
    """Directive r3#2: hot-bucket (i,j) tiling is a re-partition of the
    enumeration, not an approximation — identical pairs to the single-task
    path on a corpus with one gram shared by 120 docs."""
    import ray.data

    from rasterflow.pipelines.dedup import substring_dup_pairs

    df = _hot_gram_corpus(120, shared_len=45)  # 45 >= min_len: all true pairs
    ds = ray.data.from_pandas(df).repartition(4)
    tiled = substring_dup_pairs(ds, min_len=30, k=20, tile_hot=8).to_pandas()
    plain = substring_dup_pairs(ds, min_len=30, k=20, tile_hot=None).to_pandas()
    pd.testing.assert_frame_equal(
        tiled.reset_index(drop=True), plain.reset_index(drop=True)
    )
    # every pair shares the 45-char prefix
    assert len(tiled) == 120 * 119 // 2


def test_substring_hot_gram_stress_uncapped(ray_session):
    """Directive r3#2 done-criterion: one k-gram shared by every doc
    completes UNCAPPED — the hot bucket is tiled across independent tasks,
    each enumerating at most ~tile² candidates (tile=128 here), instead of
    one task materializing C(n,2) at once.  The shared span is 29 chars
    plus at most a few coincidental filler chars (≪ min_len=40), so the
    exact answer is zero pairs and every candidate is rejected by the
    anchored byte verify."""
    import ray.data

    from rasterflow.pipelines.dedup import substring_dup_pairs

    df = _hot_gram_corpus(1200, shared_len=29)
    ds = ray.data.from_pandas(df).repartition(8)
    out = substring_dup_pairs(ds, min_len=40, k=20, tile_hot=128).to_pandas()
    assert len(out) == 0


def test_hash_join_skew_salting(ray_session):
    """Directive r3#4: a zipf-ish key (one key = 20% of the left side) is
    salted across dedicated partitions with the right side replicated —
    same rows as the unsalted join, and no partition holds a straggler
    share of the work."""
    import ray.data

    from rasterflow.pipelines.relational import _tagged_key_partition, hash_join

    rng = np.random.default_rng(71)
    n = 50_000
    k = np.where(rng.random(n) < 0.2, 7, rng.integers(0, 500, n))
    left = pd.DataFrame({"k": k, "v": np.arange(n)})
    right = pd.DataFrame({"k": np.arange(500), "w": np.arange(500) * 10})
    lds = ray.data.from_pandas(left).repartition(8)
    rds = ray.data.from_pandas(right).repartition(2)

    got = (
        hash_join(lds, rds, on="k", left_cols=["v"], right_cols=["w"], skew="auto")
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    plain = (
        hash_join(lds, rds, on="k", left_cols=["v"], right_cols=["w"])
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, plain)
    exp = left.merge(right, on="k").sort_values(["k", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype("int64"), exp.astype("int64"))

    # partition balance: LEFT-row load per partition (the merge driver) —
    # salted max within 2x of the ideal share; unsalted has a 20% straggler
    hot = pd.DataFrame({"k": [7]})
    for hot_df, should_balance in ((hot, True), (None, False)):
        both, _ = _tagged_key_partition(
            lds, rds, ["k"], ["k", "v"], ["k", "w"], 32, hot_df=hot_df, salt=8
        )
        t = both.to_pandas()
        sizes = t[t["_side"] == 0].groupby("_pk").size()
        ratio = sizes.max() / (len(left) / 32)
        if should_balance:
            assert ratio < 2.0, ratio
        else:
            assert ratio > 5.0, ratio  # the hot key concentrates in one task


def test_ivf_recall_on_clustered_layout(ray_session):
    """Directive r3#5: centroid sampling is layout-independent.  On a
    dataset SORTED by cluster, the old limit() sample read only the first
    blocks (one region ⇒ collapsed centroids); the hash-threshold sample
    must keep recall vs brute force ≥ 0.8 anyway."""
    import ray.data

    from rasterflow.pipelines.similarity import cosine_topk, cosine_topk_ivf

    rng = np.random.default_rng(73)
    ncl, per = 12, 500
    centers = rng.normal(size=(ncl, 16))
    vecs = np.concatenate(
        [centers[c] + 0.15 * rng.normal(size=(per, 16)) for c in range(ncl)]
    )
    # vec_id ordered WITH the clusters: block 0 = cluster 0, etc.
    df = pd.DataFrame(
        {"vec_id": np.arange(ncl * per), "embedding": list(vecs.astype(np.float64))}
    )
    ds = ray.data.from_pandas(df).repartition(12)
    q = centers[[2, 7, 11]] + 0.05 * rng.normal(size=(3, 16))
    exact = cosine_topk(ds, q, 10).to_pandas()
    approx = cosine_topk_ivf(ds, q, 10, nprobe=4, sample_size=1024).to_pandas()
    rec = []
    for qi in range(3):
        t = set(exact[exact["query_id"] == qi]["vec_id"])
        g = set(approx[approx["query_id"] == qi]["vec_id"])
        rec.append(len(t & g) / len(t))
    assert np.mean(rec) >= 0.8, rec


def test_centroid_sample_layout_invariant(ray_session):
    """The hash sample picks the SAME rows regardless of block order, so
    centroids are identical for shuffled vs clustered layouts."""
    import ray.data

    from rasterflow.pipelines.similarity import _centroids_for

    rng = np.random.default_rng(79)
    vecs = rng.normal(size=(4000, 8))
    df = pd.DataFrame({"vec_id": np.arange(4000), "embedding": list(vecs)})
    shuffled = df.sample(frac=1.0, random_state=3).reset_index(drop=True)
    c1, _ = _centroids_for(
        ray.data.from_pandas(df).repartition(8), 8, 512, "embedding"
    )
    c2, _ = _centroids_for(
        ray.data.from_pandas(shuffled).repartition(8), 8, 512, "embedding"
    )
    np.testing.assert_allclose(c1, c2)


def test_knn_bulk_cohorts_match_brute(ray_session):
    """Directive r3#6: the cohort-vectorized shard query (queries grouped by
    grid cell, shared ring gathers, flattened per-row top-k sort) is exactly
    the scalar ring expansion — pinned against knn_brute for 400 queries,
    mixing dense cohorts (many queries per cell) and scattered singletons."""
    import ray.data

    from rasterflow.pipelines.knn import KnnCellRingIndex, knn_brute

    rng = np.random.default_rng(83)
    n = 60_000
    pts = pd.DataFrame(
        {
            "doc_id": np.arange(n),
            "x": rng.uniform(0, 100, n),
            "y": rng.uniform(0, 100, n),
        }
    )
    ds = ray.data.from_pandas(pts).repartition(8)
    # 200 clustered queries (a few cells) + 200 scattered
    qc = np.column_stack(
        [50.0 + rng.uniform(0, 2.0, 200), 50.0 + rng.uniform(0, 2.0, 200)]
    )
    qs_ = np.column_stack([rng.uniform(0, 100, 200), rng.uniform(0, 100, 200)])
    q = np.concatenate([qc, qs_])
    idx = KnnCellRingIndex(ds, cell=1.0, id_col="doc_id", num_shards=4)
    got = idx.query(q, 5).to_pandas().reset_index(drop=True)
    exp = knn_brute(ds, q, 5, id_col="doc_id").to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_knn_shard_cohort_equals_scalar(ray_session):
    """Direct shard-level check: vectorized query == query_scalar on one
    actor, including boundary-tie and empty-ring cases."""
    import ray

    from rasterflow.pipelines.knn import KnnShardActor

    rng = np.random.default_rng(89)
    n = 5_000
    t = pa.table(
        {
            "doc_id": np.arange(n),
            # integer-ish coords force exact distance ties
            "x": rng.integers(0, 50, n).astype(np.float64),
            "y": rng.integers(0, 50, n).astype(np.float64),
        }
    )
    actor = KnnShardActor.remote([t], "doc_id", 2.0)
    ray.get(actor.ready.remote())
    q = np.column_stack(
        [rng.integers(0, 50, 100).astype(np.float64), rng.integers(0, 50, 100).astype(np.float64)]
    )
    vi, vd = ray.get(actor.query.remote(q, 7))
    si, sd = ray.get(actor.query_scalar.remote(q, 7))
    for a, b in zip(vi, si):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(vd, sd):
        np.testing.assert_allclose(a, b)


def test_png_roundtrip():
    """Directive r3#7: one REAL image format decoded end-to-end in-container
    — pure-numpy PNG codec, both encoder filter types, edge dims."""
    from rasterflow.stages.png import decode_png_gray, encode_png_gray

    rng = np.random.default_rng(97)
    for h, w in [(1, 1), (1, 17), (23, 1), (16, 16), (37, 51)]:
        img = rng.integers(0, 256, (h, w)).astype(np.uint8)
        for ft in (0, 2):
            out = decode_png_gray(encode_png_gray(img, filter_type=ft))
            np.testing.assert_array_equal(out, img)


def test_png_decode_all_filters():
    """Decoder handles Sub/Average/Paeth scanlines too (hand-built raw
    streams — our encoder never emits them, the spec allows them)."""
    import struct
    import zlib

    from rasterflow.stages.png import _SIG, _chunk, decode_png_gray

    rng = np.random.default_rng(101)
    img = rng.integers(0, 256, (6, 8)).astype(np.uint8)

    def paeth(a, b, c):
        p = a + b - c
        pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
        return a if (pa_ <= pb and pa_ <= pc) else (b if pb <= pc else c)

    # filter each row with a rotating filter type 0..4
    rows = []
    prior = np.zeros(8, dtype=np.int64)
    for r in range(6):
        f = r % 5
        cur = img[r].astype(np.int64)
        if f == 0:
            enc = cur
        elif f == 1:
            enc = np.concatenate(([cur[0]], (cur[1:] - cur[:-1]) % 256))
        elif f == 2:
            enc = (cur - prior) % 256
        elif f == 3:
            enc = np.empty(8, dtype=np.int64)
            for i in range(8):
                left = cur[i - 1] if i else 0
                enc[i] = (cur[i] - (left + prior[i]) // 2) % 256
        else:
            enc = np.empty(8, dtype=np.int64)
            for i in range(8):
                left = cur[i - 1] if i else 0
                ul = prior[i - 1] if i else 0
                enc[i] = (cur[i] - paeth(left, prior[i], ul)) % 256
        rows.append(bytes([f]) + bytes(enc.astype(np.uint8)))
        prior = cur
    raw = b"".join(rows)
    ihdr = struct.pack(">IIBBBBB", 8, 6, 8, 0, 0, 0, 0)
    png = (
        _SIG
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw))
        + _chunk(b"IEND", b"")
    )
    np.testing.assert_array_equal(decode_png_gray(png), img)


def test_png_rejects_garbage():
    import pytest as _pytest

    from rasterflow.stages.png import decode_png_gray, encode_png_gray

    with _pytest.raises(ValueError, match="signature"):
        decode_png_gray(b"JFIF" * 10)
    good = encode_png_gray(np.zeros((4, 4), dtype=np.uint8))
    bad = good[:40] + bytes([good[40] ^ 0xFF]) + good[41:]
    with _pytest.raises(ValueError):
        decode_png_gray(bad)


def test_decode_stage_png_path(ray_session):
    """ImageDecodeStage(decoder='png'): real encode->decode through the
    actor-pool stage; stats must equal the direct pixel stats."""
    import ray.data

    from rasterflow.pipelines.multimodal import decode_images
    from rasterflow.stages.png import encode_png_gray

    rng = np.random.default_rng(103)
    imgs = [rng.integers(0, 256, (16, 16)).astype(np.uint8) for _ in range(40)]
    df = pd.DataFrame(
        {
            "doc_id": np.arange(40),
            "image": [encode_png_gray(im, filter_type=i % 2 * 2) for i, im in enumerate(imgs)],
        }
    )
    out = (
        decode_images(
            ray.data.from_pandas(df).repartition(3),
            payload_col="image",
            id_col="doc_id",
            decoder="png",
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for i, im in enumerate(imgs):
        row = out.iloc[i]
        assert row["width"] == 16 and row["height"] == 16
        assert row["mean_luma"] == im.astype(np.float64).mean() / 255.0
        np.testing.assert_allclose(
            np.asarray(list(row["feature"]), dtype=np.float64),
            np.asarray(
                [im[2 * j : 2 * j + 2].astype(np.float64).mean() / 255.0 for j in range(8)],
                dtype=np.float32,
            ).astype(np.float64),
        )


def test_hash_join_left_outer(ray_session):
    """Left outer hash join: unmatched left rows survive NaN/None-padded;
    numeric right cols come back float64, string right cols object/None."""
    import ray.data

    from rasterflow.pipelines.relational import hash_join

    rng = np.random.default_rng(107)
    left = pd.DataFrame({"k": rng.integers(0, 100, 2000), "v": np.arange(2000)})
    right = pd.DataFrame(
        {"k": np.arange(0, 60), "w": np.arange(60) * 2, "tag": [f"t{i}" for i in range(60)]}
    )
    got = (
        hash_join(
            ray.data.from_pandas(left).repartition(4),
            ray.data.from_pandas(right).repartition(2),
            on="k",
            left_cols=["v"],
            right_cols=["w", "tag"],
            how="left",
        )
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    exp = (
        left.merge(right, on="k", how="left")
        .sort_values(["k", "v"])
        .reset_index(drop=True)[["k", "v", "w", "tag"]]
    )
    exp["w"] = exp["w"].astype(np.float64)
    got["tag"] = got["tag"].where(pd.notna(got["tag"]), np.nan)
    pd.testing.assert_frame_equal(got, exp)
    assert len(got) == len(left)  # every left row exactly once
    # and with skew salting on the same data
    got2 = (
        hash_join(
            ray.data.from_pandas(left).repartition(4),
            ray.data.from_pandas(right).repartition(2),
            on="k",
            left_cols=["v"],
            right_cols=["w", "tag"],
            how="left",
            skew=pd.DataFrame({"k": [left["k"].mode()[0]]}),
        )
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    got2["tag"] = got2["tag"].where(pd.notna(got2["tag"]), np.nan)
    pd.testing.assert_frame_equal(got2, exp)


def test_hash_join_left_pads_empty_right_float64(ray_session):
    """A left join against a right side with no rows (and so no schema) pads
    the right value columns float64 NaN, not object/None."""
    import ray.data

    from rasterflow.pipelines.relational import hash_join

    left = pd.DataFrame({"k": np.arange(10), "v": np.arange(10) * 1.5})
    right = pd.DataFrame({"k": np.arange(3), "w": np.arange(3) * 2})
    empty = ray.data.from_pandas(right).filter(lambda r: False)
    assert empty.schema(fetch_if_missing=True) is None
    got = (
        hash_join(ray.data.from_pandas(left), empty, on="k", left_cols=["v"], right_cols=["w"], how="left")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert got["w"].dtype == np.float64
    assert got["w"].isna().all()
    pd.testing.assert_frame_equal(got[["k", "v"]], left)


def test_group_stats_matches_numpy(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import group_stats

    rng = np.random.default_rng(109)
    df = pd.DataFrame(
        {
            "g": np.array(["a", "b", "c"])[rng.integers(0, 3, 10_000)],
            "v": rng.integers(0, 5000, 10_000),
        }
    )
    got = (
        group_stats(ray.data.from_pandas(df).repartition(6), "v", "g")
        .to_pandas()
        .set_index("g")
    )
    for g, sub in df.groupby("g"):
        v = sub["v"].to_numpy().astype(np.float64)
        assert got.loc[g, "n"] == len(v)
        assert got.loc[g, "mean"] == v.sum() / len(v)
        # same closed form, same op order -> exact
        s, s2, n = v.sum(), (v * v).sum(), float(len(v))
        assert got.loc[g, "var"] == (s2 - s * s / n) / (n - 1)


def test_group_sample_k_partition_invariant(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import group_sample_k

    rng = np.random.default_rng(113)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(5000),
            "lang": np.array(["en", "de", "fr"])[rng.integers(0, 3, 5000)],
        }
    )
    outs = []
    for parts in (2, 13):
        outs.append(
            group_sample_k(
                ray.data.from_pandas(df).repartition(parts), "lang", 7
            )
            .to_pandas()
            .reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(outs[0], outs[1])
    assert (outs[0].groupby("lang").size() == 7).all()


def test_cc_checkpoint_rerun_same_dir(ray_session, tmp_path):
    """ADVICE r3: rerunning with the same checkpoint_dir merged stale
    round-N fragments with fresh edges; round dirs are now deleted before
    write, through pyarrow.fs."""
    import ray.data

    from rasterflow.pipelines.dedup import neardup_clusters

    texts = (
        ["alpha beta gamma delta epsilon zeta"] * 3
        + ["one two three four five six seven"] * 2
        + [f"unique text number {i} with words {i * 7} {i * 13}" for i in range(10)]
    )
    df = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    ck = str(tmp_path / "cc")

    def run():
        return (
            neardup_clusters(
                ray.data.from_pandas(df).repartition(3),
                threshold=0.5,
                distributed=True,
                checkpoint_dir=ck,
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

    first = run()
    second = run()  # same dir: must not see the first run's fragments
    pd.testing.assert_frame_equal(first, second)
    assert len(first) > 0


def test_full_outer_hash_join(ray_session):
    """Full outer: unmatched rows from BOTH sides survive exactly once."""
    import ray.data

    from rasterflow.pipelines.relational import hash_join

    left = pd.DataFrame({"k": [1, 2, 3, 3, 5], "lv": [10, 20, 30, 31, 50]})
    right = pd.DataFrame({"k": [2, 3, 4, 4], "rv": ["b", "c", "d", "e"]})
    got = (
        hash_join(
            ray.data.from_pandas(left).repartition(3),
            ray.data.from_pandas(right).repartition(2),
            on="k", left_cols=["lv"], right_cols=["rv"], how="outer",
        )
        .to_pandas()
        .sort_values(["k", "lv", "rv"], na_position="last")
        .reset_index(drop=True)
    )
    exp = (
        pd.merge(left, right, on="k", how="outer")
        .sort_values(["k", "lv", "rv"], na_position="last")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["k", "lv", "rv"]], exp, check_dtype=False)
    # outer + skew is rejected up front
    with pytest.raises(ValueError, match="incompatible"):
        hash_join(
            ray.data.from_pandas(left), ray.data.from_pandas(right),
            on="k", left_cols=["lv"], right_cols=["rv"], how="outer", skew="auto",
        )
