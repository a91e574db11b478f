"""Tests for dedup, text analysis, similarity, multimodal operators."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from rasterflow.pipelines.dedup import (
    exact_dedup,
    minhash_lsh_pairs,
    ngram_jaccard_pairs,
    simhash_pairs,
)
from rasterflow.pipelines.multimodal import decode_images, sample_audio_frames
from rasterflow.pipelines.similarity import (
    cosine_topk,
    cosine_topk_ivf,
    embedding_neardup_pairs,
)
from rasterflow.pipelines.textstats import fingerprint, lang_id, quality_score, token_count


def make_docs(ray_session):
    import ray.data

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy dog",  # exact dup of 0
        "the quick brown fox jumps over the lazy cat",  # near dup of 0
        "completely different content about spark and ray pipelines",
        "el rapido zorro marron salta sobre el perro perezoso y la casa",
        "der schnelle braune fuchs springt uber den faulen hund und das ist gut",
        "le renard brun rapide saute par dessus le chien paresseux et les autres",
        "short",
    ]
    return ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})), texts


def test_exact_dedup(ray_session):
    ds, texts = make_docs(ray_session)
    out = exact_dedup(ds).to_pandas()
    # doc 1 deduped into doc 0
    assert 1 not in set(out["doc_id"])
    assert out[out["doc_id"] == 0]["n"].iloc[0] == 2
    assert len(out) == len(texts) - 1


def test_minhash_lsh_finds_near_dup(ray_session):
    ds, _ = make_docs(ray_session)
    out = minhash_lsh_pairs(ds, threshold=0.4).to_pandas()
    pairs = set(zip(out["id_a"], out["id_b"]))
    assert (0, 1) in pairs  # exact dup → est_jaccard 1.0
    assert out[(out["id_a"] == 0) & (out["id_b"] == 1)]["est_jaccard"].iloc[0] == 1.0
    assert (0, 2) in pairs or (1, 2) in pairs  # near dup found
    assert (3, 4) not in pairs


def test_ngram_jaccard_pairs(ray_session):
    ds, texts = make_docs(ray_session)
    out = ngram_jaccard_pairs(ds, threshold=0.3).to_pandas()
    pairs = set(zip(out["id_a"], out["id_b"]))
    assert (0, 1) in pairs
    row = out[(out["id_a"] == 0) & (out["id_b"] == 1)]
    assert row["jaccard"].iloc[0] == 1.0
    # verify one reported jaccard against a hand computation
    def grams(t):
        tok = t.split()
        return {tuple(tok[i : i + 3]) for i in range(max(1, len(tok) - 2))}

    if (0, 2) in pairs:
        j = out[(out["id_a"] == 0) & (out["id_b"] == 2)]["jaccard"].iloc[0]
        g0, g2 = grams(texts[0]), grams(texts[2])
        assert abs(j - len(g0 & g2) / len(g0 | g2)) < 1e-12


def _brute_jaccard_pairs(texts, ngram, threshold):
    def grams(t):
        tok = t.split()
        if not tok:
            return set()
        if len(tok) < ngram:
            return {tuple(tok)}
        return {tuple(tok[i : i + ngram]) for i in range(len(tok) - ngram + 1)}

    gs = [grams(t) for t in texts]
    out = {}
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            if not gs[i] or not gs[j]:
                continue
            inter = len(gs[i] & gs[j])
            union = len(gs[i] | gs[j])
            jac = inter / union if union else 1.0
            if jac >= threshold:
                out[(i, j)] = jac
    return out


@pytest.mark.parametrize("threshold", [0.3, 0.5, 0.8])
def test_ngram_jaccard_exact_vs_bruteforce(ray_session, threshold):
    """Dense small-vocab corpus: the vectorized bucket verify must reproduce
    brute-force all-pairs Jaccard exactly (pairs AND values)."""
    import ray.data

    rng = np.random.default_rng(7)
    vocab = [f"w{k}" for k in range(10)]
    base = [" ".join(rng.choice(vocab, size=int(rng.integers(4, 12)))) for _ in range(12)]
    texts = []
    for i in range(80):
        b = base[int(rng.integers(0, 12))].split()
        if rng.random() < 0.6 and len(b) > 1:
            b[int(rng.integers(0, len(b)))] = vocab[int(rng.integers(0, 10))]
        if rng.random() < 0.3:
            b.append(vocab[int(rng.integers(0, 10))])
        texts.append(" ".join(b))
    texts += ["", "   "]  # zero-gram docs must be ignored
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts}))
    out = ngram_jaccard_pairs(ds, ngram=3, threshold=threshold).to_pandas()
    got = {(int(a), int(b)): j for a, b, j in zip(out["id_a"], out["id_b"], out["jaccard"])}
    exp = _brute_jaccard_pairs(texts, 3, threshold)
    assert len(exp) > 50  # the fixture must actually exercise dense buckets
    assert set(got) == set(exp)
    for k in exp:
        assert abs(got[k] - exp[k]) < 1e-12


def test_ngram_jaccard_hot_gram_uncapped(ray_session):
    """VERDICT r2 #1 stress: one 3-gram shared by 10^4 otherwise-distinct
    docs must complete WITHOUT a bucket cap (the old per-pair loop was
    quadratic here) and emit no false pairs."""
    import time

    import ray.data

    n = 10_000
    texts = [
        "alpha beta gamma " + " ".join(f"u{i}w{k}" for k in range(18)) for i in range(n)
    ]
    # plant two true near-dup groups to assert recall
    texts[7000] = texts[3]
    texts[7001] = texts[4] + " zz"
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(n), "text": texts}))
    t0 = time.perf_counter()
    out = ngram_jaccard_pairs(ds, ngram=3, threshold=0.5, max_bucket=None).to_pandas()
    elapsed = time.perf_counter() - t0
    pairs = set(zip(out["id_a"], out["id_b"]))
    assert (3, 7000) in pairs
    assert (4, 7001) in pairs
    assert len(pairs) == 2  # no pair from the hot gram alone
    assert elapsed < 120  # the old loop was ~C(5000,2) python iterations


def test_simhash_pairs(ray_session):
    ds, _ = make_docs(ray_session)
    out = simhash_pairs(ds, max_hamming=3).to_pandas()
    pairs = set(zip(out["id_a"], out["id_b"]))
    assert (0, 1) in pairs
    assert out[(out["id_a"] == 0) & (out["id_b"] == 1)]["hamming"].iloc[0] == 0


def test_token_count_and_quality(ray_session):
    ds, texts = make_docs(ray_session)
    tc = token_count(ds).to_pandas().sort_values("doc_id")
    assert list(tc["n_tok"]) == [len(t.split()) for t in texts]
    q = quality_score(ds).to_pandas().sort_values("doc_id")
    assert (q["score"] >= 0).all() and (q["score"] <= 1.0).all()
    assert q["n_chars_q"].iloc[0] == len(texts[0])


def test_lang_id(ray_session):
    ds, _ = make_docs(ray_session)
    out = lang_id(ds).to_pandas().sort_values("doc_id")
    assert out["lang_pred"].iloc[0] == "en"
    assert out["lang_pred"].iloc[4] == "es"
    assert out["lang_pred"].iloc[5] == "de"
    assert out["lang_pred"].iloc[6] == "fr"


def test_fingerprint_deterministic(ray_session):
    ds, _ = make_docs(ray_session)
    a = fingerprint(ds).to_pandas().sort_values("doc_id")
    b = fingerprint(ds).to_pandas().sort_values("doc_id")
    assert list(a["fp"]) == list(b["fp"])
    assert a["fp"].iloc[0] == a["fp"].iloc[1]  # same text → same fp
    assert a["fp"].iloc[0] != a["fp"].iloc[3]


@pytest.fixture(scope="module")
def emb(ray_session):
    import ray.data

    rng = np.random.default_rng(5)
    n, d = 400, 16
    base = rng.standard_normal((n, d))
    base[50] = base[10] + rng.standard_normal(d) * 0.01  # near dup pair (10, 50)
    df = pd.DataFrame({"vec_id": np.arange(n), "embedding": [v.astype(np.float32) for v in base]})
    return ray.data.from_pandas(df), base


def brute_topk(base, q, k):
    def norm(m):
        return m / np.maximum(np.sqrt((m * m).sum(axis=1, keepdims=True)), 1e-30)

    s = norm(base.astype(np.float64)) @ norm(q.astype(np.float64)).T
    out = []
    for qi in range(q.shape[0]):
        order = np.lexsort((np.arange(len(base)), -s[:, qi]))[:k]
        out.append(set(order.tolist()))
    return out


def test_cosine_topk_matches_brute(emb):
    ds, base = emb
    q = base[:3]
    got = cosine_topk(ds, q, 5).to_pandas()
    exp = brute_topk(base, q, 5)
    for qi in range(3):
        ids = set(got[got["query_id"] == qi]["vec_id"])
        assert ids == exp[qi]
        # self is its own nearest neighbour
        assert qi in ids


def test_cosine_topk_ivf_recall(emb):
    ds, base = emb
    q = base[:4]
    got = cosine_topk_ivf(ds, q, 5, nlist=8, nprobe=4).to_pandas()
    exp = brute_topk(base, q, 5)
    recall = np.mean(
        [len(set(got[got["query_id"] == qi]["vec_id"]) & exp[qi]) / 5 for qi in range(4)]
    )
    assert recall >= 0.8


def test_cosine_topk_ivf_centroid_cache(emb, monkeypatch):
    """Same cache_key -> one centroid build, identical results (TODO r3)."""
    import rasterflow.pipelines.similarity as sim

    ds, base = emb
    q = base[:2]
    calls = {"n": 0}
    real = sim.kmeans_lite

    def counting(*a, **kw):
        calls["n"] += 1
        return real(*a, **kw)

    monkeypatch.setattr(sim, "kmeans_lite", counting)
    sim._CENTROID_CACHE.clear()
    a = cosine_topk_ivf(ds, q, 5, nlist=8, nprobe=4, cache_key="t").to_pandas()
    b = cosine_topk_ivf(ds, q, 5, nlist=8, nprobe=4, cache_key="t").to_pandas()
    assert calls["n"] == 1
    pd.testing.assert_frame_equal(a, b)
    # no key -> rebuilt every call, same results
    c = cosine_topk_ivf(ds, q, 5, nlist=8, nprobe=4).to_pandas()
    assert calls["n"] == 2
    pd.testing.assert_frame_equal(a, c)


def test_embedding_neardup(emb):
    ds, base = emb
    out = embedding_neardup_pairs(ds, threshold=0.95).to_pandas()
    pairs = set(zip(out["id_a"], out["id_b"]))
    assert (10, 50) in pairs


def test_multimodal_stub_stages(ray_session):
    import ray.data

    rng = np.random.default_rng(3)
    payloads = [rng.integers(0, 256, size=rng.integers(64, 2048)).astype(np.uint8).tobytes() for _ in range(20)]
    df = pd.DataFrame({"url": [f"u{i}" for i in range(20)], "image": payloads, "audio": payloads})
    ds = ray.data.from_arrow(pa.Table.from_pandas(df))
    img = decode_images(ds).to_pandas()
    assert set(img.columns) == {"url", "width", "height", "mean_luma", "feature"}
    assert len(img) == 20
    assert all(len(f) == 8 for f in img["feature"])
    # determinism across runs
    img2 = decode_images(ds).to_pandas()
    pd.testing.assert_frame_equal(
        img.sort_values("url").reset_index(drop=True), img2.sort_values("url").reset_index(drop=True)
    )
    au = sample_audio_frames(ds).to_pandas()
    assert all(len(f) == 16 for f in au["frames"])


def test_minhash_recall_on_injected_neardups(ray_session):
    """2000 fixture texts + 150 injected near-duplicates: MinHash-LSH must
    recover most injected pairs and report estimated jaccard near truth."""
    import ray.data

    from rasterflow.sources.fixtures import pages_batch

    base = pages_batch(np.arange(2000)).to_pandas()[["text"]]
    texts = list(base["text"])
    ids = list(range(2000))
    rng = np.random.default_rng(17)
    injected = []
    for k, src_id in enumerate(rng.choice(2000, 150, replace=False)):
        toks = texts[src_id].split()
        # perturb ~5% of tokens
        for _ in range(max(1, len(toks) // 20)):
            toks[int(rng.integers(0, len(toks)))] = "zzz"
        texts.append(" ".join(toks))
        ids.append(10000 + k)
        injected.append((int(src_id), 10000 + k))
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": ids, "text": texts})).repartition(8)
    out = minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
    pairs = set(zip(out["id_a"], out["id_b"]))
    found = sum(1 for p in injected if p in pairs)
    assert found / len(injected) >= 0.85, f"recall {found}/{len(injected)}"


def test_neardup_clusters(ray_session):
    """Connected components over the exact pair graph: transitive chains
    merge into one cluster with the minimum doc id as representative."""
    import ray.data

    from rasterflow.pipelines.dedup import neardup_clusters

    texts = [
        "alpha beta gamma delta epsilon zeta eta theta",   # 0
        "alpha beta gamma delta epsilon zeta eta theta",   # 1 (dup of 0)
        "alpha beta gamma delta epsilon zeta eta iota",    # 2 (near dup of 0/1)
        "one two three four five six seven eight nine",    # 3 unrelated
        "unrelated words entirely different content here today",  # 4
    ]
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts}))
    out = neardup_clusters(ds, threshold=0.4).to_pandas()
    got = dict(zip(out["doc_id"], out["rep_id"]))
    assert got.get(0) == 0 and got.get(1) == 0 and got.get(2) == 0
    assert 3 not in got and 4 not in got


def test_neardup_clusters_distributed_matches_driver(ray_session):
    """VERDICT r2 #3: the large/small-star distributed CC must reproduce the
    driver union-find exactly on a multi-component graph with transitive
    chains (clusters that merge only through intermediate docs)."""
    import ray.data

    from rasterflow.pipelines.dedup import neardup_clusters

    rng = np.random.default_rng(11)
    vocab = [f"w{k}" for k in range(40)]
    texts = []
    # 6 base clusters; chain variants so components form via transitivity
    for c in range(6):
        base = list(rng.choice(vocab, size=10))
        doc = list(base)
        for _ in range(5):
            texts.append(" ".join(doc))
            doc = list(doc)
            doc[int(rng.integers(0, len(doc)))] = vocab[int(rng.integers(0, 40))]
    # plus isolated docs
    for i in range(10):
        texts.append(" ".join(rng.choice(vocab, size=4)) + f" unique{i}a unique{i}b unique{i}c")
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts}))
    drv = neardup_clusters(ds, threshold=0.4).to_pandas()
    dist = neardup_clusters(ds, threshold=0.4, distributed=True).to_pandas()
    assert len(drv) > 10  # the fixture must actually produce clusters
    pd.testing.assert_frame_equal(
        drv.reset_index(drop=True), dist.reset_index(drop=True), check_dtype=False
    )


def test_star_cc_parquet_checkpoints(ray_session, tmp_path):
    """checkpoint_dir: star rounds persist to parquet (only the newest round
    kept on disk) and the result is identical to the in-object-store path."""
    import os

    import ray.data

    from rasterflow.pipelines.dedup import neardup_clusters

    texts = []
    for c in range(4):
        base = [f"c{c}w{k}" for k in range(8)]
        for v in range(4):
            doc = list(base)
            doc[v % len(doc)] = f"c{c}var{v}"
            texts.append(" ".join(doc))
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts}))
    ck = str(tmp_path / "cc_ck")
    dist = neardup_clusters(ds, threshold=0.4, distributed=True).to_pandas()
    ckpt = neardup_clusters(
        ds, threshold=0.4, distributed=True, checkpoint_dir=ck
    ).to_pandas()
    assert len(dist) > 0
    pd.testing.assert_frame_equal(
        dist.reset_index(drop=True), ckpt.reset_index(drop=True), check_dtype=False
    )
    rounds = [d for d in os.listdir(ck) if d.startswith("round=")]
    assert len(rounds) == 1  # superseded checkpoints are pruned


def test_top_tokens_exact(ray_session):
    import collections

    import ray.data

    from rasterflow.pipelines.textstats import top_tokens

    texts = ["a b b c c c", "c d d a", "e", ""]
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(4), "text": texts}))
    got = top_tokens(ds, k=3).to_pandas()
    cnt = collections.Counter(" ".join(texts).split())
    exp = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    assert list(zip(got["token"], got["n"])) == exp


def test_split_assign_deterministic_and_balanced(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import split_assign

    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(20_000)}))
    a = split_assign(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = split_assign(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)  # pure function of id
    frac = a["split"].value_counts(normalize=True)
    assert abs(frac["test"] - 0.10) < 0.01
    assert abs(frac["val"] - 0.10) < 0.01
    assert abs(frac["train"] - 0.80) < 0.02
    # different seed reshuffles assignments
    c = split_assign(ds, seed=7).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert (a["split"] != c["split"]).mean() > 0.1


def test_hll_accuracy_vs_exact(ray_session):
    import ray.data

    from rasterflow.pipelines.sketch import approx_count_distinct

    rng = np.random.default_rng(5)
    vals = rng.integers(0, 30_000, size=200_000)
    exact = len(np.unique(vals))
    ds = ray.data.from_pandas(pd.DataFrame({"u": vals}))
    est = approx_count_distinct(ds, "u", p=12).to_pandas()["n_distinct_est"].iloc[0]
    assert abs(est - exact) / exact < 0.05, (est, exact)


def test_resize_images_fixed_stride(ray_session):
    import ray.data

    from rasterflow.pipelines.multimodal import resize_images

    rng = np.random.default_rng(9)
    payloads = [rng.integers(0, 256, size=rng.integers(16, 600)).astype(np.uint8).tobytes() for _ in range(12)]
    df = pd.DataFrame({"url": [f"u{i}" for i in range(12)], "image": payloads})
    ds = ray.data.from_arrow(pa.Table.from_pandas(df))
    out = resize_images(ds, size=(8, 16), decoder="fake").to_pandas()
    assert len(out) == 12
    assert all(len(t) == 8 * 16 for t in out["thumb"])
    out2 = resize_images(ds, size=(8, 16), decoder="fake").to_pandas()
    pd.testing.assert_frame_equal(
        out.sort_values("url").reset_index(drop=True),
        out2.sort_values("url").reset_index(drop=True),
    )


def test_top_k_per_group(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import top_k_per_group

    rng = np.random.default_rng(4)
    n = 5000
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n),
            "lang": np.array(["en", "es", "de", "fr"])[rng.integers(0, 4, n)],
            "n_chars": rng.integers(0, 300, n),  # many score ties -> id tie-break matters
        }
    )
    ds = ray.data.from_pandas(df).repartition(8)
    got = top_k_per_group(ds, "lang", "n_chars", 10).to_pandas()
    exp = (
        df.sort_values(["n_chars", "doc_id"], ascending=[False, True])
        .groupby("lang")
        .head(10)
        .sort_values(["lang", "doc_id"])
        .reset_index(drop=True)[["lang", "doc_id", "n_chars"]]
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp)


def test_contamination_check(ray_session):
    import ray.data

    from rasterflow.pipelines.dedup import benchmark_grams_of, contamination_check

    texts = [
        "the quick brown fox jumps over the lazy dog tonight",   # 0 = benchmark
        "a quick brown fox jumps over anything else entirely",   # 1 shares grams
        "completely unrelated words in this document here now",  # 2 clean
        "the quick brown fox jumps over the lazy dog tonight",   # 3 exact copy
    ]
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(4), "text": texts}))
    bench = benchmark_grams_of(ds, ids=(0,))
    out = contamination_check(ds, bench).to_pandas()
    got = dict(zip(out["doc_id"], out["n_overlap"]))
    assert got[0] == len(bench)  # benchmark doc fully overlaps itself
    assert got[3] == len(bench)  # exact copy flagged
    assert got.get(1, 0) >= 1    # partial overlap flagged
    assert 2 not in got          # clean doc not flagged


def test_simhash_trailing_empty_doc_batch_independence():
    """ADVICE r2: a trailing zero-token doc must not truncate the preceding
    doc's token segment — signatures cannot depend on batch placement."""
    from rasterflow.pipelines.dedup import SimHashStage

    st = SimHashStage()
    text = "the quick brown fox jumps over the lazy dog"
    alone = st.simhashes(pa.array([text], type=pa.string()))[0]
    with_trailing_ws = st.simhashes(pa.array([text, "   "], type=pa.string()))
    with_trailing_empty = st.simhashes(pa.array([text, ""], type=pa.string()))
    sandwich = st.simhashes(pa.array(["", text, " \t ", text], type=pa.string()))
    assert with_trailing_ws[0] == alone
    assert with_trailing_empty[0] == alone
    assert with_trailing_ws[1] == np.uint64(0)
    assert sandwich[1] == alone and sandwich[3] == alone
    assert sandwich[0] == np.uint64(0) and sandwich[2] == np.uint64(0)


def test_contamination_trailing_empty_doc(ray_session):
    """ADVICE r2: a trailing zero-gram doc must not undercount the previous
    doc's n_overlap (boundary docs would evade decontamination)."""
    import ray.data

    from rasterflow.pipelines.dedup import benchmark_grams_of, contamination_check

    texts = [
        "the quick brown fox jumps over the lazy dog tonight",  # benchmark
        "the quick brown fox jumps over the lazy dog tonight",  # contaminated
        "",                                                     # zero grams
    ]
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(3), "text": texts}))
    bench = benchmark_grams_of(ds, ids=(0,))
    out = contamination_check(ds, bench).to_pandas()
    got = dict(zip(out["doc_id"], out["n_overlap"]))
    assert got[1] == len(bench)  # full overlap even with a trailing empty doc
    assert 2 not in got


def test_multimodal_vectorized_equals_rowwise():
    """Round 3: fixed_size_binary payloads take the batch-vectorized stub
    path — outputs must be identical to the per-row decode (variable-width
    binary still takes the row path; both pinned here)."""
    from rasterflow.pipelines.multimodal import (
        AudioFrameSampleStage,
        ImageDecodeStage,
        ImageResizeStage,
    )
    from rasterflow.sources.fixtures import payload_batch

    ids = np.arange(7)
    fixed = payload_batch(ids, nbytes=256, salt=5)  # fixed_size_binary(256)
    var = pa.array([bytes(v.as_py()) for v in fixed], type=pa.binary())
    tf = pa.table({"doc_id": ids, "image": fixed, "audio": payload_batch(ids, nbytes=512, salt=6)})
    tv = pa.table({"doc_id": ids, "image": var,
                   "audio": pa.array([bytes(v.as_py()) for v in payload_batch(ids, nbytes=512, salt=6)], type=pa.binary())})

    dec = ImageDecodeStage(payload_col="image", id_col="doc_id", decoder="fake")
    a, b = dec(tf), dec(tv)
    assert a.column("width").to_pylist() == b.column("width").to_pylist()
    assert a.column("height").to_pylist() == b.column("height").to_pylist()
    assert a.column("mean_luma").to_pylist() == b.column("mean_luma").to_pylist()
    assert a.column("feature").to_pylist() == b.column("feature").to_pylist()

    rs = ImageResizeStage(payload_col="image", id_col="doc_id", size=(16, 16), decoder="fake")
    ra, rb = rs(tf), rs(tv)
    assert ra.column("thumb").to_pylist() == rb.column("thumb").to_pylist()

    au = AudioFrameSampleStage(payload_col="audio", id_col="doc_id")
    fa, fb = au(tf), au(tv)
    assert fa.column("frames").to_pylist() == fb.column("frames").to_pylist()


def test_broadcast_join_matches_pandas(ray_session):
    import ray.data

    from rasterflow.pipelines.relational import broadcast_join

    rng = np.random.default_rng(9)
    big = pd.DataFrame({"k": rng.integers(0, 50, 3000), "v": np.arange(3000)})
    small = pa.table({"k": np.arange(0, 40), "name": [f"n{i}" for i in range(40)]})
    ds = ray.data.from_pandas([big.iloc[:1500], big.iloc[1500:]])
    got = (
        broadcast_join(ds, small, on="k")
        .to_pandas()
        .sort_values(["v"])
        .reset_index(drop=True)
    )
    exp = (
        big.merge(small.to_pandas(), on="k", how="inner")
        .sort_values(["v"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["k", "v", "name"]], exp[["k", "v", "name"]])


def test_asof_join_matches_reference(ray_session):
    """asof_join == per-row argmax(ts, id) over prior right rows, including
    equal-timestamp ties and users with no prior right row."""
    import ray.data

    from rasterflow.pipelines.relational import asof_join

    rng = np.random.default_rng(4)
    nl, nr = 300, 400
    lt = pd.DataFrame(
        {
            "event_id": np.arange(nl),
            "user_id": rng.integers(0, 20, nl),
            "ts": rng.integers(0, 100, nl).astype("datetime64[s]").astype("datetime64[us]"),
        }
    )
    rt = pd.DataFrame(
        {
            "event_id": np.arange(1000, 1000 + nr),
            "user_id": rng.integers(0, 25, nr),
            "ts": rng.integers(0, 100, nr).astype("datetime64[s]").astype("datetime64[us]"),
        }
    )
    out = asof_join(
        ray.data.from_pandas([lt.iloc[:150], lt.iloc[150:]]),
        ray.data.from_pandas([rt.iloc[:200], rt.iloc[200:]]),
        key="user_id", ts_col="ts", left_cols=["event_id"], right_cols=["event_id"],
    ).to_pandas().sort_values("event_id").reset_index(drop=True)

    exp_rows = []
    for _, l in lt.iterrows():
        cand = rt[(rt.user_id == l.user_id) & (rt.ts <= l.ts)]
        if len(cand):
            best = cand.sort_values(["ts", "event_id"]).iloc[-1]
            exp_rows.append((l.event_id, l.user_id, best.event_id, best.ts))
    exp = pd.DataFrame(exp_rows, columns=["event_id", "user_id", "r_event_id", "r_ts"])
    exp = exp.sort_values("event_id").reset_index(drop=True)
    assert len(out) == len(exp) and len(exp) > 100
    assert list(out["event_id"]) == list(exp["event_id"])
    assert list(out["r_event_id"]) == list(exp["r_event_id"])
    assert list(out["r_ts"]) == list(exp["r_ts"])


def test_cap_per_group(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import cap_per_group

    rng = np.random.default_rng(2)
    df = pd.DataFrame({"g": rng.integers(0, 6, 900), "doc_id": rng.permutation(900)})
    ds = ray.data.from_pandas([df.iloc[:300], df.iloc[300:600], df.iloc[600:]])
    got = cap_per_group(ds, "g", 25, id_col="doc_id").to_pandas()
    exp = (
        df.sort_values("doc_id").groupby("g").head(25)
        .sort_values(["g", "doc_id"]).reset_index(drop=True)[["g", "doc_id"]]
    )
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp, check_dtype=False)


def test_asof_join_differing_columns(ray_session):
    """Left and right may carry different value columns — the union schema
    is typed-null-padded per side."""
    import ray.data

    from rasterflow.pipelines.relational import asof_join

    lt = pd.DataFrame(
        {"event_id": [1, 2], "user_id": [7, 7],
         "ts": np.array([50, 80], dtype="datetime64[s]").astype("datetime64[us]"),
         "basket": [3.5, 9.9]}
    )
    rt = pd.DataFrame(
        {"event_id": [100, 101], "user_id": [7, 7],
         "ts": np.array([40, 70], dtype="datetime64[s]").astype("datetime64[us]"),
         "page": ["a", "b"]}
    )
    out = asof_join(
        ray.data.from_pandas(lt), ray.data.from_pandas(rt),
        key="user_id", ts_col="ts",
        left_cols=["event_id", "basket"], right_cols=["event_id", "page"],
    ).to_pandas().sort_values("event_id").reset_index(drop=True)
    assert list(out["event_id"]) == [1, 2]
    assert list(out["r_event_id"]) == [100, 101]
    assert list(out["r_page"]) == ["a", "b"]
    assert list(out["basket"]) == [3.5, 9.9]


def test_star_cc_adversarial_graphs(ray_session):
    """Distributed CC on a path graph (worst case for round count), a star,
    and two cliques — components and min-id representatives exact."""
    import ray.data

    from rasterflow.pipelines.dedup import _cc_large_small_star

    edges = []
    edges += [(i, i + 1) for i in range(100, 300)]          # long path
    edges += [(1000, x) for x in range(1001, 1040)]          # star
    for base in (5000, 6000):                                # two cliques
        for i in range(base, base + 12):
            for j in range(i + 1, base + 12):
                edges.append((i, j))
    a = np.array([e[0] for e in edges], dtype=np.int64)
    b = np.array([e[1] for e in edges], dtype=np.int64)
    pairs = ray.data.from_arrow(pa.table({"id_a": a, "id_b": b}))
    out = _cc_large_small_star(pairs, "doc_id").to_pandas()
    got = dict(zip(out["doc_id"], out["rep_id"]))
    assert all(got[i] == 100 for i in range(100, 301))
    assert all(got[i] == 1000 for i in range(1000, 1040))
    assert all(got[i] == 5000 for i in range(5000, 5012))
    assert all(got[i] == 6000 for i in range(6000, 6012))
    assert len(got) == 201 + 40 + 24


def test_ivf_layout_matches_in_memory(ray_session, emb, tmp_path):
    """The persisted IVF layout must return EXACTLY what the in-memory IVF
    returns (same centroid construction, same probes, same tie-breaks) while
    reading only probed partitions."""
    from rasterflow.pipelines.similarity import (
        cosine_topk,
        cosine_topk_ivf,
        cosine_topk_ivf_indexed,
        ivf_ingest,
    )

    ds, base = emb
    q = base[[3, 77]]
    mem = cosine_topk_ivf(ds, q, k=8, nlist=8, nprobe=3).to_pandas()
    layout = ivf_ingest(ds, str(tmp_path / "ivf"), nlist=8)
    idx = cosine_topk_ivf_indexed(layout, q, k=8, nprobe=3).to_pandas()
    pd.testing.assert_frame_equal(
        mem.reset_index(drop=True), idx.reset_index(drop=True), check_dtype=False
    )
    # recall vs exact stays reasonable
    exact = cosine_topk(ds, q, k=8).to_pandas()
    got = set(zip(idx["query_id"], idx["vec_id"]))
    ref = set(zip(exact["query_id"], exact["vec_id"]))
    assert len(got & ref) / len(ref) >= 0.5


def test_curation_pipeline_stages_bind(ray_session):
    """The composed curation pipeline must apply all three stages: quality
    filter, decontamination, and dedup each remove specific docs."""
    import ray.data

    from rasterflow.pipelines.curation import curation_keep_list
    from rasterflow.pipelines.dedup import benchmark_grams_of

    def weave(prefix):
        # stopwords interleaved with doc-unique neighbors: stop_ratio binds
        # but no 3-gram is shared across different prefixes
        stops = ["the", "and", "of", "to", "in", "is", "a"]
        toks = []
        for i, st_ in enumerate(stops):
            toks += [f"{prefix}{2 * i}", st_]
        toks += [f"{prefix}tail{j}" for j in range(6)]
        return " ".join(toks)

    texts = [
        weave("b"),             # 0: bench
        "tiny doc",             # 1: fails min_tok
        weave("c"),             # 2: kept
        weave("c"),             # 3: dup of 2
        ("x1 y2 z3 " * 12),     # 4: fails stop_ratio
        weave("b"),             # 5: contaminated copy of bench
    ]
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts}))
    bench = benchmark_grams_of(ds, ids=(0,))
    out = curation_keep_list(
        ds, bench, min_tok=10, min_stop_ratio=0.05, min_overlap=2
    ).to_pandas()
    got = dict(zip(out["doc_id"], out["n"]))
    assert got == {2: 2}  # only the clean pair survives, deduped to doc 2


def test_hash_join_matches_pandas_merge(ray_session):
    import ray.data

    from rasterflow.pipelines.relational import hash_join

    rng = np.random.default_rng(7)
    left = pd.DataFrame({"k": rng.integers(0, 50, 400), "lv": np.arange(400)})
    right = pd.DataFrame({"k": rng.integers(0, 60, 300), "rv": np.arange(300) * 10})
    got = (
        hash_join(
            ray.data.from_pandas(left).repartition(4),
            ray.data.from_pandas(right).repartition(3),
            on="k",
            left_cols=["lv"],
            right_cols=["rv"],
            num_partitions=8,
        )
        .to_pandas()
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    exp = (
        left.merge(right, on="k")
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)[["k", "lv", "rv"]]
    )
    pd.testing.assert_frame_equal(got.astype({"k": "int64", "lv": "int64", "rv": "int64"}), exp)


def test_repetition_stats_reference(ray_session):
    import collections

    import ray.data

    from rasterflow.pipelines.textstats import repetition_stats

    texts = [
        "a b c d",            # all distinct
        "a a a b",            # run of 3, dup
        "x y x y x y",        # bigram 'x y' x3 + 'y x' x2 -> top2 = 3/5
        "",                   # empty
        "solo",               # one token
        "  padded   text  ",  # whitespace edges
    ]
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts}))
    got = repetition_stats(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)

    for i, t in enumerate(texts):
        toks = [x for x in t.split() if x]
        n = len(toks)
        assert got.loc[i, "n_tok"] == n
        dup = (n - len(set(toks))) / n if n else 0.0
        assert got.loc[i, "dup_frac"] == pytest.approx(dup, abs=0)
        bigs = collections.Counter(zip(toks, toks[1:]))
        top2 = max(bigs.values()) / (n - 1) if n >= 2 else 0.0
        assert got.loc[i, "top2_frac"] == pytest.approx(top2, abs=0)
        mr, cur = 0, 0
        prev = None
        for x in toks:
            cur = cur + 1 if x == prev else 1
            prev = x
            mr = max(mr, cur)
        assert got.loc[i, "max_run"] == mr


def test_tfidf_top_terms_small_corpus(ray_session):
    import ray.data

    from rasterflow.pipelines.textstats import tfidf_top_terms

    # 'rare' appears in one doc, 'common' in all -> rare must outrank common
    texts = [
        "common rare common filler1",
        "common filler2 filler2",
        "common filler3",
        "common filler4 filler4 filler4",
    ]
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(4), "text": texts}))
    got = tfidf_top_terms(ds, k=2).to_pandas()
    d0 = got[got["doc_id"] == 0]
    assert list(d0["tok"]) == sorted(d0["tok"])  # output sorted by (doc, tok)
    assert "rare" in set(d0["tok"])
    assert set(got.columns) == {"doc_id", "tok", "tf", "df"}
    # df of 'common' is 4, of 'rare' is 1
    assert got[got["tok"] == "rare"]["df"].iloc[0] == 1
    d3 = got[got["doc_id"] == 3]
    assert "filler4" in set(d3["tok"])  # tf=3 of a df=1 token dominates


def test_weighted_sample_deterministic_and_monotone(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import weighted_sample

    n = 4000
    rng = np.random.default_rng(3)
    df = pd.DataFrame({"doc_id": np.arange(n), "n_chars": rng.integers(0, 800, n)})
    ds = ray.data.from_pandas(df).repartition(4)
    a = weighted_sample(ds, scale=400).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = weighted_sample(ds, scale=400).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)  # pure function of ids
    kept = set(a["doc_id"])
    # weight >= scale -> always kept; weight 0 -> never kept
    always = df[df["n_chars"] >= 400]["doc_id"]
    assert set(always).issubset(kept)
    assert not (set(df[df["n_chars"] == 0]["doc_id"]) & kept)
    # acceptance rate of the 100-199 band is well below the 600+ band
    lo = df[(df["n_chars"] >= 100) & (df["n_chars"] < 200)]
    hi = df[df["n_chars"] >= 600]
    lo_rate = len(kept & set(lo["doc_id"])) / len(lo)
    hi_rate = len(kept & set(hi["doc_id"])) / len(hi)
    assert lo_rate < 0.6
    assert hi_rate == 1.0


def _py_substring_pairs(texts, L):
    """Brute-force reference: pairs sharing any L-char substring."""
    subs = []
    for t in texts:
        subs.append({t[i : i + L] for i in range(len(t) - L + 1)} if len(t) >= L else set())
    out = set()
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            if subs[i] & subs[j]:
                out.add((i, j))
    return out


def test_substring_dup_pairs_exact(ray_session):
    """Winnowing + anchored byte verify must reproduce the brute-force
    shared-L-substring predicate exactly: boundary spans (exactly L, L-1),
    different offsets, internal repetition (argmin ties), and short docs."""
    import ray.data

    from rasterflow.pipelines.dedup import substring_dup_pairs

    L = 30
    shared = "the-exact-shared-span-0123456789"  # 32 chars > L
    sub29 = "x" * 29
    rep = "ab ab ab ab ab ab ab ab ab ab ab ab"  # internal repetition, 35 chars
    texts = [
        "prefix one " + shared + " tail A",
        "a totally different beginning " + shared,          # shared at other offset
        "no overlap here at all, nothing to see in this doc",
        sub29 + " left part",                               # only 29 shared w/ 4
        "right part " + sub29,                              # 29 < L: no pair
        rep + " suffix one",
        "other head " + rep,                                # rep is 35 >= L
        "tiny",
        "",
        "exact-" + shared + "-middle-" + shared,            # two anchors, one pair each
    ]
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts}))
    got = substring_dup_pairs(ds, min_len=L, k=20).to_pandas()
    gp = set(zip(got["id_a"].astype(int), got["id_b"].astype(int)))
    exp = _py_substring_pairs(texts, L)
    assert (0, 1) in exp and (5, 6) in exp and (3, 4) not in exp  # fixture sanity
    assert gp == exp


def test_substring_dup_pairs_parallelism_invariant(ray_session):
    """Result must not depend on batch/partition placement."""
    import ray.data

    from rasterflow.pipelines.dedup import substring_dup_pairs

    rng = np.random.default_rng(12)
    words = [f"w{k:02d}" for k in range(25)]
    texts = [" ".join(rng.choice(words, size=20)) for _ in range(60)]
    span = "shared-common-core-span-ABCDEFGH"
    for i in (5, 17, 40):
        texts[i] = texts[i][:10] + span + texts[i][10:]
    df = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    a = (
        substring_dup_pairs(ray.data.from_pandas(df), min_len=30, k=20)
        .to_pandas().reset_index(drop=True)
    )
    b = (
        substring_dup_pairs(ray.data.from_pandas(df).repartition(7), min_len=30, k=20)
        .to_pandas().reset_index(drop=True)
    )
    exp = _py_substring_pairs(texts, 30)
    assert {(5, 17), (5, 40), (17, 40)} <= set(zip(a["id_a"], a["id_b"]))
    assert set(zip(a["id_a"], a["id_b"])) == exp
    pd.testing.assert_frame_equal(a, b)


def test_anti_join_matches_pandas(ray_session):
    import ray.data

    from rasterflow.pipelines.relational import anti_join

    rng = np.random.default_rng(9)
    left = pd.DataFrame({"k": rng.integers(0, 40, 300), "v": np.arange(300)})
    right = pd.DataFrame({"k": rng.integers(0, 40, 50)})
    got = (
        anti_join(
            ray.data.from_pandas(left).repartition(4),
            ray.data.from_pandas(right).repartition(2),
            on="k",
            left_cols=["v"],
            num_partitions=8,
        )
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    blocked = set(right["k"])
    exp = (
        left[~left["k"].isin(blocked)]
        .sort_values(["k", "v"])
        .reset_index(drop=True)[["k", "v"]]
    )
    pd.testing.assert_frame_equal(got.astype({"k": "int64", "v": "int64"}), exp)


def test_normalize_text_reference(ray_session):
    import re

    import ray.data

    from rasterflow.pipelines.textstats import normalize_text

    texts = ["  Hello   WORLD  ", "a\tb\nc", "", "MiXeD  CaSe"]
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts}))
    got = normalize_text(ds).to_pandas().sort_values("doc_id")
    exp = [re.sub(r"\s+", " ", t.lower()).strip() for t in texts]
    assert list(got["norm_text"]) == exp


def test_stratified_sample_pure_hash(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import stratified_sample
    from rasterflow.stages.texthash import mulrot_hash64

    rng = np.random.default_rng(3)
    langs = np.array(["en", "de", "zh"])[rng.integers(0, 3, 500)]
    df = pd.DataFrame({"doc_id": np.arange(500), "lang": langs})
    rates = {"en": 40, "de": 100}
    got = (
        stratified_sample(
            ray.data.from_pandas(df).repartition(4), rates, group_col="lang", default_pct=70
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    with np.errstate(over="ignore"):
        bucket = (mulrot_hash64(df["doc_id"].to_numpy().astype(np.uint64)) % np.uint64(100)).astype(
            np.int64
        )
    pct = pd.Series(langs).map(rates).fillna(70).to_numpy(dtype=np.int64)
    exp = df[bucket < pct].reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)
    # strata actually downsample: en keeps ~40%, de everything
    n_en_in = int((df["lang"] == "en").sum())
    n_en_out = int((got["lang"] == "en").sum())
    assert 0.25 < n_en_out / n_en_in < 0.55
    assert int((got["lang"] == "de").sum()) == int((df["lang"] == "de").sum())


def test_rank_in_group_matches_pandas(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import rank_in_group

    rng = np.random.default_rng(11)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(400),
            "lang": np.array(["en", "de", "fr", "zh"])[rng.integers(0, 4, 400)],
            "n_chars": rng.integers(0, 50, 400),  # dense ties
        }
    )
    got = (
        rank_in_group(
            ray.data.from_pandas(df).repartition(5), "lang", "n_chars", id_col="doc_id"
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = df.sort_values(["n_chars", "doc_id"], ascending=[False, True]).copy()
    exp["rnk"] = exp.groupby("lang", sort=False).cumcount() + 1
    exp = exp.sort_values("doc_id").reset_index(drop=True)[["lang", "n_chars", "doc_id", "rnk"]]
    pd.testing.assert_frame_equal(got.astype({"rnk": "int64"}), exp.astype({"rnk": "int64"}))


def test_lag_deltas_matches_pandas(ray_session):
    import ray.data

    from rasterflow.pipelines.windows import lag_deltas

    rng = np.random.default_rng(5)
    n = 500
    df = pd.DataFrame(
        {
            "event_id": np.arange(n),
            "user_id": rng.integers(0, 20, n),
            "ts": pd.to_datetime(
                np.sort(rng.integers(0, 10**9, n)).astype("int64"), unit="us"
            ),
        }
    )
    got = (
        lag_deltas(ray.data.from_pandas(df).repartition(4))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    e = df.sort_values(["user_id", "ts", "event_id"])
    us = e["ts"].to_numpy().astype("datetime64[us]").astype("int64")
    exp_delta = pd.Series(us, index=e.index).groupby(e["user_id"]).diff()
    exp = pd.DataFrame(
        {"event_id": e["event_id"], "user_id": e["user_id"], "delta_us": exp_delta}
    ).sort_values("event_id").reset_index(drop=True)
    # float64/NaN, NOT pandas Int64: matches DuckDB's pandas conversion of a
    # nullable BIGINT — the representation the driver oracle hashes (r5 fix)
    exp["delta_us"] = exp["delta_us"].astype(np.float64)
    pd.testing.assert_frame_equal(got, exp)


def test_regex_redact_reference(ray_session):
    import ray.data

    from rasterflow.pipelines.textstats import regex_redact

    texts = ["the cat sat on a mat", "nothing here", "", "a the a the"]
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts}))
    got = regex_redact(ds, r"\b(the|a)\b", "<T>").to_pandas().sort_values("doc_id")
    assert list(got["red_text"]) == [
        "<T> cat sat on <T> mat",
        "nothing here",
        "",
        "<T> <T> <T> <T>",
    ]
    assert list(got["n_hits"]) == [2, 0, 0, 4]


def test_bigram_top_matches_brute(ray_session):
    from collections import Counter

    import ray.data

    from rasterflow.pipelines.textstats import bigram_top

    rng = np.random.default_rng(13)
    vocab = ["x", "y", "z", "w"]
    texts = [
        " ".join(vocab[i] for i in rng.integers(0, 4, rng.integers(0, 12)))
        for _ in range(300)
    ]
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    ).repartition(5)
    got = bigram_top(ds, k=10).to_pandas()
    c = Counter()
    for t in texts:
        toks = [w for w in t.split() if w]
        c.update(" ".join(p) for p in zip(toks, toks[1:]))
    exp = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(got["bigram"], got["n"])) == exp


def test_json_int_field_agg_matches_pandas(ray_session):
    import ray.data

    from rasterflow.pipelines.textstats import json_int_field_agg

    props = ['{"k": 5}', '{"k": -2}', '{"j": 9}', '{"k": 7}', "not json"]
    types = ["a", "a", "a", "b", "b"]
    ds = ray.data.from_pandas(pd.DataFrame({"event_type": types, "props": props})).repartition(2)
    got = json_int_field_agg(ds, field="k").to_pandas()
    got = got.set_index("event_type")
    assert got.loc["a", "n"] == 2 and got.loc["a", "sum_k"] == 3
    assert got.loc["b", "n"] == 1 and got.loc["b", "sum_k"] == 7


def test_uniform_sample_k_deterministic(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import uniform_sample_k
    from rasterflow.stages.texthash import mulrot_hash64

    df = pd.DataFrame({"doc_id": np.arange(1000), "lang": ["x"] * 1000})
    got = uniform_sample_k(
        ray.data.from_pandas(df).repartition(6), k=50, extra_cols=("lang",)
    ).to_pandas()
    with np.errstate(over="ignore"):
        h = mulrot_hash64(df["doc_id"].to_numpy().astype(np.uint64)).astype(np.int64)
    order = np.lexsort((df["doc_id"].to_numpy(), h))[:50]
    exp_ids = df["doc_id"].to_numpy()[order]
    assert list(got["doc_id"]) == list(exp_ids)
    assert len(got) == 50
    # partition-invariance: different block structure, same sample
    got2 = uniform_sample_k(
        ray.data.from_pandas(df).repartition(2), k=50, extra_cols=("lang",)
    ).to_pandas()
    assert list(got2["doc_id"]) == list(got["doc_id"])


def test_vocab_stats_matches_brute(ray_session):
    import ray.data

    from rasterflow.pipelines.textstats import vocab_stats

    texts = ["a b b c", "", "c d  e", "a a a"]
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    ).repartition(3)
    got = vocab_stats(ds).to_pandas()
    allt = [w for t in texts for w in t.split() if w]
    assert int(got["n_vocab"].iloc[0]) == len(set(allt))
    assert int(got["n_tokens"].iloc[0]) == len(allt)


def test_rolling_sum_matches_pandas(ray_session):
    import ray.data

    from rasterflow.pipelines.windows import rolling_sum

    rng = np.random.default_rng(21)
    n = 400
    df = pd.DataFrame(
        {
            "event_id": np.arange(n),
            "user_id": rng.integers(0, 12, n),
            "ts": pd.to_datetime(np.sort(rng.integers(0, 10**9, n)).astype("int64"), unit="us"),
            "value": np.round(rng.uniform(0, 50, n), 2),
        }
    )
    got = (
        rolling_sum(ray.data.from_pandas(df).repartition(4), window=3)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    e = df.sort_values(["user_id", "ts", "event_id"])
    cents = pd.Series(
        np.round(e["value"].to_numpy() * 100).astype(np.int64), index=e.index, name="c"
    )
    exp_roll = (
        cents.groupby(e["user_id"]).rolling(3, min_periods=1).sum().reset_index(level=0)
    )
    exp = pd.DataFrame(
        {
            "event_id": e["event_id"],
            "user_id": e["user_id"],
            "roll_cents": exp_roll["c"].astype(np.int64),
        }
    ).sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_interval_join_matches_brute(ray_session):
    import ray.data

    from rasterflow.pipelines.relational import interval_join

    rng = np.random.default_rng(31)
    # non-overlapping intervals per key
    ivs = []
    for k in range(6):
        t = 0
        for s in range(rng.integers(1, 5)):
            start = t + int(rng.integers(1, 20))
            end = start + int(rng.integers(0, 15))
            ivs.append((k, start, end, len(ivs)))
            t = end
    iv = pd.DataFrame(ivs, columns=["k", "start", "end", "iv_id"])
    pt = pd.DataFrame(
        {
            "k": rng.integers(0, 8, 300),
            "t": rng.integers(0, 80, 300),
            "pt_id": np.arange(300),
        }
    )
    got = (
        interval_join(
            ray.data.from_pandas(iv).repartition(3),
            ray.data.from_pandas(pt).repartition(4),
            key="k",
            start_col="start",
            end_col="end",
            ts_col="t",
            interval_cols=["iv_id"],
            point_cols=["pt_id"],
        )
        .to_pandas()
        .sort_values("pt_id")
        .reset_index(drop=True)
    )
    rows = []
    for _, p in pt.iterrows():
        m = iv[(iv["k"] == p["k"]) & (iv["start"] <= p["t"]) & (p["t"] <= iv["end"])]
        assert len(m) <= 1
        if len(m):
            rows.append((p["pt_id"], p["k"], p["t"], m["start"].iloc[0], m["end"].iloc[0], m["iv_id"].iloc[0]))
    exp = pd.DataFrame(rows, columns=["pt_id", "k", "t", "start", "end", "iv_id"])
    exp = exp.sort_values("pt_id").reset_index(drop=True)
    got = got[["pt_id", "k", "t", "start", "end", "iv_id"]].astype("int64")
    pd.testing.assert_frame_equal(got, exp.astype("int64"))


def test_video_frames_vectorized_equals_rowwise_and_brute():
    from rasterflow.pipelines.multimodal import VideoFrameSampleStage
    from rasterflow.sources.fixtures import payload_batch

    ids = np.arange(9)
    fixed = payload_batch(ids, nbytes=1024, salt=4)
    var = pa.array([bytes(v.as_py()) for v in fixed], type=pa.binary())
    tf = pa.table({"doc_id": ids, "video": fixed})
    tv = pa.table({"doc_id": ids, "video": var})
    st = VideoFrameSampleStage(payload_col="video", id_col="doc_id", total_frames=32, num_frames=8)
    a, b = st(tf), st(tv)
    assert a.column("frame_sums").to_pylist() == b.column("frame_sums").to_pylist()
    assert a.column("checksum").to_pylist() == b.column("checksum").to_pylist()
    # brute: frame j = bytes [32*(4j), 32*(4j)+32)
    for i, v in enumerate(fixed):
        raw = np.frombuffer(bytes(v.as_py()), dtype=np.uint8)
        exp = [int(raw[32 * (4 * j): 32 * (4 * j) + 32].sum()) for j in range(8)]
        assert a.column("frame_sums").to_pylist()[i] == exp
        assert a.column("checksum").to_pylist()[i] == sum(exp)


def test_rollup_aggregate_matches_pandas(ray_session):
    import ray.data

    from rasterflow.pipelines.relational import rollup_aggregate

    rng = np.random.default_rng(17)
    df = pd.DataFrame(
        {
            "source": np.array(["s1", "s2", "s3"])[rng.integers(0, 3, 500)],
            "lang": np.array(["en", "de"])[rng.integers(0, 2, 500)],
            "n": rng.integers(1, 100, 500),
        }
    )
    got = (
        rollup_aggregate(
            ray.data.from_pandas(df).repartition(4),
            ["source", "lang"],
            {"cnt": ("n", "count"), "s": ("n", "sum")},
        )
        .to_pandas()
        .sort_values(["source", "lang"])
        .reset_index(drop=True)
    )
    fine = df.groupby(["source", "lang"], as_index=False).agg(cnt=("n", "count"), s=("n", "sum"))
    mid = df.groupby(["source"], as_index=False).agg(cnt=("n", "count"), s=("n", "sum"))
    mid["lang"] = "ALL"
    top = pd.DataFrame({"source": ["ALL"], "lang": ["ALL"], "cnt": [len(df)], "s": [df["n"].sum()]})
    exp = (
        pd.concat([fine, mid, top], ignore_index=True)[["source", "lang", "cnt", "s"]]
        .sort_values(["source", "lang"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["source", "lang", "cnt", "s"]].astype({"cnt": "int64", "s": "int64"}),
        exp.astype({"cnt": "int64", "s": "int64"}),
    )


def test_pivot_counts_matches_crosstab(ray_session):
    import ray.data

    from rasterflow.pipelines.relational import pivot_counts

    rng = np.random.default_rng(19)
    df = pd.DataFrame(
        {
            "source": np.array(["a", "b"])[rng.integers(0, 2, 400)],
            "lang": np.array(["en", "de", "xx"])[rng.integers(0, 3, 400)],
        }
    )
    got = (
        pivot_counts(
            ray.data.from_pandas(df).repartition(3),
            row_key="source",
            col_key="lang",
            col_values=["en", "de"],
        )
        .to_pandas()
        .sort_values("source")
        .reset_index(drop=True)
    )
    ct = pd.crosstab(df["source"], df["lang"])
    for _, r in got.iterrows():
        assert r["n_en"] == ct.loc[r["source"], "en"]
        assert r["n_de"] == ct.loc[r["source"], "de"]
        assert r["n_other"] == ct.loc[r["source"], "xx"]


def test_hashing_vectorize_matches_brute(ray_session):
    import ray.data

    from rasterflow.pipelines.textstats import hashing_vectorize
    from rasterflow.stages.texthash import P, mix64

    texts = ["the cat sat", "", "  ", "a a a b", "zz yy zz"]
    dim = 16
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    ).repartition(3)
    got = hashing_vectorize(ds, dim=dim).to_pandas().sort_values("doc_id")

    def tok_hash(tok: bytes) -> np.uint64:
        # token_hashes is the UNSEEDED rolling polynomial (no FNV offset;
        # doc_hashes adds the seed, token hashing does not)
        with np.errstate(over="ignore"):
            h = np.uint64(0)
            for byte in tok:
                h = h * np.uint64(P) + np.uint64(byte)
        return h

    for i, t in enumerate(texts):
        exp = np.zeros(dim, dtype=np.int64)
        for tok in t.split():
            with np.errstate(over="ignore"):
                b = int(
                    mix64(np.array([tok_hash(tok.encode())], dtype=np.uint64))[0]
                    % np.uint64(dim)
                )
            exp[b] += 1
        row = got[got["doc_id"] == i]
        assert list(row["features"].iloc[0]) == list(exp), (i, t)
        assert int(row["n_tok"].iloc[0]) == len(t.split())


def test_bloom_semi_join_exact(ray_session):
    import ray.data

    from rasterflow.pipelines.relational import bloom_semi_join

    rng = np.random.default_rng(37)
    left = pd.DataFrame({"k": rng.integers(0, 2000, 3000), "v": np.arange(3000)})
    right = pd.DataFrame({"k": rng.integers(0, 400, 150)})
    # tiny filter to force false positives through to the exact verify
    got = (
        bloom_semi_join(
            ray.data.from_pandas(left).repartition(4),
            ray.data.from_pandas(right).repartition(2),
            on="k",
            left_cols=["v"],
            nbits=1 << 8,
        )
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    keys = set(right["k"])
    exp = (
        left[left["k"].isin(keys)].sort_values(["k", "v"]).reset_index(drop=True)[["k", "v"]]
    )
    pd.testing.assert_frame_equal(got.astype("int64"), exp.astype("int64"))


def test_bloom_semi_join_approx_superset(ray_session):
    import ray.data

    from rasterflow.pipelines.relational import bloom_semi_join

    rng = np.random.default_rng(41)
    left = pd.DataFrame({"k": rng.integers(0, 500, 1000), "v": np.arange(1000)})
    right = pd.DataFrame({"k": rng.integers(0, 100, 60)})
    got = (
        bloom_semi_join(
            ray.data.from_pandas(left).repartition(3),
            ray.data.from_pandas(right).repartition(2),
            on="k",
            left_cols=["v"],
            nbits=1 << 16,
            exact=False,
        )
        .to_pandas()
    )
    keys = set(right["k"])
    true_rows = set(left[left["k"].isin(keys)]["v"])
    assert true_rows <= set(got["v"])  # no false negatives, ever


def test_heavy_hitters_guarantee(ray_session):
    from collections import Counter

    import ray.data

    from rasterflow.pipelines.sketch import heavy_hitters_sketch

    rng = np.random.default_rng(43)
    vocab = [f"w{j}" for j in range(3000)]
    # zipf-ish: a few very hot tokens + a long tail, spread across batches
    texts = []
    for _ in range(800):
        toks = ["hot1"] * int(rng.integers(2, 6)) + ["hot2"] * int(rng.integers(1, 4))
        toks += [vocab[int(i)] for i in rng.integers(0, 3000, 25)]
        texts.append(" ".join(toks))
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    ).repartition(6)
    k = 150
    got = heavy_hitters_sketch(ds, k=k, top=30).to_pandas()
    c = Counter(w for t in texts for w in t.split())
    n = sum(c.values())
    est = dict(zip(got["token"], got["est"]))
    assert (got["err_bound"] == n // k).all()
    # MG guarantee on reported tokens: est <= true <= est + n/k
    for tok, e in est.items():
        assert e <= c[tok] <= e + n // k, (tok, e, c[tok])
    # every token with true count > n/k must be reported (top=30 >> #such)
    for tok, true in c.items():
        if true > n // k:
            assert tok in est, (tok, true, n // k)
