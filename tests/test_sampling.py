"""Tests for rasterflow.pipelines.sampling: the histogram family
(value_histogram and its rank_pick / below folds), the quantile selection
paths, mixture weights, and the rank / MAD / Gini transforms."""

import math

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from rasterflow.pipelines.sampling import below, rank_pick


def _segments(counts_per_group):
    """(cnt, starts) of a histogram whose groups hold the given counts."""
    sizes = [len(c) for c in counts_per_group]
    cnt = np.array([x for c in counts_per_group for x in c], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
    return cnt, starts


def _rank_pick_loop(cnt, starts, qs):
    """The per-group driver loop the folds replaced: ceil(q·n) rank (at
    least 1), searchsorted in the group's own cumulative count."""
    ends = list(starts[1:]) + [len(cnt)]
    out = []
    for s, e in zip(starts, ends):
        cum = np.cumsum(cnt[s:e])
        n = int(cum[-1])
        row = []
        for q in qs:
            rank = max(1, math.ceil(q * float(n)))
            row.append(s + min(int(np.searchsorted(cum, rank)), e - s - 1))
        out.append(row)
    return np.array(out, dtype=np.int64).reshape(len(starts), len(qs))


def _below_loop(x, starts):
    ends = list(starts[1:]) + [len(x)]
    return np.concatenate(
        [np.concatenate(([0], np.cumsum(x[s:e])[:-1])) for s, e in zip(starts, ends)]
    ).astype(np.int64)


_groups = st.lists(
    st.lists(st.integers(1, 50), min_size=1, max_size=6), min_size=1, max_size=8
)
_qs = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(_groups, _qs, st.data())
def test_rank_pick_and_below_match_per_group_loop(groups, qs, data):
    cnt, starts = _segments(groups)
    np.testing.assert_array_equal(rank_pick(cnt, starts, qs), _rank_pick_loop(cnt, starts, qs))
    np.testing.assert_array_equal(below(cnt, starts), _below_loop(cnt, starts))
    # values ascending within each group, as value_histogram returns them
    v = np.concatenate(
        [np.sort(data.draw(st.lists(st.integers(-1000, 1000), min_size=len(g), max_size=len(g), unique=True)))
         for g in groups]
    ).astype(np.int64)
    np.testing.assert_array_equal(below(cnt * v, starts), _below_loop(cnt * v, starts))


def test_rank_pick_edges():
    # one segment: ranks 1, ceil(0.5·10)=5 and n=10 over counts 3,3,4
    cnt, starts = _segments([[3, 3, 4]])
    assert rank_pick(cnt, starts, (1e-9, 0.5, 1.0)).tolist() == [[0, 1, 2]]
    # groups holding a single value each: every q picks that value
    cnt, starts = _segments([[5], [1], [7]])
    qs = (0.0, 1e-12, 0.5, 1.0)
    assert rank_pick(cnt, starts, qs).tolist() == [[0] * 4, [1] * 4, [2] * 4]
    np.testing.assert_array_equal(below(cnt, starts), [0, 0, 0])
    # many segments, q=1.0 lands on each group's last value, a tiny q on its first
    cnt, starts = _segments([[2, 1], [1, 1, 1], [4]])
    assert rank_pick(cnt, starts, (1.0,)).ravel().tolist() == [1, 4, 5]
    assert rank_pick(cnt, starts, (1e-9,)).ravel().tolist() == [0, 2, 5]
    # q above 1 clamps to each group's largest value, as the loop did
    assert rank_pick(cnt, starts, (1.5,)).ravel().tolist() == [1, 4, 5]
    assert _rank_pick_loop(cnt, starts, (1.5,)).ravel().tolist() == [1, 4, 5]
    np.testing.assert_array_equal(below(cnt, starts), [0, 2, 0, 1, 2, 0])
    # empty histogram
    e = np.zeros(0, dtype=np.int64)
    assert rank_pick(e, e, (0.5,)).shape == (0, 1)
    assert len(below(e, e)) == 0


def test_column_quantiles_empty_histogram(ray_session):
    """No non-null value: one null value per q, not an error."""
    import ray.data

    from rasterflow.pipelines.sampling import column_quantiles

    qs = (0.1, 0.5, 0.9)
    for df in (
        pd.DataFrame({"x": np.array([], dtype=np.int64)}),
        pd.DataFrame({"x": [np.nan] * 4}),
    ):
        got = column_quantiles(ray.data.from_pandas(df), "x", qs=qs).to_pandas()
        assert list(got["q"]) == list(qs)
        assert got["value"].isna().all() and len(got) == len(qs)


def test_column_quantiles_exact(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import column_quantiles

    rng = np.random.default_rng(3)
    vals = rng.integers(0, 500, size=10_000)
    ds = ray.data.from_pandas(pd.DataFrame({"x": vals}))
    got = column_quantiles(ds, "x", qs=(0.1, 0.5, 0.9)).to_pandas()
    sv = np.sort(vals)
    import math

    for q, v in zip(got["q"], got["value"]):
        rank = max(1, math.ceil(q * len(sv)))
        assert v == sv[rank - 1], (q, v, sv[rank - 1])


def test_column_quantiles_select_exact(ray_session):
    """Round 3: pivot-selection quantiles are exact on continuous
    (unbounded-distinct) columns, heavy-duplicate columns, and match the
    histogram method where that method's assumption holds."""
    import math

    import ray.data

    from rasterflow.pipelines.sampling import column_quantiles, column_quantiles_select

    rng = np.random.default_rng(3)
    qs = (0.1, 0.5, 0.9, 0.99)

    def expected(v):
        sv = np.sort(v)
        return [sv[max(1, math.ceil(q * len(sv))) - 1] for q in qs]

    # continuous: all-distinct floats across several blocks
    v = rng.standard_normal(20_000) * 100
    ds = ray.data.from_pandas([pd.DataFrame({"x": c}) for c in np.array_split(v, 7)])
    got = column_quantiles_select(ds, "x", qs, max_collect=500).to_pandas()
    assert list(got["value"]) == expected(v)

    # heavy duplicates: one value dominates (degenerate-interval shortcut)
    v2 = np.concatenate([np.full(15_000, 42.0), rng.standard_normal(100)])
    rng.shuffle(v2)
    ds2 = ray.data.from_pandas([pd.DataFrame({"x": c}) for c in np.array_split(v2, 5)])
    got2 = column_quantiles_select(ds2, "x", qs, max_collect=50).to_pandas()
    assert list(got2["value"]) == expected(v2)

    # agreement with the histogram method on a bounded-distinct int column
    v3 = rng.integers(0, 40, size=8_000)
    ds3 = ray.data.from_pandas([pd.DataFrame({"x": c}) for c in np.array_split(v3, 4)])
    a = column_quantiles(ds3, "x", qs).to_pandas()
    b = column_quantiles_select(ds3, "x", qs, max_collect=200).to_pandas()
    assert list(a["value"]) == list(b["value"]) == expected(v3)


def test_quantiles_select_edge_cases(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import column_quantiles_select

    # q = 1.0 and a single-row dataset
    ds1 = ray.data.from_pandas(pd.DataFrame({"x": [7.5]}))
    out = column_quantiles_select(ds1, "x", (0.5, 1.0)).to_pandas()
    assert list(out["value"]) == [7.5, 7.5]
    # all-equal column
    ds2 = ray.data.from_pandas(pd.DataFrame({"x": np.full(5000, 3.0)}))
    out2 = column_quantiles_select(ds2, "x", (0.1, 0.99), max_collect=100).to_pandas()
    assert list(out2["value"]) == [3.0, 3.0]


def test_group_quantiles_explicit_rank(ray_session):
    import math

    import ray.data

    from rasterflow.pipelines.sampling import group_quantiles

    rng = np.random.default_rng(7)
    df = pd.DataFrame(
        {
            "lang": np.array(["en", "de"])[rng.integers(0, 2, 600)],
            "n_chars": rng.integers(0, 80, 600),
        }
    )
    got = group_quantiles(
        ray.data.from_pandas(df).repartition(4), "n_chars", "lang", qs=(0.25, 0.5, 0.9)
    ).to_pandas()
    for lang, sub in df.groupby("lang"):
        v = np.sort(sub["n_chars"].to_numpy())
        for q in (0.25, 0.5, 0.9):
            rank = max(1, math.ceil(q * len(v)))
            exp = v[rank - 1]
            row = got[(got["lang"] == lang) & (got["q"] == q)]
            assert int(row["value"].iloc[0]) == int(exp), (lang, q)


def test_group_quantiles_select_continuous(ray_session):
    """Directive r3#3: per-group EXACT quantiles over a continuous column
    (every value distinct) — the old group_quantiles driver histogram would
    materialize all 450k (group, value) pairs; the selection path keeps
    driver state at O(groups × qs) and must still be exactly right."""
    import ray.data

    from rasterflow.pipelines.sampling import group_quantiles_select

    rng = np.random.default_rng(61)
    sizes = {"en": 200_000, "de": 150_000, "xx": 100_001}
    frames = [
        pd.DataFrame({"lang": g, "v": rng.random(n) * 1000.0})
        for g, n in sizes.items()
    ]
    df = pd.concat(frames, ignore_index=True)
    qs = (0.25, 0.5, 0.9)
    got = (
        group_quantiles_select(
            ray.data.from_pandas(df).repartition(8),
            "v",
            "lang",
            qs=qs,
            max_collect=5_000,  # force real pivot-narrowing rounds
        )
        .to_pandas()
        .sort_values(["lang", "q"])
        .reset_index(drop=True)
    )
    import math

    for g, n in sizes.items():
        sv = np.sort(df[df["lang"] == g]["v"].to_numpy())
        for q in qs:
            exp = sv[max(1, math.ceil(q * n)) - 1]
            val = got[(got["lang"] == g) & (got["q"] == q)]["value"].iloc[0]
            assert val == exp, (g, q, val, exp)


def test_group_quantiles_select_matches_histogram_path(ray_session):
    """Bounded-distinct fixture: the selection path and the histogram path
    (group_quantiles) agree exactly, including heavy duplicate runs."""
    import ray.data

    from rasterflow.pipelines.sampling import group_quantiles, group_quantiles_select

    rng = np.random.default_rng(67)
    df = pd.DataFrame(
        {
            "g": np.array(["a", "b", "c"])[rng.integers(0, 3, 30_000)],
            "v": rng.integers(0, 50, 30_000).astype(np.float64),
        }
    )
    ds = ray.data.from_pandas(df).repartition(5)
    qs = (0.1, 0.5, 0.99)
    a = (
        group_quantiles_select(ds, "v", "g", qs=qs, max_collect=100)
        .to_pandas()
        .sort_values(["g", "q"])
        .reset_index(drop=True)
    )
    b = (
        group_quantiles(ds, "v", "g", qs=qs)
        .to_pandas()
        .sort_values(["g", "q"])
        .reset_index(drop=True)
    )
    b.columns = ["g", "q", "value"]
    pd.testing.assert_frame_equal(a.astype({"value": "float64"}), b.astype({"value": "float64"}))


def test_mixture_weights(ray_session):
    """Target/actual share weights; absent strata get weight 0 (visible,
    not renormalized)."""
    import ray.data

    from rasterflow.pipelines.sampling import mixture_weights

    df = pd.DataFrame({"source": ["a"] * 600 + ["b"] * 300 + ["c"] * 100})
    out = (
        mixture_weights(
            ray.data.from_pandas(df).repartition(4), "source", {"a": 0.5, "b": 0.5}
        )
        .to_pandas()
        .set_index("source")
    )
    assert out.loc["a", "n_docs"] == 600
    np.testing.assert_allclose(out.loc["a", "weight"], 0.5 / 0.6)
    np.testing.assert_allclose(out.loc["b", "weight"], 0.5 / 0.3)
    assert out.loc["c", "weight"] == 0.0
    np.testing.assert_allclose(out["actual_share"].sum(), 1.0)


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


def test_rank_transform_null_value_gets_null_rank(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import rank_transform

    t = pa.table({"doc_id": pa.array([1, 2, 3]), "n_chars": pa.array([5, None, 9], pa.int64())})
    got = rank_transform(ray.data.from_arrow(t), "n_chars").to_pandas()
    assert got["doc_id"].tolist() == [1, 2, 3]
    assert got["rank_lt"].isna().tolist() == [False, True, False]
    assert got["rank_lt"].iloc[[0, 2]].tolist() == [0, 1]


def test_group_rank_transform_null_group_or_value_gets_null_rank(ray_session):
    import ray.data

    from rasterflow.pipelines.sampling import group_rank_transform

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3]),
            "lang": pa.array(["en", None, "en"]),
            "n_chars": pa.array([5, 7, 9], pa.int64()),
        }
    )
    got = group_rank_transform(ray.data.from_arrow(t), "n_chars", "lang").to_pandas()
    assert got["rank_lt"].isna().tolist() == [False, True, False]
    assert got["rank_lt"].iloc[[0, 2]].tolist() == [0, 1]
    t = t.set_column(2, "n_chars", pa.array([5, None, 9], pa.int64())).set_column(
        1, "lang", pa.array(["en", "en", "en"])
    )
    got = group_rank_transform(ray.data.from_arrow(t), "n_chars", "lang").to_pandas()
    assert got["rank_lt"].isna().tolist() == [False, True, False]
    assert got["rank_lt"].iloc[[0, 2]].tolist() == [0, 1]


def test_group_gini_and_mad_sorted_without_sort(ray_session, monkeypatch):
    """Both build their one-block result on the driver in group order, so
    the result comes sorted without a Sort all-to-all."""
    import ray.data

    from rasterflow.pipelines.sampling import group_gini, group_mad

    def no_sort(self, *a, **k):
        raise AssertionError("Dataset.sort called")

    rng = np.random.default_rng(5)
    df = pd.DataFrame({"lang": rng.choice(["d", "b", "a", "c"], 400), "n_chars": rng.integers(0, 50, 400)})
    ds = ray.data.from_pandas(df).repartition(3)
    monkeypatch.setattr(ray.data.Dataset, "sort", no_sort)
    for fn in (group_gini, group_mad):
        got = fn(ds, "n_chars", "lang").to_pandas()
        assert got["lang"].tolist() == ["a", "b", "c", "d"]
