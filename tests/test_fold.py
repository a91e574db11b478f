"""Tests for rasterflow.util.keyed_fold, the driver-side fold of key-bounded
partials, and for the registry queries that reduce through it without an
exchange."""

import collections

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

AGGS = {
    "n": ("v", "count"),
    "s": ("v", "sum"),
    "lo": ("v", "min"),
    "hi": ("v", "max"),
    "fs": ("f", "sum"),
}
INT_AGGS = {k: AGGS[k] for k in ("n", "s", "lo", "hi")}

_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-3, 3)),
        st.one_of(st.none(), st.sampled_from(["a", "b", "", "é"])),
        st.one_of(st.none(), st.integers(-(2**40), 2**40)),
        st.integers(-1000, 1000),
    ),
    min_size=0,
    max_size=60,
)


def _table(rows) -> pa.Table:
    k, g, v, f = zip(*rows) if rows else ((), (), (), ())
    return pa.table(
        {
            "k": pa.array(k, pa.int64()),
            "g": pa.array(g, pa.string()),
            "v": pa.array(v, pa.int64()),
            "f": pa.array([float(x) for x in f], pa.float64()),
        }
    )


def _blocks(t: pa.Table, n: int) -> list[pa.Table]:
    cuts = np.linspace(0, t.num_rows, n + 1).astype(int)
    return [t.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])]


def _frame(df: pd.DataFrame, keys: list[str]) -> pd.DataFrame:
    return df[keys + list(AGGS)].sort_values(keys, ignore_index=True)


@settings(max_examples=20, deadline=None)
@given(rows=_rows, keys=st.sampled_from([["k"], ["g"], ["g", "k"]]), nblocks=st.integers(1, 4))
@example(rows=[(None, None, None, 0)] * 2 + [(1, None, None, 0)] * 2 + [(0, None, None, 0)], keys=["k"], nblocks=3)
def test_keyed_fold_equals_grouped_aggregate(ray_session, rows, keys, nblocks):
    """Null values, null keys (dropped, as pandas ``groupby`` drops them),
    int, string and two-column keys.  The explicit example puts key 1 in a
    block with a null key and in one without: the exchange must still send
    both to one partition."""
    import ray.data

    from rasterflow.util import grouped_aggregate, keyed_fold

    t = _table(rows)
    ds = ray.data.from_arrow(_blocks(t, nblocks))
    got = keyed_fold(ds, keys, AGGS)
    assert got.column_names == keys + list(AGGS)
    exp = grouped_aggregate(ds, keys, AGGS).to_pandas()
    if exp.empty:  # an empty exchange collects no columns at all
        assert got.num_rows == 0
        return
    pd.testing.assert_frame_equal(
        _frame(got.to_pandas(), keys), _frame(exp, keys), check_dtype=False, check_exact=True
    )


@settings(max_examples=10, deadline=None)
@given(rows=_rows.filter(len), keys=st.sampled_from([["k"], ["g", "k"]]))
def test_keyed_fold_independent_of_blocks_and_arrival_order(ray_session, rows, keys):
    """Integer aggregates only: float sums still add in arrival order."""
    import ray.data

    from rasterflow.util import keyed_fold

    t = _table(rows)
    ref = keyed_fold(ray.data.from_arrow(t), keys, INT_AGGS)
    for n in (3, 17):
        blocks = _blocks(t, n)
        for order in (blocks, blocks[::-1]):
            assert keyed_fold(ray.data.from_arrow(order), keys, INT_AGGS).equals(ref)


def test_keyed_fold_empty_result_keeps_types(ray_session):
    """No block reaches the driver: the result is typed from the input's
    schema where Ray knows it."""
    import ray.data

    from rasterflow.util import keyed_fold

    t = pa.table({"poly_id": pa.array([], pa.int32()), "count": pa.array([], pa.int64())})
    aggs = {"count": ("count", "sum")}
    got = keyed_fold(ray.data.from_arrow(t), "poly_id", aggs)
    assert got.num_rows == 0
    assert got.schema == pa.schema([("poly_id", pa.int32()), ("count", pa.int64())])
    # a row-wise filter over no rows leaves Ray no schema: the columns stay
    got = keyed_fold(ray.data.from_arrow(t).filter(lambda r: True), "poly_id", aggs)
    assert got.num_rows == 0 and got.column_names == ["poly_id", "count"]


def test_keyed_fold_past_budget_uses_the_exchange(ray_session, monkeypatch):
    """Past the budget the fold finishes in the hash exchange, with the same
    rows and types as the driver fold."""
    import ray.data

    import rasterflow.util as util

    rng = np.random.default_rng(3)
    k = rng.integers(0, 400, 2000)
    v = pa.array(np.where(k % 7 == 0, None, rng.integers(-50, 50, 2000)).tolist(), pa.int64())
    t = pa.table({"k": k, "g": pa.array(np.char.mod("g%d", k % 3)), "v": v})
    ds = ray.data.from_arrow(_blocks(t, 8))
    ref = util.keyed_fold(ds, ["g", "k"], INT_AGGS)
    groupbys = collections.Counter()
    orig = ray.data.Dataset.groupby

    def spy(self, *a, **kw):
        groupbys["n"] += 1
        return orig(self, *a, **kw)

    monkeypatch.setattr(ray.data.Dataset, "groupby", spy)
    monkeypatch.setattr(util, "FOLD_BUDGET_BYTES", 4096)
    assert util.keyed_fold(ds, ["g", "k"], INT_AGGS).equals(ref)
    assert groupbys["n"] == 1


def test_fold_queries_run_no_exchange(ray_session, tmp_path, monkeypatch):
    """``join_part_agg``, ``focal_smooth`` and ``home_cells`` reach no
    sort, repartition or groupby; ``od_matrix`` keeps only its per-user
    partitioning groupby."""
    import ray.data

    import __ray_entry__ as E
    from perfbench import querytables

    querytables.write_query_tables(tmp_path, 5)
    calls = collections.Counter()
    for name in ("sort", "repartition", "groupby"):
        orig = getattr(ray.data.Dataset, name)

        def spy(self, *a, _name=name, _orig=orig, **k):
            calls[_name] += 1
            return _orig(self, *a, **k)

        monkeypatch.setattr(ray.data.Dataset, name, spy)
    reg = E.queries()
    for q, groupbys in (("join_part_agg", 0), ("focal_smooth", 0), ("home_cells", 0), ("od_matrix", 1)):
        calls.clear()
        assert len(reg[q](str(tmp_path)).to_pandas()) > 0
        assert (calls["repartition"], calls["groupby"]) == (0, groupbys), q
        if not groupbys:  # od_matrix's map_groups sorts inside its groupby
            assert calls["sort"] == 0, q


def test_keyed_fold_empty_result_runs_the_input_once(ray_session, tmp_path):
    """A map that keeps no rows leaves every partial empty; the result is
    typed without running the input plan a second time."""
    import ray.data

    from rasterflow.util import keyed_fold

    calls = tmp_path / "calls"

    def keep_none(t: pa.Table) -> pa.Table:
        with open(calls, "a") as f:
            f.write("x\n")
        return t.slice(0, 0)

    t = pa.table({"poly_id": pa.array([1, 2, 3], pa.int32()), "count": pa.array([1, 1, 1], pa.int64())})
    ds = ray.data.from_arrow(t).map_batches(keep_none, batch_format="pyarrow")
    got = keyed_fold(ds, "poly_id", {"count": ("count", "sum")})
    assert got.num_rows == 0 and got.column_names == ["poly_id", "count"]
    assert calls.read_text().count("x") == 1
