"""Trajectory / mobility analytics over geocoded event streams.

The reference aggregates points statically; the event log (`events` table:
``event_id, ts, user_id``) adds the ORDERED dimension — who moved where.
Two mobility primitives every geospatial event pipeline ships:

* :func:`user_steps` — per-user consecutive displacement: for every event,
  the squared distance from the same user's PREVIOUS event (NaN for the
  user's first).  The LAG-window plan of ``windows.lag_deltas`` applied to
  the geo plane: hash-partition by user, ONE vectorized sort + masked diff
  per partition, no per-key dispatch.
* :func:`od_matrix` — the origin-destination flow matrix: transitions
  between grid cells, ``(cell_from, cell_to, n)``.  The per-partition step
  pass collapses straight to unique cell pairs, which fold on the driver
  (:func:`~rasterflow.util.keyed_fold`) — raw steps never leave their task.

Partitioning assumption (shared with the window family): one user's events
fit in one partition task — a 10^9-event user is the sessionize-style
two-level split escape hatch.  Both outputs are hash-exact: d² is one float
expression mirrored by the SQL LAG oracle; the OD matrix is pure integers.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..geom.cells import Grid
from ..util import keyed_fold, shuffle_parts


def _with_pk(ds, key: str, cols: list[str], num_partitions: int):
    from ..util import _hash_cols

    def addpk(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({key: b.column(key).to_numpy(zero_copy_only=False)})
        pk = (_hash_cols(df, [key]) % np.uint64(num_partitions)).astype(np.int32)
        return b.select(cols).append_column("_pk", pa.array(pk))

    return ds.map_batches(addpk, batch_format="pyarrow")


def _sorted_steps(g: pd.DataFrame, key: str, ts_col: str, id_col: str):
    """Partition-local (sorted frame, same-user-as-previous mask)."""
    g = g.sort_values([key, ts_col, id_col], kind="stable")
    k = g[key].to_numpy()
    same = np.zeros(len(g), dtype=bool)
    if len(g) > 1:
        same[1:] = k[1:] == k[:-1]
    return g, same


def user_steps(
    events_ds,
    key: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    num_partitions: int | None = None,
    out_col: str = "d2_step",
):
    """Per-user consecutive squared displacement ``(event_id, user_id, d2)``.

    NaN for each user's first event — the float64/NaN representation every
    nullable query emits (the event_lag lesson, r4)."""
    if num_partitions is None:
        num_partitions = shuffle_parts(1.0)

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g, same = _sorted_steps(g, key, ts_col, id_col)
        x = g["x"].to_numpy()
        y = g["y"].to_numpy()
        d2 = np.full(len(g), np.nan)
        if len(g) > 1:
            dx = x[1:] - x[:-1]
            dy = y[1:] - y[:-1]
            d2[1:] = np.where(same[1:], dx * dx + dy * dy, np.nan)
        return pd.DataFrame(
            {id_col: g[id_col].to_numpy(), key: g[key].to_numpy(), out_col: d2}
        )

    withpk = _with_pk(events_ds, key, [id_col, key, ts_col, "x", "y"], num_partitions)
    return withpk.groupby("_pk").map_groups(per_partition, batch_format="pandas").sort(id_col)


def user_trips(
    events_ds,
    grid: Grid,
    gap_us: int,
    key: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    num_partitions: int | None = None,
    sort: bool = True,
):
    """Trip segmentation: split each user's event stream at time gaps >
    ``gap_us`` (the sessionize rule on the geo plane) and summarize each trip
    as ``(user_id, trip_id, n_events, cell_start, cell_end)``.

    Per-partition: one sort, one masked gap diff, one cumsum for trip
    ordinals, one groupby for the trip summaries — all trips of all the
    partition's users in one vectorized pass.  Start/end cells are the
    first/last event in (ts, id) order (deterministic ties).  Events
    outside the grid clip to its edge cells (``locate`` clamps), so trips
    never fragment on canvas bounds."""
    if num_partitions is None:
        num_partitions = shuffle_parts(1.0)
    empty = pd.DataFrame(
        {
            key: np.empty(0, np.int64),
            "trip_id": np.empty(0, np.int64),
            "n_events": np.empty(0, np.int64),
            "cell_start": np.empty(0, np.int64),
            "cell_end": np.empty(0, np.int64),
        }
    )

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g, same = _sorted_steps(g, key, ts_col, id_col)
        if len(g) == 0:
            return empty
        t = g[ts_col].to_numpy()
        us = t.astype("datetime64[us]").astype("int64") if np.issubdtype(
            t.dtype, np.datetime64
        ) else t.astype("int64")
        brk = np.ones(len(g), dtype=np.int64)
        if len(g) > 1:
            brk[1:] = np.where(same[1:] & (us[1:] - us[:-1] <= gap_us), 0, 1)
        # trip ordinal: cumulative breaks, re-based per user (first event of a
        # user always has brk=1, so within-user ordinals start at 1)
        cum = np.cumsum(brk)
        u = g[key].to_numpy()
        first_of_user = np.ones(len(g), dtype=bool)
        first_of_user[1:] = u[1:] != u[:-1]
        base = np.maximum.accumulate(np.where(first_of_user, cum - 1, 0))
        trip = cum - base
        ix, iy, _ = grid.locate(g["x"].to_numpy(), g["y"].to_numpy())
        cell = iy * np.int64(grid.nx) + ix
        df = pd.DataFrame(
            {key: u, "trip_id": trip, "cell": cell}
        )
        out = df.groupby([key, "trip_id"], as_index=False, sort=False).agg(
            n_events=pd.NamedAgg("cell", "size"),
            cell_start=pd.NamedAgg("cell", "first"),
            cell_end=pd.NamedAgg("cell", "last"),
        )
        return out

    withpk = _with_pk(events_ds, key, [id_col, key, ts_col, "x", "y"], num_partitions)
    out = withpk.groupby("_pk").map_groups(per_partition, batch_format="pandas")
    return out.sort([key, "trip_id"]) if sort else out


def copresence_pairs(
    events_ds,
    grid: Grid,
    window_us: int,
    key: str = "user_id",
    ts_col: str = "ts",
    num_partitions: int | None = None,
    sort: bool = True,
):
    """Spatio-temporal co-occurrence: pairs of users observed in the SAME
    grid cell within the SAME time window, with meeting counts — the
    contact/co-visitation join.

    Events collapse per batch to distinct ``(cell, window, user)`` keys
    (repeat visits in one window count once — co-presence, not event
    volume), ride ONE hash exchange on (cell, window), and each partition
    self-merges its groups vectorized (user_a < user_b).  Meeting counts
    collapse again on the pair key.  Pair work is Σ_groups m_g² over
    DISTINCT users per (cell, window) — bounded by place×time density, the
    same skew story as the distance join.  Returns
    ``(user_a, user_b, n_meet)``.
    """
    import pandas as pd

    from ..util import _hash_cols, coalesce_small, grouped_aggregate, shuffle_parts

    if num_partitions is None:
        num_partitions = shuffle_parts(1.0)

    def keys(b: pa.Table) -> pa.Table:
        lin, valid = grid.locate_linear(
            b.column("x").to_numpy(zero_copy_only=False),
            b.column("y").to_numpy(zero_copy_only=False),
        )
        t = b.column(ts_col).to_numpy(zero_copy_only=False)
        us = t.astype("datetime64[us]").astype("int64") if np.issubdtype(
            t.dtype, np.datetime64
        ) else t.astype("int64")
        u = b.column(key).to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {"cell": lin[valid], "w": us[valid] // window_us, "u": u[valid]}
        ).drop_duplicates()
        pk = (_hash_cols(df, ["cell", "w"]) % np.uint64(num_partitions)).astype(np.int32)
        t2 = pa.Table.from_pandas(df, preserve_index=False)
        return t2.append_column("_pk", pa.array(pk))

    keyed = events_ds.map_batches(keys, batch_format="pyarrow")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["cell", "w", "u"])  # cross-batch repeats
        m = g.merge(g, on=["cell", "w"])
        m = m[m["u_x"] < m["u_y"]]
        out = m.groupby(["u_x", "u_y"], as_index=False).size()
        return out.rename(columns={"u_x": "user_a", "u_y": "user_b", "size": "n_meet"})

    cand = keyed.groupby("_pk").map_groups(pairs, batch_format="pandas")
    out = grouped_aggregate(
        coalesce_small(cand, 0.25), ["user_a", "user_b"], {"n_meet": ("n_meet", "sum")}
    )
    return out.sort(["user_a", "user_b"]) if sort else out


def home_cells(
    points_ds,
    grid: Grid,
    key: str = "user_id",
):
    """Modal ("home") grid cell per user — the anchor-location primitive of
    mobility analysis: the cell where each user generated the most events,
    ties to the lowest cell id.  The (user, cell) counts fold on the driver
    (:func:`~rasterflow.util.keyed_fold`, no exchange), where one sort by
    (user, n desc, cell) picks each user's first row — raw events shuffle
    zero times.  Returns ``(user_id, cell_id, n)`` sorted by user.
    """
    import ray.data

    def cells(batch: pa.Table) -> pa.Table:
        lin, valid = grid.locate_linear(
            batch.column("x").to_numpy(zero_copy_only=False),
            batch.column("y").to_numpy(zero_copy_only=False),
        )
        return pa.table({key: batch.column(key).filter(pa.array(valid)), "cell_id": lin[valid]})

    cells_ds = points_ds.map_batches(cells, batch_format="pyarrow")
    t = keyed_fold(cells_ds, [key, "cell_id"], {"n": ("cell_id", "count")})
    t = t.sort_by([(key, "ascending"), ("n", "descending"), ("cell_id", "ascending")])
    u = t.column(key).to_numpy()
    first = np.flatnonzero(np.concatenate(([True], u[1:] != u[:-1]))) if len(u) else np.zeros(0, np.int64)
    return ray.data.from_arrow(t.take(pa.array(first)))


def value_by_home_cell(
    events_ds,
    points_ds,
    grid: Grid,
    value_col: str = "value",
    key: str = "user_id",
    sort: bool = True,
):
    """Revenue-by-home-area: total event value (fixed-point cents) and event
    count attributed to each user's HOME cell — the geo-attribution rollup
    (composition: :func:`home_cells` → broadcast user→cell map → streaming
    gather + collapsed-cell partials; the value rows never shuffle raw).

    ``events_ds`` carries (user, value); ``points_ds`` the geocoded events
    for the home derivation.  Cents use the half-away rule shared with the
    SQL ``round()`` (windows._cents_half_away) — integer-exact sums.
    """
    import ray

    from .windows import _cents_half_away

    home = home_cells(points_ds, grid, key=key).to_pandas()
    m = dict(zip(home[key], home["cell_id"]))
    ref = ray.put(m) if ray.is_initialized() else m

    def partial(b: pa.Table) -> pa.Table:
        mm = ray.get(ref) if not isinstance(ref, dict) else ref
        u = b.column(key).to_pandas()
        cents = _cents_half_away(b.column(value_col).to_numpy(zero_copy_only=False))
        cell = u.map(mm)
        ok = cell.notna().to_numpy()
        df = pd.DataFrame({"cell_id": cell.to_numpy()[ok].astype(np.int64), "cents": cents[ok]})
        out = df.groupby("cell_id", as_index=False).agg(
            n_events=("cents", "size"), cents=("cents", "sum")
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    from ..util import coalesce_small, grouped_aggregate

    partials = coalesce_small(events_ds.map_batches(partial, batch_format="pyarrow"), 0.25)
    out = grouped_aggregate(
        partials, "cell_id", {"n_events": ("n_events", "sum"), "cents": ("cents", "sum")}
    )
    return out.sort("cell_id") if sort else out


def od_matrix(
    events_ds,
    grid: Grid,
    key: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    num_partitions: int | None = None,
):
    """Origin-destination cell flow matrix ``(cell_from, cell_to, n)``.

    Steps whose either endpoint falls outside the grid are dropped (canvas
    clip, same rule as the histogram family).  One exchange partitions the
    events by user; the per-partition flow counts fold on the driver, sorted
    by (cell_from, cell_to)."""
    import ray.data

    if num_partitions is None:
        num_partitions = shuffle_parts(1.0)
    empty = pd.DataFrame(
        {
            "cell_from": np.empty(0, np.int64),
            "cell_to": np.empty(0, np.int64),
            "n": np.empty(0, np.int64),
        }
    )

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g, same = _sorted_steps(g, key, ts_col, id_col)
        if len(g) < 2:
            return empty
        lin, valid = grid.locate_linear(g["x"].to_numpy(), g["y"].to_numpy())
        ok = same[1:] & valid[1:] & valid[:-1]
        cf, ct = lin[:-1][ok], lin[1:][ok]
        if len(cf) == 0:
            return empty
        pair = cf * np.int64(grid.ncells) + ct
        uniq, counts = np.unique(pair, return_counts=True)
        return pd.DataFrame(
            {
                "cell_from": uniq // grid.ncells,
                "cell_to": uniq % grid.ncells,
                "n": counts.astype(np.int64),
            }
        )

    withpk = _with_pk(events_ds, key, [id_col, key, ts_col, "x", "y"], num_partitions)
    partials = withpk.groupby("_pk").map_groups(per_partition, batch_format="pandas")
    return ray.data.from_arrow(keyed_fold(partials, ["cell_from", "cell_to"], {"n": ("n", "sum")}))
