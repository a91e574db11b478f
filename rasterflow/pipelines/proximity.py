"""Distance self-join: all point pairs within radius r, grid-bucketed.

The reference answers "points near a QUERY location" (``radius_search``) and
"k nearest to a query" (kNN); the missing proximity primitive is the
**distance self-join** — every pair of points within ``r`` of each other
(co-location analysis, duplicate-venue detection, contact graphs).  Naive is
O(n²); the classic distributed plan buckets points into r-sized grid cells so
candidate pairs only form inside a cell or between ADJACENT cells.

Plan (one shuffle, no all-pairs): each point scatters to its home cell
(tagged) plus ghost copies in the four FORWARD neighbor cells (E, NE, N, SE).
Forward-only replication means every adjacent-cell pair is assembled in
exactly one cell, and same-cell pairs dedupe by ``id_a < id_b`` — no pair is
generated twice, no post-hoc distinct needed.  One hash exchange on the cell
key co-locates each cell's points; within a partition the per-cell cross
products expand fully vectorized (the same segment expansion as
``overlay._cross_pairs``) and the d² filter is one numpy expression whose
float shape matches the SQL oracle exactly.

Scale: replication factor is a flat 5×; pair work is Σ_cells n_c·(n_c+g_c),
i.e. local density², never corpus².  A pathological hot cell (n_c ≫ avg) is
the usual skew story — shrink ``radius``'s cell (bucket at r but tile hot
cells by a second key) or pre-aggregate duplicate coordinates; the hot-key
salting of the join family applies since pair generation is associative over
row subsets of the same cell pair.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..util import _hash_cols, shuffle_parts
from .overlay import _cross_pairs

_FWD = ((1, -1), (1, 0), (1, 1), (0, 1))


def distance_join_pairs(
    points_ds,
    radius: float,
    id_col: str = "doc_id",
    num_partitions: int | None = None,
    sort: bool = True,
):
    """All pairs ``(id_a < id_b, d2)`` with ``d2 = (xa-xb)² + (ya-yb)² ≤ r²``."""
    if num_partitions is None:
        num_partitions = shuffle_parts(1.0)
    r = float(radius)
    r2 = r * r

    def scatter(b: pa.Table) -> pa.Table:
        x = b.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        y = b.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        cx = np.floor(x / r).astype(np.int64)
        cy = np.floor(y / r).astype(np.int64)
        n = len(x)
        reps = 1 + len(_FWD)
        ox = np.concatenate([cx] + [cx + dx for dx, _ in _FWD])
        oy = np.concatenate([cy] + [cy + dy for _, dy in _FWD])
        tag = np.zeros(n * reps, dtype=np.int8)
        tag[:n] = 1  # home copy
        df = pd.DataFrame({"cx": ox, "cy": oy})
        pk = (_hash_cols(df, ["cx", "cy"]) % np.uint64(num_partitions)).astype(np.int32)
        t = np.tile
        return pa.table(
            {
                "cx": ox,
                "cy": oy,
                "tag": tag,
                "id": t(ids, reps),
                "x": t(x, reps),
                "y": t(y, reps),
                "_pk": pk,
            }
        )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized pass over ALL cells of this partition: factorize the
        # cell key, segment-expand home×(home ∪ ghost) per cell, filter by d²
        cell = g["cx"].to_numpy() * np.int64(1 << 32) + (
            g["cy"].to_numpy() & np.int64(0xFFFFFFFF)
        )
        codes, _ = pd.factorize(cell, sort=False)
        idx = np.arange(len(g), dtype=np.int64)
        home = g["tag"].to_numpy() == 1
        ia, ib = _cross_pairs(
            int(codes.max()) + 1 if len(codes) else 0,
            codes[home], idx[home], codes, idx,
        )
        if len(ia) == 0:
            return pd.DataFrame({"id_a": np.empty(0, np.int64), "id_b": np.empty(0, np.int64), "d2": np.empty(0, np.float64)})
        xa = g["x"].to_numpy()
        ya = g["y"].to_numpy()
        ids = g["id"].to_numpy()
        tags = g["tag"].to_numpy()
        dx = xa[ia] - xa[ib]
        dy = ya[ia] - ya[ib]
        d2 = dx * dx + dy * dy
        # home×home same-cell pairs appear in both orders -> keep id_a < id_b;
        # home×ghost pairs are assembled exactly once (forward offsets)
        keep = (d2 <= r2) & np.where(tags[ib] == 1, ids[ia] < ids[ib], True)
        ia, ib, d2 = ia[keep], ib[keep], d2[keep]
        lo = np.minimum(ids[ia], ids[ib])
        hi = np.maximum(ids[ia], ids[ib])
        return pd.DataFrame({"id_a": lo, "id_b": hi, "d2": d2})

    scattered = points_ds.map_batches(scatter, batch_format="pyarrow")
    out = scattered.groupby("_pk").map_groups(pairs, batch_format="pandas")
    return out.sort(["id_a", "id_b"]) if sort else out


def distance_join_bipartite(
    a_ds,
    b_ds,
    radius: float,
    a_id: str = "event_id",
    b_id: str = "doc_id",
    num_partitions: int | None = None,
    sort: bool = True,
):
    """Bipartite distance join: all (a, b) pairs with ``d² ≤ r²`` across two
    point sets — "attach every nearby POI to every event".

    Left rows scatter to their home cell only; right rows replicate to home
    + all 8 neighbor cells (9×, no dedup needed since sides are disjoint):
    any pair within r has the b-copy in a's home cell.  Both sides ride ONE
    tagged-union hash exchange on the cell key; per-partition expansion is
    the same vectorized segment plan as the self-join.  Output
    ``(a_id, b_id, d2)`` sorted.
    """
    if num_partitions is None:
        num_partitions = shuffle_parts(1.0)
    r = float(radius)
    r2 = r * r
    offs = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]

    def scatter_side(side: int, id_col: str):
        reps = 1 if side == 0 else len(offs)

        def fn(b: pa.Table) -> pa.Table:
            x = b.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
            y = b.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
            ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
            cx = np.floor(x / r).astype(np.int64)
            cy = np.floor(y / r).astype(np.int64)
            if side == 0:
                ox, oy = cx, cy
            else:
                ox = np.concatenate([cx + dx for dx, _ in offs])
                oy = np.concatenate([cy + dy for _, dy in offs])
            df = pd.DataFrame({"cx": ox, "cy": oy})
            pk = (_hash_cols(df, ["cx", "cy"]) % np.uint64(num_partitions)).astype(np.int32)
            t = np.tile
            return pa.table(
                {
                    "cx": ox,
                    "cy": oy,
                    "side": np.full(len(ox), side, dtype=np.int8),
                    "id": t(ids, reps),
                    "x": t(x, reps),
                    "y": t(y, reps),
                    "_pk": pk,
                }
            )

        return fn

    sa = a_ds.map_batches(scatter_side(0, a_id), batch_format="pyarrow")
    sb = b_ds.map_batches(scatter_side(1, b_id), batch_format="pyarrow")
    both = sa.union(sb)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        cell = g["cx"].to_numpy() * np.int64(1 << 32) + (
            g["cy"].to_numpy() & np.int64(0xFFFFFFFF)
        )
        codes, _ = pd.factorize(cell, sort=False)
        idx = np.arange(len(g), dtype=np.int64)
        is_a = g["side"].to_numpy() == 0
        ia, ib = _cross_pairs(
            int(codes.max()) + 1 if len(codes) else 0,
            codes[is_a], idx[is_a], codes[~is_a], idx[~is_a],
        )
        if len(ia) == 0:
            return pd.DataFrame(
                {a_id: np.empty(0, np.int64), b_id: np.empty(0, np.int64), "d2": np.empty(0, np.float64)}
            )
        x = g["x"].to_numpy()
        y = g["y"].to_numpy()
        ids = g["id"].to_numpy()
        dx = x[ia] - x[ib]
        dy = y[ia] - y[ib]
        d2 = dx * dx + dy * dy
        keep = d2 <= r2
        return pd.DataFrame({a_id: ids[ia[keep]], b_id: ids[ib[keep]], "d2": d2[keep]})

    out = both.groupby("_pk").map_groups(pairs, batch_format="pandas")
    return out.sort([a_id, b_id]) if sort else out


def dbscan(
    points_ds,
    eps: float,
    min_pts: int = 4,
    id_col: str = "doc_id",
    sort: bool = True,
):
    """DBSCAN density clustering (Ester et al., KDD'96) over the ε-pair graph.

    Composition: :func:`distance_join_pairs` builds the ε-neighborhood graph
    distributed (the only heavy step — grid-bucketed, one shuffle); core
    points have ≥ ``min_pts`` points in their closed neighborhood (self
    included); clusters are connected components of the core-core subgraph
    labeled by their minimum core id (deterministic ≡ the SQL min-label
    closure); border points attach to the smallest-labeled core neighbor;
    noise is omitted.  Returns ``(doc_id, cluster, is_core)`` sorted by id.

    The graph-reduction tail mirrors :func:`dedup.neardup_clusters`' default
    posture: the pair stream folds into a driver union-find whose memory is
    O(ε-graph nodes) — the dup-graph scale class, NOT the corpus; for
    corpora where even that exceeds the driver, swap the CC fold for
    ``dedup._cc_large_small_star`` over the core-core pair Dataset (same
    two-column contract).

    ``min_pts`` must be at least 2: degrees come from the ε-pair stream, so a
    point with no neighbor never appears there and could not become core
    under ``min_pts <= 1`` (where DBSCAN makes every point core).  Raises
    ``ValueError`` for ``min_pts < 2``."""
    import ray.data

    from ..util import coalesce_small, grouped_aggregate

    if min_pts < 2:
        raise ValueError(f"dbscan needs min_pts >= 2 (isolated points never reach the pair stream), got {min_pts}")
    pairs = distance_join_pairs(points_ds, eps, id_col=id_col, sort=False).materialize()

    # degrees DISTRIBUTED: per-batch endpoint collapse, one collapsed-key
    # exchange; only the CORE node ids reach the driver (O(core nodes))
    def degp(b: pa.Table) -> pa.Table:
        ids = np.concatenate(
            [
                b.column("id_a").to_numpy(zero_copy_only=False),
                b.column("id_b").to_numpy(zero_copy_only=False),
            ]
        )
        uniq, cnt = np.unique(ids, return_counts=True)
        return pa.table({"id": pa.array(uniq), "deg": pa.array(cnt.astype(np.int64))})

    deg = grouped_aggregate(
        coalesce_small(pairs.map_batches(degp, batch_format="pyarrow"), 0.25),
        "id",
        {"deg": ("deg", "sum")},
    )

    def corefilter(t: pa.Table) -> pa.Table:
        d = t.column("deg").to_numpy(zero_copy_only=False)
        return t.select(["id"]).filter(pa.array(d + 1 >= min_pts))

    core_arr = np.sort(
        deg.map_batches(corefilter, batch_format="pyarrow")
        .to_pandas()["id"]
        .to_numpy()
        .astype(np.int64)
    )

    def _is_core(v: np.ndarray) -> np.ndarray:
        if len(core_arr) == 0:
            return np.zeros(len(v), dtype=bool)
        pos = np.minimum(np.searchsorted(core_arr, v), len(core_arr) - 1)
        return core_arr[pos] == v

    # streaming pass 1: union-find over CORE-CORE edges only (min-id roots);
    # edge batches are filtered vectorized and never concatenated — driver
    # memory is the parent map, O(core nodes)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for b in pairs.iter_batches(batch_format="pyarrow", batch_size=None):
        ua = b.column("id_a").to_numpy(zero_copy_only=False)
        ub = b.column("id_b").to_numpy(zero_copy_only=False)
        cc = _is_core(ua) & _is_core(ub)
        for a_, b_ in zip(ua[cc].tolist(), ub[cc].tolist()):
            ra, rb = find(a_), find(b_)
            if ra != rb:
                if rb < ra:
                    ra, rb = rb, ra
                parent[rb] = ra

    rows_id: list[int] = []
    rows_cl: list[int] = []
    rows_core: list[bool] = []
    for c in core_arr.tolist():
        rows_id.append(c)
        rows_cl.append(find(c))
        rows_core.append(True)

    # streaming pass 2: border = non-core endpoint of a core edge -> min core
    # label; driver memory O(border nodes)
    border: dict[int, int] = {}
    for b in pairs.iter_batches(batch_format="pyarrow", batch_size=None):
        ua = b.column("id_a").to_numpy(zero_copy_only=False)
        ub = b.column("id_b").to_numpy(zero_copy_only=False)
        ca = _is_core(ua)
        cb = _is_core(ub)
        for p_arr, q_arr, m in ((ua, ub, ~ca & cb), (ub, ua, ~cb & ca)):
            for p, q in zip(p_arr[m].tolist(), q_arr[m].tolist()):
                lbl = find(q)
                if p not in border or lbl < border[p]:
                    border[p] = lbl
    for p in sorted(border):
        rows_id.append(p)
        rows_cl.append(border[p])
        rows_core.append(False)

    out = ray.data.from_arrow(
        pa.table(
            {
                id_col: pa.array(rows_id, type=pa.int64()),
                "cluster": pa.array(rows_cl, type=pa.int64()),
                "is_core": pa.array(rows_core, type=pa.bool_()),
            }
        )
    )
    return out.sort(id_col) if sort else out
