"""k-nearest-neighbour search over point datasets (J6 analogue).

The reference ships the cell-ring-expansion primitive
(``GridIndexF::getRegionPt``, ``CPUJoin/GridIndexF.cpp:177-198``: scan a
(2cx+1)x(2cy+1) cell neighborhood of the query) but never wires it to a CLI;
the north rule asks for kNN via cell-ring expansion as a first-class operator.

Two implementations:

- :func:`knn_brute` — fully streaming Ray Data pipeline: each batch computes
  distances to the (broadcast) query set, keeps a per-batch top-k partial, and
  a tiny ``groupby(query_id).map_groups`` reduce merges partials.  Scales to
  arbitrary point counts (nothing materializes beyond Q×k rows per batch).
- :func:`knn_cell_ring` — sharded stateful index: the point set is split
  across ``num_shards`` grid-index actors (``@ray.remote``; the Dataset API
  cannot express a reusable point index, SURVEY.md §2.4 J6).  Each shard
  answers queries by expanding Chebyshev cell rings r=0,1,2,… until the kth
  distance is ≤ r·cell (so no unvisited cell can contain a closer point);
  shard partials are merged on the driver.  At cluster scale the shards hold
  disjoint spatial partitions (partition key: coarse cell id) so each query
  touches only nearby shards.

Distance = Euclidean in the point plane, computed as
``sqrt(dx*dx + dy*dy)`` (same expression shape as the SQL oracle).
Ties break deterministically by (dist, id).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray


def _topk_partial(qx, qy, x, y, ids, k):
    """Per-batch top-k rows for each query; returns (query_id, id, dist).

    Each partial is itself the deterministic (dist, id) top-k (boundary ties
    resolved by id via :func:`det_topk_indices`), so the downstream per-query
    merge composes deterministically."""
    from ..util import det_topk_indices

    out_q, out_i, out_d = [], [], []
    for qi in range(len(qx)):
        dx = x - qx[qi]
        dy = y - qy[qi]
        d = np.sqrt(dx * dx + dy * dy)
        idx = det_topk_indices(d, ids, k)
        out_q.append(np.full(len(idx), qi, dtype=np.int32))
        out_i.append(ids[idx])
        out_d.append(d[idx])
    return (
        np.concatenate(out_q) if out_q else np.empty(0, np.int32),
        np.concatenate(out_i) if out_i else np.empty(0, np.int64),
        np.concatenate(out_d) if out_d else np.empty(0, np.float64),
    )


def knn_brute(points_ds, queries_xy: np.ndarray, k: int, id_col: str = "doc_id"):
    """Streaming exact kNN: per-batch partial top-k + per-query merge.

    ``queries_xy``: (Q, 2) array.  Output: ``(query_id, {id_col}, dist)``,
    k rows per query, sorted by (query_id, dist, id).
    """
    q = np.ascontiguousarray(np.asarray(queries_xy, dtype=np.float64))

    def partial(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        qi, ii, dd = _topk_partial(q[:, 0], q[:, 1], x, y, ids, k)
        return pa.table({"query_id": qi, id_col: ii, "dist": dd})

    from ..util import coalesce_small

    partials = coalesce_small(points_ds.map_batches(partial, batch_format="pyarrow"))

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["dist", id_col]).head(k)
        return g

    out = partials.groupby("query_id").map_groups(merge, batch_format="pandas")
    return out.sort(["query_id", "dist", id_col])


@ray.remote
class KnnShardActor:
    """One spatial shard: a grid index over its points + ring-expansion kNN."""

    def __init__(self, blocks: list, id_col: str, cell: float):
        if blocks and isinstance(blocks[0], ray.ObjectRef):
            blocks = ray.get(list(blocks))
        tables = [b if isinstance(b, pa.Table) else pa.Table.from_batches([b]) for b in blocks]
        t = pa.concat_tables(tables) if tables else None
        if t is None or len(t) == 0:
            self.n = 0
            return
        self.x = t.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        self.y = t.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
        self.ids = t.column(id_col).to_numpy(zero_copy_only=False)
        self.n = len(self.x)
        self.cell = float(cell)
        ix = np.floor(self.x / self.cell).astype(np.int64)
        iy = np.floor(self.y / self.cell).astype(np.int64)
        # normalize to a compact local grid
        self.ix0 = int(ix.min())
        self.iy0 = int(iy.min())
        ix -= self.ix0
        iy -= self.iy0
        self.nx = int(ix.max()) + 1
        self.ny = int(iy.max()) + 1
        lin = iy * self.nx + ix
        order = np.argsort(lin, kind="stable")
        self.order = order
        slin = lin[order]
        self.cells, starts = np.unique(slin, return_index=True)
        self.starts = starts
        self.ends = np.concatenate((starts[1:], [self.n]))

    def ready(self) -> int:
        """Construction barrier (the index build awaits this)."""
        return self.n

    def _cell_points(self, cix: np.ndarray, ciy: np.ndarray) -> np.ndarray:
        ok = (cix >= 0) & (cix < self.nx) & (ciy >= 0) & (ciy < self.ny)
        lin = ciy[ok] * self.nx + cix[ok]
        pos = np.searchsorted(self.cells, lin)
        pos = np.clip(pos, 0, len(self.cells) - 1)
        hit = self.cells[pos] == lin
        segs = [
            self.order[self.starts[p] : self.ends[p]] for p in pos[hit]
        ]
        return np.concatenate(segs) if segs else np.empty(0, dtype=np.int64)

    def query(self, qxy: np.ndarray, k: int):
        """Ring-expansion kNN within this shard; returns per-query
        (ids, dists) arrays of ≤k candidates.

        Bulk-vectorized (round 4): queries are grouped into COHORTS by their
        grid cell — a cohort shares every ring's cell gather (the Python-
        and-searchsorted-heavy part), candidate distances are one (cohort ×
        ring) matrix op, and the running per-query top-k is maintained with
        a single flattened (row, dist, id) lexsort per ring.  A 1000-query
        batch costs ~#distinct-cells cohort loops instead of 1000 scalar
        ring expansions."""
        qxy = np.ascontiguousarray(np.asarray(qxy, dtype=np.float64))
        nq = len(qxy)
        res_ids: list = [None] * nq
        res_d: list = [None] * nq
        if self.n == 0 or nq == 0:
            return (
                [np.empty(0, dtype=np.int64) for _ in range(nq)],
                [np.empty(0, dtype=np.float64) for _ in range(nq)],
            )
        cqx = np.floor(qxy[:, 0] / self.cell).astype(np.int64) - self.ix0
        cqy = np.floor(qxy[:, 1] / self.cell).astype(np.int64) - self.iy0
        packed = cqx * np.int64(1 << 32) + cqy
        order = np.argsort(packed, kind="stable")
        bounds = np.flatnonzero(
            np.concatenate(([True], packed[order][1:] != packed[order][:-1]))
        )
        ends = np.append(bounds[1:], nq)
        singles = []
        for s, e in zip(bounds, ends):
            qidx = order[s:e]
            if len(qidx) < 4:
                # cohort machinery only pays for itself once the shared ring
                # gathers amortize over ≥4 queries (measured crossover)
                singles.extend(qidx)
                continue
            ids_c, d_c = self._query_cohort(
                qxy[qidx], int(cqx[qidx[0]]), int(cqy[qidx[0]]), k
            )
            for j, qi in enumerate(qidx):
                res_ids[qi] = ids_c[j]
                res_d[qi] = d_c[j]
        if singles:
            ids_s, d_s = self.query_scalar(qxy[singles], k)
            for j, qi in enumerate(singles):
                res_ids[qi] = ids_s[j]
                res_d[qi] = d_s[j]
        return res_ids, res_d

    def _query_cohort(self, qxy: np.ndarray, cqx: int, cqy: int, k: int):
        """All queries sharing grid cell (cqx, cqy): one ring expansion."""
        C = len(qxy)
        qx = qxy[:, 0][:, None]
        qy = qxy[:, 1][:, None]
        dx_lo = max(0 - cqx, cqx - (self.nx - 1), 0)
        dy_lo = max(0 - cqy, cqy - (self.ny - 1), 0)
        first_ring = max(dx_lo, dy_lo)
        max_ring = max(abs(cqx), abs(cqx - (self.nx - 1))) + max(
            abs(cqy), abs(cqy - (self.ny - 1))
        )
        best_d = np.empty((C, 0), dtype=np.float64)
        best_i = np.empty((C, 0), dtype=np.int64)
        seen = 0
        r = first_ring
        kcap = min(k, self.n)
        while r <= max_ring + 1:
            if r == 0:
                cix = np.array([cqx])
                ciy = np.array([cqy])
            else:
                side = np.arange(-r, r + 1)
                top = np.stack([side, np.full_like(side, r)], axis=1)
                bot = np.stack([side, np.full_like(side, -r)], axis=1)
                mid = np.arange(-r + 1, r)
                left = np.stack([np.full_like(mid, -r), mid], axis=1)
                right = np.stack([np.full_like(mid, r), mid], axis=1)
                ring = np.concatenate([top, bot, left, right])
                cix = cqx + ring[:, 0]
                ciy = cqy + ring[:, 1]
            idx = self._cell_points(cix, ciy)
            if len(idx):
                seen += len(idx)
                # chunk wide rings so the (C × m) distance matrix is bounded
                chunk = max(1, (1 << 22) // max(C, 1))
                for c0 in range(0, len(idx), chunk):
                    sub = idx[c0 : c0 + chunk]
                    ddx = self.x[sub][None, :] - qx
                    ddy = self.y[sub][None, :] - qy
                    dnew = np.sqrt(ddx * ddx + ddy * ddy)
                    inew = np.broadcast_to(self.ids[sub][None, :], dnew.shape)
                    comb_d = np.concatenate([best_d, dnew], axis=1)
                    comb_i = np.ascontiguousarray(
                        np.concatenate([best_i, inew], axis=1)
                    )
                    W = comb_d.shape[1]
                    keep = min(kcap, W)
                    if keep == W:
                        best_d, best_i = comb_d, comb_i
                        continue
                    # O(C·W) per-row top-keep selection; the SET kept is
                    # exact by distance, and rows whose k-boundary has
                    # distance TIES get the id tie-break repaired exactly
                    # (running best is a set — order restored at return)
                    sel = np.argpartition(comb_d, keep - 1, axis=1)[:, :keep]
                    sd = np.take_along_axis(comb_d, sel, axis=1)
                    si = np.take_along_axis(comb_i, sel, axis=1)
                    vstar = sd.max(axis=1)
                    n_eq_all = (comb_d == vstar[:, None]).sum(axis=1)
                    n_eq_sel = (sd == vstar[:, None]).sum(axis=1)
                    for rr in np.flatnonzero(n_eq_all > n_eq_sel):
                        o = np.lexsort((comb_i[rr], comb_d[rr]))[:keep]
                        sd[rr] = comb_d[rr][o]
                        si[rr] = comb_i[rr][o]
                    best_d, best_i = sd, si
            found_all = seen >= self.n
            if best_d.shape[1] >= kcap and (
                found_all
                or (
                    best_d.shape[1] >= k
                    and bool((best_d.max(axis=1) < r * self.cell).all())
                )
            ):
                # stopping rule: any cell at ring r+1 is at distance ≥
                # r*cell; strict '<' because an unvisited boundary-distance
                # point could still win the (dist, id) tie-break
                break
            r += 1
        # restore per-row (dist, id) order — one small C×k flattened sort
        Wf = best_d.shape[1]
        if Wf:
            rows = np.repeat(np.arange(C, dtype=np.int64), Wf)
            perm = np.lexsort((best_i.ravel(), best_d.ravel(), rows)).reshape(C, Wf)
            cols = perm - (np.arange(C, dtype=np.int64) * Wf)[:, None]
            best_d = np.take_along_axis(best_d, cols, axis=1)
            best_i = np.take_along_axis(best_i, cols, axis=1)
        return [best_i[j] for j in range(C)], [best_d[j] for j in range(C)]

    def query_scalar(self, qxy: np.ndarray, k: int):
        """Reference per-query loop (pre-round-4); kept for equivalence
        tests and as the readable specification of the ring expansion."""
        res_ids, res_d = [], []
        if self.n == 0:
            for _ in range(len(qxy)):
                res_ids.append(np.empty(0, dtype=np.int64))
                res_d.append(np.empty(0, dtype=np.float64))
            return res_ids, res_d
        for qx, qy in qxy:
            cqx = int(np.floor(qx / self.cell)) - self.ix0
            cqy = int(np.floor(qy / self.cell)) - self.iy0
            # rings below the Chebyshev distance to the grid rect are empty;
            # rings beyond the far corner cover everything
            dx_lo = max(0 - cqx, cqx - (self.nx - 1), 0)
            dy_lo = max(0 - cqy, cqy - (self.ny - 1), 0)
            first_ring = max(dx_lo, dy_lo)
            max_ring = max(abs(cqx), abs(cqx - (self.nx - 1))) + max(
                abs(cqy), abs(cqy - (self.ny - 1))
            )
            got_idx: list[np.ndarray] = []
            best_d = np.empty(0, dtype=np.float64)
            best_i = np.empty(0, dtype=np.int64)
            found_all = False
            r = first_ring
            while r <= max_ring + 1 and not found_all:
                # cells at Chebyshev distance exactly r
                if r == 0:
                    cix = np.array([cqx])
                    ciy = np.array([cqy])
                else:
                    side = np.arange(-r, r + 1)
                    top = np.stack([side, np.full_like(side, r)], axis=1)
                    bot = np.stack([side, np.full_like(side, -r)], axis=1)
                    mid = np.arange(-r + 1, r)
                    left = np.stack([np.full_like(mid, -r), mid], axis=1)
                    right = np.stack([np.full_like(mid, r), mid], axis=1)
                    ring = np.concatenate([top, bot, left, right])
                    cix = cqx + ring[:, 0]
                    ciy = cqy + ring[:, 1]
                idx = self._cell_points(cix, ciy)
                if len(idx):
                    got_idx.append(idx)
                    allidx = np.concatenate(got_idx)
                    dx = self.x[allidx] - qx
                    dy = self.y[allidx] - qy
                    d = np.sqrt(dx * dx + dy * dy)
                    order = np.lexsort((self.ids[allidx], d))[:k]
                    best_d = d[order]
                    best_i = self.ids[allidx][order]
                    found_all = len(allidx) >= self.n
                # stopping rule: any cell at ring r+1 is at distance ≥ r*cell.
                # Strict '<': at equality an unvisited point at exactly the
                # boundary distance could still win the (dist, id) tie-break.
                if len(best_d) >= min(k, self.n) and (
                    len(best_d) >= k and best_d[k - 1] < r * self.cell or found_all
                ):
                    break
                r += 1
            res_ids.append(best_i)
            res_d.append(best_d)
        return res_ids, res_d


_CKEY_OFF = np.int64(1) << np.int64(20)
_CKEY_MUL = np.int64(1) << np.int64(21)


def _coarse_keys(x: np.ndarray, y: np.ndarray, route_cell: float) -> np.ndarray:
    """Pack the (ix, iy) coarse routing cell of each point into one int64.

    Guarded against silent key collisions: indices must fit ±2^20 (pick a
    larger ``route_cell`` for wider extents)."""
    ix = np.floor(x / route_cell).astype(np.int64)
    iy = np.floor(y / route_cell).astype(np.int64)
    if len(ix) and (np.abs(ix).max() >= _CKEY_OFF or np.abs(iy).max() >= _CKEY_OFF):
        raise ValueError("route_cell too small for the coordinate extent (coarse index overflow)")
    return (ix + _CKEY_OFF) * _CKEY_MUL + (iy + _CKEY_OFF)


def _morton(ix: np.ndarray, iy: np.ndarray, bits: int = 21) -> np.ndarray:
    """Interleave the low ``bits`` of ix/iy (non-negative) — Z-order key so
    contiguous key ranges are spatially compact shard regions."""
    out = np.zeros(len(ix), dtype=np.int64)
    for b in range(bits):
        out |= ((ix >> b) & 1) << (2 * b)
        out |= ((iy >> b) & 1) << (2 * b + 1)
    return out


def _dmin_to_cells(qx: float, qy: float, ix: np.ndarray, iy: np.ndarray, cs: float) -> float:
    """Min Euclidean distance from a query point to any of the cell rects."""
    if len(ix) == 0:
        return np.inf
    x0 = ix * cs
    y0 = iy * cs
    dx = np.maximum(np.maximum(x0 - qx, qx - (x0 + cs)), 0.0)
    dy = np.maximum(np.maximum(y0 - qy, qy - (y0 + cs)), 0.0)
    return float(np.sqrt(dx * dx + dy * dy).min())


@ray.remote(num_returns=2)
def _block_cell_hist(block, route_cell: float):
    """Per-block coarse histogram + the per-row key array.

    The key array is returned as a SECOND object-store ref consumed only by
    the split task — it never lands on the driver, and the split pass reuses
    it instead of recomputing the keys (the round-3 single-pass fold)."""
    t = block if isinstance(block, pa.Table) else pa.Table.from_batches([block])
    x = t.column("x").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    y = t.column("y").to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    key = _coarse_keys(x, y, route_cell)
    u, c = np.unique(key, return_counts=True)
    return (u, c), key


@ray.remote
def _split_block(block, key: np.ndarray, cells_sorted: np.ndarray, shard_of: np.ndarray, num_shards: int):
    """Route each row of a block to its spatial shard; returns one sub-table
    per shard (the index-build exchange — a one-time partition shuffle)."""
    t = block if isinstance(block, pa.Table) else pa.Table.from_batches([block])
    pos = np.searchsorted(cells_sorted, key)
    shard = shard_of[pos]
    return [t.filter(pa.array(shard == s)) for s in range(num_shards)]


class KnnCellRingIndex:
    """Persistent spatially-partitioned kNN index — the analogue of the
    reference's persisted CPU grid index (``GridIndexF.cpp:200-275``): build
    once per (dataset, cell), answer many query batches.

    Build: one pass over the blocks computes per-block coarse-cell histograms
    (tiny partials — the per-row key arrays stay in the object store for the
    split pass) which are merged VECTORIZED on the driver; coarse cells are
    Z-ordered and split into ``num_shards`` contiguous (spatially compact)
    ranges balanced by point count; blocks are scattered to shard actors by
    cell ownership, reusing the precomputed keys.

    The shard actors stay alive as long as the index object does, so repeated
    queries pay only routing + per-shard ring expansion."""

    def __init__(
        self,
        points_ds,
        cell: float,
        id_col: str = "doc_id",
        num_shards: int = 4,
        route_cell: float | None = None,
    ):
        self.id_col = id_col
        self.cell = float(cell)
        self.num_shards = num_shards
        self.route_cell = float(route_cell if route_cell is not None else cell * 8.0)
        # materialized: to_arrow_refs on a lazy plan runs it again for the schema
        refs = points_ds.select_columns([id_col, "x", "y"]).materialize().to_arrow_refs()

        # pass 1: histograms to the driver; per-row keys stay remote
        hist_refs, key_refs = [], []
        for r in refs:
            h, kk = _block_cell_hist.remote(r, self.route_cell)
            hist_refs.append(h)
            key_refs.append(kk)
        hists = ray.get(hist_refs)
        us = [u for u, _ in hists if len(u)]
        if not us:
            self.actors = []
            self.shard_cells = []
            return
        allu = np.concatenate(us)
        allc = np.concatenate([c for _, c in hists if len(c)])
        keys, inv = np.unique(allu, return_inverse=True)
        cnt = np.bincount(inv, weights=allc).astype(np.int64)
        ix = keys // _CKEY_MUL - _CKEY_OFF
        iy = keys % _CKEY_MUL - _CKEY_OFF
        # Z-order the cells, greedy contiguous split balanced by point count
        morder = np.argsort(_morton(ix - ix.min(), iy - iy.min()), kind="stable")
        target = cnt.sum() / num_shards
        shard_of_sorted = np.zeros(len(keys), dtype=np.int64)
        acc, s = 0, 0
        for ci in morder:
            shard_of_sorted[ci] = s
            acc += cnt[ci]
            if acc >= target * (s + 1) and s < num_shards - 1:
                s += 1
        self.shard_cells = [
            (ix[shard_of_sorted == si], iy[shard_of_sorted == si]) for si in range(num_shards)
        ]

        # pass 2: scatter blocks to shard actors, reusing the key arrays
        splits = ray.get(
            [
                _split_block.remote(r, kk, keys, shard_of_sorted, num_shards)
                for r, kk in zip(refs, key_refs)
            ]
        )
        self.actors = []
        for si in range(num_shards):
            parts = [sp[si] for sp in splits if len(sp[si])]
            self.actors.append(KnnShardActor.remote(parts, id_col, cell) if parts else None)
        # force the (parallel) shard constructions NOW: index build cost
        # belongs to the build, not silently to the first query
        ray.get([a.ready.remote() for a in self.actors if a is not None])

    def query(self, queries_xy: np.ndarray, k: int, return_routing: bool = False):
        """Distance-pruned kNN: nearest shard first, further shards only
        while their region's min distance ≤ the current k-th best (inclusive
        — a region at exactly the k-th distance could hold an id tie-winner).
        Results match :func:`knn_brute` exactly."""
        q = np.ascontiguousarray(np.asarray(queries_xy, dtype=np.float64))
        nq = len(q)
        id_col = self.id_col
        if not self.actors:
            empty = pa.table(
                {"query_id": pa.array([], type=pa.int32()), id_col: pa.array([], type=pa.int64()),
                 "dist": pa.array([], type=pa.float64())}
            )
            return (empty, [[] for _ in range(nq)]) if return_routing else empty
        num_shards = self.num_shards
        dmin = np.array(
            [
                [
                    _dmin_to_cells(q[qi, 0], q[qi, 1], *self.shard_cells[si], self.route_cell)
                    for si in range(num_shards)
                ]
                for qi in range(nq)
            ]
        )
        best_i: list[np.ndarray] = [np.empty(0, dtype=np.int64) for _ in range(nq)]
        best_d: list[np.ndarray] = [np.empty(0, dtype=np.float64) for _ in range(nq)]
        visited: list[set[int]] = [set() for _ in range(nq)]
        first_round = True
        while True:
            need: dict[int, list[int]] = {}
            for qi in range(nq):
                kth = best_d[qi][k - 1] if len(best_d[qi]) >= k else np.inf
                open_shards = [
                    si
                    for si in range(num_shards)
                    if si not in visited[qi] and self.actors[si] is not None and dmin[qi, si] <= kth
                ]
                if not open_shards:
                    continue
                if first_round:
                    open_shards = [min(open_shards, key=lambda si: dmin[qi, si])]
                for si in open_shards:
                    need.setdefault(si, []).append(qi)
            if not need:
                break
            first_round = False
            futures = {si: self.actors[si].query.remote(q[idxs], k) for si, idxs in need.items()}
            for si, idxs in need.items():
                ids_l, d_l = ray.get(futures[si])
                for j, qi in enumerate(idxs):
                    visited[qi].add(si)
                    all_i = np.concatenate([best_i[qi], ids_l[j]])
                    all_d = np.concatenate([best_d[qi], d_l[j]])
                    order = np.lexsort((all_i, all_d))[:k]
                    best_i[qi], best_d[qi] = all_i[order], all_d[order]

        rows_q = [np.full(len(best_i[qi]), qi, dtype=np.int32) for qi in range(nq)]
        out = pa.table(
            {
                "query_id": np.concatenate(rows_q) if rows_q else np.empty(0, np.int32),
                id_col: np.concatenate(best_i),
                "dist": np.concatenate(best_d),
            }
        )
        if return_routing:
            return out, [sorted(v) for v in visited]
        return out


def knn_cell_ring(
    points_ds,
    queries_xy: np.ndarray,
    k: int,
    cell: float,
    id_col: str = "doc_id",
    num_shards: int = 4,
    route_cell: float | None = None,
    return_routing: bool = False,
    index: KnnCellRingIndex | None = None,
):
    """Exact kNN via spatially partitioned grid-index shard actors with
    cell-ring expansion inside each shard and distance-pruned shard routing.

    One-shot convenience over :class:`KnnCellRingIndex` — pass ``index`` (or
    hold the class directly) to amortize the build across query batches, the
    way the reference persists its grid index."""
    if index is None:
        index = KnnCellRingIndex(
            points_ds, cell, id_col=id_col, num_shards=num_shards, route_cell=route_cell
        )
    return index.query(queries_xy, k, return_routing=return_routing)
