"""The benchmark's four workloads.

Each workload makes its inputs from the run seed, prepares exact answers
without Ray before the clock starts, runs one op through the public entry
points, checks that op's output, and, for the traced run, replays each layer
of the op without Ray on the same inputs.

Only stable entry points are called: ``aggregate_by_polygon``,
``spatial_join``, ``extract_text``, ``PreparePoints``, ``build_bundle``,
``SpatialJoinAgg``/``SpatialJoinRows``, ``pip_pairs``, ``Grid``,
``PolygonBundle``, ``queries()``, ``oracle_sql()``, the seeded fixture
generators and Ray's own API.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

import __ray_entry__
from rasterflow.geom.pip import pip_pairs
from rasterflow.geom.projection import project_points
from rasterflow.pipelines.joins import SpatialJoinAgg, SpatialJoinRows, aggregate_by_polygon, spatial_join
from rasterflow.sources.fixtures import geo_from_id, neigh_like_layer, pages_batch
from rasterflow.stages.extract import extract_text
from rasterflow.stages.geocode import PreparePoints
from rasterflow.state.bundle import build_bundle

import querytables
from scripts.check_oracle import normalize, to_pandas
from spans import Tracer

#: Ray CPUs for the parent commit and every later one alike; one is what
#: ``nproc`` reports on the box the benchmark was tuned on.
RAY_CPUS = 1
OBJECT_STORE_BYTES = 512 * 2**20
#: batch size of ``aggregate_by_polygon`` and ``spatial_join`` by default
JOIN_BATCH = 65536
N_POLYS = 260


def init_ray(root: Path) -> None:
    """Start Ray with the fixed CPU budget.  Workers start in their own
    directory, so the repo root (and this directory, for the traced run's
    join stage) reaches them through ``PYTHONPATH``."""
    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        runtime_env={"env_vars": {"PYTHONPATH": os.pathsep.join([str(root), str(root / "perfbench")])}},
    )
    ray.data.DataContext.get_current().enable_progress_bars = False


def ray_stats(ds) -> dict[str, float]:
    """Tasks, blocks and UDF seconds of an executed Dataset and its parents."""
    out = {"tasks": 0, "blocks": 0, "udf_s": 0.0}
    todo = [ds._get_stats_summary()]
    while todo:
        s = todo.pop()
        m = s.extra_metrics or {}
        out["tasks"] += int(m.get("num_tasks_finished", 0))
        out["blocks"] += int(m.get("num_task_outputs_generated", 0))
        for op in s.operators_stats:
            out["udf_s"] += float((op.udf_time or {}).get("sum", 0.0))
        todo.extend(s.parents)
    return out


def pair_digest(ids: np.ndarray, polys: np.ndarray) -> str:
    """Order-free checksum of join rows ``(id, poly_id)``."""
    key = (np.asarray(ids, dtype=np.int64) << 20) | np.asarray(polys, dtype=np.int64)
    return hashlib.sha256(np.sort(key).tobytes()).hexdigest()


_JOIN_STAGES: dict[str, SpatialJoinAgg] = {}


def join_partials(batch: pa.Table, bundle_ref) -> pa.Table:
    """The hybrid ``SpatialJoinAgg`` over one batch, in a Ray task of the
    traced run; the stage is built once per worker."""
    key = bundle_ref.hex()
    if key not in _JOIN_STAGES:
        _JOIN_STAGES.clear()
        _JOIN_STAGES[key] = SpatialJoinAgg(ray.get(bundle_ref), how="hybrid")
    return _JOIN_STAGES[key](batch)


def counts_of(poly_id, count) -> dict[int, int]:
    return {int(p): int(c) for p, c in zip(poly_id, count) if c}


def read_parts(files, columns) -> pa.Table:
    return pa.concat_tables([pq.read_table(f, columns=columns) for f in files])


def write_parts(table: pa.Table, data_dir: Path, n_files: int) -> list[Path]:
    data_dir.mkdir(parents=True, exist_ok=True)
    per = -(-table.num_rows // n_files)
    files = []
    for k in range(n_files):
        f = data_dir / f"part-{k}.parquet"
        pq.write_table(table.slice(k * per, per), f)
        files.append(f)
    return files


class Workload:
    """One closed-loop workload.  ``prepare`` makes the inputs before the
    set-up and ``exact`` the exact answers after it, both outside the clock."""

    name = ""

    def passes(self, rng: np.random.Generator):
        """Endless passes of op items; a measured window runs whole passes."""
        while True:
            yield [None]

    def input_rows(self, item) -> int:
        raise NotImplementedError

    def prepare(self, data_dir: Path, seed: int) -> None:
        raise NotImplementedError

    def build(self):
        raise NotImplementedError

    def exact(self, state) -> None:
        """Prepare exact answers after the set-up, without Ray."""

    def op(self, state, item, out_dir: Path):
        raise NotImplementedError

    def check(self, item, out) -> str | None:
        raise NotImplementedError

    def traced_op(self, state, item, out_dir: Path) -> tuple[object, dict]:
        raise NotImplementedError

    def replay(self, state, item, tracer: Tracer, op_id: int, counts: dict, out_dir: Path) -> None:
        raise NotImplementedError


class _JoinFamily(Workload):
    """Shared by ingest, join_agg and join_rows: a seeded polygon layer whose
    bundle is built at set-up, a points stage, and the hybrid join."""

    accuracy_m = 100.0
    agg = True
    bundle_ref = None

    def build(self):
        return build_bundle(self.layer, accuracy_m=self.accuracy_m)

    def _traced_agg(self, points_ds, bundle):
        """``aggregate_by_polygon``'s plan with its reduce done here: the
        join stage runs as a Ray Data map over the points, as in the op, and
        the runner holds that Dataset, so Ray's stats cover the join too.
        The partials are summed per polygon in the driver, as the op does."""
        if self.bundle_ref is None:
            self.bundle_ref = ray.put(bundle)
        partials = points_ds.map_batches(
            join_partials, fn_kwargs={"bundle_ref": self.bundle_ref}, batch_format="pyarrow", batch_size=JOIN_BATCH
        ).materialize()
        out = partials.to_pandas().groupby("poly_id", as_index=False)["count"].sum()
        return out, ray_stats(partials)

    def exact(self, bundle) -> None:
        """Per-polygon counts from the index join, which runs the
        point-in-polygon test on every candidate pair, while the op runs
        the hybrid join's cover fast path."""
        exact = SpatialJoinAgg(bundle, how="index")(self._exact_points())
        self.exact_answer = counts_of(exact.column("poly_id").to_numpy(), exact.column("count").to_numpy())

    def check(self, item, out) -> str | None:
        got = counts_of(out["poly_id"], out["count"])
        exact = self.exact_answer
        if got != exact:
            bad = sum(got.get(p) != c for p, c in exact.items()) + len(set(got) - set(exact))
            return f"per-polygon counts differ on {bad} polygons"
        return None

    def _replay_join(self, bundle, tables_in, tracer, op_id, counts, out_dir, id_col="id") -> None:
        stage = (
            SpatialJoinAgg(bundle, how="hybrid")
            if self.agg
            else SpatialJoinRows(bundle, how="hybrid", id_col=id_col)
        )
        stage_span = "pipelines.joins.agg" if self.agg else "pipelines.joins.rows"
        rows_out = []
        for t in tables_in:
            for start in range(0, t.num_rows, JOIN_BATCH):
                batch = t.slice(start, JOIN_BATCH)
                counts["batches"] += 1
                x = batch.column("x").to_numpy(zero_copy_only=False).astype(np.float64)
                y = batch.column("y").to_numpy(zero_copy_only=False).astype(np.float64)
                with tracer.span("geom.cells.locate", op_id):
                    lin, valid = bundle.grid.locate_linear(x, y)
                x, y, lin = x[valid], y[valid], lin[valid]
                counts["points_in_grid"] += len(lin)
                with tracer.span("state.bundle.locate", op_id):
                    _, hit = bundle.locate_ucells(lin)
                border = bundle.is_border(lin)
                counts["interior_points"] += int((hit & ~border).sum())
                counts["border_points"] += int(border.sum())
                pts, pl = bundle.expand(lin[border], "cand")
                with tracer.span("geom.pip", op_id):
                    m = pip_pairs(
                        x[border], y[border], pts, pl, bundle.verts, bundle.ring_offsets, bundle.poly_ring_offsets
                    )
                counts["pairs_tested"] += len(pts)
                counts["pairs_matched"] += int(m.sum())
                with tracer.span(stage_span, op_id):
                    part = stage(batch)
                if self.agg:
                    counts["partial_rows"] += part.num_rows
                else:
                    rows_out.append(part)
            if self.agg:
                with tracer.span("pipelines.joins.agg_whole", op_id):
                    stage(t)
        if not self.agg:
            table = pa.concat_tables(rows_out)
            counts["rows_out"] = table.num_rows
            with tracer.span("ray_data.write", op_id):
                pq.write_table(table, out_dir / "replay-rows.parquet")
            (out_dir / "replay-rows.parquet").unlink()


class Ingest(_JoinFamily):
    """Headline path: pages → extract_text → PreparePoints → hybrid join."""

    name = "ingest"
    n_pages = 80_000
    n_files = 4
    accuracy_m = 100.0
    page_cols = ["url", "warc_ts", "html", "lang"]

    def input_rows(self, item) -> int:
        return self.n_pages

    def prepare(self, data_dir: Path, seed: int) -> None:
        # row ids stay below 2**31, the fixture hash's exact range
        ids = (seed % 1000) * 1_000_000 + np.arange(self.n_pages, dtype=np.int64)
        pages = pages_batch(ids)
        self.problems = []
        if not extract_text(pages).column("text2").equals(pages.column("text")):
            self.problems.append("extract_text is not byte-identical to the fixture text")
        self.files = write_parts(pages.select(self.page_cols + ["text"]), data_dir, self.n_files)
        self.layer = neigh_like_layer(N_POLYS, seed)

    def _exact_points(self) -> pa.Table:
        # geocoded from the fixture's own text, which extract_text reproduces
        pages = read_parts(self.files, ["url", "warc_ts", "text", "lang"])
        return PreparePoints(geocoder="text", text_col="text")(pages)

    def _points(self):
        return (
            ray.data.read_parquet([str(f) for f in self.files], columns=self.page_cols)
            .map_batches(extract_text, batch_format="pyarrow")
            .map_batches(PreparePoints(geocoder="text", text_col="text2"), batch_format="pyarrow")
        )

    def op(self, bundle, item, out_dir):
        return aggregate_by_polygon(self._points(), bundle, how="hybrid").to_pandas()

    def traced_op(self, bundle, item, out_dir):
        return self._traced_agg(self._points(), bundle)

    def replay(self, bundle, item, tracer, op_id, counts, out_dir) -> None:
        prepare = PreparePoints(geocoder="text", text_col="text2")
        points = []
        for f in self.files:
            with tracer.span("ray_data.read", op_id):
                t = pq.read_table(f, columns=self.page_cols)
            counts["html_bytes"] += pc.sum(pc.binary_length(t.column("html"))).as_py()
            with tracer.span("stages.extract", op_id):
                t = extract_text(t)
            with tracer.span("stages.geocode", op_id):
                points.append(prepare(t))
        self._replay_join(bundle, points, tracer, op_id, counts, out_dir)


class JoinAgg(_JoinFamily):
    """Pre-ingested points folded per polygon: the join kernel alone."""

    name = "join_agg"
    n_points = 2_000_000
    accuracy_m = 200.0
    n_files = 4
    cols = ["x", "y"]

    def input_rows(self, item) -> int:
        return self.n_points

    def prepare(self, data_dir: Path, seed: int) -> None:
        ids = (seed % 1000) * self.n_points + np.arange(self.n_points, dtype=np.int64)
        lat, lon = geo_from_id(ids)
        x, y, _ = project_points(lat, lon, dtype=np.float32)
        table = pa.table({"id": ids, "x": x, "y": y})
        self.problems = []
        self.files = write_parts(table, data_dir, self.n_files)
        self.layer = neigh_like_layer(N_POLYS, seed, nv_range=(60, 151))

    def _exact_points(self) -> pa.Table:
        return read_parts(self.files, ["id", "x", "y"])

    def _read(self):
        return ray.data.read_parquet([str(f) for f in self.files], columns=self.cols)

    def op(self, bundle, item, out_dir):
        return aggregate_by_polygon(self._read(), bundle, how="hybrid").to_pandas()

    def traced_op(self, bundle, item, out_dir):
        return self._traced_agg(self._read(), bundle)

    def replay(self, bundle, item, tracer, op_id, counts, out_dir) -> None:
        read = []
        for f in self.files:
            with tracer.span("ray_data.read", op_id):
                read.append(pq.read_table(f, columns=self.cols))
        self._replay_join(bundle, read, tracer, op_id, counts, out_dir)


class JoinRows(JoinAgg):
    """The same points and layer, with the join rows written out."""

    name = "join_rows"
    cols = ["id", "x", "y"]
    agg = False

    def exact(self, bundle) -> None:
        """Row count and checksum of the index join's rows."""
        rows = SpatialJoinRows(bundle, how="index", id_col="id")(self._exact_points())
        self.exact_answer = (rows.num_rows, pair_digest(rows.column("id").to_numpy(), rows.column("poly_id").to_numpy()))

    def _write(self, ds, out_dir: Path) -> Path:
        out = out_dir / f"rows-{time.perf_counter_ns()}"
        ds.write_parquet(str(out))
        return out

    def op(self, bundle, item, out_dir):
        return self._write(spatial_join(self._read(), bundle, how="hybrid", id_col="id"), out_dir)

    def traced_op(self, bundle, item, out_dir):
        joined = spatial_join(self._read(), bundle, how="hybrid", id_col="id").materialize()
        return self._write(joined, out_dir), ray_stats(joined)

    def check(self, item, out: Path) -> str | None:
        t = pq.read_table(out, columns=["id", "poly_id"])
        shutil.rmtree(out)
        got = (t.num_rows, pair_digest(t.column("id").to_numpy(), t.column("poly_id").to_numpy()))
        if got != self.exact_answer:
            return f"join rows differ: {got[0]} rows against {self.exact_answer[0]}"
        return None


#: The registry queries of the ``queries`` workload and the tables each reads.
QUERY_TABLES = {
    "agg_poly_hybrid_avg": ("documents",),
    "agg_rect_raster": ("documents",),
    "join_rows_poly": ("documents",),
    "agg_poly_sharded": ("documents",),
    "focal_smooth": ("documents",),
    "od_matrix": ("events",),
    "home_cells": ("events",),
    "join_part_agg": ("lineitem", "part"),
    "rolling_time_sum": ("events",),
    "sessionize": ("events",),
    "dedup_exact_text": ("documents",),
    "incremental_dedup": ("documents",),
}


class Queries(Workload):
    """One analyst's registry queries over small seeded tables: planning,
    scheduling and exchange cost, with almost no kernel work."""

    name = "queries"

    def passes(self, rng):
        names = list(QUERY_TABLES)
        while True:
            yield [names[i] for i in rng.permutation(len(names))]

    def input_rows(self, item) -> int:
        return sum(self.rows[t] for t in QUERY_TABLES[item])

    def prepare(self, data_dir: Path, seed: int) -> None:
        import duckdb

        self.problems = []
        self.data = data_dir
        self.rows = querytables.write_query_tables(data_dir, seed)
        sql = __ray_entry__.oracle_sql()
        con = duckdb.connect()
        try:
            con.sql("SET threads = 1")
            for t in self.rows:
                con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{data_dir / t}.parquet'")
            self.expected = {q: normalize(con.sql(sql[q]).df()) for q in QUERY_TABLES}
        finally:
            con.close()

    def build(self):
        return __ray_entry__.queries()

    def op(self, registry, item, out_dir):
        return to_pandas(registry[item](str(self.data)))

    def traced_op(self, registry, item, out_dir):
        res = registry[item](str(self.data))
        df = to_pandas(res)
        return df, (ray_stats(res) if isinstance(res, ray.data.Dataset) else {"tasks": 0, "blocks": 0, "udf_s": 0.0})

    def check(self, item, out) -> str | None:
        exp = self.expected[item]
        got = normalize(out)
        if list(got.columns) != list(exp.columns) or len(got) != len(exp):
            return f"{item}: {len(got)} rows {list(got.columns)} against {len(exp)} rows {list(exp.columns)}"
        try:
            pd.testing.assert_frame_equal(got, exp, check_dtype=False, check_exact=True)
        except AssertionError as exc:
            return f"{item}: values differ: {str(exc)[:200]}"
        return None

    def replay(self, registry, item, tracer, op_id, counts, out_dir) -> None:
        for t in QUERY_TABLES[item]:
            with tracer.span("ray_data.read", op_id):
                pq.read_table(self.data / f"{t}.parquet")


WORKLOADS = {w.name: w for w in (Ingest, JoinAgg, JoinRows, Queries)}
