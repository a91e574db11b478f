"""Cluster job entry point — submit with ``ray job submit``:

    ray job submit --working-dir . -- python scripts/run_job.py \
        --pipeline hybrid --input /data/pages --layer layers/neigh.txt \
        --out /data/out/run1 --accuracy-m 50 --partition-size 64

Runs the flagship pipeline (pages parquet -> extract -> geocode -> spatial
aggregate) **resumably**: the input file list is split into deterministic
partitions, each written as ``out/part-<id>/`` with a per-partition lineage
manifest (see ``rasterflow/state/lineage.py``); re-submitting the same job
skips finished partitions.  Per-polygon partials from all partitions are
combined by a final reduce over the partition outputs.

On a real multi-node cluster this script is identical — ``ray.init()``
connects to the running cluster instead of local mode (RAY_ADDRESS).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument(
        "--pipeline",
        choices=["raster", "index", "hybrid", "bounds", "zonal", "ingest", "stream-ingest", "rows", "dedup", "url-dedup", "compact", "export", "bm25-build", "dsir", "lm-filter", "semdedup"],
        default="hybrid",
    )
    ap.add_argument("--input", required=True, help="pages parquet file/dir (or glob)")
    ap.add_argument("--layer", help="polygon layer text file (reference format); default: neigh-like fixture")
    ap.add_argument("--layer-project", action="store_true", help="layer vertices are lat/lon; project to world coords")
    ap.add_argument("--out", required=True)
    ap.add_argument("--accuracy-m", type=float, default=100.0)
    ap.add_argument("--value-col", default=None)
    ap.add_argument("--agg", choices=["count", "avg"], default="count")
    ap.add_argument("--geocoder", choices=["text", "url"], default="text")
    ap.add_argument("--partition-size", type=int, default=64, help="input files per resumable partition")
    ap.add_argument("--target-val", default="en", help="dsir/lm-filter: target lang slice")
    ap.add_argument("--topk", type=int, default=1000, help="dsir/lm-filter: rows kept")
    ap.add_argument("--threshold", type=float, default=0.45, help="semdedup: cosine near-dup threshold")
    ap.add_argument("--clusters", type=int, default=8, help="semdedup: k-means cluster count")
    args = ap.parse_args()

    import ray

    owns_ray = not ray.is_initialized()
    if owns_ray:
        from rasterflow.util import quiet_data_logging_env

        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            include_dashboard=False,
            logging_level="ERROR",
            runtime_env=quiet_data_logging_env(),
        )
    import ray.data

    from rasterflow.geom.polyio import read_polygons_text
    from rasterflow.pipelines.ingest import ingest_points
    from rasterflow.pipelines.joins import aggregate_by_polygon, aggregate_with_bounds
    from rasterflow.sources.fixtures import neigh_like_layer
    from rasterflow.stages.extract import extract_text
    from rasterflow.stages.geocode import PreparePoints
    from rasterflow.state.lineage import partition_files, read_manifest, run_resumable

    paths = sorted(glob.glob(os.path.join(args.input, "*.parquet"))) or sorted(glob.glob(args.input))
    if not paths:
        print(f"no parquet inputs under {args.input}", file=sys.stderr)
        return 2

    if args.pipeline == "ingest":
        parts = partition_files(paths, args.partition_size)
        res = run_resumable(
            parts,
            lambda files: _points_ds(files, args, extract_text, PreparePoints),
            args.out,
        )
        print(json.dumps(res | {"manifest": str(os.path.join(args.out, "_manifest.jsonl"))}))
        return 0

    if args.pipeline == "stream-ingest":
        # micro-batch append: re-run with a grown input dir and only the NEW
        # files are built (content-addressed partitions — see state/streaming)
        from rasterflow.state.streaming import append_micro_batch

        res = append_micro_batch(
            args.out,
            paths,
            lambda files: _points_ds(files, args, extract_text, PreparePoints),
            group_size=args.partition_size,
        )
        print(json.dumps(res | {"manifest": str(os.path.join(args.out, "_manifest.jsonl"))}))
        if owns_ray:
            ray.shutdown()
        return 0

    if args.pipeline == "export":
        # hash-sharded training-data export of the pages table: balanced
        # shard=K dirs in deterministic (hash(url), url) order
        from rasterflow.pipelines.export import export_shards

        ds = ray.data.read_parquet(paths)
        export_shards(ds, args.out, num_shards=max(args.partition_size, 1), id_col="url")
        print(json.dumps({"out": args.out, "num_shards": max(args.partition_size, 1)}))
        if owns_ray:
            ray.shutdown()
        return 0

    if args.pipeline == "bm25-build":
        # persisted full-text index over the pages' extracted text
        from rasterflow.pipelines.search import build_inverted_index
        from rasterflow.stages.extract import extract_text

        ds = ray.data.read_parquet(paths, columns=["url", "html"]).map_batches(
            extract_text, batch_format="pyarrow"
        )
        build_inverted_index(ds, args.out, text_col="text2", id_col="url")
        print(json.dumps({"out": args.out}))
        if owns_ray:
            ray.shutdown()
        return 0

    if args.pipeline in ("dsir", "lm-filter"):
        # data-selection over the pages table: extract text, fit the hashed
        # distribution(s) on the --target-val lang slice, keep --topk rows
        from rasterflow.pipelines.selection import dsir_select, lm_nll_topk
        from rasterflow.stages.extract import extract_text

        ds = ray.data.read_parquet(paths, columns=["url", "html", "lang"]).map_batches(
            extract_text, batch_format="pyarrow"
        )
        kw = dict(
            text_col="text2", id_col="url",
            target_col="lang", target_val=args.target_val, k=args.topk,
        )
        out = dsir_select(ds, **kw) if args.pipeline == "dsir" else lm_nll_topk(ds, **kw)
        out.write_parquet(args.out)
        print(json.dumps({"out": args.out, "k": args.topk, "target": args.target_val}))
        if owns_ray:
            ray.shutdown()
        return 0

    if args.pipeline == "semdedup":
        # semantic near-dup pruning over an embeddings table
        # (columns: vec_id, embedding list<float>)
        from rasterflow.pipelines.similarity import semdedup

        ds = ray.data.read_parquet(paths, columns=["vec_id", "embedding"])
        kept = semdedup(ds, k_clusters=args.clusters, threshold=args.threshold)
        kept.write_parquet(args.out)
        print(json.dumps({"out": args.out, "clusters": args.clusters, "threshold": args.threshold}))
        if owns_ray:
            ray.shutdown()
        return 0

    if args.pipeline == "compact":
        # table maintenance (the OPTIMIZE/compaction pass): rewrite an input
        # directory's many small parquet files into ~partition-size groups of
        # row-count-verified larger files.  Resumable: each output partition
        # is a pure function of its input-file group (the lineage contract),
        # so a rerun skips verified partitions.  Content is preserved
        # row-for-row (no shuffle, no re-sort — read order within a group).
        def build_compact(files):
            # one output file per partition group: --partition-size IS the
            # compaction factor (N small inputs -> 1 larger output)
            return ray.data.read_parquet(files).repartition(1)

        parts = partition_files(paths, args.partition_size)
        res = run_resumable(parts, build_compact, args.out)
        import pyarrow.parquet as pq

        rows_in = sum(pq.read_metadata(f).num_rows for f in paths)
        outs = sorted(glob.glob(os.path.join(args.out, "part-*", "*.parquet")))
        rows_out = sum(pq.read_metadata(f).num_rows for f in outs)
        ok = rows_in == rows_out
        print(json.dumps(res | {
            "files_in": len(paths), "files_out": len(outs),
            "rows_in": rows_in, "rows_out": rows_out, "verified": ok,
        }))
        if owns_ray:
            ray.shutdown()
        return 0 if ok else 1

    if args.pipeline == "url-dedup":
        # resumable URL-level dedup over the pages table's REAL url column:
        # each partition canonicalizes its urls (Arrow RE2, row-local) and
        # writes (canon -> min url, n) partials; the final combine reduces
        # to the global canonical keep-list.  Same resume/merge contract as
        # the content-hash dedup below.
        import pyarrow as pa

        from rasterflow.pipelines.web import canonicalize_urls

        def build_urldedup(files):
            import pandas as pd

            ds = ray.data.read_parquet(files, columns=["url"])

            def partial(b: pa.Table) -> pa.Table:
                b = canonicalize_urls(b, "url")
                df = b.select(["canon", "url"]).to_pandas()
                g = (
                    df.groupby("canon", sort=False)
                    .agg(keep_url=("url", "min"), n=("url", "size"))
                    .reset_index()
                )
                return pa.Table.from_pandas(g, preserve_index=False)

            return ds.map_batches(partial, batch_format="pyarrow")

        parts = partition_files(paths, args.partition_size)
        res = run_resumable(parts, build_urldedup, args.out)
        from rasterflow.util import coalesce_small, grouped_aggregate

        part_files = []
        for pid, _ in parts:
            part_files.extend(
                sorted(glob.glob(os.path.join(args.out, f"part-{pid}", "*.parquet")))
            )
        partials = ray.data.read_parquet(part_files)
        keep_ds = grouped_aggregate(
            coalesce_small(partials),
            "canon",
            {"keep_url": ("keep_url", "min"), "n": ("n", "sum")},
        )
        final_path = os.path.join(args.out, "final")
        if os.path.isdir(final_path):
            shutil.rmtree(final_path)  # combine is re-runnable; never append
        keep_ds.sort("canon").write_parquet(final_path)
        rows_out = ray.data.read_parquet(final_path).count()  # metadata-only
        print(json.dumps(res | {"rows_out": rows_out, "final": final_path,
                                "manifest_entries": len(read_manifest(args.out))}))
        if owns_ray:
            ray.shutdown()
        return 0

    if args.pipeline == "dedup":
        # resumable exact-dedup: each partition writes its (content_hash ->
        # min url, n) partials — a pure function of its input files — and the
        # final combine reduces partials to the global keep-list.  The text
        # pipeline analogue of the spatial partial/combine split below.
        import pyarrow as pa

        from rasterflow.pipelines.dedup import content_hash64

        def build_dedup(files):
            import pandas as pd

            ds = ray.data.read_parquet(files, columns=["url", "html"])
            ds = ds.map_batches(extract_text, batch_format="pyarrow")

            def partial(b: pa.Table) -> pa.Table:
                h = content_hash64(b.column("text2")).astype("int64")
                df = pd.DataFrame({"h": h, "url": b.column("url").to_pylist()})
                g = df.groupby("h", sort=False).agg(url=("url", "min"), n=("url", "size")).reset_index()
                return pa.Table.from_pandas(
                    g.rename(columns={"h": "content_hash"}), preserve_index=False
                )

            return ds.map_batches(partial, batch_format="pyarrow")

        parts = partition_files(paths, args.partition_size)
        res = run_resumable(parts, build_dedup, args.out)
        # final combine: DISTRIBUTED group over the per-partition partials
        # (VERDICT r2 #2 — the partials are one row per distinct content hash
        # per partition, i.e. corpus-sized at web scale; a driver-side
        # to_pandas/concat here is an OOM scale-killer.  Same plan the
        # library's exact_dedup uses: hash-shuffle groupby + streaming
        # parquet write of the keep-list, never materialized on the driver.)
        from rasterflow.util import coalesce_small, grouped_aggregate

        part_files = []
        for pid, _ in parts:
            part_files.extend(
                sorted(glob.glob(os.path.join(args.out, f"part-{pid}", "*.parquet")))
            )
        partials = ray.data.read_parquet(part_files)
        keep_ds = grouped_aggregate(
            coalesce_small(partials),
            "content_hash",
            {"url": ("url", "min"), "n": ("n", "sum")},
        ).map_batches(lambda t: t.select(["url", "n"]), batch_format="pyarrow")
        final_path = os.path.join(args.out, "final")
        if os.path.isdir(final_path):
            shutil.rmtree(final_path)  # combine is re-runnable; never append
        keep_ds.sort("url").write_parquet(final_path)
        rows_out = ray.data.read_parquet(final_path).count()  # metadata-only
        print(json.dumps(res | {"rows_out": rows_out, "final": final_path,
                                "manifest_entries": len(read_manifest(args.out))}))
        if owns_ray:
            ray.shutdown()
        return 0

    layer = (
        read_polygons_text(args.layer, name=os.path.basename(args.layer), project=args.layer_project)
        if args.layer
        else neigh_like_layer(260, seed=42)
    )

    if args.pipeline == "rows":
        # materialized join rows (url, poly_id): partitions are final output,
        # no combine step
        from rasterflow.pipelines.joins import spatial_join

        def build_rows(files):
            pts = _points_ds(files, args, extract_text, PreparePoints)
            return spatial_join(pts, layer, how="index", id_col="url", accuracy_m=args.accuracy_m)

        parts = partition_files(paths, args.partition_size)
        res = run_resumable(parts, build_rows, args.out)
        print(json.dumps(res | {"manifest": os.path.join(args.out, "_manifest.jsonl")}))
        return 0

    def build(files):
        pts = _points_ds(files, args, extract_text, PreparePoints)
        if args.pipeline == "bounds":
            return aggregate_with_bounds(pts, layer, accuracy_m=args.accuracy_m)
        if args.pipeline == "zonal":
            # partitions keep (count, sum, min, max) partials — all four are
            # mergeable, so the final combine is a tiny groupby
            from rasterflow.pipelines.zonal import zonal_stats

            if not args.value_col:
                raise SystemExit("--pipeline zonal requires --value-col")
            return zonal_stats(
                pts, layer, value_col=args.value_col, how="index",
                accuracy_m=args.accuracy_m,
            )
        # partitions keep raw (count, sum) partials; avg is computed in the
        # final combine so partition outputs stay mergeable
        return aggregate_by_polygon(
            pts,
            layer,
            how=args.pipeline,
            value_col=args.value_col,
            agg="sum",
            accuracy_m=args.accuracy_m,
            sort=False,
        )

    parts = partition_files(paths, args.partition_size)
    res = run_resumable(parts, build, args.out)

    # final combine across partition outputs (small: npolys rows each)
    import pandas as pd

    frames = []
    for pid, _ in parts:
        frames.append(ray.data.read_parquet(os.path.join(args.out, f"part-{pid}")).to_pandas())
    allp = pd.concat(frames, ignore_index=True)
    if args.pipeline == "bounds":
        agg_cols = {c: "sum" for c in allp.columns if c != "poly_id"}
    elif args.pipeline == "zonal":
        agg_cols = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}
    else:
        agg_cols = {"count": "sum"}
        if "sum" in allp.columns:
            agg_cols["sum"] = "sum"
    final = allp.groupby("poly_id", as_index=False).agg(agg_cols).sort_values("poly_id")
    if args.value_col and args.agg == "avg" and args.pipeline != "bounds":
        final["avg"] = final["sum"] / final["count"].clip(lower=1)
    final_path = os.path.join(args.out, "final.parquet")
    final.to_parquet(final_path, index=False)
    print(
        json.dumps(
            {
                "ran": res["ran"],
                "skipped": res["skipped"],
                "rows_out": len(final),
                "final": final_path,
                "manifest_entries": len(read_manifest(args.out)),
            }
        )
    )
    if owns_ray:
        ray.shutdown()
    return 0


def _points_ds(files, args, extract_text, PreparePoints):
    import ray.data

    # prune at the read: only the columns the extract+geocode path consumes
    ds = ray.data.read_parquet(files, columns=["url", "warc_ts", "html", "lang"])
    ds = ds.map_batches(extract_text, batch_format="pyarrow")
    keep = ("lang",)
    vc = getattr(args, "value_col", None)
    if vc:
        keep = ("lang", vc)
        if vc == "n_chars":
            # pages carry no value columns: n_chars is derived from the
            # extracted text (the documents-table convention)
            import pyarrow as pa
            import pyarrow.compute as pc

            def add_n_chars(b: "pa.Table") -> "pa.Table":
                return b.append_column(
                    "n_chars", pc.cast(pc.utf8_length(b.column("text2")), pa.int64())
                )

            ds = ds.map_batches(add_n_chars, batch_format="pyarrow")
    return ds.map_batches(
        PreparePoints(geocoder=args.geocoder, text_col="text2", keep_cols=keep),
        batch_format="pyarrow",
    )


if __name__ == "__main__":
    raise SystemExit(main())
