"""rasterflow benchmark runner.

    python3 perfbench/run.py --workload join_agg --seed 1 --seconds 15 --trace 0

Runs one workload (``ingest``, ``join_agg``, ``join_rows`` or ``queries``) as
a closed loop: one client in this process runs ops back to back, each op one
public call plus collecting or writing its result, and checks every op's
output against exact answers prepared without Ray before the clock starts.
Ray gets a fixed budget of one CPU.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is a separate
run that prints the per-layer metrics: after each Ray op it replays each
layer without Ray on the same input, inside spans that are written out when
the run ends.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record of the run, with
the box it ran on, goes to ``.perfbench/results/`` in the checkout.
Everything else the run writes sits in a per-run directory that is removed
on exit.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

#: a Ray call from an abandoned op after ``ray.shutdown`` must fail rather
#: than start a Ray session that nothing stops
os.environ["RAY_ENABLE_AUTO_CONNECT"] = "0"

OP_TIMEOUT_S = 45.0

JOIN_COUNTS = (
    "points_in_grid",
    "interior_points",
    "border_points",
    "batches",
    "partial_rows",
    "rows_out",
)


def metric_units(trace: int) -> dict[str, str]:
    """Name and unit of every metric a run prints, as ``BENCHMARK.json``
    lists them: the per-layer ones for a traced run, else the end-to-end
    ones."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# per-run isolation
# ---------------------------------------------------------------------------


class RunDir:
    """Inputs, outputs, bundle caches and temporary files of one run.

    ``TMPDIR`` and ``RASTERFLOW_CACHE_DIR`` point inside it, so nothing a
    run leaves behind reaches the next one.  Ray's session (``RAY_TMPDIR``)
    gets a private directory under the system temp dir instead, because
    Ray's socket paths must fit in 107 bytes.  Everything is removed by
    :meth:`close`, and what a run that died left behind is removed by the
    next run."""

    def __init__(self, root: Path):
        base = root / ".perfbench"
        self._sweep(base)
        self.path = base / f"run-{os.getpid()}-{time.time_ns() % 10**9}"
        self.results = base / "results"
        for d in ("tmp", "data", "out"):
            (self.path / d).mkdir(parents=True)
        self.results.mkdir(parents=True, exist_ok=True)
        self.data = self.path / "data"
        self.out = self.path / "out"
        self.ray_dir = Path(tempfile.mkdtemp(prefix="rfb-"))
        (self.path / "ray-dir").write_text(str(self.ray_dir))
        os.environ["TMPDIR"] = str(self.path / "tmp")
        os.environ["RAY_TMPDIR"] = str(self.ray_dir)
        tempfile.tempdir = None

    def fresh_cache(self) -> None:
        """An empty bundle cache; the process's bundles go there from now on."""
        d = self.path / "cache"
        d.mkdir(mode=0o700)
        os.environ["RASTERFLOW_CACHE_DIR"] = str(d)

    def close(self) -> None:
        """Shut Ray down and remove everything.  The inputs and outputs go
        first: a process that receives SIGTERM during an op can die inside
        ``ray.shutdown``, and then only the small rest is left for the next
        run's sweep."""
        for d in self.path.iterdir():
            if d.is_dir():
                shutil.rmtree(d, ignore_errors=True)
        ray = sys.modules.get("ray")
        if ray is not None and ray.is_initialized():
            ray.shutdown()
        shutil.rmtree(self.ray_dir, ignore_errors=True)
        shutil.rmtree(self.path, ignore_errors=True)

    @staticmethod
    def _sweep(base: Path) -> None:
        """Remove the run directories of processes that no longer exist."""
        for d in base.glob("run-*"):
            try:
                os.kill(int(d.name.split("-")[1]), 0)
                continue
            except ProcessLookupError:
                pass
            except PermissionError:
                continue
            ray_dir = d / "ray-dir"
            if ray_dir.is_file():
                shutil.rmtree(ray_dir.read_text(), ignore_errors=True)
            shutil.rmtree(d, ignore_errors=True)


# ---------------------------------------------------------------------------
# box record, memory and timing helpers
# ---------------------------------------------------------------------------


def cpu_canary_s() -> float:
    """Seconds for a fixed single-thread loop: a reading of how fast the box
    was during this run."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def box_record() -> dict:
    import pyarrow
    import ray

    from workloads import RAY_CPUS

    nproc = None
    if shutil.which("nproc"):
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, timeout=10).stdout.strip())
    return {
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "ray_num_cpus": RAY_CPUS,
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "python": platform.python_version(),
        "cpu_canary_s": cpu_canary_s(),
    }


def reset_peak_rss() -> bool:
    """Reset this process's RSS high-water mark (``VmHWM``)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def timed_call(fn, timeout: float):
    """Run ``fn`` on a worker thread; return ``(result, error, seconds)``.

    A call still running after ``timeout`` is abandoned with an error; the
    caller then stops the run, and shutting Ray down ends the call."""
    box: dict = {}

    def target():
        t0 = time.perf_counter()
        try:
            box["out"] = fn()
        except Exception as exc:  # an op failure is counted, not raised
            box["error"] = f"{type(exc).__name__}: {exc}"[:500]
        box["s"] = time.perf_counter() - t0

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        return None, f"timed out after {timeout:.0f} s", timeout
    return box.get("out"), box.get("error"), box["s"]


class OpLog:
    """Ops attempted in a run and how each ended."""

    def __init__(self) -> None:
        self.ops: list[dict] = []

    def record(self, wl, item, out, error, s) -> dict:
        """Log an op that ran, checking its output if it returned one."""
        rec = {"item": item, "s": s, "error": error, "wrong": False}
        if error is None:
            try:
                problem = wl.check(item, out)
            except Exception as exc:  # an output the check cannot read is wrong
                problem = f"check raised {type(exc).__name__}: {exc}"[:500]
            if problem is not None:
                rec.update(error=problem, wrong=True)
        self.ops.append(rec)
        return rec

    def run(self, wl, item, fn, timing=None) -> tuple[object, dict]:
        """Run one op, then check its output outside ``timing``."""
        with timing or contextlib.nullcontext():
            out, error, s = timed_call(fn, OP_TIMEOUT_S)
        return out, self.record(wl, item, out, error, s)

    @property
    def hung(self) -> bool:
        return any(r["error"] and r["error"].startswith("timed out") for r in self.ops)

    def ok(self) -> list[dict]:
        return [r for r in self.ops if r["error"] is None]

    def failed(self) -> int:
        return len(self.ops) - len(self.ok())


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def set_up(wl, run: RunDir, log: OpLog):
    """The program's own set-up, timed: ``ray.init``, the build into an empty
    bundle cache, and the warm-up (one op; one full pass for ``queries``).
    Then, outside the clock, the exact answers and the warm-up ops' checks."""
    import numpy as np

    from workloads import init_ray

    run.fresh_cache()
    t0 = time.perf_counter()
    init_ray(ROOT)
    t1 = time.perf_counter()
    _exit_on_sigterm()
    state = wl.build()
    t2 = time.perf_counter()
    warm = []
    for item in next(wl.passes(np.random.default_rng(0))):
        out, error, s = timed_call(lambda: wl.op(state, item, run.out), OP_TIMEOUT_S)
        warm.append((item, out, error, s))
        if error is not None and error.startswith("timed out"):
            raise RuntimeError(f"warm-up op {item} {error}")
    t3 = time.perf_counter()
    wl.exact(state)
    for item, out, error, s in warm:
        log.record(wl, item, out, error, s)
    return state, {"ray.init_s": t1 - t0, "state.bundle.build_s": t2 - t1, "warmup_op_s": t3 - t2, "setup_s": t3 - t0}


# ---------------------------------------------------------------------------
# measured windows
# ---------------------------------------------------------------------------


def run_window(wl, seconds: float, rng, one_pass) -> None:
    """Closed loop over whole passes: a pass starts only while it is
    expected to end within ``seconds``; the first always runs."""
    passes = wl.passes(rng)
    t0 = time.perf_counter()
    last = 0.0
    ran = False
    while not ran or time.perf_counter() - t0 + last <= seconds:
        p0 = time.perf_counter()
        if not one_pass(next(passes)):
            return
        last = time.perf_counter() - p0
        ran = True


def end_to_end(wl, run: RunDir, seconds: float, rng, log: OpLog, record: dict):
    import ray

    state, times = set_up(wl, run, log)
    record["setup"] = times
    window = OpLog()

    def one_pass(items) -> bool:
        for item in items:
            window.run(wl, item, lambda: wl.op(state, item, run.out))
            if window.hung:
                return False
        return True

    record["rss_reset"] = reset_peak_rss()
    run_window(wl, seconds, rng, one_pass)
    peak = peak_rss_mb()
    ray.shutdown()
    ok = window.ok()
    if not ok:
        raise RuntimeError("no op of the measured window succeeded")
    lat = sorted(r["s"] for r in ok)
    metrics = {
        "setup_s": times["setup_s"],
        "wall_p50_s": statistics.median(lat),
        "rows_per_s": sum(wl.input_rows(r["item"]) for r in ok) / sum(lat),
        "driver_peak_rss_mb": peak,
    }
    if len(lat) > 10:
        # the highest percentile with at least ten ops beyond it
        record["wall_tail"] = {"percentile": 100.0 * (len(lat) - 10) / len(lat), "s": lat[-11]}
    return metrics, window


def traced(wl, run: RunDir, seconds: float, rng, log: OpLog, record: dict):
    """Per op: the plain Ray op, then the traced Ray op (which materializes
    the Dataset it holds, for Ray's stats), then each layer's replay."""
    import ray

    from spans import Tracer
    from workloads import QUERY_TABLES

    state, times = set_up(wl, run, log)
    record["setup"] = times
    plain, traced_ops = OpLog(), OpLog()
    tracer = Tracer()
    items: dict[int, object] = {}
    counts: dict = {}
    stats: list[dict] = []
    pass_tasks: list[int] = []

    def one_pass(batch) -> bool:
        tasks = 0
        for item in batch:
            plain.run(wl, item, lambda: wl.op(state, item, run.out))
            if plain.hung:
                return False
            op_id = len(items)
            items[op_id] = item
            held: dict = {}

            def traced_call():
                out, held["stats"] = wl.traced_op(state, item, run.out)
                return out

            op_counts: dict = defaultdict(int)
            with tracer.span("op", op_id):
                out, rec = traced_ops.run(wl, item, traced_call, tracer.span("ray.op", op_id))
                if rec["error"] is None:
                    wl.replay(state, item, tracer, op_id, op_counts, run.out)
            if traced_ops.hung:
                return False
            if rec["error"] is None:
                stats.append(held["stats"])
                tasks += held["stats"]["tasks"]
                if "rows_out" not in op_counts:
                    op_counts["rows_out"] = len(out)
                counts.update(op_counts)
        pass_tasks.append(tasks)
        return True

    run_window(wl, seconds, rng, one_pass)
    ray.shutdown()
    plain_p50 = statistics.median(r["s"] for r in plain.ok()) if plain.ok() else None
    if plain_p50 is None or not traced_ops.ok():
        raise RuntimeError("no op of the traced window succeeded")
    tracer.dump(run.results / f"{record['run']}-spans.json")

    def busy(span: str) -> float:
        per_op = tracer.busy_by_op(span)
        return statistics.median(per_op.values()) if per_op else 0.0

    ray_op = tracer.busy_by_op("ray.op")
    m: dict[str, float] = {k: times[k] for k in ("ray.init_s", "state.bundle.build_s", "warmup_op_s")}
    for metric, span in (
        ("ray_data.read_busy_s", "ray_data.read"),
        ("stages.extract.busy_s", "stages.extract"),
        ("stages.geocode.busy_s", "stages.geocode"),
        ("geom.cells.locate_busy_s", "geom.cells.locate"),
        ("state.bundle.locate_busy_s", "state.bundle.locate"),
        ("geom.pip.busy_s", "geom.pip"),
        ("pipelines.joins.agg_busy_s", "pipelines.joins.agg"),
        ("pipelines.joins.rows_busy_s", "pipelines.joins.rows"),
        ("ray_data.write_busy_s", "ray_data.write"),
    ):
        m[metric] = busy(span)
    extract = m["stages.extract.busy_s"]
    m["stages.extract.html_mb_per_s"] = counts.get("html_bytes", 0) / 1e6 / extract if extract else 0.0
    whole = busy("pipelines.joins.agg_whole")
    m["pipelines.joins.batch_penalty"] = m["pipelines.joins.agg_busy_s"] / whole if whole else 0.0
    busy_sum = sum(
        m[k]
        for k in (
            "ray_data.read_busy_s",
            "stages.extract.busy_s",
            "stages.geocode.busy_s",
            "pipelines.joins.agg_busy_s",
            "pipelines.joins.rows_busy_s",
            "ray_data.write_busy_s",
        )
    )
    m["ray_data.gap_s"] = plain_p50 - busy_sum
    m["trace.overhead_s"] = statistics.median(ray_op.values()) - plain_p50
    for c in JOIN_COUNTS:
        m[f"pipelines.joins.{c}"] = counts.get(c, 0)
    tested = counts.get("pairs_tested", 0)
    m["geom.pip.pairs_tested"] = tested
    m["geom.pip.pairs_matched"] = counts.get("pairs_matched", 0)
    m["geom.pip.match_ratio"] = counts.get("pairs_matched", 0) / tested if tested else 0.0
    for k in ("tasks", "blocks", "udf_s"):
        m[f"ray_data.{k}"] = statistics.median(s[k] for s in stats) if stats else 0
    for q in QUERY_TABLES:
        lat = [ray_op[i] for i, it in items.items() if it == q and i in ray_op]
        m[f"queries.{q}.p50_s"] = statistics.median(lat) if lat else 0.0
    m["queries.ray_data.tasks"] = statistics.median(pass_tasks) if wl.name == "queries" and pass_tasks else 0
    window = OpLog()
    window.ops = plain.ops + traced_ops.ops
    m["oracle.mismatches"] = sum(r["wrong"] for r in log.ops + window.ops)
    record["wall_split"] = {
        "wall_p50_s": plain_p50,
        "busy_sum_s": busy_sum,
        "gap_s": m["ray_data.gap_s"],
        "ray_data_udf_s": m["ray_data.udf_s"],
    }
    print(
        "perfbench: wall p50 {wall_p50_s:.3f} s = Ray-free busy {busy_sum_s:.3f} s + gap {gap_s:.3f} s;"
        " Ray Data UDF time of the held Dataset {ray_data_udf_s:.3f} s".format(**record["wall_split"]),
        file=sys.stderr,
    )
    return m, window


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit so cleanup runs.  ``ray.init`` installs
    a handler of its own that kills Ray's processes without waiting, so this
    is installed again after it."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


def parse_args(argv):
    ap = argparse.ArgumentParser(description="rasterflow benchmark: one workload, one seed, one run.")
    ap.add_argument("--workload", required=True, choices=("ingest", "join_agg", "join_rows", "queries"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "rasterflow" / "__init__.py").is_file() or not (ROOT / "__ray_entry__.py").is_file():
        print(f"perfbench: {ROOT} is not a rasterflow checkout", file=sys.stderr)
        return 2
    _exit_on_sigterm()
    run = RunDir(ROOT)
    record: dict = {"run": f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}", "args": vars(args)}
    result = None
    try:
        import numpy as np

        from workloads import WORKLOADS

        record["box"] = box_record()
        wl = WORKLOADS[args.workload]()
        t0 = time.perf_counter()
        wl.prepare(run.data, args.seed)
        record["prepare_s"] = time.perf_counter() - t0
        rng = np.random.default_rng(args.seed)
        log = OpLog()
        run_mode = traced if args.trace else end_to_end
        metrics, window = run_mode(wl, run, args.seconds, rng, log, record)
        units = metric_units(args.trace)
        problems = wl.problems + [r["error"] for r in log.ops + window.ops if r["error"]]
        attempted, failed = len(window.ops), window.failed()
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        record.update(
            failed_frac=failed / attempted,
            problems=problems,
            warmup_ops=log.ops,
            ops=window.ops,
            result=result,
        )
    except Exception:
        record["error"] = traceback.format_exc()
        print(record["error"], file=sys.stderr)
    finally:
        (run.results / f"{record['run']}.json").write_text(json.dumps(record, indent=1, default=str))
        run.close()
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
