"""``util.map_stage``: stateful stages as memoized tasks.

The unit tests drive the mapped function in this process (the worker memo
is per process); the subprocess test checks that every family of stateful
stage finishes when Ray has a single CPU, which an actor holding that CPU
would prevent.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pyarrow as pa
import pytest

from rasterflow.util import map_stage

ROOT = Path(__file__).resolve().parents[1]


class _CaptureDs:
    """Stands in for a Dataset: keeps the function ``map_batches`` gets."""

    def map_batches(self, fn, **kwargs):
        self.fn, self.kwargs = fn, kwargs
        return self


class _Counted:
    built = 0

    def __init__(self, ref=None, tag: str = ""):
        _Counted.built += 1
        self.ref, self.tag = ref, tag

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch.append_column("stage", pa.array([id(self)] * len(batch), pa.int64()))


def _stage_of(ds) -> int:
    return ds.fn(pa.table({"v": [1]})).column("stage")[0].as_py()


def test_map_stage_builds_once_per_process_and_keys_refs(ray_session):
    import ray

    batch = pa.table({"v": [1, 2]})
    _Counted.built = 0
    a = map_stage(_CaptureDs(), _Counted, batch_size=7, tag="x")
    b = map_stage(_CaptureDs(), _Counted, tag="x")
    assert a.kwargs == {"batch_format": "pyarrow", "batch_size": 7}
    for _ in range(3):
        a.fn(batch)
        b.fn(batch)
    assert _Counted.built == 1 and _stage_of(a) == _stage_of(b)

    r1, r2 = ray.put(1), ray.put(1)
    s1 = map_stage(_CaptureDs(), _Counted, ref=r1, tag="x")
    s2 = map_stage(_CaptureDs(), _Counted, ref=r2, tag="x")
    assert _stage_of(s1) != _stage_of(s2) and _Counted.built == 3
    assert _stage_of(map_stage(_CaptureDs(), _Counted, ref=r1, tag="x")) == _stage_of(s1)
    assert _Counted.built == 3

    with pytest.raises(TypeError, match="hashable"):
        map_stage(_CaptureDs(), _Counted, ref=[1, 2])


_ONE_CPU_SCRIPT = textwrap.dedent(
    """
    import json, os, shutil, tempfile
    import numpy as np, pyarrow as pa, pyarrow.parquet as pq, ray, ray.data

    ray.init(address="local", num_cpus=1, object_store_memory=256 * 2**20,
             include_dashboard=False, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False

    from rasterflow.pipelines.joins import aggregate_by_polygon
    from rasterflow.pipelines.multimodal import decode_images
    from rasterflow.pipelines.packing import chunk_documents_bpe
    from rasterflow.pipelines.similarity import cosine_topk_ivf
    from rasterflow.sources.fixtures import payload_batch, tiny2_layer
    from rasterflow.stages.bpe import bpe_token_counts, train_bpe

    n = 400
    tmp = tempfile.mkdtemp()
    path = os.path.join(tmp, "ids.parquet")
    pq.write_table(pa.table({"doc_id": np.arange(n, dtype=np.int64)}), path)

    def fed(fn):
        # a read task and a map task feed each stage, as in the registry
        return ray.data.read_parquet(path).map_batches(fn, batch_format="pyarrow")

    def docs(b):
        ids = b.column("doc_id").to_numpy()
        return b.append_column("text", pa.array([f"lower low {i % 7} newest widest" for i in ids]))

    got = {}
    merges = train_bpe(["lower", "low", "newest", "widest"], np.array([5, 7, 6, 3]), num_merges=10)
    got["bpe"] = bpe_token_counts(fed(docs), merges).count()
    got["chunk"] = chunk_documents_bpe(fed(docs), merges, budget=4).count()

    def images(b):
        return b.append_column("image", payload_batch(b.column("doc_id").to_numpy()))

    got["decode"] = decode_images(fed(images), id_col="doc_id", decoder="fake").count()

    def emb(b):
        ids = b.column("doc_id").to_numpy()
        e = np.random.default_rng(0).normal(size=(n, 4))[ids]
        return pa.table({"vec_id": ids, "embedding": pa.array(list(e))})

    q = np.random.default_rng(1).normal(size=(2, 4))
    got["ivf"] = cosine_topk_ivf(fed(emb), q, k=3, nlist=4, nprobe=2).count()

    def pts(b):
        ids = b.column("doc_id").to_numpy()
        return pa.table({"x": 4.9 + (ids % 20) * 0.015, "y": 4.9 + (ids // 20) * 0.015})

    out = aggregate_by_polygon(fed(pts), tiny2_layer(), how="hybrid", cell_size=0.05).to_pandas()
    got["join"] = int(out["count"].sum())
    print("RESULT", json.dumps(got), flush=True)
    ray.shutdown()
    shutil.rmtree(tmp)
    """
)


def test_stateful_stages_finish_at_one_cpu():
    """One stage per family under a hard timeout, in a Ray of its own with
    one CPU; the whole process group is killed on timeout so no Ray
    process outlives the test."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT), os.environ.get("PYTHONPATH", "")]))
    p = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_SCRIPT],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = p.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        out, _ = p.communicate()
        pytest.fail(f"stateful stages hung at num_cpus=1; output so far:\n{out[-2000:]}")
    assert p.returncode == 0, out[-2000:]
    got = json.loads(next(line[7:] for line in out.splitlines() if line.startswith("RESULT ")))
    assert got["bpe"] == got["decode"] == 400 and got["ivf"] == 6, got
    assert got["chunk"] > 0 and got["join"] > 0, got
