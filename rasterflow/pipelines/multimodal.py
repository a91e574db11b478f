"""Multimodal column stages: opaque ``binary`` payloads + typed metadata.

Image/audio decode libraries are not available in this container.  The
image stage has one REAL format: ``decoder="png"`` uses the in-repo
pure-numpy PNG codec (:mod:`rasterflow.stages.png`, grayscale-8) and is
oracle-verified end to end; the remaining kernels are STUBBED behind a
deterministic fake (clearly marked; a real deployment drops in PIL/librosa
in ``__init__``).  Everything Ray-side is real and tested: per-worker
stages (``util.map_stage``), Arrow binary-column handling, small-batch
sizing for wide payloads, output schemas.

Scale note: binary payloads dominate block bytes — these stages default to
small ``batch_size`` and the pipelines project the payload column away
immediately after feature extraction.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..util import map_stage


def _payload_arrays(batch: pa.Table, col: str) -> list[bytes]:
    return batch.column(col).to_pylist()


def _fixed_payload_matrix(batch: pa.Table, col: str) -> np.ndarray | None:
    """(n, width) uint8 view of a fixed_size_binary payload column — the
    zero-copy fast path that lets the stub kernels run batch-vectorized.
    Returns None when the column is variable-width or has nulls (the
    per-row path handles those)."""
    c = batch.column(col)
    if isinstance(c, pa.ChunkedArray):
        c = c.combine_chunks()
    if not pa.types.is_fixed_size_binary(c.type) or c.null_count:
        return None
    width = c.type.byte_width
    buf = c.buffers()[1]
    arr = np.frombuffer(buf, dtype=np.uint8)
    start = c.offset * width
    return arr[start : start + len(c) * width].reshape(len(c), width)


class ImageDecodeStage:
    """binary image -> (width, height, mean_luma, feature[8]).

    ``decoder="auto"`` (default) uses PIL when importable and falls back to a
    deterministic fake otherwise, so the Ray-side plumbing and schemas are
    exercised end-to-end either way; ``decoder="fake"`` forces the stub
    (deterministic, what the in-container tests pin), ``decoder="pil"``
    requires PIL.  (The round-1 version raised when PIL *was* importable —
    installing the decoder broke the pipeline; ADVICE r1.)
    """

    def __init__(
        self, payload_col: str = "image", id_col: str = "url", feature_dim: int = 8, decoder: str = "auto"
    ):
        self.payload_col = payload_col
        self.id_col = id_col
        self.feature_dim = feature_dim
        self._pil = None
        self._png = False
        if decoder not in ("auto", "fake", "pil", "png"):
            raise ValueError(f"decoder must be auto|fake|pil|png, got {decoder!r}")
        if decoder == "png":
            # real format, pure-numpy codec (rasterflow.stages.png) — the
            # ONE decode path testable in this container end to end
            self._png = True
        if decoder in ("auto", "pil"):
            try:  # pragma: no cover - PIL not installed in this container
                from PIL import Image

                self._pil = Image
            except ImportError:
                if decoder == "pil":
                    raise

    def _decode_fake(self, b: bytes) -> tuple[int, int, float, np.ndarray]:
        """STUB decode: deterministic pure function of the bytes."""
        h = np.frombuffer(b[:256].ljust(256, b"\0"), dtype=np.uint8).astype(np.float64)
        width = 16 + int(h[:8].sum()) % 1024
        height = 16 + int(h[8:16].sum()) % 1024
        mean_luma = float(h.mean()) / 255.0
        feat = h[: self.feature_dim * 16].reshape(self.feature_dim, -1).mean(axis=1) / 255.0
        return width, height, mean_luma, feat

    def _decode_pil(self, b: bytes) -> tuple[int, int, float, np.ndarray]:  # pragma: no cover
        """Real decode (PIL importable): grayscale stats + a coarse row-band
        mean feature — untestable in this container but a working drop-in."""
        import io

        img = self._pil.open(io.BytesIO(b))
        g = np.asarray(img.convert("L"), dtype=np.float64)
        rows = np.array_split(g, self.feature_dim, axis=0)
        feat = np.array([r.mean() / 255.0 for r in rows])
        return img.width, img.height, float(g.mean()) / 255.0, feat

    def _decode_png(self, b: bytes) -> tuple[int, int, float, np.ndarray]:
        """Real PNG decode (pure-numpy codec): same stats as the PIL path —
        a per-row call, as real codec decodes inherently are."""
        from ..stages.png import decode_png_gray

        g = decode_png_gray(b).astype(np.float64)
        rows = np.array_split(g, self.feature_dim, axis=0)
        feat = np.array([r.mean() / 255.0 for r in rows])
        return g.shape[1], g.shape[0], float(g.mean()) / 255.0, feat

    def __call__(self, batch: pa.Table) -> pa.Table:
        real = self._pil is not None or self._png
        m = _fixed_payload_matrix(batch, self.payload_col) if not real else None
        if m is not None:
            # batch-vectorized stub decode: fixed-stride payloads become one
            # (n, 256) float matrix — no per-row loop (round 3; real codec
            # decodes are per-row inherently, the stub need not be)
            n, width_b = m.shape
            h = np.zeros((n, 256), dtype=np.float64)
            take = min(width_b, 256)
            h[:, :take] = m[:, :take]
            w = (16 + h[:, :8].sum(axis=1).astype(np.int64) % 1024).astype(np.int32)
            hgt = (16 + h[:, 8:16].sum(axis=1).astype(np.int64) % 1024).astype(np.int32)
            luma = h.mean(axis=1) / 255.0
            feats = h[:, : self.feature_dim * 16].reshape(n, self.feature_dim, -1).mean(axis=2) / 255.0
            feat_arr = pa.FixedSizeListArray.from_arrays(
                pa.array(feats.astype(np.float32).ravel()), self.feature_dim
            )
            return pa.table(
                {
                    self.id_col: batch.column(self.id_col),
                    "width": pa.array(w),
                    "height": pa.array(hgt),
                    "mean_luma": pa.array(luma),
                    "feature": feat_arr,
                }
            )
        payloads = _payload_arrays(batch, self.payload_col)
        if self._png:
            decode = self._decode_png
        elif self._pil is not None:
            decode = self._decode_pil
        else:
            decode = self._decode_fake
        w, hgt, luma, feats = [], [], [], []
        for b in payloads:
            wi, hi, lu, fe = decode(b or b"")
            w.append(wi)
            hgt.append(hi)
            luma.append(lu)
            feats.append(fe)
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "width": pa.array(w, type=pa.int32()),
                "height": pa.array(hgt, type=pa.int32()),
                "mean_luma": pa.array(luma, type=pa.float64()),
                "feature": pa.array(
                    [f.tolist() for f in feats], type=pa.list_(pa.float32(), self.feature_dim)
                ),
            }
        )


class ImageResizeStage:
    """binary image -> fixed (h, w) grayscale thumbnail (fixed_size_binary).

    The resize kernel follows the decode-stage convention: a real PIL
    thumbnail when the library is importable (and ``decoder`` allows),
    otherwise a deterministic byte-derived fake.  Output payload width is
    constant (``th*tw`` bytes), so downstream batches are fixed-stride —
    the property a training-data loader needs.
    """

    def __init__(
        self,
        payload_col: str = "image",
        id_col: str = "url",
        size: tuple[int, int] = (32, 32),
        decoder: str = "auto",
    ):
        self.payload_col = payload_col
        self.id_col = id_col
        self.th, self.tw = size
        self._pil = None
        if decoder not in ("auto", "fake", "pil"):
            raise ValueError(f"decoder must be auto|fake|pil, got {decoder!r}")
        if decoder in ("auto", "pil"):
            try:  # pragma: no cover - PIL not installed in this container
                from PIL import Image

                self._pil = Image
            except ImportError:
                if decoder == "pil":
                    raise

    def _resize_fake(self, b: bytes) -> bytes:
        """STUB resize: deterministic tiling of the payload bytes."""
        n = self.th * self.tw
        src = np.frombuffer((b or b"\0"), dtype=np.uint8)
        reps = -(-n // len(src))
        return np.tile(src, reps)[:n].tobytes()

    def _resize_pil(self, b: bytes) -> bytes:  # pragma: no cover
        import io

        img = self._pil.open(io.BytesIO(b)).convert("L").resize((self.tw, self.th))
        return np.asarray(img, dtype=np.uint8).tobytes()

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = self.th * self.tw
        m = _fixed_payload_matrix(batch, self.payload_col) if self._pil is None else None
        if m is not None and m.shape[1] > 0:
            # batch-vectorized stub resize: one tile over the whole matrix
            reps = -(-n // m.shape[1])
            tiled = np.ascontiguousarray(np.tile(m, reps)[:, :n])
            thumb_arr = pa.Array.from_buffers(
                pa.binary(n), len(tiled), [None, pa.py_buffer(tiled.tobytes())]
            )
            return pa.table(
                {
                    self.id_col: batch.column(self.id_col),
                    "thumb": thumb_arr,
                    "th": pa.array(np.full(len(tiled), self.th, dtype=np.int32)),
                    "tw": pa.array(np.full(len(tiled), self.tw, dtype=np.int32)),
                }
            )
        payloads = _payload_arrays(batch, self.payload_col)
        resize = self._resize_pil if self._pil is not None else self._resize_fake
        thumbs = [resize(b or b"") for b in payloads]
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "thumb": pa.array(thumbs, type=pa.binary(self.th * self.tw)),
                "th": pa.array(np.full(len(thumbs), self.th, dtype=np.int32)),
                "tw": pa.array(np.full(len(thumbs), self.tw, dtype=np.int32)),
            }
        )


def resize_images(
    ds,
    payload_col: str = "image",
    id_col: str = "url",
    size: tuple[int, int] = (32, 32),
    batch_size: int = 256,
    decoder: str = "auto",
):
    """Image resize task stage (small batches: wide payloads)."""
    return map_stage(
        ds, ImageResizeStage, batch_size=batch_size,
        payload_col=payload_col, id_col=id_col, size=tuple(size), decoder=decoder,
    )


class AudioFrameSampleStage:
    """binary audio -> sampled frame energies (list<float>).

    STUB: frames are deterministic byte-window means; a real deployment
    decodes PCM and windows it identically.
    """

    def __init__(self, payload_col: str = "audio", id_col: str = "url", num_frames: int = 16):
        self.payload_col = payload_col
        self.id_col = id_col
        self.num_frames = num_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        F = self.num_frames
        m = _fixed_payload_matrix(batch, self.payload_col)
        if m is not None and m.shape[1] >= F and m.shape[1] % F == 0:
            # batch-vectorized: equal frame windows -> one reshape-mean
            fr = m.reshape(len(m), F, -1).astype(np.float64).mean(axis=2) / 255.0
            fr_arr = pa.FixedSizeListArray.from_arrays(pa.array(fr.astype(np.float32).ravel()), F)
            return pa.table({self.id_col: batch.column(self.id_col), "frames": fr_arr})
        payloads = _payload_arrays(batch, self.payload_col)
        frames = []
        for b in payloads:
            b = (b or b"\0").ljust(self.num_frames, b"\0")
            arr = np.frombuffer(b, dtype=np.uint8).astype(np.float64)
            splits = np.array_split(arr, self.num_frames)
            frames.append([float(s.mean()) / 255.0 for s in splits])
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "frames": pa.array(frames, type=pa.list_(pa.float32(), self.num_frames)),
            }
        )


class VideoFrameSampleStage:
    """binary video -> stride-sampled per-frame features (list<int64>).

    STUB: a "video" is ``total_frames`` fixed-size byte frames back to back;
    the sampled feature is the frame's byte sum.  A real deployment opens the
    container once per worker (``__init__``) and decodes the same stride-
    sampled keyframes; the Ray-side plumbing — fixed-stride selection,
    per-worker stage, small batches for wide payloads, fixed-size-list
    output — is what this stage exercises and what the oracle pins.
    """

    def __init__(
        self,
        payload_col: str = "video",
        id_col: str = "url",
        total_frames: int = 32,
        num_frames: int = 8,
    ):
        assert total_frames % num_frames == 0
        self.payload_col = payload_col
        self.id_col = id_col
        self.total_frames = total_frames
        self.num_frames = num_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        T, F = self.total_frames, self.num_frames
        sel = np.arange(F) * (T // F)
        m = _fixed_payload_matrix(batch, self.payload_col)
        if m is not None and m.shape[1] >= T and m.shape[1] % T == 0:
            # batch-vectorized: reshape to (n, T, frame_bytes), one take+sum
            fr = m.reshape(len(m), T, -1)[:, sel, :].astype(np.int64).sum(axis=2)
        else:
            payloads = _payload_arrays(batch, self.payload_col)
            fr = np.zeros((len(payloads), F), dtype=np.int64)
            for i, b in enumerate(payloads):
                b = b or b"\0"
                fsz = max(1, len(b) // T)
                a = np.frombuffer(b.ljust(T * fsz, b"\0"), dtype=np.uint8)[: T * fsz]
                fr[i] = a.reshape(T, fsz)[sel].astype(np.int64).sum(axis=1)
        fr_arr = pa.FixedSizeListArray.from_arrays(pa.array(fr.ravel()), F)
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "frame_sums": fr_arr,
                "checksum": pa.array(fr.sum(axis=1)),
            }
        )


def sample_video_frames(
    ds,
    payload_col: str = "video",
    id_col: str = "url",
    total_frames: int = 32,
    num_frames: int = 8,
    batch_size: int = 256,
):
    """Video frame-sampling task stage (small batches: wide payloads)."""
    return map_stage(
        ds, VideoFrameSampleStage, batch_size=batch_size,
        payload_col=payload_col, id_col=id_col, total_frames=total_frames, num_frames=num_frames,
    )


def decode_images(
    ds,
    payload_col: str = "image",
    id_col: str = "url",
    batch_size: int = 256,
    decoder: str = "auto",
):
    """Image decode/feature task stage (small batches: wide payloads)."""
    return map_stage(
        ds, ImageDecodeStage, batch_size=batch_size, payload_col=payload_col, id_col=id_col, decoder=decoder
    )


def sample_audio_frames(ds, payload_col: str = "audio", id_col: str = "url", batch_size: int = 256):
    return map_stage(ds, AudioFrameSampleStage, batch_size=batch_size, payload_col=payload_col, id_col=id_col)


class WavDecodeStage:
    """binary WAV -> integer-exact sample stats through the REAL pure-numpy
    PCM16 codec (``stages/wav.py``) — the audio analogue of the PNG path:
    a genuine container parse per row (chunk walk, header validation), with
    all-integer outputs so the oracle can recompute them from the raw
    sample stream without decoding.

    Output: (id, sample_rate, channels, n_samples, sum_samples, peak_abs).
    """

    def __init__(self, payload_col: str = "audio", id_col: str = "url"):
        from ..stages.wav import decode_wav_pcm16

        self.payload_col = payload_col
        self.id_col = id_col
        self._decode = decode_wav_pcm16

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = _payload_arrays(batch, self.payload_col)
        rate = np.empty(len(payloads), dtype=np.int32)
        nch = np.empty(len(payloads), dtype=np.int32)
        n = np.empty(len(payloads), dtype=np.int64)
        s = np.empty(len(payloads), dtype=np.int64)
        peak = np.empty(len(payloads), dtype=np.int64)
        for i, b in enumerate(payloads):
            r, c, samples = self._decode(b)
            rate[i], nch[i], n[i] = r, c, len(samples)
            s64 = samples.astype(np.int64)
            s[i] = int(s64.sum())
            peak[i] = int(np.abs(s64).max()) if len(s64) else 0
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "sample_rate": pa.array(rate),
                "channels": pa.array(nch),
                "n_samples": pa.array(n),
                "sum_samples": pa.array(s),
                "peak_abs": pa.array(peak),
            }
        )


def decode_wavs(ds, payload_col: str = "audio", id_col: str = "url", batch_size: int = 256):
    """Real-WAV decode task stage (PCM16 chunk-walking codec)."""
    return map_stage(ds, WavDecodeStage, batch_size=batch_size, payload_col=payload_col, id_col=id_col)
