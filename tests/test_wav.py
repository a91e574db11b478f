"""WAV codec tests: roundtrip property, RIFF chunk-walk robustness, and the
actor-pool decode stage."""

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rasterflow.stages.wav import decode_wav_pcm16, encode_wav_pcm16


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 600),
    rate=st.sampled_from([8000, 16000, 44100, 48000]),
    ch=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_roundtrip(n, rate, ch, seed):
    rng = np.random.default_rng(seed)
    samples = rng.integers(-32768, 32768, size=n * ch, dtype=np.int64).astype(np.int16)
    b = encode_wav_pcm16(samples, sample_rate=rate, channels=ch)
    r, c, out = decode_wav_pcm16(b)
    assert (r, c) == (rate, ch)
    np.testing.assert_array_equal(out, samples)


def test_skips_unknown_chunks_with_pad():
    samples = np.arange(-5, 5, dtype=np.int16)
    w = encode_wav_pcm16(samples, 22050)
    cut = 12 + 8 + 16
    # odd-length junk chunk: the decoder must honor the RIFF pad byte
    junk = b"LIST" + (5).to_bytes(4, "little") + b"INFO\x00" + b"\x00"
    spliced = w[:cut] + junk + w[cut:]
    r, c, out = decode_wav_pcm16(spliced)
    assert (r, c) == (22050, 1)
    np.testing.assert_array_equal(out, samples)


@pytest.mark.parametrize(
    "mutate,msg",
    [
        (lambda b: b[:10], "too short"),
        (lambda b: b"JUNK" + b[4:], "not a RIFF"),
        (lambda b: b[:46], "truncated"),  # cut mid-data (header 12 + fmt 24 + data hdr 8 = 44)
        (lambda b: b.replace(b"fmt ", b"fmx "), "missing fmt"),
        (lambda b: b.replace(b"data", b"datx"), "missing data"),
    ],
)
def test_malformed_raises(mutate, msg):
    w = encode_wav_pcm16(np.zeros(8, dtype=np.int16))
    with pytest.raises(ValueError, match=msg):
        decode_wav_pcm16(mutate(w))


def test_non_pcm_rejected():
    w = bytearray(encode_wav_pcm16(np.zeros(4, dtype=np.int16)))
    w[20] = 3  # IEEE float format tag
    with pytest.raises(ValueError, match="unsupported audio format"):
        decode_wav_pcm16(bytes(w))


def test_decode_stage(ray_session):
    import pyarrow as pa
    import ray.data

    from rasterflow.pipelines.multimodal import decode_wavs

    rng = np.random.default_rng(9)
    rows = []
    for i in range(30):
        s = rng.integers(-32768, 32768, size=64, dtype=np.int64).astype(np.int16)
        rows.append({"url": f"u{i:03d}", "audio": encode_wav_pcm16(s, 16000), "_sum": int(s.sum())})
    df = pd.DataFrame(rows)
    ds = ray.data.from_arrow(
        pa.table({"url": df["url"], "audio": pa.array(df["audio"], type=pa.binary())})
    ).repartition(3)
    out = decode_wavs(ds).to_pandas().sort_values("url").reset_index(drop=True)
    assert (out["n_samples"] == 64).all()
    np.testing.assert_array_equal(out["sum_samples"].to_numpy(), df["_sum"].to_numpy())
