"""HTML -> text extraction stage (vectorized, byte-deterministic).

The per-row invariant (BASELINE.json input_hint): extraction must be a pure
function of the html bytes producing text byte-identical to the golden ``text``
column per url, under any parallelism.  Implementation is Arrow-only — literal
substring searches and one gather over the html bytes, with RE2 regex kernels
kept for the rows the offsets cannot decide — with no Python per-row loop, no
locale, no dict iteration, so re-runs are trivially deterministic.

Strategy: take the inner content of the first ``<body ...>`` up to the next
``</body>``, strip any remaining tags, collapse nothing else (whitespace is
preserved verbatim).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_OPEN = "<body"
_CLOSE = "</body>"


def _regex_body(s: pa.Array) -> pa.Array:
    """Body text (tags not yet stripped) by the lazy RE2 capture.

    The reference semantics, run only on the rows :func:`_body_text` cannot
    take by offsets: nulls, rows without ``<body`` … ``</body>``, and rows
    whose first ``</body>`` starts inside the open tag.  Rows without a
    well-formed body (null capture) fall back to a prefix-strip plus a
    suffix-strip replace."""
    ex = pc.extract_regex(s, r"(?s)<body[^>]*>(?P<t>.*?)</body>")
    t = pc.struct_field(ex, "t")
    if t.null_count > 0:
        fb = pc.replace_substring_regex(s, r"(?s)^.*?<body[^>]*>", "", max_replacements=1)
        fb = pc.replace_substring_regex(fb, r"(?s)</body>[^<]*(<[^>]*>[^<]*)*$", "", max_replacements=1)
        t = pc.if_else(pc.is_valid(t), t, fb)
    return t


def _interleaved(s: pa.LargeStringArray, lo: np.ndarray, hi: np.ndarray) -> pa.LargeStringArray:
    """Zero-copy view over ``s``'s bytes whose element ``2i`` is ``[lo[i], hi[i])``.

    ``lo``/``hi`` are absolute offsets into the data buffer with
    ``start[i] <= lo[i] <= hi[i] <= end[i]``, so the interleaved offsets are
    non-decreasing.  Odd elements span the bytes between two rows' ranges and
    are ignored.  Every bound is a row boundary or sits next to an ASCII
    delimiter byte, so each element is valid UTF-8."""
    off = np.empty(2 * len(lo), dtype=np.int64)
    off[0::2] = lo
    off[1::2] = hi
    return pa.LargeStringArray.from_buffers(
        len(off) - 1, pa.py_buffer(off), s.buffers()[2] or pa.py_buffer(b""), null_count=0
    )


def _body_text(s: pa.LargeStringArray) -> pa.LargeStringArray:
    """Pre-strip body text of one chunk, equal to :func:`_regex_body` per row.

    From the first ``<body`` at ``b``, the regex's open tag ends at the first
    ``>`` after it (``[^>]*`` cannot cross one) and its lazy ``.*?`` stops at
    the first ``</body>`` after that.  So when the tail after ``<body`` has its
    first ``>`` at ``g`` and its first ``</body>`` at ``c >= g + 1``, the body
    is the tail's bytes ``[g + 1, c)``: the rows are cut with three
    ``find_substring`` passes and copied with one ``take``.  Every other row
    goes through the regex."""
    n = len(s)
    if n == 0:
        return s
    bounds = np.frombuffer(s.buffers()[1], dtype=np.int64)[s.offset : s.offset + n + 1]
    start, end = bounds[:-1], bounds[1:]
    b = pc.fill_null(pc.find_substring(s, _OPEN), -1).to_numpy()
    a = np.where(b >= 0, start + b + len(_OPEN), end)
    tail = _interleaved(s, a, end)
    g = pc.find_substring(tail, ">").to_numpy()[0::2]
    c = pc.find_substring(tail, _CLOSE).to_numpy()[0::2]
    fast = (b >= 0) & (g >= 0) & (c >= g + 1)
    body = _interleaved(s, np.where(fast, a + g + 1, end), np.where(fast, a + c, end))
    t = body.take(pa.array(np.arange(0, 2 * n, 2)))
    if not fast.all():
        slow = ~fast
        t = pc.replace_with_mask(t, pa.array(slow), _regex_body(s.take(np.flatnonzero(slow))))
    return t


def extract_text_column(html: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray | pa.Array:
    """binary html -> extracted text (Arrow string array).

    Per row: the bytes between the first ``<body ...>`` and the next
    ``</body>``, with any tags inside stripped; null html gives null text.
    Rows with a well-formed body are cut by substring offsets and gathered
    with one ``take`` (:func:`_body_text`); the others keep the lazy RE2
    capture (:func:`_regex_body`), so the output is byte-identical to the
    regex on every input.  Pathological nested-body inputs resolve to the
    first ``</body>``.  The tag strip runs only when some body holds a
    ``<``."""
    s = pc.cast(html, pa.large_string())
    if isinstance(s, pa.ChunkedArray):
        t = pa.chunked_array([_body_text(c) for c in s.chunks], type=pa.large_string())
    else:
        t = _body_text(s)
    if pc.any(pc.match_substring(t, "<")).as_py():
        t = pc.replace_substring_regex(t, r"<[^>]*>", "")
    return pc.cast(t, pa.string())


def extract_text(batch: pa.Table, out_col: str = "text2") -> pa.Table:
    """map_batches stage: adds the extracted-text column ``out_col``.

    Kept separate from the golden ``text`` column so tests can assert
    byte-identity (FIXTURES.md golden/text_sha256)."""
    return batch.append_column(out_col, extract_text_column(batch.column("html")))
