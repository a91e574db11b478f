"""HTML -> text extraction: the offset kernel against the lazy-regex reference."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rasterflow.sources.fixtures import pages_batch
from rasterflow.stages import extract as X


def regex_extract_text_column(html):
    """Reference: the whole-column lazy RE2 capture the offset kernel replaced."""
    s = pc.cast(html, pa.large_string())
    ex = pc.extract_regex(s, r"(?s)<body[^>]*>(?P<t>.*?)</body>")
    t = pc.struct_field(ex, "t")
    if t.null_count > 0:
        fb = pc.replace_substring_regex(s, r"(?s)^.*?<body[^>]*>", "", max_replacements=1)
        fb = pc.replace_substring_regex(fb, r"(?s)</body>[^<]*(<[^>]*>[^<]*)*$", "", max_replacements=1)
        t = pc.if_else(pc.is_valid(t), t, fb)
    t = pc.replace_substring_regex(t, r"<[^>]*>", "")
    return pc.cast(t, pa.string())


_FRAGMENTS = [
    "<body", "<body>", '<body class="a b">', "<body id=x\n>", "</body>", "<BODY>", "</BODY>",
    "<body a</body>>", "<b>", "</b>", "<br/>", ">", "<", "<p", "<html>", "</html>",
    "<head><title>t</title></head>", "doc 7 geo 1.5 -2.25", " ", "\n", "é", "日本語", "🙂",
]
_fragment_docs = st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=6)), max_size=12
).map("".join)
_inner = st.lists(
    st.one_of(st.sampled_from(["<b>", "</b>", ">", "<", "<i x='1'>", "ü", "\n"]), st.text(max_size=8)),
    max_size=8,
).map("".join)
_body_docs = st.builds(
    lambda head, attrs, inner, tail: f"{head}<body{attrs}>{inner}</body>{tail}",
    st.sampled_from(["", "<html><head><title>x</title></head>", "é<"]),
    st.sampled_from(["", " class='c'", " a</body", " data-x=\"ñ\""]),
    _inner,
    st.sampled_from(["", "</html>", "<body>second</body>", "</body>", " trailing <x"]),
)
_docs = st.lists(st.one_of(st.none(), st.just(""), _fragment_docs, _body_docs), max_size=12)


@settings(max_examples=300, deadline=None)
@given(docs=_docs, pad=st.integers(1, 3), cut=st.integers(0, 12))
def test_extract_matches_regex_reference(docs, pad, cut):
    html = pa.array([None if d is None else d.encode() for d in docs], type=pa.binary())
    padded = pa.array([b"<body>pad</body>"] * pad + html.to_pylist(), type=pa.binary())
    cut = min(cut, len(html))
    inputs = [
        html,
        padded.slice(pad),
        pa.chunked_array([html.slice(0, cut), html.slice(cut)], type=pa.binary()),
    ]
    for h in inputs:
        got, exp = X.extract_text_column(h), regex_extract_text_column(h)
        assert type(got) is type(exp)
        assert got.equals(exp), (h, got, exp)


def test_fixture_pages_take_the_offset_path(monkeypatch):
    def no_fallback(s):
        raise AssertionError(f"{len(s)} rows sent to the regex fallback")

    monkeypatch.setattr(X, "_regex_body", no_fallback)
    pages = pages_batch(np.arange(3000, 5000))
    assert X.extract_text(pages).column("text2").equals(pages.column("text"))
    with pytest.raises(AssertionError, match="regex fallback"):
        X.extract_text_column(pa.array([b"<BODY>x</BODY>"]))
