"""Glyph rasterizer + template-matching OCR (ops/glyphs.py): exact
roundtrips under every scan-defect combination, font injectivity, and the
end-to-end OCR→invoice-bank kernel."""

import numpy as np
import pytest

from pdf_extractors_ray.ops import codecs, glyphs
from pdf_extractors_ray.ops.surrogate import _render_ocr_invoice_py


def test_font_injective_and_nonblank():
    seen = {}
    for ch, f in glyphs.FONT.items():
        key = f.tobytes()
        assert key not in seen, f"{ch!r} collides with {seen[key]!r}"
        seen[key] = ch
    for ch in glyphs.CHARSET:
        assert glyphs.FONT[ch].any()
    assert not glyphs.FONT[" "].any()


def test_render_rejects_unsupported_glyph():
    with pytest.raises(ValueError):
        glyphs.render_page("naïve")


def test_ocr_roundtrip_all_defect_combos():
    text = "Invoice 3000123\nDue Date: 01.02.2021\nabcXYZ .,:-/() 09"
    for k in range(4):
        for inv in (False, True):
            r = glyphs.ocr_page(glyphs.render_page(text, rotate_k=k, invert=inv))
            assert r["text"] == text
            assert r["rotation_k"] == k
            assert r["inverted"] == inv
            assert r["match_rate"] == 1.0


def test_ocr_roundtrip_random_texts():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    alphabet = glyphs.CHARSET + " "

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.text(alphabet=alphabet, min_size=1, max_size=30).map(
                lambda s: s.rstrip() or "x"
            ),
            min_size=1, max_size=6,
        ),
        st.integers(0, 3),
        st.booleans(),
    )
    def check(lines, k, inv):
        text = "\n".join(lines)
        r = glyphs.ocr_page(glyphs.render_page(text, rotate_k=k, invert=inv))
        assert r["text"] == text
        assert r["match_rate"] == 1.0

    check()


def test_ocr_through_ppm_codec_roundtrip():
    text = _render_ocr_invoice_py(42)
    img = glyphs.render_page(text, rotate_k=2, invert=False)
    r = glyphs.ocr_page(codecs.decode_ppm(codecs.encode_ppm(img)))
    assert r["text"] == text and r["rotation_k"] == 2


def test_ocr_invoice_kernel_reads_defective_scans(ray_session):
    """Distributed path: rasterize with per-doc defects → GlyphOcr actor
    pool → production invoice bank; fields equal the bank run directly on
    the source text (the OCR leg is lossless by construction)."""
    import re

    from pdf_extractors_ray.ops.surrogate import extract_kernel_ocr_invoice
    from pdf_extractors_ray.oracle.invoice import PATTERNS

    out = extract_kernel_ocr_invoice("/root/testdata/sf0.001").to_pandas()
    assert len(out) == 500
    assert (out["match_ppm"] == 1_000_000).all()
    assert list(out["rotation_k"]) == [d % 4 for d in out["doc_id"]]
    assert list(out["inverted"]) == [d % 3 == 1 for d in out["doc_id"]]
    pat = re.compile(PATTERNS["Invoice"])
    for _, r in out.head(25).iterrows():
        text = _render_ocr_invoice_py(int(r["doc_id"]))
        assert r["inv_no"] == pat.search(text).group(1)
        assert r["total_amount"] != ""


def test_ocr_binary_ingest_end_to_end(ray_session, tmp_path):
    """S9 from BYTES: a directory of rendered page-image FILES (PNG + P6
    mix) ingested with read_binary_files must flow through the identical
    GlyphOcr -> invoice-bank chain and reproduce the in-pipeline
    rasterizer's output byte-for-byte on the same doc_ids (reference
    analog: nordic-invoice.py opens the PDF file, rasterizes pages, then
    extracts fields)."""
    import pandas as pd

    from pdf_extractors_ray.ops import surrogate
    from pdf_extractors_ray.sources.pages import write_invoice_page_files

    page_dir = str(tmp_path / "pages")
    ids = list(range(30))
    write_invoice_page_files(page_dir, ids)
    # idempotent: second call rewrites nothing (mtime-stable)
    import os

    before = {f: os.stat(os.path.join(page_dir, f)).st_mtime_ns
              for f in os.listdir(page_dir)}
    write_invoice_page_files(page_dir, ids)
    after = {f: os.stat(os.path.join(page_dir, f)).st_mtime_ns
             for f in os.listdir(page_dir)}
    assert before == after

    got = surrogate.extract_kernel_ocr_invoice_files(page_dir).to_pandas()
    want = surrogate.extract_kernel_ocr_invoice("/root/testdata/sf0.001").to_pandas()
    want = want[want["doc_id"] < 30].reset_index(drop=True)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)
    # the scan defects were really present and really detected
    assert set(got["rotation_k"]) == {0, 1, 2, 3}
    assert got["inverted"].any() and (~got["inverted"]).any()


def test_read_page_files_rejects_unknown_names(ray_session, tmp_path):
    from pdf_extractors_ray.sources.pages import read_page_files

    d = tmp_path / "bad"
    d.mkdir()
    (d / "notapage.bin").write_bytes(b"xx")
    import pytest as _pytest
    import ray

    with _pytest.raises((ValueError, ray.exceptions.RayTaskError)):
        read_page_files(str(d)).materialize()


def test_page_cache_tolerates_and_sweeps_stale_temps(ray_session, tmp_path):
    """A writer killed mid-write leaves page-*.tmp<pid> behind; readers
    must skip it (not poison the cache with a hard raise) and the next
    writer sweeps it."""
    import os

    from pdf_extractors_ray.sources.pages import (
        read_page_files, write_invoice_page_files,
    )

    d = str(tmp_path / "pages")
    write_invoice_page_files(d, range(6))
    stale = os.path.join(d, f"page-00000099.ppm.tmp{_reaped_pid()}")
    with open(stale, "wb") as f:
        f.write(b"partial garbage")
    got = read_page_files(d).to_pandas()
    assert sorted(got["doc_id"]) == list(range(6))  # temp skipped, not read
    write_invoice_page_files(d, range(6))
    assert not os.path.exists(stale)  # swept by the next writer


def _reaped_pid() -> int:
    """The pid of a child process that has exited and been waited for."""
    import subprocess
    import sys

    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def test_page_cache_sweep_spares_live_writers_temps(tmp_path):
    """The sweep removes a temp only when its writer's pid is dead: a
    concurrent writer's in-flight temp must survive, or its os.replace
    would fail."""
    import os

    from pdf_extractors_ray.sources.pages import write_invoice_page_files

    d = tmp_path / "pages"
    d.mkdir()
    live = d / f"page-00000001.ppm.tmp{os.getpid()}"
    dead = d / f"page-00000002.ppm.tmp{_reaped_pid()}"
    for t in (live, dead):
        t.write_bytes(b"in flight")
    write_invoice_page_files(str(d), [])
    assert live.exists()
    assert not dead.exists()
