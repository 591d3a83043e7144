"""Real media kernels (ops/codecs.py): round-trips, exact resample
semantics, PCM slicing math, and end-to-end differentials for the real
multimodal pipelines."""

import hashlib
import os

import numpy as np
import pyarrow as pa
import pytest

from pdf_extractors_ray.ops import codecs


def test_ppm_roundtrip_exact():
    rng = np.random.RandomState(11)
    arr = rng.randint(0, 256, size=(17, 23, 3), dtype=np.uint8)
    out = codecs.decode_ppm(codecs.encode_ppm(arr))
    assert out.shape == arr.shape
    assert np.array_equal(out, arr)


def test_ppm_rejects_non_p6():
    with pytest.raises(ValueError):
        codecs.decode_ppm(b"P3\n1 1\n255\n0 0 0")
    with pytest.raises(ValueError):
        codecs.decode_ppm(b"nonsense")


@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
def test_png_roundtrip_every_filter(ftype):
    """Each PNG row filter (None/Sub/Up/Average/Paeth) must round-trip
    bit-exactly through the stdlib zlib + numpy unfilter path."""
    rng = np.random.RandomState(100 + ftype)
    arr = rng.randint(0, 256, size=(19, 31, 3), dtype=np.uint8)
    out = codecs.decode_png(codecs.encode_png(arr, filter_type=ftype))
    assert out.shape == arr.shape
    assert np.array_equal(out, arr)


def test_png_gray_and_rgba_roundtrip():
    rng = np.random.RandomState(7)
    gray = rng.randint(0, 256, size=(12, 9), dtype=np.uint8)
    g = codecs.decode_png(codecs.encode_png(gray, filter_type=4))
    assert g.shape == (12, 9, 1) and np.array_equal(g[:, :, 0], gray)
    rgba = rng.randint(0, 256, size=(8, 13, 4), dtype=np.uint8)
    r = codecs.decode_png(codecs.encode_png(rgba, filter_type=3))
    assert np.array_equal(r, rgba)


def test_png_smooth_image_compresses_and_roundtrips():
    # a gradient (the case row filters exist for): Paeth output must both
    # round-trip and beat the unfiltered encoding's size
    y, x = np.mgrid[0:64, 0:64]
    arr = np.stack([(y * 2).astype(np.uint8), (x * 2).astype(np.uint8),
                    ((x + y)).astype(np.uint8)], axis=2)
    flat = codecs.encode_png(arr, filter_type=0)
    paeth = codecs.encode_png(arr, filter_type=4)
    assert np.array_equal(codecs.decode_png(paeth), arr)
    assert len(paeth) < len(flat)


def test_png_rejects_corruption_and_unsupported():
    arr = np.zeros((4, 4, 3), dtype=np.uint8)
    payload = bytearray(codecs.encode_png(arr))
    payload[40] ^= 0xFF  # flip a byte inside IDAT -> CRC must catch it
    with pytest.raises(ValueError):
        codecs.decode_png(bytes(payload))
    with pytest.raises(ValueError):
        codecs.decode_png(b"not a png")
    with pytest.raises(ValueError):
        codecs.encode_png(np.zeros((2, 2, 2), dtype=np.uint8))


def test_decode_image_sniffs_and_canonicalizes():
    rng = np.random.RandomState(3)
    arr = rng.randint(0, 256, size=(10, 11, 3), dtype=np.uint8)
    assert np.array_equal(codecs.decode_image(codecs.encode_ppm(arr)), arr)
    assert np.array_equal(codecs.decode_image(codecs.encode_png(arr, 2)), arr)
    gray = rng.randint(0, 256, size=(5, 6), dtype=np.uint8)
    g3 = codecs.decode_image(codecs.encode_png(gray))
    assert g3.shape == (5, 6, 3) and np.array_equal(g3[:, :, 0], gray)
    rgba = rng.randint(0, 256, size=(5, 6, 4), dtype=np.uint8)
    assert np.array_equal(codecs.decode_image(codecs.encode_png(rgba, 1)), rgba[:, :, :3])
    with pytest.raises(ValueError):
        codecs.decode_image(b"??\x00")


def test_jpeg_roundtrip_quality_bound():
    """Baseline JPEG is lossy: the round-trip must reconstruct within a
    quantization-noise bound that tightens with quality, and a smooth
    gradient (the DCT's best case) must come back nearly exact."""
    y, x = np.mgrid[0:40, 0:56]
    smooth = np.stack(
        [(y * 3).astype(np.uint8), (x * 2).astype(np.uint8),
         ((x + y) * 2).astype(np.uint8)], axis=2)
    out = codecs.decode_jpeg(codecs.encode_jpeg(smooth, quality=95))
    assert out.shape == smooth.shape
    err = np.abs(out.astype(np.int64) - smooth.astype(np.int64))
    assert err.mean() < 3.0 and err.max() <= 40  # chroma edges ring hardest

    rng = np.random.RandomState(5)
    noisy = rng.randint(0, 256, size=(24, 24, 3), dtype=np.uint8)
    hi = codecs.decode_jpeg(codecs.encode_jpeg(noisy, quality=98))
    lo = codecs.decode_jpeg(codecs.encode_jpeg(noisy, quality=30))
    e_hi = np.abs(hi.astype(np.int64) - noisy.astype(np.int64)).mean()
    e_lo = np.abs(lo.astype(np.int64) - noisy.astype(np.int64)).mean()
    assert e_hi < e_lo  # quality knob actually controls quantization


def test_jpeg_grayscale_and_odd_dims():
    # non-multiple-of-8 dims exercise edge-replication padding + crop
    rng = np.random.RandomState(9)
    gray = (rng.randint(0, 9, size=(13, 11)) * 28).astype(np.uint8)
    out = codecs.decode_jpeg(codecs.encode_jpeg(gray, quality=92))
    assert out.shape == (13, 11, 1)
    err = np.abs(out[:, :, 0].astype(np.int64) - gray.astype(np.int64))
    assert err.mean() < 14.0


def test_jpeg_dc_prediction_across_blocks():
    # constant image: every block's DC is predicted from the previous —
    # a differential-coding bug would drift the reconstruction
    flat = np.full((32, 48, 3), 137, dtype=np.uint8)
    out = codecs.decode_jpeg(codecs.encode_jpeg(flat, quality=90))
    assert np.abs(out.astype(np.int64) - 137).max() <= 3


def test_jpeg_restart_interval_roundtrip():
    """RSTn markers every 4 MCUs: the decoder must resync at each
    byte-aligned boundary and reset DC prediction — the result must
    match the no-restart encoding of the same image."""
    rng = np.random.RandomState(21)
    arr = rng.randint(0, 256, size=(24, 80, 3), dtype=np.uint8)  # 30 MCUs
    plain = codecs.decode_jpeg(codecs.encode_jpeg(arr, quality=90))
    rst = codecs.decode_jpeg(codecs.encode_jpeg(arr, quality=90, restart_interval=4))
    assert np.array_equal(plain, rst)
    gray = rng.randint(0, 256, size=(17, 33), dtype=np.uint8)
    g_plain = codecs.decode_jpeg(codecs.encode_jpeg(gray, quality=90))
    g_rst = codecs.decode_jpeg(codecs.encode_jpeg(gray, quality=90, restart_interval=3))
    assert np.array_equal(g_plain, g_rst)


def test_jpeg_rejects_invalid():
    with pytest.raises(ValueError):
        codecs.decode_jpeg(b"not a jpeg")
    with pytest.raises(ValueError):
        codecs.encode_jpeg(np.zeros((4, 4, 3), dtype=np.float64))
    # truncated stream: cut before the scan
    good = codecs.encode_jpeg(np.zeros((8, 8), dtype=np.uint8))
    with pytest.raises(ValueError):
        codecs.decode_jpeg(good[:20])
    # stream ending in a run of 0xFF fill bytes must raise ValueError
    # (not struct.error): the fill-byte skip used to outrun the length guard
    for tail in (b"\xff", b"\xff\xff", b"\xff\xff\xff", b"\xff\xff\xff\xff\xff"):
        with pytest.raises(ValueError):
            codecs.decode_jpeg(b"\xff\xd8" + tail)


def test_jpeg_standalone_markers_in_header_walk():
    """TEM (0x01) and stray RSTn are length-less — the header walk must
    skip them instead of misreading the following bytes as a length."""
    rng = np.random.RandomState(7)
    arr = rng.randint(0, 256, size=(8, 8), dtype=np.uint8)
    good = codecs.encode_jpeg(arr)
    base = codecs.decode_jpeg(good)
    for mk in (b"\xff\x01", b"\xff\xd0", b"\xff\xd7"):
        patched = good[:2] + mk + good[2:]
        out = codecs.decode_jpeg(patched)
        assert np.array_equal(out, base)
    # fill bytes before a standalone marker, then the real stream
    patched = good[:2] + b"\xff\xff\xff\x01" + good[2:]
    assert np.array_equal(codecs.decode_jpeg(patched), base)


def test_decode_image_sniffs_jpeg():
    rng = np.random.RandomState(4)
    arr = rng.randint(0, 256, size=(16, 16, 3), dtype=np.uint8)
    out = codecs.decode_image(codecs.encode_jpeg(arr, quality=90))
    assert out.shape == (16, 16, 3) and out.dtype == np.uint8
    gray = rng.randint(0, 256, size=(8, 8), dtype=np.uint8)
    g3 = codecs.decode_image(codecs.encode_jpeg(gray))
    assert g3.shape == (8, 8, 3)
    assert np.array_equal(g3[:, :, 0], g3[:, :, 1])


def test_wav_roundtrip_exact():
    rng = np.random.RandomState(12)
    pcm = rng.randint(-30000, 30000, size=1234).astype(np.int16)
    out, rate = codecs.decode_wav(codecs.encode_wav(pcm, 8000))
    assert rate == 8000
    assert np.array_equal(out, pcm)


def test_resize_nearest_semantics():
    # 2x downscale of a 4x4 gradient picks every other source pixel
    arr = np.arange(4 * 4 * 3, dtype=np.uint8).reshape(4, 4, 3)
    out = codecs.resize_nearest(arr, 2)
    assert out.shape == (2, 2, 3)
    assert np.array_equal(out, arr[::2, ::2])
    # no upscaling: already within max_side -> unchanged
    assert np.array_equal(codecs.resize_nearest(arr, 16), arr)
    # aspect ratio preserved for non-square input
    tall = np.zeros((40, 10, 3), dtype=np.uint8)
    t = codecs.resize_nearest(tall, 20)
    assert t.shape == (20, 5, 3)


def test_sample_pcm_stride_math():
    pcm = np.arange(8000, dtype=np.int16)  # 1 s at 8 kHz
    frames = codecs.sample_pcm(pcm, 8000, every_ms=100, max_frames=8)
    assert [ts for ts, _ in frames] == [0, 100, 200, 300, 400, 500, 600, 700]
    step = 800
    for i, (_, seg) in enumerate(frames):
        assert np.array_equal(seg, pcm[i * step : (i + 1) * step])
    # short clip: at least one frame, truncated to what exists
    short = codecs.sample_pcm(pcm[:100], 8000, every_ms=100, max_frames=8)
    assert len(short) == 1


def test_stdlib_codec_decode_true_metadata():
    img = codecs.synth_image(6)
    meta = codecs.StdlibCodec().decode(codecs.encode_ppm(img), "image")
    assert (meta["height"], meta["width"]) == img.shape[:2]
    assert meta["px_mean"] == int(img.mean())
    pcm, rate = codecs.synth_audio(7)
    meta = codecs.StdlibCodec().decode(codecs.encode_wav(pcm, rate), "audio")
    assert meta["duration_ms"] == len(pcm) * 1000 // rate


def test_media_thumbnails_real_pixels(ray_session):
    """The distributed thumbnail pipeline's hashes equal a local decode →
    resize → hash of the same seeded payloads (REAL pixel work end-to-end)."""
    from pdf_extractors_ray.ops.multimodal import image_payload_for, media_thumbnails

    out = media_thumbnails("/root/testdata/sf0.001", max_side=16).to_pandas()
    assert len(out) == 250  # even doc_ids are images
    for _, r in out.head(20).iterrows():
        # expectation recomputed locally through the SAME sniff-decode the
        # pipeline uses (the corpus cycles P6/PNG/JPEG container formats)
        thumb = codecs.resize_nearest(
            codecs.decode_image(image_payload_for(int(r["doc_id"]))), 16
        )
        assert (r["out_h"], r["out_w"]) == thumb.shape[:2]
        assert r["thumb_sha"] == hashlib.md5(thumb.tobytes()).hexdigest()[:16]


def test_media_frames_real_pcm(ray_session):
    """Frame rows carry true timestamps and hashes of the actual PCM
    segments of the seeded WAV payloads."""
    from pdf_extractors_ray.ops.multimodal import media_frames

    out = media_frames("/root/testdata/sf0.001", every_ms=100).to_pandas()
    assert (out["ts_ms"] == out["frame_idx"] * 100).all()
    for doc_id, g in list(out.groupby("doc_id"))[:10]:
        pcm, rate = codecs.synth_audio(int(doc_id))
        frames = codecs.sample_pcm(pcm, rate, 100, 8)
        assert len(g) == len(frames)
        for (_, r), (ts, seg) in zip(g.sort_values("frame_idx").iterrows(), frames):
            assert int(r["ts_ms"]) == ts
            assert r["frame_sha"] == hashlib.md5(seg.tobytes()).hexdigest()[:16]


def test_media_features_real_dimensions(ray_session):
    from pdf_extractors_ray.ops.multimodal import media_features

    out = media_features("/root/testdata/sf0.001").to_pandas()
    img = out[out["media_type"] == "image"]
    for _, r in img.head(10).iterrows():
        h, w = codecs.synth_image(int(r["doc_id"])).shape[:2]
        assert (int(r["height"]), int(r["width"])) == (h, w)
    aud = out[out["media_type"] == "audio"]
    for _, r in aud.head(10).iterrows():
        pcm, rate = codecs.synth_audio(int(r["doc_id"]))
        assert int(r["duration_ms"]) == len(pcm) * 1000 // rate


# --- image dHash near-dup ----------------------------------------------------


def test_dhash64_kernel_known_values():
    from pdf_extractors_ray.ops.multimodal import dhash64

    # all-equal image: every gradient bit 0
    flat = np.full((16, 18, 3), 100, dtype=np.uint8)
    assert dhash64(flat) == 0
    # strictly increasing columns: every gradient bit 1
    ramp = np.zeros((16, 18, 3), dtype=np.uint8)
    ramp[:, :, :] = (np.arange(18) * 10).astype(np.uint8)[None, :, None]
    assert dhash64(ramp) == (1 << 64) - 1
    # deterministic
    rng = np.random.RandomState(0)
    img = rng.randint(0, 256, (33, 47, 3), dtype=np.uint8)
    assert dhash64(img) == dhash64(img.copy())


def test_neardup_corpus_revalidates_manifest_after_failed_replace(tmp_path, monkeypatch):
    """When os.replace onto the cache dir fails, the existing dir is used
    only if its manifest matches the spec: a racing writer that finished
    is accepted, a dir with a bad manifest raises instead of being read."""
    import json
    import shutil

    import pyarrow.parquet as pq

    from pdf_extractors_ray import runtime
    from pdf_extractors_ray.ops import multimodal as mm

    pq.write_table(pa.table({"doc_id": [0, 1]}), tmp_path / "documents.parquet")
    on_build = []

    class FakeDataset:  # stands in for the Ray render; writes one file
        def map_batches(self, fn, **kw):
            return self

        def write_parquet(self, path):
            with open(os.path.join(path, "part-0.parquet"), "wb") as f:
                f.write(b"rendered")
            for hook in on_build:
                hook()

    monkeypatch.setattr(runtime, "read_parquet_sized", lambda *a, **kw: FakeDataset())
    out_dir = mm._materialize_neardup_corpus(str(tmp_path))
    try:
        manifest = os.path.join(out_dir, "_manifest.json")
        with open(manifest) as f:
            good = f.read()
        assert json.loads(good)["src"] == str(tmp_path / "documents.parquet")

        def write_manifest(text):
            with open(manifest, "w") as f:
                f.write(text)

        # a racing writer completes while this one renders: its dir wins
        write_manifest("{}")
        on_build.append(lambda: write_manifest(good))
        assert mm._materialize_neardup_corpus(str(tmp_path)) == out_dir
        # the dir keeps a bad manifest: the failed replace must raise
        on_build.clear()
        write_manifest("{}")
        with pytest.raises(RuntimeError, match="manifest"):
            mm._materialize_neardup_corpus(str(tmp_path))
        os.remove(manifest)
        with pytest.raises(RuntimeError, match="manifest"):
            mm._materialize_neardup_corpus(str(tmp_path))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


@pytest.mark.parametrize("sf", ["/root/testdata/sf0.001", "/root/testdata/sf0.01"])
def test_image_neardup_matches_bruteforce(ray_session, sf):
    """Distributed banded pairs == single-process all-pairs scan (the
    4-band pigeonhole is lossless at Hamming ≤ 3), and the planted
    overlay produces both exact (0) and jittered (1-3) pairs."""
    from pdf_extractors_ray.ops import codecs
    from pdf_extractors_ray.ops import multimodal as mm

    pairs = mm.media_image_neardup(sf).to_pandas()
    got = set(zip(pairs["a"].astype(int), pairs["b"].astype(int),
                  pairs["hamming"].astype(int)))
    want = mm.neardup_bruteforce_pairs(
        mm.media_neardup_dataset(sf).to_pandas(), mm.image_payload_hash
    )
    assert got == want
    hs = {h for _, _, h in got}
    assert 0 in hs and (hs - {0})  # exact dups AND jittered near-dups


def test_image_neardup_planted_groups(ray_session):
    """Every planted exact-duplicate pair (same 16-block, residues
    {0,4,6,8,10}) appears at Hamming 0."""
    from pdf_extractors_ray.ops import multimodal as mm

    pairs = mm.media_image_neardup("/root/testdata/sf0.001").to_pandas()
    zero = {(int(a), int(b)) for a, b, h in
            zip(pairs["a"], pairs["b"], pairs["hamming"]) if h == 0}
    import pandas as pd_

    docs = pd_.read_parquet("/root/testdata/sf0.001/documents.parquet", columns=["doc_id"])
    ids = sorted(int(d) for d in docs["doc_id"] if d % 2 == 0)
    from collections import defaultdict

    groups = defaultdict(list)
    for d in ids:
        if d % 16 in (0, 4, 6, 8, 10):
            groups[(d // 16) * 16].append(d)
    n_expected = 0
    for g in groups.values():
        for i, a in enumerate(g):
            for b in g[i + 1:]:
                n_expected += 1
                assert (a, b) in zero, (a, b)
    assert n_expected > 0


# --- audio fingerprint near-dup ------------------------------------------------


def test_audio_fingerprint_kernel():
    from pdf_extractors_ray.ops.multimodal import audio_fingerprint64

    # constant signal: every gradient bit 0; parity bit tracks length
    flat = np.full(1000, 100, dtype=np.int16)
    assert audio_fingerprint64(flat) == 0
    assert audio_fingerprint64(np.full(1001, 100, dtype=np.int16)) == 1
    # strictly growing amplitude: every gradient bit 1
    ramp = (np.arange(1024) * 30).astype(np.int16)
    assert audio_fingerprint64(ramp) == ((1 << 63) - 1) << 1
    # deterministic
    rng = np.random.RandomState(1)
    clip = rng.randint(-20000, 20000, 4000).astype(np.int16)
    assert audio_fingerprint64(clip) == audio_fingerprint64(clip.copy())
    with pytest.raises(ValueError):
        audio_fingerprint64(np.zeros(10, dtype=np.int16))


@pytest.mark.parametrize("sf", ["/root/testdata/sf0.001", "/root/testdata/sf0.01"])
def test_audio_neardup_matches_bruteforce(ray_session, sf):
    from pdf_extractors_ray.ops import codecs
    from pdf_extractors_ray.ops import multimodal as mm

    pairs = mm.media_audio_neardup(sf).to_pandas()
    got = set(zip(pairs["a"].astype(int), pairs["b"].astype(int),
                  pairs["hamming"].astype(int)))
    want = mm.neardup_bruteforce_pairs(
        mm.media_audio_neardup_dataset(sf).to_pandas(), mm.audio_payload_hash
    )
    assert got == want
    hs = {h for _, _, h in got}
    assert 0 in hs and (hs - {0})  # exact dups AND jittered near-dups


def test_audio_fingerprint_overflow_guard():
    """Regression (review finding): the energy-density cross-multiply
    must RAISE before int64 wraps (numpy wraps silently) — a long
    full-scale clip triggers the guard instead of corrupting bits."""
    from pdf_extractors_ray.ops.multimodal import audio_fingerprint64

    long_clip = np.full(7_000_000, 32767, dtype=np.int16)
    with pytest.raises(ValueError, match="overflow"):
        audio_fingerprint64(long_clip)


def test_mp3_frame_walk_standard_bitrates():
    """Frame-boundary round trip over a standard bitrate-indexed MPEG-1
    Layer III stream with varying bitrate indices and padding bits: the
    generic walk must recover every offset/size exactly."""
    def std_frame(version, br_idx, sr_idx, padding):
        hdr = ((0x7FF << 21) | (version << 19) | (0x1 << 17) | (0x1 << 16)
               | (br_idx << 12) | (sr_idx << 10) | (padding << 9) | (0x3 << 6))
        f = codecs._mp3_header_fields(hdr)
        return hdr.to_bytes(4, "big") + b"\x00" * (f["frame_len"] - 4), f["frame_len"]

    stream, offs, pos = b"", [], 0
    for br, pad in [(1, 0), (5, 1), (9, 0), (14, 1), (3, 0), (11, 1)]:
        fb, ln = std_frame(3, br, 0, pad)  # MPEG-1, 44100 Hz
        offs.append((pos, ln))
        stream += fb
        pos += ln
    fr = codecs.mp3_frames(stream)
    assert [(f["offset"], f["size"]) for f in fr] == offs
    assert all(f["samples"] == 1152 and f["sample_rate"] == 44100 for f in fr)
    assert all(f["version"] == "1" and f["mono"] for f in fr)
    # MPEG-2.5 frames: 576 samples, 8 kHz legal
    fb, ln = std_frame(0, 5, 2, 0)
    fr25 = codecs.mp3_frames(fb)
    assert fr25[0]["samples"] == 576 and fr25[0]["sample_rate"] == 8000


def test_mp3_pcm_roundtrip_exact():
    """encode_mp3_pcm -> decode_mp3 reproduces the PCM exactly at every
    legal rate family; the stream parses as constant-length free-format
    frames with a leading Xing/Info metadata frame."""
    rng = np.random.RandomState(5)
    for rate in (8000, 16000, 44100):
        pcm = rng.randint(-32000, 32000, size=3001).astype(np.int16)
        mp3 = codecs.encode_mp3_pcm(pcm, rate)
        out, r = codecs.decode_mp3(mp3)
        assert r == rate and np.array_equal(out, pcm)
        fr = codecs.mp3_frames(mp3)
        assert all(f["size"] == fr[0]["size"] for f in fr)
        assert all(f["bitrate_kbps"] == 0 for f in fr)  # free format
        assert codecs._is_info_frame(mp3, fr[0])
        assert all(f["main_data_begin"] == 0 for f in fr)
    # decode_audio sniffs both containers to identical PCM
    pcm, rate = codecs.synth_audio(17)
    a1, _ = codecs.decode_audio(codecs.encode_wav(pcm, rate))
    a2, _ = codecs.decode_audio(codecs.encode_mp3_pcm(pcm, rate))
    assert np.array_equal(a1, a2)


def test_mp3_duration_from_frame_walk():
    pcm, rate = codecs.synth_audio(42)  # 8 kHz
    mp3 = codecs.encode_mp3_pcm(pcm, rate)
    n_audio = len(codecs.mp3_frames(mp3)) - 1  # minus the info frame
    assert codecs.mp3_duration_ms(mp3) == n_audio * 576 * 1000 // rate


def test_mp3_rejects_invalid():
    with pytest.raises(ValueError):
        codecs.mp3_frames(b"not audio")
    with pytest.raises(ValueError):
        codecs.mp3_frames(b"")
    pcm, rate = codecs.synth_audio(9)
    mp3 = codecs.encode_mp3_pcm(pcm, rate)
    with pytest.raises(ValueError):
        codecs.mp3_frames(mp3[:-7])  # truncated final frame
    # a real Huffman-coded stream (no PCML embedding) refuses loudly
    hdr = ((0x7FF << 21) | (3 << 19) | (0x1 << 17) | (0x1 << 16)
           | (5 << 12) | (0 << 10) | (0x3 << 6))
    f = codecs._mp3_header_fields(hdr)
    real = hdr.to_bytes(4, "big") + b"\x00" * (f["frame_len"] - 4)
    with pytest.raises(NotImplementedError):
        codecs.decode_mp3(real)
    with pytest.raises(ValueError):
        codecs.encode_mp3_pcm(np.zeros(10, np.int16), 7999)


def test_audio_neardup_mixed_wav_mp3_corpus(ray_session):
    """The audio near-dup gate over the MIXED WAV/MP3 corpus: planted
    duplicate groups span containers (residues 7/13 ship as MPEG), so a
    cross-container exact pair at Hamming 0 proves the fingerprint stage
    sniff-decodes; distributed output still equals brute force."""
    from pdf_extractors_ray.ops import multimodal as mm

    sf = "/root/testdata/sf0.001"
    corpus = mm.media_audio_neardup_dataset(sf).to_pandas()
    by_id = dict(zip(corpus["doc_id"].astype(int), corpus["payload"]))
    mp3_ids = {d for d, p in by_id.items() if bytes(p)[:1] == b"\xff"}
    wav_ids = {d for d, p in by_id.items() if bytes(p)[:4] == b"RIFF"}
    assert mp3_ids and wav_ids
    assert mp3_ids == {d for d in by_id if d % 16 in (7, 13)}

    pairs = mm.media_audio_neardup(sf).to_pandas()
    got = set(zip(pairs["a"].astype(int), pairs["b"].astype(int),
                  pairs["hamming"].astype(int)))
    want = mm.neardup_bruteforce_pairs(corpus, mm.audio_payload_hash)
    assert got == want
    # at least one exact pair crosses the container boundary
    cross = [(a, b) for a, b, h in got if h == 0
             and ((a in mp3_ids) != (b in mp3_ids))]
    assert cross


def test_mp3_free_format_alternating_padding():
    """Free-format streams may toggle the padding bit per frame (ISO
    11172-3; how 44.1 kHz keeps exact rate). The walk must frame each
    length as base + that frame's own padding bit — a same-header-only
    lock would silently stride two frames and halve the duration."""
    version, sr_idx, side = 0, 2, 9  # MPEG-2.5 mono, 8 kHz

    def hdr(pad):
        return ((0x7FF << 21) | (version << 19) | (0x1 << 17) | (0x1 << 16)
                | (0x0 << 12) | (sr_idx << 10) | (pad << 9) | (0x3 << 6)
                ).to_bytes(4, "big")

    base = 4 + side + 200
    stream, offs, pos = b"", [], 0
    for i in range(7):
        pad = i % 2
        offs.append((pos, base + pad))
        stream += hdr(pad) + b"\x07" * (base + pad - 4)
        pos += base + pad
    fr = codecs.mp3_frames(stream)
    assert [(f["offset"], f["size"]) for f in fr] == offs
    assert [f["padding"] for f in fr] == [0, 1, 0, 1, 0, 1, 0]
    assert codecs.mp3_duration_ms(stream) == 7 * 576 * 1000 // 8000


def test_decode_mp3_stereo_info_frame_uses_stereo_side_info():
    """decode_mp3 must look for the PCML marker after the frame's own side
    info (32 bytes for MPEG-1 stereo): a marker inside that side info, at
    the mono offset (17), is not main_data and must not be decoded."""
    hdr = (
        (0x7FF << 21) | (3 << 19) | (1 << 17) | (1 << 16)  # MPEG-1 L3, no CRC
        | (0 << 12) | (0 << 10) | (0 << 6)  # free format, 44.1 kHz, stereo
    ).to_bytes(4, "big")
    side = bytearray(32)
    side[17:25] = codecs._PCM_MAGIC + (4).to_bytes(4, "big")
    # 65 bytes of main_data: read from the mono offset, every frame then
    # holds a whole number of int16 samples and decodes without error
    info = hdr + bytes(side) + b"Info".ljust(65, b"\x00")
    audio = hdr + bytes(32) + bytes(range(65))
    mp3 = info + audio
    frames = codecs.mp3_frames(mp3)
    assert len(frames) == 2 and not frames[0]["mono"]
    assert codecs._is_info_frame(mp3, frames[0])
    with pytest.raises(NotImplementedError):
        codecs.decode_mp3(mp3)


def test_mp3_info_frame_offset_is_exact():
    """_is_info_frame must probe ONLY the frame's own side-info offset:
    'Xing' bytes at a WRONG offset inside audio main_data must not
    reclassify a real first frame as metadata."""
    pcm, rate = codecs.synth_audio(3)
    mp3 = bytearray(codecs.encode_mp3_pcm(pcm, rate))
    frames = codecs.mp3_frames(bytes(mp3))
    audio0 = frames[1]
    # plant 'Xing' at the MPEG-1 side-info offset (17) inside the
    # MPEG-2.5 audio frame's main_data — a wrong-layout offset
    p = audio0["offset"] + 4 + 17
    mp3[p:p + 4] = b"Xing"
    fr2 = codecs.mp3_frames(bytes(mp3))
    assert codecs._is_info_frame(bytes(mp3), fr2[0])       # real info frame
    assert not codecs._is_info_frame(bytes(mp3), fr2[1])   # still audio
    assert codecs.mp3_duration_ms(bytes(mp3)) == codecs.mp3_duration_ms(
        codecs.encode_mp3_pcm(pcm, rate)
    )
