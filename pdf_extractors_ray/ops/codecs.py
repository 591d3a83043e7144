"""Pure stdlib+numpy media codecs: P6 PPM, PNG, and baseline JPEG
images, 16-bit PCM WAV.

This container ships no external media libraries (no PIL/opencv/ffmpeg),
but these formats are fully decodable with numpy and the standard
library (PNG: zlib inflate + per-filter unfiltering incl. Paeth; JPEG:
generic DQT/DHT parsing, Huffman entropy decode, vectorized orthonormal
IDCT) — so the decode, resize, and frame-sample kernels over them are
REAL (round-trip-tested), not stubs. MPEG audio (MP3) has a real generic
FRAME layer here (header walk, free-format length discovery, duration —
see the MP3 section) with a PCM-embedding writer for
mixed-container pipelines; full Layer III spectral synthesis and H.264
stay injectable per-actor handles via ``DecodeStub``'s ``codec_factory``
(see ``ops/multimodal.py``). Reference analog for the image chain: the
playground CV pipeline (``playground/try_cv.py:37-98``).

Everything here is deterministic: the synthetic corpus generators seed
numpy's RandomState with ``doc_id``, and all encoders are byte-stable.
"""

from __future__ import annotations

import io
import struct
import wave
import zlib

import numpy as np

# ---------------------------------------------------------------------------
# P6 PPM (binary RGB): "P6\n<w> <h>\n255\n" + h*w*3 raw bytes


def encode_ppm(arr: np.ndarray) -> bytes:
    """(h, w, 3) uint8 -> binary P6 bytes."""
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError(f"expected (h, w, 3) uint8, got {arr.shape} {arr.dtype}")
    h, w = arr.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + arr.tobytes()


def decode_ppm(payload: bytes) -> np.ndarray:
    """Binary P6 bytes -> (h, w, 3) uint8 (zero-copy view over the body)."""
    if not payload.startswith(b"P6"):
        raise ValueError("not a binary P6 PPM payload")
    # header = three whitespace-separated tokens after the magic: w, h, maxval
    pos, fields = 2, []
    while len(fields) < 3:
        while pos < len(payload) and payload[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(payload) and not payload[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PPM header")
        fields.append(int(payload[start:pos]))
    pos += 1  # the single whitespace byte terminating the header
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"unsupported PPM maxval {maxval}")
    body = np.frombuffer(payload, dtype=np.uint8, count=h * w * 3, offset=pos)
    return body.reshape(h, w, 3)


def resize_nearest(arr: np.ndarray, max_side: int) -> np.ndarray:
    """Nearest-neighbor downscale so max(h, w) <= max_side (no upscaling).

    Index-gather resampling — one fancy-index per axis, no Python pixel
    loops; output is a fresh contiguous array.
    """
    h, w = arr.shape[:2]
    scale = min(1.0, max_side / max(h, w))
    out_h, out_w = max(1, round(h * scale)), max(1, round(w * scale))
    rows = np.minimum((np.arange(out_h) * (h / out_h)).astype(np.int64), h - 1)
    cols = np.minimum((np.arange(out_w) * (w / out_w)).astype(np.int64), w - 1)
    return np.ascontiguousarray(arr[rows[:, None], cols[None, :]])


# ---------------------------------------------------------------------------
# PNG (ISO/IEC 15948): 8-bit gray / RGB / RGBA, non-interlaced.
# Decode = chunk walk (CRC-checked) -> zlib inflate -> per-row unfilter.
# Sub/Up are vectorized outright; Sub additionally collapses to a mod-256
# cumsum over pixels. Average/Paeth carry an intra-row sequential
# dependence, resolved pixel-at-a-time with the channel vector as the
# unit (w steps of bpp-wide numpy ops, no per-byte Python).

_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"
# color type -> channels (8-bit depth only)
_PNG_CHANNELS = {0: 1, 2: 3, 6: 4}


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Paeth predictor over int16 channel vectors (a=left, b=up, c=up-left)."""
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def encode_png(arr: np.ndarray, filter_type: int = 0) -> bytes:
    """(h, w) or (h, w, {1,3,4}) uint8 -> PNG bytes.

    ``filter_type`` (0=None, 1=Sub, 2=Up, 3=Average, 4=Paeth) is applied
    to EVERY row — filtering forward is fully vectorized for all five
    types (the predictors read raw, not reconstructed, data) — so tests
    can round-trip each unfilter path."""
    if arr.dtype != np.uint8:
        raise ValueError(f"expected uint8, got {arr.dtype}")
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, ch = arr.shape
    color = {1: 0, 3: 2, 4: 6}.get(ch)
    if color is None:
        raise ValueError(f"unsupported channel count {ch}")
    if filter_type not in range(5):
        raise ValueError(f"bad filter type {filter_type}")

    raw = arr.astype(np.int16)
    left = np.zeros_like(raw)
    left[:, 1:] = raw[:, :-1]
    up = np.zeros_like(raw)
    up[1:] = raw[:-1]
    upleft = np.zeros_like(raw)
    upleft[1:, 1:] = raw[:-1, :-1]
    if filter_type == 0:
        filt = raw
    elif filter_type == 1:
        filt = raw - left
    elif filter_type == 2:
        filt = raw - up
    elif filter_type == 3:
        filt = raw - (left + up) // 2
    else:
        filt = raw - _paeth(left, up, upleft)
    body = np.empty((h, 1 + w * ch), dtype=np.uint8)
    body[:, 0] = filter_type
    body[:, 1:] = (filt % 256).astype(np.uint8).reshape(h, w * ch)

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data)) + tag + data
            + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    return (
        _PNG_MAGIC
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(body.tobytes(), 6))
        + chunk(b"IEND", b"")
    )


def decode_png(payload: bytes) -> np.ndarray:
    """PNG bytes -> (h, w, ch) uint8 (gray decodes to ch=1)."""
    if not payload.startswith(_PNG_MAGIC):
        raise ValueError("not a PNG payload")
    pos, idat, ihdr = len(_PNG_MAGIC), [], None
    while pos + 8 <= len(payload):
        (length,) = struct.unpack(">I", payload[pos : pos + 4])
        tag = payload[pos + 4 : pos + 8]
        data = payload[pos + 8 : pos + 8 + length]
        crc_raw = payload[pos + 8 + length : pos + 12 + length]
        if len(data) < length or len(crc_raw) < 4:
            raise ValueError(f"truncated PNG chunk {tag!r}")
        (crc,) = struct.unpack(">I", crc_raw)
        if zlib.crc32(tag + data) & 0xFFFFFFFF != crc:
            raise ValueError(f"PNG chunk {tag!r} CRC mismatch")
        if tag == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", data)
        elif tag == b"IDAT":
            idat.append(data)
        elif tag == b"IEND":
            break
        pos += 12 + length
    if ihdr is None or not idat:
        raise ValueError("truncated PNG: missing IHDR/IDAT")
    w, h, depth, color, comp, filt_method, interlace = ihdr
    if depth != 8 or color not in _PNG_CHANNELS or comp or filt_method or interlace:
        raise ValueError(
            f"unsupported PNG (depth={depth} color={color} interlace={interlace}); "
            "8-bit gray/RGB/RGBA non-interlaced only"
        )
    ch = _PNG_CHANNELS[color]
    stride = w * ch
    body = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    if len(body) != h * (1 + stride):
        raise ValueError("PNG body length mismatch")
    body = body.reshape(h, 1 + stride)
    ftypes = body[:, 0]
    rows = body[:, 1:].astype(np.int16)  # int16: filter math needs signed headroom
    out = np.empty((h, w, ch), dtype=np.uint8)
    prior = np.zeros(stride, dtype=np.int16)
    for y in range(h):
        f, row = int(ftypes[y]), rows[y]
        if f == 0:
            rec = row
        elif f == 1:
            # recon[x] = filt[x] + recon[x-bpp]: a prefix sum over pixels
            rec = np.cumsum(row.reshape(w, ch), axis=0, dtype=np.int64).reshape(stride)
        elif f == 2:
            rec = row + prior
        elif f in (3, 4):
            rec = np.empty(stride, dtype=np.int16)
            left = np.zeros(ch, dtype=np.int16)
            pr = prior.reshape(w, ch)
            rw = row.reshape(w, ch)
            rc = rec.reshape(w, ch)
            upleft = np.zeros(ch, dtype=np.int16)
            for x in range(w):
                if f == 3:
                    pred = (left + pr[x]) // 2
                else:
                    pred = _paeth(left, pr[x], upleft)
                rc[x] = (rw[x] + pred) % 256
                left = rc[x].astype(np.int16)
                upleft = pr[x]
        else:
            raise ValueError(f"bad PNG filter type {f} in row {y}")
        rec = (rec % 256).astype(np.uint8)
        out[y] = rec.reshape(w, ch)
        prior = rec.astype(np.int16)
    return out


# ---------------------------------------------------------------------------
# Baseline JPEG (ITU-T T.81): sequential DCT, Huffman, 8-bit, 4:4:4 or
# grayscale. The decoder is GENERIC over the bitstream's own DQT/DHT
# segments (it reads any valid baseline tables, including libjpeg's
# standard Annex-K ones); the encoder emits spec-exact orthonormal DCT,
# Annex-K-scaled quantization, and simple flat canonical Huffman tables
# (every table is declared in the stream, so flat tables are valid JPEG —
# they just compress less than libjpeg's defaults).

_ZIGZAG = np.array(
    [0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
     12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
     35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
     58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63],
    dtype=np.int64,
)

# Annex-K base quantization tables (natural order)
_QT_LUM = np.array(
    [16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55,
     14, 13, 16, 24, 40, 57, 69, 56, 14, 17, 22, 29, 51, 87, 80, 62,
     18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113, 92,
     49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99],
    dtype=np.int64,
).reshape(8, 8)
_QT_CHROM = np.array(
    [17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
     24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
     99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
     99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99],
    dtype=np.int64,
).reshape(8, 8)

# orthonormal 8x8 DCT-II matrix == the T.81 FDCT definition exactly
_DCT_M = np.array(
    [[(np.sqrt(1 / 8) if k == 0 else np.sqrt(2 / 8)) * np.cos((2 * n + 1) * k * np.pi / 16)
      for n in range(8)] for k in range(8)]
)


def _quality_tables(quality: int) -> tuple[np.ndarray, np.ndarray]:
    """libjpeg quality scaling of the Annex-K base tables."""
    q = min(100, max(1, int(quality)))
    scale = 5000 // q if q < 50 else 200 - 2 * q
    out = []
    for base in (_QT_LUM, _QT_CHROM):
        t = (base * scale + 50) // 100
        out.append(np.clip(t, 1, 255).astype(np.int64))
    return out[0], out[1]


def _rgb_to_ycbcr(arr: np.ndarray) -> np.ndarray:
    f = arr.astype(np.float64)
    r, g, b = f[:, :, 0], f[:, :, 1], f[:, :, 2]
    return np.stack(
        [
            0.299 * r + 0.587 * g + 0.114 * b,
            -0.168735892 * r - 0.331264108 * g + 0.5 * b + 128.0,
            0.5 * r - 0.418687589 * g - 0.081312411 * b + 128.0,
        ],
        axis=2,
    )


def _ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    y, cb, cr = ycc[:, :, 0], ycc[:, :, 1] - 128.0, ycc[:, :, 2] - 128.0
    rgb = np.stack(
        [y + 1.402 * cr, y - 0.344136286 * cb - 0.714136286 * cr, y + 1.772 * cb],
        axis=2,
    )
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


def _blocks_of(chan: np.ndarray) -> np.ndarray:
    """(h, w) float channel -> (n_blocks_y, n_blocks_x, 8, 8) with edge
    replication padding (all-numpy, no Python pixel loops)."""
    h, w = chan.shape
    ph, pw = -h % 8, -w % 8
    if ph or pw:
        chan = np.pad(chan, ((0, ph), (0, pw)), mode="edge")
    hh, ww = chan.shape
    return chan.reshape(hh // 8, 8, ww // 8, 8).transpose(0, 2, 1, 3)


def _flat_huffman(symbols: list[int]) -> tuple[list[int], list[int], dict[int, tuple[int, int]]]:
    """Fixed-length canonical Huffman over ``symbols``: the smallest code
    length L with 2^L > len(symbols) (strict: the all-ones code of the
    max length must stay unassigned per T.81), codes 0..n-1. Returns the
    DHT (bits, vals) lists and the symbol -> (code, length) map."""
    n = len(symbols)
    length = 1
    while (1 << length) <= n:
        length += 1
    bits = [0] * 16
    bits[length - 1] = n
    enc = {s: (i, length) for i, s in enumerate(symbols)}
    return bits, list(symbols), enc


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            self.nbits -= 8
            byte = (self.acc >> self.nbits) & 0xFF
            self.buf.append(byte)
            if byte == 0xFF:
                self.buf.append(0x00)  # byte stuffing
        # truncate the accumulator to the undrained bits — without this
        # it grows by every bit ever written and big-int shifting makes
        # the encoder quadratic in scan length (measured 13.1 s vs
        # 0.31 s on a 256x256 encode)
        self.acc &= (1 << self.nbits) - 1

    def flush(self) -> bytes:
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # 1-fill per spec
        return bytes(self.buf)


def _mag_cat(v: int) -> int:
    return int(v).bit_length() if v >= 0 else int(-v).bit_length()


def _mag_bits(v: int, s: int) -> int:
    return v if v >= 0 else v + (1 << s) - 1


def encode_jpeg(arr: np.ndarray, quality: int = 85,
                restart_interval: int = 0) -> bytes:
    """(h, w) grayscale or (h, w, 3) RGB uint8 -> baseline JFIF bytes
    (4:4:4, no subsampling; flat canonical Huffman tables declared in
    the stream). ``restart_interval`` > 0 emits a DRI segment and RSTn
    markers every that many MCUs (byte-aligned, DC prediction reset) —
    the error-resilience feature real encoders use, here mostly so the
    decoder's resync path is round-trip-tested."""
    if arr.dtype != np.uint8 or arr.ndim not in (2, 3):
        raise ValueError(f"expected uint8 (h,w) or (h,w,3), got {arr.shape} {arr.dtype}")
    gray = arr.ndim == 2
    if not gray and arr.shape[2] != 3:
        raise ValueError(f"expected 3 channels, got {arr.shape[2]}")
    h, w = arr.shape[:2]
    qlum, qchr = _quality_tables(quality)
    chans = (
        [arr.astype(np.float64)] if gray
        else [c for c in np.moveaxis(_rgb_to_ycbcr(arr), 2, 0)]
    )
    qts = [qlum] if gray else [qlum, qchr, qchr]
    qids = [0] if gray else [0, 1, 1]

    # vectorized FDCT + quantization for every channel up front
    coefs = []
    for chan, qt in zip(chans, qts):
        blocks = _blocks_of(chan) - 128.0
        f = np.einsum("ij,yxjk,lk->yxil", _DCT_M, blocks, _DCT_M)
        q = np.round(f / qt).astype(np.int64)
        coefs.append(q.reshape(-1, 64)[:, _ZIGZAG])  # rows in MCU order

    dc_bits, dc_vals, dc_enc = _flat_huffman(list(range(12)))
    ac_syms = [0x00, 0xF0] + [(r << 4) | s for r in range(16) for s in range(1, 11)]
    ac_bits, ac_vals, ac_enc = _flat_huffman(ac_syms)

    bw = _BitWriter()
    scan_parts: list[bytes] = []
    preds = [0] * len(coefs)
    rst_n = 0
    for b in range(coefs[0].shape[0]):
        if restart_interval and b and b % restart_interval == 0:
            scan_parts.append(bw.flush())
            scan_parts.append(bytes([0xFF, 0xD0 + (rst_n % 8)]))
            rst_n += 1
            bw = _BitWriter()
            preds = [0] * len(coefs)
        for ci, cq in enumerate(coefs):
            zz = cq[b]
            diff = int(zz[0]) - preds[ci]
            preds[ci] = int(zz[0])
            s = _mag_cat(diff)
            code, ln = dc_enc[s]
            bw.write(code, ln)
            if s:
                bw.write(_mag_bits(diff, s), s)
            run = 0
            nz = np.flatnonzero(zz[1:])
            last = int(nz[-1]) + 1 if len(nz) else 0
            for k in range(1, last + 1):
                v = int(zz[k])
                if v == 0:
                    run += 1
                    continue
                while run > 15:
                    code, ln = ac_enc[0xF0]
                    bw.write(code, ln)
                    run -= 16
                s = _mag_cat(v)
                code, ln = ac_enc[(run << 4) | s]
                bw.write(code, ln)
                bw.write(_mag_bits(v, s), s)
                run = 0
            if last < 63:
                code, ln = ac_enc[0x00]  # EOB
                bw.write(code, ln)
    scan_parts.append(bw.flush())
    scan = b"".join(scan_parts)

    def seg(marker: int, data: bytes) -> bytes:
        return bytes([0xFF, marker]) + struct.pack(">H", len(data) + 2) + data

    def dqt(qid: int, qt: np.ndarray) -> bytes:
        return seg(0xDB, bytes([qid]) + bytes(int(x) for x in qt.reshape(64)[_ZIGZAG]))

    def dht(cls: int, tid: int, bits: list[int], vals: list[int]) -> bytes:
        return seg(0xC4, bytes([(cls << 4) | tid]) + bytes(bits) + bytes(vals))

    ncomp = 1 if gray else 3
    sof = bytes([8]) + struct.pack(">HH", h, w) + bytes([ncomp])
    sos = bytes([ncomp])
    for ci in range(ncomp):
        sof += bytes([ci + 1, 0x11, qids[ci]])  # 1x1 sampling, quant table id
        sos += bytes([ci + 1, 0x00])  # DC table 0, AC table 0 for all comps
    sos += bytes([0, 63, 0])  # spectral selection (baseline fixed)

    out = bytearray(b"\xff\xd8")  # SOI
    out += seg(0xE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    out += dqt(0, qlum)
    if not gray:
        out += dqt(1, qchr)
    out += seg(0xC0, sof)  # SOF0 baseline
    out += dht(0, 0, dc_bits, dc_vals)
    out += dht(1, 0, ac_bits, ac_vals)
    if restart_interval:
        out += seg(0xDD, struct.pack(">H", restart_interval))
    out += seg(0xDA, sos)
    out += scan
    out += b"\xff\xd9"  # EOI
    return bytes(out)


class _BitReader:
    """Entropy-coded-segment bit reader.

    The scan is UNSTUFFED ONCE up front (0xFF00 -> 0xFF; restart
    markers recorded as segment boundaries; the first non-RST marker
    ends the segment), so the per-symbol fill path never inspects
    bytes — it gulps 32 bits at a time via int.from_bytes."""

    def __init__(self, data: bytes):
        clean = bytearray()
        self.rst_offsets: list[int] = []  # unstuffed byte offset of each RSTn
        i, n = 0, len(data)
        while i < n:
            b = data[i]
            if b == 0xFF:
                nxt = data[i + 1] if i + 1 < n else 0xD9
                if nxt == 0x00:
                    clean.append(0xFF)
                    i += 2
                    continue
                if 0xD0 <= nxt <= 0xD7:
                    self.rst_offsets.append(len(clean))
                    i += 2
                    continue
                break  # EOI / next header marker: end of entropy data
            clean.append(b)
            i += 1
        clean += b"\xff" * 8  # 1-pad past end per spec
        self.data = bytes(clean)
        self.pos = 0
        self.acc = 0
        self.nbits = 0

    def _fill(self) -> None:
        if self.nbits <= 24:
            self.acc = ((self.acc & ((1 << self.nbits) - 1)) << 32) | int.from_bytes(
                self.data[self.pos : self.pos + 4].ljust(4, b"\xff"), "big"
            )
            self.pos += 4
            self.nbits += 32

    def resync_restart(self) -> None:
        """Jump to the next recorded restart boundary at or past the
        consumed position (restart markers are byte-aligned per spec;
        the sub-byte pad bits before the marker count as consumed)."""
        consumed = (self.pos * 8 - self.nbits + 7) // 8
        for off in self.rst_offsets:
            if off >= consumed:
                self.pos = off
                self.acc = 0
                self.nbits = 0
                return
        self.pos = len(self.data)
        self.acc = 0
        self.nbits = 0

    def read(self, n: int) -> int:
        if n == 0:
            return 0
        self._fill()
        self.nbits -= n
        v = (self.acc >> self.nbits) & ((1 << n) - 1)
        return v

    def read_huff(self, table: tuple[np.ndarray, np.ndarray]) -> int:
        # single 16-bit-lookahead LUT step instead of bit-by-bit walking:
        # peek the next 16 bits, one array index gives (symbol, length)
        self._fill()
        peek = (self.acc >> (self.nbits - 16)) & 0xFFFF
        lut_sym, lut_len = table
        ln = lut_len[peek]
        if ln == 0:
            raise ValueError("invalid JPEG Huffman code")
        self.nbits -= int(ln)
        return int(lut_sym[peek])


def _extend(v: int, s: int) -> int:
    return v if v >= (1 << (s - 1)) else v - (1 << s) + 1


def decode_jpeg(payload: bytes) -> np.ndarray:
    """Baseline JFIF bytes -> (h, w, ch) uint8 (gray decodes to ch=1).

    Generic over the stream's own DQT/DHT segments; supports sequential
    baseline (SOF0), 8-bit, 1 or 3 components with 1x1 sampling (4:4:4),
    optional restart intervals. Rejects progressive/subsampled streams."""
    if not payload.startswith(b"\xff\xd8"):
        raise ValueError("not a JPEG payload")
    pos = 2
    qtables: dict[int, np.ndarray] = {}
    htables: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    comps: list[tuple[int, int, int]] = []  # (comp_id, qid, (dc_tid, ac_tid) later)
    sos_tids: list[tuple[int, int]] = []
    h = w = 0
    restart = 0
    scan_start = None
    while pos + 4 <= len(payload):
        if payload[pos] != 0xFF:
            raise ValueError(f"bad marker alignment at {pos}")
        # T.81 B.1.1.2: any number of 0xFF fill bytes may precede a marker.
        # (The loop guard keeps pos+2 <= len on exit, so payload[pos+1] is
        # always readable here; only the length-word guard below can fire.)
        while payload[pos + 1] == 0xFF and pos + 4 <= len(payload):
            pos += 1
        marker = payload[pos + 1]
        if marker == 0xD9:
            break
        # Standalone (length-less) markers legal between segments: TEM and
        # stray RSTn (T.81 B.1.1.3) — skip the 2 marker bytes, no length word
        if marker == 0x01 or 0xD0 <= marker <= 0xD7:
            pos += 2
            continue
        if pos + 4 > len(payload):  # fill-byte skip consumed the length word
            raise ValueError("truncated JPEG segment header")
        (ln,) = struct.unpack(">H", payload[pos + 2 : pos + 4])
        data = payload[pos + 4 : pos + 2 + ln]
        if marker == 0xDB:
            d = data
            while d:
                prec, qid = d[0] >> 4, d[0] & 0x0F
                n = 64 * (2 if prec else 1)
                if len(d) < 1 + n:
                    raise ValueError("truncated JPEG DQT segment")
                raw = (
                    np.frombuffer(d[1 : 1 + n], dtype=">u2").astype(np.int64)
                    if prec else np.frombuffer(d[1 : 1 + n], dtype=np.uint8).astype(np.int64)
                )
                qt = np.zeros(64, dtype=np.int64)
                qt[_ZIGZAG] = raw
                qtables[qid] = qt.reshape(8, 8)
                d = d[1 + n :]
        elif marker == 0xC4:
            d = data
            while d:
                if len(d) < 17:
                    raise ValueError("truncated JPEG DHT segment")
                cls, tid = d[0] >> 4, d[0] & 0x0F
                bits = list(d[1:17])
                vals = list(d[17 : 17 + sum(bits)])
                if len(bits) < 16 or len(vals) < sum(bits):
                    raise ValueError("truncated JPEG DHT segment")
                # 16-bit-lookahead LUT: every 16-bit word whose prefix is a
                # code maps to (symbol, code length); length 0 = invalid
                lut_sym = np.zeros(1 << 16, dtype=np.int16)
                lut_len = np.zeros(1 << 16, dtype=np.int8)
                code, vi = 0, 0
                for length in range(1, 17):
                    for _ in range(bits[length - 1]):
                        if code >= (1 << length):
                            # overflowing the prefix space would make the
                            # numpy slice assignments below silent no-ops
                            # and the table garbage — reject instead
                            raise ValueError("invalid JPEG DHT: code counts overflow")
                        start = code << (16 - length)
                        span = 1 << (16 - length)
                        lut_sym[start : start + span] = vals[vi]
                        lut_len[start : start + span] = length
                        code += 1
                        vi += 1
                    code <<= 1
                htables[(cls, tid)] = (lut_sym, lut_len)
                d = d[17 + sum(bits) :]
        elif marker == 0xC0 or marker == 0xC1:
            if len(data) < 6 or len(data) < 6 + 3 * data[5]:
                raise ValueError("truncated JPEG SOF segment")
            if data[0] != 8:
                raise ValueError(f"unsupported JPEG precision {data[0]}")
            h, w = struct.unpack(">HH", data[1:5])
            ncomp = data[5]
            comps = []
            for ci in range(ncomp):
                cid, samp, qid = data[6 + 3 * ci : 9 + 3 * ci]
                if samp != 0x11:
                    raise ValueError("only 1x1 sampling (4:4:4 / grayscale) supported")
                comps.append((cid, qid, 0))
        elif marker in (0xC2, 0xC3) or 0xC5 <= marker <= 0xCF and marker not in (0xC8, 0xCC):
            raise ValueError(f"unsupported JPEG SOF marker 0x{marker:02x} (baseline only)")
        elif marker == 0xDD:
            if len(data) < 2:
                raise ValueError("truncated JPEG DRI segment")
            (restart,) = struct.unpack(">H", data[:2])
        elif marker == 0xDA:
            if len(data) < 1 or len(data) < 1 + 2 * data[0]:
                raise ValueError("truncated JPEG SOS segment")
            ns = data[0]
            sos_tids = []
            for ci in range(ns):
                _cid, tids = data[1 + 2 * ci], data[2 + 2 * ci]
                sos_tids.append((tids >> 4, tids & 0x0F))
            scan_start = pos + 2 + ln
            break
        pos += 2 + ln
    if scan_start is None or not comps:
        raise ValueError("truncated JPEG: missing SOF/SOS")
    if len(sos_tids) != len(comps):
        raise ValueError("JPEG SOS component count does not match SOF")
    for ci, (_cid, qid, _) in enumerate(comps):
        if qid not in qtables:
            raise ValueError(f"JPEG references undeclared quant table {qid}")
        if (0, sos_tids[ci][0]) not in htables or (1, sos_tids[ci][1]) not in htables:
            raise ValueError("JPEG references undeclared Huffman table")

    nby, nbx = -(-h // 8), -(-w // 8)
    n_mcu = nby * nbx
    planes = [np.zeros((n_mcu, 8, 8), dtype=np.float64) for _ in comps]
    br = _BitReader(payload[scan_start:])
    preds = [0] * len(comps)
    for m in range(n_mcu):
        if restart and m and m % restart == 0:
            br.resync_restart()
            preds = [0] * len(comps)
        for ci, (_cid, qid, _) in enumerate(comps):
            dct, act = htables[(0, sos_tids[ci][0])], htables[(1, sos_tids[ci][1])]
            zz = np.zeros(64, dtype=np.int64)
            s = br.read_huff(dct)
            diff = _extend(br.read(s), s) if s else 0
            preds[ci] += diff
            zz[0] = preds[ci]
            k = 1
            while k < 64:
                rs = br.read_huff(act)
                r, s = rs >> 4, rs & 0x0F
                if s == 0:
                    if r == 15:
                        k += 16  # ZRL
                        continue
                    break  # EOB
                k += r
                if k > 63:
                    raise ValueError("JPEG AC run past block end")
                zz[k] = _extend(br.read(s), s)
                k += 1
            blk = np.zeros(64, dtype=np.float64)
            blk[_ZIGZAG] = zz * qtables[qid].reshape(64)[_ZIGZAG]
            planes[ci][m] = blk.reshape(8, 8)

    out_chans = []
    for plane in planes:
        # vectorized IDCT over every block at once
        rec = np.einsum("ji,bjk,kl->bil", _DCT_M, plane, _DCT_M) + 128.0
        full = rec.reshape(nby, nbx, 8, 8).transpose(0, 2, 1, 3).reshape(nby * 8, nbx * 8)
        out_chans.append(full[:h, :w])
    if len(out_chans) == 1:
        return np.clip(np.round(out_chans[0]), 0, 255).astype(np.uint8)[:, :, None]
    return _ycbcr_to_rgb(np.stack(out_chans, axis=2))


def decode_image(payload: bytes) -> np.ndarray:
    """Sniff-and-decode: P6 PPM, PNG, or baseline JPEG -> (h, w, 3)
    uint8 RGB.

    The production image stages (thumbnail, dHash, OCR raster) call this
    so a corpus can mix container formats per payload; gray broadcasts
    to RGB and RGBA drops alpha so downstream kernels see one layout."""
    if payload.startswith(b"P6"):
        return decode_ppm(payload)
    if payload.startswith(b"\xff\xd8"):
        arr = decode_jpeg(payload)
        if arr.shape[2] == 1:
            return np.ascontiguousarray(np.repeat(arr, 3, axis=2))
        return arr
    if payload.startswith(_PNG_MAGIC):
        arr = decode_png(payload)
        if arr.shape[2] == 1:
            return np.ascontiguousarray(np.repeat(arr, 3, axis=2))
        if arr.shape[2] == 4:
            return np.ascontiguousarray(arr[:, :, :3])
        return arr
    raise ValueError("unrecognized image payload (expected P6 PPM, PNG, or JPEG)")


# ---------------------------------------------------------------------------
# 16-bit PCM WAV via the stdlib ``wave`` module


def encode_wav(pcm: np.ndarray, rate: int) -> bytes:
    """Mono int16 PCM -> WAV bytes."""
    if pcm.dtype != np.int16:
        raise ValueError(f"expected int16 PCM, got {pcm.dtype}")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(rate)
        f.writeframes(pcm.tobytes())
    return buf.getvalue()


def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """WAV bytes -> (mono int16 PCM, sample rate)."""
    with wave.open(io.BytesIO(payload), "rb") as f:
        if f.getsampwidth() != 2 or f.getnchannels() != 1:
            raise ValueError("only mono 16-bit PCM WAV is supported")
        rate = f.getframerate()
        pcm = np.frombuffer(f.readframes(f.getnframes()), dtype=np.int16)
    return pcm, rate


def sample_pcm(pcm: np.ndarray, rate: int, every_ms: int, max_frames: int):
    """Fixed-stride PCM segments: up to ``max_frames`` windows of
    ``every_ms`` starting every ``every_ms`` — [(ts_ms, segment), ...]."""
    step = max(1, rate * every_ms // 1000)
    n = min(max_frames, max(1, len(pcm) // step))
    return [(i * every_ms, pcm[i * step : (i + 1) * step]) for i in range(n)]


# ---------------------------------------------------------------------------
# MPEG audio (MP3) frame layer — stdlib/numpy only
#
# ``mp3_frames`` is a GENERIC MPEG-1/2/2.5 Layer III frame walk: sync
# scan, header field decode (version/bitrate/sample-rate/padding/CRC/
# channel-mode tables straight from the ISO 11172-3 / 13818-3 header
# layout), per-frame length arithmetic, side-info main_data_begin parse,
# and free-format (bitrate index 0) length discovery by constant-header
# stride validation. It works on any conformant Layer III stream and is
# what the duration path needs — no spectral synthesis.
#
# Full Layer III AUDIO synthesis (Huffman spectra, requantization, IMDCT,
# polyphase filterbank) remains the documented external-codec injection
# seam. To still exercise mixed-container audio pipelines end-to-end,
# ``encode_mp3_pcm`` writes a structurally valid free-format Layer III
# stream whose first frame is a real Xing/Info-style metadata frame and
# whose main_data carries big-endian int16 PCM — decodable losslessly by
# ``decode_mp3`` (which REFUSES real Huffman-coded streams loudly). The
# container walk is real; only the payload transform is the seam.

_MP3_BITRATES_V1_L3 = [0, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320]
_MP3_BITRATES_V2_L3 = [0, 8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 144, 160]
_MP3_RATES = {3: [44100, 48000, 32000], 2: [22050, 24000, 16000], 0: [11025, 12000, 8000]}
_MP3_VERSION_NAME = {3: "1", 2: "2", 0: "2.5"}
_PCM_MAGIC = b"PCML"


def _mp3_header_fields(hdr: int) -> dict:
    """Decode one 32-bit MPEG audio header (already sync-checked)."""
    version = (hdr >> 19) & 0x3  # 3=MPEG1, 2=MPEG2, 0=MPEG2.5, 1=reserved
    layer = (hdr >> 17) & 0x3  # 1=Layer III
    if version == 1 or layer != 1:
        raise ValueError("unsupported MPEG header: reserved version or not Layer III")
    sr_idx = (hdr >> 10) & 0x3
    if sr_idx == 3:
        raise ValueError("reserved MPEG sample-rate index")
    br_idx = (hdr >> 12) & 0xF
    if br_idx == 15:
        raise ValueError("invalid MPEG bitrate index 15")
    sample_rate = _MP3_RATES[version][sr_idx]
    table = _MP3_BITRATES_V1_L3 if version == 3 else _MP3_BITRATES_V2_L3
    bitrate_kbps = table[br_idx]
    mono = ((hdr >> 6) & 0x3) == 3
    v1 = version == 3
    return {
        "version": _MP3_VERSION_NAME[version],
        "sample_rate": sample_rate,
        "bitrate_kbps": bitrate_kbps,  # 0 = free format
        "padding": (hdr >> 9) & 0x1,
        "has_crc": ((hdr >> 16) & 0x1) == 0,
        "mono": mono,
        "samples": 1152 if v1 else 576,
        "side_info_len": (17 if mono else 32) if v1 else (9 if mono else 17),
        "frame_len": (
            ((144 if v1 else 72) * bitrate_kbps * 1000) // sample_rate + ((hdr >> 9) & 0x1)
            if bitrate_kbps
            else 0  # free format: caller discovers the length
        ),
    }


def _mp3_sync_ok(payload: bytes, pos: int) -> bool:
    return (
        pos + 4 <= len(payload)
        and payload[pos] == 0xFF
        and (payload[pos + 1] & 0xE0) == 0xE0
    )


def _mask_pad(b: bytes) -> bytes:
    """The 4 header bytes with the padding bit (bit 9 = byte 2 bit 1)
    cleared — free-format frames share every header field EXCEPT padding
    (ISO 11172-3 permits per-frame padding even at bitrate index 0)."""
    return bytes((b[0], b[1], b[2] & 0xFD, b[3]))


def _free_format_base(payload: bytes, start: int) -> int:
    """Free-format BASE frame length (without the padding byte): lock on
    the next padding-masked occurrence of the first frame's header, then
    validate by walking the WHOLE stream with per-frame lengths
    ``base + padding_bit`` — the lock-then-stride strategy real decoders
    use, generalized so alternating-padding streams (how 44.1 kHz keeps
    exact rate) frame correctly instead of silently striding two frames.
    False syncs inside main_data fail the full-stream walk."""
    hdr0 = payload[start : start + 4]
    f0 = _mp3_header_fields(int.from_bytes(hdr0, "big"))
    floor = 4 + f0["side_info_len"] + (2 if f0["has_crc"] else 0)
    target = _mask_pad(hdr0)
    variant_a = target  # padding = 0
    variant_b = bytes((target[0], target[1], target[2] | 0x02, target[3]))

    def walk_ok(base: int) -> bool:
        pos = start
        while pos < len(payload):
            h = payload[pos : pos + 4]
            if len(h) < 4:
                # framing is right but the stream is cut mid-frame: accept
                # the base — mp3_frames' own walk then raises 'truncated
                # MPEG frame' loudly instead of re-framing around the cut
                return True
            if _mask_pad(h) != target:
                return False
            pos += base + ((h[2] >> 1) & 1)
        return True  # pos == len: complete; pos > len: truncated final frame

    pad0 = f0["padding"]
    p = start + floor
    while True:
        cands = [i for i in (payload.find(variant_a, p), payload.find(variant_b, p))
                 if i >= 0]
        if not cands:
            # single-frame stream: the frame runs to end of payload
            return len(payload) - start - pad0
        nxt = min(cands)
        base = nxt - start - pad0
        if base >= floor and walk_ok(base):
            return base
        p = nxt + 1


def mp3_frames(payload: bytes) -> list[dict]:
    """Generic MPEG Layer III frame walk -> per-frame dicts
    ``{offset, size, version, sample_rate, bitrate_kbps, samples,
    padding, has_crc, mono, side_info_len, main_data_begin}``. Supports MPEG-1/2/2.5,
    all table bitrates, padding, optional CRC, and free format. Raises
    ``ValueError`` on broken sync, reserved fields, or truncation."""
    if not _mp3_sync_ok(payload, 0):
        raise ValueError("not an MPEG audio stream (no frame sync)")
    frames: list[dict] = []
    pos = 0
    free_base = None
    while pos < len(payload):
        if not _mp3_sync_ok(payload, pos):
            raise ValueError(f"lost MPEG frame sync at {pos}")
        f = _mp3_header_fields(int.from_bytes(payload[pos : pos + 4], "big"))
        if f["bitrate_kbps"] == 0:
            if free_base is None:
                free_base = _free_format_base(payload, pos)
            f["frame_len"] = free_base + f["padding"]
        if f["frame_len"] < 4 + f["side_info_len"] + (2 if f["has_crc"] else 0):
            raise ValueError("MPEG frame shorter than its own header + side info")
        if pos + f["frame_len"] > len(payload):
            raise ValueError("truncated MPEG frame")
        si = pos + 4 + (2 if f["has_crc"] else 0)
        if si + f["side_info_len"] > len(payload):
            raise ValueError("truncated MPEG side info")
        # main_data_begin: first 9 bits (MPEG-1) / 8 bits (MPEG-2/2.5)
        b0, b1 = payload[si], payload[si + 1]
        mdb = (b0 << 1) | (b1 >> 7) if f["version"] == "1" else b0
        frames.append(
            {
                "offset": pos,
                "size": f["frame_len"],
                "version": f["version"],
                "sample_rate": f["sample_rate"],
                "bitrate_kbps": f["bitrate_kbps"],
                "samples": f["samples"],
                "padding": f["padding"],
                "has_crc": f["has_crc"],
                "mono": f["mono"],
                "side_info_len": f["side_info_len"],
                "main_data_begin": mdb,
            }
        )
        pos += f["frame_len"]
    return frames


def mp3_duration_ms(payload: bytes) -> int:
    """Exact stream duration from the frame walk (audio frames only; a
    leading Xing/Info metadata frame is excluded, as players do)."""
    frames = mp3_frames(payload)
    if frames and _is_info_frame(payload, frames[0]):
        frames = frames[1:]
    total = sum(f["samples"] for f in frames)
    rate = frames[0]["sample_rate"] if frames else 1
    return total * 1000 // rate


def _main_data_offset(frame: dict) -> int:
    """Start of the frame's main_data: past the header, the optional CRC
    and the side info (9/17/32 bytes by version and channel mode)."""
    return frame["offset"] + 4 + (2 if frame["has_crc"] else 0) + frame["side_info_len"]


def _is_info_frame(payload: bytes, frame: dict) -> bool:
    # Xing/Info magic sits right after the side info in metadata frames.
    # Probe ONLY the frame's own side-info offset — probing all three
    # would let audio main_data that happens to contain 'Xing' at a wrong
    # offset silently misclassify a real first frame as metadata.
    base = _main_data_offset(frame)
    return payload[base : base + 4] in (b"Xing", b"Info")


def encode_mp3_pcm(pcm: np.ndarray, rate: int) -> bytes:
    """Mono int16 PCM -> structurally valid FREE-FORMAT MPEG Layer III
    stream embedding the samples (see the module note above: container
    real, payload transform = the injection seam). Frame 0 is a
    Xing/Info-shaped metadata frame carrying frame/byte counts plus a
    ``PCML`` extension with the exact sample count; audio frames carry
    576 samples (MPEG-2/2.5) or 1152 (MPEG-1) of big-endian int16 as
    main_data, last frame zero-padded."""
    if pcm.dtype != np.int16:
        raise ValueError(f"expected int16 PCM, got {pcm.dtype}")
    rate_to_hdr = {
        8000: (0, 2), 11025: (0, 0), 12000: (0, 1),
        16000: (2, 2), 22050: (2, 0), 24000: (2, 1),
        32000: (3, 2), 44100: (3, 0), 48000: (3, 1),
    }
    if rate not in rate_to_hdr:
        raise ValueError(f"no MPEG version supports sample rate {rate}")
    version, sr_idx = rate_to_hdr[rate]
    spf = 1152 if version == 3 else 576
    side_len = 17 if version == 3 else 9
    hdr = (
        (0x7FF << 21) | (version << 19) | (0x1 << 17)  # sync, version, Layer III
        | (0x1 << 16)  # protection bit 1 = no CRC
        | (0x0 << 12) | (sr_idx << 10)  # free format, sample rate
        | (0x3 << 6)  # mono
    ).to_bytes(4, "big")
    body = pcm.astype(">i2").tobytes()
    frame_data = spf * 2  # bytes of main_data per audio frame
    n_frames = max(1, -(-len(body) // frame_data))
    frame_len = 4 + side_len + frame_data
    total_bytes = frame_len * (n_frames + 1)
    info_md = (
        b"Xing"
        + (0x3).to_bytes(4, "big")  # flags: frames | bytes
        + n_frames.to_bytes(4, "big")
        + total_bytes.to_bytes(4, "big")
        + _PCM_MAGIC
        + len(pcm).to_bytes(4, "big")
    )
    out = [hdr, b"\x00" * side_len, info_md.ljust(frame_data, b"\x00")]
    for i in range(n_frames):
        chunk = body[i * frame_data : (i + 1) * frame_data]
        out += [hdr, b"\x00" * side_len, chunk.ljust(frame_data, b"\x00")]
    return b"".join(out)


def decode_mp3(payload: bytes) -> tuple[np.ndarray, int]:
    """PCM-embedding free-format stream (``encode_mp3_pcm``) -> (mono
    int16 PCM, rate). A real Huffman-coded Layer III stream raises
    ``NotImplementedError`` naming the injection seam — never a silent
    wrong decode."""
    frames = mp3_frames(payload)
    if not frames or not _is_info_frame(payload, frames[0]):
        raise NotImplementedError(
            "full MPEG Layer III synthesis is not implemented in this "
            "container; inject an external codec (DecodeStub codec_factory) "
            "for real Huffman-coded streams"
        )
    f0 = frames[0]
    md = payload[_main_data_offset(f0) : f0["offset"] + f0["size"]]
    p = md.find(_PCM_MAGIC)
    if p < 0:
        raise NotImplementedError(
            "MPEG info frame lacks the PCML embedding marker; this is a real "
            "Layer III stream — inject an external codec to decode it"
        )
    n_samples = int.from_bytes(md[p + 4 : p + 8], "big")
    chunks = []
    for f in frames[1:]:
        chunks.append(payload[_main_data_offset(f) : f["offset"] + f["size"]])
    pcm = np.frombuffer(b"".join(chunks), dtype=">i2")[:n_samples].astype(np.int16)
    if len(pcm) != n_samples:
        raise ValueError("truncated PCM-embedding MPEG stream")
    return pcm, frames[0]["sample_rate"]


def decode_audio(payload: bytes) -> tuple[np.ndarray, int]:
    """Sniff-and-decode audio: RIFF/WAV or MPEG Layer III -> (mono int16
    PCM, rate) — the audio mirror of ``decode_image``."""
    if payload[:4] == b"RIFF":
        return decode_wav(payload)
    if _mp3_sync_ok(payload, 0):
        return decode_mp3(payload)
    raise ValueError("unrecognized audio container (not WAV or MPEG)")


# ---------------------------------------------------------------------------
# deterministic synthetic corpus (the driver tables carry no media; real
# pipelines read_parquet a table with a genuine ``payload: binary`` column)

_WAV_RATE = 8000


def synth_image(doc_id: int) -> np.ndarray:
    """Seeded (h, w, 3) uint8 image; dims vary with doc_id."""
    rng = np.random.RandomState(doc_id & 0x7FFFFFFF)
    h, w = 24 + doc_id % 41, 32 + (doc_id * 7) % 53
    return rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)


def synth_audio(doc_id: int) -> tuple[np.ndarray, int]:
    """Seeded mono int16 PCM, 100-900 ms at 8 kHz."""
    rng = np.random.RandomState(doc_id & 0x7FFFFFFF)
    dur_ms = 100 + (doc_id * 37) % 800
    n = _WAV_RATE * dur_ms // 1000
    return (rng.randint(-20000, 20000, size=n).astype(np.int16), _WAV_RATE)


class StdlibCodec:
    """Injectable REAL codec handle for ``DecodeStub`` (the same
    ``codec_factory`` contract a GPU/ffmpeg handle would satisfy):
    decodes P6/PNG images (sniffed) to true dimensions + pixel stats,
    WAV audio to true duration + RMS. Construction is per actor, decode
    per payload."""

    def decode(self, payload: bytes, kind: str) -> dict:
        if kind == "image":
            arr = decode_image(payload)
            return {
                "width": int(arr.shape[1]),
                "height": int(arr.shape[0]),
                "duration_ms": 0,
                "px_mean": int(arr.mean()),
            }
        pcm, rate = decode_audio(payload)
        return {
            "width": 0,
            "height": 0,
            "duration_ms": int(len(pcm) * 1000 // rate),
            "px_mean": int(np.sqrt(np.mean(pcm.astype(np.float64) ** 2))),
        }
