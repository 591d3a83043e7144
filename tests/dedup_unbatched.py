"""Verbatim copy of ``ops/dedup.py``'s ``minhash_signatures`` and
``simhash64_batch`` before the token-cache and bit-count rewrite, kept
only as the reference ``tests/test_dedup_kernels.py`` compares the
current kernels against. Not imported by the package."""

import numpy as np

from pdf_extractors_ray.ops.dedup import (  # noqa: F401 (helpers the copies call)
    _A, _B, _N_HASHES, _P61, _fold_p, _md5_64, _mulmod_p, word_shingles,
)

_BIT_IDX = np.arange(64, dtype=np.uint64)


def minhash_signatures(texts, n: int = 3, _cache: dict | None = None,
                       _flat_cap: int = 512) -> np.ndarray:
    """(len(texts), 64) signature matrix, permuted in bulk: shingle hashes
    of several docs form one flat array, the 64-permutation affine map runs
    once per UNIQUE shingle in the span (``np.unique`` — near-dup corpora
    repeat shingles heavily), and per-doc minima come from one gather +
    ``np.minimum.reduceat`` over doc boundaries. ``_flat_cap`` keeps the
    (cap × 64) uint64 working set L2-resident (~256 KB): larger spans were
    MEASURED slower (8 k shingles 3×, 256 k shingles 40× — the kernel's
    temporaries spill to DRAM, while per-doc matrices stay in cache). Docs
    are split between, never inside, spans — results are exact and
    identical to the one-doc path."""
    cache = _cache if _cache is not None else {}
    sigs = np.zeros((len(texts), _N_HASHES), dtype=np.uint64)
    flat: list[int] = []
    counts: list[int] = []
    span_start = 0

    def flush(span_end: int) -> None:
        nonlocal flat, counts, span_start
        if flat:
            arr = np.array(flat, dtype=np.uint64) & _P61
            base, inv = np.unique(arr, return_inverse=True)
            if len(base) <= (len(arr) >> 1):  # repeats pay for the gather
                hashed = _fold_p(_mulmod_p(_A[None, :], base[:, None]) + _B[None, :])[inv]
            else:
                hashed = _fold_p(_mulmod_p(_A[None, :], arr[:, None]) + _B[None, :])
            cnt = np.array(counts, dtype=np.int64)
            nz = np.flatnonzero(cnt > 0)
            offsets = np.concatenate(([0], np.cumsum(cnt[nz])[:-1]))
            sigs[span_start + nz] = np.minimum.reduceat(hashed, offsets, axis=0)
        flat, counts, span_start = [], [], span_end

    for i, text in enumerate(texts):
        shingles = word_shingles(text, n)
        counts.append(len(shingles))
        for s in shingles:
            flat.append(cache.setdefault(s, _md5_64(s)))
        if len(flat) >= _flat_cap:
            flush(i + 1)
    flush(len(texts))
    return sigs


def simhash64_batch(texts, _cache: dict | None = None) -> list[int]:
    """Vectorized 64-bit token SimHash per text: token hashes gathered
    through a cache (tokens repeat heavily), then ONE matrix bit-unpack +
    sign accumulation per document instead of a per-token Python loop."""
    cache = _cache if _cache is not None else {}
    out = []
    for text in texts:
        toks = text.split()
        if not toks:
            out.append(0)
            continue
        hs = np.fromiter(
            (cache.setdefault(t, _md5_64(t)) for t in toks),
            dtype=np.uint64, count=len(toks),
        )
        bits = ((hs[:, None] >> _BIT_IDX[None, :]) & np.uint64(1)).astype(np.int64)
        acc = (2 * bits - 1).sum(axis=0)
        out.append(int(((acc > 0).astype(np.uint64) << _BIT_IDX).sum()))
    return out

