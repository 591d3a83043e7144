"""Deduplication operators over the ``documents`` table.

- exact: content-hash partition + per-group min (shuffle only over hashes)
- MinHash + LSH: shingle → minhash signature → band buckets → candidate
  pairs → exact-Jaccard verification (ray_guide "Aggregation at scale")
- SimHash: 64-bit token simhash per document + banded near-dup pairs
- n-gram Jaccard: group-bounded all-pairs similarity inside map_groups

Everything is deterministic: hashes are md5-derived (never Python ``hash``),
minhash permutations come from fixed constants, pair emission is
canonically ordered.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd

_N_HASHES = 64
_BANDS = 16  # 16 bands x 4 rows
_ROWS = _N_HASHES // _BANDS
# Universal hash family (a*h + b) mod p, p = 2^61-1, computed EXACTLY.
# a naive uint64 (a*h+b) % p wraps mod 2^64 before the reduction (breaks
# the pairwise-independence analysis), while shrinking a to avoid the wrap
# makes h -> a*h+b piecewise-monotone with so few wraps that every
# "permutation" picks the same min-shingle (observed: 0.06 signature
# agreement at jaccard 0.75). _mulmod_p below does the 122-bit product
# with 32-bit limbs and Mersenne folding (2^61 === 1 mod p), so the family
# is both exact and well-mixed.
_RNG = np.random.RandomState(42)
_P61 = np.uint64((1 << 61) - 1)
_A = _RNG.randint(1, (1 << 61) - 1, size=_N_HASHES, dtype=np.int64).astype(np.uint64)
_B = _RNG.randint(0, (1 << 61) - 1, size=_N_HASHES, dtype=np.int64).astype(np.uint64)
_M32 = np.uint64((1 << 32) - 1)


def _fold_p(x: np.ndarray) -> np.ndarray:
    """x mod p for x < 2^64, via 2^61 === 1 folding (exact, no overflow)."""
    x = (x >> np.uint64(61)) + (x & _P61)
    x = (x >> np.uint64(61)) + (x & _P61)
    return np.where(x >= _P61, x - _P61, x)


def _mulmod_p(a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(a * h) mod p with a, h < 2^61, exact in uint64 via 32-bit limbs:
    a*h = a1*h1*2^64 + (a1*h0 + a0*h1)*2^32 + a0*h0, and 2^64 === 8,
    2^32 stays as a shifted limb — every intermediate fits in uint64."""
    a1, a0 = a >> np.uint64(32), a & _M32
    h1, h0 = h >> np.uint64(32), h & _M32
    t1 = _fold_p(np.uint64(8) * _fold_p(a1 * h1))
    m = _fold_p(a1 * h0 + a0 * h1)
    m1, m0 = m >> np.uint64(32), m & _M32
    t2 = _fold_p(np.uint64(8) * m1 + _fold_p(m0 << np.uint64(32)))
    t3 = _fold_p(a0 * h0)
    return _fold_p(t1 + t2 + t3)
# oversized-bucket policy: past this many distinct-text docs in one band
# bucket, emit star edges to the bucket minimum instead of all pairs
# (bounds one viral near-dup cluster to O(m) instead of O(m^2)). Star
# candidates still pass exact verification against the bucket minimum
# ONLY, so connectivity survives just for members directly similar to
# that minimum — members similar to each other but not to the minimum
# lose their edges (documented approximation; never reached below 32k
# distinct texts in one 1-in-16-band bucket).
_MAX_BUCKET = 1 << 15

# dup_clusters: edge sets at or under this materialized size are solved as
# connected components in a single vectorized task (numpy min-label +
# pointer jumping) instead of the multi-barrier distributed propagation —
# verified near-dup edges are sparse, so this is the common case even on
# large corpora; bigger edge sets take the distributed loop
_SMALL_EDGE_BYTES = 256 << 20


def connected_components_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """(src, dst) edge rows (bidirectional) -> (node, label) with label =
    the component's minimum node id. Vectorized min-label propagation with
    pointer jumping: each round takes the min over direct neighbors then
    follows label chains (``nxt[nxt]``), so convergence is O(log n) numpy
    rounds. At the fixpoint every edge has equal labels on both ends and
    labels are idempotent, which forces label == component min.
    Property-tested against union-find on random graphs."""
    if len(batch) == 0:
        return pd.DataFrame(
            {"node": pd.Series(dtype=np.int64), "label": pd.Series(dtype=np.int64)}
        )
    src = batch["src"].to_numpy(dtype=np.int64)
    dst = batch["dst"].to_numpy(dtype=np.int64)
    nodes, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    si, di = inv[: len(src)], inv[len(src) :]
    lab = np.arange(len(nodes))
    while True:
        nxt = lab.copy()
        np.minimum.at(nxt, si, lab[di])
        nxt = nxt[nxt]  # pointer jumping halves component depth
        if np.array_equal(nxt, lab):
            break
        lab = nxt
    return pd.DataFrame({"node": nodes, "label": nodes[lab]})


def _docs(sf_dir: str, columns=None):
    from ..runtime import read_parquet_sized

    return read_parquet_sized(os.path.join(sf_dir, "documents.parquet"), columns=columns)


def _md5_64(s: str) -> int:
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little")


def word_shingles(text: str, n: int = 3) -> set[str]:
    toks = text.split()
    if len(toks) < n:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def minhash_signature(text: str, n: int = 3, _cache: dict | None = None) -> np.ndarray:
    """64 minhashes over word 3-gram shingles (exact universal-hash family
    mod 2^61-1 — see ``_mulmod_p``). ``_cache`` memoizes shingle→md5
    across calls (shingles repeat heavily in near-dup corpora)."""
    return minhash_signatures([text], n=n, _cache=_cache)[0]


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
            h = cache.get(s)
            if h is None:
                h = cache[s] = _md5_64(s)
            flat.append(h)
        if len(flat) >= _flat_cap:
            flush(i + 1)
    flush(len(texts))
    return sigs


# polynomial band-key mixer: 4 row minhashes -> one int64 bucket key,
# vectorized over (docs x bands) with the same exact Mersenne arithmetic
# (no per-band md5 calls). A key collision between unequal chunks only
# creates a false CANDIDATE, which exact-Jaccard verification removes.
_BAND_R = np.uint64(0x9E3779B97F4A7C15 & ((1 << 61) - 1))


def band_keys(sigs: np.ndarray) -> np.ndarray:
    """(n_docs, 64) signature matrix -> (n_docs, 16) int64 band keys."""
    chunks = sigs.reshape(sigs.shape[0], _BANDS, _ROWS)
    k = np.zeros((sigs.shape[0], _BANDS), dtype=np.uint64)
    for j in range(_ROWS):
        k = _fold_p(_mulmod_p(k, np.broadcast_to(_BAND_R, k.shape)) + chunks[:, :, j])
    return (k & np.uint64((1 << 62) - 1)).astype(np.int64)


def exact_dedup(sf_dir: str):
    """Exact dedup: md5(text) → min doc_id per hash (+ group size).

    Hash-bucketed combine (``ops.common.bucketed_group_agg``): every
    distinct text is its own group, so Ray's per-group hash-aggregate
    overhead would scale with corpus size; bucketing pays it per bucket."""
    from .common import bucketed_group_agg

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def hash_batch(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "h": [hashlib.md5(t.encode()).hexdigest() for t in batch["text"]],
                "keep_id": batch["doc_id"],
                "n": np.int64(1),
            }
        )

    hashed = ds.map_batches(hash_batch, batch_format="pandas")
    return bucketed_group_agg(hashed, ["h"], {"keep_id": "min", "n": "sum"}).sort("h")


EXACT_DEDUP_SQL = """
SELECT md5(text) AS h, MIN(doc_id) AS keep_id, COUNT(*) AS n
FROM documents
GROUP BY 1
ORDER BY 1
"""


# per-worker-process shingle-hash cache for the banding stage: elastic
# tasks reuse worker processes, so module state gives the same cross-batch
# reuse an actor pool would WITHOUT paying actor startup per query; capped
# so a long-lived worker cannot grow it unboundedly
_SHINGLE_CACHE: dict[str, int] = {}
_SHINGLE_CACHE_CAP = 1 << 22


def minhash_band_rows(batch: pd.DataFrame) -> pd.DataFrame:
    """Signature per doc → (band, band_key, doc_id) rows; band keys are one
    vectorized mix over the whole batch (see ``band_keys``)."""
    if len(_SHINGLE_CACHE) > _SHINGLE_CACHE_CAP:
        _SHINGLE_CACHE.clear()
    n = len(batch)
    sigs = minhash_signatures(list(batch["text"]), _cache=_SHINGLE_CACHE)
    keys = band_keys(sigs) if n else np.empty((0, _BANDS), dtype=np.int64)
    return pd.DataFrame(
        {
            "band": np.tile(np.arange(_BANDS, dtype=np.int64), n),
            "band_key": keys.reshape(-1),
            "doc_id": np.repeat(batch["doc_id"].to_numpy(np.int64), _BANDS),
        }
    )


def _pair_table(a, b, **extra):
    """int64 pair table with an EXPLICIT Arrow schema: empty pandas blocks
    lose their column schema on the way into the hash-shuffle join
    aggregator (ArrowInvalid: no match for FieldRef), so every stage that
    can emit zero rows builds Arrow directly."""
    import pyarrow as pa

    cols = {
        "a": pa.array(np.asarray(a, dtype=np.int64), pa.int64()),
        "b": pa.array(np.asarray(b, dtype=np.int64), pa.int64()),
    }
    for k, v in extra.items():
        cols[k] = pa.array(np.asarray(v, dtype=np.int64), pa.int64())
    return pa.table(cols)


def minhash_lsh_pairs(sf_dir: str, jaccard_threshold: float = 0.5,
                      max_bucket: int = _MAX_BUCKET, num_partitions: int | None = None,
                      ds=None):
    """Near-dup pairs via MinHash-LSH, verified by exact shingle Jaccard.

    100 TB shape (nothing corpus-sized ever reaches the driver), with the
    barrier count held to the minimum — one text-bearing shuffle, one band
    shuffle, two text joins, and (only when exact duplicates exist) the
    member-expansion joins:

    1. EXACT-COLLAPSE first: one groupby(md5(text)) elects a representative
       (min doc_id) per distinct text and records every doc's rep. The
       common web-crawl viral cluster - thousands of byte-identical docs -
       collapses to ONE LSH participant, which is what defuses the
       quadratic band bucket. The same reduce task ALSO emits the
       within-cluster pairs (identical text, jaccard exactly 1.0) — the
       whole hash group is local to it, so no later rep_id regroup.
    2. Band the representatives only (actor pool, cached shingle hashes,
       vectorized band keys); candidate rep pairs per (band, band_key)
       bucket, emitted vectorized (triu indices). Buckets larger than
       ``max_bucket`` emit star edges to the bucket min (O(m); see the
       ``_MAX_BUCKET`` note for what that approximates).
    3. Verify candidates by exact Jaccard with texts obtained via two
       cogroup joins back to the representative table - not a broadcast
       text dict (and not ``Dataset.join``, whose hash aggregator cannot
       handle the empty partitions a sparse candidate set produces).
       Cross-band duplicate candidates are deduped INSIDE the first join's
       shuffle (rows sharing ``a`` co-locate), not in a separate barrier.
    4. EXPAND verified rep pairs across exact-duplicate members with two
       cogroup joins. When the corpus has no exact duplicates (count from
       the collapse output, a cheap metadata check on the pinned
       intermediate), the expansion is the identity and is skipped.

    Output is identical to direct banding+verification over all docs
    (members share their representative's signature); tested by
    ``tests/test_dedup_similarity.py`` including a planted viral cluster.
    """
    import pyarrow as pa

    from .common import cogroup_join

    if ds is None:
        ds = _docs(sf_dir, columns=["doc_id", "text"])

    def hash_batch(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "h": [hashlib.md5(t.encode()).hexdigest() for t in batch["text"]],
                "doc_id": batch["doc_id"],
                "text": batch["text"],
                # empty-token docs have no shingles -> never near-dups
                "has_tok": [bool(t.split()) for t in batch["text"]],
            }
        )

    def collapse(group: pd.DataFrame) -> pa.Table:
        """One hash BUCKET (all rows of every text-hash assigned to it) ->
        per distinct text: kind=0 member rows (rep keeps its text) plus
        kind=1 within-cluster pair rows (explicit Arrow schema: empty
        pandas blocks lose schema entering the next shuffle).

        Grouped by hash BUCKET, not by text hash: ``map_groups`` costs a
        Python call + batch build per group, and distinct-text count is
        corpus-scale (500 groups at sf0.01 already cost ~1.5 s of pure
        per-group overhead; 10^9 at web scale would be fatal). Hash groups
        never split across buckets, so within-bucket boundary slicing is
        exact."""
        g = group.sort_values(["h", "doc_id"], kind="mergesort")
        hs = g["h"].to_numpy(object)
        ids = g["doc_id"].to_numpy(np.int64)
        txts = g["text"].to_numpy(object)
        htok = g["has_tok"].to_numpy(bool)
        change = np.flatnonzero(hs[1:] != hs[:-1]) + 1
        bounds = np.concatenate(([0], change, [len(ids)]))
        kind: list = []
        doc_id: list = []
        rep_id: list = []
        has_tok: list = []
        texts: list = []
        a: list = []
        b: list = []
        for i in range(len(bounds) - 1):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            seg = ids[lo:hi]
            rep = int(seg[0])
            n = hi - lo
            tok = bool(htok[lo])
            kind += [0] * n
            doc_id += seg.tolist()
            rep_id += [rep] * n
            has_tok += [tok] * n
            texts += [txts[lo]] + [None] * (n - 1)
            a += [None] * n
            b += [None] * n
            if n > 1 and tok:
                iu = np.triu_indices(n, 1)
                m = len(iu[0])
                kind += [1] * m
                doc_id += [rep] * m
                rep_id += [rep] * m
                has_tok += [tok] * m
                texts += [None] * m
                a += seg[iu[0]].tolist()
                b += seg[iu[1]].tolist()
        return pa.table(
            {
                "kind": pa.array(kind, pa.int64()),
                "doc_id": pa.array(doc_id, pa.int64()),
                "rep_id": pa.array(rep_id, pa.int64()),
                "has_tok": pa.array(has_tok, pa.bool_()),
                "text": pa.array(texts, pa.string()),
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
            }
        )

    from .common import _default_buckets

    nb = _default_buckets()

    def add_hash_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__hb"] = (
            pd.util.hash_array(batch["h"].to_numpy(object)) % nb
        ).astype(np.int64)
        return batch

    # ONE text-bearing shuffle; the rep-text, membership and within-pair
    # tables all derive from it with stateless filters. materialize() pins
    # the (reduced) result so consumers don't re-run the groupby.
    combined = (
        ds.map_batches(hash_batch, batch_format="pandas")
        .map_batches(add_hash_bucket, batch_format="pandas")
        .groupby("__hb")
        .map_groups(collapse, batch_format="pandas")
        .materialize()
    )
    import pyarrow.compute as pc

    def _rep_text_rows(t: pa.Table) -> pa.Table:
        return t.filter(pc.and_(pc.equal(t["kind"], 0), pc.is_valid(t["text"]))).select(
            ["doc_id", "text"]
        )

    def _dup_member_rows(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.and_(pc.equal(t["kind"], 0), pc.not_equal(t["doc_id"], t["rep_id"]))
        ).select(["doc_id", "rep_id"])

    rep_texts = combined.map_batches(_rep_text_rows, batch_format="pyarrow")
    n_dup_members = combined.map_batches(_dup_member_rows, batch_format="pyarrow").count()

    banded = rep_texts.map_batches(minhash_band_rows, batch_format="pandas")

    def add_band_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        # band_key is already a mixed 63-bit hash; fold the band in so the
        # 16 bands of one doc spread across buckets
        bk = batch["band_key"].to_numpy(np.int64).astype(np.uint64)
        bd = batch["band"].to_numpy(np.int64).astype(np.uint64)
        batch = batch.copy()
        batch["__bb"] = (
            ((bk * np.uint64(0x9E3779B97F4A7C15)) ^ bd) % np.uint64(nb)
        ).astype(np.int64)
        return batch

    def emit_pairs(group: pd.DataFrame):
        """All (band, band_key) LSH buckets assigned to one hash bucket ->
        candidate pairs, segmented by boundary slicing (grouped per BUCKET,
        not per LSH key: band-key groups are ~all-singleton and corpus x
        16-bands sized — per-group map_groups overhead alone measured
        ~1.5 s for 8000 groups at sf0.01)."""
        g = group.sort_values(["band", "band_key", "doc_id"], kind="mergesort")
        band = g["band"].to_numpy(np.int64)
        key = g["band_key"].to_numpy(np.int64)
        ids = g["doc_id"].to_numpy(np.int64)
        if len(ids) == 0:
            return _pair_table([], [])
        change = np.flatnonzero((np.diff(band) != 0) | (np.diff(key) != 0)) + 1
        bounds = np.concatenate(([0], change, [len(ids)]))
        outs_a, outs_b = [], []
        for i in range(len(bounds) - 1):
            seg = np.unique(ids[bounds[i] : bounds[i + 1]])
            m = len(seg)
            if m < 2:
                continue
            if m > max_bucket:
                outs_a.append(np.full(m - 1, seg[0]))
                outs_b.append(seg[1:])
            else:
                iu = np.triu_indices(m, 1)
                outs_a.append(seg[iu[0]])
                outs_b.append(seg[iu[1]])
        if not outs_a:
            return _pair_table([], [])
        return _pair_table(np.concatenate(outs_a), np.concatenate(outs_b))

    pairs = (
        banded.map_batches(add_band_bucket, batch_format="pandas")
        .groupby("__bb")
        .map_groups(emit_pairs, batch_format="pandas")
    )

    # candidate texts via cogroup joins; cross-band duplicate (a, b) rows
    # are dropped inside the first join's key groups (exact: same "a" ->
    # same group), so no separate dedup barrier
    ta = rep_texts.map_batches(
        lambda t: t.rename_columns(["doc_id", "text_a"]), batch_format="pyarrow"
    )
    tb = rep_texts.map_batches(
        lambda t: t.rename_columns(["doc_id", "text_b"]), batch_format="pyarrow"
    )
    cand = cogroup_join(pairs, ta, "a", "doc_id", ["a", "b"], ["text_a"], dedup_left=["a", "b"])
    cand = cogroup_join(cand, tb, "b", "doc_id", ["a", "b", "text_a"], ["text_b"])

    def verify(batch: pd.DataFrame):
        out = []
        for a, b, text_a, text_b in zip(batch["a"], batch["b"], batch["text_a"], batch["text_b"]):
            sa, sb = word_shingles(text_a), word_shingles(text_b)
            union = len(sa | sb)
            j = len(sa & sb) / union if union else 0.0
            if j >= jaccard_threshold:
                out.append((int(a), int(b), int(np.floor(j * 1e6 + 0.5))))
        arr = np.array(out, dtype=np.int64).reshape(-1, 3)
        return _pair_table(arr[:, 0], arr[:, 1], jaccard_ppm=arr[:, 2])

    verified_reps = cand.map_batches(verify, batch_format="pandas")

    if n_dup_members == 0:
        # no exact duplicates anywhere: every doc is its own representative,
        # expansion and within-cluster pairs are empty by construction
        return verified_reps.sort(["a", "b"])

    members = combined.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], 0)).select(["doc_id", "rep_id"]),
        batch_format="pyarrow",
    )

    # expansion: verified rep pair -> all member cross pairs
    ma = members.map_batches(lambda t: t.rename_columns(["x", "rep_id"]), batch_format="pyarrow")
    mb = members.map_batches(lambda t: t.rename_columns(["y", "rep_id"]), batch_format="pyarrow")
    cross = cogroup_join(verified_reps, ma, "a", "rep_id", ["b", "jaccard_ppm"], ["x"])
    cross = cogroup_join(cross, mb, "b", "rep_id", ["jaccard_ppm", "x"], ["y"])

    def canonize(batch: pd.DataFrame):
        x = batch["x"].to_numpy(dtype=np.int64)
        y = batch["y"].to_numpy(dtype=np.int64)
        return _pair_table(
            np.minimum(x, y), np.maximum(x, y),
            jaccard_ppm=batch["jaccard_ppm"].to_numpy(dtype=np.int64),
        )

    cross_pairs = cross.map_batches(canonize, batch_format="pandas")

    # within-cluster pairs were emitted by collapse (kind=1) — identical
    # text, jaccard exactly 1.  No pair-level dedup needed: cross pairs
    # (distinct reps) and within pairs (same rep) are disjoint, and each
    # unordered doc pair maps to exactly one rep pair.
    def _within_rows(t: pa.Table) -> pa.Table:
        w = t.filter(pc.equal(t["kind"], 1))
        return pa.table(
            {
                "a": w["a"].cast(pa.int64()),
                "b": w["b"].cast(pa.int64()),
                "jaccard_ppm": pa.array(
                    np.full(len(w), 1_000_000, dtype=np.int64), pa.int64()
                ),
            }
        )

    within_pairs = combined.map_batches(_within_rows, batch_format="pyarrow")

    return cross_pairs.union(within_pairs).sort(["a", "b"])


_SIMHASH_SPAN_TOKENS = 1 << 20  # tokens per bit-unpack span (64 MB of uint8 bits)


def simhash64_batch(texts, _cache: dict | None = None) -> list[int]:
    """Vectorized 64-bit token SimHash per text: each distinct token is
    md5-hashed once, on a cache miss; per span of documents ONE
    ``unpackbits`` gives every token hash's 64 bits, each document sums its
    rows, and ONE ``packbits`` builds the hashes. Bit ``j`` is set when more
    than half of the tokens have it (the sign of the ±1 sum); no tokens → 0.
    Row sums, not ``np.add.reduceat``: over 300k tokens the reduceat took
    0.23-0.26 s, the sums 0.03 s for 400 documents, 0.20 s for 30,000."""
    cache = _cache if _cache is not None else {}
    toks = [t.split() for t in texts]
    for tok in {t for ts in toks for t in ts}.difference(cache):
        cache[tok] = _md5_64(tok)
    out: list[int] = []
    lo = 0
    while lo < len(toks):
        hi, n = lo + 1, len(toks[lo])
        while hi < len(toks) and n + len(toks[hi]) <= _SIMHASH_SPAN_TOKENS:
            n += len(toks[hi])
            hi += 1
        span = toks[lo:hi]
        hs = np.fromiter((cache[t] for ts in span for t in ts), dtype="<u8", count=n)
        bits = np.unpackbits(hs.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        cuts = np.cumsum([0] + [len(ts) for ts in span])
        ones = np.array([bits[a:b].sum(axis=0) for a, b in zip(cuts[:-1], cuts[1:])], np.int64)
        packed = np.packbits(2 * ones > np.diff(cuts)[:, None], axis=1, bitorder="little")
        out += packed.view("<u8")[:, 0].tolist()
        lo = hi
    return out


def simhash64(text: str) -> int:
    """64-bit token SimHash (md5-derived token hashes, sign accumulation)."""
    return simhash64_batch([text])[0]


def simhash_rows(batch: pd.DataFrame, cache: dict) -> pd.DataFrame:
    hs = simhash64_batch(list(batch["text"]), cache)
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "simhash": [f"{h:016x}" for h in hs],
            "band0": [(h >> 0) & 0xFFFF for h in hs],
            "band1": [(h >> 16) & 0xFFFF for h in hs],
            "band2": [(h >> 32) & 0xFFFF for h in hs],
            "band3": [(h >> 48) & 0xFFFF for h in hs],
        }
    )


_TOKEN_CACHE: dict[str, int] = {}


def _simhash_rows(batch: pd.DataFrame) -> pd.DataFrame:
    if len(_TOKEN_CACHE) > _SHINGLE_CACHE_CAP:
        _TOKEN_CACHE.clear()
    return simhash_rows(batch, _TOKEN_CACHE)


def simhash_docs(sf_dir: str, ds=None):
    """Per-document 64-bit simhash (hex) + its 4 16-bit band keys.
    Elastic tasks with a per-worker-process token-hash cache (same
    cross-batch reuse as an actor pool, no pool startup per query)."""
    if ds is None:
        ds = _docs(sf_dir, columns=["doc_id", "text"])
    return ds.map_batches(_simhash_rows, batch_format="pandas").sort("doc_id")


def _hamming_pairs_chunked(ids: np.ndarray, hashes: np.ndarray, max_hamming: int,
                           chunk: int = 2048) -> pd.DataFrame:
    """All pairs with Hamming ≤ max_hamming, computed block-pairwise so
    peak memory is O(chunk^2) regardless of bucket size: XOR matrix per
    block pair, popcount via uint8 unpackbits."""
    out_a, out_b, out_d = [], [], []
    n = len(ids)
    for i0 in range(0, n, chunk):
        hi_i = min(i0 + chunk, n)
        for j0 in range(i0, n, chunk):
            hi_j = min(j0 + chunk, n)
            xor = np.bitwise_xor.outer(hashes[i0:hi_i], hashes[j0:hi_j])
            d = np.unpackbits(
                xor.view(np.uint8).reshape(hi_i - i0, hi_j - j0, 8), axis=2
            ).sum(axis=2, dtype=np.int64)
            ii, jj = np.nonzero(d <= max_hamming)
            gi, gj = ii + i0, jj + j0
            keep = gi < gj  # strict upper triangle in global index space
            out_a.append(ids[gi[keep]])
            out_b.append(ids[gj[keep]])
            out_d.append(d[ii[keep], jj[keep]])
    a = np.concatenate(out_a) if out_a else np.array([], dtype=np.int64)
    b = np.concatenate(out_b) if out_b else np.array([], dtype=np.int64)
    dd = np.concatenate(out_d) if out_d else np.array([], dtype=np.int64)
    return pd.DataFrame({"a": a.astype(np.int64), "b": b.astype(np.int64), "hamming": dd.astype(np.int64)})


def simhash_pairs(sf_dir: str, max_hamming: int = 3, max_bucket: int = _MAX_BUCKET,
                  ds=None):
    """SimHash near-dup pairs: 4x16-bit band buckets → candidate pairs →
    exact Hamming verification (near-dups must share ≥1 band when
    distance ≤ 3 by pigeonhole over 4 bands). Verification is vectorized
    (chunked XOR + popcount); buckets beyond ``max_bucket`` verify each
    member only against the bucket minimum (star cap, same policy as
    MinHash-LSH — O(m) instead of O(m^2) for one viral cluster)."""
    return banded_hash_pairs(simhash_docs(sf_dir, ds=ds), max_hamming, max_bucket)


def banded_hash_pairs(ds, max_hamming: int = 3, max_bucket: int = _MAX_BUCKET):
    """Banded 64-bit-signature near-dup pairs — the LSH tail shared by
    text SimHash and image dHash (``ops/multimodal.media_image_neardup``):
    input rows carry (doc_id, simhash hex, band0..band3 int16 keys);
    output (a, b, hamming ≤ max_hamming). One band-bucketed exchange,
    vectorized boundary-slice segmentation, chunked XOR+popcount
    verification, star cap on oversized buckets, bucketed pair dedup."""

    def band_rows(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for b in range(4):
            frames.append(pd.DataFrame({
                "band": np.int64(b),
                "band_val": batch[f"band{b}"].astype(np.int64),
                "doc_id": batch["doc_id"],
                "simhash": batch["simhash"],
            }))
        return pd.concat(frames, ignore_index=True)

    banded = ds.map_batches(band_rows, batch_format="pandas")

    from .common import _default_buckets

    nb = _default_buckets()

    def add_band_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        bv = batch["band_val"].to_numpy(np.int64).astype(np.uint64)
        bd = batch["band"].to_numpy(np.int64).astype(np.uint64)
        batch = batch.copy()
        batch["__bb"] = (
            (((bv + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)) ^ bd) % np.uint64(nb)
        ).astype(np.int64)
        return batch

    def _one_bucket(ids: np.ndarray, hashes: np.ndarray) -> pd.DataFrame:
        if len(ids) > max_bucket:
            d = np.unpackbits(
                np.bitwise_xor(hashes[0], hashes[1:]).view(np.uint8).reshape(-1, 8), axis=1
            ).sum(axis=1, dtype=np.int64)
            keep = d <= max_hamming
            return pd.DataFrame(
                {"a": np.full(int(keep.sum()), ids[0]), "b": ids[1:][keep], "hamming": d[keep]}
            )
        return _hamming_pairs_chunked(ids, hashes, max_hamming)

    def emit_pairs(group: pd.DataFrame) -> pd.DataFrame:
        """All (band, band_val) LSH buckets hashed to one group — grouped
        by hash BUCKET, not per LSH key, and segmented by vectorized
        boundary slicing, not ``groupby``: band-val groups are
        ~all-singleton and corpus x 4-bands sized, and BOTH a map_groups
        call per group and a pandas groupby-iteration per group pay
        ~0.5 ms of frame construction each (measured: 20k band segments
        cost ~10 s at sf0.1 through the groupby loop; the numpy slicing
        path skips singleton segments with two integer compares)."""
        cols = ["a", "b", "hamming"]
        band = group["band"].to_numpy(np.int64)
        bval = group["band_val"].to_numpy(np.int64)
        ids = group["doc_id"].to_numpy(np.int64)
        hx = group["simhash"].to_numpy(object)
        if len(ids) == 0:
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
        order = np.lexsort((ids, bval, band))
        band, bval, ids, hx = band[order], bval[order], ids[order], hx[order]
        change = np.flatnonzero((np.diff(band) != 0) | (np.diff(bval) != 0)) + 1
        bounds = np.concatenate(([0], change, [len(ids)]))
        out = []
        for i in range(len(bounds) - 1):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            if hi - lo < 2:
                continue
            seg_ids = ids[lo:hi]
            u, first = np.unique(seg_ids, return_index=True)
            if len(u) < 2:
                continue
            hashes = np.array(
                [int(h, 16) for h in hx[lo:hi][first]], dtype=np.uint64
            )
            out.append(_one_bucket(u, hashes))
        if not out:
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
        return pd.concat(out, ignore_index=True)[cols]

    pairs = (
        banded.map_batches(add_band_bucket, batch_format="pandas")
        .groupby("__bb")
        .map_groups(emit_pairs, batch_format="pandas")
    )
    # a pair can surface from several bands → exact dedup on the pair key.
    # Bucketed (not groupby().aggregate()): pair keys are ~all distinct, and
    # Ray's hash aggregate pays per-GROUP overhead (measured 250+ s for
    # 500k groups) — the same pathology ops/common.bucketed_group_agg fixes
    # for exact dedup.
    import ray.data as rd

    from .common import bucketed_group_agg

    pairs = bucketed_group_agg(pairs, ["a", "b"], {"hamming": "min"}).sort(["a", "b"])
    # Ray Data runs no UDF on an empty block, so when no pair survives the
    # sorted blocks carry no schema; one typed empty block keeps
    # ``schema()`` at the twin's int64 (a, b, hamming) without another pass
    none = pd.DataFrame({c: pd.Series(dtype=np.int64) for c in ("a", "b", "hamming")})
    return pairs.union(rd.from_pandas(none))


# Exact-path hot-shingle guard: a (source, shingle) posting list longer
# than this is dropped from the intersection (in-bucket work is
# Σ posting_len² — one viral boilerplate shingle otherwise makes a single
# bucket task quadratic in corpus size). Never silent: each source that
# lost shingles emits an audit row (source, a=-1, b=-1,
# jaccard_ppm=n_dropped_shingles), and the SQL twin applies the identical
# cap, so a fired cap stays hash-checked rather than diverging.
NGRAM_DF_CAP = 512


def ngram_jaccard_groups(sf_dir: str, threshold: float = 0.3,
                         df_cap: int = NGRAM_DF_CAP):
    """Exact all-pairs n-gram Jaccard within each ``source`` group via a
    distributed shingle INVERTED INDEX (the NGRAM_JACCARD_SQL plan,
    distributed — r4: replaces a per-source Python set-intersection loop
    whose parallelism was capped at n_sources and whose work was
    group-quadratic in pure Python).

    Plan: per-doc DISTINCT shingles explode map-side with the doc's
    shingle count attached; one hash-bucketed exchange on the
    (source, shingle) key co-locates every posting list, so the pairwise
    intersection partials complete in-bucket as ONE vectorized pandas
    self-merge; a second narrow (source, a, b) exchange sums the
    partials; the Jaccard threshold applies with the same operation
    order as the reference (|A∩B| / (|A|+|B|−|A∩B|), then
    ``floor(j·1e6 + 0.5)``).

    Skew guard (r5): in-bucket work is Σ posting_len² over the bucket's
    shingles — exact all-pairs is inherently that, so a (source, shingle)
    posting list longer than ``df_cap`` is DROPPED from the intersection
    (the df-threshold analogue of what MinHash band hashing achieves
    probabilistically; a shingle shared by >cap docs carries no
    discriminating signal anyway). The drop is never silent: every
    source that lost shingles emits one audit row
    ``(source, a=-1, b=-1, jaccard_ppm=n_dropped_shingles)``, the SQL
    twin applies the identical cap + audit row, and denominators keep
    the FULL per-doc shingle counts, so capped Jaccard is a documented
    lower bound of true Jaccard on both engines. At gate/bench scale
    (max df 3-6) the default cap never fires and output is bit-identical
    to the uncapped plan; consumers wanting raw edges filter ``a >= 0``."""
    from .common import _default_buckets, bucketed_group_agg

    ds = _docs(sf_dir, columns=["doc_id", "source", "text"])

    def shingle_rows(batch: pd.DataFrame) -> pd.DataFrame:
        doc_ids: list[int] = []
        srcs: list = []
        shs: list[str] = []
        ns: list[int] = []
        for d, src, t in zip(batch["doc_id"], batch["source"], batch["text"]):
            sh = word_shingles(t)
            k = len(sh)
            doc_ids.extend([int(d)] * k)
            srcs.extend([src] * k)
            shs.extend(sh)
            ns.extend([k] * k)
        return pd.DataFrame(
            {
                "doc_id": np.asarray(doc_ids, np.int64),
                "source": np.asarray(srcs, dtype=object),
                "s": np.asarray(shs, dtype=object),
                "n": np.asarray(ns, np.int64),
            }
        )

    # bucket count scales with the cluster (floor 64 keeps per-group
    # pandas frames small even on tiny test clusters): each map_groups
    # call holds ~1/nb of the exploded shingle table in one heap
    nb = max(64, _default_buckets())

    def bucket(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__b"] = (
            pd.util.hash_pandas_object(batch[["source", "s"]], index=False).to_numpy() % nb
        ).astype(np.int64)
        return batch

    _PART_COLS = {
        "source": pd.Series(dtype=object),
        "a": pd.Series(dtype=np.int64),
        "b": pd.Series(dtype=np.int64),
        "cnt": pd.Series(dtype=np.int64),
        "na": pd.Series(dtype=np.int64),
        "nb_": pd.Series(dtype=np.int64),
    }

    def pair_partials(group: pd.DataFrame) -> pd.DataFrame:
        # every posting list for a (source, shingle) key is whole in this
        # bucket, so each pair's contribution from these shingles is final.
        # Hot-shingle cap BEFORE the quadratic self-merge: posting lists
        # with df > df_cap drop, each dropped (source, shingle) key is
        # counted into one audit partial per source (a = b = -1).
        df = group.groupby(["source", "s"], sort=False)["doc_id"].transform("size")
        hot = df.to_numpy() > df_cap
        audit = None
        if hot.any():
            dropped = (
                group.loc[hot, ["source", "s"]]
                .drop_duplicates()
                .groupby("source", sort=False)
                .size()
                .reset_index(name="cnt")
            )
            audit = pd.DataFrame(
                {
                    "source": dropped["source"].astype(object),
                    "a": np.int64(-1),
                    "b": np.int64(-1),
                    "cnt": dropped["cnt"].astype(np.int64),
                    "na": np.int64(0),
                    "nb_": np.int64(0),
                }
            )
            group = group[~hot]
        m = group.merge(group, on=["source", "s"], suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        if not len(m):
            return audit if audit is not None else pd.DataFrame(_PART_COLS)
        part = m.groupby(["source", "doc_id_a", "doc_id_b"], as_index=False, sort=False).agg(
            cnt=("s", "size"), na=("n_a", "first"), nb_=("n_b", "first")
        )
        part = part.rename(columns={"doc_id_a": "a", "doc_id_b": "b"})
        for c in ("a", "b", "cnt", "na", "nb_"):
            part[c] = part[c].astype(np.int64)
        if audit is not None:
            part = pd.concat([part, audit], ignore_index=True)
        return part

    partials = (
        ds.map_batches(shingle_rows, batch_format="pandas")
        .map_batches(bucket, batch_format="pandas")
        .groupby("__b")
        .map_groups(pair_partials, batch_format="pandas")
    )
    sums = bucketed_group_agg(
        partials, ["source", "a", "b"], {"cnt": "sum", "na": "max", "nb_": "max"}
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        cnt = batch["cnt"].to_numpy(np.int64)
        a = batch["a"].to_numpy(np.int64)
        union = batch["na"].to_numpy(np.int64) + batch["nb_"].to_numpy(np.int64) - cnt
        j = np.where(union > 0, cnt / np.maximum(union, 1), 0.0)
        sentinel = a == -1  # audit rows: jaccard_ppm carries n_dropped
        keep = (j >= threshold) | sentinel
        ppm = np.floor(j * 1e6 + 0.5).astype(np.int64)
        ppm[sentinel] = cnt[sentinel]
        return pd.DataFrame(
            {
                "source": batch["source"].to_numpy(dtype=object)[keep],
                "a": a[keep],
                "b": batch["b"].to_numpy(np.int64)[keep],
                "jaccard_ppm": ppm[keep],
            }
        )

    return sums.map_batches(finish, batch_format="pandas").sort(["source", "a", "b"])


# DuckDB twin of ngram_jaccard_groups: the same word-3-gram shingle sets
# (incl. the <3-token whole-text shingle), exact |A∩B| via a shingle
# self-join within source, Jaccard threshold and ppm rounding mirrored in
# the Python fold's operation order ((i/union)*1e6 + 0.5 floored), and the
# IDENTICAL hot-shingle df cap + per-source audit rows (a = b = -1,
# jaccard_ppm = dropped-shingle count; denominators stay uncapped).
def ngram_jaccard_sql(threshold: float = 0.3, df_cap: int = NGRAM_DF_CAP) -> str:
    return rf"""
WITH docs_t AS (
    SELECT doc_id, source, string_split_regex(trim(text), '\s+') AS toks
    FROM documents
),
sh AS (
    SELECT doc_id, source, unnest(list_distinct(
        CASE WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
             ELSE list_transform(range(1, len(toks) - 1),
                                 i -> array_to_string(toks[i:i+2], ' '))
        END)) AS s
    FROM docs_t
),
sdf AS (SELECT source, s, COUNT(*) AS df FROM sh GROUP BY source, s),
counts AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
kept AS (
    SELECT sh.doc_id, sh.source, sh.s
    FROM sh JOIN sdf ON sdf.source = sh.source AND sdf.s = sh.s
    WHERE sdf.df <= {df_cap}
),
inter AS (
    SELECT x.source AS source, x.doc_id AS a, y.doc_id AS b, COUNT(*) AS cnt
    FROM kept x JOIN kept y
      ON x.source = y.source AND x.s = y.s AND x.doc_id < y.doc_id
    GROUP BY x.source, x.doc_id, y.doc_id
)
SELECT * FROM (
    SELECT it.source, it.a, it.b,
           CAST(floor((CAST(it.cnt AS DOUBLE) / (ca.n + cb.n - it.cnt)) * 1e6 + 0.5)
                AS BIGINT) AS jaccard_ppm
    FROM inter it
    JOIN counts ca ON ca.doc_id = it.a
    JOIN counts cb ON cb.doc_id = it.b
    WHERE CAST(it.cnt AS DOUBLE) / (ca.n + cb.n - it.cnt) >= {threshold}
    UNION ALL
    SELECT source, CAST(-1 AS BIGINT) AS a, CAST(-1 AS BIGINT) AS b,
           CAST(COUNT(*) AS BIGINT) AS jaccard_ppm
    FROM sdf WHERE df > {df_cap} GROUP BY source
)
ORDER BY source, a, b
"""


NGRAM_JACCARD_SQL = ngram_jaccard_sql()


# DuckDB twin of ``dup_clusters(edges=ngram_jaccard_groups(...))``: the
# NGRAM_JACCARD_SQL edge derivation (same shingles, threshold and
# operation order), then connected components as a recursive-CTE
# transitive closure over the bidirectional edge set — cluster = min
# doc_id reachable, singletons keep themselves, sizes via a window count.
# Closure size is bounded by sum(component²); verified near-dup edges are
# sparse, so this stays small at oracle scale.
DUP_CLUSTERS_SQL = r"""
WITH RECURSIVE docs_t AS (
    SELECT doc_id, source, string_split_regex(trim(text), '\s+') AS toks
    FROM documents
),
sh AS (
    SELECT doc_id, source, unnest(list_distinct(
        CASE WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
             ELSE list_transform(range(1, len(toks) - 1),
                                 i -> array_to_string(toks[i:i+2], ' '))
        END)) AS s
    FROM docs_t
),
counts AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
sdf AS (SELECT source, s, COUNT(*) AS df FROM sh GROUP BY source, s),
kept AS (
    SELECT sh.doc_id, sh.source, sh.s
    FROM sh JOIN sdf ON sdf.source = sh.source AND sdf.s = sh.s
    WHERE sdf.df <= {NGRAM_DF_CAP}
),
inter AS (
    SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS cnt
    FROM kept x JOIN kept y
      ON x.source = y.source AND x.s = y.s AND x.doc_id < y.doc_id
    GROUP BY x.doc_id, y.doc_id
),
edges AS (
    SELECT it.a, it.b FROM inter it
    JOIN counts ca ON ca.doc_id = it.a
    JOIN counts cb ON cb.doc_id = it.b
    WHERE CAST(it.cnt AS DOUBLE) / (ca.n + cb.n - it.cnt) >= 0.3
),
bidir AS (SELECT a AS u, b AS v FROM edges UNION ALL SELECT b AS u, a AS v FROM edges),
reach(u, v) AS (
    SELECT u, v FROM bidir
    UNION
    SELECT r.u, e.v FROM reach r JOIN bidir e ON r.v = e.u WHERE e.v <> r.u
),
labels AS (
    SELECT d.doc_id AS doc_id,
           CAST(LEAST(d.doc_id, COALESCE(MIN(r.v), d.doc_id)) AS BIGINT) AS cluster
    FROM documents d LEFT JOIN reach r ON r.u = d.doc_id
    GROUP BY d.doc_id
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, cluster,
       CAST(COUNT(*) OVER (PARTITION BY cluster) AS BIGINT) AS cluster_size
FROM labels
ORDER BY doc_id
"""
# plain r-string (recursive CTE braces); bind the shared cap value here so
# the cluster twin and ngram_jaccard_sql can never drift apart
DUP_CLUSTERS_SQL = DUP_CLUSTERS_SQL.replace("{NGRAM_DF_CAP}", str(NGRAM_DF_CAP))


def dup_clusters(sf_dir: str, max_hamming: int = 3, max_rounds: int = 32,
                 edges=None, universe=None):
    """Near-duplicate CLUSTERS: distributed connected components over the
    SimHash near-dup edge set — the "cluster → keep one representative"
    primitive a dedup pipeline actually consumes (pair lists are an
    intermediate; cluster labels are the deliverable).

    Min-label propagation, fully distributed (no driver union-find over an
    edge list that is corpus-sized in a duplicate-heavy crawl), shaped to
    keep the iterative part SMALL:

    - the loop runs only over edge ENDPOINTS (~2E rows) — singleton docs
      (the overwhelming majority) never change label and are merged back
      in ONE final bucketed-min pass, no broadcast of the endpoint set;
    - edges are materialized bidirectionally once, so each round is a
      single cogroup join (neighbor labels offered downstream) + a
      bucketed min — labels are monotonically non-increasing, and
      ``sum(label)`` is the convergence certificate;
    - each round combines neighbor offers with POINTER JUMPING (nodes
      also receive their label's label via one labels⋈labels cogroup),
      so rounds needed = O(log component-diameter) — a 64-deep chain
      converges in ≤8 rounds, and ``max_rounds`` is an unreachable
      safety bound rather than a practical limit.

    Output: ``(doc_id, cluster, cluster_size)`` — cluster = min doc_id of
    the component; singletons keep themselves. Verified against a
    union-find reference over the same edges (tests).
    """
    from .common import _default_buckets, bucketed_group_agg, cogroup_join

    # ``edges`` lets a caller that already computed a pair set (e.g. the
    # chained pairs+clusters driver query, or an exact-Jaccard edge table)
    # reuse it instead of re-running the banding + verification stages
    if edges is None:
        edges = simhash_pairs(sf_dir, max_hamming=max_hamming)
    edges = edges.select_columns(["a", "b"])

    def bidir(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch["a"].to_numpy(dtype=np.int64)
        b = batch["b"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {"src": np.concatenate([a, b]), "dst": np.concatenate([b, a])}
        )

    bi = edges.map_batches(bidir, batch_format="pandas").materialize()

    if (bi.size_bytes() or 0) <= _SMALL_EDGE_BYTES:
        # SMALL edge set (the common post-verification case — near-dup
        # edges are sparse): solve connected components in ONE task with
        # vectorized min-label propagation + pointer jumping (O(log n)
        # numpy rounds), instead of paying ~6 Ray barriers per distributed
        # round. repartition(1) keeps this inside the Dataset API; the
        # distributed loop below remains the path for edge sets too big
        # for one worker's heap. Component SIZES come out of the same
        # task (every member of an endpoint component is an endpoint, so
        # the single task sees whole components), and docs that are not
        # endpoints are always singletons of size 1 — one fused
        # bucketed {min label, max size} pass finishes the job, instead
        # of the separate size-count + size-join barriers the
        # distributed path needs.
        def components_sized(batch: pd.DataFrame) -> pd.DataFrame:
            out = connected_components_batch(batch)
            sizes = out.groupby("label", sort=False)["node"].transform("size")
            out["cluster_size"] = sizes.astype(np.int64)
            return out

        endpoint = (
            bi.repartition(1)
            .map_batches(components_sized, batch_format="pandas")
        )
        docs = universe if universe is not None else _docs(sf_dir, columns=["doc_id"])

        def init_singleton(batch: pd.DataFrame) -> pd.DataFrame:
            ids = batch["doc_id"].to_numpy(dtype=np.int64)
            return pd.DataFrame(
                {"node": ids, "label": ids, "cluster_size": np.int64(1)}
            )

        full = bucketed_group_agg(
            docs.map_batches(init_singleton, batch_format="pandas").union(endpoint),
            ["node"], {"label": "min", "cluster_size": "max"},
        )

        def project(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "doc_id": batch["node"].astype(np.int64),
                    "cluster": batch["label"].astype(np.int64),
                    "cluster_size": batch["cluster_size"].astype(np.int64),
                }
            )

        return full.map_batches(project, batch_format="pandas").sort("doc_id")
    else:
        # round 0 folded into initialization: every endpoint starts from
        # min(itself, its direct neighbors)
        def seed(batch: pd.DataFrame) -> pd.DataFrame:
            src = batch["src"].to_numpy(dtype=np.int64)
            dst = batch["dst"].to_numpy(dtype=np.int64)
            return pd.DataFrame(
                {"node": np.concatenate([src, dst]), "label": np.concatenate([src, src])}
            )

        # block-count discipline: union adds blocks and the bucketed
        # combine does not coalesce them, so without the repartition the
        # per-round block count DOUBLES (2^rounds blocks — measured 95 s
        # for round 8 of a planted chain at toy scale). Coalescing to the
        # bucket count each round keeps rounds O(1)-cost.
        nb = _default_buckets()
        labels = (
            bucketed_group_agg(
                bi.map_batches(seed, batch_format="pandas"), ["node"], {"label": "min"}
            )
            .repartition(nb)
            .materialize()
        )
        prev_sum = labels.sum("label")
        converged = False
        for _ in range(max_rounds):
            offers = cogroup_join(bi, labels, "src", "node", ["dst"], ["label"]).map_batches(
                lambda b: pd.DataFrame(
                    {"node": b["dst"].astype(np.int64), "label": b["label"].astype(np.int64)}
                ),
                batch_format="pandas",
            )
            # pointer jumping: each node also receives its LABEL's label
            # (one labels⋈labels cogroup — every label value is itself an
            # endpoint node, since labels start as endpoint ids and only
            # min-combine), halving pointer paths each round so a
            # chain-shaped component converges in O(log diameter) rounds
            # instead of O(diameter) — the max_rounds raise is
            # unreachable below ~2^32-deep chains.
            jumps = cogroup_join(labels, labels, "label", "node", ["node"], ["label"]).map_batches(
                lambda b: pd.DataFrame(
                    {"node": b["node"].astype(np.int64), "label": b["label"].astype(np.int64)}
                ),
                batch_format="pandas",
            )
            labels = (
                bucketed_group_agg(
                    labels.union(offers).union(jumps), ["node"], {"label": "min"}
                )
                .repartition(nb)
                .materialize()
            )
            cur_sum = labels.sum("label")
            if cur_sum == prev_sum:
                converged = True
                break
            prev_sum = cur_sum
    if not converged:
        # min-label propagation needs ~component-diameter rounds; the star
        # cap bounds bucket size, NOT chain depth, so a deep chain of
        # near-dups can exceed max_rounds.  Partially-propagated labels are
        # silently WRONG (two docs of one component with different
        # clusters) — fail loudly instead of returning them.
        raise RuntimeError(
            f"dup_clusters: label propagation did not converge within "
            f"{max_rounds} rounds (component diameter exceeds the bound); "
            f"re-run with a larger max_rounds"
        )

    # merge singletons back: every doc contributes (doc_id, doc_id); the
    # bucketed min keeps the propagated label for endpoint nodes.
    # ``universe`` overrides the node set (e.g. conversation keys for the
    # transcript arm) — any Dataset with a doc_id column.
    docs = universe if universe is not None else _docs(sf_dir, columns=["doc_id"])

    def init_all(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy(dtype=np.int64)
        return pd.DataFrame({"node": ids, "label": ids})

    full = bucketed_group_agg(
        docs.map_batches(init_all, batch_format="pandas").union(labels),
        ["node"], {"label": "min"},
    ).materialize()

    # cluster sizes joined back onto members
    def one(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"label": batch["label"].astype(np.int64), "n": np.int64(1)})

    sizes = bucketed_group_agg(full.map_batches(one, batch_format="pandas"), ["label"], {"n": "sum"})
    sizes = sizes.map_batches(
        lambda b: b.rename(columns={"label": "s_label", "n": "cluster_size"}), batch_format="pandas"
    )
    out = cogroup_join(full, sizes, "label", "s_label", ["node", "label"], ["cluster_size"])

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["node"].astype(np.int64),
                "cluster": batch["label"].astype(np.int64),
                "cluster_size": batch["cluster_size"].astype(np.int64),
            }
        )

    return out.map_batches(project, batch_format="pandas").sort("doc_id")


# ---------------------------------------------------------------------------
# Winnowing fingerprints (MOSS): guaranteed-detection sparse gram selection


WINNOW_K = 5  # tokens per gram
WINNOW_W = 4  # window of consecutive gram hashes per selection


def winnow_select(h: np.ndarray, w: int = WINNOW_W) -> np.ndarray:
    """Selected positions for one document's gram-hash sequence: the
    RIGHTMOST minimal hash of every length-``w`` window (the standard
    winnowing tie rule), deduplicated. Guarantee (Schleimer-Wilkerson-
    Aiken): any shared token run of length ≥ w + k − 1 yields at least
    one shared selected fingerprint."""
    n = len(h)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n <= w:
        rev = h[::-1]
        return np.array([n - 1 - int(np.argmin(rev))], dtype=np.int64)
    wins = np.lib.stride_tricks.sliding_window_view(h, w)
    rev = wins[:, ::-1]
    sel = (w - 1 - np.argmin(rev, axis=1)) + np.arange(len(wins), dtype=np.int64)
    return np.unique(sel.astype(np.int64))


def docs_winnow_fingerprints(sf_dir: str, k: int = WINNOW_K, w: int = WINNOW_W):
    """Winnowed document fingerprints: token ``k``-gram md5 hashes,
    sparsified by rightmost-min selection over every ``w`` consecutive
    grams → Dataset(doc_id, pos, gram_hash), sorted.

    The MOSS selection layer the full-window ops (``docs_dup_span_stats``)
    don't have: storage/exchange drops to ~2/(w+1) of the gram stream
    while any match of length ≥ w+k−1 tokens is still guaranteed to
    surface — the index you actually persist at 100 TB. Derivation is
    MAP-ONLY (per-doc numpy window argmin); the terminal sort is the
    output contract. Hash is the shared md5-hash15 construct, so the
    DuckDB twin replays selection exactly (windowed ROW_NUMBER with the
    (hash ASC, pos DESC) tie rule)."""
    from .common import _default_buckets  # noqa: F401  (family consistency)
    from .text import _md5_hash15_str

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        doc_out, pos_out, hash_out = [], [], []
        for doc_id, text in zip(batch["doc_id"].to_numpy(np.int64), batch["text"]):
            toks = text.split(" ")
            n = len(toks) - k + 1
            if n <= 0:
                continue
            grams = [" ".join(toks[i : i + k]) for i in range(n)]
            h = _md5_hash15_str(grams, "win:")
            sel = winnow_select(h, w)
            doc_out.extend([doc_id] * len(sel))
            pos_out.extend(int(p) for p in sel)
            hash_out.extend(int(h[p]) for p in sel)
        return pd.DataFrame(
            {
                "doc_id": np.array(doc_out, dtype=np.int64),
                "pos": np.array(pos_out, dtype=np.int64),
                "gram_hash": np.array(hash_out, dtype=np.int64),
            }
        )

    return ds.map_batches(derive, batch_format="pandas").sort(["doc_id", "pos"])


DOCS_WINNOW_SQL = f"""
WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
g AS (
    SELECT doc_id, gs.i - 1 AS pos,
           ('0x' || substr(md5('win:' || array_to_string(toks[gs.i:gs.i + {WINNOW_K} - 1], ' ')), 1, 15))::BIGINT AS h,
           len(toks) - {WINNOW_K} + 1 AS n_grams
    FROM t, LATERAL UNNEST(generate_series(1, len(toks) - {WINNOW_K} + 1)) gs(i)
    WHERE len(toks) >= {WINNOW_K}
),
wins AS (
    -- window starts; short docs (< w grams) form one window at 0
    SELECT doc_id, pos, h,
           gs.j AS ws
    FROM g, LATERAL UNNEST(generate_series(
        GREATEST(pos - {WINNOW_W} + 1, 0),
        LEAST(pos, GREATEST(n_grams - {WINNOW_W}, 0))
    )) gs(j)
),
sel AS (
    SELECT doc_id, pos, h,
           ROW_NUMBER() OVER (PARTITION BY doc_id, ws ORDER BY h ASC, pos DESC) AS rn
    FROM wins
)
SELECT DISTINCT doc_id, CAST(pos AS BIGINT) AS pos, CAST(h AS BIGINT) AS gram_hash
FROM sel WHERE rn = 1
ORDER BY doc_id, pos
"""


# ---------------------------------------------------------------------------
# Exact set-similarity self-join via prefix filtering (the PPJoin family:
# Bayardo et al., "Scaling Up All Pairs Similarity Search", WWW'07; Xiao et
# al., "Efficient Similarity Joins for Near Duplicate Detection", WWW'08).
# The EXACT counterpart to the MinHash/SimHash paths above: every pair with
# Jaccard >= tau is emitted, no probabilistic recall — the candidate space
# is bounded by the prefix-filter lemma instead of by hashing.

_SS_L = 24          # tokens per rendered doc (constant-size sets)
_SS_P = 10037       # prime, p % 3 == 2  =>  x -> x^3 mod p is injective
_SS_JOFF = _SS_P    # junk-token offset: junk ids sit above every cube
_SS_JMOD = 503
_SS_TAU = (1, 2)    # jaccard threshold as an exact rational: 1/2


def setsim_fams(n_docs: int) -> int:
    """Family count for the rendered overlay — grows with the corpus so
    family size (and with it the quadratic same-family pair volume) stays
    bounded at ~12 docs regardless of scale."""
    return max(40, n_docs // 12)


def setsim_tokens(doc_ids, fams: int) -> np.ndarray:
    """(n, 24) int64 token matrix; each row is a DISTINCT-valued set.

    Deterministic near-dup-family overlay (the repo's surrogate recipe —
    both engines derive the same sets analytically from doc_id): doc d in
    family f = d % fams carries the family's base tokens cube(f*24+i+1)
    mod p at positions i, except positions where (i + d//fams) % (3 + d%5)
    == 0, which are replaced by doc-specific junk p + (d*31+i) % 503.
    Same-family docs share most base tokens (J ~ 0.5-0.72, splitting
    around tau); cross-family sets are disjoint by construction — the
    cube map is injective below p and the per-family x-ranges are
    disjoint, which is exactly what the first (affine) cut of this overlay
    violated: translate-structured token sets made some family PAIRS
    near-identical. Junk ids are distinct within a doc (31 is a unit mod
    503) and sit in a range disjoint from every cube.
    """
    d = np.asarray(doc_ids, dtype=np.int64).reshape(-1, 1)
    i = np.arange(_SS_L, dtype=np.int64).reshape(1, -1)
    mutated = (i + d // fams) % (3 + d % 5) == 0
    x = (d % fams) * _SS_L + i + 1
    w = (x * x % _SS_P) * x % _SS_P
    junk = _SS_JOFF + (d * 31 + i) % _SS_JMOD
    return np.where(mutated, junk, w)


def docs_setsim_join(sf_dir: str):
    """Exact all-pairs Jaccard >= 1/2 self-join via prefix filtering.

    Distributed PPJoin decomposition (one map-only explode, two KB-to-
    vocab-sized exchanges, one pair exchange — never an all-pairs pass):

    1. token explode (map-only: 24 ``(doc, tok)`` rows per doc),
    2. global token document-frequency via bucketed partial combine
       (``bucketed_group_agg`` — the canonical order must be GLOBAL),
    3. DF attached back through one tok-bucketed cogroup join (vocab-sized
       right side; joined, not broadcast — at web scale the vocabulary
       does not fit a driver map),
    4. per-doc prefix selection inside doc-hash buckets: sort each doc's
       tokens rarest-first, keep the first L - ceil(tau*L) + 1 = 13 —
       the prefix-filter lemma says two sets with overlap >= alpha share
       a token within their first ``|.| - alpha + 1`` tokens under ANY
       global total order, and J >= tau forces alpha >= ceil(tau*|A|),
       so candidate generation over prefix tokens has NO false negatives;
       rarest-first ordering minimizes the candidate volume,
    5. candidate pairs per prefix token (vectorized triu inside tok-hash
       buckets; prefix tokens are each doc's globally rarest, so buckets
       stay small — measured max 11 docs/token at sf0.1),
    6. cross-token pair dedup as a bucketed min,
    7. EXACT verification: both docs' token sets re-rendered from doc_id
       (deterministic overlay; a real corpus would join texts back via
       the two-cogroup pattern ``minhash_lsh_pairs`` step 3 demonstrates)
       and intersected with ONE vectorized row-sort per batch — rows are
       distinct-valued, so adjacent equality after sorting the
       concatenated (n, 48) matrix counts |A ∩ B| exactly.

    All sizes are L=24 by construction, so PPJoin's length filter
    (tau*|B| <= |A|) is vacuous here and elided. Threshold compares as
    integers (den*inter >= num*(2L - inter)) — no float boundary.
    Output: ``(a, b, jaccard_ppm)`` sorted, a < b.
    """
    import math

    from .common import bucketed_group_agg, cogroup_join, _default_buckets

    ds = _docs(sf_dir, columns=["doc_id"])
    fams = setsim_fams(ds.count())
    num, den = _SS_TAU
    pfx = _SS_L - math.ceil(num * _SS_L / den) + 1
    nb = _default_buckets()

    def tok_rows(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": np.repeat(ids, _SS_L),
                "tok": setsim_tokens(ids, fams).reshape(-1),
                "n": np.int64(1),
            }
        )

    toks = ds.map_batches(tok_rows, batch_format="pandas")
    df_tbl = bucketed_group_agg(toks.drop_columns(["doc_id"]), ["tok"], {"n": "sum"})
    with_df = cogroup_join(
        toks.drop_columns(["n"]), df_tbl, "tok", "tok", ["doc_id", "tok"], ["n"]
    )

    def doc_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        b = pd.util.hash_array(batch["doc_id"].to_numpy(np.int64)) % nb
        return batch.assign(__db=b.astype(np.int64))

    def prefix_rows(group: pd.DataFrame) -> pd.DataFrame:
        doc = group["doc_id"].to_numpy(np.int64)
        tok = group["tok"].to_numpy(np.int64)
        df = group["n"].to_numpy(np.int64)
        order = np.lexsort((tok, df, doc))  # by doc, then rarest-first
        doc_s, tok_s = doc[order], tok[order]
        # rank within doc: position minus the doc run's start offset
        starts = np.flatnonzero(np.r_[True, doc_s[1:] != doc_s[:-1]])
        run_id = np.cumsum(np.r_[False, doc_s[1:] != doc_s[:-1]])
        rank = np.arange(len(doc_s)) - starts[run_id]
        keep = rank < pfx
        return pd.DataFrame({"tok": tok_s[keep], "doc_id": doc_s[keep]})

    prefixes = (
        with_df.map_batches(doc_bucket, batch_format="pandas")
        .groupby("__db")
        .map_groups(prefix_rows, batch_format="pandas")
    )

    def tok_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        b = pd.util.hash_array(batch["tok"].to_numpy(np.int64)) % nb
        return batch.assign(__tb=b.astype(np.int64))

    def emit_pairs(group: pd.DataFrame):
        doc = group["doc_id"].to_numpy(np.int64)
        tok = group["tok"].to_numpy(np.int64)
        order = np.lexsort((doc, tok))
        doc_s, tok_s = doc[order], tok[order]
        bounds = np.flatnonzero(np.r_[True, tok_s[1:] != tok_s[:-1], True])
        outs_a, outs_b = [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            m = e - s
            if m < 2:
                continue
            ia, ib = np.triu_indices(m, k=1)
            outs_a.append(doc_s[s:e][ia])
            outs_b.append(doc_s[s:e][ib])
        if not outs_a:
            return _pair_table([], [], c=[])
        return _pair_table(
            np.concatenate(outs_a), np.concatenate(outs_b),
            c=np.ones(sum(len(x) for x in outs_a), dtype=np.int64),
        )

    cand = (
        prefixes.map_batches(tok_bucket, batch_format="pandas")
        .groupby("__tb")
        .map_groups(emit_pairs, batch_format="pandas")
    )
    deduped = bucketed_group_agg(cand, ["a", "b"], {"c": "min"})

    def verify(batch: pd.DataFrame):
        if not len(batch):
            return _pair_table([], [], jaccard_ppm=[])
        a = batch["a"].to_numpy(np.int64)
        b = batch["b"].to_numpy(np.int64)
        m = np.concatenate(
            [setsim_tokens(a, fams), setsim_tokens(b, fams)], axis=1
        )
        s = np.sort(m, axis=1)
        inter = (s[:, 1:] == s[:, :-1]).sum(axis=1).astype(np.int64)
        union = 2 * _SS_L - inter
        keep = den * inter >= num * union
        jp = np.floor(
            inter[keep] / union[keep].astype(np.float64) * 1e6 + 0.5
        ).astype(np.int64)
        return _pair_table(a[keep], b[keep], jaccard_ppm=jp)

    return deduped.map_batches(verify, batch_format="pandas").sort(["a", "b"])


# DuckDB twin of docs_setsim_join: the identical token render (cube map,
# junk mutation rule, fams derived from COUNT(*) with the same formula),
# exact |A∩B| via a token self-join, the integer threshold and the ppm
# rounding in the engine's operation order. The twin needs no prefix
# machinery — prefix filtering changes only WHERE candidate pairs come
# from, never the verified output.
DOCS_SETSIM_SQL = r"""
WITH f AS (SELECT GREATEST(40, COUNT(*) // 12) AS fams FROM documents),
tok AS (
    SELECT d.doc_id AS doc_id,
           CASE WHEN (g.i + d.doc_id // f.fams) % (3 + d.doc_id % 5) = 0
                THEN 10037 + (d.doc_id * 31 + g.i) % 503
                ELSE ((((d.doc_id % f.fams) * 24 + g.i + 1)
                       * ((d.doc_id % f.fams) * 24 + g.i + 1)) % 10037)
                     * ((d.doc_id % f.fams) * 24 + g.i + 1) % 10037
           END AS tok
    FROM documents d, f, UNNEST(generate_series(0, 23)) AS g(i)
),
inter AS (
    SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS cnt
    FROM tok x JOIN tok y ON x.tok = y.tok AND x.doc_id < y.doc_id
    GROUP BY 1, 2
)
SELECT a, b,
       CAST(floor((CAST(cnt AS DOUBLE) / (48 - cnt)) * 1e6 + 0.5) AS BIGINT)
           AS jaccard_ppm
FROM inter
WHERE 2 * cnt >= 48 - cnt
ORDER BY a, b
"""


# ---------------------------------------------------------------------------
# SQL-twinned hash-signature near-dup: the MinHash-LSH and SimHash pipelines
# run UNCHANGED over a deterministic near-dup text overlay, and the WHOLE
# signature machinery — md5 little-endian 64-bit shingle/token hashes, the
# exact Mersenne affine family (a*h + b) mod 2^61-1, the polynomial band-key
# mix, band-bucket candidate generation, exact-Jaccard / Hamming
# verification, exact-collapse and member expansion — is replayed bit-exactly
# in DuckDB (HUGEINT gives the 128-bit headroom the numpy side builds from
# 32-bit limbs). The raw corpus has no duplicate or near-duplicate texts at
# test scale, so the overlay (the repo's surrogate recipe: both engines
# derive the same text analytically from doc_id) is what makes the twin
# non-vacuous: each 4-doc family plants an exact duplicate (v3 == v0, which
# exercises collapse, within-cluster pairs and member expansion), a
# near-duplicate above the Jaccard threshold (v1: every 11th token replaced)
# and a below-threshold decoy (v2: every 3rd token replaced — banded
# occasionally, always rejected by exact verification).

def neardup_overlay_rows(batch: pd.DataFrame) -> pd.DataFrame:
    """(doc_id) -> (doc_id, text): deterministic near-dup family overlay.

    Family f = doc_id // 4, variant v = doc_id % 4, n = 24 + (f % 7) * 5
    tokens. Base token i is ``w{f}_{(7i + i^2) % 997}`` — every token
    carries the family id, so cross-family shingle sets are DISJOINT by
    construction (the setsim overlay's lesson: affine/translate-structured
    overlays make some cross-family pairs near-identical). v0 and v3 are
    byte-identical; v1 replaces positions i % 11 == 3 (stays above Jaccard
    1/2 on 3-gram shingles); v2 replaces positions i % 3 == 1 (falls well
    below). Single-space joined — matches both ``str.split()`` and the
    twin's ``string_split(text, ' ')``."""
    ids = batch["doc_id"].to_numpy(np.int64)
    texts = []
    for d in ids:
        f, v = int(d) // 4, int(d) % 4
        n = 24 + (f % 7) * 5
        toks = []
        for i in range(n):
            if v == 1 and i % 11 == 3:
                toks.append(f"u{f}_{i}")
            elif v == 2 and i % 3 == 1:
                toks.append(f"z{f}_{i}")
            else:
                toks.append(f"w{f}_{(7 * i + i * i) % 997}")
        texts.append(" ".join(toks))
    return pd.DataFrame({"doc_id": ids, "text": texts})


def _overlay_ds(sf_dir: str):
    return _docs(sf_dir, columns=["doc_id"]).map_batches(
        neardup_overlay_rows, batch_format="pandas"
    )


def docs_minhash_neardup(sf_dir: str):
    """The PRODUCTION ``minhash_lsh_pairs`` path over the rendered overlay
    corpus — every stage identical to the raw-corpus run; only the input
    dataset is injected. Pinned bit-exactly to ``DOCS_MINHASH_SQL``."""
    return minhash_lsh_pairs(sf_dir, ds=_overlay_ds(sf_dir))


def docs_simhash_neardup(sf_dir: str):
    """The PRODUCTION ``simhash_pairs`` path over the rendered overlay
    corpus. Pinned bit-exactly to ``DOCS_SIMHASH_SQL``."""
    return simhash_pairs(sf_dir, ds=_overlay_ds(sf_dir))


# little-endian uint64 of the first 8 md5 digest bytes, as the repo's
# Python kernels compute it (``_md5_64``): reassemble the hex pairs in
# reverse byte order and parse — verified equal to the numpy value.
_MD5_LE64 = ("('0x' || substr({m},15,2) || substr({m},13,2) || substr({m},11,2)"
             " || substr({m},9,2) || substr({m},7,2) || substr({m},5,2)"
             " || substr({m},3,2) || substr({m},1,2))::UBIGINT")

# the deterministic overlay, rendered in SQL from the same closed forms
_OVERLAY_CTE = """
ov AS (
    SELECT doc_id, doc_id // 4 AS f, doc_id % 4 AS v,
           24 + ((doc_id // 4) % 7) * 5 AS n
    FROM documents
),
otok AS MATERIALIZED (
    SELECT o.doc_id AS doc_id, g.i AS i,
           CASE WHEN o.v = 1 AND g.i % 11 = 3 THEN 'u' || o.f || '_' || g.i
                WHEN o.v = 2 AND g.i % 3 = 1 THEN 'z' || o.f || '_' || g.i
                ELSE 'w' || o.f || '_' || ((7 * g.i + g.i * g.i) % 997)
           END AS t
    FROM ov o, UNNEST(generate_series(0, o.n - 1)) AS g(i)
)
"""

_P61_INT = int(_P61)
_BAND_R_INT = int(_BAND_R)
_PARAMS_VALUES = ", ".join(
    f"({j}, {int(a)}, {int(b)})" for j, (a, b) in enumerate(zip(_A, _B))
)

# Bit-exact DuckDB replay of minhash_lsh_pairs over the overlay. Overlay
# texts always have >= 24 tokens, so the short-text single-shingle branch
# of word_shingles and the has_tok gate are vacuously satisfied; the
# oversized-bucket star cap (32768) is never reached at gate scale, so the
# twin's all-pairs candidate join is the same set the engine emits. The
# float expression mirrors the engine's rounding sequence exactly:
# (inter / union) correctly-rounded DOUBLE, then * 1e6, + 0.5, floor.
DOCS_MINHASH_SQL = f"""
WITH {_OVERLAY_CTE.strip()},
params(j, a, b) AS (VALUES {_PARAMS_VALUES}),
txt AS MATERIALIZED (SELECT doc_id, string_agg(t, ' ' ORDER BY i) AS text FROM otok GROUP BY 1),
grp AS MATERIALIZED (SELECT doc_id, md5(text) AS h FROM txt),
rep AS (SELECT h, MIN(doc_id) AS rep_id FROM grp GROUP BY 1),
member AS MATERIALIZED (SELECT g.doc_id AS doc_id, r.rep_id AS rep_id FROM grp g JOIN rep r USING (h)),
within AS (
    SELECT g1.doc_id AS a, g2.doc_id AS b, CAST(1000000 AS BIGINT) AS jaccard_ppm
    FROM grp g1 JOIN grp g2 ON g2.h = g1.h AND g1.doc_id < g2.doc_id
),
reps AS (SELECT DISTINCT rep_id AS doc_id FROM member),
sh0 AS (
    SELECT a.doc_id AS doc_id, a.t || ' ' || b.t || ' ' || c.t AS s
    FROM otok a
    JOIN otok b ON b.doc_id = a.doc_id AND b.i = a.i + 1
    JOIN otok c ON c.doc_id = a.doc_id AND c.i = a.i + 2
    WHERE a.doc_id IN (SELECT doc_id FROM reps)
),
shd AS MATERIALIZED (SELECT DISTINCT doc_id, s FROM sh0),
hsh AS MATERIALIZED (
    SELECT doc_id,
           CAST({_MD5_LE64.format(m='m')} % 2305843009213693952 AS BIGINT) AS h
    FROM (SELECT doc_id, md5(s) AS m FROM shd)
),
sigmin AS MATERIALIZED (
    SELECT h.doc_id AS doc_id, p.j AS j,
           MIN(CAST((CAST(p.a AS HUGEINT) * h.h + p.b) % {_P61_INT} AS BIGINT)) AS s
    FROM hsh h CROSS JOIN params p
    GROUP BY 1, 2
),
bk4 AS (
    SELECT doc_id, j // 4 AS band,
           MAX(CASE WHEN j % 4 = 0 THEN s END) AS s0,
           MAX(CASE WHEN j % 4 = 1 THEN s END) AS s1,
           MAX(CASE WHEN j % 4 = 2 THEN s END) AS s2,
           MAX(CASE WHEN j % 4 = 3 THEN s END) AS s3
    FROM sigmin GROUP BY 1, 2
),
keys AS MATERIALIZED (
    SELECT doc_id, band,
           CAST(((((CAST(s0 AS HUGEINT) * {_BAND_R_INT} + s1) % {_P61_INT})
                    * {_BAND_R_INT} + s2) % {_P61_INT}
                    * {_BAND_R_INT} + s3) % {_P61_INT} AS BIGINT) AS bkey
    FROM bk4
),
cand AS (
    SELECT DISTINCT x.doc_id AS ra, y.doc_id AS rb
    FROM keys x JOIN keys y
      ON y.band = x.band AND y.bkey = x.bkey AND x.doc_id < y.doc_id
),
sizes AS (SELECT doc_id, COUNT(*) AS nsh FROM shd GROUP BY 1),
inter AS (
    SELECT c.ra AS ra, c.rb AS rb, COUNT(*) AS cnt
    FROM cand c
    JOIN shd sa ON sa.doc_id = c.ra
    JOIN shd sb ON sb.doc_id = c.rb AND sb.s = sa.s
    GROUP BY 1, 2
),
ver AS (
    SELECT i.ra AS ra, i.rb AS rb,
           CAST(floor(CAST(i.cnt AS DOUBLE) / (za.nsh + zb.nsh - i.cnt)
                      * 1000000.0 + 0.5) AS BIGINT) AS jaccard_ppm
    FROM inter i
    JOIN sizes za ON za.doc_id = i.ra
    JOIN sizes zb ON zb.doc_id = i.rb
    WHERE 2 * i.cnt >= za.nsh + zb.nsh - i.cnt
),
expanded AS (
    SELECT LEAST(ma.doc_id, mb.doc_id) AS a,
           GREATEST(ma.doc_id, mb.doc_id) AS b,
           v.jaccard_ppm AS jaccard_ppm
    FROM ver v
    JOIN member ma ON ma.rep_id = v.ra
    JOIN member mb ON mb.rep_id = v.rb
)
SELECT a, b, jaccard_ppm FROM expanded
UNION ALL
SELECT a, b, jaccard_ppm FROM within
ORDER BY a, b
"""

# Bit-exact DuckDB replay of simhash_pairs over the overlay: md5-LE64 token
# hashes WITH multiplicity, per-bit sign accumulation (acc > 0 sets the
# bit), 4 x 16-bit band buckets, pigeonhole candidates, exact Hamming via
# per-band XOR popcounts. The engine's cross-band pair dedup (bucketed min
# over an invariant hamming) collapses to DISTINCT here.
def simhash_tail_sql(max_hamming: int = 3) -> str:
    """THE SimHash replay tail (one copy — ``DOCS_SIMHASH_SQL`` and the
    transcript conversation-near-dup twin both append it to their own
    ``otok`` token-source CTE): md5-LE64 token hashes WITH multiplicity,
    per-bit sign accumulation (acc > 0 sets the bit), 4×16-bit band
    packing, pigeonhole candidates, exact per-band XOR-popcount Hamming.
    Twin-equality assumption shared with the engine's banded tail: no
    (band, value) bucket exceeds the ``_MAX_BUCKET`` star cap (the SQL
    does all pairs in-bucket; a capped engine bucket verifies members
    only against the bucket minimum)."""
    return f"""tokh AS (
    SELECT doc_id, {_MD5_LE64.format(m='m')} AS h
    FROM (SELECT doc_id, md5(t) AS m FROM otok)
),
bits AS (
    SELECT doc_id, b.j AS bit,
           SUM(CASE WHEN (h >> CAST(b.j AS UBIGINT)) & 1 = 1 THEN 1 ELSE -1 END) AS acc
    FROM tokh, UNNEST(generate_series(0, 63)) AS b(j)
    GROUP BY 1, 2
),
bands AS (
    SELECT doc_id, bit // 16 AS band,
           CAST(SUM(CASE WHEN acc > 0 THEN (CAST(1 AS BIGINT) << CAST(bit % 16 AS INTEGER))
                         ELSE 0 END) AS BIGINT) AS bval
    FROM bits GROUP BY 1, 2
),
cand AS (
    SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
    FROM bands x JOIN bands y
      ON y.band = x.band AND y.bval = x.bval AND x.doc_id < y.doc_id
),
full4 AS (
    SELECT doc_id,
           MAX(CASE WHEN band = 0 THEN bval END) AS b0,
           MAX(CASE WHEN band = 1 THEN bval END) AS b1,
           MAX(CASE WHEN band = 2 THEN bval END) AS b2,
           MAX(CASE WHEN band = 3 THEN bval END) AS b3
    FROM bands GROUP BY 1
)
SELECT c.a AS a, c.b AS b,
       CAST(bit_count(xor(fa.b0, fb.b0)) + bit_count(xor(fa.b1, fb.b1))
          + bit_count(xor(fa.b2, fb.b2)) + bit_count(xor(fa.b3, fb.b3))
          AS BIGINT) AS hamming
FROM cand c
JOIN full4 fa ON fa.doc_id = c.a
JOIN full4 fb ON fb.doc_id = c.b
WHERE bit_count(xor(fa.b0, fb.b0)) + bit_count(xor(fa.b1, fb.b1))
    + bit_count(xor(fa.b2, fb.b2)) + bit_count(xor(fa.b3, fb.b3)) <= {max_hamming}
ORDER BY a, b"""


DOCS_SIMHASH_SQL = f"""
WITH {_OVERLAY_CTE.strip()},
{simhash_tail_sql()}
"""


# ---------------------------------------------------------------------------
# Dedup recall evaluation (eval-as-pipeline, the dedup counterpart of
# ``emb_ann_recall``): MinHash-LSH candidate recall against the EXACT
# ground-truth near-dup pair set over the same overlay, per Jaccard decile
# — the measurement that sizes bands x rows before a production dedup run.
# Ground truth is computable exactly because overlay families are token-
# disjoint (cross-family Jaccard is 0 by construction), so the exact scan
# is family-bucketed and each family is O(1) docs — the same documented
# bounded-group assumption as ``ngram_jaccard_groups``.


def docs_neardup_recall(sf_dir: str, pairs=None, jaccard_threshold: float = 0.5):
    """(ppm_decile, n_true, n_found, recall_ppm) sorted by decile.

    ``pairs``: optionally a materialized ``docs_minhash_neardup`` result
    (the driver slot reuses its twin-gate run instead of re-banding).
    Every LSH pair is exactly verified at the same threshold, so found ⊆
    true and recall_ppm ≤ 1e6 per decile; the 10-decile (exact
    duplicates) is 1e6 by construction — LSH cannot miss identical
    signatures."""
    import ray.data

    from .common import cogroup_join

    if pairs is None:
        pairs = docs_minhash_neardup(sf_dir)

    overlay = _overlay_ds(sf_dir)

    def fam_tag(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["fam"] = batch["doc_id"].to_numpy(np.int64) // 4
        return batch

    def verify_family(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("doc_id")
        ids = g["doc_id"].to_numpy(np.int64)
        sh = [word_shingles(t) for t in g["text"]]
        a_out, b_out, ppm = [], [], []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                union = len(sh[i] | sh[j])
                jac = len(sh[i] & sh[j]) / union if union else 0.0
                if jac >= jaccard_threshold:
                    a_out.append(ids[i])
                    b_out.append(ids[j])
                    ppm.append(int(np.floor(jac * 1e6 + 0.5)))
        return pd.DataFrame(
            {
                "a": pd.Series(a_out, dtype=np.int64),
                "b": pd.Series(b_out, dtype=np.int64),
                "true_ppm": pd.Series(ppm, dtype=np.int64),
            }
        )

    truth = (
        overlay.map_batches(fam_tag, batch_format="pandas")
        .groupby("fam")
        .map_groups(verify_family, batch_format="pandas")
    )

    def _pair_key(batch: pd.DataFrame) -> np.ndarray:
        a = batch["a"].to_numpy(np.int64)
        b = batch["b"].to_numpy(np.int64)
        # packed key fits int64 only below 2^31/2^32 — raise, don't wrap
        # (doc ids past that need a composite/string key)
        if len(a) and (int(a.max()) >= (1 << 31) or int(b.max()) >= (1 << 32)):
            raise ValueError(
                "docs_neardup_recall: doc_id exceeds the packed pair-key "
                "range (a < 2^31, b < 2^32); use a composite key"
            )
        return a * np.int64(1 << 32) + b

    def key_true(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"k": _pair_key(batch), "true_ppm": batch["true_ppm"].astype(np.int64)}
        )

    def key_found(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"k": _pair_key(batch), "found": np.ones(len(batch), dtype=np.int64)}
        )

    joined = cogroup_join(
        truth.map_batches(key_true, batch_format="pandas"),
        pairs.map_batches(key_found, batch_format="pandas"),
        "k", "k", ["true_ppm"], ["found"], how="left",
    )

    def rollup(batch: pd.DataFrame) -> pd.DataFrame:
        dec = batch["true_ppm"].to_numpy(np.int64) // 100_000
        fnd = batch["found"].fillna(0).to_numpy(np.int64)
        df = pd.DataFrame({"ppm_decile": dec, "n_true": np.int64(1), "n_found": fnd})
        return df.groupby("ppm_decile", as_index=False).sum()

    from .common import grouped_sums

    agg = grouped_sums(
        joined.map_batches(rollup, batch_format="pandas"),
        ["ppm_decile"], ["n_true", "n_found"],
    ).to_pandas().sort_values("ppm_decile")

    agg["recall_ppm"] = (1_000_000 * agg["n_found"]) // agg["n_true"]
    agg = agg.reset_index(drop=True)
    agg[["n_true", "n_found", "recall_ppm"]] = agg[
        ["n_true", "n_found", "recall_ppm"]
    ].astype(np.int64)
    return ray.data.from_pandas(agg)


# twin: the full minhash replay rides as a nested-WITH CTE; truth is the
# exact shingle join restricted to same-family pairs (cross-family is 0)
DOCS_NEARDUP_RECALL_SQL = f"""
WITH mh AS ({DOCS_MINHASH_SQL.rstrip()}),
truth AS (
    WITH {_OVERLAY_CTE.strip()},
    sh0 AS (
        SELECT a.doc_id AS doc_id, a.t || ' ' || b.t || ' ' || c.t AS s
        FROM otok a
        JOIN otok b ON b.doc_id = a.doc_id AND b.i = a.i + 1
        JOIN otok c ON c.doc_id = a.doc_id AND c.i = a.i + 2
    ),
    shd AS MATERIALIZED (SELECT DISTINCT doc_id, s FROM sh0),
    sizes AS (SELECT doc_id, COUNT(*) AS nsh FROM shd GROUP BY 1),
    inter AS (
        SELECT sa.doc_id AS a, sb.doc_id AS b, COUNT(*) AS cnt
        FROM shd sa JOIN shd sb
          ON sb.s = sa.s AND sa.doc_id < sb.doc_id
         AND sb.doc_id // 4 = sa.doc_id // 4
        GROUP BY 1, 2
    )
    SELECT i.a AS a, i.b AS b,
           CAST(floor(CAST(i.cnt AS DOUBLE) / (za.nsh + zb.nsh - i.cnt)
                      * 1000000.0 + 0.5) AS BIGINT) AS true_ppm
    FROM inter i
    JOIN sizes za ON za.doc_id = i.a
    JOIN sizes zb ON zb.doc_id = i.b
    WHERE 2 * i.cnt >= za.nsh + zb.nsh - i.cnt
)
SELECT t.true_ppm // 100000 AS ppm_decile,
       CAST(COUNT(*) AS BIGINT) AS n_true,
       CAST(COUNT(m.a) AS BIGINT) AS n_found,
       CAST((1000000 * COUNT(m.a)) // COUNT(*) AS BIGINT) AS recall_ppm
FROM truth t LEFT JOIN mh m ON m.a = t.a AND m.b = t.b
GROUP BY 1
ORDER BY 1
"""


# ---------------------------------------------------------------------------
# The dedup family COMPOSED as one streaming DAG (the docs_curation_pipeline
# pattern applied to dedup): exact-collapse + within-source near-dup edges →
# connected-component cluster labels → first-occurrence-wins keep decision →
# per-source kept/dropped token accounting — the end-to-end answer a corpus
# owner actually consumes ("how much of each feed survives dedup, in
# documents and in tokens"). The composed DuckDB twin nests the recursive
# transitive-closure oracle and reproduces the accounting bit-for-bit.


def docs_dedup_pipeline(sf_dir: str, labels=None):
    """(source, n_docs, n_kept, tokens_total, tokens_kept, kept_ppm)
    sorted by source. ``kept`` = the document IS its cluster's label
    (cluster labels are component minima, so exactly one survivor per
    near-dup cluster — first-occurrence-wins by doc_id).

    ``labels``: optionally a materialized ``dup_clusters`` result (the
    driver slot reuses its recorded run instead of re-clustering). Text
    never joins the exchange: token counts reduce map-side to one int
    per doc; the label join is one doc_id-bucketed cogroup; the final
    rollup is source-cardinality."""
    import ray.data

    from .common import cogroup_join, grouped_sums

    if labels is None:
        exact = (
            ngram_jaccard_groups(sf_dir)
            .filter(expr="a >= 0")  # drop df-cap audit rows; counts, not edges
            .select_columns(["a", "b"])
        )
        labels = dup_clusters(sf_dir, edges=exact)

    docs = _docs(sf_dir, columns=["doc_id", "source", "text"])

    def doc_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype(np.int64),
                "source": batch["source"].astype(object),
                "n_toks": np.fromiter(
                    (t.count(" ") + 1 for t in batch["text"]),
                    dtype=np.int64, count=len(batch),
                ),
            }
        )

    narrow = docs.map_batches(doc_rows, batch_format="pandas")
    # carry the doc_id through the join explicitly (the join key itself is
    # not emitted)
    joined = cogroup_join(
        narrow, labels, "doc_id", "doc_id",
        ["doc_id", "source", "n_toks"], ["cluster"],
    )

    def accounting(batch: pd.DataFrame) -> pd.DataFrame:
        kept = (
            batch["cluster"].astype(np.int64).to_numpy()
            == batch["doc_id"].astype(np.int64).to_numpy()
        ).astype(np.int64)
        nt = batch["n_toks"].astype(np.int64).to_numpy()
        return pd.DataFrame(
            {
                "source": batch["source"].astype(object),
                "n_docs": np.int64(1),
                "n_kept": kept,
                "tokens_total": nt,
                "tokens_kept": nt * kept,
            }
        )

    agg = grouped_sums(
        joined.map_batches(accounting, batch_format="pandas"),
        ["source"], ["n_docs", "n_kept", "tokens_total", "tokens_kept"],
    ).to_pandas()  # source-cardinality rollup
    agg["kept_ppm"] = (1_000_000 * agg["n_kept"]) // agg["n_docs"]
    agg = agg.sort_values("source").reset_index(drop=True)
    for c in ("n_docs", "n_kept", "tokens_total", "tokens_kept", "kept_ppm"):
        agg[c] = agg[c].astype(np.int64)
    return ray.data.from_pandas(agg)


DOCS_DEDUP_PIPELINE_SQL = f"""
WITH labels AS ({DUP_CLUSTERS_SQL.rstrip()})
SELECT d.source AS source,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(CASE WHEN l.cluster = l.doc_id THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
       CAST(SUM(len(string_split(d.text, ' '))) AS BIGINT) AS tokens_total,
       CAST(SUM(CASE WHEN l.cluster = l.doc_id
                     THEN len(string_split(d.text, ' ')) ELSE 0 END) AS BIGINT)
           AS tokens_kept,
       CAST((1000000 * SUM(CASE WHEN l.cluster = l.doc_id THEN 1 ELSE 0 END))
            // COUNT(*) AS BIGINT) AS kept_ppm
FROM labels l JOIN documents d USING (doc_id)
GROUP BY 1
ORDER BY 1
"""


def docs_dedup_keep_longest(sf_dir: str, labels=None):
    """Dedup survivor policy #2 — keep the LONGEST document per near-dup
    cluster (ties by min doc_id) instead of the first occurrence: the
    usual alternative when near-dups are truncations of one another and
    the cluster minimum may be the clipped copy. Same accounting schema
    as ``docs_dedup_pipeline`` so the two policies compare directly.

    Scale shape: token counts reduce map-side (text never shuffles); one
    doc_id-bucketed cogroup join attaches cluster labels; then ONE
    cluster-bucketed exchange — every member of a cluster co-locates, so
    the argmax AND the kept/dropped accounting complete inside the
    bucket and only source-cardinality partials leave it."""
    from .common import grouped_sums, cogroup_join

    if labels is None:
        exact = (
            ngram_jaccard_groups(sf_dir)
            .filter(expr="a >= 0")  # drop df-cap audit rows; counts, not edges
            .select_columns(["a", "b"])
        )
        labels = dup_clusters(sf_dir, edges=exact)

    docs = _docs(sf_dir, columns=["doc_id", "source", "text"])

    def doc_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype(np.int64),
                "source": batch["source"].astype(object),
                "n_toks": np.fromiter(
                    (t.count(" ") + 1 for t in batch["text"]),
                    dtype=np.int64, count=len(batch),
                ),
            }
        )

    joined = cogroup_join(
        docs.map_batches(doc_rows, batch_format="pandas"), labels,
        "doc_id", "doc_id",
        ["doc_id", "source", "n_toks"], ["cluster"],
    )

    nb = 64

    def bucket(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["cluster"] = batch["cluster"].astype(np.int64)
        batch["__b"] = (
            pd.util.hash_array(batch["cluster"].to_numpy()) % nb
        ).astype(np.int64)
        return batch

    def solve(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["cluster", "n_toks", "doc_id"], ascending=[True, False, True],
            kind="mergesort",
        )
        win = g.groupby("cluster", sort=False).head(1)
        kept = g["doc_id"].isin(win["doc_id"]).astype(np.int64).to_numpy()
        nt = g["n_toks"].astype(np.int64).to_numpy()
        part = pd.DataFrame(
            {
                "source": g["source"].astype(object),
                "n_docs": np.int64(1),
                "n_kept": kept,
                "tokens_total": nt,
                "tokens_kept": nt * kept,
            }
        )
        return part.groupby("source", as_index=False, sort=False).sum()

    agg = grouped_sums(
        joined.map_batches(bucket, batch_format="pandas")
        .groupby("__b")
        .map_groups(solve, batch_format="pandas"),
        ["source"], ["n_docs", "n_kept", "tokens_total", "tokens_kept"],
    ).to_pandas()
    agg = agg.sort_values("source").reset_index(drop=True)
    for c in ("n_docs", "n_kept", "tokens_total", "tokens_kept"):
        agg[c] = agg[c].astype(np.int64)
    agg["kept_ppm"] = (
        agg["n_kept"].to_numpy() * 1_000_000 // agg["n_docs"].to_numpy()
    ).astype(np.int64)
    import ray.data

    return ray.data.from_pandas(agg)


DOCS_DEDUP_KEEP_LONGEST_SQL = f"""
WITH labels AS ({DUP_CLUSTERS_SQL.rstrip()}),
m AS (
    SELECT l.doc_id, l.cluster, d.source,
           len(string_split(d.text, ' ')) AS n_toks
    FROM labels l JOIN documents d USING (doc_id)
),
w AS (
    SELECT doc_id, cluster, source, n_toks,
           ROW_NUMBER() OVER (PARTITION BY cluster
                              ORDER BY n_toks DESC, doc_id) AS rn
    FROM m
)
SELECT source,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(CASE WHEN rn = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
       CAST(SUM(n_toks) AS BIGINT) AS tokens_total,
       CAST(SUM(CASE WHEN rn = 1 THEN n_toks ELSE 0 END) AS BIGINT) AS tokens_kept,
       CAST((1000000 * SUM(CASE WHEN rn = 1 THEN 1 ELSE 0 END)) // COUNT(*) AS BIGINT)
           AS kept_ppm
FROM w
GROUP BY source
ORDER BY source
"""
