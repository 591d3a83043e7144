"""Similarity search over the ``embeddings`` table (``list<float>`` dim-64).

- brute-force cosine top-k: numpy matmul per batch against a broadcast
  query matrix (the baseline; one pass over the corpus, no shuffle except
  the tiny per-query top-k combine),
- LSH-bucketed ANN: random-hyperplane signatures → bucket groupby → search
  only within buckets (the scale path; recall<1 by design).

Cosine values are fixed-point rounded (ppm) before ranking so ordering and
the DuckDB oracle are bit-stable across engines.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

_N_BITS = 4  # floor; ann_lsh derives the actual width from corpus size
_TARGET_BUCKET = 128  # aim for ~this many vectors per LSH bucket


def _hyperplanes(n_bits: int) -> np.ndarray:
    """Deterministic random hyperplanes for an n_bits-wide signature.

    Coefficients are QUANTIZED to integers (×2^10, stored as integer-valued
    float64): together with the ×2^20 embedding quantization in
    ``lsh_signature``, every product is ≤2^33 and every 64-term dot product
    ≤2^39 — exactly representable in float64, so the signature bit pattern
    is identical no matter the summation order and bit-reproducible in a
    DuckDB oracle (``ANN_LSH_SQL``). RandomState draws are a stream, so the
    first k rows of ``_hyperplanes(n)`` equal ``_hyperplanes(k)`` for k<n.
    """
    normal = np.random.RandomState(7).normal(size=(n_bits, 64))
    return np.floor(normal * 1024.0 + 0.5)


def _derive_n_bits(n_vectors: int) -> int:
    """Bucket-count scaling: 2^bits ≈ n / _TARGET_BUCKET (min _N_BITS).
    A fixed bit width is a test-scale constant that stops bucketing at
    corpus scale; this keeps expected bucket size roughly constant."""
    import math

    if n_vectors <= _TARGET_BUCKET:
        return _N_BITS
    return max(_N_BITS, math.ceil(math.log2(n_vectors / _TARGET_BUCKET)))


_HYPERPLANES = _hyperplanes(_N_BITS)


def _emb(sf_dir: str, columns=None):
    from ..runtime import read_parquet_sized

    # embeddings decompress ~8x from disk (list<float>) and the per-batch
    # kernel is a matmul — keep blocks smaller so compute parallelizes
    return read_parquet_sized(
        os.path.join(sf_dir, "embeddings.parquet"), columns=columns, floor_bytes=256 << 10
    )


def _emb_block_estimate(sf_dir: str) -> int:
    """Cheap block-count estimate for the embeddings read (file bytes /
    the 256 KiB floor ``_emb`` reads at) — used to decide whether a
    distributed pre-combine is worth its barrier cost."""
    try:
        return os.path.getsize(os.path.join(sf_dir, "embeddings.parquet")) // (256 << 10)
    except OSError:
        return 0


def _matrix(batch: pd.DataFrame) -> np.ndarray:
    return np.stack([np.asarray(v, dtype=np.float64) for v in batch["embedding"]])


def knn_bruteforce(sf_dir: str, k: int = 5, n_queries: int = 10):
    """Exact cosine top-k for queries ``vec_id < n_queries`` (self excluded).

    Per batch: one matmul candidates×queries; per-query top-k is resolved in
    a final per-query group fold over per-batch partial top-ks.
    """
    import ray

    ds = _emb(sf_dir, columns=["vec_id", "embedding"])
    qdf = ds.filter(expr=f"vec_id < {n_queries}").to_pandas()
    q = _matrix(qdf)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    queries_ref = ray.put((qdf["vec_id"].to_numpy(), qn))

    # elastic tasks, not an actor pool: the broadcast side is one ray.put,
    # each task's ray.get is a zero-copy read from the local object store,
    # and the stage scales to every free CPU with no per-query actor
    # startup (a fixed pool capped the matmul at pool-size CPUs AND paid
    # its spawn cost per driver query — measured as the dominant term on
    # small corpora)
    def score(batch: pd.DataFrame, *, _ref=queries_ref, _k=k) -> pd.DataFrame:
        qids, qmat = ray.get(_ref)
        c = _matrix(batch)
        cn = c / np.linalg.norm(c, axis=1, keepdims=True)
        sims = cn @ qmat.T  # candidates x queries
        sim_ppm = np.floor(sims * 1e6 + 0.5).astype(np.int64)
        cids = batch["vec_id"].to_numpy()
        out = []
        for j, qid in enumerate(qids):
            col = sim_ppm[:, j]
            mask = cids != qid
            ids, vals = cids[mask], col[mask]
            # partial top-k inside the batch: (sim desc, vec_id asc)
            order = np.lexsort((ids, -vals))[:_k]
            for i in order:
                out.append((int(qid), int(ids[i]), int(vals[i])))
        return pd.DataFrame(out, columns=["query_id", "vec_id", "sim_ppm"])

    partial = ds.map_batches(score, batch_format="pandas")

    def topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["sim_ppm", "vec_id"], ascending=[False, True], kind="mergesort").head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return partial.groupby("query_id").map_groups(topk, batch_format="pandas").sort(["query_id", "rank"])


KNN_SQL = """
WITH q AS (SELECT vec_id AS query_id, embedding FROM embeddings WHERE vec_id < 10),
scored AS (
    SELECT q.query_id, e.vec_id,
           CAST(FLOOR(list_cosine_similarity(e.embedding::DOUBLE[], q.embedding::DOUBLE[])*1000000 + 0.5) AS BIGINT) AS sim_ppm
    FROM embeddings e CROSS JOIN q
    WHERE e.vec_id <> q.query_id
),
ranked AS (
    SELECT query_id, vec_id, sim_ppm,
           ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY sim_ppm DESC, vec_id) AS rank
    FROM scored
)
SELECT query_id, vec_id, sim_ppm, rank
FROM ranked WHERE rank <= 5
ORDER BY query_id, rank
"""


def _score_block_pair(left, right, diagonal: bool, threshold_ppm: int):
    """Block-pair task: one matmul of two normalized blocks → the pairs at
    or above ``threshold_ppm``, as ``a < b``."""
    import pyarrow as pa

    empty = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                      "sim_ppm": pa.array([], pa.int64())})
    if len(left) == 0 or len(right) == 0:
        return empty
    li = np.asarray(left["vec_id"], dtype=np.int64)
    ri = np.asarray(right["vec_id"], dtype=np.int64)
    lm = np.stack([np.asarray(v, dtype=np.float64) for v in left["embedding"].to_pylist()])
    rm = np.stack([np.asarray(v, dtype=np.float64) for v in right["embedding"].to_pylist()])
    sim_ppm = np.floor(lm @ rm.T * 1e6 + 0.5).astype(np.int64)
    ii, jj = np.nonzero(sim_ppm >= threshold_ppm)
    a, b, v = li[ii], ri[jj], sim_ppm[ii, jj]
    keep = a < b  # canonical orientation; drops self and mirrors
    if not diagonal:
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        a, b = lo, hi
        keep = lo < hi
    return pa.table(
        {
            "a": pa.array(a[keep], pa.int64()),
            "b": pa.array(b[keep], pa.int64()),
            "sim_ppm": pa.array(v[keep], pa.int64()),
        }
    )


def emb_dup_pairs(sf_dir: str, threshold_ppm: int = 400_000):
    """Embedding-cosine near-duplicate pairs (exact similarity join, a < b).

    Block-pair decomposition — the scalable shape for an exact all-pairs
    join: the corpus is normalized into B blocks held as object-store refs
    (``to_arrow_refs`` — blocks never pass through the driver), and one Ray
    task per block pair (i ≤ j) does a single matmul and emits only the
    thresholded pairs. O(N²) work spreads over B(B+1)/2 independent tasks,
    each holding two blocks; no full-matrix broadcast, no driver
    materialization of the corpus. Only the (tiny) surviving pairs are
    gathered. The sub-quadratic approximate path is ``ann_lsh``/MinHash.
    """
    import ray.data as rd

    from ..runtime import remote_fn

    ds = _emb(sf_dir, columns=["vec_id", "embedding"])

    def normalize(batch: pd.DataFrame) -> pd.DataFrame:
        m = _matrix(batch)
        mn = m / np.linalg.norm(m, axis=1, keepdims=True)
        return pd.DataFrame({"vec_id": batch["vec_id"], "embedding": list(mn)})

    # block count from BYTES, not a constant: ~64 MB of decompressed
    # vectors per block (disk parquet ≈ 4x smaller), so block size is
    # bounded at any corpus size and the task count grows as B(B+1)/2 —
    # quadratic, which is inherent to an exact all-pairs join (the
    # sub-quadratic approximate path is ann_lsh/MinHash)
    nbytes = os.path.getsize(os.path.join(sf_dir, "embeddings.parquet")) * 4
    n_blocks = max(1, -(-nbytes // (64 << 20)))
    blocks = ds.map_batches(normalize, batch_format="pandas").repartition(n_blocks).to_arrow_refs()

    # surviving pairs land in a Dataset straight from the object store
    # (from_arrow_refs) — the driver never gathers the pair tables
    score_task = remote_fn(_score_block_pair)
    refs = []
    for i in range(len(blocks)):
        for j in range(i, len(blocks)):
            refs.append(score_task.remote(blocks[i], blocks[j], i == j, threshold_ppm))
    return rd.from_arrow_refs(refs).sort(["a", "b"])


EMB_DUP_PAIRS_SQL = """
SELECT a.vec_id AS a, b.vec_id AS b,
       CAST(FLOOR(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[])*1000000 + 0.5) AS BIGINT) AS sim_ppm
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE CAST(FLOOR(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[])*1000000 + 0.5) AS BIGINT) >= 400000
ORDER BY a, b
"""


def lsh_signature(m: np.ndarray, planes: np.ndarray | None = None) -> np.ndarray:
    """random-hyperplane signature per row (one bit per hyperplane).

    The embedding is quantized ×2^20 (exact: a power-of-two scale) so the
    dot products against the integer-quantized planes are exact integers
    carried in float64 — the sign test has no rounding ambiguity and the
    DuckDB twin reproduces the buckets bit-for-bit.
    """
    if planes is None:
        planes = _HYPERPLANES
    qm = np.floor(m * 1048576.0 + 0.5)
    bits = (qm @ planes.T) > 0
    return (bits * (1 << np.arange(len(planes)))).sum(axis=1).astype(np.int64)


def ann_lsh(sf_dir: str, k: int = 5, n_queries: int = 10, n_bits: int | None = None):
    """Approximate top-k: candidates restricted to the query's LSH bucket.

    The bucket groupby replaces the full scan — each group holds its bucket's
    candidates plus any co-bucketed queries; recall is approximate. Signature
    width scales with corpus size (``_derive_n_bits``) so buckets stay
    ~``_TARGET_BUCKET`` vectors at any scale.
    """
    import ray

    ds = _emb(sf_dir, columns=["vec_id", "embedding"])
    if n_bits is None:
        n_bits = _derive_n_bits(ds.count())
    if n_bits > _SQL_MAX_BITS:
        # the DuckDB twin embeds exactly _SQL_MAX_BITS planes; a wider
        # engine signature would silently diverge from the oracle — fail
        # loudly instead (reached only above ~128·2^24 ≈ 2.1e9 vectors)
        raise ValueError(
            f"n_bits={n_bits} exceeds the {_SQL_MAX_BITS}-plane ANN_LSH_SQL twin; "
            "widen _planes_sql_literal() alongside"
        )
    planes = _hyperplanes(n_bits)
    qdf = ds.filter(expr=f"vec_id < {n_queries}").to_pandas()
    q = _matrix(qdf)
    qsig = lsh_signature(q, planes)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    queries_ref = ray.put((qdf["vec_id"].to_numpy(), qn, qsig))
    planes_ref = ray.put(planes)

    def sign(batch: pd.DataFrame) -> pd.DataFrame:
        m = _matrix(batch)
        out = pd.DataFrame(
            {
                "vec_id": batch["vec_id"],
                "bucket": lsh_signature(m, ray.get(planes_ref)),
                "embedding": list(batch["embedding"]),
            }
        )
        # pre-shuffle prune: only buckets containing a QUERY can emit
        # results, so drop everything else before the exchange — the
        # shuffle moves ~n_queries x bucket_size rows instead of the
        # corpus, and the groupby sees <= n_queries groups instead of a
        # corpus-scale bucket count
        _, _, qsig_local = ray.get(queries_ref)
        return out[np.isin(out["bucket"].to_numpy(), qsig_local)]

    signed = ds.map_batches(sign, batch_format="pandas")

    def bucket_search(group: pd.DataFrame) -> pd.DataFrame:
            qids, qn, qsig = ray.get(queries_ref)  # zero-copy local fetch
            bucket = int(group["bucket"].iloc[0])
            sel = qsig == bucket
            if not sel.any():
                return pd.DataFrame(
                    {c: np.array([], dtype=np.int64) for c in ("query_id", "vec_id", "sim_ppm", "rank")}
                )
            c = _matrix(group)
            cn = c / np.linalg.norm(c, axis=1, keepdims=True)
            sims = cn @ qn[sel].T
            sim_ppm = np.floor(sims * 1e6 + 0.5).astype(np.int64)
            cids = group["vec_id"].to_numpy()
            out = []
            for j, qid in enumerate(qids[sel]):
                col = sim_ppm[:, j]
                mask = cids != qid
                ids, vals = cids[mask], col[mask]
                order = np.lexsort((ids, -vals))[:k]
                for rank, i in enumerate(order, 1):
                    out.append((int(qid), int(ids[i]), int(vals[i]), rank))
            return pd.DataFrame(out, columns=["query_id", "vec_id", "sim_ppm", "rank"])

    return signed.groupby("bucket").map_groups(bucket_search, batch_format="pandas").sort(["query_id", "rank"])


_SQL_MAX_BITS = 24


def _planes_sql_literal(max_bits: int = _SQL_MAX_BITS) -> str:
    """(bit, coeffs) VALUES rows for the first ``max_bits`` quantized
    hyperplanes — the stream property of ``_hyperplanes`` means the SQL
    twin can embed the widest plausible plane set once and mask to the
    corpus-derived ``n_bits`` at query time."""
    planes = _hyperplanes(max_bits)
    rows = []
    for bit, row in enumerate(planes):
        coeffs = ",".join(str(int(v)) for v in row)
        rows.append(f"({bit}, [{coeffs}]::DOUBLE[])")
    return ",\n    ".join(rows)


# DuckDB twin of ann_lsh (k=5, n_queries=10): identical integer-quantized
# signatures (embedding ×2^20, planes ×2^10 — all dot products exact; the
# BUCKET assignment is provably bit-identical), the same corpus-size-derived
# signature width, bucket-restricted candidates, and the same (sim_ppm desc,
# vec_id asc) top-k. The sim_ppm values themselves are float cosines floored
# to ppm — not provably exact across engines, but the identical recipe the
# long-green KNN_SQL / EMB_DUP_PAIRS_SQL oracles already rely on (a
# divergence would need a cosine within ~1 ulp of an x.5 ppm boundary).
ANN_LSH_SQL = f"""
WITH nb AS (
    SELECT CASE WHEN COUNT(*) <= 128 THEN 4
                ELSE GREATEST(4, CAST(CEIL(LOG2(COUNT(*) / 128.0)) AS BIGINT)) END AS n_bits
    FROM embeddings
),
planes(bit, coeffs) AS (VALUES
    {_planes_sql_literal()}
),
qe AS (
    SELECT vec_id, embedding::DOUBLE[] AS emb,
           list_transform(embedding::DOUBLE[], x -> FLOOR(x * 1048576.0 + 0.5)) AS qemb
    FROM embeddings
),
sig AS (
    SELECT e.vec_id,
           SUM(CASE WHEN list_inner_product(e.qemb, p.coeffs) > 0
                    THEN (1::BIGINT << p.bit) ELSE 0 END) AS bucket
    FROM qe e JOIN planes p ON p.bit < (SELECT n_bits FROM nb)
    GROUP BY e.vec_id
),
scored AS (
    SELECT q.vec_id AS query_id, c.vec_id,
           CAST(FLOOR(list_cosine_similarity(ce.emb, qv.emb) * 1000000 + 0.5) AS BIGINT) AS sim_ppm
    FROM sig q
    JOIN sig c ON q.bucket = c.bucket AND c.vec_id <> q.vec_id
    JOIN qe qv ON qv.vec_id = q.vec_id
    JOIN qe ce ON ce.vec_id = c.vec_id
    WHERE q.vec_id < 10
),
ranked AS (
    SELECT query_id, vec_id, sim_ppm,
           ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY sim_ppm DESC, vec_id) AS rank
    FROM scored
)
SELECT query_id, vec_id, sim_ppm, rank
FROM ranked WHERE rank <= 5
ORDER BY query_id, rank
"""


# ---------------------------------------------------------------------------
# IVF (inverted-file) ANN: coarse k-means quantizer + probe-list search


def _kmeans(m: np.ndarray, k: int, iters: int = 5, seed: int = 11) -> np.ndarray:
    """Tiny deterministic k-means on normalized vectors (coarse quantizer).
    At 100 TB the fit runs on a driver-side sample; assignment stays
    distributed — the standard IVF recipe."""
    rng = np.random.RandomState(seed)
    centroids = m[rng.choice(len(m), size=min(k, len(m)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(m @ centroids.T, axis=1)
        for c in range(len(centroids)):
            members = m[assign == c]
            if len(members):
                v = members.mean(axis=0)
                centroids[c] = v / max(np.linalg.norm(v), 1e-12)
    return centroids


def ivf_knn(sf_dir: str, k: int = 5, n_queries: int = 10, n_lists: int = 8, nprobe: int = 2):
    """IVF ANN: vectors bucketed by nearest centroid; each query searches
    only its ``nprobe`` closest lists (groupby co-locates each list)."""
    import ray

    ds = _emb(sf_dir, columns=["vec_id", "embedding"])
    # deterministic bounded sample for the quantizer fit: every step-th
    # vec_id, ≤ ~n_fit rows collected — never the whole corpus
    n_fit = 4096
    n = ds.count()
    step = max(1, n // n_fit)

    def pick(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch["vec_id"] % step == 0]

    sample = _matrix(ds.map_batches(pick, batch_format="pandas").to_pandas())
    sample = sample / np.linalg.norm(sample, axis=1, keepdims=True)
    centroids = _kmeans(sample, n_lists)

    qdf = ds.filter(expr=f"vec_id < {n_queries}").to_pandas()
    q = _matrix(qdf)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    probes = np.argsort(-(qn @ centroids.T), axis=1)[:, :nprobe]
    ref = ray.put((qdf["vec_id"].to_numpy(), qn, probes, centroids))

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        _ids, _qn, _probes, cents = ray.get(ref)
        c = _matrix(batch)
        cn = c / np.linalg.norm(c, axis=1, keepdims=True)
        lists = np.argmax(cn @ cents.T, axis=1)
        return pd.DataFrame(
            {"vec_id": batch["vec_id"], "ivf_list": lists, "embedding": list(batch["embedding"])}
        )

    assigned = ds.map_batches(assign, batch_format="pandas")

    def list_search(group: pd.DataFrame) -> pd.DataFrame:
        qids, qn_, probes_, _cents = ray.get(ref)
        lst = int(group["ivf_list"].iloc[0])
        sel = np.flatnonzero((probes_ == lst).any(axis=1))
        cols = ["query_id", "vec_id", "sim_ppm"]
        if not len(sel):
            return pd.DataFrame({c: np.array([], dtype=np.int64) for c in cols})
        c = _matrix(group)
        cn = c / np.linalg.norm(c, axis=1, keepdims=True)
        sims = cn @ qn_[sel].T
        sim_ppm = np.floor(sims * 1e6 + 0.5).astype(np.int64)
        cids = group["vec_id"].to_numpy()
        out = []
        for j, qi in enumerate(sel):
            qid = qids[qi]
            mask = cids != qid
            ids, vals = cids[mask], sim_ppm[:, j][mask]
            order = np.lexsort((ids, -vals))[:k]
            for i in order:
                out.append((int(qid), int(ids[i]), int(vals[i])))
        arr = np.array(out, dtype=np.int64).reshape(-1, 3)
        return pd.DataFrame({c: arr[:, i] for i, c in enumerate(cols)})

    partial = assigned.groupby("ivf_list").map_groups(list_search, batch_format="pandas")

    def topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["sim_ppm", "vec_id"], ascending=[False, True], kind="mergesort").head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return partial.groupby("query_id").map_groups(topk, batch_format="pandas").sort(["query_id", "rank"])


# ---------------------------------------------------------------------------
# SemDeDup-style semantic dedup: LSH buckets + exact cosine threshold


SEMDEDUP_TAU_PPM = 400_000


def emb_semantic_dedup(sf_dir: str, tau_ppm: int = SEMDEDUP_TAU_PPM, n_bits: int | None = None):
    """Embedding-space near-duplicate removal (the SemDeDup shape, with the
    LSH bucket standing in for the k-means cluster): a vector is a
    duplicate iff an EARLIER vector (smaller ``vec_id``) in its signature
    bucket has cosine similarity ≥ ``tau_ppm`` — first-occurrence-wins,
    the same keep rule as line dedup lifted to embeddings. Emits one row
    per vector: its bucket, the dup flag and its representative (the
    earliest similar bucket neighbor, itself when kept).

    Determinism / oracle parity: bucket assignment uses the
    integer-quantized signature (provably bit-identical in DuckDB, see
    ``lsh_signature``); the within-bucket cosine follows the long-green
    ppm recipe of ``KNN_SQL`` / ``EMB_DUP_PAIRS_SQL``.

    Scale shape: signature width grows with corpus size
    (``_derive_n_bits``) so buckets hold ~128 vectors; buckets hash into
    ~2×CPU coarse shards (one ``map_groups`` per SHARD, not per bucket —
    Ray's per-group overhead is paid per shard) and each bucket costs one
    b×b matmul. Like all LSH methods this trades recall for never
    comparing across buckets — cross-bucket near-dups are the documented
    miss; ``emb_dup_pairs`` is the exact quadratic check."""
    import ray

    from .common import _default_buckets

    ds = _emb(sf_dir, columns=["vec_id", "embedding"])
    if n_bits is None:
        n_bits = _derive_n_bits(ds.count())
    if n_bits > _SQL_MAX_BITS:
        raise ValueError(
            f"n_bits={n_bits} exceeds the {_SQL_MAX_BITS}-plane EMB_SEMANTIC_DEDUP_SQL "
            "twin; widen _planes_sql_literal() alongside"
        )
    planes_ref = ray.put(_hyperplanes(n_bits))
    nb = _default_buckets()

    def sign(batch: pd.DataFrame) -> pd.DataFrame:
        sig = lsh_signature(_matrix(batch), ray.get(planes_ref))
        return pd.DataFrame(
            {
                "vec_id": batch["vec_id"].to_numpy(np.int64),
                "bucket": sig,
                "embedding": list(batch["embedding"]),
                "__s": (pd.util.hash_array(sig) % nb).astype(np.int64),
            }
        )

    def shard_fold(shard: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for bucket, g in shard.groupby("bucket", sort=False):
            g = g.sort_values("vec_id", kind="mergesort")
            ids = g["vec_id"].to_numpy(np.int64)
            m = _matrix(g)
            mn = m / np.linalg.norm(m, axis=1, keepdims=True)
            sim_ppm = np.floor(mn @ mn.T * 1e6 + 0.5).astype(np.int64)
            # ids ascend within the bucket, so the strict lower triangle is
            # exactly the "earlier neighbor" relation
            hit = np.tril(sim_ppm >= tau_ppm, -1)
            any_hit = hit.any(axis=1)
            # first True per row = smallest similar vec_id (columns ascend)
            rep = np.where(any_hit, ids[hit.argmax(axis=1)], ids)
            outs.append(
                pd.DataFrame(
                    {
                        "vec_id": ids,
                        "bucket": np.full(len(ids), bucket, dtype=np.int64),
                        "is_dup": any_hit.astype(np.int64),
                        "rep_id": rep,
                    }
                )
            )
        return pd.concat(outs, ignore_index=True)

    signed = ds.map_batches(sign, batch_format="pandas")
    return signed.groupby("__s").map_groups(shard_fold, batch_format="pandas").sort("vec_id")


EMB_SEMANTIC_DEDUP_SQL = f"""
WITH nb AS (
    SELECT CASE WHEN COUNT(*) <= 128 THEN 4
                ELSE GREATEST(4, CAST(CEIL(LOG2(COUNT(*) / 128.0)) AS BIGINT)) END AS n_bits
    FROM embeddings
),
planes(bit, coeffs) AS (VALUES
    {_planes_sql_literal()}
),
qe AS (
    SELECT vec_id, embedding::DOUBLE[] AS emb,
           list_transform(embedding::DOUBLE[], x -> FLOOR(x * 1048576.0 + 0.5)) AS qemb
    FROM embeddings
),
sig AS (
    SELECT e.vec_id,
           CAST(SUM(CASE WHEN list_inner_product(e.qemb, p.coeffs) > 0
                         THEN (1::BIGINT << p.bit) ELSE 0 END) AS BIGINT) AS bucket
    FROM qe e JOIN planes p ON p.bit < (SELECT n_bits FROM nb)
    GROUP BY e.vec_id
),
hits AS (
    SELECT i.vec_id, MIN(j.vec_id) AS rep_min
    FROM sig i
    JOIN sig j ON i.bucket = j.bucket AND j.vec_id < i.vec_id
    JOIN qe ie ON ie.vec_id = i.vec_id
    JOIN qe je ON je.vec_id = j.vec_id
    WHERE CAST(FLOOR(list_cosine_similarity(ie.emb, je.emb) * 1000000 + 0.5) AS BIGINT)
          >= {SEMDEDUP_TAU_PPM}
    GROUP BY i.vec_id
)
SELECT s.vec_id, s.bucket,
       CAST(CASE WHEN h.rep_min IS NULL THEN 0 ELSE 1 END AS BIGINT) AS is_dup,
       COALESCE(h.rep_min, s.vec_id) AS rep_id
FROM sig s LEFT JOIN hits h ON h.vec_id = s.vec_id
ORDER BY s.vec_id
"""


# ---------------------------------------------------------------------------
# Quality-filtered per-source centroid: the big-big equi-join
# (documents ⋈ embeddings on doc_id — both sides corpus-sized)


CENTROID_MIN_QUALITY_PPM = 60_000  # ~median stopword ratio: keeps about half


def emb_quality_centroid(sf_dir: str, min_quality_ppm: int = CENTROID_MIN_QUALITY_PPM):
    """Per-source centroid of the embeddings of quality-filtered documents
    — the enrichment join every curation pipeline runs: ``documents``
    joined to ``embeddings`` on ``doc_id``, where BOTH sides are
    corpus-sized (every other join in this repo has a broadcast-small or
    vocabulary-sized side). The hash-bucketed cogroup join moves each
    side exactly once; the quality filter runs map-side BEFORE the join
    so the exchange carries only surviving (doc_id, source) pairs and
    the matching vectors.

    Determinism: each float32 component quantizes to ppm int64 (the
    long-green KNN recipe), sums are exact integer partials combined per
    (source, dim), and the mean uses TRUNCATING integer division —
    DuckDB's ``//`` truncates toward zero while numpy floors, and
    centroid sums go negative, so the engine matches DuckDB's semantics
    explicitly."""
    from .common import cogroup_join, grouped_sums
    from .text import stop_ratio_ppm_kernel

    def doc_filter(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        q = stop_ratio_ppm_kernel(batch["text"])
        keep = batch.loc[q >= min_quality_ppm, ["doc_id", "source"]]
        return keep

    from ..runtime import read_parquet_sized

    docs = read_parquet_sized(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "source", "text"]
    ).map_batches(doc_filter, batch_format="pandas")
    emb = _emb(sf_dir, columns=["vec_id", "embedding"])

    joined = cogroup_join(
        docs, emb, "doc_id", "vec_id", ["source"], ["embedding"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return pd.DataFrame(
                {
                    "source": pd.Series([], dtype=object),
                    "dim": pd.Series([], dtype=np.int64),
                    "sum_ppm": pd.Series([], dtype=np.int64),
                    "n_docs": pd.Series([], dtype=np.int64),
                }
            )
        mat = np.stack(
            [np.asarray(e, dtype=np.float32) for e in batch["embedding"]]
        ).astype(np.float64)
        q = np.floor(mat * 1e6 + 0.5).astype(np.int64)
        d = q.shape[1]
        out = []
        src = batch["source"].to_numpy(dtype=object)
        for s in pd.unique(src):
            m = src == s
            out.append(
                pd.DataFrame(
                    {
                        "source": s,
                        "dim": np.arange(d, dtype=np.int64),
                        "sum_ppm": q[m].sum(axis=0),
                        "n_docs": np.int64(int(m.sum())),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    sums = grouped_sums(
        joined.map_batches(partial, batch_format="pandas"),
        ["source", "dim"],
        ["sum_ppm", "n_docs"],
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch["sum_ppm"].to_numpy(np.int64)
        n = batch["n_docs"].to_numpy(np.int64)
        # truncating division toward zero == DuckDB's `//`
        cent = (np.abs(s) // n) * np.sign(s)
        return pd.DataFrame(
            {
                "source": batch["source"].to_numpy(dtype=object),
                "dim": batch["dim"].to_numpy(np.int64),
                "n_docs": n,
                "centroid_ppm": cent,
            }
        )

    return sums.map_batches(finish, batch_format="pandas").sort(["source", "dim"])


EMB_CENTROID_SQL = f"""
WITH q AS (
    SELECT doc_id, source FROM documents
    WHERE CAST(FLOOR(
        len(list_filter(string_split(text, ' '), w -> w IN ('the','a','and','of','to')))::DOUBLE
        / GREATEST(len(string_split(text, ' ')), 1) * 1000000 + 0.5) AS BIGINT)
        >= {CENTROID_MIN_QUALITY_PPM}
),
j AS (
    SELECT q.source, e.embedding
    FROM q JOIN embeddings e ON e.vec_id = q.doc_id
),
x AS (
    SELECT source,
           generate_subscripts(embedding, 1) - 1 AS dim,
           CAST(FLOOR(unnest(embedding)::DOUBLE * 1000000 + 0.5) AS BIGINT) AS v
    FROM j
)
SELECT source, CAST(dim AS BIGINT) AS dim, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(v) // COUNT(*) AS BIGINT) AS centroid_ppm
FROM x GROUP BY source, dim
ORDER BY source, dim
"""


# --- distributed k-means clustering (Lloyd) --------------------------------

KMEANS_K = 8
# unstructured (near-worst-case) synthetic embeddings converge in ~13
# Lloyd rounds at test scale; real clustered corpora converge faster
KMEANS_MAX_ITERS = 25


def _quantize_ppm(batch: pd.DataFrame) -> np.ndarray:
    """Embedding batch → exact ppm int64 matrix (the long-green centroid
    recipe: float32 → float64 → floor(x*1e6+0.5))."""
    mat = np.stack(
        [np.asarray(e, dtype=np.float32) for e in batch["embedding"]]
    ).astype(np.float64)
    return np.floor(mat * 1e6 + 0.5).astype(np.int64)


def kmeans_assign_kernel(q: np.ndarray, cents: np.ndarray):
    """Nearest-centroid assignment in EXACT int64 arithmetic.

    ``q`` (B×d) and ``cents`` (k×d) are ppm-quantized int64; squared
    euclidean distance per pair is ≤ d·(2·2^21)^2 ≈ 2^46 — far inside
    int64, so the argmin has no rounding ambiguity and ties break to the
    LOWEST cluster id (np.argmin first occurrence == the DuckDB twin's
    ``ORDER BY dist2, cluster`` row_number). Returns (labels, dist2)."""
    qq = np.sum(q * q, axis=1, keepdims=True)
    cc = np.sum(cents * cents, axis=1)
    d2 = qq - 2 * (q @ cents.T) + cc
    labels = d2.argmin(axis=1)
    return labels.astype(np.int64), d2[np.arange(len(q)), labels]


def _seed_centroids(emb, k: int) -> np.ndarray:
    """Deterministic seeding: the quantized vectors of the k SMALLEST
    vec_ids (cluster c = rank c in vec_id order). Distributed as a
    per-batch partial top-k (each block contributes ≤k candidate rows)
    folded once — no sort, no full materialization."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.nsmallest(k, "vec_id")

    cand = emb.map_batches(partial, batch_format="pandas").to_pandas()
    seed = cand.nsmallest(k, "vec_id").reset_index(drop=True)
    return _quantize_ppm(seed)


def kmeans_assign(sf_dir: str, k: int = KMEANS_K):
    """One exact Lloyd ASSIGNMENT step from the deterministic seed
    centroids: every vector labelled with its nearest seed (int64
    squared-euclidean over ppm-quantized components) — the step a DuckDB
    twin can replay bit-for-bit (``EMB_KMEANS_ASSIGN_SQL``). The full
    iterative loop is ``emb_kmeans``; this recorded step pins the
    assignment kernel both feed."""
    emb = _emb(sf_dir, columns=["vec_id", "embedding"])
    cents_ref = None

    from .common import broadcast

    cents_ref = broadcast(_seed_centroids(emb, k))

    def assign(batch: pd.DataFrame, _ref=cents_ref) -> pd.DataFrame:
        import ray

        cents = ray.get(_ref)
        q = _quantize_ppm(batch)
        labels, d2 = kmeans_assign_kernel(q, cents)
        return pd.DataFrame(
            {
                "vec_id": batch["vec_id"].to_numpy(np.int64),
                "cluster": labels,
                "dist2": d2.astype(np.int64),
            }
        )

    return emb.map_batches(assign, batch_format="pandas").sort("vec_id")


def emb_kmeans(sf_dir: str, k: int = KMEANS_K, max_iters: int = KMEANS_MAX_ITERS):
    """Full distributed Lloyd k-means over the embedding corpus.

    Shape (the iterative-refinement pattern): centroids are a k×d int64
    matrix broadcast via ``ray.put`` each round; one streaming pass per
    round assigns every vector and pre-aggregates per-cluster sufficient
    statistics INSIDE ``map_batches`` (each batch emits ≤k rows: count,
    inertia, and the d component sums), so the driver-side fold handles
    k·n_blocks tiny rows — never the corpus. Centroid update is the
    TRUNCATING integer mean (DuckDB ``//`` semantics, matching
    ``emb_quality_centroid``); empty clusters keep their previous
    centroid. Stops when the centroid matrix is unchanged — at that
    point the assignment is a fixed point by construction — or after
    ``max_iters``.

    Invariants raised on violation (not just tested):
      - exact-integer inertia may rise at most n·d per round (the
        truncated mean is within 1 ppm unit per component of the true
        mean: sum||v−c_trunc||² = sum||v−μ||² + n·||c_trunc−μ||² with
        ||c_trunc−μ||² < d), so inertia[i+1] ≤ inertia[i] + n·d must
        hold; a bigger jump means a broken assignment/update step.

    Returns a per-cluster frame: (cluster, n_vecs, inertia, n_iters,
    converged) — deterministic across runs and block orders."""
    import ray

    from .common import broadcast

    emb = _emb(sf_dir, columns=["vec_id", "embedding"])
    cents = _seed_centroids(emb, k)
    k = len(cents)
    d = cents.shape[1]

    def stats_pass(cents_ref):
        def part(batch: pd.DataFrame, _ref=cents_ref) -> pd.DataFrame:
            c = ray.get(_ref)
            q = _quantize_ppm(batch)
            labels, d2 = kmeans_assign_kernel(q, c)
            out = []
            for cl in np.unique(labels):
                m = labels == cl
                row = {"cluster": int(cl), "n": int(m.sum()), "inertia": int(d2[m].sum())}
                sums = q[m].sum(axis=0)
                for j in range(d):
                    row[f"s{j}"] = int(sums[j])
                out.append(row)
            return pd.DataFrame(out)

        # the driver fold handles k·n_blocks partial rows per round; at
        # large block counts (10^6 blocks × k=8 × 10 rounds ≈ 10^8 tiny
        # rows) one distributed bucketed combine caps what the driver
        # sees at ≤k rows. The combine is a sort barrier (~0.3 s/round
        # of fixed cost), so it switches on only when the block-count
        # estimate says the driver-side rows would actually be large —
        # at bench scale the direct driver fold is strictly faster.
        partial = emb.map_batches(part, batch_format="pandas")
        if _emb_block_estimate(sf_dir) > 4096:
            from .common import bucketed_group_agg

            agg_cols = {"n": "sum", "inertia": "sum", **{f"s{j}": "sum" for j in range(d)}}
            partial = bucketed_group_agg(partial, ["cluster"], agg_cols)
        p = partial.to_pandas()
        return p.groupby("cluster", sort=True).sum()

    inertia_prev = None
    n_total = None
    iters = 0
    converged = False
    final = None
    while iters < max_iters:
        agg = stats_pass(broadcast(cents))
        iters += 1
        inertia = int(agg["inertia"].sum())
        n_total = int(agg["n"].sum())
        if inertia_prev is not None and inertia > inertia_prev + n_total * d:
            raise RuntimeError(
                f"emb_kmeans: inertia rose {inertia_prev} -> {inertia} "
                f"beyond the truncation bound n*d={n_total * d} at iter {iters}"
            )
        inertia_prev = inertia
        new_cents = cents.copy()
        for cl, row in agg.iterrows():
            n = int(row["n"])
            s = row[[f"s{j}" for j in range(d)]].to_numpy(np.int64)
            # truncating division toward zero == DuckDB `//` on negatives
            new_cents[int(cl)] = (np.abs(s) // n) * np.sign(s)
        final = agg
        if np.array_equal(new_cents, cents):
            converged = True
            break
        cents = new_cents

    out = pd.DataFrame(
        {
            "cluster": final.index.to_numpy(np.int64),
            "n_vecs": final["n"].to_numpy(np.int64),
            "inertia": final["inertia"].to_numpy(np.int64),
        }
    )
    out["n_iters"] = np.int64(iters)
    out["converged"] = bool(converged)
    return out


# DuckDB twin of kmeans_assign: seed centroids are the k lowest vec_ids'
# quantized vectors; distance is exact integer squared euclidean; ties in
# dist2 break to the lowest cluster id on both engines.
EMB_KMEANS_ASSIGN_SQL = f"""
WITH init AS (
    SELECT vec_id, ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cluster
    FROM embeddings ORDER BY vec_id LIMIT {KMEANS_K}
),
x AS (
    SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS dim,
           CAST(FLOOR(unnest(embedding)::DOUBLE * 1000000 + 0.5) AS BIGINT) AS v
    FROM embeddings
),
c AS (
    SELECT i.cluster, x.dim, x.v FROM init i JOIN x ON x.vec_id = i.vec_id
),
d AS (
    SELECT x.vec_id, c.cluster,
           CAST(SUM((x.v - c.v) * (x.v - c.v)) AS BIGINT) AS dist2
    FROM x JOIN c ON x.dim = c.dim
    GROUP BY x.vec_id, c.cluster
),
r AS (
    SELECT vec_id, cluster, dist2,
           ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY dist2, cluster) AS rn
    FROM d
)
SELECT vec_id, CAST(cluster AS BIGINT) AS cluster, dist2
FROM r WHERE rn = 1 ORDER BY vec_id
"""


# --- greedy k-center diversity coreset --------------------------------------

KCENTER_K = 8
_KC_SCALE = 1048576.0  # ×2^20, the ANN path's exact power-of-two quantization


def _kc_quantize(batch: pd.DataFrame) -> np.ndarray:
    """Integer-quantized embedding matrix (exact: |q| < 2^21, so a 64-dim
    squared L2 distance is < 2^48 — exact int64, no rounding ambiguity,
    bit-reproducible in DuckDB)."""
    return np.floor(_matrix(batch) * _KC_SCALE + 0.5).astype(np.int64)


def kcenter_block_best(
    q: np.ndarray, ids: np.ndarray, centers: np.ndarray, selected: set
) -> tuple[int, int, np.ndarray] | None:
    """Pure per-block kernel: (max min-distance-to-centers, min vec_id
    among the argmax rows, that row's quantized vector), excluding
    already-selected ids. None when the block holds no candidate. The
    vector rides along so the driver never re-scans the corpus to fetch
    a selected center."""
    dmin = ((q[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    # vectorized exclusion — this kernel streams the whole corpus k times
    mask = ~np.isin(ids, np.fromiter(selected, np.int64, len(selected)))
    if not mask.any():
        return None
    dmin = np.where(mask, dmin, -1)
    best = int(dmin.max())
    if best < 0:
        return None
    hit = (dmin == best) & mask
    row = int(np.flatnonzero(hit)[ids[hit].argmin()])
    return best, int(ids[row]), q[row]


def emb_kcenter(sf_dir: str, k: int = KCENTER_K):
    """Greedy k-center diversity coreset (Gonzalez 2-approximation — the
    facility-location selection a curation pipeline uses to pick a
    maximally spread training subset): start from the min vec_id, then
    repeatedly select the vector farthest from the selected set
    (exact integer squared L2 over ×2^20-quantized embeddings; ties by
    min vec_id). Output: every vector assigned to its nearest of the k
    centers (ties by min center id) with the exact distance.

    Distributed shape: k rounds, each ONE streaming map pass (distances
    against the ≤k broadcast centers, k×dim int64 — trivially small)
    emitting one candidate row per BLOCK, plus a driver reduce over
    those ~n_blocks rows; then one final assignment pass. Nothing
    corpus-sized is ever collected or shuffled — the k-pass recompute
    (instead of pinning a materialized quantized copy) is deliberate:
    at 100 TB the object store cannot hold the corpus, and the read is
    pruned to two columns. Driver state: k ids + a k×dim int matrix."""
    ds = _emb(sf_dir, columns=["vec_id", "embedding"])

    # seed: the min-vec_id row — one pass emitting each block's min row,
    # driver keeps the global min (id + quantized vector)
    def block_min(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["vec_id"].to_numpy(np.int64)
        row = int(ids.argmin())
        return pd.DataFrame(
            {"vec_id": [np.int64(ids[row])], "q": [_kc_quantize(batch)[row].tolist()]}
        )

    seeds = ds.map_batches(block_min, batch_format="pandas").to_pandas()
    seed = seeds.sort_values("vec_id").iloc[0]
    selected = [int(seed["vec_id"])]
    centers = np.asarray([seed["q"]], dtype=np.int64)

    while len(selected) < k:
        sel_set = set(selected)
        cmat = centers

        def block_best(batch: pd.DataFrame) -> pd.DataFrame:
            got = kcenter_block_best(
                _kc_quantize(batch), batch["vec_id"].to_numpy(np.int64), cmat, sel_set
            )
            if got is None:
                return pd.DataFrame(
                    {
                        "d": pd.Series([], dtype=np.int64),
                        "vec_id": pd.Series([], dtype=np.int64),
                        "q": pd.Series([], dtype=object),
                    }
                )
            return pd.DataFrame(
                {"d": [np.int64(got[0])], "vec_id": [np.int64(got[1])], "q": [got[2].tolist()]}
            )

        part = ds.map_batches(block_best, batch_format="pandas").to_pandas()
        if part.empty:
            break  # fewer than k distinct vectors
        top = part.sort_values(["d", "vec_id"], ascending=[False, True]).iloc[0]
        selected.append(int(top["vec_id"]))
        centers = np.vstack([centers, np.asarray(top["q"], dtype=np.int64)])

    cid = np.array(selected, dtype=np.int64)
    cmat = centers

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        q = _kc_quantize(batch)
        d = ((q[:, None, :] - cmat[None, :, :]) ** 2).sum(axis=2)
        # nearest center; ties by MIN center id — order columns by id first
        order = np.argsort(cid, kind="stable")
        d_ord = d[:, order]
        pick = d_ord.argmin(axis=1)  # argmin takes the FIRST (lowest id) tie
        rows = np.arange(len(q))
        return pd.DataFrame(
            {
                "vec_id": batch["vec_id"].to_numpy(np.int64),
                "center_id": cid[order][pick],
                "dist_sq": d_ord[rows, pick],
            }
        )

    return ds.map_batches(assign, batch_format="pandas").sort("vec_id")


def _kcenter_sql(k: int = KCENTER_K) -> str:
    """Chained-CTE twin: the same greedy selection, one CTE per round."""
    parts = [
        f"""x AS (
    SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
           CAST(FLOOR(unnest(embedding)::DOUBLE * {_KC_SCALE} + 0.5) AS BIGINT) AS v
    FROM embeddings
),
dists AS MATERIALIZED (
    -- materialized: referenced by every selection round below; the
    -- unnest+dim-join shape beats per-pair list lambdas ~100x here
    SELECT a.vec_id AS va, b.vec_id AS vb,
           CAST(SUM((a.v - b.v) * (a.v - b.v)) AS BIGINT) AS d2
    FROM x a JOIN x b ON a.dim = b.dim
    GROUP BY a.vec_id, b.vec_id
),
s0 AS (SELECT MIN(vec_id) AS c FROM embeddings)"""
    ]
    for i in range(1, k):
        # each round's center set is MATERIALIZED: s(i) references
        # s(i-1) three times, so an inlined chain re-expands 3^k ways
        parts.append(
            f"""s{i} AS MATERIALIZED (
    SELECT c FROM s{i - 1}
    UNION ALL
    SELECT va FROM (
        SELECT va, MIN(d2) AS dmin FROM dists
        WHERE vb IN (SELECT c FROM s{i - 1}) AND va NOT IN (SELECT c FROM s{i - 1})
        GROUP BY va ORDER BY dmin DESC, va ASC LIMIT 1))"""
        )
    return (
        "WITH "
        + ",\n".join(parts)
        + f"""
SELECT va AS vec_id, vb AS center_id, d2 AS dist_sq
FROM (
    SELECT va, vb, d2,
           ROW_NUMBER() OVER (PARTITION BY va ORDER BY d2 ASC, vb ASC) AS rn
    FROM dists WHERE vb IN (SELECT c FROM s{k - 1})
) WHERE rn = 1
ORDER BY vec_id"""
    )


EMB_KCENTER_SQL = _kcenter_sql()


# --- product quantization codes ----------------------------------------------

PQ_SUBS = 8  # subspaces (64-dim → 8 × 8-dim)
PQ_K = 16  # codewords per subspace → 4 bits/code, 32-bit packed vector code


def emb_pq_codes(sf_dir: str, n_subs: int = PQ_SUBS, k: int = PQ_K):
    """Product-quantization encoding: split each embedding into
    ``n_subs`` contiguous subspaces and code each against that
    subspace's ``k`` seed codewords (the deterministic k-smallest-vec_id
    seeds — the same convention as ``kmeans_assign``), packing the codes
    into one integer (4 bits per subspace at k=16) plus the total exact
    int64 quantization error. PQ is the memory-scale path for ANN at
    10^12 vectors: 64 float32 dims (256 B) compress to a 4-byte code
    against a broadcast 16×64 codebook.

    Distributed shape: one tiny seed fold (per-block ≤k candidates),
    codebook broadcast once via the object store, then ONE streaming
    assignment pass (vectorized (n, k, subs) distance tensor per batch).
    Exact integer ppm distances → the DuckDB twin replays codes and
    error bit-for-bit (ties by lowest codeword index in both engines).
    ``EMB_PQ_SQL`` pins the DEFAULTS (8 subspaces × 8 dims, k=16, 4-bit
    shifts); non-default calls are engine-only and guarded (k ≤ 16,
    dim divisible by n_subs)."""
    import ray

    from .common import broadcast

    if k > 16:
        # 4-bit shifts are hardcoded (and pinned by EMB_PQ_SQL); codewords
        # ≥16 would bleed into the next subspace's bit field silently
        raise ValueError(f"emb_pq_codes packs 4 bits per subspace; k={k} > 16")

    emb = _emb(sf_dir, columns=["vec_id", "embedding"])
    cents_ref = broadcast(_seed_centroids(emb, k))

    def encode(batch: pd.DataFrame, _ref=cents_ref) -> pd.DataFrame:
        cents = ray.get(_ref)  # (k, dim) ppm ints
        q = _quantize_ppm(batch)  # (n, dim)
        n, dim = q.shape
        if dim % n_subs:
            raise ValueError(f"dim {dim} not divisible by n_subs {n_subs}")
        sub_dim = dim // n_subs
        qs = q.reshape(n, n_subs, sub_dim)
        cs = cents.reshape(k, n_subs, sub_dim)
        # (n, k, n_subs) exact int64 squared distances per subspace
        d = ((qs[:, None, :, :] - cs[None, :, :, :]) ** 2).sum(axis=3)
        code = d.argmin(axis=1)  # first minimum = lowest codeword index
        rows = np.arange(n)[:, None]
        dmin = d[rows, code, np.arange(n_subs)[None, :]]
        shifts = (4 * np.arange(n_subs, dtype=np.int64))[None, :]
        return pd.DataFrame(
            {
                "vec_id": batch["vec_id"].to_numpy(np.int64),
                "pq_code": (code.astype(np.int64) << shifts).sum(axis=1),
                "dist2_total": dmin.sum(axis=1).astype(np.int64),
            }
        )

    return emb.map_batches(encode, batch_format="pandas").sort("vec_id")


EMB_PQ_SQL = f"""
WITH init AS (
    SELECT vec_id, ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cluster
    FROM embeddings ORDER BY vec_id LIMIT {PQ_K}
),
x AS (
    SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS dim,
           CAST(FLOOR(unnest(embedding)::DOUBLE * 1000000 + 0.5) AS BIGINT) AS v
    FROM embeddings
),
xs AS (SELECT vec_id, dim // 8 AS sub, dim, v FROM x),
c AS (
    SELECT i.cluster, xs.sub, xs.dim, xs.v FROM init i JOIN xs ON xs.vec_id = i.vec_id
),
d AS (
    -- dim equality implies same subspace, so the join needs no sub key
    SELECT xs.vec_id, xs.sub, c.cluster,
           CAST(SUM((xs.v - c.v) * (xs.v - c.v)) AS BIGINT) AS dist2
    FROM xs JOIN c ON xs.dim = c.dim
    GROUP BY 1, 2, 3
),
r AS (
    SELECT vec_id, sub, cluster, dist2,
           ROW_NUMBER() OVER (PARTITION BY vec_id, sub ORDER BY dist2, cluster) AS rn
    FROM d
)
SELECT vec_id,
       CAST(SUM(cluster << CAST(4 * sub AS INTEGER)) AS BIGINT) AS pq_code,
       CAST(SUM(dist2) AS BIGINT) AS dist2_total
FROM r WHERE rn = 1
GROUP BY vec_id ORDER BY vec_id
"""


# --- embedding outlier detection ---------------------------------------------

OUTLIER_Q_PPM = 950_000  # per-cluster p95 distance threshold


def emb_outliers(sf_dir: str, q_ppm: int = OUTLIER_Q_PPM):
    """Embedding anomaly detection: every vector flagged against its
    CLUSTER's p95 distance threshold — the curation pass that drops
    corrupt/off-manifold embeddings before training. Cluster = the
    deterministic-seed nearest-centroid assignment (``kmeans_assign``);
    threshold = the exact k-th smallest dist2 within the cluster,
    k = integer-ceil(q·n_c) — found by the repo's distributed counting
    selection, generalized per group (``exact_grouped_quantile_int``:
    one histogram pass narrows EVERY cluster's range ~1024×, nothing
    but (cluster, bin, count) rows leave the workers).

    Distributed shape: assignment map pass → ≤ ceil(log1024(domain))
    counting passes → one final flag pass with the KB-sized threshold
    table in the closure. No sort, no corpus-sized shuffle anywhere."""
    from .relational import exact_grouped_quantile_int

    assigned = kmeans_assign(sf_dir)
    thr = exact_grouped_quantile_int(assigned, "cluster", "dist2", q_ppm)
    thr_map = {gk: v for gk, (_n, _k, v) in thr.items()}

    def flag(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["cluster"].map(thr_map).to_numpy(np.int64)
        return pd.DataFrame(
            {
                "vec_id": batch["vec_id"].to_numpy(np.int64),
                "cluster": batch["cluster"].to_numpy(np.int64),
                "dist2": batch["dist2"].to_numpy(np.int64),
                "thr_dist2": t,
                "is_outlier": (batch["dist2"].to_numpy(np.int64) > t).astype(np.int64),
            }
        )

    return assigned.map_batches(flag, batch_format="pandas").sort("vec_id")


EMB_OUTLIERS_SQL = f"""
WITH a AS ({EMB_KMEANS_ASSIGN_SQL}),
r AS (
    SELECT vec_id, cluster, dist2,
           ROW_NUMBER() OVER (PARTITION BY cluster ORDER BY dist2, vec_id) AS rn,
           COUNT(*) OVER (PARTITION BY cluster) AS cnt
    FROM a
),
t AS (
    -- integer ceil rank: same formula as the engine, no float CEIL
    SELECT cluster, dist2 AS thr FROM r
    WHERE rn = ({OUTLIER_Q_PPM} * cnt + 999999) // 1000000
)
SELECT a.vec_id, a.cluster, a.dist2, t.thr AS thr_dist2,
       CAST(a.dist2 > t.thr AS BIGINT) AS is_outlier
FROM a JOIN t USING (cluster)
ORDER BY a.vec_id
"""


# ---------------------------------------------------------------------------
# Z-order (Morton) locality key: space-filling-curve clustering for writes


ZORDER_DIMS = 3  # leading embedding dims interleaved
ZORDER_BITS = 10  # bits per dim → 30-bit key
ZORDER_LO_PPM = -1_000_000  # quantization window [-1, 1] in ppm
ZORDER_SPAN_PPM = 2_000_000
ZORDER_BUCKET_SHIFT = (ZORDER_BITS - 4) * ZORDER_DIMS  # top 4 bits/dim → 4096 buckets


def zorder_quantize(mat_ppm: np.ndarray) -> np.ndarray:
    """ppm matrix (n × ZORDER_DIMS) → 10-bit cell coordinates, integer
    ops only: clamp((ppm + 1e6) · 1024 // 2e6, 0, 1023)."""
    q = ((mat_ppm - ZORDER_LO_PPM) * (1 << ZORDER_BITS)) // ZORDER_SPAN_PPM
    return np.clip(q, 0, (1 << ZORDER_BITS) - 1).astype(np.int64)


def zorder_key(q: np.ndarray) -> np.ndarray:
    """Bit-interleave (Morton): bit b of dim d lands at 3·b + (2−d), so
    dim 0 is the most significant within each bit triplet."""
    z = np.zeros(len(q), dtype=np.int64)
    for b in range(ZORDER_BITS):
        for d in range(ZORDER_DIMS):
            z |= ((q[:, d] >> b) & 1) << (ZORDER_DIMS * b + (ZORDER_DIMS - 1 - d))
    return z


def emb_zorder(sf_dir: str):
    """Space-filling-curve clustering key per embedding: quantize the
    leading ``ZORDER_DIMS`` coordinates to 10-bit cells (the shared
    ppm-floor recipe), bit-interleave into a Morton key, and derive the
    write bucket from the key's top 4 bits per dim.

    Why this is a 100 TB operator: writing a corpus ordered by ``zkey``
    co-locates spatial neighbors into the same files/partitions, so
    range-partitioned output serves locality-sensitive consumers (ANN
    shard builds, near-dup block scans) without any per-query shuffle —
    the layout step lakehouse writers (Delta/Iceberg Z-ORDER) run before
    handing data to retrieval. The key derivation is map-only; the
    only exchange is the final key sort, which at scale becomes the
    range-partitioned write itself. ``zbucket`` guarantees a hard
    locality bound inside every bucket (same top-4 bits per dim ⇒ cell
    distance < 2^6 per dim — property-tested); bucket-size skew under
    non-uniform data is handled downstream by the same salting the fold
    paths use, or by splitting hot buckets on longer prefixes.

    Bit-exact in DuckDB (``EMB_ZORDER_SQL``): same ppm floor, same
    integer bit arithmetic, 30 generated interleave terms."""
    ds = _emb(sf_dir)

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        ppm = _quantize_ppm(batch)[:, :ZORDER_DIMS]
        z = zorder_key(zorder_quantize(ppm))
        return pd.DataFrame(
            {
                "vec_id": batch["vec_id"].to_numpy(np.int64),
                "zkey": z,
                "zbucket": z >> ZORDER_BUCKET_SHIFT,
            }
        )

    return ds.map_batches(derive, batch_format="pandas").sort(["zkey", "vec_id"])


def _zorder_terms_sql() -> str:
    terms = []
    for b in range(ZORDER_BITS):
        for d in range(ZORDER_DIMS):
            terms.append(f"(((q{d} >> {b}) & 1) << {ZORDER_DIMS * b + (ZORDER_DIMS - 1 - d)})")
    return " + ".join(terms)


def _zorder_q_sql(d: int) -> str:
    ppm = f"CAST(FLOOR(embedding[{d + 1}]::DOUBLE * 1000000 + 0.5) AS BIGINT)"
    raw = f"(({ppm} - ({ZORDER_LO_PPM})) * {1 << ZORDER_BITS}) // {ZORDER_SPAN_PPM}"
    return f"LEAST(GREATEST({raw}, 0), {(1 << ZORDER_BITS) - 1})"


EMB_ZORDER_SQL = f"""
WITH q AS (
    SELECT vec_id,
           {", ".join(f"{_zorder_q_sql(d)} AS q{d}" for d in range(ZORDER_DIMS))}
    FROM embeddings
),
z AS (SELECT vec_id, {_zorder_terms_sql()} AS zkey FROM q)
SELECT vec_id, CAST(zkey AS BIGINT) AS zkey,
       CAST(zkey >> {ZORDER_BUCKET_SHIFT} AS BIGINT) AS zbucket
FROM z ORDER BY zkey, vec_id
"""


# ---------------------------------------------------------------------------
# ANN quality evaluation: recall@k of the LSH search vs exact KNN


def emb_ann_recall(sf_dir: str, k: int = 5, n_queries: int = 10):
    """Recall@k of the LSH-bucketed ANN search against the exact
    brute-force top-k — retrieval-quality evaluation AS a pipeline, the
    loop every production ANN deployment runs before trading exactness
    for sublinear search. Both result sets are (n_queries × k)-bounded
    BY CONSTRUCTION at any corpus size (the corpus-scale work happens
    inside the two underlying ops), so the hit join is a driver-side
    merge over parameter-sized frames — this is the documented
    small-result exception, not a corpus materialization.

    ``recall_ppm = n_hit · 1e6 // n_exact`` per query; queries whose LSH
    bucket surfaced nothing count 0. Bit-exact in DuckDB
    (``EMB_ANN_RECALL_SQL`` composes the two ops' own twins)."""
    exact = knn_bruteforce(sf_dir, k=k, n_queries=n_queries).to_pandas()
    approx = ann_lsh(sf_dir, k=k, n_queries=n_queries).to_pandas()
    hits = exact.merge(approx[["query_id", "vec_id"]], on=["query_id", "vec_id"])
    per = (
        exact.groupby("query_id")
        .size()
        .rename("n_exact")
        .to_frame()
        .join(approx.groupby("query_id").size().rename("n_approx"))
        .join(hits.groupby("query_id").size().rename("n_hit"))
        .fillna(0)
        .astype(np.int64)
        .reset_index()
    )
    per["recall_ppm"] = (per["n_hit"] * 1_000_000) // np.maximum(per["n_exact"], 1)
    per = per.sort_values("query_id").reset_index(drop=True)

    import ray.data

    return ray.data.from_pandas(per)


EMB_ANN_RECALL_SQL = f"""
WITH exact AS ({KNN_SQL}),
approx AS ({ANN_LSH_SQL}),
hit AS (
    SELECT exact.query_id, COUNT(*) AS n_hit
    FROM exact JOIN approx USING (query_id, vec_id)
    GROUP BY exact.query_id
),
per AS (
    SELECT e.query_id,
           COUNT(*) AS n_exact,
           (SELECT COUNT(*) FROM approx a WHERE a.query_id = e.query_id) AS n_approx,
           COALESCE(MIN(hit.n_hit), 0) AS n_hit
    FROM exact e LEFT JOIN hit ON hit.query_id = e.query_id
    GROUP BY e.query_id
)
SELECT query_id, CAST(n_exact AS BIGINT) AS n_exact,
       CAST(n_approx AS BIGINT) AS n_approx, CAST(n_hit AS BIGINT) AS n_hit,
       CAST((n_hit * 1000000) // GREATEST(n_exact, 1) AS BIGINT) AS recall_ppm
FROM per ORDER BY query_id
"""


# ---------------------------------------------------------------------------
# Exact second-moment (Gram) matrix: the sufficient statistics for PCA /
# whitening / covariance over the embedding column, computed as ONE
# streaming pass of mergeable integer partials — the textbook "sufficient
# statistics, not data movement" decomposition: each block contributes its
# d x d integer Q^T Q (one int64 matmul), per-dimension sums and a row
# count; only KB-sized partial tables (d*(d+1)/2 upper-triangle rows per
# block) ever shuffle. No corpus-sized exchange, no driver materialization
# of vectors, trivially resumable per block.


def emb_covariance(sf_dir: str):
    """Upper-triangle exact moments over ×2^20-quantized embeddings.

    Output per (i <= j): ``i, j, n, sum_i, sum_j, sum_ij`` — all exact
    int64; covariance/correlation derive downstream as
    (n*sum_ij - sum_i*sum_j) / n^2 without touching the corpus again.
    Quantization is the long-green ANN construct (float32 -> DOUBLE ->
    floor(x * 2^20 + 0.5)), bit-identical in DuckDB. int64 headroom is
    guarded at BOTH levels (numpy wraps where DuckDB's HUGEINT keeps
    going — the documented engine/twin divergence class): the partial
    kernel raises past 2^20 rows per block, and the merged totals carry
    the global max|q| through the reduce so the final validation raises
    when n * max|q|^2 exceeds int64 — covering cross-block accumulation
    and non-unit-norm inputs alike."""
    from .common import grouped_sums

    emb = _emb(sf_dir, columns=["embedding"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return pd.DataFrame(
                {c: pd.Series([], dtype=np.int64)
                 for c in ("i", "j", "n", "sum_i", "sum_j", "sum_ij")}
            )
        if len(batch) > (1 << 20):
            raise ValueError(
                f"emb_covariance: {len(batch)} rows in one block exceeds the "
                "int64 partial-sum headroom (2^20); lower the block size"
            )
        mat = np.stack(
            [np.asarray(e, dtype=np.float32) for e in batch["embedding"]]
        ).astype(np.float64)
        q = np.floor(mat * 1048576.0 + 0.5).astype(np.int64)
        d = q.shape[1]
        gram = q.T @ q  # int64 matmul: exact
        s = q.sum(axis=0)
        iu, ju = np.triu_indices(d)
        maxq = int(np.abs(q).max()) if len(q) else 0
        return pd.DataFrame(
            {
                "i": iu.astype(np.int64),
                "j": ju.astype(np.int64),
                "n": np.int64(len(q)),
                "sum_i": s[iu],
                "sum_j": s[ju],
                "sum_ij": gram[iu, ju],
                "maxq": np.int64(maxq),
            }
        )

    from .common import bucketed_group_agg

    parts = emb.map_batches(partial, batch_format="pandas")
    out = bucketed_group_agg(
        parts, ["i", "j"],
        {"n": "sum", "sum_i": "sum", "sum_j": "sum", "sum_ij": "sum", "maxq": "max"},
    )

    def validate(batch: pd.DataFrame) -> pd.DataFrame:
        # CROSS-block wrap guard: |sum_ij| <= n * maxq^2 must fit int64.
        # The numpy/pandas reduce wraps silently where DuckDB's HUGEINT
        # SUM keeps going — the documented engine/twin divergence class —
        # so the bound is checked on the merged totals, not just per block.
        if len(batch):
            bound = batch["n"].astype(object) * (batch["maxq"].astype(object) ** 2)
            if (bound > (1 << 62)).any():
                raise ValueError(
                    "emb_covariance: n * max|q|^2 exceeds int64 — the merged "
                    "moments would wrap; shard the corpus or rescale"
                )
        return batch.drop(columns=["maxq"])

    return out.map_batches(validate, batch_format="pandas").sort(["i", "j"])


EMB_COVARIANCE_SQL = """
WITH q AS MATERIALIZED (
    SELECT vec_id, g.i - 1 AS dim,
           CAST(FLOOR(e[g.i] * 1048576.0 + 0.5) AS BIGINT) AS v
    FROM (SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings) t,
         UNNEST(generate_series(1, len(e))) AS g(i)
)
SELECT a.dim AS i, b.dim AS j,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(a.v) AS BIGINT) AS sum_i,
       CAST(SUM(b.v) AS BIGINT) AS sum_j,
       CAST(SUM(a.v * b.v) AS BIGINT) AS sum_ij
FROM q a JOIN q b ON b.vec_id = a.vec_id AND b.dim >= a.dim
GROUP BY 1, 2
ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# Top principal component by deterministic integer power iteration over the
# second-moment statistics — the step after ``emb_covariance``: the corpus
# never gets touched again; the d x d centered-covariance NUMERATOR matrix
# M[i,j] = n*sum_ij - sum_i*sum_j is driver-bounded (the repo's
# mixture-budget class of "corpus-scale rollup, bounded driver
# allocation"), and 16 fixed rounds of (multiply, rescale to 2^20 by
# truncating division) are bit-reproducible in DuckDB HUGEINT. All engine
# arithmetic is Python ints: round products reach ~2^90, far past int64,
# and Python // FLOORS where DuckDB's // truncates — both the overflow and
# the rounding are documented engine/twin divergence classes, so the
# engine implements truncation explicitly and never touches numpy.

PCA_ROUNDS = 16
PCA_SCALE = 1 << 20


def _trunc_div(a: int, b: int) -> int:
    """Integer division truncating toward zero (DuckDB ``//`` semantics;
    Python ``//`` floors, which differs on negatives)."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def emb_pca_power(sf_dir: str, cov=None, rounds: int = PCA_ROUNDS):
    """(dim, v_fp, evr_ppm): the dominant eigenvector of the centered
    covariance in 2^20 fixed point, plus the explained-variance share
    (Rayleigh quotient over the trace) in ppm — the PCA diagnostic that
    says whether one direction dominates the embedding space.

    ``cov``: optionally a materialized ``emb_covariance`` result (the
    driver slot reuses its twin-gate run). v0 is the all-2^20 vector;
    each round multiplies by M and rescales the max |component| back to
    2^20 with TRUNCATING division, so every intermediate is an exact
    integer and the DuckDB twin replays the same 16 rounds bit-for-bit.
    Sign is the deterministic one v0 converges to (eigenvector sign is
    conventional)."""
    import ray.data

    if cov is None:
        cov = emb_covariance(sf_dir)
    tri = cov.to_pandas() if hasattr(cov, "to_pandas") else cov

    d = int(tri["j"].max()) + 1
    n = int(tri["n"].iloc[0])
    m = [[0] * d for _ in range(d)]
    for i, j, _n, si, sj, sij in tri.itertuples(index=False):
        val = n * int(sij) - int(si) * int(sj)
        m[i][j] = val
        m[j][i] = val

    trace = sum(m[i][i] for i in range(d))
    if trace <= 0:
        raise ValueError("emb_pca_power: non-positive trace — degenerate corpus")

    v = [PCA_SCALE] * d
    for _ in range(rounds):
        w = [sum(m[i][j] * v[j] for j in range(d)) for i in range(d)]
        mx = max(abs(x) for x in w)
        if mx == 0:
            raise ValueError("emb_pca_power: M v vanished — v0 in the null space")
        v = [_trunc_div(x * PCA_SCALE, mx) for x in w]

    num = sum(v[i] * m[i][j] * v[j] for i in range(d) for j in range(d))
    den = sum(x * x for x in v)
    evr_ppm = _trunc_div(1_000_000 * num, den * trace)

    out = pd.DataFrame(
        {
            "dim": np.arange(d, dtype=np.int64),
            "v_fp": np.array(v, dtype=np.int64),
            "evr_ppm": np.full(d, evr_ppm, dtype=np.int64),
        }
    )
    return ray.data.from_pandas(out)


def _pca_power_sql(rounds: int = PCA_ROUNDS) -> str:
    cte = """
WITH q AS MATERIALIZED (
    SELECT vec_id, g.i - 1 AS dim,
           CAST(FLOOR(e[g.i] * 1048576.0 + 0.5) AS HUGEINT) AS v
    FROM (SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings) t,
         UNNEST(generate_series(1, len(e))) AS g(i)
),
nrows AS (SELECT CAST(COUNT(DISTINCT vec_id) AS HUGEINT) AS n FROM q),
sums AS (SELECT dim, SUM(v) AS s FROM q GROUP BY 1),
m AS MATERIALIZED (
    SELECT a.dim AS i, b.dim AS j,
           nrows.n * SUM(a.v * b.v) - sa.s * sb.s AS val
    FROM q a
    JOIN q b ON b.vec_id = a.vec_id
    JOIN sums sa ON sa.dim = a.dim
    JOIN sums sb ON sb.dim = b.dim
    CROSS JOIN nrows
    GROUP BY 1, 2, sa.s, sb.s, nrows.n
),
trace AS (SELECT SUM(val) AS tr FROM m WHERE i = j),
v0 AS (SELECT dim, CAST(1048576 AS HUGEINT) AS val
       FROM (SELECT DISTINCT dim FROM q))"""
    prev = "v0"
    for r in range(rounds):
        cte += f""",
w{r} AS MATERIALIZED (
    SELECT m.i AS dim, SUM(m.val * p.val) AS w
    FROM m JOIN {prev} p ON p.dim = m.j GROUP BY 1
),
v{r + 1} AS MATERIALIZED (
    SELECT dim, (w * 1048576) // (SELECT MAX(ABS(w)) FROM w{r}) AS val
    FROM w{r}
)"""
        prev = f"v{r + 1}"
    cte += f""",
ray AS (
    SELECT SUM(pa.val * m.val * pb.val) AS num
    FROM m JOIN {prev} pa ON pa.dim = m.i JOIN {prev} pb ON pb.dim = m.j
),
den AS (SELECT SUM(val * val) AS dd FROM {prev})
SELECT p.dim AS dim, CAST(p.val AS BIGINT) AS v_fp,
       CAST((1000000 * ray.num) // (den.dd * trace.tr) AS BIGINT) AS evr_ppm
FROM {prev} p CROSS JOIN ray CROSS JOIN den CROSS JOIN trace
ORDER BY dim
"""
    return cte


EMB_PCA_POWER_SQL = _pca_power_sql()


# ---------------------------------------------------------------------------
# Clustering-quality evaluation (eval-as-pipeline, the clustering
# counterpart of ``emb_ann_recall`` / ``docs_neardup_recall``): per-cluster
# label purity of the exact k-means assignment against the embedding
# table's own ``label`` column — the agreement measurement run before
# trusting cluster ids as curation buckets.


def emb_cluster_purity(sf_dir: str, assign=None, k: int = KMEANS_K):
    """(cluster, n, top_label, purity_ppm) sorted by cluster.

    ``assign``: optionally a materialized ``kmeans_assign`` result (the
    driver slot reuses its twin-gate run). Labels attach through one
    vec_id-bucketed cogroup join (both sides corpus-sized — the
    enrichment-join shape); per-(cluster, label) counts reduce through
    the bucketed combine, and the k × |labels| rollup picks each
    cluster's majority label with the deterministic (count DESC, label
    ASC) tie-break the DuckDB twin's ROW_NUMBER uses."""
    import ray.data

    from .common import cogroup_join, grouped_sums

    if assign is None:
        assign = kmeans_assign(sf_dir, k=k)
    labels = _emb(sf_dir, columns=["vec_id", "label"])

    joined = cogroup_join(
        assign, labels, "vec_id", "vec_id", ["cluster"], ["label"]
    )
    counts = grouped_sums(
        joined, ["cluster", "label"], [], count_alias="c"
    ).to_pandas()  # k x |labels| rollup: driver-bounded by construction

    rows = []
    for cluster, grp in counts.groupby("cluster"):
        n = int(grp["c"].sum())
        top = grp.sort_values(["c", "label"], ascending=[False, True]).iloc[0]
        rows.append((int(cluster), n, int(top["label"]), (1_000_000 * int(top["c"])) // n))
    out = pd.DataFrame(rows, columns=["cluster", "n", "top_label", "purity_ppm"]).sort_values(
        "cluster"
    ).reset_index(drop=True)
    out = out.astype(np.int64)
    return ray.data.from_pandas(out)


EMB_CLUSTER_PURITY_SQL = f"""
WITH assign AS ({EMB_KMEANS_ASSIGN_SQL.rstrip()}),
j AS (
    SELECT a.cluster AS cluster, e.label AS label
    FROM assign a JOIN embeddings e USING (vec_id)
),
cl AS (SELECT cluster, label, COUNT(*) AS c FROM j GROUP BY 1, 2),
tot AS (SELECT cluster, SUM(c) AS n FROM cl GROUP BY 1),
top AS (
    SELECT cluster, label, c,
           ROW_NUMBER() OVER (PARTITION BY cluster ORDER BY c DESC, label) AS rn
    FROM cl
)
SELECT t.cluster AS cluster,
       CAST(tot.n AS BIGINT) AS n,
       CAST(t.label AS BIGINT) AS top_label,
       CAST((1000000 * t.c) // tot.n AS BIGINT) AS purity_ppm
FROM top t JOIN tot USING (cluster)
WHERE t.rn = 1
ORDER BY cluster
"""


# ---------------------------------------------------------------------------
# Product-quantizer search evaluation (eval-as-pipeline, completing the
# family with emb_ann_recall / docs_neardup_recall / emb_cluster_purity):
# recall@k of ADC search — asymmetric distance computation, the way PQ is
# actually queried at 10^12-vector scale (per-query LUT over the broadcast
# codebook, db side reduced to its 4-bit codes) — against the exact
# squared-euclidean top-k over the same ppm-quantized vectors. All
# distances are exact int64, ties break (dist, vec_id), so both engines
# produce identical top-k SETS and the recall is bit-reproducible.

PQ_EVAL_K = 5
PQ_EVAL_QUERIES = 10


def emb_pq_recall(sf_dir: str, k: int = PQ_EVAL_K, n_queries: int = PQ_EVAL_QUERIES,
                  n_subs: int = PQ_SUBS, pq_k: int = PQ_K):
    """(vec_id, n_hit, recall_ppm) per query, sorted by vec_id.

    One streaming pass over the corpus: each batch encodes its vectors
    (same argmin kernel as ``emb_pq_codes``), computes ADC distances to
    every query through the per-query (n_subs × pq_k) lookup table, the
    EXACT distances alongside, and emits per-(query, metric) partial
    top-k rows (≤ 2·k·n_queries rows per batch); the final fold is
    driver-bounded. Codebook and query matrix broadcast once."""
    import ray
    import ray.data

    from .common import broadcast

    emb = _emb(sf_dir, columns=["vec_id", "embedding"])
    cents = _seed_centroids(emb, pq_k)  # (pq_k, dim) ppm ints
    qdf = emb.filter(expr=f"vec_id < {n_queries}").to_pandas()
    qids = qdf["vec_id"].to_numpy(np.int64)
    qmat = _quantize_ppm(qdf)  # (nq, dim)
    dim = qmat.shape[1]
    if dim % n_subs:
        raise ValueError(f"dim {dim} not divisible by n_subs {n_subs}")
    sub_dim = dim // n_subs
    # per-query ADC lookup table: lut[q, s, c] = ||q_sub - codeword||^2
    qs = qmat.reshape(len(qids), n_subs, sub_dim)
    cs = cents.reshape(pq_k, n_subs, sub_dim)
    lut = ((qs[:, None, :, :] - cs[None, :, :, :]) ** 2).sum(axis=3)  # (nq, pq_k, subs)
    ref = broadcast((qids, qmat, lut, cs))

    def partials(batch: pd.DataFrame, _ref=ref) -> pd.DataFrame:
        qids, qmat, lut, cs = ray.get(_ref)
        v = _quantize_ppm(batch)
        ids = batch["vec_id"].to_numpy(np.int64)
        n = len(ids)
        vs = v.reshape(n, n_subs, sub_dim)
        code = ((vs[:, None, :, :] - cs[None, :, :, :]) ** 2).sum(axis=3).argmin(axis=1)
        # adc[q, n] = sum_s lut[q, code[n, s], s]
        adc = lut[:, code, np.arange(n_subs)[None, :]].sum(axis=2)  # (nq, n)
        exact = (
            (qmat[:, None, :].astype(np.int64) - v[None, :, :]) ** 2
        ).sum(axis=2)  # (nq, n)
        rows = []
        for qi, qid in enumerate(qids):
            mask = ids != qid  # self excluded
            for metric, dist in (("adc", adc[qi]), ("exact", exact[qi])):
                cand_ids = ids[mask]
                cand_d = dist[mask]
                top = np.lexsort((cand_ids, cand_d))[:k]
                rows.append(
                    pd.DataFrame(
                        {
                            "q": np.int64(qid),
                            "metric": metric,
                            "vec_id": cand_ids[top],
                            "dist": cand_d[top].astype(np.int64),
                        }
                    )
                )
        return pd.concat(rows, ignore_index=True)

    parts = emb.map_batches(partials, batch_format="pandas").to_pandas()

    out = []
    for qid in sorted(set(parts["q"])):
        sub = parts[parts["q"] == qid]
        tops = {}
        for metric in ("adc", "exact"):
            m = sub[sub["metric"] == metric].sort_values(
                ["dist", "vec_id"], kind="mergesort"
            )
            tops[metric] = set(m["vec_id"].head(k))
        hit = len(tops["adc"] & tops["exact"])
        out.append((int(qid), hit, (1_000_000 * hit) // k))
    res = pd.DataFrame(out, columns=["vec_id", "n_hit", "recall_ppm"]).astype(np.int64)
    return ray.data.from_pandas(res)


EMB_PQ_RECALL_SQL = f"""
WITH init AS (
    SELECT vec_id, ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cluster
    FROM embeddings ORDER BY vec_id LIMIT {PQ_K}
),
x AS MATERIALIZED (
    SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS dim,
           CAST(FLOOR(unnest(embedding)::DOUBLE * 1000000 + 0.5) AS BIGINT) AS v
    FROM embeddings
),
xs AS (SELECT vec_id, dim // 8 AS sub, dim, v FROM x),
c AS MATERIALIZED (
    SELECT i.cluster, xs.sub, xs.dim, xs.v FROM init i JOIN xs ON xs.vec_id = i.vec_id
),
d AS (
    SELECT xs.vec_id, xs.sub, c.cluster,
           CAST(SUM((xs.v - c.v) * (xs.v - c.v)) AS BIGINT) AS dist2
    FROM xs JOIN c ON xs.dim = c.dim
    GROUP BY 1, 2, 3
),
codes AS MATERIALIZED (
    SELECT vec_id, sub, cluster, dist2 FROM (
        SELECT vec_id, sub, cluster, dist2,
               ROW_NUMBER() OVER (PARTITION BY vec_id, sub ORDER BY dist2, cluster) AS rn
        FROM d
    ) WHERE rn = 1
),
queries AS (SELECT vec_id AS q FROM embeddings WHERE vec_id < {PQ_EVAL_QUERIES}),
-- lut[q, sub, cluster] = ||q_sub - codeword_sub||^2
lut AS MATERIALIZED (
    SELECT xq.vec_id AS q, c.sub AS sub, c.cluster AS cluster,
           CAST(SUM((xq.v - c.v) * (xq.v - c.v)) AS BIGINT) AS dist2
    FROM xs xq JOIN c ON c.dim = xq.dim
    WHERE xq.vec_id < {PQ_EVAL_QUERIES}
    GROUP BY 1, 2, 3
),
adc AS (
    SELECT l.q AS q, cd.vec_id AS vec_id, SUM(l.dist2) AS dist
    FROM codes cd JOIN lut l ON l.sub = cd.sub AND l.cluster = cd.cluster
    WHERE cd.vec_id != l.q
    GROUP BY 1, 2
),
exact AS (
    SELECT xq.vec_id AS q, xv.vec_id AS vec_id,
           SUM((xq.v - xv.v) * (xq.v - xv.v)) AS dist
    FROM x xq JOIN x xv ON xv.dim = xq.dim AND xv.vec_id != xq.vec_id
    WHERE xq.vec_id < {PQ_EVAL_QUERIES}
    GROUP BY 1, 2
),
top_adc AS (
    SELECT q, vec_id FROM (
        SELECT q, vec_id, ROW_NUMBER() OVER (PARTITION BY q ORDER BY dist, vec_id) AS rn
        FROM adc
    ) WHERE rn <= {PQ_EVAL_K}
),
top_exact AS (
    SELECT q, vec_id FROM (
        SELECT q, vec_id, ROW_NUMBER() OVER (PARTITION BY q ORDER BY dist, vec_id) AS rn
        FROM exact
    ) WHERE rn <= {PQ_EVAL_K}
)
SELECT e.q AS vec_id,
       CAST(COUNT(a.vec_id) AS BIGINT) AS n_hit,
       CAST((1000000 * COUNT(a.vec_id)) // {PQ_EVAL_K} AS BIGINT) AS recall_ppm
FROM top_exact e
LEFT JOIN top_adc a ON a.q = e.q AND a.vec_id = e.vec_id
GROUP BY 1
ORDER BY 1
"""


# ---------------------------------------------------------------------------
# IVF search evaluation — the third leg of the ANN-eval family (LSH:
# emb_ann_recall, PQ/ADC: emb_pq_recall). The production ``ivf_knn`` uses
# float k-means centroids (no exact SQL twin); this eval runs IVF with the
# INTEGER seed centroids (the same deterministic quantizer
# ``kmeans_assign`` pins to SQL), so list assignment, probe ranking, and
# within-list exact distances are all int64 and the whole search replays
# in DuckDB. Measures what IVF actually trades: recall lost to probing
# nprobe of k lists.

IVF_EVAL_NPROBE = 2


def emb_ivf_recall(sf_dir: str, k: int = PQ_EVAL_K, n_queries: int = PQ_EVAL_QUERIES,
                   n_lists: int = KMEANS_K, nprobe: int = IVF_EVAL_NPROBE):
    """(vec_id, n_hit, recall_ppm) per query, sorted by vec_id: recall@k
    of nprobe-list IVF search (integer seed quantizer) vs the exact
    squared-euclidean top-k. One streaming pass assigns each batch's
    vectors to lists with the exact argmin kernel and emits per-query
    partial top-k rows for BOTH searches; ties break (dist, vec_id)."""
    import ray
    import ray.data

    from .common import broadcast

    emb = _emb(sf_dir, columns=["vec_id", "embedding"])
    cents = _seed_centroids(emb, n_lists)  # (n_lists, dim) ppm ints
    qdf = emb.filter(expr=f"vec_id < {n_queries}").to_pandas()
    qids = qdf["vec_id"].to_numpy(np.int64)
    qmat = _quantize_ppm(qdf)
    # probe lists per query: nprobe nearest centroids, exact int64, ties
    # to the lowest list id
    qd = ((qmat[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)  # (nq, n_lists)
    probe = np.argsort(qd, axis=1, kind="stable")[:, :nprobe]  # (nq, nprobe)
    ref = broadcast((qids, qmat, cents, probe))

    def partials(batch: pd.DataFrame, _ref=ref) -> pd.DataFrame:
        qids, qmat, cents, probe = ray.get(_ref)
        v = _quantize_ppm(batch)
        ids = batch["vec_id"].to_numpy(np.int64)
        labels, _d2 = kmeans_assign_kernel(v, cents)
        exact = ((qmat[:, None, :].astype(np.int64) - v[None, :, :]) ** 2).sum(axis=2)
        rows = []
        for qi, qid in enumerate(qids):
            not_self = ids != qid
            for metric, mask in (
                ("ivf", not_self & np.isin(labels, probe[qi])),
                ("exact", not_self),
            ):
                cand_ids = ids[mask]
                cand_d = exact[qi][mask]
                top = np.lexsort((cand_ids, cand_d))[:k]
                rows.append(
                    pd.DataFrame(
                        {
                            "q": np.int64(qid),
                            "metric": metric,
                            "vec_id": cand_ids[top],
                            "dist": cand_d[top].astype(np.int64),
                        }
                    )
                )
        return pd.concat(rows, ignore_index=True)

    parts = emb.map_batches(partials, batch_format="pandas").to_pandas()

    out = []
    for qid in sorted(set(parts["q"])):
        sub = parts[parts["q"] == qid]
        tops = {}
        for metric in ("ivf", "exact"):
            m = sub[sub["metric"] == metric].sort_values(
                ["dist", "vec_id"], kind="mergesort"
            )
            tops[metric] = set(m["vec_id"].head(k))
        hit = len(tops["ivf"] & tops["exact"])
        out.append((int(qid), hit, (1_000_000 * hit) // k))
    res = pd.DataFrame(out, columns=["vec_id", "n_hit", "recall_ppm"]).astype(np.int64)
    return ray.data.from_pandas(res)


EMB_IVF_RECALL_SQL = f"""
WITH assign AS ({EMB_KMEANS_ASSIGN_SQL.rstrip()}),
xq0 AS MATERIALIZED (
    SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS dim,
           CAST(FLOOR(unnest(embedding)::DOUBLE * 1000000 + 0.5) AS BIGINT) AS v
    FROM embeddings
),
init0 AS (
    SELECT vec_id, ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cluster
    FROM embeddings ORDER BY vec_id LIMIT {KMEANS_K}
),
cc AS (SELECT i.cluster, x0.dim, x0.v FROM init0 i JOIN xq0 x0 ON x0.vec_id = i.vec_id),
qcd AS (
    SELECT xq.vec_id AS q, cc.cluster AS cluster,
           SUM((xq.v - cc.v) * (xq.v - cc.v)) AS dist
    FROM xq0 xq JOIN cc ON cc.dim = xq.dim
    WHERE xq.vec_id < {PQ_EVAL_QUERIES}
    GROUP BY 1, 2
),
probe AS (
    SELECT q, cluster FROM (
        SELECT q, cluster, ROW_NUMBER() OVER (PARTITION BY q ORDER BY dist, cluster) AS rn
        FROM qcd
    ) WHERE rn <= {IVF_EVAL_NPROBE}
),
exact AS MATERIALIZED (
    SELECT xq.vec_id AS q, xv.vec_id AS vec_id,
           SUM((xq.v - xv.v) * (xq.v - xv.v)) AS dist
    FROM xq0 xq JOIN xq0 xv ON xv.dim = xq.dim AND xv.vec_id != xq.vec_id
    WHERE xq.vec_id < {PQ_EVAL_QUERIES}
    GROUP BY 1, 2
),
top_exact AS (
    SELECT q, vec_id FROM (
        SELECT q, vec_id, ROW_NUMBER() OVER (PARTITION BY q ORDER BY dist, vec_id) AS rn
        FROM exact
    ) WHERE rn <= {PQ_EVAL_K}
),
top_ivf AS (
    SELECT q, vec_id FROM (
        SELECT e.q AS q, e.vec_id AS vec_id, e.dist AS dist,
               ROW_NUMBER() OVER (PARTITION BY e.q ORDER BY e.dist, e.vec_id) AS rn
        FROM exact e
        JOIN assign a ON a.vec_id = e.vec_id
        JOIN probe p ON p.q = e.q AND p.cluster = a.cluster
    ) WHERE rn <= {PQ_EVAL_K}
)
SELECT e.q AS vec_id,
       CAST(COUNT(i.vec_id) AS BIGINT) AS n_hit,
       CAST((1000000 * COUNT(i.vec_id)) // {PQ_EVAL_K} AS BIGINT) AS recall_ppm
FROM top_exact e
LEFT JOIN top_ivf i ON i.q = e.q AND i.vec_id = e.vec_id
GROUP BY 1
ORDER BY 1
"""


def emb_pca_project(sf_dir: str, cov=None, pc=None):
    """PCA APPLY step — each vector's centered projection onto the
    dominant component from ``emb_pca_power``: the dimensionality-
    reduction/whitening pass a curation pipeline runs after the
    covariance fit (rank docs along the top axis, trim the tails).

    Integer contract: with q the ×2^20 quantized vector, S the
    covariance run's column sums, n the row count and v the fixed-point
    eigenvector, the score is ``proj_n = Σ_j (n·q_j − S_j)·v_j`` — the
    true centered projection scaled by n·2^20·2^20, exact in int64
    inside the guarded domain (the op RAISES when d·n·max|q|·max|v|
    approaches 2^62; DuckDB's HUGEINT would silently keep going — the
    documented divergence class, cut off identically on both sides).

    Scale shape: the fit artifacts (S, v — two d-vectors + a scalar) are
    the only driver state; the projection is map-ONLY over the
    embeddings (one int64 matmul per batch); nothing shuffles."""
    if cov is None:
        cov = emb_covariance(sf_dir)
    tri = cov.to_pandas() if hasattr(cov, "to_pandas") else cov
    if pc is None:
        pc = emb_pca_power(sf_dir, cov=tri)
    pcf = pc.to_pandas() if hasattr(pc, "to_pandas") else pc

    d = int(tri["j"].max()) + 1
    n = int(tri["n"].iloc[0])
    s_vec = np.zeros(d, dtype=np.int64)
    for i, j, _n, si, sj, _sij in tri.itertuples(index=False):
        s_vec[int(i)] = int(si)
        s_vec[int(j)] = int(sj)
    v = pcf.sort_values("dim")["v_fp"].to_numpy(np.int64)
    max_v = int(np.abs(v).max())

    emb = _emb(sf_dir, columns=["vec_id", "embedding"])

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return pd.DataFrame(
                {"vec_id": pd.Series([], dtype=np.int64),
                 "proj_n": pd.Series([], dtype=np.int64)}
            )
        mat = np.stack(
            [np.asarray(e, dtype=np.float32) for e in batch["embedding"]]
        ).astype(np.float64)
        q = np.floor(mat * 1048576.0 + 0.5).astype(np.int64)
        maxq = int(np.abs(q).max()) if q.size else 0
        if d * (n * maxq + int(np.abs(s_vec).max())) * max_v >= (1 << 62):
            raise ValueError(
                "emb_pca_project: centered projection would overflow int64 — "
                "rescale the eigenvector or shard the corpus"
            )
        centered = n * q - s_vec[None, :]
        proj = centered @ v
        return pd.DataFrame(
            {"vec_id": batch["vec_id"].to_numpy(np.int64), "proj_n": proj}
        )

    return emb.map_batches(project, batch_format="pandas").sort("vec_id")


def _pca_project_sql() -> str:
    return f"""
WITH pc AS MATERIALIZED ({EMB_PCA_POWER_SQL.rstrip()}),
q AS (
    SELECT vec_id, g.i - 1 AS dim,
           CAST(FLOOR(e[g.i] * 1048576.0 + 0.5) AS BIGINT) AS v
    FROM (SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings) t,
         UNNEST(generate_series(1, len(e))) AS g(i)
),
s AS (SELECT dim, CAST(SUM(v) AS BIGINT) AS sv, CAST(COUNT(*) AS BIGINT) AS n
      FROM q GROUP BY dim)
SELECT q.vec_id,
       CAST(SUM((s.n * q.v - s.sv) * pc.v_fp) AS BIGINT) AS proj_n
FROM q JOIN s USING (dim) JOIN pc ON pc.dim = q.dim
GROUP BY q.vec_id
ORDER BY q.vec_id
"""


EMB_PCA_PROJECT_SQL = _pca_project_sql()


def emb_label_shift(sf_dir: str):
    """Embedding distribution shift per label — the drift diagnostic a
    training pipeline runs when a source/label's embedding mass moves
    away from the corpus (covariate shift before mixing): exact squared
    euclidean distance between each label's centroid and the GLOBAL
    centroid, in ppm of the unit-norm scale.

    Integer contract: with q the ×2^20 quantized vectors, S_l/n_l the
    label sums and S_g/n_g the global sums, the squared shift clears to

        shift_ppm = 10^6 · Σ_j (S_lj·n_g − S_gj·n_l)²
                    // (n_l² · n_g² · 2^40)

    — numerators reach ~2^85 (Python ints / HUGEINT; int64 would wrap
    silently, the documented divergence class). Scale shape: ONE
    streaming pass of per-batch (label, count, per-dim sum) partials +
    a label-cardinality bucketed combine; the driver does the KB-sized
    rational arithmetic."""
    from .common import bucketed_group_agg

    emb = _emb(sf_dir, columns=["label", "embedding"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return pd.DataFrame(
                {"label": pd.Series(dtype=np.int64),
                 "dim": pd.Series(dtype=np.int64),
                 "s": pd.Series(dtype=np.int64),
                 "n": pd.Series(dtype=np.int64)}
            )
        mat = np.stack(
            [np.asarray(e, dtype=np.float32) for e in batch["embedding"]]
        ).astype(np.float64)
        q = np.floor(mat * 1048576.0 + 0.5).astype(np.int64)
        lab = batch["label"].to_numpy(np.int64)
        ulab, inv = np.unique(lab, return_inverse=True)
        d = q.shape[1]
        sums = np.zeros((len(ulab), d), dtype=np.int64)
        np.add.at(sums, inv, q)
        cnt = np.bincount(inv)
        rows = {
            "label": np.repeat(ulab, d),
            "dim": np.tile(np.arange(d, dtype=np.int64), len(ulab)),
            "s": sums.ravel(),
            "n": np.repeat(cnt.astype(np.int64), d),
        }
        return pd.DataFrame(rows)

    cells = bucketed_group_agg(
        emb.map_batches(partial, batch_format="pandas"),
        ["label", "dim"],
        {"s": "sum", "n": "sum"},
    ).to_pandas()

    d = int(cells["dim"].max()) + 1
    labels = sorted(cells["label"].unique())
    S = {}
    N = {}
    for lb in labels:
        sub = cells[cells["label"] == lb].sort_values("dim")
        S[lb] = [int(x) for x in sub["s"]]
        N[lb] = int(sub["n"].iloc[0])
    n_g = sum(N.values())
    S_g = [sum(S[lb][j] for lb in labels) for j in range(d)]

    rows = []
    for lb in labels:
        num = sum((S[lb][j] * n_g - S_g[j] * N[lb]) ** 2 for j in range(d))
        den = (N[lb] * n_g) ** 2 * (1 << 40)
        rows.append((lb, N[lb], num * 1_000_000 // den))
    out = pd.DataFrame(rows, columns=["label", "n_vecs", "shift_ppm"]).astype(
        {"label": np.int64, "n_vecs": np.int64, "shift_ppm": np.int64}
    )
    import ray.data as rd

    return rd.from_pandas(out.sort_values("label").reset_index(drop=True))


EMB_LABEL_SHIFT_SQL = """
WITH q AS (
    SELECT vec_id, label, g.i - 1 AS dim,
           CAST(FLOOR(e[g.i] * 1048576.0 + 0.5) AS BIGINT) AS v
    FROM (SELECT vec_id, label, embedding::DOUBLE[] AS e FROM embeddings) t,
         UNNEST(generate_series(1, len(e))) AS g(i)
),
l AS (SELECT label, dim, CAST(SUM(v) AS HUGEINT) AS s,
             CAST(COUNT(*) AS HUGEINT) AS n
      FROM q GROUP BY label, dim),
g AS (SELECT dim, CAST(SUM(s) AS HUGEINT) AS sg, CAST(SUM(n) AS HUGEINT) AS ng
      FROM l GROUP BY dim)
SELECT CAST(l.label AS BIGINT) AS label,
       CAST(MIN(l.n) AS BIGINT) AS n_vecs,
       CAST(SUM((l.s * g.ng - g.sg * l.n) * (l.s * g.ng - g.sg * l.n)) * 1000000
            // (MIN(l.n) * MIN(l.n) * MIN(g.ng) * MIN(g.ng)
                * (CAST(1 AS HUGEINT) << 40)) AS BIGINT) AS shift_ppm
FROM l JOIN g USING (dim)
GROUP BY l.label
ORDER BY l.label
"""


def emb_filtered_knn(sf_dir: str, k: int = 5, n_queries: int = 10):
    """FILTERED vector search — exact cosine top-k restricted to
    candidates sharing the query's label (the metadata-predicate ANN
    shape every retrieval stack needs: 'nearest neighbors WHERE
    lang = .. / source = ..'). Same broadcast-queries + per-batch-matmul
    + partial-top-k fold as ``knn_bruteforce``, with the predicate
    applied INSIDE the batch before anything is scored — pre-filtering,
    not post-filtering, so the top-k is exact under the predicate rather
    than a recall-losing truncation of the unfiltered list."""
    import ray

    ds = _emb(sf_dir, columns=["vec_id", "embedding", "label"])
    qdf = ds.filter(expr=f"vec_id < {n_queries}").to_pandas()
    q = _matrix(qdf)
    queries_ref = ray.put(
        (qdf["vec_id"].to_numpy(), qdf["label"].to_numpy(np.int64), q,
         np.linalg.norm(q, axis=1))
    )

    def score(batch: pd.DataFrame, *, _ref=queries_ref, _k=k) -> pd.DataFrame:
        qids, qlabs, qmat, qnorm = ray.get(_ref)
        c = _matrix(batch)
        # dot-then-divide, the same operation order as DuckDB
        # list_cosine_similarity (dot(a,b) / (||a||·||b||)), so the
        # float64 result agrees with the twin beyond shared-rounding
        # luck; the residual assumption is only the dot's accumulation
        # order, shared with every float64 matmul in this family
        sims = (c @ qmat.T) / (np.linalg.norm(c, axis=1)[:, None] * qnorm[None, :])
        sim_ppm = np.floor(sims * 1e6 + 0.5).astype(np.int64)
        cids = batch["vec_id"].to_numpy()
        clabs = batch["label"].to_numpy(np.int64)
        out = []
        for j, (qid, qlab) in enumerate(zip(qids, qlabs)):
            mask = (cids != qid) & (clabs == qlab)
            ids, vals = cids[mask], sim_ppm[mask, j]
            order = np.lexsort((ids, -vals))[:_k]
            for i in order:
                out.append((int(qid), int(qlab), int(ids[i]), int(vals[i])))
        if not out:
            # typed empty frame: a block sharing no label with any query
            # (skewed labels / trailing block) must not emit a null-typed
            # Arrow block that breaks schema unification downstream
            return pd.DataFrame(
                {"query_id": pd.Series(dtype=np.int64),
                 "label": pd.Series(dtype=np.int64),
                 "vec_id": pd.Series(dtype=np.int64),
                 "sim_ppm": pd.Series(dtype=np.int64)}
            )
        return pd.DataFrame(out, columns=["query_id", "label", "vec_id", "sim_ppm"])

    partial = ds.map_batches(score, batch_format="pandas")

    def topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["sim_ppm", "vec_id"], ascending=[False, True], kind="mergesort"
        ).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return (
        partial.groupby("query_id")
        .map_groups(topk, batch_format="pandas")
        .sort(["query_id", "rank"])
    )


FILTERED_KNN_SQL = """
WITH q AS (SELECT vec_id AS query_id, label, embedding FROM embeddings WHERE vec_id < 10),
scored AS (
    SELECT q.query_id, CAST(q.label AS BIGINT) AS label, e.vec_id,
           CAST(FLOOR(list_cosine_similarity(e.embedding::DOUBLE[], q.embedding::DOUBLE[])*1000000 + 0.5) AS BIGINT) AS sim_ppm
    FROM embeddings e JOIN q ON e.label = q.label
    WHERE e.vec_id <> q.query_id
),
ranked AS (
    SELECT *, ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY sim_ppm DESC, vec_id)
           AS rank
    FROM scored
)
SELECT query_id, label, vec_id, sim_ppm, CAST(rank AS BIGINT) AS rank
FROM ranked WHERE rank <= 5
ORDER BY query_id, rank
"""
