"""Single-process reference for ``ops.dedup.banded_hash_pairs``.

The band rows, bucket verification (``_one_bucket``, with the star cap),
``emit_pairs`` segmentation and chunked XOR+popcount verification below
are verbatim copies of the banded tail from before it ran on the ordered
key exchange, when a Ray Data ``groupby`` gathered the band buckets and
``bucketed_group_agg`` plus ``sort`` deduped the pairs. Here every band
row is one group and the pair dedup is one pandas ``groupby``, so the
result does not depend on any exchange.
"""

import numpy as np
import pandas as pd


def _hamming_pairs_chunked(ids: np.ndarray, hashes: np.ndarray, max_hamming: int,
                           chunk: int = 2048) -> pd.DataFrame:
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


def banded_pairs(sigs: pd.DataFrame, max_hamming: int, max_bucket: int) -> pd.DataFrame:
    """(doc_id, simhash hex, band0..band3) rows → (a, b, hamming), sorted."""

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

    pairs = emit_pairs(band_rows(sigs))
    # a pair can surface from several bands → exact dedup on the pair key
    out = pairs.groupby(["a", "b"], as_index=False, sort=True)["hamming"].min()
    return out.astype(np.int64).reset_index(drop=True)
