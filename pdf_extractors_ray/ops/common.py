"""Shared helpers for scale operators.

Money/float determinism: distributed float summation is order-dependent, so
any aggregate that must compare exactly against a SQL oracle is computed in
integer *cents* — ``floor(x*100 + 0.5)`` per row (the same IEEE ops the
oracle SQL uses) summed as int64. Exact on both sides, hash-stable.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def cents(x) -> np.ndarray:
    return np.floor(np.asarray(x, dtype=np.float64) * 100.0 + 0.5).astype(np.int64)


def _default_buckets() -> int:
    from ..runtime import _cluster_cpus

    return max(4, 2 * _cluster_cpus())


def bucketed_group_agg(ds, keys: list[str], agg: dict[str, str],
                       n_buckets: int | None = None):
    """Many-distinct-key aggregation that scales: partial per-batch pandas
    combine → hash-BUCKET the keys (``n_buckets`` ≈ 2×CPUs) → one
    vectorized pandas combine per bucket.

    Why not ``groupby(keys).aggregate(...)``: Ray 2.49's hash aggregate
    pays ~0.27 ms of per-GROUP overhead (measured: 54 s for 200k distinct
    keys on 8 CPUs, vs 0.3 s for a full sort of the same rows). With
    bucketing the per-group cost is paid per BUCKET, and the in-bucket
    combine is a vectorized pandas groupby. ``agg`` maps column → pandas
    agg name ('sum'/'min'/'max'); partials must already be combine-safe
    (sums of partial sums, min of partial mins).
    """
    n_buckets = n_buckets or _default_buckets()
    cols = list(agg)

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.groupby(keys, as_index=False, sort=False)[cols].agg(agg)
        # deterministic per-row bucket over the key columns (stable across
        # processes: pandas' hash is keyed by a fixed default, not salted)
        out["__b"] = (
            pd.util.hash_pandas_object(out[keys], index=False).to_numpy() % n_buckets
        ).astype(np.int64)
        return out

    def _combine(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby(keys, as_index=False, sort=False)[cols].agg(agg)

    partial = ds.map_batches(_partial, batch_format="pandas")
    return partial.groupby("__b").map_groups(_combine, batch_format="pandas")


def grouped_sums(ds, keys: list[str], sum_cols: list[str], count_alias: str | None = None):
    """Grouped sum with per-batch partial pre-aggregation + hash-bucketed
    final combine (see ``bucketed_group_agg`` for why not a bare
    ``groupby().aggregate()``)."""

    def _with_count(batch: pd.DataFrame) -> pd.DataFrame:
        if count_alias:
            batch = batch.assign(**{count_alias: np.int64(1)})
        return batch

    ds = ds.map_batches(_with_count, batch_format="pandas") if count_alias else ds
    cols = sum_cols + ([count_alias] if count_alias else [])
    return bucketed_group_agg(ds, keys, {c: "sum" for c in cols})


def cast_us(ds, cols: list[str]):
    """Cast timestamp columns to microsecond unit after an aggregation.

    Ray's pandas-block groupby reduce coerces datetime64[us] keys back to
    ns; DuckDB TIMESTAMP is us, and the driver's value hash is
    dtype-sensitive, so time-bucket outputs re-cast here post-aggregate.
    """

    def _cast(batch: pd.DataFrame) -> pd.DataFrame:
        for c in cols:
            batch[c] = batch[c].astype("datetime64[us]")
        return batch

    return ds.map_batches(_cast, batch_format="pandas")


def broadcast(obj):
    """Put a small lookup object in the object store once; stages fetch it
    in ``__init__``/first use instead of re-shipping per batch."""
    import ray

    return ray.put(obj)


def cogroup_join(left_ds, right_ds, left_on: str, right_on: str,
                 left_cols: list[str], right_cols: list[str],
                 dedup_left: list[str] | None = None,
                 how: str = "inner"):
    """Sparse-safe inner join via union + hash-BUCKETED cogroup.

    ``Dataset.join`` (Ray 2.49 hash-shuffle) crashes with ArrowInvalid when
    a hash partition receives zero rows on either side, and its aggregator
    actors cost ~10-20 s of fixed startup per join regardless of partition
    count — unusable for sparse sides and pathological in multi-join
    queries. This helper expresses the join as: tag each side, align
    schemas (missing columns as Arrow nulls, which concat-promote against
    any type), hash the key into ≈2×CPUs buckets, union, ``groupby`` the
    BUCKET, and one vectorized pandas-merge per bucket.
    Grouping by bucket instead of key matters: ``map_groups`` invokes the
    UDF once per group, and a per-KEY pandas merge costs ~2-4 ms — fatal at
    10^4+ distinct keys (measured: q3's two joins went 60 s → <2 s at 15k
    keys when the merge became per-bucket). Empty groups and empty
    partitions are handled by the sort-based groupby machinery. Right side
    may carry multiple rows per key (one-to-many expands, as an inner join
    should).

    Each bucket is split by side in Arrow before either side becomes
    pandas, so a side's columns never hold the other side's null filler
    and keep their dtypes: inner, semi and anti joins return each column
    as its side had it. Only a left or full join's unmatched rows add
    nulls, so an int column there comes back float64 (null as NaN) — the
    one place a caller still needs ``fillna(...).astype(np.int64)``.

    ``dedup_left``: drop duplicate left rows on these columns WITHIN each
    key group before merging (implemented bucket-wide as key+columns
    dedup, which is equivalent). When the columns include the join key
    this is an exact global dedup fused into the join's shuffle (all rows
    with one key co-locate), saving the separate aggregation barrier a
    caller would otherwise need.

    ``how``: ``"inner"`` (default), ``"left"`` (unmatched left rows kept
    with null right columns), ``"anti"`` (left rows whose key has NO
    right row; output carries ``left_cols`` only — the distributed
    NOT-EXISTS shape), ``"semi"`` (left rows whose key HAS a right row,
    ``left_cols`` only, no expansion — the distributed EXISTS shape) or
    ``"full"`` (every row from both sides; unmatched columns null) — all
    five modes share the SAME single hash-bucketed exchange.
    """
    if how not in ("inner", "left", "anti", "semi", "full"):
        raise ValueError(
            f"how={how!r}: expected 'inner', 'left', 'anti', 'semi' or 'full'"
        )
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.block import BlockAccessor

    nb = _default_buckets()

    def tag(side: int, key: str):
        # both sides emit the SAME column order (__b, __key, __side,
        # __l_*, __r_*) so the union's block schemas differ only in the
        # null-typed filler columns — mismatched column ORDER additionally
        # makes Ray's streaming executor emit per-bundle schema warnings
        def fn(batch: pa.Table) -> pa.Table:
            n = len(batch)
            kcol = batch[key]
            kv = kcol.to_numpy(zero_copy_only=False)
            if kv.dtype.kind == "f":
                # integer ids from an earlier left/full join's unmatched
                # side arrive float64; hash_array keys off raw BITS, so
                # 5.0 and 5 would land in different buckets — canonicalize
                # both the hash input and the stored key to int64
                kv = kv.astype(np.int64)
                kcol = pa.array(kv)
            # pandas' hash is keyed by a fixed default (not salted), so
            # equal key values land in the same bucket on both sides and
            # across worker processes
            b = (pd.util.hash_array(kv) % nb).astype(np.int64)
            cols = {
                "__b": pa.array(b),
                "__key": kcol,
                "__side": pa.array(np.full(n, side, dtype=np.int64)),
            }
            for c in left_cols:
                cols[f"__l_{c}"] = batch[c] if side == 0 else pa.nulls(n)
            for c in right_cols:
                cols[f"__r_{c}"] = batch[c] if side == 1 else pa.nulls(n)
            return pa.table(cols)

        return fn

    lt = left_ds.map_batches(tag(0, left_on), batch_format="pyarrow")
    rt = right_ds.map_batches(tag(1, right_on), batch_format="pyarrow")
    unioned = lt.union(rt)

    lsel = [f"__l_{c}" for c in left_cols]
    rsel = [f"__r_{c}" for c in right_cols]

    def side_frame(group: pa.Table, side: int, sel: list[str]) -> pd.DataFrame:
        rows = group.filter(pc.equal(group["__side"], side)).select(["__key", *sel])
        return BlockAccessor.for_block(rows).to_pandas()

    def merge(group: pa.Table) -> pd.DataFrame:
        # a bucket holding one side only runs the same merge, so even its
        # empty result keeps each side's dtypes (an untyped empty frame
        # is all float64)
        lf, rf = side_frame(group, 0, lsel), side_frame(group, 1, rsel)
        if dedup_left:
            lf = lf.drop_duplicates(["__key", *(f"__l_{c}" for c in dedup_left)])
        if how in ("anti", "semi"):
            hit = lf["__key"].isin(rf["__key"].unique())
            keep = lf[hit] if how == "semi" else lf[~hit]
            return keep[lsel].rename(columns=dict(zip(lsel, left_cols)))
        pd_how = {"inner": "inner", "left": "left", "full": "outer"}[how]
        out = lf.merge(rf, on="__key", how=pd_how)
        out = out.drop(columns=["__key"])
        return out.rename(columns=dict(zip(lsel + rsel, left_cols + right_cols)))

    return unioned.groupby("__b").map_groups(merge, batch_format="pyarrow")
