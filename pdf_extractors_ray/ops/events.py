"""Event-stream operators: tumbling-window aggregates and gap-based
sessionization (streaming-shaped semantics over the batch ``events`` table;
ray_guide "Streaming-shaped workloads").
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

from .common import cast_us, cents, grouped_sums

SESSION_GAP_S = 1800  # 30 minutes


def _events(sf_dir: str, columns=None):
    from ..runtime import read_parquet_sized

    return read_parquet_sized(os.path.join(sf_dir, "events.parquet"), columns=columns)


def events_hourly(sf_dir: str):
    """Tumbling 1-hour window per event_type: count + value cents."""
    ds = _events(sf_dir, columns=["ts", "event_type", "value"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                # us units: match DuckDB TIMESTAMP microseconds for the
                # driver's dtype-sensitive value hash.
                "hour": batch["ts"].dt.floor("h").astype("datetime64[us]"),
                "event_type": batch["event_type"],
                "n": np.int64(1),
                "value_cents": cents(batch["value"].to_numpy()),
            }
        )

    ds = ds.map_batches(derive, batch_format="pandas")
    out = cast_us(grouped_sums(ds, ["hour", "event_type"], ["n", "value_cents"]), ["hour"])
    return out.sort(["hour", "event_type"])


EVENTS_HOURLY_SQL = """
SELECT CAST(date_trunc('hour', ts) AS TIMESTAMP) AS hour, event_type,
       COUNT(*) AS n,
       CAST(SUM(CAST(FLOOR(value*100 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents
FROM events
GROUP BY 1, 2
ORDER BY 1, 2
"""


def events_sessionize(sf_dir: str):
    """Per-user session stats: a session break is a >30-minute gap.

    Scale shape: grouped by a hash BUCKET of ``user_id`` (~2xCPUs
    buckets), NOT per user — user count is corpus-scale and
    ``map_groups`` pays a Python call per group (the repo's measured
    pathological pattern). Within a bucket the per-user gap scan is one
    vectorized sort + boundary-sliced prefix sums."""
    from .common import _default_buckets

    ds = _events(sf_dir, columns=["user_id", "ts"])
    nb = _default_buckets()

    def add_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__b"] = (
            pd.util.hash_array(batch["user_id"].to_numpy(np.int64)) % nb
        ).astype(np.int64)
        return batch

    def fold_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        ts = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        change = np.flatnonzero(np.diff(uid) != 0) + 1
        bounds = np.concatenate(([0], change, [len(uid)]))
        # per-user internal gap breaks via one prefix sum over the
        # row-adjacent gaps (cross-user boundaries masked out)
        breaks = (np.diff(ts) > SESSION_GAP_S * 1_000_000) & (np.diff(uid) == 0)
        cb = np.concatenate(([0], np.cumsum(breaks)))
        n_breaks = cb[bounds[1:] - 1] - cb[bounds[:-1]]
        return pd.DataFrame(
            {
                "user_id": uid[bounds[:-1]],
                "n_events": np.diff(bounds).astype(np.int64),
                "n_sessions": (1 + n_breaks).astype(np.int64),
            }
        )

    return (
        ds.map_batches(add_bucket, batch_format="pandas")
        .groupby("__b")
        .map_groups(fold_bucket, batch_format="pandas")
        .sort("user_id")
    )


def events_sliding(sf_dir: str, size_min: int = 30, slide_min: int = 10):
    """Sliding windows (30 min every 10 min): each event fans out to the
    size/slide windows containing it (vectorized flat emit), then partial
    combine + tiny groupby — no per-window scans."""
    ds = _events(sf_dir, columns=["ts", "value"])
    size_us = size_min * 60_000_000
    slide_us = slide_min * 60_000_000
    k = size_min // slide_min

    def fan_out(batch: pd.DataFrame) -> pd.DataFrame:
        ts_us = batch["ts"].astype("datetime64[us]").astype(np.int64).to_numpy()
        vals = cents(batch["value"].to_numpy())
        last_start = (ts_us // slide_us) * slide_us
        frames = []
        for j in range(k):
            start = last_start - j * slide_us
            keep = ts_us < start + size_us  # always true; kept for clarity
            frames.append(pd.DataFrame({"window_start": start[keep], "n": np.int64(1), "value_cents": vals[keep]}))
        out = pd.concat(frames, ignore_index=True)
        out["window_start"] = out["window_start"].astype("datetime64[us]")
        return out

    fanned = ds.map_batches(fan_out, batch_format="pandas")
    out = cast_us(grouped_sums(fanned, ["window_start"], ["n", "value_cents"]), ["window_start"])
    return out.sort("window_start")


EVENTS_SLIDING_SQL = """
SELECT to_timestamp((epoch_us(ts) // 600000000 - j) * 600000000 / 1000000)::TIMESTAMP AS window_start,
       COUNT(*) AS n,
       CAST(SUM(CAST(FLOOR(value*100 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents
FROM events, generate_series(0, 2) AS t(j)
GROUP BY 1
ORDER BY 1
"""


def events_running_total(sf_dir: str):
    """Per-user running cumulative value over event time (ordered in-group
    scan — the window-function pattern; cents for cross-engine exactness).
    Ties on ts are broken by event_id in both engines."""
    from .common import _default_buckets

    ds = _events(sf_dir, columns=["user_id", "event_id", "ts", "value"])
    nb = _default_buckets()

    def add_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__b"] = (
            pd.util.hash_array(batch["user_id"].to_numpy(np.int64)) % nb
        ).astype(np.int64)
        return batch

    def fold_bucket(group: pd.DataFrame) -> pd.DataFrame:
        # grouped per hash bucket of user_id (not per user — corpus-scale
        # group count; see events_sessionize). Per-user cumsum restored by
        # subtracting each segment's prefix offset.
        g = group.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy(np.int64)
        v = cents(g["value"].to_numpy())
        change = np.flatnonzero(np.diff(uid) != 0) + 1
        bounds = np.concatenate(([0], change, [len(uid)]))
        cs = v.cumsum()
        offset = np.repeat(cs[bounds[:-1]] - v[bounds[:-1]], np.diff(bounds))
        return pd.DataFrame(
            {
                "user_id": uid,
                "event_id": g["event_id"].to_numpy(np.int64),
                "running_cents": (cs - offset).astype(np.int64),
            }
        )

    return (
        ds.map_batches(add_bucket, batch_format="pandas")
        .groupby("__b")
        .map_groups(fold_bucket, batch_format="pandas")
        .sort(["user_id", "event_id"])
    )


EVENTS_RUNNING_SQL = """
SELECT user_id, event_id,
       CAST(SUM(CAST(FLOOR(value*100 + 0.5) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS running_cents
FROM events
ORDER BY user_id, event_id
"""


def events_props_k(sf_dir: str):
    """Semi-structured extraction: pull the integer ``k`` out of the JSON
    ``props`` string per event (vectorized RE2 — the pattern is regex-safe
    in both engines), then a grouped sum of k per event_type."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _events(sf_dir, columns=["event_type", "props"])

    def derive(batch: pa.Table) -> pa.Table:
        ext = pc.extract_regex(batch["props"], r'"k":\s*(?P<v>\d+)')
        k = pc.cast(pc.struct_field(ext, "v"), pa.int64())
        return pa.table({"event_type": batch["event_type"], "sum_k": k, "n": pa.array([1] * len(k), pa.int64())})

    derived = ds.map_batches(derive, batch_format="pyarrow")
    return grouped_sums(derived, ["event_type"], ["sum_k", "n"]).sort("event_type")


EVENTS_PROPS_K_SQL = """
SELECT event_type,
       CAST(SUM(CAST(regexp_extract(props, '"k":\\s*(\\d+)', 1) AS BIGINT)) AS BIGINT) AS sum_k,
       COUNT(*) AS n
FROM events
GROUP BY event_type
ORDER BY event_type
"""


EVENTS_SESSIONIZE_SQL = """
SELECT user_id, COUNT(*) AS n_events, CAST(SUM(new_sess) AS BIGINT) AS n_sessions
FROM (
    SELECT user_id,
           CASE WHEN LAG(ts) OVER w IS NULL
                     OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                THEN 1 ELSE 0 END AS new_sess
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts)
)
GROUP BY user_id
ORDER BY user_id
"""


def asof_merge_scan(key, side, t_us, okey, eid):
    """Vectorized asof merge over one bucket's mixed rows (side 0 =
    order, 1 = event). Returns matched (event_id, user_key, event_t_us,
    o_orderkey, order_t_us) arrays — most recent order with date ≤ ts,
    inclusive; equal-date ties pinned to min o_orderkey; unmatched events
    drop. Pure numpy so the kernel is property-testable on its own.
    """
    # min-orderkey tie-break: lexsort is stable and ranks by the LAST
    # key first; sorting orders by (key, t_us, side, okey_filled) and
    # keeping the FIRST order row per (key, t_us) pins min o_orderkey
    okey_filled = np.where(side == 0, okey, np.iinfo(np.int64).max)
    order = np.lexsort((okey_filled, side, t_us, key))
    key, side, t_us, okey, eid = key[order], side[order], t_us[order], okey[order], eid[order]
    # carry forward the most recent ORDER row index; equal-date orders
    # keep only their first (min-orderkey) representative
    pos = np.arange(len(key), dtype=np.int64)
    is_order = side == 0
    first_at_date = np.ones(len(key), dtype=bool)
    if is_order.any():
        op = pos[is_order]
        dup = np.zeros(len(op), dtype=bool)
        dup[1:] = (key[op[1:]] == key[op[:-1]]) & (t_us[op[1:]] == t_us[op[:-1]])
        first_at_date[op[dup]] = False
    carrier = np.where(is_order & first_at_date, pos, -1)
    last_order = np.maximum.accumulate(carrier)
    is_event = side == 1
    m = last_order[is_event]
    valid = (m >= 0) & (key[np.maximum(m, 0)] == key[is_event])
    ei = pos[is_event][valid]
    oi = m[valid]
    return (
        eid[ei].astype(np.int64),
        key[ei],
        t_us[ei],
        okey[oi].astype(np.int64),
        t_us[oi],
    )


def _tagged_events_orders_union(sf_dir: str):
    """Shared cogroup prelude for the asof and range joins: tag events
    (side 1) and orders (side 0) into one uniform int64 schema
    ``(__b, key, side, t_us, event_id, o_orderkey)``, hash the user key
    into ~2×CPU buckets, and union. -1 sentinels keep BOTH sides int64
    (a NaN filler would float-promote and silently cap exact ids at
    2^53) and the union's block schemas uniform — no concat promotion.
    """
    from .common import _default_buckets

    nb = _default_buckets()
    ev = _events(sf_dir, columns=["event_id", "ts", "user_id"])
    from ..runtime import read_parquet_sized

    od = read_parquet_sized(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )

    def _bucket(key: np.ndarray) -> np.ndarray:
        # Knuth-mix then mod; numpy int64 multiply wraps (never raises)
        # and % with a positive modulus is non-negative for any sign
        with np.errstate(over="ignore"):
            return (key * np.int64(-6700417)) % nb

    def tag_events(batch: pd.DataFrame) -> pd.DataFrame:
        key = batch["user_id"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "__b": _bucket(key),
                "key": key,
                "side": np.ones(len(key), dtype=np.int8),
                "t_us": batch["ts"].astype("datetime64[us]").astype(np.int64),
                "event_id": batch["event_id"].to_numpy(dtype=np.int64),
                "o_orderkey": np.full(len(key), -1, dtype=np.int64),
            }
        )

    def tag_orders(batch: pd.DataFrame) -> pd.DataFrame:
        key = batch["o_custkey"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "__b": _bucket(key),
                "key": key,
                "side": np.zeros(len(key), dtype=np.int8),
                "t_us": batch["o_orderdate"].astype("datetime64[us]").astype(np.int64),
                "event_id": np.full(len(key), -1, dtype=np.int64),
                "o_orderkey": batch["o_orderkey"].to_numpy(dtype=np.int64),
            }
        )

    return ev.map_batches(tag_events, batch_format="pandas").union(
        od.map_batches(tag_orders, batch_format="pandas")
    )


def events_asof_orders(sf_dir: str, sort: bool = True):
    """Distributed AS-OF join: each event matched to the latest order of
    the same user with ``o_orderdate <= ts`` (ties on date broken by min
    ``o_orderkey``; events with no prior order drop — inner asof).

    Ray Data has no asof-join primitive. This expresses it as the repo's
    bucketed-cogroup shape (``_tagged_events_orders_union``) and solves
    each bucket with ONE vectorized merge-scan — ``np.lexsort`` over
    (user, time, side) with orders sorting before events at equal time,
    then ``np.maximum.accumulate`` carrying the index of the most recent
    order row forward; an event's match is valid iff that row belongs to
    the same user. No per-user Python loop (the repo's measured
    per-group-call cost), no per-event search. Partitioning assumption
    (same as the invoice fold): one key's rows fit in one group — salt
    hot keys at 100 TB. ``sort=False`` skips the terminal global sort for
    order-insensitive consumers (e.g. the driver slot's invariant gate).
    """
    unioned = _tagged_events_orders_union(sf_dir)

    def solve_bucket(group: pd.DataFrame) -> pd.DataFrame:
        eid, ekey, ets, okey_m, ots = asof_merge_scan(
            group["key"].to_numpy(dtype=np.int64),
            group["side"].to_numpy(dtype=np.int8),
            group["t_us"].to_numpy(dtype=np.int64),
            group["o_orderkey"].to_numpy(dtype=np.int64),
            group["event_id"].to_numpy(dtype=np.int64),
        )
        return pd.DataFrame(
            {
                "event_id": eid,
                "user_id": ekey,
                "ts": pd.to_datetime(ets, unit="us").astype("datetime64[us]"),
                "o_orderkey": okey_m,
                "o_orderdate": pd.to_datetime(ots, unit="us").astype("datetime64[us]"),
            }
        )

    out = cast_us(unioned.groupby("__b").map_groups(solve_bucket, batch_format="pandas"),
                  ["ts", "o_orderdate"])
    return out.sort("event_id") if sort else out


# deterministic twin of DuckDB's native ASOF JOIN (same most-recent-date
# semantics; the native operator's tie choice among equal-date orders is
# unspecified, so the twin pins it to MIN(o_orderkey) — the engine does
# the same)
EVENTS_ASOF_SQL = """
WITH od AS (
    SELECT o_custkey, o_orderdate, MIN(o_orderkey) AS o_orderkey
    FROM orders GROUP BY 1, 2
),
m AS (
    SELECT e.event_id, e.user_id, e.ts, o.o_orderkey, o.o_orderdate,
           ROW_NUMBER() OVER (PARTITION BY e.event_id
                              ORDER BY o.o_orderdate DESC) AS rn
    FROM events e JOIN od o
      ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
)
SELECT event_id, user_id, ts, o_orderkey, o_orderdate
FROM m WHERE rn = 1
ORDER BY event_id
"""


def _order_counts_below(K_o, T_o, k_p, t_p, inclusive: bool):
    """Per probe (k_p[i], t_p[i]): number of orders with key == k_p[i]
    and T_o <= t_p[i] (inclusive) or < t_p[i] (exclusive). One lexsort
    over the union — orders sort before probes at equal time when
    inclusive, after when exclusive."""
    n_o, n_p = len(K_o), len(k_p)
    key = np.concatenate([K_o, k_p])
    t = np.concatenate([T_o, t_p])
    probe_side = np.int8(1) if inclusive else np.int8(0)
    side = np.concatenate(
        [np.full(n_o, 1 - probe_side, np.int8), np.full(n_p, probe_side, np.int8)]
    )
    srt = np.lexsort((side, t, key))
    is_order = np.concatenate([np.ones(n_o, bool), np.zeros(n_p, bool)])[srt]
    run = np.cumsum(is_order)  # orders at positions <= here
    k_sorted = key[srt]
    new_seg = np.ones(len(k_sorted), bool)
    new_seg[1:] = k_sorted[1:] != k_sorted[:-1]
    seg_id = np.cumsum(new_seg) - 1
    seg_start = np.flatnonzero(new_seg)
    # orders strictly before each segment's first row
    base = (run[seg_start] - is_order[seg_start])[seg_id]
    cnt_sorted = run - is_order.astype(np.int64) - base  # orders before this row, in-segment
    # scatter back to original probe order
    out = np.empty(n_p, dtype=np.int64)
    probe_mask = ~is_order
    orig_idx = np.concatenate([np.full(n_o, -1, np.int64), np.arange(n_p, dtype=np.int64)])[srt]
    out[orig_idx[probe_mask]] = cnt_sorted[probe_mask]
    return out


def range_join_scan(K_o, T_o, k_e, t_e, window_us: int):
    """Vectorized range join over one bucket: for each event i, ALL order
    rows j of the same user with ``t_e[i] - window_us <= T_o[j] <=
    t_e[i]`` (both bounds inclusive). ``K_o/T_o`` must be lexsorted by
    (key, time). Returns (event_row_idx, order_row_idx) index arrays
    (ragged ranges flattened). Pure numpy — property-testable alone."""
    if not len(K_o) or not len(k_e):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    hi = _order_counts_below(K_o, T_o, k_e, t_e, inclusive=True)
    lo = _order_counts_below(K_o, T_o, k_e, t_e - window_us, inclusive=False)
    cnt = hi - lo
    base = np.searchsorted(K_o, k_e, side="left") + lo
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    ev_idx = np.repeat(np.arange(len(k_e), dtype=np.int64), cnt)
    starts = np.repeat(base, cnt)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return ev_idx, starts + offsets


def events_orders_range_join(sf_dir: str, window_days: int = 9000, sort: bool = True):
    """Distributed RANGE join: every (event, order) pair of the same user
    with ``o_orderdate`` inside ``[ts - window_days, ts]`` (inclusive).
    (The synthetic eras sit ~22 years apart — events 2024, orders
    1995-2001 — so the discriminating default is 9000 days: the lower
    bound genuinely cuts inside the order range at every sf.)
    Same bucketed-cogroup shape as ``events_asof_orders``
    (``_tagged_events_orders_union``); each bucket is solved by two
    vectorized merge-count passes (one per bound) plus a ragged-range
    emit — no per-user Python, no per-event scan. Output cardinality is
    the join's own (each event × its in-window orders). ``sort=False``
    skips the terminal global sort of the expanded pair set for
    order-insensitive consumers (the slot's invariant gate).
    """
    window_us = window_days * 86_400_000_000
    unioned = _tagged_events_orders_union(sf_dir)

    def solve_bucket(group: pd.DataFrame) -> pd.DataFrame:
        side = group["side"].to_numpy(dtype=np.int8)
        key = group["key"].to_numpy(dtype=np.int64)
        t_us = group["t_us"].to_numpy(dtype=np.int64)
        is_o = side == 0
        okey = group["o_orderkey"].to_numpy(dtype=np.int64)[is_o]
        K_o, T_o = key[is_o], t_us[is_o]
        srt = np.lexsort((okey, T_o, K_o))
        K_o, T_o, okey = K_o[srt], T_o[srt], okey[srt]
        is_e = ~is_o
        eid = group["event_id"].to_numpy(dtype=np.int64)[is_e]
        k_e, t_e = key[is_e], t_us[is_e]
        ei, oi = range_join_scan(K_o, T_o, k_e, t_e, window_us)
        return pd.DataFrame(
            {
                "event_id": eid[ei],
                "user_id": k_e[ei],
                "ts": pd.to_datetime(t_e[ei], unit="us").astype("datetime64[us]"),
                "o_orderkey": okey[oi],
                "o_orderdate": pd.to_datetime(T_o[oi], unit="us").astype("datetime64[us]"),
            }
        )

    out = cast_us(unioned.groupby("__b").map_groups(solve_bucket, batch_format="pandas"),
                  ["ts", "o_orderdate"])
    return out.sort(["event_id", "o_orderkey"]) if sort else out


EVENTS_RANGE_JOIN_SQL = """
SELECT e.event_id, e.user_id, e.ts, o.o_orderkey, o.o_orderdate
FROM events e JOIN orders o
  ON o.o_custkey = e.user_id
 AND o.o_orderdate <= e.ts
 AND o.o_orderdate >= e.ts - INTERVAL 9000 DAY
ORDER BY event_id, o_orderkey
"""


KMV_K = 128
_KMV_SCALE = float(1 << 60)  # hash domain: 15 hex chars = 60 bits


def _kmv_hash(values: np.ndarray) -> np.ndarray:
    """Deterministic 60-bit hash: first 15 hex chars of md5(str(v)) —
    bit-identical to DuckDB ``('0x' || substr(md5(v::VARCHAR),1,15))``."""
    import hashlib

    return np.fromiter(
        (int(hashlib.md5(str(int(v)).encode()).hexdigest()[:15], 16) for v in values),
        dtype=np.int64,
        count=len(values),
    )


def kmv_estimate(kth_values: np.ndarray, k: int = KMV_K) -> tuple[int, int, int]:
    """(n_kept, kth_hash, estimate) from a sorted-unique hash array.
    Standard KMV: fewer than k distinct hashes → the exact count; else
    (k-1) / (h_k / 2^60), floored — float64 ops only, so the DuckDB twin
    reproduces the estimate exactly."""
    if len(kth_values) < k:
        return len(kth_values), int(kth_values[-1]) if len(kth_values) else -1, len(kth_values)
    kth = int(kth_values[k - 1])
    return k, kth, int(np.floor((k - 1) * _KMV_SCALE / float(kth)))


def events_kmv_distinct(sf_dir: str, k: int = KMV_K):
    """Approximate distinct ``user_id`` count via a KMV (k-minimum-values)
    sketch — the mergeable-sketch shape for distinct-count at 100 TB:
    each block contributes its k smallest DISTINCT hashes (a superset of
    the global k minimum is guaranteed inside the union of per-block
    minima), the tiny partials merge in one final fold, and the estimate
    is a closed-form function of the k-th minimum. The hash is md5-derived
    (never Python ``hash``), so the whole sketch — including the estimate
    — is deterministic and bit-reproducible in DuckDB (``EVENTS_KMV_SQL``).
    """
    ds = _events(sf_dir, columns=["user_id"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        uniq = np.unique(batch["user_id"].to_numpy(dtype=np.int64))
        h = np.unique(_kmv_hash(uniq))  # sorted ascending
        return pd.DataFrame({"hv": h[:k]})

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        h = np.unique(group["hv"].to_numpy(dtype=np.int64))
        n_kept, kth, est = kmv_estimate(h[:k], k)
        return pd.DataFrame(
            {"k": [np.int64(k)], "n_kept": [np.int64(n_kept)],
             "kth_hash": [np.int64(kth)], "estimate": [np.int64(est)]}
        )

    return (
        ds.map_batches(partial, batch_format="pandas")
        .repartition(1)
        .map_batches(fold, batch_format="pandas")
    )


EVENTS_KMV_SQL = f"""
WITH h AS (
    SELECT DISTINCT ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 15))::BIGINT AS hv
    FROM events
),
topk AS (SELECT hv FROM h ORDER BY hv LIMIT {KMV_K}),
agg AS (SELECT COUNT(*) AS n_kept, MAX(hv) AS kth FROM topk)
SELECT CAST({KMV_K} AS BIGINT) AS k,
       CAST(n_kept AS BIGINT) AS n_kept,
       CAST(CASE WHEN n_kept = 0 THEN -1 ELSE kth END AS BIGINT) AS kth_hash,
       CAST(CASE WHEN n_kept < {KMV_K} THEN n_kept
                 ELSE CAST(FLOOR(({KMV_K} - 1) * {float(1 << 60)!r} / CAST(kth AS DOUBLE)) AS BIGINT)
            END AS BIGINT) AS estimate
FROM agg
"""


# ---------------------------------------------------------------------------
# Bloom-filter semi-join (the 100 TB join optimization: probe side never
# shuffles — membership is a map-side bit test against a broadcast filter)


BLOOM_K = 4  # hash functions
BLOOM_BITS_PER_KEY = 8  # m = next_pow2(8·n_build)  → FP ≈ 2.4% at k=4
BLOOM_MIN_LOG2_M = 11  # floor so tiny builds don't degenerate
BLOOM_PRIORITY = "1-URGENT"  # default build-side filter; shared with the SQL twin


def _bloom_m(n_build: int) -> int:
    import math

    return 1 << max(BLOOM_MIN_LOG2_M, math.ceil(math.log2(BLOOM_BITS_PER_KEY * max(1, n_build))))


def _bloom_positions(keys: np.ndarray, i: int, m: int) -> np.ndarray:
    """Position of hash ``i`` for each key: the repo's shared md5
    hex-parse construct (bit-identical in DuckDB), salted per hash."""
    from .curate import _md5_hash15

    return _md5_hash15(keys, f"bloom{i}:") % m


def _block_bitmap(block, m: int) -> np.ndarray:
    """Bloom task: one build block's m-bit partial bitmap."""
    bm = np.zeros(m // 64, dtype=np.uint64)
    if block.num_rows == 0 or "o_custkey" not in block.column_names:
        return bm  # empty build block (e.g. the filter matched nothing)
    keys = block["o_custkey"].to_numpy()
    for i in range(BLOOM_K):
        p = _bloom_positions(keys, i, m)
        np.bitwise_or.at(bm, p // 64, np.uint64(1) << (p % 64).astype(np.uint64))
    return bm


def _or_bitmaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.bitwise_or(a, b)


def events_bloom_semijoin(sf_dir: str, priority: str = BLOOM_PRIORITY):
    """Bloom-filter semi-join: which event users are (probably) customers
    with at least one ``priority`` order, plus their event counts. The
    shape every 100 TB join planner reaches for when one side is small:
    the big (events) side NEVER shuffles — each batch tests its user ids
    against a broadcast m-bit filter; only users passing the bloom would
    continue to an exact verification join downstream.

    Scale shape:

    1. build side: pruned+filtered read of orders → distinct custkeys via
       one bucketed shuffle of the (small) key set,
    2. per-block partial bitmaps OR-merge in a BINARY TREE of Ray tasks
       over object-store refs — the driver and any single worker hold at
       most two bitmaps (m = 8·n_build bits ≈ 1 B/key); no partial
       crosses the driver,
    3. probe side: map-side k-probe bit test per batch against the
       ``ray.put`` filter; per-user rollup moves only (user, hit, count).

    Determinism / oracle parity: positions are the shared md5 construct;
    m derives from the EXACT distinct build count with the same
    ``next_pow2(8n)`` formula on both engines (the ANN width-derivation
    pattern), so the filter — including its false positives — is
    bit-reproducible in SQL. No false negatives by construction."""
    import pyarrow.compute as pc
    import ray

    from ..runtime import read_parquet_sized, remote_fn
    from .common import bucketed_group_agg, grouped_sums

    orders = read_parquet_sized(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey"],
        filter=(pc.field("o_orderpriority") == priority),
    )
    distinct = bucketed_group_agg(
        orders.map_batches(
            lambda b: b.drop_duplicates("o_custkey").assign(one=np.int64(1)),
            batch_format="pandas",
        ),
        ["o_custkey"],
        {"one": "min"},
    )
    distinct = distinct.materialize()  # small side; read twice (count + bitmaps)
    n_build = distinct.count()
    m = _bloom_m(n_build)

    block_task, or_task = remote_fn(_block_bitmap), remote_fn(_or_bitmaps)
    refs = [block_task.remote(r, m) for r in distinct.to_arrow_refs()]
    while len(refs) > 1:  # binary tree: depth log2(blocks)
        refs = [
            or_task.remote(refs[j], refs[j + 1]) if j + 1 < len(refs) else refs[j]
            for j in range(0, len(refs), 2)
        ]
    bitmap = ray.get(refs[0]) if refs else np.zeros(m // 64, dtype=np.uint64)
    bm_ref = ray.put(bitmap)

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        bm = ray.get(bm_ref)  # zero-copy local fetch
        u = batch["user_id"].to_numpy(np.int64)
        # the md5 probe is a per-element Python hash — pay it once per
        # DISTINCT user in the batch, not once per event row
        uu, inv = np.unique(u, return_inverse=True)
        hit_u = np.ones(len(uu), dtype=bool)
        for i in range(BLOOM_K):
            p = _bloom_positions(uu, i, m)
            hit_u &= (bm[p // 64] >> (p % 64).astype(np.uint64)) & np.uint64(1) != 0
        hit = hit_u[inv]
        return pd.DataFrame(
            {"user_id": u, "bloom_hit": hit.astype(np.int64), "n_events": np.int64(1)}
        )

    probed = _events(sf_dir, columns=["user_id"]).map_batches(probe, batch_format="pandas")
    return grouped_sums(probed, ["user_id", "bloom_hit"], ["n_events"]).sort("user_id")


EVENTS_BLOOM_SQL = f"""
WITH b AS (
    SELECT DISTINCT o_custkey AS u FROM orders WHERE o_orderpriority = '{BLOOM_PRIORITY}'
),
par AS (
    SELECT CAST(POWER(2, GREATEST({BLOOM_MIN_LOG2_M},
        CEIL(LOG2({BLOOM_BITS_PER_KEY} * GREATEST(1, (SELECT COUNT(*) FROM b)))))) AS BIGINT) AS m
),
pos AS (
    SELECT DISTINCT
        ('0x' || substr(md5('bloom' || CAST(i AS VARCHAR) || ':' || CAST(u AS VARCHAR)), 1, 15))
            ::BIGINT % (SELECT m FROM par) AS p
    FROM b, range({BLOOM_K}) r(i)
),
cand AS (
    SELECT user_id,
        ('0x' || substr(md5('bloom' || CAST(i AS VARCHAR) || ':' || CAST(user_id AS VARCHAR)), 1, 15))
            ::BIGINT % (SELECT m FROM par) AS p
    FROM (SELECT DISTINCT user_id FROM events), range({BLOOM_K}) r(i)
),
hits AS (
    SELECT user_id, CAST(BOOL_AND(p IN (SELECT p FROM pos)) AS BIGINT) AS bloom_hit
    FROM cand GROUP BY user_id
)
SELECT e.user_id, h.bloom_hit, CAST(COUNT(*) AS BIGINT) AS n_events
FROM events e JOIN hits h USING (user_id)
GROUP BY e.user_id, h.bloom_hit
ORDER BY e.user_id
"""


# ---------------------------------------------------------------------------
# Funnel / sequence-pattern matching (ordered two-step within a window)


FUNNEL_FROM = "click"
FUNNEL_TO = "purchase"
FUNNEL_WINDOW_US = 86_400 * 1_000_000  # 1 day: ~35% of purchases convert


def funnel_scan(
    k_c: np.ndarray, t_c: np.ndarray, k_p: np.ndarray, t_p: np.ndarray, window_us: int
) -> np.ndarray:
    """Pure kernel: for each probe (k_p[i], t_p[i]) return 1 iff a trigger
    row with the same key exists in ``[t_p[i] - window_us, t_p[i]]``
    (both bounds inclusive). One ``np.lexsort`` over the union — triggers
    sort BEFORE probes at equal time, so a same-instant trigger counts —
    then the most recent trigger index is carried forward and validated
    against the probe's key segment (the asof_merge_scan idiom)."""
    n_c, n_p = len(k_c), len(k_p)
    key = np.concatenate([k_c, k_p])
    t = np.concatenate([t_c, t_p])
    side = np.concatenate([np.zeros(n_c, np.int8), np.ones(n_p, np.int8)])
    srt = np.lexsort((side, t, key))
    is_trig = np.concatenate([np.ones(n_c, bool), np.zeros(n_p, bool)])[srt]
    ks, ts_ = key[srt], t[srt]
    seg_new = np.ones(len(ks), bool)
    seg_new[1:] = ks[1:] != ks[:-1]
    seg_id = np.cumsum(seg_new) - 1
    idx = np.arange(len(ks), dtype=np.int64)
    last_trig = np.maximum.accumulate(np.where(is_trig, idx, np.int64(-1)))
    safe = np.maximum(last_trig, 0)
    same_seg = (last_trig >= 0) & (seg_id[safe] == seg_id)
    recent = same_seg & (ts_[safe] >= ts_ - np.int64(window_us))
    hit_sorted = (~is_trig) & recent
    out = np.zeros(n_p, dtype=np.int64)
    orig = np.concatenate(
        [np.full(n_c, -1, np.int64), np.arange(n_p, dtype=np.int64)]
    )[srt]
    probe_mask = ~is_trig
    out[orig[probe_mask]] = hit_sorted[probe_mask].astype(np.int64)
    return out


def events_funnel(sf_dir: str, window_us: int = FUNNEL_WINDOW_US):
    """Funnel analysis — ordered sequence-pattern matching over the event
    stream: per user, how many ``purchase`` events were preceded by a
    ``click`` of the same user within the window (inclusive bounds; a
    same-timestamp click counts). The two-step funnel every product /
    training-telemetry pipeline runs; Ray Data has no ordered-pattern
    primitive, so it composes the repo's bucketed-cogroup shape with one
    vectorized merge-scan per bucket (``funnel_scan`` — no per-user loop,
    no per-event search).

    Scale shape: the read prunes to (user_id, ts, event_type) and filters
    to the two step types map-side; ONE hash shuffle co-locates each
    user's rows; the per-user rollup is completed inside the same bucket
    task (a bucket holds all rows of its users), so only the KB-sized
    per-user count table leaves the fold. Partitioning assumption: one
    user's funnel rows fit in a group — salt hot keys at 100 TB."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .common import _default_buckets

    nb = _default_buckets()
    steps = pa.array([FUNNEL_FROM, FUNNEL_TO])

    ev = _events(sf_dir, columns=["user_id", "ts", "event_type"]).map_batches(
        lambda b: b.filter(pc.is_in(b["event_type"], steps)),
        batch_format="pyarrow",
    )

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        u = batch["user_id"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "__b": (pd.util.hash_array(u) % nb).astype(np.int64),
                "user_id": u,
                "t_us": batch["ts"].astype("datetime64[us]").astype(np.int64),
                "is_to": (batch["event_type"] == FUNNEL_TO).to_numpy(),
            }
        )

    def solve_bucket(group: pd.DataFrame) -> pd.DataFrame:
        to_m = group["is_to"].to_numpy()
        k_p = group["user_id"].to_numpy(np.int64)[to_m]
        t_p = group["t_us"].to_numpy(np.int64)[to_m]
        hits = funnel_scan(
            group["user_id"].to_numpy(np.int64)[~to_m],
            group["t_us"].to_numpy(np.int64)[~to_m],
            k_p,
            t_p,
            window_us,
        )
        out = pd.DataFrame({"user_id": k_p, "n_conversions": hits})
        out = out.groupby("user_id", as_index=False).agg(
            n_purchases=("n_conversions", "size"), n_conversions=("n_conversions", "sum")
        )
        return out.astype(
            {"user_id": np.int64, "n_purchases": np.int64, "n_conversions": np.int64}
        )

    return (
        ev.map_batches(tag, batch_format="pandas")
        .groupby("__b")
        .map_groups(solve_bucket, batch_format="pandas")
        .sort("user_id")
    )


EVENTS_FUNNEL_SQL = f"""
WITH p AS (
    SELECT user_id, ts FROM events WHERE event_type = '{FUNNEL_TO}'
),
conv AS (
    SELECT p.user_id,
           CASE WHEN EXISTS (
               SELECT 1 FROM events c
               WHERE c.event_type = '{FUNNEL_FROM}' AND c.user_id = p.user_id
                 AND c.ts <= p.ts
                 AND c.ts >= p.ts - INTERVAL {FUNNEL_WINDOW_US // 1_000_000} SECONDS
           ) THEN 1 ELSE 0 END AS hit
    FROM p
)
SELECT user_id,
       CAST(COUNT(*) AS BIGINT) AS n_purchases,
       CAST(SUM(hit) AS BIGINT) AS n_conversions
FROM conv
GROUP BY user_id
ORDER BY user_id
"""


# --- cohort retention matrix ------------------------------------------------


def events_retention(sf_dir: str):
    """Cohort retention: users grouped by their first-activity DAY
    (cohort), counted as retained on each later day they were active —
    the classic product-analytics triangle, here as a training-data-era
    "activity coverage by ingest cohort" rollup.

    Output: (cohort_day, offset_days, users) — ``users`` = DISTINCT
    users of that cohort active ``offset_days`` after their first day.

    Distributed shape: per-batch DISTINCT (user, day) partials → ONE
    user-hash-bucketed exchange; per bucket the cohort (min day) and the
    per-user offsets come from one vectorized sort + boundary slicing —
    each user's rows are already distinct days, so the (cohort, offset,
    user) rows emitted are unique per user and the final matrix count is
    exactly COUNT(DISTINCT user). The second exchange carries user-day
    rows (already deduped) into a KB-sized grouped count. Partitioning
    assumption: one user's activity days fit a group."""
    from .common import _default_buckets

    ds = _events(sf_dir, columns=["user_id", "ts"])
    nb = _default_buckets()

    def day_rows(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "user_id": batch["user_id"].to_numpy(np.int64),
                "day": batch["ts"].dt.floor("D").astype("datetime64[us]"),
            }
        ).drop_duplicates()
        out["__b"] = (pd.util.hash_array(out["user_id"].to_numpy(np.int64)) % nb).astype(
            np.int64
        )
        return out

    def fold_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["user_id", "day"]).sort_values(
            ["user_id", "day"], kind="mergesort"
        )
        uid = g["user_id"].to_numpy(np.int64)
        day = g["day"].to_numpy("datetime64[us]")
        bounds = np.concatenate(
            ([0], np.flatnonzero(np.diff(uid) != 0) + 1, [len(uid)])
        )
        # cohort = each user's first (minimum) day, repeated over the
        # user's rows via the boundary slices
        cohort = np.repeat(day[bounds[:-1]], np.diff(bounds))
        return pd.DataFrame(
            {
                "cohort_day": cohort,
                "offset_days": (day - cohort).astype("timedelta64[D]").astype(np.int64),
                "users": np.ones(len(g), dtype=np.int64),
            }
        )

    mat = (
        ds.map_batches(day_rows, batch_format="pandas")
        .groupby("__b")
        .map_groups(fold_bucket, batch_format="pandas")
    )
    mat = grouped_sums(mat, ["cohort_day", "offset_days"], ["users"])
    return cast_us(mat, ["cohort_day"]).sort(["cohort_day", "offset_days"])


EVENTS_RETENTION_SQL = """
WITH ud AS (
    SELECT DISTINCT user_id, DATE_TRUNC('day', ts) AS day FROM events
),
c AS (SELECT user_id, MIN(day) AS cohort_day FROM ud GROUP BY user_id)
SELECT c.cohort_day,
       CAST(date_diff('day', c.cohort_day, ud.day) AS BIGINT) AS offset_days,
       CAST(COUNT(*) AS BIGINT) AS users
FROM ud JOIN c USING (user_id)
GROUP BY 1, 2
ORDER BY 1, 2
"""


# --- windowed distinct actives (WAU) -----------------------------------------

WAU_WINDOW_DAYS = 7


def events_wau(sf_dir: str, window_days: int = WAU_WINDOW_DAYS):
    """Trailing-window distinct active users per day (the DAU/WAU/MAU
    rollup): a user active on day d counts as active for every window
    ending on d..d+6.

    Distributed shape: per-batch DISTINCT (user, day) partials →
    map-side ×window explode to (user, window_end) coverage rows → one
    user-hash-bucketed exchange where per-bucket dedup collapses
    multi-day activity inside a window (exact because one user's rows
    co-locate) → KB-sized grouped count per window end. The only
    corpus-scale exchange carries deduped user-day×window rows — the
    same two-exchange shape as ``events_retention``."""
    from .common import _default_buckets

    ds = _events(sf_dir, columns=["user_id", "ts"])
    nb = _default_buckets()

    def cover(batch: pd.DataFrame) -> pd.DataFrame:
        base = pd.DataFrame(
            {
                "user_id": batch["user_id"].to_numpy(np.int64),
                "day": batch["ts"].dt.floor("D").astype("datetime64[us]"),
            }
        ).drop_duplicates()
        u = np.tile(base["user_id"].to_numpy(np.int64), window_days)
        w = np.concatenate(
            [base["day"].to_numpy("datetime64[us]") + np.timedelta64(g, "D")
             for g in range(window_days)]
        )
        out = pd.DataFrame({"user_id": u, "wend": w}).drop_duplicates()
        out["__b"] = (pd.util.hash_array(out["user_id"].to_numpy(np.int64)) % nb).astype(
            np.int64
        )
        return out

    def dedup_count(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["user_id", "wend"])
        counts = g.groupby("wend", sort=False).size()
        return pd.DataFrame(
            {
                "window_end": counts.index.to_numpy("datetime64[us]"),
                "active_users": counts.to_numpy(np.int64),
            }
        )

    mat = (
        ds.map_batches(cover, batch_format="pandas")
        .groupby("__b")
        .map_groups(dedup_count, batch_format="pandas")
    )
    mat = grouped_sums(mat, ["window_end"], ["active_users"])
    return cast_us(mat, ["window_end"]).sort("window_end")


EVENTS_WAU_SQL = f"""
WITH ud AS (
    SELECT DISTINCT user_id, DATE_TRUNC('day', ts) AS day FROM events
),
cov AS (
    SELECT DISTINCT user_id, day + g * INTERVAL '1 day' AS wend
    FROM ud, LATERAL UNNEST(generate_series(0, {WAU_WINDOW_DAYS - 1})) t(g)
)
SELECT wend AS window_end, CAST(COUNT(*) AS BIGINT) AS active_users
FROM cov GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# HyperLogLog distinct-count sketch (registers + integer-exact estimate)


HLL_P = 8  # 2^p = 256 registers
HLL_M = 1 << HLL_P
HLL_WBITS = 60 - HLL_P  # md5-hash15 is 60-bit; low p bits pick the register
HLL_RHO_CAP = HLL_WBITS + 1  # rho for w == 0
# alpha_256 = 0.7213 / (1 + 1.079/256), fixed-point ppm — shared literal
# with the SQL twin so the estimate is integer-exact on both sides
HLL_ALPHA_PPM = 718274


def _hll_ln_ppm_table() -> list[int]:
    """round(1e6 · ln(m / v_zero)) for v_zero in 1..m — the linear-counting
    log, precomputed as a shared integer literal so neither engine depends
    on its runtime libm rounding at the floor boundary."""
    import math

    return [round(1_000_000 * math.log(HLL_M / v)) for v in range(1, HLL_M + 1)]


_HLL_LN_PPM = _hll_ln_ppm_table()


def hll_registers(hv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(register, rho) from 60-bit hash values — THE register/rho
    convention shared by the events HLL, the per-type HLL and the table
    profiler (a drift here would silently desync their DuckDB twins):
    rho = trailing zeros of the suffix + 1 via the low-bit isolation
    trick (w & -w is an exact power of two, so log2 on float64 is exact
    up to 2^52)."""
    reg = hv % HLL_M
    w = hv >> HLL_P
    low = w & -w
    rho = np.where(
        w == 0, np.int64(HLL_RHO_CAP), np.log2(np.maximum(low, 1)).astype(np.int64) + 1
    )
    return reg, rho


def hll_partial(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-block register partial: ≤ m rows of (register, max rho).
    Hash is the repo's shared md5-hash15 construct (DuckDB-mirrorable)."""
    from .curate import _md5_hash15

    uniq = np.unique(batch["user_id"].to_numpy(dtype=np.int64))
    reg, rho = hll_registers(_md5_hash15(uniq, "hll:"))
    df = pd.DataFrame({"register": reg, "rho": rho})
    out = df.groupby("register", as_index=False, sort=False)["rho"].max()
    return out.rename(columns={"rho": "max_rho"})


def hll_estimate(max_rho_by_register: dict[int, int]) -> tuple[int, int, int]:
    """(v_nonzero, s_scaled, estimate) from merged registers, all-integer.

    Raw HLL: alpha·m²/Σ2^-rho with Σ carried as S/2^wbits+1 (S ≤ m·2^53
    fits int64; the division runs in unbounded Python ints). Small-range
    correction: raw ≤ 2.5m with empty registers → linear counting
    m·ln(m/v_zero) via the shared ppm table."""
    rhos = [int(max_rho_by_register.get(j, 0)) for j in range(HLL_M)]
    v_nonzero = sum(1 for r in rhos if r > 0)
    s_scaled = sum(1 << (HLL_RHO_CAP - r) for r in rhos)
    raw = (HLL_ALPHA_PPM * HLL_M * HLL_M * (1 << HLL_RHO_CAP)) // (s_scaled * 1_000_000)
    v_zero = HLL_M - v_nonzero
    if raw <= (5 * HLL_M) // 2 and v_zero > 0:
        est = (HLL_M * _HLL_LN_PPM[v_zero - 1]) // 1_000_000
    else:
        est = raw
    return v_nonzero, s_scaled, est


def events_hll_distinct(sf_dir: str):
    """Approximate distinct ``user_id`` via a HyperLogLog sketch — the
    fixed-size mergeable companion to ``events_kmv_distinct``: per-block
    partials are ≤ m=256 (register, max_rho) rows regardless of block
    size, the merge is a grouped MAX (register-wise max is associative
    and idempotent, so re-execution / lineage replay cannot corrupt the
    sketch), and the estimate is a closed-form integer function of the
    merged registers. At 100 TB the exchange carries n_blocks·256 tiny
    rows — constant per block where KMV carries k rows — and the same
    registers merge across days/partitions for free (union = max).

    Estimate is bit-reproducible in DuckDB (``EVENTS_HLL_SQL``): md5
    register/rho derivation, HUGEINT harmonic sum, shared ppm-literal
    linear-counting correction."""
    ds = _events(sf_dir, columns=["user_id"])
    from .common import bucketed_group_agg

    regs = bucketed_group_agg(
        ds.map_batches(hll_partial, batch_format="pandas"),
        ["register"],
        {"max_rho": "max"},
    ).to_pandas()
    merged = dict(zip(regs["register"].astype(int), regs["max_rho"].astype(int)))
    v_nonzero, s_scaled, est = hll_estimate(merged)

    import ray.data

    return ray.data.from_pandas(
        pd.DataFrame(
            {
                "m": [np.int64(HLL_M)],
                "v_nonzero": [np.int64(v_nonzero)],
                "s_scaled": [np.int64(s_scaled)],
                "estimate": [np.int64(est)],
            }
        )
    )


def _hll_ln_values_sql() -> str:
    return ", ".join(f"({v}, {p})" for v, p in zip(range(1, HLL_M + 1), _HLL_LN_PPM))


EVENTS_HLL_SQL = f"""
WITH h AS (
    SELECT DISTINCT ('0x' || substr(md5('hll:' || CAST(user_id AS VARCHAR)), 1, 15))::BIGINT AS hv
    FROM events
),
rr AS (
    SELECT hv % {HLL_M} AS register,
           CASE WHEN hv // {HLL_M} = 0 THEN {HLL_RHO_CAP}
                ELSE bit_count(((hv // {HLL_M}) & -(hv // {HLL_M})) - 1) + 1 END AS rho
    FROM h
),
regs AS (SELECT register, MAX(rho) AS max_rho FROM rr GROUP BY register),
filled AS (
    SELECT gs.j AS register, COALESCE(regs.max_rho, 0) AS max_rho
    FROM generate_series(0, {HLL_M - 1}) gs(j) LEFT JOIN regs ON regs.register = gs.j
),
agg AS (
    SELECT COUNT(*) FILTER (WHERE max_rho > 0) AS v_nonzero,
           SUM(CAST(1 AS HUGEINT) << ({HLL_RHO_CAP} - max_rho)) AS s_scaled
    FROM filled
),
est AS (
    SELECT v_nonzero, s_scaled,
           (CAST({HLL_ALPHA_PPM} AS HUGEINT) * {HLL_M} * {HLL_M} * (CAST(1 AS HUGEINT) << {HLL_RHO_CAP}))
               // (s_scaled * 1000000) AS raw
    FROM agg
)
SELECT CAST({HLL_M} AS BIGINT) AS m,
       CAST(v_nonzero AS BIGINT) AS v_nonzero,
       CAST(s_scaled AS BIGINT) AS s_scaled,
       CAST(CASE WHEN raw <= {(5 * HLL_M) // 2} AND v_nonzero < {HLL_M}
                 THEN ({HLL_M} * (SELECT ppm FROM (VALUES {_hll_ln_values_sql()}) ln(vz, ppm)
                                  WHERE vz = {HLL_M} - v_nonzero)) // 1000000
                 ELSE raw END AS BIGINT) AS estimate
FROM est
"""


# ---------------------------------------------------------------------------
# Robust (median/MAD) anomaly flags over the hourly rollup


MAD_SIGMA_X = 6  # flag when |cnt - median| > MAD_SIGMA_X · max(MAD, 1)


def _hourly_type_counts(ds):
    """Hourly (hour, event_type) count rollup — the shared corpus-scale
    partial-emitter behind the MAD and CUSUM detectors. Zero-copy Arrow
    (r5 sweep): floor_temporal keeps timestamp[us] (the driver-hash
    dtype), event_type rides through unconverted; measured ~10% faster
    than the pandas dt.floor emitter at sf0.1."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "hour": pc.floor_temporal(batch["ts"], unit="hour"),
                "event_type": batch["event_type"],
                "n": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )

    return cast_us(
        grouped_sums(ds.map_batches(derive, batch_format="pyarrow",
                                    zero_copy_batch=True),
                     ["hour", "event_type"], ["n"]),
        ["hour"],
    )


def events_mad_anomaly(sf_dir: str):
    """Per-event-type robust anomaly detection over hourly volumes:
    median + median-absolute-deviation in exact integer arithmetic, flag
    hours whose deviation exceeds ``MAD_SIGMA_X · max(MAD, 1)`` — the
    monitoring pass a streaming ingest runs over its own throughput
    rollups, with MAD instead of stddev so the anomalies being hunted
    cannot poison the threshold (a 50% breakdown point vs mean/σ's 0%).

    Distributed shape: ONE corpus-scale pass builds the hourly count
    rollup (per-batch partials + bucketed sums — the ``events_hourly``
    kernel); both medians then run as ``exact_grouped_quantile_int``
    histogram-narrowing selections over the ROLLUP (hours × types — time-
    bounded, not corpus-bounded), every type narrowed in the same pass;
    thresholds broadcast back as a tiny per-type map. No sort anywhere.

    Exactness: counts, medians, deviations and the flag are all int64;
    the rank is k = ceil(0.5·n) (the kernel's shared ceil formula), so
    the DuckDB twin selects the identical order statistic."""
    from .relational import exact_grouped_quantile_int

    ds = _events(sf_dir, columns=["ts", "event_type"])
    hourly = _hourly_type_counts(ds).materialize()  # rollup-sized; read by two quantile passes + the flag pass

    # bounded type set → stable integer group ids (sorted for determinism)
    types = sorted(
        hourly.map_batches(
            lambda b: b[["event_type"]].drop_duplicates(), batch_format="pandas"
        ).to_pandas()["event_type"].unique()
    )
    t2i = {t: i for i, t in enumerate(types)}

    def with_gid(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "gid": batch["event_type"].map(t2i).to_numpy(np.int64),
                "cnt": batch["n"].to_numpy(np.int64),
            }
        )

    gds = hourly.map_batches(with_gid, batch_format="pandas")
    med = {g: v for g, (_n, _k, v) in
           exact_grouped_quantile_int(gds, "gid", "cnt", 500_000).items()}

    def with_dev(batch: pd.DataFrame) -> pd.DataFrame:
        gid = batch["event_type"].map(t2i).to_numpy(np.int64)
        cnt = batch["n"].to_numpy(np.int64)
        m = np.array([med[int(g)] for g in gid], dtype=np.int64)
        return pd.DataFrame({"gid": gid, "cnt": np.abs(cnt - m)})

    devs = hourly.map_batches(with_dev, batch_format="pandas")
    mad = {g: v for g, (_n, _k, v) in
           exact_grouped_quantile_int(devs, "gid", "cnt", 500_000).items()}

    def flag(batch: pd.DataFrame) -> pd.DataFrame:
        gid = batch["event_type"].map(t2i).to_numpy(np.int64)
        cnt = batch["n"].to_numpy(np.int64)
        m = np.array([med[int(g)] for g in gid], dtype=np.int64)
        d = np.array([mad[int(g)] for g in gid], dtype=np.int64)
        dev = np.abs(cnt - m)
        return pd.DataFrame(
            {
                "hour": batch["hour"],
                "event_type": batch["event_type"],
                "cnt": cnt,
                "med": m,
                "mad": d,
                "is_anomaly": (dev > MAD_SIGMA_X * np.maximum(d, 1)).astype(np.int64),
            }
        )

    return cast_us(hourly.map_batches(flag, batch_format="pandas"), ["hour"]).sort(
        ["event_type", "hour"]
    )


EVENTS_MAD_SQL = f"""
WITH h AS (
    SELECT event_type, CAST(date_trunc('hour', ts) AS TIMESTAMP) AS hour,
           COUNT(*) AS cnt
    FROM events GROUP BY 1, 2
),
medsel AS (
    SELECT event_type, cnt,
           ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY cnt) AS rn,
           COUNT(*) OVER (PARTITION BY event_type) AS n
    FROM h
),
med AS (
    SELECT event_type, cnt AS med FROM medsel
    WHERE rn = (500000 * n + 999999) // 1000000
),
dev AS (
    SELECT h.event_type, h.hour, h.cnt, med.med, ABS(h.cnt - med.med) AS dv
    FROM h JOIN med USING (event_type)
),
madsel AS (
    SELECT event_type, dv,
           ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY dv) AS rn,
           COUNT(*) OVER (PARTITION BY event_type) AS n
    FROM dev
),
mad AS (
    SELECT event_type, dv AS mad FROM madsel
    WHERE rn = (500000 * n + 999999) // 1000000
)
SELECT dev.hour, dev.event_type, CAST(dev.cnt AS BIGINT) AS cnt,
       CAST(dev.med AS BIGINT) AS med, CAST(mad.mad AS BIGINT) AS mad,
       CAST(CASE WHEN dev.dv > {MAD_SIGMA_X} * GREATEST(mad.mad, 1)
                 THEN 1 ELSE 0 END AS BIGINT) AS is_anomaly
FROM dev JOIN mad USING (event_type)
ORDER BY dev.event_type, dev.hour
"""


def events_hll_by_type(sf_dir: str):
    """Per-event-type approximate distinct users — the grouped HLL:
    partials key registers by (event_type, register), the combine stays
    one bucketed grouped MAX, and each type's 256-register slice feeds
    the same closed-form integer estimate as the global sketch. The
    per-key cardinality rollup (distinct users per product surface /
    per day / per cohort) that exact DISTINCT makes corpus-priced and
    the sketch makes |keys|·m-priced. Bit-exact DuckDB twin
    (``EVENTS_HLL_BY_TYPE_SQL``)."""
    ds = _events(sf_dir, columns=["event_type", "user_id"])
    from .common import bucketed_group_agg

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for et, g in batch.groupby("event_type", sort=False):
            p = hll_partial(g)
            p.insert(0, "event_type", et)
            frames.append(p)
        return pd.concat(frames, ignore_index=True)

    regs = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["event_type", "register"],
        {"max_rho": "max"},
    ).to_pandas()

    rows = []
    for et, g in regs.groupby("event_type", sort=True):
        merged = dict(zip(g["register"].astype(int), g["max_rho"].astype(int)))
        v, s, est = hll_estimate(merged)
        rows.append((et, v, s, est))
    out = pd.DataFrame(rows, columns=["event_type", "v_nonzero", "s_scaled", "estimate"])
    out[["v_nonzero", "s_scaled", "estimate"]] = out[
        ["v_nonzero", "s_scaled", "estimate"]
    ].astype(np.int64)

    import ray.data

    return ray.data.from_pandas(out)


EVENTS_HLL_BY_TYPE_SQL = f"""
WITH h AS (
    SELECT DISTINCT event_type,
           ('0x' || substr(md5('hll:' || CAST(user_id AS VARCHAR)), 1, 15))::BIGINT AS hv
    FROM events
),
rr AS (
    SELECT event_type, hv % {HLL_M} AS register,
           CASE WHEN hv // {HLL_M} = 0 THEN {HLL_RHO_CAP}
                ELSE bit_count(((hv // {HLL_M}) & -(hv // {HLL_M})) - 1) + 1 END AS rho
    FROM h
),
regs AS (
    SELECT event_type, register, MAX(rho) AS max_rho FROM rr GROUP BY 1, 2
),
types AS (SELECT DISTINCT event_type FROM events),
filled AS (
    SELECT t.event_type, gs.j AS register, COALESCE(regs.max_rho, 0) AS max_rho
    FROM types t CROSS JOIN generate_series(0, {HLL_M - 1}) gs(j)
    LEFT JOIN regs ON regs.event_type = t.event_type AND regs.register = gs.j
),
agg AS (
    SELECT event_type,
           COUNT(*) FILTER (WHERE max_rho > 0) AS v_nonzero,
           SUM(CAST(1 AS HUGEINT) << ({HLL_RHO_CAP} - max_rho)) AS s_scaled
    FROM filled GROUP BY event_type
),
est AS (
    SELECT event_type, v_nonzero, s_scaled,
           (CAST({HLL_ALPHA_PPM} AS HUGEINT) * {HLL_M} * {HLL_M} * (CAST(1 AS HUGEINT) << {HLL_RHO_CAP}))
               // (s_scaled * 1000000) AS raw
    FROM agg
)
SELECT event_type,
       CAST(v_nonzero AS BIGINT) AS v_nonzero,
       CAST(s_scaled AS BIGINT) AS s_scaled,
       CAST(CASE WHEN raw <= {(5 * HLL_M) // 2} AND v_nonzero < {HLL_M}
                 THEN ({HLL_M} * (SELECT ppm FROM (VALUES {_hll_ln_values_sql()}) ln(vz, ppm)
                                  WHERE vz = {HLL_M} - v_nonzero)) // 1000000
                 ELSE raw END AS BIGINT) AS estimate
FROM est ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# CUSUM change detection over the hourly rollup


CUSUM_SLACK_X = 3  # slack = CUSUM_SLACK_X · max(MAD, 1)
CUSUM_THR_X = 6  # alarm when S_t > CUSUM_THR_X · max(MAD, 1)


def events_cusum(sf_dir: str):
    """One-sided CUSUM drift detector per event type: S_t = max(0,
    S_{t-1} + x_t − med − slack) over the hourly counts, alarm when S_t
    exceeds the threshold — the SEQUENTIAL complement of the pointwise
    MAD flags (``events_mad_anomaly`` catches single spiked hours; CUSUM
    accumulates small sustained shifts that never individually spike).
    Reference level and scale are the same robust integers (median, MAD
    via the grouped histogram-narrowing kernel).

    Distributed shape: the corpus-scale pass is the hourly rollup; the
    recursion is inherently sequential PER TYPE, so it folds inside one
    ``map_groups`` per event type over the ROLLUP (time-bounded rows) —
    the bounded-sequential-tail pattern: at 10^12 events the rollup is
    still hours×types, and each type's fold is a few thousand integer
    steps. DuckDB twin replays the recursion as a recursive CTE."""
    from .relational import exact_grouped_quantile_int

    ds = _events(sf_dir, columns=["ts", "event_type"])
    hourly = _hourly_type_counts(ds).materialize()

    types = sorted(
        hourly.map_batches(
            lambda b: b[["event_type"]].drop_duplicates(), batch_format="pandas"
        ).to_pandas()["event_type"].unique()
    )
    t2i = {t: i for i, t in enumerate(types)}

    def with_gid(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "gid": batch["event_type"].map(t2i).to_numpy(np.int64),
                "cnt": batch["n"].to_numpy(np.int64),
            }
        )

    gds = hourly.map_batches(with_gid, batch_format="pandas")
    med = {g: v for g, (_n, _k, v) in
           exact_grouped_quantile_int(gds, "gid", "cnt", 500_000).items()}

    def with_dev(batch: pd.DataFrame) -> pd.DataFrame:
        gid = batch["event_type"].map(t2i).to_numpy(np.int64)
        cnt = batch["n"].to_numpy(np.int64)
        m = np.array([med[int(g)] for g in gid], dtype=np.int64)
        return pd.DataFrame({"gid": gid, "cnt": np.abs(cnt - m)})

    mad = {g: v for g, (_n, _k, v) in
           exact_grouped_quantile_int(
               hourly.map_batches(with_dev, batch_format="pandas"), "gid", "cnt", 500_000
           ).items()}

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("hour", kind="mergesort").reset_index(drop=True)
        et = g["event_type"].iloc[0]
        gid = t2i[et]
        m, d = med[gid], max(mad[gid], 1)
        slack, thr = CUSUM_SLACK_X * d, CUSUM_THR_X * d
        cnt = g["n"].to_numpy(np.int64)
        s = np.zeros(len(g), dtype=np.int64)
        acc = 0
        for i in range(len(g)):
            acc = max(0, acc + int(cnt[i]) - m - slack)
            s[i] = acc
        return pd.DataFrame(
            {
                "hour": g["hour"],
                "event_type": et,
                "cnt": cnt,
                "cusum": s,
                "alarm": (s > thr).astype(np.int64),
            }
        )

    out = hourly.groupby("event_type").map_groups(fold, batch_format="pandas")
    return cast_us(out, ["hour"]).sort(["event_type", "hour"])


EVENTS_CUSUM_SQL = f"""
WITH RECURSIVE h AS MATERIALIZED (
    SELECT event_type, CAST(date_trunc('hour', ts) AS TIMESTAMP) AS hour,
           COUNT(*) AS cnt
    FROM events GROUP BY 1, 2
),
medsel AS (
    SELECT event_type, cnt,
           ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY cnt) AS rn,
           COUNT(*) OVER (PARTITION BY event_type) AS n
    FROM h
),
med AS (
    SELECT event_type, cnt AS med FROM medsel
    WHERE rn = (500000 * n + 999999) // 1000000
),
madsel AS (
    SELECT h.event_type, ABS(h.cnt - med.med) AS dv,
           ROW_NUMBER() OVER (PARTITION BY h.event_type ORDER BY ABS(h.cnt - med.med)) AS rn,
           COUNT(*) OVER (PARTITION BY h.event_type) AS n
    FROM h JOIN med USING (event_type)
),
par AS MATERIALIZED (
    SELECT med.event_type, med.med,
           {CUSUM_SLACK_X} * GREATEST(mad.mad, 1) AS slack,
           {CUSUM_THR_X} * GREATEST(mad.mad, 1) AS thr
    FROM med JOIN (
        SELECT event_type, dv AS mad FROM madsel
        WHERE rn = (500000 * n + 999999) // 1000000
    ) mad USING (event_type)
),
seq AS MATERIALIZED (
    SELECT h.*, ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY hour) AS rn FROM h
),
c AS (
    SELECT s.event_type, s.hour, s.rn, s.cnt,
           GREATEST(CAST(0 AS BIGINT), s.cnt - p.med - p.slack) AS cusum
    FROM seq s JOIN par p USING (event_type) WHERE s.rn = 1
    UNION ALL
    SELECT s.event_type, s.hour, s.rn, s.cnt,
           GREATEST(CAST(0 AS BIGINT), c.cusum + s.cnt - p.med - p.slack)
    FROM c JOIN seq s ON s.event_type = c.event_type AND s.rn = c.rn + 1
    JOIN par p ON p.event_type = s.event_type
)
SELECT c.hour, c.event_type, CAST(c.cnt AS BIGINT) AS cnt,
       CAST(c.cusum AS BIGINT) AS cusum,
       CAST(CASE WHEN c.cusum > p.thr THEN 1 ELSE 0 END AS BIGINT) AS alarm
FROM c JOIN par p USING (event_type)
ORDER BY c.event_type, c.hour
"""


# ---------------------------------------------------------------------------
# Shuffle-skew diagnostics over the partitioning key


def events_skew_stats(sf_dir: str):
    """Skew profile of the ``user_id`` shuffle key — the planner pass
    that decides whether a key needs salting BEFORE a sessionize/join
    pays for the hot partition: exact per-key counts (bucketed combine),
    then everything else from the COUNT-OF-COUNTS histogram, whose size
    is the number of distinct per-key counts (tiny at any corpus size —
    bounded by the hottest key's count, not by the key count):

      - exact integer Gini (ppm) of the key-count distribution via the
        tie-group closed form Σ_rank r·x = Σ_c c·(f·(r0+1) + f(f-1)/2)
        over the histogram — no global sort of the key table,
      - exact p99 key count (smallest count with cum ≥ ⌈0.99·n_keys⌉),
      - hottest key (min key id among maxima) and the recommended salt
        factor ⌈max_count · n_keys / total⌉ (how many mean-loads the
        hot key carries — the split count ``stages/salted.py`` needs).

    Driver state: the histogram + five scalars, in Python ints (the
    rank-weighted sum reaches nk·total ≈ 2^80 at 10^12 events — int64
    wraps, HUGEINT/Python both exact)."""
    from .common import bucketed_group_agg

    ds = _events(sf_dir, columns=["user_id"])

    def per_batch(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["user_id"].value_counts()
        return pd.DataFrame({"user_id": vc.index.to_numpy(np.int64),
                             "n": vc.to_numpy(np.int64)})

    counts = bucketed_group_agg(
        ds.map_batches(per_batch, batch_format="pandas"), ["user_id"], {"n": "sum"}
    )

    def hist_partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["n"].value_counts()
        return pd.DataFrame({"c": vc.index.to_numpy(np.int64),
                             "f": vc.to_numpy(np.int64)})

    def top_partial(batch: pd.DataFrame) -> pd.DataFrame:
        mx = batch["n"].max()
        key = batch.loc[batch["n"] == mx, "user_id"].min()
        return pd.DataFrame({"c": [np.int64(mx)], "key": [np.int64(key)]})

    cm = counts.materialize()
    hist = bucketed_group_agg(
        cm.map_batches(hist_partial, batch_format="pandas"), ["c"], {"f": "sum"}
    ).to_pandas()
    tops = cm.map_batches(top_partial, batch_format="pandas").to_pandas()

    hist = hist.sort_values("c").reset_index(drop=True)
    cs = [int(x) for x in hist["c"]]
    fs = [int(x) for x in hist["f"]]
    nk = sum(fs)
    total = sum(c * f for c, f in zip(cs, fs))
    max_c = cs[-1]
    top_key = int(tops.loc[tops["c"] == tops["c"].max(), "key"].min())
    # rank-weighted sum over tie groups (ascending count order)
    s_rank, r0 = 0, 0
    for c, f in zip(cs, fs):
        s_rank += c * (f * (r0 + 1) + (f * (f - 1)) // 2)
        r0 += f
    gini_ppm = max(0, 2 * s_rank - (nk + 1) * total) * 1_000_000 // (nk * total)
    # exact p99 of key counts
    need = (99 * nk + 99) // 100
    cum = 0
    p99 = cs[-1]
    for c, f in zip(cs, fs):
        cum += f
        if cum >= need:
            p99 = c
            break
    salt_factor = (max_c * nk + total - 1) // total

    import ray.data as rd

    return rd.from_pandas(
        pd.DataFrame(
            {
                "n_keys": [nk], "total_events": [total],
                "max_key_count": [max_c], "top_key": [top_key],
                "p99_count": [p99], "gini_ppm": [gini_ppm],
                "salt_factor": [salt_factor],
            }
        ).astype(np.int64)
    )


EVENTS_SKEW_SQL = """
WITH k AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS c FROM events GROUP BY user_id),
hist AS (SELECT c, CAST(COUNT(*) AS BIGINT) AS f FROM k GROUP BY c),
tot AS (SELECT CAST(SUM(CAST(c AS HUGEINT) * f) AS HUGEINT) AS total,
               CAST(SUM(f) AS HUGEINT) AS nk,
               MAX(c) AS max_c
        FROM hist),
ranked AS (
    SELECT c, f,
           COALESCE(SUM(f) OVER (ORDER BY c
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS r0,
           SUM(f) OVER (ORDER BY c) AS cum
    FROM hist
),
g AS (
    SELECT SUM(CAST(c AS HUGEINT) * (CAST(f AS HUGEINT) * (r0 + 1)
               + (CAST(f AS HUGEINT) * (f - 1)) // 2)) AS s_rank
    FROM ranked
),
p99 AS (
    SELECT MIN(c) AS p99_count FROM ranked, tot
    WHERE cum >= (99 * nk + 99) // 100
)
SELECT CAST(nk AS BIGINT) AS n_keys,
       CAST(total AS BIGINT) AS total_events,
       CAST(max_c AS BIGINT) AS max_key_count,
       (SELECT MIN(user_id) FROM k, tot WHERE k.c = tot.max_c) AS top_key,
       (SELECT p99_count FROM p99) AS p99_count,
       CAST(GREATEST(2 * s_rank - (nk + 1) * total, 0) * 1000000
            // (nk * total) AS BIGINT) AS gini_ppm,
       CAST((max_c * nk + total - 1) // total AS BIGINT) AS salt_factor
FROM tot, g
"""


# ---------------------------------------------------------------------------
# Sketch-based join-cardinality estimation (the pre-shuffle planner pass)

JOINCARD_D = 4
JOINCARD_W = 1024


def _joincard_grid(counts_ds) -> np.ndarray:
    """CMS grid over (k, n) count rows: d salted-md5 rows × w columns of
    summed counts. Per-block partials are ≤ d·w cells; the merge is a
    cell-wise sum (mergeable); the final grid is 32 KB regardless of key
    cardinality."""
    from .common import bucketed_group_agg
    from .text import _md5_hash15_str

    def grid_partial(batch: pd.DataFrame) -> pd.DataFrame:
        ks = batch["k"].to_numpy(np.int64).astype(str)
        n = batch["n"].to_numpy(np.int64)
        frames = []
        for i in range(JOINCARD_D):
            col = _md5_hash15_str(ks, f"cms{i}:") % JOINCARD_W
            frames.append(pd.DataFrame({"row_i": np.int64(i), "col": col, "cnt": n}))
        out = pd.concat(frames, ignore_index=True)
        return out.groupby(["row_i", "col"], as_index=False, sort=False)["cnt"].sum()

    cells = bucketed_group_agg(
        counts_ds.map_batches(grid_partial, batch_format="pandas"),
        ["row_i", "col"],
        {"cnt": "sum"},
    ).to_pandas()
    grid = np.zeros((JOINCARD_D, JOINCARD_W), dtype=np.int64)
    grid[cells["row_i"].to_numpy(np.int64), cells["col"].to_numpy(np.int64)] = (
        cells["cnt"].to_numpy(np.int64)
    )
    return grid


def events_join_cardinality(sf_dir: str):
    """Join-size estimation BEFORE the join runs — the planner pass that
    decides broadcast-vs-shuffle-vs-salt from two 32 KB sketches instead
    of an exchange: per-key counts on each side (events.user_id ×
    orders.o_custkey) compress to Count-Min grids, and the classic CMS
    inner-product estimator ``min_i Σ_col A[i]·B[i]`` upper-bounds the
    true join cardinality Σ_k a_k·b_k (every true product lands in a
    matching cell; collisions only ADD — the op RAISES if the theorem
    ever fails). The TRUE size is computed alongside through a bucketed
    cogroup join of the two count tables (the op doubles as its own
    verifier; a real planner would skip it and use the sketch alone).

    Output: true/estimated pairs, the overestimate ratio (ppm), and both
    key cardinalities. Driver math in Python ints — the inner product
    reaches N_a·N_b ≈ 2^80 at 10^12 rows/side, past int64; the per-key
    true products are int64-safe per key and summed in Python."""
    from .common import bucketed_group_agg, cogroup_join

    import pyarrow as pa

    def count_rows(col):
        # zero-copy Arrow partial-emitter (r5 sweep): the key column rides
        # through unconverted; only the ones column is allocated
        def fn(b: pa.Table) -> pa.Table:
            return pa.table(
                {"k": b[col].cast(pa.int64()),
                 "n": pa.array(np.ones(b.num_rows, np.int64))}
            )

        return fn

    ev_counts = bucketed_group_agg(
        _events(sf_dir, columns=["user_id"]).map_batches(
            count_rows("user_id"), batch_format="pyarrow", zero_copy_batch=True
        ),
        ["k"],
        {"n": "sum"},
    )
    from ..runtime import read_parquet_sized

    ord_counts = bucketed_group_agg(
        read_parquet_sized(os.path.join(sf_dir, "orders.parquet"),
                           columns=["o_custkey"])
        .map_batches(
            count_rows("o_custkey"), batch_format="pyarrow", zero_copy_batch=True
        ),
        ["k"],
        {"n": "sum"},
    )
    evc = ev_counts.materialize()
    orc = ord_counts.materialize()

    ga = _joincard_grid(evc)
    gb = _joincard_grid(orc)
    est = min(
        sum(int(x) * int(y) for x, y in zip(ga[i], gb[i]) if x and y)
        for i in range(JOINCARD_D)
    )

    def prod_partial(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"p": [int((batch["n"] * batch["n_b"]).sum())]})

    rn = orc.map_batches(
        lambda b: b.rename(columns={"n": "n_b"}), batch_format="pandas"
    )
    joined = cogroup_join(evc, rn, "k", "k", ["n"], ["n_b"])
    parts = joined.map_batches(prod_partial, batch_format="pandas").to_pandas()
    true_pairs = int(sum(int(p) for p in parts["p"]))
    if est < true_pairs:
        raise RuntimeError(
            f"CMS inner-product theorem violated: est {est} < true {true_pairs}"
        )
    n_a = int(evc.count())
    n_b = int(orc.count())

    import ray.data as rd

    return rd.from_pandas(
        pd.DataFrame(
            {
                "true_pairs": [true_pairs],
                "est_pairs": [est],
                "est_over_true_ppm": [est * 1_000_000 // true_pairs if true_pairs else -1],
                "n_keys_events": [n_a],
                "n_keys_orders": [n_b],
            }
        ).astype(np.int64)
    )


EVENTS_JOINCARD_SQL = f"""
WITH a AS (SELECT user_id AS k, CAST(COUNT(*) AS BIGINT) AS n FROM events GROUP BY 1),
b AS (SELECT o_custkey AS k, CAST(COUNT(*) AS BIGINT) AS n FROM orders GROUP BY 1),
tru AS (SELECT CAST(COALESCE(SUM(CAST(a.n AS HUGEINT) * b.n), 0) AS HUGEINT) AS t
        FROM a JOIN b USING (k)),
ga AS (
    SELECT r.i AS row_i,
           ('0x' || substr(md5('cms' || r.i || ':' || CAST(k AS VARCHAR)), 1, 15))::BIGINT
               % {JOINCARD_W} AS col,
           SUM(n) AS cnt
    FROM a, range({JOINCARD_D}) r(i) GROUP BY 1, 2
),
gb AS (
    SELECT r.i AS row_i,
           ('0x' || substr(md5('cms' || r.i || ':' || CAST(k AS VARCHAR)), 1, 15))::BIGINT
               % {JOINCARD_W} AS col,
           SUM(n) AS cnt
    FROM b, range({JOINCARD_D}) r(i) GROUP BY 1, 2
),
ip AS (
    SELECT ga.row_i, SUM(CAST(ga.cnt AS HUGEINT) * gb.cnt) AS p
    FROM ga JOIN gb ON ga.row_i = gb.row_i AND ga.col = gb.col
    GROUP BY 1
),
est AS (SELECT MIN(p) AS e FROM ip)
SELECT CAST(t AS BIGINT) AS true_pairs,
       CAST(e AS BIGINT) AS est_pairs,
       CAST(CASE WHEN t > 0 THEN e * 1000000 // t ELSE -1 END AS BIGINT) AS est_over_true_ppm,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM a) AS n_keys_events,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM b) AS n_keys_orders
FROM tru, est
"""


# ---------------------------------------------------------------------------
# Event-time watermark / late-data accounting

LATE_US = 86_400_000_000  # allowed lateness: 1 day
ARR_JITTER_US = 259_200_000_000  # arrival displacement window: ±1.5 days


def _arrival_key(event_ids: np.ndarray, t_us: np.ndarray) -> np.ndarray:
    """Deterministic ARRIVAL sequence: the synthetic stream is perfectly
    time-ordered, so a bounded TIME jitter overlay (±1.5 days,
    md5-derived — the repo's surrogate recipe) renders the
    mostly-ordered-with-local-disorder regime real watermarks exist for.
    Jitter in TIME (not positions) keeps the late fraction stable across
    scale factors — positional jitter shrinks below any fixed lateness
    as event density grows. Ties break by event_id in both engines."""
    from .curate import _md5_hash15

    return t_us + _md5_hash15(event_ids, "arr:") % ARR_JITTER_US - ARR_JITTER_US // 2


def events_watermark_late(sf_dir: str, lateness_us: int = LATE_US):
    """Streaming watermark semantics as a distributed ORDERED prefix scan
    (the Flink/Beam late-data accounting pass): events arrive in the
    jittered overlay order; the watermark before each event is the
    running max event-time over everything that arrived strictly
    earlier, minus the allowed lateness; an event is LATE iff its time
    sits below that. Output: per event-time day, total and late counts.

    Scale shape (the ``docs_pack_sequences`` prefix-scan recipe):
    value-range buckets on the arrival key (arrival ≈ event_id, so
    ranges are dense), a KB-sized per-bucket max-ts rollup to the
    driver, broadcast exclusive prefix maxima, then ONE second pass —
    in-bucket arrival sort + cummax with the carried-in prefix — and a
    day-cardinality rollup. Two narrow passes, no corpus-sized driver
    state."""
    from .common import bucketed_group_agg

    ds = _events(sf_dir, columns=["event_id", "ts"])

    def mm_partial(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pd.DataFrame({"lo": [np.int64(t.min())], "hi": [np.int64(t.max())]})

    # ONE combined extremes pass (separate ds.min + ds.max would each
    # re-scan the corpus)
    mm_df = ds.map_batches(mm_partial, batch_format="pandas").to_pandas()
    tmin, tmax = int(mm_df["lo"].min()), int(mm_df["hi"].max())
    nb = 64
    half = ARR_JITTER_US // 2
    span = max(1, ((tmax + half) - (tmin - half)) // nb + 1)

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        eid = batch["event_id"].to_numpy(np.int64)
        t_us = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        ak = _arrival_key(eid, t_us)
        return pd.DataFrame(
            {"event_id": eid, "a_key": ak, "t_us": t_us, "__rb": ak // span}
        )

    tagged = ds.map_batches(tag, batch_format="pandas").materialize()

    def bucket_max(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("__rb", as_index=False, sort=False)["t_us"].max()
        return g.rename(columns={"t_us": "mx"})

    bmax = (
        bucketed_group_agg(
            tagged.map_batches(bucket_max, batch_format="pandas"), ["__rb"], {"mx": "max"}
        )
        .to_pandas()
        .sort_values("__rb")
    )
    # exclusive prefix max per range bucket (driver: one row per bucket)
    prefix = {}
    run = np.iinfo(np.int64).min
    for rb, mx in zip(bmax["__rb"].astype(int), bmax["mx"].astype(int)):
        prefix[rb] = run
        run = max(run, mx)
    from .common import broadcast

    pref_ref = broadcast(prefix)

    def late_partial(group: pd.DataFrame, *, _ref=pref_ref) -> pd.DataFrame:
        import ray

        pref = ray.get(_ref) if not isinstance(_ref, dict) else _ref
        g = group.sort_values(["a_key", "event_id"], kind="mergesort")
        t = g["t_us"].to_numpy(np.int64)
        rb = int(g["__rb"].iloc[0])
        carry = pref.get(rb, np.iinfo(np.int64).min)
        cm = np.maximum.accumulate(t)
        excl = np.concatenate([[carry], np.maximum(carry, cm[:-1])])
        sent = np.iinfo(np.int64).min
        # the stream's first arrival has NO watermark (sentinel carry);
        # sentinel - lateness would wrap int64 and flag it late
        late = (excl != sent) & (t < excl - lateness_us)
        day = t // 86_400_000_000
        out = pd.DataFrame({"day": day, "n_events": np.int64(1),
                            "n_late": late.astype(np.int64)})
        return out.groupby("day", as_index=False, sort=False).sum()

    agg = bucketed_group_agg(
        tagged.groupby("__rb").map_groups(late_partial, batch_format="pandas"),
        ["day"],
        {"n_events": "sum", "n_late": "sum"},
    )

    def fin(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.astype({"day": np.int64, "n_events": np.int64, "n_late": np.int64})

    return agg.map_batches(fin, batch_format="pandas").sort("day")


EVENTS_WATERMARK_SQL = f"""
WITH a AS (
    SELECT event_id, ts,
           epoch_us(ts)
           + ('0x' || substr(md5('arr:' || CAST(event_id AS VARCHAR)), 1, 15))::BIGINT
             % {ARR_JITTER_US} - {ARR_JITTER_US // 2} AS a_key
    FROM events
),
w AS (
    SELECT ts,
           MAX(ts) OVER (ORDER BY a_key, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
    FROM a
)
SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(COUNT(*) FILTER (
            WHERE wm IS NOT NULL
              AND epoch_us(ts) < epoch_us(wm) - {LATE_US}) AS BIGINT) AS n_late
FROM w
GROUP BY day
ORDER BY day
"""


# ---------------------------------------------------------------------------
# Multi-level rollup (GROUPING SETS) in one pass


def events_rollup(sf_dir: str):
    """All four aggregation levels of (event_type × day) — (type, day),
    (type), (day), grand total — computed in ONE corpus pass: the
    per-batch partial aggregates (type, day) once, derives the three
    coarser levels from that partial IN-BATCH (each batch contributes
    ≤ 4 level-tagged partial rows per group), and a single bucketed
    combine merges every level together — the GROUPING SETS / CUBE
    shape without one shuffle per level. Sentinels: '' for an
    aggregated-out type, -1 for an aggregated-out day."""
    from .common import bucketed_group_agg

    ds = _events(sf_dir, columns=["event_type", "ts", "value"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        day = (
            batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
            // 86_400_000_000
        )
        cents = np.floor(batch["value"].to_numpy(np.float64) * 100.0 + 0.5).astype(
            np.int64
        )
        base = (
            pd.DataFrame({"event_type": batch["event_type"], "day": day,
                          "n": np.int64(1), "cents": cents})
            .groupby(["event_type", "day"], as_index=False, sort=False)
            .sum()
        )
        lv3 = base.assign(lvl=np.int64(3))
        lv1 = (
            base.groupby("event_type", as_index=False, sort=False)[["n", "cents"]]
            .sum()
            .assign(lvl=np.int64(1), day=np.int64(-1))
        )
        lv2 = (
            base.groupby("day", as_index=False, sort=False)[["n", "cents"]]
            .sum()
            .assign(lvl=np.int64(2), event_type="")
        )
        lv0 = pd.DataFrame(
            {"lvl": [np.int64(0)], "event_type": [""], "day": [np.int64(-1)],
             "n": [base["n"].sum()], "cents": [base["cents"].sum()]}
        )
        cols = ["lvl", "event_type", "day", "n", "cents"]
        return pd.concat([lv3[cols], lv1[cols], lv2[cols], lv0[cols]],
                         ignore_index=True)

    agg = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["lvl", "event_type", "day"],
        {"n": "sum", "cents": "sum"},
    )

    def fin(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.astype({"lvl": np.int64, "day": np.int64,
                             "n": np.int64, "cents": np.int64})

    return agg.map_batches(fin, batch_format="pandas").sort(
        ["lvl", "event_type", "day"]
    )


EVENTS_ROLLUP_SQL = """
WITH e AS (
    SELECT event_type,
           epoch_us(ts) // 86400000000 AS day,
           CAST(FLOOR(value*100 + 0.5) AS BIGINT) AS cents
    FROM events
)
SELECT CAST(3 AS BIGINT) AS lvl, event_type, CAST(day AS BIGINT) AS day,
       CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(cents) AS BIGINT) AS cents
FROM e GROUP BY event_type, day
UNION ALL
SELECT 1, event_type, -1, CAST(COUNT(*) AS BIGINT), CAST(SUM(cents) AS BIGINT)
FROM e GROUP BY event_type
UNION ALL
SELECT 2, '', CAST(day AS BIGINT), CAST(COUNT(*) AS BIGINT), CAST(SUM(cents) AS BIGINT)
FROM e GROUP BY day
UNION ALL
SELECT 0, '', -1, CAST(COUNT(*) AS BIGINT), CAST(SUM(cents) AS BIGINT) FROM e
ORDER BY lvl, event_type, day
"""
