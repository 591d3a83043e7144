"""Ordered per-conversation session folds.

The reference's in-document parsing is a forward-only ordered scan with
carried state (SURVEY.md §2.9, ST1-ST3). The per-family Ray Data pipelines
do it in ``map_partitions``: assign a coarse ``part_id = md5(conv_id) %
n_parts`` (vectorized, Arrow-native), ONE ``groupby(part_id)`` (the
package's only one) to co-locate conversations, then fold every
conversation inside the partition with numpy boundary slicing.
Per-conversation ordering is restored deterministically no matter how the
input blocks arrived (the synthesizer writes rows shuffled on purpose).
The all-family extract engine (``state/lineage.partitioned_extract_all_tasks``)
exchanges the same ``part_id`` on Ray tasks instead.

Grouping by coarse partitions instead of by ``conv_id`` directly matters at
scale: ``map_groups`` per conversation costs a Python call + batch build
per group (~10^5-10^12 of them); per partition it is a few hundred calls
total, with conversations split out by a factorize + ``np.lexsort`` scan
(same hot-loop shape as ``state/lineage.py fold_partition``).

Each fold returns a ``pyarrow.Table`` built against the family's fixed
schema so empty groups unify cleanly and list columns stay native Arrow.

``conv_exchange`` is the task-level co-location the conversation ops use
instead: conv_id RANGES, not md5 buckets, so the per-group outputs come out
globally ordered and no trailing sort is needed.
"""

from __future__ import annotations

import os
from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

FoldFn = Callable[[list[str], list[int]], list[dict]]


def rows_to_table(rows: list[dict], schema: pa.Schema) -> pa.Table:
    """dict rows → Arrow table with a fixed schema (ints coerced, absent
    keys → null).

    Fast path: Arrow's C++ ``from_pylist`` (measured 2.5-3× faster than
    per-column Python listcomps — ~26% of the whole partition fold was
    this conversion). It raises on any value needing coercion (an int in
    a string field, a float in an int field), so the byte-identical
    coercing path below stays as the fallback; outputs are equal whenever
    the fast path succeeds (verified table.equals across every family on
    the bench corpus)."""
    if not rows:
        return schema.empty_table()
    try:
        return pa.Table.from_pylist(rows, schema=schema)
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        pass
    cols = {}
    for field in schema:
        vals = [r.get(field.name) for r in rows]
        if pa.types.is_integer(field.type):
            vals = [None if v is None else int(v) for v in vals]
        elif pa.types.is_string(field.type):
            vals = [None if v is None else str(v) for v in vals]
        cols[field.name] = pa.array(vals, field.type)
    return pa.Table.from_pydict(cols, schema=schema)


def conv_boundaries(conv: np.ndarray, tidx: np.ndarray):
    """Value-ordered sort by (conv, turn_idx) + conversation boundaries.

    Returns ``(order, bounds)``: apply ``order`` to any row-aligned array;
    ``bounds[i]:bounds[i+1]`` is one conversation's ordered slice, and no
    rows give ``bounds == [0]``, no conversations.
    ``sort=True`` factorize so results are independent of arrival order.
    """
    conv_codes = pd.factorize(conv, sort=True)[0]
    order = np.lexsort((tidx, conv_codes))
    cc = conv_codes[order]
    change = np.flatnonzero(np.diff(cc) != 0) + 1
    bounds = np.concatenate(([0], change, [len(cc)])) if len(cc) else np.zeros(1, np.int64)
    return order, bounds


def fold_group_table(group: pa.Table, fold_fn: FoldFn, schema: pa.Schema) -> pa.Table:
    """Fold every conversation inside one co-located partition."""
    conv = np.asarray(group["conv_id"].to_pandas(), dtype=object)
    tidx = group["turn_idx"].to_numpy(zero_copy_only=False)
    texts = np.asarray(group["text"].to_pandas(), dtype=object)
    if pd.isna(texts).any():
        texts = np.where(pd.isna(texts), "", texts)  # null text ≡ empty line
    order, bounds = conv_boundaries(conv, tidx)
    cv, ti, tx = conv[order], tidx[order], texts[order]
    rows: list[dict] = []
    for i in range(len(bounds) - 1):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        conv_rows = fold_fn(list(tx[lo:hi]), [int(x) for x in ti[lo:hi]])
        cid = cv[lo]
        for r in conv_rows:
            r["conv_id"] = cid
        rows.extend(conv_rows)
    return rows_to_table(rows, schema)


def map_partitions(ds, part_fn: Callable[[pa.Table], pa.Table]):
    """The part_id co-location of the per-family pipelines: every batch
    gets ``part_id = md5(conv_id) % n_parts`` (4 per cluster CPU, at least
    16; 32 without a Ray session), ONE ``groupby(part_id)`` gathers each
    partition, and ``part_fn`` runs once per partition → Dataset."""
    import ray

    from ..state.lineage import append_part_id

    n_parts = 32
    if ray.is_initialized():
        n_parts = max(16, int(ray.cluster_resources().get("CPU", 8)) * 4)
    ds = ds.map_batches(
        lambda b: append_part_id(b, n_parts),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return ds.groupby("part_id").map_groups(part_fn, batch_format="pyarrow")


def fold_conversations(ds, fold_fn: FoldFn, schema: pa.Schema):
    """part_id co-location + ordered per-conversation folds → Dataset."""
    return map_partitions(ds, lambda g: fold_group_table(g, fold_fn, schema))


# ---------------------------------------------------------------------------
# conversation exchange: conv_id range partitioning on Ray tasks

_SAMPLE_PER_SHARD = 1024  # a sample task returns 1-2x this many conv_ids


def _read_shard(files: list[str], columns: list[str]) -> pa.Table:
    return pa.concat_tables([pq.read_table(f, columns=columns) for f in files],
                            promote_options="permissive")


def _conv_sample(files: list[str]) -> tuple[list[str], int]:
    """Sample task: a strided sample of the shard's sorted distinct conv_ids
    and the number of distinct conv_ids it stands for."""
    uniq = pc.unique(_read_shard(files, ["conv_id"])["conv_id"].combine_chunks())
    uniq = uniq.take(pc.array_sort_indices(uniq))
    step = max(1, len(uniq) // _SAMPLE_PER_SHARD)
    return uniq.take(pa.array(np.arange(0, len(uniq), step))).to_pylist(), len(uniq)


def _range_bounds(samples: list[tuple[list[str], int]], n_groups: int) -> np.ndarray:
    """At most ``n_groups - 1`` ascending boundaries; group ``g`` holds the
    conv_ids in ``[bounds[g-1], bounds[g])``. A sampled id weighs the
    distinct ids it stands for, so groups hold about equal conversation
    counts; every boundary is a conv_id above the smallest, so none is empty."""
    vals = np.array([v for s, _n in samples for v in s], dtype=object)
    w = np.concatenate([np.full(len(s), n / len(s)) for s, n in samples])
    order = np.argsort(vals, kind="stable")
    vals, cum = vals[order], np.cumsum(w[order])
    cut = np.searchsorted(cum, cum[-1] * np.arange(1, n_groups) / n_groups, side="right")
    cand = vals[np.minimum(cut, len(vals) - 1)]
    return np.unique(cand[cand > vals[0]])


def _conv_map(files: list[str], columns: list[str], pre, bounds: np.ndarray):
    """Shard map task: read the pruned columns, run ``pre``, and split the
    rows into one contiguous table per conv_id range. ``searchsorted`` runs
    once per DISTINCT conv_id of the shard, not per row."""
    tbl = _read_shard(files, columns)
    if pre is not None:
        tbl = pre(tbl)
    enc = pc.dictionary_encode(tbl["conv_id"]).combine_chunks()
    uniq = np.asarray(enc.dictionary.to_pylist(), dtype=object)
    gid = np.searchsorted(bounds, uniq, side="right")[enc.indices.to_numpy(zero_copy_only=False)]
    order = np.argsort(gid, kind="stable")
    tbl = tbl.take(pa.array(order)).combine_chunks()
    cuts = np.searchsorted(gid[order], np.arange(len(bounds) + 2))
    parts = [tbl.slice(int(lo), int(hi - lo)) for lo, hi in zip(cuts[:-1], cuts[1:])]
    return parts if len(parts) > 1 else parts[0]  # num_returns=1 stores the bare value


def _conv_fold(frame_fn, *parts: pa.Table) -> pa.Table:
    """Fold task: ``frame_fn`` once over one whole conv_id range."""
    group = pa.concat_tables(parts, promote_options="permissive")
    return pa.Table.from_pandas(frame_fn(group.to_pandas()), preserve_index=False)


def conv_exchange(path: str, columns: list[str], frame_fn, pre=None):
    """Co-locate every conversation of a transcript Parquet directory and run
    ``frame_fn`` (pandas frame -> pandas frame) once per conv_id range →
    Dataset of the frames, in range order. Ray tasks, no Ray Data barrier:

    1. one sample task per shard returns a bounded, strided sample of its
       sorted distinct conv_ids; the caller picks the range boundaries;
    2. one map task per shard reads ``columns``, applies the optional
       map-side ``pre`` (Arrow table -> Arrow table, e.g. per-turn digests
       so no text crosses the exchange) and emits one table per range;
    3. one fold task per range runs ``frame_fn`` over the whole range.

    So a frame that orders its rows by ``(conv_id, turn_idx)`` yields a
    globally ordered Dataset. Ranges: one per cluster CPU, more for large
    inputs (``state.lineage._n_groups``), at most one per conversation. Not
    the extract engine's four per CPU: each output block costs every later
    Ray Data pass a task (swept 1, 2, 4 per CPU on 400 convs at 2 CPUs: 1 was
    fastest, 4 up to 2x slower on tool_latency's multi-pass quantiles)."""
    import ray
    import ray.data

    from ..runtime import _cluster_cpus, shuffle_num_blocks, tune_data_context
    from ..state.lineage import _list_parquet, _n_groups

    tune_data_context()
    files = _list_parquet(path)
    if not files:
        raise FileNotFoundError(f"no Parquet files under {path}")
    n_shards = min(len(files), shuffle_num_blocks())
    shards = [files[i::n_shards] for i in range(n_shards)]
    samples = [s for s in ray.get([ray.remote(_conv_sample).remote(sh) for sh in shards]) if s[0]]
    nbytes = sum(os.path.getsize(f) for f in files)
    n_groups = _n_groups(sum(n for _s, n in samples), nbytes, _cluster_cpus(), per_cpu=1)
    bounds = _range_bounds(samples, n_groups) if samples else np.array([], dtype=object)
    n_out = len(bounds) + 1
    map_task = ray.remote(_conv_map).options(num_returns=n_out)
    map_refs = [map_task.remote(sh, columns, pre, bounds) for sh in shards]
    if n_out == 1:
        map_refs = [[r] for r in map_refs]
    fold_task = ray.remote(_conv_fold)
    return ray.data.from_arrow_refs(
        [fold_task.remote(frame_fn, *[refs[g] for refs in map_refs]) for g in range(n_out)]
    )
