"""Ordered per-conversation session folds, and the ordered key exchange.

The reference's in-document parsing is a forward-only ordered scan with
carried state (SURVEY.md §2.9, ST1-ST3). Every conversation fold
co-locates its rows with ONE mechanism, ``key_exchange``: sample tasks
pick key RANGES (not hash buckets), map tasks split each input by range,
and one fold task per range hands the op's frame the range as ONE Arrow
table, so the outputs come out globally ordered by key and no trailing
sort is needed. A frame converts only the columns it reads.

Inside a range or a checkpoint partition, every conversation fold gets its
ordered runs from ONE slicer, ``conv_runs``: Arrow dictionary codes ranked
by value (``key_codes``, so only distinct keys become Python objects),
one ``np.lexsort`` by (keys…, turn_idx), and numpy run bounds. The per-
family pipelines (``fold_group_table``), the checkpointed all-family
extract (``state/lineage.py fold_partition``, keyed by tool then conv_id)
and the transcript ops' frames share it, so per-conversation order is
restored deterministically however the input blocks arrived (the
synthesizer writes rows shuffled on purpose), and the Python cost is one
call per range, not per conversation. ``fold_runs`` is the one
per-conversation loop: fold, stamp conv_id, collect.

``key_exchange``'s inputs are Arrow tables or their object refs — a
Dataset's blocks for the per-family pipelines (``fold_conversations``),
or the previous exchange's fold outputs, so a chain of exchanges
(conv_id → digest → conv_id; conv_id → LSH band → pair ``a``) never
leaves Ray tasks. ``conv_exchange`` feeds it a transcript Parquet
directory keyed by conv_id, cut by ``parquet_shards`` into one contiguous
run of the sorted files per cluster CPU (more for large inputs), so a
range's rows arrive in file order at any shard count. Its sample, map and
fold tasks are Ray remote functions built once per session
(``runtime.remote_fn``). The checkpointed all-family extract
(``state/lineage.partitioned_extract_all_tasks``) runs on the same map and
fold waves (``range_exchange``), keyed by its hashed ``part_id``: part ids
are a known dense domain, so it cuts the ranges itself and skips the
sample wave.

Each family fold returns a ``pyarrow.Table`` built against the family's
fixed schema so empty ranges unify cleanly and list columns stay native
Arrow.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..runtime import remote_fn

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


def key_codes(col: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """int64 codes ranked by sorted distinct VALUE (null → -1) + the sorted
    distinct values. Arrow dictionary-encodes the column, so only the
    distinct values become Python objects; the per-row side stays integer.
    Value-ranked, not arrival-ranked: a range folds to the same bytes
    however its blocks arrived."""
    enc = pc.dictionary_encode(col.combine_chunks())
    uniq = np.asarray(enc.dictionary.to_pylist(), dtype=object)
    perm = np.argsort(uniq, kind="stable")
    rank = np.empty(len(perm) + 1, dtype=np.int64)
    rank[perm] = np.arange(len(perm))
    rank[-1] = -1  # a null's index -1 lands here, even with no non-null value
    return rank[enc.indices.fill_null(-1).to_numpy(zero_copy_only=False)], uniq[perm]


def conv_runs(tbl: pa.Table, keys: Sequence[str] = ("conv_id",)):
    """The one conversation slicer: ``tbl``'s rows in (keys…, turn_idx)
    order, sorted by value and stable (tied rows keep their arrival order;
    null keys first), and the runs of equal keys.

    Returns ``(order, bounds, heads)``: ``order`` permutes any row-aligned
    array; ``bounds[i]:bounds[i+1]`` is run ``i`` of the ordered rows (no
    rows give ``bounds == [0]``); ``heads[k][i]`` is key ``k``'s value on
    run ``i`` (None for null)."""
    codes, uniqs = zip(*(key_codes(tbl[k]) for k in keys))
    tidx = tbl["turn_idx"].to_numpy(zero_copy_only=False)
    order = np.lexsort((tidx, *reversed(codes)))
    n = len(order)
    edge = np.zeros(n + 1, dtype=bool)  # edge[i]: a run starts at ordered row i
    edge[[0, -1]] = True  # row n closes the last run; no rows, no run
    for c in codes:
        c = c[order]
        edge[1:n] |= c[1:] != c[:-1]
    bounds = np.flatnonzero(edge)
    starts = order[bounds[:-1]]
    heads = [np.append(u, None)[c[starts]] for c, u in zip(codes, uniqs)]
    return order, bounds, heads


def run_continues(bounds: np.ndarray) -> np.ndarray:
    """``out[i]``: ordered row ``i + 1`` is in the same run as row ``i``."""
    out = np.ones(max(int(bounds[-1]) - 1, 0), dtype=bool)
    out[bounds[1:-1] - 1] = False
    return out


def ordered_column(tbl: pa.Table, name: str, order: np.ndarray) -> np.ndarray:
    """One column of ``tbl`` as numpy (strings as Python objects), in
    ``order``."""
    return tbl[name].to_numpy(zero_copy_only=False)[order]


def turn_texts(tbl: pa.Table, order: np.ndarray) -> list[str]:
    """The ``text`` column in ``order``; a null text is an empty line."""
    text = tbl["text"]
    if text.null_count:
        text = pc.fill_null(text, "")
    return text.to_numpy(zero_copy_only=False)[order].tolist()


def fold_runs(fold_fn: FoldFn, payloads: list, tidx: list[int], bounds: list[int],
              conv_ids) -> list[dict]:
    """``fold_fn`` once per conversation run ``bounds[i]:bounds[i+1]`` of the
    ordered turns, each output row stamped with the run's conversation →
    the rows, in run order."""
    rows: list[dict] = []
    for cid, lo, hi in zip(conv_ids, bounds[:-1], bounds[1:]):
        conv_rows = fold_fn(payloads[lo:hi], tidx[lo:hi])
        for r in conv_rows:
            r["conv_id"] = cid
        rows.extend(conv_rows)
    return rows


def fold_group_table(group: pa.Table, fold_fn: FoldFn, schema: pa.Schema,
                     payloads=turn_texts) -> pa.Table:
    """Fold every conversation of one co-located key range. Each turn's fold
    input is ``payloads(group, order)``: its text by default."""
    if not group.num_rows:  # an empty range may carry no columns at all
        return schema.empty_table()
    order, bounds, (conv_ids,) = conv_runs(group)
    tidx = ordered_column(group, "turn_idx", order).tolist()
    rows = fold_runs(fold_fn, payloads(group, order), tidx, bounds.tolist(), conv_ids)
    return rows_to_table(rows, schema)


def fold_conv_ranges(ds, frame_fn: Callable[[pa.Table], pa.Table]):
    """``key_exchange`` of a Dataset's blocks by conv_id: ``frame_fn`` once
    per conv_id range → Dataset of its tables, in conv_id order."""
    import ray.data

    return ray.data.from_arrow_refs(key_exchange(ds.to_arrow_refs(), "conv_id", frame_fn))


def fold_conversations(ds, fold_fn: FoldFn, schema: pa.Schema):
    """conv_id co-location + ordered per-conversation folds → Dataset."""
    return fold_conv_ranges(ds, partial(fold_group_table, fold_fn=fold_fn, schema=schema))


# ---------------------------------------------------------------------------
# ordered key exchange: key-range partitioning on Ray tasks

_SAMPLE_PER_SHARD = 1024  # a sample task returns 1-2x this many keys


def _read_shard(files: list[str], columns: list[str]) -> pa.Table:
    return pa.concat_tables([pq.read_table(f, columns=columns) for f in files],
                            promote_options="permissive")


def _key_sample(load, shard, key: str) -> tuple[list, int, int]:
    """Sample task: a strided sample of the shard's sorted distinct non-null
    keys, the number of them it stands for, and the loaded table's bytes.
    Null keys need no boundary: they go to the first range."""
    tbl = load(shard, True)
    if not tbl.num_rows:  # an empty block may carry no columns at all
        return [], 0, tbl.nbytes
    uniq = pc.drop_null(pc.unique(tbl[key].combine_chunks()))
    uniq = uniq.take(pc.array_sort_indices(uniq))
    step = max(1, len(uniq) // _SAMPLE_PER_SHARD)
    return uniq.take(pa.array(np.arange(0, len(uniq), step))).to_pylist(), len(uniq), tbl.nbytes


def _range_bounds(samples: list[tuple[list, int]], n_groups: int) -> np.ndarray:
    """At most ``n_groups - 1`` ascending boundaries; group ``g`` holds the
    keys in ``[bounds[g-1], bounds[g])``. A sampled key weighs the distinct
    keys it stands for, so groups hold about equal key counts; every
    boundary is a key above the smallest, so none is empty."""
    vals = np.array([v for s, _n in samples for v in s], dtype=object)
    w = np.concatenate([np.full(len(s), n / len(s)) for s, n in samples])
    order = np.argsort(vals, kind="stable")
    vals, cum = vals[order], np.cumsum(w[order])
    cut = np.searchsorted(cum, cum[-1] * np.arange(1, n_groups) / n_groups, side="right")
    cand = vals[np.minimum(cut, len(vals) - 1)]
    return np.unique(cand[cand > vals[0]])


def _key_map(load, shard, key: str, bounds: np.ndarray):
    """Map task: load the shard and split its rows into one contiguous table
    per key range; null keys go to the first range, where ``conv_runs``
    orders them first. ``searchsorted`` runs once per DISTINCT key of the
    shard, not per row."""
    tbl = load(shard, False)
    if not tbl.num_rows:
        return [tbl] * (len(bounds) + 1) if len(bounds) else tbl
    enc = pc.dictionary_encode(tbl[key].combine_chunks())
    uniq = enc.dictionary.to_numpy(zero_copy_only=False)
    if uniq.dtype != object:  # numeric keys: compare as numbers, not objects
        bounds = np.asarray(bounds.tolist(), dtype=uniq.dtype)
    gid = np.append(np.searchsorted(bounds, uniq, side="right"), 0)  # a null's index → 0
    gid = gid[enc.indices.fill_null(len(uniq)).to_numpy(zero_copy_only=False)]
    order = np.argsort(gid, kind="stable")
    tbl = tbl.take(pa.array(order)).combine_chunks()
    cuts = np.searchsorted(gid[order], np.arange(len(bounds) + 2))
    parts = [tbl.slice(int(lo), int(hi - lo)) for lo, hi in zip(cuts[:-1], cuts[1:])]
    return parts if len(parts) > 1 else parts[0]  # num_returns=1 stores the bare value


def _key_fold(frame_fn, *parts: pa.Table) -> pa.Table:
    """Fold task: ``frame_fn`` once over one whole key range, given as the
    concatenated Arrow table (no pandas conversion here: a frame converts
    what it reads). A frame that returns an Arrow table (a fixed family
    schema) is passed through."""
    group = pa.concat_tables(parts, promote_options="permissive") if parts else pa.table({})
    out = frame_fn(group)
    return out if isinstance(out, pa.Table) else pa.Table.from_pandas(out, preserve_index=False)


def _as_table(shard, _key_only: bool) -> pa.Table:
    return shard


def key_exchange(shards: list, key: str, frame_fn, load=_as_table, nbytes: int | None = None):
    """Co-locate every row of ``shards`` by ``key`` and run ``frame_fn``
    (Arrow table -> pandas frame or Arrow table) once per key range → the
    fold outputs' object refs (Arrow tables), in key-range order. Ray tasks,
    no Ray Data barrier:

    1. one sample task per shard returns a bounded, strided sample of its
       sorted distinct keys; the caller picks the range boundaries;
    2. one map task per shard loads it and emits one table per range;
    3. one fold task per range runs ``frame_fn`` over the whole range.

    Waves 2 and 3 are ``range_exchange``.

    A shard is an Arrow table or an object ref to one, or whatever
    ``load(shard, key_only)`` turns into one (``key_only`` lets a sample
    read less); an empty shard may carry no columns. The caller sizes the
    shards: every shard costs a sample and a map task. A range's rows
    arrive in shard order, so tied rows keep it. So a frame that orders
    its rows by key yields globally ordered output. Ranges: one per cluster
    CPU, more for large inputs (``state.lineage._n_groups`` over
    ``nbytes``, by default the loaded bytes), at most one per distinct key.
    Not the extract engine's four per CPU: each range costs a fold task,
    and a chained exchange a task per range and shard more (swept 1, 2, 4
    per CPU on 400 convs at 2 CPUs: 1 was fastest)."""
    import ray

    from ..runtime import _cluster_cpus
    from ..state.lineage import _n_groups

    sample_task = remote_fn(_key_sample)
    sampled = ray.get([sample_task.remote(load, sh, key) for sh in shards])
    samples = [(s, n) for s, n, _b in sampled if s]
    if nbytes is None:
        nbytes = sum(b for _s, _n, b in sampled)
    n_groups = _n_groups(sum(n for _s, n in samples), nbytes, _cluster_cpus(), per_cpu=1)
    bounds = _range_bounds(samples, n_groups) if samples else np.array([], dtype=object)
    return range_exchange(shards, key, bounds, frame_fn, load)


def range_exchange(shards: list, key: str, bounds: np.ndarray, frame_fn, load=_as_table,
                   **fold_options):
    """The map and fold waves of ``key_exchange``, given the ascending range
    ``bounds`` (range ``g`` holds the keys in ``[bounds[g-1], bounds[g])``;
    null keys go to range 0) → one fold output's object ref per range, in
    range order. ``fold_options`` go to the fold task's ``.options()``: the
    checkpointed extract retries its idempotent publishes on exceptions,
    the conversation ops keep Ray's defaults."""
    n_out = len(bounds) + 1
    map_task = remote_fn(_key_map).options(num_returns=n_out)
    map_refs = [map_task.remote(load, sh, key, bounds) for sh in shards]
    if n_out == 1:
        map_refs = [[r] for r in map_refs]
    fold_task = remote_fn(_key_fold).options(**fold_options)
    return [fold_task.remote(frame_fn, *[refs[g] for refs in map_refs]) for g in range(n_out)]


class _ParquetLoad:
    """Shard loader for a list of Parquet files: the pruned ``columns`` with
    the map-side ``pre`` applied, or only the key column for a sample."""

    def __init__(self, columns: list[str], key: str, pre=None):
        self.columns, self.key, self.pre = columns, key, pre

    def __call__(self, files: list[str], key_only: bool) -> pa.Table:
        if key_only:
            return _read_shard(files, [self.key])
        tbl = _read_shard(files, self.columns)
        return tbl if self.pre is None else self.pre(tbl)


def parquet_shards(path: str) -> list[list[str]]:
    """The sorted Parquet files of a transcript directory in ``min(files,
    max(cluster CPUs, ceil(bytes / lineage._TARGET_PART_BYTES)))``
    contiguous, non-empty runs of near-equal file counts, one task each.
    Shards follow cluster width and data size, not a fixed fan-out (a
    1 MB, 8-file corpus on 2 CPUs: 2 sample and 2 map tasks, not 8 each),
    and every shard's rows are a run of the files in order, so a fold sees
    rows in file order at any shard count."""
    from ..runtime import _cluster_cpus
    from ..state import lineage

    files = lineage._list_parquet(path)
    if not files:
        raise FileNotFoundError(f"no Parquet files under {path}")
    nbytes = sum(os.path.getsize(f) for f in files)
    n = min(len(files), max(_cluster_cpus(), -(-nbytes // lineage._TARGET_PART_BYTES)))
    return [files[len(files) * i // n:len(files) * (i + 1) // n] for i in range(n)]


def conv_exchange_refs(path: str, columns: list[str], frame_fn, pre=None) -> list:
    """``key_exchange`` over a transcript Parquet directory keyed by
    conv_id: every conversation co-located, ``frame_fn`` once per conv_id
    range → the fold outputs' object refs, in range order. One shard per
    contiguous run of files (``parquet_shards``), so tied rows reach a
    frame in file order; the optional map-side ``pre`` (Arrow table ->
    Arrow table, e.g. per-turn digests so no text crosses the exchange)
    runs on the pruned ``columns``. Ranges are sized by the on-disk
    bytes."""
    from ..runtime import tune_data_context

    tune_data_context()
    shards = parquet_shards(path)
    nbytes = sum(os.path.getsize(f) for sh in shards for f in sh)
    return key_exchange(shards, "conv_id", frame_fn, _ParquetLoad(columns, "conv_id", pre), nbytes)


def conv_exchange(path: str, columns: list[str], frame_fn, pre=None):
    """``conv_exchange_refs`` as a Dataset of the frames, in conv_id range
    order: a frame that orders its rows by ``(conv_id, turn_idx)`` yields a
    globally ordered Dataset."""
    import ray.data

    return ray.data.from_arrow_refs(conv_exchange_refs(path, columns, frame_fn, pre))
