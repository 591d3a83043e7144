"""Per-partition checkpointing, lineage sidecars and resume.

North-rule requirement: "resumable from checkpoint with per-partition
lineage + metrics … any partition can resume without recomputation".

Design (SURVEY.md §4.2):

- the PARTITION is the unit of output, checkpoint and retry-safe publish:
  ``part_id = md5(conv_id) % n_parts`` is assigned vectorized at the read,
  so a conversation always lands in the same partition across runs; each
  partition is folded on its own and written as ``part-<id>.parquet``
  (per family) through a pid-suffixed temp and an atomic rename, then ONE
  lineage sidecar ``_lineage/part-<id>.json`` (input turn/conv counts,
  output rows, extraction counters, content hashes) is written last — one
  sidecar per partition, not per block, so 10^12-turn runs don't produce a
  small-file storm (SURVEY.md §7.5 #7);
- a RANGE of contiguous pending part ids is the unit of scheduling and
  exchange (``partitioned_extract_all_tasks``), on the same map and fold
  waves as every conversation fold (``stages.fold.range_exchange``): one
  fold task per range and one map→fold object per shard and range, so
  small runs don't pay Ray's per-task and per-object overhead once per
  partition, while at the design point a range holds one partition;
- resume: completed part ids are read from the sidecars and their rows are
  dropped by a vectorized filter BEFORE the exchange — finished partitions
  cost one pruned scan, zero recompute, zero rewrite.

Publishes are idempotent (deterministic bytes, atomic rename, sidecar
last), so Ray task retries cannot corrupt output.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import partial
from itertools import groupby

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..oracle import catalog as _catalog
from ..oracle import census as _census
from ..oracle import grid as _grid
from ..oracle import invoice as _invoice
from ..oracle import layout as _layout
from ..oracle import table as _table
from ..pipelines import schemas
from ..stages.fold import (
    _ParquetLoad,
    conv_runs,
    fold_runs,
    ordered_column,
    parquet_shards,
    range_exchange,
    rows_to_table,
    turn_texts,
)

FOLDS = {
    "catalog": (_catalog.extract_catalog_conv, schemas.CATALOG_SCHEMA),
    "invoice": (_invoice.extract_invoice_conv, schemas.INVOICE_SCHEMA),
    "layout": (_layout.extract_layout_conv, schemas.LAYOUT_SCHEMA),
    "table": (_table.extract_table_conv, schemas.TABLE_SCHEMA),
    "grid": (_grid.extract_grid_conv, schemas.GRID_SCHEMA),
    "census": (_census.extract_census_conv, schemas.HOUSEHOLD_SCHEMA),
}


def append_part_id(batch: pa.Table, n_parts: int, done: set[int] | None = None) -> pa.Table:
    """Zero-copy-friendly part_id assignment on an Arrow batch.

    Dictionary-encodes ``conv_id`` so md5 runs once per DISTINCT conv, then
    maps codes through a numpy LUT — the (large) ``text`` column is never
    converted to Python objects. ``done`` partitions are filtered out here,
    before the shuffle.
    """
    enc = pc.dictionary_encode(batch["conv_id"]).combine_chunks()
    dictionary = enc.dictionary.to_pylist()
    lut = np.fromiter(
        (
            int.from_bytes(hashlib.md5(c.encode()).digest()[:8], "little") % n_parts
            for c in dictionary
        ),
        dtype=np.int64,
        count=len(dictionary),
    )
    part = lut[enc.indices.to_numpy(zero_copy_only=False)]
    batch = batch.append_column("part_id", pa.array(part, pa.int64()))
    if done:
        mask = ~np.isin(part, np.fromiter(done, dtype=np.int64))
        batch = batch.filter(pa.array(mask))
    return batch


def _lineage_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_lineage")


def completed_parts(out_dir: str) -> set[int]:
    ldir = _lineage_dir(out_dir)
    if not os.path.isdir(ldir):
        return set()
    done = set()
    for f in os.listdir(ldir):
        if f.startswith("part-") and f.endswith(".json"):
            done.add(int(f[len("part-") : -len(".json")]))
    return done


def read_lineage(out_dir: str) -> list[dict]:
    ldir = _lineage_dir(out_dir)
    out = []
    for f in sorted(os.listdir(ldir)) if os.path.isdir(ldir) else []:
        if f.startswith("part-") and f.endswith(".json"):
            with open(os.path.join(ldir, f)) as fh:
                out.append(json.load(fh))
    return out


_TARGET_PART_BYTES = 256 << 20  # compressed input bytes per partition fold


def derive_n_parts(files: list[str], target_part_bytes: int = _TARGET_PART_BYTES,
                   min_parts: int | None = None) -> int:
    """Byte-size-driven partition count: ``ceil(input_bytes / target)``
    with a cluster-width floor. A constant n_parts is a test-scale value —
    at 100 TB a 64-way split would make each fold hold >1 TB; deriving
    from bytes keeps every partition fold's working set bounded at
    ~``target_part_bytes`` (compressed) no matter the corpus size."""
    total = sum(os.path.getsize(f) for f in files)
    by_bytes = max(1, -(-total // target_part_bytes))
    if min_parts is None:
        from ..runtime import _cluster_cpus

        min_parts = 2 * _cluster_cpus()
    return max(min_parts, int(by_bytes))


def _resolve_n_parts(out_root: str, files: list[str], requested: int | None) -> int:
    """Resume-stable n_parts: ``part_id = md5(conv_id) % n_parts``, so a
    resumed run MUST reuse the original count or every completed sidecar
    becomes invalid. The first run records its choice in the lineage dir;
    later runs always honor the recorded value."""
    ldir = _lineage_dir(out_root)
    os.makedirs(ldir, exist_ok=True)
    meta_path = os.path.join(ldir, "_meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            recorded = json.load(fh).get("n_parts")
        if recorded:
            return int(recorded)
    n = int(requested) if requested else derive_n_parts(files)
    with open(meta_path, "w") as fh:
        json.dump({"n_parts": n}, fh)
    return n


def _list_parquet(path: str) -> list[str]:
    return sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
    )


def _publish(out_file: str, table: pa.Table) -> str:
    """Encode ``table`` once in memory, hash those bytes, then land them as
    ``out_file`` through a pid-suffixed temp and an atomic rename (a retried
    task never collides with a live one). Returns the content hash."""
    sink = pa.BufferOutputStream()
    pq.write_table(table, sink)
    data = sink.getvalue()
    content_hash = hashlib.md5(data).hexdigest()
    tmp = f"{out_file}.tmp{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, out_file)
    return content_hash


def _write_sidecar(out_root: str, part_id: int, sidecar: dict) -> None:
    """Publish the partition's lineage sidecar — last, after its files."""
    ldir = _lineage_dir(out_root)
    tmp = os.path.join(ldir, f"part-{part_id}.json.tmp{os.getpid()}")
    with open(tmp, "w") as fh:
        json.dump(sidecar, fh)
    os.replace(tmp, os.path.join(ldir, f"part-{part_id}.json"))


_METRICS_SCHEMA = pa.schema([
    ("part_id", pa.int64()), ("n_turns", pa.int64()), ("n_convs", pa.int64()),
    ("n_rows", pa.int64()), ("content_hash", pa.string()), ("resumed", pa.bool_()),
])


def _metrics_row(part_id: int, n_turns: int, families: dict, resumed: bool) -> dict:
    """One all-family metrics row from a sidecar's ``families`` map."""
    fams = families.values()
    return {
        "part_id": part_id,
        "n_turns": n_turns,
        "n_convs": sum(f["n_convs"] for f in fams),
        "n_rows": sum(f["n_rows"] for f in fams),
        "content_hash": hashlib.md5("".join(f["content_hash"] for f in fams).encode()).hexdigest(),
        "resumed": resumed,
    }


def _with_resumed(fresh: pd.DataFrame, out_root: str, done: set[int]) -> pd.DataFrame:
    """Append the metrics rows of the partitions skipped on resume."""
    skipped = [
        _metrics_row(e["part_id"], e["n_turns"], e["families"], resumed=True)
        for e in read_lineage(out_root)
        if e["part_id"] in done and "families" in e
    ]
    return pd.concat([fresh, pd.DataFrame(skipped)], ignore_index=True) if skipped else fresh


def read_output(out_dir: str):
    """Dataset over the completed partition files."""
    import ray.data as rd

    files = [
        os.path.join(out_dir, f)
        for f in sorted(os.listdir(out_dir))
        if f.startswith("part-") and f.endswith(".parquet")
    ]
    return rd.read_parquet(files)


def fold_partition(part: pa.Table, families: dict | None = None, derive_census: bool = True):
    """Fold every conversation in one co-located partition, all families.

    Hot loop of the production path: ONE value-ordered sort by (tool,
    conv_id, turn_idx) (``stages.fold.conv_runs``) and numpy run slicing —
    no per-conversation pandas ``groupby`` (which costs ~0.2 ms per conv,
    dominating at 10^5+ convs per run). A family's conversations are one
    block of runs; turns whose tool is null or no family are skipped.
    Yields ``(family, arrow_table, n_turns, n_convs)``.

    ``families=`` and ``derive_census=`` have no caller in the package:
    they stay because ``perfbench/replay.py`` times each family's fold
    (and the census kinship stage) separately through them.
    """
    families = families or FOLDS
    order, bounds, (tools, convs) = conv_runs(part, ("tool", "conv_id"))
    tx = turn_texts(part, order)
    ti = ordered_column(part, "turn_idx", order).tolist()
    bounds = bounds.tolist()

    rows_by_family: dict[str, list] = {}
    stats: dict[str, list[int]] = {}
    lo = 0
    for fam, runs in groupby(tools):
        hi = lo + sum(1 for _ in runs)
        if fam in families:
            rows_by_family[fam] = fold_runs(
                families[fam][0], tx, ti, bounds[lo:hi + 1], convs[lo:hi]
            )
            stats[fam] = [bounds[hi] - bounds[lo], hi - lo]
        lo = hi
    # census downstream stages run HERE, on the already co-located partition:
    # summary + per-household kinship need no further shuffle or pass
    # (roman-census stage B is household-local, SURVEY.md §2.4 J1-J3)
    if "census" in rows_by_family and "census" in families and derive_census:
        from ..oracle import persons as _personsmod

        households = rows_by_family["census"]
        summary_rows, person_rows = [], []
        for h in households:
            s = _census.summarize_household(h)
            s["conv_id"] = h["conv_id"]
            summary_rows.append(s)
            for p in _personsmod.extract_persons_for_household(h):
                p["conv_id"] = h["conv_id"]
                person_rows.append(p)
        rows_by_family["census_summary"] = summary_rows
        rows_by_family["census_persons"] = person_rows
        families = dict(families)
        families["census_summary"] = (None, schemas.CENSUS_SUMMARY_SCHEMA)
        families["census_persons"] = (None, schemas.PERSONS_SCHEMA)
        stats["census_summary"] = stats["census"]
        stats["census_persons"] = stats["census"]

    for fam in sorted(rows_by_family):
        schema = families[fam][1]
        yield fam, rows_to_table(rows_by_family[fam], schema), stats[fam][0], stats[fam][1]


def _split_by_part(tbl: pa.Table, n_parts: int) -> list[pa.Table]:
    """Order-stable split of a table into its n_parts slices: a range's
    partitions in the engine's fold, the map side of ``_shard_map``. Empty
    slice for absent partitions."""
    part = tbl["part_id"].to_numpy(zero_copy_only=False)
    order = np.argsort(part, kind="stable")
    tbl = tbl.take(pa.array(order))
    part = part[order]
    bounds = np.searchsorted(part, np.arange(n_parts + 1))
    return [tbl.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i])) for i in range(n_parts)]


def _shard_map(files: list[str], n_parts: int, done: frozenset) -> list[pa.Table]:
    """Serial reference of the engine's map side: ``files`` read, part ids
    assigned, ``done`` dropped → one slice per partition (perfbench's
    replay indexes it by part id)."""
    tbl = pa.concat_tables(
        pq.read_table(f, columns=["conv_id", "turn_idx", "text", "tool"]) for f in files
    )
    tbl = append_part_id(tbl, n_parts, set(done) or None)
    return _split_by_part(tbl, n_parts)


def _fold_and_write(out_root: str, part_id: int, *slices) -> dict:
    """Fold one partition from its slices, concatenated in order, and
    publish it: one file per family, then the sidecar. Returns its metrics
    row."""
    nonempty = [t for t in slices if t.num_rows]
    group = pa.concat_tables(nonempty) if nonempty else None
    if group is None or group.num_rows == 0:
        return {"part_id": part_id, "n_turns": 0, "n_convs": 0, "n_rows": 0,
                "content_hash": "", "resumed": False}
    sidecar: dict = {"part_id": part_id, "n_turns": int(group.num_rows), "families": {}}
    for family, table, n_turns, n_convs in fold_partition(group):
        fam_dir = os.path.join(out_root, family)
        os.makedirs(fam_dir, exist_ok=True)
        content_hash = _publish(os.path.join(fam_dir, f"part-{part_id:05d}.parquet"), table)
        sidecar["families"][family] = {
            "n_turns": n_turns, "n_convs": n_convs,
            "n_rows": table.num_rows, "content_hash": content_hash,
        }
    _write_sidecar(out_root, part_id, sidecar)
    return _metrics_row(part_id, int(group.num_rows), sidecar["families"], resumed=False)


# Ranges (fold tasks) per cluster CPU while the pending input is small
# enough for partitions to share a task. Swept over 1, 2, 4, 8, 16 on a
# 2-CPU local Ray session on a 4-core VM (600 convs / 256 parts and 3,000
# convs / 64 parts): 1-8 within noise of each other, 16 clearly slower, 4
# the best median on the bulk corpus.
_GROUPS_PER_CPU = 4


def _n_groups(n_items: int, nbytes: int, cpus: int, per_cpu: int = _GROUPS_PER_CPU) -> int:
    """Fold tasks for ``n_items`` units of work over ``nbytes`` of input:
    ``min(n_items, max(per_cpu × cpus, ceil(nbytes / _TARGET_PART_BYTES)))``."""
    return min(n_items, max(per_cpu * cpus, -(-nbytes // _TARGET_PART_BYTES)))


def _fold_range(fold_and_write, out_root: str, n_parts: int, rng: pa.Table) -> pa.Table:
    """Frame of one part_id range: fold and publish each of its non-empty
    partitions, in id order (``fold_and_write``) → their metrics rows."""
    rows = [fold_and_write(out_root, p, part)
            for p, part in enumerate(_split_by_part(rng, n_parts)) if part.num_rows]
    return pa.Table.from_pylist(rows, schema=_METRICS_SCHEMA)


def partitioned_extract_all_tasks(path: str, out_root: str, n_parts: int | None = None):
    """ALL families, one read, one exchange — the production/headline path.
    Returns the per-partition metrics DataFrame.

    The partition is the unit of output, checkpoint and retry-safe publish
    (``_fold_and_write``: same files, sidecars and hashes however the run
    is scheduled). The exchange is the conversation folds' own
    (``stages.fold.range_exchange``), keyed by ``part_id``:

        one map task per contiguous run of the sorted files
        (``parquet_shards``: read → assign part_id → split by range) →
        one fold task per range of pending part ids, which folds and
        publishes its partitions one after another, in id order.

    Part ids are a known dense domain, so there is no sample wave: the
    pending ids are cut into ``_n_groups`` contiguous ranges of near-equal
    size. A run makes ``n_shards × n_ranges`` exchange objects and
    ``n_ranges`` fold tasks. A partition's rows reach its fold in file
    order, so its bytes do not depend on the cluster width, even where
    one ``(conv_id, turn_idx)`` appears in two files.

    Why not a Ray Data ``groupby(part_id)``: its sort-based groupby is a
    full barrier (boundary sampling; no fold starts until every reduce slot
    is final), and the Dataset API cannot express a key exchange whose
    reduce side starts per task. When both existed, a task exchange
    measured ~1.4x faster at 8 CPUs and ~1.6x at 32 CPUs than the groupby
    one on the bench corpus, with byte-identical partition files.

    Resume: partitions with sidecars are filtered out in the map and get
    no range; their metrics rows come from the sidecars.
    """
    import ray

    from ..runtime import _cluster_cpus

    shards = parquet_shards(path)
    files = [f for sh in shards for f in sh]
    n_parts = _resolve_n_parts(out_root, files, n_parts)
    done = completed_parts(out_root)
    pending = [p for p in range(n_parts) if p not in done]

    fresh = pd.DataFrame(columns=_METRICS_SCHEMA.names)
    if pending:
        # md5(conv_id) spreads input bytes evenly over the partitions
        pending_bytes = sum(os.path.getsize(f) for f in files) * len(pending) // n_parts
        n = _n_groups(len(pending), pending_bytes, _cluster_cpus())
        bounds = np.array([pending[len(pending) * g // n] for g in range(1, n)], dtype=np.int64)
        load = _ParquetLoad(["conv_id", "turn_idx", "text", "tool"], "part_id",
                            pre=partial(append_part_id, n_parts=n_parts, done=done or None))
        # ``append_part_id`` and ``_fold_and_write`` are looked up HERE and
        # shipped with the tasks, so the workers run whatever this module
        # binds to them at call time.
        # retry_exceptions: a fold that dies with a Python exception
        # (transient FS error, allocator failure) retries like worker death
        # does — safe because every publish is idempotent by construction:
        # family files are deterministic bytes landed via atomic os.replace,
        # each sidecar is written LAST, and metrics come only from the one
        # successful return, so a retried range can neither double-write nor
        # double-count (pinned by
        # tests/test_fault_tolerance.py::test_fold_task_poison_retries_exactly)
        refs = range_exchange(shards, "part_id", bounds,
                              partial(_fold_range, _fold_and_write, out_root, n_parts), load,
                              retry_exceptions=True, max_retries=4)
        fresh = pa.concat_tables(ray.get(refs)).to_pandas()
    return _with_resumed(fresh, out_root, done)
