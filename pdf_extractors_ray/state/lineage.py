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
- a GROUP of contiguous pending partitions is the unit of scheduling and
  exchange on the task engine (``partitioned_extract_all_tasks``): one fold
  task and one shard→fold object per group, so small runs don't pay Ray's
  per-task and per-object overhead once per partition, while at the
  design point a group degenerates to one partition (``_plan_groups``);
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
from itertools import accumulate

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
from ..stages.fold import rows_to_table

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
        try:
            import ray

            cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
        except Exception:  # noqa: BLE001
            cpus = 8
        min_parts = 2 * cpus
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

    Hot loop of the production path: ONE sort via integer-factorized
    ``np.lexsort`` and numpy boundary slicing — no per-conversation pandas
    ``groupby`` (which costs ~0.2 ms per conv, dominating at 10^5+ convs
    per run). Yields ``(family, arrow_table, n_turns, n_convs)``.

    ``families=`` and ``derive_census=`` have no caller in the package:
    they stay because ``perfbench/replay.py`` times each family's fold
    (and the census kinship stage) separately through them.
    """
    families = families or FOLDS

    def sorted_codes(col: "pa.ChunkedArray"):
        """Integer codes ranked by sorted distinct VALUE + the sorted
        uniques — ``pd.factorize(sort=True)`` semantics without ever
        materializing a per-ROW Python-object column (r3 #8 DRAM diet:
        only the ~n_convs DISTINCT strings become Python objects; the
        per-row side stays int32 Arrow indices end-to-end). Value-sorted
        codes matter: recomputed partitions must be byte-identical
        regardless of block arrival order."""
        enc = pc.dictionary_encode(col.combine_chunks())
        uniq = np.asarray(enc.dictionary.to_pylist(), dtype=object)
        # nulls -> code -1 (pd.factorize's convention); without the
        # fill_null the float-NaN indices would astype to a garbage
        # int64 and index rank out of range
        idx = enc.indices.fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
        perm = np.argsort(uniq, kind="stable")
        rank = np.empty(len(perm), dtype=np.int64)
        rank[perm] = np.arange(len(perm))
        return np.where(idx >= 0, rank[idx], np.int64(-1)), uniq[perm]

    tidx = part["turn_idx"].to_numpy(zero_copy_only=False)
    texts = np.asarray(part["text"].to_pandas(), dtype=object)
    if pd.isna(texts).any():
        texts = np.where(pd.isna(texts), "", texts)  # null text ≡ empty line
    conv_codes, conv_uniq = sorted_codes(part["conv_id"])
    tool_codes, tool_uniq = sorted_codes(part["tool"])
    order = np.lexsort((tidx, conv_codes, tool_codes))
    tc, cc = tool_codes[order], conv_codes[order]
    ti, tx = tidx[order], texts[order]
    change = np.flatnonzero((np.diff(tc) != 0) | (np.diff(cc) != 0)) + 1
    bounds = np.concatenate(([0], change, [len(tc)]))
    tx, ti = tx.tolist(), ti.tolist()  # the same str objects; Python ints

    rows_by_family: dict[str, list] = {}
    stats: dict[str, list[int]] = {}
    for i in range(len(bounds) - 1):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        fam = tool_uniq[tc[lo]]
        if fam not in families:
            continue
        fold_fn = families[fam][0]
        conv_rows = fold_fn(tx[lo:hi], ti[lo:hi])
        cid = conv_uniq[cc[lo]] if cc[lo] >= 0 else None  # -1 = null conv_id
        for r in conv_rows:
            r["conv_id"] = cid
        rows_by_family.setdefault(fam, []).extend(conv_rows)
        st = stats.setdefault(fam, [0, 0])
        st[0] += hi - lo
        st[1] += 1
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
    """Order-stable split of a batch into its n_parts slices (map side of
    the exchange). Empty slice for absent partitions."""
    part = tbl["part_id"].to_numpy(zero_copy_only=False)
    order = np.argsort(part, kind="stable")
    tbl = tbl.take(pa.array(order))
    part = part[order]
    bounds = np.searchsorted(part, np.arange(n_parts + 1))
    return [tbl.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i])) for i in range(n_parts)]


def _shard_map(files: list[str], n_parts: int, done: frozenset) -> list[pa.Table]:
    tbl = pa.concat_tables(
        pq.read_table(f, columns=["conv_id", "turn_idx", "text", "tool"]) for f in files
    )
    tbl = append_part_id(tbl, n_parts, set(done) or None)
    return _split_by_part(tbl, n_parts)


def _fold_and_write(out_root: str, part_id: int, *slices) -> dict:
    """Fold one partition from its per-shard slices and publish it: one
    file per family, then the sidecar. Returns its metrics row."""
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


# Fold tasks per cluster CPU while the pending input is small enough for
# partitions to share a task. Swept over 1, 2, 4, 8, 16 on a 2-CPU local Ray
# session on a 4-core VM (600 convs / 256 parts and 3,000 convs / 64 parts):
# 1-8 within noise of each other, 16 clearly slower, 4 the best median on
# the bulk corpus.
_GROUPS_PER_CPU = 4


def _n_groups(n_items: int, nbytes: int, cpus: int, per_cpu: int = _GROUPS_PER_CPU) -> int:
    """Fold tasks for ``n_items`` units of work over ``nbytes`` of input:
    ``min(n_items, max(per_cpu × cpus, ceil(nbytes / _TARGET_PART_BYTES)))``."""
    return min(n_items, max(per_cpu * cpus, -(-nbytes // _TARGET_PART_BYTES)))


def _plan_groups(pending: list[int], pending_bytes: int, cpus: int) -> list[list[int]]:
    """Split the sorted pending part ids into ``_n_groups`` contiguous groups
    of near-equal size, one fold task each. At the design point ``n_parts``
    is itself ``ceil(bytes / target)``, so every group holds one partition
    and the per-task working set stays bounded; at small scale partitions
    share a task instead of each paying Ray's per-task and per-object
    overhead."""
    if not pending:
        return []
    n_tasks = _n_groups(len(pending), pending_bytes, cpus)
    size, extra = divmod(len(pending), n_tasks)
    groups, lo = [], 0
    for g in range(n_tasks):
        hi = lo + size + (g < extra)
        groups.append(pending[lo:hi])
        lo = hi
    return groups


def _map_shard(shard_map, files: list[str], n_parts: int, done: frozenset,
               groups: list[list[int]]):
    """Shard map task: one exchange object per group — the group's
    per-partition slices as ONE contiguous table plus their row counts.
    One table, not a list of slices: Ray serializes every Arrow column
    chunk through a Python-level reducer, which cost more than the fold
    itself at 8 shards × 256 partitions."""
    slices = shard_map(files, n_parts, done)
    out = []
    for g in groups:
        parts = [slices[p] for p in g]
        out.append((pa.concat_tables(parts).combine_chunks(), [t.num_rows for t in parts]))
    return out if len(out) > 1 else out[0]  # num_returns=1 stores the bare value


def _fold_group(fold_and_write, out_root: str, parts: list[int], *per_shard) -> list[dict]:
    """Fold task: publish each partition of one group, in order, from the
    same per-shard slices ``_shard_map`` produced.

    The per-shard group objects arrive as varargs so Ray resolves every
    ObjectRef BEFORE scheduling this task — a task that ray.get()s inside
    would be scheduled early, block holding a worker, and starve the map
    stage."""
    cuts = [list(accumulate(counts, initial=0)) for _tbl, counts in per_shard]
    rows = []
    for i, p in enumerate(parts):
        slices = [tbl.slice(c[i], c[i + 1] - c[i]) for (tbl, _counts), c in zip(per_shard, cuts)]
        rows.append(fold_and_write(out_root, p, *slices))
    return rows


def partitioned_extract_all_tasks(path: str, out_root: str, n_parts: int | None = None):
    """ALL families, one read, one exchange expressed with Ray tasks — the
    production/headline path. Returns the per-partition metrics DataFrame.

    The partition is the unit of output, checkpoint and retry-safe publish
    (``_fold_and_write``: same files, sidecars and hashes however the run
    is scheduled). A group of contiguous pending partitions is the unit of
    scheduling and exchange (``_plan_groups``):

        shard map tasks (read files → assign part_id → split into n_parts
        slices → one object per group) → one fold task per group, which
        folds and publishes its partitions one after another from the
        n_shards group objects it consumes from the object store.

    So a run makes ``n_shards × n_groups`` exchange objects and ``n_groups``
    fold tasks instead of ``n_shards × n_parts`` and ``n_parts``.

    Why not a Ray Data ``groupby(part_id)``: its sort-based groupby is a
    full barrier (boundary sampling; no fold starts until every reduce slot
    is final), and the Dataset API cannot express a key exchange whose
    reduce side starts per task. When both existed, this path measured
    ~1.4x faster at 8 CPUs and ~1.6x at 32 CPUs than the groupby one on the
    bench corpus, with byte-identical partition files.

    Resume: partitions with sidecars are filtered out in the shard map and
    get no fold task; their metrics rows come from the sidecars.
    """
    import ray

    from ..runtime import _cluster_cpus, shuffle_num_blocks

    files = _list_parquet(path)
    n_parts = _resolve_n_parts(out_root, files, n_parts)
    done = completed_parts(out_root)
    pending = [p for p in range(n_parts) if p not in done]
    # md5(conv_id) spreads input bytes evenly over the partitions
    pending_bytes = sum(os.path.getsize(f) for f in files) * len(pending) // n_parts
    groups = _plan_groups(pending, pending_bytes, _cluster_cpus())

    fresh = pd.DataFrame(
        columns=["part_id", "n_turns", "n_convs", "n_rows", "content_hash", "resumed"]
    )
    if groups:
        n_shards = min(len(files), shuffle_num_blocks())
        shards = [list(files[i::n_shards]) for i in range(n_shards)]
        map_task = ray.remote(_map_shard).options(num_returns=len(groups))
        # retry_exceptions: a fold that dies with a Python exception
        # (transient FS error, allocator failure) retries like worker death
        # does — safe because every publish is idempotent by construction:
        # family files are deterministic bytes landed via atomic os.replace,
        # each sidecar is written LAST, and metrics come only from the one
        # successful return, so a retried group can neither double-write nor
        # double-count (pinned by
        # tests/test_fault_tolerance.py::test_fold_task_poison_retries_exactly)
        fold_task = ray.remote(_fold_group).options(retry_exceptions=True, max_retries=4)
        # the per-partition bodies are looked up HERE and shipped as task
        # arguments, so the workers run whatever this module binds to
        # ``_shard_map``/``_fold_and_write`` at call time
        obj_refs = [
            map_task.remote(_shard_map, shard, n_parts, frozenset(done), groups)
            for shard in shards
        ]
        if len(groups) == 1:
            obj_refs = [[r] for r in obj_refs]
        fold_refs = [
            fold_task.remote(_fold_and_write, out_root, g, *[refs[k] for refs in obj_refs])
            for k, g in enumerate(groups)
        ]
        rows = [row for rows in ray.get(fold_refs) for row in rows]
        fresh = pd.DataFrame(rows)
        fresh = fresh[fresh["n_turns"] > 0]
    return _with_resumed(fresh, out_root, done)

