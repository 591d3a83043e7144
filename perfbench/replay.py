"""Serial replay of the partitioned extract path, with optional spans.

``replay_extract`` runs the two task bodies of
``lineage.partitioned_extract_all_tasks`` (``_shard_map`` per shard, then
``_fold_and_write`` per partition) one after another in this process, with
no Ray and the same inputs, so it writes the same bytes. Untraced it is the
single-threaded baseline; traced, ``instrument`` rebinds module attributes
of the engine for the duration of the replay so that every call into a
layer's public function opens a span. No program file is changed.

Spans live in memory (``Tracer.spans``) and are written to the run report
when the run ends. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import builtins
import contextlib
import glob
import hashlib
import json
import os
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name: str, fn, count_rows: bool = False):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if count_rows:
                rec[4]["rows"] = len(out)
            return out

        return traced

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _name, t0, t1, parent, _attrs in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": t0, "end": t1, "parent": p, **a}
            for n, t0, t1, p, a in self.spans
        ]


class _NullTracer:
    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield None


class _Proxy:
    """A module stand-in: ``overrides`` first, everything else delegated."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class _TimedReader:
    def __init__(self, tracer: Tracer, name: str, fh):
        self._tracer, self._name, self._fh = tracer, name, fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def read(self, *args):
        with self._tracer.span(self._name):
            return self._fh.read(*args)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind the engine's layer entry points to span-emitting wrappers."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractors_ray.oracle import census, persons
    from pdf_extractors_ray.state import lineage

    def concat_tables(*args, **kwargs):
        # file tables are concatenated by the read side, partition slices by
        # the reduce side of the exchange
        name = "read" if tracer.current() == "shard" else "exchange"
        with tracer.span(name):
            return pa.concat_tables(*args, **kwargs)

    def md5(*args, **kwargs):
        if tracer.current() != "task":  # part_id hashing and metric hashes
            return hashlib.md5(*args, **kwargs)
        with tracer.span("md5"):
            return hashlib.md5(*args, **kwargs)

    def traced_open(path, mode="r", *args, **kwargs):
        if "b" in mode and "r" in mode:
            with tracer.span("md5"):
                fh = builtins.open(path, mode, *args, **kwargs)
            return _TimedReader(tracer, "md5", fh)
        with tracer.span("sidecar"):
            return builtins.open(path, mode, *args, **kwargs)

    def replace(src, dst):
        with tracer.span("write" if dst.endswith(".parquet") else "sidecar"):
            return os.replace(src, dst)

    timed_folds = {
        fam: (tracer.wrap(f"fold.{fam}", fn, count_rows=True), schema)
        for fam, (fn, schema) in lineage.FOLDS.items()
    }
    fold_partition = lineage.fold_partition

    def traced_fold_partition(part, families=None, derive_census=True):
        # a generator: the fold runs between the caller's writes, so each
        # resumption gets its own span
        gen = fold_partition(part, families=families or timed_folds, derive_census=derive_census)
        while True:
            with tracer.span("fold"):
                try:
                    item = next(gen)
                except StopIteration:
                    return
            yield item

    patches = {
        (lineage, "pq"): _Proxy(
            pq, read_table=tracer.wrap("read", pq.read_table),
            write_table=tracer.wrap("write", pq.write_table),
        ),
        (lineage, "pa"): _Proxy(pa, concat_tables=concat_tables),
        (lineage, "os"): _Proxy(os, replace=replace),
        (lineage, "json"): _Proxy(json, dump=tracer.wrap("sidecar", json.dump)),
        (lineage, "hashlib"): _Proxy(hashlib, md5=md5),
        (lineage, "append_part_id"): tracer.wrap("part_id", lineage.append_part_id),
        (lineage, "_split_by_part"): tracer.wrap("split", lineage._split_by_part),
        (lineage, "fold_partition"): traced_fold_partition,
        (lineage, "rows_to_table"): tracer.wrap("encode", lineage.rows_to_table),
        (lineage, "completed_parts"): tracer.wrap("lineage_scan", lineage.completed_parts),
        (lineage, "read_lineage"): tracer.wrap("lineage_scan", lineage.read_lineage),
        (census, "summarize_household"): tracer.wrap("census_summary", census.summarize_household),
        (persons, "extract_persons_for_household"): tracer.wrap(
            "kinship", persons.extract_persons_for_household, count_rows=True
        ),
    }
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr in patches]
    for (mod, attr), value in patches.items():
        setattr(mod, attr, value)
    lineage.open = traced_open  # shadows the builtin inside lineage only
    try:
        yield
    finally:
        del lineage.open
        for mod, attr, value in saved:
            setattr(mod, attr, value)


def replay_extract(corpus_dir: str, out_root: str, n_parts: int, n_shards: int,
                   tracer: Tracer | None = None, root: str = "extract") -> dict:
    """Serial ``partitioned_extract_all_tasks``. Returns the recomputed
    partitions' metrics, the skipped part ids and exchange counters."""
    from pdf_extractors_ray.state import lineage

    tr = tracer or _NullTracer()
    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    with tr.span(root):
        os.makedirs(os.path.join(out_root, "_lineage"), exist_ok=True)
        done = lineage.completed_parts(out_root)
        shards = [files[i::n_shards] for i in range(n_shards)]
        slices = []
        for s, shard in enumerate(shards):
            with tr.span("shard", shard=s):
                slices.append(lineage._shard_map(shard, n_parts, frozenset(done)))
        results = []
        for p in range(n_parts):
            if p in done:
                continue
            with tr.span("task", part=p):
                results.append(lineage._fold_and_write(out_root, p, *[sl[p] for sl in slices]))
        lineage.read_lineage(out_root)
    return {
        "parts": [r for r in results if r["n_turns"] > 0],
        "skipped": sorted(done),
        "exchange_objects": len(shards) * n_parts,
        "exchange_bytes": sum(t.nbytes for sl in slices for t in sl),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from one traced replay

# spans whose self time is reported as the per-layer metric "<name>.s"
LAYER_SPANS = (
    "read", "part_id", "split", "exchange", "shard", "task", "fold",
    "census_summary", "kinship", "encode", "write", "md5", "sidecar", "lineage_scan",
)
FAMILIES = ("catalog", "invoice", "layout", "table", "grid", "census")


def layer_metrics(tracer: Tracer, root: str = "extract") -> dict[str, float]:
    """Self time per layer under the ``root`` span, the fold counters, the
    partition balance figures and the trace coverage."""
    spans, selfs = tracer.spans, tracer.self_times()
    root_idx = next(i for i, s in enumerate(spans) if s[0] == root)
    under = [False] * len(spans)
    for i, s in enumerate(spans):
        under[i] = i == root_idx or (s[3] >= 0 and under[s[3]])
    m = {f"{name}.s": 0.0 for name in LAYER_SPANS}
    for fam in FAMILIES:
        m[f"fold.{fam}.s"] = m[f"fold.{fam}.convs"] = m[f"fold.{fam}.rows"] = 0
    m["kinship.households"] = m["kinship.persons"] = 0
    task_fold: dict[int, float] = {}
    task_wall: dict[int, float] = {}
    task_of = {}
    for i, (name, t0, t1, parent, attrs) in enumerate(spans):
        if not under[i] or i == root_idx:
            continue
        if name == "task":
            task_of[i] = attrs["part"]
            task_wall[attrs["part"]] = t1 - t0
        if name in LAYER_SPANS or name.startswith("fold."):
            m[f"{name}.s"] += selfs[i]
        if name.startswith("fold."):
            m[f"{name}.convs"] += 1
            m[f"{name}.rows"] += attrs.get("rows", 0)
        if name == "kinship":
            m["kinship.households"] += 1
            m["kinship.persons"] += attrs.get("rows", 0)
        if name == "fold" and parent in task_of:
            p = task_of[parent]
            task_fold[p] = task_fold.get(p, 0.0) + (t1 - t0)
    wall = spans[root_idx][2] - spans[root_idx][1]
    folds = np.array(list(task_fold.values()) or [0.0])
    # partitions that folded something (empty ones only bookkeep)
    walls = np.array([task_wall[p] for p in task_fold] or [0.0])
    m["part.fold_s_p50"] = float(np.median(folds))
    m["part.fold_s_max"] = float(folds.max())
    m["part.straggler_ratio"] = float(walls.max() / np.median(walls)) if walls.any() else 0.0
    m["trace.unattributed_s"] = selfs[root_idx]
    m["trace.coverage"] = 1.0 - selfs[root_idx] / wall if wall > 0 else 0.0
    return m
