"""The three workloads: corpus, warm-up, timed closed loop and traced run.

One single-threaded client process submits one job at a time (closed loop,
one client) against a local Ray session with ``harness.RAY_CPUS`` logical
CPUs.
Every timed call goes through ``Ledger.run`` (per-op timeout); every output
is checked against ``reference`` outside the timed window.
"""

from __future__ import annotations

import contextlib
import glob
import os
import shutil
import statistics
import time
from dataclasses import dataclass, replace

import pyarrow.parquet as pq

from . import harness, reference, replay

SHUFFLE_OPS = (
    "hygiene", "conv_dedup", "context_tails", "tool_latency",
    "role_transitions", "turn_pack", "extract_rate", "prompt_response",
)
DEDUP_OPS = ("conv_neardup", "conv_clusters")
FILES_PER_CORPUS = 8  # shard count of the task exchange (one shard per file)


@dataclass(frozen=True)
class Workload:
    name: str
    n_convs: int
    n_parts: int
    job: str  # "extract" | "extract_resume" | "conv_ops"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("extract_bulk", 3000, 64, "extract"),
        Workload("extract_fine", 600, 256, "extract_resume"),
        Workload("conv_ops", 400, 64, "conv_ops"),
    )
}
# smoke-test sizes: same code paths, seconds instead of minutes
TINY = {
    "extract_bulk": replace(WORKLOADS["extract_bulk"], n_convs=60, n_parts=8),
    "extract_fine": replace(WORKLOADS["extract_fine"], n_convs=40, n_parts=16),
    "conv_ops": replace(WORKLOADS["conv_ops"], n_convs=40, n_parts=8),
}


def make_corpus(run_dir: str, wl: Workload, seed: int) -> str:
    """Fresh seed-keyed corpus under the run directory."""
    from pdf_extractors_ray.sources.transcripts import synthesize_transcripts

    path = os.path.join(run_dir, f"corpus-n{wl.n_convs}-s{seed}")
    shutil.rmtree(path, ignore_errors=True)
    per_file = -(-wl.n_convs // FILES_PER_CORPUS)
    return synthesize_transcripts(path, n_convs=wl.n_convs, seed=seed, convs_per_file=per_file)


def corpus_turns(corpus: str) -> int:
    return sum(pq.read_metadata(f).num_rows for f in _parquet_files(corpus))


def _parquet_files(d: str) -> list[str]:
    return sorted(glob.glob(os.path.join(d, "*.parquet")))


def _n_shards() -> int:
    from pdf_extractors_ray.runtime import shuffle_num_blocks

    return min(FILES_PER_CORPUS, shuffle_num_blocks(harness.RAY_CPUS))


def warm_up(wl: Workload, corpus: str, run_dir: str, all_ops: bool = False) -> None:
    """Pay the session's first-use costs (worker imports, the first Ray Data
    execution, each op's first run) before timing, as a long-lived cluster
    would have. The ops warm up on a one-file sample; ``all_ops`` warms them
    for an extract workload too (its traced run times each op once)."""
    if wl.job != "conv_ops":
        out = os.path.join(run_dir, "warm")
        _extract(corpus, out, wl.n_parts)
        shutil.rmtree(out, ignore_errors=True)
    if all_ops or wl.job == "conv_ops":
        sample = _first_file_corpus(corpus, run_dir)
        for name in SHUFFLE_OPS + DEDUP_OPS:
            _op_fn(name)(sample).materialize()


def _first_file_corpus(corpus: str, run_dir: str) -> str:
    """A one-file (1/FILES_PER_CORPUS) sample of the corpus, for warm-up and
    for timing the ops in the traced run of an extract workload."""
    path = os.path.join(run_dir, "ops-sample")
    os.makedirs(path, exist_ok=True)
    shutil.copy(_parquet_files(corpus)[0], path)
    return path


# ---------------------------------------------------------------------------
# extract jobs


def _extract(corpus: str, out_root: str, n_parts: int):
    from pdf_extractors_ray.state.lineage import partitioned_extract_all_tasks

    return partitioned_extract_all_tasks(corpus, out_root, n_parts=n_parts)


def sidecar_hashes(out_root: str) -> dict[int, dict[str, str]]:
    from pdf_extractors_ray.state.lineage import read_lineage

    return {
        e["part_id"]: {f: v["content_hash"] for f, v in e["families"].items()}
        for e in read_lineage(out_root)
    }


def drop_half(out_root: str) -> list[int]:
    """Delete the sidecars of every other completed partition."""
    victims = sorted(sidecar_hashes(out_root))[::2]
    for p in victims:
        os.remove(os.path.join(out_root, "_lineage", f"part-{p}.json"))
    return victims


def check_resume(ledger: harness.Ledger, op: str, fresh: dict, out_root: str,
                 recomputed, victims: list[int]) -> bool:
    """After a resume, exactly the victims were recomputed and every sidecar
    hash equals the fresh run's."""
    bad = []
    if sorted(int(p) for p in recomputed) != sorted(victims):
        bad.append("recomputed partitions")
    after = sidecar_hashes(out_root)
    bad += [f"part-{p}" for p in sorted(set(fresh) | set(after)) if fresh.get(p) != after.get(p)]
    return ledger.check(op, bad)


def _out_bytes(out_root: str) -> tuple[int, int]:
    """(parquet bytes, files written incl. sidecars) under an output root."""
    pqs = glob.glob(os.path.join(out_root, "*", "part-*.parquet"))
    sidecars = glob.glob(os.path.join(out_root, "_lineage", "part-*.json"))
    return sum(os.path.getsize(f) for f in pqs), len(pqs) + len(sidecars)


# ---------------------------------------------------------------------------
# conversation ops


def _op_fn(name: str):
    from pdf_extractors_ray.ops import transcript

    return getattr(transcript, f"transcript_{name}")


def ops_reference(corpus: str, columns: dict[str, list[str]]) -> dict:
    """Reference digests of the ops whose engine columns are known."""
    from pdf_extractors_ray.ops import transcript

    want = {}
    for name in SHUFFLE_OPS:
        if name in columns:
            sql = getattr(transcript, f"transcript_{name}_sql")(corpus)
            want[name] = reference.frame_digest(reference.twin_frame(sql), columns[name])
    if set(DEDUP_OPS) & set(columns):
        pairs = reference.twin_frame(transcript.transcript_conv_neardup_sql(corpus))
        if "conv_neardup" in columns:
            want["conv_neardup"] = reference.frame_digest(pairs, columns["conv_neardup"])
        if "conv_clusters" in columns:
            want["conv_clusters"] = reference.clusters_digest(
                corpus, zip(pairs["a"], pairs["b"]), columns["conv_clusters"]
            )
    return want


def run_ops_pass(corpus: str, ledger: harness.Ledger, tracer=None) -> dict:
    """One timed call per op (``materialize`` forces the whole plan), each
    output digested afterwards. Returns name -> (wall, digest, frame)."""
    out = {}
    for name in SHUFFLE_OPS + DEDUP_OPS:
        if ledger.aborted:
            break
        fn = _op_fn(name)
        with tracer.span(f"op.{name}") if tracer else contextlib.nullcontext():
            ds, wall = ledger.run(f"op.{name}", lambda: fn(corpus).materialize())
        if ds is None:
            continue
        df = ds.to_pandas()
        out[name] = (wall, reference.frame_digest(df), df)
    return out


def check_ops(ledger: harness.Ledger, passes: list[dict], want: dict) -> None:
    for results in passes:
        for name, (_wall, got, _df) in results.items():
            ledger.check(f"op.{name}", [] if got == want.get(name) else [name])


# ---------------------------------------------------------------------------
# timed closed loop (--trace 0)


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def run_timed(wl: Workload, corpus: str, run_dir: str, seconds: float,
              ledger: harness.Ledger, min_jobs: int = 3) -> tuple[dict, dict]:
    n_turns = corpus_turns(corpus)
    walls, cpus, checks = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while (i < min_jobs or time.perf_counter() < deadline) and not ledger.aborted:
        before = harness.session_pids()
        if wl.job == "conv_ops":
            res = run_ops_pass(corpus, ledger)
            wall = sum(r[0] for r in res.values()) if len(res) == len(SHUFFLE_OPS + DEDUP_OPS) else None
            checks.append(res)
        else:
            out = os.path.join(run_dir, f"out-{i}")
            m, wall = ledger.run(wl.job, lambda: _extract(corpus, out, wl.n_parts))
            if m is not None and wl.job == "extract_resume":
                fresh = sidecar_hashes(out)
                victims = drop_half(out)
                m2, wall2 = ledger.run("resume", lambda: _extract(corpus, out, wl.n_parts))
                if m2 is None:
                    wall = None
                else:
                    wall += wall2
                    check_resume(ledger, "resume", fresh, out, m2.loc[~m2["resumed"], "part_id"], victims)
            checks.append(out if m is not None else None)
        cpu = harness.cpu_delta(before, harness.session_pids())
        if wall is not None:
            walls.append(wall)
            cpus.append(cpu)
        i += 1
    rss = harness.peak_rss_mb()
    _check_timed(wl, corpus, ledger, checks)
    report = {"job_walls_s": walls, "job_cpu_s": cpus, "n_turns": n_turns, "jobs": i}
    metrics = {
        "turns_per_s": n_turns / _median(walls),
        "cpu_s_per_kturn": _median(cpus) / (n_turns / 1000.0),
        "peak_rss_mb": rss,
    }
    return metrics, report


def _check_timed(wl: Workload, corpus: str, ledger: harness.Ledger, checks: list) -> None:
    if wl.job == "conv_ops":
        first = next((c for c in checks if len(c) == len(SHUFFLE_OPS + DEDUP_OPS)), None)
        if first is not None:
            cols = {name: list(df.columns) for name, (_w, _d, df) in first.items()}
            check_ops(ledger, checks, ops_reference(corpus, cols))
        return
    outs = [c for c in checks if c is not None]
    if not outs:
        return
    want = reference.oracle_digests(corpus)
    ok0 = ledger.check(f"{wl.job}.output", reference.compare(reference.published_digests(outs[0]), want))
    h0 = sidecar_hashes(outs[0])
    for out in outs[1:]:
        if ok0:
            ledger.check(f"{wl.job}.repeat", [] if sidecar_hashes(out) == h0 else ["content hashes"])
        shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------------------
# traced run (--trace 1)


def run_traced(wl: Workload, corpus: str, run_dir: str,
               ledger: harness.Ledger) -> tuple[dict, dict]:
    """Every layer once on this workload's corpus: a Ray extract and resume
    (untraced, for CPU and hashes), the serial replay untraced and traced,
    a traced serial resume, and one pass of the conversation ops (on a
    one-file sample for the extract workloads)."""
    n_turns = corpus_turns(corpus)
    files = _parquet_files(corpus)
    n_shards = _n_shards()
    m: dict[str, float] = {}

    ray_out = os.path.join(run_dir, "ray")
    before = harness.session_pids()
    res, ray_wall = ledger.run("extract", lambda: _extract(corpus, ray_out, wl.n_parts))
    ray_cpu = harness.cpu_delta(before, harness.session_pids())
    fresh = sidecar_hashes(ray_out) if res is not None else {}
    turns = [int(t) for t in res["n_turns"]] if res is not None else [0]
    m["part.turns_max_over_mean"] = max(turns) / (sum(turns) / len(turns))

    resume_s = float("nan")
    if res is not None:
        victims = drop_half(ray_out)
        res2, resume_s = ledger.run("resume", lambda: _extract(corpus, ray_out, wl.n_parts))
        if res2 is not None:
            check_resume(ledger, "resume", fresh, ray_out, res2.loc[~res2["resumed"], "part_id"], victims)
    m["resume_s"] = resume_s

    # the oracle folds the same corpus in this process: reference and warm-up
    want = reference.oracle_digests(corpus)
    if res is not None:
        ledger.check("extract.output", reference.compare(reference.published_digests(ray_out), want))

    plain_out = os.path.join(run_dir, "serial")
    ledger.attempt()
    c0, t0 = time.process_time(), time.perf_counter()
    replay.replay_extract(corpus, plain_out, wl.n_parts, n_shards)
    plain_wall, plain_cpu = time.perf_counter() - t0, time.process_time() - c0
    ledger.check("serial.output", [] if sidecar_hashes(plain_out) == fresh else ["content hashes"])

    tracer = replay.Tracer()
    traced_out = os.path.join(run_dir, "traced")
    ledger.attempt()
    with replay.instrument(tracer):
        ex = replay.replay_extract(corpus, traced_out, wl.n_parts, n_shards, tracer)
    ledger.check("traced.output", [] if sidecar_hashes(traced_out) == fresh else ["content hashes"])
    m.update(replay.layer_metrics(tracer, "extract"))
    serial_s = next(s[2] - s[1] for s in tracer.spans if s[0] == "extract")
    write_bytes, files_written = _out_bytes(traced_out)

    victims = drop_half(traced_out)
    ledger.attempt()
    with replay.instrument(tracer):
        rr = replay.replay_extract(corpus, traced_out, wl.n_parts, n_shards, tracer, root="resume")
    check_resume(ledger, "traced.resume", fresh, traced_out, [r["part_id"] for r in rr["parts"]], victims)
    resume_layers = replay.layer_metrics(tracer, "resume")

    ops_corpus = corpus if wl.job == "conv_ops" else _first_file_corpus(corpus, run_dir)
    ops = run_ops_pass(ops_corpus, ledger, tracer)
    if ops:
        cols = {name: list(df.columns) for name, (_w, _d, df) in ops.items()}
        check_ops(ledger, [ops], ops_reference(ops_corpus, cols))

    nan = float("nan")
    m.update({
        "read.bytes": sum(os.path.getsize(f) for f in files),
        "read.turns": n_turns,
        "part_id.distinct_convs": len({
            c for f in files for c in pq.read_table(f, columns=["conv_id"])["conv_id"].to_pylist()
        }),
        "exchange.objects": ex["exchange_objects"],
        "exchange.bytes": ex["exchange_bytes"],
        "write.bytes": write_bytes,
        "files_written": files_written,
        "out_bytes_per_turn": write_bytes / n_turns,
        "lineage_scan.s": resume_layers["lineage_scan.s"],
        "resume.parts_skipped": len(rr["skipped"]),
        "resume.parts_recomputed": len(rr["parts"]),
        "resume.serial_s": next(s[2] - s[1] for s in tracer.spans if s[0] == "resume"),
        "serial_extract_s": serial_s,
        "ray_extract_s": ray_wall if ray_wall is not None else nan,
        "ray_overhead_cpu_s": ray_cpu - plain_cpu,
        "tracing_overhead_ratio": serial_s / plain_wall,
    })
    for name in SHUFFLE_OPS + DEDUP_OPS:
        wall, _digest, df = ops.get(name, (nan, None, None))
        m[f"op.{name}.s"] = wall
        m[f"op.{name}.rows"] = len(df) if df is not None else nan
    m["conv_shuffle_ops_s"] = sum(m[f"op.{n}.s"] for n in SHUFFLE_OPS)
    m["conv_dedup_ops_s"] = sum(m[f"op.{n}.s"] for n in DEDUP_OPS)
    pairs = ops.get("conv_neardup", (0, 0, None))[2]
    clusters = ops.get("conv_clusters", (0, 0, None))[2]
    m["conv_neardup.pairs"] = len(pairs) if pairs is not None else nan
    m["conv_clusters.n_clusters"] = clusters["cluster"].nunique() if clusters is not None else nan
    m["conv_clusters.max_size"] = int(clusters["cluster_size"].max()) if clusters is not None else nan
    report = {"spans": tracer.dump(), "n_turns": n_turns, "plain_replay_s": plain_wall}
    return m, report
