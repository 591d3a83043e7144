"""Fault-tolerance evidence for the 100 TB story: a worker CRASH
(SIGKILL-class death, not a Python exception) mid-pipeline must be
retried transparently by Ray's lineage re-execution, with byte-identical
results — the property every long multi-node run leans on.

The crash is injected once per run via a filesystem marker (workers
share the node FS in local mode); `os._exit(1)` simulates the
OOM-killer/SIGSEGV class of death the production cluster actually sees.
"""

import os

import numpy as np
import pandas as pd
import pytest


def _flaky_tokenizer(marker_dir: str):
    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        marker = os.path.join(marker_dir, "died")
        if not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("x")
            os._exit(1)  # worker death, not an exception
        toks = batch["text"].str.count(" ").to_numpy(np.int64) + 1
        return pd.DataFrame({"lang": batch["lang"], "n_tokens": toks,
                             "n_docs": np.int64(1)})

    return fn


def test_task_crash_recovers_exactly(ray_session, tmp_path):
    """map_batches → bucketed combine with one injected worker crash ==
    the crash-free run, row for row."""
    from pdf_extractors_ray.ops.common import bucketed_group_agg
    from pdf_extractors_ray.runtime import read_parquet_sized

    sf = "/root/testdata/sf0.01"

    def run(fn):
        ds = read_parquet_sized(
            os.path.join(sf, "documents.parquet"), columns=["lang", "text"]
        )
        agg = bucketed_group_agg(
            ds.map_batches(fn, batch_format="pandas"),
            ["lang"],
            {"n_tokens": "sum", "n_docs": "sum"},
        )
        return (
            agg.to_pandas()
            .astype({"n_tokens": np.int64, "n_docs": np.int64})
            .sort_values("lang")
            .reset_index(drop=True)
        )

    # clean run: pre-satisfied marker, no crash fires
    sat = tmp_path / "sat"
    sat.mkdir()
    (sat / "died").write_text("x")
    clean = run(_flaky_tokenizer(str(sat)))

    inj = tmp_path / "inj"
    inj.mkdir()
    crashed = run(_flaky_tokenizer(str(inj)))
    assert (inj / "died").exists()  # the crash really happened
    pd.testing.assert_frame_equal(crashed, clean)


def test_shuffle_output_stable_under_crash(ray_session, tmp_path):
    """The crash may land before OR after the exchange — either way the
    grouped result of a production op path stays exact: compare the
    crash-injected grouped token count against DuckDB."""
    import duckdb

    from pdf_extractors_ray.ops.common import bucketed_group_agg
    from pdf_extractors_ray.runtime import read_parquet_sized

    sf = "/root/testdata/sf0.01"
    inj = tmp_path / "inj2"
    inj.mkdir()
    ds = read_parquet_sized(
        os.path.join(sf, "documents.parquet"), columns=["lang", "text"]
    )
    agg = bucketed_group_agg(
        ds.map_batches(_flaky_tokenizer(str(inj)), batch_format="pandas"),
        ["lang"],
        {"n_tokens": "sum", "n_docs": "sum"},
    ).to_pandas().sort_values("lang").reset_index(drop=True)
    con = duckdb.connect()
    want = con.execute(
        f"""SELECT lang, CAST(SUM(len(string_split(text, ' '))) AS BIGINT) AS n_tokens,
                   CAST(COUNT(*) AS BIGINT) AS n_docs
            FROM read_parquet('{sf}/documents.parquet')
            GROUP BY lang ORDER BY lang"""
    ).fetchdf()
    con.close()
    pd.testing.assert_frame_equal(
        agg.astype({"n_tokens": np.int64, "n_docs": np.int64}), want,
        check_dtype=True,
    )


def test_shard_map_crash_mid_exchange(ray_session, small_corpus_dir, tmp_path, monkeypatch):
    """Kill a SHARD-MAP task mid-exchange, in its ``append_part_id``
    (worker death, not an exception): Ray lineage re-executes the map,
    every downstream fold
    still sees exactly one copy of each slice, and the partition outputs
    are byte-identical to the crash-free run with no double-counted
    sidecar metrics — the failure mode at the level where 10^12-turn
    exchanges actually break."""
    from pdf_extractors_ray.state import lineage

    clean_out = str(tmp_path / "clean")
    m_clean = lineage.partitioned_extract_all_tasks(small_corpus_dir, clean_out, n_parts=8)

    marker = str(tmp_path / "shard_died")
    real = lineage.append_part_id

    def flaky_append_part_id(batch, n_parts, done=None):
        if not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("x")
            os._exit(1)  # SIGKILL-class death mid-exchange
        return real(batch, n_parts, done)

    monkeypatch.setattr(lineage, "append_part_id", flaky_append_part_id)
    out = str(tmp_path / "inj_shard")
    m = lineage.partitioned_extract_all_tasks(small_corpus_dir, out, n_parts=8)
    assert os.path.exists(marker)  # the crash really fired

    assert dict(zip(m["part_id"], m["content_hash"])) == dict(
        zip(m_clean["part_id"], m_clean["content_hash"])
    )
    # exactly one sidecar per partition, turn conservation intact
    entries = lineage.read_lineage(out)
    parts = [e["part_id"] for e in entries]
    assert len(parts) == len(set(parts))
    assert sum(e["n_turns"] for e in entries) == int(m_clean["n_turns"].sum())


def test_fold_task_poison_retries_exactly(ray_session, small_corpus_dir, tmp_path, monkeypatch):
    """Poison ONE fold task: first invocation leaves a stale partial
    temp file in the family dir and raises; the retry (retry_exceptions
    on the fold task) must produce byte-identical output, exactly one
    sidecar per partition, and metrics counted once."""
    from pdf_extractors_ray.state import lineage

    clean_out = str(tmp_path / "clean2")
    m_clean = lineage.partitioned_extract_all_tasks(small_corpus_dir, clean_out, n_parts=8)
    victim = int(sorted(m_clean["part_id"])[2])

    marker = str(tmp_path / "fold_poisoned")
    real = lineage._fold_and_write

    def poisoned_fold(out_root, part_id, *slices):
        if part_id == victim and not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("x")
            # simulate dying mid-write: stale partial temp left behind
            fam_dir = os.path.join(out_root, "census")
            os.makedirs(fam_dir, exist_ok=True)
            with open(os.path.join(fam_dir, f"part-{part_id:05d}.parquet.tmp999"), "wb") as f:
                f.write(b"garbage partial write")
            raise RuntimeError("injected transient fold failure")
        return real(out_root, part_id, *slices)

    monkeypatch.setattr(lineage, "_fold_and_write", poisoned_fold)
    out = str(tmp_path / "inj_fold")
    m = lineage.partitioned_extract_all_tasks(small_corpus_dir, out, n_parts=8)
    assert os.path.exists(marker)

    # one metrics row per partition — the poisoned task's failed attempt
    # contributed nothing
    assert len(m) == len(set(m["part_id"]))
    assert dict(zip(m["part_id"], m["content_hash"])) == dict(
        zip(m_clean["part_id"], m_clean["content_hash"])
    )
    entries = lineage.read_lineage(out)
    parts = [e["part_id"] for e in entries]
    assert len(parts) == len(set(parts))
    assert sum(e["n_turns"] for e in entries) == int(m_clean["n_turns"].sum())
    # the stale partial temp never became an output file
    import glob as _glob

    outs = _glob.glob(os.path.join(out, "census", "part-*.parquet"))
    assert all(not p.endswith(".tmp999") for p in outs)
    # and reading the family back ignores it
    got = lineage.read_output(os.path.join(out, "census")).to_pandas()
    want = lineage.read_output(os.path.join(clean_out, "census")).to_pandas()
    assert len(got) == len(want)
