"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload at ``--size tiny`` in a subprocess from
a directory other than the repository root.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, REPO_ROOT)

from perfbench import harness, reference, replay, workloads  # noqa: E402

with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


def _run(args, cwd, timeout=300):
    return subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_spec_names_unique_and_workloads_match():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert "setup_s" in _names("end_to_end")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_gate_and_emits_spec_metrics(workload, trace, tmp_path):
    proc = _run(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-3000:]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == _names("per_layer" if trace else "end_to_end")
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_engine_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(REPO_ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract_bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    from pdf_extractors_ray.sources.transcripts import synthesize_transcripts

    path = str(tmp_path_factory.mktemp("corpus"))
    return synthesize_transcripts(path, n_convs=30, seed=5, convs_per_file=10)


def test_tampered_expected_digest_is_a_failed_op(tiny_corpus, tmp_path, monkeypatch):
    out = str(tmp_path / "out")
    replay.replay_extract(tiny_corpus, out, n_parts=4, n_shards=3)
    wl = workloads.TINY["extract_bulk"]

    ledger = harness.Ledger()
    workloads._check_timed(wl, tiny_corpus, ledger, [out])
    assert ledger.failed == 0 and not ledger.failures

    real = reference.oracle_digests

    def tampered(corpus):
        want = real(corpus)
        n, _digest = want["census_persons"]
        want["census_persons"] = (n, "0" * 32)
        return want

    monkeypatch.setattr(reference, "oracle_digests", tampered)
    ledger = harness.Ledger()
    workloads._check_timed(wl, tiny_corpus, ledger, [out])
    assert ledger.failed == 1
    assert "census_persons" in ledger.failures[0]["reason"]


def test_traced_replay_writes_same_bytes_and_restores_engine(tiny_corpus, tmp_path):
    from pdf_extractors_ray.state import lineage

    before = {k: getattr(lineage, k) for k in ("pq", "pa", "os", "fold_partition", "rows_to_table")}
    plain = replay.replay_extract(tiny_corpus, str(tmp_path / "a"), n_parts=4, n_shards=3)
    tracer = replay.Tracer()
    with replay.instrument(tracer):
        traced = replay.replay_extract(tiny_corpus, str(tmp_path / "b"), 4, 3, tracer)
    assert {k: getattr(lineage, k) for k in before} == before
    assert "open" not in vars(lineage)
    assert [p["content_hash"] for p in plain["parts"]] == [p["content_hash"] for p in traced["parts"]]
    m = replay.layer_metrics(tracer)
    assert m["trace.coverage"] > 0.9
    assert m["kinship.households"] > 0 and m["fold.census.convs"] > 0
    assert m["read.s"] > 0 and m["write.s"] > 0 and m["md5.s"] > 0


def test_self_time_subtracts_children():
    tracer = replay.Tracer()
    tracer.spans = [["root", 0.0, 10.0, -1, {}], ["a", 1.0, 4.0, 0, {}], ["b", 2.0, 3.0, 1, {}]]
    assert tracer.self_times() == [7.0, 2.0, 1.0]


def test_clusters_reference_is_union_find(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    ids = ["a", "b", "c", "d"]
    pq.write_table(pa.table({"conv_id": ids}), str(tmp_path / "part-0.parquet"))
    k = {c: reference.conv_key(c) for c in ids}
    cols = ["doc_id", "cluster", "cluster_size"]
    got = reference.clusters_digest(str(tmp_path), [(k["a"], k["b"]), (k["b"], k["c"])], cols)
    abc = min(k["a"], k["b"], k["c"])
    rows = [{"doc_id": k[c], "cluster": abc, "cluster_size": 3} for c in "abc"]
    rows.append({"doc_id": k["d"], "cluster": k["d"], "cluster_size": 1})
    assert got == reference.rows_digest(rows, cols)


def test_timeout_is_recorded_as_failed_op():
    import time

    ledger = harness.Ledger()
    result, wall = ledger.run("sleepy", lambda: time.sleep(5), timeout_s=0.2)
    assert result is None and wall is None
    assert ledger.failed == 1 and ledger.aborted
