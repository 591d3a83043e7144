"""Single-pass all-family partitioned extraction ≡ per-family pipelines."""

import os

import pandas as pd

from pdf_extractors_ray.pipelines import extract
from pdf_extractors_ray.state import lineage

from helpers import canonical


def test_derive_n_parts_scales_with_bytes(tmp_path):
    files = []
    for i in range(4):
        f = tmp_path / f"f{i}.parquet"
        f.write_bytes(b"x" * 1_000_000)
        files.append(str(f))
    assert lineage.derive_n_parts(files, target_part_bytes=1_000_000, min_parts=2) == 4
    assert lineage.derive_n_parts(files, target_part_bytes=500_000, min_parts=2) == 8
    # small corpus hits the cluster-width floor, not 1 giant partition
    assert lineage.derive_n_parts(files, target_part_bytes=1 << 30, min_parts=6) == 6


def test_n_parts_resume_stability(tmp_path):
    """A resumed run must reuse the recorded n_parts even when the caller
    asks for a different value — part_id = md5(conv) % n_parts, so a
    changed count would invalidate every completed sidecar."""
    f = tmp_path / "in.parquet"
    f.write_bytes(b"x" * 10)
    out = str(tmp_path / "out")
    n1 = lineage._resolve_n_parts(out, [str(f)], None)
    assert n1 >= 2
    assert lineage._resolve_n_parts(out, [str(f)], 999) == n1
    assert lineage._resolve_n_parts(out, [str(f)], None) == n1


def test_partitioned_all_matches_pipelines(ray_session, small_corpus_dir, tmp_path):
    out_root = str(tmp_path / "all_out")
    metrics = lineage.partitioned_extract_all_tasks(small_corpus_dir, out_root, n_parts=8)
    assert not metrics["resumed"].any()

    for family, pipeline in [
        ("catalog", extract.extract_catalog),
        ("invoice", extract.extract_invoice),
        ("layout", extract.extract_layout),
        ("table", extract.extract_table),
        ("grid", extract.extract_grid),
        ("census", extract.extract_census_households),
        ("census_summary", extract.extract_census_summary),
        ("census_persons", extract.extract_census_persons),
    ]:
        got = lineage.read_output(os.path.join(out_root, family)).to_pandas()
        want = pipeline(small_corpus_dir).to_pandas()
        assert len(got) == len(want) > 0, family
        pd.testing.assert_frame_equal(canonical(want), canonical(got), check_dtype=False)

    # lineage sidecars carry per-family extraction metrics
    entries = lineage.read_lineage(out_root)
    assert entries and all("families" in e for e in entries)
    total = sum(f["n_rows"] for e in entries for f in e["families"].values())
    assert total == int(metrics["n_rows"].sum())


def test_partitioned_tasks_resume(ray_session, small_corpus_dir, tmp_path):
    out = str(tmp_path / "tasks_resume")
    m1 = lineage.partitioned_extract_all_tasks(small_corpus_dir, out, n_parts=8)
    victims = sorted(set(m1["part_id"]))[:3]
    for p in victims:
        os.remove(os.path.join(out, "_lineage", f"part-{p}.json"))
    m2 = lineage.partitioned_extract_all_tasks(small_corpus_dir, out, n_parts=8)
    assert set(m2[~m2["resumed"]]["part_id"]) == set(victims)
    assert dict(zip(m1["part_id"], m1["content_hash"])) == dict(zip(m2["part_id"], m2["content_hash"]))


def test_plan_groups_covers_pending_in_contiguous_runs():
    target = lineage._TARGET_PART_BYTES
    full = list(range(256))
    holes = [p for p in range(256) if p % 3]  # a resume leaves gaps
    for pending in (full, holes, [7], list(range(5))):
        for cpus in (1, 2, 4, 64, 1000):
            groups = lineage._plan_groups(pending, 1 << 20, cpus)
            # each pending partition exactly once, in order: every group is a
            # contiguous run of the pending list
            assert [p for g in groups for p in g] == pending
            assert all(groups)
            # never more tasks than pending partitions
            assert len(groups) == min(len(pending), lineage._GROUPS_PER_CPU * cpus)
            sizes = [len(g) for g in groups]
            assert max(sizes) - min(sizes) <= 1
    for g in lineage._plan_groups(full, 1 << 20, 2):
        assert g == list(range(g[0], g[-1] + 1))
    # input beyond the per-partition target: one partition per task
    for pending in (full, holes):
        groups = lineage._plan_groups(pending, len(pending) * (target + 1), 2)
        assert groups == [[p] for p in pending]
    assert lineage._plan_groups([], 1 << 40, 8) == []


def _sidecar_hashes(out_root):
    return {
        e["part_id"]: {f: v["content_hash"] for f, v in e["families"].items()}
        for e in lineage.read_lineage(out_root)
    }


def test_partitioned_tasks_resume_at_256_parts(ray_session, small_corpus_dir, tmp_path):
    """Resume at a realistic partition count: grouped fold tasks recompute
    exactly the partitions whose sidecars were dropped, and every sidecar
    hash equals a serial per-partition ``_shard_map``/``_fold_and_write``
    replay."""
    n_parts = 256
    out = str(tmp_path / "fine")
    m1 = lineage.partitioned_extract_all_tasks(small_corpus_dir, out, n_parts=n_parts)
    assert not m1["resumed"].any()
    written = sorted(lineage.completed_parts(out))
    assert written == sorted(m1["part_id"])
    dropped = written[::2]
    for p in dropped:
        os.remove(os.path.join(out, "_lineage", f"part-{p}.json"))

    m2 = lineage.partitioned_extract_all_tasks(small_corpus_dir, out, n_parts=n_parts)
    assert sorted(m2[~m2["resumed"]]["part_id"]) == dropped
    assert sorted(m2[m2["resumed"]]["part_id"]) == written[1::2]
    assert dict(zip(m1["part_id"], m1["content_hash"])) == dict(zip(m2["part_id"], m2["content_hash"]))

    # one pending partition: a single group, one exchange object per shard
    os.remove(os.path.join(out, "_lineage", f"part-{dropped[0]}.json"))
    m3 = lineage.partitioned_extract_all_tasks(small_corpus_dir, out, n_parts=n_parts)
    assert list(m3[~m3["resumed"]]["part_id"]) == [dropped[0]]

    serial = str(tmp_path / "serial")
    os.makedirs(os.path.join(serial, "_lineage"))
    slices = lineage._shard_map(lineage._list_parquet(small_corpus_dir), n_parts, frozenset())
    for p in range(n_parts):
        lineage._fold_and_write(serial, p, slices[p])
    assert _sidecar_hashes(out) == _sidecar_hashes(serial)
