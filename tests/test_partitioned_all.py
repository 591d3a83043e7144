"""Single-pass all-family partitioned extraction ≡ per-family pipelines."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from pdf_extractors_ray import runtime
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


def _sidecar_hashes(out_root):
    return {
        e["part_id"]: {f: v["content_hash"] for f, v in e["families"].items()}
        for e in lineage.read_lineage(out_root)
    }


def test_partitioned_tasks_resume_at_256_parts(ray_session, small_corpus_dir, tmp_path):
    """Resume at a realistic partition count: the range fold tasks recompute
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

    # one pending partition: a single range, one exchange object per shard
    os.remove(os.path.join(out, "_lineage", f"part-{dropped[0]}.json"))
    m3 = lineage.partitioned_extract_all_tasks(small_corpus_dir, out, n_parts=n_parts)
    assert list(m3[~m3["resumed"]]["part_id"]) == [dropped[0]]

    serial = str(tmp_path / "serial")
    os.makedirs(os.path.join(serial, "_lineage"))
    slices = lineage._shard_map(lineage._list_parquet(small_corpus_dir), n_parts, frozenset())
    for p in range(n_parts):
        lineage._fold_and_write(serial, p, slices[p])
    assert _sidecar_hashes(out) == _sidecar_hashes(serial)


def _tied_corpus(base: pa.Table, path, n_files: int = 34) -> str:
    """``n_files`` files; turn 1 of a grid conversation appears twice, as
    the same (conv_id, turn_idx), in files 1 and 16, the second copy with
    turn 2's text. An exchange over interleaved file groups (``files[i::n]``)
    would meet the two rows in file order at 32 groups and the other way
    round at 16."""
    conv = np.asarray(base["conv_id"].to_pylist(), dtype=object)
    tidx = base["turn_idx"].to_numpy()
    gconv = base.filter(pc.equal(base["tool"], "grid"))["conv_id"][0].as_py()
    i1, i2 = (int(np.flatnonzero((conv == gconv) & (tidx == t))[0]) for t in (1, 2))
    row = base.slice(i1, 1)
    tied = row.set_column(row.schema.get_field_index("text"), "text", base["text"].slice(i2, 1))
    rest = base.filter(pa.array(np.arange(base.num_rows) != i1))
    cuts = np.linspace(0, rest.num_rows, n_files + 1).astype(int)
    os.makedirs(path)
    for f in range(n_files):
        tbl = rest.slice(cuts[f], cuts[f + 1] - cuts[f])
        extra = {1: row, 16: tied}.get(f)
        pq.write_table(tbl if extra is None else pa.concat_tables([tbl, extra]),
                       os.path.join(path, f"part-{f:02d}.parquet"))
    return str(path)


def _tree_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for d, _dirs, files in os.walk(root):
        for f in files:
            with open(os.path.join(d, f), "rb") as fh:
                out[os.path.relpath(os.path.join(d, f), root)] = fh.read()
    return out


def test_outputs_do_not_depend_on_cluster_width(ray_session, small_corpus_table, tmp_path,
                                               monkeypatch):
    """Every partition file and sidecar is byte-identical at 1, 2, 16 and
    32 cluster CPUs, also where one (conv_id, turn_idx) has two rows in
    two files: a partition's rows reach its fold in file order at any
    shard count."""
    corpus = _tied_corpus(small_corpus_table, tmp_path / "tied")
    trees = []
    for cpus in (1, 2, 16, 32):
        monkeypatch.setattr(runtime, "_cluster_cpus", lambda *a, cpus=cpus, **k: cpus)
        out = str(tmp_path / f"out-{cpus}")
        lineage.partitioned_extract_all_tasks(corpus, out, n_parts=16)
        trees.append(_tree_bytes(out))
    assert any(k.startswith("grid/") for k in trees[0])
    for tree in trees[1:]:
        assert tree.keys() == trees[0].keys()
        assert [k for k in tree if tree[k] != trees[0][k]] == []
