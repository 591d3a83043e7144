"""Checkpoint/resume (lineage sidecars) and salted-split skew tests
(SURVEY.md §5.2 items 5-6)."""

import os

import pandas as pd

from pdf_extractors_ray.oracle import runner
from pdf_extractors_ray.pipelines import extract, schemas
from pdf_extractors_ray.state import lineage
from pdf_extractors_ray.stages.salted import extract_invoice_salted, hot_conversations

from helpers import canonical, oracle_table


def test_partitioned_extract_and_resume(ray_session, small_corpus_dir, small_corpus_table, tmp_path):
    out_root = str(tmp_path / "extract_out")
    out_dir = os.path.join(out_root, "catalog")
    n_parts = 8

    def catalog_hashes():  # partitions without a catalog conversation write no catalog file
        return {e["part_id"]: e["families"]["catalog"]["content_hash"]
                for e in lineage.read_lineage(out_root) if "catalog" in e["families"]}

    # first run: complete
    m1 = lineage.partitioned_extract_all_tasks(small_corpus_dir, out_root, n_parts=n_parts)
    assert not m1["resumed"].any()
    files = sorted(
        os.path.join(fam, f)
        for fam in os.listdir(out_root) if fam != "_lineage"
        for f in os.listdir(os.path.join(out_root, fam)) if f.endswith(".parquet")
    )
    assert any(f.startswith("catalog") for f in files), "no catalog partition files written"
    mtimes = {f: os.path.getmtime(os.path.join(out_root, f)) for f in files}
    hashes1 = dict(zip(m1["part_id"], m1["content_hash"]))
    catalog1 = catalog_hashes()

    # output equals the oracle
    got = lineage.read_output(out_dir).to_pandas()
    golden = runner.run_family(small_corpus_table, "catalog")
    pd.testing.assert_frame_equal(
        canonical(oracle_table(golden, schemas.CATALOG_SCHEMA)), canonical(got), check_dtype=False
    )

    # simulate a partial failure: delete some outputs + sidecars
    victims = [p for p in catalog1 if p % 3 == 0]
    assert victims
    for p in victims:
        os.remove(os.path.join(out_dir, f"part-{p:05d}.parquet"))
        os.remove(os.path.join(out_root, "_lineage", f"part-{p}.json"))

    # resume: only the victims are recomputed, survivors untouched
    m2 = lineage.partitioned_extract_all_tasks(small_corpus_dir, out_root, n_parts=n_parts)
    redone = set(m2[~m2["resumed"]]["part_id"])
    assert redone == set(victims)
    for p in victims:
        assert os.path.exists(os.path.join(out_dir, f"part-{p:05d}.parquet"))
        assert os.path.exists(os.path.join(out_root, "_lineage", f"part-{p}.json"))
    for f, old_mtime in mtimes.items():  # every family's file of a survivor
        part = int(os.path.basename(f)[len("part-") : -len(".parquet")])
        if part not in victims:
            assert os.path.getmtime(os.path.join(out_root, f)) == old_mtime

    # identical content after resume (deterministic recompute)
    hashes2 = dict(zip(m2["part_id"], m2["content_hash"]))
    assert hashes1 == hashes2
    assert catalog1 == catalog_hashes()
    got2 = lineage.read_output(out_dir).to_pandas()
    pd.testing.assert_frame_equal(canonical(got), canonical(got2), check_dtype=False)


def test_hot_conversation_detection(ray_session, small_corpus_dir):
    from pdf_extractors_ray.pipelines.extract import family_dataset
    from pdf_extractors_ray.sources.transcripts import is_hot_conv

    ds = family_dataset(small_corpus_dir, "invoice")
    hot = hot_conversations(ds, threshold=64)
    assert hot, "fixture should contain at least one hot invoice conv"
    assert all(is_hot_conv(c) for c in hot)


def test_layout_broadcast_equals_fold(ray_session, small_corpus_dir):
    fold = extract.extract_layout(small_corpus_dir).to_pandas()
    bcast = extract.extract_layout_broadcast(small_corpus_dir).to_pandas()
    assert len(bcast) == len(fold) > 0
    pd.testing.assert_frame_equal(canonical(fold), canonical(bcast), check_dtype=False)


def test_layout_broadcast_late_header(ray_session, tmp_path):
    """A conversation whose header arrives after turn 0 must yield the same
    rows from the broadcast path as from the fold (header discovered on the
    FIRST carrying turn, turns before it skipped)."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    header = [{"col": c, "x": 20.0 + 50.0 * i} for i, c in enumerate(["State Code", "County Code", "Tract Code"])]

    def boxes_payload(vals, with_header=False):
        boxes = [
            {"text": v, "x0": 21.0 + 50.0 * i, "y0": 100.0, "x1": 30.0, "y1": 108.0,
             "font": "Arial", "size": 8.0}
            for i, v in enumerate(vals)
        ]
        payload = {"boxes": boxes}
        if with_header:
            payload["header"] = header
        return json.dumps(payload, sort_keys=True)

    turns = [
        boxes_payload(["0", "0", "0"]),                 # before header → dropped
        boxes_payload(["1", "1", "1"]),                 # before header → dropped
        boxes_payload(["2", "22", "222"], with_header=True),
        boxes_payload(["3", "33", "333"]),
    ]
    tbl = pa.table(
        {
            "conv_id": pa.array(["c1"] * len(turns)),
            "turn_idx": pa.array(range(len(turns)), pa.int32()),
            "role": pa.array(["user"] * len(turns)),
            "text": pa.array(turns),
            "tool": pa.array(["layout"] * len(turns)),
            "ts": pa.array([0] * len(turns), pa.timestamp("us")),
        }
    )
    corpus = tmp_path / "late_header"
    corpus.mkdir()
    pq.write_table(tbl, str(corpus / "part-00000.parquet"))

    fold = extract.extract_layout(str(corpus)).to_pandas()
    bcast = extract.extract_layout_broadcast(str(corpus)).to_pandas()
    assert sorted(fold["ref_turn"]) == [2, 3]
    pd.testing.assert_frame_equal(canonical(fold), canonical(bcast), check_dtype=False)


def test_salted_invoice_equals_plain(ray_session, small_corpus_dir):
    plain = extract.extract_invoice(small_corpus_dir).to_pandas()
    salted = extract_invoice_salted(small_corpus_dir, hot_threshold=64, window=16).to_pandas()
    assert len(salted) == len(plain) > 0
    pd.testing.assert_frame_equal(canonical(plain), canonical(salted), check_dtype=False)


def test_salted_catalog_equals_plain(ray_session, small_corpus_dir):
    from pdf_extractors_ray.stages.salted_catalog import extract_catalog_salted

    plain = extract.extract_catalog(small_corpus_dir).to_pandas()
    salted = extract_catalog_salted(small_corpus_dir, hot_threshold=256, window=128).to_pandas()
    assert len(salted) == len(plain) > 0
    pd.testing.assert_frame_equal(canonical(plain), canonical(salted), check_dtype=False)


def test_salted_catalog_small_windows(ray_session, small_corpus_dir):
    """Aggressive salting (tiny windows) still matches the plain fold —
    exercises fallback windows (no firing pair) and boundary lookahead."""
    from pdf_extractors_ray.stages.salted_catalog import extract_catalog_salted

    plain = extract.extract_catalog(small_corpus_dir).to_pandas()
    salted = extract_catalog_salted(small_corpus_dir, hot_threshold=8, window=7).to_pandas()
    pd.testing.assert_frame_equal(canonical(plain), canonical(salted), check_dtype=False)


def test_cogroup_join_rejects_float64_inexact_carried_ints(ray_session):
    """The cogroup exchange's carried columns null-interleave into
    float64 (exact only to 2^53); values past that must raise loudly
    instead of silently rounding (the conv-clusters node-inflation bug
    class). Keys themselves are never null and stay int64-exact."""
    import numpy as np
    import pandas as pd
    import pytest
    import ray.data as rd

    from pdf_extractors_ray.ops.common import cogroup_join

    big = (1 << 60) + 1
    left = rd.from_pandas(pd.DataFrame({"k": np.array([1, 2], np.int64),
                                        "v": np.array([big, 5], np.int64)}))
    right = rd.from_pandas(pd.DataFrame({"k": np.array([1, 2], np.int64),
                                         "w": np.array([7, 8], np.int64)}))
    with pytest.raises(Exception, match="float64-exact"):
        cogroup_join(left, right, "k", "k", ["v"], ["w"]).materialize()
    # big values as KEYS are fine (keys never null-interleave)
    lk = rd.from_pandas(pd.DataFrame({"k": np.array([big, big + 2], np.int64),
                                      "v": np.array([1, 2], np.int64)}))
    rk = rd.from_pandas(pd.DataFrame({"k": np.array([big, big + 2], np.int64),
                                      "w": np.array([3, 4], np.int64)}))
    out = cogroup_join(lk, rk, "k", "k", ["v"], ["w"]).to_pandas()
    assert sorted(zip(out["v"], out["w"])) == [(1, 3), (2, 4)]
