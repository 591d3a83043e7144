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


def test_layout_broadcast_late_header(ray_session, tmp_path):
    """A conversation whose header arrives after turn 0: the fold discovers
    it on the FIRST carrying turn, skips the turns before it, and bins every
    later turn against it."""
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
    assert fold["ref_turn"].tolist() == [2, 3]
    assert fold["County Code"].tolist() == ["22", "33"]


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


def test_cogroup_join_carries_large_ints_exactly(ray_session):
    """Carried int64 values past float64's exact range (2^60+1) come back
    exact from every join mode, on either side: each bucket is split by
    side before it becomes pandas, so no column holds the other side's
    null filler. Inner, semi and anti joins keep carried ints int64, and
    so do a left join's left-side columns. A left or full join's columns
    stay int64 where every row matched (the all-match case below)."""
    import numpy as np
    import ray.data as rd

    from pdf_extractors_ray.ops.common import cogroup_join

    big = (1 << 60) + 1

    def join(lk, rk, how):
        lk, rk = np.array(lk, np.int64), np.array(rk, np.int64)
        left = rd.from_pandas(pd.DataFrame({"k": lk, "v": big + lk}))
        right = rd.from_pandas(pd.DataFrame({"k": rk, "w": big + 10 * rk}))
        rcols = [] if how in ("semi", "anti") else ["w"]
        out = cogroup_join(left, right, "k", "k", ["k", "v"], rcols, how=how).to_pandas()
        return out.sort_values("k").reset_index(drop=True)

    # key 1 only on the left, key 2 only on the right, key 3 on both
    inner = join([1, 3], [2, 3], "inner")
    assert inner.dtypes.to_dict() == {"k": np.int64, "v": np.int64, "w": np.int64}
    assert inner.values.tolist() == [[3, big + 3, big + 30]]
    for how, keys in (("semi", [3]), ("anti", [1])):
        got = join([1, 3], [2, 3], how)
        assert got.dtypes.to_dict() == {"k": np.int64, "v": np.int64}, how
        assert got.values.tolist() == [[k, big + k] for k in keys], how
    left = join([1, 3], [2, 3], "left")
    assert left["k"].dtype == np.int64 and left["v"].dtype == np.int64
    assert left[["k", "v"]].values.tolist() == [[1, big + 1], [3, big + 3]]
    # every key on both sides: no row lacks a match, every column is exact
    for how in ("left", "full"):
        got = join([1, 2], [1, 2], how)
        assert got.dtypes.to_dict() == {"k": np.int64, "v": np.int64, "w": np.int64}, how
        assert got.values.tolist() == [[k, big + k, big + 10 * k] for k in (1, 2)], how
    # big values as KEYS are exact too
    lk = rd.from_pandas(pd.DataFrame({"k": np.array([big, big + 2], np.int64),
                                      "v": np.array([1, 2], np.int64)}))
    rk = rd.from_pandas(pd.DataFrame({"k": np.array([big, big + 2], np.int64),
                                      "w": np.array([3, 4], np.int64)}))
    out = cogroup_join(lk, rk, "k", "k", ["v"], ["w"]).to_pandas()
    assert sorted(zip(out["v"], out["w"])) == [(1, 3), (2, 4)]
