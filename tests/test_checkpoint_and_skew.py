"""Checkpoint/resume (lineage sidecars) and salted-split skew tests
(SURVEY.md §5.2 items 5-6)."""

import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdf_extractors_ray.oracle import catalog as oc
from pdf_extractors_ray.oracle import runner
from pdf_extractors_ray.pipelines import extract, schemas
from pdf_extractors_ray.stages.salted import (
    _catalog_window, _stitch_catalog, extract_catalog_salted, extract_invoice_salted,
)
from pdf_extractors_ray.state import lineage

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


def test_layout_broadcast_late_header(ray_session, tmp_path):
    """A conversation whose header arrives after turn 0: the fold discovers
    it on the FIRST carrying turn, skips the turns before it, and bins every
    later turn against it."""
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
    fold = extract.extract_layout(_one_conv_corpus(tmp_path, "layout", turns)).to_pandas()
    assert fold["ref_turn"].tolist() == [2, 3]
    assert fold["County Code"].tolist() == ["22", "33"]


def _one_conv_corpus(tmp_path, tool: str, turns: list[str], turn_idx=None) -> str:
    """One conversation ``c1`` of ``tool`` turns as a Parquet corpus."""
    import pyarrow.parquet as pq

    tbl = pa.table(
        {
            "conv_id": pa.array(["c1"] * len(turns)),
            "turn_idx": pa.array(turn_idx or range(len(turns)), pa.int32()),
            "role": pa.array(["user"] * len(turns)),
            "text": pa.array(turns),
            "tool": pa.array([tool] * len(turns)),
            "ts": pa.array([0] * len(turns), pa.timestamp("us")),
        }
    )
    pq.write_table(tbl, str(tmp_path / "part-00000.parquet"))
    return str(tmp_path)


def _spans_windows(table, family: str, window: int) -> bool:
    """Some conversation of ``family`` has turns in more than one window."""
    tidx = table.filter(pc.equal(table["tool"], family))["turn_idx"]
    return pc.max(tidx).as_py() >= window


def test_salted_invoice_equals_plain(ray_session, small_corpus_dir, small_corpus_table):
    assert _spans_windows(small_corpus_table, "invoice", 16)
    plain = extract.extract_invoice(small_corpus_dir).to_pandas()
    salted = extract_invoice_salted(small_corpus_dir, window=16).to_pandas()
    assert len(salted) == len(plain) > 0
    pd.testing.assert_frame_equal(plain, salted, check_dtype=False)


def test_salted_catalog_equals_plain(ray_session, small_corpus_dir, small_corpus_table):
    assert _spans_windows(small_corpus_table, "catalog", 128)
    plain = extract.extract_catalog(small_corpus_dir).to_pandas()
    salted = extract_catalog_salted(small_corpus_dir, window=128).to_pandas()
    assert len(salted) == len(plain) > 0
    pd.testing.assert_frame_equal(plain, salted, check_dtype=False)


def test_salted_catalog_small_windows(ray_session, small_corpus_dir, small_corpus_table):
    """Tiny windows still match the plain fold: exercises windows with no
    firing pair and the boundary lookahead."""
    assert _spans_windows(small_corpus_table, "catalog", 7)
    plain = extract.extract_catalog(small_corpus_dir).to_pandas()
    salted = extract_catalog_salted(small_corpus_dir, window=7).to_pandas()
    pd.testing.assert_frame_equal(plain, salted, check_dtype=False)


def test_salted_catalog_oil_before_banner(ray_session, tmp_path):
    """An ``Oil`` line before the page banner is ignored like every other
    pre-banner line, so the ``Oil`` gate stays closed for the whole
    conversation and no later window may fire a manufacturer pair."""
    turns = ["Oil", oc.BANNER, "x", "y", "FORD", "2001", "MODEL X", "1.0L", "M1-110A", "z"]
    corpus = _one_conv_corpus(tmp_path, "catalog", turns)
    assert oc.extract_catalog_conv(turns, list(range(len(turns)))) == []
    plain = extract.extract_catalog(corpus).to_pandas()
    salted = extract_catalog_salted(corpus, window=4).to_pandas()
    assert len(plain) == len(salted) == 0


def test_salted_catalog_turn_idx_gap(ray_session, tmp_path):
    """A missing turn at a window boundary: the line after window 0 is the
    next turn that exists, so the manufacturer pair still fires."""
    turns = [oc.BANNER, "Oil", "x", "FORD", "2001", "MODEL X", "1.0L", "M1-110A"]
    corpus = _one_conv_corpus(tmp_path, "catalog", turns, [0, 1, 2, 3, 5, 6, 7, 8])
    plain = extract.extract_catalog(corpus).to_pandas()
    salted = extract_catalog_salted(corpus, window=4).to_pandas()
    assert plain["manufacturer"].tolist() == ["FORD"]
    pd.testing.assert_frame_equal(plain, salted, check_dtype=False)


def test_salted_variants_run_without_ray_data_barriers(ray_session, small_corpus_dir, monkeypatch):
    """Both salted variants complete with Ray Data's groupby, aggregate,
    sort and repartition disabled: the window fold and the stitch run on
    the key exchange's Ray tasks; only the family read is Ray Data."""
    import ray.data

    def barrier(*_a, **_k):
        raise AssertionError("Ray Data barrier in a salted variant")

    for name in ("groupby", "aggregate", "sort", "repartition"):
        monkeypatch.setattr(ray.data.Dataset, name, barrier)
    assert len(extract_invoice_salted(small_corpus_dir, window=16).to_pandas())
    assert len(extract_catalog_salted(small_corpus_dir, window=7).to_pandas())


# line groups that trigger the machine's rules, gate lines included; a
# whole record makes rows likely
_RECORD = ["FORD", "2001", "MODEL X", "1.0L", "M1-110A"]
_CATALOG_CHUNKS = [
    [oc.BANNER], ["Oil"], ["FORD", "2001"], ["SAAB", "2019\xa0(cont'd)"], ["FORD"], ["2003"],
    ["MODEL X"], ["9-3 2.0t"], ["1.0L"], ["2.4L V6"], ["(Electric/Gas)"], ["M1-110A"],
    ["F12345 M1C-220B"], ["MANUFACTURER-MODEL-ENGINE"], ["junk"], [""], ["FORD\xa0(cont'd)"],
    _RECORD,
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_CATALOG_CHUNKS), max_size=16), st.integers(1, 6))
# an Oil line before the banner opens no gate
@example([["Oil"], [oc.BANNER], _RECORD], 1)
# an "(Electric/Gas)" line after a model but no engine; the conversation
# never opens the Oil gate
@example([[oc.BANNER], ["SAAB", "2019\xa0(cont'd)"], ["2.4L V6"], ["(Electric/Gas)"]], 5)
# a tail's last line fires only because the next window starts with a year
@example([[oc.BANNER, "Oil"], _RECORD, ["SAAB"], ["2003"], _RECORD[2:]], 8)
# a head's last line sees the split line next, not the window's lookahead
@example([[oc.BANNER, "Oil"], _RECORD, ["FORD\xa0(cont'd)", "SAAB"], _RECORD[1:], ["junk", "2003"]],
         7)
def test_catalog_windows_stitch_to_the_fold(chunks, window):
    """Every window decomposed on its own, then stitched in order, equals
    the whole-conversation machine, whatever gates each window enters
    with."""
    lines = [line for chunk in chunks for line in chunk]
    idxs = list(range(len(lines)))

    payloads = [json.dumps(_catalog_window(lines[lo:lo + window], idxs[lo:lo + window]))
                for lo in range(0, len(lines), window)]
    assert _stitch_catalog(payloads, []) == oc.extract_catalog_conv(lines, idxs)


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
