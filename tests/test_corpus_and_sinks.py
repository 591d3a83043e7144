"""Corpus utility operators and reference-compatible sinks."""

import json
import os

import pandas as pd

from pdf_extractors_ray.ops import corpus
from pdf_extractors_ray.pipelines import extract
from pdf_extractors_ray.sources import sinks


def test_union_and_turn_range(ray_session, small_corpus_dir):
    ds = extract.family_dataset(small_corpus_dir, "catalog")
    n = ds.count()
    both = corpus.union_corpora(ds, extract.family_dataset(small_corpus_dir, "catalog"))
    assert both.count() == 2 * n
    limited = corpus.turn_range(ds, lo=2, hi=5)
    df = limited.to_pandas()
    assert df["turn_idx"].between(2, 5).all()


def test_normalize_whitespace(ray_session):
    import ray.data as rd

    ds = rd.from_items([{"text": "a\tb\nc\rd", "n": 1}, {"text": r"x\ty", "n": 2}])
    out = corpus.normalize_whitespace(ds).to_pandas().sort_values("n")
    assert list(out["text"]) == ["a b c d", "x y"]


def test_form_fields(ray_session):
    import ray.data as rd

    payload = json.dumps({"widgets": [
        {"name": "q1", "value": "yes", "type": 1},
        {"name": "q2", "value": "Vienna", "type": 0},
        {"name": "q3", "value": "?", "type": 9},
    ]})
    ds = rd.from_items([{"conv_id": "c1", "turn_idx": 0, "text": payload}])
    out = corpus.form_fields(ds).to_pandas()
    assert list(out["field_type"]) == ["Check Box", "Text Field", "Unknown Type"]


def test_reference_csv_sink(ray_session, tmp_path):
    df = pd.DataFrame({"a": ["x", "y"], "oils": [["M1-1", "F2"], []]})
    p = sinks.write_reference_csv(df, str(tmp_path / "out.csv"), quote_all=True)
    text = open(p).read()
    assert "\"['M1-1', 'F2']\"" in text  # M38 stringified list
    assert '"a"' in text  # QUOTE_ALL

    p2 = sinks.write_report_with_banner(
        df, str(tmp_path / "report.csv"), "MANCINI C&C BEVERAGE ", ["PO BOX 1", "SOLD TO X"]
    )
    lines = open(p2).read().splitlines()
    assert lines[0].startswith("MANCINI")
    assert lines[1] == '"PO BOX 1"'


def test_merge_single_file(ray_session, small_corpus_dir, tmp_path):
    ds = extract.extract_grid(small_corpus_dir)
    out = corpus.merge_single_file(ds, str(tmp_path / "merged"))
    files = [f for f in os.listdir(out) if f.endswith(".parquet")]
    assert len(files) == 1

