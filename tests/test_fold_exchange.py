"""Per-family pipelines and surrogate fold kernels on the ordered key
exchange (``stages.fold.fold_conv_ranges`` over ``key_exchange``).

Every family pipeline and every fold kernel co-locates conversations by
conv_id range on Ray tasks, with no Ray Data groupby; a pipeline's rows
come out in conv_id order, the same on every run; and a corpus with no
turns of a family gives zero rows that still carry the family's schema.
"""

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from pdf_extractors_ray.ops import surrogate
from pdf_extractors_ray.pipelines import extract, schemas
from pdf_extractors_ray.sources.transcripts import synthesize_box_transcripts

SF = "/root/testdata/sf0.001"
BOX_FAMILIES = {"layout_detected", "table_detected", "grid_detected", "grid_crops"}
FAMILY_SCHEMA = {
    "catalog": schemas.CATALOG_SCHEMA,
    "invoice": schemas.INVOICE_SCHEMA,
    "layout": schemas.LAYOUT_SCHEMA,
    "table": schemas.TABLE_SCHEMA,
    "grid": schemas.GRID_SCHEMA,
    "census_households": schemas.HOUSEHOLD_SCHEMA,
    "census_summary": schemas.CENSUS_SUMMARY_SCHEMA,
    "census_persons": schemas.PERSONS_SCHEMA,
    "layout_detected": schemas.LAYOUT_DETECTED_SCHEMA,
    "table_detected": schemas.TABLE_SCHEMA,
    "grid_detected": schemas.GRID_DETECTED_SCHEMA,
    "grid_crops": schemas.GRID_CROPS_SCHEMA,
}
FOLD_KERNELS = [
    "invoice_fold", "layout_fold", "catalog_fold", "census_fold", "table_fold", "grid_fold",
    "layout_detect", "table_detect", "grid_detect", "grid_crops", "persons_fold",
]


@pytest.fixture(scope="module")
def box_corpus_dir(tmp_path_factory):
    return synthesize_box_transcripts(str(tmp_path_factory.mktemp("boxes")), n_convs=12)


def _corpus(family, small_corpus_dir, box_corpus_dir):
    return box_corpus_dir if family in BOX_FAMILIES else small_corpus_dir


def test_every_family_has_a_schema():
    assert set(FAMILY_SCHEMA) == set(extract.EXTRACTORS)


@pytest.fixture
def no_groupby(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("Ray Data groupby on a conversation fold path")

    monkeypatch.setattr(ray.data.Dataset, "groupby", refuse)


@pytest.mark.parametrize("family", sorted(FAMILY_SCHEMA))
def test_family_pipeline_runs_without_groupby(ray_session, small_corpus_dir, box_corpus_dir,
                                              no_groupby, family):
    out = extract.EXTRACTORS[family](_corpus(family, small_corpus_dir, box_corpus_dir))
    assert out.count() > 0


@pytest.mark.skipif(not os.path.isdir(SF), reason="testdata not present")
@pytest.mark.parametrize("kernel", FOLD_KERNELS)
def test_fold_kernel_runs_without_groupby(ray_session, no_groupby, kernel):
    assert getattr(surrogate, "extract_kernel_" + kernel)(SF).count() > 0


@pytest.mark.parametrize("family", ["catalog", "invoice", "layout", "census_households", "grid_detected"])
def test_family_rows_come_out_in_conv_id_order(ray_session, small_corpus_dir, box_corpus_dir, family):
    path = _corpus(family, small_corpus_dir, box_corpus_dir)
    first = extract.EXTRACTORS[family](path).to_pandas()
    second = extract.EXTRACTORS[family](path).to_pandas()
    pd.testing.assert_frame_equal(first, second, check_exact=True)
    conv = first["conv_id"].tolist()
    assert len(set(conv)) > 1
    assert conv == sorted(conv)


@pytest.mark.skipif(not os.path.isdir(SF), reason="testdata not present")
@pytest.mark.parametrize("family", ["census_summary", "census_persons"])
def test_census_rows_come_out_in_conv_id_order(ray_session, family):
    """The per-household maps keep the fold's block order: two runs give
    the same rows in the same order, sorted by conv_id."""
    from pdf_extractors_ray.sources.transcripts import transcripts_path_for_sf

    path = transcripts_path_for_sf(SF)
    first = extract.EXTRACTORS[family](path).to_pandas()
    second = extract.EXTRACTORS[family](path).to_pandas()
    pd.testing.assert_frame_equal(first, second, check_exact=True)
    conv = first["conv_id"].tolist()
    assert len(set(conv)) > 1
    assert conv == sorted(conv)


@pytest.fixture(scope="module")
def no_family_corpus(small_corpus_dir, tmp_path_factory):
    """The small corpus with every turn's tool renamed, so no family
    pipeline's filtered read matches a row; several files, so the read
    yields several empty blocks."""
    out = tmp_path_factory.mktemp("no_family")
    files = sorted(glob.glob(os.path.join(small_corpus_dir, "*.parquet")))
    tbl = pa.concat_tables(pq.read_table(f) for f in files)
    tbl = tbl.set_column(tbl.schema.get_field_index("tool"), "tool",
                         pa.array(np.full(tbl.num_rows, "none"), pa.string()))
    cuts = np.linspace(0, tbl.num_rows, 5).astype(int)
    for i in range(4):
        pq.write_table(tbl.slice(cuts[i], cuts[i + 1] - cuts[i]), str(out / f"part-{i}.parquet"))
    return str(out)


@pytest.mark.parametrize("family", sorted(FAMILY_SCHEMA))
def test_family_without_turns_is_empty_and_typed(ray_session, no_family_corpus, family):
    out = extract.EXTRACTORS[family](no_family_corpus)
    assert out.count() == 0
    assert out.schema().names == FAMILY_SCHEMA[family].names


def test_key_exchange_takes_empty_and_no_shards(ray_session):
    from pdf_extractors_ray.stages.fold import key_exchange

    def frame(df):
        return pd.DataFrame({"n": [len(df)]})

    def total(refs):
        return sum(t["n"][0].as_py() for t in ray.get(refs))

    rows = pa.table({"k": ["b", "a", "c"], "v": [1, 2, 3]})
    assert total(key_exchange([pa.table({}), rows, pa.table({})], "k", frame)) == 3
    assert total(key_exchange([pa.table({}), pa.table({})], "k", frame)) == 0
    assert total(key_exchange([], "k", frame)) == 0
