"""Corpus-level utility operators over transcript datasets.

Covers the remaining small reference operators (SURVEY.md §2):

- ``union_corpora`` — catalogue + supplement union
  (``roman-census/household.py:399-404``, D1)
- ``turn_range`` — static page-window limits
  (``mobil-oil/mobil-oil-extractor.py:147``, M39) as predicate pushdown
- ``normalize_whitespace`` — table-wide ``\\t\\n\\r`` → space cleanup
  (``isobic/isobic_pdf_to_csv.py:70-71``, M43) vectorized over all string
  columns
- ``merge_single_file`` — the ISOBIC chunk-spill merge
  (``isobic/isobic_pdf_to_csv.py:79-85``, S5): in Ray Data the blocks ARE
  the chunks, so "merge" is just ``repartition(1)`` before the write —
  only for small reference-compatible exports
- ``form_fields`` — PDF form-widget reader (``playground/pdf.py:3-30``,
  S11/J6): widget payloads → (name, value, type label) rows via a tiny
  broadcast code→label map
"""

from __future__ import annotations

import json

import pyarrow as pa
import pyarrow.compute as pc

FIELD_TYPE_LABELS = {
    0: "Text Field",
    1: "Check Box",
    2: "Radio Button",
    3: "List Box",
    4: "Drop-down List",
    5: "Button",
    7: "Text Area",
}


def union_corpora(ds1, ds2):
    """Two corpora, one Dataset (block-level concat; no shuffle)."""
    return ds1.union(ds2)


def turn_range(ds, lo: int | None = None, hi: int | None = None):
    """Keep turns with lo <= turn_idx <= hi (vectorized mask)."""

    def mask(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch["turn_idx"], batch["turn_idx"])  # all-true
        if lo is not None:
            keep = pc.and_(keep, pc.greater_equal(batch["turn_idx"], lo))
        if hi is not None:
            keep = pc.and_(keep, pc.less_equal(batch["turn_idx"], hi))
        return batch.filter(keep)

    return ds.map_batches(mask, batch_format="pyarrow", zero_copy_batch=True)


def normalize_whitespace(ds, columns: list[str] | None = None):
    r"""Replace runs of ``\t\n\r`` (and escaped variants) with one space in
    every (or the given) string column."""

    def clean(batch: pa.Table) -> pa.Table:
        for i, field in enumerate(batch.schema):
            if columns is not None and field.name not in columns:
                continue
            if pa.types.is_string(field.type):
                col = pc.replace_substring_regex(batch[field.name], r"[\t\n\r]|\\t|\\n|\\r", " ")
                batch = batch.set_column(i, field.name, col)
        return batch

    return ds.map_batches(clean, batch_format="pyarrow", zero_copy_batch=True)


def merge_single_file(ds, out_dir: str) -> str:
    """Single-file export (the reference's chunk merge). Only for small
    reference-compatible outputs — never the primary sink at scale."""
    ds.repartition(1).write_parquet(out_dir)
    return out_dir


def form_fields(ds):
    """Widget JSON payloads → (conv_id, turn_idx, field_name, field_value,
    field_type) rows; unknown codes → 'Unknown Type' (playground/pdf.py:17-25)."""

    def explode(batch: pa.Table) -> pa.Table:
        conv_ids, idxs, names, values, types = [], [], [], [], []
        for conv_id, tidx, text in zip(
            batch["conv_id"].to_pylist(), batch["turn_idx"].to_pylist(), batch["text"].to_pylist()
        ):
            try:
                payload = json.loads(text)
            except (json.JSONDecodeError, TypeError):
                continue
            for w in payload.get("widgets", []):
                conv_ids.append(conv_id)
                idxs.append(tidx)
                names.append(str(w.get("name")))
                values.append(str(w.get("value")))
                types.append(FIELD_TYPE_LABELS.get(w.get("type"), "Unknown Type"))
        return pa.table(
            {
                "conv_id": pa.array(conv_ids, pa.string()),
                "turn_idx": pa.array(idxs, pa.int32()),
                "field_name": pa.array(names, pa.string()),
                "field_value": pa.array(values, pa.string()),
                "field_type": pa.array(types, pa.string()),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")
