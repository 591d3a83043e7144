"""Single-threaded oracle runner: transcript table → golden outputs.

This is the reference-equivalent, non-distributed execution path: order all
turns by ``(conv_id, turn_idx)``, fold each conversation with the family's
oracle, and emit plain pandas DataFrames. The distributed Ray pipelines in
``pipelines/extract.py`` must produce per-turn-identical results
(SURVEY.md §5.2 — the engine-vs-oracle equality gate).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from . import catalog, census, grid, invoice, layout, persons, regions, table

# family tag → (fold fn, stable output column list or None for dynamic)
CONV_FOLDS = {
    "catalog": catalog.extract_catalog_conv,
    "invoice": invoice.extract_invoice_conv,
    "layout": layout.extract_layout_conv,
    "table": table.extract_table_conv,
    "grid": grid.extract_grid_conv,
}


def _ordered_convs(tbl: pa.Table, family: str):
    df = tbl.to_pandas()
    df = df[df["tool"] == family].sort_values(["conv_id", "turn_idx"], kind="mergesort")
    for conv_id, g in df.groupby("conv_id", sort=True):
        yield conv_id, list(g["text"]), list(g["turn_idx"])


def run_family(tbl: pa.Table, family: str) -> pd.DataFrame:
    """Golden output for one simple fold family over the whole table."""
    fold = CONV_FOLDS[family]
    rows = []
    for conv_id, texts, idxs in _ordered_convs(tbl, family):
        for row in fold(texts, idxs):
            rows.append({"conv_id": conv_id, **row})
    return pd.DataFrame(rows)


# detector-path folds over the raw-box corpus: name → (tool tag, fold)
BOX_FOLDS = {
    "layout_detected": ("layout_boxes", regions.extract_layout_detected_conv),
    "table_detected": ("table_boxes", regions.extract_table_detected_conv),
    "grid_detected": ("grid_boxes", regions.extract_grid_detected_conv),
    "grid_crops": ("grid_boxes", regions.extract_grid_crops_conv),
}


def run_box_family(tbl: pa.Table, name: str) -> pd.DataFrame:
    """Golden output for one detector-path family (raw-box corpus)."""
    tool, fold = BOX_FOLDS[name]
    rows = []
    for conv_id, texts, idxs in _ordered_convs(tbl, tool):
        for row in fold(texts, idxs):
            rows.append({"conv_id": conv_id, **row})
    return pd.DataFrame(rows)


def run_census(tbl: pa.Table) -> tuple[pd.DataFrame, pd.DataFrame, pd.DataFrame]:
    """Census stage A + summary + stage B (households, summary, persons)."""
    households_rows, summary_rows, person_rows = [], [], []
    for conv_id, texts, idxs in _ordered_convs(tbl, "census"):
        households = census.extract_census_conv(texts, idxs)
        for h in households:
            households_rows.append({"conv_id": conv_id, **h})
            summary_rows.append({"conv_id": conv_id, **census.summarize_household(h)})
            for p in persons.extract_persons_for_household(h):
                person_rows.append({"conv_id": conv_id, **p})
    return pd.DataFrame(households_rows), pd.DataFrame(summary_rows), pd.DataFrame(person_rows)
