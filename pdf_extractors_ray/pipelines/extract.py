"""End-to-end extraction pipelines, one Ray Data pipeline per family.

Shape (SURVEY.md §7.1): pruned Parquet read → vectorized per-turn stages →
conv_id co-location (``stages.fold.fold_conv_ranges``: the read's blocks
range-partitioned by conv_id on ``key_exchange``, one fold task per
range, handed the range as one Arrow table) → ordered per-conversation
fold inside each range (``stages.fold.fold_group_table``: the shared
``conv_runs`` slicer, then the family's fold per conversation) →
(census only) embarrassingly-parallel downstream stages over household
rows. Output rows come out in conv_id order.

Scale notes:
- the read prunes both columns and rows: it reads (conv_id, turn_idx,
  text) and filters ``tool == family`` by row-group predicate pushdown,
  so each family pipeline moves only its own turns, without the constant
  ``tool`` column;
- nothing downstream of the fold shuffles again (persons/summary are
  per-row maps);
- per-turn stages run as elastic tasks; their compiled regex banks are
  module state, compiled once per worker process.

The all-family checkpointed extract (``state/lineage``) writes the same
rows from one read and one exchange, through the same slicer.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..oracle import catalog as _catalog
from ..oracle import census as _census
from ..oracle import grid as _grid
from ..oracle import invoice as _invoice
from ..oracle import layout as _layout
from ..oracle import persons as _persons
from ..oracle import table as _table
from ..stages.fold import (
    fold_conv_ranges, fold_conversations, fold_group_table, ordered_column, rows_to_table,
)
from ..stages.invoice_extract import FIELD_PREFIX, InvoiceFieldExtractor
from . import schemas

TURN_COLUMNS = ["conv_id", "turn_idx", "text"]


def family_dataset(path: str, family: str):
    """Column- and row-pruned read of one family's turns (byte-derived
    block count; small floor — regex-heavy per-turn kernels downstream).
    ``tool`` filters the rows but is not read: it would be one constant
    string column through the exchange."""
    from ..runtime import read_parquet_sized

    return read_parquet_sized(
        path, columns=TURN_COLUMNS, floor_bytes=512 << 10,
        filter=(pc.field("tool") == family),
    )


# ---------------------------------------------------------------------------
# simple fold families: read → conv_id co-location → ordered fold


def extract_catalog(path: str):
    return fold_conversations(
        family_dataset(path, "catalog"), _catalog.extract_catalog_conv, schemas.CATALOG_SCHEMA
    )


def extract_layout(path: str):
    return fold_conversations(
        family_dataset(path, "layout"), _layout.extract_layout_conv, schemas.LAYOUT_SCHEMA
    )


def extract_table(path: str):
    return fold_conversations(
        family_dataset(path, "table"), _table.extract_table_conv, schemas.TABLE_SCHEMA
    )


def extract_grid(path: str):
    return fold_conversations(
        family_dataset(path, "grid"), _grid.extract_grid_conv, schemas.GRID_SCHEMA
    )


def extract_layout_detected(path: str):
    """FFIEC layout with OUR OWN table-region detector (S8): header cells
    recovered from the raw word boxes, no pre-detected 'header' payload."""
    from ..oracle import regions as _regions

    return fold_conversations(
        family_dataset(path, "layout_boxes"),
        _regions.extract_layout_detected_conv,
        schemas.LAYOUT_DETECTED_SCHEMA,
    )


def extract_table_detected(path: str):
    """KNR detected-table fold with OUR OWN header detection (S8): column
    names + x boundaries from the topmost band of page 0; per-page header
    bands data-skipped; merged-total fix-up preserved."""
    from ..oracle import regions as _regions

    return fold_conversations(
        family_dataset(path, "table_boxes"),
        _regions.extract_table_detected_conv,
        schemas.TABLE_SCHEMA,
    )


def extract_grid_detected(path: str):
    """Mancini grid synthesized from raw boxes (M40: PRICE-anchored
    explicit line grid) + the reference's post-processing bank (M42)."""
    from ..oracle import regions as _regions

    return fold_conversations(
        family_dataset(path, "grid_boxes"),
        _regions.extract_grid_detected_conv,
        schemas.GRID_DETECTED_SCHEMA,
    )


def extract_grid_crops(path: str):
    """Mancini page-1 po-box / sold-to fixed-bbox crops (M41)."""
    from ..oracle import regions as _regions

    return fold_conversations(
        family_dataset(path, "grid_boxes"),
        _regions.extract_grid_crops_conv,
        schemas.GRID_CROPS_SCHEMA,
    )


# ---------------------------------------------------------------------------
# invoice: vectorized RE2 bank → light header/LOCF fold


def _field_payloads(group: pa.Table, order) -> list[dict]:
    """Each turn's non-null bank fields, in ``order``: its fold payload."""
    names = list(_invoice.PATTERNS)
    cols = [ordered_column(group, FIELD_PREFIX + name, order) for name in names]
    return [{n: v for n, v in zip(names, vals) if v is not None} for vals in zip(*cols)]


def _fold_invoice_partition(group: pa.Table) -> pa.Table:
    """Key-range fold over pre-extracted field columns (no regex work here):
    each turn's non-null fields are its payload for the header/LOCF fold."""
    return fold_group_table(
        group, _invoice.rows_from_extracted, schemas.INVOICE_SCHEMA, _field_payloads
    )


def invoice_field_dataset(path: str):
    """The invoice turns with their RE2 bank fields. Elastic tasks, not an
    actor pool: the extractor's only state is the module-level pattern
    bank, so a pool buys nothing and pays its spawn cost per query (and a
    fixed cap starves a wider cluster)."""
    return family_dataset(path, "invoice").map_batches(
        InvoiceFieldExtractor(), batch_format="pyarrow", zero_copy_batch=True, batch_size=4096
    )


def extract_invoice(path: str):
    return fold_conv_ranges(invoice_field_dataset(path), _fold_invoice_partition)


# ---------------------------------------------------------------------------
# census: stage A fold → households; summary + persons are per-row maps


def extract_census_households(path: str):
    return fold_conversations(
        family_dataset(path, "census"), _census.extract_census_conv, schemas.HOUSEHOLD_SCHEMA
    )


class CensusSummarizer:
    """Per-household summary projection (prepare_first_csv semantics)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for h in batch.to_pylist():
            row = _census.summarize_household(h)
            row["conv_id"] = h["conv_id"]
            rows.append(row)
        return rows_to_table(rows, schemas.CENSUS_SUMMARY_SCHEMA)


class PersonsExtractor:
    """Stage-B kinship resolution, one household at a time.

    Households are independent (within-group joins only, SURVEY.md §2.4),
    so this is a plain per-block map — NO shuffle. The compiled regex bank
    lives in module state, loaded once per worker process.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for h in batch.to_pylist():
            for p in _persons.extract_persons_for_household(h):
                p["conv_id"] = h["conv_id"]
                rows.append(p)
        return rows_to_table(rows, schemas.PERSONS_SCHEMA)


def _map_block(fn, block: pa.Table) -> pa.Table:
    return fn(block)


def _map_households(households, fn):
    """``fn`` once per household block, one Ray task each → Dataset of the
    outputs in block order, so rows keep the fold's conv_id order. The
    fold always yields at least one (possibly empty) typed block."""
    import ray.data

    from ..runtime import remote_fn

    task = remote_fn(_map_block)
    return ray.data.from_arrow_refs([task.remote(fn, ref) for ref in households.to_arrow_refs()])


def extract_census_summary(path: str, households=None):
    """Stateless tasks (not a fixed actor pool): the stage holds no loaded
    state — workers reuse module imports — and a fixed pool size would cap
    scaling below the cluster width."""
    ds = households if households is not None else extract_census_households(path)
    return _map_households(ds, CensusSummarizer())


def extract_census_persons(path: str, households=None):
    """Stateless tasks; the compiled regex bank is module state, compiled
    once per worker process (not per block)."""
    ds = households if households is not None else extract_census_households(path)
    return _map_households(ds, PersonsExtractor())


# ---------------------------------------------------------------------------

EXTRACTORS = {
    "catalog": extract_catalog,
    "invoice": extract_invoice,
    "layout": extract_layout,
    "table": extract_table,
    "grid": extract_grid,
    "census_households": extract_census_households,
    "census_summary": extract_census_summary,
    "census_persons": extract_census_persons,
    # detector paths over the raw-box corpus (S8/M40/M41)
    "layout_detected": extract_layout_detected,
    "table_detected": extract_table_detected,
    "grid_detected": extract_grid_detected,
    "grid_crops": extract_grid_crops,
}

