"""End-to-end extraction pipelines, one Ray Data pipeline per family.

Shape (SURVEY.md §7.1): pruned Parquet read → vectorized per-turn stages →
``part_id`` co-location (``stages.fold.map_partitions``: one
``groupby(part_id)`` per family) → ordered per-conversation fold inside
each partition → (census only) embarrassingly-parallel downstream stages
over household rows.

Scale notes:
- the read prunes both columns and rows (``filter=pc.field("tool") == f`` —
  row-group predicate pushdown), so each family pipeline only moves its own
  turns;
- nothing downstream of the fold shuffles again (persons/summary are
  per-row maps);
- per-turn stages run as elastic tasks; their compiled regex banks are
  module state, compiled once per worker process.

The all-family checkpointed extract (``state/lineage``) writes the same
rows from one read and one exchange.
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
from ..stages.fold import fold_conversations, map_partitions, rows_to_table
from ..stages.invoice_extract import FIELD_PREFIX, InvoiceFieldExtractor
from . import schemas

TURN_COLUMNS = ["conv_id", "turn_idx", "text", "tool"]


def family_dataset(path: str, family: str):
    """Column- and row-pruned read of one family's turns (byte-derived
    block count; small floor — regex-heavy per-turn kernels downstream)."""
    from ..runtime import read_parquet_sized

    return read_parquet_sized(
        path, columns=TURN_COLUMNS, floor_bytes=512 << 10,
        filter=(pc.field("tool") == family),
    )


# ---------------------------------------------------------------------------
# simple fold families: read → part_id co-location → ordered fold


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


def extract_layout_broadcast(path: str, max_broadcast_headers: int = 1_000_000):
    """Shuffle-light layout path: distributed header prepass + broadcast map.

    The reference discovers header coordinates once on page 0 and stores
    them in a module global (``us-ffiec-demographic-Info/ffiec-census.py:6,
    61-77``, ST4). The scalable equivalent: a vectorized prepass finds each
    conversation's FIRST header-carrying turn (any turn index — matching
    ``extract_layout_conv``'s fold semantics, not a turn-0 assumption), the
    conv→(header_turn, boundaries) map is put in the object store ONCE, and
    binning becomes a stateless ``map_batches`` over all turns.

    Scale contract: unlike the reference's ONE global header, this map is
    O(n_convs). The collection is bounded by ``limit(max_broadcast_headers
    + 1)`` and raises past the guard — beyond that the grouped
    ``extract_layout`` fold is the scale path (only the header subset
    shuffles here, so the guard binds the *broadcast*, not the prepass).

    Produces exactly the same rows as ``extract_layout`` (tested, including
    a late-header conversation).
    """
    import json

    import pandas as pd
    import ray

    from ..oracle import layout as _layout_oracle

    ds = family_dataset(path, "layout")

    def header_candidates(batch: pa.Table) -> pa.Table:
        # cheap vectorized prefilter; JSON-verified below
        mask = pc.match_substring(batch["text"], '"header"')
        return batch.filter(mask).select(["conv_id", "turn_idx", "text"])

    def first_header(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("turn_idx", kind="mergesort")
        for _, row in g.iterrows():
            try:
                payload = json.loads(row["text"])
            except json.JSONDecodeError:
                continue
            if "header" in payload:
                return pd.DataFrame(
                    {
                        "conv_id": [row["conv_id"]],
                        "header_turn": [int(row["turn_idx"])],
                        "header_text": [row["text"]],
                    }
                )
        return pd.DataFrame({"conv_id": [], "header_turn": [], "header_text": []})

    header_ds = (
        ds.map_batches(header_candidates, batch_format="pyarrow")
        .groupby("conv_id")
        .map_groups(first_header, batch_format="pandas")
    )
    hdr_df = header_ds.limit(max_broadcast_headers + 1).to_pandas()
    if len(hdr_df) > max_broadcast_headers:
        raise ValueError(
            f"extract_layout_broadcast: >{max_broadcast_headers} conversation "
            "headers — the broadcast map no longer fits; use extract_layout "
            "(grouped fold) at this scale"
        )
    headers = {
        conv_id: (int(tidx), _layout_oracle.parse_header(json.loads(text)))
        for conv_id, tidx, text in zip(
            hdr_df["conv_id"], hdr_df["header_turn"], hdr_df["header_text"]
        )
    }
    headers_ref = ray.put(headers)

    def bin_boxes(batch: pa.Table) -> pa.Table:
            from ..stages.fold import rows_to_table

            headers = ray.get(headers_ref)  # local object-store fetch per call
            rows = []
            for conv_id, tidx, text in zip(
                batch["conv_id"].to_pylist(),
                batch["turn_idx"].to_pylist(),
                batch["text"].to_pylist(),
            ):
                entry = headers.get(conv_id)
                if not entry:
                    continue
                header_turn, header = entry
                if int(tidx) < header_turn:
                    # the fold skips turns before header discovery
                    continue
                # inline single-turn binning (no fold state needed)
                try:
                    payload = json.loads(text)
                except json.JSONDecodeError:
                    continue
                row = {name: None for _x, name in header}
                for box in payload.get("boxes", []):
                    if box.get("font") != "Arial":
                        continue
                    col = _layout_oracle.bin_column(float(box["x0"]), header)
                    if col:
                        row[col] = box["text"]
                if row.get("County Code"):
                    row["ref_turn"] = int(tidx)
                    row["conv_id"] = conv_id
                    rows.append(row)
            return rows_to_table(rows, schemas.LAYOUT_SCHEMA)

    return ds.map_batches(bin_boxes, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# invoice: vectorized RE2 bank → light header/LOCF fold


def _fold_invoice_partition(group: pa.Table) -> pa.Table:
    """Partition fold over pre-extracted field columns (no regex work here):
    conversations split out by factorize + lexsort boundaries."""
    import numpy as np
    import pandas as pd

    from ..stages.fold import conv_boundaries

    conv = np.asarray(group["conv_id"].to_pandas(), dtype=object)
    tidx = group["turn_idx"].to_numpy(zero_copy_only=False)
    field_cols = {
        name: np.asarray(group[FIELD_PREFIX + name].to_pandas(), dtype=object)
        for name in _invoice.PATTERNS
    }
    order, bounds = conv_boundaries(conv, tidx)
    cv, ti = conv[order], tidx[order]
    field_cols = {k: v[order] for k, v in field_cols.items()}
    rows: list[dict] = []
    for i in range(len(bounds) - 1):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        extracted_list = [
            {
                name: vals[j]
                for name, vals in field_cols.items()
                if vals[j] is not None and not (isinstance(vals[j], float) and pd.isna(vals[j]))
            }
            for j in range(lo, hi)
        ]
        conv_rows = _invoice.rows_from_extracted(extracted_list, [int(x) for x in ti[lo:hi]])
        cid = cv[lo]
        for r in conv_rows:
            r["conv_id"] = cid
        rows.extend(conv_rows)
    return rows_to_table(rows, schemas.INVOICE_SCHEMA)


def extract_invoice(path: str):
    # elastic tasks, not an actor pool: the extractor's only state is the
    # module-level RE2 pattern bank, so a pool buys nothing and pays its
    # spawn cost per query (and a fixed cap starves a wider cluster)
    ds = family_dataset(path, "invoice").map_batches(
        InvoiceFieldExtractor(), batch_format="pyarrow", zero_copy_batch=True, batch_size=4096
    )
    return map_partitions(ds, _fold_invoice_partition)


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
    so this is a plain ``map_batches`` stage — NO shuffle. The compiled
    regex bank lives in module state, loaded once per actor.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for h in batch.to_pylist():
            for p in _persons.extract_persons_for_household(h):
                p["conv_id"] = h["conv_id"]
                rows.append(p)
        return rows_to_table(rows, schemas.PERSONS_SCHEMA)


def extract_census_summary(path: str, households=None, batch_size: int = 512):
    """Stateless elastic tasks (not a fixed actor pool): the stage holds no
    loaded state — workers reuse module imports — and a fixed pool size
    would cap scaling below the cluster width."""
    ds = households if households is not None else extract_census_households(path)
    return ds.map_batches(CensusSummarizer(), batch_format="pyarrow", batch_size=batch_size)


def extract_census_persons(path: str, households=None, batch_size: int = 256):
    """Stateless elastic tasks; the compiled regex bank is module state,
    compiled once per worker process (not per batch). Small batch_size so
    the kinship work fans out across the cluster."""
    ds = households if households is not None else extract_census_households(path)
    return ds.map_batches(PersonsExtractor(), batch_format="pyarrow", batch_size=batch_size)


# ---------------------------------------------------------------------------

EXTRACTORS = {
    "catalog": extract_catalog,
    "invoice": extract_invoice,
    "layout": extract_layout,
    "layout_broadcast": extract_layout_broadcast,
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

