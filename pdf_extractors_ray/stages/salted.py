"""Salted splits for hot conversations (long-transcript skew).

A plain ``groupby(conv_id)`` puts an entire conversation in one task; a
conversation with 100x the median turns becomes a straggler. For folds
whose state COMPOSES across windows (the invoice fold: header broadcast +
LOCF — SURVEY.md §4.2 "salted splits"), hot conversations are split into
order-preserving windows ``salt = turn_idx // W``, folded per window in
parallel, then stitched per conversation in a second, much smaller pass:

    turns ──groupby (conv_id, salt)──> window partials ──groupby conv_id──> rows

Hot-conv detection is an explicit pre-pass: per-batch partial conv counts →
tiny groupby → driver collects the hot set → broadcast into the salting
stage. Cold conversations keep ``salt = 0`` (single window — identical to
the unsalted path); only flagged conversations fan out.

The catalog/census folds carry non-composable state (lookahead, anchor
record under construction) — they stay unsalted by design; this module
documents that partitioning assumption (SURVEY.md §7.5 #3).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..oracle import invoice as _invoice
from ..pipelines import schemas
from ..stages.fold import rows_to_table
from ..stages.invoice_extract import FIELD_PREFIX, InvoiceFieldExtractor

_HEADER_MARK = "\x00header"


def hot_conversations(ds, threshold: int) -> set[str]:
    """conv_ids with more than ``threshold`` turns.

    Partial per-batch counts → hash-bucketed combine (``bucketed_group_agg``
    — conv_ids are ~all-distinct keys, exactly the case where Ray's
    per-group hash-aggregate overhead bites; measured 4.1 s → 0.5 s at
    sf0.01). Only the (rare) hot convs reach the driver."""
    from ..ops.common import bucketed_group_agg

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby("conv_id", as_index=False, sort=False).size().rename(columns={"size": "n"})

    counts = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pandas"), ["conv_id"], {"n": "sum"}
    )
    hot = counts.map_batches(
        lambda b: b[b["n"] > int(threshold)][["conv_id"]], batch_format="pandas"
    ).to_pandas()
    return set(hot["conv_id"])


def extract_invoice_salted(path: str, hot_threshold: int = 64, window: int = 32):
    """Invoice extraction with salted splits; output ≡ plain extract_invoice."""
    import ray

    from ..pipelines.extract import family_dataset

    ds = family_dataset(path, "invoice")
    hot = hot_conversations(ds, hot_threshold)
    hot_ref = ray.put(hot)

    # elastic tasks — the extractor's state is a module-level pattern bank
    # (see pipelines.extract.extract_invoice)
    ds = ds.map_batches(
        InvoiceFieldExtractor(), batch_format="pyarrow", zero_copy_batch=True, batch_size=4096
    )

    def add_salt(batch: pd.DataFrame) -> pd.DataFrame:
        hotset = ray.get(hot_ref)
        salt = np.where(
            batch["conv_id"].isin(hotset),
            batch["turn_idx"].to_numpy() // window,
            0,
        )
        return batch.assign(salt=salt.astype(np.int64))

    ds = ds.map_batches(add_salt, batch_format="pandas")

    field_names = list(_invoice.PATTERNS)

    def window_fold(group: pd.DataFrame) -> pd.DataFrame:
        """Fold ONE window: emit partial rows + (window 0) a header marker.

        Partial rows leave the header-broadcast fields and leading-null
        Delivery dates unresolved; the stitch pass fills them.
        """
        g = group.sort_values("turn_idx", kind="mergesort")
        conv_id = g["conv_id"].iloc[0]
        salt = int(g["salt"].iloc[0])
        fcols = {f: g[FIELD_PREFIX + f].to_numpy() for f in field_names}
        tidx = g["turn_idx"].to_numpy()
        out = []
        for pos in range(len(g)):
            extracted = {f: col[pos] for f, col in fcols.items() if col[pos] is not None}
            if not extracted:
                continue
            if salt == 0 and pos == 0:
                # conv-level fragment 0 = invoice header (:72-77)
                has_inv = "Invoice" in extracted
                out.append(
                    {
                        "conv_id": conv_id, "salt": salt, "ord": int(tidx[pos]),
                        "kind": _HEADER_MARK,
                        "Invoice": extracted.get("Invoice") if has_inv else None,
                        "Invoice Date": extracted.get("Invoice Date") if has_inv else None,
                        "Due Date": extracted.get("Due Date") if has_inv else None,
                        "Customer Number": extracted.get("Customer Number") if has_inv else None,
                    }
                )
                continue
            r = {k: None for k in _invoice.OUTPUT_COLUMNS}
            r.update(extracted)
            r["Page"] = str(int(tidx[pos]))
            r.update({"conv_id": conv_id, "salt": salt, "ord": int(tidx[pos]), "kind": "row"})
            out.append(r)
        cols = ["conv_id", "salt", "ord", "kind", *_invoice.OUTPUT_COLUMNS]
        return pd.DataFrame(out, columns=cols) if out else pd.DataFrame({c: [] for c in cols})

    partials = ds.groupby(["conv_id", "salt"]).map_groups(window_fold, batch_format="pandas")

    def stitch(group: pd.DataFrame) -> pa.Table:
        """Merge a conversation's window partials: header broadcast + LOCF."""
        g = group.sort_values(["salt", "ord"], kind="mergesort")
        conv_id = g["conv_id"].iloc[0]
        header = {"Invoice": 0, "Invoice Date": None, "Due Date": None, "Customer Number": None}
        kinds = g["kind"].to_numpy()
        cols = {k: g[k].to_numpy() for k in _invoice.OUTPUT_COLUMNS}
        rows = []
        for i in range(len(g)):
            if kinds[i] == _HEADER_MARK:
                for k in header:
                    header[k] = cols[k][i] if not pd.isna(cols[k][i]) else None
                continue
            r = {k: (None if pd.isna(cols[k][i]) else cols[k][i]) for k in _invoice.OUTPUT_COLUMNS}
            for k in ("Invoice", "Invoice Date", "Due Date", "Customer Number"):
                # fragment-level extraction wins over the header broadcast:
                # the plain path applies row.update(extracted) AFTER seeding
                # the header fields (oracle/invoice.py rows_from_extracted),
                # so e.g. an order fragment containing 'Invoice 999' keeps
                # 999. Only null fields fall back to the conversation header.
                if r[k] is None:
                    r[k] = header[k]
            rows.append(r)
        delivery = None  # LOCF across window boundaries (:94-100)
        for r in rows:
            if r["Delivery date"] is not None:
                delivery = r["Delivery date"]
            else:
                r["Delivery date"] = delivery
            r["conv_id"] = conv_id
        return rows_to_table(rows, schemas.INVOICE_SCHEMA)

    return partials.groupby("conv_id").map_groups(stitch, batch_format="pandas")
