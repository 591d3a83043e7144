"""Ordered per-conversation session folds.

The reference's in-document parsing is a forward-only ordered scan with
carried state (SURVEY.md §2.9, ST1-ST3). In Ray Data that becomes: assign
a coarse ``part_id = md5(conv_id) % n_parts`` (vectorized, Arrow-native),
ONE ``groupby(part_id)`` to co-locate conversations (the single shuffle the
engine needs, SURVEY.md §7.4), then fold every conversation inside the
partition with numpy boundary slicing — per-conversation ordering is
restored deterministically no matter how the input blocks arrived (the
synthesizer writes rows shuffled on purpose).

Grouping by coarse partitions instead of by ``conv_id`` directly matters at
scale: ``map_groups`` per conversation costs a Python call + batch build
per group (~10^5-10^12 of them); per partition it is a few hundred calls
total, with conversations split out by a factorize + ``np.lexsort`` scan
(same hot-loop shape as ``state/lineage.py fold_partition``).

Each fold returns a ``pyarrow.Table`` built against the family's fixed
schema so empty groups unify cleanly and list columns stay native Arrow.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

FoldFn = Callable[[list[str], list[int]], list[dict]]


def rows_to_table(rows: list[dict], schema: pa.Schema) -> pa.Table:
    """dict rows → Arrow table with a fixed schema (ints coerced, absent
    keys → null).

    Fast path: Arrow's C++ ``from_pylist`` (measured 2.5-3× faster than
    per-column Python listcomps — ~26% of the whole partition fold was
    this conversion). It raises on any value needing coercion (an int in
    a string field, a float in an int field), so the byte-identical
    coercing path below stays as the fallback; outputs are equal whenever
    the fast path succeeds (verified table.equals across every family on
    the bench corpus)."""
    if not rows:
        return schema.empty_table()
    try:
        return pa.Table.from_pylist(rows, schema=schema)
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        pass
    cols = {}
    for field in schema:
        vals = [r.get(field.name) for r in rows]
        if pa.types.is_integer(field.type):
            vals = [None if v is None else int(v) for v in vals]
        elif pa.types.is_string(field.type):
            vals = [None if v is None else str(v) for v in vals]
        cols[field.name] = pa.array(vals, field.type)
    return pa.Table.from_pydict(cols, schema=schema)


def conv_boundaries(conv: np.ndarray, tidx: np.ndarray):
    """Value-ordered sort by (conv, turn_idx) + conversation boundaries.

    Returns ``(order, bounds)``: apply ``order`` to any row-aligned array;
    ``bounds[i]:bounds[i+1]`` is one conversation's ordered slice.
    ``sort=True`` factorize so results are independent of arrival order.
    """
    conv_codes = pd.factorize(conv, sort=True)[0]
    order = np.lexsort((tidx, conv_codes))
    cc = conv_codes[order]
    change = np.flatnonzero(np.diff(cc) != 0) + 1
    bounds = np.concatenate(([0], change, [len(cc)]))
    return order, bounds


def fold_group_table(group: pa.Table, fold_fn: FoldFn, schema: pa.Schema) -> pa.Table:
    """Fold every conversation inside one co-located partition."""
    conv = np.asarray(group["conv_id"].to_pandas(), dtype=object)
    tidx = group["turn_idx"].to_numpy(zero_copy_only=False)
    texts = np.asarray(group["text"].to_pandas(), dtype=object)
    if pd.isna(texts).any():
        texts = np.where(pd.isna(texts), "", texts)  # null text ≡ empty line
    order, bounds = conv_boundaries(conv, tidx)
    cv, ti, tx = conv[order], tidx[order], texts[order]
    rows: list[dict] = []
    for i in range(len(bounds) - 1):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        conv_rows = fold_fn(list(tx[lo:hi]), [int(x) for x in ti[lo:hi]])
        cid = cv[lo]
        for r in conv_rows:
            r["conv_id"] = cid
        rows.extend(conv_rows)
    return rows_to_table(rows, schema)


def _default_n_parts() -> int:
    try:
        import ray

        if ray.is_initialized():
            return max(16, int(ray.cluster_resources().get("CPU", 8)) * 4)
    except ImportError:
        pass
    return 32


def fold_conversations(ds, fold_fn: FoldFn, schema: pa.Schema, n_parts: int | None = None):
    """part_id co-location + ordered per-conversation folds → Dataset."""
    from ..state.lineage import append_part_id

    n_parts = n_parts or _default_n_parts()
    ds = ds.map_batches(
        lambda b: append_part_id(b, n_parts),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return ds.groupby("part_id").map_groups(
        lambda g: fold_group_table(g, fold_fn, schema), batch_format="pyarrow"
    )
