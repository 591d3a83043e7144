"""Salted splits for long conversations (transcript-length skew).

A plain fold co-locates a whole conversation in one fold task, so a
conversation with 20x the median turns is a straggler. The salted variants
cut EVERY conversation into order-preserving windows ``salt = turn_idx //
W``, fold the windows in parallel and stitch each conversation's window
partials in order. Both steps run on ``stages/fold.key_exchange``, chained
on Ray tasks like the dedup ops (the chained range repartition of Hyper
Dimension Shuffle), with no Ray Data groupby, sort or broadcast:

    turns ──key_exchange by window──> window partials ──key_exchange by conv_id──> rows

The window key ``win`` (conv_id and salt in one string) is made map-side
from each row alone. A conversation of at most W turns is one window, the
unsalted path; a long conversation's windows are distinct keys, so they
spread over the ranges. The stitch's rows come out in conv_id order, like
the plain folds', and equal them row for row (tested).

- invoice: the fold's state is the conversation header (its first turn)
  and the last Delivery date. A window keeps its first turn (the header
  candidate) and every turn that extracts a field; the stitch runs the
  plain fold over what is left.
- catalog: the line state machine carries a one-line lookahead, two gates
  (page banner seen, ``Oil`` seen) and a record context. A window is
  decomposed once for every entry gate state into a head, which the stitch
  replays through the real machine, and a tail from the first firing
  manufacturer/year pair on, whose rows and exit state the window frame
  computes (``_catalog_window``). The stitch replays the windows in order,
  so it knows each window's exact entry gates and the line after it, and
  picks that decomposition. No row crosses windows, so ``turn_idx`` may
  have gaps.
"""

from __future__ import annotations

import json
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..oracle import catalog as _catalog
from ..oracle import invoice as _invoice
from ..pipelines import schemas
from ..stages.fold import (
    conv_runs, fold_group_table, key_exchange, ordered_column, rows_to_table, turn_texts,
)
from ..stages.invoice_extract import FIELD_PREFIX

_FIELDS = [FIELD_PREFIX + f for f in _invoice.PATTERNS]
_CATALOG_WINDOW_SCHEMA = pa.schema(
    [pa.field("conv_id", pa.string()), pa.field("turn_idx", pa.int64()),
     pa.field("payload", pa.string())]
)


def _window_shard(tbl: pa.Table, key_only: bool, window: int) -> pa.Table:
    """Map side of the window exchange: ``tbl`` with its ``salt`` and window
    key ``win`` (only ``win`` for a sample)."""
    if not tbl.num_rows:  # an empty block may carry no columns at all
        return tbl
    salt = pc.divide(tbl["turn_idx"].cast(pa.int64()), window)  # integer division
    win = pc.binary_join_element_wise(tbl["conv_id"], salt.cast(pa.string()), "\x00")
    if key_only:
        return pa.table({"win": win})
    return tbl.append_column("salt", salt).append_column("win", win)


def _salted(ds, window: int, window_frame, stitch_frame):
    """The two chained exchanges: ``window_frame`` once per window-key range,
    then ``stitch_frame`` once per conv_id range over the window partials →
    Dataset of the stitched tables, in conv_id order."""
    import ray.data

    load = partial(_window_shard, window=window)
    partials = key_exchange(ds.to_arrow_refs(), "win", window_frame, load)
    return ray.data.from_arrow_refs(key_exchange(partials, "conv_id", stitch_frame))


# ---------------------------------------------------------------------------
# invoice: header + LOCF over the turns that matter


def _invoice_window(group: pa.Table) -> pa.Table:
    """Window frame: each window's first turn (the conversation header when
    the window is the conversation's first) and every turn that extracts a
    field, in window order. A dropped turn extracts nothing and is not a
    header, so the plain fold would skip it too."""
    if not group.num_rows:
        return group
    order, bounds, _ = conv_runs(group, ("conv_id", "salt"))
    hit = np.zeros(group.num_rows, dtype=bool)
    for f in _FIELDS:
        hit |= pc.is_valid(group[f]).to_numpy(zero_copy_only=False)
    keep = hit[order]
    keep[bounds[:-1]] = True
    return group.select(["conv_id", "turn_idx", *_FIELDS]).take(order[keep])


def extract_invoice_salted(path: str, window: int = 32):
    """Invoice extraction with salted splits; output ≡ ``extract_invoice``,
    row for row (tested)."""
    from ..pipelines.extract import _fold_invoice_partition, invoice_field_dataset

    return _salted(invoice_field_dataset(path), window, _invoice_window, _fold_invoice_partition)


# ---------------------------------------------------------------------------
# catalog: per-entry-gate head/tail decompositions, replayed in order

_GATES = ((False, False), (False, True), (True, False), (True, True))  # index 2·started + valid
_A_YEAR = "2000"  # of the line after a window the machine only asks: is it a year?


def _gates_open_at(lines: list[str], started: bool, valid: bool) -> tuple[int, bool, bool]:
    """The first line the machine reads with both gates open when it enters
    ``lines`` with ``(started, valid)`` (``len(lines)`` if none), and the
    gates there. The lines before it move only the gates: a closed gate
    skips the rule body, and the record context is untouched (and empty)
    until the ``Oil`` gate first opens."""
    for i, raw in enumerate(lines):
        if started and valid:
            return i, True, True
        line = raw.strip()
        if not started:
            started = line == _catalog.BANNER
        elif line == "Oil":
            valid = True
    return len(lines), started, valid


def _may_fire(raw: str) -> bool:
    """The manufacturer rule fires on this line if the next one is a year."""
    line = raw.strip()
    return not _catalog.is_boilerplate_line(line) and bool(_catalog.RE_MANUFACTURER.match(line))


def _first_pair(lines: list[str], la: str, lo: int) -> int:
    """Index of the first line at or after ``lo`` where the manufacturer rule
    fires with both gates open (``la`` follows the last line), else -1."""
    n = len(lines)
    for i in range(lo, n):
        nxt = lines[i + 1].strip() if i + 1 < n else la
        if _may_fire(lines[i]) and _catalog.RE_YEAR.match(nxt):
            return i
    return -1


def _catalog_window(lines: list[str], idxs: list[int]) -> dict:
    """One non-empty window, decomposed once per entry gate state into
    ``[lo, hi, tail, started, valid]``: the head ``lines[lo:hi]`` runs from
    gates ``(started, valid)``, then ``tails[tail]`` (if not None) from
    ``hi`` on. Where the last line may fire the manufacturer rule, four
    more follow for a year after the window.

    From a firing manufacturer/year pair on, the machine's work does not
    depend on the record context it carries: the manufacturer rule resets
    model, engine and oils, and the pair's year line overwrites the year
    before any row can read it. Only the pair's own flush reads the old
    context, so the stitch replays it. Each distinct split's tail is folded
    here once: its rows and its exit state. The payload carries only the
    lines some head reads."""
    decs, tails = [], {}
    for la in ("", _A_YEAR) if _may_fire(lines[-1]) else ("",):
        for started, valid in _GATES:
            lo, started, valid = _gates_open_at(lines, started, valid)
            split, key = _first_pair(lines, la, lo), None
            if split < 0:  # no pair fires: the head runs to the end
                split = len(lines)
            else:
                key = f"{split}{la}"
                if key not in tails:
                    tails[key] = _catalog_tail(lines[split:], idxs[split:], la)
            decs.append([lo, split, key, started, valid])
    heads = [(lo, hi) for lo, hi, *_ in decs if lo < hi]
    at = min((lo for lo, _ in heads), default=0)
    end = max((hi for _, hi in heads), default=0)
    return {"lines": lines[at:end], "idxs": idxs[at:end], "at": at, "first": lines[0].strip(),
            "last": idxs[-1], "decs": decs, "tails": tails}


def _catalog_tail(lines: list[str], idxs: list[int], la: str) -> dict:
    """The machine from a firing pair on: the pair's line and turn, the
    rows, the exit state."""
    machine = _catalog.CatalogMachine(started=True, valid=True)
    machine.feed(lines, idxs, lookahead=la)
    rows = [[r[c] for c in _catalog.OUTPUT_COLUMNS] for r in machine.rows]  # no keys per row
    return {"line": lines[0].strip(), "idx": idxs[0], "rows": rows, "exit": machine.state()}


def _catalog_window_frame(group: pa.Table) -> pa.Table:
    """Window frame: one JSON payload per window, with ``turn_idx`` = its
    salt, so the stitch's slicer replays the windows in order."""
    if not group.num_rows:
        return _CATALOG_WINDOW_SCHEMA.empty_table()
    order, bounds, (convs, salts) = conv_runs(group, ("conv_id", "salt"))
    texts = turn_texts(group, order)
    tidx = ordered_column(group, "turn_idx", order).tolist()
    rows = [{"conv_id": cid, "turn_idx": salt,
             "payload": json.dumps(_catalog_window(texts[lo:hi], tidx[lo:hi]))}
            for cid, salt, lo, hi in zip(convs, salts, bounds[:-1].tolist(), bounds[1:].tolist())]
    return rows_to_table(rows, _CATALOG_WINDOW_SCHEMA)


def _stitch_catalog(payloads: list[str], _salts: list[int]) -> list[dict]:
    """Replay one conversation's windows in order through the real machine:
    the head of the decomposition that matches the machine's gates and the
    next window's first line, the tail's boundary flush, the tail's rows,
    then the tail's exit state."""
    machine = _catalog.CatalogMachine()
    windows = [json.loads(p) for p in payloads]
    for w, nxt in zip(windows, [*(v["first"] for v in windows[1:]), ""]):
        i = 2 * machine.started + machine.valid
        if len(w["decs"]) > i + 4 and _catalog.RE_YEAR.match(nxt):
            i += 4
        lo, hi, key, machine.started, machine.valid = w["decs"][i]
        tail = w["tails"][key] if key else None
        at = w["at"]
        machine.feed(w["lines"][lo - at:hi - at], w["idxs"][lo - at:hi - at],
                     lookahead=tail["line"] if tail else nxt)
        if tail:
            if machine.context_complete():
                machine.emit(tail["idx"])
            machine.rows.extend(dict(zip(_catalog.OUTPUT_COLUMNS, r)) for r in tail["rows"])
            machine.load_state(tail["exit"])
    machine.finish(windows[-1]["last"] if windows else 0)
    return machine.rows


def _payload_column(group: pa.Table, order: np.ndarray) -> list[str]:
    return ordered_column(group, "payload", order).tolist()


def extract_catalog_salted(path: str, window: int = 128):
    """Catalog extraction with salted splits; output ≡ ``extract_catalog``,
    row for row (tested)."""
    from ..pipelines.extract import family_dataset

    stitch = partial(fold_group_table, fold_fn=_stitch_catalog, schema=schemas.CATALOG_SCHEMA,
                     payloads=_payload_column)
    return _salted(family_dataset(path, "catalog"), window, _catalog_window_frame, stitch)
