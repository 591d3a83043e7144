"""Word-box layout parse: coordinate → column binning (FFIEC family).

Reimplements ``us-ffiec-demographic-Info/ffiec-census.py``:

- page-0 header discovery: the first turn carries the table-header cells
  with their x coordinates (``:61-77`` ``get_table_header_row``); column
  names keep their discovery order,
- font predicate: only spans with ``font == 'Arial'`` contribute
  (``:40-44``),
- x-coordinate range binning: a box belongs to the last header column whose
  x is <= the box's x0 (``:50-58`` ``get_column_name``, "last bin below"),
- completeness predicate: a block row is kept only when its ``County Code``
  cell is set (``:45-46``).

Transcript model: one turn = one text block; its ``text`` payload is a JSON
object ``{"boxes":[{text,x0,y0,x1,y1,font,size},...]}``, with ``"header"``
present only on the conversation's first turn (page-0 discovery, ST4 in
SURVEY.md §2.3).
"""

from __future__ import annotations

import json


def parse_header(payload: dict) -> list[tuple[float, str]]:
    """Ordered (x, column-name) boundary list from the turn-0 payload."""
    return [(float(h["x"]), str(h["col"])) for h in payload.get("header", [])]


def bin_column(x0: float, header: list[tuple[float, str]]) -> str:
    """Last header column whose x <= x0 (ffiec-census.py:50-58)."""
    prev = ""
    for hx, name in header:
        if x0 < hx:
            return prev
        prev = name
    return prev


def extract_layout_conv(texts: list[str], turn_idxs: list[int]) -> list[dict]:
    """Bin one conversation's word boxes into header columns."""
    rows: list[dict] = []
    header: list[tuple[float, str]] = []
    columns: list[str] = []
    for text, tidx in zip(texts, turn_idxs):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            continue
        if not header and "header" in payload:
            header = parse_header(payload)
            columns = [name for _x, name in header]
        if not header:
            continue
        row: dict = {c: None for c in columns}
        for box in payload.get("boxes", []):
            if box.get("font") != "Arial":  # style predicate (:40-44)
                continue
            col = bin_column(float(box["x0"]), header)
            if col:
                row[col] = box["text"]
        if row.get("County Code"):  # completeness predicate (:45-46)
            row["ref_turn"] = int(tidx)
            rows.append(row)
    return rows
