"""Arrow output schemas for every extraction family.

Fixed, explicit schemas (SURVEY.md §1.4): list-valued reference columns are
native ``pa.list_(pa.string())`` — no ``ast.literal_eval`` round-trips
(contrast ``roman-census/persons.py:776-780``). Stable schemas also make
empty per-group outputs unify cleanly across blocks.
"""

from __future__ import annotations

import pyarrow as pa

from ..oracle import grid as _grid
from ..oracle import invoice as _invoice
from ..oracle import persons as _persons
from ..sources.transcripts import FFIEC_COLUMNS, _KNR_COLUMNS

_S = pa.string()


def _with_conv(fields: list[pa.Field]) -> pa.Schema:
    return pa.schema([pa.field("conv_id", _S), *fields])


CATALOG_SCHEMA = _with_conv(
    [
        pa.field("ref_turn", pa.int32()),
        pa.field("manufacturer", _S),
        pa.field("year", _S),
        pa.field("model", _S),
        pa.field("engine", _S),
        pa.field("oils", pa.list_(_S)),
    ]
)

INVOICE_SCHEMA = _with_conv([pa.field(c, _S) for c in _invoice.OUTPUT_COLUMNS])

LAYOUT_SCHEMA = _with_conv(
    [pa.field(c, _S) for c in FFIEC_COLUMNS] + [pa.field("ref_turn", pa.int32())]
)

TABLE_SCHEMA = _with_conv(
    [pa.field(c, _S) for c in _KNR_COLUMNS] + [pa.field("ref_turn", pa.int32())]
)

GRID_SCHEMA = _with_conv(
    [pa.field("ref_turn", pa.int32())] + [pa.field(c, _S) for c in _grid.OUTPUT_COLUMNS[1:]]
)

HOUSEHOLD_SCHEMA = _with_conv(
    [
        pa.field("household_number", _S),
        pa.field("source", _S),
        pa.field("provenance", _S),
        pa.field("declarant_name", _S),
        pa.field("declarant_name_parsed", pa.list_(_S)),
        pa.field("declarant_id", pa.list_(_S)),
        pa.field("name_of_family_members", pa.list_(_S)),
        pa.field("name_of_non_family_members", pa.list_(_S)),
        pa.field("slaves", pa.list_(_S)),
        pa.field("declarant_occupation", _S),
        pa.field("verif_photo", _S),
        pa.field("discussion", _S),
    ]
)

CENSUS_SUMMARY_SCHEMA = _with_conv(
    [
        pa.field("household_number_year", _S),
        pa.field("household_number_location", _S),
        pa.field("household_number_order", _S),
        pa.field("source", _S),
        pa.field("provenance", _S),
        pa.field("provenance_place", _S),
        pa.field("provenance_year", _S),
        pa.field("declarant_name_1", _S),
        pa.field("declarant_name_2", _S),
        pa.field("declarant_name_3", _S),
        pa.field("declarant_name_4", _S),
        pa.field("declarant_name_5", _S),
        pa.field("declarant_ids", pa.list_(_S)),
        pa.field("declarant_occupation", _S),
        pa.field("number_of_family_members", pa.int64()),
        pa.field("number_of_non_family_members", pa.int64()),
        pa.field("number_of_slaves", pa.int64()),
        pa.field("verif_photo", _S),
        pa.field("discussion_text", _S),
        pa.field("discussion_indicates_substantive_record_brokenness", _S),
    ]
)

_PERSON_FIELDS = []
for c in _persons.PERSON_COLUMNS:
    if c in ("siblings", "children"):
        _PERSON_FIELDS.append(pa.field(c, pa.list_(_S)))
    else:
        _PERSON_FIELDS.append(pa.field(c, _S))
PERSONS_SCHEMA = _with_conv(_PERSON_FIELDS)

from ..oracle import regions as _regions  # noqa: E402

# detector-path outputs (S8/M40/M41 — oracle/regions.py)
LAYOUT_DETECTED_SCHEMA = LAYOUT_SCHEMA  # same columns, header self-detected
GRID_DETECTED_SCHEMA = _with_conv(
    [pa.field("ref_turn", pa.int32())]
    + [pa.field(c, _S) for c in _regions.OUTPUT_COLUMNS[1:]]
)
GRID_CROPS_SCHEMA = _with_conv(
    [pa.field("ref_turn", pa.int32()), pa.field("po_box", _S), pa.field("sold_to", _S)]
)
