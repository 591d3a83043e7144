"""Transcript table: schema, deterministic synthesizer, reader.

The engine's primary input is the Parquet transcript table from
``BASELINE.json`` ``input_hint``::

    conv_id:string, turn_idx:int32, role:string, text:string,
    tool:string, ts:timestamp[us]

``synthesize_transcripts`` writes a fully deterministic (seed-keyed, no
wall-clock, no ``set`` iteration) synthetic corpus whose ``text`` payloads
follow the observable input grammars of the reference pipelines
(FIXTURES.md §2):

- ``census``   anchor-keyed multi-line household records
               (grammar of ``roman-census/household.py:43-135``)
- ``invoice``  key:value regex-bank order blocks
               (``nordic-logistics-invoice/nordic-invoice.py:8-23,65-84``)
- ``catalog``  manufacturer/year/model/engine line state machine
               (``mobil-oil/mobil-oil-extractor.py:31-121``)
- ``layout``   JSON word-box lists with page-0 header discovery
               (``us-ffiec-demographic-Info/ffiec-census.py:31-77``)
- ``table``    JSON detected-table rows with header broadcast + fix-up
               (``knr-property-mgmt/knr_property.py:28-55``)
- ``grid``     JSON raw grid rows needing pandas-style cleanup
               (``mancini-beverage-invoice/invoice.py:135-153``)

The ``tool`` column carries the payload-family tag; rows are written in a
deterministic shuffled order so pipelines must restore ``(conv_id,
turn_idx)`` ordering themselves. Convs whose stable digest ``% 17 == 0``
are "hot": ~20x the turns (long-transcript skew for salted-split testing).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

TRANSCRIPT_SCHEMA = pa.schema(
    [
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("role", pa.string()),
        pa.field("text", pa.string()),
        pa.field("tool", pa.string()),
        pa.field("ts", pa.timestamp("us")),
    ]
)

FAMILIES = ("census", "invoice", "catalog", "layout", "table", "grid")
# family assignment by conv ordinal, weighted toward the rich fold families
_FAMILY_CYCLE = (
    "census", "invoice", "catalog", "layout", "census", "invoice",
    "catalog", "table", "census", "invoice", "catalog", "grid",
    "layout", "table", "census", "invoice", "catalog", "grid", "layout", "table",
)

EPOCH_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00 in microseconds

ROLES = ("user", "assistant", "tool")


def stable_digest(s: str) -> int:
    """Deterministic 64-bit digest (Python ``hash`` is salted per process)."""
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little")


def is_hot_conv(conv_id: str) -> bool:
    return stable_digest(conv_id) % 17 == 0


# ---------------------------------------------------------------------------
# name / token pools (deterministic literals)

_NAMES = [
    "Harthotes", "Marres", "Esersythis", "Taorseus", "Petesouchos", "Thermouthis",
    "Apollonios", "Aurelius Isidoros", "Tapekysis", "Pnepheros", "Stotoetis",
    "Taues", "Horos", "Satabous", "Herieus", "Thenapynchis", "Panouphis",
    "Tasoucharion", "Didymos", "Sambathion", "Kronion", "Taharmiysis",
]
_PLACES = ["Theadelphia", "Karanis", "Soknopaiou Nesos", "Tebtynis", "Oxyrhynchos", "Ankyronpolis"]
_DISTRICTS = ["Arsinoite", "Oxyrhynchite", "Herakleopolite", "Memphite"]
_LOCS = ["Ar", "Ox", "He", "Me"]
_OCCUPATIONS = [
    "public farmer", "farmer", "priest of Tothoes", "mason", "weaver",
    "fisherman", "donkey driver", "goldsmith", "linenweaver", "workman",
]
_RELTOKS = ["s.", "d.", "?s.", "?d.", "s./d."]
_RELWORDS_F = ["wife", "sister", "daughter", "mother"]
_RELWORDS_M = ["husband", "brother", "son"]

_MANUFACTURERS = ["ACURA", "AUDI", "BMW", "CHEVROLET", "DODGE", "FORD", "HONDA", "SAAB", "TOYOTA", "VOLVO"]
_MODELS = ["MDX", "TLX (Base)", "A4 Quattro", "330i", "Silverado 1500", "Charger", "F-150", "Civic", "9-3", "Camry", "XC90"]
_ENGINES = ["V6 3.0L F.I. Turbo", "L4 2.0L F.I.", "V8 5.3L", "V6 3.6L (Canada)", "L4 1.5L F.I. Turbo", "V6 3.5L"]
_BANNER1 = "FILTERS FOR PASSENGER CARS AND LIGHT TRUCKS/ FILTRES POUR VOITURES PARTICULIERES ET"
_BANNER2 = "VEHICULES UTILITAIRES LEGERS/ FILTROS PARA AUTOMOVILES Y CAMIONES LIGEROS"
_CATALOG_FOOTNOTES = [
    "Premium Filter Recommended. See page 2 for details.",
    "Recommended. for severe service applications only",
    "Filter recommended. when towing",
    "550 Synthetic Oil Application. Premium filter recommended.",
    "3 Availability limited to existing inventory. Contact dealer",
]
_PORTS = ["CNNBG", "NOMSS", "DEHAM", "NLRTM", "USNYC", "SGSIN"]
_VESSELS = ["AL ZUBARA", "MAERSK ESSEX", "EVER GIVEN", "MSC OSCAR", "OOCL HONG KONG"]
_CONTAINERS = ["40HC", "20GP", "40RF"]

# the 15 FFIEC golden columns (us-ffiec-demographic-Info/output CSV header)
FFIEC_COLUMNS = [
    "State Code", "County Code", "Tract Code", "Tract Income Level",
    "Distressed or Under served Tract", "Tract Median Family Income %",
    "2024 FFIEC Est. MSA/MD non-MSA/MD Median Family Income",
    "2024 Est. Tract Median Family Income", "2020 Tract Median Family Income",
    "Tract Population", "Tract Minority %", "Minority Population",
    "Owner Occupied Units", "1- to 4- Family Units",
]
_KNR_COLUMNS = ["Date", "Payee / Payer", "Type", "Reference", "Description", "Income", "Expense", "Balance"]


def _date_str(rng: np.random.RandomState) -> str:
    return f"{rng.randint(1, 29):02d}.{rng.randint(1, 13):02d}.{2020 + int(rng.randint(0, 6))}"


# ---------------------------------------------------------------------------
# per-family text generators — each returns the ordered list of turn texts


def _gen_member(rng: np.random.RandomState, k: int, declarant: bool, n_members: int) -> str:
    name = _NAMES[rng.randint(len(_NAMES))]
    father = _NAMES[rng.randint(len(_NAMES))].split(" ")[0]
    mother = _NAMES[rng.randint(len(_NAMES))].split(" ")[0]
    reltok = _RELTOKS[rng.randint(len(_RELTOKS))]
    parts = [f"({k}) {name}"]
    if declarant:
        parts.append(" [declarant]")
    parts.append(f" {reltok} {father} and {mother}")
    r = rng.randint(0, 10)
    if r < 4 and n_members > 1 and not declarant:
        # cross-reference to another member — feeds find_number_reference
        # (roman-census/persons.py:691-728) and set_relations (:542-633)
        other = int(rng.randint(1, n_members + 1))
        if other != k:
            word = (_RELWORDS_F + _RELWORDS_M)[rng.randint(7)]
            ref = "l" if (other == 1 and rng.randint(0, 6) == 0) else str(other)
            parts.append(f", {word} of {name.split(' ')[0]} [no. {ref}]")
    elif r < 6:
        parts.append(f", {_OCCUPATIONS[rng.randint(len(_OCCUPATIONS))]}")
    age_r = rng.randint(0, 10)
    if age_r < 7:
        parts.append(f", {int(rng.randint(1, 90))}")
    elif age_r < 8:
        parts.append(", age lost")
    else:
        parts.append(", age not given")
    return "".join(parts)


def _gen_slave(rng: np.random.RandomState, k: int) -> str:
    name = _NAMES[rng.randint(len(_NAMES))].split(" ")[0]
    owner = _NAMES[rng.randint(len(_NAMES))].split(" ")[0]
    sex = "female" if rng.randint(0, 2) else "male"
    if rng.randint(0, 3) == 0:
        return f"({k}) {name}, offspring of {owner}, {sex}, {int(rng.randint(1, 60))}"
    return f"({k}) {name}, slave of {owner}, {sex}, {int(rng.randint(1, 60))}"


def _gen_census(rng: np.random.RandomState, size_mult: float) -> list[str]:
    lines: list[str] = []
    n_households = max(1, int(round((2 + rng.randint(0, 4)) * size_mult)))
    for _h in range(n_households):
        year = int(rng.randint(103, 259))
        loc = _LOCS[rng.randint(len(_LOCS))]
        lines.append(f"HOUSEHOLD NO.: {year}-{loc}-{int(rng.randint(1, 30))}")
        lines.append(f"Source: P.Mil. I {int(rng.randint(1, 40))} (cf. BL {int(rng.randint(1, 9))}.{int(rng.randint(1, 99))})")
        place = _PLACES[rng.randint(len(_PLACES))]
        dist = _DISTRICTS[rng.randint(len(_DISTRICTS))]
        lines.append(f"Prov., Date: {place} ({dist}), {int(rng.randint(1, 29))}/{int(rng.randint(1, 13))}/{year}")
        dec_name = _NAMES[rng.randint(len(_NAMES))]
        dec_father = _NAMES[rng.randint(len(_NAMES))].split(" ")[0]
        dec_mother = _NAMES[rng.randint(len(_NAMES))].split(" ")[0]
        occ = _OCCUPATIONS[rng.randint(len(_OCCUPATIONS))]
        style = rng.randint(0, 10)
        if style < 6:
            lines.append(f"Declarant: {dec_name} s. {dec_father} and {dec_mother}, {occ}, {int(rng.randint(18, 80))}")
        elif style < 8:
            n2 = _NAMES[rng.randint(len(_NAMES))].split(" ")[0]
            lines.append(f"Declarant: {dec_name.split(' ')[0]} and {n2}")
        else:
            lines.append("Declarant: Not preserved")
        n_members = int(rng.randint(1, 7))
        member0 = _gen_member(rng, 1, True, n_members)
        lines.append(f"Family members: {member0}")
        for k in range(2, n_members + 1):
            m = _gen_member(rng, k, False, n_members)
            if rng.randint(0, 5) == 0 and "," in m:
                # continuation split: second physical line has no (N) anchor →
                # appended to the previous member (household.py:97-108)
                cut = m.rfind(",")
                lines.append(m[:cut])
                lines.append(m[cut:].lstrip())
            else:
                lines.append(m)
        if rng.randint(0, 3) == 0:
            lines.append(f"Free non-kin: (1) {_gen_member(rng, 1, False, 1)[4:]}")
        else:
            lines.append("Free non-kin: None")
        n_slaves = int(rng.randint(0, 3))
        if n_slaves == 0:
            lines.append("Slaves: None")
        else:
            lines.append(f"Slaves: {_gen_slave(rng, 1)}")
            for k in range(2, n_slaves + 1):
                lines.append(_gen_slave(rng, k))
        lines.append(f"Verif./photo: original; seen {int(rng.randint(1, 29))}/{int(rng.randint(1, 13))}/199{int(rng.randint(0, 10))}.")
        if rng.randint(0, 4) == 0:
            lines.append("Discussion: Broken at the top. Cf. above, p. 4.")
        else:
            lines.append("Discussion: Complete. See BL 8.275.")
        if rng.randint(0, 2) == 0:
            lines.append("Cambridge Books Online https://doi.org/10.1017/CBO9780511584053")
        if rng.randint(0, 4) == 0:
            lines.append("Catalogue of census declarations 312")
    return lines


def _gen_invoice(rng: np.random.RandomState, size_mult: float) -> list[str]:
    inv = int(rng.randint(3_000_000, 3_999_999))
    # NBSP after the colon sometimes: real OCR text carries U+00A0 where
    # the layout had a hard space; Python re's \s matches it, so the
    # vectorized RE2 bank must too (stage equivalence coverage).
    date_sep = "\xa0" if rng.randint(0, 4) == 0 else " "
    header = (
        f"Invoice {inv}\n"
        f"Invoice Date:{date_sep}{_date_str(rng)}\n"
        f"Due Date: {_date_str(rng)}\n"
        f"Customer Number: {int(rng.randint(1000, 9999))}"
    )
    turns = [header]
    n_orders = max(1, int(round(rng.randint(2, 9) * size_mult)))
    for _k in range(n_orders):
        amt_thousands = int(rng.randint(0, 100))
        amt_rest = int(rng.randint(0, 1000))
        amount = f"{amt_thousands} {amt_rest:03d},{int(rng.randint(0, 100)):02d} NOK" if amt_thousands else f"{amt_rest},{int(rng.randint(0, 100)):02d} NOK"
        block = [f"Order No.: {int(rng.randint(700000, 799999))}"]
        block.append(f"Ext. order no. : KO{int(rng.randint(2100000, 2199999))}-{int(rng.randint(1, 9))}")
        block.append(f"Loading date {_date_str(rng)}")
        if rng.randint(0, 3) != 0:  # sometimes omitted → forward-fill (nordic-invoice.py:94-100)
            block.append(f"Delivery date {_date_str(rng)}")
        vessel = _VESSELS[rng.randint(len(_VESSELS))]
        block.append(
            f"Vessel Name: {vessel} - {int(rng.randint(0, 9999)):04d}W Container type: {_CONTAINERS[rng.randint(len(_CONTAINERS))]}"
        )
        block.append(f"Port of loading: {_PORTS[rng.randint(len(_PORTS))]}")
        block.append(f"Port of delivery: {_PORTS[rng.randint(len(_PORTS))]}")
        block.append(f"Total amount without VAT {amount}")
        block.append(f"Tour No.: {int(rng.randint(300000, 399999))}")
        if rng.randint(0, 6) == 0:
            # fragment-level header-pattern text inside an order block: the
            # reference's row.update(extracted) lets this WIN over the
            # conversation-header broadcast (nordic-invoice.py:93) — pins
            # the salted stitch's null-only header fill.
            block.append(f"Invoice {int(rng.randint(3_000_000, 3_999_999))} (credit ref)")
        turns.append("\n".join(block))
    return turns


def _gen_catalog(rng: np.random.RandomState, size_mult: float) -> list[str]:
    lines: list[str] = []
    # junk before the page banner — dropped like remove_duplicate_lines
    # (mobil-oil/mobil-oil-extractor.py:134-144)
    for _ in range(int(rng.randint(0, 3))):
        lines.append("some pre-banner junk text")
    lines.append(_BANNER1)
    lines.append(_BANNER2)
    lines.append("MANUFACTURER-MODEL-ENGINE")
    lines.append("Oil")
    n_mfr = max(1, int(round(rng.randint(1, 4) * size_mult)))
    for _m in range(n_mfr):
        mfr = _MANUFACTURERS[rng.randint(len(_MANUFACTURERS))]
        if rng.randint(0, 5) == 0:
            # continuation header with NBSP separator, as the reference's
            # PDF text carries it (mobil-oil-extractor.py:50-51,56)
            lines.append(f"{mfr}\xa0(cont'd)")
        else:
            lines.append(mfr)
        for _y in range(int(rng.randint(1, 3))):
            year = str(2015 + int(rng.randint(0, 10)))
            if rng.randint(0, 6) == 0:
                lines.append(f"{year}\xa0(cont'd)")
            else:
                lines.append(year)
            for _mo in range(int(rng.randint(1, 4))):
                lines.append(_MODELS[rng.randint(len(_MODELS))])
                for _e in range(int(rng.randint(1, 3))):
                    lines.append(_ENGINES[rng.randint(len(_ENGINES))])
                    n_oils = int(rng.randint(1, 4))
                    for _o in range(n_oils):
                        style = rng.randint(0, 3)
                        if style == 0:
                            lines.append(f"M1-{int(rng.randint(100, 999))}A")
                        elif style == 1:
                            lines.append(f"M1C-{int(rng.randint(100, 999))}B")
                        else:
                            lines.append(f"F{int(rng.randint(10000, 99999))}")
                    if rng.randint(0, 4) == 0:
                        lines.append(_CATALOG_FOOTNOTES[rng.randint(len(_CATALOG_FOOTNOTES))])
    # guard: last line must not look like a manufacturer (ref does lines[i+1])
    lines.append("Premium Filter Recommended. end of section")
    return lines


def _gen_layout(rng: np.random.RandomState, size_mult: float) -> list[str]:
    xs = np.sort(rng.uniform(20.0, 700.0, size=len(FFIEC_COLUMNS)))
    header = [{"col": c, "x": round(float(x), 2)} for c, x in zip(FFIEC_COLUMNS, xs)]
    turns = []
    n_rows = max(2, int(round(rng.randint(4, 20) * size_mult)))
    for i in range(n_rows):
        boxes = []
        # one box per column, jittered to fall inside its column band
        for j, h in enumerate(header):
            if rng.randint(0, 12) == 0 and j != 1:
                continue  # missing cell
            width = (header[j + 1]["x"] - h["x"]) if j + 1 < len(header) else 40.0
            x0 = h["x"] + float(rng.uniform(0.0, max(0.5, width - 1.0)))
            font = "Arial" if rng.randint(0, 10) < 8 else "Helvetica"
            boxes.append(
                {
                    "text": str(int(rng.randint(0, 99999))),
                    "x0": round(x0, 2),
                    "y0": round(100.0 + 12.0 * i, 1),
                    "x1": round(x0 + 10.0, 2),
                    "y1": round(108.0 + 12.0 * i, 1),
                    "font": font,
                    "size": 8.0,
                }
            )
        payload: dict = {"boxes": boxes}
        if i == 0:
            payload["header"] = header
        turns.append(json.dumps(payload, sort_keys=True))
    return turns


def _gen_table(rng: np.random.RandomState, size_mult: float) -> list[str]:
    turns = [json.dumps(_KNR_COLUMNS)]
    n_rows = max(1, int(round(rng.randint(3, 15) * size_mult)))
    for _i in range(n_rows):
        if rng.randint(0, 6) == 0:
            # merged "Total <income> <expense>" first cell → re-split into
            # columns 0/5/6 (knr_property.py:50-55)
            row = [f"Total {int(rng.randint(0, 9999))}.{int(rng.randint(0, 100)):02d} {int(rng.randint(0, 9999))}.{int(rng.randint(0, 100)):02d}",
                   "", "", "", "", "", "", f"{int(rng.randint(0, 99999))}.{int(rng.randint(0, 100)):02d}"]
        else:
            row = [
                _date_str(rng),
                _NAMES[rng.randint(len(_NAMES))],
                ["Rent", "Fee", "Repair", "Deposit"][rng.randint(4)],
                f"R{int(rng.randint(1000, 9999))}",
                "Monthly statement line",
                f"{int(rng.randint(0, 2000))}.{int(rng.randint(0, 100)):02d}",
                f"{int(rng.randint(0, 2000))}.{int(rng.randint(0, 100)):02d}",
                f"{int(rng.randint(0, 99999))}.{int(rng.randint(0, 100)):02d}",
            ]
        turns.append(json.dumps(row))
    return turns


def _gen_grid(rng: np.random.RandomState, size_mult: float) -> list[str]:
    turns = [json.dumps(["QTY", "ITEM", "junk", "CODE", "SIZE", "junk2", "PRICE", "junk3"])]
    n_rows = max(1, int(round(rng.randint(3, 15) * size_mult)))
    for _i in range(n_rows):
        qty = f"{int(rng.randint(1, 99))}|" if rng.randint(0, 3) == 0 else str(int(rng.randint(1, 99)))
        item = f" {int(rng.randint(1000, 9999))} "
        code = f";{int(rng.randint(100, 999))}" if rng.randint(0, 4) == 0 else str(int(rng.randint(100, 999)))
        size = ["1.5L", "750ML", "12OZ", "X", "TOOLONGSIZE99"][rng.randint(5)]
        price = f"{int(rng.randint(1, 99))}.{int(rng.randint(0, 100)):02d}"
        bad1 = "Z" if rng.randint(0, 8) == 0 else "OK"  # len<2 row-drop fodder
        turns.append(json.dumps([qty, bad1 if rng.randint(0, 8) == 0 else item, "x", code, size, "y", price, "z"]))
    return turns


def _gen_layout_boxes(rng: np.random.RandomState, size_mult: float) -> list[str]:
    """Raw-box FFIEC pages for the S8 header DETECTOR: no 'header' payload
    field — turn 0 carries the header as its topmost row band (bold, so the
    Arial data predicate never bins it) plus one data row; later turns are
    data-only pages."""
    xs = np.sort(rng.uniform(20.0, 700.0, size=len(FFIEC_COLUMNS)))
    header_boxes = [
        {
            "text": c,
            "x0": round(float(x), 2),
            "y0": 80.0,
            "x1": round(float(x) + 28.0, 2),
            "y1": 88.0,
            "font": "Arial-Bold",
            "size": 8.0,
        }
        for c, x in zip(FFIEC_COLUMNS, xs)
    ]
    header = [{"col": c, "x": round(float(x), 2)} for c, x in zip(FFIEC_COLUMNS, xs)]
    turns = []
    n_rows = max(2, int(round(rng.randint(4, 20) * size_mult)))
    for i in range(n_rows):
        boxes = []
        for j, h in enumerate(header):
            if rng.randint(0, 12) == 0 and j != 1:
                continue  # missing cell
            width = (header[j + 1]["x"] - h["x"]) if j + 1 < len(header) else 40.0
            x0 = h["x"] + float(rng.uniform(0.0, max(0.5, width - 1.0)))
            font = "Arial" if rng.randint(0, 10) < 8 else "Helvetica"
            boxes.append(
                {
                    "text": str(int(rng.randint(0, 99999))),
                    "x0": round(x0, 2),
                    "y0": 100.0,
                    "x1": round(x0 + 10.0, 2),
                    "y1": 108.0,
                    "font": font,
                    "size": 8.0,
                }
            )
        if i == 0:
            boxes = header_boxes + boxes
        turns.append(json.dumps({"boxes": boxes}, sort_keys=True))
    return turns


_GRID_SIZES = ["1.5L", "750ML", "12OZ", "X", "TOOLONGSIZE99"]


def _gen_grid_boxes(rng: np.random.RandomState, size_mult: float) -> list[str]:
    """Raw-box mancini invoice pages for M40/M41: a PRICE anchor box per
    page, line items placed on the exact explicit grid (6 pt rows, 3.5 pt
    gaps, the 14 fixed vertical lines), po-box / sold-to text inside the
    page-1 crop bboxes."""
    from ..oracle.regions import MANCINI_VERTICAL_LINES, mancini_horizontal_lines

    v = MANCINI_VERTICAL_LINES
    turns = []
    n_pages = max(1, int(round(rng.randint(1, 4) * size_mult)))
    for p in range(n_pages):
        boxes = []
        pb = round(float(rng.uniform(170.0, 185.0)), 1)
        boxes.append({"text": "PRICE", "x0": 612.0, "y0": pb - 6.0, "x1": 650.0,
                      "y1": pb, "font": "Courier", "size": 6.0})
        if p == 0:
            boxes.append({"text": f"P.O. BOX {int(rng.randint(100, 999))}", "x0": 40.0,
                          "y0": 62.0, "x1": 180.0, "y1": 72.0, "font": "Courier", "size": 8.0})
            boxes.append({"text": "SOLD TO:", "x0": 25.0, "y0": 90.0, "x1": 80.0,
                          "y1": 100.0, "font": "Courier", "size": 8.0})
            boxes.append({"text": f"CUSTOMER {int(rng.randint(1000, 9999))}", "x0": 25.0,
                          "y0": 104.0, "x1": 160.0, "y1": 114.0, "font": "Courier", "size": 8.0})
        # rows live between line pairs (2k, 2k+1) of the recurrence
        lines = mancini_horizontal_lines(pb)
        n_items = int(rng.randint(2, 16))
        for k in range(n_items):
            top, bot = lines[2 * k], lines[2 * k + 1]
            cells = {
                0: f"{int(rng.randint(1, 99))}|" if rng.randint(0, 3) == 0 else str(int(rng.randint(1, 99))),
                1: "Z" if rng.randint(0, 8) == 0 else f" {int(rng.randint(1000, 9999))} ",
                2: "x",
                3: f";{int(rng.randint(100, 999))}" if rng.randint(0, 4) == 0 else str(int(rng.randint(100, 999))),
                4: _GRID_SIZES[rng.randint(len(_GRID_SIZES))],
                5: "y",
                6: f"{int(rng.randint(1, 99))}.{int(rng.randint(0, 100)):02d}",
                7: "z",
            }
            if rng.randint(0, 3) == 0:
                cells[8] = f"D{int(rng.randint(0, 99))}"
            for j, textval in cells.items():
                cx = (v[j] + v[j + 1]) / 2.0
                boxes.append(
                    {
                        "text": textval,
                        "x0": round(cx - 2.0, 2),
                        "y0": round(top + 1.0, 2),
                        "x1": round(cx + 2.0, 2),
                        "y1": round(bot - 1.0, 2),
                        "font": "Courier",
                        "size": 6.0,
                    }
                )
        turns.append(json.dumps({"boxes": boxes}, sort_keys=True))
    return turns


_GEN = {
    "census": _gen_census,
    "invoice": _gen_invoice,
    "catalog": _gen_catalog,
    "layout": _gen_layout,
    "table": _gen_table,
    "grid": _gen_grid,
}

def _gen_table_boxes(rng: np.random.RandomState, size_mult: float) -> list[str]:
    """Raw-box KNR statement pages: every page carries its header row as
    the topmost band (the reference's per-page find_tables row 0, skipped
    as data on pages > 0), data rows below, with occasional merged
    'Total <income> <expense>' first cells."""
    xs = np.sort(rng.uniform(20.0, 700.0, size=len(_KNR_COLUMNS)))
    header_boxes = [
        {"text": c, "x0": round(float(x), 2), "y0": 80.0,
         "x1": round(float(x) + 24.0, 2), "y1": 88.0, "font": "Helv-Bold", "size": 8.0}
        for c, x in zip(_KNR_COLUMNS, xs)
    ]

    def cell_box(j: int, textval: str, y0: float) -> dict:
        width = (xs[j + 1] - xs[j]) if j + 1 < len(xs) else 40.0
        x0 = float(xs[j]) + float(rng.uniform(0.0, max(0.5, width - 1.0)))
        return {"text": textval, "x0": round(x0, 2), "y0": round(y0, 1),
                "x1": round(x0 + 10.0, 2), "y1": round(y0 + 8.0, 1),
                "font": "Helv", "size": 8.0}

    turns = []
    n_pages = max(1, int(round(rng.randint(1, 4) * size_mult)))
    for _p in range(n_pages):
        boxes = list(header_boxes)
        n_rows = int(rng.randint(2, 9))
        for i in range(n_rows):
            y0 = 100.0 + 12.0 * i
            if rng.randint(0, 6) == 0:
                total = (f"Total {int(rng.randint(0, 9999))}.{int(rng.randint(0, 100)):02d}"
                         f" {int(rng.randint(0, 9999))}.{int(rng.randint(0, 100)):02d}")
                boxes.append(cell_box(0, total, y0))
                boxes.append(cell_box(7, f"{int(rng.randint(0, 99999))}.{int(rng.randint(0, 100)):02d}", y0))
            else:
                vals = [
                    _date_str(rng),
                    _NAMES[rng.randint(len(_NAMES))],
                    ["Rent", "Fee", "Repair", "Deposit"][rng.randint(4)],
                    f"R{int(rng.randint(1000, 9999))}",
                    "Monthly statement line",
                    f"{int(rng.randint(0, 2000))}.{int(rng.randint(0, 100)):02d}",
                    f"{int(rng.randint(0, 2000))}.{int(rng.randint(0, 100)):02d}",
                    f"{int(rng.randint(0, 99999))}.{int(rng.randint(0, 100)):02d}",
                ]
                for j, v in enumerate(vals):
                    if rng.randint(0, 12) == 0 and j != 0:
                        continue  # missing cell
                    boxes.append(cell_box(j, v, y0))
        turns.append(json.dumps({"boxes": boxes}, sort_keys=True))
    return turns


# raw-box corpus (separate fixture set for the S8/M40/M41 detector paths)
_GEN_BOXES = {
    "layout_boxes": _gen_layout_boxes,
    "grid_boxes": _gen_grid_boxes,
    "table_boxes": _gen_table_boxes,
}
_BOXES_CYCLE = ("layout_boxes", "grid_boxes", "table_boxes")


def conv_turns(conv_index: int, seed: int = 42, cycle=_FAMILY_CYCLE, gens=None) -> tuple[str, str, list[str]]:
    """Deterministically generate one conversation.

    Returns ``(conv_id, family, [turn texts])``. Keyed RNG per conv so any
    subset of convs can be generated independently (and in parallel).
    """
    gens = gens or _GEN
    conv_id = f"conv-{conv_index:06d}"
    family = cycle[conv_index % len(cycle)]
    rng = np.random.RandomState((seed * 1_000_003 + conv_index) % (2**31 - 1))
    size_mult = 20.0 if is_hot_conv(conv_id) else 1.0
    texts = gens[family](rng, size_mult)
    return conv_id, family, texts


def _conv_batch_table(conv_indices: list[int], seed: int, cycle=_FAMILY_CYCLE, gens=None) -> pa.Table:
    conv_ids, turn_idxs, roles, texts, tools, tss = [], [], [], [], [], []
    for ci in conv_indices:
        conv_id, family, turns = conv_turns(ci, seed, cycle, gens)
        for ti, text in enumerate(turns):
            conv_ids.append(conv_id)
            turn_idxs.append(ti)
            roles.append(ROLES[(ci + ti) % 3])
            texts.append(text)
            tools.append(family)
            tss.append(EPOCH_US + ci * 3_600_000_000 + ti * 7_000_000)
    return pa.table(
        {
            "conv_id": pa.array(conv_ids, pa.string()),
            "turn_idx": pa.array(turn_idxs, pa.int32()),
            "role": pa.array(roles, pa.string()),
            "text": pa.array(texts, pa.string()),
            "tool": pa.array(tools, pa.string()),
            "ts": pa.array(tss, pa.timestamp("us")),
        }
    )


def _write_chunk(out_dir: str, chunk_idx: int, conv_lo: int, conv_hi: int,
                 seed: int, shuffle: bool, row_group_size: int,
                 cycle=_FAMILY_CYCLE, gens=None) -> int:
    """Generate one contiguous conv range into one parquet file.

    Deterministic regardless of execution order/parallelism: conv content
    is keyed by conv index, the within-file row permutation by
    ``seed + chunk_idx``.
    """
    table = _conv_batch_table(list(range(conv_lo, conv_hi)), seed, cycle, gens)
    if shuffle:
        perm = np.random.RandomState(seed + chunk_idx).permutation(table.num_rows)
        table = table.take(pa.array(perm))
    pq.write_table(
        table,
        os.path.join(out_dir, f"part-{chunk_idx:05d}.parquet"),
        row_group_size=row_group_size,
    )
    return table.num_rows


def synthesize_transcripts(
    out_dir: str,
    n_convs: int = 50,
    seed: int = 42,
    shuffle: bool = True,
    convs_per_file: int = 2000,
    row_group_size: int = 16_384,
    cycle=_FAMILY_CYCLE,
    gens=None,
    version: int = 7,
) -> str:
    """Write the deterministic transcript corpus as Parquet; returns the dir.

    Rows are written in a deterministic *shuffled* order (seeded per-file
    permutation) so consumers cannot rely on file order for turn order.
    Small row groups on purpose: Ray Data splits parquet read tasks at
    row-group granularity, so single-row-group files would cap read (and
    downstream) parallelism at the file count.

    Generation is chunked per conv range; when a Ray session is live the
    chunks run as parallel Ray tasks (pure deterministic functions — output
    is byte-identical to the serial path). Idempotent via a manifest.
    """
    manifest_path = os.path.join(out_dir, "_manifest.json")
    spec = {"n_convs": n_convs, "seed": seed, "shuffle": shuffle,
            "convs_per_file": convs_per_file, "version": version,
            "families": list(cycle)}
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path) as f:
                if json.load(f) == spec:
                    return out_dir
        except (json.JSONDecodeError, OSError):
            pass
    os.makedirs(out_dir, exist_ok=True)
    for old in os.listdir(out_dir):
        if old.endswith(".parquet"):
            os.remove(os.path.join(out_dir, old))

    chunks = [
        (i, lo, min(lo + convs_per_file, n_convs))
        for i, lo in enumerate(range(0, n_convs, convs_per_file))
    ]

    use_ray = False
    if len(chunks) > 2:
        try:
            import ray

            use_ray = ray.is_initialized()
        except ImportError:
            pass

    if use_ray:
        import ray

        from ..runtime import remote_fn

        gen = remote_fn(_write_chunk)
        ray.get(
            [
                gen.remote(out_dir, i, lo, hi, seed, shuffle, row_group_size, cycle, gens)
                for i, lo, hi in chunks
            ]
        )
    else:
        for i, lo, hi in chunks:
            _write_chunk(out_dir, i, lo, hi, seed, shuffle, row_group_size, cycle, gens)

    with open(manifest_path, "w") as f:
        json.dump(spec, f)
    return out_dir


# conv counts per driver scale-factor directory: sized so sf0.01 ≈ 60k turns
_SF_CONVS = {
    "sf0.001": 120, "sf0.01": 1200, "sf0.1": 12000,
    # the 10x scale-up dir built by tools/make_scaled_sf.py (r5 sf1 bench)
    "pdfx_sf1": 120000,
}


def transcripts_path_for_sf(sf_dir: str, cache_root: str = "/tmp/pdfx_transcripts") -> str:
    """Deterministic transcript corpus matched to a testdata scale factor.

    The driver's tables live in ``/root/testdata/sf*``; transcripts are OUR
    synthetic input (FIXTURES.md §4) — cached under /tmp, keyed by sf name.
    """
    sf_name = os.path.basename(os.path.normpath(sf_dir))
    n_convs = _SF_CONVS.get(sf_name, 1200)
    out = os.path.join(cache_root, sf_name)
    return synthesize_transcripts(out, n_convs=n_convs)


def synthesize_box_transcripts(out_dir: str, n_convs: int = 50, seed: int = 42) -> str:
    """Deterministic RAW-BOX corpus for the detector paths (S8/M40/M41):
    families ``layout_boxes`` (header detected from the topmost band) and
    ``grid_boxes`` (mancini explicit grid + crops)."""
    return synthesize_transcripts(
        out_dir, n_convs=n_convs, seed=seed,
        cycle=_BOXES_CYCLE, gens=_GEN_BOXES, version=2,
    )


# conv counts for the raw-box corpus per driver scale-factor directory
_SF_BOX_CONVS = {"sf0.001": 40, "sf0.01": 400, "sf0.1": 4000}


def boxes_path_for_sf(sf_dir: str, cache_root: str = "/tmp/pdfx_boxes") -> str:
    """Raw-box corpus matched to a testdata scale factor (cached)."""
    sf_name = os.path.basename(os.path.normpath(sf_dir))
    n_convs = _SF_BOX_CONVS.get(sf_name, 400)
    out = os.path.join(cache_root, sf_name)
    return synthesize_box_transcripts(out, n_convs=n_convs)


def read_transcripts(path: str, columns: list[str] | None = None):
    """Ray Dataset over a transcript Parquet directory (column-pruned read,
    byte-derived block count; small floor — the consumers are regex-heavy
    per-turn kernels that want compute parallelism even on small corpora)."""
    from ..runtime import read_parquet_sized

    return read_parquet_sized(path, columns=columns, floor_bytes=512 << 10)
