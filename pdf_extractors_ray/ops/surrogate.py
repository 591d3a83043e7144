"""Driver-checkable surrogate oracles for the extraction kernels.

The transcript-extraction families are ordered stateful folds with no SQL
equivalent, so the driver's hard correctness signal (Ray vs DuckDB at
sf0.01) never touches the per-turn extraction kernels. These queries close
that gap: each renders a deterministic extraction-shaped input from the
driver's own ``documents`` table — with the SAME construction expressed in
pandas on the engine side and in SQL on the oracle side — then runs the
ACTUAL production kernel (the vectorized invoice RE2 bank, the catalog
boilerplate predicate and oil-code regex, the census key splitters and
brokenness flag, the persons sex/age extractors) against a DuckDB
``regexp_extract`` / ``string_split`` / ``CASE WHEN`` equivalent.

The SQL is *generated from the same literal banks the kernels use*
(``oracle/catalog._SKIP_LITERALS``, ``oracle/invoice.PATTERNS``, ...).
Division of labor: these queries pin the kernels' EXECUTION semantics
(pyarrow-RE2 vs DuckDB-RE2 vs Python-re behavior, the named-group / NBSP
pattern derivation, predicate logic, splitter edge cases) — an edit to a
shared literal bank moves both sides together and is instead pinned by the
reference differentials (tests/test_reference_differential.py), which
import the reference's own banks.

Reference parity targets:
- invoice bank     nordic-logistics-invoice/nordic-invoice.py:8-23
- boilerplate      mobil-oil/mobil-oil-extractor.py:6-29
- oil codes        mobil-oil/mobil-oil-extractor.py:99 (RE_OILCODE)
- key splitters    roman-census/household.py:221-232
- brokenness flag  roman-census/household.py:203-207
- sex/age coders   roman-census/persons.py:50-128
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

from ..oracle import catalog as _cat
from ..oracle import census as _cen
from ..oracle import invoice as _inv
from ..oracle import persons as _per

# ---------------------------------------------------------------------------
# shared deterministic renderers (Python side) + their SQL twins


def _docs(sf_dir: str, columns=None):
    from ..runtime import read_parquet_sized

    return read_parquet_sized(os.path.join(sf_dir, "documents.parquet"), columns=columns)


def _sql_quote(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


def _rendered_turns(sf_dir: str, render):
    """Dataset of rendered conversation turns (conv_id = str(doc_id), int32
    turn_idx, text): ``render(doc_id)`` gives one document's (turn_idx,
    text) pairs."""

    def turns(batch: pd.DataFrame) -> pd.DataFrame:
        conv, tidx, text = [], [], []
        for i in batch["doc_id"]:
            for pos, payload in render(int(i)):
                conv.append(str(int(i)))
                tidx.append(pos)
                text.append(payload)
        return pd.DataFrame(
            {"conv_id": conv, "turn_idx": np.asarray(tidx, dtype=np.int32), "text": text}
        )

    return _docs(sf_dir, columns=["doc_id"]).map_batches(turns, batch_format="pandas")


def _blank(batch, col: str):
    """A string column with nulls as '' (what DuckDB's ``regexp_extract``
    and the twins' ``COALESCE`` give)."""
    import pyarrow.compute as pc

    return pc.coalesce(batch[col], "")


def _sql_case_options(options: list[str], n_col: str = "doc_id") -> str:
    """``CASE doc_id % N WHEN i THEN '<opt_i>' ... END`` over a literal list."""
    n = len(options)
    whens = " ".join(
        f"WHEN {i} THEN {_sql_quote(opt)}" for i, opt in enumerate(options)
    )
    return f"(CASE {n_col} % {n} {whens} END)"


# --- invoice regex bank -----------------------------------------------------

# the widened-\s (NBSP-matching) twin of the bank, shared with the
# vectorized stage; group 1 is the single capturing group in every pattern
_SQL_INV_PATTERNS = {
    name: p.replace(r"\s", r"[\s\x{00A0}]") for name, p in _inv.PATTERNS.items()
}

# driver-safe output column per bank field
_INV_COLS = {
    "Invoice": "inv_no",
    "Invoice Date": "inv_date",
    "Order No.": "order_no",
    "Ext. order no.": "ext_order_no",
    "Customer Number": "customer_no",
    "Loading date": "loading_date",
    "Delivery date": "delivery_date",
    "Vessel Name": "vessel",
    "Port of loading": "port_loading",
    "Port of delivery": "port_delivery",
    "Total amount without VAT": "total_amount",
    "Due Date": "due_date",
    "Tour No.": "tour_no",
}


def _py_date(d: int, m: int, y: int) -> str:
    return f"{d:02d}.{m:02d}.{y}"


def _render_invoice_py(doc_id: int, text: str) -> str:
    sep = "\xa0" if doc_id % 4 == 0 else " "
    d1 = _py_date(doc_id % 28 + 1, doc_id % 12 + 1, 2020 + doc_id % 6)
    d2 = _py_date(doc_id % 27 + 1, doc_id % 11 + 1, 2021 + doc_id % 5)
    return (
        f"Invoice {3000000 + doc_id}\n"
        f"Invoice Date:{sep}{d1}\n"
        f"Due Date: {d2}\n"
        f"Customer Number: {1000 + doc_id % 9000}\n"
        f"Order No.: {700000 + doc_id % 100000}\n"
        f"Ext. order no. : KO{2100000 + doc_id % 100000}-{1 + doc_id % 8}\n"
        f"Loading date {d1}\n"
        f"Delivery date {d2}\n"
        f"Vessel Name: {text[:12]} Container type: 40HC\n"
        f"Port of loading: {text[:20]}\n"
        f"Port of delivery: {text[:20]}\n"
        f"Total amount without VAT {10 + doc_id % 90} {doc_id % 1000:03d},{doc_id % 100:02d} NOK\n"
        f"Tour No.: {300000 + doc_id % 100000}"
    )


def _sql_pad(expr: str, width: int) -> str:
    return f"lpad(CAST({expr} AS VARCHAR), {width}, '0')"


def _sql_date(dexpr: str, mexpr: str, yexpr: str) -> str:
    return (
        f"{_sql_pad(dexpr, 2)} || '.' || {_sql_pad(mexpr, 2)} || '.' || "
        f"CAST({yexpr} AS VARCHAR)"
    )


def _sql_render_invoice() -> str:
    d1 = _sql_date("doc_id % 28 + 1", "doc_id % 12 + 1", "2020 + doc_id % 6")
    d2 = _sql_date("doc_id % 27 + 1", "doc_id % 11 + 1", "2021 + doc_id % 5")
    nl = "chr(10)"
    sep = "(CASE WHEN doc_id % 4 = 0 THEN chr(160) ELSE ' ' END)"
    parts = [
        f"'Invoice ' || CAST(3000000 + doc_id AS VARCHAR)",
        f"'Invoice Date:' || {sep} || {d1}",
        f"'Due Date: ' || {d2}",
        "'Customer Number: ' || CAST(1000 + doc_id % 9000 AS VARCHAR)",
        "'Order No.: ' || CAST(700000 + doc_id % 100000 AS VARCHAR)",
        "'Ext. order no. : KO' || CAST(2100000 + doc_id % 100000 AS VARCHAR)"
        " || '-' || CAST(1 + doc_id % 8 AS VARCHAR)",
        f"'Loading date ' || {d1}",
        f"'Delivery date ' || {d2}",
        "'Vessel Name: ' || substr(text, 1, 12) || ' Container type: 40HC'",
        "'Port of loading: ' || substr(text, 1, 20)",
        "'Port of delivery: ' || substr(text, 1, 20)",
        "'Total amount without VAT ' || CAST(10 + doc_id % 90 AS VARCHAR)"
        f" || ' ' || {_sql_pad('doc_id % 1000', 3)} || ',' || {_sql_pad('doc_id % 100', 2)} || ' NOK'",
        "'Tour No.: ' || CAST(300000 + doc_id % 100000 AS VARCHAR)",
    ]
    return f" || {nl} || ".join(f"({p})" for p in parts)


def extract_kernel_invoice_bank(sf_dir: str):
    """All 13 invoice bank fields via the PRODUCTION vectorized stage
    (``stages.invoice_extract.InvoiceFieldExtractor`` — the same RE2 bank
    the extract_invoice pipeline runs), over deterministically rendered
    invoice text; the DuckDB oracle re-renders the identical text in SQL
    and extracts with ``regexp_extract``."""
    import pyarrow as pa

    from ..stages.invoice_extract import FIELD_PREFIX, InvoiceFieldExtractor

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def render(batch: pd.DataFrame) -> pd.DataFrame:
        rendered = [
            _render_invoice_py(int(i), t)
            for i, t in zip(batch["doc_id"], batch["text"])
        ]
        return pd.DataFrame({"doc_id": batch["doc_id"], "text": rendered})

    extractor = InvoiceFieldExtractor

    def project(batch: pa.Table) -> pa.Table:
        cols = {"doc_id": batch["doc_id"]}
        for field, out_name in _INV_COLS.items():
            # DuckDB regexp_extract yields '' on no-match; align nulls
            cols[out_name] = _blank(batch, FIELD_PREFIX + field)
        return pa.table(cols)

    return (
        ds.map_batches(render, batch_format="pandas")
        .map_batches(extractor(), batch_format="pyarrow")
        .map_batches(project, batch_format="pyarrow")
        .sort("doc_id")
    )


def _invoice_bank_sql() -> str:
    rendered = _sql_render_invoice()
    fields = ",\n       ".join(
        f"regexp_extract(rendered, {_sql_quote(pat)}, 1) AS {_INV_COLS[name]}"
        for name, pat in _SQL_INV_PATTERNS.items()
    )
    return f"""
SELECT doc_id,
       {fields}
FROM (SELECT doc_id, {rendered} AS rendered FROM documents)
ORDER BY doc_id
"""


EXTRACT_KERNEL_INVOICE_SQL = _invoice_bank_sql()


# --- catalog boilerplate predicate -----------------------------------------

_BOILER_OPTIONS = (
    sorted(_cat._SKIP_LITERALS)
    + [p + " trailing explanatory words" for p in _cat._SKIP_PREFIXES]
    + ["BMW", "2020", "L4 2.0L F.I.", "M1-103A", "ACURA\xa0(cont'd)", "Charger"]
)


def extract_kernel_boilerplate(sf_dir: str):
    """The catalog skip predicate (``oracle.catalog.is_boilerplate_line`` —
    literals + startswith prefixes, NBSP literals byte-for-byte) vs a
    generated IN + LIKE oracle over the same literal banks."""
    ds = _docs(sf_dir, columns=["doc_id"])
    options = list(_BOILER_OPTIONS)

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        lines = [options[int(i) % len(options)] for i in batch["doc_id"]]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "line": lines,
                "is_boiler": np.array(
                    [int(_cat.is_boilerplate_line(ln)) for ln in lines], dtype=np.int64
                ),
            }
        )

    return ds.map_batches(derive, batch_format="pandas").sort("doc_id")


def _boilerplate_sql() -> str:
    line = _sql_case_options(_BOILER_OPTIONS)
    literals = ", ".join(_sql_quote(s) for s in sorted(_cat._SKIP_LITERALS))
    # LIKE needs %/_ escaping; none of the prefixes contain them
    prefixes = " OR ".join(
        f"line LIKE {_sql_quote(p + '%')}" for p in _cat._SKIP_PREFIXES
    )
    return f"""
SELECT doc_id, line,
       CAST(CASE WHEN line IN ({literals}) OR {prefixes} THEN 1 ELSE 0 END AS BIGINT) AS is_boiler
FROM (SELECT doc_id, {line} AS line FROM documents)
ORDER BY doc_id
"""


EXTRACT_KERNEL_BOILERPLATE_SQL = _boilerplate_sql()


# --- catalog oil-code regex -------------------------------------------------


def _render_oilline_py(doc_id: int) -> str:
    styles = [
        "M1-{a}A",
        "F{b} extra words",
        "Pri. F{b} Sec. L/F",
        "w/ Oil Cooler M1C-{a}B",
        "M1-{a}A F{b} junk tail",
        "no codes in this line",
        "M1C-{a}B",
    ]
    s = styles[doc_id % len(styles)]
    return s.format(a=100 + doc_id % 900, b=10000 + doc_id % 90000)


def extract_kernel_oilcodes(sf_dir: str):
    """``RE_OILCODE.findall`` (the catalog machine's oil-code bank) vs
    DuckDB ``regexp_extract_all`` with the identical RE2 pattern."""
    ds = _docs(sf_dir, columns=["doc_id"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        lines = [_render_oilline_py(int(i)) for i in batch["doc_id"]]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "line": lines,
                "codes": ["|".join(_cat.RE_OILCODE.findall(ln)) for ln in lines],
            }
        )

    return ds.map_batches(derive, batch_format="pandas").sort("doc_id")


def _oilcodes_sql() -> str:
    opts = [_render_oilline_py(i) for i in range(7)]
    # regenerate the doc_id-dependent numbers in SQL instead of literals:
    # simpler and exact — CASE selects the same template per doc_id % 7
    a = "CAST(100 + doc_id % 900 AS VARCHAR)"
    b = "CAST(10000 + doc_id % 90000 AS VARCHAR)"
    templates = [
        f"'M1-' || {a} || 'A'",
        f"'F' || {b} || ' extra words'",
        f"'Pri. F' || {b} || ' Sec. L/F'",
        f"'w/ Oil Cooler M1C-' || {a} || 'B'",
        f"'M1-' || {a} || 'A F' || {b} || ' junk tail'",
        "'no codes in this line'",
        f"'M1C-' || {a} || 'B'",
    ]
    whens = " ".join(f"WHEN {i} THEN ({t})" for i, t in enumerate(templates))
    line = f"(CASE doc_id % {len(templates)} {whens} END)"
    pat = _sql_quote(_cat.RE_OILCODE.pattern)
    del opts
    return f"""
SELECT doc_id, line,
       COALESCE(array_to_string(regexp_extract_all(line, {pat}), '|'), '') AS codes
FROM (SELECT doc_id, {line} AS line FROM documents)
ORDER BY doc_id
"""


EXTRACT_KERNEL_OILCODES_SQL = _oilcodes_sql()


# --- census key splitters + brokenness flag ---------------------------------

_LOC_OPTS = ["Ar", "Ox", "He", "Me"]


def _render_hn_py(doc_id: int) -> str:
    y, loc, n = 103 + doc_id % 150, _LOC_OPTS[doc_id % 4], 1 + doc_id % 29
    style = doc_id % 3
    if style == 0:
        return f"{y}-{loc}-{n}"
    if style == 1:
        return f"{y}-{loc}"  # 2-part → padded with ''
    return f" {y} {loc} {n} "  # space-separated + outer whitespace


def extract_kernel_household_key(sf_dir: str):
    """``oracle.census.split_household_number`` (strip → space→dash →
    split('-') → pad to 3) vs DuckDB string_split."""
    ds = _docs(sf_dir, columns=["doc_id"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        hns = [_render_hn_py(int(i)) for i in batch["doc_id"]]
        parts = [_cen.split_household_number(hn) for hn in hns]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "hn": hns,
                "hn_year": [p[0] for p in parts],
                "hn_location": [p[1] for p in parts],
                "hn_order": [p[2] for p in parts],
            }
        )

    return ds.map_batches(derive, batch_format="pandas").sort("doc_id")


def _household_key_sql() -> str:
    y = "CAST(103 + doc_id % 150 AS VARCHAR)"
    loc = _sql_case_options(_LOC_OPTS)
    n = "CAST(1 + doc_id % 29 AS VARCHAR)"
    hn = (
        f"(CASE doc_id % 3 "
        f"WHEN 0 THEN {y} || '-' || {loc} || '-' || {n} "
        f"WHEN 1 THEN {y} || '-' || {loc} "
        f"ELSE ' ' || {y} || ' ' || {loc} || ' ' || {n} || ' ' END)"
    )
    parts = "string_split(replace(trim(hn), ' ', '-'), '-')"
    return f"""
SELECT doc_id, hn,
       list_extract({parts}, 1) AS hn_year,
       list_extract({parts}, 2) AS hn_location,
       COALESCE(list_extract({parts}, 3), '') AS hn_order
FROM (SELECT doc_id, {hn} AS hn FROM documents)
ORDER BY doc_id
"""


EXTRACT_KERNEL_HOUSEHOLD_KEY_SQL = _household_key_sql()


_DISCUSSION_OPTS = [
    "Broken at the top. Cf. above, p. 4.",
    "Complete. See BL 8.275.",
    "Edges slightly broken; text otherwise legible.",
    "Intact record, no damage noted.",
    "See discussion above.",
]


def extract_kernel_broken_flag(sf_dir: str):
    """``oracle.census.broken_flag`` ('Broken'/'broken' substring → Yes/No)
    vs a CASE WHEN LIKE oracle."""
    ds = _docs(sf_dir, columns=["doc_id"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        discs = [_DISCUSSION_OPTS[int(i) % len(_DISCUSSION_OPTS)] for i in batch["doc_id"]]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "discussion": discs,
                "broken": [_cen.broken_flag(d) for d in discs],
            }
        )

    return ds.map_batches(derive, batch_format="pandas").sort("doc_id")


def _broken_flag_sql() -> str:
    disc = _sql_case_options(_DISCUSSION_OPTS)
    return f"""
SELECT doc_id, discussion,
       CASE WHEN discussion LIKE '%Broken%' OR discussion LIKE '%broken%'
            THEN 'Yes' ELSE 'No' END AS broken
FROM (SELECT doc_id, {disc} AS discussion FROM documents)
ORDER BY doc_id
"""


EXTRACT_KERNEL_BROKEN_FLAG_SQL = _broken_flag_sql()


# --- persons member-line coders ---------------------------------------------

_RELTOK_OPTS = ["s.", "d.", "?s.", "?d.", "s./d."]
# get_sex outcomes for each reltok under mtype='F' (persons.py:50-101)
_SEX_FOR_RELTOK = {
    "s.": "male",
    "d.": "female",
    "?s.": "possible male",
    "?d.": "possible female",
    "s./d.": "male or female",
}


def _render_member_py(doc_id: int) -> str:
    tok = _RELTOK_OPTS[doc_id % len(_RELTOK_OPTS)]
    if doc_id % 7 == 0:
        age_part = ", age lost"
    elif doc_id % 7 == 1:
        age_part = ", age not given"
    else:
        age_part = f", {18 + doc_id % 60}"
    return f"({1 + doc_id % 9}) Alpha{doc_id} {tok} Beta and Gamma{age_part}"


def extract_kernel_member_coders(sf_dir: str):
    """The persons member-line coders — ``strip_member_number`` (M7),
    ``get_sex`` (M8) and ``get_age`` (M9) — vs regexp_replace /
    CASE / regexp_extract oracles on identically rendered member lines."""
    ds = _docs(sf_dir, columns=["doc_id"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        lines = [_render_member_py(int(i)) for i in batch["doc_id"]]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "member_line": lines,
                "stripped": [_per.strip_member_number(ln) for ln in lines],
                "sex": [_per.get_sex(ln, "F") for ln in lines],
                "age": [_per.get_age(ln) for ln in lines],
            }
        )

    return ds.map_batches(derive, batch_format="pandas").sort("doc_id")


def _member_coders_sql() -> str:
    tok = _sql_case_options(_RELTOK_OPTS)
    sex = _sql_case_options([_SEX_FOR_RELTOK[t] for t in _RELTOK_OPTS])
    age_part = (
        "(CASE doc_id % 7 WHEN 0 THEN ', age lost' WHEN 1 THEN ', age not given' "
        "ELSE ', ' || CAST(18 + doc_id % 60 AS VARCHAR) END)"
    )
    line = (
        f"('(' || CAST(1 + doc_id % 9 AS VARCHAR) || ') Alpha' || CAST(doc_id AS VARCHAR)"
        f" || ' ' || {tok} || ' Beta and Gamma' || {age_part})"
    )
    # get_age: literal branches first, then the (?<=;\s|,\s) regex — RE2 has
    # no lookbehind, so the SQL twin includes the separator in the match and
    # captures group 1 (equivalent for these single-match lines)
    age = (
        "CASE WHEN member_line LIKE '%age lost%' THEN 'age lost' "
        "WHEN member_line LIKE '%age not given%' THEN 'age not given' "
        r"ELSE regexp_extract(member_line, '[;,] ([\[\.\]]*[0-9].*)', 1) END"
    )
    return f"""
SELECT doc_id, member_line,
       regexp_replace(member_line, '^\\s*\\(\\d+\\)\\s*', '') AS stripped,
       {sex} AS sex,
       {age} AS age
FROM (SELECT doc_id, {line} AS member_line FROM documents)
ORDER BY doc_id
"""


EXTRACT_KERNEL_MEMBER_CODERS_SQL = _member_coders_sql()


# --- invoice FOLD: header broadcast + LOCF at pipeline level ----------------
#
# extract_kernel_invoice_bank pins the per-fragment regex bank; this query
# pins the FOLD that consumes it (M26 fragmenter ':'-quirk, M27 header
# broadcast incl. the has-Invoice guard, M28 delivery-date LOCF) by running
# the PRODUCTION pipeline stages (InvoiceFieldExtractor -> fold_conv_ranges
# with _fold_invoice_partition — the same objects extract_invoice
# composes) over deterministically rendered fragment
# conversations, against a DuckDB window-SQL twin
# (LAST_VALUE ... IGNORE NULLS per conversation ordered by fragment).
# Reference semantics: nordic-logistics-invoice/nordic-invoice.py:65-100.

_FOLD_MAX_ORDERS = 4


def _render_fold_frags_py(doc_id: int) -> list[tuple[int, str]]:
    """Fragments (turn_idx, text) for one rendered invoice conversation."""
    d1 = _py_date(doc_id % 28 + 1, doc_id % 12 + 1, 2020 + doc_id % 6)
    d2 = _py_date(doc_id % 27 + 1, doc_id % 11 + 1, 2021 + doc_id % 5)
    if doc_id % 5 == 1:
        # header WITHOUT the 'Invoice' line: the fold's has-Invoice guard
        # must null ALL FOUR broadcast fields even though the others match
        header = f"Invoice Date: {d1}\nDue Date: {d2}\nCustomer Number: {1000 + doc_id % 9000}"
    else:
        header = (
            f"Invoice {3000000 + doc_id}\nInvoice Date: {d1}\n"
            f"Due Date: {d2}\nCustomer Number: {1000 + doc_id % 9000}"
        )
    frags = [(0, header)]
    n_orders = 2 + doc_id % 3
    for pos in range(1, n_orders + 1):
        ono = 700000 + (doc_id * 10 + pos) % 100000
        if (doc_id + pos) % 5 == 0:
            # fragment with no extractable fields -> fold skips the row
            frags.append((pos, "freight manifest continues"))
            continue
        if (doc_id + pos) % 4 == 0:
            # lost-anchor quirk: split ate the 'Order No.' prefix
            text = f": {ono}"
        else:
            text = f"Order No.: {ono}"
        if (doc_id + pos) % 3 == 0:
            dd = _py_date((doc_id + pos) % 28 + 1, (doc_id + pos) % 12 + 1,
                          2022 + (doc_id + pos) % 4)
            text += f"\nDelivery date {dd}"
        frags.append((pos, text))
    return frags


def extract_kernel_invoice_fold(sf_dir: str):
    import pyarrow as pa

    from ..pipelines.extract import _fold_invoice_partition
    from ..stages.fold import fold_conv_ranges
    from ..stages.invoice_extract import InvoiceFieldExtractor

    folded = fold_conv_ranges(
        _rendered_turns(sf_dir, _render_fold_frags_py)
        .map_batches(InvoiceFieldExtractor(), batch_format="pyarrow"),
        _fold_invoice_partition,
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["conv_id"].cast(pa.int64()),
                "page": _blank(batch, "Page"),
                "inv_no": _blank(batch, "Invoice"),
                "inv_date": _blank(batch, "Invoice Date"),
                "due_date": _blank(batch, "Due Date"),
                "customer_no": _blank(batch, "Customer Number"),
                "order_no": _blank(batch, "Order No."),
                "delivery_date": _blank(batch, "Delivery date"),
            }
        )

    return folded.map_batches(project, batch_format="pyarrow").sort(["doc_id", "page"])


def _invoice_fold_sql() -> str:
    d1 = _sql_date("doc_id % 28 + 1", "doc_id % 12 + 1", "2020 + doc_id % 6")
    d2 = _sql_date("doc_id % 27 + 1", "doc_id % 11 + 1", "2021 + doc_id % 5")
    d3 = _sql_date("(doc_id + pos) % 28 + 1", "(doc_id + pos) % 12 + 1",
                   "2022 + (doc_id + pos) % 4")
    positions = ", ".join(f"({p})" for p in range(1, _FOLD_MAX_ORDERS + 1))
    return f"""
WITH frags AS (
    SELECT doc_id, pos
    FROM documents CROSS JOIN (VALUES {positions}) p(pos)
    WHERE pos <= 2 + doc_id % 3 AND (doc_id + pos) % 5 <> 0
),
rows_ AS (
    SELECT doc_id, pos,
        CASE WHEN doc_id % 5 = 1 THEN NULL
             ELSE CAST(3000000 + doc_id AS VARCHAR) END AS inv_no,
        CASE WHEN doc_id % 5 = 1 THEN NULL ELSE {d1} END AS inv_date,
        CASE WHEN doc_id % 5 = 1 THEN NULL ELSE {d2} END AS due_date,
        CASE WHEN doc_id % 5 = 1 THEN NULL
             ELSE CAST(1000 + doc_id % 9000 AS VARCHAR) END AS customer_no,
        CAST(700000 + (doc_id*10 + pos) % 100000 AS VARCHAR) AS order_no,
        CASE WHEN (doc_id + pos) % 3 = 0 THEN {d3} END AS delivery_frag
    FROM frags
)
SELECT doc_id,
       CAST(pos AS VARCHAR) AS page,
       COALESCE(inv_no, '') AS inv_no,
       COALESCE(inv_date, '') AS inv_date,
       COALESCE(due_date, '') AS due_date,
       COALESCE(customer_no, '') AS customer_no,
       COALESCE(order_no, '') AS order_no,
       COALESCE(LAST_VALUE(delivery_frag IGNORE NULLS) OVER (
           PARTITION BY doc_id ORDER BY pos
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), '') AS delivery_date
FROM rows_
ORDER BY doc_id, page
"""


EXTRACT_KERNEL_INVOICE_FOLD_SQL = _invoice_fold_sql()


# ---------------------------------------------------------------------------
# layout fold surrogate: pins the word-box → column-binned-row FOLD
# (S7 header discovery incl. the wait-for-header path, M29 "last bin below"
# x-binning with boundary-exact and left-of-first-bin boxes, M30 turn-0/late
# header capture, M31 font predicate, and the County-Code completeness
# gate) by running the PRODUCTION path — fold_conversations over
# oracle.layout.extract_layout_conv, exactly what pipelines.extract_layout
# composes — on deterministically rendered box-JSON conversations, against a
# closed-form DuckDB twin. Reference semantics:
# us-ffiec-demographic-Info/ffiec-census.py:40-77.

_LAYOUT_HEADER = [
    ("State Code", 50.0),
    ("County Code", 150.0),
    ("Tract Code", 250.0),
    ("Tract Population", 350.0),
]


def _render_layout_turns_py(doc_id: int) -> list[tuple[int, str]]:
    """(turn_idx, box-JSON) turns for one rendered layout conversation."""
    import json

    header = [{"col": c, "x": x} for c, x in _LAYOUT_HEADER]
    turns: list[tuple[int, str]] = []
    if doc_id % 7 == 0:
        # late header: turn 0 carries boxes but NO header — the fold must
        # skip it (header not yet discovered), then pick the header off
        # turn 1 and keep binning from there
        turns.append((0, json.dumps({"boxes": [{"text": "orphan", "x0": 160.0, "font": "Arial"}]})))
        turns.append((1, json.dumps({"header": header})))
        off = 2
    else:
        turns.append((0, json.dumps({"header": header})))
        off = 1
    for pos in range(1, 2 + doc_id % 3 + 1):
        # left of the first header x → bins to '' → dropped
        boxes = [{"text": "LX", "x0": 10.0, "font": "Arial"}]
        boxes.append({"text": str(doc_id % 50), "x0": 50.0 + doc_id % 5, "font": "Arial"})
        if (doc_id + pos) % 4 != 0:
            # County omitted every 4th row → completeness predicate drops it
            boxes.append({"text": f"C{(doc_id * 10 + pos) % 997}", "x0": 150.0, "font": "Arial"})
        # non-Arial box in the Tract bin: font predicate must ignore it
        boxes.append({"text": "JUNK", "x0": 250.0, "font": "Times"})
        if (doc_id + pos) % 3 == 0:
            # two Arial boxes in the same bin: last one wins
            boxes.append({"text": "overwritten", "x0": 251.0, "font": "Arial"})
            boxes.append({"text": f"T{(doc_id + pos) % 89}", "x0": 260.0, "font": "Arial"})
        # boundary-exact x0 == last header x → last column
        boxes.append({"text": str((doc_id * 7 + pos) % 10000), "x0": 350.0, "font": "Arial"})
        turns.append((off + pos - 1, json.dumps({"boxes": boxes})))
    return turns


def extract_kernel_layout_fold(sf_dir: str):
    import pyarrow as pa

    from ..oracle import layout as _lay
    from ..pipelines import schemas
    from ..stages.fold import fold_conversations

    folded = fold_conversations(
        _rendered_turns(sf_dir, _render_layout_turns_py),
        _lay.extract_layout_conv,
        schemas.LAYOUT_SCHEMA,
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["conv_id"].cast(pa.int64()),
                "ref_turn": batch["ref_turn"].cast(pa.int64()),
                "state_code": _blank(batch, "State Code"),
                "county_code": _blank(batch, "County Code"),
                "tract_code": _blank(batch, "Tract Code"),
                "tract_population": _blank(batch, "Tract Population"),
            }
        )

    return folded.map_batches(project, batch_format="pyarrow").sort(["doc_id", "ref_turn"])


EXTRACT_KERNEL_LAYOUT_FOLD_SQL = """
WITH rows_ AS (
    SELECT doc_id, pos
    FROM documents CROSS JOIN (VALUES (1), (2), (3), (4)) p(pos)
    WHERE pos <= 2 + doc_id % 3 AND (doc_id + pos) % 4 <> 0
)
SELECT doc_id,
       CAST(pos + CASE WHEN doc_id % 7 = 0 THEN 1 ELSE 0 END AS BIGINT) AS ref_turn,
       CAST(doc_id % 50 AS VARCHAR) AS state_code,
       'C' || CAST((doc_id * 10 + pos) % 997 AS VARCHAR) AS county_code,
       CASE WHEN (doc_id + pos) % 3 = 0
            THEN 'T' || CAST((doc_id + pos) % 89 AS VARCHAR) ELSE '' END AS tract_code,
       CAST((doc_id * 7 + pos) % 10000 AS VARCHAR) AS tract_population
FROM rows_
ORDER BY doc_id, ref_turn
"""


# ---------------------------------------------------------------------------
# catalog fold surrogate: pins the catalog STATE MACHINE fold (M36) at
# pipeline level — banner gating, the 'Oil' validity gate, the
# manufacturer-needs-year LOOKAHEAD, the NBSP (cont'd) manufacturer/year
# splits, SAAB's dotted-model regime, the (Electric/Gas) engine
# continuation, flush-on-year-transition, oil-code dedup-on-emit (M37) and
# the trailing end-of-conversation flush — by running the PRODUCTION path
# (fold_conversations over oracle.catalog.extract_catalog_conv, exactly
# what pipelines.extract_catalog composes) on deterministically rendered
# one-line-per-turn conversations, against a closed-form DuckDB twin.
# Reference semantics: mobil-oil/mobil-oil-extractor.py:31-121.


def _render_catalog_lines_py(doc_id: int) -> list[str]:
    from ..oracle.catalog import BANNER

    lines: list[str] = []
    if doc_id % 3 == 0:
        lines.append("Not yet started noise")  # pre-banner → ignored
    lines.append(BANNER)
    if doc_id % 4 == 1:
        lines.append("Ignored Pre Oil Model")  # post-banner, pre-'Oil' → ignored
    lines.append("Oil")
    mfr = ["ACME MOTORS", "ZEPHYR\xa0(cont'd)", "SAAB"][doc_id % 3]
    lines.append(mfr)
    y1 = 1990 + doc_id % 30
    lines.append(f"{y1}\xa0(cont'd)" if doc_id % 5 == 3 else str(y1))
    for b in range(1 + doc_id % 4):
        if doc_id % 3 == 2:
            lines.append(f"9.3 Aero {b}")  # SAAB: dot admitted by RE_MODEL_SAAB
        else:
            lines.append(f"Model {chr(65 + (doc_id + b) % 26)}{b}")
        # the comma keeps the engine line out of RE_MODEL_SAAB too
        lines.append(f"2.{b}L, V{4 + (doc_id + b) % 5} engine")
        if doc_id % 6 == 2:
            lines.append("(Electric/Gas)")  # engine continuation, not a new engine
        m_oil = f"M1C-{100 + (doc_id * 3 + b) % 900}A"
        lines.append(m_oil)
        if doc_id % 4 == 0:
            lines.append(m_oil)  # duplicate oil → deduped on emit (M37)
        lines.append(f"F{10000 + (doc_id + b) % 90000}")
        if doc_id % 8 == 5 and b == 0:
            # mid-conversation year line: flushes block 0 at THIS line
            lines.append(str(y1 + 1))
    return lines


def extract_kernel_catalog_fold(sf_dir: str):
    import pyarrow as pa

    from ..oracle import catalog as _catmod
    from ..pipelines import schemas
    from ..stages.fold import fold_conversations

    folded = fold_conversations(
        _rendered_turns(sf_dir, lambda d: enumerate(_render_catalog_lines_py(d))),
        _catmod.extract_catalog_conv,
        schemas.CATALOG_SCHEMA,
    )

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        oils = pc.binary_join(batch["oils"].cast(pa.list_(pa.string())), ";")
        return pa.table(
            {
                "doc_id": batch["conv_id"].cast(pa.int64()),
                "ref_turn": batch["ref_turn"].cast(pa.int64()),
                "manufacturer": _blank(batch, "manufacturer"),
                "year": _blank(batch, "year"),
                "model": _blank(batch, "model"),
                "engine": _blank(batch, "engine"),
                "oils": pc.coalesce(oils, ""),
            }
        )

    return folded.map_batches(project, batch_format="pyarrow").sort(["doc_id", "ref_turn"])


# ref_turn closed form: `base` = line index of the first model line
# (pre-banner noise + spur line + banner/Oil/manufacturer/year), `L` = block
# length (model, engine, [E/G], oilM, [dup], oilF). Block b < n-1 is
# emitted at the NEXT block's model line — or, for b = 0 with the
# mid-conversation year change, at the inserted year line (which sits at
# exactly base + L, where block 1's model would have been). The last block
# is emitted by the trailing flush at the conversation's final line.
EXTRACT_KERNEL_CATALOG_FOLD_SQL = """
WITH blocks AS (
    SELECT doc_id, b,
           (CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 0 END
            + CASE WHEN doc_id % 4 = 1 THEN 1 ELSE 0 END + 4) AS base,
           (4 + CASE WHEN doc_id % 6 = 2 THEN 1 ELSE 0 END
              + CASE WHEN doc_id % 4 = 0 THEN 1 ELSE 0 END) AS L,
           (1 + doc_id % 4) AS n,
           CASE WHEN doc_id % 8 = 5 THEN 1 ELSE 0 END AS ychg,
           (1990 + doc_id % 30) AS y1
    FROM documents CROSS JOIN (VALUES (0), (1), (2), (3)) t(b)
    WHERE b < 1 + doc_id % 4
)
SELECT doc_id,
       CAST(CASE WHEN b = n - 1 THEN base + n * L + ychg - 1
                 ELSE base + (b + 1) * L
                      + CASE WHEN b >= 1 THEN ychg ELSE 0 END
            END AS BIGINT) AS ref_turn,
       CASE doc_id % 3 WHEN 0 THEN 'ACME MOTORS'
                       WHEN 1 THEN 'ZEPHYR' ELSE 'SAAB' END AS manufacturer,
       CAST(CASE WHEN ychg = 1 AND b >= 1 THEN y1 + 1 ELSE y1 END AS VARCHAR) AS year,
       CASE WHEN doc_id % 3 = 2 THEN '9.3 Aero ' || CAST(b AS VARCHAR)
            ELSE 'Model ' || chr(CAST(65 + (doc_id + b) % 26 AS INTEGER)) || CAST(b AS VARCHAR)
       END AS model,
       '2.' || CAST(b AS VARCHAR) || 'L, V'
            || CAST(4 + (doc_id + b) % 5 AS VARCHAR) || ' engine'
            || CASE WHEN doc_id % 6 = 2 THEN ' (Electric/Gas)' ELSE '' END AS engine,
       'F' || CAST(10000 + (doc_id + b) % 90000 AS VARCHAR)
            || ';M1C-' || CAST(100 + (doc_id * 3 + b) % 900 AS VARCHAR) || 'A' AS oils
FROM blocks
ORDER BY doc_id, ref_turn
"""


# ---------------------------------------------------------------------------
# census summary fold surrogate: pins the FLAGSHIP stage-A fold + summary
# projection at pipeline level — the anchor-keyed line fold (M1/M2: all
# three Source: anchor shapes, Prov-Date, Declarant with cross-line
# continuation, family/non-kin/slave buckets with the None/No-names
# filters, boilerplate skip that must NOT break a pending continuation,
# M4 numbered members, M5 cross-turn accumulation), enrichment (M20
# declarant parsing across 5 rendered shapes, M11 occupation gazetteer
# incl. the 'priest of X' suffix capture, M21 declarant-id generation on
# the RAW household number), and the summary projection (M22 key
# splitters incl. the space-separated and 2-part variants, M23 member
# counts, M24 brokenness flag) — by running the PRODUCTION path
# (fold_conversations over oracle.census.extract_census_conv +
# CensusSummarizer, exactly what pipelines.extract_census_summary
# composes) on deterministically rendered conversations, against a
# closed-form DuckDB twin. Reference semantics: roman-census/household.py
# :22-143 (fold), :145-179 (occupation/ids), :234-286 (summary), :288-393
# (declarant parser).

_CENSUS_NAMES = ["Harpalos", "Thaisas", "Petesouchos", "Tamystha", "Didymos", "Sambas"]
_CENSUS_PLACES = ["Arsinoe", "Memphis", "Oxyrhynchos"]
_CENSUS_OCCS = ["farmer", "priest of Soknebtynis", "weaver"]


def _render_census_turns_py(doc_id: int) -> list[tuple[int, str]]:
    """(turn_idx, text) turns — two turns per household, 1-2 households."""
    turns: list[tuple[int, str]] = []
    for h in range(1 + doc_id % 2):
        k = doc_id + 7 * h
        y = 117 + k % 3
        loc = ["Ar", "He", "Ox"][k % 3]
        order = 1 + k % 9
        if k % 9 == 5:  # 2-part number -> order widens to ''
            hn = f"{y}-{loc}"
        elif k % 6 == 4:  # space-separated -> splitter's replace(' ', '-')
            hn = f"{y} {loc} {order}"
        else:
            hn = f"{y}-{loc}-{order}"
        a = _CENSUS_NAMES[k % 6]
        b = _CENSUS_NAMES[(k + 2) % 6]
        v = k % 5
        head = [f"HOUSEHOLD NO.: {hn}"]
        src = f"P.Oxy. {100 + k % 900}"
        if k % 4 == 1:
            head.append(f"*Source: {src}")
        elif k % 4 == 3:
            head.append(f"[Source: {src}")  # the line[1:] anchor shape
        else:
            head.append(f"Source: {src}")
        place = _CENSUS_PLACES[k % 3]
        if k % 8 == 6:
            head.append(f"Prov., Date: {place}")  # no comma -> year ''
        else:
            head.append(f"Prov., Date: {place}, {100 + k % 120}")
        decl_cont = None
        if v == 0:
            dec = a
        elif v == 1:
            if k % 2 == 1:
                dec, decl_cont = a, f"s. {b}"  # cross-line continuation
            else:
                dec = f"{a} s. {b}"
        elif v == 2:
            dec = f"{a}; and {b}"
        elif v == 3:
            dec = f"{a} and {b}"
        else:
            dec = f"{a}, {_CENSUS_OCCS[k % 3]}"
        head.append(f"Declarant: {dec}")
        if k % 2 == 1:
            # boilerplate between the anchor and its continuation: must be
            # skipped WITHOUT resetting last_read_variable
            head.append("Cambridge Books Online ... terms of use")
        if decl_cont:
            head.append(decl_cont)
        n_fam = 1 + k % 3
        fam_anchor = "Family members, free non-kin:" if k % 7 == 2 else "Family members:"
        head.append(f"{fam_anchor} (1) {_CENSUS_NAMES[(k + 1) % 6]} aged {20 + (k + 1) % 60}")
        tail: list[str] = []
        for i in range(2, n_fam + 1):  # members 2..F land in the NEXT turn
            tail.append(f"({i}) {_CENSUS_NAMES[(k + i) % 6]} aged {20 + (k + i) % 60}")
        if k % 3 == 0:
            tail.append("from the village")  # unanchored member continuation
        if k % 2 == 0:
            tail.append(f"Free non-kin: {_CENSUS_NAMES[(k + 4) % 6]} the lodger")
        else:
            tail.append("Free non-kin: " + ("None" if k % 4 == 1 else "No names survive"))
        tail.append(f"Slaves: (1) {_CENSUS_NAMES[(k + 5) % 6]}" if k % 3 == 0 else "Slaves: None")
        tail.append(f"Verif./photo: p. {k % 200}")
        tail.append("Discussion: " + ("Broken at top" if k % 4 == 3 else "Complete record"))
        if k % 4 == 2:
            tail.append("See BGU I 115")  # discussion continuation
        turns.append((2 * h, "\n".join(head)))
        turns.append((2 * h + 1, "\n".join(tail)))
    return turns


def extract_kernel_census_fold(sf_dir: str):
    import pyarrow as pa

    from ..oracle import census as _cenmod
    from ..pipelines import schemas
    from ..pipelines.extract import CensusSummarizer
    from ..stages.fold import fold_conversations

    households = fold_conversations(
        _rendered_turns(sf_dir, _render_census_turns_py),
        _cenmod.extract_census_conv,
        schemas.HOUSEHOLD_SCHEMA,
    )
    summary = households.map_batches(CensusSummarizer(), batch_format="pyarrow", batch_size=512)

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = pc.binary_join(batch["declarant_ids"].cast(pa.list_(pa.string())), ";")
        return pa.table(
            {
                "doc_id": batch["conv_id"].cast(pa.int64()),
                "household_number_year": _blank(batch, "household_number_year"),
                "household_number_location": _blank(batch, "household_number_location"),
                "household_number_order": _blank(batch, "household_number_order"),
                "source": _blank(batch, "source"),
                "provenance": _blank(batch, "provenance"),
                "provenance_place": _blank(batch, "provenance_place"),
                "provenance_year": _blank(batch, "provenance_year"),
                "declarant_name_1": _blank(batch, "declarant_name_1"),
                "declarant_name_2": _blank(batch, "declarant_name_2"),
                "declarant_name_3": _blank(batch, "declarant_name_3"),
                "declarant_ids": pc.coalesce(ids, ""),
                "declarant_occupation": _blank(batch, "declarant_occupation"),
                "n_family": batch["number_of_family_members"].cast(pa.int64()),
                "n_non_family": batch["number_of_non_family_members"].cast(pa.int64()),
                "n_slaves": batch["number_of_slaves"].cast(pa.int64()),
                "verif_photo": _blank(batch, "verif_photo"),
                "discussion_text": _blank(batch, "discussion_text"),
                "broken": _blank(batch, "discussion_indicates_substantive_record_brokenness"),
            }
        )

    return summary.map_batches(project, batch_format="pyarrow").sort(
        ["doc_id", "household_number_year"]
    )


def _census_fold_sql() -> str:
    name_a = _sql_case_options(_CENSUS_NAMES, "k")
    name_b = _sql_case_options(_CENSUS_NAMES, "(k + 2)")
    occ = _sql_case_options(_CENSUS_OCCS, "k")
    place = _sql_case_options(_CENSUS_PLACES, "k")
    return f"""
WITH hh AS (
    SELECT doc_id, doc_id + 7 * h AS k
    FROM documents CROSS JOIN (VALUES (0), (1)) t(h)
    WHERE h < 1 + doc_id % 2
),
base AS (
    SELECT doc_id, k,
           CAST(117 + k % 3 AS VARCHAR) AS y,
           CASE k % 3 WHEN 0 THEN 'Ar' WHEN 1 THEN 'He' ELSE 'Ox' END AS loc,
           CAST(1 + k % 9 AS VARCHAR) AS ord_s,
           {name_a} AS nm_a,
           {name_b} AS nm_b,
           (k % 5) AS v
    FROM hh
),
hn AS (
    SELECT *,
           CASE WHEN k % 9 = 5 THEN y || '-' || loc
                WHEN k % 6 = 4 THEN y || ' ' || loc || ' ' || ord_s
                ELSE y || '-' || loc || '-' || ord_s END AS raw
    FROM base
)
SELECT doc_id,
       y AS household_number_year,
       loc AS household_number_location,
       CASE WHEN k % 9 = 5 THEN '' ELSE ord_s END AS household_number_order,
       'P.Oxy. ' || CAST(100 + k % 900 AS VARCHAR) AS source,
       CASE WHEN k % 8 = 6 THEN {place}
            ELSE {place} || ', ' || CAST(100 + k % 120 AS VARCHAR) END AS provenance,
       {place} AS provenance_place,
       CASE WHEN k % 8 = 6 THEN ''
            ELSE ' ' || CAST(100 + k % 120 AS VARCHAR) END AS provenance_year,
       nm_a AS declarant_name_1,
       CASE WHEN v IN (2, 3) THEN nm_b ELSE '' END AS declarant_name_2,
       '' AS declarant_name_3,
       raw || '-d1' || CASE WHEN v IN (2, 3) THEN ';' || raw || '-d2' ELSE '' END
           AS declarant_ids,
       CASE WHEN v = 4 THEN {occ} ELSE '' END AS declarant_occupation,
       CAST(1 + k % 3 AS BIGINT) AS n_family,
       CAST(CASE WHEN k % 2 = 0 THEN 1 ELSE 0 END AS BIGINT) AS n_non_family,
       CAST(CASE WHEN k % 3 = 0 THEN 1 ELSE 0 END AS BIGINT) AS n_slaves,
       'p. ' || CAST(k % 200 AS VARCHAR) AS verif_photo,
       CASE WHEN k % 4 = 3 THEN 'Broken at top'
            WHEN k % 4 = 2 THEN 'Complete record See BGU I 115'
            ELSE 'Complete record' END AS discussion_text,
       CASE WHEN k % 4 = 3 THEN 'Yes' ELSE 'No' END AS broken
FROM hn
ORDER BY doc_id, household_number_year
"""


EXTRACT_KERNEL_CENSUS_FOLD_SQL = _census_fold_sql()


# ---------------------------------------------------------------------------
# table fold surrogate: pins the detected-table row mapper (M33 header-name
# table init off turn 0, M34 row→record zip with short-row None padding and
# long-row truncation, M35 the "Total <income> <expense>" merged-cell
# re-split to columns 0/5/6 incl. the 2-part variant that leaves column 6
# untouched, plus the malformed-JSON / non-list row skips) at pipeline
# level — by running the PRODUCTION path (fold_conversations over
# oracle.table.extract_table_conv, exactly what pipelines.extract_table
# composes) on deterministically rendered JSON-cell conversations, against
# a closed-form DuckDB twin. Reference semantics:
# knr-property-mgmt/knr_property.py:34-55.

_TABLE_MAX_ROWS = 5


def _render_table_turns_py(doc_id: int) -> list[tuple[int, str]]:
    """(turn_idx, JSON-cell-list) turns for one rendered table conversation.

    Row regimes by k = (doc_id + pos) % 10:
      0 → invalid JSON (skipped), 1 → non-list JSON (skipped),
      2 → merged 'Total …' first cell (3-part on even pos, 2-part on odd),
      3 → short 5-cell row (trailing columns → null),
      4 → 9-cell row (extra cell truncated), else → plain 8-cell row.
    """
    import json

    from ..sources.transcripts import _KNR_COLUMNS

    turns: list[tuple[int, str]] = [(0, json.dumps(list(_KNR_COLUMNS)))]
    for pos in range(1, 2 + doc_id % 4 + 1):
        k = (doc_id + pos) % 10
        if k == 0:
            turns.append((pos, "{not json"))
            continue
        if k == 1:
            turns.append((pos, json.dumps({"cells": ["dict-not-list"]})))
            continue
        date = _py_date(
            (doc_id + pos) % 28 + 1, (doc_id + pos) % 12 + 1, 2020 + (doc_id + pos) % 6
        )
        payee = f"Payee {chr(65 + (doc_id + pos) % 26)}"
        typ = ["Deposit", "Withdrawal", "Fee"][(doc_id + pos) % 3]
        ref = f"R{(doc_id * 13 + pos) % 100000}"
        desc = f"Desc {(doc_id + pos) % 50}"
        income = str(100 + (doc_id * 7 + pos) % 9000)
        expense = str(50 + (doc_id * 11 + pos) % 9000)
        balance = str((doc_id * 17 + pos) % 100000)
        if k == 2:
            first = f"Total {income} {expense}" if pos % 2 == 0 else f"Total {income}"
            cells = [first, payee, typ, ref, desc, "x5", "keep6", balance]
        elif k == 3:
            cells = [date, payee, typ, ref, desc]
        elif k == 4:
            cells = [date, payee, typ, ref, desc, income, expense, balance, "EXTRA"]
        else:
            cells = [date, payee, typ, ref, desc, income, expense, balance]
        turns.append((pos, json.dumps(cells)))
    return turns


def extract_kernel_table_fold(sf_dir: str):
    import pyarrow as pa

    from ..oracle import table as _tab
    from ..pipelines import schemas
    from ..stages.fold import fold_conversations

    folded = fold_conversations(
        _rendered_turns(sf_dir, _render_table_turns_py),
        _tab.extract_table_conv,
        schemas.TABLE_SCHEMA,
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["conv_id"].cast(pa.int64()),
                "ref_turn": batch["ref_turn"].cast(pa.int64()),
                "txn_date": _blank(batch, "Date"),
                "payee": _blank(batch, "Payee / Payer"),
                "txn_type": _blank(batch, "Type"),
                "reference": _blank(batch, "Reference"),
                "description": _blank(batch, "Description"),
                "income": _blank(batch, "Income"),
                "expense": _blank(batch, "Expense"),
                "balance": _blank(batch, "Balance"),
            }
        )

    return folded.map_batches(project, batch_format="pyarrow").sort(["doc_id", "ref_turn"])


def _table_fold_sql() -> str:
    date = _sql_date(
        "(doc_id + pos) % 28 + 1", "(doc_id + pos) % 12 + 1", "2020 + (doc_id + pos) % 6"
    )
    positions = ", ".join(f"({p})" for p in range(1, _TABLE_MAX_ROWS + 1))
    return f"""
WITH rows_ AS (
    SELECT doc_id, pos, (doc_id + pos) % 10 AS k
    FROM documents CROSS JOIN (VALUES {positions}) p(pos)
    WHERE pos <= 2 + doc_id % 4 AND (doc_id + pos) % 10 NOT IN (0, 1)
)
SELECT doc_id,
       CAST(pos AS BIGINT) AS ref_turn,
       CASE WHEN k = 2 THEN 'Total' ELSE {date} END AS txn_date,
       'Payee ' || chr(CAST(65 + (doc_id + pos) % 26 AS INTEGER)) AS payee,
       CASE (doc_id + pos) % 3 WHEN 0 THEN 'Deposit'
                               WHEN 1 THEN 'Withdrawal' ELSE 'Fee' END AS txn_type,
       'R' || CAST((doc_id * 13 + pos) % 100000 AS VARCHAR) AS reference,
       'Desc ' || CAST((doc_id + pos) % 50 AS VARCHAR) AS description,
       CASE WHEN k = 3 THEN ''
            ELSE CAST(100 + (doc_id * 7 + pos) % 9000 AS VARCHAR) END AS income,
       CASE WHEN k = 3 THEN ''
            WHEN k = 2 AND pos % 2 = 1 THEN 'keep6'
            ELSE CAST(50 + (doc_id * 11 + pos) % 9000 AS VARCHAR) END AS expense,
       CASE WHEN k = 3 THEN ''
            ELSE CAST((doc_id * 17 + pos) % 100000 AS VARCHAR) END AS balance
FROM rows_
ORDER BY doc_id, ref_turn
"""


EXTRACT_KERNEL_TABLE_FOLD_SQL = _table_fold_sql()


# ---------------------------------------------------------------------------
# grid fold surrogate: pins the grid-cell cleanup bank (M42: the raw-value
# row predicates on columns 1 and 4, column projection to 0/1/3/4/6, the
# strip + '|' removal on every cell, digit-only normalization on columns
# 0/1/3 with the header row exempt, and the ';' removal on column 3) at
# pipeline level — by running the PRODUCTION path (fold_conversations over
# oracle.grid.extract_grid_conv, exactly what pipelines.extract_grid
# composes) on deterministically rendered 8-cell JSON rows, against a
# closed-form DuckDB twin. Reference semantics:
# mancini-beverage-invoice/invoice.py:135-153.


def _render_grid_turns_py(doc_id: int) -> list[tuple[int, str]]:
    """(turn_idx, JSON-cell-list) turns for one rendered grid conversation.

    Row regimes by k = (doc_id + pos) % 8:
      0 → invalid JSON (skipped), 1 → 6-cell row (skipped, needs ≥8),
      2 → len(cells[1]) < 2 (predicate-dropped),
      3 → len(cells[4]) ≥ 7 (predicate-dropped),
      4 → len(cells[4]) < 2 (predicate-dropped),
      else → kept row exercising strip / '|' removal / digit-strip.
    """
    import json

    header = ["ITEM NO ", "QTY|", "z2", " PRICE;| ", "DESCR", "z5", " AMT ", "z7"]
    turns: list[tuple[int, str]] = [(0, json.dumps(header))]
    for pos in range(1, 2 + doc_id % 3 + 1):
        k = (doc_id + pos) % 8
        if k == 0:
            turns.append((pos, "{not json"))
            continue
        if k == 1:
            turns.append((pos, json.dumps(["a", "bb", "c", "d", "ee", "f"])))
            continue
        c1 = "Q" if k == 2 else f"{1 + (doc_id + pos) % 99}x"
        c4 = "toolongdesc" if k == 3 else ("D" if k == 4 else f"It{(doc_id + pos) % 10}m")
        cells = [
            f" {1000 + (doc_id * 3 + pos) % 9000}|a ",
            c1,
            "drop2",
            f" {(doc_id * 7 + pos) % 10000}; ",
            c4,
            "drop5",
            f" $ {(doc_id * 11 + pos) % 100000}|.00 ",
            "drop7",
        ]
        turns.append((pos, json.dumps(cells)))
    return turns


def extract_kernel_grid_fold(sf_dir: str):
    import pyarrow as pa

    from ..oracle import grid as _grd
    from ..pipelines import schemas
    from ..stages.fold import fold_conversations

    folded = fold_conversations(
        _rendered_turns(sf_dir, _render_grid_turns_py),
        _grd.extract_grid_conv,
        schemas.GRID_SCHEMA,
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["conv_id"].cast(pa.int64()),
                "ref_turn": batch["ref_turn"].cast(pa.int64()),
                "c0": _blank(batch, "c0"),
                "c1": _blank(batch, "c1"),
                "c3": _blank(batch, "c3"),
                "c4": _blank(batch, "c4"),
                "c6": _blank(batch, "c6"),
            }
        )

    return folded.map_batches(project, batch_format="pyarrow").sort(["doc_id", "ref_turn"])


EXTRACT_KERNEL_GRID_FOLD_SQL = """
WITH data_ AS (
    SELECT doc_id, pos
    FROM documents CROSS JOIN (VALUES (1), (2), (3), (4)) p(pos)
    WHERE pos <= 2 + doc_id % 3 AND (doc_id + pos) % 8 NOT IN (0, 1, 2, 3, 4)
)
SELECT doc_id, CAST(0 AS BIGINT) AS ref_turn,
       'ITEM NO' AS c0, 'QTY' AS c1, 'PRICE' AS c3, 'DESCR' AS c4, 'AMT' AS c6
FROM documents
UNION ALL
SELECT doc_id, CAST(pos AS BIGINT) AS ref_turn,
       CAST(1000 + (doc_id * 3 + pos) % 9000 AS VARCHAR) AS c0,
       CAST(1 + (doc_id + pos) % 99 AS VARCHAR) AS c1,
       CAST((doc_id * 7 + pos) % 10000 AS VARCHAR) AS c3,
       'It' || CAST((doc_id + pos) % 10 AS VARCHAR) || 'm' AS c4,
       '$ ' || CAST((doc_id * 11 + pos) % 100000 AS VARCHAR) || '.00' AS c6
FROM data_
ORDER BY doc_id, ref_turn
"""


# ---------------------------------------------------------------------------
# DETECTOR-path surrogates: pin the raw-box region detectors (S8 header
# detection, M40 grid-line synthesis, M41 fixed-bbox crops) to DuckDB.
# Same recipe as the fold surrogates — deterministic box-JSON conversations
# rendered from documents.doc_id, run through the PRODUCTION composition
# (fold_conversations over oracle.regions folds, exactly what
# pipelines.extract_{layout,table,grid}_detected compose), compared against
# closed-form SQL twins. The real-box-corpus variants still run in the same
# driver slots (pipelines/queries.py chains them with a non-empty gate);
# the geometry recurrence itself is additionally pinned to the reference's
# own loop by the recording-fake differentials (tests/test_regions.py).


def _render_layout_boxes_py(doc_id: int) -> list[tuple[int, str]]:
    """(turn_idx, box-JSON) turns for one rendered DETECTED-layout
    conversation: topmost y-band = header (font-free — rendered Bold to
    prove it), remaining bands and turns = data; every regime of the
    pre-detected layout surrogate (left-of-first-bin drop, County
    completeness, non-Arial ignore, last-box-wins, boundary-exact x) plus
    the detector-specific ones: a boxless turn before the header (wait),
    and a data band riding the header turn."""
    import json

    def data_boxes(p: int) -> list[dict]:
        boxes = [{"text": "LX", "x0": 10.0, "y0": 30.0, "font": "Arial"}]
        boxes.append(
            {"text": str(doc_id % 50), "x0": 50.0 + doc_id % 5, "y0": 30.0, "font": "Arial"}
        )
        if (doc_id + p) % 4 != 0:
            boxes.append(
                {"text": f"C{(doc_id * 10 + p) % 997}", "x0": 150.0, "y0": 30.0, "font": "Arial"}
            )
        boxes.append({"text": "JUNK", "x0": 250.0, "y0": 30.0, "font": "Times"})
        if (doc_id + p) % 3 == 0:
            boxes.append({"text": "overwritten", "x0": 251.0, "y0": 30.0, "font": "Arial"})
            boxes.append(
                {"text": f"T{(doc_id + p) % 89}", "x0": 260.0, "y0": 30.0, "font": "Arial"}
            )
        boxes.append(
            {"text": str((doc_id * 7 + p) % 10000), "x0": 350.0, "y0": 30.0, "font": "Arial"}
        )
        return boxes

    turns: list[tuple[int, str]] = []
    off = 0
    if doc_id % 7 == 0:
        turns.append((0, json.dumps({"boxes": []})))  # boxless turn: header wait
        off = 1
    hdr = [{"text": name, "x0": x, "y0": 10.0, "font": "Bold"} for name, x in _LAYOUT_HEADER]
    if doc_id % 2 == 0:
        hdr = hdr + data_boxes(0)
    turns.append((off, json.dumps({"boxes": hdr})))
    for p in range(1, 2 + doc_id % 3 + 1):
        turns.append((off + p, json.dumps({"boxes": data_boxes(p)})))
    return turns


def extract_kernel_layout_detect(sf_dir: str):
    import pyarrow as pa

    from ..oracle import regions as _reg
    from ..pipelines import schemas
    from ..stages.fold import fold_conversations

    folded = fold_conversations(
        _rendered_turns(sf_dir, _render_layout_boxes_py),
        _reg.extract_layout_detected_conv,
        schemas.LAYOUT_DETECTED_SCHEMA,
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["conv_id"].cast(pa.int64()),
                "ref_turn": batch["ref_turn"].cast(pa.int64()),
                "state_code": _blank(batch, "State Code"),
                "county_code": _blank(batch, "County Code"),
                "tract_code": _blank(batch, "Tract Code"),
                "tract_population": _blank(batch, "Tract Population"),
            }
        )

    return folded.map_batches(project, batch_format="pyarrow").sort(["doc_id", "ref_turn"])


EXTRACT_KERNEL_LAYOUT_DETECT_SQL = """
WITH rows_ AS (
    SELECT doc_id, pos
    FROM documents CROSS JOIN (VALUES (0), (1), (2), (3), (4)) p(pos)
    WHERE ((pos = 0 AND doc_id % 2 = 0) OR (pos >= 1 AND pos <= 2 + doc_id % 3))
      AND (doc_id + pos) % 4 <> 0
)
SELECT doc_id,
       CAST(pos + CASE WHEN doc_id % 7 = 0 THEN 1 ELSE 0 END AS BIGINT) AS ref_turn,
       CAST(doc_id % 50 AS VARCHAR) AS state_code,
       'C' || CAST((doc_id * 10 + pos) % 997 AS VARCHAR) AS county_code,
       CASE WHEN (doc_id + pos) % 3 = 0
            THEN 'T' || CAST((doc_id + pos) % 89 AS VARCHAR) ELSE '' END AS tract_code,
       CAST((doc_id * 7 + pos) % 10000 AS VARCHAR) AS tract_population
FROM rows_
ORDER BY doc_id, ref_turn
"""


_TABLE_BOX_X = [50.0, 120.0, 190.0, 260.0, 330.0, 400.0, 470.0, 540.0]


def _render_table_boxes_py(doc_id: int) -> list[tuple[int, str]]:
    """(turn_idx, box-JSON) turns for one rendered DETECTED-table
    conversation: page-0 topmost band = column names + x boundaries, each
    later page re-renders the header band (data-skipped), a merged
    'Total …' single box in the Date bin (fix-up re-split), two boxes in
    the Type bin (x-ordered space concat), a left-of-first-boundary box
    (dropped), an invalid-JSON page and a single-band page (whole band is
    data — no header repeat to skip)."""
    import json

    from ..sources.transcripts import _KNR_COLUMNS

    def hdr_boxes() -> list[dict]:
        return [
            {"text": c, "x0": x, "y0": 10.0} for c, x in zip(_KNR_COLUMNS, _TABLE_BOX_X)
        ]

    def data_boxes(p: int) -> list[dict]:
        v = doc_id + p
        income = str(100 + (doc_id * 7 + p) % 9000)
        expense = str(50 + (doc_id * 11 + p) % 9000)
        boxes = [{"text": "LX", "x0": 10.0, "y0": 30.0}]
        if v % 4 == 0:
            boxes.append({"text": f"Total {income} {expense}", "x0": 50.0, "y0": 30.0})
        else:
            date = _py_date(v % 28 + 1, v % 12 + 1, 2020 + v % 6)
            boxes.append({"text": date, "x0": 50.0, "y0": 30.0})
            boxes.append({"text": income, "x0": 400.0, "y0": 30.0})
            boxes.append({"text": expense, "x0": 470.0, "y0": 30.0})
        boxes.append({"text": f"Payee {chr(65 + v % 26)}", "x0": 120.0, "y0": 30.0})
        boxes.append({"text": ["Deposit", "Withdrawal", "Fee"][v % 3], "x0": 190.0, "y0": 30.0})
        boxes.append({"text": f"t{v % 7}", "x0": 200.0, "y0": 30.0})
        boxes.append({"text": f"R{(doc_id * 13 + p) % 100000}", "x0": 260.0, "y0": 30.0})
        boxes.append({"text": f"Desc {v % 50}", "x0": 330.0, "y0": 30.0})
        boxes.append({"text": str((doc_id * 17 + p) % 100000), "x0": 540.0, "y0": 30.0})
        return boxes

    first = hdr_boxes() + (data_boxes(0) if doc_id % 2 == 0 else [])
    turns: list[tuple[int, str]] = [(0, json.dumps({"boxes": first}))]
    for p in range(1, 2 + doc_id % 3 + 1):
        k = (doc_id + p) % 6
        if k == 0:
            turns.append((p, "{not json"))
        elif k == 1:
            turns.append((p, json.dumps({"boxes": data_boxes(p)})))
        else:
            turns.append((p, json.dumps({"boxes": hdr_boxes() + data_boxes(p)})))
    return turns


def extract_kernel_table_detect(sf_dir: str):
    import pyarrow as pa

    from ..oracle import regions as _reg
    from ..pipelines import schemas
    from ..stages.fold import fold_conversations

    folded = fold_conversations(
        _rendered_turns(sf_dir, _render_table_boxes_py),
        _reg.extract_table_detected_conv,
        schemas.TABLE_SCHEMA,
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["conv_id"].cast(pa.int64()),
                "ref_turn": batch["ref_turn"].cast(pa.int64()),
                "txn_date": _blank(batch, "Date"),
                "payee": _blank(batch, "Payee / Payer"),
                "txn_type": _blank(batch, "Type"),
                "reference": _blank(batch, "Reference"),
                "description": _blank(batch, "Description"),
                "income": _blank(batch, "Income"),
                "expense": _blank(batch, "Expense"),
                "balance": _blank(batch, "Balance"),
            }
        )

    return folded.map_batches(project, batch_format="pyarrow").sort(["doc_id", "ref_turn"])


def _table_detect_sql() -> str:
    date = _sql_date(
        "(doc_id + pos) % 28 + 1", "(doc_id + pos) % 12 + 1", "2020 + (doc_id + pos) % 6"
    )
    return f"""
WITH rows_ AS (
    SELECT doc_id, pos
    FROM documents CROSS JOIN (VALUES (0), (1), (2), (3), (4)) p(pos)
    WHERE (pos = 0 AND doc_id % 2 = 0)
       OR (pos >= 1 AND pos <= 2 + doc_id % 3 AND (doc_id + pos) % 6 <> 0)
)
SELECT doc_id,
       CAST(pos AS BIGINT) AS ref_turn,
       CASE WHEN (doc_id + pos) % 4 = 0 THEN 'Total' ELSE {date} END AS txn_date,
       'Payee ' || chr(CAST(65 + (doc_id + pos) % 26 AS INTEGER)) AS payee,
       (CASE (doc_id + pos) % 3 WHEN 0 THEN 'Deposit'
                                WHEN 1 THEN 'Withdrawal' ELSE 'Fee' END)
           || ' t' || CAST((doc_id + pos) % 7 AS VARCHAR) AS txn_type,
       'R' || CAST((doc_id * 13 + pos) % 100000 AS VARCHAR) AS reference,
       'Desc ' || CAST((doc_id + pos) % 50 AS VARCHAR) AS description,
       CAST(100 + (doc_id * 7 + pos) % 9000 AS VARCHAR) AS income,
       CAST(50 + (doc_id * 11 + pos) % 9000 AS VARCHAR) AS expense,
       CAST((doc_id * 17 + pos) % 100000 AS VARCHAR) AS balance
FROM rows_
ORDER BY doc_id, ref_turn
"""


EXTRACT_KERNEL_TABLE_DETECT_SQL = _table_detect_sql()


def _render_grid_boxes_py(doc_id: int) -> list[tuple[int, str]]:
    """(turn_idx, box-JSON) turns for one rendered DETECTED-grid
    conversation. Geometry drives the PRICE-anchored recurrence exactly:
    the anchor box (y1=10) doubles as the header row's c3 cell inside the
    first page's extra [0.5, pb+7) band; real 6-pt rows sit at centers
    pb + 10 + 9.5k, the 3.5-pt gap bands stay empty and are dropped by
    the cleanup predicates. Exercises multi-box cell concat (c0, c6),
    digit-strip with the raw-row-0 exemption, the '|' strip, both c1/c4
    predicate drops, and the kept-but-undropped high column c8."""
    import json

    def B(text: str, x: float, y: float) -> dict:
        return {"text": text, "x0": x, "x1": x, "y0": y, "y1": y}

    n_turns = 1 + doc_id % 3
    n_rows = 1 + doc_id % 2
    turns: list[tuple[int, str]] = []
    for t in range(n_turns):
        boxes = [
            B("HDR NO|", 20.0, 10.0), B("QTY", 50.0, 10.0), B("PRICE", 90.0, 10.0),
            B("DESCR", 120.0, 10.0), B("AMT", 200.0, 10.0), B("X8", 420.0, 10.0),
        ]
        for k in range(n_rows):
            v = (doc_id + t + k) % 5
            cy = 20.0 + 9.5 * k
            boxes.append(B("No.", 15.0, cy))
            boxes.append(B(str(1000 + (doc_id * 3 + 10 * t + k) % 9000), 25.0, cy))
            if v != 0:
                boxes.append(B(f"{1 + (doc_id + t + k) % 99}x", 50.0, cy))
            boxes.append(B("drop2", 78.0, cy))
            boxes.append(B(f"{(doc_id * 7 + t + 3 * k) % 10000};", 90.0, cy))
            boxes.append(B("toolongd" if v == 1 else f"It{(doc_id + t + k) % 10}m", 120.0, cy))
            boxes.append(B("drop5", 150.0, cy))
            boxes.append(B("$", 200.0, cy))
            boxes.append(B(f"{(doc_id * 11 + t + 7 * k) % 100000}.00", 210.0, cy))
            boxes.append(B(f"n{(doc_id + t + k) % 9}", 420.0, cy))
        turns.append((t, json.dumps({"boxes": boxes})))
    return turns


def extract_kernel_grid_detect(sf_dir: str):
    import pyarrow as pa

    from ..oracle import regions as _reg
    from ..pipelines import schemas
    from ..stages.fold import fold_conversations

    folded = fold_conversations(
        _rendered_turns(sf_dir, _render_grid_boxes_py),
        _reg.extract_grid_detected_conv,
        schemas.GRID_DETECTED_SCHEMA,
    )

    def project(batch: pa.Table) -> pa.Table:
        cols = {
            "doc_id": batch["conv_id"].cast(pa.int64()),
            "ref_turn": batch["ref_turn"].cast(pa.int64()),
        }
        for i in (0, 1, 3, 4, 6, 8, 9, 10, 11, 12):
            cols[f"c{i}"] = _blank(batch, f"c{i}")
        return pa.table(cols)

    return folded.map_batches(project, batch_format="pyarrow").sort(["doc_id", "ref_turn"])


EXTRACT_KERNEL_GRID_DETECT_SQL = """
WITH data_ AS (
    SELECT doc_id, t, k
    FROM documents
    CROSS JOIN (VALUES (0), (1), (2)) tt(t)
    CROSS JOIN (VALUES (0), (1)) kk(k)
    WHERE t < 1 + doc_id % 3 AND k < 1 + doc_id % 2
      AND (doc_id + t + k) % 5 NOT IN (0, 1)
)
SELECT doc_id, CAST(0 AS BIGINT) AS ref_turn,
       'HDR NO' AS c0, 'QTY' AS c1, 'PRICE' AS c3, 'DESCR' AS c4, 'AMT' AS c6,
       'X8' AS c8, '' AS c9, '' AS c10, '' AS c11, '' AS c12
FROM documents
UNION ALL
SELECT doc_id, CAST(t AS BIGINT) AS ref_turn,
       CAST(1000 + (doc_id * 3 + 10 * t + k) % 9000 AS VARCHAR) AS c0,
       CAST(1 + (doc_id + t + k) % 99 AS VARCHAR) AS c1,
       CAST((doc_id * 7 + t + 3 * k) % 10000 AS VARCHAR) AS c3,
       'It' || CAST((doc_id + t + k) % 10 AS VARCHAR) || 'm' AS c4,
       '$ ' || CAST((doc_id * 11 + t + 7 * k) % 100000 AS VARCHAR) || '.00' AS c6,
       'n' || CAST((doc_id + t + k) % 9 AS VARCHAR) AS c8,
       '' AS c9, '' AS c10, '' AS c11, '' AS c12
FROM data_
ORDER BY doc_id, ref_turn
"""


def _render_crop_boxes_py(doc_id: int) -> list[tuple[int, str]]:
    """(turn_idx, box-JSON) turns for one rendered CROP conversation (M41):
    page-1 po-box band (one y band, x-ordered join), sold-to (two y bands
    newline-joined), a box straddling the po-box left edge and a box below
    the sold-to bottom (both excluded — crops require FULL containment),
    and a second turn that must be ignored (the reference crops page 1
    only)."""
    import json

    def B(text: str, x0: float, x1: float, y0: float, y1: float) -> dict:
        return {"text": text, "x0": x0, "x1": x1, "y0": y0, "y1": y1}

    boxes = [
        B("EDGE", 30.0, 50.0, 62.0, 70.0),
        B("PO", 40.0, 60.0, 62.0, 70.0),
        B("Box", 70.0, 90.0, 62.0, 70.0),
        B(str(100 + doc_id % 900), 95.0, 140.0, 62.0, 70.0),
        B(f"Cust{doc_id % 50}", 25.0, 80.0, 90.0, 98.0),
        B("Ltd", 90.0, 120.0, 90.0, 98.0),
        B(f"Street {doc_id % 30}", 25.0, 100.0, 120.0, 130.0),
        B("TooLow", 25.0, 100.0, 150.0, 165.0),
    ]
    return [
        (0, json.dumps({"boxes": boxes})),
        (1, json.dumps({"boxes": [B("IGNORED", 40.0, 60.0, 62.0, 70.0)]})),
    ]


def extract_kernel_grid_crops(sf_dir: str):
    import pyarrow as pa

    from ..oracle import regions as _reg
    from ..pipelines import schemas
    from ..stages.fold import fold_conversations

    folded = fold_conversations(
        _rendered_turns(sf_dir, _render_crop_boxes_py),
        _reg.extract_grid_crops_conv,
        schemas.GRID_CROPS_SCHEMA,
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["conv_id"].cast(pa.int64()),
                "ref_turn": batch["ref_turn"].cast(pa.int64()),
                "po_box": _blank(batch, "po_box"),
                "sold_to": _blank(batch, "sold_to"),
            }
        )

    return folded.map_batches(project, batch_format="pyarrow").sort("doc_id")


EXTRACT_KERNEL_GRID_CROPS_SQL = """
SELECT doc_id, CAST(0 AS BIGINT) AS ref_turn,
       'PO Box ' || CAST(100 + doc_id % 900 AS VARCHAR) AS po_box,
       'Cust' || CAST(doc_id % 50 AS VARCHAR) || ' Ltd' || chr(10)
           || 'Street ' || CAST(doc_id % 30 AS VARCHAR) AS sold_to
FROM documents
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# persons fold surrogate: pins the flagship stage-A→stage-B pipeline
# (census fold → PersonsExtractor; M6-M19 + J1-J3 in SURVEY §2) at pipeline
# level by running the PRODUCTION composition — fold_conversations over
# oracle.census.extract_census_conv, then the same PersonsExtractor stage
# pipelines.extract_census_persons maps — on deterministically rendered
# census conversations, against a closed-form DuckDB twin. Reference
# semantics: roman-census/persons.py:389-800 (ids :389-411, declarant
# defaulting :479-512, the numeric cross-ref cascade :542-728, declarant
# synthesis :731-769).
#
# Six scenarios (s = doc_id % 6), each with a hand-derived closed-form
# outcome (verified against the oracle fold over 3000 doc_ids before the
# SQL was written; tests/test_oracle_units.py pins the render → oracle
# equivalence):
#   s0  self + "wife of ... [declarant]" (_REL1 + declarant-defaulting
#       spouse link, bidirectional ids) + "C s. A and B" patronymic
#       (father/mother text capture via the "and"-variant pattern)
#   s1  numeric cross-ref cascade: "wife of A [no. 1]" links spouses via
#       find_number_reference + set_relations; "son of B [no. 2]" links
#       children (mother id overwrites, father keeps the text capture)
#   s2  sibling link with OCR "?"-ref ("[no. 1]?" → question-marked ref;
#       the siblings branch drops the marker) + textual "A [no. 1]"
#       sibling entry superseded via _remove_reference_num_entry
#   s3  slave row: owner + "offspring of" mother + female token walk
#   s4  declarant synthesis (no self member → add_declarant_as_person
#       inserts the d1 row, age/sex from the bare declarant line) +
#       "(s. C)" paternal-grandfather capture
#   s5  free non-kin: name keeps the "the lodger" tail, "freedw." → female
# Declarant-id fuzzy match (set_personal_ids startswith) binds every
# rendered self row to <hn>-d1; positional ids FM/NK/S otherwise.

_PERSONS_NAMES = _CENSUS_NAMES


def _render_persons_turns_py(doc_id: int) -> list[tuple[int, str]]:
    """(turn_idx, text) turns: one household per conversation, 2 turns."""
    k = doc_id
    y = 117 + k % 3
    loc = ["Ar", "He", "Ox"][k % 3]
    hn = f"{y}-{loc}-{1 + k % 9}"
    nm = _PERSONS_NAMES
    a_, b_, c_, d_ = nm[k % 6], nm[(k + 2) % 6], nm[(k + 4) % 6], nm[(k + 1) % 6]
    a1, a2, a3 = 20 + k % 60, 21 + (k + 3) % 60, 1 + (k + 5) % 15
    s = k % 6
    decl = a_
    fam: list[str] = []
    nonkin = slaves = None
    if s == 0:
        fam = [f"(1) {a_} [declarant], {a1}",
               f"(2) {b_}, wife of {a_} [declarant], {a2}",
               f"(3) {c_} s. {a_} and {b_}, {a3}"]
    elif s == 1:
        fam = [f"(1) {a_} [declarant], {a1}",
               f"(2) {b_}, wife of {a_} [no. 1], {a2}",
               f"(3) {c_}, son of {b_} [no. 2], {a3}"]
    elif s == 2:
        fam = [f"(1) {a_} [declarant], {a1}",
               f"(2) {b_}, brother of {a_} [no. 1]?, {a2}"]
    elif s == 3:
        fam = [f"(1) {a_} [declarant], {a1}"]
        slaves = f"(1) {d_}, female slave of {a_}, offspring of {b_}, {a3}"
    elif s == 4:
        fam = [f"(1) {b_} s. {a_} (s. {c_}), {a1}",
               f"(2) {d_} d. {a_}, {a2}"]
    else:
        decl = f"{a_}, farmer"
        fam = [f"(1) {a_} [declarant], {a1}"]
        nonkin = f"(1) {c_} the lodger, freedw. of {a_}, {a2}"
    head = [f"HOUSEHOLD NO.: {hn}",
            f"Source: P.Oxy. {100 + k % 900}",
            f"Prov., Date: {_CENSUS_PLACES[k % 3]}, {100 + k % 120}",
            f"Declarant: {decl}",
            f"Family members: {fam[0]}"]
    tail = list(fam[1:])
    tail.append(f"Free non-kin: {nonkin}" if nonkin else "Free non-kin: None")
    tail.append(f"Slaves: {slaves}" if slaves else "Slaves: None")
    tail.append(f"Verif./photo: p. {k % 200}")
    tail.append("Discussion: Complete record")
    return [(0, "\n".join(head)), (1, "\n".join(tail))]


def extract_kernel_persons_fold(sf_dir: str):
    import pyarrow as pa

    from ..oracle import census as _cenmod
    from ..pipelines import schemas
    from ..pipelines.extract import PersonsExtractor
    from ..stages.fold import fold_conversations

    households = fold_conversations(
        _rendered_turns(sf_dir, _render_persons_turns_py),
        _cenmod.extract_census_conv,
        schemas.HOUSEHOLD_SCHEMA,
    )
    persons = households.map_batches(PersonsExtractor(), batch_format="pyarrow", batch_size=256)

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        def lst(col):
            return pc.coalesce(
                pc.binary_join(batch[col].cast(pa.list_(pa.string())), ";"), ""
            )

        return pa.table(
            {
                "doc_id": batch["conv_id"].cast(pa.int64()),
                "household_id": _blank(batch, "household_id"),
                "id": _blank(batch, "id"),
                "name": _blank(batch, "name"),
                "sex": _blank(batch, "sex"),
                "age": _blank(batch, "age"),
                "occupation": _blank(batch, "occupation"),
                "father": _blank(batch, "father"),
                "mother": _blank(batch, "mother"),
                "paternal_grandfather": _blank(batch, "paternal_grandfather"),
                "maternal_grandfather": _blank(batch, "maternal_grandfather"),
                "spouse": _blank(batch, "spouse"),
                "siblings": lst("siblings"),
                "children": lst("children"),
                "relation_to_declarant": _blank(batch, "relation_to_declarant"),
                "role": _blank(batch, "role"),
                "owner": _blank(batch, "owner"),
            }
        )

    return persons.map_batches(project, batch_format="pyarrow").sort(["doc_id", "id"])


def _persons_fold_sql() -> str:
    nm_a = _sql_case_options(_CENSUS_NAMES, "k")
    nm_b = _sql_case_options(_CENSUS_NAMES, "(k + 2)")
    nm_c = _sql_case_options(_CENSUS_NAMES, "(k + 4)")
    nm_d = _sql_case_options(_CENSUS_NAMES, "(k + 1)")
    return f"""
WITH base AS (
    SELECT doc_id, doc_id AS k,
           CAST(117 + doc_id % 3 AS VARCHAR) || '-'
             || (CASE doc_id % 3 WHEN 0 THEN 'Ar' WHEN 1 THEN 'He' ELSE 'Ox' END)
             || '-' || CAST(1 + doc_id % 9 AS VARCHAR) AS hn,
           doc_id % 6 AS s,
           CAST(20 + doc_id % 60 AS VARCHAR) AS a1,
           CAST(21 + (doc_id + 3) % 60 AS VARCHAR) AS a2,
           CAST(1 + (doc_id + 5) % 15 AS VARCHAR) AS a3
    FROM documents
),
named AS (
    SELECT *, {nm_a} AS nm_a, {nm_b} AS nm_b, {nm_c} AS nm_c, {nm_d} AS nm_d
    FROM base
),
rows_ AS (
    -- the d1 self row, present in every scenario (synthesized in s4)
    SELECT doc_id, hn, hn || '-d1' AS id, nm_a AS name, '' AS sex,
           CASE WHEN s = 4 THEN '' ELSE a1 END AS age,
           '' AS occupation, '' AS father, '' AS mother, '' AS pgf, '' AS mgf,
           CASE WHEN s IN (0, 1) THEN hn || '-FM1' ELSE '' END AS spouse,
           CASE WHEN s = 2 THEN hn || '-FM1' ELSE '' END AS siblings,
           '' AS children, 'self' AS rel, 'family member' AS role, '' AS owner
    FROM named
    UNION ALL
    -- s0/s1 second member: the wife (declarant-defaulted vs no.-1 cascade)
    SELECT doc_id, hn, hn || '-FM1', nm_b, 'female', a2, '', '', '', '', '',
           hn || '-d1',
           '', CASE WHEN s = 1 THEN hn || '-FM2' ELSE '' END,
           CASE WHEN s = 0 THEN 'wife' ELSE '' END, 'family member', ''
    FROM named WHERE s IN (0, 1)
    UNION ALL
    -- s0/s1 third member: the child ("s. A and B" text capture vs the
    -- "son of B [no. 2]" cascade where the mother id overwrites)
    SELECT doc_id, hn, hn || '-FM2', nm_c, 'male', a3, '',
           CASE WHEN s = 0 THEN nm_a ELSE nm_b END,
           CASE WHEN s = 0 THEN nm_b ELSE hn || '-FM1' END,
           '', '', '', '', '', '', 'family member', ''
    FROM named WHERE s IN (0, 1)
    UNION ALL
    -- s2 second member: brother via "?"-marked numeric ref
    SELECT doc_id, hn, hn || '-FM1', nm_b, 'male', a2, '', '', '', '', '',
           '', hn || '-d1', '', '', 'family member', ''
    FROM named WHERE s = 2
    UNION ALL
    -- s3 slave: owner + offspring-of mother
    SELECT doc_id, hn, hn || '-S1', nm_d, 'female', a3, '', '', nm_b, '', '',
           '', '', '', '', 'slave', nm_a
    FROM named WHERE s = 3
    UNION ALL
    -- s4 members under a synthesized declarant: patronymic + "(s. C)"
    SELECT doc_id, hn, hn || '-FM1', nm_b, 'male', a1, '', nm_a, '', nm_c, '',
           '', '', '', '', 'family member', ''
    FROM named WHERE s = 4
    UNION ALL
    SELECT doc_id, hn, hn || '-FM2', nm_d, 'female', a2, '', nm_a, '', '', '',
           '', '', '', '', 'family member', ''
    FROM named WHERE s = 4
    UNION ALL
    -- s5 free non-kin: "the lodger" tail survives the name heuristic
    SELECT doc_id, hn, hn || '-NK1', nm_c || ' the lodger', 'female', a2, '',
           '', '', '', '', '', '', '', '', 'free non-kin', ''
    FROM named WHERE s = 5
)
SELECT doc_id, hn AS household_id, id, name, sex, age, occupation, father,
       mother, pgf AS paternal_grandfather, mgf AS maternal_grandfather,
       spouse, siblings, children, rel AS relation_to_declarant, role, owner
FROM rows_
ORDER BY doc_id, id
"""


EXTRACT_KERNEL_PERSONS_FOLD_SQL = _persons_fold_sql()


# ---------------------------------------------------------------------------
# OCR invoice surrogate: the scanned-page path (S9/S10/S16/S17/ST7) made
# REAL and SQL-checked. Deterministic invoice text (charset-safe twin of
# the invoice-bank render) is rasterized onto a P6 page bitmap with scan
# defects (doc-dependent quarter-turn rotation + polarity inversion), the
# GlyphOcr actor pool (ops/glyphs.py) binarizes, normalizes polarity,
# detects orientation and reads the text back by template matching, and
# the recovered text runs through the PRODUCTION InvoiceFieldExtractor
# bank — OCR page reader → same downstream extraction as the text path,
# which is exactly the reference's searchable-PDF flow. The DuckDB twin
# re-renders the text analytically and extracts with regexp_extract; the
# detected defects are closed-form in doc_id.

_OCR_VESSELS = ["Nordic Star", "Sea Queen", "Baltic Wind", "Arctic Dawn"]
_OCR_PORTS = ["Oslo", "Hamburg", "Rotterdam", "Aarhus", "Gdansk"]


def _render_ocr_invoice_py(doc_id: int) -> str:
    d1 = _py_date(doc_id % 28 + 1, doc_id % 12 + 1, 2020 + doc_id % 6)
    d2 = _py_date(doc_id % 27 + 1, doc_id % 11 + 1, 2021 + doc_id % 5)
    vessel = _OCR_VESSELS[doc_id % 4]
    p1 = _OCR_PORTS[doc_id % 5]
    p2 = _OCR_PORTS[(doc_id + 2) % 5]
    return (
        f"Invoice {3000000 + doc_id}\n"
        f"Invoice Date: {d1}\n"
        f"Due Date: {d2}\n"
        f"Customer Number: {1000 + doc_id % 9000}\n"
        f"Order No.: {700000 + doc_id % 100000}\n"
        f"Ext. order no. : KO{2100000 + doc_id % 100000}-{1 + doc_id % 8}\n"
        f"Loading date {d1}\n"
        f"Delivery date {d2}\n"
        f"Vessel Name: {vessel} Container type: 40HC\n"
        f"Port of loading: {p1}\n"
        f"Port of delivery: {p2}\n"
        f"Total amount without VAT {10 + doc_id % 90} {doc_id % 1000:03d},{doc_id % 100:02d} NOK\n"
        f"Tour No.: {300000 + doc_id % 100000}"
    )


def extract_kernel_ocr_invoice(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.invoice_extract import FIELD_PREFIX, InvoiceFieldExtractor
    from . import codecs, glyphs

    ds = _docs(sf_dir, columns=["doc_id"])

    def rasterize(batch: pd.DataFrame) -> pd.DataFrame:
        """Text → P6 page payload with doc-dependent scan defects."""
        payloads = []
        for i in batch["doc_id"]:
            i = int(i)
            page = glyphs.render_page(
                _render_ocr_invoice_py(i), rotate_k=i % 4, invert=i % 3 == 1
            )
            payloads.append(codecs.encode_ppm(page))
        return pd.DataFrame({"doc_id": batch["doc_id"], "payload": payloads})

    pages = ds.map_batches(rasterize, batch_format="pandas", batch_size=128)
    return ocr_invoice_chain(pages)


def ocr_invoice_chain(pages):
    """The shared OCR→extraction tail: page payloads (any sniffable
    image container) → GlyphOcr actor pool → the PRODUCTION invoice
    bank → projected field columns, sorted by doc_id. Used by the
    rasterize-in-pipeline kernel above and the binary-file ingest demo
    (``sources/pages.py`` → ``extract_kernel_ocr_invoice_files``)."""
    import pyarrow as pa

    from ..stages.invoice_extract import FIELD_PREFIX, InvoiceFieldExtractor
    from . import glyphs

    ocr = pages.map_batches(glyphs.GlyphOcr, batch_format="pandas", batch_size=128,
                            concurrency=(1, 4))
    extracted = ocr.map_batches(InvoiceFieldExtractor(), batch_format="pyarrow")

    def project(batch: pa.Table) -> pa.Table:
        cols = {"doc_id": batch["doc_id"].cast(pa.int64())}
        for field, out_name in _INV_COLS.items():
            cols[out_name] = _blank(batch, FIELD_PREFIX + field)
        cols["rotation_k"] = batch["rotation_k"].cast(pa.int64())
        cols["inverted"] = batch["inverted"].cast(pa.bool_())
        cols["match_ppm"] = batch["match_ppm"].cast(pa.int64())
        return pa.table(cols)

    return extracted.map_batches(project, batch_format="pyarrow").sort("doc_id")


def extract_kernel_ocr_invoice_files(page_dir: str):
    """S9 from BYTES: ``read_binary_files`` over a directory of rendered
    page-image FILES (written by ``sources.pages.write_invoice_page_files``)
    → the identical OCR→invoice chain. Byte-equal to
    ``extract_kernel_ocr_invoice`` on the same doc_ids (forced in the
    media driver slot and pinned in tests/test_glyphs.py)."""
    from ..sources.pages import read_page_files

    return ocr_invoice_chain(read_page_files(page_dir))


def _ocr_invoice_sql() -> str:
    d1 = _sql_date("doc_id % 28 + 1", "doc_id % 12 + 1", "2020 + doc_id % 6")
    d2 = _sql_date("doc_id % 27 + 1", "doc_id % 11 + 1", "2021 + doc_id % 5")
    nl = "chr(10)"
    vessel = _sql_case_options(_OCR_VESSELS, "doc_id")
    p1 = _sql_case_options(_OCR_PORTS, "doc_id")
    p2 = _sql_case_options(_OCR_PORTS, "(doc_id + 2)")
    parts = [
        "'Invoice ' || CAST(3000000 + doc_id AS VARCHAR)",
        f"'Invoice Date: ' || {d1}",
        f"'Due Date: ' || {d2}",
        "'Customer Number: ' || CAST(1000 + doc_id % 9000 AS VARCHAR)",
        "'Order No.: ' || CAST(700000 + doc_id % 100000 AS VARCHAR)",
        "'Ext. order no. : KO' || CAST(2100000 + doc_id % 100000 AS VARCHAR)"
        " || '-' || CAST(1 + doc_id % 8 AS VARCHAR)",
        f"'Loading date ' || {d1}",
        f"'Delivery date ' || {d2}",
        f"'Vessel Name: ' || {vessel} || ' Container type: 40HC'",
        f"'Port of loading: ' || {p1}",
        f"'Port of delivery: ' || {p2}",
        "'Total amount without VAT ' || CAST(10 + doc_id % 90 AS VARCHAR)"
        f" || ' ' || {_sql_pad('doc_id % 1000', 3)} || ',' || {_sql_pad('doc_id % 100', 2)} || ' NOK'",
        "'Tour No.: ' || CAST(300000 + doc_id % 100000 AS VARCHAR)",
    ]
    rendered = f" || {nl} || ".join(f"({p})" for p in parts)
    fields = ",\n       ".join(
        f"regexp_extract(rendered, {_sql_quote(pat)}, 1) AS {_INV_COLS[name]}"
        for name, pat in _SQL_INV_PATTERNS.items()
    )
    return f"""
SELECT doc_id,
       {fields},
       CAST(doc_id % 4 AS BIGINT) AS rotation_k,
       (doc_id % 3 = 1) AS inverted,
       CAST(1000000 AS BIGINT) AS match_ppm
FROM (SELECT doc_id, {rendered} AS rendered FROM documents)
ORDER BY doc_id
"""


EXTRACT_KERNEL_OCR_INVOICE_SQL = _ocr_invoice_sql()
