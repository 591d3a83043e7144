"""Unit tests for the reference-semantics oracle (SURVEY.md §5.2 item 2).

Fixture strings follow the observable input grammar of the reference's
committed golden CSVs (e.g. member strings visible in
``roman-census/input_csv/persons_input.csv``).
"""

from pdf_extractors_ray.oracle import catalog, census, grid, invoice, layout, persons, table


# ---------------------------------------------------------------------------
# catalog state machine


def test_catalog_basic_record():
    lines = [
        catalog.BANNER,
        "Oil",
        "ACURA",
        "2023",
        "MDX",
        "V6 3.0L F.I. Turbo",
        "M1-110A",
        "M1-103B",
        "Premium Filter Recommended. x",
    ]
    rows = catalog.extract_catalog_conv(lines, list(range(len(lines))))
    assert len(rows) == 1
    r = rows[0]
    assert r["manufacturer"] == "ACURA"
    assert r["year"] == "2023"
    assert r["model"] == "MDX"
    assert r["engine"] == "V6 3.0L F.I. Turbo"  # NBSP-strip only (:97)
    assert r["oils"] == ["M1-103B", "M1-110A"]  # canonical sorted dedup


def test_catalog_flush_on_year_transition():
    lines = [catalog.BANNER, "Oil", "BMW", "2020", "330i", "L4 2.0L", "M1-201A", "2021", "X5", "V8 4.4L", "F12345"]
    rows = catalog.extract_catalog_conv(lines, list(range(len(lines))))
    assert len(rows) == 2
    assert rows[0]["year"] == "2020" and rows[1]["year"] == "2021"
    assert rows[0]["ref_turn"] == 7  # flushed by the '2021' line


def test_catalog_requires_oil_gate_and_banner():
    lines = ["BMW", "2020", "330i", "L4 2.0L", "M1-201A"]
    assert catalog.extract_catalog_conv(lines, list(range(5))) == []


def test_catalog_electric_gas_merge():
    lines = [catalog.BANNER, "Oil", "FORD", "2022", "Escape", "L4 2.5L", "(Electric/Gas)", "M1-108A"]
    rows = catalog.extract_catalog_conv(lines, list(range(len(lines))))
    assert rows[0]["engine"] == "L4 2.5L (Electric/Gas)"


def test_catalog_electric_gas_before_any_engine_is_ignored():
    """An "(Electric/Gas)" line after a model but no engine leaves the
    engine None instead of raising, so the record's later engine stands
    alone."""
    lines = [catalog.BANNER, "Oil", "SAAB", "2019\xa0(cont'd)", "2.4L V6", "(Electric/Gas)"]
    assert catalog.extract_catalog_conv(lines, range(6)) == []
    lines = [catalog.BANNER, "Oil", "FORD", "2022", "Escape", "(Electric/Gas)", "L4 2.5L", "M1-108A"]
    rows = catalog.extract_catalog_conv(lines, list(range(len(lines))))
    assert [(r["model"], r["engine"], r["oils"]) for r in rows] == [("Escape", "L4 2.5L", ["M1-108A"])]


# ---------------------------------------------------------------------------
# invoice regex bank + fold


def test_invoice_fields_and_ffill():
    header = "Invoice 3056313\nInvoice Date: 25.03.2022\nDue Date: 08.04.2022\nCustomer Number: 1415"
    o1 = (
        "Order No.: 729360\nExt. order no. : KO2100567-2\nLoading date 26.01.2022\n"
        "Delivery date 04.04.2022\nVessel Name: AL ZUBARA - 0017W Container type: 40HC\n"
        "Port of loading: CNNBG\nPort of delivery: NOMSS\n"
        "Total amount without VAT 475,00 NOK\nTour No.: 310613"
    )
    o2 = "Order No.: 729361\nLoading date 27.01.2022\nTotal amount without VAT 1 250,50 NOK"
    rows = invoice.extract_invoice_conv([header, o1, o2], [0, 1, 2])
    assert len(rows) == 2
    assert rows[0]["Invoice"] == "3056313"
    assert rows[0]["Vessel Name"] == "AL ZUBARA - 0017W"
    assert rows[0]["Total amount without VAT"] == "475,00 NOK"
    assert rows[1]["Delivery date"] == "04.04.2022"  # LOCF
    assert rows[1]["Customer Number"] == "1415"  # header broadcast
    assert rows[1]["Page"] == "2"


def test_invoice_lost_anchor_prefix():
    rows = invoice.extract_invoice_conv(["Invoice 1\nInvoice Date: 01.01.2020", ": 999\nTour No.: 5"], [0, 1])
    assert rows[0]["Order No."] == "999"


# ---------------------------------------------------------------------------
# census household fold


CENSUS_LINES = [
    "HOUSEHOLD NO.: 117-Ar-6",
    "Source: P.Mil. I 3 (cf. BL 6.75)",
    "Prov., Date: Theadelphia (Arsinoite), 22/1/12",
    "Declarant: Harthotes s. Marres and Esersythis, public farmer, 55",
    "Family members: (1) Harthotes [declarant] s. Marres and Esersythis, public farmer, 55",
    "(2) Taorseus d. Harthotes and Taues, daughter of no. 1, 12",
    "continuation of previous member line",
    "Free non-kin: None",
    "Slaves: None",
    "Verif./photo: original; seen 10/12/1990.",
    "Discussion: Broken at top.",
    "Cambridge Books Online https://doi.org/x",
]


def test_household_fold():
    hh = census.fold_household_lines(CENSUS_LINES)
    assert len(hh) == 1
    h = hh[0]
    assert h["household_number"] == "117-Ar-6"
    assert len(h["name_of_family_members"]) == 2
    # continuation line appended to member 2
    assert h["name_of_family_members"][1].endswith("continuation of previous member line")
    assert h["slaves"] == []


def test_household_enrich_and_summary():
    h = census.enrich_households(census.fold_household_lines(CENSUS_LINES))[0]
    assert h["declarant_occupation"] == "public farmer"
    assert h["declarant_name_parsed"] == ["Harthotes"]
    assert h["declarant_id"] == ["117-Ar-6-d1"]
    s = census.summarize_household(h)
    assert s["household_number_year"] == "117"
    assert s["household_number_location"] == "Ar"
    assert s["number_of_family_members"] == 2
    assert s["discussion_indicates_substantive_record_brokenness"] == "Yes"


def test_parsed_declarants_styles():
    assert census.get_parsed_declarants("Not preserved") == ["Not preserved"]
    assert census.get_parsed_declarants("Ammonios and Herakles") == ["Ammonios", "Herakles"]
    assert census.get_parsed_declarants("Harthotes s. Marres and Esersythis, farmer") == ["Harthotes"]


# ---------------------------------------------------------------------------
# persons extractors + kinship


def test_person_extractors():
    data = "(1) Harthotes [declarant] s. Marres and Esersythis, public farmer and priest of Tothoes, 55"
    assert persons.get_name(data) == "Harthotes"
    assert persons.get_sex(data, "F") == "male"
    assert persons.get_age(data) == "55"
    assert persons.get_father(data) == "Marres"
    assert persons.get_mother(data) == "Esersythis"
    assert persons.get_occupation(data) == "public farmer and priest of Tothoes"
    assert persons.get_relation_to_declarant(data) == "self"


def test_person_age_literals():
    assert persons.get_age("(2) X, age lost") == "age lost"
    assert persons.get_age("(2) X, age not given") == "age not given"


def test_slave_extractors():
    data = "(1) Felix, slave of Kronion, male, 20"
    assert persons.get_owner(data) == "Kronion"
    assert persons.get_sex(data, "S") == "male"
    data2 = "(2) Heraklous, offspring of Thermouthis, female, 2"
    assert persons.get_slave_mother(data2) == "Thermouthis"


def test_kinship_number_reference():
    household = {
        "household_number": "131-Ox-1",
        "declarant_name": "Kronion s. Pnepheros and Taues, farmer, 40",
        "declarant_name_parsed": ["Kronion"],
        "declarant_id": ["131-Ox-1-d1"],
        "name_of_family_members": [
            "(1) Kronion [declarant] s. Pnepheros and Taues, farmer, 40",
            "(2) Taorseus d. Pnepheros and Taues, wife of Kronion [no. 1], 35",
        ],
        "name_of_non_family_members": [],
        "slaves": [],
    }
    out = persons.extract_persons_for_household(household)
    assert len(out) == 2
    declarant, wife = out[0], out[1]
    assert declarant["id"] == "131-Ox-1-d1"  # fuzzy declarant id match (J1)
    assert wife["spouse"] == declarant["id"]  # J2 numeric cross-reference
    assert declarant["spouse"] == wife["id"]  # bidirectional write


def test_ocr_l_for_1_reference():
    refs = persons.find_number_reference(1, [{"data": "(2) X, wife of Y [no. l]"}])
    assert refs == [1]


# ---------------------------------------------------------------------------
# layout / table / grid


def test_layout_binning():
    import json

    header = [{"col": "State Code", "x": 10.0}, {"col": "County Code", "x": 50.0}, {"col": "Tract Code", "x": 90.0}]
    t0 = json.dumps({
        "header": header,
        "boxes": [
            {"text": "06", "x0": 12.0, "font": "Arial"},
            {"text": "037", "x0": 55.0, "font": "Arial"},
            {"text": "ignored", "x0": 95.0, "font": "Helvetica"},
        ],
    })
    t1 = json.dumps({"boxes": [{"text": "no-county", "x0": 12.0, "font": "Arial"}]})
    rows = layout.extract_layout_conv([t0, t1], [0, 1])
    assert len(rows) == 1  # t1 dropped: County Code missing (:45-46)
    assert rows[0]["State Code"] == "06"
    assert rows[0]["County Code"] == "037"
    assert rows[0]["Tract Code"] is None  # non-Arial filtered (:40-44)


def test_table_header_broadcast_and_total_fixup():
    import json

    turns = [
        json.dumps(["Date", "Payee / Payer", "Type", "Reference", "Description", "Income", "Expense", "Balance"]),
        json.dumps(["01.01.2024", "Smith", "Rent", "R1", "desc", "100.00", "0.00", "500.00"]),
        json.dumps(["Total 100.00 50.00", "", "", "", "", "", "", "450.00"]),
    ]
    rows = table.extract_table_conv(turns, [0, 1, 2])
    assert len(rows) == 2
    assert rows[0]["Date"] == "01.01.2024"
    assert rows[1]["Date"] == "Total"
    assert rows[1]["Income"] == "100.00" and rows[1]["Expense"] == "50.00"


def test_grid_cleanup():
    import json

    turns = [
        json.dumps(["QTY", "ITEM", "j", "CODE", "SIZE", "j", "PRICE", "j"]),
        json.dumps(["12|", " 4711 ", "x", ";842", "1.5L", "y", "9.99", "z"]),
        json.dumps(["1", "Z", "x", "1", "1.5L", "y", "9.99", "z"]),  # len(c1)<2 → dropped
        json.dumps(["1", "4712", "x", "1", "TOOLONGSIZE", "y", "9.99", "z"]),  # len(c4)>=7 → dropped
    ]
    rows = grid.extract_grid_conv(turns, [0, 1, 2, 3])
    assert len(rows) == 2  # header + one valid row
    assert rows[1]["c0"] == "12"  # '|' removed then non-digits removed
    assert rows[1]["c1"] == "4711"
    assert rows[1]["c3"] == "842"  # ';' removed
    assert rows[0]["c0"] == "QTY"  # header row exempt from digit-strip


def test_household_anchor_variants():
    """Less-common anchor spellings (household.py:53,61,66)."""
    hh = census.fold_household_lines([
        "HOUSEHOLD NO.: 145-Ar-9",
        "*Source: P.Oxy. II 255",
        "Declarants: Thaisarion and Taos",
        "Family members, free non-kin, slaves: (1) A s. B and C, 30",
        "Free non-kin, slaves: (1) D, slave of E, male, 20",
        "Slaves: No names survive",
    ])
    h = hh[0]
    assert h["source"] == "P.Oxy. II 255"
    assert h["declarant_name"] == "Thaisarion and Taos"
    assert h["name_of_family_members"] == ["(1) A s. B and C, 30"]
    assert h["name_of_non_family_members"] == ["(1) D, slave of E, male, 20"]
    # 'No names survive' is filtered for Free non-kin (:74) but KEPT for
    # Slaves (:85 filters only 'None') — reference asymmetry, bug-for-bug
    assert h["slaves"] == ["No names survive"]


def test_household_source_second_char_variant():
    hh = census.fold_household_lines(["HOUSEHOLD NO.: 1-Ar-1", "xSource: P.Mil. 3"])
    assert hh[0]["source"] == "P.Mil. 3"


def test_household_free_nonkin_prose_value():
    hh = census.fold_household_lines([
        "HOUSEHOLD NO.: 1-Ar-1",
        "Free non-kin: two lodgers, names illegible",
    ])
    assert hh[0]["name_of_non_family_members"] == ["two lodgers, names illegible"]


def test_household_slaves_prose_value():
    hh = census.fold_household_lines([
        "HOUSEHOLD NO.: 1-Ar-1",
        "Slaves: three slaves, names lost",
    ])
    assert hh[0]["slaves"] == ["three slaves, names lost"]


def test_catalog_saab_dot_models():
    """SAAB admits dots in the model regex (mobil-oil-extractor.py:84-93),
    so dotted ENGINE lines become models under SAAB and the record never
    completes — zero rows, bug-for-bug with the reference (confirmed by the
    differential harness). An engine line with a char outside the SAAB
    model class (':') still lands in the engine branch."""
    starved = [catalog.BANNER, "Oil", "SAAB", "2006", "9-3", "L4 2.0L F.I.", "M1-101A",
               "9.3 Aero", "V6 2.8L F.I.", "M1-102B", "DODGE", "2020"]
    assert catalog.extract_catalog_conv(starved, list(range(len(starved)))) == []

    ok = [catalog.BANNER, "Oil", "SAAB", "2006", "9-3", "L4: 2.0L F.I.", "M1-101A"]
    rows = catalog.extract_catalog_conv(ok, list(range(len(ok))))
    assert [(r["model"], r["engine"]) for r in rows] == [("9-3", "L4: 2.0L F.I.")]


def test_invoice_header_without_invoice_key():
    """Fragment 0 lacking the Invoice field leaves ALL header fields None —
    the reference's get() guard keys on 'Invoice' presence (:89-91)."""
    rows = invoice.extract_invoice_conv(
        ["Loading date 01.01.2020", "Order No.: 7\nTour No.: 9"], [0, 1]
    )
    assert rows[0]["Invoice"] is None
    assert rows[0]["Invoice Date"] is None
    assert rows[0]["Order No."] == "7"


def test_invoice_fold_surrogate_matches_oracle_fold():
    """The rendered fold-surrogate fragments, pushed through the ORACLE
    fold (oracle.invoice.extract_invoice_conv), reproduce the surrogate
    SQL's analytic expectations — quirk re-prefix, has-Invoice broadcast
    guard, skipped empty fragments, delivery-date LOCF."""
    from pdf_extractors_ray.oracle import invoice as inv
    from pdf_extractors_ray.ops.surrogate import _render_fold_frags_py

    for doc_id in range(0, 40):
        frags = _render_fold_frags_py(doc_id)
        rows = inv.extract_invoice_conv([t for _, t in frags], [p for p, _ in frags])
        n_orders = 2 + doc_id % 3
        kept = [p for p in range(1, n_orders + 1) if (doc_id + p) % 5 != 0]
        assert [r["Page"] for r in rows] == [str(p) for p in kept]
        if doc_id % 5 == 1:
            assert all(r["Invoice"] is None for r in rows)
            assert all(r["Invoice Date"] is None for r in rows)
        else:
            assert all(r["Invoice"] == str(3000000 + doc_id) for r in rows)
        # LOCF: delivery date fills forward from the last carrying fragment
        last = None
        for r, p in zip(rows, kept):
            if (doc_id + p) % 3 == 0:
                last = r["Delivery date"]
                assert last is not None
            assert r["Delivery date"] == last


def test_variant_equality_gate_raises_on_mismatch():
    import pandas as pd
    import pytest as _pytest

    from pdf_extractors_ray.pipelines.queries import _assert_variants_equal

    class Fake:
        def __init__(self, df):
            self._df = df

        def to_pandas(self):
            return self._df

    a = pd.DataFrame({"x": [1, 2], "y": ["a", "b"]})
    _assert_variants_equal("a", Fake(a), "a2", Fake(a.iloc[::-1]))  # order-free
    with _pytest.raises(RuntimeError):
        _assert_variants_equal("a", Fake(a), "b", Fake(a.assign(y=["a", "c"])))


def test_layout_fold_surrogate_matches_oracle_fold():
    """The rendered layout-surrogate turns, pushed through the ORACLE fold
    (oracle.layout.extract_layout_conv), reproduce the surrogate SQL's
    analytic expectations — late-header wait, font predicate, boundary
    binning, last-box-wins, County-Code completeness gate."""
    from pdf_extractors_ray.oracle import layout as lay
    from pdf_extractors_ray.ops.surrogate import _render_layout_turns_py

    for doc_id in range(0, 60):
        turns = _render_layout_turns_py(doc_id)
        rows = lay.extract_layout_conv([t for _, t in turns], [i for i, _ in turns])
        off = 1 if doc_id % 7 == 0 else 0
        kept = [p for p in range(1, 2 + doc_id % 3 + 1) if (doc_id + p) % 4 != 0]
        assert [r["ref_turn"] for r in rows] == [p + off for p in kept]
        for r, p in zip(rows, kept):
            assert r["State Code"] == str(doc_id % 50)
            assert r["County Code"] == f"C{(doc_id * 10 + p) % 997}"
            expected_tract = f"T{(doc_id + p) % 89}" if (doc_id + p) % 3 == 0 else None
            assert r["Tract Code"] == expected_tract  # JUNK (Times) never lands
            assert r["Tract Population"] == str((doc_id * 7 + p) % 10000)


def test_catalog_fold_surrogate_matches_oracle_fold():
    """The rendered catalog-surrogate lines, pushed through the ORACLE
    state machine (oracle.catalog.extract_catalog_conv), reproduce the
    surrogate SQL's analytic expectations — gating, lookahead, NBSP
    (cont'd) splits, SAAB regime, E/G continuation, year-transition flush,
    oil dedup, trailing flush."""
    from pdf_extractors_ray.oracle import catalog as cat
    from pdf_extractors_ray.ops.surrogate import _render_catalog_lines_py

    for doc_id in range(0, 120):
        lines = _render_catalog_lines_py(doc_id)
        rows = cat.extract_catalog_conv(lines, list(range(len(lines))))
        base = (1 if doc_id % 3 == 0 else 0) + (1 if doc_id % 4 == 1 else 0) + 4
        blk = 4 + (1 if doc_id % 6 == 2 else 0) + (1 if doc_id % 4 == 0 else 0)
        n = 1 + doc_id % 4
        ychg = 1 if doc_id % 8 == 5 else 0
        y1 = 1990 + doc_id % 30
        assert len(rows) == n
        for b, r in enumerate(rows):
            ref = base + n * blk + ychg - 1 if b == n - 1 else base + (b + 1) * blk + (ychg if b >= 1 else 0)
            assert r["ref_turn"] == ref
            assert r["manufacturer"] == ["ACME MOTORS", "ZEPHYR", "SAAB"][doc_id % 3]
            assert r["year"] == str(y1 + 1 if (ychg and b >= 1) else y1)
            if doc_id % 3 == 2:
                assert r["model"] == f"9.3 Aero {b}"
            eg = " (Electric/Gas)" if doc_id % 6 == 2 else ""
            assert r["engine"] == f"2.{b}L, V{4 + (doc_id + b) % 5} engine{eg}"
            assert r["oils"] == sorted(
                {f"M1C-{100 + (doc_id * 3 + b) % 900}A", f"F{10000 + (doc_id + b) % 90000}"}
            )


def test_census_fold_surrogate_matches_oracle_fold():
    """The rendered census-surrogate conversations, pushed through the
    ORACLE fold + summary (oracle.census), reproduce the surrogate SQL's
    analytic expectations — anchor shapes, boilerplate-safe continuation,
    cross-turn member accumulation, None/No-names filters, declarant
    parsing shapes, occupation suffix capture, raw-number declarant ids,
    splitters, counts, brokenness."""
    from pdf_extractors_ray.oracle import census as cen
    from pdf_extractors_ray.ops.surrogate import (
        _CENSUS_NAMES, _CENSUS_OCCS, _CENSUS_PLACES, _render_census_turns_py,
    )

    for doc_id in range(0, 200):
        turns = _render_census_turns_py(doc_id)
        hhs = cen.extract_census_conv([t for _, t in turns])
        rows = sorted(
            (cen.summarize_household(h) for h in hhs),
            key=lambda r: r["household_number_year"],
        )
        ks = sorted(
            (doc_id + 7 * h for h in range(1 + doc_id % 2)),
            key=lambda k: 117 + k % 3,
        )
        assert len(rows) == len(ks)
        for r, k in zip(rows, ks):
            y, loc, ords = str(117 + k % 3), ["Ar", "He", "Ox"][k % 3], str(1 + k % 9)
            raw = (f"{y}-{loc}" if k % 9 == 5
                   else f"{y} {loc} {ords}" if k % 6 == 4 else f"{y}-{loc}-{ords}")
            v = k % 5
            assert r["household_number_year"] == y
            assert r["household_number_location"] == loc
            assert r["household_number_order"] == ("" if k % 9 == 5 else ords)
            assert r["source"] == f"P.Oxy. {100 + k % 900}"
            place = _CENSUS_PLACES[k % 3]
            assert r["provenance_place"] == place
            assert r["provenance_year"] == ("" if k % 8 == 6 else f" {100 + k % 120}")
            assert r["declarant_name_1"] == _CENSUS_NAMES[k % 6]
            assert r["declarant_name_2"] == (_CENSUS_NAMES[(k + 2) % 6] if v in (2, 3) else "")
            assert ";".join(r["declarant_ids"]) == (
                f"{raw}-d1" + (f";{raw}-d2" if v in (2, 3) else "")
            )
            assert r["declarant_occupation"] == (_CENSUS_OCCS[k % 3] if v == 4 else "")
            assert r["number_of_family_members"] == 1 + k % 3
            assert r["number_of_non_family_members"] == (1 if k % 2 == 0 else 0)
            assert r["number_of_slaves"] == (1 if k % 3 == 0 else 0)
            assert r["discussion_indicates_substantive_record_brokenness"] == (
                "Yes" if k % 4 == 3 else "No"
            )


def test_table_fold_surrogate_matches_oracle_fold():
    """The rendered table-surrogate turns, pushed through the ORACLE row
    mapper (oracle.table.extract_table_conv), reproduce the surrogate SQL's
    analytic expectations — header init, merged-Total re-split (2- and
    3-part), short-row None padding, long-row truncation, JSON skips."""
    from pdf_extractors_ray.oracle import table as tab
    from pdf_extractors_ray.ops.surrogate import _py_date, _render_table_turns_py

    for doc_id in range(0, 120):
        turns = _render_table_turns_py(doc_id)
        rows = tab.extract_table_conv([t for _, t in turns], [i for i, _ in turns])
        kept = [p for p in range(1, 2 + doc_id % 4 + 1) if (doc_id + p) % 10 not in (0, 1)]
        assert [r["ref_turn"] for r in rows] == kept
        for r, p in zip(rows, kept):
            k = (doc_id + p) % 10
            date = _py_date((doc_id + p) % 28 + 1, (doc_id + p) % 12 + 1, 2020 + (doc_id + p) % 6)
            income = str(100 + (doc_id * 7 + p) % 9000)
            expense = str(50 + (doc_id * 11 + p) % 9000)
            assert r["Date"] == ("Total" if k == 2 else date)
            assert r["Payee / Payer"] == f"Payee {chr(65 + (doc_id + p) % 26)}"
            assert r["Type"] == ["Deposit", "Withdrawal", "Fee"][(doc_id + p) % 3]
            assert r["Reference"] == f"R{(doc_id * 13 + p) % 100000}"
            assert r["Description"] == f"Desc {(doc_id + p) % 50}"
            assert r["Income"] == (None if k == 3 else income)
            assert r["Expense"] == (
                None if k == 3 else ("keep6" if k == 2 and p % 2 == 1 else expense)
            )
            assert r["Balance"] == (None if k == 3 else str((doc_id * 17 + p) % 100000))
            assert "EXTRA" not in r.values()  # 9th cell truncated


def test_grid_fold_surrogate_matches_oracle_fold():
    """The rendered grid-surrogate turns, pushed through the ORACLE cleanup
    bank (oracle.grid.extract_grid_conv), reproduce the surrogate SQL's
    analytic expectations — raw-value predicates, projection to 0/1/3/4/6,
    strip + '|' removal, header-exempt digit-strip, col-3 ';' removal."""
    from pdf_extractors_ray.oracle import grid as grd
    from pdf_extractors_ray.ops.surrogate import _render_grid_turns_py

    for doc_id in range(0, 120):
        turns = _render_grid_turns_py(doc_id)
        rows = grd.extract_grid_conv([t for _, t in turns], [i for i, _ in turns])
        assert rows[0] == {
            "ref_turn": 0, "c0": "ITEM NO", "c1": "QTY", "c3": "PRICE",
            "c4": "DESCR", "c6": "AMT",
        }
        kept = [p for p in range(1, 2 + doc_id % 3 + 1)
                if (doc_id + p) % 8 not in (0, 1, 2, 3, 4)]
        assert [r["ref_turn"] for r in rows[1:]] == kept
        for r, p in zip(rows[1:], kept):
            assert r["c0"] == str(1000 + (doc_id * 3 + p) % 9000)
            assert r["c1"] == str(1 + (doc_id + p) % 99)
            assert r["c3"] == str((doc_id * 7 + p) % 10000)
            assert r["c4"] == f"It{(doc_id + p) % 10}m"
            assert r["c6"] == f"$ {(doc_id * 11 + p) % 100000}.00"


def test_persons_fold_surrogate_matches_oracle_fold():
    """The rendered persons-surrogate conversations, pushed through the
    ORACLE census fold + per-household kinship resolution, reproduce the
    surrogate SQL's closed-form expectations — declarant-id fuzzy match,
    declarant-defaulted spouse links, the numeric cross-ref cascade
    (spouse/children/sibling branches incl. the "?"-marked ref), textual
    parent captures, grandfather capture, slave owner/mother, non-kin
    name tail, and declarant synthesis."""
    from pdf_extractors_ray.oracle import census as cen
    from pdf_extractors_ray.oracle.persons import extract_persons_for_household
    from pdf_extractors_ray.ops.surrogate import _CENSUS_NAMES as NM
    from pdf_extractors_ray.ops.surrogate import _render_persons_turns_py

    for k in range(0, 240):
        turns = _render_persons_turns_py(k)
        hhs = cen.extract_census_conv([t for _, t in turns])
        assert len(hhs) == 1
        rows = sorted(extract_persons_for_household(hhs[0]), key=lambda r: r["id"])
        hn = f"{117 + k % 3}-{['Ar', 'He', 'Ox'][k % 3]}-{1 + k % 9}"
        a_, b_, c_, d_ = NM[k % 6], NM[(k + 2) % 6], NM[(k + 4) % 6], NM[(k + 1) % 6]
        a1, a2, a3 = str(20 + k % 60), str(21 + (k + 3) % 60), str(1 + (k + 5) % 15)
        s = k % 6
        by_id = {r["id"]: r for r in rows}
        d1 = by_id[f"{hn}-d1"]
        assert d1["name"] == a_ and d1["relation_to_declarant"] == "self"
        assert d1["age"] == ("" if s == 4 else a1)
        if s == 0:
            w, ch = by_id[f"{hn}-FM1"], by_id[f"{hn}-FM2"]
            assert d1["spouse"] == w["id"] and w["spouse"] == d1["id"]
            assert w["relation_to_declarant"] == "wife" and w["sex"] == "female"
            assert (ch["father"], ch["mother"]) == (a_, b_)
        elif s == 1:
            w, ch = by_id[f"{hn}-FM1"], by_id[f"{hn}-FM2"]
            assert d1["spouse"] == w["id"] and w["spouse"] == d1["id"]
            assert w["relation_to_declarant"] is None  # linked by number, not tag
            assert w["children"] == [ch["id"]]
            assert (ch["father"], ch["mother"]) == (b_, w["id"])
        elif s == 2:
            br = by_id[f"{hn}-FM1"]
            assert d1["siblings"] == [br["id"]] and br["siblings"] == [d1["id"]]
            assert br["sex"] == "male" and br["age"] == a2
        elif s == 3:
            sl = by_id[f"{hn}-S1"]
            assert sl["role"] == "slave" and sl["owner"] == a_
            assert (sl["mother"], sl["sex"], sl["age"]) == (b_, "female", a3)
        elif s == 4:
            m1, m2 = by_id[f"{hn}-FM1"], by_id[f"{hn}-FM2"]
            assert d1["sex"] is None  # synthesized from the bare line
            assert (m1["father"], m1["paternal_grandfather"]) == (a_, c_)
            assert (m2["father"], m2["sex"], m2["age"]) == (a_, "female", a2)
        else:
            nk = by_id[f"{hn}-NK1"]
            assert nk["name"] == f"{c_} the lodger"
            assert (nk["role"], nk["sex"], nk["age"]) == ("free non-kin", "female", a2)
        assert len(rows) == {0: 3, 1: 3, 2: 2, 3: 2, 4: 3, 5: 2}[s]
