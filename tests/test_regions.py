"""Detector-path tests (S8 table-region detection, M40 grid synthesis,
M41 crops): unit coverage, engine-vs-oracle equality over the raw-box
corpus, and differentials against the reference's own grid-geometry loop
and post-processing bank."""

import glob
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdf_extractors_ray.oracle import regions, runner
from pdf_extractors_ray.pipelines import extract, schemas
from pdf_extractors_ray.sources.transcripts import synthesize_box_transcripts

from helpers import canonical, oracle_table
from reference_loader import REFERENCE_ROOT, load_reference_module

BOX_DIR = "/tmp/pdfx_test/boxes-small"
BOX_CONVS = 30


@pytest.fixture(scope="session")
def box_corpus_dir() -> str:
    return synthesize_box_transcripts(BOX_DIR, n_convs=BOX_CONVS)


@pytest.fixture(scope="session")
def box_corpus_table(box_corpus_dir) -> pa.Table:
    files = sorted(glob.glob(box_corpus_dir + "/*.parquet"))
    return pa.concat_tables([pq.read_table(f) for f in files])


# ---------------------------------------------------------------------------
# unit


def test_detect_header_from_topmost_band():
    boxes = [
        {"text": "B", "x0": 100.0, "y0": 80.0, "x1": 120.0, "y1": 88.0},
        {"text": "A", "x0": 20.0, "y0": 80.5, "x1": 40.0, "y1": 88.0},
        {"text": "d1", "x0": 25.0, "y0": 100.0, "x1": 30.0, "y1": 108.0},
    ]
    header, data = regions.detect_header(boxes)
    assert header == [(20.0, "A"), (100.0, "B")]
    assert len(data) == 1 and data[0][0]["text"] == "d1"


def test_mancini_lines_recurrence():
    lines = regions.mancini_horizontal_lines(30.0)
    assert lines[0] == 37.0 and lines[1] == 43.0  # +7, +6
    assert lines[2] == 46.5 and lines[3] == 52.5  # +3.5, +6
    assert len(lines) == 40  # 20 rows x 2 lines
    assert regions.mancini_horizontal_lines(30.0, first_page=True)[0] == 0.5


def test_grid_rows_binning_and_gap_rows():
    h = [10.0, 16.0, 19.5, 25.5]  # row, gap, row
    v = [0.0, 50.0, 100.0]
    boxes = [
        {"text": "a", "x0": 10.0, "y0": 11.0, "x1": 14.0, "y1": 15.0},
        {"text": "b", "x0": 60.0, "y0": 20.5, "x1": 64.0, "y1": 24.5},
    ]
    rows = regions.grid_rows_from_boxes(boxes, h, v)
    assert rows == [["a", ""], ["", ""], ["", "b"]]


def test_crop_text_reading_order():
    boxes = [
        {"text": "SOLD", "x0": 25.0, "y0": 90.0, "x1": 60.0, "y1": 100.0},
        {"text": "TO:", "x0": 65.0, "y0": 90.0, "x1": 80.0, "y1": 100.0},
        {"text": "ACME", "x0": 25.0, "y0": 104.0, "x1": 60.0, "y1": 114.0},
        {"text": "outside", "x0": 300.0, "y0": 90.0, "x1": 340.0, "y1": 100.0},
    ]
    assert regions.crop_text(boxes, regions.SOLD_TO_BBOX) == "SOLD TO:\nACME"


def test_table_detected_merged_total_and_page_headers():
    """KNR detector fold: header from page-0 topmost band, page-1's own
    header band data-skipped, merged 'Total X Y' first cell re-split into
    columns 0/5/6."""
    cols = ["Date", "Payee / Payer", "Type", "Reference", "Description",
            "Income", "Expense", "Balance"]
    xs = [20.0 + 90.0 * i for i in range(8)]

    def band(y, vals):
        return [
            {"text": v, "x0": xs[j] + 1.0, "y0": y, "x1": xs[j] + 11.0, "y1": y + 8.0}
            for j, v in vals
        ]

    header = band(80.0, list(enumerate(cols)))
    page0 = {"boxes": header + band(100.0, [(0, "01.02.2021"), (1, "Marres"), (7, "99.10")])}
    page1 = {
        "boxes": header
        + band(100.0, [(0, "Total 12.34 56.78"), (7, "42.00")])
        + band(112.0, [(0, "02.02.2021"), (2, "Rent"), (7, "10.00")])
    }
    rows = regions.extract_table_detected_conv(
        [json.dumps(page0), json.dumps(page1)], [0, 1]
    )
    assert len(rows) == 3  # page-1 header band skipped
    assert rows[0]["Date"] == "01.02.2021" and rows[0]["Balance"] == "99.10"
    total = rows[1]
    assert total["Date"] == "Total" and total["Income"] == "12.34" and total["Expense"] == "56.78"
    assert rows[2]["Type"] == "Rent" and rows[2]["ref_turn"] == 1


# ---------------------------------------------------------------------------
# engine ≡ oracle over the raw-box corpus

DETECTED_CASES = [
    ("layout_detected", extract.extract_layout_detected, schemas.LAYOUT_DETECTED_SCHEMA),
    ("table_detected", extract.extract_table_detected, schemas.TABLE_SCHEMA),
    ("grid_detected", extract.extract_grid_detected, schemas.GRID_DETECTED_SCHEMA),
    ("grid_crops", extract.extract_grid_crops, schemas.GRID_CROPS_SCHEMA),
]


@pytest.mark.parametrize("name,engine_fn,schema", DETECTED_CASES, ids=[c[0] for c in DETECTED_CASES])
def test_detected_engine_matches_oracle(ray_session, box_corpus_dir, box_corpus_table, name, engine_fn, schema):
    golden = runner.run_box_family(box_corpus_table, name)
    engine = engine_fn(box_corpus_dir).to_pandas()
    assert len(engine) == len(golden) > 0
    pd.testing.assert_frame_equal(
        canonical(oracle_table(golden, schema)), canonical(engine), check_dtype=False
    )


def test_detected_layout_equals_predetected_semantics():
    """The detector fold on raw boxes must agree with the pre-detected
    fold (oracle/layout.py) when given the equivalent cooked payload."""
    from pdf_extractors_ray.oracle import layout as _layout
    from pdf_extractors_ray.sources.transcripts import conv_turns, _BOXES_CYCLE, _GEN_BOXES

    conv_id, family, texts = conv_turns(0, cycle=_BOXES_CYCLE, gens=_GEN_BOXES)
    assert family == "layout_boxes"
    detected = regions.extract_layout_detected_conv(texts, list(range(len(texts))))

    # build the cooked equivalent: move the bold header band into the
    # 'header' payload field the pre-detected fold expects
    cooked = []
    for text in texts:
        payload = json.loads(text)
        boxes = payload["boxes"]
        header_band = [b for b in boxes if b.get("font") == "Arial-Bold"]
        rest = [b for b in boxes if b.get("font") != "Arial-Bold"]
        out = {"boxes": rest}
        if header_band:
            out["header"] = [
                {"col": b["text"], "x": b["x0"]}
                for b in sorted(header_band, key=lambda b: b["x0"])
            ]
        cooked.append(json.dumps(out, sort_keys=True))
    predetected = _layout.extract_layout_conv(cooked, list(range(len(texts))))
    assert detected == predetected and len(detected) > 0


# ---------------------------------------------------------------------------
# differentials against the reference's own code

# skip, don't fail, where the reference checkout is absent — as
# test_reference_differential.py does for its whole module
needs_reference = pytest.mark.skipif(
    not os.path.isdir(REFERENCE_ROOT), reason="reference repo not available"
)


@needs_reference
def test_mancini_line_geometry_matches_reference():
    """Drive the reference's draw_table_with_plumber loop
    (mancini-beverage-invoice/invoice.py:12-55) with a recording
    pdfplumber fake and compare the explicit line lists it passes to
    extract_tables against our synthesis."""
    ref = load_reference_module("mancini-beverage-invoice/invoice.py", "ref_mancini_plumber")

    captured = {}

    class FakeImage:
        def reset(self):
            return self

        def debug_tablefinder(self, settings):
            return self

    class FakePage:
        page_number = 1

        def extract_text(self, **kw):
            return ""

        def search(self, text):
            assert text == "PRICE"
            return [{"bottom": 30.0}]

        def to_image(self, *a, **kw):
            return FakeImage()

        def extract_tables(self, settings):
            captured.update(settings)
            return []

    class FakePdf:
        pages = [FakePage()]

        def __enter__(self):
            return self

        def __exit__(self, *a):
            return False

    class FakePlumber:
        @staticmethod
        def open(path):
            return FakePdf()

    ref.pdfplumber = FakePlumber()
    ref.draw_table_with_plumber("ignored.pdf", FakePage())

    want_h = captured["explicit_horizontal_lines"]
    want_v = captured["explicit_vertical_lines"]
    got_h = regions.mancini_horizontal_lines(30.0, first_page=True)
    assert got_h == pytest.approx(want_h)
    assert regions.MANCINI_VERTICAL_LINES == pytest.approx(want_v)


@needs_reference
def test_grid_cleanup_matches_reference_post_processing():
    """The detected-grid cleanup must equal the reference's pandas
    post_processing (invoice.py:135-153) on the same 13-column raw rows,
    including the df.loc[1:] header exemption and predicate order."""
    ref = load_reference_module("mancini-beverage-invoice/invoice.py", "ref_mancini_pp")

    rng = np.random.RandomState(5)
    raw_rows = []
    for r in range(30):
        cells = [""] * 13
        cells[0] = f"{rng.randint(1, 99)}|" if r % 3 == 0 else str(rng.randint(1, 99))
        cells[1] = "Z" if r % 8 == 0 else f" {rng.randint(1000, 9999)} "
        cells[2] = "x"
        cells[3] = f";{rng.randint(100, 999)}" if r % 4 == 0 else str(rng.randint(100, 999))
        cells[4] = ["1.5L", "750ML", "12OZ", "X", "TOOLONGSIZE99"][r % 5]
        cells[5] = "y"
        cells[6] = f"{rng.randint(1, 99)}.{rng.randint(0, 100):02d}"
        cells[7] = "z"
        if r % 3 == 0:
            cells[8] = f"D{rng.randint(0, 99)}"
        raw_rows.append(cells)

    want = ref.post_processing([list(c) for c in raw_rows])

    # our cleanup via the conv fold: one turn per raw page carrying the
    # rows is equivalent to feeding the raw rows directly
    got_rows = []
    for raw_idx, cells in enumerate(raw_rows):
        if len(cells[1]) < 2 or len(cells[4]) < 2 or len(cells[4]) >= 7:
            continue
        vals = {}
        for i in regions.KEPT_GRID_COLS:
            v = cells[i].strip().replace("|", "")
            if raw_idx != 0 and i in (0, 1, 3):
                v = regions._NON_DIGIT.sub("", v)
            if i == 3:
                v = v.replace(";", "")
            vals[i] = v
        got_rows.append(vals)

    assert len(got_rows) == len(want)
    for got, (_, ref_row) in zip(got_rows, want.iterrows()):
        for i in regions.KEPT_GRID_COLS:
            assert got[i] == ref_row[i], (i, got, dict(ref_row))


def test_layout_detect_surrogate_matches_detector():
    """Rendered box conversations through the REAL detector fold
    (extract_layout_detected_conv) reproduce the surrogate SQL's analytic
    expectations — topmost-band header (font-free), boxless-turn wait,
    data band riding the header turn, binning/font/completeness rules."""
    from pdf_extractors_ray.oracle import regions as reg
    from pdf_extractors_ray.ops.surrogate import _render_layout_boxes_py

    for doc_id in range(0, 120):
        turns = _render_layout_boxes_py(doc_id)
        rows = reg.extract_layout_detected_conv([t for _, t in turns], [i for i, _ in turns])
        off = 1 if doc_id % 7 == 0 else 0
        kept = [p for p in ([0] if doc_id % 2 == 0 else []) + list(range(1, 2 + doc_id % 3 + 1))
                if (doc_id + p) % 4 != 0]
        assert [r["ref_turn"] for r in rows] == [p + off for p in kept]
        for r, p in zip(rows, kept):
            assert r["State Code"] == str(doc_id % 50)
            assert r["County Code"] == f"C{(doc_id * 10 + p) % 997}"
            assert r["Tract Code"] == (f"T{(doc_id + p) % 89}" if (doc_id + p) % 3 == 0 else None)
            assert r["Tract Population"] == str((doc_id * 7 + p) % 10000)


def test_table_detect_surrogate_matches_detector():
    """Rendered box conversations through the REAL detector fold
    (extract_table_detected_conv) reproduce the surrogate SQL — page-0
    header discovery, per-page header-band skip, single-band pages as
    data, merged-Total fix-up, in-bin x-ordered concat."""
    from pdf_extractors_ray.oracle import regions as reg
    from pdf_extractors_ray.ops.surrogate import _py_date, _render_table_boxes_py

    for doc_id in range(0, 120):
        turns = _render_table_boxes_py(doc_id)
        rows = reg.extract_table_detected_conv([t for _, t in turns], [i for i, _ in turns])
        kept = [p for p in ([0] if doc_id % 2 == 0 else []) + list(range(1, 2 + doc_id % 3 + 1))
                if p == 0 or (doc_id + p) % 6 != 0]
        assert [r["ref_turn"] for r in rows] == kept
        for r, p in zip(rows, kept):
            v = doc_id + p
            assert r["Date"] == (
                "Total" if v % 4 == 0
                else _py_date(v % 28 + 1, v % 12 + 1, 2020 + v % 6)
            )
            assert r["Type"] == ["Deposit", "Withdrawal", "Fee"][v % 3] + f" t{v % 7}"
            assert r["Income"] == str(100 + (doc_id * 7 + p) % 9000)
            assert r["Expense"] == str(50 + (doc_id * 11 + p) % 9000)
            assert r["Balance"] == str((doc_id * 17 + p) % 100000)


def test_grid_detect_surrogate_matches_detector():
    """Rendered box conversations through the REAL grid synthesis + cleanup
    (extract_grid_detected_conv) reproduce the surrogate SQL — PRICE-anchor
    recurrence, first-page 0.5 header band, gap-band drops, raw-row-0
    digit-strip exemption, multi-box cell concat, predicate drops."""
    from pdf_extractors_ray.oracle import regions as reg
    from pdf_extractors_ray.ops.surrogate import _render_grid_boxes_py

    for doc_id in range(0, 120):
        turns = _render_grid_boxes_py(doc_id)
        rows = reg.extract_grid_detected_conv([t for _, t in turns], [i for i, _ in turns])
        exp = [{"ref_turn": 0, "c0": "HDR NO", "c1": "QTY", "c3": "PRICE", "c4": "DESCR",
                "c6": "AMT", "c8": "X8", "c9": "", "c10": "", "c11": "", "c12": ""}]
        for t in range(1 + doc_id % 3):
            for k in range(1 + doc_id % 2):
                if (doc_id + t + k) % 5 in (0, 1):
                    continue
                exp.append({
                    "ref_turn": t,
                    "c0": str(1000 + (doc_id * 3 + 10 * t + k) % 9000),
                    "c1": str(1 + (doc_id + t + k) % 99),
                    "c3": str((doc_id * 7 + t + 3 * k) % 10000),
                    "c4": f"It{(doc_id + t + k) % 10}m",
                    "c6": f"$ {(doc_id * 11 + t + 7 * k) % 100000}.00",
                    "c8": f"n{(doc_id + t + k) % 9}",
                    "c9": "", "c10": "", "c11": "", "c12": "",
                })
        assert rows == exp


def test_crop_surrogate_matches_detector():
    """Rendered box conversations through the REAL crop fold
    (extract_grid_crops_conv) reproduce the surrogate SQL — full
    containment, band joins, page-1-only."""
    from pdf_extractors_ray.oracle import regions as reg
    from pdf_extractors_ray.ops.surrogate import _render_crop_boxes_py

    for doc_id in range(0, 120):
        turns = _render_crop_boxes_py(doc_id)
        rows = reg.extract_grid_crops_conv([t for _, t in turns], [i for i, _ in turns])
        assert rows == [{
            "ref_turn": 0,
            "po_box": f"PO Box {100 + doc_id % 900}",
            "sold_to": f"Cust{doc_id % 50} Ltd\nStreet {doc_id % 30}",
        }]
