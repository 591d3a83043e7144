"""Distributed engine ≡ single-threaded oracle (the correctness gate).

The Ray pipelines must reproduce the oracle's output per turn exactly —
same rows, same values — regardless of input block order (the synthesizer
writes rows shuffled). Comparison: both sides coerced through the same
Arrow schema, canonically sorted, compared cell-for-cell
(SURVEY.md §5.2 items 1 & 3).
"""

import numpy as np
import pandas as pd
import pytest

from pdf_extractors_ray.oracle import runner
from pdf_extractors_ray.pipelines import extract, schemas
from helpers import canonical, oracle_table


FAMILY_CASES = [
    ("catalog", extract.extract_catalog, schemas.CATALOG_SCHEMA),
    ("invoice", extract.extract_invoice, schemas.INVOICE_SCHEMA),
    ("layout", extract.extract_layout, schemas.LAYOUT_SCHEMA),
    ("table", extract.extract_table, schemas.TABLE_SCHEMA),
    ("grid", extract.extract_grid, schemas.GRID_SCHEMA),
]


@pytest.mark.parametrize("family,engine_fn,schema", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES])
def test_engine_matches_oracle(ray_session, small_corpus_dir, small_corpus_table, family, engine_fn, schema):
    golden = runner.run_family(small_corpus_table, family)
    engine = engine_fn(small_corpus_dir).to_pandas()
    assert len(engine) == len(golden) > 0
    pd.testing.assert_frame_equal(
        canonical(oracle_table(golden, schema)), canonical(engine), check_dtype=False
    )


def test_census_engine_matches_oracle(ray_session, small_corpus_dir, small_corpus_table):
    g_hh, g_sum, g_pers = runner.run_census(small_corpus_table)
    households = extract.extract_census_households(small_corpus_dir)
    e_hh = households.to_pandas()
    pd.testing.assert_frame_equal(
        canonical(oracle_table(g_hh, schemas.HOUSEHOLD_SCHEMA)), canonical(e_hh), check_dtype=False
    )
    e_sum = extract.extract_census_summary(small_corpus_dir).to_pandas()
    pd.testing.assert_frame_equal(
        canonical(oracle_table(g_sum, schemas.CENSUS_SUMMARY_SCHEMA)), canonical(e_sum), check_dtype=False
    )
    e_pers = extract.extract_census_persons(small_corpus_dir).to_pandas()
    assert len(e_pers) == len(g_pers) > 0
    pd.testing.assert_frame_equal(
        canonical(oracle_table(g_pers, schemas.PERSONS_SCHEMA)), canonical(e_pers), check_dtype=False
    )


def test_invoice_stage_matches_oracle_on_nbsp(ray_session):
    """RE2's \\s is ASCII-only; the widened bank must match Python re on
    NBSP-separated fields (U+00A0 — the separator this corpus's PDF text
    actually carries)."""
    import pyarrow as pa

    from pdf_extractors_ray.oracle.invoice import PATTERNS, extract_fields
    from pdf_extractors_ray.stages.invoice_extract import FIELD_PREFIX, InvoiceFieldExtractor

    texts = [
        "Invoice\xa03123456\nInvoice Date:\xa012.03.2021\nDue Date: 01.04.2021",
        "Order No.: 700123\nDelivery date\xa0\xa002.03.2021\nVessel Name: MS\xa0Nord Container type: 40HC",
        "Loading date\xa005.06.2022\nTotal amount without VAT 12\xa0345,67 NOK",
    ]
    stage_out = InvoiceFieldExtractor()(pa.table({"text": pa.array(texts)}))
    for i, text in enumerate(texts):
        want = extract_fields(text)
        got = {
            f: stage_out[FIELD_PREFIX + f][i].as_py()
            for f in PATTERNS
            if stage_out[FIELD_PREFIX + f][i].as_py() is not None
        }
        assert got == want, (i, got, want)


def test_salted_stitch_fragment_header_wins(ray_session, tmp_path):
    """A non-header fragment containing 'Invoice 999' must win over the
    conversation-header broadcast in BOTH the plain and salted paths (the
    reference applies row.update(extracted) after the header seed)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractors_ray.pipelines.extract import extract_invoice
    from pdf_extractors_ray.stages.salted import extract_invoice_salted

    turns = [
        "Invoice 111\nInvoice Date: 01.01.2020\nDue Date: 02.01.2020\nCustomer Number: 4242",
        "Order No.: 700001\nTour No.: 300001",
        "Order No.: 700002\nInvoice 999 (credit ref)\nTour No.: 300002",
        "Order No.: 700003\nTour No.: 300003",
        "Order No.: 700004\nTour No.: 300004",
        "Order No.: 700005\nTour No.: 300005",
    ]
    tbl = pa.table(
        {
            "conv_id": pa.array(["c1"] * len(turns)),
            "turn_idx": pa.array(range(len(turns)), pa.int32()),
            "role": pa.array(["user"] * len(turns)),
            "text": pa.array(turns),
            "tool": pa.array(["invoice"] * len(turns)),
            "ts": pa.array([0] * len(turns), pa.timestamp("us")),
        }
    )
    corpus = tmp_path / "mini"
    corpus.mkdir()
    pq.write_table(tbl, str(corpus / "part-00000.parquet"))

    plain = extract_invoice(str(corpus)).to_pandas()
    # window=2 puts the Invoice-999 fragment in a non-zero window, so the
    # stitch pass must preserve it
    salted = extract_invoice_salted(str(corpus), window=2).to_pandas()
    assert sorted(plain["Invoice"]) == ["111", "111", "111", "111", "999"]
    pd.testing.assert_frame_equal(plain, salted, check_dtype=False)


def test_null_text_treated_as_empty_line(ray_session):
    """Null text payloads fold as empty lines instead of crashing."""
    import ray.data as rd

    from pdf_extractors_ray.oracle import catalog as oc
    from pdf_extractors_ray.stages.fold import fold_conversations

    rows = [
        {"conv_id": "c1", "turn_idx": 0, "text": oc.BANNER, "tool": "catalog"},
        {"conv_id": "c1", "turn_idx": 1, "text": "Oil", "tool": "catalog"},
        {"conv_id": "c1", "turn_idx": 2, "text": None, "tool": "catalog"},
        {"conv_id": "c1", "turn_idx": 3, "text": "BMW", "tool": "catalog"},
        {"conv_id": "c1", "turn_idx": 4, "text": "2020", "tool": "catalog"},
        {"conv_id": "c1", "turn_idx": 5, "text": "330i", "tool": "catalog"},
        {"conv_id": "c1", "turn_idx": 6, "text": "L4 2.0L", "tool": "catalog"},
        {"conv_id": "c1", "turn_idx": 7, "text": "M1-201A", "tool": "catalog"},
    ]
    ds = rd.from_items(rows)
    out = fold_conversations(ds, oc.extract_catalog_conv, schemas.CATALOG_SCHEMA).to_pandas()
    assert len(out) == 1 and out["manufacturer"].iloc[0] == "BMW"


@pytest.mark.parametrize("sf", ["/root/testdata/sf0.001", "/root/testdata/sf0.01"])
def test_q7_nation_volume_matches_duckdb(ray_session, sf):
    """Q7 bilateral volume: three chained cogroup joins vs DuckDB."""
    import duckdb

    from pdf_extractors_ray.ops import relational as rl

    eng = rl.q7_nation_volume(sf).to_pandas()
    con = duckdb.connect()
    for t in ("lineitem", "supplier", "nation", "orders", "customer"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )
    ora = con.execute(rl.Q7_SQL).fetchdf()
    con.close()
    assert len(eng) > 0
    pd.testing.assert_frame_equal(
        eng.reset_index(drop=True), ora.reset_index(drop=True), check_dtype=True
    )


@pytest.mark.parametrize("sf", ["/root/testdata/sf0.001", "/root/testdata/sf0.01"])
def test_q13_custdist_matches_duckdb(ray_session, sf):
    """Q13: zero-order customers must appear in the c_count=0 bucket."""
    import duckdb

    from pdf_extractors_ray.ops import relational as rl

    eng = rl.q13_custdist(sf).to_pandas()
    con = duckdb.connect()
    for t in ("customer", "orders"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )
    ora = con.execute(rl.Q13_SQL).fetchdf()
    ncust = con.execute("SELECT COUNT(*) FROM customer").fetchone()[0]
    con.close()
    pd.testing.assert_frame_equal(
        eng.reset_index(drop=True), ora.reset_index(drop=True), check_dtype=True
    )
    assert int(eng["custdist"].sum()) == ncust  # every customer lands in a bucket


@pytest.mark.parametrize("sf", ["/root/testdata/sf0.001", "/root/testdata/sf0.01"])
def test_referential_integrity_matches_duckdb(ray_session, sf):
    import duckdb

    from pdf_extractors_ray.ops import relational as rl

    eng = rl.referential_integrity(sf).to_pandas()
    con = duckdb.connect()
    for t in ("orders", "customer", "lineitem", "supplier", "events"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )
    ora = con.execute(rl.REFERENTIAL_INTEGRITY_SQL).fetchdf()
    con.close()
    pd.testing.assert_frame_equal(
        eng.reset_index(drop=True), ora.reset_index(drop=True), check_dtype=True
    )
    assert len(eng) == len(rl.RI_PAIRS)


def test_referential_integrity_detects_orphans(ray_session, tmp_path):
    """Crafted corpus with REAL orphans on every audited edge — counts
    must be exact (keys vs rows distinguished), twin included."""
    import duckdb

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractors_ray.ops import relational as rl

    def w(name, table):
        pq.write_table(pa.table(table), tmp_path / f"{name}.parquet")

    w("customer", {"c_custkey": np.array([1, 2], np.int64),
                   "c_name": ["a", "b"], "c_nationkey": np.zeros(2, np.int64),
                   "c_acctbal": np.ones(2), "c_mktsegment": ["X", "X"]})
    # orders: custkey 9 is an orphan key with TWO rows
    w("orders", {"o_orderkey": np.arange(4, dtype=np.int64),
                 "o_custkey": np.array([1, 9, 9, 2], np.int64),
                 "o_orderstatus": ["O"] * 4, "o_totalprice": np.ones(4),
                 "o_orderdate": np.full(4, np.datetime64("2024-01-01", "us")),
                 "o_orderpriority": ["1-URGENT"] * 4})
    w("supplier", {"s_suppkey": np.array([5], np.int64), "s_name": ["s"],
                   "s_nationkey": np.zeros(1, np.int64), "s_acctbal": np.ones(1)})
    # lineitem: orderkey 77 orphan (1 row), suppkey 6 orphan (2 rows)
    w("lineitem", {"l_orderkey": np.array([0, 77, 1], np.int64),
                   "l_partkey": np.zeros(3, np.int64),
                   "l_suppkey": np.array([6, 6, 5], np.int64),
                   "l_linenumber": np.arange(3, dtype=np.int64),
                   "l_quantity": np.ones(3), "l_extendedprice": np.ones(3),
                   "l_discount": np.zeros(3), "l_tax": np.zeros(3),
                   "l_returnflag": ["N"] * 3, "l_linestatus": ["O"] * 3,
                   "l_shipdate": np.full(3, np.datetime64("2024-01-01", "us"))})
    w("events", {"event_id": np.arange(3, dtype=np.int64),
                 "ts": np.full(3, np.datetime64("2024-01-01", "us")),
                 "user_id": np.array([1, 3, 3], np.int64),
                 "event_type": ["c"] * 3, "value": np.ones(3), "props": ["{}"] * 3})
    eng = rl.referential_integrity(str(tmp_path)).to_pandas().set_index("child")
    assert int(eng.loc["orders.o_custkey", "orphan_keys"]) == 1
    assert int(eng.loc["orders.o_custkey", "orphan_rows"]) == 2
    assert int(eng.loc["lineitem.l_orderkey", "orphan_keys"]) == 1
    assert int(eng.loc["lineitem.l_orderkey", "orphan_rows"]) == 1
    assert int(eng.loc["lineitem.l_suppkey", "orphan_keys"]) == 1
    assert int(eng.loc["lineitem.l_suppkey", "orphan_rows"]) == 2
    assert int(eng.loc["events.user_id", "orphan_keys"]) == 1
    assert int(eng.loc["events.user_id", "orphan_rows"]) == 2
    con = duckdb.connect()
    for t in ("orders", "customer", "lineitem", "supplier", "events"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path}/{t}.parquet')"
        )
    ora = con.execute(rl.REFERENTIAL_INTEGRITY_SQL).fetchdf()
    con.close()
    pd.testing.assert_frame_equal(
        eng.reset_index(), ora.reset_index(drop=True), check_dtype=True
    )


@pytest.mark.parametrize("sf", ["/root/testdata/sf0.001", "/root/testdata/sf0.01"])
def test_basket_pairs_matches_duckdb(ray_session, sf):
    import duckdb

    from pdf_extractors_ray.ops import relational as rl

    eng = rl.lineitem_basket_pairs(sf).to_pandas()
    con = duckdb.connect()
    for t in ("lineitem", "part"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )
    ora = con.execute(rl.LINEITEM_BASKET_SQL).fetchdf()
    con.close()
    # 6 synthetic part types → only C(6,2)=15 possible pairs; k caps above
    assert 0 < len(eng) <= rl.BASKET_TOPK
    pd.testing.assert_frame_equal(
        eng.reset_index(drop=True), ora.reset_index(drop=True), check_dtype=True
    )
    assert (eng["type_a"] < eng["type_b"]).all()  # unordered-pair canon


@pytest.mark.parametrize("op", ["q3_segment_topk", "lineitem_basket_pairs"])
def test_topk_frames_carry_no_block_row_labels(ray_session, op):
    """Neither the per-block top-k nor the sort's merge leaks pandas row
    labels: every run's frame has a fresh RangeIndex."""
    from pdf_extractors_ray.ops import relational as rl

    for _ in range(3):
        df = getattr(rl, op)("/root/testdata/sf0.001").to_pandas()
        pd.testing.assert_index_equal(df.index, pd.RangeIndex(len(df)))


def test_basket_pairs_crafted(ray_session, tmp_path):
    """Hand-built baskets: duplicate types in one order count ONCE, and
    pair counts are exact."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractors_ray.ops import relational as rl

    # orders: 1 → {A,B,B,C}; 2 → {A,B}; 3 → {C}
    li = {
        "l_orderkey": np.array([1, 1, 1, 1, 2, 2, 3], np.int64),
        "l_partkey": np.array([10, 11, 12, 13, 10, 11, 13], np.int64),
        "l_linenumber": np.arange(7, dtype=np.int64),
        "l_quantity": np.ones(7), "l_extendedprice": np.ones(7),
        "l_discount": np.zeros(7), "l_tax": np.zeros(7),
        "l_returnflag": ["N"] * 7, "l_linestatus": ["O"] * 7,
        "l_shipdate": np.full(7, np.datetime64("2024-01-01", "us")),
    }
    part = {
        "p_partkey": np.array([10, 11, 12, 13], np.int64),
        "p_name": ["a", "b", "c", "d"],
        "p_brand": ["x"] * 4,
        "p_type": ["A", "B", "B", "C"],
        "p_size": np.ones(4, np.int64),
        "p_retailprice": np.ones(4),
    }
    pq.write_table(pa.table(li), tmp_path / "lineitem.parquet")
    pq.write_table(pa.table(part), tmp_path / "part.parquet")
    out = rl.lineitem_basket_pairs(str(tmp_path), k=10).to_pandas()
    got = {(r.type_a, r.type_b): r.n_orders for r in out.itertuples()}
    assert got == {("A", "B"): 2, ("A", "C"): 1, ("B", "C"): 1}


@pytest.mark.parametrize("sf", ["/root/testdata/sf0.001", "/root/testdata/sf0.01"])
def test_q4_semi_matches_duckdb(ray_session, sf):
    import duckdb

    from pdf_extractors_ray.ops import relational as rl

    eng = rl.q4_priority_semi(sf).to_pandas()
    con = duckdb.connect()
    for t in ("orders", "lineitem"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )
    ora = con.execute(rl.Q4_SEMI_SQL).fetchdf()
    con.close()
    assert len(eng) > 0
    pd.testing.assert_frame_equal(
        eng.reset_index(drop=True), ora.reset_index(drop=True), check_dtype=True
    )
