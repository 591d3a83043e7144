"""Transcript hygiene digest: DuckDB parity + order sensitivity."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pdf_extractors_ray.ops import transcript as tr


def test_hygiene_matches_duckdb_twin(ray_session):
    from pdf_extractors_ray.sources.transcripts import transcripts_path_for_sf

    p = transcripts_path_for_sf("/root/testdata/sf0.001")
    eng = tr.transcript_hygiene(p).to_pandas().reset_index(drop=True)
    ora = duckdb.sql(tr.transcript_hygiene_sql(p)).df()
    pd.testing.assert_frame_equal(eng, ora[eng.columns], check_dtype=False)
    assert len(eng) > 0 and eng["conv_id"].is_unique


def _frame(rows):
    df = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "role", "ts"])
    df["turn_idx"] = df["turn_idx"].astype(np.int64)
    df["ts"] = pd.to_datetime(df["ts"], unit="s").astype("datetime64[us]")
    return df


def _range(df):
    """A frame as the Arrow range ``key_exchange`` hands a fold."""
    return pa.Table.from_pandas(df, preserve_index=False)


def test_hygiene_digest_is_order_sensitive():
    """Transposing two turns' indices flips the conversation digest —
    the property that makes the hash a check of ordering restore, not
    just of membership."""
    base = _frame(
        [("c", 0, "user", 10), ("c", 1, "assistant", 20), ("c", 2, "tool", 30)]
    )
    swapped = _frame(
        [("c", 2, "user", 10), ("c", 1, "assistant", 20), ("c", 0, "tool", 30)]
    )
    h1 = tr.conv_hygiene_frame(_range(base))
    h2 = tr.conv_hygiene_frame(_range(swapped))
    assert h1["role_seq_hash"][0] != h2["role_seq_hash"][0]
    # membership-only stats agree
    for c in ("n_turns", "n_tool_turns", "ts_span_us"):
        assert h1[c][0] == h2[c][0]
    assert h1["role_seq_hash"][0] == tr._md5_seq_hash("uat")
    assert h2["role_seq_hash"][0] == tr._md5_seq_hash("tau")


def test_hygiene_arrival_order_invariance():
    """Any row shuffle of the input partition produces identical output —
    the restore is the operator's job, not the reader's."""
    rng = np.random.RandomState(3)
    rows = []
    for ci in range(7):
        for ti in range(rng.randint(1, 9)):
            rows.append((f"c{ci}", ti, ["user", "assistant", "tool"][(ci + ti) % 3],
                         100 * ci + ti))
    df = _frame(rows)
    want = tr.conv_hygiene_frame(_range(df)).sort_values("conv_id").reset_index(drop=True)
    for _ in range(5):
        got = (
            tr.conv_hygiene_frame(_range(df.sample(frac=1, random_state=rng)))
            .sort_values("conv_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)


# ---------------------------------------------------------------------------
# conversation-level exact dedup
# ---------------------------------------------------------------------------


def test_conv_dedup_matches_duckdb_twin(ray_session):
    from pdf_extractors_ray.sources.transcripts import transcripts_path_for_sf

    p = transcripts_path_for_sf("/root/testdata/sf0.001")
    eng = tr.transcript_conv_dedup(p).to_pandas().reset_index(drop=True)
    ora = duckdb.sql(tr.transcript_conv_dedup_sql(p)).df()
    pd.testing.assert_frame_equal(eng, ora[eng.columns], check_dtype=False)


def test_conv_dedup_planted_duplicates(ray_session, tmp_path):
    """Three logical copies of one conversation written in three
    DIFFERENT physical row orders dedup together; a fourth with two
    turns swapped stays distinct; unrelated convs untouched."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    turns = ["hello", "hi there", "bye"]
    rows = []
    for cid, order in (("a-1", [0, 1, 2]), ("a-2", [2, 0, 1]), ("a-3", [1, 2, 0])):
        for ti in order:
            rows.append((cid, ti, turns[ti]))
    rows += [("b-swap", 0, turns[1]), ("b-swap", 1, turns[0]), ("b-swap", 2, turns[2])]
    rows += [("c-other", 0, "unrelated")]
    tbl = pa.table(
        {
            "conv_id": pa.array([r[0] for r in rows]),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array(["user"] * len(rows)),
            "text": pa.array([r[2] for r in rows]),
            "tool": pa.array(["t"] * len(rows)),
            "ts": pa.array([1000 * i for i in range(len(rows))], pa.timestamp("us")),
        }
    )
    pq.write_table(tbl, tmp_path / "part-0.parquet")
    got = tr.transcript_conv_dedup(str(tmp_path)).to_pandas().set_index("conv_id")
    assert got.loc["a-1", "is_dup"] == 0 and got.loc["a-1", "rep_conv_id"] == "a-1"
    for cid in ("a-2", "a-3"):
        assert got.loc[cid, "is_dup"] == 1 and got.loc[cid, "rep_conv_id"] == "a-1"
    assert got.loc["b-swap", "is_dup"] == 0  # order-sensitive: swap ≠ dup
    assert got.loc["c-other", "is_dup"] == 0
    # twin agrees on the planted corpus too
    ora = duckdb.sql(tr.transcript_conv_dedup_sql(str(tmp_path))).df().set_index("conv_id")
    assert (ora["is_dup"] == got["is_dup"].reindex(ora.index)).all()


# ---------------------------------------------------------------------------
# context-tail assembly
# ---------------------------------------------------------------------------


def test_context_tails_match_duckdb_twin(ray_session):
    from pdf_extractors_ray.sources.transcripts import transcripts_path_for_sf

    p = transcripts_path_for_sf("/root/testdata/sf0.001")
    eng = tr.transcript_context_tails(p).to_pandas().reset_index(drop=True)
    ora = duckdb.sql(tr.transcript_context_tails_sql(p)).df()
    pd.testing.assert_frame_equal(eng, ora[eng.columns], check_dtype=False)
    assert (eng["n_ctx"] <= tr.CTX_TAIL_K).all()
    assert (eng["n_ctx"] == np.minimum(eng["n_turns"], tr.CTX_TAIL_K)).all()


def test_context_tails_semantics():
    """Hand-built conv: tail is the LAST k turns in turn order, rendered
    role: text — and short convs keep everything."""
    df = pd.DataFrame(
        {
            "conv_id": ["c"] * 6 + ["d"],
            "turn_idx": np.array([5, 0, 2, 4, 1, 3, 0], dtype=np.int64),
            "role": ["assistant", "user", "user", "tool", "assistant", "user", "user"],
            "text": ["f", "a", "c", "e", "b", "d", "solo"],
        }
    )
    got = tr.context_tail_frame(_range(df)).set_index("conv_id")
    assert got.loc["c", "context"] == "user: c\nuser: d\ntool: e\nassistant: f"
    assert got.loc["c", "n_ctx"] == 4 and got.loc["c", "n_turns"] == 6
    assert got.loc["d", "context"] == "user: solo" and got.loc["d", "n_ctx"] == 1


# ---------------------------------------------------------------------------
# tool-latency quantiles
# ---------------------------------------------------------------------------


def test_tool_latency_matches_duckdb_twin(ray_session):
    from pdf_extractors_ray.sources.transcripts import transcripts_path_for_sf

    p = transcripts_path_for_sf("/root/testdata/sf0.001")
    eng = tr.transcript_tool_latency(p).to_pandas()
    ora = duckdb.sql(tr.transcript_tool_latency_sql(p)).df()
    ec = eng.sort_values(["tool", "role"]).reset_index(drop=True)
    oc = ora.sort_values(["tool", "role"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(ec, oc[ec.columns], check_dtype=False)
    assert len(eng) > 0 and (eng["p95_us"] >= eng["p50_us"]).all()


def test_tool_latency_null_tool_matches_duckdb_twin(ray_session, small_corpus_table, tmp_path):
    """A conversation whose tool is null next to ones that have a tool: its
    gaps form their own cells, labelled null, and the twin agrees."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    tbl = small_corpus_table
    tool = tbl["tool"]
    victim = pc.equal(tbl["conv_id"], tbl["conv_id"][0])
    tbl = tbl.set_column(tbl.schema.get_field_index("tool"), "tool",
                         pc.if_else(victim, pa.scalar(None, tool.type), tool))
    half = tbl.num_rows // 2
    pq.write_table(tbl.slice(0, half), tmp_path / "part-0.parquet")
    pq.write_table(tbl.slice(half), tmp_path / "part-1.parquet")

    eng = tr.transcript_tool_latency(str(tmp_path)).to_pandas()
    ora = duckdb.sql(tr.transcript_tool_latency_sql(str(tmp_path))).df()
    assert eng["tool"].isna().any() and eng["tool"].notna().any()
    ec = eng.sort_values(["tool", "role"]).reset_index(drop=True)
    oc = ora.sort_values(["tool", "role"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(ec, oc[ec.columns], check_dtype=False)


def test_tool_latency_crafted_gaps(ray_session, tmp_path):
    """Varied gaps with known order statistics, rows written shuffled:
    p50/p95 must be the exact rank-ceil order statistics per (tool,
    role), proving the restore + grouped selection."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rows = []  # one conv, gaps 1s,2s,...,10s attributed to alternating roles
    ts = 0
    rows.append(("c", 0, "user", "fam", ts))
    for i in range(1, 11):
        ts += i * 1_000_000
        rows.append(("c", i, ["assistant", "user"][i % 2], "fam", ts))
    rng = np.random.RandomState(5)
    order = rng.permutation(len(rows))
    tbl = pa.table(
        {
            "conv_id": pa.array([rows[i][0] for i in order]),
            "turn_idx": pa.array([rows[i][1] for i in order], pa.int32()),
            "role": pa.array([rows[i][2] for i in order]),
            "text": pa.array(["t"] * len(rows)),
            "tool": pa.array([rows[i][3] for i in order]),
            "ts": pa.array([rows[i][4] for i in order], pa.timestamp("us")),
        }
    )
    pq.write_table(tbl, tmp_path / "part-0.parquet")
    got = tr.transcript_tool_latency(str(tmp_path)).to_pandas().set_index("role")
    # turn i (gap = i s) has role [assistant, user][i % 2]: odd i → user
    # gets 1,3,5,7,9 s; even i → assistant gets 2,4,6,8,10 s
    assert got.loc["assistant", "n"] == 5
    assert got.loc["assistant", "p50_us"] == 6_000_000   # k=ceil(.5*5)=3 → 6s
    assert got.loc["assistant", "p95_us"] == 10_000_000  # k=ceil(.95*5)=5 → 10s
    assert got.loc["user", "p50_us"] == 5_000_000
    assert got.loc["user", "p95_us"] == 9_000_000
    # twin agrees on the crafted corpus
    ora = duckdb.sql(tr.transcript_tool_latency_sql(str(tmp_path))).df().set_index("role")
    assert (ora["p50_us"] == got["p50_us"].reindex(ora.index)).all()
    assert (ora["p95_us"] == got["p95_us"].reindex(ora.index)).all()


# ---------------------------------------------------------------------------
# role-transition matrix
# ---------------------------------------------------------------------------


def test_role_transitions_match_duckdb_twin(ray_session):
    from pdf_extractors_ray.sources.transcripts import transcripts_path_for_sf

    p = transcripts_path_for_sf("/root/testdata/sf0.001")
    eng = tr.transcript_role_transitions(p).to_pandas().reset_index(drop=True)
    ora = duckdb.sql(tr.transcript_role_transitions_sql(p)).df()
    pd.testing.assert_frame_equal(eng, ora[eng.columns], check_dtype=False)
    assert (eng["n_convs"] <= eng["n"]).all()


def test_role_transitions_crafted_matrix(ray_session, tmp_path):
    """Crafted convs with known transitions, rows shuffled: full matrix
    with exact counts AND per-transition conversation counts; boundary
    pairs across conversations never count."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    seqs = {
        "c1": ["user", "assistant", "user", "assistant"],  # u→a ×2, a→u ×1
        "c2": ["user", "user", "tool"],                    # u→u, u→t
        "c3": ["assistant", "user"],                       # a→u
    }
    rows = []
    for cid, rls in seqs.items():
        for i, r in enumerate(rls):
            rows.append((cid, i, r))
    rng = np.random.RandomState(7)
    order = rng.permutation(len(rows))
    tbl = pa.table(
        {
            "conv_id": pa.array([rows[i][0] for i in order]),
            "turn_idx": pa.array([rows[i][1] for i in order], pa.int32()),
            "role": pa.array([rows[i][2] for i in order]),
            "text": pa.array(["t"] * len(rows)),
            "tool": pa.array(["f"] * len(rows)),
            "ts": pa.array(list(range(len(rows))), pa.timestamp("us")),
        }
    )
    pq.write_table(tbl, tmp_path / "part-0.parquet")
    got = tr.transcript_role_transitions(str(tmp_path)).to_pandas()
    want = pd.DataFrame(
        [
            ("assistant", "user", 2, 2),   # c1 once, c3 once
            ("user", "assistant", 2, 1),   # both in c1
            ("user", "tool", 1, 1),
            ("user", "user", 1, 1),
        ],
        columns=["prev_role", "role", "n", "n_convs"],
    )
    pd.testing.assert_frame_equal(
        got.sort_values(["prev_role", "role"]).reset_index(drop=True),
        want.sort_values(["prev_role", "role"]).reset_index(drop=True),
        check_dtype=False,
    )


def test_turn_pack_matches_duckdb_twin(ray_session):
    from pdf_extractors_ray.sources.transcripts import transcripts_path_for_sf

    p = transcripts_path_for_sf("/root/testdata/sf0.001")
    got = tr.transcript_turn_pack(p).to_pandas().reset_index(drop=True)
    assert got["win"].max() > 0  # non-trivial: conversations span windows
    want = duckdb.connect().execute(tr.transcript_turn_pack_sql(p)).fetchdf()
    pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=True)


def test_turn_pack_semantics(ray_session, tmp_path):
    """Crafted conversation: window boundaries follow the exclusive token
    cumsum exactly; a transposed turn changes downstream offsets (the
    order-sensitivity the gate relies on); empty text counts 1 token
    (single-space-split contract)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    texts = ["a b c", "", "d " * 62 + "d", "x y"]  # 3, 1, 63, 2 tokens
    tbl = pa.table(
        {
            "conv_id": pa.array(["c1"] * 4),
            "turn_idx": pa.array([0, 1, 2, 3], pa.int32()),
            "role": pa.array(["user", "assistant", "tool", "user"]),
            "text": pa.array(texts),
            "tool": pa.array(["f"] * 4),
            "ts": pa.array([0, 1, 2, 3], pa.timestamp("us")),
        }
    )
    pq.write_table(tbl, tmp_path / "part-0.parquet")
    got = tr.transcript_turn_pack(str(tmp_path), window_tokens=64).to_pandas()
    # exclusive cumsums: 0, 3, 4, 67 -> windows 0,0,0,1; offsets 0,3,4,3
    assert got["n_toks"].tolist() == [3, 1, 63, 2]
    assert got["win"].tolist() == [0, 0, 0, 1]
    assert got["win_off"].tolist() == [0, 3, 4, 3]

    # transpose turns 2 and 3: the cumsum path through the conversation
    # changes, so the final turn lands in a different window
    tbl2 = tbl.set_column(3, "text", pa.array([texts[0], texts[1], texts[3], texts[2]]))
    pq.write_table(tbl2, tmp_path / "part-0.parquet")
    got2 = tr.transcript_turn_pack(str(tmp_path), window_tokens=64).to_pandas()
    assert got2["win"].tolist() != got["win"].tolist()


def test_extract_rate_matches_duckdb_twin(ray_session):
    from pdf_extractors_ray.sources.transcripts import transcripts_path_for_sf

    p = transcripts_path_for_sf("/root/testdata/sf0.001")
    got = tr.transcript_extract_rate(p).to_pandas().reset_index(drop=True)
    want = duckdb.connect().execute(tr.transcript_extract_rate_sql(p)).fetchdf()
    pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=True)
    # the bank discriminates: every invoice-family turn fires, no other
    # family ever does
    inv = got[got["tool"] == "invoice"]
    assert (inv["hit_ppm"] == 1_000_000).all() and inv["n_fields"].sum() > 0
    assert (got.loc[got["tool"] != "invoice", "n_hits"] == 0).all()


def test_extract_rate_crafted_days(ray_session, tmp_path):
    """Hand-built corpus: hits and day boundaries land exactly; the
    ':'-prefix quirk re-anchors a leading-colon turn into a hit."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    day = 86_400_000_000  # us
    rows = [
        ("inv", 0, "Invoice 12345", 0),           # hit, day 0
        ("inv", 1, "no fields here", 0),           # miss, day 0
        ("inv", 2, ": 777", day),                  # ':'-quirk -> Order No. hit, day 1
        ("other", 0, "plain text", 0),             # miss
    ]
    tbl = pa.table(
        {
            "conv_id": pa.array(["c" + str(i) for i, *_ in enumerate(rows)]),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array(["user"] * len(rows)),
            "text": pa.array([r[2] for r in rows]),
            "tool": pa.array([r[0] for r in rows]),
            "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
        }
    )
    pq.write_table(tbl, tmp_path / "part-0.parquet")
    got = tr.transcript_extract_rate(str(tmp_path)).to_pandas()
    got = got.set_index(["tool", "day_epoch"])
    assert got.loc[("inv", 0), "n_hits"] == 1 and got.loc[("inv", 0), "n_turns"] == 2
    assert got.loc[("inv", 0), "hit_ppm"] == 500_000
    assert got.loc[("inv", 1), "n_hits"] == 1  # the quirk fired
    assert got.loc[("other", 0), "n_hits"] == 0


# --- prompt→response length moments ------------------------------------------


@pytest.mark.parametrize("sf", ["/root/testdata/sf0.001", "/root/testdata/sf0.01"])
def test_prompt_response_matches_duckdb_twin(ray_session, sf):
    import duckdb

    from pdf_extractors_ray.ops import transcript as tr
    from pdf_extractors_ray.sources.transcripts import transcripts_path_for_sf

    path = transcripts_path_for_sf(sf)
    eng = tr.transcript_prompt_response(path).to_pandas()
    ora = duckdb.sql(tr.transcript_prompt_response_sql(path)).df()
    assert len(eng) > 0
    pd.testing.assert_frame_equal(
        eng.reset_index(drop=True), ora.reset_index(drop=True), check_dtype=True
    )


def test_prompt_response_order_sensitivity(ray_session, tmp_path):
    """Pairing is strictly adjacent in turn order: a tool turn between
    user and assistant breaks the pair; cross-conversation adjacency
    never pairs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractors_ray.ops import transcript as tr

    rows = [
        # conv a: user(5) → assistant(7) pairs; then user(3) → tool → no pair
        ("a", 0, "user", "t1", "hello"),
        ("a", 1, "assistant", "t1", "replies"),
        ("a", 2, "user", "t1", "abc"),
        ("a", 3, "tool", "t1", "x"),
        ("a", 4, "assistant", "t1", "late"),
        # conv b starts with assistant: the a→b boundary must not pair
        ("b", 0, "assistant", "t1", "first"),
        ("b", 1, "user", "t1", "q" * 10),
        ("b", 2, "assistant", "t1", "r" * 4),
    ]
    pq.write_table(
        pa.table(
            {
                "conv_id": [r[0] for r in rows],
                "turn_idx": np.array([r[1] for r in rows], np.int64),
                "role": [r[2] for r in rows],
                "tool": [r[3] for r in rows],
                "text": [r[4] for r in rows],
                "ts": np.full(len(rows), np.datetime64("2024-01-01", "us")),
            }
        ),
        tmp_path / "part-0.parquet",
    )
    out = tr.transcript_prompt_response(str(tmp_path)).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    # pairs: a(5,7) and b(10,4)
    assert int(r["n_pairs"]) == 2
    assert int(r["sum_u"]) == 15 and int(r["sum_a"]) == 11
    assert int(r["sum_ua"]) == 5 * 7 + 10 * 4


def test_conv_neardup_matches_duckdb_twin(ray_session):
    """Conversation-level SimHash near-dup pairs replay bit-exactly in
    DuckDB (ordered concat, md5-LE64 token hashes, banded pigeonhole,
    XOR-popcount Hamming), at two scales."""
    import duckdb

    from pdf_extractors_ray.ops import transcript as tr
    from pdf_extractors_ray.sources.transcripts import transcripts_path_for_sf

    for sf in ("/root/testdata/sf0.001", "/root/testdata/sf0.01"):
        path = transcripts_path_for_sf(sf)
        eng = tr.transcript_conv_neardup(path).to_pandas().reset_index(drop=True)
        con = duckdb.connect()
        ora = con.execute(tr.transcript_conv_neardup_sql(path)).fetchdf()
        con.close()
        pd.testing.assert_frame_equal(
            eng, ora[eng.columns].reset_index(drop=True), check_dtype=True
        )
        assert len(eng) > 0  # template-built convs genuinely near-duplicate


def test_conv_neardup_order_sensitivity(ray_session, tmp_path):
    """Swapping two turns must CHANGE a conversation's signature stream:
    a conv identical to another except for turn order stays a near-dup
    (same token multiset -> same SimHash, hamming 0) while an edited
    token drifts the distance — pinning what the order-sensitive concat
    does and does not discriminate."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_extractors_ray.ops import transcript as tr

    import hashlib

    rows = []
    base_turns = [f"tok{i} tok{i+1} filler words here" for i in range(6)]
    # deliberately NOT conv-%06d shaped: the pair key is a hash of the id
    # string, so arbitrary conv_id schemes must work
    names = ["sess/alpha", "run:2026-08-20T00", "xyz-000001", "c"]
    hid = {
        i: int(hashlib.md5(n.encode()).hexdigest()[:13], 16)
        for i, n in enumerate(names)
    }
    for conv, turns in (
        (names[0], base_turns),
        (names[1], list(reversed(base_turns))),          # same multiset
        (names[2], base_turns[:-1] + ["tok5 tok6 filler words CHANGED"]),
        (names[3], ["entirely different content about other topics"] * 6),
    ):
        for i, t in enumerate(turns):
            rows.append((conv, i, "user", t, "census", 1_767_225_600_000_000 + i))
    tbl = pa.table(
        {
            "conv_id": [r[0] for r in rows],
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": [r[2] for r in rows],
            "text": [r[3] for r in rows],
            "tool": [r[4] for r in rows],
            "ts": pa.array([r[5] for r in rows], pa.timestamp("us")),
        }
    )
    pq.write_table(tbl, str(tmp_path / "part-0.parquet"))
    out = tr.transcript_conv_neardup(str(tmp_path)).to_pandas()
    pairs = {(int(a), int(b)): int(h) for a, b, h in zip(out.a, out.b, out.hamming)}

    def pair(i, j):
        x, y = hid[i], hid[j]
        return pairs.get((min(x, y), max(x, y)))

    assert pair(0, 1) == 0                 # token multiset identical
    assert pair(0, 2) is not None and 0 < pair(0, 2) <= 3  # near, not exact
    assert pair(0, 3) is None              # different content: no pair
    # the hashed key must also replay in the SQL twin on these ids
    import duckdb

    con = duckdb.connect()
    ora = con.execute(tr.transcript_conv_neardup_sql(str(tmp_path))).fetchdf()
    con.close()
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True), ora[out.columns].reset_index(drop=True),
        check_dtype=True,
    )


def test_conv_clusters_matches_duckdb_twin(ray_session):
    """Conversation-level near-dup CLUSTERS (the linear-output
    deliverable; the pair list measured 96x growth at 10x convs on the
    sf1 corpus) replay exactly in DuckDB: recursive-CTE closure over the
    bit-exact pair twin, universe = every conversation."""
    import duckdb

    from pdf_extractors_ray.ops import transcript as tr
    from pdf_extractors_ray.sources.transcripts import transcripts_path_for_sf

    for sf in ("/root/testdata/sf0.001", "/root/testdata/sf0.01"):
        path = transcripts_path_for_sf(sf)
        eng = tr.transcript_conv_clusters(path).to_pandas().reset_index(drop=True)
        con = duckdb.connect()
        ora = con.execute(tr.transcript_conv_clusters_sql(path)).fetchdf()
        con.close()
        pd.testing.assert_frame_equal(
            eng, ora[eng.columns].reset_index(drop=True), check_dtype=False
        )
        # one row per conversation (the linear contract), real clusters
        import pyarrow.parquet as pq
        import glob as _glob

        n_convs = len(
            {c for f in _glob.glob(path + "/*.parquet")
             for c in pq.read_table(f, columns=["conv_id"])["conv_id"].to_pylist()}
        )
        assert len(eng) == n_convs
        assert (eng["cluster_size"] > 1).any()
        # label invariant: cluster = min member key of its component
        by = eng.groupby("cluster")["doc_id"].min()
        assert (by.index.to_numpy() == by.to_numpy()).all()


def test_conv_clusters_iterative_path_float_safety(ray_session, monkeypatch):
    """Force the big-edge ITERATIVE component path (the small-edge
    driver batch is the default at test scale) and require twin
    equality. That loop is the longest chain of cogroup joins, each
    carrying conv keys as int64. Regression: when the join promoted
    carried ints through float64 (exact only to 2^53), 60-bit conv keys
    split into real+rounded node pairs — found as a 1.7x node inflation
    at sf1. The join now keeps int64, and the keys stay 52-bit because
    the DuckDB twin's ``substr(md5, 1, 13)`` pins that width; the checks
    below keep asserting the 2^53 bound and one row per key."""
    import duckdb

    from pdf_extractors_ray.ops import dedup
    from pdf_extractors_ray.ops import transcript as tr
    from pdf_extractors_ray.sources.transcripts import transcripts_path_for_sf

    monkeypatch.setattr(dedup, "_SMALL_EDGE_BYTES", 0)
    path = transcripts_path_for_sf("/root/testdata/sf0.001")
    eng = tr.transcript_conv_clusters(path).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    ora = con.execute(tr.transcript_conv_clusters_sql(path)).fetchdf()
    con.close()
    pd.testing.assert_frame_equal(
        eng, ora[eng.columns].reset_index(drop=True), check_dtype=False
    )
    # every key must be float64-exact (the invariant the 52-bit width buys)
    assert (eng["doc_id"] < (1 << 53)).all()
    assert eng["doc_id"].nunique() == len(eng)
