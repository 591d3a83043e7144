"""The conversation exchange (``stages.fold.conv_exchange``): conv_id range
partitioning on Ray tasks, one fold per range, no groupby or sort barrier.

Every op that co-locates conversations through it must give the same
frame (values, dtypes and row order) however many ranges the exchange
cuts, and that frame must equal the op's DuckDB twin. The corpora cover
rows shuffled across files, one hot conversation holding most turns, and
a single conversation; ranges are forced to 1, 2 and more than there are
conversations.
"""

import glob
import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdf_extractors_ray.ops import transcript as tr
from pdf_extractors_ray.stages import fold
from pdf_extractors_ray.state import lineage

MOVED = [
    "hygiene", "conv_dedup", "context_tails", "tool_latency", "role_transitions",
    "turn_pack", "prompt_response", "conv_neardup", "conv_clusters",
]


def _table(path):
    return pa.concat_tables(
        pq.read_table(f) for f in sorted(glob.glob(os.path.join(path, "*.parquet")))
    )


def _write(tbl, path, n_files, seed):
    os.makedirs(path, exist_ok=True)
    tbl = tbl.take(pa.array(np.random.RandomState(seed).permutation(tbl.num_rows)))
    cuts = np.linspace(0, tbl.num_rows, n_files + 1).astype(int)
    for i in range(n_files):
        pq.write_table(tbl.slice(cuts[i], cuts[i + 1] - cuts[i]), os.path.join(path, f"part-{i}.parquet"))
    return str(path)


@pytest.fixture(scope="module")
def corpora(small_corpus_dir, tmp_path_factory):
    base = _table(small_corpus_dir)
    root = tmp_path_factory.mktemp("conv_exchange")
    conv = np.asarray(base["conv_id"].to_pylist(), dtype=object)
    hot_id = conv[0]
    hot_rows = base.filter(pa.array(conv == hot_id))
    tidx_type = base.schema.field("turn_idx").type
    copies = []
    for k in range(1, 40):  # the hot conversation grows 40x, turn order kept
        t = np.asarray(hot_rows["turn_idx"]) + k * 1000
        copies.append(hot_rows.set_column(
            hot_rows.schema.get_field_index("turn_idx"), "turn_idx", pa.array(t, tidx_type)
        ))
    small = base.filter(pa.array(np.isin(conv, np.unique(conv)[:12])))
    return {
        "xfile": _write(base, root / "xfile", 4, 1),
        "hot": _write(pa.concat_tables([small, hot_rows] + copies), root / "hot", 2, 2),
        "one": _write(base.filter(pa.array(conv == hot_id)), root / "one", 1, 3),
    }


def _frame(ds):
    """``to_pandas()``, keeping a zero-row result's columns: Ray Data skips
    empty blocks there, so they come from ``Dataset.schema()``."""
    df = ds.to_pandas()
    if len(df.columns) or ds.schema() is None:
        return df
    s = ds.schema()
    return pa.schema(list(zip(s.names, s.types))).empty_table().to_pandas()


def _force_ranges(monkeypatch, n):
    monkeypatch.setattr(lineage, "_n_groups", lambda *a, **k: n)


@pytest.mark.parametrize("corpus", ["xfile", "hot", "one"])
@pytest.mark.parametrize("op", MOVED)
def test_op_frame_is_independent_of_range_count(ray_session, corpora, monkeypatch, op, corpus):
    path = corpora[corpus]
    fn = getattr(tr, f"transcript_{op}")
    outs = []
    for n in (1, 2, 1000):
        _force_ranges(monkeypatch, n)
        outs.append(_frame(fn(path)))
    for got in outs[1:]:
        pd.testing.assert_frame_equal(got, outs[0], check_dtype=True)

    con = duckdb.connect()
    want = con.execute(getattr(tr, f"transcript_{op}_sql")(path)).fetchdf()
    con.close()
    got = outs[0]
    assert sorted(got.columns) == sorted(want.columns)
    if op == "tool_latency":  # rows come in role-id order, the twin's in role name order
        got = got.sort_values(["tool", "role"]).reset_index(drop=True)
        want = want.sort_values(["tool", "role"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=False)


@pytest.mark.parametrize("op", MOVED)
def test_empty_directory_raises(ray_session, tmp_path, op):
    """No Parquet files: the exchange names the directory. tool_latency
    reads its tool families through Ray Data before the exchange, which
    fails first, as it did before the exchange existed."""
    want = KeyError if op == "tool_latency" else FileNotFoundError
    with pytest.raises(want):
        getattr(tr, f"transcript_{op}")(str(tmp_path)).materialize()


@pytest.mark.parametrize("op", [m for m in MOVED if m != "tool_latency"])
def test_zero_row_corpus_gives_an_empty_frame(ray_session, small_corpus_dir, tmp_path, op):
    """Files without rows: no conversations, so an empty result, as the
    Ray Data groupby path gave (tool_latency's tool read fails first)."""
    empty = _table(small_corpus_dir).slice(0, 0)
    pq.write_table(empty, tmp_path / "part-0.parquet")
    assert getattr(tr, f"transcript_{op}")(str(tmp_path)).to_pandas().empty


def test_range_bounds():
    a = (["a", "c", "e", "g"], 4)
    b = (["b", "d", "f", "h"], 4)
    bounds = fold._range_bounds([a, b], 4)
    assert list(bounds) == ["c", "e", "g"]
    assert list(fold._range_bounds([a, b], 1)) == []
    # more ranges than conv_ids: every boundary distinct and above the minimum
    many = fold._range_bounds([a, b], 1000)
    assert list(many) == sorted(set(many)) and "a" not in many and len(many) == 7
    # a sampled id weighs the distinct ids it stands for
    big = ([f"x{i:03d}" for i in range(0, 1000, 100)], 1000)
    small = ([f"a{i}" for i in range(10)], 10)
    assert all(v.startswith("x") for v in fold._range_bounds([big, small], 4))


def test_conv_map_splits_by_range_after_pre(corpora):
    files = sorted(glob.glob(os.path.join(corpora["xfile"], "*.parquet")))[:2]
    bounds = np.array(fold._range_bounds([fold._conv_sample(files)], 3), dtype=object)
    parts = fold._conv_map(files, ["conv_id", "turn_idx", "text"], tr.turn_digest_batch, bounds)
    assert len(parts) == len(bounds) + 1 == 3
    edges = [None, *bounds, None]
    for g, part in enumerate(parts):
        assert part.column_names == ["conv_id", "turn_idx", "turn_md5"]
        ids = set(part["conv_id"].to_pylist())
        assert ids
        assert all((edges[g] is None or c >= edges[g]) and (edges[g + 1] is None or c < edges[g + 1])
                   for c in ids)
    assert sum(p.num_rows for p in parts) == sum(pq.read_metadata(f).num_rows for f in files)
