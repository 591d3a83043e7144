"""The conversation exchange (``stages.fold.conv_exchange``): conv_id range
partitioning on Ray tasks, one fold per range, no groupby or sort barrier;
and the ordered key exchanges (``stages.fold.key_exchange``) the dedup ops
chain after it, by digest, LSH band key, pair ``a`` and doc_id.

Every op that co-locates conversations through it must give the same
frame (values, dtypes and row order) however many ranges the exchange
cuts, and that frame must equal the op's DuckDB twin. The corpora cover
rows shuffled across files, one hot conversation holding most turns, and
a single conversation; ranges are forced to 1, 2 and more than there are
conversations.
"""

import collections
import glob
import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from pdf_extractors_ray import runtime
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
        "ties": _tied(base, root / "ties"),
    }


def _tied(base, path):
    """8 files; one turn appears twice, as the same (conv_id, turn_idx)
    with different texts, in files 1 and 2. Interleaved file groups would
    meet the two rows in the other order than a single shard does."""
    path = _write(base.slice(1), path, 8, 4)
    row = base.slice(0, 1)
    i = row.schema.get_field_index("text")
    tied = row.set_column(i, "text", pa.array(["a tied copy"], row.schema.field(i).type))
    for k, extra in ((1, row), (2, tied)):
        f = os.path.join(path, f"part-{k}.parquet")
        pq.write_table(pa.concat_tables([pq.read_table(f), extra]), f)
    return path


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


@pytest.mark.parametrize("op", MOVED + ["extract_rate"])
def test_empty_directory_raises(ray_session, tmp_path, op):
    """No Parquet files: the exchange (or extract_rate's file grouping)
    names the directory."""
    with pytest.raises(FileNotFoundError):
        getattr(tr, f"transcript_{op}")(str(tmp_path)).materialize()


@pytest.mark.parametrize("op", MOVED + ["extract_rate"])
def test_zero_row_corpus_gives_an_empty_frame(ray_session, small_corpus_dir, tmp_path, op):
    """Files without rows: no conversations, so an empty result, as the
    Ray Data groupby path gave."""
    empty = _table(small_corpus_dir).slice(0, 0)
    pq.write_table(empty, tmp_path / "part-0.parquet")
    assert getattr(tr, f"transcript_{op}")(str(tmp_path)).to_pandas().empty


def test_conv_ops_run_without_ray_data_barriers(ray_session, small_corpus_dir, monkeypatch):
    """Every op of the benchmark's ``conv_ops`` workload completes with
    Ray Data's groupby, sort, repartition and Parquet read disabled: all of
    them run on Ray tasks, and a Dataset is only built over the result."""
    import ray.data

    from perfbench.workloads import DEDUP_OPS, SHUFFLE_OPS

    def barrier(*_a, **_k):
        raise AssertionError("Ray Data barrier in a conv_ops op")

    for name in ("groupby", "sort", "repartition"):
        monkeypatch.setattr(ray.data.Dataset, name, barrier)
    monkeypatch.setattr(ray.data, "read_parquet", barrier)
    for op in SHUFFLE_OPS + DEDUP_OPS:
        assert len(getattr(tr, f"transcript_{op}")(small_corpus_dir).to_pandas()), op


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
    load = fold._ParquetLoad(["conv_id", "turn_idx", "text"], "conv_id", tr.turn_digest_batch)
    sample, n, _nbytes = fold._key_sample(load, files, "conv_id")
    bounds = np.array(fold._range_bounds([(sample, n)], 3), dtype=object)
    parts = fold._key_map(load, files, "conv_id", bounds)
    assert len(parts) == len(bounds) + 1 == 3
    edges = [None, *bounds, None]
    for g, part in enumerate(parts):
        assert part.column_names == ["conv_id", "turn_idx", "turn_md5"]
        ids = set(part["conv_id"].to_pylist())
        assert ids
        assert all((edges[g] is None or c >= edges[g]) and (edges[g + 1] is None or c < edges[g + 1])
                   for c in ids)
    assert sum(p.num_rows for p in parts) == sum(pq.read_metadata(f).num_rows for f in files)


@pytest.mark.parametrize("keys", [
    ["d", None, "b", "a", None, "c", "e", "a"],
    [4, None, 2, 1, None, 3, 5, 1],
])
def test_key_exchange_sends_null_keys_to_the_first_range(ray_session, monkeypatch, keys):
    """Null keys next to values: the sample leaves them out, and the map
    sends them to the first range, where ``conv_runs`` orders them first."""
    shard = pa.table({"k": keys, "v": list(range(len(keys)))})
    sample, n, _nbytes = fold._key_sample(fold._as_table, shard, "k")
    assert None not in sample and n == len(set(keys) - {None})
    bounds = fold._range_bounds([(sample, n)], 3)
    parts = fold._key_map(fold._as_table, shard, "k", bounds)
    assert len(parts) == 3 and parts[0]["k"].null_count == 2
    assert sum(p.num_rows for p in parts) == len(keys)

    _force_ranges(monkeypatch, 3)
    half = len(keys) // 2
    refs = fold.key_exchange(
        [shard.slice(0, half), shard.slice(half), pa.table({})], "k",
        lambda t: t.take(pc.sort_indices(t, [("k", "ascending")], null_placement="at_start")),
    )
    got = ray.get(refs)
    out = pa.concat_tables(got)["k"].to_pylist()
    assert out == [None, None] + sorted(k for k in keys if k is not None)
    assert got[0]["k"].null_count == 2


def _force_cpus(monkeypatch, n):
    monkeypatch.setattr(runtime, "_cluster_cpus", lambda *a, **k: n)


@pytest.mark.parametrize("cpus", [1, 3, 4, 8, 16])
def test_parquet_shards_are_contiguous_runs_one_per_cpu(ray_session, corpora, monkeypatch, cpus):
    """Non-empty, contiguous runs of the sorted files that cover each file
    once: ``min(files, cpus)`` of them on a small corpus, and at least
    ``ceil(bytes / target)`` when the byte target is lowered."""
    path = corpora["ties"]
    files = lineage._list_parquet(path)
    nbytes = sum(os.path.getsize(f) for f in files)
    _force_cpus(monkeypatch, cpus)

    def runs():
        shards = fold.parquet_shards(path)
        assert all(shards) and [f for sh in shards for f in sh] == files
        return len(shards)

    assert len(files) == 8 and runs() == min(8, cpus)
    for target in (nbytes // 6, 1):
        monkeypatch.setattr(lineage, "_TARGET_PART_BYTES", target)
        assert runs() >= min(8, -(-nbytes // target))


def test_remote_fn_is_built_once():
    assert runtime.remote_fn(fold._key_fold) is runtime.remote_fn(fold._key_fold)
    assert runtime.remote_fn(fold._key_fold) is not runtime.remote_fn(fold._key_map)


@pytest.mark.parametrize("op", MOVED)
def test_op_frame_is_independent_of_shard_count(ray_session, corpora, monkeypatch, op):
    """Tied (conv_id, turn_idx) rows in two files reach every fold in file
    order, however many shards (and ranges) the cluster width cuts."""
    fn = getattr(tr, f"transcript_{op}")
    outs = []
    for cpus in (1, 2, 8):
        _force_cpus(monkeypatch, cpus)
        outs.append(_frame(fn(corpora["ties"])))
    for got in outs[1:]:
        pd.testing.assert_frame_equal(got, outs[0], check_exact=True)


def test_single_exchange_op_runs_one_map_shard_per_cpu(ray_session, corpora, monkeypatch):
    """Guard against per-file shards: on 8 files in the 4-CPU session, a
    single-exchange op runs at most 4 sample and 4 map tasks."""
    calls = collections.Counter()
    build = fold.remote_fn

    class Counted:
        def __init__(self, rf, name):
            self.rf, self.name = rf, name

        def options(self, **kw):
            return Counted(self.rf.options(**kw), self.name)

        def remote(self, *a, **k):
            calls[self.name] += 1
            return self.rf.remote(*a, **k)

    monkeypatch.setattr(fold, "remote_fn", lambda fn: Counted(build(fn), fn.__name__))
    assert ray.cluster_resources()["CPU"] == 4
    assert len(tr.transcript_hygiene(corpora["ties"]).to_pandas())
    assert 0 < calls["_key_sample"] <= 4 and 0 < calls["_key_map"] <= 4


# ---------------------------------------------------------------------------
# the key exchanges after the conversation exchange (dedup ops)

DEDUP_OPS = ["conv_dedup", "conv_neardup", "conv_clusters"]


def _force_first_then(monkeypatch, first, rest):
    """The first exchange of an op (by conv_id) cuts ``first`` ranges, every
    later one (digest, band, pair, doc_id) ``rest``."""
    calls = []

    def n_groups(*_a, **_k):
        calls.append(None)
        return first if len(calls) == 1 else rest

    monkeypatch.setattr(lineage, "_n_groups", n_groups)
    return calls


@pytest.mark.parametrize("corpus", ["xfile", "hot", "one"])
@pytest.mark.parametrize("op", DEDUP_OPS)
def test_dedup_exchanges_are_independent_of_each_others_ranges(
        ray_session, corpora, monkeypatch, op, corpus):
    fn = getattr(tr, f"transcript_{op}")
    _force_ranges(monkeypatch, 1)
    want = _frame(fn(corpora[corpus]))
    for first, rest in ((1, 1000), (1000, 1), (2, 1000), (1000, 2)):
        calls = _force_first_then(monkeypatch, first, rest)
        got = _frame(fn(corpora[corpus]))
        assert len(calls) == {"conv_dedup": 3, "conv_neardup": 3, "conv_clusters": 4}[op]
        pd.testing.assert_frame_equal(got, want, check_dtype=True)


@pytest.mark.parametrize("n", [1, 2, 1000])
def test_key_exchange_orders_integer_keys_from_table_refs(ray_session, monkeypatch, n):
    import ray

    rng = np.random.RandomState(5)
    shards = [
        pa.table({"k": rng.randint(-50, 50, size=m).astype(np.int64),
                  "v": rng.randint(0, 9, size=m).astype(np.int64)})
        for m in (40, 0, 25, 60)
    ]
    _force_ranges(monkeypatch, n)

    def sums(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", as_index=False, sort=True)["v"].sum()

    refs = fold.key_exchange([ray.put(s) for s in shards], "k", lambda t: sums(t.to_pandas()))
    assert len(refs) == (1 if n == 1 else min(n, len(np.unique(pa.concat_tables(shards)["k"]))))
    got = pa.concat_tables(ray.get(refs)).to_pandas()
    want = sums(pa.concat_tables(shards).to_pandas())
    pd.testing.assert_frame_equal(got, want)


def test_key_exchange_of_empty_tables_folds_once(ray_session):
    import ray

    empty = pa.table({"k": pa.array([], pa.int64())})
    refs = fold.key_exchange([ray.put(empty), empty], "k", lambda g: g)
    assert len(refs) == 1
    assert ray.get(refs[0]).schema == empty.schema


def _hot_bucket_sigs(seed: int = 9) -> pd.DataFrame:
    """90 signatures: 60 share band0 (one hot LSH bucket), 30 of those are
    a few bit flips from one base, so their pairs also surface in other
    bands; 30 more are random."""
    rng = np.random.RandomState(seed)
    base = int(rng.randint(0, 1 << 48, dtype=np.int64))
    hashes = []
    for i in range(90):
        if i < 30:
            upper = base
            for bit in rng.choice(48, size=rng.randint(0, 3), replace=False):
                upper ^= 1 << int(bit)
        else:
            upper = int(rng.randint(0, 1 << 48, dtype=np.int64))
        low = 0xBEEF if i < 60 else int(rng.randint(0, 1 << 16))
        hashes.append((upper << 16) | low)
    ids = rng.permutation(1000)[:90].astype(np.int64)
    return pd.DataFrame({
        "doc_id": ids,
        "simhash": [f"{h:016x}" for h in hashes],
        **{f"band{b}": np.array([(h >> (16 * b)) & 0xFFFF for h in hashes], np.int64)
           for b in range(4)},
    })


@pytest.mark.parametrize("max_bucket", [2, None])
def test_banded_pairs_star_cap_matches_reference(ray_session, monkeypatch, max_bucket):
    """The banded tail on the key exchange equals the single-process copy
    of the old tail, with the star cap firing (``max_bucket`` 2) and at the
    default cap, however many ranges the two exchanges cut."""
    import banded_reference
    import ray.data as rd

    from pdf_extractors_ray.ops import dedup

    cap = dedup._MAX_BUCKET if max_bucket is None else max_bucket
    sigs = _hot_bucket_sigs()
    want = banded_reference.banded_pairs(sigs, max_hamming=3, max_bucket=cap)
    assert len(want) > 30
    ds = rd.from_pandas([sigs.iloc[:35], sigs.iloc[35:]])
    for n in (1, 2, 1000):
        _force_ranges(monkeypatch, n)
        got = _frame(dedup.banded_hash_pairs(ds, max_hamming=3, max_bucket=cap))
        pd.testing.assert_frame_equal(got, want, check_dtype=True)
    if max_bucket == 2:  # the cap fired: fewer pairs than without it
        full = banded_reference.banded_pairs(sigs, max_hamming=3, max_bucket=dedup._MAX_BUCKET)
        assert len(want) < len(full)
