"""The one conversation slicer (``stages.fold.conv_runs``) against the two it
replaced (``tests/slicer_reference.py``) and Arrow's own stable sort, and
the folds and exchange built on it."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdf_extractors_ray.ops.surrogate import _render_catalog_lines_py
from pdf_extractors_ray.stages.fold import conv_runs, key_exchange
from pdf_extractors_ray.state.lineage import fold_partition
from slicer_reference import conv_boundaries, sorted_codes

KEYS = st.sampled_from([None, "a", "b", "B", "é", "ä", "😀", "conv-10", "conv-9"])
ROWS = st.lists(st.tuples(KEYS, KEYS, st.integers(0, 3)), max_size=40)


def _table(rows) -> pa.Table:
    return pa.table({
        "tool": pa.array([r[0] for r in rows], pa.string()),
        "conv_id": pa.array([r[1] for r in rows], pa.string()),
        "turn_idx": pa.array([r[2] for r in rows], pa.int32()),
    })


def _arrow_order(tbl: pa.Table, keys) -> np.ndarray:
    sort_keys = [(k, "ascending") for k in (*keys, "turn_idx")]
    return pc.sort_indices(tbl, sort_keys=sort_keys, null_placement="at_start").to_numpy()


def _check_heads(tbl, keys, order, bounds, heads):
    for k, head in zip(keys, heads):
        assert list(head) == [tbl[k][int(i)].as_py() for i in order[bounds[:-1]]]


@settings(max_examples=200, deadline=None)
@given(ROWS)
@example([])
@example([(None, None, 1), (None, None, 0), (None, None, 1)])
def test_one_key_equals_conv_boundaries(rows):
    tbl = _table(rows)
    order, bounds, heads = conv_runs(tbl)
    conv = np.asarray(tbl["conv_id"].to_pylist(), dtype=object)
    want_order, want_bounds = conv_boundaries(conv, tbl["turn_idx"].to_numpy())
    np.testing.assert_array_equal(order, want_order)
    np.testing.assert_array_equal(bounds, want_bounds)
    np.testing.assert_array_equal(order, _arrow_order(tbl, ["conv_id"]))
    _check_heads(tbl, ["conv_id"], order, bounds, heads)


@settings(max_examples=200, deadline=None)
@given(ROWS)
@example([])
@example([(None, "a", 0), (None, "b", 0), (None, "a", 0)])
def test_two_keys_equal_sorted_codes_lexsort(rows):
    tbl = _table(rows)
    order, bounds, heads = conv_runs(tbl, ("tool", "conv_id"))
    np.testing.assert_array_equal(order, _arrow_order(tbl, ["tool", "conv_id"]))
    _check_heads(tbl, ["tool", "conv_id"], order, bounds, heads)
    all_null = [k for k in ("tool", "conv_id") if tbl[k].null_count == tbl.num_rows > 0]
    if all_null:
        with pytest.raises(IndexError):  # the reference's all-null crash
            sorted_codes(tbl[all_null[0]])
        return
    tc, _ = sorted_codes(tbl["tool"])
    cc, _ = sorted_codes(tbl["conv_id"])
    want = np.lexsort((tbl["turn_idx"].to_numpy(), cc, tc))
    np.testing.assert_array_equal(order, want)
    tc, cc = tc[want], cc[want]
    change = np.flatnonzero((np.diff(tc) != 0) | (np.diff(cc) != 0)) + 1
    want_bounds = np.concatenate(([0], change, [len(tc)])) if len(tc) else [0]
    np.testing.assert_array_equal(bounds, want_bounds)


def _partition(tools) -> pa.Table:
    """Catalog conversations, each turn tagged with the next of ``tools``."""
    lines = [line for d in (5, 6) for line in _render_catalog_lines_py(d)]
    convs = [f"conv-{d}" for d in (5, 6) for _ in _render_catalog_lines_py(d)]
    tidx = [t for d in (5, 6) for t in range(len(_render_catalog_lines_py(d)))]
    reps = -(-len(tools) // len(lines))
    n = len(tools)
    return pa.table({
        "conv_id": pa.array((convs * reps)[:n]),
        "turn_idx": pa.array((tidx * reps)[:n], pa.int32()),
        "text": pa.array((lines * reps)[:n]),
        "tool": pa.array(tools, pa.string()),
    })


def _fold(part):
    return [(fam, t.to_pylist(), *counts) for fam, t, *counts in fold_partition(part)]


def test_fold_partition_of_all_null_tools_is_empty():
    assert _fold(_partition([None] * 20)) == []


def test_fold_partition_skips_null_tools():
    """A null-tool turn belongs to no family: the partition folds as if it
    were not there."""
    n = len(_render_catalog_lines_py(5)) + len(_render_catalog_lines_py(6))
    mixed = _partition(["catalog"] * n + [None] * n)
    catalog = mixed.slice(0, n)
    assert _fold(catalog)[0][0] == "catalog" and _fold(catalog)[0][1]
    assert _fold(mixed) == _fold(catalog)


def test_key_exchange_hands_frames_the_arrow_range(ray_session):
    import ray

    def frame(group):
        return pd.DataFrame({"arrow": [isinstance(group, pa.Table)], "n": [group.num_rows]})

    shards = [pa.table({"k": ["b", "a"], "v": [1, 2]}), pa.table({"k": ["c"], "v": [3]})]
    out = pa.concat_tables(ray.get(key_exchange(shards, "k", frame))).to_pandas()
    assert out["arrow"].all() and out["n"].sum() == 3
