"""The two conversation slicers ``stages.fold.conv_runs`` replaced, kept
verbatim as references for its differential test
(``tests/test_conv_slicer.py``):

- ``conv_boundaries`` was ``stages/fold.py``'s slicer: ``pd.factorize``
  over a per-row Python-object column, then ``np.lexsort``;
- ``sorted_codes`` was nested in ``state/lineage.fold_partition``: Arrow
  dictionary codes ranked by value, then ``np.lexsort`` over them. It
  raises ``IndexError`` on a column with no non-null value.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def conv_boundaries(conv: np.ndarray, tidx: np.ndarray):
    """Value-ordered sort by (conv, turn_idx) + conversation boundaries.

    Returns ``(order, bounds)``: apply ``order`` to any row-aligned array;
    ``bounds[i]:bounds[i+1]`` is one conversation's ordered slice, and no
    rows give ``bounds == [0]``, no conversations.
    ``sort=True`` factorize so results are independent of arrival order.
    """
    conv_codes = pd.factorize(conv, sort=True)[0]
    order = np.lexsort((tidx, conv_codes))
    cc = conv_codes[order]
    change = np.flatnonzero(np.diff(cc) != 0) + 1
    bounds = np.concatenate(([0], change, [len(cc)])) if len(cc) else np.zeros(1, np.int64)
    return order, bounds


def sorted_codes(col: "pa.ChunkedArray"):
    """Integer codes ranked by sorted distinct VALUE + the sorted
    uniques — ``pd.factorize(sort=True)`` semantics without ever
    materializing a per-ROW Python-object column (r3 #8 DRAM diet:
    only the ~n_convs DISTINCT strings become Python objects; the
    per-row side stays int32 Arrow indices end-to-end). Value-sorted
    codes matter: recomputed partitions must be byte-identical
    regardless of block arrival order."""
    enc = pc.dictionary_encode(col.combine_chunks())
    uniq = np.asarray(enc.dictionary.to_pylist(), dtype=object)
    # nulls -> code -1 (pd.factorize's convention); without the
    # fill_null the float-NaN indices would astype to a garbage
    # int64 and index rank out of range
    idx = enc.indices.fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
    perm = np.argsort(uniq, kind="stable")
    rank = np.empty(len(perm), dtype=np.int64)
    rank[perm] = np.arange(len(perm))
    return np.where(idx >= 0, rank[idx], np.int64(-1)), uniq[perm]
