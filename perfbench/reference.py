"""Independent references for every output the benchmark times.

Extraction outputs are compared as one order-insensitive digest per
family: every row is reduced to canonical JSON (scalars as strings, lists
element-wise, nulls as null), the lines are sorted and hashed. The engine
side reads the published Parquet files; the reference side folds the same
corpus with the serial ``oracle.runner``. Transcript ops are compared the
same way against their DuckDB twins, and conversation clusters against a
union-find over the twin-verified pair list (the recursive-CTE twin of
``transcript_conv_clusters`` is far too slow to run every time).
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# published family directory -> Arrow schema attribute in pipelines.schemas
EXTRACT_FAMILIES = {
    "catalog": "CATALOG_SCHEMA",
    "invoice": "INVOICE_SCHEMA",
    "layout": "LAYOUT_SCHEMA",
    "table": "TABLE_SCHEMA",
    "grid": "GRID_SCHEMA",
    "census": "HOUSEHOLD_SCHEMA",
    "census_summary": "CENSUS_SUMMARY_SCHEMA",
    "census_persons": "PERSONS_SCHEMA",
}


def _canon(v):
    if v is None:
        return None
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_canon(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _canon(x) for k, x in sorted(v.items())}
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if math.isnan(v):
            return None
        return str(int(v)) if float(v).is_integer() else repr(float(v))
    if hasattr(v, "isoformat"):
        return v.isoformat()
    return str(v)


def rows_digest(rows, columns: list[str]) -> tuple[int, str]:
    """``(row count, md5)`` of the rows as an unordered multiset."""
    lines = sorted(
        json.dumps([_canon(r.get(c)) for c in columns], ensure_ascii=False) for r in rows
    )
    h = hashlib.md5()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return len(lines), h.hexdigest()


def frame_digest(df, columns: list[str] | None = None) -> tuple[int, str]:
    columns = list(columns if columns is not None else df.columns)
    return rows_digest(df[columns].to_dict("records"), columns)


def _family_columns() -> dict[str, list[str]]:
    from pdf_extractors_ray.pipelines import schemas

    return {fam: getattr(schemas, attr).names for fam, attr in EXTRACT_FAMILIES.items()}


def published_digests(out_root: str) -> dict[str, tuple[int, str]]:
    """Digest of every family the extract engine published under ``out_root``."""
    cols = _family_columns()
    out = {}
    for fam, columns in cols.items():
        files = sorted(glob.glob(os.path.join(out_root, fam, "part-*.parquet")))
        rows = []
        for f in files:
            rows.extend(pq.read_table(f).to_pylist())
        out[fam] = rows_digest(rows, columns)
    return out


def oracle_digests(corpus_dir: str) -> dict[str, tuple[int, str]]:
    """The same digests from the serial oracle over the raw corpus."""
    from pdf_extractors_ray.oracle import runner

    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    tbl = pa.concat_tables(pq.read_table(f) for f in files)
    cols = _family_columns()
    frames = {fam: runner.run_family(tbl, fam) for fam in runner.CONV_FOLDS}
    frames["census"], frames["census_summary"], frames["census_persons"] = runner.run_census(tbl)
    return {
        fam: rows_digest(frames[fam].to_dict("records"), cols[fam]) for fam in EXTRACT_FAMILIES
    }


def compare(got: dict, want: dict) -> list[str]:
    """Names of the entries whose digests differ (or are missing)."""
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))


# ---------------------------------------------------------------------------
# transcript ops


def twin_frame(sql: str):
    """The DuckDB twin's result as a DataFrame."""
    import duckdb

    con = duckdb.connect()
    try:
        return con.execute(sql).fetchdf()
    finally:
        con.close()


def conv_key(conv_id: str) -> int:
    """The 52-bit conversation key ``transcript_conv_neardup`` emits."""
    return int(hashlib.md5(conv_id.encode()).hexdigest()[:13], 16)


def clusters_digest(corpus_dir: str, pairs, columns: list[str]) -> tuple[int, str]:
    """Union-find components over ``pairs`` (rows of ``a``, ``b``); every
    conversation of the corpus is a node, singletons included."""
    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    convs = set()
    for f in files:
        convs.update(pq.read_table(f, columns=["conv_id"])["conv_id"].to_pylist())
    parent = {conv_key(c): conv_key(c) for c in convs if c is not None}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    root = {n: find(n) for n in parent}
    size: dict[int, int] = {}
    for r in root.values():
        size[r] = size.get(r, 0) + 1
    rows = [{"doc_id": n, "cluster": r, "cluster_size": size[r]} for n, r in root.items()]
    return rows_digest(rows, columns)
