"""Distributed graph analytics over the document corpus.

The synthetic corpus has no explicit link column, so the graph is a
deterministic overlay derived from ``doc_id`` (the repo's surrogate
recipe, cf. ``ops/curate.py`` overlays): every document links to three
targets ``(doc_id * A_j + C_j) % n_max``. Both engines build the same
edges analytically, which keeps the whole iterative computation
SQL-replicable.

PageRank runs in INTEGER fixed point (scale max(10^12, n·10^4), so the
per-node resolution never collapses as the corpus grows) with floor
division at every step — distributed float summation is order-dependent, but
int64 sums are exact on both sides, so a 5-iteration chained-CTE DuckDB
twin reproduces the Ray result bit-for-bit (same recipe as the repo's
cents/ppm aggregates, ``ops/common.py`` module docstring).

Reference-parity note: the reference repo (ShahzadAmjadKhan/
pdf-extractors) has no graph operator; this is part of the
training-data-pipeline operator family (link-graph quality signals for
corpus curation, cf. Common-Crawl-style harmonic/PageRank centrality
filtering).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

from ..runtime import read_parquet_sized
from .common import bucketed_group_agg

# fixed fan-out overlay, three edges per node (constant outdeg → the
# per-edge contribution is exactly rank // 3 in both engines). The rules
# are deliberately NOT all bijections mod n_max — an affine map with
# gcd(a, n)=1 permutes the id space, which makes the graph 3-regular and
# every rank identical. Rule 1 is quadratic (2-to-1 collisions → skewed
# in-degree; the inner % 46337 keeps the square < 2^31 so the arithmetic
# never overflows int64 even at 10^12 ids), rule 2 is a mixing affine
# map, rule 3 contracts by 7 (low-id hubs).
_EDGE_PY = (
    lambda d, m: ((d % 46337) * (d % 46337) + 1) % m,
    lambda d, m: (d * 12289 + 7) % m,
    lambda d, m: (d // 7) % m,
)
_EDGE_SQL = (
    "((doc_id % 46337) * (doc_id % 46337) + 1) % {m}",
    "(doc_id * 12289 + 7) % {m}",
    "(doc_id // 7) % {m}",
)
N_EDGES = len(_EDGE_PY)
PR_SCALE = 10**12  # rank fixed-point scale FLOOR (see _pr_scale)
PR_DAMP_PCT = 85  # damping in percent (integer arithmetic)
PR_ITERS = 5
# per-node fixed-point resolution when the corpus outgrows the floor:
# a fixed 10^12 scale collapses to rank 0 at ~10^12 nodes, so the scale
# grows as n·10^4 — total mass stays ≤ max(10^12, n·10^4), and the worst
# single-node incoming sum is bounded by that mass, so the damping
# multiply (85 × sum) stays inside int64 for any n ≤ 10^13
PR_PER_NODE = 10**4


def _pr_scale(n: int) -> int:
    return max(PR_SCALE, n * PR_PER_NODE)


def docs_pagerank(sf_dir: str, iters: int = PR_ITERS):
    """Distributed PageRank over the doc_id link overlay.

    Semantics (integer fixed point, identical in the SQL twin):
      rank_0[v]   = SCALE // N
      contrib(u)  = rank[u] // N_EDGES            (per out-edge)
      rank_k+1[v] = (15 * (SCALE // N)) // 100
                    + (85 * sum_{u->v} contrib(u)) // 100

    Contributions addressed to a non-existent doc_id (possible when ids
    are not dense 0..N-1) are dropped by BOTH engines — the overlay is a
    function of id values, membership is decided against the real node
    set.

    Distributed shape: one narrow pruned read for the node set; each
    iteration is map-side edge emission (3 contrib rows + 1 node-marker
    row per node, all derived from the rank table itself — the edge
    table never materializes and never joins) followed by ONE
    hash-bucketed grouped combine. ``iters`` shuffles total, each
    carrying 4 int64 rows per node; no driver-side state beyond two
    scalars (N, n_max). At 10^12 nodes each exchange is ~256 GB spread
    over the cluster — the same shape as the repo's partitioned folds.
    """
    path = os.path.join(sf_dir, "documents.parquet")
    nodes = read_parquet_sized(path, columns=["doc_id"])
    # two scalars via distributed aggregates over the pruned column
    n = nodes.count()
    n_max = int(nodes.max("doc_id")) + 1
    scale = _pr_scale(n)
    base = ((100 - PR_DAMP_PCT) * (scale // n)) // 100

    def init_ranks(batch: pd.DataFrame) -> pd.DataFrame:
        batch["rank_scaled"] = np.int64(scale // n)
        return batch

    ranks = nodes.map_batches(init_ranks, batch_format="pandas")

    def emit(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["doc_id"].to_numpy(np.int64)
        r = batch["rank_scaled"].to_numpy(np.int64)
        contrib = r // N_EDGES
        dsts = [rule(d, n_max) for rule in _EDGE_PY]
        return pd.DataFrame(
            {
                # one contribution row per out-edge + the node-marker row
                "doc_id": np.concatenate(dsts + [d]),
                "contrib": np.concatenate(
                    [contrib] * N_EDGES + [np.zeros(len(d), np.int64)]
                ),
                "is_node": np.concatenate(
                    [np.zeros(N_EDGES * len(d), np.int64), np.ones(len(d), np.int64)]
                ),
            }
        )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch["is_node"] == 1]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "rank_scaled": base + (PR_DAMP_PCT * batch["contrib"].to_numpy(np.int64)) // 100,
            }
        )

    for _ in range(iters):
        ranks = bucketed_group_agg(
            ranks.map_batches(emit, batch_format="pandas"),
            ["doc_id"],
            {"contrib": "sum", "is_node": "max"},
        ).map_batches(finish, batch_format="pandas")
    return ranks.sort("doc_id")


def _pagerank_sql(iters: int = PR_ITERS) -> str:
    """Chained-CTE twin: one CTE per iteration, same integer arithmetic."""
    edge_selects = "\n    UNION ALL ".join(
        f"SELECT doc_id AS src, {expr.format(m='(SELECT nmax FROM params)')} AS dst"
        " FROM documents"
        for expr in _EDGE_SQL
    )
    scale = (
        f"GREATEST({PR_SCALE}, (SELECT n FROM params) * {PR_PER_NODE})"
    )
    base = f"(({100 - PR_DAMP_PCT} * ({{s}} // (SELECT n FROM params))) // 100)".format(s=scale)
    cte = [
        f"""params AS (SELECT COUNT(*) AS n, MAX(doc_id)+1 AS nmax FROM documents),
edges AS (
    {edge_selects}
),
r0 AS (SELECT doc_id, CAST({scale} // (SELECT n FROM params) AS BIGINT) AS rank
       FROM documents)"""
    ]
    for k in range(1, iters + 1):
        cte.append(
            f"""r{k} AS (
    SELECT n.doc_id,
           CAST({base} + ({PR_DAMP_PCT} * COALESCE(SUM(r.rank // {N_EDGES}), 0)) // 100
                AS BIGINT) AS rank
    FROM documents n
    LEFT JOIN edges e ON e.dst = n.doc_id
    LEFT JOIN r{k - 1} r ON r.doc_id = e.src
    GROUP BY n.doc_id)"""
        )
    return (
        "WITH " + ",\n".join(cte) + f"\nSELECT doc_id, rank AS rank_scaled FROM r{iters} "
        "ORDER BY doc_id"
    )


DOCS_PAGERANK_SQL = _pagerank_sql()


# --- directed triangle counting ---------------------------------------------


def docs_graph_triangles(sf_dir: str):
    """Per-node directed 3-cycle participation over the doc_id link
    overlay — the distributed multi-way self-join (the motif-counting /
    clustering-coefficient building block). A directed 3-cycle u→v→w→u
    is enumerated once per ROTATION (each corner starts it once), so a
    node's ``n_cycles3`` is 3 × the distinct cycles through it; edges
    are the deduped overlay rules with self-loops and dangling targets
    removed, so distinctness of the corners is automatic.

    Distributed shape: edges derive map-side (per-source dedup is
    batch-local-complete since all of a node's edges emit from its own
    row); ONE cogroup semi-join drops dangling targets; the 3-cycle
    closure is TWO more hash-bucketed cogroup joins (paths u→v→w keyed
    on the middle node, then closure keyed on w with the ≤3 out-edges of
    w filtered against u); corners explode and one bucketed combine
    against per-node zero markers yields every node's count. Skew note
    (documented assumption): wedge fan-out at a node v is in(v)·out(v)
    with out ≤ 3; the quadratic overlay rule concentrates in-degree at
    large corpus scale — the mitigation is chunking a hub's in-edge
    list before the wedge join (same hot-key salting lever as the
    extraction folds)."""
    from .common import cogroup_join, grouped_sums

    path = os.path.join(sf_dir, "documents.parquet")
    # materialized once: its four consumers (the max, emit_edges, the semi
    # join and the zero markers) would each re-read the file
    nodes = read_parquet_sized(path, columns=["doc_id"]).materialize()
    n_max = int(nodes.max("doc_id")) + 1

    def emit_edges(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["doc_id"].to_numpy(np.int64)
        out = pd.DataFrame(
            {
                "src": np.concatenate([d] * N_EDGES),
                "dst": np.concatenate([rule(d, n_max) for rule in _EDGE_PY]),
            }
        ).drop_duplicates()
        return out[out["src"] != out["dst"]]

    edges0 = nodes.map_batches(emit_edges, batch_format="pandas")
    # semi-join: keep edges whose target exists (non-dense id sets);
    # materialized once, or each of its three consumers re-runs it
    edges = cogroup_join(
        edges0, nodes, "dst", "doc_id", ["src", "dst"], [], how="semi"
    ).materialize()

    # paths u→v→w: join on the middle node (right side renamed — the
    # cogroup helper emits both sides under their own column names, so a
    # self-join needs disjoint names)
    edges_mid = edges.map_batches(
        lambda b: pd.DataFrame({"mid": b["src"], "w": b["dst"]}), batch_format="pandas"
    )
    paths = cogroup_join(
        edges, edges_mid, "dst", "mid", ["src", "dst"], ["w"]
    ).map_batches(
        lambda b: b.rename(columns={"src": "u", "dst": "v"}), batch_format="pandas"
    )

    # closure: out-edges of w that land back on u
    closed = cogroup_join(
        paths, edges, "w", "src", ["u", "v", "w"], ["src", "dst"]
    ).map_batches(
        lambda b: b[b["dst"] == b["u"]][["u", "v", "w"]],
        batch_format="pandas",
    )

    def corners(batch: pd.DataFrame) -> pd.DataFrame:
        ids = np.concatenate([batch["u"], batch["v"], batch["w"]])
        return pd.DataFrame({"doc_id": ids, "n_cycles3": np.ones(len(ids), np.int64)})

    zeros = nodes.map_batches(
        lambda b: pd.DataFrame(
            {"doc_id": b["doc_id"].to_numpy(np.int64),
             "n_cycles3": np.zeros(len(b), np.int64)}
        ),
        batch_format="pandas",
    )
    both = closed.map_batches(corners, batch_format="pandas").union(zeros)
    return grouped_sums(both, ["doc_id"], ["n_cycles3"]).sort("doc_id")


DOCS_TRIANGLES_SQL = "\n".join(
    [
        "WITH params AS (SELECT MAX(doc_id)+1 AS nmax FROM documents),",
        "e0 AS (",
        "    SELECT DISTINCT src, dst FROM (",
        "    "
        + "\n    UNION ALL ".join(
            f"SELECT doc_id AS src, {expr.format(m='(SELECT nmax FROM params)')} AS dst"
            " FROM documents"
            for expr in _EDGE_SQL
        ),
        "    ) WHERE src <> dst",
        "),",
        "e AS (SELECT e0.src, e0.dst FROM e0 JOIN documents n ON n.doc_id = e0.dst),",
        "tri AS (",
        "    SELECT e1.src AS u, e2.src AS v, e2.dst AS w",
        "    FROM e e1 JOIN e e2 ON e2.src = e1.dst",
        "    JOIN e e3 ON e3.src = e2.dst AND e3.dst = e1.src",
        "),",
        "corners AS (",
        "    SELECT u AS doc_id FROM tri UNION ALL SELECT v FROM tri",
        "    UNION ALL SELECT w FROM tri",
        ")",
        "SELECT n.doc_id, CAST(COUNT(c.doc_id) AS BIGINT) AS n_cycles3",
        "FROM documents n LEFT JOIN corners c ON c.doc_id = n.doc_id",
        "GROUP BY n.doc_id ORDER BY n.doc_id",
    ]
)


# --- semi-supervised label propagation ---------------------------------------

LP_ITERS = 3
LP_SEED_MOD = 5  # doc_id % 5 == 0 keeps its source as the seed label


def docs_label_prop(sf_dir: str, iters: int = LP_ITERS):
    """Semi-supervised label propagation over the doc_id link overlay —
    the weak-supervision shape (Zhu & Ghahramani 2002): 20% of documents
    are seeds (``doc_id % 5 == 0``, label = their ``source``), and each
    synchronous round an UNLABELED node takes the majority label of its
    labeled in-neighbors (ties by lexicographically smallest label).
    Labels CLAMP once assigned (seeds and propagated alike), so coverage
    grows monotonically and the computation is deterministic — which
    makes the whole iteration bit-reproducible in the chained-CTE DuckDB
    twin. Output: (doc_id, label, rnd) with rnd = the round the label
    arrived (0 = seed, -1 = never labeled, label = '').

    Distributed shape: per round, labeled nodes emit one (dst, label)
    message per out-edge MAP-SIDE (edges derived from the state table,
    never materialized) plus one state-marker row per node; ONE
    hash-bucketed exchange per round; in-bucket vectorized majority
    (groupby count → sort → head). ``iters`` shuffles total, each
    carrying ≤ 4 rows per node — the PageRank exchange shape with labels
    instead of ranks."""
    path = os.path.join(sf_dir, "documents.parquet")
    docs = read_parquet_sized(path, columns=["doc_id", "source"])
    n_max = int(docs.max("doc_id")) + 1
    nb = 64

    def init_state(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["doc_id"].to_numpy(np.int64)
        seed = d % LP_SEED_MOD == 0
        return pd.DataFrame(
            {
                "doc_id": d,
                "label": np.where(seed, batch["source"].to_numpy(), ""),
                "rnd": np.where(seed, 0, -1).astype(np.int64),
            }
        )

    state = docs.map_batches(init_state, batch_format="pandas")

    def emit(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["doc_id"].to_numpy(np.int64)
        lab = batch["label"].to_numpy()
        has = lab != ""
        dl, ll = d[has], lab[has]
        dsts = [rule(dl, n_max) for rule in _EDGE_PY]
        msgs = pd.DataFrame(
            {
                "doc_id": np.concatenate(dsts) if len(dl) else np.array([], np.int64),
                "label": np.tile(ll, N_EDGES),
                "rnd": np.int64(0),
                "is_state": np.int64(0),
            }
        )
        st = pd.DataFrame(
            {"doc_id": d, "label": lab, "rnd": batch["rnd"].to_numpy(np.int64),
             "is_state": np.int64(1)}
        )
        out = pd.concat([msgs, st], ignore_index=True)
        out["__b"] = (pd.util.hash_array(out["doc_id"].to_numpy()) % nb).astype(np.int64)
        return out

    def make_resolve(k: int):
        def resolve(group: pd.DataFrame) -> pd.DataFrame:
            st = group[group["is_state"] == 1]
            out = pd.DataFrame(
                {
                    "doc_id": st["doc_id"].to_numpy(np.int64),
                    "label": st["label"].to_numpy(),
                    "rnd": st["rnd"].to_numpy(np.int64),
                }
            )
            unl = out["label"] == ""
            if not unl.any():
                return out
            msgs = group[group["is_state"] == 0]
            m = msgs[msgs["doc_id"].isin(out.loc[unl, "doc_id"])]
            if m.empty:
                return out
            cnt = m.groupby(["doc_id", "label"], sort=False).size().reset_index(name="c")
            cnt = cnt.sort_values(
                ["doc_id", "c", "label"], ascending=[True, False, True], kind="mergesort"
            )
            win = cnt.groupby("doc_id", sort=False).head(1).set_index("doc_id")["label"]
            hit = unl & out["doc_id"].isin(win.index)
            out.loc[hit, "label"] = win.loc[out.loc[hit, "doc_id"]].to_numpy()
            out.loc[hit, "rnd"] = np.int64(k)
            return out

        return resolve

    for k in range(1, iters + 1):
        state = (
            state.map_batches(emit, batch_format="pandas")
            .groupby("__b")
            .map_groups(make_resolve(k), batch_format="pandas")
        )
    return state.sort("doc_id")


def _label_prop_sql(iters: int = LP_ITERS) -> str:
    edge_selects = "\n    UNION ALL ".join(
        f"SELECT doc_id AS src, {expr.format(m='(SELECT nmax FROM params)')} AS dst"
        " FROM documents"
        for expr in _EDGE_SQL
    )
    cte = [
        f"""params AS (SELECT MAX(doc_id)+1 AS nmax FROM documents),
edges AS (
    {edge_selects}
),
s0 AS (SELECT doc_id,
              CASE WHEN doc_id % {LP_SEED_MOD} = 0 THEN source ELSE '' END AS label,
              CAST(CASE WHEN doc_id % {LP_SEED_MOD} = 0 THEN 0 ELSE -1 END AS BIGINT) AS rnd
       FROM documents)"""
    ]
    for k in range(1, iters + 1):
        p = k - 1
        cte.append(
            f"""w{k} AS (
    SELECT dst AS doc_id, label FROM (
        SELECT e.dst, sp.label, COUNT(*) AS c,
               ROW_NUMBER() OVER (PARTITION BY e.dst
                                  ORDER BY COUNT(*) DESC, sp.label) AS rn
        FROM edges e
        JOIN s{p} sp ON sp.doc_id = e.src AND sp.label <> ''
        JOIN s{p} su ON su.doc_id = e.dst AND su.label = ''
        GROUP BY e.dst, sp.label
    ) WHERE rn = 1
),
s{k} AS (
    SELECT s.doc_id,
           CASE WHEN s.label <> '' THEN s.label ELSE COALESCE(w.label, '') END AS label,
           CAST(CASE WHEN s.label <> '' THEN s.rnd
                     WHEN w.label IS NOT NULL THEN {k} ELSE -1 END AS BIGINT) AS rnd
    FROM s{p} s LEFT JOIN w{k} w ON w.doc_id = s.doc_id
)"""
        )
    return (
        "WITH " + ",\n".join(cte)
        + f"\nSELECT doc_id, label, rnd FROM s{iters} ORDER BY doc_id"
    )


DOCS_LABEL_PROP_SQL = _label_prop_sql()
