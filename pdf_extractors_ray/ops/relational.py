"""Relational core over the star schema: grouped aggregates (with partial
pre-aggregation), broadcast joins, a large-large hash join, filter+sum,
top-k. Each function takes ``sf_dir`` and returns a Dataset whose column
names match the paired oracle SQL exactly.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow.compute as pc

from .common import broadcast, cast_us, cents, grouped_sums


def _pq(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def _read(sf_dir: str, name: str, columns=None, filter=None):
    import ray.data as rd

    from ..runtime import tune_data_context

    tune_data_context()

    from ..runtime import read_parquet_sized

    kwargs = {}
    if filter is not None:
        kwargs["filter"] = filter
    return read_parquet_sized(_pq(sf_dir, name), columns=columns, **kwargs)


def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1-style pricing summary: vectorized derived columns, partial
    per-batch combine, then a small groupby (SURVEY.md §2.5 mapping)."""
    ds = _read(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pc.field("l_shipdate") <= pc.scalar(pd.Timestamp("2000-12-01"))),
    )

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        price = batch["l_extendedprice"].to_numpy()
        disc = batch["l_discount"].to_numpy()
        return pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "sum_qty": batch["l_quantity"].to_numpy().astype(np.int64),
                "sum_base_cents": cents(price),
                "sum_disc_cents": cents(price * (1.0 - disc)),
            }
        )

    ds = ds.map_batches(derive, batch_format="pandas")
    out = grouped_sums(ds, ["l_returnflag", "l_linestatus"],
                       ["sum_qty", "sum_base_cents", "sum_disc_cents"], count_alias="count_order")
    return out.sort(["l_returnflag", "l_linestatus"])


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(SUM(CAST(FLOOR(l_extendedprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_base_cents,
       CAST(SUM(CAST(FLOOR(l_extendedprice*(1.0-l_discount)*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_cents,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '2000-12-01'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


def q3_segment_topk(sf_dir: str, segment: str = "BUILDING", k: int = 10):
    """Top-k orders by revenue for one market segment.

    Join strategy: fully distributed. A market segment is ~20% of
    ``customer`` — NOT broadcast-small at 100 TB (a driver-side key set
    would be tens of GB of Python ints) — so the orders semi-join and the
    orders↔lineitem join both run as key-shuffled cogroups
    (``common.cogroup_join``: union + sort-groupby + in-group merge);
    nothing corpus-sized touches the driver (ray_guide "Joins and
    lookups"). Ray 2.49's ``Dataset.join`` operator is NOT used: its
    hash-shuffle aggregator actors cost ~10-20 s of fixed startup PER JOIN
    regardless of partition count (measured at sf0.01: 65 s for this query
    vs <10 s via cogroup), and it crashes on empty hash partitions."""
    from .common import cogroup_join

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"],
                 filter=(pc.field("c_mktsegment") == segment)).select_columns(["c_custkey"])

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    o_keys = cogroup_join(orders, cust, "o_custkey", "c_custkey", ["o_orderkey"], [])

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def li_rev(batch: pd.DataFrame) -> pd.DataFrame:
        # keyed under the output's name, so the join feeds the rollup as is
        rev = cents(batch["l_extendedprice"].to_numpy() * (1.0 - batch["l_discount"].to_numpy()))
        return pd.DataFrame({"o_orderkey": batch["l_orderkey"], "revenue_cents": rev})

    rev = li.map_batches(li_rev, batch_format="pandas")
    joined = cogroup_join(rev, o_keys, "o_orderkey", "o_orderkey",
                          ["o_orderkey", "revenue_cents"], [])
    agg = grouped_sums(joined, ["o_orderkey"], ["revenue_cents"])

    # per-block partial top-k before the global sort: the global top-k is
    # a subset of the union of per-block top-ks (keys are unique after
    # grouped_sums), so the all-to-all sort sees k×n_blocks rows instead
    # of every order in the segment
    def block_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(["revenue_cents", "o_orderkey"],
                                 ascending=[False, False], kind="mergesort").head(k)

    pruned = agg.map_batches(block_topk, batch_format="pandas")
    # the sort's merge keeps the blocks' row labels: drop them
    return (
        pruned.sort(["revenue_cents", "o_orderkey"], descending=[True, True])
        .limit(k)
        .map_batches(lambda b: b.reset_index(drop=True), batch_format="pandas")
    )


Q3_SQL = """
SELECT l_orderkey AS o_orderkey,
       CAST(SUM(CAST(FLOOR(l_extendedprice*(1.0-l_discount)*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
WHERE c_mktsegment = 'BUILDING'
GROUP BY l_orderkey
ORDER BY revenue_cents DESC, o_orderkey DESC
LIMIT 10
"""


def q5_nation_revenue(sf_dir: str, region: str = "ASIA"):
    """Revenue per nation for one region.

    Dimension chain region→nation→customer is broadcast; the orders↔lineitem
    side goes through key-shuffled cogroups (``common.cogroup_join``) —
    the large-large join path the broadcast pattern can't cover at scale
    (Ray 2.49's ``Dataset.join`` operator is avoided: ~10-20 s fixed
    aggregator-actor startup per join at any partition count, measured)."""
    import ray

    from .common import cogroup_join

    # region→nation is a true dimension chain (≤25 rows) → driver-side +
    # broadcast; customer is NOT broadcast-small at scale, so it is tagged
    # distributed and joined to orders via Dataset.join.
    nation = _read(sf_dir, "nation").to_pandas()
    reg = _read(sf_dir, "region").to_pandas()
    reg_key = reg[reg["r_name"] == region]["r_regionkey"].iloc[0]
    nation = nation[nation["n_regionkey"] == reg_key]
    nation_map_ref = broadcast(nation.set_index("n_nationkey")["n_name"])

    # elastic tasks: ray.get of the broadcast map is a zero-copy local
    # read per task — no per-query actor-pool spawn, no pool-size cap
    def tag_customers(batch: pd.DataFrame, *, _ref=nation_map_ref) -> pd.DataFrame:
        names = batch["c_nationkey"].map(ray.get(_ref))
        out = pd.DataFrame({"c_custkey": batch["c_custkey"], "n_name": names})
        return out[out["n_name"].notna()]

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    cust_tagged = cust.map_batches(tag_customers, batch_format="pandas")

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    tagged = cogroup_join(orders, cust_tagged, "o_custkey", "c_custkey",
                          ["o_orderkey"], ["n_name"])

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def li_rev(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_orderkey": batch["l_orderkey"],
                "revenue_cents": cents(batch["l_extendedprice"].to_numpy() * (1.0 - batch["l_discount"].to_numpy())),
            }
        )

    li = li.map_batches(li_rev, batch_format="pandas")
    joined = cogroup_join(li, tagged, "l_orderkey", "o_orderkey",
                          ["revenue_cents"], ["n_name"])
    out = grouped_sums(joined, ["n_name"], ["revenue_cents"])
    return out.sort("n_name")


Q5_SQL = """
SELECT n_name,
       CAST(SUM(CAST(FLOOR(l_extendedprice*(1.0-l_discount)*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
WHERE r_name = 'ASIA'
GROUP BY n_name
ORDER BY n_name
"""


def q6_filtered_revenue(sf_dir: str):
    """Filter + global sum: predicate pushdown at the read, vectorized cents,
    single-row result."""
    ds = _read(
        sf_dir, "lineitem",
        columns=["l_extendedprice", "l_discount", "l_quantity", "l_shipdate"],
        filter=(
            (pc.field("l_shipdate") >= pc.scalar(pd.Timestamp("1996-01-01")))
            & (pc.field("l_shipdate") < pc.scalar(pd.Timestamp("1997-01-01")))
            & (pc.field("l_discount") >= 0.05)
            & (pc.field("l_discount") <= 0.07)
            & (pc.field("l_quantity") < 24.0)
        ),
    )

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        rev = cents(batch["l_extendedprice"].to_numpy() * batch["l_discount"].to_numpy())
        return pd.DataFrame({"g": np.zeros(len(batch), dtype=np.int64), "revenue_cents": rev})

    ds = ds.map_batches(derive, batch_format="pandas")
    return grouped_sums(ds, ["g"], ["revenue_cents"]).select_columns(["revenue_cents"])


Q6_SQL = """
SELECT CAST(SUM(CAST(FLOOR(l_extendedprice*l_discount*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01' AND l_shipdate < TIMESTAMP '1997-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
"""


def orders_priority_count(sf_dir: str):
    """Simple grouped count with partial combine + final sort."""
    orders = _read(sf_dir, "orders", columns=["o_orderpriority", "o_orderstatus"])

    def one(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.assign(n=np.int64(1))
        return batch

    ds = orders.map_batches(one, batch_format="pandas")
    out = grouped_sums(ds, ["o_orderpriority", "o_orderstatus"], ["n"])
    return out.sort(["o_orderpriority", "o_orderstatus"])


ORDERS_PRIORITY_SQL = """
SELECT o_orderpriority, o_orderstatus, COUNT(*) AS n
FROM orders
GROUP BY 1, 2
ORDER BY 1, 2
"""


def orders_topk_per_customer(sf_dir: str, k: int = 3):
    """Windowed top-k: each customer's k highest-value orders.

    Scale shape: a per-batch PARTIAL top-k caps shuffle volume at k rows
    per (batch, customer), and the final ranking groups by a hash BUCKET
    of the customer key (~2xCPUs buckets) rather than by customer —
    ``map_groups`` costs a Python call per group, and customer count is
    corpus-scale (the repo's measured pathological pattern; the
    within-bucket rank is one vectorized sort + cumcount)."""
    from .common import _default_buckets

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderkey", "o_totalprice"])
    nb = _default_buckets()

    def _rank_head(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["o_custkey", "price_cents", "o_orderkey"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        rank = (g.groupby("o_custkey", sort=False).cumcount() + 1).to_numpy(np.int64)
        keep = rank <= k
        g = g.loc[keep, ["o_custkey", "o_orderkey", "price_cents"]].copy()
        g["rank"] = rank[keep]
        return g

    def derive_partial(batch: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "o_custkey": batch["o_custkey"],
                "o_orderkey": batch["o_orderkey"],
                "price_cents": cents(batch["o_totalprice"].to_numpy()),
            }
        )
        out = _rank_head(df).drop(columns=["rank"])
        out["__b"] = (
            pd.util.hash_array(out["o_custkey"].to_numpy(np.int64)) % nb
        ).astype(np.int64)
        return out

    ds = orders.map_batches(derive_partial, batch_format="pandas")

    def topk_bucket(group: pd.DataFrame) -> pd.DataFrame:
        return _rank_head(group)

    return (
        ds.groupby("__b")
        .map_groups(topk_bucket, batch_format="pandas")
        .sort(["o_custkey", "rank"])
    )


ORDERS_TOPK_SQL = """
SELECT o_custkey, o_orderkey,
       CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT) AS price_cents,
       rank
FROM (
    SELECT o_custkey, o_orderkey, o_totalprice,
           ROW_NUMBER() OVER (
               PARTITION BY o_custkey
               ORDER BY CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT) DESC, o_orderkey
           ) AS rank
    FROM orders
)
WHERE rank <= 3
ORDER BY o_custkey, rank
"""


def events_distinct_users(sf_dir: str):
    """Distinct-count via two-level grouped reduction: distinct
    (event_type, user_id) pairs first (pre-aggregated per batch), then a
    tiny count per event_type — the exact-distinct pattern that scales
    (no driver-side set)."""
    from .common import bucketed_group_agg

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])

    def batch_distinct(batch: pd.DataFrame) -> pd.DataFrame:
        # per-batch dedup + the bucketed combine below = distinct pairs
        # without Ray's per-group hash-aggregate overhead (pair keys are
        # ~all distinct — the pathological case for groupby().aggregate())
        return batch.drop_duplicates(["event_type", "user_id"]).assign(_c=np.int64(1))

    pairs = ds.map_batches(batch_distinct, batch_format="pandas")
    distinct = bucketed_group_agg(pairs, ["event_type", "user_id"], {"_c": "min"})
    distinct = distinct.drop_columns(["_c"])

    def one(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.assign(n_users=np.int64(1))[["event_type", "n_users"]]

    counted = distinct.map_batches(one, batch_format="pandas")
    return grouped_sums(counted, ["event_type"], ["n_users"]).sort("event_type")


EVENTS_DISTINCT_SQL = """
SELECT event_type, COUNT(DISTINCT user_id) AS n_users
FROM events
GROUP BY event_type
ORDER BY event_type
"""


def orders_by_month(sf_dir: str):
    """Monthly order counts + value (calendar bucketing on timestamps)."""
    orders = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                # us units: DuckDB TIMESTAMP is microseconds; matching the unit
                # makes the driver's dtype-sensitive value hash agree.
                "month": batch["o_orderdate"].dt.to_period("M").dt.to_timestamp().astype("datetime64[us]"),
                "n": np.int64(1),
                "total_cents": cents(batch["o_totalprice"].to_numpy()),
            }
        )

    ds = orders.map_batches(derive, batch_format="pandas")
    out = cast_us(grouped_sums(ds, ["month"], ["n", "total_cents"]), ["month"])
    return out.sort("month")


ORDERS_BY_MONTH_SQL = """
SELECT CAST(date_trunc('month', o_orderdate) AS TIMESTAMP) AS month,
       COUNT(*) AS n,
       CAST(SUM(CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS total_cents
FROM orders
GROUP BY 1
ORDER BY 1
"""


QUANTILES_PPM = (500_000, 900_000, 990_000)


def exact_quantiles_int(ds, col: str, qs_ppm=QUANTILES_PPM, n_bins: int = 1024):
    """Exact quantile SELECTION over an int64 column without a global sort.

    Rank semantics: the k-th smallest value (1-based), k = ceil(q * n) —
    the discrete quantile. Algorithm: iterative distributed counting —
    each pass histograms every still-active quantile's candidate range
    into ``n_bins`` equal-width bins (per-batch numpy ``bincount``
    partials, bucketed tiny combine), the driver walks the cumulative
    counts to pick the bin containing the rank, and the range narrows by
    ~n_bins× per pass until its width is 1 (the value itself). For a
    cents-scale domain that is ≤3 passes over ONE column; nothing but
    B-sized count vectors ever leaves the workers — the scale alternative
    (global sort) is an all-to-all shuffle of every row.

    All active quantiles share each pass (one scan histograms every
    active range), so total scans stay ≤ ceil(log_B(domain width)).
    """
    import numpy as np
    import pandas as pd

    from .common import grouped_sums

    # pass 0: n, min, max (tiny per-batch partials)
    def mm(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[col].to_numpy()
        return pd.DataFrame(
            {"n": [np.int64(len(v))], "lo": [v.min()], "hi": [v.max()]}
        )

    parts = ds.map_batches(mm, batch_format="pandas").to_pandas()
    n = int(parts["n"].sum())
    lo0, hi0 = int(parts["lo"].min()), int(parts["hi"].max()) + 1
    # state per quantile: [lo, hi) candidate range + rank within it (1-based)
    state = {
        q: {"lo": lo0, "hi": hi0, "k": int(np.ceil(q / 1_000_000.0 * n)), "val": None}
        for q in qs_ppm
    }

    while True:
        active = {q: s for q, s in state.items() if s["val"] is None}
        if not active:
            break
        ranges = [
            (qi, s["lo"], s["hi"], max(1, -(-(s["hi"] - s["lo"]) // n_bins)))
            for qi, s in enumerate(state.values())
            if s["val"] is None
        ]

        def hist(batch: pd.DataFrame) -> pd.DataFrame:
            v = batch[col].to_numpy()
            qis, bins, cnts = [], [], []
            for qi, rlo, rhi, width in ranges:
                m = v[(v >= rlo) & (v < rhi)]
                if len(m) == 0:
                    continue
                b = (m - rlo) // width
                bc = np.bincount(b, minlength=1)
                nz = np.nonzero(bc)[0]
                qis.append(np.full(len(nz), qi, dtype=np.int64))
                bins.append(nz.astype(np.int64))
                cnts.append(bc[nz].astype(np.int64))
            if not qis:
                return pd.DataFrame({"qi": [], "bin": [], "cnt": []}).astype(np.int64)
            return pd.DataFrame(
                {"qi": np.concatenate(qis), "bin": np.concatenate(bins),
                 "cnt": np.concatenate(cnts)}
            )

        combined = grouped_sums(
            ds.map_batches(hist, batch_format="pandas"), ["qi", "bin"], ["cnt"]
        ).to_pandas()
        for qi, rlo, rhi, width in ranges:
            q = list(state.keys())[qi]
            s = state[q]
            rows = combined[combined["qi"] == qi].sort_values("bin")
            cum = rows["cnt"].cumsum().to_numpy()
            pos = int(np.searchsorted(cum, s["k"]))
            b = int(rows["bin"].iloc[pos])
            s["k"] -= int(cum[pos - 1]) if pos > 0 else 0
            s["lo"], s["hi"] = rlo + b * width, min(rhi, rlo + (b + 1) * width)
            if s["hi"] - s["lo"] == 1:
                s["val"] = s["lo"]

    return n, [
        (q, int(np.ceil(q / 1_000_000.0 * n)), state[q]["val"]) for q in qs_ppm
    ]


def orders_price_quantiles(sf_dir: str, qs_ppm=QUANTILES_PPM):
    """Exact p50/p90/p99 of the order price (in cents) via the
    distributed counting selection above — no sort, ≤3 histogram passes
    over one pruned column."""
    import ray.data as rd

    orders = _read(sf_dir, "orders", columns=["o_totalprice"])
    cds = orders.map_batches(
        lambda b: pd.DataFrame({"c": cents(b["o_totalprice"].to_numpy())}),
        batch_format="pandas",
    )
    n, rows = exact_quantiles_int(cds, "c", qs_ppm)
    out = pd.DataFrame(
        {
            "q_ppm": np.array([q for q, _, _ in rows], dtype=np.int64),
            "rank": np.array([k for _, k, _ in rows], dtype=np.int64),
            "value_cents": np.array([v for _, _, v in rows], dtype=np.int64),
        }
    ).sort_values("q_ppm")
    return rd.from_pandas(out)


ORDERS_QUANTILES_SQL = """
WITH v AS (SELECT CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT) AS c FROM orders),
r AS (SELECT c, ROW_NUMBER() OVER (ORDER BY c) AS rn, COUNT(*) OVER () AS n FROM v),
q AS (SELECT * FROM (VALUES (500000), (900000), (990000)) t(q_ppm))
SELECT CAST(q.q_ppm AS BIGINT) AS q_ppm,
       CAST(CEIL(q.q_ppm / 1000000.0 * MIN(r.n)) AS BIGINT) AS rank,
       MIN(r.c) AS value_cents
FROM q JOIN r ON r.rn = CAST(CEIL(q.q_ppm / 1000000.0 * r.n) AS BIGINT)
GROUP BY q.q_ppm
ORDER BY q.q_ppm
"""


def customer_topk_balance(sf_dir: str, k: int = 20):
    """Global top-k by account balance (sort + limit)."""
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name", "c_acctbal"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "c_custkey": batch["c_custkey"],
                "c_name": batch["c_name"],
                "acctbal_cents": cents(batch["c_acctbal"].to_numpy()),
            }
        )

    ds = cust.map_batches(derive, batch_format="pandas")

    # per-block partial top-k (rows are unique per customer) so the
    # all-to-all sort sees k×n_blocks rows, not the whole customer table
    def block_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(["acctbal_cents", "c_custkey"],
                                 ascending=[False, True], kind="mergesort").head(k)

    pruned = ds.map_batches(block_topk, batch_format="pandas")
    return pruned.sort(["acctbal_cents", "c_custkey"], descending=[True, False]).limit(k)


CUSTOMER_TOPK_SQL = """
SELECT c_custkey, c_name,
       CAST(FLOOR(c_acctbal*100 + 0.5) AS BIGINT) AS acctbal_cents
FROM customer
ORDER BY acctbal_cents DESC, c_custkey
LIMIT 20
"""


def supplier_per_nation(sf_dir: str):
    """Broadcast dimension join: suppliers per nation name."""
    import ray

    nation = _read(sf_dir, "nation", columns=["n_nationkey", "n_name"]).to_pandas()
    nation_ref = broadcast(nation.set_index("n_nationkey")["n_name"])

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        names = batch["s_nationkey"].map(ray.get(nation_ref))
        return pd.DataFrame({"n_name": names, "n_suppliers": np.int64(1)})

    sup = _read(sf_dir, "supplier", columns=["s_nationkey"])
    ds = sup.map_batches(tag, batch_format="pandas")
    return grouped_sums(ds, ["n_name"], ["n_suppliers"]).sort("n_name")


SUPPLIER_PER_NATION_SQL = """
SELECT n_name, COUNT(*) AS n_suppliers
FROM supplier JOIN nation ON s_nationkey = n_nationkey
GROUP BY n_name
ORDER BY n_name
"""


def q22_antijoin_nation(sf_dir: str, priority: str = "1-URGENT"):
    """TPC-H Q22 shape adapted to the synthetic schema: customers whose
    balance is above the average POSITIVE balance and who have placed NO
    ``priority`` order, rolled up per nation (customer count + total
    balance in cents). Exercises the distributed ANTI join (NOT EXISTS) —
    the synthetic generator gives every customer at least one order, so
    the right side is the pruned+filtered urgent-order key column, which
    keeps the anti join selective at every sf. ``Q22_SQL`` pins the
    DEFAULT priority; non-default values are for tests/ad-hoc use only.

    Exactness: the above-average comparison is integer cross-multiplied
    (``bal_cents * n_pos > sum_pos_cents``) so no float average crosses
    an engine boundary. Scale shape: the (sum, count) of positive
    balances is a two-int rollup broadcast map-side; the anti join is
    the one hash-bucketed cogroup exchange (orders pruned to the key
    column); the nation rollup is a bucketed grouped sum."""
    import ray

    from .common import cogroup_join

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey", "c_acctbal"])

    def pos_partial(batch: pd.DataFrame) -> pd.DataFrame:
        bal = cents(batch["c_acctbal"].to_numpy())
        pos = bal[batch["c_acctbal"].to_numpy() > 0]
        return pd.DataFrame({"s": [pos.sum()], "n": [len(pos)]})

    totals = cust.map_batches(pos_partial, batch_format="pandas").to_pandas()
    s, n = int(totals["s"].sum()), int(totals["n"].sum())
    thresh_ref = ray.put((s, n))

    def rich(batch: pd.DataFrame) -> pd.DataFrame:
        s_, n_ = ray.get(thresh_ref)
        bal = cents(batch["c_acctbal"].to_numpy())
        keep = bal * n_ > s_
        return pd.DataFrame(
            {
                "c_custkey": batch["c_custkey"].to_numpy(np.int64)[keep],
                "c_nationkey": batch["c_nationkey"].to_numpy(np.int64)[keep],
                "bal_cents": bal[keep],
            }
        )

    orders = _read(
        sf_dir,
        "orders",
        columns=["o_custkey"],
        filter=pc.field("o_orderpriority") == priority,
    )
    no_orders = cogroup_join(
        cust.map_batches(rich, batch_format="pandas"),
        orders,
        left_on="c_custkey",
        right_on="o_custkey",
        left_cols=["c_nationkey", "bal_cents"],
        right_cols=[],
        how="anti",
    )

    def tally(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "c_nationkey": batch["c_nationkey"],
                "numcust": np.ones(len(batch), dtype=np.int64),
                "totacctbal_cents": batch["bal_cents"],
            }
        )

    return grouped_sums(
        no_orders.map_batches(tally, batch_format="pandas"),
        ["c_nationkey"],
        ["numcust", "totacctbal_cents"],
    ).sort("c_nationkey")


Q22_SQL = """
WITH bal AS (
    SELECT c_custkey, c_nationkey,
           CAST(FLOOR(c_acctbal*100 + 0.5) AS BIGINT) AS bal_cents,
           c_acctbal > 0 AS pos
    FROM customer
),
agg AS (
    SELECT CAST(SUM(CASE WHEN pos THEN bal_cents ELSE 0 END) AS BIGINT) AS s,
           CAST(SUM(CASE WHEN pos THEN 1 ELSE 0 END) AS BIGINT) AS n
    FROM bal
),
no_ord AS (
    SELECT b.c_nationkey, b.bal_cents
    FROM bal b, agg
    WHERE b.bal_cents * agg.n > agg.s
      AND NOT EXISTS (SELECT 1 FROM orders o
                      WHERE o.o_custkey = b.c_custkey
                        AND o.o_orderpriority = '1-URGENT')
)
SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
       CAST(COUNT(*) AS BIGINT) AS numcust,
       CAST(SUM(bal_cents) AS BIGINT) AS totacctbal_cents
FROM no_ord
GROUP BY c_nationkey
ORDER BY c_nationkey
"""


def exact_grouped_quantile_int(ds, group_col: str, col: str, q_ppm: int,
                               n_bins: int = 1024):
    """One quantile of ``exact_grouped_quantiles_int``: returns
    {group: (n, rank, value)}."""
    return {gk: got[0] for gk, got in
            exact_grouped_quantiles_int(ds, group_col, col, (q_ppm,), n_bins).items()}


def exact_grouped_quantiles_int(ds, group_col: str, col: str, q_ppms,
                                n_bins: int = 1024):
    """PER-GROUP exact quantile selection over an int64 column — the
    grouped generalization of ``exact_quantiles_int``: every still-active
    (group, quantile) candidate range is histogrammed in the same pass
    (per-batch numpy ``bincount`` partials keyed by range, bucketed tiny
    combine), so one min/max pass and ≤ ceil(log_B(domain width))
    histogram passes serve every group AND every quantile in ``q_ppms``.
    Groups must be a BOUNDED set (clusters, sources — not a corpus-scale
    key): the driver holds one (lo, hi, k) triple per group and quantile.

    Rank semantics: k-th smallest (1-based), k = (q_ppm*n + 999999) //
    1e6 — the integer ceil, so the SQL twin can use the same formula
    without float CEIL ambiguity. Returns {group: [(n, rank, value) per
    q_ppm, in order]}.
    """
    from .common import grouped_sums

    def mm(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(group_col, sort=False)[col].agg(["count", "min", "max"])
        return pd.DataFrame(
            {
                group_col: g.index.to_numpy(),
                "n": g["count"].to_numpy(np.int64),
                "lo": g["min"].to_numpy(np.int64),
                "hi": g["max"].to_numpy(np.int64),
            }
        )

    parts = (
        ds.map_batches(mm, batch_format="pandas")
        .to_pandas()
        .groupby(group_col)
        .agg({"n": "sum", "lo": "min", "hi": "max"})
    )
    # one narrowing state per (group, quantile); its index keys the partials
    state = [
        {
            "g": int(gk),
            "lo": int(r["lo"]),
            "hi": int(r["hi"]) + 1,
            "k": (q * int(r["n"]) + 999_999) // 1_000_000,
            "n": int(r["n"]),
            "val": None,
        }
        for gk, r in parts.iterrows()
        for q in q_ppms
    ]

    while any(s["val"] is None for s in state):
        by_group: dict[int, list] = {}
        for i, s in enumerate(state):
            if s["val"] is None:
                width = max(1, -(-(s["hi"] - s["lo"]) // n_bins))
                by_group.setdefault(s["g"], []).append((i, s["lo"], s["hi"], width))

        def hist(batch: pd.DataFrame) -> pd.DataFrame:
            gv = batch[group_col].to_numpy(np.int64)
            v = batch[col].to_numpy(np.int64)
            ids, bins, cnts = [], [], []
            for gk, ranges in by_group.items():
                vg = v[gv == gk]
                for i, rlo, rhi, width in ranges:
                    m = vg[(vg >= rlo) & (vg < rhi)]
                    if len(m) == 0:
                        continue
                    bc = np.bincount((m - rlo) // width, minlength=1)
                    nz = np.nonzero(bc)[0]
                    ids.append(np.full(len(nz), i, dtype=np.int64))
                    bins.append(nz.astype(np.int64))
                    cnts.append(bc[nz].astype(np.int64))
            if not ids:
                return pd.DataFrame({"g": [], "bin": [], "cnt": []}).astype(np.int64)
            return pd.DataFrame(
                {"g": np.concatenate(ids), "bin": np.concatenate(bins),
                 "cnt": np.concatenate(cnts)}
            )

        combined = grouped_sums(
            ds.map_batches(hist, batch_format="pandas"), ["g", "bin"], ["cnt"]
        ).to_pandas()
        for ranges in by_group.values():
            for i, rlo, rhi, width in ranges:
                s = state[i]
                rows = combined[combined["g"] == i].sort_values("bin")
                cum = rows["cnt"].cumsum().to_numpy()
                pos = int(np.searchsorted(cum, s["k"]))
                b = int(rows["bin"].iloc[pos])
                s["k"] -= int(cum[pos - 1]) if pos > 0 else 0
                s["lo"], s["hi"] = rlo + b * width, min(rhi, rlo + (b + 1) * width)
                if s["hi"] - s["lo"] == 1:
                    s["val"] = s["lo"]

    out: dict = {}
    for s in state:
        out.setdefault(s["g"], []).append(s)
    return {
        gk: [(s["n"], (q * s["n"] + 999_999) // 1_000_000, s["val"])
             for s, q in zip(ss, q_ppms)]
        for gk, ss in out.items()
    }


# --- mergeable approximate quantile sketch -----------------------------------

SKETCH_EPS_PPM = 10_000  # ε = 1% rank error per compression level


def block_rank_summary(v: np.ndarray, eps_ppm: int = SKETCH_EPS_PPM) -> tuple:
    """Pure kernel: ε-approximate weighted rank summary of one block.

    Sort the block and keep every s-th element (s = max(1, floor(ε·m))),
    each carrying the weight of the gap it closes; the last kept element
    is always the block MAX with the remainder weight, so total weight is
    exactly m and any rank estimate from the summary is within ε·m of
    the true in-block rank. Deterministic — no randomness, so the sketch
    is resume/partition stable and MERGEABLE: concatenating summaries
    adds the per-block error bounds (≤ ε·n overall per level)."""
    m = len(v)
    if m == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    sv = np.sort(v)
    s = max(1, (eps_ppm * m) // 1_000_000)
    idx = np.arange(s - 1, m, s, dtype=np.int64)
    if idx[-1] != m - 1:
        idx = np.append(idx, m - 1)
    weights = np.diff(np.concatenate(([-1], idx))).astype(np.int64)
    return sv[idx], weights


def sketch_quantile_estimates(values, weights, n: int, qs_ppm=QUANTILES_PPM):
    """Estimate each quantile from a merged (value, weight) summary: the
    value whose weighted cumulative rank first reaches ceil(q·n)."""
    order = np.argsort(values, kind="mergesort")
    sv, sw = np.asarray(values)[order], np.asarray(weights)[order]
    cum = np.cumsum(sw)
    out = {}
    for q in qs_ppm:
        k = int(np.ceil(q / 1_000_000.0 * n))
        out[q] = int(sv[int(np.searchsorted(cum, k))])
    return out


def orders_quantile_sketch(sf_dir: str, eps_ppm: int = SKETCH_EPS_PPM):
    """Mergeable ε-approximate quantile sketch over the order price —
    the one-pass streaming complement of ``orders_price_quantiles``'s
    exact multi-pass selection (at 10^12 rows the sketch answers from
    ONE scan; the exact path costs ≤ log1024(domain) scans). Per block:
    sorted ε-spaced (value, weight) rows — ≤ 1/ε + 1 rows per block
    regardless of block size. The estimate here runs over the full
    merged summary (error ≤ ε·n); the documented scale lever when
    n_blocks/ε outgrows the driver is one re-compression with the same
    spacing rule, which adds at most another ε·n — the returned budget
    is the conservative 2ε·n covering that path. Callers assert the
    theorem bound against the exact selection."""
    orders = _read(sf_dir, "orders", columns=["o_totalprice"])

    def summarize(batch: pd.DataFrame) -> pd.DataFrame:
        vals, wts = block_rank_summary(
            cents(batch["o_totalprice"].to_numpy()), eps_ppm
        )
        return pd.DataFrame({"v": vals, "w": wts})

    parts = orders.map_batches(summarize, batch_format="pandas").to_pandas()
    n = int(parts["w"].sum())
    # re-compress the merged summary to bound the driver table: weighted
    # variant of the same spacing rule (second ε of the 2ε bound)
    order = np.argsort(parts["v"].to_numpy(), kind="mergesort")
    sv = parts["v"].to_numpy(np.int64)[order]
    sw = parts["w"].to_numpy(np.int64)[order]
    est = sketch_quantile_estimates(sv, sw, n)
    rows = pd.DataFrame(
        {
            "q_ppm": np.array(sorted(est), dtype=np.int64),
            "value_cents": np.array([est[q] for q in sorted(est)], dtype=np.int64),
            "max_rank_err": np.int64(2 * (eps_ppm * n) // 1_000_000),
        }
    )
    return rows


def count_below(sf_dir: str, threshold_cents: int) -> int:
    """Distributed strict-below count of the order price (one pruned
    streaming pass; per-batch partial counts)."""
    orders = _read(sf_dir, "orders", columns=["o_totalprice"])

    def part(batch: pd.DataFrame) -> pd.DataFrame:
        c = cents(batch["o_totalprice"].to_numpy())
        return pd.DataFrame({"n": [np.int64((c < threshold_cents).sum())]})

    return int(orders.map_batches(part, batch_format="pandas").to_pandas()["n"].sum())


def part_type_revenue(sf_dir: str):
    """Revenue share by part type (the TPC-H Q14 shape generalized):
    lineitem joined to ``part`` on partkey with per-type revenue, item
    counts and the integer ppm share of total revenue.

    Scale shape — pre-aggregate BEFORE the join: lineitem first reduces
    to one (partkey, cents, n) row per part via the bucketed combine, so
    the corpus-sized table never enters the join; the cogroup join then
    moves two part-cardinality sides (both ~|part|, the honest big-big
    exchange — ``part`` scales with the corpus and is NOT
    broadcast-small at 100 TB), and the final rollup is a handful of
    type rows. The ppm share is computed in Python ints on the tiny
    final table (int64 `cents * 1e6` would overflow at trillion-cent
    revenue; same lesson as ``docs_mixture_budget``)."""
    from .common import cogroup_join

    li = _read(sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice", "l_discount"])

    def li_rev(batch: pd.DataFrame) -> pd.DataFrame:
        rev = cents(batch["l_extendedprice"].to_numpy() * (1.0 - batch["l_discount"].to_numpy()))
        return pd.DataFrame(
            {"l_partkey": batch["l_partkey"], "revenue_cents": rev, "n_items": np.int64(1)}
        )

    per_part = grouped_sums(
        li.map_batches(li_rev, batch_format="pandas"), ["l_partkey"], ["revenue_cents", "n_items"]
    )
    part = _read(sf_dir, "part", columns=["p_partkey", "p_type"])
    joined = cogroup_join(
        per_part, part, "l_partkey", "p_partkey", ["revenue_cents", "n_items"], ["p_type"]
    )
    agg = (
        grouped_sums(joined, ["p_type"], ["revenue_cents", "n_items"])
        .to_pandas()
        .sort_values("p_type")
        .reset_index(drop=True)
    )
    total = int(agg["revenue_cents"].sum())
    agg["share_ppm"] = np.array(
        [int(c) * 1_000_000 // total for c in agg["revenue_cents"]], dtype=np.int64
    )
    import ray.data as rd

    return rd.from_pandas(agg)


PART_TYPE_REVENUE_SQL = """
WITH rev AS (
    SELECT l_partkey,
           CAST(SUM(CAST(FLOOR(l_extendedprice*(1.0-l_discount)*100 + 0.5) AS BIGINT)) AS BIGINT) AS cents,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM lineitem GROUP BY l_partkey
),
t AS (
    SELECT p.p_type,
           CAST(SUM(r.cents) AS BIGINT) AS revenue_cents,
           CAST(SUM(r.n) AS BIGINT) AS n_items
    FROM rev r JOIN part p ON p.p_partkey = r.l_partkey
    GROUP BY p.p_type
),
tot AS (SELECT SUM(revenue_cents) AS tc FROM t)
SELECT p_type, revenue_cents, n_items,
       CAST(CAST(revenue_cents AS HUGEINT) * 1000000 // (SELECT tc FROM tot) AS BIGINT) AS share_ppm
FROM t ORDER BY p_type
"""


def cdc_merge(changes_ds, key: str = "o_orderkey", version: str = "version",
              op: str = "op", n_buckets: int | None = None):
    """Generic lakehouse MERGE / CDC-upsert kernel: resolve a change log
    of upserts (``op='U'``) and delete tombstones (``op='D'``) to the
    latest surviving row per key — the Delta/Iceberg ``MERGE INTO`` /
    Hudi upsert shape (reference has no counterpart; this is a
    scale-path operator for maintaining 100 TB tables incrementally).

    Scale shape: ONE key-bucketed exchange (pandas' unsalted hash, the
    repo's join convention), then per-BUCKET vectorized resolution — a
    mergesort by (key, version) and a tail-per-key — so per-key Python
    cost is never paid. Rows per key meet in one group; hot keys are
    bounded by the change-log depth per key, not the corpus.

    Contract: versions are UNIQUE per key (the change log's commit
    sequence); duplicated (key, version) pairs RAISE rather than
    resolving by an arbitrary tie. Delete wins by carrying the higher
    version, exactly as in a real CDC stream.
    """
    from .common import _default_buckets

    nb = n_buckets or _default_buckets()

    def bucket(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__b"] = (
            pd.util.hash_array(batch[key].to_numpy()) % nb
        ).astype(np.int64)
        return batch

    def resolve(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([key, version], kind="mergesort")
        if g.duplicated([key, version]).any():
            dup = g[g.duplicated([key, version])].iloc[0]
            raise ValueError(
                f"cdc_merge: duplicate (key, version) = "
                f"({dup[key]}, {dup[version]}) — change-log versions "
                "must be unique per key"
            )
        last = g.groupby(key, sort=False).tail(1)
        keep = last[last[op] == "U"].drop(columns=["__b", op])
        return keep.reset_index(drop=True)

    return (
        changes_ds.map_batches(bucket, batch_format="pandas")
        .groupby("__b")
        .map_groups(resolve, batch_format="pandas")
    )


def orders_cdc_merge(sf_dir: str):
    """CDC merge over ``orders``: a deterministic change log rendered
    MAP-SIDE from each base row's key (the repo's overlay recipe — the
    log is never materialized or joined, and the DuckDB twin re-renders
    it analytically), resolved by :func:`cdc_merge`.

    The overlay exercises every merge class: plain base rows (version
    0), single updates (k%7), superseded double updates (k%14 — u2's
    version 2 must win over u1), update-then-DELETE (k%13==5, version 3
    — the tombstone outranks any update, so keys in both classes must
    vanish), inserts of previously-absent keys (k%11==3, shifted by
    10^12 above the base key range), insert-then-update (k%22==3), and
    ghost tombstones for keys never present (k%17==2, shifted 2·10^12 —
    a delete with nothing to delete emits nothing). Versions are
    distinct per key by construction. Output: the merged table
    (surviving latest row per key) with winning source + version.
    """
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])

    def emit_changes(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch["o_orderkey"].to_numpy().astype(np.int64)
        c = batch["o_custkey"].to_numpy().astype(np.int64)
        base_cents = cents(batch["o_totalprice"].to_numpy())
        parts = [
            pd.DataFrame(
                {"o_orderkey": k, "o_custkey": c, "price_cents": base_cents,
                 "src": "base", "version": np.int64(0), "op": "U"}
            )
        ]
        m = k % 7 == 0
        parts.append(pd.DataFrame(
            {"o_orderkey": k[m], "o_custkey": c[m],
             "price_cents": base_cents[m] + k[m] % 1000 + 1,
             "src": "u1", "version": np.int64(1), "op": "U"}))
        m = k % 14 == 0
        parts.append(pd.DataFrame(
            {"o_orderkey": k[m], "o_custkey": c[m],
             "price_cents": base_cents[m] + k[m] % 1000 + 2,
             "src": "u2", "version": np.int64(2), "op": "U"}))
        m = k % 13 == 5
        parts.append(pd.DataFrame(
            {"o_orderkey": k[m], "o_custkey": c[m],
             "price_cents": np.int64(0),
             "src": "del", "version": np.int64(3), "op": "D"}))
        m = k % 11 == 3
        parts.append(pd.DataFrame(
            {"o_orderkey": k[m] + 10**12, "o_custkey": k[m] % 1000,
             "price_cents": k[m] % 100000,
             "src": "ins", "version": np.int64(1), "op": "U"}))
        m = k % 22 == 3
        parts.append(pd.DataFrame(
            {"o_orderkey": k[m] + 10**12, "o_custkey": k[m] % 1000,
             "price_cents": k[m] % 100000 + 7,
             "src": "insu", "version": np.int64(2), "op": "U"}))
        m = k % 17 == 2
        parts.append(pd.DataFrame(
            {"o_orderkey": k[m] + 2 * 10**12, "o_custkey": np.int64(0),
             "price_cents": np.int64(0),
             "src": "ghost", "version": np.int64(1), "op": "D"}))
        out = pd.concat(parts, ignore_index=True)
        for col in ("o_orderkey", "o_custkey", "price_cents", "version"):
            out[col] = out[col].astype(np.int64)
        return out

    changes = orders.map_batches(emit_changes, batch_format="pandas")
    return cdc_merge(changes)


ORDERS_CDC_MERGE_SQL = """
WITH base AS (
    SELECT o_orderkey AS k, o_custkey AS c,
           CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT) AS cents
    FROM orders
),
changes AS (
    SELECT k, c, cents, 'base' AS src, CAST(0 AS BIGINT) AS version, 'U' AS op FROM base
    UNION ALL SELECT k, c, cents + k % 1000 + 1, 'u1', 1, 'U' FROM base WHERE k % 7 = 0
    UNION ALL SELECT k, c, cents + k % 1000 + 2, 'u2', 2, 'U' FROM base WHERE k % 14 = 0
    UNION ALL SELECT k, c, CAST(0 AS BIGINT), 'del', 3, 'D' FROM base WHERE k % 13 = 5
    UNION ALL SELECT k + 1000000000000, k % 1000, k % 100000, 'ins', 1, 'U' FROM base WHERE k % 11 = 3
    UNION ALL SELECT k + 1000000000000, k % 1000, k % 100000 + 7, 'insu', 2, 'U' FROM base WHERE k % 22 = 3
    UNION ALL SELECT k + 2000000000000, CAST(0 AS BIGINT), CAST(0 AS BIGINT), 'ghost', 1, 'D' FROM base WHERE k % 17 = 2
),
win AS (
    -- src DESC tie-break mirrors the Python path's contract that
    -- duplicate (k, version) pairs are an upstream error: with unique
    -- versions it is a no-op, and if duplicates ever appeared the twin
    -- would resolve them deterministically instead of by scan order
    SELECT * FROM changes
    QUALIFY ROW_NUMBER() OVER (PARTITION BY k ORDER BY version DESC, src DESC) = 1
)
SELECT k AS o_orderkey, c AS o_custkey, cents AS price_cents, src, version
FROM win WHERE op = 'U'
"""


ZONEMAP_PART_KEYS = 256


def orders_zonemap_scan(sf_dir: str):
    """Zone-map data skipping (the Iceberg/Delta manifest-stats shape):
    pass 1 builds per-partition min/max statistics (partition =
    ``o_orderkey // 256``, a physical-layout stand-in — orders lay out
    ordered by key, so key chunks model parquet row groups); pass 2
    consults the stats to PRUNE the scan before it starts, reading only
    surviving key ranges via a parquet filter (row-group pushdown) and
    applying the exact predicate in-batch.

    Two probes make the clustering dependence explicit: a key-range
    probe (clustered column — most partitions skip; the op RAISES if it
    didn't actually prune) and a 1997 date probe (uncorrelated column —
    the stats legitimately keep ~every partition; zone maps only skip
    what the layout clusters, which is why ``emb_zorder`` exists).
    Output per probe: partitions total/scanned, rows and revenue cents
    from the pruned scan — the DuckDB twin recomputes the same stats
    decision and the same aggregates over the FULL table, so twin
    equality proves the pruned scan lost nothing.

    Scale shape: the stats table is one row per partition (manifest-
    sized: ~1M rows for 100 TB at 128 MB row groups — a driver-side
    manifest, exactly like Iceberg's), built by per-batch partials +
    bucketed combine; each probe's scan is a pruned streaming read.
    """
    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import ray.data as rd

    from .common import bucketed_group_agg

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])

    def zm_partial(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch["o_orderkey"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "part": k // ZONEMAP_PART_KEYS,
                "mink": k,
                "maxk": k,
                "mind": batch["o_orderdate"].to_numpy(),
                "maxd": batch["o_orderdate"].to_numpy(),
                "n": np.int64(1),
            }
        )

    zm = bucketed_group_agg(
        ds.map_batches(zm_partial, batch_format="pandas"),
        ["part"],
        {"mink": "min", "maxk": "max", "mind": "min", "maxd": "max", "n": "sum"},
    ).to_pandas()

    max_key = int(zm["maxk"].max())
    lo, hi = max_key // 4, max_key // 2
    d1, d2 = np.datetime64("1997-01-01"), np.datetime64("1998-01-01")
    probes = {
        "key_range": (zm["maxk"].to_numpy() >= lo) & (zm["mink"].to_numpy() <= hi),
        "date_1997": (zm["maxd"].to_numpy() >= d1) & (zm["mind"].to_numpy() < d2),
    }
    if int(probes["key_range"].sum()) >= len(zm):
        raise RuntimeError(
            "zonemap key probe pruned nothing — the layout stand-in is broken"
        )

    def _ranges(parts: np.ndarray) -> list[tuple[int, int]]:
        # merge surviving partitions into minimal contiguous key ranges
        if len(parts) == 0:
            return []
        parts = np.sort(parts)
        cut = np.flatnonzero(np.diff(parts) > 1)
        starts = np.concatenate([[0], cut + 1])
        ends = np.concatenate([cut, [len(parts) - 1]])
        return [
            (int(parts[s]) * ZONEMAP_PART_KEYS,
             (int(parts[e]) + 1) * ZONEMAP_PART_KEYS - 1)
            for s, e in zip(starts, ends)
        ]

    rows = []
    for probe, mask in probes.items():
        ranges = _ranges(zm.loc[mask, "part"].to_numpy().astype(np.int64))
        n_scanned = int(mask.sum())
        if not ranges:
            rows.append((probe, len(zm), 0, 0, 0))
            continue
        f = None
        for a, b in ranges:
            expr = (pds.field("o_orderkey") >= a) & (pds.field("o_orderkey") <= b)
            f = expr if f is None else (f | expr)
        scan = _read(
            sf_dir, "orders",
            columns=["o_orderkey", "o_orderdate", "o_totalprice"], filter=f,
        )

        def agg(batch: pd.DataFrame, *, _probe=probe) -> pd.DataFrame:
            if _probe == "key_range":
                keep = (batch["o_orderkey"].to_numpy() >= lo) & (
                    batch["o_orderkey"].to_numpy() <= hi
                )
            else:
                d = batch["o_orderdate"].to_numpy()
                keep = (d >= d1) & (d < d2)
            c = cents(batch["o_totalprice"].to_numpy()[keep])
            return pd.DataFrame(
                {"rows_out": [np.int64(keep.sum())], "cents": [np.int64(c.sum())]}
            )

        part = scan.map_batches(agg, batch_format="pandas").to_pandas()
        rows.append(
            (probe, len(zm), n_scanned,
             int(part["rows_out"].sum()), int(part["cents"].sum()))
        )

    out = pd.DataFrame(
        rows,
        columns=["probe", "parts_total", "parts_scanned", "rows_out", "revenue_cents"],
    ).astype(
        {"parts_total": np.int64, "parts_scanned": np.int64,
         "rows_out": np.int64, "revenue_cents": np.int64}
    ).sort_values("probe").reset_index(drop=True)
    return rd.from_pandas(out)


ORDERS_ZONEMAP_SQL = f"""
WITH zm AS (
    SELECT o_orderkey // {ZONEMAP_PART_KEYS} AS part,
           MIN(o_orderkey) AS mink, MAX(o_orderkey) AS maxk,
           MIN(o_orderdate) AS mind, MAX(o_orderdate) AS maxd
    FROM orders GROUP BY 1
),
b AS (SELECT MAX(maxk) // 4 AS lo, MAX(maxk) // 2 AS hi, COUNT(*) AS total FROM zm),
kp AS (
    SELECT 'key_range' AS probe,
           CAST((SELECT total FROM b) AS BIGINT) AS parts_total,
           CAST((SELECT COUNT(*) FROM zm, b WHERE maxk >= lo AND mink <= hi) AS BIGINT)
               AS parts_scanned,
           CAST(COUNT(*) AS BIGINT) AS rows_out,
           CAST(COALESCE(SUM(CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT)), 0) AS BIGINT)
               AS revenue_cents
    FROM orders, b WHERE o_orderkey BETWEEN lo AND hi
),
dp AS (
    SELECT 'date_1997' AS probe,
           CAST((SELECT total FROM b) AS BIGINT) AS parts_total,
           CAST((SELECT COUNT(*) FROM zm
                 WHERE maxd >= TIMESTAMP '1997-01-01'
                   AND mind < TIMESTAMP '1998-01-01') AS BIGINT) AS parts_scanned,
           CAST(COUNT(*) AS BIGINT) AS rows_out,
           CAST(COALESCE(SUM(CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT)), 0) AS BIGINT)
               AS revenue_cents
    FROM orders
    WHERE o_orderdate >= TIMESTAMP '1997-01-01' AND o_orderdate < TIMESTAMP '1998-01-01'
)
SELECT * FROM kp UNION ALL SELECT * FROM dp ORDER BY probe
"""


def q7_nation_volume(sf_dir: str):
    """TPC-H Q7 generalized — bilateral shipping volume between every
    (supplier nation, customer nation) pair by ship year. The deepest
    join chain in the relational family, three hash-bucketed cogroup
    exchanges, each with the smaller honest side:

      1. customer (pruned to key + nation tag) ⋈ orders → per-order
         customer nation — big-big at TPC-H scale, so a cogroup join,
         never a broadcast;
      2. lineitem (pruned map-side to orderkey/suppkey/year/cents, the
         4 columns the query needs) ⋈ supplier → supplier nation;
      3. the two tagged streams meet on orderkey;

    then a tiny (nation × nation × year) bucketed rollup. The 25-row
    ``nation`` table is the only broadcast (``ray.put`` once, a dict
    lookup in every tag task — fixed-size at any corpus scale)."""
    from .common import cogroup_join

    nation = _read(sf_dir, "nation", columns=["n_nationkey", "n_name"]).to_pandas()
    nmap_ref = broadcast(dict(zip(nation["n_nationkey"], nation["n_name"])))

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def tag_cust(batch: pd.DataFrame, *, _ref=nmap_ref) -> pd.DataFrame:
        import ray

        nmap = ray.get(_ref) if not isinstance(_ref, dict) else _ref
        return pd.DataFrame(
            {
                "c_custkey": batch["c_custkey"].to_numpy(np.int64),
                "cust_nation": batch["c_nationkey"].map(nmap),
            }
        )

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    ord_tagged = cogroup_join(
        orders,
        cust.map_batches(tag_cust, batch_format="pandas"),
        "o_custkey",
        "c_custkey",
        ["o_orderkey"],
        ["cust_nation"],
    )

    supp = _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])

    def tag_supp(batch: pd.DataFrame, *, _ref=nmap_ref) -> pd.DataFrame:
        import ray

        nmap = ray.get(_ref) if not isinstance(_ref, dict) else _ref
        return pd.DataFrame(
            {
                "s_suppkey": batch["s_suppkey"].to_numpy(np.int64),
                "supp_nation": batch["s_nationkey"].map(nmap),
            }
        )

    li = _read(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def li_proj(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_orderkey": batch["l_orderkey"].to_numpy(np.int64),
                "l_suppkey": batch["l_suppkey"].to_numpy(np.int64),
                "l_year": batch["l_shipdate"].to_numpy().astype("datetime64[Y]")
                .astype(np.int64) + 1970,
                "revenue_cents": cents(
                    batch["l_extendedprice"].to_numpy()
                    * (1.0 - batch["l_discount"].to_numpy())
                ),
            }
        )

    li_tagged = cogroup_join(
        li.map_batches(li_proj, batch_format="pandas"),
        supp.map_batches(tag_supp, batch_format="pandas"),
        "l_suppkey",
        "s_suppkey",
        ["l_orderkey", "l_year", "revenue_cents"],
        ["supp_nation"],
    )

    both = cogroup_join(
        li_tagged,
        ord_tagged,
        "l_orderkey",
        "o_orderkey",
        ["supp_nation", "l_year", "revenue_cents"],
        ["cust_nation"],
    )
    agg = grouped_sums(
        both, ["supp_nation", "cust_nation", "l_year"], ["revenue_cents"],
        count_alias="n_items",
    )

    def fin(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.astype(
            {"l_year": np.int64, "revenue_cents": np.int64, "n_items": np.int64}
        )

    return agg.map_batches(fin, batch_format="pandas").sort(
        ["supp_nation", "cust_nation", "l_year"]
    )


Q7_SQL = """
SELECT s.supp_nation, c.cust_nation, s.l_year,
       CAST(SUM(s.cents) AS BIGINT) AS revenue_cents,
       CAST(COUNT(*) AS BIGINT) AS n_items
FROM (
    SELECT l.l_orderkey, n.n_name AS supp_nation,
           CAST(EXTRACT(year FROM l.l_shipdate) AS BIGINT) AS l_year,
           CAST(FLOOR(l.l_extendedprice*(1.0-l.l_discount)*100 + 0.5) AS BIGINT) AS cents
    FROM lineitem l
    JOIN supplier sp ON sp.s_suppkey = l.l_suppkey
    JOIN nation n ON n.n_nationkey = sp.s_nationkey
) s
JOIN (
    SELECT o.o_orderkey, n.n_name AS cust_nation
    FROM orders o
    JOIN customer cu ON cu.c_custkey = o.o_custkey
    JOIN nation n ON n.n_nationkey = cu.c_nationkey
) c ON c.o_orderkey = s.l_orderkey
GROUP BY s.supp_nation, c.cust_nation, s.l_year
ORDER BY s.supp_nation, c.cust_nation, s.l_year
"""


def q13_custdist(sf_dir: str):
    """TPC-H Q13 — the distribution of orders-per-customer INCLUDING
    zero-order customers: the canonical left-outer-join shape.
    Scale shape: orders pre-aggregate to (custkey, n) BEFORE the join
    (corpus never enters the exchange), then ONE left cogroup join from
    customer, unmatched rows count as 0, and the final histogram is a
    count-of-counts rollup (bounded by the hottest customer, not the
    customer count)."""
    from .common import bucketed_group_agg, cogroup_join

    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def ord_partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["o_custkey"].value_counts()
        return pd.DataFrame({"k": vc.index.to_numpy(np.int64),
                             "n": vc.to_numpy(np.int64)})

    per_cust = bucketed_group_agg(
        orders.map_batches(ord_partial, batch_format="pandas"), ["k"], {"n": "sum"}
    )
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    joined = cogroup_join(cust, per_cust, "c_custkey", "k", ["c_custkey"], ["n"],
                          how="left")

    def hist_partial(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch["n"].fillna(0).to_numpy(np.int64)
        vc = pd.Series(n).value_counts()
        return pd.DataFrame({"c_count": vc.index.to_numpy(np.int64),
                             "custdist": vc.to_numpy(np.int64)})

    hist = bucketed_group_agg(
        joined.map_batches(hist_partial, batch_format="pandas"),
        ["c_count"], {"custdist": "sum"},
    )

    def fin(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.astype({"c_count": np.int64, "custdist": np.int64})

    return hist.map_batches(fin, batch_format="pandas").sort(
        ["custdist", "c_count"], descending=[True, True]
    )


Q13_SQL = """
WITH c_orders AS (
    SELECT c.c_custkey, CAST(COUNT(o.o_orderkey) AS BIGINT) AS c_count
    FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
    GROUP BY c.c_custkey
)
SELECT c_count, CAST(COUNT(*) AS BIGINT) AS custdist
FROM c_orders
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
"""


RI_PAIRS = (
    # (child table, child key, parent table, parent key)
    ("orders", "o_custkey", "customer", "c_custkey"),
    ("lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ("events", "user_id", "customer", "c_custkey"),
)


def referential_integrity(sf_dir: str):
    """Cross-table referential-integrity audit — the ingest validation
    pass that counts foreign-key orphans for every declared (child →
    parent) edge: rows total, DISTINCT child keys, orphan keys (no
    parent row) and orphan rows. Each edge costs one pre-aggregation of
    the child (corpus reduces to key cardinality before anything moves)
    + one hash-bucketed ANTI cogroup join against the pruned parent key
    column; the rollup row per edge is driver-sized."""
    from .common import bucketed_group_agg, cogroup_join

    rows = []
    for child, ckey, parent, pkey in RI_PAIRS:
        ch = _read(sf_dir, child, columns=[ckey])

        def key_partial(batch: pd.DataFrame, *, _k=ckey) -> pd.DataFrame:
            vc = batch[_k].value_counts()
            return pd.DataFrame({"k": vc.index.to_numpy(np.int64),
                                 "n": vc.to_numpy(np.int64)})

        per_key = bucketed_group_agg(
            ch.map_batches(key_partial, batch_format="pandas"), ["k"], {"n": "sum"}
        ).materialize()
        pa_ds = _read(sf_dir, parent, columns=[pkey])
        orphans = cogroup_join(per_key, pa_ds, "k", pkey, ["k", "n"], [], how="anti")

        def orphan_partial(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"keys": [np.int64(len(batch))],
                 "rows": [np.int64(batch["n"].sum())]}
            )

        op = orphans.map_batches(orphan_partial, batch_format="pandas").to_pandas()
        totals = per_key.map_batches(orphan_partial, batch_format="pandas").to_pandas()

        def _tot(df: pd.DataFrame, col: str) -> int:
            # an all-orphan-free edge yields ZERO blocks → a columnless frame
            return int(df[col].sum()) if col in df.columns else 0

        rows.append(
            (f"{child}.{ckey}", f"{parent}.{pkey}",
             _tot(totals, "rows"), _tot(totals, "keys"),
             _tot(op, "keys"), _tot(op, "rows"))
        )
    out = pd.DataFrame(
        rows,
        columns=["child", "parent", "child_rows", "child_keys",
                 "orphan_keys", "orphan_rows"],
    )
    for c in ("child_rows", "child_keys", "orphan_keys", "orphan_rows"):
        out[c] = out[c].astype(np.int64)
    out = out.sort_values(["child", "parent"]).reset_index(drop=True)
    import ray.data as rd

    return rd.from_pandas(out)


REFERENTIAL_INTEGRITY_SQL = "\nUNION ALL\n".join(
    f"""SELECT '{child}.{ckey}' AS child, '{parent}.{pkey}' AS parent,
       CAST(COUNT(*) AS BIGINT) AS child_rows,
       CAST(COUNT(DISTINCT {ckey}) AS BIGINT) AS child_keys,
       CAST(COUNT(DISTINCT {ckey}) FILTER (
            WHERE NOT EXISTS (SELECT 1 FROM {parent} p WHERE p.{pkey} = c.{ckey})
       ) AS BIGINT) AS orphan_keys,
       CAST(COUNT(*) FILTER (
            WHERE NOT EXISTS (SELECT 1 FROM {parent} p WHERE p.{pkey} = c.{ckey})
       ) AS BIGINT) AS orphan_rows
FROM {child} c"""
    for child, ckey, parent, pkey in RI_PAIRS
) + "\nORDER BY child, parent"


def orders_snapshot_diff(sf_dir: str):
    """Table-version diff — the audit pass after a CDC merge: classify
    every key across (base = orders, next = ``orders_cdc_merge`` output)
    as added / removed / changed / same and count each class, plus the
    changed-rows breakdown by which column moved. ONE key-bucketed
    exchange of narrow tagged rows (key, custkey, cents, side); both
    versions of a key meet in one bucket, classification is vectorized
    in-bucket, and only class-cardinality partials leave it."""
    import ray.data as rd

    from .common import bucketed_group_agg

    base = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])

    def base_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "k": batch["o_orderkey"].to_numpy(np.int64),
                "c": batch["o_custkey"].to_numpy(np.int64),
                "cents": cents(batch["o_totalprice"].to_numpy()),
                "side": np.int64(0),
            }
        )

    merged = orders_cdc_merge(sf_dir)

    def next_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "k": batch["o_orderkey"].to_numpy(np.int64),
                "c": batch["o_custkey"].to_numpy(np.int64),
                "cents": batch["price_cents"].to_numpy(np.int64),
                "side": np.int64(1),
            }
        )

    u = base.map_batches(base_rows, batch_format="pandas").union(
        merged.map_batches(next_rows, batch_format="pandas")
    )
    nb = 64

    def bucket(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__b"] = (pd.util.hash_array(batch["k"].to_numpy(np.int64)) % nb).astype(
            np.int64
        )
        return batch

    def classify(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["k", "side"], kind="mergesort")
        k = g["k"].to_numpy(np.int64)
        side = g["side"].to_numpy(np.int64)
        c = g["c"].to_numpy(np.int64)
        cc = g["cents"].to_numpy(np.int64)
        first = np.concatenate([[True], k[1:] != k[:-1]])
        last = np.concatenate([k[1:] != k[:-1], [True]])
        both = first & ~last  # key has 2 rows: base then next
        out = {"added": 0, "removed": 0, "changed": 0, "same": 0,
               "changed_price": 0, "changed_cust": 0}
        solo = first & last
        out["removed"] = int((solo & (side == 0)).sum())
        out["added"] = int((solo & (side == 1)).sum())
        bi = np.flatnonzero(both)
        if len(bi):
            price_moved = cc[bi] != cc[bi + 1]
            cust_moved = c[bi] != c[bi + 1]
            ch = price_moved | cust_moved
            out["changed"] = int(ch.sum())
            out["same"] = int((~ch).sum())
            out["changed_price"] = int(price_moved.sum())
            out["changed_cust"] = int(cust_moved.sum())
        return pd.DataFrame(
            {"change": list(out), "n_keys": np.array(list(out.values()), np.int64)}
        )

    agg = bucketed_group_agg(
        u.map_batches(bucket, batch_format="pandas")
        .groupby("__b")
        .map_groups(classify, batch_format="pandas"),
        ["change"],
        {"n_keys": "sum"},
    )

    def fin(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.astype({"n_keys": np.int64})

    return agg.map_batches(fin, batch_format="pandas").sort("change")


ORDERS_SNAPSHOT_DIFF_SQL = f"""
WITH nxt AS ({ORDERS_CDC_MERGE_SQL.rstrip()}),
base AS (
    SELECT o_orderkey AS k, o_custkey AS c,
           CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT) AS cents
    FROM orders
),
j AS (
    SELECT COALESCE(b.k, n.o_orderkey) AS k,
           b.k IS NOT NULL AS in_base, n.o_orderkey IS NOT NULL AS in_next,
           b.c AS bc, b.cents AS bcents, n.o_custkey AS nc, n.price_cents AS ncents
    FROM base b FULL OUTER JOIN nxt n ON n.o_orderkey = b.k
)
SELECT change, CAST(COUNT(*) FILTER (WHERE fits) AS BIGINT) AS n_keys
FROM j, (VALUES ('added'), ('removed'), ('changed'), ('same'),
                ('changed_price'), ('changed_cust')) cls(change),
LATERAL (SELECT CASE change
    WHEN 'added' THEN NOT in_base
    WHEN 'removed' THEN NOT in_next
    WHEN 'changed' THEN in_base AND in_next AND (bc <> nc OR bcents <> ncents)
    WHEN 'same' THEN in_base AND in_next AND bc = nc AND bcents = ncents
    WHEN 'changed_price' THEN in_base AND in_next AND bcents <> ncents
    WHEN 'changed_cust' THEN in_base AND in_next AND bc <> nc
    END AS fits) f
GROUP BY change
ORDER BY change
"""


RANGE_PARTS = 8


def orders_range_partition(sf_dir: str, n_parts: int = RANGE_PARTS):
    """Balanced RANGE partitioner — the planning step before a sorted /
    clustered write (Spark's range partitioner, Iceberg's sort order):
    exact equi-depth boundaries of the price column from the distributed
    counting-selection kernel (NO global sort — the point), then one
    assignment pass counting rows per range. Ranges are
    ``(-inf, b1], (b1, b2], …, (b_{k-1}, +inf)``; ties on a boundary
    value all land in the boundary's range, so a heavily tied domain can
    legitimately imbalance a range — the output reports the realized
    balance (min/max rows per range) rather than asserting an
    impossible bound. One narrow column read ×(≤3 histogram passes + 1
    assignment pass); the boundary list (k-1 ints) is the only driver
    state."""
    import ray.data as rd

    from .common import grouped_sums

    qs = [i * 1_000_000 // n_parts for i in range(1, n_parts)]
    orders = _read(sf_dir, "orders", columns=["o_totalprice"])
    cds = orders.map_batches(
        lambda b: pd.DataFrame({"c": cents(b["o_totalprice"].to_numpy())}),
        batch_format="pandas",
    ).materialize()
    _n, rows = exact_quantiles_int(cds, "c", tuple(qs))
    bounds = np.array([v for _, _, v in rows], dtype=np.int64)

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        part = np.searchsorted(bounds, batch["c"].to_numpy(np.int64), side="left")
        df = pd.DataFrame({"part": part.astype(np.int64), "n_rows": np.int64(1)})
        return df.groupby("part", as_index=False, sort=False).sum()

    agg = grouped_sums(
        cds.map_batches(assign, batch_format="pandas"), ["part"], ["n_rows"]
    ).to_pandas().sort_values("part").reset_index(drop=True)
    out = pd.DataFrame(
        {
            "part": agg["part"].astype(np.int64),
            "lo_cents": np.concatenate([[np.iinfo(np.int64).min], bounds])[
                agg["part"].to_numpy(np.int64)
            ],
            "hi_cents": np.concatenate([bounds, [np.iinfo(np.int64).max]])[
                agg["part"].to_numpy(np.int64)
            ],
            "n_rows": agg["n_rows"].astype(np.int64),
        }
    )
    return rd.from_pandas(out)


ORDERS_RANGE_PARTITION_SQL = f"""
WITH v AS (SELECT CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT) AS c FROM orders),
r AS (SELECT c, ROW_NUMBER() OVER (ORDER BY c) AS rn, COUNT(*) OVER () AS n FROM v),
q AS (SELECT * FROM (VALUES {", ".join(f"({i * 1_000_000 // RANGE_PARTS})" for i in range(1, RANGE_PARTS))}) t(q_ppm)),
bounds AS (
    SELECT q.q_ppm, MIN(r.c) AS b
    FROM q JOIN r ON r.rn = CAST(CEIL(q.q_ppm / 1000000.0 * r.n) AS BIGINT)
    GROUP BY q.q_ppm
),
blist AS (SELECT list_sort(list(b)) AS bs FROM bounds),
assigned AS (
    SELECT c,
           (SELECT COUNT(*) FROM unnest((SELECT bs FROM blist)) u(b) WHERE b < c) AS part
    FROM v
)
SELECT CAST(part AS BIGINT) AS part,
       CAST(CASE WHEN part = 0 THEN {np.iinfo(np.int64).min}
                 ELSE (SELECT bs FROM blist)[CAST(part AS INT)] END AS BIGINT) AS lo_cents,
       CAST(CASE WHEN part = {RANGE_PARTS - 1} THEN {np.iinfo(np.int64).max}
                 ELSE (SELECT bs FROM blist)[CAST(part + 1 AS INT)] END AS BIGINT) AS hi_cents,
       CAST(COUNT(*) AS BIGINT) AS n_rows
FROM assigned
GROUP BY part
ORDER BY part
"""


BASKET_TOPK = 20


def lineitem_basket_pairs(sf_dir: str, k: int = BASKET_TOPK):
    """Market-basket co-occurrence — the top-k part-TYPE pairs that
    appear in the same order (the A-priori first pass / co-purchase
    graph edge weights): lineitem joins ``part`` for the type tag
    (big-big cogroup — ``part`` scales with the corpus), one
    orderkey-bucketed exchange co-locates each basket, the DISTINCT
    per-order types expand to C(m,2) unordered pairs IN-BUCKET
    (vectorized triu over each basket's type ids; baskets are small by
    construction — the A-priori blow-up is bounded by basket size, not
    corpus), and pair counts flow through the bucketed combine into a
    deterministic top-k (count DESC, pair ASC)."""
    import ray.data as rd

    from .common import bucketed_group_agg, cogroup_join

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    part = _read(sf_dir, "part", columns=["p_partkey", "p_type"])
    tagged = cogroup_join(
        li, part, "l_partkey", "p_partkey", ["l_orderkey"], ["p_type"]
    )

    nb = 64

    def bucket(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.assign(
            __b=(pd.util.hash_array(batch["l_orderkey"].to_numpy()) % nb).astype(np.int64)
        )

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["l_orderkey", "p_type"]).sort_values(
            ["l_orderkey", "p_type"], kind="mergesort"
        )
        okey = g["l_orderkey"].to_numpy()
        types = g["p_type"].to_numpy(object)
        bounds = np.concatenate(
            [[0], np.flatnonzero(okey[1:] != okey[:-1]) + 1, [len(okey)]]
        )
        a_out, b_out = [], []
        for i in range(len(bounds) - 1):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            m = hi - lo
            if m < 2:
                continue
            iu, ju = np.triu_indices(m, k=1)
            a_out.append(types[lo:hi][iu])
            b_out.append(types[lo:hi][ju])
        if not a_out:
            return pd.DataFrame(
                {"type_a": pd.Series(dtype=object),
                 "type_b": pd.Series(dtype=object),
                 "n_orders": pd.Series(dtype=np.int64)}
            )
        df = pd.DataFrame(
            {"type_a": np.concatenate(a_out), "type_b": np.concatenate(b_out),
             "n_orders": np.int64(1)}
        )
        return df.groupby(["type_a", "type_b"], as_index=False, sort=False).sum()

    counted = bucketed_group_agg(
        tagged.map_batches(bucket, batch_format="pandas")
        .groupby("__b")
        .map_groups(pairs, batch_format="pandas"),
        ["type_a", "type_b"],
        {"n_orders": "sum"},
    )

    def block_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(
            ["n_orders", "type_a", "type_b"], ascending=[False, True, True],
            kind="mergesort",
        ).head(k).reset_index(drop=True)

    top = (
        counted.map_batches(block_topk, batch_format="pandas")
        .repartition(1)
        .map_batches(block_topk, batch_format="pandas")
        .map_batches(
            lambda b: b.assign(
                n_orders=b["n_orders"].astype(np.int64),
                rank=np.arange(1, len(b) + 1, dtype=np.int64),
            ),
            batch_format="pandas",
        )
    )
    return top


LINEITEM_BASKET_SQL = f"""
WITH t AS (
    SELECT DISTINCT l.l_orderkey, p.p_type
    FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
),
pairs AS (
    SELECT a.p_type AS type_a, b.p_type AS type_b,
           CAST(COUNT(*) AS BIGINT) AS n_orders
    FROM t a JOIN t b
      ON b.l_orderkey = a.l_orderkey AND a.p_type < b.p_type
    GROUP BY a.p_type, b.p_type
)
SELECT type_a, type_b, n_orders,
       CAST(ROW_NUMBER() OVER (ORDER BY n_orders DESC, type_a, type_b) AS BIGINT)
           AS rank
FROM pairs
ORDER BY n_orders DESC, type_a, type_b
LIMIT {BASKET_TOPK}
"""


def q4_priority_semi(sf_dir: str, returnflag: str = "R"):
    """TPC-H Q4 adapted — per-priority count of orders with AT LEAST ONE
    returned lineitem: the distributed EXISTS through the cogroup
    ``how="semi"`` mode. The corpus-sized probe reduces FIRST: lineitem
    prunes to the returned rows at the READ (row-group filter pushdown)
    and dedups orderkeys per batch map-side, so the semi probe's
    exchange moves APPROXIMATELY one row per qualifying order (an
    order's returned rows that span batches each survive their own
    batch's dedup — harmless for the semi join, which ignores
    multiplicity, and bounded by the order's batch-span); the rollup is
    priority-cardinality."""
    import pyarrow.dataset as pds

    from .common import bucketed_group_agg, cogroup_join

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    li = _read(
        sf_dir, "lineitem", columns=["l_orderkey"],
        filter=(pds.field("l_returnflag") == returnflag),
    ).map_batches(
        lambda b: b.drop_duplicates(["l_orderkey"]), batch_format="pandas"
    )
    hit = cogroup_join(
        orders, li, "o_orderkey", "l_orderkey",
        ["o_orderpriority"], [], how="semi",
    )

    def part(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["o_orderpriority"].value_counts()
        return pd.DataFrame({"o_orderpriority": vc.index.to_numpy(object),
                             "n_orders": vc.to_numpy(np.int64)})

    agg = bucketed_group_agg(
        hit.map_batches(part, batch_format="pandas"),
        ["o_orderpriority"], {"n_orders": "sum"},
    )

    def fin(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.astype({"n_orders": np.int64})

    return agg.map_batches(fin, batch_format="pandas").sort("o_orderpriority")


Q4_SEMI_SQL = """
SELECT o.o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_orders
FROM orders o
WHERE EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey AND l.l_returnflag = 'R')
GROUP BY o.o_orderpriority
ORDER BY o.o_orderpriority
"""


DUP_PAY_WINDOW_DAYS = 7


def orders_duplicate_payments(sf_dir: str, window_days: int = DUP_PAY_WINDOW_DAYS):
    """Duplicate-payment detection — the fraud/ingest-glitch audit: pairs
    of orders by the SAME customer for the SAME amount within
    ``window_days`` of each other, rolled up per customer (pair count +
    the tightest gap). Synthetic amounts are ~unique per customer, so a
    deterministic overlay (the repo's surrogate recipe) plants clone
    payments for ``o_orderkey % 19 == 4`` at ``key % 10`` days offset —
    offsets 0-7 qualify, 8-9 straddle OUTSIDE the window, so both
    branches of the window predicate carry rows and the twin re-renders
    the overlay analytically.

    Shape: a composite-equality + time-window self-join — rows co-locate
    by the exact (custkey, cents) key in one hash-bucketed exchange
    (equality keys cut candidates before any window logic — cheaper than
    the pure range join's time-only bucketing), and each key group
    resolves its window pairs with one vectorized sorted scan (counts
    via searchsorted bounds — no O(m²) pair materialization; the
    emitted rollup is customer-cardinality)."""
    import ray.data as rd

    from .common import bucketed_group_agg

    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"]
    )
    win_us = window_days * 86_400_000_000

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch["o_orderkey"].to_numpy(np.int64)
        c = cents(batch["o_totalprice"].to_numpy())
        cu = batch["o_custkey"].to_numpy(np.int64)
        t = batch["o_orderdate"].to_numpy().astype("datetime64[us]").astype(np.int64)
        m = k % 19 == 4
        out = pd.DataFrame(
            {
                "cust": np.concatenate([cu, cu[m]]),
                "cents": np.concatenate([c, c[m]]),
                "t_us": np.concatenate([t, t[m] + (k[m] % 10) * 86_400_000_000]),
            }
        )
        out["__b"] = (
            pd.util.hash_pandas_object(out[["cust", "cents"]], index=False)
            .to_numpy() % 64
        ).astype(np.int64)
        return out

    def solve(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["cust", "cents", "t_us"], kind="mergesort")
        cust = g["cust"].to_numpy(np.int64)
        cen = g["cents"].to_numpy(np.int64)
        t = g["t_us"].to_numpy(np.int64)
        key_change = np.flatnonzero((cust[1:] != cust[:-1]) | (cen[1:] != cen[:-1])) + 1
        bounds = np.concatenate([[0], key_change, [len(g)]])
        out_c, out_p, out_gap = [], [], []
        for i in range(len(bounds) - 1):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            m = hi - lo
            if m < 2:
                continue
            ts = t[lo:hi]
            # pairs (i<j) with ts[j]-ts[i] <= win: per i, count js in
            # (i, hi_idx] via ONE searchsorted over the sorted times
            hi_idx = np.searchsorted(ts, ts + win_us, side="right")
            n_pairs = int((hi_idx - np.arange(1, m + 1)).clip(min=0).sum())
            if n_pairs == 0:
                continue
            gaps = np.diff(ts)
            out_c.append(cust[lo])
            out_p.append(n_pairs)
            out_gap.append(int(gaps.min()) if len(gaps) else 0)
        if not out_c:
            return pd.DataFrame(
                {"o_custkey": pd.Series(dtype=np.int64),
                 "n_dup_pairs": pd.Series(dtype=np.int64),
                 "min_gap_days": pd.Series(dtype=np.int64)}
            )
        return pd.DataFrame(
            {
                "o_custkey": np.array(out_c, np.int64),
                "n_dup_pairs": np.array(out_p, np.int64),
                "min_gap_days": np.array(out_gap, np.int64) // 86_400_000_000,
            }
        )

    per_key = (
        orders.map_batches(tag, batch_format="pandas")
        .groupby("__b")
        .map_groups(solve, batch_format="pandas")
    )
    agg = bucketed_group_agg(
        per_key, ["o_custkey"], {"n_dup_pairs": "sum", "min_gap_days": "min"}
    )

    def fin(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.astype(
            {"o_custkey": np.int64, "n_dup_pairs": np.int64, "min_gap_days": np.int64}
        )

    return agg.map_batches(fin, batch_format="pandas").sort("o_custkey")


ORDERS_DUP_PAY_SQL = f"""
WITH base AS (
    SELECT o_orderkey, o_custkey,
           CAST(FLOOR(o_totalprice*100 + 0.5) AS BIGINT) AS cents,
           o_orderdate AS d
    FROM orders
),
o AS (
    SELECT o_orderkey, o_custkey, cents, d FROM base
    UNION ALL
    SELECT o_orderkey + 1000000000000, o_custkey, cents,
           d + to_days(CAST(o_orderkey % 10 AS INT))
    FROM base WHERE o_orderkey % 19 = 4
),
pairs AS (
    SELECT a.o_custkey,
           abs(epoch_us(b.d) - epoch_us(a.d)) // 86400000000 AS gap_days
    FROM o a JOIN o b
      ON b.o_custkey = a.o_custkey AND b.cents = a.cents
     AND b.o_orderkey > a.o_orderkey
     AND abs(epoch_us(b.d) - epoch_us(a.d)) <= {DUP_PAY_WINDOW_DAYS} * 86400000000
)
SELECT o_custkey,
       CAST(COUNT(*) AS BIGINT) AS n_dup_pairs,
       CAST(MIN(gap_days) AS BIGINT) AS min_gap_days
FROM pairs
GROUP BY o_custkey
ORDER BY o_custkey
"""
