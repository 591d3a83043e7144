"""Transcript-corpus conversation ops: per-conversation digests, tails,
packing and rollups over RESTORED turn order.

The north rule's per-row invariant is per-turn text equality UNDER STABLE
TURN ORDERING — the synthesizer writes rows deliberately shuffled, so any
pipeline that silently loses the (conv_id, turn_idx) restore emits wrong
bytes. ``transcript_hygiene`` pins that property in its recorded result with
an ORDER-SENSITIVE conversation digest: md5 over the role-initial sequence
in turn order. A single transposed turn anywhere in the corpus flips its
conversation's hash, and the DuckDB twin (``string_agg(... ORDER BY
turn_idx)``) recomputes the same digest independently, so the engine's
shuffle-then-restore is hash-checked end to end.

Distributed shape, shared by every op here that needs a conversation's
turns together: ONE conversation exchange (``stages.fold.conv_exchange``)
— Ray tasks that range-partition the pruned columns by conv_id and run
the op's frame once per range on its Arrow table, with vectorized
boundary-slice aggregation over the shared slicer's runs
(``stages.fold.conv_runs``) inside it. The ranges come out in conv_id
order, so conversation-keyed outputs need no sort, and bounded rollups (role transitions, per-tool
moments) sum their per-range partials in the calling process, fetched by
their object refs. The dedup ops and ``tool_latency`` chain further
ordered key exchanges (``stages.fold.key_exchange``) on the fold outputs'
object refs — by digest, LSH band, pair, doc_id or tool family — and
``extract_rate`` runs one map task per file group. So no op here runs a
Ray Data groupby, sort, repartition or read; a Dataset is only built
over the finished result.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.fold import conv_runs, key_codes, ordered_column, run_continues, turn_texts


def _ts_us(group: pa.Table, order: np.ndarray) -> np.ndarray:
    """The ``ts`` column as int64 microseconds, in ``order``."""
    return ordered_column(group, "ts", order).astype("datetime64[us]").astype(np.int64)


def conv_hygiene_frame(group: pa.Table) -> pd.DataFrame:
    """Per-conversation structural stats for one co-located partition.

    All columns are vectorized over the partition's (conv, turn_idx)
    sort; the only per-conversation Python is the role-initial join that
    feeds the order-sensitive digest."""
    from .text import _md5_hash15_str

    order, bounds, (conv_ids,) = conv_runs(group)
    rl, t = ordered_column(group, "role", order), _ts_us(group, order)
    is_tool = (rl == "tool").astype(np.int64)
    initials = np.array([r[0] for r in rl], dtype=object)

    n = len(bounds) - 1
    seqs = np.empty(n, dtype=object)
    n_turns = np.empty(n, dtype=np.int64)
    n_tool = np.empty(n, dtype=np.int64)
    span = np.empty(n, dtype=np.int64)
    for i in range(n):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        seqs[i] = "".join(initials[lo:hi])
        n_turns[i] = hi - lo
        n_tool[i] = int(is_tool[lo:hi].sum())
        span[i] = int(t[lo:hi].max() - t[lo:hi].min())
    return pd.DataFrame(
        {
            "conv_id": conv_ids,
            "n_turns": n_turns,
            "n_tool_turns": n_tool,
            "role_seq_hash": _md5_hash15_str(seqs, ""),
            "ts_span_us": span,
        }
    )


def transcript_hygiene(path: str):
    """Order-sensitive per-conversation hygiene digest over a transcript
    Parquet directory → Dataset(conv_id, n_turns, n_tool_turns,
    role_seq_hash, ts_span_us), sorted by conv_id."""
    from ..stages.fold import conv_exchange

    return conv_exchange(path, ["conv_id", "turn_idx", "role", "ts"], conv_hygiene_frame)


def transcript_hygiene_sql(path: str) -> str:
    """DuckDB twin over the same Parquet files: the ordered
    ``string_agg`` digest recomputed without any Ray machinery."""
    return f"""
WITH t AS (
    SELECT conv_id, turn_idx, role, ts FROM read_parquet('{path}/*.parquet')
),
per AS (
    SELECT conv_id,
           COUNT(*) AS n_turns,
           SUM(CASE WHEN role = 'tool' THEN 1 ELSE 0 END) AS n_tool_turns,
           ('0x' || substr(md5(string_agg(substr(role, 1, 1), '' ORDER BY turn_idx)), 1, 15))::BIGINT
               AS role_seq_hash,
           epoch_us(MAX(ts)) - epoch_us(MIN(ts)) AS ts_span_us
    FROM t GROUP BY conv_id
)
SELECT conv_id, CAST(n_turns AS BIGINT) AS n_turns,
       CAST(n_tool_turns AS BIGINT) AS n_tool_turns,
       CAST(role_seq_hash AS BIGINT) AS role_seq_hash,
       CAST(ts_span_us AS BIGINT) AS ts_span_us
FROM per ORDER BY conv_id
"""


def _md5_seq_hash(seq: str) -> int:
    """Reference single-string digest (tests): first 15 hex of md5."""
    return int(hashlib.md5(seq.encode("utf-8")).hexdigest()[:15], 16)


# ---------------------------------------------------------------------------
# conversation-level exact dedup (order-sensitive full-transcript digest)


def turn_digest_batch(batch):
    """Map-side per-turn md5 hex — the 100 TB payload reduction: the
    conversation exchange then carries 32-byte digests instead of the
    text corpus (exchange volume drops by the corpus/digest size
    ratio). Arrow in, Arrow out, so the shard map never builds pandas
    blocks of the text."""
    texts = batch.column("text").to_pylist()
    digests = pa.array(
        [hashlib.md5(("" if t is None else t).encode("utf-8")).hexdigest() for t in texts],
        pa.string(),
    )
    return pa.table(
        {
            "conv_id": batch.column("conv_id"),
            "turn_idx": batch.column("turn_idx"),
            "turn_md5": digests,
        }
    )


def conv_digest_frame(group: pa.Table) -> pd.DataFrame:
    """Per-conversation content digest for one co-located partition:
    the 128-bit md5 hex over the CONCATENATED per-turn md5 hexes in
    turn order (fixed-width components, so no separator is needed and
    the encoding is injective). A string digest on purpose: the
    birthday budget. Even a full 64-bit int key expects ~n²/2^65 ≈ 3·10^4
    colliding pairs at the 10^12-conversation scale this op targets,
    while 128 bits expect none. Two conversations collide only if their
    full turn sequences are byte-identical (up to md5 collisions).
    DuckDB mirror: ``md5(string_agg(md5(text), '' ORDER BY
    turn_idx))``."""
    order, bounds, (conv_ids,) = conv_runs(group)
    tx = ordered_column(group, "turn_md5", order)
    n = len(bounds) - 1
    digests = np.empty(n, dtype=object)
    n_turns = np.empty(n, dtype=np.int64)
    for i in range(n):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        digests[i] = hashlib.md5("".join(tx[lo:hi]).encode("ascii")).hexdigest()
        n_turns[i] = hi - lo
    return pd.DataFrame(
        {
            "conv_id": conv_ids,
            "conv_digest": digests,
            "n_turns": n_turns,
        }
    )


def conv_dup_label_frame(group: pa.Table) -> pd.DataFrame:
    """Representative (minimum conv_id) and duplicate flag per conversation
    for one digest range: every row of a digest is in the range, so the
    in-range group min is the global one."""
    group = group.to_pandas()
    conv = group["conv_id"].to_numpy(object)
    rep = group.groupby("conv_digest", sort=False)["conv_id"].transform("min").to_numpy(object)
    return pd.DataFrame(
        {
            "conv_id": conv,
            "conv_digest": group["conv_digest"].to_numpy(object),
            "rep_conv_id": rep,
            "is_dup": (conv != rep).astype(np.int64),
        }
    )


def _by_conv_id(group: pa.Table) -> pd.DataFrame:
    return group.to_pandas().sort_values("conv_id", kind="mergesort").reset_index(drop=True)


def transcript_conv_dedup(path: str):
    """Exact duplicate-CONVERSATION detection: order-sensitive full-text
    digest per conversation → group by digest → representative = minimum
    conv_id → Dataset(conv_id, conv_digest, rep_conv_id, is_dup), sorted
    by conv_id.

    The transcript-corpus twin of ``exact_dedup`` over documents, with
    the digest doing what per-doc md5 cannot: two conversations whose
    turns arrive in different physical orders but restore to the same
    logical sequence dedup together, while a turn swap keeps them apart.
    Shape: three ordered key exchanges (``stages.fold``) on Ray tasks, no
    Ray Data barrier, only conversation-cardinality rows moving after the
    first. The conversation exchange builds digests, with the per-turn md5
    map-side so 32-byte digests cross it, not text; the digest exchange
    labels every conversation (all rows of a digest share a range, so the
    in-range MIN is exact); the conv_id exchange returns the labels to
    conv_id order."""
    import ray.data

    from ..stages.fold import conv_exchange_refs, key_exchange

    digests = conv_exchange_refs(
        path, ["conv_id", "turn_idx", "text"], conv_digest_frame, pre=turn_digest_batch
    )
    labels = key_exchange(digests, "conv_digest", conv_dup_label_frame)
    return ray.data.from_arrow_refs(key_exchange(labels, "conv_id", _by_conv_id))


def transcript_conv_dedup_sql(path: str) -> str:
    return f"""
WITH d AS (
    SELECT conv_id,
           md5(string_agg(md5(COALESCE(text, '')), '' ORDER BY turn_idx)) AS conv_digest
    FROM read_parquet('{path}/*.parquet')
    GROUP BY conv_id
),
r AS (SELECT conv_digest, MIN(conv_id) AS rep_conv_id FROM d GROUP BY conv_digest)
SELECT d.conv_id, d.conv_digest, r.rep_conv_id,
       CAST(CASE WHEN d.conv_id != r.rep_conv_id THEN 1 ELSE 0 END AS BIGINT) AS is_dup
FROM d JOIN r USING (conv_digest)
ORDER BY d.conv_id
"""


def _conv_key(conv_id) -> int:
    """52-bit md5 prefix of the conv_id string: works for ANY id scheme.
    The width is pinned by the DuckDB twin, which computes the same key
    as ``('0x' || substr(md5(conv_id), 1, 13))::BIGINT`` (13 hex digits);
    a wider key changes every key value and so the twins' outputs.
    Birthday budget: ~1.6e-4 collision odds at 1.2M convs; at the 10^12
    design point conversation identity uses the 128-bit STRING digest path
    (``transcript_conv_dedup``) — documented, not silent."""
    return int(hashlib.md5(str(conv_id).encode()).hexdigest()[:13], 16)


def conv_sig_frame(group: pa.Table) -> pd.DataFrame:
    """Per-conversation SimHash signature rows (doc_id = ``_conv_key``,
    simhash hex, band0..band3) for one conv_id range, over the turns in
    restored order joined by one space; conversations without tokens carry
    no signature."""
    from .dedup import simhash_rows

    order, bounds, (conv_ids,) = conv_runs(group)
    tx = turn_texts(group, order)
    ids, texts = [], []
    for cid, lo, hi in zip(conv_ids, bounds[:-1], bounds[1:]):
        text = " ".join(tx[lo:hi])
        if not text.split():
            continue  # empty conversations carry no signature
        ids.append(_conv_key(cid))
        texts.append(text)
    df = pd.DataFrame({"doc_id": np.asarray(ids, np.int64),
                       "text": pd.Series(texts, dtype=object)})
    out = simhash_rows(df, {})
    out["doc_id"] = out["doc_id"].astype(np.int64)
    for b in range(4):
        out[f"band{b}"] = out[f"band{b}"].astype(np.int64)
    return out


def _conv_neardup_refs(path: str, max_hamming: int) -> list:
    from ..stages.fold import conv_exchange_refs
    from .dedup import banded_pair_refs

    sigs = conv_exchange_refs(path, ["conv_id", "turn_idx", "text"], conv_sig_frame)
    return banded_pair_refs(sigs, max_hamming=max_hamming)


def transcript_conv_neardup(path: str, max_hamming: int = 3):
    """Conversation-level NEAR-duplicate pairs over the transcript table
    — the transcript arm of the SimHash dedup family: agent re-rolls and
    retried conversations differ by a few turns of wording, not
    byte-identically, so ``transcript_conv_dedup``'s exact digest misses
    them. Each conversation's turns RESTORE (the conversation exchange,
    in-range sort by (conv_id, turn_idx) — the north rule's ordering
    invariant made load-bearing: swapping two turns changes the
    signature) and concatenate to one text (``conv_sig_frame``); the
    shared banded tail (``dedup.banded_pair_refs``: 4×16-bit pigeonhole
    bands, star cap, chunked XOR+popcount verification) emits
    (a, b, hamming) keyed by the 52-bit ``_conv_key`` of the conv_id
    string, sorted by (a, b).

    Scale shape: three ordered key exchanges on Ray tasks, no Ray Data
    barrier — conversations by conv_id, band rows by (band, value), pairs
    by ``a``. After the first only conversation-cardinality signature rows
    move (the text leaves the fold as a 64-bit hash); conversations with
    zero tokens are excluded on both engines (an all-zero signature would
    pair every empty conv with every other). Pinned to
    ``transcript_conv_neardup_sql`` (bit-exact below the shared
    ``_MAX_BUCKET`` star cap — see the twin's docstring for the two
    documented equality assumptions)."""
    import ray.data

    return ray.data.from_arrow_refs(_conv_neardup_refs(path, max_hamming))


def _conv_key_table(files: list[str]):
    """Universe task: the distinct ``_conv_key`` of every conversation in
    ``files`` → Arrow table (doc_id), in first-appearance order. Arrow's
    hash kernel finds the distinct ids, so only they become Python
    objects."""
    from ..stages.fold import _read_shard

    convs = pc.unique(_read_shard(files, ["conv_id"])["conv_id"]).to_pylist()
    return pa.table({"doc_id": pa.array([_conv_key(c) for c in convs], pa.int64())})


def transcript_conv_clusters(path: str, max_hamming: int = 3,
                             max_rounds: int = 32):
    """Conversation-level near-duplicate CLUSTERS — the scale-correct
    deliverable of the conv near-dup family. Measured at the sf1 corpus
    (1.2M convs): the PAIR list grows ~96x at 10x convs (972k → 93.6M
    pairs; duplicate-group size grows with corpus, so pairwise output is
    inherently quadratic in group size), while clusters stay linear —
    one row per conversation. Edges are ``transcript_conv_neardup``'s
    pair refs; the universe is EVERY conversation's ``_conv_key`` (one
    task per file group), so empty and unique conversations appear as
    singletons; components resolve through ``dedup.clusters_from_refs``:
    one components task over the pair refs and one doc_id-range merge of
    the universe while the edges fit one task, the distributed
    pointer-jumping loop beyond that.

    Output: (doc_id = conv key, cluster = min member key,
    cluster_size), sorted by doc_id. Pinned to
    ``transcript_conv_clusters_sql`` (recursive-CTE transitive closure
    over the bit-exact pair twin)."""
    from ..runtime import remote_fn
    from ..stages.fold import parquet_shards
    from .dedup import clusters_from_refs

    edges = _conv_neardup_refs(path, max_hamming)
    key_task = remote_fn(_conv_key_table)
    universe = [key_task.remote(files) for files in parquet_shards(path)]
    return clusters_from_refs(edges, universe, max_rounds=max_rounds)


def transcript_conv_clusters_sql(path: str, max_hamming: int = 3) -> str:
    """DuckDB replay: the bit-exact pair twin wrapped in a
    recursive-CTE transitive closure (same shape as DUP_CLUSTERS_SQL),
    universe = every distinct hashed conv key. Closure size is bounded
    by sum(component^2) — gate-scale only; the engine path is the
    production shape."""
    pairs = transcript_conv_neardup_sql(path, max_hamming=max_hamming)
    return f"""
WITH RECURSIVE pairs AS (
    SELECT a, b FROM ({pairs.rstrip()}) t
),
univ AS (
    SELECT DISTINCT ('0x' || substr(md5(conv_id), 1, 13))::BIGINT AS doc_id
    FROM read_parquet('{path}/*.parquet')
),
bidir AS (SELECT a AS u, b AS v FROM pairs UNION ALL SELECT b AS u, a AS v FROM pairs),
reach(u, v) AS (
    SELECT u, v FROM bidir
    UNION
    SELECT r.u, e.v FROM reach r JOIN bidir e ON r.v = e.u WHERE e.v <> r.u
),
labels AS (
    SELECT d.doc_id AS doc_id,
           CAST(LEAST(d.doc_id, COALESCE(MIN(r.v), d.doc_id)) AS BIGINT) AS cluster
    FROM univ d LEFT JOIN reach r ON r.u = d.doc_id
    GROUP BY d.doc_id
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, cluster,
       CAST(COUNT(*) OVER (PARTITION BY cluster) AS BIGINT) AS cluster_size
FROM labels
ORDER BY doc_id
"""


def transcript_conv_neardup_sql(path: str, max_hamming: int = 3) -> str:
    r"""DuckDB replay: ordered per-conversation concat feeding the SHARED
    SimHash tail (``dedup.simhash_tail_sql`` — md5-LE64 token hashes,
    band pigeonhole, XOR-popcount Hamming; one copy with the docs twin).

    Twin-equality assumptions, both documented here because the gate is
    forced: (1) the star cap — below ``dedup._MAX_BUCKET`` conversations
    per (band, value) bucket the engine's capped tail equals this
    all-pairs SQL (same contract as DOCS_MINHASH/SIMHASH); (2) the
    tokenizer — Python ``str.split()`` separates on ANY Unicode
    whitespace, so the RE2 class below enumerates Python's full
    whitespace set explicitly (RE2's ``\s`` alone is ASCII-only and
    misses NBSP — which the invoice family's payloads carry — as well
    as \x0b, \x1c-\x1f, \x85 and the U+2000 block)."""
    from .dedup import simhash_tail_sql

    # Python str.split() whitespace, enumerated for RE2
    ws = (r"\t\n\x{000B}\x{000C}\r\x{001C}-\x{001F} \x{0085}\x{00A0}"
          r"\x{1680}\x{2000}-\x{200A}\x{2028}\x{2029}\x{202F}\x{205F}\x{3000}")
    return f"""
WITH conv AS (
    SELECT ('0x' || substr(md5(conv_id), 1, 13))::BIGINT AS doc_id,
           string_agg(COALESCE(text, ''), ' ' ORDER BY turn_idx) AS text
    FROM read_parquet('{path}/*.parquet')
    GROUP BY conv_id
),
otok AS (
    SELECT doc_id,
           unnest(list_filter(string_split_regex(text, '[{ws}]+'), x -> x <> '')) AS t
    FROM conv
),
{simhash_tail_sql(max_hamming)}
"""


# ---------------------------------------------------------------------------
# context-tail assembly (last-K turns rendered per conversation)


CTX_TAIL_K = 4


def context_tail_frame(group: pa.Table, k: int = CTX_TAIL_K) -> pd.DataFrame:
    """Per-conversation rendered tail for one co-located partition: the
    last ``k`` turns in restored order, rendered ``role: text`` and
    newline-joined — the context-window assembly an inference or
    eval-harness pipeline runs per conversation."""
    order, bounds, (conv_ids,) = conv_runs(group)
    rl, tx = ordered_column(group, "role", order), ordered_column(group, "text", order)
    n = len(bounds) - 1
    n_turns = np.empty(n, dtype=np.int64)
    n_ctx = np.empty(n, dtype=np.int64)
    ctx = np.empty(n, dtype=object)
    for i in range(n):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        s = max(lo, hi - k)
        n_turns[i] = hi - lo
        n_ctx[i] = hi - s
        ctx[i] = "\n".join(
            f"{rl[j]}: {'' if tx[j] is None else tx[j]}" for j in range(s, hi)
        )
    return pd.DataFrame(
        {"conv_id": conv_ids, "n_turns": n_turns, "n_ctx": n_ctx, "context": ctx}
    )


def transcript_context_tails(path: str):
    """Rendered last-``CTX_TAIL_K``-turn context per conversation →
    Dataset(conv_id, n_turns, n_ctx, context), sorted by conv_id. Shape:
    the conversation exchange every transcript op shares; output is
    conversation-cardinality with k-turn-bounded strings."""
    from ..stages.fold import conv_exchange

    return conv_exchange(path, ["conv_id", "turn_idx", "role", "text"], context_tail_frame)


def transcript_context_tails_sql(path: str, k: int = CTX_TAIL_K) -> str:
    return f"""
WITH t AS (
    SELECT conv_id, turn_idx, role, text,
           COUNT(*) OVER (PARTITION BY conv_id) AS n,
           ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY turn_idx) AS rn
    FROM read_parquet('{path}/*.parquet')
)
SELECT conv_id, CAST(MIN(n) AS BIGINT) AS n_turns,
       CAST(COUNT(*) AS BIGINT) AS n_ctx,
       string_agg(role || ': ' || COALESCE(text, ''), chr(10) ORDER BY turn_idx) AS context
FROM t WHERE rn > n - {k}
GROUP BY conv_id ORDER BY conv_id
"""


# ---------------------------------------------------------------------------
# turn-gap latency telemetry (per tool family × role, exact quantiles)


_ROLES = ("user", "assistant", "tool")  # role id = position: the output's role order
_QUANTILE_PPMS = (500_000, 950_000)  # p50, p95


def tool_gap_frame(group: pa.Table) -> pd.DataFrame:
    """(tool, rid, gap_us) for one conv_id range: one row per non-first turn
    in restored order, the gap to the turn before it, keyed by the later
    turn's tool family and role id (``_ROLES`` position)."""
    order, bounds, _ = conv_runs(group)
    role, tool = ordered_column(group, "role", order), ordered_column(group, "tool", order)
    ts = _ts_us(group, order)
    rid = pd.Index(_ROLES).get_indexer(role)
    if (rid < 0).any():
        raise KeyError(f"unknown roles {sorted(set(role[rid < 0]))}")
    same = run_continues(bounds)
    return pd.DataFrame(
        {
            "tool": tool[1:][same],
            "rid": rid[1:][same].astype(np.int64),
            "gap_us": (ts[1:] - ts[:-1])[same],
        }
    )


def tool_quantile_frame(group: pa.Table) -> pd.DataFrame:
    """Exact p50/p95 per (tool, role id) of one tool range, in (tool, role
    id) order: the k-th smallest gap by ``np.partition``, k = ceil(q·n)
    in integer ppm arithmetic (the twin's rank rule). A null tool's cells
    come first, labelled null."""
    codes, uniq = key_codes(group["tool"])
    uniq = np.append(uniq, None)  # a null's code -1 lands here
    cell = codes * len(_ROLES) + group["rid"].to_numpy().astype(np.int64)
    order = np.argsort(cell, kind="stable")
    cell, gap = cell[order], group["gap_us"].to_numpy().astype(np.int64)[order]
    bounds = np.append(np.flatnonzero(np.diff(cell, prepend=-1)), len(cell))
    rows = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        n = int(hi - lo)
        ks = [(q * n + 999_999) // 1_000_000 - 1 for q in _QUANTILE_PPMS]
        part = np.partition(gap[lo:hi], ks)
        c = int(cell[lo])
        rows.append((uniq[c // len(_ROLES)], _ROLES[c % len(_ROLES)], n, *part[ks]))
    out = pd.DataFrame(rows, columns=["tool", "role", "n", "p50_us", "p95_us"])
    out[["n", "p50_us", "p95_us"]] = out[["n", "p50_us", "p95_us"]].astype(np.int64)
    return out


def transcript_tool_latency(path: str):
    """Exact p50/p95 of the turn-to-turn time gap, grouped by (tool
    family, role of the later turn) — the latency telemetry an agent
    platform reads off its own transcripts (how long do tool turns take
    vs assistant turns, per pipeline family) → Dataset(tool, role, n,
    p50_us, p95_us) in (tool, role id) order.

    Shape: two ordered key exchanges on Ray tasks, no Ray Data barrier.
    The conversation exchange restores turn order and emits one narrow
    (tool, rid, gap_us) row per non-first turn (``tool_gap_frame``); the
    tool exchange co-locates each tool family, and ``tool_quantile_frame``
    selects both ranks per (tool, role) with ``np.partition``, no sort.
    A fold task of the tool exchange holds every gap of the tools in its
    range: about 24 bytes per gap in its frame (tool pointer, role id and
    gap, 8 each), plus its Arrow input and sort buffers of like size.
    Rank semantics k = ceil(q·n), so the DuckDB twin (LAG + windowed rank
    selection) is bit-exact."""
    import ray.data

    from ..stages.fold import conv_exchange_refs, key_exchange

    gaps = conv_exchange_refs(
        path, ["conv_id", "turn_idx", "role", "tool", "ts"], tool_gap_frame
    )
    return ray.data.from_arrow_refs(key_exchange(gaps, "tool", tool_quantile_frame))


def transcript_tool_latency_sql(path: str) -> str:
    return f"""
WITH s AS (
    SELECT tool, role, ts,
           LAG(ts) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS pts
    FROM read_parquet('{path}/*.parquet')
),
g AS (
    SELECT tool, role, epoch_us(ts) - epoch_us(pts) AS gap
    FROM s WHERE pts IS NOT NULL
),
r AS (
    SELECT tool, role, gap,
           ROW_NUMBER() OVER (PARTITION BY tool, role ORDER BY gap) AS rn,
           COUNT(*) OVER (PARTITION BY tool, role) AS n
    FROM g
)
SELECT tool, role, CAST(MIN(n) AS BIGINT) AS n,
       CAST(MIN(gap) FILTER (WHERE rn = (500000 * n + 999999) // 1000000) AS BIGINT) AS p50_us,
       CAST(MIN(gap) FILTER (WHERE rn = (950000 * n + 999999) // 1000000) AS BIGINT) AS p95_us
FROM r GROUP BY tool, role
ORDER BY tool, role
"""


# ---------------------------------------------------------------------------
# role-transition matrix (Markov counts over restored turn order)


def transcript_role_transitions(path: str):
    """Corpus-wide (previous role → role) transition counts over
    RESTORED turn order, plus per-transition conversation counts — the
    Markov structure audit of a dialogue corpus (does `tool` ever
    follow `user`? how often does `assistant` self-transition?). Another
    ordering-sensitive aggregate: a row-order bug reshuffles mass
    between cells, and the LAG-based DuckDB twin recomputes the matrix
    independently.

    Shape: the conversation exchange; per-range vectorized boundary-masked
    shift (the bigram kernel's shape over roles instead of tokens); the
    per-range partials (≤ 9 cells each) are summed by the caller."""
    import ray.data

    from ..stages.fold import conv_exchange_refs

    def pairs(group: pa.Table) -> pd.DataFrame:
        order, bounds, _ = conv_runs(group)
        cv, rl = ordered_column(group, "conv_id", order), ordered_column(group, "role", order)
        same = run_continues(bounds)
        df = pd.DataFrame(
            {
                "prev_role": rl[:-1][same],
                "role": rl[1:][same],
                "conv": cv[1:][same],
            }
        )
        out = df.groupby(["prev_role", "role"], as_index=False).agg(
            n=("conv", "size"), n_convs=("conv", "nunique")
        )
        out[["n", "n_convs"]] = out[["n", "n_convs"]].astype(np.int64)
        return out

    # conversations never span ranges, so per-range nunique sums are
    # exact global nuniques
    per_range = conv_exchange_refs(path, ["conv_id", "turn_idx", "role"], pairs)
    return ray.data.from_pandas(_combine_cells(per_range, ["prev_role", "role"]))


def _combine_cells(refs: list, keys: list[str]) -> pd.DataFrame:
    """Sum the partials of a bounded-key rollup in this process → frame
    sorted by ``keys``. ``refs`` are the object refs of the tasks that
    built them (fold outputs as Arrow tables, map-task pandas frames). The
    cell count is bounded (role pairs, tool families, days), so one
    ``ray.get`` and a local combine replace a shuffle, a sort and any Ray
    Data execution."""
    import ray

    parts = [p if isinstance(p, pd.DataFrame) else p.to_pandas() for p in ray.get(refs)]
    out = pd.concat(parts, ignore_index=True)
    if out.empty:  # no rows at all: the empty frame
        return out
    out = out.groupby(keys, as_index=False, sort=True).sum()
    vals = [c for c in out.columns if c not in keys]
    out[vals] = out[vals].astype(np.int64)
    return out


def transcript_role_transitions_sql(path: str) -> str:
    return f"""
WITH s AS (
    SELECT conv_id, role,
           LAG(role) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS prev_role
    FROM read_parquet('{path}/*.parquet')
)
SELECT prev_role, role, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(COUNT(DISTINCT conv_id) AS BIGINT) AS n_convs
FROM s WHERE prev_role IS NOT NULL
GROUP BY prev_role, role
ORDER BY prev_role, role
"""


# ---------------------------------------------------------------------------
# Conversation-ordered context packing: assign every turn to a fixed-size
# token window within its conversation (the SFT-batch preparation step —
# ``docs_pack_sequences`` packs documents corpus-wide; this packs TURNS in
# restored conversation order). The window assignment is an order-sensitive
# functional of the turn sequence (exclusive token cumsum), so it pins the
# north rule's stable-turn-ordering restore through a different lens than
# the hygiene digest: a transposed turn shifts every later window offset.

PACK_WINDOW_TOKENS = 64


def transcript_turn_pack(path: str, window_tokens: int = PACK_WINDOW_TOKENS):
    """Per-turn window id + token offset inside its conversation.

    ``n_toks`` counts single-space splits (``text.count(' ') + 1`` ==
    ``len(string_split(text, ' '))`` for EVERY string, so engine and twin
    agree bytewise regardless of corpus whitespace). Shape: the
    conversation exchange, then a vectorized segment cumsum per range via
    global-cumsum-minus-segment-base — no per-conversation Python loop.
    Output is turn-cardinality but narrow (no text leaves the fold), in
    (conv_id, turn_idx) order."""
    from ..stages.fold import conv_exchange

    def pack(group: pa.Table) -> pd.DataFrame:
        order, bounds, _ = conv_runs(group)
        c = ordered_column(group, "conv_id", order)
        t = ordered_column(group, "turn_idx", order).astype(np.int64)
        txt = ordered_column(group, "text", order)
        n = np.fromiter((s.count(" ") + 1 for s in txt), dtype=np.int64, count=len(txt))
        excl = np.cumsum(n) - n  # exclusive prefix sum, globally
        base = np.repeat(excl[bounds[:-1]], np.diff(bounds))
        cum = excl - base        # exclusive prefix sum within each conversation
        return pd.DataFrame(
            {
                "conv_id": c,
                "turn_idx": t,
                "n_toks": n,
                "win": cum // window_tokens,
                "win_off": cum % window_tokens,
            }
        )

    return conv_exchange(path, ["conv_id", "turn_idx", "text"], pack)


def transcript_turn_pack_sql(path: str, window_tokens: int = PACK_WINDOW_TOKENS) -> str:
    return f"""
WITH s AS (
    SELECT conv_id, turn_idx,
           CAST(len(string_split(text, ' ')) AS BIGINT) AS n_toks,
           CAST(COALESCE(SUM(len(string_split(text, ' '))) OVER (
                PARTITION BY conv_id ORDER BY turn_idx
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS cum
    FROM read_parquet('{path}/*.parquet')
)
SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx, n_toks,
       cum // {window_tokens} AS win, cum % {window_tokens} AS win_off
FROM s
ORDER BY conv_id, turn_idx
"""


# ---------------------------------------------------------------------------
# Extraction-success telemetry: the monitoring rollup a production
# extraction platform reads off its own output — per (tool family, day),
# how many turns did the invoice field bank fire on, and how many fields
# per turn. Runs the PRODUCTION vectorized RE2 stage
# (``stages.invoice_extract.InvoiceFieldExtractor``) over the raw turns;
# the DuckDB twin replays the identical RE2 bank (both engines are RE2, the
# bank has no lookbehind) including the ":"-prefix re-anchor quirk. On this
# corpus the bank discriminates perfectly (fires on every invoice-family
# turn, on no other family) — the telemetry shows it.


def rollup_rows(batch) -> pd.DataFrame:
    """Per-turn (tool, day_epoch, n_turns=1, n_hits, n_fields) of an
    ``InvoiceFieldExtractor`` output table."""
    from ..stages.invoice_extract import FIELD_PREFIX

    nf = np.zeros(len(batch), dtype=np.int64)
    for name in batch.schema.names:
        if name.startswith(FIELD_PREFIX):
            got = pc.coalesce(batch[name], "")
            nf += pc.not_equal(got, "").to_numpy(zero_copy_only=False).astype(np.int64)
    day = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[D]").astype(np.int64)
    return pd.DataFrame(
        {
            "tool": np.asarray(batch["tool"].to_pandas(), dtype=object),
            "day_epoch": day,
            "n_turns": np.int64(1),
            "n_hits": (nf > 0).astype(np.int64),
            "n_fields": nf,
        }
    )


_RATE_KEYS = ["tool", "day_epoch"]


def _extract_rate_partial(files: list[str]) -> pd.DataFrame:
    """Map task: the invoice bank over ``files``, one file at a time →
    (n_turns, n_hits, n_fields) sums per (tool, day_epoch)."""
    import pyarrow.parquet as pq

    from ..stages.invoice_extract import InvoiceFieldExtractor

    extract = InvoiceFieldExtractor()
    parts = [
        rollup_rows(extract(pq.read_table(f, columns=["tool", "ts", "text"])))
        .groupby(_RATE_KEYS, as_index=False, sort=False).sum()
        for f in files
    ]
    return pd.concat(parts, ignore_index=True).groupby(_RATE_KEYS, as_index=False, sort=False).sum()


def transcript_extract_rate(path: str):
    """(tool, day_epoch, n_turns, n_hits, n_fields, hit_ppm) sorted.

    Map-only extraction + bounded-group rollup (tool families × days):
    one Ray task per file group (``stages.fold.parquet_shards``) runs the
    bank and returns its per-cell sums, the caller combines them from the
    tasks' object refs; no exchange carries text and no Ray Data
    execution runs. Day is the epoch-day integer so both engines agree
    bytewise on the time key. ``hit`` = at least one bank field extracted
    non-empty; ``n_fields`` sums fields over turns."""
    import ray.data

    from ..runtime import remote_fn
    from ..stages.fold import parquet_shards

    task = remote_fn(_extract_rate_partial)
    agg = _combine_cells([task.remote(files) for files in parquet_shards(path)], _RATE_KEYS)
    agg["hit_ppm"] = (1_000_000 * agg["n_hits"]) // agg["n_turns"]
    return ray.data.from_pandas(agg)


def transcript_extract_rate_sql(path: str) -> str:
    from .surrogate import _SQL_INV_PATTERNS, _sql_quote

    hits = " + ".join(
        f"CASE WHEN regexp_extract(t2, {_sql_quote(p)}, 1) <> '' THEN 1 ELSE 0 END"
        for p in _SQL_INV_PATTERNS.values()
    )
    return f"""
WITH s AS (
    SELECT tool,
           CAST(CAST(ts AS DATE) - DATE '1970-01-01' AS BIGINT) AS day_epoch,
           CASE WHEN starts_with(text, ':') THEN 'Order No.' || text
                ELSE text END AS t2
    FROM read_parquet('{path}/*.parquet')
),
f AS (SELECT tool, day_epoch, ({hits}) AS nf FROM s)
SELECT tool, day_epoch,
       CAST(COUNT(*) AS BIGINT) AS n_turns,
       CAST(SUM(CASE WHEN nf > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_hits,
       CAST(SUM(nf) AS BIGINT) AS n_fields,
       CAST((1000000 * SUM(CASE WHEN nf > 0 THEN 1 ELSE 0 END)) // COUNT(*) AS BIGINT)
           AS hit_ppm
FROM f
GROUP BY 1, 2
ORDER BY 1, 2
"""


def transcript_prompt_response(path: str):
    """Prompt→response length moments — the conversational-quality
    statistic over adjacent (user turn, assistant turn) pairs: exact
    integer sufficient statistics (n, Σu, Σa, Σu², Σa², Σu·a) per tool
    family, from which correlation/regression derive downstream without
    re-reading the corpus. ORDER-SENSITIVE: pairing walks turn_idx
    order inside each conversation, so this is a third independent lens
    (besides the hygiene digest and turn packing) on the north rule's
    stable-turn-ordering restore.

    Scale shape: the conversation exchange every transcript op shares,
    carrying (conv, turn, role, len) — lengths, not text; in-range
    vectorized lexsort + shifted-role mask; the emitted partial is ONE
    row per (range, tool family), summed by the caller. Moments fold
    in int64 throughout (len ≤ 8 KB per turn → Σu·a stays inside 2^63
    below ~10^11 pairs — beyond that, shard the corpus and merge the
    per-shard moment rows in Python ints; the combine itself has no
    wider-than-int64 path)."""
    import ray.data

    from ..stages.fold import conv_exchange_refs

    def proj(batch):
        return pa.table(
            {
                "conv_id": batch["conv_id"],
                "turn_idx": batch["turn_idx"],
                "role": batch["role"],
                "tool": batch["tool"],
                "tlen": pc.cast(pc.utf8_length(batch["text"]), pa.int64()),
            }
        )

    def fold(group: pa.Table) -> pd.DataFrame:
        order, bounds, _ = conv_runs(group)
        role, tool = ordered_column(group, "role", order), ordered_column(group, "tool", order)
        ln = ordered_column(group, "tlen", order).astype(np.int64)
        pair = run_continues(bounds) & (role[:-1] == "user") & (role[1:] == "assistant")
        idx = np.flatnonzero(pair)
        u, a = ln[idx], ln[idx + 1]
        fam = tool[idx]
        df = pd.DataFrame(
            {
                "tool": fam, "n_pairs": np.int64(1),
                "sum_u": u, "sum_a": a,
                "sum_u2": u * u, "sum_a2": a * a, "sum_ua": u * a,
            }
        )
        return df.groupby("tool", as_index=False, sort=False).sum()

    per_range = conv_exchange_refs(
        path, ["conv_id", "turn_idx", "role", "tool", "text"], fold, pre=proj
    )
    return ray.data.from_pandas(_combine_cells(per_range, ["tool"]))


def transcript_prompt_response_sql(path: str) -> str:
    return f"""
WITH t AS (
    SELECT conv_id, turn_idx, role, tool, length(text) AS tlen
    FROM read_parquet('{path}/*.parquet')
),
w AS (
    SELECT conv_id, turn_idx, role, tool, tlen,
           LEAD(role) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS next_role,
           LEAD(tlen) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS next_len
    FROM t
)
SELECT tool,
       CAST(COUNT(*) AS BIGINT) AS n_pairs,
       CAST(SUM(tlen) AS BIGINT) AS sum_u,
       CAST(SUM(next_len) AS BIGINT) AS sum_a,
       CAST(SUM(tlen * tlen) AS BIGINT) AS sum_u2,
       CAST(SUM(next_len * next_len) AS BIGINT) AS sum_a2,
       CAST(SUM(tlen * next_len) AS BIGINT) AS sum_ua
FROM w
WHERE role = 'user' AND next_role = 'assistant'
GROUP BY tool
ORDER BY tool
"""
