"""Training-data curation operators over the ``documents`` table: PII
redaction, deterministic train/val/test splitting with stratified
accounting, line-level exact dedup with first-occurrence-wins reassembly
(the Lee-et-al. boilerplate-removal shape), benchmark decontamination via
a broadcast n-gram blocklist, and deterministic per-source mixture
sampling.

Both are first-class LLM-corpus ops the reference's extraction pipelines
feed into at scale (reference analogue: the per-record scrub/normalize
passes, e.g. roman-census' text normalization before record assembly).

Determinism / oracle parity:

- Redaction runs the SAME RE2 engine on both sides (pyarrow.compute and
  DuckDB's regexp_* are both RE2), with the patterns applied in one fixed
  order, so the redacted strings are byte-identical.
- The synthetic corpus contains no PII, so the op first RENDERS a
  deterministic PII overlay from ``doc_id`` (the repo's surrogate recipe:
  both engines build the same string analytically) — conditional residues
  exercise zero-match rows as well.
- The split hash is ``int(md5(str(doc_id))[:15], 16) % 100`` — the same
  md5 hex-parse construct the KMV sketch twin already pins
  (``ops/events.py EVENTS_KMV_SQL``), reproduced in DuckDB as
  ``('0x' || substr(md5(...), 1, 15))::BIGINT``.

Scale shape: redaction and hashing are embarrassingly parallel
``map_batches`` passes (no shuffle); the stratified rollup is a tiny
grouped sum over per-batch partials (``ops/common.grouped_sums``). At
100 TB nothing here widens beyond the final KB-sized rollup.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd

from .common import grouped_sums

# RE2-safe patterns (no lookaround); applied in THIS order on both engines.
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
URL_RE = r"https?://[^\s]+"
IP_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PHONE_RE = r"\+\d{1,2}-\d{3}-\d{4}"
REDACTIONS = (
    ("n_emails", EMAIL_RE, "<EMAIL>"),
    ("n_urls", URL_RE, "<URL>"),
    ("n_ips", IP_RE, "<IP>"),
    ("n_phones", PHONE_RE, "<PHONE>"),
)

TRAIN_PCT, VAL_PCT = 80, 10  # remainder = test


def _docs(sf_dir: str, columns=None):
    from ..runtime import read_parquet_sized

    return read_parquet_sized(os.path.join(sf_dir, "documents.parquet"), columns=columns)


def _render_pii(doc_id: np.ndarray, text: pd.Series) -> pd.Series:
    """Deterministic PII overlay: which fragments appear depends on doc_id
    residues (so some rows carry 0 of a kind), values derive from doc_id."""
    d = pd.Series(doc_id, dtype=np.int64)
    ds = d.astype(str)
    email = (" contact user" + ds + "@example.com").where(d % 3 != 0, "")
    phone = (" ph +1-555-" + (d % 10000).astype(str).str.zfill(4)).where(d % 2 == 0, "")
    url = (" see http://h" + ds + ".example.org/a?b=" + (d % 7).astype(str)).where(d % 5 != 1, "")
    ip = (
        " from 10." + (d % 256).astype(str) + "." + ((d // 256) % 256).astype(str)
        + "." + (d % 200).astype(str)
    ).where(d % 4 == 2, "")
    return text.reset_index(drop=True) + email + phone + url + ip


def docs_redact(sf_dir: str):
    """Render the PII overlay, count each PII kind, redact all of them.

    One embarrassingly-parallel pyarrow pass per batch: RE2 count kernels
    on the rendered text, then the ordered ``replace_substring_regex``
    chain. No shuffle; the terminal sort is presentation-only.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def derive(batch: pd.DataFrame) -> "pa.Table":
        rendered = pa.array(
            _render_pii(batch["doc_id"].to_numpy(), batch["text"]), type=pa.string()
        )
        cols = {"doc_id": pa.array(batch["doc_id"].to_numpy(), type=pa.int64())}
        red = rendered
        for name, pat, repl in REDACTIONS:
            cols[name] = pc.cast(pc.count_substring_regex(red, pat), pa.int64())
            red = pc.replace_substring_regex(red, pat, repl)
        cols["redacted"] = red
        return pa.table(cols)

    return ds.map_batches(derive, batch_format="pandas").sort("doc_id")


def _rendered_sql_expr() -> str:
    """The DuckDB twin of ``_render_pii`` (same concatenation, same
    residue conditions, same zero-padding)."""
    return (
        "text"
        " || CASE WHEN doc_id % 3 <> 0 THEN ' contact user' || CAST(doc_id AS VARCHAR)"
        " || '@example.com' ELSE '' END"
        " || CASE WHEN doc_id % 2 = 0 THEN ' ph +1-555-'"
        " || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') ELSE '' END"
        " || CASE WHEN doc_id % 5 <> 1 THEN ' see http://h' || CAST(doc_id AS VARCHAR)"
        " || '.example.org/a?b=' || CAST(doc_id % 7 AS VARCHAR) ELSE '' END"
        " || CASE WHEN doc_id % 4 = 2 THEN ' from 10.' || CAST(doc_id % 256 AS VARCHAR)"
        " || '.' || CAST((doc_id // 256) % 256 AS VARCHAR)"
        " || '.' || CAST(doc_id % 200 AS VARCHAR) ELSE '' END"
    )


def _redact_sql() -> str:
    counts = []
    red_expr = "rendered"
    for name, pat, repl in REDACTIONS:
        # counts are taken on the PARTIALLY-redacted text, exactly like the
        # engine's ordered kernel chain
        counts.append(f"len(regexp_extract_all({red_expr}, '{pat}')) AS {name}")
        red_expr = f"regexp_replace({red_expr}, '{pat}', '{repl}', 'g')"
    return f"""
WITH r AS (SELECT doc_id, {_rendered_sql_expr()} AS rendered FROM documents)
SELECT doc_id,
       {", ".join(counts)},
       {red_expr} AS redacted
FROM r
ORDER BY doc_id
"""


DOCS_REDACT_SQL = _redact_sql()


def _md5_hash15(doc_ids, salt: str = "") -> np.ndarray:
    """60-bit md5 prefix of salt + decimal doc_id as int64 — the one
    engine/oracle-shared hash construct behind the split, mixture and
    reservoir ops (DuckDB mirror:
    ``('0x' || substr(md5(salt || CAST(doc_id AS VARCHAR)), 1, 15))::BIGINT``,
    the same hex-parse the KMV sketch twin pins)."""
    return np.fromiter(
        (int(hashlib.md5((salt + str(int(i))).encode()).hexdigest()[:15], 16) for i in doc_ids),
        dtype=np.int64,
        count=len(doc_ids),
    )


def _split_hash(doc_ids) -> np.ndarray:
    """Split hash: md5 prefix of the bare decimal doc_id, mod 100 —
    stable across runs, machines and engines."""
    return _md5_hash15(doc_ids) % 100


def split_labels(doc_ids) -> np.ndarray:
    h = _split_hash(doc_ids)
    return np.select([h < TRAIN_PCT, h < TRAIN_PCT + VAL_PCT], ["train", "val"], "test")


def docs_split_stratified(sf_dir: str):
    """Deterministic train/val/test assignment + stratified accounting:
    per (lang, split) document and token totals. The assignment is a pure
    per-row hash (resume-safe, no coordination); only the KB-sized rollup
    shuffles."""
    ds = _docs(sf_dir, columns=["doc_id", "lang", "text"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "lang": batch["lang"],
                "split": split_labels(batch["doc_id"].to_numpy()),
                "n_docs": np.int64(1),
                "n_tokens": (batch["text"].str.count(" ") + 1).astype(np.int64),
            }
        )

    ds = ds.map_batches(derive, batch_format="pandas")
    return grouped_sums(ds, ["lang", "split"], ["n_docs", "n_tokens"]).sort(["lang", "split"])


# ---------------------------------------------------------------------------
# Line-level exact dedup (first global occurrence wins, documents reassembled)
# ---------------------------------------------------------------------------

# order key = doc_id * LINE_SHIFT + line_idx: lexicographic (doc_id,
# line_idx) as ONE int64. Documented bounds: < 2^20 lines per document and
# doc_id < 2^43 — both hold for any real corpus shard layout (at 10^12
# docs, doc_id*2^20 is still < 2^63).
LINE_SHIFT = 1 << 20


def _render_doc_lines(doc_id: np.ndarray, text: pd.Series) -> pd.Series:
    """Deterministic multi-line overlay: the synthetic corpus is
    single-line, so boilerplate lines are rendered from doc_id residues
    (the repo's surrogate recipe — both engines build the same string
    analytically). The '\\n'-joined result has line 0 = the original text
    and 1-3 boilerplate lines that REPEAT across documents, so the dedup
    actually collides: 'subscribe...' is shared by every even doc, the
    'rights reserved k' / 'doc footer k' families have 5 / 11 variants."""
    d = pd.Series(doc_id, dtype=np.int64)
    l1 = np.where(d % 2 == 0, "\nsubscribe to our newsletter today", "")
    l2 = ("\nall rights reserved " + (d % 5).astype(str)).where(d % 3 == 0, "")
    l3 = np.where(d % 7 == 1, "\ncookie policy applies", "")
    l4 = "\ndoc footer " + (d % 11).astype(str)
    return text.reset_index(drop=True) + l1 + l2 + l3 + l4


_LINES_RENDER_SQL = (
    "text"
    " || CASE WHEN doc_id % 2 = 0 THEN chr(10) || 'subscribe to our newsletter today'"
    " ELSE '' END"
    " || CASE WHEN doc_id % 3 = 0 THEN chr(10) || 'all rights reserved '"
    " || CAST(doc_id % 5 AS VARCHAR) ELSE '' END"
    " || CASE WHEN doc_id % 7 = 1 THEN chr(10) || 'cookie policy applies' ELSE '' END"
    " || chr(10) || 'doc footer ' || CAST(doc_id % 11 AS VARCHAR)"
)


def line_rows(sf_dir: str):
    """Exploded (doc_id, line_idx, line, order) rows of the rendered
    corpus — one vectorized explode per batch, no per-row Python."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        rendered = _render_doc_lines(batch["doc_id"].to_numpy(), batch["text"])
        lines = rendered.str.split("\n")
        counts = lines.str.len().to_numpy()
        flat = lines.explode()
        idx = flat.groupby(level=0).cumcount().to_numpy().astype(np.int64)
        doc = np.repeat(batch["doc_id"].to_numpy(), counts).astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": doc,
                "line_idx": idx,
                "line": flat.to_numpy(),
                "order": doc * LINE_SHIFT + idx,
            }
        )

    return ds.map_batches(explode, batch_format="pandas")


def docs_line_dedup(sf_dir: str):
    """Corpus-wide line-level exact dedup, first occurrence wins
    (Lee et al., "Deduplicating Training Data Makes Language Models
    Better" — the exact-substring/boilerplate-removal shape at line
    granularity): every duplicate of a line is dropped except the one
    with the smallest (doc_id, line_idx), and each document is
    reassembled from its surviving lines in original order.

    Distributed shape (three bucketed exchanges, nothing driver-side):
      1. winners: per-line min order — per-BATCH partial min first (a
         boilerplate line occurring billions of times contributes ONE row
         per batch to the shuffle), then ``bucketed_group_agg``;
      2. verdicts: ``cogroup_join`` of the line rows with the winners on
         the line text — a row survives iff its order equals the group
         min (hot-key note: one line's rows co-locate in one bucket; the
         per-bucket merge is a vectorized pandas join, and at extreme
         boilerplate skew the left side can be salted by order-range
         because the right side is 1 row/key);
      3. reassembly: bucket by doc_id, one vectorized groupby-join per
         bucket.
    """
    from .common import _default_buckets, bucketed_group_agg, cogroup_join

    lines = line_rows(sf_dir)
    winners = bucketed_group_agg(
        lines.select_columns(["line", "order"]), ["line"], {"order": "min"}
    ).map_batches(
        lambda b: b.rename(columns={"order": "win_order"}), batch_format="pandas"
    )
    joined = cogroup_join(
        lines,
        winners,
        "line",
        "line",
        left_cols=["doc_id", "line_idx", "line", "order"],
        right_cols=["win_order"],
    )
    nb = _default_buckets()

    def bucket(batch: pd.DataFrame) -> pd.DataFrame:
        batch["__db"] = (
            pd.util.hash_array(batch["doc_id"].to_numpy()) % nb
        ).astype(np.int64)
        return batch

    def rollup(group: pd.DataFrame) -> pd.DataFrame:
        group = group.sort_values(["doc_id", "line_idx"], kind="mergesort")
        n_lines = group.groupby("doc_id", sort=True).size()
        kept = group[group["order"] == group["win_order"]]
        n_kept = kept.groupby("doc_id").size()
        txt = kept.groupby("doc_id")["line"].agg("\n".join)
        out = pd.DataFrame(
            {
                "doc_id": n_lines.index.to_numpy(),
                "n_lines": n_lines.to_numpy().astype(np.int64),
            }
        )
        out["n_kept"] = (
            n_kept.reindex(out["doc_id"]).fillna(0).to_numpy().astype(np.int64)
        )
        out["dedup_text"] = txt.reindex(out["doc_id"]).fillna("").to_numpy()
        return out

    bucketed = joined.map_batches(bucket, batch_format="pandas")
    return bucketed.groupby("__db").map_groups(rollup, batch_format="pandas").sort("doc_id")


DOCS_LINE_DEDUP_SQL = f"""
WITH r AS (SELECT doc_id, {_LINES_RENDER_SQL} AS rendered FROM documents),
l AS (
    SELECT doc_id,
           unnest(string_split(rendered, chr(10))) AS line,
           generate_subscripts(string_split(rendered, chr(10)), 1) - 1 AS line_idx
    FROM r
),
w AS (
    SELECT doc_id, line_idx, line,
           ROW_NUMBER() OVER (PARTITION BY line ORDER BY doc_id, line_idx) AS rn
    FROM l
)
SELECT doc_id,
       COUNT(*) AS n_lines,
       CAST(SUM(CASE WHEN rn = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
       COALESCE(string_agg(CASE WHEN rn = 1 THEN line END, chr(10) ORDER BY line_idx), '')
           AS dedup_text
FROM w
GROUP BY doc_id
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Benchmark decontamination (broadcast n-gram blocklist)
# ---------------------------------------------------------------------------

# every 41st document stands in for "a benchmark document"; its token
# 3-gram at positions 2-4 (1-based) is the blocklist entry
DECON_RESIDUE = 41
DECON_LO, DECON_HI = 2, 4  # 1-based inclusive slice, = python [1:4]


def blocklist_grams(sf_dir: str) -> list[str]:
    """The deterministic benchmark blocklist: distinct token 3-grams from
    the residue-selected documents. The benchmark side of decontamination
    is SMALL by definition (a benchmark suite is MBs against a 100 TB
    corpus), so collecting it to the driver and broadcasting is the scale
    shape — the corpus side never moves."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch[batch["doc_id"] % DECON_RESIDUE == 0]
        toks = sub["text"].str.split(" ")
        toks = toks[toks.str.len() >= DECON_HI]
        return pd.DataFrame(
            {"gram": toks.map(lambda t: " ".join(t[DECON_LO - 1 : DECON_HI]))}
        )

    rows = ds.map_batches(derive, batch_format="pandas").take_all()
    return sorted({r["gram"] for r in rows})


def docs_decontaminate(sf_dir: str):
    """Per-document benchmark-overlap counts: how many DISTINCT blocklist
    grams occur as a substring, and the contaminated flag. The blocklist
    is broadcast once (``ray.put``); each batch runs one vectorized
    ``match_substring`` per gram (at real blocklist sizes an Aho-Corasick
    automaton built once per actor replaces the per-gram loop — the
    data-movement shape is identical)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from .common import broadcast

    ref = broadcast(blocklist_grams(sf_dir))
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def derive(batch: "pa.Table") -> "pa.Table":
        grams = ray.get(ref)  # local object-store fetch, not a re-ship
        text = batch["text"]
        hits = np.zeros(len(batch), dtype=np.int64)
        for g in grams:
            hits += pc.match_substring(text, g).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_hits": pa.array(hits),
                "contaminated": pa.array((hits > 0).astype(np.int64)),
            }
        )

    return ds.map_batches(derive, batch_format="pyarrow").sort("doc_id")


DOCS_DECONTAMINATE_SQL = f"""
WITH bl AS (
    SELECT DISTINCT
           array_to_string(list_slice(string_split(text, ' '), {DECON_LO}, {DECON_HI}), ' ')
               AS gram
    FROM documents
    WHERE doc_id % {DECON_RESIDUE} = 0 AND len(string_split(text, ' ')) >= {DECON_HI}
),
h AS (
    SELECT d.doc_id, COUNT(b.gram) AS n_hits
    FROM documents d LEFT JOIN bl b ON contains(d.text, b.gram)
    GROUP BY d.doc_id
)
SELECT doc_id,
       CAST(n_hits AS BIGINT) AS n_hits,
       CAST(CASE WHEN n_hits > 0 THEN 1 ELSE 0 END AS BIGINT) AS contaminated
FROM h
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Deterministic per-source mixture sampling
# ---------------------------------------------------------------------------

MIX_SALT = "mix:"


def _mix_target_pct(src_num: np.ndarray) -> np.ndarray:
    """Per-source target sampling rate in percent: 20 + (7*k) % 71 —
    deterministic, spans 20-90%, distinct across the synthetic sources."""
    return 20 + (7 * src_num) % 71


def _mix_hash(doc_ids) -> np.ndarray:
    """Same md5 hex-parse construct as the split hash, salted with 'mix:'
    so mixture membership is independent of the train/val/test split."""
    return _md5_hash15(doc_ids, MIX_SALT) % 100


def docs_sample_mixture(sf_dir: str):
    """Deterministic weighted mixture sampling (the DoReMi/data-mixing
    shape): each source gets a target rate; a document is kept iff its
    salted md5 hash lands under the rate. Pure per-row decision — no
    coordination, resume-safe, a kept-set that is stable under
    re-partitioning. Recorded result: per-source accounting (total docs,
    kept docs, kept tokens) so the realized mixture is auditable against
    the targets; only this KB-sized rollup shuffles."""
    ds = _docs(sf_dir, columns=["doc_id", "source", "text"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        src_num = batch["source"].str.slice(3).astype(np.int64).to_numpy()
        pct = _mix_target_pct(src_num)
        kept = (_mix_hash(batch["doc_id"].to_numpy()) < pct).astype(np.int64)
        return pd.DataFrame(
            {
                "source": batch["source"],
                "target_pct": pct,
                "n_docs": np.int64(1),
                "n_kept": kept,
                "n_tokens_kept": kept
                * (batch["text"].str.count(" ").to_numpy() + 1),
            }
        )

    ds = ds.map_batches(derive, batch_format="pandas")
    return grouped_sums(
        ds, ["source", "target_pct"], ["n_docs", "n_kept", "n_tokens_kept"]
    ).sort("source")


DOCS_MIXTURE_SQL = f"""
WITH a AS (
    SELECT source,
           20 + (7 * CAST(substr(source, 4) AS BIGINT)) % 71 AS target_pct,
           CASE WHEN ('0x' || substr(md5('{MIX_SALT}' || CAST(doc_id AS VARCHAR)), 1, 15))::BIGINT
                     % 100 < 20 + (7 * CAST(substr(source, 4) AS BIGINT)) % 71
                THEN 1 ELSE 0 END AS kept,
           len(string_split(text, ' ')) AS n_toks
    FROM documents
)
SELECT source, target_pct,
       COUNT(*) AS n_docs,
       CAST(SUM(kept) AS BIGINT) AS n_kept,
       CAST(SUM(kept * n_toks) AS BIGINT) AS n_tokens_kept
FROM a
GROUP BY source, target_pct
ORDER BY source
"""


DOCS_SPLIT_SQL = f"""
WITH a AS (
    SELECT lang, text,
           ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))::BIGINT % 100 AS h
    FROM documents
)
SELECT lang,
       CASE WHEN h < {TRAIN_PCT} THEN 'train'
            WHEN h < {TRAIN_PCT + VAL_PCT} THEN 'val'
            ELSE 'test' END AS split,
       COUNT(*) AS n_docs,
       CAST(SUM(len(string_split(text, ' '))) AS BIGINT) AS n_tokens
FROM a
GROUP BY lang, split
ORDER BY lang, split
"""


# ---------------------------------------------------------------------------
# Deterministic sequence packing (context-length chunking)


SEQ_LEN = 2048


def docs_pack_sequences(sf_dir: str, seq_len: int = SEQ_LEN):
    """Pack the corpus into fixed-length training sequences: documents in
    ``doc_id`` order are tokenized (single-space split, the token-stats
    construct), each followed by one EOD separator token, and the
    concatenated stream is cut every ``seq_len`` tokens (the GPT-style
    pretraining packing shape). Emits one row per document: its global
    ``start_tok`` offset and the [``seq_first``, ``seq_last``] range of
    training sequences it lands in (the separator counts as the doc's
    last stream position).

    Scale shape — a distributed ORDERED prefix scan with no global sort:

    1. one pruned-column pass derives contiguous ``doc_id``-range buckets
       (value-range, not hash — prefix order must be preserved),
    2. per-batch partial token-cost sums per bucket move to the driver
       (R ≈ 2×CPUs rows, KB-sized at any corpus size) where the exclusive
       bucket offsets are a tiny cumsum, broadcast once via ``ray.put``,
    3. ONE value-range shuffle co-locates each bucket; the in-group fold
       is a vectorized cumsum seeded by the bucket's broadcast offset.

    The integer cost table (doc_id, n_tokens, bucket) is materialized so
    the partial-sum pass and the fold don't re-read + re-tokenize the
    text column twice; at 100 TB it is 24 bytes/doc — 0.024% of the text
    it summarizes (residency arithmetic: DESIGN_SCALE.md "Round-4:
    narrow-table residency"; ~94 GB/node on 256 nodes, spillable).
    Partitioning assumption: one doc_id-range bucket fits a
    worker's heap (buckets count scales with cluster CPUs; re-derive R
    from bytes when docs-per-bucket outgrows memory)."""
    import ray

    from .common import _default_buckets

    max_id = int(_docs(sf_dir, columns=["doc_id"]).max("doc_id"))
    n_buckets = _default_buckets()
    span = max(1, (max_id + n_buckets) // n_buckets)

    def costs(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["doc_id"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": d,
                "n_tokens": (batch["text"].str.count(" ") + 1).to_numpy(np.int64),
                "bucket": d // span,
            }
        )

    cost_ds = (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(costs, batch_format="pandas")
        .materialize()
    )

    def part(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"bucket": batch["bucket"], "cost": batch["n_tokens"] + 1})

    totals = (
        grouped_sums(cost_ds.map_batches(part, batch_format="pandas"), ["bucket"], ["cost"])
        .to_pandas()
        .sort_values("bucket")
    )
    csum = totals["cost"].cumsum().to_numpy(np.int64)
    offsets = dict(zip(totals["bucket"].to_numpy(np.int64), csum - totals["cost"].to_numpy(np.int64)))
    off_ref = ray.put(offsets)

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)  # zero-copy local fetch of the tiny map
        g = group.sort_values("doc_id", kind="mergesort")
        n = g["n_tokens"].to_numpy(np.int64)
        cost = n + 1
        start = np.cumsum(cost) - cost + off[int(g["bucket"].iloc[0])]
        seq_first = start // seq_len
        seq_last = (start + n) // seq_len
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "n_tokens": n,
                "start_tok": start,
                "seq_first": seq_first,
                "seq_last": seq_last,
                "n_seqs": seq_last - seq_first + 1,
            }
        )

    return cost_ds.groupby("bucket").map_groups(fold, batch_format="pandas").sort("doc_id")


DOCS_PACK_SQL = f"""
WITH t AS (
    SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens
    FROM documents
),
s AS (
    SELECT doc_id, n_tokens,
           CAST(COALESCE(SUM(n_tokens + 1) OVER (
               ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
           ), 0) AS BIGINT) AS start_tok
    FROM t
)
SELECT doc_id, n_tokens, start_tok,
       start_tok // {SEQ_LEN} AS seq_first,
       (start_tok + n_tokens) // {SEQ_LEN} AS seq_last,
       (start_tok + n_tokens) // {SEQ_LEN} - start_tok // {SEQ_LEN} + 1 AS n_seqs
FROM s
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Deterministic per-source reservoir sampling (exact-k via hash ranking)


RESERVOIR_K = 10
RES_SALT = "res:"


def docs_reservoir_sample(sf_dir: str, k: int = RESERVOIR_K):
    """Exactly ``k`` documents per source (fewer when the source is
    smaller), selected as the k smallest salted-md5 hashes — a
    deterministic reservoir: the sample is stable under re-partitioning,
    resume and corpus append-order, and mergeable (each block's k
    smallest per source provably contain the global k smallest, the same
    partial-minima argument as the KMV sketch). Complements
    ``docs_sample_mixture``: that op keeps a RATE per source, this one an
    exact COUNT.

    Scale shape: per-batch prune to ≤k rows per source (vectorized sort +
    grouped head), so the shuffle moves ≤ k·sources rows per batch; the
    final per-source fold sees ≤ k·n_batches tiny rows."""
    ds = _docs(sf_dir, columns=["doc_id", "source"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "source": batch["source"],
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "res_hash": _md5_hash15(batch["doc_id"], RES_SALT),
            }
        )
        out = out.sort_values(["source", "res_hash", "doc_id"], kind="mergesort")
        return out.groupby("source", sort=False).head(k)

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["res_hash", "doc_id"], kind="mergesort").head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["source", "doc_id", "res_hash", "rank"]]

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("source")
        .map_groups(fold, batch_format="pandas")
        .sort(["source", "rank"])
    )


DOCS_RESERVOIR_SQL = f"""
WITH a AS (
    SELECT source, doc_id,
           ('0x' || substr(md5('{RES_SALT}' || CAST(doc_id AS VARCHAR)), 1, 15))::BIGINT AS res_hash
    FROM documents
),
r AS (
    SELECT *, ROW_NUMBER() OVER (PARTITION BY source ORDER BY res_hash, doc_id) AS rank
    FROM a
)
SELECT source, doc_id, res_hash, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= {RESERVOIR_K}
ORDER BY source, rank
"""


# ---------------------------------------------------------------------------
# Composed end-to-end curation pipeline (filter → dedup → tag → split)


CURATION_MIN_TOKENS = 30
CURATION_MIN_STOP_PPM = 10_000  # ≥1% stopwords (integer cross-multiplied)
CURATION_FP_TOKENS = 5  # opening-fingerprint width for the dedup stage


def docs_curation_pipeline(sf_dir: str):
    """The ops composed as ONE streaming pipeline — the shape a user
    actually runs over a crawl: quality filter (min length + min stopword
    ratio, integer cross-multiplied) → near-dup removal on an
    opening-fingerprint key (md5 of the first 5 tokens; the full exact /
    MinHash / semantic dedups are separate ops) → language-ID tagging →
    deterministic split assignment → per-(pred_lang, split) token
    accounting.

    Everything fuses into one lazy DAG with a SINGLE corpus-bearing
    shuffle (the dedup cogroup — text is dropped before it moves; only
    doc_id/fingerprint/counts travel) and a KB-sized rollup; the filter
    prunes ~25% of rows before anything shuffles. Each stage's kernel is
    the same construct its standalone op pins (quality counts, md5
    hex-parse split, LangId marker argmax), so the composed DuckDB twin
    is assembled from the same SQL fragments."""
    from . import text as tx  # text imports curate's normalize fragment LAZILY (function-level) — keep BOTH sides lazy
    from .common import _default_buckets
    from .text import langid_preds
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    nb = _default_buckets()

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        toks = batch["text"].str.split(" ")
        n_tok = toks.str.len().astype(np.int64)
        flat = toks.explode()
        n_stop = (
            flat.isin(tx.STOPWORDS)
            .groupby(level=0)
            .sum()
            .astype(np.int64)
            .reindex(range(len(batch)), fill_value=0)
        )
        keep = (
            (n_tok >= CURATION_MIN_TOKENS)
            & (n_stop.to_numpy() * 1_000_000 >= CURATION_MIN_STOP_PPM * n_tok.to_numpy())
        ).to_numpy()
        # filter FIRST: the fingerprint md5 and the LangId argmax (the two
        # expensive per-row kernels; both computed pre-shuffle so text
        # never moves) run only on the ~75% of rows that survive
        kept_toks = toks[keep]
        out = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64)[keep],
                "n_tokens": n_tok.to_numpy()[keep],
                "fp": [
                    hashlib.md5(" ".join(t[:CURATION_FP_TOKENS]).encode()).hexdigest()
                    for t in kept_toks
                ],
                "pred_lang": langid_preds(batch["text"][keep]),
            }
        )
        out["__b"] = (pd.util.hash_array(out["fp"].to_numpy(object)) % nb).astype(np.int64)
        return out

    def dedup_fold(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["fp", "doc_id"], kind="mergesort").drop_duplicates(
            "fp", keep="first"
        )
        return g[["doc_id", "n_tokens", "pred_lang"]]

    def label(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "pred_lang": batch["pred_lang"],
                "split": split_labels(batch["doc_id"].to_numpy()),
                "n_docs": np.int64(1),
                "n_tokens": batch["n_tokens"].to_numpy(np.int64),
            }
        )

    surv = ds.map_batches(prep, batch_format="pandas").groupby("__b").map_groups(
        dedup_fold, batch_format="pandas"
    )
    return grouped_sums(
        surv.map_batches(label, batch_format="pandas"),
        ["pred_lang", "split"],
        ["n_docs", "n_tokens"],
    ).sort(["pred_lang", "split"])


def _curation_sql() -> str:
    from .text import LANG_MARKERS

    vals = ", ".join(
        f"('{lang}', '{w}')"
        for lang in sorted(LANG_MARKERS)
        for w in sorted(LANG_MARKERS[lang])
    )
    return f"""
WITH markers(mlang, word) AS (VALUES {vals}),
base AS (
    SELECT doc_id, text,
           CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
           CAST(len(list_filter(string_split(text, ' '),
                    w -> w IN ('the','a','and','of','to'))) AS BIGINT) AS n_stop
    FROM documents
),
filt AS (
    SELECT doc_id, text, n_tokens,
           md5(array_to_string(string_split(text, ' ')[1:{CURATION_FP_TOKENS}], ' ')) AS fp
    FROM base
    WHERE n_tokens >= {CURATION_MIN_TOKENS}
      AND n_stop * 1000000 >= {CURATION_MIN_STOP_PPM} * n_tokens
),
kept AS (
    SELECT * FROM (
        SELECT *, MIN(doc_id) OVER (PARTITION BY fp) AS keep_id FROM filt
    ) WHERE doc_id = keep_id
),
toks AS (
    SELECT doc_id, unnest(list_distinct(string_split_regex(lower(text), '\\s+'))) AS tok
    FROM kept
),
scores AS (
    SELECT t.doc_id, m.mlang, COUNT(*) AS score
    FROM toks t JOIN markers m ON t.tok = m.word
    GROUP BY t.doc_id, m.mlang
),
best AS (
    SELECT doc_id, mlang,
           ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY score DESC, mlang ASC) AS rn
    FROM scores
),
lab AS (
    SELECT COALESCE(b.mlang, 'und') AS pred_lang,
           CASE WHEN ('0x' || substr(md5(CAST(k.doc_id AS VARCHAR)), 1, 15))::BIGINT % 100
                     < {TRAIN_PCT} THEN 'train'
                WHEN ('0x' || substr(md5(CAST(k.doc_id AS VARCHAR)), 1, 15))::BIGINT % 100
                     < {TRAIN_PCT + VAL_PCT} THEN 'val'
                ELSE 'test' END AS split,
           k.n_tokens
    FROM kept k LEFT JOIN best b ON k.doc_id = b.doc_id AND b.rn = 1
)
SELECT pred_lang, split,
       COUNT(*) AS n_docs,
       CAST(SUM(n_tokens) AS BIGINT) AS n_tokens
FROM lab
GROUP BY pred_lang, split
ORDER BY pred_lang, split
"""


DOCS_CURATION_SQL = _curation_sql()


# ---------------------------------------------------------------------------
# Duplicated k-gram span statistics (the ExactSubstr dedup signal)


SPAN_K = 8


def _span_gram_rows(k: int, nb: int):
    """THE k-token sliding-window gram explode (one copy — the span
    STATS op and the span REMOVAL op both shuffle exactly these rows):
    (doc_id, pos, gram, __b) with ``pos`` 0-based and the bucket keyed
    on the gram string."""

    import pyarrow as pa

    def gram_rows(batch: pa.Table) -> pa.Table:
        doc_out, pos_out, gram_out = [], [], []
        for doc_id, text in zip(batch["doc_id"].to_numpy(),
                                batch["text"].to_pylist()):
            t = text.split(" ")
            n = len(t) - k + 1
            if n <= 0:
                continue
            gram_out.extend(" ".join(t[p : p + k]) for p in range(n))
            doc_out.extend([int(doc_id)] * n)
            pos_out.extend(range(n))
        bucket = pd.util.hash_array(np.asarray(gram_out, dtype=object)) % nb
        return pa.table(
            {
                "doc_id": pa.array(doc_out, pa.int64()),
                "pos": pa.array(pos_out, pa.int64()),
                "gram": pa.array(gram_out, pa.string()),
                "__b": pa.array(bucket.astype(np.int64)),
            }
        )

    return gram_rows


def docs_dup_span_stats(sf_dir: str, k: int = SPAN_K):
    """Per-document duplicated-span statistics — the signal behind
    Lee-et-al. ExactSubstr dedup, at k-token-window granularity instead
    of a suffix array: every sliding window of ``k`` tokens is a gram; an
    occurrence is DUPLICATED iff the same gram occurs elsewhere in the
    corpus and this occurrence is not the global first (ordered by
    (doc_id, pos) — first-occurrence-wins, the removable copies). Emits
    per doc: window count, duplicated-window count, and the ppm fraction.

    Scale shape: ONE gram-keyed shuffle (hash-bucketed, the line-dedup
    machinery at window granularity) carrying (gram, doc, pos); the
    per-doc totals ride a separate KB-per-batch rollup and join the dup
    counts in a bucketed grouped sum, so docs with no window (< k
    tokens) keep a row. ``DOCS_DUP_SPAN_SQL`` pins the DEFAULT
    ``k=SPAN_K``; non-default k is for tests/ad-hoc use only. Grams shuffle as strings for exact equality with
    the oracle; at 100 TB swap the key for a 128-bit fingerprint to
    halve the exchange (collision odds ~1e-15) — documented, not done,
    because the twin groups by the exact string."""
    from .common import _default_buckets

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    nb = _default_buckets()
    gram_rows = _span_gram_rows(k, nb)

    def mark_dups(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["gram", "doc_id", "pos"], kind="mergesort")
        dup = g.duplicated("gram", keep="first")  # every non-first occurrence
        # pre-combine per doc inside the group: one output row per
        # (bucket, doc) instead of one per duplicated occurrence
        per_doc = g.loc[dup, "doc_id"].value_counts()
        return pd.DataFrame(
            {
                "doc_id": per_doc.index.to_numpy(np.int64),
                "n_grams": np.zeros(len(per_doc), dtype=np.int64),
                "n_dup": per_doc.to_numpy(np.int64),
            }
        )

    dups = (
        ds.map_batches(gram_rows, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(mark_dups, batch_format="pandas")
    )

    def totals(batch: pd.DataFrame) -> pd.DataFrame:
        n_tok = (batch["text"].str.count(" ") + 1).to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "n_grams": np.maximum(n_tok - k + 1, 0),
                "n_dup": np.zeros(len(batch), dtype=np.int64),
            }
        )

    combined = grouped_sums(
        ds.map_batches(totals, batch_format="pandas").union(dups),
        ["doc_id"],
        ["n_grams", "n_dup"],
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        ng = batch["n_grams"].to_numpy(np.int64)
        nd = batch["n_dup"].to_numpy(np.int64)
        batch = batch.copy()
        batch["dup_ppm"] = np.where(ng > 0, nd * 1_000_000 // np.maximum(ng, 1), 0)
        return batch

    return combined.map_batches(finish, batch_format="pandas").sort("doc_id")


DOCS_DUP_SPAN_SQL = f"""
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
idx AS (
    SELECT doc_id, t,
           unnest(range(1, greatest(len(t) - {SPAN_K - 1}, 0) + 1)) AS pos
    FROM toks
),
w AS (
    SELECT doc_id, pos, array_to_string(t[pos:pos + {SPAN_K - 1}], ' ') AS gram
    FROM idx
),
r AS (
    SELECT doc_id,
           ROW_NUMBER() OVER (PARTITION BY gram ORDER BY doc_id, pos) AS rn
    FROM w
),
agg AS (
    SELECT doc_id,
           CAST(COUNT(*) AS BIGINT) AS n_grams,
           CAST(SUM(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup
    FROM r GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(a.n_grams, 0) AS n_grams,
       COALESCE(a.n_dup, 0) AS n_dup,
       CASE WHEN COALESCE(a.n_grams, 0) = 0 THEN 0
            ELSE a.n_dup * 1000000 // a.n_grams END AS dup_ppm
FROM documents d LEFT JOIN agg a USING (doc_id)
ORDER BY d.doc_id
"""


def docs_dup_span_remove(sf_dir: str, k: int = SPAN_K):
    """ExactSubstr REMOVAL (Lee et al. 2022, the step after the stats):
    rewrite each document with every duplicated k-token span EXCISED —
    a token is dropped iff it is covered by at least one k-window whose
    gram occurs elsewhere in the corpus earlier in (doc_id, pos) order
    (first occurrence kept, the removable copies cut). Emits per doc:
    original token count, removed-token count, and the cleaned text.

    Scale shape: the SAME single gram-keyed exchange as
    ``docs_dup_span_stats`` (shared ``_span_gram_rows``), but the bucket
    fold emits packed duplicated-window START positions per (bucket,
    doc) — ","-terminated integer runs whose bucketed string-concat
    combine is order-insensitive after the parse+unique — so the second
    exchange carries one narrow row per affected doc, not one per
    duplicated occurrence. The text column moves ONCE, through the
    doc_id-bucketed left cogroup; the rewrite is a vectorized
    delta-cumsum cover mask per doc. Assumption shared with the stats
    op: grams shuffle as strings for oracle-exact equality; fingerprint
    them at 100 TB."""
    from .common import _default_buckets, bucketed_group_agg, cogroup_join

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    nb = _default_buckets()
    gram_rows = _span_gram_rows(k, nb)

    def mark_cut_starts(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["gram", "doc_id", "pos"], kind="mergesort")
        dup = g.duplicated("gram", keep="first")  # every non-first occurrence
        d = g.loc[dup, ["doc_id", "pos"]]
        if not len(d):
            return pd.DataFrame(
                {"doc_id": np.array([], np.int64), "cuts": pd.Series([], dtype=object)}
            )
        per = d.groupby("doc_id", sort=False)["pos"].agg(
            lambda s: "".join(f"{int(p)}," for p in s)
        )
        return pd.DataFrame(
            {"doc_id": per.index.to_numpy(np.int64), "cuts": per.to_numpy(object)}
        )

    cuts = (
        ds.map_batches(gram_rows, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(mark_cut_starts, batch_format="pandas")
    )
    # ","-terminated runs concat safely under the string-sum combine in
    # any order; the rewrite parses + uniques, so the result is
    # deterministic regardless of bucket arrival order
    packed = bucketed_group_agg(cuts, ["doc_id"], {"cuts": "sum"})

    joined = cogroup_join(
        ds, packed, "doc_id", "doc_id", ["doc_id", "text"], ["cuts"], how="left"
    )

    def rewrite(batch: pd.DataFrame) -> pd.DataFrame:
        n_toks, n_rem, texts = [], [], []
        for text, cuts_s in zip(batch["text"], batch["cuts"]):
            toks = text.split(" ")
            n = len(toks)
            if isinstance(cuts_s, str) and cuts_s:
                starts = np.unique(
                    np.fromiter((int(x) for x in cuts_s.split(",") if x), dtype=np.int64)
                )
                # cover mask via delta-cumsum: +1 at each window start,
                # -1 past its end; covered where the running sum > 0
                delta = np.zeros(n + 1, dtype=np.int64)
                np.add.at(delta, starts, 1)
                np.add.at(delta, np.minimum(starts + k, n), -1)
                covered = np.cumsum(delta[:n]) > 0
                kept = [t for t, c in zip(toks, covered) if not c]
                removed = int(covered.sum())
            else:
                kept, removed = toks, 0
            n_toks.append(n)
            n_rem.append(removed)
            texts.append(" ".join(kept))
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "n_tokens": np.asarray(n_toks, np.int64),
                "n_removed": np.asarray(n_rem, np.int64),
                "clean_text": pd.Series(texts, dtype=object),
            }
        )

    return joined.map_batches(rewrite, batch_format="pandas").sort("doc_id")


DOCS_DUP_SPAN_REMOVE_SQL = f"""
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
idx AS (
    SELECT doc_id, t,
           unnest(range(1, greatest(len(t) - {SPAN_K - 1}, 0) + 1)) AS pos
    FROM toks
),
w AS (
    SELECT doc_id, pos, array_to_string(t[pos:pos + {SPAN_K - 1}], ' ') AS gram
    FROM idx
),
r AS (
    SELECT doc_id, pos,
           ROW_NUMBER() OVER (PARTITION BY gram ORDER BY doc_id, pos) AS rn
    FROM w
),
cover AS (
    SELECT DISTINCT r.doc_id, r.pos + o.off AS ti
    FROM r CROSS JOIN (SELECT unnest(range(0, {SPAN_K})) AS off) o
    WHERE r.rn > 1
),
tok_idx AS (
    SELECT doc_id, unnest(t) AS tok, generate_subscripts(t, 1) AS ti FROM toks
),
kept AS (
    SELECT ki.doc_id, ki.tok, ki.ti
    FROM tok_idx ki LEFT JOIN cover c ON c.doc_id = ki.doc_id AND c.ti = ki.ti
    WHERE c.ti IS NULL
),
agg AS (
    SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_kept,
           string_agg(tok, ' ' ORDER BY ti) AS clean_text
    FROM kept GROUP BY doc_id
)
SELECT d.doc_id,
       CAST(len(string_split(d.text, ' ')) AS BIGINT) AS n_tokens,
       CAST(len(string_split(d.text, ' ')) - COALESCE(a.n_kept, 0) AS BIGINT) AS n_removed,
       COALESCE(a.clean_text, '') AS clean_text
FROM documents d LEFT JOIN agg a USING (doc_id)
ORDER BY d.doc_id
"""


# ---------------------------------------------------------------------------
# Deterministic global shuffle (training order) via hash-range partitioning


SHUFFLE_SALT = "shuf:"
SHUFFLE_SHARD = 64  # docs per output shard; a shard ≈ one training file


def docs_global_shuffle(sf_dir: str, shard_size: int = SHUFFLE_SHARD):
    """Deterministic seeded GLOBAL shuffle of the corpus — the training-
    order randomization every pretraining run needs: each document gets a
    dense global ``shuffle_rank`` (0..n-1) in ascending order of its
    salted md5 hash, plus the output ``shard`` it lands in
    (``rank // shard_size`` — at production scale one shard = one output
    file, so a resumed run re-emits exactly the missing shards).

    Scale shape — NO comparison sort and no ``random_shuffle()``-style
    full exchange of the payload:

    1. the 60-bit hash key is uniform, so fixed VALUE-RANGE buckets over
       the key space are balanced by construction (no sampling pass, no
       skew: the hash destroys key clustering) — bucket = key // span,
    2. per-bucket counts roll up to the driver (R ≈ 2×CPUs rows), the
       exclusive cumsum gives each bucket's global rank offset, broadcast
       once via ``ray.put``,
    3. ONE hash-range shuffle of the narrow (doc_id, key) table
       co-locates each bucket; the in-group fold is a vectorized argsort
       seeded by the bucket offset. The text payload never moves — a
       downstream writer joins ranks back or reads docs by shard.

    Determinism / oracle parity: the key is the repo's shared md5
    hex-parse construct, bit-identical in DuckDB; ties (real at 10^12
    docs: ~4e5 expected 60-bit birthday collisions) break by doc_id on
    both engines, so the rank is a total order everywhere."""
    import ray

    from .common import _default_buckets

    n_buckets = _default_buckets()
    span = -(-(1 << 60) // n_buckets)

    def keyed(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["doc_id"].to_numpy(np.int64)
        k = _md5_hash15(d, SHUFFLE_SALT)
        return pd.DataFrame({"doc_id": d, "skey": k, "bucket": k // span})

    # NO materialize: the key table derives from doc_id alone (no text
    # read), so recomputing the md5 on the fold pass costs two cheap
    # integer-only scans instead of pinning an O(n-doc) narrow table
    # (~24 TB of object-store residency at 10^12 docs) between passes
    key_ds = _docs(sf_dir, columns=["doc_id"]).map_batches(keyed, batch_format="pandas")

    totals = (
        grouped_sums(key_ds, ["bucket"], [], count_alias="n")
        .to_pandas()
        .sort_values("bucket")
    )
    csum = totals["n"].cumsum().to_numpy(np.int64)
    offsets = dict(zip(totals["bucket"].to_numpy(np.int64), csum - totals["n"].to_numpy(np.int64)))
    off_ref = ray.put(offsets)

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        g = group.sort_values(["skey", "doc_id"], kind="mergesort")
        rank = off[int(g["bucket"].iloc[0])] + np.arange(len(g), dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "shuffle_rank": rank,
                "shard": rank // shard_size,
            }
        )

    return key_ds.groupby("bucket").map_groups(fold, batch_format="pandas").sort("doc_id")


DOCS_SHUFFLE_SQL = f"""
WITH k AS (
    SELECT doc_id,
           ('0x' || substr(md5('{SHUFFLE_SALT}' || CAST(doc_id AS VARCHAR)), 1, 15))::BIGINT
               AS skey
    FROM documents
),
r AS (
    SELECT doc_id,
           CAST(ROW_NUMBER() OVER (ORDER BY skey, doc_id) - 1 AS BIGINT) AS shuffle_rank
    FROM k
)
SELECT doc_id, shuffle_rank, shuffle_rank // {SHUFFLE_SHARD} AS shard
FROM r
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Curriculum ordering: exact global rank by quality score (skewed sort key)


RANK_PHASE = 64  # docs per curriculum phase (≈ one training stage's file)


def docs_quality_rank(
    sf_dir: str,
    n_buckets: int | None = None,
    hot_factor: int = 2,
    phase_size: int = RANK_PHASE,
):
    """Curriculum ordering: every document's exact global rank under
    ``ORDER BY quality DESC, doc_id`` (quality = the shared stopword-ratio
    ppm score), plus the curriculum ``phase`` it lands in. The complement
    of ``docs_global_shuffle``: that op ranks by a UNIFORM hash key where
    fixed value ranges are balanced by construction; a quality score is a
    bounded-domain but heavily TIED, skewed key — thousands of documents
    share one popular ratio — so balanced range partitioning has to be
    planned from data, not assumed.

    Scale shape — no comparison sort, no corpus-sized exchange:

    1. one pass renders the narrow (doc_id, score) table (16 B/doc,
       materialized),
    2. the EXACT score histogram rolls up to the driver — the score
       domain is bounded (ppm ∈ [0, 1e6]), so the rollup is ≤1e6 rows
       regardless of corpus size (cf. ``orders_price_quantiles``, which
       narrows iteratively because cents are unbounded),
    3. the driver greedy-packs consecutive scores (rank order) into
       ~equal-row buckets; a score whose tie-group alone exceeds
       ``hot_factor``× the target gets its own family of doc-id-range
       SUB-buckets — the hot-key salting this repo applies to hot
       conversations, here applied to hot rank keys,
    4. hot sub-bucket counts come from one extra narrow pass (only if hot
       scores exist); exclusive offsets per bucket broadcast once,
    5. ONE hash-range shuffle of the narrow table; each bucket's fold
       sorts locally by (score DESC, doc_id) and adds its offset.

    Exactness: buckets partition the corpus into contiguous rank ranges
    (non-hot buckets hold complete runs of consecutive scores; hot
    sub-buckets hold one score split by ascending doc-id ranges), so
    local sort + exclusive offset reproduces the global ROW_NUMBER
    bit-for-bit — pinned by the DuckDB twin and by the bucket/hot-factor
    independence test."""
    import ray

    from .common import _default_buckets
    from .text import stop_ratio_ppm_kernel

    def keyed(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "q": stop_ratio_ppm_kernel(batch["text"]),
            }
        )

    key_ds = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        keyed, batch_format="pandas"
    )
    # 16 B/doc pin, read ≤3 times (hist + hot + fold); kept because the
    # score derives from TEXT — recompute would re-scan the corpus per
    # pass. Residency budget at 10^12 docs: DESIGN_SCALE.md "Round-4:
    # narrow-table residency" (63 GB/node on 256 nodes, spillable).
    key_ds = key_ds.materialize()

    hist = (
        grouped_sums(key_ds, ["q"], [], count_alias="n")
        .to_pandas()
        .sort_values("q", ascending=False)
        .reset_index(drop=True)
    )
    span_ds = key_ds.map_batches(
        lambda b: pd.DataFrame(
            {"lo": [b["doc_id"].min()], "hi": [b["doc_id"].max()]}
        ),
        batch_format="pandas",
    ).to_pandas()
    dmin, dmax = int(span_ds["lo"].min()), int(span_ds["hi"].max())
    dspan = max(1, dmax - dmin + 1)

    total = int(hist["n"].sum())
    nb = n_buckets or _default_buckets()
    target = max(1, -(-total // nb))

    score2bucket: dict[int, int] = {}
    hot_info: dict[int, tuple[int, int]] = {}  # score -> (first bucket id, n_sub)
    bucket_counts: dict[int, int] = {}
    bid, fill = 0, 0
    for q_val, n_s in zip(hist["q"].to_numpy(np.int64), hist["n"].to_numpy(np.int64)):
        q_val, n_s = int(q_val), int(n_s)
        if n_s > hot_factor * target:
            if fill > 0:
                bid, fill = bid + 1, 0
            n_sub = -(-n_s // target)
            hot_info[q_val] = (bid, n_sub)
            bid += n_sub  # counts filled by the hot pass below
        else:
            score2bucket[q_val] = bid
            bucket_counts[bid] = bucket_counts.get(bid, 0) + n_s
            fill += n_s
            if fill >= target:
                bid, fill = bid + 1, 0
    n_buckets_total = bid + (1 if fill > 0 else 0)

    def _hot_bids(qv: np.ndarray, doc_ids: np.ndarray, hi: dict) -> np.ndarray:
        # ascending doc-id value ranges: sub-bucket order == doc_id order
        first = np.array([hi[int(x)][0] for x in qv], dtype=np.int64)
        nsub = np.array([hi[int(x)][1] for x in qv], dtype=np.int64)
        return first + (doc_ids - dmin) * nsub // dspan

    if hot_info:
        hot_ref = ray.put(hot_info)

        def hot_partial(batch: pd.DataFrame) -> pd.DataFrame:
            hi = ray.get(hot_ref)
            m = batch["q"].isin(list(hi))
            if not m.any():
                return pd.DataFrame(
                    {"bid": pd.Series([], dtype=np.int64), "n": pd.Series([], dtype=np.int64)}
                )
            sub = batch.loc[m]
            sub_bid = _hot_bids(
                sub["q"].to_numpy(np.int64), sub["doc_id"].to_numpy(np.int64), hi
            )
            out = pd.DataFrame({"bid": sub_bid}).groupby("bid", as_index=False).size()
            return out.rename(columns={"size": "n"}).astype({"n": np.int64})

        hot_counts = grouped_sums(
            key_ds.map_batches(hot_partial, batch_format="pandas"), ["bid"], ["n"]
        ).to_pandas()
        for row in hot_counts.itertuples():
            bucket_counts[int(row.bid)] = int(row.n)

    offsets: dict[int, int] = {}
    acc = 0
    for b in range(n_buckets_total):
        offsets[b] = acc
        acc += bucket_counts.get(b, 0)
    if acc != total:
        raise RuntimeError(f"quality_rank bucket plan lost rows: {acc} != {total}")

    plan_ref = ray.put((score2bucket, hot_info))

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        s2b, hi = ray.get(plan_ref)
        qs = pd.Series(batch["q"].to_numpy(np.int64))
        d = batch["doc_id"].to_numpy(np.int64)
        bid = qs.map(s2b).to_numpy(dtype=np.float64)  # NaN where score is hot
        hm = np.isnan(bid)
        if hm.any():
            bid[hm] = _hot_bids(qs.to_numpy(np.int64)[hm], d[hm], hi)
        return batch.assign(bid=bid.astype(np.int64))

    off_ref = ray.put(offsets)

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        g = group.sort_values(["q", "doc_id"], ascending=[False, True], kind="mergesort")
        rank = off[int(g["bid"].iloc[0])] + np.arange(len(g), dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "quality_ppm": g["q"].to_numpy(np.int64),
                "curriculum_rank": rank,
                "phase": rank // phase_size,
            }
        )

    return (
        key_ds.map_batches(assign, batch_format="pandas")
        .groupby("bid")
        .map_groups(fold, batch_format="pandas")
        .sort("doc_id")
    )


# stopword list hardcoded to match text.STOPWORDS / DOCS_QUALITY_SQL
DOCS_QUALITY_RANK_SQL = f"""
WITH q AS (
    SELECT doc_id, CAST(FLOOR(
        len(list_filter(string_split(text, ' '), w -> w IN ('the','a','and','of','to')))::DOUBLE
        / GREATEST(len(string_split(text, ' ')), 1) * 1000000 + 0.5) AS BIGINT) AS quality_ppm
    FROM documents
),
r AS (
    SELECT doc_id, quality_ppm,
           CAST(ROW_NUMBER() OVER (ORDER BY quality_ppm DESC, doc_id) - 1 AS BIGINT)
               AS curriculum_rank
    FROM q
)
SELECT doc_id, quality_ppm, curriculum_rank, curriculum_rank // {RANK_PHASE} AS phase
FROM r
ORDER BY doc_id
"""


# --- cross-source duplicate-contamination matrix ---------------------------

# fingerprints present in more sources than this are ubiquitous
# boilerplate, not a contamination signal — dropped (standard shingle
# practice); the SQL twin pins the same bound
OVERLAP_MAX_SOURCES = 64


def docs_cross_source_overlap(sf_dir: str, max_sources: int = OVERLAP_MAX_SOURCES):
    """Cross-source duplicate-contamination matrix: for every unordered
    source pair (a < b), the number of DISTINCT content fingerprints that
    occur in at least one document of each — the "which feeds share
    content" rollup a corpus audit runs before mixing sources.

    The synthetic corpus has no cross-source duplicates, so each document
    contributes the fingerprints of a deterministic paragraph overlay
    rendered from ``doc_id`` residues (the repo's surrogate recipe; both
    engines build the same strings analytically) alongside the
    fingerprint of its own text: a 149-family shared paragraph (each
    family lands in ≤4 of the 20 sources — a sparse matrix) and an
    11-family "press release" on ``doc_id % 4 == 1`` rows only.

    Distributed shape: per-batch DISTINCT (fp, source) partials → one
    fp-hash-bucketed exchange → per-bucket distinct + per-fp sorted
    source sets → pair emission (C(s,2) rows per fp, s ≤ ``max_sources``
    by the ubiquity cap, so the emission is bounded per fingerprint) →
    KB-sized grouped count per source pair. The only corpus-sized
    exchange carries deduped (fp, source) rows. Partitioning assumption:
    one fingerprint's sources fit one group — guaranteed by the cap."""
    import hashlib
    from itertools import combinations

    from ..runtime import read_parquet_sized
    from .common import _default_buckets, grouped_sums

    docs = read_parquet_sized(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "source", "text"]
    )

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        d = batch["doc_id"].to_numpy(np.int64)
        src = batch["source"].to_numpy(dtype=object)
        fps, srcs = [], []
        for texts, s in (
            (list(batch["text"]), src),  # the document's own content
            (["shared paragraph " + str(i % 149) for i in d], src),
            (["press release " + str(i % 11) for i in d[d % 4 == 1]], src[d % 4 == 1]),
        ):
            fps.extend(hashlib.md5(t.encode()).hexdigest()[:16] for t in texts)
            srcs.extend(s)
        return pd.DataFrame({"fp": fps, "source": srcs}).drop_duplicates()

    nb = _default_buckets()

    def bucket(batch: pd.DataFrame) -> pd.DataFrame:
        batch["__b"] = (
            pd.util.hash_pandas_object(batch["fp"], index=False).to_numpy() % nb
        ).astype(np.int64)
        return batch

    def emit_pairs(group: pd.DataFrame) -> pd.DataFrame:
        group = group.drop_duplicates(["fp", "source"])
        a_out, b_out = [], []
        for _fp, srcs in group.groupby("fp", sort=False)["source"]:
            ss = sorted(srcs)
            if 2 <= len(ss) <= max_sources:
                for a, b in combinations(ss, 2):
                    a_out.append(a)
                    b_out.append(b)
        return pd.DataFrame(
            {
                "source_a": pd.Series(a_out, dtype=object),
                "source_b": pd.Series(b_out, dtype=object),
                "shared_fps": np.ones(len(a_out), dtype=np.int64),
            }
        )

    pairs = (
        docs.map_batches(explode, batch_format="pandas")
        .map_batches(bucket, batch_format="pandas")
        .groupby("__b")
        .map_groups(emit_pairs, batch_format="pandas")
    )
    return grouped_sums(pairs, ["source_a", "source_b"], ["shared_fps"]).sort(
        ["source_a", "source_b"]
    )


DOCS_CROSS_SOURCE_SQL = f"""
WITH fps AS (
    SELECT DISTINCT fp, source FROM (
        SELECT substr(md5(text), 1, 16) AS fp, source FROM documents
        UNION ALL
        SELECT substr(md5('shared paragraph ' || CAST(doc_id % 149 AS VARCHAR)), 1, 16),
               source FROM documents
        UNION ALL
        SELECT substr(md5('press release ' || CAST(doc_id % 11 AS VARCHAR)), 1, 16),
               source FROM documents WHERE doc_id % 4 = 1
    )
),
keep AS (
    SELECT fp FROM fps GROUP BY fp
    HAVING COUNT(*) BETWEEN 2 AND {OVERLAP_MAX_SOURCES}
)
SELECT a.source AS source_a, b.source AS source_b,
       CAST(COUNT(*) AS BIGINT) AS shared_fps
FROM fps a JOIN fps b USING (fp) JOIN keep USING (fp)
WHERE a.source < b.source
GROUP BY 1, 2
ORDER BY 1, 2
"""


# --- context-window chunking ------------------------------------------------

CHUNK_SEQ_LEN = 32  # tokens per training window
CHUNK_STRIDE = 24  # window start stride (seq_len - stride = 8-token overlap)


def docs_chunk_windows(sf_dir: str, seq_len: int = CHUNK_SEQ_LEN, stride: int = CHUNK_STRIDE):
    """Sliding context-window chunking: each document becomes
    ``ceil(n_tokens / stride)`` training windows of up to ``seq_len``
    tokens starting every ``stride`` tokens (the fixed-context training
    sample generator; overlapping tails included). Output carries each
    window's start offset, its token count, and its first token — the
    text is genuinely indexed, not just counted.

    Distributed shape: map-only explode (the output is BIGGER than the
    input — inherent to chunking — and streams block by block; nothing
    shuffles, nothing aggregates). The per-window arithmetic is
    np.repeat/arange vectorized; the only per-row Python is one list
    index per OUTPUT window (C-level list getitem). Tokenization is the
    repo's single-space convention (== ``string_split(text, ' ')``)."""
    docs = _docs(sf_dir, columns=["doc_id", "text"])

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        text = batch["text"]
        n = (text.str.count(" ") + 1).to_numpy(np.int64)
        counts = (n + stride - 1) // stride  # windows per doc
        total = int(counts.sum())
        # window_idx within each doc: global arange minus each doc's
        # exclusive prefix of window counts
        widx = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        )
        start = widx * stride
        n_rep = np.repeat(n, counts)
        splits = text.str.split(" ").to_numpy(dtype=object)
        head = [sp[s] for sp, s in zip(np.repeat(splits, counts), start)]
        return pd.DataFrame(
            {
                "doc_id": np.repeat(batch["doc_id"].to_numpy(np.int64), counts),
                "window_idx": widx,
                "start_tok": start,
                "head_tok": pd.Series(head, dtype=object),
                "n_window_tokens": np.minimum(seq_len, n_rep - start),
            }
        )

    return docs.map_batches(explode, batch_format="pandas").sort(["doc_id", "window_idx"])


DOCS_CHUNK_SQL = f"""
WITH d AS (
    SELECT doc_id, len(string_split(text, ' ')) AS n, text FROM documents
)
SELECT doc_id,
       CAST(s // {CHUNK_STRIDE} AS BIGINT) AS window_idx,
       CAST(s AS BIGINT) AS start_tok,
       string_split(text, ' ')[CAST(s + 1 AS BIGINT)] AS head_tok,
       CAST(LEAST({CHUNK_SEQ_LEN}, n - s) AS BIGINT) AS n_window_tokens
FROM d, LATERAL UNNEST(generate_series(0, CAST(n - 1 AS BIGINT), {CHUNK_STRIDE})) AS t(s)
ORDER BY doc_id, window_idx
"""


# --- mixture budget allocation (epochs-capped water filling) ----------------

BUDGET_HALF_DENOM = 2  # training budget = total corpus tokens // 2
BUDGET_ROUNDS = 8  # fixed water-filling rounds (both engines run exactly these)


def docs_mixture_budget(sf_dir: str, rounds: int = BUDGET_ROUNDS):
    """Epochs-capped uniform mixture budgeting (the UniMax shape): split a
    token budget (half the corpus) equally across sources, cap each
    source at its available tokens, and redistribute the freed budget to
    the still-uncapped sources — ``rounds`` fixed integer water-filling
    rounds (floor division throughout, so the DuckDB twin replays the
    allocation bit-for-bit; leftover budget after the fixed rounds stays
    unallocated identically on both sides).

    Output per source: available tokens, allocated tokens, and the
    realized epoch rate in ppm (alloc*1e6 // avail).

    Distributed shape: ONE corpus-scale rollup (per-batch token-count
    partials → bucketed grouped sum → n_sources rows); the allocation
    loop runs over that bounded driver-sized table (sources are a
    catalog-scale set — 20 here, thousands at worst — the same
    "sketch + closed form" split as the KMV estimator)."""
    ds = _docs(sf_dir, columns=["source", "text"])

    def counts(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "source": batch["source"],
                "avail_tokens": (batch["text"].str.count(" ") + 1).astype(np.int64),
            }
        )

    from .common import grouped_sums

    per_source = (
        grouped_sums(ds.map_batches(counts, batch_format="pandas"), ["source"], ["avail_tokens"])
        .to_pandas()
        .sort_values("source")
        .reset_index(drop=True)
    )
    avail = per_source["avail_tokens"].to_numpy(np.int64)
    alloc = np.zeros(len(avail), dtype=np.int64)
    budget = int(avail.sum()) // BUDGET_HALF_DENOM
    remaining = budget
    for _ in range(rounds):
        active = avail > alloc
        n_active = int(active.sum())
        if n_active == 0 or remaining <= 0:
            break
        fair = remaining // n_active
        add = np.where(active, np.minimum(fair, avail - alloc), 0)
        alloc += add
        remaining -= int(add.sum())
    # ppm via Python ints (arbitrary precision): numpy `alloc * 1_000_000`
    # wraps int64 above ~9.2e12 allocated tokens — real at trillion-token
    # budgets — while the quotient itself is always ≤ 1e6; the table is
    # n_sources rows, so the object round-trip is free
    ppm = np.array(
        [a * 1_000_000 // max(v, 1) for a, v in zip(alloc.tolist(), avail.tolist())],
        dtype=np.int64,
    )
    return pd.DataFrame(
        {
            "source": per_source["source"],
            "avail_tokens": avail,
            "alloc_tokens": alloc,
            "epoch_ppm": ppm,
        }
    )


def _mixture_budget_sql(rounds: int = BUDGET_ROUNDS) -> str:
    parts = [
        """counts AS MATERIALIZED (
    SELECT source, CAST(SUM(len(string_split(text, ' '))) AS BIGINT) AS avail
    FROM documents GROUP BY source
),
b AS (SELECT SUM(avail) // 2 AS budget FROM counts),
r0 AS (SELECT source, avail, CAST(0 AS BIGINT) AS alloc FROM counts)"""
    ]
    for i in range(1, rounds + 1):
        p = f"r{i - 1}"
        parts.append(
            f"""r{i} AS MATERIALIZED (
    -- CAST keeps alloc BIGINT: SUM(BIGINT) is HUGEINT in DuckDB and
    -- would otherwise promote every later round (and the fetched dtype)
    SELECT source, avail,
           CAST(alloc + CASE WHEN avail > alloc
                        AND (SELECT COUNT(*) FROM {p} WHERE avail > alloc) > 0
                        AND (SELECT budget FROM b) - (SELECT SUM(alloc) FROM {p}) > 0
               THEN LEAST(
                   ((SELECT budget FROM b) - (SELECT SUM(alloc) FROM {p}))
                       // (SELECT COUNT(*) FROM {p} WHERE avail > alloc),
                   avail - alloc)
               ELSE 0 END AS BIGINT) AS alloc
    FROM {p})"""
        )
    return (
        "WITH "
        + ",\n".join(parts)
        + f"""
SELECT source, avail AS avail_tokens, alloc AS alloc_tokens,
       -- HUGEINT intermediate: BIGINT alloc*1e6 overflows above ~9.2e12
       -- tokens; the quotient is always ≤ 1e6
       CAST(CAST(alloc AS HUGEINT) * 1000000 // GREATEST(avail, 1) AS BIGINT) AS epoch_ppm
FROM r{rounds} ORDER BY source"""
    )


DOCS_MIXTURE_BUDGET_SQL = _mixture_budget_sql()


# --- weighted priority sampling ----------------------------------------------

PRIORITY_K = 50
PRIORITY_SALT = "prio-v1:"


def docs_priority_sample(sf_dir: str, k: int = PRIORITY_K):
    """Weighted sampling without replacement (the Duffield-Lund-Thorup
    priority-sample shape, integer-discretized): each document draws the
    deterministic salted-md5 60-bit hash and its priority is
    ``hash // weight`` with weight = token count — heavier documents get
    systematically smaller priorities, so the k smallest priorities form
    a weight-biased sample. Unlike ``docs_reservoir_sample`` (uniform
    per source) the inclusion odds scale with document SIZE — the
    token-budget-aware sample a corpus audit actually wants.

    Deterministic, resume/partition stable, and MERGEABLE: each block's
    k smallest priorities provably contain the global k smallest (the
    KMV partial-minima argument), so the shuffle moves ≤ k rows per
    block into one tiny final fold. Output ranked by (priority, doc_id).
    """
    ds = _docs(sf_dir, columns=["doc_id", "source", "text"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        w = (batch["text"].str.count(" ") + 1).to_numpy(np.int64)
        out = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "source": batch["source"],
                "weight_tokens": w,
                "priority": _md5_hash15(batch["doc_id"], PRIORITY_SALT) // w,
            }
        )
        # per-block prune: only each block's k smallest can win globally
        return out.nsmallest(k, ["priority", "doc_id"])

    pruned = ds.map_batches(derive, batch_format="pandas")

    def fold(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.nsmallest(k, ["priority", "doc_id"]).reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    # the pruned partials are ≤ k·n_blocks tiny rows — one-block fold
    return pruned.repartition(1).map_batches(fold, batch_format="pandas")


DOCS_PRIORITY_SQL = f"""
WITH w AS (
    SELECT doc_id, source,
           CAST(len(string_split(text, ' ')) AS BIGINT) AS weight_tokens,
           CAST(('0x' || substr(md5('{PRIORITY_SALT}' || CAST(doc_id AS VARCHAR)), 1, 15))::BIGINT
                // len(string_split(text, ' ')) AS BIGINT) AS priority
    FROM documents
)
SELECT doc_id, source, weight_tokens, priority,
       CAST(ROW_NUMBER() OVER (ORDER BY priority, doc_id) AS BIGINT) AS rank
FROM w
ORDER BY priority, doc_id
LIMIT {PRIORITY_K}
"""


# ---------------------------------------------------------------------------
# per-source percentile normalization (cross-source quality calibration)


_SCORE_SQL = """CAST(FLOOR(
    len(list_filter(string_split(text, ' '), w -> w IN ('the','a','and','of','to')))::DOUBLE
    / GREATEST(len(string_split(text, ' ')), 1) * 1000000 + 0.5) AS BIGINT)"""


def docs_source_percentile(sf_dir: str):
    """Per-SOURCE percentile rank of each document's quality score —
    the calibration step that makes quality thresholds comparable across
    heterogeneous sources (a web crawl's p50 and a books corpus's p50
    sit at very different raw ratios, so "drop the worst decile" must be
    a within-source statement). ``pctl_ppm = strict_below · 1e6 //
    n_source`` with strict_below = docs in the same source with a
    strictly lower score — identical to SQL ``RANK() − 1`` partitioned
    by source, which is what the twin uses.

    Scale shape — no per-group sort, no corpus-sized exchange:

    1. one corpus pass renders (doc_id, source, score) — score is the
       shared stopword-ratio ppm (``text.stop_ratio_ppm_kernel``),
    2. the (source, score) histogram rolls up via bucketed sums — the
       score domain is bounded (ppm ∈ [0, 1e6]), so this is ≤ |sources|
       × 1e6 rows regardless of corpus size (the same bounded-domain
       argument ``docs_quality_rank`` rests on),
    3. the driver computes per-source exclusive prefix sums over the
       ≤1e6-row histogram (the distributed prefix-offset shape of
       ``events_running_total``, degenerate here because the reduced
       table is domain-bounded),
    4. below-counts ship BACK by a hash-bucketed cogroup join on the
       composite (source, score) key — never broadcast: at |sources| ×
       1e6 entries the map is megabytes today but source-count scales
       with corpus curation, and the join is free next to the render
       pass."""
    from .common import bucketed_group_agg, cogroup_join, grouped_sums
    from .text import stop_ratio_ppm_kernel

    SEP = "\x1f"

    def keyed(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "source": batch["source"].to_numpy(dtype=object),
                "q": stop_ratio_ppm_kernel(batch["text"]),
            }
        )

    keys = _docs(sf_dir, columns=["doc_id", "source", "text"]).map_batches(
        keyed, batch_format="pandas"
    ).materialize()  # 3 narrow columns; read by histogram + join passes

    hist = (
        grouped_sums(keys, ["source", "q"], [], count_alias="n")
        .to_pandas()
        .sort_values(["source", "q"], kind="mergesort")
        .reset_index(drop=True)
    )
    grp = hist.groupby("source", sort=False)
    hist["below"] = grp["n"].cumsum() - hist["n"]
    hist["n_source"] = grp["n"].transform("sum").astype(np.int64)
    below = pd.DataFrame(
        {
            "sk": hist["source"].str.cat(hist["q"].astype(str), sep=SEP).to_numpy(object),
            "below": hist["below"].astype(np.int64),
            "n_source": hist["n_source"].astype(np.int64),
        }
    )

    import ray.data

    joined = cogroup_join(
        keys.map_batches(
            lambda b: b.assign(
                sk=b["source"].str.cat(b["q"].astype(str), sep=SEP).astype(object)
            ),
            batch_format="pandas",
        ),
        ray.data.from_pandas(below),
        "sk",
        "sk",
        ["doc_id", "source", "q"],
        ["below", "n_source"],
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        bl = batch["below"].to_numpy()
        ns = batch["n_source"].to_numpy()
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "source": batch["source"].astype(object),
                "q": batch["q"],
                "below": bl,
                "n_source": ns,
                "pctl_ppm": (bl * 1_000_000) // np.maximum(ns, 1),
            }
        )

    return joined.map_batches(finish, batch_format="pandas").sort("doc_id")


DOCS_SOURCE_PCTL_SQL = f"""
WITH q AS (SELECT doc_id, source, {_SCORE_SQL} AS q FROM documents),
per AS (
    SELECT doc_id, source, q,
           COUNT(*) OVER (PARTITION BY source) AS n_source,
           RANK() OVER (PARTITION BY source ORDER BY q) - 1 AS below
    FROM q
)
SELECT doc_id, source, CAST(q AS BIGINT) AS q, CAST(below AS BIGINT) AS below,
       CAST(n_source AS BIGINT) AS n_source,
       CAST((below * 1000000) // n_source AS BIGINT) AS pctl_ppm
FROM per ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# rejection-reason bitmap (the curation audit trail)


REJECT_MIN_TOKENS = 5
REJECT_STOP_PPM = 20_000
REJECT_MAX_TOKEN_LEN = 20
REJECT_DUP_PPM = 940_000
REJECT_BIGRAM_PPM = 250_000

REJECT_BITS = (
    ("too_few_tokens", 1),
    ("low_stopword_ratio", 2),
    ("overlong_token", 4),
    ("repeated_tokens", 8),
    ("dominant_bigram", 16),
)


def docs_reject_reasons(sf_dir: str):
    """Per-document quality-filter REASON bitmap — not just the keep/drop
    bit but which Gopher-style rule(s) fired: the audit trail a curation
    pipeline needs to tune thresholds and explain corpus composition
    drift (every production filter ships with per-rule rejection stats).
    One map-only pass composes the shared integer signals (token/stop
    counts from ``docs_quality``'s kernel, repetition ppms from
    ``repetition_frame``); ``reasons`` is the OR of the per-rule bits,
    ``accept`` its zero test. Bit meanings in ``REJECT_BITS``;
    thresholds are calibrated to the synthetic corpus's own score
    distributions so the bitmap DISCRIMINATES (a filter rejecting ~all
    or ~nothing audits nothing).
    Bit-exact in DuckDB (``DOCS_REJECT_SQL``)."""
    from .text import STOPWORDS, _stop_ratio_ppm, repetition_frame

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        rep = repetition_frame(batch)
        toks = batch["text"].str.split(" ")
        n_tokens = toks.str.len().to_numpy(np.int64)
        flat = toks.explode()
        n_stop = flat.isin(STOPWORDS).groupby(level=0).sum().to_numpy(np.int64)
        max_len = flat.str.len().astype(np.int64).groupby(level=0).max().to_numpy(np.int64)
        stop_ppm = _stop_ratio_ppm(n_stop, n_tokens)
        reasons = (
            np.where(n_tokens < REJECT_MIN_TOKENS, 1, 0)
            | np.where(stop_ppm < REJECT_STOP_PPM, 2, 0)
            | np.where(max_len > REJECT_MAX_TOKEN_LEN, 4, 0)
            | np.where(rep["dup_tokens_ppm"].to_numpy(np.int64) > REJECT_DUP_PPM, 8, 0)
            | np.where(rep["top_bigram_ppm"].to_numpy(np.int64) > REJECT_BIGRAM_PPM, 16, 0)
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "reasons": reasons,
                "accept": (reasons == 0).astype(np.int64),
            }
        )

    return ds.map_batches(derive, batch_format="pandas").sort("doc_id")


DOCS_REJECT_SQL = f"""
WITH q AS (
    SELECT doc_id,
           len(string_split(text, ' ')) AS n_tokens,
           CAST(FLOOR(
               len(list_filter(string_split(text, ' '), w -> w IN ('the','a','and','of','to')))::DOUBLE
               / GREATEST(len(string_split(text, ' ')), 1) * 1000000 + 0.5) AS BIGINT) AS stop_ppm,
           list_max(list_transform(string_split(text, ' '), w -> len(w))) AS max_token_len
    FROM documents
),
toks AS (
    SELECT doc_id,
           unnest(string_split(text, ' ')) AS tok,
           generate_subscripts(string_split(text, ' '), 1) AS ord
    FROM documents
),
tc AS (SELECT doc_id, tok, COUNT(*) AS c FROM toks GROUP BY doc_id, tok),
dup AS (
    SELECT doc_id, SUM(CASE WHEN c > 1 THEN c ELSE 0 END) AS dup_toks
    FROM tc GROUP BY doc_id
),
bg AS (
    SELECT a.doc_id, a.tok || ' ' || b.tok AS g
    FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.ord = a.ord + 1
),
bc AS (SELECT doc_id, g, COUNT(*) AS c FROM bg GROUP BY doc_id, g),
top2 AS (
    SELECT doc_id, MAX(c) AS c FROM bc GROUP BY doc_id
),
sel AS (
    SELECT q.doc_id,
           CASE WHEN q.n_tokens < {REJECT_MIN_TOKENS} THEN 1 ELSE 0 END
         + CASE WHEN q.stop_ppm < {REJECT_STOP_PPM} THEN 2 ELSE 0 END
         + CASE WHEN q.max_token_len > {REJECT_MAX_TOKEN_LEN} THEN 4 ELSE 0 END
         + CASE WHEN CAST(FLOOR(COALESCE(dup.dup_toks, 0)::DOUBLE
                     / GREATEST(q.n_tokens, 1) * 1000000 + 0.5) AS BIGINT)
                > {REJECT_DUP_PPM} THEN 8 ELSE 0 END
         + CASE WHEN q.n_tokens > 1 AND CAST(FLOOR(COALESCE(top2.c, 0)::DOUBLE
                     / GREATEST(q.n_tokens - 1, 1) * 1000000 + 0.5) AS BIGINT)
                > {REJECT_BIGRAM_PPM} THEN 16 ELSE 0 END AS reasons
    FROM q LEFT JOIN dup USING (doc_id) LEFT JOIN top2 USING (doc_id)
)
SELECT doc_id, CAST(reasons AS BIGINT) AS reasons,
       CAST(CASE WHEN reasons = 0 THEN 1 ELSE 0 END AS BIGINT) AS accept
FROM sel ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Per-source distributional drift: exact total-variation distance between
# each source's token distribution and the corpus distribution — the
# training-mix diagnostic that says WHICH feed's unigram profile has moved.
# TV (unlike KL/chi-square) sums exact integer numerators over one common
# denominator 2*n_s*N, so a single floor at the end keeps engine and twin
# bit-identical with no per-term rounding or logarithms:
#   tv_ppm = floor(1e6 * sum_t |obs*N - C_t*n_s| / (2*n_s*N)),
# where absent tokens contribute |0 - C_t*n_s| and collapse to the closed
# form n_s*(N - sum_{t in s} C_t) — no cross join over the vocabulary.


def docs_source_drift(sf_dir: str):
    """(source, n_tokens, tv_ppm) sorted by source.

    Distributed shape: token explode -> per-batch partial counts ->
    bucketed (source, token) sums; per-token corpus totals via a second
    KB-sized combine over that rollup, attached through a token-bucketed
    cogroup JOIN (the vocabulary is corpus-scale on real data — the same
    joined-not-broadcast rule as ``docs_tfidf``/``docs_lm_coverage``);
    per-source totals ARE bounded (the repo's documented bounded-source
    assumption) and ride along as a broadcast dict. The final fold runs
    in Python ints over a sources-sized frame — obs*N products leave
    int64 near N ~ 2^31, exactly the mixture-budget engine/twin
    divergence class, so the numerator never touches numpy."""
    from .common import cogroup_join

    ds = _docs(sf_dir, columns=["source", "text"])

    def tok_counts(batch: pd.DataFrame) -> pd.DataFrame:
        ex = batch[["source"]].assign(t=batch["text"].str.split(" ")).explode("t")
        g = ex.groupby(["source", "t"], sort=False).size().reset_index(name="obs")
        g["obs"] = g["obs"].astype(np.int64)
        return g

    st = grouped_sums(
        ds.map_batches(tok_counts, batch_format="pandas"), ["source", "t"], ["obs"]
    ).materialize()

    def strip_src(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[["t", "obs"]].rename(columns={"obs": "ct"})

    tt = grouped_sums(
        st.map_batches(strip_src, batch_format="pandas"), ["t"], ["ct"]
    )

    # bounded source set: per-source totals fit the driver by assumption
    ss = (
        grouped_sums(
            st.map_batches(lambda b: b[["source", "obs"]], batch_format="pandas"),
            ["source"], ["obs"],
        )
        .to_pandas()
        .set_index("source")["obs"]
        .to_dict()
    )
    big_n = int(sum(ss.values()))

    joined = cogroup_join(st, tt, "t", "t", ["source", "obs"], ["ct"])

    # object-store broadcast (ray.put once, read per task) — not a closure
    # capture re-pickled with the UDF for every task
    from .common import broadcast

    ss_ref = broadcast(ss)

    def partial_terms(batch: pd.DataFrame, _ref=ss_ref) -> pd.DataFrame:
        import ray as _ray

        ss = _ray.get(_ref)
        out = {}
        for src, obs, ct in zip(batch["source"], batch["obs"], batch["ct"]):
            ns = ss[src]
            a, b = out.get(src, (0, 0))
            out[src] = (a + abs(int(obs) * big_n - int(ct) * ns), b + int(ct))
        return pd.DataFrame(
            {
                "source": pd.Series(list(out), dtype=object),
                # Python-int sums serialized as strings: the per-source
                # numerators exceed int64 long before N does
                "terms": pd.Series([str(v[0]) for v in out.values()], dtype=object),
                "ct_present": pd.Series([str(v[1]) for v in out.values()], dtype=object),
            }
        )

    parts = joined.map_batches(partial_terms, batch_format="pandas").to_pandas()

    rows = []
    for src in sorted(ss):
        ns = int(ss[src])
        sub = parts[parts["source"] == src]
        terms = sum(int(x) for x in sub["terms"])
        ct_present = sum(int(x) for x in sub["ct_present"])
        num = terms + ns * (big_n - ct_present)
        rows.append((src, ns, (1_000_000 * num) // (2 * ns * big_n)))
    out = pd.DataFrame(rows, columns=["source", "n_tokens", "tv_ppm"])
    out[["n_tokens", "tv_ppm"]] = out[["n_tokens", "tv_ppm"]].astype(np.int64)

    import ray.data

    return ray.data.from_pandas(out)


DOCS_SOURCE_DRIFT_SQL = """
WITH tok AS (
    SELECT source, unnest(string_split(text, ' ')) AS t FROM documents
),
st AS MATERIALIZED (SELECT source, t, COUNT(*) AS obs FROM tok GROUP BY 1, 2),
tt AS (SELECT t, CAST(SUM(obs) AS HUGEINT) AS ct FROM st GROUP BY 1),
ss AS (SELECT source, CAST(SUM(obs) AS HUGEINT) AS ns FROM st GROUP BY 1),
tot AS (SELECT CAST(SUM(obs) AS HUGEINT) AS n FROM st),
present AS (
    SELECT st.source AS source,
           SUM(ABS(CAST(st.obs AS HUGEINT) * tot.n - tt.ct * ss.ns)) AS terms,
           SUM(tt.ct) AS ct_present
    FROM st
    JOIN tt USING (t)
    JOIN ss USING (source)
    CROSS JOIN tot
    GROUP BY 1
)
SELECT p.source AS source,
       CAST(ss.ns AS BIGINT) AS n_tokens,
       CAST((1000000 * (p.terms + ss.ns * (tot.n - p.ct_present)))
            // (2 * ss.ns * tot.n) AS BIGINT) AS tv_ppm
FROM present p
JOIN ss USING (source)
CROSS JOIN tot
ORDER BY source
"""


# ---------------------------------------------------------------------------
# Incremental (cross-shard) dedup: dedup a NEW ingest shard against the
# fingerprint index of already-ingested data — the checkpoint-resume shape
# of corpus dedup (a production run reads the index side from the previous
# run's fingerprint parquet; here the elder shard plays that role so the
# whole flow is self-contained and SQL-checkable). New documents that share
# an opening-paragraph fingerprint with any indexed document are flagged
# with the canonical (minimum) index doc_id they duplicate.


def docs_incremental_dedup(sf_dir: str):
    """(doc_id, fp, dup_of) for every NEW-shard document, sorted by doc_id;
    ``dup_of`` = min index doc_id sharing the fingerprint, -1 when the
    fingerprint is unseen. Shards split on the source number (src0-src9 =
    index, src10+ = new). Fingerprints are the shared-paragraph overlay
    construct ``docs_cross_source_overlap`` uses, widened to 331 families
    (the raw corpus has no cross-shard duplicates; 331 families over a
    250-doc index make BOTH branches real — 149 would leave no unseen
    fingerprint at all; both engines md5 the same rendered string).

    Distributed shape: fp + shard derived map-side; the index side reduces
    to (fp, min doc_id) through a bucketed combine BEFORE the join (index
    cardinality, not corpus); one fp-bucketed cogroup LEFT join attaches
    the verdict to new-shard rows. Nothing corpus-sized reaches the
    driver; the join is the repo's standard hash-bucketed exchange."""
    import hashlib as _hl

    from .common import bucketed_group_agg, cogroup_join

    docs = _docs(sf_dir, columns=["doc_id", "source"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["doc_id"].to_numpy(np.int64)
        fps = [
            _hl.md5(f"ingest paragraph {i % 331}".encode()).hexdigest()[:16]
            for i in d
        ]
        srcnum = batch["source"].str.slice(3).astype(np.int64)
        return pd.DataFrame(
            {"doc_id": d, "fp": pd.Series(fps, dtype=object), "is_new": srcnum >= 10}
        )

    tagged = docs.map_batches(derive, batch_format="pandas").materialize()

    index_min = bucketed_group_agg(
        tagged.map_batches(
            lambda b: b.loc[~b["is_new"], ["fp", "doc_id"]].rename(
                columns={"doc_id": "dup_of"}
            ),
            batch_format="pandas",
        ),
        ["fp"],
        {"dup_of": "min"},
    )
    new_rows = tagged.map_batches(
        lambda b: b.loc[b["is_new"], ["doc_id", "fp"]], batch_format="pandas"
    )

    joined = cogroup_join(
        new_rows, index_min, "fp", "fp", ["doc_id", "fp"], ["dup_of"], how="left"
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "fp": batch["fp"].astype(object),
                "dup_of": batch["dup_of"].fillna(-1).astype(np.int64),
            }
        )
        return out

    return joined.map_batches(finish, batch_format="pandas").sort("doc_id")


DOCS_INCR_DEDUP_SQL = """
WITH tagged AS (
    SELECT doc_id,
           substr(md5('ingest paragraph ' || CAST(doc_id % 331 AS VARCHAR)), 1, 16) AS fp,
           CAST(substr(source, 4) AS BIGINT) >= 10 AS is_new
    FROM documents
),
idx AS (
    SELECT fp, MIN(doc_id) AS dup_of FROM tagged WHERE NOT is_new GROUP BY 1
)
SELECT t.doc_id AS doc_id, t.fp AS fp,
       COALESCE(i.dup_of, -1) AS dup_of
FROM tagged t LEFT JOIN idx i USING (fp)
WHERE t.is_new
ORDER BY t.doc_id
"""


HRW_NODES = 16


def hrw_assign(doc_ids, n_nodes: int = HRW_NODES, drop_node: int | None = None) -> np.ndarray:
    """Rendezvous / highest-random-weight node per key: argmax over nodes
    of the shared md5 60-bit hash of ``"<node>:<doc_id>"``. Pure kernel —
    vectorized over keys with one hash column per node (node count is
    small and fixed; at 100 TB the per-key cost is ``n_nodes`` md5 calls,
    map-side — swap in an integer mixer if that ever dominates).
    ``drop_node`` simulates removing a node from the ring: HRW's theorem
    says ONLY keys assigned to the dropped node move (pinned by test)."""
    cols = []
    nodes = [n for n in range(n_nodes) if n != drop_node]
    for node in nodes:
        cols.append(_md5_hash15(doc_ids, salt=f"{node}:"))
    w = np.stack(cols, axis=1)
    return np.array(nodes, dtype=np.int64)[np.argmax(w, axis=1)]


def docs_shard_assign(sf_dir: str, n_nodes: int = HRW_NODES):
    """Rendezvous-hash shard placement accounting: every document maps to
    its highest-random-weight node (the consistent-placement scheme used
    for cache/shard affinity — unlike ``hash % n``, resizing the node set
    relocates only 1/n of the keys). Map-only per-doc assignment + a
    node-sized rollup (docs, tokens per node); the balance of the rollup
    is the op's observable, and the minimal-movement theorem is pinned by
    the kernel test. The DuckDB twin replays the argmax via a
    ``range(n)`` cross join + ROW_NUMBER."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def part(batch: pd.DataFrame) -> pd.DataFrame:
        node = hrw_assign(batch["doc_id"].to_numpy(), n_nodes)
        toks = batch["text"].str.split(" ").str.len().to_numpy().astype(np.int64)
        df = pd.DataFrame({"node": node, "n_docs": np.int64(1), "n_tokens": toks})
        return df.groupby("node", as_index=False, sort=False).sum()

    from .common import bucketed_group_agg

    out = bucketed_group_agg(
        ds.map_batches(part, batch_format="pandas"),
        ["node"],
        {"n_docs": "sum", "n_tokens": "sum"},
    )

    def to_int(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.astype({"node": np.int64, "n_docs": np.int64, "n_tokens": np.int64})

    return out.map_batches(to_int, batch_format="pandas")


DOCS_SHARD_ASSIGN_SQL = f"""
WITH a AS (
    SELECT doc_id,
           len(string_split(text, ' ')) AS toks,
           node,
           ('0x' || substr(md5(CAST(node AS VARCHAR) || ':' || CAST(doc_id AS VARCHAR)), 1, 15))::BIGINT AS w
    FROM documents, range({HRW_NODES}) t(node)
),
best AS (
    SELECT doc_id, toks, node FROM a
    QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY w DESC, node) = 1
)
SELECT CAST(node AS BIGINT) AS node,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(toks) AS BIGINT) AS n_tokens
FROM best GROUP BY node ORDER BY node
"""


def normalize_overlay_arrays(batch):
    """THE dirty-overlay + RE2-normalize kernel (one copy): given a
    pyarrow batch with (doc_id, text), returns (dirty, trimmed) arrays —
    shared by ``docs_normalize`` and the composed retrieval pipeline
    (ops/text.docs_retrieval_pipeline) so the Python side can never
    drift from the ``DOCS_NORMALIZE_SQL`` fragment both twins nest."""
    import pyarrow as pa
    import pyarrow.compute as pc

    d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    t = batch["text"]
    body = pc.if_else(pa.array(d % 7 == 3), pc.utf8_upper(t), t)
    prefix = pa.array(
        np.where(d % 4 == 0, "  Hello, WORLD!! ", np.where(d % 3 == 1, "\t(Re: \u00a74) ", "")),
        type=pa.string(),
    )
    suffix = pa.array(
        np.where(d % 5 == 2, " ***End.  ", np.where(d % 3 == 0, "  -- footer --", "")),
        type=pa.string(),
    )
    dirty = pc.binary_join_element_wise(prefix, body, suffix, "")
    low = pc.utf8_lower(dirty)
    stripped = pc.replace_substring_regex(low, pattern=r"[^a-z0-9\s]", replacement="")
    collapsed = pc.replace_substring_regex(stripped, pattern=r"\s+", replacement=" ")
    trimmed = pc.replace_substring_regex(collapsed, pattern=r"^ | $", replacement="")
    return dirty, trimmed


def docs_normalize(sf_dir: str):
    """Deterministic text normalization — the cleaning pass upstream of
    tokenization/dedup: lowercase → strip non-alphanumerics → collapse
    whitespace runs → trim, all expressed as RE2 kernels so pyarrow and
    DuckDB execute the IDENTICAL regex semantics byte-for-byte (the
    ``docs_pii_redact`` recipe; no ``trim()``/``utf8_trim`` builtins,
    whose whitespace classes differ between engines — the edge chain
    ``'^ | $'`` stays inside RE2).

    The synthetic corpus is already lowercase-alnum, so a deterministic
    DIRTY overlay rendered from doc_id (the repo's surrogate recipe —
    residue-conditional caps/punctuation prefixes, trailing junk, and a
    full-uppercase regime) makes every normalization rule observable;
    zero-overlay rows ride through too (doc_id residue 6 mod 7 ∧ 3 mod 4
    ∧ 2 mod 3 gets no edit). The twin re-renders the overlay
    analytically.

    Map-ONLY on the zero-copy Arrow path: the overlay render and four
    vectorized ``pyarrow.compute`` string kernels per batch, no pandas
    materialization, nothing shuffles at any corpus size."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def norm(batch: pa.Table) -> pa.Table:
        dirty, trimmed = normalize_overlay_arrays(batch)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "norm_text": trimmed,
                "n_chars_raw": pc.cast(pc.utf8_length(dirty), pa.int64()),
                "n_chars_norm": pc.cast(pc.utf8_length(trimmed), pa.int64()),
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow")


DOCS_NORMALIZE_SQL = r"""
WITH dirty AS (
    SELECT doc_id,
           (CASE WHEN doc_id % 4 = 0 THEN '  Hello, WORLD!! '
                 WHEN doc_id % 3 = 1 THEN chr(9) || '(Re: ' || chr(167) || '4) '
                 ELSE '' END)
           || (CASE WHEN doc_id % 7 = 3 THEN upper(text) ELSE text END)
           || (CASE WHEN doc_id % 5 = 2 THEN ' ***End.  '
                    WHEN doc_id % 3 = 0 THEN '  -- footer --'
                    ELSE '' END) AS t
    FROM documents
),
n AS (
    SELECT doc_id, t,
           regexp_replace(
               regexp_replace(
                   regexp_replace(lower(t), '[^a-z0-9\s]', '', 'g'),
                   '\s+', ' ', 'g'),
               '^ | $', '', 'g') AS norm_text
    FROM dirty
)
SELECT doc_id, norm_text,
       CAST(length(t) AS BIGINT) AS n_chars_raw,
       CAST(length(norm_text) AS BIGINT) AS n_chars_norm
FROM n
ORDER BY doc_id
"""
