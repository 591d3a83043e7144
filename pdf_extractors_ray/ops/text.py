"""Text-analysis operators over the ``documents`` table: token counting,
quality scoring, fingerprinting, regex keyword extraction, language-ID.

All per-document work is vectorized or batch-local; the only shuffles are
tiny grouped rollups over per-batch partials.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd

from .common import grouped_sums

STOPWORDS = ("the", "a", "and", "of", "to")

# tiny per-language stopword banks for the n-gram/stopword language-ID
# heuristic (no external models in this container)
LANG_MARKERS = {
    "en": {"the", "and", "of", "a", "to", "value", "fast"},
    "fr": {"le", "la", "et", "de", "un", "vite"},
    "es": {"el", "la", "y", "de", "un", "rapido"},
    "de": {"der", "die", "und", "von", "ein", "schnell"},
    "zh": {"de5", "he2", "yi1"},
}


def _docs(sf_dir: str, columns=None):
    from ..runtime import read_parquet_sized

    return read_parquet_sized(os.path.join(sf_dir, "documents.parquet"), columns=columns)


def docs_token_stats(sf_dir: str):
    """Per-language totals: docs, tokens (single-space split), chars."""
    ds = _docs(sf_dir, columns=["lang", "text"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"]
        return pd.DataFrame(
            {
                "lang": batch["lang"],
                "n_docs": np.int64(1),
                "n_tokens": (text.str.count(" ") + 1).astype(np.int64),
                "n_chars": text.str.len().astype(np.int64),
            }
        )

    ds = ds.map_batches(derive, batch_format="pandas")
    return grouped_sums(ds, ["lang"], ["n_docs", "n_tokens", "n_chars"]).sort("lang")


DOCS_TOKEN_STATS_SQL = """
SELECT lang,
       COUNT(*) AS n_docs,
       CAST(SUM(len(string_split(text, ' '))) AS BIGINT) AS n_tokens,
       CAST(SUM(len(text)) AS BIGINT) AS n_chars
FROM documents
GROUP BY lang
ORDER BY lang
"""


def _stop_ratio_ppm(n_stop: np.ndarray, n_tokens: np.ndarray) -> np.ndarray:
    """Fixed-point stopword-ratio quality score — same IEEE divide + floor
    both engines. Shared by ``docs_quality`` and the curriculum ranking op
    so the two can never diverge on the score definition."""
    return np.floor(n_stop / np.maximum(n_tokens, 1) * 1e6 + 0.5).astype(np.int64)


def stop_ratio_ppm_kernel(texts: pd.Series) -> np.ndarray:
    """Stopword-ratio score straight from text (one explode + fold)."""
    texts = texts.reset_index(drop=True)
    toks = texts.str.split(" ")
    n_tokens = toks.str.len().to_numpy(np.int64)
    n_stop = toks.explode().isin(STOPWORDS).groupby(level=0).sum().to_numpy(np.int64)
    return _stop_ratio_ppm(n_stop, n_tokens)


def docs_quality(sf_dir: str):
    """Per-document quality signals: token count, char count, stopword
    count, max token length (integer-exact for the SQL oracle; ratio views
    derive from these)."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        # one explode + two index-grouped folds — no per-row Python lambdas
        toks = batch["text"].str.split(" ")
        flat = toks.explode()
        tok_len = flat.str.len().astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": toks.str.len().astype(np.int64),
                "n_chars": batch["text"].str.len().astype(np.int64),
                "n_stopwords": flat.isin(STOPWORDS).groupby(level=0).sum().astype(np.int64),
                "max_token_len": tok_len.groupby(level=0).max().astype(np.int64),
            }
        ).assign(
            stop_ratio_ppm=lambda d: _stop_ratio_ppm(
                d["n_stopwords"].to_numpy(), d["n_tokens"].to_numpy()
            )
        )

    return ds.map_batches(derive, batch_format="pandas").sort("doc_id")


DOCS_QUALITY_SQL = """
SELECT doc_id,
       len(string_split(text, ' ')) AS n_tokens,
       len(text) AS n_chars,
       len(list_filter(string_split(text, ' '), w -> w IN ('the','a','and','of','to'))) AS n_stopwords,
       list_max(list_transform(string_split(text, ' '), w -> len(w))) AS max_token_len,
       CAST(FLOOR(
           len(list_filter(string_split(text, ' '), w -> w IN ('the','a','and','of','to')))::DOUBLE
           / GREATEST(len(string_split(text, ' ')), 1) * 1000000 + 0.5) AS BIGINT) AS stop_ratio_ppm
FROM documents
ORDER BY doc_id
"""


def docs_fingerprint(sf_dir: str):
    """Content fingerprint per document: first 16 hex chars of md5."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        fps = [hashlib.md5(t.encode()).hexdigest()[:16] for t in batch["text"]]
        return pd.DataFrame({"doc_id": batch["doc_id"], "fingerprint": fps})

    return ds.map_batches(derive, batch_format="pandas").sort("doc_id")


DOCS_FINGERPRINT_SQL = """
SELECT doc_id, substr(md5(text), 1, 16) AS fingerprint
FROM documents
ORDER BY doc_id
"""


def docs_keyword(sf_dir: str):
    """First engine keyword per doc via regex (RE2 == Python `re` for this
    alternation); '' when absent, matching DuckDB regexp_extract."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def derive(batch: pa.Table) -> pa.Table:
        ext = pc.extract_regex(batch["text"], r"\b(?P<v>spark|vector|stream)\b")
        kw = pc.coalesce(pc.struct_field(ext, "v"), "")
        return pa.table({"doc_id": batch["doc_id"], "first_kw": kw})

    return ds.map_batches(derive, batch_format="pyarrow").sort("doc_id")


DOCS_KEYWORD_SQL = """
SELECT doc_id, regexp_extract(text, '\\b(spark|vector|stream)\\b', 1) AS first_kw
FROM documents
ORDER BY doc_id
"""


BPE_PRETOKEN = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]+"


def docs_bpe_tokens(sf_dir: str):
    """BPE-ish pretokenizer counts per doc: runs of letters / digits /
    punctuation (the GPT-2-style pretokenize shape, ASCII classes so Python
    `re` and DuckDB RE2 agree)."""
    import re

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    pat = re.compile(BPE_PRETOKEN)

    def derive(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_bpe_tokens": batch["text"].map(lambda t: len(pat.findall(t))).astype(np.int64),
            }
        )

    return ds.map_batches(derive, batch_format="pandas").sort("doc_id")


DOCS_BPE_TOKENS_SQL = r"""
SELECT doc_id,
       len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]+')) AS n_bpe_tokens
FROM documents
ORDER BY doc_id
"""


def repetition_frame(batch: pd.DataFrame) -> pd.DataFrame:
    """Pure per-batch kernel for the Gopher-style repetition signals —
    separated from the Dataset wiring so tests can drive crafted strings.

    All integer/ppm fixed-point; ties on equal counts break to the
    lexicographically smallest token/bigram on both engines. Documents
    with a single token have no bigram: top_bigram is NULL/None, the
    count 0, the ppm 0.
    """
    batch = batch.reset_index(drop=True)
    toks = batch["text"].str.split(" ")
    n_tokens = toks.str.len().to_numpy(dtype=np.int64)
    n_chars = batch["text"].str.len().to_numpy(dtype=np.int64)
    flat = toks.explode()
    df = pd.DataFrame({"doc": flat.index.to_numpy(), "tok": flat.to_numpy()})

    tc = df.groupby(["doc", "tok"], sort=False).size().reset_index(name="c")
    tc = tc.sort_values(["doc", "c", "tok"], ascending=[True, False, True], kind="mergesort")
    top1 = tc.groupby("doc", sort=True).head(1).set_index("doc")
    dup = tc[tc["c"] > 1].groupby("doc")["c"].sum()

    # adjacent bigrams: one shift over the exploded array, doc boundaries
    # masked — no per-row Python
    doc_arr = df["doc"].to_numpy()
    tok_arr = df["tok"].to_numpy(dtype=object)
    same = doc_arr[1:] == doc_arr[:-1]
    bdf = pd.DataFrame(
        {"doc": doc_arr[:-1][same], "g": tok_arr[:-1][same] + " " + tok_arr[1:][same]}
    )
    bc = bdf.groupby(["doc", "g"], sort=False).size().reset_index(name="c")
    bc = bc.sort_values(["doc", "c", "g"], ascending=[True, False, True], kind="mergesort")
    top2 = bc.groupby("doc", sort=True).head(1).set_index("doc")

    idx = pd.RangeIndex(len(batch))
    t1c = top1["c"].reindex(idx).to_numpy(dtype=np.int64)
    t1tok = top1["tok"].reindex(idx)
    t2c = top2["c"].reindex(idx).fillna(0).to_numpy().astype(np.int64)
    t2g = top2["g"].reindex(idx)
    dupc = dup.reindex(idx).fillna(0).to_numpy().astype(np.int64)

    def ppm(num, den):
        return np.floor(
            num.astype(np.float64) / np.maximum(den, 1) * 1e6 + 0.5
        ).astype(np.int64)

    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "top_token": t1tok.to_numpy(),
            "top_token_count": t1c,
            "top_token_ppm": ppm(t1c * t1tok.str.len().to_numpy(dtype=np.int64), n_chars),
            "top_bigram": t2g.where(pd.notna(t2g), None).to_numpy(dtype=object),
            "top_bigram_count": t2c,
            "top_bigram_ppm": np.where(n_tokens > 1, ppm(t2c, n_tokens - 1), np.int64(0)),
            "dup_tokens_ppm": ppm(dupc, n_tokens),
        }
    )


def docs_repetition(sf_dir: str):
    """Gopher-style repetition quality signals per document (Rae et al.,
    "Scaling Language Models: ... Gopher", repetition-filter family,
    adapted to the single-line corpus): most frequent token and its
    character fraction, most frequent adjacent 2-gram and its fraction of
    2-gram slots, and the fraction of tokens occurring more than once.
    Embarrassingly parallel — one vectorized explode+groupby per batch,
    no shuffle; the terminal sort is presentation-only."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])
    return ds.map_batches(repetition_frame, batch_format="pandas").sort("doc_id")


DOCS_REPETITION_SQL = """
WITH toks AS (
    SELECT doc_id,
           unnest(string_split(text, ' ')) AS tok,
           generate_subscripts(string_split(text, ' '), 1) AS ord
    FROM documents
),
tc AS (SELECT doc_id, tok, COUNT(*) AS c FROM toks GROUP BY doc_id, tok),
top1 AS (
    SELECT doc_id, tok, c FROM (
        SELECT doc_id, tok, c,
               ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY c DESC, tok ASC) AS rn
        FROM tc) WHERE rn = 1
),
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
    SELECT doc_id, g, c FROM (
        SELECT doc_id, g, c,
               ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY c DESC, g ASC) AS rn
        FROM bc) WHERE rn = 1
),
base AS (
    SELECT doc_id, len(string_split(text, ' ')) AS n_tokens, len(text) AS n_chars
    FROM documents
)
SELECT base.doc_id,
       top1.tok AS top_token,
       CAST(top1.c AS BIGINT) AS top_token_count,
       CAST(FLOOR((top1.c * len(top1.tok))::DOUBLE / GREATEST(base.n_chars, 1) * 1000000 + 0.5)
            AS BIGINT) AS top_token_ppm,
       top2.g AS top_bigram,
       CAST(COALESCE(top2.c, 0) AS BIGINT) AS top_bigram_count,
       CASE WHEN base.n_tokens > 1
            THEN CAST(FLOOR(COALESCE(top2.c, 0)::DOUBLE / (base.n_tokens - 1) * 1000000 + 0.5)
                      AS BIGINT)
            ELSE 0 END AS top_bigram_ppm,
       CAST(FLOOR(COALESCE(dup.dup_toks, 0)::DOUBLE / GREATEST(base.n_tokens, 1) * 1000000 + 0.5)
            AS BIGINT) AS dup_tokens_ppm
FROM base
JOIN top1 USING (doc_id)
LEFT JOIN top2 USING (doc_id)
LEFT JOIN dup USING (doc_id)
ORDER BY doc_id
"""


MG_CAPACITY = 128
_MG_TOTAL_KEY = "\x00total"  # sentinel: token strings never contain NUL


def mg_compress(counts: pd.Series, m: int = MG_CAPACITY) -> pd.Series:
    """Misra-Gries compress: reduce an exact (or summed-MG) count vector
    to ≤ m keys by subtracting the (m+1)-th largest count from every key
    and dropping non-positives. Estimates only ever UNDER-count, and each
    compress over a substream of n_i items loses ≤ n_i/(m+1) per key
    (Misra & Gries 1982; merge-safety: Agarwal et al., "Mergeable
    Summaries", PODS 2012 §3 — summing summaries then compressing keeps
    the global bound n/(m+1) for any merge tree)."""
    if len(counts) <= m:
        return counts
    arr = np.sort(counts.to_numpy())[::-1]
    out = counts - arr[m]
    return out[out > 0]


def mg_heavy_hitters(sf_dir: str, m: int = MG_CAPACITY):
    """Mergeable heavy-hitters sketch over the corpus token stream — the
    sub-linear-memory scale path beside the exact ``docs_top_tokens``:
    each batch computes exact local counts and MG-compresses them to ≤ m
    rows (so the shuffle moves ≤ m rows per batch no matter how hot the
    vocabulary), the per-token sums combine in a bucketed tiny exchange,
    and the result is the candidate set with under-estimates. Guarantee:
    every token with true count > n/(m+1) is present, with
    est ≤ true ≤ est + n/(m+1).

    Returns ``(n_total, candidates)``: total token count and a pandas
    frame (token, est) sorted est DESC, token ASC. At extreme batch
    counts insert intermediate compress levels (tree merge) — the merge
    theorem covers any tree; candidates here stay driver-small because
    distinct survivors ≤ m × effective levels, not corpus vocabulary.
    """
    from .common import grouped_sums

    ds = _docs(sf_dir, columns=["text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].str.split(" ").explode()
        vc = toks.value_counts()
        comp = mg_compress(vc.astype(np.int64), m)
        return pd.DataFrame(
            {
                "token": np.concatenate([comp.index.to_numpy(), [_MG_TOTAL_KEY]]),
                "est": np.concatenate(
                    [comp.to_numpy(), [np.int64(len(toks))]]
                ).astype(np.int64),
            }
        )

    merged = grouped_sums(
        ds.map_batches(partial, batch_format="pandas"), ["token"], ["est"]
    ).to_pandas()
    n_total = int(merged.loc[merged["token"] == _MG_TOTAL_KEY, "est"].iloc[0])
    cand = merged[merged["token"] != _MG_TOTAL_KEY]
    cand = cand.sort_values(
        ["est", "token"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)
    return n_total, cand


TOP_TOKENS_K = 25


def docs_top_tokens(sf_dir: str, k: int = TOP_TOKENS_K):
    return top_tokens_from(_docs(sf_dir, columns=["text"]), k=k)


def top_tokens_from(ds, k: int = TOP_TOKENS_K, n_buckets: int | None = None):
    """Corpus vocabulary top-k over a Dataset with a ``text`` column:
    exact global token counts → k most frequent (count DESC, token ASC
    tiebreak — deterministic at the k boundary).

    The skewed-key-domain shape: per-batch ``value_counts`` partials bound
    what the shuffle moves to the per-batch VOCABULARY size (a hot token
    like 'the' contributes one partial row per batch, not one per
    occurrence), the bucketed combine makes the sums exact, and each
    bucket prunes to its own top-k before the tiny global sort — the
    global top-k rows are each inside their bucket's top-k, so pruning
    loses nothing. At 100 TB only ~k × n_buckets rows reach the final
    single-block ranking."""
    from .common import bucketed_group_agg

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["text"].str.split(" ").explode().value_counts()
        return pd.DataFrame(
            {"token": vc.index.to_numpy(dtype=object), "n": vc.to_numpy(np.int64)}
        )

    counts = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pandas"), ["token"], {"n": "sum"},
        n_buckets=n_buckets,
    )

    def prune(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(
            ["n", "token"], ascending=[False, True], kind="mergesort"
        ).head(k)[["token", "n"]]

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        out = prune(batch).reset_index(drop=True)
        out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
        return out

    # batch_size=None: finish must see the ONE repartitioned block whole —
    # the default 1024-row batching would split >40 buckets' pruned rows
    # into two batches and emit two disjoint "top-k"s with duplicate ranks
    return (
        counts.map_batches(prune, batch_format="pandas")
        .repartition(1)
        .map_batches(finish, batch_format="pandas", batch_size=None)
    )


DOCS_TOP_TOKENS_SQL = f"""
WITH t AS (SELECT unnest(string_split(text, ' ')) AS token FROM documents),
c AS (SELECT token, COUNT(*) AS n FROM t GROUP BY token)
SELECT token,
       CAST(n AS BIGINT) AS n,
       CAST(ROW_NUMBER() OVER (ORDER BY n DESC, token ASC) AS BIGINT) AS rank
FROM c
ORDER BY n DESC, token ASC
LIMIT {TOP_TOKENS_K}
"""


# ---------------------------------------------------------------------------
# Collocation mining: corpus-wide bigram PMI top-k


PMI_MIN_COUNT = 3  # bigrams below this never score (kills the rare-pair PMI explosion)
PMI_TOP_K = 40


def _bigram_counts_partial(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-batch adjacent-token pair counts — the same explode/adjacency
    kernel as the BPE pair counter, over document tokens. A hot pair
    contributes one partial row per batch, not one per occurrence."""
    batch = batch.reset_index(drop=True)
    toks = batch["text"].str.split(" ")
    lens = toks.str.len().to_numpy(np.int64)
    flat = toks.explode().to_numpy(dtype=object)
    didx = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
    adj = didx[:-1] == didx[1:]
    pairs = pd.DataFrame({"left_token": flat[:-1][adj], "right_token": flat[1:][adj]})
    out = pairs.groupby(["left_token", "right_token"], as_index=False, sort=False).size()
    return out.rename(columns={"size": "n_ab"}).astype({"n_ab": np.int64})


def docs_bigram_pmi(sf_dir: str, min_count: int = PMI_MIN_COUNT, k: int = PMI_TOP_K):
    """Corpus-wide collocation mining: the k adjacent-token pairs with the
    highest pointwise mutual information, ``pmi_ppm = floor(c_ab · N · 1e6
    / (c_a · c_b))`` (N = total tokens) with ``c_ab ≥ min_count``. The
    classic phrase-detection pass (word2vec-style) a pretraining pipeline
    runs before tokenizer or n-gram feature decisions.

    Scale shape — the corpus is read once and nothing corpus-sized
    shuffles:

    1. bigram and unigram counts as per-batch ``value_counts`` partials →
       bucketed combines (partials bound the exchange to per-batch
       vocabulary),
    2. the ``min_count`` filter runs on the combined bigram table BEFORE
       any join — PMI's pathological tail (count-1 pairs of rare words)
       never reaches the join,
    3. two hash-bucketed cogroup joins attach c_left / c_right from the
       vocabulary table (both sides vocabulary-sized, never corpus-sized),
    4. scoring + per-bucket top-k pruning inside the join output's blocks;
       only ~k rows per block reach the final single-block ranking.

    Exactness: the score is integer arithmetic over exact counts. numpy
    has no int128 and ``c_ab·N·1e6`` overflows int64 at corpus scale, so
    the scoring step uses Python-int arithmetic — but only ever over the
    min_count-filtered candidate table (vocabulary-, not corpus-sized),
    and the DuckDB twin does the identical math in HUGEINT."""
    from .common import bucketed_group_agg, cogroup_join

    docs = _docs(sf_dir, columns=["text"])
    bg = bucketed_group_agg(
        docs.map_batches(_bigram_counts_partial, batch_format="pandas"),
        ["left_token", "right_token"],
        {"n_ab": "sum"},
    ).map_batches(lambda b: b[b["n_ab"] >= min_count], batch_format="pandas")

    def tok_partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["text"].str.split(" ").explode().value_counts()
        return pd.DataFrame(
            {"token": vc.index.to_numpy(dtype=object), "n": vc.to_numpy(np.int64)}
        )

    ug = bucketed_group_agg(
        docs.map_batches(tok_partial, batch_format="pandas"), ["token"], {"n": "sum"}
    ).materialize()  # vocabulary-sized; read three times (N + two joins)
    n_total = int(
        ug.map_batches(
            lambda b: pd.DataFrame({"s": [b["n"].sum()]}), batch_format="pandas"
        ).to_pandas()["s"].sum()
    )

    with_a = cogroup_join(
        bg, ug, "left_token", "token",
        ["left_token", "right_token", "n_ab"], ["n"],
    ).map_batches(lambda b: b.rename(columns={"n": "n_a"}), batch_format="pandas")
    with_ab = cogroup_join(
        with_a, ug, "right_token", "token",
        ["left_token", "right_token", "n_ab", "n_a"], ["n"],
    ).map_batches(lambda b: b.rename(columns={"n": "n_b"}), batch_format="pandas")

    def score_prune(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return pd.DataFrame(
                {
                    "left_token": pd.Series([], dtype=object),
                    "right_token": pd.Series([], dtype=object),
                    "n_ab": pd.Series([], dtype=np.int64),
                    "pmi_ppm": pd.Series([], dtype=np.int64),
                }
            )
        ab = batch["n_ab"].tolist()
        na = batch["n_a"].tolist()
        nb_ = batch["n_b"].tolist()
        pmi = [(a * n_total * 1_000_000) // (x * y) for a, x, y in zip(ab, na, nb_)]
        out = pd.DataFrame(
            {
                "left_token": batch["left_token"].to_numpy(dtype=object),
                "right_token": batch["right_token"].to_numpy(dtype=object),
                "n_ab": np.asarray(ab, dtype=np.int64),
                "pmi_ppm": np.asarray(pmi, dtype=np.int64),
            }
        )
        return out.sort_values(
            ["pmi_ppm", "left_token", "right_token"],
            ascending=[False, True, True],
            kind="mergesort",
        ).head(k)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        out = (
            batch.sort_values(
                ["pmi_ppm", "left_token", "right_token"],
                ascending=[False, True, True],
                kind="mergesort",
            )
            .head(k)
            .reset_index(drop=True)
        )
        out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
        return out

    # batch_size=None: finish must see the one repartitioned block whole
    # (same reason as top_tokens_from)
    return (
        with_ab.map_batches(score_prune, batch_format="pandas")
        .repartition(1)
        .map_batches(finish, batch_format="pandas", batch_size=None)
    )


DOCS_BIGRAM_PMI_SQL = f"""
WITH t AS (SELECT string_split(text, ' ') AS toks FROM documents),
tok AS (SELECT unnest(toks) AS token FROM t),
n_tot AS (SELECT COUNT(*) AS n FROM tok),
ug AS (SELECT token, COUNT(*) AS n FROM tok GROUP BY token),
big AS (
    SELECT unnest(list_zip(toks[1:len(toks)-1], toks[2:len(toks)])) AS pr
    FROM t WHERE len(toks) >= 2
),
bg AS (
    SELECT pr[1] AS l, pr[2] AS r, COUNT(*) AS n_ab
    FROM big GROUP BY l, r HAVING COUNT(*) >= {PMI_MIN_COUNT}
),
sc AS (
    SELECT bg.l AS left_token, bg.r AS right_token, CAST(bg.n_ab AS BIGINT) AS n_ab,
        CAST((CAST(bg.n_ab AS HUGEINT) * (SELECT n FROM n_tot) * 1000000)
             // (CAST(a.n AS HUGEINT) * b.n) AS BIGINT) AS pmi_ppm
    FROM bg JOIN ug a ON bg.l = a.token JOIN ug b ON bg.r = b.token
)
SELECT left_token, right_token, n_ab, pmi_ppm,
       CAST(ROW_NUMBER() OVER (ORDER BY pmi_ppm DESC, left_token, right_token) AS BIGINT) AS rank
FROM sc
ORDER BY pmi_ppm DESC, left_token, right_token
LIMIT {PMI_TOP_K}
"""


# marker sets prepared ONCE per worker process at module import (workers
# are reused across tasks, so this is the same amortization an actor pool
# gave, without paying actor spawn per driver query — a real model load
# would go back to the actor-pool + fn_constructor_kwargs seam that
# ops/multimodal.py demonstrates)
_LANG_MARKER_SETS = {k: frozenset(v) for k, v in LANG_MARKERS.items()}
_LANG_ORDER = sorted(_LANG_MARKER_SETS)


class LangId:
    """Stopword-overlap language-ID heuristic. Deterministic argmax with
    lexicographic tiebreak; 'und' when nothing matches."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "pred_lang": langid_preds(batch["text"]),
            }
        )


def langid_preds(texts) -> list[str]:
    """The LangId marker-argmax kernel over an iterable of texts: distinct
    lowered tokens intersected with each marker set, argmax score with the
    strict-> loop over sorted langs (lexicographic tiebreak), 'und' when
    nothing matches. The ONE copy of this kernel — ``LangId`` and the
    composed curation pipeline (ops/curate.py) both delegate here, so the
    standalone op and the pipeline stage cannot drift."""
    preds = []
    for text in texts:
        toks = set(text.lower().split())
        best_lang, best_score = "und", 0
        for lang in _LANG_ORDER:
            score = len(toks & _LANG_MARKER_SETS[lang])
            if score > best_score:
                best_lang, best_score = lang, score
        preds.append(best_lang)
    return preds


def docs_langid(sf_dir: str):
    ds = _docs(sf_dir, columns=["doc_id", "text", "lang"])
    return ds.map_batches(LangId(), batch_format="pandas").sort("doc_id")


def _langid_sql() -> str:
    """DuckDB twin of the LangId heuristic: distinct lowered tokens joined
    to the marker bank, argmax score with lexicographic tiebreak (the
    Python loop iterates sorted langs with a strict >), 'und' when no
    marker matches. Generated from the same LANG_MARKERS literal bank."""
    vals = ", ".join(
        f"('{lang}', '{w}')"
        for lang in sorted(LANG_MARKERS)
        for w in sorted(LANG_MARKERS[lang])
    )
    return f"""
WITH markers(mlang, word) AS (VALUES {vals}),
toks AS (
    SELECT doc_id, unnest(list_distinct(string_split_regex(lower(text), '\\s+'))) AS tok
    FROM documents
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
)
SELECT d.doc_id, d.lang, COALESCE(b.mlang, 'und') AS pred_lang
FROM documents d LEFT JOIN best b ON d.doc_id = b.doc_id AND b.rn = 1
ORDER BY d.doc_id
"""


DOCS_LANGID_SQL = _langid_sql()


# ---------------------------------------------------------------------------
# TF-IDF distinctive terms (corpus DF pass + skew-aware join)


TFIDF_K = 3
TFIDF_HEAVY_K = 1024


def docs_tfidf(sf_dir: str, k: int = TFIDF_K, heavy_k: int = TFIDF_HEAVY_K):
    """Top-``k`` most distinctive terms per document scored by
    ``score_ppm = tf * 1e6 // df`` (term frequency over document
    frequency, integer floor division — exact on both engines; ties break
    token-ascending).

    Scale shape — the full TF-IDF dataflow with the skew handled
    explicitly:

    1. one pass explodes each doc into DISTINCT (doc_id, token, tf) rows
       (tf resolved within the row's own batch — a doc is one row),
    2. the document-frequency table comes from per-batch partials through
       the bucketed combine (what a hot token moves is one partial row per
       batch, never one per occurrence),
    3. the dfs of the ``heavy_k`` most frequent tokens (the 'the'/'and'
       head of the Zipf curve — exactly the keys that would put billions
       of rows into ONE join group at 100 TB) are broadcast once via
       ``ray.put`` and attached map-side; only the long tail, where each
       key is rare by construction, goes through the hash-bucketed
       cogroup join,
    4. per-doc top-k folds inside doc-hash buckets (groups stay
       vocabulary-of-one-doc sized).
    """
    import ray

    from .common import _default_buckets, bucketed_group_agg, cogroup_join

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def tf_rows(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)  # explode() indices must be positional
        tok = batch["text"].str.split(" ").explode()
        e = pd.DataFrame({"i": tok.index.to_numpy(np.int64), "token": tok.to_numpy(object)})
        g = e.groupby(["i", "token"], sort=False).size().reset_index(name="tf")
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64)[g["i"].to_numpy()],
                "token": g["token"],
                "tf": g["tf"].to_numpy(np.int64),
            }
        )

    # (doc, token, tf) rows are ints + one token string per DISTINCT term:
    # far smaller than the text; materialized so the df pass and the join
    # don't re-explode the corpus twice
    tf_ds = ds.map_batches(tf_rows, batch_format="pandas").materialize()

    def df_partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["token"].value_counts()
        return pd.DataFrame({"token": vc.index.to_numpy(object), "df": vc.to_numpy(np.int64)})

    df_ds = bucketed_group_agg(
        tf_ds.map_batches(df_partial, batch_format="pandas"), ["token"], {"df": "sum"}
    ).materialize()

    def prune_heavy(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(["df", "token"], ascending=[False, True], kind="mergesort").head(
            heavy_k
        )

    if heavy_k > 0:
        heavy_df = (
            df_ds.map_batches(prune_heavy, batch_format="pandas")
            .repartition(1)
            .map_batches(prune_heavy, batch_format="pandas", batch_size=None)
            .to_pandas()
        )
        heavy_map = dict(zip(heavy_df["token"], heavy_df["df"].astype(np.int64)))
    else:  # all-tail reference path (exercised by the split-equivalence test)
        heavy_map = {}
    heavy_ref = ray.put(heavy_map)

    # heavy/tail split computed directly on the materialized tf table —
    # both branches are cheap filters, so no shared tagging stage (an
    # un-materialized intermediate would re-execute once per consumer:
    # Ray Data plans are trees, not DAGs)
    def heavy_rows(batch: pd.DataFrame) -> pd.DataFrame:
        hm = ray.get(heavy_ref)  # zero-copy local dict fetch
        h = batch[batch["token"].isin(hm)]
        return pd.DataFrame(
            {
                "doc_id": h["doc_id"].to_numpy(np.int64),
                "token": h["token"],
                "tf": h["tf"].to_numpy(np.int64),
                "df": h["token"].map(hm).to_numpy(np.int64),
            }
        )

    def tail_rows(batch: pd.DataFrame) -> pd.DataFrame:
        hm = ray.get(heavy_ref)
        return batch[~batch["token"].isin(hm)][["doc_id", "token", "tf"]]

    heavy_part = tf_ds.map_batches(heavy_rows, batch_format="pandas")

    def tail_df(batch: pd.DataFrame) -> pd.DataFrame:
        hm = ray.get(heavy_ref)
        return batch[~batch["token"].isin(hm)]

    joined_tail = cogroup_join(
        tf_ds.map_batches(tail_rows, batch_format="pandas"),
        df_ds.map_batches(tail_df, batch_format="pandas"),
        left_on="token",
        right_on="token",
        left_cols=["doc_id", "token", "tf"],
        right_cols=["df"],
    )

    nb = _default_buckets()

    def add_doc_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        out["__b"] = (pd.util.hash_array(out["doc_id"].to_numpy()) % nb).astype(np.int64)
        out["score_ppm"] = out["tf"].to_numpy() * 1_000_000 // out["df"].to_numpy()
        return out

    both = heavy_part.union(joined_tail).map_batches(add_doc_bucket, batch_format="pandas")

    def topk(shard: pd.DataFrame) -> pd.DataFrame:
        s = shard.sort_values(
            ["doc_id", "score_ppm", "token"], ascending=[True, False, True], kind="mergesort"
        )
        s = s.groupby("doc_id", sort=False).head(k)
        s["rank"] = s.groupby("doc_id", sort=False).cumcount().to_numpy(np.int64) + 1
        return s[["doc_id", "token", "tf", "df", "score_ppm", "rank"]]

    return both.groupby("__b").map_groups(topk, batch_format="pandas").sort(["doc_id", "rank"])


DOCS_TFIDF_SQL = f"""
WITH tok AS (
    SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents
),
tf AS (
    SELECT doc_id, token, CAST(COUNT(*) AS BIGINT) AS tf
    FROM tok GROUP BY doc_id, token
),
df AS (
    SELECT token, CAST(COUNT(*) AS BIGINT) AS df FROM tf GROUP BY token
),
ranked AS (
    SELECT tf.doc_id, tf.token, tf.tf, df.df,
           tf.tf * 1000000 // df.df AS score_ppm,
           ROW_NUMBER() OVER (
               PARTITION BY tf.doc_id
               ORDER BY tf.tf * 1000000 // df.df DESC, tf.token ASC
           ) AS rank
    FROM tf JOIN df USING (token)
)
SELECT doc_id, token, tf, df, score_ppm, CAST(rank AS BIGINT) AS rank
FROM ranked WHERE rank <= {TFIDF_K}
ORDER BY doc_id, rank
"""


# ---------------------------------------------------------------------------
# Inverted index (token → document frequency + capped postings head)


INDEX_HEADS = 8  # postings kept per token; df stays exact


def docs_inverted_index(sf_dir: str, n_heads: int = INDEX_HEADS):
    """Build the retrieval-side inverted index over the corpus: for every
    token its exact document frequency plus the first ``n_heads`` posting
    doc_ids (ascending). The full posting list of a Zipf-head token is
    corpus-sized — the cap is the standard impact-ordered-index move: df
    stays exact for scoring, the stored postings stay O(1) per token.

    Scale shape — the pairs NEVER shuffle raw: a document is one row, so
    after per-batch (token, doc) dedup the pairs are GLOBALLY distinct;
    df is therefore a plain sum of per-batch partial counts, and the
    postings head is a mergeable partial-minima set (each batch's
    ``n_heads`` smallest doc ids provably contain the global smallest —
    the KMV/reservoir argument). What moves per batch is one row per
    batch-vocabulary token (count + a ≤``n_heads``-id string), combined
    in hash buckets of the token key."""
    from .common import _default_buckets

    n_buckets = _default_buckets()

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].str.split(" ")
        doc = np.repeat(batch["doc_id"].to_numpy(np.int64), toks.str.len().to_numpy(np.int64))
        pairs = pd.DataFrame({"token": toks.explode().to_numpy(dtype=object), "doc_id": doc})
        pairs = pairs.drop_duplicates().sort_values(["token", "doc_id"], kind="mergesort")
        g = pairs.groupby("token", sort=False)
        pairs["rn"] = g.cumcount()
        heads = (
            pairs[pairs["rn"] < n_heads]
            .assign(doc_str=lambda d: d["doc_id"].astype(str))
            .groupby("token", sort=False)["doc_str"]
            .agg(",".join)
        )
        out = g.size().rename("df_part").reset_index()
        out["heads"] = heads.reindex(out["token"]).to_numpy(dtype=object)
        out["__b"] = (
            pd.util.hash_array(out["token"].to_numpy(dtype=object)) % n_buckets
        ).astype(np.int64)
        return out

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        df = group.groupby("token", as_index=False, sort=False)["df_part"].sum()
        h = group[["token"]].copy()
        h["doc_id"] = group["heads"].str.split(",")
        h = h.explode("doc_id")
        h["doc_id"] = h["doc_id"].astype(np.int64)
        h = h.sort_values(["token", "doc_id"], kind="mergesort")
        h["rn"] = h.groupby("token", sort=False).cumcount()
        postings = (
            h[h["rn"] < n_heads]
            .assign(doc_str=lambda d: d["doc_id"].astype(str))
            .groupby("token", sort=False)["doc_str"]
            .agg(",".join)
        )
        return pd.DataFrame(
            {
                "token": df["token"].to_numpy(dtype=object),
                "df": df["df_part"].to_numpy(np.int64),
                "postings": postings.reindex(df["token"]).to_numpy(dtype=object),
            }
        )

    return (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(partial, batch_format="pandas")
        .groupby("__b")
        .map_groups(fold, batch_format="pandas")
        .sort("token")
    )


DOCS_INVERTED_INDEX_SQL = f"""
WITH pairs AS (
    SELECT DISTINCT doc_id, token FROM (
        SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents)
),
d AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS df FROM pairs GROUP BY token),
h AS (
    SELECT token, string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
    FROM (SELECT token, doc_id,
                 ROW_NUMBER() OVER (PARTITION BY token ORDER BY doc_id) AS rn
          FROM pairs)
    WHERE rn <= {INDEX_HEADS}
    GROUP BY token
)
SELECT d.token, d.df, h.postings
FROM d JOIN h USING (token)
ORDER BY d.token
"""


# ---------------------------------------------------------------------------
# BPE tokenizer training (distributed merge learning over the word table)


BPE_MERGES = 6  # merge rules learned per run
BPE_MIN_COUNT = 2  # stop when the best pair occurs once
_SYM_SEP = "\x1f"  # joiner between symbols; never appears in corpus text
_EOW = "</w>"  # end-of-word marker symbol (one symbol, Sennrich-style)


def _bpe_word_counts_unsorted(sf_dir: str):
    """Distributed word-frequency table — BPE's actual input. The classic
    trainer never touches the corpus again after this pass: everything
    downstream runs on the vocabulary-sized (word, n) table. Unsorted:
    the merge loop is order-independent, so the trainer consumes this
    directly and skips the global vocabulary sort."""
    from .common import bucketed_group_agg

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["text"].str.split(" ").explode().value_counts()
        return pd.DataFrame({"word": vc.index.to_numpy(dtype=object), "n": vc.to_numpy(np.int64)})

    return bucketed_group_agg(
        _docs(sf_dir, columns=["text"]).map_batches(partial, batch_format="pandas"),
        ["word"],
        {"n": "sum"},
    )


def bpe_word_counts(sf_dir: str):
    """Gate-facing word counts: sorted to match ``ORDER BY word``."""
    return _bpe_word_counts_unsorted(sf_dir).sort("word")


BPE_WORD_COUNTS_SQL = """
WITH t AS (SELECT unnest(string_split(text, ' ')) AS word FROM documents)
SELECT word, CAST(COUNT(*) AS BIGINT) AS n FROM t GROUP BY word ORDER BY word
"""


def _pair_counts_partial(batch: pd.DataFrame) -> pd.DataFrame:
    """Vectorized adjacent-symbol pair counts weighted by word count."""
    syms = batch["sym"].str.split(_SYM_SEP)
    lens = syms.str.len().to_numpy(np.int64)
    flat = syms.explode().to_numpy(dtype=object)
    widx = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
    wn = np.repeat(batch["n"].to_numpy(np.int64), lens)
    adj = widx[:-1] == widx[1:]
    out = pd.DataFrame(
        {"left": flat[:-1][adj], "right": flat[1:][adj], "cnt": wn[:-1][adj]}
    )
    return out.groupby(["left", "right"], as_index=False, sort=False)["cnt"].sum()


def _merge_pattern(left: str, right: str):
    """Boundary-aware merge regex: the pair must sit on symbol boundaries
    (start/end of word or the separator), so a symbol whose text merely
    ENDS with ``left`` can't capture a following ``right``. Non-greedy
    left-to-right application == the scan-merge reference (matches are
    non-overlapping in original-string order)."""
    import re

    return re.compile(
        f"(?:^|(?<={_SYM_SEP})){re.escape(left)}{_SYM_SEP}{re.escape(right)}(?={_SYM_SEP}|$)"
    )


def docs_bpe_train(sf_dir: str, n_merges: int = BPE_MERGES) -> pd.DataFrame:
    """Learn BPE merge rules distributedly — the tokenizer-training step a
    pretraining data pipeline runs before anything else tokenizes. Returns
    the merge table (it, left, right, cnt): at each iteration the highest-
    count adjacent symbol pair (count DESC, pair ASC — the deterministic
    tiebreak) becomes one symbol.

    Scale shape: ONE corpus pass builds the (word, n) table; the merge
    loop runs entirely on that vocabulary-sized table — per iteration one
    bucketed shuffle of per-batch pair partials (each batch contributes
    its batch-vocabulary of pairs once, not per occurrence), a ≤n_buckets-
    row argmax on the driver, and a map-side regex merge broadcast by
    closure (bytes). The corpus text is never re-read; at 10^12 turns the
    word table is the only thing iterated, and it shrinks nothing — but
    moves nothing wider than itself either."""
    from .common import _default_buckets, bucketed_group_agg

    def to_syms(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "sym": [
                    _SYM_SEP.join(list(w) + [_EOW]) for w in batch["word"].to_numpy(dtype=object)
                ],
                "n": batch["n"].to_numpy(np.int64),
            }
        )

    table = (
        _bpe_word_counts_unsorted(sf_dir).map_batches(to_syms, batch_format="pandas").materialize()
    )
    nb = _default_buckets()
    merges: list[tuple[int, str, str, int]] = []
    for it in range(n_merges):
        partial = table.map_batches(_pair_counts_partial, batch_format="pandas")
        sums = bucketed_group_agg(partial, ["left", "right"], {"cnt": "sum"}, n_buckets=nb)

        def prune(batch: pd.DataFrame) -> pd.DataFrame:
            return batch.sort_values(
                ["cnt", "left", "right"], ascending=[False, True, True], kind="mergesort"
            ).head(1)

        best = (
            sums.map_batches(prune, batch_format="pandas")
            .to_pandas()
            .sort_values(["cnt", "left", "right"], ascending=[False, True, True])
            .head(1)
        )
        if best.empty or int(best["cnt"].iloc[0]) < BPE_MIN_COUNT:
            break
        left, right, cnt = str(best["left"].iloc[0]), str(best["right"].iloc[0]), int(best["cnt"].iloc[0])
        merges.append((it, left, right, cnt))
        pat, rep = _merge_pattern(left, right), left + right

        def apply(batch: pd.DataFrame, pat=pat, rep=rep) -> pd.DataFrame:
            # callable repl: the merged symbol is literal text, never a
            # backreference template
            return batch.assign(
                sym=batch["sym"].str.replace(pat, lambda m: rep, regex=True)
            )

        table = table.map_batches(apply, batch_format="pandas").materialize()
    return pd.DataFrame(merges, columns=["it", "left", "right", "cnt"]).astype(
        {"it": np.int64, "cnt": np.int64}
    )


def ref_bpe_merges(word_counts: dict, n_merges: int = BPE_MERGES) -> pd.DataFrame:
    """Single-process textbook BPE (Sennrich scan-merge) — the reference
    the distributed trainer is gated against in-query (fed from DuckDB
    word counts, so the whole path word-count → merges is independently
    reproduced)."""
    vocab: dict[tuple, int] = {}
    for w, n in word_counts.items():
        key = tuple(list(w) + [_EOW])
        vocab[key] = vocab.get(key, 0) + int(n)
    merges = []
    for it in range(n_merges):
        pairs: dict[tuple, int] = {}
        for syms, n in vocab.items():
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] = pairs.get((a, b), 0) + n
        if not pairs:
            break
        (left, right), cnt = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        if cnt < BPE_MIN_COUNT:
            break
        merges.append((it, left, right, cnt))
        new_vocab: dict[tuple, int] = {}
        for syms, n in vocab.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                    out.append(left + right)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            key = tuple(out)
            new_vocab[key] = new_vocab.get(key, 0) + n
        vocab = new_vocab
    return pd.DataFrame(merges, columns=["it", "left", "right", "cnt"]).astype(
        {"it": np.int64, "cnt": np.int64}
    )


# ---------------------------------------------------------------------------
# Vocabulary growth curve (Heaps' law measurement)


VOCAB_CHECKPOINT = 100  # docs per growth checkpoint


def docs_vocab_growth(sf_dir: str, checkpoint: int = VOCAB_CHECKPOINT):
    """Vocabulary growth curve — how many DISTINCT tokens exist after each
    block of ``checkpoint`` documents in doc_id order (the Heaps'-law
    measurement a tokenizer-budget decision reads). Every token is
    attributed to the checkpoint of its FIRST occurrence, so the curve is
    the running cumulative sum of per-checkpoint new-token counts.

    The synthetic corpus has a ~31-token vocabulary that saturates inside
    the first checkpoint, so (the repo's rendered-overlay recipe, cf.
    ``docs_line_dedup``) each document contributes two deterministic
    doc-id-derived tokens as well — both engines render the same overlay
    analytically, and the curve stays non-trivial at every scale.

    Scale shape: per-batch (token, min doc_id) partials → one bucketed
    min combine (the exchange carries the per-batch vocabulary, not the
    corpus) → map the vocabulary-sized first-occurrence table to
    checkpoints → a checkpoint-count rollup that is at most
    corpus/checkpoint rows → single-block cumulative sum. No sort of
    anything corpus- or vocabulary-sized."""
    from .common import bucketed_group_agg

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        d = batch["doc_id"].to_numpy(np.int64)
        text = (
            batch["text"]
            + " nv" + pd.Series(d % 37).astype(str)
            + " nw" + pd.Series(d // 13).astype(str)
        )
        toks = text.str.split(" ")
        flat = toks.explode()
        first = pd.DataFrame(
            {
                "token": flat.to_numpy(dtype=object),
                "first_doc": d[flat.index.to_numpy(np.int64)],
            }
        )
        return first.groupby("token", as_index=False, sort=False)["first_doc"].min()

    firsts = bucketed_group_agg(
        _docs(sf_dir, columns=["doc_id", "text"]).map_batches(partial, batch_format="pandas"),
        ["token"],
        {"first_doc": "min"},
    )

    def to_ckpt(batch: pd.DataFrame) -> pd.DataFrame:
        ck = batch["first_doc"].to_numpy(np.int64) // checkpoint
        out = pd.DataFrame({"ckpt": ck}).groupby("ckpt", as_index=False).size()
        return out.rename(columns={"size": "new_tokens"}).astype({"new_tokens": np.int64})

    counts = bucketed_group_agg(
        firsts.map_batches(to_ckpt, batch_format="pandas"), ["ckpt"], {"new_tokens": "sum"}
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.sort_values("ckpt").reset_index(drop=True)
        out["vocab_size"] = out["new_tokens"].cumsum().astype(np.int64)
        return out

    # batch_size=None: the cumulative sum must see the ONE block whole
    return counts.repartition(1).map_batches(finish, batch_format="pandas", batch_size=None)


DOCS_VOCAB_GROWTH_SQL = f"""
WITH t AS (
    SELECT doc_id,
           unnest(string_split(
               text || ' nv' || CAST(doc_id % 37 AS VARCHAR)
                    || ' nw' || CAST(doc_id // 13 AS VARCHAR), ' ')) AS token
    FROM documents
),
f AS (SELECT token, MIN(doc_id) AS first_doc FROM t GROUP BY token),
b AS (
    SELECT first_doc // {VOCAB_CHECKPOINT} AS ckpt, COUNT(*) AS new_tokens
    FROM f GROUP BY ckpt
)
SELECT CAST(ckpt AS BIGINT) AS ckpt,
       CAST(new_tokens AS BIGINT) AS new_tokens,
       CAST(SUM(new_tokens) OVER (ORDER BY ckpt) AS BIGINT) AS vocab_size
FROM b
ORDER BY ckpt
"""


# ---------------------------------------------------------------------------
# Count-Min sketch: fixed-size frequency summary + hard-bounded estimates


CMS_D = 4  # hash rows
CMS_W = 1024  # columns per row
CMS_TOP_K = TOP_TOKENS_K  # estimates reported for the exact top-k tokens


def _md5_hash15_str(tokens, salt: str) -> np.ndarray:
    """String variant of the repo's shared 60-bit md5-hash15 construct
    (curate._md5_hash15): first 15 hex chars of md5(salt + token) over
    UTF-8 bytes — bit-identical to DuckDB
    ``('0x' || substr(md5(salt || token), 1, 15))::BIGINT``."""
    import hashlib

    return np.fromiter(
        (int(hashlib.md5((salt + t).encode("utf-8")).hexdigest()[:15], 16) for t in tokens),
        dtype=np.int64,
        count=len(tokens),
    )


def cms_grid_partial(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-block CMS grid partial from (token, n) count rows: ≤ d·w cells
    of (row_i, col, cnt). Each distinct token hashes d times (salted
    md5), its count adds into one cell per row; cell-wise SUM is the
    mergeable combine (counter addition is associative), so re-blocking
    never changes the grid."""
    toks = batch["token"].to_numpy(dtype=object)
    n = batch["n"].to_numpy(np.int64)
    frames = []
    for i in range(CMS_D):
        col = _md5_hash15_str(toks, f"cms{i}:") % CMS_W
        frames.append(pd.DataFrame({"row_i": np.int64(i), "col": col, "cnt": n}))
    out = pd.concat(frames, ignore_index=True)
    return out.groupby(["row_i", "col"], as_index=False, sort=False)["cnt"].sum()


def docs_cms_topk(sf_dir: str):
    """Count-Min-sketch estimates for the exact top-k tokens, with the
    CMS lower-bound theorem enforced: est = min_i grid[i, h_i(token)] is
    ALWAYS ≥ the true count (every occurrence lands in the counted cell;
    collisions only add). Distributed shape: per-batch vocabulary counts
    (the same skew-bounding partial as ``docs_top_tokens``) → d·w-cell
    grid partials → bucketed cell sums — the grid is a fixed
    4×1024-cell summary regardless of corpus size, the CMS point at
    100 TB: frequency queries over an unbounded vocabulary served from
    32 KB of mergeable state. Estimates are derived driver-side from the
    merged grid (KB-sized) for the exact top-k and verified ≥ true.

    Bit-reproducible in DuckDB (``DOCS_CMS_SQL``): same salted-md5
    column derivation, same integer cell sums, same min-over-rows."""
    from .common import bucketed_group_agg

    ds = _docs(sf_dir, columns=["text"])

    def count_partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["text"].str.split(" ").explode().value_counts()
        return pd.DataFrame(
            {"token": vc.index.to_numpy(dtype=object), "n": vc.to_numpy(np.int64)}
        )

    counts = ds.map_batches(count_partial, batch_format="pandas")
    grid = bucketed_group_agg(
        counts.map_batches(cms_grid_partial, batch_format="pandas"),
        ["row_i", "col"],
        {"cnt": "sum"},
    ).to_pandas()
    cells = {(int(r), int(c)): int(v) for r, c, v in
             zip(grid["row_i"], grid["col"], grid["cnt"])}

    top = docs_top_tokens(sf_dir).to_pandas()
    toks = top["token"].to_numpy(dtype=object)
    ests = np.full(len(toks), np.iinfo(np.int64).max, dtype=np.int64)
    for i in range(CMS_D):
        cols = _md5_hash15_str(toks, f"cms{i}:") % CMS_W
        row_est = np.array([cells.get((i, int(c)), 0) for c in cols], dtype=np.int64)
        ests = np.minimum(ests, row_est)

    true = top["n"].to_numpy(np.int64)
    if (ests < true).any():
        bad = toks[ests < true]
        raise RuntimeError(f"CMS lower-bound theorem violated for {bad[:5]!r}")

    import ray.data

    return ray.data.from_pandas(
        pd.DataFrame(
            {
                "token": toks,
                "n": true,
                "rank": top["rank"].to_numpy(np.int64),
                "cms_est": ests,
            }
        )
    )


DOCS_CMS_SQL = f"""
WITH t AS (SELECT unnest(string_split(text, ' ')) AS token FROM documents),
c AS (SELECT token, COUNT(*) AS n FROM t GROUP BY token),
grid AS (
    SELECT r.i AS row_i,
           ('0x' || substr(md5('cms' || r.i || ':' || c.token), 1, 15))::BIGINT % {CMS_W} AS col,
           SUM(c.n) AS cnt
    FROM c CROSS JOIN (VALUES (0), (1), (2), (3)) r(i)
    GROUP BY 1, 2
),
top AS (
    SELECT token, n, ROW_NUMBER() OVER (ORDER BY n DESC, token ASC) AS rank
    FROM c ORDER BY n DESC, token ASC LIMIT {CMS_TOP_K}
),
tcols AS (
    SELECT top.token, top.n, top.rank, r.i,
           ('0x' || substr(md5('cms' || r.i || ':' || top.token), 1, 15))::BIGINT % {CMS_W} AS col
    FROM top CROSS JOIN (VALUES (0), (1), (2), (3)) r(i)
),
est AS (
    SELECT tcols.token, MIN(tcols.n) AS n, MIN(tcols.rank) AS rank,
           MIN(grid.cnt) AS cms_est
    FROM tcols JOIN grid ON grid.row_i = tcols.i AND grid.col = tcols.col
    GROUP BY tcols.token
)
SELECT token, CAST(n AS BIGINT) AS n, CAST(rank AS BIGINT) AS rank,
       CAST(cms_est AS BIGINT) AS cms_est
FROM est ORDER BY rank
"""


# ---------------------------------------------------------------------------
# n-gram LM coverage scoring (the perplexity-filter shape, integer-exact)


LM_MIN_COUNT = PMI_MIN_COUNT  # a bigram is "in the LM" at ≥ this corpus count


def docs_lm_coverage(sf_dir: str, min_count: int = LM_MIN_COUNT):
    """Per-document fluency proxy: the fraction of a document's adjacent
    bigram positions whose bigram clears a corpus-frequency floor — the
    integer-exact stand-in for the perplexity filter every pretraining
    pipeline runs (train a small LM on the corpus, score each doc, drop
    the tail). Two corpus passes, nothing corpus-sized on the driver:

    1. LM "training": bigram counts as per-batch partials → bucketed
       sums → ``min_count`` filter (the same skew-bounded kernel as
       ``docs_bigram_pmi``); the surviving model is vocabulary-sized.
    2. Scoring: per-doc bigram occurrence rows join the model via a
       hash-bucketed cogroup on the composite key (tokens cannot contain
       the join delimiter — they were split on it), counts summed per
       doc; per-doc totals come straight from the map side (no join).

    Documents with no bigram (≤1 token) score 1e6 (vacuously fluent) —
    the filter's job is to catch ACTIVELY unusual token sequences.
    Bit-exact in DuckDB (``DOCS_LM_COVERAGE_SQL``)."""
    from .common import bucketed_group_agg, cogroup_join

    docs = _docs(sf_dir, columns=["doc_id", "text"])

    lm = bucketed_group_agg(
        docs.map_batches(_bigram_counts_partial, batch_format="pandas"),
        ["left_token", "right_token"],
        {"n_ab": "sum"},
    ).map_batches(
        lambda b: pd.DataFrame(
            {"bigram": b.loc[b["n_ab"] >= min_count, "left_token"].str.cat(
                b.loc[b["n_ab"] >= min_count, "right_token"], sep=" "
            ).to_numpy(dtype=object)}
        ).assign(_known=np.int64(1)),
        batch_format="pandas",
    )

    def doc_bigrams(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        toks = batch["text"].str.split(" ")
        lens = toks.str.len().to_numpy(np.int64)
        flat = toks.explode().to_numpy(dtype=object)
        didx = np.repeat(batch["doc_id"].to_numpy(np.int64), lens)
        adj = didx[:-1] == didx[1:]
        pairs = pd.DataFrame(
            {
                "doc_id": didx[:-1][adj],
                "bigram": pd.Series(flat[:-1][adj]).str.cat(
                    pd.Series(flat[1:][adj]), sep=" "
                ).to_numpy(dtype=object),
            }
        )
        out = pairs.groupby(["doc_id", "bigram"], as_index=False, sort=False).size()
        return out.rename(columns={"size": "cnt"}).astype({"cnt": np.int64})

    def doc_totals(batch: pd.DataFrame) -> pd.DataFrame:
        n_tok = batch["text"].str.split(" ").str.len().to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64),
                "n_bigrams": np.maximum(n_tok - 1, 0),
            }
        )

    known = cogroup_join(
        docs.map_batches(doc_bigrams, batch_format="pandas"),
        lm,
        "bigram",
        "bigram",
        ["doc_id", "cnt"],
        ["_known"],
    )
    known_per_doc = bucketed_group_agg(
        known.map_batches(lambda b: b.rename(columns={"cnt": "n_known"}), batch_format="pandas"),
        ["doc_id"],
        {"n_known": "sum"},
    )
    totals = bucketed_group_agg(
        docs.map_batches(doc_totals, batch_format="pandas"), ["doc_id"], {"n_bigrams": "sum"}
    )

    joined = cogroup_join(
        totals, known_per_doc, "doc_id", "doc_id",
        ["doc_id", "n_bigrams"], ["n_known"], how="left",
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        nb = batch["n_bigrams"].to_numpy()
        nk = batch["n_known"].fillna(0).astype(np.int64).to_numpy()
        cov = np.where(nb == 0, np.int64(1_000_000), (nk * 1_000_000) // np.maximum(nb, 1))
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_bigrams": nb,
                "n_known": nk,
                "coverage_ppm": cov.astype(np.int64),
            }
        )

    return joined.map_batches(finish, batch_format="pandas").sort("doc_id")


DOCS_LM_COVERAGE_SQL = f"""
WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
big AS (
    SELECT doc_id, unnest(list_zip(toks[1:len(toks)-1], toks[2:len(toks)])) AS pr
    FROM t WHERE len(toks) >= 2
),
db AS (SELECT doc_id, pr[1] AS l, pr[2] AS r FROM big),
bg AS (
    SELECT l, r, COUNT(*) AS n_ab FROM db GROUP BY l, r
    HAVING COUNT(*) >= {LM_MIN_COUNT}
),
per AS (
    SELECT db.doc_id, COUNT(*) AS n_bigrams,
           SUM(CASE WHEN bg.l IS NOT NULL THEN 1 ELSE 0 END) AS n_known
    FROM db LEFT JOIN bg ON db.l = bg.l AND db.r = bg.r
    GROUP BY db.doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(per.n_bigrams, 0) AS BIGINT) AS n_bigrams,
       CAST(COALESCE(per.n_known, 0) AS BIGINT) AS n_known,
       CAST(CASE WHEN COALESCE(per.n_bigrams, 0) = 0 THEN 1000000
                 ELSE (COALESCE(per.n_known, 0) * 1000000) // per.n_bigrams
            END AS BIGINT) AS coverage_ppm
FROM (SELECT doc_id FROM documents) d LEFT JOIN per USING (doc_id)
ORDER BY d.doc_id
"""


# ---------------------------------------------------------------------------
# BPE ENCODING — applying the trained merge table to the corpus (the step
# between tokenizer training and token counting; completes the
# train → apply → count story). Application semantics are Sennrich
# scan-merge: each rule, in training order, merges all non-overlapping
# occurrences left to right. Implementation detail that makes the DuckDB
# twin possible: the training-loop regex uses lookbehind/lookahead, which
# RE2 (DuckDB) lacks — encoding instead works on the DOUBLED-separator
# form (symbols joined by two \x1f, one \x1f at each end), where every
# boundary has its own separator on each side, so a plain literal
# ``replace()`` — identical single-pass left-to-right semantics in Python
# and DuckDB — performs the merge with no lookarounds.

_SEP2 = _SYM_SEP * 2


def bpe_encode_word(word: str, merge_pairs, _cache: dict | None = None) -> list[str]:
    """Word -> BPE symbol list under the trained merges (plus </w>)."""
    if _cache is not None and word in _cache:
        return _cache[word]
    t = _SYM_SEP + _SEP2.join(list(word) + [_EOW]) + _SYM_SEP
    for left, right in merge_pairs:
        t = t.replace(
            f"{_SYM_SEP}{left}{_SEP2}{right}{_SYM_SEP}",
            f"{_SYM_SEP}{left}{right}{_SYM_SEP}",
        )
    syms = [s for s in t.split(_SYM_SEP) if s]
    if _cache is not None:
        _cache[word] = syms
    return syms


def docs_bpe_encode(sf_dir: str, merges: pd.DataFrame | None = None):
    """(doc_id, n_bpe_tokens, bpe_text) per document, sorted by doc_id —
    the whole corpus tokenized under the trained merge table. ``bpe_text``
    joins each word's symbols with '|' and words with ' ' (a readable,
    hashable rendering of the full encoding).

    ``merges``: optionally the (already verified) ``docs_bpe_train``
    output — the driver slot passes the table its textbook gate just
    checked, so the encode twin pins APPLICATION given a pinned table.
    Map-only over the corpus (the merge list broadcasts by closure —
    bytes, not a model); per-worker word cache (Zipf reuse)."""
    import ray.data as _rd

    if merges is None:
        merges = docs_bpe_train(sf_dir)
    pairs = list(zip(merges["left"], merges["right"]))

    docs = _docs(sf_dir, columns=["doc_id", "text"])

    def encode(batch: pd.DataFrame, _pairs=tuple(pairs)) -> pd.DataFrame:
        cache: dict[str, list[str]] = _BPE_ENC_CACHE
        if len(cache) > _SHARED_CACHE_CAP:
            cache.clear()
        n_out = np.empty(len(batch), dtype=np.int64)
        texts = []
        for i, txt in enumerate(batch["text"].to_numpy(dtype=object)):
            words = [bpe_encode_word(w, _pairs, cache) for w in txt.split(" ")]
            n_out[i] = sum(len(s) for s in words)
            texts.append(" ".join("|".join(s) for s in words))
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype(np.int64),
                "n_bpe_tokens": n_out,
                "bpe_text": pd.Series(texts, dtype=object),
            }
        )

    return docs.map_batches(encode, batch_format="pandas").sort("doc_id")


_BPE_ENC_CACHE: dict = {}
_SHARED_CACHE_CAP = 1 << 20


def docs_bpe_encode_sql(merges: pd.DataFrame) -> str:
    """DuckDB twin generated from the (verified) merge table: the same
    doubled-separator literal-replace chain, one nested ``replace()`` per
    merge in training order."""
    sep = "chr(31)"
    expr = f"{sep} || array_to_string(list_append(regexp_split_to_array(word, ''), '</w>'), {sep} || {sep}) || {sep}"
    for left, right in zip(merges["left"], merges["right"]):
        def q(s: str) -> str:
            return "'" + s.replace("'", "''") + "'"
        expr = (
            f"replace({expr}, {sep} || {q(left)} || {sep} || {sep} || {q(right)} || {sep},"
            f" {sep} || {q(left + right)} || {sep})"
        )
    return f"""
WITH w AS (
    SELECT doc_id,
           unnest(string_split(text, ' ')) AS word,
           generate_subscripts(string_split(text, ' '), 1) AS pos
    FROM documents
),
enc AS (
    SELECT doc_id, pos,
           list_filter(string_split({expr}, chr(31)), x -> x <> '') AS syms
    FROM w
)
SELECT doc_id,
       CAST(SUM(len(syms)) AS BIGINT) AS n_bpe_tokens,
       string_agg(array_to_string(syms, '|'), ' ' ORDER BY pos) AS bpe_text
FROM enc
GROUP BY doc_id
ORDER BY doc_id
"""


FEAT_DIMS = 64


def _hashed_slot_rows(texts: pd.Series, n_dims: int, salt: str):
    """THE signed hashing-trick kernel (one copy — ``docs_feature_hash``
    and the linear probe's design matrix both consume it): explode
    whitespace tokens, md5-hash per UNIQUE token (the repo's shared
    60-bit construct), and return the aligned (row_idx, slot, sign)
    arrays. Empty input returns three empty arrays."""
    texts = texts.reset_index(drop=True)
    toks = texts.str.split(" ")
    reps = toks.str.len().to_numpy()
    rows = np.repeat(np.arange(len(texts), dtype=np.int64), reps)
    if len(rows) == 0:
        e = np.array([], np.int64)
        return e, e, e
    flat = np.concatenate([np.asarray(t, dtype=object) for t in toks.to_numpy()])
    uniq, inv = np.unique(flat.astype(str), return_inverse=True)
    hv = _md5_hash15_str(uniq, salt)[inv]
    sign = np.where((hv // n_dims) % 2 == 0, 1, -1).astype(np.int64)
    return rows, hv % n_dims, sign


def docs_feature_hash(sf_dir: str, n_dims: int = FEAT_DIMS, salt: str = ""):
    """Hashing-trick featurizer (Weinberger et al. 2009, the
    Vowpal-Wabbit / Johnson-Lindenstrauss construction): each token maps
    to ``slot = h % n_dims`` with sign ``±1`` from the next hash bit, and
    a document's feature vector is the signed token-count fold — the
    fixed-dimension text featurization step a training pipeline runs
    before any linear probe / logistic filter. The signed variant makes
    collision noise zero-mean, so inner products are preserved in
    expectation (pinned by the salt-averaged property test).

    Scale shape: map-ONLY — a document's tokens live in its own row, so
    the explode, the md5-per-UNIQUE-token hash (vocab-bounded per batch,
    the repo's convention) and the (doc, slot) signed fold all happen
    inside the batch; nothing shuffles at any corpus size. Output is the
    sparse nonzero (doc_id, slot, feat_val) triplet table. The hash is
    the engine/oracle-shared md5 60-bit hex-parse (`_md5_hash15`'s
    construct over the token STRING), so the DuckDB twin replays it
    bit-exactly.
    """
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def feat(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        rows, slots, signs = _hashed_slot_rows(batch["text"], n_dims, salt)
        if len(rows) == 0:
            return pd.DataFrame(
                {"doc_id": np.array([], np.int64), "slot": np.array([], np.int64),
                 "feat_val": np.array([], np.int64)}
            )
        df = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(np.int64)[rows],
                "slot": slots,
                "sign": signs,
            }
        )
        out = df.groupby(["doc_id", "slot"], sort=False)["sign"].sum().reset_index()
        out = out[out["sign"] != 0]
        return out.rename(columns={"sign": "feat_val"}).astype(
            {"doc_id": np.int64, "slot": np.int64, "feat_val": np.int64}
        )

    return ds.map_batches(feat, batch_format="pandas")


DOCS_FEATURE_HASH_SQL = f"""
WITH t AS (
    SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
),
h AS (
    SELECT doc_id, ('0x' || substr(md5(tok), 1, 15))::BIGINT AS hv FROM t
)
SELECT doc_id,
       CAST(hv % {FEAT_DIMS} AS BIGINT) AS slot,
       CAST(SUM(CASE WHEN (hv // {FEAT_DIMS}) % 2 = 0 THEN 1 ELSE -1 END) AS BIGINT) AS feat_val
FROM h
GROUP BY doc_id, hv % {FEAT_DIMS}
HAVING SUM(CASE WHEN (hv // {FEAT_DIMS}) % 2 = 0 THEN 1 ELSE -1 END) <> 0
ORDER BY doc_id, slot
"""


BM25_QUERIES = ("merge", "window", "customer", "vector")
BM25_TOPK = 10


def _bm25_over(ds, queries: tuple, k: int):
    """THE BM25 dataflow (one copy — ``docs_bm25`` runs it over the raw
    corpus, ``docs_retrieval_pipeline`` over the normalized+filtered
    corpus): query-term DF/N/T stats via per-batch partials + KB rollup,
    broadcast log-free integer idf, map-side scores with per-block top-k
    prune, per-query fold."""
    from .common import bucketed_group_agg

    qset = list(queries)

    def stats_partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].str.split(" ")
        dl = toks.str.len().to_numpy(np.int64)
        rows = {"q": [], "df": [], "n": [], "t": []}
        for q in qset:
            has = np.fromiter((q in t for t in toks), dtype=bool, count=len(toks))
            rows["q"].append(q)
            rows["df"].append(np.int64(has.sum()))
            rows["n"].append(np.int64(len(batch)))
            rows["t"].append(np.int64(dl.sum()))
        return pd.DataFrame(rows)

    st = (
        bucketed_group_agg(
            ds.map_batches(stats_partial, batch_format="pandas"),
            ["q"],
            {"df": "sum", "n": "sum", "t": "sum"},
        )
        .to_pandas()
        .set_index("q")
    )
    n_docs = int(st["n"].iloc[0])
    t_total = int(st["t"].iloc[0])
    dfs = {q: int(st.loc[q, "df"]) for q in qset}
    idf_ppm = {q: (n_docs - dfs[q]) * 1_000_000 // max(dfs[q], 1) for q in qset}

    def score_partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].str.split(" ")
        dl = toks.str.len().to_numpy(np.int64)
        did = batch["doc_id"].to_numpy(np.int64)
        frames = []
        for q in qset:
            tf = np.fromiter(
                (t.count(q) for t in toks), dtype=np.int64, count=len(toks)
            )
            hit = tf > 0
            if not hit.any():
                continue
            tfx, dlx, dx = tf[hit], dl[hit], did[hit]
            score = np.fromiter(
                (
                    idf_ppm[q] * 44 * int(f) * t_total
                    // (20 * int(f) * t_total + 6 * t_total + 18 * int(l) * n_docs)
                    for f, l in zip(tfx, dlx)
                ),
                dtype=np.int64,
                count=len(tfx),
            )
            f = pd.DataFrame({"q": q, "doc_id": dx, "tf": tfx, "score_ppm": score})
            # per-block top-k prune before anything shuffles
            f = f.sort_values(["score_ppm", "doc_id"], ascending=[False, True],
                              kind="mergesort").head(k)
            frames.append(f)
        if not frames:
            return pd.DataFrame(
                {"q": pd.Series(dtype=object), "doc_id": pd.Series(dtype=np.int64),
                 "tf": pd.Series(dtype=np.int64),
                 "score_ppm": pd.Series(dtype=np.int64)}
            )
        return pd.concat(frames, ignore_index=True)

    def add_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__b"] = (
            pd.util.hash_pandas_object(batch["q"], index=False).to_numpy() % 16
        ).astype(np.int64)
        return batch

    def topk_fold(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["q", "score_ppm", "doc_id"],
                              ascending=[True, False, True], kind="mergesort")
        out = g.groupby("q", sort=False).head(k).copy()
        out["rank"] = out.groupby("q", sort=False).cumcount().astype(np.int64) + 1
        return out.drop(columns=["__b"])

    return (
        ds.map_batches(score_partial, batch_format="pandas")
        .map_batches(add_bucket, batch_format="pandas")
        .groupby("__b")
        .map_groups(topk_fold, batch_format="pandas")
        .sort(["q", "rank"])
    )


def docs_bm25(sf_dir: str, queries: tuple = BM25_QUERIES, k: int = BM25_TOPK):
    """BM25 ranked retrieval for a fixed query-term set — the retrieval
    step after the TF-IDF statistics: per (query, doc) score with the
    classic saturation/length normalization at k1 = 6/5, b = 3/4, then
    exact top-k per query (score DESC, doc_id ASC).

    All-integer contract: with T = corpus token count, N = docs, dl =
    doc length, the k1/b fractions clear to

        score_ppm = idf_ppm · 44 · tf · T  //  (20·tf·T + 6·T + 18·dl·N)

    and idf is the LOG-FREE probabilistic variant ``(N − df)·10^6 // df``
    (a runtime ln() of an arbitrary ratio cannot be shared bit-exactly
    with DuckDB; the monotone log-free idf is the documented stand-in —
    same ranking family, exact in both engines via HUGEINT/Python ints).

    The dataflow lives in :func:`_bm25_over` (one copy, shared with the
    composed retrieval pipeline)."""
    return _bm25_over(_docs(sf_dir, columns=["doc_id", "text"]), queries, k)


def _bm25_sql(source_sql: str = "SELECT doc_id, text FROM documents") -> str:
    """BM25 twin over any (doc_id, text) source CTE — ``docs_bm25`` uses
    the raw table, the retrieval pipeline passes the normalized+filtered
    CTE, so both twins share ONE formula body."""
    qvals = ", ".join(f"('{q}')" for q in BM25_QUERIES)
    return f"""
WITH src AS ({source_sql}),
d AS (
    SELECT doc_id, string_split(text, ' ') AS toks,
           len(string_split(text, ' ')) AS dl
    FROM src
),
tot AS (SELECT CAST(SUM(dl) AS HUGEINT) AS t, CAST(COUNT(*) AS HUGEINT) AS n FROM d),
q(q) AS (VALUES {qvals}),
hits AS (
    SELECT q.q, d.doc_id, d.dl,
           CAST(len(list_filter(d.toks, x -> x = q.q)) AS HUGEINT) AS tf
    FROM d, q
),
stats AS (
    SELECT q, CAST(COUNT(*) FILTER (WHERE tf > 0) AS HUGEINT) AS df FROM hits GROUP BY q
),
scored AS (
    SELECT h.q, h.doc_id, CAST(h.tf AS BIGINT) AS tf,
           CAST(((tot.n - s.df) * 1000000 // GREATEST(s.df, 1)) * 44 * h.tf * tot.t
                // (20 * h.tf * tot.t + 6 * tot.t + 18 * h.dl * tot.n) AS BIGINT)
               AS score_ppm
    FROM hits h JOIN stats s USING (q), tot
    WHERE h.tf > 0
),
ranked AS (
    SELECT *, ROW_NUMBER() OVER (PARTITION BY q ORDER BY score_ppm DESC, doc_id)
           AS rank
    FROM scored
)
SELECT q, doc_id, tf, score_ppm, CAST(rank AS BIGINT) AS rank
FROM ranked WHERE rank <= {BM25_TOPK}
ORDER BY q, rank
"""


DOCS_BM25_SQL = _bm25_sql()


def docs_langid_eval(sf_dir: str):
    """Language-ID quality eval — the confusion matrix of the LangId
    heuristic against the corpus's own ``lang`` labels (the
    eval-as-pipeline recipe: classifier quality measured distributed,
    like ``docs_neardup_recall`` / ``emb_cluster_purity``). Map-side
    predictions (the ONE shared ``langid_preds`` kernel) + in-batch
    partial counts + one (lang, pred)-cardinality bucketed combine;
    the twin composes the generated LangId SQL with a GROUP BY."""
    from .common import bucketed_group_agg

    ds = _docs(sf_dir, columns=["lang", "text"])

    def part(batch: pd.DataFrame) -> pd.DataFrame:
        preds = langid_preds(batch["text"])
        df = pd.DataFrame(
            {"lang": batch["lang"].astype(object),
             "pred_lang": pd.Series(preds, dtype=object),
             "n_docs": np.int64(1)}
        )
        return df.groupby(["lang", "pred_lang"], as_index=False, sort=False).sum()

    agg = bucketed_group_agg(
        ds.map_batches(part, batch_format="pandas"),
        ["lang", "pred_lang"],
        {"n_docs": "sum"},
    )

    def fin(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.astype({"n_docs": np.int64})

    return agg.map_batches(fin, batch_format="pandas").sort(["lang", "pred_lang"])


DOCS_LANGID_EVAL_SQL = f"""
WITH preds AS ({DOCS_LANGID_SQL.rstrip()})
SELECT lang, pred_lang, CAST(COUNT(*) AS BIGINT) AS n_docs
FROM preds
GROUP BY lang, pred_lang
ORDER BY lang, pred_lang
"""


RETRIEVAL_MIN_TOKENS = 30


def docs_retrieval_pipeline(sf_dir: str, queries: tuple = BM25_QUERIES,
                            k: int = BM25_TOPK,
                            min_tokens: int = RETRIEVAL_MIN_TOKENS):
    """Retrieval-index build COMPOSED as one streaming DAG — the search
    counterpart of ``docs_curation_pipeline``: normalize (the SHARED
    ``ops/curate.normalize_overlay_arrays`` kernel — one copy, the same
    function ``docs_normalize`` runs) → length-filter the CLEANED text
    (short docs dropped before any statistics) → the SHARED
    :func:`_bm25_over` dataflow over the surviving corpus. Composition
    is the point: the filter changes N, T and every df, so the twin
    threads the same intermediate corpus through the same integer
    formula — assembled from the SAME SQL fragments the standalone ops
    pin.

    Scale shape: normalization and filtering are map-only and happen
    BEFORE the stats pass (pruned corpus pays the two BM25 passes);
    everything else is the ``docs_bm25`` shape."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def norm_filter(batch: pa.Table) -> pa.Table:
        from .curate import normalize_overlay_arrays

        _dirty, trimmed = normalize_overlay_arrays(batch)
        out = pa.table({"doc_id": batch["doc_id"], "text": trimmed})
        n_tok = pc.add(pc.count_substring(trimmed, " "), 1)
        return out.filter(pc.greater_equal(n_tok, min_tokens))

    clean = ds.map_batches(norm_filter, batch_format="pyarrow").materialize()
    return _bm25_over(clean, queries, k)


def _retrieval_pipeline_sql() -> str:
    # curate owns the normalize fragment; imported HERE (not at module
    # level) because curate imports text's marker bank — lazy breaks the
    # cycle and the constant resolves through module __getattr__ below
    from .curate import DOCS_NORMALIZE_SQL

    source = f"""SELECT doc_id, norm_text AS text FROM ({DOCS_NORMALIZE_SQL.rstrip()})
    WHERE len(string_split(norm_text, ' ')) >= {RETRIEVAL_MIN_TOKENS}"""
    return _bm25_sql(source)


# ---------------------------------------------------------------------------
# Supervised linear probe: the model-based quality-filter shape (train a
# linear scorer on hashed text features, score the whole corpus with it)


PROBE_RIDGE = 1000  # λ on the feature weights (bias unpenalized)
# Largest corpus (docs) for which the Σy² Gram cell (≤ n_docs · 1e12,
# y in ppm so y² ≤ 1e12) provably fits in int64 (9.22e18) with margin.
PROBE_INT64_SAFE_DOCS = 8_000_000


def _probe_z(batch: pd.DataFrame, n_dims: int, salt: str) -> np.ndarray:
    """Dense augmented design block Z (n × (D+2)) int64: columns
    [signed hashed features | bias=1 | label y = stop-ratio ppm]."""
    batch = batch.reset_index(drop=True)
    z = np.zeros((len(batch), n_dims + 2), dtype=np.int64)
    rows, slots, signs = _hashed_slot_rows(batch["text"], n_dims, salt)
    if len(rows):
        np.add.at(z, (rows, slots), signs)
    z[:, n_dims] = 1
    z[:, n_dims + 1] = stop_ratio_ppm_kernel(batch["text"])
    return z


def docs_probe_gram(sf_dir: str, n_dims: int = FEAT_DIMS, salt: str = ""):
    """Integer sufficient statistics for the supervised linear probe —
    the augmented second-moment matrix G = Σ_docs z zᵀ over
    z = [x, 1, y], where x is the signed hashing-trick feature vector
    (the ``docs_feature_hash`` construct) and y the stopword-ratio
    quality label in ppm. The upper triangle, emitted as (i, j, val)
    rows, carries everything a ridge regression with intercept needs:
    XᵀX, Σx (j=D), Xᵀy (j=D+1), n_docs (D,D), Σy (D,D+1), Σy²
    (D+1,D+1).

    Scale shape: map-ONLY — one dense int64 ZᵀZ matmul per batch
    (exact), ~(D+2)²/2 ≈ 2.2k partial rows per batch into a bucketed
    combine; nothing corpus-sized shuffles, and the model fit downstream
    touches only this KB-sized table. Entries that sum to zero are
    filtered AFTER the global combine (matching the twin's HAVING).
    Overflow budget: the y² cell grows ~1e12/doc, wrapping int64 past
    ~9.2e6 docs. The guard is the (D,D) = n_docs cell — it grows by
    1/doc so it stays exact far beyond any corpus size — checked
    against ``PROBE_INT64_SAFE_DOCS`` after the global combine; a
    corpus past the budget raises loudly (use a per-mille label scale
    or a wider accumulator) instead of fitting on wrapped statistics.
    """
    from .common import bucketed_group_agg

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    iu, ju = np.triu_indices(n_dims + 2)

    def gram_partial(batch: pd.DataFrame) -> pd.DataFrame:
        z = _probe_z(batch, n_dims, salt)
        g = z.T @ z
        return pd.DataFrame(
            {"i": iu.astype(np.int64), "j": ju.astype(np.int64), "val": g[iu, ju]}
        )

    agg = bucketed_group_agg(
        ds.map_batches(gram_partial, batch_format="pandas"), ["i", "j"], {"val": "sum"}
    )

    def fin(batch: pd.DataFrame) -> pd.DataFrame:
        # Loud overflow gate: the n_docs cell (D,D) grows by exactly 1 per
        # doc, so it is trustworthy even when the Σy² cell (D+1,D+1) has
        # wrapped; past the budget Σy² (≤ n_docs·1e12) MAY have exceeded
        # int64 — refuse to emit wrapped statistics.
        nd = batch[(batch["i"] == n_dims) & (batch["j"] == n_dims)]
        if len(nd) and int(nd["val"].max()) > PROBE_INT64_SAFE_DOCS:
            raise OverflowError(
                f"docs_probe_gram: corpus has {int(nd['val'].max())} docs > "
                f"int64-safe budget {PROBE_INT64_SAFE_DOCS} for the y² Gram "
                "cell (~1e12/doc); rescale the label channel before fitting"
            )
        batch = batch[batch["val"] != 0]
        return batch.astype({"i": np.int64, "j": np.int64, "val": np.int64})

    return agg.map_batches(fin, batch_format="pandas").sort(["i", "j"])


def _probe_gram_sql(n_dims: int) -> str:
    return f"""
WITH t AS (
    SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
),
h AS (
    SELECT doc_id, ('0x' || substr(md5(tok), 1, 15))::BIGINT AS hv FROM t
),
x AS (
    SELECT doc_id, CAST(hv % {n_dims} AS BIGINT) AS ch,
           CAST(SUM(CASE WHEN (hv // {n_dims}) % 2 = 0 THEN 1 ELSE -1 END) AS BIGINT) AS v
    FROM h GROUP BY doc_id, hv % {n_dims}
    HAVING SUM(CASE WHEN (hv // {n_dims}) % 2 = 0 THEN 1 ELSE -1 END) <> 0
),
z AS (
    SELECT * FROM x
    UNION ALL SELECT doc_id, CAST({n_dims} AS BIGINT), CAST(1 AS BIGINT) FROM documents
    UNION ALL SELECT doc_id, CAST({n_dims + 1} AS BIGINT),
        CAST(FLOOR(
            len(list_filter(string_split(text, ' '), w -> w IN ('the','a','and','of','to')))::DOUBLE
            / GREATEST(len(string_split(text, ' ')), 1) * 1000000 + 0.5) AS BIGINT)
    FROM documents
)
SELECT a.ch AS i, c.ch AS j, CAST(SUM(a.v * c.v) AS BIGINT) AS val
FROM z a JOIN z c ON a.doc_id = c.doc_id AND a.ch <= c.ch
GROUP BY a.ch, c.ch
HAVING SUM(a.v * c.v) <> 0
ORDER BY i, j
"""


DOCS_PROBE_GRAM_SQL = _probe_gram_sql(FEAT_DIMS)


def docs_linear_probe(sf_dir: str, n_dims: int = FEAT_DIMS, salt: str = "",
                      ridge: int = PROBE_RIDGE, gram: pd.DataFrame | None = None):
    """Model-based quality filtering end-to-end: fit a ridge linear
    scorer y ≈ x·w + b on the hashed-feature sufficient statistics
    (``docs_probe_gram``, one streaming pass), broadcast the weights,
    and SCORE the whole corpus in a second map-only pass — the
    train-a-classifier-then-filter shape (fasttext-style quality
    models) with the classifier replaced by its linear core so the fit
    is deterministic and auditable.

    Forced invariant (raises): the ridge objective guarantees training
    SSE(model) ≤ SSE(best constant predictor); a violation means the
    solve or the scoring pass is broken. Output: per-source
    (n_docs, mae_ppm, r2_ppm) — the per-slice audit a curation run
    reads before trusting the scorer. No SQL twin for the float solve
    itself; the INPUT statistics are twin-checked (DOCS_PROBE_GRAM_SQL)
    and the fit is pinned against a local numpy reference in tests."""
    import ray

    from .common import bucketed_group_agg

    # ``gram``: a caller that already ran (and twin-checked) the Gram
    # pass hands it in instead of paying a second full corpus scan
    g = gram if gram is not None else docs_probe_gram(sf_dir, n_dims=n_dims, salt=salt).to_pandas()
    d1 = n_dims + 2
    G = np.zeros((d1, d1), dtype=np.float64)
    G[g["i"], g["j"]] = g["val"]
    G[g["j"], g["i"]] = g["val"]
    A = G[: n_dims + 1, : n_dims + 1].copy()  # [X | 1]ᵀ[X | 1]
    b = G[: n_dims + 1, n_dims + 1].copy()  # [X | 1]ᵀ y
    reg = np.eye(n_dims + 1) * float(ridge)
    reg[n_dims, n_dims] = 0.0  # intercept unpenalized
    n_docs_total = G[n_dims, n_dims]
    if n_docs_total > PROBE_INT64_SAFE_DOCS:  # covers caller-supplied grams too
        raise OverflowError(
            f"docs_linear_probe: {int(n_docs_total)} docs > int64-safe budget "
            f"{PROBE_INT64_SAFE_DOCS}; the y² statistic may have wrapped"
        )
    w = np.linalg.solve(A + reg, b)
    y_mean = G[n_dims, n_dims + 1] / max(n_docs_total, 1.0)
    w_ref = ray.put((w[:n_dims], float(w[n_dims]), float(y_mean)))

    ds = _docs(sf_dir, columns=["doc_id", "source", "text"])

    def score_partial(batch: pd.DataFrame, _ref=w_ref) -> pd.DataFrame:
        wf, wb, ym = ray.get(_ref)
        z = _probe_z(batch, n_dims, salt)
        y = z[:, n_dims + 1].astype(np.float64)
        pred = z[:, :n_dims].astype(np.float64) @ wf + wb
        err = y - pred
        out = pd.DataFrame(
            {
                "source": batch["source"].astype(object).to_numpy(),
                "n_docs": np.int64(1),
                "sse_model": err * err,
                "sse_const": (y - ym) ** 2,
                "abs_err": np.abs(err),
            }
        )
        return out.groupby("source", as_index=False, sort=False).sum()

    agg = bucketed_group_agg(
        ds.map_batches(score_partial, batch_format="pandas"),
        ["source"],
        {"n_docs": "sum", "sse_model": "sum", "sse_const": "sum", "abs_err": "sum"},
    ).to_pandas()
    sse_m, sse_c = float(agg["sse_model"].sum()), float(agg["sse_const"].sum())
    if sse_m > sse_c * (1 + 1e-9) + 1.0:
        raise RuntimeError(
            f"linear probe did not beat the constant predictor on its own "
            f"training data: SSE {sse_m} > {sse_c} — solve or scoring broken"
        )
    out = pd.DataFrame(
        {
            "source": agg["source"].astype(object),
            "n_docs": agg["n_docs"].astype(np.int64),
            "mae_ppm": np.floor(
                agg["abs_err"].to_numpy() / np.maximum(agg["n_docs"].to_numpy(), 1) + 0.5
            ).astype(np.int64),
            "r2_ppm": np.floor(
                (1.0 - agg["sse_model"].to_numpy() / np.maximum(agg["sse_const"].to_numpy(), 1e-12))
                * 1e6 + 0.5
            ).astype(np.int64),
        }
    ).sort_values("source").reset_index(drop=True)
    import ray.data as _rd

    return _rd.from_pandas(out)


def __getattr__(name: str):
    if name == "DOCS_RETRIEVAL_SQL":
        return _retrieval_pipeline_sql()
    raise AttributeError(name)
