"""Driver-facing query registry.

``REGISTRY`` maps query name → (callable(sf_dir) → Dataset, oracle SQL or
None). SQL-checked entries run against the DuckDB views the driver
registers over the same parquet tables; column names match exactly.
Transcript-extraction entries have no SQL equivalent (ordered stateful
folds) → rows-only checks, verified instead by the engine-vs-oracle pytest
gate (tests/test_engine_vs_oracle.py).

Registry size is capped at 50 entries: the round-2 driver recorded exactly
the first 50 keys and silently dropped the rest (CORRECTNESS_r02.json),
so equivalent pipeline VARIANTS are folded into one entry each that runs
BOTH variants and raises unless their outputs are byte-identical
(salted vs plain invoice/catalog) — the variant coverage stays
executable-and-checked in the driver record instead of falling off the
end. SQL-checked entries come first, the flagship census-persons
pipeline and the detector paths immediately after.
"""

from __future__ import annotations

from ..ops import curate, dedup, events, graph, relational, similarity, surrogate
from ..ops import multimodal as mm
from ..ops import text as tx
from ..sources.transcripts import boxes_path_for_sf, transcripts_path_for_sf
from . import extract


def _assert_variants_equal(name_a: str, ds_a, name_b: str, ds_b) -> None:
    """Byte-equality gate between two pipeline variants (row order free);
    returns the first variant's DataFrame for the caller to hand back.

    Drives both datasets to pandas (the variant queries run at correctness
    scale — sf0.01 — where both results are small), canonicalizes via
    string casting (list columns are unsortable otherwise) + full-column
    sort, and raises on any difference so the driver records a hard error
    rather than silently checking only one variant.
    """
    a = ds_a.to_pandas()
    b = ds_b.to_pandas()
    cols = sorted(a.columns)
    if cols != sorted(b.columns):
        raise RuntimeError(f"{name_a} vs {name_b}: column mismatch {cols} != {sorted(b.columns)}")
    ca = a[cols].astype(str).sort_values(cols, kind="mergesort").reset_index(drop=True)
    cb = b[cols].astype(str).sort_values(cols, kind="mergesort").reset_index(drop=True)
    if not ca.equals(cb):
        n = int((ca != cb).any(axis=1).sum()) if len(ca) == len(cb) else abs(len(ca) - len(cb))
        raise RuntimeError(f"{name_a} vs {name_b}: {n} differing rows (of {len(ca)}/{len(cb)})")
    return a


def _assert_sql_twin(name: str, ds, sql: str, sf_dir: str, tables=("documents",)):
    """In-query hash gate: dtype-strict comparison of a pipeline result
    against its DuckDB twin — the same canon as the external gate (columns
    sorted by name, object cells stringified, rows sorted by all columns),
    so a slot can keep an op fully SQL-checked while RECORDING a different
    op's result. Raises so the driver records a hard error on divergence.
    Returns the oracle frame (as fetched, pre-canon) so callers that need
    the twin's output don't re-run the SQL.

    Like ``_assert_variants_equal``, this gate runs at correctness-check
    scale (sf0.01) where both frames are small; it is NOT part of any
    production pipeline — the ops themselves stream."""
    import duckdb
    import pandas as pd

    def canon(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df[sorted(df.columns)].copy()
        for c in df.columns:
            if df[c].dtype == object:
                df[c] = df[c].map(lambda v: str(v) if v is not None else None)
        return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)

    got = ds.to_pandas() if hasattr(ds, "to_pandas") else ds
    con = duckdb.connect()
    try:
        for t in tables:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")
        want = con.execute(sql).fetchdf()
    finally:
        con.close()
    g, w = canon(got), canon(want)
    if list(g.columns) != list(w.columns) or len(g) != len(w):
        raise RuntimeError(
            f"{name} twin gate: shape mismatch {g.shape}/{list(g.columns)} "
            f"vs {w.shape}/{list(w.columns)}"
        )
    try:
        pd.testing.assert_frame_equal(g, w, check_dtype=True, check_exact=True)
    except AssertionError as e:  # noqa: BLE001
        raise RuntimeError(f"{name} twin gate: value mismatch: {str(e)[:300]}") from e
    return want


def _keyword_redact_query(sf_dir: str):
    """Context-window chunking AND PII redaction AND the regex keyword
    extractor AND the rejection-reason bitmap AND text normalization in
    one driver slot. Forced gates: ``docs_keyword``, ``docs_pii_redact``,
    ``docs_normalize`` (RE2-only lowercase/strip/collapse/trim over a
    rendered dirty overlay, zero-copy Arrow kernels) and
    ``docs_reject_reasons`` (the per-rule Gopher-filter audit bitmap)
    stay fully hash-checked via in-query twin gates (same canon as the
    driver's). RECORDED result: ``docs_chunk_windows`` — the sliding
    training-window explode (map only, output bigger than input,
    streams), pinned to a LATERAL generate_series DuckDB twin including
    each window's first token."""
    _assert_sql_twin("docs_keyword", tx.docs_keyword(sf_dir), tx.DOCS_KEYWORD_SQL, sf_dir)
    _assert_sql_twin(
        "docs_normalize", curate.docs_normalize(sf_dir), curate.DOCS_NORMALIZE_SQL, sf_dir
    )
    _assert_sql_twin("docs_pii_redact", curate.docs_redact(sf_dir), curate.DOCS_REDACT_SQL, sf_dir)
    _assert_sql_twin(
        "docs_reject_reasons",
        curate.docs_reject_reasons(sf_dir),
        curate.DOCS_REJECT_SQL,
        sf_dir,
    )
    return curate.docs_chunk_windows(sf_dir)


def _fingerprint_split_reservoir_query(sf_dir: str):
    """Weighted priority sampling AND the vocabulary growth curve AND
    deterministic per-source reservoir sampling AND the train/val/test
    split AND the md5 fingerprint in one driver slot. Forced gates:
    ``docs_fingerprint``, ``docs_split_stratified``,
    ``docs_reservoir_sample``, ``docs_vocab_growth``,
    ``docs_incremental_dedup`` (new-shard-vs-index fingerprint dedup —
    the checkpoint-resume shape of corpus dedup, one bucketed left
    cogroup join) and ``docs_shard_assign`` (rendezvous-hash placement
    rollup; minimal-movement theorem pinned by the kernel test) stay
    fully hash-checked via in-query twin gates. RECORDED result:
    ``docs_priority_sample`` — the Duffield-Lund-Thorup-shaped
    weighted sample (hash // token-weight priorities, k smallest,
    mergeable per-block prune), pinned to its md5 hex-parse DuckDB twin."""
    _assert_sql_twin(
        "docs_fingerprint", tx.docs_fingerprint(sf_dir), tx.DOCS_FINGERPRINT_SQL, sf_dir
    )
    _assert_sql_twin(
        "docs_split_stratified",
        curate.docs_split_stratified(sf_dir),
        curate.DOCS_SPLIT_SQL,
        sf_dir,
    )
    _assert_sql_twin(
        "docs_reservoir_sample",
        curate.docs_reservoir_sample(sf_dir),
        curate.DOCS_RESERVOIR_SQL,
        sf_dir,
    )
    _assert_sql_twin(
        "docs_vocab_growth", tx.docs_vocab_growth(sf_dir), tx.DOCS_VOCAB_GROWTH_SQL, sf_dir
    )
    _assert_sql_twin(
        "docs_incremental_dedup",
        curate.docs_incremental_dedup(sf_dir),
        curate.DOCS_INCR_DEDUP_SQL,
        sf_dir,
    )
    _assert_sql_twin(
        "docs_shard_assign",
        curate.docs_shard_assign(sf_dir),
        curate.DOCS_SHARD_ASSIGN_SQL,
        sf_dir,
    )
    return curate.docs_priority_sample(sf_dir)


def _sessionize_funnel_query(sf_dir: str):
    """Funnel sequence-matching AND sessionization AND the join planner
    in one driver slot. Forced gates: ``events_sessionize`` and
    ``events_join_cardinality`` (CMS inner-product join-size estimation
    with the upper-bound theorem raised on in-op) stay fully hash-checked
    via in-query twin gates. RECORDED result: ``events_funnel`` — per-user
    count of purchases preceded by a click within the window (ordered
    two-step pattern over the event stream: one hash shuffle, one
    vectorized merge-scan per bucket, per-user rollup completed
    in-bucket), pinned to an EXISTS DuckDB twin."""
    _assert_sql_twin(
        "events_sessionize",
        events.events_sessionize(sf_dir),
        events.EVENTS_SESSIONIZE_SQL,
        sf_dir,
        tables=("events",),
    )
    _assert_sql_twin(
        "events_join_cardinality",
        events.events_join_cardinality(sf_dir),
        events.EVENTS_JOINCARD_SQL,
        sf_dir,
        tables=("events", "orders"),
    )
    return events.events_funnel(sf_dir)


def _token_stats_top_query(sf_dir: str):
    """Vocabulary top-k AND per-language token stats AND the MG + CMS
    sketches AND the distributed BPE tokenizer trainer in one driver
    slot. Forced gates: ``docs_token_stats``, ``docs_bpe_word_counts``
    and ``docs_cms_topk`` (Count-Min grid sums + min-over-rows
    estimates, with the est ≥ true theorem raised on internally) stay
    fully hash-checked via in-query twin gates; ``docs_bpe_train`` must
    equal the textbook single-process BPE fed from DuckDB word counts;
    the MG sketch must satisfy its theorem bound vs the exact top-k.
    RECORDED result: ``docs_top_tokens`` — exact global token counts
    with per-batch partials, bucketed sums, per-bucket top-k prune,
    deterministic (count DESC, token ASC) ranking; MG bound: every
    top-k token present with est ≤ true ≤ est + n/(m+1)."""
    _assert_sql_twin(
        "docs_token_stats", tx.docs_token_stats(sf_dir), tx.DOCS_TOKEN_STATS_SQL, sf_dir
    )
    _assert_sql_twin("docs_cms_topk", tx.docs_cms_topk(sf_dir), tx.DOCS_CMS_SQL, sf_dir)
    wc = _assert_sql_twin(
        "docs_bpe_word_counts", tx.bpe_word_counts(sf_dir), tx.BPE_WORD_COUNTS_SQL, sf_dir
    )
    # forced gate: the DISTRIBUTED BPE trainer must reproduce the textbook
    # single-process trainer fed from DuckDB's own word counts (the twin
    # gate's oracle frame — no second corpus scan) — pins the whole
    # corpus → word-count → merge-loop path in the driver record
    import pandas as _pd

    ref_merges = tx.ref_bpe_merges(dict(zip(wc["word"], wc["n"])))
    dist_merges = tx.docs_bpe_train(sf_dir)
    try:
        _pd.testing.assert_frame_equal(dist_merges, ref_merges, check_dtype=True)
    except AssertionError as e:  # noqa: BLE001
        raise RuntimeError(f"docs_bpe_train diverged from textbook BPE: {str(e)[:300]}") from e
    # forced gate: ENCODING under the just-verified merge table — the full
    # corpus tokenized, pinned to a generated literal-replace DuckDB twin
    # (application given a pinned table; completes train -> apply -> count)
    _assert_sql_twin(
        "docs_bpe_encode",
        tx.docs_bpe_encode(sf_dir, merges=dist_merges),
        tx.docs_bpe_encode_sql(dist_merges),
        sf_dir,
    )
    n_total, cand = tx.mg_heavy_hitters(sf_dir)
    exact = tx.docs_top_tokens(sf_dir)
    bound = n_total // (tx.MG_CAPACITY + 1)
    est = dict(zip(cand["token"], cand["est"]))
    for row in exact.to_pandas().itertuples():
        true = int(row.n)
        if true <= bound:
            continue  # below the sketch's detection threshold
        e = est.get(row.token)
        if e is None or not (e <= true <= e + bound):
            raise RuntimeError(
                f"MG sketch bound violated for {row.token!r}: "
                f"est={e} true={true} bound={bound}"
            )
    return tx.docs_top_tokens(sf_dir)


def _exact_line_span_dedup_query(sf_dir: str):
    """Cross-source overlap matrix AND duplicated k-gram span stats AND
    line-level dedup AND document-level exact dedup in one driver slot.
    Forced gates: ``docs_exact_dedup`` (md5 → min doc_id per hash),
    ``docs_line_dedup`` (first-occurrence-wins line dedup with document
    reassembly), ``docs_dup_span_stats`` (the ExactSubstr signal at
    k-token-window granularity) and ``docs_dup_span_remove`` (the
    ExactSubstr REWRITE — duplicated spans excised, first occurrence
    kept, per-token cover mask, document reassembled) stay fully
    hash-checked via in-query twin gates. RECORDED result:
    ``docs_cross_source_overlap`` — the which-feeds-share-content
    contamination matrix (distinct shared fingerprints per source
    pair), one fp-bucketed exchange, pinned to a self-join DuckDB
    twin."""
    _assert_sql_twin("docs_exact_dedup", dedup.exact_dedup(sf_dir), dedup.EXACT_DEDUP_SQL, sf_dir)
    _assert_sql_twin(
        "docs_line_dedup", curate.docs_line_dedup(sf_dir), curate.DOCS_LINE_DEDUP_SQL, sf_dir
    )
    _assert_sql_twin(
        "docs_dup_span_stats",
        curate.docs_dup_span_stats(sf_dir),
        curate.DOCS_DUP_SPAN_SQL,
        sf_dir,
    )
    _assert_sql_twin(
        "docs_dup_span_remove",
        curate.docs_dup_span_remove(sf_dir),
        curate.DOCS_DUP_SPAN_REMOVE_SQL,
        sf_dir,
    )
    return curate.docs_cross_source_overlap(sf_dir)


def _langid_decon_curation_query(sf_dir: str):
    """The composed curation pipeline AND benchmark decontamination AND
    language-ID AND per-source quality calibration in one driver slot.
    Forced gates: ``docs_langid``, ``docs_decontaminate`` and
    ``docs_source_percentile`` (within-source percentile normalization
    via the bounded-domain histogram prefix sum + cogroup join-back)
    stay fully hash-checked via in-query twin gates. RECORDED result: ``docs_curation_pipeline`` — quality filter →
    opening-fingerprint dedup → LangId tag → split → (pred_lang, split)
    token accounting, fused into one streaming DAG with a single
    corpus-bearing shuffle, pinned to a composed DuckDB twin."""
    _assert_sql_twin("docs_langid", tx.docs_langid(sf_dir), tx.DOCS_LANGID_SQL, sf_dir)
    _assert_sql_twin(
        "docs_langid_eval", tx.docs_langid_eval(sf_dir), tx.DOCS_LANGID_EVAL_SQL, sf_dir
    )
    _assert_sql_twin(
        "docs_decontaminate",
        curate.docs_decontaminate(sf_dir),
        curate.DOCS_DECONTAMINATE_SQL,
        sf_dir,
    )
    _assert_sql_twin(
        "docs_source_percentile",
        curate.docs_source_percentile(sf_dir),
        curate.DOCS_SOURCE_PCTL_SQL,
        sf_dir,
    )
    return curate.docs_curation_pipeline(sf_dir)


def _quality_repetition_tfidf_query(sf_dir: str):
    """Bigram-PMI collocations AND the inverted index AND TF-IDF
    distinctive terms AND the Gopher repetition signals AND the quality
    scorer AND the LM-coverage fluency filter in one driver slot. Forced
    gates: ``docs_quality``, ``docs_repetition``, ``docs_tfidf``,
    ``docs_inverted_index``, ``docs_lm_coverage`` (bigram-LM train
    pass → bucketed cogroup scoring join, integer coverage ppm) and
    ``docs_feature_hash`` (signed hashing-trick featurizer, map-only)
    ``docs_bm25`` (log-free integer BM25 top-k retrieval — per-block
    top-k prune, per-query fold) and ``docs_retrieval_pipeline`` (the
    search-index build COMPOSED: normalize → length-filter → BM25 over
    the surviving corpus, composed twin threading the same intermediate)
    stay fully hash-checked via in-query twin gates. RECORDED result:
    ``docs_bigram_pmi`` — corpus-wide top-k adjacent-pair pointwise mutual
    information (min-count filtered before any join; bucketed count
    combines; two vocabulary-sized cogroup joins; integer scoring exact
    against a HUGEINT DuckDB twin)."""
    _assert_sql_twin("docs_quality", tx.docs_quality(sf_dir), tx.DOCS_QUALITY_SQL, sf_dir)
    _assert_sql_twin(
        "docs_repetition", tx.docs_repetition(sf_dir), tx.DOCS_REPETITION_SQL, sf_dir
    )
    _assert_sql_twin("docs_tfidf", tx.docs_tfidf(sf_dir), tx.DOCS_TFIDF_SQL, sf_dir)
    _assert_sql_twin(
        "docs_inverted_index",
        tx.docs_inverted_index(sf_dir),
        tx.DOCS_INVERTED_INDEX_SQL,
        sf_dir,
    )
    _assert_sql_twin(
        "docs_lm_coverage", tx.docs_lm_coverage(sf_dir), tx.DOCS_LM_COVERAGE_SQL, sf_dir
    )
    _assert_sql_twin(
        "docs_feature_hash", tx.docs_feature_hash(sf_dir), tx.DOCS_FEATURE_HASH_SQL, sf_dir
    )
    gram = _assert_sql_twin(
        "docs_probe_gram", tx.docs_probe_gram(sf_dir), tx.DOCS_PROBE_GRAM_SQL, sf_dir
    )
    # supervised linear probe end-to-end: fit on the twin-checked Gram
    # stats just verified (no second corpus scan), score distributed;
    # raises unless the fitted scorer beats the constant predictor on
    # its own training data
    if tx.docs_linear_probe(sf_dir, gram=gram).count() == 0:
        raise RuntimeError("docs_linear_probe produced no rows")
    _assert_sql_twin("docs_bm25", tx.docs_bm25(sf_dir), tx.DOCS_BM25_SQL, sf_dir)
    _assert_sql_twin(
        "docs_retrieval_pipeline",
        tx.docs_retrieval_pipeline(sf_dir),
        tx.DOCS_RETRIEVAL_SQL,
        sf_dir,
    )
    return tx.docs_bigram_pmi(sf_dir)


def _bpe_mixture_pack_query(sf_dir: str):
    """Mixture token budgeting AND curriculum quality ranking AND the
    deterministic GLOBAL shuffle AND sequence packing AND mixture
    sampling AND the BPE-ish pretokenizer counts in one driver slot.
    Forced gates: ``docs_quality_rank``, ``docs_pack_sequences``,
    ``docs_bpe_tokens``, ``docs_sample_mixture``, ``docs_source_drift``
    (exact per-source total-variation drift vs the corpus unigram
    distribution — one common integer denominator, one final floor) and
    ``docs_global_shuffle`` stay fully hash-checked via in-query twin
    gates. RECORDED result: ``docs_mixture_budget`` — UniMax-style
    epochs-capped integer water filling of a half-corpus token budget
    across sources (one corpus-scale rollup, bounded driver allocation),
    pinned to a chained materialized-CTE DuckDB twin."""
    _assert_sql_twin("docs_bpe_tokens", tx.docs_bpe_tokens(sf_dir), tx.DOCS_BPE_TOKENS_SQL, sf_dir)
    _assert_sql_twin(
        "docs_sample_mixture", curate.docs_sample_mixture(sf_dir), curate.DOCS_MIXTURE_SQL, sf_dir
    )
    _assert_sql_twin(
        "docs_source_drift",
        curate.docs_source_drift(sf_dir),
        curate.DOCS_SOURCE_DRIFT_SQL,
        sf_dir,
    )
    _assert_sql_twin(
        "docs_pack_sequences", curate.docs_pack_sequences(sf_dir), curate.DOCS_PACK_SQL, sf_dir
    )
    _assert_sql_twin(
        "docs_global_shuffle",
        curate.docs_global_shuffle(sf_dir),
        curate.DOCS_SHUFFLE_SQL,
        sf_dir,
    )
    _assert_sql_twin(
        "docs_quality_rank",
        curate.docs_quality_rank(sf_dir),
        curate.DOCS_QUALITY_RANK_SQL,
        sf_dir,
    )
    return curate.docs_mixture_budget(sf_dir)


def _knn_centroid_kmeans_query(sf_dir: str):
    """Embedding outlier detection AND distributed k-means AND the
    quality-filtered per-source centroid AND brute-force cosine KNN in
    one driver slot. Forced gates: ``emb_knn_bruteforce``,
    ``emb_filtered_knn`` (exact top-k under a label predicate —
    pre-filtered inside the batch, not post-filter-truncated),
    ``emb_quality_centroid``, ``emb_kmeans_assign`` and
    ``emb_cluster_purity`` (per-cluster majority-label purity over the
    materialized assignment — the clustering-quality eval) and
    ``emb_label_shift`` (per-label centroid drift vs the global centroid,
    exact HUGEINT rational arithmetic) stay fully hash-checked via
    in-query twin gates, and the FULL iterative Lloyd
    loop (``emb_kmeans``: per-round broadcast centroids, in-batch
    sufficient-statistic pre-aggregation, truncating integer means,
    exact-integer inertia monotonicity raised on violation) runs to
    convergence-or-cap and must label every vector. RECORDED result:
    ``emb_outliers`` — per-cluster p95 distance flags via the grouped
    distributed counting selection (``exact_grouped_quantile_int``),
    pinned to ``EMB_OUTLIERS_SQL``."""
    _assert_sql_twin(
        "emb_knn_bruteforce",
        similarity.knn_bruteforce(sf_dir),
        similarity.KNN_SQL,
        sf_dir,
        tables=("embeddings",),
    )
    _assert_sql_twin(
        "emb_filtered_knn",
        similarity.emb_filtered_knn(sf_dir),
        similarity.FILTERED_KNN_SQL,
        sf_dir,
        tables=("embeddings",),
    )
    _assert_sql_twin(
        "emb_quality_centroid",
        similarity.emb_quality_centroid(sf_dir),
        similarity.EMB_CENTROID_SQL,
        sf_dir,
        tables=("documents", "embeddings"),
    )
    km = similarity.emb_kmeans(sf_dir)
    assign = similarity.kmeans_assign(sf_dir).materialize()
    n_assigned = assign.count()
    if int(km["n_vecs"].sum()) != n_assigned:
        raise RuntimeError(
            f"emb_kmeans labelled {int(km['n_vecs'].sum())} vectors, "
            f"corpus has {n_assigned}"
        )
    _assert_sql_twin(
        "emb_kmeans_assign",
        assign,
        similarity.EMB_KMEANS_ASSIGN_SQL,
        sf_dir,
        tables=("embeddings",),
    )
    _assert_sql_twin(
        "emb_cluster_purity",
        similarity.emb_cluster_purity(sf_dir, assign=assign),
        similarity.EMB_CLUSTER_PURITY_SQL,
        sf_dir,
        tables=("embeddings",),
    )
    _assert_sql_twin(
        "emb_label_shift",
        similarity.emb_label_shift(sf_dir),
        similarity.EMB_LABEL_SHIFT_SQL,
        sf_dir,
        tables=("embeddings",),
    )
    return similarity.emb_outliers(sf_dir)


def _running_bloom_query(sf_dir: str):
    """Bloom-filter semi-join AND the per-user running total in one
    driver slot. Forced gate: ``events_running_total`` stays fully
    hash-checked via the in-query twin gate. RECORDED result:
    ``events_bloom_semijoin`` — which event users (probably) have an
    urgent order: distinct build keys → tree-OR'd per-block bitmaps →
    broadcast map-side k-probe bit test (the probe side never shuffles),
    with m derived from the exact build count so the filter — false
    positives included — is bit-reproducible in the DuckDB twin."""
    _assert_sql_twin(
        "events_running_total",
        events.events_running_total(sf_dir),
        events.EVENTS_RUNNING_SQL,
        sf_dir,
        tables=("events",),
    )
    return events.events_bloom_semijoin(sf_dir)


def _month_quantiles_query(sf_dir: str):
    """Exact distributed quantile selection AND the mergeable
    ε-approximate quantile sketch AND the monthly rollup AND the CDC
    merge AND the Q13 left-join distribution AND the snapshot diff (the
    post-merge audit: added/removed/changed/same classification in one
    key-bucketed exchange, composed CDC twin) AND the balanced range
    partitioner (equi-depth boundaries from the counting-selection
    kernel, no global sort) in one driver slot. Forced gates: ``orders_by_month`` and
    ``orders_cdc_merge`` (lakehouse MERGE/upsert — last-writer-wins
    resolution of a map-side-rendered change log with superseded
    updates, tombstones and inserts) stay fully hash-checked via
    in-query twin gates, and ``orders_quantile_sketch`` (one-pass
    ε-spaced rank summaries) must land every estimate's TRUE rank —
    computed by a distributed count — within its 2ε·n theorem budget of
    the exact rank. RECORDED result: ``orders_price_quantiles`` — exact
    p50/p90/p99 via iterative histogram narrowing (≤3 counting passes,
    no global sort), pinned to a ROW_NUMBER DuckDB twin."""
    _assert_sql_twin(
        "orders_by_month",
        relational.orders_by_month(sf_dir),
        relational.ORDERS_BY_MONTH_SQL,
        sf_dir,
        tables=("orders",),
    )
    _assert_sql_twin(
        "orders_cdc_merge",
        relational.orders_cdc_merge(sf_dir),
        relational.ORDERS_CDC_MERGE_SQL,
        sf_dir,
        tables=("orders",),
    )
    _assert_sql_twin(
        "q13_custdist",
        relational.q13_custdist(sf_dir),
        relational.Q13_SQL,
        sf_dir,
        tables=("customer", "orders"),
    )
    _assert_sql_twin(
        "orders_snapshot_diff",
        relational.orders_snapshot_diff(sf_dir),
        relational.ORDERS_SNAPSHOT_DIFF_SQL,
        sf_dir,
        tables=("orders",),
    )
    _assert_sql_twin(
        "orders_range_partition",
        relational.orders_range_partition(sf_dir),
        relational.ORDERS_RANGE_PARTITION_SQL,
        sf_dir,
        tables=("orders",),
    )
    exact = relational.orders_price_quantiles(sf_dir).to_pandas()
    sketch = relational.orders_quantile_sketch(sf_dir)
    ranks = dict(zip(exact["q_ppm"], exact["rank"]))
    for r in sketch.itertuples():
        true_rank = relational.count_below(sf_dir, int(r.value_cents))
        k = int(ranks[int(r.q_ppm)])
        # the k-th smallest has (k-1 … k-1+ties) values strictly below it;
        # the sketch value's strict-below count must sit within the budget
        if abs(true_rank - (k - 1)) > int(r.max_rank_err):
            raise RuntimeError(
                f"quantile sketch q={int(r.q_ppm)}: strict-below rank "
                f"{true_rank} vs exact {k - 1} exceeds budget {int(r.max_rank_err)}"
            )
    import ray.data as rd

    return rd.from_pandas(exact)


def _emb_dedup_query(sf_dir: str):
    """Greedy k-center coreset AND SemDeDup-style semantic dedup AND the
    exact quadratic dup-pair scan in one driver slot. Forced gates:
    ``emb_dup_pairs`` (block-pair cosine ≥ threshold) and
    ``emb_semantic_dedup`` (LSH-bucketed first-occurrence-wins dedup)
    and ``emb_covariance`` (the exact integer second-moment matrix — the
    PCA/whitening sufficient statistics as one pass of mergeable d×d
    partials) stay fully hash-checked via in-query twin gates, and
    ``emb_pca_power`` (top principal component + explained-variance share
    by 16 rounds of integer power iteration over the materialized
    covariance — the corpus is never re-read) is pinned to a chained-CTE
    HUGEINT twin, and ``emb_pca_project`` (the PCA APPLY step: each
    vector's exact centered integer projection onto that component,
    map-only, int64-overflow-guarded identically on both sides) reuses
    the same covariance run. RECORDED result:
    ``emb_kcenter`` — the Gonzalez greedy diversity selection with exact
    integer quantized distances (k one-pass rounds + block-candidate
    driver reduce), pinned to a chained materialized-CTE DuckDB twin."""
    _assert_sql_twin(
        "emb_dup_pairs",
        similarity.emb_dup_pairs(sf_dir),
        similarity.EMB_DUP_PAIRS_SQL,
        sf_dir,
        tables=("embeddings",),
    )
    _assert_sql_twin(
        "emb_semantic_dedup",
        similarity.emb_semantic_dedup(sf_dir),
        similarity.EMB_SEMANTIC_DEDUP_SQL,
        sf_dir,
        tables=("embeddings",),
    )
    cov = similarity.emb_covariance(sf_dir).materialize()
    _assert_sql_twin(
        "emb_covariance",
        cov,
        similarity.EMB_COVARIANCE_SQL,
        sf_dir,
        tables=("embeddings",),
    )
    _assert_sql_twin(
        "emb_pca_power",
        similarity.emb_pca_power(sf_dir, cov=cov),
        similarity.EMB_PCA_POWER_SQL,
        sf_dir,
        tables=("embeddings",),
    )
    _assert_sql_twin(
        "emb_pca_project",
        similarity.emb_pca_project(sf_dir, cov=cov),
        similarity.EMB_PCA_PROJECT_SQL,
        sf_dir,
        tables=("embeddings",),
    )
    return similarity.emb_kcenter(sf_dir)


def _custbal_antijoin_query(sf_dir: str):
    """Distributed ANTI join (TPC-H Q22 shape) AND the balance top-k in
    one driver slot. Forced gate: ``customer_topk_balance`` stays fully
    hash-checked via the in-query twin gate. RECORDED result:
    ``q22_antijoin_nation`` — above-average-positive-balance customers
    with no urgent order, per nation; the NOT-EXISTS runs as the
    hash-bucketed cogroup anti join and the average comparison is
    integer cross-multiplied. Second forced gate: ``orders_zonemap_scan``
    — zone-map data skipping (per-partition min/max stats → pruned
    parquet read), twin-checked so the pruned scan provably loses
    nothing, with a clustered probe that must prune and an uncorrelated
    probe that legitimately cannot. Third forced gate:
    ``orders_duplicate_payments`` — the composite-equality + time-window
    self-join (fraud-audit shape) over a planted clone overlay whose
    offsets straddle the window boundary."""
    _assert_sql_twin(
        "customer_topk_balance",
        relational.customer_topk_balance(sf_dir),
        relational.CUSTOMER_TOPK_SQL,
        sf_dir,
        tables=("customer",),
    )
    _assert_sql_twin(
        "orders_zonemap_scan",
        relational.orders_zonemap_scan(sf_dir),
        relational.ORDERS_ZONEMAP_SQL,
        sf_dir,
        tables=("orders",),
    )
    _assert_sql_twin(
        "orders_duplicate_payments",
        relational.orders_duplicate_payments(sf_dir),
        relational.ORDERS_DUP_PAY_SQL,
        sf_dir,
        tables=("orders",),
    )
    return relational.q22_antijoin_nation(sf_dir)


def _invoice_query(sf_dir: str):
    """Invoice fold slot. Forced gates (each raises on divergence so the
    driver records a hard error): plain grouped fold vs the salted
    window variant (M27 precedence + cross-window LOCF) checked
    byte-equal; ``transcript_prompt_response`` and
    ``transcript_extract_rate`` (the PRODUCTION RE2 invoice bank's
    per-(family, day) success telemetry) hash-checked against their
    DuckDB twins in-query. RECORDED result: ``transcript_hygiene`` — the
    order-sensitive per-conversation role digest (md5 over role initials
    in turn order), which the driver hash-checks directly against its
    DuckDB ``string_agg(... ORDER BY turn_idx)`` twin over the SAME
    Parquet files (``oracle_sql()['extract_invoice']``), pinning the
    shuffle-then-restore ordering invariant the north rule requires in
    the driver record itself."""
    from ..ops import transcript as _tr
    from ..stages.salted import extract_invoice_salted

    path = transcripts_path_for_sf(sf_dir)
    _assert_sql_twin(
        "transcript_prompt_response",
        _tr.transcript_prompt_response(path),
        _tr.transcript_prompt_response_sql(path),
        sf_dir,
        tables=(),
    )
    _assert_sql_twin(
        "transcript_extract_rate",
        _tr.transcript_extract_rate(path),
        _tr.transcript_extract_rate_sql(path),
        sf_dir,
        tables=(),
    )
    plain = extract.extract_invoice(path)
    salted = extract_invoice_salted(path)
    _assert_variants_equal("extract_invoice", plain, "extract_invoice_salted", salted)
    return _tr.transcript_hygiene(path)


def _catalog_query(sf_dir: str):
    """Catalog state-machine fold slot. Forced gates (raise): plain vs
    salted variants checked byte-equal, and ``transcript_conv_neardup``
    — conversation-level NEAR-dup pairs (ordered per-conv concat →
    SimHash → banded LSH tail, the re-rolled-conversation detector) —
    hash-checked in-query against its bit-exact DuckDB replay.
    RECORDED result: ``transcript_conv_dedup`` — conversation-level
    exact dedup via the order-sensitive full-text 128-bit digest
    (restore → digest → in-range MIN representative → conv_id order),
    which the driver hash-checks directly against its DuckDB
    ordered-``string_agg`` twin over the same Parquet files
    (``oracle_sql()['extract_catalog']``)."""
    from ..ops import transcript as _tr
    from ..stages.salted import extract_catalog_salted

    path = transcripts_path_for_sf(sf_dir)
    plain = extract.extract_catalog(path)
    salted = extract_catalog_salted(path)
    _assert_variants_equal("extract_catalog", plain, "extract_catalog_salted", salted)
    _assert_sql_twin(
        "transcript_conv_neardup",
        _tr.transcript_conv_neardup(path),
        _tr.transcript_conv_neardup_sql(path),
        sf_dir,
        tables=(),
    )
    return _tr.transcript_conv_dedup(path)


def _layout_query(sf_dir: str):
    """Layout binning slot. Forced gate (raises): the layout fold (header
    coordinates captured on each conversation's first header-carrying
    turn, ST4) must produce rows. RECORDED result:
    ``transcript_context_tails`` — the last-K-turn rendered context
    assembly (ordered tail slice per conversation), which the driver
    hash-checks directly against its DuckDB windowed ``string_agg`` twin
    over the same Parquet (``oracle_sql()['extract_layout']``)."""
    from ..ops import transcript as _tr

    path = transcripts_path_for_sf(sf_dir)
    if extract.extract_layout(path).count() == 0:
        raise RuntimeError("extract_layout produced no rows")
    return _tr.transcript_context_tails(path)


def _census_persons_query(sf_dir: str):
    """Flagship stage-A→persons pipeline, with the census SUMMARY pipeline
    chained into the same driver slot (its fold+projection semantics are
    separately SQL-pinned by extract_kernel_census_fold). Both real-corpus
    pipelines must run clean and produce rows; the returned — and therefore
    SQL-hash-checked — result is the rendered persons-fold surrogate, which
    drives the same PRODUCTION composition (census fold → PersonsExtractor)
    over deterministic conversations and pins the kinship cascade
    (M6-M19 + J1-J3) against a closed-form DuckDB twin."""
    path = transcripts_path_for_sf(sf_dir)
    households = extract.extract_census_households(path)
    summary = extract.extract_census_summary(path, households=households)
    if summary.count() == 0:
        raise RuntimeError("extract_census_summary produced no rows")
    persons = extract.extract_census_persons(path, households=households)
    if persons.count() == 0:
        raise RuntimeError("extract_census_persons produced no rows")
    return surrogate.extract_kernel_persons_fold(sf_dir)


def _conv_clusters_query(sf_dir: str):
    """Conversation-level near-dup CLUSTERS — the linear-output
    deliverable of the conv near-dup family (the pair list is quadratic
    in duplicate-group size: measured 972k → 93.6M pairs at 10× convs on
    the sf1 corpus, while clusters stay one row per conversation).
    Hashed conv keys; edges from the bit-exact banded SimHash pair op;
    pointer-jumping components with every conversation (incl. empty
    ones) as a singleton-capable node. SQL twin: recursive-CTE closure
    over the pair twin (path-embedded via ``oracle_sql()``)."""
    from ..ops import transcript as _tr

    path = transcripts_path_for_sf(sf_dir)
    return _tr.transcript_conv_clusters(path)


def _table_grid_query(sf_dir: str):
    """KNR table fold AND Mancini grid cleanup over the real transcript
    corpus in one driver slot (both folds are SQL-pinned at pipeline level
    by extract_kernel_{table,grid}_fold; the grid family must produce rows
    before the table result is returned). Forced gate:
    ``transcript_tool_latency`` — exact p50/p95 turn-gap telemetry per
    (tool family, role) via the grouped histogram-narrowing quantile
    kernel, hash-checked against a LAG + windowed-rank DuckDB twin over
    the same Parquet. Both family pipelines must run clean and produce
    rows (forced gates). RECORDED result: ``transcript_turn_pack`` — the
    conversation-ordered context-packing windows (exclusive token cumsum,
    an order-sensitive functional that re-pins the stable-turn-ordering
    restore), which the driver hash-checks directly against its
    window-SQL twin (``oracle_sql()['extract_table_grid']``)."""
    from ..ops import transcript as _tr

    path = transcripts_path_for_sf(sf_dir)
    _assert_sql_twin(
        "transcript_tool_latency",
        _tr.transcript_tool_latency(path),
        _tr.transcript_tool_latency_sql(path),
        sf_dir,
        tables=(),
    )
    grid = extract.EXTRACTORS["grid"](path)
    if grid.count() == 0:
        raise RuntimeError("extract_grid produced no rows")
    table = extract.EXTRACTORS["table"](path)
    if table.count() == 0:
        raise RuntimeError("extract_table produced no rows")
    return _tr.transcript_turn_pack(path)


def _partitioned_metrics_query(sf_dir: str):
    """Headline production path at this sf: single-pass all-family
    checkpointed extraction.

    Forced in-query invariants (raise into the driver record; they pin
    the EXCHANGE itself — the fold outputs are pinned elsewhere):
    turn-count conservation (sum of per-partition n_turns == the corpus
    row count from parquet METADATA, an independent source), exact
    partition cover (part_ids are 0..n_parts-1 once each), and resume
    stability (a second run must resume every partition and reproduce
    every content_hash byte-for-byte). RECORDED result:
    ``transcript_role_transitions`` — the ordered Markov transition
    matrix, which the driver hash-checks directly against a LAG twin
    over the same Parquet
    (``oracle_sql()['extract_all_partitioned_metrics']``)."""
    import glob as _glob

    import pyarrow.parquet as _pq

    from ..ops import transcript as _tr
    from ..state.lineage import partitioned_extract_all_tasks

    path = transcripts_path_for_sf(sf_dir)
    out_root = path.rstrip("/") + "_extracted"
    first = partitioned_extract_all_tasks(path, out_root, n_parts=32)

    meta_turns = sum(
        _pq.read_metadata(f).num_rows for f in sorted(_glob.glob(path + "/*.parquet"))
    )
    if int(first["n_turns"].sum()) != meta_turns:
        raise RuntimeError(
            f"turn conservation violated: {first['n_turns'].sum()} != {meta_turns}"
        )
    # cover: part ids distinct and within range; combined with the
    # conservation check above (every corpus turn accounted for by the
    # recorded partitions) any ABSENT part id provably carried 0 turns —
    # empty partitions emit no parquet/sidecar and no metrics row, which
    # legitimately happens at tiny scale (120 convs over 32 md5 buckets)
    pids = sorted(first["part_id"])
    if len(set(pids)) != len(pids) or not set(pids) <= set(range(32)):
        raise RuntimeError(f"partition cover violated: {pids}")

    second = partitioned_extract_all_tasks(path, out_root, n_parts=32)
    if not bool(second["resumed"].all()):
        raise RuntimeError("resume invariant violated: second run recomputed partitions")
    a = first.sort_values("part_id")["content_hash"].tolist()
    b = second.sort_values("part_id")["content_hash"].tolist()
    if a != b:
        raise RuntimeError("resume instability: content hashes differ between runs")
    return _tr.transcript_role_transitions(path)


def _box_query(family: str, surrogate_fn=None):
    """Detector-path query over the raw-box fixture corpus (S8/M40/M41).
    With ``surrogate_fn``, the real-corpus detector still runs (non-empty
    gate) but the returned — and therefore SQL-hash-checked — result is
    the rendered-box surrogate of the same detector."""

    def run(sf_dir: str):
        path = boxes_path_for_sf(sf_dir)
        real = extract.EXTRACTORS[family](path)
        if surrogate_fn is None:
            return real
        if real.count() == 0:
            raise RuntimeError(f"extract_{family} produced no rows on the box corpus")
        return surrogate_fn(sf_dir)

    run.__name__ = f"extract_{family}"
    return run


def _grid_box_query(sf_dir: str):
    """Grid-synthesis detector path AND the region-crop path over the same
    raw-box corpus in one driver slot (M40 + M41; both pinned by the
    recording-fake differentials in pytest). Both real-corpus paths must
    produce rows; the returned — SQL-hash-checked — result is the
    rendered-box surrogate of the grid detector."""
    path = boxes_path_for_sf(sf_dir)
    crops = extract.EXTRACTORS["grid_crops"](path)
    if crops.count() == 0:
        raise RuntimeError("extract_grid_crops produced no rows")
    detected = extract.EXTRACTORS["grid_detected"](path)
    if detected.count() == 0:
        raise RuntimeError("extract_grid_detected produced no rows")
    return surrogate.extract_kernel_grid_detect(sf_dir)


def _media_ocr_query(sf_dir: str):
    """Multimodal chain AND image+audio near-dup AND the OCR scanned-page
    path in one driver slot. Forced gates: ``media_image_neardup`` (dHash
    over REAL decoded P6 pixels) and ``media_audio_neardup``
    (energy-contour fingerprint over REAL decoded PCM), both through the
    shared banded-LSH tail and asserted EQUAL to in-gate single-process
    brute-force scans (media decode has no SQL twin; equality to brute
    force is the hash check here).
    The real-codec media pipeline (decode → features/thumbnails/frames
    over P6/WAV payloads) must produce rows; the returned — and therefore
    SQL-hash-checked — result is the OCR invoice kernel: rasterized page
    bitmaps with doc-dependent rotation/polarity defects, read back by the
    template-matching GlyphOcr actor pool and pushed through the
    PRODUCTION invoice bank (S9/S10/S16/S17/ST7)."""
    media = mm.media_pipeline(sf_dir)
    if media.count() == 0:
        raise RuntimeError("media_pipeline produced no rows")
    # forced gate: image dHash near-dup over REAL decoded pixels must
    # reproduce the single-process brute-force scan exactly (the 4-band
    # pigeonhole is lossless at Hamming <= 3) and recover every planted
    # exact-duplicate pair at distance 0
    for name, op, dataset, hash_fn in (
        ("media_image_neardup", mm.media_image_neardup,
         mm.media_neardup_dataset, mm.image_payload_hash),
        ("media_audio_neardup", mm.media_audio_neardup,
         mm.media_audio_neardup_dataset, mm.audio_payload_hash),
    ):
        pairs = op(sf_dir).to_pandas()
        got = set(zip(pairs["a"].astype(int), pairs["b"].astype(int),
                      pairs["hamming"].astype(int)))
        want = mm.neardup_bruteforce_pairs(dataset(sf_dir).to_pandas(), hash_fn)
        if got != want:
            raise RuntimeError(f"{name}: {len(got)} pairs != brute force {len(want)}")
        if not any(h == 0 for _, _, h in got):
            raise RuntimeError(f"{name}: planted exact dups not recovered")
    # forced gate: S9 from BYTES — a directory of real page-image FILES
    # (PNG + P6) ingested via read_binary_files must reproduce the
    # in-pipeline rasterizer's OCR->invoice output byte-for-byte
    import hashlib
    import os
    import tempfile

    from ..sources.pages import PAGES_RECIPE_VERSION, write_invoice_page_files

    # materialize ONCE: the gate comparison below would otherwise consume
    # the lazy dataset (full-corpus OCR actor-pool pass) and the driver's
    # hash of the returned handle would re-execute the whole chain
    result = surrogate.extract_kernel_ocr_invoice(sf_dir).materialize()
    page_dir = os.path.join(
        tempfile.gettempdir(), "pdfx_pages",
        hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
        + f"-v{PAGES_RECIPE_VERSION}",
    )
    gate_ids = list(range(48))
    write_invoice_page_files(page_dir, gate_ids)
    from_files = surrogate.extract_kernel_ocr_invoice_files(page_dir).to_pandas()
    in_pipe = result.to_pandas()
    in_pipe = in_pipe[in_pipe["doc_id"] < len(gate_ids)].reset_index(drop=True)
    if not from_files.reset_index(drop=True).equals(in_pipe):
        raise RuntimeError(
            "binary-file OCR ingest diverged from the in-pipeline rasterizer"
        )
    return result


def _ann_methods_query(sf_dir: str):
    """Product-quantization codes AND LSH-bucketed AND IVF ANN chained in
    one driver slot. Forced gates: the IVF path must run end-to-end and
    produce the ANN schema (k-means quantizer floats have no exact SQL
    twin; recall is pytest-pinned), and the LSH ANN search — integer-
    quantized signatures making the bucket assignment bit-reproducible —
    stays fully hash-checked via the in-query ``ANN_LSH_SQL`` twin gate.
    RECORDED result: ``emb_pq_codes`` — each vector's packed 4-bit-per-
    subspace PQ code + exact int64 quantization error against the
    deterministic seed codebooks, pinned to ``EMB_PQ_SQL``. Additional
    forced gate: ``emb_zorder`` — the Morton space-filling-curve
    clustering key (integer interleave over ppm-quantized cells, the
    locality-ordered write layout) hash-checked via its in-query twin.
    Forced gate: ``emb_pq_recall`` — recall@k of ADC search (per-query
    LUT over the broadcast codebook, db side reduced to codes) against
    the exact squared-euclidean top-k, all-integer and twin-checked.
    Forced gate: ``emb_ivf_recall`` — the third ANN-eval leg: IVF with
    the integer seed quantizer (list assignment, probe ranking and
    within-list distances all int64), recall vs exact twin-checked."""
    _assert_sql_twin(
        "emb_zorder",
        similarity.emb_zorder(sf_dir),
        similarity.EMB_ZORDER_SQL,
        sf_dir,
        tables=("embeddings",),
    )
    _assert_sql_twin(
        "emb_ann_recall",
        similarity.emb_ann_recall(sf_dir),
        similarity.EMB_ANN_RECALL_SQL,
        sf_dir,
        tables=("embeddings",),
    )
    ivf = similarity.ivf_knn(sf_dir)
    if set(ivf.schema().names) != {"query_id", "vec_id", "sim_ppm", "rank"}:
        raise RuntimeError(f"ivf_knn schema: {ivf.schema().names}")
    if ivf.count() == 0:
        raise RuntimeError("ivf_knn produced no rows")
    _assert_sql_twin(
        "emb_ann_lsh",
        similarity.ann_lsh(sf_dir),
        similarity.ANN_LSH_SQL,
        sf_dir,
        tables=("embeddings",),
    )
    _assert_sql_twin(
        "emb_pq_recall",
        similarity.emb_pq_recall(sf_dir),
        similarity.EMB_PQ_RECALL_SQL,
        sf_dir,
        tables=("embeddings",),
    )
    _assert_sql_twin(
        "emb_ivf_recall",
        similarity.emb_ivf_recall(sf_dir),
        similarity.EMB_IVF_RECALL_SQL,
        sf_dir,
        tables=("embeddings",),
    )
    return similarity.emb_pq_codes(sf_dir)


def _distinct_kmv_query(sf_dir: str):
    """Exact distinct users AND the KMV distinct-count sketch AND the
    HyperLogLog sketch AND the one-pass GROUPING SETS rollup
    (``events_rollup`` — all four (type × day) levels derived from one
    corpus pass, twin-gated) in one driver slot. Forced gates: the mergeable
    k-minimum-values sketch must run end-to-end and its estimate land
    inside the KMV error envelope of the exact total (or equal it exactly
    below k distinct); the HLL register sketch (fixed 256-register
    partials, idempotent grouped-MAX merge, integer-exact estimate with
    shared-ppm-literal linear-counting correction) stays fully
    hash-checked via an in-query twin gate — pytest additionally pins
    both sketches' mergeability by property test. RECORDED result: the
    exact per-type distinct counts, hash-checked as before."""
    _assert_sql_twin(
        "events_hll_distinct",
        events.events_hll_distinct(sf_dir),
        events.EVENTS_HLL_SQL,
        sf_dir,
        tables=("events",),
    )
    _assert_sql_twin(
        "events_hll_by_type",
        events.events_hll_by_type(sf_dir),
        events.EVENTS_HLL_BY_TYPE_SQL,
        sf_dir,
        tables=("events",),
    )
    _assert_sql_twin(
        "events_rollup",
        events.events_rollup(sf_dir),
        events.EVENTS_ROLLUP_SQL,
        sf_dir,
        tables=("events",),
    )
    exact_ds = relational.events_distinct_users(sf_dir)
    sketch = events.events_kmv_distinct(sf_dir).to_pandas()
    est, n_kept = int(sketch["estimate"][0]), int(sketch["n_kept"][0])
    # per-type counts over-count the global distinct (a user spans types);
    # recompute the global exact total from the sketch's own domain
    import numpy as np

    uniq = relational._read(sf_dir, "events", columns=["user_id"]).map_batches(
        lambda b: b.drop_duplicates(["user_id"]), batch_format="pandas"
    )
    from ..ops.common import bucketed_group_agg

    exact_total = bucketed_group_agg(
        uniq.map_batches(lambda b: b.assign(_c=np.int64(1)), batch_format="pandas"),
        ["user_id"], {"_c": "min"},
    ).count()
    if n_kept < events.KMV_K:
        ok = est == exact_total
    else:
        ok = abs(est - exact_total) <= 6 * exact_total / np.sqrt(events.KMV_K - 2)
    if not ok:
        raise RuntimeError(f"KMV estimate {est} vs exact {exact_total} out of envelope")
    return exact_ds


def _sliding_asof_query(sf_dir: str):
    """Sliding windows AND the distributed as-of + range joins in one
    driver slot. Forced gates: ``events_asof_orders`` (most recent
    o_orderdate ≤ ts) and ``events_orders_range_join`` (all pairs within
    the window) must run end-to-end with their interval invariants
    holding on every row (pytest pins both to deterministic DuckDB twins,
    the asof additionally to native ASOF JOIN dates, and both kernels to
    brute-force property tests). RECORDED result: the sliding-window
    aggregate, hash-checked as before."""
    import pandas as pd

    cols = {"event_id", "user_id", "ts", "o_orderkey", "o_orderdate"}
    window = pd.Timedelta(days=9000)

    def viol_asof(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [len(b)], "bad": [int((b["o_orderdate"] > b["ts"]).sum())]})

    def viol_range(b: pd.DataFrame) -> pd.DataFrame:
        bad = (b["o_orderdate"] > b["ts"]) | (b["o_orderdate"] < b["ts"] - window)
        return pd.DataFrame({"n": [len(b)], "bad": [int(bad.sum())]})

    for fn, viol in ((events.events_asof_orders, viol_asof),
                     (events.events_orders_range_join, viol_range)):
        # sort=False: the gate only sums per-batch booleans, so the ops'
        # terminal global sort (of the expanded pair set, for the range
        # join) would be pure wasted wall-clock inside this slot
        ds = fn(sf_dir, sort=False)
        if set(ds.schema().names) != cols:
            raise RuntimeError(f"{fn.__name__} schema: {ds.schema().names}")
        counts = ds.map_batches(viol, batch_format="pandas").to_pandas()
        if counts["n"].sum() == 0:
            raise RuntimeError(f"{fn.__name__} produced no rows")
        if counts["bad"].sum():
            raise RuntimeError(f"{fn.__name__} invariant violated on {counts['bad'].sum()} rows")
    return events.events_sliding(sf_dir)


def _hash_neardup_query(sf_dir: str):
    """The hash-based near-dup paths in one driver slot. Forced gates:
    ``docs_minhash_neardup`` and ``docs_simhash_neardup`` — the PRODUCTION
    MinHash-LSH and SimHash pipelines run over the deterministic near-dup
    overlay (planted exact dups, above- and below-threshold near-dups) and
    pinned BIT-EXACTLY to DuckDB twins that replay the whole signature
    machinery (md5-LE64 hashes, Mersenne affine mins, polynomial band
    keys, band-bucket candidates, exact verification, member expansion)
    in HUGEINT; dup_clusters over simhash edges is pinned by the
    union-find reference test. Forced gate: ``docs_neardup_recall`` —
    LSH recall vs the EXACT ground-truth pair set per Jaccard decile
    (eval-as-pipeline, reusing the materialized minhash gate run).
    Forced gates: ``docs_dedup_pipeline`` — the dedup family composed as
    one DAG (labels → keep decision → per-source kept/dropped token
    accounting), reusing the recorded labels and pinned to a composed
    twin that nests the recursive transitive-closure oracle — and
    ``docs_dedup_keep_longest``, the per-cluster argmax survivor policy
    (longest doc wins, accounting completed inside the cluster-bucketed
    exchange), same labels run, its own composed twin.
    RECORDED result: cluster labels over the
    EXACT within-source Jaccard edge set — the same distributed components
    kernel, but with an edge derivation DuckDB can replicate, so the
    components kernel itself is hash-checked against a recursive-CTE
    transitive-closure oracle (``DUP_CLUSTERS_SQL``). Additional forced
    gate: ``docs_winnow_fingerprints`` — the MOSS winnowing selection
    (rightmost-min over gram-hash windows, the sparse fingerprint index
    with the w+k−1 detection guarantee) hash-checked via its in-query
    twin. Additional forced gate: ``docs_setsim_join`` — the EXACT
    all-pairs Jaccard join via prefix filtering (PPJoin), the
    zero-false-negative counterpart to the LSH paths, hash-checked via
    its own DuckDB twin."""
    _assert_sql_twin(
        "docs_winnow_fingerprints",
        dedup.docs_winnow_fingerprints(sf_dir),
        dedup.DOCS_WINNOW_SQL,
        sf_dir,
    )
    _assert_sql_twin(
        "docs_setsim_join",
        dedup.docs_setsim_join(sf_dir),
        dedup.DOCS_SETSIM_SQL,
        sf_dir,
    )
    mh_pairs = dedup.docs_minhash_neardup(sf_dir).materialize()
    _assert_sql_twin(
        "docs_minhash_neardup",
        mh_pairs,
        dedup.DOCS_MINHASH_SQL,
        sf_dir,
    )
    _assert_sql_twin(
        "docs_simhash_neardup",
        dedup.docs_simhash_neardup(sf_dir),
        dedup.DOCS_SIMHASH_SQL,
        sf_dir,
    )
    _assert_sql_twin(
        "docs_neardup_recall",
        dedup.docs_neardup_recall(sf_dir, pairs=mh_pairs),
        dedup.DOCS_NEARDUP_RECALL_SQL,
        sf_dir,
    )
    # raw-corpus forced runs: the overlay always has exact duplicates and
    # >=24-token texts, so these keep the raw-only branches (the
    # no-exact-dup early return, empty/short-text shingle paths) executing
    # distributed inside the driver gate, not just in pytest
    mh_raw = dedup.minhash_lsh_pairs(sf_dir)
    if set(mh_raw.schema().names) != {"a", "b", "jaccard_ppm"}:
        raise RuntimeError(f"minhash_lsh_pairs schema: {mh_raw.schema().names}")
    mh_raw.count()
    sim_raw = dedup.simhash_pairs(sf_dir)
    if set(sim_raw.schema().names) != {"a", "b", "hamming"}:
        raise RuntimeError(f"simhash_pairs schema: {sim_raw.schema().names}")
    sim_raw.count()
    # a >= 0 drops the df-cap audit rows (a = b = -1), which are counts,
    # not edges; at this scale the cap never fires, but the filter keeps
    # the edge-feed contract explicit
    exact = (
        dedup.ngram_jaccard_groups(sf_dir)
        .filter(expr="a >= 0")
        .select_columns(["a", "b"])
    )
    labels = dedup.dup_clusters(sf_dir, edges=exact).materialize()
    _assert_sql_twin(
        "docs_dedup_pipeline",
        dedup.docs_dedup_pipeline(sf_dir, labels=labels),
        dedup.DOCS_DEDUP_PIPELINE_SQL,
        sf_dir,
    )
    _assert_sql_twin(
        "docs_dedup_keep_longest",
        dedup.docs_dedup_keep_longest(sf_dir, labels=labels),
        dedup.DOCS_DEDUP_KEEP_LONGEST_SQL,
        sf_dir,
    )
    return labels


def _supplier_parttype_query(sf_dir: str):
    """Part-type revenue share AND the supplier-per-nation broadcast join
    AND the Q7 bilateral-volume multi-join AND the referential-integrity
    audit in one driver slot. Forced gates: ``supplier_per_nation``,
    ``q7_nation_volume`` (three chained big-big cogroup joins + nation
    broadcast, the deepest join chain in the family) and
    ``referential_integrity`` (per-FK-edge orphan counts through the
    anti cogroup join, child pre-aggregated to key cardinality) stay
    fully hash-checked via in-query twin gates. RECORDED result:
    ``part_type_revenue`` — the Q14-shaped lineitem↔part join with
    pre-aggregation BEFORE the join (the corpus table reduces to
    part-cardinality first), integer ppm revenue shares; pinned to
    ``PART_TYPE_REVENUE_SQL``."""
    _assert_sql_twin(
        "supplier_per_nation",
        relational.supplier_per_nation(sf_dir),
        relational.SUPPLIER_PER_NATION_SQL,
        sf_dir,
        tables=("supplier", "nation"),
    )
    _assert_sql_twin(
        "q7_nation_volume",
        relational.q7_nation_volume(sf_dir),
        relational.Q7_SQL,
        sf_dir,
        tables=("lineitem", "supplier", "nation", "orders", "customer"),
    )
    _assert_sql_twin(
        "referential_integrity",
        relational.referential_integrity(sf_dir),
        relational.REFERENTIAL_INTEGRITY_SQL,
        sf_dir,
        tables=("orders", "customer", "lineitem", "supplier", "events"),
    )
    return relational.part_type_revenue(sf_dir)


def _props_retention_query(sf_dir: str):
    """Cohort retention AND trailing-window distinct actives AND JSON
    props extraction in one driver slot. Forced gates:
    ``events_props_k`` and ``events_wau`` (the 7-day windowed
    distinct-active rollup — coverage explode + in-bucket exact dedup)
    stay fully hash-checked via in-query twin gates. RECORDED result:
    ``events_retention`` — the first-activity-cohort × day-offset
    distinct-user matrix (one user-bucketed exchange + one KB-sized
    grouped count), pinned to a MIN/date_diff DuckDB twin."""
    _assert_sql_twin(
        "events_props_k",
        events.events_props_k(sf_dir),
        events.EVENTS_PROPS_K_SQL,
        sf_dir,
        tables=("events",),
    )
    _assert_sql_twin(
        "events_wau",
        events.events_wau(sf_dir),
        events.EVENTS_WAU_SQL,
        sf_dir,
        tables=("events",),
    )
    return events.events_retention(sf_dir)


def _ngram_pagerank_query(sf_dir: str):
    """Directed triangle counting AND link-graph PageRank AND exact
    n-gram Jaccard groups in one driver slot. Forced gates:
    ``docs_ngram_jaccard``, ``docs_pagerank`` (5 iterations of
    integer-fixed-point PageRank, chained-CTE twin) and
    ``docs_label_prop`` (semi-supervised label propagation — clamped
    synchronous majority spreading from 20% seeds, one bucketed exchange
    per round) stay fully hash-checked via in-query twin gates. RECORDED
    result: ``docs_graph_triangles`` — per-node directed 3-cycle
    participation via the distributed multi-way self-join (three
    hash-bucketed cogroup joins), pinned to a three-way self-join DuckDB
    twin."""
    _assert_sql_twin(
        "docs_ngram_jaccard",
        dedup.ngram_jaccard_groups(sf_dir),
        dedup.NGRAM_JACCARD_SQL,
        sf_dir,
    )
    _assert_sql_twin(
        "docs_pagerank", graph.docs_pagerank(sf_dir), graph.DOCS_PAGERANK_SQL, sf_dir
    )
    _assert_sql_twin(
        "docs_label_prop", graph.docs_label_prop(sf_dir), graph.DOCS_LABEL_PROP_SQL, sf_dir
    )
    return graph.docs_graph_triangles(sf_dir)


def _hourly_mad_query(sf_dir: str):
    """Hourly rollup AND the robust anomaly pass AND the shuffle-skew
    planner AND the watermark pass in one driver slot. Forced gates:
    ``events_skew_stats`` (exact integer Gini/p99/salt-factor from the
    count-of-counts histogram), ``events_watermark_late`` (streaming
    late-data accounting as a distributed ordered prefix scan over a
    jittered arrival overlay) and ``events_mad_anomaly`` (median + MAD over the hourly
    counts via the grouped histogram-narrowing quantile kernel, integer
    thresholds, 50%-breakdown-point robustness) stays fully hash-checked
    via its in-query twin gate. RECORDED result: ``events_hourly``,
    hash-checked as before."""
    _assert_sql_twin(
        "events_mad_anomaly",
        events.events_mad_anomaly(sf_dir),
        events.EVENTS_MAD_SQL,
        sf_dir,
        tables=("events",),
    )
    _assert_sql_twin(
        "events_cusum",
        events.events_cusum(sf_dir),
        events.EVENTS_CUSUM_SQL,
        sf_dir,
        tables=("events",),
    )
    _assert_sql_twin(
        "events_skew_stats",
        events.events_skew_stats(sf_dir),
        events.EVENTS_SKEW_SQL,
        sf_dir,
        tables=("events",),
    )
    _assert_sql_twin(
        "events_watermark_late",
        events.events_watermark_late(sf_dir),
        events.EVENTS_WATERMARK_SQL,
        sf_dir,
        tables=("events",),
    )
    return events.events_hourly(sf_dir)


def _topk_basket_query(sf_dir: str):
    """Per-customer order top-k AND market-basket co-occurrence AND the
    Q4 EXISTS in one driver slot. Forced gates: ``lineitem_basket_pairs``
    (top-k part-type pairs sharing an order — lineitem⋈part cogroup,
    basket-bucketed in-group pair explode bounded by basket size) and
    ``q4_priority_semi`` (the distributed EXISTS via the cogroup semi
    mode, probe deduped map-side) stay fully hash-checked via in-query
    twin gates. RECORDED
    result: ``orders_topk_per_customer``."""
    _assert_sql_twin(
        "lineitem_basket_pairs",
        relational.lineitem_basket_pairs(sf_dir),
        relational.LINEITEM_BASKET_SQL,
        sf_dir,
        tables=("lineitem", "part"),
    )
    _assert_sql_twin(
        "q4_priority_semi",
        relational.q4_priority_semi(sf_dir),
        relational.Q4_SEMI_SQL,
        sf_dir,
        tables=("orders", "lineitem"),
    )
    return relational.orders_topk_per_customer(sf_dir)


def _priority_profile_query(sf_dir: str):
    """Order-priority rollup AND the table profiler in one driver slot.
    Forced gates: ``orders_profile`` and ``docs_profile`` — per-column
    row/null counts, canonical-integer min/max and the HLL distinct
    estimate, the whole profile (sketch included) hash-checked against a
    generated per-column DuckDB twin. RECORDED result:
    ``orders_priority_count``."""
    from ..ops import profile as prof

    _assert_sql_twin(
        "orders_profile",
        prof.table_profile(sf_dir, "orders"),
        prof.ORDERS_PROFILE_SQL,
        sf_dir,
        tables=("orders",),
    )
    _assert_sql_twin(
        "docs_profile",
        prof.table_profile(sf_dir, "documents"),
        prof.DOCS_PROFILE_SQL,
        sf_dir,
        tables=("documents",),
    )
    return relational.orders_priority_count(sf_dir)


# name → (fn, oracle_sql | None); EXACTLY 50 entries (driver record cap)
REGISTRY: dict[str, tuple] = {
    # relational core (SQL-checked)
    "q1_pricing_summary": (relational.q1_pricing_summary, relational.Q1_SQL),
    "q3_segment_topk": (relational.q3_segment_topk, relational.Q3_SQL),
    "q5_nation_revenue": (relational.q5_nation_revenue, relational.Q5_SQL),
    "q6_filtered_revenue": (relational.q6_filtered_revenue, relational.Q6_SQL),
    "orders_priority_count": (_priority_profile_query, relational.ORDERS_PRIORITY_SQL),
    "orders_topk_per_customer": (_topk_basket_query, relational.ORDERS_TOPK_SQL),
    "events_distinct_users": (_distinct_kmv_query, relational.EVENTS_DISTINCT_SQL),
    "orders_price_quantiles": (_month_quantiles_query, relational.ORDERS_QUANTILES_SQL),
    "q22_antijoin_nation": (_custbal_antijoin_query, relational.Q22_SQL),
    "part_type_revenue": (_supplier_parttype_query, relational.PART_TYPE_REVENUE_SQL),
    # event streams (SQL-checked)
    "events_hourly": (_hourly_mad_query, events.EVENTS_HOURLY_SQL),
    "events_funnel": (_sessionize_funnel_query, events.EVENTS_FUNNEL_SQL),
    "events_retention": (_props_retention_query, events.EVENTS_RETENTION_SQL),
    "events_bloom_semijoin": (_running_bloom_query, events.EVENTS_BLOOM_SQL),
    "events_sliding": (_sliding_asof_query, events.EVENTS_SLIDING_SQL),
    # text analysis (SQL-checked where expressible)
    "docs_top_tokens": (_token_stats_top_query, tx.DOCS_TOP_TOKENS_SQL),
    "docs_bigram_pmi": (_quality_repetition_tfidf_query, tx.DOCS_BIGRAM_PMI_SQL),
    "docs_priority_sample": (_fingerprint_split_reservoir_query, curate.DOCS_PRIORITY_SQL),
    "docs_chunk_windows": (_keyword_redact_query, curate.DOCS_CHUNK_SQL),
    "docs_mixture_budget": (_bpe_mixture_pack_query, curate.DOCS_MIXTURE_BUDGET_SQL),
    "docs_cross_source_overlap": (_exact_line_span_dedup_query, curate.DOCS_CROSS_SOURCE_SQL),
    # similarity search (SQL-checked)
    "emb_outliers": (_knn_centroid_kmeans_query, similarity.EMB_OUTLIERS_SQL),
    "emb_kcenter": (_emb_dedup_query, similarity.EMB_KCENTER_SQL),
    # extraction-kernel surrogates (SQL-checked): the per-turn extraction
    # kernels AND the invoice fold pinned to DuckDB over rendered inputs
    # (ops/surrogate.py)
    "extract_kernel_invoice_bank": (surrogate.extract_kernel_invoice_bank, surrogate.EXTRACT_KERNEL_INVOICE_SQL),
    "extract_kernel_invoice_fold": (surrogate.extract_kernel_invoice_fold, surrogate.EXTRACT_KERNEL_INVOICE_FOLD_SQL),
    "extract_kernel_layout_fold": (surrogate.extract_kernel_layout_fold, surrogate.EXTRACT_KERNEL_LAYOUT_FOLD_SQL),
    "extract_kernel_catalog_fold": (surrogate.extract_kernel_catalog_fold, surrogate.EXTRACT_KERNEL_CATALOG_FOLD_SQL),
    "extract_kernel_census_fold": (surrogate.extract_kernel_census_fold, surrogate.EXTRACT_KERNEL_CENSUS_FOLD_SQL),
    "extract_kernel_table_fold": (surrogate.extract_kernel_table_fold, surrogate.EXTRACT_KERNEL_TABLE_FOLD_SQL),
    "extract_kernel_grid_fold": (surrogate.extract_kernel_grid_fold, surrogate.EXTRACT_KERNEL_GRID_FOLD_SQL),
    "extract_kernel_boilerplate": (surrogate.extract_kernel_boilerplate, surrogate.EXTRACT_KERNEL_BOILERPLATE_SQL),
    "extract_kernel_oilcodes": (surrogate.extract_kernel_oilcodes, surrogate.EXTRACT_KERNEL_OILCODES_SQL),
    "extract_kernel_household_key": (surrogate.extract_kernel_household_key, surrogate.EXTRACT_KERNEL_HOUSEHOLD_KEY_SQL),
    "extract_kernel_broken_flag": (surrogate.extract_kernel_broken_flag, surrogate.EXTRACT_KERNEL_BROKEN_FLAG_SQL),
    "extract_kernel_member_coders": (surrogate.extract_kernel_member_coders, surrogate.EXTRACT_KERNEL_MEMBER_CODERS_SQL),
    "extract_kernel_grid_crops": (surrogate.extract_kernel_grid_crops, surrogate.EXTRACT_KERNEL_GRID_CROPS_SQL),
    # flagship pipeline (rows-only; oracle = pytest gate incl. reference
    # differentials) and detector paths (real box corpus gated non-empty,
    # returned result = rendered-box surrogate, SQL-hash-checked) —
    # placed directly after the SQL block so a budget-limited driver
    # records them before the heavy dedup suite
    "transcript_conv_clusters": (_conv_clusters_query, None),
    "extract_census_persons": (_census_persons_query, surrogate.EXTRACT_KERNEL_PERSONS_FOLD_SQL),
    "extract_layout_detected": (
        _box_query("layout_detected", surrogate.extract_kernel_layout_detect),
        surrogate.EXTRACT_KERNEL_LAYOUT_DETECT_SQL,
    ),
    "extract_table_detected": (
        _box_query("table_detected", surrogate.extract_kernel_table_detect),
        surrogate.EXTRACT_KERNEL_TABLE_DETECT_SQL,
    ),
    "extract_grid_detected": (_grid_box_query, surrogate.EXTRACT_KERNEL_GRID_DETECT_SQL),
    # transcript extraction family slots: each runs its family pipeline(s)
    # as forced gates (variant byte-equality / non-empty / lineage
    # invariants, all raising) and RECORDS an order-sensitive transcript
    # op whose DuckDB twin ``oracle_sql()`` builds over the same Parquet
    # files (path-dependent, so added there rather than here)
    "extract_all_partitioned_metrics": (_partitioned_metrics_query, None),
    "extract_catalog": (_catalog_query, None),
    "extract_invoice": (_invoice_query, None),
    "extract_layout": (_layout_query, None),
    "extract_table_grid": (_table_grid_query, None),
    # training-data ops: decontamination (langid twin-gated in-query) +
    # exact n-gram Jaccard are SQL-checked; the hash-based near-dup
    # SIGNATURES have no SQL twin (recall/property tests in pytest; they
    # run as forced gates inside the slot), but the recorded
    # components-over-exact-edges result is hash-checked
    "docs_curation_pipeline": (_langid_decon_curation_query, curate.DOCS_CURATION_SQL),
    "docs_hash_neardup": (_hash_neardup_query, dedup.DUP_CLUSTERS_SQL),
    "docs_graph_triangles": (_ngram_pagerank_query, graph.DOCS_TRIANGLES_SQL),
    "emb_pq_codes": (_ann_methods_query, similarity.EMB_PQ_SQL),
    # multimodal plumbing (stubbed decode kernel): decode → features →
    # thumbnail-resize → frame-sample exercised in one chained query
    "media_pipeline": (_media_ocr_query, surrogate.EXTRACT_KERNEL_OCR_INVOICE_SQL),
}


def queries() -> dict:
    return {name: fn for name, (fn, _sql) in REGISTRY.items()}


def oracle_sql() -> dict[str, str]:
    """Static registry SQL plus the path-dependent transcript twins.

    The driver compares queries and oracles at sf0.01; the transcript
    corpus is OUR deterministic synthetic input cached under /tmp
    (FIXTURES.md §4), so its twins must embed the corpus path. Building
    them here (rather than in REGISTRY) lets the path resolve — and the
    corpus synthesize if missing — at call time. ``PDFX_ORACLE_SF_DIR``
    overrides the scale directory for local robustness probes
    (tools/check_queries.py sets it to its sf_dir)."""
    import os as _os

    from ..ops import transcript as _tr

    out = {name: sql for name, (_fn, sql) in REGISTRY.items() if sql is not None}
    sf_dir = _os.environ.get("PDFX_ORACLE_SF_DIR", "/root/testdata/sf0.01")
    path = transcripts_path_for_sf(sf_dir)
    out["extract_invoice"] = _tr.transcript_hygiene_sql(path)
    out["extract_catalog"] = _tr.transcript_conv_dedup_sql(path)
    out["extract_layout"] = _tr.transcript_context_tails_sql(path)
    out["extract_table_grid"] = _tr.transcript_turn_pack_sql(path)
    out["extract_all_partitioned_metrics"] = _tr.transcript_role_transitions_sql(path)
    out["transcript_conv_clusters"] = _tr.transcript_conv_clusters_sql(path)
    return out
