"""The SimHash and MinHash kernels must not change a single signature.

``dedup_unbatched.py`` holds verbatim copies of ``simhash64_batch`` and
``minhash_signatures`` as they were before the token-cache fix (which
md5-hashed every token, hit or miss) and the bit-count rewrite (which
replaced a per-document (tokens × 64) int64 matrix with one ``unpackbits``
per span of documents). Every test here runs both and requires equal
results.
"""

import dedup_unbatched as old
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdf_extractors_ray.ops import dedup

# every character Python's str.split() separates on, beyond ASCII space
_UNICODE_WS = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0        　"
_WORDS = ["tok", "Tok", "tök", "x", "invoice", "12", "no.", "ſ", "İ", "—", "a b"]
_text = st.lists(
    st.one_of(st.sampled_from(_WORDS), st.text(max_size=6), st.sampled_from(list(_UNICODE_WS))),
    max_size=40,
).map("".join)
_texts = st.lists(_text, max_size=12)


@settings(max_examples=300, deadline=None)
@given(_texts)
@example([])
@example([""])
@example(["", " ", "　\xa0\n", "a"])
@example(["a" + _UNICODE_WS + "b", _UNICODE_WS])
def test_simhash_equals_unbatched(texts):
    assert dedup.simhash64_batch(texts) == old.simhash64_batch(texts)


@settings(max_examples=100, deadline=None)
@given(_texts, st.integers(1, 8))
def test_simhash_spans_do_not_change_hashes(texts, span):
    """Documents are split into spans between, never inside, documents;
    a span holds at least one document, even one longer than the cap."""
    saved = dedup._SIMHASH_SPAN_TOKENS
    dedup._SIMHASH_SPAN_TOKENS = span
    try:
        got = dedup.simhash64_batch(texts)
    finally:
        dedup._SIMHASH_SPAN_TOKENS = saved
    assert got == old.simhash64_batch(texts)


def test_simhash_hashes_each_distinct_token_once(monkeypatch):
    calls = []
    real = dedup._md5_64
    monkeypatch.setattr(dedup, "_md5_64", lambda s: calls.append(s) or real(s))
    texts = ["a b a c", "c c b", "", "d"]
    assert dedup.simhash64_batch(texts) == old.simhash64_batch(texts)
    assert sorted(calls) == ["a", "b", "c", "d"]


def test_simhash_cache_hits_skip_md5(monkeypatch):
    cache: dict = {}
    dedup.simhash64_batch(["one two three"], cache)
    monkeypatch.setattr(dedup, "_md5_64", lambda s: (_ for _ in ()).throw(AssertionError(s)))
    assert dedup.simhash64_batch(["three two one one"], cache) == old.simhash64_batch(["three two one one"])


@settings(max_examples=150, deadline=None)
@given(_texts)
@example(["", "   ", "a", "a b", "a b c", "a b c d e f"])
def test_minhash_equals_unbatched(texts):
    assert (dedup.minhash_signatures(texts) == old.minhash_signatures(texts)).all()
    assert (
        dedup.minhash_signatures(texts, _flat_cap=3) == old.minhash_signatures(texts, _flat_cap=3)
    ).all()


def test_minhash_cache_hits_skip_md5(monkeypatch):
    cache: dict = {}
    texts = ["the quick brown fox jumps", "quick brown fox jumps over"]
    want = old.minhash_signatures(texts)
    dedup.minhash_signatures(texts, _cache=cache)
    monkeypatch.setattr(dedup, "_md5_64", lambda s: (_ for _ in ()).throw(AssertionError(s)))
    assert (dedup.minhash_signatures(texts, _cache=cache) == want).all()
