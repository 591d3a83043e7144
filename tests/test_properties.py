"""Property-based coverage (hypothesis) for the numeric kernels and the
distributed-helper semantics: exact Mersenne arithmetic, simhash
bit-accounting, and the cogroup join / bucketed aggregation helpers
against their single-process pandas equivalents."""

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_extractors_ray.ops import dedup

_P = (1 << 61) - 1


@given(st.lists(st.tuples(st.integers(0, _P - 1), st.integers(0, _P - 1)),
                min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_mulmod_p_exact(pairs):
    a = np.array([p[0] for p in pairs], dtype=np.uint64)
    h = np.array([p[1] for p in pairs], dtype=np.uint64)
    got = dedup._mulmod_p(a, h)
    want = np.array([(int(x) * int(y)) % _P for x, y in pairs], dtype=np.uint64)
    assert (got == want).all()


@given(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_fold_p_exact(xs):
    x = np.array(xs, dtype=np.uint64)
    got = dedup._fold_p(x)
    want = np.array([v % _P for v in xs], dtype=np.uint64)
    assert (got == want).all()


@given(st.text(alphabet="ab cd", max_size=120))
@settings(max_examples=100, deadline=None)
def test_simhash_batch_matches_scalar(text):
    assert dedup.simhash64_batch([text]) == [dedup.simhash64(text)]


@given(st.lists(st.sampled_from(["w%d" % i for i in range(30)]), min_size=3, max_size=60))
@settings(max_examples=100, deadline=None)
def test_minhash_identical_texts_identical_signatures(tokens):
    text = " ".join(tokens)
    s1, s2 = dedup.minhash_signature(text), dedup.minhash_signature(text)
    assert (s1 == s2).all()
    # permuting duplicate word ORDER only changes signatures when the
    # shingle SET changes; a pure repetition of the text leaves the
    # shingle set for the repeated region intact at the original windows
    assert (dedup.minhash_signature(text) == s1).all()


@given(
    st.lists(st.tuples(st.integers(0, 20), st.integers(-5, 5)), min_size=0, max_size=60),
    st.lists(st.tuples(st.integers(0, 20), st.text(alphabet="xyz", min_size=1, max_size=3)),
             min_size=0, max_size=30),
)
@settings(max_examples=25, deadline=None)
def test_cogroup_join_matches_pandas_merge(ray_session, left_rows, right_rows):
    import ray.data as rd

    from pdf_extractors_ray.ops.common import cogroup_join

    left = pd.DataFrame(left_rows, columns=["k", "v"]).astype({"k": np.int64, "v": np.int64})
    right = pd.DataFrame(right_rows, columns=["rk", "t"]).astype({"rk": np.int64})
    if left.empty or right.empty:
        return  # Ray from_pandas rejects empty frames; inner join is empty anyway
    got = cogroup_join(
        rd.from_pandas(left), rd.from_pandas(right), "k", "rk", ["k", "v"], ["t"]
    ).to_pandas()
    want = left.merge(right, left_on="k", right_on="rk")[["k", "v", "t"]]
    if want.empty:
        # Ray's to_pandas over all-empty pandas blocks loses the column
        # schema; the semantic claim (no rows) still holds
        assert len(got) == 0
        return
    # an inner join keeps each side's dtypes: no float64 promotion to undo
    key = ["k", "v", "t"]
    got = got.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[key], want)


def test_cogroup_join_float_promoted_keys_bucket_identically(ray_session):
    """Regression: integer keys that crossed an earlier null-interleaving
    merge arrive as float64; pd.util.hash_array keys off raw BITS, so 5.0
    and 5 hashed to different buckets and the join silently returned
    empty (observed: minhash verified pairs vanished). The tag stage must
    canonicalize float-integral keys to int64 before bucketing."""
    import ray.data as rd

    from pdf_extractors_ray.ops.common import cogroup_join

    left = pd.DataFrame({"k": np.array([1.0, 2.0, 7.0]), "v": [10, 20, 70]})
    assert left["k"].dtype == np.float64
    right = pd.DataFrame({"rk": np.array([1, 7, 9], dtype=np.int64), "t": ["a", "b", "c"]})
    got = cogroup_join(
        rd.from_pandas(left), rd.from_pandas(right), "k", "rk", ["v"], ["t"]
    ).to_pandas()
    got = got.sort_values("v").reset_index(drop=True)
    assert list(got["v"].astype(np.int64)) == [10, 70]
    assert list(got["t"]) == ["a", "b"]


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(-100, 100)),
                min_size=1, max_size=80))
@settings(max_examples=25, deadline=None)
def test_bucketed_group_agg_matches_pandas(ray_session, rows):
    import ray.data as rd

    from pdf_extractors_ray.ops.common import bucketed_group_agg

    df = pd.DataFrame(rows, columns=["k", "v"]).astype(np.int64)
    got = (
        bucketed_group_agg(rd.from_pandas(df), ["k"], {"v": "min"}, n_buckets=3)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = df.groupby("k", as_index=False)["v"].min().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype(np.int64), want, check_dtype=False)


def test_connected_components_batch_matches_union_find():
    """Property: the vectorized min-label + pointer-jumping kernel equals
    union-find on arbitrary random graphs (chains, stars, cliques, self
    loops, duplicate edges)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from pdf_extractors_ray.ops.dedup import connected_components_batch

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)),
            min_size=0, max_size=120,
        )
    )
    def check(edges):
        import numpy as np
        import pandas as pd

        a = np.array([e[0] for e in edges] + [e[1] for e in edges], dtype=np.int64)
        b = np.array([e[1] for e in edges] + [e[0] for e in edges], dtype=np.int64)
        out = connected_components_batch(pd.DataFrame({"src": a, "dst": b}))

        parent: dict = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
        want = {n: find(n) for n in set(a.tolist())}
        got = dict(zip(out["node"], out["label"]))
        assert got == want

    check()


@given(
    st.lists(st.tuples(st.integers(0, 20), st.integers(-5, 5)), min_size=1, max_size=60),
    st.lists(st.tuples(st.integers(0, 20), st.text(alphabet="xyz", min_size=1, max_size=3)),
             min_size=0, max_size=30),
)
@settings(max_examples=25, deadline=None)
def test_cogroup_join_left_and_anti_match_pandas(ray_session, left_rows, right_rows):
    import ray.data as rd

    from pdf_extractors_ray.ops.common import cogroup_join

    left = pd.DataFrame(left_rows, columns=["k", "v"]).astype({"k": np.int64, "v": np.int64})
    right = pd.DataFrame(right_rows, columns=["rk", "t"]).astype({"rk": np.int64})
    lds = rd.from_pandas(left)
    rds = (
        rd.from_pandas(right)
        if not right.empty
        # Ray from_pandas rejects empty frames; an empty right side is the
        # anti join's most important edge (everything kept) — synthesize
        # it as a filtered non-empty frame instead
        else rd.from_pandas(pd.DataFrame({"rk": [np.int64(10**9)], "t": ["x"]})).filter(
            lambda r: False
        )
    )
    got_anti = cogroup_join(lds, rds, "k", "rk", ["k", "v"], [], how="anti").to_pandas()
    want_anti = left[~left["k"].isin(right["rk"])]
    key = ["k", "v"]
    if want_anti.empty:
        assert len(got_anti) == 0
    else:
        pd.testing.assert_frame_equal(
            got_anti.sort_values(key).reset_index(drop=True),
            want_anti.sort_values(key).reset_index(drop=True),
        )

    got_left = cogroup_join(lds, rds, "k", "rk", ["k", "v"], ["t"], how="left").to_pandas()
    want_left = left.merge(right, left_on="k", right_on="rk", how="left")[["k", "v", "t"]]
    key = ["k", "v", "t"]
    # a left join's left-side columns keep their int64 dtype
    pd.testing.assert_frame_equal(
        got_left.fillna({"t": "\0"}).sort_values(key).reset_index(drop=True)[key],
        want_left.fillna({"t": "\0"}).sort_values(key).reset_index(drop=True),
    )


def test_cogroup_join_semi_full_properties(ray_session):
    """Five join modes against pandas references on random keyed frames —
    semi = EXISTS (no expansion), full = outer union, and the five modes
    partition consistently (semi + anti = left side)."""
    import ray.data as rd

    from pdf_extractors_ray.ops.common import cogroup_join

    rng = np.random.RandomState(17)
    for trial in range(3):
        lf = pd.DataFrame(
            {"k": rng.randint(0, 25, 60), "a": rng.randint(0, 100, 60)}
        )
        rf = pd.DataFrame(
            {"k": rng.randint(0, 25, 40), "b": rng.randint(0, 100, 40)}
        )
        lds, rds = rd.from_pandas(lf), rd.from_pandas(rf)

        semi = cogroup_join(lds, rds, "k", "k", ["k", "a"], [], how="semi").to_pandas()
        assert semi.dtypes.to_dict() == lf.dtypes.to_dict()
        want_semi = lf[lf["k"].isin(rf["k"])]
        assert len(semi) == len(want_semi)
        assert sorted(zip(semi["k"], semi["a"])) == sorted(
            zip(want_semi["k"], want_semi["a"])
        )

        anti = cogroup_join(lds, rds, "k", "k", ["k", "a"], [], how="anti").to_pandas()
        assert anti.dtypes.to_dict() == lf.dtypes.to_dict()
        assert len(anti) + len(semi) == len(lf)

        full = cogroup_join(
            lds, rds, "k", "k", ["k", "a"], ["b"], how="full"
        ).to_pandas()
        want_full = lf.merge(rf.rename(columns={"k": "k2"}),
                             left_on="k", right_on="k2", how="outer")
        assert len(full) == len(want_full)
        # row multiset equality on the joined pairs (nulls canonicalized)
        canon = lambda df, cols: sorted(
            tuple(-1 if pd.isna(v) else int(v) for v in row)
            for row in df[cols].itertuples(index=False)
        )
        got_pairs = canon(full, ["a", "b"])
        want_full["a"] = want_full["a"]
        assert got_pairs == canon(want_full, ["a", "b"])


# ---------------------------------------------------------------------------
# codec fuzz: PNG must round-trip EXACTLY for any shape/filter/channel
# combination; JPEG must round-trip within a quantization bound and its
# decoder must reject arbitrary corruption with ValueError, never hang
# or return garbage silently


@given(
    st.integers(1, 24), st.integers(1, 24),
    st.sampled_from([1, 3, 4]), st.integers(0, 4), st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_png_roundtrip_fuzz(h, w, ch, ftype, seed):
    from pdf_extractors_ray.ops import codecs

    rng = np.random.RandomState(seed)
    arr = rng.randint(0, 256, size=(h, w, ch), dtype=np.uint8)
    out = codecs.decode_png(codecs.encode_png(arr, filter_type=ftype))
    assert np.array_equal(out, arr)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**31 - 1),
       st.integers(30, 100))
@settings(max_examples=30, deadline=None)
def test_jpeg_roundtrip_bounded_fuzz(bh, bw, seed, quality):
    from pdf_extractors_ray.ops import codecs

    rng = np.random.RandomState(seed)
    # block-aligned smooth-ish content: quantization error is bounded by
    # the scaled table's coarsest cell; random noise at low quality can
    # exceed a fixed bound, so fuzz on gradients + mild noise
    h, w = bh * 8, bw * 8
    y, x = np.mgrid[0:h, 0:w]
    base = ((y * 3 + x * 2) % 256).astype(np.int64)
    arr = np.clip(base[:, :, None] + rng.randint(-8, 9, size=(h, w, 3)), 0, 255).astype(np.uint8)
    out = codecs.decode_jpeg(codecs.encode_jpeg(arr, quality=quality))
    assert out.shape == arr.shape
    err = np.abs(out.astype(np.int64) - arr.astype(np.int64))
    assert err.mean() < 40.0  # sanity envelope even at quality=30


@given(st.integers(0, 2**31 - 1), st.integers(2, 200), st.integers(0, 255))
@settings(max_examples=60, deadline=None)
def test_jpeg_corruption_never_hangs(seed, pos, val):
    from pdf_extractors_ray.ops import codecs

    rng = np.random.RandomState(seed % 97)
    arr = rng.randint(0, 256, size=(8, 16, 3), dtype=np.uint8)
    payload = bytearray(codecs.encode_jpeg(arr, quality=85))
    payload[pos % len(payload)] = val
    try:
        out = codecs.decode_jpeg(bytes(payload))
        # a surviving decode must still be a well-formed image
        assert out.dtype == np.uint8 and out.ndim == 3
    except ValueError:
        pass  # rejection via the module's error contract — nothing else


@given(st.integers(0, 2**31 - 1), st.integers(0, 4000), st.integers(0, 255))
@settings(max_examples=60, deadline=None)
def test_mp3_corruption_never_hangs(seed, pos, val):
    """Single-byte corruption anywhere in a PCM-embedding MPEG stream:
    the frame walk / decode must terminate with ValueError /
    NotImplementedError (the module contract) or survive with a
    well-formed result — never hang, never raise anything else."""
    from pdf_extractors_ray.ops import codecs

    pcm, rate = codecs.synth_audio(seed % 97)
    payload = bytearray(codecs.encode_mp3_pcm(pcm, rate))
    payload[pos % len(payload)] = val
    try:
        out, r = codecs.decode_mp3(bytes(payload))
        assert out.dtype == np.int16 and r in (8000, 11025, 12000, 16000,
                                               22050, 24000, 32000, 44100, 48000)
    except (ValueError, NotImplementedError):
        pass
