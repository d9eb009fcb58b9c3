"""Dedup / text / similarity / lineage operator tests."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from greenex_py_ray.stages import dedup, similarity, text


def _docs_ds(sf_dir):
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])


def test_exact_dedup_matches_pandas(sf_dir):
    got = dedup.exact_dedup(_docs_ds(sf_dir)).to_pandas()
    src = pq.read_table(f"{sf_dir}/documents.parquet").to_pandas()
    exp = src.groupby("text", as_index=False)["doc_id"].min()
    assert sorted(got["doc_id"]) == sorted(exp["doc_id"])


def test_token_count_matches_python(sf_dir):
    import re

    got = (
        _docs_ds(sf_dir)
        .map_batches(text.token_count_batch, batch_format="pyarrow")
        .to_pandas()
        .set_index("doc_id")["n_tokens"]
    )
    src = pq.read_table(f"{sf_dir}/documents.parquet").to_pandas()
    for _, row in src.head(50).iterrows():
        assert got[row.doc_id] == len(re.split(r"\s+", row.text.strip()))


def test_fingerprint_deterministic_and_distinct(sf_dir):
    t = pq.read_table(f"{sf_dir}/documents.parquet")
    fp1 = text.fingerprint64(t.column("text").to_pylist()[:100])
    fp2 = text.fingerprint64(t.column("text").to_pylist()[:100])
    assert np.array_equal(fp1, fp2)
    texts = t.column("text").to_pylist()[:100]
    assert len(set(fp1.tolist())) == len(set(texts))


def test_fingerprint_order_sensitivity():
    a, b = text.fingerprint64(["ab", "ba"])
    assert a != b


def test_minhash_candidates_contain_high_jaccard_pairs():
    """Plant near-duplicates; LSH must surface them as candidates and the
    Jaccard verifier must confirm."""
    base = "the quick brown fox jumps over the lazy dog " * 5
    texts = [base, base[:-10] + " extra tail", "completely different text about rays",
             base.replace("quick", "quik"), "another unrelated document entirely"]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    ds = rd.from_arrow(tbl)
    cand = dedup.minhash_lsh_candidates(ds).to_pandas()
    pairs = set(map(tuple, cand[["key_a", "key_b"]].to_numpy()))
    assert (0, 1) in pairs and (0, 3) in pairs
    ver = rd.from_pandas(cand).map_batches(
        dedup.JaccardVerifier,
        fn_constructor_kwargs=dict(texts_ref=ray.put(tbl), threshold=0.6),
        batch_format="pyarrow", concurrency=1, num_cpus=1,
    ).to_pandas()
    confirmed = ver[ver["is_dup"]]
    assert {(0, 1), (0, 3)} <= set(map(tuple, confirmed[["key_a", "key_b"]].to_numpy()))
    assert ((ver["jaccard"] >= 0) & (ver["jaccard"] <= 1)).all()


def test_simhash_near_for_similar_texts():
    h = dedup.SimHasher()
    t1 = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                   "text": pa.array([
                       "the quick brown fox jumps over the lazy dog again and again",
                       "the quick brown fox jumps over the lazy dog again and once",
                       "entirely different words about distributed raster processing",
                   ])})
    out = h(t1).column("simhash").to_pylist()
    d01 = bin(out[0] ^ out[1]).count("1")
    d02 = bin(out[0] ^ out[2]).count("1")
    assert d01 < d02


def test_bruteforce_topk_matches_numpy(sf_dir):
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet")
    V = emb.column("embedding").combine_chunks().flatten().to_numpy(
        zero_copy_only=False).reshape(-1, 64).astype(np.float64)
    ids = emb.column("vec_id").to_numpy(zero_copy_only=False)
    queries = {"query_id": [int(ids[0])], "vectors": V[:1]}
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    got = similarity.brute_force_topk(ds, queries, 5, 64).to_pandas()
    n = np.linalg.norm(V, axis=1)
    n[n == 0] = 1
    Vn = V / n[:, None]
    sims = Vn @ Vn[0]
    exp = ids[np.argsort(-sims)[:5]]
    assert set(got["vec_id"]) == set(exp.tolist())


def _lloyd_centroids(sample: np.ndarray, n_centroids: int, iters: int = 10,
                     seed: int = 17) -> np.ndarray:
    """Lloyd k-means on a sample: a trained coarse quantizer."""
    rng = np.random.default_rng(seed)
    C = sample[rng.choice(len(sample), n_centroids, replace=False)].astype(np.float64)
    for _ in range(iters):
        assign = ((sample[:, None, :] - C[None, :, :]) ** 2).sum(-1).argmin(1)
        for c in range(n_centroids):
            pts = sample[assign == c]
            if len(pts):
                C[c] = pts.mean(0)
    return C


def test_ivf_recall_reasonable(sf_dir):
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet")
    V = emb.column("embedding").combine_chunks().flatten().to_numpy(
        zero_copy_only=False).reshape(-1, 64).astype(np.float64)
    ids = emb.column("vec_id").to_numpy(zero_copy_only=False)
    queries = {"query_id": [int(ids[0]), int(ids[1])], "vectors": V[:2]}
    cents = _lloyd_centroids(V[:500], n_centroids=8)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    exact = similarity.brute_force_topk(ds, queries, 10, 64).to_pandas()
    approx = similarity.ivf_topk(ds, queries, cents, 10, 64,
                                 nprobe=4).to_pandas()
    for qid in queries["query_id"]:
        e = set(exact[exact.query_id == qid]["vec_id"])
        a = set(approx[approx.query_id == qid]["vec_id"])
        assert len(e & a) / len(e) >= 0.5  # recall@10 with nprobe=4/8 cells


def test_langid_predicts_english():
    tbl = pa.table({"doc_id": pa.array([0], pa.int64()),
                    "text": pa.array(["the cat and the dog sat in the house of a king"])})
    out = rd.from_arrow(tbl).map_batches(
        text.LangId, batch_format="pandas", concurrency=1, num_cpus=1
    ).to_pandas()
    assert out["lang_pred"][0] == "en"


def test_lineage_resume(tmp_path, sf_dir):
    from greenex_py_ray import lineage

    out_dir = str(tmp_path / "out")
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    m1 = lineage.resumable_write(ds, out_dir, key="doc_id", num_partitions=8)
    assert len(m1) == 8
    assert sum(r["row_count"] for r in m1) == ds.count()
    # simulate a partial failure: delete 3 partitions + their manifests
    import os

    for p in (1, 4, 6):
        os.remove(os.path.join(out_dir, f"part-{p:05d}.parquet"))
        os.remove(os.path.join(out_dir, "_manifest", f"partition-{p}.json"))
    checks_before = {r["partition_id"]: r["checksum"] for r in m1}

    def stats():
        files = [os.path.join(out_dir, f"part-{p:05d}.parquet")
                 for p in (0, 2, 3, 5, 7)]
        return [(os.stat(f).st_ino, os.stat(f).st_mtime_ns) for f in files]

    kept = stats()
    m2 = lineage.resumable_write(ds, out_dir, key="doc_id", num_partitions=8)
    assert len(m2) == 8
    # re-done partitions byte-identical to the first run
    for r in m2:
        assert r["checksum"] == checks_before[r["partition_id"]]
    # completed partitions are not rewritten
    assert stats() == kept


def test_near_dedup_end_to_end():
    base = "the quick brown fox jumps over the lazy dog " * 5
    texts = [base, base[:-8] + " tail", "totally different document one",
             base.replace("quick", "quik"), "another unrelated text entirely"]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    out = dedup.near_dedup(rd.from_arrow(tbl), threshold=0.6).to_pandas()
    kept = set(out["doc_id"])
    # docs 0,1,3 form one near-dup cluster → only min key 0 survives
    assert kept == {0, 2, 4}


def test_lsh_hot_bucket_cap_star():
    """A bucket of identical docs must emit O(n) star pairs, not O(n^2)
    all-pairs — and every member stays transitively connected."""
    n = 600
    tbl = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                    "text": pa.array(["same boilerplate text " * 10] * n)})
    cand = dedup.minhash_lsh_candidates(rd.from_arrow(tbl)).to_pandas()
    assert len(cand) == n - 1  # star from min key, dedup'd across bands
    assert set(cand["key_a"]) == {0}
    assert set(cand["key_b"]) == set(range(1, n))


def test_near_dedup_bucketed_text_path():
    """driver_threshold=0 forces the bucket-join text delivery; result
    must match the broadcast path."""
    base = "the quick brown fox jumps over the lazy dog " * 5
    texts = [base, base[:-8] + " tail", "totally different document one",
             base.replace("quick", "quik"), "another unrelated text entirely"]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    out = dedup.near_dedup(rd.from_arrow(tbl), threshold=0.6,
                           driver_threshold=0).to_pandas()
    assert set(out["doc_id"]) == {0, 2, 4}


def test_content_hash_large_string_offsets():
    """large_string columns carry int64 offsets; hashing must not
    reinterpret them as int32 (round-3 review fix: duplicates could
    silently survive exact dedup on large_string input)."""
    import pyarrow as pa

    from greenex_py_ray.stages.dedup import content_hash_batch

    texts = ["abc", "hello world", "", "abc"]
    h_small = content_hash_batch(
        pa.table({"text": pa.array(texts, pa.string())})
    ).column("content_hash").to_pylist()
    h_large = content_hash_batch(
        pa.table({"text": pa.array(texts, pa.large_string())})
    ).column("content_hash").to_pylist()
    assert h_small == h_large
    assert h_small[0] == h_small[3] and h_small[0] != h_small[1]
    # sliced (non-zero offset) case
    sl = pa.table({"text": pa.array(texts, pa.large_string())}).slice(1, 2)
    assert content_hash_batch(sl).column("content_hash").to_pylist() == h_large[1:3]


def test_minhash_shingle_chunking_identity():
    """The chunked (P, sigma-S) universal-hash pass must be
    bit-identical to one unchunked pass (the chunking is purely a
    memory/cache bound — measured 5x on a 1M-doc corpus)."""
    import numpy as np
    import pyarrow as pa

    from greenex_py_ray.stages.dedup import MinHasher

    rng = np.random.default_rng(5)
    vocab = ["tok%04d" % i for i in range(800)]
    texts = [" ".join(rng.choice(vocab, rng.integers(0, 60)))
             for _ in range(300)] + ["", "ab"]
    batch = pa.table({"doc_id": pa.array(range(len(texts))),
                      "text": pa.array(texts)})
    small = MinHasher()
    small.SHINGLE_CHUNK = 1000          # force many chunks
    big = MinHasher()
    big.SHINGLE_CHUNK = 10 ** 12        # one pass
    assert small(batch).column("minhash").to_pylist() == \
        big(batch).column("minhash").to_pylist()


def _lev_ref(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[len(b)]


def test_levenshtein_batch_matches_reference():
    from greenex_py_ray.stages.dedup import levenshtein_batch

    rng = np.random.default_rng(23)
    alphabet = list("abcde") + ["é", "ß", "你"]
    pairs = []
    for _ in range(120):
        la, lb = rng.integers(0, 12, 2)
        pairs.append(("".join(rng.choice(alphabet, la)),
                      "".join(rng.choice(alphabet, lb))))
    pairs += [("", ""), ("abc", ""), ("", "xyz"), ("same", "same")]
    lev, la, lb = levenshtein_batch([p[0] for p in pairs],
                                    [p[1] for p in pairs])
    for i, (a, b) in enumerate(pairs):
        assert lev[i] == _lev_ref(a, b), (a, b)
        assert la[i] == len(a) and lb[i] == len(b)


def test_lsh_topk_recall_and_self_hit(sf_dir):
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet")
    V = emb.column("embedding").combine_chunks().flatten().to_numpy(
        zero_copy_only=False).reshape(-1, 64).astype(np.float64)
    ids = emb.column("vec_id").to_numpy(zero_copy_only=False)
    queries = {"query_id": [int(ids[0]), int(ids[1])], "vectors": V[:2]}
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    exact = similarity.brute_force_topk(ds, queries, 10, 64).to_pandas()
    approx = similarity.lsh_topk(ds, queries, 10, 64,
                                 n_planes=16, n_bands=4).to_pandas()
    for i, qid in enumerate(queries["query_id"]):
        a = approx[approx.query_id == qid]
        # the query vector hashes into its own buckets -> always found,
        # cosine(self) == 1.0 tops the ranking
        assert a.iloc[0]["vec_id"] == qid
        assert a.iloc[0]["score"] == 1.0
        e = set(exact[exact.query_id == qid]["vec_id"])
        # sf0.001 embeddings are near-random, so true neighbours are
        # barely more similar than chance — banding recall is honestly
        # modest there (clustered-data recall asserted below)
        assert len(e & set(a["vec_id"])) / len(e) >= 0.2
        assert len(a) <= 10
        assert not a["vec_id"].duplicated().any()  # multi-band dedup


def test_lsh_topk_clustered_high_recall(ray_session):
    # 3 tight clusters: every true neighbour shares the query's signs
    rng = np.random.RandomState(5)
    centers = rng.normal(size=(3, 64)) * 4.0
    V = np.vstack([c + rng.normal(scale=0.05, size=(40, 64))
                   for c in centers])
    ids = np.arange(len(V), dtype=np.int64)
    tbl = pa.table({"vec_id": pa.array(ids),
                    "embedding": pa.array(list(V.astype(np.float32)),
                                          type=pa.list_(pa.float32()))})
    ds = rd.from_arrow(tbl)
    queries = {"query_id": [0, 40, 80], "vectors": V[[0, 40, 80]]}
    exact = similarity.brute_force_topk(ds, queries, 10, 64).to_pandas()
    approx = similarity.lsh_topk(ds, queries, 10, 64).to_pandas()
    for qid in queries["query_id"]:
        e = set(exact[exact.query_id == qid]["vec_id"])
        a = set(approx[approx.query_id == qid]["vec_id"])
        assert len(e & a) / len(e) >= 0.9


def test_kmeans_iterations_converge_on_clusters(ray_session):
    rng = np.random.RandomState(6)
    centers = rng.normal(size=(4, 64)) * 5.0
    V = np.vstack([c + rng.normal(scale=0.1, size=(50, 64))
                   for c in centers])
    tbl = pa.table({"vec_id": pa.array(np.arange(200, dtype=np.int64)),
                    "embedding": pa.array(list(V.astype(np.float32)),
                                          type=pa.list_(pa.float32()))})
    ds = rd.from_arrow(tbl).repartition(4)
    # seed one point per true cluster (random seeds can collapse two
    # clusters into one id -- ordinary Lloyd local optimum)
    seeds = V[[0, 50, 100, 150]]
    out, C = similarity.kmeans_assign_iterations(ds, seeds, 64, iters=3)
    df = out.to_pandas().sort_values("vec_id")
    labels = df["cluster"].to_numpy()
    # after updates, each true cluster maps to exactly one k-means id
    for g in range(4):
        blk = labels[g * 50:(g + 1) * 50]
        assert (blk == blk[0]).all()
    assert len(set(labels[::50])) == 4
    assert C.shape == (4, 64)


def test_edit_near_pairs_blocking_recall():
    """Length blocking is lossless: pairs straddling adjacent buckets
    are found; distances match a direct DP; k prunes; cross-block
    (lang) pairs are never compared."""
    from greenex_py_ray.stages.dedup import edit_near_pairs, levenshtein_batch

    docs = [
        (1, "abcdefgh", "en"),        # L=8
        (2, "abcdefghXY", "en"),      # L=10, lev=2 vs doc 1 (bucket edge)
        (3, "abcdefghXYZQW", "en"),   # L=13, lev=5 vs 1, lev=3 vs 2
        (4, "zzzzzzzz", "en"),        # L=8, far from all
        (5, "abcdefgh", "fr"),        # identical to 1 but other lang
    ]
    tbl = pa.table({"doc_id": [d[0] for d in docs],
                    "text": [d[1] for d in docs],
                    "lang": [d[2] for d in docs]})
    ds = ray.data.from_arrow(tbl).repartition(3)
    out = (edit_near_pairs(ds, k=5).to_pandas()
           .sort_values(["doc_a", "doc_b"]).reset_index(drop=True))
    got = {(r.doc_a, r.doc_b): r.dist for r in out.itertuples()}
    # brute force
    exp = {}
    for i in range(len(docs)):
        for j in range(i + 1, len(docs)):
            if docs[i][2] != docs[j][2]:
                continue
            lev, _, _ = levenshtein_batch([docs[i][1]], [docs[j][1]])
            if lev[0] <= 5:
                exp[(docs[i][0], docs[j][0])] = lev[0]
    assert got == exp
    assert (1, 2) in got and got[(1, 2)] == 2
    assert (2, 3) in got and got[(2, 3)] == 3
    assert (1, 3) in got and got[(1, 3)] == 5
    assert all(p[0] != 4 and p[1] != 4 for p in got)
    assert all(p[1] != 5 for p in got)


def test_levenshtein_banded_matches_full():
    """Ukkonen band: exact for lev <= band, strictly > band otherwise
    (including the stale-buffer column |la-lb| > band edge)."""
    import numpy as np

    from greenex_py_ray.stages.dedup import levenshtein_batch

    rng = np.random.default_rng(5)
    base = ["".join(rng.choice(list("abcdef"), 50)) for _ in range(100)]
    ta, tb = [], []
    for t in base:
        cur = list(t)
        for _ in range(int(rng.integers(0, 16))):
            op = int(rng.integers(0, 3))
            pos = int(rng.integers(0, max(1, len(cur))))
            if op == 0 and cur:
                cur[pos % len(cur)] = "x"
            elif op == 1:
                cur.insert(pos, "y")
            elif op == 2 and cur:
                del cur[pos % len(cur)]
        ta.append(t)
        tb.append("".join(cur))
    ta += ["", "abc", "", "same", "a" * 30]
    tb += ["xyz", "", "", "same", "b" * 30]
    full, _, _ = levenshtein_batch(ta, tb)
    for band in (1, 3, 7, 12, 99):
        bd, _, _ = levenshtein_batch(ta, tb, band=band)
        small = full <= band
        assert (bd[small] == full[small]).all()
        assert (bd[~small] > band).all()


def _tie_values() -> np.ndarray:
    """Doubles ``c`` whose ``c * 1e6`` is exactly ``k + 0.5`` for an
    even ``k`` (where ties-to-even and ties-away-from-zero differ), with
    ``(c, sqrt(1 - c²))`` of norm exactly 1, so a cosine against
    ``(1, 0)`` computes to ``c`` itself."""
    out = []
    for k in range(300_000, 301_000, 2):
        c = (k + 0.5) / 1e6
        if c * 1e6 != k + 0.5:
            continue
        if np.linalg.norm([c, np.sqrt(1 - c * c)]) == 1.0:
            out.append(c)
    assert len(out) >= 5
    return np.array(out)


def _duckdb_round(values, digits: int) -> np.ndarray:
    import duckdb

    con = duckdb.connect()
    got = con.execute(
        f"SELECT round(v, {digits}) FROM (SELECT unnest(?::DOUBLE[]) AS v)",
        [list(map(float, values))]).fetchall()
    return np.array([r[0] for r in got], np.float64)


def test_sql_round_matches_duckdb_on_ties_and_random_values():
    rng = np.random.default_rng(0)
    ties = _tie_values()
    x = np.concatenate([ties, -ties, rng.uniform(-1, 1, 2000),
                        rng.normal(0, 1e3, 500), [0.0, -0.0, 2.5e-7, -2.5e-7]])
    got = dedup.sql_round(x, 6)
    want = _duckdb_round(x, 6)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert not np.array_equal(np.round(ties, 6), _duckdb_round(ties, 6))


def test_cosine_pairs_round_ties_like_duckdb():
    """An exact tie of the 6-digit rounding goes away from zero, as the
    oracle's ``round(list_cosine_similarity(...), 6)`` does."""
    ties = _tie_values()
    emb = [[1.0, 0.0]] + [[c, float(np.sqrt(1 - c * c))] for c in ties]
    g = pd.DataFrame({"vec_id": np.arange(len(emb), dtype=np.int64),
                      "embedding": [np.array(e) for e in emb]})
    out = dedup.cosine_pairs_in_group(g, 0.30, "vec_id")
    got = out[out["key_a"] == 0].sort_values("key_b")["cosine"].to_numpy()
    assert np.array_equal(got, _duckdb_round(ties, 6))
