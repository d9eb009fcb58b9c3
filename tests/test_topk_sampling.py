"""Grouped top-k + deterministic hash sampling (training-data ops)."""

import numpy as np
import pyarrow as pa

import ray.data


def _toy_table(n=1000, seed=3):
    rng = np.random.default_rng(seed)
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "grp": pa.array(rng.integers(0, 7, n).astype(np.int64)),
        "score": pa.array(rng.integers(0, 50, n).astype(np.int64)),
    })


def test_topk_per_group_matches_bruteforce(ray_session):
    from greenex_py_ray.stages.topk import topk_per_group

    tbl = _toy_table()
    k = 4
    # brute-force oracle: stable sort by (grp, -score, doc_id), first k
    g = tbl.column("grp").to_numpy()
    s = tbl.column("score").to_numpy()
    d = tbl.column("doc_id").to_numpy()
    order = np.lexsort((d, -s, g))
    exp = set()
    counts = {}
    for i in order:
        c = counts.get(g[i], 0)
        if c < k:
            exp.add((int(g[i]), int(d[i]), c + 1))
            counts[g[i]] = c + 1

    # many small blocks so the partial pass actually runs per-batch
    ds = ray.data.from_arrow(tbl).repartition(16)
    out = topk_per_group(ds, "grp", "score", k, "doc_id").to_pandas()
    got = set(zip(out["grp"].astype(int), out["doc_id"].astype(int),
                  out["rank"].astype(int)))
    assert got == exp


def test_topk_partial_pass_bounds_rows(ray_session):
    """The partial stage must emit ≤k rows per group per batch."""
    from greenex_py_ray.stages.topk import _topk_indices

    tbl = _toy_table(500, seed=9)
    idx, rank = _topk_indices(tbl.column("grp").to_numpy(),
                              tbl.column("score").to_numpy(),
                              tbl.column("doc_id").to_numpy(), 3)
    g = tbl.column("grp").to_numpy()[idx]
    _, cnt = np.unique(g, return_counts=True)
    assert cnt.max() <= 3 and rank.max() <= 2


def test_hash_split_deterministic_and_partition_invariant(ray_session):
    from greenex_py_ray.stages.sampling import assign_split

    tbl = pa.table({"doc_id": pa.array(np.arange(2000, dtype=np.int64))})
    a = assign_split(ray.data.from_arrow(tbl), "doc_id").to_pandas()
    b = assign_split(ray.data.from_arrow(tbl).repartition(13),
                     "doc_id").to_pandas()
    a = a.sort_values("doc_id").reset_index(drop=True)
    b = b.sort_values("doc_id").reset_index(drop=True)
    assert (a["split"] == b["split"]).all()
    assert set(a["split"]) == {"train", "val", "test"}
    frac = (a["split"] == "train").mean()
    assert 0.75 < frac < 0.85  # ~80% by construction


def test_topk_unsigned_scores_and_negative_keys(ray_session):
    """Review fixes: unsigned score columns must not wrap under
    negation, and hash_bucket must reject negative keys (SQL %
    sign semantics differ)."""
    import pytest

    from greenex_py_ray.stages.sampling import hash_bucket
    from greenex_py_ray.stages.topk import _topk_indices

    g = np.zeros(4, np.int64)
    s = np.array([0, 5, 3, 7], np.uint64)
    t = np.arange(4, dtype=np.int64)
    idx, rank = _topk_indices(g, s, t, 2)
    assert list(s[idx]) == [7, 5]  # not [0, ...] via wraparound

    with pytest.raises(ValueError):
        hash_bucket(np.array([-1], np.int64))


def test_exact_quantiles_matches_definition(ray_session):
    """exact_quantiles == smallest v with cumcount >= ceil(q*n), and is
    partition-invariant."""
    from greenex_py_ray.stages.quantiles import exact_quantiles

    rng = np.random.default_rng(11)
    vals = rng.integers(0, 200, 5000).astype(np.int64)
    tbl = pa.table({"n": pa.array(vals)})
    qs = (0.25, 0.5, 0.9, 0.99)

    sv = np.sort(vals)
    exp = {q: int(sv[int(np.ceil(q * len(sv))) - 1]) for q in qs}

    for nblocks in (1, 17):
        ds = ray.data.from_arrow(tbl).repartition(nblocks)
        out = exact_quantiles(ds, "n", qs).to_pandas()
        got = dict(zip(out["q"], out["value"]))
        assert {round(k, 2): int(v) for k, v in got.items()} == \
            {round(k, 2): v for k, v in exp.items()}


def test_tfidf_topk_matches_bruteforce(ray_session):
    """tfidf_topk == brute-force quantized-idf scoring + sort, and the
    per-batch partial pass loses nothing across partitionings."""
    import re

    from greenex_py_ray.stages.tfidf import tfidf_topk

    rng = np.random.default_rng(21)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    texts = [" ".join(rng.choice(vocab, rng.integers(3, 30)))
             for _ in range(400)]
    tbl = pa.table({"doc_id": pa.array(np.arange(400, dtype=np.int64)),
                    "text": pa.array(texts)})
    terms = ("alpha", "gamma", "zeta")
    k = 15

    word = re.compile(r"[a-zA-Z']+")
    tfs = np.array([[word.findall(t.lower()).count(q) for q in terms]
                    for t in texts], dtype=np.int64)
    dfs = (tfs > 0).sum(axis=0)
    ws = np.array([int(round(round(np.log((400 + 1.0) / (d + 1.0)) + 1.0,
                                   6) * 1e6)) for d in dfs], np.int64)
    scores = tfs @ ws
    order = np.lexsort((np.arange(400), -scores))
    exp = [(int(i), int(scores[i]), r + 1)
           for r, i in enumerate(order[:k])]

    for nblocks in (1, 13):
        ds = ray.data.from_arrow(tbl).repartition(nblocks)
        out = tfidf_topk(ds, terms, k).to_pandas().sort_values("rank")
        got = list(zip(out["doc_id"].astype(int),
                       out["score_q6"].astype(int),
                       out["rank"].astype(int)))
        assert got == exp


def test_stratified_sample_deterministic(ray_session):
    """stratified_sample: exactly n per group, stable across
    partitionings, and equal to the brute-force hash-order head."""
    from greenex_py_ray.stages.sampling import (_MOD, _MULT,
                                                stratified_sample)

    rng = np.random.default_rng(23)
    n = 3000
    tbl = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "grp": pa.array(rng.integers(0, 5, n).astype(np.int64)),
    })
    k = np.arange(n, dtype=np.int64)
    hr = (k * _MULT) % _MOD
    import pandas as pd
    exp = (pd.DataFrame({"doc_id": k, "grp": tbl.column("grp").to_numpy(),
                         "hr": hr})
           .sort_values(["grp", "hr", "doc_id"])
           .groupby("grp").head(7))
    exp_set = set(zip(exp["grp"], exp["doc_id"]))

    for nblocks in (1, 11):
        ds = ray.data.from_arrow(tbl).repartition(nblocks)
        out = stratified_sample(ds, "grp", "doc_id", 7).to_pandas()
        got = set(zip(out["grp"].astype(int), out["doc_id"].astype(int)))
        assert got == exp_set
        assert (out.groupby("grp").size() == 7).all()


def test_bigram_topk_matches_bruteforce(ray_session):
    """bigram_topk == brute-force bigram counting + sort, across
    partitionings."""
    import re
    from collections import Counter

    from greenex_py_ray.stages.text import bigram_topk

    rng = np.random.default_rng(29)
    vocab = ["red", "green", "blue", "tree", "park", "walk"]
    texts = [" ".join(rng.choice(vocab, rng.integers(0, 25)))
             for _ in range(600)]
    tbl = pa.table({"doc_id": pa.array(np.arange(600, dtype=np.int64)),
                    "text": pa.array(texts)})

    word = re.compile(r"[a-zA-Z']+")
    cnt = Counter()
    for t in texts:
        ws = word.findall(t.lower())
        cnt.update(f"{a} {b}" for a, b in zip(ws, ws[1:]))
    exp = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    exp = [(bg, c, r + 1) for r, (bg, c) in enumerate(exp)]

    for nblocks in (1, 9):
        ds = ray.data.from_arrow(tbl).repartition(nblocks)
        out = bigram_topk(ds, 10).to_pandas().sort_values("rank")
        got = list(zip(out["bigram"], out["c"].astype(int),
                       out["rank"].astype(int)))
        assert got == exp


def test_sessionize_matches_bruteforce(ray_session):
    """sessionize == per-user sorted gap-split brute force, across
    partitionings and bucket counts."""
    from greenex_py_ray.stages.asof import sessionize

    rng = np.random.default_rng(41)
    n = 2000
    users = rng.integers(0, 23, n).astype(np.int64)
    ts = np.sort(rng.integers(0, 10**9, n)).astype(np.int64)
    rng.shuffle(ts)
    vals = rng.normal(size=n)
    tbl = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "user_id": pa.array(users),
        "ts": pa.array(ts),  # already integer "microseconds"
        "value": pa.array(vals),
    })
    gap = 5_000_000

    import pandas as pd
    df = tbl.to_pandas().sort_values(["user_id", "ts", "event_id"])
    exp = {}
    for u, g in df.groupby("user_id"):
        t = g["ts"].to_numpy()
        brk = np.ones(len(g), dtype=bool)
        brk[1:] = (t[1:] - t[:-1]) > gap
        sid = np.cumsum(brk) - 1
        for s in np.unique(sid):
            m = sid == s
            exp[(int(u), int(s))] = (int(m.sum()), int(t[m].min()),
                                     int(t[m].max()),
                                     round(float(g["value"].to_numpy()[m].sum()), 6))

    for nblocks in (1, 7):
        ds = ray.data.from_arrow(tbl).repartition(nblocks)
        out = sessionize(ds, gap).to_pandas()
        got = {(int(r.user_id), int(r.session_id)):
               (int(r.n_events), int(r.start_us), int(r.end_us),
                round(float(r.sum_value), 6))
               for r in out.itertuples()}
        assert got == exp


def test_bm25_topk_matches_bruteforce(ray_session):
    """bm25_topk == straight-line BM25 + sort on the same formula."""
    import re

    from greenex_py_ray.stages.tfidf import bm25_topk

    rng = np.random.default_rng(47)
    vocab = ["sun", "moon", "star", "rain", "wind", "snow", "fog"]
    texts = [" ".join(rng.choice(vocab, rng.integers(1, 40)))
             for _ in range(500)]
    tbl = pa.table({"doc_id": pa.array(np.arange(500, dtype=np.int64)),
                    "text": pa.array(texts)})
    terms = ("sun", "fog", "snow")
    k1, b, K = 1.2, 0.75, 12

    word = re.compile(r"[a-zA-Z']+")
    toks = [word.findall(t.lower()) for t in texts]
    dl = np.array([len(t) for t in toks], np.float64)
    avgdl = dl.sum() / len(dl)
    tf = np.array([[t.count(q) for q in terms] for t in toks], np.float64)
    df = (tf > 0).sum(axis=0)
    idf = np.log((500 - df + 0.5) / (df + 0.5) + 1.0)
    denom = tf + k1 * (1.0 - b + b * dl[:, None] / avgdl)
    part = np.where(tf > 0, tf * (k1 + 1.0) / denom, 0.0)
    score = np.round(part @ idf, 6)
    order = np.lexsort((np.arange(500), -score))
    exp = [(int(i), float(score[i]), r + 1)
           for r, i in enumerate(order[:K])]

    out = bm25_topk(ray.data.from_arrow(tbl).repartition(9), terms,
                    K).to_pandas().sort_values("rank")
    got = list(zip(out["doc_id"].astype(int), out["score_r6"],
                   out["rank"].astype(int)))
    assert got == exp


def test_mixture_sample_rates_and_determinism(ray_session):
    from greenex_py_ray.stages.sampling import mixture_sample

    rng = np.random.default_rng(31)
    n = 3000
    src = np.array(["a", "b", "c"])[rng.integers(0, 3, n)]
    sz = rng.integers(50, 150, n).astype(np.int64)
    tbl = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                    "source": pa.array(src), "n_chars": pa.array(sz)})
    w = {"a": 0.5, "b": 0.3, "c": 0.2}

    ds = ray.data.from_arrow(tbl).repartition(4)
    out = mixture_sample(ds, lambda s: w[s]).to_pandas()
    out2 = mixture_sample(ray.data.from_arrow(tbl).repartition(7),
                          lambda s: w[s]).to_pandas()
    # deterministic under repartitioning
    assert sorted(out["doc_id"]) == sorted(out2["doc_id"])

    # brute-force the same rate math
    avail = {g: float(sz[src == g].sum()) for g in w}
    ts = min(avail[g] / w[g] for g in w)
    rates = {g: (w[g] * ts) / avail[g] for g in w}
    k = np.arange(n, dtype=np.int64)
    u = ((k * 1103515245 + 12345) % 1000003) / 1000003.0
    keep = u < np.vectorize(rates.get)(src)
    assert sorted(out["doc_id"]) == list(np.flatnonzero(keep))
    # the binding source keeps (nearly) everything; realized mixture of
    # kept chars approximates the target within sampling noise
    binding = min(w, key=lambda g: avail[g] / w[g])
    kept_sz = {g: float(sz[keep & (src == g)].sum()) for g in w}
    assert kept_sz[binding] == avail[binding]
    tot = sum(kept_sz.values())
    for g in w:
        assert abs(kept_sz[g] / tot - w[g]) < 0.05


def test_group_mode_counts_and_ties(ray_session):
    from greenex_py_ray.stages.topk import group_mode

    # group 1: 'b' wins by count; group 2: tie between 'a' and 'c'
    # at 2 each → lexicographically smallest ('a') wins
    g = np.array([1, 1, 1, 2, 2, 2, 2], dtype=np.int64)
    v = ["b", "b", "a", "c", "a", "c", "a"]
    ds = ray.data.from_arrow(pa.table({"user_id": g, "event_type": v}))
    got = {r["user_id"]: (r["mode_value"], r["cnt"])
           for r in group_mode(ds, "user_id", "event_type").take_all()}
    assert got == {1: ("b", 2), 2: ("a", 2)}


def test_group_mode_matches_bruteforce(ray_session):
    import pandas as pd

    from greenex_py_ray.stages.topk import group_mode

    rng = np.random.default_rng(23)
    n = 600
    df = pd.DataFrame({
        "user_id": rng.integers(0, 25, n).astype(np.int64),
        "event_type": rng.choice(list("abcdef"), n),
    })
    # split across several blocks so partial counts really merge
    ds = ray.data.from_pandas(df).repartition(5)
    got = group_mode(ds, "user_id", "event_type").to_pandas()
    exp = (df.groupby(["user_id", "event_type"]).size()
           .rename("cnt").reset_index()
           .sort_values(["user_id", "cnt", "event_type"],
                        ascending=[True, False, True])
           .groupby("user_id").head(1))
    got = got.sort_values("user_id").reset_index(drop=True)
    exp = exp.sort_values("user_id").reset_index(drop=True)
    assert (got["user_id"].to_numpy() == exp["user_id"].to_numpy()).all()
    assert (got["mode_value"].to_numpy()
            == exp["event_type"].to_numpy()).all()
    assert (got["cnt"].to_numpy() == exp["cnt"].to_numpy()).all()


def test_group_winsorize_matches_bruteforce(ray_session):
    import pandas as pd

    from greenex_py_ray.stages.quantiles import group_winsorize

    rng = np.random.default_rng(41)
    n = 2000
    df = pd.DataFrame({
        "source": rng.choice(["web", "books", "code"], n),
        "n_chars": rng.integers(10, 500, n).astype(np.int64),
    })
    # heavy outliers in one group
    df.loc[df.index[:20], "n_chars"] = 100_000
    ds = ray.data.from_pandas(df).repartition(6)
    got = group_winsorize(ds, "source", "n_chars", 0.1, 0.9).to_pandas()
    got = got.set_index("source").sort_index()
    for g, sub in df.groupby("source"):
        v = np.sort(sub["n_chars"].to_numpy())
        nn = len(v)
        lo = v[max(int(np.ceil(0.1 * nn)), 1) - 1]
        hi = v[max(int(np.ceil(0.9 * nn)), 1) - 1]
        r = got.loc[g]
        assert r["n"] == nn
        assert r["lo"] == lo and r["hi"] == hi
        assert r["sum_winsor"] == np.clip(v, lo, hi).sum()
        assert r["n_lo"] == (v < lo).sum()
        assert r["n_hi"] == (v > hi).sum()
    # outliers actually got clipped
    assert (got["n_hi"] > 0).any()


def test_weighted_sample_bias(ray_session):
    import pandas as pd
    import ray.data as rd

    from greenex_py_ray.stages.sampling import weighted_sample

    # two strata: heavy weights should dominate the sample
    n = 4000
    df = pd.DataFrame({
        "k": np.arange(n, dtype=np.int64),
        "w": np.where(np.arange(n) < n // 2, 100.0, 1.0),
    })
    out = weighted_sample(rd.from_pandas(df).repartition(8),
                          "k", "w", k=200).to_pandas()
    assert len(out) == 200
    assert not out["k"].duplicated().any()
    heavy = (out["k"] < n // 2).mean()
    assert heavy > 0.85          # 100:1 odds -> heavies dominate
    # determinism: same input, different partitioning -> same set
    out2 = weighted_sample(rd.from_pandas(df).repartition(3),
                           "k", "w", k=200).to_pandas()
    assert set(out["k"]) == set(out2["k"])


def test_mmr_topk_diversifies():
    """MMR picks the most relevant first, then trades relevance for
    diversity: with two tight clusters near the query, λ=0.5 alternates
    clusters instead of exhausting the nearer one."""
    import ray
    import ray.data

    from greenex_py_ray.stages.similarity import mmr_topk

    rng = np.random.default_rng(5)
    dim = 8
    q = np.zeros(dim); q[0] = 1.0
    # cluster A: very close to q; cluster B: a bit further, orthogonal-ish
    a = np.tile(q, (4, 1)) + rng.normal(0, 0.01, (4, dim))
    bdir = np.zeros(dim); bdir[0] = 0.8; bdir[1] = 0.6
    b = np.tile(bdir, (4, 1)) + rng.normal(0, 0.01, (4, dim))
    V = np.vstack([a, b]).astype(np.float32)
    tbl = pa.table({"vec_id": pa.array(np.arange(8, dtype=np.int64)),
                    "embedding": pa.array(list(V), pa.list_(pa.float32()))})
    ds = ray.data.from_arrow(tbl).repartition(2)
    out = mmr_topk(ds, q, k=4, dim=dim, m=8, lam_tenths=5).to_pandas()
    assert out["rank"].tolist() == [0, 1, 2, 3]
    picks = out.vec_id.tolist()
    # rank 0 = most relevant (an A member); rank 1 must jump to B
    assert picks[0] < 4 and picks[1] >= 4
    # relevance-only top-4 would be all of cluster A
    assert any(p >= 4 for p in picks[2:]) or picks[1] >= 4
    # pure relevance check: lam=10 reduces to brute-force order
    rel = mmr_topk(ray.data.from_arrow(tbl), q, k=4, dim=dim, m=8,
                   lam_tenths=10).to_pandas()
    cos = (V @ q) / (np.linalg.norm(V, axis=1) * np.linalg.norm(q))
    relq = np.round(cos * 1e6).astype(np.int64)
    exp = np.lexsort((np.arange(8), -relq))[:4]
    assert rel.vec_id.tolist() == exp.tolist()
