"""Sequence packing (distributed prefix sum), unigram LM scoring,
KDE heatmap grid and NFC normalization — brute-force oracles."""

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data


def test_sequence_pack_matches_window_cumsum(ray_session):
    from greenex_py_ray.stages.packing import sequence_pack

    rng = np.random.default_rng(3)
    n = 1000
    tok = rng.integers(0, 40, n).astype(np.int64)
    tok[17] = 0  # empty doc: NULL sequence range
    tbl = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                    "n_tokens": pa.array(tok)})
    L = 64
    # small bucket_span + many blocks so both passes genuinely shuffle
    ds = ray.data.from_arrow(tbl).repartition(16)
    out = (sequence_pack(ds, L, bucket_span=32).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))

    off = np.concatenate(([0], np.cumsum(tok)[:-1]))
    assert (out["offset"].to_numpy() == off).all()
    nz = tok > 0
    assert (out.loc[nz, "start_seq"].to_numpy(dtype=np.int64)
            == off[nz] // L).all()
    assert (out.loc[nz, "end_seq"].to_numpy(dtype=np.int64)
            == (off[nz] + tok[nz] - 1) // L).all()
    assert out.loc[~nz, "start_seq"].isna().all()
    assert out.loc[~nz, "end_seq"].isna().all()


def test_sequence_pack_sparse_keys(ray_session):
    from greenex_py_ray.stages.packing import sequence_pack

    # non-dense keys: holes in the id space must not shift offsets
    keys = np.array([3, 10, 11, 500, 501, 777], dtype=np.int64)
    tok = np.array([5, 7, 1, 100, 3, 2], dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(keys), "n_tokens": pa.array(tok)})).repartition(3)
    out = (sequence_pack(ds, 16, bucket_span=8).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    off = np.concatenate(([0], np.cumsum(tok)[:-1]))
    assert (out["offset"].to_numpy() == off).all()


def test_chunk_plan_layout(ray_session):
    from greenex_py_ray.stages.packing import chunk_plan

    # n: 0 → no rows; 1..W → 1 chunk; W+1 → 2; boundary W+S → 2;
    # W+S+1 → 3
    W, S = 8, 6
    n = np.array([0, 1, 8, 9, 14, 15, 30], dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(len(n), dtype=np.int64)),
        "n_tokens": pa.array(n)})).repartition(2)
    out = (chunk_plan(ds, W, S).to_pandas()
           .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True))
    got = out.groupby("doc_id")["chunk_id"].count().to_dict()
    assert got == {1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 5}
    # every token covered, chunk i spans [i*S, i*S + n_tok)
    for doc, g in out.groupby("doc_id"):
        starts = g["start_tok"].to_numpy()
        lens = g["n_tok"].to_numpy()
        assert (starts == np.arange(len(g)) * S).all()
        assert (lens >= 1).all() and (lens <= W).all()
        assert starts[-1] + lens[-1] == n[doc]
    import pytest
    with pytest.raises(ValueError):
        chunk_plan(ds, 8, 9)


def test_unigram_logprob_matches_bruteforce(ray_session):
    from greenex_py_ray.stages.lm import LOGP_Q, unigram_logprob

    docs = pd.DataFrame({
        "doc_id": np.arange(5, dtype=np.int64),
        "text": ["the cat sat", "the the the", "dog", "", "cat dog the"],
    })
    out = (unigram_logprob(ray.data.from_pandas(docs).repartition(2))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # corpus counts: the=5, cat=2, sat=1, dog=2 -> T=10
    T = 10.0
    q = {w: round(np.log(c / T) * LOGP_Q)
         for w, c in {"the": 5, "cat": 2, "sat": 1, "dog": 2}.items()}
    exp = [q["the"] + q["cat"] + q["sat"], 3 * q["the"], q["dog"], 0,
           q["cat"] + q["dog"] + q["the"]]
    assert list(out["n_words"]) == [3, 3, 1, 0, 3]
    assert list(out["sum_logp_q"]) == exp


def test_unigram_max_vocab_oov(ray_session):
    from greenex_py_ray.stages.lm import fit_unigram

    docs = pd.DataFrame({
        "doc_id": np.arange(3, dtype=np.int64),
        "text": ["a a a a", "b b", "c"],
    })
    vocab, w_q, oov_q = fit_unigram(
        ray.data.from_pandas(docs), max_vocab=2)
    assert list(vocab) == ["a", "b"]  # top-2 by count
    assert oov_q == round(np.log(0.5 / 7.0) * 1e6)


def test_kde_grid_matches_bruteforce(ray_session):
    from greenex_py_ray.stages.geostats import KDE_Q, kde_grid

    rng = np.random.default_rng(9)
    n = 400
    x = rng.uniform(0, 2000, n)
    y = rng.uniform(0, 2000, n)
    cs, sigma, r, g = 250.0, 200.0, 500.0, 8
    ds = ray.data.from_arrow(pa.table({
        "x": pa.array(x), "y": pa.array(y)})).repartition(4)
    out = kde_grid(ds, cs, sigma, r, g, g).to_pandas()
    got = {(int(a), int(b)): (int(c), int(d)) for a, b, c, d in
           zip(out["ix"], out["iy"], out["n_contrib"], out["density_q"])}

    exp = {}
    for i in range(g):
        for j in range(g):
            cx, cy = i * cs + cs / 2.0, j * cs + cs / 2.0
            d2 = (cx - x) ** 2 + (cy - y) ** 2
            m = d2 <= r * r
            if m.any():
                q = np.round(np.exp(-d2[m] / (2.0 * sigma * sigma))
                             * KDE_Q).astype(np.int64)
                exp[(i, j)] = (int(m.sum()), int(q.sum()))
    assert got == exp


def test_normalize_batch_nfc_and_whitespace():
    from greenex_py_ray.stages.scrub import normalize_batch

    # explicit decomposed forms so NFC composition is exercised
    t = pa.table({"text": pa.array(
        ["cafe\u0301  latte", "  a\u0300b ", "plain", None])})
    out = normalize_batch(t).to_pydict()
    assert out["norm_text"] == ["caf\u00e9 latte", "\u00e0b", "plain", ""]
    assert out["changed"] == [True, True, False, False]


def test_group_centroids_matches_bruteforce(ray_session):
    from greenex_py_ray.stages.similarity import CENTROID_Q, group_centroids

    rng = np.random.default_rng(21)
    n, dim = 200, 8
    V = rng.normal(size=(n, dim)).astype(np.float32)
    lab = rng.integers(0, 5, n).astype(np.int32)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "label": pa.array(lab),
        "embedding": pa.array(list(V), pa.list_(pa.float32())),
    })
    out = (group_centroids(ray.data.from_arrow(tbl).repartition(4), dim)
           .to_pandas().sort_values(["grp", "dim"]).reset_index(drop=True))
    q = np.round(V.astype(np.float64) * CENTROID_Q).astype(np.int64)
    for g in range(5):
        m = lab == g
        sub = out[out["grp"] == g]
        assert (sub["n"].to_numpy() == m.sum()).all()
        assert (sub["sum_q"].to_numpy() == q[m].sum(axis=0)).all()
        exp_mean = np.round((q[m].sum(axis=0) / CENTROID_Q) / m.sum(), 6)
        assert np.allclose(sub["mean"].to_numpy(), exp_mean)


def test_trajectory_stats_matches_bruteforce(ray_session):
    from greenex_py_ray.stages.trajectory import TRAJ_Q, trajectory_stats

    rng = np.random.default_rng(31)
    n = 600
    uid = rng.integers(0, 12, n).astype(np.int64)
    ts = rng.integers(0, 10**9, n).astype(np.int64)
    eid = np.arange(n, dtype=np.int64)
    x = rng.uniform(0, 1000, n)
    y = rng.uniform(0, 1000, n)
    tbl = pa.table({"user_id": pa.array(uid), "ts": pa.array(ts),
                    "event_id": pa.array(eid),
                    "x": pa.array(x), "y": pa.array(y)})
    out = (trajectory_stats(ray.data.from_arrow(tbl).repartition(5))
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    for u in np.unique(uid):
        m = uid == u
        order = np.lexsort((eid[m], ts[m]))
        xs, ys = x[m][order], y[m][order]
        steps = np.round(np.sqrt(np.diff(xs) ** 2 + np.diff(ys) ** 2)
                         * TRAJ_Q).astype(np.int64)
        row = out[out["user_id"] == u].iloc[0]
        assert row["n_pings"] == m.sum()
        assert row["path_q"] == steps.sum()
        assert row["disp_q"] == round(
            np.sqrt((xs[-1] - xs[0]) ** 2 + (ys[-1] - ys[0]) ** 2) * TRAJ_Q)


def test_percent_rank_matches_definition(ray_session):
    from greenex_py_ray.stages.quantiles import percent_rank

    vals = np.array([5, 1, 5, 2, 9, 1, 1, 7], dtype=np.int64)
    tbl = pa.table({"k": pa.array(np.arange(8, dtype=np.int64)),
                    "n": pa.array(vals)})
    out = (percent_rank(ray.data.from_arrow(tbl).repartition(3), "n")
           .to_pandas().sort_values("k").reset_index(drop=True))
    below = np.array([(vals < v).sum() for v in vals])
    exp = below * 1_000_000 // 7
    assert (out["pct_rank_q6"].to_numpy() == exp).all()
    assert np.allclose(out["pct_rank"].to_numpy(),
                       np.round(below / 7.0, 6))
