"""Viterbi map matching: vectorized bucket DP vs a per-user
reference DP, plus the distributed shuffle path."""

import numpy as np
import pyarrow as pa

import ray
import ray.data


def _world(seed, n_users=12, n_pings=7, n_seg=9):
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(n_users):
        np_u = n_pings if u % 3 else 3  # every 3rd user too short
        for i in range(np_u):
            rows.append((u + 100, 1_000_000 * (i + 1) + u,
                         u * 1000 + i,
                         rng.uniform(0, 5000), rng.uniform(0, 5000)))
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts_us": pa.array([r[1] for r in rows], pa.int64()),
        "event_id": pa.array([r[2] for r in rows], pa.int64()),
        "x": pa.array([r[3] for r in rows]),
        "y": pa.array([r[4] for r in rows]),
    })
    seg = pa.table({
        "edge_key": pa.array(rng.permutation(n_seg).astype(np.int64)),
        "ax": pa.array(rng.uniform(0, 5000, n_seg)),
        "ay": pa.array(rng.uniform(0, 5000, n_seg)),
        "bx": pa.array(rng.uniform(0, 5000, n_seg)),
        "by": pa.array(rng.uniform(0, 5000, n_seg)),
    })
    return t, seg


def _reference_dp(t, seg, S, K):
    """Slow per-user DP, scalar loops — the semantics oracle."""
    ek = seg.column("edge_key").to_numpy().astype(np.int64)
    order = np.argsort(ek)
    ek = ek[order]
    ax = seg.column("ax").to_numpy()[order]
    ay = seg.column("ay").to_numpy()[order]
    bx = seg.column("bx").to_numpy()[order]
    by = seg.column("by").to_numpy()[order]
    dxv, dyv = bx - ax, by - ay
    len2 = dxv * dxv + dyv * dyv

    rows = sorted(zip(t.column("user_id").to_pylist(),
                      t.column("ts_us").to_pylist(),
                      t.column("event_id").to_pylist(),
                      t.column("x").to_pylist(),
                      t.column("y").to_pylist()))
    byuser = {}
    for u, ts, e, x, y in rows:
        byuser.setdefault(u, []).append((x, y))
    out = {}
    for u, pts in byuser.items():
        if len(pts) < S:
            continue
        pts = pts[:S]
        cands = []
        for x, y in pts:
            d2s = []
            for j in range(len(ek)):
                if len2[j] == 0.0:
                    tt = 0.0
                else:
                    tt = ((x - ax[j]) * dxv[j] + (y - ay[j]) * dyv[j]) / len2[j]
                tc = min(max(tt, 0.0), 1.0) + 0.0
                sx = ax[j] + tc * dxv[j]
                sy = ay[j] + tc * dyv[j]
                d2 = (x - sx) * (x - sx) + (y - sy) * (y - sy)
                d2s.append((d2, ek[j], sx, sy))
            d2s.sort(key=lambda r: (r[0], r[1]))
            cands.append(d2s[:min(K, len(ek))])
        cost = {c[1]: int(np.floor(c[0] + 0.5)) for c in cands[0]}
        for c in cands[0]:
            out[(u, 1, c[1])] = cost[c[1]]
        for step in range(1, S):
            x0, y0 = pts[step - 1]
            x1, y1 = pts[step]
            gc = np.sqrt((x1 - x0) ** 2 + (y1 - y0) ** 2)
            ncost = {}
            for d2, e, sx, sy in cands[step]:
                best = None
                for pd2, pe, psx, psy in cands[step - 1]:
                    dd = np.sqrt((sx - psx) ** 2 + (sy - psy) ** 2)
                    tr = int(np.floor(abs(dd - gc) + 0.5))
                    v = cost[pe] + tr
                    best = v if best is None else min(best, v)
                ncost[e] = int(np.floor(d2 + 0.5)) + best
                out[(u, step + 1, e)] = ncost[e]
            cost = ncost
    return out


def test_viterbi_bucket_matches_reference():
    from greenex_py_ray.stages.mapmatch import _viterbi_bucket

    t, seg = _world(3)
    S, K = 5, 4
    ek = seg.column("edge_key").to_numpy().astype(np.int64)
    order = np.argsort(ek)
    segd = {k: seg.column(c).to_numpy()[order]
            for k, c in (("ek", "edge_key"), ("ax", "ax"), ("ay", "ay"),
                         ("bx", "bx"), ("by", "by"))}
    segd["ek"] = segd["ek"].astype(np.int64)
    got = _viterbi_bucket(t, segd, S, K)
    exp = _reference_dp(t, seg, S, K)
    gmap = {(u, s, e): c for u, s, e, c in zip(
        got.column("user_id").to_pylist(), got.column("step").to_pylist(),
        got.column("edge_key").to_pylist(), got.column("cost_q").to_pylist())}
    assert gmap == exp


def test_viterbi_match_distributed(ray_session):
    from greenex_py_ray.stages.mapmatch import _viterbi_bucket, viterbi_match

    t, seg = _world(9, n_users=40)
    S, K = 5, 4
    ds = ray.data.from_arrow(t).repartition(4)
    got = (viterbi_match(ds, seg, n_steps=S, k_cand=K)
           .to_pandas()
           .sort_values(["user_id", "step", "edge_key"])
           .reset_index(drop=True))
    ek = seg.column("edge_key").to_numpy().astype(np.int64)
    order = np.argsort(ek)
    segd = {k: seg.column(c).to_numpy()[order]
            for k, c in (("ek", "edge_key"), ("ax", "ax"), ("ay", "ay"),
                         ("bx", "bx"), ("by", "by"))}
    segd["ek"] = segd["ek"].astype(np.int64)
    exp = (_viterbi_bucket(t, segd, S, K).to_pandas()
           .sort_values(["user_id", "step", "edge_key"])
           .reset_index(drop=True))
    assert got.equals(exp)
