"""Map matching: snap points to the nearest road segment.

The reference snaps streetview sample points to OSM road centrelines
before fetching imagery (GreenExp/visibility.py — sample points are
generated *on* the network and images matched within 100 m); the
general form of that operation is point→nearest-segment projection, the
workhorse of GPS map matching.

Scale shape: the segment table is the small side (a road network is
10^6–10^8 edges vs 10^12 points), shipped once to the object store;
each worker process's cached kernel builds a uniform-grid segment
index in ``__init__`` (cell size =
snap radius, each segment registered in every cell its R-expanded bbox
overlaps) so per-batch work is one vectorized projection per (point,
candidate) pair gathered cell-by-cell — no all-to-all shuffle.  For a
network too big to broadcast, the same kernel drops into
``cell_pip_join``'s groupby-cell shuffle with segments replicated to
covered cells (documented partitioning assumption; not needed at any
tested scale).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.exchange import bucket_exchange
from ..functions.joins import KernelStage
from ..sidefiles import shipped, side_table


class SegmentSnapper:
    """Kernel: nearest-segment snap within ``radius``.

    Input batch: ``key_col`` + point columns ``x``/``y``.
    Output: input keys + ``edge_key`` (int64), ``snap_t`` (clamped
    projection parameter), ``snap_dist`` — one row per point that has a
    segment within the radius (points with no candidate are dropped,
    like the reference's 100 m image-match cutoff).

    Ties on distance break toward the smallest ``edge_key`` so results
    are deterministic and SQL-reproducible.
    """

    def __init__(self, edges_ref, radius: float, key_col: str = "doc_id"):
        t = side_table(edges_ref)
        ek = t.column("edge_key").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ek, kind="stable")  # argmin tie → lowest key
        self.ek = ek[order]
        self.ax = t.column("ax").to_numpy(zero_copy_only=False)[order]
        self.ay = t.column("ay").to_numpy(zero_copy_only=False)[order]
        self.bx = t.column("bx").to_numpy(zero_copy_only=False)[order]
        self.by = t.column("by").to_numpy(zero_copy_only=False)[order]
        self.radius = float(radius)
        self.key_col = key_col

        # uniform grid over segment bboxes expanded by R: any segment
        # within R of a point covers the point's cell.
        cs = self.radius
        x0 = np.minimum(self.ax, self.bx) - cs
        x1 = np.maximum(self.ax, self.bx) + cs
        y0 = np.minimum(self.ay, self.by) - cs
        y1 = np.maximum(self.ay, self.by) + cs
        gx0 = np.floor(x0 / cs).astype(np.int64)
        gx1 = np.floor(x1 / cs).astype(np.int64)
        gy0 = np.floor(y0 / cs).astype(np.int64)
        gy1 = np.floor(y1 / cs).astype(np.int64)
        # CSR cell → segment indices (vectorized expansion)
        spans = (gx1 - gx0 + 1) * (gy1 - gy0 + 1)
        seg_idx = np.repeat(np.arange(len(ek)), spans)
        # per-repeat local offset → (dx, dy) within the bbox cell range
        tot = int(spans.sum())
        local = np.arange(tot) - np.repeat(np.cumsum(spans) - spans, spans)
        w = np.repeat(gy1 - gy0 + 1, spans)
        cx = np.repeat(gx0, spans) + local // w
        cy = np.repeat(gy0, spans) + local % w
        key = cx << np.int64(32) | (cy & np.int64(0xFFFFFFFF))
        srt = np.argsort(key, kind="stable")
        self.cell_keys, starts = np.unique(key[srt], return_index=True)
        self.cell_offsets = np.append(starts, tot)
        self.cell_segs = seg_idx[srt]

    def __call__(self, batch: pa.Table) -> pa.Table:
        px = batch.column("x").to_numpy(zero_copy_only=False)
        py = batch.column("y").to_numpy(zero_copy_only=False)
        n = len(px)
        cs = self.radius
        pcell = (np.floor(px / cs).astype(np.int64) << np.int64(32)
                 | (np.floor(py / cs).astype(np.int64) & np.int64(0xFFFFFFFF)))

        best_d2 = np.full(n, np.inf)
        best_i = np.full(n, -1, dtype=np.int64)
        best_t = np.zeros(n)
        # group batch points by grid cell; one vectorized
        # (pts-in-cell × candidate-segs) projection per occupied cell
        for ck in np.unique(pcell):
            loc = np.searchsorted(self.cell_keys, ck)
            if loc >= len(self.cell_keys) or self.cell_keys[loc] != ck:
                continue
            cand = self.cell_segs[self.cell_offsets[loc]:self.cell_offsets[loc + 1]]
            m = pcell == ck
            qx = px[m][:, None]
            qy = py[m][:, None]
            ax, ay = self.ax[cand][None, :], self.ay[cand][None, :]
            dx = self.bx[cand][None, :] - ax
            dy = self.by[cand][None, :] - ay
            len2 = dx * dx + dy * dy
            dot = (qx - ax) * dx + (qy - ay) * dy
            t = np.divide(dot, len2, out=np.zeros_like(dot), where=len2 != 0.0)
            # +0.0 canonicalizes -0.0 → +0.0 so snap_t is bit-identical
            # to the SQL oracle (DuckDB greatest(-0.0, 0.0) keeps -0.0,
            # np.maximum returns +0.0; both sides add +0.0).
            tc = np.minimum(np.maximum(t, 0.0), 1.0) + 0.0
            ex = qx - (ax + tc * dx)
            ey = qy - (ay + tc * dy)
            d2 = ex * ex + ey * ey
            j = np.argmin(d2, axis=1)  # first min → lowest edge_key (sorted)
            rows = np.arange(d2.shape[0])
            best_d2[m] = d2[rows, j]
            best_i[m] = cand[j]
            best_t[m] = tc[rows, j]

        keep = best_d2 <= self.radius * self.radius
        ki = best_i[keep]
        return pa.table({
            self.key_col: batch.column(self.key_col).filter(pa.array(keep)),
            "edge_key": pa.array(self.ek[ki]),
            "snap_t": pa.array(best_t[keep]),
            "snap_dist": pa.array(np.sqrt(best_d2[keep])),
        })


def snap_to_segments(points: "ray.data.Dataset", edges: pa.Table,
                     radius: float,
                     key_col: str = "doc_id") -> "ray.data.Dataset":
    """Broadcast-index snap: ``edges`` (edge_key, ax, ay, bx, by) ships
    to the object store once; each worker process builds the grid index
    once, in its kernel's ctor."""
    return KernelStage(
        SegmentSnapper,
        dict(edges_ref=shipped(edges), radius=radius, key_col=key_col),
        dict(num_cpus=0.5)).on(points)


# ---------------------------------------------------------------------------
# HMM map matching (Viterbi)
# ---------------------------------------------------------------------------

def viterbi_match(pings: "ray.data.Dataset", segments: pa.Table,
                  n_steps: int = 5, k_cand: int = 4,
                  num_buckets: int = 32) -> "ray.data.Dataset":
    """HMM map matching — the sequence form of :class:`SegmentSnapper`
    (Newson & Krumm 2009, simplified: no routing, transition cost =
    |snap-to-snap euclidean − ping step length|).  The reference snaps
    each sample point independently (visibility.py:706-717); Viterbi
    instead picks the JOINTLY most likely segment sequence per
    trajectory, the standard GPS-trace cleanup for accessibility runs.

    Physical plan: ``segments`` is the broadcast small side; pings
    hash-bucket by user (ONE shuffle), and each bucket runs a fully
    vectorized DP over ``(users × K × K)`` tensors — S−1 numpy steps
    per bucket, no per-user Python.  All costs are int64 (emission =
    ``floor(d² + 0.5)``, transition = ``floor(|dd − gc| + 0.5)``), so
    min/sum are order-exact and the DuckDB oracle (the same DP unrolled
    as MATERIALIZED CTEs) matches bit-for-bit.

    Input ``pings``: (user_id int64, ts_us int64, event_id int64,
    x, y).  Users with fewer than ``n_steps`` pings are dropped; each
    kept user contributes its first ``n_steps`` pings by (ts_us,
    event_id).  Output: the full DP table — one row per (user, step,
    candidate): ``user_id, step, edge_key, cost_q``.

    Scale notes: candidate selection here is a dense argsort against
    the broadcast segment table (the K-nearest form); above ~10^4
    segments swap in the ``SegmentSnapper`` grid gather with ring
    expansion to the K-th distance bound (same pattern, documented
    assumption — road networks are the small side at any city scale).
    """
    ek = segments.column("edge_key").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ek, kind="stable")
    seg = {
        "ek": ek[order],
        "ax": segments.column("ax").to_numpy(zero_copy_only=False)[order],
        "ay": segments.column("ay").to_numpy(zero_copy_only=False)[order],
        "bx": segments.column("bx").to_numpy(zero_copy_only=False)[order],
        "by": segments.column("by").to_numpy(zero_copy_only=False)[order],
    }
    S, K = int(n_steps), int(k_cand)

    def run_bucket(t: pa.Table) -> pa.Table:
        return _viterbi_bucket(t, seg, S, K)

    return bucket_exchange(pings, "user_id", run_bucket, num_buckets)


def _viterbi_bucket(t: pa.Table, seg: dict, S: int, K: int) -> pa.Table:
    empty = pa.table({"user_id": pa.array([], pa.int64()),
                      "step": pa.array([], pa.int64()),
                      "edge_key": pa.array([], pa.int64()),
                      "cost_q": pa.array([], pa.int64())})
    u = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
    ts = t.column("ts_us").to_numpy(zero_copy_only=False).astype(np.int64)
    eid = t.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
    x = t.column("x").to_numpy(zero_copy_only=False)
    y = t.column("y").to_numpy(zero_copy_only=False)
    if not len(u):
        return empty
    o = np.lexsort((eid, ts, u))
    u, ts, eid, x, y = u[o], ts[o], eid[o], x[o], y[o]
    uu, starts, cnt = np.unique(u, return_index=True, return_counts=True)
    keep = cnt >= S
    if not keep.any():
        return empty
    uu, starts = uu[keep], starts[keep]
    nu = len(uu)
    # (nu, S) ping grids: first S pings of each kept user
    idx = starts[:, None] + np.arange(S)[None, :]
    X, Y = x[idx], y[idx]

    # candidate projection — the SegmentSnapper / snap_to_road oracle
    # expression tree, replayed verbatim
    ax, ay = seg["ax"], seg["ay"]
    dxv, dyv = seg["bx"] - ax, seg["by"] - ay
    len2 = dxv * dxv + dyv * dyv
    px = X.reshape(-1, 1)
    py = Y.reshape(-1, 1)
    dot = (px - ax[None, :]) * dxv[None, :] + (py - ay[None, :]) * dyv[None, :]
    tt = np.divide(dot, len2[None, :], out=np.zeros_like(dot),
                   where=len2[None, :] != 0.0)
    tc = np.minimum(np.maximum(tt, 0.0), 1.0) + 0.0
    sx = ax[None, :] + tc * dxv[None, :]
    sy = ay[None, :] + tc * dyv[None, :]
    d2 = (px - sx) ** 2 + (py - sy) ** 2
    # K nearest by (d2, ek): seg arrays are ek-ascending, stable sort
    # keeps that order among exact d2 ties
    Keff = min(K, len(ax))
    top = np.argsort(d2, axis=1, kind="stable")[:, :Keff]
    rows = np.arange(d2.shape[0])[:, None]
    c_ek = seg["ek"][top].reshape(nu, S, Keff)
    c_sx = sx[rows, top].reshape(nu, S, Keff)
    c_sy = sy[rows, top].reshape(nu, S, Keff)
    c_eq = np.floor(d2[rows, top] + 0.5).astype(np.int64).reshape(nu, S, Keff)

    gc = np.sqrt(np.diff(X, axis=1) ** 2 + np.diff(Y, axis=1) ** 2)  # (nu, S-1)

    out_u, out_s, out_e, out_c = [], [], [], []
    cost = c_eq[:, 0, :]  # (nu, Keff)
    out_u.append(np.repeat(uu, Keff))
    out_s.append(np.full(nu * Keff, 1, np.int64))
    out_e.append(c_ek[:, 0, :].ravel())
    out_c.append(cost.ravel())
    for step in range(1, S):
        dd = np.sqrt(
            (c_sx[:, step, None, :] - c_sx[:, step - 1, :, None]) ** 2
            + (c_sy[:, step, None, :] - c_sy[:, step - 1, :, None]) ** 2
        )  # (nu, K_prev, K_cur)
        tr = np.floor(np.abs(dd - gc[:, step - 1][:, None, None])
                      + 0.5).astype(np.int64)
        cost = c_eq[:, step, :] + (cost[:, :, None] + tr).min(axis=1)
        out_u.append(np.repeat(uu, Keff))
        out_s.append(np.full(nu * Keff, step + 1, np.int64))
        out_e.append(c_ek[:, step, :].ravel())
        out_c.append(cost.ravel())
    return pa.table({
        "user_id": pa.array(np.concatenate(out_u)),
        "step": pa.array(np.concatenate(out_s)),
        "edge_key": pa.array(np.concatenate(out_e)),
        "cost_q": pa.array(np.concatenate(out_c)),
    })
