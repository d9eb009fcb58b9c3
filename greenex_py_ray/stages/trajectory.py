"""Trajectory aggregation: per-entity path length and displacement.

The GPS-track rollup the reference's per-PoI network walks imply but
never ship standalone: given a stream of (entity, timestamp, x, y)
pings, compute each entity's total path length (sum of consecutive-ping
great-/plane-distances), net displacement (first→last ping) and ping
count.

Scale shape (same as ``stages/asof.sessionize``): entities are
HASH-BUCKETED (one ``bucket_exchange``) so the shuffle has ``num_buckets``
groups; inside a bucket the multi-entity kernel is one lexsort +
vectorized diff/reduceat pass — no per-entity pandas calls.

Cross-engine determinism: each step length quantizes to int64
micro-units (``round(sqrt(d2) * 1e6)``) BEFORE the per-entity sum, so
the unordered SQL SUM matches numpy's sequential sum exactly (sqrt is
correctly rounded in both engines; d2 uses the same multiply/add
order).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.exchange import bucket_exchange

#: step-length quantization (micro-units)
TRAJ_Q = 1e6


def trajectory_stats(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """One row per entity: ``n_pings``, ``path_q`` (int64 micro-unit
    total path length), ``disp_q`` (micro-unit first→last
    displacement).  Ordering is (ts, event_id) within entity."""

    def project(b: pa.Table) -> pa.Table:
        ts = b.column("ts")
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        return pa.table({
            "user_id": b.column("user_id"),
            "ts_us": ts,
            "event_id": b.column("event_id"),
            "x": b.column("x"),
            "y": b.column("y"),
        })

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy(np.int64)
        t = g["ts_us"].to_numpy(np.int64)
        e = g["event_id"].to_numpy(np.int64)
        x = g["x"].to_numpy(np.float64)
        y = g["y"].to_numpy(np.float64)
        order = np.lexsort((e, t, u))
        u, t, x, y = u[order], t[order], x[order], y[order]
        same = np.zeros(len(u), dtype=bool)
        if len(u) > 1:
            same[1:] = u[1:] == u[:-1]
        dx = np.empty(len(u))
        dy = np.empty(len(u))
        dx[0] = dy[0] = 0.0
        if len(u) > 1:
            dx[1:] = x[1:] - x[:-1]
            dy[1:] = y[1:] - y[:-1]
        step_q = np.where(
            same, np.round(np.sqrt(dx * dx + dy * dy) * TRAJ_Q), 0.0
        ).astype(np.int64)
        starts = np.flatnonzero(~same)
        ends = np.concatenate((starts[1:], [len(u)])) - 1
        n = (ends - starts + 1).astype(np.int64)
        path_q = np.add.reduceat(step_q, starts)
        ddx = x[ends] - x[starts]
        ddy = y[ends] - y[starts]
        disp_q = np.round(np.sqrt(ddx * ddx + ddy * ddy)
                          * TRAJ_Q).astype(np.int64)
        return pd.DataFrame({
            "user_id": u[starts],
            "n_pings": n,
            "path_q": path_q,
            "disp_q": disp_q,
        })

    return bucket_exchange(
        ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        "user_id", kernel, 64, "pandas")
