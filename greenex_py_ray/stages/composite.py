"""Multi-date raster max composite (EO cloud-free mosaic).

The classic Earth-observation reduction the reference defers to
Planetary Computer's pre-composited assets (`availability.py:150-190`
picks ONE lowest-cloud STAC item; a real pipeline composites the whole
season): K co-registered observations of each tile are reduced
per-pixel (max for NDVI greenest-pixel, configurable), then summarized
per tile.

Scale shape: tiles arrive as rows `(tx, ty, date, vals list<double>)`
— the natural shard of a 100 TB raster stack.  The shuffle key is the
tile id, so each group holds exactly ``n_dates`` co-registered arrays;
grouping runs over HASH BUCKETS (one vectorized reshape-reduce per
bucket, not one pandas call per tile).  Output statistics are exact:
per-pixel composite values quantize to int64 ``q_scale`` units before
summation, so the tile mean is ONE closed-form double the SQL oracle
replays.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ..functions.exchange import bucket_exchange


def max_composite_stats(tiles: "ray.data.Dataset", n_dates: int,
                        q_scale: float = 1e6,
                        num_buckets: int = 32) -> "ray.data.Dataset":
    """Per-tile stats of the per-pixel MAX across dates.

    Input rows: ``(tx, ty, date, vals)`` with every tile present for
    every date and equal-length ``vals``.  Returns ``(tx, ty, n_px,
    sum_q, mean_v)`` with ``sum_q = Σ round(max_d v · q_scale)`` exact
    int64 and ``mean_v = sum_q / n_px / q_scale``.
    """

    def reduce_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["tx", "ty", "date"], kind="stable")
        npx = len(df["vals"].iloc[0])
        flat = np.concatenate(df["vals"].to_numpy()).reshape(
            len(df) // n_dates, n_dates, npx)
        comp = flat.max(axis=1)
        vq = np.round(comp * q_scale, 0).astype(np.int64)
        sum_q = vq.sum(axis=1)
        tx = df["tx"].to_numpy()[::n_dates]
        ty = df["ty"].to_numpy()[::n_dates]
        return pd.DataFrame({
            "tx": tx, "ty": ty,
            "n_px": np.full(len(tx), npx, dtype=np.int64),
            "sum_q": sum_q,
            "mean_v": sum_q.astype(np.float64) / npx / q_scale,
        })

    return bucket_exchange(tiles, ["tx", "ty"], reduce_bucket, num_buckets,
                           "pandas")


def chi_square_drift(ds: "ray.data.Dataset", group_col: str,
                     cat_col: str) -> "ray.data.Dataset":
    """Per-group chi-square drift of a categorical distribution vs the
    corpus-wide marginal — the per-source data-quality alarm (did one
    source's language mix shift?).

    One shuffle: per-batch (group, category, n) partials reduce to the
    contingency table (O(groups × categories) rows); marginals and the
    χ² = Σ (o − e)²/e closed form run on that tiny table driver-side
    (expected counts e = row·col/N as exact integer products over
    doubles, terms summed in category order so the float result is
    reproducible).
    """
    import pandas as pd

    from ray.data.aggregate import Sum as _Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([group_col, cat_col]).to_pandas()
        g = df.groupby([group_col, cat_col], sort=False).size()
        g = g.reset_index(name="n")
        g["n"] = g["n"].astype(np.int64)
        # no pandas metadata: the groupby's block unify cannot hash it
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata()

    cont = (ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby([group_col, cat_col])
            .aggregate(_Sum("n", alias_name="n"))).to_pandas()

    piv = cont.pivot_table(index=group_col, columns=cat_col, values="n",
                           fill_value=0, aggfunc="sum").sort_index()
    piv = piv[sorted(piv.columns)]
    O = piv.to_numpy(dtype=np.float64)
    rt = O.sum(axis=1, keepdims=True)
    ct = O.sum(axis=0, keepdims=True)
    N = O.sum()
    E = rt * ct / N
    chi2 = np.where(E > 0, (O - E) ** 2 / E, 0.0).sum(axis=1)
    out = pd.DataFrame({group_col: piv.index.to_numpy(),
                        "n_docs": rt.ravel().astype(np.int64),
                        "chi2": np.round(chi2, 6)})
    return pa.Table.from_pandas(out, preserve_index=False)
