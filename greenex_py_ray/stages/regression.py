"""Per-group ordinary-least-squares trend fitting.

The classic "metric drift per segment" analytics op (value trend per
event type / per tile / per source), shaped for exact distributed
reproducibility: every sufficient statistic (n, Σx, Σy, Σxy, Σx²) is an
INTEGER sum — y is quantized to ``y_scale`` units first — so partial
aggregation inside ``map_batches`` followed by one tiny groupby-sum is
bit-exact regardless of partitioning or reduction order.  The float
slope/intercept are single closed-form double expressions over those
exact integers, replayed token-for-token by the SQL oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Sum


def _partials(batch: pa.Table, group_col: str, x_col: str, y_col: str,
              y_scale: float) -> pa.Table:
    g = batch.column(group_col)
    x = batch.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
    y = batch.column(y_col).to_numpy(zero_copy_only=False)
    yq = np.round(y * y_scale, 0).astype(np.int64)
    codes, uniq = batch.column(group_col).to_pandas().factorize()
    k = len(uniq)
    return pa.table({
        group_col: pa.array(uniq),
        "n": pa.array(np.bincount(codes, minlength=k).astype(np.int64)),
        "sx": pa.array(np.bincount(codes, weights=x, minlength=k).astype(np.int64)),
        "sy": pa.array(np.bincount(codes, weights=yq, minlength=k).astype(np.int64)),
        "sxy": pa.array(np.bincount(codes, weights=x * yq, minlength=k).astype(np.int64)),
        "sxx": pa.array(np.bincount(codes, weights=x * x, minlength=k).astype(np.int64)),
    })


def group_ols(ds: "ray.data.Dataset", group_col: str, x_col: str,
              y_col: str) -> "ray.data.Dataset":
    """Least-squares ``y ~ a + b·x`` per group.

    Output: group, n, ``slope`` and ``intercept`` (in quantized-y units
    divided back out), NULL slope for degenerate groups (n < 2 or zero
    x-variance).

    Scale shape: per-batch integer partials collapse each batch to
    O(#groups) rows before the shuffle; the final closed form runs on
    the tiny aggregated table.

    .. note:: ``np.bincount(weights=...)`` accumulates in float64 —
       exact for |Σ| < 2^53, far above any per-batch partial here
       (int64 casts would overflow the same place float64 loses
       exactness anyway).
    """
    part = ds.map_batches(
        lambda b: _partials(b, group_col, x_col, y_col, 100.0),
        batch_format="pyarrow", zero_copy_batch=True)
    agg = part.groupby(group_col).aggregate(
        Sum("n", alias_name="n"), Sum("sx", alias_name="sx"),
        Sum("sy", alias_name="sy"), Sum("sxy", alias_name="sxy"),
        Sum("sxx", alias_name="sxx"))

    def fit(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        sx = batch.column("sx").to_numpy(zero_copy_only=False).astype(np.float64)
        sy = batch.column("sy").to_numpy(zero_copy_only=False).astype(np.float64)
        sxy = batch.column("sxy").to_numpy(zero_copy_only=False).astype(np.float64)
        sxx = batch.column("sxx").to_numpy(zero_copy_only=False).astype(np.float64)
        den = n * sxx - sx * sx
        ok = den != 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (n * sxy - sx * sy) / den / 100.0
            intercept = (sy / 100.0 - slope * sx) / n
        return pa.table({
            batch.column_names[0]: batch.column(0),
            "n": batch.column("n"),
            "slope": pa.array(np.where(ok, slope, np.nan),
                              mask=~ok),
            "intercept": pa.array(np.where(ok, intercept, np.nan),
                                  mask=~ok),
        })

    return agg.map_batches(fit, batch_format="pyarrow", zero_copy_batch=True)


def _pearson_partials(batch: pa.Table, group_col: str, x_col: str,
                      y_col: str, y_scale: float) -> pa.Table:
    g = batch.column(group_col)
    x = batch.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
    y = batch.column(y_col).to_numpy(zero_copy_only=False)
    yq = np.round(y * y_scale, 0).astype(np.int64)
    codes, uniq = g.to_pandas().factorize()
    k = len(uniq)
    def bc(w):
        return pa.array(np.bincount(codes, weights=w,
                                    minlength=k).astype(np.int64))
    return pa.table({
        group_col: pa.array(uniq),
        "n": pa.array(np.bincount(codes, minlength=k).astype(np.int64)),
        "sx": bc(x), "sy": bc(yq), "sxy": bc(x * yq),
        "sxx": bc(x * x), "syy": bc(yq * yq),
    })


def group_pearson(ds: "ray.data.Dataset", group_col: str, x_col: str,
                  y_col: str) -> "ray.data.Dataset":
    """Per-group Pearson correlation between an integer x column and a
    quantized y column.

    Same exact-integer sufficient-statistics shape as :func:`group_ols`
    (one extra Σy² moment): per-batch partials collapse to O(#groups)
    rows before the single shuffle, and the final ``r`` is one closed
    double expression — ``(n·Σxy − Σx·Σy) / sqrt((n·Σx²−Σx²)·(n·Σy²−Σy²))``
    — replayed token-for-token by the SQL oracle, so the gate is
    bit-stable under any partitioning.  NULL for degenerate groups
    (zero variance on either side).  The y quantization drops
    correlation information below 1/100 — acceptable for gate
    determinism; pass a larger scale when fidelity matters.
    """
    part = ds.map_batches(
        lambda b: _pearson_partials(b, group_col, x_col, y_col, 100.0),
        batch_format="pyarrow", zero_copy_batch=True)
    agg = part.groupby(group_col).aggregate(
        Sum("n", alias_name="n"), Sum("sx", alias_name="sx"),
        Sum("sy", alias_name="sy"), Sum("sxy", alias_name="sxy"),
        Sum("sxx", alias_name="sxx"), Sum("syy", alias_name="syy"))

    def fit(batch: pa.Table) -> pa.Table:
        f = {c: batch.column(c).to_numpy(zero_copy_only=False)
             .astype(np.float64) for c in
             ("n", "sx", "sy", "sxy", "sxx", "syy")}
        varx = f["n"] * f["sxx"] - f["sx"] * f["sx"]
        vary = f["n"] * f["syy"] - f["sy"] * f["sy"]
        num = f["n"] * f["sxy"] - f["sx"] * f["sy"]
        ok = (varx > 0.0) & (vary > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = num / np.sqrt(varx * vary)
        return pa.table({
            batch.column_names[0]: batch.column(0),
            "n": batch.column("n"),
            "r": pa.array(np.where(ok, r, np.nan), mask=~ok),
        })

    return agg.map_batches(fit, batch_format="pyarrow", zero_copy_batch=True)
